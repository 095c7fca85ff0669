//! Packed storage of discrete states.
//!
//! A [`DiscreteState`] is two heap vectors; an explored game holds hundreds
//! of thousands of them.  A [`StateStore`] keeps each distinct state once,
//! as a fixed number of `u64` words in one arena, after the compact
//! passed-list representation of Larsen, Larsson, Pettersson and Yi (RTSS
//! 1997).  Everything above the store holds a dense [`StateIndex`].
//!
//! The [`StateLayout`] is derived once from the [`System`]: every
//! automaton's location takes the bits its location count needs, and every
//! flattened variable slot the bits of its declared range, stored as the
//! offset from the lower bound.  The fields are packed most significant
//! bit first in `(locations, vars)` order, so comparing two states' words
//! lexicographically is comparing their `(locations, vars)`.  A value
//! outside its declared range cannot be packed: [`StateLayout::pack`]
//! returns an error for it.
//!
//! States are found through the standard library's randomly keyed SipHash
//! of their words; states with the same hash are chained and told apart by
//! word equality, the [`tiga_dbm::ZoneStore`] idiom.  The hash stays keyed
//! because `tiga serve` explores models sent by untrusted clients.

use crate::decl::VarTable;
use crate::error::ModelError;
use crate::ids::LocationId;
use crate::symbolic::DiscreteState;
use crate::system::System;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault};
use tiga_dbm::StateHasher;

/// Dense index of a state in a [`StateStore`], in interning order.
pub type StateIndex = usize;

/// One packed field: its bit offset from the most significant bit of the
/// first word, its width, and the value range it holds.
#[derive(Clone, Copy, Debug)]
struct Field {
    start: u32,
    width: u32,
    lower: i64,
    upper: i64,
}

impl Field {
    fn new(start: &mut u32, lower: i64, upper: i64) -> Self {
        // The span of the widest declarable range, `i64::MIN..=i64::MAX`,
        // is `u64::MAX`: 64 bits.
        let span = (i128::from(upper) - i128::from(lower)) as u64;
        let width = u64::BITS - span.leading_zeros();
        let field = Field {
            start: *start,
            width,
            lower,
            upper,
        };
        *start += width;
        field
    }

    /// ORs `value` (below `2^width`) into the field's bits.
    fn put(self, words: &mut [u64], value: u64) {
        if self.width == 0 {
            return;
        }
        let (i, end) = ((self.start / 64) as usize, self.start % 64 + self.width);
        if end <= 64 {
            words[i] |= value << (64 - end);
        } else {
            words[i] |= value >> (end - 64);
            words[i + 1] |= value << (128 - end);
        }
    }

    /// The field's bits.
    fn get(self, words: &[u64]) -> u64 {
        if self.width == 0 {
            return 0;
        }
        let (i, end) = ((self.start / 64) as usize, self.start % 64 + self.width);
        let mask = u64::MAX >> (64 - self.width);
        if end <= 64 {
            (words[i] >> (64 - end)) & mask
        } else {
            ((words[i] << (end - 64)) | (words[i + 1] >> (128 - end))) & mask
        }
    }

    /// The field's bits for `value`, or `None` outside its range.
    fn encode(self, value: i64) -> Option<u64> {
        (self.lower..=self.upper)
            .contains(&value)
            .then(|| (value as u64).wrapping_sub(self.lower as u64))
    }

    fn decode(self, bits: u64) -> i64 {
        (self.lower as u64).wrapping_add(bits) as i64
    }
}

/// How the discrete states of one [`System`] pack into words.
#[derive(Clone, Debug)]
pub struct StateLayout {
    /// One field per automaton's location, then one per variable slot.
    fields: Box<[Field]>,
    automata: usize,
    /// Bits taken by the location fields, which come first.
    location_bits: u32,
    words: usize,
    /// The declarations, for the names in range errors.
    vars: VarTable,
}

impl StateLayout {
    /// The layout of `system`'s discrete states.
    #[must_use]
    pub fn new(system: &System) -> Self {
        let mut start = 0;
        let mut fields: Vec<Field> = system
            .automata()
            .iter()
            .map(|aut| Field::new(&mut start, 0, aut.locations().len() as i64 - 1))
            .collect();
        let location_bits = start;
        for decl in system.vars() {
            for _ in 0..decl.size() {
                fields.push(Field::new(&mut start, decl.lower(), decl.upper()));
            }
        }
        StateLayout {
            fields: fields.into_boxed_slice(),
            automata: system.automata().len(),
            location_bits,
            words: start.div_ceil(64) as usize,
            vars: system.vars().clone(),
        }
    }

    /// Words per packed state.
    #[must_use]
    pub fn words(&self) -> usize {
        self.words
    }

    /// Packs `state` into `out`, which holds [`StateLayout::words`] words.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::VariableOutOfRange`] for a variable outside its
    /// declared range, and [`ModelError::Invalid`] for a location its
    /// automaton does not have or a state of another shape.
    ///
    /// # Panics
    ///
    /// Panics if `out` does not hold [`StateLayout::words`] words.
    pub fn pack(&self, state: &DiscreteState, out: &mut [u64]) -> Result<(), ModelError> {
        assert_eq!(out.len(), self.words, "packed state width");
        let (locations, vars) = self.fields.split_at(self.automata);
        if state.locations.len() != locations.len() || state.vars.len() != vars.len() {
            return Err(ModelError::Invalid(format!(
                "a state of {} locations and {} variable slots, not {} and {}",
                state.locations.len(),
                state.vars.len(),
                locations.len(),
                vars.len()
            )));
        }
        out.fill(0);
        for (a, (field, location)) in locations.iter().zip(&state.locations).enumerate() {
            let bits = i64::try_from(location.index())
                .ok()
                .and_then(|l| field.encode(l))
                .ok_or_else(|| {
                    ModelError::Invalid(format!(
                        "automaton {a} has no location {}",
                        location.index()
                    ))
                })?;
            field.put(out, bits);
        }
        for (offset, (field, &value)) in vars.iter().zip(&state.vars).enumerate() {
            let bits = field
                .encode(value)
                .ok_or_else(|| self.out_of_range(offset, value))?;
            field.put(out, bits);
        }
        Ok(())
    }

    fn out_of_range(&self, offset: usize, value: i64) -> ModelError {
        let (var, k) = self
            .vars
            .resolve_offset(offset)
            .expect("every variable slot has a declaration");
        let decl = self.vars.decl(var);
        let name = if decl.is_array() {
            format!("{}[{k}]", decl.name())
        } else {
            decl.name().to_string()
        };
        ModelError::VariableOutOfRange { name, value }
    }

    /// Unpacks `words` into `out`, reusing its buffers.
    pub fn unpack(&self, words: &[u64], out: &mut DiscreteState) {
        let (locations, vars) = self.fields.split_at(self.automata);
        out.locations.clear();
        out.locations.extend(
            locations
                .iter()
                .map(|f| LocationId::from_index(f.get(words) as usize)),
        );
        out.vars.clear();
        out.vars.extend(vars.iter().map(|f| f.decode(f.get(words))));
    }

    /// Clears every variable bit of a packed state, leaving its location
    /// vector.
    pub(crate) fn keep_locations(&self, words: &mut [u64]) {
        for (i, word) in words.iter_mut().enumerate() {
            let keep = self.location_bits.saturating_sub(64 * i as u32).min(64);
            *word &= u64::MAX.checked_shl(64 - keep).unwrap_or(0);
        }
    }
}

/// Marks the end of a same-hash chain.
const NO_ENTRY: u32 = u32::MAX;

/// Keys of a fixed number of words, each kept once in one arena and
/// numbered in interning order.
#[derive(Clone, Debug)]
pub(crate) struct PackedSet {
    width: usize,
    arena: Vec<u64>,
    /// Per entry, the previously interned entry with the same hash.
    next_same_hash: Vec<u32>,
    /// Key hash -> the latest entry with that hash.
    index: HashMap<u64, u32, BuildHasherDefault<StateHasher>>,
    /// The randomly keyed SipHash behind the key hashes.
    hasher: RandomState,
}

/// Where [`PackedSet::insert`] puts a key that [`PackedSet::lookup`] did not
/// find: the key's hash.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Vacant(u64);

impl PackedSet {
    pub(crate) fn new(width: usize) -> Self {
        PackedSet {
            width,
            arena: Vec::new(),
            next_same_hash: Vec::new(),
            index: HashMap::default(),
            hasher: RandomState::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.next_same_hash.len()
    }

    pub(crate) fn get(&self, entry: usize) -> &[u64] {
        &self.arena[entry * self.width..(entry + 1) * self.width]
    }

    /// The entry holding `key`, or where to insert it.
    pub(crate) fn lookup(&self, key: &[u64]) -> Result<usize, Vacant> {
        let hash = self.hasher.hash_one(key);
        let mut candidate = self.index.get(&hash).copied().unwrap_or(NO_ENTRY);
        while candidate != NO_ENTRY {
            let entry = candidate as usize;
            if self.get(entry) == key {
                return Ok(entry);
            }
            candidate = self.next_same_hash[entry];
        }
        Err(Vacant(hash))
    }

    /// Adds `key`, which [`PackedSet::lookup`] did not find at `vacant` and
    /// which nothing has added since, and returns its entry.
    pub(crate) fn insert(&mut self, vacant: Vacant, key: &[u64]) -> usize {
        let entry = self.len();
        let id = u32::try_from(entry).expect("fewer than 2^32 - 1 entries");
        assert!(id != NO_ENTRY, "fewer than 2^32 - 1 entries");
        let head = self.index.insert(vacant.0, id).unwrap_or(NO_ENTRY);
        self.next_same_hash.push(head);
        self.arena.extend_from_slice(key);
        entry
    }
}

/// Every distinct discrete state of one exploration, packed once.
#[derive(Clone, Debug)]
pub struct StateStore {
    layout: StateLayout,
    states: PackedSet,
    /// The packing buffer of [`StateStore::intern`].
    scratch: Vec<u64>,
}

impl StateStore {
    /// An empty store for the states of `system`.
    #[must_use]
    pub fn new(system: &System) -> Self {
        let layout = StateLayout::new(system);
        StateStore {
            states: PackedSet::new(layout.words()),
            scratch: vec![0; layout.words()],
            layout,
        }
    }

    /// How the states pack.
    #[must_use]
    pub fn layout(&self) -> &StateLayout {
        &self.layout
    }

    /// Number of distinct states stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Returns `true` if no state is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.len() == 0
    }

    /// Stores `state` unless it is stored already.  Returns its index and
    /// whether it was new.
    ///
    /// # Errors
    ///
    /// Returns [`StateLayout::pack`]'s error for a state that does not
    /// pack; nothing is stored then.
    pub fn intern(&mut self, state: &DiscreteState) -> Result<(StateIndex, bool), ModelError> {
        self.layout.pack(state, &mut self.scratch)?;
        Ok(match self.states.lookup(&self.scratch) {
            Ok(idx) => (idx, false),
            Err(vacant) => (self.states.insert(vacant, &self.scratch), true),
        })
    }

    /// The index of a packed state, if it is stored.
    #[must_use]
    pub fn find(&self, words: &[u64]) -> Option<StateIndex> {
        self.states.lookup(words).ok()
    }

    /// [`StateStore::find`] and the vacancy for [`StateStore::insert`].
    pub(crate) fn lookup(&self, words: &[u64]) -> Result<StateIndex, Vacant> {
        self.states.lookup(words)
    }

    /// Stores a packed state that [`StateStore::lookup`] did not find.
    pub(crate) fn insert(&mut self, vacant: Vacant, words: &[u64]) -> StateIndex {
        self.states.insert(vacant, words)
    }

    /// The packed words of a stored state.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    #[must_use]
    pub fn words(&self, idx: StateIndex) -> &[u64] {
        assert!(idx < self.len(), "state index out of range");
        self.states.get(idx)
    }

    /// Unpacks a stored state into `out`, reusing its buffers.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn decode(&self, idx: StateIndex, out: &mut DiscreteState) {
        self.layout.unpack(self.words(idx), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_straddle_word_boundaries() {
        for start in [0, 1, 30, 63, 64, 100] {
            for width in [1, 2, 17, 63, 64] {
                let field = Field {
                    start,
                    width,
                    lower: 0,
                    upper: 0,
                };
                let mut words = [0u64; 4];
                let value = (u64::MAX >> (64 - width)) & 0xA5A5_A5A5_A5A5_A5A5 | 1;
                field.put(&mut words, value);
                assert_eq!(field.get(&words), value, "start {start} width {width}");
                let ones = words.iter().map(|w| w.count_ones()).sum::<u32>();
                assert_eq!(ones, value.count_ones(), "start {start} width {width}");
            }
        }
    }

    #[test]
    fn same_hash_chains_are_told_apart_by_words() {
        let mut set = PackedSet::new(2);
        let (a, b) = ([1, 2], [3, 4]);
        let Err(vacant) = set.lookup(&a) else {
            panic!("empty set");
        };
        assert_eq!(set.insert(vacant, &a), 0);
        // Insert `b` under `a`'s hash: the chain holds both.
        assert_eq!(set.insert(vacant, &b), 1);
        assert_eq!(set.lookup(&a).ok(), Some(0));
        assert_eq!(set.get(1), &b);
        assert!(set.lookup(&[5, 6]).is_err());
    }
}
