//! Hash-consed zone interning for a single solve.
//!
//! The solver engines keep re-deriving the same canonical DBMs — the
//! `subsumed_zones` counters show most offered zones were already seen. A
//! [`ZoneStore`] interns each distinct canonical matrix once and hands out a
//! cheap `Copy` handle ([`ZoneId`]); passed lists become id vectors
//! ([`ZoneSet`]), zone equality becomes id equality, and pairwise
//! subsumption checks ([`ZoneStore::relation`]) are memoized per id pair.
//!
//! Each entry holds one copy of its canonical matrix: the passed-list
//! coverage checks and the subsumption memo read that form, so nothing else
//! is kept beside it.
//!
//! The store belongs to one solve and is never shared across threads:
//! a solve runs on its caller's thread, and interns only in the offer and
//! merge steps of its loop.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault};

use crate::dbm::{Dbm, Relation};
use crate::federation::{Coverage, Federation};
use crate::hash::StateHasher;

/// Maps keyed by dense ids and by the already-keyed zone hashes.
type IdHasher = BuildHasherDefault<StateHasher>;

/// Cheap `Copy` handle to a zone interned in a [`ZoneStore`].
///
/// Ids are dense and allocated in interning order, so they are deterministic
/// for a deterministic offer sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ZoneId(u32);

impl ZoneId {
    /// The dense index of this id (0-based interning order).
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

struct Entry {
    zone: Dbm,
    /// The previously interned entry with the same zone hash, if any.
    next_same_hash: Option<u32>,
}

/// Per-solve interning arena for canonical DBMs.
pub struct ZoneStore {
    dim: usize,
    entries: Vec<Entry>,
    /// Zone hash -> the latest entry with that hash; earlier ones follow
    /// through [`Entry::next_same_hash`] (collisions resolved by equality).
    index: HashMap<u64, u32, IdHasher>,
    /// The randomly keyed `SipHash` behind the zone hashes of `index`.
    /// Zones grow from the models `tiga serve` accepts, so an unkeyed hash
    /// would let a crafted model collide zones and lengthen the chains
    /// [`ZoneStore::intern`] walks.
    zone_hasher: RandomState,
    /// Memoized `zone(a).relation(zone(b))` results.
    relations: HashMap<(u32, u32), Relation, IdHasher>,
    /// Buffers of the passed-list coverage check in [`ZoneSet::insert`].
    coverage: Coverage,
    hits: usize,
}

impl ZoneStore {
    /// Creates an empty store for zones of the given dimension.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        ZoneStore {
            dim,
            entries: Vec::new(),
            index: HashMap::default(),
            zone_hasher: RandomState::new(),
            relations: HashMap::default(),
            coverage: Coverage::default(),
            hits: 0,
        }
    }

    /// Zone dimension this store interns.
    #[inline]
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of distinct zones interned so far.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if nothing has been interned yet.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// How many [`ZoneStore::intern`] calls found the zone already present.
    #[inline]
    #[must_use]
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Interns a canonical zone; returns its id and whether it was new
    /// (i.e. the store took a deep copy).
    pub fn intern(&mut self, zone: &Dbm) -> (ZoneId, bool) {
        debug_assert_eq!(zone.dim(), self.dim, "dimension mismatch");
        let key = self.zone_hasher.hash_one(zone);
        let head = self.index.get(&key).copied();
        let mut candidate = head;
        while let Some(c) = candidate {
            let entry = &self.entries[c as usize];
            if entry.zone == *zone {
                self.hits += 1;
                return (ZoneId(c), false);
            }
            candidate = entry.next_same_hash;
        }
        let id = self.entries.len() as u32;
        self.entries.push(Entry {
            zone: zone.clone(),
            next_same_hash: head,
        });
        self.index.insert(key, id);
        (ZoneId(id), true)
    }

    /// The canonical matrix for an id.
    #[inline]
    #[must_use]
    pub fn zone(&self, id: ZoneId) -> &Dbm {
        &self.entries[id.index()].zone
    }

    /// Memoized `zone(a).relation(zone(b))`.
    pub fn relation(&mut self, a: ZoneId, b: ZoneId) -> Relation {
        if a == b {
            return Relation::Equal;
        }
        let key = (a.0, b.0);
        if let Some(&r) = self.relations.get(&key) {
            return r;
        }
        let r = self.zone(a).relation(self.zone(b));
        let mirror = match r {
            Relation::Subset => Relation::Superset,
            Relation::Superset => Relation::Subset,
            other => other,
        };
        self.relations.insert(key, r);
        self.relations.insert((b.0, a.0), mirror);
        r
    }

    /// Whether `zone` is covered by the union of the interned `members`.
    fn covered_by(&mut self, zone: &Dbm, members: &[ZoneId]) -> bool {
        let ZoneStore {
            entries, coverage, ..
        } = self;
        coverage.covers(zone, members.iter().map(|&m| &entries[m.index()].zone))
    }
}

/// A passed list held as interned ids, mirroring
/// [`Federation::insert_subsumed`] verdict-for-verdict and member-for-member.
///
/// The extra `ever` set exploits monotone coverage: once a zone has been
/// offered, the union only ever grows, so re-offering the same interned id
/// can be rejected in O(1) without re-running the subsumption sweep.
#[derive(Default)]
pub struct ZoneSet {
    ids: Vec<ZoneId>,
    ever: HashSet<ZoneId, IdHasher>,
}

impl ZoneSet {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        ZoneSet::default()
    }

    /// Current member count (non-subsumed zones).
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Returns `true` if the set denotes the empty union.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Member ids in insertion (federation member) order.
    #[inline]
    #[must_use]
    pub fn ids(&self) -> &[ZoneId] {
        &self.ids
    }

    /// The members as borrowed canonical matrices.
    pub fn zones<'a>(&'a self, store: &'a ZoneStore) -> impl Iterator<Item = &'a Dbm> + Clone + 'a {
        self.ids.iter().map(move |&id| store.zone(id))
    }

    /// Whether `id` is a current member: offered, added, and not since
    /// dropped by a later zone that subsumes it.
    #[inline]
    #[must_use]
    pub fn contains(&self, id: ZoneId) -> bool {
        self.ids.contains(&id)
    }

    /// Offers a zone, mirroring [`Federation::insert_subsumed`] exactly:
    /// returns `None` for empty or already-covered zones, otherwise adds
    /// the zone, drops members it subsumes, and returns the new member's id.
    pub fn insert(&mut self, store: &mut ZoneStore, zone: &Dbm) -> Option<ZoneId> {
        if zone.is_empty() {
            return None;
        }
        let (id, _) = store.intern(zone);
        if !self.ever.insert(id) {
            // Monotone coverage: this exact zone was offered before, so the
            // union already covers it — same verdict the full sweep gives.
            return None;
        }
        // The includes_zone check, against the interned members.
        if store.covered_by(zone, &self.ids) {
            return None;
        }
        // add_zone: the early subset return cannot fire (a single member
        // covering `zone` would have been found above); drop members the new
        // zone subsumes, then append.
        self.ids
            .retain(|&m| !matches!(store.relation(m, id), Relation::Subset | Relation::Equal));
        self.ids.push(id);
        Some(id)
    }

    /// Materializes the members into an owned [`Federation`] with the exact
    /// member sequence [`Federation::insert_subsumed`] would have built from
    /// the same offers.
    #[must_use]
    pub fn to_federation(&self, store: &ZoneStore) -> Federation {
        Federation::from_zones(
            store.dim(),
            self.ids.iter().map(|&id| store.zone(id).clone()),
        )
    }

    /// Set equality against another `ZoneSet` of the same store: id-set
    /// comparison, no zone closures.
    #[must_use]
    pub fn set_equals_interned(&self, other: &ZoneSet) -> bool {
        if self.ids == other.ids {
            return true;
        }
        let mut a = self.ids.clone();
        let mut b = other.ids.clone();
        a.sort_unstable();
        b.sort_unstable();
        a == b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::Bound;

    fn interval(dim: usize, clock: usize, lo: i32, hi: i32) -> Dbm {
        let mut z = Dbm::universe(dim);
        assert!(z.constrain(0, clock, Bound::le(-lo)));
        assert!(z.constrain(clock, 0, Bound::le(hi)));
        z
    }

    #[test]
    fn intern_dedups_and_counts_hits() {
        let mut store = ZoneStore::new(3);
        let a = interval(3, 1, 0, 5);
        let b = interval(3, 1, 2, 7);
        let (ia, new_a) = store.intern(&a);
        let (ib, new_b) = store.intern(&b);
        let (ia2, again) = store.intern(&a.clone());
        assert!(new_a && new_b && !again);
        assert_eq!(ia, ia2);
        assert_ne!(ia, ib);
        assert_eq!(store.len(), 2);
        assert_eq!(store.hits(), 1);
    }

    #[test]
    fn relation_is_memoized_with_mirror() {
        let mut store = ZoneStore::new(2);
        let small = interval(2, 1, 2, 3);
        let big = interval(2, 1, 0, 5);
        let (s, _) = store.intern(&small);
        let (b, _) = store.intern(&big);
        assert_eq!(store.relation(s, b), Relation::Subset);
        assert_eq!(store.relation(b, s), Relation::Superset);
        assert_eq!(store.relation(s, s), Relation::Equal);
    }

    /// The ZoneSet must agree with Federation::insert_subsumed on every
    /// verdict and keep the identical member sequence.
    #[test]
    fn zone_set_mirrors_insert_subsumed() {
        let mut store = ZoneStore::new(3);
        let mut set = ZoneSet::new();
        let mut fed = Federation::empty(3);
        let offers = vec![
            interval(3, 1, 0, 5),
            interval(3, 1, 2, 3),  // subsumed
            interval(3, 1, 0, 5),  // duplicate
            interval(3, 2, 1, 4),  // incomparable
            interval(3, 1, 0, 9),  // subsumes the first
            interval(3, 1, 2, 3),  // still subsumed
            interval(3, 2, 0, 10), // subsumes the clock-2 member
        ];
        for zone in &offers {
            let expect = fed.insert_subsumed(zone.clone());
            let got = set.insert(&mut store, zone);
            assert_eq!(got.is_some(), expect, "verdict diverged on {zone:?}");
            assert_eq!(set.to_federation(&store), fed, "members diverged");
        }
        assert_eq!(set.len(), fed.len());
    }

    #[test]
    fn insert_returns_the_member_id_until_a_superset_drops_it() {
        let mut store = ZoneStore::new(2);
        let mut set = ZoneSet::new();
        let small = interval(2, 1, 2, 3);
        let id = set.insert(&mut store, &small).expect("a new zone is added");
        assert_eq!(id, store.intern(&small).0);
        assert_eq!(set.ids(), &[id]);
        assert!(set.contains(id));
        // Re-offering it, or offering a subset, adds nothing.
        assert_eq!(set.insert(&mut store, &small), None);
        assert_eq!(set.insert(&mut store, &interval(2, 1, 2, 2)), None);
        assert!(set.contains(id));
        // A later superset replaces it: the old id is no longer a member.
        let big = set
            .insert(&mut store, &interval(2, 1, 0, 5))
            .expect("a superset is added");
        assert_ne!(big, id);
        assert_eq!(set.ids(), &[big]);
        assert!(set.contains(big));
        assert!(!set.contains(id));
        // Offering the dropped zone again does not bring it back.
        assert_eq!(set.insert(&mut store, &small), None);
        assert!(!set.contains(id));
    }

    #[test]
    fn empty_zone_is_rejected_without_interning() {
        let mut store = ZoneStore::new(2);
        let mut set = ZoneSet::new();
        let mut empty = Dbm::universe(2);
        assert!(!empty.constrain(1, 0, Bound::lt(0)));
        assert_eq!(set.insert(&mut store, &empty), None);
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn interned_set_equality_ignores_member_order() {
        let mut store = ZoneStore::new(3);
        let a = interval(3, 1, 0, 3);
        let b = interval(3, 2, 5, 9);
        let mut s1 = ZoneSet::new();
        let mut s2 = ZoneSet::new();
        s1.insert(&mut store, &a);
        s1.insert(&mut store, &b);
        s2.insert(&mut store, &b);
        s2.insert(&mut store, &a);
        assert!(s1.set_equals_interned(&s2));
        let mut s3 = ZoneSet::new();
        s3.insert(&mut store, &a);
        assert!(!s1.set_equals_interned(&s3));
    }
}
