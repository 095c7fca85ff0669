//! Declarations of bounded integer variables, clocks and channels.

use crate::error::ModelError;
use crate::ids::{ChannelId, ClockId, VarId};
use std::sync::Arc;

/// Declaration of a bounded integer variable or array.
///
/// Arrays are flattened into the variable store; `size == 1` denotes a
/// scalar.  Every element shares the same `[lower, upper]` range and initial
/// value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VarDecl {
    name: Arc<str>,
    size: usize,
    lower: i64,
    upper: i64,
    initial: i64,
    offset: usize,
}

impl VarDecl {
    /// Variable (or array) name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of elements (`1` for scalars).
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Inclusive lower bound of every element.
    #[must_use]
    pub fn lower(&self) -> i64 {
        self.lower
    }

    /// Inclusive upper bound of every element.
    #[must_use]
    pub fn upper(&self) -> i64 {
        self.upper
    }

    /// Initial value of every element.
    #[must_use]
    pub fn initial(&self) -> i64 {
        self.initial
    }

    /// Offset of the first element in the flattened variable store.
    #[must_use]
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Returns `true` if this declaration is an array.
    #[must_use]
    pub fn is_array(&self) -> bool {
        self.size > 1
    }
}

/// The table of discrete variables declared by a system.
///
/// The table holds the declarations and assigns offsets into the flattened
/// variable store used by [`crate::DiscreteState`].  A clone shares the
/// declarations, so the systems derived from one another share one table.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VarTable {
    decls: Arc<[VarDecl]>,
    total: usize,
}

impl VarTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        VarTable::default()
    }

    /// Declares a variable or array.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::DuplicateName`] if the name is already taken, and
    /// [`ModelError::Invalid`] for empty arrays, inverted ranges or initial
    /// values outside the range.
    pub fn declare(
        &mut self,
        name: &str,
        size: usize,
        lower: i64,
        upper: i64,
        initial: i64,
    ) -> Result<VarId, ModelError> {
        if self.decls.iter().any(|d| &*d.name == name) {
            return Err(ModelError::DuplicateName(name.to_string()));
        }
        if size == 0 {
            return Err(ModelError::Invalid(format!("array `{name}` has size 0")));
        }
        if lower > upper {
            return Err(ModelError::Invalid(format!(
                "variable `{name}` has empty range [{lower}, {upper}]"
            )));
        }
        if initial < lower || initial > upper {
            return Err(ModelError::Invalid(format!(
                "initial value {initial} of `{name}` outside [{lower}, {upper}]"
            )));
        }
        let id = VarId(self.decls.len());
        let decl = VarDecl {
            name: name.into(),
            size,
            lower,
            upper,
            initial,
            offset: self.total,
        };
        self.decls = self.decls.iter().cloned().chain([decl]).collect();
        self.total += size;
        Ok(id)
    }

    /// Looks a variable up by name.
    #[must_use]
    pub fn lookup(&self, name: &str) -> Option<VarId> {
        self.decls.iter().position(|d| &*d.name == name).map(VarId)
    }

    /// The declaration behind an identifier.
    ///
    /// # Panics
    ///
    /// Panics if the identifier does not belong to this table.
    #[must_use]
    pub fn decl(&self, id: VarId) -> &VarDecl {
        &self.decls[id.0]
    }

    /// Offset of a variable's first element in the flattened store.
    ///
    /// # Panics
    ///
    /// Panics if the identifier does not belong to this table.
    #[must_use]
    pub fn offset(&self, id: VarId) -> usize {
        self.decls[id.0].offset
    }

    /// Number of declarations (arrays count once).
    #[must_use]
    pub fn len(&self) -> usize {
        self.decls.len()
    }

    /// Returns `true` if no variable has been declared.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.decls.is_empty()
    }

    /// Iterates over the declarations in declaration order.
    pub fn iter(&self) -> std::slice::Iter<'_, VarDecl> {
        self.decls.iter()
    }

    /// Builds the initial flattened variable store.
    #[must_use]
    pub fn initial_store(&self) -> Vec<i64> {
        let mut store = vec![0; self.total];
        for d in self.decls.iter() {
            for slot in store.iter_mut().skip(d.offset).take(d.size) {
                *slot = d.initial;
            }
        }
        store
    }

    /// Checks a value against the declared range of a variable.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::VariableOutOfRange`] if outside the range.
    pub fn check_range(&self, id: VarId, value: i64) -> Result<(), ModelError> {
        let d = self.decl(id);
        if value < d.lower || value > d.upper {
            Err(ModelError::VariableOutOfRange {
                name: d.name.to_string(),
                value,
            })
        } else {
            Ok(())
        }
    }

    /// Resolves a flattened store offset back to `(variable, element index)`.
    ///
    /// Useful for diagnostics; returns `None` for offsets beyond the store.
    #[must_use]
    pub fn resolve_offset(&self, offset: usize) -> Option<(VarId, usize)> {
        for (i, d) in self.decls.iter().enumerate() {
            if offset >= d.offset && offset < d.offset + d.size {
                return Some((VarId(i), offset - d.offset));
            }
        }
        None
    }
}

impl<'a> IntoIterator for &'a VarTable {
    type Item = &'a VarDecl;
    type IntoIter = std::slice::Iter<'a, VarDecl>;

    fn into_iter(self) -> Self::IntoIter {
        self.decls.iter()
    }
}

/// Declaration of a clock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClockDecl {
    name: String,
    /// Minimum extrapolation constant: [`crate::System::max_bounds`] never
    /// reports less than this for the clock, even when no guard or invariant
    /// mentions it.  Needed for auxiliary clocks (the `#t` tick clock of
    /// time-bounded objectives) whose relevant constant comes from the test
    /// purpose rather than the model.
    max_constant_floor: i32,
}

impl ClockDecl {
    pub(crate) fn new(name: &str) -> Self {
        ClockDecl {
            name: name.to_string(),
            max_constant_floor: 0,
        }
    }

    pub(crate) fn with_max_constant(name: &str, max_constant_floor: i32) -> Self {
        ClockDecl {
            name: name.to_string(),
            max_constant_floor,
        }
    }

    /// Clock name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Minimum extrapolation constant contributed by the declaration itself
    /// (`0` for ordinary clocks).
    #[must_use]
    pub fn max_constant_floor(&self) -> i32 {
        self.max_constant_floor
    }
}

/// Whether an action/channel is controlled by the tester (input to the plant)
/// or by the plant itself (output).
///
/// In the TIOGA setting of the paper, inputs are exactly the controllable
/// actions and outputs exactly the uncontrollable ones (Definition 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ChannelKind {
    /// Controllable: offered by the tester/environment (`touch?` on the plant).
    Input,
    /// Uncontrollable: produced by the plant (`bright!`, `dim!`, ...).
    Output,
    /// Internal (neither observable input nor output); controllability is
    /// taken from the edge that uses it.
    Internal,
}

/// Declaration of a synchronization channel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Channel {
    name: String,
    kind: ChannelKind,
}

impl Channel {
    pub(crate) fn new(name: &str, kind: ChannelKind) -> Self {
        Channel {
            name: name.to_string(),
            kind,
        }
    }

    /// Channel name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declared kind (input / output / internal).
    #[must_use]
    pub fn kind(&self) -> ChannelKind {
        self.kind
    }

    /// Returns `true` if synchronizations on this channel are controllable
    /// moves of the tester.
    #[must_use]
    pub fn is_controllable(&self) -> bool {
        matches!(self.kind, ChannelKind::Input)
    }
}

/// Direction of an observable action from the plant's point of view.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IoDir {
    /// The action enters the plant (tester stimulus).
    Input,
    /// The action leaves the plant (observed output).
    Output,
}

/// An observable action: a channel together with its direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Action {
    /// Channel carrying the action.
    pub channel: ChannelId,
    /// Direction w.r.t. the plant.
    pub dir: IoDir,
}

impl Action {
    /// Creates an input action (tester → plant).
    #[must_use]
    pub fn input(channel: ChannelId) -> Self {
        Action {
            channel,
            dir: IoDir::Input,
        }
    }

    /// Creates an output action (plant → tester).
    #[must_use]
    pub fn output(channel: ChannelId) -> Self {
        Action {
            channel,
            dir: IoDir::Output,
        }
    }

    /// Returns `true` for input actions.
    #[must_use]
    pub fn is_input(&self) -> bool {
        self.dir == IoDir::Input
    }
}

/// Reference to a clock used in constraints: either a real clock or the
/// implicit zero-valued reference clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ClockRef {
    /// The constant-zero reference clock.
    Zero,
    /// A declared clock.
    Clock(ClockId),
}

impl ClockRef {
    /// DBM index of the referenced clock.
    #[must_use]
    pub fn dbm_index(self) -> usize {
        match self {
            ClockRef::Zero => 0,
            ClockRef::Clock(c) => c.dbm_index(),
        }
    }
}

impl From<ClockId> for ClockRef {
    fn from(c: ClockId) -> Self {
        ClockRef::Clock(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_and_lookup() {
        let mut t = VarTable::new();
        let a = t.declare("a", 1, 0, 10, 3).unwrap();
        let arr = t.declare("arr", 4, 0, 1, 0).unwrap();
        assert_eq!(t.lookup("a"), Some(a));
        assert_eq!(t.lookup("arr"), Some(arr));
        assert_eq!(t.lookup("missing"), None);
        assert_eq!(t.offset(arr), 1);
        assert_eq!(t.initial_store(), vec![3, 0, 0, 0, 0]);
        assert!(t.decl(arr).is_array());
        assert!(!t.decl(a).is_array());
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn duplicate_and_invalid_declarations_rejected() {
        let mut t = VarTable::new();
        t.declare("a", 1, 0, 10, 0).unwrap();
        assert!(matches!(
            t.declare("a", 1, 0, 10, 0),
            Err(ModelError::DuplicateName(_))
        ));
        assert!(matches!(
            t.declare("b", 0, 0, 10, 0),
            Err(ModelError::Invalid(_))
        ));
        assert!(matches!(
            t.declare("c", 1, 5, 3, 4),
            Err(ModelError::Invalid(_))
        ));
        assert!(matches!(
            t.declare("d", 1, 0, 3, 7),
            Err(ModelError::Invalid(_))
        ));
    }

    #[test]
    fn range_checks() {
        let mut t = VarTable::new();
        let a = t.declare("a", 1, -2, 2, 0).unwrap();
        assert!(t.check_range(a, 2).is_ok());
        assert!(t.check_range(a, -2).is_ok());
        assert!(matches!(
            t.check_range(a, 3),
            Err(ModelError::VariableOutOfRange { .. })
        ));
    }

    #[test]
    fn resolve_offsets() {
        let mut t = VarTable::new();
        let a = t.declare("a", 1, 0, 1, 0).unwrap();
        let arr = t.declare("arr", 3, 0, 1, 0).unwrap();
        assert_eq!(t.resolve_offset(0), Some((a, 0)));
        assert_eq!(t.resolve_offset(2), Some((arr, 1)));
        assert_eq!(t.resolve_offset(9), None);
    }

    #[test]
    fn channel_controllability() {
        let input = Channel::new("touch", ChannelKind::Input);
        let output = Channel::new("bright", ChannelKind::Output);
        assert!(input.is_controllable());
        assert!(!output.is_controllable());
        assert_eq!(input.kind(), ChannelKind::Input);
        assert_eq!(output.name(), "bright");
    }

    #[test]
    fn clock_refs_map_to_dbm_indices() {
        assert_eq!(ClockRef::Zero.dbm_index(), 0);
        assert_eq!(ClockRef::from(ClockId::from_index(2)).dbm_index(), 3);
    }
}
