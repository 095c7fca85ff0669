//! Timed (I/O game) automata: locations, edges, guards, invariants.
//!
//! An [`Automaton`] is an immutable, shared value: it is never changed
//! after [`crate::AutomatonBuilder::build`], and a clone shares its
//! locations, edges and edge index instead of copying them.

use crate::decl::{ClockRef, VarTable};
use crate::error::{EvalError, ModelError};
use crate::expr::{CmpOp, Expr};
use crate::ids::{ChannelId, ClockId, EdgeId, LocationId, VarId};
use std::sync::Arc;
use tiga_dbm::{Bound, Dbm};

/// A single clock constraint `c  op  bound` or `c - c'  op  bound`, where the
/// bound is an integer expression over the discrete variables (most often a
/// constant such as `Tidle = 20` in the Smart Light model).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClockConstraint {
    /// Left-hand clock.
    pub left: ClockId,
    /// Optional clock subtracted from the left-hand clock.
    pub minus: Option<ClockId>,
    /// Comparison operator (must be convex: `!=` is rejected).
    pub op: CmpOp,
    /// Right-hand side, evaluated against the discrete variables.
    pub bound: Expr,
}

impl ClockConstraint {
    /// `clock op bound`.
    #[must_use]
    pub fn new(clock: ClockId, op: CmpOp, bound: impl Into<Expr>) -> Self {
        ClockConstraint {
            left: clock,
            minus: None,
            op,
            bound: bound.into(),
        }
    }

    /// `left - right op bound` (diagonal constraint).
    #[must_use]
    pub fn diff(left: ClockId, right: ClockId, op: CmpOp, bound: impl Into<Expr>) -> Self {
        ClockConstraint {
            left,
            minus: Some(right),
            op,
            bound: bound.into(),
        }
    }

    /// Conjoins this constraint onto a DBM, evaluating the bound against the
    /// given variable store.  Returns `false` if the zone becomes empty.
    ///
    /// # Errors
    ///
    /// Returns an error if the bound expression cannot be evaluated, the
    /// operator is `!=` (non-convex), or the bound constant lies outside the
    /// DBM encoding's `[-MAX_CONSTANT, MAX_CONSTANT]` range (this must be a
    /// diagnostic, not a [`Bound`] constructor panic: `.tg` inputs reach
    /// this path with arbitrary literals, e.g. `guard x >= -2147483648`,
    /// whose negation also overflows a plain `i32`).
    pub fn apply_to(
        &self,
        zone: &mut Dbm,
        table: &VarTable,
        store: &[i64],
    ) -> Result<bool, ModelError> {
        let m64 = self.bound.eval(table, store)?;
        constrain_clocks(zone, self.left, self.minus, self.op, m64)
    }

    /// Checks the constraint against a concrete valuation in ticks
    /// (`scale` ticks per time unit).
    ///
    /// # Errors
    ///
    /// Returns an error if the bound expression cannot be evaluated.
    pub fn holds_concrete(
        &self,
        clock_ticks: &[i64],
        scale: i64,
        table: &VarTable,
        store: &[i64],
    ) -> Result<bool, ModelError> {
        let m = self.bound.eval(table, store)?;
        let left = clock_ticks[self.left.index()];
        let right = self.minus.map_or(0, |c| clock_ticks[c.index()]);
        Ok(self.op.apply(left - right, m * scale))
    }

    /// Largest constant this constraint can contribute for extrapolation
    /// purposes, conservatively using variable upper bounds when the bound is
    /// not a constant.
    #[must_use]
    pub fn max_constant(&self, table: &VarTable) -> i64 {
        if let Some(c) = self.bound.as_constant() {
            c.abs()
        } else {
            // Conservative: the largest absolute value any variable may take,
            // plus the largest constant literal mentioned, bounded below by 1.
            let var_bound = table
                .iter()
                .map(|d| d.lower().abs().max(d.upper().abs()))
                .max()
                .unwrap_or(0);
            var_bound.max(1) * 2
        }
    }
}

/// A clock reset `clock := value` performed on an edge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClockReset {
    /// Clock being reset.
    pub clock: ClockId,
    /// New value (must evaluate to a non-negative integer).
    pub value: Expr,
}

impl ClockReset {
    /// Reset to zero, the common case.
    #[must_use]
    pub fn to_zero(clock: ClockId) -> Self {
        ClockReset {
            clock,
            value: Expr::constant(0),
        }
    }

    /// Reset to an arbitrary expression.
    #[must_use]
    pub fn to_value(clock: ClockId, value: impl Into<Expr>) -> Self {
        ClockReset {
            clock,
            value: value.into(),
        }
    }
}

/// An assignment `var := value` or `array[index] := value` performed on an
/// edge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Assignment {
    /// Variable (or array) being assigned.
    pub target: VarId,
    /// Element index for arrays, `None` for scalars.
    pub index: Option<Expr>,
    /// Assigned value.
    pub value: Expr,
}

impl Assignment {
    /// `target := value` for scalars.
    #[must_use]
    pub fn set(target: VarId, value: impl Into<Expr>) -> Self {
        Assignment {
            target,
            index: None,
            value: value.into(),
        }
    }

    /// `target[index] := value` for arrays.
    #[must_use]
    pub fn set_element(target: VarId, index: impl Into<Expr>, value: impl Into<Expr>) -> Self {
        Assignment {
            target,
            index: Some(index.into()),
            value: value.into(),
        }
    }
}

/// Synchronization label of an edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Sync {
    /// Internal step, not synchronizing with any other automaton.
    Tau,
    /// Receiving synchronization `c?`.
    Input(ChannelId),
    /// Emitting synchronization `c!`.
    Output(ChannelId),
}

impl Sync {
    /// The channel mentioned by the label, if any.
    #[must_use]
    pub fn channel(self) -> Option<ChannelId> {
        match self {
            Sync::Tau => None,
            Sync::Input(c) | Sync::Output(c) => Some(c),
        }
    }
}

/// The guard of an edge: a conjunction of clock constraints and a data guard
/// over the discrete variables.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Guard {
    /// Conjunction of clock constraints (empty means `true`).
    pub clocks: Vec<ClockConstraint>,
    /// Data guard over discrete variables (`None` means `true`).
    pub data: Option<Expr>,
}

impl Guard {
    /// The trivially true guard.
    #[must_use]
    pub fn always() -> Self {
        Guard::default()
    }

    /// Evaluates the data part of the guard.
    ///
    /// # Errors
    ///
    /// Propagates expression-evaluation errors.
    pub fn data_holds(&self, table: &VarTable, store: &[i64]) -> Result<bool, ModelError> {
        match &self.data {
            None => Ok(true),
            Some(e) => Ok(e.eval_bool(table, store)?),
        }
    }
}

/// An edge (transition) of an automaton.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Source location.
    pub source: LocationId,
    /// Target location.
    pub target: LocationId,
    /// Synchronization label.
    pub sync: Sync,
    /// Guard.
    pub guard: Guard,
    /// Clock resets, applied after the guard is checked.
    pub resets: Vec<ClockReset>,
    /// Variable updates, applied in order.
    pub updates: Vec<Assignment>,
    /// Controllability override for `Tau` edges (sync edges take theirs from
    /// the channel kind).
    pub controllable: Option<bool>,
}

/// A location of an automaton.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Location {
    /// Location name (unique within the automaton).
    pub name: String,
    /// Location invariant: a conjunction of clock constraints.
    pub invariant: Vec<ClockConstraint>,
    /// Urgent locations do not let time pass.
    pub urgent: bool,
}

impl Location {
    /// Creates a location with no invariant.
    #[must_use]
    pub fn new(name: &str) -> Self {
        Location {
            name: name.to_string(),
            invariant: Vec::new(),
            urgent: false,
        }
    }
}

/// An entry of an automaton's edge index: an edge and the channel it
/// synchronizes on (0 for a `tau` edge), packed so that walking a group
/// reads no [`Edge`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct IndexedEdge {
    edge: u32,
    channel: u32,
}

impl IndexedEdge {
    fn new(edge: usize, sync: Sync) -> Self {
        let narrow = |n: usize| u32::try_from(n).expect("an automaton has fewer than 2^32 edges");
        IndexedEdge {
            edge: narrow(edge),
            channel: narrow(sync.channel().map_or(0, ChannelId::index)),
        }
    }

    /// The edge.
    #[inline]
    pub(crate) fn id(self) -> EdgeId {
        EdgeId::from_index(self.edge as usize)
    }

    /// The channel of a synchronizing edge.
    #[inline]
    pub(crate) fn channel(self) -> ChannelId {
        ChannelId::from_index(self.channel as usize)
    }
}

/// A single timed (I/O game) automaton.
///
/// Controllability of actions is declared on the channels of the enclosing
/// [`crate::System`]; an automaton on its own is just a timed automaton with
/// synchronization labels.
///
/// Cloning an automaton is a reference-count bump: its parts are never
/// changed after it is built, so every clone shares them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Automaton {
    inner: Arc<AutomatonInner>,
}

/// The parts of an [`Automaton`], shared by its clones.
#[derive(Debug, PartialEq, Eq)]
struct AutomatonInner {
    name: String,
    locations: Vec<Location>,
    initial: LocationId,
    edges: Vec<Edge>,
    /// The edges grouped by source location and, within a location, by
    /// synchronization: its `tau` edges, then its outputs, then its inputs
    /// sorted by channel, each in declaration order.
    by_source: Vec<IndexedEdge>,
    /// Where each group starts in `by_source`: entries `3l`, `3l + 1` and
    /// `3l + 2` start location `l`'s `tau` edges, outputs and inputs; one
    /// extra entry closes the last group.
    groups: Vec<u32>,
}

impl Automaton {
    /// Automaton name (unique within the system).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The declared locations.
    #[must_use]
    pub fn locations(&self) -> &[Location] {
        &self.inner.locations
    }

    /// The initial location.
    #[must_use]
    pub fn initial(&self) -> LocationId {
        self.inner.initial
    }

    /// The declared edges.
    #[must_use]
    pub fn edges(&self) -> &[Edge] {
        &self.inner.edges
    }

    /// A location by identifier.
    ///
    /// # Panics
    ///
    /// Panics if the identifier does not belong to this automaton.
    #[must_use]
    pub fn location(&self, id: LocationId) -> &Location {
        &self.inner.locations[id.index()]
    }

    /// An edge by identifier.
    ///
    /// # Panics
    ///
    /// Panics if the identifier does not belong to this automaton.
    #[must_use]
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.inner.edges[id.index()]
    }

    /// Looks up a location by name.
    #[must_use]
    pub fn location_by_name(&self, name: &str) -> Option<LocationId> {
        self.inner
            .locations
            .iter()
            .position(|l| l.name == name)
            .map(LocationId::from_index)
    }

    /// Identifiers of the edges leaving a location: its `tau` edges, then
    /// its outputs, then its inputs sorted by channel, each group in
    /// declaration order (so the edges with one label come in declaration
    /// order).
    ///
    /// # Panics
    ///
    /// Panics if the identifier does not belong to this automaton.
    pub fn edges_from(&self, loc: LocationId) -> impl Iterator<Item = EdgeId> + '_ {
        self.group(3 * loc.index(), 3).iter().map(|e| e.id())
    }

    /// `count` consecutive groups of the edge index, from group `first`.
    #[inline]
    fn group(&self, first: usize, count: usize) -> &[IndexedEdge] {
        let inner = &*self.inner;
        &inner.by_source[inner.groups[first] as usize..inner.groups[first + count] as usize]
    }

    /// The `tau` edges leaving a location, in declaration order.
    #[inline]
    pub(crate) fn tau_edges(&self, loc: LocationId) -> &[IndexedEdge] {
        self.group(3 * loc.index(), 1)
    }

    /// The output edges leaving a location, in declaration order.
    #[inline]
    pub(crate) fn output_edges(&self, loc: LocationId) -> &[IndexedEdge] {
        self.group(3 * loc.index() + 1, 1)
    }

    /// The edges leaving a location that receive on `channel`, in
    /// declaration order.
    #[inline]
    pub(crate) fn receivers(&self, loc: LocationId, channel: ChannelId) -> &[IndexedEdge] {
        let inputs = self.group(3 * loc.index() + 2, 1);
        let start = inputs.partition_point(|e| e.channel() < channel);
        let end = start + inputs[start..].partition_point(|e| e.channel() == channel);
        &inputs[start..end]
    }

    /// The edges leaving a location labelled `sync`, in declaration order.
    pub(crate) fn edges_labelled(
        &self,
        loc: LocationId,
        sync: Sync,
    ) -> impl Iterator<Item = EdgeId> + '_ {
        let (group, outputs_on) = match sync {
            Sync::Tau => (self.tau_edges(loc), None),
            Sync::Output(channel) => (self.output_edges(loc), Some(channel)),
            Sync::Input(channel) => (self.receivers(loc, channel), None),
        };
        // Only the outputs mix channels.
        group
            .iter()
            .filter(move |e| outputs_on.is_none_or(|channel| e.channel() == channel))
            .map(|e| e.id())
    }

    /// Assembles an automaton from validated parts and indexes its edges
    /// by source location and synchronization for
    /// [`Automaton::edges_from`].
    pub(crate) fn new(
        name: String,
        locations: Vec<Location>,
        initial: LocationId,
        edges: Vec<Edge>,
    ) -> Self {
        // A counting sort into the groups (location, then tau < outputs <
        // inputs), each in declaration order; then the inputs of each
        // location are sorted by channel, stably.
        let group_of = |e: &Edge| {
            3 * e.source.index()
                + match e.sync {
                    Sync::Tau => 0,
                    Sync::Output(_) => 1,
                    Sync::Input(_) => 2,
                }
        };
        let mut groups = vec![0u32; 3 * locations.len() + 1];
        for e in &edges {
            groups[group_of(e) + 1] += 1;
        }
        for g in 1..groups.len() {
            groups[g] += groups[g - 1];
        }
        let mut by_source = vec![IndexedEdge::default(); edges.len()];
        for (i, e) in edges.iter().enumerate() {
            let slot = &mut groups[group_of(e)];
            by_source[*slot as usize] = IndexedEdge::new(i, e.sync);
            *slot += 1;
        }
        // Each group's cursor stopped where the next group starts.
        groups.rotate_right(1);
        groups[0] = 0;
        for l in 0..locations.len() {
            let inputs = groups[3 * l + 2] as usize..groups[3 * l + 3] as usize;
            by_source[inputs].sort_by_key(|e| e.channel);
        }
        Automaton {
            inner: Arc::new(AutomatonInner {
                name,
                locations,
                initial,
                edges,
                by_source,
                groups,
            }),
        }
    }
}

/// Conjoins `left - minus op m64` (`left op m64` without `minus`) onto a
/// DBM: the part of [`ClockConstraint::apply_to`] after the bound is
/// evaluated, with its range check and its `!=` rejection.
pub(crate) fn constrain_clocks(
    zone: &mut Dbm,
    left: ClockId,
    minus: Option<ClockId>,
    op: CmpOp,
    m64: i64,
) -> Result<bool, ModelError> {
    let limit = i64::from(tiga_dbm::MAX_CONSTANT);
    if !(-limit..=limit).contains(&m64) {
        return Err(ModelError::Eval(EvalError::Overflow));
    }
    let m = i32::try_from(m64).map_err(|_| ModelError::Eval(EvalError::Overflow))?;
    let i = left.dbm_index();
    let j = minus.map_or(0, ClockId::dbm_index);
    let ok = match op {
        CmpOp::Le => zone.constrain(i, j, Bound::le(m)),
        CmpOp::Lt => zone.constrain(i, j, Bound::lt(m)),
        CmpOp::Ge => zone.constrain(j, i, Bound::le(-m)),
        CmpOp::Gt => zone.constrain(j, i, Bound::lt(-m)),
        CmpOp::Eq => zone.constrain(i, j, Bound::le(m)) && zone.constrain(j, i, Bound::le(-m)),
        CmpOp::Ne => {
            return Err(ModelError::NonConvexClockConstraint(format!(
                "clock {left} != {m}"
            )))
        }
    };
    Ok(ok)
}

/// Helper re-exported for guard construction: `clock op bound`.
#[must_use]
pub fn clock_cmp(clock: ClockId, op: CmpOp, bound: impl Into<Expr>) -> ClockConstraint {
    ClockConstraint::new(clock, op, bound)
}

/// Reference to a clock or the constant zero, used by strategy output.
///
/// Currently only used for pretty-printing; kept here to avoid leaking DBM
/// indices into user-facing APIs.
#[must_use]
pub fn clock_ref(clock: ClockId) -> ClockRef {
    ClockRef::Clock(clock)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_table() -> VarTable {
        VarTable::new()
    }

    #[test]
    fn clock_constraint_to_dbm() {
        let table = empty_table();
        let x = ClockId::from_index(0);
        let mut zone = Dbm::universe(2);
        // x >= 4
        assert!(ClockConstraint::new(x, CmpOp::Ge, 4)
            .apply_to(&mut zone, &table, &[])
            .unwrap());
        // x < 10
        assert!(ClockConstraint::new(x, CmpOp::Lt, 10)
            .apply_to(&mut zone, &table, &[])
            .unwrap());
        assert!(zone.contains_scaled(&[0, 8]));
        assert!(!zone.contains_scaled(&[0, 6]));
        assert!(!zone.contains_scaled(&[0, 20]));
        // x == 5 empties when combined with x >= 6.
        let mut z2 = Dbm::universe(2);
        assert!(ClockConstraint::new(x, CmpOp::Ge, 6)
            .apply_to(&mut z2, &table, &[])
            .unwrap());
        assert!(!ClockConstraint::new(x, CmpOp::Eq, 5)
            .apply_to(&mut z2, &table, &[])
            .unwrap());
        assert!(z2.is_empty());
    }

    #[test]
    fn out_of_range_bounds_error_instead_of_panicking() {
        // Constants the Bound encoding cannot represent must surface as
        // evaluation errors, never as constructor panics — `.tg` inputs
        // reach this path with arbitrary literals.  `i32::MIN` is the nasty
        // one: it fits an i32, but `Ge`/`Gt` negate the constant.
        let table = empty_table();
        let x = ClockId::from_index(0);
        for value in [
            i64::from(i32::MIN),
            -i64::from(i32::MAX),
            i64::from(i32::MAX),
            i64::from(tiga_dbm::MAX_CONSTANT) + 1,
            -(i64::from(tiga_dbm::MAX_CONSTANT) + 1),
            i64::MIN,
            i64::MAX,
        ] {
            for op in [CmpOp::Le, CmpOp::Lt, CmpOp::Ge, CmpOp::Gt, CmpOp::Eq] {
                let mut zone = Dbm::universe(2);
                let err = ClockConstraint::new(x, op, value)
                    .apply_to(&mut zone, &table, &[])
                    .expect_err("out-of-range bound must error");
                assert!(matches!(err, ModelError::Eval(EvalError::Overflow)));
            }
        }
        // The full in-range boundary still works.
        let mut zone = Dbm::universe(2);
        assert!(
            ClockConstraint::new(x, CmpOp::Ge, -i64::from(tiga_dbm::MAX_CONSTANT))
                .apply_to(&mut zone, &table, &[])
                .unwrap()
        );
    }

    #[test]
    fn diagonal_constraint_to_dbm() {
        let table = empty_table();
        let x = ClockId::from_index(0);
        let y = ClockId::from_index(1);
        let mut zone = Dbm::universe(3);
        assert!(ClockConstraint::diff(x, y, CmpOp::Le, 2)
            .apply_to(&mut zone, &table, &[])
            .unwrap());
        assert!(zone.contains_scaled(&[0, 4, 0]));
        assert!(!zone.contains_scaled(&[0, 6, 0]));
    }

    #[test]
    fn nonconvex_constraint_rejected() {
        let table = empty_table();
        let x = ClockId::from_index(0);
        let mut zone = Dbm::universe(2);
        let err = ClockConstraint::new(x, CmpOp::Ne, 3)
            .apply_to(&mut zone, &table, &[])
            .unwrap_err();
        assert!(matches!(err, ModelError::NonConvexClockConstraint(_)));
    }

    #[test]
    fn constraint_with_variable_bound() {
        let mut table = VarTable::new();
        let t_idle = table.declare("Tidle", 1, 0, 100, 20).unwrap();
        let store = table.initial_store();
        let x = ClockId::from_index(0);
        let mut zone = Dbm::universe(2);
        assert!(ClockConstraint::new(x, CmpOp::Ge, Expr::var(t_idle))
            .apply_to(&mut zone, &table, &store)
            .unwrap());
        assert!(zone.contains_scaled(&[0, 40]));
        assert!(!zone.contains_scaled(&[0, 39]));
    }

    #[test]
    fn concrete_evaluation_of_constraints() {
        let table = empty_table();
        let x = ClockId::from_index(0);
        let c = ClockConstraint::new(x, CmpOp::Ge, 4);
        // scale 2: clock ticks of 7 mean 3.5 time units.
        assert!(!c.holds_concrete(&[7], 2, &table, &[]).unwrap());
        assert!(c.holds_concrete(&[8], 2, &table, &[]).unwrap());
        let d = ClockConstraint::new(x, CmpOp::Lt, 4);
        assert!(d.holds_concrete(&[7], 2, &table, &[]).unwrap());
        assert!(!d.holds_concrete(&[8], 2, &table, &[]).unwrap());
    }

    #[test]
    fn max_constant_for_extrapolation() {
        let mut table = VarTable::new();
        let n = table.declare("n", 1, 0, 8, 3).unwrap();
        let x = ClockId::from_index(0);
        assert_eq!(
            ClockConstraint::new(x, CmpOp::Le, 20).max_constant(&table),
            20
        );
        assert_eq!(
            ClockConstraint::new(x, CmpOp::Le, Expr::constant(-7)).max_constant(&table),
            7
        );
        // Variable-dependent bounds fall back to a conservative estimate.
        assert!(ClockConstraint::new(x, CmpOp::Le, Expr::var(n)).max_constant(&table) >= 8);
    }

    #[test]
    fn guard_data_part() {
        let mut table = VarTable::new();
        let v = table.declare("v", 1, 0, 5, 2).unwrap();
        let store = table.initial_store();
        let guard = Guard {
            clocks: vec![],
            data: Some(Expr::var(v).ge(Expr::constant(2))),
        };
        assert!(guard.data_holds(&table, &store).unwrap());
        let guard2 = Guard {
            clocks: vec![],
            data: Some(Expr::var(v).gt(Expr::constant(2))),
        };
        assert!(!guard2.data_holds(&table, &store).unwrap());
        assert!(Guard::always().data_holds(&table, &store).unwrap());
    }

    #[test]
    fn sync_channel_accessor() {
        let c = ChannelId::from_index(1);
        assert_eq!(Sync::Input(c).channel(), Some(c));
        assert_eq!(Sync::Output(c).channel(), Some(c));
        assert_eq!(Sync::Tau.channel(), None);
    }
}
