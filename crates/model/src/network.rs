//! The compiled network: a [`System`](crate::System) lowered once, when it
//! is built, into the indexed and pre-decoded form that the explorer, the
//! predecessor operators and the tick interpreter read.
//!
//! * **Edge index.**  Per (automaton, location), the edges leaving it are
//!   split into `tau` edges, outputs and inputs, each in declaration order
//!   (the index lives in [`Automaton`], which builds it once).  The inputs
//!   are sorted by channel, so the receivers of one channel are one
//!   contiguous run.  Joint edges are enumerated by walking these lists in
//!   emitter-major order, exactly the order of the old linear scan over
//!   every edge of every automaton.
//! * **Data guards.**  A guard is the flat list of its top-level `&&`
//!   conjuncts, evaluated left to right until one is false — the
//!   short-circuit order of [`Expr::eval`].  A comparison of constants,
//!   variables and array elements at a constant, in-range index is an
//!   *atom*: two store reads and a compare.  Any other conjunct keeps its
//!   [`Expr`], so every evaluation error, and the order in which errors
//!   surface, stays that of the expression evaluator.
//! * **Clock constraints and resets.**  A guard or invariant constraint
//!   with a constant bound is pre-decoded to its DBM bounds through the
//!   range check of [`ClockConstraint::apply_to`]; a reset to a
//!   non-negative constant keeps the constant.  Anything else — a bound
//!   over variables, a constant outside the DBM encoding, `!=`, a reset
//!   over variables or to a negative constant — keeps the checked path and
//!   raises its error there.
//! * **Updates.**  The target's store slot (a scalar, or an array element
//!   at a constant, in-range index) and declared range, and the value as a
//!   constant, a slot, or a slot plus a constant (`n := n + 1`).
//!
//! A mutation campaign holds all its mutants at once, and each carries a
//! network of its own (`System::with_automaton` compiles one for the
//! changed system), so the network is kept small: indices are `u32`, the
//! expressions that are not compiled live once in a side table, and the
//! arenas are sized exactly.  A system's clones share its network.

use crate::automaton::{constrain_clocks, Assignment, Automaton, ClockConstraint};
use crate::decl::VarTable;
use crate::error::{EvalError, ModelError};
use crate::expr::{CmpOp, Expr};
use crate::ids::{AutomatonId, ClockId, EdgeId, LocationId, VarId};
use crate::symbolic::JointEdge;
use crate::system::System;
use std::fmt;
use tiga_dbm::{Bound, Dbm};

/// Narrows an arena index; a network has far fewer than 2³² entries.
fn narrow(n: usize) -> u32 {
    u32::try_from(n).expect("a network arena fits u32 indices")
}

/// The value of a constant expression: [`Expr::as_constant`], without its
/// walk for the common literal.
fn constant(e: &Expr) -> Option<i64> {
    match e {
        Expr::Const(c) => Some(*c),
        _ => e.as_constant(),
    }
}

/// A range of indices into one of the network's flat arenas.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Span {
    start: u32,
    end: u32,
}

impl Span {
    fn new(start: usize, end: usize) -> Span {
        Span {
            start: narrow(start),
            end: narrow(end),
        }
    }

    fn of<T>(self, items: &[T]) -> &[T] {
        &items[self.start as usize..self.end as usize]
    }
}

/// A store read or a constant: the operands of an atom.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Operand {
    Const(i64),
    /// The flattened store slot of a variable or array element.
    Slot(u32),
}

impl Operand {
    /// The operand an expression compiles to, if it reads at most one
    /// store slot and cannot fail: a constant expression, a variable, or
    /// an array element at a constant, in-range index.
    fn compile(e: &Expr, table: &VarTable) -> Option<Operand> {
        let slot = match e {
            Expr::Const(c) => return Some(Operand::Const(*c)),
            Expr::Var(v) if v.index() < table.len() => table.offset(*v),
            Expr::Index(v, idx) if v.index() < table.len() => {
                let k = usize::try_from(constant(idx)?).ok()?;
                if k >= table.decl(*v).size() {
                    return None;
                }
                table.offset(*v) + k
            }
            _ => return e.as_constant().map(Operand::Const),
        };
        Some(Operand::Slot(narrow(slot)))
    }

    #[inline]
    fn read(self, store: &[i64]) -> i64 {
        match self {
            Operand::Const(c) => c,
            Operand::Slot(s) => store[s as usize],
        }
    }
}

/// One conjunct of a data guard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Conjunct {
    /// `left op right` over operands that cannot fail.
    Atom(CmpOp, Operand, Operand),
    /// Anything else: `Network::exprs[k]`, true when non-zero.
    Expr(u32),
}

/// The bound of a compiled clock constraint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ClockBound {
    /// A constant in the DBM range, under a convex operator, pre-decoded:
    /// the constraint conjoins `x_i - x_j ≺ upper` and then
    /// `x_j - x_i ≺ lower`, where an absent side is `Bound::INF` (which
    /// changes no zone, and like any bound reports an empty one).
    Decoded { m: i32, upper: Bound, lower: Bound },
    /// Any other bound, `Network::exprs[k]`, evaluated and checked when
    /// used: one over variables, or a constant outside the DBM range or
    /// under `!=`, whose error the check raises.
    Expr(u32),
}

/// A clock constraint `x_i - x_j op bound` of a guard or an invariant,
/// over DBM indices (`j` is 0 unless the constraint is diagonal).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct CompiledConstraint {
    i: u32,
    j: u32,
    op: CmpOp,
    bound: ClockBound,
}

impl CompiledConstraint {
    /// The left clock.
    pub(crate) fn left(&self) -> ClockId {
        ClockId::from_index(self.i as usize - 1)
    }

    /// Whether the constraint is diagonal (`x - y op bound`).
    pub(crate) fn is_diagonal(&self) -> bool {
        self.j != 0
    }

    /// The comparison operator.
    pub(crate) fn op(&self) -> CmpOp {
        self.op
    }

    /// Whether conjoining the constraint can neither fail nor read the
    /// store.
    fn is_decoded(&self) -> bool {
        matches!(self.bound, ClockBound::Decoded { .. })
    }

    /// Conjoins a pre-decoded constraint onto `zone`; `false` once empty.
    #[inline]
    fn constrain_decoded(&self, zone: &mut Dbm, upper: Bound, lower: Bound) -> bool {
        let (i, j) = (self.i as usize, self.j as usize);
        zone.constrain(i, j, upper) && zone.constrain(j, i, lower)
    }
}

/// The value of a reset, or of an update.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Value {
    Operand(Operand),
    /// `slot + c`, overflow-checked like [`Expr::Add`].
    SlotAdd(u32, i64),
    /// `Network::exprs[k]`.
    Expr(u32),
}

/// A clock reset of an edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct CompiledReset {
    clock: u32,
    /// A non-negative constant, or an expression checked when evaluated.
    value: Value,
}

impl CompiledReset {
    /// The reset clock.
    pub(crate) fn clock(&self) -> ClockId {
        ClockId::from_index(self.clock as usize)
    }
}

/// Where an update writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Place {
    Slot(u32),
    /// An array element whose index, `Network::exprs[k]`, is evaluated.
    Index(u32),
}

/// A variable update of an edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct CompiledUpdate {
    target: u32,
    place: Place,
    value: Value,
    /// The target's declared range.
    lower: i64,
    upper: i64,
}

/// Where one edge's target, guard conjuncts, guard constraints, resets and
/// updates start in their arenas.  Each ends where the next edge's starts;
/// one extra entry closes the last edge.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct EdgeStarts {
    target: u32,
    data: u32,
    clocks: u32,
    resets: u32,
    updates: u32,
}

/// A compiled edge: its target and the parts of its guard, resets and
/// updates, resolved once from the network's arenas.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CompiledEdge<'n> {
    target: u32,
    conjuncts: &'n [Conjunct],
    guard: &'n [CompiledConstraint],
    resets: &'n [CompiledReset],
    updates: &'n [CompiledUpdate],
}

impl<'n> CompiledEdge<'n> {
    /// The target location.
    #[inline]
    pub(crate) fn target(&self) -> LocationId {
        LocationId::from_index(self.target as usize)
    }

    /// The clock constraints of the guard.
    #[inline]
    pub(crate) fn guard(&self) -> &'n [CompiledConstraint] {
        self.guard
    }

    /// The clock resets.
    #[inline]
    pub(crate) fn resets(&self) -> &'n [CompiledReset] {
        self.resets
    }
}

/// The invariant of one location.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct LocationSlot {
    /// Invariant constraints, into `Network::constraints`.
    invariant: Span,
    /// Whether every invariant constraint is pre-decoded.
    invariant_decoded: bool,
}

/// A [`System`]'s automata, compiled once by
/// [`crate::SystemBuilder::build`].  See the module documentation.
#[derive(Default, PartialEq, Eq)]
pub(crate) struct Network {
    /// Per automaton, the slot of its first location.
    first_location: Box<[u32]>,
    /// Per automaton, the index of its first edge in `edges`.
    first_edge: Box<[u32]>,
    locations: Box<[LocationSlot]>,
    edges: Box<[EdgeStarts]>,
    conjuncts: Box<[Conjunct]>,
    guards: Box<[CompiledConstraint]>,
    invariants: Box<[CompiledConstraint]>,
    resets: Box<[CompiledReset]>,
    updates: Box<[CompiledUpdate]>,
    /// The expressions that are evaluated, not compiled.
    exprs: Box<[Expr]>,
    /// Whether every invariant of every location is pre-decoded.
    invariants_decoded: bool,
}

/// The compiled network is derived from the automata; a system's debug
/// output shows those.
impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network").finish_non_exhaustive()
    }
}

/// Lowers the parts of a system into the arenas of a [`Network`].
struct Compiler<'t> {
    table: &'t VarTable,
    first_location: Vec<u32>,
    first_edge: Vec<u32>,
    locations: Vec<LocationSlot>,
    edges: Vec<EdgeStarts>,
    conjuncts: Vec<Conjunct>,
    guards: Vec<CompiledConstraint>,
    invariants: Vec<CompiledConstraint>,
    resets: Vec<CompiledReset>,
    updates: Vec<CompiledUpdate>,
    exprs: Vec<Expr>,
}

impl Compiler<'_> {
    /// Stores an expression that is evaluated, not compiled.
    fn keep(&mut self, e: &Expr) -> u32 {
        self.exprs.push(e.clone());
        narrow(self.exprs.len() - 1)
    }

    /// Appends the conjuncts of `e`'s top-level `&&` chain, left to right.
    fn conjuncts(&mut self, e: &Expr) {
        let conjunct = match e {
            Expr::And(a, b) => {
                self.conjuncts(a);
                self.conjuncts(b);
                return;
            }
            Expr::Cmp(op, a, b) => {
                match (
                    Operand::compile(a, self.table),
                    Operand::compile(b, self.table),
                ) {
                    (Some(left), Some(right)) => Conjunct::Atom(*op, left, right),
                    _ => Conjunct::Expr(self.keep(e)),
                }
            }
            _ => match constant(e) {
                Some(c) => Conjunct::Atom(CmpOp::Ne, Operand::Const(c), Operand::Const(0)),
                None => Conjunct::Expr(self.keep(e)),
            },
        };
        self.conjuncts.push(conjunct);
    }

    fn constraint(&mut self, c: &ClockConstraint) -> CompiledConstraint {
        let limit = i64::from(tiga_dbm::MAX_CONSTANT);
        let decode = |m: i32| match c.op {
            CmpOp::Le => Some((Bound::le(m), Bound::INF)),
            CmpOp::Lt => Some((Bound::lt(m), Bound::INF)),
            CmpOp::Ge => Some((Bound::INF, Bound::le(-m))),
            CmpOp::Gt => Some((Bound::INF, Bound::lt(-m))),
            CmpOp::Eq => Some((Bound::le(m), Bound::le(-m))),
            CmpOp::Ne => None,
        };
        let decoded = constant(&c.bound)
            .filter(|m| (-limit..=limit).contains(m))
            .and_then(|m| Some((m as i32, decode(m as i32)?)));
        let bound = match decoded {
            Some((m, (upper, lower))) => ClockBound::Decoded { m, upper, lower },
            None => ClockBound::Expr(self.keep(&c.bound)),
        };
        CompiledConstraint {
            i: narrow(c.left.dbm_index()),
            j: narrow(c.minus.map_or(0, ClockId::dbm_index)),
            op: c.op,
            bound,
        }
    }

    /// A reset or update value: a constant, a slot, a slot plus a
    /// constant, or else the expression.
    fn value(&mut self, e: &Expr) -> Value {
        if let Some(op) = Operand::compile(e, self.table) {
            return Value::Operand(op);
        }
        let slot_plus = |a: &Expr, b: &Expr| match (Operand::compile(a, self.table), constant(b)) {
            (Some(Operand::Slot(s)), Some(c)) => Some((s, c)),
            _ => None,
        };
        let compiled = match e {
            Expr::Add(a, b) => slot_plus(a, b).or_else(|| slot_plus(b, a)),
            // `s - c` overflows exactly when `s + (-c)` does.
            Expr::Sub(a, b) => slot_plus(a, b).and_then(|(s, c)| Some((s, c.checked_neg()?))),
            _ => None,
        };
        match compiled {
            Some((s, c)) => Value::SlotAdd(s, c),
            None => Value::Expr(self.keep(e)),
        }
    }

    fn update(&mut self, u: &Assignment) -> CompiledUpdate {
        let decl = self.table.decl(u.target);
        let place = match &u.index {
            None => Place::Slot(narrow(decl.offset())),
            Some(idx) => match constant(idx).and_then(|k| usize::try_from(k).ok()) {
                Some(k) if k < decl.size() => Place::Slot(narrow(decl.offset() + k)),
                _ => Place::Index(self.keep(idx)),
            },
        };
        let (lower, upper) = (decl.lower(), decl.upper());
        CompiledUpdate {
            target: narrow(u.target.index()),
            place,
            value: self.value(&u.value),
            lower,
            upper,
        }
    }

    /// Where the next edge's parts start.
    fn starts(&self, target: usize) -> EdgeStarts {
        EdgeStarts {
            target: narrow(target),
            data: narrow(self.conjuncts.len()),
            clocks: narrow(self.guards.len()),
            resets: narrow(self.resets.len()),
            updates: narrow(self.updates.len()),
        }
    }

    fn automaton(&mut self, aut: &Automaton) {
        self.first_location.push(narrow(self.locations.len()));
        self.first_edge.push(narrow(self.edges.len()));
        for edge in aut.edges() {
            self.edges.push(self.starts(edge.target.index()));
            if let Some(e) = &edge.guard.data {
                self.conjuncts(e);
            }
            for c in &edge.guard.clocks {
                let c = self.constraint(c);
                self.guards.push(c);
            }
            for r in &edge.resets {
                let value = match constant(&r.value) {
                    Some(v) if v >= 0 => Value::Operand(Operand::Const(v)),
                    _ => Value::Expr(self.keep(&r.value)),
                };
                self.resets.push(CompiledReset {
                    clock: narrow(r.clock.index()),
                    value,
                });
            }
            for u in &edge.updates {
                let u = self.update(u);
                self.updates.push(u);
            }
        }
        for location in aut.locations() {
            let start = self.invariants.len();
            for c in &location.invariant {
                let c = self.constraint(c);
                self.invariants.push(c);
            }
            let invariant = &self.invariants[start..];
            self.locations.push(LocationSlot {
                invariant: Span::new(start, self.invariants.len()),
                invariant_decoded: invariant.iter().all(CompiledConstraint::is_decoded),
            });
        }
    }
}

impl Network {
    /// Compiles the automata of a system over its variable table.
    pub(crate) fn compile(automata: &[Automaton], table: &VarTable) -> Self {
        fn count_conjuncts(e: &Expr) -> usize {
            match e {
                Expr::And(a, b) => count_conjuncts(a) + count_conjuncts(b),
                _ => 1,
            }
        }
        let (mut n_locations, mut n_edges, mut n_conjuncts) = (0, 0, 0);
        let (mut n_guards, mut n_invariants, mut n_resets, mut n_updates) = (0, 0, 0, 0);
        for aut in automata {
            n_locations += aut.locations().len();
            n_invariants += aut
                .locations()
                .iter()
                .map(|l| l.invariant.len())
                .sum::<usize>();
            for e in aut.edges() {
                n_edges += 1;
                n_conjuncts += e.guard.data.as_ref().map_or(0, count_conjuncts);
                n_guards += e.guard.clocks.len();
                n_resets += e.resets.len();
                n_updates += e.updates.len();
            }
        }
        let mut compiler = Compiler {
            table,
            first_location: Vec::with_capacity(automata.len()),
            first_edge: Vec::with_capacity(automata.len()),
            locations: Vec::with_capacity(n_locations),
            edges: Vec::with_capacity(n_edges + 1),
            conjuncts: Vec::with_capacity(n_conjuncts),
            guards: Vec::with_capacity(n_guards),
            invariants: Vec::with_capacity(n_invariants),
            resets: Vec::with_capacity(n_resets),
            updates: Vec::with_capacity(n_updates),
            exprs: Vec::new(),
        };
        for aut in automata {
            compiler.automaton(aut);
        }
        // The entry that closes the last edge.
        let closing = compiler.starts(0);
        compiler.edges.push(closing);
        let c = compiler;
        Network {
            invariants_decoded: c.locations.iter().all(|l| l.invariant_decoded),
            first_location: c.first_location.into_boxed_slice(),
            first_edge: c.first_edge.into_boxed_slice(),
            locations: c.locations.into_boxed_slice(),
            edges: c.edges.into_boxed_slice(),
            conjuncts: c.conjuncts.into_boxed_slice(),
            guards: c.guards.into_boxed_slice(),
            invariants: c.invariants.into_boxed_slice(),
            resets: c.resets.into_boxed_slice(),
            updates: c.updates.into_boxed_slice(),
            exprs: c.exprs.into_boxed_slice(),
        }
    }

    #[inline]
    fn slot(&self, automaton: usize, location: LocationId) -> &LocationSlot {
        &self.locations[self.first_location[automaton] as usize + location.index()]
    }

    /// The compiled edge `edge` of automaton `automaton`.
    #[inline]
    pub(crate) fn edge(&self, automaton: usize, edge: EdgeId) -> CompiledEdge<'_> {
        let k = self.first_edge[automaton] as usize + edge.index();
        // An edge's parts end where the next edge's start.
        let (this, next) = (&self.edges[k], &self.edges[k + 1]);
        let span = |start: u32, end: u32| start as usize..end as usize;
        CompiledEdge {
            target: this.target,
            conjuncts: &self.conjuncts[span(this.data, next.data)],
            guard: &self.guards[span(this.clocks, next.clocks)],
            resets: &self.resets[span(this.resets, next.resets)],
            updates: &self.updates[span(this.updates, next.updates)],
        }
    }

    /// The invariant constraints of `location`.
    #[inline]
    pub(crate) fn invariant(
        &self,
        automaton: usize,
        location: LocationId,
    ) -> &[CompiledConstraint] {
        self.slot(automaton, location)
            .invariant
            .of(&self.invariants)
    }

    /// Whether every invariant of the locations is pre-decoded, so that
    /// [`Network::constrain_invariant`] applies.
    #[inline]
    pub(crate) fn invariant_is_decoded(&self, locations: &[LocationId]) -> bool {
        self.invariants_decoded
            || locations
                .iter()
                .enumerate()
                .all(|(a, &l)| self.slot(a, l).invariant_decoded)
    }

    /// Conjoins the pre-decoded invariants of the locations onto `zone`
    /// with incremental `constrain`s; `false` once it is empty.  Only for
    /// locations whose invariants are all pre-decoded.
    pub(crate) fn constrain_invariant(
        &self,
        zone: &mut Dbm,
        automata: &[Automaton],
        locations: &[LocationId],
    ) -> bool {
        for (a, aut) in automata.iter().enumerate() {
            let l = locations[a];
            // Most locations have no invariant; the automaton says so
            // without a lookup in the network.
            if aut.location(l).invariant.is_empty() {
                continue;
            }
            for c in self.invariant(a, l) {
                let ClockBound::Decoded { upper, lower, .. } = c.bound else {
                    unreachable!("the invariant is pre-decoded");
                };
                if !c.constrain_decoded(zone, upper, lower) {
                    return false;
                }
            }
        }
        true
    }

    /// [`ClockConstraint::apply_to`] of a compiled constraint: the
    /// pre-decoded bounds when there are some, else the evaluated bound
    /// through the same checks.
    #[inline]
    pub(crate) fn constrain(
        &self,
        c: &CompiledConstraint,
        zone: &mut Dbm,
        table: &VarTable,
        store: &[i64],
    ) -> Result<bool, ModelError> {
        let m = match c.bound {
            ClockBound::Decoded { upper, lower, .. } => {
                return Ok(c.constrain_decoded(zone, upper, lower))
            }
            ClockBound::Expr(k) => self.exprs[k as usize].eval(table, store)?,
        };
        let minus = c
            .is_diagonal()
            .then(|| ClockId::from_index(c.j as usize - 1));
        constrain_clocks(zone, c.left(), minus, c.op, m)
    }

    /// The bound's value in `store`.
    #[inline]
    pub(crate) fn bound(
        &self,
        c: &CompiledConstraint,
        table: &VarTable,
        store: &[i64],
    ) -> Result<i64, ModelError> {
        Ok(match c.bound {
            ClockBound::Decoded { m, .. } => i64::from(m),
            ClockBound::Expr(k) => self.exprs[k as usize].eval(table, store)?,
        })
    }

    /// [`ClockConstraint::holds_concrete`] of a compiled constraint.
    #[inline]
    pub(crate) fn holds_concrete(
        &self,
        c: &CompiledConstraint,
        clock_ticks: &[i64],
        scale: i64,
        table: &VarTable,
        store: &[i64],
    ) -> Result<bool, ModelError> {
        let m = self.bound(c, table, store)?;
        let left = clock_ticks[c.i as usize - 1];
        let right = if c.is_diagonal() {
            clock_ticks[c.j as usize - 1]
        } else {
            0
        };
        Ok(c.op.apply(left - right, m * scale))
    }

    /// Whether the data guard of `edge` holds in `store`.
    ///
    /// # Errors
    ///
    /// Propagates the first evaluation error of a non-atomic conjunct.
    #[inline]
    pub(crate) fn data_holds(
        &self,
        edge: &CompiledEdge,
        table: &VarTable,
        store: &[i64],
    ) -> Result<bool, ModelError> {
        for c in edge.conjuncts {
            let holds = match *c {
                Conjunct::Atom(op, left, right) => op.apply(left.read(store), right.read(store)),
                Conjunct::Expr(k) => self.exprs[k as usize].eval_bool(table, store)?,
            };
            if !holds {
                return Ok(false);
            }
        }
        Ok(true)
    }

    #[inline]
    fn eval(&self, value: Value, table: &VarTable, store: &[i64]) -> Result<i64, EvalError> {
        match value {
            Value::Operand(op) => Ok(op.read(store)),
            Value::SlotAdd(s, c) => store[s as usize].checked_add(c).ok_or(EvalError::Overflow),
            Value::Expr(k) => self.exprs[k as usize].eval(table, store),
        }
    }

    /// The value a reset assigns, evaluated in the source store `vars`:
    /// the constant, or [`System::reset_value`] (which rejects negative
    /// values).
    #[inline]
    pub(crate) fn reset_value(
        &self,
        r: &CompiledReset,
        system: &System,
        vars: &[i64],
    ) -> Result<i64, ModelError> {
        match r.value {
            Value::Expr(k) => system.reset_value(r.clock(), &self.exprs[k as usize], vars),
            value => Ok(self.eval(value, system.vars(), vars)?),
        }
    }

    /// Applies the variable updates of `edge` to `vars` in order, each
    /// reading the store as the previous ones left it: the value is
    /// evaluated, range-checked (`Ok(false)` when outside the declared
    /// range) and written to the target, whose index is evaluated last.
    pub(crate) fn apply_updates(
        &self,
        edge: &CompiledEdge,
        table: &VarTable,
        vars: &mut [i64],
    ) -> Result<bool, ModelError> {
        for u in edge.updates {
            let value = self.eval(u.value, table, vars)?;
            if value < u.lower || value > u.upper {
                return Ok(false);
            }
            let offset = match u.place {
                Place::Slot(slot) => slot as usize,
                Place::Index(k) => {
                    let i = self.exprs[k as usize].eval(table, vars)?;
                    let decl = table.decl(VarId::from_index(u.target as usize));
                    if i < 0 || i as usize >= decl.size() {
                        return Err(ModelError::Eval(EvalError::IndexOutOfBounds {
                            name: decl.name().to_string(),
                            index: i,
                            size: decl.size(),
                        }));
                    }
                    decl.offset() + i as usize
                }
            };
            vars[offset] = value;
        }
        Ok(true)
    }

    /// The `(automaton index, compiled edge)` pairs a joint edge moves: one
    /// for a `tau` step, the emitter then the receiver for a
    /// synchronization.
    pub(crate) fn components(
        &self,
        je: &JointEdge,
    ) -> impl Iterator<Item = (usize, CompiledEdge<'_>)> + Clone + '_ {
        let component = |(automaton, edge): (AutomatonId, EdgeId)| {
            (automaton.index(), self.edge(automaton.index(), edge))
        };
        let (first, second) = match *je {
            JointEdge::Internal { automaton, edge } => ((automaton, edge), None),
            JointEdge::Sync { output, input, .. } => (output, Some(input)),
        };
        std::iter::once(component(first)).chain(second.map(component))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{AutomatonBuilder, EdgeBuilder, SystemBuilder};
    use crate::symbolic::DiscreteState;
    use crate::System;

    /// One automaton over `a[2]` and `n`, with edges from `L0`:
    /// `when a[2] == 0` (constant index out of range), `a[3] := 1`,
    /// `when a[1] == 0 && n < 3` and `n := n + 1`.
    fn indexing_system() -> System {
        let mut b = SystemBuilder::new("indexing");
        let a = b.int_array("a", 2, 0, 1, 0).unwrap();
        let n = b.int_var("n", 0, 3, 0).unwrap();
        let mut aut = AutomatonBuilder::new("A");
        let l0 = aut.location("L0").unwrap();
        let element = |k: i64| Expr::index(a, Expr::constant(k));
        aut.add_edge(EdgeBuilder::new(l0, l0).when(element(2).eq(Expr::constant(0))));
        aut.add_edge(EdgeBuilder::new(l0, l0).set_element(a, Expr::constant(3), Expr::constant(1)));
        aut.add_edge(
            EdgeBuilder::new(l0, l0).when(
                element(1)
                    .eq(Expr::constant(0))
                    .and(Expr::var(n).lt(Expr::constant(3))),
            ),
        );
        aut.add_edge(EdgeBuilder::new(l0, l0).set(n, Expr::var(n) + Expr::constant(1)));
        b.add_automaton(aut.build().unwrap()).unwrap();
        b.build().unwrap()
    }

    fn edge(sys: &System, e: usize) -> CompiledEdge<'_> {
        sys.network().edge(0, EdgeId::from_index(e))
    }

    #[test]
    fn a_constant_out_of_range_index_keeps_the_evaluator_and_its_error() {
        let sys = indexing_system();
        let net = sys.network();
        let store = sys.vars().initial_store();
        let guard = sys.automata()[0].edges()[0].guard.data.as_ref().unwrap();
        let expected = guard.eval(sys.vars(), &store).unwrap_err();
        assert_eq!(
            expected,
            EvalError::IndexOutOfBounds {
                name: "a".to_string(),
                index: 2,
                size: 2
            }
        );
        // The guard falls back to the evaluator, which raises the error.
        assert!(matches!(edge(&sys, 0).conjuncts, [Conjunct::Expr(_)]));
        assert_eq!(
            net.data_holds(&edge(&sys, 0), sys.vars(), &store),
            Err(ModelError::Eval(expected.clone()))
        );
        let d = sys.initial_discrete();
        assert_eq!(sys.enabled_joint_edges(&d), Err(ModelError::Eval(expected)));
        // So does the update's index.
        let update = &edge(&sys, 1).updates[0];
        assert!(matches!(update.place, Place::Index(_)));
        let mut vars = store.clone();
        assert_eq!(
            net.apply_updates(&edge(&sys, 1), sys.vars(), &mut vars),
            Err(ModelError::Eval(EvalError::IndexOutOfBounds {
                name: "a".to_string(),
                index: 3,
                size: 2
            }))
        );
    }

    #[test]
    fn in_range_reads_compile_to_atoms_and_slots() {
        let sys = indexing_system();
        let net = sys.network();
        assert_eq!(
            edge(&sys, 2).conjuncts,
            [
                Conjunct::Atom(CmpOp::Eq, Operand::Slot(1), Operand::Const(0)),
                Conjunct::Atom(CmpOp::Lt, Operand::Slot(2), Operand::Const(3)),
            ]
        );
        let update = &edge(&sys, 3).updates[0];
        assert_eq!(
            (update.place, update.value),
            (Place::Slot(2), Value::SlotAdd(2, 1))
        );
        let mut vars = vec![0, 0, 3];
        assert_eq!(
            net.apply_updates(&edge(&sys, 3), sys.vars(), &mut vars),
            Ok(false)
        );
        vars[2] = 1;
        assert_eq!(
            net.apply_updates(&edge(&sys, 3), sys.vars(), &mut vars),
            Ok(true)
        );
        assert_eq!(vars, [0, 0, 2]);
    }

    #[test]
    fn a_decoded_invariant_constrains_to_the_intersection_with_its_zone() {
        // Two automata whose invariants use every operator and a diagonal.
        let mut b = SystemBuilder::new("invariants");
        let x = b.clock("x").unwrap();
        let y = b.clock("y").unwrap();
        let mut p = AutomatonBuilder::new("P");
        let p0 = p.location("P0").unwrap();
        let p1 = p.location("P1").unwrap();
        p.set_invariant(
            p0,
            vec![
                ClockConstraint::new(x, CmpOp::Le, 5),
                ClockConstraint::diff(y, x, CmpOp::Lt, 2),
            ],
        );
        p.set_invariant(p1, vec![ClockConstraint::new(y, CmpOp::Eq, 3)]);
        b.add_automaton(p.build().unwrap()).unwrap();
        let mut q = AutomatonBuilder::new("Q");
        let q0 = q.location("Q0").unwrap();
        q.set_invariant(
            q0,
            vec![
                ClockConstraint::new(x, CmpOp::Ge, 1),
                ClockConstraint::new(y, CmpOp::Gt, 0),
                ClockConstraint::diff(x, y, CmpOp::Ge, -1),
            ],
        );
        b.add_automaton(q.build().unwrap()).unwrap();
        let sys = b.build().unwrap();

        let mut compared = 0;
        for locations in [[p0, q0], [p1, q0]] {
            let d = DiscreteState {
                locations: locations.to_vec(),
                vars: Vec::new(),
            };
            assert!(sys.network().invariant_is_decoded(&d.locations));
            let invariant = sys.invariant_zone(&d).unwrap();
            for (lo, hi, diag) in (0..6)
                .flat_map(|lo| (lo..8).flat_map(move |hi| (-3..4).map(move |diag| (lo, hi, diag))))
            {
                let mut zone = Dbm::universe(3);
                zone.constrain(0, 1, Bound::le(-lo));
                zone.constrain(2, 0, Bound::lt(hi));
                zone.constrain(1, 2, Bound::le(diag));
                let mut constrained = zone.clone();
                let kept = sys.network().constrain_invariant(
                    &mut constrained,
                    sys.automata(),
                    &d.locations,
                );
                let mut intersected = zone;
                assert_eq!(kept, intersected.intersect(&invariant));
                assert_eq!(kept, !constrained.is_empty());
                if kept {
                    assert_eq!(constrained, intersected);
                    compared += 1;
                }
            }
        }
        assert!(compared > 50, "only {compared} non-empty intersections");
    }
}
