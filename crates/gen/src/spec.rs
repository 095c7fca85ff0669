//! The shrinkable intermediate representation of a generated timed game.
//!
//! The generator does not build [`tiga_model::System`] values directly:
//! systems are index-based and immutable, which makes structural shrinking
//! (drop an automaton, drop a clock, ...) awkward.  Instead it produces a
//! [`SysSpec`] — a small, name-free, index-based description that

//! * materializes into a `System` + parsed `control:` objective through the
//!   ordinary builder pipeline ([`SysSpec::build`]), and
//! * supports the structural edits the shrinker needs while keeping all
//!   internal references consistent ([`SysSpec::drop_clock`] and friends).
//!
//! Every entity is named canonically from its index (`c0`, `ch1`, `v2`,
//! `A0`, `L3`), so materialization never hits name clashes and reproducers
//! stay readable.

use tiga_model::{
    AutomatonBuilder, ClockConstraint, CmpOp, EdgeBuilder, Expr, ModelError, System, SystemBuilder,
};
use tiga_tctl::{LangError, TestPurpose};

/// Channel controllability kind in a spec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChanKind {
    /// Controllable: offered by the tester.
    Input,
    /// Uncontrollable: produced by the plant.
    Output,
    /// Unobservable; edge controllability comes from explicit overrides.
    Internal,
}

/// A bounded integer variable (or array) declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VarSpec {
    /// `None` for a scalar, `Some(n)` for an array of `n` elements.
    pub size: Option<usize>,
    /// Inclusive lower bound.
    pub lower: i64,
    /// Inclusive upper bound.
    pub upper: i64,
    /// Initial value of every element.
    pub initial: i64,
}

/// A clock constraint `c op bound` or `c - c' op bound` with a constant
/// bound (indices into [`SysSpec::clocks`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConstraintSpec {
    /// Left-hand clock index.
    pub left: usize,
    /// Optional subtracted clock index (diagonal constraint).
    pub minus: Option<usize>,
    /// Comparison operator (`!=` is never generated: non-convex).
    pub op: CmpOp,
    /// Constant bound.
    pub bound: i64,
}

/// A data expression over the spec's variables.
///
/// Deliberately excludes division and modulo (runtime evaluation errors
/// would make engine comparison noisy) and array indices are literal and
/// in range by construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExprSpec {
    /// Integer literal.
    Const(i64),
    /// Scalar variable (index into [`SysSpec::vars`]).
    Var(usize),
    /// Array element with a literal index.
    Elem(usize, usize),
    /// Sum.
    Add(Box<ExprSpec>, Box<ExprSpec>),
    /// Difference.
    Sub(Box<ExprSpec>, Box<ExprSpec>),
    /// Comparison (`0`/`1` valued).
    Cmp(CmpOp, Box<ExprSpec>, Box<ExprSpec>),
    /// Conjunction.
    And(Box<ExprSpec>, Box<ExprSpec>),
    /// Disjunction.
    Or(Box<ExprSpec>, Box<ExprSpec>),
}

impl ExprSpec {
    /// Does the expression mention variable `var`?
    #[must_use]
    pub fn uses_var(&self, var: usize) -> bool {
        match self {
            ExprSpec::Const(_) => false,
            ExprSpec::Var(v) | ExprSpec::Elem(v, _) => *v == var,
            ExprSpec::Add(a, b)
            | ExprSpec::Sub(a, b)
            | ExprSpec::Cmp(_, a, b)
            | ExprSpec::And(a, b)
            | ExprSpec::Or(a, b) => a.uses_var(var) || b.uses_var(var),
        }
    }

    /// Decrements every variable index above `var` (after `var` was removed).
    fn shift_var_down(&mut self, var: usize) {
        match self {
            ExprSpec::Const(_) => {}
            ExprSpec::Var(v) | ExprSpec::Elem(v, _) => {
                if *v > var {
                    *v -= 1;
                }
            }
            ExprSpec::Add(a, b)
            | ExprSpec::Sub(a, b)
            | ExprSpec::Cmp(_, a, b)
            | ExprSpec::And(a, b)
            | ExprSpec::Or(a, b) => {
                a.shift_var_down(var);
                b.shift_var_down(var);
            }
        }
    }

    fn to_expr(&self, vars: &[tiga_model::VarId]) -> Expr {
        match self {
            ExprSpec::Const(n) => Expr::constant(*n),
            ExprSpec::Var(v) => Expr::var(vars[*v]),
            ExprSpec::Elem(v, i) => Expr::index(vars[*v], Expr::constant(*i as i64)),
            ExprSpec::Add(a, b) => a.to_expr(vars) + b.to_expr(vars),
            ExprSpec::Sub(a, b) => a.to_expr(vars) - b.to_expr(vars),
            ExprSpec::Cmp(op, a, b) => a.to_expr(vars).cmp(*op, b.to_expr(vars)),
            ExprSpec::And(a, b) => a.to_expr(vars).and(b.to_expr(vars)),
            ExprSpec::Or(a, b) => a.to_expr(vars).or(b.to_expr(vars)),
        }
    }
}

/// A variable update `v := e` or `v[i] := e` on an edge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdateSpec {
    /// Target variable index.
    pub var: usize,
    /// Array index, `None` for scalars: a literal in range
    /// ([`ExprSpec::Const`]), or an expression over the variables, which
    /// may leave the array's range at run time.
    pub index: Option<ExprSpec>,
    /// Assigned value.
    pub value: ExprSpec,
}

/// An edge of a spec automaton.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeSpec {
    /// Source location index.
    pub source: usize,
    /// Target location index.
    pub target: usize,
    /// `Some((channel, receive))`: `ch?` when `receive`, else `ch!`.
    /// `None`: an internal (`tau`) edge.
    pub sync: Option<(usize, bool)>,
    /// Clock guard (conjunction).
    pub guard: Vec<ConstraintSpec>,
    /// Data guard.
    pub when: Option<ExprSpec>,
    /// Clock resets `(clock, value)`: a non-negative constant
    /// ([`ExprSpec::Const`]), or an expression over the variables, which
    /// may be negative at run time.
    pub resets: Vec<(usize, ExprSpec)>,
    /// Variable updates.
    pub updates: Vec<UpdateSpec>,
    /// Controllability override for `tau` edges.
    pub controllable: Option<bool>,
}

/// A location of a spec automaton.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LocSpec {
    /// Time may not elapse here.
    pub urgent: bool,
    /// Invariant (conjunction of upper bounds by construction).
    pub invariant: Vec<ConstraintSpec>,
}

/// One automaton of a spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AutSpec {
    /// Locations (the name of location `i` is `L{i}` within `A{index}`).
    pub locations: Vec<LocSpec>,
    /// Index of the initial location.
    pub initial: usize,
    /// Edges.
    pub edges: Vec<EdgeSpec>,
}

/// The reachability/safety objective of a generated game.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObjectiveSpec {
    /// `true` for `A<>` (reachability), `false` for `A[]` (safety).
    pub reachability: bool,
    /// Target `(automaton, location)`.
    pub target: (usize, usize),
    /// Optional second disjunct `(automaton, location)`.
    pub or_target: Option<(usize, usize)>,
    /// Optional conjoined variable comparison `v op c` (scalar vars only).
    pub var_clause: Option<(usize, CmpOp, i64)>,
    /// Optional time bound `T` (`A<><=T` / `A[]<=T`).
    pub bound: Option<i64>,
}

/// A complete generated system description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SysSpec {
    /// System name (embeds the generating seed for traceability).
    pub name: String,
    /// Number of clocks (clock `i` is named `c{i}`).
    pub clocks: usize,
    /// Channel kinds (channel `i` is named `ch{i}`).
    pub channels: Vec<ChanKind>,
    /// Variable declarations (variable `i` is named `v{i}`).
    pub vars: Vec<VarSpec>,
    /// Automata (automaton `i` is named `A{i}`).
    pub automata: Vec<AutSpec>,
    /// The `control:` objective.
    pub objective: ObjectiveSpec,
}

impl SysSpec {
    /// The canonical name of clock `i`.
    #[must_use]
    pub fn clock_name(i: usize) -> String {
        format!("c{i}")
    }

    /// The `control:` line of the objective, in `tiga-tctl` syntax.
    ///
    /// Safety objectives take the standard avoid-the-bad-states shape
    /// `A[] not (φ)`: the target predicate names what must never hold, so
    /// the game is non-trivial whenever the initial state is not already a
    /// target (an `A[] φ` of the stay-inside shape is almost always decided
    /// at the initial state and would fuzz nothing).
    #[must_use]
    pub fn control_line(&self) -> String {
        let o = &self.objective;
        let mut pred = format!("A{}.L{}", o.target.0, o.target.1);
        if let Some((a, l)) = o.or_target {
            pred = format!("({pred} || A{a}.L{l})");
        }
        if let Some((v, op, c)) = o.var_clause {
            pred = format!("({pred} && v{v} {op} {c})");
        }
        let bound = o.bound.map(|t| format!("<={t}")).unwrap_or_default();
        if o.reachability {
            format!("control: A<>{bound} {pred}")
        } else {
            format!("control: A[]{bound} not ({pred})")
        }
    }

    /// Materializes the spec into a solvable system and its parsed objective.
    ///
    /// # Errors
    ///
    /// Returns an error when the spec is structurally invalid — the shrinker
    /// relies on this to discard edits that break a reference (e.g. dropping
    /// the automaton the objective points at).
    pub fn build(&self) -> Result<(System, TestPurpose), SpecError> {
        let mut b = SystemBuilder::new(&self.name);
        let mut clock_ids = Vec::with_capacity(self.clocks);
        for i in 0..self.clocks {
            clock_ids.push(b.clock(&Self::clock_name(i))?);
        }
        let mut chan_ids = Vec::with_capacity(self.channels.len());
        for (i, kind) in self.channels.iter().enumerate() {
            let name = format!("ch{i}");
            chan_ids.push(match kind {
                ChanKind::Input => b.input_channel(&name)?,
                ChanKind::Output => b.output_channel(&name)?,
                ChanKind::Internal => b.internal_channel(&name)?,
            });
        }
        let mut var_ids = Vec::with_capacity(self.vars.len());
        for (i, v) in self.vars.iter().enumerate() {
            let name = format!("v{i}");
            var_ids.push(match v.size {
                None => b.int_var(&name, v.lower, v.upper, v.initial)?,
                Some(size) => b.int_array(&name, size, v.lower, v.upper, v.initial)?,
            });
        }
        for (ai, aut) in self.automata.iter().enumerate() {
            let mut ab = AutomatonBuilder::new(&format!("A{ai}"));
            let mut loc_ids = Vec::with_capacity(aut.locations.len());
            for (li, loc) in aut.locations.iter().enumerate() {
                let id = ab.location(&format!("L{li}"))?;
                loc_ids.push(id);
                if loc.urgent {
                    ab.set_urgent(id);
                }
                let invariant = loc
                    .invariant
                    .iter()
                    .map(|c| constraint(c, &clock_ids))
                    .collect::<Result<Vec<_>, _>>()?;
                ab.set_invariant(id, invariant);
            }
            let initial = *loc_ids
                .get(aut.initial)
                .ok_or(SpecError::DanglingReference("initial location"))?;
            ab.set_initial(initial);
            for e in &aut.edges {
                let (&src, &tgt) = match (loc_ids.get(e.source), loc_ids.get(e.target)) {
                    (Some(s), Some(t)) => (s, t),
                    _ => return Err(SpecError::DanglingReference("edge endpoint")),
                };
                let mut eb = EdgeBuilder::new(src, tgt);
                if let Some((ch, receive)) = e.sync {
                    let &id = chan_ids
                        .get(ch)
                        .ok_or(SpecError::DanglingReference("channel"))?;
                    eb = if receive { eb.input(id) } else { eb.output(id) };
                }
                for c in &e.guard {
                    eb = eb.guard_clock(constraint(c, &clock_ids)?);
                }
                if let Some(when) = &e.when {
                    check_vars(when, &self.vars)?;
                    eb = eb.when(when.to_expr(&var_ids));
                }
                for (clock, value) in &e.resets {
                    let &id = clock_ids
                        .get(*clock)
                        .ok_or(SpecError::DanglingReference("reset clock"))?;
                    check_vars(value, &self.vars)?;
                    eb = if *value == ExprSpec::Const(0) {
                        eb.reset(id)
                    } else {
                        eb.reset_to(id, value.to_expr(&var_ids))
                    };
                }
                for u in &e.updates {
                    let decl = self
                        .vars
                        .get(u.var)
                        .ok_or(SpecError::DanglingReference("update target"))?;
                    check_vars(&u.value, &self.vars)?;
                    let &id = var_ids.get(u.var).expect("checked above");
                    eb = match (&u.index, decl.size) {
                        (None, None) => eb.set(id, u.value.to_expr(&var_ids)),
                        (Some(ExprSpec::Const(i)), Some(size))
                            if usize::try_from(*i).is_ok_and(|i| i < size) =>
                        {
                            eb.set_element(id, Expr::constant(*i), u.value.to_expr(&var_ids))
                        }
                        (Some(index), Some(_)) if !matches!(index, ExprSpec::Const(_)) => {
                            check_vars(index, &self.vars)?;
                            eb.set_element(id, index.to_expr(&var_ids), u.value.to_expr(&var_ids))
                        }
                        _ => return Err(SpecError::DanglingReference("array index")),
                    };
                }
                if let Some(c) = e.controllable {
                    eb = eb.controllable(c);
                }
                ab.add_edge(eb);
            }
            b.add_automaton(ab.build()?)?;
        }
        let system = b.build()?;
        self.check_objective()?;
        let purpose = TestPurpose::parse(&self.control_line(), &system)?;
        Ok((system, purpose))
    }

    fn check_objective(&self) -> Result<(), SpecError> {
        let mut targets = vec![self.objective.target];
        targets.extend(self.objective.or_target);
        for (a, l) in targets {
            let aut = self
                .automata
                .get(a)
                .ok_or(SpecError::DanglingReference("objective automaton"))?;
            if l >= aut.locations.len() {
                return Err(SpecError::DanglingReference("objective location"));
            }
        }
        if let Some((v, _, _)) = self.objective.var_clause {
            match self.vars.get(v) {
                Some(decl) if decl.size.is_none() => {}
                _ => return Err(SpecError::DanglingReference("objective variable")),
            }
        }
        Ok(())
    }

    // ---- shrinking edits -------------------------------------------------
    //
    // Each edit keeps the *remaining* references consistent (reindexing
    // after a removal).  References *to the removed entity* are removed
    // along with it; whether the resulting spec still makes sense (e.g. the
    // objective still resolves) is decided by re-running `build`.

    /// Removes automaton `a`, shifting the objective's automaton references.
    ///
    /// An objective that pointed *at* `a` is left dangling (the subsequent
    /// [`SysSpec::build`] fails), so the shrinker naturally discards edits
    /// that would remove the objective's target — it must never silently
    /// rebind to whatever automaton slides into the removed index, which
    /// would let a shrink change what the game is about.
    pub fn drop_automaton(&mut self, a: usize) {
        self.automata.remove(a);
        if self.objective.target.0 == a {
            self.objective.target.0 = usize::MAX;
        } else if self.objective.target.0 > a {
            self.objective.target.0 -= 1;
        }
        self.objective.or_target = match self.objective.or_target.take() {
            Some((oa, _)) if oa == a => None,
            Some((oa, ol)) => Some((if oa > a { oa - 1 } else { oa }, ol)),
            None => None,
        };
    }

    /// Removes location `l` of automaton `a` together with every edge that
    /// touches it, remapping the remaining indices.
    ///
    /// Dropping the automaton's initial location or an objective target
    /// leaves that reference dangling (build fails, the shrinker skips the
    /// edit) rather than silently rebinding it to the location that slides
    /// into index `l`.
    pub fn drop_location(&mut self, a: usize, l: usize) {
        let aut = &mut self.automata[a];
        aut.locations.remove(l);
        aut.edges.retain(|e| e.source != l && e.target != l);
        for e in &mut aut.edges {
            if e.source > l {
                e.source -= 1;
            }
            if e.target > l {
                e.target -= 1;
            }
        }
        if aut.initial == l {
            aut.initial = usize::MAX;
        } else if aut.initial > l {
            aut.initial -= 1;
        }
        let fix = |t: &mut (usize, usize)| {
            if t.0 == a {
                if t.1 == l {
                    t.1 = usize::MAX;
                } else if t.1 > l {
                    t.1 -= 1;
                }
            }
        };
        fix(&mut self.objective.target);
        if let Some(t) = &mut self.objective.or_target {
            fix(t);
        }
    }

    /// Removes clock `c` and every constraint or reset that mentions it.
    pub fn drop_clock(&mut self, c: usize) {
        self.clocks -= 1;
        let keep = |cs: &ConstraintSpec| cs.left != c && cs.minus != Some(c);
        let shift = |cs: &mut ConstraintSpec| {
            if cs.left > c {
                cs.left -= 1;
            }
            if let Some(m) = &mut cs.minus {
                if *m > c {
                    *m -= 1;
                }
            }
        };
        for aut in &mut self.automata {
            for loc in &mut aut.locations {
                loc.invariant.retain(keep);
                loc.invariant.iter_mut().for_each(shift);
            }
            for e in &mut aut.edges {
                e.guard.retain(keep);
                e.guard.iter_mut().for_each(shift);
                e.resets.retain(|(clock, _)| *clock != c);
                for (clock, _) in &mut e.resets {
                    if *clock > c {
                        *clock -= 1;
                    }
                }
            }
        }
    }

    /// Removes variable `v` and every guard/update that mentions it.
    pub fn drop_var(&mut self, v: usize) {
        self.vars.remove(v);
        for aut in &mut self.automata {
            for e in &mut aut.edges {
                if e.when.as_ref().is_some_and(|w| w.uses_var(v)) {
                    e.when = None;
                }
                if let Some(w) = &mut e.when {
                    w.shift_var_down(v);
                }
                e.resets.retain(|(_, value)| !value.uses_var(v));
                for (_, value) in &mut e.resets {
                    value.shift_var_down(v);
                }
                e.updates.retain(|u| {
                    u.var != v
                        && !u.value.uses_var(v)
                        && !u.index.as_ref().is_some_and(|i| i.uses_var(v))
                });
                for u in &mut e.updates {
                    if u.var > v {
                        u.var -= 1;
                    }
                    u.value.shift_var_down(v);
                    if let Some(index) = &mut u.index {
                        index.shift_var_down(v);
                    }
                }
            }
        }
        match &mut self.objective.var_clause {
            Some((var, _, _)) if *var == v => self.objective.var_clause = None,
            Some((var, _, _)) if *var > v => *var -= 1,
            _ => {}
        }
    }

    /// A structural size measure used to validate that every shrink edit
    /// makes the spec strictly smaller: entity counts plus the magnitudes
    /// of clock constants (so constant *bisection* counts as progress) plus
    /// a channel-kind weight (internal channels carry controllability
    /// overrides, so `internal → input` simplification counts too).
    #[must_use]
    pub fn size_metric(&self) -> u64 {
        fn constraint_size(c: &ConstraintSpec) -> u64 {
            3 + u64::from(c.minus.is_some()) + c.bound.unsigned_abs()
        }
        fn expr_size(e: &ExprSpec) -> u64 {
            match e {
                ExprSpec::Const(n) => 1 + n.unsigned_abs().min(8),
                ExprSpec::Var(_) | ExprSpec::Elem(_, _) => 1,
                ExprSpec::Add(a, b)
                | ExprSpec::Sub(a, b)
                | ExprSpec::Cmp(_, a, b)
                | ExprSpec::And(a, b)
                | ExprSpec::Or(a, b) => 1 + expr_size(a) + expr_size(b),
            }
        }
        let mut size = 4 * self.clocks as u64 + 4 * self.vars.len() as u64;
        for kind in &self.channels {
            size += match kind {
                ChanKind::Input | ChanKind::Output => 2,
                ChanKind::Internal => 3,
            };
        }
        for var in &self.vars {
            size += u64::from(var.size.is_some());
        }
        for aut in &self.automata {
            size += 10;
            for loc in &aut.locations {
                size += 5 + u64::from(loc.urgent);
                size += loc.invariant.iter().map(constraint_size).sum::<u64>();
            }
            for edge in &aut.edges {
                size += 5 + u64::from(edge.sync.is_some());
                size += edge.guard.iter().map(constraint_size).sum::<u64>();
                size += edge.when.as_ref().map_or(0, expr_size);
                size += edge
                    .resets
                    .iter()
                    .map(|(_, value)| match value {
                        ExprSpec::Const(n) => 2 + n.unsigned_abs(),
                        value => 2 + expr_size(value),
                    })
                    .sum::<u64>();
                size += edge
                    .updates
                    .iter()
                    .map(|u| {
                        let index = match &u.index {
                            None | Some(ExprSpec::Const(_)) => 0,
                            Some(index) => expr_size(index),
                        };
                        3 + index + expr_size(&u.value)
                    })
                    .sum::<u64>();
                size += u64::from(edge.controllable.is_some());
            }
        }
        size += 2 * u64::from(self.objective.or_target.is_some());
        size += 2 * u64::from(self.objective.var_clause.is_some());
        size
    }

    /// Removes channel `ch` and every edge synchronizing on it.
    pub fn drop_channel(&mut self, ch: usize) {
        self.channels.remove(ch);
        for aut in &mut self.automata {
            aut.edges
                .retain(|e| !matches!(e.sync, Some((c, _)) if c == ch));
            for e in &mut aut.edges {
                if let Some((c, _)) = &mut e.sync {
                    if *c > ch {
                        *c -= 1;
                    }
                }
            }
        }
    }
}

fn constraint(
    c: &ConstraintSpec,
    clocks: &[tiga_model::ClockId],
) -> Result<ClockConstraint, SpecError> {
    let &left = clocks
        .get(c.left)
        .ok_or(SpecError::DanglingReference("constraint clock"))?;
    Ok(match c.minus {
        None => ClockConstraint::new(left, c.op, c.bound),
        Some(m) => {
            let &minus = clocks
                .get(m)
                .ok_or(SpecError::DanglingReference("constraint clock"))?;
            ClockConstraint::diff(left, minus, c.op, c.bound)
        }
    })
}

fn check_vars(e: &ExprSpec, vars: &[VarSpec]) -> Result<(), SpecError> {
    match e {
        ExprSpec::Const(_) => Ok(()),
        ExprSpec::Var(v) => match vars.get(*v) {
            Some(decl) if decl.size.is_none() => Ok(()),
            _ => Err(SpecError::DanglingReference("scalar variable")),
        },
        ExprSpec::Elem(v, i) => match vars.get(*v) {
            Some(decl) if decl.size.is_some_and(|s| *i < s) => Ok(()),
            _ => Err(SpecError::DanglingReference("array element")),
        },
        ExprSpec::Add(a, b)
        | ExprSpec::Sub(a, b)
        | ExprSpec::Cmp(_, a, b)
        | ExprSpec::And(a, b)
        | ExprSpec::Or(a, b) => {
            check_vars(a, vars)?;
            check_vars(b, vars)
        }
    }
}

/// Why a spec failed to materialize.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// A structural reference does not resolve (typical after a shrink edit).
    DanglingReference(&'static str),
    /// The model builders rejected the spec.
    Model(String),
    /// The `control:` objective does not parse/resolve against the system.
    Objective(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::DanglingReference(what) => write!(f, "dangling reference: {what}"),
            SpecError::Model(e) => write!(f, "model error: {e}"),
            SpecError::Objective(e) => write!(f, "objective error: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<ModelError> for SpecError {
    fn from(e: ModelError) -> Self {
        SpecError::Model(e.to_string())
    }
}

impl From<LangError> for SpecError {
    fn from(e: LangError) -> Self {
        SpecError::Objective(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-automaton spec exercising every construct once.
    fn sample_spec() -> SysSpec {
        SysSpec {
            name: "sample".into(),
            clocks: 2,
            channels: vec![ChanKind::Input, ChanKind::Output],
            vars: vec![
                VarSpec {
                    size: None,
                    lower: 0,
                    upper: 3,
                    initial: 0,
                },
                VarSpec {
                    size: Some(2),
                    lower: 0,
                    upper: 1,
                    initial: 0,
                },
            ],
            automata: vec![
                AutSpec {
                    locations: vec![
                        LocSpec {
                            urgent: false,
                            invariant: vec![],
                        },
                        LocSpec {
                            urgent: false,
                            invariant: vec![ConstraintSpec {
                                left: 0,
                                minus: None,
                                op: CmpOp::Le,
                                bound: 5,
                            }],
                        },
                    ],
                    initial: 0,
                    edges: vec![
                        EdgeSpec {
                            source: 0,
                            target: 1,
                            sync: Some((0, true)),
                            guard: vec![ConstraintSpec {
                                left: 1,
                                minus: Some(0),
                                op: CmpOp::Ge,
                                bound: 0,
                            }],
                            when: Some(ExprSpec::Cmp(
                                CmpOp::Lt,
                                Box::new(ExprSpec::Var(0)),
                                Box::new(ExprSpec::Const(3)),
                            )),
                            resets: vec![(0, ExprSpec::Const(0))],
                            updates: vec![UpdateSpec {
                                var: 0,
                                index: None,
                                value: ExprSpec::Add(
                                    Box::new(ExprSpec::Var(0)),
                                    Box::new(ExprSpec::Const(1)),
                                ),
                            }],
                            controllable: None,
                        },
                        EdgeSpec {
                            source: 1,
                            target: 0,
                            sync: None,
                            guard: vec![],
                            when: None,
                            resets: vec![(1, ExprSpec::Const(2))],
                            updates: vec![UpdateSpec {
                                var: 1,
                                index: Some(ExprSpec::Const(1)),
                                value: ExprSpec::Const(1),
                            }],
                            controllable: Some(true),
                        },
                    ],
                },
                AutSpec {
                    locations: vec![LocSpec {
                        urgent: true,
                        invariant: vec![],
                    }],
                    initial: 0,
                    edges: vec![EdgeSpec {
                        source: 0,
                        target: 0,
                        sync: Some((0, false)),
                        guard: vec![],
                        when: None,
                        resets: vec![],
                        updates: vec![],
                        controllable: None,
                    }],
                },
            ],
            objective: ObjectiveSpec {
                reachability: true,
                target: (0, 1),
                or_target: None,
                var_clause: Some((0, CmpOp::Ge, 1)),
                bound: None,
            },
        }
    }

    #[test]
    fn sample_spec_builds() {
        let (system, purpose) = sample_spec().build().unwrap();
        assert_eq!(system.clocks().len(), 2);
        assert_eq!(system.automata().len(), 2);
        assert_eq!(purpose.quantifier, tiga_tctl::PathQuantifier::Reachability);
        assert!(!purpose.source.is_empty());
    }

    #[test]
    fn drop_automaton_reindexes_objective() {
        let mut spec = sample_spec();
        spec.objective.target = (1, 0);
        spec.drop_automaton(0);
        assert_eq!(spec.objective.target, (0, 0));
        // Edges on ch0 survive (the channel still exists); the spec builds.
        assert!(spec.build().is_ok());
    }

    #[test]
    fn drop_objective_automaton_fails_build() {
        let mut spec = sample_spec();
        spec.drop_automaton(0);
        // Objective pointed at A0.L1, which no longer exists.
        assert!(spec.build().is_err());
    }

    #[test]
    fn drop_clock_removes_references() {
        let mut spec = sample_spec();
        spec.drop_clock(0);
        assert_eq!(spec.clocks, 1);
        let (system, _) = spec.build().unwrap();
        assert_eq!(system.clocks().len(), 1);
        // The diagonal guard on (c1 - c0) and the reset of c0 are gone; the
        // invariant on c0 is gone; the reset of c1 remains, reindexed to 0.
        let a0 = &system.automata()[0];
        assert!(a0.edges()[0].guard.clocks.is_empty());
        assert!(a0.locations()[1].invariant.is_empty());
        assert_eq!(a0.edges()[1].resets.len(), 1);
    }

    #[test]
    fn drop_var_removes_guards_and_updates() {
        let mut spec = sample_spec();
        spec.drop_var(0);
        let (system, purpose) = spec.build().unwrap();
        assert_eq!(system.vars().len(), 1);
        let a0 = &system.automata()[0];
        assert!(a0.edges()[0].guard.data.is_none());
        assert_eq!(a0.edges()[0].updates.len(), 0);
        // The objective's var clause is dropped with the variable.
        assert!(!purpose.source.contains("v0"));
    }

    #[test]
    fn drop_channel_drops_syncing_edges() {
        let mut spec = sample_spec();
        spec.drop_channel(0);
        let (system, _) = spec.build().unwrap();
        assert_eq!(system.channels().len(), 1);
        assert_eq!(system.automata()[0].edges().len(), 1);
        assert_eq!(system.automata()[1].edges().len(), 0);
    }

    #[test]
    fn drop_location_drops_touching_edges() {
        let mut spec = sample_spec();
        spec.objective.target = (0, 0);
        spec.objective.var_clause = None;
        spec.drop_location(0, 1);
        let (system, _) = spec.build().unwrap();
        assert_eq!(system.automata()[0].locations().len(), 1);
        assert_eq!(system.automata()[0].edges().len(), 0);
    }

    #[test]
    fn exact_match_drops_dangle_instead_of_rebinding() {
        // Dropping the objective's target location must not silently point
        // the objective at the location that slides into its index.
        let mut spec = sample_spec();
        spec.drop_location(0, 1); // objective targets A0.L1
        assert!(spec.build().is_err());
        // Dropping the initial location must not silently promote another.
        let mut spec = sample_spec();
        spec.objective.target = (0, 1);
        spec.automata[0].initial = 0;
        spec.drop_location(0, 0);
        assert!(spec.build().is_err());
    }
}
