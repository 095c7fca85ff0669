//! Symbolic (zone-based) semantics of a network of timed I/O game automata.
//!
//! The functions here provide everything the timed-game solver needs:
//! enumeration of joint edges in a discrete state, forward successor zones,
//! backward (predecessor) zones, invariants and extrapolation bounds.

use crate::automaton::{ClockReset, Edge, Sync};
use crate::decl::{Action, ChannelKind};
use crate::error::ModelError;
use crate::ids::{AutomatonId, ChannelId, EdgeId, LocationId};
use crate::system::System;
use std::fmt;
use tiga_dbm::{Bound, Dbm};

/// The discrete part of a system state: one location per automaton plus the
/// flattened store of bounded integer variables.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DiscreteState {
    /// Current location of each automaton (indexed by automaton).
    pub locations: Vec<LocationId>,
    /// Flattened values of the discrete variables.
    pub vars: Vec<i64>,
}

impl DiscreteState {
    /// Renders the state as `Aut1.Loc, Aut2.Loc [v1=..., ...]` using the
    /// system's names.
    #[must_use]
    pub fn display<'a>(&'a self, system: &'a System) -> DisplayDiscreteState<'a> {
        DisplayDiscreteState {
            state: self,
            system,
        }
    }
}

/// Helper returned by [`DiscreteState::display`].
pub struct DisplayDiscreteState<'a> {
    state: &'a DiscreteState,
    system: &'a System,
}

impl fmt::Display for DisplayDiscreteState<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (i, loc) in self.state.locations.iter().enumerate() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            let aut = &self.system.automata()[i];
            write!(f, "{}.{}", aut.name(), aut.location(*loc).name)?;
        }
        if !self.state.vars.is_empty() {
            write!(f, " [")?;
            let mut first = true;
            for decl in self.system.vars().iter() {
                for k in 0..decl.size() {
                    if !first {
                        write!(f, ", ")?;
                    }
                    first = false;
                    if decl.is_array() {
                        write!(
                            f,
                            "{}[{}]={}",
                            decl.name(),
                            k,
                            self.state.vars[decl.offset() + k]
                        )?;
                    } else {
                        write!(f, "{}={}", decl.name(), self.state.vars[decl.offset()])?;
                    }
                }
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

/// A symbolic state: a discrete state together with a clock zone.
#[derive(Clone, Debug, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SymbolicState {
    /// Discrete part (locations and variables).
    pub discrete: DiscreteState,
    /// Zone over the system clocks.
    pub zone: Dbm,
}

/// A transition of the composed system: either a single automaton stepping on
/// an internal edge, or two automata synchronizing on a channel.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum JointEdge {
    /// One automaton takes a `tau` edge.
    Internal {
        /// Automaton that moves.
        automaton: AutomatonId,
        /// Edge taken.
        edge: EdgeId,
    },
    /// Two automata synchronize: one emits `channel!`, the other receives
    /// `channel?`.
    Sync {
        /// Channel on which the automata synchronize.
        channel: ChannelId,
        /// Emitting automaton and edge (`channel!`).
        output: (AutomatonId, EdgeId),
        /// Receiving automaton and edge (`channel?`).
        input: (AutomatonId, EdgeId),
    },
}

impl JointEdge {
    /// The observable action corresponding to this joint edge, if any.
    ///
    /// Synchronizations on input/output channels are observable; `tau` steps
    /// and synchronizations on internal channels are not.
    #[must_use]
    pub fn action(&self, system: &System) -> Option<Action> {
        match self {
            JointEdge::Internal { .. } => None,
            JointEdge::Sync { channel, .. } => match system.channel(*channel).kind() {
                ChannelKind::Input => Some(Action::input(*channel)),
                ChannelKind::Output => Some(Action::output(*channel)),
                ChannelKind::Internal => None,
            },
        }
    }

    /// Human-readable label (e.g. `touch?` for an input synchronization).
    #[must_use]
    pub fn label(&self, system: &System) -> String {
        match self {
            JointEdge::Internal { automaton, edge } => {
                let aut = system.automaton(*automaton);
                let e = aut.edge(*edge);
                format!(
                    "{}: {} -> {}",
                    aut.name(),
                    aut.location(e.source).name,
                    aut.location(e.target).name
                )
            }
            JointEdge::Sync { channel, .. } => {
                let ch = system.channel(*channel);
                match ch.kind() {
                    ChannelKind::Input => format!("{}?", ch.name()),
                    ChannelKind::Output => format!("{}!", ch.name()),
                    ChannelKind::Internal => format!("{} (internal)", ch.name()),
                }
            }
        }
    }
}

/// Converts an evaluated reset value into the DBM bound range, rejecting
/// values the [`tiga_dbm::Bound`] encoding cannot represent (constructing
/// such a bound would panic; `.tg` inputs reach this path with arbitrary
/// literals).
fn checked_reset_value(v: i64) -> Result<i32, ModelError> {
    if (0..=i64::from(tiga_dbm::MAX_CONSTANT)).contains(&v) {
        Ok(v as i32)
    } else {
        Err(ModelError::Eval(crate::error::EvalError::Overflow))
    }
}

impl System {
    /// The initial discrete state (initial locations, initial variable
    /// values).
    #[must_use]
    pub fn initial_discrete(&self) -> DiscreteState {
        DiscreteState {
            locations: self.automata.iter().map(|a| a.initial()).collect(),
            vars: self.vars.initial_store(),
        }
    }

    /// The initial symbolic state: all clocks zero, intersected with the
    /// invariant (not yet delay-closed).
    ///
    /// # Errors
    ///
    /// Returns an error if an invariant bound cannot be evaluated.
    pub fn initial_symbolic(&self) -> Result<SymbolicState, ModelError> {
        let discrete = self.initial_discrete();
        let mut zone = Dbm::zero(self.dim());
        let inv = self.invariant_zone(&discrete)?;
        zone.intersect(&inv);
        Ok(SymbolicState { discrete, zone })
    }

    /// The conjunction of all location invariants in a discrete state, as a
    /// zone.
    ///
    /// # Errors
    ///
    /// Returns an error if an invariant bound cannot be evaluated.
    pub fn invariant_zone(&self, d: &DiscreteState) -> Result<Dbm, ModelError> {
        let mut zone = Dbm::universe(self.dim());
        for (i, aut) in self.automata.iter().enumerate() {
            let loc = aut.location(d.locations[i]);
            for c in &loc.invariant {
                if !c.apply_to(&mut zone, &self.vars, &d.vars)? {
                    break;
                }
            }
        }
        Ok(zone)
    }

    /// Returns `true` if any current location is urgent (time may not elapse).
    #[must_use]
    pub fn is_urgent(&self, d: &DiscreteState) -> bool {
        self.automata
            .iter()
            .enumerate()
            .any(|(i, aut)| aut.location(d.locations[i]).urgent)
    }

    /// Enumerates the joint edges whose *data* guards are satisfied in the
    /// discrete state (clock guards are handled symbolically by the caller).
    ///
    /// # Errors
    ///
    /// Returns an error if a data guard cannot be evaluated.
    pub fn enabled_joint_edges(&self, d: &DiscreteState) -> Result<Vec<JointEdge>, ModelError> {
        let mut result = Vec::new();
        // Internal (tau) edges.
        for (ai, aut) in self.automata.iter().enumerate() {
            for ei in aut.edges_from(d.locations[ai]) {
                let edge = aut.edge(ei);
                if edge.sync == Sync::Tau && edge.guard.data_holds(&self.vars, &d.vars)? {
                    result.push(JointEdge::Internal {
                        automaton: AutomatonId::from_index(ai),
                        edge: ei,
                    });
                }
            }
        }
        // Binary synchronizations: every (output edge, input edge) pair on the
        // same channel in two distinct automata.
        for (ai, aut) in self.automata.iter().enumerate() {
            for ei in aut.edges_from(d.locations[ai]) {
                let edge = aut.edge(ei);
                let Sync::Output(ch) = edge.sync else {
                    continue;
                };
                if !edge.guard.data_holds(&self.vars, &d.vars)? {
                    continue;
                }
                for (bi, other) in self.automata.iter().enumerate() {
                    if bi == ai {
                        continue;
                    }
                    for fi in other.edges_from(d.locations[bi]) {
                        let recv = other.edge(fi);
                        if recv.sync == Sync::Input(ch)
                            && recv.guard.data_holds(&self.vars, &d.vars)?
                        {
                            result.push(JointEdge::Sync {
                                channel: ch,
                                output: (AutomatonId::from_index(ai), ei),
                                input: (AutomatonId::from_index(bi), fi),
                            });
                        }
                    }
                }
            }
        }
        Ok(result)
    }

    /// Controllability of a joint edge: synchronizations take the channel's
    /// kind (inputs are controllable), `tau` edges use their explicit
    /// override and default to *uncontrollable*.
    #[must_use]
    pub fn is_controllable(&self, je: &JointEdge) -> bool {
        match je {
            JointEdge::Internal { automaton, edge } => self
                .automaton(*automaton)
                .edge(*edge)
                .controllable
                .unwrap_or(false),
            JointEdge::Sync { channel, .. } => self.channel(*channel).is_controllable(),
        }
    }

    /// The `(automaton index, edge)` pairs a joint edge moves: one for a
    /// `tau` step, the emitter then the receiver for a synchronization.
    pub(crate) fn joint_components<'a>(
        &'a self,
        je: &JointEdge,
    ) -> impl Iterator<Item = (usize, &'a Edge)> + Clone {
        let component = |(automaton, edge): (AutomatonId, EdgeId)| {
            (automaton.index(), self.automaton(automaton).edge(edge))
        };
        let (first, second) = match *je {
            JointEdge::Internal { automaton, edge } => ((automaton, edge), None),
            JointEdge::Sync { output, input, .. } => (output, Some(input)),
        };
        std::iter::once(component(first)).chain(second.map(component))
    }

    /// The conjunction of the clock guards of a joint edge, as a zone.
    ///
    /// # Errors
    ///
    /// Returns an error if a guard bound cannot be evaluated or is non-convex.
    pub fn joint_guard_zone(&self, d: &DiscreteState, je: &JointEdge) -> Result<Dbm, ModelError> {
        let mut zone = Dbm::universe(self.dim());
        self.constrain_joint_guards(&mut zone, d, je)?;
        Ok(zone)
    }

    /// Conjoins the clock guards of the edges a joint edge moves onto
    /// `zone`, stopping with `false` once it is empty.
    fn constrain_joint_guards(
        &self,
        zone: &mut Dbm,
        d: &DiscreteState,
        je: &JointEdge,
    ) -> Result<bool, ModelError> {
        for (_, edge) in self.joint_components(je) {
            for c in &edge.guard.clocks {
                if !c.apply_to(zone, &self.vars, &d.vars)? {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Applies the discrete effect (location changes and variable updates) of
    /// a joint edge.
    ///
    /// Returns `Ok(None)` if an update drives a bounded variable outside its
    /// declared range (the transition is then considered disabled).
    ///
    /// # Errors
    ///
    /// Returns an error if an update expression cannot be evaluated.
    pub fn apply_joint_discrete(
        &self,
        d: &DiscreteState,
        je: &JointEdge,
    ) -> Result<Option<DiscreteState>, ModelError> {
        let mut next = d.clone();
        for (ai, edge) in self.joint_components(je) {
            if !self.apply_edge_discrete(&mut next, ai, edge)? {
                return Ok(None);
            }
        }
        Ok(Some(next))
    }

    /// Applies one edge's discrete effect to `d`: the automaton moves to the
    /// edge's target and the updates run in order, each reading the store
    /// as the previous ones left it.  Returns `Ok(false)` if an update
    /// drives a bounded variable outside its declared range.  The symbolic
    /// step and the tick interpreter both move through here.
    pub(crate) fn apply_edge_discrete(
        &self,
        d: &mut DiscreteState,
        automaton: usize,
        edge: &Edge,
    ) -> Result<bool, ModelError> {
        d.locations[automaton] = edge.target;
        for u in &edge.updates {
            let value = u.value.eval(&self.vars, &d.vars)?;
            if self.vars.check_range(u.target, value).is_err() {
                return Ok(false);
            }
            let offset = match &u.index {
                None => self.vars.offset(u.target),
                Some(idx) => {
                    let i = idx.eval(&self.vars, &d.vars)?;
                    let decl = self.vars.decl(u.target);
                    if i < 0 || i as usize >= decl.size() {
                        return Err(ModelError::Eval(
                            crate::error::EvalError::IndexOutOfBounds {
                                name: decl.name().to_string(),
                                index: i,
                                size: decl.size(),
                            },
                        ));
                    }
                    self.vars.offset(u.target) + i as usize
                }
            };
            d.vars[offset] = value;
        }
        Ok(true)
    }

    /// The value a clock reset assigns, evaluated in the source store
    /// `vars`.  A negative value is an error in both semantics.
    pub(crate) fn reset_value(&self, r: &ClockReset, vars: &[i64]) -> Result<i64, ModelError> {
        let v = r.value.eval(&self.vars, vars)?;
        if v < 0 {
            return Err(ModelError::NegativeClockReset(format!(
                "clock {} := {v}",
                self.clock(r.clock).name()
            )));
        }
        Ok(v)
    }

    /// Applies the clock effect of a joint edge to a zone: intersect with the
    /// guards, apply resets, intersect with the target invariant.
    ///
    /// The caller supplies the *target* discrete state (obtained from
    /// [`System::apply_joint_discrete`]) so the target invariant can be
    /// evaluated with the updated variables.
    ///
    /// # Errors
    ///
    /// Returns an error if guard/invariant/reset expressions cannot be
    /// evaluated, a reset value is negative, or a constraint is non-convex.
    pub fn apply_joint_zone(
        &self,
        zone: &Dbm,
        source: &DiscreteState,
        target: &DiscreteState,
        je: &JointEdge,
    ) -> Result<Dbm, ModelError> {
        let mut z = self.apply_joint_clocks(zone, source, je)?;
        if !z.is_empty() {
            let inv = self.invariant_zone(target)?;
            z.intersect(&inv);
        }
        Ok(z)
    }

    /// The guard and reset half of [`System::apply_joint_zone`]: everything
    /// but the target invariant.  The result is empty exactly when a guard
    /// disables the edge; resets keep a non-empty zone non-empty.
    pub(crate) fn apply_joint_clocks(
        &self,
        zone: &Dbm,
        source: &DiscreteState,
        je: &JointEdge,
    ) -> Result<Dbm, ModelError> {
        let mut z = zone.clone();
        if !self.constrain_joint_guards(&mut z, source, je)? || z.is_empty() {
            return Ok(z);
        }
        for (_, edge) in self.joint_components(je) {
            for r in &edge.resets {
                let v = checked_reset_value(self.reset_value(r, &source.vars)?)?;
                z.reset(r.clock.dbm_index(), v);
            }
        }
        Ok(z)
    }

    /// Computes the full symbolic successor of `state` under a joint edge
    /// (guards, resets, updates, target invariant — no delay closure).
    ///
    /// Returns `Ok(None)` if the transition is disabled (empty zone or blocked
    /// update).
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors from guards, updates and invariants.
    pub fn joint_successor(
        &self,
        state: &SymbolicState,
        je: &JointEdge,
    ) -> Result<Option<SymbolicState>, ModelError> {
        self.joint_successor_from(&state.discrete, &state.zone, je)
    }

    /// Like [`System::joint_successor`], but borrows the source discrete
    /// state and zone separately so hot callers (the explorer's per-edge
    /// candidate fan-out) need not assemble a [`SymbolicState`] per edge.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors from guards, updates and invariants.
    pub fn joint_successor_from(
        &self,
        discrete: &DiscreteState,
        zone: &Dbm,
        je: &JointEdge,
    ) -> Result<Option<SymbolicState>, ModelError> {
        let Some(target) = self.apply_joint_discrete(discrete, je)? else {
            return Ok(None);
        };
        let succ = self.apply_joint_zone(zone, discrete, &target, je)?;
        if succ.is_empty() {
            return Ok(None);
        }
        Ok(Some(SymbolicState {
            discrete: target,
            zone: succ,
        }))
    }

    /// Computes the predecessor zone of a joint edge: the set of source-state
    /// valuations from which taking `je` lands inside `target_zone`.
    ///
    /// `target_zone` should be a subset of the target invariant (the solver
    /// maintains this); the result is intersected with the source invariant
    /// and the edge guards.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors from guards, resets and invariants.
    pub fn joint_pred_zone(
        &self,
        source: &DiscreteState,
        je: &JointEdge,
        target_zone: &Dbm,
    ) -> Result<Dbm, ModelError> {
        let mut z = target_zone.clone();
        let components = self.joint_components(je);
        // Constrain the reset clocks to their reset values, then free them.
        for (_, edge) in components.clone() {
            for r in &edge.resets {
                let v = checked_reset_value(self.reset_value(r, &source.vars)?)?;
                let idx = r.clock.dbm_index();
                if !(z.constrain(idx, 0, Bound::le(v)) && z.constrain(0, idx, Bound::le(-v))) {
                    return Ok(z); // empty: the reset can never land in the target zone
                }
            }
        }
        for (_, edge) in components {
            for r in &edge.resets {
                z.free(r.clock.dbm_index());
            }
        }
        // Guards and the source invariant.
        if !self.constrain_joint_guards(&mut z, source, je)? {
            return Ok(z);
        }
        let inv = self.invariant_zone(source)?;
        z.intersect(&inv);
        Ok(z)
    }

    /// Delay-closes a symbolic state within its invariant and applies
    /// maximal-constant extrapolation.
    ///
    /// Urgent discrete states are not delayed.  The zone is first restricted
    /// to the invariant, which changes nothing for the states forward
    /// exploration produces: they already lie inside it.
    ///
    /// # Errors
    ///
    /// Returns an error if an invariant bound cannot be evaluated.
    pub fn delay_close(
        &self,
        state: &mut SymbolicState,
        max_bounds: &[i32],
    ) -> Result<(), ModelError> {
        let inv = self.invariant_zone(&state.discrete)?;
        let urgent = self.is_urgent(&state.discrete);
        Self::close_within(&mut state.zone, &inv, urgent, max_bounds);
        Ok(())
    }

    /// The body of [`System::delay_close`], given the state's invariant and
    /// urgency: restrict `zone` to `invariant`, let time pass within it
    /// unless `urgent`, and extrapolate.  Returns `false` when the result is
    /// empty.  The explorer calls it with its cached invariants.
    pub(crate) fn close_within(
        zone: &mut Dbm,
        invariant: &Dbm,
        urgent: bool,
        max_bounds: &[i32],
    ) -> bool {
        if !zone.intersect(invariant) {
            return false;
        }
        if !urgent {
            zone.up();
            zone.intersect(invariant);
        }
        zone.extrapolate_max_bounds(max_bounds);
        !zone.is_empty()
    }

    /// Convenience: the delay-closed, extrapolated initial symbolic state used
    /// as the root of forward exploration.
    ///
    /// # Errors
    ///
    /// Propagates invariant evaluation errors.
    pub fn initial_exploration_state(&self) -> Result<SymbolicState, ModelError> {
        let mut s = self.initial_symbolic()?;
        let max = self.max_bounds();
        self.delay_close(&mut s, &max)?;
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::ClockConstraint;
    use crate::builder::{AutomatonBuilder, EdgeBuilder, SystemBuilder};
    use crate::expr::{CmpOp, Expr};

    /// A two-automaton system:
    ///  * `Plant`: Idle --go?--> Work (resets x), Work --done!--> Idle when x >= 2,
    ///    invariant Work: x <= 5, counter `count` incremented on done.
    ///  * `User`: U0 --go!--> U1, U1 --done?--> U0.
    fn sample_system() -> System {
        let mut b = SystemBuilder::new("sample");
        let x = b.clock("x").unwrap();
        let go = b.input_channel("go").unwrap();
        let done = b.output_channel("done").unwrap();
        let count = b.int_var("count", 0, 3, 0).unwrap();

        let mut plant = AutomatonBuilder::new("Plant");
        let idle = plant.location("Idle").unwrap();
        let work = plant.location("Work").unwrap();
        plant.set_initial(idle);
        plant.set_invariant(work, vec![ClockConstraint::new(x, CmpOp::Le, 5)]);
        plant.add_edge(EdgeBuilder::new(idle, work).input(go).reset(x));
        plant.add_edge(
            EdgeBuilder::new(work, idle)
                .output(done)
                .guard_clock(ClockConstraint::new(x, CmpOp::Ge, 2))
                .set(count, Expr::var(count) + Expr::constant(1)),
        );
        b.add_automaton(plant.build().unwrap()).unwrap();

        let mut user = AutomatonBuilder::new("User");
        let u0 = user.location("U0").unwrap();
        let u1 = user.location("U1").unwrap();
        user.set_initial(u0);
        user.add_edge(EdgeBuilder::new(u0, u1).output(go));
        user.add_edge(EdgeBuilder::new(u1, u0).input(done));
        b.add_automaton(user.build().unwrap()).unwrap();

        b.build().unwrap()
    }

    #[test]
    fn initial_states() {
        let sys = sample_system();
        let d0 = sys.initial_discrete();
        assert_eq!(d0.locations.len(), 2);
        assert_eq!(d0.vars, vec![0]);
        let s0 = sys.initial_symbolic().unwrap();
        assert!(s0.zone.contains_scaled(&[0, 0]));
        assert!(!s0.zone.contains_scaled(&[0, 2]));
        let root = sys.initial_exploration_state().unwrap();
        // Delay-closed: any delay allowed in (Idle, U0).
        assert!(root.zone.contains_scaled(&[0, 20]));
    }

    #[test]
    fn joint_edge_enumeration_and_controllability() {
        let sys = sample_system();
        let d0 = sys.initial_discrete();
        let edges = sys.enabled_joint_edges(&d0).unwrap();
        // Only the `go` synchronization is possible initially.
        assert_eq!(edges.len(), 1);
        let go_edge = &edges[0];
        assert!(matches!(go_edge, JointEdge::Sync { .. }));
        assert!(sys.is_controllable(go_edge));
        assert_eq!(go_edge.label(&sys), "go?");
        let action = go_edge.action(&sys).unwrap();
        assert!(action.is_input());

        // After `go`, the `done` synchronization is available and uncontrollable.
        let d1 = sys.apply_joint_discrete(&d0, go_edge).unwrap().unwrap();
        let edges1 = sys.enabled_joint_edges(&d1).unwrap();
        assert_eq!(edges1.len(), 1);
        assert!(!sys.is_controllable(&edges1[0]));
        assert_eq!(edges1[0].label(&sys), "done!");
    }

    #[test]
    fn successor_computation_applies_guard_reset_invariant() {
        let sys = sample_system();
        let root = sys.initial_exploration_state().unwrap();
        let edges = sys.enabled_joint_edges(&root.discrete).unwrap();
        let s1 = sys.joint_successor(&root, &edges[0]).unwrap().unwrap();
        // x was reset and the Work invariant x <= 5 applies.
        assert!(s1.zone.contains_scaled(&[0, 0]));
        assert!(!s1.zone.contains_scaled(&[0, 2])); // not delay-closed yet
        let mut s1d = s1.clone();
        sys.delay_close(&mut s1d, &sys.max_bounds()).unwrap();
        assert!(s1d.zone.contains_scaled(&[0, 10])); // x = 5 allowed
        assert!(!s1d.zone.contains_scaled(&[0, 11])); // x = 5.5 violates invariant

        // Taking `done` requires x >= 2 and increments the counter.
        let edges1 = sys.enabled_joint_edges(&s1d.discrete).unwrap();
        let s2 = sys.joint_successor(&s1d, &edges1[0]).unwrap().unwrap();
        assert_eq!(s2.discrete.vars, vec![1]);
        assert!(s2.zone.contains_scaled(&[0, 4]));
        assert!(!s2.zone.contains_scaled(&[0, 2])); // x = 1 < 2 cut by guard
    }

    #[test]
    fn blocked_update_disables_transition() {
        let sys = sample_system();
        // Drive the counter to its maximum, after which `done` is blocked.
        let mut d = sys.initial_discrete();
        d.vars[0] = 3;
        // Move to (Work, U1) discretely.
        let go = &sys.enabled_joint_edges(&d).unwrap()[0];
        let d1 = sys.apply_joint_discrete(&d, go).unwrap().unwrap();
        let done = &sys.enabled_joint_edges(&d1).unwrap()[0];
        assert!(sys.apply_joint_discrete(&d1, done).unwrap().is_none());
    }

    #[test]
    fn predecessor_inverts_successor() {
        let sys = sample_system();
        let root = sys.initial_exploration_state().unwrap();
        let go = &sys.enabled_joint_edges(&root.discrete).unwrap()[0];
        let s1 = sys.joint_successor(&root, go).unwrap().unwrap();
        // Predecessor of the full successor zone must contain the root zone
        // (every root valuation can take the edge and land in the successor).
        let mut succ_zone = s1.zone.clone();
        succ_zone.up();
        let inv = sys.invariant_zone(&s1.discrete).unwrap();
        succ_zone.intersect(&inv);
        let pred = sys.joint_pred_zone(&root.discrete, go, &succ_zone).unwrap();
        assert!(root.zone.is_subset_of(&pred));
    }

    #[test]
    fn discrete_state_display_names_everything() {
        let sys = sample_system();
        let d0 = sys.initial_discrete();
        let s = format!("{}", d0.display(&sys));
        assert!(s.contains("Plant.Idle"), "{s}");
        assert!(s.contains("User.U0"), "{s}");
        assert!(s.contains("count=0"), "{s}");
    }

    #[test]
    fn urgent_locations_block_delay() {
        let mut b = SystemBuilder::new("urgent");
        let x = b.clock("x").unwrap();
        let mut a = AutomatonBuilder::new("A");
        let l0 = a.location("L0").unwrap();
        a.set_urgent(l0);
        a.add_edge(EdgeBuilder::new(l0, l0).guard_clock(ClockConstraint::new(x, CmpOp::Ge, 0)));
        b.add_automaton(a.build().unwrap()).unwrap();
        let sys = b.build().unwrap();
        let root = sys.initial_exploration_state().unwrap();
        assert!(root.zone.contains_scaled(&[0, 0]));
        assert!(!root.zone.contains_scaled(&[0, 2]));
    }
}
