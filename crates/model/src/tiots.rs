//! Concrete (dense-time, fixed-point tick) semantics of a system — the
//! Timed I/O Transition System (TIOTS) underlying a TIOGA.
//!
//! Time is represented as integer *ticks* with a configurable number of ticks
//! per model time unit, which keeps all guard and invariant comparisons exact.
//! The interpreter is a thin concrete layer over the symbolic one: a
//! [`ConcreteState`] is a [`DiscreteState`] plus clock values, and every
//! discrete step moves the locations and variables through the same edge
//! effect as [`System::apply_joint_discrete`].  Two views are provided:
//!
//! * the **open** view treats input/output channels as observable actions of
//!   the system seen as a plant (used by the conformance monitor and by the
//!   simulated implementations under test), and
//! * the **closed** view is the symbolic layer's joint edges
//!   ([`System::enabled_joint_edges`]) evaluated at a point: the binary
//!   synchronizations whose data guards hold in the discrete state and whose
//!   clock guards hold at the current valuation (used by the test-execution
//!   engine to track the state of the plant∥environment game product).
//!   The joint edges are walked on the compiled network, never collected:
//!   [`Interpreter::fire_sync`] visits only the pairs on its channel.
//!
//! Both views read the system's compiled network: the per-location edge
//! lists, the data-guard atoms and the constant clock bounds, resets and
//! invariants, with the expression evaluator as the fallback for the rest.
//!
//! # Stepping in place
//!
//! The tester advances its states once per wait and once per discrete
//! step, so every step works on a `&mut ConcreteState` and returns whether
//! it was taken:
//!
//! * [`Interpreter::delay`] adds the delay to the clocks and checks the
//!   invariants at the end point; it allocates nothing.
//! * The discrete steps ([`Interpreter::fire_sync`],
//!   [`Interpreter::fire_joint`], [`Interpreter::fire_edge`],
//!   [`Interpreter::after_input`], [`Interpreter::after_output`] and
//!   [`Interpreter::fire_first_internal`]) build the successor in a
//!   *scratch* state owned by the caller — overwritten with
//!   [`Clone::clone_from`], which reuses its buffers — and swap it in only
//!   when the step applies.  After a swap the scratch holds the
//!   predecessor; its contents are never read, so one scratch per tracked
//!   state serves the whole run.
//!
//! A step or delay that is refused (`Ok(false)`) or fails with an error
//! leaves the state exactly as it was.

use crate::automaton::Sync;
use crate::decl::ChannelKind;
use crate::error::ModelError;
use crate::ids::{AutomatonId, ChannelId, EdgeId};
use crate::network::{CompiledConstraint, CompiledEdge};
use crate::symbolic::{DiscreteState, JointEdge};
use crate::system::System;

/// A concrete state: the discrete state plus clock values in ticks.
#[derive(Debug, Default, PartialEq, Eq, Hash)]
pub struct ConcreteState {
    /// Locations and variable values.
    pub discrete: DiscreteState,
    /// Clock values in ticks (one per declared clock).
    pub clocks: Vec<i64>,
}

impl Clone for ConcreteState {
    fn clone(&self) -> Self {
        ConcreteState {
            discrete: self.discrete.clone(),
            clocks: self.clocks.clone(),
        }
    }

    /// Overwrites `self` with `source`, reusing `self`'s buffers (the
    /// scratch states of the in-place steps rely on this).
    fn clone_from(&mut self, source: &Self) {
        self.discrete.clone_from(&source.discrete);
        self.clocks.clone_from(&source.clocks);
    }
}

/// A single-automaton edge reference, used when firing open transitions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EdgeRef {
    /// Automaton owning the edge.
    pub automaton: AutomatonId,
    /// Edge within the automaton.
    pub edge: EdgeId,
}

/// The concrete-semantics interpreter for a system.
///
/// # Examples
///
/// ```
/// use tiga_model::{
///     AutomatonBuilder, ClockConstraint, CmpOp, ConcreteState, EdgeBuilder, Interpreter,
///     SystemBuilder,
/// };
///
/// # fn main() -> Result<(), tiga_model::ModelError> {
/// let mut b = SystemBuilder::new("lamp");
/// let x = b.clock("x")?;
/// let press = b.input_channel("press")?;
/// let mut lamp = AutomatonBuilder::new("Lamp");
/// let off = lamp.location("Off")?;
/// let on = lamp.location("On")?;
/// lamp.add_edge(EdgeBuilder::new(off, on).input(press).reset(x));
/// lamp.add_edge(
///     EdgeBuilder::new(on, off)
///         .input(press)
///         .guard_clock(ClockConstraint::new(x, CmpOp::Ge, 1)),
/// );
/// b.add_automaton(lamp.build()?)?;
/// let system = b.build()?;
///
/// let interp = Interpreter::new(&system, 4)?; // 4 ticks per time unit
/// let mut state = interp.initial_state()?;
/// let mut scratch = ConcreteState::default();
/// assert!(interp.after_input(&mut state, press, &mut scratch)?, "press accepted");
/// // Pressing again immediately is refused by the guard x >= 1, and the
/// // refused step leaves the state as it was.
/// let on_now = state.clone();
/// assert!(!interp.after_input(&mut state, press, &mut scratch)?);
/// assert_eq!(state, on_now);
/// assert!(interp.delay(&mut state, 4)?, "delay allowed");
/// assert!(interp.after_input(&mut state, press, &mut scratch)?);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Interpreter<'a> {
    system: &'a System,
    scale: i64,
}

impl<'a> Interpreter<'a> {
    /// Creates an interpreter with `scale` ticks per model time unit.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Invalid`] if `scale` is not positive.
    pub fn new(system: &'a System, scale: i64) -> Result<Self, ModelError> {
        if scale <= 0 {
            return Err(ModelError::Invalid(format!(
                "tick scale must be positive, got {scale}"
            )));
        }
        Ok(Interpreter { system, scale })
    }

    /// The interpreted system.
    #[must_use]
    pub fn system(&self) -> &'a System {
        self.system
    }

    /// Ticks per model time unit.
    #[must_use]
    pub fn scale(&self) -> i64 {
        self.scale
    }

    /// The initial concrete state (all clocks zero).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Invalid`] if the initial state violates an
    /// invariant, or propagates evaluation errors.
    pub fn initial_state(&self) -> Result<ConcreteState, ModelError> {
        let state = ConcreteState {
            discrete: self.system.initial_discrete(),
            clocks: vec![0; self.system.clocks().len()],
        };
        if !self.invariants_hold(&state)? {
            return Err(ModelError::Invalid(
                "initial state violates an invariant".to_string(),
            ));
        }
        Ok(state)
    }

    /// Checks every location invariant in the state.
    fn invariants_hold(&self, state: &ConcreteState) -> Result<bool, ModelError> {
        let net = self.system.network();
        for (a, aut) in self.system.automata().iter().enumerate() {
            let l = state.discrete.locations[a];
            // Most locations have no invariant; the automaton says so
            // without a lookup in the network.
            if !aut.location(l).invariant.is_empty()
                && !self.constraints_hold(state, net.invariant(a, l))?
            {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// `true` if every clock constraint holds at the current valuation.
    #[inline]
    fn constraints_hold(
        &self,
        state: &ConcreteState,
        constraints: &[CompiledConstraint],
    ) -> Result<bool, ModelError> {
        let (vars, store) = (self.system.vars(), &state.discrete.vars);
        for c in constraints {
            if !self
                .system
                .network()
                .holds_concrete(c, &state.clocks, self.scale, vars, store)?
            {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Maximum delay (in ticks) permitted by the invariants, or `None` if
    /// unbounded.  Urgent locations yield `Some(0)`.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors from invariant bounds.
    pub fn max_delay(&self, state: &ConcreteState) -> Result<Option<i64>, ModelError> {
        if self.system.is_urgent(&state.discrete) {
            return Ok(Some(0));
        }
        let mut max: Option<i64> = None;
        let mut tighten = |candidate: i64| {
            let candidate = candidate.max(0);
            max = Some(match max {
                None => candidate,
                Some(m) => m.min(candidate),
            });
        };
        let net = self.system.network();
        for (a, aut) in self.system.automata().iter().enumerate() {
            let l = state.discrete.locations[a];
            if aut.location(l).invariant.is_empty() {
                continue;
            }
            for c in net.invariant(a, l) {
                // Diagonal constraints are delay-invariant.
                if c.is_diagonal() {
                    continue;
                }
                let m = net.bound(c, self.system.vars(), &state.discrete.vars)? * self.scale;
                let v = state.clocks[c.left().index()];
                match c.op() {
                    crate::expr::CmpOp::Le | crate::expr::CmpOp::Eq => tighten(m - v),
                    crate::expr::CmpOp::Lt => tighten(m - v - 1),
                    _ => {}
                }
            }
        }
        Ok(max)
    }

    /// Lets `ticks` time pass in place.  Returns `false`, with `state`
    /// unchanged, if an invariant would be violated on the way.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors; negative delays are a model error.
    pub fn delay(&self, state: &mut ConcreteState, ticks: i64) -> Result<bool, ModelError> {
        if ticks < 0 {
            return Err(ModelError::Invalid("negative delay".to_string()));
        }
        if ticks > 0 && self.system.is_urgent(&state.discrete) {
            return Ok(false);
        }
        for c in &mut state.clocks {
            *c += ticks;
        }
        // Invariants are convex, so holding at the end point implies holding
        // throughout the delay (they hold at the start by assumption).
        let allowed = self.invariants_hold(state);
        if !matches!(allowed, Ok(true)) {
            for c in &mut state.clocks {
                *c -= ticks;
            }
        }
        allowed
    }

    /// Whether `edge` is enabled now: its data guard holds in the store,
    /// then its clock guard at the valuation.
    fn guard_holds(&self, state: &ConcreteState, edge: &CompiledEdge) -> Result<bool, ModelError> {
        let net = self.system.network();
        Ok(
            net.data_holds(edge, self.system.vars(), &state.discrete.vars)?
                && self.constraints_hold(state, edge.guard())?,
        )
    }

    /// Builds the successor of taking the edges `components` together from
    /// `state` in `scratch`: per edge, its clock resets (evaluated in the
    /// source store), then its discrete effect.  `false` if an update
    /// leaves its range or the target violates an invariant; the caller
    /// swaps `scratch` in on `true`.
    fn build_step<'n>(
        &self,
        state: &ConcreteState,
        scratch: &mut ConcreteState,
        components: impl Iterator<Item = (usize, CompiledEdge<'n>)>,
    ) -> Result<bool, ModelError> {
        scratch.clone_from(state);
        for (aut_idx, edge) in components {
            let net = self.system.network();
            for r in edge.resets() {
                scratch.clocks[r.clock().index()] =
                    net.reset_value(r, self.system, &state.discrete.vars)? * self.scale;
            }
            if !self
                .system
                .apply_edge_discrete(&mut scratch.discrete, aut_idx, &edge)?
            {
                return Ok(false);
            }
        }
        self.invariants_hold(scratch)
    }

    /// Takes the edges `components` together from `state` in place, through
    /// [`Interpreter::build_step`]; `false`, with `state` unchanged, if the
    /// step does not apply.
    fn step<'n>(
        &self,
        state: &mut ConcreteState,
        scratch: &mut ConcreteState,
        components: impl Iterator<Item = (usize, CompiledEdge<'n>)>,
    ) -> Result<bool, ModelError> {
        if !self.build_step(state, scratch, components)? {
            return Ok(false);
        }
        std::mem::swap(state, scratch);
        Ok(true)
    }

    /// Open view: the first edge, in (automaton, edge) declaration order,
    /// labelled `sync` and enabled now.
    fn first_enabled(
        &self,
        state: &ConcreteState,
        sync: Sync,
    ) -> Result<Option<(usize, CompiledEdge<'a>)>, ModelError> {
        let net = self.system.network();
        for (a, aut) in self.system.automata().iter().enumerate() {
            for e in aut.edges_labelled(state.discrete.locations[a], sync) {
                let edge = net.edge(a, e);
                if self.guard_holds(state, &edge)? {
                    return Ok(Some((a, edge)));
                }
            }
        }
        Ok(None)
    }

    /// Open view: takes the first enabled edge labelled `sync`, if any.
    fn fire_first_enabled(
        &self,
        state: &mut ConcreteState,
        sync: Sync,
        scratch: &mut ConcreteState,
    ) -> Result<bool, ModelError> {
        match self.first_enabled(state, sync)? {
            None => Ok(false),
            Some(component) => self.step(state, scratch, std::iter::once(component)),
        }
    }

    /// Fires a single (open-view) edge in place, if it is enabled and its
    /// step applies.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn fire_edge(
        &self,
        state: &mut ConcreteState,
        edge: EdgeRef,
        scratch: &mut ConcreteState,
    ) -> Result<bool, ModelError> {
        let aut_idx = edge.automaton.index();
        let source = self.system.automata()[aut_idx].edge(edge.edge).source;
        let compiled = self.system.network().edge(aut_idx, edge.edge);
        if source != state.discrete.locations[aut_idx] || !self.guard_holds(state, &compiled)? {
            return Ok(false);
        }
        self.step(state, scratch, std::iter::once((aut_idx, compiled)))
    }

    /// Open view: the plant receives input `channel?` in place; `false` if
    /// no such edge is enabled (the input is refused).
    ///
    /// If several edges are enabled the first declared one is taken.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn after_input(
        &self,
        state: &mut ConcreteState,
        channel: ChannelId,
        scratch: &mut ConcreteState,
    ) -> Result<bool, ModelError> {
        self.fire_first_enabled(state, Sync::Input(channel), scratch)
    }

    /// Open view: the plant emits output `channel!` in place; `false` if the
    /// model cannot produce that output now.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn after_output(
        &self,
        state: &mut ConcreteState,
        channel: ChannelId,
        scratch: &mut ConcreteState,
    ) -> Result<bool, ModelError> {
        self.fire_first_enabled(state, Sync::Output(channel), scratch)
    }

    /// Fires the first enabled internal (`tau`) edge whose step applies, in
    /// (automaton, edge) declaration order; `false` when no internal move
    /// is possible.
    ///
    /// This is the deterministic *forced-progression* rule shared by the
    /// test executor, the conformance monitor and the simulated
    /// implementation: when time is blocked and no synchronization is due,
    /// all three advance through the same silent move, which keeps their
    /// tracked states in lockstep on a common model.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn fire_first_internal(
        &self,
        state: &mut ConcreteState,
        scratch: &mut ConcreteState,
    ) -> Result<bool, ModelError> {
        let net = self.system.network();
        for (a, aut) in self.system.automata().iter().enumerate() {
            for e in aut
                .tau_edges(state.discrete.locations[a])
                .iter()
                .map(|e| e.id())
            {
                let edge = net.edge(a, e);
                if self.guard_holds(state, &edge)?
                    && self.step(state, scratch, std::iter::once((a, edge)))?
                {
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    /// `true` if the clock guards of every edge `je` moves hold at the
    /// current valuation (its data guards were checked by
    /// [`System::enabled_joint_edges`]).
    fn joint_guards_hold(&self, state: &ConcreteState, je: &JointEdge) -> Result<bool, ModelError> {
        let net = self.system.network();
        for (_, edge) in net.components(je) {
            if !self.constraints_hold(state, edge.guard())? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Closed view: whether `je` applies from `state` — its clock guards
    /// hold now and its step applies — building the successor in `scratch`.
    fn joint_applies(
        &self,
        state: &ConcreteState,
        je: &JointEdge,
        scratch: &mut ConcreteState,
    ) -> Result<bool, ModelError> {
        Ok(self.joint_guards_hold(state, je)?
            && self.build_step(state, scratch, self.system.network().components(je))?)
    }

    /// Closed view: takes the joint edge `je` in place, if its clock guards
    /// hold now and its step applies (no update leaves its range, the
    /// target invariants hold).
    ///
    /// `je` must be one of [`System::enabled_joint_edges`] in `state`: its
    /// data guards are not checked again.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn fire_joint(
        &self,
        state: &mut ConcreteState,
        je: &JointEdge,
        scratch: &mut ConcreteState,
    ) -> Result<bool, ModelError> {
        if !self.joint_applies(state, je, scratch)? {
            return Ok(false);
        }
        std::mem::swap(state, scratch);
        Ok(true)
    }

    /// Closed view: fires a binary synchronization on `channel` in place —
    /// the first pair of [`System::enabled_joint_edges`] on `channel` that
    /// [`Interpreter::fire_joint`] takes.  Pairs come in emitter-major
    /// declaration order, so among several receivers the first declared one
    /// fires.
    ///
    /// Only the pairs on `channel` are visited, each tried as soon as its
    /// data guards hold: an evaluation error of an edge on another channel,
    /// or of a pair after the one that fires, does not surface here.
    ///
    /// Returns `false` if no such pair is enabled.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn fire_sync(
        &self,
        state: &mut ConcreteState,
        channel: ChannelId,
        scratch: &mut ConcreteState,
    ) -> Result<bool, ModelError> {
        let current: &ConcreteState = state;
        let fired = self
            .system
            .try_for_each_sync_on(&current.discrete, channel, |je| {
                self.joint_applies(current, &je, scratch)
            })?;
        if fired {
            std::mem::swap(state, scratch);
        }
        Ok(fired)
    }

    /// Closed view: the channels, in index order, of the synchronizations
    /// of [`System::enabled_joint_edges`] whose clock guards hold now.
    ///
    /// The joint edges are walked, not collected: a pair's clock guards are
    /// checked as soon as its data guards hold, so when both a clock bound
    /// and a later data guard fail to evaluate, the clock bound's error is
    /// the one returned.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn enabled_syncs(&self, state: &ConcreteState) -> Result<Vec<ChannelId>, ModelError> {
        let mut out = Vec::new();
        self.system.try_for_each_joint_edge(&state.discrete, |je| {
            if let JointEdge::Sync { channel, .. } = je {
                if !out.contains(&channel) && self.joint_guards_hold(state, &je)? {
                    out.push(channel);
                }
            }
            Ok(false)
        })?;
        out.sort_unstable();
        Ok(out)
    }

    /// Closed view: whether a synchronization on an output channel is
    /// enabled now — whether [`Interpreter::enabled_syncs`] lists an output
    /// channel — walking the joint edges only up to the first one.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors met before that synchronization.
    pub fn output_sync_enabled(&self, state: &ConcreteState) -> Result<bool, ModelError> {
        self.system.try_for_each_joint_edge(&state.discrete, |je| {
            Ok(match je {
                JointEdge::Sync { channel, .. } => {
                    self.system.channel(channel).kind() == ChannelKind::Output
                        && self.joint_guards_hold(state, &je)?
                }
                JointEdge::Internal { .. } => false,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::ClockConstraint;
    use crate::builder::{AutomatonBuilder, EdgeBuilder, SystemBuilder};
    use crate::expr::{CmpOp, Expr};

    /// Plant with a bounded response: after `req?` it must emit `resp!` within
    /// [1, 3] time units; a counter tracks the number of responses.
    fn responder() -> System {
        let mut b = SystemBuilder::new("responder");
        let x = b.clock("x").unwrap();
        let req = b.input_channel("req").unwrap();
        let resp = b.output_channel("resp").unwrap();
        let count = b.int_var("count", 0, 10, 0).unwrap();
        let mut a = AutomatonBuilder::new("Plant");
        let idle = a.location("Idle").unwrap();
        let busy = a.location("Busy").unwrap();
        a.set_invariant(busy, vec![ClockConstraint::new(x, CmpOp::Le, 3)]);
        a.add_edge(EdgeBuilder::new(idle, busy).input(req).reset(x));
        a.add_edge(
            EdgeBuilder::new(busy, idle)
                .output(resp)
                .guard_clock(ClockConstraint::new(x, CmpOp::Ge, 1))
                .set(count, Expr::var(count) + Expr::constant(1)),
        );
        b.add_automaton(a.build().unwrap()).unwrap();
        b.build().unwrap()
    }

    /// The state after a delay of `ticks`, or `None` if it is refused
    /// (which must leave the state untouched).
    fn delayed(
        interp: &Interpreter<'_>,
        state: &ConcreteState,
        ticks: i64,
    ) -> Option<ConcreteState> {
        let mut next = state.clone();
        if interp.delay(&mut next, ticks).unwrap() {
            Some(next)
        } else {
            assert_eq!(&next, state, "a refused delay changed the state");
            None
        }
    }

    /// The state after `step`, or `None` if it is refused (which must leave
    /// the state untouched).
    fn stepped(
        state: &ConcreteState,
        step: impl FnOnce(&mut ConcreteState, &mut ConcreteState) -> Result<bool, ModelError>,
    ) -> Option<ConcreteState> {
        let mut next = state.clone();
        if step(&mut next, &mut ConcreteState::default()).unwrap() {
            Some(next)
        } else {
            assert_eq!(&next, state, "a refused step changed the state");
            None
        }
    }

    #[test]
    fn initial_state_and_delay_bounds() {
        let sys = responder();
        let interp = Interpreter::new(&sys, 4).unwrap();
        let s0 = interp.initial_state().unwrap();
        assert_eq!(s0.clocks, vec![0]);
        // Idle has no invariant: unbounded delay.
        assert_eq!(interp.max_delay(&s0).unwrap(), None);
        let req = sys.channel_by_name("req").unwrap();
        let s1 = stepped(&s0, |s, t| interp.after_input(s, req, t)).unwrap();
        // Busy invariant x <= 3 at scale 4: at most 12 ticks.
        assert_eq!(interp.max_delay(&s1).unwrap(), Some(12));
        assert_eq!(delayed(&interp, &s1, 12).unwrap().clocks, vec![12]);
        assert!(delayed(&interp, &s1, 13).is_none());
    }

    #[test]
    fn outputs_respect_guards_and_update_variables() {
        let sys = responder();
        let interp = Interpreter::new(&sys, 4).unwrap();
        let req = sys.channel_by_name("req").unwrap();
        let resp = sys.channel_by_name("resp").unwrap();
        let s0 = interp.initial_state().unwrap();
        let s1 = stepped(&s0, |s, t| interp.after_input(s, req, t)).unwrap();
        // Output not yet enabled (guard x >= 1).
        assert!(stepped(&s1, |s, t| interp.after_output(s, resp, t)).is_none());
        let s2 = delayed(&interp, &s1, 4).unwrap();
        let s3 = stepped(&s2, |s, t| interp.after_output(s, resp, t)).unwrap();
        assert_eq!(s3.discrete.vars, vec![1]);
        // Input refused while busy, accepted again once idle.
        assert!(stepped(&s2, |s, t| interp.after_input(s, req, t)).is_none());
        let s4 = stepped(&s3, |s, t| interp.after_input(s, req, t)).unwrap();
        assert_eq!(s4.clocks, vec![0]);
    }

    #[test]
    fn a_scratch_state_serves_many_steps() {
        // One scratch, reused across steps of different shapes, never leaks
        // into the tracked state.
        let sys = responder();
        let interp = Interpreter::new(&sys, 4).unwrap();
        let req = sys.channel_by_name("req").unwrap();
        let resp = sys.channel_by_name("resp").unwrap();
        let mut state = interp.initial_state().unwrap();
        let mut scratch = ConcreteState::default();
        for round in 1..=3 {
            assert!(interp.after_input(&mut state, req, &mut scratch).unwrap());
            assert!(!interp.after_input(&mut state, req, &mut scratch).unwrap());
            assert!(interp.delay(&mut state, 5).unwrap());
            assert!(interp.after_output(&mut state, resp, &mut scratch).unwrap());
            assert_eq!(state.discrete.vars, vec![round]);
            assert_eq!(state.clocks, vec![5]);
        }
    }

    #[test]
    fn resets_read_the_source_store() {
        // The sender increments `n` and the receiver resets `y := n`: the
        // reset reads `n` before the synchronization, not the successor
        // being built.
        let mut b = SystemBuilder::new("source");
        let y = b.clock("y").unwrap();
        let go = b.output_channel("go").unwrap();
        let n = b.int_var("n", 0, 5, 1).unwrap();
        let mut sender = AutomatonBuilder::new("Sender");
        let s0 = sender.location("S0").unwrap();
        sender.add_edge(
            EdgeBuilder::new(s0, s0)
                .output(go)
                .set(n, Expr::var(n) + Expr::constant(1)),
        );
        b.add_automaton(sender.build().unwrap()).unwrap();
        let mut receiver = AutomatonBuilder::new("Receiver");
        let r0 = receiver.location("R0").unwrap();
        receiver.add_edge(EdgeBuilder::new(r0, r0).input(go).reset_to(y, Expr::var(n)));
        b.add_automaton(receiver.build().unwrap()).unwrap();
        let sys = b.build().unwrap();

        let interp = Interpreter::new(&sys, 2).unwrap();
        let s0 = interp.initial_state().unwrap();
        let s1 = stepped(&s0, |s, t| interp.fire_sync(s, go, t)).unwrap();
        assert_eq!(
            (s1.discrete.vars.clone(), s1.clocks.clone()),
            (vec![2], vec![2])
        );
        let s2 = stepped(&s1, |s, t| interp.fire_sync(s, go, t)).unwrap();
        assert_eq!((s2.discrete.vars, s2.clocks), (vec![3], vec![4]));
    }

    #[test]
    fn negative_delay_and_zero_scale_rejected() {
        let sys = responder();
        assert!(Interpreter::new(&sys, 0).is_err());
        let interp = Interpreter::new(&sys, 2).unwrap();
        let mut s0 = interp.initial_state().unwrap();
        assert!(interp.delay(&mut s0, -1).is_err());
        assert_eq!(s0.clocks, vec![0]);
    }

    #[test]
    fn closed_view_synchronizes_two_automata() {
        // Plant and a user that immediately requests and waits for responses.
        let mut b = SystemBuilder::new("closed");
        let x = b.clock("x").unwrap();
        let req = b.input_channel("req").unwrap();
        let resp = b.output_channel("resp").unwrap();
        let mut plant = AutomatonBuilder::new("Plant");
        let idle = plant.location("Idle").unwrap();
        let busy = plant.location("Busy").unwrap();
        plant.set_invariant(busy, vec![ClockConstraint::new(x, CmpOp::Le, 2)]);
        plant.add_edge(EdgeBuilder::new(idle, busy).input(req).reset(x));
        plant.add_edge(EdgeBuilder::new(busy, idle).output(resp));
        b.add_automaton(plant.build().unwrap()).unwrap();
        let mut user = AutomatonBuilder::new("User");
        let u0 = user.location("U0").unwrap();
        let u1 = user.location("U1").unwrap();
        user.add_edge(EdgeBuilder::new(u0, u1).output(req));
        user.add_edge(EdgeBuilder::new(u1, u0).input(resp));
        b.add_automaton(user.build().unwrap()).unwrap();
        let sys = b.build().unwrap();

        let interp = Interpreter::new(&sys, 2).unwrap();
        let s0 = interp.initial_state().unwrap();
        assert_eq!(interp.enabled_syncs(&s0).unwrap(), vec![req]);
        assert!(!interp.output_sync_enabled(&s0).unwrap());
        let s1 = stepped(&s0, |s, t| interp.fire_sync(s, req, t)).unwrap();
        assert_eq!(interp.enabled_syncs(&s1).unwrap(), vec![resp]);
        assert!(interp.output_sync_enabled(&s1).unwrap());
        assert!(stepped(&s1, |s, t| interp.fire_sync(s, req, t)).is_none());
        let s2 = stepped(&s1, |s, t| interp.fire_sync(s, resp, t)).unwrap();
        assert_eq!(s2.discrete.locations, s0.discrete.locations);
    }

    #[test]
    fn closed_view_fires_the_first_receiver_that_applies() {
        // One sender and four receivers of `go`, declared in this order:
        // Late needs x >= 2, Full's update overflows `full`, and First and
        // Second are both enabled.
        let mut b = SystemBuilder::new("receivers");
        let x = b.clock("x").unwrap();
        let go = b.output_channel("go").unwrap();
        let full = b.int_var("full", 0, 0, 0).unwrap();
        let mut sender = AutomatonBuilder::new("Sender");
        let s0 = sender.location("S0").unwrap();
        let s1 = sender.location("S1").unwrap();
        sender.add_edge(EdgeBuilder::new(s0, s1).output(go));
        b.add_automaton(sender.build().unwrap()).unwrap();
        let receiver = |name: &str, edge: &dyn Fn(EdgeBuilder) -> EdgeBuilder| {
            let mut a = AutomatonBuilder::new(name);
            let r0 = a.location("R0").unwrap();
            let r1 = a.location("R1").unwrap();
            a.add_edge(edge(EdgeBuilder::new(r0, r1).input(go)));
            a.build().unwrap()
        };
        let late = |e: EdgeBuilder| e.guard_clock(ClockConstraint::new(x, CmpOp::Ge, 2));
        b.add_automaton(receiver("Late", &late)).unwrap();
        let overflow = |e: EdgeBuilder| e.set(full, Expr::var(full) + Expr::constant(1));
        b.add_automaton(receiver("Full", &overflow)).unwrap();
        b.add_automaton(receiver("First", &|e| e)).unwrap();
        b.add_automaton(receiver("Second", &|e| e)).unwrap();
        let sys = b.build().unwrap();
        let moved = |state: &ConcreteState| -> Vec<usize> {
            (0..5)
                .filter(|&i| state.discrete.locations[i].index() == 1)
                .collect()
        };

        let interp = Interpreter::new(&sys, 2).unwrap();
        let s0 = interp.initial_state().unwrap();
        assert_eq!(interp.enabled_syncs(&s0).unwrap(), vec![go]);
        let fired = stepped(&s0, |s, t| interp.fire_sync(s, go, t)).unwrap();
        assert_eq!(moved(&fired), vec![0, 3], "Late and Full are skipped");
        // Once x >= 2, the first declared receiver's pair applies.
        let later = delayed(&interp, &s0, 4).unwrap();
        let fired = stepped(&later, |s, t| interp.fire_sync(s, go, t)).unwrap();
        assert_eq!(moved(&fired), vec![0, 1]);
    }

    #[test]
    fn fire_sync_evaluates_only_the_guards_on_its_channel() {
        // A `tau` edge whose data guard indexes `a[n]` out of range, beside
        // a `go` synchronization.  Every full walk of the joint edges
        // raises the index error; firing `go` visits only the pairs on
        // `go`, so it does not.
        let mut b = SystemBuilder::new("errors");
        let go = b.output_channel("go").unwrap();
        let n = b.int_var("n", 0, 5, 5).unwrap();
        let a = b.int_array("a", 2, 0, 1, 0).unwrap();
        let mut sender = AutomatonBuilder::new("Sender");
        let s0 = sender.location("S0").unwrap();
        sender.add_edge(EdgeBuilder::new(s0, s0).output(go));
        sender.add_edge(
            EdgeBuilder::new(s0, s0).when(Expr::index(a, Expr::var(n)).eq(Expr::constant(0))),
        );
        b.add_automaton(sender.build().unwrap()).unwrap();
        let mut receiver = AutomatonBuilder::new("Receiver");
        let r0 = receiver.location("R0").unwrap();
        let r1 = receiver.location("R1").unwrap();
        receiver.add_edge(EdgeBuilder::new(r0, r1).input(go));
        b.add_automaton(receiver.build().unwrap()).unwrap();
        let sys = b.build().unwrap();

        let out_of_range = ModelError::Eval(crate::error::EvalError::IndexOutOfBounds {
            name: "a".to_string(),
            index: 5,
            size: 2,
        });
        let interp = Interpreter::new(&sys, 2).unwrap();
        let s0 = interp.initial_state().unwrap();
        assert_eq!(
            sys.enabled_joint_edges(&s0.discrete),
            Err(out_of_range.clone())
        );
        assert_eq!(interp.enabled_syncs(&s0), Err(out_of_range));
        let fired = stepped(&s0, |s, t| interp.fire_sync(s, go, t)).unwrap();
        assert_eq!(fired.discrete.locations[1], r1);
    }

    #[test]
    fn urgent_location_blocks_time() {
        let mut b = SystemBuilder::new("urgent");
        let _x = b.clock("x").unwrap();
        let mut a = AutomatonBuilder::new("A");
        let l0 = a.location("L0").unwrap();
        a.set_urgent(l0);
        b.add_automaton(a.build().unwrap()).unwrap();
        let sys = b.build().unwrap();
        let interp = Interpreter::new(&sys, 2).unwrap();
        let s0 = interp.initial_state().unwrap();
        assert_eq!(interp.max_delay(&s0).unwrap(), Some(0));
        assert!(delayed(&interp, &s0, 1).is_none());
        assert_eq!(delayed(&interp, &s0, 0), Some(s0));
    }

    #[test]
    fn blocked_update_yields_none() {
        // Counter bounded at 0: the resp update immediately overflows.
        let mut b = SystemBuilder::new("overflow");
        let x = b.clock("x").unwrap();
        let resp = b.output_channel("resp").unwrap();
        let count = b.int_var("count", 0, 0, 0).unwrap();
        let mut a = AutomatonBuilder::new("A");
        let l0 = a.location("L0").unwrap();
        a.add_edge(
            EdgeBuilder::new(l0, l0)
                .output(resp)
                .guard_clock(ClockConstraint::new(x, CmpOp::Ge, 0))
                .set(count, Expr::var(count) + Expr::constant(1)),
        );
        b.add_automaton(a.build().unwrap()).unwrap();
        let sys = b.build().unwrap();
        let interp = Interpreter::new(&sys, 2).unwrap();
        let s0 = interp.initial_state().unwrap();
        assert!(stepped(&s0, |s, t| interp.after_output(s, resp, t)).is_none());
    }
}
