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

use crate::automaton::{ClockConstraint, Edge, Sync};
use crate::decl::ChannelKind;
use crate::error::ModelError;
use crate::ids::{AutomatonId, ChannelId, EdgeId};
use crate::symbolic::{DiscreteState, JointEdge};
use crate::system::System;

/// A concrete state: the discrete state plus clock values in ticks.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ConcreteState {
    /// Locations and variable values.
    pub discrete: DiscreteState,
    /// Clock values in ticks (one per declared clock).
    pub clocks: Vec<i64>,
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
/// use tiga_model::{AutomatonBuilder, ClockConstraint, CmpOp, EdgeBuilder, Interpreter, SystemBuilder};
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
/// let s0 = interp.initial_state()?;
/// let s1 = interp.after_input(&s0, press)?.expect("press accepted");
/// // Pressing again immediately is refused by the guard x >= 1.
/// assert!(interp.after_input(&s1, press)?.is_none());
/// let s2 = interp.delayed(&s1, 4)?.expect("delay allowed");
/// assert!(interp.after_input(&s2, press)?.is_some());
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
        for (i, aut) in self.system.automata().iter().enumerate() {
            let loc = aut.location(state.discrete.locations[i]);
            if !self.constraints_hold(state, &loc.invariant)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// `true` if every clock constraint holds at the current valuation.
    fn constraints_hold(
        &self,
        state: &ConcreteState,
        constraints: &[ClockConstraint],
    ) -> Result<bool, ModelError> {
        let (vars, store) = (self.system.vars(), &state.discrete.vars);
        for c in constraints {
            if !c.holds_concrete(&state.clocks, self.scale, vars, store)? {
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
        for (i, aut) in self.system.automata().iter().enumerate() {
            let loc = aut.location(state.discrete.locations[i]);
            for c in &loc.invariant {
                // Diagonal constraints are delay-invariant.
                if c.minus.is_some() {
                    continue;
                }
                let m = c.bound.eval(self.system.vars(), &state.discrete.vars)? * self.scale;
                let v = state.clocks[c.left.index()];
                match c.op {
                    crate::expr::CmpOp::Le | crate::expr::CmpOp::Eq => tighten(m - v),
                    crate::expr::CmpOp::Lt => tighten(m - v - 1),
                    _ => {}
                }
            }
        }
        Ok(max)
    }

    /// Returns the state after letting `ticks` time pass, or `None` if an
    /// invariant is violated on the way.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors; negative delays are a model error.
    pub fn delayed(
        &self,
        state: &ConcreteState,
        ticks: i64,
    ) -> Result<Option<ConcreteState>, ModelError> {
        if ticks < 0 {
            return Err(ModelError::Invalid("negative delay".to_string()));
        }
        if ticks > 0 && self.system.is_urgent(&state.discrete) {
            return Ok(None);
        }
        let mut next = state.clone();
        for c in &mut next.clocks {
            *c += ticks;
        }
        // Invariants are convex, so holding at the end point implies holding
        // throughout the delay (they hold at the start by assumption).
        if self.invariants_hold(&next)? {
            Ok(Some(next))
        } else {
            Ok(None)
        }
    }

    fn edge_enabled(
        &self,
        state: &ConcreteState,
        aut_idx: usize,
        edge_id: EdgeId,
    ) -> Result<bool, ModelError> {
        let edge = self.system.automata()[aut_idx].edge(edge_id);
        Ok(edge.source == state.discrete.locations[aut_idx]
            && edge
                .guard
                .data_holds(self.system.vars(), &state.discrete.vars)?
            && self.constraints_hold(state, &edge.guard.clocks)?)
    }

    /// Takes the edges `components` together from `state`: per edge, its
    /// clock resets (evaluated in the source store), then its discrete
    /// effect.  `None` if an update leaves its range or the target violates
    /// an invariant.
    fn step<'e>(
        &self,
        state: &ConcreteState,
        components: impl Iterator<Item = (usize, &'e Edge)>,
    ) -> Result<Option<ConcreteState>, ModelError> {
        let mut next = state.clone();
        for (aut_idx, edge) in components {
            for r in &edge.resets {
                next.clocks[r.clock.index()] =
                    self.system.reset_value(r, &state.discrete.vars)? * self.scale;
            }
            if !self
                .system
                .apply_edge_discrete(&mut next.discrete, aut_idx, edge)?
            {
                return Ok(None);
            }
        }
        if self.invariants_hold(&next)? {
            Ok(Some(next))
        } else {
            Ok(None)
        }
    }

    /// Takes one (open-view) edge, without checking its guard.
    fn step_edge(
        &self,
        state: &ConcreteState,
        edge: EdgeRef,
    ) -> Result<Option<ConcreteState>, ModelError> {
        let aut_idx = edge.automaton.index();
        let edge = self.system.automata()[aut_idx].edge(edge.edge);
        self.step(state, std::iter::once((aut_idx, edge)))
    }

    /// Enumerates the edges of the *open* view enabled for a given sync label
    /// predicate.
    fn enabled_matching(
        &self,
        state: &ConcreteState,
        mut pred: impl FnMut(&Sync) -> bool,
    ) -> Result<Vec<EdgeRef>, ModelError> {
        let mut out = Vec::new();
        for (ai, aut) in self.system.automata().iter().enumerate() {
            for ei in aut.edges_from(state.discrete.locations[ai]) {
                if pred(&aut.edge(ei).sync) && self.edge_enabled(state, ai, ei)? {
                    out.push(EdgeRef {
                        automaton: AutomatonId::from_index(ai),
                        edge: ei,
                    });
                }
            }
        }
        Ok(out)
    }

    /// Fires a single (open-view) edge.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn fire_edge(
        &self,
        state: &ConcreteState,
        edge: EdgeRef,
    ) -> Result<Option<ConcreteState>, ModelError> {
        if !self.edge_enabled(state, edge.automaton.index(), edge.edge)? {
            return Ok(None);
        }
        self.step_edge(state, edge)
    }

    /// Open view: the state after the plant receives input `channel?`, or
    /// `None` if no such edge is enabled (the input is refused).
    ///
    /// If several edges are enabled the first declared one is taken.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn after_input(
        &self,
        state: &ConcreteState,
        channel: ChannelId,
    ) -> Result<Option<ConcreteState>, ModelError> {
        match self.edges_for_input(state, channel)?.first() {
            None => Ok(None),
            Some(&e) => self.step_edge(state, e),
        }
    }

    /// Open view: the state after the plant emits output `channel!`, or `None`
    /// if the model cannot produce that output now.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn after_output(
        &self,
        state: &ConcreteState,
        channel: ChannelId,
    ) -> Result<Option<ConcreteState>, ModelError> {
        match self.edges_for_output(state, channel)?.first() {
            None => Ok(None),
            Some(&e) => self.step_edge(state, e),
        }
    }

    /// Fires the first enabled internal (`tau`) edge, in (automaton, edge)
    /// declaration order, or returns `None` when no internal move is
    /// possible.
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
        state: &ConcreteState,
    ) -> Result<Option<ConcreteState>, ModelError> {
        for e in self.enabled_matching(state, |s| *s == Sync::Tau)? {
            if let Some(next) = self.fire_edge(state, e)? {
                return Ok(Some(next));
            }
        }
        Ok(None)
    }

    /// Open view: enabled edges receiving `channel?`.
    fn edges_for_input(
        &self,
        state: &ConcreteState,
        channel: ChannelId,
    ) -> Result<Vec<EdgeRef>, ModelError> {
        self.enabled_matching(state, |s| *s == Sync::Input(channel))
    }

    /// Open view: enabled edges emitting `channel!`.
    fn edges_for_output(
        &self,
        state: &ConcreteState,
        channel: ChannelId,
    ) -> Result<Vec<EdgeRef>, ModelError> {
        self.enabled_matching(state, |s| *s == Sync::Output(channel))
    }

    /// Open view: the set of output channels the plant could emit right now.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn enabled_outputs(&self, state: &ConcreteState) -> Result<Vec<ChannelId>, ModelError> {
        let mut out = Vec::new();
        for (idx, ch) in self.system.channels().iter().enumerate() {
            if ch.kind() == ChannelKind::Output {
                let id = ChannelId::from_index(idx);
                if !self.edges_for_output(state, id)?.is_empty() {
                    out.push(id);
                }
            }
        }
        Ok(out)
    }

    /// `true` if the clock guards of every edge `je` moves hold at the
    /// current valuation (its data guards were checked by
    /// [`System::enabled_joint_edges`]).
    fn joint_guards_hold(&self, state: &ConcreteState, je: &JointEdge) -> Result<bool, ModelError> {
        for (_, edge) in self.system.joint_components(je) {
            if !self.constraints_hold(state, &edge.guard.clocks)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Closed view: fires a binary synchronization on `channel` — the first
    /// pair of [`System::enabled_joint_edges`] on `channel` whose clock
    /// guards hold and whose step applies (no update leaves its range, the
    /// target invariants hold).  Pairs come in emitter-major declaration
    /// order, so among several receivers the first declared one fires.
    ///
    /// Returns `None` if no such pair is enabled.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn fire_sync(
        &self,
        state: &ConcreteState,
        channel: ChannelId,
    ) -> Result<Option<ConcreteState>, ModelError> {
        for je in self.system.enabled_joint_edges(&state.discrete)? {
            if !matches!(je, JointEdge::Sync { channel: c, .. } if c == channel)
                || !self.joint_guards_hold(state, &je)?
            {
                continue;
            }
            if let Some(next) = self.step(state, self.system.joint_components(&je))? {
                return Ok(Some(next));
            }
        }
        Ok(None)
    }

    /// Closed view: the channels, in index order, of the synchronizations
    /// of [`System::enabled_joint_edges`] whose clock guards hold now.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn enabled_syncs(&self, state: &ConcreteState) -> Result<Vec<ChannelId>, ModelError> {
        let mut out = Vec::new();
        for je in self.system.enabled_joint_edges(&state.discrete)? {
            if let JointEdge::Sync { channel, .. } = je {
                if !out.contains(&channel) && self.joint_guards_hold(state, &je)? {
                    out.push(channel);
                }
            }
        }
        out.sort_unstable();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn initial_state_and_delay_bounds() {
        let sys = responder();
        let interp = Interpreter::new(&sys, 4).unwrap();
        let s0 = interp.initial_state().unwrap();
        assert_eq!(s0.clocks, vec![0]);
        // Idle has no invariant: unbounded delay.
        assert_eq!(interp.max_delay(&s0).unwrap(), None);
        let req = sys.channel_by_name("req").unwrap();
        let s1 = interp.after_input(&s0, req).unwrap().unwrap();
        // Busy invariant x <= 3 at scale 4: at most 12 ticks.
        assert_eq!(interp.max_delay(&s1).unwrap(), Some(12));
        assert!(interp.delayed(&s1, 12).unwrap().is_some());
        assert!(interp.delayed(&s1, 13).unwrap().is_none());
    }

    #[test]
    fn outputs_respect_guards_and_update_variables() {
        let sys = responder();
        let interp = Interpreter::new(&sys, 4).unwrap();
        let req = sys.channel_by_name("req").unwrap();
        let resp = sys.channel_by_name("resp").unwrap();
        let s0 = interp.initial_state().unwrap();
        let s1 = interp.after_input(&s0, req).unwrap().unwrap();
        // Output not yet enabled (guard x >= 1).
        assert!(interp.enabled_outputs(&s1).unwrap().is_empty());
        assert!(interp.after_output(&s1, resp).unwrap().is_none());
        let s2 = interp.delayed(&s1, 4).unwrap().unwrap();
        assert_eq!(interp.enabled_outputs(&s2).unwrap(), vec![resp]);
        let s3 = interp.after_output(&s2, resp).unwrap().unwrap();
        assert_eq!(s3.discrete.vars, vec![1]);
        // Input refused while busy.
        assert!(interp.after_input(&s2, req).unwrap().is_none());
        assert_eq!(interp.edges_for_input(&s3, req).unwrap().len(), 1);
    }

    #[test]
    fn negative_delay_and_zero_scale_rejected() {
        let sys = responder();
        assert!(Interpreter::new(&sys, 0).is_err());
        let interp = Interpreter::new(&sys, 2).unwrap();
        let s0 = interp.initial_state().unwrap();
        assert!(interp.delayed(&s0, -1).is_err());
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
        let s1 = interp.fire_sync(&s0, req).unwrap().unwrap();
        assert_eq!(interp.enabled_syncs(&s1).unwrap(), vec![resp]);
        assert!(interp.fire_sync(&s1, req).unwrap().is_none());
        let s2 = interp.fire_sync(&s1, resp).unwrap().unwrap();
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
        let fired = interp.fire_sync(&s0, go).unwrap().unwrap();
        assert_eq!(moved(&fired), vec![0, 3], "Late and Full are skipped");
        // Once x >= 2, the first declared receiver's pair applies.
        let later = interp.delayed(&s0, 4).unwrap().unwrap();
        let fired = interp.fire_sync(&later, go).unwrap().unwrap();
        assert_eq!(moved(&fired), vec![0, 1]);
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
        assert!(interp.delayed(&s0, 1).unwrap().is_none());
        assert!(interp.delayed(&s0, 0).unwrap().is_some());
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
        assert!(interp.after_output(&s0, resp).unwrap().is_none());
    }
}
