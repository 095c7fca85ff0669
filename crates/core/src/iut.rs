//! Black-box implementations under test (IUTs).
//!
//! The test-execution engine only sees the [`Iut`] trait: it can offer inputs
//! and let (virtual) time pass, observing outputs.  Two implementations are
//! provided:
//!
//! * [`SimulatedIut`] interprets a (possibly mutated) plant model with a
//!   deterministic output-scheduling policy — this realizes the paper's test
//!   hypothesis (the implementation is a deterministic, input-enabled,
//!   output-urgent TIOTS) while letting benchmarks inject faults;
//! * [`ScriptedIut`] replays a fixed timetable of outputs, used by unit tests
//!   of the executor.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use tiga_model::{
    AutomatonId, ChannelId, ChannelKind, CmpOp, ConcreteState, EdgeId, EdgeRef, Interpreter,
    JointEdge, Sync, System,
};

/// Result of letting time pass on an implementation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DelayOutcome {
    /// No output occurred within the granted delay.
    Quiet,
    /// The implementation produced `channel!` after `after` ticks
    /// (`0 <= after <= granted delay`).
    Output {
        /// Ticks elapsed before the output.
        after: i64,
        /// Output channel name.
        channel: String,
    },
}

/// A black-box implementation under test.
///
/// All times are in ticks; the tester and the implementation must agree on
/// the tick scale (ticks per model time unit).
pub trait Iut {
    /// Resets the implementation to its initial state.
    fn reset(&mut self);

    /// Offers an input to the implementation (identified by channel name).
    ///
    /// Implementations are assumed input-enabled; inputs that a faulty
    /// implementation cannot process are silently ignored.
    fn offer_input(&mut self, channel: &str);

    /// Lets up to `max_ticks` of time pass and reports the first output
    /// produced in that window, if any.
    ///
    /// Outputs do not depend on how a wait is split: between two discrete
    /// steps, delays of `a` and then `b` ticks report the same outputs at
    /// the same ticks, and leave the same state, as one delay of `a + b`.
    /// A physical implementation has this property by nature; the test
    /// executor relies on it when it waits once per decision.
    fn delay(&mut self, max_ticks: i64) -> DelayOutcome;

    /// A short name used in reports.
    fn name(&self) -> &str {
        "iut"
    }
}

/// When, inside its allowed window, a simulated implementation produces its
/// outputs.
///
/// The specification leaves the output time uncertain (that is the point of
/// the paper); a concrete deterministic implementation picks one behaviour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputPolicy {
    /// Produce outputs as early as the guard allows.
    Eager,
    /// Produce outputs as late as the invariant allows (never spontaneously
    /// if no deadline forces them).
    Lazy,
    /// Produce outputs a fixed number of ticks after they become enabled
    /// (clamped to the deadline).
    Offset(i64),
    /// Pick a reproducible pseudo-random instant inside the allowed window,
    /// derived from the seed and the state in which the implementation
    /// entered its current discrete state.
    Jittery {
        /// Seed making the behaviour deterministic.
        seed: u64,
    },
}

/// The next output of a [`SimulatedIut`] in its current discrete state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Plan {
    /// Not planned yet: no time has passed since the last discrete step.
    Unplanned,
    /// No output until the next discrete step.
    Quiet,
    /// `channel` through `edge`, `after` ticks from now.
    Output {
        after: i64,
        edge: EdgeRef,
        channel: ChannelId,
    },
}

/// A simulated implementation: a plant model interpreted at tick granularity
/// with a deterministic output-scheduling policy.
///
/// The policy picks each output once per discrete state, from the clocks at
/// entry to that state, and the pick is counted down across
/// [`delay`](Iut::delay)s; every discrete step (an input taken, an output
/// fired, an internal move, a reset) plans anew.  So a wait split into
/// parts gives the same outputs at the same ticks as one wait.
#[derive(Clone, Debug)]
pub struct SimulatedIut {
    name: String,
    system: System,
    scale: i64,
    policy: OutputPolicy,
    state: ConcreteState,
    /// Where discrete steps build the successor (see
    /// [`Interpreter::fire_edge`]); its contents are never read.
    scratch: ConcreteState,
    plan: Plan,
    ignored_inputs: usize,
    /// Closed-network semantics: actions are binary syncs between distinct
    /// automata (the view the game solver explores), not lone half-edges.
    closed: bool,
}

impl SimulatedIut {
    /// Creates a simulated implementation from a plant model.
    ///
    /// The model is interpreted in the *open* view: a lone `ch!` edge emits
    /// `ch` to the environment and a lone `ch?` edge receives it, matching a
    /// plant whose counterpart (the tester) lives outside the model.
    ///
    /// # Panics
    ///
    /// Panics if the model's initial state violates an invariant or `scale`
    /// is not positive (both indicate construction bugs, not runtime
    /// conditions).
    #[must_use]
    pub fn new(name: &str, system: System, scale: i64, policy: OutputPolicy) -> Self {
        Self::with_view(name, system, scale, policy, false)
    }

    /// Creates a simulated implementation of a *closed network*.
    ///
    /// Actions follow the same semantics the game solver explores: a
    /// channel fires only as a binary synchronization between an enabled
    /// `ch!` edge and an enabled `ch?` edge of two distinct automata.  A
    /// lone half-edge never fires.  Use this when the simulated model is an
    /// entire closed product (as in the fuzzing campaign, where generated
    /// games double as their own conformant implementation).
    ///
    /// # Panics
    ///
    /// Panics if the model's initial state violates an invariant or `scale`
    /// is not positive.
    #[must_use]
    pub fn closed(name: &str, system: System, scale: i64, policy: OutputPolicy) -> Self {
        Self::with_view(name, system, scale, policy, true)
    }

    fn with_view(
        name: &str,
        system: System,
        scale: i64,
        policy: OutputPolicy,
        closed: bool,
    ) -> Self {
        let state = Interpreter::new(&system, scale)
            .expect("positive tick scale")
            .initial_state()
            .expect("valid initial state");
        SimulatedIut {
            name: name.to_string(),
            system,
            scale,
            policy,
            scratch: state.clone(),
            state,
            plan: Plan::Unplanned,
            ignored_inputs: 0,
            closed,
        }
    }

    /// The underlying model.
    #[must_use]
    pub fn system(&self) -> &System {
        &self.system
    }

    /// Number of inputs that were offered but ignored (useful to detect
    /// non-input-enabled mutants).
    #[must_use]
    pub fn ignored_inputs(&self) -> usize {
        self.ignored_inputs
    }

    /// The current internal state (visible for white-box assertions in
    /// tests; the executor never looks at it).
    #[must_use]
    pub fn state(&self) -> &ConcreteState {
        &self.state
    }

    fn interpreter(&self) -> Interpreter<'_> {
        Interpreter::new(&self.system, self.scale).expect("scale validated at construction")
    }

    /// The interpreter, with the state its steps advance and the scratch
    /// they build successors in.
    fn stepper(&mut self) -> (Interpreter<'_>, &mut ConcreteState, &mut ConcreteState) {
        let interp =
            Interpreter::new(&self.system, self.scale).expect("scale validated at construction");
        (interp, &mut self.state, &mut self.scratch)
    }

    /// Narrows a `(lo, hi)` firing window by one edge's guard (data guard
    /// plus clock constraints, scaled to ticks).  Returns `None` when the
    /// guard can never hold along a pure delay from the current state.
    fn narrow_window(
        &self,
        (automaton, edge): (AutomatonId, EdgeId),
        mut lo: i64,
        mut hi: Option<i64>,
    ) -> Option<(i64, Option<i64>)> {
        let guard = &self.system.automaton(automaton).edge(edge).guard;
        let (vars, clocks) = (&self.state.discrete.vars, &self.state.clocks);
        if !guard.data_holds(self.system.vars(), vars).unwrap_or(false) {
            return None;
        }
        for c in &guard.clocks {
            let m = c.bound.eval(self.system.vars(), vars).ok()?;
            let m = m * self.scale;
            let left = clocks[c.left.index()];
            if let Some(right_clock) = c.minus {
                // Diagonal constraints are delay-invariant.
                let diff = left - clocks[right_clock.index()];
                if !c.op.apply(diff, m) {
                    return None;
                }
                continue;
            }
            match c.op {
                CmpOp::Ge => lo = lo.max(m - left),
                CmpOp::Gt => lo = lo.max(m - left + 1),
                CmpOp::Le => hi = Some(hi.map_or(m - left, |h| h.min(m - left))),
                CmpOp::Lt => hi = Some(hi.map_or(m - left - 1, |h| h.min(m - left - 1))),
                CmpOp::Eq => {
                    lo = lo.max(m - left);
                    hi = Some(hi.map_or(m - left, |h| h.min(m - left)));
                }
                CmpOp::Ne => return None,
            }
        }
        if let Some(h) = hi {
            if h < lo {
                return None;
            }
        }
        Some((lo, hi))
    }

    /// Calls `visit` on every output *action* enabled (now or later, by pure
    /// delay) in the current state, with its earliest and latest firing
    /// time in ticks, within the invariant `deadline`.  `false` if the walk
    /// failed part-way; what it visited then is not an answer.
    ///
    /// Open view: one window per enabled `ch!` edge on an output channel
    /// (an environment's `ch!` on an input channel is not the plant's
    /// output).  Closed view: one window per synchronization of
    /// [`System::enabled_joint_edges`] on an output channel, narrowed by
    /// both guards.
    fn for_each_output_window(
        &self,
        deadline: Option<i64>,
        mut visit: impl FnMut(EdgeRef, ChannelId, i64, Option<i64>),
    ) -> bool {
        let is_output = |ch: ChannelId| self.system.channel(ch).kind() == ChannelKind::Output;
        if self.closed {
            return self
                .system
                .try_for_each_joint_edge(&self.state.discrete, |je| {
                    let JointEdge::Sync {
                        channel,
                        output: (automaton, edge),
                        input,
                    } = je
                    else {
                        return Ok(false);
                    };
                    if is_output(channel) {
                        let window = self
                            .narrow_window((automaton, edge), 0, deadline)
                            .and_then(|(lo, hi)| self.narrow_window(input, lo, hi));
                        if let Some((lo, hi)) = window {
                            visit(EdgeRef { automaton, edge }, channel, lo, hi);
                        }
                    }
                    Ok(false)
                })
                .is_ok();
        }
        for (ai, aut) in self.system.automata().iter().enumerate() {
            for edge in aut.edges_from(self.state.discrete.locations[ai]) {
                let Sync::Output(ch) = aut.edge(edge).sync else {
                    continue;
                };
                if !is_output(ch) {
                    continue;
                }
                let automaton = AutomatonId::from_index(ai);
                if let Some((lo, hi)) = self.narrow_window((automaton, edge), 0, deadline) {
                    visit(EdgeRef { automaton, edge }, ch, lo, hi);
                }
            }
        }
        true
    }

    /// Decides, per the policy, when (if ever) the next output would occur
    /// and through which edge, in one pass over the output windows;
    /// `deadline` is the invariant's maximal delay.
    ///
    /// Every policy fires inside a window.  On ties the first window in
    /// walk order wins, except that `Lazy`'s fallback takes the last of its
    /// latest windows.
    fn next_output_plan(&self, deadline: Option<i64>) -> Option<(i64, EdgeRef, ChannelId)> {
        let mut plan: Option<(i64, EdgeRef, ChannelId)> = None;
        // `Lazy`: the first window open at the deadline, and otherwise the
        // latest possible firing time.
        let mut at_deadline = None;
        let mut jitter = None;
        let complete = self.for_each_output_window(deadline, |edge, ch, lo, hi| {
            let at = match self.policy {
                OutputPolicy::Eager => lo,
                OutputPolicy::Lazy => {
                    // Without an invariant forcing an output, a lazy
                    // implementation stays quiescent.
                    let Some(deadline) = deadline else { return };
                    if at_deadline.is_none() && lo <= deadline && hi.is_none_or(|h| h >= deadline) {
                        at_deadline = Some((deadline, edge, ch));
                    }
                    if let Some(h) = hi {
                        let t = h.max(lo);
                        if plan.is_none_or(|(latest, _, _)| t >= latest) {
                            plan = Some((t, edge, ch));
                        }
                    }
                    return;
                }
                OutputPolicy::Offset(k) => {
                    let t = lo + k.max(0);
                    hi.map_or(t, |h| t.min(h))
                }
                OutputPolicy::Jittery { seed } => {
                    let h = *jitter.get_or_insert_with(|| self.state_hash(seed));
                    let span = match hi {
                        Some(hi) => (hi - lo).max(0),
                        None => 4 * self.scale,
                    };
                    let offset = if span == 0 {
                        0
                    } else {
                        (h % (span as u64 + 1)) as i64
                    };
                    lo + offset
                }
            };
            if plan.is_none_or(|(best, _, _)| at < best) {
                plan = Some((at, edge, ch));
            }
        });
        // A model whose guards cannot be evaluated offers no output.
        if !complete {
            return None;
        }
        at_deadline.or(plan)
    }

    /// The seed of the `Jittery` policy's pick in the current state.
    fn state_hash(&self, seed: u64) -> u64 {
        let mut hasher = DefaultHasher::new();
        seed.hash(&mut hasher);
        self.state.discrete.locations.hash(&mut hasher);
        self.state.discrete.vars.hash(&mut hasher);
        self.state.clocks.hash(&mut hasher);
        hasher.finish()
    }

    /// Advances the internal clocks without checking invariants (a silent
    /// faulty implementation simply lets time pass).
    fn force_advance(&mut self, ticks: i64) {
        for c in &mut self.state.clocks {
            *c += ticks;
        }
    }
}

impl Iut for SimulatedIut {
    fn reset(&mut self) {
        self.state = self
            .interpreter()
            .initial_state()
            .expect("valid initial state");
        self.plan = Plan::Unplanned;
        self.ignored_inputs = 0;
    }

    fn offer_input(&mut self, channel: &str) {
        let Some(ch) = self.system.channel_by_name(channel) else {
            self.ignored_inputs += 1;
            return;
        };
        let closed = self.closed;
        let (interp, state, scratch) = self.stepper();
        let taken = if closed {
            interp.fire_sync(state, ch, scratch)
        } else {
            interp.after_input(state, ch, scratch)
        };
        if matches!(taken, Ok(true)) {
            self.plan = Plan::Unplanned;
        } else {
            self.ignored_inputs += 1;
        }
    }

    fn delay(&mut self, max_ticks: i64) -> DelayOutcome {
        if self.plan == Plan::Unplanned {
            let deadline = self.interpreter().max_delay(&self.state).unwrap_or(None);
            self.plan = match self.next_output_plan(deadline) {
                Some((after, edge, channel)) => Plan::Output {
                    after,
                    edge,
                    channel,
                },
                None => Plan::Quiet,
            };
        }
        match self.plan {
            Plan::Output {
                after,
                edge,
                channel,
            } if after <= max_ticks => {
                self.force_advance(after);
                let closed = self.closed;
                let (interp, state, scratch) = self.stepper();
                let fired = if closed {
                    // The planned window already accounts for a matching
                    // `ch?` edge; fire the whole synchronization.
                    interp.fire_sync(state, channel, scratch)
                } else {
                    interp.fire_edge(state, edge, scratch)
                };
                if matches!(fired, Ok(true)) {
                    self.plan = Plan::Unplanned;
                    DelayOutcome::Output {
                        after,
                        channel: self.system.channel(channel).name().to_string(),
                    }
                } else {
                    // The planned edge turned out to be blocked (e.g. a
                    // mutant with an inconsistent update): stay silent
                    // until the next discrete step.
                    self.plan = Plan::Quiet;
                    self.force_advance(max_ticks - after);
                    DelayOutcome::Quiet
                }
            }
            _ => {
                // At a blocked instant with no output scheduled, the model
                // may still progress through a forced internal move: one
                // silent, deterministic hop per zero-length grant (the same
                // first-in-declaration-order rule the executor applies to
                // the product, keeping conformant runs in lockstep).
                if max_ticks == 0 {
                    let (interp, state, scratch) = self.stepper();
                    if interp.max_delay(state).unwrap_or(None) == Some(0)
                        && matches!(interp.fire_first_internal(state, scratch), Ok(true))
                    {
                        self.plan = Plan::Unplanned;
                    }
                    return DelayOutcome::Quiet;
                }
                if let Plan::Output { after, .. } = &mut self.plan {
                    *after -= max_ticks;
                }
                self.force_advance(max_ticks);
                DelayOutcome::Quiet
            }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// An implementation that replays a fixed timetable of outputs, ignoring
/// inputs.  Only useful for unit-testing the executor and the conformance
/// monitor.
#[derive(Clone, Debug)]
pub struct ScriptedIut {
    name: String,
    /// Remaining outputs as (absolute tick, channel) pairs, sorted by time.
    schedule: Vec<(i64, String)>,
    now: i64,
    inputs_seen: Vec<(i64, String)>,
}

impl ScriptedIut {
    /// Creates a scripted implementation from `(absolute tick, channel)`
    /// output events.
    #[must_use]
    pub fn new(name: &str, mut schedule: Vec<(i64, String)>) -> Self {
        schedule.sort_by_key(|(t, _)| *t);
        ScriptedIut {
            name: name.to_string(),
            schedule,
            now: 0,
            inputs_seen: Vec::new(),
        }
    }

    /// The inputs received so far, with their reception times.
    #[must_use]
    pub fn inputs_seen(&self) -> &[(i64, String)] {
        &self.inputs_seen
    }
}

impl Iut for ScriptedIut {
    fn reset(&mut self) {
        self.now = 0;
        self.inputs_seen.clear();
    }

    fn offer_input(&mut self, channel: &str) {
        self.inputs_seen.push((self.now, channel.to_string()));
    }

    fn delay(&mut self, max_ticks: i64) -> DelayOutcome {
        let horizon = self.now + max_ticks;
        if let Some(pos) = self
            .schedule
            .iter()
            .position(|(t, _)| *t >= self.now && *t <= horizon)
        {
            let (t, ch) = self.schedule.remove(pos);
            let after = t - self.now;
            self.now = t;
            DelayOutcome::Output { after, channel: ch }
        } else {
            self.now = horizon;
            DelayOutcome::Quiet
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiga_model::{AutomatonBuilder, ClockConstraint, EdgeBuilder, SystemBuilder};

    /// Plant: after `req?`, replies `resp!` within [1, 3] (invariant x <= 3).
    fn responder() -> System {
        let mut b = SystemBuilder::new("responder");
        let x = b.clock("x").unwrap();
        let req = b.input_channel("req").unwrap();
        let resp = b.output_channel("resp").unwrap();
        let mut a = AutomatonBuilder::new("Plant");
        let idle = a.location("Idle").unwrap();
        let busy = a.location("Busy").unwrap();
        a.set_invariant(busy, vec![ClockConstraint::new(x, CmpOp::Le, 3)]);
        a.add_edge(EdgeBuilder::new(idle, busy).input(req).reset(x));
        a.add_edge(
            EdgeBuilder::new(busy, idle)
                .output(resp)
                .guard_clock(ClockConstraint::new(x, CmpOp::Ge, 1)),
        );
        b.add_automaton(a.build().unwrap()).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn eager_iut_replies_at_earliest_time() {
        let mut iut = SimulatedIut::new("eager", responder(), 4, OutputPolicy::Eager);
        iut.offer_input("req");
        match iut.delay(100) {
            DelayOutcome::Output { after, channel } => {
                assert_eq!(after, 4); // 1 time unit at scale 4
                assert_eq!(channel, "resp");
            }
            DelayOutcome::Quiet => panic!("expected an output"),
        }
        // Nothing further until a new request.
        assert_eq!(iut.delay(100), DelayOutcome::Quiet);
    }

    #[test]
    fn lazy_iut_replies_at_deadline() {
        let mut iut = SimulatedIut::new("lazy", responder(), 4, OutputPolicy::Lazy);
        iut.offer_input("req");
        match iut.delay(100) {
            DelayOutcome::Output { after, channel } => {
                assert_eq!(after, 12); // 3 time units at scale 4
                assert_eq!(channel, "resp");
            }
            DelayOutcome::Quiet => panic!("expected an output"),
        }
    }

    #[test]
    fn offset_and_jittery_policies_stay_in_window() {
        for policy in [
            OutputPolicy::Offset(3),
            OutputPolicy::Jittery { seed: 7 },
            OutputPolicy::Jittery { seed: 12345 },
        ] {
            let mut iut = SimulatedIut::new("p", responder(), 4, policy);
            iut.offer_input("req");
            match iut.delay(100) {
                DelayOutcome::Output { after, channel } => {
                    assert_eq!(channel, "resp");
                    assert!((4..=12).contains(&after), "after = {after} for {policy:?}");
                }
                DelayOutcome::Quiet => panic!("expected an output for {policy:?}"),
            }
        }
    }

    #[test]
    fn jittery_policy_is_deterministic() {
        let run = |seed: u64| {
            let mut iut = SimulatedIut::new("p", responder(), 4, OutputPolicy::Jittery { seed });
            iut.offer_input("req");
            iut.delay(100)
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn delay_respects_bound_and_splits() {
        let mut iut = SimulatedIut::new("eager", responder(), 4, OutputPolicy::Eager);
        iut.offer_input("req");
        // Only 2 ticks granted: not enough for the earliest reply at 4 ticks.
        assert_eq!(iut.delay(2), DelayOutcome::Quiet);
        match iut.delay(10) {
            DelayOutcome::Output { after, .. } => assert_eq!(after, 2),
            DelayOutcome::Quiet => panic!("expected an output"),
        }
    }

    #[test]
    fn inputs_are_ignored_when_not_enabled() {
        let mut iut = SimulatedIut::new("eager", responder(), 4, OutputPolicy::Eager);
        iut.offer_input("req");
        iut.offer_input("req"); // Busy has no req? edge
        assert_eq!(iut.ignored_inputs(), 1);
        iut.offer_input("nonexistent");
        assert_eq!(iut.ignored_inputs(), 2);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut iut = SimulatedIut::new("eager", responder(), 4, OutputPolicy::Eager);
        iut.offer_input("req");
        let _ = iut.delay(100);
        iut.reset();
        assert_eq!(iut.state().clocks, vec![0]);
        assert_eq!(iut.ignored_inputs(), 0);
        assert_eq!(iut.name(), "eager");
    }

    #[test]
    fn lazy_iut_without_deadline_stays_quiet() {
        // Same plant but no invariant: a lazy implementation never replies.
        let mut b = SystemBuilder::new("nodeadline");
        let x = b.clock("x").unwrap();
        let req = b.input_channel("req").unwrap();
        let resp = b.output_channel("resp").unwrap();
        let mut a = AutomatonBuilder::new("Plant");
        let idle = a.location("Idle").unwrap();
        let busy = a.location("Busy").unwrap();
        a.add_edge(EdgeBuilder::new(idle, busy).input(req).reset(x));
        a.add_edge(
            EdgeBuilder::new(busy, idle)
                .output(resp)
                .guard_clock(ClockConstraint::new(x, CmpOp::Ge, 1)),
        );
        b.add_automaton(a.build().unwrap()).unwrap();
        let sys = b.build().unwrap();
        let mut iut = SimulatedIut::new("lazy", sys, 4, OutputPolicy::Lazy);
        iut.offer_input("req");
        assert_eq!(iut.delay(1000), DelayOutcome::Quiet);
        let _ = req;
        let _ = resp;
    }

    /// Closed network: `A` offers `out!` in `[1, 3]` (invariant `x <= 3`) and
    /// `B` accepts `out?` only once `x >= 2`, so the sync window is `[2, 3]`.
    fn closed_pair() -> System {
        let mut b = SystemBuilder::new("pair");
        let x = b.clock("x").unwrap();
        let out = b.output_channel("out").unwrap();
        let mut a = AutomatonBuilder::new("A");
        let l0 = a.location("L0").unwrap();
        let l1 = a.location("L1").unwrap();
        a.set_invariant(l0, vec![ClockConstraint::new(x, CmpOp::Le, 3)]);
        a.add_edge(
            EdgeBuilder::new(l0, l1)
                .output(out)
                .guard_clock(ClockConstraint::new(x, CmpOp::Ge, 1)),
        );
        b.add_automaton(a.build().unwrap()).unwrap();
        let mut r = AutomatonBuilder::new("B");
        let m0 = r.location("M0").unwrap();
        let m1 = r.location("M1").unwrap();
        r.add_edge(
            EdgeBuilder::new(m0, m1)
                .input(out)
                .guard_clock(ClockConstraint::new(x, CmpOp::Ge, 2)),
        );
        b.add_automaton(r.build().unwrap()).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn closed_view_intersects_sender_and_receiver_windows() {
        // Eager fires at the earliest instant *both* guards hold: x = 2, not
        // the sender-only earliest x = 1.
        let mut iut = SimulatedIut::closed("closed", closed_pair(), 4, OutputPolicy::Eager);
        match iut.delay(100) {
            DelayOutcome::Output { after, channel } => {
                assert_eq!(after, 8); // 2 time units at scale 4
                assert_eq!(channel, "out");
            }
            DelayOutcome::Quiet => panic!("expected an output"),
        }
        // Both automata moved: the sync consumed the sender and receiver edge.
        let moved: Vec<_> = [1, 1].map(tiga_model::LocationId::from_index).into();
        assert_eq!(iut.state().discrete.locations, moved);
    }

    #[test]
    fn open_view_of_the_same_network_fires_the_lone_half_edge() {
        let mut iut = SimulatedIut::new("open", closed_pair(), 4, OutputPolicy::Eager);
        match iut.delay(100) {
            DelayOutcome::Output { after, channel } => {
                assert_eq!(after, 4); // sender-only window starts at x = 1
                assert_eq!(channel, "out");
            }
            DelayOutcome::Quiet => panic!("expected an output"),
        }
    }

    #[test]
    fn closed_view_never_fires_an_unreceived_output() {
        // A lone `out!` self-loop with no receiver anywhere: the closed
        // network has no enabled sync, so the implementation stays quiet
        // (the open view would emit immediately).
        let mut b = SystemBuilder::new("lone");
        let out = b.output_channel("out").unwrap();
        let mut a = AutomatonBuilder::new("A");
        let l0 = a.location("L0").unwrap();
        a.add_edge(EdgeBuilder::new(l0, l0).output(out));
        b.add_automaton(a.build().unwrap()).unwrap();
        let sys = b.build().unwrap();
        let mut iut = SimulatedIut::closed("lone", sys.clone(), 4, OutputPolicy::Eager);
        assert_eq!(iut.delay(1000), DelayOutcome::Quiet);
        let mut open = SimulatedIut::new("lone-open", sys, 4, OutputPolicy::Eager);
        assert!(matches!(open.delay(1000), DelayOutcome::Output { .. }));
    }

    #[test]
    fn scripted_iut_replays_timetable() {
        let mut iut = ScriptedIut::new(
            "scripted",
            vec![(10, "b".to_string()), (4, "a".to_string())],
        );
        iut.offer_input("go");
        assert_eq!(
            iut.delay(6),
            DelayOutcome::Output {
                after: 4,
                channel: "a".to_string()
            }
        );
        assert_eq!(iut.delay(3), DelayOutcome::Quiet);
        assert_eq!(
            iut.delay(10),
            DelayOutcome::Output {
                after: 3,
                channel: "b".to_string()
            }
        );
        assert_eq!(iut.inputs_seen(), &[(0, "go".to_string())]);
        iut.reset();
        assert!(iut.inputs_seen().is_empty());
    }
}
