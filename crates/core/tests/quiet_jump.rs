//! Timed traces of waits that end at each of their bounds.
//!
//! The executor waits once per decision, until the least of the
//! controller's wake-up, the product's invariant deadline and the remaining
//! budget, unless the implementation answers first.  Each case below keeps
//! a model and a budget that once exercised the executor's 32-tick polling
//! and pins the verdict and the timed trace a run reports, under the
//! compiled controller and under the interpreted strategy alike:
//!
//! * the conformant smart-light never-bright run, and a silent scripted
//!   implementation, wait out their whole time budget in one wait, asking
//!   the controller once;
//! * each of the controller's wake-up, the specification's and the
//!   product's deadlines and the implementation's own deadline bounds a
//!   wait;
//! * waits that end on a multiple of 32 ticks, or one tick away from one,
//!   end exactly where their bound says.
use std::cell::Cell;
use tiga_model::{
    AutomatonBuilder, ClockConstraint, CmpOp, DiscreteState, EdgeBuilder, System, SystemBuilder,
};
use tiga_models::smart_light::{product, PURPOSE_NEVER_BRIGHT};
use tiga_solver::{Controller, StrategyDecision};
use tiga_testing::{
    FailReason, OutputPolicy, ScriptedIut, SimulatedIut, TestConfig, TestHarness, TestReport,
    Verdict,
};

/// Forwards every query to `inner` and counts them.
struct Counting<'a> {
    inner: &'a dyn Controller,
    queries: Cell<usize>,
}

impl Counting<'_> {
    fn count(&self) {
        self.queries.set(self.queries.get() + 1);
    }
}

impl Controller for Counting<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn decide(
        &self,
        discrete: &DiscreteState,
        ticks: &[i64],
        scale: i64,
    ) -> Option<StrategyDecision<'_>> {
        self.count();
        self.inner.decide(discrete, ticks, scale)
    }

    fn rank_of(&self, discrete: &DiscreteState, ticks: &[i64], scale: i64) -> Option<u32> {
        self.count();
        self.inner.rank_of(discrete, ticks, scale)
    }

    fn next_take_delay(&self, discrete: &DiscreteState, ticks: &[i64], scale: i64) -> Option<i64> {
        self.count();
        self.inner.next_take_delay(discrete, ticks, scale)
    }

    fn decide_with_wakeup(
        &self,
        discrete: &DiscreteState,
        ticks: &[i64],
        scale: i64,
    ) -> Option<(StrategyDecision<'_>, Option<i64>)> {
        self.count();
        self.inner.decide_with_wakeup(discrete, ticks, scale)
    }
}

fn never_bright(config: TestConfig) -> TestHarness {
    let system = product().expect("the smart-light model parses");
    TestHarness::synthesize(system.clone(), system, PURPOSE_NEVER_BRIGHT, config)
        .expect("never_bright is enforceable")
}

/// Runs `iut` under the counting wrapper of the harness's controller.
fn counted_run(harness: &TestHarness, iut: &mut dyn tiga_testing::Iut) -> (TestReport, usize) {
    let counting = Counting {
        inner: harness.controller(),
        queries: Cell::new(0),
    };
    let report = harness
        .execute_controlled(iut, &counting)
        .expect("the run evaluates");
    (report, counting.queries.get())
}

#[test]
fn a_conformant_waiting_run_jumps_over_its_budget_in_a_few_queries() {
    // The default step budget, and one too large to count in ticks.
    for max_steps in [TestConfig::default().max_steps, usize::MAX] {
        let harness = never_bright(TestConfig {
            max_steps,
            ..TestConfig::default()
        });
        let scale = harness.config().scale;
        let system = harness.product().clone();
        let mut iut = SimulatedIut::new("conformant", system, scale, OutputPolicy::Eager);
        let (report, queries) = counted_run(&harness, &mut iut);
        assert_eq!(report.verdict, Verdict::Pass);
        // 100 000 ticks of silence.
        assert_eq!(report.trace.display(scale).to_string(), "25000");
        assert_eq!(queries, 1, "{queries} queries in {} steps", report.steps);
    }
}

#[test]
fn a_silent_scripted_implementation_waits_out_the_budget_at_once() {
    let harness = never_bright(TestConfig::default());
    let mut iut = ScriptedIut::new("silent", Vec::new());
    let (report, queries) = counted_run(&harness, &mut iut);
    assert_eq!(report.verdict, Verdict::Pass);
    assert_eq!(report.trace.display(4).to_string(), "25000");
    assert_eq!(queries, 1, "{queries} queries in {} steps", report.steps);
}

/// `Plant: Idle --go?{x >= at}--> Done`, closed by a `User` that offers
/// `go!` when `with_user`.
fn late_input(with_user: bool, at: i64) -> System {
    let mut b = SystemBuilder::new("late-input");
    let x = b.clock("x").unwrap();
    let go = b.input_channel("go").unwrap();
    let mut plant = AutomatonBuilder::new("Plant");
    let idle = plant.location("Idle").unwrap();
    let done = plant.location("Done").unwrap();
    plant.add_edge(
        EdgeBuilder::new(idle, done)
            .input(go)
            .guard_clock(ClockConstraint::new(x, CmpOp::Ge, at)),
    );
    b.add_automaton(plant.build().unwrap()).unwrap();
    if with_user {
        let mut user = AutomatonBuilder::new("User");
        let u = user.location("U").unwrap();
        user.add_edge(EdgeBuilder::new(u, u).output(go));
        b.add_automaton(user.build().unwrap()).unwrap();
    }
    b.build().unwrap()
}

/// `Plant: Start --kick?--> Busy --resp!--> Idle`, and `Busy --poke?-->
/// Done` once `x >= poke_at`, with `inv x <= 50` on `Busy` when
/// `deadline`.  The `resp!` edge exists when `responds`.  With `with_user`,
/// a `User` must kick in `(2, 3]` — at 9 ticks — and then pokes and
/// listens.
fn responder(deadline: bool, responds: bool, with_user: bool, poke_at: i64) -> System {
    let mut b = SystemBuilder::new("responder");
    let x = b.clock("x").unwrap();
    let kick = b.input_channel("kick").unwrap();
    let poke = b.input_channel("poke").unwrap();
    let resp = b.output_channel("resp").unwrap();
    let mut plant = AutomatonBuilder::new("Plant");
    let start = plant.location("Start").unwrap();
    let busy = plant.location("Busy").unwrap();
    let idle = plant.location("Idle").unwrap();
    let done = plant.location("Done").unwrap();
    if deadline {
        plant.set_invariant(busy, vec![ClockConstraint::new(x, CmpOp::Le, 50)]);
    }
    plant.add_edge(EdgeBuilder::new(start, busy).input(kick));
    plant.add_edge(
        EdgeBuilder::new(busy, done)
            .input(poke)
            .guard_clock(ClockConstraint::new(x, CmpOp::Ge, poke_at)),
    );
    if responds {
        plant.add_edge(EdgeBuilder::new(busy, idle).output(resp));
    }
    b.add_automaton(plant.build().unwrap()).unwrap();
    if with_user {
        let mut user = AutomatonBuilder::new("User");
        let ready = user.location("Ready").unwrap();
        let kicked = user.location("Kicked").unwrap();
        user.set_invariant(ready, vec![ClockConstraint::new(x, CmpOp::Le, 3)]);
        user.add_edge(
            EdgeBuilder::new(ready, kicked)
                .output(kick)
                .guard_clock(ClockConstraint::new(x, CmpOp::Gt, 2)),
        );
        user.add_edge(EdgeBuilder::new(kicked, kicked).output(poke));
        user.add_edge(EdgeBuilder::new(kicked, kicked).input(resp));
        b.add_automaton(user.build().unwrap()).unwrap();
    }
    b.build().unwrap()
}

/// `Plant: Busy --resp!--> Idle`, with an unreachable `Never`, closed by a
/// `User` that listens.  When
/// `strict`, `Busy` has `inv x <= 10` and `resp!` waits for `y >= 20`:
/// the output window opens only after the invariant deadline has passed.
/// `guard`, if any, adds `y op bound` to the guard of `resp!`.
fn late_answer(strict: bool, guard: Option<(CmpOp, i64)>) -> System {
    let mut b = SystemBuilder::new("late-answer");
    let x = b.clock("x").unwrap();
    let y = b.clock("y").unwrap();
    let resp = b.output_channel("resp").unwrap();
    let mut plant = AutomatonBuilder::new("Plant");
    let busy = plant.location("Busy").unwrap();
    let idle = plant.location("Idle").unwrap();
    plant.location("Never").unwrap();
    let mut answer = EdgeBuilder::new(busy, idle).output(resp);
    if strict {
        plant.set_invariant(busy, vec![ClockConstraint::new(x, CmpOp::Le, 10)]);
        answer = answer.guard_clock(ClockConstraint::new(y, CmpOp::Ge, 20));
    }
    if let Some((op, bound)) = guard {
        answer = answer.guard_clock(ClockConstraint::new(y, op, bound));
    }
    plant.add_edge(answer);
    b.add_automaton(plant.build().unwrap()).unwrap();
    let mut user = AutomatonBuilder::new("User");
    let u = user.location("U").unwrap();
    user.add_edge(EdgeBuilder::new(u, u).input(resp));
    b.add_automaton(user.build().unwrap()).unwrap();
    b.build().unwrap()
}

/// Runs each case under the compiled controller and under the interpreted
/// strategy, and checks both reports against the case's verdict and trace
/// (delays in model time units).
fn check_cases(cases: Vec<(&str, System, System, &str, System, Verdict, &str)>) {
    for (bound, product, spec, purpose, iut, verdict, trace) in cases {
        let harness = TestHarness::synthesize(product, spec, purpose, TestConfig::default())
            .unwrap_or_else(|e| panic!("{bound}: {e}"));
        let scale = harness.config().scale;
        let mut compiled = SimulatedIut::new("iut", iut.clone(), scale, OutputPolicy::Eager);
        let (report, queries) = counted_run(&harness, &mut compiled);
        let mut interpreted = SimulatedIut::new("iut", iut, scale, OutputPolicy::Eager);
        let reference = harness
            .execute_controlled(&mut interpreted, harness.strategy())
            .expect("the run evaluates");
        assert_eq!(report, reference, "{bound}");
        assert_eq!(report.verdict, verdict, "{bound}");
        assert_eq!(report.trace.display(scale).to_string(), trace, "{bound}");
        // One query per decision: a handful of waits and inputs.
        assert!(
            queries <= 4,
            "{bound}: {queries} queries in {} steps",
            report.steps
        );
    }
}

#[test]
fn each_bound_ends_a_wait_with_its_pinned_trace() {
    check_cases(vec![
        // The strategy waits for `go?`'s window at x = 100: the controller's
        // wake-up ends the wait, and the input goes out at 400 ticks.
        (
            "controller",
            late_input(true, 100),
            late_input(false, 100),
            "control: A<> Plant.Done",
            late_input(false, 100),
            Verdict::Pass,
            "100 · go?",
        ),
        // The strategy waits in `Busy` for `poke?` at 240 ticks, but a
        // silent implementation overstays the specification's deadline at
        // 200 ticks, which the product (whose plant never answers) does not
        // have: the wait after the kick at 9 ticks runs to the wake-up, and
        // the monitor finds the whole of it illegal.
        (
            "specification",
            responder(false, false, true, 60),
            responder(true, true, false, 60),
            "control: A<> Plant.Done",
            responder(false, false, false, 60),
            Verdict::Fail(FailReason::IllegalDelay {
                delay_ticks: 231,
                at_ticks: 9,
            }),
            "2.25 · kick? · 57.75",
        ),
        // Only the product has the deadline: its invariant ends the wait at
        // 200 ticks (the controller's zone would allow 201), and the silent
        // implementation misses the output due then.
        (
            "product",
            responder(true, true, true, 60),
            responder(false, true, false, 60),
            "control: A<> Plant.Idle",
            responder(false, false, false, 60),
            Verdict::Fail(FailReason::MissedDeadline { at_ticks: 200 }),
            "2.25 · kick? · 47.75",
        ),
        // Only the implementation has the deadline, at 40 ticks, and its
        // answer waits for another clock to reach 80: the implementation
        // plans its output on entry to `Busy`, where the window is clipped
        // away by the deadline, so it never answers and the run waits out
        // its budget.
        (
            "implementation",
            late_answer(false, None),
            late_answer(false, None),
            "control: A[] not Plant.Never",
            late_answer(true, None),
            Verdict::Pass,
            "25000",
        ),
    ]);
}

#[test]
fn waits_ending_near_a_multiple_of_32_ticks_keep_their_traces() {
    check_cases(vec![
        // The controller's wake-up: `go?` is enabled at x = 104, 416 =
        // 13 * 32 ticks.
        (
            "controller, 13 * 32 ticks",
            late_input(true, 104),
            late_input(false, 104),
            "control: A<> Plant.Done",
            late_input(false, 104),
            Verdict::Pass,
            "104 · go?",
        ),
        // After the kick at 9 ticks, `poke?` is enabled at x = 58: 223 =
        // 7 * 32 - 1 ticks later, and the input goes out at 232 ticks.
        (
            "controller, 7 * 32 - 1 ticks",
            responder(false, false, true, 58),
            responder(false, false, false, 58),
            "control: A<> Plant.Done",
            responder(false, false, false, 58),
            Verdict::Pass,
            "2.25 · kick? · 55.75 · poke?",
        ),
        // The implementation's answer: an eager `resp!` at y > 32, 129 =
        // 4 * 32 + 1 ticks.
        (
            "implementation, 4 * 32 + 1 ticks",
            late_answer(false, None),
            late_answer(false, None),
            "control: A[] not Plant.Never",
            late_answer(false, Some((CmpOp::Gt, 32))),
            Verdict::Pass,
            "32.25 · resp! · 24967.75",
        ),
        // An eager `resp!` at y >= 24, 96 = 3 * 32 ticks.
        (
            "implementation, 3 * 32 ticks",
            late_answer(false, None),
            late_answer(false, None),
            "control: A[] not Plant.Never",
            late_answer(false, Some((CmpOp::Ge, 24))),
            Verdict::Pass,
            "24 · resp! · 24976",
        ),
    ]);
}
