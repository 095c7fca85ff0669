//! Deterministic gates on the executor's quiet-horizon jump.
//!
//! A counting wrapper around the compiled controller forwards every
//! [`Controller`] method and counts the queries a run makes:
//!
//! * the conformant smart-light never-bright run waits from start to
//!   finish, so it crosses its whole time budget in one jump: it still
//!   reports one step per 32-tick chunk, but asks the controller only a
//!   handful of times instead of once per step;
//! * a [`ScriptedIut`] makes no quiet promise, so the executor polls it
//!   and queries the controller once per step, as before the jump;
//! * each of the controller's wake-up, the specification's deadline, the
//!   product's invariant and the implementation's own deadline ends a jump
//!   where polling would stop, so the jumping run reports exactly what the
//!   polling one does;
//! * a controller's or an implementation's horizon that ends on a chunk
//!   boundary, or one tick short of one, is crossed with an exact query
//!   count, so a horizon one tick off either way shows.

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

    fn quiet_horizon(&self, discrete: &DiscreteState, ticks: &[i64], scale: i64) -> i64 {
        self.count();
        self.inner.quiet_horizon(discrete, ticks, scale)
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
        // 100 000 ticks of 32-tick chunks, plus the step that finds the
        // budget spent: the count polling reports.
        assert_eq!(report.steps, 3_126);
        assert!(queries <= 10, "{queries} queries in {} steps", report.steps);
    }
}

#[test]
fn an_implementation_without_a_quiet_promise_is_polled_every_step() {
    let harness = never_bright(TestConfig::default());
    let mut iut = ScriptedIut::new("silent", Vec::new());
    let (report, queries) = counted_run(&harness, &mut iut);
    assert_eq!(report.verdict, Verdict::Pass);
    // Every step queries once, except the last, which finds the budget
    // spent before it asks.
    assert!(report.steps > 3_000, "{} steps", report.steps);
    assert_eq!(queries, report.steps - 1);
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
/// a `User` must kick in `(2, 3]` — at 9 ticks, so the deadline falls
/// between two 32-tick chunks — and then pokes and listens.
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

#[test]
fn every_quiet_horizon_ends_a_jump_where_polling_stops() {
    let cases = [
        // The strategy waits for `go?`'s window at x = 100: the controller's
        // horizon ends the jump, and the input goes out at 400 ticks.
        (
            "controller",
            late_input(true, 100),
            late_input(false, 100),
            "control: A<> Plant.Done",
            late_input(false, 100),
            Verdict::Pass,
        ),
        // The strategy waits in `Busy` for `poke?` at 240 ticks, but a
        // silent implementation overstays the specification's deadline,
        // which the product (whose plant never answers) does not have: the
        // monitor's horizon ends the jump five chunks after the kick, and
        // the sixth, which crosses 200 ticks, is the illegal one.
        (
            "specification",
            responder(false, false, true, 60),
            responder(true, true, false, 60),
            "control: A<> Plant.Done",
            responder(false, false, false, 60),
            Verdict::Fail(FailReason::IllegalDelay {
                delay_ticks: 32,
                at_ticks: 169,
            }),
        ),
        // Only the product has the deadline: its invariant ends the jump
        // five chunks after the kick (the controller's zone would allow a
        // sixth, up to 201 ticks), and the silent implementation misses the
        // output due at 200 ticks.
        (
            "product",
            responder(true, true, true, 60),
            responder(false, true, false, 60),
            "control: A<> Plant.Idle",
            responder(false, false, false, 60),
            Verdict::Fail(FailReason::MissedDeadline { at_ticks: 200 }),
        ),
        // Only the implementation has the deadline, at 40 ticks, and its
        // answer waits for another clock to reach 80: the window is clipped
        // away until the deadline has passed, and polling then finds it
        // open at the next chunk boundary, 96 ticks.  The implementation's
        // horizon stops at its deadline, so the executor polls from there.
        (
            "implementation",
            late_answer(false, None),
            late_answer(false, None),
            "control: A[] not Plant.Never",
            late_answer(true, None),
            Verdict::Pass,
        ),
    ];
    for (bound, product, spec, purpose, iut, verdict) in cases {
        let harness = TestHarness::synthesize(product, spec, purpose, TestConfig::default())
            .unwrap_or_else(|e| panic!("{bound}: {e}"));
        let scale = harness.config().scale;
        let mut jumping = SimulatedIut::new("iut", iut.clone(), scale, OutputPolicy::Eager);
        let (report, queries) = counted_run(&harness, &mut jumping);
        let mut polling = SimulatedIut::new("iut", iut, scale, OutputPolicy::Eager);
        let reference = harness
            .execute_controlled(&mut polling, harness.strategy())
            .expect("the run evaluates");
        assert_eq!(report, reference, "{bound}");
        assert_eq!(report.verdict, verdict, "{bound}");
        // One jump of two queries, and a few single steps around it.
        assert!(
            queries <= 6,
            "{bound}: {queries} queries in {} steps",
            report.steps
        );
    }
}

#[test]
fn a_horizon_on_a_chunk_boundary_is_crossed_exactly() {
    // Each horizon ends on a 32-tick chunk boundary, or one tick short of
    // one, so a horizon one tick too short costs one more query, and one
    // tick too long jumps one chunk too far or saves a query.
    let cases = [
        // The controller's horizon: `go?` is enabled at x = 104, 416 =
        // 13 * 32 ticks, so thirteen chunks go in one jump.
        (
            "controller, 13 chunks",
            late_input(true, 104),
            late_input(false, 104),
            "control: A<> Plant.Done",
            late_input(false, 104),
            Verdict::Pass,
            3,
        ),
        // After the kick at 9 ticks, `poke?` is enabled at x = 58: 223 =
        // 7 * 32 - 1 ticks later, so the jump stops a chunk short and the
        // controller's wake-up sends the input at 232 ticks.
        (
            "controller, 7 chunks less a tick",
            responder(false, false, true, 58),
            responder(false, false, false, 58),
            "control: A<> Plant.Done",
            responder(false, false, false, 58),
            Verdict::Pass,
            6,
        ),
        // The implementation's horizon: an eager `resp!` at y > 32, 129
        // ticks, is one tick past four chunks.
        (
            "implementation, 4 chunks",
            late_answer(false, None),
            late_answer(false, None),
            "control: A[] not Plant.Never",
            late_answer(false, Some((CmpOp::Gt, 32))),
            Verdict::Pass,
            6,
        ),
        // An eager `resp!` at y >= 24, 96 ticks: three chunks less a tick
        // of quiet, so the jump stops a chunk short of the output.
        (
            "implementation, 3 chunks less a tick",
            late_answer(false, None),
            late_answer(false, None),
            "control: A[] not Plant.Never",
            late_answer(false, Some((CmpOp::Ge, 24))),
            Verdict::Pass,
            5,
        ),
    ];
    for (bound, product, spec, purpose, iut, verdict, want) in cases {
        let harness = TestHarness::synthesize(product, spec, purpose, TestConfig::default())
            .unwrap_or_else(|e| panic!("{bound}: {e}"));
        let scale = harness.config().scale;
        let mut jumping = SimulatedIut::new("iut", iut.clone(), scale, OutputPolicy::Eager);
        let (report, queries) = counted_run(&harness, &mut jumping);
        let mut polling = SimulatedIut::new("iut", iut, scale, OutputPolicy::Eager);
        let reference = harness
            .execute_controlled(&mut polling, harness.strategy())
            .expect("the run evaluates");
        assert_eq!(report, reference, "{bound}");
        assert_eq!(report.verdict, verdict, "{bound}");
        assert_eq!(queries, want, "{bound}: queries in {} steps", report.steps);
    }
}
