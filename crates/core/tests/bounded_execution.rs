//! End-to-end execution of *time-bounded* test purposes
//! (`control: A<><=T φ` and `control: A[]<=T φ`).
//!
//! * a bounded reachability purpose synthesizes through [`TestHarness`] when
//!   the deadline is generous enough, and the controller — playing on the
//!   `#t`-augmented product — drives conformant implementations to `Pass`
//!   within the deadline;
//! * a deadline tighter than the plant's worst-case response time makes the
//!   same purpose `NotEnforceable`;
//! * a run that exhausts the purpose's bound without reaching the goal ends
//!   `Inconclusive(BoundExceeded)` — attributed to the purpose's deadline,
//!   not the executor's own `max_ticks` budget, which keeps its
//!   `TimeBudgetExhausted` attribution when it is the tighter of the two;
//! * a bounded safety purpose passes at the deadline with `φ` still holding
//!   even when the unbounded purpose is unenforceable, and a violation at
//!   exactly `T` still fails (the bound is weak).

use tiga_dbm::Dbm;
use tiga_model::{AutomatonBuilder, ClockConstraint, CmpOp, EdgeBuilder, System, SystemBuilder};
use tiga_solver::{objective_liveness, Decision, Strategy, StrategyRule};
use tiga_tctl::TestPurpose;
use tiga_testing::{
    FailReason, HarnessError, InconclusiveReason, OutputPolicy, SimulatedIut, TestConfig,
    TestExecutor, TestHarness, Verdict,
};

/// Plant: Idle --kick?--> Busy (inv x <= 3) --reply!{x >= 1}--> Done, closed
/// with a User that kicks and listens.  `A<> Plant.Done` is winning; the
/// worst-case conformant reply arrives at x = 3, so the bounded variant
/// `A<><=T Plant.Done` is winning iff `T >= 3`.
fn responder_product() -> System {
    let mut b = SystemBuilder::new("responder");
    let x = b.clock("x").unwrap();
    let kick = b.input_channel("kick").unwrap();
    let reply = b.output_channel("reply").unwrap();
    let mut plant = AutomatonBuilder::new("Plant");
    let idle = plant.location("Idle").unwrap();
    let busy = plant.location("Busy").unwrap();
    let done = plant.location("Done").unwrap();
    plant.set_invariant(busy, vec![ClockConstraint::new(x, CmpOp::Le, 3)]);
    plant.add_edge(EdgeBuilder::new(idle, busy).input(kick).reset(x));
    plant.add_edge(
        EdgeBuilder::new(busy, done)
            .output(reply)
            .guard_clock(ClockConstraint::new(x, CmpOp::Ge, 1)),
    );
    b.add_automaton(plant.build().unwrap()).unwrap();
    let mut user = AutomatonBuilder::new("User");
    let u = user.location("U").unwrap();
    user.add_edge(EdgeBuilder::new(u, u).output(kick));
    user.add_edge(EdgeBuilder::new(u, u).input(reply));
    b.add_automaton(user.build().unwrap()).unwrap();
    b.build().unwrap()
}

/// Plant: Idle (inv x <= 8) --boom!{x >= 5}--> BadLoc, with no controllable
/// escape.  Unbounded `A[] not Plant.BadLoc` is losing (the boom is forced),
/// but the earliest violation is at time 5, so the weak-bounded variant
/// `A[]<=T not Plant.BadLoc` is winning iff `T <= 4`.
fn late_boom_product() -> System {
    let mut b = SystemBuilder::new("late-boom");
    let x = b.clock("x").unwrap();
    let boom = b.output_channel("boom").unwrap();
    let mut plant = AutomatonBuilder::new("Plant");
    let idle = plant.location("Idle").unwrap();
    let bad = plant.location("BadLoc").unwrap();
    plant.set_invariant(idle, vec![ClockConstraint::new(x, CmpOp::Le, 8)]);
    plant.add_edge(
        EdgeBuilder::new(idle, bad)
            .output(boom)
            .guard_clock(ClockConstraint::new(x, CmpOp::Ge, 5)),
    );
    b.add_automaton(plant.build().unwrap()).unwrap();
    let mut user = AutomatonBuilder::new("User");
    let u = user.location("U").unwrap();
    user.add_edge(EdgeBuilder::new(u, u).input(boom));
    b.add_automaton(user.build().unwrap()).unwrap();
    b.build().unwrap()
}

/// A maximally permissive specification over `boom`: the tioco monitor never
/// fires, so failures are attributable to the purpose check alone.
fn permissive_boom_spec() -> System {
    let mut b = SystemBuilder::new("permissive");
    let boom = b.output_channel("boom").unwrap();
    let mut spec = AutomatonBuilder::new("Spec");
    let s = spec.location("S").unwrap();
    spec.add_edge(EdgeBuilder::new(s, s).output(boom));
    b.add_automaton(spec.build().unwrap()).unwrap();
    b.build().unwrap()
}

fn small_budgets() -> TestConfig {
    TestConfig {
        max_steps: 200,
        max_ticks: 2_000,
        ..TestConfig::default()
    }
}

/// A wait-only strategy over the `#t`-augmented product (one extra trailing
/// clock dimension), for driving the executor off the synthesized path.
fn augmented_wait_only(product: &System) -> Strategy {
    let mut strategy = Strategy::new(product.dim() + 1);
    strategy.add_rule(
        product.initial_discrete(),
        StrategyRule {
            rank: 0,
            zone: Dbm::universe(product.dim() + 1),
            decision: Decision::Wait,
        },
    );
    strategy
}

#[test]
fn bounded_reachability_passes_within_the_deadline() {
    let product = responder_product();
    let harness = TestHarness::synthesize(
        product.clone(),
        product.clone(),
        "control: A<><=5 Plant.Done",
        small_budgets(),
    )
    .expect("T = 5 exceeds the worst-case response time of 3");
    assert_eq!(harness.purpose().bound, Some(5));
    for policy in [OutputPolicy::Eager, OutputPolicy::Lazy] {
        let mut iut = SimulatedIut::new("conformant", product.clone(), 4, policy);
        let report = harness.execute(&mut iut).expect("executes");
        assert_eq!(
            report.verdict,
            Verdict::Pass,
            "policy {policy:?}: a conformant run must reach Done within the bound"
        );
        assert!(
            report.trace.total_ticks() <= 5 * report.scale,
            "policy {policy:?}: the run must finish within T = 5 time units, took {} ticks",
            report.trace.total_ticks()
        );
    }
}

#[test]
fn too_tight_a_bound_is_not_enforceable() {
    let product = responder_product();
    let err = TestHarness::synthesize(
        product.clone(),
        product,
        "control: A<><=2 Plant.Done",
        small_budgets(),
    )
    .unwrap_err();
    assert!(
        matches!(err, HarnessError::NotEnforceable { .. }),
        "a lazy implementation may reply only at x = 3 > T = 2: {err}"
    );
}

#[test]
fn bound_exhaustion_is_attributed_to_the_bound() {
    // A wait-only strategy never kicks the plant, so the goal is out of
    // reach and the run idles until a budget expires.  When the purpose's
    // bound is the tighter budget the verdict names it; when the executor's
    // own `max_ticks` is tighter the classic attribution is kept.
    let product = responder_product();
    let strategy = augmented_wait_only(&product);
    let mut iut = SimulatedIut::new("quiet", product.clone(), 4, OutputPolicy::Lazy);

    let bounded = TestPurpose::parse("control: A<><=3 Plant.Done", &product).unwrap();
    let liveness = objective_liveness(&product, &bounded.predicate);
    let executor = TestExecutor::new(
        &product,
        &product,
        &strategy,
        &bounded,
        &liveness,
        small_budgets(),
    )
    .unwrap();
    let report = executor.run(&mut iut).expect("executes");
    assert_eq!(
        report.verdict,
        Verdict::Inconclusive(InconclusiveReason::BoundExceeded { bound: 3 }),
        "the purpose's own deadline expired first"
    );
    assert_eq!(
        report.trace.total_ticks(),
        3 * report.scale,
        "the run must stop waiting exactly at the bound"
    );

    // Bound far beyond max_ticks: the executor budget is the tighter one.
    let distant = TestPurpose::parse("control: A<><=600 Plant.Done", &product).unwrap();
    let liveness = objective_liveness(&product, &distant.predicate);
    let executor = TestExecutor::new(
        &product,
        &product,
        &strategy,
        &distant,
        &liveness,
        small_budgets(),
    )
    .unwrap();
    let report = executor.run(&mut iut).expect("executes");
    assert_eq!(
        report.verdict,
        Verdict::Inconclusive(InconclusiveReason::TimeBudgetExhausted),
        "max_ticks = 2000 < T·scale = 2400 expired first"
    );
}

#[test]
fn bounded_safety_passes_at_the_deadline() {
    let product = late_boom_product();
    // The unbounded purpose is hopeless: the boom is forced by the invariant.
    let err = TestHarness::synthesize(
        product.clone(),
        product.clone(),
        "control: A[] not Plant.BadLoc",
        small_budgets(),
    )
    .unwrap_err();
    assert!(matches!(err, HarnessError::NotEnforceable { .. }));

    // Bounded at T = 4 < earliest violation time 5, it synthesizes and the
    // run passes at the deadline with the predicate still holding.
    let harness = TestHarness::synthesize(
        product.clone(),
        product.clone(),
        "control: A[]<=4 not Plant.BadLoc",
        small_budgets(),
    )
    .expect("no violation can occur by time 4");
    for policy in [OutputPolicy::Eager, OutputPolicy::Lazy] {
        let mut iut = SimulatedIut::new("conformant", product.clone(), 4, policy);
        let report = harness.execute(&mut iut).expect("executes");
        assert_eq!(
            report.verdict,
            Verdict::Pass,
            "policy {policy:?}: the deadline is reached strictly before the boom window"
        );
        assert!(
            report.trace.total_ticks() <= 4 * report.scale,
            "policy {policy:?}: a bounded safety run ends at its deadline, took {} ticks",
            report.trace.total_ticks()
        );
    }
}

#[test]
fn safety_violation_at_exactly_the_bound_fails() {
    // The bound is weak: `A[]<=5` still covers a violation at exactly time 5.
    // An eager implementation fires boom! the moment the guard opens (x = 5),
    // which is exactly the deadline; the permissive spec keeps the monitor
    // quiet, so the purpose check must report the violation instead of the
    // deadline pass.
    let product = late_boom_product();
    let spec = permissive_boom_spec();
    let purpose = TestPurpose::parse("control: A[]<=5 not Plant.BadLoc", &product).unwrap();
    let strategy = augmented_wait_only(&product);
    let liveness = objective_liveness(&product, &purpose.predicate);
    let executor = TestExecutor::new(
        &product,
        &spec,
        &strategy,
        &purpose,
        &liveness,
        small_budgets(),
    )
    .unwrap();
    let mut iut = SimulatedIut::new("deviant", product.clone(), 4, OutputPolicy::Eager);
    let report = executor.run(&mut iut).expect("executes");
    match report.verdict {
        Verdict::Fail(FailReason::SafetyViolation {
            ref state,
            at_ticks,
        }) => {
            assert!(state.contains("BadLoc"), "unexpected state: {state}");
            assert_eq!(
                at_ticks,
                5 * report.scale,
                "the violation lands exactly on the deadline"
            );
        }
        other => panic!("expected Fail(SafetyViolation), got {other}"),
    }
}
