//! End-to-end execution of *safety* test cases (`control: A[] φ`).
//!
//! * a winning safety purpose synthesizes through [`TestHarness`] and the
//!   safe controller passes against conformant implementations — the run is
//!   non-terminating and ends by budget exhaustion, which for safety is a
//!   `Pass`;
//! * an unenforceable safety purpose is rejected as `NotEnforceable`;
//! * entering a `¬φ` state mid-run yields `Fail(SafetyViolation)` — pinned
//!   with a deliberately unsafe (wait-only) hand-made strategy and a
//!   permissive specification, the only way to smuggle the product into a
//!   bad state past the tioco monitor.

use tiga_dbm::Dbm;
use tiga_model::{AutomatonBuilder, ClockConstraint, CmpOp, EdgeBuilder, System, SystemBuilder};
use tiga_solver::{objective_liveness, Decision, Strategy, StrategyRule};
use tiga_tctl::TestPurpose;
use tiga_testing::{
    FailReason, HarnessError, OutputPolicy, SimulatedIut, TestConfig, TestExecutor, TestHarness,
    Verdict,
};

/// Plant: Idle (inv x <= 3) --boom!{x >= 2}--> BadLoc, with a controllable
/// escape save?{x <= 2} into a safe sink.  `A[] not Plant.BadLoc` is
/// winning: play save? before the boom window opens.
fn escapable_product() -> System {
    let mut b = SystemBuilder::new("escapable");
    let x = b.clock("x").unwrap();
    let boom = b.output_channel("boom").unwrap();
    let save = b.input_channel("save").unwrap();
    let mut plant = AutomatonBuilder::new("Plant");
    let idle = plant.location("Idle").unwrap();
    let bad = plant.location("BadLoc").unwrap();
    let safe = plant.location("SafeLoc").unwrap();
    plant.set_invariant(idle, vec![ClockConstraint::new(x, CmpOp::Le, 3)]);
    plant.add_edge(
        EdgeBuilder::new(idle, bad)
            .output(boom)
            .guard_clock(ClockConstraint::new(x, CmpOp::Ge, 2)),
    );
    plant.add_edge(
        EdgeBuilder::new(idle, safe)
            .input(save)
            .guard_clock(ClockConstraint::new(x, CmpOp::Le, 2)),
    );
    b.add_automaton(plant.build().unwrap()).unwrap();
    let mut user = AutomatonBuilder::new("User");
    let u = user.location("U").unwrap();
    user.add_edge(EdgeBuilder::new(u, u).input(boom));
    user.add_edge(EdgeBuilder::new(u, u).output(save));
    b.add_automaton(user.build().unwrap()).unwrap();
    b.build().unwrap()
}

/// A maximally permissive specification over the same channels: every
/// output is allowed at any time, so the tioco monitor never fires and a
/// safety violation is attributable to the purpose check alone.
fn permissive_spec() -> System {
    let mut b = SystemBuilder::new("permissive");
    let boom = b.output_channel("boom").unwrap();
    let save = b.input_channel("save").unwrap();
    let mut spec = AutomatonBuilder::new("Spec");
    let s = spec.location("S").unwrap();
    spec.add_edge(EdgeBuilder::new(s, s).output(boom));
    spec.add_edge(EdgeBuilder::new(s, s).input(save));
    b.add_automaton(spec.build().unwrap()).unwrap();
    b.build().unwrap()
}

fn small_budgets() -> TestConfig {
    TestConfig {
        max_steps: 100,
        max_ticks: 2_000,
        ..TestConfig::default()
    }
}

#[test]
fn safe_controller_passes_on_conformant_implementations() {
    let product = escapable_product();
    let harness = TestHarness::synthesize(
        product.clone(),
        product.clone(),
        "control: A[] not Plant.BadLoc",
        small_budgets(),
    )
    .expect("the safety purpose is enforceable");
    for policy in [OutputPolicy::Eager, OutputPolicy::Lazy] {
        let mut iut = SimulatedIut::new("conformant", product.clone(), 4, policy);
        let report = harness.execute(&mut iut).expect("executes");
        assert_eq!(
            report.verdict,
            Verdict::Pass,
            "policy {policy:?}: a safe controller must keep the run in φ until the budget"
        );
    }
}

#[test]
fn unenforceable_safety_purpose_is_rejected() {
    // Without the escape edge the plant's forced boom! cannot be avoided.
    let mut b = SystemBuilder::new("doomed");
    let x = b.clock("x").unwrap();
    let boom = b.output_channel("boom").unwrap();
    let mut plant = AutomatonBuilder::new("Plant");
    let idle = plant.location("Idle").unwrap();
    let bad = plant.location("BadLoc").unwrap();
    plant.set_invariant(idle, vec![ClockConstraint::new(x, CmpOp::Le, 3)]);
    plant.add_edge(
        EdgeBuilder::new(idle, bad)
            .output(boom)
            .guard_clock(ClockConstraint::new(x, CmpOp::Ge, 1)),
    );
    b.add_automaton(plant.build().unwrap()).unwrap();
    let mut user = AutomatonBuilder::new("User");
    let u = user.location("U").unwrap();
    user.add_edge(EdgeBuilder::new(u, u).input(boom));
    b.add_automaton(user.build().unwrap()).unwrap();
    let product = b.build().unwrap();
    let err = TestHarness::synthesize(
        product.clone(),
        product,
        "control: A[] not Plant.BadLoc",
        small_budgets(),
    )
    .unwrap_err();
    assert!(matches!(err, HarnessError::NotEnforceable { .. }));
}

#[test]
fn entering_a_bad_state_fails_with_a_safety_violation() {
    // A wait-only strategy never plays the save? escape, so an eager
    // implementation fires boom! at x = 2; the permissive spec keeps the
    // monitor quiet and the purpose check reports the violation.
    let product = escapable_product();
    let spec = permissive_spec();
    let purpose = TestPurpose::parse("control: A[] not Plant.BadLoc", &product).unwrap();
    let mut strategy = Strategy::new(product.dim());
    strategy.add_rule(
        product.initial_discrete(),
        StrategyRule {
            rank: 0,
            zone: Dbm::universe(product.dim()),
            decision: Decision::Wait,
        },
    );
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
        Verdict::Fail(FailReason::SafetyViolation { ref state, .. }) => {
            assert!(state.contains("BadLoc"), "unexpected state: {state}");
        }
        other => panic!("expected Fail(SafetyViolation), got {other}"),
    }
}
