//! Deadline attribution when the specification cannot progress.
//!
//! Shaken out by the test-execution fuzz oracle: a generated specification
//! whose invariant expires while *no* output can discharge the deadline is
//! timelocked — no implementation can be blamed for staying quiet.  The
//! executor must then
//!
//! * **pass** a safety run (a forever-blocked run trivially maintains `φ`),
//! * report a reachability run as `Inconclusive(SpecTimelock)`,
//! * and still **fail** a quiet implementation when the specification *does*
//!   offer an output at the deadline (the genuine `MissedDeadline` case).

use tiga_dbm::Dbm;
use tiga_model::{AutomatonBuilder, ClockConstraint, CmpOp, EdgeBuilder, System, SystemBuilder};
use tiga_solver::{objective_liveness, Decision, Strategy, StrategyRule};
use tiga_tctl::TestPurpose;
use tiga_testing::{
    FailReason, InconclusiveReason, OutputPolicy, SimulatedIut, TestConfig, TestExecutor,
    TestHarness, Verdict,
};

/// A timelocked plant: `Stuck` has invariant `x <= 2` but its only edge
/// (into `Exit`) needs `x >= 5`, so neither time nor any action can ever
/// progress past `x = 2`.  `Bad` is unreachable.
fn timelocked_system() -> System {
    let mut b = SystemBuilder::new("timelocked");
    let x = b.clock("x").unwrap();
    let go = b.input_channel("go").unwrap();
    let mut plant = AutomatonBuilder::new("Plant");
    let stuck = plant.location("Stuck").unwrap();
    let exit = plant.location("Exit").unwrap();
    plant.location("Bad").unwrap();
    plant.set_invariant(stuck, vec![ClockConstraint::new(x, CmpOp::Le, 2)]);
    plant.add_edge(
        EdgeBuilder::new(stuck, exit)
            .input(go)
            .guard_clock(ClockConstraint::new(x, CmpOp::Ge, 5)),
    );
    b.add_automaton(plant.build().unwrap()).unwrap();
    let mut user = AutomatonBuilder::new("User");
    let u = user.location("U").unwrap();
    user.add_edge(EdgeBuilder::new(u, u).output(go));
    b.add_automaton(user.build().unwrap()).unwrap();
    b.build().unwrap()
}

fn small_budgets() -> TestConfig {
    TestConfig {
        max_steps: 100,
        max_ticks: 2_000,
        ..TestConfig::default()
    }
}

fn wait_only_strategy(product: &System) -> Strategy {
    let mut strategy = Strategy::new(product.dim());
    strategy.add_rule(
        product.initial_discrete(),
        StrategyRule {
            rank: 0,
            zone: Dbm::universe(product.dim()),
            decision: Decision::Wait,
        },
    );
    strategy
}

#[test]
fn blocked_safety_run_passes() {
    // `A[] not Plant.Bad` is trivially winning (Bad is unreachable), so the
    // full harness synthesizes; the conformant run then gets stuck at x = 2
    // with nothing to blame on the implementation — that is a pass, not a
    // missed deadline.
    let product = timelocked_system();
    let harness = TestHarness::synthesize(
        product.clone(),
        product.clone(),
        "control: A[] not Plant.Bad",
        small_budgets(),
    )
    .expect("the safety purpose is enforceable");
    let mut iut = SimulatedIut::new("conformant", product.clone(), 4, OutputPolicy::Eager);
    let report = harness.execute(&mut iut).expect("executes");
    assert_eq!(
        report.verdict,
        Verdict::Pass,
        "trace: {}",
        report.trace.display(4)
    );
}

#[test]
fn blocked_reachability_run_is_inconclusive_with_spec_timelock() {
    // A wait-only strategy against the timelocked product: the goal can
    // never be reached once the specification is stuck, and the quiet
    // implementation must not be failed for it.
    let product = timelocked_system();
    let purpose = TestPurpose::parse("control: A<> Plant.Exit", &product).unwrap();
    let strategy = wait_only_strategy(&product);
    let liveness = objective_liveness(&product, &purpose.predicate);
    let executor = TestExecutor::new(
        &product,
        &product,
        &strategy,
        &purpose,
        &liveness,
        small_budgets(),
    )
    .unwrap();
    let mut iut = SimulatedIut::new("conformant", product.clone(), 4, OutputPolicy::Eager);
    let report = executor.run(&mut iut).expect("executes");
    assert_eq!(
        report.verdict,
        // x = 2 at scale 4.
        Verdict::Inconclusive(InconclusiveReason::SpecTimelock { at_ticks: 8 }),
        "trace: {}",
        report.trace.display(4)
    );
}

#[test]
fn quiet_implementation_still_fails_a_real_deadline() {
    // Here the specification *does* offer `out!` when the invariant expires,
    // so an implementation that stays quiet misses a genuine deadline.
    let mut b = SystemBuilder::new("deadline");
    let x = b.clock("x").unwrap();
    let out = b.output_channel("out").unwrap();
    let mut plant = AutomatonBuilder::new("Plant");
    let idle = plant.location("Idle").unwrap();
    let done = plant.location("Done").unwrap();
    plant.set_invariant(idle, vec![ClockConstraint::new(x, CmpOp::Le, 3)]);
    plant.add_edge(
        EdgeBuilder::new(idle, done)
            .output(out)
            .guard_clock(ClockConstraint::new(x, CmpOp::Ge, 2)),
    );
    b.add_automaton(plant.build().unwrap()).unwrap();
    let mut user = AutomatonBuilder::new("User");
    let u = user.location("U").unwrap();
    user.add_edge(EdgeBuilder::new(u, u).input(out));
    b.add_automaton(user.build().unwrap()).unwrap();
    let product = b.build().unwrap();

    // A broken implementation: same interface, but its output is never
    // enabled and no invariant forces it, so it idles forever.
    let mut bb = SystemBuilder::new("broken");
    let bx = bb.clock("x").unwrap();
    let bout = bb.output_channel("out").unwrap();
    let mut bplant = AutomatonBuilder::new("Plant");
    let bidle = bplant.location("Idle").unwrap();
    let bdone = bplant.location("Done").unwrap();
    bplant.add_edge(
        EdgeBuilder::new(bidle, bdone)
            .output(bout)
            .guard_clock(ClockConstraint::new(bx, CmpOp::Ge, 1_000)),
    );
    bb.add_automaton(bplant.build().unwrap()).unwrap();
    let mut buser = AutomatonBuilder::new("User");
    let bu = buser.location("U").unwrap();
    buser.add_edge(EdgeBuilder::new(bu, bu).input(bout));
    bb.add_automaton(buser.build().unwrap()).unwrap();
    let broken = bb.build().unwrap();

    let purpose = TestPurpose::parse("control: A<> Plant.Done", &product).unwrap();
    let strategy = wait_only_strategy(&product);
    let liveness = objective_liveness(&product, &purpose.predicate);
    let executor = TestExecutor::new(
        &product,
        &product,
        &strategy,
        &purpose,
        &liveness,
        small_budgets(),
    )
    .unwrap();
    let mut iut = SimulatedIut::new("broken", broken, 4, OutputPolicy::Eager);
    let report = executor.run(&mut iut).expect("executes");
    assert_eq!(
        report.verdict,
        // x = 3 at scale 4.
        Verdict::Fail(FailReason::MissedDeadline { at_ticks: 12 }),
        "trace: {}",
        report.trace.display(4)
    );
}
