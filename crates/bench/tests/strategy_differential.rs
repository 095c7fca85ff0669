//! Strategy-level differential oracle: the OTFUR-extracted and the
//! Jacobi-extracted strategies must be *behaviourally* equivalent, not just
//! come from equal winning sets — executing both against the same plants
//! (conformant simulations and seeded mutants, under several output
//! policies) must yield identical verdicts, for reachability and for the
//! new safety purposes alike.
//!
//! This closes the gap left by the winning-set comparisons of
//! `engine_agreement.rs`: two strategies over the same winning sets could
//! still prescribe different moves, and a move difference that changes a
//! verdict on any plant is a strategy-extraction bug in one of the engines.

use tiga_models::{coffee_machine, smart_light};
use tiga_solver::{solve_jacobi, CompiledController, SolveOptions};
use tiga_testing::{
    generate_mutants, MutationConfig, OutputPolicy, SimulatedIut, TestConfig, TestHarness, Verdict,
};

/// Budgets small enough that non-terminating safety controllers finish in
/// milliseconds while still driving many interaction rounds.
fn config() -> TestConfig {
    TestConfig {
        max_steps: 300,
        max_ticks: 4_000,
        ..TestConfig::default()
    }
}

/// Synthesizes the same purpose with `solve` (the harness's solver) and
/// with `solve_jacobi`, and executes both strategies against the same
/// implementations through the one harness.
fn assert_strategies_agree(product: &tiga_model::System, spec: &tiga_model::System, purpose: &str) {
    let harness = TestHarness::synthesize(product.clone(), spec.clone(), purpose, config())
        .unwrap_or_else(|e| panic!("otfur synthesis failed for {purpose}: {e}"));
    let jacobi = solve_jacobi(product, harness.purpose(), &SolveOptions::default())
        .unwrap_or_else(|e| panic!("jacobi failed to solve {purpose}: {e}"));
    assert!(jacobi.winning_from_initial, "jacobi: {purpose} is winning");
    let jacobi = CompiledController::compile(jacobi.strategy.as_ref().expect("jacobi strategy"));
    let otfur = |iut: &mut SimulatedIut| harness.execute(iut).expect("executes").verdict;
    let jacobi = |iut: &mut SimulatedIut| {
        harness
            .execute_controlled(iut, &jacobi)
            .expect("executes")
            .verdict
    };

    let policies = [OutputPolicy::Eager, OutputPolicy::Lazy];

    // Conformant implementation: both strategies must pass.
    for policy in policies {
        let mut a = SimulatedIut::new("conformant", product.clone(), 4, policy);
        let mut b = SimulatedIut::new("conformant", product.clone(), 4, policy);
        let (va, vb) = (otfur(&mut a), jacobi(&mut b));
        assert_eq!(
            va, vb,
            "strategies diverge on the conformant plant ({purpose}, {policy:?})"
        );
        assert_eq!(
            va,
            Verdict::Pass,
            "a winning strategy must pass on the conformant plant ({purpose}, {policy:?})"
        );
    }

    // Mutated implementations: whatever the verdict is, it must be the
    // same for both extractions.
    let mutants = generate_mutants(product, &MutationConfig::default()).expect("mutants build");
    let mut compared = 0;
    for mutant in mutants.iter().take(10) {
        for policy in policies {
            let mut a = SimulatedIut::new(&mutant.name, mutant.system.clone(), 4, policy);
            let mut b = SimulatedIut::new(&mutant.name, mutant.system.clone(), 4, policy);
            let (va, vb) = (otfur(&mut a), jacobi(&mut b));
            assert_eq!(
                va, vb,
                "strategies diverge on mutant {} ({purpose}, {policy:?})",
                mutant.name
            );
            compared += 1;
        }
    }
    assert!(compared >= 10, "too few mutants compared: {compared}");
}

#[test]
fn reachability_strategies_agree_on_smart_light() {
    let product = smart_light::product().expect("model builds");
    let spec = smart_light::plant().expect("model builds");
    assert_strategies_agree(&product, &spec, smart_light::PURPOSE_BRIGHT);
}

#[test]
fn reachability_strategies_agree_on_coffee_machine() {
    let product = coffee_machine::product().expect("model builds");
    let spec = coffee_machine::plant().expect("model builds");
    assert_strategies_agree(&product, &spec, coffee_machine::PURPOSE_COFFEE);
    assert_strategies_agree(&product, &spec, coffee_machine::PURPOSE_REFUND);
}

#[test]
fn safety_strategies_agree_on_coffee_machine() {
    let product = coffee_machine::product().expect("model builds");
    let spec = coffee_machine::plant().expect("model builds");
    assert_strategies_agree(&product, &spec, coffee_machine::PURPOSE_NO_REFUND);
}

#[test]
fn safety_strategies_agree_on_smart_light() {
    let product = smart_light::product().expect("model builds");
    let spec = smart_light::plant().expect("model builds");
    assert_strategies_agree(&product, &spec, smart_light::PURPOSE_NEVER_BRIGHT);
}
