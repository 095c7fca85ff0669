//! Smoke test of the Table 1 reproduction: the Leader Election Protocol with
//! purposes TP1–TP3 for a small number of nodes.  The full sweep lives in the
//! benchmark harness (`crates/bench/benches/table1_lep.rs`).

use tiga::models::leader_election::{plant, product, LepConfig};
use tiga::solver::{solve, solve_jacobi, SolveOptions};
use tiga::tctl::TestPurpose;
use tiga::testing::{OutputPolicy, SimulatedIut, TestConfig, TestHarness, Verdict};

#[test]
fn all_purposes_are_winnable_and_grow_with_n() {
    let purpose_count = LepConfig::new(3).purposes().len();
    let mut prev_states = vec![0usize; purpose_count];
    for n in [3usize, 4] {
        let config = LepConfig::new(n);
        let system = product(config).expect("model builds");
        for (idx, (name, text)) in config.purposes().into_iter().enumerate() {
            let purpose = TestPurpose::parse(&text, &system).expect("parses");
            let solution =
                solve_jacobi(&system, &purpose, &SolveOptions::default()).expect("solves");
            assert!(
                solution.winning_from_initial,
                "{name} must be winnable for n = {n}"
            );
            let states = solution.stats().discrete_states;
            assert!(
                states > prev_states[idx],
                "{name}: state count must grow with n ({} -> {states})",
                prev_states[idx]
            );
            prev_states[idx] = states;
        }
    }
}

#[test]
fn tp1_is_cheaper_than_tp2_and_tp3() {
    // The qualitative shape of Table 1: TP1 (goal reached quickly, pruned
    // exploration) explores far fewer states than TP2/TP3.
    let config = LepConfig::new(4);
    let system = product(config).expect("model builds");
    let mut states = Vec::new();
    for (_, text) in config.purposes() {
        let purpose = TestPurpose::parse(&text, &system).expect("parses");
        let solution = solve_jacobi(&system, &purpose, &SolveOptions::default()).expect("solves");
        states.push(solution.stats().discrete_states);
    }
    assert!(
        states[0] < states[1] && states[0] < states[2],
        "TP1 should be the cheapest: {states:?}"
    );
}

#[test]
fn jacobi_and_otfur_agree_on_lep() {
    let config = LepConfig::new(3);
    let system = product(config).expect("model builds");
    for (_, text) in config.purposes() {
        let purpose = TestPurpose::parse(&text, &system).expect("parses");
        let a = solve_jacobi(&system, &purpose, &SolveOptions::default()).expect("solves");
        let b = solve(&system, &purpose, &SolveOptions::default()).expect("solves");
        assert_eq!(a.winning_from_initial, b.winning_from_initial, "{text}");
    }
}

#[test]
fn tp1_strategy_executes_against_conformant_node() {
    // End-to-end: synthesize the TP1 test case and run it against a
    // simulated conformant protocol node.
    let config = LepConfig::new(3);
    let harness = TestHarness::synthesize(
        product(config).expect("model builds"),
        plant(config).expect("plant builds"),
        &config.tp1(),
        TestConfig::default(),
    )
    .expect("TP1 is enforceable");
    for policy in [
        OutputPolicy::Eager,
        OutputPolicy::Lazy,
        OutputPolicy::Jittery { seed: 5 },
    ] {
        let mut iut = SimulatedIut::new(
            "lep-node",
            plant(config).expect("plant builds"),
            harness.config().scale,
            policy,
        );
        let report = harness.execute(&mut iut).expect("executes");
        assert_eq!(
            report.verdict,
            Verdict::Pass,
            "policy {policy:?}, trace {}",
            report.trace.display(report.scale)
        );
    }
}
