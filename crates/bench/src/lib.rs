//! # tiga-bench — shared workloads for the benchmark harness
//!
//! The Criterion benches in `benches/` regenerate every table and figure of
//! the paper's evaluation (see `EXPERIMENTS.md` at the workspace root); this
//! small library holds the workload generators they share so that the
//! individual bench files stay focused on measurement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;

pub use baseline::{compare_to_baseline, parse_matrix_json, BaselineDiff, BaselineRow};

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use tiga_model::System;
use tiga_models::{coffee_machine, leader_election, smart_light};
use tiga_solver::{
    minimize_strategy_with_report, print_controller_source, solve, solve_jacobi, GameSolution,
    SolveOptions, SolverError,
};
use tiga_tctl::TestPurpose;
use tiga_testing::{TestConfig, TestHarness};

/// Number of LEP nodes the benches sweep by default (raise with the
/// `TIGA_LEP_MAX_N` environment variable, up to the paper's 8).
#[must_use]
pub fn lep_max_nodes() -> usize {
    std::env::var("TIGA_LEP_MAX_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
        .clamp(3, 8)
}

/// Builds the LEP product system for `n` nodes together with one of the
/// purposes (0 = TP1, 1 = TP2, 2 = TP3, 3 = TP4), abstract configuration.
///
/// # Panics
///
/// Panics if the model cannot be built (a bug, not a runtime condition).
#[must_use]
pub fn lep_instance(n: usize, purpose_index: usize) -> (System, TestPurpose) {
    lep_instance_for(leader_election::LepConfig::new(n), purpose_index)
}

/// Builds the *detailed* (per-slot message addresses) LEP product for `n`
/// nodes — the configuration whose state space actually grows with `n`
/// (Table 1 trend) and therefore the one the scaling rows use.
///
/// # Panics
///
/// Panics if the model cannot be built.
#[must_use]
pub fn lep_detailed_instance(n: usize, purpose_index: usize) -> (System, TestPurpose) {
    lep_instance_for(leader_election::LepConfig::detailed(n), purpose_index)
}

fn lep_instance_for(
    config: leader_election::LepConfig,
    purpose_index: usize,
) -> (System, TestPurpose) {
    let system = leader_election::product(config).expect("LEP model builds");
    let purposes = config.purposes();
    let (_, text) = &purposes[purpose_index];
    let purpose = TestPurpose::parse(text, &system).expect("purpose parses");
    (system, purpose)
}

/// Solves one LEP instance and returns the solution (used by the Table 1
/// bench and the smoke tests).
///
/// # Panics
///
/// Panics if solving fails.
#[must_use]
pub fn solve_lep(n: usize, purpose_index: usize) -> GameSolution {
    let (system, purpose) = lep_instance(n, purpose_index);
    solve_jacobi(&system, &purpose, &SolveOptions::default()).expect("solvable")
}

/// Synthesizes the Smart Light test harness for `A<> IUT.Bright`.
///
/// # Panics
///
/// Panics if the model cannot be built or the purpose is not enforceable
/// (both would be reproduction bugs).
#[must_use]
pub fn smart_light_harness() -> TestHarness {
    TestHarness::synthesize(
        smart_light::product().expect("model builds"),
        smart_light::plant().expect("model builds"),
        smart_light::PURPOSE_BRIGHT,
        TestConfig::default(),
    )
    .expect("A<> IUT.Bright is enforceable")
}

/// One entry of the benchmark model zoo: a named closed game together with a
/// test purpose.
pub struct ZooInstance {
    /// Model identifier (stable across runs, used in reports).
    pub model: String,
    /// Purpose identifier.
    pub purpose_name: String,
    /// The closed product system.
    pub system: System,
    /// The parsed purpose.
    pub purpose: TestPurpose,
}

/// The model zoo the engine-ablation benchmarks and the differential tests
/// sweep: every case-study product with each of its test purposes, smallest
/// first.
///
/// # Panics
///
/// Panics if a model cannot be built or a purpose does not parse (both would
/// be reproduction bugs).
#[must_use]
pub fn model_zoo() -> Vec<ZooInstance> {
    let mut zoo = Vec::new();
    let coffee = coffee_machine::product().expect("model builds");
    for (name, text) in [
        ("coffee", coffee_machine::PURPOSE_COFFEE),
        ("refund", coffee_machine::PURPOSE_REFUND),
        ("no_refund", coffee_machine::PURPOSE_NO_REFUND),
    ] {
        zoo.push(ZooInstance {
            model: "coffee_machine".to_string(),
            purpose_name: name.to_string(),
            system: coffee.clone(),
            purpose: TestPurpose::parse(text, &coffee).expect("purpose parses"),
        });
    }
    let smart = smart_light::product().expect("model builds");
    for (name, text) in [
        ("bright", smart_light::PURPOSE_BRIGHT),
        ("dim", smart_light::PURPOSE_DIM),
        (
            "bright_and_ready",
            smart_light::PURPOSE_BRIGHT_AND_USER_READY,
        ),
        ("never_bright", smart_light::PURPOSE_NEVER_BRIGHT),
    ] {
        zoo.push(ZooInstance {
            model: "smart_light".to_string(),
            purpose_name: name.to_string(),
            system: smart.clone(),
            purpose: TestPurpose::parse(text, &smart).expect("purpose parses"),
        });
    }
    // Time-bounded instances: one bounded reachability (`A<><=T`) and one
    // bounded safety (`A[]<=T`), both *winning*, so the serve-batch CI gate
    // (which requires every zoo verdict to be winning) stays green.  The
    // smart-light bound sits exactly on the enforceability threshold
    // (`A<><=4 IUT.Bright` is losing, `<=5` is winning) — the differential
    // suite exercises the flip just below it.
    zoo.push(ZooInstance {
        model: "smart_light".to_string(),
        purpose_name: "bounded".to_string(),
        system: smart.clone(),
        purpose: TestPurpose::parse("control: A<><=5 IUT.Bright", &smart).expect("purpose parses"),
    });
    zoo.push(ZooInstance {
        model: "coffee_machine".to_string(),
        purpose_name: "bounded".to_string(),
        system: coffee.clone(),
        purpose: TestPurpose::parse("control: A[]<=30 not Machine.Refunded", &coffee)
            .expect("purpose parses"),
    });
    for idx in 0..4 {
        let (system, purpose) = lep_instance(3, idx);
        zoo.push(ZooInstance {
            model: "lep3".to_string(),
            purpose_name: format!("tp{}", idx + 1),
            system,
            purpose,
        });
    }
    // The first LEP-N scaling instance (detailed, so the state space is in
    // the thousands rather than the hundreds) is always in the zoo — one
    // reach purpose and one avoid purpose — so the baseline gate pins a
    // non-toy workload.  The larger N are available through
    // [`lep_detailed_instance`].
    for idx in [1, 3] {
        let (system, purpose) = lep_detailed_instance(4, idx);
        zoo.push(ZooInstance {
            model: "lep4".to_string(),
            purpose_name: format!("tp{}", idx + 1),
            system,
            purpose,
        });
    }
    zoo
}

/// Master seed of the fixed fuzz seed set whose engine counters the bench
/// baseline pins (see [`fuzz_matrix_instances`]).  Changing it invalidates
/// `BENCH_solver.baseline.json`.
pub const FUZZ_MATRIX_SEED: u64 = 0x2008_5EED;

/// Number of generated games in the pinned fuzz seed set.
pub const FUZZ_MATRIX_COUNT: usize = 4;

/// A fixed set of *generated* timed games for the baseline gate, drawn
/// from the SplitMix64 stream of [`FUZZ_MATRIX_SEED`] — exactly the
/// per-case seed derivation `tiga fuzz` uses, so a baseline drift on these
/// rows localizes to the solver, not the generator.  To make the pinned
/// counters meaningful the selection skips trivial games (fewer than four
/// discrete states under the Jacobi oracle) and reserves one slot for a
/// safety (`A[]`) objective, so the dual fixpoint's counters are gated on
/// a generated system too.  Deterministic across runs and machines; the
/// engine counters (explored/subsumed/pruned) of every row are pinned by
/// `solver_matrix --check`, extending the gate beyond the hand-written zoo.
///
/// # Panics
///
/// Panics if the stream cannot supply enough solvable, non-trivial specs
/// (a generator regression, not a runtime condition).
#[must_use]
pub fn fuzz_matrix_instances() -> Vec<ZooInstance> {
    let config = tiga_gen::GenConfig::default();
    let budget = SolveOptions {
        explore: tiga_solver::ExploreOptions { max_states: 4_000 },
        ..SolveOptions::default()
    };
    let safety_slots = 1;
    let reach_slots = FUZZ_MATRIX_COUNT - safety_slots;
    let mut reach = Vec::new();
    let mut safety = Vec::new();
    for case_seed in tiga_gen::derive_case_seeds(FUZZ_MATRIX_SEED, 512) {
        if reach.len() == reach_slots && safety.len() == safety_slots {
            break;
        }
        let spec = tiga_gen::generate_spec(case_seed, &config);
        let Ok((system, purpose)) = spec.build() else {
            continue;
        };
        let Ok(solution) = solve_jacobi(&system, &purpose, &budget) else {
            continue;
        };
        if solution.stats().discrete_states < 4 {
            continue;
        }
        let (bucket, slots, name) = match purpose.quantifier {
            tiga_tctl::PathQuantifier::Reachability => (&mut reach, reach_slots, "reach"),
            tiga_tctl::PathQuantifier::Safety => (&mut safety, safety_slots, "safety"),
        };
        if bucket.len() < slots {
            bucket.push(ZooInstance {
                model: format!("fuzz_{case_seed:#018x}"),
                purpose_name: name.to_string(),
                system,
                purpose,
            });
        }
    }
    let mut out = reach;
    out.append(&mut safety);
    assert_eq!(
        out.len(),
        FUZZ_MATRIX_COUNT,
        "the fixed fuzz seed stream must supply {FUZZ_MATRIX_COUNT} solvable non-trivial games"
    );
    out
}

/// One row of the engine × model ablation matrix.
pub struct MatrixRow {
    /// Model identifier.
    pub model: String,
    /// Purpose identifier.
    pub purpose: String,
    /// Engine name (`otfur`, `jacobi`).
    pub engine: String,
    /// The solved game (verdict, statistics and timing inside).
    pub solution: GameSolution,
    /// Time to minimize the extracted strategy (zero without one).
    pub minimize_time: Duration,
    /// Time to print the minimized strategy as a controller file (zero
    /// without a strategy).
    pub print_time: Duration,
}

/// The signature [`solve`] and [`solve_jacobi`] share.
pub type Solver = fn(&System, &TestPurpose, &SolveOptions) -> Result<GameSolution, SolverError>;

/// Both solvers under their row labels: [`solve`] (OTFUR, the solver every
/// front end runs) and the [`solve_jacobi`] reference it is checked
/// against.
pub const SOLVERS: [(&str, Solver); 2] = [("otfur", solve), ("jacobi", solve_jacobi)];

/// Solves one zoo instance with both [`SOLVERS`] and returns the rows.
///
/// # Panics
///
/// Panics if solving fails (all zoo instances are solvable by construction).
#[must_use]
pub fn engine_matrix_rows(instance: &ZooInstance) -> Vec<MatrixRow> {
    SOLVERS
        .into_iter()
        .map(|(engine, solver)| {
            let solution = solver(
                &instance.system,
                &instance.purpose,
                &SolveOptions::default(),
            )
            .expect("solves");
            let (mut minimize_time, mut print_time) = (Duration::ZERO, Duration::ZERO);
            if let Some(strategy) = &solution.strategy {
                let start = Instant::now();
                let (minimized, _) = minimize_strategy_with_report(strategy);
                minimize_time = start.elapsed();
                let start = Instant::now();
                let text = print_controller_source(
                    instance.system.name(),
                    solution.winning_from_initial,
                    Some(&minimized),
                );
                print_time = start.elapsed();
                debug_assert!(text.ends_with("end\n"));
            }
            MatrixRow {
                model: instance.model.clone(),
                purpose: instance.purpose_name.clone(),
                engine: engine.to_string(),
                solution,
                minimize_time,
                print_time,
            }
        })
        .collect()
}

/// Renders matrix rows as a machine-readable JSON array, one row per line.
#[must_use]
pub fn matrix_rows_to_json(rows: &[MatrixRow]) -> String {
    let mut out = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "  {{\"model\": \"{}\", \"purpose\": \"{}\", \"engine\": \"{}\", \"winning\": {}, ",
            row.model, row.purpose, row.engine, row.solution.winning_from_initial,
        );
        for (name, value) in row.solution.stats().counters() {
            let _ = write!(out, "\"{name}\": {value}, ");
        }
        let timed = &row.solution.timed;
        let _ = write!(
            out,
            "\"exploration_us\": {}, \"fixpoint_us\": {}, \"total_us\": {}, \
             \"extract_us\": {}, \"minimize_us\": {}, \"print_us\": {}}}",
            timed.exploration_time.as_micros(),
            timed.fixpoint_time.as_micros(),
            timed.total_time().as_micros(),
            timed.extraction_time.as_micros(),
            row.minimize_time.as_micros(),
            row.print_time.as_micros(),
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

/// A deterministic RNG for the benches.
#[must_use]
pub fn bench_rng() -> StdRng {
    StdRng::seed_from_u64(0x2008_D47E)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lep_instances_build_for_all_purposes() {
        for idx in 0..4 {
            let (system, purpose) = lep_instance(3, idx);
            assert_eq!(system.automata().len(), 3);
            assert!(!purpose.source.is_empty());
        }
    }

    #[test]
    fn zoo_has_the_lep4_scaling_rows() {
        let zoo = model_zoo();
        let lep4: Vec<_> = zoo.iter().filter(|i| i.model == "lep4").collect();
        assert_eq!(
            lep4.len(),
            2,
            "lep4 must contribute a reach and an avoid row"
        );
        assert!(lep4
            .iter()
            .any(|i| { i.purpose.quantifier == tiga_tctl::PathQuantifier::Reachability }));
        assert!(lep4
            .iter()
            .any(|i| { i.purpose.quantifier == tiga_tctl::PathQuantifier::Safety }));
    }

    #[test]
    fn zoo_has_one_bounded_instance_of_each_quantifier() {
        let zoo = model_zoo();
        let bounded: Vec<_> = zoo.iter().filter(|i| i.purpose.bound.is_some()).collect();
        assert_eq!(bounded.len(), 2, "one bounded reach + one bounded safety");
        assert!(bounded
            .iter()
            .any(|i| i.purpose.quantifier == tiga_tctl::PathQuantifier::Reachability));
        assert!(bounded
            .iter()
            .any(|i| i.purpose.quantifier == tiga_tctl::PathQuantifier::Safety));
        assert!(bounded.iter().all(|i| i.purpose_name == "bounded"));
    }

    #[test]
    fn smart_light_harness_synthesizes() {
        let harness = smart_light_harness();
        assert!(harness.strategy().rule_count() > 0);
    }
}
