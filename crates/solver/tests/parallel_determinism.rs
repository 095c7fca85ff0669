//! Thread-count equivalence suite: the repo's signature invariant, extended
//! to the intra-solve parallel phases.
//!
//! For both solvers (`solve` and the `solve_jacobi` reference) × every
//! benchmark-zoo/fuzz instance, solving with `jobs ∈ {1, 2, 4, 8}` (run on
//! at most as many threads as the machine has cores) must produce
//! **bit-identical** results:
//!
//! * the verdict (`winning_from_initial`),
//! * the full per-node winning federations (structural equality, so even
//!   zone *order* inside each federation must match),
//! * every [`SolverStats`] counter,
//! * the extracted strategy decisions, state by state.
//!
//! This holds by construction — worker threads only compute updates against
//! immutable snapshots (successor candidates during exploration, π-updates
//! during the fixpoint) and the single merge thread applies them in
//! canonical state order — and this suite pins the construction.
//!
//! Mirrors `crates/core/tests/parallel_determinism.rs`, which pins the same
//! contract for the campaign/fuzz work queue.

use tiga_bench::{fuzz_matrix_instances, model_zoo, Solver, ZooInstance, SOLVERS};
use tiga_solver::{GameSolution, SolveOptions, StrategyRule};

const PARALLEL_JOBS: [usize; 3] = [2, 4, 8];

/// The strategy flattened into graph-node order so two runs can be compared
/// decision by decision (the `Strategy` map itself is hash-ordered).
fn strategy_decisions(solution: &GameSolution) -> Option<Vec<Vec<StrategyRule>>> {
    let strategy = solution.strategy.as_ref()?;
    Some(
        (0..solution.graph.len())
            .map(|node| {
                strategy
                    .rules_for(&solution.graph.node(node).discrete)
                    .map(<[StrategyRule]>::to_vec)
                    .unwrap_or_default()
            })
            .collect(),
    )
}

fn assert_jobs_equivalent(instance: &ZooInstance, (engine, solve): (&str, Solver)) {
    let options = |jobs| SolveOptions {
        jobs,
        ..SolveOptions::default()
    };
    let context = format!("{}/{} [{engine}]", instance.model, instance.purpose_name);
    let sequential =
        solve(&instance.system, &instance.purpose, &options(1)).expect("sequential solve");
    for jobs in PARALLEL_JOBS {
        let parallel =
            solve(&instance.system, &instance.purpose, &options(jobs)).expect("parallel solve");
        assert_eq!(
            parallel.winning_from_initial, sequential.winning_from_initial,
            "{context}: verdict differs at jobs={jobs}"
        );
        assert_eq!(
            parallel.stats(),
            sequential.stats(),
            "{context}: SolverStats differ at jobs={jobs}"
        );
        assert_eq!(
            parallel.winning, sequential.winning,
            "{context}: winning federations differ at jobs={jobs}"
        );
        assert_eq!(
            strategy_decisions(&parallel),
            strategy_decisions(&sequential),
            "{context}: strategy decisions differ at jobs={jobs}"
        );
    }
}

fn sweep(solver: (&str, Solver)) {
    for instance in model_zoo() {
        assert_jobs_equivalent(&instance, solver);
    }
    for instance in fuzz_matrix_instances() {
        assert_jobs_equivalent(&instance, solver);
    }
}

#[test]
fn otfur_is_bit_identical_for_any_thread_count() {
    sweep(SOLVERS[0]);
}

#[test]
fn jacobi_is_bit_identical_for_any_thread_count() {
    sweep(SOLVERS[1]);
}

#[test]
fn exhaustive_mode_is_bit_identical_too() {
    // Without early termination every node's final federation is reached,
    // so the very last fixpoint iteration still carries deltas — the merge
    // must not mask them regardless of the shard layout.
    let zoo = model_zoo();
    let instance = zoo
        .iter()
        .find(|i| i.model == "lep4" && i.purpose_name == "tp2")
        .expect("zoo has lep4/tp2");
    for (engine, solve) in SOLVERS {
        let options = |jobs| SolveOptions {
            jobs,
            early_termination: false,
            ..SolveOptions::default()
        };
        let sequential = solve(&instance.system, &instance.purpose, &options(1)).expect("solves");
        for jobs in PARALLEL_JOBS {
            let parallel =
                solve(&instance.system, &instance.purpose, &options(jobs)).expect("solves");
            assert_eq!(
                parallel.stats(),
                sequential.stats(),
                "[{engine}] jobs={jobs}"
            );
            assert_eq!(
                parallel.winning, sequential.winning,
                "[{engine}] jobs={jobs}"
            );
        }
    }
}
