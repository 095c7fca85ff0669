//! Edge cases of the deterministic parallel merge.
//!
//! The sharded phases must behave exactly like the sequential solver when
//! the shard layout is degenerate:
//!
//! * **empty delta batches** — a losing game whose π-update produces no
//!   growth in any round (the merge loop sees only empty updates and must
//!   still converge, not spin),
//! * **single-discrete-state games** — more worker threads than work items,
//!   so most per-thread slots stay empty,
//! * **a winning set that changes in the last sharded iteration** — a chain
//!   game whose root is decided only in the final round, pinning that merge
//!   order cannot mask (or double-report) convergence.

use tiga_bench::SOLVERS;
use tiga_model::{AutomatonBuilder, EdgeBuilder, System, SystemBuilder};
use tiga_solver::SolveOptions;
use tiga_tctl::TestPurpose;

const JOB_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// P's `step?` edges are closed by a chaotic environment automaton offering
/// `step!` forever, mirroring the closed products of the model zoo.
fn chain_system(levels: usize) -> System {
    let mut b = SystemBuilder::new("chain");
    let step = b.input_channel("step").unwrap();
    let mut p = AutomatonBuilder::new("P");
    let locations: Vec<_> = (0..levels)
        .map(|i| p.location(&format!("L{i}")).unwrap())
        .collect();
    for pair in locations.windows(2) {
        p.add_edge(EdgeBuilder::new(pair[0], pair[1]).input(step));
    }
    // No edge ever reaches Dead: purposes naming it are losing games whose
    // π-updates produce empty deltas in every round.
    p.location("Dead").unwrap();
    b.add_automaton(p.build().unwrap()).unwrap();
    let mut u = AutomatonBuilder::new("U");
    let only = u.location("Only").unwrap();
    u.add_edge(EdgeBuilder::new(only, only).output(step));
    b.add_automaton(u.build().unwrap()).unwrap();
    b.build().unwrap()
}

fn assert_all_jobs_agree(system: &System, purpose_text: &str, expect_winning: bool) {
    let purpose = TestPurpose::parse(purpose_text, system).unwrap();
    for (engine, solve) in SOLVERS {
        let mut reference = None;
        for jobs in JOB_COUNTS {
            let options = SolveOptions {
                jobs,
                ..SolveOptions::default()
            };
            let solution = solve(system, &purpose, &options).expect("solves");
            assert_eq!(
                solution.winning_from_initial, expect_winning,
                "[{engine}] jobs={jobs}: unexpected verdict for `{purpose_text}`"
            );
            match &reference {
                None => reference = Some(solution),
                Some(first) => {
                    assert_eq!(
                        solution.stats(),
                        first.stats(),
                        "[{engine}] jobs={jobs}: stats drifted"
                    );
                    assert_eq!(
                        solution.winning, first.winning,
                        "[{engine}] jobs={jobs}: winning federations drifted"
                    );
                }
            }
        }
    }
}

#[test]
fn losing_game_yields_empty_delta_batches() {
    // Dead has no incoming edge, so every π-update batch is empty from
    // round one and the solver must converge to LOSING at every thread
    // count instead of spinning.
    let system = chain_system(1);
    assert_all_jobs_agree(&system, "control: A<> P.Dead", false);
}

#[test]
fn single_discrete_state_game() {
    // The goal holds in the initial state: exploration stops at the goal,
    // the graph has exactly one discrete state, and the shard has fewer
    // items than worker threads (most slots stay empty).
    let system = chain_system(1);
    let purpose = TestPurpose::parse("control: A<> P.L0", &system).unwrap();
    for (engine, solve) in SOLVERS {
        for jobs in JOB_COUNTS {
            let options = SolveOptions {
                jobs,
                ..SolveOptions::default()
            };
            let solution = solve(&system, &purpose, &options).expect("solves");
            assert!(solution.winning_from_initial, "[{engine}] jobs={jobs}");
            assert_eq!(
                solution.stats().discrete_states,
                1,
                "[{engine}] jobs={jobs}: expected a single-state game"
            );
        }
    }
    assert_all_jobs_agree(&system, "control: A<> P.L0", true);
}

#[test]
fn winning_set_changes_in_the_last_sharded_iteration() {
    // A 6-level chain: the winning set grows backwards one level per
    // fixpoint round, so the root's federation changes in the very last
    // iteration that still carries a delta.  If the merge dropped or
    // reordered late deltas, either the verdict would flip or the iteration
    // count would drift between thread counts.
    let system = chain_system(6);
    assert_all_jobs_agree(&system, "control: A<> P.L5", true);

    // The same game without early termination: the final round must report
    // "no change" identically at every thread count for the loop to stop.
    let purpose = TestPurpose::parse("control: A<> P.L5", &system).unwrap();
    for (engine, solve) in SOLVERS {
        let mut reference = None;
        for jobs in JOB_COUNTS {
            let options = SolveOptions {
                jobs,
                early_termination: false,
                ..SolveOptions::default()
            };
            let solution = solve(&system, &purpose, &options).expect("solves");
            assert!(solution.winning_from_initial);
            match &reference {
                None => reference = Some(solution),
                Some(first) => {
                    assert_eq!(
                        solution.stats(),
                        first.stats(),
                        "[{engine}] jobs={jobs}: exhaustive stats drifted"
                    );
                    assert_eq!(solution.winning, first.winning);
                }
            }
        }
    }
}
