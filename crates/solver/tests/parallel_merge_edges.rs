//! Edge cases of the solvers' snapshot-then-merge fixpoint rounds.
//!
//! Each round evaluates its π-updates against the previous iterate and then
//! merges them in order.  Both solvers must converge exactly when the
//! rounds are degenerate:
//!
//! * **empty delta batches** — a losing game whose π-update produces no
//!   growth in any round (the merge loop sees only empty updates and must
//!   still converge, not spin),
//! * **single-discrete-state games** — the goal holds initially and
//!   exploration stops at the root,
//! * **a winning set that changes in the last iteration** — a chain game
//!   whose root is decided only in the final round that carries a delta,
//!   pinning that merge order cannot mask (or double-report) convergence,
//!   with and without early termination.
//!
//! Each solve pins its verdict, discrete-state count and iteration count,
//! and a second solve of the same game must repeat its counters and
//! winning federations.
//!
//! A round budget (`max_rounds`) that runs out before the fixpoint must
//! fail the solve instead of reporting a verdict from partial federations.

use tiga_bench::SOLVERS;
use tiga_model::{AutomatonBuilder, ClockConstraint, CmpOp, EdgeBuilder, System, SystemBuilder};
use tiga_solver::{SolveOptions, SolverError};
use tiga_tctl::TestPurpose;

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

/// Solves `purpose_text` twice on each solver and checks the verdict, the
/// discrete-state count and the iteration count (`[otfur, jacobi]`).
fn assert_converges(
    system: &System,
    purpose_text: &str,
    early_termination: bool,
    expect_winning: bool,
    discrete_states: usize,
    iterations: [usize; 2],
) {
    let purpose = TestPurpose::parse(purpose_text, system).unwrap();
    let options = SolveOptions {
        early_termination,
        ..SolveOptions::default()
    };
    for ((engine, solve), iterations) in SOLVERS.into_iter().zip(iterations) {
        let label = format!("[{engine}] `{purpose_text}` early={early_termination}");
        let solution = solve(system, &purpose, &options).expect("solves");
        let stats = solution.stats();
        assert_eq!(solution.winning_from_initial, expect_winning, "{label}");
        assert_eq!(stats.discrete_states, discrete_states, "{label}");
        assert_eq!(stats.iterations, iterations, "{label}");
        let again = solve(system, &purpose, &options).expect("solves");
        assert_eq!(again.stats(), stats, "{label}: stats drifted");
        assert_eq!(
            again.winning, solution.winning,
            "{label}: winning federations drifted"
        );
    }
}

#[test]
fn losing_game_yields_empty_delta_batches() {
    // Dead has no incoming edge, so every π-update batch is empty from
    // round one and the solver must converge to LOSING instead of spinning.
    let system = chain_system(1);
    assert_converges(&system, "control: A<> P.Dead", true, false, 1, [1, 1]);
}

#[test]
fn single_discrete_state_game() {
    // The goal holds in the initial state: exploration stops at the goal
    // and the graph has exactly one discrete state.
    let system = chain_system(1);
    assert_converges(&system, "control: A<> P.L0", true, true, 1, [1, 1]);
}

#[test]
fn winning_set_changes_in_the_last_sharded_iteration() {
    // A 6-level chain: the winning set grows backwards one level per
    // fixpoint round, so the root's federation changes in the very last
    // iteration that still carries a delta.  If the merge dropped or
    // reordered late deltas, either the verdict would flip or the iteration
    // count would drift.  Jacobi's sixth round is the one that changes
    // nothing.
    let system = chain_system(6);
    assert_converges(&system, "control: A<> P.L5", true, true, 6, [11, 6]);
    // Without early termination the final round must report "no change"
    // for the loop to stop.
    assert_converges(&system, "control: A<> P.L5", false, true, 6, [11, 6]);
}

/// `S0 -a!-> S1 -b!-> S2 -c!-> Bad`, each step forced within one time unit
/// by `inv x <= 1`: every play reaches `Bad`, so `A[] not P.Bad` is losing,
/// but only after the attractor has grown back over three rounds.
fn forced_output_chain() -> System {
    let mut b = SystemBuilder::new("forced");
    let x = b.clock("x").unwrap();
    let outputs = ["a", "b", "c"].map(|name| b.output_channel(name).unwrap());
    let mut p = AutomatonBuilder::new("P");
    let steps: Vec<_> = ["S0", "S1", "S2"]
        .iter()
        .map(|name| p.location(name).unwrap())
        .collect();
    let bad = p.location("Bad").unwrap();
    for &step in &steps {
        p.set_invariant(step, vec![ClockConstraint::new(x, CmpOp::Le, 1)]);
    }
    let targets = [steps[1], steps[2], bad];
    for ((&from, to), channel) in steps.iter().zip(targets).zip(outputs) {
        p.add_edge(EdgeBuilder::new(from, to).output(channel).reset(x));
    }
    b.add_automaton(p.build().unwrap()).unwrap();
    let mut env = AutomatonBuilder::new("Env");
    let only = env.location("E").unwrap();
    for channel in outputs {
        env.add_edge(EdgeBuilder::new(only, only).input(channel));
    }
    b.add_automaton(env.build().unwrap()).unwrap();
    b.build().unwrap()
}

#[test]
fn an_exhausted_round_budget_is_an_error_not_a_verdict() {
    let system = forced_output_chain();
    let purpose = TestPurpose::parse("control: A[] not P.Bad", &system).unwrap();
    for (engine, solve) in SOLVERS {
        let solution = solve(&system, &purpose, &SolveOptions::default()).expect("solves");
        assert!(!solution.winning_from_initial, "[{engine}] forced into Bad");
        let tight = SolveOptions {
            max_rounds: 1,
            ..SolveOptions::default()
        };
        let err = solve(&system, &purpose, &tight).expect_err("the budget runs out");
        assert_eq!(
            err,
            SolverError::RoundLimitExceeded { limit: 1 },
            "[{engine}]"
        );
    }
}
