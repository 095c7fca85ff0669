//! Differential tests: the two solver engines must agree.
//!
//! The Jacobi fixpoint is the oracle.  The on-the-fly (OTFUR) engine must
//! return the same `winning_from_initial` on every model-zoo
//! purpose and on seeded Smart Light mutants, and an exhaustive (no early
//! termination) on-the-fly run must compute semantically identical winning
//! federations on every discrete state the oracle explored.

use tiga_bench::{engine_matrix_rows, model_zoo};
use tiga_model::DiscreteState;
use tiga_models::smart_light;
use tiga_solver::{solve, solve_jacobi, SolveOptions};
use tiga_tctl::TestPurpose;
use tiga_testing::{generate_mutants, MutationConfig};

fn otfur_options(early_termination: bool) -> SolveOptions {
    SolveOptions {
        early_termination,
        ..SolveOptions::default()
    }
}

#[test]
fn engines_agree_across_the_model_zoo() {
    for instance in model_zoo() {
        let rows = engine_matrix_rows(&instance);
        assert_eq!(rows.len(), 2);
        let verdicts: Vec<bool> = rows
            .iter()
            .map(|r| r.solution.winning_from_initial)
            .collect();
        assert!(
            verdicts.windows(2).all(|w| w[0] == w[1]),
            "engines disagree on {}/{}: {:?}",
            instance.model,
            instance.purpose_name,
            rows.iter()
                .map(|r| (r.engine.as_str(), r.solution.winning_from_initial))
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn exhaustive_otfur_matches_jacobi_federations_on_zoo() {
    for instance in model_zoo() {
        let jacobi = solve_jacobi(
            &instance.system,
            &instance.purpose,
            &SolveOptions::default(),
        )
        .expect("jacobi solves");
        let otfur = solve(&instance.system, &instance.purpose, &otfur_options(false))
            .expect("otfur solves");
        assert!(!otfur.stats().early_terminated);
        assert_eq!(
            jacobi.graph.len(),
            otfur.graph.len(),
            "exhaustive runs must explore the same discrete states ({}/{})",
            instance.model,
            instance.purpose_name
        );
        let mut discrete = DiscreteState::default();
        for (id, node) in jacobi.graph.nodes().iter().enumerate() {
            jacobi.graph.discrete(id, &mut discrete);
            let other = otfur
                .graph
                .node_of(&discrete)
                .expect("state explored by both");
            // The on-the-fly engine confines winning sets to the explored
            // reach zones; within them it must match the oracle exactly.
            let expected = jacobi.winning[id].intersection(&node.reach);
            assert!(
                expected.set_equals(&otfur.winning[other]),
                "winning sets differ on {}/{} in {}",
                instance.model,
                instance.purpose_name,
                discrete.display(&instance.system)
            );
        }
    }
}

#[test]
fn engines_agree_on_seeded_smart_light_mutants() {
    // Mutating the closed product yields perturbed games (shifted guards,
    // widened invariants, swapped/removed outputs, dropped resets); whether
    // each is still winnable is irrelevant — the engines must agree on it.
    let product = smart_light::product().expect("model builds");
    let mutants = generate_mutants(&product, &MutationConfig::default()).expect("mutants build");
    assert!(mutants.len() >= 8, "expected a meaningful mutant pool");
    let purpose_text = smart_light::PURPOSE_BRIGHT;
    let mut checked = 0;
    for mutant in mutants.iter().take(12) {
        let purpose = match TestPurpose::parse(purpose_text, &mutant.system) {
            Ok(p) => p,
            // A mutation may remove the goal location's automaton context;
            // those mutants are not games for this purpose.
            Err(_) => continue,
        };
        let jacobi = solve_jacobi(&mutant.system, &purpose, &SolveOptions::default())
            .expect("jacobi solves mutant");
        let otfur =
            solve(&mutant.system, &purpose, &otfur_options(true)).expect("otfur solves mutant");
        assert_eq!(
            jacobi.winning_from_initial, otfur.winning_from_initial,
            "otfur disagrees with jacobi on mutant {}",
            mutant.name
        );
        checked += 1;
    }
    assert!(checked >= 8, "too few mutants were solvable: {checked}");
}

#[test]
fn otfur_explores_strictly_fewer_states_on_a_winning_instance() {
    let mut witnessed = false;
    for instance in model_zoo() {
        let rows = engine_matrix_rows(&instance);
        let otfur = rows.iter().find(|r| r.engine == "otfur").unwrap();
        let jacobi = rows.iter().find(|r| r.engine == "jacobi").unwrap();
        let otfur_winning = otfur.solution.winning_from_initial;
        let reachability = instance.purpose.quantifier == tiga_tctl::PathQuantifier::Reachability;
        if otfur_winning && reachability {
            // Winning *reachability* games are decided as soon as the
            // initial state's winning federation covers the origin; a
            // winning safety game is a greatest fixpoint and can only be
            // certified by draining the waiting list (early termination
            // there fires on *losing* verdicts instead).
            assert!(
                otfur.solution.stats().early_terminated,
                "winning instance {}/{} should be decided early",
                instance.model,
                instance.purpose_name
            );
        }
        if otfur_winning && !reachability {
            assert!(
                !otfur.solution.stats().early_terminated,
                "a winning safety instance {}/{} cannot terminate early",
                instance.model,
                instance.purpose_name
            );
        }
        assert!(
            otfur.solution.stats().discrete_states <= jacobi.solution.stats().discrete_states,
            "on-the-fly must never explore more states than the eager engine"
        );
        if otfur_winning
            && otfur.solution.stats().discrete_states < jacobi.solution.stats().discrete_states
        {
            witnessed = true;
        }
    }
    assert!(
        witnessed,
        "no winning zoo instance with strictly fewer on-the-fly states"
    );
}
