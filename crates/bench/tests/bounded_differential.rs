//! Differential tests for time-bounded objectives (`A<><=T` / `A[]<=T`).
//!
//! The bounded solver is validated against the unbounded one:
//!
//! * for a bound far beyond every clock ceiling, the bounded verdict must
//!   equal the unbounded verdict on every zoo instance (the `#t` clip is
//!   vacuous), for both solvers;
//! * verdicts are monotone in the bound: `Win(T1) ⊆ Win(T2)` for
//!   `T1 <= T2` on reachability, and dually `Win(T2) ⊆ Win(T1)` on
//!   safety — pinned on a ladder of bounds over the zoo;
//! * shrinking the bound below the enforceability threshold flips the
//!   Smart Light `A<> IUT.Bright` instance from winning to losing at
//!   exactly `T = 5` (the bound the zoo's checked-in instance uses).

use tiga_bench::{model_zoo, SOLVERS};
use tiga_solver::{solve, solve_jacobi, SolveOptions};
use tiga_tctl::{PathQuantifier, TestPurpose};

/// A bound that no run can exhaust on the zoo models: larger than any
/// clock ceiling a zoo product mentions, so clipping `#t <= HUGE` never
/// removes a reachable valuation.
const HUGE_BOUND: i64 = 10_000;

#[test]
fn a_vacuously_large_bound_matches_the_unbounded_verdict_across_the_zoo() {
    for instance in model_zoo() {
        if instance.purpose.bound.is_some() {
            continue; // already bounded; covered by the monotonicity sweep
        }
        if instance.model == "lep4" {
            // The detailed lep4 workloads take seconds per bounded solve
            // (the `#t` clock multiplies the zone count); the clip
            // semantics are fully exercised by the smaller models.
            continue;
        }
        let bounded = instance.purpose.clone().with_bound(HUGE_BOUND);
        for (engine, solve) in SOLVERS {
            let options = SolveOptions::default();
            let unbounded =
                solve(&instance.system, &instance.purpose, &options).expect("unbounded solves");
            let clipped = solve(&instance.system, &bounded, &options).expect("bounded solves");
            assert_eq!(
                unbounded.winning_from_initial, clipped.winning_from_initial,
                "{}/{} [{engine}]: a vacuous bound of {HUGE_BOUND} changed the verdict",
                instance.model, instance.purpose_name,
            );
            assert_eq!(clipped.bound, Some(HUGE_BOUND));
            assert_eq!(unbounded.bound, None);
        }
    }
}

#[test]
fn verdicts_are_monotone_in_the_bound() {
    // Reachability: winning under a tight deadline implies winning under a
    // looser one.  Safety: dually, safe up to a loose deadline implies
    // safe up to a tighter one.
    let ladder = [0, 1, 2, 4, 5, 8, 30, HUGE_BOUND];
    for instance in model_zoo() {
        if instance.purpose.bound.is_some() || instance.model == "lep4" {
            continue; // lep4: seconds per bounded solve, nothing new semantically
        }
        let verdicts: Vec<bool> = ladder
            .iter()
            .map(|&t| {
                let purpose = instance.purpose.clone().with_bound(t);
                solve_jacobi(&instance.system, &purpose, &SolveOptions::default())
                    .expect("solves")
                    .winning_from_initial
            })
            .collect();
        let monotone = match instance.purpose.quantifier {
            PathQuantifier::Reachability => verdicts.windows(2).all(|w| w[0] <= w[1]),
            PathQuantifier::Safety => verdicts.windows(2).all(|w| w[0] >= w[1]),
        };
        assert!(
            monotone,
            "{}/{}: verdicts not monotone over bounds {ladder:?}: {verdicts:?}",
            instance.model, instance.purpose_name,
        );
    }
}

#[test]
fn shrinking_the_bound_flips_smart_light_bright_to_losing() {
    let zoo = model_zoo();
    let bright = zoo
        .iter()
        .find(|i| i.model == "smart_light" && i.purpose_name == "bright")
        .expect("zoo has smart_light/bright");
    // The unbounded objective is enforceable...
    let unbounded =
        solve(&bright.system, &bright.purpose, &SolveOptions::default()).expect("unbounded solves");
    assert!(unbounded.winning_from_initial);
    for (engine, solve) in SOLVERS {
        let options = SolveOptions::default();
        // ...and so is the zoo's checked-in bound of 5 (the threshold)...
        let at_threshold = bright.purpose.clone().with_bound(5);
        let won = solve(&bright.system, &at_threshold, &options).expect("solves");
        assert!(
            won.winning_from_initial,
            "[{engine}] A<><=5 IUT.Bright must stay winning"
        );
        // ...but one time unit tighter the controller can no longer force
        // Bright in time, on every engine.
        let too_tight = bright.purpose.clone().with_bound(4);
        let lost = solve(&bright.system, &too_tight, &options).expect("solves");
        assert!(
            !lost.winning_from_initial,
            "[{engine}] A<><=4 IUT.Bright must be losing"
        );
    }
}

#[test]
fn bounded_strategies_range_over_the_augmented_product() {
    // Every bounded zoo instance extracts a strategy one clock wider than
    // its product (the `#t` column), and re-solving is deterministic.
    for instance in model_zoo() {
        let Some(bound) = instance.purpose.bound else {
            continue;
        };
        let first = solve(
            &instance.system,
            &instance.purpose,
            &SolveOptions::default(),
        )
        .expect("solves");
        let second = solve(
            &instance.system,
            &instance.purpose,
            &SolveOptions::default(),
        )
        .expect("solves");
        assert!(first.winning_from_initial, "bounded zoo rows are winning");
        assert_eq!(first.bound, Some(bound));
        let strategy = first.strategy.as_ref().expect("strategy extracted");
        assert_eq!(
            strategy.dim(),
            instance.system.dim() + 1,
            "{}/{}: bounded strategies carry the #t clock",
            instance.model,
            instance.purpose_name
        );
        assert_eq!(
            strategy,
            second.strategy.as_ref().expect("strategy extracted"),
            "{}/{}: bounded synthesis must be deterministic",
            instance.model,
            instance.purpose_name
        );
    }
}

#[test]
fn with_bound_is_usable_on_parsed_purposes() {
    // `with_bound` on an already-parsed purpose must clear the stale
    // source text so caching keys cannot alias a differently-bounded
    // purpose (the canonical display is regenerated instead).
    let zoo = model_zoo();
    let bright = zoo
        .iter()
        .find(|i| i.model == "smart_light" && i.purpose_name == "bright")
        .expect("zoo has smart_light/bright");
    let bounded = bright.purpose.clone().with_bound(7);
    assert_eq!(bounded.bound, Some(7));
    let rendered = bounded.display(&bright.system).to_string();
    assert!(
        rendered.contains("<=7"),
        "canonical rendering must carry the bound: {rendered}"
    );
    let reparsed = TestPurpose::parse(&rendered, &bright.system).expect("canonical form parses");
    assert_eq!(reparsed.bound, Some(7));
    assert_eq!(reparsed.quantifier, bounded.quantifier);
    assert_eq!(reparsed.predicate, bounded.predicate);
}
