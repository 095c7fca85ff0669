//! Property tests for strategy minimization and compiled controllers,
//! driven by solver-extracted strategies from generated winning games:
//!
//! * **decision preservation**: for random valuations — on-grid and
//!   off-grid (ticks not divisible by the scale, the rational-refmodel
//!   style) — over every discrete state of the strategy,
//!   `minimized.decide ≡ original.decide`, and likewise for `rank_of` and
//!   `next_take_delay`;
//! * **covered-region equality**: per discrete state, the union of wait
//!   zones (the covered winning region) is set-equal before and after
//!   minimization;
//! * **compiled ≡ interpreted**: the compiled controller answers every
//!   query identically to the strategy it was compiled from;
//! * **roundtrip**: `parse_controller(print_controller(c)) ≡ c`, and the
//!   printer is a fixpoint;
//! * **fixpoint**: one more round of the rewrites changes no minimized
//!   strategy.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tiga_dbm::Federation;
use tiga_gen::{generate_spec, GenConfig};
use tiga_model::DiscreteState;
use tiga_solver::{
    minimize_strategy, parse_controller, print_controller, solve, CompiledController, Controller,
    Decision, SolveOptions, Strategy,
};

const SCALE: i64 = 4;

/// Solves generated games until `want` winning strategies are collected.
fn solved_strategies(seed_base: u64, want: usize) -> Vec<Strategy> {
    let config = GenConfig::default();
    let mut options = SolveOptions::default();
    options.explore.max_states = 4_000;
    let mut out = Vec::new();
    let mut seed = seed_base;
    while out.len() < want && seed < seed_base + 4_000 {
        seed += 1;
        let spec = generate_spec(seed, &config);
        let Ok((system, purpose)) = spec.build() else {
            continue;
        };
        let Ok(solution) = solve(&system, &purpose, &options) else {
            continue;
        };
        if !solution.winning_from_initial {
            continue;
        }
        if let Some(strategy) = solution.strategy {
            if strategy.rule_count() > 0 {
                out.push(strategy);
            }
        }
    }
    assert!(
        out.len() >= want.min(8),
        "could not collect enough winning strategies ({} found)",
        out.len()
    );
    out
}

/// Random scaled tick valuations: a mix of on-grid (multiples of the scale)
/// and off-grid points, plus the origin.
fn sample_valuations(rng: &mut StdRng, clocks: usize, count: usize) -> Vec<Vec<i64>> {
    let mut out = vec![vec![0i64; clocks]];
    for round in 0..count {
        let mut ticks = vec![0i64; clocks];
        for t in ticks.iter_mut() {
            let units = rng.gen_range(0..=12i64);
            *t = if round % 2 == 0 {
                units * SCALE // on-grid
            } else {
                units * SCALE + rng.gen_range(0..SCALE) // off-grid
            };
        }
        out.push(ticks);
    }
    out
}

fn assert_equivalent(
    original: &Strategy,
    candidate: &dyn Controller,
    discrete: &DiscreteState,
    ticks: &[i64],
    what: &str,
) {
    assert_eq!(
        candidate.decide(discrete, ticks, SCALE),
        original.decide(discrete, ticks, SCALE),
        "{what}: decide diverged at {ticks:?}"
    );
    assert_eq!(
        candidate.rank_of(discrete, ticks, SCALE),
        original.rank_of(discrete, ticks, SCALE),
        "{what}: rank_of diverged at {ticks:?}"
    );
    assert_eq!(
        candidate.next_take_delay(discrete, ticks, SCALE),
        original.next_take_delay(discrete, ticks, SCALE),
        "{what}: next_take_delay diverged at {ticks:?}"
    );
}

#[test]
fn minimization_preserves_every_decision() {
    let mut rng = StdRng::seed_from_u64(0x0101_5eed);
    let strategies = solved_strategies(0x9000, 12);
    let mut shrunk_total = (0usize, 0usize);
    for (index, strategy) in strategies.iter().enumerate() {
        let minimized = minimize_strategy(strategy);
        shrunk_total.0 += minimized.rule_count();
        shrunk_total.1 += strategy.rule_count();
        assert!(minimized.rule_count() <= strategy.rule_count());
        let clocks = strategy.dim() - 1;
        let valuations = sample_valuations(&mut rng, clocks, 40);
        for (discrete, _) in strategy.iter() {
            for ticks in &valuations {
                assert_equivalent(
                    strategy,
                    &minimized,
                    discrete,
                    ticks,
                    &format!("strategy {index} minimized"),
                );
            }
        }
    }
    assert!(
        shrunk_total.0 <= shrunk_total.1,
        "minimization must never grow strategies"
    );
}

/// Minimizing a minimized strategy runs one more round of the rewrites per
/// rule list and stops there, because that round merges nothing; the
/// result must equal its input.  This is the argument for ending the loop
/// after the first round without a merge: such a round leaves the next one
/// nothing to drop or merge.
#[test]
fn an_extra_minimization_round_changes_nothing() {
    for (seed, want) in [(0x9000, 12), (0xA000, 10)] {
        for (index, strategy) in solved_strategies(seed, want).iter().enumerate() {
            let minimized = minimize_strategy(strategy);
            assert_eq!(
                minimize_strategy(&minimized),
                minimized,
                "strategy {index} of seed base {seed:#x}"
            );
        }
    }
}

#[test]
fn minimization_preserves_the_covered_region_exactly() {
    let strategies = solved_strategies(0xA000, 10);
    for strategy in &strategies {
        let minimized = minimize_strategy(strategy);
        for (discrete, rules) in strategy.iter() {
            let dim = strategy.dim();
            let wait_zones = |rules: &[tiga_solver::StrategyRule]| {
                Federation::from_zones(
                    dim,
                    rules
                        .iter()
                        .filter(|r| matches!(r.decision, Decision::Wait))
                        .map(|r| r.zone.clone()),
                )
            };
            let before = wait_zones(rules);
            let after = wait_zones(minimized.rules_for(discrete).unwrap_or(&[]));
            assert!(
                before.set_equals(&after),
                "covered wait region changed for {discrete:?}"
            );
        }
    }
}

#[test]
fn compiled_controller_is_pointwise_identical_to_the_strategy() {
    let mut rng = StdRng::seed_from_u64(0xC0DE_CAFE);
    let strategies = solved_strategies(0xB000, 12);
    for (index, strategy) in strategies.iter().enumerate() {
        let compiled = CompiledController::compile(strategy);
        assert_eq!(Controller::dim(&compiled), Strategy::dim(strategy));
        let clocks = strategy.dim() - 1;
        let valuations = sample_valuations(&mut rng, clocks, 40);
        for (discrete, _) in strategy.iter() {
            for ticks in &valuations {
                assert_equivalent(
                    strategy,
                    &compiled,
                    discrete,
                    ticks,
                    &format!("strategy {index} compiled"),
                );
            }
        }
    }
}

#[test]
fn controller_serialization_roundtrips_exactly() {
    let strategies = solved_strategies(0xC000, 8);
    for (index, strategy) in strategies.iter().enumerate() {
        let compiled = CompiledController::compile(strategy);
        let text = print_controller(&format!("gen-{index}"), true, Some(&compiled));
        let file = parse_controller(&text)
            .unwrap_or_else(|e| panic!("strategy {index}: parse failed: {e}"));
        assert!(file.winning);
        assert_eq!(file.controller.as_ref(), Some(&compiled));
        let again = print_controller(&format!("gen-{index}"), true, file.controller.as_ref());
        assert_eq!(
            again, text,
            "printer is not a fixpoint for strategy {index}"
        );
    }
}
