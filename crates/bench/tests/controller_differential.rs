//! Differential pins for strategy minimization and compiled controllers.
//!
//! The whole decide path now runs behind the [`Controller`] abstraction,
//! with the interpreted [`Strategy`] kept as the reference implementation.
//! These tests pin the refactor's core claim against fresh solves of the
//! model zoo rather than against unit fixtures:
//!
//! * **query equivalence** — for every zoo instance with a winning
//!   strategy, under both extraction engines, the minimized strategy and
//!   the compiled controller answer `decide` / `rank_of` /
//!   `next_take_delay` / `decide_with_wakeup` exactly like the original, on
//!   solver-derived corner points and on random on-/off-grid valuations,
//!   and the wake-up is exactly the first delay at which `decide` stops
//!   answering `Wait`;
//! * **execution equivalence** — running the synthesized test harness with
//!   the compiled controller (the default path) produces reports — verdict
//!   *and* full timed trace — identical to runs driven by the interpreted
//!   strategy, on conformant plants and seeded mutants under both output
//!   policies;
//! * **compression** — the OTFUR-extracted lep4 avoid-purpose strategy
//!   (the Table 1 safety workload) minimizes to at most half its rule
//!   count, the reduction the compiled-controller pipeline is sized by.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tiga_bench::{lep_instance, model_zoo, SOLVERS};
use tiga_models::{coffee_machine, smart_light};
use tiga_solver::{
    minimize_strategy, minimize_strategy_with_report, solve, CompiledController, Controller,
    SolveOptions, Strategy,
};
use tiga_testing::{
    derive_run_seed, generate_mutants, MutationConfig, OutputPolicy, SimulatedIut, TestConfig,
    TestHarness,
};

const SCALE: i64 = 4;

/// Query points for one discrete state: the corners of every rule zone
/// (each clock pinned to its unary lower/upper bound constant, the
/// solver-derived skeleton of the region) plus seeded random on-grid and
/// off-grid valuations.
fn sample_points(
    rules: &[tiga_solver::StrategyRule],
    clocks: usize,
    rng: &mut StdRng,
) -> Vec<Vec<i64>> {
    let mut points = vec![vec![0i64; clocks]];
    for rule in rules {
        let mut lower = vec![0i64; clocks];
        let mut upper = vec![0i64; clocks];
        for i in 0..clocks {
            // 0 - x_i <= m encodes x_i >= -m; x_i - 0 <= m encodes x_i <= m.
            let lo = rule.zone.at(0, i + 1).constant().map_or(0, |m| -m) as i64;
            let hi = rule.zone.at(i + 1, 0).constant().map_or(lo + 3, i64::from);
            lower[i] = lo * SCALE;
            upper[i] = hi * SCALE;
        }
        points.push(lower.clone());
        points.push(upper);
        // An off-grid nudge just inside the lower corner.
        for t in lower.iter_mut() {
            *t += 1;
        }
        points.push(lower);
    }
    for round in 0..24 {
        let mut ticks = vec![0i64; clocks];
        for t in ticks.iter_mut() {
            let units = rng.gen_range(0..=16i64);
            *t = if round % 2 == 0 {
                units * SCALE
            } else {
                units * SCALE + rng.gen_range(0..SCALE)
            };
        }
        points.push(ticks);
    }
    points
}

/// Asserts that `candidate` answers every controller query exactly like
/// the interpreted original at one point.
fn assert_same_answers(
    original: &Strategy,
    candidate: &dyn Controller,
    discrete: &tiga_model::DiscreteState,
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
    // The fused per-step query: the same decision and the same wake-up
    // `W`, and `W` is exactly where `decide` stops answering `Wait` along
    // the delay ray.
    let fused = original.decide_with_wakeup(discrete, ticks, SCALE);
    assert_eq!(
        candidate.decide_with_wakeup(discrete, ticks, SCALE),
        fused,
        "{what}: decide_with_wakeup diverged at {ticks:?}"
    );
    let Some((decision, wakeup)) = fused else {
        return;
    };
    assert_eq!(
        Some(&decision),
        original.decide(discrete, ticks, SCALE).as_ref(),
        "{what}: decide_with_wakeup decided differently at {ticks:?}"
    );
    if !matches!(decision, tiga_solver::StrategyDecision::Wait { .. }) {
        assert_eq!(wakeup, None, "{what}: a take with a wake-up at {ticks:?}");
        return;
    }
    let waits_after = |d: i64| {
        let delayed: Vec<i64> = ticks.iter().map(|t| t + d).collect();
        matches!(
            original.decide(discrete, &delayed, SCALE),
            Some(tiga_solver::StrategyDecision::Wait { .. })
        )
    };
    // Every tick before the wake-up waits; with no wake-up, every tick of
    // the next 256 time units does.
    let end = wakeup.unwrap_or(256 * SCALE);
    assert!(end > 0, "{what}: a wake-up of {end} at {ticks:?}");
    for d in 0..end {
        assert!(
            waits_after(d),
            "{what}: no wait {d} ticks after {ticks:?}, before its wake-up {wakeup:?}"
        );
    }
    if let Some(w) = wakeup {
        assert!(
            !waits_after(w),
            "{what}: still a wait at the wake-up {w} after {ticks:?}"
        );
    }
}

fn assert_strategy_compiles_equivalently(strategy: &Strategy, what: &str, rng: &mut StdRng) {
    let minimized = minimize_strategy(strategy);
    assert!(
        minimized.rule_count() <= strategy.rule_count(),
        "{what}: minimization grew the strategy"
    );
    let compiled = CompiledController::compile(strategy);
    let clocks = strategy.dim() - 1;
    for (discrete, rules) in strategy.iter() {
        for ticks in sample_points(rules, clocks, rng) {
            assert_same_answers(strategy, &minimized, discrete, &ticks, what);
            assert_same_answers(strategy, &compiled, discrete, &ticks, what);
        }
    }
}

#[test]
fn minimized_and_compiled_controllers_answer_identically_across_the_zoo() {
    let mut rng = StdRng::seed_from_u64(0x00C0_4711);
    // The small zoo models under both extraction engines; the detailed
    // lep4 workload is covered (OTFUR-extracted) by the compression pin.
    for instance in model_zoo().iter().filter(|i| i.model != "lep4") {
        for (engine, solve) in SOLVERS {
            let solution = solve(
                &instance.system,
                &instance.purpose,
                &SolveOptions::default(),
            )
            .expect("zoo instances solve");
            let Some(strategy) = solution.strategy.as_ref() else {
                continue;
            };
            let what = format!("{}/{} ({engine})", instance.model, instance.purpose_name);
            assert_strategy_compiles_equivalently(strategy, &what, &mut rng);
        }
    }
}

/// Every zoo strategy, minimized, is a fixpoint of one more minimization
/// round: minimizing it again (one round per rule list, which merges
/// nothing and so ends the loop) returns it unchanged.
#[test]
fn an_extra_minimization_round_changes_no_zoo_strategy() {
    for instance in model_zoo() {
        let solvers = if instance.model == "lep4" {
            &SOLVERS[..1]
        } else {
            &SOLVERS[..]
        };
        for &(engine, solve) in solvers {
            let solution = solve(
                &instance.system,
                &instance.purpose,
                &SolveOptions::default(),
            )
            .expect("zoo instances solve");
            let Some(strategy) = solution.strategy.as_ref() else {
                continue;
            };
            let minimized = minimize_strategy(strategy);
            assert_eq!(
                minimize_strategy(&minimized),
                minimized,
                "{}/{} ({engine})",
                instance.model,
                instance.purpose_name
            );
        }
    }
}

#[test]
fn executor_runs_are_identical_under_interpreted_and_compiled_control() {
    let config = TestConfig {
        max_steps: 300,
        max_ticks: 4_000,
        ..TestConfig::default()
    };
    let cases = [
        (
            smart_light::product().expect("model builds"),
            smart_light::plant().expect("model builds"),
            smart_light::PURPOSE_BRIGHT,
        ),
        (
            smart_light::product().expect("model builds"),
            smart_light::plant().expect("model builds"),
            smart_light::PURPOSE_NEVER_BRIGHT,
        ),
        (
            coffee_machine::product().expect("model builds"),
            coffee_machine::plant().expect("model builds"),
            coffee_machine::PURPOSE_COFFEE,
        ),
        (
            coffee_machine::product().expect("model builds"),
            coffee_machine::plant().expect("model builds"),
            coffee_machine::PURPOSE_NO_REFUND,
        ),
    ];
    for (product, spec, purpose) in cases {
        let harness = TestHarness::synthesize(product.clone(), spec, purpose, config.clone())
            .unwrap_or_else(|e| panic!("synthesis failed for {purpose}: {e}"));
        let mut implementations = vec![("conformant".to_string(), product.clone())];
        let mutants = generate_mutants(&product, &MutationConfig::default()).expect("mutants");
        implementations.extend(
            mutants
                .into_iter()
                .take(6)
                .map(|m| (m.name.clone(), m.system)),
        );
        for (name, system) in implementations {
            for policy in [OutputPolicy::Eager, OutputPolicy::Lazy] {
                // `execute` drives the compiled controller; the second run
                // re-executes the very same plant under the interpreted
                // strategy.  The full report must match — verdict, timed
                // trace, step count.
                let mut a = SimulatedIut::new(&name, system.clone(), 4, policy);
                let compiled = harness.execute(&mut a).expect("executes");
                let mut b = SimulatedIut::new(&name, system.clone(), 4, policy);
                let interpreted = harness
                    .execute_controlled(&mut b, harness.strategy())
                    .expect("executes");
                assert_eq!(
                    compiled, interpreted,
                    "compiled and interpreted runs differ on {name} ({purpose}, {policy:?})"
                );
            }
        }
    }
}

/// At the default budget, a run driven by the compiled controller reports
/// exactly what a run driven by the interpreted strategy reports — verdict,
/// timed trace and step count — for the benchmark's four campaign files and
/// every zoo purpose, under four output policies, on the conformant plant
/// and a seeded pick of mutants.
#[test]
fn compiled_and_interpreted_runs_agree_at_the_default_budget() {
    const MUTANTS_PER_CASE: usize = 6;
    let tg = |name: &str| {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../examples/tg")
            .join(name);
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        tiga_lang::parse_model(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    let mut cases: Vec<(String, tiga_model::System, tiga_model::System, String)> = Vec::new();
    for (file, spec) in [
        ("smart_light.never_bright.tg", None),
        ("coffee_machine.no_refund.tg", None),
        ("lep3.tg", None),
        ("smart_light.bounded.tg", Some("smart_light.plant.tg")),
    ] {
        let model = tg(file);
        let purpose = tiga_lang::control_line(model.purpose.as_ref().expect("a control line"));
        let spec = spec.map_or_else(|| model.system.clone(), |s| tg(s).system);
        cases.push((file.to_string(), model.system, spec, purpose));
    }
    for instance in model_zoo() {
        let purpose = tiga_lang::control_line_for(&instance.purpose, &instance.system);
        let what = format!("{}/{}", instance.model, instance.purpose_name);
        cases.push((what, instance.system.clone(), instance.system, purpose));
    }
    let mut rng = StdRng::seed_from_u64(0x0051_E4CE);
    for (case, product, spec, purpose) in cases {
        let harness = TestHarness::synthesize(
            product.clone(),
            spec.clone(),
            &purpose,
            TestConfig::default(),
        )
        .unwrap_or_else(|e| panic!("{case}: {e}"));
        let mut mutants = generate_mutants(&spec, &MutationConfig::default()).expect("mutants");
        let mut implementations = vec![("conformant".to_string(), product)];
        for _ in 0..MUTANTS_PER_CASE.min(mutants.len()) {
            let mutant = mutants.swap_remove(rng.gen_range(0..mutants.len()));
            implementations.push((mutant.name, mutant.system));
        }
        for (index, (name, system)) in implementations.into_iter().enumerate() {
            let jitter = derive_run_seed(rng.gen_range(0..u64::MAX), index);
            for policy in [
                OutputPolicy::Eager,
                OutputPolicy::Lazy,
                OutputPolicy::Offset(3),
                OutputPolicy::Jittery { seed: jitter },
            ] {
                let mut a = SimulatedIut::new(&name, system.clone(), SCALE, policy);
                let compiled = harness.execute(&mut a).expect("executes");
                let mut b = SimulatedIut::new(&name, system.clone(), SCALE, policy);
                let interpreted = harness
                    .execute_controlled(&mut b, harness.strategy())
                    .expect("executes");
                assert_eq!(compiled, interpreted, "{case}: {name} under {policy:?}");
            }
        }
    }
}

#[test]
fn lep4_avoid_strategy_minimizes_at_least_two_fold() {
    let mut rng = StdRng::seed_from_u64(0x001E_9404);
    let (system, purpose) = lep_instance(4, 3);
    let solution = solve(&system, &purpose, &SolveOptions::default()).expect("lep4 tp4 solves");
    let strategy = solution.strategy.as_ref().expect("tp4 is enforceable");
    let (minimized, report) = minimize_strategy_with_report(strategy);
    assert_eq!(report.rules_before, strategy.rule_count());
    assert_eq!(report.rules_after, minimized.rule_count());
    // Exact counts: an extraction or minimize change that moves them must
    // say so here, before the 2x gate below runs out of margin.
    assert_eq!(
        (report.rules_before, report.rules_after),
        (258, 124),
        "lep4 tp4 rule counts (extracted, minimized)"
    );
    assert!(
        report.rules_after * 2 <= report.rules_before,
        "lep4 tp4 must minimize at least 2x: {} -> {}",
        report.rules_before,
        report.rules_after
    );
    // The compressed strategy still answers exactly like the original.
    assert_strategy_compiles_equivalently(strategy, "lep4/tp4 (Otfur)", &mut rng);
}
