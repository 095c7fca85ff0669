//! The fuzzing campaign driver: generate → run all oracles → shrink.
//!
//! [`fuzz_campaign`] is the library entry point behind `tiga fuzz`.  It is
//! fully deterministic for a given [`FuzzOptions::seed`]: per-case seeds are
//! derived with SplitMix64, so any failing case is reproducible from the
//! master seed and its index alone — and a shrunk reproducer additionally
//! gets written out as a self-contained `.tg` file.
//!
//! With [`FuzzOptions::jobs`] above one the campaign shards the cases over
//! the deterministic work queue of [`tiga_parallel::run_indexed`]: every
//! case is a self-contained job keyed by its pre-derived seed, results are
//! merged in case order, and the report — counters, failure list, shrunk
//! reproducers — is bit-identical for any job count.

use crate::gen::{generate_spec, GenConfig};
use crate::oracle::{
    check_bound_monotonicity, check_engine_agreement, check_pred_t, check_roundtrip,
    check_test_execution, check_zone_algebra, EngineCheck, EngineCheckOptions, ExecCheck,
    ExecCheckOptions,
};
use crate::shrink::shrink_spec;
use crate::spec::SysSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tiga_lang::print_system;
use tiga_parallel::{effective_threads, mix64, run_indexed, GOLDEN_GAMMA};

/// Options of one fuzzing campaign.
#[derive(Clone, Debug)]
pub struct FuzzOptions {
    /// Master seed; case `i` uses the `i`-th SplitMix64 value derived from it.
    pub seed: u64,
    /// Number of generated systems.
    pub count: usize,
    /// Worker threads the cases are sharded over (`0` = all available
    /// parallelism, `1` = in-place).  Findings are bit-identical for any
    /// value.
    pub jobs: usize,
    /// Whether failing cases are shrunk before reporting.
    pub shrink: bool,
    /// Re-check budget per shrink (oracle re-runs).
    pub shrink_budget: usize,
    /// Zone-algebra and `Pred_t` rounds per case (each draws fresh zones).
    pub zone_rounds: usize,
    /// Sampled valuations per zone-algebra / `Pred_t` round.
    pub zone_samples: usize,
    /// Engine budgets.
    pub engines: EngineCheckOptions,
    /// Test-execution oracle budgets (runs on every winning game).
    pub exec: ExecCheckOptions,
    /// System-shape knobs.
    pub gen: GenConfig,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seed: 1,
            count: 100,
            jobs: 1,
            shrink: true,
            shrink_budget: 400,
            zone_rounds: 2,
            zone_samples: 24,
            engines: EngineCheckOptions::default(),
            exec: ExecCheckOptions::default(),
            gen: GenConfig::default(),
        }
    }
}

/// One confirmed oracle failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuzzFailure {
    /// Index of the case within the campaign.
    pub case_index: usize,
    /// The derived per-case seed (regenerates the unshrunk system).
    pub case_seed: u64,
    /// Which oracle failed: `engine-agreement`, `roundtrip`, `zone-algebra`,
    /// `pred-t`, `bound-monotonicity` or `test-execution`.
    pub oracle: &'static str,
    /// Human-readable description of the divergence.
    pub detail: String,
    /// Self-contained `.tg` reproducer (shrunk when shrinking is enabled);
    /// `None` for failures without a buildable system (`zone-algebra` and
    /// `pred-t`, which have no system at all, and `generator`, whose spec
    /// failed to build) — those reproduce from the case seed alone.
    pub reproducer: Option<String>,
}

/// Aggregate result of a campaign.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FuzzReport {
    /// Systems generated.
    pub cases: usize,
    /// Cases whose game every engine solved and agreed on.
    pub agreed: usize,
    /// ... of which the shared verdict was "winning".
    pub winning: usize,
    /// ... of which the objective was a safety purpose (`A[]`).
    pub safety: usize,
    /// ... of which the objective carried a time bound (`<=T`).
    pub bounded: usize,
    /// Cases skipped by the engine oracle (state limit exceeded).
    pub skipped: usize,
    /// Winning games whose strategy was executed end-to-end (oracle 5).
    pub executed: usize,
    /// Winning games outside the observability test hypothesis (internal
    /// `tau` edges), where test execution does not apply.
    pub unobservable: usize,
    /// Mutant implementations exercised across all executed games.
    pub mutants: usize,
    /// ... of which the injected fault was detected (verdict `fail`).
    pub detected: usize,
    /// All confirmed failures.
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// `true` when every oracle was clean on every case.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The per-case seeds of a campaign: the first `count` SplitMix64 values
/// derived from the master seed.  Shared with the bench harness, which pins
/// engine counters on a fixed fuzz seed set.
#[must_use]
pub fn derive_case_seeds(master: u64, count: usize) -> Vec<u64> {
    (0..count as u64)
        .map(|k| mix64(master.wrapping_add(k.wrapping_mul(GOLDEN_GAMMA))))
        .collect()
}

/// Renders a spec as a self-contained `.tg` reproducer with a header
/// documenting its provenance.
///
/// # Panics
///
/// Panics if the spec does not build (reproducers come from specs that
/// built at least once).
#[must_use]
pub fn reproducer_tg(spec: &SysSpec, case_seed: u64, oracle: &'static str) -> String {
    let (system, purpose) = spec.build().expect("reproducer spec builds");
    format!(
        "// tiga fuzz reproducer\n// oracle: {oracle}\n// case seed: {case_seed:#x}\n// re-run: tiga solve <this file>; tiga solve <this file> --exhaustive\n{}",
        print_system(&system, Some(&purpose))
    )
}

/// The outcome of one self-contained case: every oracle's failures plus the
/// engine tallies, merged into the report in case order.
struct CaseOutcome {
    failures: Vec<FuzzFailure>,
    agreed: bool,
    winning: bool,
    safety: bool,
    bounded: bool,
    skipped: bool,
    executed: bool,
    unobservable: bool,
    mutants: usize,
    detected: usize,
}

fn run_case(case_index: usize, case_seed: u64, options: &FuzzOptions) -> CaseOutcome {
    let mut outcome = CaseOutcome {
        failures: Vec::new(),
        agreed: false,
        winning: false,
        safety: false,
        bounded: false,
        skipped: false,
        executed: false,
        unobservable: false,
        mutants: 0,
        detected: 0,
    };

    // Oracles 3 and 4 first: they are independent of the generated system
    // and use their own RNG streams derived from the case seed.
    let mut zone_rng = StdRng::seed_from_u64(case_seed ^ 0x5A5A_5A5A_5A5A_5A5A);
    for round in 0..options.zone_rounds {
        let dim = 2 + (round % 3);
        if let Some(detail) = check_zone_algebra(&mut zone_rng, dim, 6, options.zone_samples) {
            outcome.failures.push(FuzzFailure {
                case_index,
                case_seed,
                oracle: "zone-algebra",
                detail,
                reproducer: None,
            });
        }
    }
    let mut pred_rng = StdRng::seed_from_u64(case_seed ^ 0x9ED7_9ED7_9ED7_9ED7);
    for round in 0..options.zone_rounds {
        let dim = 2 + (round % 3);
        if let Some(detail) = check_pred_t(&mut pred_rng, dim, 6, options.zone_samples) {
            outcome.failures.push(FuzzFailure {
                case_index,
                case_seed,
                oracle: "pred-t",
                detail,
                reproducer: None,
            });
        }
    }

    let spec = generate_spec(case_seed, &options.gen);
    let (system, purpose) = match spec.build() {
        Ok(built) => built,
        Err(e) => {
            // The generator must only emit buildable specs.
            outcome.failures.push(FuzzFailure {
                case_index,
                case_seed,
                oracle: "generator",
                detail: format!("generated spec does not build: {e}"),
                reproducer: None,
            });
            return outcome;
        }
    };
    outcome.safety = purpose.quantifier == tiga_tctl::PathQuantifier::Safety;
    outcome.bounded = purpose.bound.is_some();

    // Oracle 2: roundtrip.
    if let Some(detail) = check_roundtrip(&system, &purpose) {
        let shrunk = maybe_shrink(options, &spec, &mut |s| {
            s.build()
                .ok()
                .is_some_and(|(sys, p)| check_roundtrip(&sys, &p).is_some())
        });
        outcome.failures.push(FuzzFailure {
            case_index,
            case_seed,
            oracle: "roundtrip",
            detail,
            reproducer: Some(reproducer_tg(&shrunk, case_seed, "roundtrip")),
        });
    }

    // Oracle 1: engine agreement (reachability and safety purposes alike).
    match check_engine_agreement(&system, &purpose, &options.engines) {
        EngineCheck::Agreed { winning } => {
            outcome.agreed = true;
            outcome.winning = winning;
        }
        EngineCheck::Skipped(_) => outcome.skipped = true,
        EngineCheck::Diverged(detail) => {
            let engines = options.engines.clone();
            let shrunk = maybe_shrink(options, &spec, &mut |s| {
                s.build().ok().is_some_and(|(sys, p)| {
                    matches!(
                        check_engine_agreement(&sys, &p, &engines),
                        EngineCheck::Diverged(_)
                    )
                })
            });
            outcome.failures.push(FuzzFailure {
                case_index,
                case_seed,
                oracle: "engine-agreement",
                detail,
                reproducer: Some(reproducer_tg(&shrunk, case_seed, "engine-agreement")),
            });
        }
    }

    // Bound monotonicity, on every time-bounded purpose: tightening the
    // deadline can only shrink a reachability winning set and grow a safety
    // one.  Cheap relative to the engine sweep (three Jacobi runs).
    if outcome.bounded {
        if let Some(detail) = check_bound_monotonicity(&system, &purpose, &options.engines) {
            let engines = options.engines.clone();
            let shrunk = maybe_shrink(options, &spec, &mut |s| {
                s.build()
                    .ok()
                    .is_some_and(|(sys, p)| check_bound_monotonicity(&sys, &p, &engines).is_some())
            });
            outcome.failures.push(FuzzFailure {
                case_index,
                case_seed,
                oracle: "bound-monotonicity",
                detail,
                reproducer: Some(reproducer_tg(&shrunk, case_seed, "bound-monotonicity")),
            });
        }
    }

    // Oracle 5: test execution, on every game the engines proved winning.
    if outcome.winning {
        let exec_detail = match check_test_execution(&system, &purpose, &options.exec) {
            ExecCheck::Executed { mutants, detected } => {
                outcome.executed = true;
                outcome.mutants = mutants;
                outcome.detected = detected;
                None
            }
            // The engines just proved the game winning under the same state
            // budget, so "not enforceable" contradicts them.
            ExecCheck::NotApplicable => {
                Some("engines say WINNING but the harness found no strategy".to_string())
            }
            // Internal edges put the game outside the observability test
            // hypothesis; the solver oracles still covered it.
            ExecCheck::Unobservable => {
                outcome.unobservable = true;
                None
            }
            ExecCheck::Diverged(detail) => Some(detail),
        };
        if let Some(detail) = exec_detail {
            let exec = options.exec.clone();
            let shrunk = maybe_shrink(options, &spec, &mut |s| {
                s.build().ok().is_some_and(|(sys, p)| {
                    matches!(
                        check_test_execution(&sys, &p, &exec),
                        ExecCheck::Diverged(_)
                    )
                })
            });
            outcome.failures.push(FuzzFailure {
                case_index,
                case_seed,
                oracle: "test-execution",
                detail,
                reproducer: Some(reproducer_tg(&shrunk, case_seed, "test-execution")),
            });
        }
    }
    outcome
}

/// Runs one fuzzing campaign.  `progress` is invoked after every case with
/// `(cases_done, failures_so_far)` (for sharded runs, during the in-order
/// merge).
pub fn fuzz_campaign(options: &FuzzOptions, progress: &mut dyn FnMut(usize, usize)) -> FuzzReport {
    let seeds = derive_case_seeds(options.seed, options.count);
    // `jobs = 0` means all available parallelism — resolved by
    // `effective_threads`, so it must see the raw value.
    let threads = effective_threads(options.jobs, seeds.len());
    let outcomes: Vec<CaseOutcome> = if threads <= 1 {
        let mut out = Vec::with_capacity(seeds.len());
        let mut failures_so_far = 0;
        for (case_index, &case_seed) in seeds.iter().enumerate() {
            let outcome = run_case(case_index, case_seed, options);
            failures_so_far += outcome.failures.len();
            out.push(outcome);
            progress(case_index + 1, failures_so_far);
        }
        out
    } else {
        run_indexed(seeds, threads, |case_index, case_seed| {
            run_case(case_index, case_seed, options)
        })
    };

    let mut report = FuzzReport::default();
    for (case_index, outcome) in outcomes.into_iter().enumerate() {
        report.cases += 1;
        report.agreed += usize::from(outcome.agreed);
        report.winning += usize::from(outcome.winning);
        report.safety += usize::from(outcome.safety);
        report.bounded += usize::from(outcome.bounded);
        report.skipped += usize::from(outcome.skipped);
        report.executed += usize::from(outcome.executed);
        report.unobservable += usize::from(outcome.unobservable);
        report.mutants += outcome.mutants;
        report.detected += outcome.detected;
        report.failures.extend(outcome.failures);
        if threads > 1 {
            progress(case_index + 1, report.failures.len());
        }
    }
    report
}

fn maybe_shrink(
    options: &FuzzOptions,
    spec: &SysSpec,
    still_fails: &mut dyn FnMut(&SysSpec) -> bool,
) -> SysSpec {
    if options.shrink {
        shrink_spec(spec, still_fails, options.shrink_budget)
    } else {
        spec.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_is_deterministic_and_reports_progress() {
        let options = FuzzOptions {
            count: 10,
            zone_rounds: 1,
            zone_samples: 8,
            ..FuzzOptions::default()
        };
        let mut ticks = 0usize;
        let a = fuzz_campaign(&options, &mut |_, _| ticks += 1);
        assert_eq!(ticks, 10);
        assert_eq!(a.cases, 10);
        let b = fuzz_campaign(&options, &mut |_, _| {});
        assert_eq!(a, b);
    }

    #[test]
    fn bounded_campaign_is_clean_with_zero_skips() {
        // With every objective bounded, all oracles — including
        // bound-monotonicity — must be clean, and no case may be skipped:
        // the `#t`-augmented products of generated (single-digit-constant)
        // games stay well inside the state budget.
        let options = FuzzOptions {
            count: 30,
            zone_rounds: 0,
            gen: GenConfig {
                bound_prob: 1.0,
                safety_prob: 0.3,
                ..GenConfig::default()
            },
            ..FuzzOptions::default()
        };
        let report = fuzz_campaign(&options, &mut |_, _| {});
        assert!(report.is_clean(), "failures: {:?}", report.failures);
        assert_eq!(report.cases, 30);
        assert_eq!(report.bounded, 30, "bound_prob=1.0 must bound every case");
        assert_eq!(report.skipped, 0, "bounded cases must not blow the budget");
        assert!(report.agreed == 30, "engines must agree on every case");
        assert!(report.winning > 0, "some bounded games should be winning");
        assert!(
            report.executed > 0,
            "some bounded strategies should execute end-to-end"
        );
    }

    #[test]
    fn a_zero_bound_probability_leaves_the_seed_stream_untouched() {
        // The pinned fixed-seed gates (bench baseline, campaign pins) rely
        // on `bound_prob: 0.0` consuming no RNG draws.
        let seeds = derive_case_seeds(7, 5);
        for seed in seeds {
            let default_spec = generate_spec(seed, &GenConfig::default());
            let explicit = GenConfig {
                bound_prob: 0.0,
                ..GenConfig::default()
            };
            assert_eq!(default_spec, generate_spec(seed, &explicit));
            assert!(default_spec.objective.bound.is_none());
        }
    }

    #[test]
    fn sharded_campaign_is_bit_identical_for_any_job_count() {
        let reference = FuzzOptions {
            count: 24,
            zone_rounds: 1,
            zone_samples: 8,
            jobs: 1,
            gen: GenConfig {
                safety_prob: 0.4,
                ..GenConfig::default()
            },
            ..FuzzOptions::default()
        };
        let baseline = fuzz_campaign(&reference, &mut |_, _| {});
        assert!(baseline.safety > 0, "expected safety cases in the mix");
        for jobs in [0, 2, 3, 7] {
            let options = FuzzOptions {
                jobs,
                ..reference.clone()
            };
            let mut ticks = 0usize;
            let report = fuzz_campaign(&options, &mut |_, _| ticks += 1);
            assert_eq!(ticks, 24, "jobs = {jobs}");
            assert_eq!(report, baseline, "jobs = {jobs}");
        }
    }

    #[test]
    fn campaign_finds_both_verdicts() {
        // Over a modest number of cases the generator should produce both
        // winnable and unwinnable games — otherwise the engine oracle only
        // exercises half the code.
        let options = FuzzOptions {
            count: 40,
            zone_rounds: 0,
            ..FuzzOptions::default()
        };
        let report = fuzz_campaign(&options, &mut |_, _| {});
        assert!(report.is_clean(), "failures: {:#?}", report.failures);
        assert!(report.agreed > 0);
        assert!(
            report.winning > 0 && report.winning < report.agreed,
            "verdict mix is degenerate: {} winning of {} agreed",
            report.winning,
            report.agreed
        );
    }

    #[test]
    fn fixed_seed_smoke_run_has_zero_skips_and_checks_safety() {
        // The acceptance gate of the safety work: on the CI smoke seed every
        // generated purpose — `A<>` and `A[]` alike — is a *checked* case.
        let options = FuzzOptions {
            seed: 1,
            count: 500,
            zone_rounds: 0,
            ..FuzzOptions::default()
        };
        let report = fuzz_campaign(&options, &mut |_, _| {});
        assert!(report.is_clean(), "failures: {:#?}", report.failures);
        assert_eq!(report.skipped, 0, "no case may be skipped");
        assert_eq!(report.agreed, 500, "every case must be checked");
        assert!(
            report.safety > 20,
            "expected a meaningful safety share, got {}",
            report.safety
        );
        assert_eq!(
            report.executed + report.unobservable,
            report.winning,
            "every winning observable game must execute end-to-end"
        );
        assert!(
            report.executed > report.unobservable,
            "the executable share must dominate: {} executed, {} unobservable",
            report.executed,
            report.unobservable
        );
        assert!(
            report.mutants > 0 && report.detected > 0,
            "expected the mutant pool to be exercised: {} mutants, {} detected",
            report.mutants,
            report.detected
        );
    }
}
