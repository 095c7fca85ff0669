//! Test campaigns: running a synthesized test case against pools of
//! implementations (mutants), and a random-testing baseline for the
//! fault-detection comparison (future-work item 3 of the paper).
//!
//! # Parallel execution and determinism
//!
//! Campaigns are embarrassingly parallel — every `(policy, implementation)`
//! pair is an independent run — and are executed on a sharded work queue
//! ([`tiga_parallel::run_indexed`]): workers claim jobs dynamically, so a slow mutant
//! does not serialize the pool.  Results are nevertheless **bit-identical
//! for any thread count**, because
//!
//! 1. every job carries a stable index, and aggregation merges per-job
//!    summaries in index order ([`CampaignSummary::merge`]);
//! 2. all randomness is derived ahead of scheduling: job `i` runs with
//!    `run_seed = mix64(master_seed ^ mix64(i))` (the SplitMix64 output
//!    function, [`tiga_parallel::mix64`]), which reseeds jittery output
//!    policies and the random tester — never a shared, order-dependent RNG.
//!
//! The master seed lives in [`CampaignOptions::master_seed`]; two campaigns
//! with the same master seed, pool and policies produce the same summary
//! whether they run on 1 or 64 threads.

use crate::exec::{TestConfig, TestReport};
use crate::harness::TestHarness;
use crate::iut::{DelayOutcome, Iut, OutputPolicy, SimulatedIut};
use crate::monitor::{MonitorOutcome, SpecMonitor};
use crate::mutation::Mutant;
use crate::trace::TimedTrace;
use crate::verdict::{InconclusiveReason, Verdict};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use tiga_model::{ChannelKind, ModelError, System};
use tiga_parallel::{mix64, run_indexed};

/// The result of running one implementation through a campaign.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignRun {
    /// Implementation name (mutant name or "conformant").
    pub iut_name: String,
    /// Whether the implementation is expected to conform (true for the
    /// unmutated plant).
    pub expected_conformant: bool,
    /// The report of the run.
    pub report: TestReport,
}

/// Aggregate results of a campaign.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CampaignSummary {
    /// Individual runs.
    pub runs: Vec<CampaignRun>,
}

impl CampaignSummary {
    /// Absorbs another summary's runs (merge-based aggregation: the parallel
    /// engine folds per-job summaries together in job order).
    pub fn merge(&mut self, other: CampaignSummary) {
        self.runs.extend(other.runs);
    }

    /// Number of mutants whose fault was detected (verdict `fail`).
    #[must_use]
    pub fn detected(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| !r.expected_conformant && r.report.verdict.is_fail())
            .count()
    }

    /// Number of mutants in the campaign.
    #[must_use]
    pub fn mutant_count(&self) -> usize {
        self.runs.iter().filter(|r| !r.expected_conformant).count()
    }

    /// Number of expected-conformant implementations that (incorrectly)
    /// failed — this must be zero by the soundness theorem.
    #[must_use]
    pub fn false_alarms(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| r.expected_conformant && r.report.verdict.is_fail())
            .count()
    }

    /// Mutation score: detected / mutants.
    #[must_use]
    pub fn mutation_score(&self) -> f64 {
        let m = self.mutant_count();
        if m == 0 {
            return 1.0;
        }
        self.detected() as f64 / m as f64
    }
}

impl fmt::Display for CampaignSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "campaign: {} runs, {} mutants, {} detected (score {:.2}), {} false alarms",
            self.runs.len(),
            self.mutant_count(),
            self.detected(),
            self.mutation_score(),
            self.false_alarms()
        )?;
        for run in &self.runs {
            writeln!(
                f,
                "  {:<40} {:<12} {}",
                run.iut_name,
                if run.expected_conformant {
                    "conformant"
                } else {
                    "mutant"
                },
                run.report.verdict
            )?;
        }
        Ok(())
    }
}

/// Options controlling how a campaign is scheduled and seeded.
#[derive(Clone, Debug)]
pub struct CampaignOptions {
    /// How many times each implementation is exercised per job.
    pub repetitions: usize,
    /// Worker threads; `0` uses all available parallelism.
    pub threads: usize,
    /// Master seed from which every job's run seed is derived.
    pub master_seed: u64,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            repetitions: 1,
            threads: 0,
            master_seed: 0x2008_D47E,
        }
    }
}

impl CampaignOptions {
    /// Sets the repetition count.
    #[must_use]
    pub fn repetitions(mut self, repetitions: usize) -> Self {
        self.repetitions = repetitions;
        self
    }

    /// Sets the worker thread count (`0` = all available parallelism).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the master seed.
    #[must_use]
    pub fn master_seed(mut self, master_seed: u64) -> Self {
        self.master_seed = master_seed;
        self
    }
}

/// The RNG seed of job `index` under `master_seed` — a pure function of the
/// two, independent of scheduling.
#[must_use]
pub fn derive_run_seed(master_seed: u64, index: usize) -> u64 {
    mix64(master_seed ^ mix64(index as u64))
}

/// Reseeds policies that carry randomness with the job's derived seed;
/// deterministic policies pass through untouched.
fn reseeded(policy: OutputPolicy, run_seed: u64) -> OutputPolicy {
    match policy {
        OutputPolicy::Jittery { seed } => OutputPolicy::Jittery {
            seed: mix64(seed ^ run_seed),
        },
        other => other,
    }
}

/// One schedulable unit: an implementation to exercise under one policy.
struct CampaignJob {
    /// Report name (uses the caller's policy, not the reseeded one, so names
    /// stay stable across master seeds).
    iut_name: String,
    system: System,
    policy: OutputPolicy,
    expected_conformant: bool,
}

/// Builds the job list for a pool: for every policy, the conformant plant
/// followed by each mutant — the same order the sequential engine used.
fn build_jobs(
    plant: &System,
    mutants: &[Mutant],
    policies: &[OutputPolicy],
    master_seed: u64,
) -> Vec<CampaignJob> {
    let mut jobs = Vec::with_capacity(policies.len() * (mutants.len() + 1));
    for policy in policies {
        let index = jobs.len();
        jobs.push(CampaignJob {
            iut_name: format!("conformant-{policy:?}"),
            system: plant.clone(),
            policy: reseeded(*policy, derive_run_seed(master_seed, index)),
            expected_conformant: true,
        });
        for mutant in mutants {
            let index = jobs.len();
            jobs.push(CampaignJob {
                iut_name: format!("{}-{policy:?}", mutant.name),
                system: mutant.system.clone(),
                policy: reseeded(*policy, derive_run_seed(master_seed, index)),
                expected_conformant: false,
            });
        }
    }
    jobs
}

/// Folds per-job summaries (in job order) into one, propagating the first
/// error — deterministic because the job order is.
fn merge_job_summaries(
    results: Vec<Result<CampaignSummary, ModelError>>,
) -> Result<CampaignSummary, ModelError> {
    let mut summary = CampaignSummary::default();
    for result in results {
        summary.merge(result?);
    }
    Ok(summary)
}

/// Output-scheduling policies used for the simulated implementations of a
/// campaign.
#[must_use]
pub fn default_policies() -> Vec<OutputPolicy> {
    vec![
        OutputPolicy::Eager,
        OutputPolicy::Lazy,
        OutputPolicy::Jittery { seed: 2008 },
    ]
}

/// Runs a synthesized test case against the conformant plant and a pool of
/// mutants, each simulated under several output policies, with default
/// scheduling (all cores) and seeding.
///
/// `repetitions` controls how many times each implementation is exercised
/// (useful for jittery policies).  See [`run_mutation_campaign_with`] for
/// full control.
///
/// # Errors
///
/// Propagates internal model-evaluation errors.
pub fn run_mutation_campaign(
    harness: &TestHarness,
    plant: &System,
    mutants: &[Mutant],
    policies: &[OutputPolicy],
    repetitions: usize,
) -> Result<CampaignSummary, ModelError> {
    run_mutation_campaign_with(
        harness,
        plant,
        mutants,
        policies,
        &CampaignOptions::default().repetitions(repetitions),
    )
}

/// Runs a strategy-based mutation campaign on the parallel engine.
///
/// The summary is identical for any [`CampaignOptions::threads`] value (see
/// the module docs for the seeding scheme).
///
/// # Errors
///
/// Propagates internal model-evaluation errors (first failing job in job
/// order).
pub fn run_mutation_campaign_with(
    harness: &TestHarness,
    plant: &System,
    mutants: &[Mutant],
    policies: &[OutputPolicy],
    options: &CampaignOptions,
) -> Result<CampaignSummary, ModelError> {
    let scale = harness.config().scale;
    let jobs = build_jobs(plant, mutants, policies, options.master_seed);
    let results = run_indexed(jobs, options.threads, |_, job| {
        let mut iut = SimulatedIut::new(&job.iut_name, job.system, scale, job.policy);
        let report = harness.execute_repeated(&mut iut, options.repetitions)?;
        Ok(CampaignSummary {
            runs: vec![CampaignRun {
                iut_name: job.iut_name,
                expected_conformant: job.expected_conformant,
                report,
            }],
        })
    });
    merge_job_summaries(results)
}

/// The longest wait, in ticks, a [`RandomTester`] draws between stimuli.
const RANDOM_MAX_WAIT: i64 = 32;

/// A baseline tester that sends random inputs at random times while
/// monitoring tioco, used to compare fault-detection capability against
/// strategy-based testing.  Each wait is drawn from `1..=32` ticks.
#[derive(Clone, Debug)]
pub struct RandomTester<'a> {
    spec: &'a System,
    config: TestConfig,
    seed: u64,
}

impl<'a> RandomTester<'a> {
    /// Creates a random tester monitoring conformance against `spec`.
    #[must_use]
    pub fn new(spec: &'a System, config: TestConfig, seed: u64) -> Self {
        RandomTester { spec, config, seed }
    }

    /// Drives the implementation with random stimuli, returning `Fail` on the
    /// first tioco violation and `Inconclusive` when the budget is exhausted
    /// (a random tester has no test purpose to `Pass`).
    ///
    /// # Errors
    ///
    /// Propagates internal model-evaluation errors.
    pub fn run(&self, iut: &mut dyn Iut) -> Result<TestReport, ModelError> {
        iut.reset();
        let scale = self.config.scale;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut monitor = SpecMonitor::new(self.spec, scale)?;
        let mut trace = TimedTrace::new();
        let inputs: Vec<String> = self
            .spec
            .channels()
            .iter()
            .filter(|c| c.kind() == ChannelKind::Input)
            .map(|c| c.name().to_string())
            .collect();
        let mut now = 0i64;
        let mut steps = 0usize;
        while steps < self.config.max_steps && now < self.config.max_ticks {
            steps += 1;
            // Randomly either send an input (if any) or wait a random amount.
            let send_input = !inputs.is_empty() && rng.gen_bool(0.5);
            if send_input {
                let channel = &inputs[rng.gen_range(0..inputs.len())];
                iut.offer_input(channel);
                monitor.observe_input(channel)?;
                trace.push_input(channel);
            } else {
                let wait = rng.gen_range(1..=RANDOM_MAX_WAIT);
                match iut.delay(wait) {
                    DelayOutcome::Quiet => {
                        if let MonitorOutcome::Violation(fail) = monitor.observe_delay(wait)? {
                            trace.push_delay(wait);
                            return Ok(TestReport {
                                verdict: Verdict::Fail(fail),
                                trace,
                                scale,
                                steps,
                                iut_name: iut.name().to_string(),
                            });
                        }
                        trace.push_delay(wait);
                        now += wait;
                    }
                    DelayOutcome::Output { after, channel } => {
                        if after > 0 {
                            if let MonitorOutcome::Violation(fail) = monitor.observe_delay(after)? {
                                trace.push_delay(after);
                                return Ok(TestReport {
                                    verdict: Verdict::Fail(fail),
                                    trace,
                                    scale,
                                    steps,
                                    iut_name: iut.name().to_string(),
                                });
                            }
                            trace.push_delay(after);
                            now += after;
                        }
                        trace.push_output(&channel);
                        if let MonitorOutcome::Violation(fail) = monitor.observe_output(&channel)? {
                            return Ok(TestReport {
                                verdict: Verdict::Fail(fail),
                                trace,
                                scale,
                                steps,
                                iut_name: iut.name().to_string(),
                            });
                        }
                    }
                }
            }
        }
        Ok(TestReport {
            verdict: Verdict::Inconclusive(InconclusiveReason::StepBudgetExhausted),
            trace,
            scale,
            steps,
            iut_name: iut.name().to_string(),
        })
    }
}

/// Runs the random-tester baseline against the same pool of implementations
/// as [`run_mutation_campaign`], for fault-detection comparison, with default
/// scheduling.  `seed` becomes the campaign master seed.
///
/// Note a semantic difference from the pre-parallel engine: each job now
/// draws its own stimulus stream from the derived run seed, instead of every
/// implementation being driven by one identical stream.  This is the
/// campaign seeding scheme (see the module docs); detection scores for a
/// given `seed` therefore differ from the old sequential baseline, but
/// remain fully deterministic.
///
/// # Errors
///
/// Propagates internal model-evaluation errors.
pub fn run_random_campaign(
    spec: &System,
    plant: &System,
    mutants: &[Mutant],
    policies: &[OutputPolicy],
    config: &TestConfig,
    seed: u64,
) -> Result<CampaignSummary, ModelError> {
    run_random_campaign_with(
        spec,
        plant,
        mutants,
        policies,
        config,
        &CampaignOptions::default().master_seed(seed),
    )
}

/// Runs the random-tester baseline on the parallel engine: every job drives
/// its implementation with a [`RandomTester`] seeded from the job's derived
/// run seed, so summaries are thread-count independent.
///
/// [`CampaignOptions::repetitions`] gives each implementation that many
/// independent random attempts (each with its own seed derived from the
/// job's run seed); the first failing attempt decides the job's report,
/// mirroring [`TestHarness::execute_repeated`].
///
/// # Errors
///
/// Propagates internal model-evaluation errors (first failing job in job
/// order).
pub fn run_random_campaign_with(
    spec: &System,
    plant: &System,
    mutants: &[Mutant],
    policies: &[OutputPolicy],
    config: &TestConfig,
    options: &CampaignOptions,
) -> Result<CampaignSummary, ModelError> {
    let jobs = build_jobs(plant, mutants, policies, options.master_seed);
    let results = run_indexed(jobs, options.threads, |index, job| {
        let run_seed = derive_run_seed(options.master_seed, index);
        let mut iut = SimulatedIut::new(&job.iut_name, job.system, config.scale, job.policy);
        let mut report = None;
        for rep in 0..options.repetitions.max(1) {
            let tester = RandomTester::new(spec, config.clone(), mix64(run_seed ^ rep as u64));
            let attempt = tester.run(&mut iut)?;
            let failed = attempt.verdict.is_fail();
            report = Some(attempt);
            if failed {
                break;
            }
        }
        let report = report.expect("at least one repetition");
        Ok(CampaignSummary {
            runs: vec![CampaignRun {
                iut_name: job.iut_name,
                expected_conformant: job.expected_conformant,
                report,
            }],
        })
    });
    merge_job_summaries(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_stable_and_spread() {
        assert_eq!(derive_run_seed(1, 0), derive_run_seed(1, 0));
        assert_ne!(derive_run_seed(1, 0), derive_run_seed(1, 1));
        assert_ne!(derive_run_seed(1, 0), derive_run_seed(2, 0));
    }

    #[test]
    fn reseeding_only_touches_jittery_policies() {
        assert_eq!(reseeded(OutputPolicy::Eager, 7), OutputPolicy::Eager);
        assert_eq!(reseeded(OutputPolicy::Lazy, 7), OutputPolicy::Lazy);
        assert_eq!(
            reseeded(OutputPolicy::Offset(3), 7),
            OutputPolicy::Offset(3)
        );
        let a = reseeded(OutputPolicy::Jittery { seed: 1 }, 7);
        let b = reseeded(OutputPolicy::Jittery { seed: 1 }, 7);
        assert_eq!(a, b);
        assert_ne!(a, OutputPolicy::Jittery { seed: 1 });
    }

    #[test]
    fn merge_concatenates_in_order() {
        let run = |name: &str| CampaignRun {
            iut_name: name.to_string(),
            expected_conformant: true,
            report: TestReport {
                verdict: Verdict::Pass,
                trace: TimedTrace::new(),
                scale: 4,
                steps: 1,
                iut_name: name.to_string(),
            },
        };
        let mut left = CampaignSummary {
            runs: vec![run("a")],
        };
        left.merge(CampaignSummary {
            runs: vec![run("b"), run("c")],
        });
        let names: Vec<_> = left.runs.iter().map(|r| r.iut_name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }
}
