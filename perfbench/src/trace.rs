//! The traced run: replays a workload's inputs in-process and times the
//! public calls into each crate from outside, with the allocations each
//! call makes.  Nothing inside the program is instrumented; a layer's time
//! is the wall time of the calls this file makes into it.

use crate::alloc::{self, Snapshot};
use crate::stream::{self, Item, Kind};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufRead, Read, Write};
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};
use tiga_solver::{
    CacheEntry, CompiledController, Controller, GameGraph, SolveCache, SolveOptions,
    StrategyDecision,
};
use tiga_tctl::{PathQuantifier, TestPurpose};
use tiga_testing::{DelayOutcome, Iut, OutputPolicy, SimulatedIut};

/// Time, calls and allocations accumulated under one layer name.
#[derive(Clone, Copy, Debug, Default)]
struct Span {
    ns: f64,
    calls: u64,
    allocs: u64,
    bytes: u64,
}

/// Per-layer totals, keyed by `<crate>.<call>` names.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, Span>);

impl Layers {
    /// Runs `call`, charging its wall time and allocations to `layer`.
    pub fn time<T>(&mut self, layer: &'static str, call: impl FnOnce() -> T) -> T {
        let before = alloc::snapshot();
        let start = Instant::now();
        let out = call();
        let elapsed = start.elapsed();
        self.add(layer, elapsed, alloc::snapshot().since(before));
        out
    }

    fn add(&mut self, layer: &'static str, elapsed: Duration, used: Snapshot) {
        let span = self.0.entry(layer).or_default();
        span.ns += elapsed.as_nanos() as f64;
        span.calls += 1;
        span.allocs += used.allocs;
        span.bytes += used.bytes;
    }

    fn absorb(&mut self, other: &Layers) {
        for (layer, s) in &other.0 {
            let span = self.0.entry(layer).or_default();
            span.ns += s.ns;
            span.calls += s.calls;
            span.allocs += s.allocs;
            span.bytes += s.bytes;
        }
    }

    fn get(&self, layer: &str) -> Span {
        self.0.get(layer).copied().unwrap_or_default()
    }

    fn ns(&self, layer: &str) -> f64 {
        self.get(layer).ns
    }

    fn total_ns(&self) -> f64 {
        self.0.values().map(|s| s.ns).sum()
    }
}

/// Metric name → (value, unit).
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// What a replay hands back to `main`.
pub struct Report {
    pub metrics: Metrics,
    /// Operations replayed (rounds, sweeps or requests).
    pub ops: usize,
    /// Replayed operations whose output was wrong.
    pub failed: usize,
    /// Mean in-process time per operation of the calls on the path the
    /// end-to-end measurement takes, in ms.
    pub path_ms: f64,
    /// Mean untraced end-to-end time per operation, in ms, when the replay
    /// measured it itself, interleaved with the traced calls.
    pub e2e_ms: Option<f64>,
    /// Extra `"name": value` JSON fields for the client to check.
    pub checks: Vec<(String, String)>,
}

/// Time unit a layer is reported in.
#[derive(Clone, Copy)]
enum Unit {
    Ms,
    Us,
}

impl Unit {
    fn scale(self, ns: f64) -> f64 {
        match self {
            Unit::Ms => ns / 1e6,
            Unit::Us => ns / 1e3,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Unit::Ms => "ms",
            Unit::Us => "us",
        }
    }
}

/// Reports `layer` as `<layer>_<unit>`, `<layer>.allocs` and
/// `<layer>.alloc_bytes`, each divided by `per`.
fn put_layer(metrics: &mut Metrics, layers: &Layers, layer: &str, unit: Unit, per: f64) {
    let span = layers.get(layer);
    let per = per.max(1.0);
    metrics.insert(
        format!("{layer}_{}", unit.name()),
        (unit.scale(span.ns) / per, unit.name()),
    );
    metrics.insert(
        format!("{layer}.allocs"),
        (span.allocs as f64 / per, "count"),
    );
    metrics.insert(
        format!("{layer}.alloc_bytes"),
        (span.bytes as f64 / per, "bytes"),
    );
}

fn put(metrics: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    metrics.insert(name.to_string(), (value, unit));
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Runs `tiga` once, untraced, as the end-to-end measurement does;
/// returns its wall time in ns.
fn run_tiga(tiga: &Path, inputs: &Path, args: &[&str]) -> Result<f64, String> {
    let start = Instant::now();
    let out = std::process::Command::new(tiga)
        .args(args)
        .current_dir(inputs)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", tiga.display()))?;
    let elapsed = start.elapsed().as_nanos() as f64;
    if !out.status.success() {
        return Err(format!(
            "tiga {} exited with {}",
            args.join(" "),
            out.status
        ));
    }
    Ok(elapsed)
}

fn parse(text: &str, label: &str) -> Result<tiga_lang::TgModel, String> {
    tiga_lang::parse_model(text).map_err(|e| e.render(text, label))
}

// ---------------------------------------------------------------------------
// solve-lep4: what `tiga solve --stats-json --emit-controller` runs, per round
// of objectives, plus exploration and extraction measured on their own.
// ---------------------------------------------------------------------------

/// Sums of the solver's deterministic counters over one round.
#[derive(Default)]
struct Counters {
    discrete_states: usize,
    graph_edges: usize,
    reach_zones: usize,
    iterations: usize,
    subsumed_zones: usize,
    pruned_evaluations: usize,
    dbm_clones: usize,
    interned_zones: usize,
    intern_hits: usize,
    peak_live_zones: usize,
    rules_before: usize,
    rules_after: usize,
    controller_states: usize,
    controller_bytes: usize,
    explored_states: usize,
    reported_explore_ns: f64,
    reported_fixpoint_ns: f64,
}

pub fn solve_lep4(
    tiga: &Path,
    inputs: &Path,
    objectives: &[String],
    goldens: &Path,
    budget: Duration,
) -> Result<Report, String> {
    let mut layers = Layers::default();
    let mut sums = Counters::default();
    let mut rounds = 0usize;
    let mut failed = 0usize;
    let mut e2e_ns = 0.0;
    // Fastest solve of each objective with and without strategy extraction:
    // extraction is a small difference of two long runs, so minima keep the
    // run-to-run spread out of it.
    let mut fastest = vec![(f64::INFINITY, f64::INFINITY); objectives.len()];
    let emitted = inputs.with_file_name("traced.controller");
    let emitted = emitted.to_str().ok_or("the inputs path is not UTF-8")?;
    let start = Instant::now();
    while rounds == 0 || start.elapsed() < budget {
        for (file, fastest) in objectives.iter().zip(&mut fastest) {
            e2e_ns += run_tiga(
                tiga,
                inputs,
                &[
                    "solve",
                    file,
                    "--stats-json",
                    "--emit-controller",
                    emitted,
                    "--jobs",
                    "1",
                ],
            )?;
            let text = read(&inputs.join(file))?;
            let model = layers.time("lang.parse", || parse(&text, file))?;
            let purpose = model
                .purpose
                .clone()
                .ok_or_else(|| format!("{file} has no control: line"))?;
            let options = SolveOptions {
                jobs: 1,
                ..SolveOptions::default()
            };
            let before = layers.ns("solver.solve");
            let solution = layers
                .time("solver.solve", || {
                    tiga_solver::solve(&model.system, &purpose, &options)
                })
                .map_err(|e| format!("{file}: {e}"))?;
            fastest.0 = fastest.0.min(layers.ns("solver.solve") - before);
            let strategy = solution
                .strategy
                .as_ref()
                .ok_or_else(|| format!("{file}: no strategy"))?;
            let (minimized, report) = layers.time("solver.minimize", || {
                tiga_solver::minimize_strategy_with_report(strategy)
            });
            let controller = layers.time("solver.compile", || {
                CompiledController::from_minimized(minimized)
            });
            let printed = layers.time("solver.print_controller", || {
                tiga_solver::print_controller(
                    model.system.name(),
                    solution.winning_from_initial,
                    Some(&controller),
                )
            });
            // Off the `tiga solve` path: eager exploration of the same game,
            // and the same solve without strategy extraction.
            let graph = layers.time("model.explore", || explore(&model.system, &purpose))?;
            let bare = SolveOptions {
                extract_strategy: false,
                ..options
            };
            let start = Instant::now();
            tiga_solver::solve(&model.system, &purpose, &bare)
                .map_err(|e| format!("{file}: {e}"))?;
            fastest.1 = fastest.1.min(start.elapsed().as_nanos() as f64);

            let golden = goldens.join(format!("{}.controller", file.trim_end_matches(".tg")));
            if !solution.winning_from_initial || read(&golden)? != printed {
                failed += 1;
            }
            let stats = solution.stats();
            sums.discrete_states += stats.discrete_states;
            sums.graph_edges += stats.graph_edges;
            sums.reach_zones += stats.reach_zones;
            sums.iterations += stats.iterations;
            sums.subsumed_zones += stats.subsumed_zones;
            sums.pruned_evaluations += stats.pruned_evaluations;
            sums.dbm_clones += stats.dbm_clones;
            sums.interned_zones += stats.interned_zones;
            sums.intern_hits += stats.intern_hits;
            sums.peak_live_zones += stats.peak_live_zones;
            sums.rules_before += report.rules_before;
            sums.rules_after += report.rules_after;
            sums.controller_states += controller.state_count();
            sums.controller_bytes += printed.len();
            sums.explored_states += graph.len();
            sums.reported_explore_ns += solution.timed.exploration_time.as_nanos() as f64;
            sums.reported_fixpoint_ns += solution.timed.fixpoint_time.as_nanos() as f64;
        }
        rounds += 1;
    }

    let n = rounds as f64;
    let mut m = Metrics::new();
    for layer in [
        "lang.parse",
        "model.explore",
        "solver.solve",
        "solver.minimize",
        "solver.compile",
        "solver.print_controller",
    ] {
        put_layer(&mut m, &layers, layer, Unit::Ms, n);
    }
    let explore_s = layers.ns("model.explore") / 1e9;
    put(
        &mut m,
        "model.states_per_s",
        ratio(sums.explored_states as f64, explore_s),
        "1/s",
    );
    put(
        &mut m,
        "solver.extract_ms",
        fastest
            .iter()
            .map(|(with, without)| with - without)
            .sum::<f64>()
            / 1e6,
        "ms",
    );
    put(
        &mut m,
        "solver.reported_explore_ms",
        sums.reported_explore_ns / 1e6 / n,
        "ms",
    );
    put(
        &mut m,
        "solver.reported_fixpoint_ms",
        sums.reported_fixpoint_ns / 1e6 / n,
        "ms",
    );
    put(
        &mut m,
        "solver.minimize_ratio",
        ratio(sums.rules_after as f64, sums.rules_before as f64),
        "ratio",
    );
    put(
        &mut m,
        "solver.controller_states",
        sums.controller_states as f64 / n,
        "count",
    );
    put(
        &mut m,
        "solver.controller_bytes",
        sums.controller_bytes as f64 / n,
        "bytes",
    );
    for (name, value) in [
        ("solver.discrete_states", sums.discrete_states),
        ("solver.graph_edges", sums.graph_edges),
        ("solver.reach_zones", sums.reach_zones),
        ("solver.iterations", sums.iterations),
        ("solver.pruned_evaluations", sums.pruned_evaluations),
        ("solver.dbm_clones", sums.dbm_clones),
        ("solver.peak_live_zones", sums.peak_live_zones),
    ] {
        put(&mut m, name, value as f64 / n, "count");
    }
    put(
        &mut m,
        "solver.subsumed_ratio",
        ratio(
            sums.subsumed_zones as f64,
            (sums.subsumed_zones + sums.reach_zones) as f64,
        ),
        "ratio",
    );
    put(
        &mut m,
        "solver.intern_hit_ratio",
        ratio(
            sums.intern_hits as f64,
            (sums.intern_hits + sums.interned_zones) as f64,
        ),
        "ratio",
    );
    let path_ns: f64 = [
        "lang.parse",
        "solver.solve",
        "solver.minimize",
        "solver.compile",
        "solver.print_controller",
    ]
    .iter()
    .map(|layer| layers.ns(layer))
    .sum();
    Ok(Report {
        metrics: m,
        ops: rounds,
        failed,
        path_ms: path_ns / 1e6 / n,
        e2e_ms: Some(e2e_ns / 1e6 / n),
        checks: Vec::new(),
    })
}

/// Eager forward exploration of the game a purpose is solved on.
fn explore(system: &tiga_model::System, purpose: &TestPurpose) -> Result<GameGraph, String> {
    let target = match purpose.quantifier {
        PathQuantifier::Reachability => purpose.predicate.clone(),
        PathQuantifier::Safety => purpose.predicate.clone().negated(),
    };
    let augmented = tiga_solver::bounded_system(system, purpose).map_err(|e| e.to_string())?;
    GameGraph::explore(
        augmented.as_ref().unwrap_or(system),
        &target,
        &tiga_solver::ExploreOptions::default(),
    )
    .map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// campaign: what `tiga test --threads 1` runs, per sweep of campaigns.
// ---------------------------------------------------------------------------

/// Times one call in `SAMPLE_EVERY` and counts them all: a controller query
/// or a simulator step takes about as long as reading the clock twice, so
/// timing every call would double what it measures.
const SAMPLE_EVERY: u64 = 16;

#[derive(Default)]
struct Sampler {
    calls: Cell<u64>,
    sampled: Cell<u64>,
    ns: Cell<f64>,
}

impl Sampler {
    fn call<T>(&self, call: impl FnOnce() -> T) -> T {
        let n = self.calls.get();
        self.calls.set(n + 1);
        if !n.is_multiple_of(SAMPLE_EVERY) {
            return call();
        }
        let start = Instant::now();
        let out = call();
        self.ns
            .set(self.ns.get() + start.elapsed().as_nanos() as f64);
        self.sampled.set(self.sampled.get() + 1);
        out
    }

    /// Mean time per call, less the cost of reading the clock.
    fn mean_ns(&self, clock_ns: f64) -> f64 {
        (ratio(self.ns.get(), self.sampled.get() as f64) - clock_ns).max(0.0)
    }
}

/// What timing an empty call costs: two clock reads.
fn clock_cost_ns() -> f64 {
    const READS: u32 = 100_000;
    let start = Instant::now();
    for _ in 0..READS {
        black_box(Instant::now().elapsed());
    }
    start.elapsed().as_nanos() as f64 / f64::from(READS)
}

/// A controller wrapper that samples query times.
struct TimedController<'a> {
    inner: &'a CompiledController,
    sampler: &'a Sampler,
}

impl Controller for TimedController<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn decide(
        &self,
        discrete: &tiga_model::DiscreteState,
        ticks: &[i64],
        scale: i64,
    ) -> Option<StrategyDecision<'_>> {
        self.sampler
            .call(|| self.inner.decide(discrete, ticks, scale))
    }

    fn rank_of(
        &self,
        discrete: &tiga_model::DiscreteState,
        ticks: &[i64],
        scale: i64,
    ) -> Option<u32> {
        self.sampler
            .call(|| self.inner.rank_of(discrete, ticks, scale))
    }

    fn next_take_delay(
        &self,
        discrete: &tiga_model::DiscreteState,
        ticks: &[i64],
        scale: i64,
    ) -> Option<i64> {
        self.sampler
            .call(|| self.inner.next_take_delay(discrete, ticks, scale))
    }

    fn decide_with_wakeup(
        &self,
        discrete: &tiga_model::DiscreteState,
        ticks: &[i64],
        scale: i64,
    ) -> Option<(StrategyDecision<'_>, Option<i64>)> {
        self.sampler
            .call(|| self.inner.decide_with_wakeup(discrete, ticks, scale))
    }
}

/// An implementation wrapper that samples the simulator's call times.
struct TimedIut<'a> {
    inner: SimulatedIut,
    sampler: &'a Sampler,
}

impl Iut for TimedIut<'_> {
    fn reset(&mut self) {
        let inner = &mut self.inner;
        self.sampler.call(|| inner.reset());
    }

    fn offer_input(&mut self, channel: &str) {
        let inner = &mut self.inner;
        self.sampler.call(|| inner.offer_input(channel));
    }

    fn delay(&mut self, max_ticks: i64) -> DelayOutcome {
        let inner = &mut self.inner;
        self.sampler.call(|| inner.delay(max_ticks))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// The policy a campaign job runs under: `tiga_testing` reseeds jittery
/// policies with the job's derived seed.
fn reseeded(policy: OutputPolicy, run_seed: u64) -> OutputPolicy {
    match policy {
        OutputPolicy::Jittery { seed } => OutputPolicy::Jittery {
            seed: stream::mix64(seed ^ run_seed),
        },
        other => other,
    }
}

/// A campaign: a product file and an optional plant-only spec file.
pub type Campaign = (String, Option<String>);

pub fn campaign(
    tiga: &Path,
    inputs: &Path,
    campaigns: &[Campaign],
    budget: Duration,
) -> Result<Report, String> {
    let mut layers = Layers::default();
    let mut e2e_ns = 0.0;
    let decisions = Sampler::default();
    let simulator = Sampler::default();
    let (mut runs, mut steps, mut mutant_runs, mut detected) = (0usize, 0usize, 0usize, 0usize);
    let mut checks = Vec::new();
    let mut failed = 0usize;
    let mut sweeps = 0usize;
    let start = Instant::now();
    while sweeps == 0 || start.elapsed() < budget {
        for (file, spec_file) in campaigns {
            let mut args = vec!["test", file.as_str(), "--threads", "1"];
            if let Some(spec_file) = spec_file {
                args.extend(["--spec", spec_file.as_str()]);
            }
            e2e_ns += run_tiga(tiga, inputs, &args)?;
            let text = read(&inputs.join(file))?;
            let model = layers.time("lang.parse", || parse(&text, file))?;
            let spec = match spec_file {
                Some(spec_file) => {
                    let text = read(&inputs.join(spec_file))?;
                    layers
                        .time("lang.parse", || parse(&text, spec_file))?
                        .system
                }
                None => model.system.clone(),
            };
            let purpose = model
                .purpose
                .as_ref()
                .map(tiga_lang::control_line)
                .ok_or_else(|| format!("{file} has no control: line"))?;
            let mutants = layers
                .time("testing.generate_mutants", || {
                    tiga_testing::generate_mutants(&spec, &tiga_testing::MutationConfig::default())
                })
                .map_err(|e| format!("{file}: {e}"))?;
            let harness = layers
                .time("testing.synthesize", || {
                    tiga_testing::TestHarness::synthesize(
                        model.system.clone(),
                        spec.clone(),
                        &purpose,
                        tiga_testing::TestConfig::default(),
                    )
                })
                .map_err(|e| format!("{file}: {e}"))?;
            let scale = harness.config().scale;
            let master_seed = tiga_testing::CampaignOptions::default().master_seed;
            // Job order and seeds as `run_mutation_campaign_with` builds
            // them: per policy, the conformant plant and then every mutant.
            let implementations: Vec<(&tiga_model::System, bool)> = std::iter::once((&spec, true))
                .chain(mutants.iter().map(|m| (&m.system, false)))
                .collect();
            let (mut c_runs, mut c_detected, mut c_false_alarms) = (0usize, 0usize, 0usize);
            let mut index = 0usize;
            for policy in tiga_testing::default_policies() {
                for &(system, conformant) in &implementations {
                    let policy =
                        reseeded(policy, tiga_testing::derive_run_seed(master_seed, index));
                    index += 1;
                    let iut = layers.time("testing.iut_new", || {
                        SimulatedIut::new("iut", system.clone(), scale, policy)
                    });
                    let mut iut = TimedIut {
                        inner: iut,
                        sampler: &simulator,
                    };
                    let controller = TimedController {
                        inner: harness.controller(),
                        sampler: &decisions,
                    };
                    let report = layers
                        .time("testing.execute", || {
                            harness.execute_controlled(&mut iut, &controller)
                        })
                        .map_err(|e| format!("{file}: {e}"))?;
                    runs += 1;
                    steps += report.steps;
                    c_runs += 1;
                    let fail = report.verdict.is_fail();
                    if conformant {
                        c_false_alarms += usize::from(fail);
                    } else {
                        mutant_runs += 1;
                        detected += usize::from(fail);
                        c_detected += usize::from(fail);
                    }
                }
            }
            if c_false_alarms > 0 {
                failed += 1;
            }
            if sweeps == 0 {
                checks.push((
                    file.clone(),
                    format!("{{\"runs\":{c_runs},\"detected\":{c_detected},\"false_alarms\":{c_false_alarms}}}"),
                ));
            }
        }
        sweeps += 1;
    }

    let n = sweeps as f64;
    let per_run = runs.max(1) as f64;
    let clock_ns = clock_cost_ns();
    let (decide_ns, decide_calls) = (decisions.mean_ns(clock_ns), decisions.calls.get() as f64);
    let (iut_ns, iut_calls) = (simulator.mean_ns(clock_ns), simulator.calls.get() as f64);
    let mut m = Metrics::new();
    put_layer(&mut m, &layers, "lang.parse", Unit::Ms, n);
    put_layer(&mut m, &layers, "testing.generate_mutants", Unit::Ms, n);
    put_layer(&mut m, &layers, "testing.synthesize", Unit::Ms, n);
    put_layer(&mut m, &layers, "testing.execute", Unit::Us, per_run);
    put_layer(&mut m, &layers, "testing.iut_new", Unit::Us, per_run);
    put(
        &mut m,
        "testing.exec_steps",
        steps as f64 / per_run,
        "count",
    );
    put(&mut m, "solver.decide_ns", decide_ns, "ns");
    put(
        &mut m,
        "solver.decide_calls",
        decide_calls / per_run,
        "count",
    );
    put(&mut m, "testing.iut_ns", iut_ns, "ns");
    put(&mut m, "testing.iut_calls", iut_calls / per_run, "count");
    put(&mut m, "trace.clock_ns", clock_ns, "ns");
    put(
        &mut m,
        "testing.executor_self_us",
        (layers.ns("testing.execute") - decide_ns * decide_calls - iut_ns * iut_calls)
            / 1e3
            / per_run,
        "us",
    );
    put(
        &mut m,
        "testing.detected_ratio",
        ratio(detected as f64, mutant_runs as f64),
        "ratio",
    );
    Ok(Report {
        metrics: m,
        ops: sweeps,
        failed,
        path_ms: layers.total_ns() / 1e6 / n,
        e2e_ms: Some(e2e_ns / 1e6 / n),
        checks,
    })
}

// ---------------------------------------------------------------------------
// serve-session: `serve_session` fed one line at a time from memory, then
// each request's calls replayed on their own.
// ---------------------------------------------------------------------------

/// A reader that hands `serve_session` one request line at a time and marks
/// the instant each line is asked for: the session asks for line `k + 1`
/// only after it wrote and flushed the response to line `k`.
struct LineFeed {
    lines: Vec<Vec<u8>>,
    next: usize,
    current: Vec<u8>,
    pos: usize,
    done: bool,
    marks: Vec<Mark>,
    written: Rc<Cell<u64>>,
    /// Lines before the measured stream (always fed).
    warmup: usize,
    block_len: usize,
    deadline: Option<Instant>,
    budget: Duration,
}

#[derive(Clone, Copy)]
struct Mark {
    at: Instant,
    alloc: Snapshot,
    written: u64,
}

impl LineFeed {
    /// Whether to stop before the next line: only at a block boundary of the
    /// measured stream, once the budget is spent.
    fn stop(&mut self) -> bool {
        if self.next < self.warmup {
            return false;
        }
        let deadline = *self
            .deadline
            .get_or_insert_with(|| Instant::now() + self.budget);
        (self.next - self.warmup).is_multiple_of(self.block_len) && Instant::now() >= deadline
    }
}

impl Read for LineFeed {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for LineFeed {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos == self.current.len() && !self.done {
            self.marks.push(Mark {
                at: Instant::now(),
                alloc: alloc::snapshot(),
                written: self.written.get(),
            });
            if self.next < self.lines.len() && !self.stop() {
                self.current = std::mem::take(&mut self.lines[self.next]);
                self.pos = 0;
                self.next += 1;
            } else {
                self.done = true;
                self.current.clear();
                self.pos = 0;
            }
        }
        Ok(&self.current[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos += amt;
    }
}

/// Discards the session's responses, counting their bytes.
struct CountingSink(Rc<Cell<u64>>);

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.set(self.0.get() + buf.len() as u64);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Per-kind totals of the measured requests.
#[derive(Default)]
struct KindTotals {
    requests: usize,
    request_ns: f64,
    request_allocs: u64,
    request_bytes: u64,
    response_bytes: u64,
    calls_ns: f64,
    layers: Layers,
}

pub fn serve_session(
    inputs: &Path,
    seed: u64,
    blocks: usize,
    budget: Duration,
) -> Result<Report, String> {
    let stream = stream::build(inputs, seed, blocks)?;
    // Requests name model files relative to the inputs directory, as the
    // end-to-end session runs there.
    std::env::set_current_dir(inputs)
        .map_err(|e| format!("cannot enter {}: {e}", inputs.display()))?;
    let items: Vec<&Item> = stream.warmup.iter().chain(&stream.items).collect();
    let written = Rc::new(Cell::new(0u64));
    let mut feed = LineFeed {
        lines: items
            .iter()
            .enumerate()
            .map(|(id, item)| format!("{}\n", item.request(id + 1)).into_bytes())
            .collect(),
        next: 0,
        current: Vec::new(),
        pos: 0,
        done: false,
        marks: Vec::new(),
        written: Rc::clone(&written),
        warmup: stream.warmup.len(),
        block_len: stream.block_len,
        deadline: None,
        budget: budget / 2,
    };
    let mut sink = CountingSink(written);
    tiga_cli::serve_session(&mut feed, &mut sink, &tiga_cli::ServeArgs { jobs: 1 })
        .map_err(|e| format!("serve session failed: {e}"))?;
    let processed = feed.next;
    if processed <= stream.warmup.len() {
        return Err("the measured stream is empty".to_string());
    }

    // Replay every processed request's calls against a cache of our own;
    // the warm-up fills it and is not measured.
    let mut cache = SolveCache::new();
    let mut hits = KindTotals::default();
    let mut misses = KindTotals::default();
    let mut failed = 0usize;
    for (k, item) in items.iter().enumerate().take(processed) {
        let mut layers = Layers::default();
        let winning = replay(item, &mut cache, &mut layers)?;
        if item
            .expect_winning
            .is_some_and(|expected| expected != winning)
        {
            failed += 1;
        }
        let totals = match item.kind {
            Kind::Warmup => continue,
            Kind::Hit => &mut hits,
            Kind::Miss => &mut misses,
        };
        let (begin, end) = (feed.marks[k], feed.marks[k + 1]);
        totals.requests += 1;
        totals.request_ns += (end.at - begin.at).as_nanos() as f64;
        let used = end.alloc.since(begin.alloc);
        totals.request_allocs += used.allocs;
        totals.request_bytes += used.bytes;
        totals.response_bytes += end.written - begin.written;
        totals.calls_ns += layers.total_ns();
        totals.layers.absorb(&layers);
    }

    let requests = (hits.requests + misses.requests) as f64;
    let mut all = Layers::default();
    all.absorb(&hits.layers);
    all.absorb(&misses.layers);
    let mut m = Metrics::new();
    for (kind, t) in [("hit", &hits), ("miss", &misses)] {
        let n = t.requests.max(1) as f64;
        put(
            &mut m,
            &format!("cli.serve_{kind}_request_ms"),
            t.request_ns / 1e6 / n,
            "ms",
        );
        put(
            &mut m,
            &format!("cli.serve_{kind}_request.allocs"),
            t.request_allocs as f64 / n,
            "count",
        );
        put(
            &mut m,
            &format!("cli.serve_{kind}_request.alloc_bytes"),
            t.request_bytes as f64 / n,
            "bytes",
        );
        put(
            &mut m,
            &format!("cli.{kind}_render_self_ms"),
            (t.request_ns - t.calls_ns) / 1e6 / n,
            "ms",
        );
        put(
            &mut m,
            &format!("cli.{kind}_response_bytes"),
            t.response_bytes as f64 / n,
            "bytes",
        );
    }
    put_layer(&mut m, &all, "lang.parse", Unit::Ms, requests);
    put_layer(&mut m, &all, "lang.print_system", Unit::Ms, requests);
    put_layer(&mut m, &all, "tctl.purpose_parse", Unit::Us, requests);
    put_layer(&mut m, &all, "solver.cache_key", Unit::Us, requests);
    put_layer(&mut m, &all, "solver.cache_lookup", Unit::Ms, requests);
    put_layer(&mut m, &all, "solver.print_strategy", Unit::Ms, requests);
    put_layer(&mut m, &all, "solver.print_controller", Unit::Ms, requests);
    let per_miss = misses.requests as f64;
    put_layer(&mut m, &misses.layers, "solver.solve", Unit::Ms, per_miss);
    put_layer(&mut m, &misses.layers, "solver.compile", Unit::Ms, per_miss);
    Ok(Report {
        metrics: m,
        ops: requests as usize,
        failed,
        path_ms: (hits.request_ns + misses.request_ns) / 1e6 / requests.max(1.0),
        e2e_ms: None,
        checks: vec![
            ("hits".to_string(), hits.requests.to_string()),
            ("misses".to_string(), misses.requests.to_string()),
        ],
    })
}

/// Replays the calls `tiga serve` makes for one request, returning the
/// verdict.
fn replay(item: &Item, cache: &mut SolveCache, layers: &mut Layers) -> Result<bool, String> {
    let (text, label) = match (&item.path, &item.model) {
        (Some(path), _) => (read(Path::new(path))?, path.as_str()),
        (None, Some(model)) => (model.clone(), "inline"),
        (None, None) => return Err("a request without a model".to_string()),
    };
    let model = layers.time("lang.parse", || parse(&text, label))?;
    let purpose = match &item.purpose {
        Some(p) => layers
            .time("tctl.purpose_parse", || {
                TestPurpose::parse(p, &model.system)
            })
            .map_err(|e| format!("{label}: {e}"))?,
        None => model
            .purpose
            .clone()
            .ok_or_else(|| format!("{label} has no control: line"))?,
    };
    let canonical = layers.time("lang.print_system", || {
        tiga_lang::print_system(&model.system, Some(&purpose))
    });
    let options = SolveOptions {
        extract_strategy: item.strategy,
        jobs: 1,
        ..SolveOptions::default()
    };
    let key = layers.time("solver.cache_key", || {
        let key = SolveCache::key(&canonical, &options);
        black_box(SolveCache::fingerprint(&key));
        key
    });
    let entry = match layers.time("solver.cache_lookup", || cache.lookup(&key)) {
        Some(entry) => entry,
        None => {
            let solution = layers
                .time("solver.solve", || {
                    tiga_solver::solve(&model.system, &purpose, &options)
                })
                .map_err(|e| format!("{label}: {e}"))?;
            let controller = layers.time("solver.compile", || {
                solution.strategy.as_ref().map(CompiledController::compile)
            });
            let entry = CacheEntry {
                winning: solution.winning_from_initial,
                stats: solution.stats().clone(),
                strategy: solution.strategy,
                controller,
            };
            cache.store(key, entry.clone());
            entry
        }
    };
    let name = model.system.name();
    black_box(layers.time("solver.print_strategy", || {
        tiga_solver::print_strategy(name, entry.winning, entry.strategy.as_ref())
    }));
    if item.controller {
        black_box(layers.time("solver.print_controller", || {
            tiga_solver::print_controller(name, entry.winning, entry.controller.as_ref())
        }));
    }
    Ok(entry.winning)
}
