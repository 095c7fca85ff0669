//! Benchmarks of the test-execution machinery (experiment E4 in DESIGN.md):
//! the per-run cost of Algorithm 3.1, the online tioco monitor, and the
//! decision throughput of interpreted strategies vs compiled controllers.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tiga_bench::{lep_instance, smart_light_harness};
use tiga_models::{coffee_machine, smart_light};
use tiga_solver::{solve, CompiledController, Controller, SolveOptions};
use tiga_testing::{OutputPolicy, SimulatedIut, SpecMonitor, TestConfig, TestHarness};

fn bench_algorithm_31(c: &mut Criterion) {
    let mut group = c.benchmark_group("execution");
    let light = smart_light_harness();
    let light_plant = smart_light::plant().expect("model builds");
    group.bench_function("smart_light_pass", |b| {
        b.iter(|| {
            let mut iut = SimulatedIut::new(
                "iut",
                light_plant.clone(),
                light.config().scale,
                OutputPolicy::Jittery { seed: 1 },
            );
            black_box(light.execute(&mut iut).expect("executes"));
        });
    });

    let coffee = TestHarness::synthesize(
        coffee_machine::product().expect("builds"),
        coffee_machine::plant().expect("builds"),
        coffee_machine::PURPOSE_COFFEE,
        TestConfig::default(),
    )
    .expect("enforceable");
    let coffee_plant = coffee_machine::plant().expect("builds");
    group.bench_function("coffee_machine_pass", |b| {
        b.iter(|| {
            let mut iut = SimulatedIut::new(
                "iut",
                coffee_plant.clone(),
                coffee.config().scale,
                OutputPolicy::Lazy,
            );
            black_box(coffee.execute(&mut iut).expect("executes"));
        });
    });
    group.finish();
}

fn bench_monitor(c: &mut Criterion) {
    let spec = smart_light::plant().expect("model builds");
    c.bench_function("monitor/observe_trace", |b| {
        b.iter(|| {
            let mut monitor = SpecMonitor::new(&spec, 4).expect("monitor");
            // A representative conformant trace: touch, dim, touch, bright.
            monitor.observe_delay(8).unwrap();
            monitor.observe_input("touch").unwrap();
            monitor.observe_delay(4).unwrap();
            monitor.observe_output("dim").unwrap();
            monitor.observe_delay(4).unwrap();
            monitor.observe_input("touch").unwrap();
            monitor.observe_delay(4).unwrap();
            monitor.observe_output("bright").unwrap();
            black_box(monitor.elapsed_ticks());
        });
    });
}

/// Decision throughput on the lep4 avoid-purpose strategy (the Table 1
/// safety workload): the executor's per-step query —
/// [`Controller::decide_with_wakeup`], i.e. `decide` plus, on a wait, the
/// delay at which the answer changes — over every strategy state at a
/// spread of clock valuations.
///
/// `interpreted` drives the extracted [`tiga_solver::Strategy`] (the
/// pre-compilation decide path: full-matrix rule scans per query);
/// `compiled` drives the minimized, compiled controller, which walks each
/// state's rank-sorted rule lists (at most 6 rules on this workload) over
/// their minimal constraints.  The compiled path answers the same queries
/// identically (pinned by `tests/controller_differential.rs`) at ≥5× the
/// throughput.
fn bench_decision_throughput(c: &mut Criterion) {
    let (system, purpose) = lep_instance(4, 3);
    let solution = solve(&system, &purpose, &SolveOptions::default()).expect("lep4 tp4 solves");
    let strategy = solution.strategy.as_ref().expect("tp4 is enforceable");
    let compiled = CompiledController::compile(strategy);
    let scale = 4;
    let clocks = strategy.dim() - 1;
    let queries: Vec<(tiga_model::DiscreteState, Vec<i64>)> = strategy
        .iter()
        .flat_map(|(d, _)| (0..6i64).map(move |u| (d.clone(), vec![u * 7 + 1; clocks])))
        .collect();

    let mut group = c.benchmark_group("decision_throughput");
    group.bench_function("interpreted", |b| {
        b.iter(|| {
            for (d, ticks) in &queries {
                black_box(strategy.decide_with_wakeup(d, ticks, scale));
            }
        });
    });
    group.bench_function("compiled", |b| {
        b.iter(|| {
            for (d, ticks) in &queries {
                black_box(compiled.decide_with_wakeup(d, ticks, scale));
            }
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_algorithm_31,
    bench_monitor,
    bench_decision_throughput
);
criterion_main!(benches);
