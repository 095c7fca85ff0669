//! Solver ablations (experiment E7 in DESIGN.md):
//!
//! * on-the-fly (OTFUR) solving vs. the eager Jacobi engine, with and
//!   without early termination;
//! * strategy extraction on vs. off.
//!
//! The machine-readable engine × model matrix (states, subsumption, pruning
//! and early-termination counters) is produced separately by the
//! `solver_matrix` binary; this bench measures wall-clock only.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tiga_bench::lep_instance;
use tiga_models::smart_light;
use tiga_solver::{solve, solve_jacobi, SolveOptions};
use tiga_tctl::TestPurpose;

fn options(extract_strategy: bool) -> SolveOptions {
    SolveOptions {
        extract_strategy,
        ..SolveOptions::default()
    }
}

fn otfur_options(early_termination: bool) -> SolveOptions {
    SolveOptions {
        early_termination,
        ..SolveOptions::default()
    }
}

fn bench_engines(c: &mut Criterion) {
    let smart = smart_light::product().expect("model builds");
    let smart_purpose = TestPurpose::parse(smart_light::PURPOSE_BRIGHT, &smart).expect("parses");
    let (lep, lep_purpose) = lep_instance(3, 1); // TP2, n = 3

    let cases: Vec<(&str, &tiga_model::System, &tiga_tctl::TestPurpose)> = vec![
        ("smart_light_bright", &smart, &smart_purpose),
        ("lep3_tp2", &lep, &lep_purpose),
    ];

    let mut group = c.benchmark_group("solver_ablation");
    group.sample_size(10);
    for (name, system, purpose) in &cases {
        group.bench_with_input(BenchmarkId::new("otfur", name), name, |b, _| {
            b.iter(|| black_box(solve(system, purpose, &otfur_options(true)).expect("solves")));
        });
        group.bench_with_input(BenchmarkId::new("otfur_exhaustive", name), name, |b, _| {
            b.iter(|| black_box(solve(system, purpose, &otfur_options(false)).expect("solves")));
        });
        group.bench_with_input(BenchmarkId::new("jacobi", name), name, |b, _| {
            b.iter(|| black_box(solve_jacobi(system, purpose, &options(true)).expect("solves")));
        });
        group.bench_with_input(
            BenchmarkId::new("jacobi_no_strategy", name),
            name,
            |b, _| {
                b.iter(|| {
                    black_box(solve_jacobi(system, purpose, &options(false)).expect("solves"))
                });
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_engines
}
criterion_main!(benches);
