//! Thread-count scaling of the intra-solve parallel phases on the LEP-N
//! family (experiment for ROADMAP item 1: deterministic intra-solve
//! parallelism).
//!
//! Sweeps `SolveOptions::jobs` over {1, 2, 4, 8} for every LEP-N scaling
//! instance (detailed configuration, reach TP2 and avoid TP4, `n` up to
//! `TIGA_LEP_MAX_N`) under both solvers, `solve` (on-the-fly) and the
//! `solve_jacobi` reference.  The
//! parallel phases — successor-candidate computation during forward
//! exploration and the per-round π-updates of the fixpoint — are computed
//! against immutable snapshots and merged in canonical state order, so every
//! job count must produce bit-identical results; this bench asserts that on
//! every measured solve while Criterion records the wall-clock series.
//!
//! Meaningful speedups require real cores: on a single-CPU container the
//! series only shows the (small) sharding overhead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tiga_bench::{lep_scaling_instances, SOLVERS};
use tiga_solver::SolveOptions;

const JOB_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn bench_parallel_scaling(c: &mut Criterion) {
    let instances = lep_scaling_instances();
    let mut group = c.benchmark_group("parallel_scaling");
    group.sample_size(10);
    for (engine, solve) in SOLVERS {
        for instance in &instances {
            let reference = solve(
                &instance.system,
                &instance.purpose,
                &SolveOptions::default(),
            )
            .expect("solvable");
            for jobs in JOB_COUNTS {
                let options = SolveOptions {
                    jobs,
                    ..SolveOptions::default()
                };
                let id = BenchmarkId::new(
                    format!("{engine}/{}/{}", instance.model, instance.purpose_name),
                    jobs,
                );
                group.bench_with_input(id, &jobs, |b, _| {
                    b.iter(|| {
                        let solution =
                            solve(&instance.system, &instance.purpose, &options).expect("solvable");
                        assert_eq!(
                            solution.stats(),
                            reference.stats(),
                            "jobs={jobs} drifted from the sequential stats"
                        );
                        black_box(solution)
                    });
                });
            }
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_parallel_scaling
}
criterion_main!(benches);
