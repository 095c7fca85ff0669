//! Micro-benchmarks of the DBM/federation substrate (ablation E8 in
//! DESIGN.md): the cost of the zone operations that dominate timed-game
//! solving, across dimensions, and of the packed discrete-state store the
//! explorer interns states in.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tiga_bench::bench_rng;
use tiga_dbm::{Bound, Coverage, Dbm, ZoneStore};
use tiga_gen::{random_federation, random_zone};
use tiga_model::{DiscreteState, StateStore};

fn bench_zone_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("dbm");
    for dim in [4usize, 8, 12] {
        let mut rng = bench_rng();
        let zones: Vec<_> = (0..64).map(|_| random_zone(&mut rng, dim, 20)).collect();
        group.bench_with_input(BenchmarkId::new("up_down", dim), &dim, |b, _| {
            let mut idx = 0;
            b.iter(|| {
                let mut z = zones[idx % zones.len()].clone();
                idx += 1;
                z.up();
                z.down();
                black_box(z);
            });
        });
        group.bench_with_input(BenchmarkId::new("intersection", dim), &dim, |b, _| {
            let mut idx = 0;
            b.iter(|| {
                let a = &zones[idx % zones.len()];
                let bz = &zones[(idx + 7) % zones.len()];
                idx += 1;
                black_box(a.intersection(bz));
            });
        });
        group.bench_with_input(BenchmarkId::new("relation", dim), &dim, |b, _| {
            let mut idx = 0;
            b.iter(|| {
                let a = &zones[idx % zones.len()];
                let bz = &zones[(idx + 3) % zones.len()];
                idx += 1;
                black_box(a.relation(bz));
            });
        });
    }
    group.finish();
}

/// Whether no pair of opposite bounds already refutes `a ∩ b`, so
/// `intersects` has to take its exact closure.
fn passes_pairwise_refutation(a: &Dbm, b: &Dbm) -> bool {
    let n = a.dim();
    (0..n).all(|i| (0..n).all(|j| a.at(i, j) + b.at(j, i) >= Bound::ZERO_LE))
}

/// The box `lo <= x_k <= hi` on every real clock.
fn boxed(dim: usize, lo: i32, hi: i32) -> Dbm {
    let mut z = Dbm::universe(dim);
    for k in 1..dim {
        z.constrain(0, k, Bound::le(-lo));
        z.constrain(k, 0, Bound::le(hi));
    }
    z
}

/// The kernels of the solver's inner loops: incremental `constrain`, the
/// exact `intersects` path and the coverage check.
fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel");
    for dim in [4usize, 8, 12] {
        let mut rng = bench_rng();
        let zones: Vec<_> = (0..64).map(|_| random_zone(&mut rng, dim, 20)).collect();
        group.bench_with_input(BenchmarkId::new("constrain", dim), &dim, |b, _| {
            let mut scratch = zones[0].clone();
            let mut idx = 0;
            b.iter(|| {
                scratch.clone_from(&zones[idx % zones.len()]);
                idx += 1;
                let k = 1 + idx % (dim - 1);
                black_box(
                    scratch.constrain(k, 0, Bound::lt(10))
                        && scratch.constrain(0, k, Bound::le(-3)),
                );
            });
        });
        let pairs: Vec<(usize, usize)> = (0..zones.len())
            .flat_map(|i| (0..zones.len()).map(move |j| (i, j)))
            .filter(|&(i, j)| i != j && passes_pairwise_refutation(&zones[i], &zones[j]))
            .take(64)
            .collect();
        group.bench_with_input(BenchmarkId::new("intersects_exact", dim), &dim, |b, _| {
            let mut idx = 0;
            b.iter(|| {
                let (i, j) = pairs[idx % pairs.len()];
                idx += 1;
                black_box(zones[i].intersects(&zones[j]));
            });
        });
        // Coverage of the box [2, 6]: by one enclosing cover among misses,
        // by covers that all miss it, and by two halves that split it.
        let zone = boxed(dim, 2, 6);
        let single = [boxed(dim, 8, 9), boxed(dim, 0, 7), boxed(dim, 10, 12)];
        let disjoint = [boxed(dim, 7, 9), boxed(dim, 10, 12), boxed(dim, 13, 15)];
        let mut low = boxed(dim, 0, 9);
        low.constrain(1, 0, Bound::le(4));
        let mut high = boxed(dim, 0, 9);
        high.constrain(0, 1, Bound::le(-4));
        let split = [low, high];
        for (name, covers) in [
            ("covers_single_hit", &single[..]),
            ("covers_disjoint_miss", &disjoint[..]),
            ("covers_split", &split[..]),
        ] {
            group.bench_with_input(BenchmarkId::new(name, dim), &dim, |b, _| {
                let mut coverage = Coverage::default();
                b.iter(|| black_box(coverage.covers(&zone, covers)));
            });
        }
    }
    group.finish();
}

fn bench_federation_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("federation");
    for dim in [4usize, 8] {
        let mut rng = bench_rng();
        let feds: Vec<_> = (0..32)
            .map(|_| random_federation(&mut rng, dim, 4, 20))
            .collect();
        group.bench_with_input(BenchmarkId::new("subtract", dim), &dim, |b, _| {
            let mut idx = 0;
            b.iter(|| {
                let a = feds[idx % feds.len()].clone();
                let bz = &feds[(idx + 5) % feds.len()];
                idx += 1;
                black_box(a.difference(bz));
            });
        });
        group.bench_with_input(BenchmarkId::new("pred_t", dim), &dim, |b, _| {
            let mut idx = 0;
            b.iter(|| {
                let good = &feds[idx % feds.len()];
                let bad = &feds[(idx + 11) % feds.len()];
                idx += 1;
                black_box(good.pred_t(bad));
            });
        });
        group.bench_with_input(BenchmarkId::new("includes", dim), &dim, |b, _| {
            let mut idx = 0;
            b.iter(|| {
                let a = &feds[idx % feds.len()];
                let bz = &feds[(idx + 9) % feds.len()];
                idx += 1;
                black_box(a.includes(bz));
            });
        });
    }
    group.finish();
}

fn bench_interning_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("intern");
    for dim in [4usize, 8] {
        let mut rng = bench_rng();
        let zones: Vec<_> = (0..64).map(|_| random_zone(&mut rng, dim, 20)).collect();
        // Re-interning a warm store is the solver's hot path: most offered
        // zones were derived before, so a lookup is a hash probe, not a copy.
        group.bench_with_input(BenchmarkId::new("intern_hit", dim), &dim, |b, _| {
            let mut store = ZoneStore::new(dim);
            for z in &zones {
                store.intern(z);
            }
            let mut idx = 0;
            b.iter(|| {
                let z = &zones[idx % zones.len()];
                idx += 1;
                black_box(store.intern(z));
            });
        });
        group.bench_with_input(BenchmarkId::new("minimize", dim), &dim, |b, _| {
            let mut idx = 0;
            b.iter(|| {
                let z = &zones[idx % zones.len()];
                idx += 1;
                black_box(z.minimize());
            });
        });
        let minimal: Vec<_> = zones.iter().map(|z| z.minimize()).collect();
        group.bench_with_input(BenchmarkId::new("rehydrate", dim), &dim, |b, _| {
            let mut idx = 0;
            b.iter(|| {
                let m = &minimal[idx % minimal.len()];
                idx += 1;
                black_box(m.rehydrate());
            });
        });
    }
    group.finish();
}

/// The packed state store on the discrete states of the detailed lep4
/// avoid objective (lep4.tp4): interning a stored state (the successor
/// lookup of a known target), interning a new one, packing and finding a
/// state (`GameGraph::node_of`), and unpacking one.
fn bench_state_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("state_store");
    let (system, purpose) = tiga_bench::lep_detailed_instance(4, 3);
    let solution = tiga_solver::solve(&system, &purpose, &tiga_solver::SolveOptions::default())
        .expect("lep4.tp4 solves");
    let graph = &solution.graph;
    let states: Vec<DiscreteState> = (0..graph.len())
        .map(|id| {
            let mut d = DiscreteState::default();
            graph.discrete(id, &mut d);
            d
        })
        .collect();
    let mut warm = StateStore::new(&system);
    for d in &states {
        warm.intern(d).expect("explored states pack");
    }
    group.bench_function("intern_hit", |b| {
        let mut idx = 0;
        b.iter(|| {
            idx += 1;
            black_box(warm.intern(&states[idx % states.len()]).unwrap());
        });
    });
    group.bench_function("intern_miss", |b| {
        let mut store = StateStore::new(&system);
        let mut idx = 0;
        b.iter(|| {
            if idx % states.len() == 0 {
                store = StateStore::new(&system);
            }
            black_box(store.intern(&states[idx % states.len()]).unwrap());
            idx += 1;
        });
    });
    group.bench_function("find", |b| {
        let mut packed = vec![0; warm.layout().words()];
        let mut idx = 0;
        b.iter(|| {
            idx += 1;
            let d = &states[idx % states.len()];
            warm.layout().pack(d, &mut packed).unwrap();
            black_box(warm.find(&packed));
        });
    });
    group.bench_function("decode", |b| {
        let mut out = DiscreteState::default();
        let mut idx = 0;
        b.iter(|| {
            idx += 1;
            warm.decode(idx % states.len(), &mut out);
            black_box(&out);
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_zone_ops,
    bench_kernels,
    bench_federation_ops,
    bench_interning_ops,
    bench_state_store
);
criterion_main!(benches);
