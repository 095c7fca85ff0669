//! Micro-benchmarks of the DBM/federation substrate (ablation E8 in
//! DESIGN.md): the cost of the zone operations that dominate timed-game
//! solving, across dimensions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tiga_bench::bench_rng;
use tiga_dbm::ZoneStore;
use tiga_gen::{random_federation, random_zone};

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

criterion_group!(
    benches,
    bench_zone_ops,
    bench_federation_ops,
    bench_interning_ops
);
criterion_main!(benches);
