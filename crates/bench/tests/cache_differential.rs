//! Differential pins for the content-hash solve cache, whose key `tiga
//! serve` keeps its answers under.
//!
//! The cache's correctness rests on two properties, checked here against
//! fresh solves rather than against itself:
//!
//! * a cache *hit* is bit-identical to the *miss* that populated it and to
//!   a fresh solve of the same game, whatever the ignored `jobs` field
//!   holds;
//! * the key contains exactly the semantics-relevant inputs: the canonical
//!   serialized system (with its `control:` objective) and the options that
//!   change the answer (strategy extraction, early termination,
//!   round/state budgets) — and *not* `jobs`, which the solver ignores.

use tiga_bench::model_zoo;
use tiga_lang::print_system;
use tiga_solver::{print_strategy, solve, CacheEntry, ExploreOptions, SolveCache, SolveOptions};

fn entry_for(instance: &tiga_bench::ZooInstance, opts: &SolveOptions) -> CacheEntry {
    let solution = solve(&instance.system, &instance.purpose, opts).expect("solves");
    let controller = solution
        .strategy
        .as_ref()
        .map(tiga_solver::CompiledController::compile);
    CacheEntry {
        winning: solution.winning_from_initial,
        stats: solution.stats().clone(),
        strategy: solution.strategy,
        controller,
    }
}

#[test]
fn cache_hits_are_bit_identical_to_fresh_solves_at_any_jobs() {
    let zoo = model_zoo();
    let mut cache = SolveCache::new();
    // Populate the cache from solves of the small zoo models (skipping the
    // detailed lep4 workload keeps the test fast).
    let instances: Vec<_> = zoo.iter().filter(|i| i.model != "lep4").collect();
    for instance in &instances {
        let canonical = print_system(&instance.system, Some(&instance.purpose));
        let key = SolveCache::key(&canonical, &SolveOptions::default());
        assert!(cache.lookup(&key).is_none(), "fresh cache");
        cache.store(key, entry_for(instance, &SolveOptions::default()));
    }
    assert_eq!(cache.stats().misses, instances.len() as u64);

    // Every instance solved again, with another `jobs` value, must match
    // the cached entry exactly — verdict, all 14 stats counters, and the
    // serialized strategy text byte-for-byte.
    for instance in &instances {
        let canonical = print_system(&instance.system, Some(&instance.purpose));
        let key = SolveCache::key(&canonical, &SolveOptions::default());
        let cached = cache.lookup(&key).expect("populated above");
        let fresh = entry_for(
            instance,
            &SolveOptions {
                jobs: 4,
                ..SolveOptions::default()
            },
        );
        assert_eq!(
            cached, fresh,
            "{}/{}: the fresh solve differs from the cached entry",
            instance.model, instance.purpose_name
        );
        let name = instance.system.name();
        assert_eq!(
            print_strategy(name, cached.winning, cached.strategy.as_ref()),
            print_strategy(name, fresh.winning, fresh.strategy.as_ref()),
            "{}/{}: serialized strategies must be byte-identical",
            instance.model,
            instance.purpose_name
        );
    }
    assert_eq!(cache.stats().hits, instances.len() as u64);
    assert_eq!(cache.len(), instances.len());
}

#[test]
fn cache_keys_cover_semantics_and_ignore_parallelism() {
    let zoo = model_zoo();
    let a = &zoo[0];
    let b = zoo
        .iter()
        .find(|i| i.model == a.model && i.purpose_name != a.purpose_name)
        .expect("the zoo has several purposes per model");

    let canonical_a = print_system(&a.system, Some(&a.purpose));
    let canonical_b = print_system(&b.system, Some(&b.purpose));
    assert_ne!(
        canonical_a, canonical_b,
        "the canonical text embeds the control: objective"
    );

    let defaults = SolveOptions::default();
    let base_key = SolveCache::key(&canonical_a, &defaults);

    // The ignored jobs field is NOT part of the key...
    for jobs in [0usize, 1, 4] {
        let opts = SolveOptions {
            jobs,
            ..SolveOptions::default()
        };
        assert_eq!(
            SolveCache::key(&canonical_a, &opts),
            base_key,
            "jobs={jobs} must share the key"
        );
    }

    // ...while every semantics-relevant input is.
    assert_ne!(
        SolveCache::key(&canonical_b, &defaults),
        base_key,
        "objective"
    );
    let variations = [
        SolveOptions {
            explore: ExploreOptions { max_states: 42 },
            ..SolveOptions::default()
        },
        SolveOptions {
            extract_strategy: false,
            ..SolveOptions::default()
        },
        SolveOptions {
            early_termination: false,
            ..SolveOptions::default()
        },
        SolveOptions {
            max_rounds: 7,
            ..SolveOptions::default()
        },
    ];
    for (i, opts) in variations.iter().enumerate() {
        assert_ne!(
            SolveCache::key(&canonical_a, opts),
            base_key,
            "variation {i} must change the key"
        );
    }

    // Fingerprints are stable hex and distinct keys (almost surely) get
    // distinct fingerprints; equal keys always do.
    let fp = SolveCache::fingerprint(&base_key);
    assert_eq!(fp.len(), 16, "64-bit FNV-1a in hex");
    assert_eq!(
        fp,
        SolveCache::fingerprint(&SolveCache::key(&canonical_a, &defaults))
    );
    assert_ne!(
        fp,
        SolveCache::fingerprint(&SolveCache::key(&canonical_b, &defaults))
    );
}
