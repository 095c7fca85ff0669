//! Content-hash solve cache.
//!
//! Repeated or duplicate submissions of the same game are answered from a
//! cache instead of re-solving.  The key ([`SolveCache::key`]) is the
//! *content* of the request — the canonical serialized system (the
//! exact-inverse `print_system` text, including the `control:` objective)
//! plus every option that can change the verdict, stats or strategy.
//! `jobs` is deliberately excluded: results are bit-identical for any
//! thread count (pinned by the solver's differential suites), so a cache hit
//! is exact no matter how many threads produced the entry.
//!
//! [`SolveCache`] is the plain form: an unbounded map from keys to what its
//! user stores, [`CacheEntry`] (the solve result itself) by default, with
//! hit/miss counters.  `tiga serve` files its answers under the same key and
//! [`SolveCache::fingerprint`], but in a store of its own that keeps only
//! rendered bytes and drops the least recently used past a byte budget, so
//! that a long session's memory stays bounded.

use crate::controller::CompiledController;
use crate::stats::SolverStats;
use crate::strategy::Strategy;
use crate::winning::SolveOptions;
use std::collections::HashMap;

/// A cached solve result: everything a response needs, nothing volatile.
/// Wall-clock timing is intentionally absent — it belongs to the solve that
/// produced the entry, not to the game.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheEntry {
    /// Whether the initial state is winning.
    pub winning: bool,
    /// The full 13-field statistics block of the original solve.
    pub stats: SolverStats,
    /// The extracted strategy, when one was requested and the game is won.
    pub strategy: Option<Strategy>,
    /// The minimized, compiled form of `strategy`.  Compiled once at store
    /// time so cache hits answer `minimized_rules`/`controller_states` and
    /// controller downloads without re-running the minimizer.
    pub controller: Option<CompiledController>,
}

/// Hit/miss counters, reported in `tiga serve` responses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing (the caller then solves and stores).
    pub misses: u64,
}

/// A content-addressed store of solve results, or of what a caller derives
/// from them (`E`).
#[derive(Debug)]
pub struct SolveCache<E = CacheEntry> {
    entries: HashMap<String, E>,
    stats: CacheStats,
}

impl<E> Default for SolveCache<E> {
    fn default() -> Self {
        SolveCache {
            entries: HashMap::new(),
            stats: CacheStats::default(),
        }
    }
}

// The key does not depend on what a cache stores; defining it on the default
// instantiation lets callers write `SolveCache::key` without naming `E`.
impl SolveCache {
    /// Builds the cache key for a canonical system text and solve options.
    ///
    /// `canonical_system` must be the exact-inverse serializer output
    /// (`tiga_lang::print_system` with the objective's `control:` line), so
    /// that textually different but semantically identical submissions —
    /// reordered flags, an inline model vs. the same file on disk — collide
    /// onto one entry.  Only semantics-relevant options participate; `jobs`
    /// changes no result and is excluded by design.
    #[must_use]
    pub fn key(canonical_system: &str, options: &SolveOptions) -> String {
        format!(
            "{canonical_system}\x1e\
             engine={engine}\n\
             extract_strategy={extract}\n\
             early_termination={early}\n\
             max_rounds={rounds}\n\
             max_states={states}\n",
            engine = options.engine.name(),
            extract = options.extract_strategy,
            early = options.early_termination,
            rounds = options.max_rounds,
            states = options.explore.max_states,
        )
    }

    /// A short printable digest of a key (FNV-1a 64), for response envelopes
    /// and logs.  Entries are stored under the full key, so digest
    /// collisions cannot cause wrong answers.
    #[must_use]
    pub fn fingerprint(key: &str) -> String {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in key.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{hash:016x}")
    }
}

impl<E> SolveCache<E> {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        SolveCache::default()
    }

    /// Looks up a key, counting a hit or a miss, and returns a clone of the
    /// cached entry.
    pub fn lookup(&mut self, key: &str) -> Option<E>
    where
        E: Clone,
    {
        match self.entries.get(key) {
            Some(entry) => {
                self.stats.hits += 1;
                Some(entry.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Whether a key is present, without touching the counters (used to plan
    /// batch sharding before the in-order merge does the counted lookups).
    #[must_use]
    pub fn contains(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// Stores an entry under a key.
    pub fn store(&mut self, key: String, entry: E) {
        self.entries.insert(key, entry);
    }

    /// Number of cached games.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The hit/miss counters so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::winning::SolveEngine;

    fn entry(winning: bool) -> CacheEntry {
        CacheEntry {
            winning,
            stats: SolverStats {
                discrete_states: 7,
                ..SolverStats::default()
            },
            strategy: None,
            controller: None,
        }
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let mut cache = SolveCache::new();
        let key = SolveCache::key("system x", &SolveOptions::default());
        assert!(cache.lookup(&key).is_none());
        cache.store(key.clone(), entry(true));
        let hit = cache.lookup(&key).expect("stored entry");
        assert!(hit.winning);
        assert_eq!(hit.stats.discrete_states, 7);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
        assert!(cache.contains(&key));
        // `contains` does not count.
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn key_separates_semantics_relevant_options_only() {
        let base = SolveOptions::default();
        let key = SolveCache::key("m", &base);
        // jobs does not change results — same key.
        let mut same = base.clone();
        same.jobs = 8;
        assert_eq!(SolveCache::key("m", &same), key);
        // Engine, termination mode, strategy extraction and budgets do.
        let mut other = base.clone();
        other.engine = SolveEngine::Jacobi;
        assert_ne!(SolveCache::key("m", &other), key);
        let mut other = base.clone();
        other.early_termination = false;
        assert_ne!(SolveCache::key("m", &other), key);
        let mut other = base.clone();
        other.extract_strategy = false;
        assert_ne!(SolveCache::key("m", &other), key);
        let mut other = base.clone();
        other.max_rounds = 3;
        assert_ne!(SolveCache::key("m", &other), key);
        let mut other = base;
        other.explore.max_states = 42;
        assert_ne!(SolveCache::key("m", &other), key);
        // And the system text itself, of course.
        assert_ne!(SolveCache::key("m2", &SolveOptions::default()), key);
    }

    #[test]
    fn fingerprint_is_stable_and_collision_free_enough() {
        let a = SolveCache::fingerprint("a");
        assert_eq!(a.len(), 16);
        assert_eq!(a, SolveCache::fingerprint("a"));
        assert_ne!(a, SolveCache::fingerprint("b"));
        // Known FNV-1a 64 vector.
        assert_eq!(SolveCache::fingerprint(""), "cbf29ce484222325");
    }

    #[test]
    fn any_entry_type_is_counted_the_same_way() {
        // Entries behind an `Arc` are shared on a hit: it clones a pointer,
        // not the payload.
        let mut cache: SolveCache<std::sync::Arc<str>> = SolveCache::new();
        let key = SolveCache::key("m", &SolveOptions::default());
        assert!(cache.lookup(&key).is_none());
        cache.store(key.clone(), std::sync::Arc::from("payload"));
        let hit = cache.lookup(&key).expect("stored entry");
        assert_eq!(&*hit, "payload");
        assert_eq!(std::sync::Arc::strong_count(&hit), 2, "shared, not copied");
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
    }
}
