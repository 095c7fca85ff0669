//! Solver statistics, reported by the benchmark harness that regenerates
//! Table 1 of the paper.

use std::time::Duration;

/// Statistics collected while solving a timed game.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of distinct discrete states explored forward.
    pub discrete_states: usize,
    /// Number of joint edges stored in the explored game graph.
    pub graph_edges: usize,
    /// Number of fixpoint rounds (Jacobi solver) or waiting-list pops
    /// (on-the-fly solver) until convergence.
    pub iterations: usize,
    /// Total number of DBMs in the final winning federations.
    pub winning_zones: usize,
    /// Largest number of DBMs held by a single winning federation.
    pub peak_federation_size: usize,
    /// Total number of DBMs in the forward-reachability federations.
    pub reach_zones: usize,
    /// Symbolic states whose reach zone was already covered by the passed
    /// list (on-the-fly solver: zone-level subsumption hits).
    pub subsumed_zones: usize,
    /// Back-propagation evaluations skipped because the state's own and all
    /// successor winning sets were empty — the `π` update is provably the
    /// identity there, which is how losing subtrees are pruned from the
    /// search (on-the-fly solver).
    pub pruned_evaluations: usize,
    /// Whether the search stopped early because the initial state was decided
    /// before the waiting list drained (on-the-fly solver).
    pub early_terminated: bool,
    /// Distinct canonical zones interned by the per-solve zone store
    /// ([`tiga_dbm::ZoneStore`]) that holds the passed lists.
    pub interned_zones: usize,
    /// Intern lookups that found the zone already present — re-derived
    /// zones that cost a hash probe instead of a deep copy.
    pub intern_hits: usize,
    /// Deep DBM copies made at the solver's storage sites: intern misses
    /// (the store keeps its own copy) and goal seeds.
    pub dbm_clones: usize,
    /// Largest number of zones simultaneously held by the reach and winning
    /// federations.
    pub peak_live_zones: usize,
}

/// The interning/memory counter block threaded from the engines into
/// [`SolverStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct MemCounters {
    /// Distinct zones interned.
    pub interned_zones: usize,
    /// Intern lookups resolved without a deep copy.
    pub intern_hits: usize,
    /// Deep DBM copies at storage sites.
    pub dbm_clones: usize,
    /// Peak simultaneous reach + winning zone count.
    pub peak_live_zones: usize,
}

impl SolverStats {
    /// A rough estimate of the memory consumed by the symbolic representation,
    /// in bytes (DBM entries only, the dominant factor).
    ///
    /// Reported alongside the wall-clock time when regenerating Table 1; the
    /// paper reports resident-set sizes of the 2008 UPPAAL-TIGA prototype, so
    /// only growth trends are comparable.
    #[must_use]
    pub fn estimated_zone_bytes(&self, dim: usize) -> usize {
        (self.winning_zones + self.reach_zones) * dim * dim * std::mem::size_of::<i32>()
    }
}

/// Statistics plus wall-clock timing for one solving run.
#[derive(Clone, Debug, Default)]
pub struct TimedStats {
    /// Symbolic statistics.
    pub stats: SolverStats,
    /// Wall-clock time spent exploring forward: building the graph
    /// (Jacobi), or the expansion phases of the interleaved search (OTFUR).
    pub exploration_time: Duration,
    /// Wall-clock time spent in the backward fixpoint: the rest of the
    /// solve.
    pub fixpoint_time: Duration,
    /// Wall-clock time spent extracting a safety strategy from the
    /// converged sets, after the fixpoint.  Zero for reachability, whose
    /// rules are recorded during the fixpoint.  Not part of
    /// [`TimedStats::total_time`].
    pub extraction_time: Duration,
}

impl TimedStats {
    /// Total solving time: exploration plus fixpoint.
    #[must_use]
    pub fn total_time(&self) -> Duration {
        self.exploration_time + self.fixpoint_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_estimate_scales_with_zones_and_dimension() {
        let stats = SolverStats {
            winning_zones: 10,
            reach_zones: 5,
            ..SolverStats::default()
        };
        assert_eq!(stats.estimated_zone_bytes(4), 15 * 16 * 4);
        assert!(stats.estimated_zone_bytes(8) > stats.estimated_zone_bytes(4));
    }

    #[test]
    fn total_time_adds_phases() {
        let t = TimedStats {
            exploration_time: Duration::from_millis(10),
            fixpoint_time: Duration::from_millis(5),
            ..TimedStats::default()
        };
        assert_eq!(t.total_time(), Duration::from_millis(15));
    }
}
