//! On-the-fly solving of timed reachability games (OTFUR-style).
//!
//! The eager pipeline ([`crate::solve_jacobi`]) materializes the whole
//! reachable game graph before any back-propagation runs.  This module
//! instead interleaves the two directions in a single waiting/passed-list
//! search, after the on-the-fly algorithm of Cassez, David, Fleury, Larsen
//! and Lime (CONCUR 2005) that UPPAAL-TIGA builds on:
//!
//! * **forward**: popping a state expands its not-yet-processed reach zones
//!   through the same [`GraphBuilder`] steps as the eager exploration:
//!   newly discovered discrete states are interned and re-reached zones are
//!   subsumed against the state's passed list.  As in OTFUR, a pending zone
//!   that a later, larger offer dropped from the passed list is never
//!   expanded: the zone that dropped it is pending too, and finds every
//!   edge and target it would;
//! * **backward**: the same pop re-evaluates the state's winning federation
//!   with the shared `π` update ([`crate::winning::pi_update`]); growth wakes
//!   the recorded dependents, exactly like the `Depend` sets of the paper;
//! * **pruning**: a non-goal state whose own winning set and all successor
//!   winning sets are empty provably gains nothing from an update, so the
//!   evaluation is skipped (`pruned_evaluations` counts the skips);
//! * **early termination**: as soon as the initial state is decided the
//!   search stops — the remaining waiting list is never processed, which
//!   is where the on-the-fly engine beats full-graph exploration.
//!
//! Safety games (`control: A[] φ`) run the **dual on-the-fly rule**: the
//! same search propagates *losing* federations forward from the `¬φ` states
//! (whose reach zones seed the attractor as they are discovered) with the
//! players' roles swapped in the `π` update, prunes subtrees whose losing
//! sets are empty, and early-terminates once the initial state is decided
//! *losing*.  The caller complements the confined losing sets within the
//! reach federations to obtain the safe (winning) sets.
//!
//! A winning [`crate::Strategy`] is extracted *during* the search, through
//! the [`RuleRecorder`] the Jacobi engine writes through too: every growth
//! of a winning federation records its wait/action regions at the current
//! revision counter, which plays the role of the Jacobi round number (every
//! action region recorded at revision `r` leads into regions recorded at
//! revisions `< r`, so the rank order is well-founded and the executor's
//! progress argument carries over unchanged).
//!
//! # The reach-confinement invariant
//!
//! Edges are discovered *per expanded zone*: an edge whose clock guard meets
//! none of a state's expanded reach zones is unknown to the search.  The
//! eager engines are safe against this because they finish exploration
//! before the first fixpoint step; an interleaved search is not — a state
//! evaluated early could claim winning valuations in invariant regions where
//! an undiscovered uncontrollable escape is enabled, and monotone growth
//! would never retract them.  The search therefore **confines every winning
//! federation to the state's reach federation** (goal states: their reach,
//! which is what the offered zones cover).  Expansion of every pending
//! member of the passed list happens immediately before each evaluation,
//! so within the reach every enabled edge is known; and because the reach
//! set is closed under the game dynamics (successor zones of reach zones
//! are offered to the target, delay-closed zones absorb delays), the
//! confined fixpoint agrees with the eager engines' fixpoint on every
//! reachable valuation — in particular at the initial state.  An exhaustive run computes exactly
//! `lfp ∩ reach` per state.

use crate::error::SolverError;
use crate::graph::{GameGraph, GraphBuilder, NodeId};
use crate::stats::MemCounters;
use crate::winning::{
    invariant_boundary, pi_update, EngineOutcome, GameMode, RuleRecorder, SolveOptions,
};
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use tiga_dbm::{Dbm, Federation, ZoneId};
use tiga_model::{DiscreteState, System};
use tiga_tctl::StatePredicate;

/// Per-state bookkeeping of the search, indexed like the builder's nodes.
/// The state's passed list, goal flag and edges live in [`Search::graph`].
struct NodeData {
    /// Passed-list members not yet expanded forward; those a later, larger
    /// offer has dropped since are skipped ([`GraphBuilder::candidates`]).
    frontier: Vec<ZoneId>,
    /// States to re-evaluate when this state's winning federation grows.
    depend: Vec<NodeId>,
}

/// What the read-only snapshot evaluation of one batch member found.
enum EvalOutcome {
    /// Goal state, or the update did not grow the federation.
    Unchanged,
    /// Skipped by the losing-subtree prune (own and successor sets empty).
    Pruned,
    /// The federation grew; the merge phase applies the delta.
    Grown {
        /// The new (strictly larger) winning federation.
        new_win: Federation,
        /// Controllable action regions for strategy extraction, keyed by
        /// edge index.
        action_regions: Vec<(usize, Federation)>,
    },
}

struct Search<'a> {
    system: &'a System,
    options: &'a SolveOptions,
    /// Reachability (propagate winning federations backward from the goal)
    /// or safety (the dual rule: propagate *losing* federations backward
    /// from the `¬φ` states, with the players' roles swapped in `π`).
    mode: GameMode,
    /// Bounded purposes: the `#t <= T` zone intersected into every attractor
    /// seed as it is reached.  `None` for unbounded purposes.
    clip: Option<&'a Dbm>,
    /// The explored part of the game: states, passed lists, goal flags and
    /// edges.  Mutated only in the expand and merge phases of a batch.
    graph: GraphBuilder<'a>,
    nodes: Vec<NodeData>,
    /// Invariant upper boundary (for the forced-move term), per invariant
    /// id of the builder.
    boundaries: Vec<Federation>,
    win: Vec<Federation>,
    recorder: RuleRecorder,
    queue: VecDeque<NodeId>,
    in_queue: Vec<bool>,
    /// Monotone revision counter used as the strategy rank.
    revision: u32,
    subsumed_zones: usize,
    pruned_evaluations: usize,
    pops: usize,
    early_terminated: bool,
    /// Interning/clone/peak counters reported through the engine outcome.
    mem: MemCounters,
    /// Current total zone count across all winning federations.
    win_total: usize,
    /// Time spent in the expansion phase of [`Search::run`].
    exploration_time: Duration,
    /// The discrete state an evaluation unpacks its node into.
    scratch: DiscreteState,
}

/// Runs the on-the-fly search and returns the partial game graph together
/// with the engine outcome and the time spent expanding reach zones (phase 1
/// of every batch; the evaluate and merge phases are the fixpoint).
///
/// `goal` is the attractor seed: the purpose predicate for reachability,
/// its negation (the bad states) for safety.  In safety mode the returned
/// federations are the *losing* attractor; the caller complements them
/// within the reach sets.
pub(crate) fn run(
    system: &System,
    goal: &StatePredicate,
    options: &SolveOptions,
    mode: GameMode,
    clip: Option<&Dbm>,
) -> Result<(GameGraph, EngineOutcome, Duration), SolverError> {
    let (graph, root, root_zone) = GraphBuilder::new(system, goal, &options.explore)?;
    let mut search = Search {
        system,
        options,
        mode,
        clip,
        graph,
        nodes: Vec::new(),
        boundaries: Vec::new(),
        win: Vec::new(),
        recorder: RuleRecorder::new(system.dim(), options, mode),
        queue: VecDeque::new(),
        in_queue: Vec::new(),
        revision: 0,
        subsumed_zones: 0,
        pruned_evaluations: 0,
        pops: 0,
        early_terminated: false,
        mem: MemCounters::default(),
        win_total: 0,
        exploration_time: Duration::ZERO,
        scratch: DiscreteState::default(),
    };
    // The root zone is pending: it is offered and expanded like any other.
    search.sync_nodes();
    search.offer_zone(root, root_zone);
    search.enqueue(root);
    search.run(root)?;
    Ok(search.finish())
}

impl Search<'_> {
    /// Grows the per-node vectors to cover every node the builder has
    /// discovered, and the boundaries to cover every invariant.  Goal
    /// states start with an empty winning federation: their wins are the
    /// *reached* goal zones, added by [`Search::offer_zone`] as they arrive
    /// (the reach-confinement invariant).
    fn sync_nodes(&mut self) {
        let invariants = self.graph.invariants();
        self.boundaries.extend(
            invariants[self.boundaries.len()..]
                .iter()
                .map(|inv| invariant_boundary(&inv.zone, inv.urgent)),
        );
        while self.nodes.len() < self.graph.len() {
            self.nodes.push(NodeData {
                frontier: Vec::new(),
                depend: Vec::new(),
            });
            self.win.push(Federation::empty(self.system.dim()));
            self.in_queue.push(false);
        }
    }

    /// Offers a reach zone to a state's passed list; newly covering zones
    /// join the expansion frontier, already-covered ones count as subsumed.
    ///
    /// Reaching a goal state is what makes its zones winning, so a new goal
    /// zone immediately extends the winning federation (recorded as a rank-0
    /// wait region) and wakes the goal's dependents.
    fn offer_zone(&mut self, node: NodeId, zone: Dbm) -> bool {
        let Some(id) = self.graph.offer(node, &zone) else {
            self.subsumed_zones += 1;
            return false;
        };
        if self.graph.is_goal(node) {
            // Reach zones are delay-closed within the invariant, so the zone
            // is already a valid attractor seed (goal-winning region for
            // reachability, losing region of a bad state for safety).  For
            // bounded purposes only the pre-deadline part `#t <= T` seeds —
            // the zone still joins the frontier in full, because forward
            // exploration is unaffected by the bound.
            let mut seed = zone;
            if let Some(clip) = self.clip {
                seed.intersect(clip);
            }
            if !seed.is_empty() {
                let before = self.win[node].len();
                self.mem.dbm_clones += 1;
                self.recorder.goal_wait(node, &seed);
                self.win[node].add_zone(seed);
                self.win_total = self.win_total + self.win[node].len() - before;
                self.wake_dependents(node);
            }
        }
        self.mem.peak_live_zones = self
            .mem
            .peak_live_zones
            .max(self.graph.reach_total() + self.win_total);
        self.nodes[node].frontier.push(id);
        true
    }

    /// Queues every state whose evaluation read `node`'s winning federation.
    fn wake_dependents(&mut self, node: NodeId) {
        for i in 0..self.nodes[node].depend.len() {
            self.enqueue(self.nodes[node].depend[i]);
        }
    }

    fn enqueue(&mut self, node: NodeId) {
        if !self.in_queue[node] {
            self.in_queue[node] = true;
            self.queue.push_back(node);
        }
    }

    /// The main waiting-list loop, drained in batches.
    ///
    /// Each batch runs three phases:
    ///
    /// 1. **expand** (canonical node order): every batch member's pending
    ///    reach zones are expanded, looping until *all* batch frontiers are
    ///    empty — a member expanded early may be offered a new zone by a
    ///    later member, and the reach-confinement soundness argument
    ///    requires every reach zone of an evaluated state to be expanded
    ///    first;
    /// 2. **evaluate**: the `π` update of every batch member is computed
    ///    against the post-expansion snapshot of the winning federations
    ///    ([`Search::evaluate_one`] is read-only), before any of them is
    ///    applied;
    /// 3. **merge** (canonical node order): growths are applied one by one
    ///    — revision bump, strategy recording, dependent wake-ups and the
    ///    early-termination check all happen in batch order.
    ///
    /// A member evaluated against a snapshot that a batch peer outgrows
    /// during the merge is re-queued through the peer's `depend` set,
    /// exactly like any other stale evaluation.
    fn run(&mut self, root: NodeId) -> Result<(), SolverError> {
        let origin = vec![0i64; self.system.dim()];
        while !self.queue.is_empty() {
            // Draw the whole waiting list as one batch, in canonical
            // (node-id, i.e. discovery) order.  `in_queue` already
            // deduplicates.
            let mut batch: Vec<NodeId> = self.queue.drain(..).collect();
            batch.sort_unstable();
            for &node in &batch {
                self.in_queue[node] = false;
            }
            self.pops += batch.len();
            if self.pops
                > self
                    .options
                    .max_rounds
                    .saturating_mul(self.nodes.len().max(1))
            {
                return Err(SolverError::RoundLimitExceeded {
                    limit: self.options.max_rounds,
                });
            }
            // Phase 1: expansion, to a cross-batch fixpoint — a member
            // expanded early may be offered a new zone by a later member
            // (self-loops included), and every reach zone of an evaluated
            // state must be expanded first: evaluated against a reach zone
            // whose edges are still undiscovered, a state could claim wins
            // where an unknown uncontrollable escape is enabled, and
            // monotone growth would never retract them.  The loop
            // terminates because offered zones are extrapolated (finitely
            // many per state) and passed lists admit only zones that add
            // coverage.
            let expansion_start = Instant::now();
            loop {
                let mut pending: Vec<(NodeId, ZoneId)> = Vec::new();
                for &node in &batch {
                    let frontier = self.nodes[node].frontier.drain(..);
                    pending.extend(frontier.map(|zone| (node, zone)));
                }
                if pending.is_empty() {
                    break;
                }
                // Candidates of the zones still to expand are computed
                // read-only first; discovery and zone offers merge one by
                // one in batch order.
                for result in self.graph.candidates(pending) {
                    let (node, steps) = result?;
                    for step in steps {
                        let (target, zone) = self.graph.discover(node, step)?;
                        self.sync_nodes();
                        // This state must be re-evaluated whenever the
                        // target's winning federation grows (the `Depend`
                        // set of OTFUR).
                        if !self.nodes[target].depend.contains(&node) {
                            self.nodes[target].depend.push(node);
                        }
                        if self.offer_zone(target, zone) {
                            self.enqueue(target);
                        }
                    }
                }
            }
            self.exploration_time += expansion_start.elapsed();
            // Phase 2: snapshot evaluation (read-only on `self`).
            let mut scratch = std::mem::take(&mut self.scratch);
            let outcomes: Vec<_> = batch
                .iter()
                .map(|&node| self.evaluate_one(node, &mut scratch))
                .collect();
            self.scratch = scratch;
            // Phase 3: in-order merge.
            for (&node, outcome) in batch.iter().zip(outcomes) {
                match outcome? {
                    EvalOutcome::Unchanged => {}
                    EvalOutcome::Pruned => self.pruned_evaluations += 1,
                    EvalOutcome::Grown {
                        new_win,
                        action_regions,
                    } => {
                        self.apply_growth(node, new_win, action_regions);
                        // Initial state decided: winning for reachability,
                        // *losing* for safety (the attractor is the losing
                        // set there) — in both cases the verdict is known
                        // and the remaining work is moot.
                        if node == root
                            && self.options.early_termination
                            && self.win[root].contains_scaled(&origin)
                        {
                            self.early_terminated = true;
                            return Ok(());
                        }
                        self.wake_dependents(node);
                    }
                }
            }
        }
        Ok(())
    }

    /// Backward step, read-only half: computes the `π` update of `node`
    /// against the current snapshot of the winning federations.  It must
    /// not (and cannot: `&self`) touch any search state, because every
    /// member of a batch is evaluated before the first growth is merged.
    /// `discrete` is scratch for the node's unpacked state.
    fn evaluate_one(
        &self,
        node: NodeId,
        discrete: &mut DiscreteState,
    ) -> Result<EvalOutcome, SolverError> {
        if self.graph.is_goal(node) {
            return Ok(EvalOutcome::Unchanged);
        }
        let edges = self.graph.edges(node);
        // Losing-subtree pruning: with an empty own set and empty successor
        // sets the update is provably the identity, so skip it.  The state
        // is re-queued through `depend` if a successor ever gains wins.
        if self.win[node].is_empty() && edges.iter().all(|e| self.win[e.target].is_empty()) {
            return Ok(EvalOutcome::Pruned);
        }
        self.graph.discrete(node, discrete);
        let invariant = self.graph.invariant(node);
        let Some((unconfined, action_regions)) = pi_update(
            self.system,
            node,
            discrete,
            &invariant.zone,
            self.graph.is_goal(node),
            invariant.urgent,
            edges,
            &self.boundaries[self.graph.invariant_id(node)],
            &self.win,
            self.mode.swap_roles(),
            |id| &self.graph.invariant(id).zone,
        )?
        else {
            return Ok(EvalOutcome::Unchanged);
        };
        // Reach confinement (see the module docs): outside the expanded
        // reach zones the edge set may be incomplete, so winning valuations
        // there cannot be trusted — and are irrelevant for any reachable
        // play, because the reach set is closed under the game dynamics.
        let mut new_win = unconfined.intersection_with_members(self.graph.reach_zones(node));
        new_win.reduce_exact();
        if self.win[node].includes(&new_win) {
            return Ok(EvalOutcome::Unchanged);
        }
        Ok(EvalOutcome::Grown {
            new_win,
            action_regions,
        })
    }

    /// Backward step, merge half: applies a growth computed by
    /// [`Search::evaluate_one`].  Called in canonical batch order, which
    /// fixes the revision counter and hence the strategy ranks.  Ranks stay
    /// well-founded under batching: the action regions were computed
    /// against the pre-merge snapshot, so every region recorded at the new
    /// revision leads into regions recorded at strictly earlier revisions.
    fn apply_growth(
        &mut self,
        node: NodeId,
        new_win: Federation,
        action_regions: Vec<(usize, Federation)>,
    ) {
        self.revision = self.revision.saturating_add(1);
        self.recorder.growth(
            node,
            self.revision,
            &self.win[node],
            &new_win,
            self.graph.edges(node),
            action_regions,
        );
        let before = self.win[node].len();
        self.win[node] = new_win;
        self.win_total = self.win_total + self.win[node].len() - before;
        self.mem.peak_live_zones = self
            .mem
            .peak_live_zones
            .max(self.graph.reach_total() + self.win_total);
    }

    /// Assembles the partial game graph, the engine outcome and the time
    /// spent expanding.
    fn finish(self) -> (GameGraph, EngineOutcome, Duration) {
        let Search {
            graph,
            win,
            recorder,
            pops,
            subsumed_zones,
            pruned_evaluations,
            early_terminated,
            mut mem,
            exploration_time,
            ..
        } = self;
        let graph = graph.finish(&mut mem);
        let outcome = EngineOutcome {
            winning: win,
            strategy: recorder.into_strategy(&graph),
            iterations: pops,
            subsumed_zones,
            pruned_evaluations,
            early_terminated,
            mem,
        };
        (graph, outcome, exploration_time)
    }
}
