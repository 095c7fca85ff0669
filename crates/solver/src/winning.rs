//! Backward fixpoint computation of the winning states of a timed game
//! (reachability *and* safety), and strategy extraction.
//!
//! For a reachability purpose (`control: A<> φ`) the winning set is the
//! least fixpoint of
//!
//! ```text
//! W = Goal ∪ π(W)
//! π(W)(q) = Pred_t( W(q) ∪ cPred(W)(q) ∪ Forced(W)(q),  uPred(¬W)(q) ) ∩ Inv(q)
//! ```
//!
//! where
//!
//! * `cPred(W)(q)` are the valuations from which some **controllable** joint
//!   edge leads into `W`,
//! * `uPred(¬W)(q)` are the valuations from which some **uncontrollable**
//!   joint edge leads outside `W` (the set the delay trajectory must avoid),
//! * `Forced(W)(q)` are the valuations at the upper boundary of the invariant
//!   where at least one uncontrollable edge is enabled and *every* enabled
//!   uncontrollable edge leads into `W`: time cannot progress, so the plant is
//!   forced to move into `W` (this is what lets the tester win by waiting for
//!   outputs that the invariant forces, as in the Smart Light example), and
//! * `Pred_t` is the safe time-predecessor operator
//!   ([`tiga_dbm::Federation::pred_t`]).
//!
//! A safety purpose (`control: A[] φ`) is solved through its dual: the safe
//! set is the greatest fixpoint `νX. Safe ∩ CPred_t(X)`, whose complement is
//! the **least** fixpoint of the *environment's* reachability game into the
//! bad states `¬φ`.  The engines therefore compute the losing attractor `L`
//! with the very same `π` transformer, with the two players' roles swapped
//! (uncontrollable edges play the `cPred` part, controllable edges supply
//! the avoid-set, the urgent-state `δ = 0` degeneration is preserved) and
//! `¬φ` states seeded as absorbing targets; the winning (safe) federations
//! are then `Inv \ L` per state (`reach \ L` for the on-the-fly engine,
//! which confines every federation to its explored reach).  Strategy
//! extraction for safety yields a *safe, possibly non-terminating*
//! controller: wait where no delay can drift into `L`, take a controllable
//! escape into the safe set where delay — or an enabled plant move — could
//! reach `L` (see [`extract_safety_strategy`]).
//!
//! Two engines compute these fixpoints: [`solve`] runs the on-the-fly
//! engine ([`crate::otfur`]) that interleaves exploration with propagation,
//! and [`solve_jacobi`] runs a Jacobi (round-based) solver that also
//! extracts a rank-annotated [`Strategy`] and serves as the
//! differential-testing oracle.  This module owns the shared machinery:
//! the [`pi_update`] single-state transformer, the [`RuleRecorder`] both
//! engines write reachability strategies through, the options, and the
//! entry point both functions share, which assembles every
//! [`GameSolution`].

use crate::error::SolverError;
use crate::graph::{ExploreOptions, GameGraph, GraphEdge, NodeId};
use crate::stats::{MemCounters, SolverStats, TimedStats};
use crate::strategy::{Decision, Strategy, StrategyRule};
use std::cmp::Ordering;
use std::time::{Duration, Instant};
use tiga_dbm::{Bound, Dbm, Federation};
use tiga_model::{ClockConstraint, CmpOp, DiscreteState, JointEdge, ModelError, System};
use tiga_tctl::{PathQuantifier, TestPurpose};

/// Options controlling the game solver.
#[derive(Clone, Debug)]
pub struct SolveOptions {
    /// Forward-exploration options.
    pub explore: ExploreOptions,
    /// Whether to extract a state-based strategy.
    pub extract_strategy: bool,
    /// Whether the on-the-fly engine may stop as soon as the initial state
    /// is decided winning.  Disable to force exhaustive propagation (the
    /// winning federations then coincide with the eager engines').
    pub early_termination: bool,
    /// Safety valve on the number of fixpoint rounds (eager engines) or a
    /// per-state reevaluation budget (on-the-fly engine).  A solve that
    /// exhausts it fails with [`SolverError::RoundLimitExceeded`].
    pub max_rounds: usize,
    /// Ignored: every solve runs on the calling thread, whatever the value.
    /// The field is kept only so that existing callers that set it still
    /// build; it will be removed.
    pub jobs: usize,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            explore: ExploreOptions::default(),
            extract_strategy: true,
            early_termination: true,
            max_rounds: 10_000,
            jobs: 1,
        }
    }
}

/// The result of solving a timed game.
#[derive(Clone, Debug)]
pub struct GameSolution {
    /// Whether the initial state (all clocks zero) is winning.
    pub winning_from_initial: bool,
    /// The explored game graph.
    pub graph: GameGraph,
    /// Winning federations, one per graph node.
    pub winning: Vec<Federation>,
    /// The synthesized strategy (when requested and the game is winnable).
    pub strategy: Option<Strategy>,
    /// The time bound of the purpose, if any.  Bounded games are solved on
    /// the augmented system (see [`bounded_system`]): the graph, federations
    /// and strategy all have one extra trailing [`TICK_CLOCK`] dimension, and
    /// [`GameSolution::is_winning_state`] expects the tick clock's value as
    /// the last element of `ticks`.
    pub bound: Option<i64>,
    /// Statistics and timing.
    pub timed: TimedStats,
}

impl GameSolution {
    /// Whether a concrete state (discrete part + clock ticks) is winning.
    /// Its dead variables are projected away first, like the explored
    /// states' (see [`GameGraph::liveness`]).
    ///
    /// States outside the explored graph are reported as not winning.
    #[must_use]
    pub fn is_winning_state(&self, discrete: &DiscreteState, ticks: &[i64], scale: i64) -> bool {
        let mut scratch = DiscreteState::default();
        let discrete = self.graph.liveness().project(discrete, &mut scratch);
        let Some(node) = self.graph.node_of(discrete) else {
            return false;
        };
        let mut vals = Vec::with_capacity(ticks.len() + 1);
        vals.push(0);
        vals.extend_from_slice(ticks);
        self.winning[node].contains_at(&vals, scale)
    }

    /// Statistics convenience accessor.
    #[must_use]
    pub fn stats(&self) -> &SolverStats {
        &self.timed.stats
    }
}

/// Solves a timed game — reachability (`control: A<> φ`) or safety
/// (`control: A[] φ`) — with the on-the-fly (OTFUR) engine, the solver
/// behind every front end.
///
/// # Errors
///
/// Propagates exploration and evaluation errors, and returns
/// [`SolverError::RoundLimitExceeded`] when `options.max_rounds` runs out
/// before the fixpoint.
pub fn solve(
    system: &System,
    purpose: &TestPurpose,
    options: &SolveOptions,
) -> Result<GameSolution, SolverError> {
    solve_with(system, purpose, options, Algorithm::Otfur)
}

/// Solves a timed game (reachability or safety) with the eager Jacobi
/// engine and optionally extracts a winning strategy: the reference
/// [`solve`] is checked against (differential tests, the fuzz oracle and
/// the benchmark matrix).
///
/// # Errors
///
/// Propagates exploration and evaluation errors, and returns
/// [`SolverError::RoundLimitExceeded`] when `options.max_rounds` runs out
/// before the fixpoint.
pub fn solve_jacobi(
    system: &System,
    purpose: &TestPurpose,
    options: &SolveOptions,
) -> Result<GameSolution, SolverError> {
    solve_with(system, purpose, options, Algorithm::Jacobi)
}

/// The signature [`solve`] and [`solve_jacobi`] share.
#[cfg(test)]
pub(crate) type Solver =
    fn(&System, &TestPurpose, &SolveOptions) -> Result<GameSolution, SolverError>;

/// Both solvers under the row labels of the benchmark matrix, for the tests
/// that run each.
#[cfg(test)]
pub(crate) const SOLVERS: [(&str, Solver); 2] = [("otfur", solve), ("jacobi", solve_jacobi)];

/// What an engine hands back to the shared assembly code.
pub(crate) struct EngineOutcome {
    pub winning: Vec<Federation>,
    pub strategy: Option<Strategy>,
    pub iterations: usize,
    pub subsumed_zones: usize,
    pub pruned_evaluations: usize,
    pub early_terminated: bool,
    pub mem: MemCounters,
}

/// How a purpose maps onto the attractor computation the engines run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum GameMode {
    /// `A<> φ`: the attractor *is* the tester's winning set, goal = `φ`.
    Reachability,
    /// `A[] φ`: the attractor is the *losing* set of the dual (role-swapped)
    /// reachability game into the bad states `¬φ`; the winning set is its
    /// complement within the invariant (resp. the explored reach).
    Safety,
}

impl GameMode {
    /// Whether the `π` transformer swaps the two players' edge roles.
    pub(crate) fn swap_roles(self) -> bool {
        self == GameMode::Safety
    }
}

/// Name of the auxiliary, never-reset tick clock injected for time-bounded
/// purposes (`control: A<><=T φ` / `A[]<=T φ`).  The `#` prefix cannot be
/// lexed in `.tg` models, so the name can never clash with a user clock.
pub const TICK_CLOCK: &str = "#t";

/// The augmented system a *bounded* purpose is solved on: the original
/// system plus a fresh, never-reset [`TICK_CLOCK`] clock measuring global
/// elapsed time (extrapolated up to the bound).  Returns `None` for
/// unbounded purposes, which are solved on the original system directly.
///
/// Strategies and controllers synthesized for a bounded purpose are
/// expressed over this augmented system — callers that render them
/// (clock names) or query them (one extra trailing clock value) need it.
///
/// # Errors
///
/// Returns [`SolverError::Model`] if the bound is negative or exceeds
/// [`tiga_model::MAX_CONSTANT`], or if the system already declares a clock
/// named `#t`.
pub fn bounded_system(
    system: &System,
    purpose: &TestPurpose,
) -> Result<Option<System>, SolverError> {
    match purpose.bound {
        Some(t) => bounded_parts(system, t).map(|(aug, _)| Some(aug)),
        None => Ok(None),
    }
}

/// Builds the augmented system and the clip zone `#t <= T` for a bounded
/// purpose.
fn bounded_parts(system: &System, bound: i64) -> Result<(System, Dbm), SolverError> {
    let max = i32::try_from(bound).unwrap_or(i32::MIN);
    let (aug, tick) = system.with_extra_clock(TICK_CLOCK, max)?;
    let mut clip = Dbm::universe(aug.dim());
    clip.constrain(tick.dbm_index(), 0, Bound::le(max));
    Ok((aug, clip))
}

/// Refuses a system (after any time bound added its clock) whose clock
/// constants exceed [`tiga_model::max_constant_for`] its clock count: the
/// extrapolation constants of [`System::max_bounds`] cover guards,
/// invariants, constant resets and the bound.  A reset to an expression
/// over variables counts too, with the conservative bound
/// [`ClockConstraint::max_constant`] gives a guard `x <= e` (extrapolation
/// leaves such resets out).  Within that limit no zone of the solve
/// saturates at the encoding ceiling, so every strategy it prints parses
/// back.  Every front end passes here: `.tg` files, `--purpose`,
/// `tiga serve` requests and systems built in Rust.
fn check_constant_ceiling(system: &System) -> Result<(), SolverError> {
    let clocks = system.dim() - 1;
    let limit = tiga_model::max_constant_for(clocks);
    let resets = system
        .automata()
        .iter()
        .flat_map(|a| a.edges())
        .flat_map(|e| &e.resets)
        .filter(|r| r.value.as_constant().is_none())
        .map(|r| {
            ClockConstraint::new(r.clock, CmpOp::Le, r.value.clone()).max_constant(system.vars())
        });
    let bounds = system.max_bounds().into_iter().map(i64::from);
    match bounds.chain(resets).max() {
        Some(m) if m > i64::from(limit) => Err(SolverError::Model(ModelError::Invalid(format!(
            "clock constant {m} is too large: a model over {clocks} clocks allows at most {limit}"
        )))),
        _ => Ok(()),
    }
}

/// The fixpoint algorithm of [`solve`] and of [`solve_jacobi`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum Algorithm {
    /// On-the-fly (OTFUR-style): interleaves forward exploration with
    /// backward winning-federation propagation, subsumes re-reached zones,
    /// prunes provably-losing subtrees and stops as soon as the initial
    /// state is decided.  Extracts a strategy during the search.
    Otfur,
    /// Eager exploration followed by a round-based (Jacobi) fixpoint with
    /// rank-annotated strategy extraction.
    Jacobi,
}

/// The entry point behind both public solver functions: derives the game
/// mode from the purpose, runs the algorithm, and assembles the solution
/// (safety complementation, timing, statistics, `winning_from_initial`,
/// strategy gating) uniformly.
fn solve_with(
    system: &System,
    purpose: &TestPurpose,
    options: &SolveOptions,
    algorithm: Algorithm,
) -> Result<GameSolution, SolverError> {
    let mode = match purpose.quantifier {
        PathQuantifier::Reachability => GameMode::Reachability,
        PathQuantifier::Safety => GameMode::Safety,
    };
    // The predicate whose states seed the attractor: the goal itself for
    // reachability, the *bad* states `¬φ` for safety.
    let target = match mode {
        GameMode::Reachability => purpose.predicate.clone(),
        GameMode::Safety => purpose.predicate.clone().negated(),
    };
    // Time-bounded purposes are lowered right here: the *unbounded* fixpoint
    // runs on the augmented system (fresh never-reset tick clock), with the
    // attractor seeds clipped to `#t <= T` — goal regions past the deadline
    // are not wins (reachability), violations past the deadline are not
    // losses (safety).  `#t` only grows and goal/bad nodes are absorbing in
    // the π update, so the clipped seeds stay exact; everything downstream
    // (strategy extraction, minimization, compiled controllers) works
    // unchanged on the transformed game.
    let bounded = purpose
        .bound
        .map(|t| bounded_parts(system, t))
        .transpose()?;
    let (system, clip) = match &bounded {
        Some((aug, clip)) => (aug, Some(clip)),
        None => (system, None),
    };
    check_constant_ceiling(system)?;
    let (graph, outcome, exploration_time, fixpoint_time) = match algorithm {
        Algorithm::Otfur => {
            // Exploration and propagation are interleaved: the search times
            // its expansion phases, and the rest of it is the fixpoint.
            let start = Instant::now();
            let (graph, outcome, exploration_time) =
                crate::otfur::run(system, &target, options, mode, clip)?;
            let total = start.elapsed();
            (
                graph,
                outcome,
                exploration_time,
                total.saturating_sub(exploration_time),
            )
        }
        Algorithm::Jacobi => {
            let explore_start = Instant::now();
            let (graph, mem) = GameGraph::explore_mem(system, &target, &options.explore)?;
            let exploration_time = explore_start.elapsed();
            let fixpoint_start = Instant::now();
            let outcome = Engine::new(system, &graph, mode, clip).run_jacobi(options, mem)?;
            (graph, outcome, exploration_time, fixpoint_start.elapsed())
        }
    };

    // For safety games the engines computed the losing attractor; the
    // winning (safe) federations are its complement — within the invariant
    // for the eager engines, within the explored reach for the on-the-fly
    // engine (which confines every federation to its reach, so the two
    // complements coincide on every reachable valuation).
    let (winning, losing) = match mode {
        GameMode::Reachability => (outcome.winning, None),
        GameMode::Safety => {
            let losing = outcome.winning;
            let winning: Vec<Federation> = graph
                .nodes()
                .iter()
                .enumerate()
                .map(|(id, node)| {
                    let mut safe = if algorithm == Algorithm::Otfur {
                        node.reach.clone()
                    } else {
                        Federation::from_zone(graph.invariants()[node.invariant].zone.clone())
                    };
                    safe.subtract(&losing[id]);
                    safe.reduce_exact();
                    safe
                })
                .collect();
            (winning, Some(losing))
        }
    };

    let winning_from_initial = initial_is_winning(system, &graph, &winning);
    let mut extraction_time = Duration::ZERO;
    let strategy = if !options.extract_strategy || !winning_from_initial {
        None
    } else {
        match &losing {
            // Reachability: the engines extracted the strategy in-search.
            None => outcome.strategy,
            // Safety: extract the safe controller from the converged sets.
            Some(losing) => {
                let start = Instant::now();
                let strategy = extract_safety_strategy(system, &graph, &winning, losing)?;
                extraction_time = start.elapsed();
                Some(strategy)
            }
        }
    };
    let stats = SolverStats {
        discrete_states: graph.len(),
        graph_edges: graph.edge_count(),
        iterations: outcome.iterations,
        winning_zones: winning.iter().map(Federation::len).sum(),
        peak_federation_size: winning.iter().map(Federation::len).max().unwrap_or(0),
        reach_zones: graph.reach_zone_count(),
        subsumed_zones: outcome.subsumed_zones,
        pruned_evaluations: outcome.pruned_evaluations,
        early_terminated: outcome.early_terminated,
        interned_zones: outcome.mem.interned_zones,
        intern_hits: outcome.mem.intern_hits,
        dbm_clones: outcome.mem.dbm_clones,
        peak_live_zones: outcome.mem.peak_live_zones,
    };
    Ok(GameSolution {
        winning_from_initial,
        graph,
        winning,
        strategy,
        bound: purpose.bound,
        timed: TimedStats {
            stats,
            exploration_time,
            fixpoint_time,
            extraction_time,
        },
    })
}

/// Extracts a safe (possibly non-terminating) controller from the converged
/// safe/losing federations of a safety game.
///
/// Per discrete state with a non-empty safe set `W`:
///
/// * valuations from which no delay can drift into `L` and no enabled plant
///   move leads into `L` are rank-0 *wait* regions — sitting is safe
///   forever;
/// * the remaining safe valuations (`W ∩ (L↓ ∪ uPred(L))`) are rank-1 wait
///   regions paired with rank-1 *take* regions `cPred(W) ∩ W`: the executor
///   waits until a take region is entered (its wake-up hint) and then plays
///   the escape.  Whenever an enabled plant move threatens `L` *now*
///   (`uPred(L)`), an escape is enabled at that very valuation — this is
///   exactly the `δ = 0` case of the dual `Pred_t`, which put the valuation
///   in `W` only because the escape exists.
///
/// Take rules are inserted in a canonical edge order (independent of the
/// discovery order of the producing engine), so OTFUR- and Jacobi-extracted
/// safety strategies prescribe the same moves.
fn extract_safety_strategy(
    system: &System,
    graph: &GameGraph,
    winning: &[Federation],
    losing: &[Federation],
) -> Result<Strategy, SolverError> {
    let mut strategy = Strategy::with_capacity(system.dim(), graph.len());
    // One state's rules, rebuilt in place per state; the strategy copies
    // them only when no earlier state has the same list.
    let mut rules: Vec<StrategyRule> = Vec::new();
    let mut discrete = DiscreteState::default();
    for (id, node) in graph.nodes().iter().enumerate() {
        if node.is_goal || winning[id].is_empty() {
            // `is_goal` marks *bad* states in safety mode; nothing is safe
            // there.
            continue;
        }
        graph.discrete(id, &mut discrete);
        // Valuations from which pure delay can reach the losing set.
        let mut drift = losing[id].clone();
        drift.down();
        // Valuations where an enabled plant move leads into the losing set.
        let mut threat = Federation::empty(system.dim());
        // Escape regions, in canonical edge order for engine independence.
        let mut escapes: Vec<(&JointEdge, Federation)> = Vec::new();
        for edge in &node.edges {
            if edge.controllable {
                let region = system
                    .joint_pred_federation(&discrete, &edge.joint, &winning[edge.target])?
                    .intersection(&winning[id]);
                if !region.is_empty() {
                    escapes.push((&edge.joint, region));
                }
            } else {
                let pred =
                    system.joint_pred_federation(&discrete, &edge.joint, &losing[edge.target])?;
                threat.absorb(pred);
            }
        }
        let mut danger = drift;
        danger.absorb(threat);
        let calm = winning[id].difference(&danger);
        let alert = winning[id].intersection(&danger);
        escapes.sort_by(|a, b| escape_order(a.0, b.0));
        rules.clear();
        let mut push = |rank: u32, decision: Decision, zones: Federation| {
            rules.extend(zones.into_iter().map(|zone| StrategyRule {
                rank,
                zone,
                decision: decision.clone(),
            }));
        };
        push(0, Decision::Wait, calm);
        push(1, Decision::Wait, alert);
        for (joint, region) in escapes {
            push(1, Decision::Take(joint.clone()), region);
        }
        strategy.add_rules_from(discrete.clone(), &rules);
    }
    Ok(strategy)
}

/// The canonical order of escape edges: the order of their `Debug` texts,
/// compared without rendering them.  The texts start with the variant name
/// (`Internal` before `Sync`) and then list the ids in field order, each
/// closed by `)`, so the first differing id decides, compared as a decimal
/// string: `EdgeId(10)` sorts before `EdgeId(9)`.  (Safety goldens pin this
/// order; a numeric order would move take rules.)  A controllable edge's
/// target follows from its joint edge, so ties never need the target.
fn escape_order(a: &JointEdge, b: &JointEdge) -> Ordering {
    let ids = |joint: &JointEdge| match *joint {
        JointEdge::Internal { automaton, edge } => (0, [automaton.index(), edge.index(), 0, 0, 0]),
        JointEdge::Sync {
            channel,
            output,
            input,
        } => (
            1,
            [
                channel.index(),
                output.0.index(),
                output.1.index(),
                input.0.index(),
                input.1.index(),
            ],
        ),
    };
    let (variant_a, ids_a) = ids(a);
    let (variant_b, ids_b) = ids(b);
    variant_a.cmp(&variant_b).then_with(|| {
        ids_a
            .iter()
            .zip(&ids_b)
            .map(|(&x, &y)| decimal_order(x, y))
            .find(|order| order.is_ne())
            .unwrap_or(Ordering::Equal)
    })
}

/// Compares the decimal renderings of two numbers as strings: the leading
/// digits they share in length decide, and otherwise the shorter rendering
/// (a prefix of the longer) comes first.
fn decimal_order(a: usize, b: usize) -> Ordering {
    let digits = |n: usize| n.checked_ilog10().unwrap_or(0) + 1;
    let (da, db) = (digits(a), digits(b));
    let shared = da.min(db);
    let lead = |n: usize, d: u32| n / 10usize.pow(d - shared);
    lead(a, da).cmp(&lead(b, db)).then(da.cmp(&db))
}

fn initial_is_winning(system: &System, graph: &GameGraph, winning: &[Federation]) -> bool {
    let origin = vec![0i64; system.dim()];
    winning[graph.initial()].contains_scaled(&origin)
}

/// The eager (Jacobi) fixpoint engine over an explored [`GameGraph`].
struct Engine<'a> {
    system: &'a System,
    graph: &'a GameGraph,
    /// Reachability (attractor = winning) or safety (attractor = losing,
    /// roles swapped in the `π` update).
    mode: GameMode,
    /// Bounded purposes: the `#t <= T` zone intersected into every attractor
    /// seed.  `None` for unbounded purposes.
    clip: Option<&'a Dbm>,
    /// Invariant-boundary federation (states where time cannot progress
    /// further) per invariant of the graph.
    boundary: Vec<Federation>,
}

impl<'a> Engine<'a> {
    fn new(
        system: &'a System,
        graph: &'a GameGraph,
        mode: GameMode,
        clip: Option<&'a Dbm>,
    ) -> Self {
        let boundary = graph
            .invariants()
            .iter()
            .map(|inv| invariant_boundary(&inv.zone, inv.urgent))
            .collect();
        Engine {
            system,
            graph,
            mode,
            clip,
            boundary,
        }
    }

    /// Jacobi iteration: every round recomputes all nodes from the previous
    /// round's winning sets, which yields well-founded ranks for strategy
    /// extraction.  `mem` carries the exploration's memory counters; the
    /// fixpoint raises their peak.
    fn run_jacobi(
        &self,
        options: &SolveOptions,
        mut mem: MemCounters,
    ) -> Result<EngineOutcome, SolverError> {
        let mut recorder = RuleRecorder::new(self.system.dim(), options, self.mode);
        // Goal invariants seed the attractor, and are rank-0 wait regions
        // (the executor detects the goal via the purpose; these rules make
        // `rank_of` total on winning states).  Bounded purposes: only the
        // pre-deadline part of a goal (or bad) region seeds it.
        let mut win: Vec<Federation> = self
            .graph
            .nodes()
            .iter()
            .enumerate()
            .map(|(id, node)| {
                if !node.is_goal {
                    return Federation::empty(self.system.dim());
                }
                let mut seed = self.graph.invariants()[node.invariant].zone.clone();
                if let Some(clip) = self.clip {
                    seed.intersect(clip);
                }
                recorder.goal_wait(id, &seed);
                Federation::from_zone(seed)
            })
            .collect();
        // Non-goal nodes, the updates of one Jacobi round.  Every round
        // recomputes each of them from the previous round's snapshot and
        // merges the results in canonical (node-id) order.
        let non_goal: Vec<NodeId> = (0..self.graph.len())
            .filter(|&id| !self.graph.node(id).is_goal)
            .collect();
        let reach_total = self.graph.reach_zone_count();
        let mut win_total: usize = win.iter().map(Federation::len).sum();
        mem.peak_live_zones = mem.peak_live_zones.max(reach_total + win_total);
        let mut round: u32 = 0;
        let mut discrete = DiscreteState::default();
        loop {
            round += 1;
            if round as usize > options.max_rounds {
                return Err(SolverError::RoundLimitExceeded {
                    limit: options.max_rounds,
                });
            }
            let mut changed = false;
            // Every update of the round reads `win` as the round snapshot
            // before the merge below writes any node, so no clone of the
            // snapshot is needed.
            let updates: Vec<_> = non_goal
                .iter()
                .map(|&node_id| {
                    let node = self.graph.node(node_id);
                    let invariant = &self.graph.invariants()[node.invariant];
                    self.graph.discrete(node_id, &mut discrete);
                    pi_update(
                        self.system,
                        node_id,
                        &discrete,
                        &invariant.zone,
                        node.is_goal,
                        invariant.urgent,
                        &node.edges,
                        &self.boundary[node.invariant],
                        &win,
                        self.mode.swap_roles(),
                        |id| &self.graph.invariant(id).zone,
                    )
                })
                .collect();
            for (&node_id, update) in non_goal.iter().zip(updates) {
                let node = self.graph.node(node_id);
                let Some((new_win, action_regions)) = update? else {
                    continue;
                };
                if !win[node_id].includes(&new_win) {
                    changed = true;
                    recorder.growth(
                        node_id,
                        round,
                        &win[node_id],
                        &new_win,
                        &node.edges,
                        action_regions,
                    );
                    win_total = win_total + new_win.len() - win[node_id].len();
                    win[node_id] = new_win;
                    mem.peak_live_zones = mem.peak_live_zones.max(reach_total + win_total);
                }
            }
            if !changed {
                break;
            }
        }
        Ok(EngineOutcome {
            winning: win,
            strategy: recorder.into_strategy(self.graph),
            iterations: round as usize,
            subsumed_zones: 0,
            pruned_evaluations: 0,
            early_terminated: false,
            mem,
        })
    }
}

/// The reachability strategy both engines record while their fixpoint runs.
///
/// Rules are written in this order: rank-0 waits on the goal zones as they
/// are seeded ([`RuleRecorder::goal_wait`]), then, per growth of a state's
/// winning federation ([`RuleRecorder::growth`]), the wait delta
/// `new \ old` at the growth's rank followed by each action region's takes
/// in edge order.  The rank is the Jacobi round or the on-the-fly revision:
/// every region recorded at rank `r` leads into regions recorded at ranks
/// `< r`, which is what the executor's progress argument needs.
///
/// Rules are collected per node id and each node's finished list is
/// interned once, in [`RuleRecorder::into_strategy`].  Only reachability
/// games with extraction requested record anything; safety strategies are
/// extracted from the converged sets by [`extract_safety_strategy`].
pub(crate) struct RuleRecorder {
    dim: usize,
    /// Rules per node id; `None` when nothing is recorded.
    rules: Option<Vec<Vec<StrategyRule>>>,
}

impl RuleRecorder {
    pub(crate) fn new(dim: usize, options: &SolveOptions, mode: GameMode) -> Self {
        RuleRecorder {
            dim,
            rules: (options.extract_strategy && mode == GameMode::Reachability).then(Vec::new),
        }
    }

    /// The rule list of `node`, if rules are recorded.
    fn list(&mut self, node: NodeId) -> Option<&mut Vec<StrategyRule>> {
        let lists = self.rules.as_mut()?;
        if lists.len() <= node {
            lists.resize_with(node + 1, Vec::new);
        }
        Some(&mut lists[node])
    }

    /// Records a seeded goal zone as a rank-0 wait region.
    pub(crate) fn goal_wait(&mut self, node: NodeId, zone: &Dbm) {
        if let Some(rules) = self.list(node) {
            rules.push(StrategyRule {
                rank: 0,
                zone: zone.clone(),
                decision: Decision::Wait,
            });
        }
    }

    /// Records the growth of a node's winning federation from `old` to
    /// `new` at `rank`: the new valuations as wait regions, then the action
    /// regions (keyed by index into `edges`) as takes, whose zones move into
    /// the strategy.
    pub(crate) fn growth(
        &mut self,
        node: NodeId,
        rank: u32,
        old: &Federation,
        new: &Federation,
        edges: &[GraphEdge],
        action_regions: Vec<(usize, Federation)>,
    ) {
        let Some(rules) = self.list(node) else {
            return;
        };
        rules.extend(new.difference(old).into_iter().map(|zone| StrategyRule {
            rank,
            zone,
            decision: Decision::Wait,
        }));
        for (edge_idx, region) in action_regions {
            let joint = &edges[edge_idx].joint;
            rules.extend(region.into_iter().map(|zone| StrategyRule {
                rank,
                zone,
                decision: Decision::Take(joint.clone()),
            }));
        }
    }

    /// The recorded strategy over `graph`'s discrete states: each node's
    /// non-empty list becomes its state's block.
    pub(crate) fn into_strategy(self, graph: &GameGraph) -> Option<Strategy> {
        let lists = self.rules?;
        let states = lists.iter().filter(|rules| !rules.is_empty()).count();
        let mut strategy = Strategy::with_capacity(self.dim, states);
        let mut discrete = DiscreteState::default();
        for (node, rules) in lists.into_iter().enumerate() {
            if !rules.is_empty() {
                graph.discrete(node, &mut discrete);
                strategy.add_rules(discrete.clone(), rules);
            }
        }
        Some(strategy)
    }
}

/// One step of the controllable-predecessor fixpoint, shared verbatim by the
/// Jacobi and on-the-fly engines: computes `Goal(q) ∪ π(W)(q)` for
/// a single discrete state from the winning sets in `win`, together with the
/// controllable action regions used for strategy extraction.
///
/// Returns `None` when the update is provably the identity — goal states
/// (their winning set is seeded once and never grows) and states where every
/// predecessor term came up empty.  In both cases the action regions are
/// necessarily empty too, so callers can treat `None` as "no change, no
/// rules" without cloning the current winning set.
///
/// `win` is indexed by [`NodeId`]; `inv_of` supplies the invariant of a
/// target node (the on-the-fly engine resolves it against its partial
/// passed list, the eager engines against the explored graph).  Targets that
/// have not been evaluated yet simply contribute their current — possibly
/// empty — winning set, which is sound because the fixpoint is monotone and
/// every growth re-triggers dependent updates.
///
/// `urgent` states admit no delay, so the safe time-predecessor degenerates
/// to its `δ = 0` case `targets \ bad` (found by `tiga fuzz`: applying the
/// full `Pred_t` past-closure in an urgent state claimed valuations winning
/// that can only reach the win-enabling guard by letting time pass — which
/// urgency forbids; such states are timelocks, not wins).
///
/// `swap_roles` flips the two players: with it set, *uncontrollable* edges
/// drive the attractor and *controllable* edges supply the avoid-set — this
/// turns the update into the environment's controllable predecessor, which
/// is how safety games are solved (the attractor is then the tester's
/// *losing* set).  The urgent `δ = 0` case and the invariant-boundary
/// `Forced` term apply to the swapped roles unchanged.
#[allow(clippy::too_many_arguments)]
#[allow(clippy::type_complexity)]
pub(crate) fn pi_update<'i, F>(
    system: &System,
    node_id: NodeId,
    discrete: &DiscreteState,
    invariant: &Dbm,
    is_goal: bool,
    urgent: bool,
    edges: &[GraphEdge],
    boundary: &Federation,
    win: &[Federation],
    swap_roles: bool,
    inv_of: F,
) -> Result<Option<(Federation, Vec<(usize, Federation)>)>, SolverError>
where
    F: Fn(NodeId) -> &'i Dbm,
{
    let dim = system.dim();
    if is_goal {
        return Ok(None);
    }
    let mut cpred = Federation::empty(dim);
    let mut action_regions: Vec<(usize, Federation)> = Vec::new();
    let mut bad = Federation::empty(dim);
    // (pred of winning target, guard zone) for each uncontrollable edge,
    // used by the Forced term.
    let mut unc: Vec<(Federation, Dbm)> = Vec::new();
    for (edge_idx, edge) in edges.iter().enumerate() {
        let target_win = &win[edge.target];
        let pred_win = system.joint_pred_federation(discrete, &edge.joint, target_win)?;
        if edge.controllable ^ swap_roles {
            if !pred_win.is_empty() {
                cpred.union_with(&pred_win);
                action_regions.push((edge_idx, pred_win));
            }
        } else {
            // Complement of the target winning set within its invariant.
            let target_inv = Federation::from_zone(inv_of(edge.target).clone());
            let escape = target_inv.difference(target_win);
            if !escape.is_empty() {
                bad.union_with(&system.joint_pred_federation(discrete, &edge.joint, &escape)?);
            }
            let mut guard = system.joint_guard_zone(discrete, &edge.joint)?;
            guard.intersect(invariant);
            unc.push((pred_win, guard));
        }
    }
    // Forced moves at the invariant boundary.
    let mut forced = Federation::empty(dim);
    if !boundary.is_empty() && !unc.is_empty() {
        let mut some_enabled_good = Federation::empty(dim);
        let mut all_good = Federation::from_zone(invariant.clone());
        for (pred_win, guard) in &unc {
            some_enabled_good.union_with(pred_win);
            let mut not_guard = Federation::from_zone(invariant.clone());
            not_guard.subtract_zone(guard);
            all_good = all_good.intersection(&pred_win.union(&not_guard));
        }
        forced = boundary
            .intersection(&some_enabled_good)
            .intersection(&all_good);
    }
    let mut targets = win[node_id].clone();
    targets.absorb(cpred);
    targets.absorb(forced);
    if targets.is_empty() {
        // All predecessor terms were empty, so no action regions were
        // recorded either: the update is the identity.
        return Ok(None);
    }
    let mut new_win = if urgent {
        // No delay is possible: the tester wins exactly where it already
        // wins at δ = 0 and the plant cannot preempt into ¬W.
        let mut now = targets;
        now.subtract(&bad);
        now
    } else {
        targets.pred_t(&bad)
    };
    new_win.intersect_zone(invariant);
    new_win.union_with(&win[node_id]);
    new_win.reduce_exact();
    Ok(Some((new_win, action_regions)))
}

/// The upper boundary of an invariant zone: the valuations from which no
/// positive delay keeps the invariant satisfied.
///
/// For urgent states the whole invariant is a boundary.
pub(crate) fn invariant_boundary(invariant: &Dbm, urgent: bool) -> Federation {
    if urgent {
        return Federation::from_zone(invariant.clone());
    }
    if invariant.is_empty() {
        return Federation::empty(invariant.dim());
    }
    // States that *can* delay: every finite upper bound made strict.
    let mut can_delay = invariant.clone();
    let mut has_upper = false;
    for i in 1..invariant.dim() {
        let b = invariant.at(i, 0);
        if let Some(m) = b.constant() {
            has_upper = true;
            can_delay.constrain(i, 0, Bound::lt(m));
        }
    }
    if !has_upper {
        return Federation::empty(invariant.dim());
    }
    let mut boundary = Federation::from_zone(invariant.clone());
    boundary.subtract_zone(&can_delay);
    boundary
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiga_model::{AutomatonBuilder, EdgeBuilder, Expr, SystemBuilder};
    use tiga_tctl::TestPurpose;

    /// A plant that, once kicked, must reply within [1, 3] (invariant x <= 3).
    /// The tester wins `A<> Plant.Done` by kicking and waiting: the output is
    /// forced by the invariant.
    fn forced_output_system() -> System {
        let mut b = SystemBuilder::new("forced");
        let x = b.clock("x").unwrap();
        let kick = b.input_channel("kick").unwrap();
        let reply = b.output_channel("reply").unwrap();
        let mut plant = AutomatonBuilder::new("Plant");
        let idle = plant.location("Idle").unwrap();
        let busy = plant.location("Busy").unwrap();
        let done = plant.location("Done").unwrap();
        plant.set_invariant(busy, vec![ClockConstraint::new(x, CmpOp::Le, 3)]);
        plant.add_edge(EdgeBuilder::new(idle, busy).input(kick).reset(x));
        plant.add_edge(
            EdgeBuilder::new(busy, done)
                .output(reply)
                .guard_clock(ClockConstraint::new(x, CmpOp::Ge, 1)),
        );
        b.add_automaton(plant.build().unwrap()).unwrap();
        let mut user = AutomatonBuilder::new("User");
        let u = user.location("U").unwrap();
        user.add_edge(EdgeBuilder::new(u, u).output(kick));
        user.add_edge(EdgeBuilder::new(u, u).input(reply));
        b.add_automaton(user.build().unwrap()).unwrap();
        b.build().unwrap()
    }

    /// Like [`forced_output_system`] but the Busy location has no invariant:
    /// the plant may stay silent forever, so the purpose is not enforceable.
    fn silent_plant_system() -> System {
        let mut b = SystemBuilder::new("silent");
        let x = b.clock("x").unwrap();
        let kick = b.input_channel("kick").unwrap();
        let reply = b.output_channel("reply").unwrap();
        let mut plant = AutomatonBuilder::new("Plant");
        let idle = plant.location("Idle").unwrap();
        let busy = plant.location("Busy").unwrap();
        let done = plant.location("Done").unwrap();
        plant.add_edge(EdgeBuilder::new(idle, busy).input(kick).reset(x));
        plant.add_edge(
            EdgeBuilder::new(busy, done)
                .output(reply)
                .guard_clock(ClockConstraint::new(x, CmpOp::Ge, 1)),
        );
        b.add_automaton(plant.build().unwrap()).unwrap();
        let mut user = AutomatonBuilder::new("User");
        let u = user.location("U").unwrap();
        user.add_edge(EdgeBuilder::new(u, u).output(kick));
        user.add_edge(EdgeBuilder::new(u, u).input(reply));
        b.add_automaton(user.build().unwrap()).unwrap();
        b.build().unwrap()
    }

    /// A plant whose uncontrollable choice can dodge the goal forever: from
    /// Busy the plant may answer `good!` (to Done) or `bad!` (back to Idle).
    fn dodging_plant_system() -> System {
        let mut b = SystemBuilder::new("dodge");
        let x = b.clock("x").unwrap();
        let kick = b.input_channel("kick").unwrap();
        let good = b.output_channel("good").unwrap();
        let bad = b.output_channel("bad").unwrap();
        let mut plant = AutomatonBuilder::new("Plant");
        let idle = plant.location("Idle").unwrap();
        let busy = plant.location("Busy").unwrap();
        let done = plant.location("Done").unwrap();
        plant.set_invariant(busy, vec![ClockConstraint::new(x, CmpOp::Le, 3)]);
        plant.add_edge(EdgeBuilder::new(idle, busy).input(kick).reset(x));
        plant.add_edge(EdgeBuilder::new(busy, done).output(good));
        plant.add_edge(EdgeBuilder::new(busy, idle).output(bad).reset(x));
        b.add_automaton(plant.build().unwrap()).unwrap();
        let mut user = AutomatonBuilder::new("User");
        let u = user.location("U").unwrap();
        user.add_edge(EdgeBuilder::new(u, u).output(kick));
        user.add_edge(EdgeBuilder::new(u, u).input(good));
        user.add_edge(EdgeBuilder::new(u, u).input(bad));
        b.add_automaton(user.build().unwrap()).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn forced_output_is_winnable_and_strategy_extracted() {
        let sys = forced_output_system();
        let tp = TestPurpose::parse("control: A<> Plant.Done", &sys).unwrap();
        let solution = solve_jacobi(&sys, &tp, &SolveOptions::default()).unwrap();
        assert!(solution.winning_from_initial);
        let strategy = solution.strategy.as_ref().expect("strategy");
        assert!(strategy.state_count() >= 2);
        // Initial state: the strategy should say "take kick" (immediately or
        // after some delay) — in the initial state kick is enabled everywhere.
        let d0 = sys.initial_discrete();
        let decision = strategy.decide(&d0, &[0], 4).expect("covered");
        assert!(matches!(
            decision,
            crate::strategy::StrategyDecision::Take(_)
        ));
        // The Busy state is winning for every clock value admitted by the
        // invariant: the reply is forced.
        let busy = {
            let mut d = d0.clone();
            let (aut, loc) = sys.location_by_qualified_name("Plant.Busy").unwrap();
            d.locations[aut.index()] = loc;
            d
        };
        assert!(solution.is_winning_state(&busy, &[0], 4));
        assert!(solution.is_winning_state(&busy, &[12], 4)); // x = 3 boundary
                                                             // Waiting is the prescribed move in Busy.
        let decision = strategy.decide(&busy, &[4], 4).expect("covered");
        assert!(matches!(
            decision,
            crate::strategy::StrategyDecision::Wait { .. }
        ));
    }

    #[test]
    fn silent_plant_is_not_winnable() {
        let sys = silent_plant_system();
        let tp = TestPurpose::parse("control: A<> Plant.Done", &sys).unwrap();
        let solution = solve_jacobi(&sys, &tp, &SolveOptions::default()).unwrap();
        assert!(!solution.winning_from_initial);
        assert!(solution.strategy.is_none());
    }

    #[test]
    fn dodging_plant_is_not_winnable_for_reaching_done() {
        let sys = dodging_plant_system();
        let tp = TestPurpose::parse("control: A<> Plant.Done", &sys).unwrap();
        let solution = solve_jacobi(&sys, &tp, &SolveOptions::default()).unwrap();
        assert!(!solution.winning_from_initial);
        // ... but reaching Busy is trivially winnable (one controllable step).
        let tp2 = TestPurpose::parse("control: A<> Plant.Busy", &sys).unwrap();
        let solution2 = solve_jacobi(&sys, &tp2, &SolveOptions::default()).unwrap();
        assert!(solution2.winning_from_initial);
    }

    /// Like [`forced_output_system`] plus a controllable decoy chain
    /// `Idle -> C1 -> ... -> C5` that never reaches the goal.  The eager
    /// engines explore the whole chain; the on-the-fly engine decides the
    /// initial state before the chain's tail is ever reached.
    fn forced_output_with_decoy_chain() -> System {
        let mut b = SystemBuilder::new("forced-decoy");
        let x = b.clock("x").unwrap();
        let kick = b.input_channel("kick").unwrap();
        let reply = b.output_channel("reply").unwrap();
        let step = b.input_channel("step").unwrap();
        let mut plant = AutomatonBuilder::new("Plant");
        let idle = plant.location("Idle").unwrap();
        let busy = plant.location("Busy").unwrap();
        let done = plant.location("Done").unwrap();
        plant.set_invariant(busy, vec![ClockConstraint::new(x, CmpOp::Le, 3)]);
        plant.add_edge(EdgeBuilder::new(idle, busy).input(kick).reset(x));
        plant.add_edge(
            EdgeBuilder::new(busy, done)
                .output(reply)
                .guard_clock(ClockConstraint::new(x, CmpOp::Ge, 1)),
        );
        let mut prev = idle;
        for i in 1..=5 {
            let c = plant.location(&format!("C{i}")).unwrap();
            plant.add_edge(EdgeBuilder::new(prev, c).input(step).reset(x));
            prev = c;
        }
        b.add_automaton(plant.build().unwrap()).unwrap();
        let mut user = AutomatonBuilder::new("User");
        let u = user.location("U").unwrap();
        user.add_edge(EdgeBuilder::new(u, u).output(kick));
        user.add_edge(EdgeBuilder::new(u, u).output(step));
        user.add_edge(EdgeBuilder::new(u, u).input(reply));
        b.add_automaton(user.build().unwrap()).unwrap();
        b.build().unwrap()
    }

    /// Regression model for the reach-confinement soundness bug: `Q` is
    /// first reached uncontrollably at `x >= 5`, where the escape edge
    /// (guard `x <= 2`) is invisible to zone-driven edge discovery.  `Q` is
    /// later re-entered with `x = 0`, where the plant can escape to a losing
    /// sink.  An engine that evaluates `Q` over its whole invariant before
    /// the second zone arrives claims `x = 0` is winning and never retracts
    /// it, deciding the game winning; the game is actually losing.
    fn late_escape_system() -> System {
        let mut b = SystemBuilder::new("late-escape");
        let x = b.clock("x").unwrap();
        let i1 = b.input_channel("i1").unwrap();
        let i2 = b.input_channel("i2").unwrap();
        let i3 = b.input_channel("i3").unwrap();
        let u1 = b.output_channel("u1").unwrap();
        let esc = b.output_channel("esc").unwrap();
        let mut plant = AutomatonBuilder::new("Plant");
        let p0 = plant.location("P0").unwrap();
        let p1 = plant.location("P1").unwrap();
        let q = plant.location("Q").unwrap();
        let goal = plant.location("GoalLoc").unwrap();
        let sink = plant.location("Sink").unwrap();
        plant.add_edge(
            EdgeBuilder::new(p0, q)
                .output(u1)
                .guard_clock(ClockConstraint::new(x, CmpOp::Ge, 5)),
        );
        plant.add_edge(EdgeBuilder::new(p0, p1).input(i1));
        plant.add_edge(EdgeBuilder::new(p1, q).input(i2).reset(x));
        plant.add_edge(
            EdgeBuilder::new(q, goal)
                .input(i3)
                .guard_clock(ClockConstraint::new(x, CmpOp::Ge, 6)),
        );
        plant.add_edge(
            EdgeBuilder::new(q, sink)
                .output(esc)
                .guard_clock(ClockConstraint::new(x, CmpOp::Le, 2)),
        );
        b.add_automaton(plant.build().unwrap()).unwrap();
        let mut user = AutomatonBuilder::new("User");
        let u = user.location("U").unwrap();
        user.add_edge(EdgeBuilder::new(u, u).input(u1));
        user.add_edge(EdgeBuilder::new(u, u).input(esc));
        user.add_edge(EdgeBuilder::new(u, u).output(i1));
        user.add_edge(EdgeBuilder::new(u, u).output(i2));
        user.add_edge(EdgeBuilder::new(u, u).output(i3));
        b.add_automaton(user.build().unwrap()).unwrap();
        b.build().unwrap()
    }

    /// Regression model for the self-loop frontier bug (found by `tiga
    /// fuzz`, seed 0xf905de9d34fbd072): a controllable sync self-loop resets
    /// `y` only, so each round pumps the `x - y` difference until
    /// extrapolation unbounds `x` — at which point an uncontrollable tau
    /// escape (guard `x > 5`) becomes enabled.  The successor zone of the
    /// self-loop lands in the *same* state's frontier mid-expansion; an
    /// engine that evaluates the state against a reach federation containing
    /// that not-yet-expanded zone claims `x > 5` valuations winning before
    /// the escape edge is discovered, and monotone growth never retracts
    /// them.  Jacobi correctly confines the winning set to `x <= 5`.
    fn self_loop_pumping_system() -> System {
        let mut b = SystemBuilder::new("self-loop-pump");
        let x = b.clock("x").unwrap();
        let y = b.clock("y").unwrap();
        let go = b.input_channel("go").unwrap();
        let mut a0 = AutomatonBuilder::new("A0");
        let a0l0 = a0.location("L0").unwrap();
        let a0l1 = a0.location("L1").unwrap();
        a0.add_edge(EdgeBuilder::new(a0l0, a0l1).output(go));
        b.add_automaton(a0.build().unwrap()).unwrap();
        let mut a1 = AutomatonBuilder::new("A1");
        let a1l0 = a1.location("L0").unwrap();
        a1.add_edge(EdgeBuilder::new(a1l0, a1l0).output(go));
        a1.add_edge(EdgeBuilder::new(a1l0, a1l0).output(go).reset(x));
        b.add_automaton(a1.build().unwrap()).unwrap();
        let mut a2 = AutomatonBuilder::new("A2");
        let a2l0 = a2.location("L0").unwrap();
        a2.add_invariant(a2l0, ClockConstraint::new(y, CmpOp::Le, 2));
        a2.add_edge(
            EdgeBuilder::new(a2l0, a2l0).guard_clock(ClockConstraint::new(x, CmpOp::Gt, 5)),
        );
        a2.add_edge(EdgeBuilder::new(a2l0, a2l0).input(go).reset(y));
        b.add_automaton(a2.build().unwrap()).unwrap();
        b.build().unwrap()
    }

    /// Regression model for the urgent-state delay bug (found by `tiga
    /// fuzz`, seed 0xa75b7d0d09348573): `Wait` is urgent and its only exit
    /// is an uncontrollable tau guarded `x == 2` into the goal.  With time
    /// frozen, `Wait` at `x < 2` is a timelock (the guard can never become
    /// enabled), so only `x == 2` is winning there — an engine that applies
    /// the full `Pred_t` past-closure in urgent states wrongly claims all of
    /// `x <= 2`.
    fn urgent_guarded_exit_system() -> System {
        let mut b = SystemBuilder::new("urgent-exit");
        let x = b.clock("x").unwrap();
        let mut a = AutomatonBuilder::new("A");
        let l0 = a.location("L0").unwrap();
        let wait = a.location("Wait").unwrap();
        let goal = a.location("GoalLoc").unwrap();
        a.set_urgent(wait);
        a.add_edge(EdgeBuilder::new(l0, wait).controllable(true));
        a.add_edge(EdgeBuilder::new(wait, goal).guard_clock(ClockConstraint::new(x, CmpOp::Eq, 2)));
        b.add_automaton(a.build().unwrap()).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn urgent_states_admit_no_delay_in_the_fixpoint() {
        let sys = urgent_guarded_exit_system();
        let tp = TestPurpose::parse("control: A<> A.GoalLoc", &sys).unwrap();
        let wait = {
            let mut d = sys.initial_discrete();
            let (aut, loc) = sys.location_by_qualified_name("A.Wait").unwrap();
            d.locations[aut.index()] = loc;
            d
        };
        for (name, solution) in [
            (
                "jacobi",
                solve_jacobi(&sys, &tp, &SolveOptions::default()).unwrap(),
            ),
            ("otfur", solve(&sys, &tp, &otfur_options(false)).unwrap()),
        ] {
            // The game itself is winning: wait in L0 until x == 2, then step
            // into Wait, where the plant is forced into the goal.
            assert!(solution.winning_from_initial, "{name}");
            // x == 2 wins in Wait (forced move), x == 1 is a timelock.
            assert!(solution.is_winning_state(&wait, &[4], 2), "{name}");
            assert!(
                !solution.is_winning_state(&wait, &[2], 2),
                "{name}: urgent state must not delay toward the guard"
            );
        }
    }

    #[test]
    fn self_loop_frontier_zones_are_expanded_before_evaluation() {
        let sys = self_loop_pumping_system();
        let tp = TestPurpose::parse("control: A<> A0.L1", &sys).unwrap();
        let jacobi = solve_jacobi(&sys, &tp, &SolveOptions::default()).unwrap();
        let otfur = solve(&sys, &tp, &otfur_options(false)).unwrap();
        assert_eq!(jacobi.winning_from_initial, otfur.winning_from_initial);
        // x = 6, y = 2: the tau escape is enabled and the plant can dodge
        // forever, so the valuation is losing — for every engine.
        let d0 = sys.initial_discrete();
        assert!(!jacobi.is_winning_state(&d0, &[12, 4], 2));
        assert!(!otfur.is_winning_state(&d0, &[12, 4], 2));
        // Full confinement agreement: exhaustive on-the-fly == jacobi ∩ reach.
        let mut discrete = DiscreteState::default();
        for (id, node) in jacobi.graph.nodes().iter().enumerate() {
            jacobi.graph.discrete(id, &mut discrete);
            let other = otfur.graph.node_of(&discrete).unwrap();
            let expected = jacobi.winning[id].intersection(&node.reach);
            assert!(
                expected.set_equals(&otfur.winning[other]),
                "winning sets differ for {}",
                discrete.display(&sys)
            );
        }
    }

    #[test]
    fn late_discovered_escape_edges_do_not_fool_otfur() {
        let sys = late_escape_system();
        let tp = TestPurpose::parse("control: A<> Plant.GoalLoc", &sys).unwrap();
        let jacobi = solve_jacobi(&sys, &tp, &SolveOptions::default()).unwrap();
        assert!(!jacobi.winning_from_initial, "the game is losing");
        for early in [true, false] {
            let otfur = solve(&sys, &tp, &otfur_options(early)).unwrap();
            assert!(
                !otfur.winning_from_initial,
                "on-the-fly (early_termination={early}) must agree with the oracle"
            );
        }
    }

    fn otfur_options(early_termination: bool) -> SolveOptions {
        SolveOptions {
            early_termination,
            ..SolveOptions::default()
        }
    }

    #[test]
    fn otfur_agrees_with_jacobi_on_decisions() {
        for sys in [
            forced_output_system(),
            silent_plant_system(),
            dodging_plant_system(),
            forced_output_with_decoy_chain(),
        ] {
            for goal in ["Plant.Done", "Plant.Busy"] {
                let tp = TestPurpose::parse(&format!("control: A<> {goal}"), &sys).unwrap();
                let jacobi = solve_jacobi(&sys, &tp, &SolveOptions::default()).unwrap();
                let otfur = solve(&sys, &tp, &otfur_options(true)).unwrap();
                assert_eq!(
                    jacobi.winning_from_initial,
                    otfur.winning_from_initial,
                    "system {} goal {goal}",
                    sys.name()
                );
            }
        }
    }

    #[test]
    fn exhaustive_otfur_matches_jacobi_federations_within_reach() {
        // The on-the-fly engine confines winning sets to the explored reach
        // zones (see the otfur module docs); the eager fixpoint computes them
        // over whole invariants.  On every reachable valuation — the
        // semantically meaningful ones — they must coincide: the exhaustive
        // on-the-fly result is exactly `jacobi ∩ reach` per state.
        for sys in [
            forced_output_system(),
            silent_plant_system(),
            dodging_plant_system(),
        ] {
            for goal in ["Plant.Done", "Plant.Busy"] {
                let tp = TestPurpose::parse(&format!("control: A<> {goal}"), &sys).unwrap();
                let jacobi = solve_jacobi(&sys, &tp, &SolveOptions::default()).unwrap();
                let otfur = solve(&sys, &tp, &otfur_options(false)).unwrap();
                assert!(!otfur.stats().early_terminated);
                assert_eq!(jacobi.graph.len(), otfur.graph.len());
                let mut discrete = DiscreteState::default();
                for (id, node) in jacobi.graph.nodes().iter().enumerate() {
                    jacobi.graph.discrete(id, &mut discrete);
                    let other = otfur.graph.node_of(&discrete).unwrap();
                    let expected = jacobi.winning[id].intersection(&node.reach);
                    assert!(
                        expected.set_equals(&otfur.winning[other]),
                        "winning sets differ in {} for {}",
                        sys.name(),
                        discrete.display(&sys)
                    );
                }
            }
        }
    }

    #[test]
    fn otfur_terminates_early_and_explores_fewer_states() {
        let sys = forced_output_with_decoy_chain();
        let tp = TestPurpose::parse("control: A<> Plant.Done", &sys).unwrap();
        let jacobi = solve_jacobi(&sys, &tp, &SolveOptions::default()).unwrap();
        let otfur = solve(&sys, &tp, &otfur_options(true)).unwrap();
        assert!(otfur.winning_from_initial);
        assert!(otfur.stats().early_terminated, "initial decided early");
        assert!(
            otfur.stats().discrete_states < jacobi.stats().discrete_states,
            "on-the-fly explored {} states, eager {}",
            otfur.stats().discrete_states,
            jacobi.stats().discrete_states
        );
    }

    #[test]
    fn otfur_extracts_a_usable_strategy() {
        let sys = forced_output_system();
        let tp = TestPurpose::parse("control: A<> Plant.Done", &sys).unwrap();
        let solution = solve(&sys, &tp, &otfur_options(true)).unwrap();
        assert!(solution.winning_from_initial);
        let strategy = solution.strategy.as_ref().expect("strategy");
        assert!(strategy.state_count() >= 2);
        let d0 = sys.initial_discrete();
        let decision = strategy.decide(&d0, &[0], 4).expect("covered");
        assert!(matches!(
            decision,
            crate::strategy::StrategyDecision::Take(_)
        ));
        let busy = {
            let mut d = d0.clone();
            let (aut, loc) = sys.location_by_qualified_name("Plant.Busy").unwrap();
            d.locations[aut.index()] = loc;
            d
        };
        assert!(solution.is_winning_state(&busy, &[0], 4));
        let decision = strategy.decide(&busy, &[4], 4).expect("covered");
        assert!(matches!(
            decision,
            crate::strategy::StrategyDecision::Wait { .. }
        ));
    }

    #[test]
    fn otfur_prunes_losing_subtrees() {
        // The dodging plant never wins: everything is explored, nothing is
        // winning, and the non-goal states are recognized as losing.
        let sys = dodging_plant_system();
        let tp = TestPurpose::parse("control: A<> Plant.Done", &sys).unwrap();
        let solution = solve(&sys, &tp, &otfur_options(true)).unwrap();
        assert!(!solution.winning_from_initial);
        assert!(solution.stats().pruned_evaluations > 0);
    }

    #[test]
    fn default_options_select_otfur() {
        // `solve` is the OTFUR row of the benchmark baseline, counter for
        // counter; the Jacobi row of the same game differs.
        let sys = tiga_models::coffee_machine::product().unwrap();
        let tp = TestPurpose::parse(tiga_models::coffee_machine::PURPOSE_COFFEE, &sys).unwrap();
        let baseline =
            crate::json::parse(include_str!("../../../BENCH_solver.baseline.json")).unwrap();
        let crate::json::Json::Arr(rows) = &baseline else {
            panic!("the baseline is an array of rows");
        };
        let row = |engine: &str| {
            let row = rows
                .iter()
                .find(|row| {
                    [
                        ("model", "coffee_machine"),
                        ("purpose", "coffee"),
                        ("engine", engine),
                    ]
                    .iter()
                    .all(|(key, value)| row.field(key).and_then(|v| v.str_field(key)) == Ok(value))
                })
                .expect("the baseline has the row");
            SolverStats::from_json(row).unwrap()
        };
        let solution = solve(&sys, &tp, &SolveOptions::default()).unwrap();
        assert!(solution.winning_from_initial);
        assert!(solution.strategy.is_some());
        assert_eq!(solution.stats(), &row("otfur"));
        assert_ne!(solution.stats(), &row("jacobi"));
    }

    #[test]
    fn guard_lower_bound_limits_winning_region() {
        // The reply is only possible when x >= 1, and the invariant is x <= 3;
        // in Busy every x in [0, 3] is winning (wait until the window), but
        // a state with x > 3 violates the invariant and is not a state at all.
        let sys = forced_output_system();
        let tp = TestPurpose::parse("control: A<> Plant.Done", &sys).unwrap();
        let solution = solve_jacobi(&sys, &tp, &SolveOptions::default()).unwrap();
        let mut busy = sys.initial_discrete();
        let (aut, loc) = sys.location_by_qualified_name("Plant.Busy").unwrap();
        busy.locations[aut.index()] = loc;
        assert!(solution.is_winning_state(&busy, &[2], 4)); // x = 0.5
        assert!(!solution.is_winning_state(&busy, &[16], 4)); // x = 4: outside invariant
    }

    /// A plant whose invariant forces an uncontrollable step into a bad
    /// location: Idle (inv x <= 3) --boom!{x >= 1}--> BadLoc.  The tester
    /// has no move at all, so `A[] not Plant.BadLoc` is losing.
    fn forced_violation_system() -> System {
        let mut b = SystemBuilder::new("forced-violation");
        let x = b.clock("x").unwrap();
        let boom = b.output_channel("boom").unwrap();
        let mut plant = AutomatonBuilder::new("Plant");
        let idle = plant.location("Idle").unwrap();
        let bad = plant.location("BadLoc").unwrap();
        plant.set_invariant(idle, vec![ClockConstraint::new(x, CmpOp::Le, 3)]);
        plant.add_edge(
            EdgeBuilder::new(idle, bad)
                .output(boom)
                .guard_clock(ClockConstraint::new(x, CmpOp::Ge, 1)),
        );
        b.add_automaton(plant.build().unwrap()).unwrap();
        let mut user = AutomatonBuilder::new("User");
        let u = user.location("U").unwrap();
        user.add_edge(EdgeBuilder::new(u, u).input(boom));
        b.add_automaton(user.build().unwrap()).unwrap();
        b.build().unwrap()
    }

    /// Like [`forced_violation_system`] but with a controllable escape
    /// `save?` guarded `x <= 2` into a safe sink, while `boom!` needs
    /// `x >= 2`: the tester wins `A[] not Plant.BadLoc` exactly from
    /// `x <= 2` in Idle by playing `save?` before the plant's window opens.
    fn escapable_violation_system() -> System {
        let mut b = SystemBuilder::new("escapable-violation");
        let x = b.clock("x").unwrap();
        let boom = b.output_channel("boom").unwrap();
        let save = b.input_channel("save").unwrap();
        let mut plant = AutomatonBuilder::new("Plant");
        let idle = plant.location("Idle").unwrap();
        let bad = plant.location("BadLoc").unwrap();
        let safe = plant.location("SafeLoc").unwrap();
        plant.set_invariant(idle, vec![ClockConstraint::new(x, CmpOp::Le, 3)]);
        plant.add_edge(
            EdgeBuilder::new(idle, bad)
                .output(boom)
                .guard_clock(ClockConstraint::new(x, CmpOp::Ge, 2)),
        );
        plant.add_edge(
            EdgeBuilder::new(idle, safe)
                .input(save)
                .guard_clock(ClockConstraint::new(x, CmpOp::Le, 2)),
        );
        b.add_automaton(plant.build().unwrap()).unwrap();
        let mut user = AutomatonBuilder::new("User");
        let u = user.location("U").unwrap();
        user.add_edge(EdgeBuilder::new(u, u).input(boom));
        user.add_edge(EdgeBuilder::new(u, u).output(save));
        b.add_automaton(user.build().unwrap()).unwrap();
        b.build().unwrap()
    }

    fn solutions_by_engine(sys: &System, tp: &TestPurpose) -> Vec<(&'static str, GameSolution)> {
        vec![
            (
                "jacobi",
                solve_jacobi(sys, tp, &SolveOptions::default()).unwrap(),
            ),
            ("otfur", solve(sys, tp, &otfur_options(false)).unwrap()),
            ("otfur-early", solve(sys, tp, &otfur_options(true)).unwrap()),
        ]
    }

    #[test]
    fn forced_safety_violation_is_losing_in_all_engines() {
        let sys = forced_violation_system();
        let tp = TestPurpose::parse("control: A[] not Plant.BadLoc", &sys).unwrap();
        for (name, solution) in solutions_by_engine(&sys, &tp) {
            assert!(!solution.winning_from_initial, "{name}");
            assert!(solution.strategy.is_none(), "{name}");
        }
    }

    #[test]
    fn otfur_early_terminates_on_a_losing_safety_game() {
        let sys = forced_violation_system();
        let tp = TestPurpose::parse("control: A[] not Plant.BadLoc", &sys).unwrap();
        let solution = solve(&sys, &tp, &otfur_options(true)).unwrap();
        assert!(!solution.winning_from_initial);
        assert!(
            solution.stats().early_terminated,
            "initial state should be decided losing before the waiting list drains"
        );
    }

    #[test]
    fn escapable_safety_game_is_winning_with_a_safe_strategy() {
        let sys = escapable_violation_system();
        let tp = TestPurpose::parse("control: A[] not Plant.BadLoc", &sys).unwrap();
        let idle = sys.initial_discrete();
        for (name, solution) in solutions_by_engine(&sys, &tp) {
            assert!(solution.winning_from_initial, "{name}");
            // Safe exactly on x <= 2 (x = 2.5 is losing: save? is disabled
            // and the plant may fire boom! at any moment).
            assert!(solution.is_winning_state(&idle, &[4], 2), "{name}: x = 2");
            assert!(
                !solution.is_winning_state(&idle, &[5], 2),
                "{name}: x = 2.5 must be losing"
            );
            let strategy = solution.strategy.as_ref().expect("safety strategy");
            // The whole safe region can drift into the losing set, so the
            // controller plays the escape.
            let decision = strategy.decide(&idle, &[0], 2).expect("covered");
            assert!(
                matches!(decision, crate::strategy::StrategyDecision::Take(_)),
                "{name}: expected the save? escape, got {decision:?}"
            );
        }
    }

    #[test]
    fn safety_winning_sets_agree_semantically_across_engines() {
        // Exhaustive otfur ≡ jacobi ∩ reach — the same confinement contract
        // as for reachability.
        for sys in [
            forced_output_system(),
            silent_plant_system(),
            dodging_plant_system(),
            forced_violation_system(),
            escapable_violation_system(),
            urgent_guarded_exit_system(),
        ] {
            let locations: Vec<String> = sys
                .automata()
                .iter()
                .flat_map(|a| {
                    a.locations()
                        .iter()
                        .map(move |l| format!("{}.{}", a.name(), l.name))
                })
                .collect();
            for loc in &locations {
                let tp = match TestPurpose::parse(&format!("control: A[] not {loc}"), &sys) {
                    Ok(tp) => tp,
                    Err(_) => continue,
                };
                let jacobi = solve_jacobi(&sys, &tp, &SolveOptions::default()).unwrap();
                let otfur = solve(&sys, &tp, &otfur_options(false)).unwrap();
                assert_eq!(
                    jacobi.winning_from_initial,
                    otfur.winning_from_initial,
                    "{} / A[] not {loc}",
                    sys.name()
                );
                let mut discrete = DiscreteState::default();
                for (id, node) in jacobi.graph.nodes().iter().enumerate() {
                    jacobi.graph.discrete(id, &mut discrete);
                    let o = otfur.graph.node_of(&discrete).unwrap();
                    let expected = jacobi.winning[id].intersection(&node.reach);
                    assert!(
                        expected.set_equals(&otfur.winning[o]),
                        "otfur differs in {} of {} / A[] not {loc}",
                        discrete.display(&sys),
                        sys.name()
                    );
                }
            }
        }
    }

    #[test]
    fn urgent_safety_games_admit_no_delay_in_the_dual_fixpoint() {
        // In the urgent Wait state the only exit is an uncontrollable tau
        // guarded x == 2 into GoalLoc.  For `A[] not A.GoalLoc`, Wait at
        // x == 2 is losing (the plant fires the move), while x < 2 is a
        // frozen timelock that never reaches the guard — safe.  An engine
        // that applied the full `Pred_t` past-closure in the swapped game
        // would wrongly mark all of x <= 2 losing.
        let sys = urgent_guarded_exit_system();
        let tp = TestPurpose::parse("control: A[] not A.GoalLoc", &sys).unwrap();
        let wait = {
            let mut d = sys.initial_discrete();
            let (aut, loc) = sys.location_by_qualified_name("A.Wait").unwrap();
            d.locations[aut.index()] = loc;
            d
        };
        for (name, solution) in solutions_by_engine(&sys, &tp) {
            assert!(solution.winning_from_initial, "{name}");
            if name == "otfur-early" {
                continue; // may stop before Wait is fully evaluated
            }
            assert!(
                solution.is_winning_state(&wait, &[2], 2),
                "{name}: urgent x = 1 is a timelock, hence safe"
            );
            assert!(
                !solution.is_winning_state(&wait, &[4], 2),
                "{name}: urgent x = 2 is lost to the forced move"
            );
        }
    }

    #[test]
    fn bounded_reachability_respects_the_deadline() {
        // The plant replies within [1, 3] of the kick (invariant x <= 3), so
        // the tester can force Done by global time 3 but no earlier than 1:
        // T >= 3 wins, T <= 2 loses (the plant may sit on the reply until
        // x = 3).
        let sys = forced_output_system();
        for (bound, expected) in [(0, false), (2, false), (3, true), (1000, true)] {
            let tp =
                TestPurpose::parse(&format!("control: A<><={bound} Plant.Done"), &sys).unwrap();
            for (name, solution) in solutions_by_engine(&sys, &tp) {
                assert_eq!(
                    solution.winning_from_initial, expected,
                    "{name}: T = {bound}"
                );
                assert_eq!(solution.bound, Some(bound));
                if expected {
                    assert!(solution.strategy.is_some(), "{name}: T = {bound}");
                }
            }
        }
    }

    #[test]
    fn bounded_matches_unbounded_beyond_the_horizon() {
        // Every play of these finite games decides the purpose well before
        // T = 1000, so the bounded verdict must equal the unbounded one.
        for sys in [
            forced_output_system(),
            silent_plant_system(),
            dodging_plant_system(),
        ] {
            for goal in ["Plant.Done", "Plant.Busy"] {
                let unbounded = TestPurpose::parse(&format!("control: A<> {goal}"), &sys).unwrap();
                let bounded =
                    TestPurpose::parse(&format!("control: A<><=1000 {goal}"), &sys).unwrap();
                let want = solve_jacobi(&sys, &unbounded, &SolveOptions::default())
                    .unwrap()
                    .winning_from_initial;
                for (name, solution) in solutions_by_engine(&sys, &bounded) {
                    assert_eq!(
                        solution.winning_from_initial,
                        want,
                        "{name}: {} / {goal}",
                        sys.name()
                    );
                }
            }
        }
    }

    #[test]
    fn bounded_safety_wins_exactly_until_the_plant_can_strike() {
        // boom! is forced in [1, 3] and the tester has no move at all:
        // `A[] not Plant.BadLoc` is unbounded-losing, but with a deadline
        // before the plant's window (T = 0) no violation fits, so the
        // bounded purpose is winning.  From T = 1 on the plant can violate
        // at time exactly 1 <= T (weak bound): losing again.
        let sys = forced_violation_system();
        for (bound, expected) in [(0, true), (1, false), (3, false), (1000, false)] {
            let tp = TestPurpose::parse(&format!("control: A[]<={bound} not Plant.BadLoc"), &sys)
                .unwrap();
            for (name, solution) in solutions_by_engine(&sys, &tp) {
                assert_eq!(
                    solution.winning_from_initial, expected,
                    "{name}: T = {bound}"
                );
            }
        }
        // The unbounded purpose stays losing.
        let tp = TestPurpose::parse("control: A[] not Plant.BadLoc", &sys).unwrap();
        assert!(
            !solve(&sys, &tp, &SolveOptions::default())
                .unwrap()
                .winning_from_initial
        );
    }

    #[test]
    fn bounded_winning_sets_agree_across_engines_and_jobs() {
        // The same semantic contract as the unbounded suites, on bounded
        // purposes: exhaustive otfur ≡ jacobi ∩ reach — and a second solve,
        // whose zone store hashes with fresh keys, gives the same answer.
        for sys in [forced_output_system(), forced_violation_system()] {
            for line in [
                "control: A<><=3 Plant.Done",
                "control: A<><=2 Plant.Done",
                "control: A[]<=0 not Plant.BadLoc",
                "control: A[]<=2 not Plant.BadLoc",
            ] {
                let Ok(tp) = TestPurpose::parse(line, &sys) else {
                    continue; // goal location not present in this system
                };
                let jacobi = solve_jacobi(&sys, &tp, &SolveOptions::default()).unwrap();
                let otfur = solve(&sys, &tp, &otfur_options(false)).unwrap();
                assert_eq!(
                    jacobi.winning_from_initial, otfur.winning_from_initial,
                    "{line}"
                );
                let mut discrete = DiscreteState::default();
                for (id, node) in jacobi.graph.nodes().iter().enumerate() {
                    jacobi.graph.discrete(id, &mut discrete);
                    let o = otfur.graph.node_of(&discrete).unwrap();
                    let expected = jacobi.winning[id].intersection(&node.reach);
                    assert!(
                        expected.set_equals(&otfur.winning[o]),
                        "otfur differs in {line}"
                    );
                }
                let exhaustive = SolveOptions {
                    early_termination: false,
                    ..SolveOptions::default()
                };
                for (name, solver) in SOLVERS {
                    let base = solver(&sys, &tp, &exhaustive).unwrap();
                    let run = solver(&sys, &tp, &exhaustive).unwrap();
                    let label = format!("{line} {name}: second solve");
                    assert_eq!(
                        base.winning_from_initial, run.winning_from_initial,
                        "{label}"
                    );
                    assert_eq!(base.winning, run.winning, "{label}");
                    assert_eq!(base.strategy, run.strategy, "{label}");
                }
            }
        }
    }

    #[test]
    fn bounded_strategy_is_queryable_over_the_augmented_dimensions() {
        let sys = forced_output_system();
        let tp = TestPurpose::parse("control: A<><=3 Plant.Done", &sys).unwrap();
        let aug = bounded_system(&sys, &tp).unwrap().expect("augmented");
        assert_eq!(aug.dim(), sys.dim() + 1);
        assert_eq!(
            aug.clock_names().last().map(String::as_str),
            Some(TICK_CLOCK)
        );
        let solution = solve(&sys, &tp, &SolveOptions::default()).unwrap();
        assert!(solution.winning_from_initial);
        let strategy = solution.strategy.as_ref().expect("strategy");
        // Queries carry the tick clock as the trailing value.
        let d0 = sys.initial_discrete();
        let decision = strategy.decide(&d0, &[0, 0], 4).expect("covered");
        assert!(matches!(
            decision,
            crate::strategy::StrategyDecision::Take(_)
        ));
        // Busy at x = 0, #t = 0 is winning; at x = 0, #t = 2 the deadline
        // can no longer be met (the plant may sit on the reply until x = 3,
        // i.e. global time 5) — losing.
        let busy = {
            let mut d = d0.clone();
            let (aut, loc) = sys.location_by_qualified_name("Plant.Busy").unwrap();
            d.locations[aut.index()] = loc;
            d
        };
        assert!(solution.is_winning_state(&busy, &[0, 0], 4));
        assert!(!solution.is_winning_state(&busy, &[0, 8], 4));
        // An unparseable bound in a programmatic purpose is rejected, not
        // silently wrapped.
        let mut bad = tp.clone();
        bad.bound = Some(-1);
        assert!(matches!(
            solve(&sys, &bad, &SolveOptions::default()),
            Err(SolverError::Model(_))
        ));
        bad.bound = Some(i64::MAX);
        assert!(matches!(
            solve(&sys, &bad, &SolveOptions::default()),
            Err(SolverError::Model(_))
        ));
    }

    #[test]
    fn invariant_boundary_helper() {
        // Invariant x <= 3 over one clock.
        let mut inv = Dbm::universe(2);
        inv.constrain(1, 0, Bound::le(3));
        let boundary = invariant_boundary(&inv, false);
        assert!(boundary.contains_scaled(&[0, 6])); // x = 3
        assert!(!boundary.contains_scaled(&[0, 5])); // x = 2.5
                                                     // No upper bounds: no boundary.
        let open = Dbm::universe(2);
        assert!(invariant_boundary(&open, false).is_empty());
        // Urgent: everything is a boundary.
        assert!(invariant_boundary(&open, true).contains_scaled(&[0, 4]));
    }

    #[test]
    fn decimal_order_compares_renderings_as_strings() {
        for (a, b, order) in [
            (10, 9, Ordering::Less),
            (1, 10, Ordering::Less),
            (12, 1, Ordering::Greater),
            (100, 11, Ordering::Less),
            (0, 0, Ordering::Equal),
            (120, 120, Ordering::Equal),
            (0, 1, Ordering::Less),
        ] {
            assert_eq!(decimal_order(a, b), order, "{a} vs {b}");
            assert_eq!(decimal_order(a, b), a.to_string().cmp(&b.to_string()));
        }
    }

    /// The structural escape order equals the old sort key — the `Debug`
    /// texts of the joint edge and its target, joined by `|` — on random
    /// joint-edge pairs with ids `0..=120`.  The target is a function of
    /// the joint edge, as it is in a game graph.
    #[test]
    fn escape_order_matches_the_debug_text_order() {
        let mut seed: u64 = 0x5AFE_0DE5;
        let mut next = |bound: u64| {
            // SplitMix64.
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        };
        let mut joint = || {
            let internal = next(2) == 0;
            let mut id = || next(121) as usize;
            if internal {
                JointEdge::Internal {
                    automaton: tiga_model::AutomatonId::from_index(id()),
                    edge: tiga_model::EdgeId::from_index(id()),
                }
            } else {
                JointEdge::Sync {
                    channel: tiga_model::ChannelId::from_index(id()),
                    output: (
                        tiga_model::AutomatonId::from_index(id()),
                        tiga_model::EdgeId::from_index(id()),
                    ),
                    input: (
                        tiga_model::AutomatonId::from_index(id()),
                        tiga_model::EdgeId::from_index(id()),
                    ),
                }
            }
        };
        let old_key = |joint: &JointEdge| {
            let target = DiscreteState {
                locations: vec![tiga_model::LocationId::from_index(
                    format!("{joint:?}").len(),
                )],
                vars: vec![-1],
            };
            format!("{joint:?}|{target:?}")
        };
        for _ in 0..20_000 {
            let (a, b) = (joint(), joint());
            assert_eq!(
                escape_order(&a, &b),
                old_key(&a).cmp(&old_key(&b)),
                "{a:?} vs {b:?}"
            );
            assert_eq!(escape_order(&a, &a.clone()), Ordering::Equal);
        }
    }

    #[test]
    fn constants_beyond_the_ceiling_of_the_solved_clocks_are_refused() {
        type Solver = fn(&System, &TestPurpose) -> Result<GameSolution, SolverError>;
        let solvers: [Solver; 2] = [
            |sys, tp| solve_jacobi(sys, tp, &SolveOptions::default()),
            |sys, tp| solve(sys, tp, &otfur_options(false)),
        ];
        // A time bound counts the clock it adds: one clock plus `#t` allow
        // `max_constant_for(2)`, although one clock alone allows more.
        let sys = forced_output_system();
        let two = tiga_model::max_constant_for(2);
        assert!(two < tiga_model::max_constant_for(1));
        for solver in solvers {
            for (bound, refused) in [(two, false), (two + 1, true)] {
                let tp =
                    TestPurpose::parse(&format!("control: A<><={bound} Plant.Done"), &sys).unwrap();
                match solver(&sys, &tp) {
                    Err(e) => assert!(refused && e.to_string().contains("too large"), "{e}"),
                    Ok(_) => assert!(!refused, "T = {bound} was solved"),
                }
            }
        }
        // A guard of a system built in Rust, with no time bound.
        let one = tiga_model::max_constant_for(1);
        for (constant, refused) in [(one, false), (one + 1, true)] {
            let mut b = SystemBuilder::new("guarded");
            let x = b.clock("x").unwrap();
            let go = b.input_channel("go").unwrap();
            let mut plant = AutomatonBuilder::new("Plant");
            let idle = plant.location("Idle").unwrap();
            let done = plant.location("Done").unwrap();
            plant.add_edge(
                EdgeBuilder::new(idle, done)
                    .input(go)
                    .guard_clock(ClockConstraint::new(x, CmpOp::Le, i64::from(constant))),
            );
            b.add_automaton(plant.build().unwrap()).unwrap();
            let mut user = AutomatonBuilder::new("User");
            let u = user.location("U").unwrap();
            user.add_edge(EdgeBuilder::new(u, u).output(go));
            b.add_automaton(user.build().unwrap()).unwrap();
            let sys = b.build().unwrap();
            let tp = TestPurpose::parse("control: A<> Plant.Done", &sys).unwrap();
            for solver in solvers {
                match solver(&sys, &tp) {
                    Err(e) => assert!(refused && e.to_string().contains("too large"), "{e}"),
                    Ok(solution) => {
                        assert!(!refused, "x <= {constant} was solved");
                        assert!(solution.winning_from_initial);
                    }
                }
            }
        }
    }

    #[test]
    fn a_reset_to_a_wide_variable_is_refused() {
        // `x := n` may set `x` to any value of `n`; it counts with the bound
        // a guard `x <= n` gets, twice the widest variable range.
        let one = i64::from(tiga_model::max_constant_for(1));
        for (upper, refused) in [(one / 2, false), (one / 2 + 1, true)] {
            let mut b = SystemBuilder::new("wide-reset");
            let x = b.clock("x").unwrap();
            let go = b.input_channel("go").unwrap();
            let n = b.int_var("n", 0, upper, 0).unwrap();
            let mut plant = AutomatonBuilder::new("Plant");
            let idle = plant.location("Idle").unwrap();
            let done = plant.location("Done").unwrap();
            plant.add_edge(
                EdgeBuilder::new(idle, done)
                    .input(go)
                    .reset_to(x, Expr::var(n)),
            );
            b.add_automaton(plant.build().unwrap()).unwrap();
            let mut user = AutomatonBuilder::new("User");
            let u = user.location("U").unwrap();
            user.add_edge(EdgeBuilder::new(u, u).output(go));
            b.add_automaton(user.build().unwrap()).unwrap();
            let sys = b.build().unwrap();
            // Extrapolation does not count the reset.
            assert!(i64::from(sys.max_bounds()[x.dbm_index()]) < one);
            let tp = TestPurpose::parse("control: A<> Plant.Done", &sys).unwrap();
            for solution in [
                solve_jacobi(&sys, &tp, &SolveOptions::default()),
                solve(&sys, &tp, &otfur_options(false)),
            ] {
                match solution {
                    Err(e) => assert!(refused && e.to_string().contains("too large"), "{e}"),
                    Ok(solution) => {
                        assert!(!refused, "n <= {upper} was solved");
                        assert!(solution.winning_from_initial);
                    }
                }
            }
        }
    }
}
