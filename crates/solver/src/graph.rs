//! Forward exploration of the symbolic game graph.
//!
//! The graph has one node per reachable *discrete* state (location vector +
//! variable valuation); each node records its invariant zone, the union of
//! zones with which it was reached (for statistics and on-the-fly pruning),
//! whether it satisfies the goal predicate, and its outgoing joint edges.
//!
//! Both engines build the graph through one [`GraphBuilder`]:
//! [`GameGraph::explore`] drains a work list with it before the Jacobi
//! fixpoint runs, and the on-the-fly search ([`crate::otfur`]) interleaves
//! the same discovery and offer steps with its backward propagation.
//! Pending zones are passed-list ids, and only those still in their
//! node's passed list are expanded: a zone that a later, larger offer
//! dropped finds no edge or target that the larger zone misses, and its
//! successor zones lie inside the larger zone's.

use crate::error::SolverError;
use crate::stats::MemCounters;
use std::collections::HashMap;
use tiga_dbm::{Dbm, Federation, ZoneId, ZoneSet, ZoneStore};
use tiga_model::{
    CandidateStep, DiscreteState, ExploredState, Explorer, JointEdge, Liveness, ModelError, System,
};
use tiga_tctl::StatePredicate;

/// Index of a node in a [`GameGraph`].
pub type NodeId = usize;

/// An edge of the explored game graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphEdge {
    /// The joint (composed) model edge.
    pub joint: JointEdge,
    /// Target node.
    pub target: NodeId,
    /// Whether the edge is a controllable (tester) move.
    pub controllable: bool,
}

/// A node of the explored game graph.
#[derive(Clone, Debug)]
pub struct GameNode {
    /// The discrete state this node represents.
    pub discrete: DiscreteState,
    /// The invariant zone of the discrete state.
    pub invariant: Dbm,
    /// Union of the (delay-closed, extrapolated) zones with which the node
    /// was reached during forward exploration.
    pub reach: Federation,
    /// Outgoing joint edges (deduplicated).
    pub edges: Vec<GraphEdge>,
    /// Whether the goal predicate holds in this discrete state.
    pub is_goal: bool,
    /// Whether the discrete state is urgent (no delay allowed).
    pub urgent: bool,
}

/// The forward-explored symbolic game graph.
#[derive(Clone, Debug)]
pub struct GameGraph {
    nodes: Vec<GameNode>,
    index: HashMap<DiscreteState, NodeId>,
    initial: NodeId,
    liveness: Liveness,
}

/// The liveness of the game whose attractor target is `goal` on `system`:
/// the objective reads the variables of `goal` and, on the augmented system
/// of a time-bounded purpose ([`crate::bounded_system`]), the
/// [`crate::TICK_CLOCK`], which only the deadline reads.  Both engines
/// explore under it, and the test executor projects concrete states by it
/// before every controller query.
#[must_use]
pub fn objective_liveness(system: &System, goal: &StatePredicate) -> Liveness {
    let mut vars = Vec::new();
    goal.for_each_var(&mut |v| vars.push(v));
    let tick = system.clock_by_name(crate::TICK_CLOCK);
    Liveness::new(system, &vars, tick.as_slice())
}

/// Options controlling forward exploration.
///
/// Successors of goal states are never explored: sound for reachability
/// objectives, and UPPAAL-TIGA prunes the same way.
#[derive(Clone, Debug)]
pub struct ExploreOptions {
    /// Hard bound on the number of discrete states, as a safety valve.
    pub max_states: usize,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            max_states: 1_000_000,
        }
    }
}

/// Per-node data of a [`GraphBuilder`], indexed like the explorer's states.
struct BuilderNode {
    /// Passed list: the zones the node was reached with, interned in the
    /// builder's store.
    reach: ZoneSet,
    /// Outgoing joint edges discovered so far (deduplicated).
    edges: Vec<GraphEdge>,
    /// Whether the goal predicate holds here.
    is_goal: bool,
}

/// The forward-exploration core under both engines.
///
/// It owns the [`Explorer`], the [`ZoneStore`] and, per node, the passed
/// list, the goal flag and the edge list.  Exploration advances through two
/// steps: [`GraphBuilder::discover`] records one candidate successor as a
/// node and an edge, and [`GraphBuilder::offer`] adds its zone to the
/// node's passed list.  Candidates are computed in parallel
/// ([`GraphBuilder::candidates`]) but discovered and offered one by one in
/// batch order, so the explored graph is bit-identical for any thread
/// count.
pub(crate) struct GraphBuilder<'a> {
    system: &'a System,
    goal: &'a StatePredicate,
    options: &'a ExploreOptions,
    explorer: Explorer<'a>,
    store: ZoneStore,
    nodes: Vec<BuilderNode>,
    initial: NodeId,
    /// Current total zone count across all passed lists.
    reach_total: usize,
}

impl<'a> GraphBuilder<'a> {
    /// Interns the initial state and returns the builder together with the
    /// root node and its zone, which is not offered yet.
    pub(crate) fn new(
        system: &'a System,
        goal: &'a StatePredicate,
        options: &'a ExploreOptions,
    ) -> Result<(Self, NodeId, Dbm), SolverError> {
        let mut explorer = Explorer::new(system, objective_liveness(system, goal));
        let (root, zone) = explorer.initial()?;
        let mut builder = GraphBuilder {
            system,
            goal,
            options,
            explorer,
            store: ZoneStore::new(system.dim()),
            nodes: Vec::new(),
            initial: root,
            reach_total: 0,
        };
        builder.adopt()?;
        Ok((builder, root, zone))
    }

    /// Creates the node data of every state the explorer interned since the
    /// last call, evaluating the goal predicate once per state.
    fn adopt(&mut self) -> Result<(), SolverError> {
        while self.nodes.len() < self.explorer.len() {
            let state = self.explorer.state(self.nodes.len());
            let is_goal = self.goal.holds(self.system, &state.discrete)?;
            self.nodes.push(BuilderNode {
                reach: ZoneSet::default(),
                edges: Vec::new(),
                is_goal,
            });
        }
        Ok(())
    }

    /// Number of nodes discovered so far.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// The interned state of a node.
    pub(crate) fn state(&self, node: NodeId) -> &ExploredState {
        self.explorer.state(node)
    }

    /// Whether the goal predicate holds at a node.
    pub(crate) fn is_goal(&self, node: NodeId) -> bool {
        self.nodes[node].is_goal
    }

    /// Whether a node's zones are expanded: goal nodes are not.
    pub(crate) fn expands(&self, node: NodeId) -> bool {
        !self.nodes[node].is_goal
    }

    /// The outgoing edges of a node discovered so far.
    pub(crate) fn edges(&self, node: NodeId) -> &[GraphEdge] {
        &self.nodes[node].edges
    }

    /// The members of a node's passed list.
    pub(crate) fn reach_zones(&self, node: NodeId) -> impl Iterator<Item = &Dbm> + Clone {
        self.nodes[node].reach.zones(&self.store)
    }

    /// Current total zone count across all passed lists.
    pub(crate) fn reach_total(&self) -> usize {
        self.reach_total
    }

    /// The candidate successors of the pending `(node, zone)` pairs that
    /// are still to be expanded, in `pending` order, computed read-only on
    /// `jobs` worker threads.
    ///
    /// A pair is expanded only if its node [expands](GraphBuilder::expands)
    /// and its zone is still a member of the node's passed list.  A zone
    /// that a later, larger offer dropped is skipped: the zone that dropped
    /// it is pending too, and the successor, guard and extrapolation
    /// operators are monotone, so it finds every edge and target the
    /// dropped zone would.  The filter runs here, before the fan-out, so
    /// the expanded pairs are the same for any `jobs`.
    pub(crate) fn candidates(
        &self,
        mut pending: Vec<(NodeId, ZoneId)>,
        jobs: usize,
    ) -> Vec<Result<(NodeId, Vec<CandidateStep>), ModelError>> {
        pending.retain(|&(node, zone)| self.expands(node) && self.nodes[node].reach.contains(zone));
        tiga_parallel::run_indexed(pending, jobs, |_, (node, zone)| {
            self.explorer
                .successor_candidates(node, self.store.zone(zone))
                .map(|steps| (node, steps))
        })
    }

    /// The discovery step: interns the target of a candidate successor of
    /// `source`, adopts it with its goal flag, enforces
    /// [`ExploreOptions::max_states`] and records the edge once per
    /// `(joint, target)`.  Returns the target and the successor zone.
    pub(crate) fn discover(
        &mut self,
        source: NodeId,
        step: CandidateStep,
    ) -> Result<(NodeId, Dbm), SolverError> {
        let target = self.explorer.intern(step.discrete)?;
        self.adopt()?;
        if self.nodes.len() > self.options.max_states {
            return Err(SolverError::StateLimitExceeded {
                limit: self.options.max_states,
            });
        }
        let edges = &mut self.nodes[source].edges;
        if !edges
            .iter()
            .any(|e| e.joint == step.joint && e.target == target)
        {
            edges.push(GraphEdge {
                joint: step.joint,
                target,
                controllable: step.controllable,
            });
        }
        Ok((target, step.zone))
    }

    /// The offer step: adds `zone` to the passed list of `node`.  Returns
    /// the zone's id if it added valuations, i.e. if it is to be expanded;
    /// [`GraphBuilder::candidates`] skips it once a larger offer drops it.
    pub(crate) fn offer(&mut self, node: NodeId, zone: &Dbm) -> Option<ZoneId> {
        let reach = &mut self.nodes[node].reach;
        let before = reach.len();
        let inserted = reach.insert(&mut self.store, zone);
        self.reach_total = self.reach_total + reach.len() - before;
        inserted
    }

    /// Moves the explored states and their index into a [`GameGraph`],
    /// materializing the passed lists into reach federations, and records
    /// the zone store's counters in `mem`.
    pub(crate) fn finish(self, mem: &mut MemCounters) -> GameGraph {
        let (states, index, liveness) = self.explorer.into_parts();
        let nodes = states
            .into_iter()
            .zip(self.nodes)
            .map(|(state, node)| GameNode {
                discrete: state.discrete,
                invariant: state.invariant,
                reach: node.reach.to_federation(&self.store),
                edges: node.edges,
                is_goal: node.is_goal,
                urgent: state.urgent,
            })
            .collect();
        mem.interned_zones = self.store.len();
        mem.intern_hits = self.store.hits();
        // Every intern miss deep-copied the candidate into the store.
        mem.dbm_clones += self.store.len();
        GameGraph {
            nodes,
            index,
            initial: self.initial,
            liveness,
        }
    }
}

impl GameGraph {
    /// Explores the game graph of `system` forward from the initial state,
    /// marking states that satisfy `goal`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::StateLimitExceeded`] if the number of discrete
    /// states exceeds `options.max_states`, or propagates model/purpose
    /// evaluation errors.
    pub fn explore(
        system: &System,
        goal: &StatePredicate,
        options: &ExploreOptions,
    ) -> Result<Self, SolverError> {
        Ok(Self::explore_jobs_mem(system, goal, options, 1)?.0)
    }

    /// [`GameGraph::explore`], with the successor computation of each
    /// frontier batch sharded over `jobs` worker threads (`0` = all cores),
    /// also reporting the memory counters of the exploration.
    ///
    /// The frontier is drained in batches: the successors of every
    /// `(node, zone)` pair whose zone is still in the node's passed list
    /// are computed in parallel, then discovered and offered sequentially
    /// in batch order, so the explored graph is bit-identical for any
    /// thread count.
    ///
    /// # Errors
    ///
    /// Same as [`GameGraph::explore`].
    pub(crate) fn explore_jobs_mem(
        system: &System,
        goal: &StatePredicate,
        options: &ExploreOptions,
        jobs: usize,
    ) -> Result<(Self, MemCounters), SolverError> {
        let (mut builder, root, root_zone) = GraphBuilder::new(system, goal, options)?;
        // Work list of (node, zone) pairs still to expand, drained batchwise.
        let mut queue: Vec<(NodeId, ZoneId)> = Vec::new();
        queue.extend(builder.offer(root, &root_zone).map(|zone| (root, zone)));
        let mut mem = MemCounters {
            peak_live_zones: builder.reach_total(),
            ..MemCounters::default()
        };
        while !queue.is_empty() {
            for result in builder.candidates(std::mem::take(&mut queue), jobs) {
                let (node, steps) = result?;
                for step in steps {
                    let (target, zone) = builder.discover(node, step)?;
                    // Continue exploring only if the zone adds new valuations.
                    if let Some(zone) = builder.offer(target, &zone) {
                        mem.peak_live_zones = mem.peak_live_zones.max(builder.reach_total());
                        queue.push((target, zone));
                    }
                }
            }
        }
        let graph = builder.finish(&mut mem);
        Ok((graph, mem))
    }

    /// The explored nodes.
    #[must_use]
    pub fn nodes(&self) -> &[GameNode] {
        &self.nodes
    }

    /// Number of explored discrete states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the graph has no nodes (never the case after a
    /// successful exploration).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Identifier of the initial node.
    #[must_use]
    pub fn initial(&self) -> NodeId {
        self.initial
    }

    /// A node by identifier.
    ///
    /// # Panics
    ///
    /// Panics if the identifier is out of range.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &GameNode {
        &self.nodes[id]
    }

    /// The liveness the explored states were reduced by: a concrete state
    /// goes through [`Liveness::project`] before [`GameGraph::node_of`].
    #[must_use]
    pub fn liveness(&self) -> &Liveness {
        &self.liveness
    }

    /// Looks up the node of an explored discrete state.
    #[must_use]
    pub fn node_of(&self, discrete: &DiscreteState) -> Option<NodeId> {
        self.index.get(discrete).copied()
    }

    /// Total number of stored edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.nodes.iter().map(|n| n.edges.len()).sum()
    }

    /// Total number of DBMs in the forward-reachability federations.
    #[must_use]
    pub fn reach_zone_count(&self) -> usize {
        self.nodes.iter().map(|n| n.reach.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiga_model::{AutomatonBuilder, ClockConstraint, CmpOp, EdgeBuilder, Expr, SystemBuilder};
    use tiga_tctl::TestPurpose;

    /// Plant: Idle --start?--> Run(x<=3) --tick!{x>=1}--> Idle, counting ticks.
    /// User: can always send start and receive tick.
    fn ping_system(max_count: i64) -> System {
        let mut b = SystemBuilder::new("ping");
        let x = b.clock("x").unwrap();
        let start = b.input_channel("start").unwrap();
        let tick = b.output_channel("tick").unwrap();
        let count = b.int_var("count", 0, max_count, 0).unwrap();

        let mut plant = AutomatonBuilder::new("Plant");
        let idle = plant.location("Idle").unwrap();
        let run = plant.location("Run").unwrap();
        plant.set_invariant(run, vec![ClockConstraint::new(x, CmpOp::Le, 3)]);
        plant.add_edge(EdgeBuilder::new(idle, run).input(start).reset(x));
        plant.add_edge(
            EdgeBuilder::new(run, idle)
                .output(tick)
                .guard_clock(ClockConstraint::new(x, CmpOp::Ge, 1))
                .set(count, Expr::var(count) + Expr::constant(1)),
        );
        b.add_automaton(plant.build().unwrap()).unwrap();

        let mut user = AutomatonBuilder::new("User");
        let u = user.location("U").unwrap();
        user.add_edge(EdgeBuilder::new(u, u).output(start));
        user.add_edge(EdgeBuilder::new(u, u).input(tick));
        b.add_automaton(user.build().unwrap()).unwrap();
        b.build().unwrap()
    }

    /// One automaton, one clock, internal (uncontrollable) edges only:
    /// R --x>=2--> T, R --x>=1--> T, R --> U, T --x>=0--> U.  Expanding R
    /// offers T the zone x >= 2 and then x >= 1, which drops the first
    /// before it is expanded; the guard out of T keeps x live there, while
    /// x is dead in U, whose zones are freed.  G has no incoming edge, so
    /// the goal is unreachable and both engines explore everything.
    fn widening_system() -> System {
        let mut b = SystemBuilder::new("widening");
        let x = b.clock("x").unwrap();
        let mut plant = AutomatonBuilder::new("P");
        let r = plant.location("R").unwrap();
        let t = plant.location("T").unwrap();
        let u = plant.location("U").unwrap();
        plant.location("G").unwrap();
        plant.add_edge(EdgeBuilder::new(r, t).guard_clock(ClockConstraint::new(x, CmpOp::Ge, 2)));
        plant.add_edge(EdgeBuilder::new(r, t).guard_clock(ClockConstraint::new(x, CmpOp::Ge, 1)));
        plant.add_edge(EdgeBuilder::new(r, u));
        plant.add_edge(EdgeBuilder::new(t, u).guard_clock(ClockConstraint::new(x, CmpOp::Ge, 0)));
        b.add_automaton(plant.build().unwrap()).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn a_zone_dropped_before_its_expansion_is_not_expanded() {
        let sys = widening_system();
        let tp = TestPurpose::parse("control: A<> P.G", &sys).unwrap();
        // Offers, in order, with the zone store's verdict:
        //   R x>=0 (miss, added);
        //   T x>=2 (miss, added), T x>=1 (miss, added, drops T x>=2);
        //   U x>=0 (hit: the root's zone, added);
        //   T x>=1 expanded: U x>=1, freed to x>=0 (hit, subsumed).
        // Expanding the dropped T x>=2 as well would add one more offer,
        // U x>=2, freed to x>=0 (hit, subsumed): 3 hits and 2 subsumed
        // offers for OTFUR.
        // Jacobi does not count subsumed offers.
        for (engine, subsumed) in [
            (crate::SolveEngine::Otfur, 1),
            (crate::SolveEngine::Jacobi, 0),
        ] {
            let options = crate::SolveOptions {
                engine,
                ..crate::SolveOptions::default()
            };
            let solution = crate::solve(&sys, &tp, &options).unwrap();
            let stats = solution.stats();
            let name = engine.name();
            assert!(!solution.winning_from_initial, "{name}");
            assert_eq!(stats.discrete_states, 3, "{name}");
            assert_eq!(stats.graph_edges, 4, "{name}");
            assert_eq!(stats.interned_zones, 3, "{name}");
            assert_eq!(stats.intern_hits, 2, "{name}");
            assert_eq!(stats.subsumed_zones, subsumed, "{name}");
            assert_eq!(stats.reach_zones, 3, "{name}");
        }
    }

    #[test]
    fn explores_reachable_discrete_states() {
        let sys = ping_system(2);
        let tp = TestPurpose::parse("control: A<> count == 2", &sys).unwrap();
        let graph = GameGraph::explore(&sys, &tp.predicate, &ExploreOptions::default()).unwrap();
        // Discrete states: (Idle|Run) x count in {0,1,2}, minus unreachable
        // combinations; count==2 Idle is a goal and not expanded.
        assert!(graph.len() >= 4);
        assert!(graph.len() <= 6);
        let goals: Vec<_> = graph.nodes().iter().filter(|n| n.is_goal).collect();
        assert!(!goals.is_empty());
        assert!(graph.edge_count() >= graph.len() - 1);
        assert_eq!(graph.node(graph.initial()).discrete, sys.initial_discrete());
        assert!(graph.node_of(&sys.initial_discrete()).is_some());
        assert!(graph.reach_zone_count() >= graph.len());
    }

    #[test]
    fn goal_states_are_not_expanded_when_pruning() {
        let sys = ping_system(1);
        let tp = TestPurpose::parse("control: A<> count == 1", &sys).unwrap();
        let graph = GameGraph::explore(&sys, &tp.predicate, &ExploreOptions::default()).unwrap();
        let goals: Vec<_> = graph.nodes().iter().filter(|n| n.is_goal).collect();
        assert!(!goals.is_empty());
        for node in goals {
            assert!(node.edges.is_empty(), "goal node should not be expanded");
        }
    }

    #[test]
    fn state_limit_is_enforced() {
        let sys = ping_system(3);
        let tp = TestPurpose::parse("control: A<> count == 3", &sys).unwrap();
        let err =
            GameGraph::explore(&sys, &tp.predicate, &ExploreOptions { max_states: 2 }).unwrap_err();
        assert!(matches!(err, SolverError::StateLimitExceeded { limit: 2 }));
    }

    #[test]
    fn every_node_is_indexed_under_its_discrete_state() {
        // The index moves over from the explorer; it must still map each
        // node's discrete state to that node, for the eager graph and for
        // the partial graph of an on-the-fly solve.
        let sys = ping_system(3);
        let tp = TestPurpose::parse("control: A<> count == 3", &sys).unwrap();
        let explored = GameGraph::explore(&sys, &tp.predicate, &ExploreOptions::default()).unwrap();
        let (lep3, tp4) = tiga_bench::lep_instance(3, 3);
        let solved = crate::solve(&lep3, &tp4, &crate::SolveOptions::default()).unwrap();
        for graph in [&explored, &solved.graph] {
            assert!(graph.len() > 1);
            assert_eq!(graph.index.len(), graph.len());
            for (id, node) in graph.nodes().iter().enumerate() {
                assert_eq!(graph.node_of(&node.discrete), Some(id));
            }
        }
    }

    #[test]
    fn edges_carry_controllability() {
        let sys = ping_system(1);
        let tp = TestPurpose::parse("control: A<> count == 1", &sys).unwrap();
        let graph = GameGraph::explore(&sys, &tp.predicate, &ExploreOptions::default()).unwrap();
        let init = graph.node(graph.initial());
        assert_eq!(init.edges.len(), 1);
        assert!(init.edges[0].controllable, "start is a tester input");
        let run_node = graph.node(init.edges[0].target);
        assert!(!run_node.is_goal);
        assert_eq!(run_node.edges.len(), 1);
        assert!(!run_node.edges[0].controllable, "tick is a plant output");
    }
}
