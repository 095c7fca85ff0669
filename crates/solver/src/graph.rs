//! Forward exploration of the symbolic game graph.
//!
//! The graph has one node per reachable *discrete* state (location vector +
//! variable valuation); each node records its invariant zone, the union of
//! zones with which it was reached (for statistics and on-the-fly pruning),
//! whether it satisfies the goal predicate, and its outgoing joint edges.

use crate::error::SolverError;
use crate::stats::MemCounters;
use std::collections::HashMap;
use tiga_dbm::{Dbm, Federation, ZoneSet, ZoneStore};
use tiga_model::{DiscreteState, Explorer, JointEdge, System};
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
}

/// Options controlling forward exploration.
#[derive(Clone, Debug)]
pub struct ExploreOptions {
    /// Do not explore successors of goal states (sound for reachability
    /// objectives and matches UPPAAL-TIGA's pruning).
    pub stop_at_goal: bool,
    /// Hard bound on the number of discrete states, as a safety valve.
    pub max_states: usize,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            stop_at_goal: true,
            max_states: 1_000_000,
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
        Self::explore_jobs(system, goal, options, 1)
    }

    /// Like [`GameGraph::explore`], with the symbolic successor computation
    /// of each frontier batch sharded over `jobs` worker threads (`0` = all
    /// cores).
    ///
    /// The frontier is drained in deterministic batches: candidate
    /// successors of every `(node, zone)` pair are computed read-only in
    /// parallel ([`Explorer::successor_candidates`]), then interned, edge-
    /// deduplicated and subsumption-checked sequentially in batch order —
    /// the explored graph is bit-identical for any thread count.
    ///
    /// # Errors
    ///
    /// Same as [`GameGraph::explore`].
    pub fn explore_jobs(
        system: &System,
        goal: &StatePredicate,
        options: &ExploreOptions,
        jobs: usize,
    ) -> Result<Self, SolverError> {
        Ok(Self::explore_jobs_mem(system, goal, options, jobs)?.0)
    }

    /// [`GameGraph::explore_jobs`], also reporting the memory counters of
    /// the exploration.
    ///
    /// The per-node passed lists are kept as [`ZoneSet`]s over one shared
    /// [`ZoneStore`] — re-derived zones cost a hash probe, subsumption
    /// verdicts are memoized, and at-rest zones live in minimal-constraint
    /// form.  The store is only touched in the sequential merge phase, so
    /// the explored graph is bit-identical for any thread count.
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
        let mut explorer = Explorer::new(system);
        let mut graph = GameGraph {
            nodes: Vec::new(),
            index: HashMap::new(),
            initial: 0,
        };
        let mut mem = MemCounters::default();
        let mut store = ZoneStore::new(system.dim());
        let mut sets: Vec<ZoneSet> = Vec::new();
        let (root_id, root_zone) = explorer.initial()?;
        graph.adopt(system, goal, &explorer, root_id)?;
        graph.initial = root_id;
        sets.resize_with(graph.nodes.len(), ZoneSet::default);
        sets[root_id].insert(&mut store, &root_zone);
        let mut reach_total = sets[root_id].len();
        mem.peak_live_zones = reach_total;

        // Work list of (node, zone) pairs still to expand, drained batchwise.
        let mut queue: Vec<(NodeId, Dbm)> = vec![(root_id, root_zone)];
        while !queue.is_empty() {
            let batch: Vec<(NodeId, Dbm)> = std::mem::take(&mut queue)
                .into_iter()
                .filter(|(node_id, _)| !(options.stop_at_goal && graph.nodes[*node_id].is_goal))
                .collect();
            let results = tiga_parallel::run_indexed(batch, jobs, |_, (node_id, zone)| {
                explorer
                    .successor_candidates(node_id, &zone)
                    .map(|steps| (node_id, steps))
            });
            for result in results {
                let (node_id, steps) = result?;
                for step in steps {
                    let target = explorer.intern(step.discrete)?;
                    let succ_id = graph.adopt(system, goal, &explorer, target)?;
                    if graph.nodes.len() > options.max_states {
                        return Err(SolverError::StateLimitExceeded {
                            limit: options.max_states,
                        });
                    }
                    // Record the edge once per (joint, target).
                    let exists = graph.nodes[node_id]
                        .edges
                        .iter()
                        .any(|e| e.joint == step.joint && e.target == succ_id);
                    if !exists {
                        graph.nodes[node_id].edges.push(GraphEdge {
                            joint: step.joint,
                            target: succ_id,
                            controllable: step.controllable,
                        });
                    }
                    // Continue exploring only if the zone adds new valuations.
                    sets.resize_with(graph.nodes.len(), ZoneSet::default);
                    let before = sets[succ_id].len();
                    let expand = sets[succ_id].insert(&mut store, &step.zone);
                    reach_total = reach_total + sets[succ_id].len() - before;
                    mem.peak_live_zones = mem.peak_live_zones.max(reach_total);
                    if expand {
                        queue.push((succ_id, step.zone));
                    }
                }
            }
        }
        // Materialize the interned passed lists into the per-node reach
        // federations the fixpoint engine reads.
        for (node, set) in graph.nodes.iter_mut().zip(&sets) {
            node.reach = set.to_federation(&store);
        }
        mem.record_store(&store);
        Ok((graph, mem))
    }

    /// Mirrors an explorer state into the graph, creating the [`GameNode`]
    /// (with its goal flag) on first sight.
    ///
    /// Explorer indices and node identifiers stay aligned because the graph
    /// adopts every state the explorer interns, in interning order.
    fn adopt(
        &mut self,
        system: &System,
        goal: &StatePredicate,
        explorer: &Explorer<'_>,
        idx: NodeId,
    ) -> Result<NodeId, SolverError> {
        while self.nodes.len() <= idx {
            let state = explorer.state(self.nodes.len());
            let is_goal = goal.holds(system, &state.discrete)?;
            self.nodes.push(GameNode {
                discrete: state.discrete.clone(),
                invariant: state.invariant.clone(),
                reach: Federation::empty(system.dim()),
                edges: Vec::new(),
                is_goal,
                urgent: state.urgent,
            });
            self.index
                .insert(state.discrete.clone(), self.nodes.len() - 1);
        }
        Ok(idx)
    }

    /// Assembles a graph from nodes built elsewhere (the on-the-fly solver
    /// constructs its partial graph this way).
    ///
    /// # Panics
    ///
    /// Panics if `initial` is out of range.
    #[must_use]
    pub(crate) fn from_parts(nodes: Vec<GameNode>, initial: NodeId) -> Self {
        assert!(initial < nodes.len(), "initial node out of range");
        let index = nodes
            .iter()
            .enumerate()
            .map(|(id, n)| (n.discrete.clone(), id))
            .collect();
        GameGraph {
            nodes,
            index,
            initial,
        }
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

    /// Looks up the node of a discrete state, if it was explored.
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
        let pruned = GameGraph::explore(&sys, &tp.predicate, &ExploreOptions::default()).unwrap();
        let full = GameGraph::explore(
            &sys,
            &tp.predicate,
            &ExploreOptions {
                stop_at_goal: false,
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        // Without pruning at least as many states/edges are explored.
        assert!(full.len() >= pruned.len());
        assert!(full.edge_count() >= pruned.edge_count());
        for node in pruned.nodes() {
            if node.is_goal {
                assert!(node.edges.is_empty(), "goal node should not be expanded");
            }
        }
    }

    #[test]
    fn state_limit_is_enforced() {
        let sys = ping_system(3);
        let tp = TestPurpose::parse("control: A<> count == 3", &sys).unwrap();
        let err = GameGraph::explore(
            &sys,
            &tp.predicate,
            &ExploreOptions {
                max_states: 2,
                ..ExploreOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, SolverError::StateLimitExceeded { limit: 2 }));
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
