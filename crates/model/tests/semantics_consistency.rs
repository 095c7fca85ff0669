//! Property-based consistency checks between the concrete (tick-level) and
//! symbolic (zone-level) semantics of randomly generated small systems:
//! every concrete run, projected by the system's liveness, must stay inside
//! the forward-reachable symbolic states.

use proptest::prelude::*;
use tiga_model::{
    AutomatonBuilder, ClockConstraint, CmpOp, ConcreteState, DiscreteState, EdgeBuilder, Explorer,
    Interpreter, Liveness, SymbolicState, System, SystemBuilder,
};

/// Description of one random edge of the generated plant.
#[derive(Clone, Debug)]
struct RandomEdge {
    source: usize,
    target: usize,
    is_output: bool,
    guard_lower: i64,
    guard_upper: Option<i64>,
    reset: bool,
}

/// Description of a random two-location-to-four-location plant with one clock
/// and one input/one output channel.
#[derive(Clone, Debug)]
struct RandomPlant {
    locations: usize,
    invariant_bounds: Vec<Option<i64>>,
    edges: Vec<RandomEdge>,
}

fn arb_plant() -> impl Strategy<Value = RandomPlant> {
    let locations = 2..5usize;
    locations.prop_flat_map(|locations| {
        let invariants = proptest::collection::vec(proptest::option::of(1..6i64), locations);
        let edges = proptest::collection::vec(
            (
                0..locations,
                0..locations,
                any::<bool>(),
                0..4i64,
                proptest::option::of(4..8i64),
                any::<bool>(),
            )
                .prop_map(
                    |(source, target, is_output, guard_lower, guard_upper, reset)| RandomEdge {
                        source,
                        target,
                        is_output,
                        guard_lower,
                        guard_upper,
                        reset,
                    },
                ),
            1..6,
        );
        (invariants, edges).prop_map(move |(invariant_bounds, edges)| RandomPlant {
            locations,
            invariant_bounds,
            edges,
        })
    })
}

fn build(plant: &RandomPlant) -> System {
    let mut b = SystemBuilder::new("random");
    let x = b.clock("x").unwrap();
    let input = b.input_channel("in").unwrap();
    let output = b.output_channel("out").unwrap();
    let mut a = AutomatonBuilder::new("P");
    let locs: Vec<_> = (0..plant.locations)
        .map(|i| a.location(&format!("L{i}")).unwrap())
        .collect();
    for (i, inv) in plant.invariant_bounds.iter().enumerate() {
        if let Some(bound) = inv {
            a.set_invariant(locs[i], vec![ClockConstraint::new(x, CmpOp::Le, *bound)]);
        }
    }
    for e in &plant.edges {
        let mut edge = EdgeBuilder::new(locs[e.source], locs[e.target])
            .guard_clock(ClockConstraint::new(x, CmpOp::Ge, e.guard_lower));
        if let Some(upper) = e.guard_upper {
            edge = edge.guard_clock(ClockConstraint::new(x, CmpOp::Le, upper));
        }
        edge = if e.is_output {
            edge.output(output)
        } else {
            edge.input(input)
        };
        if e.reset {
            edge = edge.reset(x);
        }
        a.add_edge(edge);
    }
    b.add_automaton(a.build().unwrap()).unwrap();
    // A chaotic environment closes the network, so that the closed (symbolic
    // product) semantics and the concrete closed-view runs coincide.
    let mut env = AutomatonBuilder::new("Env");
    let e = env.location("E").unwrap();
    env.add_edge(EdgeBuilder::new(e, e).output(input));
    env.add_edge(EdgeBuilder::new(e, e).input(output));
    b.add_automaton(env.build().unwrap()).unwrap();
    b.build().unwrap()
}

/// Reduces a symbolic state by liveness, as the explorer does: dead
/// variables back at their initial values, dead clocks freed.
fn reduce(liveness: &Liveness, state: &mut SymbolicState) {
    liveness.forget_dead_vars(&mut state.discrete);
    liveness.free_dead_clocks(&state.discrete.locations, &mut state.zone);
}

/// Forward-explores the symbolic state space and checks that a concrete state,
/// projected by liveness, is covered by some reachable symbolic state.
///
/// Every expanded state's successors are computed twice, by
/// `System::joint_successor` + `System::delay_close` followed by the
/// liveness reduction, and by the solvers' `Explorer::successor_candidates`,
/// and the two must agree.
fn symbolically_reachable(system: &System, state: &ConcreteState, scale: i64) -> bool {
    let max = system.max_bounds();
    let liveness = Liveness::new(system, &[], &[]);
    let mut explorer = Explorer::new(system, liveness.clone());
    let mut seen: Vec<SymbolicState> = Vec::new();
    let mut root = system.initial_exploration_state().unwrap();
    reduce(&liveness, &mut root);
    let mut queue = vec![root];
    while let Some(s) = queue.pop() {
        if seen
            .iter()
            .any(|t| t.discrete == s.discrete && s.zone.is_subset_of(&t.zone))
        {
            continue;
        }
        seen.push(s.clone());
        let mut successors = Vec::new();
        for je in system.enabled_joint_edges(&s.discrete).unwrap() {
            if let Some(mut succ) = system.joint_successor(&s, &je).unwrap() {
                system.delay_close(&mut succ, &max).unwrap();
                if !succ.zone.is_empty() {
                    reduce(&liveness, &mut succ);
                    successors.push((je, succ));
                }
            }
        }
        let source = explorer.intern(s.discrete.clone()).unwrap();
        let candidates: Vec<_> = explorer
            .successor_candidates(source, &s.zone)
            .unwrap()
            .into_iter()
            .map(|c| {
                let succ = SymbolicState {
                    discrete: c.discrete,
                    zone: c.zone,
                };
                (c.joint, succ)
            })
            .collect();
        assert_eq!(candidates, successors, "explorer successors differ");
        for (_, succ) in &successors {
            // Intern the targets, so later expansions also take the
            // explorer's cached-invariant path.
            explorer.intern(succ.discrete.clone()).unwrap();
        }
        queue.extend(successors.into_iter().map(|(_, succ)| succ));
    }
    let mut scratch = DiscreteState::default();
    let discrete = liveness.project(&state.discrete, &mut scratch);
    let mut point = Vec::with_capacity(state.clocks.len() + 1);
    point.push(0);
    point.extend_from_slice(&state.clocks);
    seen.iter()
        .any(|s| s.discrete == *discrete && s.zone.contains_at(&point, scale))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every state reached by a random concrete run (alternating delays and
    /// enabled synchronizations of the closed network) is covered by the
    /// forward symbolic reachability relation — i.e. the zone semantics
    /// over-approximates the tick semantics.
    #[test]
    fn concrete_runs_stay_within_symbolic_reachability(
        plant in arb_plant(),
        choices in proptest::collection::vec((0..4i64, 0..4usize), 0..6),
    ) {
        let system = build(&plant);
        let scale = 2;
        let interp = Interpreter::new(&system, scale).unwrap();
        let mut state = interp.initial_state().unwrap();
        prop_assert!(symbolically_reachable(&system, &state, scale));
        for (delay_units, pick) in choices {
            // Delay, clamped by the invariant.
            let mut delay = delay_units * scale;
            if let Some(bound) = interp.max_delay(&state).unwrap() {
                delay = delay.min(bound);
            }
            if let Some(next) = interp.delayed(&state, delay).unwrap() {
                state = next;
            }
            // Fire one of the enabled synchronizations, if any.
            let syncs = interp.enabled_syncs(&state).unwrap();
            if !syncs.is_empty() {
                let channel = syncs[pick % syncs.len()];
                if let Some(next) = interp.fire_sync(&state, channel).unwrap() {
                    state = next;
                }
            }
            prop_assert!(
                symbolically_reachable(&system, &state, scale),
                "state {:?} escaped the symbolic reachability relation",
                state
            );
        }
    }

    /// The maximal delay reported by the interpreter is exactly the largest
    /// delay that keeps the invariants satisfied.
    #[test]
    fn max_delay_is_tight(plant in arb_plant(), extra in 1..5i64) {
        let system = build(&plant);
        let interp = Interpreter::new(&system, 2).unwrap();
        let state = interp.initial_state().unwrap();
        match interp.max_delay(&state).unwrap() {
            None => {
                prop_assert!(interp.delayed(&state, 1000).unwrap().is_some());
            }
            Some(bound) => {
                prop_assert!(interp.delayed(&state, bound).unwrap().is_some());
                prop_assert!(interp.delayed(&state, bound + extra).unwrap().is_none());
            }
        }
    }
}
