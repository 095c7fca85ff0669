//! Property-based consistency checks between the concrete (tick-level) and
//! symbolic (zone-level) semantics of randomly generated small systems:
//! every concrete run, projected by the system's liveness, must stay inside
//! the forward-reachable symbolic states.  Over `tiga_gen` systems, every
//! in-place delay and step of the interpreter either leaves the state
//! bit-identical (refused) or yields the successor rebuilt from
//! [`System::apply_joint_discrete`] plus the clock resets (accepted).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tiga_gen::{generate_spec, GenConfig};
use tiga_model::{
    AutomatonBuilder, AutomatonId, ChannelId, ChannelKind, ClockConstraint, CmpOp, ConcreteState,
    DiscreteState, EdgeBuilder, EdgeId, EdgeRef, Explorer, Interpreter, JointEdge, Liveness,
    ModelError, SymbolicState, Sync, System, SystemBuilder,
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
        let source = explorer.intern(&s.discrete).unwrap();
        let steps = explorer.successor_candidates(source, &s.zone).unwrap();
        let candidates: Vec<_> = steps
            .into_iter()
            .map(|c| {
                // The explorer interned the target; its packed copy unpacks
                // to the state itself.
                let mut discrete = DiscreteState::default();
                explorer.store().decode(c.target, &mut discrete);
                let succ = SymbolicState {
                    discrete,
                    zone: c.zone,
                };
                (c.joint, succ)
            })
            .collect();
        assert_eq!(candidates, successors, "explorer successors differ");
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
        let mut scratch = ConcreteState::default();
        prop_assert!(symbolically_reachable(&system, &state, scale));
        for (delay_units, pick) in choices {
            // Delay, clamped by the invariant.
            let mut delay = delay_units * scale;
            if let Some(bound) = interp.max_delay(&state).unwrap() {
                delay = delay.min(bound);
            }
            interp.delay(&mut state, delay).unwrap();
            // Fire one of the enabled synchronizations, if any.
            let syncs = interp.enabled_syncs(&state).unwrap();
            prop_assert_eq!(
                interp.output_sync_enabled(&state).unwrap(),
                syncs
                    .iter()
                    .any(|&ch| system.channel(ch).kind() == ChannelKind::Output)
            );
            if !syncs.is_empty() {
                let channel = syncs[pick % syncs.len()];
                interp.fire_sync(&mut state, channel, &mut scratch).unwrap();
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
        let allows = |ticks: i64| interp.delay(&mut state.clone(), ticks).unwrap();
        match interp.max_delay(&state).unwrap() {
            None => {
                prop_assert!(allows(1000));
            }
            Some(bound) => {
                prop_assert!(allows(bound));
                prop_assert!(!allows(bound + extra));
            }
        }
    }
}

/// Generated systems the in-place stepping property runs over.
const SYSTEMS: u64 = 150;
/// Moves along each system's run.
const MOVES: usize = 12;

/// Every in-place delay and step of the interpreter, along random runs of
/// generated systems, agrees with a reference rebuilt from the public
/// model: a refused one (or one that fails to evaluate) leaves the state
/// bit-identical, an accepted one yields exactly the reference successor.
#[test]
fn in_place_steps_match_the_reference_and_refuse_cleanly() {
    let scale = 2;
    let mut rng = StdRng::seed_from_u64(0x5ca7);
    let (mut taken, mut refused) = (0usize, 0usize);
    let mut count = |was_taken: bool| {
        if was_taken {
            taken += 1;
        } else {
            refused += 1;
        }
    };
    for seed in 0..SYSTEMS {
        let Ok((system, _)) = generate_spec(seed, &GenConfig::default()).build() else {
            continue;
        };
        let interp = Interpreter::new(&system, scale).unwrap();
        let Ok(mut state) = interp.initial_state() else {
            continue;
        };
        let mut scratch = ConcreteState::default();
        for _ in 0..MOVES {
            // Delays inside the invariant and past it.
            let max = interp.max_delay(&state).unwrap();
            let delay = (rng.gen_range(0..4i64) * scale).min(max.unwrap_or(i64::MAX));
            count(check_delay(&interp, &state, delay));
            if let Some(bound) = max {
                count(check_delay(&interp, &state, bound + 1 + delay));
            }
            // Every open-view and closed-view step, through one scratch.
            let edges = system.enabled_joint_edges(&state.discrete).unwrap();
            for je in &edges {
                let expected = reference_fire_joint(&interp, &state, je);
                count(check_step(&state, &mut scratch, expected, |s, t| {
                    interp.fire_joint(s, je, t)
                }));
            }
            for channel in (0..system.channels().len()).map(ChannelId::from_index) {
                let expected = reference_fire_sync(&interp, &state, channel);
                count(check_step(&state, &mut scratch, expected, |s, t| {
                    interp.fire_sync(s, channel, t)
                }));
                let expected = reference_first_enabled(&interp, &state, Sync::Input(channel));
                count(check_step(&state, &mut scratch, expected, |s, t| {
                    interp.after_input(s, channel, t)
                }));
                let expected = reference_first_enabled(&interp, &state, Sync::Output(channel));
                count(check_step(&state, &mut scratch, expected, |s, t| {
                    interp.after_output(s, channel, t)
                }));
            }
            for (ai, aut) in system.automata().iter().enumerate() {
                for ei in (0..aut.edges().len()).map(EdgeId::from_index) {
                    let edge = EdgeRef {
                        automaton: AutomatonId::from_index(ai),
                        edge: ei,
                    };
                    let expected = reference_fire_edge(&interp, &state, edge);
                    count(check_step(&state, &mut scratch, expected, |s, t| {
                        interp.fire_edge(s, edge, t)
                    }));
                }
            }
            let expected = reference_first_internal(&interp, &state);
            count(check_step(&state, &mut scratch, expected, |s, t| {
                interp.fire_first_internal(s, t)
            }));

            // Move on: one of the joint edges that applies, or a delay.
            let applicable: Vec<&JointEdge> = edges
                .iter()
                .filter(|je| matches!(reference_fire_joint(&interp, &state, je), Ok(Some(_))))
                .collect();
            if applicable.is_empty() || rng.gen_bool(0.3) {
                assert!(interp.delay(&mut state, delay).unwrap());
            } else {
                let je = applicable[rng.gen_range(0..applicable.len())];
                assert!(interp.fire_joint(&mut state, je, &mut scratch).unwrap());
            }
        }
    }
    // The sweep must exercise both outcomes.
    assert!(
        taken > 1000 && refused > 1000,
        "{taken} taken, {refused} refused"
    );
}

/// Checks one in-place step against its reference: `Ok(Some(successor))`
/// when it must be taken, `Ok(None)` when it must be refused, `Err` when
/// the reference fails to evaluate (the step may then fail or refuse, but
/// must leave the state as it was).  Returns whether the step was taken.
fn check_step(
    state: &ConcreteState,
    scratch: &mut ConcreteState,
    expected: Result<Option<ConcreteState>, ModelError>,
    step: impl FnOnce(&mut ConcreteState, &mut ConcreteState) -> Result<bool, ModelError>,
) -> bool {
    let mut next = state.clone();
    match (expected, step(&mut next, scratch)) {
        (Ok(Some(successor)), Ok(true)) => {
            assert_eq!(next, successor);
            true
        }
        (Ok(None) | Err(_), Ok(false) | Err(_)) => {
            assert_eq!(&next, state);
            false
        }
        (expected, taken) => panic!("step {taken:?}, reference {expected:?} from {state:?}"),
    }
}

/// Checks an in-place delay: accepted exactly when no location is urgent
/// (or the delay is zero) and the invariants hold at the end point, and
/// then every clock has advanced by `ticks`; refused, the state is as it
/// was.  Returns whether it was accepted.
fn check_delay(interp: &Interpreter<'_>, state: &ConcreteState, ticks: i64) -> bool {
    let system = interp.system();
    let mut expected = state.clone();
    for c in &mut expected.clocks {
        *c += ticks;
    }
    let allowed = (ticks == 0 || !system.is_urgent(&state.discrete))
        && invariants_hold(interp, &expected).unwrap();
    let mut next = state.clone();
    assert_eq!(interp.delay(&mut next, ticks).unwrap(), allowed);
    assert_eq!(next, if allowed { expected } else { state.clone() });
    allowed
}

fn constraints_hold(
    interp: &Interpreter<'_>,
    state: &ConcreteState,
    constraints: &[ClockConstraint],
) -> Result<bool, ModelError> {
    let system = interp.system();
    for c in constraints {
        if !c.holds_concrete(
            &state.clocks,
            interp.scale(),
            system.vars(),
            &state.discrete.vars,
        )? {
            return Ok(false);
        }
    }
    Ok(true)
}

fn invariants_hold(interp: &Interpreter<'_>, state: &ConcreteState) -> Result<bool, ModelError> {
    for (i, aut) in interp.system().automata().iter().enumerate() {
        let loc = aut.location(state.discrete.locations[i]);
        if !constraints_hold(interp, state, &loc.invariant)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The `(automaton, edge)` pairs a joint edge moves.
fn components(je: &JointEdge) -> Vec<(AutomatonId, EdgeId)> {
    match *je {
        JointEdge::Internal { automaton, edge } => vec![(automaton, edge)],
        JointEdge::Sync { output, input, .. } => vec![output, input],
    }
}

/// The reference successor of `state` under the edges of `je`, whose data
/// guards are assumed to hold: their clock guards hold at the current
/// valuation, the discrete effect is [`System::apply_joint_discrete`], the
/// clock resets are evaluated in the source store, and the target
/// invariants hold.
fn reference_fire_joint(
    interp: &Interpreter<'_>,
    state: &ConcreteState,
    je: &JointEdge,
) -> Result<Option<ConcreteState>, ModelError> {
    let system = interp.system();
    for &(a, e) in &components(je) {
        if !constraints_hold(interp, state, &system.automaton(a).edge(e).guard.clocks)? {
            return Ok(None);
        }
    }
    let Some(discrete) = system.apply_joint_discrete(&state.discrete, je)? else {
        return Ok(None);
    };
    let mut clocks = state.clocks.clone();
    for (a, e) in components(je) {
        for r in &system.automaton(a).edge(e).resets {
            let value = r.value.eval(system.vars(), &state.discrete.vars)?;
            if value < 0 {
                return Err(ModelError::NegativeClockReset(format!("{value}")));
            }
            clocks[r.clock.index()] = value * interp.scale();
        }
    }
    let next = ConcreteState { discrete, clocks };
    Ok(invariants_hold(interp, &next)?.then_some(next))
}

/// The reference of `Interpreter::fire_edge`: the edge leaves a current
/// location, its data and clock guards hold, and its step applies.
fn reference_fire_edge(
    interp: &Interpreter<'_>,
    state: &ConcreteState,
    edge: EdgeRef,
) -> Result<Option<ConcreteState>, ModelError> {
    let system = interp.system();
    let e = system.automaton(edge.automaton).edge(edge.edge);
    if e.source != state.discrete.locations[edge.automaton.index()]
        || !e.guard.data_holds(system.vars(), &state.discrete.vars)?
    {
        return Ok(None);
    }
    let je = JointEdge::Internal {
        automaton: edge.automaton,
        edge: edge.edge,
    };
    reference_fire_joint(interp, state, &je)
}

/// The open-view edges labelled `sync` that leave the current locations,
/// in (automaton, edge) declaration order.
fn labelled(system: &System, state: &ConcreteState, sync: Sync) -> Vec<EdgeRef> {
    let mut out = Vec::new();
    for (ai, aut) in system.automata().iter().enumerate() {
        for ei in aut.edges_from(state.discrete.locations[ai]) {
            if aut.edge(ei).sync == sync {
                out.push(EdgeRef {
                    automaton: AutomatonId::from_index(ai),
                    edge: ei,
                });
            }
        }
    }
    out
}

/// `true` if the edge's data and clock guards hold now.
fn enabled(
    interp: &Interpreter<'_>,
    state: &ConcreteState,
    edge: EdgeRef,
) -> Result<bool, ModelError> {
    let system = interp.system();
    let guard = &system.automaton(edge.automaton).edge(edge.edge).guard;
    Ok(guard.data_holds(system.vars(), &state.discrete.vars)?
        && constraints_hold(interp, state, &guard.clocks)?)
}

/// The reference of `after_input`/`after_output`: the step of the first
/// enabled edge labelled `sync`, refused when there is none.
fn reference_first_enabled(
    interp: &Interpreter<'_>,
    state: &ConcreteState,
    sync: Sync,
) -> Result<Option<ConcreteState>, ModelError> {
    for edge in labelled(interp.system(), state, sync) {
        if enabled(interp, state, edge)? {
            return reference_fire_edge(interp, state, edge);
        }
    }
    Ok(None)
}

/// The reference of `fire_first_internal`: the first enabled `tau` edge
/// whose step applies.
fn reference_first_internal(
    interp: &Interpreter<'_>,
    state: &ConcreteState,
) -> Result<Option<ConcreteState>, ModelError> {
    for edge in labelled(interp.system(), state, Sync::Tau) {
        if let Some(next) = reference_fire_edge(interp, state, edge)? {
            return Ok(Some(next));
        }
    }
    Ok(None)
}

/// The reference of `fire_sync`: the first synchronization on `channel`
/// of [`System::enabled_joint_edges`] whose step applies.
fn reference_fire_sync(
    interp: &Interpreter<'_>,
    state: &ConcreteState,
    channel: ChannelId,
) -> Result<Option<ConcreteState>, ModelError> {
    for je in interp.system().enabled_joint_edges(&state.discrete)? {
        if matches!(je, JointEdge::Sync { channel: c, .. } if c == channel) {
            if let Some(next) = reference_fire_joint(interp, state, &je)? {
                return Ok(Some(next));
            }
        }
    }
    Ok(None)
}
