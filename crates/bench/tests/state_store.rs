//! The packed discrete-state store against the states it packs.
//!
//! * Every state an exploration interns unpacks to exactly the state the
//!   semantics produces: the initial state, and every edge's target from
//!   its unpacked source.  This runs over every zoo objective and over
//!   generated systems.
//! * Packed words compare like `(locations, vars)`.
//! * A layout wider than one word (negative bounds, an array, the widest
//!   declarable range) packs and unpacks every value, extremes included.
//! * A value outside its declared range does not pack: it is an error, and
//!   nothing is stored.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use tiga_bench::model_zoo;
use tiga_gen::{generate_spec, GenConfig};
use tiga_model::{
    AutomatonBuilder, DiscreteState, LocationId, ModelError, StateStore, System, SystemBuilder,
};
use tiga_solver::{bounded_system, solve_jacobi, GameSolution, SolveOptions};
use tiga_tctl::TestPurpose;

/// Checks that every node of `solution`'s graph unpacks to the state the
/// semantics reaches it with, and that the node is found under that state.
/// Returns the unpacked states, by node.
fn check_graph(system: &System, solution: &GameSolution) -> Vec<DiscreteState> {
    let graph = &solution.graph;
    let liveness = graph.liveness();
    let states: Vec<DiscreteState> = (0..graph.len())
        .map(|id| {
            let mut d = DiscreteState::default();
            graph.discrete(id, &mut d);
            assert_eq!(graph.node_of(&d), Some(id), "{}", d.display(system));
            d
        })
        .collect();
    let mut initial = system.initial_discrete();
    liveness.forget_dead_vars(&mut initial);
    assert_eq!(states[graph.initial()], initial);
    // Every node but the initial one is the target of a discovered edge, so
    // this covers every state by induction over discovery.
    let mut reached = vec![false; graph.len()];
    reached[graph.initial()] = true;
    for (id, node) in graph.nodes().iter().enumerate() {
        for edge in &node.edges {
            let mut target = system
                .apply_joint_discrete(&states[id], &edge.joint)
                .unwrap()
                .expect("an explored edge keeps its variables in range");
            liveness.forget_dead_vars(&mut target);
            assert_eq!(
                states[edge.target],
                target,
                "{} --{}--> {}",
                states[id].display(system),
                edge.joint.label(system),
                target.display(system)
            );
            reached[edge.target] = true;
        }
    }
    assert!(
        reached.iter().all(|&r| r),
        "every node has an incoming edge"
    );
    states
}

/// The order of `states` by their packed words, and by `(locations, vars)`.
fn check_order(system: &System, states: &[DiscreteState]) {
    let mut store = StateStore::new(system);
    let ids: Vec<usize> = states.iter().map(|d| store.intern(d).unwrap().0).collect();
    let by_fields = |a: &usize, b: &usize| {
        let (a, b) = (&states[*a], &states[*b]);
        a.locations.cmp(&b.locations).then(a.vars.cmp(&b.vars))
    };
    let mut packed: Vec<usize> = (0..states.len()).collect();
    packed.sort_by(|a, b| store.words(ids[*a]).cmp(store.words(ids[*b])));
    let mut fields: Vec<usize> = (0..states.len()).collect();
    fields.sort_by(by_fields);
    for pair in packed.windows(2).zip(fields.windows(2)) {
        assert_eq!(
            by_fields(&pair.0[0], &pair.0[1]),
            by_fields(&pair.1[0], &pair.1[1])
        );
    }
    for (&a, &b) in packed.iter().zip(&fields) {
        assert_eq!(states[a], states[b]);
    }
}

fn solve_all(system: &System, purpose: &TestPurpose, max_states: usize) -> Option<GameSolution> {
    let mut options = SolveOptions::default();
    options.explore.max_states = max_states;
    solve_jacobi(system, purpose, &options).ok()
}

#[test]
fn every_zoo_state_unpacks_to_the_state_it_stands_for() {
    for instance in model_zoo() {
        let augmented = bounded_system(&instance.system, &instance.purpose).unwrap();
        let system = augmented.as_ref().unwrap_or(&instance.system);
        let solution = solve_all(&instance.system, &instance.purpose, 1_000_000)
            .expect("zoo objectives solve");
        let states = check_graph(system, &solution);
        check_order(system, &states);
    }
}

#[test]
fn every_generated_state_unpacks_to_the_state_it_stands_for() {
    // More locations, edges, variables, arrays and updates than the
    // default, fewer clock guards, and safety and time-bounded objectives.  Most generated objectives are decided in a
    // handful of states, so every system is also explored to the end,
    // under `A[] true`.
    let config = GenConfig {
        max_vars: 3,
        max_locations: 5,
        max_edges: 10,
        guard_prob: 0.3,
        array_prob: 0.5,
        update_prob: 0.6,
        safety_prob: 0.5,
        bound_prob: 0.2,
        ..GenConfig::default()
    };
    let mut explored = 0;
    for seed in tiga_gen::derive_case_seeds(0x5a7e, 400) {
        let Ok((system, purpose)) = generate_spec(seed, &config).build() else {
            continue;
        };
        let everything = TestPurpose::parse("control: A[] true", &system).unwrap();
        for purpose in [purpose, everything] {
            let Some(solution) = solve_all(&system, &purpose, 2_000) else {
                continue;
            };
            let augmented = bounded_system(&system, &purpose).unwrap();
            let system = augmented.as_ref().unwrap_or(&system);
            let states = check_graph(system, &solution);
            check_order(system, &states);
            explored += states.len();
        }
    }
    assert!(explored > 2_000, "only {explored} states explored");
}

/// Automata of 5, 2 and 1 locations; `neg: int[-7, -2]`,
/// `arr[3]: int[-1000, 1000]`, `wide: int[i64::MIN, i64::MAX]` and
/// `unit: int[5, 5]`: 3 + 1 + 0 + 3 + 3 * 11 + 64 + 0 = 104 bits, with
/// `wide` across the word boundary.
fn wide_system() -> System {
    let mut b = SystemBuilder::new("wide");
    b.int_var("neg", -7, -2, -3).unwrap();
    b.int_array("arr", 3, -1000, 1000, 0).unwrap();
    b.int_var("wide", i64::MIN, i64::MAX, 0).unwrap();
    b.int_var("unit", 5, 5, 5).unwrap();
    for (name, locations) in [("A", 5), ("B", 2), ("C", 1)] {
        let mut a = AutomatonBuilder::new(name);
        for l in 0..locations {
            a.location(&format!("L{l}")).unwrap();
        }
        b.add_automaton(a.build().unwrap()).unwrap();
    }
    b.build().unwrap()
}

/// A state of [`wide_system`], its values drawn uniformly or, half of the
/// time, at an end of their range.
fn random_wide_state(rng: &mut StdRng, system: &System) -> DiscreteState {
    let locations = system
        .automata()
        .iter()
        .map(|a| LocationId::from_index(rng.gen_range(0..a.locations().len())))
        .collect();
    let mut vars = Vec::new();
    for decl in system.vars() {
        for _ in 0..decl.size() {
            vars.push(match rng.gen_range(0..4u32) {
                0 => decl.lower(),
                1 => decl.upper(),
                _ => rng.gen_range(decl.lower()..=decl.upper()),
            });
        }
    }
    DiscreteState { locations, vars }
}

#[test]
fn a_layout_wider_than_a_word_packs_every_value() {
    let system = wide_system();
    let mut store = StateStore::new(&system);
    assert_eq!(store.layout().words(), 2);
    let mut rng = StdRng::seed_from_u64(7);
    let states: Vec<DiscreteState> = (0..2_000)
        .map(|_| random_wide_state(&mut rng, &system))
        .collect();
    let mut out = DiscreteState::default();
    for d in &states {
        let (idx, _) = store.intern(d).unwrap();
        store.decode(idx, &mut out);
        assert_eq!(&out, d);
        assert_eq!(store.intern(d).unwrap(), (idx, false));
    }
    let distinct: std::collections::HashSet<_> = states.iter().collect();
    assert_eq!(store.len(), distinct.len());
    check_order(&system, &states);
}

#[test]
fn packed_words_order_like_locations_then_variables() {
    // Two states that differ only in their first location, and two that
    // differ only in the sign of `wide`: the packed order follows the
    // fields, most significant first, with negative values below positive.
    let system = wide_system();
    let mut store = StateStore::new(&system);
    let base = system.initial_discrete();
    let mut later = base.clone();
    later.locations[0] = LocationId::from_index(1);
    let mut negative = base.clone();
    negative.vars[4] = -1;
    let (b, l, n) = (
        store.intern(&base).unwrap().0,
        store.intern(&later).unwrap().0,
        store.intern(&negative).unwrap().0,
    );
    assert_eq!(store.words(b).cmp(store.words(l)), Ordering::Less);
    assert_eq!(store.words(n).cmp(store.words(b)), Ordering::Less);
}

#[test]
fn a_value_outside_its_range_does_not_pack() {
    let system = wide_system();
    let mut store = StateStore::new(&system);
    let base = system.initial_discrete();
    store.intern(&base).unwrap();
    let mut out = vec![0; store.layout().words()];
    // Slot, value, reported name.
    for (slot, value, name) in [
        (0, -8, "neg"),
        (0, -1, "neg"),
        (2, 1001, "arr[1]"),
        (3, -1001, "arr[2]"),
        (5, 4, "unit"),
        (5, 6, "unit"),
    ] {
        let mut d = base.clone();
        d.vars[slot] = value;
        let expected = ModelError::VariableOutOfRange {
            name: name.to_string(),
            value,
        };
        assert_eq!(store.layout().pack(&d, &mut out), Err(expected.clone()));
        assert_eq!(store.intern(&d), Err(expected));
    }
    let mut d = base.clone();
    d.locations[1] = LocationId::from_index(2);
    assert!(matches!(store.intern(&d), Err(ModelError::Invalid(_))));
    let mut d = base.clone();
    d.vars.pop();
    assert!(matches!(store.intern(&d), Err(ModelError::Invalid(_))));
    assert_eq!(store.len(), 1, "nothing that fails to pack is stored");

    // An explored graph does not find such a state.
    let instance = model_zoo().pop().expect("the zoo ends with lep4");
    let solution = solve_all(&instance.system, &instance.purpose, 1_000_000).unwrap();
    let mut d = DiscreteState::default();
    solution.graph.discrete(solution.graph.initial(), &mut d);
    d.vars[0] = i64::MAX;
    assert_eq!(solution.graph.node_of(&d), None);
}
