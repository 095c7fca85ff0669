//! Differential test of the compiled network against the interpreted
//! semantics it replaced.
//!
//! The reference below is the linear scan over every edge of every
//! automaton, with every guard, bound, reset and update evaluated by
//! [`Expr::eval`](tiga_model::Expr::eval) and applied by
//! [`ClockConstraint::apply_to`].  Over generated systems whose update
//! indices and reset values read variables, and over hand-built systems
//! whose guards raise out-of-range indices, overflows and divisions by
//! zero, a short exploration visits states and zones; in every one the
//! compiled network must give
//!
//! * the same joint edges in the same order, or the same first error;
//! * the same successor candidates (target, zone and controllability), or
//!   the same first error;
//! * the same predecessor zone through every candidate's joint edge.

use std::collections::VecDeque;
use tiga_dbm::{Bound, Dbm};
use tiga_gen::{generate_spec, GenConfig};
use tiga_model::{
    AutomatonBuilder, AutomatonId, ClockConstraint, ClockReset, CmpOp, DiscreteState, Edge,
    EdgeBuilder, EdgeId, EvalError, Explorer, Expr, JointEdge, Liveness, ModelError, Sync, System,
    SystemBuilder,
};

const SYSTEMS: u64 = 600;
/// Expansions per system.
const EXPANSIONS: usize = 24;

/// The reference enumeration: `tau` edges by automaton and declaration
/// order, then every (output, input) pair, emitter-major, each guard
/// evaluated as the scan meets it.
fn reference_joint_edges(sys: &System, d: &DiscreteState) -> Result<Vec<JointEdge>, ModelError> {
    let leaving = |a: usize| {
        sys.automata()[a]
            .edges()
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.source == d.locations[a])
            .map(|(i, e)| (EdgeId::from_index(i), e))
    };
    let holds = |e: &Edge| e.guard.data_holds(sys.vars(), &d.vars);
    let n = sys.automata().len();
    let mut out = Vec::new();
    for a in 0..n {
        for (id, e) in leaving(a) {
            if e.sync == Sync::Tau && holds(e)? {
                out.push(JointEdge::Internal {
                    automaton: AutomatonId::from_index(a),
                    edge: id,
                });
            }
        }
    }
    for a in 0..n {
        for (id, e) in leaving(a) {
            let Sync::Output(channel) = e.sync else {
                continue;
            };
            if !holds(e)? {
                continue;
            }
            for b in (0..n).filter(|&b| b != a) {
                for (rid, r) in leaving(b) {
                    if r.sync == Sync::Input(channel) && holds(r)? {
                        out.push(JointEdge::Sync {
                            channel,
                            output: (AutomatonId::from_index(a), id),
                            input: (AutomatonId::from_index(b), rid),
                        });
                    }
                }
            }
        }
    }
    Ok(out)
}

/// The edges a joint edge moves, emitter first.
fn components<'s>(sys: &'s System, je: &JointEdge) -> Vec<(usize, &'s Edge)> {
    let edge = |(a, e): (AutomatonId, EdgeId)| (a.index(), sys.automaton(a).edge(e));
    match *je {
        JointEdge::Internal { automaton, edge: e } => vec![edge((automaton, e))],
        JointEdge::Sync { output, input, .. } => vec![edge(output), edge(input)],
    }
}

/// One edge's location change and updates; `Ok(false)` when an update
/// leaves its range.
fn reference_apply_edge(
    sys: &System,
    d: &mut DiscreteState,
    a: usize,
    e: &Edge,
) -> Result<bool, ModelError> {
    d.locations[a] = e.target;
    for u in &e.updates {
        let value = u.value.eval(sys.vars(), &d.vars)?;
        if sys.vars().check_range(u.target, value).is_err() {
            return Ok(false);
        }
        let decl = sys.vars().decl(u.target);
        let offset = match &u.index {
            None => decl.offset(),
            Some(idx) => {
                let i = idx.eval(sys.vars(), &d.vars)?;
                if i < 0 || i as usize >= decl.size() {
                    return Err(ModelError::Eval(EvalError::IndexOutOfBounds {
                        name: decl.name().to_string(),
                        index: i,
                        size: decl.size(),
                    }));
                }
                decl.offset() + i as usize
            }
        };
        d.vars[offset] = value;
    }
    Ok(true)
}

/// A reset's value in the DBM range, with both semantics' errors.
fn reference_reset_value(sys: &System, r: &ClockReset, vars: &[i64]) -> Result<i32, ModelError> {
    let v = r.value.eval(sys.vars(), vars)?;
    if v < 0 {
        return Err(ModelError::NegativeClockReset(format!(
            "clock {} := {v}",
            sys.clock(r.clock).name()
        )));
    }
    if v > i64::from(tiga_dbm::MAX_CONSTANT) {
        return Err(ModelError::Eval(EvalError::Overflow));
    }
    Ok(v as i32)
}

fn reference_invariant(sys: &System, d: &DiscreteState) -> Result<Dbm, ModelError> {
    let mut zone = Dbm::universe(sys.dim());
    for (a, aut) in sys.automata().iter().enumerate() {
        for c in &aut.location(d.locations[a]).invariant {
            if !c.apply_to(&mut zone, sys.vars(), &d.vars)? {
                break;
            }
        }
    }
    Ok(zone)
}

/// Conjoins the clock guards of a joint edge; `false` once empty.
fn reference_guards(
    sys: &System,
    zone: &mut Dbm,
    d: &DiscreteState,
    je: &JointEdge,
) -> Result<bool, ModelError> {
    for (_, e) in components(sys, je) {
        for c in &e.guard.clocks {
            if !c.apply_to(zone, sys.vars(), &d.vars)? {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

type Candidate = (JointEdge, DiscreteState, Dbm, bool);

/// The reference forward step: discrete effect, liveness, guards, resets,
/// then the target invariant as a zone, delay and extrapolation.
fn reference_candidates(
    sys: &System,
    liveness: &Liveness,
    max_bounds: &[i32],
    d: &DiscreteState,
    zone: &Dbm,
) -> Result<Vec<Candidate>, ModelError> {
    let mut out = Vec::new();
    for je in reference_joint_edges(sys, d)? {
        let mut target = d.clone();
        let mut applies = true;
        for (a, e) in components(sys, &je) {
            if !reference_apply_edge(sys, &mut target, a, e)? {
                applies = false;
                break;
            }
        }
        if !applies {
            continue;
        }
        liveness.forget_dead_vars(&mut target);
        let mut z = zone.clone();
        if !reference_guards(sys, &mut z, d, &je)? || z.is_empty() {
            continue;
        }
        for (_, e) in components(sys, &je) {
            for r in &e.resets {
                let v = reference_reset_value(sys, r, &d.vars)?;
                z.reset(r.clock.dbm_index(), v);
            }
        }
        let invariant = reference_invariant(sys, &target)?;
        if !z.intersect(&invariant) {
            continue;
        }
        if !sys.is_urgent(&target) {
            z.up();
            z.intersect(&invariant);
        }
        z.extrapolate_max_bounds(max_bounds);
        if z.is_empty() {
            continue;
        }
        liveness.free_dead_clocks(&target.locations, &mut z);
        let controllable = sys.is_controllable(&je);
        out.push((je, target, z, controllable));
    }
    Ok(out)
}

/// The reference predecessor: reset clocks pinned to their values and
/// freed, then the guards and the source invariant as a zone.
fn reference_pred(
    sys: &System,
    source: &DiscreteState,
    je: &JointEdge,
    target_zone: &Dbm,
) -> Result<Dbm, ModelError> {
    let mut z = target_zone.clone();
    for (_, e) in components(sys, je) {
        for r in &e.resets {
            let v = reference_reset_value(sys, r, &source.vars)?;
            let idx = r.clock.dbm_index();
            if !(z.constrain(idx, 0, Bound::le(v)) && z.constrain(0, idx, Bound::le(-v))) {
                return Ok(z);
            }
        }
    }
    for (_, e) in components(sys, je) {
        for r in &e.resets {
            z.free(r.clock.dbm_index());
        }
    }
    if !reference_guards(sys, &mut z, source, je)? {
        return Ok(z);
    }
    z.intersect(&reference_invariant(sys, source)?);
    Ok(z)
}

/// Two zones denote the same set: both empty, or equal canonical forms.
fn same_zone(a: &Dbm, b: &Dbm) -> bool {
    (a.is_empty() && b.is_empty()) || a == b
}

#[derive(Default, Debug)]
struct Tally {
    states: usize,
    candidates: usize,
    preds: usize,
    errors: usize,
}

/// Explores `sys` for a few expansions, checking every visited state.
fn check_system(sys: &System, tally: &mut Tally) -> Result<(), String> {
    let liveness = Liveness::new(sys, &[], &[]);
    let max_bounds = sys.max_bounds();
    let mut explorer = Explorer::new(sys, liveness.clone());
    let (root, zone) = match explorer.initial() {
        Ok(root) => root,
        Err(_) => return Ok(()),
    };
    let mut queue = VecDeque::from([(root, zone)]);
    let mut seen: Vec<(usize, Dbm)> = Vec::new();
    let mut expansions = 0;
    while let Some((idx, zone)) = queue.pop_front() {
        if expansions == EXPANSIONS {
            break;
        }
        if seen.iter().any(|(i, z)| *i == idx && zone.is_subset_of(z)) {
            continue;
        }
        seen.push((idx, zone.clone()));
        expansions += 1;
        tally.states += 1;
        let mut d = DiscreteState::default();
        explorer.store().decode(idx, &mut d);

        let joint = sys.enabled_joint_edges(&d);
        let reference = reference_joint_edges(sys, &d);
        if joint != reference {
            return Err(format!(
                "joint edges differ in {}:\n  {joint:?}\n  {reference:?}",
                d.display(sys)
            ));
        }
        let compiled = explorer.successor_candidates(idx, &zone).map(|steps| {
            steps
                .into_iter()
                .map(|step| {
                    let mut target = DiscreteState::default();
                    explorer.store().decode(step.target, &mut target);
                    (step.joint, target, step.zone, step.controllable)
                })
                .collect::<Vec<_>>()
        });
        let reference = reference_candidates(sys, &liveness, &max_bounds, &d, &zone);
        let steps = match (compiled, reference) {
            (Ok(compiled), Ok(reference)) if compiled == reference => reference,
            (Err(compiled), Err(reference)) if compiled == reference => {
                tally.errors += 1;
                continue;
            }
            (compiled, reference) => {
                return Err(format!(
                    "successors differ in {}:\n  {compiled:?}\n  {reference:?}",
                    d.display(sys)
                ))
            }
        };
        for (je, target, target_zone, _) in steps {
            tally.candidates += 1;
            // The predecessor of the successor zone, and of the target's
            // whole invariant.
            for z in [target_zone.clone(), Dbm::universe(sys.dim())] {
                let compiled = sys.joint_pred_zone(&d, &je, &z);
                let reference = reference_pred(sys, &d, &je, &z);
                let agree = match (&compiled, &reference) {
                    (Ok(a), Ok(b)) => same_zone(a, b),
                    (Err(a), Err(b)) => a == b,
                    _ => false,
                };
                if !agree {
                    return Err(format!(
                        "predecessors through {je:?} differ in {}:\n  {compiled:?}\n  {reference:?}",
                        d.display(sys)
                    ));
                }
                tally.preds += 1;
            }
            let t = explorer.intern(&target).map_err(|e| e.to_string())?;
            queue.push_back((t, target_zone));
        }
    }
    Ok(())
}

#[test]
fn the_compiled_network_agrees_with_the_interpreted_semantics_on_generated_systems() {
    // Denser than the default: more edges per location, more updates and
    // arrays, so more joint edges, targets and run-time errors.
    let config = GenConfig {
        max_locations: 3,
        max_edges: 8,
        update_prob: 0.6,
        array_prob: 0.5,
        index_var_prob: 0.5,
        reset_var_prob: 0.3,
        ..GenConfig::default()
    };
    let mut tally = Tally::default();
    let mut built = 0;
    for seed in 0..SYSTEMS {
        let Ok((sys, _)) = generate_spec(seed, &config).build() else {
            continue;
        };
        built += 1;
        if let Err(e) = check_system(&sys, &mut tally) {
            panic!("seed {seed}: {e}");
        }
    }
    assert!(built >= 500, "only {built} systems built");
    assert!(tally.candidates > 3000, "{tally:?}");
    assert!(tally.preds > 6000, "{tally:?}");
    // Variable indices leave their arrays and variable resets go negative.
    assert!(tally.errors > 40, "{tally:?}");
}

/// A sender and a receiver over `n` (initially 2), `a[2]` and clock `x`.
/// Each `go` decrements `n`.  The receiver takes `go` unguarded, or under
/// `when` and the clock bound `x >= bound`; the sender returns by a `tau`
/// edge under `when`.
fn erroring_system(when: Expr, bound: Option<Expr>) -> System {
    let mut b = SystemBuilder::new("errors");
    let x = b.clock("x").unwrap();
    let go = b.output_channel("go").unwrap();
    let n = b.int_var("n", 0, 3, 2).unwrap();
    b.int_array("a", 2, 0, 1, 0).unwrap();
    let mut sender = AutomatonBuilder::new("Sender");
    let s0 = sender.location("S0").unwrap();
    let s1 = sender.location("S1").unwrap();
    sender.set_invariant(s1, vec![ClockConstraint::new(x, CmpOp::Le, 4)]);
    sender.add_edge(
        EdgeBuilder::new(s0, s1)
            .output(go)
            .reset(x)
            .set(n, Expr::var(n) - Expr::constant(1)),
    );
    sender.add_edge(EdgeBuilder::new(s1, s0).when(when.clone()));
    b.add_automaton(sender.build().unwrap()).unwrap();
    let mut receiver = AutomatonBuilder::new("Receiver");
    let r0 = receiver.location("R0").unwrap();
    receiver.add_edge(EdgeBuilder::new(r0, r0).input(go));
    let mut edge = EdgeBuilder::new(r0, r0).input(go).when(when);
    if let Some(bound) = bound {
        edge = edge.guard_clock(ClockConstraint::new(x, CmpOp::Ge, bound));
    }
    receiver.add_edge(edge);
    b.add_automaton(receiver.build().unwrap()).unwrap();
    b.build().unwrap()
}

#[test]
fn the_compiled_network_raises_the_interpreted_errors_of_hand_built_guards() {
    let n = || Expr::var(tiga_model::VarId::from_index(0));
    let a = tiga_model::VarId::from_index(1);
    let big = Expr::constant(i64::MAX / 2 + 1);
    let cases = [
        // An index that leaves the array once `n` reaches 2.
        (Expr::index(a, n()).eq(Expr::constant(0)), None),
        // A constant index out of range, behind a passing conjunct.
        (
            n().ge(Expr::constant(0))
                .and(Expr::index(a, Expr::constant(2)).eq(Expr::constant(0))),
            None,
        ),
        // A false conjunct that hides an index error until `n` drops
        // below 2.
        (
            n().lt(Expr::constant(2))
                .and(Expr::index(a, n() + Expr::constant(1)).eq(Expr::constant(0))),
            None,
        ),
        // An overflow, and a division by zero once `n` reaches 0.
        ((n() * big).gt(Expr::constant(0)), None),
        (
            Expr::Div(Box::new(Expr::constant(4)), Box::new(n())).gt(Expr::constant(0)),
            None,
        ),
        // A clock bound beyond the DBM encoding.
        (Expr::tt(), Some(n() * Expr::constant(1 << 30))),
        (Expr::tt(), Some(Expr::constant(-(1 << 40)))),
    ];
    for (i, (when, bound)) in cases.into_iter().enumerate() {
        let sys = erroring_system(when, bound);
        let mut tally = Tally::default();
        if let Err(e) = check_system(&sys, &mut tally) {
            panic!("case {i}: {e}");
        }
        assert!(tally.errors > 0, "case {i} raised no error: {tally:?}");
    }
}
