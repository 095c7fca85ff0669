//! Property test of the static liveness masks against the concrete
//! semantics, over generated systems.
//!
//! A concrete run starts from the initial state and takes random delays
//! and random closed-view joint steps through the tick interpreter.  A twin
//! run follows it in lockstep, but every clock and variable that the masks
//! call dead at the current locations is perturbed in the twin, again and
//! again along the run.  At every step both runs must:
//!
//! * enable the same joint edges, allow the same maximal delay and agree
//!   on the objective's predicate;
//! * after the same delay or joint step, differ only in clocks and
//!   variables that are dead at the new locations — a perturbed clock
//!   agrees again once it is reset, a perturbed variable once it is
//!   written, and no other difference may appear.
//!
//! The generated update indices and reset values read variables too, so
//! an index may leave its array and a reset may go negative: both runs
//! must then raise the same evaluation error, which ends the run.
//!
//! The masks are the ones both solver engines explore under
//! ([`tiga_solver::objective_liveness`]), so a clock or variable they call
//! dead too eagerly splits no verdict here without failing this test.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tiga_gen::{generate_spec, GenConfig};
use tiga_model::{ClockId, ConcreteState, Interpreter, JointEdge, Liveness, ModelError, System};
use tiga_solver::objective_liveness;
use tiga_tctl::TestPurpose;

const SCALE: i64 = 2;
const SYSTEMS: u64 = 400;
const RUNS: usize = 6;
const STEPS: usize = 14;

/// The clocks dead at the state's locations.
fn dead_clocks<'a>(
    system: &'a System,
    liveness: &'a Liveness,
    state: &'a ConcreteState,
) -> impl Iterator<Item = usize> + 'a {
    (0..system.clocks().len()).filter(move |&c| {
        !liveness.clock_is_live(&state.discrete.locations, ClockId::from_index(c))
    })
}

/// Overwrites the twin's dead clocks and variables with random values
/// (variables within their declared range).
fn perturb(rng: &mut StdRng, system: &System, liveness: &Liveness, twin: &mut ConcreteState) {
    let dead: Vec<usize> = dead_clocks(system, liveness, twin).collect();
    for c in dead {
        twin.clocks[c] = rng.gen_range(0..=12 * SCALE);
    }
    for offset in liveness.dead_var_offsets() {
        let (var, _) = system
            .vars()
            .resolve_offset(offset)
            .expect("a store offset");
        let decl = system.vars().decl(var);
        twin.discrete.vars[offset] = rng.gen_range(decl.lower()..=decl.upper());
    }
}

/// Checks that `state` and `twin` differ only where the masks allow.
fn differ_only_in_dead(
    system: &System,
    liveness: &Liveness,
    state: &ConcreteState,
    twin: &ConcreteState,
) -> Result<(), String> {
    if state.discrete.locations != twin.discrete.locations {
        return Err("the runs are in different locations".to_string());
    }
    for c in 0..state.clocks.len() {
        if state.clocks[c] != twin.clocks[c]
            && liveness.clock_is_live(&state.discrete.locations, ClockId::from_index(c))
        {
            return Err(format!(
                "live clock {} differs: {} vs {}",
                system.clocks()[c].name(),
                state.clocks[c],
                twin.clocks[c]
            ));
        }
    }
    let dead: Vec<usize> = liveness.dead_var_offsets().collect();
    for (offset, (a, b)) in state
        .discrete
        .vars
        .iter()
        .zip(&twin.discrete.vars)
        .enumerate()
    {
        if a != b && !dead.contains(&offset) {
            return Err(format!(
                "live variable at store offset {offset} differs: {a} vs {b}"
            ));
        }
    }
    Ok(())
}

fn edges(steps: &[(JointEdge, ConcreteState)]) -> Vec<&JointEdge> {
    steps.iter().map(|(je, _)| je).collect()
}

/// Every joint edge of [`System::enabled_joint_edges`] that
/// [`Interpreter::fire_joint`] takes from `state`, with the state it leads
/// to, in that order.
fn joint_steps(
    interp: &Interpreter<'_>,
    state: &ConcreteState,
) -> Result<Vec<(JointEdge, ConcreteState)>, ModelError> {
    let system = interp.system();
    let mut scratch = ConcreteState::default();
    let mut out = Vec::new();
    for je in system.enabled_joint_edges(&state.discrete)? {
        let mut next = state.clone();
        if interp.fire_joint(&mut next, &je, &mut scratch)? {
            out.push((je, next));
        }
    }
    Ok(out)
}

/// The common value of the two runs' results, `None` when both raise the
/// same evaluation error (which ends the run), or the difference.
fn agree<T: PartialEq + std::fmt::Debug>(
    what: &str,
    run: Result<T, ModelError>,
    twin: Result<T, ModelError>,
) -> Result<Option<(T, T)>, String> {
    match (run, twin) {
        (Ok(a), Ok(b)) => Ok(Some((a, b))),
        (Err(a), Err(b)) if a == b => Ok(None),
        (a, b) => Err(format!("{what} differs: {a:?} vs {b:?}")),
    }
}

/// Runs one lockstep pair of runs; returns how many dead positions the twin
/// carried, summed over the steps.
fn lockstep(
    rng: &mut StdRng,
    system: &System,
    purpose: &TestPurpose,
    liveness: &Liveness,
) -> Result<usize, String> {
    let interp = Interpreter::new(system, SCALE).map_err(|e| e.to_string())?;
    let Ok(mut state) = interp.initial_state() else {
        return Ok(0);
    };
    let mut twin = state.clone();
    let mut perturbed = 0;
    for step in 0..STEPS {
        if step == 0 || rng.gen_bool(0.4) {
            perturb(rng, system, liveness, &mut twin);
        }
        differ_only_in_dead(system, liveness, &state, &twin)?;
        perturbed += dead_clocks(system, liveness, &state).count();
        perturbed += liveness.dead_var_offsets().count();

        let goal = purpose.predicate.holds(system, &state.discrete);
        let twin_goal = purpose.predicate.holds(system, &twin.discrete);
        if goal.as_ref().ok() != twin_goal.as_ref().ok() {
            return Err(format!(
                "objective differs at step {step}: {goal:?} vs {twin_goal:?}"
            ));
        }
        let Some((max, twin_max)) = agree(
            &format!("maximal delay at step {step}"),
            interp.max_delay(&state),
            interp.max_delay(&twin),
        )?
        else {
            break;
        };
        if max != twin_max {
            return Err(format!(
                "maximal delay differs at step {step}: {max:?} vs {twin_max:?}"
            ));
        }
        let Some((steps, twin_steps)) = agree(
            &format!("joint steps at step {step}"),
            joint_steps(&interp, &state),
            joint_steps(&interp, &twin),
        )?
        else {
            break;
        };
        if edges(&steps) != edges(&twin_steps) {
            return Err(format!(
                "enabled joint edges differ at step {step}:\n  {:?}\n  {:?}",
                edges(&steps),
                edges(&twin_steps)
            ));
        }

        if steps.is_empty() || rng.gen_bool(0.4) {
            let delay = rng.gen_range(0..=3 * SCALE).min(max.unwrap_or(i64::MAX));
            let Some((allowed, twin_allowed)) = agree(
                &format!("a delay of {delay} ticks"),
                interp.delay(&mut state, delay),
                interp.delay(&mut twin, delay),
            )?
            else {
                break;
            };
            match (allowed, twin_allowed) {
                (true, true) => {}
                (false, false) => break,
                _ => {
                    return Err(format!(
                        "a delay of {delay} ticks is allowed in one run only"
                    ))
                }
            }
        } else {
            let pick = rng.gen_range(0..steps.len());
            state = steps[pick].1.clone();
            twin = twin_steps[pick].1.clone();
        }
    }
    differ_only_in_dead(system, liveness, &state, &twin)?;
    Ok(perturbed)
}

#[test]
fn perturbing_dead_clocks_and_variables_changes_no_enabled_joint_edge() {
    let config = GenConfig {
        index_var_prob: 0.3,
        reset_var_prob: 0.2,
        ..GenConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(0x11fe);
    let mut checked = 0;
    let mut perturbed = 0;
    for seed in 0..SYSTEMS {
        let Ok((system, purpose)) = generate_spec(seed, &config).build() else {
            continue;
        };
        let liveness = objective_liveness(&system, &purpose.predicate);
        for _ in 0..RUNS {
            match lockstep(&mut rng, &system, &purpose, &liveness) {
                Ok(n) => perturbed += n,
                Err(e) => panic!(
                    "seed {seed}: {e}\n{}",
                    generate_spec(seed, &config).control_line()
                ),
            }
        }
        checked += 1;
    }
    assert!(
        checked >= SYSTEMS as usize / 2,
        "only {checked} systems built"
    );
    // The sweep must actually perturb something.
    assert!(perturbed > 100, "only {perturbed} dead positions perturbed");
}
