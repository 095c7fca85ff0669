//! Fault injection: mutation operators over plant models.
//!
//! The paper proves soundness (a failing run implies non-conformance) and
//! partial completeness (a purposeful non-conformance is caught by some
//! strategy).  To *exercise* those theorems experimentally — and to measure
//! fault-detection capability, listed as future work item 3 of the paper —
//! we derive faulty implementations from the plant model by syntactic
//! mutation and run them through [`crate::TestHarness::execute`].
//!
//! A fault lives in one automaton, so a mutant rebuilds only that
//! automaton and swaps it into the plant with
//! [`System::with_automaton`]: the declarations and every other automaton
//! are shared with the plant, not re-declared, and only the network is
//! compiled anew.  [`rebuild_system`] rebuilds a whole system through the
//! builders; a mutant equals the system it rebuilds from the same edit.

use tiga_model::{
    Automaton, AutomatonBuilder, AutomatonId, ChannelKind, CmpOp, Edge, Expr, Location, LocationId,
    ModelError, Sync, System, SystemBuilder,
};

/// A mutated plant model together with a description of the injected fault.
#[derive(Clone, Debug)]
pub struct Mutant {
    /// Short unique name (used in reports).
    pub name: String,
    /// Human-readable description of the injected fault.
    pub description: String,
    /// The mutated model.
    pub system: System,
}

/// Which mutation operators to apply and how many mutants to keep.
#[derive(Clone, Debug)]
pub struct MutationConfig {
    /// Shift output-edge guard constants by ± this amount (time units).
    pub guard_shift: i64,
    /// Widen invariant constants by this amount (time units), letting the
    /// implementation answer later than the specification allows.
    pub invariant_widening: i64,
    /// Swap the channel of output edges with other output channels.
    pub swap_outputs: bool,
    /// Remove output edges entirely (missing outputs / missed deadlines).
    pub remove_outputs: bool,
    /// Drop clock resets from edges.
    pub drop_resets: bool,
    /// Upper bound on the number of generated mutants (0 = unlimited).
    pub max_mutants: usize,
}

impl Default for MutationConfig {
    fn default() -> Self {
        MutationConfig {
            guard_shift: 2,
            invariant_widening: 2,
            swap_outputs: true,
            remove_outputs: true,
            drop_resets: true,
            max_mutants: 0,
        }
    }
}

/// Rebuilds a system, transforming locations and edges.
///
/// Declarations (clocks, channels, variables) are copied verbatim and in
/// order, so all identifiers keep their meaning and edges can be cloned
/// as-is.
///
/// # Errors
///
/// Propagates [`ModelError`]s from the builders (should not occur when the
/// transformation keeps references valid).
pub fn rebuild_system<FL, FE>(
    system: &System,
    mut edit_location: FL,
    mut edit_edge: FE,
) -> Result<System, ModelError>
where
    FL: FnMut(&str, LocationId, &Location) -> Location,
    FE: FnMut(&str, usize, &Edge) -> Option<Edge>,
{
    let mut builder = SystemBuilder::new(system.name());
    for clock in system.clocks() {
        builder.clock(clock.name())?;
    }
    for channel in system.channels() {
        match channel.kind() {
            ChannelKind::Input => builder.input_channel(channel.name())?,
            ChannelKind::Output => builder.output_channel(channel.name())?,
            ChannelKind::Internal => builder.internal_channel(channel.name())?,
        };
    }
    for decl in system.vars().iter() {
        if decl.is_array() {
            builder.int_array(
                decl.name(),
                decl.size(),
                decl.lower(),
                decl.upper(),
                decl.initial(),
            )?;
        } else {
            builder.int_var(decl.name(), decl.lower(), decl.upper(), decl.initial())?;
        }
    }
    for automaton in system.automata() {
        builder.add_automaton(rebuild_automaton(
            automaton,
            &mut edit_location,
            &mut edit_edge,
        )?)?;
    }
    builder.build()
}

/// Rebuilds one automaton through the builders, transforming its locations
/// and edges as [`rebuild_system`] does.
fn rebuild_automaton<FL, FE>(
    automaton: &Automaton,
    edit_location: &mut FL,
    edit_edge: &mut FE,
) -> Result<Automaton, ModelError>
where
    FL: FnMut(&str, LocationId, &Location) -> Location,
    FE: FnMut(&str, usize, &Edge) -> Option<Edge>,
{
    let mut b = AutomatonBuilder::new(automaton.name());
    for (idx, loc) in automaton.locations().iter().enumerate() {
        let id = LocationId::from_index(idx);
        let edited = edit_location(automaton.name(), id, loc);
        let new_id = b.location(&edited.name)?;
        debug_assert_eq!(new_id, id);
        b.set_invariant(new_id, edited.invariant);
        if edited.urgent {
            b.set_urgent(new_id);
        }
    }
    b.set_initial(automaton.initial());
    for (idx, edge) in automaton.edges().iter().enumerate() {
        if let Some(new_edge) = edit_edge(automaton.name(), idx, edge) {
            b.add_edge(new_edge);
        }
    }
    b.build()
}

/// The mutant of `plant` whose automaton `aut` is rebuilt through the
/// edits; the other automata are shared with the plant.
fn mutate<FL, FE>(
    plant: &System,
    aut: AutomatonId,
    mut edit_location: FL,
    mut edit_edge: FE,
) -> Result<System, ModelError>
where
    FL: FnMut(&str, LocationId, &Location) -> Location,
    FE: FnMut(&str, usize, &Edge) -> Option<Edge>,
{
    let mutated = rebuild_automaton(plant.automaton(aut), &mut edit_location, &mut edit_edge)?;
    plant.with_automaton(aut, mutated)
}

fn identity_location(_aut: &str, _id: LocationId, loc: &Location) -> Location {
    loc.clone()
}

fn shift_expr(bound: &Expr, delta: i64) -> Expr {
    match bound.as_constant() {
        Some(c) => Expr::constant(c + delta),
        None => bound.clone() + Expr::constant(delta),
    }
}

/// Generates a pool of mutants from a plant model.
///
/// Every mutant differs from the plant by exactly one syntactic fault; the
/// name encodes the operator, automaton and edge/location so runs can be
/// traced back.
///
/// # Errors
///
/// Propagates [`ModelError`]s from model reconstruction.
pub fn generate_mutants(
    plant: &System,
    config: &MutationConfig,
) -> Result<Vec<Mutant>, ModelError> {
    let mut mutants = Vec::new();
    let output_channels: Vec<_> = plant
        .channels()
        .iter()
        .enumerate()
        .filter(|(_, c)| c.kind() == ChannelKind::Output)
        .map(|(i, c)| (tiga_model::ChannelId::from_index(i), c.name().to_string()))
        .collect();

    for (aut_idx, automaton) in plant.automata().iter().enumerate() {
        let aut = AutomatonId::from_index(aut_idx);
        for (edge_idx, edge) in automaton.edges().iter().enumerate() {
            let is_output_edge = matches!(edge.sync, Sync::Output(_));

            // 1. Shift guard constants of output edges (outputs too early /
            //    too late).
            if config.guard_shift != 0 && is_output_edge {
                for (ci, constraint) in edge.guard.clocks.iter().enumerate() {
                    for (delta, tag) in
                        [(-config.guard_shift, "early"), (config.guard_shift, "late")]
                    {
                        // Shifting a lower bound earlier / later changes when
                        // the output may be produced.
                        if !matches!(constraint.op, CmpOp::Ge | CmpOp::Gt | CmpOp::Eq) {
                            continue;
                        }
                        let mutated = mutate(plant, aut, identity_location, |_, idx, e| {
                            if idx == edge_idx {
                                let mut e = e.clone();
                                e.guard.clocks[ci].bound =
                                    shift_expr(&e.guard.clocks[ci].bound, delta);
                                Some(e)
                            } else {
                                Some(e.clone())
                            }
                        })?;
                        mutants.push(Mutant {
                            name: format!("{}-e{edge_idx}-guard-{tag}", automaton.name()),
                            description: format!(
                                "output guard constant of edge #{edge_idx} in {} shifted by {delta}",
                                automaton.name()
                            ),
                            system: mutated,
                        });
                    }
                }
            }

            // 2. Swap the output channel.
            if config.swap_outputs && output_channels.len() > 1 {
                if let Sync::Output(ch) = edge.sync {
                    for (other, other_name) in &output_channels {
                        if *other == ch {
                            continue;
                        }
                        let mutated = mutate(plant, aut, identity_location, |_, idx, e| {
                            if idx == edge_idx {
                                let mut e = e.clone();
                                e.sync = Sync::Output(*other);
                                Some(e)
                            } else {
                                Some(e.clone())
                            }
                        })?;
                        mutants.push(Mutant {
                            name: format!("{}-e{edge_idx}-swap-{other_name}", automaton.name()),
                            description: format!(
                                "output of edge #{edge_idx} in {} replaced by `{other_name}!`",
                                automaton.name()
                            ),
                            system: mutated,
                        });
                    }
                }
            }

            // 3. Remove the output edge entirely.
            if config.remove_outputs && is_output_edge {
                let mutated = mutate(plant, aut, identity_location, |_, idx, e| {
                    if idx == edge_idx {
                        None
                    } else {
                        Some(e.clone())
                    }
                })?;
                mutants.push(Mutant {
                    name: format!("{}-e{edge_idx}-missing-output", automaton.name()),
                    description: format!(
                        "output edge #{edge_idx} of {} removed (quiescence fault)",
                        automaton.name()
                    ),
                    system: mutated,
                });
            }

            // 4. Drop clock resets.
            if config.drop_resets && !edge.resets.is_empty() {
                let mutated = mutate(plant, aut, identity_location, |_, idx, e| {
                    if idx == edge_idx {
                        let mut e = e.clone();
                        e.resets.clear();
                        Some(e)
                    } else {
                        Some(e.clone())
                    }
                })?;
                mutants.push(Mutant {
                    name: format!("{}-e{edge_idx}-no-reset", automaton.name()),
                    description: format!(
                        "clock resets removed from edge #{edge_idx} of {}",
                        automaton.name()
                    ),
                    system: mutated,
                });
            }
        }

        // 5. Widen invariants (replies later than allowed).
        if config.invariant_widening != 0 {
            for (loc_idx, loc) in automaton.locations().iter().enumerate() {
                if loc.invariant.is_empty() {
                    continue;
                }
                let widening = config.invariant_widening;
                let mutated = mutate(
                    plant,
                    aut,
                    |_, id, l| {
                        if id.index() == loc_idx {
                            let mut l = l.clone();
                            for c in &mut l.invariant {
                                if matches!(c.op, CmpOp::Le | CmpOp::Lt) {
                                    c.bound = shift_expr(&c.bound, widening);
                                }
                            }
                            l
                        } else {
                            l.clone()
                        }
                    },
                    |_, _, e| Some(e.clone()),
                )?;
                mutants.push(Mutant {
                    name: format!("{}-{}-late-deadline", automaton.name(), loc.name),
                    description: format!(
                        "invariant of {}.{} widened by {widening} (outputs may come too late)",
                        automaton.name(),
                        loc.name
                    ),
                    system: mutated,
                });
            }
        }
    }

    if config.max_mutants > 0 && mutants.len() > config.max_mutants {
        mutants.truncate(config.max_mutants);
    }
    Ok(mutants)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiga_model::{AutomatonBuilder, ClockConstraint, EdgeBuilder, SystemBuilder};

    fn responder() -> System {
        let mut b = SystemBuilder::new("responder");
        let x = b.clock("x").unwrap();
        let req = b.input_channel("req").unwrap();
        let resp = b.output_channel("resp").unwrap();
        let err = b.output_channel("error").unwrap();
        let count = b.int_var("count", 0, 5, 0).unwrap();
        let mut a = AutomatonBuilder::new("Plant");
        let idle = a.location("Idle").unwrap();
        let busy = a.location("Busy").unwrap();
        a.set_invariant(busy, vec![ClockConstraint::new(x, CmpOp::Le, 3)]);
        a.add_edge(EdgeBuilder::new(idle, busy).input(req).reset(x));
        a.add_edge(
            EdgeBuilder::new(busy, idle)
                .output(resp)
                .guard_clock(ClockConstraint::new(x, CmpOp::Ge, 1))
                .set(count, Expr::var(count) + Expr::constant(1)),
        );
        a.add_edge(EdgeBuilder::new(busy, idle).output(err));
        b.add_automaton(a.build().unwrap()).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn rebuild_identity_preserves_system() {
        let sys = responder();
        let copy = rebuild_system(&sys, |_, _, l| l.clone(), |_, _, e| Some(e.clone())).unwrap();
        assert_eq!(sys, copy);
    }

    #[test]
    fn rebuild_can_drop_edges() {
        let sys = responder();
        let fewer = rebuild_system(
            &sys,
            |_, _, l| l.clone(),
            |_, idx, e| if idx == 2 { None } else { Some(e.clone()) },
        )
        .unwrap();
        assert_eq!(
            fewer.automata()[0].edges().len(),
            sys.automata()[0].edges().len() - 1
        );
    }

    #[test]
    fn generates_a_diverse_mutant_pool() {
        let sys = responder();
        let mutants = generate_mutants(&sys, &MutationConfig::default()).unwrap();
        assert!(mutants.len() >= 6, "got {} mutants", mutants.len());
        // All operators are represented.
        for tag in [
            "guard-early",
            "guard-late",
            "swap",
            "missing-output",
            "no-reset",
            "late-deadline",
        ] {
            assert!(
                mutants.iter().any(|m| m.name.contains(tag)),
                "no mutant for operator {tag}: {:?}",
                mutants.iter().map(|m| &m.name).collect::<Vec<_>>()
            );
        }
        // Each mutant differs from the original.
        for m in &mutants {
            assert_ne!(m.system, sys, "mutant {} is identical to the plant", m.name);
            assert!(!m.description.is_empty());
        }
        // Names are unique.
        let mut names: Vec<_> = mutants.iter().map(|m| m.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), mutants.len());
    }

    #[test]
    fn mutant_cap_is_respected() {
        let sys = responder();
        let config = MutationConfig {
            max_mutants: 3,
            ..MutationConfig::default()
        };
        let mutants = generate_mutants(&sys, &config).unwrap();
        assert_eq!(mutants.len(), 3);
    }

    #[test]
    fn disabling_operators_produces_no_such_mutants() {
        let sys = responder();
        let config = MutationConfig {
            guard_shift: 0,
            invariant_widening: 0,
            swap_outputs: false,
            remove_outputs: false,
            drop_resets: false,
            max_mutants: 0,
        };
        let mutants = generate_mutants(&sys, &config).unwrap();
        assert!(mutants.is_empty());
    }
}
