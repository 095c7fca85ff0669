//! Differential test of mutant generation: a mutant rebuilds only the
//! automaton it changes and shares the rest of the plant, and it must equal
//! — declarations, automata and compiled network — the system that
//! [`rebuild_system`] rebuilds as a whole from the same edit.
//!
//! The reference below applies each mutation operator the way mutants were
//! once generated, through [`rebuild_system`], in the same order as
//! [`generate_mutants`].  Both run on every checked-in `.tg` model (the
//! products and the plant-only files) and on generated systems whose update
//! indices and clock resets read variables.

use std::path::Path;
use tiga_gen::{generate_spec, GenConfig};
use tiga_model::{ChannelId, ChannelKind, CmpOp, Edge, Expr, Location, ModelError, Sync, System};
use tiga_testing::{generate_mutants, rebuild_system, MutationConfig};

const SYSTEMS: u64 = 240;

fn shift(bound: &Expr, delta: i64) -> Expr {
    match bound.as_constant() {
        Some(c) => Expr::constant(c + delta),
        None => bound.clone() + Expr::constant(delta),
    }
}

/// The system `plant` becomes when `edit` is applied to edge `edge` of
/// automaton `aut` (`None` removes the edge), rebuilt as a whole.
fn edit_edge(
    plant: &System,
    aut: &str,
    edge: usize,
    edit: impl Fn(&Edge) -> Option<Edge>,
) -> Result<System, ModelError> {
    rebuild_system(
        plant,
        |_, _, l| l.clone(),
        |a, idx, e| {
            if a == aut && idx == edge {
                edit(e)
            } else {
                Some(e.clone())
            }
        },
    )
}

/// The mutants of `plant`, by name, each rebuilt as a whole system.
fn reference_mutants(
    plant: &System,
    config: &MutationConfig,
) -> Result<Vec<(String, System)>, ModelError> {
    let mut mutants = Vec::new();
    let outputs: Vec<_> = plant
        .channels()
        .iter()
        .enumerate()
        .filter(|(_, c)| c.kind() == ChannelKind::Output)
        .map(|(i, c)| (ChannelId::from_index(i), c.name().to_string()))
        .collect();
    for automaton in plant.automata() {
        let aut = automaton.name();
        for (idx, edge) in automaton.edges().iter().enumerate() {
            let is_output = matches!(edge.sync, Sync::Output(_));
            if config.guard_shift != 0 && is_output {
                for (ci, constraint) in edge.guard.clocks.iter().enumerate() {
                    for (delta, tag) in
                        [(-config.guard_shift, "early"), (config.guard_shift, "late")]
                    {
                        if !matches!(constraint.op, CmpOp::Ge | CmpOp::Gt | CmpOp::Eq) {
                            continue;
                        }
                        let system = edit_edge(plant, aut, idx, |e| {
                            let mut e = e.clone();
                            e.guard.clocks[ci].bound = shift(&e.guard.clocks[ci].bound, delta);
                            Some(e)
                        })?;
                        mutants.push((format!("{aut}-e{idx}-guard-{tag}"), system));
                    }
                }
            }
            if config.swap_outputs && outputs.len() > 1 {
                if let Sync::Output(ch) = edge.sync {
                    for (other, other_name) in outputs.iter().filter(|(o, _)| *o != ch) {
                        let system = edit_edge(plant, aut, idx, |e| {
                            let mut e = e.clone();
                            e.sync = Sync::Output(*other);
                            Some(e)
                        })?;
                        mutants.push((format!("{aut}-e{idx}-swap-{other_name}"), system));
                    }
                }
            }
            if config.remove_outputs && is_output {
                let system = edit_edge(plant, aut, idx, |_| None)?;
                mutants.push((format!("{aut}-e{idx}-missing-output"), system));
            }
            if config.drop_resets && !edge.resets.is_empty() {
                let system = edit_edge(plant, aut, idx, |e| {
                    let mut e = e.clone();
                    e.resets.clear();
                    Some(e)
                })?;
                mutants.push((format!("{aut}-e{idx}-no-reset"), system));
            }
        }
        if config.invariant_widening != 0 {
            for (loc_idx, loc) in automaton.locations().iter().enumerate() {
                if loc.invariant.is_empty() {
                    continue;
                }
                let widen = |l: &Location| {
                    let mut l = l.clone();
                    for c in &mut l.invariant {
                        if matches!(c.op, CmpOp::Le | CmpOp::Lt) {
                            c.bound = shift(&c.bound, config.invariant_widening);
                        }
                    }
                    l
                };
                let system = rebuild_system(
                    plant,
                    |a, id, l| {
                        if a == aut && id.index() == loc_idx {
                            widen(l)
                        } else {
                            l.clone()
                        }
                    },
                    |_, _, e| Some(e.clone()),
                )?;
                mutants.push((format!("{aut}-{}-late-deadline", loc.name), system));
            }
        }
    }
    Ok(mutants)
}

/// Checks `generate_mutants` against the reference on one plant; returns
/// the number of mutants compared.
fn check(plant: &System, what: &str) -> usize {
    let config = MutationConfig::default();
    let expected = reference_mutants(plant, &config);
    let actual = generate_mutants(plant, &config).map(|mutants| {
        mutants
            .into_iter()
            .map(|m| (m.name, m.system))
            .collect::<Vec<_>>()
    });
    match (&actual, &expected) {
        (Ok(actual), Ok(expected)) => {
            assert_eq!(actual.len(), expected.len(), "{what}: mutant count");
            for ((name, system), (want_name, want)) in actual.iter().zip(expected) {
                assert_eq!(name, want_name, "{what}: mutant order");
                assert!(system == want, "{what}: mutant {name} differs");
            }
            actual.len()
        }
        _ => {
            assert_eq!(actual.err(), expected.err(), "{what}: both must fail alike");
            0
        }
    }
}

#[test]
fn mutants_of_every_checked_in_model_equal_their_whole_system_rebuilds() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/tg");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples/tg exists")
        .map(|entry| entry.expect("entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "tg"))
        .collect();
    files.sort();
    let mut plants = 0;
    let mut compared = 0;
    for path in &files {
        let source = std::fs::read_to_string(path).expect("readable");
        let name = path.file_name().unwrap().to_string_lossy();
        let model = tiga_lang::parse_model(&source)
            .unwrap_or_else(|e| panic!("{}", e.render(&source, &name)));
        compared += check(&model.system, &name);
        plants += usize::from(name.ends_with(".plant.tg"));
    }
    assert!(plants >= 4, "only {plants} plant-only files");
    assert!(compared >= 600, "only {compared} mutants compared");
}

#[test]
fn mutants_of_generated_systems_equal_their_whole_system_rebuilds() {
    let config = GenConfig {
        index_var_prob: 0.3,
        reset_var_prob: 0.2,
        ..GenConfig::default()
    };
    let mut systems = 0;
    let mut compared = 0;
    for seed in 0..SYSTEMS {
        let Ok((system, _)) = generate_spec(seed, &config).build() else {
            continue;
        };
        compared += check(&system, &format!("seed {seed}"));
        systems += 1;
    }
    assert!(systems >= 200, "only {systems} systems built");
    assert!(compared >= 2500, "only {compared} mutants compared");
}
