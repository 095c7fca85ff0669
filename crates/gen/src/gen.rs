//! The seeded random system generator.
//!
//! [`generate_spec`] draws a [`SysSpec`] from a [`GenConfig`]-shaped
//! distribution, deterministically for a given seed.  The generator aims for
//! *semantic validity by construction* so that every generated system is a
//! well-defined timed game the engines must agree on:
//!
//! * invariants are upper bounds with non-negative constants (the initial
//!   valuation always satisfies them);
//! * data expressions exclude division/modulo and out-of-range array
//!   indices (no runtime evaluation errors);
//! * resets use non-negative constants;
//! * `!=` never appears in clock constraints (non-convex).
//!
//! Two knobs, off by default, give up the last guarantees on purpose:
//! [`GenConfig::index_var_prob`] lets an array update's index read a
//! variable and [`GenConfig::reset_var_prob`] lets a reset assign one, so
//! an index can leave its array and a reset can go negative at run time.
//! They exercise the paths that evaluate those expressions in every state.
//!
//! Everything else — urgency, diagonal guards, equality guards, unmatched
//! synchronizations, dead channels, contradictory guards, unreachable
//! objectives — is fair game: those corners are exactly where the engines
//! and the printer can disagree.

use crate::spec::{
    AutSpec, ChanKind, ConstraintSpec, EdgeSpec, ExprSpec, LocSpec, ObjectiveSpec, SysSpec,
    UpdateSpec, VarSpec,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tiga_model::CmpOp;

/// Distribution knobs of the random system generator.
///
/// All `*_prob` fields are probabilities in `[0, 1]`; the `max_*` fields are
/// inclusive upper bounds on uniformly drawn sizes.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Clocks per system (at least 1).
    pub max_clocks: usize,
    /// Discrete variables per system (0 allowed).
    pub max_vars: usize,
    /// Channels per system (at least 1).
    pub max_channels: usize,
    /// Automata per system (at least 2, so synchronization is possible).
    pub max_automata: usize,
    /// Locations per automaton (at least 1).
    pub max_locations: usize,
    /// Edges per automaton.
    pub max_edges: usize,
    /// Largest constant in guards, invariants, resets and variable ranges.
    pub max_const: i64,
    /// Probability that a location is urgent.
    pub urgent_prob: f64,
    /// Probability that a location carries an invariant.
    pub invariant_prob: f64,
    /// Probability that an edge carries each of its up-to-two clock guards.
    pub guard_prob: f64,
    /// Probability that a generated clock constraint is diagonal.
    pub diagonal_prob: f64,
    /// Probability that an edge carries a data guard.
    pub when_prob: f64,
    /// Per-clock probability that an edge resets it.
    pub reset_prob: f64,
    /// Probability that a reset is to a non-zero constant.
    pub value_reset_prob: f64,
    /// Per-edge probability of a variable update.
    pub update_prob: f64,
    /// Probability that an edge synchronizes on a channel (vs. `tau`).
    pub sync_prob: f64,
    /// Probability that a `tau` edge carries a controllability override.
    pub controllable_override_prob: f64,
    /// Probability that a variable declaration is an array.
    pub array_prob: f64,
    /// Probability that the objective is `A[]` (safety) instead of `A<>`.
    pub safety_prob: f64,
    /// Probability that the objective has a second location disjunct.
    pub or_target_prob: f64,
    /// Probability that the objective conjoins a variable comparison.
    pub var_clause_prob: f64,
    /// Probability that the objective carries a time bound (`A<><=T` /
    /// `A[]<=T`).  The default is `0.0`, and a zero probability draws
    /// nothing from the RNG, so the pinned fixed-seed streams (the bench
    /// baseline's fuzz matrix, the campaign gates) stay bit-identical.
    pub bound_prob: f64,
    /// Probability that an array update's index reads a variable instead
    /// of being an in-range literal.  Like `bound_prob`, a zero probability
    /// draws nothing, and it is the default.
    pub index_var_prob: f64,
    /// Probability that a clock reset assigns a variable's value instead
    /// of a constant.  A zero probability draws nothing, and it is the
    /// default.
    pub reset_var_prob: f64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_clocks: 2,
            max_vars: 2,
            max_channels: 3,
            max_automata: 3,
            max_locations: 4,
            max_edges: 5,
            max_const: 8,
            urgent_prob: 0.1,
            invariant_prob: 0.4,
            guard_prob: 0.5,
            diagonal_prob: 0.15,
            when_prob: 0.25,
            reset_prob: 0.35,
            value_reset_prob: 0.15,
            update_prob: 0.35,
            sync_prob: 0.75,
            controllable_override_prob: 0.4,
            array_prob: 0.2,
            safety_prob: 0.1,
            or_target_prob: 0.25,
            var_clause_prob: 0.25,
            bound_prob: 0.0,
            index_var_prob: 0.0,
            reset_var_prob: 0.0,
        }
    }
}

/// Generates a random system spec, deterministically for `seed`.
#[must_use]
pub fn generate_spec(seed: u64, config: &GenConfig) -> SysSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let clocks = rng.gen_range(1..=config.max_clocks.max(1));
    let channels: Vec<ChanKind> = (0..rng.gen_range(1..=config.max_channels.max(1)))
        .map(|_| match rng.gen_range(0..6u32) {
            0 | 1 => ChanKind::Input,
            2 | 3 => ChanKind::Output,
            _ => {
                if rng.gen_bool(0.5) {
                    ChanKind::Internal
                } else if rng.gen_bool(0.5) {
                    ChanKind::Input
                } else {
                    ChanKind::Output
                }
            }
        })
        .collect();
    let vars: Vec<VarSpec> = (0..rng.gen_range(0..=config.max_vars))
        .map(|_| {
            let lower = if rng.gen_bool(0.3) {
                -rng.gen_range(0..=config.max_const.min(3))
            } else {
                0
            };
            let upper = lower + rng.gen_range(1..=config.max_const.min(4));
            VarSpec {
                size: if rng.gen_bool(config.array_prob) {
                    Some(rng.gen_range(2..=3))
                } else {
                    None
                },
                lower,
                upper,
                initial: rng.gen_range(lower..=upper),
            }
        })
        .collect();
    let n_automata = rng.gen_range(2..=config.max_automata.max(2));
    let automata: Vec<AutSpec> = (0..n_automata)
        .map(|_| gen_automaton(&mut rng, config, clocks, &channels, &vars))
        .collect();
    let objective = gen_objective(&mut rng, config, &automata, &vars);
    SysSpec {
        name: format!("fuzz-{seed:#x}"),
        clocks,
        channels,
        vars,
        automata,
        objective,
    }
}

fn gen_automaton(
    rng: &mut StdRng,
    config: &GenConfig,
    clocks: usize,
    channels: &[ChanKind],
    vars: &[VarSpec],
) -> AutSpec {
    let n_locs = rng.gen_range(1..=config.max_locations.max(1));
    let locations: Vec<LocSpec> = (0..n_locs)
        .map(|_| {
            let urgent = rng.gen_bool(config.urgent_prob);
            let invariant = if !urgent && clocks > 0 && rng.gen_bool(config.invariant_prob) {
                // Upper bounds only, with non-negative constants, so the
                // all-zero initial valuation is always admissible.
                vec![ConstraintSpec {
                    left: rng.gen_range(0..clocks),
                    minus: None,
                    op: if rng.gen_bool(0.8) {
                        CmpOp::Le
                    } else {
                        CmpOp::Lt
                    },
                    bound: rng.gen_range(1..=config.max_const),
                }]
            } else {
                Vec::new()
            };
            LocSpec { urgent, invariant }
        })
        .collect();
    let n_edges = rng.gen_range(1..=config.max_edges.max(1));
    let edges: Vec<EdgeSpec> = (0..n_edges)
        .map(|_| gen_edge(rng, config, clocks, channels, vars, n_locs))
        .collect();
    AutSpec {
        locations,
        initial: rng.gen_range(0..n_locs),
        edges,
    }
}

fn gen_edge(
    rng: &mut StdRng,
    config: &GenConfig,
    clocks: usize,
    channels: &[ChanKind],
    vars: &[VarSpec],
    n_locs: usize,
) -> EdgeSpec {
    let sync = if !channels.is_empty() && rng.gen_bool(config.sync_prob) {
        Some((rng.gen_range(0..channels.len()), rng.gen_bool(0.5)))
    } else {
        None
    };
    let mut guard = Vec::new();
    for _ in 0..2 {
        if clocks > 0 && rng.gen_bool(config.guard_prob) {
            guard.push(gen_constraint(rng, config, clocks));
        }
    }
    let when = if !vars.is_empty() && rng.gen_bool(config.when_prob) {
        Some(gen_bool_expr(rng, config, vars))
    } else {
        None
    };
    let mut resets = Vec::new();
    for c in 0..clocks {
        if rng.gen_bool(config.reset_prob) {
            let value = if !vars.is_empty() && draws(rng, config.reset_var_prob) {
                gen_var_read(rng, vars)
            } else if rng.gen_bool(config.value_reset_prob) {
                ExprSpec::Const(rng.gen_range(1..=config.max_const))
            } else {
                ExprSpec::Const(0)
            };
            resets.push((c, value));
        }
    }
    let mut updates = Vec::new();
    if !vars.is_empty() && rng.gen_bool(config.update_prob) {
        let var = rng.gen_range(0..vars.len());
        let decl = &vars[var];
        let index = decl.size.map(|s| {
            if draws(rng, config.index_var_prob) {
                gen_var_read(rng, vars)
            } else {
                ExprSpec::Const(rng.gen_range(0..s) as i64)
            }
        });
        updates.push(UpdateSpec {
            var,
            index,
            value: gen_int_expr(rng, config, vars),
        });
    }
    let controllable = if sync.is_none() && rng.gen_bool(config.controllable_override_prob) {
        Some(rng.gen_bool(0.5))
    } else {
        None
    };
    EdgeSpec {
        source: rng.gen_range(0..n_locs),
        target: rng.gen_range(0..n_locs),
        sync,
        guard,
        when,
        resets,
        updates,
        controllable,
    }
}

fn gen_constraint(rng: &mut StdRng, config: &GenConfig, clocks: usize) -> ConstraintSpec {
    let left = rng.gen_range(0..clocks);
    let minus = if clocks > 1 && rng.gen_bool(config.diagonal_prob) {
        // Distinct clock for the diagonal.
        let m = rng.gen_range(0..clocks - 1);
        Some(if m >= left { m + 1 } else { m })
    } else {
        None
    };
    let op = match rng.gen_range(0..5u32) {
        0 => CmpOp::Lt,
        1 => CmpOp::Le,
        2 => CmpOp::Gt,
        3 => CmpOp::Ge,
        _ => CmpOp::Eq,
    };
    let bound = if minus.is_some() && rng.gen_bool(0.4) {
        // Diagonals are allowed negative bounds.
        -rng.gen_range(0..=config.max_const)
    } else {
        rng.gen_range(0..=config.max_const)
    };
    ConstraintSpec {
        left,
        minus,
        op,
        bound,
    }
}

/// `rng.gen_bool(p)`, except that a zero probability draws nothing: the
/// pinned fixed-seed streams were drawn without the knobs that use it.
fn draws(rng: &mut StdRng, p: f64) -> bool {
    p > 0.0 && rng.gen_bool(p)
}

/// A read of a random variable: a scalar, or an array element at an
/// in-range literal index.
fn gen_var_read(rng: &mut StdRng, vars: &[VarSpec]) -> ExprSpec {
    let v = rng.gen_range(0..vars.len());
    match vars[v].size {
        None => ExprSpec::Var(v),
        Some(size) => ExprSpec::Elem(v, rng.gen_range(0..size)),
    }
}

/// A scalar/element atom, or a small constant.
fn gen_atom(rng: &mut StdRng, config: &GenConfig, vars: &[VarSpec]) -> ExprSpec {
    if !vars.is_empty() && rng.gen_bool(0.6) {
        gen_var_read(rng, vars)
    } else {
        ExprSpec::Const(rng.gen_range(-config.max_const..=config.max_const))
    }
}

fn gen_int_expr(rng: &mut StdRng, config: &GenConfig, vars: &[VarSpec]) -> ExprSpec {
    match rng.gen_range(0..4u32) {
        0 => gen_atom(rng, config, vars),
        1 => ExprSpec::Add(
            Box::new(gen_atom(rng, config, vars)),
            Box::new(ExprSpec::Const(rng.gen_range(1..=2))),
        ),
        2 => ExprSpec::Sub(
            Box::new(gen_atom(rng, config, vars)),
            Box::new(ExprSpec::Const(rng.gen_range(1..=2))),
        ),
        _ => ExprSpec::Const(rng.gen_range(0..=config.max_const.min(3))),
    }
}

fn gen_cmp(rng: &mut StdRng, config: &GenConfig, vars: &[VarSpec]) -> ExprSpec {
    let op = match rng.gen_range(0..6u32) {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        _ => CmpOp::Ge,
    };
    ExprSpec::Cmp(
        op,
        Box::new(gen_atom(rng, config, vars)),
        Box::new(ExprSpec::Const(
            rng.gen_range(-config.max_const..=config.max_const),
        )),
    )
}

fn gen_bool_expr(rng: &mut StdRng, config: &GenConfig, vars: &[VarSpec]) -> ExprSpec {
    let first = gen_cmp(rng, config, vars);
    match rng.gen_range(0..4u32) {
        0 => ExprSpec::And(Box::new(first), Box::new(gen_cmp(rng, config, vars))),
        1 => ExprSpec::Or(Box::new(first), Box::new(gen_cmp(rng, config, vars))),
        _ => first,
    }
}

fn gen_objective(
    rng: &mut StdRng,
    config: &GenConfig,
    automata: &[AutSpec],
    vars: &[VarSpec],
) -> ObjectiveSpec {
    let pick = |rng: &mut StdRng| {
        let a = rng.gen_range(0..automata.len());
        let l = rng.gen_range(0..automata[a].locations.len());
        (a, l)
    };
    let target = pick(rng);
    let or_target = if rng.gen_bool(config.or_target_prob) {
        Some(pick(rng))
    } else {
        None
    };
    let scalars: Vec<usize> = vars
        .iter()
        .enumerate()
        .filter(|(_, v)| v.size.is_none())
        .map(|(i, _)| i)
        .collect();
    let var_clause = if !scalars.is_empty() && rng.gen_bool(config.var_clause_prob) {
        let v = scalars[rng.gen_range(0..scalars.len())];
        let op = if rng.gen_bool(0.5) {
            CmpOp::Ge
        } else {
            CmpOp::Eq
        };
        let c = rng.gen_range(vars[v].lower..=vars[v].upper);
        Some((v, op, c))
    } else {
        None
    };
    // The zero-probability guard is load-bearing: `gen_bool(0.0)` would
    // still consume a draw and shift every pinned fixed-seed stream.
    let bound = if draws(rng, config.bound_prob) {
        // Bounds near the generated constants keep the clip non-vacuous:
        // anything far above `max_const` would subsume every run.
        Some(rng.gen_range(1..=config.max_const.max(1) * 2))
    } else {
        None
    };
    ObjectiveSpec {
        reachability: !rng.gen_bool(config.safety_prob),
        target,
        or_target,
        var_clause,
        bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let config = GenConfig::default();
        let a = generate_spec(42, &config);
        let b = generate_spec(42, &config);
        assert_eq!(a, b);
        let c = generate_spec(43, &config);
        assert_ne!(a, c, "different seeds should give different systems");
    }

    #[test]
    fn generated_specs_build() {
        let config = GenConfig::default();
        for seed in 0..200 {
            let spec = generate_spec(seed, &config);
            let (system, purpose) = spec
                .build()
                .unwrap_or_else(|e| panic!("seed {seed}: spec does not build: {e}"));
            assert!(system.automata().len() >= 2);
            assert!(!purpose.source.is_empty());
        }
    }

    #[test]
    fn generated_initial_states_are_valid() {
        // Invariants are upper bounds with positive constants, so the
        // all-zero initial state is never excluded.
        let config = GenConfig::default();
        for seed in 0..100 {
            let (system, _) = generate_spec(seed, &config).build().unwrap();
            let s0 = system.initial_symbolic().unwrap();
            assert!(
                !s0.zone.is_empty(),
                "seed {seed}: initial state violates an invariant"
            );
        }
    }
}
