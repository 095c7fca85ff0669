//! Static liveness of clocks and variables.
//!
//! A clock that every automaton resets before it reads the clock again
//! carries no information, and neither does a variable that no expression
//! reads.  [`Liveness`] finds both once per game, from the [`System`] and
//! the reads of its objective, and the [`crate::Explorer`] quotients them
//! away: it frees the dead clocks of every successor zone and sets the dead
//! variables back to their initial values after every discrete step.  The
//! first is the active-clock reduction of Daws and Yovine (RTSS 1996); both
//! are quotients by a bisimulation, so verdicts and winning regions are
//! unchanged, in games too.
//!
//! Only the symbolic side is reduced.  The tick interpreter and the
//! conformance monitor keep real values; a concrete [`DiscreteState`] is
//! mapped onto the explored states, and onto the strategies keyed by them,
//! through [`Liveness::project`].

use crate::automaton::ClockConstraint;
use crate::ids::{ClockId, LocationId, VarId};
use crate::symbolic::DiscreteState;
use crate::system::System;
use tiga_dbm::Dbm;

/// Clock and variable liveness of one game.
///
/// * A clock is live in a location when some path from it reads the clock
///   — in an invariant or a guard, both clocks of a diagonal constraint
///   counting — before resetting it: the least fixpoint of
///   `live(l) = inv(l) ∪ ⋃_{e: l→l'} (guard(e) ∪ (live(l') ∖ resets(e)))`
///   per automaton.  A product state's live clocks are the union over its
///   automata, plus every clock the objective reads, which is live
///   everywhere.
/// * A variable is dead when no expression mentions it: no guard,
///   invariant bound, reset value, update value, update index or the
///   objective.  Writes alone keep nothing live, but an update that reads
///   its own target (`n := n + 1`) does, so the update's range check still
///   sees the real value.
#[derive(Clone, Debug)]
pub struct Liveness {
    /// `u64` words per clock mask; bit `k` stands for DBM index `k`.
    words: usize,
    /// Per automaton, the mask slot of its first location.
    base: Vec<usize>,
    /// The live-clock masks, `words` per (automaton, location) slot.  The
    /// reference clock's bit is always set.
    clocks: Vec<u64>,
    /// Flattened store offsets of the dead variables, with their initial
    /// values.
    dead_vars: Vec<(usize, i64)>,
}

/// Sets the bits of the clocks a constraint reads.
fn mark_constraint(mask: &mut [u64], c: &ClockConstraint) {
    set_bit(mask, c.left.dbm_index());
    if let Some(right) = c.minus {
        set_bit(mask, right.dbm_index());
    }
}

fn set_bit(mask: &mut [u64], k: usize) {
    mask[k / 64] |= 1 << (k % 64);
}

impl Liveness {
    /// Computes the liveness of `system` under an objective that reads the
    /// variables `objective_vars` and the clocks `objective_clocks`.
    #[must_use]
    pub fn new(system: &System, objective_vars: &[VarId], objective_clocks: &[ClockId]) -> Self {
        let words = system.dim().div_ceil(64);
        let mut always = vec![0u64; words];
        set_bit(&mut always, 0);
        for c in objective_clocks {
            set_bit(&mut always, c.dbm_index());
        }

        let mut base = Vec::with_capacity(system.automata().len());
        let mut slots = 0;
        for aut in system.automata() {
            base.push(slots);
            slots += aut.locations().len();
        }
        let mut clocks = vec![0u64; slots * words];
        let mut read = vec![false; system.vars().len()];
        for id in objective_vars {
            read[id.index()] = true;
        }
        let mut mark_expr = |e: &crate::Expr| e.for_each_var(&mut |v| read[v.index()] = true);

        // Per-edge guard reads and reset masks, for the fixpoint below.
        let mut guard = vec![0u64; words];
        let mut edge_masks = Vec::new();
        for (a, aut) in system.automata().iter().enumerate() {
            for (l, loc) in aut.locations().iter().enumerate() {
                let mask = &mut clocks[(base[a] + l) * words..][..words];
                for c in &loc.invariant {
                    mark_constraint(mask, c);
                    mark_expr(&c.bound);
                }
            }
            for edge in aut.edges() {
                guard.fill(0);
                let mut resets = vec![0u64; words];
                for c in &edge.guard.clocks {
                    mark_constraint(&mut guard, c);
                    mark_expr(&c.bound);
                }
                if let Some(data) = &edge.guard.data {
                    mark_expr(data);
                }
                for r in &edge.resets {
                    set_bit(&mut resets, r.clock.dbm_index());
                    mark_expr(&r.value);
                }
                for u in &edge.updates {
                    mark_expr(&u.value);
                    if let Some(index) = &u.index {
                        mark_expr(index);
                    }
                }
                let source = base[a] + edge.source.index();
                for (w, g) in guard.iter().enumerate() {
                    clocks[source * words + w] |= g;
                }
                edge_masks.push((source, base[a] + edge.target.index(), resets));
            }
        }

        // Backward fixpoint: a clock live in the target and not reset on
        // the way is live in the source.
        let mut changed = true;
        while changed {
            changed = false;
            for (source, target, resets) in &edge_masks {
                for (w, reset) in resets.iter().enumerate() {
                    let flow = clocks[target * words + w] & !reset;
                    let slot = &mut clocks[source * words + w];
                    if flow & !*slot != 0 {
                        *slot |= flow;
                        changed = true;
                    }
                }
            }
        }
        for slot in clocks.chunks_mut(words) {
            for (word, a) in slot.iter_mut().zip(&always) {
                *word |= a;
            }
        }

        let store = system.vars().initial_store();
        let dead_vars = system
            .vars()
            .iter()
            .zip(&read)
            .filter(|(_, &read)| !read)
            .flat_map(|(decl, _)| decl.offset()..decl.offset() + decl.size())
            .map(|offset| (offset, store[offset]))
            .collect();
        Liveness {
            words,
            base,
            clocks,
            dead_vars,
        }
    }

    /// Whether `clock` is live in the product state with the given
    /// locations (one per automaton).
    #[must_use]
    pub fn clock_is_live(&self, locations: &[LocationId], clock: ClockId) -> bool {
        let k = clock.dbm_index();
        locations.iter().enumerate().any(|(a, l)| {
            let slot = self.base[a] + l.index();
            self.clocks[slot * self.words + k / 64] & (1 << (k % 64)) != 0
        })
    }

    /// The flattened store offsets of the dead variables, in store order.
    pub fn dead_var_offsets(&self) -> impl Iterator<Item = usize> + '_ {
        self.dead_vars.iter().map(|&(offset, _)| offset)
    }

    /// Frees, in `zone`, every clock that is dead in the product state with
    /// the given locations.
    pub fn free_dead_clocks(&self, locations: &[LocationId], zone: &mut Dbm) {
        let dim = zone.dim();
        for w in 0..self.words {
            let mut live = 0u64;
            for (a, l) in locations.iter().enumerate() {
                live |= self.clocks[(self.base[a] + l.index()) * self.words + w];
            }
            let mut dead = !live;
            while dead != 0 {
                let k = w * 64 + dead.trailing_zeros() as usize;
                if k >= dim {
                    break;
                }
                zone.free(k);
                dead &= dead - 1;
            }
        }
    }

    /// Sets every dead variable of `discrete` back to its initial value.
    pub fn forget_dead_vars(&self, discrete: &mut DiscreteState) {
        for &(offset, initial) in &self.dead_vars {
            discrete.vars[offset] = initial;
        }
    }

    /// The explored state a concrete discrete state stands for: `discrete`
    /// itself when no variable is dead, otherwise `scratch`, overwritten
    /// with `discrete` and its dead variables forgotten.  Every lookup of a
    /// concrete state in an explored graph, a strategy or a controller goes
    /// through here.  Allocates nothing once `scratch` has held a state of
    /// the system.
    pub fn project<'s>(
        &self,
        discrete: &'s DiscreteState,
        scratch: &'s mut DiscreteState,
    ) -> &'s DiscreteState {
        if self.dead_vars.is_empty() {
            return discrete;
        }
        scratch.locations.clone_from(&discrete.locations);
        scratch.vars.clone_from(&discrete.vars);
        self.forget_dead_vars(scratch);
        scratch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{AutomatonBuilder, EdgeBuilder, SystemBuilder};
    use crate::expr::{CmpOp, Expr};

    fn loc(i: usize) -> LocationId {
        LocationId::from_index(i)
    }

    #[test]
    fn a_diagonal_guard_reads_both_clocks() {
        let mut b = SystemBuilder::new("diag");
        let x = b.clock("x").unwrap();
        let y = b.clock("y").unwrap();
        let z = b.clock("z").unwrap();
        let mut a = AutomatonBuilder::new("A");
        let l0 = a.location("L0").unwrap();
        let l1 = a.location("L1").unwrap();
        a.add_edge(EdgeBuilder::new(l0, l1).guard_clock(ClockConstraint::diff(x, y, CmpOp::Le, 2)));
        b.add_automaton(a.build().unwrap()).unwrap();
        let sys = b.build().unwrap();
        let live = Liveness::new(&sys, &[], &[]);
        assert!(live.clock_is_live(&[loc(0)], x));
        assert!(live.clock_is_live(&[loc(0)], y));
        assert!(!live.clock_is_live(&[loc(0)], z));
        assert!(!live.clock_is_live(&[loc(1)], x));
        assert!(!live.clock_is_live(&[loc(1)], y));

        let mut zone = Dbm::zero(sys.dim());
        zone.up();
        live.free_dead_clocks(&[loc(0)], &mut zone);
        // x and y stay equal; z is free of both.
        assert!(zone.contains_scaled(&[0, 2, 2, 0]));
        assert!(zone.contains_scaled(&[0, 2, 2, 9]));
        assert!(!zone.contains_scaled(&[0, 2, 4, 2]));
    }

    #[test]
    fn a_clock_one_automaton_resets_and_another_reads_stays_live() {
        let mut b = SystemBuilder::new("shared");
        let x = b.clock("x").unwrap();
        let go = b.input_channel("go").unwrap();
        // Writer resets x on every step and never reads it.
        let mut w = AutomatonBuilder::new("Writer");
        let w0 = w.location("W0").unwrap();
        w.add_edge(EdgeBuilder::new(w0, w0).output(go).reset(x));
        b.add_automaton(w.build().unwrap()).unwrap();
        // Reader reads x in R1 only, after a step that does not reset it.
        let mut r = AutomatonBuilder::new("Reader");
        let r0 = r.location("R0").unwrap();
        let r1 = r.location("R1").unwrap();
        let r2 = r.location("R2").unwrap();
        r.add_edge(EdgeBuilder::new(r0, r1).input(go));
        r.add_edge(EdgeBuilder::new(r1, r2).guard_clock(ClockConstraint::new(x, CmpOp::Ge, 3)));
        b.add_automaton(r.build().unwrap()).unwrap();
        let sys = b.build().unwrap();
        let live = Liveness::new(&sys, &[], &[]);
        // The writer alone would call x dead; the reader keeps it live.
        assert!(live.clock_is_live(&[loc(0), loc(0)], x));
        assert!(live.clock_is_live(&[loc(0), loc(1)], x));
        assert!(!live.clock_is_live(&[loc(0), loc(2)], x));
    }

    #[test]
    fn a_variable_read_only_in_an_update_index_is_live() {
        let mut b = SystemBuilder::new("index");
        let i = b.int_var("i", 0, 1, 0).unwrap();
        let buf = b.int_array("buf", 2, 0, 3, 0).unwrap();
        let junk = b.int_var("junk", 0, 3, 0).unwrap();
        let mut a = AutomatonBuilder::new("A");
        let l0 = a.location("L0").unwrap();
        a.add_edge(
            EdgeBuilder::new(l0, l0)
                .set_element(buf, Expr::var(i), Expr::constant(1))
                .set(junk, Expr::constant(2)),
        );
        b.add_automaton(a.build().unwrap()).unwrap();
        let sys = b.build().unwrap();
        let live = Liveness::new(&sys, &[], &[]);
        // Store: i, buf[0], buf[1], junk.  Written but never read, buf and
        // junk are dead; i, read only as an index, is not.
        assert_eq!(live.dead_var_offsets().collect::<Vec<_>>(), vec![1, 2, 3]);
        // An objective read keeps buf live.
        let live = Liveness::new(&sys, &[buf], &[]);
        assert_eq!(live.dead_var_offsets().collect::<Vec<_>>(), vec![3]);

        let mut d = sys.initial_discrete();
        d.vars = vec![1, 1, 1, 2];
        let mut scratch = sys.initial_discrete();
        let projected = live.project(&d, &mut scratch);
        assert_eq!(projected.vars, vec![1, 1, 1, 0]);
    }

    #[test]
    fn a_self_incrementing_counter_stays_live() {
        let mut b = SystemBuilder::new("counter");
        let n = b.int_var("n", 0, 2, 0).unwrap();
        let mut a = AutomatonBuilder::new("A");
        let l0 = a.location("L0").unwrap();
        a.add_edge(EdgeBuilder::new(l0, l0).set(n, Expr::var(n) + Expr::constant(1)));
        b.add_automaton(a.build().unwrap()).unwrap();
        let sys = b.build().unwrap();
        let live = Liveness::new(&sys, &[], &[]);
        // Forgetting n would let the range check pass forever.
        assert_eq!(live.dead_var_offsets().count(), 0);
        let mut d = sys.initial_discrete();
        d.vars[0] = 2;
        let mut scratch = sys.initial_discrete();
        assert!(std::ptr::eq(live.project(&d, &mut scratch), &d));
    }

    #[test]
    fn a_clock_only_the_objective_reads_is_live_everywhere() {
        let mut b = SystemBuilder::new("bounded");
        let x = b.clock("x").unwrap();
        let mut a = AutomatonBuilder::new("A");
        let l0 = a.location("L0").unwrap();
        let l1 = a.location("L1").unwrap();
        a.add_edge(EdgeBuilder::new(l0, l1).guard_clock(ClockConstraint::new(x, CmpOp::Ge, 1)));
        b.add_automaton(a.build().unwrap()).unwrap();
        let sys = b.build().unwrap();
        let (aug, tick) = sys.with_extra_clock("#t", 5).unwrap();
        let unread = Liveness::new(&aug, &[], &[]);
        assert!(!unread.clock_is_live(&[loc(0)], tick));
        let live = Liveness::new(&aug, &[], &[tick]);
        assert!(live.clock_is_live(&[loc(0)], tick));
        assert!(live.clock_is_live(&[loc(1)], tick));
        assert!(live.clock_is_live(&[loc(0)], x));
        assert!(!live.clock_is_live(&[loc(1)], x));
    }
}
