//! Minimal-constraint form of a canonical DBM.
//!
//! A canonical (all-pairs shortest path closed) DBM of dimension `n` stores
//! `n²` bounds, but most of them are derivable from a small core: the
//! classical minimal representation of Larsen–Larsson–Pettersson–Yi (RTSS
//! 1997) keeps, per zero-equivalence class, one cycle of equality
//! constraints, plus the non-redundant bounds between class representatives.
//! [`Dbm::minimize`] extracts that core and [`MinimalZone::rehydrate`]
//! reproduces the *bit-identical* canonical matrix (closure of a constraint
//! set is unique).
//!
//! The compiled controller is built from this form: each rule keeps only
//! its minimal constraints, so a point-containment check tests a handful of
//! bounds instead of the whole matrix.  The zone store keeps canonical
//! matrices only ([`crate::ZoneStore`]).

use crate::bound::Bound;
use crate::dbm::{Dbm, STACK_DIM};

/// One kept constraint `x_i − x_j ≺ m` of a minimal form.
///
/// Clock indices are stored narrow (`u16`): DBM dimensions are the number of
/// model clocks plus one, far below `u16::MAX`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MinimalConstraint {
    /// Row clock index.
    pub i: u16,
    /// Column clock index.
    pub j: u16,
    /// The bound on `x_i − x_j`.
    pub bound: Bound,
}

/// A zone reduced to its minimal constraint system.
///
/// Produced by [`Dbm::minimize`]; [`MinimalZone::rehydrate`] restores the
/// exact canonical DBM.
///
/// # Examples
///
/// ```
/// use tiga_dbm::{Bound, Dbm};
///
/// let mut z = Dbm::universe(3);
/// z.constrain(1, 0, Bound::le(5)); // x <= 5
/// z.constrain(2, 1, Bound::le(2)); // y - x <= 2
/// let minimal = z.minimize();
/// // The derived bound y <= 7 is not stored...
/// assert!(minimal.len() < 3 * 3);
/// // ...but the canonical matrix comes back bit-identical.
/// assert_eq!(minimal.rehydrate(), z);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct MinimalZone {
    dim: usize,
    empty: bool,
    constraints: Vec<MinimalConstraint>,
}

impl MinimalZone {
    /// Dimension of the zone this form was extracted from.
    #[inline]
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Returns `true` if the original zone was empty.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.empty
    }

    /// Number of kept constraints.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// The kept constraints, in deterministic (row-major) order.
    #[must_use]
    pub fn constraints(&self) -> &[MinimalConstraint] {
        &self.constraints
    }

    /// Rebuilds the canonical DBM.
    ///
    /// For non-empty zones the result is bit-identical to the matrix
    /// [`Dbm::minimize`] was called on: the shortest-path closure of the
    /// minimal constraint set is unique and equals the original closure.
    #[must_use]
    pub fn rehydrate(&self) -> Dbm {
        if self.empty {
            return Dbm::empty_of(self.dim);
        }
        let mut z = Dbm::universe(self.dim);
        for c in &self.constraints {
            if !z.constrain(c.i as usize, c.j as usize, c.bound) {
                break;
            }
        }
        z
    }
}

impl Dbm {
    /// Extracts the minimal constraint system of this (canonical) zone.
    ///
    /// See the module docs for the algorithm; [`MinimalZone::rehydrate`]
    /// inverts it exactly.
    #[must_use]
    pub fn minimize(&self) -> MinimalZone {
        let mut constraints = Vec::new();
        self.push_minimal_constraints(&mut constraints);
        MinimalZone {
            dim: self.dim(),
            empty: self.is_empty(),
            constraints,
        }
    }

    /// Appends the constraints of [`Dbm::minimize`] to `out`, in the same
    /// order, so a caller that lowers many zones can reuse one buffer.  An
    /// empty zone appends nothing.
    pub fn push_minimal_constraints(&self, out: &mut Vec<MinimalConstraint>) {
        if self.is_empty() {
            return;
        }
        let dim = self.dim();
        let start = out.len();
        // Constraints already implied by the universe baseline (row-0
        // non-negativity bounds) are free: rehydration starts from
        // `Dbm::universe`, which carries them implicitly.
        let mut keep = |i: usize, j: usize, bound: Bound| {
            if !(i == 0 && bound == Bound::ZERO_LE) {
                out.push(MinimalConstraint {
                    i: i as u16,
                    j: j as u16,
                    bound,
                });
            }
        };
        // 1. Zero-equivalence classes: i ~ j iff the cycle i -> j -> i has
        //    weight exactly (<=, 0).  Closure makes ~ transitive, so each
        //    clock's class is named by its smallest member, the first
        //    representative it is equivalent to.  Small dimensions keep the
        //    class map on the stack.
        let mut on_stack = [0usize; STACK_DIM];
        let mut on_heap = Vec::new();
        let rep: &mut [usize] = if dim <= STACK_DIM {
            &mut on_stack[..dim]
        } else {
            on_heap.resize(dim, 0);
            &mut on_heap
        };
        for i in 0..dim {
            rep[i] = (0..i)
                .find(|&k| rep[k] == k && self.at(k, i) + self.at(i, k) == Bound::ZERO_LE)
                .unwrap_or(i);
        }
        let rep = &*rep;
        // 2. Within each class, keep the chain cycle x0 -> x1 -> ... -> x0
        //    over the ascending members; every other within-class bound is
        //    the sum of a sub-path of the cycle.
        for first in (0..dim).filter(|&r| rep[r] == r) {
            let mut last = first;
            for member in (first + 1..dim).filter(|&j| rep[j] == first) {
                keep(last, member, self.at(last, member));
                last = member;
            }
            if last != first {
                keep(last, first, self.at(last, first));
            }
        }
        // 3. Between class representatives, drop every bound witnessed by an
        //    intermediate representative.  Simultaneous greedy dropping is
        //    sound here: a cycle of mutual witnesses among >= 3 distinct
        //    representatives would be a zero cycle, forcing them into one
        //    class — a contradiction.
        let reps = || (0..dim).filter(|&r| rep[r] == r);
        for i in reps() {
            for j in reps() {
                if i == j {
                    continue;
                }
                let b = self.at(i, j);
                if b.is_inf() {
                    continue;
                }
                let redundant =
                    reps().any(|k| k != i && k != j && self.at(i, k) + self.at(k, j) <= b);
                if !redundant {
                    keep(i, j, b);
                }
            }
        }
        // Deterministic order (useful for hashing and tests).
        out[start..].sort_unstable_by_key(|c| (c.i, c.j));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interval(lo: i32, hi: i32) -> Dbm {
        let mut z = Dbm::universe(2);
        assert!(z.constrain(0, 1, Bound::le(-lo)));
        assert!(z.constrain(1, 0, Bound::le(hi)));
        z
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let mut z = Dbm::universe(4);
        z.constrain(1, 0, Bound::le(5));
        z.constrain(2, 1, Bound::le(2));
        z.constrain(0, 3, Bound::lt(-1));
        z.constrain(3, 2, Bound::le(0));
        assert_eq!(z.minimize().rehydrate(), z);
    }

    #[test]
    fn derived_bounds_are_dropped() {
        // x <= 5 and y - x <= 2 derive y <= 7; the minimal form keeps only
        // the two written constraints.
        let mut z = Dbm::universe(3);
        z.constrain(1, 0, Bound::le(5));
        z.constrain(2, 1, Bound::le(2));
        let m = z.minimize();
        assert_eq!(m.len(), 2, "{:?}", m.constraints());
        assert_eq!(m.rehydrate(), z);
    }

    #[test]
    fn zero_cycle_classes_keep_one_cycle() {
        // x == y == 3: one class {x, y} (plus the reference class once the
        // clocks are pinned to a constant, 0 ~ x ~ y — a single chain).
        let mut z = Dbm::universe(3);
        z.constrain(1, 0, Bound::le(3));
        z.constrain(0, 1, Bound::le(-3));
        z.constrain(2, 1, Bound::le(0));
        z.constrain(1, 2, Bound::le(0));
        let m = z.minimize();
        // One equivalence class {0, x, y}: chain 0->x, x->y plus closing
        // y->0 — three constraints for a 9-entry matrix.
        assert_eq!(m.len(), 3, "{:?}", m.constraints());
        assert_eq!(m.rehydrate(), z);
    }

    #[test]
    fn empty_and_trivial_zones_roundtrip() {
        let mut empty = Dbm::universe(2);
        assert!(!empty.constrain(1, 0, Bound::lt(0)));
        let m = empty.minimize();
        assert!(m.is_empty());
        assert!(m.rehydrate().is_empty());

        let universe = Dbm::universe(3);
        let m = universe.minimize();
        assert_eq!(m.len(), 0);
        assert_eq!(m.rehydrate(), universe);

        let zero = Dbm::zero(3);
        assert_eq!(zero.minimize().rehydrate(), zero);

        let point = Dbm::zero(1);
        assert_eq!(point.minimize().rehydrate(), point);
    }

    #[test]
    fn ops_derived_zones_roundtrip() {
        let base = interval(2, 8);
        let mut up = base.clone();
        up.up();
        assert_eq!(up.minimize().rehydrate(), up);
        let mut down = base.clone();
        down.down();
        assert_eq!(down.minimize().rehydrate(), down);
        let mut reset = Dbm::universe(3);
        reset.constrain(1, 0, Bound::le(4));
        reset.reset(2, 1);
        assert_eq!(reset.minimize().rehydrate(), reset);
        let mut freed = reset.clone();
        freed.free(1);
        assert_eq!(freed.minimize().rehydrate(), freed);
    }

    #[test]
    fn class_maps_above_the_stack_dimension_roundtrip() {
        // dim 11 > STACK_DIM: x1 == x2 == x3 (one class), x4 == 2 (joins the
        // reference class), the rest boxed or chained.
        let mut z = Dbm::universe(11);
        z.constrain(1, 2, Bound::le(0));
        z.constrain(2, 1, Bound::le(0));
        z.constrain(2, 3, Bound::le(0));
        z.constrain(3, 2, Bound::le(0));
        z.constrain(4, 0, Bound::le(2));
        z.constrain(0, 4, Bound::le(-2));
        z.constrain(5, 6, Bound::lt(3));
        z.constrain(10, 0, Bound::le(7));
        z.constrain(0, 9, Bound::lt(-1));
        assert!(!z.is_empty());
        let m = z.minimize();
        assert_eq!(m.rehydrate(), z);
        // Appending to a non-empty buffer keeps what was there and sorts
        // only the appended part.
        let mut buffer = vec![m.constraints()[0]];
        z.push_minimal_constraints(&mut buffer);
        assert_eq!(&buffer[1..], m.constraints());
    }
}
