//! Federations: finite unions of zones.
//!
//! Winning-state sets of timed games are in general non-convex, so the solver
//! manipulates [`Federation`]s — lists of canonical, non-empty [`Dbm`]s of the
//! same dimension.  A federation denotes the union of its member zones; the
//! zones are not required to be disjoint.

use crate::bound::Bound;
use crate::dbm::{Dbm, Relation};
use std::fmt;

/// A finite union of clock zones of a common dimension.
///
/// # Examples
///
/// ```
/// use tiga_dbm::{Bound, Dbm, Federation};
///
/// // x in [0,1] ∪ x in [3,4]
/// let mut low = Dbm::universe(2);
/// low.constrain(1, 0, Bound::le(1));
/// let mut high = Dbm::universe(2);
/// high.constrain(1, 0, Bound::le(4));
/// high.constrain(0, 1, Bound::le(-3));
///
/// let mut fed = Federation::from_zone(low);
/// fed.add_zone(high);
/// assert!(fed.contains_scaled(&[0, 1]));   // x = 0.5
/// assert!(!fed.contains_scaled(&[0, 4]));  // x = 2 in the gap
/// assert!(fed.contains_scaled(&[0, 7]));   // x = 3.5
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Federation {
    dim: usize,
    zones: Vec<Dbm>,
}

/// Member-zone count above which the per-zone transformers run the cheap
/// subsumption [`Federation::reduce`] after mapping over the members.
///
/// Below the threshold a redundant zone costs less than the `O(k²)` relation
/// sweep it would take to find it.
pub const REDUCE_THRESHOLD: usize = 8;

impl Federation {
    /// The empty federation (denoting the empty set of valuations).
    #[must_use]
    pub fn empty(dim: usize) -> Self {
        assert!(dim >= 1, "a federation needs at least the reference clock");
        Federation {
            dim,
            zones: Vec::new(),
        }
    }

    /// The federation containing every valuation (a single universe zone).
    #[must_use]
    pub fn universe(dim: usize) -> Self {
        Federation {
            dim,
            zones: vec![Dbm::universe(dim)],
        }
    }

    /// The federation containing only the origin valuation.
    #[must_use]
    pub fn zero(dim: usize) -> Self {
        Federation {
            dim,
            zones: vec![Dbm::zero(dim)],
        }
    }

    /// Wraps a single zone.  An empty zone yields an empty federation.
    #[must_use]
    pub fn from_zone(zone: Dbm) -> Self {
        let dim = zone.dim();
        if zone.is_empty() {
            Federation::empty(dim)
        } else {
            Federation {
                dim,
                zones: vec![zone],
            }
        }
    }

    /// Builds a federation from an iterator of zones, dropping empty ones.
    ///
    /// # Panics
    ///
    /// Panics if the zones do not all have dimension `dim`.
    #[must_use]
    pub fn from_zones<I: IntoIterator<Item = Dbm>>(dim: usize, zones: I) -> Self {
        let mut fed = Federation::empty(dim);
        for z in zones {
            fed.add_zone(z);
        }
        fed
    }

    /// Dimension shared by every member zone.
    #[inline]
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of member zones.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.zones.len()
    }

    /// Returns `true` if the federation denotes the empty set.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.zones.is_empty()
    }

    /// Iterates over the member zones.
    pub fn iter(&self) -> std::slice::Iter<'_, Dbm> {
        self.zones.iter()
    }

    /// Adds a zone, skipping it if it is empty or already subsumed by a
    /// member zone, and dropping member zones it subsumes.
    ///
    /// # Panics
    ///
    /// Panics if the zone's dimension differs.
    pub fn add_zone(&mut self, zone: Dbm) {
        assert_eq!(zone.dim(), self.dim, "dimension mismatch");
        if zone.is_empty() {
            return;
        }
        for existing in &self.zones {
            if matches!(zone.relation(existing), Relation::Subset | Relation::Equal) {
                return;
            }
        }
        self.zones.retain(|existing| {
            !matches!(existing.relation(&zone), Relation::Subset | Relation::Equal)
        });
        self.zones.push(zone);
    }

    /// Inclusion-checked insertion: adds `zone` only if it contributes new
    /// valuations, i.e. it is not already covered by the *union* of the
    /// member zones.
    ///
    /// Returns `true` if the zone was added.  This is stronger (and costlier)
    /// than the per-zone subsumption of [`Federation::add_zone`]; on-the-fly
    /// passed lists use it so that re-reached symbolic states never re-enter
    /// the waiting list.
    ///
    /// # Panics
    ///
    /// Panics if the zone's dimension differs.
    pub fn insert_subsumed(&mut self, zone: Dbm) -> bool {
        assert_eq!(zone.dim(), self.dim, "dimension mismatch");
        if zone.is_empty() || self.includes_zone(&zone) {
            return false;
        }
        self.add_zone(zone);
        true
    }

    /// Unions another federation into this one.
    pub fn union_with(&mut self, other: &Federation) {
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        for z in &other.zones {
            self.add_zone(z.clone());
        }
    }

    /// Returns the union of two federations.
    #[must_use]
    pub fn union(&self, other: &Federation) -> Federation {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// Unions another federation into this one, consuming it so the member
    /// zones move instead of being cloned.
    pub fn absorb(&mut self, other: Federation) {
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        for z in other.zones {
            self.add_zone(z);
        }
    }

    /// Intersects every member zone with `zone`, dropping empty results.
    pub fn intersect_zone(&mut self, zone: &Dbm) {
        assert_eq!(zone.dim(), self.dim, "dimension mismatch");
        let zones = std::mem::take(&mut self.zones);
        for mut z in zones {
            if z.intersect(zone) {
                self.add_zone(z);
            }
        }
    }

    /// Returns the intersection with another federation.
    #[must_use]
    pub fn intersection(&self, other: &Federation) -> Federation {
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        let mut out = Federation::empty(self.dim);
        for a in &self.zones {
            for b in &other.zones {
                if let Some(z) = a.intersection(b) {
                    out.add_zone(z);
                }
            }
        }
        out
    }

    /// Returns the intersection with a union of borrowed zones (e.g. the
    /// member sequence of an interned [`crate::ZoneSet`]).
    ///
    /// Produces exactly what [`Federation::intersection`] would for a
    /// federation holding `members` in the same order, without materializing
    /// that federation.
    #[must_use]
    pub fn intersection_with_members<'a, I>(&self, members: I) -> Federation
    where
        I: Iterator<Item = &'a Dbm> + Clone,
    {
        let mut out = Federation::empty(self.dim);
        for a in &self.zones {
            for b in members.clone() {
                if let Some(z) = a.intersection(b) {
                    out.add_zone(z);
                }
            }
        }
        out
    }

    /// Subtracts a single zone from the federation.
    pub fn subtract_zone(&mut self, zone: &Dbm) {
        assert_eq!(zone.dim(), self.dim, "dimension mismatch");
        if zone.is_empty() || self.is_empty() {
            return;
        }
        let zones = std::mem::take(&mut self.zones);
        for z in zones {
            for piece in zone_subtract(&z, zone) {
                self.add_zone(piece);
            }
        }
    }

    /// Subtracts another federation from this one.
    pub fn subtract(&mut self, other: &Federation) {
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        for z in &other.zones {
            if self.is_empty() {
                return;
            }
            self.subtract_zone(z);
        }
    }

    /// Returns `self \ other` as a new federation.
    #[must_use]
    pub fn difference(&self, other: &Federation) -> Federation {
        let mut out = self.clone();
        out.subtract(other);
        out
    }

    /// Applies the delay (future) operator to every member zone.
    pub fn up(&mut self) {
        for z in &mut self.zones {
            z.up();
        }
        self.reduce_if_above(REDUCE_THRESHOLD);
    }

    /// Applies the past operator to every member zone.
    ///
    /// The past of a union is the union of the pasts, so this is exact.
    pub fn down(&mut self) {
        for z in &mut self.zones {
            z.down();
        }
        self.reduce_if_above(REDUCE_THRESHOLD);
    }

    /// Frees clock `k` in every member zone.
    pub fn free(&mut self, k: usize) {
        for z in &mut self.zones {
            z.free(k);
        }
        self.reduce_if_above(REDUCE_THRESHOLD);
    }

    /// Resets clock `k` to `v` in every member zone.
    pub fn reset(&mut self, k: usize, v: i32) {
        for z in &mut self.zones {
            z.reset(k, v);
        }
        self.reduce_if_above(REDUCE_THRESHOLD);
    }

    /// Runs [`Federation::reduce`] only when the federation holds more than
    /// `threshold` member zones.
    ///
    /// The per-zone transformers (`up`, `down`, `free`, `reset`) call this
    /// with [`REDUCE_THRESHOLD`]: mapping a transformation over the members
    /// cannot invalidate the union semantics, so small federations skip the
    /// quadratic subsumption sweep entirely and only growth past the
    /// threshold pays for it.
    pub fn reduce_if_above(&mut self, threshold: usize) {
        if self.zones.len() > threshold {
            self.reduce();
        }
    }

    /// Removes member zones subsumed by a single other member zone.
    ///
    /// This is the cheap `O(k²)` reduction; see [`Federation::reduce_exact`]
    /// for the exact (but more expensive) variant.
    pub fn reduce(&mut self) {
        let mut kept: Vec<Dbm> = Vec::with_capacity(self.zones.len());
        'outer: for (idx, z) in self.zones.iter().enumerate() {
            for w in &kept {
                if matches!(z.relation(w), Relation::Subset | Relation::Equal) {
                    continue 'outer;
                }
            }
            for (jdx, w) in self.zones.iter().enumerate() {
                if jdx > idx && matches!(z.relation(w), Relation::Subset | Relation::Equal) {
                    continue 'outer;
                }
            }
            kept.push(z.clone());
        }
        self.zones = kept;
    }

    /// Removes member zones that are covered by the union of the remaining
    /// zones (exact but potentially expensive reduction).
    pub fn reduce_exact(&mut self) {
        self.reduce();
        let mut coverage = Coverage::default();
        let mut idx = 0;
        while idx < self.zones.len() {
            let rest = self
                .zones
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != idx)
                .map(|(_, z)| z);
            if coverage.covers(&self.zones[idx], rest) {
                self.zones.remove(idx);
            } else {
                idx += 1;
            }
        }
    }

    /// Checks whether a valuation (scaled by two) belongs to the federation.
    #[must_use]
    pub fn contains_scaled(&self, vals2: &[i64]) -> bool {
        self.zones.iter().any(|z| z.contains_scaled(vals2))
    }

    /// Checks whether a valuation on a `1/scale` fixed-point grid belongs to
    /// the federation.
    #[must_use]
    pub fn contains_at(&self, vals: &[i64], scale: i64) -> bool {
        self.zones.iter().any(|z| z.contains_at(vals, scale))
    }

    /// Returns `true` if the zone is entirely covered by this federation.
    ///
    /// This is an exact inclusion check (`zone \ self = ∅`), not a per-zone
    /// subsumption test.
    #[must_use]
    pub fn includes_zone(&self, zone: &Dbm) -> bool {
        assert_eq!(zone.dim(), self.dim, "dimension mismatch");
        Coverage::default().covers(zone, &self.zones)
    }

    /// Returns `true` if every valuation of `other` belongs to this
    /// federation.
    #[must_use]
    pub fn includes(&self, other: &Federation) -> bool {
        let mut coverage = Coverage::default();
        other.zones.iter().all(|z| coverage.covers(z, &self.zones))
    }

    /// Semantic equality: mutual inclusion of the denoted sets (member zone
    /// lists may differ).
    ///
    /// Structurally identical member lists short-circuit without any zone
    /// closures; interned passed lists get the same effect for free via
    /// [`crate::ZoneSet::set_equals_interned`], and only genuinely different
    /// member lists pay for the two `includes` sweeps.
    #[must_use]
    pub fn set_equals(&self, other: &Federation) -> bool {
        if self.dim == other.dim && self.zones == other.zones {
            return true;
        }
        self.includes(other) && other.includes(self)
    }

    /// Safe time-predecessor operator `Pred_t(self, bad)`.
    ///
    /// Returns every valuation from which some delay `δ ≥ 0` reaches `self`
    /// (the *good* set) while the whole trajectory `[0, δ]` avoids `bad`:
    ///
    /// ```text
    /// Pred_t(G, B) = { v | ∃δ ≥ 0. v+δ ∈ G ∧ ∀δ' ∈ [0, δ]. v+δ' ∉ B }
    /// ```
    ///
    /// This is the key operator of the timed-game controllable-predecessor
    /// computation (Maler–Pnueli–Sifakis; Cassez et al., CONCUR 2005).
    ///
    /// For a convex good zone `g` and convex bad zone `b`:
    /// `Pred_t(g, b) = (g↓ \ b↓) ∪ (g ∩ (b↓ \ b))↓`, and for unions of bad
    /// zones the results intersect (the set of delays staying inside a convex
    /// zone along a time trajectory is an interval).
    #[must_use]
    pub fn pred_t(&self, bad: &Federation) -> Federation {
        assert_eq!(self.dim, bad.dim, "dimension mismatch");
        let mut result = Federation::empty(self.dim);
        for g in &self.zones {
            let mut acc: Option<Federation> = None;
            if bad.is_empty() {
                let mut d = g.clone();
                d.down();
                result.add_zone(d);
                continue;
            }
            // g↓ does not depend on the bad zone; compute it once per g.
            let mut down_g = g.clone();
            down_g.down();
            for b in &bad.zones {
                let mut down_b = b.clone();
                down_b.down();
                // (g↓ \ b↓)
                let mut part = Federation::from_zone(down_g.clone());
                part.subtract_zone(&down_b);
                // (g ∩ (b↓ \ b))↓
                let mut before_b = Federation::from_zone(down_b);
                before_b.subtract_zone(b);
                before_b.intersect_zone(g);
                before_b.down();
                part.union_with(&before_b);
                acc = Some(match acc {
                    None => part,
                    Some(a) => a.intersection(&part),
                });
            }
            if let Some(a) = acc {
                result.union_with(&a);
            }
        }
        result.reduce();
        result
    }
}

impl From<Dbm> for Federation {
    fn from(zone: Dbm) -> Self {
        Federation::from_zone(zone)
    }
}

impl Extend<Dbm> for Federation {
    fn extend<T: IntoIterator<Item = Dbm>>(&mut self, iter: T) {
        for z in iter {
            self.add_zone(z);
        }
    }
}

impl<'a> IntoIterator for &'a Federation {
    type Item = &'a Dbm;
    type IntoIter = std::slice::Iter<'a, Dbm>;

    fn into_iter(self) -> Self::IntoIter {
        self.zones.iter()
    }
}

/// Moves the zones out, in member order: a consumer that keeps them needs no
/// clone.
impl IntoIterator for Federation {
    type Item = Dbm;
    type IntoIter = std::vec::IntoIter<Dbm>;

    fn into_iter(self) -> Self::IntoIter {
        self.zones.into_iter()
    }
}

impl fmt::Debug for Federation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Federation(dim={}, {} zones)",
            self.dim,
            self.zones.len()
        )
    }
}

/// Subtracts zone `b` from zone `a`, returning pairwise-disjoint pieces.
///
/// Uses the classical splitting along the constraints of `b`, tightening `a`
/// progressively so the produced pieces do not overlap.
#[must_use]
pub fn zone_subtract(a: &Dbm, b: &Dbm) -> Vec<Dbm> {
    assert_eq!(a.dim(), b.dim(), "dimension mismatch");
    if a.is_empty() {
        return Vec::new();
    }
    if b.is_empty() || !a.intersects(b) {
        return vec![a.clone()];
    }
    let mut out = Vec::new();
    split_along(&mut a.clone(), b, |rest, (row, col, neg)| {
        let mut piece = rest.clone();
        if piece.constrain(row, col, neg) {
            out.push(piece);
        }
    });
    out
}

/// The splitting loop of [`zone_subtract`]: `rest` starts as the minuend
/// (which meets `b`), and `piece(rest, (j, i, neg))` is called for every
/// constraint `(i, j, bound)` of `b` whose negation `x_j − x_i ≺ neg` keeps
/// `rest` non-empty; the piece is `rest` tightened by that negation.  `rest`
/// then continues inside the constraint, so the pieces stay disjoint.
fn split_along(rest: &mut Dbm, b: &Dbm, mut piece: impl FnMut(&Dbm, (usize, usize, Bound))) {
    for (i, j, bound) in b.iter_constraints() {
        // The piece is non-empty iff tightening (j, i) by the negated bound
        // keeps the opposite entry consistent — test on the bounds of
        // `rest` before paying for the matrix copy.
        let neg = bound.negated_complement();
        if rest.at(i, j) + neg >= Bound::ZERO_LE {
            piece(rest, (j, i, neg));
        }
        if !rest.constrain(i, j, bound) {
            break;
        }
    }
}

/// A list of zones that keeps the matrices it drops, so refilling it copies
/// into existing storage instead of allocating.
#[derive(Clone, Debug, Default)]
struct Pieces {
    zones: Vec<Dbm>,
    len: usize,
}

impl Pieces {
    fn clear(&mut self) {
        self.len = 0;
    }

    fn as_slice(&self) -> &[Dbm] {
        &self.zones[..self.len]
    }

    /// Appends a copy of `zone` and returns it.
    fn push_copy(&mut self, zone: &Dbm) -> &mut Dbm {
        if self.len < self.zones.len() {
            self.zones[self.len].clone_from(zone);
        } else {
            self.zones.push(zone.clone());
        }
        self.len += 1;
        &mut self.zones[self.len - 1]
    }

    /// Drops the last piece, keeping its storage.
    fn pop(&mut self) {
        self.len -= 1;
    }
}

/// The exact coverage check `zone ⊆ ∪ covers`, with reusable buffers.
///
/// This is the one remainder sweep behind [`Federation::includes_zone`], the
/// passed-list check of [`crate::ZoneSet::insert`] and the rule coverage
/// checks of strategy minimization.  It answers exactly what
/// `Federation::from_zone(zone).difference(covers).is_empty()` answers:
///
/// * a single cover including the zone settles it at once, with no
///   subtraction and no copy;
/// * covers that do not meet the zone are skipped;
/// * otherwise the zone is cut into the pieces [`zone_subtract`] would
///   produce, held in buffers that keep their matrices between calls, so a
///   warm `Coverage` does not allocate.
///
/// # Examples
///
/// ```
/// use tiga_dbm::{Bound, Coverage, Dbm};
///
/// let interval = |lo: i32, hi: i32| {
///     let mut z = Dbm::universe(2);
///     z.constrain(0, 1, Bound::le(-lo));
///     z.constrain(1, 0, Bound::le(hi));
///     z
/// };
/// let mut coverage = Coverage::default();
/// let covers = [interval(0, 6), interval(4, 10)];
/// assert!(coverage.covers(&interval(2, 8), &covers)); // only jointly
/// assert!(!coverage.covers(&interval(2, 12), &covers));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Coverage {
    remainder: Pieces,
    next: Pieces,
    /// The part of the current piece still being split.
    rest: Option<Dbm>,
}

impl Coverage {
    /// Returns `true` if every valuation of `zone` lies in some zone of
    /// `covers`.  An empty zone is always covered.
    ///
    /// # Panics
    ///
    /// Panics if a cover's dimension differs from the zone's.
    pub fn covers<'a, I>(&mut self, zone: &Dbm, covers: I) -> bool
    where
        I: IntoIterator<Item = &'a Dbm>,
        I::IntoIter: Clone,
    {
        if zone.is_empty() {
            return true;
        }
        let covers = covers.into_iter();
        if covers.clone().any(|cover| zone.is_subset_of(cover)) {
            return true;
        }
        let rest = self.rest.get_or_insert_with(|| zone.clone());
        let mut remainder = &mut self.remainder;
        let mut next = &mut self.next;
        // Until the first cover that meets the zone, the remainder is the
        // zone itself, which is known to meet that cover: it is split
        // without a second intersection test.
        let mut untouched = true;
        for cover in covers {
            if !zone.intersects(cover) {
                continue;
            }
            next.clear();
            if untouched {
                split_into(zone, cover, rest, next);
                untouched = false;
            } else {
                for piece in remainder.as_slice() {
                    subtract_into(piece, cover, rest, next);
                }
            }
            std::mem::swap(&mut remainder, &mut next);
            if remainder.len == 0 {
                return true;
            }
        }
        false
    }
}

/// Appends the pieces of `a \ b` to `out`, in [`zone_subtract`]'s order;
/// `rest` is scratch storage.
fn subtract_into(a: &Dbm, b: &Dbm, rest: &mut Dbm, out: &mut Pieces) {
    if a.is_empty() {
        return;
    }
    if b.is_empty() || !a.intersects(b) {
        out.push_copy(a);
        return;
    }
    split_into(a, b, rest, out);
}

/// Appends the pieces of `a \ b` to `out` for zones known to intersect;
/// `rest` is scratch storage.
fn split_into(a: &Dbm, b: &Dbm, rest: &mut Dbm, out: &mut Pieces) {
    rest.clone_from(a);
    split_along(rest, b, |rest, (row, col, neg)| {
        if !out.push_copy(rest).constrain(row, col, neg) {
            out.pop();
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Zone `lo ≤ x ≤ hi` over a single clock (dimension 2).
    fn interval(lo: i32, hi: i32) -> Dbm {
        let mut z = Dbm::universe(2);
        assert!(z.constrain(0, 1, Bound::le(-lo)));
        assert!(z.constrain(1, 0, Bound::le(hi)));
        z
    }

    /// Zone `lo < x < hi`.
    fn open_interval(lo: i32, hi: i32) -> Dbm {
        let mut z = Dbm::universe(2);
        assert!(z.constrain(0, 1, Bound::lt(-lo)));
        assert!(z.constrain(1, 0, Bound::lt(hi)));
        z
    }

    #[test]
    fn owned_iteration_moves_the_zones_in_order() {
        let fed = Federation::from_zones(2, [interval(0, 1), interval(4, 5)]);
        let expected: Vec<Dbm> = fed.iter().cloned().collect();
        let zones: Vec<Dbm> = fed.into_iter().collect();
        assert_eq!(zones, expected);
        assert_eq!(zones.len(), 2);
    }

    #[test]
    fn add_zone_subsumes() {
        let mut fed = Federation::from_zone(interval(0, 10));
        fed.add_zone(interval(2, 3));
        assert_eq!(fed.len(), 1);
        let mut fed2 = Federation::from_zone(interval(2, 3));
        fed2.add_zone(interval(0, 10));
        assert_eq!(fed2.len(), 1);
        assert!(fed.set_equals(&fed2));
    }

    #[test]
    fn insert_subsumed_rejects_union_covered_zones() {
        // [0,6] ∪ [4,10] covers [2,8] only jointly: add_zone would keep it,
        // insert_subsumed must reject it.
        let mut fed = Federation::from_zone(interval(0, 6));
        assert!(fed.insert_subsumed(interval(4, 10)));
        assert!(!fed.insert_subsumed(interval(2, 8)));
        assert_eq!(fed.len(), 2);
        // Genuinely new valuations are accepted.
        assert!(fed.insert_subsumed(interval(12, 14)));
        assert_eq!(fed.len(), 3);
        // Empty zones are never inserted.
        let mut empty = Dbm::universe(2);
        assert!(!empty.constrain(1, 0, Bound::lt(0)) || empty.is_empty());
        assert!(!fed.insert_subsumed(empty));
    }

    #[test]
    fn reduce_if_above_only_fires_past_threshold() {
        let mut fed = Federation::empty(2);
        // Bypass add_zone's subsumption by building the zone list directly.
        fed.zones.push(interval(0, 10));
        fed.zones.push(interval(2, 3));
        fed.reduce_if_above(4);
        assert_eq!(fed.len(), 2, "below threshold: no sweep");
        fed.reduce_if_above(1);
        assert_eq!(fed.len(), 1, "above threshold: subsumed zone dropped");
    }

    #[test]
    fn transformers_preserve_semantics_without_eager_reduction() {
        let mut fed = Federation::from_zone(interval(4, 5));
        fed.add_zone(interval(1, 2));
        fed.down();
        assert!(fed.contains_scaled(&[0, 0]));
        assert!(fed.contains_scaled(&[0, 10]));
        assert!(!fed.contains_scaled(&[0, 11]));
    }

    #[test]
    fn zone_subtract_splits_interval() {
        let pieces = zone_subtract(&interval(0, 10), &interval(3, 4));
        let fed = Federation::from_zones(2, pieces);
        assert!(fed.contains_scaled(&[0, 4])); // 2
        assert!(fed.contains_scaled(&[0, 12])); // 6
        assert!(!fed.contains_scaled(&[0, 7])); // 3.5 removed
        assert!(!fed.contains_scaled(&[0, 6])); // 3 removed (closed)
        assert!(!fed.contains_scaled(&[0, 8])); // 4 removed
        assert!(fed.contains_scaled(&[0, 9])); // 4.5 kept
    }

    #[test]
    fn zone_subtract_disjoint_returns_original() {
        let pieces = zone_subtract(&interval(0, 2), &interval(5, 6));
        assert_eq!(pieces.len(), 1);
        assert_eq!(pieces[0].relation(&interval(0, 2)), Relation::Equal);
    }

    #[test]
    fn zone_subtract_total_cover_is_empty() {
        let pieces = zone_subtract(&interval(3, 4), &interval(0, 10));
        assert!(pieces.is_empty());
    }

    #[test]
    fn subtraction_respects_strictness() {
        // [0,10] \ (3,4) leaves the boundary points 3 and 4.
        let mut fed = Federation::from_zone(interval(0, 10));
        fed.subtract_zone(&open_interval(3, 4));
        assert!(fed.contains_scaled(&[0, 6])); // x = 3 kept
        assert!(fed.contains_scaled(&[0, 8])); // x = 4 kept
        assert!(!fed.contains_scaled(&[0, 7])); // x = 3.5 removed
    }

    #[test]
    fn difference_and_includes() {
        let big = Federation::from_zone(interval(0, 10));
        let small = Federation::from_zone(interval(2, 5));
        assert!(big.includes(&small));
        assert!(!small.includes(&big));
        let diff = big.difference(&small);
        assert!(!diff.contains_scaled(&[0, 6]));
        assert!(diff.contains_scaled(&[0, 2]));
        assert!(diff.contains_scaled(&[0, 12]));
        // Union of difference and small recovers big.
        let recovered = diff.union(&small);
        assert!(recovered.set_equals(&big));
    }

    #[test]
    fn includes_zone_needs_union_cover() {
        // Two zones covering [0,10] only together.
        let mut fed = Federation::from_zone(interval(0, 6));
        fed.add_zone(interval(4, 10));
        assert_eq!(fed.len(), 2);
        assert!(fed.includes_zone(&interval(2, 8)));
        assert!(!fed.includes_zone(&interval(2, 12)));
    }

    #[test]
    fn reduce_exact_removes_union_covered_zone() {
        let mut fed = Federation::from_zone(interval(0, 6));
        fed.add_zone(interval(4, 10));
        fed.add_zone(interval(2, 8)); // covered by the union of the others
        assert_eq!(fed.len(), 3);
        fed.reduce_exact();
        assert_eq!(fed.len(), 2);
        assert!(fed.contains_scaled(&[0, 16]));
    }

    #[test]
    fn intersection_of_federations() {
        let mut a = Federation::from_zone(interval(0, 3));
        a.add_zone(interval(6, 9));
        let b = Federation::from_zone(interval(2, 7));
        let inter = a.intersection(&b);
        assert!(inter.contains_scaled(&[0, 5])); // 2.5
        assert!(inter.contains_scaled(&[0, 13])); // 6.5
        assert!(!inter.contains_scaled(&[0, 9])); // 4.5 in the gap
    }

    #[test]
    fn down_of_union_is_union_of_downs() {
        let mut fed = Federation::from_zone(interval(4, 5));
        fed.add_zone(interval(8, 9));
        fed.down();
        assert!(fed.contains_scaled(&[0, 0]));
        assert!(fed.contains_scaled(&[0, 13])); // 6.5 (past of [8,9])
        assert!(fed.contains_scaled(&[0, 18])); // 9
        assert!(!fed.contains_scaled(&[0, 20])); // 10
    }

    #[test]
    fn pred_t_with_empty_bad_is_down() {
        let good = Federation::from_zone(interval(4, 5));
        let bad = Federation::empty(2);
        let pred = good.pred_t(&bad);
        assert!(pred.contains_scaled(&[0, 0]));
        assert!(pred.contains_scaled(&[0, 10]));
        assert!(!pred.contains_scaled(&[0, 11]));
    }

    #[test]
    fn pred_t_blocked_by_earlier_bad() {
        // Good at [5,6], bad at [2,3]: only points after the bad interval can
        // safely delay into good.
        let good = Federation::from_zone(interval(5, 6));
        let bad = Federation::from_zone(interval(2, 3));
        let pred = good.pred_t(&bad);
        assert!(!pred.contains_scaled(&[0, 2])); // x=1 must cross bad
        assert!(!pred.contains_scaled(&[0, 4])); // x=2 inside bad
        assert!(!pred.contains_scaled(&[0, 6])); // x=3 inside bad
        assert!(pred.contains_scaled(&[0, 7])); // x=3.5 fine
        assert!(pred.contains_scaled(&[0, 12])); // x=6
        assert!(!pred.contains_scaled(&[0, 13])); // x=6.5 beyond good
    }

    #[test]
    fn pred_t_good_before_bad() {
        // Good at [2,3], bad at [5,6]: everything up to the good interval wins.
        let good = Federation::from_zone(interval(2, 3));
        let bad = Federation::from_zone(interval(5, 6));
        let pred = good.pred_t(&bad);
        assert!(pred.contains_scaled(&[0, 0]));
        assert!(pred.contains_scaled(&[0, 6]));
        assert!(!pred.contains_scaled(&[0, 7])); // 3.5: past good, would hit bad only later but can no longer reach good
        assert!(!pred.contains_scaled(&[0, 10])); // 5 inside bad
    }

    #[test]
    fn pred_t_good_straddling_bad() {
        // Good [2,6], bad [3,4]: win below 3 (reach good before bad) and in (4,6].
        let good = Federation::from_zone(interval(2, 6));
        let bad = Federation::from_zone(interval(3, 4));
        let pred = good.pred_t(&bad);
        assert!(pred.contains_scaled(&[0, 0]));
        assert!(pred.contains_scaled(&[0, 5])); // 2.5
        assert!(!pred.contains_scaled(&[0, 6])); // 3 is bad
        assert!(!pred.contains_scaled(&[0, 8])); // 4 is bad
        assert!(pred.contains_scaled(&[0, 9])); // 4.5 wins
        assert!(pred.contains_scaled(&[0, 12])); // 6 wins
        assert!(!pred.contains_scaled(&[0, 13])); // 6.5 loses
    }

    #[test]
    fn pred_t_union_of_bad_zones() {
        // Good [10,11], bad [2,3] ∪ [5,6]: must avoid both, so only points
        // after 6 win.
        let good = Federation::from_zone(interval(10, 11));
        let mut bad = Federation::from_zone(interval(2, 3));
        bad.add_zone(interval(5, 6));
        let pred = good.pred_t(&bad);
        assert!(!pred.contains_scaled(&[0, 0]));
        assert!(!pred.contains_scaled(&[0, 8])); // 4: would hit [5,6] later
        assert!(pred.contains_scaled(&[0, 13])); // 6.5
        assert!(pred.contains_scaled(&[0, 22])); // 11
        assert!(!pred.contains_scaled(&[0, 23]));
    }

    #[test]
    fn pred_t_open_bad_boundary_wins_at_boundary() {
        // Bad is open at 2: standing exactly at 2 with good [2,9] wins at δ=0.
        let good = Federation::from_zone(interval(2, 9));
        let bad = Federation::from_zone(open_interval(2, 3));
        let pred = good.pred_t(&bad);
        assert!(pred.contains_scaled(&[0, 4])); // x=2 wins immediately
        assert!(!pred.contains_scaled(&[0, 5])); // x=2.5 is inside bad
        assert!(pred.contains_scaled(&[0, 6])); // x=3 wins immediately (bad open at 3)
        assert!(pred.contains_scaled(&[0, 0])); // x=0 can reach 2 before bad (bad open at 2)
    }

    #[test]
    fn set_equality_is_semantic() {
        let mut split = Federation::from_zone(interval(0, 5));
        split.add_zone(interval(5, 10));
        let whole = Federation::from_zone(interval(0, 10));
        assert!(split.set_equals(&whole));
        assert_ne!(split, whole); // structural inequality is fine
    }

    #[test]
    fn contains_at_scale_over_members() {
        let mut fed = Federation::from_zone(interval(3, 4));
        fed.add_zone(interval(8, 9));
        assert!(fed.contains_at(&[0, 14], 4)); // 3.5
        assert!(fed.contains_at(&[0, 34], 4)); // 8.5
        assert!(!fed.contains_at(&[0, 24], 4)); // 6
        assert!(!Federation::empty(2).contains_at(&[0, 0], 4));
    }
}
