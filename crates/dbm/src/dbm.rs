//! Difference Bound Matrices (DBMs): the canonical symbolic representation of
//! clock zones.
//!
//! A zone over clocks `x₁ … x_{n}` is a conjunction of constraints of the form
//! `x_i - x_j ≺ m`.  A DBM of *dimension* `n + 1` stores one [`Bound`] per
//! ordered clock pair, with the pseudo-clock `0` (index `0`) permanently equal
//! to zero so that unary constraints `x ≺ m` and `-x ≺ m` are uniform
//! difference constraints.
//!
//! All public operations keep the matrix in *canonical* (all-pairs shortest
//! path closed) form unless the zone becomes empty, which is flagged by a
//! negative diagonal entry at `(0,0)`.

use crate::bound::Bound;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A clock zone represented as a canonical difference bound matrix.
///
/// # Examples
///
/// Build the zone `1 ≤ x ≤ 5 ∧ x - y < 2` over two clocks (`dim = 3`):
///
/// ```
/// use tiga_dbm::{Bound, Dbm};
///
/// let mut z = Dbm::universe(3);
/// z.constrain(0, 1, Bound::le(-1)); // 0 - x <= -1  i.e. x >= 1
/// z.constrain(1, 0, Bound::le(5));  // x <= 5
/// z.constrain(1, 2, Bound::lt(2));  // x - y < 2
/// assert!(!z.is_empty());
/// assert!(z.contains_scaled(&[0, 4, 2])); // x = 2, y = 1
/// assert!(!z.contains_scaled(&[0, 12, 2])); // x = 6 violates x <= 5
/// ```
#[derive(PartialEq, Eq)]
pub struct Dbm {
    dim: usize,
    data: Vec<Bound>,
}

/// Largest dimension whose scratch matrices [`Dbm::intersects`] and
/// [`Dbm::minimize`] keep on the stack.
pub(crate) const STACK_DIM: usize = 8;

impl Clone for Dbm {
    #[inline]
    fn clone(&self) -> Self {
        Dbm {
            dim: self.dim,
            data: self.data.clone(),
        }
    }

    /// Copies `source` into this matrix, reusing its storage when the
    /// dimensions agree, so reused piece buffers do not allocate.
    #[inline]
    fn clone_from(&mut self, source: &Self) {
        self.dim = source.dim;
        self.data.clone_from(&source.data);
    }
}

impl Hash for Dbm {
    /// Writes the dimension, then the bound matrix as one little-endian
    /// byte run (one `write` per 64 bounds rather than one per bound).
    /// Equal zones write equal bytes, so hashing agrees with `Eq`.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.dim);
        let mut bytes = [0u8; 4 * STACK_DIM * STACK_DIM];
        for bounds in self.data.chunks(STACK_DIM * STACK_DIM) {
            for (out, bound) in bytes.chunks_exact_mut(4).zip(bounds) {
                out.copy_from_slice(&bound.raw().to_le_bytes());
            }
            state.write(&bytes[..4 * bounds.len()]);
        }
    }
}

/// Result of comparing two zones of the same dimension.
///
/// Produced by [`Dbm::relation`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Relation {
    /// The zones contain exactly the same valuations.
    Equal,
    /// The left zone is a strict subset of the right zone.
    Subset,
    /// The left zone is a strict superset of the right zone.
    Superset,
    /// Neither zone includes the other.
    Different,
}

impl Dbm {
    /// The zone containing only the origin (all clocks equal to `0`).
    ///
    /// This is the initial zone of a timed automaton before any delay.
    #[must_use]
    pub fn zero(dim: usize) -> Self {
        assert!(dim >= 1, "a DBM needs at least the reference clock");
        Dbm {
            dim,
            data: vec![Bound::ZERO_LE; dim * dim],
        }
    }

    /// The unconstrained zone (all clock valuations with non-negative clocks).
    #[must_use]
    pub fn universe(dim: usize) -> Self {
        assert!(dim >= 1, "a DBM needs at least the reference clock");
        let mut data = vec![Bound::INF; dim * dim];
        for i in 0..dim {
            data[i * dim + i] = Bound::ZERO_LE;
            // 0 - x_i <= 0: clocks are non-negative.
            data[i] = Bound::ZERO_LE;
        }
        Dbm { dim, data }
    }

    /// Builds a zone from an explicit list of constraints `x_i − x_j ≺ m`.
    ///
    /// The result is canonicalised; an unsatisfiable constraint set yields an
    /// empty zone (see [`Dbm::is_empty`]).
    ///
    /// # Panics
    ///
    /// Panics if any clock index is out of range for `dim`.
    #[must_use]
    pub fn from_constraints(dim: usize, constraints: &[(usize, usize, Bound)]) -> Self {
        let mut z = Dbm::universe(dim);
        for &(i, j, b) in constraints {
            if !z.constrain(i, j, b) {
                break;
            }
        }
        z
    }

    /// Number of rows/columns, i.e. number of real clocks plus one.
    #[inline]
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The bound on `x_i − x_j`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    #[inline]
    #[must_use]
    pub fn at(&self, i: usize, j: usize) -> Bound {
        self.data[i * self.dim + j]
    }

    #[inline]
    fn set(&mut self, i: usize, j: usize, b: Bound) {
        self.data[i * self.dim + j] = b;
    }

    /// Returns `true` if the zone contains no clock valuation.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data[0] < Bound::ZERO_LE
    }

    /// Marks the zone as empty (canonical empty representation).
    fn set_empty(&mut self) {
        self.data[0] = Bound::ZERO_LT;
    }

    /// An empty zone of the given dimension (used to rehydrate minimized
    /// empty zones; empty zones are only compared via [`Dbm::is_empty`]).
    pub(crate) fn empty_of(dim: usize) -> Self {
        let mut z = Dbm::zero(dim);
        z.set_empty();
        z
    }

    /// Full Floyd–Warshall canonicalisation.
    ///
    /// Public operations maintain canonical form, so this is only needed after
    /// manual bound surgery (e.g. by extrapolation).  Returns `false` and
    /// marks the zone empty if a negative cycle is detected.
    pub fn close(&mut self) -> bool {
        if close_matrix(&mut self.data, self.dim) {
            true
        } else {
            self.set_empty();
            false
        }
    }

    /// Adds the constraint `x_i − x_j ≺ m` and restores canonical form
    /// incrementally (O(dim²)).
    ///
    /// Returns `false` (and leaves the zone empty) if the constraint makes the
    /// zone unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn constrain(&mut self, i: usize, j: usize, b: Bound) -> bool {
        assert!(i < self.dim && j < self.dim, "clock index out of range");
        if self.is_empty() {
            return false;
        }
        if b >= self.at(i, j) {
            return true;
        }
        // Tightening below the opposite bound's negation empties the zone.
        if self.at(j, i) + b < Bound::ZERO_LE {
            self.set_empty();
            return false;
        }
        self.set(i, j, b);
        let n = self.dim;
        // Incremental closure: every path through the new edge is
        // `a -> i -> j -> c`.  The lemma wants the pre-update column i and
        // row j, and the live entries are exactly those: since
        // `D[j][i] + b >= 0` was checked above, a path `a -> i -> j -> i`
        // is never shorter than `D[a][i]`, nor `j -> i -> j -> c` than
        // `D[j][c]`, so neither line is written during the loop.
        for a in 0..n {
            let col = self.data[a * n + i];
            if col.is_inf() {
                continue;
            }
            let via_i = col + b;
            for c in 0..n {
                let cand = via_i + self.data[j * n + c];
                let entry = &mut self.data[a * n + c];
                if cand < *entry {
                    *entry = cand;
                }
            }
        }
        debug_assert!(self.at(0, 0) >= Bound::ZERO_LE);
        true
    }

    /// Intersects this zone with another (same dimension), in place.
    ///
    /// Returns `false` if the intersection is empty.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn intersect(&mut self, other: &Dbm) -> bool {
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        if self.is_empty() {
            return false;
        }
        if other.is_empty() {
            self.set_empty();
            return false;
        }
        let mut changed = false;
        for i in 0..self.dim {
            for j in 0..self.dim {
                if other.at(i, j) < self.at(i, j) {
                    self.set(i, j, other.at(i, j));
                    changed = true;
                }
            }
        }
        if changed {
            self.close()
        } else {
            true
        }
    }

    /// Returns the intersection of two zones, or `None` if it is empty.
    #[must_use]
    pub fn intersection(&self, other: &Dbm) -> Option<Dbm> {
        let mut z = self.clone();
        if z.intersect(other) {
            Some(z)
        } else {
            None
        }
    }

    /// Tests whether the two zones share at least one valuation.
    #[must_use]
    pub fn intersects(&self, other: &Dbm) -> bool {
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        if self.is_empty() || other.is_empty() {
            return false;
        }
        // Quick refutation: a pair of opposite bounds summing below zero
        // already proves emptiness of the intersection.
        for i in 0..self.dim {
            for j in 0..self.dim {
                if self.at(i, j) + other.at(j, i) < Bound::ZERO_LE {
                    return false;
                }
            }
        }
        // Otherwise fall back to the exact check (closure of the pointwise
        // minimum), since longer alternating negative cycles are possible.
        // Small matrices are closed in a stack buffer.
        let n = self.dim;
        if n > STACK_DIM {
            return self.intersection(other).is_some();
        }
        let mut min = [Bound::INF; STACK_DIM * STACK_DIM];
        let min = &mut min[..n * n];
        for ((m, &a), &b) in min.iter_mut().zip(&self.data).zip(&other.data) {
            *m = a.min(b);
        }
        close_matrix(min, n)
    }

    /// The convex hull of two zones: the smallest zone containing both.
    ///
    /// For canonical operands this is the pointwise maximum of the bound
    /// matrices, which is canonical again: `max(a_ik, b_ik) + max(a_kj,
    /// b_kj)` is at least `a_ik + a_kj >= a_ij` and `b_ik + b_kj >= b_ij`.
    /// An empty operand contributes nothing.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    #[must_use]
    pub fn hull(&self, other: &Dbm) -> Dbm {
        let mut out = Dbm {
            dim: self.dim,
            data: Vec::with_capacity(self.data.len()),
        };
        self.hull_into(other, &mut out);
        out
    }

    /// [`Dbm::hull`] written into `out`, reusing its storage: a caller that
    /// tries many hulls and keeps few allocates only for the kept ones.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions of `self` and `other` differ.
    pub fn hull_into(&self, other: &Dbm, out: &mut Dbm) {
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        if self.is_empty() {
            out.clone_from(other);
        } else if other.is_empty() {
            out.clone_from(self);
        } else {
            out.dim = self.dim;
            out.data.clear();
            out.data
                .extend(self.data.iter().zip(&other.data).map(|(&a, &b)| a.max(b)));
        }
    }

    /// Delay (future) operator `Z↑`: removes all upper bounds on clocks,
    /// yielding every valuation reachable from `Z` by letting time pass.
    pub fn up(&mut self) {
        if self.is_empty() {
            return;
        }
        for i in 1..self.dim {
            self.set(i, 0, Bound::INF);
        }
        // The result is still canonical: any path i -> 0 -> j is not tighter
        // than before because row updates only relaxed entries in column 0.
    }

    /// Past operator `Z↓`: every valuation from which some delay leads into
    /// `Z` (keeping clocks non-negative).
    pub fn down(&mut self) {
        if self.is_empty() {
            return;
        }
        for j in 1..self.dim {
            let mut b = Bound::ZERO_LE;
            for i in 1..self.dim {
                if self.at(i, j) < b {
                    b = self.at(i, j);
                }
            }
            self.set(0, j, b);
        }
        // Canonical form is preserved (standard dbm_down argument).
    }

    /// Removes every constraint on clock `k` (`free`): the clock may take any
    /// non-negative value.
    ///
    /// # Panics
    ///
    /// Panics if `k` is `0` or out of range.
    pub fn free(&mut self, k: usize) {
        assert!(k > 0 && k < self.dim, "cannot free the reference clock");
        if self.is_empty() {
            return;
        }
        for i in 0..self.dim {
            if i != k {
                self.set(k, i, Bound::INF);
                self.set(i, k, self.at(i, 0));
            }
        }
        self.set(k, 0, Bound::INF);
        self.set(0, k, Bound::ZERO_LE);
    }

    /// Resets clock `k` to the non-negative integer value `v`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is `0`, out of range, or `v` is negative.
    pub fn reset(&mut self, k: usize, v: i32) {
        assert!(k > 0 && k < self.dim, "cannot reset the reference clock");
        assert!(v >= 0, "clocks cannot be reset to negative values");
        if self.is_empty() {
            return;
        }
        let pos = Bound::le(v);
        let neg = Bound::le(-v);
        for i in 0..self.dim {
            if i != k {
                self.set(k, i, pos + self.at(0, i));
                self.set(i, k, self.at(i, 0) + neg);
            }
        }
        self.set(k, k, Bound::ZERO_LE);
    }

    /// Compares this zone with another of the same dimension.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    #[must_use]
    pub fn relation(&self, other: &Dbm) -> Relation {
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        match (self.is_empty(), other.is_empty()) {
            (true, true) => return Relation::Equal,
            (true, false) => return Relation::Subset,
            (false, true) => return Relation::Superset,
            (false, false) => {}
        }
        let mut sub = true;
        let mut sup = true;
        for i in 0..self.dim {
            for j in 0..self.dim {
                let a = self.at(i, j);
                let b = other.at(i, j);
                if a > b {
                    sub = false;
                }
                if a < b {
                    sup = false;
                }
            }
        }
        match (sub, sup) {
            (true, true) => Relation::Equal,
            (true, false) => Relation::Subset,
            (false, true) => Relation::Superset,
            (false, false) => Relation::Different,
        }
    }

    /// Returns `true` if every valuation of this zone belongs to `other`.
    #[must_use]
    pub fn is_subset_of(&self, other: &Dbm) -> bool {
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        if self.is_empty() {
            return true;
        }
        !other.is_empty() && self.data.iter().zip(&other.data).all(|(a, b)| a <= b)
    }

    /// Classical maximal-constant extrapolation (`k`-normalisation).
    ///
    /// `max[i]` is the largest constant clock `i` is ever compared against in
    /// the model (`max[0]` is ignored).  Bounds above `max[i]` become `∞`, and
    /// bounds below `−max[j]` are relaxed to `< −max[j]`, guaranteeing a
    /// finite number of distinct zones during forward exploration.
    ///
    /// # Panics
    ///
    /// Panics if `max.len() != self.dim()`.
    pub fn extrapolate_max_bounds(&mut self, max: &[i32]) {
        assert_eq!(max.len(), self.dim, "one max constant per clock required");
        if self.is_empty() {
            return;
        }
        let mut changed = false;
        for i in 0..self.dim {
            for j in 0..self.dim {
                if i == j {
                    continue;
                }
                let b = self.at(i, j);
                if b.is_inf() {
                    continue;
                }
                let m = b.constant().expect("finite bound");
                if i != 0 && m > max[i] {
                    self.set(i, j, Bound::INF);
                    changed = true;
                } else if j != 0 && m < -max[j] {
                    self.set(i, j, Bound::lt(-max[j]));
                    changed = true;
                }
            }
        }
        if changed {
            self.close();
        }
    }

    /// Checks whether a clock valuation belongs to the zone.
    ///
    /// The valuation is given *scaled by two* so that half-integer points are
    /// exact: `vals2[i]` is `2·value(x_i)`, with `vals2[0] == 0` for the
    /// reference clock.
    ///
    /// # Panics
    ///
    /// Panics if `vals2.len() != self.dim()`.
    #[must_use]
    pub fn contains_scaled(&self, vals2: &[i64]) -> bool {
        self.contains_at(vals2, 2)
    }

    /// Checks whether a clock valuation, given on a fixed-point grid of
    /// `1/scale` time units (`vals[i] = scale · value(x_i)`), belongs to the
    /// zone.
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != self.dim()` or `scale` is not positive.
    #[must_use]
    pub fn contains_at(&self, vals: &[i64], scale: i64) -> bool {
        assert_eq!(vals.len(), self.dim, "one value per clock required");
        if self.is_empty() {
            return false;
        }
        for i in 0..self.dim {
            for j in 0..self.dim {
                if i == j {
                    continue;
                }
                if !self.at(i, j).admits_at(vals[i] - vals[j], scale) {
                    return false;
                }
            }
        }
        true
    }

    /// Computes the window of delays `d ≥ 0` such that `v + d` belongs to this
    /// zone, for a concrete valuation `v` given on a fixed-point grid of
    /// `1/scale` time units.
    ///
    /// Returns `None` if no delay leads into the zone (in particular when the
    /// clock-difference constraints, which delays cannot change, are already
    /// violated).  The window bounds are expressed at the same scale.
    ///
    /// This is the primitive the test-execution engine uses to turn the
    /// symbolic "delay" moves of a winning strategy into concrete delays.
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != self.dim()` or `scale` is not positive.
    #[must_use]
    pub fn delay_window_at(&self, vals: &[i64], scale: i64) -> Option<DelayWindow> {
        assert_eq!(vals.len(), self.dim, "one value per clock required");
        assert!(scale > 0, "scale must be positive");
        if self.is_empty() {
            return None;
        }
        // Delays shift every real clock equally, so differences between real
        // clocks are invariant: they must already satisfy the zone.
        for i in 1..self.dim {
            for j in 1..self.dim {
                if i != j && !self.at(i, j).admits_at(vals[i] - vals[j], scale) {
                    return None;
                }
            }
        }
        let mut window = DelayWindow {
            min: 0,
            min_strict: false,
            max: None,
            max_strict: false,
        };
        for (i, &val) in vals.iter().enumerate().skip(1) {
            // x_i <= hi:  d <= scale*hi - v_i
            let up = self.at(i, 0);
            if let Some(m) = up.constant() {
                let cand = scale * i64::from(m) - val;
                let strict = up.is_strict();
                match window.max {
                    None => {
                        window.max = Some(cand);
                        window.max_strict = strict;
                    }
                    Some(cur) => {
                        if cand < cur || (cand == cur && strict) {
                            window.max = Some(cand);
                            window.max_strict = strict;
                        }
                    }
                }
            }
            // 0 - x_i <= m  means  x_i >= -m:  d >= -scale*m - v_i
            let low = self.at(0, i);
            if let Some(m) = low.constant() {
                let cand = -scale * i64::from(m) - val;
                let strict = low.is_strict();
                if cand > window.min || (cand == window.min && strict) {
                    window.min = cand;
                    window.min_strict = strict;
                }
            }
        }
        if window.is_empty() {
            return None;
        }
        Some(window)
    }

    /// Iterates over the finite, off-diagonal constraints of the zone as
    /// `(i, j, bound)` triples.
    pub fn iter_constraints(&self) -> impl Iterator<Item = (usize, usize, Bound)> + '_ {
        let dim = self.dim;
        (0..dim).flat_map(move |i| {
            (0..dim).filter_map(move |j| {
                if i == j {
                    return None;
                }
                let b = self.at(i, j);
                if b.is_inf() {
                    None
                } else {
                    Some((i, j, b))
                }
            })
        })
    }

    /// Formats the zone using caller-supplied clock names (index `0` is the
    /// reference clock and is rendered as `0`).
    #[must_use]
    pub fn display_with<'a>(&'a self, names: &'a [String]) -> DisplayZone<'a> {
        DisplayZone { dbm: self, names }
    }
}

/// Floyd–Warshall closure of an `n × n` row-major bound matrix.
///
/// Returns `false` as soon as a negative cycle shows on the diagonal; the
/// matrix is then only partially closed and must be treated as empty.
fn close_matrix(data: &mut [Bound], n: usize) -> bool {
    for k in 0..n {
        for i in 0..n {
            let dik = data[i * n + k];
            if dik.is_inf() {
                continue;
            }
            for j in 0..n {
                let cand = dik + data[k * n + j];
                let entry = &mut data[i * n + j];
                if cand < *entry {
                    *entry = cand;
                }
            }
        }
        if data[k * n + k] < Bound::ZERO_LE {
            return false;
        }
    }
    data[0] >= Bound::ZERO_LE
}

/// The set of delays leading a concrete valuation into a zone.
///
/// Produced by [`Dbm::delay_window_at`].  Bounds are expressed on the same
/// fixed-point grid as the queried valuation; `max == None` means the window
/// is unbounded above.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DelayWindow {
    /// Smallest admissible delay (scaled); see `min_strict`.
    pub min: i64,
    /// Whether `min` itself is excluded (`>` rather than `≥`).
    pub min_strict: bool,
    /// Largest admissible delay (scaled), or `None` when unbounded.
    pub max: Option<i64>,
    /// Whether `max` itself is excluded (`<` rather than `≤`).
    pub max_strict: bool,
}

impl DelayWindow {
    /// Returns `true` if no delay at all is admitted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        match self.max {
            None => false,
            Some(max) => {
                max < self.min || (max == self.min && (self.max_strict || self.min_strict))
            }
        }
    }

    /// Picks a representative delay from the window on the same grid.
    ///
    /// Prefers the earliest admissible grid point: `min` when attainable,
    /// otherwise the next grid point (if still inside), otherwise `None`
    /// (the window is narrower than the grid).
    #[must_use]
    pub fn pick(&self) -> Option<i64> {
        let candidate = if self.min_strict {
            self.min + 1
        } else {
            self.min
        };
        match self.max {
            None => Some(candidate),
            Some(max) => {
                if candidate < max || (candidate == max && !self.max_strict) {
                    Some(candidate)
                } else {
                    None
                }
            }
        }
    }

    /// Checks whether a specific scaled delay lies inside the window.
    #[must_use]
    pub fn admits(&self, delay: i64) -> bool {
        if delay < self.min || (delay == self.min && self.min_strict) {
            return false;
        }
        match self.max {
            None => true,
            Some(max) => delay < max || (delay == max && !self.max_strict),
        }
    }
}

/// Helper returned by [`Dbm::display_with`]; formats a zone using clock names.
pub struct DisplayZone<'a> {
    dbm: &'a Dbm,
    names: &'a [String],
}

impl fmt::Display for DisplayZone<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.dbm.is_empty() {
            return write!(f, "false");
        }
        let name = |i: usize| -> String {
            if i == 0 {
                "0".to_string()
            } else {
                self.names
                    .get(i - 1)
                    .cloned()
                    .unwrap_or_else(|| format!("x{i}"))
            }
        };
        let mut first = true;
        let mut non_trivial = false;
        for (i, j, b) in self.dbm.iter_constraints() {
            // Skip the implicit non-negativity constraints 0 - x <= 0.
            if i == 0 && b == Bound::ZERO_LE {
                continue;
            }
            non_trivial = true;
            if !first {
                write!(f, " && ")?;
            }
            first = false;
            let op = if b.is_strict() { "<" } else { "<=" };
            let m = b.constant().expect("finite bound");
            if j == 0 {
                write!(f, "{}{op}{m}", name(i))?;
            } else if i == 0 {
                write!(
                    f,
                    "{}{}{}",
                    name(j),
                    if b.is_strict() { ">" } else { ">=" },
                    -m
                )?;
            } else {
                write!(f, "{}-{}{op}{m}", name(i), name(j))?;
            }
        }
        if !non_trivial {
            write!(f, "true")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Dbm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "Dbm(dim={}, empty)", self.dim);
        }
        writeln!(f, "Dbm(dim={})", self.dim)?;
        for i in 0..self.dim {
            write!(f, "  ")?;
            for j in 0..self.dim {
                write!(f, "{:>8} ", format!("{}", self.at(i, j)))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zone_x_between(lo: i32, hi: i32) -> Dbm {
        // dim 2: one clock x.
        let mut z = Dbm::universe(2);
        assert!(z.constrain(0, 1, Bound::le(-lo)));
        assert!(z.constrain(1, 0, Bound::le(hi)));
        z
    }

    #[test]
    fn hull_into_reuses_the_buffer_and_matches_hull() {
        let mut a = Dbm::universe(3);
        a.constrain(1, 0, Bound::le(2));
        let mut b = Dbm::universe(3);
        b.constrain(0, 2, Bound::lt(-4));
        let mut empty = Dbm::universe(3);
        empty.constrain(1, 0, Bound::lt(0));
        empty.constrain(0, 1, Bound::le(0));
        assert!(empty.is_empty());
        let mut out = Dbm::zero(3);
        for (x, y) in [(&a, &b), (&b, &a), (&a, &empty), (&empty, &b), (&a, &a)] {
            x.hull_into(y, &mut out);
            assert_eq!(out, x.hull(y));
        }
    }

    #[test]
    fn zero_zone_contains_only_origin() {
        let z = Dbm::zero(3);
        assert!(!z.is_empty());
        assert!(z.contains_scaled(&[0, 0, 0]));
        assert!(!z.contains_scaled(&[0, 2, 0]));
    }

    #[test]
    fn universe_contains_everything_nonnegative() {
        let z = Dbm::universe(3);
        assert!(z.contains_scaled(&[0, 0, 0]));
        assert!(z.contains_scaled(&[0, 100, 3]));
    }

    #[test]
    fn constrain_detects_emptiness() {
        let mut z = Dbm::universe(2);
        assert!(z.constrain(1, 0, Bound::le(3))); // x <= 3
        assert!(!z.constrain(0, 1, Bound::lt(-3))); // x > 3 -> empty
        assert!(z.is_empty());
    }

    #[test]
    fn constrain_is_incrementally_canonical() {
        let mut z = Dbm::universe(3);
        z.constrain(1, 0, Bound::le(5)); // x <= 5
        z.constrain(2, 1, Bound::le(2)); // y - x <= 2
                                         // Canonicality implies y <= 7 is derived.
        assert_eq!(z.at(2, 0), Bound::le(7));
    }

    #[test]
    fn up_removes_upper_bounds_only() {
        let mut z = zone_x_between(1, 5);
        z.up();
        assert!(z.contains_scaled(&[0, 200]));
        assert!(!z.contains_scaled(&[0, 0])); // x >= 1 kept
    }

    #[test]
    fn up_preserves_differences() {
        // x = y = 0 delayed: x == y maintained.
        let mut z = Dbm::zero(3);
        z.up();
        assert!(z.contains_scaled(&[0, 6, 6]));
        assert!(!z.contains_scaled(&[0, 6, 4]));
    }

    #[test]
    fn down_adds_time_predecessors() {
        let mut z = zone_x_between(4, 5);
        z.down();
        assert!(z.contains_scaled(&[0, 0]));
        assert!(z.contains_scaled(&[0, 9])); // 4.5
        assert!(!z.contains_scaled(&[0, 11])); // 5.5 > 5
    }

    #[test]
    fn down_respects_clock_differences() {
        // Zone: x in [4,5], y = x - 3 (so y in [1,2]).
        let mut z = Dbm::universe(3);
        z.constrain(0, 1, Bound::le(-4));
        z.constrain(1, 0, Bound::le(5));
        z.constrain(1, 2, Bound::le(3));
        z.constrain(2, 1, Bound::le(-3));
        z.down();
        // Going back in time keeps x - y == 3 but y >= 0, so x >= 3.
        assert!(z.contains_scaled(&[0, 6, 0]));
        assert!(!z.contains_scaled(&[0, 4, 0])); // would need y = -1 at some point? No: x=2,y=-1 invalid, and x-y must be 3.
        assert!(!z.contains_scaled(&[0, 6, 2])); // x - y != 3
    }

    #[test]
    fn reset_sets_clock_to_value() {
        let mut z = zone_x_between(2, 8);
        let mut z3 = Dbm::universe(3);
        z3.constrain(0, 1, Bound::le(-2));
        z3.constrain(1, 0, Bound::le(8));
        z3.reset(2, 0);
        assert!(z3.contains_scaled(&[0, 10, 0]));
        assert!(!z3.contains_scaled(&[0, 10, 2]));
        // Resetting to a non-zero value.
        z3.reset(2, 3);
        assert!(z3.contains_scaled(&[0, 10, 6]));
        assert!(!z3.contains_scaled(&[0, 10, 0]));
        // One-clock sanity.
        z.reset(1, 0);
        assert!(z.contains_scaled(&[0, 0]));
        assert!(!z.contains_scaled(&[0, 4]));
    }

    #[test]
    fn free_removes_all_constraints_on_clock() {
        let mut z = Dbm::zero(3);
        z.free(2);
        assert!(z.contains_scaled(&[0, 0, 14]));
        assert!(!z.contains_scaled(&[0, 2, 14])); // x still 0
    }

    #[test]
    fn relation_detects_subset_superset() {
        let small = zone_x_between(2, 3);
        let big = zone_x_between(1, 5);
        assert_eq!(small.relation(&big), Relation::Subset);
        assert_eq!(big.relation(&small), Relation::Superset);
        assert_eq!(big.relation(&big), Relation::Equal);
        let other = zone_x_between(4, 9);
        assert_eq!(small.relation(&other), Relation::Different);
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
    }

    #[test]
    fn intersection_and_intersects_agree() {
        let a = zone_x_between(1, 5);
        let b = zone_x_between(4, 9);
        let c = zone_x_between(7, 9);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        let ab = a.intersection(&b).expect("non-empty");
        assert!(ab.contains_scaled(&[0, 9])); // 4.5
        assert!(!ab.contains_scaled(&[0, 2]));
        assert!(a.intersection(&c).is_none());
    }

    #[test]
    fn extrapolation_widens_large_bounds() {
        let mut z = zone_x_between(100, 200);
        z.extrapolate_max_bounds(&[0, 10]);
        // Above the max constant the zone must be widened upward to infinity
        // and the lower bound relaxed to "> 10".
        assert!(z.contains_scaled(&[0, 1_000_000]));
        assert!(z.contains_scaled(&[0, 21])); // 10.5 > 10
        assert!(!z.contains_scaled(&[0, 20])); // 10 not admitted (strict)
    }

    #[test]
    fn extrapolation_is_identity_below_max() {
        let z0 = zone_x_between(2, 7);
        let mut z = z0.clone();
        z.extrapolate_max_bounds(&[0, 10]);
        assert_eq!(z.relation(&z0), Relation::Equal);
    }

    #[test]
    fn delay_window_basic() {
        let z = zone_x_between(3, 5);
        // From x = 1 (scale 2), delays in [4, 8] scaled (i.e. [2, 4] units).
        let w = z.delay_window_at(&[0, 2], 2).expect("reachable by delay");
        assert_eq!(w.min, 4);
        assert_eq!(w.max, Some(8));
        assert!(!w.min_strict && !w.max_strict);
        assert_eq!(w.pick(), Some(4));
        assert!(w.admits(6) && w.admits(8));
        assert!(!w.admits(9));
        // From x = 6 the zone is already behind: no delay works.
        assert!(z.delay_window_at(&[0, 12], 2).is_none());
    }

    #[test]
    fn delay_window_respects_difference_constraints() {
        // Zone: x - y == 3, x <= 5.
        let mut z = Dbm::universe(3);
        z.constrain(1, 2, Bound::le(3));
        z.constrain(2, 1, Bound::le(-3));
        z.constrain(1, 0, Bound::le(5));
        // x = 1, y = 0: difference 1 != 3, unreachable by pure delay.
        assert!(z.delay_window_at(&[0, 2, 0], 2).is_none());
        // x = 3, y = 0: difference ok, delay window [0, 4] scaled.
        let w = z.delay_window_at(&[0, 6, 0], 2).expect("reachable");
        assert_eq!(w.min, 0);
        assert_eq!(w.max, Some(4));
    }

    #[test]
    fn delay_window_strict_bounds() {
        let mut z = Dbm::universe(2);
        z.constrain(0, 1, Bound::lt(-2)); // x > 2
        z.constrain(1, 0, Bound::lt(3)); // x < 3
                                         // From x = 0 at scale 4: delays in (8, 12) scaled.
        let w = z.delay_window_at(&[0, 0], 4).expect("reachable");
        assert_eq!(w.min, 8);
        assert!(w.min_strict);
        assert_eq!(w.max, Some(12));
        assert!(w.max_strict);
        assert_eq!(w.pick(), Some(9));
        assert!(w.admits(11) && !w.admits(12));
        // Unbounded-above window.
        let mut open = Dbm::universe(2);
        open.constrain(0, 1, Bound::le(-1));
        let w = open.delay_window_at(&[0, 0], 4).expect("reachable");
        assert_eq!(w.max, None);
        assert_eq!(w.pick(), Some(4));
    }

    #[test]
    fn contains_at_scale_matches_scaled() {
        let z = zone_x_between(1, 3);
        assert!(z.contains_at(&[0, 8], 4)); // x = 2
        assert!(!z.contains_at(&[0, 16], 4)); // x = 4
        assert_eq!(z.contains_scaled(&[0, 4]), z.contains_at(&[0, 8], 4));
    }

    #[test]
    fn display_uses_clock_names() {
        let mut z = Dbm::universe(2);
        z.constrain(0, 1, Bound::le(-1));
        z.constrain(1, 0, Bound::lt(4));
        let names = vec!["x".to_string()];
        let s = z.display_with(&names).to_string();
        assert!(s.contains("x<4"), "got {s}");
        assert!(s.contains("x>=1"), "got {s}");
    }

    #[test]
    fn equality_and_hash_on_canonical_forms() {
        use std::collections::HashSet;
        let a = zone_x_between(1, 5);
        let mut b = Dbm::universe(2);
        b.constrain(1, 0, Bound::le(5));
        b.constrain(0, 1, Bound::le(-1));
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }
}
