//! Encoded clock-difference bounds.
//!
//! A [`Bound`] represents the right-hand side of a difference constraint
//! `x - y ≺ m` where `≺ ∈ {<, ≤}` and `m ∈ ℤ ∪ {∞}`.  Bounds are stored in the
//! classical UPPAAL "raw" encoding `raw = 2·m + weak` (`weak = 1` for `≤`,
//! `0` for `<`), which makes comparison of bounds a plain integer comparison
//! and addition a couple of integer operations.

use std::fmt;

/// Raw encoded representation of a difference bound (`x - y ≺ m`).
///
/// Two bounds compare exactly as the constraints they denote: `(m, <)` is
/// tighter (smaller) than `(m, ≤)`, and smaller constants are tighter than
/// larger ones.  [`Bound::INF`] (no constraint) is greater than every finite
/// bound.
///
/// # Examples
///
/// ```
/// use tiga_dbm::Bound;
///
/// let lt3 = Bound::lt(3);
/// let le3 = Bound::le(3);
/// assert!(lt3 < le3);
/// assert!(le3 < Bound::INF);
/// assert_eq!(lt3.constant(), Some(3));
/// assert!(lt3.is_strict());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bound(i32);

/// Largest finite constant supported by the encoding.
///
/// Constants beyond this limit would risk overflow when two bounds are added
/// during canonicalisation; model constants in practice are tiny compared to
/// this.
pub const MAX_CONSTANT: i32 = (i32::MAX / 4) - 1;

/// Largest constant a model over `clocks` clocks may use, so that no zone
/// built from its constraints ever leaves the encoding.
///
/// A finite entry of a canonical zone is a shortest path through at most
/// `clocks` constraints, and [`crate::Dbm::constrain`] adds three entries
/// before it compares, so every sum closure computes stays within
/// `3 · clocks · limit <= MAX_CONSTANT`.  Beyond that, a sum can pass
/// [`MAX_CONSTANT`]: it then reads as `∞` or as a constant no strategy file
/// can hold, and which of several paths saturates first depends on the
/// order the constraints arrived in.
///
/// ```
/// use tiga_dbm::{max_constant_for, MAX_CONSTANT};
/// assert_eq!(max_constant_for(1), MAX_CONSTANT / 3);
/// assert_eq!(max_constant_for(0), max_constant_for(1));
/// ```
#[must_use]
pub fn max_constant_for(clocks: usize) -> i32 {
    let clocks = i32::try_from(clocks.max(1)).unwrap_or(i32::MAX);
    MAX_CONSTANT / clocks.saturating_mul(3)
}

// Kept even so that `is_strict` reports `<` for the infinite bound.
const INF_RAW: i32 = (i32::MAX / 2) & !1;

impl Bound {
    /// The absence of a constraint: `x - y < ∞`.
    pub const INF: Bound = Bound(INF_RAW);

    /// The bound `≤ 0`, used pervasively on the DBM diagonal and for the
    /// reference clock.
    pub const ZERO_LE: Bound = Bound(1);

    /// The bound `< 0`, the canonical "empty" marker on a DBM diagonal.
    pub const ZERO_LT: Bound = Bound(0);

    /// Creates the non-strict bound `≤ m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is outside `[-MAX_CONSTANT, MAX_CONSTANT]`.
    #[inline]
    #[must_use]
    pub fn le(m: i32) -> Self {
        assert!(
            (-MAX_CONSTANT..=MAX_CONSTANT).contains(&m),
            "bound constant {m} out of range"
        );
        Bound(2 * m + 1)
    }

    /// Creates the strict bound `< m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is outside `[-MAX_CONSTANT, MAX_CONSTANT]`.
    #[inline]
    #[must_use]
    pub fn lt(m: i32) -> Self {
        assert!(
            (-MAX_CONSTANT..=MAX_CONSTANT).contains(&m),
            "bound constant {m} out of range"
        );
        Bound(2 * m)
    }

    /// Creates a bound from a constant and a strictness flag.
    ///
    /// ```
    /// use tiga_dbm::Bound;
    /// assert_eq!(Bound::new(4, true), Bound::lt(4));
    /// assert_eq!(Bound::new(4, false), Bound::le(4));
    /// ```
    #[inline]
    #[must_use]
    pub fn new(m: i32, strict: bool) -> Self {
        if strict {
            Bound::lt(m)
        } else {
            Bound::le(m)
        }
    }

    /// Returns `true` if this bound is `∞` (no constraint).
    #[inline]
    #[must_use]
    pub fn is_inf(self) -> bool {
        self.0 >= INF_RAW
    }

    /// Returns the finite constant `m`, or `None` for [`Bound::INF`].
    #[inline]
    #[must_use]
    pub fn constant(self) -> Option<i32> {
        if self.is_inf() {
            None
        } else {
            Some(self.0 >> 1)
        }
    }

    /// Returns `true` for a strict (`<`) bound.  [`Bound::INF`] counts as
    /// strict.
    #[inline]
    #[must_use]
    pub fn is_strict(self) -> bool {
        self.0 & 1 == 0
    }

    /// Returns the bound of the *complement* constraint.
    ///
    /// The complement of `x - y ≺ m` is `y - x ≺' -m` with the dual
    /// strictness (`≤` ↔ `<`).  Used by zone subtraction.
    ///
    /// # Panics
    ///
    /// Panics if called on [`Bound::INF`]: the complement of "no constraint"
    /// is empty and has no bound representation.
    #[inline]
    #[must_use]
    pub fn negated_complement(self) -> Bound {
        assert!(
            !self.is_inf(),
            "the complement of an infinite bound is empty"
        );
        Bound(1 - self.0)
    }

    /// Checks whether a concrete difference `d = x - y`, given as `d · scale`,
    /// satisfies this bound.
    ///
    /// Using a scale (a positive integer) lets callers work on a fixed-point
    /// time grid (e.g. 1/8 time units) while keeping comparisons exact.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    #[inline]
    #[must_use]
    pub fn admits_at(self, diff_scaled: i64, scale: i64) -> bool {
        assert!(scale > 0, "scale must be positive");
        if self.is_inf() {
            return true;
        }
        let m = scale * i64::from(self.0 >> 1);
        if self.is_strict() {
            diff_scaled < m
        } else {
            diff_scaled <= m
        }
    }

    /// Raw encoded value (for hashing / ordering diagnostics).
    #[inline]
    #[must_use]
    pub fn raw(self) -> i32 {
        self.0
    }
}

impl std::ops::Add for Bound {
    type Output = Bound;

    /// Adds two bounds, as required when composing the constraints
    /// `x - y ≺₁ m₁` and `y - z ≺₂ m₂` into `x - z ≺ m₁ + m₂`.
    ///
    /// The result is strict if either operand is strict; `∞` absorbs.
    ///
    /// ```
    /// use tiga_dbm::Bound;
    /// assert_eq!(Bound::le(2) + Bound::lt(3), Bound::lt(5));
    /// assert_eq!(Bound::le(2) + Bound::INF, Bound::INF);
    /// ```
    #[inline]
    fn add(self, other: Bound) -> Bound {
        if self.is_inf() || other.is_inf() {
            Bound::INF
        } else {
            Bound(self.0 + other.0 - ((self.0 | other.0) & 1))
        }
    }
}

impl Default for Bound {
    /// The default bound is `∞` (unconstrained).
    fn default() -> Self {
        Bound::INF
    }
}

impl fmt::Debug for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_inf() {
            write!(f, "<inf")
        } else if self.is_strict() {
            write!(f, "<{}", self.0 >> 1)
        } else {
            write!(f, "<={}", self.0 >> 1)
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_constraint_tightness() {
        assert!(Bound::lt(0) < Bound::le(0));
        assert!(Bound::le(0) < Bound::lt(1));
        assert!(Bound::lt(1) < Bound::le(1));
        assert!(Bound::le(100) < Bound::INF);
        assert!(Bound::le(-5) < Bound::lt(-4));
    }

    #[test]
    fn addition_combines_strictness() {
        assert_eq!(Bound::le(2) + Bound::le(3), Bound::le(5));
        assert_eq!(Bound::le(2) + Bound::lt(3), Bound::lt(5));
        assert_eq!(Bound::lt(2) + Bound::le(3), Bound::lt(5));
        assert_eq!(Bound::lt(2) + Bound::lt(3), Bound::lt(5));
        assert_eq!(Bound::le(-2) + Bound::le(2), Bound::le(0));
    }

    #[test]
    fn addition_with_infinity_is_infinity() {
        assert_eq!(Bound::INF + Bound::le(3), Bound::INF);
        assert_eq!(Bound::lt(-7) + Bound::INF, Bound::INF);
        assert_eq!(Bound::INF + Bound::INF, Bound::INF);
    }

    #[test]
    fn negated_complement_flips_strictness_and_sign() {
        assert_eq!(Bound::le(3).negated_complement(), Bound::lt(-3));
        assert_eq!(Bound::lt(3).negated_complement(), Bound::le(-3));
        assert_eq!(Bound::le(0).negated_complement(), Bound::lt(0));
        // Involution.
        assert_eq!(
            Bound::le(7).negated_complement().negated_complement(),
            Bound::le(7)
        );
    }

    #[test]
    #[should_panic(expected = "complement of an infinite bound")]
    fn negated_complement_of_inf_panics() {
        let _ = Bound::INF.negated_complement();
    }

    #[test]
    fn constant_and_strictness_roundtrip() {
        for m in [-10, -1, 0, 1, 42] {
            assert_eq!(Bound::le(m).constant(), Some(m));
            assert_eq!(Bound::lt(m).constant(), Some(m));
            assert!(!Bound::le(m).is_strict());
            assert!(Bound::lt(m).is_strict());
        }
        assert_eq!(Bound::INF.constant(), None);
        assert!(Bound::INF.is_strict());
    }

    #[test]
    fn admits_scaled_respects_strictness() {
        // x - y <= 3, difference 3 admitted; < 3 rejects 3 (scale 2, so
        // half-integer differences are exact).
        assert!(Bound::le(3).admits_at(6, 2));
        assert!(!Bound::lt(3).admits_at(6, 2));
        assert!(Bound::lt(3).admits_at(5, 2)); // 2.5 < 3
        assert!(Bound::INF.admits_at(1_000_000, 2));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Bound::le(4).to_string(), "<=4");
        assert_eq!(Bound::lt(-2).to_string(), "<-2");
        assert_eq!(Bound::INF.to_string(), "<inf");
    }
}
