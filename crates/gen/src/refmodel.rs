//! A slow, independent reference model of the zone operators, used as the
//! fuzzing oracle for the DBM/Federation layer.
//!
//! Every check works on *rational valuations* represented exactly as scaled
//! integers (`vals[i] = scale · value(x_i)`, `vals[0] = 0`).  Operators with
//! an existential witness (`up`, `down`, `free`, `reset`) are decided by
//! exact interval arithmetic over the witness (a delay `δ` or a freed clock
//! value `w`): each DBM entry contributes one lower or upper bound with a
//! strictness flag, and the operator holds iff the resulting interval is
//! non-empty.  No grid refinement is needed — the decision is exact for
//! every rational valuation on the grid.
//!
//! The same interval machinery decides the game-level safe time-predecessor
//! `Pred_t(G, B)` ([`pred_t_contains`]): the delay witness must land in a
//! good window while staying below the avoid threshold contributed by every
//! bad zone's window — the operator both fuzz-found solver bugs sat next
//! to, now covered by its own oracle.
//!
//! The reference deliberately reads only the raw DBM entries
//! ([`Dbm::at`], [`Bound::constant`], [`Bound::is_strict`]); it shares no
//! logic with the transformer implementations it is checking.

use tiga_dbm::{Bound, Dbm};

/// A (possibly empty, possibly unbounded-above) interval over scaled values,
/// with strict/non-strict endpoints.
#[derive(Clone, Copy, Debug)]
struct Window {
    lo: i64,
    lo_strict: bool,
    hi: Option<i64>,
    hi_strict: bool,
}

impl Window {
    /// `[0, ∞)`.
    fn nonneg() -> Self {
        Window {
            lo: 0,
            lo_strict: false,
            hi: None,
            hi_strict: false,
        }
    }

    fn add_lower(&mut self, v: i64, strict: bool) {
        if v > self.lo || (v == self.lo && strict) {
            self.lo = v;
            self.lo_strict = strict;
        }
    }

    fn add_upper(&mut self, v: i64, strict: bool) {
        match self.hi {
            None => {
                self.hi = Some(v);
                self.hi_strict = strict;
            }
            Some(cur) => {
                if v < cur || (v == cur && strict) {
                    self.hi = Some(v);
                    self.hi_strict = strict;
                }
            }
        }
    }

    /// Does the interval contain a rational point?
    ///
    /// Between two distinct rationals there is always another rational, so
    /// the interval is non-empty iff `lo < hi`, or `lo == hi` with both
    /// endpoints closed.
    fn is_nonempty(&self) -> bool {
        match self.hi {
            None => true,
            Some(hi) => self.lo < hi || (self.lo == hi && !self.lo_strict && !self.hi_strict),
        }
    }
}

/// Does the scaled difference `d` satisfy the bound?
fn admits(b: Bound, d: i64, scale: i64) -> bool {
    match b.constant() {
        None => true,
        Some(m) => {
            let limit = i64::from(m) * scale;
            if b.is_strict() {
                d < limit
            } else {
                d <= limit
            }
        }
    }
}

/// Reference membership: does the scaled valuation lie in the zone?
///
/// # Panics
///
/// Panics if `vals.len() != zone.dim()`.
#[must_use]
pub fn zone_contains(zone: &Dbm, vals: &[i64], scale: i64) -> bool {
    assert_eq!(vals.len(), zone.dim(), "one value per clock required");
    if zone.is_empty() {
        return false;
    }
    for i in 0..zone.dim() {
        for j in 0..zone.dim() {
            if i != j && !admits(zone.at(i, j), vals[i] - vals[j], scale) {
                return false;
            }
        }
    }
    true
}

/// The interval of delays `δ ≥ 0` with `vals + δ·1 ∈ zone`, or `None` when
/// no delay enters the zone (including when a delay-invariant difference
/// constraint already fails).
///
/// The window is exact over the rationals: endpoints are scaled integers
/// with strictness flags, so `Pred_t` decisions need no grid refinement.
fn delay_window(zone: &Dbm, vals: &[i64], scale: i64) -> Option<Window> {
    assert_eq!(vals.len(), zone.dim(), "one value per clock required");
    if zone.is_empty() {
        return None;
    }
    let n = zone.dim();
    // Differences between real clocks are delay-invariant.
    for i in 1..n {
        for j in 1..n {
            if i != j && !admits(zone.at(i, j), vals[i] - vals[j], scale) {
                return None;
            }
        }
    }
    let mut w = Window::nonneg();
    for (i, &v) in vals.iter().enumerate().skip(1) {
        // (v_i + δ) - 0 ≺ m  ⟺  δ ≺ m·scale - v_i
        if let Some(m) = zone.at(i, 0).constant() {
            w.add_upper(i64::from(m) * scale - v, zone.at(i, 0).is_strict());
        }
        // 0 - (v_i + δ) ≺ m  ⟺  δ ≻ -m·scale - v_i
        if let Some(m) = zone.at(0, i).constant() {
            w.add_lower(-i64::from(m) * scale - v, zone.at(0, i).is_strict());
        }
    }
    w.is_nonempty().then_some(w)
}

/// Reference for the safe time-predecessor `Pred_t(good, bad)`: does some
/// delay `δ ≥ 0` exist with `vals + δ·1 ∈ good` while the whole trajectory
/// `[0, δ]` avoids `bad`?
///
/// Decided by an exact rational interval sweep over the delay witness:
/// each good zone contributes one candidate delay interval
/// (`delay_window`), each bad zone an *avoid threshold* — the infimum of
/// its delay window caps every admissible `δ` (strictly when the bad window
/// is closed at its infimum, non-strictly when it is open there, since the
/// trajectory endpoint itself must avoid `bad`).  The operator holds iff
/// some good interval meets the `[0, threshold]` prefix.
#[must_use]
pub fn pred_t_contains(good: &[&Dbm], bad: &[&Dbm], vals: &[i64], scale: i64) -> bool {
    // The tightest avoid threshold over all bad zones: admissible delays
    // form the prefix `[0, cap)` (`cap_closed` = the cap itself is still
    // admissible, which happens when the bad window opens strictly).
    let mut cap: Option<(i64, bool)> = None;
    for b in bad {
        if let Some(w) = delay_window(b, vals, scale) {
            let candidate = (w.lo, w.lo_strict);
            cap = Some(match cap {
                None => candidate,
                Some(current) => {
                    // Smaller threshold wins; at equal thresholds the open
                    // (non-admissible) one is the stricter constraint.
                    if candidate.0 < current.0 || (candidate.0 == current.0 && !candidate.1) {
                        candidate
                    } else {
                        current
                    }
                }
            });
        }
    }
    for g in good {
        if let Some(mut w) = delay_window(g, vals, scale) {
            if let Some((threshold, closed)) = cap {
                w.add_upper(threshold, !closed);
            }
            if w.is_nonempty() {
                return true;
            }
        }
    }
    false
}

/// Reference for `up`: is `vals` in the delay-future of the zone, i.e. does
/// some `δ ≥ 0` exist with `vals - δ·1 ∈ zone`?
#[must_use]
pub fn up_contains(zone: &Dbm, vals: &[i64], scale: i64) -> bool {
    assert_eq!(vals.len(), zone.dim(), "one value per clock required");
    if zone.is_empty() {
        return false;
    }
    let n = zone.dim();
    // Differences between real clocks are delay-invariant.
    for i in 1..n {
        for j in 1..n {
            if i != j && !admits(zone.at(i, j), vals[i] - vals[j], scale) {
                return false;
            }
        }
    }
    let mut w = Window::nonneg();
    for (i, &v) in vals.iter().enumerate().skip(1) {
        // (v_i - δ) - 0 ≺ m  ⟺  δ ≻ v_i - m·scale
        if let Some(m) = zone.at(i, 0).constant() {
            w.add_lower(v - i64::from(m) * scale, zone.at(i, 0).is_strict());
        }
        // 0 - (v_i - δ) ≺ m  ⟺  δ ≺ m·scale + v_i
        if let Some(m) = zone.at(0, i).constant() {
            w.add_upper(i64::from(m) * scale + v, zone.at(0, i).is_strict());
        }
    }
    w.is_nonempty()
}

/// Reference for `down`: does some `δ ≥ 0` exist with `vals + δ·1 ∈ zone`?
#[must_use]
pub fn down_contains(zone: &Dbm, vals: &[i64], scale: i64) -> bool {
    assert_eq!(vals.len(), zone.dim(), "one value per clock required");
    if zone.is_empty() {
        return false;
    }
    let n = zone.dim();
    for i in 1..n {
        for j in 1..n {
            if i != j && !admits(zone.at(i, j), vals[i] - vals[j], scale) {
                return false;
            }
        }
    }
    let mut w = Window::nonneg();
    for (i, &v) in vals.iter().enumerate().skip(1) {
        // (v_i + δ) - 0 ≺ m  ⟺  δ ≺ m·scale - v_i
        if let Some(m) = zone.at(i, 0).constant() {
            w.add_upper(i64::from(m) * scale - v, zone.at(i, 0).is_strict());
        }
        // 0 - (v_i + δ) ≺ m  ⟺  δ ≻ -m·scale - v_i
        if let Some(m) = zone.at(0, i).constant() {
            w.add_lower(-i64::from(m) * scale - v, zone.at(0, i).is_strict());
        }
    }
    w.is_nonempty()
}

/// Reference for `free(k)`: does some `w ≥ 0` exist with
/// `vals[k := w] ∈ zone`?
///
/// Also the witness check behind [`reset_contains`].
#[must_use]
pub fn free_contains(zone: &Dbm, k: usize, vals: &[i64], scale: i64) -> bool {
    assert_eq!(vals.len(), zone.dim(), "one value per clock required");
    assert!(k > 0 && k < zone.dim(), "cannot free the reference clock");
    if zone.is_empty() {
        return false;
    }
    let n = zone.dim();
    // Constraints not involving clock k must already hold.
    for i in 0..n {
        for j in 0..n {
            if i != j && i != k && j != k && !admits(zone.at(i, j), vals[i] - vals[j], scale) {
                return false;
            }
        }
    }
    let mut wnd = Window::nonneg();
    for (j, &v) in vals.iter().enumerate() {
        if j == k {
            continue;
        }
        // w - v_j ≺ m  ⟺  w ≺ m·scale + v_j
        if let Some(m) = zone.at(k, j).constant() {
            wnd.add_upper(i64::from(m) * scale + v, zone.at(k, j).is_strict());
        }
        // v_j - w ≺ m  ⟺  w ≻ v_j - m·scale
        if let Some(m) = zone.at(j, k).constant() {
            wnd.add_lower(v - i64::from(m) * scale, zone.at(j, k).is_strict());
        }
    }
    wnd.is_nonempty()
}

/// Reference for `reset(k, value)`: `reset` maps every zone valuation to the
/// same valuation with clock `k` forced to `value`, so membership in the
/// image requires `vals[k] == value·scale` plus a witness for the
/// pre-reset value of clock `k` (the [`free_contains`] interval).
#[must_use]
pub fn reset_contains(zone: &Dbm, k: usize, value: i32, vals: &[i64], scale: i64) -> bool {
    vals[k] == i64::from(value) * scale && free_contains(zone, k, vals, scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Zone `lo ≤ x ≤ hi` over one clock (dim 2).
    fn interval(lo: i32, hi: i32) -> Dbm {
        let mut z = Dbm::universe(2);
        assert!(z.constrain(0, 1, Bound::le(-lo)));
        assert!(z.constrain(1, 0, Bound::le(hi)));
        z
    }

    #[test]
    fn zone_contains_matches_dbm() {
        let z = interval(1, 3);
        for v in 0..10 {
            assert_eq!(
                zone_contains(&z, &[0, v], 2),
                z.contains_scaled(&[0, v]),
                "x = {}",
                v as f64 / 2.0
            );
        }
    }

    #[test]
    fn up_witness_interval() {
        let z = interval(1, 3);
        // x = 5 is in up(z) (delay from x = 3), x = 0.5 is not.
        assert!(up_contains(&z, &[0, 10], 2));
        assert!(!up_contains(&z, &[0, 1], 2));
        // Two clocks: delay preserves differences — (2, 2) is reachable from
        // the origin by delay, (2, 1) is not.
        let orig = Dbm::zero(3);
        assert!(up_contains(&orig, &[0, 4, 4], 2));
        assert!(!up_contains(&orig, &[0, 4, 2], 2));
    }

    #[test]
    fn down_witness_interval() {
        let z = interval(4, 5);
        assert!(down_contains(&z, &[0, 0], 2));
        assert!(down_contains(&z, &[0, 9], 2)); // 4.5
        assert!(!down_contains(&z, &[0, 11], 2)); // 5.5
    }

    #[test]
    fn strict_interval_still_has_rational_witness() {
        // Zone 2 < x < 3: from x = 0 a delay in (2, 3) exists even though no
        // half-integer delay does at scale 1 — the interval check must say
        // yes regardless of the grid.
        let mut z = Dbm::universe(2);
        z.constrain(0, 1, Bound::lt(-2));
        z.constrain(1, 0, Bound::lt(3));
        assert!(down_contains(&z, &[0, 0], 1));
        assert!(up_contains(&z, &[0, 4], 1)); // x = 4 from x ∈ (2,3)
    }

    #[test]
    fn pred_t_with_no_bad_is_down() {
        let g = interval(4, 5);
        for v in 0..12 {
            assert_eq!(
                pred_t_contains(&[&g], &[], &[0, v], 2),
                down_contains(&g, &[0, v], 2),
                "x = {}",
                v as f64 / 2.0
            );
        }
    }

    #[test]
    fn pred_t_is_blocked_by_earlier_bad() {
        let g = interval(4, 5);
        let b = interval(2, 3);
        // From x = 0 the trajectory crosses the bad interval first.
        assert!(!pred_t_contains(&[&g], &[&b], &[0, 0], 2));
        // From x = 2.5 the valuation is inside bad: nothing is admissible.
        assert!(!pred_t_contains(&[&g], &[&b], &[0, 5], 2));
        // From x = 3.5 the bad interval is behind; good is ahead.
        assert!(pred_t_contains(&[&g], &[&b], &[0, 7], 2));
        // Inside good with bad behind.
        assert!(pred_t_contains(&[&g], &[&b], &[0, 9], 2));
    }

    #[test]
    fn pred_t_endpoint_strictness() {
        // Good starts exactly where bad starts.  With a *strictly* open bad
        // interval (2 < x <= 3) the trajectory may stop at x = 2 (still
        // outside bad) and be inside good; with a closed bad ([2, 3]) it
        // may not.
        let g = interval(2, 5);
        let mut open_bad = Dbm::universe(2);
        open_bad.constrain(0, 1, Bound::lt(-2));
        open_bad.constrain(1, 0, Bound::le(3));
        let closed_bad = interval(2, 3);
        assert!(pred_t_contains(&[&g], &[&open_bad], &[0, 0], 2));
        assert!(!pred_t_contains(&[&g], &[&closed_bad], &[0, 0], 2));
    }

    #[test]
    fn pred_t_takes_the_tightest_bad_threshold() {
        let g = interval(6, 7);
        let near = interval(1, 2);
        let far = interval(4, 5);
        assert!(!pred_t_contains(&[&g], &[&near, &far], &[0, 0], 2));
        assert!(!pred_t_contains(&[&g], &[&far, &near], &[0, 0], 2));
        // Past the near one, the far one still blocks.
        assert!(!pred_t_contains(&[&g], &[&near, &far], &[0, 5], 2));
        // Past both, good is reachable.
        assert!(pred_t_contains(&[&g], &[&near, &far], &[0, 11], 2));
    }

    #[test]
    fn free_and_reset_witnesses() {
        // dim 3, zone: x = 5 (clock 1), y free in [0, 2] (clock 2).
        let mut z = Dbm::universe(3);
        z.constrain(1, 0, Bound::le(5));
        z.constrain(0, 1, Bound::le(-5));
        z.constrain(2, 0, Bound::le(2));
        // free(2): y may be anything, x stays 5.
        assert!(free_contains(&z, 2, &[0, 10, 99], 2));
        assert!(!free_contains(&z, 2, &[0, 8, 0], 2)); // x = 4 ≠ 5
                                                       // reset(2, 1): y must equal 1, and the old y needs a witness in [0,2].
        assert!(reset_contains(&z, 2, 1, &[0, 10, 2], 2));
        assert!(!reset_contains(&z, 2, 1, &[0, 10, 4], 2)); // y = 2 ≠ 1
    }
}
