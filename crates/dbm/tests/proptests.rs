//! Property-based tests for `tiga-dbm`.
//!
//! Zones generated here use small integer constants, so membership of
//! integer-valued clock valuations together with half-integer delays gives an
//! *exact* oracle for the delay-quantified operators (`up`, `down`,
//! `pred_t`): every relevant interval endpoint falls on the grid.
//!
//! The rewritten zone kernels (`constrain`, `intersects`, the coverage check
//! and `hull`) are also pinned to the implementations they replaced, kept
//! here as oracles, at every dimension from 1 to 9 where the kernel has a
//! dimension-dependent path.

use proptest::prelude::*;
use tiga_dbm::{zone_subtract, Bound, Coverage, Dbm, Federation, Relation};

/// Number of real clocks used by the random zones (dimension is CLOCKS + 1).
const CLOCKS: usize = 2;
const DIM: usize = CLOCKS + 1;
/// Constants used in generated constraints.
const MAX_CONST: i32 = 5;
/// Test points enumerate integer clock values in `0..=MAX_POINT`.
const MAX_POINT: i64 = 7;
/// Delays are enumerated on the half-integer grid up to this bound (scaled by 2).
const MAX_DELAY2: i64 = 2 * (MAX_POINT + MAX_CONST as i64 + 2);

/// A random constraint `x_i - x_j ≺ m` with small constants.
fn arb_constraint() -> impl Strategy<Value = (usize, usize, Bound)> {
    (0..DIM, 0..DIM, -MAX_CONST..=MAX_CONST, any::<bool>()).prop_filter_map(
        "skip diagonal",
        |(i, j, m, strict)| {
            if i == j {
                None
            } else {
                Some((i, j, Bound::new(m, strict)))
            }
        },
    )
}

/// A random (possibly empty) zone built from up to six constraints.
fn arb_zone() -> impl Strategy<Value = Dbm> {
    proptest::collection::vec(arb_constraint(), 0..6).prop_map(|cs| Dbm::from_constraints(DIM, &cs))
}

/// A random non-empty zone.
fn arb_nonempty_zone() -> impl Strategy<Value = Dbm> {
    arb_zone().prop_filter("non-empty", |z| !z.is_empty())
}

/// A random federation of up to three zones.
fn arb_federation() -> impl Strategy<Value = Federation> {
    proptest::collection::vec(arb_zone(), 0..3).prop_map(|zs| Federation::from_zones(DIM, zs))
}

/// All integer-valued test points (scaled by 2, so even entries).
fn grid_points() -> Vec<Vec<i64>> {
    let mut points = Vec::new();
    for a in 0..=MAX_POINT {
        for b in 0..=MAX_POINT {
            points.push(vec![0, 2 * a, 2 * b]);
        }
    }
    points
}

/// Dimensions the kernel oracles run at: 1..=8 keep `intersects`' scratch
/// matrix on the stack, 9 takes the heap fallback.
const ORACLE_DIMS: std::ops::RangeInclusive<usize> = 1..=9;

/// A dimension-free constraint recipe: clock indices are reduced modulo the
/// dimension, and diagonal results are dropped.
type RawConstraint = (usize, usize, i32, bool);

fn arb_raw_constraints(max: usize) -> impl Strategy<Value = Vec<RawConstraint>> {
    proptest::collection::vec(
        (0..9usize, 0..9usize, -MAX_CONST..=MAX_CONST, any::<bool>()),
        0..max,
    )
}

fn constraint_at(dim: usize, &(i, j, m, strict): &RawConstraint) -> Option<(usize, usize, Bound)> {
    let (i, j) = (i % dim, j % dim);
    (i != j).then(|| (i, j, Bound::new(m, strict)))
}

fn zone_at(dim: usize, raw: &[RawConstraint]) -> Dbm {
    let cs: Vec<_> = raw.iter().filter_map(|c| constraint_at(dim, c)).collect();
    Dbm::from_constraints(dim, &cs)
}

/// The bound matrix of a zone, row-major.
fn matrix(z: &Dbm) -> Vec<Bound> {
    let n = z.dim();
    (0..n * n).map(|k| z.at(k / n, k % n)).collect()
}

/// The `constrain` this crate shipped before its closure read the live
/// matrix: column `i` and row `j` are snapshotted before the update.
fn snapshot_constrain(m: &mut [Bound], n: usize, i: usize, j: usize, b: Bound) -> bool {
    if m[0] < Bound::ZERO_LE {
        return false;
    }
    if b >= m[i * n + j] {
        return true;
    }
    if m[j * n + i] + b < Bound::ZERO_LE {
        m[0] = Bound::ZERO_LT;
        return false;
    }
    m[i * n + j] = b;
    let col_i: Vec<Bound> = (0..n).map(|a| m[a * n + i]).collect();
    let row_j: Vec<Bound> = (0..n).map(|c| m[j * n + c]).collect();
    for (a, &col) in col_i.iter().enumerate() {
        if col.is_inf() {
            continue;
        }
        let via_i = col + b;
        for (c, &row) in row_j.iter().enumerate() {
            let cand = via_i + row;
            if cand < m[a * n + c] {
                m[a * n + c] = cand;
            }
        }
    }
    true
}

/// Full Floyd–Warshall closure; `false` on a negative cycle.
fn full_close(m: &mut [Bound], n: usize) -> bool {
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                let cand = m[i * n + k] + m[k * n + j];
                if cand < m[i * n + j] {
                    m[i * n + j] = cand;
                }
            }
        }
    }
    (0..n).all(|k| m[k * n + k] >= Bound::ZERO_LE)
}

/// The convex hull minimization built before `Dbm::hull`: the pointwise
/// maximum's finite bounds, re-added to the universe one by one.
fn constraints_hull(a: &Dbm, b: &Dbm) -> Dbm {
    let dim = a.dim();
    let mut constraints = Vec::new();
    for i in 0..dim {
        for j in 0..dim {
            if i == j {
                continue;
            }
            let bound = a.at(i, j).max(b.at(i, j));
            if !bound.is_inf() {
                constraints.push((i, j, bound));
            }
        }
    }
    Dbm::from_constraints(dim, &constraints)
}

/// Adds a scaled delay to every real clock of a scaled valuation.
fn shifted(point: &[i64], delay2: i64) -> Vec<i64> {
    let mut out = point.to_vec();
    for v in out.iter_mut().skip(1) {
        *v += delay2;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Intersection is exactly pointwise conjunction of membership.
    #[test]
    fn intersection_membership(a in arb_zone(), b in arb_zone()) {
        let inter = a.intersection(&b);
        for p in grid_points() {
            let expected = a.contains_scaled(&p) && b.contains_scaled(&p);
            let actual = inter.as_ref().is_some_and(|z| z.contains_scaled(&p));
            prop_assert_eq!(expected, actual, "point {:?}", p);
        }
    }

    /// `intersects` agrees with the existence of a common grid point when one
    /// exists, and with the exact intersection test in general.
    #[test]
    fn intersects_consistent_with_intersection(a in arb_zone(), b in arb_zone()) {
        prop_assert_eq!(a.intersects(&b), a.intersection(&b).is_some());
    }

    /// Zone subtraction is pointwise set difference, and its pieces are
    /// pairwise disjoint.
    #[test]
    fn subtraction_membership_and_disjointness(a in arb_nonempty_zone(), b in arb_nonempty_zone()) {
        let pieces = zone_subtract(&a, &b);
        for p in grid_points() {
            let expected = a.contains_scaled(&p) && !b.contains_scaled(&p);
            let actual = pieces.iter().any(|z| z.contains_scaled(&p));
            prop_assert_eq!(expected, actual, "point {:?}", p);
        }
        for (i, x) in pieces.iter().enumerate() {
            for y in pieces.iter().skip(i + 1) {
                prop_assert!(!x.intersects(y), "pieces overlap");
            }
        }
    }

    /// Federation difference/union/intersection are pointwise boolean algebra.
    #[test]
    fn federation_boolean_algebra(a in arb_federation(), b in arb_federation()) {
        let union = a.union(&b);
        let inter = a.intersection(&b);
        let diff = a.difference(&b);
        for p in grid_points() {
            let pa = a.contains_scaled(&p);
            let pb = b.contains_scaled(&p);
            prop_assert_eq!(union.contains_scaled(&p), pa || pb);
            prop_assert_eq!(inter.contains_scaled(&p), pa && pb);
            prop_assert_eq!(diff.contains_scaled(&p), pa && !pb);
        }
    }

    /// `up` is existential quantification over past delays.
    #[test]
    fn up_matches_delay_oracle(z in arb_nonempty_zone()) {
        let mut up = z.clone();
        up.up();
        for p in grid_points() {
            let oracle = (0..=MAX_DELAY2).step_by(1).any(|d2| {
                let shifted_down = shifted(&p, -d2);
                shifted_down.iter().skip(1).all(|v| *v >= 0) && z.contains_scaled(&shifted_down)
            });
            prop_assert_eq!(up.contains_scaled(&p), oracle, "point {:?}", p);
        }
    }

    /// `down` is existential quantification over future delays.
    #[test]
    fn down_matches_delay_oracle(z in arb_nonempty_zone()) {
        let mut down = z.clone();
        down.down();
        for p in grid_points() {
            let oracle = (0..=MAX_DELAY2).any(|d2| z.contains_scaled(&shifted(&p, d2)));
            prop_assert_eq!(down.contains_scaled(&p), oracle, "point {:?}", p);
        }
    }

    /// Reset fixes the clock to the value and keeps the rest reachable.
    #[test]
    fn reset_matches_oracle(z in arb_nonempty_zone(), v in 0..3i32) {
        let mut r = z.clone();
        r.reset(1, v);
        for p in grid_points() {
            // p in reset(z) iff p[1] == v and there exists w such that
            // (w, p[2]) in z (i.e. z with clock 1 freed contains p).
            let mut freed = z.clone();
            freed.free(1);
            let expected = p[1] == 2 * i64::from(v) && freed.contains_scaled(&p);
            prop_assert_eq!(r.contains_scaled(&p), expected, "point {:?}", p);
        }
    }

    /// Free is existential quantification over the freed clock.
    #[test]
    fn free_matches_oracle(z in arb_nonempty_zone()) {
        let mut f = z.clone();
        f.free(2);
        for p in grid_points() {
            // Enumerate the freed clock on the half-integer grid: with integer
            // constants every non-empty projection contains such a point.
            let oracle = (0..=MAX_DELAY2).any(|w2| {
                let mut q = p.clone();
                q[2] = w2;
                z.contains_scaled(&q)
            });
            prop_assert_eq!(f.contains_scaled(&p), oracle, "point {:?}", p);
        }
    }

    /// The relation predicate agrees with exact inclusion via subtraction.
    #[test]
    fn relation_agrees_with_subtraction(a in arb_nonempty_zone(), b in arb_nonempty_zone()) {
        let a_minus_b_empty = zone_subtract(&a, &b).is_empty();
        let b_minus_a_empty = zone_subtract(&b, &a).is_empty();
        match a.relation(&b) {
            Relation::Equal => {
                prop_assert!(a_minus_b_empty && b_minus_a_empty);
            }
            Relation::Subset => {
                prop_assert!(a_minus_b_empty && !b_minus_a_empty);
            }
            Relation::Superset => {
                prop_assert!(!a_minus_b_empty && b_minus_a_empty);
            }
            Relation::Different => {
                // The DBM-wise relation is only sufficient, but for canonical
                // DBMs it is also necessary: Different must mean neither
                // inclusion holds.
                prop_assert!(!a_minus_b_empty || !b_minus_a_empty);
            }
        }
    }

    /// Building a zone from constraints is order-insensitive (canonical form).
    #[test]
    fn constraint_order_irrelevant(cs in proptest::collection::vec(arb_constraint(), 0..6)) {
        let forward = Dbm::from_constraints(DIM, &cs);
        let mut reversed_cs = cs.clone();
        reversed_cs.reverse();
        let backward = Dbm::from_constraints(DIM, &reversed_cs);
        prop_assert_eq!(forward.is_empty(), backward.is_empty());
        if !forward.is_empty() {
            prop_assert_eq!(forward.relation(&backward), Relation::Equal);
            prop_assert_eq!(forward, backward);
        }
    }

    /// Full closure after manual recanonicalisation is idempotent.
    #[test]
    fn close_is_idempotent(z in arb_nonempty_zone()) {
        let mut once = z.clone();
        once.close();
        prop_assert_eq!(&once, &z);
        let mut twice = once.clone();
        twice.close();
        prop_assert_eq!(once, twice);
    }

    /// Extrapolation only grows the zone and is idempotent.
    #[test]
    fn extrapolation_grows_and_idempotent(z in arb_nonempty_zone(), m in 1..4i32) {
        let max = vec![0, m, m];
        let mut e = z.clone();
        e.extrapolate_max_bounds(&max);
        prop_assert!(z.is_subset_of(&e));
        let mut e2 = e.clone();
        e2.extrapolate_max_bounds(&max);
        prop_assert_eq!(e, e2);
    }

    /// `pred_t` agrees with the trajectory oracle at integer points.
    #[test]
    fn pred_t_matches_trajectory_oracle(good in arb_federation(), bad in arb_federation()) {
        let pred = good.pred_t(&bad);
        for p in grid_points() {
            let mut oracle = false;
            'delays: for d2 in 0..=MAX_DELAY2 {
                if !good.contains_scaled(&shifted(&p, d2)) {
                    continue;
                }
                for d2p in 0..=d2 {
                    if bad.contains_scaled(&shifted(&p, d2p)) {
                        continue 'delays;
                    }
                }
                oracle = true;
                break;
            }
            prop_assert_eq!(pred.contains_scaled(&p), oracle, "point {:?}", p);
        }
    }

    /// `includes_zone` is exact union coverage.
    #[test]
    fn includes_zone_matches_subtraction(fed in arb_federation(), z in arb_nonempty_zone()) {
        let expected = Federation::from_zone(z.clone()).difference(&fed).is_empty();
        prop_assert_eq!(fed.includes_zone(&z), expected);
    }

    /// `reduce_exact` preserves the denoted set.
    #[test]
    fn reduce_exact_preserves_semantics(fed in arb_federation()) {
        let mut reduced = fed.clone();
        reduced.reduce_exact();
        prop_assert!(reduced.set_equals(&fed));
        prop_assert!(reduced.len() <= fed.len());
    }

    /// The delay window is exactly the set of grid delays leading into a zone.
    #[test]
    fn delay_window_matches_membership(z in arb_nonempty_zone(), a in 0..=MAX_POINT, b in 0..=MAX_POINT) {
        let p = vec![0, 2 * a, 2 * b];
        let window = z.delay_window_at(&p, 2);
        for d2 in 0..=MAX_DELAY2 {
            let inside = z.contains_scaled(&shifted(&p, d2));
            let admitted = window.as_ref().is_some_and(|w| w.admits(d2));
            prop_assert_eq!(inside, admitted, "delay {} from {:?}", d2, p);
        }
    }

    /// `constrain` agrees with the snapshot implementation it replaced,
    /// entry for entry, and with a full re-closure of the tightened matrix.
    #[test]
    fn constrain_matches_snapshot_and_full_closure(
        base in arb_raw_constraints(8),
        extra in arb_raw_constraints(4),
    ) {
        for dim in ORACLE_DIMS {
            let zone = zone_at(dim, &base);
            for c in &extra {
                let Some((i, j, b)) = constraint_at(dim, c) else { continue };
                let mut new = zone.clone();
                let kept = new.constrain(i, j, b);
                let mut old = matrix(&zone);
                prop_assert_eq!(kept, snapshot_constrain(&mut old, dim, i, j, b), "dim {}", dim);
                prop_assert_eq!(kept, !new.is_empty());
                if kept {
                    prop_assert_eq!(&matrix(&new), &old, "dim {}", dim);
                }
                if !zone.is_empty() {
                    let mut closed = matrix(&zone);
                    closed[i * dim + j] = closed[i * dim + j].min(b);
                    prop_assert_eq!(kept, full_close(&mut closed, dim), "dim {}", dim);
                    if kept {
                        prop_assert_eq!(&matrix(&new), &closed, "dim {}", dim);
                    }
                }
            }
        }
    }

    /// `intersects` (stack scratch up to dimension 8, heap above) agrees with
    /// the materialized intersection at every dimension.
    #[test]
    fn intersects_matches_intersection_at_every_dim(
        a in arb_raw_constraints(8),
        b in arb_raw_constraints(8),
    ) {
        for dim in ORACLE_DIMS {
            let (za, zb) = (zone_at(dim, &a), zone_at(dim, &b));
            prop_assert_eq!(za.intersects(&zb), za.intersection(&zb).is_some(), "dim {}", dim);
            prop_assert_eq!(zb.intersects(&za), za.intersects(&zb), "dim {}", dim);
        }
    }

    /// `hull` equals the constraint-rebuilt hull it replaced, and contains
    /// both operands.
    #[test]
    fn hull_matches_constraint_rebuild(a in arb_raw_constraints(8), b in arb_raw_constraints(8)) {
        for dim in ORACLE_DIMS {
            let (za, zb) = (zone_at(dim, &a), zone_at(dim, &b));
            if za.is_empty() || zb.is_empty() {
                continue;
            }
            let hull = za.hull(&zb);
            prop_assert_eq!(&hull, &constraints_hull(&za, &zb), "dim {}", dim);
            prop_assert!(za.is_subset_of(&hull) && zb.is_subset_of(&hull));
        }
    }

    /// The coverage kernel answers exactly what federation difference does,
    /// with one `Coverage` reused across all checks so stale buffer contents
    /// are exercised.
    #[test]
    fn coverage_matches_federation_difference(
        cases in proptest::collection::vec((arb_nonempty_zone(), arb_federation()), 1..6),
    ) {
        let mut coverage = Coverage::default();
        for (zone, fed) in &cases {
            let expected = Federation::from_zone(zone.clone()).difference(fed).is_empty();
            prop_assert_eq!(coverage.covers(zone, fed.iter()), expected);
            prop_assert_eq!(fed.includes_zone(zone), expected);
        }
    }
}
