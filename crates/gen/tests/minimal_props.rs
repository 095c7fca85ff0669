//! Property tests for the minimal-constraint zone form
//! ([`tiga_dbm::MinimalZone`]) and the hash-consed passed list
//! ([`tiga_dbm::ZoneSet`]), driven by the generator's random zones so that
//! failures of the compiled controller's zone form and of the solver's
//! passed lists localize to the DBM layer:
//!
//! * **roundtrip**: `minimize()` → `rehydrate()` reproduces the canonical
//!   matrix bit-identically, for generator zones and for every zone the
//!   solver derives from them (up/down/free/reset, intersections, subtract
//!   pieces, `pred_t` members);
//! * **membership**: the rehydrated zone admits exactly the same rational
//!   valuations, decided by the reference model that only reads raw DBM
//!   entries;
//! * **mirroring**: [`tiga_dbm::ZoneSet::insert`] agrees with
//!   [`tiga_dbm::Federation::insert_subsumed`] on every verdict and keeps
//!   the identical member sequence over random offer traffic — the invariant
//!   the interned solver path rests on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tiga_dbm::{zone_subtract, Dbm, Federation, ZoneSet, ZoneStore};
use tiga_gen::{random_zone, refmodel};

const MAX_CONST: i32 = 7;

fn assert_roundtrip(zone: &Dbm, context: &str) {
    let minimal = zone.minimize();
    let back = minimal.rehydrate();
    if zone.is_empty() {
        assert!(minimal.is_empty(), "{context}: empty flag lost\n{zone:?}");
        assert!(back.is_empty(), "{context}: rehydrated non-empty\n{zone:?}");
    } else {
        assert_eq!(&back, zone, "{context}: roundtrip not bit-identical");
        assert!(
            minimal.len() <= zone.dim() * zone.dim(),
            "{context}: minimal form larger than the matrix"
        );
    }
}

#[test]
fn minimize_rehydrate_roundtrips_generator_zones() {
    let mut rng = StdRng::seed_from_u64(0x3141_0CAF);
    for round in 0..400 {
        let dim = 2 + (round % 3);
        let z = random_zone(&mut rng, dim, MAX_CONST);
        assert_roundtrip(&z, &format!("round {round}"));
    }
}

#[test]
fn rehydrated_membership_matches_the_reference_model() {
    // Independent of the bit-identity check: at random rational valuations,
    // membership in the rehydrated zone must equal membership in the
    // original, decided entry-by-entry by the reference model.
    let mut rng = StdRng::seed_from_u64(0x0DB_EDB);
    let scale = 2i64;
    for round in 0..300 {
        let dim = 2 + (round % 3);
        let z = random_zone(&mut rng, dim, MAX_CONST);
        let back = z.minimize().rehydrate();
        for _ in 0..24 {
            let mut vals = vec![0i64; dim];
            for v in vals.iter_mut().skip(1) {
                *v = rng.gen_range(0..=i64::from(MAX_CONST + 2) * scale);
            }
            assert_eq!(
                refmodel::zone_contains(&back, &vals, scale),
                refmodel::zone_contains(&z, &vals, scale),
                "round {round}, valuation {vals:?}\nz = {z:?}"
            );
        }
    }
}

#[test]
fn solver_derived_zones_roundtrip() {
    // The zones the engines actually intern are not raw generator zones but
    // products of the symbolic operators; every one of them must roundtrip.
    let mut rng = StdRng::seed_from_u64(0xDE21_7ED5);
    for round in 0..200 {
        let dim = 2 + (round % 3);
        let a = random_zone(&mut rng, dim, MAX_CONST);
        let b = random_zone(&mut rng, dim, MAX_CONST);
        let mut up = a.clone();
        up.up();
        assert_roundtrip(&up, &format!("round {round}: up"));
        let mut down = a.clone();
        down.down();
        assert_roundtrip(&down, &format!("round {round}: down"));
        let clock = 1 + (round % (dim - 1));
        let mut freed = a.clone();
        freed.free(clock);
        assert_roundtrip(&freed, &format!("round {round}: free"));
        let mut reset = a.clone();
        reset.reset(clock, (round % 5) as i32);
        assert_roundtrip(&reset, &format!("round {round}: reset"));
        if let Some(meet) = a.intersection(&b) {
            assert_roundtrip(&meet, &format!("round {round}: intersect"));
        }
        for (i, piece) in zone_subtract(&a, &b).iter().enumerate() {
            assert_roundtrip(piece, &format!("round {round}: subtract piece {i}"));
        }
        let good = Federation::from_zone(a.clone());
        let bad = Federation::from_zone(b.clone());
        for (i, zone) in good.pred_t(&bad).iter().enumerate() {
            assert_roundtrip(zone, &format!("round {round}: pred_t member {i}"));
        }
    }
}

#[test]
fn zone_set_mirrors_insert_subsumed_on_random_traffic() {
    let mut rng = StdRng::seed_from_u64(0x5E7_F00D);
    for round in 0..120 {
        let dim = 2 + (round % 3);
        let mut store = ZoneStore::new(dim);
        let mut set = ZoneSet::new();
        let mut twin = ZoneSet::new();
        let mut fed = Federation::empty(dim);
        // Offer traffic with deliberate re-offers, like the solver's
        // subsumption-heavy passed lists.
        let mut pool: Vec<Dbm> = (0..6)
            .map(|_| random_zone(&mut rng, dim, MAX_CONST))
            .collect();
        for step in 0..24 {
            let zone = if rng.gen_bool(0.4) {
                pool[rng.gen_range(0..pool.len())].clone()
            } else {
                let z = random_zone(&mut rng, dim, MAX_CONST);
                pool.push(z.clone());
                z
            };
            let expect = fed.insert_subsumed(zone.clone());
            let got = set.insert(&mut store, &zone);
            assert_eq!(
                got.is_some(),
                expect,
                "round {round} step {step}: verdict diverged on {zone:?}"
            );
            if let Some(id) = got {
                assert_eq!(set.ids().last(), Some(&id), "round {round} step {step}");
            }
            twin.insert(&mut store, &zone);
            assert_eq!(
                set.to_federation(&store),
                fed,
                "round {round} step {step}: member sequences diverged"
            );
            assert!(
                set.set_equals_interned(&twin),
                "round {round} step {step}: identical traffic, different id sets"
            );
        }
        assert_eq!(set.len(), fed.len());
        // The interned members stay pairwise incomparable, like the
        // federation's.
        let ids = set.ids().to_vec();
        for &x in &ids {
            for &y in &ids {
                if x != y {
                    assert_eq!(
                        store.relation(x, y),
                        tiga_dbm::Relation::Different,
                        "round {round}: comparable members survived"
                    );
                }
            }
        }
    }
}
