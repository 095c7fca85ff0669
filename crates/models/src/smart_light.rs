//! The Smart Light case study (Figs. 2 and 3 of the paper).
//!
//! A touch-controlled light with three brightness levels (`Off`, `Dim`,
//! `Bright`).  Touch interactions are *controllable* (the user/tester decides
//! when to touch); the light's reactions are *uncontrollable* outputs with
//! timing uncertainty: after a touch the light has up to
//! [`OUTPUT_JITTER`] time units to decide and announce its new level.
//!
//! The model keeps the structure of the paper's Fig. 2: intermediate
//! "output pending" locations `L1`–`L6` with invariant `Tp <= 2`, a
//! reactivation threshold [`T_IDLE`] and a switching threshold [`T_SW`], and
//! a user automaton (Fig. 3) with reaction time [`T_REACT`].
//!
//! The model is the checked-in `examples/tg/smart_light.tg` (the product)
//! and `examples/tg/smart_light.plant.tg` (the light alone); [`product`]
//! and [`plant`] parse them.

use tiga_lang::{parse_model, LangError};
use tiga_model::System;

/// Idle-time threshold after which a touch reactivates the light (Fig. 2).
pub const T_IDLE: i64 = 20;
/// Switching threshold: a second touch within `T_SW` brightens, after `T_SW`
/// switches off (Fig. 2).
pub const T_SW: i64 = 4;
/// Reaction time of the user model (Fig. 3).
pub const T_REACT: i64 = 1;
/// Maximum time the light may take to produce its output after a touch.
pub const OUTPUT_JITTER: i64 = 2;

/// The test purpose of the paper's running example: the tester can always
/// drive the light to `Bright`.
pub const PURPOSE_BRIGHT: &str = "control: A<> IUT.Bright";
/// Reaching the `Dim` level.
pub const PURPOSE_DIM: &str = "control: A<> IUT.Dim";
/// Reaching `Bright` while the user model is back in its initial location.
pub const PURPOSE_BRIGHT_AND_USER_READY: &str = "control: A<> IUT.Bright and User.Init";
/// Safety purpose: the tester can keep the light from ever going `Bright` —
/// a safety game (dual greatest fixpoint): the user must avoid the
/// reactivation touch after a long idle period (`L5` may answer `bright!`)
/// and must never double-touch into `L6` (where `bright!` is forced).
pub const PURPOSE_NEVER_BRIGHT: &str = "control: A[] not IUT.Bright";

/// The plant model alone (the light of Fig. 2), used as the tioco
/// specification and as the basis for simulated implementations.
///
/// # Errors
///
/// Never fails in practice: the checked-in file parses (pinned by the tests).
pub fn plant() -> Result<System, LangError> {
    parse_model(include_str!("../../../examples/tg/smart_light.plant.tg")).map(|m| m.system)
}

/// The closed game product: light (Fig. 2) composed with the user model
/// (Fig. 3).  Strategies are synthesized on this system.
///
/// # Errors
///
/// Never fails in practice: the checked-in file parses (pinned by the tests).
pub fn product() -> Result<System, LangError> {
    parse_model(include_str!("../../../examples/tg/smart_light.tg")).map(|m| m.system)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiga_lang::print_system;
    use tiga_solver::{solve_jacobi, SolveOptions};
    use tiga_tctl::TestPurpose;

    #[test]
    fn models_build_and_have_expected_structure() {
        let plant = plant().unwrap();
        assert_eq!(plant.automata().len(), 1);
        assert_eq!(plant.clocks().len(), 2);
        assert_eq!(plant.channels().len(), 4);
        // Fig. 2 has the three levels plus six intermediate locations.
        assert_eq!(plant.automata()[0].locations().len(), 9);
        let product = product().unwrap();
        assert_eq!(product.automata().len(), 2);
        assert_eq!(product.clocks().len(), 3);
        assert!(product.location_by_qualified_name("IUT.Bright").is_some());
        assert!(product.location_by_qualified_name("User.Work").is_some());
    }

    #[test]
    fn timing_constants_match_the_model() {
        let printed = print_system(&product().unwrap(), None);
        let mut expected = vec![
            format!("edge Off -> L1 on touch? {{ guard x < {T_IDLE}; reset x; reset Tp }}"),
            format!("edge Off -> L5 on touch? {{ guard x >= {T_IDLE}; reset x; reset Tp }}"),
            format!("edge Dim -> L6 on touch? {{ guard x < {T_SW}; reset x; reset Tp }}"),
            format!("edge Dim -> L4 on touch? {{ guard x >= {T_SW}; reset x; reset Tp }}"),
            format!("edge Bright -> L2 on touch? {{ guard x < {T_SW}; reset x; reset Tp }}"),
            format!("edge Bright -> L3 on touch? {{ guard x >= {T_SW}; reset x; reset Tp }}"),
            format!("edge Init -> Work on touch! {{ guard z >= {T_REACT}; reset z }}"),
            format!("edge Work -> Work on touch! {{ guard z >= {T_REACT}; reset z }}"),
        ];
        for i in 1..=6 {
            expected.push(format!("location L{i} {{ inv Tp <= {OUTPUT_JITTER} }}"));
        }
        for line in expected {
            assert!(printed.lines().any(|l| l.trim() == line), "no `{line}`");
        }
    }

    #[test]
    fn bright_purpose_is_enforceable() {
        let product = product().unwrap();
        let tp = TestPurpose::parse(PURPOSE_BRIGHT, &product).unwrap();
        let solution = solve_jacobi(&product, &tp, &SolveOptions::default()).unwrap();
        assert!(
            solution.winning_from_initial,
            "A<> IUT.Bright must be winnable"
        );
        assert!(solution.strategy.is_some());
    }

    #[test]
    fn dim_purpose_is_enforceable() {
        let product = product().unwrap();
        let tp = TestPurpose::parse(PURPOSE_DIM, &product).unwrap();
        let solution = solve_jacobi(&product, &tp, &SolveOptions::default()).unwrap();
        assert!(
            solution.winning_from_initial,
            "A<> IUT.Dim must be winnable"
        );
    }

    #[test]
    fn combined_purpose_is_enforceable() {
        let product = product().unwrap();
        let tp = TestPurpose::parse(PURPOSE_BRIGHT_AND_USER_READY, &product).unwrap();
        let solution = solve_jacobi(&product, &tp, &SolveOptions::default()).unwrap();
        assert!(solution.winning_from_initial);
    }

    #[test]
    fn bright_is_avoidable() {
        // The safety game `A[] not IUT.Bright` is winning: the user can
        // withhold the reactivation and escalation touches forever.
        let product = product().unwrap();
        let tp = TestPurpose::parse(PURPOSE_NEVER_BRIGHT, &product).unwrap();
        let solution = solve_jacobi(&product, &tp, &SolveOptions::default()).unwrap();
        assert!(solution.winning_from_initial);
        assert!(solution.strategy.is_some(), "a safe controller exists");
    }
}
