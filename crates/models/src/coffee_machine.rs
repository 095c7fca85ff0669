//! A timed coffee-machine model, used as an additional, self-contained
//! example of game-based test generation (it is not part of the paper's
//! evaluation but exercises the same ingredients: uncontrollable outputs,
//! timing uncertainty, and deadlines).
//!
//! Behaviour:
//!
//! * after `coin?`, the machine waits for a selection; if no button is
//!   pressed within 10 time units it refunds the coin (`refund!`) within 2
//!   further time units;
//! * after `button?`, it brews and serves `coffee!` 3 to [`BREW_MAX`] time
//!   units later — the exact serving moment is uncontrollable.
//!
//! The model is the checked-in `examples/tg/coffee_machine.tg` (the
//! product) and `examples/tg/coffee_machine.plant.tg` (the machine alone);
//! [`product`] and [`plant`] parse them.

use tiga_lang::{parse_model, LangError};
use tiga_model::System;

/// Latest serving time after the button is pressed.
pub const BREW_MAX: i64 = 5;

/// Test purpose: a coffee can always be obtained.
pub const PURPOSE_COFFEE: &str = "control: A<> Machine.Served";
/// Test purpose: the refund path can always be exercised.
pub const PURPOSE_REFUND: &str = "control: A<> Machine.Refunded";
/// Safety purpose: the tester can keep the machine from ever refunding —
/// winning by pressing the button before the selection timeout whenever a
/// coin is in (a safety game: the dual greatest fixpoint).
pub const PURPOSE_NO_REFUND: &str = "control: A[] not Machine.Refunded";

/// The plant model alone.
///
/// # Errors
///
/// Never fails in practice: the checked-in file parses (pinned by the tests).
pub fn plant() -> Result<System, LangError> {
    parse_model(include_str!("../../../examples/tg/coffee_machine.plant.tg")).map(|m| m.system)
}

/// The closed game product: machine composed with a customer model that may
/// insert coins, press the button and observe the outputs.
///
/// # Errors
///
/// Never fails in practice: the checked-in file parses (pinned by the tests).
pub fn product() -> Result<System, LangError> {
    parse_model(include_str!("../../../examples/tg/coffee_machine.tg")).map(|m| m.system)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiga_lang::print_system;
    use tiga_solver::{solve_jacobi, SolveOptions};
    use tiga_tctl::TestPurpose;

    #[test]
    fn models_build() {
        let plant = plant().unwrap();
        assert_eq!(plant.automata().len(), 1);
        assert_eq!(plant.channels().len(), 4);
        let product = product().unwrap();
        assert_eq!(product.automata().len(), 2);
        assert_eq!(product.clocks().len(), 2);
    }

    #[test]
    fn brew_max_matches_the_model() {
        let printed = print_system(&product().unwrap(), None);
        let line = format!("location Brewing {{ inv x <= {BREW_MAX} }}");
        assert!(printed.lines().any(|l| l.trim() == line), "no `{line}`");
    }

    #[test]
    fn both_purposes_are_enforceable() {
        let product = product().unwrap();
        for purpose in [PURPOSE_COFFEE, PURPOSE_REFUND] {
            let tp = TestPurpose::parse(purpose, &product).unwrap();
            let solution = solve_jacobi(&product, &tp, &SolveOptions::default()).unwrap();
            assert!(solution.winning_from_initial, "{purpose} must be winnable");
        }
    }

    #[test]
    fn refunds_are_avoidable() {
        // The safety game `A[] not Machine.Refunded` is winning: once a
        // coin is in, pressing the button before the selection timeout
        // forecloses the refund edge forever.
        let product = product().unwrap();
        let tp = TestPurpose::parse(PURPOSE_NO_REFUND, &product).unwrap();
        let solution = solve_jacobi(&product, &tp, &SolveOptions::default()).unwrap();
        assert!(solution.winning_from_initial);
        assert!(solution.strategy.is_some(), "a safe controller exists");
    }
}
