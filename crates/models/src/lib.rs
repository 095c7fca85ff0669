//! # tiga-models — case-study models from David et al., DATE 2008
//!
//! This crate provides ready-made [`tiga_model::System`]s for the paper's
//! case studies and one additional example:
//!
//! * [`smart_light`] — the running example (Figs. 2 and 3): a touch-controlled
//!   light with uncontrollable, timing-uncertain reactions;
//! * [`leader_election`] — the Leader Election Protocol of Section 4,
//!   parametric in the number of nodes, with the paper's test purposes
//!   TP1–TP3 (Table 1);
//! * [`coffee_machine`] — an extra self-contained example used by the
//!   quickstart and documentation.
//!
//! The smart light and the coffee machine *are* their checked-in `.tg`
//! files under `examples/tg/` (`<model>.tg` for the product,
//! `<model>.plant.tg` for the plant): `product()` and `plant()` parse them
//! with [`tiga_lang::parse_model`] and drop a product file's `control:`
//! line, because callers pick their own purpose.  [`leader_election`] is a
//! generator: it builds the LEP product and plant for any node count (the
//! lepN scaling family), and its tests pin the checked-in `lep3`/`lep4`
//! files to its output byte for byte.
//!
//! Each module exposes a `plant()` (the specification / implementation basis)
//! and a `product()` (the closed plant∥environment game) together with the
//! relevant test-purpose strings.
//!
//! # Example
//!
//! ```
//! use tiga_models::smart_light;
//! use tiga_solver::{solve_jacobi, SolveOptions};
//! use tiga_tctl::TestPurpose;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let product = smart_light::product()?;
//! let purpose = TestPurpose::parse(smart_light::PURPOSE_BRIGHT, &product)?;
//! let solution = solve_jacobi(&product, &purpose, &SolveOptions::default())?;
//! assert!(solution.winning_from_initial);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coffee_machine;
pub mod leader_election;
pub mod smart_light;
