//! # tiga — game-theoretic testing of real-time systems
//!
//! A Rust reproduction of *"A Game-Theoretic Approach to Real-Time System
//! Testing"* (Alexandre David, Kim G. Larsen, Shuhao Li, Brian Nielsen —
//! DATE 2008, DOI 10.1145/1403375.1403491).
//!
//! The facade crate re-exports the workspace members:
//!
//! * [`model`] ([`tiga_model`]) — Timed I/O Game Automata: clocks, bounded
//!   integer variables, channels, networks, symbolic and concrete semantics;
//! * [`dbm`] ([`tiga_dbm`]) — zones and federations (the symbolic substrate);
//! * [`tctl`] ([`tiga_tctl`]) — `control: A<> φ` test purposes;
//! * [`solver`] ([`tiga_solver`]) — timed-game solving and winning-strategy
//!   synthesis (the UPPAAL-TIGA stand-in);
//! * [`testing`] ([`tiga_testing`]) — tioco conformance testing with winning
//!   strategies as test cases (the paper's contribution);
//! * [`models`] ([`tiga_models`]) — the Smart Light, Leader Election
//!   Protocol and coffee-machine case studies: the smart light and the
//!   coffee machine are the checked-in `examples/tg/` files, parsed, and
//!   `leader_election` generates the lepN family for any node count;
//! * [`lang`] ([`tiga_lang`]) — the `.tg` textual modeling language (lexer →
//!   parser → lowering, plus the `print_system` serializer); the `tiga`
//!   command line in `crates/cli` drives solve/test/zoo workflows from `.tg`
//!   files;
//! * [`gen`] ([`tiga_gen`]) — seeded random timed-game generation, the
//!   differential fuzzing oracles (engine agreement, printer/parser
//!   roundtrip, zone-algebra reference model) and the shrinker behind
//!   `tiga fuzz`.
//!
//! Benchmarks live in the separate `tiga-bench` crate (`crates/bench`), and
//! `crates/vendor` holds API-compatible stand-ins for `rand`, `proptest` and
//! `criterion` for the offline build environment.  `cargo build --release`,
//! `cargo test -q` and `cargo bench --no-run` cover the whole workspace from
//! the repository root; see `README.md` for the full command set and layout.
//!
//! # Parallel campaigns
//!
//! Mutation campaigns run every `(policy, implementation)` pair concurrently
//! on a sharded work queue while staying **bit-identical for any thread
//! count**: job `i` is seeded with `mix64(master_seed ^ mix64(i))` before
//! scheduling, and per-job summaries are merged in job order.  See
//! [`testing::CampaignOptions`], [`testing::run_mutation_campaign_with`] and
//! the `tiga_testing::campaign` module docs for the scheme.
//!
//! # Quickstart
//!
//! ```
//! use tiga::models::smart_light;
//! use tiga::testing::{OutputPolicy, SimulatedIut, TestConfig, TestHarness};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Synthesize a test case for "the light can always be driven to Bright".
//! let harness = TestHarness::synthesize(
//!     smart_light::product()?,
//!     smart_light::plant()?,
//!     smart_light::PURPOSE_BRIGHT,
//!     TestConfig::default(),
//! )?;
//!
//! // 2. Execute it against a (conformant, timing-uncertain) implementation.
//! let mut iut = SimulatedIut::new(
//!     "light-impl",
//!     smart_light::plant()?,
//!     harness.config().scale,
//!     OutputPolicy::Jittery { seed: 7 },
//! );
//! let report = harness.execute(&mut iut)?;
//! assert!(report.verdict.is_pass());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tiga_dbm as dbm;
pub use tiga_gen as gen;
pub use tiga_lang as lang;
pub use tiga_model as model;
pub use tiga_models as models;
pub use tiga_solver as solver;
pub use tiga_tctl as tctl;
pub use tiga_testing as testing;
