//! # tiga-testing — game-based conformance testing of real-time systems
//!
//! This crate implements the primary contribution of
//! *"A Game-Theoretic Approach to Real-Time System Testing"*
//! (David, Larsen, Li, Nielsen — DATE 2008): using winning strategies of
//! timed games as test cases for uncontrollable real-time systems, and
//! executing them against black-box implementations under the **tioco**
//! conformance relation.
//!
//! The pieces map one-to-one onto the paper's framework (Fig. 4):
//!
//! * [`TestHarness`] — SPEC (TIOGA) + test purpose → winning strategy
//!   (via [`tiga_solver`]), bundled as an executable test case;
//! * [`TestExecutor`] — Algorithm 3.1: drive the implementation with the
//!   strategy, observing outputs and delays;
//! * [`SpecMonitor`] — the tioco check `Out(i After σ) ⊆ Out(s After σ)`
//!   performed online on every observation;
//! * [`Verdict`] — `pass` / `fail` (plus an explicit inconclusive outcome);
//! * [`Iut`], [`SimulatedIut`] — the black-box implementation interface and a
//!   simulator realizing the paper's test hypotheses (deterministic,
//!   input-enabled implementations with concrete output schedules);
//! * [`generate_mutants`], [`run_mutation_campaign`], [`RandomTester`] —
//!   fault injection and the fault-detection experiments (the paper's
//!   future-work item on test effectiveness).
//!
//! # Example
//!
//! ```
//! use tiga_model::{AutomatonBuilder, ClockConstraint, CmpOp, EdgeBuilder, SystemBuilder};
//! use tiga_testing::{OutputPolicy, SimulatedIut, TestConfig, TestHarness};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Plant: after `req?` it must reply `resp!` within [1, 3] time units.
//! let mut b = SystemBuilder::new("demo");
//! let x = b.clock("x")?;
//! let req = b.input_channel("req")?;
//! let resp = b.output_channel("resp")?;
//! let mut plant = AutomatonBuilder::new("Plant");
//! let idle = plant.location("Idle")?;
//! let busy = plant.location("Busy")?;
//! let done = plant.location("Done")?;
//! plant.set_invariant(busy, vec![ClockConstraint::new(x, CmpOp::Le, 3)]);
//! plant.add_edge(EdgeBuilder::new(idle, busy).input(req).reset(x));
//! plant.add_edge(
//!     EdgeBuilder::new(busy, done)
//!         .output(resp)
//!         .guard_clock(ClockConstraint::new(x, CmpOp::Ge, 1)),
//! );
//! b.add_automaton(plant.build()?)?;
//! // Environment model: may send `req` and receive `resp` at any time.
//! let mut user = AutomatonBuilder::new("User");
//! let u = user.location("U")?;
//! user.add_edge(EdgeBuilder::new(u, u).output(req));
//! user.add_edge(EdgeBuilder::new(u, u).input(resp));
//! b.add_automaton(user.build()?)?;
//! let product = b.build()?;
//!
//! // Synthesize the test case for the purpose "reach Plant.Done".
//! let harness = TestHarness::synthesize(
//!     product.clone(),
//!     product.clone(),
//!     "control: A<> Plant.Done",
//!     TestConfig::default(),
//! )?;
//!
//! // Run it against a (conformant) simulated implementation.
//! let mut iut = SimulatedIut::new("impl", product, 4, OutputPolicy::Lazy);
//! let report = harness.execute(&mut iut)?;
//! assert!(report.verdict.is_pass());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
mod exec;
mod harness;
mod iut;
mod monitor;
mod mutation;
mod trace;
mod verdict;

pub use campaign::{
    default_policies, derive_run_seed, run_mutation_campaign, run_mutation_campaign_with,
    run_random_campaign, run_random_campaign_with, CampaignOptions, CampaignRun, CampaignSummary,
    RandomTester,
};
pub use exec::{TestConfig, TestExecutor, TestReport};
pub use harness::{HarnessError, TestHarness};
pub use iut::{DelayOutcome, Iut, OutputPolicy, ScriptedIut, SimulatedIut};
pub use monitor::{MonitorOutcome, SpecMonitor};
pub use mutation::{generate_mutants, rebuild_system, Mutant, MutationConfig};
pub use trace::{DisplayTrace, TimedTrace, TraceStep};
pub use verdict::{FailReason, InconclusiveReason, Verdict};
