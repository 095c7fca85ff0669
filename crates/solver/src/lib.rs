//! # tiga-solver — symbolic timed-game solving and strategy synthesis
//!
//! This crate is the reproduction's stand-in for UPPAAL-TIGA: given a
//! [`tiga_model::System`] (a network of timed I/O game automata) and a
//! [`tiga_tctl::TestPurpose`] — reachability (`control: A<> φ`) or safety
//! (`control: A[] φ`) — it computes the winning states of the
//! corresponding timed game with zone federations and synthesizes a
//! state-based winning [`Strategy`] — the object the paper uses as a
//! *test case*.  Safety games are solved through the dual fixpoint: the
//! complement of the tester's safe set is the environment's reachability
//! attractor into `¬φ`, computed by the very same machinery with the
//! players' roles swapped (see [`crate::solve`] and the `winning` module
//! docs); the extracted controller is safe and possibly non-terminating.
//!
//! Two engines are provided behind the [`solve`] entry point, selected by
//! [`SolveOptions::engine`]:
//!
//! * [`SolveEngine::Otfur`] (default) — on-the-fly solving: forward zone
//!   exploration and backward winning-federation propagation interleave in
//!   one waiting/passed-list search with zone subsumption, losing-subtree
//!   pruning and early termination once the initial state is decided; the
//!   [`Strategy`] is extracted during the search;
//! * [`SolveEngine::Jacobi`] — eager exploration of the full game graph
//!   ([`GameGraph`]) followed by a round-based fixpoint with rank-annotated
//!   strategy extraction (the differential-testing oracle, also reachable
//!   directly via [`solve_jacobi`]).
//!
//! Both engines share the controllable-predecessor update (safe
//! time-predecessors, uncontrollable escapes and invariant-forced moves),
//! the strategy recorder, and one forward-exploration core: the
//! [`tiga_model::Explorer`] plus the hash-consed [`tiga_dbm::ZoneStore`]
//! that holds their passed lists.
//!
//! # Example
//!
//! ```
//! use tiga_model::{AutomatonBuilder, ClockConstraint, CmpOp, EdgeBuilder, SystemBuilder};
//! use tiga_solver::{solve_jacobi, SolveOptions};
//! use tiga_tctl::TestPurpose;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A plant that must reply within 3 time units of being kicked.
//! let mut b = SystemBuilder::new("demo");
//! let x = b.clock("x")?;
//! let kick = b.input_channel("kick")?;
//! let reply = b.output_channel("reply")?;
//! let mut plant = AutomatonBuilder::new("Plant");
//! let idle = plant.location("Idle")?;
//! let busy = plant.location("Busy")?;
//! let done = plant.location("Done")?;
//! plant.set_invariant(busy, vec![ClockConstraint::new(x, CmpOp::Le, 3)]);
//! plant.add_edge(EdgeBuilder::new(idle, busy).input(kick).reset(x));
//! plant.add_edge(
//!     EdgeBuilder::new(busy, done)
//!         .output(reply)
//!         .guard_clock(ClockConstraint::new(x, CmpOp::Ge, 1)),
//! );
//! b.add_automaton(plant.build()?)?;
//! let mut user = AutomatonBuilder::new("User");
//! let u = user.location("U")?;
//! user.add_edge(EdgeBuilder::new(u, u).output(kick));
//! user.add_edge(EdgeBuilder::new(u, u).input(reply));
//! b.add_automaton(user.build()?)?;
//! let system = b.build()?;
//!
//! let purpose = TestPurpose::parse("control: A<> Plant.Done", &system)?;
//! let solution = solve_jacobi(&system, &purpose, &SolveOptions::default())?;
//! assert!(solution.winning_from_initial);
//! let strategy = solution.strategy.expect("a winning strategy is synthesized");
//! println!("{}", strategy.display(&system)); // Fig. 5 style listing
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod controller;
mod error;
mod graph;
pub mod json;
mod minimize;
mod otfur;
mod serialize;
mod stats;
mod strategy;
mod winning;

pub use cache::{CacheEntry, CacheStats, SolveCache};
pub use controller::{
    parse_controller, print_controller, print_controller_source, CompiledController, Controller,
    ControllerFile,
};
pub use error::SolverError;
pub use graph::{objective_liveness, ExploreOptions, GameGraph, GameNode, GraphEdge, NodeId};
pub use minimize::{minimize_strategy, minimize_strategy_with_report, MinimizeReport};
pub use serialize::{
    parse_strategy, print_strategy, StrategyFile, CONTROLLER_FORMAT_HEADER, STRATEGY_FORMAT_HEADER,
};
pub use stats::{SolverStats, TimedStats};
pub use strategy::{Decision, DisplayStrategy, Strategy, StrategyDecision, StrategyRule};
pub use winning::{
    bounded_system, solve, solve_jacobi, GameSolution, SolveEngine, SolveOptions, TICK_CLOCK,
};
