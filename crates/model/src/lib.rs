//! # tiga-model — Timed I/O Game Automata
//!
//! Modelling framework for the reproduction of *"A Game-Theoretic Approach to
//! Real-Time System Testing"* (David, Larsen, Li, Nielsen — DATE 2008).
//!
//! A model is a [`System`]: a network of timed automata whose actions are
//! partitioned, via their synchronization channels, into *controllable*
//! inputs (offered by the tester/environment) and *uncontrollable* outputs
//! (produced by the plant).  This is exactly the Timed I/O Game Automaton
//! (TIOGA) setting of the paper.
//!
//! The crate provides:
//!
//! * an expression language over bounded integer variables ([`Expr`]),
//! * automata with guards, invariants, resets and updates
//!   ([`Automaton`], [`Edge`], [`Location`]),
//! * fluent builders ([`SystemBuilder`], [`AutomatonBuilder`], [`EdgeBuilder`]),
//! * symbolic (zone-based) semantics used by the timed-game solver
//!   ([`DiscreteState`], [`SymbolicState`], [`JointEdge`]),
//! * concrete tick-based semantics — the underlying TIOTS — used by the
//!   test executor, the conformance monitor and simulated implementations
//!   ([`Interpreter`], [`ConcreteState`]): a thin layer over the symbolic
//!   one, whose states carry a [`DiscreteState`] and whose steps share the
//!   symbolic layer's edge effect and joint-edge pairing.
//!
//! # Example
//!
//! Building the user automaton of the paper's Smart Light example (Fig. 3):
//!
//! ```
//! use tiga_model::{AutomatonBuilder, ClockConstraint, CmpOp, EdgeBuilder, SystemBuilder};
//!
//! # fn main() -> Result<(), tiga_model::ModelError> {
//! let mut builder = SystemBuilder::new("smart-light");
//! let z = builder.clock("z")?;
//! let touch = builder.input_channel("touch")?;
//!
//! let mut user = AutomatonBuilder::new("User");
//! let idle = user.location("Init")?;
//! let work = user.location("Work")?;
//! user.add_edge(
//!     EdgeBuilder::new(idle, work)
//!         .output(touch) // the user *sends* touch to the light
//!         .guard_clock(ClockConstraint::new(z, CmpOp::Ge, 1))
//!         .reset(z),
//! );
//! user.add_edge(EdgeBuilder::new(work, idle));
//! builder.add_automaton(user.build()?)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod automaton;
mod builder;
mod decl;
mod error;
mod explorer;
mod expr;
mod ids;
mod liveness;
mod symbolic;
mod system;
mod tiots;

pub use automaton::{
    clock_cmp, clock_ref, Assignment, Automaton, ClockConstraint, ClockReset, Edge, Guard,
    Location, Sync,
};
pub use builder::{AutomatonBuilder, EdgeBuilder, SystemBuilder};
pub use decl::{Action, Channel, ChannelKind, ClockDecl, ClockRef, IoDir, VarDecl, VarTable};
pub use error::{EvalError, ModelError};
pub use explorer::{CandidateStep, ExploredState, Explorer, StateIndex};
pub use expr::{CmpOp, Expr};
pub use ids::{AutomatonId, ChannelId, ClockId, EdgeId, LocationId, VarId};
pub use liveness::Liveness;
pub use symbolic::{DiscreteState, DisplayDiscreteState, JointEdge, SymbolicState};
pub use system::System;
pub use tiga_dbm::MAX_CONSTANT;
pub use tiots::{ConcreteState, EdgeRef, Interpreter};
