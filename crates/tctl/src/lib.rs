//! # tiga-tctl — test purposes for timed games, and the shared expression front end
//!
//! Parser and evaluator for the test-purpose language of
//! *"A Game-Theoretic Approach to Real-Time System Testing"* (DATE 2008):
//! an annotated subset of TCTL of the form
//!
//! ```text
//! control: A<> <state predicate>     (reachability purposes)
//! control: A[] <state predicate>     (safety purposes, extension)
//! ```
//!
//! State predicates combine location tests (`IUT.Bright`), comparisons over
//! bounded integer variables and arrays (`inUse[i] == 1`), boolean
//! connectives (`and`, `or`, `not`, `imply`) and bounded quantifiers
//! (`forall (i: BufferId) ...`), exactly the forms used by the paper's
//! purposes TP1–TP3.
//!
//! The crate also holds the front end that `tiga-lang` builds `.tg` files
//! on, so that objectives and model expressions are one language: the
//! spanned lexer ([`tokenize`]), the diagnostics ([`LangError`], [`Span`]),
//! the unresolved syntax tree ([`ExprAst`], [`ControlAst`]), the token
//! cursor with its precedence climber ([`Parser`]), the resolver that turns
//! names into model expressions ([`Resolver`]) and the expression printer
//! ([`expr_to_tg`]).  `!` binds tightest and `not` loosely, as in
//! UPPAAL; see [`Parser`] for the grammar.
//!
//! # Example
//!
//! ```
//! use tiga_model::{AutomatonBuilder, SystemBuilder};
//! use tiga_tctl::TestPurpose;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut builder = SystemBuilder::new("light");
//! builder.int_array("inUse", 2, 0, 1, 0)?;
//! let mut iut = AutomatonBuilder::new("IUT");
//! iut.location("Off")?;
//! iut.location("Bright")?;
//! builder.add_automaton(iut.build()?)?;
//! let system = builder.build()?;
//!
//! let tp = TestPurpose::parse(
//!     "control: A<> IUT.Bright and forall (i: inUse) (inUse[i] == 0)",
//!     &system,
//! )?;
//! let initial = system.initial_discrete();
//! assert!(!tp.predicate.holds(&system, &initial)?);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod error;
mod lexer;
mod parser;
mod printer;
mod syntax;

pub use ast::{DisplayPredicate, PathQuantifier, StatePredicate, TestPurpose};
pub use error::{LangError, LangErrorKind, Span};
pub use lexer::{tokenize, Token, TokenKind};
pub use parser::{
    is_bare_name, parse_predicate, Parser, Resolver, KEYWORDS, MAX_ARRAY_SIZE, MAX_EXPR_DEPTH,
};
pub use printer::{expr_to_tg, quoted};
pub use syntax::{ArithOp, ControlAst, ExprAst, ExprKind, RangeAst, Spanned};
