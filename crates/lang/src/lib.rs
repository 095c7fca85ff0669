//! # tiga-lang — the `.tg` textual modeling language for timed games
//!
//! Until this crate existed, every timed-game model had to be hand-written
//! in Rust against [`tiga_model`]'s builders — scenario diversity required
//! recompiling the workspace.  `.tg` is a small declarative surface syntax
//! for networks of timed I/O game automata: clocks, bounded discrete
//! variables, channels with controllability (`input` / `output` /
//! `internal`), locations with invariants and urgency, edges with clock
//! guards, data guards, resets and updates, and a `control:` objective in
//! the `tiga-tctl` TCTL subset.
//!
//! The implementation is the classic three-stage pipeline:
//!
//! 1. [`tokenize`] — a lexer producing tokens with byte [`Span`]s;
//! 2. [`parse_file`] — a recursive-descent parser producing an unresolved
//!    [`FileAst`]; expressions and the objective go through the same
//!    precedence climber ([`tiga_tctl::Parser`]), so an objective can name
//!    anything a declaration can;
//! 3. [`lower_file`] — name resolution and lowering onto
//!    [`tiga_model::SystemBuilder`], yielding a ready-to-solve [`TgModel`].
//!
//! [`parse_model`] runs all three.  Every error is a [`LangError`] carrying
//! the span of the offending source; [`LangError::render`] produces a
//! rustc-style report with a caret underline.
//!
//! The inverse direction is [`print_system`]: any in-memory
//! [`tiga_model::System`] pretty-prints back to `.tg`, with the round-trip
//! guarantee `parse(print(sys)) ≡ sys` (structural equality), pinned across
//! the model zoo and seeded mutants by `tests/roundtrip.rs`.
//!
//! # Example
//!
//! ```
//! use tiga_lang::{parse_model, print_system};
//!
//! let source = r#"
//! system "demo"
//! clock x
//! input kick
//! output reply
//!
//! automaton Plant {
//!     init location Idle
//!     location Busy { inv x <= 3 }
//!     location Done
//!     edge Idle -> Busy on kick? { reset x }
//!     edge Busy -> Done on reply! { guard x >= 1 }
//! }
//!
//! automaton User {
//!     init location U
//!     edge U -> U on kick!
//!     edge U -> U on reply?
//! }
//!
//! control: A<> Plant.Done
//! "#;
//!
//! let model = parse_model(source).expect("parses");
//! assert_eq!(model.system.name(), "demo");
//! assert!(model.purpose.is_some());
//!
//! // Round trip: printing and re-parsing reproduces the same system.
//! let printed = print_system(&model.system, model.purpose.as_ref());
//! let again = parse_model(&printed).expect("printer output parses");
//! assert_eq!(again.system, model.system);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
mod lower;
mod parser;
mod printer;

pub use ast::FileAst;
pub use lower::{lower_file, TgModel, DEFAULT_SYSTEM_NAME};
pub use parser::parse_file;
pub use printer::{constraint_to_tg, control_line, control_line_for, print_system};
pub use tiga_tctl::{
    expr_to_tg, is_bare_name, quoted, tokenize, LangError, LangErrorKind, Span, Token, TokenKind,
    KEYWORDS, MAX_ARRAY_SIZE,
};

/// Parses and lowers `.tg` source in one step.
///
/// # Errors
///
/// Returns the first span-carrying [`LangError`] from any stage (lexing,
/// parsing, lowering, or the `control:` objective).
pub fn parse_model(source: &str) -> Result<TgModel, LangError> {
    lower_file(&parse_file(source)?)
}
