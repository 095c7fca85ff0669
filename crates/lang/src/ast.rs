//! Surface syntax tree of a `.tg` file.
//!
//! The AST is deliberately *unresolved*: names are plain strings with spans,
//! and it is the lowering stage ([`crate::lower_file`]) that resolves them
//! against the declarations and reports span-carrying errors for unknown or
//! duplicated names.  Expressions and the `control:` objective use the
//! syntax tree of `tiga-tctl`, which parses them.

use tiga_model::CmpOp;
use tiga_tctl::Span;
pub use tiga_tctl::{ArithOp, ControlAst, ExprAst, ExprKind, RangeAst, Spanned};

/// Kind of a channel declaration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChannelKindAst {
    /// `input name` — controllable (tester) actions.
    Input,
    /// `output name` — uncontrollable (plant) actions.
    Output,
    /// `internal name` — controllability taken from the edges.
    Internal,
}

/// A `var` or `const` declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VarDeclAst {
    /// Declared name.
    pub name: Spanned<String>,
    /// Array size (`None` for scalars).
    pub size: Option<Spanned<i64>>,
    /// Inclusive lower bound.
    pub lower: i64,
    /// Inclusive upper bound.
    pub upper: i64,
    /// Initial value of every element.
    pub initial: i64,
    /// Whether this came from a `const` declaration (singleton range).
    pub is_const: bool,
    /// Span of the whole declaration.
    pub span: Span,
}

/// A clock constraint `c op bound` or `c - c' op bound`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConstraintAst {
    /// Left-hand clock name.
    pub left: Spanned<String>,
    /// Optional subtracted clock (diagonal constraints).
    pub minus: Option<Spanned<String>>,
    /// Comparison operator.
    pub op: CmpOp,
    /// Bound expression over discrete variables.
    pub bound: ExprAst,
    /// Span of the whole constraint.
    pub span: Span,
}

/// A location declaration inside an automaton.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LocationAst {
    /// Location name.
    pub name: Spanned<String>,
    /// Whether the location is marked `init`.
    pub init: bool,
    /// Whether the location is marked `urgent`.
    pub urgent: bool,
    /// Invariant constraints (conjunction).
    pub invariant: Vec<ConstraintAst>,
    /// Span of the whole declaration.
    pub span: Span,
}

/// Synchronization annotation of an edge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SyncAst {
    /// Channel name.
    pub channel: Spanned<String>,
    /// `true` for `channel?` (receive), `false` for `channel!` (emit).
    pub receive: bool,
}

/// A clock reset clause.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResetAst {
    /// Clock name.
    pub clock: Spanned<String>,
    /// New value (`None` means zero).
    pub value: Option<ExprAst>,
}

/// A variable update clause.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdateAst {
    /// Target variable name.
    pub target: Spanned<String>,
    /// Element index for arrays.
    pub index: Option<ExprAst>,
    /// Assigned value.
    pub value: ExprAst,
}

/// An edge declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeAst {
    /// Source location name.
    pub source: Spanned<String>,
    /// Target location name.
    pub target: Spanned<String>,
    /// Synchronization (`None` for internal `tau` edges).
    pub sync: Option<SyncAst>,
    /// Clock-constraint guard atoms, in source order.
    pub guard: Vec<ConstraintAst>,
    /// Data-guard expressions (conjoined in source order).
    pub when: Vec<ExprAst>,
    /// Clock resets, in source order.
    pub resets: Vec<ResetAst>,
    /// Variable updates, in source order.
    pub updates: Vec<UpdateAst>,
    /// Controllability override (`controllable` / `uncontrollable`).
    pub controllable: Option<bool>,
    /// Span of the edge header.
    pub span: Span,
}

/// An automaton declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AutomatonAst {
    /// Automaton name.
    pub name: Spanned<String>,
    /// Declared locations, in source order.
    pub locations: Vec<LocationAst>,
    /// Declared edges, in source order.
    pub edges: Vec<EdgeAst>,
}

/// A parsed (but not yet resolved) `.tg` file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FileAst {
    /// The `system` header, if present.
    pub system_name: Option<Spanned<String>>,
    /// Clock declarations, in source order.
    pub clocks: Vec<Spanned<String>>,
    /// Channel declarations, in source order.
    pub channels: Vec<(ChannelKindAst, Spanned<String>)>,
    /// Variable and constant declarations, in source order.
    pub vars: Vec<VarDeclAst>,
    /// Automata, in source order.
    pub automata: Vec<AutomatonAst>,
    /// The `control:` objective, if present.
    pub control: Option<ControlAst>,
}
