//! Unresolved syntax trees of expressions, state predicates and `control:`
//! objectives.
//!
//! Names are plain strings and every node keeps the [`Span`] it was read
//! from, so resolution (test purposes) and lowering (`.tg` data expressions)
//! can report errors against the source.

use crate::ast::PathQuantifier;
use crate::error::Span;
use tiga_model::CmpOp;

/// A value paired with the source span it was parsed from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Spanned<T> {
    /// The parsed value.
    pub node: T,
    /// Where it came from.
    pub span: Span,
}

impl<T> Spanned<T> {
    /// Pairs a value with its span.
    pub fn new(node: T, span: Span) -> Self {
        Spanned { node, span }
    }
}

/// An integer/boolean expression or state predicate (unresolved).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExprAst {
    /// The node.
    pub kind: ExprKind,
    /// Source span.
    pub span: Span,
    /// Height of the tree rooted here (a leaf is 1).  Only the parser
    /// builds nodes, and it keeps this at most [`crate::MAX_EXPR_DEPTH`], so
    /// walking the tree recursively is safe.
    pub(crate) depth: usize,
}

/// Expression node kinds: those of [`tiga_model::Expr`], plus the
/// predicate-only forms (locations, implication and bounded quantifiers).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExprKind {
    /// Integer literal (possibly negative: the parser folds a leading `-`).
    Num(i64),
    /// Variable reference (or a quantifier-bound name).
    Name(String),
    /// `Aut.loc`: a location test, or a process-qualified variable.
    Qualified(String, String),
    /// Array element `name[index]`; the name keeps its own span.
    Index(Spanned<String>, Box<ExprAst>),
    /// Arithmetic negation `-(e)`.
    Neg(Box<ExprAst>),
    /// Logical negation `!e` or `not e`.
    Not(Box<ExprAst>),
    /// Binary arithmetic.
    Arith(ArithOp, Box<ExprAst>, Box<ExprAst>),
    /// Comparison.
    Cmp(CmpOp, Box<ExprAst>, Box<ExprAst>),
    /// Conjunction `&&` / `and`.
    And(Box<ExprAst>, Box<ExprAst>),
    /// Disjunction `||` / `or`.
    Or(Box<ExprAst>, Box<ExprAst>),
    /// Implication `a imply b`.
    Imply(Box<ExprAst>, Box<ExprAst>),
    /// Conditional `(c ? t : e)`.
    Ite(Box<ExprAst>, Box<ExprAst>, Box<ExprAst>),
    /// `forall (i : range) body`.
    Forall(String, Spanned<RangeAst>, Box<ExprAst>),
    /// `exists (i : range) body`.
    Exists(String, Spanned<RangeAst>, Box<ExprAst>),
}

/// Binary arithmetic operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
}

/// The range of a bounded quantifier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RangeAst {
    /// `forall (i : Name)` — `Name` resolves to an array (its size) or to a
    /// named constant.
    Named(String),
    /// `forall (i : 4)` — indices `0..4`.
    Size(i64),
    /// `forall (i : 2..5)` — inclusive span.
    Interval(i64, i64),
}

/// A parsed (but not yet resolved) `control:` objective.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ControlAst {
    /// Reachability (`A<>`) or safety (`A[]`).
    pub quantifier: PathQuantifier,
    /// The `<=T` time bound and its span, already checked against
    /// `0..=tiga_model::MAX_CONSTANT`.
    pub bound: Option<Spanned<i64>>,
    /// The state predicate.
    pub predicate: ExprAst,
    /// The source text of the objective, from `control` to the end of the
    /// predicate (kept as [`crate::TestPurpose::source`]).
    pub source: String,
    /// Span of the objective within the source.
    pub span: Span,
}
