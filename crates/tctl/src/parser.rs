//! Recursive-descent parser shared by `.tg` files and test purposes, and the
//! name resolver shared by `.tg` clauses and test purposes.
//!
//! [`Parser`] is a cursor over the token stream; the `.tg` declaration parser
//! drives it too.  Its expression climber reads the one expression language
//! of `when` clauses, clock bounds, updates and `control:` objectives, from
//! the loosest binding level to the tightest:
//!
//! ```text
//! expr    := ite [ "imply" expr ]
//! ite     := or [ "?" ite ":" ite ]
//! or      := and { ("||" | "or") and }
//! and     := not { ("&&" | "and") not }
//! not     := "not" not
//!          | ("forall" | "exists") "(" name ":" range ")" not
//!          | cmp
//! cmp     := add [ ("<" | "<=" | ">" | ">=" | "==" | "!=") add ]
//! add     := mul { ("+" | "-") mul }
//! mul     := unary { ("*" | "/" | "%") unary }
//! unary   := ("!" | "-") unary | primary
//! primary := int | "true" | "false" | "(" expr ")"
//!          | name [ "." name | "[" expr "]" ]
//! range   := name | int [ ".." int ]
//! control := "control" ":" "A" ("<>" | "[]") [ "<=" int ] expr
//! ```
//!
//! As in UPPAAL, `!` binds tightest and `not` loosely: `!x == 1` is
//! `(!x) == 1`, while `not x == 1` is `not (x == 1)`.  The words `and`, `or`,
//! `not`, `imply`, `forall` and `exists` are connectives only where one can
//! stand (`forall`/`exists` only before `(`), so they stay usable as names,
//! as in `M.not`.
//!
//! [`Resolver`] turns a parsed expression into a model [`Expr`], and a
//! parsed objective into a [`StatePredicate`] against a [`System`],
//! expanding bounded quantifiers (`forall`/`exists`) into finite
//! conjunctions / disjunctions with the bound variable substituted by
//! constants.  One objective expands at most [`MAX_ARRAY_SIZE`] quantifier
//! instances in all, so nested ranges share one budget.

use crate::ast::{PathQuantifier, StatePredicate, TestPurpose};
use crate::error::{LangError, Span};
use crate::lexer::{tokenize, Token, TokenKind};
use crate::syntax::{ArithOp, ControlAst, ExprAst, ExprKind, RangeAst, Spanned};
use tiga_model::{CmpOp, Expr, System, VarId, VarTable};

/// Reserved words of the `.tg` language.  The pretty-printer quotes any
/// model name that collides with one of these (or is not an identifier), so
/// arbitrary systems still round-trip.
pub const KEYWORDS: &[&str] = &[
    "system",
    "clock",
    "input",
    "output",
    "internal",
    "const",
    "var",
    "int",
    "automaton",
    "location",
    "init",
    "urgent",
    "inv",
    "edge",
    "on",
    "guard",
    "when",
    "reset",
    "set",
    "controllable",
    "uncontrollable",
    "control",
    "true",
    "false",
];

/// Words that are connectives where one can stand and names elsewhere.  The
/// printer quotes them, so a printed name is never read as a connective.
const CONNECTIVES: &[&str] = &["and", "or", "not", "imply", "forall", "exists"];

/// Returns `true` if `name` can be written bare (unquoted) in `.tg` source.
#[must_use]
pub fn is_bare_name(name: &str) -> bool {
    !name.is_empty()
        && !KEYWORDS.contains(&name)
        && !CONNECTIVES.contains(&name)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Applies the sign to a lexed literal magnitude, enforcing the `i64` range.
///
/// The lexer stores magnitudes as `u64` precisely so that
/// `-9223372036854775808` (`i64::MIN`) folds exactly — its magnitude `2⁶³`
/// has no positive `i64` representation, so negation must happen on the
/// unsigned value.  Both `i32` and `i64` boundary literals round-trip
/// through print → parse this way.
fn fold_literal(magnitude: u64, negative: bool, span: Span) -> Result<i64, LangError> {
    if negative {
        if magnitude > i64::MIN.unsigned_abs() {
            return Err(LangError::parse("integer literal overflows i64", span));
        }
        Ok(magnitude.wrapping_neg() as i64)
    } else {
        i64::try_from(magnitude)
            .map_err(|_| LangError::parse("integer literal overflows i64", span))
    }
}

/// Deepest expression the parser accepts: no expression tree is higher than
/// this (a chain `a or b or …` adds one level per operator, just as a
/// nested `not` does), and no expression nests its parentheses and other
/// operands deeper.  The parser and every later pass walk the tree
/// recursively, so this keeps an untrusted `.tg` file, objective or request
/// line from overflowing the stack.  The checked-in models nest a few
/// levels deep; 64 is also the JSON reader's nesting cap.
pub const MAX_EXPR_DEPTH: usize = 64;

fn too_deep(span: Span) -> LangError {
    LangError::parse(
        format!("expression nests deeper than {MAX_EXPR_DEPTH} levels"),
        span,
    )
}

/// A node above `children`, or the too-deep error at `at` when it would
/// exceed [`MAX_EXPR_DEPTH`].
fn node(kind: ExprKind, span: Span, children: &[usize], at: Span) -> Result<ExprAst, LangError> {
    let depth = 1 + children.iter().copied().max().unwrap_or(0);
    if depth > MAX_EXPR_DEPTH {
        return Err(too_deep(at));
    }
    Ok(ExprAst { kind, span, depth })
}

/// A leaf node.
fn leaf(kind: ExprKind, span: Span) -> ExprAst {
    ExprAst {
        kind,
        span,
        depth: 1,
    }
}

/// Builds the binary node `make(lhs, rhs)` spanning both operands; the
/// too-deep error points at `rhs`.
fn join(
    lhs: ExprAst,
    rhs: ExprAst,
    make: impl FnOnce(Box<ExprAst>, Box<ExprAst>) -> ExprKind,
) -> Result<ExprAst, LangError> {
    let (span, depths, at) = (lhs.span.to(rhs.span), [lhs.depth, rhs.depth], rhs.span);
    node(make(Box::new(lhs), Box::new(rhs)), span, &depths, at)
}

/// A cursor over the tokens of one source text.
pub struct Parser<'s> {
    source: &'s str,
    tokens: Vec<Token>,
    pos: usize,
    /// Operands open around the current token (parentheses, `not`, `!`,
    /// quantifier bodies, …), at most [`MAX_EXPR_DEPTH`].
    nesting: usize,
}

impl<'s> Parser<'s> {
    /// Tokenizes `source`.
    ///
    /// # Errors
    ///
    /// Returns the lexer's span-carrying [`LangError`].
    pub fn new(source: &'s str) -> Result<Self, LangError> {
        Ok(Parser {
            source,
            tokens: tokenize(source)?,
            pos: 0,
            nesting: 0,
        })
    }

    /// The next token, if any.
    #[must_use]
    pub fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1)
    }

    /// Is the next token of the given kind?
    #[must_use]
    pub fn at(&self, kind: &TokenKind) -> bool {
        self.peek().is_some_and(|t| &t.kind == kind)
    }

    /// Is the next token the word `kw`?
    #[must_use]
    pub fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(t) if matches!(&t.kind, TokenKind::Ident(name) if name == kw))
    }

    /// Consumes the next token and returns its span (the end of input when
    /// there is none).
    pub fn bump(&mut self) -> Span {
        let span = self.here();
        if self.pos < self.tokens.len() {
            self.pos += 1;
        }
        span
    }

    /// The span of the next token (or the end of input).
    #[must_use]
    pub fn here(&self) -> Span {
        self.peek().map_or(Span::at(self.source.len()), |t| t.span)
    }

    /// An "expected …, found …" error at the next token.
    #[must_use]
    pub fn unexpected(&self, expected: &str) -> LangError {
        match self.peek() {
            Some(t) => LangError::parse(
                format!("expected {expected}, found {}", t.kind.describe()),
                t.span,
            ),
            None => LangError::parse(
                format!("expected {expected}, found end of input"),
                Span::at(self.source.len()),
            ),
        }
    }

    /// Consumes a token of the given kind.
    ///
    /// # Errors
    ///
    /// Fails with `expected` when the next token is of another kind.
    pub fn expect(&mut self, kind: &TokenKind, expected: &str) -> Result<Span, LangError> {
        if self.at(kind) {
            Ok(self.bump())
        } else {
            Err(self.unexpected(expected))
        }
    }

    /// Consumes the keyword `kw` (an identifier with that exact text).
    ///
    /// # Errors
    ///
    /// Fails when the next token is anything else.
    pub fn expect_keyword(&mut self, kw: &str) -> Result<Span, LangError> {
        if self.at_keyword(kw) {
            Ok(self.bump())
        } else {
            Err(self.unexpected(&format!("`{kw}`")))
        }
    }

    /// Fails unless every token has been consumed, naming the first that
    /// was not.
    pub(crate) fn finish(&self) -> Result<(), LangError> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.unexpected("end of input")),
        }
    }

    /// A name: a non-keyword identifier or a quoted string.
    ///
    /// # Errors
    ///
    /// Fails on keywords (suggesting quotes) and on any other token.
    pub fn name(&mut self, what: &str) -> Result<Spanned<String>, LangError> {
        match self.peek().map(|t| &t.kind) {
            Some(TokenKind::Ident(name)) if KEYWORDS.contains(&name.as_str()) => {
                Err(LangError::parse(
                    format!("keyword `{name}` cannot be used as {what} (quote it: \"{name}\")"),
                    self.here(),
                ))
            }
            Some(TokenKind::Ident(name) | TokenKind::Str(name)) => {
                let name = name.clone();
                let span = self.bump();
                Ok(Spanned::new(name, span))
            }
            _ => Err(self.unexpected(&format!("a {what} name"))),
        }
    }

    /// A possibly negative integer literal.
    ///
    /// # Errors
    ///
    /// Fails on anything but an integer literal in the `i64` range.
    pub fn int(&mut self, what: &str) -> Result<Spanned<i64>, LangError> {
        let minus_span = if self.at(&TokenKind::Minus) {
            Some(self.bump())
        } else {
            None
        };
        match self.peek().map(|t| &t.kind) {
            Some(&TokenKind::Number(n)) => {
                let span = self.bump();
                let span = minus_span.map_or(span, |m| m.to(span));
                Ok(Spanned::new(
                    fold_literal(n, minus_span.is_some(), span)?,
                    span,
                ))
            }
            _ => Err(self.unexpected(&format!("an integer {what}"))),
        }
    }

    fn peek_cmp_op(&self) -> Option<CmpOp> {
        match self.peek().map(|t| &t.kind) {
            Some(TokenKind::Lt) => Some(CmpOp::Lt),
            Some(TokenKind::Le) => Some(CmpOp::Le),
            Some(TokenKind::Gt) => Some(CmpOp::Gt),
            Some(TokenKind::Ge) => Some(CmpOp::Ge),
            Some(TokenKind::EqEq) => Some(CmpOp::Eq),
            Some(TokenKind::NotEq) => Some(CmpOp::Ne),
            _ => None,
        }
    }

    /// A comparison operator.
    ///
    /// # Errors
    ///
    /// Fails on any other token.
    pub fn cmp_op(&mut self) -> Result<CmpOp, LangError> {
        let op = self
            .peek_cmp_op()
            .ok_or_else(|| self.unexpected("a comparison operator"))?;
        self.bump();
        Ok(op)
    }

    /// Parses a `control: A<> φ` or `control: A[] φ` objective, with an
    /// optional `<=T` time bound after the path quantifier.  Parsing stops
    /// at the end of the predicate.
    ///
    /// # Errors
    ///
    /// Fails on grammar errors and on time bounds outside
    /// `0..=tiga_model::MAX_CONSTANT`, with the span of the offender.
    pub fn control(&mut self) -> Result<ControlAst, LangError> {
        let start = self.expect_keyword("control")?;
        self.expect(&TokenKind::Colon, "`:` after `control`")?;
        let quantifier = self.path_quantifier()?;
        let bound = if self.at(&TokenKind::Le) {
            self.bump();
            let t = self.int("time bound")?;
            let max = i64::from(tiga_model::MAX_CONSTANT);
            if !(0..=max).contains(&t.node) {
                return Err(LangError::parse(
                    format!("expected a time bound in 0..={max}, found `{}`", t.node),
                    t.span,
                ));
            }
            Some(t)
        } else {
            None
        };
        let predicate = self.expr()?;
        let span = Span::new(start.start, self.tokens[self.pos - 1].span.end);
        Ok(ControlAst {
            quantifier,
            bound,
            predicate,
            source: self.source[span.start..span.end].to_string(),
            span,
        })
    }

    /// `A<>` or `A[]`, with the two bracket characters adjacent.
    fn path_quantifier(&mut self) -> Result<PathQuantifier, LangError> {
        if !self.at_keyword("A") {
            return Err(self.unexpected("`A<>` or `A[]` (the supported path quantifiers)"));
        }
        self.bump();
        let (close, quantifier) = match self.peek().map(|t| &t.kind) {
            Some(TokenKind::Lt) => (TokenKind::Gt, PathQuantifier::Reachability),
            Some(TokenKind::LBracket) => (TokenKind::RBracket, PathQuantifier::Safety),
            _ => return Err(self.unexpected("`<>` or `[]` after `A`")),
        };
        let open = self.bump();
        match self.peek() {
            Some(t) if t.kind == close && t.span.start == open.end => {
                self.bump();
                Ok(quantifier)
            }
            _ => Err(self.unexpected("`<>` or `[]` after `A`")),
        }
    }

    /// Parses an expression or state predicate.
    ///
    /// # Errors
    ///
    /// Fails with the span of the first token that does not fit the grammar.
    pub fn expr(&mut self) -> Result<ExprAst, LangError> {
        let lhs = self.ite_expr()?;
        if self.at_keyword("imply") {
            let op = self.bump();
            let rhs = self.nested(op, Self::expr)?;
            join(lhs, rhs, ExprKind::Imply)
        } else {
            Ok(lhs)
        }
    }

    /// Parses an operand one level deeper than the token at `at`, or fails
    /// there when that would nest deeper than [`MAX_EXPR_DEPTH`].
    fn nested(
        &mut self,
        at: Span,
        parse: fn(&mut Self) -> Result<ExprAst, LangError>,
    ) -> Result<ExprAst, LangError> {
        if self.nesting == MAX_EXPR_DEPTH {
            return Err(too_deep(at));
        }
        self.nesting += 1;
        let operand = parse(self);
        self.nesting -= 1;
        operand
    }

    /// Ternary conditional, right-associative.
    fn ite_expr(&mut self) -> Result<ExprAst, LangError> {
        let cond = self.or_expr()?;
        if !self.at(&TokenKind::Question) {
            return Ok(cond);
        }
        let question = self.bump();
        let then = self.nested(question, Self::ite_expr)?;
        let colon = self.expect(&TokenKind::Colon, "`:` of the conditional")?;
        let otherwise = self.nested(colon, Self::ite_expr)?;
        let span = cond.span.to(otherwise.span);
        let depths = [cond.depth, then.depth, otherwise.depth];
        let kind = ExprKind::Ite(Box::new(cond), Box::new(then), Box::new(otherwise));
        node(kind, span, &depths, question)
    }

    fn or_expr(&mut self) -> Result<ExprAst, LangError> {
        let mut lhs = self.and_expr()?;
        while self.at(&TokenKind::OrOr) || self.at_keyword("or") {
            self.bump();
            let rhs = self.and_expr()?;
            lhs = join(lhs, rhs, ExprKind::Or)?;
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<ExprAst, LangError> {
        let mut lhs = self.not_expr()?;
        while self.at(&TokenKind::AndAnd) || self.at_keyword("and") {
            self.bump();
            let rhs = self.not_expr()?;
            lhs = join(lhs, rhs, ExprKind::And)?;
        }
        Ok(lhs)
    }

    /// `not` and the bounded quantifiers, whose operands extend as far as a
    /// comparison.
    fn not_expr(&mut self) -> Result<ExprAst, LangError> {
        if self.at_keyword("not") {
            let start = self.bump();
            let inner = self.nested(start, Self::not_expr)?;
            let (span, depth) = (start.to(inner.span), inner.depth);
            return node(ExprKind::Not(Box::new(inner)), span, &[depth], start);
        }
        let forall = self.at_keyword("forall");
        if !(forall || self.at_keyword("exists"))
            || !self.peek2().is_some_and(|t| t.kind == TokenKind::LParen)
        {
            return self.cmp_expr();
        }
        let start = self.bump();
        self.bump();
        let var = self.name("bound variable")?;
        self.expect(&TokenKind::Colon, "`:` in the quantifier binder")?;
        let range = self.range()?;
        self.expect(&TokenKind::RParen, "`)` closing the quantifier binder")?;
        let body = Box::new(self.nested(start, Self::not_expr)?);
        let (span, depth) = (start.to(body.span), body.depth);
        let kind = if forall {
            ExprKind::Forall(var.node, range, body)
        } else {
            ExprKind::Exists(var.node, range, body)
        };
        node(kind, span, &[depth], start)
    }

    fn range(&mut self) -> Result<Spanned<RangeAst>, LangError> {
        match self.peek().map(|t| &t.kind) {
            Some(TokenKind::Ident(_) | TokenKind::Str(_)) => {
                let name = self.name("range")?;
                Ok(Spanned::new(RangeAst::Named(name.node), name.span))
            }
            Some(TokenKind::Number(_) | TokenKind::Minus) => {
                let lo = self.int("range size")?;
                if !self.at(&TokenKind::DotDot) {
                    return Ok(Spanned::new(RangeAst::Size(lo.node), lo.span));
                }
                self.bump();
                let hi = self.int("upper bound of the range")?;
                Ok(Spanned::new(
                    RangeAst::Interval(lo.node, hi.node),
                    lo.span.to(hi.span),
                ))
            }
            _ => Err(self.unexpected("a range (array name, size or `lo..hi`)")),
        }
    }

    /// A single (non-associative) comparison.
    fn cmp_expr(&mut self) -> Result<ExprAst, LangError> {
        let lhs = self.add_expr()?;
        let Some(op) = self.peek_cmp_op() else {
            return Ok(lhs);
        };
        self.bump();
        let rhs = self.add_expr()?;
        join(lhs, rhs, |a, b| ExprKind::Cmp(op, a, b))
    }

    fn add_expr(&mut self) -> Result<ExprAst, LangError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek().map(|t| &t.kind) {
                Some(TokenKind::Plus) => ArithOp::Add,
                Some(TokenKind::Minus) => ArithOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = join(lhs, rhs, |a, b| ExprKind::Arith(op, a, b))?;
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<ExprAst, LangError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek().map(|t| &t.kind) {
                Some(TokenKind::Star) => ArithOp::Mul,
                Some(TokenKind::Slash) => ArithOp::Div,
                Some(TokenKind::Percent) => ArithOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.unary_expr()?;
            lhs = join(lhs, rhs, |a, b| ExprKind::Arith(op, a, b))?;
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<ExprAst, LangError> {
        let make: fn(Box<ExprAst>) -> ExprKind = match self.peek().map(|t| &t.kind) {
            Some(TokenKind::Bang) => ExprKind::Not,
            // `-` directly followed by a number literal folds into a
            // negative constant; anything else (notably `-(e)`) builds an
            // arithmetic negation node.  This distinction is what lets
            // `Const(-7)` and `Neg(Const(7))` round-trip differently.
            Some(TokenKind::Minus)
                if self
                    .peek2()
                    .is_some_and(|t| matches!(t.kind, TokenKind::Number(_))) =>
            {
                let n = self.int("literal")?;
                return Ok(leaf(ExprKind::Num(n.node), n.span));
            }
            Some(TokenKind::Minus) => ExprKind::Neg,
            _ => return self.primary_expr(),
        };
        let start = self.bump();
        let inner = self.nested(start, Self::unary_expr)?;
        let (span, depth) = (start.to(inner.span), inner.depth);
        node(make(Box::new(inner)), span, &[depth], start)
    }

    fn primary_expr(&mut self) -> Result<ExprAst, LangError> {
        let kind = match self.peek().map(|t| &t.kind) {
            Some(&TokenKind::Number(n)) => {
                let span = self.bump();
                return Ok(leaf(ExprKind::Num(fold_literal(n, false, span)?), span));
            }
            Some(TokenKind::LParen) => {
                let open = self.bump();
                let mut inner = self.nested(open, Self::expr)?;
                let close = self.expect(&TokenKind::RParen, "`)`")?;
                // Parentheses only group; they leave no AST node, so the
                // fully parenthesized printer output re-parses to an
                // identical tree.  The group's span takes them in, so every
                // node spans its whole source text.
                inner.span = open.to(close);
                return Ok(inner);
            }
            Some(TokenKind::Ident(word)) if word == "true" => ExprKind::Num(1),
            Some(TokenKind::Ident(word)) if word == "false" => ExprKind::Num(0),
            Some(TokenKind::Ident(_) | TokenKind::Str(_)) => return self.name_expr(),
            _ => return Err(self.unexpected("an expression")),
        };
        let span = self.bump();
        Ok(leaf(kind, span))
    }

    /// `name`, `Aut.loc` or `name[index]`.
    fn name_expr(&mut self) -> Result<ExprAst, LangError> {
        let name = self.name("variable")?;
        if self.at(&TokenKind::Dot) {
            self.bump();
            let loc = self.name("location")?;
            let span = name.span.to(loc.span);
            Ok(leaf(ExprKind::Qualified(name.node, loc.node), span))
        } else if self.at(&TokenKind::LBracket) {
            let open = self.bump();
            let idx = self.nested(open, Self::expr)?;
            let close = self.expect(&TokenKind::RBracket, "`]`")?;
            let depth = idx.depth;
            let span = name.span.to(close);
            let kind = ExprKind::Index(name, Box::new(idx));
            node(kind, span, &[depth], open)
        } else {
            Ok(leaf(ExprKind::Name(name.node), name.span))
        }
    }
}

/// Bindings of quantifier variables to concrete values during resolution.
type Env<'a> = Vec<(&'a str, i64)>;

fn lookup_env(env: &Env<'_>, name: &str) -> Option<i64> {
    env.iter()
        .rev()
        .find_map(|(n, v)| if *n == name { Some(*v) } else { None })
}

/// Largest accepted array size and quantifier range, and the budget of
/// quantifier instances one objective may expand: every array element is a
/// store slot that discrete states carry around, and every instance a copy
/// of the quantified subformula, so anything beyond this is a model bug
/// (the zoo's largest array is the LEP buffer with one slot per node).
pub const MAX_ARRAY_SIZE: i64 = 1 << 20;

/// Turns the names of an [`ExprAst`] into a model [`Expr`]: the one
/// resolver under `.tg` clauses (`when`, clock bounds, resets, `set`) and
/// `control:` objectives.
///
/// A name denotes a scalar variable and `a[e]` an array element, wherever
/// the expression stands: an array used without an index and an indexed
/// scalar are refused with a caret under the name.  Locations (`Aut.loc`),
/// process-qualified variables (`Aut.var`) and bounded quantifiers are
/// objective-only; a clause refuses them.
pub struct Resolver<'a> {
    vars: &'a VarTable,
    site: Site<'a>,
}

/// Where the resolved expression stands.
enum Site<'a> {
    /// A `.tg` clause: errors are
    /// [`LangErrorKind::Lower`](crate::LangErrorKind::Lower), and the
    /// caller reports an undeclared name.
    Clause(&'a dyn Fn(&str, Span) -> LangError),
    /// A `control:` objective over a built system: errors are
    /// [`LangErrorKind::Control`](crate::LangErrorKind::Control).
    Objective(&'a System),
}

impl<'a> Resolver<'a> {
    /// A resolver for `.tg` clauses over the variables declared so far;
    /// `unknown` builds the error for a name `vars` does not declare.
    #[must_use]
    pub fn clause(vars: &'a VarTable, unknown: &'a dyn Fn(&str, Span) -> LangError) -> Self {
        Resolver {
            vars,
            site: Site::Clause(unknown),
        }
    }

    fn objective(system: &'a System) -> Self {
        Resolver {
            vars: system.vars(),
            site: Site::Objective(system),
        }
    }

    fn error(&self, message: impl Into<String>, span: Span) -> LangError {
        match self.site {
            Site::Clause(_) => LangError::lower(message, span),
            Site::Objective(_) => LangError::control(message, span),
        }
    }

    /// Resolves an integer (or boolean, non-zero is true) expression.
    ///
    /// # Errors
    ///
    /// Fails with the span of the first name or form that does not resolve.
    pub fn expr(&self, e: &ExprAst) -> Result<Expr, LangError> {
        self.int(e, &Vec::new())
    }

    /// Resolves the target of an assignment, `name` or `name[index]`: the
    /// variable and, for an array element, the index expression.
    ///
    /// # Errors
    ///
    /// Fails on an undeclared name and on a mismatched arity, with the span
    /// of the name, and on an index that does not resolve.
    pub fn target(
        &self,
        name: &Spanned<String>,
        index: Option<&ExprAst>,
    ) -> Result<(VarId, Option<Expr>), LangError> {
        let var = self.variable(&name.node, name.span, index.is_some())?;
        Ok((var, index.map(|index| self.expr(index)).transpose()?))
    }

    /// The variable `name`, checked against the arity its use implies: an
    /// array must be `indexed` and a scalar must not.
    fn variable(&self, name: &str, span: Span, indexed: bool) -> Result<VarId, LangError> {
        let Some(var) = self.vars.lookup(name) else {
            return Err(match self.site {
                Site::Clause(unknown) => unknown(name, span),
                Site::Objective(_) => self.error(format!("cannot resolve `{name}`"), span),
            });
        };
        match (self.vars.decl(var).is_array(), indexed) {
            (true, false) => Err(self.error(format!("array `{name}` used without an index"), span)),
            (false, true) => Err(self.error(format!("`{name}` is not an array"), span)),
            _ => Ok(var),
        }
    }

    fn int(&self, e: &ExprAst, env: &Env<'_>) -> Result<Expr, LangError> {
        let int = |e: &ExprAst| self.int(e, env);
        Ok(match &e.kind {
            ExprKind::Num(n) => Expr::constant(*n),
            ExprKind::Name(name) => match lookup_env(env, name) {
                Some(v) => Expr::constant(v),
                None => Expr::var(self.variable(name, e.span, false)?),
            },
            ExprKind::Index(name, idx) => {
                Expr::index(self.variable(&name.node, name.span, true)?, int(idx)?)
            }
            ExprKind::Neg(inner) => Expr::Neg(Box::new(int(inner)?)),
            ExprKind::Not(inner) => int(inner)?.negated(),
            ExprKind::Arith(op, a, b) => {
                let (a, b) = (int(a)?, int(b)?);
                match op {
                    ArithOp::Add => a + b,
                    ArithOp::Sub => a - b,
                    ArithOp::Mul => a * b,
                    ArithOp::Div => Expr::Div(Box::new(a), Box::new(b)),
                    ArithOp::Mod => Expr::Mod(Box::new(a), Box::new(b)),
                }
            }
            ExprKind::Cmp(op, a, b) => int(a)?.cmp(*op, int(b)?),
            ExprKind::And(a, b) => int(a)?.and(int(b)?),
            ExprKind::Or(a, b) => int(a)?.or(int(b)?),
            ExprKind::Imply(a, b) => int(a)?.negated().or(int(b)?),
            ExprKind::Ite(c, t, o) => Expr::ite(int(c)?, int(t)?, int(o)?),
            ExprKind::Qualified(..) | ExprKind::Forall(..) | ExprKind::Exists(..)
                if matches!(self.site, Site::Clause(_)) =>
            {
                return Err(self.error(
                    "locations and quantifiers can only appear in the `control:` objective",
                    e.span,
                ))
            }
            // UPPAAL-style process-qualified variable (`IUT.betterInfo`): the
            // reproduction's variables are global, so the qualifier is
            // dropped.
            ExprKind::Qualified(_, var) if self.vars.lookup(var).is_some() => {
                Expr::var(self.variable(var, e.span, false)?)
            }
            ExprKind::Qualified(aut, loc) => {
                return Err(self.error(
                    format!("location `{aut}.{loc}` cannot be used as an integer"),
                    e.span,
                ))
            }
            ExprKind::Forall(..) | ExprKind::Exists(..) => {
                return Err(self.error("quantifiers cannot appear inside arithmetic", e.span))
            }
        })
    }

    /// Resolves a whole objective's predicate, after charging its
    /// quantifier instances against the per-objective budget
    /// ([`instances`]).
    fn predicate(&self, e: &ExprAst) -> Result<StatePredicate, LangError> {
        instances(e, self.vars)?;
        self.pred(e, &Vec::new())
    }

    /// `Aut.loc` as a location test, if the objective's system has it.
    fn location(&self, aut: &str, loc: &str) -> Option<StatePredicate> {
        let Site::Objective(system) = self.site else {
            return None;
        };
        let a = system.automaton_by_name(aut)?;
        let l = system.automaton(a).location_by_name(loc)?;
        Some(StatePredicate::Location(a, l))
    }

    fn pred(&self, e: &ExprAst, env: &Env<'_>) -> Result<StatePredicate, LangError> {
        let pred = |e: &ExprAst| self.pred(e, env);
        match &e.kind {
            ExprKind::Num(n) => Ok(if *n != 0 {
                StatePredicate::True
            } else {
                StatePredicate::False
            }),
            ExprKind::Qualified(aut, loc) => {
                if let Some(location) = self.location(aut, loc) {
                    return Ok(location);
                }
                // Otherwise a process-qualified variable used as a boolean
                // (`IUT.betterInfo` in the paper's TP1).
                if self.vars.lookup(loc).is_some() {
                    return Ok(StatePredicate::Expr(self.int(e, env)?));
                }
                Err(self.error(format!("cannot resolve `{aut}.{loc}`"), e.span))
            }
            ExprKind::Not(inner) => Ok(pred(inner)?.negated()),
            ExprKind::And(a, b) => Ok(pred(a)?.and(pred(b)?)),
            ExprKind::Or(a, b) => Ok(pred(a)?.or(pred(b)?)),
            ExprKind::Imply(a, b) => Ok(pred(a)?.negated().or(pred(b)?)),
            ExprKind::Forall(var, range, body) | ExprKind::Exists(var, range, body) => {
                let instance = |v: i64| {
                    let mut env2 = env.clone();
                    env2.push((var.as_str(), v));
                    self.pred(body, &env2)
                };
                let forall = matches!(e.kind, ExprKind::Forall(..));
                let (lo, hi) = range_bounds(range, self.vars)?;
                balanced(lo, hi, forall, &instance)
            }
            // Everything else is an integer expression interpreted as a boolean.
            _ => Ok(StatePredicate::Expr(self.int(e, env)?)),
        }
    }
}

/// The bounds `(lo, hi)` of a quantifier range, refused when it is empty or
/// has more than [`MAX_ARRAY_SIZE`] values.
fn range_bounds(range: &Spanned<RangeAst>, vars: &VarTable) -> Result<(i64, i64), LangError> {
    match &range.node {
        RangeAst::Size(n) => {
            if *n <= 0 {
                return Err(LangError::control(
                    format!("empty quantifier range {n}"),
                    range.span,
                ));
            }
            capped_range(0, n - 1, &n.to_string(), range.span)
        }
        RangeAst::Interval(lo, hi) => {
            if lo > hi {
                return Err(LangError::control(
                    format!("empty quantifier range {lo}..{hi}"),
                    range.span,
                ));
            }
            capped_range(*lo, *hi, &format!("{lo}..{hi}"), range.span)
        }
        RangeAst::Named(name) => {
            if let Some(var) = vars.lookup(name) {
                let decl = vars.decl(var);
                if decl.is_array() {
                    return Ok((0, decl.size() as i64 - 1));
                }
                // A named constant denotes the size of the range.
                if decl.lower() == decl.upper() {
                    let n = decl.lower();
                    if n <= 0 {
                        return Err(LangError::control(
                            format!("constant `{name}` does not describe a non-empty range"),
                            range.span,
                        ));
                    }
                    return capped_range(0, n - 1, &format!("`{name}`"), range.span);
                }
            }
            // `BufferId`-style index types: `<array>Id` refers to the indices
            // of `<array>` if such an array exists (paper notation).
            if let Some(stripped) = name.strip_suffix("Id") {
                for decl in vars.iter() {
                    if decl.is_array() && decl.name().eq_ignore_ascii_case(stripped) {
                        return Ok((0, decl.size() as i64 - 1));
                    }
                }
            }
            Err(LangError::control(
                format!("cannot resolve quantifier range `{name}`"),
                range.span,
            ))
        }
    }
}

/// The non-empty range `lo..=hi` written as `text`, refused when it has
/// more than [`MAX_ARRAY_SIZE`] values.
fn capped_range(lo: i64, hi: i64, text: &str, span: Span) -> Result<(i64, i64), LangError> {
    let count = i128::from(hi) - i128::from(lo) + 1;
    if count > i128::from(MAX_ARRAY_SIZE) {
        return Err(LangError::control(
            format!("quantifier range {text} has {count} values (the maximum is {MAX_ARRAY_SIZE})"),
            span,
        ));
    }
    Ok((lo, hi))
}

/// How many quantifier instances resolving `e` expands: a quantifier
/// charges one instance per range value, times the instances its body
/// charges, and the operands of a connective charge their sum.  One
/// objective may expand at most [`MAX_ARRAY_SIZE`] in all, so nested
/// ranges whose product is past the budget are refused here, under the
/// smallest subformula that crosses it, before anything proportional to
/// the product is allocated.
fn instances(e: &ExprAst, vars: &VarTable) -> Result<i64, LangError> {
    let count = match &e.kind {
        ExprKind::Forall(_, range, body) | ExprKind::Exists(_, range, body) => {
            let (lo, hi) = range_bounds(range, vars)?;
            // Both factors are at most the budget, so the product fits.
            (hi - lo + 1) * instances(body, vars)?.max(1)
        }
        ExprKind::Not(inner) => instances(inner, vars)?,
        ExprKind::And(a, b) | ExprKind::Or(a, b) | ExprKind::Imply(a, b) => {
            instances(a, vars)? + instances(b, vars)?
        }
        // Quantifiers cannot appear inside arithmetic.
        _ => 0,
    };
    if count > MAX_ARRAY_SIZE {
        return Err(LangError::control(
            format!(
                "quantifiers expand into {count} instances (the budget is {MAX_ARRAY_SIZE} per objective)"
            ),
            e.span,
        ));
    }
    Ok(count)
}

/// The conjunction (`forall`) or disjunction of `instance(v)` over the
/// range `lo..=hi`, as a balanced tree of depth ⌈log2 n⌉: a range at the
/// `MAX_ARRAY_SIZE` cap nests 20 levels, not a million, so walking and
/// dropping the predicate stays shallow.  The instances keep their order.
fn balanced(
    lo: i64,
    hi: i64,
    forall: bool,
    instance: &dyn Fn(i64) -> Result<StatePredicate, LangError>,
) -> Result<StatePredicate, LangError> {
    if lo > hi {
        return Ok(if forall {
            StatePredicate::True
        } else {
            StatePredicate::False
        });
    }
    if lo == hi {
        return instance(lo);
    }
    // The left half takes the middle value of an odd count.
    let mid = lo + (hi - lo) / 2;
    let left = balanced(lo, mid, forall, instance)?;
    let right = balanced(mid + 1, hi, forall, instance)?;
    Ok(if forall {
        left.and(right)
    } else {
        left.or(right)
    })
}

impl ControlAst {
    /// Resolves the objective's names against `system`.
    ///
    /// # Errors
    ///
    /// Returns a [`crate::LangErrorKind::Control`] error with the span of the
    /// name or subformula at fault.
    pub fn resolve(&self, system: &System) -> Result<TestPurpose, LangError> {
        Ok(TestPurpose {
            quantifier: self.quantifier,
            predicate: Resolver::objective(system).predicate(&self.predicate)?,
            bound: self.bound.as_ref().map(|t| t.node),
            source: self.source.clone(),
        })
    }
}

/// Parses and resolves a bare state predicate (without the `control: A<>`
/// wrapper), useful for defining goal sets or monitors programmatically.
///
/// # Errors
///
/// Returns the span-carrying [`LangError`] of the first problem found.
pub fn parse_predicate(input: &str, system: &System) -> Result<StatePredicate, LangError> {
    let mut p = Parser::new(input)?;
    let predicate = p.expr()?;
    p.finish()?;
    Resolver::objective(system).predicate(&predicate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::LangErrorKind;
    use tiga_model::{AutomatonBuilder, SystemBuilder};

    /// A system shaped like the paper's examples: an `IUT` automaton with a
    /// few locations, a buffer array `inUse[3]`, and scalars
    /// `betterInfo`/`forwardCount`.
    fn sample_system() -> System {
        let mut b = SystemBuilder::new("sample");
        b.int_array("inUse", 3, 0, 1, 0).unwrap();
        b.int_var("betterInfo", 0, 1, 0).unwrap();
        b.int_var("forwardCount", 0, 10, 0).unwrap();
        b.constant("N", 3).unwrap();
        // Index-type constant in the style of the paper's `BufferId`.
        b.constant("BufferId", 3).unwrap();
        let mut a = AutomatonBuilder::new("IUT");
        a.location("Off").unwrap();
        a.location("Dim").unwrap();
        a.location("Bright").unwrap();
        a.location("idle").unwrap();
        b.add_automaton(a.build().unwrap()).unwrap();
        b.build().unwrap()
    }

    fn state_with(
        system: &System,
        loc: &str,
        in_use: [i64; 3],
        better: i64,
    ) -> tiga_model::DiscreteState {
        let mut d = system.initial_discrete();
        let (aut, l) = system
            .location_by_qualified_name(&format!("IUT.{loc}"))
            .unwrap();
        d.locations[aut.index()] = l;
        let in_use_var = system.vars().lookup("inUse").unwrap();
        let off = system.vars().offset(in_use_var);
        d.vars[off..off + 3].copy_from_slice(&in_use);
        let better_var = system.vars().lookup("betterInfo").unwrap();
        d.vars[system.vars().offset(better_var)] = better;
        d
    }

    #[test]
    fn parses_tp_bright() {
        let sys = sample_system();
        let tp = TestPurpose::parse("control: A<> IUT.Bright", &sys).unwrap();
        assert_eq!(tp.quantifier, PathQuantifier::Reachability);
        let bright = state_with(&sys, "Bright", [0, 0, 0], 0);
        let off = state_with(&sys, "Off", [0, 0, 0], 0);
        assert!(tp.predicate.holds(&sys, &bright).unwrap());
        assert!(!tp.predicate.holds(&sys, &off).unwrap());
        assert_eq!(tp.to_string(), "control: A<> IUT.Bright");
    }

    #[test]
    fn parses_tp1_conjunction() {
        let sys = sample_system();
        let tp = TestPurpose::parse("control: A<> (IUT.Dim and betterInfo == 1)", &sys).unwrap();
        assert!(tp
            .predicate
            .holds(&sys, &state_with(&sys, "Dim", [0, 0, 0], 1))
            .unwrap());
        assert!(!tp
            .predicate
            .holds(&sys, &state_with(&sys, "Dim", [0, 0, 0], 0))
            .unwrap());
        assert!(!tp
            .predicate
            .holds(&sys, &state_with(&sys, "Bright", [0, 0, 0], 1))
            .unwrap());
    }

    #[test]
    fn parses_tp2_forall_over_array() {
        let sys = sample_system();
        for text in [
            "control: A<> forall (i: BufferId) (inUse[i] == 1)",
            "control: A<> forall (i: inUse) (inUse[i] == 1)",
            "control: A<> forall (i: 3) (inUse[i] == 1)",
            "control: A<> forall (i: 0..2) (inUse[i] == 1)",
        ] {
            let tp = TestPurpose::parse(text, &sys).unwrap();
            assert!(tp
                .predicate
                .holds(&sys, &state_with(&sys, "Off", [1, 1, 1], 0))
                .unwrap());
            assert!(!tp
                .predicate
                .holds(&sys, &state_with(&sys, "Off", [1, 0, 1], 0))
                .unwrap());
        }
    }

    #[test]
    fn parses_tp3_forall_and_location() {
        let sys = sample_system();
        let tp = TestPurpose::parse(
            "control: A<> forall (i: BufferId) (inUse[i] == 1) and IUT.idle",
            &sys,
        )
        .unwrap();
        assert!(tp
            .predicate
            .holds(&sys, &state_with(&sys, "idle", [1, 1, 1], 0))
            .unwrap());
        assert!(!tp
            .predicate
            .holds(&sys, &state_with(&sys, "Off", [1, 1, 1], 0))
            .unwrap());
        assert!(!tp
            .predicate
            .holds(&sys, &state_with(&sys, "idle", [1, 0, 1], 0))
            .unwrap());
    }

    #[test]
    fn parses_exists_and_not() {
        let sys = sample_system();
        let tp = TestPurpose::parse(
            "control: A<> exists (i: inUse) (inUse[i] == 1) and not IUT.Off",
            &sys,
        )
        .unwrap();
        assert!(tp
            .predicate
            .holds(&sys, &state_with(&sys, "Dim", [0, 1, 0], 0))
            .unwrap());
        assert!(!tp
            .predicate
            .holds(&sys, &state_with(&sys, "Off", [0, 1, 0], 0))
            .unwrap());
        assert!(!tp
            .predicate
            .holds(&sys, &state_with(&sys, "Dim", [0, 0, 0], 0))
            .unwrap());
    }

    #[test]
    fn parses_safety_purpose_and_imply() {
        let sys = sample_system();
        let tp = TestPurpose::parse("control: A[] betterInfo == 1 imply IUT.Dim", &sys).unwrap();
        assert_eq!(tp.quantifier, PathQuantifier::Safety);
        assert!(tp
            .predicate
            .holds(&sys, &state_with(&sys, "Dim", [0, 0, 0], 1))
            .unwrap());
        assert!(tp
            .predicate
            .holds(&sys, &state_with(&sys, "Off", [0, 0, 0], 0))
            .unwrap());
        assert!(!tp
            .predicate
            .holds(&sys, &state_with(&sys, "Off", [0, 0, 0], 1))
            .unwrap());
    }

    #[test]
    fn arithmetic_inside_predicates() {
        let sys = sample_system();
        let p = parse_predicate("forwardCount + betterInfo >= 1", &sys).unwrap();
        assert!(!p
            .holds(&sys, &state_with(&sys, "Off", [0, 0, 0], 0))
            .unwrap());
        assert!(p
            .holds(&sys, &state_with(&sys, "Off", [0, 0, 0], 1))
            .unwrap());
        let p = parse_predicate("N == 3", &sys).unwrap();
        assert!(p.holds(&sys, &sys.initial_discrete()).unwrap());
        let p = parse_predicate("2 * N - 1 == 5", &sys).unwrap();
        assert!(p.holds(&sys, &sys.initial_discrete()).unwrap());
    }

    #[test]
    fn named_constant_as_quantifier_range() {
        let sys = sample_system();
        let p = parse_predicate("forall (i: N) (inUse[i] == 0)", &sys).unwrap();
        assert!(p.holds(&sys, &sys.initial_discrete()).unwrap());
        assert!(!p
            .holds(&sys, &state_with(&sys, "Off", [0, 1, 0], 0))
            .unwrap());
    }

    #[test]
    fn quantifier_ranges_are_capped_before_expansion() {
        let sys = sample_system();
        let over = MAX_ARRAY_SIZE + 1;
        for (range, values) in [
            ("0..99999999999".to_string(), "100000000000".to_string()),
            (over.to_string(), over.to_string()),
            (
                format!("{}..{}", i64::MIN, i64::MAX),
                (1u128 << 64).to_string(),
            ),
        ] {
            let text = format!("forall (i: {range}) true");
            let err = parse_predicate(&text, &sys).unwrap_err();
            let at = text.find(&range).unwrap();
            assert_eq!(err.kind, LangErrorKind::Control, "{err}");
            assert_eq!(err.span, Span::new(at, at + range.len()), "{text}");
            assert!(
                err.message.contains(&format!("has {values} values")),
                "{err}"
            );
            assert!(err.message.contains(&MAX_ARRAY_SIZE.to_string()), "{err}");
        }
        // The largest accepted range is the cap itself.
        let text = format!("exists (i: 1..{MAX_ARRAY_SIZE}) true");
        assert_eq!(parse_predicate(&text, &sys), Ok(StatePredicate::True));
    }

    #[test]
    fn nested_quantifiers_share_one_budget() {
        let sys = sample_system();
        // 1024 × 1024 instances is exactly the budget.
        let at = "forall (i: 1024) forall (j: 1024) true";
        assert_eq!(parse_predicate(at, &sys), Ok(StatePredicate::True));
        // 1024 × 1025 is one row past it: refused under the outer
        // quantifier, whose span takes in a parenthesized body's `)`.
        let past = "forall (i: 1024) forall (j: 1025) i >= 0";
        for text in [past, "forall (i: 1024) forall (j: 1025) (i >= 0)"] {
            let err = parse_predicate(text, &sys).unwrap_err();
            assert_eq!(err.kind, LangErrorKind::Control, "{err}");
            assert_eq!(err.span, Span::new(0, text.len()), "{err}");
            assert!(err.message.contains("1049600 instances"), "{err}");
            assert!(
                err.message
                    .contains(&format!("budget is {MAX_ARRAY_SIZE} per objective")),
                "{err}"
            );
        }
        // Sibling quantifiers draw on the same budget, and a range past the
        // cap on its own still gets the per-range message.
        let siblings = "exists (i: 1048576) i >= 0 or exists (j: 1) j >= 0";
        let err = parse_predicate(siblings, &sys).unwrap_err();
        assert_eq!(err.span, Span::new(0, siblings.len()), "{err}");
        assert!(err.message.contains("1048577 instances"), "{err}");
        let wide = "forall (i: 2) forall (j: 1048577) true";
        let err = parse_predicate(wide, &sys).unwrap_err();
        assert!(err.message.contains("has 1048577 values"), "{err}");
        // Whole objectives are charged the same way.
        let objective = format!("control: A<> {past}");
        let err = TestPurpose::parse(&objective, &sys).unwrap_err();
        assert!(err.message.contains("per objective"), "{err}");
    }

    /// The kind of error `TestPurpose::parse(text)` fails with.
    fn rejected_as(text: &str) -> LangErrorKind {
        TestPurpose::parse(text, &sample_system()).unwrap_err().kind
    }

    #[test]
    fn error_reporting() {
        use LangErrorKind::{Control, Parse};
        assert_eq!(rejected_as("A<> IUT.Bright"), Parse);
        assert_eq!(rejected_as("control: E<> IUT.Bright"), Parse);
        // `<>` and `[]` are single symbols.
        assert_eq!(rejected_as("control: A< > IUT.Bright"), Parse);
        assert_eq!(rejected_as("control: A<> IUT.Missing"), Control);
        assert_eq!(rejected_as("control: A<> nosuchvar == 1"), Control);
        assert_eq!(rejected_as("control: A<> IUT.Bright extra"), Parse);
        assert_eq!(
            rejected_as("control: A<> forall (i: Nope) (inUse[i] == 1)"),
            Control
        );
        assert_eq!(rejected_as("control: A<> inUse == 1"), Control);
        assert_eq!(rejected_as("control: A<> IUT.Bright + 1 == 2"), Control);
    }

    #[test]
    fn arity_is_checked_with_the_span_on_the_name() {
        let sys = sample_system();
        for (text, name, message) in [
            ("inUse == 1", "inUse", "array `inUse` used without an index"),
            (
                "betterInfo[0] == 1",
                "betterInfo",
                "`betterInfo` is not an array",
            ),
            (
                "IUT.inUse",
                "IUT.inUse",
                "array `inUse` used without an index",
            ),
        ] {
            let objective = format!("control: A<> {text}");
            let err = TestPurpose::parse(&objective, &sys).unwrap_err();
            assert_eq!(err.kind, LangErrorKind::Control, "{err}");
            assert_eq!(err.message, message);
            assert_eq!(&objective[err.span.start..err.span.end], name, "{err}");
        }
    }

    #[test]
    fn parses_time_bounds_on_both_quantifiers() {
        let sys = sample_system();
        let tp = TestPurpose::parse("control: A<><=7 IUT.Bright", &sys).unwrap();
        assert_eq!(tp.quantifier, PathQuantifier::Reachability);
        assert_eq!(tp.bound, Some(7));
        assert_eq!(tp.to_string(), "control: A<><=7 IUT.Bright");

        let tp = TestPurpose::parse("control: A[]<=12 not IUT.Bright", &sys).unwrap();
        assert_eq!(tp.quantifier, PathQuantifier::Safety);
        assert_eq!(tp.bound, Some(12));

        // Whitespace around the bound is irrelevant; zero is a legal bound.
        let tp = TestPurpose::parse("control: A<> <= 0 IUT.Bright", &sys).unwrap();
        assert_eq!(tp.bound, Some(0));

        // The largest representable bound parses; `<=` further in stays an
        // ordinary comparison.
        let max = i64::from(tiga_model::MAX_CONSTANT);
        let tp = TestPurpose::parse(&format!("control: A<><={max} IUT.Bright"), &sys).unwrap();
        assert_eq!(tp.bound, Some(max));
        let tp = TestPurpose::parse("control: A<> forwardCount <= 3", &sys).unwrap();
        assert_eq!(tp.bound, None);
    }

    #[test]
    fn rejects_out_of_range_time_bounds_with_spans() {
        let sys = sample_system();
        let text = "control: A<><=-1 IUT.Bright";
        let e = TestPurpose::parse(text, &sys).unwrap_err();
        let at = text.find("-1").unwrap();
        assert_eq!(e.kind, LangErrorKind::Parse, "{e}");
        assert_eq!(e.span, Span::new(at, at + 2));
        assert!(e.message.contains("time bound"), "{e}");
        assert!(e.message.contains("`-1`"), "{e}");
        let too_big = i64::from(tiga_model::MAX_CONSTANT) + 1;
        let text = format!("control: A[]<={too_big} IUT.Bright");
        let e = TestPurpose::parse(&text, &sys).unwrap_err();
        assert_eq!(e.kind, LangErrorKind::Parse, "{e}");
        assert_eq!(e.span.start, text.find(&too_big.to_string()).unwrap());
        assert!(e.message.contains(&format!("`{too_big}`")), "{e}");
        // A bound that does not even fit in i64 is a lexer-level error.
        assert_eq!(
            rejected_as("control: A<><=99999999999999999999 IUT.Bright"),
            LangErrorKind::Lex
        );
        // `<=` with no number at all.
        assert_eq!(
            rejected_as("control: A<><= IUT.Bright"),
            LangErrorKind::Parse
        );
    }

    #[test]
    fn display_round_trips_through_parse() {
        let sys = sample_system();
        for text in [
            "control: A<> IUT.Bright",
            "control: A<><=7 IUT.Bright",
            "control: A[]<=3 betterInfo == 1 imply IUT.Dim",
            "control: A<> (IUT.Dim and betterInfo == 1)",
        ] {
            let tp = TestPurpose::parse(text, &sys).unwrap();
            // Parsed purposes display as their source and re-parse to the
            // same purpose.
            let reparsed = TestPurpose::parse(&tp.to_string(), &sys).unwrap();
            assert_eq!(tp, reparsed, "{text}");
            // The canonical system-resolved rendering also round-trips to an
            // equivalent purpose (source text may differ).
            let canon = tp.display(&sys).to_string();
            let from_canon = TestPurpose::parse(&canon, &sys).unwrap();
            assert_eq!(from_canon.quantifier, tp.quantifier, "{canon}");
            assert_eq!(from_canon.bound, tp.bound, "{canon}");
            assert_eq!(from_canon.predicate, tp.predicate, "{canon}");
        }
    }

    #[test]
    fn programmatic_purposes_display_their_structure() {
        let sys = sample_system();
        let parsed = TestPurpose::parse("control: A<> IUT.Bright", &sys).unwrap();
        let programmatic = TestPurpose::reachability(parsed.predicate.clone());
        // The old implementation printed a literal `<predicate>` placeholder.
        let text = programmatic.to_string();
        assert!(!text.contains("<predicate>"), "{text}");
        assert!(text.starts_with("control: A<> "), "{text}");
        let bounded = TestPurpose::safety(parsed.predicate.clone()).with_bound(9);
        assert!(bounded.to_string().starts_with("control: A[]<=9 "));
        // The system-resolved rendering is parseable.
        let canon = bounded.display(&sys).to_string();
        assert_eq!(canon, "control: A[]<=9 IUT.Bright");
        let reparsed = TestPurpose::parse(&canon, &sys).unwrap();
        assert_eq!(reparsed.predicate, bounded.predicate);
        assert_eq!(reparsed.bound, Some(9));
    }

    #[test]
    fn display_of_resolved_predicates() {
        let sys = sample_system();
        let tp = TestPurpose::parse(
            "control: A<> forall (i: 2) (inUse[i] == 1) and IUT.idle",
            &sys,
        )
        .unwrap();
        let text = format!("{}", tp.predicate.display(&sys));
        assert!(text.contains("IUT.idle"), "{text}");
        assert!(text.contains("inUse[0]"), "{text}");
        assert!(text.contains("inUse[1]"), "{text}");
    }

    #[test]
    fn process_qualified_variables_fall_back_to_globals() {
        let sys = sample_system();
        // The paper's TP1 uses `IUT.betterInfo == 1` for a process variable;
        // our models use globals, so the qualifier is dropped.
        let tp =
            TestPurpose::parse("control: A<> (IUT.betterInfo == 1) and IUT.Dim", &sys).unwrap();
        assert!(tp
            .predicate
            .holds(&sys, &state_with(&sys, "Dim", [0, 0, 0], 1))
            .unwrap());
        assert!(!tp
            .predicate
            .holds(&sys, &state_with(&sys, "Dim", [0, 0, 0], 0))
            .unwrap());
        // Used directly as a boolean atom.
        let p = parse_predicate("IUT.betterInfo and IUT.Dim", &sys).unwrap();
        assert!(p
            .holds(&sys, &state_with(&sys, "Dim", [0, 0, 0], 1))
            .unwrap());
        assert!(!p
            .holds(&sys, &state_with(&sys, "Dim", [0, 0, 0], 0))
            .unwrap());
        // Unknown names still fail.
        assert_eq!(
            parse_predicate("IUT.noSuchThing == 1", &sys)
                .unwrap_err()
                .kind,
            LangErrorKind::Control
        );
    }

    #[test]
    fn true_false_literals() {
        let sys = sample_system();
        assert_eq!(parse_predicate("true", &sys).unwrap(), StatePredicate::True);
        assert_eq!(
            parse_predicate("false", &sys).unwrap(),
            StatePredicate::False
        );
        // Simplification keeps conjunctions with `true` small.
        assert_eq!(
            parse_predicate("true and IUT.Off", &sys).unwrap(),
            parse_predicate("IUT.Off", &sys).unwrap()
        );
    }

    /// The span of a too-deep refusal of `text`.
    fn too_deep_at(text: &str) -> Span {
        match Parser::new(text).and_then(|mut p| p.expr()) {
            Err(e)
                if e.message
                    .contains(&format!("deeper than {MAX_EXPR_DEPTH} levels")) =>
            {
                e.span
            }
            other => panic!("expected a too-deep error, got {other:?}"),
        }
    }

    #[test]
    fn expressions_are_capped_in_depth_and_chain_length() {
        let parse = |text: &str| Parser::new(text).unwrap().expr();
        // Parentheses: the cap itself parses, one more is refused at the
        // first `(` past it, however deep the input goes.
        let parens = |n: usize| format!("{}1{}", "(".repeat(n), ")".repeat(n));
        assert_eq!(parse(&parens(MAX_EXPR_DEPTH)).unwrap().depth, 1);
        for n in [MAX_EXPR_DEPTH + 1, 100_000] {
            assert_eq!(
                too_deep_at(&parens(n)),
                Span::new(MAX_EXPR_DEPTH, MAX_EXPR_DEPTH + 1)
            );
        }
        // Prefix operators and `imply` nest like parentheses.
        for op in ["!", "-", "not "] {
            let text = format!("{}x", op.repeat(100_000));
            let at = op.len() * MAX_EXPR_DEPTH;
            assert_eq!(too_deep_at(&text), Span::new(at, at + op.trim().len()));
        }
        too_deep_at(&"x imply ".repeat(100_000));
        // Chains: `n` operands make a tree `n` high.
        let chain = |n: usize, op: &str| vec!["x"; n].join(op);
        for op in [" or ", " and ", " + ", " * "] {
            assert_eq!(
                parse(&chain(MAX_EXPR_DEPTH, op)).unwrap().depth,
                MAX_EXPR_DEPTH
            );
            let at = (MAX_EXPR_DEPTH) * (1 + op.len());
            assert_eq!(too_deep_at(&chain(100_000, op)), Span::new(at, at + 1));
        }
        // Nesting and chains add up in the tree.
        let mixed = format!("({}) or x", chain(MAX_EXPR_DEPTH, " or "));
        too_deep_at(&mixed);
    }

    /// Height of a resolved predicate.
    fn height(p: &StatePredicate) -> usize {
        match p {
            StatePredicate::And(a, b) | StatePredicate::Or(a, b) => 1 + height(a).max(height(b)),
            StatePredicate::Not(a) => 1 + height(a),
            _ => 1,
        }
    }

    #[test]
    fn quantifiers_expand_into_balanced_trees() {
        let sys = sample_system();
        for (n, levels) in [
            (1, 0),
            (2, 1),
            (3, 2),
            (4, 2),
            (5, 3),
            (4096, 12),
            (4097, 13),
        ] {
            for q in ["forall", "exists"] {
                let p = parse_predicate(&format!("{q} (i: {n}) (i >= 0)"), &sys).unwrap();
                assert_eq!(height(&p), levels + 1, "{q} over {n}");
            }
        }
        // The instances keep their order: a three-value range is the
        // left-nested chain it always was.
        let i_is = |v: i64| StatePredicate::Expr(Expr::constant(v).eq(Expr::constant(1)));
        assert_eq!(
            parse_predicate("exists (i: 3) i == 1", &sys).unwrap(),
            i_is(0).or(i_is(1)).or(i_is(2))
        );
        assert_eq!(
            parse_predicate("exists (i: 4) i == 1", &sys).unwrap(),
            i_is(0).or(i_is(1)).or(i_is(2).or(i_is(3)))
        );
    }

    #[test]
    fn bang_binds_tighter_than_not() {
        let sys = sample_system();
        let better = Expr::var(sys.vars().lookup("betterInfo").unwrap());
        assert_eq!(
            parse_predicate("!betterInfo == 1", &sys).unwrap(),
            StatePredicate::Expr(better.clone().negated().eq(Expr::constant(1)))
        );
        assert_eq!(
            parse_predicate("not betterInfo == 1", &sys).unwrap(),
            StatePredicate::Expr(better.eq(Expr::constant(1))).negated()
        );
        assert_eq!(
            parse_predicate("IUT.Dim and betterInfo == 1 || IUT.Off", &sys).unwrap(),
            parse_predicate("(IUT.Dim and betterInfo == 1) or IUT.Off", &sys).unwrap()
        );
    }
}
