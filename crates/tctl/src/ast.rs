//! Resolved test purposes and their evaluation over discrete states.

use crate::error::LangError;
use crate::printer::{quoted, write_expr};
use tiga_model::{AutomatonId, DiscreteState, Expr, LocationId, ModelError, System, VarId};

/// The path quantifier of a test purpose.
///
/// The paper uses reachability purposes (`control: A<> φ`): *whatever the
/// plant does, the tester can force the game into a φ-state*.  Safety
/// purposes (`control: A[] φ`) are supported as an extension.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PathQuantifier {
    /// `A<> φ` — the tester can enforce eventually reaching φ.
    Reachability,
    /// `A[] φ` — the tester can enforce always staying inside φ.
    Safety,
}

/// A state predicate over locations and discrete variables.
///
/// Clock constraints are deliberately not part of test purposes in this
/// reproduction (the paper's purposes are location/variable predicates).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StatePredicate {
    /// Always true.
    True,
    /// Always false.
    False,
    /// The given automaton is in the given location.
    Location(AutomatonId, LocationId),
    /// An integer expression over discrete variables, interpreted as a
    /// boolean (non-zero is true).
    Expr(Expr),
    /// Conjunction.
    And(Box<StatePredicate>, Box<StatePredicate>),
    /// Disjunction.
    Or(Box<StatePredicate>, Box<StatePredicate>),
    /// Negation.
    Not(Box<StatePredicate>),
}

impl StatePredicate {
    /// Conjunction helper that simplifies trivial cases.
    #[must_use]
    pub fn and(self, other: StatePredicate) -> StatePredicate {
        match (self, other) {
            (StatePredicate::True, p) | (p, StatePredicate::True) => p,
            (StatePredicate::False, _) | (_, StatePredicate::False) => StatePredicate::False,
            (a, b) => StatePredicate::And(Box::new(a), Box::new(b)),
        }
    }

    /// Disjunction helper that simplifies trivial cases.
    #[must_use]
    pub fn or(self, other: StatePredicate) -> StatePredicate {
        match (self, other) {
            (StatePredicate::False, p) | (p, StatePredicate::False) => p,
            (StatePredicate::True, _) | (_, StatePredicate::True) => StatePredicate::True,
            (a, b) => StatePredicate::Or(Box::new(a), Box::new(b)),
        }
    }

    /// Negation helper.
    #[must_use]
    pub fn negated(self) -> StatePredicate {
        match self {
            StatePredicate::True => StatePredicate::False,
            StatePredicate::False => StatePredicate::True,
            StatePredicate::Not(inner) => *inner,
            p => StatePredicate::Not(Box::new(p)),
        }
    }

    /// Evaluates the predicate in a discrete state.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Eval`] if a contained expression cannot be
    /// evaluated (e.g. array index out of bounds).
    pub fn holds(&self, system: &System, state: &DiscreteState) -> Result<bool, ModelError> {
        match self {
            StatePredicate::True => Ok(true),
            StatePredicate::False => Ok(false),
            StatePredicate::Location(aut, loc) => Ok(state.locations[aut.index()] == *loc),
            StatePredicate::Expr(e) => Ok(e.eval_bool(system.vars(), &state.vars)?),
            StatePredicate::And(a, b) => Ok(a.holds(system, state)? && b.holds(system, state)?),
            StatePredicate::Or(a, b) => Ok(a.holds(system, state)? || b.holds(system, state)?),
            StatePredicate::Not(a) => Ok(!a.holds(system, state)?),
        }
    }

    /// Calls `f` on every variable the predicate reads.
    pub fn for_each_var(&self, f: &mut impl FnMut(VarId)) {
        match self {
            StatePredicate::True | StatePredicate::False | StatePredicate::Location(..) => {}
            StatePredicate::Expr(e) => e.for_each_var(f),
            StatePredicate::And(a, b) | StatePredicate::Or(a, b) => {
                a.for_each_var(f);
                b.for_each_var(f);
            }
            StatePredicate::Not(a) => a.for_each_var(f),
        }
    }

    /// Renders the predicate using the system's names.
    #[must_use]
    pub fn display<'a>(&'a self, system: &'a System) -> DisplayPredicate<'a> {
        DisplayPredicate {
            pred: self,
            system: Some(system),
        }
    }
}

/// System-free rendering, for logs and `Debug`-adjacent contexts where no
/// [`System`] is at hand: locations print as positional `@<automaton>.<location>`
/// indices and variables as `v<index>` (`v<index>[...]` for array elements).
/// Use [`StatePredicate::display`] for the name-resolved, parseable form.
impl std::fmt::Display for StatePredicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        DisplayPredicate {
            pred: self,
            system: None,
        }
        .fmt(f)
    }
}

/// Helper returned by [`StatePredicate::display`].
pub struct DisplayPredicate<'a> {
    pred: &'a StatePredicate,
    /// Names come from here; `None` renders positional names.
    system: Option<&'a System>,
}

impl<'a> DisplayPredicate<'a> {
    fn sub(&self, pred: &'a StatePredicate) -> DisplayPredicate<'a> {
        DisplayPredicate {
            pred,
            system: self.system,
        }
    }
}

impl std::fmt::Display for DisplayPredicate<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.pred, self.system) {
            (StatePredicate::True, _) => write!(f, "true"),
            (StatePredicate::False, _) => write!(f, "false"),
            (StatePredicate::Location(a, l), None) => write!(f, "@{}.{}", a.index(), l.index()),
            (StatePredicate::Location(a, l), Some(system)) => {
                let aut = system.automaton(*a);
                let (aut, loc) = (quoted(aut.name()), quoted(&aut.location(*l).name));
                write!(f, "{aut}.{loc}")
            }
            (StatePredicate::Expr(e), None) => write_expr(f, e, &|v| format!("v{}", v.index())),
            (StatePredicate::Expr(e), Some(system)) => {
                write_expr(f, e, &|v| quoted(system.vars().decl(v).name()))
            }
            (StatePredicate::And(a, b), _) => write!(f, "({} and {})", self.sub(a), self.sub(b)),
            (StatePredicate::Or(a, b), _) => write!(f, "({} or {})", self.sub(a), self.sub(b)),
            (StatePredicate::Not(a), _) => write!(f, "not {}", self.sub(a)),
        }
    }
}

/// A parsed and resolved test purpose.
///
/// Produced by [`TestPurpose::parse`]; the solver turns the predicate into a
/// set of goal (or safe) states and synthesizes a winning strategy for it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TestPurpose {
    /// Reachability (`A<>`) or safety (`A[]`).
    pub quantifier: PathQuantifier,
    /// The state predicate.
    pub predicate: StatePredicate,
    /// Optional time bound `T` in model time units (weak: deadline `≤ T`),
    /// written `control: A<><=T φ` / `control: A[]<=T φ`.
    ///
    /// A bounded reachability purpose requires the tester to force φ within
    /// `T` time units; a bounded safety purpose requires φ to hold at every
    /// point up to and including time `T`.  Parsing guarantees
    /// `0 <= T <= tiga_model::MAX_CONSTANT`.
    pub bound: Option<i64>,
    /// The original source text, kept for reports.
    pub source: String,
}

impl TestPurpose {
    /// Parses a `control: A<> φ` or `control: A[] φ` formula and resolves all
    /// names against `system`.
    ///
    /// # Errors
    ///
    /// Returns the span-carrying [`LangError`] of the first stage that
    /// rejects the input: tokenizing, parsing or resolving
    /// ([`crate::LangErrorKind::Control`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use tiga_model::{AutomatonBuilder, SystemBuilder};
    /// use tiga_tctl::TestPurpose;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut b = SystemBuilder::new("s");
    /// let mut a = AutomatonBuilder::new("IUT");
    /// a.location("Off")?;
    /// a.location("Bright")?;
    /// b.add_automaton(a.build()?)?;
    /// let system = b.build()?;
    ///
    /// let tp = TestPurpose::parse("control: A<> IUT.Bright", &system)?;
    /// assert_eq!(tp.quantifier, tiga_tctl::PathQuantifier::Reachability);
    /// # Ok(())
    /// # }
    /// ```
    pub fn parse(input: &str, system: &System) -> Result<Self, LangError> {
        let mut parser = crate::Parser::new(input)?;
        let control = parser.control()?;
        parser.finish()?;
        control.resolve(system)
    }

    /// Convenience constructor for a reachability purpose from an already
    /// resolved predicate.
    #[must_use]
    pub fn reachability(predicate: StatePredicate) -> Self {
        TestPurpose {
            quantifier: PathQuantifier::Reachability,
            predicate,
            bound: None,
            source: String::new(),
        }
    }

    /// Convenience constructor for a safety purpose from an already resolved
    /// predicate.
    #[must_use]
    pub fn safety(predicate: StatePredicate) -> Self {
        TestPurpose {
            quantifier: PathQuantifier::Safety,
            predicate,
            bound: None,
            source: String::new(),
        }
    }

    /// Attaches a time bound `T` (model time units, weak `≤ T`) to the
    /// purpose, clearing any stale `source` text so the purpose renders from
    /// its structure.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is negative or exceeds [`tiga_model::MAX_CONSTANT`]
    /// — the same range the parser enforces with a spanned error.
    #[must_use]
    pub fn with_bound(mut self, bound: i64) -> Self {
        assert!(
            (0..=i64::from(tiga_model::MAX_CONSTANT)).contains(&bound),
            "time bound {bound} outside 0..={}",
            tiga_model::MAX_CONSTANT
        );
        self.bound = Some(bound);
        self.source = String::new();
        self
    }

    /// Renders the purpose as a parseable `control:` line using the system's
    /// names (`control: A<><=7 IUT.Bright` style).  This is the canonical
    /// form: feeding the result back through [`TestPurpose::parse`] on the
    /// same system reconstructs an equivalent purpose.
    #[must_use]
    pub fn display<'a>(&'a self, system: &'a System) -> DisplayTestPurpose<'a> {
        DisplayTestPurpose {
            purpose: self,
            system,
        }
    }

    fn fmt_header(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.quantifier {
            PathQuantifier::Reachability => write!(f, "control: A<>")?,
            PathQuantifier::Safety => write!(f, "control: A[]")?,
        }
        if let Some(t) = self.bound {
            write!(f, "<={t}")?;
        }
        write!(f, " ")
    }
}

/// Helper returned by [`TestPurpose::display`].
pub struct DisplayTestPurpose<'a> {
    purpose: &'a TestPurpose,
    system: &'a System,
}

impl std::fmt::Display for DisplayTestPurpose<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.purpose.fmt_header(f)?;
        write!(f, "{}", self.purpose.predicate.display(self.system))
    }
}

/// Renders the original source text when the purpose was parsed, and
/// otherwise reconstructs the `control:` line from the structure, using the
/// system-free [`StatePredicate`] rendering (positional location/variable
/// indices).  Use [`TestPurpose::display`] for the name-resolved form.
impl std::fmt::Display for TestPurpose {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.source.is_empty() {
            self.fmt_header(f)?;
            write!(f, "{}", self.predicate)
        } else {
            f.write_str(&self.source)
        }
    }
}
