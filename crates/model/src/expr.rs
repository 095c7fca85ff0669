//! Integer/boolean expressions over bounded discrete variables.
//!
//! Guards, invariant bounds, variable updates and test purposes all share the
//! same small expression language.  Expressions evaluate to `i64`; boolean
//! results are encoded as `0` (false) / `1` (true), in the style of the
//! UPPAAL modelling language.

use crate::decl::VarTable;
use crate::error::EvalError;
use crate::ids::VarId;
use std::fmt;

/// Comparison operators usable in data guards and clock constraints.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Applies the comparison to two integers.
    #[must_use]
    pub fn apply(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// The comparison with operands swapped (`a op b` ⇔ `b op.flip() a`).
    #[must_use]
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// An integer-valued expression over the discrete variables of a system.
///
/// Boolean connectives treat any non-zero value as true and produce `0`/`1`.
///
/// # Examples
///
/// ```
/// use tiga_model::{Expr, CmpOp};
///
/// // 2 + 3 == 5  evaluates to 1 (true) with no variables in scope.
/// let e = (Expr::constant(2) + Expr::constant(3)).cmp(CmpOp::Eq, Expr::constant(5));
/// # use tiga_model::VarTable;
/// let vars = VarTable::new();
/// assert_eq!(e.eval(&vars, &[]).unwrap(), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Integer literal.
    Const(i64),
    /// Value of a scalar variable.
    Var(VarId),
    /// Value of an array element, with a computed index.
    Index(VarId, Box<Expr>),
    /// Arithmetic negation.
    Neg(Box<Expr>),
    /// Sum of two expressions.
    Add(Box<Expr>, Box<Expr>),
    /// Difference of two expressions.
    Sub(Box<Expr>, Box<Expr>),
    /// Product of two expressions.
    Mul(Box<Expr>, Box<Expr>),
    /// Euclidean-style division (rounds toward zero); division by zero is an
    /// evaluation error.
    Div(Box<Expr>, Box<Expr>),
    /// Remainder; modulo zero is an evaluation error.
    Mod(Box<Expr>, Box<Expr>),
    /// Comparison producing `0` or `1`.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Logical conjunction (short-circuiting).
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction (short-circuiting).
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// Conditional expression `if c then a else b`.
    Ite(Box<Expr>, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Integer literal.
    #[must_use]
    pub fn constant(v: i64) -> Expr {
        Expr::Const(v)
    }

    /// The boolean constant `true` (encoded as `1`).
    #[must_use]
    pub fn tt() -> Expr {
        Expr::Const(1)
    }

    /// Reference to a scalar variable.
    #[must_use]
    pub fn var(v: VarId) -> Expr {
        Expr::Var(v)
    }

    /// Reference to an array element.
    #[must_use]
    pub fn index(array: VarId, idx: Expr) -> Expr {
        Expr::Index(array, Box::new(idx))
    }

    /// `self op other`, producing `0`/`1`.
    #[must_use]
    pub fn cmp(self, op: CmpOp, other: Expr) -> Expr {
        Expr::Cmp(op, Box::new(self), Box::new(other))
    }

    /// `self == other`.
    #[must_use]
    pub fn eq(self, other: Expr) -> Expr {
        self.cmp(CmpOp::Eq, other)
    }

    /// `self != other`.
    #[must_use]
    pub fn ne(self, other: Expr) -> Expr {
        self.cmp(CmpOp::Ne, other)
    }

    /// `self < other`.
    #[must_use]
    pub fn lt(self, other: Expr) -> Expr {
        self.cmp(CmpOp::Lt, other)
    }

    /// `self <= other`.
    #[must_use]
    pub fn le(self, other: Expr) -> Expr {
        self.cmp(CmpOp::Le, other)
    }

    /// `self > other`.
    #[must_use]
    pub fn gt(self, other: Expr) -> Expr {
        self.cmp(CmpOp::Gt, other)
    }

    /// `self >= other`.
    #[must_use]
    pub fn ge(self, other: Expr) -> Expr {
        self.cmp(CmpOp::Ge, other)
    }

    /// Logical conjunction.
    #[must_use]
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    /// Logical disjunction.
    #[must_use]
    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }

    /// Logical negation.
    #[must_use]
    pub fn negated(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// Conditional expression.
    #[must_use]
    pub fn ite(cond: Expr, then: Expr, otherwise: Expr) -> Expr {
        Expr::Ite(Box::new(cond), Box::new(then), Box::new(otherwise))
    }

    /// Evaluates the expression against a variable table and store.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] on out-of-bounds array accesses, division by
    /// zero or arithmetic overflow.
    pub fn eval(&self, table: &VarTable, store: &[i64]) -> Result<i64, EvalError> {
        match self {
            Expr::Const(v) => Ok(*v),
            Expr::Var(v) => Ok(store[table.offset(*v)]),
            Expr::Index(v, idx) => {
                let i = idx.eval(table, store)?;
                let decl = table.decl(*v);
                if i < 0 || i as usize >= decl.size() {
                    return Err(EvalError::IndexOutOfBounds {
                        name: decl.name().to_string(),
                        index: i,
                        size: decl.size(),
                    });
                }
                Ok(store[table.offset(*v) + i as usize])
            }
            Expr::Neg(e) => e
                .eval(table, store)?
                .checked_neg()
                .ok_or(EvalError::Overflow),
            Expr::Add(a, b) => a
                .eval(table, store)?
                .checked_add(b.eval(table, store)?)
                .ok_or(EvalError::Overflow),
            Expr::Sub(a, b) => a
                .eval(table, store)?
                .checked_sub(b.eval(table, store)?)
                .ok_or(EvalError::Overflow),
            Expr::Mul(a, b) => a
                .eval(table, store)?
                .checked_mul(b.eval(table, store)?)
                .ok_or(EvalError::Overflow),
            Expr::Div(a, b) => {
                let d = b.eval(table, store)?;
                if d == 0 {
                    return Err(EvalError::DivisionByZero);
                }
                a.eval(table, store)?
                    .checked_div(d)
                    .ok_or(EvalError::Overflow)
            }
            Expr::Mod(a, b) => {
                let d = b.eval(table, store)?;
                if d == 0 {
                    return Err(EvalError::DivisionByZero);
                }
                a.eval(table, store)?
                    .checked_rem(d)
                    .ok_or(EvalError::Overflow)
            }
            Expr::Cmp(op, a, b) => Ok(i64::from(
                op.apply(a.eval(table, store)?, b.eval(table, store)?),
            )),
            Expr::And(a, b) => {
                if a.eval(table, store)? == 0 {
                    Ok(0)
                } else {
                    Ok(i64::from(b.eval(table, store)? != 0))
                }
            }
            Expr::Or(a, b) => {
                if a.eval(table, store)? != 0 {
                    Ok(1)
                } else {
                    Ok(i64::from(b.eval(table, store)? != 0))
                }
            }
            Expr::Not(e) => Ok(i64::from(e.eval(table, store)? == 0)),
            Expr::Ite(c, t, e) => {
                if c.eval(table, store)? != 0 {
                    t.eval(table, store)
                } else {
                    e.eval(table, store)
                }
            }
        }
    }

    /// Evaluates the expression as a boolean (non-zero is true).
    ///
    /// # Errors
    ///
    /// Same as [`Expr::eval`].
    pub fn eval_bool(&self, table: &VarTable, store: &[i64]) -> Result<bool, EvalError> {
        Ok(self.eval(table, store)? != 0)
    }

    /// Returns the constant value if the expression contains no variable
    /// references (useful for extrapolation-bound analysis).
    #[must_use]
    pub fn as_constant(&self) -> Option<i64> {
        let empty = VarTable::new();
        if self.references_vars() {
            None
        } else {
            self.eval(&empty, &[]).ok()
        }
    }

    /// Calls `f` on every variable the expression mentions, array index
    /// expressions included, in evaluation order (repeats included).
    pub fn for_each_var(&self, f: &mut impl FnMut(VarId)) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(v) => f(*v),
            Expr::Index(v, idx) => {
                f(*v);
                idx.for_each_var(f);
            }
            Expr::Neg(e) | Expr::Not(e) => e.for_each_var(f),
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Mod(a, b)
            | Expr::Cmp(_, a, b)
            | Expr::And(a, b)
            | Expr::Or(a, b) => {
                a.for_each_var(f);
                b.for_each_var(f);
            }
            Expr::Ite(c, t, e) => {
                c.for_each_var(f);
                t.for_each_var(f);
                e.for_each_var(f);
            }
        }
    }

    /// Returns `true` if the expression mentions any variable.
    #[must_use]
    pub fn references_vars(&self) -> bool {
        let mut any = false;
        self.for_each_var(&mut |_| any = true);
        any
    }
}

impl std::ops::Add for Expr {
    type Output = Expr;

    /// Builds the sum expression `self + other`.
    fn add(self, other: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(other))
    }
}

impl std::ops::Sub for Expr {
    type Output = Expr;

    /// Builds the difference expression `self - other`.
    fn sub(self, other: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(other))
    }
}

impl std::ops::Mul for Expr {
    type Output = Expr;

    /// Builds the product expression `self * other`.
    fn mul(self, other: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(other))
    }
}

impl From<i64> for Expr {
    fn from(v: i64) -> Self {
        Expr::Const(v)
    }
}

impl From<i32> for Expr {
    fn from(v: i32) -> Self {
        Expr::Const(i64::from(v))
    }
}

impl From<bool> for Expr {
    fn from(v: bool) -> Self {
        Expr::Const(i64::from(v))
    }
}

impl From<VarId> for Expr {
    fn from(v: VarId) -> Self {
        Expr::Var(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decl::VarTable;

    fn table_with(vars: &[(&str, usize, i64)]) -> (VarTable, Vec<i64>) {
        let mut t = VarTable::new();
        let mut store = Vec::new();
        for (name, size, init) in vars {
            t.declare(name, *size, -100, 100, *init).unwrap();
            store.extend(std::iter::repeat_n(*init, *size));
        }
        (t, store)
    }

    #[test]
    fn arithmetic_and_comparison() {
        let (t, s) = table_with(&[]);
        let e = (Expr::constant(7) - Expr::constant(3)) * Expr::constant(2);
        assert_eq!(e.eval(&t, &s).unwrap(), 8);
        let c = Expr::constant(8).ge(Expr::constant(8));
        assert_eq!(c.eval(&t, &s).unwrap(), 1);
        let c = Expr::constant(8).lt(Expr::constant(8));
        assert_eq!(c.eval(&t, &s).unwrap(), 0);
    }

    #[test]
    fn variables_and_arrays() {
        let (t, mut s) = table_with(&[("n", 1, 5), ("inUse", 3, 0)]);
        let n = t.lookup("n").unwrap();
        let in_use = t.lookup("inUse").unwrap();
        s[t.offset(in_use) + 2] = 1;
        assert_eq!(Expr::var(n).eval(&t, &s).unwrap(), 5);
        assert_eq!(
            Expr::index(in_use, Expr::constant(2)).eval(&t, &s).unwrap(),
            1
        );
        assert_eq!(
            Expr::index(in_use, Expr::constant(0)).eval(&t, &s).unwrap(),
            0
        );
        let err = Expr::index(in_use, Expr::constant(3))
            .eval(&t, &s)
            .unwrap_err();
        assert!(matches!(err, EvalError::IndexOutOfBounds { .. }));
    }

    #[test]
    fn boolean_connectives_short_circuit() {
        let (t, s) = table_with(&[("z", 1, 0)]);
        let z = t.lookup("z").unwrap();
        // false && (1/0 == 0) must not error thanks to short-circuiting.
        let e = Expr::var(z).ne(Expr::constant(0)).and(
            Expr::Div(Box::new(Expr::constant(1)), Box::new(Expr::var(z))).eq(Expr::constant(0)),
        );
        assert_eq!(e.eval(&t, &s).unwrap(), 0);
        let e = Expr::tt().or(
            Expr::Div(Box::new(Expr::constant(1)), Box::new(Expr::var(z))).eq(Expr::constant(0)),
        );
        assert_eq!(e.eval(&t, &s).unwrap(), 1);
    }

    #[test]
    fn division_by_zero_is_reported() {
        let (t, s) = table_with(&[]);
        let e = Expr::Div(Box::new(Expr::constant(1)), Box::new(Expr::constant(0)));
        assert_eq!(e.eval(&t, &s).unwrap_err(), EvalError::DivisionByZero);
        let e = Expr::Mod(Box::new(Expr::constant(1)), Box::new(Expr::constant(0)));
        assert_eq!(e.eval(&t, &s).unwrap_err(), EvalError::DivisionByZero);
    }

    #[test]
    fn as_constant_detects_closed_expressions() {
        let (t, _) = table_with(&[("n", 1, 5)]);
        let n = t.lookup("n").unwrap();
        assert_eq!(
            (Expr::constant(3) + Expr::constant(4)).as_constant(),
            Some(7)
        );
        assert_eq!(Expr::var(n).as_constant(), None);
        assert!(Expr::var(n).references_vars());
        assert!(!Expr::constant(3).references_vars());
    }

    #[test]
    fn conditional_expression() {
        let (t, s) = table_with(&[("n", 1, 5)]);
        let n = t.lookup("n").unwrap();
        let e = Expr::ite(
            Expr::var(n).ge(Expr::constant(3)),
            Expr::constant(10),
            Expr::constant(20),
        );
        assert_eq!(e.eval(&t, &s).unwrap(), 10);
    }

    #[test]
    fn cmp_op_flipping() {
        assert!(CmpOp::Lt.apply(1, 2));
        assert!(CmpOp::Ge.apply(2, 2));
        assert_eq!(CmpOp::Lt.flipped(), CmpOp::Gt);
        assert_eq!(CmpOp::Le.flipped(), CmpOp::Ge);
        assert_eq!(CmpOp::Eq.flipped(), CmpOp::Eq);
        // a op b == b op.flipped() a for all ops on a sample.
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            for (a, b) in [(1, 2), (2, 2), (3, 2)] {
                assert_eq!(op.apply(a, b), op.flipped().apply(b, a));
            }
        }
    }
}
