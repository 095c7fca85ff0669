//! The expression printer: [`Expr`] back to parseable text.
//!
//! The output is the inverse of the parser:
//!
//! * expressions are fully parenthesized, so re-parsing rebuilds the same
//!   tree shape without consulting precedence;
//! * negative constants print as literals (`-7`) while [`Expr::Neg`] prints
//!   as `-(e)` — the parser folds a `-` directly before a number into a
//!   negative literal and treats everything else as negation;
//! * names that are not bare identifiers are quoted, which the lexer maps
//!   back to the same string.

use crate::parser::is_bare_name;
use std::fmt::{self, Write};
use tiga_model::{Expr, VarId, VarTable};

/// Renders an expression in re-parseable syntax (fully parenthesized), with
/// variable names taken from `vars` and quoted where needed.
#[must_use]
pub fn expr_to_tg(expr: &Expr, vars: &VarTable) -> String {
    let mut out = String::new();
    write_expr(&mut out, expr, &|v| quoted(vars.decl(v).name()))
        .expect("writing to a String cannot fail");
    out
}

/// Writes `expr` fully parenthesized, naming each variable with `name`.
pub(crate) fn write_expr<W: Write>(
    out: &mut W,
    expr: &Expr,
    name: &dyn Fn(VarId) -> String,
) -> fmt::Result {
    match expr {
        Expr::Const(v) => write!(out, "{v}"),
        Expr::Var(v) => out.write_str(&name(*v)),
        Expr::Index(v, idx) => {
            write!(out, "{}[", name(*v))?;
            write_expr(out, idx, name)?;
            out.write_char(']')
        }
        Expr::Neg(e) => {
            out.write_str("-(")?;
            write_expr(out, e, name)?;
            out.write_char(')')
        }
        Expr::Not(e) => {
            out.write_str("!(")?;
            write_expr(out, e, name)?;
            out.write_char(')')
        }
        Expr::Add(a, b) => write_bin(out, a, "+", b, name),
        Expr::Sub(a, b) => write_bin(out, a, "-", b, name),
        Expr::Mul(a, b) => write_bin(out, a, "*", b, name),
        Expr::Div(a, b) => write_bin(out, a, "/", b, name),
        Expr::Mod(a, b) => write_bin(out, a, "%", b, name),
        Expr::Cmp(op, a, b) => write_bin(out, a, &op.to_string(), b, name),
        Expr::And(a, b) => write_bin(out, a, "&&", b, name),
        Expr::Or(a, b) => write_bin(out, a, "||", b, name),
        Expr::Ite(c, t, e) => {
            out.write_char('(')?;
            write_expr(out, c, name)?;
            out.write_str(" ? ")?;
            write_expr(out, t, name)?;
            out.write_str(" : ")?;
            write_expr(out, e, name)?;
            out.write_char(')')
        }
    }
}

fn write_bin<W: Write>(
    out: &mut W,
    a: &Expr,
    op: &str,
    b: &Expr,
    name: &dyn Fn(VarId) -> String,
) -> fmt::Result {
    out.write_char('(')?;
    write_expr(out, a, name)?;
    write!(out, " {op} ")?;
    write_expr(out, b, name)?;
    out.write_char(')')
}

/// Quotes a name unless it is a bare `.tg` identifier.
#[must_use]
pub fn quoted(name: &str) -> String {
    if is_bare_name(name) {
        name.to_string()
    } else {
        let mut out = String::with_capacity(name.len() + 2);
        out.push('"');
        for c in name.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_resolves_names() {
        let mut t = VarTable::new();
        let count = t.declare("count", 1, 0, 5, 0).unwrap();
        let buf = t.declare("buf", 2, 0, 5, 0).unwrap();
        let not = t.declare("not", 1, 0, 5, 0).unwrap();
        let e = Expr::var(count)
            .ge(Expr::constant(-1))
            .and(Expr::index(buf, Expr::constant(0)).eq(Expr::var(not)));
        assert_eq!(
            expr_to_tg(&e, &t),
            r#"((count >= -1) && (buf[0] == "not"))"#
        );
    }
}
