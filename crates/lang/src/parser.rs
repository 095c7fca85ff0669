//! Recursive-descent parser for `.tg` declarations: tokens → [`FileAst`].
//!
//! The parser is purely syntactic — names stay unresolved strings and every
//! AST node keeps the [`Span`](tiga_tctl::Span) it was read from, so the
//! lowering stage can report resolution errors against the source.
//! Expressions and the `control:` objective are read by the shared
//! [`tiga_tctl::Parser`], whose documentation gives their grammar.  Grammar
//! summary (see the repository README for the full EBNF):
//!
//! ```text
//! file      := { header | clock | channel | const | var | automaton | control }
//! header    := "system" name
//! clock     := "clock" name
//! channel   := ("input" | "output" | "internal") name
//! const     := "const" name "=" int
//! var       := "var" name [ "[" int "]" ] ":" "int" "[" int "," int "]" "=" int
//! automaton := "automaton" name "{" { location | edge } "}"
//! location  := ["init"] ["urgent"] "location" name [ "{" "inv" constraints
//!              { ";" "inv" constraints } [";"] "}" ]
//! edge      := "edge" name "->" name [ "on" name ("?" | "!") ]
//!              [ "{" clause { ";" clause } [";"] "}" ]
//! clause    := "guard" constraints | "when" expr | "reset" name [":=" expr]
//!            | "set" name ["[" expr "]"] ":=" expr
//!            | "controllable" | "uncontrollable"
//! constraints := constraint { "," constraint }
//! constraint  := name ["-" name] ("<" | "<=" | ">" | ">=" | "==" | "!=") expr
//! control   := "control" ":" "A" ("<>" | "[]") [ "<=" int ] expr
//! ```

use crate::ast::{
    AutomatonAst, ChannelKindAst, ConstraintAst, EdgeAst, FileAst, LocationAst, ResetAst, SyncAst,
    UpdateAst, VarDeclAst,
};
use tiga_tctl::{LangError, Parser, TokenKind};

/// Parses `.tg` source into an unresolved [`FileAst`].
///
/// # Errors
///
/// Returns a span-carrying [`LangError`] on lexical or grammatical problems.
pub fn parse_file(source: &str) -> Result<FileAst, LangError> {
    file(&mut Parser::new(source)?)
}

fn file(p: &mut Parser) -> Result<FileAst, LangError> {
    let mut file = FileAst::default();
    while let Some(token) = p.peek() {
        match &token.kind {
            TokenKind::Ident(kw) => match kw.as_str() {
                "control" => {
                    if file.control.is_some() {
                        return Err(LangError::parse(
                            "duplicate `control:` objective (a .tg file has one objective)",
                            token.span,
                        ));
                    }
                    file.control = Some(p.control()?);
                }
                "system" => {
                    p.bump();
                    let name = p.name("system")?;
                    if file.system_name.is_some() {
                        return Err(LangError::parse("duplicate `system` header", name.span));
                    }
                    file.system_name = Some(name);
                }
                "clock" => {
                    p.bump();
                    file.clocks.push(p.name("clock")?);
                }
                "input" => {
                    p.bump();
                    file.channels
                        .push((ChannelKindAst::Input, p.name("channel")?));
                }
                "output" => {
                    p.bump();
                    file.channels
                        .push((ChannelKindAst::Output, p.name("channel")?));
                }
                "internal" => {
                    p.bump();
                    file.channels
                        .push((ChannelKindAst::Internal, p.name("channel")?));
                }
                "const" => file.vars.push(const_decl(p)?),
                "var" => file.vars.push(var_decl(p)?),
                "automaton" => file.automata.push(automaton(p)?),
                other => {
                    return Err(LangError::parse(
                        format!(
                            "unknown declaration `{other}` (expected `system`, `clock`, \
                             `input`, `output`, `internal`, `const`, `var`, `automaton` \
                             or `control:`)"
                        ),
                        token.span,
                    ));
                }
            },
            _ => return Err(p.unexpected("a declaration")),
        }
    }
    Ok(file)
}

fn const_decl(p: &mut Parser) -> Result<VarDeclAst, LangError> {
    let start = p.expect_keyword("const")?;
    let name = p.name("constant")?;
    p.expect(&TokenKind::Eq, "`=`")?;
    let value = p.int("value")?;
    let span = start.to(value.span);
    Ok(VarDeclAst {
        name,
        size: None,
        lower: value.node,
        upper: value.node,
        initial: value.node,
        is_const: true,
        span,
    })
}

fn var_decl(p: &mut Parser) -> Result<VarDeclAst, LangError> {
    let start = p.expect_keyword("var")?;
    let name = p.name("variable")?;
    let size = if p.at(&TokenKind::LBracket) {
        p.bump();
        let size = p.int("array size")?;
        p.expect(&TokenKind::RBracket, "`]`")?;
        Some(size)
    } else {
        None
    };
    p.expect(&TokenKind::Colon, "`:`")?;
    p.expect_keyword("int")?;
    p.expect(&TokenKind::LBracket, "`[` starting the range")?;
    let lower = p.int("lower bound")?;
    p.expect(&TokenKind::Comma, "`,`")?;
    let upper = p.int("upper bound")?;
    p.expect(&TokenKind::RBracket, "`]` closing the range")?;
    p.expect(&TokenKind::Eq, "`=`")?;
    let initial = p.int("initial value")?;
    let span = start.to(initial.span);
    Ok(VarDeclAst {
        name,
        size,
        lower: lower.node,
        upper: upper.node,
        initial: initial.node,
        is_const: false,
        span,
    })
}

fn automaton(p: &mut Parser) -> Result<AutomatonAst, LangError> {
    p.expect_keyword("automaton")?;
    let name = p.name("automaton")?;
    p.expect(&TokenKind::LBrace, "`{`")?;
    let mut locations = Vec::new();
    let mut edges = Vec::new();
    loop {
        match p.peek() {
            None => return Err(p.unexpected("`}` closing the automaton")),
            Some(t) if t.kind == TokenKind::RBrace => {
                p.bump();
                break;
            }
            Some(t)
                if matches!(&t.kind, TokenKind::Ident(kw)
                    if kw == "location" || kw == "init" || kw == "urgent") =>
            {
                locations.push(location(p)?);
            }
            Some(t) if matches!(&t.kind, TokenKind::Ident(kw) if kw == "edge") => {
                edges.push(edge(p)?);
            }
            _ => return Err(p.unexpected("`location`, `edge` or `}`")),
        }
    }
    Ok(AutomatonAst {
        name,
        locations,
        edges,
    })
}

fn location(p: &mut Parser) -> Result<LocationAst, LangError> {
    let start = p.here();
    let mut init = false;
    let mut urgent = false;
    loop {
        if !init && p.at_keyword("init") {
            p.bump();
            init = true;
        } else if !urgent && p.at_keyword("urgent") {
            p.bump();
            urgent = true;
        } else {
            break;
        }
    }
    p.expect_keyword("location")?;
    let name = p.name("location")?;
    let mut invariant = Vec::new();
    let mut span = start.to(name.span);
    if p.at(&TokenKind::LBrace) {
        p.bump();
        loop {
            match p.peek() {
                Some(t) if t.kind == TokenKind::RBrace => break,
                Some(t) if t.kind == TokenKind::Semi => {
                    p.bump();
                }
                _ => {
                    p.expect_keyword("inv")?;
                    invariant.extend(constraints(p)?);
                }
            }
        }
        span = span.to(p.expect(&TokenKind::RBrace, "`}`")?);
    }
    Ok(LocationAst {
        name,
        init,
        urgent,
        invariant,
        span,
    })
}

fn edge(p: &mut Parser) -> Result<EdgeAst, LangError> {
    let start = p.expect_keyword("edge")?;
    let source = p.name("location")?;
    p.expect(&TokenKind::Arrow, "`->`")?;
    let target = p.name("location")?;
    let mut span = start.to(target.span);
    let sync = if p.at_keyword("on") {
        p.bump();
        let channel = p.name("channel")?;
        let receive = match p.peek() {
            Some(t) if t.kind == TokenKind::Question => {
                span = span.to(p.bump());
                true
            }
            Some(t) if t.kind == TokenKind::Bang => {
                span = span.to(p.bump());
                false
            }
            _ => return Err(p.unexpected("`?` (receive) or `!` (emit)")),
        };
        Some(SyncAst { channel, receive })
    } else {
        None
    };
    let mut edge = EdgeAst {
        source,
        target,
        sync,
        guard: Vec::new(),
        when: Vec::new(),
        resets: Vec::new(),
        updates: Vec::new(),
        controllable: None,
        span,
    };
    if p.at(&TokenKind::LBrace) {
        p.bump();
        loop {
            match p.peek() {
                Some(t) if t.kind == TokenKind::RBrace => break,
                Some(t) if t.kind == TokenKind::Semi => {
                    p.bump();
                }
                _ => edge_clause(p, &mut edge)?,
            }
        }
        p.expect(&TokenKind::RBrace, "`}`")?;
    }
    Ok(edge)
}

fn edge_clause(p: &mut Parser, edge: &mut EdgeAst) -> Result<(), LangError> {
    if p.at_keyword("guard") {
        p.bump();
        edge.guard.extend(constraints(p)?);
    } else if p.at_keyword("when") {
        p.bump();
        edge.when.push(p.expr()?);
    } else if p.at_keyword("reset") {
        p.bump();
        let clock = p.name("clock")?;
        let value = if p.at(&TokenKind::Assign) {
            p.bump();
            Some(p.expr()?)
        } else {
            None
        };
        edge.resets.push(ResetAst { clock, value });
    } else if p.at_keyword("set") {
        p.bump();
        let target = p.name("variable")?;
        let index = if p.at(&TokenKind::LBracket) {
            p.bump();
            let idx = p.expr()?;
            p.expect(&TokenKind::RBracket, "`]`")?;
            Some(idx)
        } else {
            None
        };
        p.expect(&TokenKind::Assign, "`:=`")?;
        let value = p.expr()?;
        edge.updates.push(UpdateAst {
            target,
            index,
            value,
        });
    } else if p.at_keyword("controllable") {
        let span = p.bump();
        if edge.controllable.is_some() {
            return Err(LangError::parse("duplicate controllability clause", span));
        }
        edge.controllable = Some(true);
    } else if p.at_keyword("uncontrollable") {
        let span = p.bump();
        if edge.controllable.is_some() {
            return Err(LangError::parse("duplicate controllability clause", span));
        }
        edge.controllable = Some(false);
    } else {
        return Err(p.unexpected(
            "an edge clause (`guard`, `when`, `reset`, `set`, `controllable` \
             or `uncontrollable`)",
        ));
    }
    Ok(())
}

fn constraints(p: &mut Parser) -> Result<Vec<ConstraintAst>, LangError> {
    let mut out = vec![constraint(p)?];
    while p.at(&TokenKind::Comma) {
        p.bump();
        out.push(constraint(p)?);
    }
    Ok(out)
}

fn constraint(p: &mut Parser) -> Result<ConstraintAst, LangError> {
    let left = p.name("clock")?;
    let minus = if p.at(&TokenKind::Minus) {
        p.bump();
        Some(p.name("clock")?)
    } else {
        None
    };
    let op = p.cmp_op()?;
    let bound = p.expr()?;
    let span = left.span.to(bound.span);
    Ok(ConstraintAst {
        left,
        minus,
        op,
        bound,
        span,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{ArithOp, ExprKind};
    use tiga_model::CmpOp;
    use tiga_tctl::Span;

    #[test]
    fn parses_a_minimal_file() {
        let src = r#"
system "demo"
clock x
input press
automaton M {
    init location Idle
    location Busy { inv x <= 3 }
    edge Idle -> Busy on press? { guard x >= 1; reset x }
}
control: A<> M.Busy
"#;
        let file = parse_file(src).unwrap();
        assert_eq!(file.system_name.as_ref().unwrap().node, "demo");
        assert_eq!(file.clocks.len(), 1);
        assert_eq!(file.channels.len(), 1);
        let m = &file.automata[0];
        assert_eq!(m.locations.len(), 2);
        assert!(m.locations[0].init);
        assert_eq!(m.locations[1].invariant.len(), 1);
        assert_eq!(m.edges.len(), 1);
        let edge = &m.edges[0];
        assert_eq!(edge.guard.len(), 1);
        assert_eq!(edge.resets.len(), 1);
        assert!(edge.sync.as_ref().unwrap().receive);
        assert_eq!(file.control.as_ref().unwrap().source, "control: A<> M.Busy");
    }

    #[test]
    fn negative_literal_vs_negation() {
        let src = "automaton A { init location L edge L -> L { when -7 == -(7) } }";
        let file = parse_file(src).unwrap();
        let when = &file.automata[0].edges[0].when[0];
        let ExprKind::Cmp(CmpOp::Eq, lhs, rhs) = &when.kind else {
            panic!("expected comparison, got {when:?}");
        };
        assert!(matches!(lhs.kind, ExprKind::Num(-7)));
        assert!(matches!(&rhs.kind, ExprKind::Neg(inner)
            if matches!(inner.kind, ExprKind::Num(7))));
    }

    #[test]
    fn precedence_and_associativity() {
        let src = "automaton A { init location L edge L -> L { when 1 + 2 * 3 == 7 && v < 2 } }";
        let file = parse_file(src).unwrap();
        let when = &file.automata[0].edges[0].when[0];
        let ExprKind::And(cmp, _) = &when.kind else {
            panic!("`&&` binds loosest here: {when:?}");
        };
        let ExprKind::Cmp(CmpOp::Eq, sum, _) = &cmp.kind else {
            panic!("expected `==` under `&&`");
        };
        assert!(
            matches!(&sum.kind, ExprKind::Arith(ArithOp::Add, _, mul)
                if matches!(mul.kind, ExprKind::Arith(ArithOp::Mul, _, _))),
            "`*` binds tighter than `+`"
        );
    }

    #[test]
    fn diagonal_constraints() {
        let src = "automaton A { init location L { inv x - y <= 2, x <= 5 } }";
        let file = parse_file(src).unwrap();
        let inv = &file.automata[0].locations[0].invariant;
        assert_eq!(inv.len(), 2);
        assert_eq!(inv[0].minus.as_ref().unwrap().node, "y");
        assert!(inv[1].minus.is_none());
    }

    #[test]
    fn errors_carry_spans() {
        let err = parse_file("clock").unwrap_err();
        assert!(err.message.contains("clock name"), "{err}");
        assert_eq!(err.span, Span::at(5));

        let src = "automaton A { init location L edge L -> L { guard x >= (1 } }";
        let err = parse_file(src).unwrap_err();
        assert!(err.message.contains("`)`"), "{err}");
        assert_eq!(&src[err.span.start..err.span.end], "}");

        let err = parse_file("frobnicate x").unwrap_err();
        assert!(err.message.contains("unknown declaration"), "{err}");
        assert_eq!(err.span, Span::new(0, 10));
    }

    #[test]
    fn keywords_rejected_as_names_unless_quoted() {
        let err = parse_file("clock guard").unwrap_err();
        assert!(err.message.contains("keyword"), "{err}");
        let file = parse_file("clock \"guard\"").unwrap();
        assert_eq!(file.clocks[0].node, "guard");
    }

    #[test]
    fn duplicate_control_rejected() {
        let err = parse_file("control: A<> x\ncontrol: A<> y\n").unwrap_err();
        assert!(err.message.contains("duplicate"), "{err}");
    }

    #[test]
    fn bang_binds_tightest_and_not_loosely() {
        let when = |cond: &str| {
            let src = format!("automaton A {{ init location L edge L -> L {{ when {cond} }} }}");
            parse_file(&src).unwrap().automata[0].edges[0].when[0].clone()
        };
        let objective = |pred: &str| {
            let src = format!("automaton A {{ init location L }}\ncontrol: A<> {pred}\n");
            parse_file(&src).unwrap().control.unwrap().predicate
        };
        for e in [when("!x == 1"), objective("!x == 1")] {
            let ExprKind::Cmp(CmpOp::Eq, lhs, _) = &e.kind else {
                panic!("`!x == 1` is a comparison: {e:?}");
            };
            assert!(matches!(lhs.kind, ExprKind::Not(_)), "{e:?}");
        }
        for e in [when("not x == 1"), objective("not x == 1")] {
            let ExprKind::Not(inner) = &e.kind else {
                panic!("`not x == 1` is a negation: {e:?}");
            };
            assert!(
                matches!(inner.kind, ExprKind::Cmp(CmpOp::Eq, _, _)),
                "{e:?}"
            );
        }
        for e in [when("a and b || c"), objective("a and b || c")] {
            let ExprKind::Or(lhs, _) = &e.kind else {
                panic!("`||` binds loosest here: {e:?}");
            };
            assert!(matches!(lhs.kind, ExprKind::And(_, _)), "{e:?}");
        }
    }

    #[test]
    fn objectives_end_with_their_predicate() {
        let src = "automaton M { init location L }\ncontrol: A<> M.L and\n  M.L // goal\nclock x\n";
        let file = parse_file(src).unwrap();
        assert_eq!(file.control.unwrap().source, "control: A<> M.L and\n  M.L");
        assert_eq!(file.clocks[0].node, "x");
    }
}
