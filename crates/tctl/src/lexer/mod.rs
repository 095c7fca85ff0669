//! Tokenizer shared by `.tg` files and test purposes.
//!
//! Every token carries its byte [`Span`] so that the parser and the lowering
//! stage can attach precise source locations to diagnostics.  `//` comments
//! run to the end of the line; whitespace (including newlines) only separates
//! tokens, so a `control:` objective may span several lines.  Words are
//! always [`TokenKind::Ident`]: keywords and the predicate connectives
//! (`and`, `or`, `not`, `imply`, `forall`, `exists`) are recognised by the
//! parser from context.

use crate::error::{LangError, Span};

/// A lexical token together with its source span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// The token kind and payload.
    pub kind: TokenKind,
    /// Source bytes covered by the token.
    pub span: Span,
}

/// The kinds of token recognised by the `.tg` and test-purpose languages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`clock`, `automaton`, model names, ...).
    Ident(String),
    /// Quoted name (`"smart-light"`) — lets declarations carry names that
    /// are not valid identifiers.
    Str(String),
    /// Non-negative integer literal, stored as its **magnitude** (negative
    /// numbers are parsed as a leading `-` folded by the parser).  A `u64`
    /// payload lets `-9223372036854775808` (`i64::MIN`, whose magnitude
    /// overflows an `i64`) survive the lexer; the parser enforces the signed
    /// range where the literal is used.
    Number(u64),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `..`
    DotDot,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `:=`
    Assign,
    /// `=`
    Eq,
    /// `->`
    Arrow,
    /// `?`
    Question,
    /// `!`
    Bang,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
}

/// Every punctuation token with its spelling.  A two-character symbol comes
/// before its one-character prefix, so the first match is the longest.
const SYMBOLS: &[(&str, TokenKind)] = &[
    ("..", TokenKind::DotDot),
    (":=", TokenKind::Assign),
    ("->", TokenKind::Arrow),
    ("==", TokenKind::EqEq),
    ("!=", TokenKind::NotEq),
    ("<=", TokenKind::Le),
    (">=", TokenKind::Ge),
    ("&&", TokenKind::AndAnd),
    ("||", TokenKind::OrOr),
    ("{", TokenKind::LBrace),
    ("}", TokenKind::RBrace),
    ("(", TokenKind::LParen),
    (")", TokenKind::RParen),
    ("[", TokenKind::LBracket),
    ("]", TokenKind::RBracket),
    (",", TokenKind::Comma),
    (".", TokenKind::Dot),
    (";", TokenKind::Semi),
    (":", TokenKind::Colon),
    ("=", TokenKind::Eq),
    ("?", TokenKind::Question),
    ("!", TokenKind::Bang),
    ("+", TokenKind::Plus),
    ("-", TokenKind::Minus),
    ("*", TokenKind::Star),
    ("/", TokenKind::Slash),
    ("%", TokenKind::Percent),
    ("<", TokenKind::Lt),
    (">", TokenKind::Gt),
];

impl TokenKind {
    /// Short human-readable description used in parse errors.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(name) => format!("`{name}`"),
            TokenKind::Str(name) => format!("\"{name}\""),
            TokenKind::Number(n) => format!("`{n}`"),
            symbol => {
                let (text, _) = SYMBOLS
                    .iter()
                    .find(|(_, kind)| kind == symbol)
                    .expect("every other kind is a symbol");
                format!("`{text}`")
            }
        }
    }
}

/// Splits `.tg` or test-purpose source into tokens.
///
/// # Errors
///
/// Returns a span-carrying [`LangError`] on stray characters, unterminated
/// strings, non-integer numeric literals and oversized integers.
pub fn tokenize(input: &str) -> Result<Vec<Token>, LangError> {
    let chars: Vec<(usize, char)> = input.char_indices().collect();
    let end_of_input = input.len();
    let mut tokens = Vec::new();
    let mut i = 0;

    // Byte offset one past character index `i` (for span ends).
    let after =
        |i: usize| -> usize { chars.get(i + 1).map_or(end_of_input, |&(offset, _)| offset) };

    while i < chars.len() {
        let (start, c) = chars[i];
        let next = chars.get(i + 1).map(|&(_, c)| c);
        match c {
            c if c.is_whitespace() => {
                i += 1;
            }
            '/' if next == Some('/') => {
                while i < chars.len() && chars[i].1 != '\n' {
                    i += 1;
                }
            }
            '&' | '|' if next != Some(c) => {
                let hint = if c == '&' {
                    "stray `&` (conjunction is `&&`)"
                } else {
                    "stray `|` (disjunction is `||`)"
                };
                return Err(LangError::lex(hint, Span::new(start, after(i))));
            }
            '"' => {
                let mut name = String::new();
                let mut j = i + 1;
                loop {
                    match chars.get(j) {
                        None => {
                            return Err(LangError::lex(
                                "unterminated string literal",
                                Span::new(start, end_of_input),
                            ));
                        }
                        Some(&(_, '"')) => break,
                        Some(&(offset, '\\')) => match chars.get(j + 1) {
                            Some(&(_, '"')) => {
                                name.push('"');
                                j += 2;
                            }
                            Some(&(_, '\\')) => {
                                name.push('\\');
                                j += 2;
                            }
                            Some(&(_, 'n')) => {
                                name.push('\n');
                                j += 2;
                            }
                            _ => {
                                return Err(LangError::lex(
                                    "unknown escape in string literal (use \\\", \\\\ or \\n)",
                                    Span::new(offset, after(j)),
                                ));
                            }
                        },
                        Some(&(_, '\n')) => {
                            return Err(LangError::lex(
                                "string literal runs past the end of the line",
                                Span::new(start, chars[j].0),
                            ));
                        }
                        Some(&(_, c)) => {
                            name.push(c);
                            j += 1;
                        }
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Str(name),
                    span: Span::new(start, after(j)),
                });
                i = j + 1;
            }
            c if c.is_ascii_digit() => {
                let mut value: u64 = 0;
                let mut j = i;
                while let Some(&(_, d)) = chars.get(j) {
                    if !d.is_ascii_digit() {
                        break;
                    }
                    value = value
                        .checked_mul(10)
                        .and_then(|v| v.checked_add(u64::from(d as u8 - b'0')))
                        .ok_or_else(|| {
                            LangError::lex(
                                "integer literal overflows the 64-bit range",
                                Span::new(start, after(j)),
                            )
                        })?;
                    j += 1;
                }
                // `0..7` is a range; `1.5` is a malformed literal.
                if chars.get(j).map(|&(_, c)| c) == Some('.')
                    && chars.get(j + 1).map(|&(_, c)| c) != Some('.')
                {
                    return Err(LangError::lex(
                        "non-integer numeric literal (clocks and bounds are integers)",
                        Span::new(start, after(j)),
                    ));
                }
                tokens.push(Token {
                    kind: TokenKind::Number(value),
                    span: Span::new(start, chars.get(j).map_or(end_of_input, |&(o, _)| o)),
                });
                i = j;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut name = String::new();
                let mut j = i;
                while let Some(&(_, d)) = chars.get(j) {
                    if !(d.is_ascii_alphanumeric() || d == '_') {
                        break;
                    }
                    name.push(d);
                    j += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Ident(name),
                    span: Span::new(start, chars.get(j).map_or(end_of_input, |&(o, _)| o)),
                });
                i = j;
            }
            other => {
                let Some((text, kind)) = SYMBOLS
                    .iter()
                    .find(|(text, _)| input[start..].starts_with(text))
                else {
                    return Err(LangError::lex(
                        format!("unexpected character `{other}`"),
                        Span::new(start, after(i)),
                    ));
                };
                tokens.push(Token {
                    kind: kind.clone(),
                    span: Span::new(start, start + text.len()),
                });
                i += text.len();
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<TokenKind> {
        tokenize(input)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn tokenizes_declarations() {
        assert_eq!(
            kinds("clock x // the main clock"),
            vec![
                TokenKind::Ident("clock".into()),
                TokenKind::Ident("x".into()),
            ]
        );
        assert_eq!(
            kinds("edge Off -> L1 on touch?"),
            vec![
                TokenKind::Ident("edge".into()),
                TokenKind::Ident("Off".into()),
                TokenKind::Arrow,
                TokenKind::Ident("L1".into()),
                TokenKind::Ident("on".into()),
                TokenKind::Ident("touch".into()),
                TokenKind::Question,
            ]
        );
    }

    #[test]
    fn distinguishes_colon_assign_eq() {
        assert_eq!(
            kinds("a := 1 = 2 : =="),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Assign,
                TokenKind::Number(1),
                TokenKind::Eq,
                TokenKind::Number(2),
                TokenKind::Colon,
                TokenKind::EqEq,
            ]
        );
    }

    #[test]
    fn minus_vs_arrow() {
        assert_eq!(
            kinds("x - y -> z -1"),
            vec![
                TokenKind::Ident("x".into()),
                TokenKind::Minus,
                TokenKind::Ident("y".into()),
                TokenKind::Arrow,
                TokenKind::Ident("z".into()),
                TokenKind::Minus,
                TokenKind::Number(1),
            ]
        );
    }

    #[test]
    fn quoted_names_with_escapes() {
        assert_eq!(
            kinds(r#"system "smart-light""#),
            vec![
                TokenKind::Ident("system".into()),
                TokenKind::Str("smart-light".into()),
            ]
        );
        assert_eq!(
            kinds(r#""a\"b\\c""#),
            vec![TokenKind::Str("a\"b\\c".into())]
        );
    }

    #[test]
    fn rejects_bad_input_with_spans() {
        let err = tokenize("clock x $").unwrap_err();
        assert_eq!(err.span, Span::new(8, 9));
        let err = tokenize("x <= 1.5").unwrap_err();
        assert!(err.message.contains("non-integer"), "{err}");
        assert_eq!(err.span.start, 5);
        let err = tokenize("\"oops").unwrap_err();
        assert!(err.message.contains("unterminated"), "{err}");
        let err = tokenize("x == 99999999999999999999").unwrap_err();
        assert!(err.message.contains("overflows"), "{err}");
    }

    #[test]
    fn control_lines_tokenize_like_declarations() {
        let toks = tokenize("clock x\ncontrol: A<> IUT.Bright // goal\nclock y\n").unwrap();
        let kinds: Vec<_> = toks.iter().map(|t| &t.kind).collect();
        assert_eq!(kinds[2], &TokenKind::Ident("control".into()));
        assert_eq!(kinds[3], &TokenKind::Colon);
        assert_eq!(kinds[9], &TokenKind::Ident("Bright".into()));
        assert_eq!(kinds[10], &TokenKind::Ident("clock".into()));
        let toks = tokenize("location control").unwrap();
        assert_eq!(toks[1].kind, TokenKind::Ident("control".into()));
    }

    #[test]
    fn every_symbol_lexes_alone_and_describes_itself() {
        for (text, kind) in SYMBOLS {
            assert_eq!(kinds(text), vec![kind.clone()], "{text}");
            assert_eq!(kind.describe(), format!("`{text}`"));
        }
    }

    #[test]
    fn spans_are_byte_ranges() {
        let toks = tokenize("ab <= 30").unwrap();
        assert_eq!(toks[0].span, Span::new(0, 2));
        assert_eq!(toks[1].span, Span::new(3, 5));
        assert_eq!(toks[2].span, Span::new(6, 8));
    }

    #[test]
    fn tokenizes_the_paper_formulas() {
        let ks = kinds("control: A<> IUT.Bright");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident("control".into()),
                TokenKind::Colon,
                TokenKind::Ident("A".into()),
                TokenKind::Lt,
                TokenKind::Gt,
                TokenKind::Ident("IUT".into()),
                TokenKind::Dot,
                TokenKind::Ident("Bright".into()),
            ]
        );
        let ks = kinds("control: A<> forall (i: BufferId) (inUse[i] == 1) and IUT.idle");
        assert!(ks.contains(&TokenKind::Ident("forall".into())));
        assert!(ks.contains(&TokenKind::LBracket));
        assert!(ks.contains(&TokenKind::EqEq));
        assert!(ks.contains(&TokenKind::Ident("and".into())));
    }

    #[test]
    fn distinguishes_box_and_brackets() {
        // `[]` and `<>` are two adjacent tokens; the objective header checks
        // the adjacency (see `parser::tests::error_reporting`).
        let toks = tokenize("A[] a[1] A<>").unwrap();
        assert_eq!(toks[1].kind, TokenKind::LBracket);
        assert_eq!(toks[2].kind, TokenKind::RBracket);
        assert_eq!(toks[1].span.end, toks[2].span.start);
        assert_eq!(toks[4].kind, TokenKind::LBracket);
        assert_eq!(toks[5].kind, TokenKind::Number(1));
        assert_eq!(toks[8].kind, TokenKind::Lt);
        assert_eq!(toks[9].kind, TokenKind::Gt);
        assert_eq!(toks[8].span.end, toks[9].span.start);
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            kinds("x <= 1 < 2 >= 3 > 4 == 5 != 6"),
            vec![
                TokenKind::Ident("x".into()),
                TokenKind::Le,
                TokenKind::Number(1),
                TokenKind::Lt,
                TokenKind::Number(2),
                TokenKind::Ge,
                TokenKind::Number(3),
                TokenKind::Gt,
                TokenKind::Number(4),
                TokenKind::EqEq,
                TokenKind::Number(5),
                TokenKind::NotEq,
                TokenKind::Number(6),
            ]
        );
    }

    #[test]
    fn ranges_and_arithmetic() {
        assert_eq!(
            kinds("0..7 + 2*3 - 4/2 % 5 M.L"),
            vec![
                TokenKind::Number(0),
                TokenKind::DotDot,
                TokenKind::Number(7),
                TokenKind::Plus,
                TokenKind::Number(2),
                TokenKind::Star,
                TokenKind::Number(3),
                TokenKind::Minus,
                TokenKind::Number(4),
                TokenKind::Slash,
                TokenKind::Number(2),
                TokenKind::Percent,
                TokenKind::Number(5),
                TokenKind::Ident("M".into()),
                TokenKind::Dot,
                TokenKind::Ident("L".into()),
            ]
        );
    }

    #[test]
    fn keyword_and_symbol_connectives_agree() {
        // Words lex as identifiers; the parser reads them as connectives
        // where a connective can stand, and builds the same tree as for the
        // symbols.
        assert_eq!(kinds("a && b")[1], TokenKind::AndAnd);
        assert_eq!(kinds("a || b")[1], TokenKind::OrOr);
        assert_eq!(kinds("!a")[0], TokenKind::Bang);
        assert_eq!(kinds("a and b")[1], TokenKind::Ident("and".into()));
        // The inputs are padded so that the spans coincide too.
        let parse = |s: &str| crate::Parser::new(s).unwrap().expr().unwrap();
        assert_eq!(parse("a and b"), parse("a &&  b"));
        assert_eq!(parse("a or b"), parse("a || b"));
        assert_eq!(parse("not a"), parse("!   a"));
    }

    #[test]
    fn rejects_stray_characters() {
        assert!(tokenize("a & b").is_err());
        assert!(tokenize("a | b").is_err());
        assert!(tokenize("a # b").is_err());
    }

    #[test]
    fn oversized_integer_literals_are_rejected() {
        let err = tokenize("x == 99999999999999999999").unwrap_err();
        assert!(err.message.contains("overflows"), "{err}");
        assert_eq!(err.span.start, 5);
        // The largest representable literal still lexes.
        let toks = tokenize("9223372036854775807").unwrap();
        assert_eq!(toks[0].kind, TokenKind::Number(i64::MAX.unsigned_abs()));
    }

    #[test]
    fn positions_are_byte_offsets() {
        let toks = tokenize("ab <= 3").unwrap();
        assert_eq!(toks[0].span.start, 0);
        assert_eq!(toks[1].span.start, 3);
        assert_eq!(toks[2].span.start, 6);
    }
}
