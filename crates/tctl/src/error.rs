//! Span-carrying diagnostics shared by the `.tg` pipeline and the
//! test-purpose parser and resolver.

use std::fmt;

/// A half-open byte range `[start, end)` into the source text.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

impl Span {
    /// Creates a span covering `[start, end)`.
    #[must_use]
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }

    /// A zero-width span at `position`.
    #[must_use]
    pub fn at(position: usize) -> Self {
        Span {
            start: position,
            end: position,
        }
    }

    /// The smallest span covering both `self` and `other`.
    #[must_use]
    pub fn to(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }
}

/// What stage of the pipeline rejected the input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum LangErrorKind {
    /// The input could not be tokenized.
    Lex,
    /// The token stream did not match the grammar.
    Parse,
    /// A name could not be resolved or a declaration is invalid.
    Lower,
    /// The `control:` objective could not be resolved against the system.
    Control,
}

impl fmt::Display for LangErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LangErrorKind::Lex => "lexical error",
            LangErrorKind::Parse => "parse error",
            LangErrorKind::Lower => "model error",
            LangErrorKind::Control => "test-purpose error",
        };
        f.write_str(s)
    }
}

/// An error produced while parsing or lowering a `.tg` file or a test
/// purpose.
///
/// Every error carries the byte [`Span`] of the offending source text;
/// [`LangError::render`] turns it into a rustc-style report with the source
/// line and a caret underline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LangError {
    /// Which stage rejected the input.
    pub kind: LangErrorKind,
    /// Human-readable description.
    pub message: String,
    /// Where in the source the problem is.
    pub span: Span,
}

impl LangError {
    pub(crate) fn lex(message: impl Into<String>, span: Span) -> Self {
        LangError {
            kind: LangErrorKind::Lex,
            message: message.into(),
            span,
        }
    }

    /// A grammar error at `span`.
    pub fn parse(message: impl Into<String>, span: Span) -> Self {
        LangError {
            kind: LangErrorKind::Parse,
            message: message.into(),
            span,
        }
    }

    /// A name-resolution or declaration error at `span`.
    pub fn lower(message: impl Into<String>, span: Span) -> Self {
        LangError {
            kind: LangErrorKind::Lower,
            message: message.into(),
            span,
        }
    }

    /// An objective that cannot be resolved against its system, at `span`.
    pub(crate) fn control(message: impl Into<String>, span: Span) -> Self {
        LangError {
            kind: LangErrorKind::Control,
            message: message.into(),
            span,
        }
    }

    /// 1-based `(line, column)` of the span start within `source`.
    ///
    /// Columns count characters, not bytes, so the caret lines up for any
    /// ASCII-art rendering of the line.
    #[must_use]
    pub fn line_col(&self, source: &str) -> (usize, usize) {
        let upto = self.span.start.min(source.len());
        let mut line = 1;
        let mut line_start = 0;
        for (idx, ch) in source.char_indices() {
            if idx >= upto {
                break;
            }
            if ch == '\n' {
                line += 1;
                line_start = idx + 1;
            }
        }
        let column = source[line_start..upto].chars().count() + 1;
        (line, column)
    }

    /// Renders a rustc-style report: message, `file:line:col`, the source
    /// line and a caret underline covering the span.
    #[must_use]
    pub fn render(&self, source: &str, filename: &str) -> String {
        let (line, column) = self.line_col(source);
        let line_text = source.lines().nth(line - 1).unwrap_or("");
        let width = self.span.end.saturating_sub(self.span.start).clamp(
            1,
            line_text.chars().count().saturating_sub(column - 1).max(1),
        );
        let gutter = line.to_string().len();
        format!(
            "{kind}: {msg}\n{pad:>gutter$} --> {file}:{line}:{column}\n\
             {pad:>gutter$} |\n{line} | {text}\n{pad:>gutter$} | {caret_pad}{carets}",
            kind = self.kind,
            msg = self.message,
            pad = "",
            gutter = gutter,
            file = filename,
            line = line,
            column = column,
            text = line_text,
            caret_pad = " ".repeat(column - 1),
            carets = "^".repeat(width),
        )
    }
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} (bytes {}..{})",
            self.kind, self.message, self.span.start, self.span.end
        )
    }
}

impl std::error::Error for LangError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_col_counts_from_one() {
        let src = "clock x\nclock y\n";
        let err = LangError::parse("boom", Span::new(8, 13));
        assert_eq!(err.line_col(src), (2, 1));
        let err = LangError::parse("boom", Span::new(14, 15));
        assert_eq!(err.line_col(src), (2, 7));
    }

    #[test]
    fn render_has_caret_under_offender() {
        let src = "clock x\nclocc y\n";
        let err = LangError::parse("unknown keyword `clocc`", Span::new(8, 13));
        let report = err.render(src, "bad.tg");
        assert!(report.contains("bad.tg:2:1"), "{report}");
        assert!(report.contains("clocc y"), "{report}");
        assert!(report.contains("^^^^^"), "{report}");
    }

    #[test]
    fn render_survives_spans_past_eof() {
        let src = "x";
        let err = LangError::parse("unexpected end of input", Span::at(1));
        let report = err.render(src, "t.tg");
        assert!(report.contains("t.tg:1:2"), "{report}");
    }

    #[test]
    fn span_union() {
        assert_eq!(Span::new(3, 5).to(Span::new(1, 4)), Span::new(1, 5));
    }
}
