//! The workspace's one JSON layer: a reader, a string escaper and the
//! [`SolverStats`] field table.
//!
//! The reader takes the subset the `tiga serve` request protocol and the
//! `solver_matrix` baseline files use: objects, arrays, strings with every
//! JSON escape (surrogate pairs included), `true`, `false`, `null` and
//! integers that fit an `i64`.  Floats and exponents are refused, as is
//! nesting deeper than [`MAX_DEPTH`].  Every refusal is a [`ParseError`]
//! carrying the byte offset it happened at, never a panic.
//!
//! Writers build their JSON text directly, escaping strings with
//! [`Escaped`]; the solver counters' JSON names are spelled once, in the
//! table at the end of this module, which both writes and reads them.

use crate::SolverStats;
use std::fmt;

/// The deepest nesting of arrays and objects [`parse`] accepts.  The
/// request protocol needs two levels; the cap keeps the recursive reader's
/// stack use bounded whatever a request line holds.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.  Object fields keep their input order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// An integer.
    Int(i64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as `(name, value)` pairs in input order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The first field called `name` of an object, or ``missing field
    /// `name` `` when there is none or this is no object.
    pub fn field(&self, name: &str) -> Result<&Json, String> {
        let fields = match self {
            Json::Obj(fields) => fields.as_slice(),
            _ => &[],
        };
        fields
            .iter()
            .find_map(|(key, value)| (key == name).then_some(value))
            .ok_or_else(|| format!("missing field `{name}`"))
    }

    /// This value as the string field `name`, or an error saying it must be
    /// a string.
    pub fn str_field(&self, name: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(format!("`{name}` must be a string")),
        }
    }

    /// This value as the bool field `name`, or an error saying it must be a
    /// bool.
    pub fn bool_field(&self, name: &str) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            _ => Err(format!("`{name}` must be a bool")),
        }
    }

    /// This value as the count field `name`, or an error saying it must be a
    /// non-negative number (naming a negative one).
    pub fn usize_field(&self, name: &str) -> Result<usize, String> {
        match self {
            Json::Int(n) => usize::try_from(*n)
                .map_err(|_| format!("`{name}` must be a non-negative number, got {n}")),
            _ => Err(format!("`{name}` must be a non-negative number")),
        }
    }
}

/// A JSON syntax error with the byte offset it occurred at.
#[derive(Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub at: usize,
    /// What was wrong there.
    pub message: String,
}

/// Parses one JSON value that spans all of `text` (surrounding whitespace
/// allowed).
///
/// # Errors
///
/// Returns the first syntax error, a float, an integer outside `i64`,
/// nesting deeper than [`MAX_DEPTH`], or content after the value.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing content after the JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", char::from(byte))))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{text}`")))
        }
    }

    /// Parses the value at `pos`, inside `depth` open arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(self.error(&format!(
                "arrays and objects nest deeper than {MAX_DEPTH} levels"
            ))),
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("expected a JSON value")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let name = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth)?;
            fields.push((name, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.error("only integers are supported"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Int)
            .ok_or_else(|| self.error("bad number"))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.error("bad escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(byte) if byte < 0x20 => {
                    return Err(self.error("unescaped control character in string"))
                }
                Some(_) => {
                    // Copy the run of plain characters up to the next quote,
                    // escape or control byte.  Those are ASCII, so the run
                    // ends on a character boundary of the (UTF-8) input, and
                    // each byte is validated once.
                    let start = self.pos;
                    while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.error("bad UTF-8 in string"))?;
                    out.push_str(run);
                }
            }
        }
    }

    /// Decodes `XXXX` after `\u`, including surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let first = self.hex4()?;
        if (0xD800..=0xDBFF).contains(&first) {
            // High surrogate: a `\uXXXX` low surrogate must follow.
            if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                self.pos += 2;
                let second = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&second) {
                    return Err(self.error("bad low surrogate"));
                }
                let code = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                return char::from_u32(code).ok_or_else(|| self.error("bad surrogate pair"));
            }
            return Err(self.error("lone high surrogate"));
        }
        char::from_u32(first).ok_or_else(|| self.error("bad unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.error("bad \\u escape digits"))?;
        self.pos = end;
        Ok(code)
    }
}

/// Displays a string as the body of a JSON string: `"` and `\` are
/// backslash-escaped and control characters become `\u00XX`.  Unescaped
/// stretches are written whole; everything escaped is ASCII, so the byte
/// offsets cut only at character boundaries.
pub struct Escaped<'a>(pub &'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        let mut copied = 0;
        for (at, byte) in s.bytes().enumerate() {
            if byte != b'"' && byte != b'\\' && byte >= 0x20 {
                continue;
            }
            f.write_str(&s[copied..at])?;
            match byte {
                b'"' => f.write_str("\\\"")?,
                b'\\' => f.write_str("\\\\")?,
                _ => write!(f, "\\u{byte:04x}")?,
            }
            copied = at + 1;
        }
        f.write_str(&s[copied..])
    }
}

/// The value of one [`SolverStats`] counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// A count.
    Count(usize),
    /// A yes/no outcome (`early_terminated`).
    Flag(bool),
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Counter::Count(n) => write!(f, "{n}"),
            Counter::Flag(b) => write!(f, "{b}"),
        }
    }
}

impl From<usize> for Counter {
    fn from(n: usize) -> Self {
        Counter::Count(n)
    }
}

impl From<bool> for Counter {
    fn from(b: bool) -> Self {
        Counter::Flag(b)
    }
}

/// Implements the JSON side of [`SolverStats`] from the list of its fields,
/// whose names are the JSON names, each with the [`Json`] method that reads
/// it.  Reading builds the struct from every listed field, so the list
/// cannot miss one.
macro_rules! stats_json {
    ($($field:ident: $read:ident),* $(,)?) => {
        impl SolverStats {
            /// The counters under their JSON names, in the order
            /// `tiga solve --stats-json` and `tiga serve` payloads carry them.
            #[must_use]
            pub fn counters(&self) -> [(&'static str, Counter); 13] {
                [$((stringify!($field), Counter::from(self.$field))),*]
            }

            /// Reads the counters back from a parsed object holding the
            /// fields [`SolverStats::json_fields`] writes; other fields are
            /// ignored.
            ///
            /// # Errors
            ///
            /// Names the first counter that is missing or of the wrong type.
            pub fn from_json(object: &Json) -> Result<SolverStats, String> {
                Ok(SolverStats {
                    $($field: object.field(stringify!($field))?.$read(stringify!($field))?,)*
                })
            }
        }
    };
}

stats_json!(
    discrete_states: usize_field,
    graph_edges: usize_field,
    iterations: usize_field,
    winning_zones: usize_field,
    peak_federation_size: usize_field,
    reach_zones: usize_field,
    subsumed_zones: usize_field,
    pruned_evaluations: usize_field,
    early_terminated: bool_field,
    interned_zones: usize_field,
    intern_hits: usize_field,
    dbm_clones: usize_field,
    peak_live_zones: usize_field,
);

impl SolverStats {
    /// The counters as compact JSON fields without braces, in
    /// [`SolverStats::counters`] order.
    #[must_use]
    pub fn json_fields(&self) -> String {
        self.counters()
            .map(|(name, value)| format!("\"{name}\":{value}"))
            .join(",")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_matches_a_per_character_reference() {
        let reference = |s: &str| -> String {
            s.chars()
                .map(|c| match c {
                    '"' => "\\\"".to_string(),
                    '\\' => "\\\\".to_string(),
                    c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32),
                    c => c.to_string(),
                })
                .collect()
        };
        let every_control_byte: String = (0..0x20u8).map(char::from).collect();
        for text in [
            "",
            "plain",
            "\"quoted\" \\ back",
            "tiga-strategy v2\nrule 0 wait\t<=3\r\n",
            "\u{0}\u{1f}\u{7f} é 😀 \"",
            "ends with an escape\n",
            "\\",
            &every_control_byte,
            "\u{7f}é𝄞😀\"\\",
        ] {
            let escaped = Escaped(text).to_string();
            assert_eq!(escaped, reference(text), "{text:?}");
            // The reader gives the text back.
            assert_eq!(
                parse(&format!("\"{escaped}\"")),
                Ok(Json::Str(text.to_string())),
                "{text:?}"
            );
        }
    }

    #[test]
    fn nesting_is_capped_at_the_first_bracket_past_the_limit() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        for depth in [MAX_DEPTH + 1, 200_000] {
            let err = parse(&nested(depth)).unwrap_err();
            assert_eq!(err.at, MAX_DEPTH, "depth {depth}");
            assert!(err.message.contains(&MAX_DEPTH.to_string()), "{err:?}");
        }
        // Objects count too.
        let objects = format!(
            "{}{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert_eq!(parse(&objects).unwrap_err().at, 5 * MAX_DEPTH);
    }
}
