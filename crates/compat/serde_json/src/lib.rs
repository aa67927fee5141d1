//! Offline stand-in for the subset of `serde_json` used by this workspace:
//! [`to_string`], [`to_string_pretty`], [`from_str`] and [`Error`], over the
//! value-based `serde` stand-in.
//!
//! Parsing and printing are linear in the document size. The parser copies
//! each run of unescaped string bytes with one slice of the input, and the
//! printer writes unescaped runs, numbers and indentation straight into its
//! output buffer.
//!
//! [`from_str`] accepts RFC 8259 JSON, with these differences:
//!
//! - Strings may hold raw control characters. A `\u` escape takes exactly
//!   four hex digits; a UTF-16 surrogate code unit, paired or lone,
//!   decodes to U+FFFD.
//! - A number is an optional `-` and then a run of digits, `.`, `e`, `E`,
//!   `+` and `-`. A run of digits alone is a `u64` (`i64` after a `-`),
//!   and one out of range is an error; any other run must parse as an
//!   `f64`. So leading zeros and `1.` are accepted.
//! - Whitespace is space, tab, LF and CR.
//! - Object members keep their order, and duplicate keys are kept.
//! - Arrays and objects may nest at most 128 deep, so hostile input is a
//!   typed error instead of a stack overflow.
//!
//! The printer writes non-finite floats as `null`. [`to_string`] emits no
//! whitespace; [`to_string_pretty`] indents by two spaces and separates
//! keys from values with `": "`.

use std::fmt::{self, Write as _};

pub use serde::Value;
use serde::{Deserialize, Serialize};

/// Serialization/deserialization failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Self {
        Error(e.0)
    }
}

/// Serialize `value` as a pretty-printed (2-space indented) JSON string.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), 0, &mut out);
    Ok(out)
}

/// Serialize `value` as a compact JSON string.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value_compact(&value.to_value(), &mut out);
    Ok(out)
}

/// Parse a JSON string into `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    Ok(T::from_value(&Parser::new(s).parse_document()?)?)
}

// ---------------------------------------------------------------------------
// Printing
// ---------------------------------------------------------------------------

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    // Every byte that needs an escape is ASCII, so each unescaped run
    // `start..i` ends on a char boundary and is copied whole.
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[start..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => push_fmt(out, format_args!("\\u{b:04x}")),
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Format straight into `out`, with no intermediate `String`.
fn push_fmt(out: &mut String, args: fmt::Arguments<'_>) {
    out.write_fmt(args)
        .expect("formatting into a String cannot fail");
}

fn write_float(f: f64, out: &mut String) {
    if f.is_finite() {
        // `{:?}` prints the shortest representation that round-trips, and
        // always includes a '.' or exponent so integral floats stay floats.
        push_fmt(out, format_args!("{f:?}"));
    } else {
        // JSON has no infinities/NaN; mirror serde_json's `null`.
        out.push_str("null");
    }
}

/// Print a scalar (anything but an array or object).
fn write_scalar(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => push_fmt(out, format_args!("{i}")),
        Value::UInt(u) => push_fmt(out, format_args!("{u}")),
        Value::Float(f) => write_float(*f, out),
        Value::String(s) => write_escaped(s, out),
        Value::Array(_) | Value::Object(_) => unreachable!("containers are not scalars"),
    }
}

fn write_indent(level: usize, out: &mut String) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn write_value(v: &Value, indent: usize, out: &mut String) {
    match v {
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                write_indent(indent + 1, out);
                write_value(item, indent + 1, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            write_indent(indent, out);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (k, item)) in entries.iter().enumerate() {
                write_indent(indent + 1, out);
                write_escaped(k, out);
                out.push_str(": ");
                write_value(item, indent + 1, out);
                out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
            }
            write_indent(indent, out);
            out.push('}');
        }
        scalar => write_scalar(scalar, out),
    }
}

fn write_value_compact(v: &Value, out: &mut String) {
    match v {
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value_compact(item, out);
            }
            out.push(']');
        }
        Value::Object(entries) => {
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(k, out);
                out.push(':');
                write_value_compact(item, out);
            }
            out.push('}');
        }
        scalar => write_scalar(scalar, out),
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Deepest array/object nesting [`from_str`] accepts. The parser recurses
/// once per level, so the limit keeps hostile input (a frame of `[`s) a
/// typed error instead of a stack overflow.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    /// The document; string runs are sliced from it.
    src: &'a str,
    /// `src` as bytes, for scanning.
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
    /// Parse strings with the per-character oracle (equivalence tests).
    #[cfg(test)]
    per_char: bool,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
            #[cfg(test)]
            per_char: false,
        }
    }

    /// Parse the whole input as one value, with only whitespace around it.
    fn parse_document(mut self) -> Result<Value, Error> {
        self.skip_ws();
        let value = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing input"));
        }
        Ok(value)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => {
                if self.eat_keyword("null") {
                    Ok(Value::Null)
                } else {
                    Err(self.err("invalid keyword"))
                }
            }
            Some(b't') => {
                if self.eat_keyword("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(self.err("invalid keyword"))
                }
            }
            Some(b'f') => {
                if self.eat_keyword("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(self.err("invalid keyword"))
                }
            }
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            Some(&b) => Err(self.err(&format!("unexpected character {:?}", b as char))),
        }
    }

    /// Parse one array or object a level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        #[cfg(test)]
        if self.per_char {
            return self.parse_string_per_char();
        }
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next '"' or '\\' whole. Both are ASCII,
            // so the run ends on a char boundary of `src`.
            let Some(run) = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run;
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1;
            self.parse_escape(&mut out)?;
        }
    }

    /// Decode the escape after a '\\' at `pos - 1` and step past it.
    fn parse_escape(&mut self, out: &mut String) -> Result<(), Error> {
        match self.bytes.get(self.pos) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'u') => {
                let hex = self
                    .bytes
                    .get(self.pos + 1..self.pos + 5)
                    .ok_or_else(|| self.err("truncated \\u escape"))?;
                // Exactly four hex digits: no sign, no shorter form.
                let code = hex
                    .iter()
                    .try_fold(0, |code, &b| Some(code * 16 + char::from(b).to_digit(16)?))
                    .ok_or_else(|| self.err("invalid \\u escape"))?;
                // Surrogate pairs are not needed by this suite's documents;
                // map lone surrogates to U+FFFD.
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                self.pos += 4;
            }
            _ => return Err(self.err("invalid escape")),
        }
        self.pos += 1;
        Ok(())
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        // Every byte of a number is ASCII, so the slice is on char boundaries.
        let text = &self.src[start..self.pos];
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err("invalid number"))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| self.err("integer out of range"))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|_| self.err("integer out of range"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl Parser<'_> {
        /// The original per-character string parser, kept as the oracle
        /// for the run-copying one. It re-validates the rest of the input
        /// for every character, so it is quadratic in the document size.
        pub(super) fn parse_string_per_char(&mut self) -> Result<String, Error> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.bytes.get(self.pos) {
                    None => return Err(self.err("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.bytes.get(self.pos) {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let hex = self
                                    .bytes
                                    .get(self.pos + 1..self.pos + 5)
                                    .ok_or_else(|| self.err("truncated \\u escape"))?;
                                let hex = std::str::from_utf8(hex)
                                    .map_err(|_| self.err("invalid \\u escape"))?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| self.err("invalid \\u escape"))?;
                                // Surrogate pairs are not needed by this suite's
                                // documents; map lone surrogates to U+FFFD.
                                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                self.pos += 4;
                            }
                            _ => return Err(self.err("invalid escape")),
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 character (input is a &str, so the
                        // bytes are valid UTF-8).
                        let rest = std::str::from_utf8(&self.bytes[self.pos..])
                            .map_err(|_| self.err("invalid UTF-8"))?;
                        let c = rest.chars().next().unwrap();
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }
    }

    #[test]
    fn scalar_round_trips() {
        assert_eq!(from_str::<i64>("-42").unwrap(), -42);
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(from_str::<f64>("2.5").unwrap(), 2.5);
        assert_eq!(from_str::<f64>("1e3").unwrap(), 1000.0);
        assert_eq!(from_str::<String>("\"a\\nb\"").unwrap(), "a\nb");
        assert!(from_str::<bool>("true").unwrap());
    }

    #[test]
    fn float_round_trip_is_exact() {
        for f in [0.1, 1.0 / 3.0, 5.0, 1e-300, std::f64::consts::PI] {
            let s = to_string_pretty(&f).unwrap();
            assert_eq!(from_str::<f64>(&s).unwrap(), f, "{s}");
        }
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![vec![1i64, 2], vec![3]];
        let s = to_string_pretty(&v).unwrap();
        assert_eq!(from_str::<Vec<Vec<i64>>>(&s).unwrap(), v);
        let o: Vec<Option<f64>> = vec![Some(1.5), None];
        let s = to_string(&o).unwrap();
        assert_eq!(s, "[1.5,null]");
        assert_eq!(from_str::<Vec<Option<f64>>>(&s).unwrap(), o);
    }

    #[test]
    fn pretty_output_shape() {
        let v = vec![1i64];
        assert_eq!(to_string_pretty(&v).unwrap(), "[\n  1\n]");
    }

    #[test]
    fn string_escapes_are_pinned() {
        let s = "a\"b\\c\nd\re\tf\u{1}\u{1f}\u{7f}/é";
        let printed = "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001\\u001f\u{7f}/é\"";
        assert_eq!(to_string(&s).unwrap(), printed);
        assert_eq!(to_string_pretty(&s).unwrap(), printed);
        assert_eq!(from_str::<String>(printed).unwrap(), s);
    }

    #[test]
    fn errors_are_reported() {
        assert!(from_str::<i64>("").is_err());
        assert!(from_str::<i64>("12 34").is_err());
        assert!(from_str::<Vec<i64>>("[1,").is_err());
        assert!(from_str::<String>("\"abc").is_err());
        // `\\u` takes exactly four hex digits: no sign, no short form.
        for bad in ["\"\\u+041\"", "\"\\u-041\"", "\"\\u04g1\"", "\"\\u 041\""] {
            let err = from_str::<String>(bad).unwrap_err();
            assert!(
                err.to_string().contains("invalid \\u escape"),
                "{bad}: {err}"
            );
        }
        assert_eq!(from_str::<String>("\"\\u004A\\u00e9\"").unwrap(), "J\u{e9}");
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(from_str::<Value>(&nested(MAX_DEPTH)).is_ok());
        let err = from_str::<Value>(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        // A hostile 400 KB run of `[` is a clean error, not a stack overflow.
        assert!(from_str::<Value>(&"[".repeat(400_000)).is_err());
    }

    /// Parse `doc` as [`from_str`] does, with the run-copying string parser
    /// or the per-character oracle.
    fn parse(doc: &str, per_char: bool) -> Result<Value, Error> {
        Parser {
            per_char,
            ..Parser::new(doc)
        }
        .parse_document()
    }

    /// Characters a printed string must survive: every escape, control
    /// characters, DEL, and one- to four-byte UTF-8.
    const AWKWARD: &[char] = &[
        '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}', 'é', '€',
        '\u{fffd}', '𝄞',
    ];

    /// Random strings mixing awkward characters, arbitrary scalar values
    /// and long ASCII runs.
    struct Text;

    impl Strategy for Text {
        type Value = String;
        fn generate(&self, rng: &mut proptest::TestRng) -> String {
            let mut s = String::new();
            for _ in 0..(0usize..8).generate(rng) {
                match (0u8..3).generate(rng) {
                    0 => s.push(AWKWARD[(0..AWKWARD.len()).generate(rng)]),
                    1 => s.push(char::from_u32((0u32..0x11_0000).generate(rng)).unwrap_or('x')),
                    _ => {
                        let len = (0usize..400).generate(rng);
                        s.extend((0..len).map(|_| char::from((b'a'..=b'z').generate(rng))));
                    }
                }
            }
            s
        }
    }

    /// Random `Value` trees at most `depth` containers deep.
    struct Tree {
        depth: u32,
    }

    impl Strategy for Tree {
        type Value = Value;
        fn generate(&self, rng: &mut proptest::TestRng) -> Value {
            let kinds = if self.depth == 0 { 6 } else { 8 };
            let inner = Tree {
                depth: self.depth.saturating_sub(1),
            };
            match (0u8..kinds).generate(rng) {
                0 => Value::Null,
                1 => Value::Bool((0u8..2).generate(rng) == 1),
                2 => Value::Int((i64::MIN..=i64::MAX).generate(rng)),
                3 => Value::UInt((0..=u64::MAX).generate(rng)),
                4 => {
                    let f = f64::from_bits((0..=u64::MAX).generate(rng));
                    Value::Float(if f.is_finite() { f } else { 0.5 })
                }
                5 => Value::String(Text.generate(rng)),
                6 => Value::Array(proptest::collection::vec(inner, 0..5).generate(rng)),
                _ => Value::Object(proptest::collection::vec((Text, inner), 0..5).generate(rng)),
            }
        }
    }

    /// The JSON source of one escape form, `\u` with random case and code
    /// unit (lone surrogates included).
    struct Escape;

    impl Strategy for Escape {
        type Value = String;
        fn generate(&self, rng: &mut proptest::TestRng) -> String {
            const SIMPLE: [&str; 8] = ["\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t"];
            match (0..SIMPLE.len() + 2).generate(rng) {
                i if i < SIMPLE.len() => SIMPLE[i].to_string(),
                i if i == SIMPLE.len() => format!("\\u{:04x}", (0..=u16::MAX).generate(rng)),
                _ => format!("\\u{:04X}", (0..=u16::MAX).generate(rng)),
            }
        }
    }

    proptest! {
        #[test]
        fn run_copying_parser_matches_the_per_character_oracle(tree in Tree { depth: 4 }) {
            for doc in [to_string(&tree).unwrap(), to_string_pretty(&tree).unwrap()] {
                let parsed = parse(&doc, false);
                prop_assert_eq!(&parsed, &parse(&doc, true));
                // Printing what was parsed gives the document back.
                let parsed = parsed.unwrap();
                let reprinted = if doc.contains('\n') {
                    to_string_pretty(&parsed).unwrap()
                } else {
                    to_string(&parsed).unwrap()
                };
                prop_assert_eq!(reprinted, doc);
            }
        }

        #[test]
        fn every_escape_form_parses_as_the_oracle_does(
            pieces in proptest::collection::vec((Escape, Text), 0..12),
            cut in 0usize..usize::MAX,
        ) {
            // Raw text between the escapes, minus the two bytes that
            // would end the string or start another escape.
            let body: String = pieces
                .iter()
                .map(|(escape, text)| escape.clone() + &text.replace(['"', '\\'], ""))
                .collect();
            let doc = format!("\"{body}\"");
            let parsed = parse(&doc, false);
            prop_assert!(parsed.is_ok(), "{doc:?}: {parsed:?}");
            prop_assert_eq!(&parsed, &parse(&doc, true));
            // Truncated documents fail the same way in both.
            let cut = (0..=doc.len())
                .filter(|&i| doc.is_char_boundary(i))
                .nth(cut % (doc.chars().count() + 1))
                .unwrap();
            prop_assert_eq!(parse(&doc[..cut], false), parse(&doc[..cut], true));
        }
    }

    #[test]
    fn a_4_mib_string_parses_in_linear_time() {
        // One run of every width plus an escape per 16 bytes: about 250k
        // runs and escapes. The per-character parser takes minutes here.
        let unit = "ascii-é€𝄞\\n\\u00e9";
        let doc = format!("\"{}\"", unit.repeat((4 << 20) / unit.len()));
        assert!(doc.len() >= (4 << 20) - unit.len());
        let start = std::time::Instant::now();
        let s: String = from_str(&doc).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(s.matches('\n').count(), (4 << 20) / unit.len());
        assert!(elapsed.as_secs_f64() < 2.0, "took {elapsed:?}");
    }
}
