//! A hand-rolled JSON tree, writer, and parser.
//!
//! The wire format is line-delimited JSON, and the build environment vendors
//! no serialisation crates — so this module implements the small JSON subset
//! the protocol needs from scratch: objects, arrays, strings (with full
//! escape handling, including `\uXXXX` and surrogate pairs), 64-bit
//! integers, floats, booleans, and `null`.
//!
//! Two deliberate simplifications relative to a general-purpose library:
//!
//! * numbers are kept as either `i64` or `f64` — a token with `.`/`e` (or
//!   one that overflows `i64`) parses as [`Json::Float`], everything else as
//!   [`Json::Int`].  Floats render with Rust's shortest-round-trip
//!   formatting, so an `f64` survives encode → decode bit-for-bit;
//! * objects preserve insertion order in a `Vec` (no hashing, deterministic
//!   output) and keep the last entry on duplicate keys, like every lenient
//!   parser.

use std::fmt;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fractional part or exponent, within `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion-ordered.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Shorthand for a string value.
    pub fn str(text: impl Into<String>) -> Json {
        Json::Str(text.into())
    }

    /// Member lookup on an object (`None` on other variants or a missing
    /// key).  Duplicate keys resolve to the last entry.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string contents, when this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer contents, when this is an `Int`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The numeric contents of an `Int` or `Float`.
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The boolean contents, when this is a `Bool`.
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, when this is an `Array`.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises to compact JSON (no whitespace, deterministic member
    /// order, `"` and `\` and control characters escaped) — one line as
    /// long as no string contains a raw `\n`, which the escaper turns into
    /// `\n` anyway, so the output never contains a literal newline.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Float(f) => write_float(*f, out),
            Json::Str(s) => write_string(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document; the whole input must be consumed (trailing
    /// whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut parser = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after the document"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode())
    }
}

/// A JSON syntax error, with the byte offset where parsing stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.detail)
    }
}

impl std::error::Error for JsonError {}

fn write_float(f: f64, out: &mut String) {
    if f.is_finite() {
        let text = format!("{f}");
        out.push_str(&text);
        // `{}` prints integral floats without a dot; keep the float-ness on
        // the wire so the value re-parses as a Float.
        if !text.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        // JSON has no NaN/Infinity; the protocol never produces them, but a
        // total encoder must map them somewhere deterministic.
        out.push_str("null");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`Json::parse`] accepts.  The protocol
/// nests a few levels; the bound keeps a hostile document from exhausting
/// the parsing thread's stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, detail: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            detail: detail.into(),
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{text}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.error(format!("nested deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let nested = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                nested
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.error(format!("unexpected character `{}`", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let Some(&byte) = rest.first() else {
                return Err(self.error("unterminated string"));
            };
            match byte {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                b if b < 0x20 => return Err(self.error("raw control character in string")),
                _ => {
                    // Copy the run up to the next quote, backslash or control
                    // byte in one go.  Those are all ASCII, so the run ends
                    // on a char boundary of the (valid UTF-8) input.
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(rest.len());
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let Some(byte) = self.peek() else {
            return Err(self.error("unterminated escape"));
        };
        self.pos += 1;
        Ok(match byte {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{08}',
            b'f' => '\u{0C}',
            b'u' => {
                let unit = self.hex4()?;
                if (0xD800..0xDC00).contains(&unit) {
                    // High surrogate: a low surrogate escape must follow.
                    if self.literal("\\u", Json::Null).is_err() {
                        return Err(self.error("lone high surrogate"));
                    }
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.error("invalid low surrogate"));
                    }
                    let scalar = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                    char::from_u32(scalar).ok_or_else(|| self.error("invalid surrogate pair"))?
                } else if (0xDC00..0xE000).contains(&unit) {
                    return Err(self.error("lone low surrogate"));
                } else {
                    char::from_u32(unit).ok_or_else(|| self.error("invalid \\u escape"))?
                }
            }
            other => return Err(self.error(format!("invalid escape `\\{}`", other as char))),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.error("non-ASCII in \\u escape"))?;
        let unit =
            u32::from_str_radix(text, 16).map_err(|_| self.error("non-hex in \\u escape"))?;
        self.pos = end;
        Ok(unit)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(byte) = self.peek() {
            match byte {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ASCII digits are valid UTF-8");
        if !fractional {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.error(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(value: Json) {
        let encoded = value.encode();
        assert!(
            !encoded.contains('\n'),
            "encoded JSON must stay on one line: {encoded}"
        );
        assert_eq!(Json::parse(&encoded).unwrap(), value, "via {encoded}");
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(Json::Null);
        round_trip(Json::Bool(true));
        round_trip(Json::Bool(false));
        round_trip(Json::Int(0));
        round_trip(Json::Int(-42));
        round_trip(Json::Int(i64::MAX));
        round_trip(Json::Int(i64::MIN));
        round_trip(Json::Float(0.25));
        round_trip(Json::Float(-1.5e-8));
        round_trip(Json::Float(3.0));
        round_trip(Json::Str(String::new()));
        round_trip(Json::str("plain"));
    }

    #[test]
    fn floats_round_trip_bit_for_bit() {
        for f in [
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            -0.0,
            17.391304347826086,
        ] {
            let encoded = Json::Float(f).encode();
            let Json::Float(back) = Json::parse(&encoded).unwrap() else {
                panic!("{encoded} did not parse as a float");
            };
            assert_eq!(f.to_bits(), back.to_bits(), "via {encoded}");
        }
    }

    #[test]
    fn strings_with_every_escape_class_round_trip() {
        round_trip(Json::str("quote \" backslash \\ slash /"));
        round_trip(Json::str("newline \n return \r tab \t"));
        round_trip(Json::str("control \u{01}\u{1f} backspace \u{08} ff \u{0C}"));
        round_trip(Json::str("unicode é ü ↦ 漢字 🙂"));
        round_trip(Json::str("  leading and trailing  "));
    }

    /// A mebibyte-long string decodes in time linear in its length, with
    /// multi-byte characters on both sides of every escape.
    #[test]
    fn a_long_string_with_every_escape_class_round_trips() {
        let pieces = [
            ("plain ascii ", "plain ascii "),
            ("é", "é"),
            ("漢字", "漢字"),
            ("🙂", "🙂"),
            (r#"\""#, "\""),
            (r"\\", "\\"),
            (r"\/", "/"),
            (r"\n", "\n"),
            (r"\r", "\r"),
            (r"\t", "\t"),
            (r"\b", "\u{08}"),
            (r"\f", "\u{0C}"),
            (r"\u0001", "\u{01}"),
            (r"\u00e9", "é"),
            (r"\ud83d\ude42", "🙂"),
        ];
        let (mut doc, mut expected) = (String::from("\""), String::new());
        for i in 0.. {
            if expected.len() >= 1 << 20 {
                break;
            }
            let (raw, text) = pieces[i % pieces.len()];
            doc.push_str(raw);
            expected.push_str(text);
        }
        doc.push('"');
        assert_eq!(Json::parse(&doc).unwrap(), Json::Str(expected.clone()));
        round_trip(Json::Str(expected));
    }

    #[test]
    fn nesting_depth_is_bounded() {
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&deepest).is_ok());
        let err = Json::parse(&"[{\"k\":".repeat(1 << 16)).unwrap_err();
        assert!(err.detail.contains("nested deeper"), "{err}");
    }

    #[test]
    fn containers_round_trip() {
        round_trip(Json::Array(vec![]));
        round_trip(Json::Object(vec![]));
        round_trip(Json::Array(vec![
            Json::Int(1),
            Json::str("two"),
            Json::Null,
            Json::Array(vec![Json::Bool(false)]),
        ]));
        round_trip(Json::Object(vec![
            ("op".into(), Json::str("answer")),
            ("id".into(), Json::Int(7)),
            (
                "nested".into(),
                Json::Object(vec![("k".into(), Json::Float(0.5))]),
            ),
        ]));
    }

    #[test]
    fn parses_interop_syntax() {
        // Whitespace, \u escapes, surrogate pairs, numbers in every shape.
        let doc = r#" { "a" : [ 1 , -2.5e3 , "\u0041\ud83d\ude42" ] , "b" : null } "#;
        let value = Json::parse(doc).unwrap();
        assert_eq!(
            value.get("a").unwrap().as_array().unwrap()[2].as_str(),
            Some("A🙂")
        );
        assert_eq!(value.get("b"), Some(&Json::Null));
        assert_eq!(
            value.get("a").unwrap().as_array().unwrap()[1],
            Json::Float(-2500.0)
        );
    }

    #[test]
    fn integer_overflow_degrades_to_float() {
        let value = Json::parse("99999999999999999999").unwrap();
        assert!(matches!(value, Json::Float(_)));
    }

    #[test]
    fn duplicate_keys_resolve_to_the_last_entry() {
        let value = Json::parse(r#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(value.get("k"), Some(&Json::Int(2)));
    }

    #[test]
    fn malformed_documents_are_errors_not_panics() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"unterminated",
            "{\"k\" 1}",
            "nul",
            "1 2",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\ud800\\u0041\"",
            "{\"k\":}",
            "[,]",
            "--1",
            "\u{01}",
        ] {
            assert!(Json::parse(bad).is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn error_reports_an_offset() {
        let err = Json::parse("[1, x]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("byte 4"));
    }
}
