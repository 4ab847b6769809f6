//! A minimal JSON document model, parser and writer.
//!
//! The build environment has no crates.io access, so the workspace's vendored
//! `serde` is a marker-trait stand-in and real (de)serialization is written by
//! hand. This module centralises the JSON plumbing behind that convention:
//! scenario specs, scenario reports and sweep records all go through
//! [`JsonValue`].
//!
//! The subset implemented is RFC 8259 minus two deliberate simplifications:
//! numbers are carried as `f64` (integers above 2⁵³ lose precision — none of
//! the workspace's documents need them), and object key order is preserved as
//! written rather than treated as a map (which keeps round-trips stable).
//!
//! # Example
//!
//! ```
//! use geogossip_analysis::json::JsonValue;
//! let doc = JsonValue::parse(r#"{"n": 256, "torus": false, "tags": ["a"]}"#).unwrap();
//! assert_eq!(doc.get("n").and_then(JsonValue::as_u64), Some(256));
//! assert_eq!(JsonValue::parse(&doc.render()).unwrap(), doc);
//! ```

use std::fmt::Write as _;

/// A JSON document value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (carried as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, JsonValue)>),
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What the parser expected or found.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// Parses a complete JSON document (trailing whitespace allowed, trailing
    /// content rejected).
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        parser.skip_whitespace();
        let value = parser.parse_value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing content after the document"));
        }
        Ok(value)
    }

    /// Renders the value compactly (no insignificant whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders the value with two-space indentation, ending without a
    /// trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(v) => out.push_str(&render_number(*v)),
            JsonValue::String(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                write_sequence(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d);
                });
            }
            JsonValue::Object(entries) => {
                write_sequence(out, indent, depth, '{', '}', entries.len(), |out, i, d| {
                    let (key, value) = &entries[i];
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, d);
                });
            }
        }
    }

    /// Looks a key up in an object (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is a non-negative whole number
    /// representable in 53 bits.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 9e15 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value's items, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value's entries, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    /// Convenience constructor for an object from owned entries.
    pub fn object(entries: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::Object(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Convenience constructor for a string value.
    pub fn string(s: impl Into<String>) -> JsonValue {
        JsonValue::String(s.into())
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Number(v)
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::Number(v as f64)
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::Number(v as f64)
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

/// Shared array/object rendering: the open/close brackets plus one item per
/// line when pretty-printing.
fn write_sequence(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut write_item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            for _ in 0..(depth + 1) * width {
                out.push(' ');
            }
        }
        write_item(out, i, depth + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
    out.push(close);
}

/// Renders a number: whole values in integer form, everything else through
/// Rust's shortest-round-trip float formatting — in exponent form below 1e-6
/// and from 1e21 up in magnitude (ECMAScript's switch points), so that
/// ε = 1e-300 prints as `1e-300` rather than as a 300-digit decimal.
fn render_number(v: f64) -> String {
    if !v.is_finite() {
        // JSON has no NaN/∞; null is the least-wrong representation and the
        // writer documents it here rather than panicking mid-report.
        return "null".to_string();
    }
    if v.fract() == 0.0 && v.abs() <= 9e15 {
        format!("{}", v as i64)
    } else if v.abs() < 1e-6 || v.abs() >= 1e21 {
        format!("{v:e}")
    } else {
        format!("{v}")
    }
}

/// Escapes `s` as a JSON string literal (quotes included) per RFC 8259.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
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

    fn parse_value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(self.error(format!("unexpected byte `{}`", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII by construction");
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.error(format!("invalid number `{text}`")))
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
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
                    let escape = self.peek().ok_or_else(|| self.error("dangling escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let unit = self.parse_hex4()?;
                            // A high surrogate must be completed by a low
                            // surrogate escape; anything else (including a
                            // lone surrogate) is an error rather than a
                            // garbage code point.
                            let ch = if (0xD800..0xDC00).contains(&unit) {
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.error("lone high surrogate in \\u escape"));
                                }
                                self.pos += 2;
                                let low = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self
                                        .error("high surrogate not followed by a low surrogate"));
                                }
                                let combined = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(unit)
                            };
                            out.push(ch.ok_or_else(|| self.error("invalid \\u escape"))?);
                        }
                        c => return Err(self.error(format!("invalid escape `\\{}`", c as char))),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar value (input is a &str, so the
                    // byte stream is valid UTF-8).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .expect("input originated from &str");
                    let ch = rest.chars().next().expect("peeked a byte");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.error("non-ASCII \\u escape"))?;
        let value = u32::from_str_radix(text, 16).map_err(|_| self.error("non-hex \\u escape"))?;
        self.pos += 4;
        Ok(value)
    }

    fn parse_array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(entries));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(entries));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(
            JsonValue::parse(" -2.5e2 ").unwrap(),
            JsonValue::Number(-250.0)
        );
        assert_eq!(
            JsonValue::parse(r#""hi\nthere""#).unwrap(),
            JsonValue::String("hi\nthere".into())
        );
    }

    #[test]
    fn parses_nested_documents() {
        let doc = JsonValue::parse(r#"{"a": [1, {"b": false}], "c": "x"}"#).unwrap();
        assert_eq!(doc.get("c").and_then(JsonValue::as_str), Some("x"));
        let items = doc.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(items[0].as_u64(), Some(1));
        assert_eq!(items[1].get("b").and_then(JsonValue::as_bool), Some(false));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"unterminated"] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn render_round_trips() {
        let doc = JsonValue::parse(
            r#"{"name": "smoke \"run\"", "n": 256, "ratio": 0.125, "caps": [null, 1e9], "flag": true}"#,
        )
        .unwrap();
        assert_eq!(JsonValue::parse(&doc.render()).unwrap(), doc);
        assert_eq!(JsonValue::parse(&doc.pretty()).unwrap(), doc);
    }

    #[test]
    fn pretty_output_is_indented() {
        let doc = JsonValue::object(vec![("a", JsonValue::Array(vec![1u64.into()]))]);
        assert_eq!(doc.pretty(), "{\n  \"a\": [\n    1\n  ]\n}");
        assert_eq!(doc.render(), r#"{"a":[1]}"#);
    }

    #[test]
    fn numbers_render_integers_without_fraction() {
        assert_eq!(render_number(200_000_000.0), "200000000");
        assert_eq!(render_number(0.05), "0.05");
        assert_eq!(render_number(f64::NAN), "null");
    }

    #[test]
    fn extreme_numbers_render_in_exponent_form_and_parse_back_exactly() {
        for (v, text) in [
            (1e-300, "1e-300"),
            (5e-324, "5e-324"),
            (-2.5e-7, "-2.5e-7"),
            (1e300, "1e300"),
        ] {
            assert_eq!(render_number(v), text);
            let back = JsonValue::parse(text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{text}");
        }
        for (v, text) in [
            (0.05, "0.05"),
            (12345.5, "12345.5"),
            (9e15, "9000000000000000"),
        ] {
            assert_eq!(render_number(v), text);
        }
    }

    #[test]
    fn unicode_escapes_and_surrogate_pairs() {
        assert_eq!(
            JsonValue::parse(r#""é""#).unwrap(),
            JsonValue::String("é".into())
        );
        assert_eq!(
            JsonValue::parse(r#""😀""#).unwrap(),
            JsonValue::String("😀".into())
        );
        // An escaped surrogate pair decodes to the combined scalar.
        assert_eq!(
            JsonValue::parse("\"\\ud83d\\ude00\"").unwrap(),
            JsonValue::String("😀".into())
        );
        // Broken pairs are errors, not garbage characters: a high surrogate
        // followed by a non-surrogate escape, a lone high surrogate, and a
        // lone low surrogate.
        assert!(JsonValue::parse("\"\\ud83d\\u0041\"").is_err());
        assert!(JsonValue::parse("\"\\ud83dA\"").is_err());
        assert!(JsonValue::parse("\"\\udc00\"").is_err());
    }

    #[test]
    fn accessors_reject_wrong_types() {
        let doc = JsonValue::parse(r#"{"x": 1.5}"#).unwrap();
        assert_eq!(doc.get("x").unwrap().as_u64(), None);
        assert_eq!(doc.get("x").unwrap().as_f64(), Some(1.5));
        assert_eq!(doc.get("missing"), None);
        assert!(JsonValue::Null.is_null());
        assert_eq!(doc.as_object().unwrap().len(), 1);
    }
}
