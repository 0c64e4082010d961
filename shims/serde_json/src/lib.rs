//! Offline stand-in for `serde_json`.
//!
//! Serializes the shim `serde::Value` tree to JSON text and parses JSON text
//! back into it. Floats are rendered with Rust's shortest-round-trip
//! formatting (the `float_roundtrip` behavior), non-finite floats render as
//! `null` (as upstream does), and object key order is preserved.

use serde::{DeserializeOwned, Serialize, Value};
use std::fmt;

/// (De)serialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl fmt::Display) -> Error {
        Error {
            msg: msg.to_string(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Error {
        Error::new(e)
    }
}

/// Result alias matching upstream's `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

pub use serde::Value as JsonValue;

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_float(f: f64, out: &mut String) {
    if !f.is_finite() {
        out.push_str("null");
    } else if f == f.trunc() && f.abs() < 1e15 {
        // Keep the ".0" so floats stay visually distinct from integers.
        out.push_str(&format!("{f:.1}"));
    } else {
        out.push_str(&format!("{f}"));
    }
}

fn write_value(v: &Value, out: &mut String, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => write_float(*f, out),
        Value::Str(s) => escape_into(s, out),
        Value::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if let Some(width) = indent {
                    out.push('\n');
                    out.push_str(&" ".repeat(width * (level + 1)));
                }
                write_value(item, out, indent, level + 1);
            }
            if let Some(width) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(width * level));
            }
            out.push(']');
        }
        Value::Obj(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if let Some(width) = indent {
                    out.push('\n');
                    out.push_str(&" ".repeat(width * (level + 1)));
                }
                escape_into(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(val, out, indent, level + 1);
            }
            if let Some(width) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(width * level));
            }
            out.push('}');
        }
    }
}

/// Serialize a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, None, 0);
    Ok(out)
}

/// Serialize a value to 2-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, Some(2), 0);
    Ok(out)
}

/// Serialize directly to a `Value` tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value> {
    Ok(value.to_value())
}

/// Rebuild a typed value from a `Value` tree.
pub fn from_value<T: DeserializeOwned>(value: Value) -> Result<T> {
    T::from_value(&value).map_err(Error::from)
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Deepest array/object nesting the parser accepts (upstream serde_json's
/// recursion limit). Past it, parsing fails with a positioned error
/// instead of recursing until the stack overflows.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Parser<'a> {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, msg: impl fmt::Display) -> Error {
        Error::new(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => {
                if self.eat_literal("null") {
                    Ok(Value::Null)
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b't') => {
                if self.eat_literal("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b'f') => {
                if self.eat_literal("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("recursion limit exceeded"));
                }
                self.depth += 1;
                self.pos += 1;
                let value = if open == b'[' {
                    self.parse_array()
                } else {
                    self.parse_object()
                };
                self.depth -= 1;
                value
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("unexpected character")),
        }
    }

    /// The rest of an array, after its `[`.
    fn parse_array(&mut self) -> Result<Value> {
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    /// The rest of an object, after its `{`.
    fn parse_object(&mut self) -> Result<Value> {
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed by this workspace.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 code point, decoded from at most the
                    // 4 bytes it can span: validating the rest of the
                    // document here would make a parse quadratic.
                    let window = &self.bytes[self.pos..(self.pos + 4).min(self.bytes.len())];
                    let c = (window.utf8_chunks().next())
                        .and_then(|chunk| chunk.valid().chars().next())
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err(format!("invalid number `{text}`")))
    }
}

/// Parse JSON text into a typed value.
pub fn from_str<T: DeserializeOwned>(s: &str) -> Result<T> {
    let mut parser = Parser::new(s);
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing characters"));
    }
    T::from_value(&value).map_err(Error::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&42u32).unwrap(), "42");
        assert_eq!(to_string(&-7i64).unwrap(), "-7");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(to_string(&"a\"b").unwrap(), "\"a\\\"b\"");
        let v: f64 = from_str("2.5e3").unwrap();
        assert_eq!(v, 2500.0);
        let n: Vec<u64> = from_str("[1, 2, 3]").unwrap();
        assert_eq!(n, vec![1, 2, 3]);
        let wide: String = from_str("\"é漢🎉\"").unwrap();
        assert_eq!(wide, "é漢🎉");
    }

    #[test]
    fn float_round_trip_is_exact() {
        for &f in &[0.1, 1.0 / 3.0, 6.02e23, 1e-300, -123.456789] {
            let text = to_string(&f).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(back, f, "{text}");
        }
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
        for unit in ["[", "{\"a\":"] {
            let deep = unit.repeat((1 << 20) / unit.len());
            let err = from_str::<Value>(&deep).unwrap_err();
            assert!(
                err.to_string().contains("recursion limit exceeded"),
                "{err}"
            );
        }
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(from_str::<Value>(&nested(MAX_DEPTH)).is_ok());
        assert!(from_str::<Value>(&nested(MAX_DEPTH + 1)).is_err());
    }

    mod hostile {
        use super::*;
        use proptest::prelude::*;

        /// Bytes drawn mostly from JSON's structural alphabet, so deep and
        /// half-finished nestings are common rather than vanishingly rare.
        const ALPHABET: &[u8] = b"[]{}\":,0-1.5e+truefalsnl \\u";

        proptest! {
            #[test]
            fn arbitrary_bytes_parse_or_fail_typed(
                raw in prop::collection::vec(any::<u8>(), 0..512),
                picks in prop::collection::vec(0..ALPHABET.len(), 0..2048),
            ) {
                let text = String::from_utf8_lossy(&raw);
                let _ = from_str::<Value>(&text);
                let structural: String = picks.iter().map(|&i| ALPHABET[i] as char).collect();
                let _ = from_str::<Value>(&structural);
            }
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "a timing bound; run with --release")]
    fn parse_time_is_linear_in_string_bytes() {
        // ~10 MB of short keys. Re-validating the rest of the document for
        // each string character took minutes on this; a linear parse takes
        // well under a second.
        let mut doc = String::from("{");
        for i in 0..600_000 {
            doc += &format!("\"k{i}\":{i},");
        }
        doc += "\"end\":0}";
        assert!(doc.len() >= 8 << 20, "{} bytes", doc.len());
        let start = std::time::Instant::now();
        let Value::Obj(fields) = from_str::<Value>(&doc).unwrap() else {
            panic!("not an object")
        };
        let elapsed = start.elapsed();
        assert_eq!(fields.len(), 600_001);
        assert!(elapsed.as_secs_f64() < 2.0, "parsed in {elapsed:?}");
    }

    #[test]
    fn nested_object_round_trip() {
        let v = Value::Obj(vec![
            ("a".into(), Value::Arr(vec![Value::Int(1), Value::Null])),
            ("b".into(), Value::Str("x\ny".into())),
        ]);
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
        let pretty = to_string_pretty(&v).unwrap();
        let back2: Value = from_str(&pretty).unwrap();
        assert_eq!(back2, v);
    }
}
