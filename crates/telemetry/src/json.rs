//! A minimal JSON reader and writer for flat objects (no external deps).
//!
//! A flat object's values are strings, unsigned integers, `f64`s or
//! booleans — nothing nested. [`parse_object`] parses one object into an
//! ordered key/value list and [`write_object`] writes one back. Both the
//! trace ([`crate::event`]) and the campaign store's run results are
//! built on them; run results use `f64` values, while the trace reader
//! rejects them, so traces stay integer-only.

use std::fmt::{self, Write as _};

/// A parsed JSON scalar value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A JSON string (unescaped).
    Str(String),
    /// A non-negative JSON integer.
    Num(u64),
    /// Any other JSON number, kept as its source text until
    /// [`Value::as_f64`] reads it, so an `f64` round-trips bit-exactly.
    F64(String),
    /// A JSON boolean.
    Bool(bool),
}

impl Value {
    /// `x` written `{:?}`: the shortest text that reads back to the same
    /// bits, always with a fraction or an exponent. A non-finite `x` has
    /// no JSON form; its text (`NaN`, `inf`) fails to parse.
    pub fn float(x: f64) -> Value {
        Value::F64(format!("{x:?}"))
    }

    /// The value of a [`Value::F64`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(text) => text.parse().ok(),
            _ => None,
        }
    }
}

/// Writes the value as JSON: a string quoted and escaped, a number or a
/// boolean as its literal.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write_quoted(f, s),
            Value::Num(n) => fmt::Display::fmt(n, f),
            Value::F64(text) => f.write_str(text),
            Value::Bool(b) => fmt::Display::fmt(b, f),
        }
    }
}

/// Writes `s` as a JSON string literal: quoted, each run of plain
/// characters whole and each character that ends a run (all ASCII)
/// escaped.
fn write_quoted(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut rest = s;
    while let Some(i) = rest.bytes().position(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.write_str(&rest[..i])?;
        match rest.as_bytes()[i] {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            b => write!(out, "\\u{b:04x}")?,
        }
        rest = &rest[i + 1..];
    }
    out.write_str(rest)?;
    out.write_char('"')
}

/// Writes one flat object, `{"k":v,...}`, with `pairs` in order: the
/// inverse of [`parse_object`].
pub fn write_object<'a, K: AsRef<str>>(pairs: impl IntoIterator<Item = (K, &'a Value)>) -> String {
    let pairs = pairs.into_iter();
    // Room for ~24 bytes a pair up front: growing a trace line's buffer
    // step by step cost more than writing the line.
    let mut out = String::with_capacity(2 + 24 * pairs.size_hint().0);
    out.push('{');
    for (i, (key, value)) in pairs.enumerate() {
        out.push_str(if i == 0 { "" } else { "," });
        let _ = write_quoted(&mut out, key.as_ref());
        out.push(':');
        let _ = write!(out, "{value}");
    }
    out.push('}');
    out
}

/// Parses one flat JSON object (`{"k":v,...}`) into its key/value pairs
/// in source order. Values must be strings, numbers or booleans; anything
/// else (nesting, `null`, a malformed or non-finite number, trailing
/// data) is an error described by the returned message.
pub fn parse_object(line: &str) -> Result<Vec<(String, Value)>, String> {
    let mut p = Parser { text: line, pos: 0 };
    p.skip_ws();
    p.expect(b'{')?;
    let mut pairs = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.parse_string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.parse_value()?;
            pairs.push((key, value));
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => {
                    return Err(format!("expected ',' or '}}', got {:?}", other.map(char::from)))
                }
            }
        }
    }
    p.skip_ws();
    if p.pos != p.text.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(pairs)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!(
                "expected '{}', got {:?} at byte {}",
                char::from(want),
                other.map(char::from),
                self.pos
            )),
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, escape or control byte
            // whole: those bytes are ASCII, so the run ends on a char
            // boundary of the source text.
            let rest = &self.text[self.pos..];
            let run = rest.bytes().position(|b| b == b'"' || b == b'\\' || b < 0x20);
            out.push_str(&rest[..run.unwrap_or(rest.len())]);
            self.pos += run.unwrap_or(rest.len());
            match self.next() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.next().ok_or("truncated \\u escape")?;
                            let v = (d as char).to_digit(16).ok_or("bad \\u escape digit")?;
                            code = code * 16 + v;
                        }
                        out.push(char::from_u32(code).ok_or("\\u escape is not a scalar value")?);
                    }
                    other => return Err(format!("bad escape {:?}", other.map(char::from))),
                },
                Some(_) => return Err("raw control character in string".into()),
            }
        }
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Value::Bool(true)),
            Some(b'f') => self.parse_literal("false", Value::Bool(false)),
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                while matches!(self.peek(), Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')) {
                    self.pos += 1;
                }
                let text = &self.text[start..self.pos];
                if text.bytes().all(|b| b.is_ascii_digit()) {
                    text.parse().map(Value::Num).map_err(|e| format!("bad number: {e}"))
                } else if text.parse::<f64>().is_ok_and(f64::is_finite) {
                    Ok(Value::F64(text.to_string()))
                } else {
                    Err(format!("bad number {text:?}"))
                }
            }
            other => Err(format!(
                "expected string, number, or bool, got {:?} at byte {}",
                other.map(char::from),
                self.pos
            )),
        }
    }

    fn parse_literal(&mut self, lit: &str, value: Value) -> Result<Value, String> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("expected literal '{lit}' at byte {}", self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_object_in_order() {
        let pairs =
            parse_object(r#"{"type":"warp_mem","sm":3,"hit":true,"name":"MM [x]"}"#).unwrap();
        assert_eq!(
            pairs,
            vec![
                ("type".into(), Value::Str("warp_mem".into())),
                ("sm".into(), Value::Num(3)),
                ("hit".into(), Value::Bool(true)),
                ("name".into(), Value::Str("MM [x]".into())),
            ]
        );
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let pairs = parse_object(r#"{"k":"a\"b\\c\ndAé"}"#).unwrap();
        assert_eq!(pairs[0].1, Value::Str("a\"b\\c\ndAé".into()));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_object("{").is_err());
        assert!(parse_object(r#"{"k":{}}"#).is_err());
        assert!(parse_object(r#"{"k":1} extra"#).is_err());
        assert!(parse_object(r#"{"k":01e}"#).is_err());
        assert!(parse_object("{\"k\":\"\\é\"}").is_err(), "a non-ASCII escape");
        assert!(parse_object("{\"k\":é}").is_err());
        for bad in ["NaN", "inf", "-inf", "1e999", "1.2.3", "--1", "-", "1-2"] {
            assert!(parse_object(&format!("{{\"k\":{bad}}}")).is_err(), "{bad}");
        }
    }

    /// Every `f64` a run result can hold comes back with the same bits,
    /// and the writer is the parser's inverse.
    #[test]
    fn floats_round_trip_bit_exactly() {
        let xs = [0.1 + 0.2, 1.0 / 3.0, -0.0, 0.0, 1.0, -2.5, 1e16, 1e-7, 5e-324, f64::MAX];
        let values: Vec<(String, Value)> =
            xs.iter().enumerate().map(|(i, &x)| (format!("x{i}"), Value::float(x))).collect();
        let line = write_object(values.iter().map(|(k, v)| (k, v)));
        assert!(line.starts_with(r#"{"x0":0.30000000000000004,"x1":0.3333333333333333,"x2":-0.0,"#));
        let parsed = parse_object(&line).unwrap();
        assert_eq!(parsed, values);
        for ((_, value), x) in parsed.iter().zip(xs) {
            assert_eq!(value.as_f64().map(f64::to_bits), Some(x.to_bits()), "{x:?}");
        }
        assert_eq!(Value::Num(1).as_f64(), None, "an integer is not an f64 value");
        assert_eq!(parse_object(r#"{"k":-3}"#).unwrap()[0].1.as_f64(), Some(-3.0));
    }

    #[test]
    fn empty_object_is_ok() {
        assert_eq!(parse_object("{}").unwrap(), vec![]);
    }
}
