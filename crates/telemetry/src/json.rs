//! A minimal JSON reader and writer for flat trace objects (no external
//! deps).
//!
//! Trace lines are flat objects whose values are strings, unsigned
//! integers, or booleans — nothing nested. [`parse_object`] parses one
//! such line into an ordered key/value list and [`Value`]'s `Display`
//! writes a value back; the trace reader and encoder in
//! [`crate::event`] are built on them.

use std::fmt;

/// A parsed JSON scalar value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A JSON string (unescaped).
    Str(String),
    /// A non-negative JSON integer.
    Num(u64),
    /// A JSON boolean.
    Bool(bool),
}

/// Writes the value as JSON: a string quoted and escaped, a number or a
/// boolean as its literal.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "\"{}\"", escape_json(s)),
            Value::Num(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Parses one flat JSON object (`{"k":v,...}`) into its key/value pairs
/// in source order. Values must be strings, non-negative integers, or
/// booleans; anything else (nesting, floats, negatives, trailing data)
/// is an error described by the returned message.
pub fn parse_object(line: &str) -> Result<Vec<(String, Value)>, String> {
    let mut p = Parser { bytes: line.as_bytes(), pos: 0 };
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
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(pairs)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
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
                Some(b) if b < 0x20 => return Err("raw control character in string".into()),
                Some(b) => {
                    // Re-assemble UTF-8 byte-by-byte; input came from &str
                    // so sequences are valid.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    let end = start + width;
                    if end > self.bytes.len() {
                        return Err("truncated UTF-8 sequence".into());
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Value::Bool(true)),
            Some(b'f') => self.parse_literal("false", Value::Bool(false)),
            Some(b'0'..=b'9') => {
                let start = self.pos;
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
                if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
                    return Err("floats are not part of the trace schema".into());
                }
                let digits = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid number")?;
                digits.parse::<u64>().map(Value::Num).map_err(|e| format!("bad number: {e}"))
            }
            other => Err(format!(
                "expected string, integer, or bool, got {:?} at byte {}",
                other.map(char::from),
                self.pos
            )),
        }
    }

    fn parse_literal(&mut self, lit: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("expected literal '{lit}' at byte {}", self.pos))
        }
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
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
        assert!(parse_object(r#"{"k":1.5}"#).is_err());
        assert!(parse_object(r#"{"k":{}}"#).is_err());
        assert!(parse_object(r#"{"k":1} extra"#).is_err());
        assert!(parse_object(r#"{"k":01e}"#).is_err());
    }

    #[test]
    fn empty_object_is_ok() {
        assert_eq!(parse_object("{}").unwrap(), vec![]);
    }
}
