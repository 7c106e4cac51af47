//! Offline stand-in for `serde_json`: renders and parses the `serde` shim's
//! [`Value`] tree as standard JSON text.

use serde::value::Value;
use serde::{Deserialize, Serialize};

/// Serialization/deserialization error.
#[derive(Clone, Debug)]
pub struct Error(pub String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Compact JSON text for any serializable value.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, None, 0);
    Ok(out)
}

/// Pretty-printed (2-space indent) JSON text.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, Some(2), 0);
    Ok(out)
}

/// Parses JSON text into any deserializable type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value(s)?;
    T::from_value(&value).map_err(Error)
}

// ----------------------------------------------------------------------
// Rendering
// ----------------------------------------------------------------------

fn write_value(v: &Value, out: &mut String, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Num(n) => write_num(*n, out),
        Value::Str(s) => write_str(s, out),
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
                newline_indent(out, indent, level + 1);
                write_value(item, out, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Value::Obj(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_str(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(val, out, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; null is the conventional stand-in.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

// ----------------------------------------------------------------------
// Parsing (recursive descent)
// ----------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing input at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(Error(format!(
                "unexpected input {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            ))),
        }
    }

    fn literal(&mut self, text: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(v)
        } else {
            Err(Error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| Error(e.to_string()))?;
        // An integer literal stays exact; one beyond i128 is a float.
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| Error(format!("invalid number `{text}`: {e}")))
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error("unterminated string".into())),
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| Error(e.to_string()))?,
                                16,
                            )
                            .map_err(|e| Error(e.to_string()))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error(format!("bad escape {:?}", other.map(|c| c as char))))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|e| Error(e.to_string()))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                other => {
                    return Err(Error(format!(
                        "expected `,` or `]`, found {:?}",
                        other.map(|c| c as char)
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(entries));
                }
                other => {
                    return Err(Error(format!(
                        "expected `,` or `}}`, found {:?}",
                        other.map(|c| c as char)
                    )))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested() {
        let v = Value::Obj(vec![
            ("a".into(), Value::Num(1.0)),
            ("b".into(), Value::Arr(vec![Value::Num(1.5), Value::Null, Value::Bool(true)])),
            ("s".into(), Value::Str("hi \"there\"\n".into())),
            ("empty".into(), Value::Obj(vec![])),
        ]);
        struct Raw(Value);
        impl Serialize for Raw {
            fn to_value(&self) -> Value {
                self.0.clone()
            }
        }
        let text = to_string(&Raw(v.clone())).unwrap();
        assert_eq!(parse_value(&text).unwrap(), v);
        let pretty = to_string_pretty(&Raw(v.clone())).unwrap();
        assert_eq!(parse_value(&pretty).unwrap(), v);
    }

    #[test]
    fn integers_render_without_decimal_point() {
        let text = to_string(&42usize).unwrap();
        assert_eq!(text, "42");
        let neg = to_string(&-7i64).unwrap();
        assert_eq!(neg, "-7");
    }

    #[test]
    fn typed_roundtrip() {
        let v: Vec<u32> = from_str("[1, 2, 3]").unwrap();
        assert_eq!(v, vec![1, 2, 3]);
        let f: f64 = from_str("2.5e3").unwrap();
        assert_eq!(f, 2500.0);
        let s: String = from_str("\"caf\\u00e9\"").unwrap();
        assert_eq!(s, "café");
    }

    #[test]
    fn integers_round_trip_exactly_through_text() {
        let text = to_string(&9_007_199_254_740_993u64).unwrap();
        assert_eq!(text, "9007199254740993");
        assert_eq!(from_str::<u64>(&text).unwrap(), 9_007_199_254_740_993);
        assert_eq!(from_str::<u64>(&u64::MAX.to_string()).unwrap(), u64::MAX);
        assert_eq!(from_str::<i64>(&i64::MIN.to_string()).unwrap(), i64::MIN);
        assert_eq!(from_str::<usize>("1e3").unwrap(), 1000);
    }

    #[test]
    fn fractional_or_out_of_range_integers_are_refused() {
        assert!(from_str::<usize>("16.5").is_err());
        assert!(from_str::<u32>("-1").is_err());
        assert!(from_str::<u64>("18446744073709551616").is_err());
        assert!(from_str::<u64>("1e400").is_err());
        assert!(from_str::<f64>("18446744073709551616").is_ok());
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(from_str::<f64>("[1,").is_err());
        assert!(from_str::<f64>("nope").is_err());
        assert!(from_str::<f64>("1 2").is_err());
    }
}
