//! Offline stand-in for `serde_json`.
//!
//! Prints and parses JSON text over the `serde` stand-in's [`Value`] tree.
//! Supports the full JSON grammar (objects, arrays, strings with escapes,
//! numbers, booleans, null), which is a superset of what ktudc emits.
//!
//! [`object_fields`] reads the top-level fields of an object as borrowed
//! byte spans, without building a tree: the same parser runs in a mode
//! that validates every value and keeps none of them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use serde::{DeError, Deserialize, Serialize, Value};

/// Serialization or parse failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.0)
    }
}

/// Serializes a value to compact JSON text.
///
/// # Errors
///
/// Returns [`Error`] for non-finite floats (JSON cannot represent them).
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out)?;
    Ok(out)
}

/// Serializes a value to pretty-printed JSON text (two-space indent).
///
/// # Errors
///
/// Returns [`Error`] for non-finite floats.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value_pretty(&value.to_value(), &mut out, 0)?;
    Ok(out)
}

/// Parses JSON text into a typed value.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or a shape mismatch for `T`.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value::<true>()?;
    p.finish()?;
    Ok(T::from_value(&v)?)
}

/// One field of a top-level object, as [`object_fields`] reports it.
#[derive(Clone, Copy, Debug)]
pub struct Field<'a> {
    /// The key as written, quotes and escapes included.
    key: &'a str,
    /// The value's exact text, without the whitespace around it.
    value: &'a str,
}

impl<'a> Field<'a> {
    /// Whether the key, unescaped, is `name`.
    #[must_use]
    pub fn key_is(&self, name: &str) -> bool {
        let raw = &self.key[1..self.key.len() - 1];
        if !raw.contains('\\') {
            return raw == name;
        }
        let mut p = Parser {
            bytes: self.key.as_bytes(),
            pos: 0,
        };
        p.parse_string::<true>().is_ok_and(|key| key == name)
    }

    /// The value's exact text: `from_str` on it decodes what `from_str`
    /// on the whole object would have found under this key.
    #[must_use]
    pub fn value(&self) -> &'a str {
        self.value
    }
}

/// Scans `text` as one JSON object and reports each of its top-level
/// fields to `visit`, in order, duplicates included, without building a
/// tree or allocating.
///
/// The whole text is validated with the grammar [`from_str`] uses, so
/// this succeeds exactly when `from_str::<Value>(text)` returns an
/// object. `visit` may run before a later syntax error is found: act on
/// the fields only once this returns `Ok`.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or when the text is not an object.
pub fn object_fields<'a>(text: &'a str, mut visit: impl FnMut(Field<'a>)) -> Result<(), Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.object(|p| {
        let start = p.pos;
        p.parse_string::<false>()?;
        let key = &text[start..p.pos];
        p.skip_ws();
        p.expect(b':')?;
        p.skip_ws();
        let start = p.pos;
        p.parse_value::<false>()?;
        visit(Field {
            key,
            value: &text[start..p.pos],
        });
        Ok(())
    })?;
    p.finish()
}

// ---------------------------------------------------------------- printing

fn write_value(v: &Value, out: &mut String) -> Result<(), Error> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => write_float(*f, out)?,
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out)?;
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(val, out)?;
            }
            out.push('}');
        }
    }
    Ok(())
}

fn write_value_pretty(v: &Value, out: &mut String, indent: usize) -> Result<(), Error> {
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                push_indent(out, indent + 1);
                write_value_pretty(item, out, indent + 1)?;
            }
            out.push('\n');
            push_indent(out, indent);
            out.push(']');
            Ok(())
        }
        Value::Object(fields) if !fields.is_empty() => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                push_indent(out, indent + 1);
                write_string(k, out);
                out.push_str(": ");
                write_value_pretty(val, out, indent + 1)?;
            }
            out.push('\n');
            push_indent(out, indent);
            out.push('}');
            Ok(())
        }
        other => write_value(other, out),
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

fn write_float(f: f64, out: &mut String) -> Result<(), Error> {
    if !f.is_finite() {
        return Err(Error(format!("cannot represent {f} in JSON")));
    }
    let s = f.to_string();
    out.push_str(&s);
    // Keep floats distinguishable from integers on re-parse.
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
    Ok(())
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

// ---------------------------------------------------------------- parsing

/// A recursive-descent parser. Every `parse_*` method takes `KEEP`: with
/// `true` it builds the [`Value`]; with `false` it checks the same grammar
/// and returns placeholders (`Null`, empty strings and containers), so a
/// skipped value is accepted or rejected exactly as a parsed one.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    /// Accepts trailing whitespace, then the end of the text.
    fn finish(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(Error(format!("trailing input at byte {}", self.pos)))
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

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value<const KEEP: bool>(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string::<KEEP>()?)),
            Some(b'[') => self.parse_array::<KEEP>(),
            Some(b'{') => self.parse_object::<KEEP>(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            other => Err(Error(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn parse_array<const KEEP: bool>(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            let item = self.parse_value::<KEEP>()?;
            if KEEP {
                items.push(item);
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error(format!("expected `,` or `]` at byte {}", self.pos))),
            }
        }
    }

    fn parse_object<const KEEP: bool>(&mut self) -> Result<Value, Error> {
        let mut fields = Vec::new();
        self.object(|p| {
            let key = p.parse_string::<KEEP>()?;
            p.skip_ws();
            p.expect(b':')?;
            let value = p.parse_value::<KEEP>()?;
            if KEEP {
                fields.push((key, value));
            }
            Ok(())
        })?;
        Ok(Value::Object(fields))
    }

    /// The object grammar: `{`, then `field`s separated by `,`, then `}`.
    /// `field` is called at each key and must consume `"key": value`.
    fn object(
        &mut self,
        mut field: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            field(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(Error(format!("expected `,` or `}}` at byte {}", self.pos))),
            }
        }
    }

    fn parse_string<const KEEP: bool>(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            let run = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| Error("invalid utf-8 in string".into()))?;
            if KEEP {
                s.push_str(run);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.parse_escape()?;
                    if KEEP {
                        s.push(c);
                    }
                }
                _ => return Err(Error("unterminated string".into())),
            }
        }
    }

    /// The character an escape stands for, read from just after its backslash.
    fn parse_escape(&mut self) -> Result<char, Error> {
        let esc = self
            .peek()
            .ok_or_else(|| Error("unterminated escape".into()))?;
        self.pos += 1;
        match esc {
            b'"' => Ok('"'),
            b'\\' => Ok('\\'),
            b'/' => Ok('/'),
            b'n' => Ok('\n'),
            b'r' => Ok('\r'),
            b't' => Ok('\t'),
            b'b' => Ok('\u{08}'),
            b'f' => Ok('\u{0C}'),
            b'u' => {
                let cp = self.parse_hex4()?;
                // Surrogate pair handling.
                if (0xD800..0xDC00).contains(&cp) {
                    if !self.eat_literal("\\u") {
                        return Err(Error("lone high surrogate".into()));
                    }
                    let lo = self.parse_hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(Error("invalid low surrogate".into()));
                    }
                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(c).ok_or_else(|| Error("invalid surrogate pair".into()))
                } else {
                    char::from_u32(cp).ok_or_else(|| Error("invalid codepoint".into()))
                }
            }
            other => Err(Error(format!("bad escape `\\{}`", other as char))),
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| Error("truncated \\u escape".into()))?;
        let hex = std::str::from_utf8(hex).map_err(|_| Error("bad \\u escape".into()))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| Error("bad \\u escape".into()))?;
        self.pos = end;
        Ok(cp)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
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
            .map_err(|_| Error("bad number".into()))?;
        if is_float {
            let f: f64 = text
                .parse()
                .map_err(|_| Error(format!("bad number `{text}`")))?;
            Ok(Value::Float(f))
        } else if negative {
            let i: i128 = text
                .parse()
                .map_err(|_| Error(format!("bad number `{text}`")))?;
            Ok(Value::Int(i))
        } else {
            let u: u128 = text
                .parse()
                .map_err(|_| Error(format!("bad number `{text}`")))?;
            Ok(Value::UInt(u))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_roundtrip() {
        let v = Value::Object(vec![
            ("a".into(), Value::UInt(7)),
            (
                "b".into(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
            ("c".into(), Value::Str("x\"y\\z\n".into())),
            ("d".into(), Value::Int(-3)),
            ("e".into(), Value::Float(1.5)),
        ]);
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn pretty_print_reparses() {
        let v = Value::Object(vec![(
            "runs".into(),
            Value::Array(vec![Value::UInt(1), Value::UInt(2)]),
        )]);
        let text = to_string_pretty(&v).unwrap();
        assert!(text.contains('\n'));
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn typed_roundtrip() {
        let xs: Vec<u64> = vec![1, 2, 3];
        let text = to_string(&xs).unwrap();
        assert_eq!(text, "[1,2,3]");
        let back: Vec<u64> = from_str(&text).unwrap();
        assert_eq!(back, xs);
    }

    #[test]
    fn unicode_escapes() {
        let s: String = from_str(r#""A😀""#).unwrap();
        assert_eq!(s, "A\u{1F600}");
    }

    /// `(key, value span)` of every top-level field, keys unescaped.
    fn fields(text: &str) -> Result<Vec<(String, &str)>, Error> {
        let mut out = Vec::new();
        object_fields(text, |f| {
            let key: String = from_str(f.key).expect("a scanned key is a string");
            assert!(f.key_is(&key));
            out.push((key, f.value()));
        })?;
        Ok(out)
    }

    #[test]
    fn object_fields_are_exact_value_spans() {
        let text =
            " { \"a\" :\t[1, {\"x\": \"}\"}] ,\"b\":-2.5e3,\"a\":null,\"\\u0063\":\"q\\\"\" }\n";
        let got = fields(text).unwrap();
        assert_eq!(
            got,
            vec![
                ("a".to_string(), "[1, {\"x\": \"}\"}]"),
                ("b".to_string(), "-2.5e3"),
                ("a".to_string(), "null"),
                ("c".to_string(), "\"q\\\"\""),
            ]
        );
        // Each span decodes to what the tree parse holds at that key.
        let tree: Value = from_str(text).unwrap();
        let Value::Object(tree) = tree else {
            panic!("an object")
        };
        for ((key, span), (tree_key, tree_value)) in got.iter().zip(&tree) {
            assert_eq!(key, tree_key);
            assert_eq!(&from_str::<Value>(span).unwrap(), tree_value);
        }
        assert_eq!(fields("{}").unwrap(), vec![]);
    }

    #[test]
    fn object_fields_accepts_exactly_the_objects_from_str_accepts() {
        for text in [
            "{\"a\":1}",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{\"a\":01}",
            "{\"a\":1-}",
            "{\"a\":\"\\ud800\"}",
            "{\"a\":\"\\x\"}",
            "{\"a\":[1,]}",
            "{\"a\":nul}",
            "{\"a\":1} x",
            "{\"a\":1}}",
            "{\"a\":{\"b\":[true,false,null]}}",
            "[1]",
            "\"a\"",
            "",
            "{",
        ] {
            let tree_is_object = matches!(from_str::<Value>(text), Ok(Value::Object(_)));
            assert_eq!(fields(text).is_ok(), tree_is_object, "{text:?}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<Value>("{unquoted: 1}").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("12 34").is_err());
    }
}
