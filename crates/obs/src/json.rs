//! A minimal JSON parser, used to *validate* the JSON the workspace emits
//! (trace JSON Lines, metrics snapshots, bench reports) without pulling in
//! an external dependency.
//!
//! Supports the full JSON grammar except `\u` surrogate pairs are decoded
//! leniently (each escape becomes the code point as-is). Numbers are kept
//! as `f64`, which is exact for every integer the stack emits below 2^53;
//! larger integers lose precision — fine for validation, so callers that
//! need exact u64s should compare strings instead.
//!
//! The parser recurses once per array or object, so nesting is capped at
//! [`MAX_DEPTH`]: a deeper document is an `Err`, not a stack overflow.

use std::collections::BTreeMap;

/// The deepest array/object nesting [`parse`] accepts. The workspace's own
/// artifacts nest at most 6 levels (`BENCH_faultsim.json`).
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object (key order normalized).
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The value at `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The integer value, if this is a number with no fractional part.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses one complete JSON document.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error, of
/// the first array or object nested deeper than [`MAX_DEPTH`], or of
/// trailing non-whitespace after the document.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses the value at `pos`, which sits inside `depth` open arrays and
/// objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_object(b, pos, depth + 1),
        Some(b'[') => parse_array(b, pos, depth + 1),
        Some(b'"') => parse_string(b, pos).map(JsonValue::String),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "non-utf8 number".to_owned())?;
    text.parse::<f64>()
        .map(JsonValue::Number)
        .map_err(|_| format!("bad number `{text}` at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_owned())?;
                        let hex =
                            std::str::from_utf8(hex).map_err(|_| "non-utf8 escape".to_owned())?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (possibly multi-byte).
                let rest = std::str::from_utf8(&b[*pos..])
                    .map_err(|_| "non-utf8 string content".to_owned())?;
                let ch = rest.chars().next().ok_or("empty string tail")?;
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            other => return Err(format!("expected `,` or `]`, got {other:?}")),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // consume '{'
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}", pos = *pos));
        }
        *pos += 1;
        map.insert(key, parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(map));
            }
            other => return Err(format!("expected `,` or `}}`, got {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, -3], "b": {"c": true, "d": null}, "e": "x\ny"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"open", "{'a':1}"] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn parses_trace_record_json_line() {
        use crate::event::{TraceEvent, TraceRecord};
        let line = TraceRecord {
            seq: 1,
            cycle: 99,
            event: TraceEvent::WdrCapture {
                done: true,
                signature: 0xABCD,
            },
        }
        .to_json_line();
        let v = parse(&line).unwrap();
        assert_eq!(v.get("event").unwrap().as_str(), Some("WdrCapture"));
        assert_eq!(v.get("signature").unwrap().as_u64(), Some(0xABCD));
        assert_eq!(v.get("done").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn nesting_is_capped_with_an_error_instead_of_a_stack_overflow() {
        let arrays = |n| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let objects = |n| format!("{}1{}", "{\"a\":".repeat(n), "}".repeat(n));
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        // A million levels: rejected at the first level past the cap, at
        // that level's byte offset, without recursing any deeper.
        for n in [MAX_DEPTH + 1, 1_000_000] {
            let deep = format!("nesting deeper than {MAX_DEPTH} at byte");
            assert_eq!(parse(&arrays(n)), Err(format!("{deep} {MAX_DEPTH}")));
            assert_eq!(parse(&objects(n)), Err(format!("{deep} {}", 5 * MAX_DEPTH)));
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = parse("\"\\u0041\\u00e9 é\"").unwrap();
        assert_eq!(v.as_str(), Some("Aé é"));
    }
}
