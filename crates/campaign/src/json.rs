//! Minimal JSON tree, writer, and parser for campaign reports.
//!
//! The vendored `serde` stub is marker-only (no registry access, see
//! `vendor/README.md`), so reports are serialized through this module
//! instead. Report types still carry `#[derive(Serialize)]` tags, so
//! swapping the real serde/serde_json back in stays a `Cargo.toml`-level
//! change. Object keys keep insertion order and integers are kept exact
//! (`u64`), which is what makes reports byte-for-byte reproducible.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Exact unsigned integer (counts, picosecond totals, seeds).
    Int(u64),
    /// Everything else numeric.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// Insertion-ordered object (deterministic output).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append a key (objects only; panics otherwise — builder misuse).
    pub fn push(&mut self, key: &str, value: Json) -> &mut Json {
        match self {
            Json::Obj(fields) => fields.push((key.to_string(), value)),
            _ => panic!("push on non-object"),
        }
        self
    }

    /// Field lookup (objects only).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an exact `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => Some(*v),
            Json::Float(v) if *v >= 0.0 && v.fract() == 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-print with two-space indentation and a trailing newline.
    /// The string is returned at its exact size: documents get kept (a
    /// replay holds two, a repeat loop one per run), and growth by
    /// doubling would leave each with up to its own length in slack.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out.shrink_to_fit();
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (the subset this module emits, plus the
    /// usual whitespace/escape forms).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at offset {}", b as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at offset {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if !text.is_empty() && text.bytes().all(|b| b.is_ascii_digit()) {
        return text
            .parse::<u64>()
            .map(Json::Int)
            .map_err(|e| e.to_string());
    }
    text.parse::<f64>()
        .map(Json::Float)
        .map_err(|e| format!("bad number {text:?}: {e}"))
}

/// Parse the four hex digits of a `\u` escape starting at `at`.
fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let hex = bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
    u32::from_str_radix(std::str::from_utf8(hex).map_err(|e| e.to_string())?, 16)
        .map_err(|e| e.to_string())
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let code = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        match code {
                            // High surrogate: must pair with a following
                            // \uDC00..\uDFFF low surrogate; together they
                            // decode to one supplementary code point.
                            0xD800..=0xDBFF => {
                                if bytes.get(*pos + 1..*pos + 3) != Some(b"\\u".as_slice()) {
                                    return Err(format!(
                                        "lone high surrogate \\u{code:04x} at offset {}",
                                        *pos - 4
                                    ));
                                }
                                let low = parse_hex4(bytes, *pos + 3)?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(format!(
                                        "high surrogate \\u{code:04x} followed by \\u{low:04x}, \
                                         not a low surrogate"
                                    ));
                                }
                                *pos += 6;
                                let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                out.push(char::from_u32(c).expect("valid surrogate pair"));
                            }
                            // Low surrogate with no preceding high half.
                            0xDC00..=0xDFFF => {
                                return Err(format!(
                                    "lone low surrogate \\u{code:04x} at offset {}",
                                    *pos - 4
                                ));
                            }
                            _ => out.push(char::from_u32(code).expect("non-surrogate BMP scalar")),
                        }
                    }
                    _ => return Err(format!("bad escape at offset {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy one UTF-8 scalar value verbatim.
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_structure_and_order() {
        let mut inner = Json::obj();
        inner.push("b_first", Json::Int(2));
        inner.push("a_second", Json::Str("hi \"there\"\n".into()));
        let mut doc = Json::obj();
        doc.push("seed", Json::Int(42));
        doc.push("ratio", Json::Float(0.125));
        doc.push(
            "items",
            Json::Arr(vec![Json::Int(1), Json::Null, Json::Bool(true)]),
        );
        doc.push("nested", inner);
        let text = doc.pretty();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, doc);
        // Deterministic emission: re-serialization is byte-identical.
        assert_eq!(parsed.pretty(), text);
    }

    #[test]
    fn big_u64_survives_exactly() {
        let v = Json::Int(u64::MAX);
        let text = v.pretty();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn accessors() {
        let doc = Json::parse(r#"{"a": 3, "s": "x", "l": [1, 2]}"#).unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(
            doc.get("l").and_then(Json::as_arr).map(|a| a.len()),
            Some(2)
        );
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn surrogate_pairs_decode_to_one_code_point() {
        // U+1F600 (grinning face) escaped as a UTF-16 surrogate pair:
        // one scalar, not two U+FFFD replacement characters.
        let parsed = Json::parse(r#""\uD83D\uDE00""#).unwrap();
        assert_eq!(parsed, Json::Str("\u{1F600}".into()));
        // U+10000, the lowest supplementary code point.
        let parsed = Json::parse(r#""\uD800\uDC00""#).unwrap();
        assert_eq!(parsed, Json::Str("\u{10000}".into()));
        // Mixed with surrounding text and BMP escapes.
        let parsed = Json::parse(r#""a\u0041\uD834\uDD1Ez""#).unwrap();
        assert_eq!(parsed, Json::Str("aA\u{1D11E}z".into()));
    }

    #[test]
    fn non_bmp_strings_roundtrip_through_emit_and_parse() {
        let doc = Json::Str("grin \u{1F600} / clef \u{1D11E} / plain \u{e9}".into());
        let text = doc.pretty();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, doc);
        assert_eq!(parsed.pretty(), text);
    }

    #[test]
    fn lone_surrogates_are_rejected() {
        // Lone high surrogate (end of string, or followed by non-escape).
        assert!(Json::parse(r#""\uD83D""#).is_err());
        assert!(Json::parse(r#""\uD83Dxx""#).is_err());
        // High surrogate followed by a non-surrogate escape.
        assert!(Json::parse(r#""\uD83DA""#).is_err());
        // Lone low surrogate.
        assert!(Json::parse(r#""\uDE00""#).is_err());
        // Truncated escapes still error cleanly.
        assert!(Json::parse(r#""\uD83D\u00""#).is_err());
        assert!(Json::parse(r#""\u12""#).is_err());
    }
}
