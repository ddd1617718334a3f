//! Minimal deterministic JSON — a writer for the suite's
//! machine-readable `BENCH_suite.json` artifact and a strict validator
//! for it — with no external dependencies (see README "Offline,
//! zero-dependency build").
//!
//! The writer renders objects in the field order they were built in and
//! never emits floats, so the same suite run always produces the same
//! bytes; the parser is a strict recursive-descent validator used by
//! `suite --validate` and CI to reject a missing or malformed artifact.

use std::fmt::Write as _;

/// A JSON value, sufficient for `BENCH_suite.json`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (the only number kind the suite writes).
    UInt(u64),
    /// Any other number, accepted by the parser for robustness.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; field order is preserved (and meaningful: the writer
    /// is deterministic because of it).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks a field up in an object; `None` for missing fields and
    /// non-objects.
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an unsigned integer.
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub(crate) fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object's fields (in document order), if it is
    /// an object.
    pub(crate) fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Renders the value as pretty-printed JSON (two-space indent,
    /// trailing newline). Deterministic: field order is the build order.
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent + 1);
        let close = "  ".repeat(indent);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(x) => {
                let _ = write!(out, "{x}");
            }
            Json::Str(s) => out.push_str(&escape(s)),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    item.render_into(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&close);
                out.push(']');
            }
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Obj(fields) => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str(&escape(k));
                    out.push_str(": ");
                    v.render_into(out, indent + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                out.push_str(&close);
                out.push('}');
            }
        }
    }
}

/// Quotes and escapes a string for JSON output.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
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
    out
}

/// How deep arrays and objects may nest. The parser recurses once per
/// level, so the bound keeps a hostile document from overflowing the
/// stack; `BENCH_suite.json` nests about 5 deep.
pub(crate) const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document, rejecting trailing garbage.
///
/// # Errors
///
/// Returns a message naming the byte offset of the first syntax error,
/// or of the first array or object nested deeper than [`MAX_DEPTH`].
pub(crate) fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", want as char, pos))
    }
}

/// Parses one value inside `depth` enclosing arrays and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"))
        }
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

/// Parses a number by RFC 8259's grammar: an optional minus, an
/// integer part without leading zeros, an optional fraction and an
/// optional exponent, each with at least one digit. A value that
/// overflows to infinity is refused.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let invalid = || format!("invalid number at byte {start}");
    let digits = |pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos - from
    };
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    match bytes.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(b'1'..=b'9') => {
            digits(pos);
        }
        _ => return Err(invalid()),
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if digits(pos) == 0 {
            return Err(invalid());
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if digits(pos) == 0 {
            return Err(invalid());
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ASCII slice");
    if let Ok(n) = text.parse::<u64>() {
        return Ok(Json::UInt(n));
    }
    match text.parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(Json::Num(x)),
        _ => Err(invalid()),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        // Exactly four hex digits: `from_str_radix` alone
                        // would also take a leading `+`.
                        if !hex.iter().all(u8::is_ascii_hexdigit) {
                            return Err(format!("bad \\u escape at byte {pos}"));
                        }
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape")?;
                        // Surrogates are rejected rather than paired: the
                        // writer never emits them.
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(0x00..=0x1F) => return Err(format!("raw control character at byte {pos}")),
            Some(_) => {
                // Copy the whole run up to the next quote, backslash or
                // control character at once. All are ASCII, so the run
                // of the (UTF-8) input ends on a char boundary, and each
                // byte is scanned once.
                let start = *pos;
                while !matches!(bytes.get(*pos), None | Some(b'"' | b'\\' | 0x00..=0x1F)) {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| format!("invalid UTF-8 at byte {start}"))?;
                out.push_str(run);
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
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
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    #[test]
    fn round_trips_the_suite_shape() {
        let doc = obj(vec![
            ("schema_version", Json::UInt(1)),
            ("smoke", Json::Bool(true)),
            ("name", Json::Str("Fault sweep".into())),
            (
                "layers_ns",
                obj(vec![("hw", Json::UInt(42)), ("tpm", Json::UInt(0))]),
            ),
            ("rows", Json::Arr(vec![Json::UInt(1), Json::UInt(2)])),
            ("empty", Json::Arr(vec![])),
            ("nothing", Json::Null),
        ]);
        let text = doc.render();
        assert!(text.ends_with('\n'));
        let back = parse(&text).expect("round trip parses");
        assert_eq!(back, doc);
        assert_eq!(back.get("schema_version").and_then(Json::as_u64), Some(1));
        assert_eq!(back.get("smoke").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn escapes_and_unescapes() {
        for s in ["a\"b\\c\nd\te\u{1}", "héllo \"wörld\" ✓\n\u{1F600}"] {
            let doc = Json::Str(s.into());
            let text = doc.render();
            assert_eq!(parse(&text).expect("parses"), doc);
        }
        assert_eq!(parse("\"\\u00e9x\""), Ok(Json::Str("éx".into())));
    }

    #[test]
    fn rejects_malformed_documents() {
        let deep = "[".repeat(100_000);
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1} trailing",
            "\"unterminated",
            "nul",
            "{\"a\": 00x}",
            &deep,
            "\"\\u+041\"",
            "+1",
            "01",
            "00",
            ".5",
            "1.",
            "\"\u{1}\"",
            "1e999",
        ] {
            let head: String = bad.chars().take(16).collect();
            assert!(parse(bad).is_err(), "accepted {head:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.starts_with("nesting deeper than"), "{err}");
        // Objects count toward the same bound.
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        let err = parse(&objects).unwrap_err();
        assert!(err.starts_with("nesting deeper than"), "{err}");
    }

    #[test]
    fn parses_general_numbers() {
        assert_eq!(parse("18446744073709551615"), Ok(Json::UInt(u64::MAX)));
        assert_eq!(parse("-2.5e3"), Ok(Json::Num(-2500.0)));
    }

    #[test]
    fn render_is_deterministic() {
        let doc = obj(vec![("b", Json::UInt(2)), ("a", Json::UInt(1))]);
        assert_eq!(doc.render(), doc.render());
        // Field order is build order, not alphabetical.
        assert!(doc.render().find("\"b\"").unwrap() < doc.render().find("\"a\"").unwrap());
    }
}
