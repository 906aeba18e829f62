//! A minimal JSON reader/writer, zero dependencies.
//!
//! The repository emits machine-readable reports (`loopml-lint`'s
//! diagnostics, the `repro sweep` report, model artifacts) and — with
//! this module — can also read them back, e.g. to validate a fresh
//! `SWEEP_ml.json` in CI. The parser accepts standard JSON
//! (objects, arrays, strings with the common escapes, numbers, booleans,
//! null); it does not preserve key order duplicates or parse `\u` escapes
//! beyond the basic multilingual plane. Parsing is linear in the
//! document: each string is copied run by run between its escapes, so
//! a serving daemon's request lines cost time in proportion to their
//! length.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always held as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are sorted (BTreeMap); duplicate keys keep the
    /// last occurrence.
    Obj(BTreeMap<String, Json>),
}

/// Maximum nesting depth the parser accepts. The serving daemon parses
/// untrusted wire requests, so the parser must be total: without a
/// bound, a request line of ten thousand `[`s would overflow the stack
/// (an abort, not a catchable error).
const MAX_DEPTH: usize = 128;

impl Json {
    /// Parses a JSON document. Trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// The value at `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// An object from `(key, value)` pairs — the builder the model
    /// artifact and serving layers assemble their documents with.
    pub fn obj<'a>(pairs: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A number array from a slice of `f64`. Finite values survive a
    /// serialize → parse round trip bit-exactly (see
    /// `finite_floats_round_trip_bit_exactly`), which is what makes JSON
    /// model artifacts bit-identical to the in-memory model.
    pub fn from_f64s(vals: &[f64]) -> Json {
        Json::Arr(vals.iter().map(|&v| Json::Num(v)).collect())
    }

    /// A number array from a slice of `usize` (exact below 2^53).
    pub fn from_usizes(vals: &[usize]) -> Json {
        Json::Arr(vals.iter().map(|&v| Json::Num(v as f64)).collect())
    }

    /// The elements as `f64`, if this is an array of numbers.
    pub fn as_f64s(&self) -> Option<Vec<f64>> {
        self.as_arr()?.iter().map(Json::as_num).collect()
    }

    /// The number as `usize`, if this is a non-negative whole number.
    /// Counts and indices read through here, so `7.75` or `-3` is
    /// rejected instead of truncated.
    pub fn as_usize(&self) -> Option<usize> {
        let n = self.as_num()?;
        (n >= 0.0 && n.fract() == 0.0).then_some(n as usize)
    }

    /// The elements as `usize`, if this is an array of non-negative
    /// integral numbers.
    pub fn as_usizes(&self) -> Option<Vec<usize>> {
        self.as_arr()?.iter().map(Json::as_usize).collect()
    }
}

impl fmt::Display for Json {
    /// Serializes back to compact JSON.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(v) => write!(f, "{v}"),
            Json::Str(s) => write!(f, "{}", escape(s)),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(map) => {
                write!(f, "{{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}:{v}", escape(k))?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Escapes a string into a quoted JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(b, pos, depth),
        Some(b'[') => parse_array(b, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_literal(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii digits");
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy the run up to the next `"` or `\` in one step. Both are
        // ASCII, so the run ends on a character boundary and only its
        // own bytes are validated: parsing stays linear in the document.
        let start = *pos;
        while *pos < b.len() && !matches!(b[*pos], b'"' | b'\\') {
            *pos += 1;
        }
        out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|_| "invalid UTF-8")?);
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                // The run stopped at a `\`: decode one escape.
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth + 1)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos, depth + 1)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(
            Json::parse(r#""a\n\"b\" é""#).unwrap(),
            Json::Str("a\n\"b\" é".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let doc = r#"{"stages": [{"name": "label", "wall_ms": 12.5}], "threads": 4}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("threads").and_then(Json::as_num), Some(4.0));
        let stages = v.get("stages").and_then(Json::as_arr).unwrap();
        assert_eq!(stages[0].get("name").and_then(Json::as_str), Some("label"));
        assert_eq!(stages[0].get("wall_ms").and_then(Json::as_num), Some(12.5));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"unterminated"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn display_round_trips() {
        let doc = r#"{"a":[1,true,null,"s"],"b":{"c":-2.5}}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn escape_handles_control_characters() {
        assert_eq!(escape("a\"b\\c\n"), r#""a\"b\\c\n""#);
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
        let mut doc = "[1]".to_string();
        for _ in 0..(super::MAX_DEPTH + 10) {
            doc = format!("[{doc}]");
        }
        let err = Json::parse(&doc).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
    }

    /// A random string character: printable ASCII, a control character,
    /// a quote or backslash (the escaped bytes), or a 2-, 3- or 4-byte
    /// UTF-8 scalar.
    fn random_char(rng: &mut crate::Rng) -> char {
        let scalar = |rng: &mut crate::Rng, lo: u32, hi: u32| {
            char::from_u32(rng.gen_range(lo..hi)).expect("range holds no surrogate")
        };
        match rng.gen_range(0..6u32) {
            0 => char::from(rng.gen_range(0..0x20u8)),
            1 => ['"', '\\'][rng.gen_range(0..2usize)],
            2 => scalar(rng, 0x80, 0x800),
            3 => scalar(rng, 0x800, 0xD800),
            4 => scalar(rng, 0x10000, 0x110000),
            _ => char::from(rng.gen_range(b' '..=b'~')),
        }
    }

    /// A small random JSON value for the properties below.
    fn random_json(rng: &mut crate::Rng, depth: usize) -> Json {
        let choices = if depth >= 3 { 4 } else { 6 };
        match rng.gen_range(0..choices) {
            0u32 => Json::Null,
            1 => Json::Bool(rng.gen_bool(0.5)),
            2 => Json::Num(rng.gen_range(-1.0e6..1.0e6)),
            3 => {
                let len = rng.gen_range(0..8usize);
                Json::Str((0..len).map(|_| random_char(rng)).collect())
            }
            4 => Json::Arr(
                (0..rng.gen_range(0..4usize))
                    .map(|_| random_json(rng, depth + 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.gen_range(0..4usize))
                    .map(|i| (format!("k{i}"), random_json(rng, depth + 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn serialized_values_parse_back_equal() {
        // Every escape the writer emits, and every multibyte character
        // it passes through raw, must read back as the same value.
        crate::check("json_display_parse_round_trip", 400, |rng| {
            let v = random_json(rng, 0);
            assert_eq!(Json::parse(&v.to_string()), Ok(v));
        });
    }

    #[test]
    fn parse_never_panics_on_mutated_documents() {
        // The daemon parses untrusted request lines, so the parser must
        // be total: any byte-level corruption of a valid document yields
        // Ok or Err, never a panic.
        crate::check("json_parse_total_under_mutation", 400, |rng| {
            let mut bytes = random_json(rng, 0).to_string().into_bytes();
            for _ in 0..rng.gen_range(1..6usize) {
                if bytes.is_empty() {
                    break;
                }
                let i = rng.gen_range(0..bytes.len());
                match rng.gen_range(0..3u32) {
                    0 => bytes[i] = rng.gen_range(0..=255u8),
                    1 => {
                        bytes.insert(i, rng.gen_range(0..=255u8));
                    }
                    _ => {
                        bytes.remove(i);
                    }
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            let _ = Json::parse(&text);
        });
    }

    #[test]
    fn typed_array_helpers_round_trip() {
        let f = Json::from_f64s(&[0.25, -3.0, 1e-9]);
        assert_eq!(f.as_f64s(), Some(vec![0.25, -3.0, 1e-9]));
        let u = Json::from_usizes(&[0, 7, 38]);
        assert_eq!(u.as_usizes(), Some(vec![0, 7, 38]));
        // Fractional or negative entries are not usizes.
        assert_eq!(Json::from_f64s(&[1.5]).as_usizes(), None);
        assert_eq!(Json::from_f64s(&[-1.0]).as_usizes(), None);
        assert_eq!(Json::Num(7.0).as_usize(), Some(7));
        for bad in [
            Json::Num(7.75),
            Json::Num(-3.0),
            Json::Num(f64::NAN),
            Json::Null,
        ] {
            assert_eq!(bad.as_usize(), None, "{bad:?}");
        }
        assert_eq!(Json::Null.as_f64s(), None);
        let o = Json::obj([("b", Json::Num(1.0)), ("a", Json::Bool(true))]);
        assert_eq!(o.to_string(), r#"{"a":true,"b":1}"#);
    }

    #[test]
    fn finite_floats_round_trip_bit_exactly() {
        // Model artifacts store trained weights as JSON numbers; they
        // must survive serialize → parse without losing a bit, or a
        // loaded model would not predict as the trained one did.
        crate::check("json_f64_round_trip", 300, |rng| {
            let v = match rng.gen_range(0..3u32) {
                0 => rng.gen_range(-1.0e9..1.0e9),
                1 => rng.gen_range(0.0..1.0),
                _ => f64::from_bits(rng.next_u64() >> 12), // small positives
            };
            let parsed = Json::parse(&Json::Num(v).to_string()).expect("number parses");
            let got = parsed.as_num().expect("is a number");
            assert_eq!(got.to_bits(), v.to_bits(), "{v:?} -> {got:?}");
        });
    }
}
