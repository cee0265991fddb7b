//! A minimal JSON document model shared by the spec and report layers.
//!
//! The vendored dependency set has no `serde_json`, so the experiment API
//! serializes through this hand-rolled value model: a recursive-descent
//! reader (grown out of the `BENCH_lp.json` round-trip validator, which now
//! reuses it) plus a deterministic writer. Object fields preserve insertion
//! order, numbers render via Rust's shortest round-trippable `Display`, and
//! the writer emits the same bytes for the same value on every platform —
//! the property the `greencloud-report/1` golden test pins down.

use std::fmt::Write as _;

/// Deepest array/object nesting [`Json::parse`] accepts. Specs and reports
/// nest a handful of levels; the cap keeps the recursive-descent reader's
/// stack use bounded whatever a client sends.
pub const MAX_DEPTH: usize = 128;

/// Why [`Json::parse`] rejected a document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonError {
    /// The text is not well-formed JSON; the message names the first
    /// problem found.
    Syntax(String),
    /// Arrays/objects nest deeper than [`MAX_DEPTH`]; `offset` is the byte
    /// offset of the bracket that crossed the limit.
    TooDeep {
        /// Byte offset of the offending `[` or `{`.
        offset: usize,
    },
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonError::Syntax(msg) => f.write_str(msg),
            JsonError::TooDeep { offset } => {
                write!(
                    f,
                    "nesting deeper than {MAX_DEPTH} levels at offset {offset}"
                )
            }
        }
    }
}

impl std::error::Error for JsonError {}

impl From<String> for JsonError {
    fn from(msg: String) -> Self {
        JsonError::Syntax(msg)
    }
}

impl From<&str> for JsonError {
    fn from(msg: &str) -> Self {
        JsonError::Syntax(msg.to_string())
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; fields keep insertion order (serialization is stable).
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// [`JsonError::Syntax`] describing the first structural problem found,
    /// or [`JsonError::TooDeep`] past [`MAX_DEPTH`] levels of nesting.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
            depth: 0,
        };
        p.skip_ws();
        let doc = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.at).into());
        }
        Ok(doc)
    }

    /// Renders the value as a pretty-printed document (2-space indent,
    /// trailing newline) with a stable byte-for-byte layout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(x) => {
                // JSON has no NaN/Inf; a non-finite stat (e.g. a rate over
                // zero rounds) degrades to null rather than corrupting the
                // document.
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => out.push_str(&quote(s)),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                    if i + 1 != items.len() {
                        out.push(',');
                    }
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push('\n');
                    indent(out, depth + 1);
                    out.push_str(&quote(k));
                    out.push_str(": ");
                    v.write(out, depth + 1);
                    if i + 1 != fields.len() {
                        out.push(',');
                    }
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }

    /// Looks up a field of an object (`None` for missing keys or
    /// non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Number(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= usize::MAX as f64 => {
                Some(*x as usize)
            }
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer. Seeds above
    /// 2^53 are not representable in JSON numbers; the spec layer documents
    /// this limit.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= (1u64 << 53) as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Builds an object from `(key, value)` pairs (insertion order kept).
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Json::Number(x)
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Self {
        Json::Number(x as f64)
    }
}

impl From<u64> for Json {
    fn from(x: u64) -> Self {
        Json::Number(x as f64)
    }
}

impl From<u32> for Json {
    fn from(x: u32) -> Self {
        Json::Number(f64::from(x))
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Self {
        Json::Array(items)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Quotes and escapes a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut q = String::with_capacity(s.len() + 2);
    q.push('"');
    for c in s.chars() {
        match c {
            '"' => q.push_str("\\\""),
            '\\' => q.push_str("\\\\"),
            '\n' => q.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(q, "\\u{:04x}", c as u32);
            }
            c => q.push(c),
        }
    }
    q.push('"');
    q
}

/// A minimal recursive-descent JSON reader.
struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.at += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", char::from(b), self.at).into())
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError::TooDeep { offset: self.at });
        }
        self.depth += 1;
        let doc = parse(self);
        self.depth -= 1;
        doc
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.at).into())
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.at;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.at += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.at])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Number)
            .ok_or_else(|| format!("bad number at offset {start}").into())
    }

    /// Reads the four hex digits starting at `at` (one code unit of a
    /// `\u` escape).
    fn hex4(&self, at: usize) -> Result<u32, JsonError> {
        let hex = self.bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
        std::str::from_utf8(hex)
            .ok()
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| "bad \\u escape".into())
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let code = self.hex4(self.at + 1)?;
                            self.at += 4;
                            // UTF-16 surrogate pair: a high surrogate must
                            // combine with a following `\uDC00..\uDFFF`
                            // escape (how standard serializers encode
                            // astral-plane characters). Lone or mismatched
                            // surrogates degrade to U+FFFD.
                            if (0xd800..0xdc00).contains(&code) {
                                if self.bytes.get(self.at + 1) == Some(&b'\\')
                                    && self.bytes.get(self.at + 2) == Some(&b'u')
                                {
                                    let low = self.hex4(self.at + 3)?;
                                    if (0xdc00..0xe000).contains(&low) {
                                        self.at += 6;
                                        let combined =
                                            0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                        out.push(char::from_u32(combined).unwrap_or('\u{fffd}'));
                                    } else {
                                        out.push('\u{fffd}');
                                    }
                                } else {
                                    out.push('\u{fffd}');
                                }
                            } else {
                                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            }
                        }
                        _ => return Err(format!("bad escape at offset {}", self.at).into()),
                    }
                    self.at += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through untouched.
                    let s = &self.bytes[self.at..];
                    let ch_len = match s[0] {
                        b if b < 0x80 => 1,
                        b if b >= 0xf0 => 4,
                        b if b >= 0xe0 => 3,
                        _ => 2,
                    };
                    out.push_str(
                        std::str::from_utf8(&s[..ch_len.min(s.len())])
                            .map_err(|_| "bad utf-8 in string")?,
                    );
                    self.at += ch_len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.at += 1;
                }
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.at).into()),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.at += 1;
                }
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.at).into()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_render_round_trip() {
        let doc = Json::obj([
            ("name", Json::from("spec \"quoted\"")),
            ("x", Json::from(0.125)),
            ("n", Json::from(42usize)),
            ("flag", Json::from(true)),
            ("none", Json::Null),
            (
                "arr",
                Json::from(vec![Json::from(1.0), Json::from("two"), Json::Null]),
            ),
            ("empty_arr", Json::Array(vec![])),
            ("empty_obj", Json::Object(vec![])),
        ]);
        let text = doc.render();
        let back = Json::parse(&text).expect("parses");
        assert_eq!(back, doc);
        // Rendering is a fixed point: render(parse(render(x))) == render(x).
        assert_eq!(back.render(), text);
    }

    #[test]
    fn accessors() {
        let doc = Json::parse(r#"{"a": 3, "b": "s", "c": [1, 2], "d": true}"#).expect("parses");
        assert_eq!(doc.get("a").and_then(Json::as_usize), Some(3));
        assert_eq!(doc.get("a").and_then(Json::as_f64), Some(3.0));
        assert_eq!(doc.get("b").and_then(Json::as_str), Some("s"));
        assert_eq!(
            doc.get("c").and_then(Json::as_array).map(<[_]>::len),
            Some(2)
        );
        assert_eq!(doc.get("d").and_then(Json::as_bool), Some(true));
        assert!(doc.get("missing").is_none());
        assert_eq!(Json::Number(2.5).as_usize(), None);
        assert_eq!(Json::Number(-1.0).as_u64(), None);
    }

    #[test]
    fn unicode_escapes_decode_including_surrogate_pairs() {
        // Raw UTF-8 passes through.
        let doc = Json::parse("\"caf\u{e9} \u{1f600} na\u{ef}ve\"").expect("parses");
        assert_eq!(doc.as_str(), Some("caf\u{e9} \u{1f600} na\u{ef}ve"));
        // The same text as a serde_json-style ASCII document: BMP escapes
        // plus an astral-plane surrogate pair (U+1F600).
        let doc = Json::parse(r#""caf\u00e9 \ud83d\ude00 na\u00efve""#).expect("parses");
        assert_eq!(doc.as_str(), Some("caf\u{e9} \u{1f600} na\u{ef}ve"));
        // Lone/mismatched surrogates degrade to U+FFFD instead of failing.
        assert_eq!(
            Json::parse(r#""\ud83d!""#).expect("parses").as_str(),
            Some("\u{fffd}!")
        );
        assert_eq!(
            Json::parse(r#""\ud83d\u0041""#).expect("parses").as_str(),
            Some("\u{fffd}A")
        );
        assert_eq!(
            Json::parse(r#""\ude00""#).expect("parses").as_str(),
            Some("\u{fffd}")
        );
    }

    #[test]
    fn rejects_malformed() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\": 1} extra").is_err());
        assert!(Json::parse("nulx").is_err());
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let nest = |depth: usize, open: &str, close: &str| {
            format!("{}{}", open.repeat(depth), close.repeat(depth))
        };
        // Exactly the cap parses, arrays and objects alike.
        assert!(Json::parse(&nest(MAX_DEPTH, "[", "]")).is_ok());
        assert!(Json::parse(&format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH),
            "}".repeat(MAX_DEPTH)
        ))
        .is_ok());
        // One level more is refused at the bracket that crossed it.
        assert_eq!(
            Json::parse(&nest(MAX_DEPTH + 1, "[", "]")),
            Err(JsonError::TooDeep { offset: MAX_DEPTH })
        );
        let mixed = format!("{}{}", "[{\"k\": ".repeat(MAX_DEPTH), "0");
        assert!(matches!(
            Json::parse(&mixed),
            Err(JsonError::TooDeep { .. })
        ));
        // A hostile depth returns instead of overflowing the stack, even
        // unterminated.
        let hostile = "[".repeat(20_000);
        let err = Json::parse(&hostile).expect_err("too deep");
        assert_eq!(err, JsonError::TooDeep { offset: MAX_DEPTH });
        assert_eq!(
            err.to_string(),
            format!("nesting deeper than {MAX_DEPTH} levels at offset {MAX_DEPTH}")
        );
        // Depth is released on the way out: many shallow siblings are fine.
        let siblings = format!("[{}]", vec!["[[1]]"; 1000].join(","));
        assert!(Json::parse(&siblings).is_ok());
    }

    #[test]
    fn syntax_errors_keep_their_messages() {
        assert_eq!(
            Json::parse("[1,]"),
            Err(JsonError::Syntax("bad number at offset 3".into()))
        );
        assert_eq!(
            Json::parse("{\"a\": 1} extra").map_err(|e| e.to_string()),
            Err("trailing bytes at offset 9".to_string())
        );
    }

    #[test]
    fn non_finite_numbers_degrade_to_null() {
        assert_eq!(Json::Number(f64::NAN).render(), "null\n");
        assert_eq!(Json::Number(f64::INFINITY).render(), "null\n");
    }
}
