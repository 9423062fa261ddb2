//! A minimal hand-rolled JSON value tree: writer and parser.
//!
//! The build environment has no crates registry, so — mirroring the
//! hand-rolled CSV in `mla-sim`'s `Table` — artifacts and wire messages
//! are serialized through this small value tree instead of `serde_json`.
//! Object keys keep insertion order so output is byte-stable; the parser
//! ([`Json::parse`]) is bounds- and depth-checked and returns a
//! structured [`JsonError`] (never panics), because the serving daemon
//! feeds it bytes straight off a socket.

use std::fmt;
use std::fmt::Write as _;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (rendered via [`format_number`]).
    Number(f64),
    /// An unsigned integer, rendered exactly — use this (via
    /// `From<u64>`/`From<u128>`/`From<usize>`) for counts, costs and
    /// ids; routing them through [`Json::Number`]'s `f64` would round
    /// above `2^53`. Wide enough for `u128` cost totals (large-clique
    /// MinLA costs exceed `u64` near `n ≈ 4.7×10⁶`).
    UInt(u128),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; keys render in insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An object builder seed.
    #[must_use]
    pub fn object() -> Self {
        Json::Object(Vec::new())
    }

    /// Adds a field to an object (panics on non-objects — builder misuse
    /// is a programming error).
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Self {
        match &mut self {
            Json::Object(fields) => fields.push((key.to_owned(), value.into())),
            other => panic!("field() on non-object {other:?}"),
        }
        self
    }

    /// Renders compactly (no whitespace).
    #[must_use]
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders with two-space indentation.
    #[must_use]
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    /// Parses a JSON document (the inverse of [`Json::render_compact`] /
    /// [`Json::render_pretty`]).
    ///
    /// Non-negative integers up to `u128::MAX` parse exactly into
    /// [`Json::UInt`]; every other number becomes [`Json::Number`].
    /// Nesting is capped (64 levels) so a hostile payload cannot
    /// overflow the parse stack.
    ///
    /// # Errors
    ///
    /// [`JsonError`] with the byte offset of the first violation.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Object field lookup (first match; `None` on non-objects).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an exact unsigned integer: [`Json::UInt`] directly,
    /// or a [`Json::Number`] that is integral, non-negative and below
    /// `2^53` (beyond that an `f64` cannot be trusted to be exact).
    #[must_use]
    pub fn as_u128(&self) -> Option<u128> {
        match self {
            Json::UInt(x) => Some(*x),
            Json::Number(x) if *x >= 0.0 && x.trunc() == *x && *x < 9_007_199_254_740_992.0 => {
                // mla-lint: allow(cast-hygiene): integral, in-range f64 checked above
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                Some(*x as u128)
            }
            _ => None,
        }
    }

    /// [`Json::as_u128`] narrowed to `u64`.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        self.as_u128().and_then(|x| u64::try_from(x).ok())
    }

    /// [`Json::as_u128`] narrowed to `usize`.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u128().and_then(|x| usize::try_from(x).ok())
    }

    /// The value as a float ([`Json::Number`] or a losslessly-convertible
    /// [`Json::UInt`]).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(x) => Some(*x),
            #[allow(clippy::cast_precision_loss)]
            Json::UInt(x) => Some(*x as f64),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(x) => out.push_str(&format_number(*x)),
            Json::UInt(x) => {
                let _ = write!(out, "{x}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                write_sequence(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d);
                });
            }
            Json::Object(fields) => {
                write_sequence(out, indent, depth, '{', '}', fields.len(), |out, i, d| {
                    let (key, value) = &fields[i];
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, d);
                });
            }
        }
    }
}

fn write_sequence(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut write_item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        write_item(out, i, depth + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push(close);
}

/// The bytes that end a verbatim run inside a JSON string: the quote, the
/// backslash and the control bytes. The writer escapes exactly these and
/// the parser stops at exactly these. All are ASCII, so a run that ends
/// at one ends on a char boundary.
fn ends_string_run(byte: u8) -> bool {
    matches!(byte, b'"' | b'\\' | 0x00..=0x1F)
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut rest = s;
    while let Some(at) = rest.bytes().position(ends_string_run) {
        out.push_str(&rest[..at]);
        match rest.as_bytes()[at] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            control => {
                let _ = write!(out, "\\u{control:04x}");
            }
        }
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// Renders a number the shortest way that round-trips: integers without a
/// fraction, everything else via `{:?}` (Rust's shortest-roundtrip float
/// formatting). Non-finite values become `null` per JSON.
#[must_use]
pub fn format_number(x: f64) -> String {
    if !x.is_finite() {
        return "null".to_owned();
    }
    #[allow(clippy::cast_possible_truncation)]
    if x == x.trunc() && x.abs() < 9.0e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:?}")
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Json::Number(x)
    }
}

impl From<u128> for Json {
    fn from(x: u128) -> Self {
        Json::UInt(x)
    }
}

impl From<u64> for Json {
    fn from(x: u64) -> Self {
        Json::UInt(u128::from(x))
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Self {
        Json::UInt(x as u128)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Self {
        Json::Array(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(value: Option<T>) -> Self {
        value.map_or(Json::Null, Into::into)
    }
}

/// A structured parse failure: what went wrong and the byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the first violation.
    pub offset: usize,
    /// What the parser expected or rejected.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

/// Maximum container nesting [`Json::parse`] accepts — deep enough for
/// every protocol message, shallow enough that recursion cannot blow the
/// stack on hostile input.
const MAX_PARSE_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", char::from(byte))))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{text}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_PARSE_DEPTH {
            return Err(self.err("nesting exceeds the depth limit"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected character '{}'", char::from(other)))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            let run = self.bytes[start..]
                .iter()
                .position(|&b| ends_string_run(b))
                .unwrap_or(self.bytes.len() - start);
            self.pos += run;
            // The run stops at an ASCII byte or the end of the input, so
            // both ends are char boundaries of the `&str` input.
            let verbatim = self
                .text
                .get(start..self.pos)
                .ok_or_else(|| self.err("invalid UTF-8"))?;
            out.push_str(verbatim);
            let Some(byte) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            match byte {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            self.pos -= 1;
                            return Err(
                                self.err(format!("invalid escape '\\{}'", char::from(other)))
                            );
                        }
                    }
                }
                _ => return Err(self.err("raw control character in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let Some(byte) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let digit = match byte {
                b'0'..=b'9' => u32::from(byte - b'0'),
                b'a'..=b'f' => u32::from(byte - b'a') + 10,
                b'A'..=b'F' => u32::from(byte - b'A') + 10,
                _ => return Err(self.err("non-hex digit in \\u escape")),
            };
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4()?;
        // Surrogate pair: a high surrogate must be followed by \uDC00..
        if (0xD800..0xDC00).contains(&first) {
            if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                self.pos += 2;
                let second = self.hex4()?;
                if !(0xDC00..0xE000).contains(&second) {
                    return Err(self.err("invalid low surrogate"));
                }
                let code = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                return char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"));
            }
            return Err(self.err("lone high surrogate"));
        }
        if (0xDC00..0xE000).contains(&first) {
            return Err(self.err("lone low surrogate"));
        }
        char::from_u32(first).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == int_start {
            return Err(self.err("expected digits"));
        }
        // Leading zeros are invalid JSON ("01"), except the single "0".
        if self.bytes[int_start] == b'0' && self.pos - int_start > 1 {
            self.pos = int_start;
            return Err(self.err("leading zero in number"));
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected digits after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected digits in exponent"));
            }
        }
        // mla-lint: allow(panic-safety): the scanned range is ASCII digits/signs by construction
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        if integral && self.bytes[start] != b'-' {
            if let Ok(value) = text.parse::<u128>() {
                return Ok(Json::UInt(value));
            }
        }
        match text.parse::<f64>() {
            Ok(value) if value.is_finite() => Ok(Json::Number(value)),
            _ => {
                self.pos = start;
                Err(self.err("number out of range"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering() {
        let value = Json::object()
            .field("id", "E-T2")
            .field("ok", true)
            .field("none", Json::Null)
            .field("xs", vec![1u64, 2, 3]);
        assert_eq!(
            value.render_compact(),
            r#"{"id":"E-T2","ok":true,"none":null,"xs":[1,2,3]}"#
        );
    }

    #[test]
    fn pretty_rendering_is_indented_and_stable() {
        let value = Json::object().field("a", 1u64).field("b", vec!["x"]);
        assert_eq!(
            value.render_pretty(),
            "{\n  \"a\": 1,\n  \"b\": [\n    \"x\"\n  ]\n}\n"
        );
    }

    /// Characters that end a verbatim run, plus multi-byte scalars that
    /// must never be split, each with its rendered form.
    const RUN_SPECIALS: [(&str, &str); 6] = [
        ("\"", "\\\""),
        ("\\", "\\\\"),
        ("\n", "\\n"),
        ("\u{1}", "\\u0001"),
        ("é", "é"),
        ("😀", "😀"),
    ];

    /// `c` as the first, middle and last character of a 2 kB string.
    fn long_run(c: &str) -> String {
        let run = "ab".repeat(500);
        format!("{c}{run}{c}{run}{c}")
    }

    #[test]
    fn strings_are_escaped() {
        let mut cases = vec![(
            "a\"b\\c\nd\u{1}".to_owned(),
            "\"a\\\"b\\\\c\\nd\\u0001\"".to_owned(),
        )];
        for (c, escaped) in RUN_SPECIALS {
            cases.push((long_run(c), format!("\"{}\"", long_run(escaped))));
        }
        for (raw, rendered) in cases {
            assert_eq!(Json::Str(raw).render_compact(), rendered);
        }
    }

    #[test]
    fn numbers_render_minimally() {
        assert_eq!(format_number(3.0), "3");
        assert_eq!(format_number(-7.0), "-7");
        assert_eq!(format_number(0.5), "0.5");
        assert_eq!(format_number(f64::NAN), "null");
        assert_eq!(format_number(f64::INFINITY), "null");
    }

    #[test]
    fn integers_above_2_pow_53_survive_exactly() {
        let value = Json::from(u64::MAX);
        assert_eq!(value.render_compact(), "18446744073709551615");
        assert_eq!(
            Json::from((1u64 << 53) + 1).render_compact(),
            "9007199254740993"
        );
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::Array(vec![]).render_compact(), "[]");
        assert_eq!(Json::object().render_compact(), "{}");
    }

    #[test]
    fn parse_roundtrips_writer_output() {
        let value = Json::object()
            .field("op", "reveal")
            .field("ok", true)
            .field("none", Json::Null)
            .field("cost", u128::from(u64::MAX) + 7)
            .field("ratio", 0.75)
            .field("events", vec![0u64, 3, 1])
            .field("nested", Json::object().field("k", "v\n\"q\""))
            .field("runs", RUN_SPECIALS.map(|(c, _)| long_run(c)).to_vec());
        for rendered in [value.render_compact(), value.render_pretty()] {
            assert_eq!(Json::parse(&rendered).unwrap(), value, "{rendered}");
        }
    }

    #[test]
    fn parse_accepts_standard_forms() {
        assert_eq!(Json::parse(" null ").unwrap(), Json::Null);
        assert_eq!(Json::parse("-3.5e2").unwrap(), Json::Number(-350.0));
        assert_eq!(Json::parse("0").unwrap(), Json::UInt(0));
        assert_eq!(
            Json::parse("\"\\u0041\\uD83D\\uDE00\"").unwrap(),
            Json::Str("A\u{1F600}".to_owned())
        );
        assert_eq!(
            Json::parse("[1, [2], {\"a\": 3}]").unwrap(),
            Json::Array(vec![
                Json::UInt(1),
                Json::Array(vec![Json::UInt(2)]),
                Json::object().field("a", 3u64),
            ])
        );
    }

    #[test]
    fn parse_rejects_malformed_input_with_offsets() {
        // A raw control byte after 2100 bytes of multi-byte run.
        let deep = format!("\"{}\u{1}xyz\"", "é😀x".repeat(300));
        for (bad, offset) in [
            ("", 0),
            ("{", 1),
            ("[1,", 3),
            ("{\"a\"}", 4),
            ("tru", 0),
            ("01", 0),
            ("1.", 2),
            ("1e", 2),
            ("\"abc", 4),
            ("\"\\x\"", 2),
            ("\"\\uD800\"", 7),
            ("[}", 1),
            ("{\"a\":1,}", 7),
            ("1 2", 2),
            ("nul", 0),
            ("[1]]", 3),
            ("\u{1}", 0),
            (deep.as_str(), 2101),
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert_eq!(err.offset, offset, "{bad:?}: {err}");
        }
    }

    #[test]
    fn parse_depth_limit_rejects_nesting_bombs() {
        let bomb = "[".repeat(100_000);
        let err = Json::parse(&bomb).unwrap_err();
        assert!(err.message.contains("depth"), "{err}");
        // At the limit itself: fine.
        let deep = format!("{}0{}", "[".repeat(60), "]".repeat(60));
        Json::parse(&deep).unwrap();
    }

    #[test]
    fn accessors_navigate_objects() {
        let value = Json::parse(r#"{"op":"cost","tenant":"t1","n":128,"ok":true}"#).unwrap();
        assert_eq!(value.get("op").and_then(Json::as_str), Some("cost"));
        assert_eq!(value.get("n").and_then(Json::as_usize), Some(128));
        assert_eq!(value.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(value.get("missing"), None);
        assert_eq!(Json::Number(3.0).as_u128(), Some(3));
        assert_eq!(Json::Number(3.5).as_u128(), None);
        assert_eq!(Json::Number(-1.0).as_u128(), None);
        assert_eq!(Json::UInt(7).as_f64(), Some(7.0));
    }
}
