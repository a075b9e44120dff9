//! A zero-dependency JSON value type with a parser and a serializer.
//!
//! The workspace builds in hermetic environments with no crate registry, so
//! the structured formats it speaks — the bench documents of `repro --json`,
//! the checked-in `BENCH_table3.json` baseline the CI gate reads, and the
//! line-delimited protocol of `bsc serve` — share this one hand-rolled
//! implementation instead of each growing their own. The serializer renders
//! compact single-line documents suitable for a line-delimited protocol.
//!
//! The parser is a pull [`Reader`] over the full JSON grammar (objects,
//! arrays, strings with escapes, numbers, booleans, null). [`parse`] builds a
//! [`JsonValue`] tree with it; a caller that knows a document's shape walks
//! the same reader and types the values it wants as they are read — the
//! `edges` of a 118 KB `push_interval` line go straight into edge tuples, with
//! no tree built and freed per request. Either way there is one lexer, one
//! nesting limit and one set of error texts (`JSON parse error at byte N: …`).
//! A number is read as an `f64` by one routine: a plain decimal of at most 15
//! significant digits and 15 after the point is read exactly (Clinger's fast
//! path), every other token by `str::parse`; both give the correctly rounded
//! `f64`. The one exception is [`Reader::edge`], which reads the three
//! indices of an edge `[u,u,u,n]` as integer digit runs (at most 10 digits,
//! below 2^32) straight into `u32`s, and its weight by that routine; an
//! index in any other form leaves the whole edge to the `f64` reads.
//!
//! Round-trip caveat: numbers are carried as `f64` (which covers bench
//! timings and every protocol field), and keys are kept sorted — serialized
//! output is therefore canonical: two structurally equal values render to
//! byte-identical text, which the service's oracle diffing relies on.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`, which covers bench timings).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object. Keys are kept sorted (no caller relies on duplicate or
    /// ordered keys), which makes the rendered form canonical.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if this is a number
    /// holding one exactly (no fraction, no overflow past 2^53).
    #[inline]
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        // On `[0, 2^53]` the cast truncates and its way back is exact, so the
        // round trip holds exactly for integers (`-0.0` included) — without
        // the libm `trunc` call `fract` is on baseline x86-64.
        if (0.0..=9_007_199_254_740_992.0).contains(&n) && n as u64 as f64 == n {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The object payload, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(map) => Some(map),
            _ => None,
        }
    }

    /// Look up a key, if this is an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// Build an object from `(key, value)` pairs (later duplicates win).
    pub fn object(pairs: impl IntoIterator<Item = (String, JsonValue)>) -> JsonValue {
        JsonValue::Object(pairs.into_iter().collect())
    }

    /// Render as compact single-line JSON. Object keys come out sorted, so
    /// structurally equal values render byte-identically. Non-finite numbers
    /// (which JSON cannot represent) render as `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::Number(n) => out.push_str(&render_number(*n)),
            JsonValue::String(s) => out.push_str(&escape_string(s)),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Object(map) => {
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&escape_string(key));
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl std::fmt::Display for JsonValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<bool> for JsonValue {
    fn from(value: bool) -> Self {
        JsonValue::Bool(value)
    }
}

impl From<f64> for JsonValue {
    fn from(value: f64) -> Self {
        JsonValue::Number(value)
    }
}

impl From<u64> for JsonValue {
    fn from(value: u64) -> Self {
        JsonValue::Number(value as f64)
    }
}

impl From<usize> for JsonValue {
    fn from(value: usize) -> Self {
        JsonValue::Number(value as f64)
    }
}

impl From<&str> for JsonValue {
    fn from(value: &str) -> Self {
        JsonValue::String(value.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(value: String) -> Self {
        JsonValue::String(value)
    }
}

impl From<Vec<JsonValue>> for JsonValue {
    fn from(items: Vec<JsonValue>) -> Self {
        JsonValue::Array(items)
    }
}

/// Render a number the way the parser reads it back: integers without a
/// fraction, everything else via Rust's shortest round-trip `f64` display.
fn render_number(n: f64) -> String {
    if !n.is_finite() {
        return "null".to_string();
    }
    if n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// Escape a string into its quoted JSON form (the shared implementation
/// behind the bench report serializer and the service protocol).
pub fn escape_string(s: &str) -> String {
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

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut reader = Reader::new(text);
    let value = reader.value()?;
    reader.finish()?;
    Ok(value)
}

/// Maximum container nesting the parser accepts. Wire frames feed straight
/// into [`parse`], so recursion must be bounded or a corrupt `[[[[…` line
/// could overflow the stack instead of returning an error.
const MAX_PARSE_DEPTH: usize = 128;

/// A pull reader over one JSON document — the lexer behind [`parse`], for a
/// caller that wants some values typed as they are read instead of built
/// into a [`JsonValue`] tree first.
///
/// Every method skips the whitespace in front of what it reads. An `Err` is
/// a syntax error in [`parse`]'s words (`JSON parse error at byte N: …`, the
/// same byte `parse` would name); the reader is spent after one.
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            depth: 0,
        }
    }

    /// The next byte that is not whitespace, without consuming it (`None` at
    /// the end of the input).
    #[inline]
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_whitespace();
        self.byte()
    }

    /// Read the next value as a tree.
    pub fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.object(|reader, key| {
                    map.insert(key, reader.value()?);
                    Ok(())
                })?;
                Ok(JsonValue::Object(map))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|reader| {
                    items.push(reader.value()?);
                    Ok(())
                })?;
                Ok(JsonValue::Array(items))
            }
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.scan_number().map(JsonValue::Number),
            Some(other) => Err(self.error(&format!("unexpected character '{}'", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Read the next value: `Some` if it is a number, `None` if it is any
    /// other well-formed value (which is read past).
    #[inline]
    pub fn number(&mut self) -> Result<Option<f64>, String> {
        if matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            self.scan_number().map(Some)
        } else {
            self.value().map(|_| None)
        }
    }

    /// Read the value at the reader's position if it is an edge `[u,u,u,n]`
    /// with no whitespace inside: three indices, each a run of at most 10
    /// digits below 2^32 read as an integer, then a number read as
    /// [`Reader::number`] reads it. Anything else — `1.0`, `1e0`, `-0`, 11
    /// digits or more, 2^32 and above, whitespace in front or inside, another
    /// shape, a syntax error, the nesting limit — is left unread (`None`, the
    /// position unchanged), for [`Reader::array`] or [`Reader::value`] to
    /// read and to report on. It is the one read that does not skip whitespace first: inside
    /// [`Reader::array`], whose element sits right after a `,` on a compact
    /// line, the skip cost about 13 % of a push line's parse.
    #[inline]
    pub fn edge(&mut self) -> Option<([u32; 3], f64)> {
        if self.byte() != Some(b'[') || self.depth >= MAX_PARSE_DEPTH {
            return None;
        }
        let bytes = self.text.as_bytes();
        let mut pos = self.pos + 1;
        let mut indices = [0; 3];
        for index in &mut indices {
            let (len, value) = index_at(&bytes[pos..])?;
            *index = value;
            pos += len;
            if bytes.get(pos) != Some(&b',') {
                return None;
            }
            pos += 1;
        }
        if !matches!(bytes.get(pos), Some(b'-' | b'0'..=b'9')) {
            return None;
        }
        let (len, weight) = number_at(&bytes[pos..]);
        let weight = weight?;
        pos += len;
        if bytes.get(pos) != Some(&b']') {
            return None;
        }
        self.pos = pos + 1;
        Some((indices, weight))
    }

    /// Walk the next value, which must be an object: `each` is called with
    /// every key in document order (duplicates included) and must read
    /// exactly one value, the key's.
    pub fn object(
        &mut self,
        mut each: impl FnMut(&mut Self, String) -> Result<(), String>,
    ) -> Result<(), String> {
        self.enter(b'{')?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
        } else {
            loop {
                self.skip_whitespace();
                let key = self.string()?;
                self.skip_whitespace();
                self.expect(b':')?;
                each(self, key)?;
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.error("expected ',' or '}' in object")),
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Walk the next value, which must be an array: `each` is called once per
    /// element and must read exactly one value.
    pub fn array(
        &mut self,
        mut each: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.enter(b'[')?;
        if self.peek() == Some(b']') {
            self.pos += 1;
        } else {
            loop {
                each(self)?;
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.error("expected ',' or ']' in array")),
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// End the document: only whitespace may follow what has been read.
    pub fn finish(mut self) -> Result<(), String> {
        if self.peek().is_some() {
            return Err(self.error("trailing characters after the JSON document"));
        }
        Ok(())
    }

    #[cold]
    fn error(&self, message: &str) -> String {
        format!("JSON parse error at byte {}: {message}", self.pos)
    }

    #[inline]
    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn skip_whitespace(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.byte() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    /// Open a container, counting it against [`MAX_PARSE_DEPTH`] at its
    /// opening byte.
    #[inline]
    fn enter(&mut self, open: u8) -> Result<(), String> {
        self.skip_whitespace();
        if self.depth >= MAX_PARSE_DEPTH {
            return Err(self.error(&format!(
                "nesting exceeds the {MAX_PARSE_DEPTH}-level limit"
            )));
        }
        self.depth += 1;
        self.expect(open)
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.text.as_bytes()[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{text}'")))
        }
    }

    #[inline]
    fn scan_number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        let (len, value) = number_at(&self.text.as_bytes()[start..]);
        self.pos += len;
        value.ok_or_else(|| {
            // ASCII bytes only, so both ends are char boundaries.
            let token = &self.text[start..self.pos];
            self.error(&format!("invalid number '{token}'"))
        })
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.byte() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.byte() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .text
                                .as_bytes()
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.error("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            // Callers only ever escape control characters;
                            // surrogate pairs are out of scope.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("unpaired surrogate"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or escape in
                    // one go. Both ends sit next to an ASCII byte (or at the
                    // end of the text), so they are char boundaries.
                    let start = self.pos;
                    while !matches!(self.byte(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }
}

/// Powers of ten an `f64` holds exactly, up to the fast path's limit.
const EXACT_POWERS_OF_TEN: [f64; 16] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
];

/// The most significant digits, and the most digits after the point, a token
/// may have to take [`exact_decimal`]'s path.
const FAST_PATH_DIGITS: u32 = 15;

/// The most digits an index [`Reader::edge`] reads may have: every `u32`
/// has at most 10, and 10 digits sum in a `u64` without wrapping. A longer
/// run (leading zeros, or 2^32 and above) is left to the number routine.
const INDEX_DIGITS: usize = 10;

/// The index at the front of `bytes`, a run of 1 to [`INDEX_DIGITS`] digits
/// below 2^32 with no digit after it, as its length and its value.
#[inline]
fn index_at(bytes: &[u8]) -> Option<(usize, u32)> {
    let mut value = 0u64;
    let mut len = 0;
    while let Some(&digit @ b'0'..=b'9') = bytes.get(len) {
        if len == INDEX_DIGITS {
            return None;
        }
        value = value * 10 + u64::from(digit - b'0');
        len += 1;
    }
    if len == 0 {
        return None;
    }
    Some((len, u32::try_from(value).ok()?))
}

/// The number token at the front of `bytes` — a sign, then any run of
/// `[0-9.eE+-]` — as its length and its value (`None` if it is not a
/// number). A token that is all [`exact_decimal`] prefix takes its value
/// from there, read in the same pass as the scan; every other token is read
/// by `str::parse`.
#[inline]
fn number_at(bytes: &[u8]) -> (usize, Option<f64>) {
    match exact_decimal(bytes) {
        (plain, Some(value)) if !bytes.get(plain).is_some_and(is_number_byte) => {
            (plain, Some(value))
        }
        (plain, _) => parsed_number(bytes, plain),
    }
}

/// [`number_at`] for a token that is more than its exact prefix `plain`.
#[cold]
fn parsed_number(bytes: &[u8], plain: usize) -> (usize, Option<f64>) {
    let len = plain
        + bytes[plain..]
            .iter()
            .take_while(|&b| is_number_byte(b))
            .count();
    let token = std::str::from_utf8(&bytes[..len]).ok();
    (len, token.and_then(|token| token.parse().ok()))
}

fn is_number_byte(b: &u8) -> bool {
    matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
}

/// Clinger's fast path over the `-?[0-9]+(\.[0-9]+)?` prefix of `bytes`: its
/// length, and — if it has at most [`FAST_PATH_DIGITS`] significant digits
/// and as many after the point — its value `mantissa / 10^fraction`. Both
/// operands are exact in an `f64` (`mantissa < 10^15 < 2^53`), so the one
/// division is correctly rounded: the same bits `str::parse` gives.
#[inline]
fn exact_decimal(bytes: &[u8]) -> (usize, Option<f64>) {
    let negative = bytes.first() == Some(&b'-');
    let start = usize::from(negative);
    let mut pos = start;
    let mut point = None;
    let mut mantissa = 0u64;
    let mut significant = 0u32;
    while let Some(&b) = bytes.get(pos) {
        if b.is_ascii_digit() {
            // Wraps only past 19 digits, long after `significant` ruled the
            // value out.
            mantissa = mantissa.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
            significant += u32::from(mantissa != 0);
        } else if b == b'.' && point.is_none() && pos > start {
            point = Some(pos);
        } else {
            break;
        }
        pos += 1;
    }
    let fraction = match point {
        // A point with no digit after it is not part of the prefix.
        Some(point) if point + 1 == pos => {
            pos = point;
            0
        }
        Some(point) => pos - point - 1,
        None => 0,
    };
    if pos == start || significant > FAST_PATH_DIGITS || fraction > FAST_PATH_DIGITS as usize {
        return (pos, None);
    }
    let value = mantissa as f64 / EXACT_POWERS_OF_TEN[fraction];
    (pos, Some(if negative { -value } else { value }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_structures() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse(" -1.5e2 ").unwrap(), JsonValue::Number(-150.0));
        assert_eq!(
            parse("\"a\\nb\\\"c\\u0041\"").unwrap(),
            JsonValue::String("a\nb\"cA".to_string())
        );
        let doc = parse("{\"xs\": [1, 2, 3], \"nested\": {\"ok\": true}}").unwrap();
        assert_eq!(doc.get("xs").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            doc.get("nested").unwrap().get("ok"),
            Some(&JsonValue::Bool(true))
        );
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"open",
            "{\"a\":}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn render_round_trips_through_parse() {
        let doc = JsonValue::object([
            ("name".to_string(), JsonValue::from("line\n\"two\"")),
            ("count".to_string(), JsonValue::from(42u64)),
            ("ratio".to_string(), JsonValue::from(0.125)),
            (
                "items".to_string(),
                JsonValue::Array(vec![JsonValue::Null, JsonValue::Bool(false)]),
            ),
        ]);
        let text = doc.render();
        assert_eq!(parse(&text).unwrap(), doc);
        // Canonical: keys sorted, compact, single line.
        assert_eq!(
            text,
            "{\"count\":42,\"items\":[null,false],\"name\":\"line\\n\\\"two\\\"\",\"ratio\":0.125}"
        );
        assert!(!text.contains('\n'));
    }

    #[test]
    fn numbers_render_exactly() {
        // Integers come out without a fraction; f64s use shortest
        // round-trip; non-finite values degrade to null.
        assert_eq!(JsonValue::Number(3.0).render(), "3");
        assert_eq!(JsonValue::Number(-17.0).render(), "-17");
        assert_eq!(JsonValue::Number(0.1).render(), "0.1");
        assert_eq!(JsonValue::Number(f64::NAN).render(), "null");
        for n in [0.1f64, 1e300, -2.5e-7, 123456789.25] {
            let rendered = JsonValue::Number(n).render();
            assert_eq!(parse(&rendered).unwrap(), JsonValue::Number(n), "{n}");
        }
    }

    #[test]
    fn typed_accessors() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("7.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        // The cast round trip answers what `fract() == 0.0` answered.
        for (n, expected) in [
            (-0.0, Some(0)),
            (1e0, Some(1)),
            (4294967296.0, Some(1 << 32)),
            (9_007_199_254_740_992.0, Some(1 << 53)),
            (9_007_199_254_740_994.0, None),
            (0.5, None),
            (4294967295.5, None),
            (f64::NAN, None),
            (f64::INFINITY, None),
        ] {
            assert_eq!(JsonValue::Number(n).as_u64(), expected, "{n}");
        }
        assert_eq!(parse("true").unwrap().as_bool(), Some(true));
        assert_eq!(parse("{}").unwrap().as_object().map(|m| m.len()), Some(0));
        assert_eq!(parse("1").unwrap().as_object(), None);
    }

    #[test]
    fn escape_string_quotes_controls() {
        assert_eq!(escape_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(escape_string("\u{1}"), "\"\\u0001\"");
    }

    /// Wire-safety: the line-delimited protocols frame one document per
    /// newline, so a rendered document must NEVER contain a raw newline —
    /// whatever the strings inside hold.
    #[test]
    fn embedded_newlines_never_reach_the_rendered_frame() {
        for hostile in [
            "a\nb",
            "\r\n",
            "\n",
            "trailing\n",
            "\u{85}ok",
            "mixed\r\tand\n",
        ] {
            let doc = JsonValue::object([
                ("key\nwith newline".to_string(), JsonValue::from(hostile)),
                ("plain".to_string(), JsonValue::from(1u64)),
            ]);
            let rendered = doc.render();
            assert!(
                !rendered.contains('\n') && !rendered.contains('\r'),
                "{hostile:?} leaked a raw newline: {rendered}"
            );
            assert_eq!(parse(&rendered).unwrap(), doc, "{hostile:?} round trip");
        }
    }

    /// `\uXXXX` escapes: valid codes decode (including multi-byte UTF-8),
    /// malformed ones are parse errors — never a panic, never silent data.
    #[test]
    fn unicode_escapes_decode_or_error_cleanly() {
        assert_eq!(
            parse("\"\\u0041\\u00e9\\u2603\"").unwrap(),
            JsonValue::String("Aé☃".to_string())
        );
        // Escaped control characters round-trip through our own renderer.
        let rendered = JsonValue::from("\u{1}\u{1f}").render();
        assert_eq!(parse(&rendered).unwrap(), JsonValue::from("\u{1}\u{1f}"));
        for (bad, needle) in [
            ("\"\\u00\"", "escape"),        // truncated escape
            ("\"\\uZZZZ\"", "invalid \\u"), // non-hex digits
            ("\"\\ud800\"", "surrogate"),   // unpaired surrogate
            ("\"\\u\"", "escape"),          // no digits at all
            ("\"\\x41\"", "escape"),        // unknown escape letter
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains(needle), "{bad:?}: {err}");
        }
    }

    /// Truncation at ANY byte of a wire-shaped document is a parse error
    /// (or a shorter valid document) — never a panic. Guards the server
    /// loops that feed partially-read frames into `parse`.
    #[test]
    fn truncated_documents_error_instead_of_panicking() {
        let doc = JsonValue::object([
            ("epoch".to_string(), JsonValue::from("00000000000000a7")),
            ("op".to_string(), JsonValue::from("solve_window")),
            (
                "weights".to_string(),
                JsonValue::Array(vec![
                    JsonValue::from(0.5),
                    JsonValue::from("3fe0000000000000"),
                    JsonValue::Null,
                ]),
            ),
            ("note".to_string(), JsonValue::from("uni ☃ code \n line")),
        ])
        .render();
        let mut errors = 0usize;
        for cut in 0..doc.len() {
            if !doc.is_char_boundary(cut) {
                continue;
            }
            if parse(&doc[..cut]).is_err() {
                errors += 1;
            }
        }
        assert!(errors > doc.len() / 2, "truncations unexpectedly parse");
        assert!(parse(&doc).is_ok());
    }

    /// Oversized lines: a multi-megabyte document parses (and renders) in
    /// one piece, and multi-megabyte garbage is an error — the byte cap on
    /// frames lives in the wire layer, the JSON layer just has to stay
    /// robust and linear.
    #[test]
    fn oversized_lines_parse_or_error_without_panic() {
        let big = "x".repeat(2 << 20);
        let doc = JsonValue::object([("blob".to_string(), JsonValue::from(big.clone()))]);
        let rendered = doc.render();
        assert!(rendered.len() > 2 << 20);
        assert_eq!(parse(&rendered).unwrap(), doc);
        // Garbage of the same size: clean error.
        let garbage = format!("{{\"blob\":\"{big}");
        assert!(parse(&garbage).is_err());
        // Deep nesting must not smash the stack: the parser caps recursion
        // and reports a clean error instead.
        let nested = format!("{}1{}", "[".repeat(10_000), "]".repeat(10_000));
        assert!(parse(&nested).unwrap_err().contains("nesting"));
    }

    /// A `push_interval` line shaped like `stream-delta`'s: `nodes` nodes of
    /// `parents` edges each, weights of at most four decimals.
    fn push_line(nodes: u32, parents: u32, seed: u64) -> String {
        let mut rng = crate::DetRng::seed_from_u64(seed);
        let mut line = format!("{{\"op\":\"push_interval\",\"nodes\":{nodes},\"edges\":[");
        for node in 0..nodes {
            for e in 0..parents {
                let weight = (1 + rng.below(9999)) as f64 / 10_000.0;
                if node > 0 || e > 0 {
                    line.push(',');
                }
                let parent = rng.below(u64::from(nodes));
                line.push_str(&format!("[{},{parent},{node},{weight}]", rng.below(2)));
            }
        }
        line.push_str("]}");
        line
    }

    /// Every token goes through `number_at`, and whichever path it takes the
    /// bits are `str::parse`'s. The limits are the ones Clinger's argument
    /// needs: one more significant digit or one more digit after the point
    /// must leave the fast path (`must_fall_back`), so loosening either
    /// fails here, not on some rare input.
    #[test]
    fn the_number_fast_path_is_bit_identical_to_str_parse() {
        // What the reader makes of `token`, one whole number token.
        let read = |token: &str| {
            let (len, value) = number_at(token.as_bytes());
            assert_eq!(len, token.len(), "{token}");
            value
        };
        // The fast path's value, if it reads the whole token.
        let fast = |token: &[u8]| {
            let (len, value) = exact_decimal(token);
            value.filter(|_| len == token.len())
        };
        let check = |token: &str| {
            let expected = token.parse::<f64>().unwrap().to_bits();
            assert_eq!(read(token).unwrap().to_bits(), expected, "{token}");
            if let Some(value) = fast(token.as_bytes()) {
                assert_eq!(value.to_bits(), expected, "{token}");
            }
        };
        // Every number of a generated 1 000-node push line — all of them on
        // the fast path.
        let line = push_line(1000, 6, 7);
        let tokens: Vec<&str> = line
            .split(|c: char| !(c.is_ascii_digit() || c == '.'))
            .filter(|t| !t.is_empty())
            .collect();
        assert!(tokens.len() > 24_000, "{}", tokens.len());
        for token in &tokens {
            check(token);
            assert!(fast(token.as_bytes()).is_some(), "{token}");
        }
        // Seeded tokens: 1–15 digits before the point, 0–15 after it, signs,
        // leading zeros.
        let mut rng = crate::DetRng::seed_from_u64(0x5eed);
        let mut token = String::new();
        for _ in 0..1_000_000 {
            token.clear();
            if rng.chance(0.5) {
                token.push('-');
            }
            let whole = 1 + rng.below(15);
            let leading_zeros = if rng.chance(0.2) { rng.below(whole) } else { 0 };
            for d in 0..whole {
                let digit = if d < leading_zeros { 0 } else { rng.below(10) };
                token.push(char::from(b'0' + digit as u8));
            }
            let fraction = rng.below(16);
            if fraction > 0 {
                token.push('.');
                for _ in 0..fraction {
                    token.push(char::from(b'0' + rng.below(10) as u8));
                }
            }
            check(&token);
        }
        let on_the_fast_path = [
            "0",
            "-0",
            "0.0",
            "-0.0",
            "007",
            "999999999999999",
            "-999999999999999",
            "0.000000000000001",
            "99999999999999.9",
            "0.999999999999999",
            "0000000000000000000000123.5",
        ];
        for token in on_the_fast_path {
            check(token);
            assert!(fast(token.as_bytes()).is_some(), "{token}");
        }
        let must_fall_back = [
            "9007199254740993",
            "9999999999999999",
            "1234567890123456",
            "12345678901234567",
            "-9007199254740993",
            "0.0000000000000001",
            "0.1234567890123456",
            "1.0000000000000001",
            "123456789012345.6",
            "1e5",
            "1E-5",
            "1.5e+3",
            "1.",
            "-.5",
        ];
        for token in must_fall_back {
            check(token);
            assert!(fast(token.as_bytes()).is_none(), "{token}");
        }
        for invalid in ["-", ".", "1.2.3", "1-2", "--1", "1e", "-e5"] {
            assert!(read(invalid).is_none(), "{invalid}");
            assert!(fast(invalid.as_bytes()).is_none(), "{invalid}");
        }
    }

    /// `edge` reads what `value` builds followed by the indices' `u32`
    /// conversion (`as_u64`, then `u32::try_from`: what `protocol::as_u32`
    /// and the tree accept), to the bit, wherever it takes an element; it
    /// takes one exactly when its indices are plain runs of at most 10
    /// digits below 2^32 and its weight reads as a number, and where it does
    /// not, the reader has not moved.
    #[test]
    fn the_typed_edge_read_is_the_tree_then_the_u32_conversion() {
        // The element as `value` builds it, if it is four values whose last
        // is a number: the indices converted, the weight, and where the
        // reader stopped.
        let tree = |element: &str| {
            let mut reader = Reader::new(element);
            let Ok(JsonValue::Array(items)) = reader.value() else {
                return None;
            };
            let [a, b, c, JsonValue::Number(weight)] = items.as_slice() else {
                return None;
            };
            let as_u32 = |n: &JsonValue| n.as_u64().and_then(|n| u32::try_from(n).ok());
            Some(([a, b, c].map(as_u32), *weight, reader.pos))
        };
        let plain = |token: &str| {
            (1..=10).contains(&token.len())
                && token.bytes().all(|b| b.is_ascii_digit())
                && token.parse::<u64>().unwrap() <= u64::from(u32::MAX)
        };
        let mut indices: Vec<String> = [
            "0",
            "7",
            "007",
            "10",
            "0000000000",
            "4294967295",
            "04294967295",
            "4294967296",
            "9999999999",
            "42949672950",
            "18446744073709551616",
            "1.0",
            "1e0",
            "-0",
            "-1",
            "1.5",
            "",
            " 1",
            "1 ",
            "\"1\"",
            "null",
            "[1]",
        ]
        .map(String::from)
        .to_vec();
        // Seeded digit runs of 1–12 digits, leading zeros among them.
        let mut rng = crate::DetRng::seed_from_u64(0xed9e);
        for _ in 0..12 {
            let digits = 1 + rng.below(12);
            indices.push(
                (0..digits)
                    .map(|_| char::from(b'0' + rng.below(10) as u8))
                    .collect(),
            );
        }
        // Each weight, and whether `value` reads it as a number.
        let weights = [
            "0.5", "0.5e0", "-0.5", "2", "0", "-0", "1e400", "0.1234", ".5", "1.", "-", "x", "",
        ]
        .map(|w| (w, tree(&format!("[0,0,0,{w}]")).is_some()));
        let (mut taken, mut left) = (0usize, 0usize);
        let mut check = |element: &str, expected: bool| {
            let mut typed = Reader::new(element);
            match (typed.edge(), tree(element)) {
                (Some((read, weight)), Some((indices, w, pos))) => {
                    assert!(expected, "{element}");
                    assert_eq!(read.map(Some), indices, "{element}");
                    assert_eq!(weight.to_bits(), w.to_bits(), "{element}");
                    assert_eq!(typed.pos, pos, "{element}");
                    taken += 1;
                }
                (Some(_), None) => panic!("{element} read as an edge only"),
                (None, _) => {
                    assert!(!expected, "{element} left unread");
                    assert_eq!(typed.pos, 0, "{element}");
                    left += 1;
                }
            }
        };
        for a in &indices {
            for b in &indices {
                for c in &indices {
                    for (w, reads) in &weights {
                        let expected = plain(a) && plain(b) && plain(c) && *reads;
                        check(&format!("[{a},{b},{c},{w}]"), expected);
                    }
                }
            }
        }
        for element in [
            " [0,1,2,0.5]",
            "[ 0,1,2,0.5]",
            "[0,1,2,0.5 ]",
            "[0,1,2]",
            "[0,1,2,0.5,1]",
            "[0,1,2,0.5",
            "",
        ] {
            check(element, false);
        }
        assert!(
            taken > 10_000 && left > 100_000,
            "{taken} taken, {left} left"
        );
        // The nesting limit: at the limit the reader takes nothing.
        let nested = format!("{}[0,1,2,0.5]", "[".repeat(MAX_PARSE_DEPTH));
        let mut reader = Reader::new(&nested);
        reader.pos = MAX_PARSE_DEPTH;
        reader.depth = MAX_PARSE_DEPTH;
        assert_eq!(reader.edge(), None);
        reader.depth -= 1;
        assert_eq!(reader.edge(), Some(([0, 1, 2], 0.5)));
    }

    /// The walkers read a document the way `value` builds it: typed as it
    /// goes, with the same errors at the same bytes.
    #[test]
    fn a_reader_walks_what_parse_builds() {
        let line = push_line(20, 3, 1);
        let mut reader = Reader::new(&line);
        let mut keys = Vec::new();
        let mut quads = Vec::new();
        reader
            .object(|reader, key| {
                if key == "edges" {
                    reader.array(|reader| {
                        let mut quad = Vec::new();
                        reader.array(|reader| {
                            quad.push(reader.number()?.unwrap());
                            Ok(())
                        })?;
                        quads.push(quad);
                        Ok(())
                    })?;
                } else {
                    reader.value()?;
                }
                keys.push(key);
                Ok(())
            })
            .unwrap();
        reader.finish().unwrap();
        assert_eq!(keys, ["op", "nodes", "edges"]);
        let tree = parse(&line).unwrap();
        let edges: Vec<Vec<f64>> = tree
            .get("edges")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|quad| {
                let quad = quad.as_array().unwrap();
                quad.iter().map(|n| n.as_f64().unwrap()).collect()
            })
            .collect();
        assert_eq!(quads, edges);

        // `number` reads past whatever is not a number; `peek` skips
        // whitespace and consumes nothing.
        let mut reader = Reader::new(" [ \"x\", {\"a\":[1]}, -2.5 ] ");
        assert_eq!(reader.peek(), Some(b'['));
        let mut read = Vec::new();
        reader
            .array(|reader| {
                read.push(reader.number()?);
                Ok(())
            })
            .unwrap();
        assert_eq!(read, [None, None, Some(-2.5)]);
        assert_eq!(reader.peek(), None);
        reader.finish().unwrap();

        // The depth limit and trailing garbage, walked or built.
        for text in [
            format!("{}1{}", "[".repeat(200), "]".repeat(200)),
            "[1] x".to_string(),
            "[1,]".to_string(),
        ] {
            let mut reader = Reader::new(&text);
            let walked = reader
                .array(|reader| reader.value().map(drop))
                .and_then(|()| reader.finish());
            assert_eq!(walked.unwrap_err(), parse(&text).unwrap_err(), "{text}");
        }
    }
}
