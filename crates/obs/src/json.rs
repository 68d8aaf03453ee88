//! Minimal JSON emission and validation — just enough for the trace format,
//! with no external dependencies.
//!
//! Emission appends to one caller-owned `String`: a [`JsonObject`] writes
//! each field in place, and the nested objects and arrays it opens borrow
//! the same buffer, so a whole coverage map or frame is serialized without
//! a per-field or per-record allocation. [`validate_jsonl`] is a strict
//! syntax checker for JSON-lines streams, used by the golden tests and the
//! CI smoke job; [`validate_member`] runs the same check on one line and
//! builds only one top-level member, for readers that need a line's tag
//! before (or instead of) its whole [`JsonValue`] tree.

use std::borrow::BorrowMut;
use std::fmt::Write;

/// Incremental writer for one JSON object.
///
/// The object either owns its buffer ([`JsonObject::new`]; `finish` returns
/// the text) or appends to the end of a caller's buffer
/// ([`JsonObject::within`]; `finish` closes it in place). Nested objects and
/// arrays ([`JsonObject::object`], [`JsonObject::array`]) borrow the same
/// buffer and must be finished before the parent writes its next field.
#[derive(Debug)]
pub struct JsonObject<B: BorrowMut<String> = String> {
    buf: B,
    empty: bool,
}

impl JsonObject {
    /// Starts an empty object in a buffer of its own.
    #[must_use]
    pub fn new() -> Self {
        JsonObject::open(String::new())
    }

    /// Closes the object and returns its text.
    #[must_use]
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonObject {
    fn default() -> Self {
        JsonObject::new()
    }
}

impl<'a> JsonObject<&'a mut String> {
    /// Starts an object at the end of `out`.
    pub fn within(out: &'a mut String) -> Self {
        JsonObject::open(out)
    }

    /// Closes the object in the caller's buffer.
    pub fn finish(self) {
        self.buf.push('}');
    }
}

impl<B: BorrowMut<String>> JsonObject<B> {
    fn open(mut buf: B) -> Self {
        buf.borrow_mut().push('{');
        JsonObject { buf, empty: true }
    }

    /// Writes key `k` and returns the buffer positioned for its value: the
    /// caller appends exactly one JSON value — the splice point for values
    /// that serialize themselves (`write_json`). Keys are literals that
    /// need no escaping, so they are copied verbatim; a key that comes from
    /// data goes through [`JsonObject::value_dyn`].
    pub fn value(&mut self, k: &'static str) -> &mut String {
        debug_assert!(is_plain_key(k), "JSON key {k:?} needs escaping");
        let buf = self.separator();
        buf.push('"');
        buf.push_str(k);
        buf.push_str("\":");
        buf
    }

    /// [`JsonObject::value`] for a key that comes from data: `k` is
    /// escaped.
    pub fn value_dyn(&mut self, k: &str) -> &mut String {
        let buf = self.separator();
        push_str_value(buf, k);
        buf.push(':');
        buf
    }

    /// The buffer, after the comma that separates a field from the one
    /// before it.
    fn separator(&mut self) -> &mut String {
        let buf = self.buf.borrow_mut();
        if !self.empty {
            buf.push(',');
        }
        self.empty = false;
        buf
    }

    /// Appends a string field.
    pub fn str(&mut self, k: &'static str, v: &str) {
        push_str_value(self.value(k), v);
    }

    /// Appends an unsigned integer field.
    pub fn num(&mut self, k: &'static str, v: u64) {
        push_u64(self.value(k), v);
    }

    /// Appends a finite float field (non-finite values render as `null`,
    /// which JSON has no float spelling for).
    pub fn float(&mut self, k: &'static str, v: f64) {
        let buf = self.value(k);
        if v.is_finite() {
            let _ = write!(buf, "{v}");
        } else {
            buf.push_str("null");
        }
    }

    /// Appends a boolean field.
    pub fn bool(&mut self, k: &'static str, v: bool) {
        self.value(k).push_str(if v { "true" } else { "false" });
    }

    /// Appends a pre-serialized JSON value verbatim. The caller is
    /// responsible for `v` being valid JSON.
    pub fn raw(&mut self, k: &'static str, v: &str) {
        self.value(k).push_str(v);
    }

    /// Opens a nested object under key `k`.
    pub fn object(&mut self, k: &'static str) -> JsonObject<&mut String> {
        JsonObject::within(self.value(k))
    }

    /// Opens a nested array under key `k`.
    pub fn array(&mut self, k: &'static str) -> JsonArray<'_> {
        JsonArray::within(self.value(k))
    }
}

/// Incremental writer for one JSON array at the end of a caller's buffer;
/// the array counterpart of [`JsonObject::within`].
#[derive(Debug)]
pub struct JsonArray<'a> {
    buf: &'a mut String,
    empty: bool,
}

impl<'a> JsonArray<'a> {
    /// Starts an array at the end of `out`.
    pub fn within(out: &'a mut String) -> Self {
        out.push('[');
        JsonArray {
            buf: out,
            empty: true,
        }
    }

    /// Returns the buffer positioned for the next element: the caller
    /// appends exactly one JSON value.
    pub fn value(&mut self) -> &mut String {
        if !self.empty {
            self.buf.push(',');
        }
        self.empty = false;
        self.buf
    }

    /// Appends a string element.
    pub fn str(&mut self, v: &str) {
        push_str_value(self.value(), v);
    }

    /// Appends an unsigned integer element.
    pub fn num(&mut self, v: u64) {
        push_u64(self.value(), v);
    }

    /// Appends a pre-serialized JSON value verbatim.
    pub fn raw(&mut self, v: &str) {
        self.value().push_str(v);
    }

    /// Opens a nested object as the next element.
    pub fn object(&mut self) -> JsonObject<&mut String> {
        JsonObject::within(self.value())
    }

    /// Closes the array in the caller's buffer.
    pub fn finish(self) {
        self.buf.push(']');
    }
}

/// `true` iff `k` is printable ASCII without `"` or `\\`, so it needs no
/// escape. A plain byte loop: it runs for every key of every frame in
/// debug builds.
fn is_plain_key(k: &str) -> bool {
    let bytes = k.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if !matches!(b, 0x20..=0x7e) || b == b'"' || b == b'\\' {
            return false;
        }
        i += 1;
    }
    true
}

/// `"00"`, `"01"`, …, `"99"`: every two-digit group, ready to append.
const DIGIT_PAIRS: &str = {
    const BYTES: [u8; 200] = {
        let mut b = [0u8; 200];
        let mut i = 0;
        while i < 100 {
            b[2 * i] = b'0' + (i / 10) as u8;
            b[2 * i + 1] = b'0' + (i % 10) as u8;
            i += 1;
        }
        b
    };
    match std::str::from_utf8(&BYTES) {
        Ok(s) => s,
        Err(_) => panic!("ASCII digits"),
    }
};

/// Appends `v` in decimal, without going through `fmt`: one append per
/// two digits, sliced from [`DIGIT_PAIRS`]. (Collecting the digits in a
/// buffer for a single `push_str` costs more: the buffer must go through
/// `str::from_utf8`, which dominated the coverage-map writer.)
fn push_u64(out: &mut String, mut v: u64) {
    let mut low = [0u8; 10];
    let mut n = 0;
    while v >= 100 {
        low[n] = (v % 100) as u8;
        v /= 100;
        n += 1;
    }
    if v < 10 {
        out.push(char::from(b'0' + v as u8));
    } else {
        push_digit_pair(out, v as u8);
    }
    for &pair in low[..n].iter().rev() {
        push_digit_pair(out, pair);
    }
}

/// Appends `pair` (< 100) as exactly two digits.
fn push_digit_pair(out: &mut String, pair: u8) {
    let i = 2 * usize::from(pair);
    out.push_str(&DIGIT_PAIRS[i..i + 2]);
}

/// Appends `s` as a quoted, escaped JSON string literal.
fn push_str_value(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Appends `s` to `out`, escaped for inclusion in a JSON string literal.
///
/// Beyond the mandatory `"`/`\\`/C0 escapes, DEL, the C1 control range
/// (U+0080–U+009F) and the Unicode line separators U+2028/U+2029 are also
/// `\u`-escaped: C1 bytes are invisible in most terminals and corrupt naive
/// line-oriented consumers, and U+2028/U+2029 are line terminators in
/// JavaScript, so escaping keeps one JSONL event strictly one line
/// everywhere. Runs of characters that need no escape are copied as they
/// are, so a plain label costs one scan and one copy.
pub fn escape_into(out: &mut String, s: &str) {
    let bytes = s.as_bytes();
    // `run` is the start of the pending verbatim run. The loop stops only
    // at ASCII bytes and at the lead bytes 0xC2/0xE2, all char boundaries,
    // so every slice below is valid UTF-8.
    let mut run = 0;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        let (cp, width) = match b {
            b'"' | b'\\' | 0x00..=0x1f | 0x7f => (u32::from(b), 1),
            // U+0080–U+009F: C2 80 … C2 9F.
            0xc2 if matches!(bytes.get(i + 1), Some(0x80..=0x9f)) => (u32::from(bytes[i + 1]), 2),
            // U+2028/U+2029: E2 80 A8 / E2 80 A9.
            0xe2 if bytes.get(i + 1) == Some(&0x80)
                && matches!(bytes.get(i + 2), Some(0xa8 | 0xa9)) =>
            {
                (0x2000 | u32::from(bytes[i + 2] & 0x3f), 3)
            }
            _ => {
                i += 1;
                continue;
            }
        };
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u");
                for shift in [12, 8, 4, 0] {
                    out.push(char::from(
                        b"0123456789abcdef"[(cp >> shift) as usize & 0xf],
                    ));
                }
            }
        }
        i += width;
        run = i;
    }
    out.push_str(&s[run..]);
}

/// Validates a JSON-lines stream: every non-empty line must be one
/// syntactically complete JSON value. Returns the number of lines checked.
///
/// # Errors
///
/// Returns a message naming the first offending line (1-based) and position.
pub fn validate_jsonl(text: &str) -> Result<usize, String> {
    let mut checked = 0;
    for (ln, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        validate(line, None).map_err(|e| format!("line {}: {e}", ln + 1))?;
        checked += 1;
    }
    Ok(checked)
}

/// Checks that `text` is one JSON value, by [`parse`]'s grammar, and
/// returns the value of its last top-level member named `key` (`None` when
/// `text` is not an object or has no such member). Only that member's value
/// is built; the rest of the text is checked and skipped, so reading one
/// member costs a syntax check of the line rather than a whole tree.
///
/// # Errors
///
/// The message [`parse`] returns for the same text.
pub fn validate_member(text: &str, key: &str) -> Result<Option<JsonValue>, String> {
    validate(text, Some(key))
}

/// The syntax check behind [`validate_jsonl`] and [`validate_member`].
fn validate(text: &str, key: Option<&str>) -> Result<Option<JsonValue>, String> {
    let mut p = Parser::new(text);
    p.skip_ws();
    let member = if p.peek() == Some(b'{') {
        p.object(key)?
    } else {
        p.value()?;
        None
    };
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(member)
}

/// A parsed JSON value — the reading counterpart of [`JsonObject`], used by
/// tools that consume committed JSON artifacts (baseline benchmark
/// snapshots, coverage maps) without external dependencies.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source key order (duplicate keys keep the last value on
    /// lookup).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member `key` of an object (`None` for other variants or missing
    /// keys). Duplicate keys resolve to the last occurrence.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => {
                members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes back to one compact JSON line (no trailing newline).
    /// Whole numbers print without a fractional part; non-finite numbers
    /// (unrepresentable in JSON) degrade to `null`.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) if n.is_finite() => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            JsonValue::Num(_) => out.push_str("null"),
            JsonValue::Str(s) => push_str_value(out, s),
            JsonValue::Array(items) => {
                let mut a = JsonArray::within(out);
                for item in items {
                    item.write(a.value());
                }
                a.finish();
            }
            JsonValue::Object(members) => {
                let mut o = JsonObject::within(out);
                for (k, v) in members {
                    v.write(o.value_dyn(k));
                }
                o.finish();
            }
        }
    }
}

/// Parses one JSON value from `text` (surrounding whitespace allowed).
///
/// # Errors
///
/// Returns a message naming the first offending byte position.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser::new(text);
    p.skip_ws();
    let v = p.build_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

/// A recursive-descent JSON reader: the `value`/`object`/`array`/`string`/
/// `number` methods check syntax without building anything, and the
/// `build_*` methods build a [`JsonValue`] under the same grammar and error
/// messages.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Members of the objects being built, innermost last. An object takes
    /// its own off the top when it closes, into a `Vec` of exact length, so
    /// building one allocates once instead of growing a `Vec` per member.
    members: Vec<(String, JsonValue)>,
    /// The same for the arrays being built.
    items: Vec<JsonValue>,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            members: Vec::new(),
            items: Vec::new(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<u8, String> {
        let b = self
            .peek()
            .ok_or_else(|| format!("unexpected end at byte {}", self.pos))?;
        self.pos += 1;
        Ok(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        let got = self.bump()?;
        if got == b {
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, got {:?}",
                b as char,
                self.pos - 1,
                got as char
            ))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        for &b in lit.as_bytes() {
            self.expect(b)?;
        }
        Ok(())
    }

    fn value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => self.object(None).map(|_| ()),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected {:?} at byte {}", b as char, self.pos)),
            None => Err(format!("unexpected end at byte {}", self.pos)),
        }
    }

    /// Checks an object. With `watch`, the value of its last member named
    /// `watch` is built and returned; every other value is only checked.
    fn object(&mut self, watch: Option<&str>) -> Result<Option<JsonValue>, String> {
        self.expect(b'{')?;
        self.skip_ws();
        let mut found = None;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(found);
        }
        loop {
            self.skip_ws();
            let key = self.pos;
            self.string()?;
            let watched = watch.is_some_and(|w| self.key_is(key, w));
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            if watched {
                found = Some(self.build_value()?);
            } else {
                self.value()?;
            }
            self.skip_ws();
            match self.bump()? {
                b',' => {}
                b'}' => return Ok(found),
                b => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, got {:?}",
                        self.pos - 1,
                        b as char
                    ))
                }
            }
        }
    }

    /// Whether the string checked from byte `start` up to here decodes to
    /// `want`.
    fn key_is(&self, start: usize, want: &str) -> bool {
        let raw = &self.text[start + 1..self.pos - 1];
        if raw.contains('\\') {
            Parser::new(&self.text[start..self.pos])
                .build_string()
                .is_ok_and(|k| k == want)
        } else {
            raw == want
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.bump()? {
                b',' => {}
                b']' => return Ok(()),
                b => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, got {:?}",
                        self.pos - 1,
                        b as char
                    ))
                }
            }
        }
    }

    /// Skips a string body's plain run — every byte up to the next quote,
    /// backslash or control byte — in one scan.
    fn plain_run(&mut self) {
        let rest = &self.bytes[self.pos..];
        self.pos += rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .unwrap_or(rest.len());
    }

    /// Skips a run of ASCII digits in one scan; returns its length.
    fn digits(&mut self) -> usize {
        let rest = &self.bytes[self.pos..];
        let n = rest
            .iter()
            .position(|b| !b.is_ascii_digit())
            .unwrap_or(rest.len());
        self.pos += n;
        n
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        loop {
            self.plain_run();
            match self.bump()? {
                b'"' => return Ok(()),
                b'\\' => {
                    let e = self.bump()?;
                    match e {
                        b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => {}
                        b'u' => {
                            for _ in 0..4 {
                                let h = self.bump()?;
                                if !h.is_ascii_hexdigit() {
                                    return Err(format!("bad \\u escape at byte {}", self.pos - 1));
                                }
                            }
                        }
                        b => {
                            return Err(format!(
                                "bad escape {:?} at byte {}",
                                b as char,
                                self.pos - 1
                            ))
                        }
                    }
                }
                b if b < 0x20 => return Err(format!("raw control byte at {}", self.pos - 1)),
                _ => {}
            }
        }
    }

    fn build_value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.build_object(),
            Some(b'[') => self.build_array(),
            Some(b'"') => self.build_string().map(JsonValue::Str),
            Some(b't') => self.literal("true").map(|()| JsonValue::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| JsonValue::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.build_number(),
            Some(b) => Err(format!("unexpected {:?} at byte {}", b as char, self.pos)),
            None => Err(format!("unexpected end at byte {}", self.pos)),
        }
    }

    fn build_object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(Vec::new()));
        }
        let base = self.members.len();
        loop {
            self.skip_ws();
            let key = self.build_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.build_value()?;
            self.members.push((key, val));
            self.skip_ws();
            match self.bump()? {
                b',' => {}
                b'}' => return Ok(JsonValue::Object(self.members.drain(base..).collect())),
                b => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, got {:?}",
                        self.pos - 1,
                        b as char
                    ))
                }
            }
        }
    }

    fn build_array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(Vec::new()));
        }
        let base = self.items.len();
        loop {
            self.skip_ws();
            let item = self.build_value()?;
            self.items.push(item);
            self.skip_ws();
            match self.bump()? {
                b',' => {}
                b']' => return Ok(JsonValue::Array(self.items.drain(base..).collect())),
                b => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, got {:?}",
                        self.pos - 1,
                        b as char
                    ))
                }
            }
        }
    }

    fn build_string(&mut self) -> Result<String, String> {
        let start = self.pos;
        // A string with no escape and no control byte is one slice of the
        // input: the quotes are ASCII, so the slice is whole UTF-8.
        if self.peek() == Some(b'"') {
            self.pos += 1;
            self.plain_run();
            if self.peek() == Some(b'"') {
                self.pos += 1;
                return Ok(self.text[start + 1..self.pos - 1].to_owned());
            }
            self.pos = start;
        }
        self.string()?;
        // Re-walk the validated span (quotes excluded) decoding escapes.
        let body = &self.bytes[start + 1..self.pos - 1];
        let text = std::str::from_utf8(body)
            .map_err(|_| format!("invalid UTF-8 in string at byte {start}"))?;
        let mut out = String::with_capacity(text.len());
        let mut chars = text.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('/') => out.push('/'),
                Some('b') => out.push('\u{8}'),
                Some('f') => out.push('\u{c}'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let cp = u32::from_str_radix(&hex, 16)
                        .map_err(|_| format!("bad \\u escape in string at byte {start}"))?;
                    // Surrogates (already validated as hex) decode to the
                    // replacement character; the trace format never emits
                    // them.
                    out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                }
                _ => return Err(format!("bad escape in string at byte {start}")),
            }
        }
        Ok(out)
    }

    fn build_number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        self.number()?;
        // An integer of up to 15 digits is below 2^53: accumulated in a
        // `u64`, it converts to `f64` exactly, as the decimal parse would.
        let lexeme = &self.bytes[start..self.pos];
        let (negative, digits) = match lexeme.split_first() {
            Some((b'-', rest)) => (true, rest),
            _ => (false, lexeme),
        };
        if digits.len() <= 15 && digits.iter().all(u8::is_ascii_digit) {
            let n = digits
                .iter()
                .fold(0u64, |n, &d| n * 10 + u64::from(d - b'0')) as f64;
            return Ok(JsonValue::Num(if negative { -n } else { n }));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid UTF-8 in number at byte {start}"))?;
        let n: f64 = text
            .parse()
            .map_err(|_| format!("unparseable number at byte {start}"))?;
        Ok(JsonValue::Num(n))
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.digits() == 0 {
            return Err(format!("expected digits at byte {}", self.pos));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(format!("expected fraction digits at byte {}", self.pos));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(format!("expected exponent digits at byte {}", self.pos));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escape(s: &str) -> String {
        let mut out = String::new();
        escape_into(&mut out, s);
        out
    }

    #[test]
    fn builder_produces_valid_objects() {
        let mut o = JsonObject::new();
        o.str("ev", "phase_end");
        o.num("micros", 12);
        o.bool("ok", true);
        let s = o.finish();
        assert_eq!(s, "{\"ev\":\"phase_end\",\"micros\":12,\"ok\":true}");
        assert_eq!(validate_jsonl(&s), Ok(1));
    }

    #[test]
    fn literal_keys_are_verbatim_and_data_keys_escaped() {
        let mut o = JsonObject::new();
        o.num("total_faults", 3);
        o.value_dyn("a\"b").push('1');
        let s = o.finish();
        assert_eq!(s, "{\"total_faults\":3,\"a\\\"b\":1}");
        assert_eq!(validate_jsonl(&s), Ok(1));
        assert!(is_plain_key("frontier_died_at_level"));
        for bad in ["a\"b", "a\\b", "a\nb", "\u{7f}", "é"] {
            assert!(!is_plain_key(bad), "{bad:?}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "needs escaping")]
    fn a_literal_key_that_needs_escaping_is_caught() {
        JsonObject::new().num("a\"b", 1);
    }

    #[test]
    fn integers_match_their_display_form() {
        for v in [
            0,
            1,
            9,
            10,
            99,
            100,
            101,
            1_000,
            12_345,
            1_000_000,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut out = String::from("x");
            push_u64(&mut out, v);
            assert_eq!(out, format!("x{v}"));
        }
    }

    #[test]
    fn nested_writers_share_one_buffer() {
        let mut out = String::from("[");
        let mut o = JsonObject::within(&mut out);
        o.num("a", 1);
        let mut list = o.array("list");
        list.num(2);
        list.str("t\"x");
        let mut inner = list.object();
        inner.bool("ok", true);
        inner.finish();
        list.raw("null");
        list.finish();
        let mut empty = o.object("empty");
        empty.raw("n", "[]");
        empty.finish();
        let mut none = o.array("none");
        none.value().push_str("{}");
        none.finish();
        o.finish();
        assert_eq!(
            out,
            "[{\"a\":1,\"list\":[2,\"t\\\"x\",{\"ok\":true},null],\"empty\":{\"n\":[]},\"none\":[{}]}"
        );
        assert_eq!(validate_jsonl(&out[1..]), Ok(1));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        let mut o = JsonObject::new();
        o.str("k", "a\"b\u{1}");
        assert_eq!(validate_jsonl(&o.finish()), Ok(1));
    }

    #[test]
    fn validate_accepts_multiline_streams() {
        let text = "{\"a\":1}\n{\"b\":[1,2,{\"c\":null}],\"d\":-1.5e3}\n\n{\"e\":\"x\"}";
        assert_eq!(validate_jsonl(text), Ok(3));
    }

    #[test]
    fn escape_neutralizes_pathological_gate_names() {
        // A gate name with C0 + DEL + C1 controls and JS line separators:
        // every one must come out as a \uXXXX escape, leaving one printable
        // single-line JSON object.
        let evil = "g\u{7}\u{7f}\u{85}\u{9b}\u{2028}\u{2029}nand";
        let escaped = escape(evil);
        assert_eq!(escaped, "g\\u0007\\u007f\\u0085\\u009b\\u2028\\u2029nand");
        let mut o = JsonObject::new();
        o.str("gate", evil);
        let line = o.finish();
        assert_eq!(line.lines().count(), 1);
        assert!(line.chars().all(|c| !c.is_control() || c == ' '));
        assert_eq!(validate_jsonl(&line), Ok(1));
        // Round-trips through the reader.
        let v = parse(&line).unwrap();
        assert_eq!(v.get("gate").and_then(JsonValue::as_str), Some(evil));
    }

    #[test]
    fn parse_builds_values() {
        let v = parse("{\"a\":1,\"b\":[true,null,-2.5e1],\"c\":{\"d\":\"x\\ny\"}}").unwrap();
        assert_eq!(v.get("a").and_then(JsonValue::as_f64), Some(1.0));
        let b = v.get("b").and_then(JsonValue::as_array).unwrap();
        assert_eq!(b[0], JsonValue::Bool(true));
        assert_eq!(b[1], JsonValue::Null);
        assert_eq!(b[2], JsonValue::Num(-25.0));
        let d = v.get("c").and_then(|c| c.get("d"));
        assert_eq!(d.and_then(JsonValue::as_str), Some("x\ny"));
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,2] junk").is_err());
    }

    #[test]
    fn parse_round_trips_builder_output() {
        let mut o = JsonObject::new();
        o.str("name", "s0 \"carry\"\\");
        o.num("pairs", 128);
        o.float("rate", 0.5);
        o.bool("ok", false);
        let v = parse(&o.finish()).unwrap();
        assert_eq!(
            v.get("name").and_then(JsonValue::as_str),
            Some("s0 \"carry\"\\")
        );
        assert_eq!(v.get("pairs").and_then(JsonValue::as_f64), Some(128.0));
        assert_eq!(v.get("rate").and_then(JsonValue::as_f64), Some(0.5));
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(false)));
    }

    #[test]
    fn to_json_line_round_trips() {
        let text = "{\"name\":\"s0 \\\"x\\\"\",\"n\":128,\"rate\":0.5,\"ok\":false,\
                    \"none\":null,\"list\":[1,\"two\",{\"k\":-3.25}],\"empty\":{}}";
        let v = parse(text).unwrap();
        let line = v.to_json_line();
        assert_eq!(parse(&line).unwrap(), v);
        // Whole numbers keep integer spelling across the round trip.
        assert!(line.contains("\"n\":128"), "{line}");
        assert_eq!(validate_jsonl(&line), Ok(1));
    }

    #[test]
    fn validate_rejects_garbage() {
        assert!(validate_jsonl("{\"a\":}").is_err());
        assert!(validate_jsonl("{\"a\":1} extra").is_err());
        assert!(validate_jsonl("{'a':1}").is_err());
        assert!(validate_jsonl("{\"a\":01x}").is_err());
        assert!(validate_jsonl("{\"a\":\"unterminated}").is_err());
        let err = validate_jsonl("{\"a\":1}\nnot json").unwrap_err();
        assert!(err.starts_with("line 2"), "{err}");
    }
}
