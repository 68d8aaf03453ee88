//! Property tests for the JSON reader: `json::parse` against the reader it
//! replaced, kept here as the reference, on valid documents and on their
//! truncated and corrupted variants — the same value for every document it
//! accepts, and the same message for every one it rejects.

use proptest::prelude::*;
use scal_obs::json::{self, JsonValue};

/// The reader before its string and integer fast paths, kept verbatim as
/// the reference.
mod reference {
    use scal_obs::json::JsonValue;

    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.build_value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
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

        fn string(&mut self) -> Result<(), String> {
            self.expect(b'"')?;
            loop {
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
                                        return Err(format!(
                                            "bad \\u escape at byte {}",
                                            self.pos - 1
                                        ));
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
            let mut members = Vec::new();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(JsonValue::Object(members));
            }
            loop {
                self.skip_ws();
                let key = self.build_string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let val = self.build_value()?;
                members.push((key, val));
                self.skip_ws();
                match self.bump()? {
                    b',' => {}
                    b'}' => return Ok(JsonValue::Object(members)),
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
            let mut items = Vec::new();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(JsonValue::Array(items));
            }
            loop {
                self.skip_ws();
                items.push(self.build_value()?);
                self.skip_ws();
                match self.bump()? {
                    b',' => {}
                    b']' => return Ok(JsonValue::Array(items)),
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
            self.string()?;
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
            let mut digits = 0;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
                digits += 1;
            }
            if digits == 0 {
                return Err(format!("expected digits at byte {}", self.pos));
            }
            if self.peek() == Some(b'.') {
                self.pos += 1;
                let mut frac = 0;
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                    frac += 1;
                }
                if frac == 0 {
                    return Err(format!("expected fraction digits at byte {}", self.pos));
                }
            }
            if matches!(self.peek(), Some(b'e' | b'E')) {
                self.pos += 1;
                if matches!(self.peek(), Some(b'+' | b'-')) {
                    self.pos += 1;
                }
                let mut exp = 0;
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                    exp += 1;
                }
                if exp == 0 {
                    return Err(format!("expected exponent digits at byte {}", self.pos));
                }
            }
            Ok(())
        }
    }
}

/// Pieces of string bodies: plain text of every UTF-8 width, every escape
/// (valid, malformed and truncated), raw control bytes and quotes.
const STRING_PIECES: &[&str] = &[
    "a", "s-a-0", "carry1", " ", "é", "中", "😀", "\u{7f}", "\u{85}", "\u{2028}", "\\\"", "\\\\",
    "\\/", "\\b", "\\f", "\\n", "\\r", "\\t", "\\u00e9", "\\u0041", "\\uD83D", "\\uzzzz", "\\u12",
    "\\x", "\\", "\u{1}", "\t", "\n", "\"",
];

/// Tokens spliced into documents to corrupt them.
const NOISE: &[&str] = &[
    "{", "}", "[", "]", ",", ":", "\"", "\\", "-", ".", "e", "+", "0", "7", "tru", "nul", " ",
    "\n", "\u{1}", "é", "x",
];

fn pick(items: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
    (0..items.len()).prop_map(move |i| items[i])
}

fn arb_string() -> impl Strategy<Value = String> {
    // Mostly escape-free bodies, the fast path, with pieces of every kind.
    let plain = prop::collection::vec(pick(&STRING_PIECES[..10]), 0..6);
    let any = prop::collection::vec(pick(STRING_PIECES), 0..6);
    prop_oneof![plain, any].prop_map(|pieces| format!("\"{}\"", pieces.concat()))
}

fn arb_digits(max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..10, 1..=max)
        .prop_map(|ds| ds.into_iter().map(|d| char::from(b'0' + d)).collect())
}

fn arb_number() -> impl Strategy<Value = String> {
    // Integers on both sides of the 15-digit fast-path limit, with and
    // without sign, fraction and exponent; leading zeros included.
    (
        (
            any::<bool>(),
            prop_oneof![arb_digits(3), arb_digits(15), arb_digits(22)],
        ),
        (0u8..4, arb_digits(4)),
        (0u8..6, arb_digits(3)),
    )
        .prop_map(|((negative, int), (frac_kind, frac), (exp_kind, exp))| {
            let mut n = String::new();
            if negative {
                n.push('-');
            }
            n.push_str(&int);
            if frac_kind == 0 {
                n.push('.');
                n.push_str(&frac);
            }
            match exp_kind {
                0 => n.push_str(&format!("e{exp}")),
                1 => n.push_str(&format!("E-{exp}")),
                2 => n.push_str(&format!("e+{exp}")),
                _ => {}
            }
            n
        })
}

fn arb_ws() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just(""), Just(""), Just(" "), Just("\n\t ")]
}

fn arb_document() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        arb_string(),
        arb_number(),
        Just("true".to_owned()),
        Just("false".to_owned()),
        Just("null".to_owned()),
    ];
    leaf.prop_recursive(3, 32, 4, |inner| {
        let items = prop::collection::vec((arb_ws(), inner.clone()), 0..4);
        let members = prop::collection::vec((arb_string(), arb_ws(), inner), 0..4);
        prop_oneof![
            items.prop_map(|items| {
                let items: Vec<String> =
                    items.into_iter().map(|(w, v)| format!("{w}{v}")).collect();
                format!("[{}]", items.join(","))
            }),
            members.prop_map(|members| {
                let members: Vec<String> = members
                    .into_iter()
                    .map(|(k, w, v)| format!("{k}{w}:{v}"))
                    .collect();
                format!("{{{}}}", members.join(","))
            }),
        ]
    })
}

/// The largest char boundary of `s` at or below `at`.
fn floor_boundary(s: &str, at: usize) -> usize {
    (0..=at.min(s.len()))
        .rev()
        .find(|&i| s.is_char_boundary(i))
        .unwrap_or(0)
}

fn check(text: &str) -> Result<(), TestCaseError> {
    let got = json::parse(text);
    prop_assert_eq!(&got, &reference::parse(text), "on {:?}", text);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Valid documents read to the same value.
    #[test]
    fn parse_matches_the_reference_on_documents(doc in arb_document(), ws in arb_ws()) {
        check(&doc)?;
        check(&format!("{ws}{doc}{ws}"))?;
    }

    /// Truncated and corrupted documents read to the same value or fail
    /// with the same message.
    #[test]
    fn parse_matches_the_reference_on_damaged_documents(
        doc in arb_document(),
        cut in any::<usize>(),
        at in any::<usize>(),
        noise in pick(NOISE),
    ) {
        let cut_at = floor_boundary(&doc, cut % (doc.len() + 1));
        check(&doc[..cut_at])?;
        let at = floor_boundary(&doc, at % (doc.len() + 1));
        check(&format!("{}{noise}{}", &doc[..at], &doc[at..]))?;
    }

    /// Lone numbers and strings, where each fast path starts and stops.
    #[test]
    fn parse_matches_the_reference_on_scalars(n in arb_number(), s in arb_string()) {
        check(&n)?;
        check(&s)?;
        check(&format!("[{n},{s}]"))?;
    }
}

#[test]
fn integers_keep_their_sign_and_exact_value() {
    for (text, want) in [
        ("0", 0.0),
        ("-0", -0.0),
        ("007", 7.0),
        ("999999999999999", 999_999_999_999_999.0),
        ("-999999999999999", -999_999_999_999_999.0),
        ("1234567890123456789", 1_234_567_890_123_456_789.0),
    ] {
        let got = json::parse(text).unwrap();
        assert_eq!(got, JsonValue::Num(want), "{text}");
        let JsonValue::Num(n) = got else {
            unreachable!()
        };
        assert_eq!(n.to_bits(), want.to_bits(), "{text}: sign or rounding");
    }
}
