//! Property tests for the JSON reader: `json::parse` against the reader it
//! replaced, kept here as the reference, on valid documents and on their
//! truncated and corrupted variants — the same value for every document it
//! accepts, and the same message for every one it rejects. The syntax check
//! (`json::validate_member`) must accept and reject the same documents with
//! the same messages.

#[path = "support/json_gen.rs"]
mod json_gen;

use json_gen::{arb_document, arb_number, arb_string, arb_ws, floor_boundary, pick, NOISE};
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

fn check(text: &str) -> Result<(), TestCaseError> {
    let want = reference::parse(text);
    let got = json::parse(text);
    prop_assert_eq!(&got, &want, "on {:?}", text);
    // The syntax check accepts and rejects exactly what the reader does.
    let checked = json::validate_member(text, "a").map(|_| ());
    prop_assert_eq!(checked, want.map(|_| ()), "check on {:?}", text);
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
