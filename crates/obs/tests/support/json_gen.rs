//! Generators of JSON text for the reader's property tests: valid
//! documents of every shape, and the pieces that truncate or corrupt them.
//! Shared by `scal-obs`'s `json_parse` test and `scal-serve`'s
//! `frame_parity` test, which include this file with `#[path]`; each uses
//! a subset of it.

#![allow(dead_code)]

use proptest::prelude::*;

/// Pieces of string bodies: plain text of every UTF-8 width, every escape
/// (valid, malformed and truncated), raw control bytes and quotes.
const STRING_PIECES: &[&str] = &[
    "a", "s-a-0", "carry1", " ", "é", "中", "😀", "\u{7f}", "\u{85}", "\u{2028}", "\\\"", "\\\\",
    "\\/", "\\b", "\\f", "\\n", "\\r", "\\t", "\\u00e9", "\\u0041", "\\uD83D", "\\uzzzz", "\\u12",
    "\\x", "\\", "\u{1}", "\t", "\n", "\"",
];

/// Tokens spliced into documents to corrupt them.
pub const NOISE: &[&str] = &[
    "{", "}", "[", "]", ",", ":", "\"", "\\", "-", ".", "e", "+", "0", "7", "tru", "nul", " ",
    "\n", "\u{1}", "é", "x",
];

pub fn pick(items: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
    (0..items.len()).prop_map(move |i| items[i])
}

pub fn arb_string() -> impl Strategy<Value = String> {
    // Mostly escape-free bodies, the fast path, with pieces of every kind.
    let plain = prop::collection::vec(pick(&STRING_PIECES[..10]), 0..6);
    let any = prop::collection::vec(pick(STRING_PIECES), 0..6);
    prop_oneof![plain, any].prop_map(|pieces| format!("\"{}\"", pieces.concat()))
}

fn arb_digits(max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..10, 1..=max)
        .prop_map(|ds| ds.into_iter().map(|d| char::from(b'0' + d)).collect())
}

pub fn arb_number() -> impl Strategy<Value = String> {
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

pub fn arb_ws() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just(""), Just(""), Just(" "), Just("\n\t ")]
}

pub fn arb_document() -> impl Strategy<Value = String> {
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
pub fn floor_boundary(s: &str, at: usize) -> usize {
    (0..=at.min(s.len()))
        .rev()
        .find(|&i| s.is_char_boundary(i))
        .unwrap_or(0)
}
