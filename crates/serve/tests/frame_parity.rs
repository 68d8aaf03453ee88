//! Property tests for the client's `Frame` against `json::parse`: a frame
//! line is accepted or rejected exactly as the full reader would, with the
//! same message, and every top-level member reads the same — `"frame"`,
//! which `Frame` takes while checking the line, included. Lines are built
//! to repeat `"frame"` (plainly and with escaped keys), to escape its tag,
//! to give it non-string values and to leave it out, then truncated and
//! corrupted.

#[path = "../../obs/tests/support/json_gen.rs"]
mod json_gen;

use json_gen::{arb_document, arb_string, arb_ws, floor_boundary, pick, NOISE};
use proptest::prelude::*;
use scal_obs::json::{self, JsonValue};
use scal_serve::Frame;

/// Member keys: `"frame"` spelled plainly (twice, so lines often repeat
/// it) and with escapes, near misses and other keys of the wire schema.
const KEYS: &[&str] = &[
    "\"frame\"",
    "\"fr\\u0061me\"",
    "\"\\u0066rame\"",
    "\"frame\"",
    "\"fram\"",
    "\"frames\"",
    "\"Frame\"",
    "\"id\"",
    "\"event\"",
    "\"coverage\"",
];

/// Frame tags, plain and escaped.
const TAGS: &[&str] = &[
    "\"event\"",
    "\"result\"",
    "\"accepted\"",
    "\"ev\\u0065nt\"",
    "\"res\\/ult\"",
    "\"err\\\"or\"",
    "\"\"",
];

fn arb_key() -> impl Strategy<Value = String> {
    prop_oneof![pick(KEYS).prop_map(str::to_owned), arb_string()]
}

fn arb_member_value() -> impl Strategy<Value = String> {
    prop_oneof![pick(TAGS).prop_map(str::to_owned), arb_document()]
}

/// One frame-like line: an object of up to six members.
fn arb_frame_line() -> impl Strategy<Value = String> {
    let member = (arb_ws(), arb_key(), arb_ws(), arb_member_value());
    (prop::collection::vec(member, 0..7), arb_ws()).prop_map(|(members, end)| {
        let members: Vec<String> = members
            .into_iter()
            .map(|(w, k, w2, v)| format!("{w}{k}{w2}:{w2}{v}"))
            .collect();
        format!("{{{}{end}}}", members.join(","))
    })
}

/// `Frame` and `json::parse` agree on `line`.
fn check(line: &str) -> Result<(), TestCaseError> {
    match (Frame::from_line(line.to_owned()), json::parse(line)) {
        (Ok(frame), Ok(tree)) => {
            // `"frame"` first, before anything builds the tree.
            prop_assert_eq!(frame.get("frame"), tree.get("frame"), "on {:?}", line);
            prop_assert_eq!(
                frame.kind(),
                tree.get("frame").and_then(JsonValue::as_str),
                "kind on {:?}",
                line
            );
            prop_assert_eq!(frame.line(), line);
            if let JsonValue::Object(members) = &tree {
                for (key, _) in members {
                    prop_assert_eq!(frame.get(key), tree.get(key), "{:?} on {:?}", key, line);
                }
            }
            prop_assert_eq!(frame.get("absent"), tree.get("absent"), "on {:?}", line);
            prop_assert_eq!(frame.value(), &tree, "on {:?}", line);
        }
        (Err(got), Err(want)) => prop_assert_eq!(got, want, "on {:?}", line),
        (got, want) => {
            return Err(TestCaseError::fail(format!(
                "on {line:?}: frame {got:?}, parse {want:?}"
            )))
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Frame-like lines and their truncated and corrupted variants.
    #[test]
    fn frame_matches_parse_on_frame_lines(
        line in arb_frame_line(),
        cut in any::<usize>(),
        at in any::<usize>(),
        noise in pick(NOISE),
    ) {
        check(&line)?;
        let cut_at = floor_boundary(&line, cut % (line.len() + 1));
        check(&line[..cut_at])?;
        let at = floor_boundary(&line, at % (line.len() + 1));
        check(&format!("{}{noise}{}", &line[..at], &line[at..]))?;
    }

    /// Documents of every shape: arrays, scalars and objects without a
    /// `"frame"` member are valid lines with no kind.
    #[test]
    fn frame_matches_parse_on_documents(doc in arb_document(), ws in arb_ws()) {
        check(&doc)?;
        check(&format!("{ws}{doc}{ws}"))?;
    }
}

fn kind_of(line: &str) -> Option<JsonValue> {
    let frame = Frame::from_line(line.to_owned()).expect("valid line");
    check(line).expect("parity");
    frame.get("frame").cloned()
}

#[test]
fn the_last_frame_member_wins() {
    let str = |s: &str| Some(JsonValue::Str(s.to_owned()));
    assert_eq!(
        kind_of(r#"{"frame":"accepted","id":1,"frame":"result"}"#),
        str("result")
    );
    assert_eq!(
        kind_of(r#"{"frame":"event","event":{"frame":"inner"}}"#),
        str("event"),
        "a nested member is not the frame's"
    );
    assert_eq!(
        kind_of(r#"{"fr\u0061me":"event","frame":"result","\u0066rame":"error"}"#),
        str("error"),
        "an escaped key names the same member"
    );
}

#[test]
fn an_escaped_tag_decodes() {
    let frame = Frame::from_line(r#"{"frame":"ev\u0065nt","id":3}"#.to_owned()).unwrap();
    assert_eq!(frame.kind(), Some("event"));
    assert_eq!(frame.get("id"), Some(&JsonValue::Num(3.0)));
}

#[test]
fn a_frame_member_that_is_not_a_string_has_no_kind() {
    for line in [
        r#"{"frame":7}"#,
        r#"{"frame":null}"#,
        r#"{"frame":["event"]}"#,
        r#"{"frame":{"frame":"event"}}"#,
        r#"{"frame":"event","frame":false}"#,
    ] {
        let frame = Frame::from_line(line.to_owned()).unwrap();
        assert_eq!(frame.kind(), None, "{line}");
        assert!(frame.get("frame").is_some(), "{line}");
        check(line).expect("parity");
    }
}

#[test]
fn a_line_without_a_frame_member_has_no_kind() {
    for line in [
        r#"{}"#,
        r#"{"id":1,"frames":"event"}"#,
        "[1,2]",
        "\"frame\"",
        "7",
    ] {
        let frame = Frame::from_line(line.to_owned()).unwrap();
        assert_eq!(frame.kind(), None, "{line}");
        assert_eq!(frame.get("frame"), None, "{line}");
        check(line).expect("parity");
    }
}

#[test]
fn a_bad_line_fails_with_the_readers_message() {
    for line in [
        r#"{"frame":"event""#,
        r#"{"frame":"ev\qent"}"#,
        r#"{"frame":"event"} x"#,
        r#"{"frame" "event"}"#,
        "",
    ] {
        assert_eq!(
            Frame::from_line(line.to_owned()).err(),
            json::parse(line).err(),
            "{line}"
        );
    }
}
