//! Property tests for in-place JSON emission: the escape routine against
//! the char-by-char reference it replaced (the former `json::escape`), and coverage maps and campaign
//! events with hostile labels and campaign names, which must stay single
//! valid JSONL lines that parse back to every field.

use proptest::prelude::*;
use scal_obs::json::{self, escape_into, validate_jsonl, JsonValue};
use scal_obs::{CampaignEvent, CoverageMap, FaultRecord};
use std::fmt::Write;

/// The original allocating `escape`, kept as the byte-for-byte reference.
fn reference_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20
                || (0x7f..=0x9f).contains(&(c as u32))
                || c == '\u{2028}'
                || c == '\u{2029}' =>
            {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Characters at and around every escape boundary: quote and backslash,
/// C0 controls, DEL, the C1 range and its neighbours, the JavaScript line
/// separators and their neighbours (same lead bytes), and multi-byte text.
const EDGES: &[char] = &[
    '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}', ' ', '~', '\u{7f}',
    '\u{80}', '\u{85}', '\u{9f}', '\u{a0}', '\u{bf}', 'é', '\u{7ff}', '\u{2000}', '\u{2027}',
    '\u{2028}', '\u{2029}', '\u{202a}', '\u{203f}', '中', '\u{fffd}', '😀',
];

fn arb_char() -> impl Strategy<Value = char> {
    prop_oneof![
        (0..EDGES.len()).prop_map(|i| EDGES[i]),
        (0u32..0x80).prop_map(|b| char::from_u32(b).unwrap_or('?')),
        any::<u32>().prop_map(|x| char::from_u32(x % 0x11_0000).unwrap_or('\u{fffd}')),
    ]
}

fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec(arb_char(), 0..24).prop_map(|cs| cs.into_iter().collect())
}

/// Numbers that survive the reader's `f64` exactly.
fn arb_count() -> impl Strategy<Value = u64> {
    any::<u64>().prop_map(|n| n & ((1 << 53) - 1))
}

fn arb_opt(max: u64) -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), any::<u64>().prop_map(move |n| Some(n % max))]
}

fn arb_record() -> impl Strategy<Value = FaultRecord> {
    let counts = prop::collection::vec(arb_count(), 4);
    let opts = prop::collection::vec(arb_opt(1 << 32), 7);
    let flags = prop::collection::vec(any::<bool>(), 2);
    (arb_text(), counts, opts, flags).prop_map(|(label, n, o, f)| FaultRecord {
        fault: n[0] as usize,
        label,
        detected: n[1] as usize,
        first_detected: o[0].map(|v| v as u32),
        violations: n[2] as usize,
        observable: f[0],
        dropped: f[1],
        dropped_at: o[1].map(|v| v as usize),
        pairs: n[3],
        cone_ops: o[2],
        ops_skipped: o[3],
        frontier_died_at_level: o[4].map(|v| v as u32),
        class_rep: o[5].map(|v| v as usize),
        class_size: o[6].map(|v| v as usize),
    })
}

/// One valid JSONL line with no raw line terminator of any kind.
fn assert_one_line(text: &str) -> Result<JsonValue, TestCaseError> {
    prop_assert_eq!(validate_jsonl(text), Ok(1));
    prop_assert!(
        !text.contains(['\n', '\r', '\u{85}', '\u{2028}', '\u{2029}']),
        "raw line terminator in {:?}",
        text
    );
    json::parse(text).map_err(TestCaseError::fail)
}

fn num(v: &JsonValue, k: &str) -> Option<u64> {
    v.get(k).and_then(JsonValue::as_f64).map(|n| n as u64)
}

fn text(v: &JsonValue, k: &str) -> Option<String> {
    v.get(k).and_then(JsonValue::as_str).map(str::to_owned)
}

fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `escape_into` appends exactly what the reference produces, after
    /// whatever the buffer already held.
    #[test]
    fn escape_into_matches_the_reference_byte_for_byte(prefix in arb_text(), s in arb_text()) {
        let mut out = prefix.clone();
        escape_into(&mut out, &s);
        prop_assert_eq!(out, format!("{prefix}{}", reference_escape(&s)));
    }

    /// A coverage map is one valid line whatever its labels and campaign
    /// name, and the reader gets every field back.
    #[test]
    fn coverage_maps_round_trip_every_field(
        campaign in arb_text(),
        records in prop::collection::vec(arb_record(), 0..6),
        total in arb_count(),
        cancelled in any::<bool>(),
    ) {
        let map = CoverageMap {
            campaign,
            records,
            total_faults: total as usize,
            cancelled,
        };
        let mut appended = String::from("prefix");
        map.write_json(&mut appended);
        let line = map.to_json();
        prop_assert_eq!(&appended, &format!("prefix{line}"));
        let v = assert_one_line(&line)?;
        prop_assert_eq!(text(&v, "campaign"), Some(map.campaign.clone()));
        prop_assert_eq!(num(&v, "faults"), Some(map.records.len() as u64));
        prop_assert_eq!(num(&v, "total_faults"), Some(total));
        prop_assert_eq!(num(&v, "detected"), Some(map.detected_count() as u64));
        prop_assert_eq!(
            v.get("coverage").and_then(JsonValue::as_f64),
            Some(map.coverage_fraction())
        );
        prop_assert_eq!(v.get("cancelled"), Some(&JsonValue::Bool(cancelled)));
        let got = v.get("records").and_then(JsonValue::as_array).expect("records");
        prop_assert_eq!(got.len(), map.records.len());
        for (g, r) in got.iter().zip(&map.records) {
            prop_assert_eq!(num(g, "fault"), Some(r.fault as u64));
            let label = (!r.label.is_empty()).then(|| r.label.clone());
            prop_assert_eq!(text(g, "label"), label);
            prop_assert_eq!(g.get("detected"), Some(&JsonValue::Bool(r.is_detected())));
            prop_assert_eq!(num(g, "detections"), Some(r.detected as u64));
            prop_assert_eq!(num(g, "first_pair"), r.first_detected.map(u64::from));
            prop_assert_eq!(num(g, "ttd_pairs"), r.time_to_detection());
            prop_assert_eq!(num(g, "violations"), Some(r.violations as u64));
            prop_assert_eq!(g.get("observable"), Some(&JsonValue::Bool(r.observable)));
            prop_assert_eq!(g.get("dropped"), Some(&JsonValue::Bool(r.dropped)));
            prop_assert_eq!(num(g, "dropped_at"), r.dropped_at.map(|b| b as u64));
            prop_assert_eq!(num(g, "pairs"), Some(r.pairs));
            prop_assert_eq!(num(g, "cone_ops"), r.cone_ops);
            prop_assert_eq!(num(g, "ops_skipped"), r.ops_skipped);
            prop_assert_eq!(
                num(g, "frontier_died_at_level"),
                r.frontier_died_at_level.map(u64::from)
            );
            prop_assert_eq!(num(g, "class_rep"), r.class_rep.map(|c| c as u64));
            prop_assert_eq!(num(g, "class_size"), r.class_size.map(|c| c as u64));
        }
    }

    /// Every event that carries text stays one valid line and parses back
    /// to every field.
    #[test]
    fn campaign_events_round_trip_every_field(
        a in arb_text(),
        b in arb_text(),
        n in prop::collection::vec(arb_count(), 5),
    ) {
        let (a, b) = (leak(a), leak(b));
        let start = CampaignEvent::CampaignStart {
            campaign: a,
            faults: n[0] as usize,
            inputs: n[1] as usize,
            outputs: n[2] as usize,
            threads: n[3] as usize,
        };
        let v = assert_one_line(&start.to_json())?;
        prop_assert_eq!(text(&v, "ev"), Some("campaign_start".to_owned()));
        prop_assert_eq!(text(&v, "campaign"), Some(a.to_owned()));
        for (k, want) in ["faults", "inputs", "outputs", "threads"].iter().zip(&n) {
            prop_assert_eq!(num(&v, k), Some(*want));
        }

        let span = CampaignEvent::Span {
            name: a,
            parent: b,
            micros: n[0],
            count: n[1],
            items: n[2],
        };
        let v = assert_one_line(&span.to_json())?;
        prop_assert_eq!(text(&v, "name"), Some(a.to_owned()));
        prop_assert_eq!(text(&v, "parent"), Some(b.to_owned()));
        prop_assert_eq!(num(&v, "micros"), Some(n[0]));
        prop_assert_eq!(num(&v, "count"), Some(n[1]));
        prop_assert_eq!(num(&v, "items"), Some(n[2]));

        let v = assert_one_line(&CampaignEvent::EvalMode { mode: b }.to_json())?;
        prop_assert_eq!(text(&v, "mode"), Some(b.to_owned()));

        let geometry = CampaignEvent::LaneGeometry {
            width: n[0] as usize,
            fault_lanes: n[1] as usize,
            pattern_lanes: n[2] as usize,
            packing: a,
        };
        let mut appended = String::from("[");
        geometry.write_json(&mut appended);
        prop_assert_eq!(&appended, &format!("[{}", geometry.to_json()));
        let v = assert_one_line(&geometry.to_json())?;
        prop_assert_eq!(num(&v, "width"), Some(n[0]));
        prop_assert_eq!(num(&v, "fault_lanes"), Some(n[1]));
        prop_assert_eq!(num(&v, "pattern_lanes"), Some(n[2]));
        prop_assert_eq!(text(&v, "packing"), Some(a.to_owned()));
    }
}
