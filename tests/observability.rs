//! Observability-layer integration: the event stream is deterministic and
//! golden-file-stable, every campaign kind keeps one event contract,
//! cancellation yields a fault-ordered prefix that is bit-identical to the
//! uncancelled run, and the `Campaign` builder's backends and lane
//! geometries all agree.

use scal::core::paper;
use scal::engine::EngineError;
use scal::faults::{enumerate_faults, Campaign};
use scal::obs::json::validate_jsonl;
use scal::obs::{CampaignEvent, CampaignObserver, CancelToken, CollectObserver, JsonlTrace};

/// Zeroes the value of a `"micros":<n>` field so wall-clock noise does not
/// break golden comparisons.
fn zero_micros(line: &str) -> String {
    const KEY: &str = "\"micros\":";
    match line.find(KEY) {
        None => line.to_owned(),
        Some(i) => {
            let start = i + KEY.len();
            let end = line[start..]
                .find(|c: char| !c.is_ascii_digit())
                .map_or(line.len(), |j| start + j);
            format!("{}0{}", &line[..start], &line[end..])
        }
    }
}

fn normalized_fig3_4_trace() -> String {
    let fig = paper::fig3_4();
    let trace = JsonlTrace::new(Vec::new());
    // Width 1 pins the lane_geometry payload; the auto width is
    // CPU-feature-dependent and would vary the golden machine-to-machine.
    // Packing and collapsing are pinned off for the same reason: the golden
    // pins the pattern-major per-fault cone trace, and collapsed traces are
    // differentially asserted identical in tests/collapse.rs.
    let report = Campaign::new(&fig.circuit)
        .threads(1)
        .word_width(1)
        .fault_packing(false)
        .fault_collapse(false)
        .observer(&trace)
        .run()
        .expect("fig 3.4 network is alternating");
    assert!(!report.cancelled);
    let text = String::from_utf8(trace.into_inner()).expect("utf8 trace");
    let mut out = String::new();
    for line in text.lines() {
        out.push_str(&zero_micros(line));
        out.push('\n');
    }
    out
}

/// Single-threaded campaigns produce a bit-stable event stream: same
/// events, same order, same payloads on every run and every machine. The
/// golden file pins the whole fig 3.4 trace (wall-times zeroed).
///
/// Regenerate after intentional schema changes with
/// `UPDATE_GOLDEN=1 cargo test --test observability`.
#[test]
fn fig3_4_trace_matches_golden_file() {
    let got = normalized_fig3_4_trace();
    assert!(validate_jsonl(&got).expect("well-formed JSONL") > 0);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/fig3_4_trace.jsonl"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("write golden file");
        return;
    }
    let want = include_str!("golden/fig3_4_trace.jsonl");
    assert_eq!(
        got, want,
        "event stream drifted from tests/golden/fig3_4_trace.jsonl; \
         if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// The trace is identical run-to-run (determinism does not depend on the
/// golden file being up to date).
#[test]
fn fig3_4_trace_is_deterministic_run_to_run() {
    assert_eq!(normalized_fig3_4_trace(), normalized_fig3_4_trace());
}

struct CancelAfter<'a> {
    token: &'a CancelToken,
    after: usize,
}

impl CampaignObserver for CancelAfter<'_> {
    fn on_event(&self, event: &CampaignEvent) {
        if let CampaignEvent::Progress { done, .. } = event {
            if *done >= self.after {
                self.token.cancel();
            }
        }
    }
}

/// Cancelling mid-run returns a deterministic, fault-ordered prefix whose
/// reports are bit-identical to the same prefix of an uncancelled run.
#[test]
fn cancelled_campaign_returns_bit_identical_prefix() {
    let c = paper::ripple_adder(4);
    let faults = enumerate_faults(&c);
    let full = Campaign::new(&c)
        .faults(faults.clone())
        .run()
        .expect("full campaign");
    assert!(!full.cancelled);

    let cancel = CancelToken::new();
    let observer = CancelAfter {
        token: &cancel,
        after: 5,
    };
    let partial = Campaign::new(&c)
        .faults(faults)
        .observer(&observer)
        .cancel(&cancel)
        .run()
        .expect("cancelled campaign");
    assert!(partial.cancelled, "token must cancel the run");
    let k = partial.results.len();
    assert!(
        k < full.results.len(),
        "cancellation must stop before the end ({k} of {})",
        full.results.len()
    );
    assert_eq!(
        partial.results[..],
        full.results[..k],
        "partial results must be the exact prefix of the full run"
    );
}

/// Every path through the builder — the packed engine's pattern-major
/// (cone-restricted) and fault-packed (full-schedule) geometries — produces
/// results bit-identical to the scalar oracle.
#[test]
fn builder_backends_agree() {
    let c = paper::fig3_7().circuit;
    let faults = enumerate_faults(&c);
    let scalar = Campaign::new(&c)
        .faults(faults)
        .scalar()
        .run()
        .expect("scalar builder campaign");
    for packing in [false, true] {
        let engine = Campaign::new(&c)
            .fault_packing(packing)
            .run()
            .expect("engine campaign");
        assert_eq!(
            engine.results, scalar.results,
            "packing {packing} vs scalar oracle"
        );
    }
}

/// Runs one campaign of kind `kind` with `observer` and `cancel` attached.
fn run_kind(
    kind: &str,
    observer: &dyn CampaignObserver,
    cancel: &CancelToken,
) -> Result<(), EngineError> {
    use scal::seq::{code_conversion_machine, kohavi::kohavi_0101, SeqBackend};
    use scal::system::{campaign::Campaign as CpuCampaign, CpuUnit};
    let pair = paper::fig3_4().circuit;
    let machine = code_conversion_machine(&kohavi_0101());
    let words: Vec<Vec<bool>> = [0, 1, 0, 1, 1, 0].iter().map(|&b| vec![b == 1]).collect();
    let seq = |backend| {
        scal::seq::Campaign::new(&machine, &words)
            .backend(backend)
            .observer(observer)
            .cancel(cancel)
            .run()
            .map(drop)
    };
    match kind {
        "pair" => Campaign::new(&pair)
            .observer(observer)
            .cancel(cancel)
            .run()
            .map(drop),
        "pair_scalar" => Campaign::new(&pair)
            .scalar()
            .observer(observer)
            .cancel(cancel)
            .run()
            .map(drop),
        "seq" => seq(SeqBackend::Packed),
        "seq_scalar" => seq(SeqBackend::Graph),
        "cpu_logic" => CpuCampaign::new(CpuUnit::Logic)
            .observer(observer)
            .cancel(cancel)
            .run()
            .map(drop),
        other => panic!("unknown campaign kind {other}"),
    }
}

/// Every campaign kind — the engine and scalar pair campaigns, the packed
/// and graph sequential campaigns and the CPU datapath campaign — runs
/// under one driver and keeps one event contract: the compile, golden,
/// fault_sim and merge phases each open and close once, in that order;
/// `fault_finish` indices run `0..n` and `campaign_end` counts `n`; and a
/// run cancelled before it starts ends with `cancelled { completed: 0 }`
/// and then `campaign_end`.
#[test]
fn every_campaign_kind_keeps_one_event_contract() {
    for kind in ["pair", "pair_scalar", "seq", "seq_scalar", "cpu_logic"] {
        let collect = CollectObserver::default();
        run_kind(kind, &collect, &CancelToken::new()).expect(kind);
        let events = collect.events();
        let phases: Vec<String> = events
            .iter()
            .filter_map(|e| match e {
                CampaignEvent::PhaseStart { phase } => Some(format!("+{}", phase.name())),
                CampaignEvent::PhaseEnd { phase, .. } => Some(format!("-{}", phase.name())),
                _ => None,
            })
            .collect();
        assert_eq!(
            phases,
            [
                "+compile",
                "-compile",
                "+golden",
                "-golden",
                "+fault_sim",
                "-fault_sim",
                "+merge",
                "-merge"
            ],
            "{kind}"
        );
        let finished: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                CampaignEvent::FaultFinish { fault, .. } => Some(*fault),
                _ => None,
            })
            .collect();
        assert!(!finished.is_empty(), "{kind}: no fault finished");
        assert_eq!(finished, (0..finished.len()).collect::<Vec<_>>(), "{kind}");
        assert!(
            matches!(
                events.last(),
                Some(CampaignEvent::CampaignEnd { faults, cancelled: false, .. })
                    if *faults == finished.len()
            ),
            "{kind}: {:?}",
            events.last()
        );

        let cancel = CancelToken::new();
        cancel.cancel();
        let collect = CollectObserver::default();
        run_kind(kind, &collect, &cancel).expect(kind);
        let events = collect.events();
        assert!(
            matches!(
                events.as_slice(),
                [
                    CampaignEvent::CampaignStart { .. },
                    ..,
                    CampaignEvent::Cancelled { completed: 0 },
                    CampaignEvent::CampaignEnd {
                        faults: 0,
                        cancelled: true,
                        ..
                    }
                ]
            ),
            "{kind}: {:?}",
            &events[events.len().saturating_sub(2)..]
        );
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, CampaignEvent::FaultFinish { .. })),
            "{kind}: a pre-cancelled run finished a fault"
        );
    }
}
