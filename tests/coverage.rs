//! Coverage-map integration: the fig 3.4 per-fault map is golden-file
//! stable (every fault classified detected/undetected with its first
//! detecting pair), maps are bit-identical across backends and thread
//! counts, and a cancelled campaign yields the exact prefix map with
//! `dropped_at` populated under fault dropping.

use scal::core::paper;
use scal::faults::{enumerate_faults, Campaign};
use scal::obs::json::validate_jsonl;
use scal::obs::{CampaignEvent, CampaignObserver, CancelToken, CoverageMap, CoverageObserver};

fn fig3_4_map(scalar: bool, threads: usize) -> CoverageMap {
    let fig = paper::fig3_4();
    let cov = CoverageObserver::new();
    // Pin the unpacked, uncollapsed cone path: the golden file pins the
    // per-fault cone annotations, which auto-packing (full mode) and
    // collapsing (representatives only) would thin out. Collapsed runs are
    // differentially asserted identical in tests/collapse.rs.
    let mut campaign = Campaign::new(&fig.circuit)
        .threads(threads)
        .fault_packing(false)
        .fault_collapse(false)
        .coverage(&cov);
    if scalar {
        campaign = campaign.scalar();
    }
    campaign.run().expect("fig 3.4 network is alternating");
    cov.latest().expect("finished map")
}

/// The fig 3.4 coverage map is pinned as a golden file: per-fault verdicts,
/// first detecting pair indices, violation counts and labels.
///
/// Regenerate after intentional schema changes with
/// `UPDATE_GOLDEN=1 cargo test --test coverage`.
#[test]
fn fig3_4_coverage_map_matches_golden_file() {
    let map = fig3_4_map(false, 1);
    // Every fault is classified, and detected faults carry their first
    // detecting pair.
    assert_eq!(map.records.len(), map.total_faults);
    for r in &map.records {
        assert!(!r.label.is_empty(), "fault #{} has no label", r.fault);
        assert_eq!(r.is_detected(), r.first_detected.is_some());
    }
    // Fig. 3.4's undetected faults are exactly the paper's problem sites:
    // the fanned-out XOR stem ("line 20") and its feeders.
    let undetected: Vec<&str> = map.undetected().map(|r| r.label.as_str()).collect();
    assert_eq!(
        undetected,
        [
            "line13 s-a-0",
            "line14 s-a-0",
            "line20 s-a-0",
            "line20 s-a-1"
        ]
    );
    assert_matches_golden(
        &map,
        "fig3_4_coverage.json",
        include_str!("golden/fig3_4_coverage.json"),
    );
}

/// Compares `map`'s JSON line byte for byte with the golden file `file`
/// (whose text is `want`), or rewrites the file under `UPDATE_GOLDEN`.
fn assert_matches_golden(map: &CoverageMap, file: &str, want: &str) {
    let got = map.to_json() + "\n";
    assert_eq!(validate_jsonl(&got), Ok(1));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(path, &got).expect("write golden file");
        return;
    }
    assert_eq!(
        got, want,
        "coverage map drifted from tests/golden/{file}; \
         if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// The 4-bit ripple adder's map under default knobs is pinned byte for
/// byte: collapsing is on, so class members carry `class_rep`/`class_size`
/// (never their own index), and the cone path annotates representatives.
#[test]
fn adder4_default_coverage_map_matches_golden_file() {
    let cov = CoverageObserver::new();
    Campaign::new(&paper::ripple_adder(4))
        .coverage(&cov)
        .run()
        .expect("adder campaign");
    let map = cov.latest().expect("finished map");
    let members = map.records.iter().filter(|r| r.class_rep.is_some());
    assert_eq!(members.clone().count(), 124);
    assert!(members.clone().all(|r| r.cone_ops.is_none()));
    assert!(members.clone().all(|r| r.class_rep != Some(r.fault)));
    assert!(map.records.iter().any(|r| r.cone_ops.is_some()));
    assert_matches_golden(
        &map,
        "adder4_coverage.json",
        include_str!("golden/adder4_coverage.json"),
    );
}

/// The code-conversion Kohavi machine's map under the 16-word suite drive
/// is pinned byte for byte: word-indexed first detections, collapsed
/// classes on the packed sequential backend.
#[test]
fn kohavi_codeconv_coverage_map_matches_golden_file() {
    let m = scal::seq::kohavi::kohavi_0101();
    let machine = scal::seq::code_conversion_machine(&m);
    let map = seq_row(&machine, true, 0);
    assert_eq!(map.undetected().count(), 28);
    assert_matches_golden(
        &map,
        "kohavi_codeconv_coverage.json",
        include_str!("golden/kohavi_codeconv_coverage.json"),
    );
}

/// A campaign that returns `Err` pushes no map, whichever kind it is and
/// however far it got; the next good campaign's map is the only one.
#[test]
fn an_errored_campaign_leaves_no_map() {
    use scal::engine::EngineError;
    use scal::system::campaign::Campaign as CpuCampaign;
    use scal::system::{CpuUnit, Workload};

    let cov = CoverageObserver::new();
    // A plain AND gate does not alternate: the golden run rejects it.
    let mut and = scal::netlist::Circuit::new();
    let (a, b) = (and.input("a"), and.input("b"));
    let g = and.and(&[a, b]);
    and.mark_output("f", g);
    for scalar in [false, true] {
        let mut campaign = Campaign::new(&and).coverage(&cov);
        if scalar {
            campaign = campaign.scalar();
        }
        assert!(matches!(
            campaign.run(),
            Err(EngineError::NotAlternating { .. })
        ));
    }
    // A workload that fails fault-free.
    let broken = Workload {
        name: "popcount, wrong answer",
        program: scal::system::programs::popcount(),
        setup: vec![(scal::system::programs::ARG0, 0xB7)],
        expect: 7,
    };
    assert!(matches!(
        CpuCampaign::new(CpuUnit::Logic)
            .workloads(vec![broken])
            .coverage(&cov)
            .run(),
        Err(EngineError::WorkloadFailed { .. })
    ));
    assert!(cov.maps().is_empty(), "an errored campaign pushed a map");
    let good = fig3_4_map(false, 1);
    Campaign::new(&paper::fig3_4().circuit)
        .threads(1)
        .fault_packing(false)
        .fault_collapse(false)
        .coverage(&cov)
        .run()
        .expect("fig 3.4 network is alternating");
    assert_eq!(cov.maps(), [good]);
}

/// Strips the engine-only cone annotations so records can be compared
/// against the scalar oracle, which has no cone path.
fn strip_cone(records: &[scal::obs::FaultRecord]) -> Vec<scal::obs::FaultRecord> {
    records
        .iter()
        .map(|r| scal::obs::FaultRecord {
            cone_ops: None,
            ops_skipped: None,
            frontier_died_at_level: None,
            ..r.clone()
        })
        .collect()
}

/// Coverage maps are bit-identical across the packed engine and the scalar
/// oracle, and across thread counts (fault events are replayed in fault
/// order at merge). Engine maps additionally carry per-fault cone
/// annotations, which the scalar comparison strips.
#[test]
fn coverage_maps_identical_across_backends_and_threads() {
    let engine1 = fig3_4_map(false, 1);
    let engine4 = fig3_4_map(false, 4);
    let scalar = fig3_4_map(true, 1);
    assert_eq!(engine1.records, engine4.records, "1 vs 4 threads");
    assert!(
        engine1.records.iter().all(|r| r.cone_ops.is_some()),
        "cone eval must annotate every engine record"
    );
    assert_eq!(
        strip_cone(&engine1.records),
        scalar.records,
        "engine vs scalar oracle"
    );
    // The adder exercises wider sweeps and multiple detecting pairs.
    let adder = paper::ripple_adder(4);
    let mut maps = Vec::new();
    for threads in [1, 4] {
        let cov = CoverageObserver::new();
        Campaign::new(&adder)
            .threads(threads)
            .fault_packing(false)
            .fault_collapse(false)
            .coverage(&cov)
            .run()
            .expect("adder campaign");
        maps.push(cov.latest().expect("map").records);
    }
    let cov = CoverageObserver::new();
    Campaign::new(&adder)
        .scalar()
        .coverage(&cov)
        .run()
        .expect("scalar adder campaign");
    maps.push(cov.latest().expect("map").records);
    assert_eq!(maps[0], maps[1], "adder 1 vs 4 threads");
    assert_eq!(strip_cone(&maps[0]), maps[2], "adder engine vs scalar");
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

/// Cancelling mid-campaign yields a valid prefix coverage map — records are
/// bit-identical to the same prefix of the uncancelled run, and fault
/// dropping populates `dropped_at` in both.
#[test]
fn cancelled_campaign_yields_prefix_coverage_map() {
    let c = paper::ripple_adder(4);
    let faults = enumerate_faults(&c);
    let full_cov = CoverageObserver::new();
    Campaign::new(&c)
        .faults(faults.clone())
        .drop_after_detection(true)
        .coverage(&full_cov)
        .run()
        .expect("full campaign");
    let full = full_cov.latest().expect("full map");
    assert!(!full.cancelled);
    // Fault dropping cut sweeps short, recording where each one stopped.
    assert!(
        full.records
            .iter()
            .any(|r| r.dropped && r.dropped_at.is_some()),
        "dropping must populate dropped_at"
    );

    let token = CancelToken::new();
    let observer = CancelAfter {
        token: &token,
        after: 5,
    };
    let partial_cov = CoverageObserver::new();
    Campaign::new(&c)
        .faults(faults)
        .drop_after_detection(true)
        .observer(&observer)
        .coverage(&partial_cov)
        .cancel(&token)
        .run()
        .expect("cancelled campaign");
    let partial = partial_cov.latest().expect("prefix map");
    assert!(partial.cancelled, "token must cancel the run");
    let k = partial.records.len();
    assert!(
        k < full.records.len(),
        "cancellation must stop before the end ({k} of {})",
        full.records.len()
    );
    assert_eq!(
        partial.records[..],
        full.records[..k],
        "prefix map must be bit-identical to the uncancelled prefix"
    );
    assert_eq!(partial.total_faults, full.total_faults);
}

/// One row of the standard suite: how its map is produced, and the counts
/// it must show under every collapse and thread setting.
struct SuiteRow {
    name: &'static str,
    faults: usize,
    detected: usize,
    undetected: usize,
    run: fn(collapse: bool, threads: usize) -> CoverageMap,
}

/// The fixed drive the sequential suite rows replay.
fn suite_words() -> Vec<Vec<bool>> {
    [0u32, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 0, 1]
        .iter()
        .map(|&s| vec![s == 1])
        .collect()
}

fn pair_row(
    circuit: &scal::netlist::Circuit,
    drop: bool,
    pack: bool,
    collapse: bool,
    threads: usize,
) -> CoverageMap {
    let cov = CoverageObserver::new();
    Campaign::new(circuit)
        .threads(threads)
        .drop_after_detection(drop)
        .fault_packing(pack)
        .fault_collapse(collapse)
        .coverage(&cov)
        .run()
        .expect("suite network is alternating");
    cov.latest().expect("finished map")
}

fn seq_row(machine: &scal::seq::ScalMachine, collapse: bool, threads: usize) -> CoverageMap {
    let cov = CoverageObserver::new();
    scal::seq::Campaign::new(machine, &suite_words())
        .threads(threads)
        .fault_collapse(collapse)
        .coverage(&cov)
        .run()
        .expect("suite machine runs");
    cov.latest().expect("finished map")
}

/// The six rows of the standard suite, with the counts the paper
/// reproduction stands on.
fn suite_rows() -> [SuiteRow; 6] {
    [
        SuiteRow {
            name: "fig3_4",
            faults: 82,
            detected: 78,
            undetected: 4,
            run: |c, t| pair_row(&paper::fig3_4().circuit, false, true, c, t),
        },
        SuiteRow {
            name: "fig3_7",
            faults: 98,
            detected: 98,
            undetected: 0,
            run: |c, t| pair_row(&paper::fig3_7().circuit, false, true, c, t),
        },
        SuiteRow {
            name: "adder8_drop",
            faults: 562,
            detected: 562,
            undetected: 0,
            run: |c, t| pair_row(&paper::ripple_adder(8), true, false, c, t),
        },
        SuiteRow {
            name: "kohavi_dualff",
            faults: 100,
            detected: 100,
            undetected: 0,
            run: |c, t| {
                let m = scal::seq::kohavi::kohavi_0101();
                seq_row(&scal::seq::dual_ff_machine(&m), c, t)
            },
        },
        SuiteRow {
            name: "kohavi_codeconv",
            faults: 168,
            detected: 140,
            undetected: 28,
            run: |c, t| {
                let m = scal::seq::kohavi::kohavi_0101();
                seq_row(&scal::seq::code_conversion_machine(&m), c, t)
            },
        },
        SuiteRow {
            name: "cpu_adder",
            faults: 562,
            detected: 419,
            undetected: 143,
            // The CPU campaign has no thread knob.
            run: |c, _| {
                let cov = CoverageObserver::new();
                let _ = scal::system::campaign::Campaign::new(scal::system::CpuUnit::Adder)
                    .fault_collapse(c)
                    .coverage(&cov)
                    .run();
                cov.latest().expect("finished map")
            },
        },
    ]
}

/// Every standard-suite row keeps its fault, detected and undetected-site
/// counts, and its exact undetected labels, with collapsing on and off and
/// on one or two worker threads. The labels are pinned in
/// `tests/golden/suite_undetected.txt` (regenerate with
/// `UPDATE_GOLDEN=1 cargo test --test coverage`).
#[test]
fn suite_rows_pin_coverage_under_every_collapse_and_thread_setting() {
    let mut got = String::new();
    for row in suite_rows() {
        let mut labels: Option<Vec<String>> = None;
        for collapse in [true, false] {
            for threads in [1, 2] {
                let map = (row.run)(collapse, threads);
                let at = format!("{} collapse={collapse} threads={threads}", row.name);
                assert_eq!(map.records.len(), row.faults, "{at}: faults");
                assert_eq!(map.detected_count(), row.detected, "{at}: detected");
                let undetected: Vec<String> = map.undetected().map(|r| r.label.clone()).collect();
                assert_eq!(undetected.len(), row.undetected, "{at}: undetected");
                assert!(undetected.iter().all(|l| !l.is_empty()), "{at}: labels");
                match &labels {
                    None => labels = Some(undetected),
                    Some(first) => assert_eq!(first, &undetected, "{at}: labels"),
                }
            }
        }
        got.push_str(row.name);
        got.push('\n');
        for label in labels.expect("at least one run") {
            got.push_str("  ");
            got.push_str(&label);
            got.push('\n');
        }
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/suite_undetected.txt"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("write golden file");
        return;
    }
    let want = include_str!("golden/suite_undetected.txt");
    assert_eq!(
        got, want,
        "undetected sites drifted from tests/golden/suite_undetected.txt; \
         if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// `CampaignEnd.pairs` counts simulated (representative) work on every
/// campaign kind, while each `FaultFinish.pairs` is that fault's own work —
/// so collapsing lowers the former and leaves the latter unchanged.
#[test]
fn campaign_end_pairs_count_simulated_work() {
    use scal::obs::CollectObserver;

    /// `(fault, pairs)` of every `FaultFinish`, and `CampaignEnd.pairs`.
    fn pairs(events: &[CampaignEvent]) -> (Vec<(usize, u64)>, u64) {
        let finishes = events
            .iter()
            .filter_map(|e| match e {
                CampaignEvent::FaultFinish { fault, pairs, .. } => Some((*fault, *pairs)),
                _ => None,
            })
            .collect();
        let end = events
            .iter()
            .find_map(|e| match e {
                CampaignEvent::CampaignEnd { pairs, .. } => Some(*pairs),
                _ => None,
            })
            .expect("campaign_end");
        (finishes, end)
    }

    let adder = paper::ripple_adder(4);
    let m = scal::seq::kohavi::kohavi_0101();
    let codeconv = scal::seq::code_conversion_machine(&m);
    let words = suite_words();
    for name in ["adder4", "kohavi_codeconv"] {
        let run = |collapse: bool| {
            let collect = CollectObserver::default();
            if name == "adder4" {
                Campaign::new(&adder)
                    .threads(1)
                    .fault_collapse(collapse)
                    .observer(&collect)
                    .run()
                    .expect("adder campaign");
            } else {
                scal::seq::Campaign::new(&codeconv, &words)
                    .threads(1)
                    .fault_collapse(collapse)
                    .observer(&collect)
                    .run()
                    .expect("codeconv campaign");
            }
            pairs(&collect.events())
        };
        let (collapsed, collapsed_end) = run(true);
        let (plain, plain_end) = run(false);
        assert_eq!(collapsed, plain, "{name}: per-fault pairs");
        assert_eq!(
            plain_end,
            plain.iter().map(|&(_, p)| p).sum::<u64>(),
            "{name}: uncollapsed work is every fault's"
        );
        assert!(
            collapsed_end < plain_end,
            "{name}: collapsed {collapsed_end} vs uncollapsed {plain_end}"
        );
    }
}
