//! Differential tests for compile-time fault collapsing: a collapsed
//! campaign simulates only equivalence-class representatives, but its
//! coverage map must stay one-record-per-original-fault and bit-identical
//! (modulo the class annotations themselves) to the uncollapsed sweep — on
//! the paper fixtures, on random self-dual networks across every engine
//! configuration axis (threads × dropping × word width), and on a
//! 100k-gate synthetic design. The random networks' collapsed maps are
//! also held against the scalar oracle's.

use proptest::prelude::*;
use scal::core::paper;
use scal::faults::{enumerate_faults, Campaign};
use scal::netlist::synth::{self, random_selfdual, SynthKind};
use scal::netlist::Circuit;
use scal::obs::{CoverageMap, CoverageObserver};

/// Runs one pair campaign and returns its coverage map. `max_faults`
/// truncates the enumerated universe (same prefix on both sides of a
/// differential pair, so identity still holds fault-for-fault).
fn run_map(
    circuit: &Circuit,
    max_faults: Option<usize>,
    threads: usize,
    drop: bool,
    width: usize,
    collapse: bool,
) -> CoverageMap {
    let mut faults = enumerate_faults(circuit);
    if let Some(n) = max_faults {
        faults.truncate(n);
    }
    let cov = CoverageObserver::new();
    Campaign::new(circuit)
        .faults(faults)
        .threads(threads)
        .drop_after_detection(drop)
        .word_width(width)
        .fault_collapse(collapse)
        .coverage(&cov)
        .run()
        .expect("campaign");
    cov.latest().expect("finished map")
}

/// The paper fixtures collapse without changing a single verdict, first
/// detecting pair, or violation count.
#[test]
fn paper_fixtures_collapse_to_identical_maps() {
    let fixtures: Vec<(&str, Circuit)> = vec![
        ("fig3_4", paper::fig3_4().circuit),
        ("fig3_7", paper::fig3_7().circuit),
        ("adder4", paper::ripple_adder(4)),
    ];
    for (name, circuit) in &fixtures {
        for drop in [false, true] {
            let collapsed = run_map(circuit, None, 1, drop, 0, true);
            let plain = run_map(circuit, None, 1, drop, 0, false);
            assert_eq!(collapsed.records.len(), plain.records.len(), "{name}");
            assert_eq!(
                collapsed.without_annotations(),
                plain.without_annotations(),
                "{name} drop={drop}"
            );
        }
    }
}

/// Collapsing actually merges classes on the adder (every gate's
/// controlling-value faults fold into the output fault) and annotates the
/// members with their representative.
#[test]
fn adder_collapse_annotates_classes() {
    let adder = paper::ripple_adder(4);
    let collapsed = run_map(&adder, None, 1, false, 0, true);
    let members: Vec<_> = collapsed
        .records
        .iter()
        .filter(|r| r.class_size.is_some_and(|s| s > 1))
        .collect();
    assert!(!members.is_empty(), "adder must have non-trivial classes");
    for r in &members {
        let rep = r.class_rep.expect("member carries its representative");
        assert!(rep < collapsed.records.len());
    }
    // The uncollapsed sweep never annotates.
    let plain = run_map(&adder, None, 1, false, 0, false);
    assert!(plain
        .records
        .iter()
        .all(|r| r.class_rep.is_none() && r.class_size.is_none()));
}

/// A 100k-gate random self-dual design (the large-tier smoke fixture)
/// collapses to the identical truncated-universe coverage map.
#[test]
fn hundred_k_selfdual_collapse_identity() {
    // 48 faults of a 13-input design: auto packing picks pattern-major
    // (⌈48/63⌉·4096 = 4096 pair sweeps packed vs 48·64 = 3072 unpacked), so
    // both sides run cone-restricted over a golden slot cache of about
    // 100 MB, and faults with wide cones switch their later groups to the
    // full schedule.
    let circuit = synth::generate(SynthKind::RandomSelfDual, 100_000, 42);
    let collapsed = run_map(&circuit, Some(48), 2, false, 0, true);
    let plain = run_map(&circuit, Some(48), 2, false, 0, false);
    assert_eq!(collapsed.without_annotations(), plain.without_annotations());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Collapsed and uncollapsed campaigns agree on random self-dual
    /// networks across the full engine configuration grid, and without
    /// dropping (which the oracle does not model) the collapsed map equals
    /// the scalar oracle's. The builder pins the toggle explicitly.
    #[test]
    fn random_selfdual_collapse_identity(
        seed in any::<u64>(),
        inputs in 5usize..9,
        core_gates in 16usize..64,
        threads in 1usize..4,
        drop in any::<bool>(),
        width_idx in 0usize..4,
    ) {
        let width = [0usize, 1, 4, 8][width_idx];
        let circuit = random_selfdual(inputs, core_gates, seed);
        let collapsed = run_map(&circuit, Some(64), threads, drop, width, true);
        let plain = run_map(&circuit, Some(64), threads, drop, width, false);
        prop_assert_eq!(collapsed.without_annotations(), plain.without_annotations());
        if !drop {
            let mut faults = enumerate_faults(&circuit);
            faults.truncate(64);
            let cov = CoverageObserver::new();
            Campaign::new(&circuit)
                .faults(faults)
                .scalar()
                .coverage(&cov)
                .run()
                .expect("scalar campaign");
            let oracle = cov.latest().expect("finished map");
            prop_assert_eq!(
                collapsed.without_annotations().records,
                oracle.without_annotations().records
            );
        }
    }
}
