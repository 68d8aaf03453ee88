//! Engine-vs-scalar differential coverage: the compiled `scal-engine`
//! campaign must be bit-identical — same pairs, same order, same flags — to
//! the original graph-walking scalar campaign on every canonical circuit of
//! the reproduction, and on randomly generated alternating networks, under
//! both lane geometries (pattern-major, which runs cone-restricted, and
//! fault-packed, which runs the full schedule), every word width and every
//! fault-collapse setting. The pattern-major path is held to the same bar
//! across thread counts, fault dropping, cancellation and its per-fault
//! switch to the full schedule, and the packed sequential backend against
//! the graph oracle.

use proptest::prelude::*;
use scal::core::{dualize_synthesized, paper};
use scal::engine::{CompiledCircuit, WidePackedSeqSim};
use scal::faults::{enumerate_faults, Campaign, CampaignResult};
use scal::netlist::{Circuit, Override, Sim};
use scal::obs::{CampaignEvent, CampaignObserver, CancelToken};

fn all_paper_circuits() -> Vec<(&'static str, Circuit)> {
    vec![
        ("self_dual_adder", paper::self_dual_adder()),
        ("ripple_adder_2", paper::ripple_adder(2)),
        ("fig3_4", paper::fig3_4().circuit),
        ("fig3_7", paper::fig3_7().circuit),
        ("fig3_1_example", paper::fig3_1_example().0),
        ("kohavi", scal::seq::kohavi::kohavi_circuit()),
        ("reynolds", scal::seq::kohavi::reynolds_circuit().circuit),
        (
            "translator",
            scal::seq::kohavi::translator_circuit().circuit,
        ),
        ("alpt_4", scal::seq::alpt(4)),
        ("palt_4", scal::seq::palt(4)),
        ("checker_8", scal::checkers::two_rail::reynolds_checker(8)),
        ("minority_direct", scal::minority::fig6_2_example().direct),
    ]
}

fn is_alternating(c: &Circuit) -> bool {
    c.output_tts().iter().all(scal::logic::Tt::is_self_dual)
}

/// Observer that cancels `token` once `after` units have completed.
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

/// Every supported evaluation word width.
const WORD_WIDTHS: [usize; 3] = [1, 4, 8];

/// Every engine configuration the pair differentials cover: fault packing
/// (off: pattern-major, cone-restricted; on: fault-packed, full schedule)
/// × word width × fault collapse.
fn engine_configs() -> Vec<(bool, usize, bool)> {
    let mut configs = Vec::new();
    for packing in [false, true] {
        for width in WORD_WIDTHS {
            for collapse in [false, true] {
                configs.push((packing, width, collapse));
            }
        }
    }
    configs
}

/// The scalar oracle's result as a drop-mode engine run reports it: the
/// oracle never drops, and the engine stops a fault at the end of the
/// 64-pair batch of its first detection, so only pairs below that batch's
/// end survive. A detected fault is observable either way.
fn truncated_at_drop(oracle: &CampaignResult) -> CampaignResult {
    let Some(first) = oracle.detected_pairs.first() else {
        return oracle.clone();
    };
    let end = (first / 64 + 1) * 64;
    let below = |set: &scal::engine::PairSet| set.iter().filter(|&m| m < end).collect();
    CampaignResult {
        detected_pairs: below(&oracle.detected_pairs),
        violation_pairs: below(&oracle.violation_pairs),
        ..oracle.clone()
    }
}

/// Every combinational alternating paper circuit: full collapsed fault
/// universe through both campaigns, results compared including ordering,
/// under every engine configuration.
#[test]
fn engine_campaign_matches_scalar_on_paper_circuits() {
    let mut checked = 0;
    for (name, c) in all_paper_circuits() {
        if c.is_sequential() || c.inputs().len() > 12 || !is_alternating(&c) {
            continue;
        }
        let faults = enumerate_faults(&c);
        let scalar = Campaign::new(&c)
            .faults(faults.clone())
            .scalar()
            .run()
            .expect("scalar campaign")
            .results;
        for (packing, width, collapse) in engine_configs() {
            let engine = Campaign::new(&c)
                .faults(faults.clone())
                .fault_packing(packing)
                .word_width(width)
                .fault_collapse(collapse)
                .run()
                .expect("engine campaign")
                .results;
            let config = format!("packing {packing}, W={width}, collapse {collapse}");
            assert_eq!(
                engine.len(),
                scalar.len(),
                "{name} ({config}): result count"
            );
            for (e, s) in engine.iter().zip(&scalar) {
                assert_eq!(e, s, "{name} ({config}): fault {:?}", e.fault);
            }
        }
        checked += 1;
    }
    assert!(
        checked >= 4,
        "too few campaign-eligible circuits: {checked}"
    );
}

/// Sweeps of many 64-pair batches against the scalar oracle: ripple adders
/// of 9 and 13 inputs (4 and 64 batches, up to 8 groups at `W = 8`) under
/// every word width and fault packing on and off. The paper circuits above
/// have at most 8 inputs, so none of their sweeps fills more than one
/// `W = 8` group.
#[test]
fn engine_campaign_matches_scalar_on_wide_adders() {
    for bits in [4, 6] {
        let c = paper::ripple_adder(bits);
        assert_eq!(c.inputs().len(), 2 * bits + 1);
        let faults = enumerate_faults(&c);
        let scalar = Campaign::new(&c)
            .faults(faults.clone())
            .scalar()
            .run()
            .expect("scalar campaign");
        for width in WORD_WIDTHS {
            for packing in [false, true] {
                let engine = Campaign::new(&c)
                    .faults(faults.clone())
                    .word_width(width)
                    .fault_packing(packing)
                    .run()
                    .expect("engine campaign");
                let config = format!("adder{bits} (W={width}, packing {packing})");
                assert_eq!(engine.results, scalar.results, "{config}");
            }
        }
    }
}

/// Attaching an observer must not perturb a campaign: under every
/// collapse and packing setting, the observed run's results and
/// coverage map — annotations included — are bit-identical to the
/// unobserved run's on every eligible circuit. Events flow only to the
/// attached observer, and the map's cone statistics (gathered from the
/// verdict table) are exactly the ones its `ConeStats` events carry.
#[test]
fn observed_campaign_is_bit_identical_to_unobserved() {
    use scal::obs::{CollectObserver, CoverageMap, CoverageObserver};
    /// `(fault, cone_ops, ops_skipped, frontier_died_at_level)` per record
    /// or event that carries cone statistics.
    type Cone = (usize, u64, u64, Option<u32>);
    fn map_cones(map: &CoverageMap) -> Vec<Cone> {
        map.records
            .iter()
            .filter_map(|r| {
                Some((
                    r.fault,
                    r.cone_ops?,
                    r.ops_skipped?,
                    r.frontier_died_at_level,
                ))
            })
            .collect()
    }
    fn event_cones(events: &[CampaignEvent]) -> Vec<Cone> {
        events
            .iter()
            .filter_map(|e| match *e {
                CampaignEvent::ConeStats {
                    fault,
                    cone_ops,
                    ops_skipped,
                    frontier_died_at_level,
                    ..
                } => Some((fault, cone_ops, ops_skipped, frontier_died_at_level)),
                _ => None,
            })
            .collect()
    }
    for (name, c) in all_paper_circuits() {
        if c.is_sequential() || c.inputs().len() > 12 || !is_alternating(&c) {
            continue;
        }
        let faults = enumerate_faults(&c);
        for collapse in [false, true] {
            for packing in [false, true] {
                let config = format!("{name} (collapse {collapse}, packing {packing})");
                let mut runs = Vec::new();
                for observed in [false, true] {
                    let collect = CollectObserver::default();
                    let cov = CoverageObserver::new();
                    let mut campaign = Campaign::new(&c)
                        .faults(faults.clone())
                        .fault_collapse(collapse)
                        .fault_packing(packing)
                        .coverage(&cov);
                    if observed {
                        campaign = campaign.observer(&collect);
                    }
                    let results = campaign.run().expect("campaign").results;
                    let map = cov.latest().expect("coverage map");
                    if observed {
                        let events = collect.events();
                        assert!(!events.is_empty(), "{config}: no events flowed");
                        assert_eq!(
                            map_cones(&map),
                            event_cones(&events),
                            "{config}: cone statistics"
                        );
                    }
                    runs.push((results, map));
                }
                assert_eq!(runs[0].0, runs[1].0, "{config}: observer changed results");
                assert_eq!(runs[0].1, runs[1].1, "{config}: observer changed the map");
            }
        }
    }
}

/// Steps `faults` through packed sequential batches of up to `63 × 4`
/// lanes and holds every lane against a graph simulator: lane 0 of every
/// sub-word against the fault-free machine, fault `i`'s lane against a
/// [`Sim`] carrying fault `i`. Returns the first mismatch, if any.
fn packed_lane_mismatch(c: &Circuit, faults: &[Override], drive: &[Vec<bool>]) -> Option<String> {
    let compiled = CompiledCircuit::compile(c);
    for batch in faults.chunks(WidePackedSeqSim::<4>::FAULT_LANES) {
        let refs: Vec<&[Override]> = batch.iter().map(std::slice::from_ref).collect();
        let mut packed = WidePackedSeqSim::<4>::new(&compiled, &refs);
        let mut golden = Sim::new(c);
        let mut sims: Vec<Sim<'_>> = batch
            .iter()
            .map(|&ov| {
                let mut sim = Sim::new(c);
                sim.attach(ov);
                sim
            })
            .collect();
        for (step, ins) in drive.iter().enumerate() {
            packed.step(ins);
            let lane =
                |s: usize, bit: usize, k: usize| (packed.output_wide(k).sub(s) >> bit) & 1 == 1;
            let gold = golden.step(ins);
            for (k, &v) in gold.iter().enumerate() {
                if let Some(s) = (0..4).find(|&s| lane(s, 0, k) != v) {
                    return Some(format!(
                        "golden lane of sub-word {s}, output {k}, step {step}"
                    ));
                }
            }
            for (i, sim) in sims.iter_mut().enumerate() {
                let want = sim.step(ins);
                if let Some(k) = (0..want.len()).find(|&k| lane(i / 63, 1 + i % 63, k) != want[k]) {
                    return Some(format!("fault {:?}, output {k}, step {step}", batch[i]));
                }
            }
        }
    }
    None
}

/// Sequential (and non-alternating) paper circuits: every collapsed fault's
/// lane of the packed sequential simulator must track the graph simulator
/// carrying that fault step for step, and the golden lanes the fault-free
/// machine.
#[test]
fn packed_seq_sim_matches_graph_sim_on_paper_circuits() {
    for (name, c) in all_paper_circuits() {
        let n = c.inputs().len();
        if n > 12 {
            continue;
        }
        let drive: Vec<Vec<bool>> = (0..16u32)
            .map(|step| {
                (0..n)
                    .map(|i| (step.wrapping_mul(5).wrapping_add(i as u32 * 3)) % 4 < 2)
                    .collect()
            })
            .collect();
        let faults: Vec<Override> = enumerate_faults(&c)
            .iter()
            .map(|f| f.to_override())
            .collect();
        if let Some(mismatch) = packed_lane_mismatch(&c, &faults, &drive) {
            panic!("{name}: {mismatch}");
        }
    }
}

/// Cone-restricted evaluation is a pure optimisation: on every
/// campaign-eligible paper circuit the pattern-major path is bit-identical
/// to the scalar oracle across thread counts and fault dropping (a dropped
/// fault keeps the oracle's pairs up to the end of its detecting batch).
#[test]
fn cone_eval_matches_scalar_on_paper_circuits() {
    let mut checked = 0;
    for (name, c) in all_paper_circuits() {
        if c.is_sequential() || c.inputs().len() > 12 || !is_alternating(&c) {
            continue;
        }
        let faults = enumerate_faults(&c);
        let scalar = Campaign::new(&c)
            .faults(faults.clone())
            .scalar()
            .run()
            .expect("scalar campaign")
            .results;
        let dropped: Vec<CampaignResult> = scalar.iter().map(truncated_at_drop).collect();
        for threads in [1, 2, 4] {
            for drop in [false, true] {
                let cone = Campaign::new(&c)
                    .faults(faults.clone())
                    .threads(threads)
                    .drop_after_detection(drop)
                    .fault_packing(false)
                    .run()
                    .expect("cone campaign")
                    .results;
                let oracle = if drop { &dropped } else { &scalar };
                assert_eq!(&cone, oracle, "{name}: threads {threads}, drop {drop}");
            }
        }
        checked += 1;
    }
    assert!(
        checked >= 4,
        "too few campaign-eligible circuits: {checked}"
    );
}

/// Wide evaluation words are a pure optimisation: every width is
/// bit-identical to the scalar `u64` path on every campaign-eligible paper
/// circuit, across thread counts, fault dropping, and both lane geometries
/// — results, aggregate pair counts, and drop totals alike.
#[test]
fn wide_word_widths_match_scalar_on_paper_circuits() {
    let mut checked = 0;
    for (name, c) in all_paper_circuits() {
        if c.is_sequential() || c.inputs().len() > 12 || !is_alternating(&c) {
            continue;
        }
        let faults = enumerate_faults(&c);
        for packing in [false, true] {
            for threads in [1, 4] {
                for drop in [false, true] {
                    let scalar = Campaign::new(&c)
                        .faults(faults.clone())
                        .threads(threads)
                        .drop_after_detection(drop)
                        .fault_packing(packing)
                        .word_width(1)
                        .run()
                        .expect("scalar-width campaign");
                    for width in [4usize, 8] {
                        let wide = Campaign::new(&c)
                            .faults(faults.clone())
                            .threads(threads)
                            .drop_after_detection(drop)
                            .fault_packing(packing)
                            .word_width(width)
                            .run()
                            .expect("wide campaign");
                        let config =
                            format!("packing {packing}, W={width}, threads {threads}, drop {drop}");
                        assert_eq!(scalar.results, wide.results, "{name}: {config}");
                        assert_eq!(
                            scalar.stats.pairs_evaluated, wide.stats.pairs_evaluated,
                            "{name}: {config} pair accounting"
                        );
                        assert_eq!(
                            scalar.stats.faults_dropped, wide.stats.faults_dropped,
                            "{name}: {config} drop accounting"
                        );
                    }
                }
            }
        }
        checked += 1;
    }
    assert!(
        checked >= 4,
        "too few campaign-eligible circuits: {checked}"
    );
}

/// Fault-per-lane packing on pair campaigns (the 2-D configuration) is
/// bit-identical to the unpacked path at every width, with and without
/// fault dropping, pair accounting included.
#[test]
fn fault_packed_campaign_matches_unpacked_on_paper_circuits() {
    let mut checked = 0;
    for (name, c) in all_paper_circuits() {
        if c.is_sequential() || c.inputs().len() > 12 || !is_alternating(&c) {
            continue;
        }
        let faults = enumerate_faults(&c);
        for drop in [false, true] {
            let plain = Campaign::new(&c)
                .faults(faults.clone())
                .threads(1)
                .drop_after_detection(drop)
                .word_width(1)
                .run()
                .expect("unpacked campaign");
            for width in [1usize, 8] {
                let packed = Campaign::new(&c)
                    .faults(faults.clone())
                    .threads(1)
                    .drop_after_detection(drop)
                    .word_width(width)
                    .fault_packing(true)
                    .run()
                    .expect("fault-packed campaign");
                assert_eq!(
                    plain.results, packed.results,
                    "{name}: packed W={width}, drop {drop}"
                );
                assert_eq!(
                    plain.stats.pairs_evaluated, packed.stats.pairs_evaluated,
                    "{name}: packed W={width} pair accounting"
                );
                assert_eq!(
                    plain.stats.faults_dropped, packed.stats.faults_dropped,
                    "{name}: packed W={width} drop accounting"
                );
            }
        }
        checked += 1;
    }
    assert!(
        checked >= 4,
        "too few campaign-eligible circuits: {checked}"
    );
}

/// A cancelled fault-packed campaign returns a whole-chunk fault-ordered
/// prefix that is bit-identical to the same prefix of an uncancelled
/// unpacked run.
#[test]
fn cancelled_fault_packed_prefix_matches_unpacked_run() {
    let c = paper::ripple_adder(4);
    let faults = enumerate_faults(&c);
    assert!(faults.len() > 63, "want multiple chunks: {}", faults.len());
    let full = Campaign::new(&c)
        .faults(faults.clone())
        .threads(1)
        .word_width(1)
        .run()
        .expect("unpacked campaign")
        .results;
    let token = CancelToken::new();
    let observer = CancelAfter {
        token: &token,
        after: 1,
    };
    // Collapsing is pinned off: the chunk-granularity assertion below
    // counts original faults, which under collapsing no longer arrive in
    // 63-fault chunks (representative chunks expand to ragged prefixes).
    let partial = Campaign::new(&c)
        .faults(faults)
        .threads(1)
        .fault_packing(true)
        .fault_collapse(false)
        .observer(&observer)
        .cancel(&token)
        .run()
        .expect("cancelled fault-packed campaign");
    assert!(partial.cancelled, "token must cancel the run");
    let k = partial.results.len();
    assert!(k > 0 && k < full.len(), "must stop early ({k})");
    assert_eq!(k % 63, 0, "fault-packed cancellation is chunk-granular");
    assert_eq!(
        partial.results[..],
        full[..k],
        "packed prefix must match the unpacked run"
    );
}

/// The Chapter-4 sequential machines and the 4-bit up/down counter under
/// both SCAL conversions.
fn seq_differential_machines() -> Vec<scal::seq::ScalMachine> {
    let m = scal::seq::kohavi::kohavi_0101();
    let counter = scal::seq::counters::up_down_counter(4);
    vec![
        scal::seq::dual_ff_machine(&m),
        scal::seq::code_conversion_machine(&m),
        scal::seq::dual_ff_machine(&counter),
        scal::seq::code_conversion_machine(&counter),
    ]
}

/// A driven word sequence of `width`-bit words exercising every machine.
fn seq_drive(width: usize) -> Vec<Vec<bool>> {
    (0..14u32)
        .map(|step| {
            (0..width)
                .map(|i| (step.wrapping_mul(7).wrapping_add(i as u32 * 5)) % 4 < 2)
                .collect()
        })
        .collect()
}

/// The packed fault-per-lane backend is bit-identical to the graph oracle
/// (`Campaign::scalar()`) — outcomes, `first_detected` words, and coverage
/// maps — on every sequential design, across word widths, fault collapse
/// and thread counts, and its map is the same, annotations included,
/// whether or not a plain observer is attached. (Sequential campaigns have
/// no fault-dropping knob: a classified fault inherently stops consuming
/// words.)
#[test]
fn seq_packed_matches_scalar_backend() {
    use scal::obs::{CollectObserver, CoverageObserver};
    for machine in seq_differential_machines() {
        let words = seq_drive(machine.circuit.inputs().len() - 1);
        let oracle_cov = CoverageObserver::new();
        let oracle = scal::seq::Campaign::new(&machine, &words)
            .scalar()
            .coverage(&oracle_cov)
            .run()
            .expect("graph seq campaign");
        let oracle_map = oracle_cov.latest().expect("graph map");
        for width in WORD_WIDTHS {
            for collapse in [false, true] {
                let mut unobserved_map = None;
                for (threads, observed) in [(1, false), (2, false), (4, false), (1, true)] {
                    let config = format!(
                        "W={width}, collapse {collapse}, threads {threads}, observed {observed}"
                    );
                    let packed_cov = CoverageObserver::new();
                    let collect = CollectObserver::default();
                    let mut campaign = scal::seq::Campaign::new(&machine, &words)
                        .threads(threads)
                        .word_width(width)
                        .fault_collapse(collapse)
                        .coverage(&packed_cov);
                    if observed {
                        campaign = campaign.observer(&collect);
                    }
                    let packed = campaign.run().expect("packed seq campaign");
                    assert_eq!(packed, oracle, "{}: {config}", machine.design);
                    let packed_map = packed_cov.latest().expect("packed map");
                    if observed {
                        assert!(!collect.is_empty(), "{}: {config}", machine.design);
                        assert_eq!(
                            Some(&packed_map),
                            unobserved_map.as_ref(),
                            "{}: {config}: observer changed the map",
                            machine.design
                        );
                    } else if threads == 1 {
                        unobserved_map = Some(packed_map.clone());
                    }
                    for ((p, s), (fault, _)) in packed_map
                        .records
                        .iter()
                        .zip(&oracle_map.records)
                        .zip(&packed.outcomes)
                    {
                        assert_eq!(p.first_detected, s.first_detected, "{fault:?}, {config}");
                        assert_eq!(p.detected, s.detected, "{fault:?}, {config}");
                        assert_eq!(p.violations, s.violations, "{fault:?}, {config}");
                        assert_eq!(p.observable, s.observable, "{fault:?}, {config}");
                        assert_eq!(p.pairs, s.pairs, "{fault:?}, {config}");
                        assert_eq!(p.label, s.label, "{fault:?}, {config}");
                    }
                }
            }
        }
    }
}

/// A cancelled packed campaign's fault-ordered prefix is bit-identical to
/// the same prefix of an uncancelled graph-oracle run; packed cancellation
/// lands on a whole-batch boundary.
#[test]
fn cancelled_packed_seq_prefix_matches_scalar_run() {
    let m = scal::seq::kohavi::kohavi_0101();
    let machine = scal::seq::code_conversion_machine(&m);
    let words = seq_drive(machine.circuit.inputs().len() - 1);
    let total = machine.checkable_faults().len();
    assert!(total > 63, "want multiple packed batches, got {total}");
    let full = scal::seq::Campaign::new(&machine, &words)
        .scalar()
        .run()
        .expect("graph seq campaign");
    let token = CancelToken::new();
    let observer = CancelAfter {
        token: &token,
        after: 1,
    };
    // Width 1 pins the 63-fault batch geometry the boundary assertion
    // below relies on; wider words pack whole batches into one word.
    // Collapsing is pinned off: the boundary assertion counts original
    // faults, which under collapsing no longer arrive in 63-fault batches.
    let partial = scal::seq::Campaign::new(&machine, &words)
        .threads(1)
        .word_width(1)
        .fault_collapse(false)
        .observer(&observer)
        .cancel(&token)
        .run()
        .expect("cancelled packed campaign");
    assert!(partial.cancelled, "token must cancel the run");
    let k = partial.outcomes.len();
    assert!(k > 0 && k < total, "cancellation must stop early ({k})");
    assert_eq!(k % 63, 0, "packed cancellation lands on a batch boundary");
    assert_eq!(
        partial.outcomes[..],
        full.outcomes[..k],
        "packed prefix must match the graph run"
    );
}

/// A cancelled cone campaign's fault-ordered prefix is bit-identical to the
/// same prefix of the scalar oracle's run, truncated at each fault's drop
/// batch — cancellation and cone evaluation compose without perturbing
/// results.
#[test]
fn cancelled_cone_prefix_matches_scalar_run() {
    let c = paper::ripple_adder(4);
    let faults = enumerate_faults(&c);
    let full: Vec<CampaignResult> = Campaign::new(&c)
        .faults(faults.clone())
        .scalar()
        .run()
        .expect("scalar campaign")
        .results
        .iter()
        .map(truncated_at_drop)
        .collect();
    let token = CancelToken::new();
    let observer = CancelAfter {
        token: &token,
        after: 5,
    };
    let partial = Campaign::new(&c)
        .faults(faults)
        .drop_after_detection(true)
        .fault_packing(false)
        .observer(&observer)
        .cancel(&token)
        .run()
        .expect("cancelled cone campaign");
    assert!(partial.cancelled, "token must cancel the run");
    let k = partial.results.len();
    assert!(k < full.len(), "cancellation must stop early ({k})");
    assert_eq!(
        partial.results[..],
        full[..k],
        "cone prefix must match the scalar run"
    );
}

/// A parity chain never lets a cone frontier die, so a fault whose cone
/// covers more than the engine's switch share of the schedule sweeps its
/// later groups over the full schedule. The chain's 11 inputs make 16
/// batches: 16 groups at `W = 1`, 4 at `W = 4`. Results match the scalar
/// oracle, and some fault's `ops_evaluated` exceeds what its cone alone
/// can account for (`2 × cone_ops` per batch).
#[test]
fn cone_to_full_switch_matches_scalar_on_a_parity_chain() {
    use scal::obs::CollectObserver;
    let mut c = Circuit::new();
    let ins: Vec<_> = (0..11).map(|i| c.input(format!("x{i}"))).collect();
    let parity = ins[1..].iter().fold(ins[0], |acc, &x| c.xor(&[acc, x]));
    c.mark_output("p", parity);
    let faults = enumerate_faults(&c);
    let scalar = Campaign::new(&c)
        .faults(faults.clone())
        .scalar()
        .run()
        .expect("scalar campaign")
        .results;
    for width in [1, 4] {
        let collect = CollectObserver::default();
        let engine = Campaign::new(&c)
            .faults(faults.clone())
            .word_width(width)
            .fault_packing(false)
            .observer(&collect)
            .run()
            .expect("engine campaign");
        assert_eq!(engine.results, scalar, "W={width}");
        let switched = collect
            .events()
            .iter()
            .filter(|e| {
                matches!(e, CampaignEvent::ConeStats { cone_ops, ops_evaluated, .. }
                    if *ops_evaluated > cone_ops * 2 * 16)
            })
            .count();
        assert!(
            switched > 0,
            "W={width}: no fault switched to the full schedule"
        );
    }
}

/// Builds a random combinational circuit from a gate recipe, then makes it
/// alternating via the paper's synthesized self-dual extension.
fn random_alternating(n_inputs: usize, recipe: &[(u8, u8, u8)]) -> Circuit {
    let mut c = Circuit::new();
    let mut nodes = Vec::new();
    for i in 0..n_inputs {
        nodes.push(c.input(format!("x{i}")));
    }
    for &(kind, a, b) in recipe {
        let fa = nodes[a as usize % nodes.len()];
        let fb = nodes[b as usize % nodes.len()];
        let g = match kind % 6 {
            0 => c.and(&[fa, fb]),
            1 => c.or(&[fa, fb]),
            2 => c.nand(&[fa, fb]),
            3 => c.nor(&[fa, fb]),
            4 => c.xor(&[fa, fb]),
            _ => c.not(fa),
        };
        nodes.push(g);
    }
    c.mark_output("f", *nodes.last().expect("at least one node"));
    dualize_synthesized(&c)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random alternating networks: engine and scalar campaigns agree on the
    /// full collapsed fault universe, ordering included, under every engine
    /// configuration.
    #[test]
    fn engine_campaign_matches_scalar_on_random_circuits(
        n_inputs in 2usize..4,
        recipe in proptest::collection::vec((0u8..6, 0u8..8, 0u8..8), 1..6),
    ) {
        let alt = random_alternating(n_inputs, &recipe);
        let faults = enumerate_faults(&alt);
        let scalar = Campaign::new(&alt)
            .faults(faults.clone())
            .scalar()
            .run()
            .expect("scalar campaign")
            .results;
        for (packing, width, collapse) in engine_configs() {
            let engine = Campaign::new(&alt)
                .faults(faults.clone())
                .fault_packing(packing)
                .word_width(width)
                .fault_collapse(collapse)
                .run()
                .expect("engine campaign")
                .results;
            prop_assert_eq!(&engine, &scalar, "packing {}, W={}, collapse {}", packing, width, collapse);
        }
    }

    /// Random sequential circuits (no alternation requirement): the packed
    /// sequential simulator's golden lanes and every collapsed fault's lane,
    /// plus a stem fault on the last gate, agree with the graph simulator.
    #[test]
    fn packed_seq_sim_matches_graph_sim_on_random_sequential(
        n_inputs in 1usize..3,
        n_dffs in 1usize..3,
        recipe in proptest::collection::vec((0u8..6, 0u8..8, 0u8..8), 1..6),
        drive in proptest::collection::vec(proptest::collection::vec(any::<bool>(), 2), 4..10),
    ) {
        let mut c = Circuit::new();
        let mut nodes = Vec::new();
        for i in 0..n_inputs {
            nodes.push(c.input(format!("x{i}")));
        }
        let dffs: Vec<_> = (0..n_dffs).map(|i| c.dff(i % 2 == 0)).collect();
        nodes.extend(&dffs);
        for &(kind, a, b) in &recipe {
            let fa = nodes[a as usize % nodes.len()];
            let fb = nodes[b as usize % nodes.len()];
            let g = match kind % 6 {
                0 => c.and(&[fa, fb]),
                1 => c.or(&[fa, fb]),
                2 => c.nand(&[fa, fb]),
                3 => c.nor(&[fa, fb]),
                4 => c.xor(&[fa, fb]),
                _ => c.not(fa),
            };
            nodes.push(g);
        }
        let last = *nodes.last().expect("nodes");
        for (i, &q) in dffs.iter().enumerate() {
            c.connect_dff(q, if i == 0 { last } else { nodes[i % nodes.len()] });
        }
        c.mark_output("f", last);
        prop_assume!(c.validate().is_ok());

        let mut faults: Vec<Override> = enumerate_faults(&c).iter().map(|f| f.to_override()).collect();
        faults.push(Override {
            site: scal::netlist::Site::Stem(last),
            value: true,
        });
        let drive: Vec<Vec<bool>> = drive.iter().map(|ins| ins[..n_inputs].to_vec()).collect();
        prop_assert_eq!(packed_lane_mismatch(&c, &faults, &drive), None);
    }
}
