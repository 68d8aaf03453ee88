//! Extension experiments: machinery the paper motivates but leaves to
//! future work or cites (its §8.3 recommendations and \[SHED2\]).

use scal_analysis::{generate_tests, validate_tests};
use scal_checkers::compose::{attach_dual_rail, drive_pair};
use scal_core::paper;
use scal_netlist::Sim;
use scal_system::retry::Bus;
use std::fmt::Write;

/// Complete stuck-at test-set generation (extending §3.2's per-line
/// derivation to whole networks — the "constructive design procedures"
/// direction of §8.3).
#[must_use]
pub fn ext_testgen(_ctx: &crate::ExperimentCtx) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== extension: complete stuck-at test generation ==");
    let circuits = [
        ("self-dual adder", paper::self_dual_adder()),
        ("2-bit ripple adder", paper::ripple_adder(2)),
        ("fig 3.7 network", paper::fig3_7().circuit),
    ];
    for (name, c) in circuits {
        let tests = generate_tests(&c).expect("generable");
        let missed = validate_tests(&c, &tests);
        let exhaustive = 1usize << (c.inputs().len() - 1);
        let _ = writeln!(
            s,
            "{name:<20}: {} faults, {} test pairs (vs {} exhaustive), coverage {:.1}%, validated missed = {}",
            tests.fault_count,
            tests.pairs.len(),
            exhaustive,
            100.0 * tests.coverage(),
            missed.len()
        );
    }
    s
}

/// The complete checked system of Chapter 5 as one netlist: network +
/// dual-rail checker + Fig 5.7 latch + Fig 5.5 clock gate, driven at gate
/// level with fault injection.
#[must_use]
pub fn ext_checked_system(_ctx: &crate::ExperimentCtx) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== extension: fully composed checked system (Ch. 5) ==");
    let net = paper::self_dual_adder();
    let checked = attach_dual_rail(&net);
    let cost = checked.circuit.cost();
    let _ = writeln!(
        s,
        "adder + checker + latch + clock gate: {} gates, {} flip-flops (network alone: {} gates)",
        cost.gates,
        cost.flip_flops,
        net.cost().gates
    );
    // Healthy run.
    let mut sim = Sim::new(&checked.circuit);
    let healthy = (0..8u32).all(|m| {
        let w: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
        let (o1, o2) = drive_pair(&mut sim, &w);
        o1[checked.clk_out] && o2[checked.clk_out]
    });
    let _ = writeln!(s, "healthy sweep keeps the clock running: {healthy}");
    // Fault campaign on the network region: clock must gate.
    let mut gated = 0usize;
    let mut total = 0usize;
    for fault in scal_faults::enumerate_faults(&net) {
        let checked = attach_dual_rail(&net);
        let mut sim = Sim::new(&checked.circuit);
        let site = checked.map_site(fault.site);
        sim.attach(scal_netlist::Override {
            site,
            value: fault.stuck,
        });
        total += 1;
        let mut stopped = false;
        for _round in 0..2 {
            for m in 0..8u32 {
                let w: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
                let (o1, o2) = drive_pair(&mut sim, &w);
                if !o1[checked.clk_out] || !o2[checked.clk_out] {
                    stopped = true;
                }
            }
        }
        if stopped {
            gated += 1;
        }
    }
    let _ = writeln!(
        s,
        "network-fault campaign: {gated}/{total} single faults stop the clock (the remainder are input-branch equivalents already counted)"
    );
    s
}

/// Automatic fanout-splitting repair (§8.3's "constructive design
/// procedures"): mechanize the Fig 3.4 → Fig 3.7 fix and apply it to the
/// paper's own broken example.
#[must_use]
pub fn ext_repair(_ctx: &crate::ExperimentCtx) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== extension: automatic self-checking repair ==");
    let fig = paper::fig3_4();
    let (fixed, report) = scal_analysis::make_self_checking(&fig.circuit).expect("analyzable");
    let _ = writeln!(
        s,
        "Fig 3.4 network: {} splits -> self-checking: {}; gates {} -> {}",
        report.splits, report.self_checking, report.gates_before, report.gates_after
    );
    let hand = paper::fig3_7().circuit;
    let _ = writeln!(
        s,
        "hand fix (Fig 3.7): {} gates; automatic fix: {} gates; functions identical: {}",
        hand.cost().gates,
        fixed.cost().gates,
        fixed.output_tts() == fig.circuit.output_tts()
    );
    let verdict = scal_core::verify(&fixed).expect("verifies");
    let _ = writeln!(
        s,
        "exhaustive confirmation of the automatic fix: fault-secure {}, self-testing {}",
        verdict.fault_secure, verdict.self_testing
    );
    s
}

/// Shedletsky's alternate data retry \[SHED2\]: parity detection + time
/// redundancy = single-stuck-line *correction* on a bus.
#[must_use]
pub fn ext_adr_retry(_ctx: &crate::ExperimentCtx) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== extension: alternate data retry (Shedletsky) ==");
    let mut corrected = 0usize;
    let mut retried = 0usize;
    let mut total = 0usize;
    for line in 0..=8u8 {
        for stuck in [false, true] {
            let bus = Bus::new(8).with_stuck_line(line, stuck);
            for v in 0..=255u16 {
                total += 1;
                let t = bus.adr_transfer(v as u8).expect("single fault correctable");
                if t.value == v as u8 {
                    corrected += 1;
                }
                if t.retried {
                    retried += 1;
                }
            }
        }
    }
    let _ = writeln!(
        s,
        "all (line, stuck, word) combinations: {corrected}/{total} delivered exactly; {retried} needed the complemented retry"
    );
    let _ = writeln!(
        s,
        "time redundancy upgrades the distance-2 parity code from detection to correction — at double transfer time, the paper's recurring trade"
    );
    s
}

/// Compiled-engine fault-campaign throughput ([`scal_engine::EngineStats`])
/// on the paper's networks, exact mode vs early fault dropping, on the
/// cone-restricted pattern-major path.
#[must_use]
pub fn ext_engine(ctx: &crate::ExperimentCtx) -> String {
    use scal_faults::{enumerate_faults, Campaign};
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== extension: compiled fault-campaign engine [cone eval] =="
    );
    let circuits = [
        ("fig 3.7 network", paper::fig3_7().circuit),
        ("4-bit ripple adder", paper::ripple_adder(4)),
        ("8-bit ripple adder", paper::ripple_adder(8)),
    ];
    for (name, c) in circuits {
        let faults = enumerate_faults(&c);
        for (mode, drop) in [("exact", false), ("drop", true)] {
            let report = Campaign::new(&c)
                .faults(faults.clone())
                .drop_after_detection(drop)
                // Pin the pattern-major path: the tracer narrates per-fault
                // cone stats, which auto fault-packing would fold into lane
                // batches.
                .fault_packing(false)
                .observer(ctx)
                .coverage(ctx.coverage())
                .run()
                .expect("paper networks are engine-compatible");
            let _ = writeln!(s, "{name:<20} [{mode}]: {}", report.stats.summary());
        }
    }
    s
}

#[cfg(test)]
mod tests {
    #[test]
    fn testgen_reports_full_coverage() {
        let r = super::ext_testgen(&crate::ExperimentCtx::default());
        assert!(r.contains("coverage 100.0%"));
        assert!(r.contains("missed = 0"));
    }

    #[test]
    fn checked_system_gates_on_faults() {
        let r = super::ext_checked_system(&crate::ExperimentCtx::default());
        assert!(r.contains("keeps the clock running: true"));
    }

    #[test]
    fn repair_fixes_fig3_4_automatically() {
        let r = super::ext_repair(&crate::ExperimentCtx::default());
        assert!(r.contains("self-checking: true"));
        assert!(r.contains("functions identical: true"));
        assert!(r.contains("fault-secure true"));
    }

    #[test]
    fn engine_stats_report_throughput() {
        let r = super::ext_engine(&crate::ExperimentCtx::default());
        assert!(r.contains("patterns/s"));
        assert!(r.contains("[exact]") && r.contains("[drop]"));
    }

    #[test]
    fn adr_retry_corrects_everything() {
        let r = super::ext_adr_retry(&crate::ExperimentCtx::default());
        let frag = r.lines().find(|l| l.contains("delivered exactly")).unwrap();
        let nums: Vec<usize> = frag
            .split(&[' ', '/'][..])
            .filter_map(|w| w.parse().ok())
            .collect();
        assert_eq!(nums[0], nums[1], "corrected must equal total");
    }
}
