//! Chapter 7 experiments: economics, the SCAL computer, and fault-tolerant
//! configurations.

use scal_system::adr::{run_pair, sum_program, CostModel, FaultyMember};
use scal_system::tmr::run_tmr;
use scal_system::{Cpu, CpuMode, ScalComputer};
use std::fmt::Write;

/// Fig. 7.2 — the reliability design trade-off: benefit, cost, and utility
/// per protection degree; the utility peak lands on single-fault protection
/// for typical values.
#[must_use]
pub fn fig7_2(_ctx: &crate::ExperimentCtx) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== Fig 7.2: reliability design trade-off ==");
    let value = 5.0;
    let _ = writeln!(
        s,
        "{:<16} {:>8} {:>6} {:>8}",
        "protection", "benefit", "cost", "utility"
    );
    for p in scal_system::econ::trade_off(value) {
        let _ = writeln!(
            s,
            "{:<16} {:>8.2} {:>6.2} {:>8.2}",
            format!("{:?}", p.degree),
            p.benefit,
            p.cost,
            p.utility
        );
    }
    let _ = writeln!(
        s,
        "peak utility at {:?} (the paper: 'the peak utility is reached when single fault protection is used')",
        scal_system::econ::optimal_degree(value)
    );
    s
}

/// Figs. 7.1/7.3/7.4 — the SCAL computer: program execution, the 2x time
/// cost of alternating mode, bus-translator round trips, and a datapath
/// fault-injection campaign measuring detection coverage.
#[must_use]
pub fn fig7_3(ctx: &crate::ExperimentCtx) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== Fig 7.3: the SCAL computer ==");
    let program = sum_program(20);

    let mut normal = Cpu::new(CpuMode::Normal);
    normal.run(&program, 100_000).expect("clean run");
    let mut scal = Cpu::new(CpuMode::Alternating);
    scal.run(&program, 100_000).expect("clean run");
    let _ = writeln!(
        s,
        "workload sum(1..=20): result {} (expected 210); periods normal={} alternating={} (x{})",
        scal.memory.read(0x10).unwrap(),
        normal.stats().periods,
        scal.stats().periods,
        scal.stats().periods / normal.stats().periods.max(1)
    );

    // Bus translators.
    let mut machine = ScalComputer::new();
    let ok = (0u16..256).all(|v| machine.bus_round_trip(v as u8).unwrap() == v as u8);
    let _ = writeln!(s, "ALPT/PALT bus round trip exact for all 256 words: {ok}");
    let corrupted_detected = {
        let bus = scal_system::machine::BusTranslator::new();
        let mut det = 0;
        for bit in 0..8u8 {
            let (_, _, code_ok) = bus.round_trip(0x5A, Some(bit));
            if !code_ok {
                det += 1;
            }
        }
        det
    };
    let _ = writeln!(
        s,
        "single stored-bit bus corruptions flagged: {corrupted_detected}/8"
    );

    // Fault-injection campaign over every adder fault, on the workload,
    // through the observable CPU campaign builder.
    let campaign = scal_system::campaign::Campaign::new(scal_system::CpuUnit::Adder)
        .workloads(vec![scal_system::Workload {
            name: "sum(1..=20)",
            program: program.clone(),
            setup: vec![],
            expect: 210,
        }])
        .budget(100_000)
        .observer(ctx)
        .coverage(ctx.coverage())
        .run()
        .expect("sum(1..=20) passes fault-free");
    let detected: usize = campaign.results.iter().map(|r| r.detected).sum();
    let dormant: usize = campaign.results.iter().map(|r| r.dormant).sum();
    let wrong: usize = campaign.results.iter().map(|r| r.undetected_wrong).sum();
    let _ = writeln!(
        s,
        "adder fault campaign on the workload: {} faults -> {} detected, {} dormant (answer still correct), {} undetected-wrong",
        campaign.results.len(),
        detected,
        dormant,
        wrong
    );
    let _ = writeln!(
        s,
        "single-fault coverage: every sensitized adder fault is caught by alternation checking: {}",
        wrong == 0
    );

    // §7.2 system encoding considerations: match the code to the failure
    // mode. Escape rate = fraction of unidirectional (same-direction
    // multi-line) corruptions each space code misses.
    let _ = writeln!(s, "\nsystem encoding (§7.2) — unidirectional escape rates:");
    for (name, rate) in scal_system::codes::unidirectional_escape_rates() {
        let _ = writeln!(s, "  {name:<12} {:.3}", rate);
    }
    let _ = writeln!(
        s,
        "parity: cheapest (1 line), single-fault only; Berger / m-out-of-n: all-unidirectional, for space-checked CPUs; alternating logic: the time-domain alternative this system uses"
    );
    s
}

/// Fig. 7.5 / §7.4 — the fault-tolerant configuration against TMR and
/// Shedletsky's ADR: behaviour under injected faults and the hardware cost
/// factors.
#[must_use]
pub fn fig7_5(_ctx: &crate::ExperimentCtx) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== Fig 7.5: fault-tolerant alternating-logic CPU vs TMR/ADR =="
    );
    let program = sum_program(15);

    let clean = run_pair(&program, None);
    let _ = writeln!(
        s,
        "fault-free pair: {} instructions, {} mismatches, {} periods",
        clean.instructions, clean.mismatches, clean.periods
    );
    for member in [FaultyMember::Normal, FaultyMember::Scal] {
        let out = run_pair(&program, Some((member, 0)));
        let _ = writeln!(
            s,
            "fault in {:?} member: diagnosed+removed {:?}, mismatches {}, checks fired {}, periods {}",
            member, out.removed, out.mismatches, out.checks_fired, out.periods
        );
    }

    let tmr_clean = run_tmr(&program, None);
    let tmr_faulty = run_tmr(&program, Some((2, 0)));
    let _ = writeln!(
        s,
        "TMR baseline: clean acc {} / faulty-member acc {} (corrections {}), periods {} (3x hardware, 1x time)",
        tmr_clean.acc, tmr_faulty.acc, tmr_faulty.corrections, tmr_clean.periods
    );

    let m = CostModel::default();
    let _ = writeln!(s, "\nhardware cost factors (A = {}, S = {}):", m.a, m.s);
    let _ = writeln!(
        s,
        "  Shedletsky ADR (A*S*N) : {:.1} N  [paper: ~4N, 'probably worse than TMR']",
        m.adr_factor()
    );
    let _ = writeln!(s, "  TMR (3N)               : {:.1} N", m.tmr_factor());
    let _ = writeln!(
        s,
        "  Fig 7.5 pair ((1+A)N)  : {:.1} N  [beats TMR iff A < 2]",
        m.parallel_scal_factor()
    );
    s
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig7_2_peaks_at_single_fault() {
        assert!(
            super::fig7_2(&crate::ExperimentCtx::default()).contains("peak utility at SingleFault")
        );
    }

    #[test]
    fn fig7_3_has_full_coverage() {
        let r = super::fig7_3(&crate::ExperimentCtx::default());
        assert!(r.contains("caught by alternation checking: true"), "{r}");
        assert!(r.contains("flagged: 8/8"));
        assert!(r.contains("(x2)"));
    }

    #[test]
    fn fig7_5_diagnoses_both_members() {
        let r = super::fig7_5(&crate::ExperimentCtx::default());
        assert!(r.contains("removed Some(Normal)"));
        assert!(r.contains("removed Some(Scal)"));
    }
}
