//! Chapter 4 experiments: the ALPT/PALT translators and Table 4.1.

use scal_netlist::Sim;
use scal_seq::kohavi::{table_4_1, table_4_1_general};
use scal_seq::{alpt, palt};
use std::fmt::Write;

/// Fig. 4.2 — the dual flip-flop machine's sample data stream: inputs,
/// feedback variables, and outputs all alternate in unison, with the
/// feedback lagging one full pair (two periods) behind.
#[must_use]
pub fn fig4_2(ctx: &crate::ExperimentCtx) -> String {
    use scal_seq::dual_ff::AltSeqDriver;
    use scal_seq::kohavi::{kohavi_0101, reynolds_circuit};
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== Fig 4.2: dual flip-flop data stream (0101 detector) =="
    );
    let machine = reynolds_circuit();
    let m = kohavi_0101();
    let stream = [0u32, 1, 0, 1, 0, 1];
    let golden = m.run(&stream);
    let mut drv = AltSeqDriver::new(&machine);
    let _ = writeln!(
        s,
        "{:>6} {:>10} {:>10} {:>12} {:>10}",
        "word", "(X, X')", "(z, z')", "(Y1Y0,Y1'Y0')", "machine z"
    );
    for (i, &x) in stream.iter().enumerate() {
        let (o1, o2) = drv.apply(&[x == 1]);
        let y = |o: &Vec<bool>| format!("{}{}", u8::from(o[2]), u8::from(o[1]));
        let _ = writeln!(
            s,
            "{i:>6} {:>10} {:>10} {:>12} {:>10}",
            format!("({x}, {})", 1 - x),
            format!("({}, {})", u8::from(o1[0]), u8::from(o2[0])),
            format!("({}, {})", y(&o1), y(&o2)),
            u8::from(golden[i][0])
        );
    }
    let _ = writeln!(
        s,
        "every line alternates each pair; z matches the unchecked machine in period 1"
    );
    // Exhaustive fault campaign over the dual-FF machine on this stream,
    // through the sequential Campaign builder (forwards the observer).
    let words: Vec<Vec<bool>> = stream.iter().map(|&x| vec![x == 1]).collect();
    let campaign = scal_seq::Campaign::new(&machine, &words)
        .observer(ctx)
        .coverage(ctx.coverage())
        .run()
        .expect("dual-FF machine simulates");
    let detected = campaign
        .outcomes
        .iter()
        .filter(|(_, o)| matches!(o, scal_seq::SeqOutcome::Detected { .. }))
        .count();
    let violations = campaign
        .outcomes
        .iter()
        .filter(|(_, o)| matches!(o, scal_seq::SeqOutcome::Violation { .. }))
        .count();
    let _ = writeln!(
        s,
        "fault campaign on this stream: {} faults -> {} detected, {} dormant, {} violations",
        campaign.outcomes.len(),
        detected,
        campaign.outcomes.len() - detected - violations,
        violations
    );
    s
}

/// Figs. 4.4–4.6 — translator behaviour and self-checking: round-trip
/// correctness, the distance-2 code invariant, and single-bit corruption
/// coverage, for several word sizes (odd sizes fold the period clock into
/// the check, per §4.3).
#[must_use]
pub fn fig4_4(_ctx: &crate::ExperimentCtx) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== Figs 4.4-4.6: ALPT / PALT code conversion ==");
    for n in [2usize, 3, 4, 8] {
        let a = alpt(n);
        let p = palt(n);
        let mut round_trips = 0usize;
        let mut detected = 0usize;
        let mut injections = 0usize;
        for word in 0..(1u32 << n) {
            // ALPT: drive the alternating pair.
            let mut sim = Sim::new(&a);
            let w: Vec<bool> = (0..n).map(|i| (word >> i) & 1 == 1).collect();
            let mut p1 = w.clone();
            p1.push(false);
            sim.step(&p1);
            let mut p2: Vec<bool> = w.iter().map(|&b| !b).collect();
            p2.push(true);
            sim.step(&p2);
            let stored: Vec<bool> = sim.state().to_vec();

            // PALT: read back in period 1, check both periods.
            let read = |bits: &[bool]| -> (u32, bool) {
                let mut ok = true;
                let mut val = 0u32;
                for phi in [false, true] {
                    let mut ins = bits.to_vec();
                    ins.push(phi);
                    let out = p.eval(&ins);
                    if !phi {
                        for (i, &b) in out.iter().take(n).enumerate() {
                            val |= u32::from(b) << i;
                        }
                    }
                    ok &= out[n] != out[n + 1];
                }
                (val, ok)
            };
            let (val, ok) = read(&stored);
            if val == word && ok {
                round_trips += 1;
            }
            // Corrupt every stored bit (including the parity rail).
            for bit in 0..=n {
                let mut bad = stored.clone();
                bad[bit] = !bad[bit];
                let (_, ok) = read(&bad);
                injections += 1;
                if !ok {
                    detected += 1;
                }
            }
        }
        let _ = writeln!(
            s,
            "n={n}: {round_trips}/{} words round-trip exactly; {detected}/{injections} single stored-bit corruptions flagged; flip-flops = n+1 = {}",
            1u32 << n,
            alpt(n).cost().flip_flops
        );
    }
    s
}

/// Table 4.1 — comparative costs of the 0101 sequence detector, paper
/// numbers alongside our synthesized reconstructions, plus the general-case
/// formulas at growing machine sizes.
#[must_use]
pub fn tab4_1(_ctx: &crate::ExperimentCtx) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== Table 4.1: comparative costs of the 0101 sequence detector =="
    );
    let _ = writeln!(
        s,
        "{:<40} {:>9} {:>7} | {:>9} {:>7}",
        "", "paper FF", "gates", "ours FF", "gates"
    );
    for row in table_4_1() {
        let _ = writeln!(
            s,
            "{:<40} {:>9} {:>7} | {:>9} {:>7}",
            row.design,
            row.paper_flip_flops.map_or("-".into(), |v| v.to_string()),
            row.paper_gates.map_or("-".into(), |v| v.to_string()),
            row.measured_flip_flops,
            row.measured_gates
        );
    }
    let _ = writeln!(
        s,
        "\nGeneral case (n flip-flops, m gates in the Kohavi machine):"
    );
    for (n, m) in [(2usize, 12usize), (8, 60), (16, 150), (32, 400)] {
        let _ = writeln!(s, "  n={n}, m={m}:");
        for (name, ff, gates) in table_4_1_general(n, m) {
            let _ = writeln!(s, "    {name:<22} {ff:>6.0} flip-flops {gates:>8.1} gates");
        }
    }
    let _ = writeln!(
        s,
        "\nshape check: translator flip-flops (n+1) < dual-FF (2n) for all n > 1; gate penalty additive (n+2)"
    );

    // Measured sweep: actual synthesized pattern detectors of growing size.
    let _ = writeln!(s, "\nMeasured sweep (synthesized 01.. pattern detectors):");
    let _ = writeln!(
        s,
        "{:>8} {:>14} {:>14} {:>16}",
        "pattern", "baseline FF/g", "dual-FF FF/g", "translator FF/g"
    );
    for row in scal_seq::patterns::measured_sweep(&[4, 8, 16]) {
        let _ = writeln!(
            s,
            "{:>8} {:>10}/{:<4} {:>10}/{:<4} {:>12}/{:<4}",
            row.pattern_len,
            row.baseline.0,
            row.baseline.1,
            row.dual_ff.0,
            row.dual_ff.1,
            row.translator.0,
            row.translator.1
        );
    }
    s
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig4_2_streams_alternate_and_match() {
        let r = super::fig4_2(&crate::ExperimentCtx::default());
        assert!(
            r.contains("(1, 0)     (1, 0)"),
            "detections must appear:\n{r}"
        );
        assert!(r.contains("period 1"));
    }

    #[test]
    fn translators_fully_detect_single_corruptions() {
        let r = super::fig4_4(&crate::ExperimentCtx::default());
        // Every "detected/injections" pair must be complete.
        for line in r.lines().filter(|l| l.contains("round-trip")) {
            let frag = line.split(';').nth(1).unwrap();
            let nums: Vec<&str> = frag.trim().split('/').collect();
            let detected: usize = nums[0].rsplit(' ').next().unwrap().parse().unwrap();
            let total: usize = nums[1].split(' ').next().unwrap().parse().unwrap();
            assert_eq!(detected, total, "line: {line}");
        }
    }

    #[test]
    fn table_4_1_reports_both_columns() {
        let r = super::tab4_1(&crate::ExperimentCtx::default());
        assert!(r.contains("Kohavi example"));
        assert!(r.contains("Translator"));
        assert!(r.contains("paper FF"));
    }
}
