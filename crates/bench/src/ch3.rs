//! Chapter 3 experiments: test derivation (Fig. 3.1), the multi-output
//! example (Figs. 3.4/3.5), its fault table (Fig. 3.6), and the fix
//! (Fig. 3.7).

use scal_analysis::{analyze, derive_tests};
use scal_core::paper::{self, vector_string};
use scal_faults::{classify_pair, response_pair, PairOutcome};
use scal_netlist::{Circuit, Site};
use std::fmt::Write;

/// Fig. 3.1 / §3.2 — Theorem 3.2 test derivation: prints the K-map-style
/// sets `G`, `F(X,G(X))`, `F(X,0)`, `A`, `B`, `E` and the derived stuck-at-0
/// tests, matching the paper's {1011, 0110, 0100, 1001} with pairs
/// (1011,0100) and (0110,1001).
#[must_use]
pub fn fig3_1(_ctx: &crate::ExperimentCtx) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== Fig 3.1 / Thm 3.2: stuck-at test derivation ==");
    let (c, g) = paper::fig3_1_example();
    let tts = scal_analysis::all_node_tts(&c);
    let funcs = scal_analysis::line_functions(&c, &tts, g);
    let fmt_set = |t: &scal_logic::Tt| -> String {
        let v: Vec<String> = t.minterms().map(|m| vector_string(m, 4)).collect();
        if v.is_empty() {
            "{}".to_owned()
        } else {
            format!("{{{}}}", v.join(", "))
        }
    };
    let a = &funcs.stuck0[0] ^ &funcs.normal[0];
    let b = a.flip_inputs();
    let e = &a & &b;
    let _ = writeln!(s, "G(X)        = {}", fmt_set(&funcs.g));
    let _ = writeln!(s, "F(X,G(X))   = {}", fmt_set(&funcs.normal[0]));
    let _ = writeln!(s, "F(X,0)      = {}", fmt_set(&funcs.stuck0[0]));
    let _ = writeln!(s, "A = F(X,0) xor F(X,G) = {}", fmt_set(&a));
    let _ = writeln!(s, "B = A(Xbar)           = {}", fmt_set(&b));
    let _ = writeln!(
        s,
        "E = A & B             = {}  (E = 0: testable)",
        fmt_set(&e)
    );
    let (t0, t1) = derive_tests(&c, g, 0);
    let tests: Vec<String> = t0.tests.iter().map(|&m| vector_string(m, 4)).collect();
    let pairs: Vec<String> = t0
        .pairs
        .iter()
        .map(|&(x, y)| format!("({}, {})", vector_string(x, 4), vector_string(y, 4)))
        .collect();
    let _ = writeln!(
        s,
        "s-a-0 tests: {}   [paper: 1011, 0110, 0100, 1001]",
        tests.join(", ")
    );
    let _ = writeln!(
        s,
        "test pairs : {}   [paper: (1011,0100), (0110,1001)]",
        pairs.join(", ")
    );
    let _ = writeln!(s, "s-a-1 testable (F = 0): {}", t1.e_zero);
    s
}

fn condition_table(c: &Circuit, labels: &[(Site, &str)]) -> String {
    let mut s = String::new();
    let report = analyze(c).expect("analyzable");
    let _ = writeln!(
        s,
        "{:<42} {:>8} {:>8} {:>8}  {:<10} verdict",
        "line", "F1", "F2", "F3", "Cor.3.2"
    );
    for line in &report.lines {
        let label = labels
            .iter()
            .find(|(site, _)| *site == line.site)
            .map(|(_, l)| (*l).to_owned())
            .unwrap_or_else(|| line.site.to_string());
        let mut cells = vec!["-".to_owned(); 3];
        for oc in &line.outputs {
            cells[oc.output] = oc.witness().to_string();
        }
        let multi = if line.needs_multi_output {
            if line.multi_output_ok {
                "rescued"
            } else {
                "VIOLATES"
            }
        } else {
            ""
        };
        let verdict = if line.self_checking() { "ok" } else { "NOT SC" };
        // Print only interesting lines (labelled, or failing) to match the
        // paper's narrative; inputs and trivially-certified lines summarize.
        let interesting = labels.iter().any(|(site, _)| *site == line.site)
            || !line.self_checking()
            || line.needs_multi_output;
        if interesting {
            let _ = writeln!(
                s,
                "{label:<42} {:>8} {:>8} {:>8}  {multi:<10} {verdict}",
                cells[0], cells[1], cells[2]
            );
        }
    }
    let _ = writeln!(
        s,
        "network self-checking: {}   offending lines: {}",
        report.self_checking,
        report.offending.len()
    );
    s
}

/// Figs. 3.4/3.5 — the reconstructed multi-output example: per-line
/// Algorithm 3.1 conditions (witness letter = first passing condition),
/// Corollary 3.2 rescues, and the self-checking verdict.
#[must_use]
pub fn fig3_4(_ctx: &crate::ExperimentCtx) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== Figs 3.4/3.5: multi-output example (reconstruction) =="
    );
    let fig = paper::fig3_4();
    let _ = writeln!(
        s,
        "functions: F1 = MAJ(a',b,c), F2 = a^b^c, F3 = MAJ(a,b,c); sharing: line 9 (F2/F3), line 19 (F1/F3)"
    );
    s.push_str(&condition_table(&fig.circuit, &fig.labels));
    let _ = writeln!(
        s,
        "paper's result: line 9 rescued by the multiple-output condition; line 20 defeats self-checking"
    );
    s
}

/// Fig. 3.6 — the fault-simulation table: per labelled line and stuck
/// value, the output pair for each alternating input pair, annotated `X`
/// (non-alternating, detected) or `*` (incorrect alternating, undetected).
#[must_use]
pub fn fig3_6(ctx: &crate::ExperimentCtx) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== Fig 3.6: fault table of the example network ==");
    let fig = paper::fig3_4();
    let c = &fig.circuit;
    // Paper's pair order: first-period inputs ABC = 000, 001, 010, 011.
    let pair_minterms = [0b000u32, 0b100, 0b010, 0b110]; // a=bit0,b=bit1,c=bit2
    let header = ["(000,111)", "(001,110)", "(010,101)", "(011,100)"];
    let _ = writeln!(
        s,
        "{:<10} {:<6} {:<6} {:>10} {:>10} {:>10} {:>10}",
        "line", "stuck", "output", header[0], header[1], header[2], header[3]
    );

    let normals: Vec<(Vec<bool>, Vec<bool>)> = pair_minterms
        .iter()
        .map(|&m| response_pair(c, &[], &scal_core::drive::minterm_to_inputs(m, 3)))
        .collect();
    // Normal rows.
    for (k, name) in ["F1", "F2", "F3"].iter().enumerate() {
        let mut row = format!("{:<10} {:<6} {:<6}", "-", "normal", name);
        for n in &normals {
            let _ = write!(
                row,
                " {:>10}",
                format!("{},{}", u8::from(n.0[k]), u8::from(n.1[k]))
            );
        }
        let _ = writeln!(s, "{row}");
    }
    // Faulty rows for the labelled lines.
    for &(site, label) in &fig.labels {
        let short = label.split_whitespace().next().unwrap_or("?");
        for stuck in [false, true] {
            let ov = [scal_netlist::Override { site, value: stuck }];
            for (k, name) in ["F1", "F2", "F3"].iter().enumerate() {
                let mut row = format!(
                    "{:<10} {:<6} {:<6}",
                    short,
                    if stuck { "s/1" } else { "s/0" },
                    name
                );
                let mut any_mark = false;
                for (pi, &m) in pair_minterms.iter().enumerate() {
                    let f = response_pair(c, &ov, &scal_core::drive::minterm_to_inputs(m, 3));
                    let (outcomes, _) = classify_pair(&normals[pi], &f);
                    let mark = match outcomes[k] {
                        PairOutcome::Correct => "",
                        PairOutcome::NonAlternating => "X",
                        PairOutcome::WrongAlternating => "*",
                    };
                    if !mark.is_empty() {
                        any_mark = true;
                    }
                    let cell = format!("{},{}{}", u8::from(f.0[k]), u8::from(f.1[k]), mark);
                    let _ = write!(row, " {:>10}", cell);
                }
                if any_mark {
                    let _ = writeln!(s, "{row}");
                }
            }
        }
    }
    let _ = writeln!(s, "X = non-alternating pair (detected); * = incorrect alternating pair (undetected on that output)");
    // Cross-check with the compiled engine: sweep *every* collapsed fault
    // (not just the labelled lines) through the unified Campaign builder,
    // forwarding the observability context.
    let campaign = scal_faults::Campaign::new(c)
        // Pin the pattern-major path: the tracer narrates per-fault cone
        // stats, which auto fault-packing would fold into lane batches.
        .fault_packing(false)
        .observer(ctx)
        .coverage(ctx.coverage())
        .run()
        .expect("fig 3.4 network is alternating");
    let violating = campaign
        .results
        .iter()
        .filter(|r| !r.fault_secure())
        .count();
    let _ = writeln!(
        s,
        "engine cross-check over all {} collapsed faults: {} fault-secure violations ({} pairs swept)",
        campaign.results.len(),
        violating,
        campaign.stats.pairs_evaluated
    );
    s
}

/// Fig. 3.7 — the fanout-splitting fix: Algorithm 3.1 passes every line and
/// the exhaustive campaign confirms full self-checking.
#[must_use]
pub fn fig3_7(_ctx: &crate::ExperimentCtx) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== Fig 3.7: fixed network ==");
    let fixed = paper::fig3_7();
    s.push_str(&condition_table(&fixed.circuit, &fixed.labels));
    let v = scal_core::verify(&fixed.circuit).expect("verifies");
    let _ = writeln!(
        s,
        "exhaustive campaign: {} faults, fault-secure: {}, self-testing: {}",
        v.fault_count, v.fault_secure, v.self_testing
    );
    let before = paper::fig3_4().circuit.cost();
    let after = fixed.circuit.cost();
    let _ = writeln!(
        s,
        "cost of the fix: {} -> {} gates (+{})",
        before.gates,
        after.gates,
        after.gates - before.gates
    );
    s
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig3_1_reproduces_paper_tests() {
        let r = super::fig3_1(&crate::ExperimentCtx::default());
        for t in ["1011", "0110", "0100", "1001"] {
            assert!(r.contains(t), "missing test {t} in:\n{r}");
        }
    }

    #[test]
    fn fig3_4_flags_line_20() {
        let r = super::fig3_4(&crate::ExperimentCtx::default());
        assert!(r.contains("network self-checking: false"));
        assert!(r.contains("VIOLATES"));
        assert!(r.contains("rescued"));
    }

    #[test]
    fn fig3_6_has_both_annotations() {
        let r = super::fig3_6(&crate::ExperimentCtx::default());
        assert!(r.contains('*'), "needs an incorrect-alternating cell");
        assert!(r.contains('X'), "needs a detected cell");
    }

    #[test]
    fn fig3_7_is_clean() {
        let r = super::fig3_7(&crate::ExperimentCtx::default());
        assert!(r.contains("network self-checking: true"));
        assert!(r.contains("fault-secure: true"));
    }
}
