//! Chapter 2 experiment: the self-dual adder of Fig. 2.2.

use scal_core::paper::{ripple_adder, self_dual_adder};
use scal_faults::Campaign;
use std::fmt::Write;

/// Fig. 2.2 — the self-dual (Liu) full adder: verify self-duality of both
/// outputs, zero added hardware for alternation, and full self-checking by
/// exhaustive single-fault campaign; then scale to a ripple adder.
#[must_use]
pub fn fig2_2(ctx: &crate::ExperimentCtx) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== Fig 2.2: self-dual adder ==");
    let adder = self_dual_adder();
    let cost = adder.cost();
    let tts = adder.output_tts();
    let _ = writeln!(
        s,
        "full adder: {} gates ({} gate inputs), {} flip-flops",
        cost.gates, cost.gate_inputs, cost.flip_flops
    );
    let _ = writeln!(
        s,
        "sum self-dual: {}   carry self-dual: {}   (alternating with NO added hardware)",
        tts[0].is_self_dual(),
        tts[1].is_self_dual()
    );
    let report = Campaign::new(&adder)
        // The experiments tracer narrates per-fault observability (the
        // requested eval-mode payload, cone stats), so pin the
        // pattern-major path: auto fault-packing would fold those events
        // into lane batches and report eval mode "full".
        .fault_packing(false)
        .eval_mode(ctx.eval_mode())
        .observer(ctx)
        .coverage(ctx.coverage())
        .run()
        .expect("adder verifies");
    let _ = writeln!(
        s,
        "exhaustive SCAL verification: {} faults x {} pairs -> fault-secure: {}, self-testing: {}",
        report.results.len(),
        1usize << (adder.inputs().len() - 1),
        report.all_fault_secure(),
        report.all_tested()
    );

    for bits in [2usize, 4, 8] {
        let ra = ripple_adder(bits);
        let c = ra.cost();
        let sd = ra.output_tts().iter().all(scal_logic::Tt::is_self_dual);
        let _ = writeln!(
            s,
            "{bits}-bit ripple adder: {} gates, all outputs self-dual: {sd}",
            c.gates
        );
    }
    s
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_mentions_key_facts() {
        let r = super::fig2_2(&crate::ExperimentCtx::default());
        assert!(r.contains("fault-secure: true"));
        assert!(r.contains("self-testing: true"));
        assert!(r.contains("sum self-dual: true"));
    }
}
