//! Chapter 6 experiments: minority modules.

use scal_faults::Campaign;
use scal_minority::{convert_to_alternating, fig6_2_example};
use scal_netlist::{Circuit, GateKind};
use std::fmt::Write;

/// Fig. 6.1 — minority-module primitives: the truth table, majority from
/// two minority modules, NAND from one module (completeness, Theorem 6.1).
#[must_use]
pub fn fig6_1(_ctx: &crate::ExperimentCtx) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== Fig 6.1: minority module primitives ==");
    let _ = writeln!(s, "3-input minority truth table (x1 x2 x3 -> m):");
    for m in 0..8u32 {
        let bits: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
        let _ = writeln!(
            s,
            "  {} {} {} -> {}",
            u8::from(bits[0]),
            u8::from(bits[1]),
            u8::from(bits[2]),
            u8::from(GateKind::Minority.eval(&bits))
        );
    }
    // Completeness: NAND2 and NOT from single modules.
    let mut c = Circuit::new();
    let a = c.input("a");
    let b = c.input("b");
    let nand = scal_minority::nand2_from_minority(&mut c, a, b);
    let inv = scal_minority::not_from_minority(&mut c, a);
    let maj = scal_minority::majority_from_minority(&mut c, &[a, b, a]);
    c.mark_output("nand", nand);
    c.mark_output("not", inv);
    c.mark_output("maj", maj);
    let ok = (0..4u32).all(|m| {
        let av = m & 1 == 1;
        let bv = m & 2 != 0;
        let out = c.eval(&[av, bv]);
        out[0] != (av && bv) && out[1] != av && out[2] == av
    });
    let _ = writeln!(
        s,
        "NAND = m3(a,b,0), NOT = m3(a,0,1), MAJ = m3(m3(X),m3(X),m3(X)): all verified: {ok}"
    );
    let _ = writeln!(
        s,
        "=> the minority module is a complete gate set (Theorem 6.1)"
    );
    s
}

/// Fig. 6.2 + Theorems 6.2/6.3 — NAND/NOR-to-minority conversion: the cost
/// triangle (NAND net / direct conversion / minimal realization) and the
/// self-checking property of converted networks.
#[must_use]
pub fn fig6_2(ctx: &crate::ExperimentCtx) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== Fig 6.2 / Thms 6.2-6.3: NAND->minority conversion ==");
    let fig = fig6_2_example();
    let rows = [
        (
            "Fig 6.2a NAND realization",
            fig.nand_net.cost().gates,
            fig.nand_net.cost().gate_inputs,
            "4 gates, 9 inputs",
        ),
        (
            "Fig 6.2b direct conversion",
            fig.direct.cost().threshold_modules,
            fig.direct.cost().gate_inputs,
            "4 modules, 14 inputs",
        ),
        (
            "Fig 6.2c minimal realization",
            fig.minimal.cost().threshold_modules,
            fig.minimal.cost().gate_inputs,
            "1 module, 3 inputs",
        ),
    ];
    let _ = writeln!(
        s,
        "{:<30} {:>6} {:>7}   paper",
        "realization", "units", "inputs"
    );
    for (name, units, inputs, paper) in rows {
        let _ = writeln!(s, "{name:<30} {units:>6} {inputs:>7}   {paper}");
    }

    // Theorem validation across arities on a NAND chain and a NOR net.
    let mut nand_chain = Circuit::new();
    let a = nand_chain.input("a");
    let b = nand_chain.input("b");
    let d = nand_chain.input("d");
    let g1 = nand_chain.nand(&[a, b]);
    let g2 = nand_chain.nand(&[g1, d]);
    let g3 = nand_chain.nand(&[g1, g2, a]);
    nand_chain.mark_output("f", g3);
    let alt = convert_to_alternating(&nand_chain).expect("NAND network converts");
    let results = Campaign::new(&alt)
        // Pin the pattern-major path: the tracer narrates per-fault cone
        // stats, which auto fault-packing would fold into lane batches.
        .fault_packing(false)
        .eval_mode(ctx.eval_mode())
        .observer(ctx)
        .coverage(ctx.coverage())
        .run()
        .expect("alternating realization")
        .results;
    let secure = results
        .iter()
        .all(scal_faults::CampaignResult::fault_secure);
    let tested = results.iter().all(scal_faults::CampaignResult::tested);
    let _ = writeln!(
        s,
        "\nconverted NAND chain: {} minority modules; all outputs self-dual: {}; exhaustive campaign: fault-secure {}, all faults tested {}",
        alt.cost().threshold_modules,
        alt.output_tts().iter().all(scal_logic::Tt::is_self_dual),
        secure,
        tested
    );
    let _ = writeln!(
        s,
        "each N-input NAND costs one m(2N-1) with K = N-1 period-clock pads (Theorem 6.2); NOR pads with the complemented clock (Theorem 6.3)"
    );
    s
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig6_1_verifies_primitives() {
        assert!(super::fig6_1(&crate::ExperimentCtx::default()).contains("all verified: true"));
    }

    #[test]
    fn fig6_2_matches_paper_costs() {
        let r = super::fig6_2(&crate::ExperimentCtx::default());
        assert!(r.contains("4 modules, 14 inputs"));
        assert!(r.contains("fault-secure true"));
    }
}
