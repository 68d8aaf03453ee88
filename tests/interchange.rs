//! Netlist interchange integration: every fixture of the reproduction and
//! every synthetic generator round-trips bit-identically through all three
//! formats (scal text, structural Verilog, ISCAS-style bench), `read_path`
//! auto-detects formats, and a ≥100k-gate generated design flows through
//! the whole pipeline — serialize, reparse, compile, fault campaign —
//! fast enough to prove the linear validate/topo passes.

use scal::core::paper;
use scal::netlist::synth::{self, SynthKind};
use scal::netlist::{assert_circuit_eq, Circuit, NetlistFormat};
use std::time::{Duration, Instant};

const FORMATS: [NetlistFormat; 3] = [
    NetlistFormat::ScalText,
    NetlistFormat::Verilog,
    NetlistFormat::Bench,
];

fn fixtures() -> Vec<(&'static str, Circuit)> {
    vec![
        ("fig3_4", paper::fig3_4().circuit),
        (
            "kohavi_codeconv",
            scal::seq::code_conversion_machine(&scal::seq::kohavi::kohavi_0101()).circuit,
        ),
        ("adder8", paper::ripple_adder(8)),
        ("cpu_adder", scal::system::Datapath::new().adder),
    ]
}

/// write → read → write is bit-stable and read reproduces the circuit.
fn check_round_trip(name: &str, circuit: &Circuit, format: NetlistFormat) {
    let text = circuit.write_string(format);
    let back =
        Circuit::read(&text, format).unwrap_or_else(|e| panic!("{name}/{}: {e}", format.name()));
    assert_circuit_eq(circuit, &back);
    assert_eq!(
        back.write_string(format),
        text,
        "{name}/{}: reprint drifted",
        format.name()
    );
}

#[test]
fn fixtures_round_trip_bit_identically_in_every_format() {
    for (name, circuit) in fixtures() {
        for format in FORMATS {
            check_round_trip(name, &circuit, format);
        }
    }
}

#[test]
fn seeded_synthetics_round_trip_in_every_format() {
    for kind in SynthKind::ALL {
        for seed in [1u64, 99] {
            let circuit = synth::generate(kind, 10_000, seed);
            circuit.validate().expect("generated circuits are valid");
            for format in FORMATS {
                check_round_trip(kind.name(), &circuit, format);
            }
        }
    }
}

#[test]
fn generators_are_seed_deterministic_across_serialization() {
    // Same (kind, size, seed) → byte-identical files; different seed →
    // different bytes for the randomized generator.
    let a = synth::generate(SynthKind::RandomSelfDual, 5_000, 7);
    let b = synth::generate(SynthKind::RandomSelfDual, 5_000, 7);
    let c = synth::generate(SynthKind::RandomSelfDual, 5_000, 8);
    for format in FORMATS {
        assert_eq!(a.write_string(format), b.write_string(format));
        assert_ne!(a.write_string(format), c.write_string(format));
    }
}

#[test]
fn read_path_autodetects_every_extension_and_sniffs_unknown_ones() {
    let dir = std::env::temp_dir().join(format!("scal_interchange_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let circuit = paper::ripple_adder(4);
    for (file, format) in [
        ("adder.scal", NetlistFormat::ScalText),
        ("adder.txt", NetlistFormat::ScalText),
        ("adder.v", NetlistFormat::Verilog),
        ("adder.bench", NetlistFormat::Bench),
    ] {
        let path = dir.join(file);
        std::fs::write(&path, circuit.write_string(format)).expect("write fixture");
        let back = Circuit::read_path(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_circuit_eq(&circuit, &back);
    }
    // No recognized extension: content sniffing decides.
    for format in FORMATS {
        let path = dir.join(format!("sniffed_{}", format.name()));
        std::fs::write(&path, circuit.write_string(format)).expect("write fixture");
        let back =
            Circuit::read_path(&path).unwrap_or_else(|e| panic!("sniff {}: {e}", format.name()));
        assert_circuit_eq(&circuit, &back);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hundred_k_gate_design_flows_through_the_whole_pipeline() {
    let circuit = synth::generate(SynthKind::RandomSelfDual, 100_000, 42);
    assert!(
        circuit.len() >= 100_000,
        "generator undershot: {} nodes",
        circuit.len()
    );

    // The linear CSR passes must stay linear: on 100k nodes a quadratic
    // scan takes minutes even in release builds, so a generous wall-clock
    // bound still catches the regression reliably.
    let t = Instant::now();
    circuit.validate().expect("valid at 100k gates");
    let order = circuit.topo_order();
    assert_eq!(order.len(), circuit.len());
    let structural = t.elapsed();
    assert!(
        structural < Duration::from_secs(10),
        "validate + topo_order took {structural:?} on 100k nodes — quadratic scan regression?"
    );

    // All three formats survive the size and stay bit-identical.
    for format in FORMATS {
        check_round_trip("selfdual_100k", &circuit, format);
    }

    // The standard campaign builder compiles it and completes a truncated
    // fault sweep.
    let faults: Vec<_> = scal::faults::enumerate_faults(&circuit)
        .into_iter()
        .take(64)
        .collect();
    let report = scal::faults::Campaign::new(&circuit)
        .faults(faults)
        .threads(1)
        .run()
        .expect("100k-gate campaign runs");
    assert_eq!(report.results.len(), 64);
}
