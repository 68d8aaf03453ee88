//! Compile-time fault collapsing as a campaign multiplier: end-to-end
//! campaigns with collapsing on vs off (8-bit ripple adder pair sweep, the
//! interpreted CPU adder campaign), plus the collapsing pass itself on a
//! 100k-gate random self-dual network to show the analysis stays a
//! negligible fraction of compile time at scale.

use criterion::{criterion_group, criterion_main, Criterion};
use scal_core::paper::ripple_adder;
use scal_engine::{collapse_overrides, CompiledCircuit};
use scal_faults::{enumerate_faults, Campaign};
use scal_netlist::synth::{self, SynthKind};
use scal_system::campaign::Campaign as CpuCampaign;
use scal_system::CpuUnit;

fn bench_adder8(c: &mut Criterion) {
    let adder = ripple_adder(8);

    let mut group = c.benchmark_group("fault_collapse");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(5));
    for (name, collapse) in [("adder8_collapse_on", true), ("adder8_collapse_off", false)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                Campaign::new(&adder)
                    .drop_after_detection(true)
                    .fault_collapse(collapse)
                    .run()
                    .unwrap()
            });
        });
    }
    for (name, collapse) in [
        ("cpu_adder_collapse_on", true),
        ("cpu_adder_collapse_off", false),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                CpuCampaign::new(CpuUnit::Adder)
                    .fault_collapse(collapse)
                    .run()
                    .expect("default workloads pass fault-free")
            });
        });
    }
    group.finish();
}

fn bench_selfdual100k(c: &mut Criterion) {
    // Generated and compiled once; only the collapsing pass itself is timed.
    let circuit = synth::generate(SynthKind::RandomSelfDual, 100_000, 42);
    let compiled = CompiledCircuit::try_compile(&circuit).expect("combinational synth circuit");
    let overrides: Vec<_> = enumerate_faults(&circuit)
        .iter()
        .map(|f| f.to_override())
        .collect();

    let mut group = c.benchmark_group("fault_collapse");
    group.sample_size(10);
    group.bench_function("selfdual100k_collapse_pass", |b| {
        b.iter(|| collapse_overrides(&compiled, &overrides));
    });
    group.finish();
}

fn short() -> Criterion {
    Criterion::default()
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
        .sample_size(20)
}

criterion_group! {
    name = benches;
    config = short();
    targets = bench_adder8, bench_selfdual100k
}
criterion_main!(benches);
