//! Exhaustive fault-simulation throughput (the engine behind Figs. 3.6/3.7
//! and the verification of every SCAL network in the repo): the compiled
//! `scal-engine` campaign against the seed's scalar paths, on the paper's
//! combinational networks (8-bit ripple adder) and the Kohavi machine.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use scal_core::paper::{fig3_7, ripple_adder};
use scal_faults::{enumerate_faults, Campaign, Fault};
use scal_netlist::Circuit;
use scal_seq::kohavi::kohavi_0101;
use scal_seq::{dual_ff_machine, Campaign as SeqCampaignBuilder};

fn scalar_campaign(circuit: &Circuit, faults: &[Fault]) -> usize {
    // Seed reference: one scalar `eval_with` graph walk per (fault, period).
    let n = circuit.inputs().len();
    let mut detected = 0usize;
    for fault in faults {
        let ov = [fault.to_override()];
        for m in 0..(1u32 << n) {
            let m2 = !m & ((1u32 << n) - 1);
            if m > m2 {
                continue;
            }
            let x: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
            let y: Vec<bool> = x.iter().map(|&b| !b).collect();
            let f1 = circuit.eval_with(&x, &ov);
            let f2 = circuit.eval_with(&y, &ov);
            if f1.iter().zip(&f2).any(|(a, b)| a == b) {
                detected += 1;
                break;
            }
        }
    }
    detected
}

fn bench(c: &mut Criterion) {
    let fig = fig3_7();
    let adder = ripple_adder(4);

    let mut group = c.benchmark_group("fault_sim");
    group.bench_function("fig3_7_engine", |b| {
        b.iter_batched(
            || fig.circuit.clone(),
            |c| Campaign::new(&c).run().unwrap(),
            BatchSize::SmallInput,
        );
    });
    group.bench_function("fig3_7_scalar_reference", |b| {
        let faults = enumerate_faults(&fig.circuit);
        b.iter(|| scalar_campaign(&fig.circuit, &faults));
    });
    group.bench_function("adder4_engine", |b| {
        b.iter(|| Campaign::new(&adder).run().unwrap());
    });
    group.finish();
}

/// Engine vs seed scalar on the 8-bit ripple adder (17 inputs, 2^16
/// canonical pairs). The scalar paths are restricted to a fault subset to
/// keep wall time sane; the engine is also timed on the full universe.
fn bench_adder8(c: &mut Criterion) {
    let adder = ripple_adder(8);
    let faults = enumerate_faults(&adder);
    let subset: Vec<Fault> = faults.iter().copied().take(8).collect();

    let mut group = c.benchmark_group("adder8");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(5));
    group.bench_function("engine_8faults", |b| {
        b.iter(|| Campaign::new(&adder).faults(subset.clone()).run().unwrap());
    });
    group.bench_function("engine_8faults_drop", |b| {
        b.iter(|| {
            Campaign::new(&adder)
                .faults(subset.clone())
                .drop_after_detection(true)
                .run()
                .unwrap()
        });
    });
    group.bench_function("scalar_8faults", |b| {
        b.iter(|| {
            Campaign::new(&adder)
                .faults(subset.clone())
                .scalar()
                .run()
                .unwrap()
        });
    });
    group.bench_function("engine_full_562faults_drop", |b| {
        b.iter(|| {
            Campaign::new(&adder)
                .faults(faults.clone())
                .drop_after_detection(true)
                .run()
                .unwrap()
        });
    });
    group.finish();
}

/// Engine vs scalar sequential campaign on the Kohavi 0101 machine.
fn bench_kohavi(c: &mut Criterion) {
    let machine = dual_ff_machine(&kohavi_0101());
    let words: Vec<Vec<bool>> = (0..16u32).map(|i| vec![i % 3 == 1]).collect();

    let mut group = c.benchmark_group("kohavi");
    group.bench_function("engine_seq_campaign", |b| {
        b.iter(|| SeqCampaignBuilder::new(&machine, &words).run().unwrap());
    });
    group.bench_function("scalar_seq_campaign", |b| {
        b.iter(|| {
            SeqCampaignBuilder::new(&machine, &words)
                .scalar()
                .run()
                .unwrap()
        });
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
    targets = bench, bench_adder8, bench_kohavi
}
criterion_main!(benches);
