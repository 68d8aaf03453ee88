//! The benchmark's own tests, on tiny runs. Run them with
//! `cargo test --release --manifest-path scalbench/Cargo.toml`.

use scal_obs::json::{self, JsonValue};
use scal_system::campaign::CpuUnit;
use scalbench::check::Projection;
use scalbench::paper::{committed, cpu_map};
use scalbench::{run, Options, Report, WORKLOADS};
use std::process::Command;

fn options(workload: &str, trace: bool, corrupt: bool) -> Options {
    Options {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.2,
        trace,
        tiny: true,
        corrupt,
    }
}

fn tiny(workload: &str, trace: bool) -> Report {
    run(&options(workload, trace, false)).expect("tiny run")
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let bench = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
    bench
        .get(key)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn tiny_runs_print_every_declared_metric_with_its_unit() {
    for w in WORKLOADS {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_scalbench"))
                .args(["--workload", w, "--seed", "7", "--seconds", "0.2"])
                .args(["--trace", trace, "--tiny"])
                .output()
                .expect("run scalbench");
            assert!(out.status.success(), "{w}: exit {:?}", out.status);
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let last = json::parse(stdout.lines().last().expect("output")).expect("last line");
            let metrics = last.get("metrics").expect("metrics");
            let want = declared(key);
            for (name, unit) in &want {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{w}: {name} missing"));
                assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some(&**unit));
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.starts_with(&format!("{name} "))
                            && l.ends_with(&format!(" {unit}"))),
                    "{w}: no `{name} value {unit}` line"
                );
            }
            let JsonValue::Object(fields) = metrics else {
                panic!("metrics is not an object")
            };
            assert_eq!(fields.len(), want.len(), "{w}: undeclared metrics");
            assert!(last.get("attempted").and_then(JsonValue::as_f64) > Some(0.0));
        }
    }
}

#[test]
fn every_op_passes_its_check() {
    for w in WORKLOADS {
        let r = tiny(w, false);
        assert!(r.attempted > 0, "{w}: no ops");
        assert_eq!(r.failed, 0, "{w}: {:?}", r.failures);
    }
}

/// A known defect of the CPU campaign: its per-fault `pairs` is cumulative
/// across faults, so a collapsed run (the default, and what a serve CPU job
/// runs) and the collapse-off oracle disagree on it while their verdicts
/// agree. No workload runs CPU campaigns until it is fixed. The fix must
/// regenerate `refs/` with `--write-refs`, turn this test around and put
/// the CPU job back into `serve_mix`.
#[test]
fn the_known_cpu_defect_fails_the_full_check() {
    let want = committed("cpu_logic_popcount");
    let got = cpu_map(CpuUnit::Logic, "popcount(0xB7)", 50_000, true);
    let err = want.check(&got, Projection::Full).unwrap_err();
    assert!(err.contains("first differing fault"), "{err}");
    assert_eq!(want.check(&got, Projection::Verdict), Ok(()));
}

#[test]
fn a_corrupted_reference_fails_every_check() {
    let r = run(&options("paper_small", false, true)).expect("tiny run");
    assert!(r.attempted > 0);
    assert_eq!(r.failed, r.attempted, "every op must fail its check");
    assert!(
        r.per_kind.iter().all(|k| k.verdicts_failed == k.ops),
        "the spoilt records' verdicts differ too"
    );
    assert!(
        r.failures[0].contains("first differing fault"),
        "{:?}",
        r.failures
    );
}

#[test]
fn paper_small_layer_times_sum_to_op_wall_time() {
    let r = tiny("paper_small", true);
    let get = |n: &str| r.layers.iter().find(|m| m.0 == n).expect(n).1;
    let layers = [
        "netlist.parse_ms",
        "faults.enumerate_ms",
        "engine.compile_ms",
        "engine.collapse_ms",
        "engine.golden_ms",
        "engine.fault_sim_ms",
        "engine.merge_ms",
        "engine.unattributed_ms",
        "obs.coverage_ms",
        "obs.to_json_ms",
    ];
    let sum: f64 = layers.iter().map(|n| get(n)).sum();
    let wall = get("bench.traced_op_ms");
    // What the layers leave over is the benchmark's own glue inside an op.
    assert!((sum + get("bench.op_self_ms") - wall).abs() < 0.01 * wall);
    assert!(
        (wall - sum).abs() < 0.1 * wall,
        "layers {sum} ms vs op wall {wall} ms"
    );
    for format in ["text", "verilog", "bench"] {
        assert!(
            get(&format!("netlist.parse_mb_per_s.{format}")) > 0.0,
            "{format}"
        );
    }
}
