//! End-to-end checks of the `scal_run` binary on a small generated design:
//! the interchange round trip and the campaign-summary invariants that the
//! 100k-gate CI smoke job checks at full size.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scal_run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scal_run"))
        .args(args)
        .output()
        .expect("spawn scal_run")
}

/// A fresh directory for one test's files.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scal_run_{test}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("utf-8 path")
}

/// Writes `gen --kind KIND --gates N --seed 42` to `dir/name`.
fn gen(dir: &Path, kind: &str, gates: &str, name: &str) -> PathBuf {
    let out = dir.join(name);
    let o = scal_run(&[
        "gen",
        "--kind",
        kind,
        "--gates",
        gates,
        "--seed",
        "42",
        "--out",
        path_str(&out),
    ]);
    assert!(o.status.success(), "gen failed: {o:?}");
    out
}

/// The summary line `run` prints for the first 128 faults on one thread.
fn run_line(design: &Path, extra: &[&str]) -> String {
    let mut args = vec![
        "run",
        path_str(design),
        "--threads",
        "1",
        "--max-faults",
        "128",
    ];
    args.extend_from_slice(extra);
    let o = scal_run(&args);
    assert!(o.status.success(), "run {extra:?} failed: {o:?}");
    String::from_utf8(o.stdout).expect("utf-8 stdout")
}

/// The first `n` comma-separated fields of a summary line, as CI's
/// `cut -d, -f1-N` sees them.
fn fields(line: &str, n: usize) -> String {
    let fields: Vec<&str> = line.trim_end().split(',').take(n).collect();
    assert_eq!(fields.len(), n, "short summary line {line:?}");
    fields.join(",")
}

#[test]
fn verilog_bench_verilog_round_trip_is_byte_identical() {
    let dir = scratch_dir("round_trip");
    let v = gen(&dir, "selfdual", "2000", "d.v");
    let bench = dir.join("d.bench");
    let back = dir.join("d_rt.v");
    for (from, to) in [(&v, &bench), (&bench, &back)] {
        let o = scal_run(&["convert", path_str(from), path_str(to)]);
        assert!(o.status.success(), "convert failed: {o:?}");
    }
    let original = std::fs::read(&v).unwrap();
    assert!(!original.is_empty());
    assert!(
        original == std::fs::read(&back).unwrap(),
        "round trip drifted"
    );
    let o = scal_run(&["info", path_str(&bench)]);
    assert!(o.status.success(), "info failed: {o:?}");
    let info = String::from_utf8(o.stdout).unwrap();
    assert!(
        info.contains("format bench") && info.contains("combinational"),
        "{info}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn default_run_prints_pinned_coverage_and_pairs() {
    let dir = scratch_dir("default_run");
    let v = gen(&dir, "selfdual", "2000", "d.v");
    let line = run_line(&v, &[]);
    // Pinned counters: the pairs field is the campaign's own
    // `pairs_evaluated`, and collapsing leaves 126 of the 128 faults.
    assert!(
        fields(&line, 3)
            .ends_with(": 128/11356 faults swept, 114 detected (89.1% of swept), 516096 pairs"),
        "{line}"
    );
    assert!(
        line.trim_end().ends_with(", collapse 1.02x (126 reps)"),
        "{line}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fault_collapse_prints_identical_coverage() {
    let dir = scratch_dir("collapse");
    let v = gen(&dir, "selfdual", "2000", "d.v");
    let plain = run_line(&v, &["--fault-collapse", "off"]);
    let collapsed = run_line(&v, &["--fault-collapse", "on"]);
    assert_eq!(fields(&plain, 2), fields(&collapsed, 2));
    // Uncollapsed, every fault simulates every pair and no ratio prints.
    assert!(fields(&plain, 3).ends_with(", 524288 pairs"), "{plain}");
    assert!(!plain.contains(", collapse"), "{plain}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn run_rejects_a_sequential_design_with_exit_2() {
    let dir = scratch_dir("sequential");
    let v = gen(&dir, "chain", "200", "c.v");
    let o = scal_run(&["run", path_str(&v)]);
    assert_eq!(o.status.code(), Some(2), "{o:?}");
    assert!(String::from_utf8_lossy(&o.stderr).contains("campaign rejected"));
    std::fs::remove_dir_all(&dir).unwrap();
}
