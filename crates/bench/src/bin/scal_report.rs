//! BENCH snapshot / regression reporter.
//!
//! ```text
//! cargo run -p scal-bench --bin scal_report                      # write BENCH_<date>.json
//! cargo run -p scal-bench --bin scal_report -- --out bench.json
//! cargo run -p scal-bench --bin scal_report -- --baseline BENCH_baseline.json
//! cargo run -p scal-bench --bin scal_report -- --baseline b.json --max-perf-drop 35
//! ```
//!
//! Runs the standard campaign suite (see `scal_bench::report::run_suite`),
//! writes the machine-readable snapshot, and — when `--baseline FILE` is
//! given — diffs against it. Exit codes: `0` clean, `1` usage or I/O error,
//! `2` coverage regression (blocking), `3` throughput regression beyond the
//! threshold (warning-grade; default 20%).

use scal_bench::report::{compare, run_large_suite, run_suite, Snapshot, DEFAULT_MAX_PERF_DROP};
use scal_engine::EvalMode;
use std::process::ExitCode;

fn usage() {
    eprintln!(
        "usage: scal_report [--out FILE] [--baseline FILE] [--max-perf-drop PCT] \
         [--threads N] [--eval-mode full|cone] [--word-width 0|1|4|8] [--fault-collapse on|off|auto] [--suite standard|large] \
         [--large-gates N] [--quiet]"
    );
    eprintln!("  --out FILE           snapshot path (default BENCH_<date>.json)");
    eprintln!("  --baseline FILE      committed snapshot to diff against");
    eprintln!("  --max-perf-drop PCT  tolerated throughput drop, percent (default 20)");
    eprintln!("  --threads N          engine worker threads (default 0 = auto)");
    eprintln!("  --eval-mode MODE     engine faulty-sweep strategy (default cone)");
    eprintln!(
        "  --word-width W       evaluation word width in 64-bit sub-words (default 0 = auto)"
    );
    eprintln!(
        "  --fault-collapse X   compile-time fault collapsing across the suite (default auto = on)"
    );
    eprintln!("  --suite NAME         standard paper suite or synthetic large tier");
    eprintln!("  --large-gates N      target gate count of large-suite designs (default 100000)");
    eprintln!("  --quiet              suppress the human-readable summary");
}

struct Options {
    out: Option<String>,
    baseline: Option<String>,
    max_perf_drop: f64,
    threads: usize,
    eval_mode: EvalMode,
    word_width: usize,
    fault_collapse: bool,
    large: bool,
    large_gates: usize,
    quiet: bool,
}

fn parse_args(args: Vec<String>) -> Result<Options, String> {
    let mut opts = Options {
        out: None,
        baseline: None,
        max_perf_drop: DEFAULT_MAX_PERF_DROP,
        threads: 0,
        eval_mode: EvalMode::default(),
        word_width: 0,
        fault_collapse: true,
        large: false,
        large_gates: 100_000,
        quiet: false,
    };
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| iter.next().ok_or(format!("{flag} needs an argument"));
        match arg.as_str() {
            "--out" => opts.out = Some(value("--out")?),
            "--baseline" => opts.baseline = Some(value("--baseline")?),
            "--max-perf-drop" => {
                let raw = value("--max-perf-drop")?;
                let pct: f64 = raw
                    .parse()
                    .map_err(|_| format!("bad --max-perf-drop value {raw:?}"))?;
                if !(0.0..=100.0).contains(&pct) {
                    return Err(format!("--max-perf-drop {pct} outside 0..=100"));
                }
                opts.max_perf_drop = pct / 100.0;
            }
            "--threads" => {
                let raw = value("--threads")?;
                opts.threads = raw
                    .parse()
                    .map_err(|_| format!("bad --threads value {raw:?}"))?;
            }
            "--eval-mode" => {
                let raw = value("--eval-mode")?;
                opts.eval_mode = raw
                    .parse()
                    .map_err(|_| format!("bad --eval-mode value {raw:?} (want full|cone)"))?;
            }
            "--word-width" => {
                let raw = value("--word-width")?;
                opts.word_width = raw
                    .parse()
                    .ok()
                    .filter(|&w| w == 0 || scal_engine::WORD_WIDTHS.contains(&w))
                    .ok_or(format!(
                        "bad --word-width value {raw:?} (want 0, 1, 4 or 8)"
                    ))?;
            }
            "--fault-collapse" => {
                // Applied to every suite campaign (pair, sequential, CPU,
                // large tier); `auto` is the engine default, on.
                let raw = value("--fault-collapse")?;
                opts.fault_collapse = match raw.as_str() {
                    "on" | "auto" => true,
                    "off" => false,
                    _ => {
                        return Err(format!(
                            "bad --fault-collapse value {raw:?} (want on|off|auto)"
                        ))
                    }
                };
            }
            "--suite" => {
                let raw = value("--suite")?;
                opts.large = match raw.as_str() {
                    "standard" => false,
                    "large" => true,
                    _ => return Err(format!("bad --suite value {raw:?} (want standard|large)")),
                };
            }
            "--large-gates" => {
                let raw = value("--large-gates")?;
                opts.large_gates = raw
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or(format!("bad --large-gates value {raw:?}"))?;
            }
            "--quiet" => opts.quiet = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

fn report(opts: &Options) -> Result<ExitCode, String> {
    let snap: Snapshot = if opts.large {
        run_large_suite(
            opts.threads,
            opts.eval_mode,
            opts.large_gates,
            opts.word_width,
            opts.fault_collapse,
        )
    } else {
        run_suite(
            opts.threads,
            opts.eval_mode,
            opts.word_width,
            opts.fault_collapse,
        )
    };
    if !opts.quiet {
        print!("{}", snap.render());
    }
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| format!("BENCH_{}.json", snap.date));
    std::fs::write(&out, snap.to_json() + "\n").map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!("snapshot written to {out}");

    let Some(baseline_path) = &opts.baseline else {
        return Ok(ExitCode::SUCCESS);
    };
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let baseline = scal_obs::json::parse(&text)
        .map_err(|e| format!("baseline {baseline_path} is not valid JSON: {e}"))?;
    let regressions = compare(&snap, &baseline, opts.max_perf_drop);
    if regressions.is_empty() {
        eprintln!("no regressions against {baseline_path}");
        return Ok(ExitCode::SUCCESS);
    }
    for r in &regressions {
        eprintln!(
            "{}: {}: {}",
            if r.coverage {
                "COVERAGE REGRESSION"
            } else {
                "perf regression"
            },
            r.circuit,
            r.detail
        );
    }
    if regressions.iter().any(|r| r.coverage) {
        Ok(ExitCode::from(2))
    } else {
        Ok(ExitCode::from(3))
    }
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1).collect()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    match report(&opts) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
