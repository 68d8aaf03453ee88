//! `scalbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric as `name value unit`, then, as the last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics traced). A traced
//! run also writes its spans to `out/trace-<workload>-<seed>.json` beside
//! this crate. `scalbench --write-refs` regenerates the committed oracle
//! references under `refs/`.

use scalbench::{metrics_json, paper, run, Options};
use std::process::ExitCode;

/// The end-to-end metrics the last line carries; `failed_frac` is the
/// line's own `failed / attempted`, and `verdict_failed_frac` is printed
/// only as a line.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "ops_per_s",
    "op_ms_p50",
    "op_ms_p90",
    "peak_rss_mib",
];

const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
const REFS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/refs");

fn parse_args() -> Result<Option<Options>, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        corrupt: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?,
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => opts.trace = value()? == "1",
            "--tiny" => opts.tiny = true,
            "--write-refs" => return Ok(None),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(Some(opts))
}

fn write_refs() -> Result<(), String> {
    for (stem, make) in paper::reference_makers() {
        let r = make();
        eprintln!(
            "{stem}: {} faults, {} undetected",
            r.lines.len(),
            r.undetected()
        );
        std::fs::write(format!("{REFS_DIR}/{stem}.tsv"), r.to_file())
            .map_err(|e| format!("{stem}: {e}"))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(Some(o)) => o,
        Ok(None) => {
            return match write_refs() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("scalbench: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("scalbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("scalbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &report.failures {
        eprintln!("check failed: {f}");
    }
    for k in &report.per_kind {
        eprintln!(
            "kind {}: {} ops, {} failed ({} with differing verdicts), p50 {:.3} ms",
            k.name, k.ops, k.failed, k.verdicts_failed, k.p50_ms
        );
    }
    let shown = if opts.trace {
        &report.layers
    } else {
        &report.end_to_end
    };
    for (name, value, unit) in shown {
        println!("{name} {value} {unit}");
    }
    if let Some(json) = &report.trace_json {
        let path = format!("{OUT_DIR}/trace-{}-{}.json", opts.workload, opts.seed);
        if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, json))
        {
            eprintln!("scalbench: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("spans written to {path}");
    }
    let metrics: Vec<_> = if opts.trace {
        report.layers.clone()
    } else {
        report
            .end_to_end
            .iter()
            .filter(|m| END_TO_END.contains(&m.0))
            .copied()
            .collect()
    };
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics_json(&metrics)
    );
    ExitCode::SUCCESS
}
