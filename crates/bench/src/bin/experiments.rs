//! The experiment harness: regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run -p scal-bench --bin experiments -- all
//! cargo run -p scal-bench --bin experiments -- tab4_1 fig3_6
//! cargo run -p scal-bench --bin experiments -- ext_engine --trace out.jsonl
//! cargo run -p scal-bench --bin experiments -- all --metrics
//! ```
//!
//! `--trace FILE` streams every campaign event the selected experiments
//! emit as JSON lines; `--metrics` prints aggregated counters and phase
//! wall-time histograms after the reports; `--coverage-out FILE` writes one
//! per-fault coverage map per campaign as JSON lines; `--profile` prints
//! the per-phase timing tree of every campaign.

use scal_bench::ExperimentCtx;
use std::process::ExitCode;

fn usage() {
    eprintln!(
        "usage: experiments [--trace FILE] [--metrics] [--coverage-out FILE] [--profile] \
         <id>... | all | list"
    );
    eprintln!("ids:");
    for (id, _) in scal_bench::EXPERIMENTS {
        eprintln!("  {id}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ctx = ExperimentCtx::new();
    let mut ids: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--trace" => {
                let Some(path) = iter.next() else {
                    eprintln!("--trace needs a file argument");
                    return ExitCode::FAILURE;
                };
                if let Err(e) = ctx.set_trace(&path) {
                    eprintln!("cannot create trace file {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            "--metrics" => ctx.enable_metrics(),
            "--coverage-out" => {
                let Some(path) = iter.next() else {
                    eprintln!("--coverage-out needs a file argument");
                    return ExitCode::FAILURE;
                };
                ctx.set_coverage_out(path);
            }
            "--profile" => ctx.enable_profile(),
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}");
                usage();
                return ExitCode::FAILURE;
            }
            id => ids.push(id.to_owned()),
        }
    }
    if ids.is_empty() {
        usage();
        return ExitCode::FAILURE;
    }
    if ids.len() == 1 && ids[0] == "list" {
        for (id, _) in scal_bench::EXPERIMENTS {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }
    let ids: Vec<&str> = if ids.len() == 1 && ids[0] == "all" {
        scal_bench::EXPERIMENTS.iter().map(|(id, _)| *id).collect()
    } else {
        ids.iter().map(String::as_str).collect()
    };
    for id in ids {
        match scal_bench::run(id, &ctx) {
            Ok(report) => {
                println!("{report}");
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(metrics) = ctx.metrics() {
        println!("== metrics ==");
        print!("{}", metrics.render());
    }
    if let Some(profiler) = ctx.profiler() {
        println!("== profiles ==");
        for profile in profiler.profiles() {
            print!("{}", profile.render());
        }
    }
    match ctx.write_coverage() {
        Ok(Some((path, maps))) => {
            eprintln!("coverage: {maps} map(s) written to {}", path.display());
        }
        Ok(None) => {}
        Err(e) => {
            eprintln!("coverage write failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = ctx.finish() {
        eprintln!("trace write failed: {e}");
        return ExitCode::FAILURE;
    }
    if ctx.trace_lines() > 0 {
        eprintln!("trace: {} events written", ctx.trace_lines());
    }
    ExitCode::SUCCESS
}
