//! `scal_run` — netlist interchange and campaign driver for generated and
//! imported designs.
//!
//! ```text
//! scal_run gen --kind selfdual --gates 100000 --seed 42 --out big.v
//! scal_run convert big.v big.bench
//! scal_run info big.bench
//! scal_run run big.v --threads 1 --max-faults 256
//! ```
//!
//! `gen` writes a synthetic circuit in the format named by the output
//! extension (`.v`, `.bench`, `.scal`/`.txt`); `convert` round-trips a file
//! between formats (input format sniffed from extension/content); `info`
//! prints size and structure counters; `run` compiles the design and sweeps
//! an alternating-pair fault campaign, printing the coverage summary.
//! Exit codes: `0` clean, `1` usage or I/O error, `2` campaign rejection
//! (sequential or too-wide circuit).

use scal_netlist::synth::{self, SynthKind};
use scal_netlist::{Circuit, NetlistFormat};
use scal_obs::CoverageObserver;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n\
         \x20 scal_run gen --kind ripple|csel|mult|chain|selfdual --gates N \
         [--seed S] --out FILE\n\
         \x20 scal_run convert IN OUT\n\
         \x20 scal_run info FILE\n\
         \x20 scal_run run FILE [--threads N] [--max-faults N]\n\
         \x20               [--fault-packing on|off|auto] [--fault-collapse on|off|auto]\n\
         formats are chosen by extension (.v, .bench, .scal/.txt) and sniffed on read"
    );
    ExitCode::FAILURE
}

fn gen(args: &[String]) -> ExitCode {
    let mut kind = None;
    let mut gates = None;
    let mut seed = 42u64;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(raw) = it.next() else {
            return usage();
        };
        match flag.as_str() {
            "--kind" => match raw.parse::<SynthKind>() {
                Ok(k) => kind = Some(k),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            },
            "--gates" => match raw.parse::<usize>() {
                Ok(n) if n > 0 => gates = Some(n),
                _ => return usage(),
            },
            "--seed" => match raw.parse() {
                Ok(s) => seed = s,
                Err(_) => return usage(),
            },
            "--out" => out = Some(raw.clone()),
            _ => return usage(),
        }
    }
    let (Some(kind), Some(gates), Some(out)) = (kind, gates, out) else {
        return usage();
    };
    let circuit = synth::generate(kind, gates, seed);
    match circuit.write_path(&out) {
        Ok(()) => {
            eprintln!(
                "wrote {} ({} nodes, {} gates) to {out}",
                kind.name(),
                circuit.len(),
                circuit.cost().gates
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn convert(args: &[String]) -> ExitCode {
    let [input, output] = args else {
        return usage();
    };
    let circuit = match Circuit::read_path(input) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match circuit.write_path(output) {
        Ok(()) => {
            eprintln!("converted {input} -> {output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn info(args: &[String]) -> ExitCode {
    let [path] = args else { return usage() };
    let circuit = match Circuit::read_path(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let cost = circuit.cost();
    let format = std::path::Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
        .and_then(NetlistFormat::from_extension)
        .map_or("sniffed", NetlistFormat::name);
    println!(
        "{path}: format {format}, {} nodes, {} inputs, {} gates, {} gate inputs, \
         {} flip-flops, {} outputs, {}",
        circuit.len(),
        circuit.inputs().len(),
        cost.gates,
        cost.gate_inputs,
        cost.flip_flops,
        circuit.outputs().len(),
        if circuit.is_sequential() {
            "sequential"
        } else {
            "combinational"
        }
    );
    ExitCode::SUCCESS
}

fn run(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let mut threads = 0usize;
    let mut max_faults = None;
    // `None` leaves the engine's Auto defaults in charge.
    let mut fault_packing: Option<bool> = None;
    let mut fault_collapse: Option<bool> = None;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let Some(raw) = it.next() else {
            return usage();
        };
        match flag.as_str() {
            "--threads" => match raw.parse() {
                Ok(n) => threads = n,
                Err(_) => return usage(),
            },
            "--max-faults" => match raw.parse::<usize>() {
                Ok(n) if n > 0 => max_faults = Some(n),
                _ => return usage(),
            },
            "--fault-packing" => match raw.as_str() {
                "on" => fault_packing = Some(true),
                "off" => fault_packing = Some(false),
                "auto" => fault_packing = None,
                _ => return usage(),
            },
            "--fault-collapse" => match raw.as_str() {
                "on" => fault_collapse = Some(true),
                "off" => fault_collapse = Some(false),
                "auto" => fault_collapse = None,
                _ => return usage(),
            },
            _ => return usage(),
        }
    }
    let circuit = match Circuit::read_path(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut faults = scal_faults::enumerate_faults(&circuit);
    let total_sites = faults.len();
    if let Some(n) = max_faults {
        faults.truncate(n);
    }
    let swept = faults.len();
    let cov = CoverageObserver::new();
    let mut campaign = scal_faults::Campaign::new(&circuit)
        .faults(faults)
        .threads(threads)
        .coverage(&cov);
    if let Some(pack) = fault_packing {
        campaign = campaign.fault_packing(pack);
    }
    if let Some(collapse) = fault_collapse {
        campaign = campaign.fault_collapse(collapse);
    }
    let stats = match campaign.run() {
        Ok(r) => r.stats,
        Err(e) => {
            eprintln!("campaign rejected: {e}");
            return ExitCode::from(2);
        }
    };
    let map = cov.into_latest().expect("coverage map");
    let collapse = match stats.collapse.filter(|c| c.representatives > 0) {
        Some(c) => format!(
            ", collapse {:.2}x ({} reps)",
            c.faults as f64 / c.representatives as f64,
            c.representatives
        ),
        None => String::new(),
    };
    println!(
        "{path}: {swept}/{total_sites} faults swept, {} detected ({:.1}% of swept), \
         {} pairs, compile {:.1} ms, eval {:.1} ms{collapse}",
        map.detected_count(),
        100.0 * map.coverage_fraction(),
        stats.pairs_evaluated,
        stats.compile_time.as_secs_f64() * 1e3,
        stats.eval_time.as_secs_f64() * 1e3,
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    let rest = &args[1..];
    match command.as_str() {
        "gen" => gen(rest),
        "convert" => convert(rest),
        "info" => info(rest),
        "run" => run(rest),
        _ => usage(),
    }
}
