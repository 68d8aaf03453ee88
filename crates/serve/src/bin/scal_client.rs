//! `scal_client` — command-line client for the campaign service.
//!
//! ```text
//! scal_client [--addr HOST:PORT] submit (pair|seq|cpu) [OPTIONS]
//! scal_client [--addr HOST:PORT] batch --jobs N [--cancel-one]
//! scal_client [--addr HOST:PORT] raw        # request line on stdin
//! scal_client [--addr HOST:PORT] cancel ID
//! scal_client [--addr HOST:PORT] status
//! scal_client [--addr HOST:PORT] dump
//! scal_client [--addr HOST:PORT] shutdown
//! ```
//!
//! Every response frame is echoed to stdout as the line received, so
//! output is itself valid JSONL. `submit` follows the stream to the
//! terminal frame; `batch` runs a mixed pair/seq/cpu workload concurrently,
//! and with `--cancel-one` cancels its first (deliberately slow) job
//! mid-flight.

use scal_serve::client::demo;
use scal_serve::{Client, JobSpec};
use std::io::BufRead;
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: scal_client [--addr HOST:PORT] COMMAND\n\
         commands:\n\
         \x20 submit (pair|seq|cpu) [--priority 0..9] [--threads N]\n\
         \x20        [--timeout-ms T] [--no-stream] [--scalar]\n\
         \x20        [--seq-backend packed|graph] [--words N]\n\
         \x20        [--format text|verilog|bench]\n\
         \x20 batch --jobs N [--cancel-one]\n\
         \x20 raw            read one request line from stdin, stream frames\n\
         \x20 cancel ID\n\
         \x20 status\n\
         \x20 dump           recent job lifecycle events (flight recorder)\n\
         \x20 shutdown"
    );
    std::process::exit(2);
}

/// Follows a response stream, echoing each frame; returns `false` if the
/// terminal frame was an `error` (or the stream broke).
fn follow(client: &Client, spec: &JobSpec) -> bool {
    let stream = match client.submit(spec) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("submit failed: {e}");
            return false;
        }
    };
    let mut ok = true;
    for frame in stream {
        match frame {
            Ok(frame) => {
                if frame.kind() == Some("error") {
                    ok = false;
                }
                println!("{}", frame.line());
            }
            Err(e) => {
                eprintln!("stream error: {e}");
                return false;
            }
        }
    }
    ok
}

/// The deterministic mixed workload used by `batch`: index 0 is a slow
/// graph-oracle seq job (the `--cancel-one` target), the rest round-robin
/// over the three campaign kinds.
fn batch_spec(i: usize) -> JobSpec {
    if i == 0 {
        return demo::seq_spec(2, scal_seq::SeqBackend::Graph, 4096);
    }
    match i % 3 {
        0 => demo::pair_spec((i % 10) as u8, i % 6 == 0),
        1 => demo::seq_spec(
            (i % 10) as u8,
            if i % 2 == 0 {
                scal_seq::SeqBackend::Packed
            } else {
                scal_seq::SeqBackend::Graph
            },
            8 + i % 12,
        ),
        _ => demo::cpu_spec((i % 10) as u8),
    }
}

fn run_batch(client: &Client, jobs: usize, cancel_one: bool) -> bool {
    let handles: Vec<_> = (0..jobs)
        .map(|i| {
            let client = client.clone();
            std::thread::spawn(move || -> bool {
                let spec = batch_spec(i);
                let stream = match client.submit(&spec) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("job {i}: submit failed: {e}");
                        return false;
                    }
                };
                let mut ok = false;
                for frame in stream {
                    let Ok(frame) = frame else { return false };
                    let kind = frame.kind();
                    if i == 0 && cancel_one && kind == Some("accepted") {
                        if let Some(id) =
                            frame.get("id").and_then(scal_obs::json::JsonValue::as_f64)
                        {
                            match client.cancel(id as u64) {
                                Ok(found) => eprintln!("job 0: cancelled (found={found})"),
                                Err(e) => eprintln!("job 0: cancel failed: {e}"),
                            }
                        }
                    }
                    ok = kind == Some("result");
                    println!("{}", frame.line());
                }
                ok
            })
        })
        .collect();
    handles.into_iter().all(|h| h.join().unwrap_or(false))
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7444".to_owned();
    if args.first().is_some_and(|a| a == "--addr") {
        if args.len() < 2 {
            usage();
        }
        addr = args[1].clone();
        args.drain(..2);
    }
    let client = Client::new(addr);
    let Some(command) = args.first().cloned() else {
        usage()
    };
    let rest = &args[1..];

    let ok = match command.as_str() {
        "submit" => {
            let Some(kind) = rest.first() else { usage() };
            let mut spec = match kind.as_str() {
                "pair" => demo::pair_spec(4, false),
                "seq" => demo::seq_spec(4, scal_seq::SeqBackend::Packed, 16),
                "cpu" => demo::cpu_spec(4),
                _ => usage(),
            };
            let mut it = rest[1..].iter();
            while let Some(flag) = it.next() {
                let mut value = || it.next().map(String::as_str).unwrap_or_else(|| usage());
                match flag.as_str() {
                    "--priority" => match value().parse() {
                        Ok(p) if p <= 9 => spec.priority = p,
                        _ => usage(),
                    },
                    "--threads" => match value().parse() {
                        Ok(n) => spec.threads = n,
                        Err(_) => usage(),
                    },
                    "--timeout-ms" => match value().parse() {
                        Ok(t) => spec.timeout_ms = Some(t),
                        Err(_) => usage(),
                    },
                    "--no-stream" => spec.stream = false,
                    "--scalar" => {
                        if let scal_serve::JobKind::Pair { scalar, .. } = &mut spec.kind {
                            *scalar = true;
                        }
                    }
                    "--seq-backend" => {
                        let backend = match value() {
                            "packed" => scal_seq::SeqBackend::Packed,
                            "graph" => scal_seq::SeqBackend::Graph,
                            _ => usage(),
                        };
                        if let scal_serve::JobKind::Seq { backend: b, .. } = &mut spec.kind {
                            *b = backend;
                        }
                    }
                    "--format" => match value().parse() {
                        Ok(f) => spec.netlist_format = f,
                        Err(_) => usage(),
                    },
                    "--words" => match value().parse() {
                        Ok(n) => {
                            if let scal_serve::JobKind::Seq { words, .. } = &mut spec.kind {
                                *words = demo::demo_words(n);
                            }
                        }
                        Err(_) => usage(),
                    },
                    _ => usage(),
                }
            }
            follow(&client, &spec)
        }
        "batch" => {
            let mut jobs = None;
            let mut cancel_one = false;
            let mut it = rest.iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--jobs" => match it.next().map(|v| v.parse()) {
                        Some(Ok(n)) if n > 0 => jobs = Some(n),
                        _ => usage(),
                    },
                    "--cancel-one" => cancel_one = true,
                    _ => usage(),
                }
            }
            let Some(jobs) = jobs else { usage() };
            run_batch(&client, jobs, cancel_one)
        }
        "raw" => {
            let mut line = String::new();
            if std::io::stdin().lock().read_line(&mut line).is_err() {
                eprintln!("failed to read request line from stdin");
                return ExitCode::FAILURE;
            }
            match client.request(line.trim_end()) {
                Ok(stream) => {
                    let mut ok = true;
                    for frame in stream {
                        match frame {
                            Ok(frame) => println!("{}", frame.line()),
                            Err(e) => {
                                eprintln!("stream error: {e}");
                                ok = false;
                                break;
                            }
                        }
                    }
                    ok
                }
                Err(e) => {
                    eprintln!("request failed: {e}");
                    false
                }
            }
        }
        "cancel" => {
            let Some(Ok(id)) = rest.first().map(|v| v.parse::<u64>()) else {
                usage()
            };
            match client.cancel(id) {
                Ok(found) => {
                    println!("{{\"frame\":\"cancel_ack\",\"id\":{id},\"found\":{found}}}");
                    true
                }
                Err(e) => {
                    eprintln!("cancel failed: {e}");
                    false
                }
            }
        }
        "status" => match client.status_frame() {
            Ok(frame) => {
                println!("{}", frame.line());
                true
            }
            Err(e) => {
                eprintln!("status failed: {e}");
                false
            }
        },
        "dump" => match client.dump() {
            Ok(events) => {
                for event in events {
                    println!("{}", event.to_json_line());
                }
                true
            }
            Err(e) => {
                eprintln!("dump failed: {e}");
                false
            }
        },
        "shutdown" => match client.shutdown() {
            Ok(()) => {
                println!("{{\"frame\":\"shutdown_ack\"}}");
                true
            }
            Err(e) => {
                eprintln!("shutdown failed: {e}");
                false
            }
        },
        "wait-ready" => client.wait_ready(Duration::from_secs(30)),
        _ => usage(),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
