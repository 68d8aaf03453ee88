//! `scal_top` — a live terminal view of a running campaign service.
//!
//! ```text
//! scal_top [--addr HOST:PORT] [--metrics-addr HOST:PORT]
//!          [--interval-ms N] [--iterations N] [--no-clear]
//! ```
//!
//! Each refresh polls the JSONL `status` verb and, when a metrics address
//! is known, scrapes `GET /metrics` and the `dump` verb, rendering pool
//! occupancy, per-priority queue depths, cumulative job outcomes, latency
//! quantiles (p50/p90/p99 from the Prometheus histograms), connection I/O
//! totals, and the most recent flight-recorder events.
//!
//! `--iterations N` exits after N refreshes (CI/smoke use); `--no-clear`
//! appends instead of redrawing, keeping output pipe-friendly.

use scal_obs::json::JsonValue;
use scal_serve::client::http_get;
use scal_serve::{Client, PromText};
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: scal_top [--addr HOST:PORT] [--metrics-addr HOST:PORT] \
         [--interval-ms N] [--iterations N] [--no-clear]"
    );
    std::process::exit(2);
}

fn num(frame: &JsonValue, key: &str) -> u64 {
    frame
        .get(key)
        .and_then(JsonValue::as_f64)
        .map_or(0, |n| n as u64)
}

fn fmt_duration(ms: u64) -> String {
    let s = ms / 1000;
    if s >= 3600 {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    } else if s >= 60 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{}.{:01}s", s, (ms % 1000) / 100)
    }
}

fn fmt_micros(us: f64) -> String {
    if us >= 1_000_000.0 {
        format!("{:.2}s", us / 1_000_000.0)
    } else if us >= 1_000.0 {
        format!("{:.1}ms", us / 1_000.0)
    } else {
        format!("{us:.0}µs")
    }
}

fn fmt_bytes(b: f64) -> String {
    if b >= 1_048_576.0 {
        format!("{:.1} MiB", b / 1_048_576.0)
    } else if b >= 1024.0 {
        format!("{:.1} KiB", b / 1024.0)
    } else {
        format!("{b:.0} B")
    }
}

/// One `p50 / p90 / p99 / count` table row for a histogram family.
fn latency_row(prom: &PromText, label: &str, name: &str) -> String {
    let count = prom.value(&format!("{name}_count"), &[]).unwrap_or(0.0);
    let q = |q: f64| {
        prom.histogram_quantile(name, q)
            .map_or_else(|| "-".to_owned(), fmt_micros)
    };
    format!(
        "  {label:<16} {:>10} {:>10} {:>10} {:>9}",
        q(0.5),
        q(0.9),
        q(0.99),
        count as u64
    )
}

fn render(status: &JsonValue, prom: Option<&PromText>, recent: &[JsonValue], tick: u64) {
    println!(
        "scal_top  up {}  tick {}{}",
        fmt_duration(num(status, "uptime_ms")),
        tick,
        if status.get("shutting_down") == Some(&JsonValue::Bool(true)) {
            "  [SHUTTING DOWN]"
        } else {
            ""
        }
    );
    println!(
        "pool   workers {}  running {}  queued {}  done {}",
        num(status, "workers"),
        num(status, "running"),
        num(status, "queued"),
        num(status, "done"),
    );
    if let Some(jobs) = status.get("jobs") {
        println!(
            "jobs   accepted {}  finished {}  cancelled {}  timed_out {}  panicked {}",
            num(jobs, "accepted"),
            num(jobs, "finished"),
            num(jobs, "cancelled"),
            num(jobs, "timed_out"),
            num(jobs, "panicked"),
        );
    }
    if let Some(depths) = status.get("queue_depths").and_then(JsonValue::as_array) {
        let row: Vec<String> = depths
            .iter()
            .enumerate()
            .map(|(p, d)| format!("p{p}:{}", d.as_f64().unwrap_or(0.0) as u64))
            .collect();
        println!("queue  {}", row.join(" "));
    }
    if let Some(prom) = prom {
        println!("\nlatency                  p50        p90        p99     count");
        println!(
            "{}",
            latency_row(prom, "submit→accept", "scal_serve_submit_accept_micros")
        );
        println!(
            "{}",
            latency_row(prom, "queue wait", "scal_serve_queue_wait_micros")
        );
        println!("{}", latency_row(prom, "run", "scal_serve_run_micros"));
        println!(
            "{}",
            latency_row(prom, "frame stall", "scal_serve_frame_stall_micros")
        );
        println!(
            "\nio     connections {}  frames {}  bytes {}",
            prom.value("scal_serve_connections_total", &[])
                .unwrap_or(0.0) as u64,
            prom.value("scal_serve_frames_sent_total", &[])
                .unwrap_or(0.0) as u64,
            fmt_bytes(
                prom.value("scal_serve_bytes_sent_total", &[])
                    .unwrap_or(0.0)
            ),
        );
    }
    if !recent.is_empty() {
        println!("\nrecent");
        for ev in recent {
            let detail = ev
                .get("detail")
                .and_then(JsonValue::as_str)
                .unwrap_or_default();
            println!(
                "  {:>9}  job {:<5} trace {:<5} {:<8} {}",
                fmt_duration(num(ev, "ms")),
                num(ev, "id"),
                num(ev, "trace"),
                ev.get("state").and_then(JsonValue::as_str).unwrap_or("?"),
                detail
            );
        }
    }
}

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:7444".to_owned();
    let mut metrics_addr: Option<String> = None;
    let mut interval = Duration::from_millis(1000);
    let mut iterations: Option<u64> = None;
    let mut clear = true;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--metrics-addr" => metrics_addr = Some(value("--metrics-addr")),
            "--interval-ms" => match value("--interval-ms").parse() {
                Ok(ms) => interval = Duration::from_millis(ms),
                Err(_) => usage(),
            },
            "--iterations" => match value("--iterations").parse() {
                Ok(n) => iterations = Some(n),
                Err(_) => usage(),
            },
            "--no-clear" => clear = false,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    let client = Client::new(addr.clone());
    let mut tick = 0u64;
    loop {
        tick += 1;
        let status = match client.status_frame() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("status poll failed: {e}");
                return if tick == 1 {
                    ExitCode::FAILURE
                } else {
                    // The server went away mid-watch (shutdown): clean exit.
                    ExitCode::SUCCESS
                };
            }
        };
        let prom = metrics_addr
            .as_deref()
            .and_then(|m| http_get(m, "/metrics").ok())
            .map(|body| PromText::parse(&body));
        let recent: Vec<JsonValue> = client
            .dump()
            .map(|events| {
                let skip = events.len().saturating_sub(8);
                events.into_iter().skip(skip).collect()
            })
            .unwrap_or_default();
        if clear {
            // Clear screen + home, ANSI; harmless when piped.
            print!("\x1b[2J\x1b[H");
        }
        render(status.value(), prom.as_ref(), &recent, tick);
        if iterations.is_some_and(|n| tick >= n) {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(interval);
    }
}
