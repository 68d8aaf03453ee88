//! End-to-end, layer-attributed benchmark of the SCAL campaign path.
//!
//! [`run`] sets a workload up, makes the references its checks need,
//! drives a closed loop of ops for the requested time in segments with
//! further timed set-ups between them, and folds the samples into
//! end-to-end metrics (untraced run) or per-layer metrics (traced run). See
//! `README.md` beside this crate for the workloads and metrics.

pub mod check;
pub mod harness;
pub mod paper;
pub mod rng;
pub mod serve;
pub mod stats;
pub mod trace;

use harness::{closed_loop, end_to_end, tally, Layers, LoopResult, Metric, ServeLayer, Workload};
use rng::{Deck, Rng};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Every workload [`run`] accepts.
pub const WORKLOADS: [&str; 2] = ["paper_small", "serve_mix"];

/// Segments the timed phase is split into at full size. Set-ups are timed
/// before the first segment and between segments, so that set-up times
/// sample the host's speed across the run, as the ops do.
pub const SEGMENTS: usize = 6;

/// Before each segment, set-ups repeat until this long has passed (at
/// least one), so cheap set-ups are timed often enough for a steady
/// millisecond-scale figure.
pub const SETUP_SLICE_S: f64 = 0.3;

/// `serve_mix` is timed over all its rounds: a job's latency includes its
/// wait behind the other client's job, so its fastest rounds would be
/// those that waited least, not those the host ran fastest.
pub const SERVE_SHARE: f64 = 1.0;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed every input is made from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Two segments, one set-up before each and few ops: for the
    /// benchmark's own tests.
    pub tiny: bool,
    /// Spoil the references of `paper_small`, so every check must fail.
    pub corrupt: bool,
}

/// What a run measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// Ops attempted.
    pub attempted: usize,
    /// Ops whose output failed its check, or that got an error or no
    /// result.
    pub failed: usize,
    /// End-to-end metrics (meaningful on untraced runs).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// The first few failures.
    pub failures: Vec<String>,
    /// Spans and counts as JSON (traced runs only).
    pub trace_json: Option<String>,
    /// Per op kind summaries of the untraced ops.
    pub per_kind: Vec<harness::KindSummary>,
}

/// Times set-ups made by `make` until [`SETUP_SLICE_S`] has passed (just
/// one when `tiny`), adding each time to `times`; returns the last set-up
/// and hands each other one to `discard` before the next is made.
fn time_setups<T>(
    tiny: bool,
    times: &mut Vec<f64>,
    make: &mut impl FnMut() -> Result<T, String>,
    discard: impl Fn(T),
) -> Result<T, String> {
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let value = make()?;
        times.push(t.elapsed().as_secs_f64());
        if tiny || start.elapsed().as_secs_f64() >= SETUP_SLICE_S {
            return Ok(value);
        }
        discard(value);
    }
}

fn deck<W: Workload>(w: &W, seed: u64, stream: u64) -> Deck {
    let weights: Vec<usize> = w.kinds().iter().map(|k| k.1).collect();
    Deck::new(&weights, Rng::new(seed, stream))
}

/// Runs one workload.
///
/// # Errors
///
/// An unknown workload, or a set-up that failed.
pub fn run(opts: &Options) -> Result<Report, String> {
    let min_ops = if opts.tiny { 8 } else { harness::MIN_OPS };
    let segments = if opts.tiny { 2 } else { SEGMENTS };
    let slice = Duration::from_secs_f64(opts.seconds / segments as f64);
    let seed = opts.seed;
    let mut setup_times = Vec::new();
    // Each workload's ops and set-ups are timed over the fastest `share`
    // of them (see `harness::QUIET_SHARE`).
    let (loops, serve_layer, share): (Vec<LoopResult>, ServeLayer, f64) =
        match opts.workload.as_str() {
            "paper_small" => {
                let mut make = || {
                    let mut w = paper::Campaigns {
                        cases: paper::small_cases(),
                    };
                    w.warm_up()?;
                    Ok(w)
                };
                let mut w = time_setups(opts.tiny, &mut setup_times, &mut make, drop)?;
                w.make_references();
                if opts.corrupt {
                    w.corrupt_references();
                }
                let mut d = deck(&w, seed, 0);
                let share = harness::QUIET_SHARE;
                let min_rounds = harness::rounds_for(min_ops, d.round_len(), share);
                let mut lp = LoopResult::new(harness::SAMPLE_CAPACITY, share);
                for seg in 0..segments {
                    if seg > 0 {
                        drop(time_setups(opts.tiny, &mut setup_times, &mut make, drop)?);
                    }
                    let min = if seg + 1 == segments { min_rounds } else { 0 };
                    closed_loop(&mut w, &mut d, &mut lp, slice, min, opts.trace, 0);
                }
                (vec![lp], ServeLayer::default(), share)
            }
            "serve_mix" => {
                // Each segment runs on a server set up just before it, so only
                // one server is alive at a time.
                let mut make = || {
                    let svc = serve::Service::start()?;
                    if let Err(e) = svc.client().warm_up() {
                        svc.stop();
                        return Err(e);
                    }
                    Ok(svc)
                };
                let mut tally = serve::ServeTally::default();
                let mut loops: Vec<(Deck, LoopResult)> = Vec::new();
                for seg in 0..segments {
                    let svc =
                        time_setups(opts.tiny, &mut setup_times, &mut make, serve::Service::stop)?;
                    let mut clients: Vec<serve::ServeClient> =
                        (0..serve::CLIENTS).map(|_| svc.client()).collect();
                    if loops.is_empty() {
                        loops = (0..serve::CLIENTS)
                            .map(|t| {
                                let capacity = harness::SAMPLE_CAPACITY / serve::CLIENTS;
                                let d = deck(&clients[t], seed, 10 + t as u64);
                                (d, LoopResult::new(capacity, SERVE_SHARE))
                            })
                            .collect();
                    }
                    let bytes_before = svc.bytes_sent();
                    let last = seg + 1 == segments;
                    std::thread::scope(|s| {
                        for (t, (c, (d, lp))) in clients.iter_mut().zip(&mut loops).enumerate() {
                            let per_client = min_ops.div_ceil(serve::CLIENTS);
                            let min = if last {
                                harness::rounds_for(per_client, d.round_len(), SERVE_SHARE)
                            } else {
                                0
                            };
                            let base = (t as u64) << 40;
                            s.spawn(move || closed_loop(c, d, lp, slice, min, opts.trace, base));
                        }
                    });
                    tally.add(&svc, &clients, bytes_before);
                    svc.stop();
                }
                let loops = loops.into_iter().map(|(_, lp)| lp).collect();
                (loops, tally.layer(), SERVE_SHARE)
            }
            other => {
                return Err(format!(
                    "unknown workload {other:?} (want one of {})",
                    WORKLOADS.join(", ")
                ))
            }
        };
    setup_times.sort_by(f64::total_cmp);
    let keep = ((setup_times.len() as f64 * share).ceil() as usize).max(1);
    let setup_s = stats::median(&setup_times[..keep]);
    let (attempted, failed, _) = tally(&loops);
    let layers = opts.trace.then(|| Layers::of(&loops).metrics(&serve_layer));
    Ok(Report {
        attempted,
        failed,
        end_to_end: end_to_end(&loops, setup_s),
        trace_json: layers.as_ref().map(|m| trace_json(opts, &loops, m)),
        layers: layers.unwrap_or_default(),
        failures: loops.iter().flat_map(|l| l.failures.clone()).collect(),
        per_kind: harness::per_kind(&loops),
    })
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The traced run's spans, counts, op samples and per-layer metrics as
/// one JSON object.
fn trace_json(opts: &Options, loops: &[LoopResult], metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"clients\":[",
        opts.workload, opts.seed
    );
    for (i, lp) in loops.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"ops\":[");
        for (j, o) in lp.samples.iter().enumerate() {
            let sep = if j > 0 { "," } else { "" };
            let _ = write!(
                s,
                "{sep}{{\"kind\":{},\"ns\":{},\"traced\":{},\"ok\":{}}}",
                o.kind, o.ns, o.traced, o.ok
            );
        }
        s.push_str("],\"spans\":[");
        for (j, sp) in lp.spans.iter().enumerate() {
            let sep = if j > 0 { "," } else { "" };
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{sep}{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.op
            );
        }
        s.push_str("],\"counts\":[");
        for (j, c) in lp.counts.iter().enumerate() {
            let sep = if j > 0 { "," } else { "" };
            let _ = write!(
                s,
                "{sep}{{\"name\":\"{}\",\"op\":{},\"value\":{}}}",
                c.name,
                c.op,
                num(c.value)
            );
        }
        s.push_str("]}");
    }
    s.push_str("],\"metrics\":{");
    s.push_str(&metrics_json(metrics));
    s.push_str("}}");
    s
}

/// `"name":{"value":v,"unit":"u"}` pairs, comma-separated.
#[must_use]
pub fn metrics_json(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                num(*value)
            )
        })
        .collect::<Vec<_>>()
        .join(",")
}
