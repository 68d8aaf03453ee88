//! Service telemetry: the metrics registry every server component reports
//! into, per-job trace ids, the flight recorder of recent lifecycle
//! events, and a parser for the Prometheus text the `/metrics` endpoint
//! serves (used by `scal_top` and the smoke tests).
//!
//! Metric names are Prometheus-legal from the start (`scal_serve_*`,
//! underscores only) so [`scal_obs::Metrics::render_prometheus`] never has
//! to mangle them:
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `scal_serve_queue_depth{priority}` | gauge | queued jobs per priority |
//! | `scal_serve_workers_running` / `_idle` | gauge | pool occupancy |
//! | `scal_serve_jobs_total{state}` | counter | accepted / finished / cancelled / timed_out / panicked / rejected |
//! | `scal_serve_submit_accept_micros` | histogram | request line read → accepted frame sent |
//! | `scal_serve_queue_wait_micros` | histogram | accepted → execution start |
//! | `scal_serve_run_micros` | histogram | campaign wall time |
//! | `scal_serve_frame_stall_micros` | histogram | event-batch channel send, per batch (backpressure) |
//! | `scal_serve_connections_total` | counter | accepted TCP connections |
//! | `scal_serve_frames_sent_total` / `scal_serve_bytes_sent_total` | counter | frames/bytes written to clients |

use scal_obs::json::{JsonObject, JsonValue};
use scal_obs::Metrics;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Flight-recorder capacity: how many recent lifecycle events survive for
/// a `dump`.
pub const FLIGHT_CAPACITY: usize = 256;

/// One job lifecycle event kept by the [`FlightRecorder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Milliseconds since server start.
    pub ms: u64,
    /// Job id (0 for server-level events).
    pub id: u64,
    /// The job's trace id (0 for server-level events).
    pub trace: u64,
    /// Lifecycle state: `submit`, `start`, `cancel`, `timeout`, `panic`,
    /// `finish`, `error`, `shutdown`.
    pub state: &'static str,
    /// Free-form detail (job kind, error message, …).
    pub detail: String,
}

impl FlightEvent {
    /// One JSON line for the `dump` frame / stderr dump.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Appends [`FlightEvent::to_json`]'s text to `out`.
    pub fn write_json(&self, out: &mut String) {
        let mut o = JsonObject::within(out);
        o.num("ms", self.ms);
        o.num("id", self.id);
        o.num("trace", self.trace);
        o.str("state", self.state);
        if !self.detail.is_empty() {
            o.str("detail", &self.detail);
        }
        o.finish();
    }
}

/// A fixed-capacity ring buffer of the most recent [`FlightEvent`]s.
///
/// Writers claim a slot with one atomic increment and then take only that
/// slot's lock, so concurrent recording from every worker and handler
/// thread never contends on a global lock ("lock-free-ish"). The ring
/// overwrites oldest-first; [`FlightRecorder::dump`] returns the surviving
/// events oldest → newest.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<FlightEvent>>>,
    next: AtomicU64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            next: AtomicU64::new(0),
        }
    }

    /// Appends one event, overwriting the oldest once full.
    pub fn record(&self, event: FlightEvent) {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        let slot = (seq % self.slots.len() as u64) as usize;
        *self.slots[slot].lock().expect("flight slot") = Some(event);
    }

    /// Events recorded over the recorder's lifetime (not just surviving).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// The surviving events, oldest → newest.
    ///
    /// # Panics
    ///
    /// Panics if a slot lock was poisoned.
    #[must_use]
    pub fn dump(&self) -> Vec<FlightEvent> {
        let cap = self.slots.len() as u64;
        let end = self.next.load(Ordering::Relaxed);
        let start = end.saturating_sub(cap);
        (start..end)
            .filter_map(|seq| {
                let slot = (seq % cap) as usize;
                self.slots[slot].lock().expect("flight slot").clone()
            })
            .collect()
    }

    /// The surviving events as JSON lines, oldest → newest.
    #[must_use]
    pub fn dump_jsonl(&self) -> Vec<String> {
        self.dump().iter().map(FlightEvent::to_json).collect()
    }
}

/// Everything the service measures: the metrics registry, the flight
/// recorder, the trace-id mint, and the server start instant.
///
/// One `Telemetry` is shared (via `Arc`) by the scheduler, every
/// connection handler, the `/metrics` HTTP responder, and the flight
/// recorder dumps.
#[derive(Debug)]
pub struct Telemetry {
    metrics: Metrics,
    recorder: FlightRecorder,
    started: Instant,
    next_trace: AtomicU64,
    /// Emit a structured stderr log line per job state transition.
    pub log_transitions: bool,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// A fresh telemetry hub with described metric families.
    #[must_use]
    pub fn new() -> Self {
        let metrics = Metrics::new();
        metrics.describe("scal_serve_queue_depth", "Queued jobs per priority");
        metrics.describe("scal_serve_workers_running", "Workers executing a job");
        metrics.describe("scal_serve_workers_idle", "Workers waiting for work");
        metrics.describe("scal_serve_jobs_total", "Jobs by terminal state");
        metrics.describe(
            "scal_serve_submit_accept_micros",
            "Submit request read to accepted frame sent",
        );
        metrics.describe(
            "scal_serve_queue_wait_micros",
            "Accepted to execution start",
        );
        metrics.describe("scal_serve_run_micros", "Campaign wall time");
        metrics.describe(
            "scal_serve_frame_stall_micros",
            "Event-batch channel send time (client backpressure)",
        );
        metrics.describe("scal_serve_connections_total", "Accepted TCP connections");
        metrics.describe("scal_serve_frames_sent_total", "Frames written to clients");
        metrics.describe("scal_serve_bytes_sent_total", "Bytes written to clients");
        Telemetry {
            metrics,
            recorder: FlightRecorder::default(),
            started: Instant::now(),
            next_trace: AtomicU64::new(1),
            log_transitions: false,
        }
    }

    /// The metrics registry.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The flight recorder.
    #[must_use]
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Milliseconds since the hub (≈ server) started.
    #[must_use]
    pub fn uptime_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Mints the next trace id (monotonic, starting at 1).
    #[must_use]
    pub fn mint_trace(&self) -> u64 {
        self.next_trace.fetch_add(1, Ordering::SeqCst)
    }

    /// Records one job state transition: flight recorder always, plus a
    /// structured stderr JSONL line when [`Telemetry::log_transitions`].
    pub fn transition(&self, id: u64, trace: u64, state: &'static str, detail: &str) {
        let ev = FlightEvent {
            ms: self.uptime_ms(),
            id,
            trace,
            state,
            detail: detail.to_owned(),
        };
        if self.log_transitions {
            let mut o = JsonObject::new();
            o.str("log", "scal_serve");
            ev.write_json(o.value("job"));
            eprintln!("{}", o.finish());
        }
        self.recorder.record(ev);
    }
}

/// One parsed sample from a Prometheus text exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Metric name (for histograms: the `_bucket`/`_sum`/`_count` series
    /// name as exposed).
    pub name: String,
    /// `(label, value)` pairs in exposition order.
    pub labels: Vec<(String, String)>,
    /// Sample value (`+Inf` bucket counts parse normally; the value is
    /// the count, not the bound).
    pub value: f64,
}

impl PromSample {
    /// The value of label `key`, if present.
    #[must_use]
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A parsed Prometheus text exposition — the consumer-side inverse of
/// [`scal_obs::Metrics::render_prometheus`], used by `scal_top` and the
/// smoke tests. Comment (`#`) and blank lines are skipped; malformed
/// sample lines are dropped rather than erroring, so a partially
/// scraped body still yields its valid samples.
#[derive(Debug, Clone, Default)]
pub struct PromText {
    /// Every parsed sample, in exposition order.
    pub samples: Vec<PromSample>,
}

impl PromText {
    /// Parses an exposition body.
    #[must_use]
    pub fn parse(text: &str) -> Self {
        let samples = text
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter_map(parse_sample)
            .collect();
        PromText { samples }
    }

    /// The first sample named `name` whose labels include all of
    /// `labels`.
    #[must_use]
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&PromSample> {
        self.samples
            .iter()
            .find(|s| s.name == name && labels.iter().all(|&(k, v)| s.label(k) == Some(v)))
    }

    /// The value of the first matching sample.
    #[must_use]
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.get(name, labels).map(|s| s.value)
    }

    /// Estimates quantile `q` of histogram `name` from its cumulative
    /// `_bucket` series (the classic `histogram_quantile` interpolation).
    /// `None` when the histogram is absent or empty.
    #[must_use]
    pub fn histogram_quantile(&self, name: &str, q: f64) -> Option<f64> {
        let bucket_series = format!("{name}_bucket");
        let mut buckets: Vec<(f64, f64)> = self
            .samples
            .iter()
            .filter(|s| s.name == bucket_series)
            .filter_map(|s| {
                let le = s.label("le")?;
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((bound, s.value))
            })
            .collect();
        buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let total = buckets.last().map(|&(_, c)| c)?;
        if total <= 0.0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * total).max(1.0);
        let mut prev_bound = 0.0;
        let mut prev_cum = 0.0;
        for &(bound, cum) in &buckets {
            if cum >= target {
                if bound.is_infinite() {
                    return Some(prev_bound);
                }
                let in_bucket = cum - prev_cum;
                if in_bucket <= 0.0 {
                    return Some(bound);
                }
                let into = (target - prev_cum) / in_bucket;
                return Some(prev_bound + (bound - prev_bound) * into);
            }
            prev_bound = bound;
            prev_cum = cum;
        }
        Some(prev_bound)
    }
}

/// Parses one `name{labels} value` sample line.
fn parse_sample(line: &str) -> Option<PromSample> {
    let line = line.trim();
    let (series, value) = match line.find('}') {
        Some(close) => {
            let (head, rest) = line.split_at(close + 1);
            (head, rest.trim())
        }
        None => {
            let mut parts = line.splitn(2, char::is_whitespace);
            (parts.next()?, parts.next()?.trim())
        }
    };
    let value: f64 = match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        v => v.parse().ok()?,
    };
    let (name, labels) = match series.find('{') {
        None => (series.to_owned(), Vec::new()),
        Some(open) => {
            let name = series[..open].to_owned();
            let body = series[open + 1..].strip_suffix('}')?;
            (name, parse_labels(body)?)
        }
    };
    if name.is_empty() {
        return None;
    }
    Some(PromSample {
        name,
        labels,
        value,
    })
}

/// Parses `k="v",k2="v2"` with exposition escapes inside values.
fn parse_labels(body: &str) -> Option<Vec<(String, String)>> {
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    loop {
        while matches!(chars.peek(), Some(',') | Some(' ')) {
            chars.next();
        }
        if chars.peek().is_none() {
            return Some(labels);
        }
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if chars.next()? != '"' {
            return None;
        }
        let mut value = String::new();
        loop {
            match chars.next()? {
                '\\' => match chars.next()? {
                    'n' => value.push('\n'),
                    c => value.push(c),
                },
                '"' => break,
                c => value.push(c),
            }
        }
        labels.push((key.trim().to_owned(), value));
    }
}

/// Reads the status-frame JSON into `(queued, running, done)` plus the
/// extended counters, tolerating frames from servers predating them.
#[must_use]
pub fn status_field(frame: &JsonValue, key: &str) -> Option<u64> {
    frame.get(key).and_then(JsonValue::as_f64).map(|n| n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: u64, state: &'static str) -> FlightEvent {
        FlightEvent {
            ms: id * 10,
            id,
            trace: id + 100,
            state,
            detail: String::new(),
        }
    }

    #[test]
    fn recorder_keeps_the_newest_events() {
        let r = FlightRecorder::new(4);
        for i in 0..10 {
            r.record(ev(i, "submit"));
        }
        let d = r.dump();
        assert_eq!(d.len(), 4);
        assert_eq!(
            d.iter().map(|e| e.id).collect::<Vec<_>>(),
            vec![6, 7, 8, 9],
            "oldest → newest"
        );
        assert_eq!(r.recorded(), 10);
    }

    #[test]
    fn recorder_dump_is_valid_jsonl() {
        let r = FlightRecorder::new(8);
        r.record(FlightEvent {
            ms: 5,
            id: 1,
            trace: 1,
            state: "panic",
            detail: "boom \"quoted\"".to_owned(),
        });
        for line in r.dump_jsonl() {
            scal_obs::json::validate_jsonl(&line).expect("valid line");
        }
    }

    #[test]
    fn recorder_survives_concurrent_writers() {
        let r = std::sync::Arc::new(FlightRecorder::new(16));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let r = std::sync::Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        r.record(ev(t * 1000 + i, "submit"));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("writer");
        }
        assert_eq!(r.recorded(), 400);
        assert_eq!(r.dump().len(), 16);
    }

    #[test]
    fn trace_ids_are_monotonic() {
        let t = Telemetry::new();
        let a = t.mint_trace();
        let b = t.mint_trace();
        assert!(b > a);
        assert_eq!(a, 1);
    }

    #[test]
    fn prom_text_round_trips_through_the_registry() {
        let t = Telemetry::new();
        t.metrics()
            .gauge_with("scal_serve_queue_depth", &[("priority", "3")])
            .set(7);
        let h = t.metrics().histogram("scal_serve_queue_wait_micros");
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(50_000);
        }
        let text = t.metrics().render_prometheus();
        let parsed = PromText::parse(&text);
        assert_eq!(
            parsed.value("scal_serve_queue_depth", &[("priority", "3")]),
            Some(7.0)
        );
        assert_eq!(
            parsed.value("scal_serve_queue_wait_micros_count", &[]),
            Some(100.0)
        );
        let p50 = parsed
            .histogram_quantile("scal_serve_queue_wait_micros", 0.5)
            .expect("p50");
        let p99 = parsed
            .histogram_quantile("scal_serve_queue_wait_micros", 0.99)
            .expect("p99");
        assert!((50.0..=150.0).contains(&p50), "p50={p50}");
        assert!((40_000.0..=70_000.0).contains(&p99), "p99={p99}");
    }

    #[test]
    fn prom_parser_tolerates_junk_lines() {
        let text = "# HELP x y\n\ngarbage\nx 1\nbad{le= 2\nx{a=\"b\\\"c\"} 3\n";
        let parsed = PromText::parse(text);
        assert_eq!(parsed.value("x", &[]), Some(1.0));
        assert_eq!(parsed.value("x", &[("a", "b\"c")]), Some(3.0));
        assert_eq!(parsed.samples.len(), 2);
    }
}
