//! `serve_mix`: `Client::submit` to the `result` frame over loopback.
//!
//! An in-process `scal_serve::serve` with one worker and one thread per
//! job; two client connections each submit from their own seeded deck of
//! three job specs, each with streaming off and on.

use crate::check::{Projection, Reference};
use crate::harness::{Mismatch, ServeLayer, Workload};
use crate::paper::committed;
use crate::trace::Tracer;
use scal_core::paper;
use scal_engine::EvalMode;
use scal_netlist::NetlistFormat;
use scal_obs::json::JsonValue;
use scal_obs::HistogramSnapshot;
use scal_seq::SeqBackend;
use scal_serve::client::{demo, Frame};
use scal_serve::proto::{FaultSpec, JobKind, JobSpec};
use scal_serve::sched::SchedConfig;
use scal_serve::{Client, ServeConfig, ServerHandle};
use std::sync::Arc;
use std::time::Duration;

/// Client connections submitting at once.
pub const CLIENTS: usize = 2;

/// One job kind: its spec and the oracle map its result must match.
pub struct JobCase {
    name: &'static str,
    spec: JobSpec,
    reference: Reference,
    projection: Projection,
}

fn pair_spec(drop: bool) -> JobSpec {
    let circuit = if drop {
        paper::ripple_adder(8)
    } else {
        paper::fig3_7().circuit
    };
    JobSpec {
        kind: JobKind::Pair {
            circuit,
            faults: FaultSpec::All,
            drop_after_detection: drop,
            eval_mode: EvalMode::Cone,
            scalar: false,
        },
        priority: 4,
        timeout_ms: None,
        threads: 1,
        stream: false,
        fault_collapse: None,
        netlist_format: NetlistFormat::ScalText,
    }
}

/// The six job kinds: three specs, each with streaming off and on.
#[must_use]
pub fn job_cases() -> Vec<JobCase> {
    let bases = [
        (
            ["fig3_7", "fig3_7.stream"],
            pair_spec(false),
            "fig3_7",
            Projection::Full,
        ),
        (
            ["adder8_drop", "adder8_drop.stream"],
            pair_spec(true),
            "adder8",
            Projection::Verdict,
        ),
        (
            ["seq256", "seq256.stream"],
            demo::seq_spec(4, SeqBackend::Packed, 256),
            "reynolds256",
            Projection::Full,
        ),
    ];
    let mut cases = Vec::new();
    for (names, spec, stem, projection) in bases {
        for (name, stream) in names.into_iter().zip([false, true]) {
            cases.push(JobCase {
                name,
                spec: JobSpec {
                    stream,
                    ..spec.clone()
                },
                reference: committed(stem),
                projection,
            });
        }
    }
    cases
}

/// A running service and the job kinds it is sent.
pub struct Service {
    server: ServerHandle,
    cases: Arc<Vec<JobCase>>,
}

impl Service {
    /// Starts the server on a free loopback port and waits until it
    /// answers.
    ///
    /// # Errors
    ///
    /// The bind failure, or a server that never answered.
    pub fn start() -> Result<Self, String> {
        let config = ServeConfig {
            sched: SchedConfig {
                workers: 1,
                max_threads_per_job: 1,
                ..SchedConfig::default()
            },
            ..ServeConfig::default()
        };
        let server = scal_serve::serve(config).map_err(|e| format!("serve: {e}"))?;
        if !Client::new(server.addr().to_string()).wait_ready(Duration::from_secs(10)) {
            server.shutdown_and_join();
            return Err("server never answered".to_string());
        }
        Ok(Service {
            server,
            cases: Arc::new(job_cases()),
        })
    }

    /// A client connection with its own counters.
    #[must_use]
    pub fn client(&self) -> ServeClient {
        ServeClient {
            client: Client::new(self.server.addr().to_string()),
            cases: Arc::clone(&self.cases),
            frames: 0,
            error_frames: 0,
            jobs: 0,
        }
    }

    /// Bytes the server has sent so far.
    #[must_use]
    pub fn bytes_sent(&self) -> u64 {
        self.server
            .telemetry()
            .metrics()
            .counter("scal_serve_bytes_sent_total")
            .get()
    }

    /// Stops the server and waits for its threads.
    pub fn stop(self) {
        self.server.shutdown_and_join();
    }
}

/// The service-side numbers of a run, summed over its servers: the
/// servers' own telemetry histograms and byte counters, and the clients'
/// frame and job counts.
#[derive(Debug, Default)]
pub struct ServeTally {
    submit_accept: HistogramSnapshot,
    queue_wait: HistogramSnapshot,
    run: HistogramSnapshot,
    bytes: u64,
    frames: u64,
    error_frames: u64,
    jobs: u64,
}

impl ServeTally {
    /// Adds what `svc` and its `clients` saw; `bytes_before` is the
    /// server's byte counter when the timed ops started.
    pub fn add(&mut self, svc: &Service, clients: &[ServeClient], bytes_before: u64) {
        let m = svc.server.telemetry().metrics();
        self.submit_accept
            .merge(&m.histogram("scal_serve_submit_accept_micros").snapshot());
        self.queue_wait
            .merge(&m.histogram("scal_serve_queue_wait_micros").snapshot());
        self.run
            .merge(&m.histogram("scal_serve_run_micros").snapshot());
        self.bytes += svc.bytes_sent() - bytes_before;
        for c in clients {
            self.frames += c.frames;
            self.error_frames += c.error_frames;
            self.jobs += c.jobs;
        }
    }

    /// The service-side layer metrics.
    #[must_use]
    pub fn layer(&self) -> ServeLayer {
        let p50 = |h: &HistogramSnapshot| h.quantile(0.5) as f64 / 1e3;
        let jobs = self.jobs.max(1) as f64;
        ServeLayer {
            submit_accept_ms_p50: p50(&self.submit_accept),
            queue_wait_ms_p50: p50(&self.queue_wait),
            run_ms_p50: p50(&self.run),
            frames_per_job: self.frames as f64 / jobs,
            bytes_per_job: self.bytes as f64 / jobs,
            error_frames: self.error_frames as f64,
        }
    }
}

/// One client connection's closed loop.
pub struct ServeClient {
    client: Client,
    cases: Arc<Vec<JobCase>>,
    /// Frames read.
    pub frames: u64,
    /// `error` frames read.
    pub error_frames: u64,
    /// Jobs submitted.
    pub jobs: u64,
}

impl Workload for ServeClient {
    type Out = Frame;

    fn kinds(&self) -> Vec<(&'static str, usize)> {
        self.cases.iter().map(|c| (c.name, 1)).collect()
    }

    fn run(&mut self, kind: usize, tr: &Tracer) -> Result<Frame, String> {
        let spec = &self.cases[kind].spec;
        self.jobs += 1;
        let stream = tr
            .span("serve.submit", || self.client.submit(spec))
            .map_err(|e| format!("submit: {e}"))?;
        tr.span("serve.await_result", || {
            for frame in stream {
                let frame = frame.map_err(|e| format!("read: {e}"))?;
                self.frames += 1;
                match frame.get("frame").and_then(JsonValue::as_str) {
                    Some("result") => return Ok(frame),
                    Some("error") => {
                        self.error_frames += 1;
                        let msg = frame.get("message").and_then(JsonValue::as_str);
                        return Err(format!("error frame: {}", msg.unwrap_or("?")));
                    }
                    _ => {}
                }
            }
            Err("stream ended without a result frame".to_string())
        })
    }

    fn check(&self, kind: usize, frame: &Frame) -> Result<(), Mismatch> {
        let case = &self.cases[kind];
        let cov = frame
            .get("coverage")
            .ok_or_else(|| "result frame has no coverage".to_string())?;
        case.reference
            .compare(&Reference::of_json(cov)?, case.projection)
    }
}
