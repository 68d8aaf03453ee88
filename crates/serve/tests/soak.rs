//! Soak test: hundreds of concurrent mixed campaigns over one server
//! process, with random cancellations, checked bit-for-bit against local
//! runs.
//!
//! Every completed request's streamed event prefix, report, and coverage
//! map must be **bit-identical** to running the same spec locally through
//! `run_job` (after stripping the documented nondeterminism: `micros` and
//! `worker` fields, and `progress`/`span` frames whose interleaving is
//! thread-timing dependent). Every cancelled request must return a valid
//! fault-ordered *prefix* of the local run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scal_obs::json::{self, JsonValue};
use scal_obs::CollectObserver;
use scal_serve::client::demo;
use scal_serve::{run_job, Client, Frame, JobSpec, SchedConfig, ServeConfig};
use std::collections::HashMap;
use std::time::Duration;

const REQUESTS: usize = 208;
const WORKERS: usize = 8;
const MAX_JOB_THREADS: usize = 2;

/// Recursively drops the wall-clock and worker-attribution fields — the
/// only nondeterministic *values* in the event schema.
fn strip(v: &JsonValue) -> JsonValue {
    match v {
        JsonValue::Object(members) => JsonValue::Object(
            members
                .iter()
                .filter(|(k, _)| k != "micros" && k != "worker")
                .map(|(k, val)| (k.clone(), strip(val)))
                .collect(),
        ),
        JsonValue::Array(items) => JsonValue::Array(items.iter().map(strip).collect()),
        other => other.clone(),
    }
}

/// `progress` ticks interleave nondeterministically across workers, and
/// `span` aggregation granularity is a profiler detail; both are excluded
/// from the determinism contract.
fn keep_event(ev: &JsonValue) -> bool {
    !matches!(
        ev.get("ev").and_then(JsonValue::as_str),
        Some("progress" | "span")
    )
}

/// The normalized deterministic event stream of one local run.
fn local_events(collect: &CollectObserver) -> Vec<JsonValue> {
    collect
        .events()
        .iter()
        .map(|e| json::parse(&e.to_json()).expect("event json"))
        .filter(keep_event)
        .map(|v| strip(&v))
        .collect()
}

struct LocalRun {
    report: JsonValue,
    coverage: JsonValue,
    events: Vec<JsonValue>,
}

/// Replays `spec` locally with the same effective thread count the server
/// would use.
fn run_locally(spec: &JobSpec) -> LocalRun {
    let threads = match spec.threads {
        0 => 1,
        t => t.min(MAX_JOB_THREADS),
    };
    let collect = CollectObserver::new();
    let out = run_job(&spec.kind, threads, spec.fault_collapse, &collect, None).expect("local run");
    LocalRun {
        report: json::parse(&out.report).expect("report json"),
        coverage: json::parse(&out.coverage.to_json()).expect("coverage json"),
        events: local_events(&collect),
    }
}

/// One spec from the deterministic mix.
fn make_spec(rng: &mut StdRng) -> JobSpec {
    let priority = rng.gen_range(0u64..10) as u8;
    let roll = rng.gen_range(0u64..100);
    if roll < 45 {
        let mut spec = demo::pair_spec(priority, rng.gen_bool(0.2));
        spec.threads = rng.gen_range(1usize..3);
        if let scal_serve::JobKind::Pair {
            drop_after_detection,
            eval_mode,
            faults,
            ref circuit,
            ..
        } = &mut spec.kind
        {
            *drop_after_detection = rng.gen_bool(0.5);
            *eval_mode = if rng.gen_bool(0.5) {
                scal_engine::EvalMode::Full
            } else {
                scal_engine::EvalMode::Cone
            };
            if rng.gen_bool(0.25) {
                // Explicit fault list: every other collapsed fault.
                let all = scal_faults::enumerate_faults(circuit);
                *faults = scal_serve::FaultSpec::List(all.into_iter().step_by(2).collect());
            }
        }
        spec
    } else if roll < 85 {
        let backend = match rng.gen_range(0u64..4) {
            0 | 1 => scal_seq::SeqBackend::Packed,
            _ => scal_seq::SeqBackend::Graph,
        };
        demo::seq_spec(priority, backend, rng.gen_range(6usize..20))
    } else {
        demo::cpu_spec(priority)
    }
}

/// Cache key: the request line of the spec with scheduling-only fields
/// (priority, timeout, stream) pinned, since they cannot affect results.
fn cache_key(spec: &JobSpec) -> String {
    let mut canon = spec.clone();
    canon.priority = 0;
    canon.timeout_ms = None;
    canon.stream = true;
    canon.to_request_line()
}

#[test]
fn soak_mixed_concurrent_campaigns_with_cancellations() {
    let server = scal_serve::serve(ServeConfig {
        sched: SchedConfig {
            workers: WORKERS,
            max_threads_per_job: MAX_JOB_THREADS,
            queue_cap: 4096,
            log_transitions: false,
        },
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr().to_string();
    let client = Client::new(addr.clone());
    assert!(client.wait_ready(Duration::from_secs(10)), "server ready");

    // Deterministic mix and cancellation plan.
    let mut rng = StdRng::seed_from_u64(0x5CA1_AB1E);
    let plan: Vec<(JobSpec, Option<usize>)> = (0..REQUESTS)
        .map(|_| {
            let spec = make_spec(&mut rng);
            // ~18% of requests get cancelled after a few frames; cancelling
            // early means most targets are still queued, exercising the
            // queued-cancel path alongside mid-run cancels.
            let cancel_after = rng.gen_bool(0.18).then(|| rng.gen_range(1usize..24));
            (spec, cancel_after)
        })
        .collect();

    // Fire every request from its own thread, collecting all frames.
    let handles: Vec<_> = plan
        .iter()
        .cloned()
        .map(|(spec, cancel_after)| {
            let addr = addr.clone();
            std::thread::spawn(move || -> (JobSpec, Vec<Frame>) {
                let client = Client::new(addr);
                // The listener backlog can drop a burst of simultaneous
                // connects; retry a few times.
                let mut stream = None;
                for _ in 0..50 {
                    match client.submit(&spec) {
                        Ok(s) => {
                            stream = Some(s);
                            break;
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(20)),
                    }
                }
                let stream = stream.expect("connect");
                let mut frames = Vec::new();
                let mut id = None;
                for frame in stream {
                    let frame = frame.expect("parse frame");
                    if id.is_none() {
                        id = frame
                            .get("id")
                            .and_then(JsonValue::as_f64)
                            .map(|n| n as u64);
                    }
                    frames.push(frame);
                    if Some(frames.len()) == cancel_after {
                        let _ = client.cancel(id.expect("id in first frame"));
                    }
                }
                (spec, frames)
            })
        })
        .collect();

    let responses: Vec<(JobSpec, Vec<Frame>)> = handles
        .into_iter()
        .map(|h| h.join().expect("client"))
        .collect();

    // Drain and stop the server before the (slow) local replays.
    let (_queued, _running, done) = client.status().expect("status");
    assert_eq!(done as usize, REQUESTS, "every request ran");
    client.shutdown().expect("shutdown");
    server.join();

    // Check every response against a local reference run.
    let mut local_cache: HashMap<String, LocalRun> = HashMap::new();
    let mut completed = 0usize;
    let mut cancelled = 0usize;
    let mut seen_traces = std::collections::HashSet::new();
    for (i, (spec, frames)) in responses.iter().enumerate() {
        assert!(!frames.is_empty(), "request {i}: empty response");
        let first = &frames[0];
        assert_eq!(
            first.get("frame").and_then(JsonValue::as_str),
            Some("accepted"),
            "request {i}: first frame {first:?}"
        );
        // Trace-id contract: every frame of a job — cancelled-prefix jobs
        // included — carries the trace id minted in its `accepted` frame,
        // and traces never collide across jobs.
        let trace = first
            .get("trace")
            .and_then(JsonValue::as_f64)
            .map(|n| n as u64)
            .expect("accepted frame carries a trace id");
        assert!(trace > 0, "request {i}: trace ids start at 1");
        assert!(
            seen_traces.insert(trace),
            "request {i}: trace {trace} reused across jobs"
        );
        for (j, frame) in frames.iter().enumerate() {
            assert_eq!(
                frame.get("trace").and_then(JsonValue::as_f64),
                Some(trace as f64),
                "request {i} frame {j}: trace mismatch ({frame:?})"
            );
        }
        assert_eq!(
            first.get("kind").and_then(JsonValue::as_str),
            Some(spec.kind.name()),
            "request {i}"
        );
        let last = frames.last().expect("frames");
        assert_eq!(
            last.get("frame").and_then(JsonValue::as_str),
            Some("result"),
            "request {i}: terminal frame {last:?}"
        );
        let report = last.get("report").expect("report");
        let coverage = last.get("coverage").expect("coverage");
        let was_cancelled = report.get("cancelled") == Some(&JsonValue::Bool(true));
        assert_eq!(
            coverage.get("cancelled"),
            Some(&JsonValue::Bool(was_cancelled)),
            "request {i}: report and coverage disagree on cancellation"
        );

        let key = cache_key(spec);
        let local = local_cache.entry(key).or_insert_with(|| run_locally(spec));

        let streamed_events: Vec<JsonValue> = frames
            .iter()
            .filter(|f| f.get("frame").and_then(JsonValue::as_str) == Some("event"))
            .map(|f| f.get("event").expect("event body").clone())
            .filter(keep_event)
            .map(|v| strip(&v))
            .collect();

        if was_cancelled {
            cancelled += 1;
            // Coverage must be a fault-ordered prefix of the local map.
            let server_records = coverage
                .get("records")
                .and_then(JsonValue::as_array)
                .expect("records");
            let local_records = local
                .coverage
                .get("records")
                .and_then(JsonValue::as_array)
                .expect("records");
            assert!(
                server_records.len() <= local_records.len(),
                "request {i}: cancelled prefix longer than the full run"
            );
            assert_eq!(
                server_records,
                &local_records[..server_records.len()],
                "request {i}: cancelled coverage is not a prefix"
            );
            // So must the per-fault finish stream.
            let finishes = |evs: &[JsonValue]| -> Vec<JsonValue> {
                evs.iter()
                    .filter(|e| e.get("ev").and_then(JsonValue::as_str) == Some("fault_finish"))
                    .cloned()
                    .collect()
            };
            let streamed_fin = finishes(&streamed_events);
            let local_fin = finishes(&local.events);
            assert!(
                streamed_fin.len() <= local_fin.len(),
                "request {i}: more finishes than the full run"
            );
            assert_eq!(
                streamed_fin,
                local_fin[..streamed_fin.len()].to_vec(),
                "request {i}: cancelled finish stream is not a prefix"
            );
        } else {
            completed += 1;
            assert_eq!(
                strip(report),
                strip(&local.report),
                "request {i}: report mismatch"
            );
            assert_eq!(
                strip(coverage),
                strip(&local.coverage),
                "request {i}: coverage mismatch"
            );
            if spec.stream {
                assert_eq!(
                    streamed_events, local.events,
                    "request {i}: event stream mismatch"
                );
            }
        }
    }

    assert_eq!(completed + cancelled, REQUESTS);
    // The plan cancels ~18% of requests early (most while still queued), so
    // a healthy run must see a meaningful number of both outcomes.
    assert!(completed >= REQUESTS / 2, "completed = {completed}");
    assert!(cancelled >= 5, "cancelled = {cancelled}");
}
