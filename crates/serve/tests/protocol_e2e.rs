//! End-to-end protocol tests over a real TCP server: error frames for
//! hostile input, cancel acks, status counters, non-streaming submits,
//! deadline timeouts, exact frame/byte counters, slow-reader backpressure,
//! and clean shutdown.

use scal_engine::EvalMode;
use scal_netlist::NetlistFormat;
use scal_obs::json::{self, JsonValue};
use scal_obs::CollectObserver;
use scal_serve::client::demo;
use scal_serve::{
    run_job, serve, Client, FaultSpec, Frame, JobKind, JobSpec, SchedConfig, ServeConfig,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

fn start() -> (scal_serve::ServerHandle, Client) {
    let server = serve(ServeConfig {
        sched: SchedConfig {
            workers: 2,
            max_threads_per_job: 2,
            queue_cap: 64,
            log_transitions: false,
        },
        metrics_addr: Some("127.0.0.1:0".to_owned()),
        ..ServeConfig::default()
    })
    .expect("bind");
    let client = Client::new(server.addr().to_string());
    assert!(client.wait_ready(Duration::from_secs(10)));
    (server, client)
}

fn field<'a>(frame: &'a Frame, key: &str) -> &'a str {
    frame
        .get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("frame missing {key:?}: {frame:?}"))
}

#[test]
fn hostile_requests_get_typed_error_frames() {
    let (server, client) = start();
    for (line, code) in [
        ("this is not json", "bad_json"),
        ("{\"v\":1}", "bad_request"),
        (
            "{\"cmd\":\"submit\",\"v\":1,\"kind\":\"pair\"}",
            "bad_request",
        ),
        (
            "{\"cmd\":\"submit\",\"v\":1,\"kind\":\"pair\",\"netlist\":\"gate bogus\"}",
            "bad_netlist",
        ),
        (
            "{\"cmd\":\"submit\",\"v\":99,\"kind\":\"pair\"}",
            "bad_version",
        ),
        ("{\"cmd\":\"cancel\",\"v\":1}", "bad_request"),
    ] {
        let frame = client
            .request(line)
            .expect("connect")
            .next()
            .expect("one frame")
            .expect("parse");
        assert_eq!(field(&frame, "frame"), "error", "for {line:?}");
        assert_eq!(field(&frame, "code"), code, "for {line:?}");
        assert!(!field(&frame, "message").is_empty(), "for {line:?}");
    }
    server.shutdown_and_join();
}

/// `scalar` is not a seq backend: a submit naming it is a `bad_request`
/// whose message lists the two backends there are, `packed` and `graph`.
#[test]
fn removed_scalar_seq_backend_is_a_bad_request() {
    let (server, client) = start();
    let line = demo::seq_spec(4, scal_seq::SeqBackend::Packed, 4)
        .to_request_line()
        .replace("\"seq_backend\":\"packed\"", "\"seq_backend\":\"scalar\"");
    assert!(line.contains("\"seq_backend\":\"scalar\""), "{line}");
    let frame = client
        .request(&line)
        .expect("connect")
        .next()
        .expect("one frame")
        .expect("parse");
    assert_eq!(field(&frame, "frame"), "error");
    assert_eq!(field(&frame, "code"), "bad_request");
    let message = field(&frame, "message");
    assert!(
        message.contains("packed") && message.contains("graph"),
        "{message}"
    );
    server.shutdown_and_join();
}

#[test]
fn cancel_of_unknown_id_reports_not_found() {
    let (server, client) = start();
    assert!(!client.cancel(123_456).expect("cancel_ack"));
    server.shutdown_and_join();
}

#[test]
fn status_counts_completed_jobs() {
    let (server, client) = start();
    let frames: Vec<_> = client
        .submit(&demo::pair_spec(4, false))
        .expect("submit")
        .map(|f| f.expect("frame"))
        .collect();
    assert_eq!(field(&frames[0], "frame"), "accepted");
    assert_eq!(
        field(frames.last().expect("terminal frame"), "frame"),
        "result"
    );
    let (queued, running, done) = client.status().expect("status");
    assert_eq!((queued, running, done), (0, 0, 1));
    server.shutdown_and_join();
}

#[test]
fn non_streaming_submit_returns_only_accepted_and_result() {
    let (server, client) = start();
    let mut spec = demo::seq_spec(4, scal_seq::SeqBackend::Packed, 12);
    spec.stream = false;
    let frames: Vec<_> = client
        .submit(&spec)
        .expect("submit")
        .map(|f| f.expect("frame"))
        .collect();
    assert_eq!(frames.len(), 2, "{frames:?}");
    assert_eq!(field(&frames[0], "frame"), "accepted");
    assert_eq!(field(&frames[1], "frame"), "result");
    let report = frames[1].get("report").expect("report");
    assert_eq!(report.get("cancelled"), Some(&JsonValue::Bool(false)));
    server.shutdown_and_join();
}

#[test]
fn deadline_timeout_cancels_into_a_valid_prefix() {
    let (server, client) = start();
    // Graph-oracle replay of a long word sequence: far slower than the 1 ms
    // deadline, and cancellation is checkpointed per fault, so the result
    // must come back as a cancelled prefix.
    let mut spec = demo::seq_spec(4, scal_seq::SeqBackend::Graph, 4096);
    spec.timeout_ms = Some(1);
    let frames: Vec<_> = client
        .submit(&spec)
        .expect("submit")
        .map(|f| f.expect("frame"))
        .collect();
    let last = frames.last().expect("terminal frame");
    assert_eq!(field(last, "frame"), "result");
    let report = last.get("report").expect("report");
    assert_eq!(report.get("cancelled"), Some(&JsonValue::Bool(true)));
    let coverage = last.get("coverage").expect("coverage");
    assert_eq!(coverage.get("cancelled"), Some(&JsonValue::Bool(true)));
    server.shutdown_and_join();
}

#[test]
fn every_job_frame_carries_the_accepted_trace() {
    let (server, client) = start();
    let frames: Vec<_> = client
        .submit(&demo::pair_spec(4, false))
        .expect("submit")
        .map(|f| f.expect("frame"))
        .collect();
    let trace = frames[0]
        .get("trace")
        .and_then(JsonValue::as_f64)
        .expect("trace in accepted frame");
    assert!(trace >= 1.0);
    for frame in &frames {
        assert_eq!(
            frame.get("trace").and_then(JsonValue::as_f64),
            Some(trace),
            "{frame:?}"
        );
    }
    server.shutdown_and_join();
}

#[test]
fn status_frame_reports_uptime_depths_and_job_outcomes() {
    let (server, client) = start();
    let frames: Vec<_> = client
        .submit(&demo::pair_spec(4, false))
        .expect("submit")
        .map(|f| f.expect("frame"))
        .collect();
    assert_eq!(
        field(frames.last().expect("terminal frame"), "frame"),
        "result"
    );
    let status = client.status_frame().expect("status");
    let num = |k: &str| {
        status
            .get(k)
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|| panic!("status missing {k:?}: {status:?}"))
    };
    assert!(num("uptime_ms") < 3_600_000.0);
    assert_eq!(num("done"), 1.0);
    let jobs = status.get("jobs").expect("jobs object");
    assert_eq!(jobs.get("accepted").and_then(JsonValue::as_f64), Some(1.0));
    assert_eq!(jobs.get("finished").and_then(JsonValue::as_f64), Some(1.0));
    assert_eq!(jobs.get("cancelled").and_then(JsonValue::as_f64), Some(0.0));
    let depths = status
        .get("queue_depths")
        .and_then(JsonValue::as_array)
        .expect("queue_depths");
    assert_eq!(depths.len(), 10);
    assert!(depths.iter().all(|d| d.as_f64() == Some(0.0)));
    server.shutdown_and_join();
}

#[test]
fn dump_returns_the_flight_recorder_as_events() {
    let (server, client) = start();
    let frames: Vec<_> = client
        .submit(&demo::pair_spec(4, false))
        .expect("submit")
        .map(|f| f.expect("frame"))
        .collect();
    let trace = frames[0]
        .get("trace")
        .and_then(JsonValue::as_f64)
        .expect("trace");
    let events = client.dump().expect("dump");
    assert!(
        events.len() >= 3,
        "submit/start/finish at least: {events:?}"
    );
    let states: Vec<&str> = events
        .iter()
        .filter(|e| e.get("trace").and_then(JsonValue::as_f64) == Some(trace))
        .map(|e| e.get("state").and_then(JsonValue::as_str).expect("state"))
        .collect();
    assert_eq!(states, ["submit", "start", "finish"], "{events:?}");
    // Timestamps are monotone oldest → newest.
    let times: Vec<f64> = events
        .iter()
        .filter_map(|e| e.get("ms").and_then(JsonValue::as_f64))
        .collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
    server.shutdown_and_join();
}

#[test]
fn metrics_endpoint_serves_prometheus_text_and_health() {
    let (server, client) = start();
    let maddr = server.metrics_addr().expect("metrics listener").to_string();
    let health = scal_serve::client::http_get(&maddr, "/healthz").expect("healthz");
    assert!(health.contains("\"ok\":true"), "{health}");
    assert!(health.contains("uptime_ms"), "{health}");

    let frames: Vec<_> = client
        .submit(&demo::pair_spec(4, false))
        .expect("submit")
        .map(|f| f.expect("frame"))
        .collect();
    assert_eq!(
        field(frames.last().expect("terminal frame"), "frame"),
        "result"
    );

    let body = scal_serve::client::http_get(&maddr, "/metrics").expect("metrics");
    assert!(
        body.contains("# TYPE scal_serve_jobs_total counter"),
        "{body}"
    );
    let parsed = scal_serve::PromText::parse(&body);
    assert_eq!(
        parsed.value("scal_serve_jobs_total", &[("state", "accepted")]),
        Some(1.0)
    );
    assert_eq!(
        parsed.value("scal_serve_jobs_total", &[("state", "finished")]),
        Some(1.0)
    );
    assert_eq!(
        parsed.value("scal_serve_workers_idle", &[]),
        Some(2.0),
        "both workers idle again"
    );
    for p in 0..10 {
        assert_eq!(
            parsed.value("scal_serve_queue_depth", &[("priority", &p.to_string())]),
            Some(0.0),
            "priority {p}"
        );
    }
    assert_eq!(
        parsed.value("scal_serve_queue_wait_micros_count", &[]),
        Some(1.0)
    );
    assert_eq!(parsed.value("scal_serve_run_micros_count", &[]), Some(1.0));
    assert!(
        parsed
            .histogram_quantile("scal_serve_run_micros", 0.5)
            .expect("run p50")
            > 0.0
    );
    assert!(
        parsed
            .value("scal_serve_connections_total", &[])
            .expect("conns")
            >= 2.0
    );
    assert!(
        parsed
            .value("scal_serve_frames_sent_total", &[])
            .expect("frames")
            >= 2.0
    );
    assert!(
        parsed
            .value("scal_serve_bytes_sent_total", &[])
            .expect("bytes")
            >= 100.0
    );

    // Unknown paths 404, and that is an error for the helper.
    assert!(scal_serve::client::http_get(&maddr, "/nope").is_err());
    server.shutdown_and_join();
}

#[test]
fn shutdown_acks_then_stops_accepting() {
    let (server, client) = start();
    client.shutdown().expect("ack");
    server.join();
    // The listener is gone: either the connection is refused or the probe
    // times out — it must not succeed.
    assert!(client.status().is_err());
}

/// A streamed single-thread pair campaign over the `bits`-bit ripple
/// adder.
fn adder_stream(bits: usize, drop: bool) -> JobSpec {
    JobSpec {
        kind: JobKind::Pair {
            circuit: scal_core::paper::ripple_adder(bits),
            faults: FaultSpec::All,
            drop_after_detection: drop,
            eval_mode: EvalMode::Cone,
            scalar: false,
        },
        priority: 4,
        timeout_ms: None,
        threads: 1,
        stream: true,
        fault_collapse: None,
        netlist_format: NetlistFormat::ScalText,
    }
}

/// Submits `spec` on a raw connection and returns the response lines as
/// read (newlines stripped), calling `pace` with the bytes read so far
/// before each read.
fn read_raw_lines(addr: &str, spec: &JobSpec, mut pace: impl FnMut(u64)) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut request = spec.to_request_line();
    request.push('\n');
    stream.write_all(request.as_bytes()).expect("request");
    let mut reader = BufReader::new(stream);
    let mut lines = Vec::new();
    let mut read = 0;
    loop {
        pace(read);
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read");
        if n == 0 {
            return lines;
        }
        read += n as u64;
        assert_eq!(line.pop(), Some('\n'), "every frame ends in a newline");
        lines.push(line);
    }
}

/// Drops the wall-clock and worker-attribution fields, the only
/// nondeterministic values in the event schema.
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

#[test]
fn frame_and_byte_counters_equal_what_the_client_read() {
    let (server, _client) = start();
    let metrics = server.telemetry().metrics();
    let frames_sent = metrics.counter("scal_serve_frames_sent_total");
    let bytes_sent = metrics.counter("scal_serve_bytes_sent_total");
    // `start()`'s readiness probe can read its status reply before the
    // handler counts it (the counters move after `write_all` returns):
    // snapshot only once that frame, the only one sent so far, is counted.
    let ready = std::time::Instant::now();
    while frames_sent.get() == 0 || bytes_sent.get() == 0 {
        assert!(
            ready.elapsed() < Duration::from_secs(10),
            "readiness frame never counted"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let (frames_before, bytes_before) = (frames_sent.get(), bytes_sent.get());
    assert_eq!(
        frames_before, 1,
        "only the readiness frame precedes the job"
    );

    let lines = read_raw_lines(&server.addr().to_string(), &adder_stream(8, true), |_| {});
    assert!(lines.len() > 1000, "a streamed job: {} frames", lines.len());
    assert_eq!(
        json::parse(lines.last().expect("result"))
            .expect("frame")
            .get("frame"),
        Some(&JsonValue::Str("result".to_owned()))
    );
    // The handler counts a write before it closes the connection, so at
    // EOF the counters are final.
    let read_bytes: usize = lines.iter().map(|l| l.len() + 1).sum();
    assert_eq!(frames_sent.get() - frames_before, lines.len() as u64);
    assert_eq!(bytes_sent.get() - bytes_before, read_bytes as u64);
    server.shutdown_and_join();
}

#[test]
fn a_slow_reader_throttles_the_worker_and_loses_no_frame() {
    let (server, _client) = start();
    let metrics = server.telemetry().metrics();
    let stall = metrics.histogram("scal_serve_frame_stall_micros");
    let bytes_sent = metrics.counter("scal_serve_bytes_sent_total");
    // The 7-bit adder without fault dropping streams ~67,000 event frames,
    // ~7 MB: more than the frame channel and the loopback socket buffers
    // hold, so a reader that holds back must block the worker.
    let spec = adder_stream(7, false);
    // A blocked send counts only once the handler has written at least
    // `BACKLOG` bytes more than the reader took: those bytes sit in the
    // socket (the reader's own buffer holds at most 8 KiB of them), so the
    // reader, not the handler's pace, is what holds the channel full. A
    // send blocked earlier, behind the handler's own writes, proves nothing.
    const BACKLOG: u64 = 64 * 1024;
    // Hold the reader until such a blocked send is recorded: while batches
    // go out (the stall histogram counts every send) the reader waits, and
    // it takes lines only while none has gone out since its last look — the
    // worker is then quiet or blocked on the full frame channel, and a
    // blocked send is recorded only once the reader frees room for it.
    let held = std::time::Instant::now();
    let bytes_before = bytes_sent.get();
    let mut seen = stall.count();
    // The stall total when the backlog first reached `BACKLOG`.
    let mut backlogged: Option<u64> = None;
    let blocked_by_reader = |backlogged: Option<u64>| backlogged.is_some_and(|s| stall.sum() > s);
    let lines = read_raw_lines(&server.addr().to_string(), &spec, |read| {
        while !blocked_by_reader(backlogged) {
            if backlogged.is_none() && bytes_sent.get() - bytes_before >= read + BACKLOG {
                backlogged = Some(stall.sum());
                continue;
            }
            let sent = stall.count();
            if sent == seen {
                break;
            }
            seen = sent;
            assert!(
                held.elapsed() < Duration::from_secs(30),
                "no blocked send recorded in 30 s"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    });
    assert!(
        blocked_by_reader(backlogged),
        "the worker never blocked behind a {BACKLOG}-byte socket backlog"
    );
    let frame = |l: &str| Frame::from_line(l.to_owned()).expect("frame");
    assert_eq!(field(&frame(&lines[0]), "frame"), "accepted");
    let result = frame(lines.last().expect("result"));
    assert_eq!(field(&result, "frame"), "result");

    // Every event of a local run of the same campaign arrived, in order.
    let collect = CollectObserver::new();
    let local = run_job(&spec.kind, 1, None, &collect, None).expect("local run");
    let expected = collect.events();
    let events = &lines[1..lines.len() - 1];
    assert_eq!(events.len(), expected.len());
    for (i, (line, want)) in events.iter().zip(expected.iter()).enumerate() {
        let got = frame(line);
        assert_eq!(field(&got, "frame"), "event");
        assert_eq!(
            strip(got.get("event").expect("event")),
            strip(&json::parse(&want.to_json()).expect("event")),
            "event {i}"
        );
    }
    assert_eq!(
        result.get("coverage"),
        Some(&json::parse(&local.coverage.to_json()).expect("coverage"))
    );
    server.shutdown_and_join();
}
