//! The TCP/JSONL campaign server.
//!
//! One listener thread accepts connections; each connection gets its own
//! handler thread. A connection carries exactly **one** request line and
//! receives that request's frame stream (a submit streams `accepted`,
//! `event`… and a terminal `result`/`error`; control requests get a single
//! ack frame). Campaigns themselves run on the shared [`Scheduler`] pool,
//! so a thousand connections never mean a thousand campaigns at once.
//!
//! A job's event frames reach the handler in batches
//! ([`FrameBatch`]): the campaign's [`WireObserver`](crate::wire::WireObserver)
//! renders up to [`FRAME_COALESCE`] frames into one buffer, sends it at a
//! phase or campaign boundary, when full, or at once when the event came
//! [`FRAME_LINGER`] or more after the previous batch, and the handler
//! writes each batch with one `write_all`. One read may therefore return
//! several frames; every frame is still one newline-terminated line.
//!
//! Client death is detected at the first failed frame write: the handler
//! cancels the job's token and then *drains* the job's channel (discarding
//! frames) so a worker blocked on the bounded channel's backpressure can
//! reach its next cancellation checkpoint instead of deadlocking.
//!
//! With [`ServeConfig::metrics_addr`] set, a second listener thread speaks
//! just enough HTTP/1.1 to serve `GET /metrics` (Prometheus text
//! exposition of the shared [`Telemetry`] registry) and `GET /healthz`
//! (liveness + uptime). The scrape path never touches the campaign path:
//! it reads atomics and renders text.

use crate::proto::{
    frame_accepted, frame_cancel_ack, frame_dump, frame_error, frame_shutdown_ack, frame_status,
    Request, StatusInfo,
};
use crate::sched::{SchedConfig, Scheduler};
use crate::telemetry::Telemetry;
use crate::wire::FrameBatch;
use scal_obs::{Counter, Histogram};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-job frame-channel bound, in frames: how many rendered frames may sit
/// between a campaign worker and a slow client before backpressure
/// throttles the campaign. The channel holds `FRAME_BUFFER /
/// FRAME_COALESCE` batches (about 120 KB of event frames).
pub const FRAME_BUFFER: usize = 1024;

/// Most frames one batch — one channel message, one socket write —
/// carries.
pub const FRAME_COALESCE: usize = 64;

// Whole batches of at most FRAME_COALESCE frames fill the channel exactly.
const _: () = assert!(FRAME_BUFFER % FRAME_COALESCE == 0);

/// An event that arrives this long or longer after its job's previous
/// batch went out is sent at once, with whatever was pending, so a slow
/// trickle of events is not held back waiting for a full batch.
pub const FRAME_LINGER: Duration = Duration::from_millis(1);

/// Server knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks a free port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Scheduler pool configuration.
    pub sched: SchedConfig,
    /// Longest accepted request line, in bytes (hostile-input guard).
    pub max_request_bytes: usize,
    /// Per-connection socket read timeout. Bounds how long an idle
    /// connection (one that never sends its request line) can pin its
    /// handler thread.
    pub read_timeout: Duration,
    /// When set, bind a second listener here serving `GET /metrics`
    /// (Prometheus text) and `GET /healthz` over HTTP/1.1. Port `0` picks
    /// a free port (see [`ServerHandle::metrics_addr`]).
    pub metrics_addr: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            sched: SchedConfig::default(),
            max_request_bytes: 16 << 20,
            read_timeout: Duration::from_secs(30),
            metrics_addr: None,
        }
    }
}

/// Connection-path instruments, pre-resolved once at startup so handlers
/// never take the registry lock.
#[derive(Debug)]
struct ConnStats {
    connections: Arc<Counter>,
    frames_sent: Arc<Counter>,
    bytes_sent: Arc<Counter>,
    submit_accept: Arc<Histogram>,
}

impl ConnStats {
    fn new(telemetry: &Telemetry) -> Self {
        let m = telemetry.metrics();
        ConnStats {
            connections: m.counter("scal_serve_connections_total"),
            frames_sent: m.counter("scal_serve_frames_sent_total"),
            bytes_sent: m.counter("scal_serve_bytes_sent_total"),
            submit_accept: m.histogram("scal_serve_submit_accept_micros"),
        }
    }
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::join`] (after a `shutdown` request) or
/// [`ServerHandle::shutdown_and_join`].
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    metrics_thread: Option<JoinHandle<()>>,
    sched: Option<Arc<SchedulerCell>>,
    telemetry: Arc<Telemetry>,
}

/// Shared ownership wrapper so connection handlers and the handle all see
/// one scheduler, which `join` can still consume to drain the pool.
#[derive(Debug)]
struct SchedulerCell {
    sched: Mutex<Option<Scheduler>>,
}

impl SchedulerCell {
    fn with<R>(&self, f: impl FnOnce(&Scheduler) -> R) -> Option<R> {
        self.sched.lock().expect("scheduler cell").as_ref().map(f)
    }
}

impl ServerHandle {
    /// The bound address (resolves port `0`).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound metrics address, when [`ServeConfig::metrics_addr`] was
    /// set (resolves port `0`).
    #[must_use]
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The telemetry hub shared by the scheduler, the connection handlers
    /// and the `/metrics` responder — inspectable in-process (used by the
    /// bench suite to read latency quantiles without a scrape).
    #[must_use]
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Requests shutdown exactly like a `{"cmd":"shutdown"}` request:
    /// reject new submissions, cancel live jobs, stop accepting.
    pub fn shutdown(&self) {
        if let Some(cell) = &self.sched {
            let _ = cell.with(Scheduler::shutdown);
        }
        self.shutdown.store(true, Ordering::SeqCst);
        // Self-connect to unblock the accept loops.
        let _ = TcpStream::connect(self.addr);
        if let Some(addr) = self.metrics_addr {
            let _ = TcpStream::connect(addr);
        }
    }

    /// Waits for the accept loop, every connection handler, the metrics
    /// responder, and the worker pool to finish. Call after
    /// [`ServerHandle::shutdown`] (or after a client sent
    /// `{"cmd":"shutdown"}`).
    ///
    /// # Panics
    ///
    /// Panics if the accept thread or a scheduler worker panicked.
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            t.join().expect("accept thread");
        }
        // The JSONL accept loop may have been popped by a client
        // `shutdown` request; make sure the metrics loop sees the flag
        // and gets its wakeup connection too.
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(addr) = self.metrics_addr {
            let _ = TcpStream::connect(addr);
        }
        if let Some(t) = self.metrics_thread.take() {
            t.join().expect("metrics thread");
        }
        if let Some(cell) = self.sched.take() {
            if let Some(sched) = cell.sched.lock().expect("scheduler cell").take() {
                sched.shutdown();
                sched.join();
            }
        }
    }

    /// [`ServerHandle::shutdown`] then [`ServerHandle::join`].
    ///
    /// # Panics
    ///
    /// Panics if the accept thread or a scheduler worker panicked.
    pub fn shutdown_and_join(self) {
        self.shutdown();
        self.join();
    }
}

/// Binds and starts the server.
///
/// # Errors
///
/// Propagates a bind failure (either listener).
pub fn serve(config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let mut telemetry = Telemetry::new();
    telemetry.log_transitions = config.sched.log_transitions;
    let telemetry = Arc::new(telemetry);
    let shutdown = Arc::new(AtomicBool::new(false));
    let cell = Arc::new(SchedulerCell {
        sched: Mutex::new(Some(Scheduler::with_telemetry(
            config.sched.clone(),
            Arc::clone(&telemetry),
        ))),
    });
    let stats = Arc::new(ConnStats::new(&telemetry));

    let (metrics_listener, metrics_addr) = match &config.metrics_addr {
        Some(maddr) => {
            let l = TcpListener::bind(maddr)?;
            let a = l.local_addr()?;
            (Some(l), Some(a))
        }
        None => (None, None),
    };

    let accept_shutdown = Arc::clone(&shutdown);
    let accept_cell = Arc::clone(&cell);
    let accept_stats = Arc::clone(&stats);
    let accept_thread = std::thread::spawn(move || {
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        for stream in listener.incoming() {
            if accept_shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            accept_stats.connections.inc();
            let cell = Arc::clone(&accept_cell);
            let shutdown = Arc::clone(&accept_shutdown);
            let stats = Arc::clone(&accept_stats);
            let cfg = config.clone();
            handlers.push(std::thread::spawn(move || {
                handle_connection(stream, &cell, &shutdown, &stats, &cfg);
            }));
            // Reap finished handlers so the vec doesn't grow with every
            // connection ever accepted.
            handlers.retain(|h| !h.is_finished());
        }
        for h in handlers {
            let _ = h.join();
        }
    });

    let metrics_thread = metrics_listener.map(|listener| {
        let shutdown = Arc::clone(&shutdown);
        let telemetry = Arc::clone(&telemetry);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(mut stream) = stream else { continue };
                serve_metrics_request(&mut stream, &telemetry);
            }
        })
    });

    Ok(ServerHandle {
        addr,
        metrics_addr,
        shutdown,
        accept_thread: Some(accept_thread),
        metrics_thread,
        sched: Some(cell),
        telemetry,
    })
}

/// Answers one HTTP/1.1 request on the metrics listener: `GET /metrics` →
/// Prometheus text exposition, `GET /healthz` → liveness JSON, anything
/// else → 404. Always `Connection: close` — scrapers reconnect per
/// scrape, which keeps the responder a simple loop.
fn serve_metrics_request(stream: &mut TcpStream, telemetry: &Telemetry) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut request_line = String::new();
    {
        let mut reader = BufReader::new(match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        });
        let mut bounded = std::io::Read::take(&mut reader, 8192);
        if bounded.read_line(&mut request_line).is_err() {
            return;
        }
        // Drain the header block so well-behaved clients don't see a reset
        // mid-request; errors and EOF just end the drain.
        let mut header = String::new();
        loop {
            header.clear();
            match bounded.read_line(&mut header) {
                Ok(0) => break,
                Ok(_) if header == "\r\n" || header == "\n" => break,
                Ok(_) => {}
                Err(_) => break,
            }
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_owned(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                telemetry.metrics().render_prometheus(),
            ),
            "/healthz" => (
                "200 OK",
                "application/json",
                format!("{{\"ok\":true,\"uptime_ms\":{}}}\n", telemetry.uptime_ms()),
            ),
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found\n".to_owned(),
            ),
        }
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

/// Writes `lines` — `frames` whole newline-terminated frames — with one
/// `write_all`, counting them; `false` on failure (client gone).
fn send_lines(stream: &mut TcpStream, lines: &str, frames: u64, stats: &ConnStats) -> bool {
    let ok = stream.write_all(lines.as_bytes()).is_ok();
    if ok {
        stats.frames_sent.add(frames);
        stats.bytes_sent.add(lines.len() as u64);
    }
    ok
}

/// Writes one frame line, counting it; `false` on failure (client gone).
fn send_line(stream: &mut TcpStream, mut frame: String, stats: &ConnStats) -> bool {
    frame.push('\n');
    send_lines(stream, &frame, 1, stats)
}

fn handle_connection(
    mut stream: TcpStream,
    cell: &SchedulerCell,
    shutdown: &AtomicBool,
    stats: &ConnStats,
    config: &ServeConfig,
) {
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let mut line = String::new();
    {
        let mut reader = BufReader::new(match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        });
        // take() bounds hostile over-long requests; a line that exhausts
        // the limit without a newline parses as garbage and errors out.
        let mut bounded = std::io::Read::take(&mut reader, config.max_request_bytes as u64);
        if bounded.read_line(&mut line).is_err() {
            return;
        }
    }
    let received = Instant::now();
    let line = line.trim_end_matches(['\n', '\r']);
    if line.is_empty() {
        return;
    }
    let request = match Request::parse(line) {
        Ok(r) => r,
        Err(e) => {
            let _ = send_line(
                &mut stream,
                frame_error(None, None, e.code, &e.message),
                stats,
            );
            return;
        }
    };
    match request {
        Request::Submit(spec) => {
            let kind = spec.kind.name();
            let priority = spec.priority;
            let (tx, rx) = sync_channel::<FrameBatch>(FRAME_BUFFER / FRAME_COALESCE);
            let submitted = cell.with(|s| s.submit(*spec, tx));
            match submitted {
                Some(Ok((id, trace, queued))) => {
                    let mut client_alive = send_line(
                        &mut stream,
                        frame_accepted(id, trace, kind, priority, queued),
                        stats,
                    );
                    stats
                        .submit_accept
                        .record(u64::try_from(received.elapsed().as_micros()).unwrap_or(u64::MAX));
                    if !client_alive {
                        let _ = cell.with(|s| s.cancel(id));
                    }
                    // Stream batches until the worker drops its sender, one
                    // write per batch. On a failed write, cancel the job but
                    // KEEP draining the channel: a worker blocked on the
                    // bounded channel's backpressure must be released to
                    // reach its next cancellation checkpoint.
                    while let Ok(batch) = rx.recv() {
                        if client_alive
                            && !send_lines(&mut stream, &batch.lines, batch.frames as u64, stats)
                        {
                            client_alive = false;
                            let _ = cell.with(|s| s.cancel(id));
                        }
                    }
                }
                Some(Err((code, message))) => {
                    let _ = send_line(&mut stream, frame_error(None, None, code, &message), stats);
                }
                None => {
                    let _ = send_line(
                        &mut stream,
                        frame_error(None, None, "shutting_down", "server is draining"),
                        stats,
                    );
                }
            }
        }
        Request::Cancel { id } => {
            let found = cell.with(|s| s.cancel(id)).unwrap_or(false);
            let _ = send_line(&mut stream, frame_cancel_ack(id, found), stats);
        }
        Request::Status => {
            let frame = cell.with(|s| frame_status(&s.status())).unwrap_or_else(|| {
                frame_status(&StatusInfo {
                    shutting_down: true,
                    ..StatusInfo::default()
                })
            });
            let _ = send_line(&mut stream, frame, stats);
        }
        Request::Dump => {
            let frame = cell
                .with(|s| frame_dump(&s.telemetry().recorder().dump_jsonl()))
                .unwrap_or_else(|| frame_dump(&[]));
            let _ = send_line(&mut stream, frame, stats);
        }
        Request::Shutdown => {
            let _ = cell.with(Scheduler::shutdown);
            shutdown.store(true, Ordering::SeqCst);
            let _ = send_line(&mut stream, frame_shutdown_ack(), stats);
            // Self-connect to pop the accept loop out of `incoming()`.
            if let Ok(addr) = stream.local_addr() {
                let _ = TcpStream::connect(addr);
            }
        }
    }
}
