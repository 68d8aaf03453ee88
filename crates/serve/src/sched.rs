//! The shared campaign scheduler: a bounded worker pool draining a priority
//! queue of submitted jobs.
//!
//! * **Bounded concurrency** — at most `workers` campaigns run at once, no
//!   matter how many requests are in flight; everything else waits in the
//!   queue.
//! * **Priorities with aging** — the pool picks the queued job with the
//!   highest *effective* priority (requested priority plus one point per
//!   [`AGING_STRIDE`] scheduler decisions spent waiting), ties broken by
//!   arrival order. Aging makes progress fair: a flood of high-priority
//!   work can delay a low-priority job, but never starve it.
//! * **Cancellation** — every job owns a sticky [`CancelToken`], cancellable
//!   by id from any connection while queued *or* running. A cancelled queued
//!   job still runs — its token is already cancelled, so the campaign
//!   returns the empty prefix and the client still gets its result frame.
//!   Deadlines ([`JobSpec::timeout_ms`]) arm when execution starts.
//! * **Panic isolation** — a panicking campaign (impossible via the
//!   validated protocol, but workers outlive bugs) is caught, reported as
//!   an `error` frame, and the worker survives; the flight recorder is
//!   dumped to stderr so the events leading up to the panic are visible.
//! * **Telemetry** — every job is traced: a monotonically-minted trace id
//!   returned at submit, echoed in every frame, recorded in the
//!   [`FlightRecorder`](crate::telemetry::FlightRecorder) per state
//!   transition, and measured by queue-depth/utilization gauges and
//!   queue-wait/run-time histograms (see [`crate::telemetry`]).

use crate::job::{run_job, ServeError};
use crate::proto::{frame_error, frame_result, JobSpec, StatusInfo, MAX_PRIORITY};
use crate::telemetry::Telemetry;
use crate::wire::{FrameBatch, WireObserver};
use scal_obs::{CancelToken, Counter, Gauge, Histogram, NullObserver};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Scheduler decisions a queued job must wait through to gain one effective
/// priority point.
pub const AGING_STRIDE: u64 = 4;

/// Scheduler knobs.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Concurrent campaign slots.
    pub workers: usize,
    /// Per-job thread-count cap (requests asking for more are clamped).
    pub max_threads_per_job: usize,
    /// Queued-job cap; submissions beyond it are rejected with a
    /// `queue_full` error frame.
    pub queue_cap: usize,
    /// Emit a structured stderr JSONL line per job state transition (the
    /// flight recorder records transitions regardless).
    pub log_transitions: bool,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            workers: 4,
            max_threads_per_job: 2,
            queue_cap: 1024,
            log_transitions: false,
        }
    }
}

struct QueuedJob {
    id: u64,
    trace: u64,
    spec: JobSpec,
    token: CancelToken,
    tx: SyncSender<FrameBatch>,
    arrival: u64,
    submitted: Instant,
}

#[derive(Default)]
struct SchedState {
    queue: Vec<QueuedJob>,
    /// Monotonic decision clock: bumps on every submit and every pick.
    ticks: u64,
    running: usize,
}

/// Pre-resolved metric handles so the hot path never takes the registry
/// lock.
struct Instruments {
    queue_depth: Vec<Arc<Gauge>>,
    workers_running: Arc<Gauge>,
    workers_idle: Arc<Gauge>,
    jobs_accepted: Arc<Counter>,
    jobs_finished: Arc<Counter>,
    jobs_cancelled: Arc<Counter>,
    jobs_timed_out: Arc<Counter>,
    jobs_panicked: Arc<Counter>,
    queue_wait: Arc<Histogram>,
    run_time: Arc<Histogram>,
    frame_stall: Arc<Histogram>,
}

impl Instruments {
    fn new(telemetry: &Telemetry) -> Self {
        let m = telemetry.metrics();
        let queue_depth = (0..=MAX_PRIORITY)
            .map(|p| m.gauge_with("scal_serve_queue_depth", &[("priority", &p.to_string())]))
            .collect();
        Instruments {
            queue_depth,
            workers_running: m.gauge("scal_serve_workers_running"),
            workers_idle: m.gauge("scal_serve_workers_idle"),
            jobs_accepted: m.counter_with("scal_serve_jobs_total", &[("state", "accepted")]),
            jobs_finished: m.counter_with("scal_serve_jobs_total", &[("state", "finished")]),
            jobs_cancelled: m.counter_with("scal_serve_jobs_total", &[("state", "cancelled")]),
            jobs_timed_out: m.counter_with("scal_serve_jobs_total", &[("state", "timed_out")]),
            jobs_panicked: m.counter_with("scal_serve_jobs_total", &[("state", "panicked")]),
            queue_wait: m.histogram("scal_serve_queue_wait_micros"),
            run_time: m.histogram("scal_serve_run_micros"),
            frame_stall: m.histogram("scal_serve_frame_stall_micros"),
        }
    }

    fn depth_gauge(&self, priority: u8) -> &Gauge {
        &self.queue_depth[usize::from(priority).min(self.queue_depth.len() - 1)]
    }
}

struct SchedInner {
    config: SchedConfig,
    state: Mutex<SchedState>,
    cv: Condvar,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    done: AtomicU64,
    /// Token and trace id of queued *and* running jobs, for cancel-by-id.
    tokens: Mutex<HashMap<u64, (CancelToken, u64)>>,
    telemetry: Arc<Telemetry>,
    instruments: Instruments,
}

/// The shared scheduler. Cloneable handles all drive one pool.
pub struct Scheduler {
    inner: Arc<SchedInner>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (queued, running, done) = self.counters();
        f.debug_struct("Scheduler")
            .field("workers", &self.workers.len())
            .field("queued", &queued)
            .field("running", &running)
            .field("done", &done)
            .finish()
    }
}

impl Scheduler {
    /// Starts the worker pool with its own telemetry hub.
    #[must_use]
    pub fn new(config: SchedConfig) -> Self {
        let mut telemetry = Telemetry::new();
        telemetry.log_transitions = config.log_transitions;
        Scheduler::with_telemetry(config, Arc::new(telemetry))
    }

    /// Starts the worker pool reporting into an existing telemetry hub
    /// (shared with the server's connection handlers and `/metrics`
    /// responder).
    #[must_use]
    pub fn with_telemetry(config: SchedConfig, telemetry: Arc<Telemetry>) -> Self {
        let workers_n = config.workers.max(1);
        let instruments = Instruments::new(&telemetry);
        instruments.workers_idle.set(workers_n as i64);
        let inner = Arc::new(SchedInner {
            config,
            state: Mutex::new(SchedState::default()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            done: AtomicU64::new(0),
            tokens: Mutex::new(HashMap::new()),
            telemetry,
            instruments,
        });
        let workers = (0..workers_n)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Scheduler { inner, workers }
    }

    /// The telemetry hub this pool reports into.
    #[must_use]
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.inner.telemetry
    }

    /// Queues a job. Its frames stream down `tx` in batches. Returns `(id,
    /// trace_id, queue_len)`, or an error when the queue is full or the
    /// scheduler is shutting down.
    ///
    /// # Errors
    ///
    /// `"queue_full"` or `"shutting_down"` as a [`ServeError::Proto`]-style
    /// pair `(code, message)`.
    pub fn submit(
        &self,
        spec: JobSpec,
        tx: SyncSender<FrameBatch>,
    ) -> Result<(u64, u64, usize), (&'static str, String)> {
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return Err(("shutting_down", "server is draining".to_owned()));
        }
        let id = self.inner.next_id.fetch_add(1, Ordering::SeqCst);
        let trace = self.inner.telemetry.mint_trace();
        let token = CancelToken::new();
        let priority = spec.priority;
        let kind = spec.kind.name();
        let queued = {
            let mut state = self.inner.state.lock().expect("sched lock");
            if state.queue.len() >= self.inner.config.queue_cap {
                return Err((
                    "queue_full",
                    format!("{} jobs already queued", state.queue.len()),
                ));
            }
            state.ticks += 1;
            let arrival = state.ticks;
            self.inner
                .tokens
                .lock()
                .expect("token lock")
                .insert(id, (token.clone(), trace));
            state.queue.push(QueuedJob {
                id,
                trace,
                spec,
                token,
                tx,
                arrival,
                submitted: Instant::now(),
            });
            state.queue.len()
        };
        self.inner.instruments.jobs_accepted.inc();
        self.inner.instruments.depth_gauge(priority).inc();
        self.inner.telemetry.transition(
            id,
            trace,
            "submit",
            &format!("kind={kind} priority={priority} queued={queued}"),
        );
        self.inner.cv.notify_one();
        Ok((id, trace, queued))
    }

    /// Cancels job `id` wherever it is (queued or running). Returns `false`
    /// when the id names no live job.
    #[must_use]
    pub fn cancel(&self, id: u64) -> bool {
        match self.inner.tokens.lock().expect("token lock").get(&id) {
            Some((token, trace)) => {
                token.cancel();
                self.inner.telemetry.transition(id, *trace, "cancel", "");
                true
            }
            None => false,
        }
    }

    /// `(queued, running, done)` counters.
    #[must_use]
    pub fn counters(&self) -> (usize, usize, u64) {
        let state = self.inner.state.lock().expect("sched lock");
        (
            state.queue.len(),
            state.running,
            self.inner.done.load(Ordering::SeqCst),
        )
    }

    /// The full status-frame payload: pool counters, uptime, per-priority
    /// queue depths, cumulative job outcomes.
    #[must_use]
    pub fn status(&self) -> StatusInfo {
        let ins = &self.inner.instruments;
        let mut info = StatusInfo {
            workers: self.workers.len(),
            shutting_down: self.is_shutting_down(),
            done: self.inner.done.load(Ordering::SeqCst),
            uptime_ms: self.inner.telemetry.uptime_ms(),
            jobs_accepted: ins.jobs_accepted.get(),
            jobs_finished: ins.jobs_finished.get(),
            jobs_cancelled: ins.jobs_cancelled.get(),
            jobs_timed_out: ins.jobs_timed_out.get(),
            jobs_panicked: ins.jobs_panicked.get(),
            ..StatusInfo::default()
        };
        let state = self.inner.state.lock().expect("sched lock");
        info.queued = state.queue.len();
        info.running = state.running;
        for job in &state.queue {
            let p = usize::from(job.spec.priority).min(info.queue_depths.len() - 1);
            info.queue_depths[p] += 1;
        }
        info
    }

    /// `true` once [`Scheduler::shutdown`] has been called.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Configured worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Begins draining: no new submissions, every queued and running job's
    /// token is cancelled (queued jobs still run, returning instant empty
    /// prefixes, so every accepted job gets its result frame). When
    /// transition logging is on, the flight recorder is dumped to stderr.
    pub fn shutdown(&self) {
        let already = self.inner.shutdown.swap(true, Ordering::SeqCst);
        for (token, _) in self.inner.tokens.lock().expect("token lock").values() {
            token.cancel();
        }
        self.inner.cv.notify_all();
        if !already {
            self.inner.telemetry.transition(0, 0, "shutdown", "");
            if self.inner.config.log_transitions {
                for line in self.inner.telemetry.recorder().dump_jsonl() {
                    eprintln!("{line}");
                }
            }
        }
    }

    /// Waits for the pool to drain after [`Scheduler::shutdown`].
    ///
    /// # Panics
    ///
    /// Panics if a worker thread itself panicked (worker loops catch
    /// campaign panics, so this means a scheduler bug).
    pub fn join(self) {
        for w in self.workers {
            w.join().expect("scheduler worker");
        }
    }
}

/// Picks the queue index with the highest effective priority (priority +
/// waited-ticks/AGING_STRIDE), ties to the earliest arrival.
fn pick(queue: &[QueuedJob], now: u64) -> Option<usize> {
    queue
        .iter()
        .enumerate()
        .max_by_key(|(_, j)| {
            let waited = now.saturating_sub(j.arrival);
            let effective = u64::from(j.spec.priority) + waited / AGING_STRIDE;
            (effective, u64::MAX - j.arrival)
        })
        .map(|(i, _)| i)
}

fn worker_loop(inner: &SchedInner) {
    loop {
        let job = {
            let mut state = inner.state.lock().expect("sched lock");
            loop {
                if let Some(i) = pick(&state.queue, state.ticks) {
                    state.ticks += 1;
                    state.running += 1;
                    break state.queue.swap_remove(i);
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                state = inner.cv.wait(state).expect("sched lock");
            }
        };
        inner.instruments.depth_gauge(job.spec.priority).dec();
        inner.instruments.workers_running.inc();
        inner.instruments.workers_idle.dec();
        run_one(inner, &job);
        {
            let mut state = inner.state.lock().expect("sched lock");
            state.running -= 1;
        }
        inner.instruments.workers_running.dec();
        inner.instruments.workers_idle.inc();
        inner.tokens.lock().expect("token lock").remove(&job.id);
        inner.done.fetch_add(1, Ordering::SeqCst);
    }
}

/// Executes one job and sends its terminal frame.
fn run_one(inner: &SchedInner, job: &QueuedJob) {
    let waited = u64::try_from(job.submitted.elapsed().as_micros()).unwrap_or(u64::MAX);
    inner.instruments.queue_wait.record(waited);
    inner.telemetry_start(job, waited);
    let threads = match job.spec.threads {
        0 => 1,
        t => t.min(inner.config.max_threads_per_job.max(1)),
    };
    let guard = job
        .spec
        .timeout_ms
        .map(|ms| job.token.cancel_after(Duration::from_millis(ms)));
    let wire = job.spec.stream.then(|| {
        WireObserver::new(
            job.id,
            job.trace,
            job.tx.clone(),
            Some(Arc::clone(&inner.instruments.frame_stall)),
        )
    });
    let observer: &dyn scal_obs::CampaignObserver = match &wire {
        Some(wire) => wire,
        None => &NullObserver,
    };
    let started = Instant::now();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_job(
            &job.spec.kind,
            threads,
            job.spec.fault_collapse,
            observer,
            Some(&job.token),
        )
    }));
    inner
        .instruments
        .run_time
        .record(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));
    let timed_out = guard.as_ref().is_some_and(scal_obs::DeadlineGuard::fired);
    drop(guard);
    let frame = match outcome {
        Ok(Ok(out)) => {
            let (state, counter) = if timed_out && out.cancelled {
                ("timeout", &inner.instruments.jobs_timed_out)
            } else if out.cancelled {
                ("cancelled", &inner.instruments.jobs_cancelled)
            } else {
                ("finish", &inner.instruments.jobs_finished)
            };
            counter.inc();
            inner.telemetry().transition(
                job.id,
                job.trace,
                state,
                &format!("micros={}", out.micros),
            );
            frame_result(job.id, job.trace, &out.report, &out.coverage, out.micros)
        }
        Ok(Err(e)) => {
            inner
                .telemetry()
                .transition(job.id, job.trace, "error", &e.to_string());
            frame_error(Some(job.id), Some(job.trace), e.code(), &e.to_string())
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".to_owned());
            inner.instruments.jobs_panicked.inc();
            inner
                .telemetry()
                .transition(job.id, job.trace, "panic", &msg);
            // Panic isolation is the flight recorder's reason to exist:
            // dump what the server was doing right before the blow-up.
            for line in inner.telemetry.recorder().dump_jsonl() {
                eprintln!("{line}");
            }
            let e = ServeError::Panicked(msg);
            frame_error(Some(job.id), Some(job.trace), e.code(), &e.to_string())
        }
    };
    // Every event precedes the terminal frame, the panic path's included.
    if let Some(wire) = &wire {
        wire.flush();
    }
    let _ = job.tx.send(FrameBatch::single(frame));
}

impl SchedInner {
    fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    fn telemetry_start(&self, job: &QueuedJob, waited_micros: u64) {
        self.telemetry.transition(
            job.id,
            job.trace,
            "start",
            &format!("waited_micros={waited_micros}"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{FaultSpec, JobKind};
    use scal_engine::EvalMode;
    use scal_netlist::{Circuit, GateKind};
    use std::sync::mpsc::sync_channel;

    fn pair_spec(priority: u8) -> JobSpec {
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let d = c.input("c");
        let x = c.gate(GateKind::Xor, &[a, b, d]);
        c.mark_output("f", x);
        JobSpec {
            kind: JobKind::Pair {
                circuit: c,
                faults: FaultSpec::All,
                drop_after_detection: false,
                eval_mode: EvalMode::Cone,
                scalar: false,
            },
            priority,
            timeout_ms: None,
            threads: 1,
            stream: true,
            fault_collapse: None,
            netlist_format: scal_netlist::NetlistFormat::ScalText,
        }
    }

    fn drain_result(rx: &std::sync::mpsc::Receiver<FrameBatch>) -> String {
        loop {
            let batch = rx.recv().expect("frame");
            for frame in batch.lines.lines() {
                if frame.contains("\"frame\":\"result\"") || frame.contains("\"frame\":\"error\"") {
                    return frame.to_owned();
                }
            }
        }
    }

    #[test]
    fn jobs_run_to_result_frames() {
        let sched = Scheduler::new(SchedConfig {
            workers: 2,
            ..SchedConfig::default()
        });
        let (tx, rx) = sync_channel(256);
        let (id, trace, _) = sched.submit(pair_spec(4), tx).unwrap();
        let result = drain_result(&rx);
        assert!(result.contains(&format!("\"id\":{id}")));
        assert!(result.contains(&format!("\"trace\":{trace}")));
        assert!(result.contains("\"fault_secure\":true"));
        sched.shutdown();
        sched.join();
    }

    #[test]
    fn an_erroring_job_sends_its_pending_events_before_the_error_frame() {
        // A plain AND gate does not alternate: the golden phase fails after
        // `phase_start` golden, with no boundary event to end the batch.
        let mut c = Circuit::new();
        let (a, b) = (c.input("a"), c.input("b"));
        let g = c.gate(GateKind::And, &[a, b]);
        c.mark_output("f", g);
        let mut spec = pair_spec(4);
        spec.kind = JobKind::Pair {
            circuit: c,
            faults: FaultSpec::All,
            drop_after_detection: false,
            eval_mode: EvalMode::Cone,
            scalar: false,
        };
        let collect = scal_obs::CollectObserver::new();
        assert!(run_job(&spec.kind, 1, None, &collect, None).is_err());
        let sched = Scheduler::new(SchedConfig {
            workers: 1,
            ..SchedConfig::default()
        });
        let (tx, rx) = sync_channel(64);
        let _ = sched.submit(spec, tx).unwrap();
        let lines: Vec<String> = rx
            .iter()
            .flat_map(|b| b.lines.lines().map(str::to_owned).collect::<Vec<_>>())
            .collect();
        sched.shutdown();
        sched.join();
        let (last, events) = lines.split_last().expect("frames");
        assert!(last.contains("\"frame\":\"error\""), "{last}");
        assert_eq!(events.len(), collect.events().len());
        assert!(events
            .last()
            .is_some_and(|e| e.contains("\"ev\":\"phase_start\"")));
    }

    #[test]
    fn cancel_by_id_reaches_queued_jobs() {
        // One worker, so the second submission must wait in the queue;
        // cancelling it there yields an empty cancelled prefix.
        let sched = Scheduler::new(SchedConfig {
            workers: 1,
            ..SchedConfig::default()
        });
        let (tx1, rx1) = sync_channel(4096);
        let (tx2, rx2) = sync_channel(4096);
        let (_id1, _, _) = sched.submit(pair_spec(9), tx1).unwrap();
        let (id2, _, _) = sched.submit(pair_spec(0), tx2).unwrap();
        assert!(sched.cancel(id2));
        let r2 = drain_result(&rx2);
        assert!(r2.contains("\"cancelled\":true"), "{r2}");
        let r1 = drain_result(&rx1);
        assert!(r1.contains("\"frame\":\"result\""));
        assert!(!sched.cancel(9999));
        sched.shutdown();
        sched.join();
    }

    #[test]
    fn full_queues_and_draining_pools_reject_submissions() {
        let sched = Scheduler::new(SchedConfig {
            workers: 1,
            max_threads_per_job: 1,
            queue_cap: 0,
            ..SchedConfig::default()
        });
        let (tx, _rx) = sync_channel(4);
        let err = sched.submit(pair_spec(0), tx.clone()).unwrap_err();
        assert_eq!(err.0, "queue_full");
        sched.shutdown();
        let err = sched.submit(pair_spec(0), tx).unwrap_err();
        assert_eq!(err.0, "shutting_down");
        sched.join();
    }

    #[test]
    fn aging_prevents_starvation() {
        // With an empty queue the pick is trivial; verify the formula
        // directly: an old priority-0 job eventually outranks a fresh
        // priority-9 one.
        let (tx, _rx) = sync_channel(1);
        let old = QueuedJob {
            id: 1,
            trace: 1,
            spec: pair_spec(0),
            token: CancelToken::new(),
            tx: tx.clone(),
            arrival: 0,
            submitted: Instant::now(),
        };
        let fresh = QueuedJob {
            id: 2,
            trace: 2,
            spec: pair_spec(9),
            token: CancelToken::new(),
            tx,
            arrival: 100,
            submitted: Instant::now(),
        };
        let queue = vec![fresh, old];
        // At tick 100 the old job has waited 100 ticks: 0 + 100/4 = 25 > 9.
        assert_eq!(pick(&queue, 100), Some(1));
        // At tick 101 the fresh job has barely waited; old still wins.
        assert_eq!(pick(&queue, 101), Some(1));
        // Equal effective priority: earliest arrival wins.
        let queue2 = vec![
            QueuedJob {
                id: 3,
                trace: 3,
                spec: pair_spec(4),
                token: CancelToken::new(),
                tx: sync_channel(1).0,
                arrival: 10,
                submitted: Instant::now(),
            },
            QueuedJob {
                id: 4,
                trace: 4,
                spec: pair_spec(4),
                token: CancelToken::new(),
                tx: sync_channel(1).0,
                arrival: 5,
                submitted: Instant::now(),
            },
        ];
        assert_eq!(pick(&queue2, 11), Some(1));
    }

    #[test]
    fn telemetry_counts_job_outcomes() {
        let sched = Scheduler::new(SchedConfig {
            workers: 1,
            ..SchedConfig::default()
        });
        let (tx, rx) = sync_channel(4096);
        let (_, _, _) = sched.submit(pair_spec(4), tx).unwrap();
        let _ = drain_result(&rx);
        // Cancelled job: cancel before it can start is racy with a live
        // worker, so cancel a *pre-cancelled* submission instead.
        let (tx2, rx2) = sync_channel(4096);
        let (id2, _, _) = sched.submit(pair_spec(4), tx2).unwrap();
        let _ = sched.cancel(id2);
        let _ = drain_result(&rx2);
        // Let the worker fully retire both jobs.
        while sched.counters().2 < 2 {
            std::thread::sleep(Duration::from_millis(2));
        }
        let status = sched.status();
        assert_eq!(status.jobs_accepted, 2);
        assert_eq!(
            status.jobs_finished + status.jobs_cancelled,
            2,
            "{status:?}"
        );
        assert_eq!(status.workers, 1);
        assert!(status.uptime_ms < 3_600_000);
        let m = sched.telemetry().metrics();
        assert_eq!(m.histogram("scal_serve_queue_wait_micros").count(), 2);
        assert_eq!(m.histogram("scal_serve_run_micros").count(), 2);
        assert_eq!(m.gauge("scal_serve_workers_running").get(), 0);
        assert_eq!(m.gauge("scal_serve_workers_idle").get(), 1);
        // Flight recorder saw at least submit/start/terminal per job.
        assert!(sched.telemetry().recorder().recorded() >= 6);
        sched.shutdown();
        sched.join();
    }

    #[test]
    fn timeouts_count_as_timed_out_not_cancelled() {
        let sched = Scheduler::new(SchedConfig {
            workers: 1,
            ..SchedConfig::default()
        });
        let mut spec = pair_spec(4);
        spec.timeout_ms = Some(0); // fires immediately at execution start
        let (tx, rx) = sync_channel(4096);
        let (_, _, _) = sched.submit(spec, tx).unwrap();
        let result = drain_result(&rx);
        while sched.counters().2 < 1 {
            std::thread::sleep(Duration::from_millis(2));
        }
        let status = sched.status();
        // A zero deadline usually beats the campaign's first batch, but a
        // fast machine may finish first — either way the books balance.
        assert_eq!(
            status.jobs_finished + status.jobs_timed_out + status.jobs_cancelled,
            1,
            "{status:?} ({result})"
        );
        if result.contains("\"cancelled\":true") {
            assert_eq!(status.jobs_timed_out, 1, "{status:?}");
        }
        sched.shutdown();
        sched.join();
    }
}
