//! Bridging a campaign's event stream onto a connection channel.

use crate::proto::write_frame_event;
use crate::server::{FRAME_COALESCE, FRAME_LINGER};
use scal_obs::{CampaignEvent, CampaignObserver, Histogram};
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Whole frames bound for one connection, sent down a job's channel as one
/// message and written to the socket with one `write_all`.
#[derive(Debug, Default)]
pub struct FrameBatch {
    /// The frames, each one line ending in `\n`.
    pub lines: String,
    /// How many frames `lines` holds.
    pub frames: usize,
}

impl FrameBatch {
    /// One frame (no newline yet) as a batch of its own.
    #[must_use]
    pub fn single(mut frame: String) -> Self {
        frame.push('\n');
        FrameBatch {
            lines: frame,
            frames: 1,
        }
    }
}

/// The batch being filled and when the previous one went out.
#[derive(Debug)]
struct Pending {
    batch: FrameBatch,
    flushed: Instant,
}

/// A [`CampaignObserver`] that renders every event as an `event` frame into
/// a [`FrameBatch`] and sends each batch down a **bounded** channel toward
/// the connection handler.
///
/// A batch goes out when it holds [`FRAME_COALESCE`] frames; after a
/// `phase_end`, `cancelled` or `campaign_end` event; and with the first
/// event that arrives [`FRAME_LINGER`] or more after the previous batch
/// went out, so a slow trickle of events (a CPU campaign's) still goes out
/// event by event. Whatever else is pending goes out at
/// [`WireObserver::flush`], which the scheduler calls before the job's
/// terminal frame.
///
/// The bounded channel is the service's backpressure: when a client reads
/// slower than the campaign produces events, the send blocks the worker at
/// the next batch, throttling the campaign instead of buffering without
/// limit. A closed channel (client gone, job detached) makes sends fail
/// silently — the campaign keeps running and the result is still recorded
/// by the scheduler, so a vanished client never corrupts a run.
///
/// When a stall histogram is attached, the time each batch send spends
/// blocked on the full channel is recorded (`scal_serve_frame_stall_micros`),
/// making slow-reader backpressure visible in `/metrics`.
#[derive(Debug)]
pub struct WireObserver {
    id: u64,
    trace: u64,
    tx: SyncSender<FrameBatch>,
    stall: Option<Arc<Histogram>>,
    /// [`FRAME_LINGER`]; the unit tests stretch it to test the other rules
    /// without racing the clock.
    linger: Duration,
    pending: Mutex<Pending>,
}

impl WireObserver {
    /// Wraps channel `tx` as the event sink for job `id` with trace id
    /// `trace`; `stall` (if any) receives per-send blocked-time samples in
    /// microseconds.
    #[must_use]
    pub fn new(
        id: u64,
        trace: u64,
        tx: SyncSender<FrameBatch>,
        stall: Option<Arc<Histogram>>,
    ) -> Self {
        WireObserver {
            id,
            trace,
            tx,
            stall,
            linger: FRAME_LINGER,
            pending: Mutex::new(Pending {
                batch: FrameBatch::default(),
                flushed: Instant::now(),
            }),
        }
    }

    /// Sends the pending frames, if any, as one batch.
    pub fn flush(&self) {
        self.send(&mut self.pending());
    }

    /// The pending batch. A poisoned lock is taken over as it is: only
    /// rendering into a `String` and channel sends run under it, and neither
    /// panics.
    fn pending(&self) -> MutexGuard<'_, Pending> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Sends `p`'s batch, holding its lock so batches leave in event order
    /// even when several campaign threads emit at once.
    fn send(&self, p: &mut Pending) {
        if p.batch.frames == 0 {
            return;
        }
        let batch = std::mem::take(&mut p.batch);
        match &self.stall {
            Some(h) => {
                // try_send first: the common un-blocked case costs no clock
                // reads beyond the miss, and a full channel falls back to
                // the timed blocking send.
                match self.tx.try_send(batch) {
                    Ok(()) => h.record(0),
                    Err(TrySendError::Full(batch)) => {
                        let start = Instant::now();
                        let _ = self.tx.send(batch);
                        h.record(u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX));
                    }
                    Err(TrySendError::Disconnected(_)) => {}
                }
            }
            None => {
                let _ = self.tx.send(batch);
            }
        }
        p.flushed = Instant::now();
    }
}

impl CampaignObserver for WireObserver {
    fn on_event(&self, event: &CampaignEvent) {
        let mut p = self.pending();
        let lines = &mut p.batch.lines;
        write_frame_event(lines, self.id, self.trace, event);
        lines.push('\n');
        p.batch.frames += 1;
        let boundary = matches!(
            event,
            CampaignEvent::PhaseEnd { .. }
                | CampaignEvent::Cancelled { .. }
                | CampaignEvent::CampaignEnd { .. }
        );
        if boundary || p.batch.frames >= FRAME_COALESCE || p.flushed.elapsed() >= self.linger {
            self.send(&mut p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scal_obs::Phase;
    use std::sync::mpsc::{sync_channel, Receiver};

    fn progress(done: usize) -> CampaignEvent {
        CampaignEvent::Progress { done, total: 1000 }
    }

    /// Emits `events` to an observer whose linger outlasts the test, so
    /// only the size and boundary rules can end a batch.
    fn quick(events: &[CampaignEvent]) -> (WireObserver, Receiver<FrameBatch>) {
        let (tx, rx) = sync_channel(64);
        let mut obs = WireObserver::new(7, 42, tx, None);
        obs.linger = Duration::from_secs(3600);
        for e in events {
            obs.on_event(e);
        }
        (obs, rx)
    }

    #[test]
    fn events_become_frames() {
        let (obs, rx) = quick(&[progress(1), progress(2)]);
        assert!(rx.try_recv().is_err(), "two quick events wait for more");
        obs.flush();
        let batch = rx.try_recv().expect("flushed batch");
        assert_eq!(batch.frames, 2);
        let lines: Vec<&str> = batch.lines.split_terminator('\n').collect();
        assert_eq!(lines.len(), 2);
        assert!(batch.lines.ends_with('\n'));
        for (line, done) in lines.iter().zip([1, 2]) {
            assert_eq!(*line, crate::proto::frame_event(7, 42, &progress(done)));
            assert!(line.contains("\"frame\":\"event\""));
            assert!(line.contains("\"id\":7"));
            assert!(line.contains("\"trace\":42"));
            assert!(line.contains("\"ev\":\"progress\""));
        }
        obs.flush();
        assert!(rx.try_recv().is_err(), "an empty flush sends nothing");
    }

    #[test]
    fn a_batch_ends_at_frame_coalesce_frames() {
        let events: Vec<_> = (0..FRAME_COALESCE + 1).map(progress).collect();
        let (obs, rx) = quick(&events);
        let full = rx.try_recv().expect("a full batch");
        assert_eq!(full.frames, FRAME_COALESCE);
        assert_eq!(full.lines.lines().count(), FRAME_COALESCE);
        assert!(rx.try_recv().is_err(), "the extra frame waits");
        obs.flush();
        assert_eq!(rx.try_recv().expect("the rest").frames, 1);
    }

    #[test]
    fn a_batch_ends_at_phase_end_cancelled_and_campaign_end() {
        for boundary in [
            CampaignEvent::PhaseEnd {
                phase: Phase::Golden,
                micros: 3,
            },
            CampaignEvent::Cancelled { completed: 2 },
            CampaignEvent::CampaignEnd {
                faults: 2,
                dropped: 0,
                pairs: 8,
                words: 2,
                micros: 5,
                cancelled: false,
            },
        ] {
            let (_obs, rx) = quick(&[progress(1), boundary.clone(), progress(2)]);
            let batch = rx.try_recv().expect("a boundary batch");
            assert_eq!(batch.frames, 2, "{boundary:?}");
            let last = batch.lines.lines().last().expect("two lines");
            assert_eq!(last, crate::proto::frame_event(7, 42, &boundary));
            assert!(rx.try_recv().is_err(), "{boundary:?}: the next event waits");
        }
    }

    #[test]
    fn an_event_after_a_quiet_linger_goes_out_at_once() {
        let (tx, rx) = sync_channel(8);
        let obs = WireObserver::new(1, 1, tx, None);
        std::thread::sleep(FRAME_LINGER + Duration::from_millis(1));
        obs.on_event(&progress(1));
        assert_eq!(rx.try_recv().expect("sent at once").frames, 1);
        std::thread::sleep(FRAME_LINGER + Duration::from_millis(1));
        obs.on_event(&progress(2));
        assert_eq!(rx.try_recv().expect("sent at once").frames, 1);
    }

    #[test]
    fn flushing_before_the_terminal_frame_keeps_every_event_first() {
        // The scheduler's order: flush the observer, then send the
        // terminal frame down the same channel.
        let (obs, rx) = quick(&[progress(1), progress(2), progress(3)]);
        obs.flush();
        let _ = obs
            .tx
            .send(FrameBatch::single("{\"frame\":\"result\"}".to_owned()));
        drop(obs);
        let lines: Vec<String> = rx
            .iter()
            .flat_map(|b| b.lines.lines().map(str::to_owned).collect::<Vec<_>>())
            .collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[..3].iter().all(|l| l.contains("\"ev\":\"progress\"")));
        assert_eq!(lines[3], "{\"frame\":\"result\"}");
    }

    #[test]
    fn a_closed_channel_is_harmless() {
        let (tx, rx) = sync_channel(1);
        drop(rx);
        let obs = WireObserver::new(1, 1, tx, None);
        obs.on_event(&progress(1));
        obs.flush();
    }

    #[test]
    fn a_streamed_campaign_sends_a_batch_per_full_batch_or_boundary() {
        use crate::proto::{FaultSpec, JobKind};
        use scal_obs::CollectObserver;
        let kind = JobKind::Pair {
            circuit: scal_core::paper::ripple_adder(8),
            faults: FaultSpec::All,
            drop_after_detection: true,
            eval_mode: scal_engine::EvalMode::Cone,
            scalar: false,
        };
        let collect = CollectObserver::new();
        crate::job::run_job(&kind, 1, None, &collect, None).unwrap();
        let events = collect.events();
        let (tx, rx) = sync_channel(events.len());
        let mut obs = WireObserver::new(1, 1, tx, None);
        obs.linger = Duration::from_secs(3600);
        crate::job::run_job(&kind, 1, None, &obs, None).unwrap();
        obs.flush();
        drop(obs);
        let sizes: Vec<usize> = rx.iter().map(|b| b.frames).collect();
        // The rule replayed over the same event list: a batch ends at
        // FRAME_COALESCE frames or at a boundary event.
        let mut want = Vec::new();
        let mut open = 0;
        for e in &events {
            open += 1;
            let boundary = matches!(
                e,
                CampaignEvent::PhaseEnd { .. }
                    | CampaignEvent::Cancelled { .. }
                    | CampaignEvent::CampaignEnd { .. }
            );
            if boundary || open == FRAME_COALESCE {
                want.push(open);
                open = 0;
            }
        }
        assert_eq!(open, 0, "campaign_end closes the last batch");
        assert_eq!(sizes, want);
        assert_eq!(sizes.iter().sum::<usize>(), events.len());
        let boundaries = want.iter().filter(|&&n| n < FRAME_COALESCE).count();
        assert!(sizes.len() <= events.len() / FRAME_COALESCE + boundaries);
    }

    #[test]
    fn stall_time_is_recorded() {
        let h = Arc::new(Histogram::default());
        let (tx, rx) = sync_channel(1);
        let obs = WireObserver::new(1, 1, tx, Some(Arc::clone(&h)));
        obs.on_event(&progress(1));
        obs.flush();
        assert_eq!(h.count(), 1); // un-blocked send records a zero sample
                                  // The channel (capacity 1) is now full; a reader drains it only
                                  // after a delay, so the next batch send measurably blocks.
        let reader = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            rx.iter().map(|b| b.frames).collect::<Vec<_>>()
        });
        obs.on_event(&progress(2));
        obs.flush();
        drop(obs);
        assert_eq!(reader.join().unwrap(), [1, 1]);
        assert_eq!(h.count(), 2);
        assert!(h.sum() >= 1000, "stall sum {} too small", h.sum());
    }
}
