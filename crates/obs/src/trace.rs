//! The JSON-lines trace sink.

use crate::event::CampaignEvent;
use crate::observer::CampaignObserver;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// Writes one JSON object per event to any [`io::Write`] target.
///
/// The writer is locked per event, so a single trace can be shared by the
/// engine's worker threads; event order within the file matches observer
/// call order. I/O errors are latched (first error wins) and reported by
/// [`JsonlTrace::take_error`] rather than panicking mid-campaign. Dropping a
/// trace flushes it, so buffered lines survive early returns and panics in
/// the surrounding campaign code.
#[derive(Debug)]
pub struct JsonlTrace<W: Write + Send> {
    inner: Mutex<TraceState<W>>,
}

#[derive(Debug)]
struct TraceState<W> {
    /// `None` only after [`JsonlTrace::into_inner`] reclaimed the writer.
    writer: Option<W>,
    /// One reused line buffer: an event is serialized into it, newline
    /// included, and written with a single `write_all`.
    line: String,
    lines: u64,
    error: Option<io::Error>,
}

impl JsonlTrace<BufWriter<File>> {
    /// Creates (truncating) a trace file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Ok(JsonlTrace::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write + Send> JsonlTrace<W> {
    /// Wraps a writer.
    #[must_use]
    pub fn new(writer: W) -> Self {
        JsonlTrace {
            inner: Mutex::new(TraceState {
                writer: Some(writer),
                line: String::new(),
                lines: 0,
                error: None,
            }),
        }
    }

    /// Lines written so far.
    ///
    /// # Panics
    ///
    /// Panics if the trace lock was poisoned.
    #[must_use]
    pub fn lines(&self) -> u64 {
        self.inner.lock().expect("trace lock").lines
    }

    /// Takes the first I/O error hit while writing, if any.
    ///
    /// # Panics
    ///
    /// Panics if the trace lock was poisoned.
    pub fn take_error(&self) -> Option<io::Error> {
        self.inner.lock().expect("trace lock").error.take()
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Panics
    ///
    /// Panics if the trace lock was poisoned.
    #[must_use]
    pub fn into_inner(self) -> W {
        let mut state = self.inner.lock().expect("trace lock");
        let mut writer = state.writer.take().expect("writer present");
        drop(state);
        let _ = writer.flush();
        writer
    }

    /// Flushes the underlying writer, reporting any latched or new error.
    ///
    /// # Errors
    ///
    /// Returns the first write error hit during the campaign, or a flush
    /// error.
    ///
    /// # Panics
    ///
    /// Panics if the trace lock was poisoned.
    pub fn flush(&self) -> io::Result<()> {
        let mut state = self.inner.lock().expect("trace lock");
        if let Some(e) = state.error.take() {
            return Err(e);
        }
        match state.writer.as_mut() {
            Some(w) => w.flush(),
            None => Ok(()),
        }
    }
}

impl<W: Write + Send> CampaignObserver for JsonlTrace<W> {
    fn on_event(&self, event: &CampaignEvent) {
        let mut guard = self.inner.lock().expect("trace lock");
        let state = &mut *guard;
        if state.error.is_some() {
            return;
        }
        let Some(writer) = state.writer.as_mut() else {
            return;
        };
        state.line.clear();
        event.write_json(&mut state.line);
        state.line.push('\n');
        match writer.write_all(state.line.as_bytes()) {
            Ok(()) => state.lines += 1,
            Err(e) => state.error = Some(e),
        }
    }
}

impl<W: Write + Send> Drop for JsonlTrace<W> {
    fn drop(&mut self) {
        // Best-effort: buffered lines must reach the file even when the
        // trace is dropped without an explicit flush (early return, panic
        // unwind, or simply going out of scope at the end of a run).
        if let Ok(state) = self.inner.get_mut() {
            if let Some(w) = state.writer.as_mut() {
                let _ = w.flush();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_jsonl;
    use crate::Phase;
    use std::sync::{Arc, Mutex as StdMutex};

    #[test]
    fn writes_one_valid_line_per_event() {
        let trace = JsonlTrace::new(Vec::new());
        trace.on_event(&CampaignEvent::PhaseStart {
            phase: Phase::Compile,
        });
        trace.on_event(&CampaignEvent::Progress { done: 1, total: 2 });
        assert_eq!(trace.lines(), 2);
        let bytes = trace.into_inner();
        let text = String::from_utf8(bytes).expect("utf8");
        assert_eq!(validate_jsonl(&text), Ok(2));
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn latches_write_errors() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk gone"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let trace = JsonlTrace::new(Broken);
        trace.on_event(&CampaignEvent::Progress { done: 0, total: 1 });
        trace.on_event(&CampaignEvent::Progress { done: 1, total: 1 });
        assert_eq!(trace.lines(), 0);
        assert!(trace.take_error().is_some());
        assert!(trace.take_error().is_none(), "first error wins, then clear");
    }

    /// A writer that buffers internally and only publishes on flush — the
    /// stand-in for a `BufWriter<File>` whose bytes are invisible until
    /// flushed.
    struct FlushGated {
        pending: Vec<u8>,
        published: Arc<StdMutex<Vec<u8>>>,
    }

    impl Write for FlushGated {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.pending.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            self.published
                .lock()
                .expect("published lock")
                .extend_from_slice(&self.pending);
            self.pending.clear();
            Ok(())
        }
    }

    #[test]
    fn drop_flushes_buffered_lines() {
        let published = Arc::new(StdMutex::new(Vec::new()));
        {
            let trace = JsonlTrace::new(FlushGated {
                pending: Vec::new(),
                published: Arc::clone(&published),
            });
            trace.on_event(&CampaignEvent::Progress { done: 1, total: 2 });
            assert!(
                published.lock().expect("lock").is_empty(),
                "nothing published before drop"
            );
        }
        let text = String::from_utf8(published.lock().expect("lock").clone()).expect("utf8");
        assert_eq!(validate_jsonl(&text), Ok(1), "drop flushed the line");
    }

    #[test]
    fn pathological_gate_names_stay_one_line() {
        // C0, DEL, C1 and U+2028 in a label must not break the one-event-
        // one-line invariant of the stream.
        let trace = JsonlTrace::new(Vec::new());
        trace.on_event(&CampaignEvent::CampaignStart {
            campaign: "pair",
            faults: 1,
            inputs: 1,
            outputs: 1,
            threads: 1,
        });
        let evil = "nand\u{1}\u{7f}\u{9b}\u{2028}out";
        let mut o = crate::json::JsonObject::new();
        o.str("gate", evil);
        let line = o.finish();
        assert_eq!(line.lines().count(), 1);
        let text = String::from_utf8(trace.into_inner()).expect("utf8");
        assert_eq!(validate_jsonl(&text), Ok(1));
    }
}
