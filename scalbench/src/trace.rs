//! In-memory span recording for the traced run.
//!
//! A [`Tracer`] wraps calls into the campaign-path modules with spans
//! (name, start, end, parent, op id) and keeps them in memory; the run
//! writes them out at the end. Engine phases are read from a
//! [`scal_obs::Profiler`] attached to the campaign and added as child spans
//! of the campaign span, so no program code changes. A disabled tracer
//! only runs the wrapped closure.

use scal_obs::Profile;
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`"netlist.parse"`, `"engine.golden"`, ...).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Op the span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A named count recorded at a layer boundary.
#[derive(Debug, Clone)]
pub struct Count {
    /// Counter name (`"engine.pairs_evaluated"`, `"netlist.bytes.text"`, ...).
    pub name: &'static str,
    /// Op the count belongs to.
    pub op: u64,
    /// Value.
    pub value: f64,
}

/// Per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: Cell<bool>,
    op: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    counts: RefCell<Vec<Count>>,
}

impl Tracer {
    /// A disabled tracer whose timestamps count from `epoch`.
    #[must_use]
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            enabled: Cell::new(false),
            op: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            counts: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Turns recording on or off and tags what follows with op `op`.
    pub fn begin_op(&self, op: u64, enabled: bool) {
        self.op.set(op);
        self.enabled.set(enabled);
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled.get() {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.stack.borrow().last().copied(),
                op: self.op.get(),
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.now_ns();
        out
    }

    /// Records `value` under `name` for the current op.
    pub fn count(&self, name: &'static str, value: f64) {
        if self.enabled.get() {
            self.counts.borrow_mut().push(Count {
                name,
                op: self.op.get(),
                value,
            });
        }
    }

    /// Adds child spans, laid end to end from the open span's start, for
    /// the engine phases of `profile`: compile (with collapse nested inside
    /// it), golden, fault_sim and merge. Also records the profile's work
    /// counts. Call from inside the campaign's span, after the run.
    pub fn profile_phases(&self, profile: &Profile) {
        if !self.enabled.get() {
            return;
        }
        let Some(&parent) = self.stack.borrow().last() else {
            return;
        };
        let (op, mut at) = {
            let spans = self.spans.borrow();
            (spans[parent].op, spans[parent].start_ns)
        };
        let mut spans = self.spans.borrow_mut();
        for phase in &profile.phases {
            let ns = phase.micros * 1000;
            let name = match phase.name.as_str() {
                "compile" => "engine.compile",
                "golden" => "engine.golden",
                "fault_sim" => "engine.fault_sim",
                "merge" => "engine.merge",
                _ => "engine.other_phase",
            };
            spans.push(Span {
                name,
                start_ns: at,
                end_ns: at + ns,
                parent: Some(parent),
                op,
            });
            if name == "engine.compile" {
                let compile = spans.len() - 1;
                if let Some(c) = profile.spans.iter().find(|s| s.name == "collapse") {
                    spans.push(Span {
                        name: "engine.collapse",
                        start_ns: at,
                        end_ns: at + (c.micros * 1000).min(ns),
                        parent: Some(compile),
                        op,
                    });
                }
            }
            at += ns;
        }
        drop(spans);
        if let Some(c) = profile.spans.iter().find(|s| s.name == "compile_mem") {
            self.count("engine.compile_bytes", c.items as f64);
        }
        if profile.collapse_representatives > 0 {
            self.count("engine.collapse_faults", profile.collapse_faults as f64);
            self.count(
                "engine.collapse_reps",
                profile.collapse_representatives as f64,
            );
        }
        self.count("engine.pairs_evaluated", profile.pairs as f64);
        self.count("engine.words_evaluated", profile.words as f64);
        self.count(
            "engine.cone_ops_evaluated",
            profile.cone_ops_evaluated as f64,
        );
        self.count("engine.cone_ops_skipped", profile.cone_ops_skipped as f64);
    }

    /// The recorded spans and counts.
    #[must_use]
    pub fn into_parts(self) -> (Vec<Span>, Vec<Count>) {
        (self.spans.into_inner(), self.counts.into_inner())
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (children of one span never overlap here, but overlaps
/// are merged anyway).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut iv: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    let c = &spans[k];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let spans = [
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans), [40, 30, 30, 30]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(Instant::now());
        assert_eq!(t.span("x", || 7), 7);
        t.count("n", 1.0);
        let (spans, counts) = t.into_parts();
        assert!(spans.is_empty() && counts.is_empty());
    }
}
