//! # scal-obs — campaign observability
//!
//! Long-running fault campaigns were black boxes: a sweep reported nothing
//! until it finished and could not be stopped. This crate is the
//! dependency-free observability layer every campaign in the workspace
//! reports through:
//!
//! * **Events** ([`CampaignEvent`]): a typed vocabulary for everything a
//!   campaign does — phase spans (compile / golden / fault-sim / merge),
//!   per-fault start/finish/drop with worker attribution, per-batch pair
//!   counts, live progress ticks, cancellation, and the final summary.
//! * **Observers** ([`CampaignObserver`]): a `Sync` sink trait the engine
//!   calls from its worker threads. Implementations here: the
//!   [`JsonlTrace`] JSON-lines writer, the [`ProgressMeter`] human stderr
//!   summary (throughput-EWMA ETA included), the [`Metrics`] registry
//!   (counters + wall-time histograms), plus [`NullObserver`],
//!   [`MultiObserver`] and the test-oriented [`CollectObserver`].
//! * **Coverage maps** ([`CoverageMap`], collected by a
//!   [`CoverageObserver`]): one [`FaultRecord`] per fault site — detected
//!   or not, first detecting pair / time-to-detection, violation counts,
//!   dropped-at batch — with JSON output and a human-readable
//!   undetected-fault report cross-referencing netlist line names.
//!   Campaigns gather the map from their verdicts, not from events.
//! * **Profiles** ([`Profiler`] → [`Profile`]): phase wall times with
//!   engine sub-phase [`CampaignEvent::Span`]s (levelize/pack/eval-batch)
//!   nested beneath, per-level gate populations, and eval-phase pair
//!   throughput.
//! * **Cancellation** ([`CancelToken`]): a cloneable flag campaigns check at
//!   batch boundaries; a cancelled campaign returns partial, deterministic,
//!   fault-ordered results instead of aborting.
//!
//! Observation never perturbs results: observers only *read* event data, and
//! worker-side fault events are buffered and merged in fault order before
//! emission, so a trace of a single-threaded run is byte-stable (modulo wall
//! times) and multi-threaded runs produce the same merged fault record.
//!
//! The JSON event schema is documented in DESIGN.md ("Observability") and
//! checked by [`json::validate_jsonl`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cancel;
mod coverage;
mod event;
pub mod json;
mod metrics;
mod observer;
mod profile;
mod progress;
mod trace;

pub use cancel::{CancelToken, DeadlineGuard};
pub use coverage::{CoverageMap, CoverageObserver, FaultRecord};
pub use event::{CampaignEvent, Phase};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Metrics};
pub use observer::{CampaignObserver, CollectObserver, MultiObserver, NullObserver};
pub use profile::{PhaseTiming, Profile, Profiler, SpanTiming};
pub use progress::ProgressMeter;
pub use trace::JsonlTrace;
