//! The unified campaign entry point.
//!
//! [`Campaign`] is a builder that configures and launches an
//! alternating-pair fault campaign in one fluent call chain:
//!
//! ```
//! use scal_netlist::{Circuit, GateKind};
//! use scal_faults::Campaign;
//!
//! let mut c = Circuit::new();
//! let a = c.input("a");
//! let b = c.input("b");
//! let d = c.input("c");
//! let x = c.gate(GateKind::Xor, &[a, b, d]);
//! c.mark_output("f", x);
//!
//! let report = Campaign::new(&c).run().unwrap();
//! assert!(report.all_fault_secure() && report.all_tested());
//! ```
//!
//! The builder defaults to the whole collapsed fault universe, the packed
//! engine backend, no observer and no cancellation; every knob is opt-in.

use crate::campaign::{try_run_scalar, CampaignResult};
use crate::{enumerate_faults, Fault};
use scal_engine::{try_run_pair_campaign, EngineConfig, EngineError, EngineStats};
use scal_netlist::{Circuit, Override};
use scal_obs::{CampaignObserver, CancelToken, CoverageObserver, NullObserver};

/// Which simulation backend a [`Campaign`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    /// The packed 64-pair `scal-engine` path (default).
    Engine,
    /// The original per-minterm scalar path, retained as the differential
    /// oracle.
    Scalar,
}

/// Builder for an alternating-pair fault campaign over a combinational
/// circuit.
///
/// See the crate docs for an example. `run` consumes the builder
/// and returns a [`CampaignReport`].
pub struct Campaign<'a> {
    circuit: &'a Circuit,
    faults: Option<Vec<Fault>>,
    config: EngineConfig,
    observer: Option<&'a dyn CampaignObserver>,
    coverage: Option<&'a CoverageObserver>,
    cancel: Option<&'a CancelToken>,
    backend: Backend,
}

impl std::fmt::Debug for Campaign<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Campaign")
            .field("faults", &self.faults.as_ref().map(Vec::len))
            .field("config", &self.config)
            .field("observer", &self.observer.is_some())
            .field("coverage", &self.coverage.is_some())
            .field("cancel", &self.cancel.is_some())
            .field("backend", &self.backend)
            .finish_non_exhaustive()
    }
}

impl<'a> Campaign<'a> {
    /// Starts a campaign over `circuit` with all defaults: the collapsed
    /// fault universe, the packed engine backend, default
    /// [`EngineConfig`], no observer, no cancellation.
    #[must_use]
    pub fn new(circuit: &'a Circuit) -> Self {
        Campaign {
            circuit,
            faults: None,
            config: EngineConfig::default(),
            observer: None,
            coverage: None,
            cancel: None,
            backend: Backend::Engine,
        }
    }

    /// Simulates exactly this fault list (in this order) instead of the
    /// circuit's collapsed fault universe.
    #[must_use]
    pub fn faults(mut self, faults: Vec<Fault>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Worker-thread count; `0` = auto. Shorthand for the corresponding
    /// [`EngineConfig`] field.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Enables classic fault dropping (see
    /// [`EngineConfig::drop_after_detection`]).
    #[must_use]
    pub fn drop_after_detection(mut self, on: bool) -> Self {
        self.config.drop_after_detection = on;
        self
    }

    /// Evaluation word width in 64-bit sub-words (`1`, `4` or `8`); `0`
    /// (the default) picks it by CPU-feature detection. Shorthand for the
    /// corresponding [`EngineConfig`] field; all widths are bit-identical
    /// in every report. The scalar backend ignores this knob.
    #[must_use]
    pub fn word_width(mut self, width: usize) -> Self {
        self.config.word_width = width;
        self
    }

    /// Forces 2-D fault-lane packing on or off (see
    /// [`EngineConfig::fault_packing`]): one sweep then classifies
    /// `63 × W` (fault, pattern) cells at once. Left untouched, the engine
    /// picks the lane geometry from the fault/pattern ratio. Reports stay
    /// bit-identical; the scalar backend ignores this knob.
    #[must_use]
    pub fn fault_packing(mut self, on: bool) -> Self {
        self.config.fault_packing = on.into();
        self
    }

    /// Forces compile-time fault collapsing on or off (see
    /// [`EngineConfig::fault_collapse`]; the default is on).
    /// Only class representatives are simulated; verdicts are expanded back
    /// over every original fault at merge time, so reports and coverage
    /// maps stay bit-identical. The scalar backend ignores this knob.
    #[must_use]
    pub fn fault_collapse(mut self, on: bool) -> Self {
        self.config.fault_collapse = on.into();
        self
    }

    /// Streams every [`scal_obs::CampaignEvent`] of the run to `observer`.
    #[must_use]
    pub fn observer(mut self, observer: &'a dyn CampaignObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Builds a per-fault [`scal_obs::CoverageMap`] into `coverage`, labelled
    /// with [`Fault::describe`] line names, alongside any plain
    /// [`Campaign::observer`]. Read `coverage.latest()` after the run. The
    /// map is gathered from the campaign's verdicts, so it needs no event
    /// stream; `None` attaches nothing.
    #[must_use]
    pub fn coverage(mut self, coverage: impl Into<Option<&'a CoverageObserver>>) -> Self {
        self.coverage = coverage.into();
        self
    }

    /// Makes the run cancellable through `token`: once cancelled, the
    /// campaign stops at the next batch (engine) or fault (scalar) boundary
    /// and returns the completed fault-ordered prefix with
    /// [`CampaignReport::cancelled`] set.
    #[must_use]
    pub fn cancel(mut self, token: &'a CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Runs on the original per-minterm scalar backend (the differential
    /// oracle) instead of the packed engine.
    #[must_use]
    pub fn scalar(mut self) -> Self {
        self.backend = Backend::Scalar;
        self
    }

    /// Runs the campaign.
    ///
    /// # Errors
    ///
    /// Propagates every [`EngineError`] of the underlying backend:
    /// `Sequential` for sequential circuits, `UnsupportedInputs` outside
    /// `1..=24` inputs, `NotAlternating` if a fault-free output fails to
    /// alternate, plus compile errors on the engine path.
    pub fn run(self) -> Result<CampaignReport, EngineError> {
        let faults = match self.faults {
            Some(f) => f,
            None => enumerate_faults(self.circuit),
        };
        let observer = self.observer.unwrap_or(&NullObserver);
        let (results, stats, table) = match self.backend {
            Backend::Scalar => try_run_scalar(self.circuit, &faults, observer, self.cancel)?,
            Backend::Engine => {
                let overrides: Vec<Override> = faults.iter().map(|f| f.to_override()).collect();
                let run = try_run_pair_campaign(
                    self.circuit,
                    &overrides,
                    &self.config,
                    observer,
                    self.cancel,
                )?;
                // On cancellation `run.reports` is a prefix; zip truncates
                // the fault list to match.
                let results = faults
                    .iter()
                    .zip(run.reports)
                    .map(|(&fault, r)| CampaignResult {
                        fault,
                        detected_pairs: r.detected_pairs,
                        violation_pairs: r.violation_pairs,
                        observable: r.observable,
                    })
                    .collect();
                (results, run.stats, run.table)
            }
        };
        if let Some(cov) = self.coverage {
            cov.push(table.coverage_map(|i, out| faults[i].describe_into(self.circuit, out)));
        }
        Ok(CampaignReport {
            results,
            stats,
            cancelled: table.cancelled(),
        })
    }
}

/// Everything a [`Campaign`] run produced.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-fault results in fault order; a contiguous prefix of the
    /// requested fault list when [`CampaignReport::cancelled`].
    pub results: Vec<CampaignResult>,
    /// Aggregate counters and per-phase wall times.
    pub stats: EngineStats,
    /// `true` iff a [`CancelToken`] stopped the run early.
    pub cancelled: bool,
}

impl CampaignReport {
    /// `true` iff no simulated fault ever produced a wrong code word.
    #[must_use]
    pub fn all_fault_secure(&self) -> bool {
        self.results.iter().all(CampaignResult::fault_secure)
    }

    /// `true` iff every simulated fault is detected by some pair.
    #[must_use]
    pub fn all_tested(&self) -> bool {
        self.results.iter().all(CampaignResult::tested)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scal_netlist::GateKind;
    use scal_obs::{CampaignEvent, CollectObserver};

    fn xor3() -> Circuit {
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let d = c.input("c");
        let x = c.gate(GateKind::Xor, &[a, b, d]);
        c.mark_output("f", x);
        c
    }

    #[test]
    fn builder_defaults_cover_collapsed_universe() {
        let c = xor3();
        let report = Campaign::new(&c).run().unwrap();
        assert_eq!(report.results.len(), enumerate_faults(&c).len());
        assert!(report.all_fault_secure());
        assert!(report.all_tested());
        assert!(!report.cancelled);
        assert_eq!(report.stats.faults, report.results.len());
    }

    #[test]
    fn backends_agree() {
        let c = xor3();
        let report = Campaign::new(&c).run().unwrap();
        let pattern = Campaign::new(&c).fault_packing(false).run().unwrap();
        assert_eq!(report.results, pattern.results);
        let scalar = Campaign::new(&c).scalar().run().unwrap();
        assert_eq!(scalar.results, report.results);
    }

    #[test]
    fn word_width_and_fault_packing_agree_with_defaults() {
        let c = xor3();
        let base = Campaign::new(&c).word_width(1).run().unwrap();
        for width in [4, 8] {
            let wide = Campaign::new(&c).word_width(width).run().unwrap();
            assert_eq!(base.results, wide.results, "W={width}");
        }
        for width in [1, 8] {
            let packed = Campaign::new(&c)
                .word_width(width)
                .fault_packing(true)
                .run()
                .unwrap();
            assert_eq!(base.results, packed.results, "packed W={width}");
            assert_eq!(base.stats.pairs_evaluated, packed.stats.pairs_evaluated);
        }
    }

    #[test]
    fn fault_collapse_matches_uncollapsed_results() {
        let c = xor3();
        let collapsed = Campaign::new(&c).run().unwrap();
        let plain = Campaign::new(&c).fault_collapse(false).run().unwrap();
        assert_eq!(collapsed.results, plain.results);
        assert_eq!(collapsed.stats.faults, plain.stats.faults);
        assert!(collapsed.stats.pairs_evaluated <= plain.stats.pairs_evaluated);
    }

    #[test]
    fn scalar_backend_honors_observer_and_cancel() {
        let c = xor3();
        let collect = CollectObserver::default();
        let report = Campaign::new(&c).scalar().observer(&collect).run().unwrap();
        let events = collect.events();
        assert!(matches!(
            events.first(),
            Some(CampaignEvent::CampaignStart {
                campaign: "pair_scalar",
                ..
            })
        ));
        let finishes = events
            .iter()
            .filter(|e| matches!(e, CampaignEvent::FaultFinish { .. }))
            .count();
        assert_eq!(finishes, report.results.len());

        let token = CancelToken::new();
        token.cancel();
        let cancelled = Campaign::new(&c).scalar().cancel(&token).run().unwrap();
        assert!(cancelled.cancelled);
        assert!(cancelled.results.is_empty());
    }

    #[test]
    fn coverage_hook_builds_labelled_maps_on_both_backends() {
        let c = xor3();
        let cov = scal_obs::CoverageObserver::new();
        // Pin the unpacked, uncollapsed cone path: auto-packing forces full
        // mode (no cone stats) and collapsing leaves class members without
        // per-fault cone annotations.
        let report = Campaign::new(&c)
            .fault_packing(false)
            .fault_collapse(false)
            .coverage(&cov)
            .run()
            .unwrap();
        let map = cov.latest().expect("coverage map");
        assert_eq!(map.records.len(), report.results.len());
        assert!((map.coverage_fraction() - 1.0).abs() < 1e-12);
        // Labels come from Fault::describe and use the circuit's names.
        assert!(map.records.iter().all(|r| !r.label.is_empty()));
        assert!(map.records.iter().any(|r| r.label.starts_with("a s-a-")));
        // Cone mode attaches per-fault cone stats; the scalar oracle has
        // none to report.
        assert!(map.records.iter().all(|r| r.cone_ops.is_some()));
        // The scalar oracle produces the identical verdicts (bit-for-bit,
        // modulo the campaign tag and the cone annotations).
        let cov2 = scal_obs::CoverageObserver::new();
        let _ = Campaign::new(&c).scalar().coverage(&cov2).run().unwrap();
        let smap = cov2.latest().expect("scalar map");
        let strip = |records: &[scal_obs::FaultRecord]| {
            records
                .iter()
                .map(|r| scal_obs::FaultRecord {
                    cone_ops: None,
                    ops_skipped: None,
                    frontier_died_at_level: None,
                    ..r.clone()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(smap.records, strip(&map.records));
    }

    #[test]
    fn coverage_composes_with_a_plain_observer() {
        let c = xor3();
        let cov = scal_obs::CoverageObserver::new();
        let collect = CollectObserver::default();
        let _ = Campaign::new(&c)
            .observer(&collect)
            .coverage(&cov)
            .run()
            .unwrap();
        assert!(cov.latest().is_some());
        assert!(!collect.is_empty());
    }

    #[test]
    fn sequential_circuits_are_rejected_not_panicked() {
        let mut c = Circuit::new();
        let ff = c.dff(false);
        let nq = c.not(ff);
        c.connect_dff(ff, nq);
        c.mark_output("q", ff);
        assert!(matches!(
            Campaign::new(&c).run(),
            Err(EngineError::Sequential)
        ));
        assert!(matches!(
            Campaign::new(&c).scalar().run(),
            Err(EngineError::Sequential)
        ));
    }
}
