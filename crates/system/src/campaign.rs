//! Observable fault campaigns over the SCAL computer's datapath units.
//!
//! The Chapter-7 experiments inject every collapsed stuck-at fault of one
//! gate-level datapath unit (the Fig. 2.2 adder or the logic unit) and run a
//! suite of program workloads in alternating mode, classifying each fault as
//! *detected* (an alternation check fired), *dormant* (the workload never
//! sensitized it — the answer is still correct), or *undetected-wrong* (the
//! dangerous case the paper's Theorem 3.1 is about). The [`Campaign`]
//! builder mirrors `scal_faults::Campaign`: it forwards every step to a
//! [`CampaignObserver`] and honours a [`CancelToken`] at fault boundaries,
//! returning a deterministic fault-ordered prefix when cancelled.

use crate::cpu::{Cpu, CpuMode, Program};
use crate::programs::{checksum, popcount, ARG0, RESULT};
use scal_engine::{
    collapse_overrides, drive, CollapseCounts, CompiledCircuit, EngineError, FaultSummary, Kernel,
    Setup, Unit, UnitResult,
};
use scal_faults::{enumerate_faults, Fault};
use scal_netlist::Override;
use scal_obs::{CampaignEvent, CampaignObserver, CancelToken, CoverageObserver, NullObserver};
use std::time::Instant;

/// Which gate-level datapath unit the campaign injects faults into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuUnit {
    /// The self-dual full adder of Fig. 2.2 (the ALU's arithmetic core).
    Adder,
    /// The bitwise logic unit (AND/OR/XOR of Fig. 7.4).
    Logic,
}

/// A program workload: code, memory setup, and the expected [`RESULT`] byte.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short name used in reports.
    pub name: &'static str,
    /// The program to run.
    pub program: Program,
    /// `(address, value)` pokes applied before the run.
    pub setup: Vec<(u8, u8)>,
    /// The byte a fault-free run leaves at [`RESULT`].
    pub expect: u8,
}

/// The default workload suite: popcount and a block checksum, exercising
/// the logic unit, shifter, and adder on every instruction class.
#[must_use]
pub fn default_workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "popcount(0xB7)",
            program: popcount(),
            setup: vec![(ARG0, 0xB7)],
            expect: 6,
        },
        Workload {
            name: "checksum(4)",
            program: checksum(),
            setup: vec![(0x60, 0x0F), (0x61, 0xF0), (0x62, 1), (0x63, 2)],
            expect: 0x0F ^ 0xF0 ^ 1 ^ 2,
        },
    ]
}

/// Per-fault outcome over the whole workload suite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuFaultResult {
    /// The injected fault.
    pub fault: Fault,
    /// Workloads on which an alternation (or other) check fired.
    pub detected: usize,
    /// Workloads that finished with the correct answer (fault dormant).
    pub dormant: usize,
    /// Workloads that finished with a *wrong* answer undetected.
    pub undetected_wrong: usize,
}

/// Result of a CPU fault campaign: per-fault results in fault order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuCampaign {
    /// One entry per simulated fault, in `enumerate_faults` order. When
    /// `cancelled`, this is a contiguous prefix of the full fault list.
    pub results: Vec<CpuFaultResult>,
    /// Total CPU periods executed across all faulty runs.
    pub periods: u64,
    /// True when a [`CancelToken`] stopped the campaign early.
    pub cancelled: bool,
    /// The collapsed fault list's size, when the campaign collapsed it.
    pub collapse: Option<CollapseCounts>,
}

impl CpuCampaign {
    /// Faults with at least one undetected wrong answer — must be empty for
    /// the single-fault coverage claim of §7.1 to hold on this workload.
    #[must_use]
    pub fn undetected_wrong(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.undetected_wrong > 0)
            .count()
    }
}

/// Builder for a datapath fault campaign, mirroring
/// [`scal_faults::Campaign`].
///
/// ```
/// use scal_system::campaign::{Campaign, CpuUnit};
/// let report = Campaign::new(CpuUnit::Logic).run().unwrap();
/// assert_eq!(report.undetected_wrong(), 0);
/// ```
pub struct Campaign<'a> {
    unit: CpuUnit,
    workloads: Vec<Workload>,
    budget: u64,
    observer: &'a dyn CampaignObserver,
    coverage: Option<&'a CoverageObserver>,
    cancel: Option<&'a CancelToken>,
    fault_collapse: bool,
}

impl std::fmt::Debug for Campaign<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Campaign")
            .field("unit", &self.unit)
            .field("workloads", &self.workloads.len())
            .field("budget", &self.budget)
            .field("cancel", &self.cancel.is_some())
            .field("fault_collapse", &self.fault_collapse)
            .finish_non_exhaustive()
    }
}

impl<'a> Campaign<'a> {
    /// A campaign over every collapsed fault of `unit`, with the
    /// [`default_workloads`] suite.
    #[must_use]
    pub fn new(unit: CpuUnit) -> Self {
        Campaign {
            unit,
            workloads: default_workloads(),
            budget: 1_000_000,
            observer: &NullObserver,
            coverage: None,
            cancel: None,
            fault_collapse: true,
        }
    }

    /// Switches fault collapsing of the unit's fault list (default on):
    /// equivalent stuck-at faults corrupt the datapath identically on every
    /// workload, so only class representatives run the suite and the
    /// campaign driver expands their verdicts over every original fault.
    #[must_use]
    pub fn fault_collapse(mut self, on: bool) -> Self {
        self.fault_collapse = on;
        self
    }

    /// Replaces the workload suite.
    #[must_use]
    pub fn workloads(mut self, workloads: Vec<Workload>) -> Self {
        self.workloads = workloads;
        self
    }

    /// Sets the per-run period budget (runaway-program guard).
    #[must_use]
    pub fn budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches an observer that receives the campaign's event stream.
    #[must_use]
    pub fn observer(mut self, observer: &'a dyn CampaignObserver) -> Self {
        self.observer = observer;
        self
    }

    /// Builds a per-fault [`scal_obs::CoverageMap`] into `coverage`, labelled
    /// with [`Fault::describe`] line names. A record's `first_detected` is
    /// the index of the first workload whose run tripped a check. The map
    /// is gathered from the campaign's verdicts, so it needs no event
    /// stream; `None` attaches nothing.
    #[must_use]
    pub fn coverage(mut self, coverage: impl Into<Option<&'a CoverageObserver>>) -> Self {
        self.coverage = coverage.into();
        self
    }

    /// Attaches a cancellation token checked at fault boundaries.
    #[must_use]
    pub fn cancel(mut self, cancel: &'a CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Runs the campaign.
    ///
    /// # Errors
    ///
    /// [`EngineError::WorkloadFailed`] if a workload fails on the
    /// *fault-free* datapath — a broken workload, not a campaign outcome.
    pub fn run(self) -> Result<CpuCampaign, EngineError> {
        // Compile phase: extracting the unit netlist from the datapath and
        // enumerating its fault sites is this campaign's whole compile story
        // — the interpreted datapath carries no compiled schedule.
        let started = Instant::now();
        let unit_circuit = {
            let cpu = Cpu::new(CpuMode::Normal);
            match self.unit {
                CpuUnit::Adder => cpu.datapath.adder,
                CpuUnit::Logic => cpu.datapath.logic,
            }
        };
        let faults = enumerate_faults(&unit_circuit);
        let overrides: Vec<Override> = faults.iter().map(|f| f.to_override()).collect();
        // Collapsing runs over the compiled unit netlist; were it ever not
        // engine-compatible, the campaign would run uncollapsed.
        let collapsed = self
            .fault_collapse
            .then(|| CompiledCircuit::try_compile(&unit_circuit).ok())
            .flatten()
            .map(|compiled| collapse_overrides(&compiled, &overrides));
        let setup = Setup {
            campaign: match self.unit {
                CpuUnit::Adder => "cpu_adder",
                CpuUnit::Logic => "cpu_logic",
            },
            inputs: unit_circuit.inputs().len(),
            outputs: unit_circuit.outputs().len(),
            threads: 1,
            faults: &overrides,
            collapsed,
            observer: self.observer,
            cancel: self.cancel,
            started,
        };
        let kernel = CpuKernel {
            unit: self.unit,
            workloads: &self.workloads,
            budget: self.budget,
        };
        let driven = drive(setup, kernel)?;
        let (periods, collapse) = (driven.stats.words_evaluated, driven.stats.collapse);
        let (verdicts, table) = driven.into_expanded();
        if let Some(cov) = self.coverage {
            cov.push(table.coverage_map(|i, out| faults[i].describe_into(&unit_circuit, out)));
        }
        let results = faults
            .iter()
            .zip(verdicts)
            .map(|(&fault, r)| CpuFaultResult { fault, ..r })
            .collect();
        Ok(CpuCampaign {
            results,
            periods,
            cancelled: table.cancelled(),
            collapse,
        })
    }
}

impl Workload {
    /// A CPU in alternating mode with this workload's memory set up.
    fn boot(&self) -> Cpu {
        let mut cpu = Cpu::new(CpuMode::Alternating);
        for &(a, v) in &self.setup {
            cpu.memory.write(a, v);
        }
        cpu
    }
}

/// The CPU campaign's kernel: one fault per unit, run through the whole
/// workload suite on the interpreted datapath.
struct CpuKernel<'a> {
    unit: CpuUnit,
    workloads: &'a [Workload],
    budget: u64,
}

impl Kernel for CpuKernel<'_> {
    type Verdict = CpuFaultResult;
    type Worker = ();

    fn unit_len(&self) -> usize {
        1
    }

    /// One interpreted evaluation at a time: the geometry event keeps bench
    /// rows comparable with the lane-packed engine campaigns.
    fn header(&self, observer: &dyn CampaignObserver) {
        observer.on_event(&CampaignEvent::LaneGeometry {
            width: 1,
            fault_lanes: 0,
            pattern_lanes: 1,
            packing: "scalar",
        });
    }

    /// Every workload must pass fault-free.
    fn golden(&mut self) -> Result<(u64, ()), EngineError> {
        for w in self.workloads {
            let mut cpu = w.boot();
            let failed = |reason: String| EngineError::WorkloadFailed {
                workload: w.name.to_string(),
                reason,
            };
            cpu.run(&w.program, self.budget)
                .map_err(|e| failed(e.to_string()))?;
            match cpu.memory.read(RESULT) {
                Ok(v) if v == w.expect => {}
                got => return Err(failed(format!("result {got:?}, expected Ok({})", w.expect))),
            }
        }
        Ok((0, ()))
    }

    fn worker(&self) {}

    fn run(
        &self,
        (): &mut (),
        unit: Unit<'_>,
        _record: bool,
        _cancel: Option<&CancelToken>,
    ) -> Option<UnitResult<CpuFaultResult>> {
        let t = Instant::now();
        let o = unit.faults[0];
        let mut r = CpuFaultResult {
            fault: Fault::new(o.site, o.value),
            detected: 0,
            dormant: 0,
            undetected_wrong: 0,
        };
        let mut first_detected = None;
        let mut periods = 0u64;
        for (widx, w) in self.workloads.iter().enumerate() {
            let mut cpu = w.boot();
            match self.unit {
                CpuUnit::Adder => cpu.datapath.fault_adder(o),
                CpuUnit::Logic => cpu.datapath.fault_logic(o),
            }
            match cpu.run(&w.program, self.budget) {
                Err(_) => {
                    r.detected += 1;
                    if first_detected.is_none() {
                        first_detected = u32::try_from(widx).ok();
                    }
                }
                Ok(_) => {
                    if cpu.memory.read(RESULT) == Ok(w.expect) {
                        r.dormant += 1;
                    } else {
                        r.undetected_wrong += 1;
                    }
                }
            }
            periods += cpu.stats().periods;
        }
        let summary = FaultSummary {
            detected: r.detected,
            violations: r.undetected_wrong,
            observable: r.detected + r.undetected_wrong > 0,
            dropped_at: None,
            pairs: periods / 2,
            first_detected,
            ..FaultSummary::default()
        };
        Some(UnitResult {
            verdicts: vec![r],
            summaries: vec![summary],
            words: periods,
            eval_time: t.elapsed(),
            unit_events: Vec::new(),
            fault_events: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scal_obs::CollectObserver;

    #[test]
    fn logic_unit_campaign_has_full_coverage() {
        let report = Campaign::new(CpuUnit::Logic).run().unwrap();
        assert!(!report.results.is_empty());
        assert!(!report.cancelled);
        assert_eq!(report.undetected_wrong(), 0, "single-fault coverage");
    }

    #[test]
    fn observer_sees_full_event_stream_in_fault_order() {
        let collect = CollectObserver::default();
        let report = Campaign::new(CpuUnit::Adder)
            .observer(&collect)
            .run()
            .unwrap();
        let events = collect.events();
        assert!(matches!(
            events.first(),
            Some(CampaignEvent::CampaignStart {
                campaign: "cpu_adder",
                ..
            })
        ));
        let finishes: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                CampaignEvent::FaultFinish { fault, .. } => Some(*fault),
                _ => None,
            })
            .collect();
        assert_eq!(finishes, (0..report.results.len()).collect::<Vec<_>>());
        assert!(matches!(
            events.last(),
            Some(CampaignEvent::CampaignEnd {
                cancelled: false,
                ..
            })
        ));
    }

    #[test]
    fn coverage_maps_record_first_detecting_workload() {
        let cov = scal_obs::CoverageObserver::new();
        let report = Campaign::new(CpuUnit::Logic).coverage(&cov).run().unwrap();
        let map = cov.latest().expect("coverage map");
        assert_eq!(map.records.len(), report.results.len());
        for (rec, res) in map.records.iter().zip(&report.results) {
            assert!(!rec.label.is_empty());
            assert_eq!(rec.detected > 0, res.detected > 0);
            if res.detected > 0 {
                let first = rec.first_detected.expect("first detecting workload");
                assert!((first as usize) < default_workloads().len());
            } else {
                assert_eq!(rec.first_detected, None);
            }
        }
    }

    #[test]
    fn cancellation_returns_fault_ordered_prefix() {
        // Collapsing pinned off: the cancel-after-2 observer and the length
        // assertion below count individual faults, which under collapsing
        // would be representative units instead.
        let full = Campaign::new(CpuUnit::Logic)
            .fault_collapse(false)
            .run()
            .unwrap();
        let cancel = CancelToken::new();

        struct CancelAfter<'a> {
            token: &'a CancelToken,
            after: usize,
        }
        impl CampaignObserver for CancelAfter<'_> {
            fn on_event(&self, event: &CampaignEvent) {
                if let CampaignEvent::Progress { done, .. } = event {
                    if *done >= self.after {
                        self.token.cancel();
                    }
                }
            }
        }
        let obs = CancelAfter {
            token: &cancel,
            after: 2,
        };
        let partial = Campaign::new(CpuUnit::Logic)
            .fault_collapse(false)
            .observer(&obs)
            .cancel(&cancel)
            .run()
            .unwrap();
        assert!(partial.cancelled);
        assert_eq!(partial.results.len(), 2);
        assert_eq!(partial.results[..], full.results[..2]);
    }

    #[test]
    fn collapsed_campaign_matches_uncollapsed() {
        for unit in [CpuUnit::Adder, CpuUnit::Logic] {
            let plain_cov = scal_obs::CoverageObserver::new();
            let plain = Campaign::new(unit)
                .fault_collapse(false)
                .coverage(&plain_cov)
                .run()
                .unwrap();
            let collect = CollectObserver::default();
            let cov = scal_obs::CoverageObserver::new();
            let collapsed = Campaign::new(unit)
                .fault_collapse(true)
                .observer(&collect)
                .coverage(&cov)
                .run()
                .unwrap();
            assert_eq!(collapsed.results, plain.results, "{unit:?} verdicts");
            // Whole coverage maps agree, per-fault `pairs` included: each
            // fault's `pairs` is its own work, so an equivalent fault's
            // verdict carries over unchanged.
            let plain_map = plain_cov.latest().expect("plain map");
            let map = cov.latest().expect("collapsed map");
            assert_eq!(
                map.without_annotations(),
                plain_map.without_annotations(),
                "{unit:?} coverage maps"
            );
            // Uncollapsed, the per-fault pairs add up to the whole run.
            let pairs: u64 = plain_map.records.iter().map(|r| r.pairs).sum();
            assert_eq!(pairs, plain.periods / 2, "{unit:?} per-fault pairs");
            assert!(!collapsed.cancelled);
            // The collapsed sweep must actually have merged classes and run
            // less interpreted work than the full sweep.
            let events = collect.events();
            let (faults, reps) = events
                .iter()
                .find_map(|e| match e {
                    CampaignEvent::FaultCollapse {
                        faults,
                        representatives,
                        ..
                    } => Some((*faults, *representatives)),
                    _ => None,
                })
                .expect("FaultCollapse event");
            assert_eq!(faults, plain.results.len());
            assert!(reps < faults, "{unit:?} collapse must merge classes");
            assert!(collapsed.periods < plain.periods, "{unit:?} rep-only work");
            let classes = events
                .iter()
                .filter(|e| matches!(e, CampaignEvent::FaultClass { .. }))
                .count();
            assert_eq!(classes, faults - reps);
        }
    }

    #[test]
    fn failing_fault_free_workload_is_a_typed_error() {
        let mut broken = default_workloads();
        broken[0].expect ^= 1;
        let name = broken[0].name;
        match Campaign::new(CpuUnit::Logic).workloads(broken).run() {
            Err(EngineError::WorkloadFailed { workload, reason }) => {
                assert_eq!(workload, name);
                assert!(reason.contains("expected"), "{reason}");
            }
            other => panic!("expected WorkloadFailed, got {other:?}"),
        }
        // A budget too small for the program to halt fails the same way.
        let short = Campaign::new(CpuUnit::Logic).budget(0).run();
        assert!(
            matches!(short, Err(EngineError::WorkloadFailed { .. })),
            "{short:?}"
        );
    }
}
