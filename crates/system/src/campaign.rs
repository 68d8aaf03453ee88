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
use scal_engine::{collapse_overrides, resolve_fault_collapse, CompiledCircuit, Toggle};
use scal_faults::{enumerate_faults, Fault};
use scal_obs::{
    CampaignEvent, CampaignObserver, CancelToken, CoverageObserver, MultiObserver, NullObserver,
    Phase,
};
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
/// let report = Campaign::new(CpuUnit::Logic).run();
/// assert_eq!(report.undetected_wrong(), 0);
/// ```
pub struct Campaign<'a> {
    unit: CpuUnit,
    workloads: Vec<Workload>,
    budget: u64,
    observer: &'a dyn CampaignObserver,
    coverage: Option<&'a CoverageObserver>,
    cancel: Option<&'a CancelToken>,
    fault_collapse: Toggle,
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
            fault_collapse: Toggle::default(),
        }
    }

    /// Switches compile-time fault collapsing of the unit's fault list:
    /// structurally equivalent stuck-at faults produce identical faulted
    /// unit behaviour on every workload, so only class representatives run
    /// the workload suite and each representative's verdict is expanded
    /// over its class in fault order. Left untouched, collapsing defaults
    /// to on.
    #[must_use]
    pub fn fault_collapse(mut self, on: bool) -> Self {
        self.fault_collapse = on.into();
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
    /// the index of the first workload whose run tripped a check.
    #[must_use]
    pub fn coverage(mut self, coverage: &'a CoverageObserver) -> Self {
        self.coverage = Some(coverage);
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
    /// # Panics
    ///
    /// Panics if a *fault-free* workload run fails its own expectation —
    /// that is a broken workload, not a campaign outcome.
    #[must_use]
    pub fn run(self) -> CpuCampaign {
        // Compile phase: extracting the unit netlist from the datapath and
        // enumerating its fault sites is this campaign's whole compile story
        // — the interpreted datapath carries no compiled schedule. Timed
        // here; the phase events are emitted after the preamble below.
        let t_compile = Instant::now();
        let unit_circuit = {
            let cpu = Cpu::new(CpuMode::Normal);
            match self.unit {
                CpuUnit::Adder => cpu.datapath.adder,
                CpuUnit::Logic => cpu.datapath.logic,
            }
        };
        let faults = enumerate_faults(&unit_circuit);
        // Fault collapsing: structurally equivalent stuck-at faults on the
        // unit netlist corrupt the interpreted datapath identically on every
        // workload, so only class representatives run the workload suite.
        // The unit netlist is combinational and engine-compatible; if it
        // ever were not, the campaign falls back to the uncollapsed sweep.
        let collapsed = resolve_fault_collapse(self.fault_collapse)
            .then(|| {
                let compiled = CompiledCircuit::try_compile(&unit_circuit).ok()?;
                let overrides: Vec<_> = faults.iter().map(|f| f.to_override()).collect();
                Some(collapse_overrides(&compiled, &overrides))
            })
            .flatten();
        let sim_faults: Vec<Fault> = match &collapsed {
            Some(cl) => cl.reps.iter().map(|&r| faults[r as usize]).collect(),
            None => faults.clone(),
        };
        let compile_micros = duration_micros(t_compile.elapsed());
        let mut fan = MultiObserver::new();
        fan.push(self.observer);
        if let Some(cov) = self.coverage {
            cov.set_labels(faults.iter().map(|f| f.describe(&unit_circuit)).collect());
            fan.push(cov);
        }
        let obs: &dyn CampaignObserver = &fan;
        let t_total = Instant::now();
        obs.on_event(&CampaignEvent::CampaignStart {
            campaign: match self.unit {
                CpuUnit::Adder => "cpu_adder",
                CpuUnit::Logic => "cpu_logic",
            },
            faults: faults.len(),
            inputs: unit_circuit.inputs().len(),
            outputs: unit_circuit.outputs().len(),
            threads: 1,
        });
        // One interpreted evaluation at a time: the geometry event keeps
        // bench rows comparable with the lane-packed engine campaigns.
        obs.on_event(&CampaignEvent::LaneGeometry {
            width: 1,
            fault_lanes: 0,
            pattern_lanes: 1,
            packing: "scalar",
        });
        obs.on_event(&CampaignEvent::PhaseStart {
            phase: Phase::Compile,
        });
        obs.on_event(&CampaignEvent::PhaseEnd {
            phase: Phase::Compile,
            micros: compile_micros,
        });
        if let Some(cl) = &collapsed {
            obs.on_event(&CampaignEvent::Span {
                name: "collapse",
                parent: "compile",
                micros: cl.micros,
                count: 1,
                items: cl.num_faults() as u64,
            });
            obs.on_event(&CampaignEvent::FaultCollapse {
                faults: cl.num_faults(),
                representatives: cl.num_reps(),
                dominance_edges: cl.dominance_edges,
                micros: cl.micros,
            });
        }

        // Golden phase: every workload must pass fault-free.
        let t = Instant::now();
        obs.on_event(&CampaignEvent::PhaseStart {
            phase: Phase::Golden,
        });
        for w in &self.workloads {
            let mut cpu = Cpu::new(CpuMode::Alternating);
            for &(a, v) in &w.setup {
                cpu.memory.write(a, v);
            }
            cpu.run(&w.program, self.budget)
                .expect("fault-free workload run");
            assert_eq!(
                cpu.memory.read(RESULT),
                Ok(w.expect),
                "workload {} golden result",
                w.name
            );
        }
        obs.on_event(&CampaignEvent::PhaseEnd {
            phase: Phase::Golden,
            micros: duration_micros(t.elapsed()),
        });

        // Fault-simulation phase, cancellable at fault boundaries
        // (representative boundaries when collapsing). Under collapsing the
        // per-fault events move to the expansion below, which replays them
        // in original fault order; progress is reported in representative
        // units because that is the work actually remaining.
        let t = Instant::now();
        obs.on_event(&CampaignEvent::PhaseStart {
            phase: Phase::FaultSim,
        });
        let mut periods = 0u64;
        let mut cancelled = false;
        let mut rep_outcomes: Vec<(CpuFaultResult, Option<u32>, u64)> =
            Vec::with_capacity(sim_faults.len());
        for (index, fault) in sim_faults.iter().enumerate() {
            if self.cancel.is_some_and(CancelToken::is_cancelled) {
                cancelled = true;
                break;
            }
            if collapsed.is_none() {
                obs.on_event(&CampaignEvent::FaultStart {
                    fault: index,
                    worker: 0,
                });
            }
            let mut r = CpuFaultResult {
                fault: *fault,
                detected: 0,
                dormant: 0,
                undetected_wrong: 0,
            };
            let mut first_detected = None;
            for (widx, w) in self.workloads.iter().enumerate() {
                let mut cpu = Cpu::new(CpuMode::Alternating);
                for &(a, v) in &w.setup {
                    cpu.memory.write(a, v);
                }
                match self.unit {
                    CpuUnit::Adder => cpu.datapath.fault_adder(fault.to_override()),
                    CpuUnit::Logic => cpu.datapath.fault_logic(fault.to_override()),
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
            if collapsed.is_none() {
                obs.on_event(&CampaignEvent::FaultFinish {
                    fault: index,
                    worker: 0,
                    detected: r.detected,
                    violations: r.undetected_wrong,
                    observable: r.detected + r.undetected_wrong > 0,
                    dropped: false,
                    first_detected,
                    pairs: periods / 2,
                });
            }
            rep_outcomes.push((r, first_detected, periods / 2));
            obs.on_event(&CampaignEvent::Progress {
                done: index + 1,
                total: sim_faults.len(),
            });
        }
        let mut results = Vec::with_capacity(faults.len());
        match &collapsed {
            None => results = rep_outcomes.into_iter().map(|(r, _, _)| r).collect(),
            Some(cl) => {
                // Expand representative verdicts over their classes, in
                // original fault order. A cancelled sweep keeps exactly the
                // originals whose representative completed AND whose every
                // predecessor did too, so the result list stays a contiguous
                // fault-ordered prefix just like the uncollapsed sweep.
                let completed = cl.completed_prefix(rep_outcomes.len());
                for (o, fault) in faults.iter().enumerate().take(completed) {
                    let r = cl.rep_of[o] as usize;
                    let (outcome, first_detected, pairs) = &rep_outcomes[r];
                    obs.on_event(&CampaignEvent::FaultStart {
                        fault: o,
                        worker: 0,
                    });
                    let rep_original = cl.reps[r] as usize;
                    if rep_original != o {
                        obs.on_event(&CampaignEvent::FaultClass {
                            fault: o,
                            representative: rep_original,
                            size: cl.class_sizes[r] as usize,
                        });
                    }
                    obs.on_event(&CampaignEvent::FaultFinish {
                        fault: o,
                        worker: 0,
                        detected: outcome.detected,
                        violations: outcome.undetected_wrong,
                        observable: outcome.detected + outcome.undetected_wrong > 0,
                        dropped: false,
                        first_detected: *first_detected,
                        pairs: *pairs,
                    });
                    results.push(CpuFaultResult {
                        fault: *fault,
                        ..outcome.clone()
                    });
                }
            }
        }
        obs.on_event(&CampaignEvent::PhaseEnd {
            phase: Phase::FaultSim,
            micros: duration_micros(t.elapsed()),
        });
        if cancelled {
            obs.on_event(&CampaignEvent::Cancelled {
                completed: results.len(),
            });
        }
        obs.on_event(&CampaignEvent::CampaignEnd {
            faults: results.len(),
            dropped: 0,
            pairs: periods / 2,
            words: periods,
            micros: duration_micros(t_total.elapsed()),
            cancelled,
        });
        CpuCampaign {
            results,
            periods,
            cancelled,
        }
    }
}

fn duration_micros(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scal_obs::CollectObserver;

    #[test]
    fn logic_unit_campaign_has_full_coverage() {
        let report = Campaign::new(CpuUnit::Logic).run();
        assert!(!report.results.is_empty());
        assert!(!report.cancelled);
        assert_eq!(report.undetected_wrong(), 0, "single-fault coverage");
    }

    #[test]
    fn observer_sees_full_event_stream_in_fault_order() {
        let collect = CollectObserver::default();
        let report = Campaign::new(CpuUnit::Adder).observer(&collect).run();
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
        let report = Campaign::new(CpuUnit::Logic).coverage(&cov).run();
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
        let full = Campaign::new(CpuUnit::Logic).fault_collapse(false).run();
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
            .run();
        assert!(partial.cancelled);
        assert_eq!(partial.results.len(), 2);
        assert_eq!(partial.results[..], full.results[..2]);
    }

    #[test]
    fn collapsed_campaign_matches_uncollapsed() {
        for unit in [CpuUnit::Adder, CpuUnit::Logic] {
            let plain = Campaign::new(unit).fault_collapse(false).run();
            let collect = CollectObserver::default();
            let collapsed = Campaign::new(unit)
                .fault_collapse(true)
                .observer(&collect)
                .run();
            assert_eq!(collapsed.results, plain.results, "{unit:?} verdicts");
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
}
