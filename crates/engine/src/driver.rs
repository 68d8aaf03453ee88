//! The campaign driver: the one pipeline under every campaign — the pair
//! (Ch. 3), packed sequential (Ch. 4) and CPU datapath (Ch. 7) kernels and
//! the scalar pair and graph sequential oracles — which all judge a design
//! by one verdict per single stuck-at fault.
//!
//! [`drive`] collapses the fault list ([`collapse_overrides`]), emits the
//! preamble (`CampaignStart`, the kernel's header events, the compile phase,
//! the kernel's compile events, the `collapse` span and `FaultCollapse`),
//! brackets the kernel's golden run, fans units of representatives out
//! over [`par_map_cancellable`] (live `Progress` in simulated faults), and
//! merges: the longest completed unit prefix is expanded over `rep_of` into
//! the longest answered original-fault prefix, then `Cancelled` and
//! `CampaignEnd`. A [`Kernel`] only simulates one unit at a time.
//!
//! The verdicts come back as a [`VerdictTable`]: one [`FaultSummary`] per
//! simulated representative, the representative of every answered fault and
//! the collapsed classes. A campaign's [`CoverageMap`] is gathered from that
//! table ([`VerdictTable::coverage_map`]), not from events.
//!
//! Events exist only for an enabled observer. The merge phase then emits
//! each unit's events (`LaneBatch`, a chunk `Span`) just before the first
//! original fault it answers, and for each answered original fault `o`:
//! `FaultStart`, `FaultClass` (class members only), the kernel's per-fault
//! events (the representative itself only: `BatchDone`, its `Span`,
//! `ConeStats`), `FaultDropped` (dropped faults only) and `FaultFinish`,
//! all naming `o` and the worker that ran its unit.

use crate::campaign::{EngineStats, Toggle, MAX_THREADS};
use crate::collapse::{collapse_overrides, resolve_fault_collapse, CollapsedFaultList};
use crate::compile::CompiledCircuit;
use crate::error::EngineError;
use crate::pool::{effective_threads, par_map_cancellable};
use scal_netlist::Override;
use scal_obs::{CampaignEvent, CampaignObserver, CancelToken, CoverageMap, FaultRecord, Phase};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Whole microseconds of `d`, saturating.
#[must_use]
pub fn duration_micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Emits `PhaseStart` for `phase` when `since` is `None`, else its
/// `PhaseEnd` timed from `since` — nothing when `observer` is disabled.
fn phase_event(observer: &dyn CampaignObserver, phase: Phase, since: Option<Instant>) {
    if observer.enabled() {
        observer.on_event(&match since {
            None => CampaignEvent::PhaseStart { phase },
            Some(t) => CampaignEvent::PhaseEnd {
                phase,
                micros: duration_micros(t.elapsed()),
            },
        });
    }
}

/// The `FaultFinish` payload of one fault, plus where fault dropping cut it
/// and, on the cone path, its cone annotation (the `ConeStats` payload).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Detections (pairs, words or workloads, by campaign kind).
    pub detected: usize,
    /// Undetected wrong results.
    pub violations: usize,
    /// `true` iff the fault changed something observable.
    pub observable: bool,
    /// The batch at whose end fault dropping stopped the fault, if it did.
    pub dropped_at: Option<usize>,
    /// Pairs this fault's own simulation evaluated.
    pub pairs: u64,
    /// First detecting pair, word or workload.
    pub first_detected: Option<u32>,
    /// Ops in the fault's fanout cone (`None` off the cone path).
    pub cone_ops: Option<u64>,
    /// Op evaluations the cone path skipped relative to full-schedule
    /// sweeps, in 64-lane sub-word op sweeps (`num_ops × words` minus the
    /// ops evaluated; `None` off the cone path).
    pub ops_skipped: Option<u64>,
    /// Lowest level at which the faulty frontier converged back to golden
    /// (`None` when it never did, or off the cone path).
    pub frontier_died_at_level: Option<u32>,
}

/// What a campaign decided, fault by fault, before expansion: the table a
/// [`CoverageMap`] is gathered from.
#[derive(Debug, Clone, Default)]
pub struct VerdictTable {
    /// Campaign tag (`"pair"`, `"seq_scalar"`, …), as in `CampaignStart`.
    pub campaign: &'static str,
    /// Faults the campaign was asked about.
    pub total_faults: usize,
    /// One summary per completed simulated fault (representative).
    pub summaries: Vec<FaultSummary>,
    /// For each answered original fault, in order, its representative's
    /// index into `summaries`.
    pub rep_of: Vec<u32>,
    /// The collapsed classes, when the campaign collapsed its fault list.
    pub classes: Option<CollapsedFaultList>,
}

impl VerdictTable {
    /// `true` iff cancellation left some fault unanswered.
    #[must_use]
    pub fn cancelled(&self) -> bool {
        self.rep_of.len() < self.total_faults
    }

    /// Gathers the coverage map: one record per answered fault, in fault
    /// order, each labelled once by `label(fault, &mut record.label)`.
    /// A class member (a fault that is not its own representative) carries
    /// `class_rep`/`class_size` and its representative's verdict; only a
    /// representative carries cone statistics.
    pub fn coverage_map(&self, mut label: impl FnMut(usize, &mut String)) -> CoverageMap {
        let records = self
            .rep_of
            .iter()
            .enumerate()
            .map(|(fault, &r)| {
                let r = r as usize;
                let s = &self.summaries[r];
                let class = self
                    .classes
                    .as_ref()
                    .map(|cl| (cl.reps[r] as usize, cl.class_sizes[r] as usize))
                    .filter(|&(rep, _)| rep != fault);
                let rep = class.is_none();
                let mut record = FaultRecord {
                    fault,
                    label: String::new(),
                    detected: s.detected,
                    first_detected: s.first_detected,
                    violations: s.violations,
                    observable: s.observable,
                    dropped: s.dropped_at.is_some(),
                    dropped_at: s.dropped_at,
                    pairs: s.pairs,
                    cone_ops: s.cone_ops.filter(|_| rep),
                    ops_skipped: s.ops_skipped.filter(|_| rep),
                    frontier_died_at_level: s.frontier_died_at_level.filter(|_| rep),
                    class_rep: class.map(|(rep, _)| rep),
                    class_size: class.map(|(_, size)| size),
                };
                label(fault, &mut record.label);
                record
            })
            .collect();
        CoverageMap {
            campaign: self.campaign.to_string(),
            records,
            total_faults: self.total_faults,
            cancelled: self.cancelled(),
        }
    }
}

/// One unit of work handed to a [`Kernel`].
#[derive(Debug, Clone, Copy)]
pub struct Unit<'s> {
    /// Unit ordinal, from 0; the index of `faults[0]` in the simulated
    /// (representative) list is `index × unit_len`.
    pub index: usize,
    /// Worker running the unit.
    pub worker: usize,
    /// The unit's representative faults.
    pub faults: &'s [Override],
}

/// What a [`Kernel`] produced for one unit.
#[derive(Debug, Clone)]
pub struct UnitResult<V> {
    /// One verdict per fault of the unit.
    pub verdicts: Vec<V>,
    /// One summary per fault of the unit; their `pairs` add up to the
    /// unit's pair count.
    pub summaries: Vec<FaultSummary>,
    /// 64-lane sub-word sweeps executed.
    pub words: u64,
    /// Wall time inside the unit's evaluation, unrounded: units often take
    /// well under a microsecond, so whole microseconds would undercount
    /// [`crate::EngineStats::eval_time`].
    pub eval_time: Duration,
    /// Unit-level events (`LaneBatch`, chunk spans), when recording.
    pub unit_events: Vec<CampaignEvent>,
    /// Per-fault events, one list per fault, when recording; empty when
    /// the kernel has none.
    pub fault_events: Vec<Vec<CampaignEvent>>,
}

/// The simulation core of one campaign kind.
pub trait Kernel: Sync {
    /// Per-fault verdict.
    type Verdict: Clone + Send;
    /// Per-worker scratch state.
    type Worker: Send;

    /// Representative faults per unit of work.
    fn unit_len(&self) -> usize;

    /// Events right after `CampaignStart` (mode, lane geometry).
    fn header(&self, _observer: &dyn CampaignObserver) {}

    /// Events right after the compile phase (compile spans, levels).
    fn compile_events(&self, _observer: &dyn CampaignObserver) {}

    /// Runs the fault-free reference; returns the sub-word sweeps it cost
    /// and a warm worker state for the first worker.
    ///
    /// # Errors
    ///
    /// Whatever makes the design unfit for the campaign.
    fn golden(&mut self) -> Result<(u64, Self::Worker), EngineError>;

    /// A fresh worker state.
    fn worker(&self) -> Self::Worker;

    /// Simulates one unit; `None` if `cancel` stopped it midway.
    fn run(
        &self,
        worker: &mut Self::Worker,
        unit: Unit<'_>,
        record: bool,
        cancel: Option<&CancelToken>,
    ) -> Option<UnitResult<Self::Verdict>>;
}

/// Everything [`drive`] needs besides the kernel.
pub struct Setup<'a> {
    /// Campaign tag of `CampaignStart`.
    pub campaign: &'static str,
    /// Primary inputs of the design.
    pub inputs: usize,
    /// Primary outputs of the design.
    pub outputs: usize,
    /// Requested worker threads; `0` = auto.
    pub threads: usize,
    /// The fault list, one override per fault.
    pub faults: &'a [Override],
    /// Compiled design to collapse over; `None` never collapses.
    pub compiled: Option<&'a CompiledCircuit>,
    /// The collapse switch.
    pub collapse: Toggle,
    /// Where every event goes.
    pub observer: &'a dyn CampaignObserver,
    /// Checked before every unit (and by kernels inside units).
    pub cancel: Option<&'a CancelToken>,
    /// When the campaign, and its compile phase, started.
    pub started: Instant,
}

/// A driven campaign: its verdicts and the table they are summarized in.
#[derive(Debug, Clone)]
pub struct Driven<V> {
    /// One verdict per completed representative, parallel to
    /// `table.summaries`.
    pub verdicts: Vec<V>,
    /// The per-fault summaries, the representative of every answered fault
    /// and the collapsed classes.
    pub table: VerdictTable,
    /// Counters and phase times; work counts representatives.
    pub stats: EngineStats,
}

impl<V: Clone> Driven<V> {
    /// One verdict per answered original fault, in fault order, and the
    /// verdict table.
    #[must_use]
    pub fn into_expanded(self) -> (Vec<V>, VerdictTable) {
        let rep_of = &self.table.rep_of;
        let mut uses = vec![0u32; self.verdicts.len()];
        for &r in rep_of {
            uses[r as usize] += 1;
        }
        let mut slots: Vec<Option<V>> = self.verdicts.into_iter().map(Some).collect();
        let expanded = rep_of
            .iter()
            .map(|&r| {
                let r = r as usize;
                uses[r] -= 1;
                let v = if uses[r] == 0 {
                    slots[r].take()
                } else {
                    slots[r].clone()
                };
                v.expect("each verdict is moved out last")
            })
            .collect();
        (expanded, self.table)
    }
}

/// Rewrites the fault index of a buffered per-fault event.
fn remap_fault(event: &CampaignEvent, fault: usize) -> CampaignEvent {
    let mut e = event.clone();
    if let CampaignEvent::BatchDone { fault: f, .. } | CampaignEvent::ConeStats { fault: f, .. } =
        &mut e
    {
        *f = fault;
    }
    e
}

/// Runs one campaign: collapses `setup.faults`, builds the kernel over the
/// representatives with `build`, and drives it through the golden,
/// fault-sim and merge phases (see the module docs for the event order).
///
/// # Errors
///
/// [`EngineError::InvalidConfig`] if `setup.threads` exceeds
/// [`MAX_THREADS`], else whatever `build` or [`Kernel::golden`] returns.
pub fn drive<K: Kernel>(
    setup: Setup<'_>,
    build: impl FnOnce(&[Override]) -> Result<K, EngineError>,
) -> Result<Driven<K::Verdict>, EngineError> {
    let (faults, threads, observer, cancel) =
        (setup.faults, setup.threads, setup.observer, setup.cancel);
    if threads > MAX_THREADS {
        return Err(EngineError::InvalidConfig {
            reason: format!("threads must be 0 (auto) or at most {MAX_THREADS}, got {threads}"),
        });
    }
    let obs = observer.enabled();
    let collapsed: Option<CollapsedFaultList> = setup
        .compiled
        .filter(|_| resolve_fault_collapse(setup.collapse))
        .map(|c| collapse_overrides(c, faults));
    let sim: Cow<[Override]> = match &collapsed {
        Some(cl) => cl.reps.iter().map(|&r| faults[r as usize]).collect(),
        None => Cow::Borrowed(faults),
    };
    let mut kernel = build(&sim)?;
    let mut stats = EngineStats {
        compile_time: setup.started.elapsed(),
        collapse: collapsed.as_ref().map(CollapsedFaultList::counts),
        ..EngineStats::default()
    };
    let per_unit = kernel.unit_len();
    let units: Vec<Range<usize>> = (0..sim.len())
        .step_by(per_unit)
        .map(|lo| lo..(lo + per_unit).min(sim.len()))
        .collect();
    let phase = |phase, since| phase_event(observer, phase, since);

    if obs {
        observer.on_event(&CampaignEvent::CampaignStart {
            campaign: setup.campaign,
            faults: faults.len(),
            inputs: setup.inputs,
            outputs: setup.outputs,
            threads: effective_threads(threads, units.len()),
        });
        kernel.header(observer);
        phase(Phase::Compile, None);
        observer.on_event(&CampaignEvent::PhaseEnd {
            phase: Phase::Compile,
            micros: duration_micros(stats.compile_time),
        });
        kernel.compile_events(observer);
        if let Some(cl) = &collapsed {
            observer.on_event(&CampaignEvent::Span {
                name: "collapse",
                parent: "compile",
                micros: cl.micros,
                count: 1,
                items: cl.num_faults() as u64,
            });
            observer.on_event(&CampaignEvent::FaultCollapse {
                faults: cl.num_faults(),
                representatives: cl.num_reps(),
                dominance_edges: cl.dominance_edges,
                micros: cl.micros,
            });
        }
    }

    let t = Instant::now();
    phase(Phase::Golden, None);
    let (golden_words, warm) = kernel.golden()?;
    stats.golden_time = t.elapsed();
    stats.words_evaluated = golden_words;
    phase(Phase::Golden, Some(t));

    let t = Instant::now();
    phase(Phase::FaultSim, None);
    let kernel = &kernel;
    let sim: &[Override] = &sim;
    let done = AtomicUsize::new(0);
    let mut warm = Some(warm);
    let slots = par_map_cancellable(
        &units,
        threads,
        cancel,
        |_| warm.take().unwrap_or_else(|| kernel.worker()),
        |state, worker, index, range: &Range<usize>| {
            let unit = Unit {
                index,
                worker,
                faults: &sim[range.clone()],
            };
            let result = kernel.run(state, unit, obs, cancel)?;
            if obs {
                observer.on_event(&CampaignEvent::Progress {
                    done: done.fetch_add(range.len(), Ordering::Relaxed) + range.len(),
                    total: sim.len(),
                });
            }
            Some((worker, result))
        },
    );
    stats.fault_sim_time = t.elapsed();
    phase(Phase::FaultSim, Some(t));

    let t = Instant::now();
    phase(Phase::Merge, None);
    let outcomes: Vec<(usize, UnitResult<K::Verdict>)> =
        slots.into_iter().map_while(Option::flatten).collect();
    let completed_reps = outcomes.iter().map(|(_, o)| o.verdicts.len()).sum();
    let rep_of: Vec<u32> = match &collapsed {
        Some(cl) => cl.rep_of[..cl.completed_prefix(completed_reps)].to_vec(),
        None => (0..completed_reps as u32).collect(),
    };
    let mut summaries = Vec::with_capacity(completed_reps);
    for (_, outcome) in &outcomes {
        stats.words_evaluated += outcome.words;
        stats.eval_time += outcome.eval_time;
        summaries.extend_from_slice(&outcome.summaries);
    }
    stats.pairs_evaluated = summaries.iter().map(|s| s.pairs).sum();
    stats.faults = rep_of.len();
    stats.faults_dropped = rep_of
        .iter()
        .filter(|&&r| summaries[r as usize].dropped_at.is_some())
        .count();
    if obs {
        let unit_events = |u: usize| outcomes[u].1.unit_events.iter();
        let mut next_unit = 0;
        for (o, &r) in rep_of.iter().enumerate() {
            let r = r as usize;
            let (u, k) = (r / per_unit, r % per_unit);
            for e in (next_unit..=u).flat_map(unit_events) {
                observer.on_event(e);
            }
            next_unit = next_unit.max(u + 1);
            let (worker, outcome) = (outcomes[u].0, &outcomes[u].1);
            observer.on_event(&CampaignEvent::FaultStart { fault: o, worker });
            match collapsed.as_ref().map(|cl| (cl.reps[r] as usize, cl)) {
                Some((rep, cl)) if rep != o => {
                    observer.on_event(&CampaignEvent::FaultClass {
                        fault: o,
                        representative: rep,
                        size: cl.class_sizes[r] as usize,
                    });
                }
                _ => {
                    for e in outcome.fault_events.get(k).into_iter().flatten() {
                        if r == o {
                            observer.on_event(e);
                        } else {
                            observer.on_event(&remap_fault(e, o));
                        }
                    }
                }
            }
            let s = &summaries[r];
            if let Some(batch) = s.dropped_at {
                observer.on_event(&CampaignEvent::FaultDropped {
                    fault: o,
                    worker,
                    batch,
                });
            }
            observer.on_event(&CampaignEvent::FaultFinish {
                fault: o,
                worker,
                detected: s.detected,
                violations: s.violations,
                observable: s.observable,
                dropped: s.dropped_at.is_some(),
                pairs: s.pairs,
                first_detected: s.first_detected,
            });
        }
        for e in (next_unit..outcomes.len()).flat_map(unit_events) {
            observer.on_event(e);
        }
    }
    let verdicts = outcomes.into_iter().flat_map(|(_, o)| o.verdicts).collect();
    let table = VerdictTable {
        campaign: setup.campaign,
        total_faults: faults.len(),
        summaries,
        rep_of,
        classes: collapsed,
    };
    let cancelled = table.cancelled();
    phase(Phase::Merge, Some(t));
    if obs {
        if cancelled {
            observer.on_event(&CampaignEvent::Cancelled {
                completed: table.rep_of.len(),
            });
        }
        observer.on_event(&CampaignEvent::CampaignEnd {
            faults: table.rep_of.len(),
            dropped: stats.faults_dropped,
            pairs: stats.pairs_evaluated,
            words: stats.words_evaluated,
            micros: duration_micros(setup.started.elapsed()),
            cancelled,
        });
    }
    Ok(Driven {
        verdicts,
        table,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use scal_obs::json::{parse, validate_jsonl, JsonValue};

    fn summary(detected: usize, first: Option<u32>) -> FaultSummary {
        FaultSummary {
            detected,
            violations: usize::from(detected == 0),
            observable: true,
            pairs: 4,
            first_detected: first,
            ..FaultSummary::default()
        }
    }

    /// The table of an uncollapsed campaign: `summaries[i]` answers fault
    /// `i`.
    fn uncollapsed(
        campaign: &'static str,
        total_faults: usize,
        summaries: Vec<FaultSummary>,
    ) -> VerdictTable {
        VerdictTable {
            campaign,
            total_faults,
            rep_of: (0..summaries.len() as u32).collect(),
            summaries,
            classes: None,
        }
    }

    /// Labels fault `i` as `labels[i]`.
    fn labelled<'a>(labels: &'a [&str]) -> impl FnMut(usize, &mut String) + 'a {
        |i, out| out.push_str(labels[i])
    }

    #[test]
    fn builds_a_map_with_ttd_and_labels() {
        let table = uncollapsed("pair", 2, vec![summary(2, Some(1)), summary(0, None)]);
        let map = table.coverage_map(labelled(&["a s-a-0", "a s-a-1"]));
        assert_eq!(map.campaign, "pair");
        assert_eq!(map.records.len(), 2);
        assert_eq!(map.detected_count(), 1);
        assert!((map.coverage_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(map.records[0].time_to_detection(), Some(2));
        assert_eq!(map.records[0].label, "a s-a-0");
        assert_eq!(map.undetected().count(), 1);
        let report = map.undetected_report();
        assert!(report.contains("1/2 faults detected"), "{report}");
        assert!(report.contains("#1 a s-a-1"), "{report}");
    }

    #[test]
    fn dropped_at_carries_the_batch_ordinal() {
        let table = uncollapsed(
            "pair",
            1,
            vec![FaultSummary {
                dropped_at: Some(3),
                pairs: 192,
                ..summary(1, Some(130))
            }],
        );
        let map = table.coverage_map(|_, _| {});
        assert_eq!(map.records[0].dropped_at, Some(3));
        assert!(map.records[0].dropped);
        assert_eq!(map.records[0].pairs, 192);
    }

    #[test]
    fn cone_stats_attach_to_their_fault_record() {
        let table = uncollapsed(
            "pair",
            2,
            vec![
                summary(1, Some(0)),
                FaultSummary {
                    cone_ops: Some(3),
                    ops_skipped: Some(22),
                    frontier_died_at_level: Some(2),
                    ..summary(0, None)
                },
            ],
        );
        let map = table.coverage_map(|_, _| {});
        assert_eq!(map.records[0].cone_ops, None);
        assert_eq!(map.records[1].cone_ops, Some(3));
        assert_eq!(map.records[1].ops_skipped, Some(22));
        assert_eq!(map.records[1].frontier_died_at_level, Some(2));
        let json = map.to_json();
        let v = parse(&json).expect("parses");
        let recs = v.get("records").and_then(JsonValue::as_array).unwrap();
        assert!(recs[0].get("cone_ops").is_none());
        assert_eq!(
            recs[1].get("cone_ops").and_then(JsonValue::as_f64),
            Some(3.0)
        );
        assert_eq!(
            recs[1]
                .get("frontier_died_at_level")
                .and_then(JsonValue::as_f64),
            Some(2.0)
        );
    }

    #[test]
    fn fault_class_attaches_and_strips() {
        // Faults 0 and 1 form one class represented by fault 0, whose cone
        // statistics stay on its own record.
        let table = VerdictTable {
            campaign: "pair",
            total_faults: 2,
            summaries: vec![FaultSummary {
                cone_ops: Some(5),
                ops_skipped: Some(9),
                ..summary(1, Some(0))
            }],
            rep_of: vec![0, 0],
            classes: Some(CollapsedFaultList {
                rep_of: vec![0, 0],
                reps: vec![0],
                class_sizes: vec![2],
                dominance_edges: 0,
                micros: 0,
            }),
        };
        let map = table.coverage_map(|_, _| {});
        assert_eq!(map.records[0].class_rep, None);
        assert_eq!(map.records[0].cone_ops, Some(5));
        assert_eq!(map.records[1].class_rep, Some(0));
        assert_eq!(map.records[1].class_size, Some(2));
        assert_eq!(map.records[1].cone_ops, None);
        assert_eq!(map.records[1].detected, map.records[0].detected);
        let json = map.to_json();
        let v = parse(&json).expect("parses");
        let recs = v.get("records").and_then(JsonValue::as_array).unwrap();
        assert!(recs[0].get("class_rep").is_none());
        assert_eq!(
            recs[1].get("class_rep").and_then(JsonValue::as_f64),
            Some(0.0)
        );
        assert_eq!(
            recs[1].get("class_size").and_then(JsonValue::as_f64),
            Some(2.0)
        );
        let stripped = map.without_annotations();
        assert!(stripped
            .records
            .iter()
            .all(|r| r.class_rep.is_none() && r.class_size.is_none() && r.cone_ops.is_none()));
        assert_eq!(stripped.records[1].detected, map.records[1].detected);
    }

    #[test]
    fn cancellation_marks_the_prefix_map() {
        let table = uncollapsed("pair", 5, vec![summary(1, Some(0)), summary(1, Some(2))]);
        let map = table.coverage_map(|_, _| {});
        assert!(map.cancelled);
        assert_eq!(map.records.len(), 2);
        assert_eq!(map.total_faults, 5);
    }

    #[test]
    fn json_form_is_valid_and_complete() {
        let table = uncollapsed("pair", 1, vec![summary(0, None)]);
        let json = table.coverage_map(labelled(&["n1 s-a-1"])).to_json();
        assert_eq!(validate_jsonl(&json), Ok(1));
        let v = parse(&json).expect("parses");
        assert_eq!(v.get("coverage").and_then(JsonValue::as_f64), Some(0.0));
        let recs = v.get("records").and_then(JsonValue::as_array).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].get("detected"), Some(&JsonValue::Bool(false)));
        assert_eq!(
            recs[0].get("label").and_then(JsonValue::as_str),
            Some("n1 s-a-1")
        );
        assert!(recs[0].get("first_pair").is_none());
    }

    #[test]
    fn expansion_repeats_each_class_verdict_in_fault_order() {
        let driven = Driven {
            verdicts: vec![String::from("a"), String::from("b")],
            table: VerdictTable {
                rep_of: vec![0, 0, 1, 0, 1],
                ..VerdictTable::default()
            },
            stats: EngineStats::default(),
        };
        assert_eq!(driven.into_expanded().0, ["a", "a", "b", "a", "b"]);
    }

    #[test]
    fn unit_events_precede_the_first_fault_they_answer() {
        use crate::compile::CompiledCircuit;
        use scal_netlist::{Circuit, GateKind, Site};
        use scal_obs::CollectObserver;

        // A kernel whose verdict is the fault's stuck value, one fault per
        // unit, tagging every unit with a `LaneBatch`.
        struct Echo;
        impl Kernel for Echo {
            type Verdict = bool;
            type Worker = ();
            fn unit_len(&self) -> usize {
                1
            }
            fn golden(&mut self) -> Result<(u64, ()), EngineError> {
                Ok((0, ()))
            }
            fn worker(&self) {}
            fn run(
                &self,
                (): &mut (),
                unit: Unit<'_>,
                record: bool,
                _: Option<&CancelToken>,
            ) -> Option<UnitResult<bool>> {
                let lane_batch = CampaignEvent::LaneBatch {
                    batch: unit.index,
                    worker: unit.worker,
                    lanes: unit.faults.len(),
                    words: 0,
                    retired: 0,
                };
                Some(UnitResult {
                    verdicts: unit.faults.iter().map(|o| o.value).collect(),
                    summaries: vec![FaultSummary::default(); unit.faults.len()],
                    words: 0,
                    eval_time: Duration::ZERO,
                    unit_events: if record { vec![lane_batch] } else { Vec::new() },
                    fault_events: Vec::new(),
                })
            }
        }

        // An AND gate: input s-a-0 ≡ output s-a-0, so collapsing merges.
        let mut c = Circuit::new();
        let (a, b) = (c.input("a"), c.input("b"));
        let g = c.gate(GateKind::And, &[a, b]);
        c.mark_output("f", g);
        let compiled = CompiledCircuit::try_compile(&c).unwrap();
        let faults: Vec<Override> = [(g, false), (a, false), (b, false), (g, true)]
            .iter()
            .map(|&(n, value)| Override {
                site: Site::Stem(n),
                value,
            })
            .collect();
        let collect = CollectObserver::default();
        let driven = drive(
            Setup {
                campaign: "echo",
                inputs: 2,
                outputs: 1,
                threads: 1,
                faults: &faults,
                compiled: Some(&compiled),
                collapse: Toggle::On,
                observer: &collect,
                cancel: None,
                started: Instant::now(),
            },
            |sim| {
                assert_eq!(sim.len(), 2, "three s-a-0 faults form one class");
                Ok(Echo)
            },
        )
        .unwrap();
        assert_eq!(driven.table.rep_of, [0, 0, 0, 1]);
        assert_eq!(driven.into_expanded().0, [false, false, false, true]);
        let order: Vec<String> = collect
            .events()
            .iter()
            .filter_map(|e| match e {
                CampaignEvent::LaneBatch { batch, .. } => Some(format!("unit{batch}")),
                CampaignEvent::FaultStart { fault, .. } => Some(format!("start{fault}")),
                CampaignEvent::FaultClass { fault, .. } => Some(format!("class{fault}")),
                CampaignEvent::FaultFinish { fault, .. } => Some(format!("finish{fault}")),
                _ => None,
            })
            .collect();
        assert_eq!(
            order,
            [
                "unit0", "start0", "finish0", "start1", "class1", "finish1", "start2", "class2",
                "finish2", "unit1", "start3", "finish3"
            ]
        );
    }
}
