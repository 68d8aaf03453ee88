//! Sequential fault campaigns: the dynamic-testing counterpart of
//! `scal_faults::Campaign` for SCAL machines.
//!
//! A sequential SCAL machine is judged over a *driven input sequence*: for
//! every fault, at the first word where any monitored line deviates from the
//! golden trace, some check (a non-alternating monitored line, or a non-code
//! check pair) must fire — otherwise a wrong code word was accepted, a
//! fault-secure violation.
//!
//! [`Campaign`] is the builder twin of `scal_faults::Campaign`. The default
//! backend ([`SeqBackend::Packed`]) collapses the fault list into
//! structural-equivalence classes (see [`Campaign::fault_collapse`]) and
//! runs a packed kernel under the campaign driver ([`scal_engine::drive`]),
//! which fans the units out and merges the verdicts back in fault order.
//! The kernel packs up to `63 × W` representatives into the lanes of one
//! wide word of `W` 64-bit sub-words, `W` the narrowest width whose one
//! word holds every representative (else 8) — lane 0 of every sub-word
//! replays the golden machine, every other lane one fault — and replays the
//! driven sequence **once per unit** through [`WidePackedSeqSim`]: per-lane
//! flip-flop state is carried across periods, every lane is classified
//! against the golden lane with word-wide masks, and a classified lane
//! *retires*, so the unit early-exits once every lane is classified. [`SeqBackend::Graph`] is the
//! packed backend's independent differential oracle: a kernel of its own
//! under the same driver, run on one thread and never collapsed, that
//! replays one fault at a time through the original graph-walking driver
//! and classifies its trace with its own code. Both backends produce
//! bit-identical outcomes, `first_detected` words, and coverage records.

use crate::dual_ff::{AltSeqDriver, ScalMachine};
use scal_engine::{
    check_threads, collapse_overrides, drive, representatives, word_width_for, CollapseCounts,
    CollapsedFaultList, CompiledCircuit, EngineError, FaultSummary, Kernel, Setup, Unit,
    UnitResult, WidePackedBatchPlan, WidePackedSeqSim, Word,
};
use scal_faults::Fault;
use scal_netlist::Override;
use scal_obs::{CampaignEvent, CampaignObserver, CancelToken, CoverageObserver, NullObserver};
use std::time::Instant;

/// Outcome of one fault under a driven sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeqOutcome {
    /// The fault never changed any monitored value over the run.
    Dormant,
    /// The fault's first manifestation was accompanied by a check flag.
    Detected {
        /// Word index of the first manifestation.
        word: usize,
    },
    /// The fault produced a wrong code word with no flag — a violation.
    Violation {
        /// Word index of the violation.
        word: usize,
    },
}

/// Summary of a sequential campaign.
///
/// Two summaries are equal when they hold the same outcomes and
/// cancellation state: [`SeqCampaign::collapse`] records how the work was
/// done, not what was decided, so it takes no part.
#[derive(Debug, Clone)]
pub struct SeqCampaign {
    /// Per-fault outcomes, in [`ScalMachine::checkable_faults`] order; a
    /// contiguous prefix of that list when [`SeqCampaign::cancelled`].
    pub outcomes: Vec<(Fault, SeqOutcome)>,
    /// `true` iff a [`CancelToken`] stopped the run before every fault was
    /// simulated.
    pub cancelled: bool,
    /// The collapsed fault list's size, when the run collapsed it (`None`
    /// with collapsing off and on the graph backend).
    pub collapse: Option<CollapseCounts>,
}

impl PartialEq for SeqCampaign {
    fn eq(&self, other: &Self) -> bool {
        self.outcomes == other.outcomes && self.cancelled == other.cancelled
    }
}

impl Eq for SeqCampaign {}

impl SeqCampaign {
    /// Number of faults with each outcome: `(dormant, detected, violations)`.
    #[must_use]
    pub fn tally(&self) -> (usize, usize, usize) {
        let mut t = (0, 0, 0);
        for (_, o) in &self.outcomes {
            match o {
                SeqOutcome::Dormant => t.0 += 1,
                SeqOutcome::Detected { .. } => t.1 += 1,
                SeqOutcome::Violation { .. } => t.2 += 1,
            }
        }
        t
    }

    /// `true` iff no fault slipped a wrong code word.
    #[must_use]
    pub fn fault_secure(&self) -> bool {
        self.outcomes
            .iter()
            .all(|(_, o)| !matches!(o, SeqOutcome::Violation { .. }))
    }
}

/// Classifies one fault's trace against the golden trace: outcome at the
/// first word where any monitored line deviates.
fn classify_trace(
    machine: &ScalMachine,
    golden: &[(Vec<bool>, Vec<bool>)],
    mut apply: impl FnMut(&[bool]) -> (Vec<bool>, Vec<bool>),
    words: &[Vec<bool>],
) -> SeqOutcome {
    for (i, w) in words.iter().enumerate() {
        let (o1, o2) = apply(w);
        let mon = machine.monitored();
        let wrong = mon
            .clone()
            .any(|k| o1[k] != golden[i].0[k] || o2[k] != golden[i].1[k]);
        if wrong {
            let nonalt = mon.clone().any(|k| o1[k] == o2[k]);
            let code_bad = machine
                .code_pair
                .map(|(f, g)| o1[f] == o1[g] || o2[f] == o2[g])
                .unwrap_or(false);
            return if nonalt || code_bad {
                SeqOutcome::Detected { word: i }
            } else {
                SeqOutcome::Violation { word: i }
            };
        }
    }
    SeqOutcome::Dormant
}

/// Which simulation backend a sequential [`Campaign`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeqBackend {
    /// Fault-per-lane packed replay (default): up to 63 faults ride the
    /// lanes of one word (lane 0 golden) through [`WidePackedSeqSim`], replay
    /// the driven sequence once per batch, and retire lanes as they are
    /// classified.
    #[default]
    Packed,
    /// The original graph-walking [`AltSeqDriver`], single-threaded: the
    /// packed backend's independent differential oracle.
    Graph,
}

impl SeqBackend {
    /// Stable lowercase name (`"packed"`, `"graph"`), as used on the wire.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SeqBackend::Packed => "packed",
            SeqBackend::Graph => "graph",
        }
    }
}

impl std::fmt::Display for SeqBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SeqBackend {
    type Err = EngineError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "packed" => Ok(SeqBackend::Packed),
            "graph" => Ok(SeqBackend::Graph),
            other => Err(EngineError::InvalidConfig {
                reason: format!("seq backend must be \"packed\" or \"graph\", got {other:?}"),
            }),
        }
    }
}

/// Builder for a sequential fault campaign over a [`ScalMachine`] and a
/// driven word sequence — the `scal-seq` twin of `scal_faults::Campaign`.
pub struct Campaign<'a> {
    machine: &'a ScalMachine,
    words: &'a [Vec<bool>],
    threads: usize,
    observer: Option<&'a dyn CampaignObserver>,
    coverage: Option<&'a CoverageObserver>,
    cancel: Option<&'a CancelToken>,
    backend: SeqBackend,
    fault_collapse: bool,
}

impl std::fmt::Debug for Campaign<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Campaign")
            .field("machine", &self.machine.design)
            .field("words", &self.words.len())
            .field("threads", &self.threads)
            .field("observer", &self.observer.is_some())
            .field("coverage", &self.coverage.is_some())
            .field("cancel", &self.cancel.is_some())
            .field("backend", &self.backend)
            .field("fault_collapse", &self.fault_collapse)
            .finish_non_exhaustive()
    }
}

impl<'a> Campaign<'a> {
    /// Starts a campaign driving `machine` with `words` (each an
    /// external-input vector): packed fault-per-lane backend, auto thread
    /// count, no observer, no cancellation.
    #[must_use]
    pub fn new(machine: &'a ScalMachine, words: &'a [Vec<bool>]) -> Self {
        Campaign {
            machine,
            words,
            threads: 0,
            observer: None,
            coverage: None,
            cancel: None,
            backend: SeqBackend::default(),
            fault_collapse: true,
        }
    }

    /// Worker-thread count; `0` = auto. The graph backend is always
    /// single-threaded.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Streams every [`CampaignEvent`] of the run to `observer`.
    #[must_use]
    pub fn observer(mut self, observer: &'a dyn CampaignObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Builds a per-fault [`scal_obs::CoverageMap`] into `coverage`, labelled
    /// with [`Fault::describe`] line names, alongside any plain
    /// [`Campaign::observer`]. Read `coverage.latest()` after the run; a
    /// record's `first_detected` is the first detecting *word* index of the
    /// driven sequence. The map is gathered from the campaign's verdicts,
    /// so it needs no event stream; `None` attaches nothing.
    #[must_use]
    pub fn coverage(mut self, coverage: impl Into<Option<&'a CoverageObserver>>) -> Self {
        self.coverage = coverage.into();
        self
    }

    /// Makes the run cancellable through `token`, checked at fault
    /// boundaries (batch boundaries on the packed backend); the returned
    /// outcomes are then a fault-ordered prefix.
    #[must_use]
    pub fn cancel(mut self, token: &'a CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Selects the simulation backend; see [`SeqBackend`]. All backends
    /// produce bit-identical outcomes.
    #[must_use]
    pub fn backend(mut self, backend: SeqBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Runs on the original graph-walking [`AltSeqDriver`] oracle instead of
    /// a compiled backend — shorthand for `.backend(SeqBackend::Graph)`.
    #[must_use]
    pub fn scalar(self) -> Self {
        self.backend(SeqBackend::Graph)
    }

    /// Switches fault collapsing on the packed backend (default on): only
    /// class representatives ride the lanes, and the campaign driver
    /// expands their outcomes back over every original fault, so outcomes
    /// and coverage are bit-identical to an uncollapsed run. The graph
    /// backend never collapses — it is the packed backend's oracle.
    #[must_use]
    pub fn fault_collapse(mut self, on: bool) -> Self {
        self.fault_collapse = on;
        self
    }

    /// Runs the campaign.
    ///
    /// # Errors
    ///
    /// [`EngineError::ArityMismatch`] (`what: "input"`) if a driven word's
    /// width differs from the machine's external input count, on either
    /// backend; on the packed backend, [`EngineError::InvalidConfig`] if
    /// the thread count exceeds [`scal_engine::MAX_THREADS`] and
    /// [`CompiledCircuit::try_compile`] errors (the graph oracle never
    /// compiles and runs on one thread).
    pub fn run(self) -> Result<SeqCampaign, EngineError> {
        let expected = self.machine.circuit.inputs().len().saturating_sub(1);
        if let Some(w) = self.words.iter().find(|w| w.len() != expected) {
            return Err(EngineError::ArityMismatch {
                what: "input",
                expected,
                got: w.len(),
            });
        }
        match self.backend {
            SeqBackend::Packed => {
                check_threads(self.threads)?;
                let started = Instant::now();
                let compiled = CompiledCircuit::try_compile(&self.machine.circuit)?;
                let plan = self.plan(started, Some(&compiled));
                let reps = representatives(&plan.overrides, plan.collapsed.as_ref()).len();
                match word_width_for(reps, WidePackedSeqSim::<1>::FAULT_LANES) {
                    1 => self.run_packed::<1>(&compiled, plan),
                    4 => self.run_packed::<4>(&compiled, plan),
                    _ => self.run_packed::<8>(&compiled, plan),
                }
            }
            SeqBackend::Graph => {
                let kernel = GraphKernel {
                    machine: self.machine,
                    words: self.words,
                    golden: Vec::new(),
                };
                self.run_kernel(self.plan(Instant::now(), None), kernel)
            }
        }
    }

    /// The machine's checkable faults, collapsed over `compiled` when it is
    /// given and collapsing is on.
    fn plan(&self, started: Instant, compiled: Option<&CompiledCircuit>) -> Plan {
        let faults = self.machine.checkable_faults();
        let overrides: Vec<Override> = faults.iter().map(|f| f.to_override()).collect();
        let collapsed = compiled
            .filter(|_| self.fault_collapse)
            .map(|c| collapse_overrides(c, &overrides));
        Plan {
            started,
            faults,
            overrides,
            collapsed,
        }
    }

    /// The packed fault-per-lane path at width `W`: the campaign driver runs
    /// a [`SeqKernel`] over the planned representatives.
    fn run_packed<const W: usize>(
        &self,
        compiled: &CompiledCircuit,
        plan: Plan,
    ) -> Result<SeqCampaign, EngineError> {
        // Mapping faults onto lanes is planning, not evaluation: every
        // batch's lane plan is built in the compile phase.
        let plans = representatives(&plan.overrides, plan.collapsed.as_ref())
            .chunks(WidePackedSeqSim::<W>::FAULT_LANES)
            .map(|batch| {
                let refs: Vec<&[Override]> = batch.iter().map(std::slice::from_ref).collect();
                WidePackedBatchPlan::<W>::build(compiled, &refs)
            })
            .collect();
        let kernel = SeqKernel {
            compiled,
            machine: self.machine,
            words: self.words,
            plans,
            periods: Vec::new(),
        };
        self.run_kernel(plan, kernel)
    }

    /// Runs `kernel` over `plan`'s faults (their representatives, when the
    /// plan collapsed them) under the campaign driver, expands its outcomes
    /// in fault order and pushes the coverage map. The packed backend runs
    /// on the requested threads, the graph oracle on one.
    fn run_kernel<K: Kernel<Verdict = SeqOutcome>>(
        &self,
        plan: Plan,
        kernel: K,
    ) -> Result<SeqCampaign, EngineError> {
        let (campaign, threads) = match self.backend {
            SeqBackend::Packed => ("seq", self.threads),
            SeqBackend::Graph => ("seq_scalar", 1),
        };
        let setup = Setup {
            campaign,
            inputs: self.machine.circuit.inputs().len(),
            outputs: self.machine.circuit.outputs().len(),
            threads,
            faults: &plan.overrides,
            collapsed: plan.collapsed,
            observer: self.observer.unwrap_or(&NullObserver),
            cancel: self.cancel,
            started: plan.started,
        };
        let driven = drive(setup, kernel)?;
        let collapse = driven.stats.collapse;
        let (outcomes, table) = driven.into_expanded();
        let faults = plan.faults;
        if let Some(cov) = self.coverage {
            let circuit = &self.machine.circuit;
            cov.push(table.coverage_map(|i, out| faults[i].describe_into(circuit, out)));
        }
        Ok(SeqCampaign {
            outcomes: faults.into_iter().zip(outcomes).collect(),
            cancelled: table.cancelled(),
            collapse,
        })
    }
}

/// A campaign's checkable faults, and their equivalence classes when it
/// collapsed them.
struct Plan {
    /// When the campaign, and its compile phase, started.
    started: Instant,
    faults: Vec<Fault>,
    overrides: Vec<Override>,
    collapsed: Option<CollapsedFaultList>,
}

/// The [`SeqBackend::Graph`] oracle's kernel: one fault per unit through the
/// original graph-walking [`AltSeqDriver`], classified by `classify_trace`
/// against the fault-free trace.
struct GraphKernel<'a> {
    machine: &'a ScalMachine,
    words: &'a [Vec<bool>],
    /// Both periods' outputs of every driven word, fault-free.
    golden: Vec<(Vec<bool>, Vec<bool>)>,
}

impl Kernel for GraphKernel<'_> {
    type Verdict = SeqOutcome;
    type Worker = ();

    fn unit_len(&self) -> usize {
        1
    }

    /// Replays the fault-free machine over the whole drive: two clocked
    /// periods per driven word.
    fn golden(&mut self) -> Result<(u64, ()), EngineError> {
        let mut drv = AltSeqDriver::new(self.machine);
        self.golden = self.words.iter().map(|w| drv.apply(w)).collect();
        Ok((2 * self.words.len() as u64, ()))
    }

    fn worker(&self) {}

    fn run(
        &self,
        (): &mut (),
        unit: Unit<'_>,
        _record: bool,
        _cancel: Option<&CancelToken>,
    ) -> Option<UnitResult<SeqOutcome>> {
        let t = Instant::now();
        let mut drv = AltSeqDriver::new(self.machine);
        drv.attach(unit.faults[0]);
        let outcome = classify_trace(self.machine, &self.golden, |w| drv.apply(w), self.words);
        let summary = summary(&outcome, self.words.len());
        Some(UnitResult {
            // Each driven word the classification consumed is two clocked
            // periods.
            words: 2 * summary.pairs,
            eval_time: t.elapsed(),
            verdicts: vec![outcome],
            summaries: vec![summary],
            unit_events: Vec::new(),
            fault_events: Vec::new(),
        })
    }
}

/// The packed sequential kernel: up to `63 × W` representatives per unit
/// ride the lanes of one wide word (lane 0 of every sub-word golden) and
/// the driven sequence is replayed once per unit, with lanes retiring as
/// they are classified.
struct SeqKernel<'a, const W: usize> {
    compiled: &'a CompiledCircuit,
    machine: &'a ScalMachine,
    words: &'a [Vec<bool>],
    /// One lane plan per unit.
    plans: Vec<WidePackedBatchPlan<W>>,
    /// Both alternating periods of every driven word, from the golden phase.
    periods: Vec<(Vec<bool>, Vec<bool>)>,
}

impl<const W: usize> Kernel for SeqKernel<'_, W> {
    type Verdict = SeqOutcome;
    type Worker = ();

    fn unit_len(&self) -> usize {
        WidePackedSeqSim::<W>::FAULT_LANES
    }

    fn header(&self, observer: &dyn CampaignObserver) {
        observer.on_event(&CampaignEvent::LaneGeometry {
            width: W,
            fault_lanes: WidePackedSeqSim::<W>::FAULT_LANES,
            pattern_lanes: 0,
            packing: "seq",
        });
    }

    /// The golden machine rides lane 0 of every unit, so nothing is
    /// simulated up front: each driven word `X` is expanded once into its
    /// two alternating periods `X‖0` and `X̄‖1`, shared by every unit.
    fn golden(&mut self) -> Result<(u64, ()), EngineError> {
        self.periods = self
            .words
            .iter()
            .map(|w| {
                let p1 = w.iter().copied().chain([false]).collect();
                let p2 = w.iter().map(|&b| !b).chain([true]).collect();
                (p1, p2)
            })
            .collect();
        Ok((0, ()))
    }

    fn worker(&self) {}

    fn run(
        &self,
        (): &mut (),
        unit: Unit<'_>,
        record: bool,
        _cancel: Option<&CancelToken>,
    ) -> Option<UnitResult<SeqOutcome>> {
        let t = Instant::now();
        let mon = self.machine.monitored();
        let code_pair = self.machine.code_pair;
        let mut sim = WidePackedSeqSim::from_plan(self.compiled, &self.plans[unit.index]);
        let mut outcomes = vec![SeqOutcome::Dormant; unit.faults.len()];
        // One activity mask per sub-word; a classified lane retires from
        // its sub-word's mask.
        let mut active: Vec<u64> = (0..W).map(|s| sim.sub_lane_mask(s)).collect();
        let mut words_run = 0u64;
        let mut o1 = vec![Word::<W>::ZERO; self.machine.circuit.outputs().len()];
        for (i, (p1, p2)) in self.periods.iter().enumerate() {
            sim.step(p1);
            for (k, slot) in o1.iter_mut().enumerate() {
                *slot = sim.output_wide(k);
            }
            sim.step(p2);
            words_run = i as u64 + 1;
            // A lane manifests at the first word where any monitored line
            // deviates from its sub-word's golden lane; the flag masks
            // mirror classify_trace lane-wise.
            let mut wrong = Word::<W>::ZERO;
            let mut nonalt = Word::<W>::ZERO;
            for k in mon.clone() {
                let (o1k, o2k) = (o1[k], sim.output_wide(k));
                wrong |= (o1k ^ o1k.golden_splat()) | (o2k ^ o2k.golden_splat());
                nonalt |= !(o1k ^ o2k);
            }
            let code_bad = code_pair.map_or(Word::ZERO, |(f, g)| {
                !(o1[f] ^ o1[g]) | !(sim.output_wide(f) ^ sim.output_wide(g))
            });
            let flagged = nonalt | code_bad;
            let mut live = false;
            for (s, act) in active.iter_mut().enumerate() {
                let newly = wrong.sub(s) & *act;
                if newly != 0 {
                    let fl = flagged.sub(s);
                    for l in 0..63 {
                        let bit = 1u64 << (l + 1);
                        if newly & bit != 0 {
                            outcomes[s * 63 + l] = if fl & bit != 0 {
                                SeqOutcome::Detected { word: i }
                            } else {
                                SeqOutcome::Violation { word: i }
                            };
                        }
                    }
                    *act &= !newly;
                }
                live |= *act != 0;
            }
            if !live {
                break;
            }
        }
        let summaries: Vec<FaultSummary> = outcomes
            .iter()
            .map(|o| summary(o, self.words.len()))
            .collect();
        let unit_events = if record {
            vec![CampaignEvent::LaneBatch {
                batch: unit.index,
                worker: unit.worker,
                lanes: outcomes.len(),
                words: words_run,
                retired: summaries.iter().filter(|s| s.observable).count(),
            }]
        } else {
            Vec::new()
        };
        Some(UnitResult {
            // Each unit replays `words_run` driven words of two clocked
            // periods each; the golden machine rides lane 0, so it costs no
            // extra pass over the schedule.
            words: words_run * 2,
            eval_time: t.elapsed(),
            verdicts: outcomes,
            summaries,
            unit_events,
            fault_events: Vec::new(),
        })
    }
}

/// The `FaultFinish` payload of one outcome over a `total`-word drive; its
/// `pairs` are the driven words the classification consumed (a trace stops
/// at the word that classified it).
fn summary(outcome: &SeqOutcome, total: usize) -> FaultSummary {
    let (pairs, first_detected) = match *outcome {
        SeqOutcome::Dormant => (total, None),
        SeqOutcome::Detected { word } => (word + 1, u32::try_from(word).ok()),
        SeqOutcome::Violation { word } => (word + 1, None),
    };
    FaultSummary {
        detected: usize::from(matches!(outcome, SeqOutcome::Detected { .. })),
        violations: usize::from(matches!(outcome, SeqOutcome::Violation { .. })),
        observable: !matches!(outcome, SeqOutcome::Dormant),
        dropped_at: None,
        pairs: pairs as u64,
        first_detected,
        ..FaultSummary::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::up_down_counter;
    use crate::kohavi::kohavi_0101;
    use crate::{code_conversion_machine, dual_ff_machine};
    use scal_obs::CollectObserver;

    fn bit_words(seq: &[u32]) -> Vec<Vec<bool>> {
        seq.iter().map(|&s| vec![s == 1]).collect()
    }

    /// Runs `campaign` on the packed backend at width `W` instead of the
    /// one its workload picks.
    fn run_at<const W: usize>(campaign: Campaign<'_>) -> SeqCampaign {
        let compiled = CompiledCircuit::compile(&campaign.machine.circuit);
        let plan = campaign.plan(Instant::now(), Some(&compiled));
        campaign.run_packed::<W>(&compiled, plan).unwrap()
    }

    #[test]
    fn kohavi_designs_are_sequentially_fault_secure() {
        let m = kohavi_0101();
        let words = bit_words(&[0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 0, 1]);
        for machine in [dual_ff_machine(&m), code_conversion_machine(&m)] {
            let campaign = Campaign::new(&machine, &words).run().unwrap();
            assert!(campaign.fault_secure(), "{}", machine.design);
            let (dormant, detected, violations) = campaign.tally();
            assert_eq!(violations, 0);
            assert!(detected > 0);
            // A short drive leaves some faults unexercised — that is the
            // static-test gap `scal_analysis::generate_tests` fills.
            let _ = dormant;
        }
    }

    #[test]
    fn counter_campaign_is_fault_secure() {
        use crate::counters::CounterCmd::{Down, Hold, Up};
        let m = up_down_counter(4);
        let words: Vec<Vec<bool>> = [Up, Up, Down, Hold, Up, Up, Up, Down]
            .iter()
            .map(|c| {
                let s = c.symbol();
                vec![s & 1 == 1, s & 2 != 0]
            })
            .collect();
        for machine in [dual_ff_machine(&m), code_conversion_machine(&m)] {
            let campaign = Campaign::new(&machine, &words).run().unwrap();
            assert!(campaign.fault_secure(), "{}", machine.design);
        }
    }

    #[test]
    fn packed_matches_graph_oracle() {
        let m = kohavi_0101();
        let words = bit_words(&[0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0]);
        for machine in [dual_ff_machine(&m), code_conversion_machine(&m)] {
            let packed = Campaign::new(&machine, &words).run().unwrap();
            let graph = Campaign::new(&machine, &words).scalar().run().unwrap();
            assert_eq!(packed, graph, "{}", machine.design);
        }
    }

    /// The packed backend rejects a thread count above `MAX_THREADS`; the
    /// graph oracle runs on one thread whatever is asked.
    #[test]
    fn more_than_max_threads_is_rejected_on_the_packed_backend() {
        let machine = dual_ff_machine(&kohavi_0101());
        let words = bit_words(&[0, 1, 1, 0]);
        let threads = scal_engine::MAX_THREADS + 1;
        match Campaign::new(&machine, &words).threads(threads).run() {
            Err(EngineError::InvalidConfig { reason }) => assert!(reason.contains("threads")),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        let graph = Campaign::new(&machine, &words).scalar().threads(threads);
        assert!(graph.run().is_ok());
    }

    #[test]
    fn backend_names_round_trip_and_reject_scalar() {
        for backend in [SeqBackend::Packed, SeqBackend::Graph] {
            assert_eq!(backend.name().parse::<SeqBackend>().unwrap(), backend);
        }
        match "scalar".parse::<SeqBackend>() {
            Err(EngineError::InvalidConfig { reason }) => {
                assert!(
                    reason.contains("packed") && reason.contains("graph"),
                    "{reason}"
                );
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn longer_drives_detect_more_faults() {
        let m = kohavi_0101();
        let machine = code_conversion_machine(&m);
        let short = Campaign::new(&machine, &bit_words(&[0, 1])).run().unwrap();
        let long_words = bit_words(&[0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0, 1]);
        let long = Campaign::new(&machine, &long_words).run().unwrap();
        assert!(long.tally().1 >= short.tally().1);
        assert!(long.tally().0 <= short.tally().0);
    }

    #[test]
    fn coverage_maps_record_first_detecting_word() {
        let m = kohavi_0101();
        let words = bit_words(&[0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0]);
        let machine = dual_ff_machine(&m);
        let cov = scal_obs::CoverageObserver::new();
        let campaign = Campaign::new(&machine, &words)
            .scalar()
            .coverage(&cov)
            .run()
            .unwrap();
        let map = cov.latest().expect("coverage map");
        assert_eq!(map.records.len(), campaign.outcomes.len());
        for (record, (fault, outcome)) in map.records.iter().zip(&campaign.outcomes) {
            assert_eq!(record.label, fault.describe(&machine.circuit));
            match outcome {
                SeqOutcome::Detected { word } => {
                    assert_eq!(record.first_detected, u32::try_from(*word).ok());
                }
                _ => assert_eq!(record.first_detected, None),
            }
        }
        // The packed backend yields the identical verdicts modulo its class
        // membership annotations.
        let cov2 = scal_obs::CoverageObserver::new();
        let _ = Campaign::new(&machine, &words)
            .coverage(&cov2)
            .run()
            .unwrap();
        let map2 = cov2.latest().expect("coverage map");
        let stripped2: Vec<_> = map2
            .records
            .iter()
            .map(scal_obs::FaultRecord::without_annotations)
            .collect();
        assert_eq!(stripped2, map.records);
    }

    #[test]
    fn collapsed_packed_matches_uncollapsed() {
        let m = kohavi_0101();
        let words = bit_words(&[0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0]);
        for machine in [dual_ff_machine(&m), code_conversion_machine(&m)] {
            let collect = CollectObserver::default();
            let collapsed = Campaign::new(&machine, &words)
                .threads(1)
                .observer(&collect)
                .run()
                .unwrap();
            let plain = Campaign::new(&machine, &words)
                .fault_collapse(false)
                .run()
                .unwrap();
            assert_eq!(collapsed, plain, "{}", machine.design);
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
                .expect("collapsed run must announce its classes");
            assert_eq!(faults, collapsed.outcomes.len());
            assert!(reps < faults, "sequential machines must collapse");
            // Every original fault still finishes, and class members cite
            // their representative.
            let finishes = events
                .iter()
                .filter(|e| matches!(e, CampaignEvent::FaultFinish { .. }))
                .count();
            assert_eq!(finishes, faults);
            assert_eq!(
                events
                    .iter()
                    .filter(|e| matches!(e, CampaignEvent::FaultClass { .. }))
                    .count(),
                faults - reps
            );
        }
    }

    #[test]
    fn packed_emits_lane_batches_and_no_eval_mode() {
        let m = kohavi_0101();
        let words = bit_words(&[0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0]);
        let machine = code_conversion_machine(&m);
        let faults = machine.checkable_faults().len();
        assert!(faults > 2 * 63, "want ≥3 batches, got {faults} faults");
        let collect = CollectObserver::default();
        // Collapsing is pinned off: the lane-count assertions below speak in
        // original faults, which under collapsing no longer fill the lanes
        // one-to-one. Width 1 makes 63-fault batches.
        let campaign = run_at::<1>(
            Campaign::new(&machine, &words)
                .threads(1)
                .fault_collapse(false)
                .observer(&collect),
        );
        let events = collect.events();
        assert!(!events
            .iter()
            .any(|e| matches!(e, CampaignEvent::EvalMode { .. })));
        assert!(matches!(
            events.get(1),
            Some(CampaignEvent::LaneGeometry {
                width: 1,
                fault_lanes: 63,
                pattern_lanes: 0,
                packing: "seq",
            })
        ));
        let batches: Vec<(usize, usize, u64, usize)> = events
            .iter()
            .filter_map(|e| match e {
                CampaignEvent::LaneBatch {
                    batch,
                    lanes,
                    words,
                    retired,
                    ..
                } => Some((*batch, *lanes, *words, *retired)),
                _ => None,
            })
            .collect();
        assert_eq!(batches.len(), faults.div_ceil(63));
        assert_eq!(
            batches.iter().map(|b| b.0).collect::<Vec<_>>(),
            (0..batches.len()).collect::<Vec<_>>()
        );
        assert_eq!(batches.iter().map(|b| b.1).sum::<usize>(), faults);
        let observable = campaign
            .outcomes
            .iter()
            .filter(|(_, o)| !matches!(o, SeqOutcome::Dormant))
            .count();
        assert_eq!(batches.iter().map(|b| b.3).sum::<usize>(), observable);
        for (_, lanes, batch_words, retired) in &batches {
            assert!(*batch_words <= words.len() as u64);
            assert!(retired <= lanes);
        }
    }

    /// Every width matches the graph oracle, whichever the workload would
    /// pick, collapsed or not and on 1, 2 or 4 threads: the machines' 56
    /// and 99 representatives (100 and 168 faults uncollapsed) leave the
    /// last batch part-filled at every width, and at W = 1 all but the
    /// collapsed dual-flip-flop machine's merge several batches.
    #[test]
    fn wide_packed_widths_match_scalar() {
        let m = kohavi_0101();
        let words = bit_words(&[0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0]);
        for (machine, reps, faults) in [
            (dual_ff_machine(&m), 56, 100),
            (code_conversion_machine(&m), 99, 168),
        ] {
            let oracle = Campaign::new(&machine, &words).scalar().run().unwrap();
            for collapse in [false, true] {
                for threads in [1, 2, 4] {
                    let config =
                        format!("{}, collapse {collapse}, {threads} threads", machine.design);
                    let collect = CollectObserver::default();
                    let campaign = || {
                        Campaign::new(&machine, &words)
                            .threads(threads)
                            .fault_collapse(collapse)
                    };
                    for (width, run) in [
                        (1, run_at::<1>(campaign().observer(&collect))),
                        (4, run_at::<4>(campaign())),
                        (8, run_at::<8>(campaign())),
                    ] {
                        assert_eq!(run, oracle, "{config} at W={width}");
                    }
                    let batches = collect
                        .events()
                        .iter()
                        .filter(|e| matches!(e, CampaignEvent::LaneBatch { .. }))
                        .count();
                    let simulated: usize = if collapse { reps } else { faults };
                    assert_eq!(batches, simulated.div_ceil(63), "{config}");
                }
            }
        }
    }

    #[test]
    fn wide_packed_merges_batches_and_emits_geometry() {
        let m = kohavi_0101();
        let words = bit_words(&[0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0]);
        let machine = code_conversion_machine(&m);
        let faults = machine.checkable_faults().len();
        assert!(faults > 63, "want faults spanning sub-words, got {faults}");
        let collect = CollectObserver::default();
        // Pinned uncollapsed for the same reason as
        // packed_emits_lane_batches_and_no_eval_mode: lanes are counted in
        // original faults. Its 168 faults fit one W = 4 word of 252 lanes.
        let campaign = Campaign::new(&machine, &words)
            .threads(1)
            .fault_collapse(false)
            .observer(&collect)
            .run()
            .unwrap();
        let events = collect.events();
        assert!(matches!(
            events.get(1),
            Some(CampaignEvent::LaneGeometry {
                width: 4,
                fault_lanes: 252,
                pattern_lanes: 0,
                packing: "seq",
            })
        ));
        let batches: Vec<(usize, usize)> = events
            .iter()
            .filter_map(|e| match e {
                CampaignEvent::LaneBatch { lanes, retired, .. } => Some((*lanes, *retired)),
                _ => None,
            })
            .collect();
        assert_eq!(batches.len(), faults.div_ceil(252));
        assert_eq!(batches.iter().map(|b| b.0).sum::<usize>(), faults);
        let observable = campaign
            .outcomes
            .iter()
            .filter(|(_, o)| !matches!(o, SeqOutcome::Dormant))
            .count();
        assert_eq!(batches.iter().map(|b| b.1).sum::<usize>(), observable);
        let finishes = events
            .iter()
            .filter(|e| matches!(e, CampaignEvent::FaultFinish { .. }))
            .count();
        assert_eq!(finishes, faults);
    }

    #[test]
    fn observer_and_cancel_work_on_seq_campaigns() {
        let m = kohavi_0101();
        let words = bit_words(&[0, 1, 0, 1, 1, 0]);
        let machine = dual_ff_machine(&m);
        let collect = CollectObserver::default();
        let campaign = Campaign::new(&machine, &words)
            .threads(1)
            .observer(&collect)
            .run()
            .unwrap();
        assert!(!campaign.cancelled);
        let events = collect.events();
        assert!(matches!(
            events.first(),
            Some(CampaignEvent::CampaignStart {
                campaign: "seq",
                ..
            })
        ));
        let finishes = events
            .iter()
            .filter(|e| matches!(e, CampaignEvent::FaultFinish { .. }))
            .count();
        assert_eq!(finishes, campaign.outcomes.len());

        let token = CancelToken::new();
        token.cancel();
        let cancelled = Campaign::new(&machine, &words)
            .cancel(&token)
            .run()
            .unwrap();
        assert!(cancelled.cancelled);
        assert!(cancelled.outcomes.is_empty());
    }

    #[test]
    fn wrong_width_words_are_a_typed_error_on_both_backends() {
        let m = kohavi_0101();
        let machine = dual_ff_machine(&m);
        // The Kohavi machine has one external input; the second word is two
        // wide.
        let words = vec![vec![true], vec![true, false]];
        for backend in [SeqBackend::Packed, SeqBackend::Graph] {
            match Campaign::new(&machine, &words).backend(backend).run() {
                Err(EngineError::ArityMismatch {
                    what: "input",
                    expected: 1,
                    got: 2,
                }) => {}
                other => panic!("{backend}: expected ArityMismatch, got {other:?}"),
            }
        }
    }
}
