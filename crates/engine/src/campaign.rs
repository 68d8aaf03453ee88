//! The packed alternating-pair fault campaign.
//!
//! One evaluation sweep carries 64 alternating pairs: period-1 words encode
//! 64 canonical minterms, the period-2 words are their bitwise complements,
//! and pair classification is computed with word-wide XOR/AND masks —
//! per-output `nonalt = !(f1 ^ f2)` marks non-alternating lanes,
//! `(f1 ^ f2) & (f1 ^ g1)` marks wrong-but-alternating lanes, and the
//! multiple-output code of the paper's Definition 3.3 (one non-alternating
//! output detects the word even if another alternates incorrectly) falls out
//! of OR-ing those masks across outputs before extracting lanes.
//!
//! # Wide words and 2-D packing
//!
//! The sweep is generic over the word width `W` ([`crate::Word`]): one
//! evaluation word carries `W` 64-lane sub-words, so a pattern-major sweep
//! evaluates up to `64 × W` pairs per pass over the schedule. Classification
//! still happens per 64-pair sub-batch in scalar batch order, so reports,
//! buffered events and work counters are bit-identical at every width —
//! width only changes throughput. The campaign picks `W` from its workload
//! ([`crate::word_width_for`]): the narrowest width whose one word holds
//! every 64-pair batch (or, fault-packed, every pattern).
//!
//! [`EngineConfig::fault_packing`] turns the sweep two-dimensional: up to 63
//! faults are broadcast into the bit lanes of every sub-word (lane 0 stays
//! golden) while each sub-word carries a distinct input pattern, so one
//! sweep evaluates `63 faults × W patterns` simultaneously. Detection then
//! compares against the in-word golden lane; per-fault accounting — pairs,
//! drop truncation, report contents — stays bit-identical to the unpacked
//! path, and retired (dropped) lanes stop counting even though the datapath
//! keeps carrying them until their whole chunk retires.
//!
//! # Driver
//!
//! The campaign compiles, collapses, chooses its lane geometry and width,
//! and runs as a [`Kernel`] under the campaign driver ([`crate::drive`]),
//! which owns the event protocol, the worker fan-out, the fault-ordered
//! merge and cancellation. A [`CancelToken`] is also checked here at every
//! wide group (pattern-major) or pattern (fault-packed) boundary.

use crate::collapse::{collapse_overrides, representatives, CollapseCounts};
use crate::compile::{CompileSpans, CompiledCircuit, ConeBuilder, FaultCone, LanePlan, CONE_SEED};
use crate::driver::{
    check_threads, drive, duration_micros, FaultSummary, Kernel, Setup, Unit, UnitResult,
    VerdictTable,
};
use crate::error::EngineError;
use crate::eval::WideEvaluator;
use crate::pairs::PairSet;
use crate::word::{exhaustive_word, lane_mask, pair_word_width, Word};
use scal_netlist::{Circuit, Override, Site};
use scal_obs::{CampaignEvent, CampaignObserver, CancelToken};
use std::time::{Duration, Instant};

/// Hard ceiling on explicitly requested worker threads — far above any
/// sensible fan-out; requests beyond it are configuration mistakes.
pub const MAX_THREADS: usize = 1024;

/// Budget for the golden slot cache in cone mode: 256 MiB. A campaign whose
/// cache would not fit runs as [`EvalMode::Full`] instead.
const GOLDEN_CACHE_BYTES: usize = 256 << 20;

/// Share `NUM / DEN` of the schedule past which a fault's cone sweep gives
/// way to the full one: once a cone group evaluates `e1 + e2 > NUM / DEN ×
/// 2 × num_ops` ops, the fault's remaining groups run the whole schedule,
/// whose ops skip the cone's golden seeding, dirtiness check and liveness
/// count. On the 100k-gate `scal_run gen --kind selfdual --gates 100000
/// --seed 42` design (`run --threads 1 --max-faults 256`, `W = 8`, 8
/// groups; 2-vCPU AVX-512 VM, five alternating runs each) eval medians read
/// 26.4 s at 1/4, 28.3 s at 3/8 and 18.8 s at 1/2, against 20.3 s all-cone
/// and 29.3 s all-full.
const FULL_SWITCH_SHARE: (u64, u64) = (1, 2);

/// Whether a cone group's `evaluated` ops (both periods) ran past
/// [`FULL_SWITCH_SHARE`] of a `num_ops`-op schedule.
fn cone_too_wide(evaluated: u64, num_ops: usize) -> bool {
    let (num, den) = FULL_SWITCH_SHARE;
    evaluated * den > num * 2 * num_ops as u64
}

/// How a campaign evaluated its faulty sweeps, as the engine chose it and
/// reported it in the [`CampaignEvent::EvalMode`] event; no input selects
/// it. Every choice yields bit-identical reports, coverage maps (but for
/// the cone annotations) and fault-ordered trace prefixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvalMode {
    /// Re-evaluate the whole levelized schedule for every fault and batch.
    Full,
    /// Evaluate only each fault's transitive fanout cone, seeded from cached
    /// golden slot values, with a frontier-death early exit when the faulty
    /// values converge back to golden mid-schedule.
    #[default]
    Cone,
}

impl EvalMode {
    /// Stable lowercase name, as emitted in traces and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EvalMode::Full => "full",
            EvalMode::Cone => "cone",
        }
    }
}

impl std::fmt::Display for EvalMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for EvalMode {
    type Err = EngineError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "full" => Ok(EvalMode::Full),
            "cone" => Ok(EvalMode::Cone),
            other => Err(EngineError::InvalidConfig {
                reason: format!("eval mode must be \"full\" or \"cone\", got {other:?}"),
            }),
        }
    }
}

/// A three-state switch for features the engine can decide on its own.
///
/// `Auto` lets the campaign pick (packing: the lane-geometry heuristic;
/// collapsing: on); `On` / `Off` force the choice. `From<bool>` maps the
/// forcing states so the builders keep their plain-`bool` signatures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Toggle {
    /// Let the engine decide.
    #[default]
    Auto,
    /// Force the feature on.
    On,
    /// Force the feature off.
    Off,
}

impl From<bool> for Toggle {
    fn from(on: bool) -> Self {
        if on {
            Toggle::On
        } else {
            Toggle::Off
        }
    }
}

/// Knobs for [`try_run_pair_campaign`].
///
/// Construct directly: the fields are public and `Default` is valid. A
/// campaign rejects `threads` above [`MAX_THREADS`] with
/// [`EngineError::InvalidConfig`].
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Worker-thread count; `0` = auto (machine parallelism, clamped to the
    /// workload).
    pub threads: usize,
    /// When `true`, a fault's sweep stops at the end of the first 64-pair
    /// batch in which it was detected (classic fault dropping). The report
    /// still answers *tested?* correctly and `detected_pairs` /
    /// `violation_pairs` are exact up to that batch, but later pairs are
    /// never simulated, so the full accounting (and `observable` for
    /// faults only visible later) may be truncated. The default `false`
    /// keeps exact parity with the scalar reference implementation.
    pub drop_after_detection: bool,
    /// Whether up to 63 faults are packed into the bit lanes of every
    /// pattern sub-word (lane 0 golden), evaluating `63 × W` fault-pattern
    /// cells per sweep instead of one fault across `64 × W` patterns.
    /// Implies full-schedule evaluation (cone restriction does not apply);
    /// reports and per-fault accounting stay bit-identical to the unpacked
    /// path. Pays off on small-pattern circuits where the per-fault sweep
    /// is too short to fill the machine. [`Toggle::Auto`] (the default)
    /// packs exactly when the packed sweep count beats the pattern-major
    /// sweep count: `⌈F/63⌉ · P < F · ⌈P/64⌉` over `F` *simulated*
    /// (post-collapse) faults and `P` canonical pairs.
    pub fault_packing: Toggle,
    /// Whether structurally equivalent faults are collapsed at compile time
    /// so only one representative per equivalence class is simulated (see
    /// [`crate::collapse_overrides`]). Verdicts are expanded back over every
    /// class at merge time, so reports, coverage maps and per-fault trace
    /// events are bit-identical to an uncollapsed run — collapsing only
    /// changes how much work the fault-sim phase does. [`Toggle::Auto`]
    /// (the default) means *on*.
    pub fault_collapse: Toggle,
}

/// Per-fault result of [`try_run_pair_campaign`], in the engine's vocabulary
/// (pair minterms only — `scal-faults` zips these back with its `Fault`
/// bookkeeping).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairReport {
    /// Canonical first-period minterms `X` (with `X < X̄` numerically) at
    /// which the fault produced a detectable non-code word.
    pub detected_pairs: PairSet,
    /// Canonical minterms at which the fault produced an undetected wrong
    /// code word.
    pub violation_pairs: PairSet,
    /// `true` iff the fault changed some output at some simulated pair.
    pub observable: bool,
    /// `true` iff fault dropping cut this fault's sweep short.
    pub dropped: bool,
}

/// Aggregate counters and per-phase wall times for one campaign run.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Faults whose reports were returned (equals the requested fault count
    /// unless the run was cancelled).
    pub faults: usize,
    /// Faults whose sweep was cut short by
    /// [`EngineConfig::drop_after_detection`].
    pub faults_dropped: usize,
    /// Alternating pairs evaluated across all returned faults (golden
    /// excluded). Dropped faults contribute every pair of every batch they
    /// actually swept, including the batch that triggered the drop, so this
    /// counter and [`EngineStats::words_evaluated`] stay consistent. Under
    /// fault packing each (fault, pair) cell still counts exactly once — a
    /// retired lane stops counting at the end of its detecting batch even
    /// though the datapath keeps carrying it — so the counter is identical
    /// to the unpacked run's at every width.
    pub pairs_evaluated: u64,
    /// 64-lane sub-word sweeps executed, golden included (each counts one
    /// 64-pattern sub-word pushed through the whole schedule; a wide sweep
    /// contributes one per *real*, non-padding sub-word). On the
    /// pattern-major path this is width-invariant; under fault packing the
    /// same pattern sub-word serves 63 fault lanes at once, which is
    /// exactly the work reduction the mode exists for.
    pub words_evaluated: u64,
    /// Wall time spent compiling the circuit.
    pub compile_time: Duration,
    /// Wall time spent on the fault-free sweep and alternation check.
    pub golden_time: Duration,
    /// Wall time spent simulating faults (all workers, wall clock).
    pub fault_sim_time: Duration,
    /// Time spent *inside* per-fault evaluation sweeps, summed across
    /// workers — the eval-phase denominator for throughput. Unlike
    /// [`EngineStats::fault_sim_time`] it excludes worker spawn/join and
    /// observer overhead, and on a multi-threaded run it sums worker time,
    /// so throughput derived from it compares backends per-core,
    /// apples-to-apples.
    pub eval_time: Duration,
    /// The collapsed fault list's size, when the campaign collapsed it
    /// (`None` with collapsing off, or on a backend that never collapses).
    pub collapse: Option<CollapseCounts>,
}

impl EngineStats {
    /// Test patterns per second of fault evaluation (each pair is two
    /// patterns), measured over [`EngineStats::eval_time`] — the profiler's
    /// eval-phase time, not wall time that would fold in compile, golden and
    /// merge overhead. Falls back to [`EngineStats::fault_sim_time`] when no
    /// eval time was recorded. Returns `0.0` — never `NaN` or `inf` — when
    /// no time was measured or no pairs were evaluated.
    #[must_use]
    pub fn patterns_per_sec(&self) -> f64 {
        let secs = if self.eval_time > Duration::ZERO {
            self.eval_time.as_secs_f64()
        } else {
            self.fault_sim_time.as_secs_f64()
        };
        let patterns = (self.pairs_evaluated * 2) as f64;
        if secs > 0.0 && patterns > 0.0 {
            patterns / secs
        } else {
            0.0
        }
    }

    /// One-line human-readable summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} faults ({} dropped), {} pairs, {} words | compile {:?}, golden {:?}, sim {:?}, eval {:?} | {:.3e} patterns/s",
            self.faults,
            self.faults_dropped,
            self.pairs_evaluated,
            self.words_evaluated,
            self.compile_time,
            self.golden_time,
            self.fault_sim_time,
            self.eval_time,
            self.patterns_per_sec(),
        )
    }
}

/// Result of [`try_run_pair_campaign`]: fault-ordered reports plus run
/// statistics and the verdict table.
#[derive(Debug, Clone)]
pub struct PairCampaign {
    /// Per-fault reports; a contiguous prefix of the requested fault list
    /// when the table reports [`VerdictTable::cancelled`], otherwise one per
    /// fault.
    pub reports: Vec<PairReport>,
    /// Aggregate counters and wall times over the returned reports.
    pub stats: EngineStats,
    /// The per-fault summaries the run's coverage map is gathered from.
    /// `table.cancelled()` is `true` iff a [`CancelToken`] stopped the run
    /// before every fault completed; the reports are then the longest
    /// contiguous fault-ordered prefix, bit-identical to the same prefix of
    /// an uncancelled run.
    pub table: VerdictTable,
}

/// The precomputed pair sweep: wide input words for every *group* of `W`
/// consecutive 64-pair batches plus the scalar golden (fault-free) output
/// words.
///
/// Batches keep their scalar identity — group `g` carries batches
/// `g·W .. min((g+1)·W, B)`, batch `b` in sub-word `b % W` — so
/// classification, events and accounting stay per 64-pair batch and
/// bit-identical at every width. Padding sub-words of the last group hold
/// all-zero inputs and a zero lane mask.
struct Sweep<const W: usize> {
    n_inputs: usize,
    n_outputs: usize,
    /// Valid-lane masks per batch (scalar, one per batch); batch `b` is
    /// minterms `64b..64b+63`.
    masks: Vec<u64>,
    /// Period-1 input words, `[group][input]` flattened; batch `b` occupies
    /// sub-word `b % W` of group `b / W`.
    words1: Vec<Word<W>>,
    /// Period-2 input words (`!words1` on real sub-words), same layout.
    words2: Vec<Word<W>>,
    /// Golden output words, `[batch][period][output]` flattened (scalar).
    golden: Vec<u64>,
    /// Slot count of the compiled circuit (slot-cache row width).
    num_slots: usize,
    /// Every golden slot word, `[group][period][slot]` flattened — the seed
    /// store for cone-restricted evaluation. Empty in full mode.
    slot_cache: Vec<Word<W>>,
}

/// Wide sweep groups of an `n`-input pair campaign at width `W`: one per
/// `W` consecutive 64-pair batches.
fn sweep_groups<const W: usize>(n: usize) -> usize {
    (1usize << (n - 1)).div_ceil(64).div_ceil(W)
}

/// Whether a cone-mode golden slot cache fits `budget` bytes: one `Word<W>`
/// (`8 × width` bytes) per slot, per period, per group.
fn slot_cache_fits(groups: usize, num_slots: usize, width: usize, budget: usize) -> bool {
    groups * 2 * num_slots * 8 * width <= budget
}

impl<const W: usize> Sweep<W> {
    /// Builds the pair sweep and evaluates its golden responses, caching
    /// every golden slot word when `cache` is set (cone mode).
    fn try_build(
        compiled: &CompiledCircuit,
        ev: &mut WideEvaluator<W>,
        cache: bool,
    ) -> Result<(Self, u64), EngineError> {
        let n = compiled.num_inputs();
        let n_out = compiled.num_outputs();
        let total_pairs = 1usize << (n - 1);
        let batches = total_pairs.div_ceil(64);
        let groups = sweep_groups::<W>(n);
        let mut sweep = Sweep {
            n_inputs: n,
            n_outputs: n_out,
            masks: Vec::with_capacity(batches),
            words1: vec![Word::ZERO; groups * n],
            words2: vec![Word::ZERO; groups * n],
            golden: Vec::with_capacity(batches * n_out * 2),
            num_slots: compiled.num_slots,
            slot_cache: Vec::with_capacity(if cache {
                groups * 2 * compiled.num_slots
            } else {
                0
            }),
        };
        for b in 0..batches {
            let base = b * 64;
            let mask = lane_mask((total_pairs - base).min(64));
            sweep.masks.push(mask);
            let (g, s) = (b / W, b % W);
            for i in 0..n {
                let w = exhaustive_word(base, i, mask);
                sweep.words1[g * n + i].set_sub(s, w);
                sweep.words2[g * n + i].set_sub(s, !w);
            }
        }
        // Golden responses and the alternation sanity check, W batches per
        // sweep. `words` counts real 64-lane sub-word sweeps (2 per batch),
        // so the counter matches the scalar path at every width.
        let mut words = 0u64;
        let mut out1 = vec![Word::<W>::ZERO; n_out];
        let mut out2 = vec![Word::<W>::ZERO; n_out];
        for g in 0..sweep.groups() {
            let real = sweep.group_real(g);
            ev.try_eval_w(compiled, sweep.group_words1(g), &[])?;
            words += real as u64;
            if cache {
                sweep.slot_cache.extend_from_slice(ev.slots_w());
            }
            for (k, o) in out1.iter_mut().enumerate() {
                *o = ev.output_w(compiled, k);
            }
            ev.try_eval_w(compiled, sweep.group_words2(g), &[])?;
            words += real as u64;
            if cache {
                sweep.slot_cache.extend_from_slice(ev.slots_w());
            }
            for (k, o) in out2.iter_mut().enumerate() {
                *o = ev.output_w(compiled, k);
            }
            for s in 0..real {
                let b = g * W + s;
                let mask = sweep.masks[b];
                for o in out1.iter().take(n_out) {
                    sweep.golden.push(o.sub(s));
                }
                for o in out2.iter().take(n_out) {
                    sweep.golden.push(o.sub(s));
                }
                for k in 0..n_out {
                    let g1 = out1[k].sub(s);
                    let g2 = out2[k].sub(s);
                    let stuck = !(g1 ^ g2) & mask;
                    if stuck != 0 {
                        return Err(EngineError::NotAlternating {
                            output: k,
                            pair: b as u32 * 64 + stuck.trailing_zeros(),
                        });
                    }
                }
            }
        }
        Ok((sweep, words))
    }

    fn groups(&self) -> usize {
        self.masks.len().div_ceil(W)
    }

    /// Real (non-padding) batches in group `g`.
    fn group_real(&self, g: usize) -> usize {
        (self.masks.len() - g * W).min(W)
    }

    fn group_words1(&self, g: usize) -> &[Word<W>] {
        &self.words1[g * self.n_inputs..(g + 1) * self.n_inputs]
    }

    fn group_words2(&self, g: usize) -> &[Word<W>] {
        &self.words2[g * self.n_inputs..(g + 1) * self.n_inputs]
    }

    fn batch_golden(&self, b: usize, period: usize, k: usize) -> u64 {
        self.golden[b * self.n_outputs * 2 + period * self.n_outputs + k]
    }

    /// Golden output `k` of every batch in group `g` as one wide word
    /// (padding sub-words zero).
    fn golden_wide(&self, g: usize, period: usize, k: usize) -> Word<W> {
        let real = self.group_real(g);
        Word::from_fn(|s| {
            if s < real {
                self.batch_golden(g * W + s, period, k)
            } else {
                0
            }
        })
    }

    /// Valid-lane masks of every batch in group `g` as one wide word
    /// (padding sub-words zero).
    fn group_mask(&self, g: usize) -> Word<W> {
        let real = self.group_real(g);
        Word::from_fn(|s| if s < real { self.masks[g * W + s] } else { 0 })
    }

    /// Cached golden slot words for one group period.
    fn group_slots(&self, g: usize, period: usize) -> &[Word<W>] {
        let start = (g * 2 + period) * self.num_slots;
        &self.slot_cache[start..start + self.num_slots]
    }
}

/// Everything one worker thread owns across faults: the evaluator, wide
/// output buffers, the fault's detected / violation masks (one per swept
/// 64-pair batch, trimmed into the report's [`PairSet`]s once the sweep
/// ends) and, in cone mode only, the cone scratch. A fault's sweep
/// therefore allocates only its [`UnitResult`] (and its events, when
/// recording).
struct WorkerState<const W: usize> {
    ev: WideEvaluator<W>,
    out1: Vec<Word<W>>,
    out2: Vec<Word<W>>,
    detected: Vec<u64>,
    violations: Vec<u64>,
    cone: Option<ConeScratch>,
}

impl<const W: usize> WorkerState<W> {
    fn new(ev: WideEvaluator<W>, compiled: &CompiledCircuit, mode: EvalMode) -> Self {
        WorkerState {
            ev,
            out1: vec![Word::ZERO; compiled.num_outputs()],
            out2: vec![Word::ZERO; compiled.num_outputs()],
            detected: Vec::new(),
            violations: Vec::new(),
            cone: (mode == EvalMode::Cone).then(|| ConeScratch {
                builder: ConeBuilder::new(compiled),
                site: None,
                expire: vec![0; compiled.num_ops()],
            }),
        }
    }
}

/// A worker's cone-mode scratch: the cone builder (holding the last cone
/// built), the fault site that cone belongs to, and the liveness-expiry
/// scratch for [`WideEvaluator::eval_cone_w`], sized for the whole schedule
/// (every cone is a subset) and kept all-zero between calls.
struct ConeScratch {
    builder: ConeBuilder,
    site: Option<Site>,
    expire: Vec<u64>,
}

impl ConeScratch {
    /// The cone of `fault`'s site plus the expiry scratch. A cone depends
    /// only on the site, so a fault on the same site as the worker's
    /// previous one reuses its cone instead of rebuilding it.
    fn cone_of(
        &mut self,
        compiled: &CompiledCircuit,
        fault: &Override,
    ) -> (&FaultCone, &mut [u64]) {
        if self.site != Some(fault.site) {
            self.builder.build(compiled, std::slice::from_ref(fault));
            self.site = Some(fault.site);
        }
        (self.builder.cone(), &mut self.expire)
    }
}

/// Tracks the minimum schedule level at which a cone frontier died across a
/// fault's batches (for the `ConeStats` event).
fn note_death(
    died_min: &mut Option<u32>,
    compiled: &CompiledCircuit,
    cone: &FaultCone,
    evaluated: u32,
) {
    if let Some(&op) = cone.ops.get(evaluated as usize) {
        let lvl = compiled.op_levels[op as usize];
        *died_min = Some(died_min.map_or(lvl, |d| d.min(lvl)));
    }
}

/// Simulates one fault against the whole pair sweep, `W` batches per pass.
/// Classification stays per 64-pair sub-batch in scalar batch order, so the
/// report, buffered events and counters are bit-identical at every width.
/// With a cone scratch, groups run cone-restricted until one proves the cone
/// too wide ([`cone_too_wide`]), then over the full schedule. Each classified
/// sub-batch adds its group's evaluated ops to `ops_evaluated`, so
/// `ops_evaluated + ops_skipped == num_ops × words`.
/// Returns `None` if the token cancelled the sweep at a group boundary (the
/// fault's partial work is discarded); the evaluator is left clean either
/// way.
fn sim_fault<const W: usize>(
    compiled: &CompiledCircuit,
    sweep: &Sweep<W>,
    config: &EngineConfig,
    ws: &mut WorkerState<W>,
    unit: Unit<'_>,
    record: bool,
    cancel: Option<&CancelToken>,
) -> Option<UnitResult<PairReport>> {
    let sweep_t = Instant::now();
    let (fault, index, worker) = (unit.faults[0], unit.index, unit.worker);
    let WorkerState {
        ev,
        out1,
        out2,
        detected,
        violations,
        cone,
    } = ws;
    detected.clear();
    violations.clear();
    let mut fault_cone = cone.as_mut().map(|cs| cs.cone_of(compiled, &fault));
    let mut cone_sweep = fault_cone.is_some();
    let num_ops = compiled.num_ops();
    let mut observable = false;
    let mut dropped_at = None;
    let mut pairs = 0u64;
    let mut words = 0u64;
    let mut events = Vec::new();
    let mut ops_evaluated = 0u64;
    let mut died_min: Option<u32> = None;
    ev.install(compiled, std::slice::from_ref(&fault));
    let batches = sweep.masks.len();
    'groups: for g in 0..sweep.groups() {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            ev.uninstall();
            return None;
        }
        let real = sweep.group_real(g);
        let wide_mask = sweep.group_mask(g);
        let group_ops = if let (true, Some((fc, expire))) = (cone_sweep, fault_cone.as_mut()) {
            // Cone path: evaluate only the fault's fanout cone, seeded from
            // golden slot words. Padding sub-words are masked out of the
            // frontier-death dirtiness check, so they can neither keep a
            // cone alive nor kill it early.
            let cached = sweep.group_slots(g, 0);
            let e1 = ev.eval_cone_w(compiled, fc, |s| cached[s], wide_mask, expire);
            for &(k, ord) in &fc.outputs {
                let k = k as usize;
                out1[k] = if ord == CONE_SEED || ord < e1 {
                    ev.output_w(compiled, k)
                } else {
                    sweep.golden_wide(g, 0, k)
                };
            }
            let cached = sweep.group_slots(g, 1);
            let e2 = ev.eval_cone_w(compiled, fc, |s| cached[s], wide_mask, expire);
            note_death(&mut died_min, compiled, fc, e1);
            note_death(&mut died_min, compiled, fc, e2);
            for &(k, ord) in &fc.outputs {
                let k = k as usize;
                out2[k] = if ord == CONE_SEED || ord < e2 {
                    ev.output_w(compiled, k)
                } else {
                    sweep.golden_wide(g, 1, k)
                };
            }
            let evaluated = u64::from(e1) + u64::from(e2);
            cone_sweep = !cone_too_wide(evaluated, num_ops);
            evaluated
        } else {
            ev.try_eval_w(compiled, sweep.group_words1(g), &[])
                .expect("sweep arity");
            for (k, o) in out1.iter_mut().enumerate() {
                *o = ev.output_w(compiled, k);
            }
            ev.try_eval_w(compiled, sweep.group_words2(g), &[])
                .expect("sweep arity");
            for (k, o) in out2.iter_mut().enumerate() {
                *o = ev.output_w(compiled, k);
            }
            2 * num_ops as u64
        };
        // Classify per 64-pair sub-batch in scalar batch order: reports,
        // events and counters are width-invariant. A fault with a cone
        // classifies only the outputs it reaches, whichever path evaluated
        // the group: every other output provably equals golden, which
        // alternates, so it adds nothing to det/wrong/diff on valid lanes.
        for s in 0..real {
            let b = g * W + s;
            let mask = sweep.masks[b];
            let (mut det, mut wrong, mut diff) = (0u64, 0u64, 0u64);
            let mut classify = |k: usize| {
                let (f1, f2) = (out1[k].sub(s), out2[k].sub(s));
                let (g1, g2) = (sweep.batch_golden(b, 0, k), sweep.batch_golden(b, 1, k));
                let alt = f1 ^ f2;
                det |= !alt;
                wrong |= alt & (f1 ^ g1);
                diff |= (f1 ^ g1) | (f2 ^ g2);
            };
            match &fault_cone {
                Some((fc, _)) => fc.outputs.iter().for_each(|&(k, _)| classify(k as usize)),
                None => (0..sweep.n_outputs).for_each(classify),
            }
            words += 2;
            ops_evaluated += group_ops;
            let batch_pairs = u64::from(mask.count_ones());
            pairs += batch_pairs;
            det &= mask;
            let viol = wrong & !det & mask;
            if diff & mask != 0 {
                observable = true;
            }
            // Batch `b` is minterms `64b..64b+63`: its masks are its pairs.
            detected.push(det);
            violations.push(viol);
            if record {
                events.push(CampaignEvent::BatchDone {
                    fault: index,
                    worker,
                    batch: b,
                    pairs: batch_pairs,
                });
            }
            if config.drop_after_detection && det != 0 && b + 1 < batches {
                dropped_at = Some(b);
                break 'groups;
            }
        }
    }
    ev.uninstall();
    let eval_time = sweep_t.elapsed();
    let cone_ops = fault_cone.as_ref().map(|(fc, _)| fc.ops.len() as u64);
    let ops_skipped = cone_ops.map(|_| num_ops as u64 * words - ops_evaluated);
    let detected_pairs = PairSet::from_batch_masks(detected);
    let violation_pairs = PairSet::from_batch_masks(violations);
    let summary = FaultSummary {
        detected: detected_pairs.len(),
        violations: violation_pairs.len(),
        observable,
        dropped_at,
        pairs,
        // Batches sweep ascending minterms, so the smallest detected
        // minterm is the first detecting pair in sweep order.
        first_detected: detected_pairs.first(),
        cone_ops,
        ops_skipped,
        frontier_died_at_level: died_min,
    };
    if record {
        // One aggregated span per fault: its whole sweep, in batches.
        events.push(CampaignEvent::Span {
            name: "eval_batch",
            parent: "fault_sim",
            micros: duration_micros(eval_time),
            count: words / 2,
            items: pairs,
        });
        if let (Some(cone_ops), Some(ops_skipped)) = (cone_ops, ops_skipped) {
            events.push(CampaignEvent::ConeStats {
                fault: index,
                worker,
                cone_ops,
                ops_evaluated,
                ops_skipped,
                frontier_died_at_level: died_min,
            });
        }
    }
    Some(UnitResult {
        verdicts: vec![PairReport {
            detected_pairs,
            violation_pairs,
            observable,
            dropped: dropped_at.is_some(),
        }],
        summaries: vec![summary],
        words,
        eval_time,
        unit_events: Vec::new(),
        fault_events: if record { vec![events] } else { Vec::new() },
    })
}

/// Simulates one fault-packed chunk: up to 63 faults broadcast into the bit
/// lanes of every pattern sub-word (lane 0 golden), swept across every
/// canonical pair — `63 faults × W patterns` cells per wide sweep over the
/// full schedule.
///
/// Classification compares each fault lane against the in-word golden lane
/// (`sg = -(out & 1)`, the golden bit splatted across the word). Per-fault
/// accounting matches the unpacked sweep bit for bit: pairs count per
/// (fault, pair) cell; under fault dropping a fault stops counting at the
/// end of its first detecting 64-pair batch (its lane retires from the live
/// mask at the next batch boundary), and the sweep exits early once every
/// lane has retired. Returns `None` if the token cancelled mid-chunk (the
/// chunk's partial work is discarded).
fn sim_fault_chunk<const W: usize>(
    compiled: &CompiledCircuit,
    sweep: &Sweep<W>,
    config: &EngineConfig,
    unit: Unit<'_>,
    record: bool,
    cancel: Option<&CancelToken>,
) -> Option<UnitResult<PairReport>> {
    let sweep_t = Instant::now();
    let faults = unit.faults;
    let nf = faults.len();
    debug_assert!((1..=63).contains(&nf));
    let total_pairs = 1u32 << (sweep.n_inputs - 1);
    let refs: Vec<&[Override]> = faults.iter().map(std::slice::from_ref).collect();
    let plan: LanePlan<W> = LanePlan::build_broadcast(compiled, &refs);
    let mut ev = WideEvaluator::<W>::with_aux(compiled, plan.aux.len());
    for &(slot, mask, value) in &plan.stems {
        ev.add_masked_stem(compiled, slot as usize, mask, value);
    }
    for &(flat, slot) in &plan.fanin_patches {
        ev.patch_fanin(flat as usize, slot);
    }
    // Fault `i` lives on bit `i + 1`; bit 0 is the golden lane.
    let all_lanes: u64 = (u64::MAX >> (63 - nf)) & !1;
    let mut detected = vec![PairSet::default(); nf];
    let mut violations = vec![PairSet::default(); nf];
    let mut observable = vec![false; nf];
    // First pattern index *not* counted for fault `i` under dropping: the
    // end of its first detecting 64-pair batch. `u32::MAX` = never detected.
    let mut limit = vec![u32::MAX; nf];
    let mut live = all_lanes;
    let mut inputs1 = vec![Word::<W>::ZERO; sweep.n_inputs];
    let mut inputs2 = vec![Word::<W>::ZERO; sweep.n_inputs];
    let mut out1 = vec![Word::<W>::ZERO; sweep.n_outputs];
    let mut words = 0u64;
    let mut p0 = 0u32;
    'sweep: while p0 < total_pairs {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return None;
        }
        let real = ((total_pairs - p0) as usize).min(W);
        // Sub-word s carries canonical pattern p0 + s, splatted across its
        // 64 lanes (padding sub-words repeat the last real pattern).
        for i in 0..sweep.n_inputs {
            let w = Word::from_fn(|s| {
                let p = p0 + s.min(real - 1) as u32;
                0u64.wrapping_sub(u64::from((p >> i) & 1))
            });
            inputs1[i] = w;
            inputs2[i] = !w;
        }
        ev.eval_packed_w(compiled, &inputs1, &[], &plan.aux);
        for (k, o) in out1.iter_mut().enumerate() {
            *o = ev.output_w(compiled, k);
        }
        ev.eval_packed_w(compiled, &inputs2, &[], &plan.aux);
        words += 2 * real as u64;
        for s in 0..real {
            let p = p0 + s as u32;
            if config.drop_after_detection && p % 64 == 0 {
                // Batch boundary: retire every lane whose fault finished its
                // detecting batch; exit once the whole chunk has retired.
                for (i, &l) in limit.iter().enumerate() {
                    if l <= p {
                        live &= !(1u64 << (i + 1));
                    }
                }
                if live == 0 {
                    break 'sweep;
                }
            }
            let mut det = 0u64;
            let mut wrong = 0u64;
            let mut diff = 0u64;
            for (k, o1w) in out1.iter().enumerate() {
                let o1 = o1w.sub(s);
                let o2 = ev.output_w(compiled, k).sub(s);
                let sg1 = 0u64.wrapping_sub(o1 & 1);
                let sg2 = 0u64.wrapping_sub(o2 & 1);
                let alt = o1 ^ o2;
                det |= !alt;
                wrong |= alt & (o1 ^ sg1);
                diff |= (o1 ^ sg1) | (o2 ^ sg2);
            }
            det &= live;
            let viol = wrong & !det & live;
            diff &= live;
            let mut bits = det;
            while bits != 0 {
                let f = bits.trailing_zeros() as usize - 1;
                detected[f].insert(p);
                if limit[f] == u32::MAX {
                    limit[f] = (p / 64 + 1) * 64;
                }
                bits &= bits - 1;
            }
            bits = viol;
            while bits != 0 {
                violations[bits.trailing_zeros() as usize - 1].insert(p);
                bits &= bits - 1;
            }
            bits = diff;
            while bits != 0 {
                observable[bits.trailing_zeros() as usize - 1] = true;
                bits &= bits - 1;
            }
        }
        p0 += real as u32;
    }
    let eval_time = sweep_t.elapsed();
    let mut reports = Vec::with_capacity(nf);
    let mut summaries = Vec::with_capacity(nf);
    let mut pairs = 0u64;
    for (f, ((det_pairs, viol_pairs), obs_f)) in detected
        .into_iter()
        .zip(violations)
        .zip(observable)
        .enumerate()
    {
        let fault_dropped = config.drop_after_detection && limit[f] < total_pairs;
        let fault_pairs = if fault_dropped {
            u64::from(limit[f])
        } else {
            u64::from(total_pairs)
        };
        pairs += fault_pairs;
        summaries.push(FaultSummary {
            detected: det_pairs.len(),
            violations: viol_pairs.len(),
            observable: obs_f,
            dropped_at: fault_dropped.then(|| (limit[f] / 64 - 1) as usize),
            pairs: fault_pairs,
            first_detected: det_pairs.first(),
            ..FaultSummary::default()
        });
        reports.push(PairReport {
            detected_pairs: det_pairs,
            violation_pairs: viol_pairs,
            observable: obs_f,
            dropped: fault_dropped,
        });
    }
    let unit_events = if record {
        vec![
            CampaignEvent::LaneBatch {
                batch: unit.index,
                worker: unit.worker,
                lanes: nf,
                words,
                retired: limit.iter().filter(|&&l| l != u32::MAX).count(),
            },
            // One aggregated span per chunk: its whole 2-D sweep.
            CampaignEvent::Span {
                name: "eval_batch",
                parent: "fault_sim",
                micros: duration_micros(eval_time),
                count: words / 2,
                items: pairs,
            },
        ]
    } else {
        Vec::new()
    };
    Some(UnitResult {
        verdicts: reports,
        summaries,
        words,
        eval_time,
        unit_events,
        fault_events: Vec::new(),
    })
}

/// Runs the packed alternating-pair campaign: every override in `faults`
/// (one stuck line each) is simulated against every canonical alternating
/// input pair `(X, X̄)` of the combinational `circuit`, with full
/// observability and cooperative cancellation. Reports come back in
/// `faults` order regardless of the worker fan-out.
///
/// Every event of the run flows through `observer` (pass
/// [`scal_obs::NullObserver`] to opt out — its `enabled() == false` fast
/// path skips all event construction). Once `cancel` fires, in-flight
/// faults are abandoned and the campaign returns the longest contiguous
/// fault-ordered prefix of completed reports with
/// [`VerdictTable::cancelled`] set. That prefix — and its [`EngineStats`]
/// counters — is bit-identical to the same prefix of an uncancelled run.
///
/// # Errors
///
/// [`EngineError::Sequential`] for sequential circuits,
/// [`EngineError::UnsupportedInputs`] outside `1..=24` inputs,
/// [`EngineError::InvalidConfig`] for more than [`MAX_THREADS`] threads,
/// compile errors from [`CompiledCircuit::try_compile`], and
/// [`EngineError::NotAlternating`] if a fault-free output fails to
/// alternate.
pub fn try_run_pair_campaign(
    circuit: &Circuit,
    faults: &[Override],
    config: &EngineConfig,
    observer: &dyn CampaignObserver,
    cancel: Option<&CancelToken>,
) -> Result<PairCampaign, EngineError> {
    let plan = PairPlan::try_new(circuit, faults, config, observer, cancel)?;
    match pair_word_width(plan.compiled.num_inputs(), plan.packing) {
        1 => run_campaign::<1>(plan, false),
        4 => run_campaign::<4>(plan, false),
        _ => run_campaign::<8>(plan, false),
    }
}

/// A pair campaign up to its word width: the compiled design, the lane
/// geometry, from which the width follows, and the driver setup, the
/// collapsed fault list included.
struct PairPlan<'a> {
    setup: Setup<'a>,
    compiled: CompiledCircuit,
    spans: CompileSpans,
    config: &'a EngineConfig,
    packing: bool,
}

impl<'a> PairPlan<'a> {
    /// Compiles `circuit`, collapses `faults` unless the config switches
    /// collapsing off, and picks the lane geometry.
    fn try_new(
        circuit: &Circuit,
        faults: &'a [Override],
        config: &'a EngineConfig,
        observer: &'a dyn CampaignObserver,
        cancel: Option<&'a CancelToken>,
    ) -> Result<Self, EngineError> {
        if circuit.is_sequential() {
            return Err(EngineError::Sequential);
        }
        let n = circuit.inputs().len();
        if !(1..=24).contains(&n) {
            return Err(EngineError::UnsupportedInputs { inputs: n });
        }
        check_threads(config.threads)?;
        let started = Instant::now();
        let (compiled, spans) = CompiledCircuit::try_compile_timed(circuit)?;
        let collapsed =
            (config.fault_collapse != Toggle::Off).then(|| collapse_overrides(&compiled, faults));
        // Lane geometry: forced by the config, else pack exactly when the
        // packed whole-schedule sweep count beats the pattern-major one —
        // packed runs `⌈F/63⌉` chunk sweeps of `P` patterns each,
        // pattern-major runs `F` faults of `⌈P/64⌉` batches each, over the
        // `F` simulated (post-collapse) faults.
        let packing = match config.fault_packing {
            Toggle::On => true,
            Toggle::Off => false,
            Toggle::Auto => {
                let f = representatives(faults, collapsed.as_ref()).len() as u64;
                let p = 1u64 << (n - 1);
                f > 0 && f.div_ceil(63) * p < f * p.div_ceil(64)
            }
        };
        Ok(PairPlan {
            setup: Setup {
                campaign: "pair",
                inputs: n,
                outputs: circuit.outputs().len(),
                threads: config.threads,
                faults,
                collapsed,
                observer,
                cancel,
                started,
            },
            compiled,
            spans,
            config,
            packing,
        })
    }
}

/// The pair campaign's kernel: its lane geometry and eval mode, the golden
/// sweep, and one fault (pattern-major) or one ≤63-fault chunk
/// (fault-packed) per unit.
struct PairKernel<'a, const W: usize> {
    compiled: &'a CompiledCircuit,
    spans: CompileSpans,
    config: &'a EngineConfig,
    packing: bool,
    mode: EvalMode,
    /// Built by the golden phase.
    sweep: Option<Sweep<W>>,
}

impl<const W: usize> Kernel for PairKernel<'_, W> {
    type Verdict = PairReport;
    type Worker = WorkerState<W>;

    fn unit_len(&self) -> usize {
        if self.packing {
            63
        } else {
            1
        }
    }

    fn header(&self, observer: &dyn CampaignObserver) {
        observer.on_event(&CampaignEvent::EvalMode {
            mode: self.mode.name(),
        });
        let (fault_lanes, pattern_lanes, packing) = if self.packing {
            (63, W, "fault")
        } else {
            (0, 64 * W, "pattern")
        };
        observer.on_event(&CampaignEvent::LaneGeometry {
            width: W,
            fault_lanes,
            pattern_lanes,
            packing,
        });
    }

    fn compile_events(&self, observer: &dyn CampaignObserver) {
        let compiled = self.compiled;
        // Memory accounting rides the span channel: `compile_mem` carries
        // the compiled schedule's heap footprint in bytes as `items`.
        let io = compiled.num_inputs() + compiled.num_outputs();
        for (name, micros, items) in [
            (
                "levelize",
                self.spans.levelize_micros,
                compiled.num_ops() as u64,
            ),
            ("pack", self.spans.pack_micros, io as u64),
            ("compile_mem", 0, compiled.memory_bytes()),
        ] {
            observer.on_event(&CampaignEvent::Span {
                name,
                parent: "compile",
                micros,
                count: 1,
                items,
            });
        }
        for (level, &gates) in compiled.level_gates().iter().enumerate() {
            observer.on_event(&CampaignEvent::LevelGates { level, gates });
        }
    }

    fn golden(&mut self) -> Result<(u64, WorkerState<W>), EngineError> {
        let mut ev = WideEvaluator::<W>::new(self.compiled);
        let (sweep, words) = Sweep::try_build(self.compiled, &mut ev, self.mode == EvalMode::Cone)?;
        // The first worker reuses the warm golden evaluator's scratch.
        let warm = WorkerState::new(ev, self.compiled, self.mode);
        self.sweep = Some(sweep);
        Ok((words, warm))
    }

    fn worker(&self) -> WorkerState<W> {
        WorkerState::new(WideEvaluator::new(self.compiled), self.compiled, self.mode)
    }

    fn run(
        &self,
        ws: &mut WorkerState<W>,
        unit: Unit<'_>,
        record: bool,
        cancel: Option<&CancelToken>,
    ) -> Option<UnitResult<PairReport>> {
        let sweep = self.sweep.as_ref().expect("golden phase ran");
        if self.packing {
            sim_fault_chunk(self.compiled, sweep, self.config, unit, record, cancel)
        } else {
            sim_fault(self.compiled, sweep, self.config, ws, unit, record, cancel)
        }
    }
}

/// The width-monomorphized campaign body behind [`try_run_pair_campaign`];
/// `full_only` makes every pattern-major group run the full schedule.
fn run_campaign<const W: usize>(
    plan: PairPlan<'_>,
    full_only: bool,
) -> Result<PairCampaign, EngineError> {
    let (compiled, n) = (&plan.compiled, plan.compiled.num_inputs());
    // Fault packing forces full-schedule evaluation: cone restriction does
    // not compose with 63 distinct fanout cones per word. The pattern-major
    // path runs cone-restricted unless its golden slot cache would not fit
    // the fixed budget.
    let fits = slot_cache_fits(
        sweep_groups::<W>(n),
        compiled.num_slots,
        W,
        GOLDEN_CACHE_BYTES,
    );
    let mode = if plan.packing || !fits || full_only {
        EvalMode::Full
    } else {
        EvalMode::Cone
    };
    let kernel = PairKernel::<W> {
        compiled,
        spans: plan.spans,
        config: plan.config,
        packing: plan.packing,
        mode,
        sweep: None,
    };
    let driven = drive(plan.setup, kernel)?;
    let stats = driven.stats.clone();
    let (reports, table) = driven.into_expanded();
    Ok(PairCampaign {
        reports,
        stats,
        table,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use scal_netlist::{GateKind, Site};
    use scal_obs::{CollectObserver, NullObserver, Phase};

    /// The campaign without observer or cancellation, panicking with the
    /// error's message.
    fn run_pair_campaign(
        circuit: &Circuit,
        faults: &[Override],
        config: &EngineConfig,
    ) -> (Vec<PairReport>, EngineStats) {
        unwrap_run(try_run_pair_campaign(
            circuit,
            faults,
            config,
            &NullObserver,
            None,
        ))
    }

    /// [`run_pair_campaign`] at word width `width`, with `full_only`
    /// forcing every pattern-major group onto the full schedule.
    fn run_forced(
        circuit: &Circuit,
        faults: &[Override],
        config: &EngineConfig,
        width: usize,
        full_only: bool,
    ) -> (Vec<PairReport>, EngineStats) {
        unwrap_run(try_run_pairs(
            circuit,
            faults,
            config,
            width,
            full_only,
            &NullObserver,
        ))
    }

    fn unwrap_run(run: Result<PairCampaign, EngineError>) -> (Vec<PairReport>, EngineStats) {
        match run {
            Ok(c) => (c.reports, c.stats),
            Err(e) => panic!("{e}"),
        }
    }

    /// [`try_run_pair_campaign`] through the test seam: at word width
    /// `width` instead of the one the workload picks, and with `full_only`
    /// making the pattern-major path evaluate every group over the full
    /// schedule, so the cone path and its per-fault switch can be held
    /// against it.
    fn try_run_pairs(
        circuit: &Circuit,
        faults: &[Override],
        config: &EngineConfig,
        width: usize,
        full_only: bool,
        observer: &dyn CampaignObserver,
    ) -> Result<PairCampaign, EngineError> {
        let plan = PairPlan::try_new(circuit, faults, config, observer, None)?;
        match width {
            1 => run_campaign::<1>(plan, full_only),
            4 => run_campaign::<4>(plan, full_only),
            8 => run_campaign::<8>(plan, full_only),
            other => panic!("no word width {other}"),
        }
    }

    fn xor3() -> Circuit {
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let d = c.input("c");
        let x = c.gate(GateKind::Xor, &[a, b, d]);
        c.mark_output("f", x);
        c
    }

    fn all_single_faults(c: &Circuit) -> Vec<Override> {
        let mut out = Vec::new();
        for id in c.node_ids() {
            for value in [false, true] {
                out.push(Override {
                    site: Site::Stem(id),
                    value,
                });
            }
        }
        out
    }

    #[test]
    fn xor3_every_stem_fault_detected_everywhere() {
        let c = xor3();
        let faults = all_single_faults(&c);
        let (reports, stats) = run_pair_campaign(&c, &faults, &EngineConfig::default());
        assert_eq!(reports.len(), faults.len());
        assert_eq!(stats.faults, faults.len());
        assert_eq!(stats.faults_dropped, 0);
        for r in &reports {
            // A stuck line in a pure XOR cone kills alternation at every pair.
            assert_eq!(r.detected_pairs.iter().collect::<Vec<_>>(), [0, 1, 2, 3]);
            assert!(r.violation_pairs.is_empty());
            assert!(r.observable);
            assert!(!r.dropped);
        }
    }

    /// 9 inputs (odd, so XOR is self-dual) -> 256 canonical pairs = four
    /// 64-pair batches.
    fn xor9() -> Circuit {
        let mut c = Circuit::new();
        let ins: Vec<_> = (0..9).map(|i| c.input(format!("x{i}"))).collect();
        let x = c.xor(&ins);
        c.mark_output("p", x);
        c
    }

    /// 11 inputs -> 1024 canonical pairs = 16 batches: several wide groups
    /// even at `W = 8`.
    fn xor11() -> Circuit {
        let mut c = Circuit::new();
        let ins: Vec<_> = (0..11).map(|i| c.input(format!("x{i}"))).collect();
        let x = c.xor(&ins);
        c.mark_output("p", x);
        c
    }

    /// Observer that cancels its token once `done` reaches `after`.
    struct CancelAfter {
        token: CancelToken,
        after: usize,
    }

    impl CampaignObserver for CancelAfter {
        fn on_event(&self, event: &CampaignEvent) {
            if let CampaignEvent::Progress { done, .. } = event {
                if *done >= self.after {
                    self.token.cancel();
                }
            }
        }
    }

    #[test]
    fn drop_mode_flags_and_counts() {
        // XOR cone faults detect in batch 0, so drop mode skips the rest.
        let c = xor9();
        let x = c.outputs()[0].node;
        let faults = vec![Override {
            site: Site::Stem(x),
            value: false,
        }];
        let exact = run_pair_campaign(&c, &faults, &EngineConfig::default());
        let dropped = run_pair_campaign(
            &c,
            &faults,
            &EngineConfig {
                drop_after_detection: true,
                ..EngineConfig::default()
            },
        );
        assert_eq!(exact.0[0].detected_pairs.len(), 256);
        assert_eq!(dropped.0[0].detected_pairs.len(), 64); // first batch only
        assert!(dropped.0[0].dropped);
        assert_eq!(dropped.1.faults_dropped, 1);
        assert!(dropped.1.pairs_evaluated < exact.1.pairs_evaluated);
    }

    /// A drop-mode report holds exactly the exact run's pairs up to the end
    /// of its drop batch (the batch of its first detection), on both lane
    /// geometries and at every width.
    #[test]
    fn drop_mode_reports_hold_the_pairs_up_to_their_drop_batch() {
        let c = scal_netlist::synth::random_selfdual(9, 40, 11);
        let faults = all_faults(&c);
        let exact = run_pair_campaign(&c, &faults, &EngineConfig::default()).0;
        let upto =
            |set: &PairSet, end: u32| -> PairSet { set.iter().filter(|&m| m < end).collect() };
        let mut dropped_late = 0;
        for fault_packing in [Toggle::Off, Toggle::On] {
            for width in [1, 8] {
                let cfg = EngineConfig {
                    drop_after_detection: true,
                    fault_packing,
                    ..EngineConfig::default()
                };
                let dropped = run_forced(&c, &faults, &cfg, width, false).0;
                for (d, e) in dropped.iter().zip(&exact) {
                    if !d.dropped {
                        assert_eq!(d, e);
                        continue;
                    }
                    let end = (e.detected_pairs.first().unwrap() / 64 + 1) * 64;
                    dropped_late += usize::from(end > 64);
                    assert_eq!(d.detected_pairs, upto(&e.detected_pairs, end));
                    assert_eq!(d.violation_pairs, upto(&e.violation_pairs, end));
                }
            }
        }
        assert!(dropped_late > 0, "some fault must drop after batch 0");
    }

    #[test]
    #[should_panic(expected = "does not alternate")]
    fn rejects_non_alternating_networks() {
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let g = c.and(&[a, b]); // AND is not self-dual
        c.mark_output("f", g);
        let _ = run_pair_campaign(&c, &[], &EngineConfig::default());
    }

    #[test]
    fn try_run_reports_misuse_as_errors() {
        let mut seq = Circuit::new();
        let ff = seq.dff(false);
        let nq = seq.not(ff);
        seq.connect_dff(ff, nq);
        seq.mark_output("q", ff);
        match try_run_pair_campaign(&seq, &[], &EngineConfig::default(), &NullObserver, None) {
            Err(EngineError::Sequential) => {}
            other => panic!("expected Sequential, got {other:?}"),
        }
        let mut none = Circuit::new();
        let k = none.constant(true);
        none.mark_output("f", k);
        match try_run_pair_campaign(&none, &[], &EngineConfig::default(), &NullObserver, None) {
            Err(EngineError::UnsupportedInputs { inputs: 0 }) => {}
            other => panic!("expected UnsupportedInputs, got {other:?}"),
        }
    }

    /// All single stuck-at faults, stems and branch pins alike.
    fn all_faults(c: &Circuit) -> Vec<Override> {
        let mut out = Vec::new();
        for id in c.node_ids() {
            for value in [false, true] {
                out.push(Override {
                    site: Site::Stem(id),
                    value,
                });
                for pin in 0..c.fanins(id).len() {
                    out.push(Override {
                        site: Site::Branch { node: id, pin },
                        value,
                    });
                }
            }
        }
        out
    }

    /// A self-dual multi-output circuit with reconvergent fanout: a full
    /// adder (3-input XOR sum, majority carry).
    fn full_adder() -> Circuit {
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let ci = c.input("ci");
        let s = c.xor(&[a, b, ci]);
        let maj = c.gate(GateKind::Majority, &[a, b, ci]);
        c.mark_output("s", s);
        c.mark_output("co", maj);
        c
    }

    #[test]
    fn eval_mode_parses_and_displays() {
        assert_eq!("full".parse::<EvalMode>().unwrap(), EvalMode::Full);
        assert_eq!("cone".parse::<EvalMode>().unwrap(), EvalMode::Cone);
        assert_eq!(EvalMode::Cone.to_string(), "cone");
        assert_eq!(EvalMode::default(), EvalMode::Cone);
        match "both".parse::<EvalMode>() {
            Err(EngineError::InvalidConfig { reason }) => assert!(reason.contains("both")),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    /// Cone-restricted evaluation, with its per-fault switch to the full
    /// schedule, must be bit-identical to a full-schedule run on every
    /// report field and every work counter, with and without fault
    /// dropping.
    #[test]
    fn cone_matches_full_on_every_fault() {
        for circuit in [xor3(), full_adder(), xor11()] {
            let faults = all_faults(&circuit);
            for drop_after_detection in [false, true] {
                let cfg = EngineConfig {
                    drop_after_detection,
                    // Auto-packing would force full mode on these small
                    // circuits; pin the pattern path under test.
                    fault_packing: Toggle::Off,
                    ..EngineConfig::default()
                };
                let full = run_forced(&circuit, &faults, &cfg, 1, true);
                let cone = run_forced(&circuit, &faults, &cfg, 1, false);
                assert_eq!(full.0, cone.0);
                assert_eq!(full.1.pairs_evaluated, cone.1.pairs_evaluated);
                assert_eq!(full.1.words_evaluated, cone.1.words_evaluated);
                assert_eq!(full.1.faults_dropped, cone.1.faults_dropped);
            }
        }
    }

    /// The switch rule is exact at its threshold: `NUM / DEN` of both
    /// periods' ops is still a cone sweep, one op more is not.
    #[test]
    fn cone_switch_fires_just_past_the_share() {
        let (num, den) = FULL_SWITCH_SHARE;
        let num_ops = 8 * den as usize;
        let at = num * 2 * num_ops as u64 / den;
        assert!(!cone_too_wide(at, num_ops));
        assert!(cone_too_wide(at + 1, num_ops));
    }

    /// An 11-input parity chain of two-input XORs: 10 ops, 16 batches, and
    /// a frontier that lives through the chain wherever the faulty line
    /// depends on the low inputs.
    fn xor_chain11() -> Circuit {
        let mut c = Circuit::new();
        let ins: Vec<_> = (0..11).map(|i| c.input(format!("x{i}"))).collect();
        let p = ins[1..].iter().fold(ins[0], |acc, &x| c.xor(&[acc, x]));
        c.mark_output("p", p);
        c
    }

    /// Per `ConeStats` event: the fault's `BatchDone` count, `cone_ops`,
    /// `ops_evaluated`, `ops_skipped` and `frontier_died_at_level`.
    fn cone_accounting(events: &[CampaignEvent]) -> Vec<(u64, u64, u64, u64, Option<u32>)> {
        let mut batches = std::collections::HashMap::new();
        for e in events {
            if let CampaignEvent::BatchDone { fault, .. } = e {
                *batches.entry(*fault).or_insert(0u64) += 1;
            }
        }
        events
            .iter()
            .filter_map(|e| match *e {
                CampaignEvent::ConeStats {
                    fault,
                    cone_ops,
                    ops_evaluated,
                    ops_skipped,
                    frontier_died_at_level,
                    ..
                } => Some((
                    batches[&fault],
                    cone_ops,
                    ops_evaluated,
                    ops_skipped,
                    frontier_died_at_level,
                )),
                _ => None,
            })
            .collect()
    }

    /// Every fault's skip counters are in one unit, 64-lane sub-word op
    /// sweeps: `ops_evaluated + ops_skipped` is exactly `num_ops` per period
    /// of every classified batch, at every width, with and without dropping
    /// (which can stop mid-group). A fault whose frontier never died ran
    /// its whole cone per period of each batch of the first group, and of
    /// every later batch unless the cone was too wide, in which case those
    /// ran the whole schedule.
    #[test]
    fn skip_counters_balance_against_the_schedule() {
        for circuit in [full_adder(), xor11(), xor_chain11()] {
            let faults = all_faults(&circuit);
            let num_ops = CompiledCircuit::compile(&circuit).num_ops() as u64;
            for drop_after_detection in [false, true] {
                for width in [1, 4, 8] {
                    let collect = CollectObserver::default();
                    let cfg = EngineConfig {
                        threads: 1,
                        drop_after_detection,
                        fault_packing: Toggle::Off,
                        fault_collapse: Toggle::Off,
                    };
                    let _ = try_run_pairs(&circuit, &faults, &cfg, width, false, &collect).unwrap();
                    let stats = cone_accounting(&collect.events());
                    assert_eq!(stats.len(), faults.len());
                    let mut exact = 0;
                    for (fault, (batches, cone_ops, evaluated, skipped, died)) in
                        stats.into_iter().enumerate()
                    {
                        let config =
                            format!("fault {fault}, W={width}, drop {drop_after_detection}");
                        assert_eq!(evaluated + skipped, num_ops * 2 * batches, "{config}");
                        assert!(cone_ops <= num_ops, "{config}");
                        if died.is_none() {
                            let first = batches.min(width as u64);
                            let later = if cone_too_wide(2 * cone_ops, num_ops as usize) {
                                num_ops
                            } else {
                                cone_ops
                            };
                            let expected = 2 * (cone_ops * first + later * (batches - first));
                            assert_eq!(evaluated, expected, "{config}");
                            exact += 1;
                        }
                    }
                    assert!(exact > 0, "W={width}: no fault ran its whole cone");
                }
            }
        }
    }

    #[test]
    fn cone_mode_emits_mode_and_stats_events() {
        let c = xor3();
        let faults = all_single_faults(&c);
        let collect = CollectObserver::default();
        let cfg = EngineConfig {
            threads: 1,
            // Auto-packing would force full mode on xor3; pin the cone path.
            fault_packing: Toggle::Off,
            ..EngineConfig::default()
        };
        let _ = try_run_pair_campaign(&c, &faults, &cfg, &collect, None).unwrap();
        let events = collect.events();
        assert!(
            matches!(
                events.get(1),
                Some(CampaignEvent::EvalMode { mode: "cone" })
            ),
            "eval_mode must follow campaign_start"
        );
        let stats: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                CampaignEvent::ConeStats {
                    fault,
                    cone_ops,
                    ops_evaluated,
                    ops_skipped,
                    ..
                } => Some((*fault, *cone_ops, *ops_evaluated, *ops_skipped)),
                _ => None,
            })
            .collect();
        assert_eq!(stats.len(), faults.len(), "one cone_stats per fault");
        assert_eq!(
            stats.iter().map(|s| s.0).collect::<Vec<_>>(),
            (0..faults.len()).collect::<Vec<_>>(),
            "cone_stats replayed in fault order"
        );
        // xor3 is a one-gate, one-batch schedule: every cone is at most that
        // gate, and the two periods' accounting balances against it.
        for &(_, cone_ops, ops_evaluated, ops_skipped) in &stats {
            assert!(cone_ops <= 1);
            assert_eq!(ops_evaluated + ops_skipped, 2);
        }
        let full_collect = CollectObserver::default();
        let _ = try_run_pairs(&c, &faults, &cfg, 1, true, &full_collect).unwrap();
        let full_events = full_collect.events();
        assert!(
            matches!(
                full_events.get(1),
                Some(CampaignEvent::EvalMode { mode: "full" })
            ),
            "full mode still announces itself"
        );
        assert!(
            !full_events
                .iter()
                .any(|e| matches!(e, CampaignEvent::ConeStats { .. })),
            "full mode emits no cone stats"
        );
    }

    /// The cone/full decision reads only this check: a cache of exactly the
    /// budget fits, one byte more does not.
    #[test]
    fn slot_cache_fit_is_exact_at_the_budget() {
        for (groups, num_slots, width) in [(1, 1, 1), (3, 17, 4), (2048, 5000, 8)] {
            let need = groups * 2 * num_slots * 8 * width;
            assert!(slot_cache_fits(groups, num_slots, width, need));
            assert!(!slot_cache_fits(groups, num_slots, width, need - 1));
        }
        assert!(slot_cache_fits(0, 100, 8, 0), "an empty sweep always fits");
        // A 24-input campaign at W = 8 has 16 384 groups: 128 slots fill the
        // 256 MiB budget exactly, and a 129-slot circuit runs full.
        let groups = sweep_groups::<8>(24);
        assert_eq!(groups, 16_384);
        assert!(slot_cache_fits(groups, 128, 8, GOLDEN_CACHE_BYTES));
        assert!(!slot_cache_fits(groups, 129, 8, GOLDEN_CACHE_BYTES));
    }

    /// A ≤ 6-input sweep is one partial batch: `words1` carries pair `p` on
    /// lane `p` of the valid lanes only, and `words2` is `!words1` on every
    /// lane, padding included.
    #[test]
    fn partial_batch_sweep_words_are_masked_and_complemented() {
        for n in [1usize, 3, 5, 6] {
            let mut c = Circuit::new();
            let ins: Vec<_> = (0..n).map(|i| c.input(format!("x{i}"))).collect();
            // An odd-input XOR (or a NOT) alternates.
            let odd = if n % 2 == 1 { n } else { n - 1 };
            let x = if odd == 1 {
                c.not(ins[0])
            } else {
                c.xor(&ins[..odd])
            };
            c.mark_output("p", x);
            let compiled = CompiledCircuit::compile(&c);
            let mut ev = WideEvaluator::<4>::new(&compiled);
            let (sweep, _) = Sweep::try_build(&compiled, &mut ev, false).expect("sweep");
            let lanes = 1usize << (n - 1);
            assert_eq!(sweep.masks, [(1u64 << lanes) - 1], "{n} inputs");
            for i in 0..n {
                let w = (0..lanes).fold(0u64, |w, p| w | (((p >> i) & 1) as u64) << p);
                assert_eq!(sweep.words1[i].sub(0), w, "{n} inputs, input {i}");
                assert_eq!(sweep.words2[i].sub(0), !w, "{n} inputs, input {i}");
            }
        }
    }

    #[test]
    fn stats_summary_mentions_throughput() {
        let c = xor3();
        let (_, stats) = run_pair_campaign(&c, &all_single_faults(&c), &EngineConfig::default());
        assert!(stats.summary().contains("patterns/s"));
        assert!(stats.pairs_evaluated > 0);
        assert!(stats.words_evaluated > 0);
    }

    #[test]
    fn patterns_per_sec_never_divides_by_zero() {
        let zeroed = EngineStats::default();
        assert_eq!(zeroed.patterns_per_sec(), 0.0);
        let timeless = EngineStats {
            pairs_evaluated: 1000,
            ..EngineStats::default()
        };
        assert_eq!(timeless.patterns_per_sec(), 0.0);
        let real = EngineStats {
            pairs_evaluated: 1000,
            fault_sim_time: Duration::from_millis(10),
            ..EngineStats::default()
        };
        assert!(real.patterns_per_sec().is_finite());
        assert!(real.patterns_per_sec() > 0.0);
    }

    #[test]
    fn patterns_per_sec_uses_eval_time_not_phase_wall() {
        // 10 ms of wall clock but only 2 ms inside the sweeps: throughput
        // must be computed over the eval time, not the 5x longer wall time.
        let stats = EngineStats {
            pairs_evaluated: 1000,
            fault_sim_time: Duration::from_millis(10),
            eval_time: Duration::from_millis(2),
            ..EngineStats::default()
        };
        assert!((stats.patterns_per_sec() - 1_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn campaign_records_eval_time() {
        // xor3's per-fault sweeps are a single one-gate batch, typically
        // well under a microsecond each: summed as whole microseconds they
        // would add up to zero.
        let c = xor3();
        let cfg = EngineConfig {
            threads: 1,
            fault_packing: Toggle::Off,
            ..EngineConfig::default()
        };
        let (_, stats) = run_pair_campaign(&c, &all_single_faults(&c), &cfg);
        assert!(stats.eval_time > Duration::ZERO);
        // On one thread, eval time is contained within the phase it
        // happens in.
        assert!(stats.eval_time <= stats.fault_sim_time);
    }

    #[test]
    fn observer_sees_spans_levels_and_first_detected() {
        let c = xor3();
        let faults = all_single_faults(&c);
        let collect = CollectObserver::default();
        let cfg = EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        };
        let _ = try_run_pair_campaign(&c, &faults, &cfg, &collect, None).unwrap();
        let events = collect.events();
        for span in ["levelize", "pack", "compile_mem", "eval_batch"] {
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e, CampaignEvent::Span { name, .. } if *name == span)),
                "missing span {span}"
            );
        }
        // xor3 is a single-gate schedule: one level of one gate.
        assert!(events
            .iter()
            .any(|e| matches!(e, CampaignEvent::LevelGates { level: 0, gates: 1 })));
        // Every fault in the XOR cone detects at the very first pair.
        for e in &events {
            if let CampaignEvent::FaultFinish { first_detected, .. } = e {
                assert_eq!(*first_detected, Some(0));
            }
        }
    }

    #[test]
    fn forced_multithreading_matches_inline() {
        let c = xor3();
        let faults = all_single_faults(&c);
        let inline = run_pair_campaign(
            &c,
            &faults,
            &EngineConfig {
                threads: 1,
                ..EngineConfig::default()
            },
        );
        // Clamping normally keeps this inline; drive the worker path by
        // giving it enough faults per thread.
        let many: Vec<Override> = faults
            .iter()
            .cycle()
            .take(faults.len() * 8)
            .copied()
            .collect();
        let (multi, _) = run_pair_campaign(
            &c,
            &many,
            &EngineConfig {
                threads: 2,
                ..EngineConfig::default()
            },
        );
        for (i, r) in multi.iter().enumerate() {
            assert_eq!(r, &inline.0[i % faults.len()]);
        }
    }

    #[test]
    fn observer_sees_deterministic_fault_ordered_events() {
        let c = xor3();
        let faults = all_single_faults(&c);
        let collect = CollectObserver::default();
        let cfg = EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        };
        let run = try_run_pair_campaign(&c, &faults, &cfg, &collect, None).unwrap();
        assert!(!run.table.cancelled());
        let events = collect.events();
        assert!(matches!(
            events.first(),
            Some(CampaignEvent::CampaignStart {
                campaign: "pair",
                ..
            })
        ));
        assert!(matches!(
            events.last(),
            Some(CampaignEvent::CampaignEnd {
                cancelled: false,
                ..
            })
        ));
        // Per-fault events arrive in fault order during the merge replay.
        let finish_order: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                CampaignEvent::FaultFinish { fault, .. } => Some(*fault),
                _ => None,
            })
            .collect();
        assert_eq!(finish_order, (0..faults.len()).collect::<Vec<_>>());
        // All four phases opened and closed.
        for phase in [Phase::Compile, Phase::Golden, Phase::FaultSim, Phase::Merge] {
            assert!(events
                .iter()
                .any(|e| matches!(e, CampaignEvent::PhaseStart { phase: p } if *p == phase)));
            assert!(events
                .iter()
                .any(|e| matches!(e, CampaignEvent::PhaseEnd { phase: p, .. } if *p == phase)));
        }
    }

    #[test]
    fn pre_cancelled_run_returns_empty_prefix() {
        let c = xor3();
        let faults = all_single_faults(&c);
        let token = CancelToken::new();
        token.cancel();
        let run = try_run_pair_campaign(
            &c,
            &faults,
            &EngineConfig::default(),
            &NullObserver,
            Some(&token),
        )
        .unwrap();
        assert!(run.table.cancelled());
        assert!(run.reports.is_empty());
        assert_eq!(run.stats.faults, 0);
        assert_eq!(run.stats.pairs_evaluated, 0);
    }

    #[test]
    fn cancelled_prefix_is_bit_identical_to_uncancelled_run() {
        let c = xor3();
        let faults = all_single_faults(&c);
        let (full, _) = run_pair_campaign(&c, &faults, &EngineConfig::default());
        // Cancel from an observer after the third fault completes: the
        // returned prefix must match the uncancelled run exactly.
        let token = CancelToken::new();
        let obs = CancelAfter {
            token: token.clone(),
            after: 3,
        };
        let cfg = EngineConfig {
            threads: 1,
            // Auto-packing would sweep all of xor3's faults in one chunk,
            // leaving nothing to cancel; pin the per-fault path.
            fault_packing: Toggle::Off,
            ..EngineConfig::default()
        };
        let run = try_run_pair_campaign(&c, &faults, &cfg, &obs, Some(&token)).unwrap();
        assert!(run.table.cancelled());
        assert_eq!(run.reports.len(), 3);
        assert_eq!(run.stats.faults, 3);
        assert_eq!(&run.reports[..], &full[..3]);
    }

    /// Every word width must be bit-identical to `W = 1` on reports and
    /// work counters, on the engine's own eval choice and on a forced full
    /// schedule, across drop settings — single-batch circuits, a 4-batch
    /// circuit (padding at `W = 8`), and a 16-batch circuit (several wide
    /// groups per fault).
    #[test]
    fn wide_widths_match_scalar_reports() {
        for circuit in [xor3(), full_adder(), xor9(), xor11()] {
            let faults = all_faults(&circuit);
            for full_only in [true, false] {
                for drop_after_detection in [false, true] {
                    let cfg = EngineConfig {
                        drop_after_detection,
                        ..EngineConfig::default()
                    };
                    let base = run_forced(&circuit, &faults, &cfg, 1, full_only);
                    for width in [4, 8] {
                        let wide = run_forced(&circuit, &faults, &cfg, width, full_only);
                        assert_eq!(base.0, wide.0, "width {width} full_only {full_only}");
                        assert_eq!(base.1.pairs_evaluated, wide.1.pairs_evaluated);
                        assert_eq!(base.1.words_evaluated, wide.1.words_evaluated);
                        assert_eq!(base.1.faults_dropped, wide.1.faults_dropped);
                    }
                }
            }
        }
    }

    /// Fault-packed campaigns must reproduce the unpacked reports and pair
    /// accounting exactly, at every width, with and without dropping, and
    /// across multiple 63-fault chunks.
    #[test]
    fn fault_packed_matches_unpacked() {
        let c = xor9();
        let base_faults = all_faults(&c);
        let faults: Vec<Override> = base_faults.iter().cycle().take(100).copied().collect();
        for drop_after_detection in [false, true] {
            let plain = run_pair_campaign(
                &c,
                &faults,
                &EngineConfig {
                    drop_after_detection,
                    ..EngineConfig::default()
                },
            );
            for width in [1, 8] {
                let packed = run_forced(
                    &c,
                    &faults,
                    &EngineConfig {
                        fault_packing: Toggle::On,
                        drop_after_detection,
                        ..EngineConfig::default()
                    },
                    width,
                    false,
                );
                assert_eq!(
                    plain.0, packed.0,
                    "width {width} drop {drop_after_detection}"
                );
                assert_eq!(plain.1.pairs_evaluated, packed.1.pairs_evaluated);
                assert_eq!(plain.1.faults_dropped, packed.1.faults_dropped);
            }
        }
    }

    /// Pins the 2-D throughput arithmetic: pairs count per (fault, pair)
    /// cell, never per sweep, and retired lanes stop counting at the end of
    /// their detecting batch.
    #[test]
    fn fault_packed_pairs_accounting_is_exact() {
        let c = xor9();
        // Four input-stem faults: each flips the XOR output in exactly one
        // period of every pair, so each is detected at every pair and drops
        // at the end of batch 0.
        let faults = all_single_faults(&c)[..4].to_vec();
        let exact = run_pair_campaign(
            &c,
            &faults,
            &EngineConfig {
                fault_packing: Toggle::On,
                ..EngineConfig::default()
            },
        );
        assert_eq!(exact.1.pairs_evaluated, 4 * 256);
        let dropped = run_pair_campaign(
            &c,
            &faults,
            &EngineConfig {
                fault_packing: Toggle::On,
                drop_after_detection: true,
                ..EngineConfig::default()
            },
        );
        assert_eq!(dropped.1.pairs_evaluated, 4 * 64);
        assert_eq!(dropped.1.faults_dropped, 4);
        let plain = run_pair_campaign(
            &c,
            &faults,
            &EngineConfig {
                drop_after_detection: true,
                ..EngineConfig::default()
            },
        );
        assert_eq!(plain.1.pairs_evaluated, dropped.1.pairs_evaluated);
    }

    /// xor3's four patterns fill one `W = 4` fault-packed word.
    #[test]
    fn fault_packed_emits_lane_geometry_and_full_mode() {
        let c = xor3();
        let faults = all_single_faults(&c);
        let collect = CollectObserver::default();
        let cfg = EngineConfig {
            threads: 1,
            fault_packing: Toggle::On,
            ..EngineConfig::default()
        };
        let _ = try_run_pair_campaign(&c, &faults, &cfg, &collect, None).unwrap();
        let events = collect.events();
        assert!(
            matches!(
                events.get(1),
                Some(CampaignEvent::EvalMode { mode: "full" })
            ),
            "fault packing forces full-schedule evaluation"
        );
        assert!(matches!(
            events.get(2),
            Some(CampaignEvent::LaneGeometry {
                width: 4,
                fault_lanes: 63,
                pattern_lanes: 4,
                packing: "fault",
            })
        ));
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, CampaignEvent::BatchDone { .. })),
            "fault-packed sweeps report lane batches, not per-fault batches"
        );
        assert!(events.iter().any(
            |e| matches!(e, CampaignEvent::LaneBatch { lanes, .. } if *lanes == faults.len())
        ));
        let finish: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                CampaignEvent::FaultFinish { fault, .. } => Some(*fault),
                _ => None,
            })
            .collect();
        assert_eq!(finish, (0..faults.len()).collect::<Vec<_>>());
    }

    /// The pattern-major width is the narrowest that holds every batch:
    /// xor3's one batch, xor9's four, and xor11's sixteen over two `W = 8`
    /// groups.
    #[test]
    fn pattern_path_emits_lane_geometry() {
        for (c, width) in [(xor3(), 1), (xor9(), 4), (xor11(), 8)] {
            let faults = all_single_faults(&c);
            let collect = CollectObserver::default();
            let cfg = EngineConfig {
                threads: 1,
                // Auto would pick fault packing for small pattern counts;
                // pin the pattern-major geometry under test.
                fault_packing: Toggle::Off,
                ..EngineConfig::default()
            };
            let _ = try_run_pair_campaign(&c, &faults, &cfg, &collect, None).unwrap();
            let pattern_lanes = 64 * width;
            assert!(
                matches!(
                    collect.events().get(2),
                    Some(&CampaignEvent::LaneGeometry {
                        width: w,
                        fault_lanes: 0,
                        pattern_lanes: p,
                        packing: "pattern",
                    }) if w == width && p == pattern_lanes
                ),
                "{:?}",
                collect.events().get(2)
            );
        }
    }

    /// Cancellation under fault packing discards whole chunks: the returned
    /// prefix is the completed chunks' faults, bit-identical to the same
    /// prefix of an uncancelled run.
    #[test]
    fn fault_packed_cancel_returns_chunk_prefix() {
        let c = xor9();
        let faults: Vec<Override> = all_faults(&c).iter().cycle().take(150).copied().collect();
        let full = run_pair_campaign(
            &c,
            &faults,
            &EngineConfig {
                fault_packing: Toggle::On,
                fault_collapse: Toggle::Off,
                ..EngineConfig::default()
            },
        );
        let token = CancelToken::new();
        let obs = CancelAfter {
            token: token.clone(),
            after: 63,
        };
        let cfg = EngineConfig {
            threads: 1,
            fault_packing: Toggle::On,
            // The cycled fault list collapses below one 63-lane chunk,
            // leaving nothing to cancel; pin collapsing off so the second
            // chunk exists to be discarded.
            fault_collapse: Toggle::Off,
            ..EngineConfig::default()
        };
        let run = try_run_pair_campaign(&c, &faults, &cfg, &obs, Some(&token)).unwrap();
        assert!(run.table.cancelled());
        assert_eq!(
            run.reports.len(),
            63,
            "first chunk completed, second discarded"
        );
        assert_eq!(run.stats.faults, 63);
        assert_eq!(&run.reports[..], &full.0[..63]);
    }

    #[test]
    fn more_than_max_threads_is_rejected() {
        let c = xor3();
        let cfg = EngineConfig {
            threads: MAX_THREADS + 1,
            ..EngineConfig::default()
        };
        match try_run_pair_campaign(&c, &all_single_faults(&c), &cfg, &NullObserver, None) {
            Err(EngineError::InvalidConfig { reason }) => assert!(reason.contains("threads")),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }
}
