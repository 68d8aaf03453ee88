//! The closed loop, the end-to-end metrics and the per-layer metrics.

use crate::rng::Deck;
use crate::stats::quantile;
use crate::trace::{self_times, Count, Span, Tracer};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Ops the timing metrics of a run are taken over at least: enough for a
/// p90 with ten samples beyond it.
pub const MIN_OPS: usize = 100;

/// Share of its deck rounds, the fastest ones, that `paper_small` takes
/// its timing metrics over. Every round holds the same ops,
/// so a round's summed latency tracks the host's speed while it ran; the
/// host's speed drifts by up to 1.65x within and between runs (see
/// `README.md`), and the fastest rounds of a run are steadier between runs
/// than all of them.
pub const QUIET_SHARE: f64 = 0.15;

/// A loop stops drawing ops after this long even if it has not run enough
/// rounds for [`MIN_OPS`], so a run always ends well within three minutes.
pub const MAX_LOOP: Duration = Duration::from_secs(100);

/// One workload's ops, as a client sees them.
pub trait Workload {
    /// What one op returns for checking.
    type Out;

    /// Op kinds and their weight (copies per round of the seeded deck).
    fn kinds(&self) -> Vec<(&'static str, usize)>;

    /// Runs one op of `kind`. Everything inside is timed as the op.
    ///
    /// # Errors
    ///
    /// An error the program returned, or a missing result.
    fn run(&mut self, kind: usize, tr: &Tracer) -> Result<Self::Out, String>;

    /// Checks an op's output against its reference (not timed).
    ///
    /// # Errors
    ///
    /// The first difference.
    fn check(&self, kind: usize, out: &Self::Out) -> Result<(), Mismatch>;

    /// One untimed op of every kind, so lazy set-up finishes.
    ///
    /// # Errors
    ///
    /// The first op that failed.
    fn warm_up(&mut self) -> Result<(), String> {
        let tr = Tracer::new(Instant::now());
        for k in 0..self.kinds().len() {
            self.run(k, &tr)?;
        }
        Ok(())
    }
}

/// Samples a run's loops keep room for, written once before the timed
/// phase: the benchmark's own memory then stays the same whatever the op
/// rate, so `peak_rss_mib` does not grow when the program gets faster.
pub const SAMPLE_CAPACITY: usize = 1 << 19;

/// Why an op's output failed its check.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// The first difference.
    pub what: String,
    /// Whether each fault's verdict (detected or not, and the first
    /// detecting pair) still matches the reference, so that only counts
    /// differ.
    pub verdicts_match: bool,
}

impl From<String> for Mismatch {
    /// A failure that is not a mere count difference.
    fn from(what: String) -> Self {
        Mismatch {
            what,
            verdicts_match: false,
        }
    }
}

/// One finished op (12 bytes, see [`SAMPLE_CAPACITY`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// Op kind index.
    pub kind: u16,
    /// Wall latency in nanoseconds, saturating at about 4.3 s.
    pub ns: u32,
    /// Whether it ran with spans on.
    pub traced: bool,
    /// Whether its output passed the check.
    pub ok: bool,
    /// Whether its per-fault verdicts matched the reference (true when
    /// `ok`; when not, whether only counts differed).
    pub verdicts_ok: bool,
}

/// What one client's closed loop produced.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Every op, in order.
    pub samples: Vec<Sample>,
    /// Ops per deck round; the untraced samples form whole rounds.
    pub round_len: usize,
    /// Share of the rounds, the fastest ones, that the timing metrics are
    /// taken over (see [`QUIET_SHARE`]).
    pub quiet_share: f64,
    /// The first few check failures, for the log.
    pub failures: Vec<String>,
    /// Spans of the traced ops.
    pub spans: Vec<Span>,
    /// Counts of the traced ops.
    pub counts: Vec<Count>,
    /// Op kind names, by kind index.
    pub kind_names: Vec<&'static str>,
    /// When the first segment started; span times count from it.
    pub epoch: Option<Instant>,
}

impl LoopResult {
    /// An empty result with room for `capacity` samples written before
    /// the timed phase, timed over the fastest `quiet_share` of its rounds.
    #[must_use]
    pub fn new(capacity: usize, quiet_share: f64) -> Self {
        let mut out = LoopResult {
            quiet_share,
            ..LoopResult::default()
        };
        out.samples.resize(capacity, Sample::default());
        out.samples.clear();
        out
    }

    /// Untraced deck rounds run so far.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.samples.iter().filter(|s| !s.traced).count() / self.round_len.max(1)
    }

    /// The untraced ops of the fastest `quiet_share` of this loop's deck
    /// rounds (at least one round), ranked by their summed latency.
    #[must_use]
    pub fn quiet_ops(&self) -> Vec<Sample> {
        let untraced: Vec<Sample> = self.samples.iter().filter(|s| !s.traced).copied().collect();
        let mut rounds: Vec<&[Sample]> = untraced.chunks_exact(self.round_len.max(1)).collect();
        let round_ns = |r: &[Sample]| r.iter().map(|s| u64::from(s.ns)).sum::<u64>();
        rounds.sort_by_key(|r| round_ns(r));
        let keep = ((rounds.len() as f64 * self.quiet_share).ceil() as usize).max(1);
        rounds.into_iter().take(keep).flatten().copied().collect()
    }
}

/// Deck rounds a loop needs so that the fastest `quiet_share` of them hold
/// `ops` ops.
#[must_use]
pub fn rounds_for(ops: usize, round_len: usize, quiet_share: f64) -> usize {
    (ops.div_ceil(round_len.max(1)) as f64 / quiet_share).ceil() as usize
}

/// Runs `w` in a closed loop, appending to `out`: whole deck rounds of
/// draw a kind, run it, check it, until `budget` has passed and `out`
/// holds at least `min_rounds` rounds (or [`MAX_LOOP`] has passed). With
/// `traced`, every drawn op runs twice, first untraced and then traced, so
/// both halves see the same mix and the same host drift. Op ids count up
/// from `op_base`. Checks are not timed.
pub fn closed_loop<W: Workload>(
    w: &mut W,
    deck: &mut Deck,
    out: &mut LoopResult,
    budget: Duration,
    min_rounds: usize,
    traced: bool,
    op_base: u64,
) {
    let start = Instant::now();
    let tracer = Tracer::new(*out.epoch.get_or_insert(start));
    out.kind_names = w.kinds().iter().map(|k| k.0).collect();
    out.round_len = deck.round_len();
    let mut rounds = out.rounds();
    while (start.elapsed() < budget || rounds < min_rounds) && start.elapsed() < MAX_LOOP {
        rounds += 1;
        for _ in 0..out.round_len {
            let kind = deck.draw();
            let modes: &[bool] = if traced { &[false, true] } else { &[false] };
            for &on in modes {
                let op = op_base + out.samples.len() as u64;
                tracer.begin_op(op, on);
                let t = Instant::now();
                let result = tracer.span("op", || w.run(kind, &tracer));
                let ns = u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX);
                tracer.begin_op(op, false);
                let checked = result
                    .map_err(Mismatch::from)
                    .and_then(|o| w.check(kind, &o));
                if let Err(e) = &checked {
                    if out.failures.len() < 5 {
                        out.failures
                            .push(format!("op {op} ({}): {}", out.kind_names[kind], e.what));
                    }
                }
                out.samples.push(Sample {
                    kind: u16::try_from(kind).expect("fewer than 65536 op kinds"),
                    ns,
                    traced: on,
                    ok: checked.is_ok(),
                    verdicts_ok: checked
                        .as_ref()
                        .map_or_else(|e| e.verdicts_match, |()| true),
                });
            }
        }
    }
    let (spans, counts) = tracer.into_parts();
    // Parents index this loop's spans; shift them past earlier segments'.
    let base = out.spans.len();
    out.spans.extend(spans.into_iter().map(|mut sp| {
        sp.parent = sp.parent.map(|p| p + base);
        sp
    }));
    out.counts.extend(counts);
}

/// One op kind's untraced ops in a run.
#[derive(Debug, Clone)]
pub struct KindSummary {
    /// Op kind name.
    pub name: &'static str,
    /// Untraced ops run.
    pub ops: usize,
    /// Of those, ops that failed.
    pub failed: usize,
    /// Of those, ops whose per-fault verdicts differed from the reference.
    pub verdicts_failed: usize,
    /// Their median latency, ms.
    pub p50_ms: f64,
}

/// Per op kind summaries, for the log.
#[must_use]
pub fn per_kind(loops: &[LoopResult]) -> Vec<KindSummary> {
    let names = loops
        .first()
        .map(|l| l.kind_names.clone())
        .unwrap_or_default();
    names
        .iter()
        .enumerate()
        .map(|(k, &name)| {
            let ops: Vec<&Sample> = loops
                .iter()
                .flat_map(|l| &l.samples)
                .filter(|s| usize::from(s.kind) == k && !s.traced)
                .collect();
            let ms: Vec<f64> = ops.iter().map(|s| f64::from(s.ns) / 1e6).collect();
            KindSummary {
                name,
                ops: ops.len(),
                failed: ops.iter().filter(|s| !s.ok).count(),
                verdicts_failed: ops.iter().filter(|s| !s.verdicts_ok).count(),
                p50_ms: quantile(&ms, 0.5),
            }
        })
        .collect()
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Ops attempted, failed, and failed with differing verdicts over `loops`.
#[must_use]
pub fn tally(loops: &[LoopResult]) -> (usize, usize, usize) {
    let samples = || loops.iter().flat_map(|l| &l.samples);
    (
        samples().count(),
        samples().filter(|s| !s.ok).count(),
        samples().filter(|s| !s.verdicts_ok).count(),
    )
}

/// Peak resident set (`VmHWM`) of this process in MiB, `0.0` where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The end-to-end metrics of an untraced run. Timings are over the quiet
/// rounds of each client loop (see [`LoopResult::quiet_ops`]): latencies
/// over all of their ops, throughput as each client's ops per second of
/// op latency (checks excluded), summed over the clients.
#[must_use]
pub fn end_to_end(loops: &[LoopResult], setup_s: f64) -> Vec<Metric> {
    let quiet: Vec<Vec<Sample>> = loops.iter().map(LoopResult::quiet_ops).collect();
    let ms: Vec<f64> = quiet
        .iter()
        .flatten()
        .map(|s| f64::from(s.ns) / 1e6)
        .collect();
    let ops_per_s = quiet
        .iter()
        .map(|q| {
            let ns: u64 = q.iter().map(|s| u64::from(s.ns)).sum();
            q.len() as f64 / (ns.max(1) as f64 / 1e9)
        })
        .sum();
    let (attempted, failed, verdicts_failed) = tally(loops);
    let frac = |n: usize| n as f64 / attempted.max(1) as f64;
    vec![
        ("setup_s", setup_s, "s"),
        ("ops_per_s", ops_per_s, "1/s"),
        ("op_ms_p50", quantile(&ms, 0.5), "ms"),
        ("op_ms_p90", quantile(&ms, 0.9), "ms"),
        ("peak_rss_mib", peak_rss_mib(), "MiB"),
        ("failed_frac", frac(failed), "fraction"),
        ("verdict_failed_frac", frac(verdicts_failed), "fraction"),
    ]
}

/// Sums of span times and counts over the traced ops of a run.
#[derive(Debug, Default)]
pub struct Layers {
    /// Traced ops.
    pub ops: usize,
    /// Summed wall latency of the traced ops, ns.
    pub traced_ns: u64,
    /// Summed wall latency of the same ops run untraced, ns.
    pub untraced_ns: u64,
    /// Inclusive time per span name, ns.
    pub total_ns: BTreeMap<&'static str, u64>,
    /// Self time per span name, ns.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Summed counts per name.
    pub count: BTreeMap<&'static str, f64>,
    /// Occurrences per count name.
    pub count_n: BTreeMap<&'static str, usize>,
}

impl Layers {
    /// Folds the traced half of `loops` together.
    #[must_use]
    pub fn of(loops: &[LoopResult]) -> Self {
        let mut l = Layers::default();
        for lp in loops {
            for s in &lp.samples {
                if s.traced {
                    l.ops += 1;
                    l.traced_ns += u64::from(s.ns);
                } else {
                    l.untraced_ns += u64::from(s.ns);
                }
            }
            for (span, own) in lp.spans.iter().zip(self_times(&lp.spans)) {
                *l.total_ns.entry(span.name).or_default() += span.ns();
                *l.self_ns.entry(span.name).or_default() += own;
            }
            for c in &lp.counts {
                *l.count.entry(c.name).or_default() += c.value;
                *l.count_n.entry(c.name).or_default() += 1;
            }
        }
        l
    }

    fn per_op_ms(&self, ns: u64) -> f64 {
        ns as f64 / 1e6 / self.ops.max(1) as f64
    }

    /// Inclusive ms per traced op of the spans named `names`.
    #[must_use]
    pub fn total_ms(&self, names: &[&str]) -> f64 {
        self.per_op_ms(names.iter().filter_map(|n| self.total_ns.get(n)).sum())
    }

    /// Self ms per traced op of the spans named `names`.
    #[must_use]
    pub fn self_ms(&self, names: &[&str]) -> f64 {
        self.per_op_ms(names.iter().filter_map(|n| self.self_ns.get(n)).sum())
    }

    /// Summed count `name` (0 if never recorded).
    #[must_use]
    pub fn sum(&self, name: &str) -> f64 {
        self.count.get(name).copied().unwrap_or(0.0)
    }

    fn mean(&self, name: &str) -> f64 {
        self.sum(name) / self.count_n.get(name).copied().unwrap_or(0).max(1) as f64
    }

    /// Parse throughput of one netlist format in MB/s (0 if unused).
    fn parse_mb_per_s(&self, format: &str, span: &str) -> f64 {
        let ns = self.total_ns.get(span).copied().unwrap_or(0);
        if ns == 0 {
            return 0.0;
        }
        self.sum(&format!("netlist.bytes.{format}")) / 1e6 / (ns as f64 / 1e9)
    }

    /// Every per-layer metric; `serve` supplies the service-side numbers
    /// (zero on `paper_small`, which bypasses the service).
    #[must_use]
    pub fn metrics(&self, serve: &ServeLayer) -> Vec<Metric> {
        const CAMPAIGNS: [&str; 2] = ["faults.campaign", "seq.campaign"];
        let parses = [
            "netlist.parse.text",
            "netlist.parse.verilog",
            "netlist.parse.bench",
        ];
        let reps = self.sum("engine.collapse_reps");
        let skipped = self.sum("engine.cone_ops_skipped");
        let cone_total = skipped + self.sum("engine.cone_ops_evaluated");
        let ops = self.ops.max(1) as f64;
        vec![
            ("netlist.parse_ms", self.total_ms(&parses), "ms"),
            (
                "netlist.parse_mb_per_s.text",
                self.parse_mb_per_s("text", parses[0]),
                "MB/s",
            ),
            (
                "netlist.parse_mb_per_s.verilog",
                self.parse_mb_per_s("verilog", parses[1]),
                "MB/s",
            ),
            (
                "netlist.parse_mb_per_s.bench",
                self.parse_mb_per_s("bench", parses[2]),
                "MB/s",
            ),
            ("engine.compile_ms", self.self_ms(&["engine.compile"]), "ms"),
            (
                "engine.compile_mib",
                self.mean("engine.compile_bytes") / (1024.0 * 1024.0),
                "MiB",
            ),
            (
                "faults.enumerate_ms",
                self.total_ms(&["faults.enumerate"]),
                "ms",
            ),
            (
                "engine.collapse_ms",
                self.self_ms(&["engine.collapse"]),
                "ms",
            ),
            (
                "engine.collapse_ratio",
                if reps > 0.0 {
                    self.sum("engine.collapse_faults") / reps
                } else {
                    0.0
                },
                "ratio",
            ),
            ("engine.golden_ms", self.self_ms(&["engine.golden"]), "ms"),
            (
                "engine.fault_sim_ms",
                self.self_ms(&["engine.fault_sim"]),
                "ms",
            ),
            ("engine.merge_ms", self.self_ms(&["engine.merge"]), "ms"),
            ("engine.unattributed_ms", self.self_ms(&CAMPAIGNS), "ms"),
            (
                "engine.pairs_evaluated",
                self.sum("engine.pairs_evaluated") / ops,
                "count",
            ),
            (
                "engine.words_evaluated",
                self.sum("engine.words_evaluated") / ops,
                "count",
            ),
            (
                "engine.ops_skipped_frac",
                if cone_total > 0.0 {
                    skipped / cone_total
                } else {
                    0.0
                },
                "fraction",
            ),
            ("faults.campaign_ms", self.total_ms(&CAMPAIGNS[..1]), "ms"),
            ("seq.campaign_ms", self.total_ms(&CAMPAIGNS[1..2]), "ms"),
            ("obs.coverage_ms", self.total_ms(&["obs.coverage"]), "ms"),
            ("obs.to_json_ms", self.total_ms(&["obs.to_json"]), "ms"),
            (
                "obs.trace_overhead_frac",
                if self.traced_ns > 0 {
                    1.0 - self.untraced_ns as f64 / self.traced_ns as f64
                } else {
                    0.0
                },
                "fraction",
            ),
            (
                "serve.submit_accept_ms_p50",
                serve.submit_accept_ms_p50,
                "ms",
            ),
            ("serve.queue_wait_ms_p50", serve.queue_wait_ms_p50, "ms"),
            ("serve.run_ms_p50", serve.run_ms_p50, "ms"),
            ("serve.frames_per_job", serve.frames_per_job, "count"),
            ("serve.bytes_per_job", serve.bytes_per_job, "bytes"),
            ("serve.error_frames", serve.error_frames, "count"),
            ("bench.op_self_ms", self.self_ms(&["op"]), "ms"),
            ("bench.traced_op_ms", self.total_ms(&["op"]), "ms"),
        ]
    }
}

/// The service-side per-layer numbers of `serve_mix`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeLayer {
    /// Median request-line-read to accepted-frame time, ms.
    pub submit_accept_ms_p50: f64,
    /// Median time accepted work waited for a worker, ms.
    pub queue_wait_ms_p50: f64,
    /// Median campaign wall time inside the service, ms.
    pub run_ms_p50: f64,
    /// Frames the client read per job.
    pub frames_per_job: f64,
    /// Bytes the service sent per job.
    pub bytes_per_job: f64,
    /// Error frames received.
    pub error_frames: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(kind: u16, ns: u32, traced: bool) -> Sample {
        Sample {
            kind,
            ns,
            traced,
            ok: true,
            verdicts_ok: true,
        }
    }

    #[test]
    fn quiet_ops_are_the_fastest_whole_rounds() {
        // Rounds of two ops; round r takes 1000 + r ns per op, and every
        // untraced op is followed by a slow traced copy.
        let looped = |rounds: u32, share: f64| {
            let mut lp = LoopResult::new(0, share);
            lp.round_len = 2;
            for r in (0..rounds).rev() {
                for kind in 0..2 {
                    lp.samples.push(sample(kind, 1000 + r, false));
                    lp.samples.push(sample(kind, 9999, true));
                }
            }
            lp
        };
        let all = looped(40, 1.0);
        assert_eq!(all.rounds(), 40);
        assert_eq!(all.quiet_ops().len(), 80);
        let tenth = looped(2000, 0.1).quiet_ops();
        assert_eq!(tenth.len(), 400);
        assert!(tenth.iter().all(|s| s.ns < 1200 && !s.traced));
        assert_eq!(looped(3, 0.1).quiet_ops().len(), 2);
        assert_eq!(rounds_for(100, 7, 1.0), 15);
        assert_eq!(rounds_for(100, 8, 0.1), 130);
    }
}
