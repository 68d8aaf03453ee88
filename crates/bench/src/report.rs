//! BENCH snapshot and regression reporting — the `scal_report` binary's
//! engine.
//!
//! [`run_suite`] executes the standard campaign suite (the Fig. 3.4 and
//! Fig. 3.7 networks, the 8-bit ripple adder in fault-dropping mode, the
//! Chapter-4 sequential designs, and the Chapter-7 CPU adder) with a
//! [`CoverageObserver`] and a [`Profiler`] attached, and folds the results
//! into a [`Snapshot`]: per-circuit coverage fraction, undetected fault
//! sites, per-phase timings and pair throughput, stamped with the date and
//! git revision. [`Snapshot::to_json`] writes the machine-readable
//! `BENCH_<date>.json` form; [`compare`] diffs a snapshot against a
//! committed baseline and reports coverage and throughput regressions.
//!
//! Everything here is dependency-free: JSON comes from `scal_obs::json`,
//! the date from epoch civil-calendar arithmetic, the revision from a
//! best-effort `git rev-parse`.

use scal_core::paper;
use scal_engine::{
    detected_cpu_features, resolve_word_width, resolved_threads, CompiledCircuit, EvalMode,
};
use scal_netlist::synth::{self, SynthKind};
use scal_obs::json::{JsonObject, JsonValue};
use scal_obs::{CoverageMap, CoverageObserver, Profile, Profiler};
use scal_seq::kohavi::kohavi_0101;
use scal_seq::{code_conversion_machine, dual_ff_machine};
use scal_system::campaign::{Campaign as CpuCampaign, CpuUnit};
use std::fmt::Write as _;

/// Throughput drop (fraction of the baseline rate) tolerated before a run
/// counts as a performance regression.
pub const DEFAULT_MAX_PERF_DROP: f64 = 0.20;

/// Accumulated evaluation time per suite entry before its throughput is
/// trusted: the suite circuits are small (microsecond sweeps), so each
/// campaign repeats until this much eval time is banked and the best rate
/// is kept.
const MIN_EVAL_MICROS: u64 = 100_000;

/// Repetition cap per suite entry (guards against a zero-time eval loop).
const MAX_REPS: usize = 500;

/// Bytes per mebibyte, for the render's compile-memory lines.
const MIB: f64 = 1024.0 * 1024.0;

/// Repeats `run` until [`MIN_EVAL_MICROS`] of eval time accumulates on
/// `prof`'s latest profiles, returning the aggregate pairs-per-second over
/// every rep. Aggregating (rather than taking one rep) averages away the
/// microsecond timer quantization the small suite circuits suffer.
fn aggregate_rate(prof: &Profiler, mut run: impl FnMut()) -> Option<f64> {
    let mut pairs = 0u64;
    let mut eval = 0u64;
    for _ in 0..MAX_REPS {
        run();
        let p = prof.latest().expect("profile after rep");
        pairs += p.pairs;
        eval += p.eval_micros().unwrap_or(p.micros);
        if eval >= MIN_EVAL_MICROS {
            break;
        }
    }
    (eval > 0 && pairs > 0).then(|| pairs as f64 * 1e6 / eval as f64)
}

/// One suite circuit's results inside a [`Snapshot`].
#[derive(Debug, Clone)]
pub struct CircuitBench {
    /// Suite entry name (`"fig3_4"`, `"adder8_drop"`, …).
    pub name: String,
    /// Suite tier the row belongs to (`"standard"` or `"large"`).
    pub suite: String,
    /// Campaign flavour that produced it (`"pair"`, `"seq"`, `"cpu_adder"`,
    /// or `"compile"` for compile-only scaling rows).
    pub campaign: String,
    /// Faults simulated.
    pub faults: usize,
    /// Faults with at least one detection.
    pub detected: usize,
    /// Detected fraction (1.0 when `faults == 0`).
    pub coverage: f64,
    /// Labels of the undetected fault sites, in fault order.
    pub undetected: Vec<String>,
    /// Alternating pairs (or driven words / CPU periods-in-pairs) evaluated.
    pub pairs: u64,
    /// Pair throughput over the evaluation phase alone, when measurable.
    pub pairs_per_sec: Option<f64>,
    /// Per-phase wall times in microseconds, in emission order.
    pub phases: Vec<(String, u64)>,
    /// Compile-phase wall time in microseconds, when the campaign compiled
    /// through the engine.
    pub compile_micros: Option<u64>,
    /// Peak resident bytes of the compiled schedule (the engine's
    /// `compile_mem` span), when available.
    pub compile_bytes: Option<u64>,
    /// Evaluation word width in 64-bit sub-words, from the campaign's
    /// `lane_geometry` event (`0` when the campaign emitted none).
    pub word_width: u64,
    /// Distinct faults packed into the bit lanes of one evaluation word.
    pub fault_lanes: u64,
    /// Alternating pairs evaluated per wide sweep.
    pub pattern_lanes: u64,
    /// Lane-packing flavour (`"pattern"`, `"fault"`, `"seq"`, `"scalar"`,
    /// or empty).
    pub packing: String,
    /// Original faults handed to the compile-time fault-collapsing pass
    /// (0 when collapsing was off or the campaign has no collapse pass).
    pub collapse_faults: u64,
    /// Equivalence-class representatives the campaign actually simulated.
    pub collapse_representatives: u64,
    /// `collapse_faults / collapse_representatives`, when collapsing ran.
    pub collapse_ratio: Option<f64>,
}

impl CircuitBench {
    fn from_parts(name: &str, map: &CoverageMap, profile: &Profile, rate: Option<f64>) -> Self {
        CircuitBench {
            name: name.to_string(),
            suite: "standard".to_string(),
            campaign: map.campaign.clone(),
            faults: map.records.len(),
            detected: map.detected_count(),
            coverage: map.coverage_fraction(),
            undetected: map
                .undetected()
                .map(|r| {
                    if r.label.is_empty() {
                        format!("fault #{}", r.fault)
                    } else {
                        r.label.clone()
                    }
                })
                .collect(),
            pairs: profile.pairs,
            pairs_per_sec: rate.or_else(|| profile.pairs_per_sec()),
            phases: profile
                .phases
                .iter()
                .map(|p| (p.name.clone(), p.micros))
                .collect(),
            compile_micros: profile.phase_micros("compile"),
            compile_bytes: profile
                .spans
                .iter()
                .find(|s| s.name == "compile_mem")
                .map(|s| s.items),
            word_width: profile.word_width,
            fault_lanes: profile.fault_lanes,
            pattern_lanes: profile.pattern_lanes,
            packing: profile.packing.clone(),
            collapse_faults: profile.collapse_faults,
            collapse_representatives: profile.collapse_representatives,
            collapse_ratio: profile.collapse_ratio(),
        }
    }
}

/// Full-vs-cone throughput measurement on the adder8 full-fault campaign —
/// the headline number of the cone-restricted evaluation path.
#[derive(Debug, Clone)]
pub struct ConeSpeedup {
    /// Eval-phase pair throughput in [`EvalMode::Full`].
    pub full_pairs_per_sec: f64,
    /// Eval-phase pair throughput in [`EvalMode::Cone`].
    pub cone_pairs_per_sec: f64,
    /// `cone_pairs_per_sec / full_pairs_per_sec`.
    pub speedup: f64,
    /// Fraction of full-schedule op evaluations the cone path skipped —
    /// the profiler's attribution of where the speedup comes from.
    pub ops_skipped_fraction: f64,
}

/// Serve-path latency quantiles measured over an in-process campaign
/// service: a throwaway server on a loopback port runs a burst of demo
/// pair jobs and the scheduler's own telemetry histograms are read back
/// directly (no scrape). All values in microseconds.
#[derive(Debug, Clone)]
pub struct ServeLatency {
    /// Jobs in the burst.
    pub jobs: u64,
    /// Request-line read → `accepted` frame sent, p50.
    pub submit_accept_p50: u64,
    /// Request-line read → `accepted` frame sent, p99.
    pub submit_accept_p99: u64,
    /// Accepted → execution start, p50.
    pub queue_wait_p50: u64,
    /// Accepted → execution start, p99.
    pub queue_wait_p99: u64,
    /// Campaign wall time, p50.
    pub run_p50: u64,
    /// Campaign wall time, p99.
    pub run_p99: u64,
}

/// A full BENCH snapshot: the suite results plus provenance.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// UTC date (`YYYY-MM-DD`) the suite ran.
    pub date: String,
    /// Short git revision, or `"unknown"` outside a repository.
    pub git_rev: String,
    /// Resolved engine worker-thread count the suite ran with (an `auto`
    /// request is resolved to the machine's parallelism before recording,
    /// so snapshots stay comparable across machines).
    pub threads: usize,
    /// Faulty-sweep evaluation strategy the engine entries ran with.
    pub eval_mode: String,
    /// Resolved evaluation word width in 64-bit sub-words (a `0` request is
    /// resolved through CPU-feature detection before recording, so
    /// snapshots document what actually ran).
    pub word_width: usize,
    /// Wide-word CPU features detected on the suite machine (`"avx2"`,
    /// `"avx512f"`); empty on other architectures.
    pub cpu_features: Vec<String>,
    /// Suite tier the snapshot ran (`"standard"` or `"large"`).
    pub suite: String,
    /// Per-circuit results, in suite order.
    pub circuits: Vec<CircuitBench>,
    /// Measured full-vs-cone throughput on the adder8 full-fault campaign.
    pub adder8_speedup: Option<ConeSpeedup>,
    /// Serve-path latency quantiles from an in-process service burst.
    pub serve_latency: Option<ServeLatency>,
}

impl Snapshot {
    /// Serializes the snapshot as one JSON object (the `BENCH_<date>.json`
    /// schema).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.str("schema", "scal-bench-snapshot-v1");
        o.str("date", &self.date);
        o.str("git_rev", &self.git_rev);
        o.num("threads", self.threads as u64);
        o.str("eval_mode", &self.eval_mode);
        o.num("word_width", self.word_width as u64);
        let mut features = o.array("cpu_features");
        for f in &self.cpu_features {
            features.str(f);
        }
        features.finish();
        o.str("suite", &self.suite);
        let mut circuits = o.array("circuits");
        for c in &self.circuits {
            let mut co = circuits.object();
            co.str("name", &c.name);
            co.str("suite", &c.suite);
            co.str("campaign", &c.campaign);
            co.num("faults", c.faults as u64);
            co.num("detected", c.detected as u64);
            co.float("coverage", c.coverage);
            let mut undetected = co.array("undetected");
            for l in &c.undetected {
                undetected.str(l);
            }
            undetected.finish();
            co.num("pairs", c.pairs);
            if let Some(r) = c.pairs_per_sec {
                co.float("pairs_per_sec", r);
            }
            if let Some(us) = c.compile_micros {
                co.num("compile_micros", us);
            }
            if let Some(bytes) = c.compile_bytes {
                co.num("compile_bytes", bytes);
            }
            if c.word_width > 0 {
                co.num("word_width", c.word_width);
                co.num("fault_lanes", c.fault_lanes);
                co.num("pattern_lanes", c.pattern_lanes);
                co.str("packing", &c.packing);
            }
            if let Some(r) = c.collapse_ratio {
                co.num("collapse_faults", c.collapse_faults);
                co.num("collapse_representatives", c.collapse_representatives);
                co.float("collapse_ratio", r);
            }
            let mut po = co.object("phases");
            for (name, micros) in &c.phases {
                let _ = write!(po.value_dyn(name), "{micros}");
            }
            po.finish();
            co.finish();
        }
        circuits.finish();
        if let Some(s) = &self.adder8_speedup {
            let mut so = o.object("adder8_speedup");
            so.float("full_pairs_per_sec", s.full_pairs_per_sec);
            so.float("cone_pairs_per_sec", s.cone_pairs_per_sec);
            so.float("speedup", s.speedup);
            so.float("ops_skipped_fraction", s.ops_skipped_fraction);
            so.finish();
        }
        if let Some(s) = &self.serve_latency {
            let mut so = o.object("serve_latency");
            so.num("jobs", s.jobs);
            so.num("submit_accept_p50_micros", s.submit_accept_p50);
            so.num("submit_accept_p99_micros", s.submit_accept_p99);
            so.num("queue_wait_p50_micros", s.queue_wait_p50);
            so.num("queue_wait_p99_micros", s.queue_wait_p99);
            so.num("run_p50_micros", s.run_p50);
            so.num("run_p99_micros", s.run_p99);
            so.finish();
        }
        o.finish()
    }

    /// Renders the human-readable suite summary, including the
    /// undetected-fault lists.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "BENCH snapshot {} @ {} ({} suite, threads {}, {} eval, W={} [{}])",
            self.date,
            self.git_rev,
            self.suite,
            self.threads,
            self.eval_mode,
            self.word_width,
            if self.cpu_features.is_empty() {
                "no wide-word features".to_string()
            } else {
                self.cpu_features.join(",")
            }
        );
        for c in &self.circuits {
            let rate = match c.pairs_per_sec {
                Some(r) => format!("{r:.0} pairs/s"),
                None => "n/a".to_string(),
            };
            let lanes = if c.word_width > 0 {
                format!(", W={} {}", c.word_width, c.packing)
            } else {
                String::new()
            };
            let collapse = match c.collapse_ratio {
                Some(r) => format!(", collapse {r:.2}x ({} reps)", c.collapse_representatives),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "  {:<16} [{:<10}] coverage {:>5.1}% ({}/{}), {} pairs, {rate}{lanes}{collapse}",
                c.name,
                c.campaign,
                100.0 * c.coverage,
                c.detected,
                c.faults,
                c.pairs
            );
            if let Some(us) = c.compile_micros {
                let bytes = c
                    .compile_bytes
                    .map_or("n/a".to_string(), |b| format!("{:.1} MiB", b as f64 / MIB));
                let _ = writeln!(out, "      compile: {:.1} ms, {bytes}", us as f64 / 1e3);
            }
            for label in &c.undetected {
                let _ = writeln!(out, "      undetected: {label}");
            }
        }
        if let Some(s) = &self.adder8_speedup {
            let _ = writeln!(
                out,
                "  adder8 full-fault eval: {:.0} pairs/s full -> {:.0} pairs/s cone \
                 ({:.1}x, {:.1}% of full-schedule op evals skipped)",
                s.full_pairs_per_sec,
                s.cone_pairs_per_sec,
                s.speedup,
                100.0 * s.ops_skipped_fraction
            );
        }
        if let Some(s) = &self.serve_latency {
            let _ = writeln!(
                out,
                "  serve path ({} jobs): submit->accept {}/{} µs, queue wait {}/{} µs, \
                 run {}/{} µs (p50/p99)",
                s.jobs,
                s.submit_accept_p50,
                s.submit_accept_p99,
                s.queue_wait_p50,
                s.queue_wait_p99,
                s.run_p50,
                s.run_p99
            );
        }
        out
    }
}

/// A regression [`compare`] found against the baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Regression {
    /// Suite circuit name.
    pub circuit: String,
    /// `true` for a coverage regression (blocking), `false` for a
    /// throughput regression (warning-grade).
    pub coverage: bool,
    /// Human-readable description.
    pub detail: String,
}

/// Measures eval-phase throughput of the adder8 full-fault campaign (no
/// dropping) in both eval modes, plus the cone run's skipped-op fraction.
fn measure_adder8_speedup(threads: usize) -> Option<ConeSpeedup> {
    let circuit = paper::ripple_adder(8);
    let mut rates = [0.0f64; 2];
    let mut skipped = 0.0f64;
    for (i, mode) in [EvalMode::Full, EvalMode::Cone].into_iter().enumerate() {
        let prof = Profiler::new();
        let rate = aggregate_rate(&prof, || {
            let _ = scal_faults::Campaign::new(&circuit)
                .threads(threads)
                .eval_mode(mode)
                .observer(&prof)
                .run()
                .expect("adder8 is engine-compatible");
        })?;
        rates[i] = rate;
        if mode == EvalMode::Cone {
            skipped = prof
                .latest()
                .and_then(|p| p.ops_skipped_fraction())
                .unwrap_or(0.0);
        }
    }
    (rates[0] > 0.0).then(|| ConeSpeedup {
        full_pairs_per_sec: rates[0],
        cone_pairs_per_sec: rates[1],
        speedup: rates[1] / rates[0],
        ops_skipped_fraction: skipped,
    })
}

/// Jobs in the serve-latency burst: enough samples for a meaningful p99
/// on small loopback latencies without stretching the suite run.
const SERVE_LATENCY_JOBS: usize = 32;

/// Measures serve-path latency quantiles: starts an in-process campaign
/// service on a loopback port, fires [`SERVE_LATENCY_JOBS`] concurrent
/// demo pair jobs through real TCP submissions, and reads the scheduler's
/// own telemetry histograms back through [`scal_serve::ServerHandle::telemetry`]
/// (no HTTP scrape involved). `None` when the loopback bind fails (e.g. a
/// sandbox without sockets).
fn measure_serve_latency() -> Option<ServeLatency> {
    use scal_serve::client::demo;
    let server = scal_serve::serve(scal_serve::ServeConfig::default()).ok()?;
    let client = scal_serve::Client::new(server.addr().to_string());
    if !client.wait_ready(std::time::Duration::from_secs(5)) {
        server.shutdown_and_join();
        return None;
    }
    let handles: Vec<_> = (0..SERVE_LATENCY_JOBS)
        .map(|_| {
            let client = client.clone();
            std::thread::spawn(move || {
                let Ok(stream) = client.submit(&demo::pair_spec(4, false)) else {
                    return false;
                };
                stream
                    .filter_map(Result::ok)
                    .any(|f| f.get("frame").and_then(JsonValue::as_str) == Some("result"))
            })
        })
        .collect();
    let completed = handles
        .into_iter()
        .map(|h| h.join().unwrap_or(false))
        .filter(|&ok| ok)
        .count();
    let metrics = std::sync::Arc::clone(server.telemetry());
    server.shutdown_and_join();
    if completed == 0 {
        return None;
    }
    let m = metrics.metrics();
    let q = |name: &str| {
        let snap = m.histogram(name).snapshot();
        (snap.quantile(0.5), snap.quantile(0.99))
    };
    let (sa50, sa99) = q("scal_serve_submit_accept_micros");
    let (qw50, qw99) = q("scal_serve_queue_wait_micros");
    let (run50, run99) = q("scal_serve_run_micros");
    Some(ServeLatency {
        jobs: completed as u64,
        submit_accept_p50: sa50,
        submit_accept_p99: sa99,
        queue_wait_p50: qw50,
        queue_wait_p99: qw99,
        run_p50: run50,
        run_p99: run99,
    })
}

/// The fixed drive the sequential suite entries replay.
fn suite_words() -> Vec<Vec<bool>> {
    [0u32, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 0, 1]
        .iter()
        .map(|&s| vec![s == 1])
        .collect()
}

/// Runs the standard suite and returns the stamped snapshot.
///
/// `threads` is the engine worker count (`0` = auto, resolved before
/// recording); the CPU entry is unaffected by it. `eval_mode` selects the
/// faulty-sweep strategy of the engine entries; the adder8 full-vs-cone
/// speedup is measured in both modes regardless. `word_width` is the
/// evaluation word width in 64-bit sub-words (`0` = CPU-feature
/// detection); the small Ch. 3 networks additionally enable fault-per-lane
/// packing, which is where wide words pay off on short pattern spaces.
/// `fault_collapse` switches compile-time fault collapsing on every suite
/// campaign, the CPU entry included.
///
/// # Panics
///
/// Panics if a suite circuit fails to compile or simulate — the suite is
/// fixed and known-good, so that is a build break, not a report outcome —
/// or if `word_width` names an unusable width.
#[must_use]
pub fn run_suite(
    threads: usize,
    eval_mode: EvalMode,
    word_width: usize,
    fault_collapse: bool,
) -> Snapshot {
    let mut circuits = Vec::new();

    // Combinational pair campaigns (Ch. 3 networks + the ripple adder in
    // classic fault-dropping mode). The Ch. 3 networks pack faults into
    // lanes: their 4-pair pattern spaces leave wide words idle otherwise.
    let pair_suite = [
        ("fig3_4", paper::fig3_4().circuit, false, true),
        ("fig3_7", paper::fig3_7().circuit, false, true),
        ("adder8_drop", paper::ripple_adder(8), true, false),
    ];
    for (name, circuit, drop, pack) in pair_suite {
        let cov = CoverageObserver::new();
        let prof = Profiler::new();
        let rate = aggregate_rate(&prof, || {
            let _ = scal_faults::Campaign::new(&circuit)
                .threads(threads)
                .drop_after_detection(drop)
                .eval_mode(eval_mode)
                .word_width(word_width)
                .fault_packing(pack)
                .fault_collapse(fault_collapse)
                .observer(&prof)
                .coverage(&cov)
                .run()
                .expect("suite circuits are engine-compatible");
        });
        let map = cov.latest().expect("coverage map");
        let profile = prof.latest().expect("profile");
        circuits.push(CircuitBench::from_parts(name, &map, &profile, rate));
    }

    // Chapter-4 sequential designs under a fixed drive.
    let m = kohavi_0101();
    let words = suite_words();
    let seq_suite = [
        ("kohavi_dualff", dual_ff_machine(&m)),
        ("kohavi_codeconv", code_conversion_machine(&m)),
    ];
    for (name, machine) in seq_suite {
        let cov = CoverageObserver::new();
        let prof = Profiler::new();
        let rate = aggregate_rate(&prof, || {
            scal_seq::Campaign::new(&machine, &words)
                .threads(threads)
                .word_width(word_width)
                .fault_collapse(fault_collapse)
                .observer(&prof)
                .coverage(&cov)
                .run()
                .expect("suite machines are engine-compatible");
        });
        let map = cov.latest().expect("coverage map");
        let profile = prof.latest().expect("profile");
        circuits.push(CircuitBench::from_parts(name, &map, &profile, rate));
    }

    // Chapter-7 CPU datapath campaign (adder unit, default workloads). A
    // single run banks plenty of eval time, so no repetition here.
    let cov = CoverageObserver::new();
    let prof = Profiler::new();
    let rate = aggregate_rate(&prof, || {
        CpuCampaign::new(CpuUnit::Adder)
            .fault_collapse(fault_collapse)
            .observer(&prof)
            .coverage(&cov)
            .run()
            .expect("default workloads pass fault-free");
    });
    let map = cov.latest().expect("coverage map");
    let profile = prof.latest().expect("profile");
    circuits.push(CircuitBench::from_parts("cpu_adder", &map, &profile, rate));

    Snapshot {
        date: today_utc(),
        git_rev: git_rev(),
        threads: resolved_threads(threads),
        eval_mode: eval_mode.name().to_string(),
        word_width: resolve_word_width(word_width).expect("suite word width is usable"),
        cpu_features: detected_cpu_features()
            .iter()
            .map(ToString::to_string)
            .collect(),
        suite: "standard".to_string(),
        circuits,
        adder8_speedup: measure_adder8_speedup(threads),
        serve_latency: measure_serve_latency(),
    }
}

/// Fault budget of the large suite's campaign row: enough faults to pin the
/// engine's scaling behaviour without sweeping the full 100k+ site list.
const LARGE_SUITE_FAULTS: usize = 256;

/// Deterministic seed of the large suite's generated circuits.
const LARGE_SUITE_SEED: u64 = 42;

/// A compile-only scaling row: generates the circuit, compiles it through
/// the engine with stage timing, and records schedule size and footprint
/// (coverage fields are vacuous — no faults are simulated).
fn compile_only_row(name: &str, kind: SynthKind, target_gates: usize) -> CircuitBench {
    let circuit = synth::generate(kind, target_gates, LARGE_SUITE_SEED);
    let t = std::time::Instant::now();
    let (cc, _spans) =
        CompiledCircuit::try_compile_timed(&circuit).expect("generated circuits are engine-clean");
    let compile_micros = u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX);
    CircuitBench {
        name: name.to_string(),
        suite: "large".to_string(),
        campaign: "compile".to_string(),
        faults: 0,
        detected: 0,
        coverage: 1.0,
        undetected: Vec::new(),
        pairs: 0,
        pairs_per_sec: None,
        phases: vec![("compile".to_string(), compile_micros)],
        compile_micros: Some(compile_micros),
        compile_bytes: Some(cc.memory_bytes()),
        word_width: 0,
        fault_lanes: 0,
        pattern_lanes: 0,
        packing: String::new(),
        collapse_faults: 0,
        collapse_representatives: 0,
        collapse_ratio: None,
    }
}

/// Runs the synthetic large-circuit suite and returns the stamped snapshot.
///
/// `target_gates` sizes every generated design (gate counts land within a
/// constructive rounding of the target). One row — the self-dualized random
/// network, whose 13 inputs keep the pair sweep tractable — runs a real
/// engine campaign over the first 256 enumerated faults (the private
/// `LARGE_SUITE_FAULTS` budget, collapsed per `fault_collapse`);
/// the remaining generators produce compile-only scaling rows (compile wall
/// time + schedule footprint), since their input counts exceed the engine's
/// exhaustive-sweep domain.
///
/// # Panics
///
/// Panics if a generated circuit fails to compile or simulate — the
/// generators are deterministic and tested, so that is a build break — or
/// if `word_width` names an unusable width.
#[must_use]
pub fn run_large_suite(
    threads: usize,
    eval_mode: EvalMode,
    target_gates: usize,
    word_width: usize,
    fault_collapse: bool,
) -> Snapshot {
    let mut circuits = Vec::new();

    // Campaign row: truncated fault sweep on the self-dualized random DAG.
    let selfdual = synth::generate(SynthKind::RandomSelfDual, target_gates, LARGE_SUITE_SEED);
    let faults: Vec<_> = scal_faults::enumerate_faults(&selfdual)
        .into_iter()
        .take(LARGE_SUITE_FAULTS)
        .collect();
    let cov = CoverageObserver::new();
    let prof = Profiler::new();
    let _ = scal_faults::Campaign::new(&selfdual)
        .faults(faults)
        .threads(threads)
        .eval_mode(eval_mode)
        .word_width(word_width)
        .fault_collapse(fault_collapse)
        .observer(&prof)
        .coverage(&cov)
        .run()
        .expect("self-dual generator emits engine-compatible circuits");
    let map = cov.latest().expect("coverage map");
    let profile = prof.latest().expect("profile");
    let mut row = CircuitBench::from_parts("synth_selfdual", &map, &profile, None);
    row.suite = "large".to_string();
    circuits.push(row);

    // Compile-only scaling rows over the wide arithmetic generators.
    for (name, kind) in [
        ("synth_ripple", SynthKind::RippleAdder),
        ("synth_csel", SynthKind::CarrySelect),
        ("synth_mult", SynthKind::MultiplierTree),
        ("synth_chain", SynthKind::ChainedMachines),
    ] {
        circuits.push(compile_only_row(name, kind, target_gates));
    }

    Snapshot {
        date: today_utc(),
        git_rev: git_rev(),
        threads: resolved_threads(threads),
        eval_mode: eval_mode.name().to_string(),
        word_width: resolve_word_width(word_width).expect("suite word width is usable"),
        cpu_features: detected_cpu_features()
            .iter()
            .map(ToString::to_string)
            .collect(),
        suite: "large".to_string(),
        circuits,
        adder8_speedup: None,
        serve_latency: None,
    }
}

/// Diffs `current` against a parsed baseline `BENCH_*.json`, reporting
/// coverage regressions (blocking) and throughput drops beyond
/// `max_perf_drop` (e.g. `0.20` = 20%).
#[must_use]
pub fn compare(current: &Snapshot, baseline: &JsonValue, max_perf_drop: f64) -> Vec<Regression> {
    let mut out = Vec::new();
    let Some(base_circuits) = baseline.get("circuits").and_then(JsonValue::as_array) else {
        out.push(Regression {
            circuit: "<baseline>".to_string(),
            coverage: true,
            detail: "baseline has no circuits array".to_string(),
        });
        return out;
    };
    for base in base_circuits {
        let Some(name) = base.get("name").and_then(JsonValue::as_str) else {
            continue;
        };
        let Some(cur) = current.circuits.iter().find(|c| c.name == name) else {
            out.push(Regression {
                circuit: name.to_string(),
                coverage: true,
                detail: "circuit missing from current run".to_string(),
            });
            continue;
        };
        if let Some(base_cov) = base.get("coverage").and_then(JsonValue::as_f64) {
            if cur.coverage < base_cov - 1e-9 {
                out.push(Regression {
                    circuit: name.to_string(),
                    coverage: true,
                    detail: format!(
                        "coverage {:.4} below baseline {:.4}",
                        cur.coverage, base_cov
                    ),
                });
            }
        }
        if let (Some(base_rate), Some(cur_rate)) = (
            base.get("pairs_per_sec").and_then(JsonValue::as_f64),
            cur.pairs_per_sec,
        ) {
            if base_rate > 0.0 && cur_rate < base_rate * (1.0 - max_perf_drop) {
                out.push(Regression {
                    circuit: name.to_string(),
                    coverage: false,
                    detail: format!(
                        "throughput {cur_rate:.0} pairs/s is {:.0}% below baseline {base_rate:.0}",
                        100.0 * (1.0 - cur_rate / base_rate)
                    ),
                });
            }
        }
    }
    out
}

/// Today's UTC date as `YYYY-MM-DD`, from the system clock.
#[must_use]
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Proleptic-Gregorian civil date from days since 1970-01-01 (Hinnant's
/// `civil_from_days` algorithm).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097) as u64;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Best-effort short git revision of the working tree; `"unknown"` when git
/// or the repository is unavailable.
#[must_use]
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use scal_obs::json::{parse, validate_jsonl};

    #[test]
    fn civil_dates_are_correct() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(365), (1971, 1, 1));
        // 2000-02-29 is day 11016.
        assert_eq!(civil_from_days(11_016), (2000, 2, 29));
        // Pre-epoch dates work through euclidean division.
        assert_eq!(civil_from_days(-1), (1969, 12, 31));
    }

    #[test]
    fn suite_snapshot_is_complete_and_json_valid() {
        let snap = run_suite(1, EvalMode::Cone, 1, true);
        assert_eq!(snap.threads, 1);
        assert_eq!(snap.word_width, 1);
        let names: Vec<&str> = snap.circuits.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "fig3_4",
                "fig3_7",
                "adder8_drop",
                "kohavi_dualff",
                "kohavi_codeconv",
                "cpu_adder"
            ]
        );
        for c in &snap.circuits {
            assert!(c.faults > 0, "{}", c.name);
            assert!(!c.phases.is_empty(), "{}", c.name);
        }
        // Fig. 3.4 is the paper's *flawed* network: its fanned-out XOR stem
        // ("line 20") slips wrong-but-alternating code words, so the report
        // names it among the undetected sites.
        let fig3_4 = &snap.circuits[0];
        assert!(fig3_4.coverage < 1.0);
        assert!(fig3_4.undetected.iter().any(|l| l.contains("line20")));
        // The Fig. 3.7 fix and the adder are fully tested.
        for c in &snap.circuits[1..3] {
            assert!((c.coverage - 1.0).abs() < 1e-12, "{}", c.name);
            assert!(c.undetected.is_empty(), "{}", c.name);
        }
        // The Ch. 3 rows pack faults into lanes; the seq rows ran packed.
        assert_eq!(snap.circuits[0].packing, "fault");
        assert_eq!(snap.circuits[0].word_width, 1);
        assert_eq!(snap.circuits[3].packing, "seq");
        let json = snap.to_json();
        assert_eq!(validate_jsonl(&json), Ok(1));
        let v = parse(&json).expect("snapshot parses");
        assert_eq!(v.get("eval_mode").and_then(JsonValue::as_str), Some("cone"));
        assert_eq!(v.get("word_width").and_then(JsonValue::as_f64), Some(1.0));
        assert!(
            v.get("cpu_features")
                .and_then(JsonValue::as_array)
                .is_some(),
            "{json}"
        );
        let speedup = snap.adder8_speedup.as_ref().expect("adder8 measurement");
        assert!(speedup.full_pairs_per_sec > 0.0);
        assert!(speedup.ops_skipped_fraction > 0.0);
        assert!(
            v.get("adder8_speedup")
                .and_then(|s| s.get("speedup"))
                .and_then(JsonValue::as_f64)
                .is_some(),
            "{json}"
        );
        let serve = snap.serve_latency.as_ref().expect("serve latency burst");
        assert_eq!(serve.jobs, 32);
        assert!(serve.run_p50 > 0, "{serve:?}");
        assert!(
            serve.submit_accept_p99 >= serve.submit_accept_p50,
            "{serve:?}"
        );
        assert!(serve.queue_wait_p99 >= serve.queue_wait_p50, "{serve:?}");
        assert!(
            v.get("serve_latency")
                .and_then(|s| s.get("run_p50_micros"))
                .and_then(JsonValue::as_f64)
                .is_some(),
            "{json}"
        );
        let circuits = v.get("circuits").and_then(JsonValue::as_array).unwrap();
        assert_eq!(circuits.len(), snap.circuits.len());
        let parsed_cov = circuits[0]
            .get("coverage")
            .and_then(JsonValue::as_f64)
            .expect("fig3_4 coverage");
        assert!((parsed_cov - fig3_4.coverage).abs() < 1e-9);
        // A snapshot never regresses against itself.
        assert!(compare(&snap, &v, DEFAULT_MAX_PERF_DROP).is_empty());
        // The render names every circuit.
        let text = snap.render();
        for c in &snap.circuits {
            assert!(text.contains(&c.name), "{text}");
        }
    }

    #[test]
    fn large_suite_snapshot_records_compile_scaling() {
        let snap = run_large_suite(1, EvalMode::Cone, 4_000, 1, true);
        assert_eq!(snap.suite, "large");
        let names: Vec<&str> = snap.circuits.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "synth_selfdual",
                "synth_ripple",
                "synth_csel",
                "synth_mult",
                "synth_chain"
            ]
        );
        // The campaign row really swept faults; every row pins compile cost.
        let selfdual = &snap.circuits[0];
        assert_eq!(selfdual.faults, LARGE_SUITE_FAULTS);
        assert!(selfdual.pairs > 0);
        for c in &snap.circuits {
            assert_eq!(c.suite, "large", "{}", c.name);
            assert!(c.compile_micros.is_some(), "{}", c.name);
            assert!(c.compile_bytes.unwrap_or(0) > 0, "{}", c.name);
        }
        let json = snap.to_json();
        assert_eq!(validate_jsonl(&json), Ok(1));
        let v = parse(&json).expect("snapshot parses");
        assert_eq!(v.get("suite").and_then(JsonValue::as_str), Some("large"));
        let rows = v.get("circuits").and_then(JsonValue::as_array).unwrap();
        assert!(rows.iter().all(|r| {
            r.get("suite").and_then(JsonValue::as_str) == Some("large")
                && r.get("compile_bytes").and_then(JsonValue::as_f64).is_some()
        }));
        // The render surfaces the compile lines.
        assert!(snap.render().contains("compile:"));
    }

    #[test]
    fn doctored_baselines_trigger_regressions() {
        let snap = run_suite(1, EvalMode::Cone, 1, true);
        // A baseline claiming impossible coverage and throughput.
        let baseline = parse(
            r#"{"circuits": [
                {"name": "fig3_4", "coverage": 2.0, "pairs_per_sec": 1e18},
                {"name": "no_such_circuit", "coverage": 1.0}
            ]}"#,
        )
        .expect("baseline parses");
        let regs = compare(&snap, &baseline, DEFAULT_MAX_PERF_DROP);
        assert_eq!(regs.len(), 3, "{regs:?}");
        assert!(regs.iter().any(|r| r.coverage && r.circuit == "fig3_4"));
        assert!(regs.iter().any(|r| !r.coverage && r.circuit == "fig3_4"));
        assert!(regs
            .iter()
            .any(|r| r.coverage && r.circuit == "no_such_circuit"));
        // A garbage baseline is itself a blocking finding.
        let bad = parse(r#"{"date": "2024-01-01"}"#).unwrap();
        assert!(compare(&snap, &bad, DEFAULT_MAX_PERF_DROP)[0].coverage);
    }
}
