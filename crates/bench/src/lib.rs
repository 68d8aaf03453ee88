//! Experiment regenerators for every table and figure of the paper's
//! evaluation content (see DESIGN.md's per-experiment index).
//!
//! Each `report()` function recomputes its artifact from the library stack
//! and renders the same rows/series the paper presents, with paper-reported
//! values shown alongside where they exist. The `experiments` binary prints
//! them (`cargo run -p scal-bench --bin experiments -- all`).
//!
//! Every experiment receives an [`ExperimentCtx`] — the observability
//! context. Experiments that run fault campaigns attach it as a
//! [`CampaignObserver`], so `experiments -- <id> --trace out.jsonl` captures
//! the per-phase / per-fault event stream and `--metrics` aggregates
//! counters and wall-time histograms across every sweep the run performs,
//! and hand its coverage collector to the campaign's `.coverage()` hook, so
//! `--coverage-out` maps carry the netlist's line labels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use scal_obs::{CampaignEvent, CampaignObserver, CoverageObserver, JsonlTrace, Metrics, Profiler};
use std::fs::File;
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};

pub mod ch2;
pub mod ch3;
pub mod ch4;
pub mod ch5;
pub mod ch6;
pub mod ch7;
pub mod cost;
pub mod ext;

/// Observability context threaded through every experiment.
///
/// Holds the optional sinks selected on the command line: a JSON-lines
/// trace file (`--trace FILE`), a metrics registry (`--metrics`), a
/// per-fault coverage-map collector (`--coverage-out FILE`) and a phase
/// profiler (`--profile`). The context itself is a [`CampaignObserver`]
/// that fans events out to the trace, metrics and profile sinks; with none
/// of them it reports `enabled() == false`, so campaigns skip event
/// construction entirely. The coverage collector is no event sink:
/// experiments pass [`ExperimentCtx::coverage`] to their campaigns'
/// `.coverage()` hook.
#[derive(Debug, Default)]
pub struct ExperimentCtx {
    trace: Option<JsonlTrace<BufWriter<File>>>,
    metrics: Option<Metrics>,
    coverage: Option<(PathBuf, CoverageObserver)>,
    profiler: Option<Profiler>,
}

impl ExperimentCtx {
    /// A context with no sinks attached (observability off).
    #[must_use]
    pub fn new() -> Self {
        ExperimentCtx::default()
    }

    /// Attaches a JSON-lines trace sink writing to `path` (truncating).
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn set_trace<P: AsRef<Path>>(&mut self, path: P) -> io::Result<()> {
        self.trace = Some(JsonlTrace::create(path)?);
        Ok(())
    }

    /// Attaches a metrics registry.
    pub fn enable_metrics(&mut self) {
        self.metrics = Some(Metrics::new());
    }

    /// Attaches a coverage-map collector whose maps are written to `path`
    /// (one JSON object per campaign, every record labelled with its
    /// netlist line) by [`ExperimentCtx::write_coverage`].
    pub fn set_coverage_out<P: Into<PathBuf>>(&mut self, path: P) {
        self.coverage = Some((path.into(), CoverageObserver::new()));
    }

    /// The coverage-map collector, when `--coverage-out` is on: what
    /// experiments hand to their campaigns' `.coverage()` hook.
    #[must_use]
    pub fn coverage(&self) -> Option<&CoverageObserver> {
        self.coverage.as_ref().map(|(_, cov)| cov)
    }

    /// Attaches a phase profiler.
    pub fn enable_profile(&mut self) {
        self.profiler = Some(Profiler::new());
    }

    /// The metrics registry, when `--metrics` is on.
    #[must_use]
    pub fn metrics(&self) -> Option<&Metrics> {
        self.metrics.as_ref()
    }

    /// The phase profiler, when `--profile` is on.
    #[must_use]
    pub fn profiler(&self) -> Option<&Profiler> {
        self.profiler.as_ref()
    }

    /// Writes every collected coverage map as JSON lines to the
    /// `--coverage-out` path; returns the map count, or `None` when the
    /// sink is off.
    ///
    /// # Errors
    ///
    /// Propagates file-write errors.
    pub fn write_coverage(&self) -> io::Result<Option<(PathBuf, usize)>> {
        let Some((path, cov)) = &self.coverage else {
            return Ok(None);
        };
        let maps = cov.maps();
        let mut out = String::new();
        for map in &maps {
            out.push_str(&map.to_json());
            out.push('\n');
        }
        std::fs::write(path, out)?;
        Ok(Some((path.clone(), maps.len())))
    }

    /// Trace lines written so far (0 without a trace sink).
    #[must_use]
    pub fn trace_lines(&self) -> u64 {
        self.trace.as_ref().map_or(0, JsonlTrace::lines)
    }

    /// Flushes the trace sink, surfacing any latched write error.
    ///
    /// # Errors
    ///
    /// Returns the first trace write error hit during the run.
    pub fn finish(&self) -> io::Result<()> {
        match &self.trace {
            Some(t) => t.flush(),
            None => Ok(()),
        }
    }
}

impl CampaignObserver for ExperimentCtx {
    fn on_event(&self, event: &CampaignEvent) {
        if let Some(t) = &self.trace {
            t.on_event(event);
        }
        if let Some(m) = &self.metrics {
            m.on_event(event);
        }
        if let Some(p) = &self.profiler {
            p.on_event(event);
        }
    }

    fn enabled(&self) -> bool {
        self.trace.is_some() || self.metrics.is_some() || self.profiler.is_some()
    }
}

/// An experiment id paired with its report generator.
pub type Experiment = (&'static str, fn(&ExperimentCtx) -> String);

/// All experiment ids, in chapter order.
pub const EXPERIMENTS: &[Experiment] = &[
    ("fig2_2", ch2::fig2_2),
    ("fig3_1", ch3::fig3_1),
    ("fig3_4", ch3::fig3_4),
    ("fig3_6", ch3::fig3_6),
    ("fig3_7", ch3::fig3_7),
    ("fig4_2", ch4::fig4_2),
    ("fig4_4", ch4::fig4_4),
    ("tab4_1", ch4::tab4_1),
    ("fig5_1", ch5::fig5_1),
    ("fig5_3", ch5::fig5_3),
    ("tab5_1", ch5::tab5_1),
    ("tab5_2", ch5::tab5_2),
    ("fig6_1", ch6::fig6_1),
    ("fig6_2", ch6::fig6_2),
    ("fig7_2", ch7::fig7_2),
    ("fig7_3", ch7::fig7_3),
    ("fig7_5", ch7::fig7_5),
    ("cost1_8", cost::cost1_8),
    ("ext_testgen", ext::ext_testgen),
    ("ext_repair", ext::ext_repair),
    ("ext_checked_system", ext::ext_checked_system),
    ("ext_adr_retry", ext::ext_adr_retry),
    ("ext_engine", ext::ext_engine),
];

/// Runs one experiment by id, forwarding `ctx` to its campaigns.
///
/// # Errors
///
/// Returns `Err` with the list of known ids if `id` is unknown.
pub fn run(id: &str, ctx: &ExperimentCtx) -> Result<String, String> {
    EXPERIMENTS
        .iter()
        .find(|(name, _)| *name == id)
        .map(|(_, f)| f(ctx))
        .ok_or_else(|| {
            let known: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
            format!("unknown experiment {id:?}; known: {}", known.join(", "))
        })
}
