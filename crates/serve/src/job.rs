//! Running one submitted job: the shared execution path behind the server's
//! workers *and* the reference path tests replay locally, so streamed
//! results are bit-identical to a local run by construction.

use crate::proto::{JobKind, ProtoError};
use scal_engine::EngineError;
use scal_obs::json::JsonObject;
use scal_obs::{CampaignObserver, CancelToken, CoverageMap, CoverageObserver};
use scal_seq::SeqOutcome;
use std::time::Instant;

/// Why a job failed to produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The campaign backend rejected the job.
    Engine(EngineError),
    /// The request was malformed (parse-time rejection).
    Proto(ProtoError),
    /// The campaign panicked; the worker survived and reports the payload.
    Panicked(String),
}

impl ServeError {
    /// Stable machine-readable code for the `error` frame.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::Engine(_) => "engine",
            ServeError::Proto(e) => e.code,
            ServeError::Panicked(_) => "panicked",
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Engine(e) => write!(f, "{e}"),
            ServeError::Proto(e) => write!(f, "{e}"),
            ServeError::Panicked(msg) => write!(f, "campaign panicked: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> Self {
        ServeError::Engine(e)
    }
}

/// Everything one finished job produced.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutput {
    /// `true` iff a cancel token (or deadline) stopped the run early.
    pub cancelled: bool,
    /// The per-fault coverage map — deterministic across backends and
    /// thread counts, a valid fault-ordered prefix under cancellation.
    pub coverage: CoverageMap,
    /// Deterministic summary JSON object (no wall-clock fields).
    pub report: String,
    /// Total job wall time in microseconds — the only nondeterministic
    /// field, kept out of `report` so consumers can strip it.
    pub micros: u64,
}

/// Runs one job to completion, streaming events to `observer`.
///
/// `fault_collapse` is the submit knob: `None` leaves the backend's default
/// (collapsing on), `Some` forces it for this job.
///
/// # Errors
///
/// Returns [`ServeError::Engine`] when the campaign backend rejects the
/// job (e.g. a sequential circuit handed to a pair campaign).
pub fn run_job(
    kind: &JobKind,
    threads: usize,
    fault_collapse: Option<bool>,
    observer: &dyn CampaignObserver,
    cancel: Option<&CancelToken>,
) -> Result<JobOutput, ServeError> {
    let t = Instant::now();
    let cov = CoverageObserver::new();
    let (mut o, cancelled, collapse) = match kind {
        JobKind::Pair {
            circuit,
            faults,
            drop_after_detection,
            // Accepted on the wire and ignored: the engine picks its own
            // faulty-sweep evaluation.
            eval_mode: _,
            scalar,
        } => {
            let fault_list = faults.resolve(circuit);
            let total = fault_list.len();
            let mut c = scal_faults::Campaign::new(circuit)
                .faults(fault_list)
                .threads(threads)
                .drop_after_detection(*drop_after_detection)
                .observer(observer)
                .coverage(&cov);
            if *scalar {
                c = c.scalar();
            }
            if let Some(fc) = fault_collapse {
                c = c.fault_collapse(fc);
            }
            if let Some(token) = cancel {
                c = c.cancel(token);
            }
            let report = c.run()?;
            let mut o = JsonObject::new();
            o.str("campaign", if *scalar { "pair_scalar" } else { "pair" });
            o.num("faults", report.results.len() as u64);
            o.num("total_faults", total as u64);
            o.bool("fault_secure", report.all_fault_secure());
            o.bool("tested", report.all_tested());
            o.num("pairs", report.stats.pairs_evaluated);
            o.num("words", report.stats.words_evaluated);
            o.num("dropped", report.stats.faults_dropped as u64);
            o.bool("cancelled", report.cancelled);
            (o, report.cancelled, report.stats.collapse)
        }
        JobKind::Seq {
            machine,
            words,
            backend,
        } => {
            let total = machine.checkable_faults().len();
            let mut c = scal_seq::Campaign::new(machine, words)
                .threads(threads)
                .backend(*backend)
                .observer(observer)
                .coverage(&cov);
            if let Some(fc) = fault_collapse {
                c = c.fault_collapse(fc);
            }
            if let Some(token) = cancel {
                c = c.cancel(token);
            }
            let out = c.run()?;
            let (dormant, detected, violations) = out.tally();
            let mut o = JsonObject::new();
            o.str("campaign", "seq");
            o.num("faults", out.outcomes.len() as u64);
            o.num("total_faults", total as u64);
            o.num("dormant", dormant as u64);
            o.num("detected", detected as u64);
            o.num("violations", violations as u64);
            o.bool("fault_secure", out.fault_secure());
            let first_violation = out
                .outcomes
                .iter()
                .filter_map(|(_, o)| match o {
                    SeqOutcome::Violation { word } => Some(*word as u64),
                    _ => None,
                })
                .min();
            if let Some(w) = first_violation {
                o.num("first_violation_word", w);
            }
            o.bool("cancelled", out.cancelled);
            (o, out.cancelled, out.collapse)
        }
        JobKind::Cpu {
            unit,
            budget,
            workloads,
        } => {
            let mut c = scal_system::campaign::Campaign::new(*unit)
                .budget(*budget)
                .observer(observer)
                .coverage(&cov);
            if let Some(names) = workloads {
                let suite = scal_system::campaign::default_workloads()
                    .into_iter()
                    .filter(|w| names.iter().any(|n| n == w.name))
                    .collect();
                c = c.workloads(suite);
            }
            if let Some(fc) = fault_collapse {
                c = c.fault_collapse(fc);
            }
            if let Some(token) = cancel {
                c = c.cancel(token);
            }
            let out = c.run()?;
            let mut o = JsonObject::new();
            o.str(
                "campaign",
                match unit {
                    scal_system::campaign::CpuUnit::Adder => "cpu_adder",
                    scal_system::campaign::CpuUnit::Logic => "cpu_logic",
                },
            );
            o.num("faults", out.results.len() as u64);
            o.num("undetected_wrong", out.undetected_wrong() as u64);
            o.num("periods", out.periods);
            o.bool("cancelled", out.cancelled);
            (o, out.cancelled, out.collapse)
        }
    };
    // The collapse counters come from the campaign's own results and are
    // deterministic; they are absent when collapsing did not run (knob off,
    // or an oracle backend that never collapses) or left nothing to
    // simulate.
    if let Some(c) = collapse.filter(|c| c.representatives > 0) {
        o.num("collapse_faults", c.faults as u64);
        o.num("collapse_representatives", c.representatives as u64);
        o.float("collapse_ratio", c.faults as f64 / c.representatives as f64);
    }
    let report = o.finish();
    let coverage = cov.into_latest().unwrap_or_default();
    Ok(JobOutput {
        cancelled,
        coverage,
        report,
        micros: u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::FaultSpec;
    use scal_engine::EvalMode;
    use scal_netlist::{Circuit, GateKind};
    use scal_obs::NullObserver;
    use scal_seq::SeqBackend;

    fn xor3_pair_kind() -> JobKind {
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let d = c.input("c");
        let x = c.gate(GateKind::Xor, &[a, b, d]);
        c.mark_output("f", x);
        JobKind::Pair {
            circuit: c,
            faults: FaultSpec::All,
            drop_after_detection: false,
            eval_mode: EvalMode::Cone,
            scalar: false,
        }
    }

    #[test]
    fn pair_jobs_report_and_cover() {
        let out = run_job(&xor3_pair_kind(), 1, None, &NullObserver, None).unwrap();
        assert!(!out.cancelled);
        assert!(out.report.contains("\"campaign\":\"pair\""));
        assert!(out.report.contains("\"fault_secure\":true"));
        assert!(!out.coverage.records.is_empty());
        assert!((out.coverage.coverage_fraction() - 1.0).abs() < 1e-12);
        scal_obs::json::validate_jsonl(&out.report).expect("valid report");
    }

    /// The v1 `eval_mode` field is accepted and ignored: `"full"` and
    /// `"cone"` submits, parsed off the wire, return the same report and
    /// coverage map. The adder's sweep is pattern-major (cone-restricted).
    #[test]
    fn eval_mode_field_does_not_change_results() {
        use crate::proto::{JobSpec, Request};
        use scal_netlist::NetlistFormat;
        let outputs: Vec<JobOutput> = [EvalMode::Full, EvalMode::Cone]
            .into_iter()
            .map(|eval_mode| {
                let spec = JobSpec {
                    kind: JobKind::Pair {
                        circuit: scal_core::paper::ripple_adder(4),
                        faults: FaultSpec::All,
                        drop_after_detection: false,
                        eval_mode,
                        scalar: false,
                    },
                    priority: 0,
                    timeout_ms: None,
                    threads: 1,
                    stream: false,
                    fault_collapse: None,
                    netlist_format: NetlistFormat::ScalText,
                };
                let line = spec.to_request_line();
                assert!(line.contains(&format!("\"eval_mode\":\"{eval_mode}\"")));
                let Ok(Request::Submit(parsed)) = Request::parse(&line) else {
                    panic!("{eval_mode} submit must parse");
                };
                run_job(&parsed.kind, 1, None, &NullObserver, None).unwrap()
            })
            .collect();
        assert!(outputs[0]
            .coverage
            .records
            .iter()
            .any(|r| r.cone_ops.is_some()));
        assert_eq!(outputs[0].report, outputs[1].report);
        assert_eq!(outputs[0].coverage, outputs[1].coverage);
    }

    #[test]
    fn seq_jobs_match_a_direct_campaign() {
        let machine = scal_seq::kohavi::reynolds_circuit();
        let words: Vec<Vec<bool>> = [false, true, false, true, true, false]
            .iter()
            .map(|&b| vec![b])
            .collect();
        let kind = JobKind::Seq {
            machine: machine.clone(),
            words: words.clone(),
            backend: SeqBackend::Packed,
        };
        let out = run_job(&kind, 1, None, &NullObserver, None).unwrap();
        let direct = scal_seq::Campaign::new(&machine, &words).run().unwrap();
        assert!(out
            .report
            .contains(&format!("\"faults\":{}", direct.outcomes.len())));
        assert_eq!(out.coverage.records.len(), direct.outcomes.len());
    }

    #[test]
    fn cancelled_jobs_return_a_prefix() {
        let token = CancelToken::new();
        token.cancel();
        let out = run_job(&xor3_pair_kind(), 1, None, &NullObserver, Some(&token)).unwrap();
        assert!(out.cancelled);
        assert!(out.coverage.records.is_empty());
        assert!(out.coverage.cancelled);
    }

    #[test]
    fn sequential_circuits_error_instead_of_hanging() {
        let mut c = Circuit::new();
        let ff = c.dff(false);
        let nq = c.not(ff);
        c.connect_dff(ff, nq);
        c.mark_output("q", ff);
        let kind = JobKind::Pair {
            circuit: c,
            faults: FaultSpec::All,
            drop_after_detection: false,
            eval_mode: EvalMode::Cone,
            scalar: false,
        };
        let err = run_job(&kind, 1, None, &NullObserver, None).unwrap_err();
        assert_eq!(err.code(), "engine");
    }

    #[test]
    fn collapse_counters_match_the_event_stream() {
        use crate::client::demo;
        use scal_obs::json::{parse, JsonValue};
        use scal_obs::Profiler;
        let specs = [
            demo::pair_spec(0, false),
            demo::pair_spec(0, true),
            demo::seq_spec(0, SeqBackend::Packed, 12),
            demo::seq_spec(0, SeqBackend::Graph, 12),
            demo::cpu_spec(0),
        ];
        for spec in specs {
            for collapse in [None, Some(false)] {
                let prof = Profiler::new();
                let observed = run_job(&spec.kind, 1, collapse, &prof, None).unwrap();
                let quiet = run_job(&spec.kind, 1, collapse, &NullObserver, None).unwrap();
                assert_eq!(
                    observed.report, quiet.report,
                    "observing changed the report"
                );
                let report = parse(&quiet.report).unwrap();
                let field = |k: &str| report.get(k).and_then(JsonValue::as_f64);
                let profile = prof.latest().expect("a finished campaign");
                match profile.collapse_ratio() {
                    Some(ratio) => {
                        assert_eq!(
                            field("collapse_faults"),
                            Some(profile.collapse_faults as f64)
                        );
                        assert_eq!(
                            field("collapse_representatives"),
                            Some(profile.collapse_representatives as f64)
                        );
                        assert_eq!(field("collapse_ratio"), Some(ratio));
                    }
                    None => assert_eq!(field("collapse_faults"), None, "{}", quiet.report),
                }
            }
        }
    }

    #[test]
    fn collapse_knob_controls_report_fields() {
        let on = run_job(&xor3_pair_kind(), 1, Some(true), &NullObserver, None).unwrap();
        assert!(on.report.contains("\"collapse_ratio\""));
        assert!(on.report.contains("\"collapse_representatives\""));
        scal_obs::json::validate_jsonl(&on.report).expect("valid report");

        let off = run_job(&xor3_pair_kind(), 1, Some(false), &NullObserver, None).unwrap();
        assert!(!off.report.contains("collapse_ratio"));

        // The knob must not change the verdicts, only the work done.
        assert_eq!(
            on.coverage.without_annotations(),
            off.coverage.without_annotations()
        );
    }
}
