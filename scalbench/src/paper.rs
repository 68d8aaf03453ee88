//! The in-process campaign workload, `paper_small`, and the oracles that
//! make every committed reference.
//!
//! One op is what a user of the library waits for: netlist text through
//! `Circuit::read` and a campaign with a `CoverageObserver` to a finished
//! `CoverageMap` and its JSON. Sequential ops start from a `ScalMachine`
//! built in set-up. Every campaign runs with `.threads(1)`; the other knobs
//! keep their defaults.

use crate::check::{Projection, Reference};
use crate::harness::{Mismatch, Workload};
use crate::trace::Tracer;
use scal_core::paper;
use scal_faults::enumerate_faults;
use scal_netlist::{Circuit, NetlistFormat};
use scal_obs::{CoverageMap, CoverageObserver, Profiler};
use scal_seq::kohavi::{kohavi_0101, reynolds_circuit};
use scal_seq::{code_conversion_machine, dual_ff_machine, ScalMachine, SeqBackend};
use scal_system::campaign::{default_workloads, Campaign as CpuCampaign, CpuUnit};

/// What an op runs a campaign over.
pub enum Subject {
    /// A combinational netlist, serialized, for a pair campaign.
    Pair {
        /// The serialized netlist.
        text: String,
        /// Its format.
        format: NetlistFormat,
    },
    /// A SCAL machine and its drive, for a sequential campaign.
    Seq {
        /// The machine.
        machine: ScalMachine,
        /// The driven words.
        words: Vec<Vec<bool>>,
    },
}

/// One op kind: a subject with its reference.
pub struct Case {
    /// Op kind name.
    pub name: &'static str,
    /// Copies per round of the op deck.
    pub weight: usize,
    /// What the op runs.
    pub subject: Subject,
    /// File stem of the committed reference.
    pub stem: &'static str,
    /// The oracle's coverage map, loaded by [`Campaigns::make_references`]
    /// after set-up.
    pub reference: Option<Reference>,
    /// Undetected faults the paper states, where it states a count.
    pub pinned_undetected: Option<usize>,
}

/// The drive `scal_report` gives the Chapter-4 machines: 16 words.
#[must_use]
pub fn suite_words() -> Vec<Vec<bool>> {
    [0u8, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 0, 1]
        .iter()
        .map(|&s| vec![s == 1])
        .collect()
}

/// The span and byte-count names of parsing `format`.
fn parse_names(format: NetlistFormat) -> (&'static str, &'static str) {
    match format {
        NetlistFormat::ScalText => ("netlist.parse.text", "netlist.bytes.text"),
        NetlistFormat::Verilog => ("netlist.parse.verilog", "netlist.bytes.verilog"),
        NetlistFormat::Bench => ("netlist.parse.bench", "netlist.bytes.bench"),
    }
}

/// Scalar pair-backend oracle.
///
/// # Panics
///
/// Panics if the oracle cannot run the circuit: fixtures are known-good.
#[must_use]
pub fn pair_oracle(circuit: &Circuit) -> Reference {
    let cov = CoverageObserver::new();
    scal_faults::Campaign::new(circuit)
        .scalar()
        .coverage(&cov)
        .run()
        .expect("scalar oracle runs the fixture");
    Reference::of_map(&cov.latest().expect("oracle coverage map"))
}

/// Graph-walking sequential oracle.
///
/// # Panics
///
/// Panics if the oracle cannot run the machine.
#[must_use]
pub fn seq_oracle(machine: &ScalMachine, words: &[Vec<bool>]) -> Reference {
    let cov = CoverageObserver::new();
    scal_seq::Campaign::new(machine, words)
        .threads(1)
        .backend(SeqBackend::Graph)
        .coverage(&cov)
        .run()
        .expect("graph oracle runs the machine");
    Reference::of_map(&cov.latest().expect("oracle coverage map"))
}

/// The coverage map of a CPU campaign over the default workload named
/// `workload` with a period `budget`, as a serve CPU job runs it, with
/// fault collapsing on or off. With it off this is the CPU oracle.
#[must_use]
pub fn cpu_map(unit: CpuUnit, workload: &str, budget: u64, collapse: bool) -> Reference {
    let cov = CoverageObserver::new();
    let workloads = default_workloads()
        .into_iter()
        .filter(|w| w.name == workload)
        .collect();
    let _ = CpuCampaign::new(unit)
        .fault_collapse(collapse)
        .coverage(&cov)
        .workloads(workloads)
        .budget(budget)
        .run();
    Reference::of_map(&cov.latest().expect("oracle coverage map"))
}

/// An oracle run that makes one committed reference.
pub type MakeReference = Box<dyn Fn() -> Reference>;

/// Every committed reference: file stem and the oracle run that makes it.
/// `scalbench --write-refs` reruns them all (the scalar adder8 run takes
/// tens of seconds, which is why the results are committed).
#[must_use]
pub fn reference_makers() -> Vec<(&'static str, MakeReference)> {
    vec![
        ("fig3_4", Box::new(|| pair_oracle(&paper::fig3_4().circuit))),
        ("fig3_7", Box::new(|| pair_oracle(&paper::fig3_7().circuit))),
        (
            "self_dual_adder",
            Box::new(|| pair_oracle(&paper::self_dual_adder())),
        ),
        ("adder4", Box::new(|| pair_oracle(&paper::ripple_adder(4)))),
        ("adder8", Box::new(|| pair_oracle(&paper::ripple_adder(8)))),
        (
            "kohavi_dualff16",
            Box::new(|| seq_oracle(&dual_ff_machine(&kohavi_0101()), &suite_words())),
        ),
        (
            "kohavi_codeconv16",
            Box::new(|| seq_oracle(&code_conversion_machine(&kohavi_0101()), &suite_words())),
        ),
        (
            "reynolds256",
            // The drive of the serve demo's `seq_spec(_, _, 256)` job.
            Box::new(|| {
                seq_oracle(
                    &reynolds_circuit(),
                    &scal_serve::client::demo::demo_words(256),
                )
            }),
        ),
        (
            "cpu_logic_popcount",
            Box::new(|| cpu_map(CpuUnit::Logic, "popcount(0xB7)", 50_000, false)),
        ),
    ]
}

/// A committed reference by file stem.
///
/// # Panics
///
/// Panics on an unknown stem.
#[must_use]
pub fn committed(stem: &str) -> Reference {
    let text = match stem {
        "fig3_4" => include_str!("../refs/fig3_4.tsv"),
        "fig3_7" => include_str!("../refs/fig3_7.tsv"),
        "self_dual_adder" => include_str!("../refs/self_dual_adder.tsv"),
        "adder4" => include_str!("../refs/adder4.tsv"),
        "adder8" => include_str!("../refs/adder8.tsv"),
        "kohavi_dualff16" => include_str!("../refs/kohavi_dualff16.tsv"),
        "kohavi_codeconv16" => include_str!("../refs/kohavi_codeconv16.tsv"),
        "reynolds256" => include_str!("../refs/reynolds256.tsv"),
        "cpu_logic_popcount" => include_str!("../refs/cpu_logic_popcount.tsv"),
        other => panic!("no committed reference {other:?}"),
    };
    Reference::from_file(text)
}

fn pair(
    name: &'static str,
    weight: usize,
    c: &Circuit,
    format: NetlistFormat,
    stem: &'static str,
) -> Case {
    Case {
        name,
        weight,
        subject: Subject::Pair {
            text: c.write_string(format),
            format,
        },
        stem,
        reference: None,
        pinned_undetected: None,
    }
}

fn seq(name: &'static str, weight: usize, machine: ScalMachine, stem: &'static str) -> Case {
    Case {
        name,
        weight,
        subject: Subject::Seq {
            machine,
            words: suite_words(),
        },
        stem,
        reference: None,
        pinned_undetected: None,
    }
}

/// `paper_small`: the paper's small networks and machines, where fixed
/// per-campaign costs dominate.
#[must_use]
pub fn small_cases() -> Vec<Case> {
    let m = kohavi_0101();
    let text = NetlistFormat::ScalText;
    let mut fig3_4 = pair("fig3_4", 1, &paper::fig3_4().circuit, text, "fig3_4");
    fig3_4.pinned_undetected = Some(4);
    let mut codeconv = seq(
        "kohavi_codeconv",
        1,
        code_conversion_machine(&m),
        "kohavi_codeconv16",
    );
    codeconv.pinned_undetected = Some(28);
    // Weights put the median inside fig3_7's share of the ops and the p90
    // inside adder4's, away from the edges where two kinds meet. The
    // netlists come in all three formats, so each parser is measured.
    vec![
        fig3_4,
        pair(
            "fig3_7",
            2,
            &paper::fig3_7().circuit,
            NetlistFormat::Verilog,
            "fig3_7",
        ),
        pair(
            "self_dual_adder",
            1,
            &paper::self_dual_adder(),
            NetlistFormat::Bench,
            "self_dual_adder",
        ),
        pair("adder4", 2, &paper::ripple_adder(4), text, "adder4"),
        seq("kohavi_dualff", 1, dual_ff_machine(&m), "kohavi_dualff16"),
        codeconv,
    ]
}

/// The in-process campaign workload over a list of cases.
pub struct Campaigns {
    /// The op kinds.
    pub cases: Vec<Case>,
}

/// What one campaign op hands back.
pub struct CampaignOut {
    map: CoverageMap,
    json: String,
}

impl Campaigns {
    fn campaign(case: &Case, tr: &Tracer, cov: &CoverageObserver) -> Result<(), String> {
        let prof = Profiler::new();
        let phases = |tr: &Tracer| {
            if let Some(p) = prof.latest() {
                tr.profile_phases(&p);
            }
        };
        match &case.subject {
            Subject::Pair { text, format } => {
                let (parse, bytes) = parse_names(*format);
                let circuit = tr
                    .span(parse, || Circuit::read(text, *format))
                    .map_err(|e| e.to_string())?;
                tr.count(bytes, text.len() as f64);
                // The list `Campaign::run` would enumerate itself, made
                // outside it so that enumeration is timed on its own.
                let faults = tr.span("faults.enumerate", || enumerate_faults(&circuit));
                tr.span("faults.campaign", || {
                    let mut c = scal_faults::Campaign::new(&circuit)
                        .faults(faults)
                        .threads(1)
                        .coverage(cov);
                    if tr.enabled() {
                        c = c.observer(&prof);
                    }
                    let r = c.run();
                    phases(tr);
                    r
                })
                .map_err(|e| e.to_string())?;
            }
            Subject::Seq { machine, words } => {
                tr.span("seq.campaign", || {
                    let mut c = scal_seq::Campaign::new(machine, words)
                        .threads(1)
                        .coverage(cov);
                    if tr.enabled() {
                        c = c.observer(&prof);
                    }
                    let r = c.run();
                    phases(tr);
                    r
                })
                .map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }

    /// Loads the committed references. Called after set-up, before the
    /// timed phase.
    pub fn make_references(&mut self) {
        for case in &mut self.cases {
            case.reference = Some(committed(case.stem));
        }
    }

    /// Spoils the label of the first record of every reference, so every
    /// op's check, verdicts included, must fail: proof that the check can
    /// fail.
    pub fn corrupt_references(&mut self) {
        for r in self.cases.iter_mut().filter_map(|c| c.reference.as_mut()) {
            if let Some(l) = r.lines.first_mut() {
                *l = l.replacen('\t', "\tcorrupt-", 1);
            }
        }
    }
}

impl Workload for Campaigns {
    type Out = CampaignOut;

    fn kinds(&self) -> Vec<(&'static str, usize)> {
        self.cases.iter().map(|c| (c.name, c.weight)).collect()
    }

    fn run(&mut self, kind: usize, tr: &Tracer) -> Result<CampaignOut, String> {
        let cov = CoverageObserver::new();
        Self::campaign(&self.cases[kind], tr, &cov)?;
        let map = tr
            .span("obs.coverage", || cov.latest())
            .ok_or("campaign finished without a coverage map")?;
        let json = tr.span("obs.to_json", || map.to_json());
        Ok(CampaignOut { map, json })
    }

    fn check(&self, kind: usize, out: &CampaignOut) -> Result<(), Mismatch> {
        let case = &self.cases[kind];
        let got = Reference::of_map(&out.map);
        if let Some(n) = case.pinned_undetected {
            if got.undetected() != n {
                return Err(
                    format!("{} undetected faults, the paper has {n}", got.undetected()).into(),
                );
            }
        }
        let faults = format!("\"faults\":{}", out.map.records.len());
        if !out.json.contains(&faults) {
            return Err(format!("coverage JSON lacks {faults}").into());
        }
        case.reference
            .as_ref()
            .ok_or_else(|| "no reference".to_string())?
            .compare(&got, Projection::Full)
    }
}
