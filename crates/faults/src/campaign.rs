//! Alternating-pair fault simulation and the exhaustive campaign.
//!
//! Campaigns are launched through the [`crate::Campaign`] builder, which
//! carries observability and cancellation on both backends; this module holds
//! the pair/fault vocabulary and the scalar oracle backend.

use crate::Fault;
use scal_engine::{
    drive, duration_micros, EngineError, EngineStats, FaultSummary, Kernel, PairSet, Setup, Unit,
    UnitResult, VerdictTable,
};
use scal_netlist::{Circuit, Override};
use scal_obs::{CampaignEvent, CampaignObserver, CancelToken};
use std::time::Instant;

/// Behaviour of a *single output* over one alternating input pair, relative
/// to the fault-free response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairOutcome {
    /// The output emitted the correct alternating pair.
    Correct,
    /// The output did not alternate — a non-code word, flagged by any
    /// alternation checker (marked `X` in the paper's Fig. 3.6).
    NonAlternating,
    /// The output alternated but with the wrong phase — Theorem 3.1's
    /// *incorrect alternating output* (marked `*` in Fig. 3.6).
    WrongAlternating,
}

/// Behaviour of the *whole network* (all outputs jointly) over one pair,
/// following the multiple-output code of Definition 3.3: the code space is
/// "every output alternates", so one non-alternating output makes the word
/// detectably non-code even if another output alternates incorrectly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairClass {
    /// All outputs correct.
    Correct,
    /// At least one output non-alternating: the fault is detected.
    Detected,
    /// All outputs alternate but at least one has the wrong value: an
    /// undetected wrong code word — a violation of the fault-secure
    /// property.
    Violation,
}

/// Drives the alternating pair `(X, X̄)` through a combinational circuit
/// under the given overrides and returns the two per-period output vectors.
///
/// # Panics
///
/// Panics if the circuit is sequential or `x.len()` mismatches the inputs.
#[must_use]
pub fn response_pair(
    circuit: &Circuit,
    overrides: &[Override],
    x: &[bool],
) -> (Vec<bool>, Vec<bool>) {
    let first = circuit.eval_with(x, overrides);
    let flipped: Vec<bool> = x.iter().map(|&b| !b).collect();
    let second = circuit.eval_with(&flipped, overrides);
    (first, second)
}

/// Classifies a faulty response pair against the fault-free one, per output
/// and in aggregate.
///
/// # Panics
///
/// Panics if the vectors disagree in length, or if the fault-free response
/// itself fails to alternate (the circuit is then not an alternating network
/// and pair classification is meaningless).
#[must_use]
pub fn classify_pair(
    normal: &(Vec<bool>, Vec<bool>),
    faulty: &(Vec<bool>, Vec<bool>),
) -> (Vec<PairOutcome>, PairClass) {
    assert_eq!(normal.0.len(), normal.1.len());
    assert_eq!(faulty.0.len(), faulty.1.len());
    assert_eq!(normal.0.len(), faulty.0.len());
    let mut outcomes = Vec::with_capacity(normal.0.len());
    for i in 0..normal.0.len() {
        assert_ne!(
            normal.0[i], normal.1[i],
            "fault-free output {i} does not alternate; the network is not alternating"
        );
        let o = if faulty.0[i] == faulty.1[i] {
            PairOutcome::NonAlternating
        } else if faulty.0[i] == normal.0[i] {
            PairOutcome::Correct
        } else {
            PairOutcome::WrongAlternating
        };
        outcomes.push(o);
    }
    let class = if outcomes.contains(&PairOutcome::NonAlternating) {
        PairClass::Detected
    } else if outcomes.contains(&PairOutcome::WrongAlternating) {
        PairClass::Violation
    } else {
        PairClass::Correct
    };
    (outcomes, class)
}

/// Result of simulating one fault against every alternating input pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignResult {
    /// The simulated fault.
    pub fault: Fault,
    /// First-period inputs `X` (as minterm integers, with `X < X̄`
    /// numerically so each unordered pair appears once) at which the fault
    /// produced a detectable non-code word.
    pub detected_pairs: PairSet,
    /// Pairs at which the fault produced an undetected wrong code word
    /// (fault-secure violations).
    pub violation_pairs: PairSet,
    /// `true` iff the fault changed some output at some point in some pair
    /// (i.e. the fault is observable at all — the revised self-testing
    /// requirement of Definition 2.4(a)).
    pub observable: bool,
}

impl CampaignResult {
    /// `true` iff the fault never causes a wrong code word.
    #[must_use]
    pub fn fault_secure(&self) -> bool {
        self.violation_pairs.is_empty()
    }

    /// `true` iff some pair detects the fault with a non-code word.
    #[must_use]
    pub fn tested(&self) -> bool {
        !self.detected_pairs.is_empty()
    }
}

/// The scalar backend behind [`crate::Campaign::scalar`]: per-minterm
/// simulation, one fault per unit, as a [`Kernel`] under the campaign
/// driver ([`drive`]) on one thread and never collapsed.
///
/// The driver owns the event protocol, cancellation and the verdict table;
/// what keeps this backend an independent oracle is its own simulation
/// ([`sweep`]) and classification ([`classify_pair`]). Each fault's only
/// per-fault event is its `eval_batch` span: it sweeps whole truth tables,
/// not 64-pair batches, so there are no `BatchDone` events.
pub(crate) fn try_run_scalar(
    circuit: &Circuit,
    faults: &[Fault],
    observer: &dyn CampaignObserver,
    cancel: Option<&CancelToken>,
) -> Result<(Vec<CampaignResult>, EngineStats, VerdictTable), EngineError> {
    if circuit.is_sequential() {
        return Err(EngineError::Sequential);
    }
    let n = circuit.inputs().len();
    if !(1..=24).contains(&n) {
        return Err(EngineError::UnsupportedInputs { inputs: n });
    }
    let overrides: Vec<Override> = faults.iter().map(|f| f.to_override()).collect();
    let setup = Setup {
        campaign: "pair_scalar",
        inputs: n,
        outputs: circuit.outputs().len(),
        threads: 1,
        faults: &overrides,
        collapsed: None,
        observer,
        cancel,
        started: Instant::now(),
    };
    let kernel = ScalarKernel {
        circuit,
        inputs: n,
        normal: Vec::new(),
    };
    let driven = drive(setup, kernel)?;
    // Uncollapsed: `verdicts[i]` answers fault `i`.
    Ok((driven.verdicts, driven.stats, driven.table))
}

/// The scalar pair oracle's kernel: sweeps every minterm once fault-free
/// and once per fault, and classifies each alternating pair.
struct ScalarKernel<'a> {
    circuit: &'a Circuit,
    inputs: usize,
    /// Fault-free outputs of every minterm, from the golden phase.
    normal: Vec<Vec<bool>>,
}

impl ScalarKernel<'_> {
    /// 64-lane sweeps one pass over every minterm takes.
    fn words_per_sweep(&self) -> u64 {
        (1u64 << self.inputs).div_ceil(64)
    }
}

impl Kernel for ScalarKernel<'_> {
    type Verdict = CampaignResult;
    type Worker = ();

    fn unit_len(&self) -> usize {
        1
    }

    /// Fault-free responses for every minterm, and the check that every
    /// output alternates over every pair.
    fn golden(&mut self) -> Result<(u64, ()), EngineError> {
        let n = self.inputs;
        let total = 1u32 << n;
        let mut normal = vec![vec![false; self.circuit.outputs().len()]; total as usize];
        sweep(self.circuit, &[], n, |m, vals| {
            normal[m as usize].copy_from_slice(vals);
        });
        let mask = total - 1;
        for m in 0..total {
            for (k, &v) in normal[m as usize].iter().enumerate() {
                if v == normal[(!m & mask) as usize][k] {
                    return Err(EngineError::NotAlternating { output: k, pair: m });
                }
            }
        }
        self.normal = normal;
        Ok((self.words_per_sweep(), ()))
    }

    fn worker(&self) {}

    fn run(
        &self,
        (): &mut (),
        unit: Unit<'_>,
        record: bool,
        _cancel: Option<&CancelToken>,
    ) -> Option<UnitResult<CampaignResult>> {
        let t = Instant::now();
        let ov = unit.faults[0];
        let n = self.inputs;
        let total = 1u32 << n;
        let mask = total - 1;
        let normal = &self.normal;
        let mut faulty = vec![vec![false; self.circuit.outputs().len()]; total as usize];
        sweep(self.circuit, &[ov], n, |m, vals| {
            faulty[m as usize].copy_from_slice(vals);
        });
        let mut detected = Vec::new();
        let mut violations = Vec::new();
        let mut observable = false;
        for m in 0..total {
            let m2 = !m & mask;
            if m > m2 {
                continue;
            }
            let nrm = (normal[m as usize].clone(), normal[m2 as usize].clone());
            let fty = (faulty[m as usize].clone(), faulty[m2 as usize].clone());
            if fty.0 != nrm.0 || fty.1 != nrm.1 {
                observable = true;
            }
            let (_, class) = classify_pair(&nrm, &fty);
            match class {
                PairClass::Correct => {}
                PairClass::Detected => detected.push(m),
                PairClass::Violation => violations.push(m),
            }
        }
        let eval_time = t.elapsed();
        let (words, pairs) = (self.words_per_sweep(), u64::from(total / 2));
        let summary = FaultSummary {
            detected: detected.len(),
            violations: violations.len(),
            observable,
            pairs,
            // The scalar sweep visits canonical minterms in ascending
            // order, matching the engine's pair ordering exactly.
            first_detected: detected.first().copied(),
            ..FaultSummary::default()
        };
        let fault_events = if record {
            vec![vec![CampaignEvent::Span {
                name: "eval_batch",
                parent: "fault_sim",
                micros: duration_micros(eval_time),
                count: words,
                items: pairs,
            }]]
        } else {
            Vec::new()
        };
        Some(UnitResult {
            verdicts: vec![CampaignResult {
                fault: Fault::new(ov.site, ov.value),
                detected_pairs: detected.into_iter().collect(),
                violation_pairs: violations.into_iter().collect(),
                observable,
            }],
            summaries: vec![summary],
            words,
            eval_time,
            unit_events: Vec::new(),
            fault_events,
        })
    }
}

/// Evaluates output values for every minterm using 64-lane sweeps, invoking
/// `sink(minterm, output_values)`.
///
/// The input words are built lane by lane from the definition (bit `lane`
/// of input `i`'s word is bit `i` of `base + lane`), not from the engine's
/// closed-form batch words: this is the oracle the engine's sweeps are
/// checked against, so a fault in that shared helper cannot hide here.
fn sweep<F: FnMut(u32, &[bool])>(circuit: &Circuit, overrides: &[Override], n: usize, mut sink: F) {
    let total = 1usize << n;
    let out_nodes: Vec<usize> = circuit.outputs().iter().map(|o| o.node.index()).collect();
    let mut words = vec![0u64; n];
    let mut outvals = vec![false; out_nodes.len()];
    let mut base = 0usize;
    while base < total {
        let lanes = (total - base).min(64);
        for (i, w) in words.iter_mut().enumerate() {
            *w = 0;
            for lane in 0..lanes {
                let m = base + lane;
                if (m >> i) & 1 == 1 {
                    *w |= 1 << lane;
                }
            }
        }
        let values = circuit.eval_nodes64(&words, &[], overrides);
        for lane in 0..lanes {
            for (k, &oi) in out_nodes.iter().enumerate() {
                outvals[k] = (values[oi] >> lane) & 1 == 1;
            }
            sink((base + lane) as u32, &outvals);
        }
        base += lanes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scal_netlist::{GateKind, Site};

    /// Two-level self-dual network: XOR3 as a single gate.
    fn xor3() -> Circuit {
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let d = c.input("c");
        let x = c.gate(GateKind::Xor, &[a, b, d]);
        c.mark_output("f", x);
        c
    }

    /// MAJ(a,b,c) from NANDs — the two-level (plus collection) self-dual
    /// form Yamamoto's theorem says is self-checking.
    fn maj_nand() -> Circuit {
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let d = c.input("c");
        let nab = c.nand(&[a, b]);
        let nac = c.nand(&[a, d]);
        let nbc = c.nand(&[b, d]);
        let f = c.nand(&[nab, nac, nbc]);
        c.mark_output("f", f);
        c
    }

    /// w = a XOR b (single gate) feeding two unequal-parity reconvergent
    /// paths: f = (w AND ¬c) OR (¬w AND c) = w ⊕ c. Faults on w's stem
    /// produce incorrect alternating outputs (the paper's "line 20"
    /// mechanism).
    fn unequal_parity_xor() -> Circuit {
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let d = c.input("c");
        let w = c.xor(&[a, b]);
        let nd = c.not(d);
        let nw = c.not(w);
        let t1 = c.and(&[w, nd]);
        let t2 = c.and(&[nw, d]);
        let f = c.or(&[t1, t2]);
        c.mark_output("f", f);
        c
    }

    #[test]
    fn response_pair_alternates_when_fault_free() {
        let c = xor3();
        for m in 0..8u32 {
            let x: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
            let (p1, p2) = response_pair(&c, &[], &x);
            assert_ne!(p1[0], p2[0]);
        }
    }

    #[test]
    fn classify_detects_nonalternating() {
        let normal = (vec![true], vec![false]);
        let (o, cls) = classify_pair(&normal, &(vec![true], vec![true]));
        assert_eq!(o, vec![PairOutcome::NonAlternating]);
        assert_eq!(cls, PairClass::Detected);
    }

    #[test]
    fn classify_flags_wrong_alternation() {
        let normal = (vec![true], vec![false]);
        let (o, cls) = classify_pair(&normal, &(vec![false], vec![true]));
        assert_eq!(o, vec![PairOutcome::WrongAlternating]);
        assert_eq!(cls, PairClass::Violation);
    }

    #[test]
    fn classify_multiple_outputs_follow_definition_3_3() {
        // One output wrong-alternating, another non-alternating -> Detected.
        let normal = (vec![true, false], vec![false, true]);
        let faulty = (vec![false, true], vec![true, true]);
        let (o, cls) = classify_pair(&normal, &faulty);
        assert_eq!(o[0], PairOutcome::WrongAlternating);
        assert_eq!(o[1], PairOutcome::NonAlternating);
        assert_eq!(cls, PairClass::Detected);
    }

    #[test]
    #[should_panic(expected = "does not alternate")]
    fn classify_rejects_nonalternating_reference() {
        let normal = (vec![true], vec![true]);
        let _ = classify_pair(&normal, &(vec![true], vec![true]));
    }

    #[test]
    fn two_level_self_dual_network_is_self_checking() {
        // Yamamoto's result (via Theorem 3.7): two-level self-dual networks
        // with monotonic gates are self-checking.
        let c = maj_nand();
        for r in crate::Campaign::new(&c).run().unwrap().results {
            assert!(r.fault_secure(), "violation for {}", r.fault);
            assert!(r.tested(), "untested fault {}", r.fault);
        }
    }

    #[test]
    fn single_xor_gate_network_is_self_checking() {
        let c = xor3();
        for r in crate::Campaign::new(&c).run().unwrap().results {
            assert!(r.fault_secure());
            assert!(r.tested());
        }
    }

    #[test]
    fn unequal_parity_reconvergence_violates_fault_security() {
        let c = unequal_parity_xor();
        let results = crate::Campaign::new(&c).run().unwrap().results;
        // The XOR stem (w) fans out with unequal parity; its stuck faults
        // must yield incorrect alternating outputs.
        let w_site = {
            // w is node index 3 (after inputs a,b,c).
            let w = c
                .node_ids()
                .find(|&id| c.view(id) == scal_netlist::NodeView::Gate(GateKind::Xor))
                .unwrap();
            Site::Stem(w)
        };
        let w_results: Vec<_> = results.iter().filter(|r| r.fault.site == w_site).collect();
        assert_eq!(w_results.len(), 2);
        for r in w_results {
            assert!(
                !r.fault_secure(),
                "expected fault-secure violation for {}",
                r.fault
            );
        }
    }

    #[test]
    fn campaign_covers_collapsed_universe() {
        let c = maj_nand();
        let res = crate::Campaign::new(&c).run().unwrap().results;
        assert_eq!(res.len(), crate::enumerate_faults(&c).len());
        assert!(res.iter().all(|r| r.observable));
    }

    #[test]
    fn campaign_pairs_enumerated_once() {
        let c = xor3();
        let res = crate::Campaign::new(&c).run().unwrap().results;
        for r in &res {
            for m in r.detected_pairs.iter().chain(r.violation_pairs.iter()) {
                assert!(m <= (!m & 0b111), "pair {m} not canonical");
            }
        }
    }
}
