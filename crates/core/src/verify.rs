//! The exhaustive SCAL verification engine.

use scal_faults::{enumerate_faults, Campaign, Fault};
use scal_netlist::Circuit;

/// A fault-secure violation found by [`verify`]: a fault and the first-period
/// inputs at which it produced an undetected wrong code word (an *incorrect
/// alternating output*, Theorem 3.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The offending fault.
    pub fault: Fault,
    /// Canonical first-period minterms of the violating pairs.
    pub pairs: Vec<u32>,
}

/// Errors from [`verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VerifyError {
    /// The circuit failed structural validation.
    Netlist(scal_netlist::NetlistError),
    /// The circuit is sequential; verify the combinational core and the
    /// feedback path separately (Chapter 4's decomposition).
    Sequential,
    /// Too many inputs for exhaustive verification.
    TooWide {
        /// Input count.
        inputs: usize,
    },
    /// Some output is not self-dual: not an alternating network.
    NotAlternating {
        /// Index of the offending output.
        output: usize,
    },
}

impl core::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            VerifyError::Netlist(e) => write!(f, "invalid netlist: {e}"),
            VerifyError::Sequential => write!(f, "verify() handles combinational networks"),
            VerifyError::TooWide { inputs } => {
                write!(
                    f,
                    "{inputs} inputs exceed the exhaustive verification limit"
                )
            }
            VerifyError::NotAlternating { output } => {
                write!(f, "output {output} is not self-dual")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// The verdict of exhaustive single-fault verification of an alternating
/// network (Definition 2.6 / Theorem 2.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScalVerdict {
    /// Number of (collapsed) faults simulated.
    pub fault_count: usize,
    /// Number of alternating input pairs driven per fault.
    pub pair_count: usize,
    /// No fault ever produced an undetected wrong code word
    /// (condition (b) of Theorem 2.2).
    pub fault_secure: bool,
    /// All violations found (empty iff `fault_secure`).
    pub violations: Vec<Violation>,
    /// Faults never detected by a non-code output. With `fault_secure`,
    /// these are exactly the *unobservable* faults of redundant lines; the
    /// paper's convention replaces such subnetworks by constants.
    pub untested: Vec<Fault>,
    /// Strict self-testing (condition (a) of Theorem 2.2): every fault is
    /// observable.
    pub self_testing: bool,
}

impl ScalVerdict {
    /// The network is a SCAL network in the strict sense: fault-secure and
    /// self-testing for every enumerated fault.
    #[must_use]
    pub fn is_self_checking(&self) -> bool {
        self.fault_secure && self.self_testing
    }

    /// The paper's working notion after redundancy removal: fault-secure,
    /// with untested faults permitted only if they are logically
    /// unobservable (nothing to detect).
    #[must_use]
    pub fn is_self_checking_modulo_redundancy(&self) -> bool {
        self.fault_secure
    }
}

/// Exhaustively verifies that a combinational circuit is a SCAL network:
/// each output self-dual, and every collapsed single stuck-at fault either
/// invisible or caught as a non-code (non-alternating) output on some input
/// pair, never as a wrong code word.
///
/// # Errors
///
/// Returns a [`VerifyError`] if the circuit is sequential, too wide
/// (more than 20 inputs), invalid, or not alternating.
pub fn verify(circuit: &Circuit) -> Result<ScalVerdict, VerifyError> {
    verify_with(circuit, &enumerate_faults(circuit))
}

/// The collapsed fault universe of `circuit` *minus* faults on the named
/// clock input's stem.
///
/// The paper treats the period-clock distribution as part of the hardcore
/// ("all fan out of the clock φ is from a common node"; a dead clock stops
/// the system, which counts as detection). Moreover, when the realized
/// function is itself self-dual the clock is logically vacuous, so its stem
/// faults are unobservable by construction — excluding them reflects the
/// model rather than hiding a weakness.
#[must_use]
pub fn faults_excluding_clock(circuit: &Circuit, clock_name: &str) -> Vec<Fault> {
    let clock = circuit
        .inputs()
        .iter()
        .copied()
        .find(|&i| circuit.name(i) == Some(clock_name));
    enumerate_faults(circuit)
        .into_iter()
        .filter(|f| match (f.site, clock) {
            (scal_netlist::Site::Stem(n), Some(c)) => n != c,
            _ => true,
        })
        .collect()
}

/// As [`verify`], over a caller-chosen fault list (e.g. an uncollapsed
/// universe, or a single suspect line).
///
/// # Errors
///
/// See [`verify`].
pub fn verify_with(circuit: &Circuit, faults: &[Fault]) -> Result<ScalVerdict, VerifyError> {
    circuit.validate().map_err(VerifyError::Netlist)?;
    if circuit.is_sequential() {
        return Err(VerifyError::Sequential);
    }
    let n = circuit.inputs().len();
    if n > 20 {
        return Err(VerifyError::TooWide { inputs: n });
    }
    for (k, tt) in circuit.output_tts().iter().enumerate() {
        if !tt.is_self_dual() {
            return Err(VerifyError::NotAlternating { output: k });
        }
    }

    let results = Campaign::new(circuit)
        .faults(faults.to_vec())
        .run()
        .expect("preconditions checked above")
        .results;
    let mut violations = Vec::new();
    let mut untested = Vec::new();
    for r in &results {
        if !r.violation_pairs.is_empty() {
            violations.push(Violation {
                fault: r.fault,
                pairs: r.violation_pairs.iter().collect(),
            });
        }
        if r.detected_pairs.is_empty() {
            untested.push(r.fault);
        }
    }
    let fault_secure = violations.is_empty();
    let self_testing = untested.is_empty();
    Ok(ScalVerdict {
        fault_count: faults.len(),
        pair_count: 1usize << n.saturating_sub(1),
        fault_secure,
        violations,
        untested,
        self_testing,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;
    use scal_netlist::Site;

    #[test]
    fn two_level_majority_verifies() {
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let d = c.input("c");
        let nab = c.nand(&[a, b]);
        let nac = c.nand(&[a, d]);
        let nbc = c.nand(&[b, d]);
        let f = c.nand(&[nab, nac, nbc]);
        c.mark_output("f", f);
        let v = verify(&c).unwrap();
        assert!(v.is_self_checking());
        assert_eq!(v.pair_count, 4);
        assert!(v.violations.is_empty());
        assert!(v.untested.is_empty());
    }

    #[test]
    fn non_alternating_rejected() {
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let g = c.or(&[a, b]);
        c.mark_output("f", g);
        assert_eq!(verify(&c), Err(VerifyError::NotAlternating { output: 0 }));
    }

    #[test]
    fn fig3_4_reconstruction_fails_verification() {
        let fig = paper::fig3_4();
        let v = verify(&fig.circuit).unwrap();
        assert!(!v.fault_secure);
        // The offending line-20 stem must be among the violations.
        assert!(v
            .violations
            .iter()
            .any(|viol| viol.fault.site == fig.line20));
        // But line 9's stem must not be (rescued by Corollary 3.2).
        assert!(v.violations.iter().all(|viol| viol.fault.site != fig.line9));
    }

    #[test]
    fn fig3_7_fix_verifies() {
        let fixed = paper::fig3_7();
        let v = verify(&fixed.circuit).unwrap();
        assert!(v.fault_secure, "violations: {:?}", v.violations);
        assert!(v.self_testing);
    }

    #[test]
    fn verdict_agrees_with_algorithm_3_1() {
        for circuit in [paper::fig3_4().circuit, paper::fig3_7().circuit] {
            let verdict = verify(&circuit).unwrap();
            let report = scal_analysis::analyze(&circuit).unwrap();
            assert_eq!(verdict.fault_secure, report.self_checking);
            // Per-line agreement.
            for line in &report.lines {
                let sim_bad = verdict.violations.iter().any(|v| v.fault.site == line.site);
                assert_eq!(line.fault_secure, !sim_bad, "line {}", line.site);
            }
        }
    }

    #[test]
    fn single_fault_list_verification() {
        let fig = paper::fig3_4();
        let faults = [
            scal_faults::Fault::new(fig.line20, false),
            scal_faults::Fault::new(fig.line20, true),
        ];
        let v = verify_with(&fig.circuit, &faults).unwrap();
        assert_eq!(v.fault_count, 2);
        assert!(!v.fault_secure);
    }

    #[test]
    fn adder_is_scal_for_free() {
        // Fig 2.2's point: the full adder is already self-dual — no
        // dualization hardware at all — and its two-level realization is
        // self-checking.
        let adder = paper::self_dual_adder();
        let v = verify(&adder).unwrap();
        assert!(v.is_self_checking());
    }

    #[test]
    fn untested_faults_reported_for_dangling_logic() {
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let d = c.input("c");
        let dangling = c.and(&[a, b]);
        let _ = dangling;
        let x = c.gate(scal_netlist::GateKind::Xor, &[a, b, d]);
        c.mark_output("f", x);
        let v = verify(&c).unwrap();
        assert!(v.fault_secure);
        assert!(!v.self_testing);
        assert!(v.untested.iter().all(|f| match f.site {
            Site::Stem(n) => n == dangling,
            Site::Branch { node, .. } => node == dangling,
        }));
        assert!(v.is_self_checking_modulo_redundancy());
        assert!(!v.is_self_checking());
    }
}
