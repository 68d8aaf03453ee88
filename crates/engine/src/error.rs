//! The engine's public error type.
//!
//! The compile/eval/campaign paths originally panicked on every misuse; the
//! fallible `try_*` entry points return [`EngineError`] instead, and the
//! retained panicking wrappers format these errors so their messages (and
//! downstream `should_panic` expectations) are unchanged.

use scal_netlist::NetlistError;
use std::fmt;

/// Everything the engine can reject.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// The circuit failed [`scal_netlist::Circuit::validate`].
    InvalidCircuit(NetlistError),
    /// The circuit (or its fanin table) is too large for the engine's `u32`
    /// slot indices.
    TooLarge {
        /// Offending element count.
        count: usize,
    },
    /// A pair campaign was asked to run on a sequential circuit.
    Sequential,
    /// A pair campaign was asked to run outside the supported input range.
    UnsupportedInputs {
        /// Primary-input count of the offending circuit.
        inputs: usize,
    },
    /// A fault-free output failed to alternate — the circuit is not an
    /// alternating network, so pair classification is meaningless.
    NotAlternating {
        /// Offending primary-output index.
        output: usize,
        /// Canonical first-period minterm of the offending pair.
        pair: u32,
    },
    /// An evaluation was driven with the wrong number of words.
    ArityMismatch {
        /// What was mis-sized: `"input"` or `"state"`.
        what: &'static str,
        /// Words expected.
        expected: usize,
        /// Words provided.
        got: usize,
    },
    /// [`crate::Evaluator::install`] was called with overrides already
    /// installed.
    OverridesInstalled,
    /// An [`crate::EngineConfig`] builder value was rejected.
    InvalidConfig {
        /// Human-readable description of the rejected knob.
        reason: String,
    },
    /// A campaign workload failed on the fault-free design, so no fault
    /// verdict over it would mean anything.
    WorkloadFailed {
        /// Name of the failing workload.
        workload: String,
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Keep the historical panic phrasings: the panicking wrappers
            // format this Display and callers assert on these substrings.
            EngineError::InvalidCircuit(e) => {
                write!(f, "circuit must validate before compilation: {e}")
            }
            EngineError::TooLarge { count } => {
                write!(f, "circuit too large for the engine: {count} elements")
            }
            EngineError::Sequential => write!(f, "campaigns are combinational-only"),
            EngineError::UnsupportedInputs { inputs } => {
                write!(f, "campaign supports 1..=24 inputs, circuit has {inputs}")
            }
            EngineError::NotAlternating { output, pair } => write!(
                f,
                "output {output} does not alternate at pair ({pair:b}); not an alternating network"
            ),
            EngineError::ArityMismatch {
                what,
                expected,
                got,
            } => write!(f, "{what} arity mismatch: expected {expected}, got {got}"),
            EngineError::OverridesInstalled => {
                write!(f, "uninstall previous overrides first")
            }
            EngineError::InvalidConfig { reason } => {
                write!(f, "invalid engine config: {reason}")
            }
            EngineError::WorkloadFailed { workload, reason } => {
                write!(f, "workload {workload} fails fault-free: {reason}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<NetlistError> for EngineError {
    fn from(e: NetlistError) -> Self {
        EngineError::InvalidCircuit(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_keeps_historical_phrasings() {
        assert!(EngineError::Sequential
            .to_string()
            .contains("combinational-only"));
        assert!(EngineError::UnsupportedInputs { inputs: 30 }
            .to_string()
            .contains("1..=24 inputs"));
        assert!(EngineError::NotAlternating { output: 0, pair: 2 }
            .to_string()
            .contains("does not alternate"));
        assert!(EngineError::OverridesInstalled
            .to_string()
            .contains("uninstall previous overrides"));
    }
}
