//! Gate kinds and their logical/structural properties.

use crate::NetlistFormat;

/// The gate alphabet of the SCAL netlist substrate.
///
/// Covers the paper's "standard gates" (Definition 3.2: NOT, NAND, AND, NOR,
/// OR), the non-standard XOR/XNOR it contrasts them with, and the minority /
/// majority threshold modules of Chapter 6. `Buf` is an explicit
/// non-inverting buffer (useful for modelling named internal lines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum GateKind {
    /// Non-inverting buffer (1 input).
    Buf,
    /// Inverter (1 input).
    Not,
    /// AND (≥ 1 input).
    And,
    /// OR (≥ 1 input).
    Or,
    /// NAND (≥ 1 input).
    Nand,
    /// NOR (≥ 1 input).
    Nor,
    /// Exclusive-OR / odd parity (≥ 1 input).
    Xor,
    /// Exclusive-NOR / even parity (≥ 1 input).
    Xnor,
    /// Minority threshold module (odd input count ≥ 3): output 1 iff fewer
    /// than half the inputs are 1 (paper Fig. 6.1a).
    Minority,
    /// Majority threshold module (odd input count ≥ 3): output 1 iff more
    /// than half the inputs are 1 (paper Fig. 6.1b).
    Majority,
}

impl GateKind {
    /// Evaluates the gate on its input values.
    ///
    /// # Panics
    ///
    /// Panics if the arity is invalid for the kind (see [`GateKind::arity_ok`]).
    #[must_use]
    pub fn eval(self, inputs: &[bool]) -> bool {
        assert!(
            self.arity_ok(inputs.len()),
            "bad arity {} for {self:?}",
            inputs.len()
        );
        let ones = inputs.iter().filter(|&&b| b).count();
        let n = inputs.len();
        match self {
            GateKind::Buf => inputs[0],
            GateKind::Not => !inputs[0],
            GateKind::And => ones == n,
            GateKind::Nand => ones != n,
            GateKind::Or => ones > 0,
            GateKind::Nor => ones == 0,
            GateKind::Xor => ones % 2 == 1,
            GateKind::Xnor => ones % 2 == 0,
            GateKind::Minority => ones * 2 < n,
            GateKind::Majority => ones * 2 > n,
        }
    }

    /// 64-lane bit-parallel evaluation: each bit position is an independent
    /// evaluation.
    ///
    /// # Panics
    ///
    /// Panics on invalid arity.
    #[must_use]
    pub fn eval64(self, inputs: &[u64]) -> u64 {
        assert!(
            self.arity_ok(inputs.len()),
            "bad arity {} for {self:?}",
            inputs.len()
        );
        match self {
            GateKind::Buf => inputs[0],
            GateKind::Not => !inputs[0],
            GateKind::And => inputs.iter().fold(u64::MAX, |a, &b| a & b),
            GateKind::Nand => !inputs.iter().fold(u64::MAX, |a, &b| a & b),
            GateKind::Or => inputs.iter().fold(0, |a, &b| a | b),
            GateKind::Nor => !inputs.iter().fold(0, |a, &b| a | b),
            GateKind::Xor => inputs.iter().fold(0, |a, &b| a ^ b),
            GateKind::Xnor => !inputs.iter().fold(0, |a, &b| a ^ b),
            GateKind::Minority | GateKind::Majority => {
                // Per-lane popcount threshold via a small sorting network is
                // overkill here; do it lane-wise with counters in u64 chunks.
                let n = inputs.len();
                let mut out = 0u64;
                for lane in 0..64 {
                    let ones = inputs.iter().filter(|&&w| (w >> lane) & 1 == 1).count();
                    let v = if self == GateKind::Minority {
                        ones * 2 < n
                    } else {
                        ones * 2 > n
                    };
                    if v {
                        out |= 1 << lane;
                    }
                }
                out
            }
        }
    }

    /// `true` iff `n` fanins is a legal arity for this kind.
    #[must_use]
    pub fn arity_ok(self, n: usize) -> bool {
        match self {
            GateKind::Buf | GateKind::Not => n == 1,
            GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor => n >= 1,
            GateKind::Xor | GateKind::Xnor => n >= 1,
            GateKind::Minority | GateKind::Majority => n >= 3 && n % 2 == 1,
        }
    }

    /// Inversion parity the gate contributes to a path through it, if it is
    /// parity-definite.
    ///
    /// Returns `Some(false)` for non-inverting gates, `Some(true)` for
    /// inverting ones, and `None` for XOR/XNOR, through which path parity is
    /// not well defined (they are binate; Theorem 3.8 does not apply).
    #[must_use]
    pub fn inversion_parity(self) -> Option<bool> {
        match self {
            GateKind::Buf | GateKind::And | GateKind::Or | GateKind::Majority => Some(false),
            GateKind::Not | GateKind::Nand | GateKind::Nor | GateKind::Minority => Some(true),
            GateKind::Xor | GateKind::Xnor => None,
        }
    }

    /// `true` iff the gate is unate (monotone or antitone) in every input —
    /// the property Theorem 3.7's "unate gates in the path" requires.
    #[must_use]
    pub fn is_unate(self) -> bool {
        !matches!(self, GateKind::Xor | GateKind::Xnor)
    }

    /// `true` iff this is one of the paper's *standard gates* (Definition
    /// 3.2: NOT, NAND, AND, NOR, OR) — the gates with an input-dominance
    /// property that Theorem 3.9 exploits.
    #[must_use]
    pub fn is_standard(self) -> bool {
        matches!(
            self,
            GateKind::Not | GateKind::Nand | GateKind::And | GateKind::Nor | GateKind::Or
        )
    }

    /// The dominant input value of a standard multi-input gate: the value
    /// that forces the output regardless of other inputs (0 for AND/NAND, 1
    /// for OR/NOR). `None` for NOT/BUF and non-standard gates.
    #[must_use]
    pub fn dominant_input(self) -> Option<bool> {
        match self {
            GateKind::And | GateKind::Nand => Some(false),
            GateKind::Or | GateKind::Nor => Some(true),
            _ => None,
        }
    }

    /// Short lowercase mnemonic (`"nand"` etc.), the text format's spelling.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        self.spelling(NetlistFormat::ScalText)
    }

    /// How `format` writes this kind.
    pub(crate) fn spelling(self, format: NetlistFormat) -> &'static str {
        SPELLINGS[self as usize].1[format as usize]
    }

    /// The kind `format` spells `name`. Bench keywords match in any case,
    /// under either of their two spellings.
    pub(crate) fn from_spelling(name: &str, format: NetlistFormat) -> Option<GateKind> {
        let matches = |(_, words): &&(GateKind, [&str; 4])| match format {
            NetlistFormat::Bench => {
                words[2].eq_ignore_ascii_case(name) || words[3].eq_ignore_ascii_case(name)
            }
            _ => words[format as usize] == name,
        };
        SPELLINGS.iter().find(matches).map(|&(kind, _)| kind)
    }
}

/// Every gate kind, in declaration order, with its spellings: text, Verilog,
/// bench, and the second bench keyword the bench reader also accepts.
const SPELLINGS: [(GateKind, [&str; 4]); 10] = [
    (GateKind::Buf, ["buf", "buf", "BUFF", "BUF"]),
    (GateKind::Not, ["not", "not", "NOT", "NOT"]),
    (GateKind::And, ["and", "and", "AND", "AND"]),
    (GateKind::Or, ["or", "or", "OR", "OR"]),
    (GateKind::Nand, ["nand", "nand", "NAND", "NAND"]),
    (GateKind::Nor, ["nor", "nor", "NOR", "NOR"]),
    (GateKind::Xor, ["xor", "xor", "XOR", "XOR"]),
    (GateKind::Xnor, ["xnor", "xnor", "XNOR", "XNOR"]),
    (
        GateKind::Minority,
        ["min", "scal_minority", "MINORITY", "MIN"],
    ),
    (
        GateKind::Majority,
        ["maj", "scal_majority", "MAJORITY", "MAJ"],
    ),
];

impl core::fmt::Display for GateKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_truth_tables() {
        assert!(GateKind::And.eval(&[true, true]));
        assert!(!GateKind::And.eval(&[true, false]));
        assert!(GateKind::Nand.eval(&[true, false]));
        assert!(GateKind::Or.eval(&[false, true]));
        assert!(GateKind::Nor.eval(&[false, false]));
        assert!(GateKind::Xor.eval(&[true, false, false]));
        assert!(!GateKind::Xor.eval(&[true, true, false, false]));
        assert!(GateKind::Xnor.eval(&[true, true]));
        assert!(GateKind::Not.eval(&[false]));
        assert!(GateKind::Buf.eval(&[true]));
    }

    #[test]
    fn minority_majority_complementary() {
        // For odd arity, minority(X) = ¬majority(X).
        for m in 0..32u32 {
            let ins: Vec<bool> = (0..5).map(|i| (m >> i) & 1 == 1).collect();
            assert_ne!(GateKind::Minority.eval(&ins), GateKind::Majority.eval(&ins));
        }
    }

    #[test]
    fn minority_matches_fig_6_1a() {
        // 3-input minority truth table from Fig 6.1a: 1 iff ≤1 input is 1.
        for m in 0..8u32 {
            let ins: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(GateKind::Minority.eval(&ins), m.count_ones() <= 1);
        }
    }

    #[test]
    fn eval64_agrees_with_scalar() {
        for kind in [
            GateKind::And,
            GateKind::Or,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Minority,
            GateKind::Majority,
        ] {
            let arity = 3;
            // Pack all 8 input combinations into lanes 0..8.
            let mut words = vec![0u64; arity];
            for m in 0..8u64 {
                for (i, w) in words.iter_mut().enumerate() {
                    if (m >> i) & 1 == 1 {
                        *w |= 1 << m;
                    }
                }
            }
            let out = kind.eval64(&words);
            for m in 0..8u64 {
                let ins: Vec<bool> = (0..arity).map(|i| (m >> i) & 1 == 1).collect();
                assert_eq!((out >> m) & 1 == 1, kind.eval(&ins), "{kind:?} m={m}");
            }
        }
    }

    #[test]
    fn spellings_follow_declaration_order_and_read_back() {
        let formats = [
            NetlistFormat::ScalText,
            NetlistFormat::Verilog,
            NetlistFormat::Bench,
        ];
        for (ix, &(kind, words)) in SPELLINGS.iter().enumerate() {
            assert_eq!(kind as usize, ix);
            for format in formats {
                assert_eq!(
                    GateKind::from_spelling(kind.spelling(format), format),
                    Some(kind)
                );
            }
            let lower = words[3].to_ascii_lowercase();
            assert_eq!(
                GateKind::from_spelling(&lower, NetlistFormat::Bench),
                Some(kind)
            );
        }
        assert_eq!(GateKind::Minority.mnemonic(), "min");
        assert_eq!(
            GateKind::from_spelling("NAND", NetlistFormat::ScalText),
            None
        );
        assert_eq!(GateKind::from_spelling("", NetlistFormat::Bench), None);
    }

    #[test]
    fn arity_rules() {
        assert!(GateKind::Not.arity_ok(1));
        assert!(!GateKind::Not.arity_ok(2));
        assert!(GateKind::Minority.arity_ok(3));
        assert!(GateKind::Minority.arity_ok(5));
        assert!(!GateKind::Minority.arity_ok(4));
        assert!(!GateKind::Minority.arity_ok(1));
        assert!(GateKind::Nand.arity_ok(7));
    }

    #[test]
    fn structural_properties() {
        assert_eq!(GateKind::Nand.inversion_parity(), Some(true));
        assert_eq!(GateKind::Or.inversion_parity(), Some(false));
        assert_eq!(GateKind::Xor.inversion_parity(), None);
        assert!(GateKind::Nand.is_unate());
        assert!(!GateKind::Xnor.is_unate());
        assert!(GateKind::Nor.is_standard());
        assert!(!GateKind::Xor.is_standard());
        assert!(!GateKind::Majority.is_standard());
        assert_eq!(GateKind::Nand.dominant_input(), Some(false));
        assert_eq!(GateKind::Nor.dominant_input(), Some(true));
        assert_eq!(GateKind::Xor.dominant_input(), None);
    }
}
