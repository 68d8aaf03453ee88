//! The wide-word abstraction behind 2-D packed evaluation: a `Word<W>` is
//! `W` independent 64-lane sub-words evaluated together, written as plain
//! safe array loops. The workspace builds for the baseline target, so a
//! wide word is a batch size, not a vector register: it amortizes the
//! per-op schedule walk over `W` sub-words.
//!
//! The width follows the workload, not the host: [`word_width_for`] picks
//! the narrowest width whose one word holds a campaign's whole workload, so
//! a small campaign does not sweep a mostly empty wide word, and every
//! result is a function of the circuit and fault list alone. Campaigns monomorphize their hot loops per
//! supported width and dispatch once per run, so the inner sweeps stay
//! branch-free.

use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, BitXorAssign, Not};

/// The word widths the engine monomorphizes, narrowest first.
pub const WORD_WIDTHS: [usize; 3] = [1, 4, 8];

/// A wide evaluation word: `W` independent 64-lane sub-words.
///
/// All bitwise operators act lane-wise across every sub-word. The type is
/// deliberately a plain `[u64; W]` wrapper with safe per-element loops — no
/// intrinsics — so the same code compiles on every target and vectorizes
/// where profitable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(transparent)]
pub struct Word<const W: usize>(pub(crate) [u64; W]);

impl<const W: usize> Word<W> {
    /// The all-zeros word.
    pub const ZERO: Word<W> = Word([0; W]);

    /// The all-ones word.
    #[inline]
    #[must_use]
    pub fn ones() -> Self {
        Self::splat(u64::MAX)
    }

    /// Broadcasts one 64-lane sub-word to every sub-word position.
    #[inline]
    #[must_use]
    pub fn splat(v: u64) -> Self {
        Word([v; W])
    }

    /// All lanes of all sub-words set to `b`.
    #[inline]
    #[must_use]
    pub fn splat_bool(b: bool) -> Self {
        Self::splat(0u64.wrapping_sub(u64::from(b)))
    }

    /// Wraps a single sub-word; only meaningful glue for `W = 1`.
    #[inline]
    #[must_use]
    pub fn from_u64(v: u64) -> Self {
        let mut w = [0u64; W];
        w[0] = v;
        Word(w)
    }

    /// Builds a word sub-word by sub-word.
    #[inline]
    #[must_use]
    pub fn from_fn(f: impl FnMut(usize) -> u64) -> Self {
        Word(core::array::from_fn(f))
    }

    /// `true` iff every lane of every sub-word is zero.
    #[inline]
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    /// Sub-word `i` (64 lanes).
    // "sub" as in sub-word, not subtraction; `Word` has no arithmetic.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    #[must_use]
    pub fn sub(self, i: usize) -> u64 {
        self.0[i]
    }

    /// Sub-word 0 — the whole word when `W = 1`.
    #[inline]
    #[must_use]
    pub fn first(self) -> u64 {
        self.0[0]
    }

    /// Overwrites sub-word `i`.
    #[inline]
    pub fn set_sub(&mut self, i: usize, v: u64) {
        self.0[i] = v;
    }

    /// Per sub-word, broadcasts lane 0 (the golden lane of a fault-packed
    /// word) across all 64 lanes: `0u64.wrapping_sub(w & 1)`.
    #[inline]
    #[must_use]
    pub fn golden_splat(self) -> Self {
        let mut out = self.0;
        for w in &mut out {
            *w = 0u64.wrapping_sub(*w & 1);
        }
        Word(out)
    }

    /// `(self & !mask) | (value & mask)` — the masked-force blend.
    #[inline]
    #[must_use]
    pub fn blend(self, value: Self, mask: Self) -> Self {
        (self & !mask) | (value & mask)
    }
}

impl<const W: usize> Default for Word<W> {
    fn default() -> Self {
        Self::ZERO
    }
}

macro_rules! word_binop {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign_method:ident, $assign_op:tt) => {
        impl<const W: usize> $trait for Word<W> {
            type Output = Word<W>;

            #[inline]
            fn $method(self, rhs: Word<W>) -> Word<W> {
                let mut out = self.0;
                for (o, r) in out.iter_mut().zip(rhs.0.iter()) {
                    *o $assign_op *r;
                }
                Word(out)
            }
        }

        impl<const W: usize> $assign_trait for Word<W> {
            #[inline]
            fn $assign_method(&mut self, rhs: Word<W>) {
                for (o, r) in self.0.iter_mut().zip(rhs.0.iter()) {
                    *o $assign_op *r;
                }
            }
        }
    };
}

word_binop!(BitAnd, bitand, BitAndAssign, bitand_assign, &=);
word_binop!(BitOr, bitor, BitOrAssign, bitor_assign, |=);
word_binop!(BitXor, bitxor, BitXorAssign, bitxor_assign, ^=);

impl<const W: usize> Not for Word<W> {
    type Output = Word<W>;

    #[inline]
    fn not(self) -> Word<W> {
        let mut out = self.0;
        for o in &mut out {
            *o = !*o;
        }
        Word(out)
    }
}

/// Bit `lane` of `LANE_BITS[i]` is bit `i` of `lane`: the pattern input
/// `i < 6` takes across the 64 lanes of an exhaustive-sweep batch.
const LANE_BITS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Mask of the valid lanes of a batch of `lanes ≤ 64` patterns.
pub(crate) fn lane_mask(lanes: usize) -> u64 {
    if lanes >= 64 {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    }
}

/// Input `i`'s word in the exhaustive-sweep batch whose lane `l` carries
/// pattern `base + l`: bit `l` is bit `i` of `base + l` on the lanes of
/// `mask`, and 0 elsewhere. `base` is a multiple of 64, so a pattern's low
/// six bits are its lane index and its higher bits are `base`'s: the word
/// is a periodic mask for `i < 6` and all valid lanes or none above.
pub(crate) fn exhaustive_word(base: usize, i: usize, mask: u64) -> u64 {
    debug_assert_eq!(base % 64, 0, "batch base {base} is not lane-aligned");
    match LANE_BITS.get(i) {
        Some(&bits) => bits & mask,
        None => 0u64.wrapping_sub(((base >> i) & 1) as u64) & mask,
    }
}

/// The word width a workload runs at: the narrowest of [`WORD_WIDTHS`] whose
/// one word holds all `items` when each 64-lane sub-word carries
/// `per_sub_word` of them, else the widest. A sub-word carries one 64-pair
/// batch on the pattern-major pair path, one pattern on the fault-packed
/// pair path and 63 faults on the packed sequential path.
#[must_use]
pub fn word_width_for(items: usize, per_sub_word: usize) -> usize {
    WORD_WIDTHS
        .into_iter()
        .find(|&w| w * per_sub_word >= items)
        .unwrap_or(WORD_WIDTHS[WORD_WIDTHS.len() - 1])
}

/// The word width of an `inputs`-input pair campaign: its `2^(inputs-1)`
/// canonical pairs fill one sub-word per 64-pair batch pattern-major, or one
/// per pair when `packing` faults into the lanes.
pub(crate) fn pair_word_width(inputs: usize, packing: bool) -> usize {
    let pairs = 1usize << (inputs - 1);
    if packing {
        word_width_for(pairs, 1)
    } else {
        word_width_for(pairs.div_ceil(64), 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_ops_act_per_sub_word() {
        let a = Word::<4>([0b1100, 0b1010, u64::MAX, 0]);
        let b = Word::<4>([0b1010, 0b1010, 0, u64::MAX]);
        assert_eq!((a & b).0, [0b1000, 0b1010, 0, 0]);
        assert_eq!((a | b).0, [0b1110, 0b1010, u64::MAX, u64::MAX]);
        assert_eq!((a ^ b).0, [0b0110, 0, u64::MAX, u64::MAX]);
        assert_eq!((!Word::<4>::ZERO).0, [u64::MAX; 4]);
        let mut c = a;
        c &= b;
        assert_eq!(c, a & b);
        c = a;
        c |= b;
        assert_eq!(c, a | b);
        c = a;
        c ^= b;
        assert_eq!(c, a ^ b);
    }

    #[test]
    fn splat_sub_and_zero_checks() {
        let w = Word::<8>::splat(7);
        assert!((0..8).all(|i| w.sub(i) == 7));
        assert!(Word::<8>::ZERO.is_zero());
        assert!(!w.is_zero());
        assert_eq!(Word::<2>::splat_bool(true).0, [u64::MAX; 2]);
        assert_eq!(Word::<2>::splat_bool(false).0, [0; 2]);
        assert_eq!(Word::<1>::from_u64(9).first(), 9);
        let mut v = Word::<4>::ZERO;
        v.set_sub(2, 5);
        assert_eq!(v.0, [0, 0, 5, 0]);
        assert_eq!(Word::<3>::from_fn(|i| i as u64).0, [0, 1, 2]);
    }

    #[test]
    fn golden_splat_broadcasts_lane_zero_per_sub_word() {
        let w = Word::<4>([0b1, 0b0, 0b111, 0b10]);
        assert_eq!(w.golden_splat().0, [u64::MAX, 0, u64::MAX, 0]);
    }

    #[test]
    fn blend_is_the_masked_force() {
        let orig = Word::<2>([0xFF00, 0x0001]);
        let value = Word::<2>([0x00FF, 0x0000]);
        let mask = Word::<2>([0x0F0F, 0x0001]);
        assert_eq!(orig.blend(value, mask).0, [0xF00F, 0x0000]);
    }

    /// The closed form equals the per-lane definition `((base + lane) >> i)
    /// & 1` for every input index a campaign admits, on batch bases with
    /// high bits set and on the one partial batch of a ≤ 6-input sweep.
    #[test]
    fn exhaustive_word_matches_per_lane_definition() {
        let per_lane = |base: usize, i: usize, lanes: usize| {
            (0..lanes).fold(0u64, |w, lane| {
                w | ((((base + lane) >> i) & 1) as u64) << lane
            })
        };
        let full_bases = [0, 64, 0x5A_5A40, 0xFF_FFC0, (1 << 23) | (1 << 17) | 64];
        let partial = [1, 2, 4, 8, 16, 32].map(|lanes| (0, lanes));
        for (base, lanes) in full_bases.map(|b| (b, 64)).into_iter().chain(partial) {
            for i in 0..24 {
                assert_eq!(
                    exhaustive_word(base, i, lane_mask(lanes)),
                    per_lane(base, i, lanes),
                    "base {base:#x}, input {i}, {lanes} lanes"
                );
            }
        }
    }

    /// The rule's choice for each benchmark workload kind: pattern-major
    /// adder4 (9 inputs, 4 batches) and adder8 (17 inputs, 1,024 batches),
    /// fault-packed fig3_4 (3 inputs, 4 patterns), and the packed
    /// sequential Kohavi dual-flip-flop machine (56 representatives), its
    /// code-conversion machine (99) and the 256-word Reynolds drive (56).
    #[test]
    fn width_rule_follows_the_workload() {
        assert_eq!(pair_word_width(9, false), 4, "adder4");
        assert_eq!(pair_word_width(17, false), 8, "adder8_drop");
        assert_eq!(pair_word_width(3, true), 4, "fig3_4 fault-packed");
        for (kind, reps, width) in [
            ("kohavi_dualff", 56, 1),
            ("kohavi_codeconv", 99, 4),
            ("reynolds256", 56, 1),
        ] {
            assert_eq!(word_width_for(reps, 63), width, "{kind}");
        }
    }

    /// Each width holds exactly its capacity; one item more takes the next
    /// width, and past the widest word the widest stays.
    #[test]
    fn width_rule_is_exact_at_each_capacity() {
        assert_eq!(word_width_for(0, 63), 1);
        for (items, width) in [(1, 1), (2, 4), (4, 4), (5, 8), (8, 8), (9, 8), (1 << 23, 8)] {
            assert_eq!(word_width_for(items, 1), width, "{items} items");
        }
        for (reps, width) in [(63, 1), (64, 4), (252, 4), (253, 8), (504, 8), (505, 8)] {
            assert_eq!(word_width_for(reps, 63), width, "{reps} representatives");
        }
        // Pattern-major: up to 7 inputs is one batch; 8 and 9 inputs two and
        // four batches; 10 inputs and up fill W = 8. Fault-packed: 1 input is
        // one pattern, 2 and 3 inputs two and four.
        for (inputs, pattern, packed) in [(1, 1, 1), (2, 1, 4), (3, 1, 4), (4, 1, 8), (7, 1, 8)] {
            assert_eq!(pair_word_width(inputs, false), pattern, "{inputs} inputs");
            assert_eq!(
                pair_word_width(inputs, true),
                packed,
                "{inputs} inputs packed"
            );
        }
        for (inputs, width) in [(8, 4), (9, 4), (10, 8), (24, 8)] {
            assert_eq!(pair_word_width(inputs, false), width, "{inputs} inputs");
        }
    }
}
