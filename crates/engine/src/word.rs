//! The wide-word abstraction behind 2-D packed evaluation: a `Word<W>` is
//! `W` independent 64-lane sub-words evaluated simultaneously, written as
//! plain safe array loops that LLVM autovectorizes to AVX2 (`W = 4`) or
//! AVX-512 (`W = 8`) registers when the target supports them.
//!
//! Width selection is runtime-configurable: [`resolve_word_width`] combines
//! the `EngineConfig::word_width` knob with [`auto_word_width`] CPU-feature
//! detection. Campaign drivers
//! monomorphize their hot loops per supported width and dispatch once per
//! run, so the inner sweeps stay branch-free.

use crate::error::EngineError;
use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, BitXorAssign, Not};

/// The word widths the engine monomorphizes: scalar, AVX2-sized (4 × u64 =
/// 256 bits), and AVX-512-sized (8 × u64 = 512 bits).
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

    /// The all-zeros word.
    #[inline]
    #[must_use]
    pub fn zero() -> Self {
        Self::ZERO
    }

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

/// The widest profitable word width for this machine: 8 with AVX-512, 4
/// with AVX2, otherwise 1 (including every non-x86 target, where narrower
/// vectors rarely beat the scalar path on these masked-word kernels).
#[must_use]
pub fn auto_word_width() -> usize {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return 8;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return 4;
        }
    }
    1
}

/// Resolves the effective word width: the `requested` config value, or
/// [`auto_word_width`] detection when it is `0`.
///
/// # Errors
///
/// Returns [`EngineError::InvalidConfig`] when the requested value is
/// neither `0` nor one of [`WORD_WIDTHS`].
pub fn resolve_word_width(requested: usize) -> Result<usize, EngineError> {
    match requested {
        0 => Ok(auto_word_width()),
        w if WORD_WIDTHS.contains(&w) => Ok(w),
        w => Err(EngineError::InvalidConfig {
            reason: format!("configured word width must be one of {WORD_WIDTHS:?}, got {w}"),
        }),
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

    #[test]
    fn resolve_prefers_config_then_auto() {
        // Explicit config values validate and win.
        assert_eq!(resolve_word_width(1).unwrap(), 1);
        assert_eq!(resolve_word_width(4).unwrap(), 4);
        assert_eq!(resolve_word_width(8).unwrap(), 8);
        match resolve_word_width(3) {
            Err(EngineError::InvalidConfig { reason }) => assert!(reason.contains("3")),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        // Auto always lands on a supported width.
        assert!(WORD_WIDTHS.contains(&auto_word_width()));
        assert_eq!(resolve_word_width(0).unwrap(), auto_word_width());
    }
}
