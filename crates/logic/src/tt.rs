//! Dense bit-packed truth tables.

use crate::LogicError;
use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not};

/// Maximum number of variables a [`Tt`] may range over.
///
/// `2^20` bits = 128 KiB per table; exhaustive analyses in the SCAL stack stay
/// far below this, but the cap keeps accidental blow-ups loud.
pub const MAX_VARS: usize = 20;

/// A truth table over `n ≤ MAX_VARS` Boolean variables, one bit per minterm.
///
/// Minterm `m` (a `u32` whose bit `i` is the value of variable `i`) is stored
/// at bit position `m`. All Boolean operators are bitwise over the packed
/// words, so combining tables is cheap.
///
/// ```
/// use scal_logic::Tt;
/// let a = Tt::var(3, 0);
/// let b = Tt::var(3, 1);
/// let c = Tt::var(3, 2);
/// let maj = (&a & &b) | (&b & &c) | (&a & &c);
/// assert!(maj.is_self_dual());
/// assert!(maj.eval(0b011));
/// assert!(!maj.eval(0b001));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Tt {
    nvars: u8,
    words: Vec<u64>,
}

fn word_count(nvars: usize) -> usize {
    if nvars >= 6 {
        1 << (nvars - 6)
    } else {
        1
    }
}

/// Mask of the valid bits in the (single) word of a table with fewer than six
/// variables.
fn tail_mask(nvars: usize) -> u64 {
    if nvars >= 6 {
        u64::MAX
    } else {
        (1u64 << (1usize << nvars)) - 1
    }
}

impl Tt {
    /// Creates the constant-`false` table over `nvars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `nvars > MAX_VARS`; use [`Tt::try_zero`] for a fallible
    /// variant.
    #[must_use]
    pub fn zero(nvars: usize) -> Self {
        Self::try_zero(nvars).expect("variable count within MAX_VARS")
    }

    /// Fallible variant of [`Tt::zero`].
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::TooManyVars`] if `nvars > MAX_VARS`.
    pub fn try_zero(nvars: usize) -> Result<Self, LogicError> {
        if nvars > MAX_VARS {
            return Err(LogicError::TooManyVars { requested: nvars });
        }
        Ok(Tt {
            nvars: nvars as u8,
            words: vec![0; word_count(nvars)],
        })
    }

    /// Creates the constant-`true` table over `nvars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `nvars > MAX_VARS`.
    #[must_use]
    pub fn one(nvars: usize) -> Self {
        let mut t = Self::zero(nvars);
        for w in &mut t.words {
            *w = u64::MAX;
        }
        *t.words.last_mut().expect("at least one word") &= tail_mask(nvars);
        if nvars >= 6 {
            for w in &mut t.words {
                *w = u64::MAX;
            }
        }
        t
    }

    /// Creates the table of the single variable `var` over `nvars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `nvars > MAX_VARS` or `var >= nvars`.
    #[must_use]
    pub fn var(nvars: usize, var: usize) -> Self {
        assert!(
            var < nvars,
            "variable index {var} out of range for {nvars} vars"
        );
        let mut t = Self::zero(nvars);
        if var < 6 {
            // Within a word the pattern is periodic.
            let period = 1u64 << var;
            let mut pattern = 0u64;
            let mut i = 0u64;
            while i < 64 {
                if (i >> var) & 1 == 1 {
                    pattern |= 1 << i;
                }
                i += 1;
            }
            let _ = period;
            for w in &mut t.words {
                *w = pattern;
            }
            let tm = tail_mask(nvars);
            let last = t.words.len() - 1;
            t.words[last] &= tm;
        } else {
            let stride = 1usize << (var - 6);
            for (i, w) in t.words.iter_mut().enumerate() {
                if (i / stride) % 2 == 1 {
                    *w = u64::MAX;
                }
            }
        }
        t
    }

    /// Builds a table by evaluating `f` on every minterm.
    ///
    /// # Panics
    ///
    /// Panics if `nvars > MAX_VARS`.
    pub fn from_fn<F: FnMut(u32) -> bool>(nvars: usize, mut f: F) -> Self {
        let mut t = Self::zero(nvars);
        for m in 0..(1u32 << nvars) {
            if f(m) {
                t.set(m, true);
            }
        }
        t
    }

    /// Builds a table from an explicit list of ON-set minterms.
    ///
    /// # Panics
    ///
    /// Panics if `nvars > MAX_VARS` or any minterm is out of range.
    pub fn from_minterms(nvars: usize, minterms: &[u32]) -> Self {
        let mut t = Self::zero(nvars);
        for &m in minterms {
            assert!(
                (m as usize) < (1usize << nvars),
                "minterm {m} out of range for {nvars} vars"
            );
            t.set(m, true);
        }
        t
    }

    /// Number of variables this table ranges over.
    #[must_use]
    pub fn nvars(&self) -> usize {
        self.nvars as usize
    }

    /// Number of minterms (`2^nvars`).
    #[must_use]
    pub fn len(&self) -> usize {
        1usize << self.nvars
    }

    /// `true` iff the table has zero variables — never; kept for clippy parity
    /// with `len`. A zero-variable table still has one minterm.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Evaluates the function at minterm `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    #[must_use]
    pub fn eval(&self, m: u32) -> bool {
        assert!((m as usize) < self.len(), "minterm {m} out of range");
        (self.words[(m >> 6) as usize] >> (m & 63)) & 1 == 1
    }

    /// Sets the value of minterm `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn set(&mut self, m: u32, value: bool) {
        assert!((m as usize) < self.len(), "minterm {m} out of range");
        let w = (m >> 6) as usize;
        let b = m & 63;
        if value {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    /// Stores 64 minterms at once: bit `b` of `word` becomes the value of
    /// minterm `64 · index + b`. Bits past the table's last minterm (a table
    /// of fewer than six variables) are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_word(&mut self, index: usize, word: u64) {
        assert!(index < self.words.len(), "word {index} out of range");
        self.words[index] = word & tail_mask(self.nvars());
    }

    /// `true` iff the function is constant `false`.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `true` iff the function is constant `true`.
    #[must_use]
    pub fn is_one(&self) -> bool {
        self == &Tt::one(self.nvars())
    }

    /// Number of ON-set minterms.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterator over the ON-set minterms in ascending order.
    pub fn minterms(&self) -> impl Iterator<Item = u32> + '_ {
        let n = self.len() as u32;
        (0..n).filter(move |&m| self.eval(m))
    }

    /// The function obtained by complementing *all inputs*: `X ↦ F(X̄)`.
    ///
    /// Together with [`Not`], this yields the dual: `F^d(X) = ¬F(X̄)`.
    #[must_use]
    pub fn flip_inputs(&self) -> Self {
        let mask = (self.len() - 1) as u32;
        Tt::from_fn(self.nvars(), |m| self.eval(!m & mask))
    }

    /// The dual function `F^d(X) = ¬F(X̄)`.
    #[must_use]
    pub fn dual(&self) -> Self {
        !&self.flip_inputs()
    }

    /// `true` iff `F` is self-dual (`F(X̄) = ¬F(X)` for every `X`), the
    /// precondition for an alternating network (paper Definition 2.7 /
    /// Theorem 2.1).
    #[must_use]
    pub fn is_self_dual(&self) -> bool {
        self == &self.dual()
    }

    /// Positive cofactor `F|_{var=1}` (result still ranges over `nvars`
    /// variables; the cofactored variable becomes vacuous).
    ///
    /// # Panics
    ///
    /// Panics if `var >= nvars`.
    #[must_use]
    pub fn cofactor(&self, var: usize, value: bool) -> Self {
        assert!(var < self.nvars(), "variable index out of range");
        let bit = 1u32 << var;
        Tt::from_fn(self.nvars(), |m| {
            let m2 = if value { m | bit } else { m & !bit };
            self.eval(m2)
        })
    }

    /// `true` iff the function does not depend on `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= nvars`.
    #[must_use]
    pub fn is_vacuous_in(&self, var: usize) -> bool {
        self.cofactor(var, false) == self.cofactor(var, true)
    }

    /// `true` iff the function is unate (monotone or antitone) in `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= nvars`.
    #[must_use]
    pub fn is_unate_in(&self, var: usize) -> bool {
        let f0 = self.cofactor(var, false);
        let f1 = self.cofactor(var, true);
        // positive unate: f0 ≤ f1 ; negative unate: f1 ≤ f0
        (&f0 & !&f1).is_zero() || (&f1 & !&f0).is_zero()
    }

    /// Extends the table to `new_nvars` variables (the added high variables
    /// are vacuous).
    ///
    /// # Panics
    ///
    /// Panics if `new_nvars < nvars` or `new_nvars > MAX_VARS`.
    #[must_use]
    pub fn extend_vars(&self, new_nvars: usize) -> Self {
        assert!(new_nvars >= self.nvars(), "cannot shrink a truth table");
        let mask = (self.len() - 1) as u32;
        Tt::from_fn(new_nvars, |m| self.eval(m & mask))
    }

    /// Renders the table as a `0`/`1` string, minterm `2^n - 1` first (the
    /// conventional "truth-table" hex-like order).
    #[must_use]
    pub fn to_bit_string(&self) -> String {
        (0..self.len() as u32)
            .rev()
            .map(|m| if self.eval(m) { '1' } else { '0' })
            .collect()
    }

    /// Parses the [`Tt::to_bit_string`] format: a string of `2^n` bits,
    /// minterm `2^n − 1` first.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::ParseCube`] if the length is not a power of
    /// two within [`MAX_VARS`] or a character is not `0`/`1`.
    pub fn from_bit_string(s: &str) -> Result<Self, LogicError> {
        let len = s.chars().count();
        if len == 0 || !len.is_power_of_two() {
            return Err(LogicError::ParseCube {
                input: s.to_owned(),
            });
        }
        let nvars = len.trailing_zeros() as usize;
        if nvars > MAX_VARS {
            return Err(LogicError::TooManyVars { requested: nvars });
        }
        let mut t = Tt::zero(nvars);
        for (i, ch) in s.chars().enumerate() {
            let m = (len - 1 - i) as u32;
            match ch {
                '1' => t.set(m, true),
                '0' => {}
                _ => {
                    return Err(LogicError::ParseCube {
                        input: s.to_owned(),
                    })
                }
            }
        }
        Ok(t)
    }
}

impl std::str::FromStr for Tt {
    type Err = LogicError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Tt::from_bit_string(s)
    }
}

impl fmt::Debug for Tt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tt({} vars: {})", self.nvars, self.to_bit_string())
    }
}

impl fmt::Display for Tt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_bit_string())
    }
}

fn assert_same_arity(a: &Tt, b: &Tt) {
    assert_eq!(
        a.nvars, b.nvars,
        "truth tables range over different variable counts ({} vs {})",
        a.nvars, b.nvars
    );
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for &Tt {
            type Output = Tt;
            fn $method(self, rhs: &Tt) -> Tt {
                assert_same_arity(self, rhs);
                Tt {
                    nvars: self.nvars,
                    words: self
                        .words
                        .iter()
                        .zip(&rhs.words)
                        .map(|(a, b)| a $op b)
                        .collect(),
                }
            }
        }
        impl $trait for Tt {
            type Output = Tt;
            fn $method(self, rhs: Tt) -> Tt {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&Tt> for Tt {
            type Output = Tt;
            fn $method(self, rhs: &Tt) -> Tt {
                (&self).$method(rhs)
            }
        }
        impl $trait<Tt> for &Tt {
            type Output = Tt;
            fn $method(self, rhs: Tt) -> Tt {
                self.$method(&rhs)
            }
        }
    };
}

impl_binop!(BitAnd, bitand, &);
impl_binop!(BitOr, bitor, |);
impl_binop!(BitXor, bitxor, ^);

impl Not for &Tt {
    type Output = Tt;
    fn not(self) -> Tt {
        let mut words: Vec<u64> = self.words.iter().map(|w| !w).collect();
        let tm = tail_mask(self.nvars());
        let last = words.len() - 1;
        words[last] &= tm;
        Tt {
            nvars: self.nvars,
            words,
        }
    }
}

impl Not for Tt {
    type Output = Tt;
    fn not(self) -> Tt {
        !&self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_tables_have_half_density() {
        for n in 1..=8 {
            for v in 0..n {
                let t = Tt::var(n, v);
                assert_eq!(t.count_ones(), 1 << (n - 1), "var {v} of {n}");
            }
        }
    }

    #[test]
    fn var_pattern_matches_bit() {
        for n in 1..=9 {
            for v in 0..n {
                let t = Tt::var(n, v);
                for m in 0..(1u32 << n) {
                    assert_eq!(t.eval(m), (m >> v) & 1 == 1);
                }
            }
        }
    }

    #[test]
    fn set_word_stores_64_minterms_and_drops_the_tail() {
        let mut wide = Tt::zero(7);
        wide.set_word(1, 0x8000_0000_0000_0001);
        assert_eq!(wide.minterms().collect::<Vec<_>>(), [64, 127]);
        let mut narrow = Tt::zero(3);
        narrow.set_word(0, u64::MAX);
        assert!(narrow.is_one());
        assert_eq!(narrow.count_ones(), 8);
    }

    #[test]
    fn one_and_zero() {
        for n in 0..=8 {
            assert!(Tt::zero(n).is_zero());
            assert!(Tt::one(n).is_one());
            assert_eq!(Tt::one(n).count_ones(), 1 << n);
        }
    }

    #[test]
    fn too_many_vars_is_error() {
        assert!(matches!(
            Tt::try_zero(MAX_VARS + 1),
            Err(LogicError::TooManyVars { .. })
        ));
    }

    #[test]
    fn demorgan() {
        let a = Tt::var(4, 0);
        let b = Tt::var(4, 3);
        assert_eq!(!(&a & &b), !&a | !&b);
        assert_eq!(!(&a | &b), !&a & !&b);
    }

    #[test]
    fn xor_is_parity() {
        let t = Tt::var(3, 0) ^ Tt::var(3, 1) ^ Tt::var(3, 2);
        for m in 0..8u32 {
            assert_eq!(t.eval(m), m.count_ones() % 2 == 1);
        }
    }

    #[test]
    fn majority_is_self_dual_and_xor3_is_self_dual() {
        let a = Tt::var(3, 0);
        let b = Tt::var(3, 1);
        let c = Tt::var(3, 2);
        let maj = (&a & &b) | (&b & &c) | (&a & &c);
        assert!(maj.is_self_dual());
        let x3 = &a ^ &b ^ &c;
        assert!(x3.is_self_dual());
        let and = &a & &b;
        assert!(!and.is_self_dual());
    }

    #[test]
    fn dual_of_and_is_or() {
        let a = Tt::var(2, 0);
        let b = Tt::var(2, 1);
        assert_eq!((&a & &b).dual(), &a | &b);
        assert_eq!((&a | &b).dual(), &a & &b);
    }

    #[test]
    fn dual_is_involution() {
        let f = Tt::from_minterms(4, &[0, 3, 5, 9, 14]);
        assert_eq!(f.dual().dual(), f);
    }

    #[test]
    fn cofactors_shannon_expand() {
        let f = Tt::from_minterms(4, &[1, 2, 7, 8, 13]);
        for v in 0..4 {
            let x = Tt::var(4, v);
            let expanded = (&x & f.cofactor(v, true)) | (!&x & f.cofactor(v, false));
            assert_eq!(expanded, f);
        }
    }

    #[test]
    fn vacuous_detection() {
        let f = Tt::var(4, 1) & Tt::var(4, 2);
        assert!(f.is_vacuous_in(0));
        assert!(f.is_vacuous_in(3));
        assert!(!f.is_vacuous_in(1));
    }

    #[test]
    fn unateness() {
        let a = Tt::var(3, 0);
        let b = Tt::var(3, 1);
        let c = Tt::var(3, 2);
        let f = (&a & &b) | (!&a & &c);
        // f is unate in b (positive) and c (positive) but binate in a.
        assert!(f.is_unate_in(1));
        assert!(f.is_unate_in(2));
        assert!(!f.is_unate_in(0));
        let x = &a ^ &b;
        assert!(!x.is_unate_in(0));
    }

    #[test]
    fn flip_inputs_round_trips() {
        let f = Tt::from_minterms(5, &[0, 7, 11, 21, 30]);
        assert_eq!(f.flip_inputs().flip_inputs(), f);
    }

    #[test]
    fn extend_vars_keeps_function() {
        let f = Tt::var(2, 0) & Tt::var(2, 1);
        let g = f.extend_vars(4);
        assert_eq!(g.nvars(), 4);
        for m in 0..16u32 {
            assert_eq!(g.eval(m), f.eval(m & 3));
        }
    }

    #[test]
    fn minterms_iterator_matches_eval() {
        let f = Tt::from_minterms(6, &[0, 1, 33, 62]);
        let got: Vec<u32> = f.minterms().collect();
        assert_eq!(got, vec![0, 1, 33, 62]);
    }

    #[test]
    fn works_above_word_boundary() {
        // 7 variables -> 2 words; 8 -> 4 words.
        let f = Tt::var(8, 7);
        assert_eq!(f.count_ones(), 128);
        assert!(!f.eval(0));
        assert!(f.eval(0b1000_0000));
        let g = !&f;
        assert_eq!(g.count_ones(), 128);
        assert!(g.eval(0));
    }

    #[test]
    fn bit_string_order() {
        // f = x0 over 2 vars: minterms 1 and 3 -> msb-first "1010".
        let f = Tt::var(2, 0);
        assert_eq!(f.to_bit_string(), "1010");
    }

    #[test]
    fn bit_string_round_trip() {
        for f in [
            Tt::var(3, 1),
            Tt::from_minterms(4, &[0, 7, 9, 15]),
            Tt::zero(1),
            Tt::one(5),
        ] {
            let s = f.to_bit_string();
            let back: Tt = s.parse().unwrap();
            assert_eq!(back, f, "{s}");
        }
    }

    #[test]
    fn bit_string_parse_errors() {
        assert!(Tt::from_bit_string("").is_err());
        assert!(Tt::from_bit_string("101").is_err()); // not a power of two
        assert!(Tt::from_bit_string("10x0").is_err());
    }
}
