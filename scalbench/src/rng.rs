//! A small seeded generator (SplitMix64) so every input the benchmark
//! makes follows from `--seed` alone.

/// SplitMix64: one 64-bit state word, full period, good enough mixing for
/// drives, samples and op orders.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`; `stream` separates independent
    /// streams drawn from the same seed (drive, sample, op order, ...).
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A fair coin.
    pub fn bit(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A seeded op order: each round holds every kind `weight` times in a
/// fresh shuffle, so the kinds interleave and keep fixed shares of the mix
/// whatever the seed.
#[derive(Debug, Clone)]
pub struct Deck {
    rng: Rng,
    round: Vec<usize>,
    pos: usize,
}

impl Deck {
    /// A deck over kinds `0..weights.len()`, kind `k` appearing
    /// `weights[k]` times per round.
    #[must_use]
    pub fn new(weights: &[usize], rng: Rng) -> Self {
        let round = weights
            .iter()
            .enumerate()
            .flat_map(|(k, &w)| std::iter::repeat_n(k, w))
            .collect::<Vec<_>>();
        assert!(!round.is_empty(), "a deck needs at least one op");
        let pos = round.len();
        Deck { rng, round, pos }
    }

    /// Ops per round.
    #[must_use]
    pub fn round_len(&self) -> usize {
        self.round.len()
    }

    /// The next op kind.
    pub fn draw(&mut self) -> usize {
        if self.pos == self.round.len() {
            self.rng.shuffle(&mut self.round);
            self.pos = 0;
        }
        self.pos += 1;
        self.round[self.pos - 1]
    }
}
