//! [`PairSet`]: a set of canonical pair minterms stored as 64-pair batch
//! masks, the form the pair kernel classifies them in.

/// A set of canonical first-period minterms, one bit per pair.
///
/// Batch `b` of a pair sweep is always minterms `64b..64b+63`, so the set
/// is one `u64` mask per batch: bit `i` of batch `b` is minterm `64b + i`.
/// Empty batches are trimmed at both ends (the first stored mask is batch
/// `first_batch`), so the derived equality is set equality and a sparse,
/// late detection stays small. Memory is bounded at one bit per pair of the
/// stored batch span.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct PairSet {
    /// Batch of `masks[0]`; `0` when the set is empty.
    first_batch: u32,
    /// Batch masks from `first_batch` on; the first and last are non-zero.
    masks: Vec<u64>,
}

impl PairSet {
    /// The set whose batch `b` is `masks[b]`, trimmed of empty batches.
    pub(crate) fn from_batch_masks(masks: &[u64]) -> Self {
        match masks.iter().position(|&m| m != 0) {
            None => PairSet::default(),
            Some(lo) => {
                let hi = masks.iter().rposition(|&m| m != 0).unwrap_or(lo);
                PairSet {
                    first_batch: lo as u32,
                    masks: masks[lo..=hi].to_vec(),
                }
            }
        }
    }

    /// Adds `minterm`; cheapest when minterms arrive in ascending order.
    pub(crate) fn insert(&mut self, minterm: u32) {
        let batch = minterm / 64;
        let bit = 1u64 << (minterm % 64);
        if self.masks.is_empty() {
            self.first_batch = batch;
            self.masks.push(bit);
            return;
        }
        if batch < self.first_batch {
            let grow = (self.first_batch - batch) as usize;
            self.masks.splice(0..0, std::iter::repeat(0).take(grow));
            self.first_batch = batch;
        }
        let at = (batch - self.first_batch) as usize;
        if at >= self.masks.len() {
            self.masks.resize(at + 1, 0);
        }
        self.masks[at] |= bit;
    }

    /// Number of pairs in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.masks.iter().map(|m| m.count_ones() as usize).sum()
    }

    /// `true` iff the set holds no pair.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.masks.is_empty()
    }

    /// The smallest minterm in the set.
    #[must_use]
    pub fn first(&self) -> Option<u32> {
        self.masks
            .first()
            .map(|&m| self.first_batch * 64 + m.trailing_zeros())
    }

    /// `true` iff `minterm` is in the set.
    #[must_use]
    pub fn contains(&self, minterm: u32) -> bool {
        (minterm / 64)
            .checked_sub(self.first_batch)
            .and_then(|at| self.masks.get(at as usize))
            .is_some_and(|&m| m >> (minterm % 64) & 1 == 1)
    }

    /// The minterms in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.masks
            .iter()
            .zip(self.first_batch..)
            .flat_map(|(&mask, batch)| {
                let mut bits = mask;
                std::iter::from_fn(move || {
                    (bits != 0).then(|| {
                        let m = batch * 64 + bits.trailing_zeros();
                        bits &= bits - 1;
                        m
                    })
                })
            })
    }
}

impl FromIterator<u32> for PairSet {
    fn from_iter<I: IntoIterator<Item = u32>>(minterms: I) -> Self {
        let mut set = PairSet::default();
        for m in minterms {
            set.insert(m);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn an_empty_set_has_no_members() {
        let set = PairSet::default();
        assert!(set.is_empty());
        assert_eq!(set.len(), 0);
        assert_eq!(set.first(), None);
        assert!(!set.contains(0));
        assert_eq!(set.iter().count(), 0);
        assert_eq!(PairSet::from_batch_masks(&[0, 0, 0]), set);
    }

    #[test]
    fn empty_batches_at_either_end_do_not_affect_equality() {
        let core = [0b1010u64, 0, 1 << 63];
        let plain = PairSet::from_batch_masks(&core);
        for (lead, trail) in [(0usize, 3usize), (5, 0), (2, 2)] {
            let mut masks = vec![0u64; lead];
            masks.extend_from_slice(&core);
            masks.resize(masks.len() + trail, 0);
            let padded = PairSet::from_batch_masks(&masks);
            let shifted: PairSet = plain.iter().map(|m| m + 64 * lead as u32).collect();
            assert_eq!(padded, shifted, "lead {lead} trail {trail}");
            assert_eq!(padded.len(), plain.len());
        }
        // Batch 1 alone equals the same minterm inserted into an empty set.
        assert_eq!(
            PairSet::from_batch_masks(&[0, 1, 0]),
            std::iter::once(64).collect()
        );
    }

    #[test]
    fn insertion_below_the_first_batch_extends_the_front() {
        let set: PairSet = [700, 3, 130, 3].into_iter().collect();
        assert_eq!(set.iter().collect::<Vec<_>>(), [3, 130, 700]);
        assert_eq!(set.first(), Some(3));
        assert!(set.contains(130) && !set.contains(131) && !set.contains(9_999));
    }

    proptest! {
        /// A set built from batch masks (the kernel's form) equals the one
        /// collected from the same minterm list (the scalar oracle's form).
        #[test]
        fn batch_masks_and_minterm_lists_build_the_same_set(
            masks in prop::collection::vec(
                prop_oneof![Just(0u64), any::<u64>(), (0u32..64).prop_map(|b| 1u64 << b)],
                0..12,
            ),
        ) {
            let list: Vec<u32> = (0..masks.len() * 64)
                .filter(|&m| masks[m / 64] >> (m % 64) & 1 == 1)
                .map(|m| m as u32)
                .collect();
            let from_masks = PairSet::from_batch_masks(&masks);
            let from_list: PairSet = list.iter().copied().collect();
            let from_reversed: PairSet = list.iter().rev().copied().collect();
            prop_assert_eq!(&from_masks, &from_list);
            prop_assert_eq!(&from_masks, &from_reversed);
            prop_assert_eq!(from_masks.len(), list.len());
            prop_assert_eq!(from_masks.is_empty(), list.is_empty());
            prop_assert_eq!(from_masks.first(), list.first().copied());
            prop_assert_eq!(from_masks.iter().collect::<Vec<_>>(), list.clone());
            for m in 0..(masks.len() as u32 + 1) * 64 {
                prop_assert_eq!(from_masks.contains(m), list.binary_search(&m).is_ok());
            }
        }
    }
}
