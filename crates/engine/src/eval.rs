//! The per-thread evaluator: scratch state plus the packed evaluation loop.
//!
//! The evaluator is generic over the word width `W` ([`Word`]): one sweep
//! evaluates `64 × W` lanes through the schedule. [`Evaluator`] is the
//! scalar (`W = 1`) alias and keeps the original `u64`-based API; wide
//! instantiations are driven by the campaign hot paths through the
//! `*_w`-suffixed generic methods.

use crate::compile::{AuxInject, CompiledCircuit, FaultCone, CONE_NONE, NO_OP};
use crate::error::EngineError;
use crate::word::Word;
use scal_netlist::{GateKind, NodeId, Override, Site};

/// Mutable evaluation state for one [`CompiledCircuit`], generic over the
/// word width `W` — see [`Evaluator`] for the scalar alias.
///
/// Holds the dense slot array, a private copy of the fanin index array (so
/// branch faults are installed by *patching an index* rather than checked per
/// pin per sweep), and the dense stem-force table. One evaluator is created
/// per worker thread and reused across faults; evaluation performs no
/// allocation.
///
/// Overrides are installed with [`WideEvaluator::install`] and removed with
/// [`WideEvaluator::uninstall`]; the old linear-scan semantics are preserved:
/// the first override for a given site wins, and overrides naming sites the
/// circuit does not have (e.g. a branch pin on an input) are ignored.
#[derive(Debug)]
pub struct WideEvaluator<const W: usize> {
    /// One `64 × W`-lane word per slot.
    slots: Vec<Word<W>>,
    /// Patched copy of [`CompiledCircuit::fanins`].
    fanins: Vec<u32>,
    /// Patched copy of [`CompiledCircuit::dff_d_slots`].
    dff_d: Vec<u32>,
    /// Per slot: lane mask of forced lanes (`0` = free). Scalar installs
    /// force all lanes; the packed backends force single lanes so different
    /// faults share one word.
    force_mask: Vec<Word<W>>,
    /// Per slot: forced value word, meaningful under `force_mask`.
    force_value: Vec<Word<W>>,
    /// Installed stem forces `(slot, mask, value)` — the complete list,
    /// applied as `slot_word = (slot_word & !mask) | (value & mask)`. Full
    /// sweeps only need the [`WideEvaluator::source_stems`] subset (gate
    /// slots are re-forced by the force tables inside the op loop), but a
    /// cone pass never runs the forced slot's producing op, so it must write
    /// every stem directly.
    stems: Vec<(u32, Word<W>, Word<W>)>,
    /// The subset of [`WideEvaluator::stems`] on *source* slots (inputs,
    /// flip-flop outputs, constants) — the only ones a full sweep must
    /// re-apply at sweep start, since no op writes them.
    source_stems: Vec<(u32, Word<W>, Word<W>)>,
    /// Installed fanin patches `(flat index, original slot)` for uninstall.
    fanin_patches: Vec<(usize, u32)>,
    /// Installed D-slot patches `(dff index, original slot)` for uninstall.
    dff_patches: Vec<(usize, u32)>,
}

/// The scalar (`W = 1`) evaluator — 64 lanes per sweep, `u64` word API.
pub type Evaluator = WideEvaluator<1>;

impl<const W: usize> WideEvaluator<W> {
    /// Creates scratch state for `compiled`.
    #[must_use]
    pub fn new(compiled: &CompiledCircuit) -> Self {
        Self::with_aux(compiled, 0)
    }

    /// Creates scratch state with `extra` auxiliary slots appended past the
    /// compiled slot range — landing pads for the per-lane branch
    /// injections of [`WideEvaluator::eval_packed_w`].
    pub(crate) fn with_aux(compiled: &CompiledCircuit, extra: usize) -> Self {
        WideEvaluator {
            slots: vec![Word::ZERO; compiled.num_slots + extra],
            fanins: compiled.fanins.clone(),
            dff_d: compiled.dff_d_slots.clone(),
            force_mask: vec![Word::ZERO; compiled.num_slots],
            force_value: vec![Word::ZERO; compiled.num_slots],
            stems: Vec::new(),
            source_stems: Vec::new(),
            fanin_patches: Vec::new(),
            dff_patches: Vec::new(),
        }
    }

    /// Installs overrides (typically one stuck-at fault), panicking on
    /// misuse. Call [`WideEvaluator::uninstall`] before installing the next
    /// set.
    ///
    /// # Panics
    ///
    /// Panics if overrides are already installed.
    pub fn install(&mut self, compiled: &CompiledCircuit, overrides: &[Override]) {
        if let Err(e) = self.try_install(compiled, overrides) {
            panic!("{e}");
        }
    }

    /// Installs overrides (typically one stuck-at fault). Call
    /// [`WideEvaluator::uninstall`] before installing the next set.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::OverridesInstalled`] if overrides are already
    /// installed.
    pub fn try_install(
        &mut self,
        compiled: &CompiledCircuit,
        overrides: &[Override],
    ) -> Result<(), EngineError> {
        if !(self.stems.is_empty() && self.fanin_patches.is_empty() && self.dff_patches.is_empty())
        {
            return Err(EngineError::OverridesInstalled);
        }
        for o in overrides {
            match o.site {
                Site::Stem(node) => {
                    let slot = node.index();
                    if slot >= compiled.num_slots - 2 || !self.force_mask[slot].is_zero() {
                        continue; // unknown node, or an earlier override won
                    }
                    let word = Word::splat_bool(o.value);
                    self.add_masked_stem(compiled, slot, Word::ones(), word);
                }
                Site::Branch { node, pin } => {
                    if let Some(i) = compiled.dff_position(node) {
                        if pin == 0 && !self.dff_patches.iter().any(|&(j, _)| j == i) {
                            self.dff_patches.push((i, self.dff_d[i]));
                            self.dff_d[i] = compiled.const_slot(o.value);
                        }
                        continue;
                    }
                    let op_idx = match compiled
                        .op_of_node
                        .get(node.index())
                        .copied()
                        .filter(|&i| i != NO_OP)
                    {
                        Some(i) => i as usize,
                        None => continue,
                    };
                    let op = &compiled.ops[op_idx];
                    if pin >= op.fan_len as usize {
                        continue;
                    }
                    let flat = op.fan_start as usize + pin;
                    if self.fanin_patches.iter().any(|&(j, _)| j == flat) {
                        continue;
                    }
                    self.fanin_patches.push((flat, self.fanins[flat]));
                    self.fanins[flat] = compiled.const_slot(o.value);
                }
            }
        }
        Ok(())
    }

    /// Removes all installed overrides, restoring fault-free evaluation.
    pub fn uninstall(&mut self) {
        for (slot, _, _) in self.stems.drain(..) {
            self.force_mask[slot as usize] = Word::ZERO;
            self.force_value[slot as usize] = Word::ZERO;
        }
        self.source_stems.clear();
        for (flat, original) in self.fanin_patches.drain(..) {
            self.fanins[flat] = original;
        }
        for (i, original) in self.dff_patches.drain(..) {
            self.dff_d[i] = original;
        }
    }

    /// The shared sweep body: loads sources through the access closures,
    /// applies source stems, then runs the op schedule with the force
    /// tables. Arity is the callers' responsibility.
    #[inline]
    fn eval_impl(
        &mut self,
        compiled: &CompiledCircuit,
        input_at: impl Fn(usize) -> Word<W>,
        state_at: impl Fn(usize) -> Word<W>,
    ) {
        let slots = &mut self.slots;
        slots[compiled.zero_slot as usize] = Word::ZERO;
        slots[compiled.one_slot as usize] = Word::ones();
        for (i, &s) in compiled.input_slots.iter().enumerate() {
            slots[s as usize] = input_at(i);
        }
        for (i, &s) in compiled.dff_slots.iter().enumerate() {
            slots[s as usize] = state_at(i);
        }
        for &(s, v) in &compiled.const_slots {
            slots[s as usize] = Word::splat_bool(v);
        }
        // Stem faults on source slots (inputs, flip-flop outputs, constants);
        // gate-slot stems are re-forced by the op loop below.
        for &(s, m, w) in &self.source_stems {
            let slot = &mut slots[s as usize];
            *slot = slot.blend(w, m);
        }
        for op in &compiled.ops {
            let fan = &self.fanins[op.fan_start as usize..(op.fan_start + op.fan_len) as usize];
            let v = eval_op(slots, fan, op.kind);
            let out = op.out as usize;
            slots[out] = v.blend(self.force_value[out], self.force_mask[out]);
        }
    }

    /// Runs one wide combinational sweep: `64 × W` independent patterns per
    /// call, one [`Word`] per primary input / flip-flop.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ArityMismatch`] if `inputs` or `state` is
    /// mis-sized for `compiled`.
    pub fn try_eval_w(
        &mut self,
        compiled: &CompiledCircuit,
        inputs: &[Word<W>],
        state: &[Word<W>],
    ) -> Result<(), EngineError> {
        check_arity(compiled, inputs.len(), state.len())?;
        self.eval_impl(compiled, |i| inputs[i], |i| state[i]);
        Ok(())
    }

    /// Runs one cone-restricted wide sweep: only the ops in `cone` are
    /// evaluated, with every out-of-cone value read through `golden_at` (the
    /// cached fault-free slot words for the same input batch, indexed by
    /// slot). Returns the number of cone ops actually evaluated — the
    /// readability horizon: a slot produced at cone ordinal `j` holds the
    /// faulty value iff `j < returned count` (seeds marked
    /// [`crate::compile::CONE_SEED`] are always readable).
    ///
    /// `mask` selects the valid lanes for dirtiness checks per sub-word;
    /// `expire` is a caller-owned all-zero scratch of at least
    /// `cone.ops.len()` words, and is returned all-zero.
    ///
    /// The frontier-death exit: cone ops are in schedule (level) order, so
    /// every cone reader of an op sits at a later ordinal. Each dirty value
    /// increments a live counter until its last reading ordinal; when the
    /// counter hits zero every remaining op reads only golden-identical
    /// values, so all downstream slots — outputs included — already hold
    /// their golden words and the sweep can stop. A wide word is dirty
    /// while *any* valid sub-word lane differs from golden.
    pub(crate) fn eval_cone_w(
        &mut self,
        compiled: &CompiledCircuit,
        cone: &FaultCone,
        golden_at: impl Fn(usize) -> Word<W>,
        mask: Word<W>,
        expire: &mut [u64],
    ) -> u32 {
        let WideEvaluator {
            slots,
            fanins,
            force_mask,
            force_value,
            stems,
            ..
        } = self;
        slots[compiled.zero_slot as usize] = Word::ZERO;
        slots[compiled.one_slot as usize] = Word::ones();
        for &(s, m, w) in stems.iter() {
            let slot = &mut slots[s as usize];
            *slot = slot.blend(w, m);
        }
        let mut live: u64 = 0;
        for &(s, lr) in &cone.seeds {
            if lr != CONE_NONE && !((slots[s as usize] ^ golden_at(s as usize)) & mask).is_zero() {
                live += 1;
                expire[lr as usize] += 1;
            }
        }
        // Fault-rooted ops (patched branch pins) are dirty a priori: keep
        // the loop alive at least until each has run, whatever the seeds do.
        for &j in &cone.roots {
            live += 1;
            expire[j as usize] += 1;
        }
        let mut evaluated = 0u32;
        if live > 0 {
            for &s in &cone.support {
                slots[s as usize] = golden_at(s as usize);
            }
        }
        for (j, &op_idx) in cone.ops.iter().enumerate() {
            if live == 0 {
                break;
            }
            let op = &compiled.ops[op_idx as usize];
            let fan = &fanins[op.fan_start as usize..(op.fan_start + op.fan_len) as usize];
            let v = eval_op(slots, fan, op.kind);
            let out = op.out as usize;
            let w = v.blend(force_value[out], force_mask[out]);
            slots[out] = w;
            evaluated += 1;
            let lr = cone.op_last_read[j];
            if lr != CONE_NONE && !((w ^ golden_at(out)) & mask).is_zero() {
                live += 1;
                expire[lr as usize] += 1;
            }
            live -= expire[j];
            expire[j] = 0;
        }
        evaluated
    }

    /// Installs a masked stem force: the lanes in `mask` read `value` on
    /// `slot` every sweep — the packed backends' per-lane generalization of
    /// the all-lane stem force installed by [`WideEvaluator::try_install`].
    /// Removed by [`WideEvaluator::uninstall`].
    pub(crate) fn add_masked_stem(
        &mut self,
        compiled: &CompiledCircuit,
        slot: usize,
        mask: Word<W>,
        value: Word<W>,
    ) {
        self.force_mask[slot] |= mask;
        self.force_value[slot] = self.force_value[slot].blend(value, mask);
        self.stems.push((slot as u32, mask, value & mask));
        // Gate slots are re-forced by the op loop's force tables; only
        // source slots need the sweep-start pass.
        if compiled.op_of_node.get(slot).copied().unwrap_or(NO_OP) == NO_OP {
            self.source_stems.push((slot as u32, mask, value & mask));
        }
    }

    /// Redirects flat fanin index `flat` to read `slot` — auxiliary landing
    /// pads for per-lane branch injections. Restored by
    /// [`WideEvaluator::uninstall`].
    pub(crate) fn patch_fanin(&mut self, flat: usize, slot: u32) {
        self.fanin_patches.push((flat, self.fanins[flat]));
        self.fanins[flat] = slot;
    }

    /// One packed sweep for the fault-per-lane backends: like
    /// [`WideEvaluator::try_eval_w`] but with mid-sweep auxiliary
    /// injections. Each [`AuxInject`] materializes, immediately before its
    /// consuming op runs, an auxiliary slot holding the faulted lanes' stuck
    /// value blended over the original source word — per-lane branch faults
    /// without disturbing the other lanes sharing the fanin index. `aux`
    /// must be sorted by consuming-op schedule position (as
    /// [`crate::compile::LanePlan`] builds it).
    pub(crate) fn eval_packed_w(
        &mut self,
        compiled: &CompiledCircuit,
        inputs: &[Word<W>],
        state: &[Word<W>],
        aux: &[AuxInject<W>],
    ) {
        debug_assert_eq!(inputs.len(), compiled.num_inputs());
        debug_assert_eq!(state.len(), compiled.num_dffs());
        let slots = &mut self.slots;
        slots[compiled.zero_slot as usize] = Word::ZERO;
        slots[compiled.one_slot as usize] = Word::ones();
        for (i, &s) in compiled.input_slots.iter().enumerate() {
            slots[s as usize] = inputs[i];
        }
        for (i, &s) in compiled.dff_slots.iter().enumerate() {
            slots[s as usize] = state[i];
        }
        for &(s, v) in &compiled.const_slots {
            slots[s as usize] = Word::splat_bool(v);
        }
        for &(s, m, w) in &self.source_stems {
            let slot = &mut slots[s as usize];
            *slot = slot.blend(w, m);
        }
        let mut cursor = 0usize;
        for (j, op) in compiled.ops.iter().enumerate() {
            while let Some(a) = aux.get(cursor).filter(|a| a.op as usize == j) {
                slots[a.slot as usize] = slots[a.orig as usize].blend(a.value, a.mask);
                cursor += 1;
            }
            let fan = &self.fanins[op.fan_start as usize..(op.fan_start + op.fan_len) as usize];
            let v = eval_op(slots, fan, op.kind);
            let out = op.out as usize;
            slots[out] = v.blend(self.force_value[out], self.force_mask[out]);
        }
        debug_assert_eq!(cursor, aux.len(), "aux injections must all be consumed");
    }

    /// The full wide slot array after the last sweep (golden-state caching).
    pub(crate) fn slots_w(&self) -> &[Word<W>] {
        &self.slots
    }

    /// Wide word of primary output `k` after the last sweep.
    #[must_use]
    pub fn output_w(&self, compiled: &CompiledCircuit, k: usize) -> Word<W> {
        self.slots[compiled.output_slots[k] as usize]
    }

    /// Wide next-state word of flip-flop `i` (its possibly-faulted D value)
    /// after the last sweep.
    #[must_use]
    pub fn next_state_w(&self, compiled: &CompiledCircuit, i: usize) -> Word<W> {
        let _ = compiled;
        self.slots[self.dff_d[i] as usize]
    }
}

/// The scalar-width API: `u64` words, one 64-lane sub-word per slot. These
/// are the historical entry points; everything below delegates to the
/// generic wide implementations with `W = 1`.
impl Evaluator {
    /// Runs one combinational sweep, panicking on arity mismatch.
    ///
    /// # Panics
    ///
    /// Panics if [`Evaluator::try_eval`] errors.
    pub fn eval(&mut self, compiled: &CompiledCircuit, inputs: &[u64], state: &[u64]) {
        if let Err(e) = self.try_eval(compiled, inputs, state) {
            panic!("{e}");
        }
    }

    /// Runs one combinational sweep: 64 independent patterns per call.
    ///
    /// `inputs` carries one word per primary input, `state` one word per
    /// flip-flop (empty for combinational circuits). Results are read back
    /// with [`Evaluator::output`] or [`Evaluator::slot`], and flip-flop D
    /// values with [`WideEvaluator::next_state_w`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ArityMismatch`] if `inputs` or `state` is
    /// mis-sized for `compiled`.
    pub fn try_eval(
        &mut self,
        compiled: &CompiledCircuit,
        inputs: &[u64],
        state: &[u64],
    ) -> Result<(), EngineError> {
        check_arity(compiled, inputs.len(), state.len())?;
        self.eval_impl(
            compiled,
            |i| Word::from_u64(inputs[i]),
            |i| Word::from_u64(state[i]),
        );
        Ok(())
    }

    /// Word of primary output `k` after the last [`Evaluator::eval`].
    #[must_use]
    pub fn output(&self, compiled: &CompiledCircuit, k: usize) -> u64 {
        self.output_w(compiled, k).first()
    }

    /// Value word of an arbitrary node after the last [`Evaluator::eval`].
    #[must_use]
    pub fn slot(&self, node: NodeId) -> u64 {
        self.slots[node.index()].first()
    }

    /// Current word of a raw slot index (node slots only; callers must stay
    /// below the constant slots).
    pub(crate) fn raw_slot(&self, idx: usize) -> u64 {
        self.slots[idx].first()
    }
}

/// Checks `inputs` input words and `state` state words against
/// `compiled`'s primary inputs and flip-flops.
fn check_arity(compiled: &CompiledCircuit, inputs: usize, state: usize) -> Result<(), EngineError> {
    for (what, expected, got) in [
        ("input", compiled.num_inputs(), inputs),
        ("state", compiled.num_dffs(), state),
    ] {
        if got != expected {
            return Err(EngineError::ArityMismatch {
                what,
                expected,
                got,
            });
        }
    }
    Ok(())
}

/// One packed gate evaluation over the given fanin slots.
#[inline]
fn eval_op<const W: usize>(slots: &[Word<W>], fan: &[u32], kind: GateKind) -> Word<W> {
    match kind {
        GateKind::Buf => slots[fan[0] as usize],
        GateKind::Not => !slots[fan[0] as usize],
        GateKind::And => fan.iter().fold(Word::ones(), |a, &f| a & slots[f as usize]),
        GateKind::Nand => !fan.iter().fold(Word::ones(), |a, &f| a & slots[f as usize]),
        GateKind::Or => fan.iter().fold(Word::ZERO, |a, &f| a | slots[f as usize]),
        GateKind::Nor => !fan.iter().fold(Word::ZERO, |a, &f| a | slots[f as usize]),
        GateKind::Xor => fan.iter().fold(Word::ZERO, |a, &f| a ^ slots[f as usize]),
        GateKind::Xnor => !fan.iter().fold(Word::ZERO, |a, &f| a ^ slots[f as usize]),
        GateKind::Minority | GateKind::Majority => {
            threshold64(slots, fan, kind == GateKind::Majority)
        }
        // GateKind is #[non_exhaustive]; compile() only emits ops for kinds
        // that exist today.
        _ => unreachable!("unknown gate kind in compiled schedule"),
    }
}

/// Per-lane majority/minority over `fan` slots: a bit-sliced count of the
/// ones (plane `i` holds bit `i` of every lane's count; 32 planes hold any
/// `u32` fan-in), compared against `⌊n/2⌋`.
fn threshold64<const W: usize>(slots: &[Word<W>], fan: &[u32], majority: bool) -> Word<W> {
    let n = fan.len() as u32;
    let planes = (u32::BITS - n.leading_zeros()) as usize;
    let mut count = [Word::<W>::ZERO; 32];
    for &f in fan {
        // Ripple-carry increment by the fanin's lane bits.
        let mut carry = slots[f as usize];
        for plane in &mut count[..planes] {
            let next = *plane & carry;
            *plane ^= carry;
            carry = next;
        }
    }
    // Lanes whose count is above, and equal to, `⌊n/2⌋`, most significant
    // plane first.
    let half = n / 2;
    let (mut above, mut equal) = (Word::ZERO, Word::ones());
    for (i, &plane) in count[..planes].iter().enumerate().rev() {
        if half >> i & 1 == 1 {
            equal &= plane;
        } else {
            above |= equal & plane;
            equal &= !plane;
        }
    }
    if majority {
        above // 2·ones > n
    } else if n % 2 == 1 {
        !above // 2·ones < n, n odd: ones ≤ ⌊n/2⌋
    } else {
        !(above | equal) // 2·ones < n, n even: ones < n/2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use scal_netlist::{Circuit, GateKind};

    /// Majority/minority by definition, lane by lane.
    fn lanewise_threshold<const W: usize>(
        slots: &[Word<W>],
        fan: &[u32],
        majority: bool,
    ) -> Word<W> {
        let n = fan.len();
        Word::from_fn(|s| {
            (0..64)
                .filter(|&lane| {
                    let ones = fan
                        .iter()
                        .filter(|&&f| slots[f as usize].sub(s) >> lane & 1 == 1)
                        .count();
                    if majority {
                        ones * 2 > n
                    } else {
                        ones * 2 < n
                    }
                })
                .fold(0u64, |w, lane| w | 1 << lane)
        })
    }

    /// Both threshold kinds at width `W` over slots cut from `words`.
    fn threshold_matches_lanewise<const W: usize>(words: &[u64], fan: &[u32]) {
        let slots: Vec<Word<W>> = words.chunks(8).map(|c| Word::from_fn(|s| c[s])).collect();
        for (kind, majority) in [(GateKind::Majority, true), (GateKind::Minority, false)] {
            assert_eq!(
                eval_op(&slots, fan, kind),
                lanewise_threshold(&slots, fan, majority),
                "{kind:?} W={W} fan {fan:?}"
            );
        }
    }

    proptest! {
        /// The bit-sliced threshold equals the per-lane definition for every
        /// fan-in 1..=9 (repeated fanins included) at every word width.
        #[test]
        fn bit_sliced_threshold_matches_the_lanewise_definition(
            words in prop::collection::vec(
                prop_oneof![any::<u64>(), Just(0u64), Just(u64::MAX)],
                9 * 8,
            ),
            fan in prop::collection::vec(0u32..9, 1..=9),
        ) {
            threshold_matches_lanewise::<1>(&words, &fan);
            threshold_matches_lanewise::<4>(&words, &fan);
            threshold_matches_lanewise::<8>(&words, &fan);
        }
    }

    #[test]
    fn wide_fan_in_threshold_matches_the_lanewise_definition() {
        // Fan-ins past the proptest's range use more counter planes.
        let words: Vec<u64> = (0..9 * 8u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        for n in [15, 16, 17, 40] {
            let fan: Vec<u32> = (0..n).map(|i| (i * 7 % 9) as u32).collect();
            threshold_matches_lanewise::<4>(&words, &fan);
        }
    }

    fn full_adder() -> Circuit {
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let ci = c.input("ci");
        let s = c.xor(&[a, b, ci]);
        let maj = c.gate(GateKind::Majority, &[a, b, ci]);
        c.mark_output("s", s);
        c.mark_output("co", maj);
        c
    }

    /// Packs minterms `0..n_lanes` into per-input words.
    fn minterm_words(n_inputs: usize, n_lanes: usize) -> Vec<u64> {
        (0..n_inputs)
            .map(|i| {
                let mut w = 0u64;
                for lane in 0..n_lanes {
                    if (lane >> i) & 1 == 1 {
                        w |= 1 << lane;
                    }
                }
                w
            })
            .collect()
    }

    #[test]
    fn matches_graph_evaluator_fault_free() {
        let c = full_adder();
        let cc = CompiledCircuit::compile(&c);
        let mut ev = Evaluator::new(&cc);
        let words = minterm_words(3, 8);
        ev.eval(&cc, &words, &[]);
        let reference = c.eval64(&words);
        for (k, &r) in reference.iter().enumerate() {
            assert_eq!(ev.output(&cc, k) & 0xFF, r & 0xFF);
        }
    }

    /// A wide evaluator with every sub-word carrying the same patterns must
    /// reproduce the scalar result in every sub-word, fault-free and under
    /// installed overrides.
    #[test]
    fn wide_sub_words_match_scalar_evaluator() {
        let c = full_adder();
        let cc = CompiledCircuit::compile(&c);
        let words = minterm_words(3, 8);
        let mut scalar = Evaluator::new(&cc);
        let mut wide4 = WideEvaluator::<4>::new(&cc);
        let mut wide8 = WideEvaluator::<8>::new(&cc);
        let wide_in4: Vec<Word<4>> = words.iter().map(|&w| Word::splat(w)).collect();
        let wide_in8: Vec<Word<8>> = words.iter().map(|&w| Word::splat(w)).collect();
        let ov = [Override {
            site: Site::Stem(c.inputs()[1]),
            value: true,
        }];
        for install in [false, true] {
            if install {
                scalar.install(&cc, &ov);
                wide4.install(&cc, &ov);
                wide8.install(&cc, &ov);
            }
            scalar.eval(&cc, &words, &[]);
            wide4.try_eval_w(&cc, &wide_in4, &[]).unwrap();
            wide8.try_eval_w(&cc, &wide_in8, &[]).unwrap();
            for k in 0..cc.num_outputs() {
                let want = scalar.output(&cc, k);
                let got4 = wide4.output_w(&cc, k);
                let got8 = wide8.output_w(&cc, k);
                for s in 0..4 {
                    assert_eq!(got4.sub(s), want, "W=4 sub {s} output {k}");
                }
                for s in 0..8 {
                    assert_eq!(got8.sub(s), want, "W=8 sub {s} output {k}");
                }
            }
        }
        scalar.uninstall();
        wide4.uninstall();
        wide8.uninstall();
    }

    #[test]
    fn matches_graph_evaluator_under_every_single_override() {
        let c = full_adder();
        let cc = CompiledCircuit::compile(&c);
        let mut ev = Evaluator::new(&cc);
        let words = minterm_words(3, 8);
        let mut sites = Vec::new();
        for id in c.node_ids() {
            sites.push(Site::Stem(id));
            for pin in 0..c.fanins(id).len() {
                sites.push(Site::Branch { node: id, pin });
            }
        }
        for site in sites {
            for value in [false, true] {
                let ov = [Override { site, value }];
                let reference = c.eval_nodes64(&words, &[], &ov);
                ev.install(&cc, &ov);
                ev.eval(&cc, &words, &[]);
                for id in c.node_ids() {
                    assert_eq!(
                        ev.slot(id) & 0xFF,
                        reference[id.index()] & 0xFF,
                        "site {site:?} value {value} node {id}"
                    );
                }
                ev.uninstall();
            }
        }
    }

    #[test]
    fn install_first_override_wins() {
        let c = full_adder();
        let cc = CompiledCircuit::compile(&c);
        let mut ev = Evaluator::new(&cc);
        let s = c.outputs()[0].node;
        let ovs = [
            Override {
                site: Site::Stem(s),
                value: true,
            },
            Override {
                site: Site::Stem(s),
                value: false,
            },
        ];
        ev.install(&cc, &ovs);
        ev.eval(&cc, &[0, 0, 0], &[]);
        assert_eq!(ev.output(&cc, 0), u64::MAX);
        ev.uninstall();
        ev.eval(&cc, &[0, 0, 0], &[]);
        assert_eq!(ev.output(&cc, 0), 0);
    }

    #[test]
    fn try_paths_report_misuse_as_errors() {
        let c = full_adder();
        let cc = CompiledCircuit::compile(&c);
        let mut ev = Evaluator::new(&cc);
        assert_eq!(
            ev.try_eval(&cc, &[0, 0], &[]),
            Err(EngineError::ArityMismatch {
                what: "input",
                expected: 3,
                got: 2,
            })
        );
        assert_eq!(
            ev.try_eval(&cc, &[0, 0, 0], &[1]),
            Err(EngineError::ArityMismatch {
                what: "state",
                expected: 0,
                got: 1,
            })
        );
        let ov = [Override {
            site: Site::Stem(c.inputs()[0]),
            value: true,
        }];
        ev.try_install(&cc, &ov).expect("first install");
        assert_eq!(
            ev.try_install(&cc, &ov),
            Err(EngineError::OverridesInstalled)
        );
        ev.uninstall();
        ev.try_install(&cc, &ov).expect("reinstall after uninstall");
        ev.uninstall();
    }

    #[test]
    fn overrides_on_missing_sites_are_ignored() {
        let c = full_adder();
        let cc = CompiledCircuit::compile(&c);
        let mut ev = Evaluator::new(&cc);
        let a = c.inputs()[0];
        // Inputs have no fanin pins; the scalar path ignored this too.
        ev.install(
            &cc,
            &[Override {
                site: Site::Branch { node: a, pin: 0 },
                value: true,
            }],
        );
        ev.eval(&cc, &[0, 0, 0], &[]);
        assert_eq!(ev.output(&cc, 0), 0);
        ev.uninstall();
    }
}
