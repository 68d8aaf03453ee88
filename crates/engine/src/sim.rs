//! Sequential stepping over a compiled schedule — the engine counterpart of
//! [`scal_netlist::Sim`] — plus the fault-per-lane packed stepper.

use crate::compile::{AuxInject, CompiledCircuit, LanePlan};
use crate::eval::{Evaluator, WideEvaluator};
use crate::word::Word;
use scal_netlist::Override;

/// A synchronous simulator over a [`CompiledCircuit`].
///
/// Semantics mirror [`scal_netlist::Sim`] exactly — one [`CompiledSim::step`]
/// per clock period, flip-flops latch their (possibly faulted) D values on
/// the edge, overrides persist until cleared — but each step is one linear
/// pass over the compiled op schedule instead of a graph walk, and no
/// allocation happens per step beyond the returned output vector.
#[derive(Debug)]
pub struct CompiledSim<'c> {
    compiled: &'c CompiledCircuit,
    ev: Evaluator,
    /// One word per flip-flop; scalar stepping uses lane 0 only.
    state: Vec<u64>,
    inputs: Vec<u64>,
    steps: u64,
}

impl<'c> CompiledSim<'c> {
    /// Creates a simulator with every flip-flop at its power-up value.
    #[must_use]
    pub fn new(compiled: &'c CompiledCircuit) -> Self {
        let state = compiled
            .dff_init
            .iter()
            .map(|&b| if b { u64::MAX } else { 0 })
            .collect();
        CompiledSim {
            compiled,
            ev: Evaluator::new(compiled),
            state,
            inputs: vec![0; compiled.num_inputs()],
            steps: 0,
        }
    }

    /// Attaches persistent overrides (e.g. a stuck-at fault). The overrides
    /// stay installed until [`CompiledSim::clear_overrides`].
    pub fn attach(&mut self, overrides: &[Override]) {
        self.ev.uninstall();
        self.ev.install(self.compiled, overrides);
    }

    /// Removes all overrides.
    pub fn clear_overrides(&mut self) {
        self.ev.uninstall();
    }

    /// Overwrites the flip-flop state.
    ///
    /// # Panics
    ///
    /// Panics if the length does not match the flip-flop count.
    pub fn set_state(&mut self, state: &[bool]) {
        assert_eq!(state.len(), self.state.len(), "state arity mismatch");
        for (w, &b) in self.state.iter_mut().zip(state) {
            *w = if b { u64::MAX } else { 0 };
        }
    }

    /// Current flip-flop state.
    #[must_use]
    pub fn state(&self) -> Vec<bool> {
        self.state.iter().map(|&w| w & 1 == 1).collect()
    }

    /// Clock periods simulated so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Simulates one clock period: samples the primary outputs, then latches
    /// every flip-flop.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` does not match the input count.
    pub fn step(&mut self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(
            inputs.len(),
            self.compiled.num_inputs(),
            "input arity mismatch"
        );
        for (w, &b) in self.inputs.iter_mut().zip(inputs) {
            *w = if b { u64::MAX } else { 0 };
        }
        self.ev.eval(self.compiled, &self.inputs, &self.state);
        let outputs = (0..self.compiled.num_outputs())
            .map(|k| self.ev.output(self.compiled, k) & 1 == 1)
            .collect();
        for i in 0..self.state.len() {
            self.state[i] = self.ev.next_state(self.compiled, i);
        }
        self.steps += 1;
        outputs
    }

    /// Resets flip-flops to power-up values and clears the step counter
    /// (overrides are kept, matching [`scal_netlist::Sim::reset`]).
    pub fn reset(&mut self) {
        for (w, &b) in self.state.iter_mut().zip(&self.compiled.dff_init) {
            *w = if b { u64::MAX } else { 0 };
        }
        self.steps = 0;
    }
}

/// The prebuilt per-lane injection plan of one packed fault batch — the
/// compile-phase half of [`WidePackedSeqSim`].
///
/// Building a plan walks every fault's overrides, merges same-site faults
/// into masked entries, and assigns auxiliary branch slots in schedule
/// order; campaigns do that for all batches up front (it is planning, not
/// evaluation) and then spin up each batch's simulator with
/// [`WidePackedSeqSim::from_plan`], keeping the fault-sim phase free of
/// planning work.
#[derive(Debug)]
pub struct WidePackedBatchPlan<const W: usize> {
    plan: LanePlan<W>,
    lanes: usize,
}

/// The scalar (`W = 1`) batch plan: up to 63 faults in one `u64` word.
pub type PackedBatchPlan = WidePackedBatchPlan<1>;

impl<const W: usize> WidePackedBatchPlan<W> {
    /// Plans one batch: `faults[i]`'s overrides are mapped onto bit
    /// `1 + (i % 63)` of sub-word `i / 63` with
    /// [`Evaluator`](crate::Evaluator) install semantics per lane (first
    /// override per site wins, unknown sites ignored).
    ///
    /// # Panics
    ///
    /// Panics if more than [`WidePackedSeqSim::FAULT_LANES`] (`63 × W`)
    /// faults are given.
    #[must_use]
    pub fn build(compiled: &CompiledCircuit, faults: &[&[Override]]) -> Self {
        assert!(
            faults.len() <= WidePackedSeqSim::<W>::FAULT_LANES,
            "a packed batch holds at most {} faults",
            WidePackedSeqSim::<W>::FAULT_LANES
        );
        WidePackedBatchPlan {
            plan: LanePlan::build_spread(compiled, faults),
            lanes: faults.len(),
        }
    }

    /// Fault lanes the plan occupies (the golden lanes not included).
    #[must_use]
    pub fn fault_lanes(&self) -> usize {
        self.lanes
    }
}

/// A fault-per-lane packed sequential simulator over a wide word: lane 0 of
/// every sub-word replays the golden machine, and fault `i` replays on bit
/// `1 + (i % 63)` of sub-word `i / 63` — up to `63 × W` faults per batch,
/// one sweep per clock period serving the whole batch.
///
/// Per-lane injection uses masked stem forces, auxiliary branch slots
/// (planned by the compile-side lane plan), and masked D-latch blends;
/// per-lane flip-flop state is carried across periods inside the same
/// packed words. Each occupied fault lane of every output word after
/// [`WidePackedSeqSim::step`] is bit-exact with a [`CompiledSim`] carrying
/// that fault's overrides, and lane 0 of every sub-word with the fault-free
/// machine.
#[derive(Debug)]
pub struct WidePackedSeqSim<'c, const W: usize> {
    compiled: &'c CompiledCircuit,
    ev: WideEvaluator<W>,
    /// Branch injections, sorted by consuming-op schedule position.
    aux: Vec<AuxInject<W>>,
    /// Per flip-flop `(mask, value)` blend applied to the latched word
    /// (per-lane D-pin branch faults).
    dff_blend: Vec<(Word<W>, Word<W>)>,
    /// One word per flip-flop, all lanes live.
    state: Vec<Word<W>>,
    inputs: Vec<Word<W>>,
    lanes: usize,
    steps: u64,
}

/// The scalar (`W = 1`) packed sequential simulator: 63 fault lanes plus
/// the golden lane in one `u64` word.
pub type PackedSeqSim<'c> = WidePackedSeqSim<'c, 1>;

impl<'c, const W: usize> WidePackedSeqSim<'c, W> {
    /// Maximum faults one batch packs (lane 0 of every sub-word is reserved
    /// for golden).
    pub const FAULT_LANES: usize = 63 * W;

    /// Creates a packed simulator with every flip-flop at its power-up
    /// value; `faults[i]`'s overrides are installed on bit `1 + (i % 63)`
    /// of sub-word `i / 63` with [`Evaluator`](crate::Evaluator) install
    /// semantics per lane (first override per site wins, unknown sites
    /// ignored).
    ///
    /// # Panics
    ///
    /// Panics if more than [`WidePackedSeqSim::FAULT_LANES`] faults are
    /// given.
    #[must_use]
    pub fn new(compiled: &'c CompiledCircuit, faults: &[&[Override]]) -> Self {
        Self::from_plan(compiled, &WidePackedBatchPlan::build(compiled, faults))
    }

    /// Creates a packed simulator from a prebuilt [`WidePackedBatchPlan`] —
    /// the evaluation-phase half of the split: no fault walking or slot
    /// assignment happens here, only evaluator scratch setup.
    #[must_use]
    pub fn from_plan(compiled: &'c CompiledCircuit, plan: &WidePackedBatchPlan<W>) -> Self {
        let lanes = plan.lanes;
        let plan = &plan.plan;
        let mut ev = WideEvaluator::with_aux(compiled, plan.aux.len());
        for &(slot, mask, value) in &plan.stems {
            ev.add_masked_stem(compiled, slot as usize, mask, value);
        }
        for &(flat, slot) in &plan.fanin_patches {
            ev.patch_fanin(flat as usize, slot);
        }
        let mut dff_blend = vec![(Word::ZERO, Word::ZERO); compiled.num_dffs()];
        for &(d, mask, value) in &plan.dff_forces {
            dff_blend[d as usize] = (mask, value);
        }
        let state = compiled
            .dff_init
            .iter()
            .map(|&b| Word::splat_bool(b))
            .collect();
        WidePackedSeqSim {
            compiled,
            ev,
            aux: plan.aux.clone(),
            dff_blend,
            state,
            inputs: vec![Word::ZERO; compiled.num_inputs()],
            lanes,
            steps: 0,
        }
    }

    /// Fault lanes occupied (the golden lanes not included).
    #[must_use]
    pub fn fault_lanes(&self) -> usize {
        self.lanes
    }

    /// Mask covering every occupied fault lane of sub-word `s` (bits
    /// `1..=n` where `n` is the number of faults packed into that
    /// sub-word).
    #[must_use]
    pub fn sub_lane_mask(&self, s: usize) -> u64 {
        let n = self.lanes.saturating_sub(63 * s).min(63);
        if n == 0 {
            0
        } else {
            (u64::MAX >> (63 - n)) & !1
        }
    }

    /// Simulates one clock period for every lane: one packed sweep, then a
    /// per-lane latch of every flip-flop. Outputs are sampled afterwards
    /// with [`WidePackedSeqSim::output_wide`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` does not match the input count.
    pub fn step(&mut self, inputs: &[bool]) {
        assert_eq!(
            inputs.len(),
            self.compiled.num_inputs(),
            "input arity mismatch"
        );
        for (w, &b) in self.inputs.iter_mut().zip(inputs) {
            *w = Word::splat_bool(b);
        }
        self.ev
            .eval_packed_w(self.compiled, &self.inputs, &self.state, &self.aux);
        for i in 0..self.state.len() {
            let w = self.ev.next_state_w(self.compiled, i);
            let (m, v) = self.dff_blend[i];
            self.state[i] = w.blend(v, m);
        }
        self.steps += 1;
    }

    /// Packed wide word of primary output `k` after the last step: lane 0
    /// of every sub-word is the golden value, bit `1 + (i % 63)` of
    /// sub-word `i / 63` the value under fault `i`.
    #[must_use]
    pub fn output_wide(&self, k: usize) -> Word<W> {
        self.ev.output_w(self.compiled, k)
    }

    /// Clock periods simulated so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }
}

impl PackedSeqSim<'_> {
    /// Mask covering every occupied fault lane (bits `1..=fault_lanes`).
    #[must_use]
    pub fn lane_mask(&self) -> u64 {
        self.sub_lane_mask(0)
    }

    /// Packed word of primary output `k` after the last step: lane 0 is the
    /// golden value, lane `l` the value under fault `l - 1`.
    #[must_use]
    pub fn output(&self, k: usize) -> u64 {
        self.output_wide(k).first()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scal_netlist::{Circuit, Override, Sim, Site};

    fn counter2() -> Circuit {
        let mut c = Circuit::new();
        let q0 = c.dff(false);
        let q1 = c.dff(false);
        let n0 = c.not(q0);
        let t = c.xor(&[q1, q0]);
        c.connect_dff(q0, n0);
        c.connect_dff(q1, t);
        c.mark_output("q0", q0);
        c.mark_output("q1", q1);
        c
    }

    #[test]
    fn counts_like_the_graph_simulator() {
        let c = counter2();
        let cc = CompiledCircuit::compile(&c);
        let mut fast = CompiledSim::new(&cc);
        let mut slow = Sim::new(&c);
        for _ in 0..10 {
            assert_eq!(fast.step(&[]), slow.step(&[]));
        }
        assert_eq!(fast.steps(), 10);
    }

    #[test]
    fn faults_persist_and_clear() {
        let c = counter2();
        let q0 = c.dffs()[0];
        let cc = CompiledCircuit::compile(&c);
        let mut sim = CompiledSim::new(&cc);
        sim.attach(&[Override {
            site: Site::Stem(q0),
            value: false,
        }]);
        for _ in 0..4 {
            assert_eq!(sim.step(&[]), vec![false, false]);
        }
        sim.clear_overrides();
        sim.reset();
        assert_eq!(sim.steps(), 0);
        let mut slow = Sim::new(&c);
        for _ in 0..4 {
            assert_eq!(sim.step(&[]), slow.step(&[]));
        }
    }

    #[test]
    fn dff_d_branch_fault_corrupts_latched_value() {
        let c = counter2();
        let q0 = c.dffs()[0];
        let cc = CompiledCircuit::compile(&c);
        let ov = [Override {
            site: Site::Branch { node: q0, pin: 0 },
            value: true,
        }];
        let mut fast = CompiledSim::new(&cc);
        fast.attach(&ov);
        let mut slow = Sim::new(&c);
        slow.attach(ov[0]);
        for _ in 0..6 {
            assert_eq!(fast.step(&[]), slow.step(&[]));
        }
    }

    /// Every stuck-at fault of the 2-bit counter packed into one batch:
    /// each lane must match a dedicated [`CompiledSim`] carrying the same
    /// fault, and lane 0 the fault-free machine, at every step.
    #[test]
    fn packed_lanes_match_per_fault_compiled_sims() {
        let c = counter2();
        let cc = CompiledCircuit::compile(&c);
        let mut faults: Vec<[Override; 1]> = Vec::new();
        for id in c.node_ids() {
            for value in [false, true] {
                faults.push([Override {
                    site: Site::Stem(id),
                    value,
                }]);
                for pin in 0..c.fanins(id).len() {
                    faults.push([Override {
                        site: Site::Branch { node: id, pin },
                        value,
                    }]);
                }
            }
        }
        faults.truncate(PackedSeqSim::FAULT_LANES);
        let refs: Vec<&[Override]> = faults.iter().map(|f| f.as_slice()).collect();
        let mut packed = PackedSeqSim::new(&cc, &refs);
        assert_eq!(packed.fault_lanes(), faults.len());
        let mut golden = CompiledSim::new(&cc);
        let mut scalars: Vec<CompiledSim<'_>> = faults
            .iter()
            .map(|f| {
                let mut s = CompiledSim::new(&cc);
                s.attach(f);
                s
            })
            .collect();
        for step in 0..12 {
            packed.step(&[]);
            let gold = golden.step(&[]);
            let lanes: Vec<Vec<bool>> = scalars.iter_mut().map(|s| s.step(&[])).collect();
            for k in 0..cc.num_outputs() {
                let w = packed.output(k);
                assert_eq!(w & 1 == 1, gold[k], "golden lane, output {k}, step {step}");
                for (l, lane) in lanes.iter().enumerate() {
                    assert_eq!(
                        (w >> (l + 1)) & 1 == 1,
                        lane[k],
                        "fault {:?}, output {k}, step {step}",
                        faults[l][0]
                    );
                }
            }
        }
        assert_eq!(packed.steps(), 12);
    }

    /// Spread geometry at `W = 4`: more than 63 faults flow into the upper
    /// sub-words, and every occupied lane of every sub-word must match a
    /// dedicated scalar [`CompiledSim`] carrying the same fault.
    #[test]
    fn wide_packed_sub_words_match_per_fault_compiled_sims() {
        let c = counter2();
        let cc = CompiledCircuit::compile(&c);
        let mut faults: Vec<[Override; 1]> = Vec::new();
        for id in c.node_ids() {
            for value in [false, true] {
                faults.push([Override {
                    site: Site::Stem(id),
                    value,
                }]);
                for pin in 0..c.fanins(id).len() {
                    faults.push([Override {
                        site: Site::Branch { node: id, pin },
                        value,
                    }]);
                }
            }
        }
        // Cycle the fault list past one sub-word's 63 lanes so the spread
        // geometry genuinely exercises sub-words 1 and 2.
        let distinct = faults.len();
        while faults.len() < 150 {
            let f = faults[faults.len() % distinct];
            faults.push(f);
        }
        let refs: Vec<&[Override]> = faults.iter().map(|f| f.as_slice()).collect();
        let mut packed: WidePackedSeqSim<'_, 4> = WidePackedSeqSim::new(&cc, &refs);
        assert_eq!(packed.fault_lanes(), faults.len());
        assert_eq!(WidePackedSeqSim::<4>::FAULT_LANES, 252);
        assert_eq!(packed.sub_lane_mask(3), 0, "sub-word 3 holds no faults");
        let mut golden = CompiledSim::new(&cc);
        let mut scalars: Vec<CompiledSim<'_>> = faults
            .iter()
            .map(|f| {
                let mut s = CompiledSim::new(&cc);
                s.attach(f);
                s
            })
            .collect();
        for step in 0..12 {
            packed.step(&[]);
            let gold = golden.step(&[]);
            let lanes: Vec<Vec<bool>> = scalars.iter_mut().map(|s| s.step(&[])).collect();
            for k in 0..cc.num_outputs() {
                let w = packed.output_wide(k);
                for s in 0..4 {
                    assert_eq!(
                        w.sub(s) & 1 == 1,
                        gold[k],
                        "golden lane, sub {s}, output {k}, step {step}"
                    );
                }
                for (i, lane) in lanes.iter().enumerate() {
                    assert_eq!(
                        (w.sub(i / 63) >> (1 + i % 63)) & 1 == 1,
                        lane[k],
                        "fault {i} ({:?}), output {k}, step {step}",
                        faults[i][0]
                    );
                }
            }
        }
        assert_eq!(packed.steps(), 12);
    }

    #[test]
    fn set_state_jumps() {
        let c = counter2();
        let cc = CompiledCircuit::compile(&c);
        let mut sim = CompiledSim::new(&cc);
        sim.set_state(&[true, true]);
        assert_eq!(sim.state(), vec![true, true]);
        assert_eq!(sim.step(&[]), vec![true, true]);
        assert_eq!(sim.step(&[]), vec![false, false]);
    }
}
