//! The fault-per-lane packed sequential stepper: the engine counterpart of
//! [`scal_netlist::Sim`], one fault per lane.

use crate::compile::{AuxInject, CompiledCircuit, LanePlan};
use crate::eval::WideEvaluator;
use crate::word::Word;
use scal_netlist::Override;

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
/// [`WidePackedSeqSim::step`] is bit-exact with a [`scal_netlist::Sim`]
/// carrying that fault's overrides, and lane 0 of every sub-word with the
/// fault-free machine.
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

    /// Every stuck-at fault of `c`, stems and branches, one override each.
    fn single_faults(c: &Circuit) -> Vec<[Override; 1]> {
        let mut faults = Vec::new();
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
        faults
    }

    /// Packs `faults` into one batch at width `W` and steps it `steps`
    /// times with no inputs: lane 0 of every sub-word must match the
    /// fault-free graph simulator, and fault `i`'s lane a graph simulator
    /// carrying fault `i`, at every step. Returns each fault's output
    /// trace.
    fn lanes_match_graph_sims<const W: usize>(
        c: &Circuit,
        faults: &[[Override; 1]],
        steps: usize,
    ) -> Vec<Vec<Vec<bool>>> {
        let cc = CompiledCircuit::compile(c);
        let refs: Vec<&[Override]> = faults.iter().map(|f| f.as_slice()).collect();
        let mut packed: WidePackedSeqSim<'_, W> = WidePackedSeqSim::new(&cc, &refs);
        assert_eq!(packed.fault_lanes(), faults.len());
        let mut golden = Sim::new(c);
        let mut sims: Vec<Sim<'_>> = faults
            .iter()
            .map(|f| {
                let mut s = Sim::new(c);
                s.attach(f[0]);
                s
            })
            .collect();
        let mut traces = vec![Vec::new(); faults.len()];
        for step in 0..steps {
            packed.step(&[]);
            let gold = golden.step(&[]);
            for (k, &v) in gold.iter().enumerate() {
                let w = packed.output_wide(k);
                for s in 0..W {
                    assert_eq!(
                        w.sub(s) & 1 == 1,
                        v,
                        "golden lane, sub {s}, output {k}, step {step}"
                    );
                }
            }
            for (i, (sim, trace)) in sims.iter_mut().zip(&mut traces).enumerate() {
                let lane = sim.step(&[]);
                for (k, &v) in lane.iter().enumerate() {
                    assert_eq!(
                        (packed.output_wide(k).sub(i / 63) >> (1 + i % 63)) & 1 == 1,
                        v,
                        "fault {i} ({:?}), output {k}, step {step}",
                        faults[i][0]
                    );
                }
                trace.push(lane);
            }
        }
        assert_eq!(packed.steps(), steps as u64);
        traces
    }

    #[test]
    fn golden_lanes_count_like_the_graph_simulator() {
        lanes_match_graph_sims::<1>(&counter2(), &[], 10);
        lanes_match_graph_sims::<4>(&counter2(), &[], 10);
    }

    #[test]
    fn a_stuck_flip_flop_lane_stays_stuck() {
        let c = counter2();
        let q0 = c.dffs()[0];
        let fault = [Override {
            site: Site::Stem(q0),
            value: false,
        }];
        for outputs in &lanes_match_graph_sims::<1>(&c, &[fault], 4)[0] {
            assert_eq!(outputs, &[false, false]);
        }
    }

    #[test]
    fn dff_d_branch_fault_corrupts_latched_value() {
        let c = counter2();
        let q0 = c.dffs()[0];
        let fault = [Override {
            site: Site::Branch { node: q0, pin: 0 },
            value: true,
        }];
        let trace = &lanes_match_graph_sims::<1>(&c, &[fault], 6)[0];
        let mut golden = Sim::new(&c);
        assert!(
            trace.iter().any(|outputs| *outputs != golden.step(&[])),
            "a D-pin stuck-at-1 must change the latched sequence"
        );
    }

    /// Every stuck-at fault of the 2-bit counter packed into one `W = 1`
    /// batch: each lane must match a graph simulator carrying the same
    /// fault.
    #[test]
    fn packed_lanes_match_per_fault_graph_sims() {
        let mut faults = single_faults(&counter2());
        faults.truncate(WidePackedSeqSim::<1>::FAULT_LANES);
        lanes_match_graph_sims::<1>(&counter2(), &faults, 12);
    }

    /// Spread geometry at `W = 4`: more than 63 faults flow into the upper
    /// sub-words, and every occupied lane of every sub-word must match a
    /// graph simulator carrying the same fault.
    #[test]
    fn wide_packed_sub_words_match_per_fault_graph_sims() {
        let c = counter2();
        let mut faults = single_faults(&c);
        // Cycle the fault list past one sub-word's 63 lanes so the spread
        // geometry genuinely exercises sub-words 1 and 2.
        let distinct = faults.len();
        while faults.len() < 150 {
            let f = faults[faults.len() % distinct];
            faults.push(f);
        }
        assert_eq!(WidePackedSeqSim::<4>::FAULT_LANES, 252);
        let cc = CompiledCircuit::compile(&c);
        let refs: Vec<&[Override]> = faults.iter().map(|f| f.as_slice()).collect();
        let packed: WidePackedSeqSim<'_, 4> = WidePackedSeqSim::new(&cc, &refs);
        assert_eq!(packed.sub_lane_mask(3), 0, "sub-word 3 holds no faults");
        lanes_match_graph_sims::<4>(&c, &faults, 12);
    }
}
