//! Combinational evaluation: scalar and 64-lane bit-parallel, with optional
//! forced values at fault sites.

use crate::circuit::{Circuit, NodeKind};
use crate::{NodeId, Site};
use scal_logic::Tt;

/// A forced value at a [`Site`] — the primitive `scal-faults` builds stuck-at
/// faults from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Override {
    /// Where the value is forced.
    pub site: Site,
    /// The forced value.
    pub value: bool,
}

impl Override {
    /// Forces `value` on the output stem of `node`.
    #[must_use]
    pub fn stem(node: NodeId, value: bool) -> Self {
        Override {
            site: Site::Stem(node),
            value,
        }
    }

    /// Forces `value` on fanin pin `pin` of `node`.
    #[must_use]
    pub fn branch(node: NodeId, pin: usize, value: bool) -> Self {
        Override {
            site: Site::Branch { node, pin },
            value,
        }
    }
}

/// Override lookup index built once per evaluation sweep.
///
/// The naive per-node scan made every sweep `O(overrides × nodes)`; sorting
/// the (tiny) override list up front makes each query a binary search, and
/// the empty case — the fault-free sweep, by far the most common — free.
pub(crate) struct OverrideIndex {
    /// `(site, value)` pairs sorted by site; first match wins on duplicates,
    /// matching the old `Iterator::find` semantics.
    sorted: Vec<(Site, bool)>,
}

impl OverrideIndex {
    pub(crate) fn new(overrides: &[Override]) -> Self {
        let mut sorted: Vec<(Site, bool)> = overrides.iter().map(|o| (o.site, o.value)).collect();
        // Stable sort keeps the earliest entry first among equal sites.
        sorted.sort_by_key(|&(site, _)| site);
        sorted.dedup_by_key(|&mut (site, _)| site);
        OverrideIndex { sorted }
    }

    fn get(&self, site: Site) -> Option<bool> {
        if self.sorted.is_empty() {
            return None;
        }
        self.sorted
            .binary_search_by_key(&site, |&(s, _)| s)
            .ok()
            .map(|i| self.sorted[i].1)
    }

    pub(crate) fn stem(&self, node: NodeId) -> Option<bool> {
        self.get(Site::Stem(node))
    }

    pub(crate) fn branch(&self, node: NodeId, pin: usize) -> Option<bool> {
        self.get(Site::Branch { node, pin })
    }
}

impl Circuit {
    /// Evaluates a purely combinational circuit.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is sequential (use [`crate::Sim`]) or
    /// `inputs.len()` does not match the input count.
    #[must_use]
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        self.eval_with(inputs, &[])
    }

    /// Evaluates a purely combinational circuit with forced values.
    ///
    /// # Panics
    ///
    /// As [`Circuit::eval`].
    #[must_use]
    pub fn eval_with(&self, inputs: &[bool], overrides: &[Override]) -> Vec<bool> {
        assert!(
            !self.is_sequential(),
            "eval() is for combinational circuits; use Sim for sequential ones"
        );
        let (outputs, _next) = self.eval_comb(inputs, &[], overrides);
        outputs
    }

    /// Core combinational sweep: given primary `inputs` and flip-flop
    /// `state` (in [`Circuit::dffs`] order), computes `(outputs, next_state)`
    /// with `overrides` applied.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches or combinational cycles.
    #[must_use]
    pub fn eval_comb(
        &self,
        inputs: &[bool],
        state: &[bool],
        overrides: &[Override],
    ) -> (Vec<bool>, Vec<bool>) {
        let values = self.eval_nodes(inputs, state, overrides);
        let index = OverrideIndex::new(overrides);
        let outputs = self
            .outputs
            .iter()
            .map(|o| values[o.node.index()])
            .collect();
        let next_state = self
            .dffs
            .iter()
            .map(|&ff| {
                let d = self.nodes[ff.index()].fanins[0];
                // A branch fault on the flip-flop's D pin corrupts what gets
                // latched.
                index.branch(ff, 0).unwrap_or(values[d.index()])
            })
            .collect();
        (outputs, next_state)
    }

    /// Computes the value of *every node* (indexed by [`NodeId::index`]) for
    /// the given inputs and flip-flop state, with overrides applied.
    ///
    /// This is what the paper's analytic machinery calls `G(X)`, the value of
    /// an arbitrary line `g` under input `X`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches or combinational cycles.
    #[must_use]
    pub fn eval_nodes(&self, inputs: &[bool], state: &[bool], overrides: &[Override]) -> Vec<bool> {
        assert_eq!(inputs.len(), self.inputs.len(), "input arity mismatch");
        assert_eq!(state.len(), self.dffs.len(), "state arity mismatch");
        let index = OverrideIndex::new(overrides);
        let mut values = vec![false; self.nodes.len()];
        let order = self.topo_order();

        // Pre-place sources.
        for (i, &inp) in self.inputs.iter().enumerate() {
            values[inp.index()] = inputs[i];
        }
        for (i, &ff) in self.dffs.iter().enumerate() {
            values[ff.index()] = state[i];
        }

        let mut scratch: Vec<bool> = Vec::new();
        for id in order {
            let node = &self.nodes[id.index()];
            let mut v = match &node.kind {
                NodeKind::Input => values[id.index()],
                NodeKind::Const(c) => *c,
                NodeKind::Dff { .. } => values[id.index()],
                NodeKind::Gate(kind) => {
                    scratch.clear();
                    for (pin, f) in node.fanins.iter().enumerate() {
                        let fv = index.branch(id, pin).unwrap_or(values[f.index()]);
                        scratch.push(fv);
                    }
                    kind.eval(&scratch)
                }
            };
            if let Some(forced) = index.stem(id) {
                v = forced;
            }
            values[id.index()] = v;
        }
        values
    }

    /// 64-lane bit-parallel analogue of [`Circuit::eval_nodes`]: every bit
    /// lane of the input words is an independent evaluation.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches or combinational cycles.
    #[must_use]
    pub fn eval_nodes64(&self, inputs: &[u64], state: &[u64], overrides: &[Override]) -> Vec<u64> {
        assert_eq!(inputs.len(), self.inputs.len(), "input arity mismatch");
        assert_eq!(state.len(), self.dffs.len(), "state arity mismatch");
        let index = OverrideIndex::new(overrides);
        let mut values = vec![0u64; self.nodes.len()];
        for (i, &inp) in self.inputs.iter().enumerate() {
            values[inp.index()] = inputs[i];
        }
        for (i, &ff) in self.dffs.iter().enumerate() {
            values[ff.index()] = state[i];
        }
        let mut scratch: Vec<u64> = Vec::new();
        for id in self.topo_order() {
            let node = &self.nodes[id.index()];
            let mut v = match &node.kind {
                NodeKind::Input => values[id.index()],
                NodeKind::Const(c) => {
                    if *c {
                        u64::MAX
                    } else {
                        0
                    }
                }
                NodeKind::Dff { .. } => values[id.index()],
                NodeKind::Gate(kind) => {
                    scratch.clear();
                    for (pin, f) in node.fanins.iter().enumerate() {
                        let fv = match index.branch(id, pin) {
                            Some(true) => u64::MAX,
                            Some(false) => 0,
                            None => values[f.index()],
                        };
                        scratch.push(fv);
                    }
                    kind.eval64(&scratch)
                }
            };
            match index.stem(id) {
                Some(true) => v = u64::MAX,
                Some(false) => v = 0,
                None => {}
            }
            values[id.index()] = v;
        }
        values
    }

    /// 64-lane evaluation of the primary outputs of a combinational circuit.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is sequential or on arity mismatch.
    #[must_use]
    pub fn eval64(&self, inputs: &[u64]) -> Vec<u64> {
        assert!(!self.is_sequential(), "eval64() is combinational-only");
        let values = self.eval_nodes64(inputs, &[], &[]);
        self.outputs
            .iter()
            .map(|o| values[o.node.index()])
            .collect()
    }

    /// Truth table of primary output `index` as a function of the primary
    /// inputs (input `i` is truth-table variable `i`), computed by exhaustive
    /// bit-parallel sweep.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is sequential, has more than
    /// [`scal_logic::MAX_VARS`] inputs, or `index` is out of range.
    #[must_use]
    pub fn output_tt(&self, index: usize) -> Tt {
        self.node_tt(self.outputs[index].node)
    }

    /// Truth tables of all primary outputs.
    ///
    /// # Panics
    ///
    /// As [`Circuit::output_tt`].
    #[must_use]
    pub fn output_tts(&self) -> Vec<Tt> {
        (0..self.outputs.len()).map(|i| self.output_tt(i)).collect()
    }

    /// Truth table of an arbitrary node's function of the primary inputs —
    /// the paper's `G(X)` for line `g`.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is sequential or has more than
    /// [`scal_logic::MAX_VARS`] inputs.
    #[must_use]
    pub fn node_tt(&self, node: NodeId) -> Tt {
        self.node_tt_with(node, &[])
    }

    /// Truth table of a node under forced values — the paper's `F(X, s)`
    /// when the override is a stuck line.
    ///
    /// Input words and table bits go minterm by minterm, straight from the
    /// definition: this graph walk is the reference that the engine's
    /// word-at-a-time tables (`scal_engine::node_table` and friends) are
    /// tested against, so it shares none of their pattern code.
    ///
    /// # Panics
    ///
    /// As [`Circuit::node_tt`].
    #[must_use]
    pub fn node_tt_with(&self, node: NodeId, overrides: &[Override]) -> Tt {
        assert!(!self.is_sequential(), "truth tables are combinational-only");
        let n = self.inputs.len();
        assert!(
            n <= scal_logic::MAX_VARS,
            "too many inputs for a truth table"
        );
        let total = 1usize << n;
        let mut tt = Tt::zero(n);
        let mut base = 0usize;
        let mut words: Vec<u64> = vec![0; n];
        while base < total {
            let lanes = (total - base).min(64);
            for (i, w) in words.iter_mut().enumerate() {
                *w = 0;
                for lane in 0..lanes {
                    let m = (base + lane) as u32;
                    if (m >> i) & 1 == 1 {
                        *w |= 1 << lane;
                    }
                }
            }
            let values = self.eval_nodes64(&words, &[], overrides);
            let out = values[node.index()];
            for lane in 0..lanes {
                if (out >> lane) & 1 == 1 {
                    tt.set((base + lane) as u32, true);
                }
            }
            base += lanes;
        }
        tt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateKind;

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

    #[test]
    fn full_adder_truth() {
        let c = full_adder();
        for m in 0..8u32 {
            let ins: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
            let out = c.eval(&ins);
            let sum = m.count_ones() & 1 == 1;
            let carry = m.count_ones() >= 2;
            assert_eq!(out, vec![sum, carry], "m={m}");
        }
    }

    #[test]
    fn eval64_matches_scalar() {
        let c = full_adder();
        let words = [0b10101010u64, 0b11001100, 0b11110000];
        let outs = c.eval64(&words);
        for lane in 0..8 {
            let ins: Vec<bool> = words.iter().map(|w| (w >> lane) & 1 == 1).collect();
            let scalar = c.eval(&ins);
            assert_eq!((outs[0] >> lane) & 1 == 1, scalar[0]);
            assert_eq!((outs[1] >> lane) & 1 == 1, scalar[1]);
        }
    }

    #[test]
    fn stem_override_forces_value() {
        let c = full_adder();
        let s_node = c.outputs()[0].node;
        let out = c.eval_with(&[true, false, false], &[Override::stem(s_node, false)]);
        assert!(!out[0]);
        assert!(!out[1]);
    }

    #[test]
    fn branch_override_hits_one_pin_only() {
        // g = AND(a, a): forcing pin 0 to 0 while a=1 gives 0; forcing pin 1
        // keeps pin 0 live.
        let mut c = Circuit::new();
        let a = c.input("a");
        let g = c.and(&[a, a]);
        c.mark_output("g", g);
        assert_eq!(
            c.eval_with(&[true], &[Override::branch(g, 0, false)]),
            vec![false]
        );
        assert_eq!(
            c.eval_with(&[true], &[Override::branch(g, 1, false)]),
            vec![false]
        );
        assert_eq!(c.eval_with(&[true], &[]), vec![true]);
    }

    #[test]
    fn node_tt_computes_cone_function() {
        let c = full_adder();
        let s = c.output_tt(0);
        let co = c.output_tt(1);
        assert!(s.is_self_dual());
        assert!(co.is_self_dual());
        assert_eq!(s.count_ones(), 4);
        assert_eq!(co.count_ones(), 4);
    }

    #[test]
    fn node_tt_with_stuck_line() {
        let c = full_adder();
        let co = c.outputs()[1].node;
        let stuck1 = c.node_tt_with(co, &[Override::stem(co, true)]);
        assert!(stuck1.is_one());
    }

    #[test]
    fn tt_beyond_64_minterms() {
        // 7-input parity: 128 minterms, exercises multi-word sweep.
        let mut c = Circuit::new();
        let ins: Vec<_> = (0..7).map(|i| c.input(format!("x{i}"))).collect();
        let x = c.xor(&ins);
        c.mark_output("p", x);
        let tt = c.output_tt(0);
        for m in 0..128u32 {
            assert_eq!(tt.eval(m), m.count_ones() % 2 == 1);
        }
    }

    #[test]
    fn const_sources() {
        let mut c = Circuit::new();
        let a = c.input("a");
        let one = c.constant(true);
        let g = c.and(&[a, one]);
        c.mark_output("g", g);
        assert_eq!(c.eval(&[true]), vec![true]);
        assert_eq!(c.eval(&[false]), vec![false]);
    }
}
