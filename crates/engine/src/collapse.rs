//! Compile-phase fault collapsing: structural stuck-at equivalence classes
//! and a dominance annotation over the compiled schedule.
//!
//! Two stuck-at faults are *equivalent* when every input assignment yields
//! identical circuit outputs (and, sequentially, identical next states), so
//! simulating one answers for both. The classic gate-local rules over the
//! original-fanin CSR generate the relation:
//!
//! - **AND**: any input s-a-0 ≡ output s-a-0; **NAND**: input s-a-0 ≡
//!   output s-a-1; **OR** / **NOR**: the s-a-1 duals.
//! - **NOT** / single-input inverting gates: input s-a-v ≡ output s-a-¬v;
//!   **BUF** / single-input identity gates: input s-a-v ≡ output s-a-v.
//! - **Fanout-free wires**: when a slot is read by exactly one pin in the
//!   whole circuit and is not a primary output, forcing the stem is
//!   indistinguishable from forcing that one pin — the stem fault merges
//!   into the branch fault (this closes NOT/BUF chains transitively).
//!
//! XOR/XNOR and the paper's minority/majority modules admit no gate-local
//! collapsing: a stuck input is not equivalent to any stuck output.
//!
//! The rules close under union-find; [`collapse_overrides`] then maps a
//! campaign's fault list onto the classes, electing the first-seen member of
//! each class as its *representative*. Campaigns simulate representatives
//! only and expand each representative's verdict over its class at merge
//! time — sound because equivalent faults produce bit-identical per-pair
//! (and per-word) reports, so the expansion reproduces the uncollapsed
//! event stream and coverage map exactly.
//!
//! *Dominance* (AND output s-a-1 dominates each input s-a-1, and the
//! NAND/OR/NOR duals: any test for the dominated fault also tests the
//! dominator) is computed as a class-level edge count but never used to
//! skip simulation: dominance preserves detectability, not the per-pair
//! detection sets and violation counts the coverage map reports.

use crate::compile::{CompiledCircuit, NO_OP};
use scal_netlist::{GateKind, Override, Site};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

/// A campaign fault list collapsed into structural-equivalence classes.
///
/// Representatives are elected in first-occurrence fault-list order, so the
/// representative of every class is also the smallest original index in it —
/// which is what makes cancelled collapsed runs yield the same contiguous
/// original-fault prefix as uncollapsed runs.
#[derive(Debug, Clone)]
pub struct CollapsedFaultList {
    /// For each original fault index, the ordinal of its representative in
    /// [`CollapsedFaultList::reps`].
    pub rep_of: Vec<u32>,
    /// Original fault-list index of each representative, in first-occurrence
    /// order (strictly increasing).
    pub reps: Vec<u32>,
    /// The representatives' overrides, parallel to `reps`: the faults a
    /// collapsed campaign simulates.
    pub rep_faults: Vec<Override>,
    /// Members of each representative's class within the fault list
    /// (parallel to `reps`).
    pub class_sizes: Vec<u32>,
    /// Structural dominance edges between distinct collapsed classes across
    /// the whole circuit (annotation only — never used to skip simulation).
    pub dominance_edges: usize,
    /// Wall time of the collapsing pass in microseconds.
    pub micros: u64,
}

impl CollapsedFaultList {
    /// Original faults in the list.
    #[must_use]
    pub fn num_faults(&self) -> usize {
        self.rep_of.len()
    }

    /// Representatives that actually simulate.
    #[must_use]
    pub fn num_reps(&self) -> usize {
        self.reps.len()
    }

    /// The list's size before and after collapsing.
    #[must_use]
    pub fn counts(&self) -> CollapseCounts {
        CollapseCounts {
            faults: self.num_faults(),
            representatives: self.num_reps(),
        }
    }

    /// Longest original-fault prefix fully answered by the first
    /// `completed_reps` representatives — the deterministic prefix a
    /// cancelled collapsed campaign reports. Because representatives are
    /// first-occurrence ordered, original fault `i` is answered iff
    /// `rep_of[i] < completed_reps`.
    #[must_use]
    pub fn completed_prefix(&self, completed_reps: usize) -> usize {
        self.rep_of
            .iter()
            .take_while(|&&r| (r as usize) < completed_reps)
            .count()
    }
}

/// How far collapsing shrank a campaign's fault list — the `FaultCollapse`
/// event's counters, carried in a campaign's own results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollapseCounts {
    /// Original faults in the list.
    pub faults: usize,
    /// Representatives that simulated.
    pub representatives: usize,
}

/// The faults a campaign simulates: the representatives of `collapsed`, in
/// order, or the whole of `faults` when the list was not collapsed.
#[must_use]
pub fn representatives<'f>(
    faults: &'f [Override],
    collapsed: Option<&'f CollapsedFaultList>,
) -> &'f [Override] {
    collapsed.map_or(faults, |cl| &cl.rep_faults)
}

/// Union-find with path halving and union by size.
struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
    }
}

/// Key layout over the circuit's fault sites: stems, branch pins (flat
/// fanin-CSR indices), and flip-flop D pins, each × 2 stuck values.
struct SiteKeys {
    nodes: usize,
    fanin_len: usize,
}

impl SiteKeys {
    fn total(&self, dffs: usize) -> usize {
        2 * (self.nodes + self.fanin_len + dffs)
    }

    fn stem(&self, slot: usize, value: bool) -> u32 {
        (2 * slot + usize::from(value)) as u32
    }

    fn branch(&self, flat: usize, value: bool) -> u32 {
        (2 * self.nodes + 2 * flat + usize::from(value)) as u32
    }

    fn dff_d(&self, dff: usize, value: bool) -> u32 {
        (2 * (self.nodes + self.fanin_len) + 2 * dff + usize::from(value)) as u32
    }

    /// The union-find key of one override, or `None` for sites the
    /// evaluator ignores (unknown nodes, out-of-range pins) — mirroring
    /// `Evaluator::try_install` / `ConeBuilder::build` site semantics exactly.
    fn key_of(&self, compiled: &CompiledCircuit, o: &Override) -> Option<u32> {
        match o.site {
            Site::Stem(node) => {
                let slot = node.index();
                (slot < self.nodes).then(|| self.stem(slot, o.value))
            }
            Site::Branch { node, pin } => {
                if let Some(i) = compiled.dff_position(node) {
                    return (pin == 0).then(|| self.dff_d(i, o.value));
                }
                let op_idx = compiled
                    .op_of_node
                    .get(node.index())
                    .copied()
                    .filter(|&i| i != NO_OP)? as usize;
                let op = &compiled.ops[op_idx];
                (pin < op.fan_len as usize)
                    .then(|| self.branch(op.fan_start as usize + pin, o.value))
            }
        }
    }
}

/// Builds the equivalence relation over every fault site of the compiled
/// circuit and returns the closed union-find plus the key layout.
fn build_classes(compiled: &CompiledCircuit) -> (UnionFind, SiteKeys) {
    let keys = SiteKeys {
        nodes: compiled.num_slots - 2,
        fanin_len: compiled.fanins.len(),
    };
    let mut uf = UnionFind::new(keys.total(compiled.dff_slots.len()));

    // Gate-local rules over the original-fanin CSR.
    for op in &compiled.ops {
        let out = op.out as usize;
        let flats = op.fan_start as usize..(op.fan_start + op.fan_len) as usize;
        if op.fan_len == 1 {
            // Single-input gates degenerate to a wire or an inverter.
            let f = op.fan_start as usize;
            match op.kind {
                GateKind::Buf | GateKind::And | GateKind::Or | GateKind::Xor => {
                    for v in [false, true] {
                        uf.union(keys.branch(f, v), keys.stem(out, v));
                    }
                }
                GateKind::Not | GateKind::Nand | GateKind::Nor | GateKind::Xnor => {
                    for v in [false, true] {
                        uf.union(keys.branch(f, v), keys.stem(out, !v));
                    }
                }
                // Minority/majority (and any future kind) stay uncollapsed.
                _ => {}
            }
            continue;
        }
        // Controlling-value rules: a stuck controlling input fixes the
        // output regardless of the other inputs, exactly like the matching
        // output stuck fault.
        let (in_value, out_value) = match op.kind {
            GateKind::And => (false, false),
            GateKind::Nand => (false, true),
            GateKind::Or => (true, true),
            GateKind::Nor => (true, false),
            _ => continue, // XOR/XNOR/minority/majority: no controlling value
        };
        for f in flats {
            uf.union(keys.branch(f, in_value), keys.stem(out, out_value));
        }
    }

    // Fanout-free wire rule: a slot read by exactly one pin circuit-wide
    // and not observed as a primary output merges its stem faults into that
    // pin's branch faults. Reader pins live in the fanout CSR (gate reads)
    // plus the flip-flop D list; D reads and output observation are not in
    // the CSR, so they are counted separately.
    let mut is_output = vec![false; keys.nodes];
    for &s in &compiled.output_slots {
        is_output[s as usize] = true;
    }
    let mut dff_reads = vec![0u32; keys.nodes];
    for &d in &compiled.dff_d_slots {
        dff_reads[d as usize] += 1;
    }
    for slot in 0..keys.nodes {
        if is_output[slot] {
            continue;
        }
        let gate_reads = (compiled.fanout_start[slot + 1] - compiled.fanout_start[slot]) as usize;
        if gate_reads + dff_reads[slot] as usize != 1 {
            continue;
        }
        if gate_reads == 1 {
            let op_idx = compiled.fanout_ops[compiled.fanout_start[slot] as usize] as usize;
            let op = &compiled.ops[op_idx];
            let flats = op.fan_start as usize..(op.fan_start + op.fan_len) as usize;
            // Unique by construction: the slot has exactly one reading pin.
            if let Some(flat) = flats.clone().find(|&f| compiled.fanins[f] as usize == slot) {
                for v in [false, true] {
                    uf.union(keys.stem(slot, v), keys.branch(flat, v));
                }
            }
        } else if let Some(i) = compiled
            .dff_d_slots
            .iter()
            .position(|&d| d as usize == slot)
        {
            for v in [false, true] {
                uf.union(keys.stem(slot, v), keys.dff_d(i, v));
            }
        }
    }

    (uf, keys)
}

/// Counts structural dominance edges between distinct collapsed classes:
/// AND output s-a-1 dominates each input s-a-1 (NAND/OR/NOR duals), so any
/// test for the input fault also detects the output fault. Counted over the
/// whole circuit as an annotation; never used to drop faults, because
/// dominance preserves only detectability — not the per-pair detection sets
/// the coverage map is required to reproduce bit for bit.
fn count_dominance_edges(compiled: &CompiledCircuit, uf: &mut UnionFind, keys: &SiteKeys) -> usize {
    let mut edges: HashSet<(u32, u32)> = HashSet::new();
    for op in &compiled.ops {
        if op.fan_len < 2 {
            continue;
        }
        let (in_value, out_value) = match op.kind {
            GateKind::And => (true, true),
            GateKind::Nand => (true, false),
            GateKind::Or => (false, false),
            GateKind::Nor => (false, true),
            _ => continue,
        };
        let dominator = uf.find(keys.stem(op.out as usize, out_value));
        for f in op.fan_start as usize..(op.fan_start + op.fan_len) as usize {
            let dominated = uf.find(keys.branch(f, in_value));
            if dominated != dominator {
                edges.insert((dominator, dominated));
            }
        }
    }
    edges.len()
}

/// Collapses a campaign fault list (one [`Override`] per fault) into
/// structural-equivalence classes over `compiled`.
///
/// Overrides whose site the evaluator ignores (unknown node, out-of-range
/// pin) fall back to exact `(site, value)` identity, so duplicate no-op
/// faults still merge while distinct ones conservatively stay apart.
#[must_use]
pub fn collapse_overrides(compiled: &CompiledCircuit, faults: &[Override]) -> CollapsedFaultList {
    let t = Instant::now();
    let (mut uf, keys) = build_classes(compiled);

    let mut rep_of = Vec::with_capacity(faults.len());
    let mut reps: Vec<u32> = Vec::new();
    let mut class_sizes: Vec<u32> = Vec::new();
    let mut root_to_rep: HashMap<u32, u32> = HashMap::new();
    // (is_branch, node, pin, value) identity for evaluator-ignored sites.
    let mut invalid_to_rep: BTreeMap<(bool, usize, usize, bool), u32> = BTreeMap::new();
    for (i, o) in faults.iter().enumerate() {
        let elect = |reps: &mut Vec<u32>, class_sizes: &mut Vec<u32>| {
            reps.push(i as u32);
            class_sizes.push(0);
            (reps.len() - 1) as u32
        };
        let rep = match keys.key_of(compiled, o) {
            Some(k) => {
                let root = uf.find(k);
                *root_to_rep
                    .entry(root)
                    .or_insert_with(|| elect(&mut reps, &mut class_sizes))
            }
            None => {
                let id = match o.site {
                    Site::Stem(node) => (false, node.index(), 0, o.value),
                    Site::Branch { node, pin } => (true, node.index(), pin, o.value),
                };
                *invalid_to_rep
                    .entry(id)
                    .or_insert_with(|| elect(&mut reps, &mut class_sizes))
            }
        };
        class_sizes[rep as usize] += 1;
        rep_of.push(rep);
    }

    let dominance_edges = count_dominance_edges(compiled, &mut uf, &keys);
    let rep_faults = reps.iter().map(|&r| faults[r as usize]).collect();
    CollapsedFaultList {
        rep_of,
        reps,
        rep_faults,
        class_sizes,
        dominance_edges,
        micros: u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scal_netlist::Circuit;

    fn collapse(c: &Circuit, faults: &[Override]) -> CollapsedFaultList {
        collapse_overrides(&CompiledCircuit::compile(c), faults)
    }

    /// `a, b -> g(kind) -> inv -> out` with `a` also feeding a side gate, so
    /// only `b` is fanout-free.
    fn two_input(kind: &str) -> (Circuit, scal_netlist::NodeId, scal_netlist::NodeId) {
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let g = match kind {
            "and" => c.and(&[a, b]),
            "nand" => c.nand(&[a, b]),
            "or" => c.or(&[a, b]),
            "nor" => c.nor(&[a, b]),
            "xor" => c.xor(&[a, b]),
            other => panic!("unknown kind {other}"),
        };
        let side = c.xor(&[a, g]);
        c.mark_output("f", side);
        (c, g, b)
    }

    fn same_class(list: &CollapsedFaultList, i: usize, j: usize) -> bool {
        list.rep_of[i] == list.rep_of[j]
    }

    #[test]
    fn and_input_sa0_equals_output_sa0() {
        let (c, g, _) = two_input("and");
        let faults = vec![
            Override::branch(g, 0, false), // in0 s-a-0
            Override::branch(g, 1, false), // in1 s-a-0
            Override::stem(g, false),      // out s-a-0
            Override::branch(g, 0, true),  // in0 s-a-1: NOT equivalent
            Override::stem(g, true),       // out s-a-1: NOT equivalent
        ];
        let list = collapse(&c, &faults);
        assert!(same_class(&list, 0, 1) && same_class(&list, 1, 2));
        assert!(!same_class(&list, 3, 4) && !same_class(&list, 0, 3));
        assert_eq!(list.num_reps(), 3);
        assert_eq!(list.reps, vec![0, 3, 4]);
        assert_eq!(list.class_sizes, vec![3, 1, 1]);
        assert!(list.dominance_edges >= 1); // out s-a-1 dominates in s-a-1
    }

    #[test]
    fn nand_input_sa0_equals_output_sa1() {
        let (c, g, _) = two_input("nand");
        let faults = vec![
            Override::branch(g, 0, false),
            Override::stem(g, true),
            Override::stem(g, false),
        ];
        let list = collapse(&c, &faults);
        assert!(same_class(&list, 0, 1));
        assert!(!same_class(&list, 0, 2));
    }

    #[test]
    fn or_input_sa1_equals_output_sa1() {
        let (c, g, _) = two_input("or");
        let faults = vec![
            Override::branch(g, 0, true),
            Override::branch(g, 1, true),
            Override::stem(g, true),
            Override::branch(g, 0, false),
        ];
        let list = collapse(&c, &faults);
        assert!(same_class(&list, 0, 2) && same_class(&list, 1, 2));
        assert!(!same_class(&list, 3, 2));
    }

    #[test]
    fn nor_input_sa1_equals_output_sa0() {
        let (c, g, _) = two_input("nor");
        let faults = vec![Override::branch(g, 1, true), Override::stem(g, false)];
        let list = collapse(&c, &faults);
        assert!(same_class(&list, 0, 1));
    }

    #[test]
    fn xor_admits_no_gate_local_collapsing() {
        let (c, g, _) = two_input("xor");
        let faults = vec![
            Override::branch(g, 0, false),
            Override::branch(g, 1, false),
            Override::stem(g, false),
            Override::stem(g, true),
        ];
        let list = collapse(&c, &faults);
        assert_eq!(list.num_reps(), 4, "every XOR fault is its own class");
    }

    #[test]
    fn inverter_chains_collapse_through_wires() {
        // a -> not -> not -> out: the inner wire is fanout-free, so a stem
        // fault anywhere on the chain folds into one class per polarity.
        let mut c = Circuit::new();
        let a = c.input("a");
        let n1 = c.not(a);
        let n2 = c.not(n1);
        c.mark_output("f", n2);
        let faults = vec![
            Override::stem(a, false),  // ≡ n1 in s-a-0 ≡ n1 out s-a-1
            Override::stem(n1, true),  // ≡ n2 in s-a-1 ≡ n2 out s-a-0
            Override::stem(n2, false), // output stem: the same class
            Override::stem(a, true),   // opposite polarity chain
            Override::stem(n2, true),
        ];
        let list = collapse(&c, &faults);
        assert!(same_class(&list, 0, 1) && same_class(&list, 1, 2));
        assert!(same_class(&list, 3, 4));
        assert!(!same_class(&list, 0, 3));
        assert_eq!(list.num_reps(), 2);
    }

    #[test]
    fn fanout_stems_stay_apart_from_branches() {
        // `a` feeds two gates: its stem faults are NOT equivalent to either
        // branch fault.
        let (c, g, _) = two_input("and");
        let a = c.node_ids().next().expect("input a");
        let faults = vec![
            Override::stem(a, false),
            Override::branch(g, 0, false),
            Override::stem(g, false),
        ];
        let list = collapse(&c, &faults);
        assert!(!same_class(&list, 0, 1));
        assert!(same_class(&list, 1, 2)); // AND rule still applies
    }

    #[test]
    fn primary_output_stems_never_wire_collapse() {
        // g drives only the output: observed directly, so out stem s-a-0
        // must stay distinct from a hypothetical downstream pin. Here the
        // AND rule still merges it with input s-a-0 — but the *output* node
        // of the circuit (side) has no reader at all and must be its own
        // class.
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let g = c.and(&[a, b]);
        let h = c.not(g);
        c.mark_output("f", h);
        let faults = vec![
            Override::stem(g, false),      // fanout-free wire into h
            Override::branch(h, 0, false), // h's pin: same wire class
            Override::stem(h, true),       // h out s-a-1 ≡ h in s-a-0 (NOT rule)
            Override::stem(h, false),      // output stem, own class
        ];
        let list = collapse(&c, &faults);
        assert!(same_class(&list, 0, 1) && same_class(&list, 1, 2));
        assert!(!same_class(&list, 2, 3));
    }

    #[test]
    fn dff_d_wire_folds_into_the_d_pin() {
        // not(q) -> d wire is read only by the flip-flop: the wire stem and
        // the D-pin branch fault collapse together.
        let mut c = Circuit::new();
        let ff = c.dff(false);
        let nq = c.not(ff);
        c.connect_dff(ff, nq);
        c.mark_output("q", ff);
        let faults = vec![
            Override::stem(nq, true),
            Override::branch(ff, 0, true),
            Override::stem(ff, true), // Q stem: the output, its own class
        ];
        let list = collapse(&c, &faults);
        assert!(same_class(&list, 0, 1));
        assert!(!same_class(&list, 0, 2));
    }

    #[test]
    fn duplicate_and_invalid_faults_merge_by_identity() {
        let (c, g, _) = two_input("and");
        let faults = vec![
            Override::stem(g, false),
            Override::stem(g, false),      // exact duplicate
            Override::branch(g, 7, false), // pin out of range: evaluator no-op
            Override::branch(g, 7, false), // identical no-op merges
            Override::branch(g, 8, false), // distinct no-op stays apart
        ];
        let list = collapse(&c, &faults);
        assert!(same_class(&list, 0, 1));
        assert!(same_class(&list, 2, 3));
        assert!(!same_class(&list, 2, 4));
        assert_eq!(list.num_reps(), 3);
    }

    #[test]
    fn prefix_accounting_follows_first_occurrence_reps() {
        let (c, g, _) = two_input("and");
        let faults = vec![
            Override::branch(g, 0, false), // rep 0
            Override::stem(g, false),      // class of rep 0
            Override::stem(g, true),       // rep 1
            Override::branch(g, 1, false), // class of rep 0
        ];
        let list = collapse(&c, &faults);
        assert_eq!(list.rep_of, vec![0, 0, 1, 0]);
        assert_eq!(list.completed_prefix(0), 0);
        assert_eq!(list.completed_prefix(1), 2); // faults 0,1 answered by rep 0
        assert_eq!(list.completed_prefix(2), 4);
    }
}
