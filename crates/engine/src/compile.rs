//! Compilation of a [`Circuit`] into a flat, levelized evaluation schedule,
//! plus the per-fault fanout-cone extraction behind cone-restricted
//! evaluation ([`CompiledCircuit::cone_for`]).

use crate::error::EngineError;
use crate::word::Word;
use scal_netlist::{Circuit, GateKind, NodeId, NodeView, Override, Site};
use std::time::Instant;

/// Wall times of the two compilation stages, for the profiler's `levelize` /
/// `pack` spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileSpans {
    /// Microseconds spent ordering gates and building the op schedule.
    pub levelize_micros: u64,
    /// Microseconds spent laying out slots (constants, flip-flops, I/O).
    pub pack_micros: u64,
}

/// Sentinel for "this node has no gate op" in [`CompiledCircuit::op_of_node`].
pub(crate) const NO_OP: u32 = u32::MAX;

/// Sentinel cone ordinal: "no cone op ever reads this value" (last-read
/// tables in [`FaultCone`]).
pub(crate) const CONE_NONE: u32 = u32::MAX;

/// Sentinel cone ordinal: "this value is a cone seed" — the evaluator sets
/// it itself (stem force, faulty flip-flop state), so readers must always
/// take the evaluator's slot, never the golden value, regardless of how far
/// the frontier got. Numerically equal to [`CONE_NONE`]; the two sentinels
/// live in disjoint tables (last-read vs producing-ordinal).
pub(crate) const CONE_SEED: u32 = u32::MAX;

/// One gate evaluation in the compiled schedule.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Op {
    /// Gate function.
    pub kind: GateKind,
    /// Destination slot.
    pub out: u32,
    /// Start of the fanin slot run in [`CompiledCircuit::fanins`].
    pub fan_start: u32,
    /// Number of fanins.
    pub fan_len: u32,
}

/// A [`Circuit`] compiled for repeated evaluation.
///
/// Node values live in dense *slots* indexed by [`NodeId::index`], with two
/// extra constant slots appended (all-zeros and all-ones words) so that fault
/// injection on a fanin is a single index rewrite. Gate evaluations are
/// recorded as a topologically ordered flat op array; evaluating the circuit
/// is one linear pass over it with no graph traversal, no allocation, and no
/// override searching.
///
/// A `CompiledCircuit` is immutable and shareable across threads; each worker
/// carries its own [`crate::Evaluator`] scratch state.
#[derive(Debug, Clone)]
pub struct CompiledCircuit {
    /// Total slot count: one per node plus the two constant slots.
    pub(crate) num_slots: usize,
    /// Slot holding the all-zeros word.
    pub(crate) zero_slot: u32,
    /// Slot holding the all-ones word.
    pub(crate) one_slot: u32,
    /// Gate ops in topological order.
    pub(crate) ops: Vec<Op>,
    /// Flat fanin slot array referenced by [`Op::fan_start`]/[`Op::fan_len`].
    pub(crate) fanins: Vec<u32>,
    /// Slot of each primary input, in circuit input order.
    pub(crate) input_slots: Vec<u32>,
    /// Slot of each flip-flop output, in circuit flip-flop order.
    pub(crate) dff_slots: Vec<u32>,
    /// Slot each flip-flop latches from (its D fanin).
    pub(crate) dff_d_slots: Vec<u32>,
    /// Power-up value of each flip-flop.
    pub(crate) dff_init: Vec<bool>,
    /// Constant-source slots and their values.
    pub(crate) const_slots: Vec<(u32, bool)>,
    /// Slot of each primary output, in declaration order.
    pub(crate) output_slots: Vec<u32>,
    /// Per node: index of its op in `ops`, or [`NO_OP`] for sources.
    pub(crate) op_of_node: Vec<u32>,
    /// Gates per schedule level (level 0 = gates fed only by sources).
    pub(crate) level_gates: Vec<usize>,
    /// Schedule level of each op (parallel to `ops`).
    pub(crate) op_levels: Vec<u32>,
    /// Fanout CSR row starts: ops reading slot `s` are
    /// `fanout_ops[fanout_start[s]..fanout_start[s + 1]]`.
    pub(crate) fanout_start: Vec<u32>,
    /// Fanout CSR payload: op indices, grouped by the slot they read.
    pub(crate) fanout_ops: Vec<u32>,
}

impl CompiledCircuit {
    /// Compiles a circuit into a flat schedule, panicking on rejection.
    ///
    /// # Panics
    ///
    /// Panics if [`CompiledCircuit::try_compile`] errors (the circuit fails
    /// [`Circuit::validate`] or overflows the engine's `u32` slot indices).
    #[must_use]
    pub fn compile(circuit: &Circuit) -> Self {
        match Self::try_compile(circuit) {
            Ok(cc) => cc,
            Err(e) => panic!("{e}"),
        }
    }

    /// Compiles a circuit into a flat schedule.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidCircuit`] if the circuit fails
    /// [`Circuit::validate`], or [`EngineError::TooLarge`] if the node or
    /// fanin count overflows the engine's `u32` slot indices.
    pub fn try_compile(circuit: &Circuit) -> Result<Self, EngineError> {
        Self::try_compile_timed(circuit).map(|(cc, _)| cc)
    }

    /// [`CompiledCircuit::try_compile`] with per-stage wall times — the
    /// campaign's source for `levelize` / `pack` profiler spans.
    ///
    /// # Errors
    ///
    /// Same as [`CompiledCircuit::try_compile`].
    pub fn try_compile_timed(circuit: &Circuit) -> Result<(Self, CompileSpans), EngineError> {
        circuit.validate()?;
        let n = circuit.len();
        let zero_slot = u32::try_from(n).map_err(|_| EngineError::TooLarge { count: n })?;
        let one_slot = zero_slot + 1;

        // Levelize: topologically order the gates into the flat op schedule
        // and record each gate's level (longest gate-only path from a
        // source) for the per-level evaluation counters.
        let t = Instant::now();
        let mut ops = Vec::new();
        let mut fanins = Vec::new();
        let mut op_of_node = vec![NO_OP; n];
        let mut node_level = vec![0usize; n];
        let mut level_gates = Vec::new();
        let mut op_levels = Vec::new();
        for id in circuit.topo_order() {
            if let NodeView::Gate(kind) = circuit.view(id) {
                let fan_start = u32::try_from(fanins.len()).map_err(|_| EngineError::TooLarge {
                    count: fanins.len(),
                })?;
                let mut level = 0;
                for f in circuit.fanins(id) {
                    fanins.push(f.index() as u32);
                    if matches!(circuit.view(*f), NodeView::Gate(_)) {
                        level = level.max(node_level[f.index()] + 1);
                    }
                }
                node_level[id.index()] = level;
                if level_gates.len() <= level {
                    level_gates.resize(level + 1, 0);
                }
                level_gates[level] += 1;
                op_levels.push(level as u32);
                op_of_node[id.index()] = ops.len() as u32;
                ops.push(Op {
                    kind,
                    out: id.index() as u32,
                    fan_start,
                    fan_len: circuit.fanins(id).len() as u32,
                });
            }
        }
        // Fanout CSR over the *original* fanins: for every slot, which ops
        // read it. This is what cone extraction walks, so it stays put when
        // an evaluator patches its private fanin copy for a branch fault
        // (the patched op is already a cone root in that case).
        let num_slots = n + 2;
        let mut fanout_start = vec![0u32; num_slots + 1];
        for &f in &fanins {
            fanout_start[f as usize + 1] += 1;
        }
        for s in 0..num_slots {
            fanout_start[s + 1] += fanout_start[s];
        }
        let mut fanout_ops = vec![0u32; fanins.len()];
        let mut cursor = fanout_start.clone();
        for (op_idx, op) in ops.iter().enumerate() {
            for i in 0..op.fan_len as usize {
                let f = fanins[op.fan_start as usize + i] as usize;
                fanout_ops[cursor[f] as usize] = op_idx as u32;
                cursor[f] += 1;
            }
        }
        let levelize_micros = u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX);

        // Pack: lay out the remaining slot metadata (constants, flip-flops,
        // primary I/O).
        let t = Instant::now();
        let mut const_slots = Vec::new();
        for id in circuit.node_ids() {
            if let NodeView::Const(v) = circuit.view(id) {
                const_slots.push((id.index() as u32, v));
            }
        }
        let mut dff_init = Vec::with_capacity(circuit.dffs().len());
        let mut dff_d_slots = Vec::with_capacity(circuit.dffs().len());
        for &ff in circuit.dffs() {
            match circuit.view(ff) {
                NodeView::Dff { init } => dff_init.push(init),
                _ => unreachable!("dffs() returns flip-flops"),
            }
            dff_d_slots.push(circuit.fanins(ff)[0].index() as u32);
        }

        let cc = CompiledCircuit {
            num_slots: n + 2,
            zero_slot,
            one_slot,
            ops,
            fanins,
            input_slots: circuit.inputs().iter().map(|i| i.index() as u32).collect(),
            dff_slots: circuit.dffs().iter().map(|f| f.index() as u32).collect(),
            dff_d_slots,
            dff_init,
            const_slots,
            output_slots: circuit
                .outputs()
                .iter()
                .map(|o| o.node.index() as u32)
                .collect(),
            op_of_node,
            level_gates,
            op_levels,
            fanout_start,
            fanout_ops,
        };
        let pack_micros = u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX);
        Ok((
            cc,
            CompileSpans {
                levelize_micros,
                pack_micros,
            },
        ))
    }

    /// Number of primary inputs.
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.input_slots.len()
    }

    /// Number of primary outputs.
    #[must_use]
    pub fn num_outputs(&self) -> usize {
        self.output_slots.len()
    }

    /// Number of flip-flops.
    #[must_use]
    pub fn num_dffs(&self) -> usize {
        self.dff_slots.len()
    }

    /// `true` iff the source circuit was sequential.
    #[must_use]
    pub fn is_sequential(&self) -> bool {
        !self.dff_slots.is_empty()
    }

    /// Number of gate ops in the schedule.
    #[must_use]
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Gates per schedule level, level 0 first (gates fed only by sources).
    /// Multiplying each count by the words evaluated gives per-level
    /// gate-evaluation totals.
    #[must_use]
    pub fn level_gates(&self) -> &[usize] {
        &self.level_gates
    }

    /// Heap bytes held by the compiled schedule itself (ops, fanin and
    /// fanout CSRs, slot tables) — the compile-phase memory footprint
    /// reported in BENCH rows. Per-evaluation scratch words are not
    /// included; they scale with thread count, not circuit size.
    #[must_use]
    pub fn memory_bytes(&self) -> u64 {
        use core::mem::size_of;
        let vec_bytes = [
            self.ops.len() * size_of::<Op>(),
            self.fanins.len() * size_of::<u32>(),
            self.input_slots.len() * size_of::<u32>(),
            self.dff_slots.len() * size_of::<u32>(),
            self.dff_d_slots.len() * size_of::<u32>(),
            self.dff_init.len() * size_of::<bool>(),
            self.const_slots.len() * size_of::<(u32, bool)>(),
            self.output_slots.len() * size_of::<u32>(),
            self.op_of_node.len() * size_of::<u32>(),
            self.level_gates.len() * size_of::<usize>(),
            self.op_levels.len() * size_of::<u32>(),
            self.fanout_start.len() * size_of::<u32>(),
            self.fanout_ops.len() * size_of::<u32>(),
        ];
        vec_bytes.iter().map(|&b| b as u64).sum::<u64>() + size_of::<Self>() as u64
    }

    /// The constant slot carrying `value`.
    pub(crate) fn const_slot(&self, value: bool) -> u32 {
        if value {
            self.one_slot
        } else {
            self.zero_slot
        }
    }

    /// Position of `node` in the flip-flop list, if it is one.
    pub(crate) fn dff_position(&self, node: NodeId) -> Option<usize> {
        let slot = node.index() as u32;
        self.dff_slots.iter().position(|&s| s == slot)
    }

    /// Ops reading `slot` (through the original, unpatched fanins).
    fn readers(&self, slot: usize) -> &[u32] {
        &self.fanout_ops[self.fanout_start[slot] as usize..self.fanout_start[slot + 1] as usize]
    }

    /// Extracts the transitive fanout cone of a fault site set — everything
    /// [`crate::WideEvaluator::eval_cone_w`] needs to re-evaluate only the
    /// ops the fault can perturb, seeded from cached golden slot values.
    ///
    /// Mirrors [`crate::Evaluator::try_install`] site semantics exactly
    /// (first override per site wins; sites the circuit does not have are
    /// ignored): a stem force seeds the node's slot and dirties its readers;
    /// a branch fault on a gate pin makes that gate a cone root (a
    /// conservative superset — the gate re-evaluates even at patterns where
    /// the stuck pin happens to match). Only combinational circuits have
    /// cones: the pair campaign rejects sequential ones before asking.
    #[must_use]
    pub(crate) fn cone_for(&self, overrides: &[Override]) -> FaultCone {
        let mut in_cone = vec![false; self.ops.len()];
        let mut dirty = vec![false; self.num_slots];
        let mut is_seed = vec![false; self.num_slots];
        let mut seed_slots: Vec<u32> = Vec::new();
        let mut root_ops: Vec<u32> = Vec::new();
        let mut fanin_patched: Vec<usize> = Vec::new();
        let mut queue: Vec<u32> = Vec::new();

        for o in overrides {
            match o.site {
                Site::Stem(node) => {
                    let slot = node.index();
                    if slot >= self.num_slots - 2 || is_seed[slot] {
                        continue;
                    }
                    dirty[slot] = true;
                    is_seed[slot] = true;
                    seed_slots.push(slot as u32);
                    queue.extend_from_slice(self.readers(slot));
                }
                Site::Branch { node, pin } => {
                    let op_idx = match self
                        .op_of_node
                        .get(node.index())
                        .copied()
                        .filter(|&i| i != NO_OP)
                    {
                        Some(i) => i as usize,
                        None => continue,
                    };
                    let op = &self.ops[op_idx];
                    if pin >= op.fan_len as usize {
                        continue;
                    }
                    let flat = op.fan_start as usize + pin;
                    if fanin_patched.contains(&flat) {
                        continue;
                    }
                    fanin_patched.push(flat);
                    if !root_ops.contains(&(op_idx as u32)) {
                        root_ops.push(op_idx as u32);
                    }
                    queue.push(op_idx as u32);
                }
            }
        }

        // Transitive fanout propagation.
        while let Some(op_idx) = queue.pop() {
            if in_cone[op_idx as usize] {
                continue;
            }
            in_cone[op_idx as usize] = true;
            let out = self.ops[op_idx as usize].out as usize;
            if !dirty[out] {
                dirty[out] = true;
                queue.extend_from_slice(self.readers(out));
            }
        }

        // Level-ordered cone schedule plus the ordinal tables the evaluator
        // and the extraction readability rule need.
        let mut cone_ops: Vec<u32> = (0..self.ops.len() as u32)
            .filter(|&i| in_cone[i as usize])
            .collect();
        cone_ops.sort_by_key(|&i| (self.op_levels[i as usize], i));
        let levels: Vec<u32> = cone_ops
            .iter()
            .map(|&i| self.op_levels[i as usize])
            .collect();
        let mut ordinal_of_slot = vec![CONE_NONE; self.num_slots];
        let mut ordinal_of_op = vec![CONE_NONE; self.ops.len()];
        for (j, &i) in cone_ops.iter().enumerate() {
            ordinal_of_slot[self.ops[i as usize].out as usize] = j as u32;
            ordinal_of_op[i as usize] = j as u32;
        }
        let mut roots: Vec<u32> = root_ops
            .iter()
            .map(|&i| ordinal_of_op[i as usize])
            .collect();
        roots.sort_unstable();
        let mut slot_last_read = vec![CONE_NONE; self.num_slots];
        for (j, &i) in cone_ops.iter().enumerate() {
            let op = &self.ops[i as usize];
            for k in 0..op.fan_len as usize {
                // Ascending ordinals, so the final write is the max reader.
                slot_last_read[self.fanins[op.fan_start as usize + k] as usize] = j as u32;
            }
        }
        let op_last_read: Vec<u32> = cone_ops
            .iter()
            .map(|&i| slot_last_read[self.ops[i as usize].out as usize])
            .collect();
        let seeds: Vec<(u32, u32)> = seed_slots
            .iter()
            .map(|&s| (s, slot_last_read[s as usize]))
            .collect();

        let mut support = Vec::new();
        let mut seen = vec![false; self.num_slots];
        for &i in &cone_ops {
            let op = &self.ops[i as usize];
            for k in 0..op.fan_len as usize {
                let f = self.fanins[op.fan_start as usize + k] as usize;
                if !seen[f] {
                    seen[f] = true;
                    if !dirty[f] {
                        support.push(f as u32);
                    }
                }
            }
        }

        let produced_ordinal = |slot: usize| {
            if is_seed[slot] {
                CONE_SEED
            } else {
                ordinal_of_slot[slot]
            }
        };
        let outputs: Vec<(u32, u32)> = self
            .output_slots
            .iter()
            .enumerate()
            .filter(|&(_, &s)| dirty[s as usize])
            .map(|(k, &s)| (k as u32, produced_ordinal(s as usize)))
            .collect();
        FaultCone {
            ops: cone_ops,
            levels,
            op_last_read,
            roots,
            seeds,
            support,
            outputs,
        }
    }
}

/// The transitive fanout cone of one fault site set, precomputed so a
/// campaign can evaluate only the ops the fault can perturb.
///
/// Produced by [`CompiledCircuit::cone_for`]; consumed by
/// [`crate::WideEvaluator::eval_cone_w`] in the cone-mode pair campaign.
/// All ordinals index into [`FaultCone::ops`].
#[derive(Debug, Clone)]
pub(crate) struct FaultCone {
    /// Op indices in the cone, sorted by (schedule level, op index).
    pub(crate) ops: Vec<u32>,
    /// Schedule level of each cone op (parallel to `ops`).
    pub(crate) levels: Vec<u32>,
    /// Last cone ordinal reading each cone op's output (original fanins),
    /// or [`CONE_NONE`] — the liveness horizon for the frontier-death exit.
    pub(crate) op_last_read: Vec<u32>,
    /// Cone ordinals of fault-rooted ops (gates with a patched branch pin).
    /// They inject dirtiness at their own ordinal rather than through a
    /// seed, so the evaluator pre-charges their liveness.
    pub(crate) roots: Vec<u32>,
    /// Seed slots the evaluator sets itself (stem forces), paired with their
    /// last reading cone ordinal or [`CONE_NONE`].
    pub(crate) seeds: Vec<(u32, u32)>,
    /// Distinct slots cone ops read that are neither produced in-cone nor
    /// seeded — loaded from the golden slot values before each cone run.
    pub(crate) support: Vec<u32>,
    /// Reachable primary outputs as `(output index, producing cone ordinal
    /// or CONE_SEED)`; outputs not listed are provably golden.
    pub(crate) outputs: Vec<(u32, u32)>,
}

/// One per-lane branch-fault injection of a packed fault batch.
///
/// [`crate::WideEvaluator::eval_packed_w`] materializes auxiliary slot
/// `slot` as `(slots[orig] & !mask) | (value & mask)` immediately before
/// schedule position `op` (the consuming gate), so the faulted lanes read
/// the stuck value while every other lane reads the original source word.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AuxInject<const W: usize> {
    /// Schedule position of the consuming op.
    pub(crate) op: u32,
    /// Auxiliary slot written (at or past the compiled slot range).
    pub(crate) slot: u32,
    /// Original source slot of the faulted pin.
    pub(crate) orig: u32,
    /// Lane mask of the faulting lanes.
    pub(crate) mask: Word<W>,
    /// Forced value word, meaningful under `mask`.
    pub(crate) value: Word<W>,
}

/// Per-lane injection plan for one packed fault batch: how a slice of
/// faults maps onto the fault lanes of a wide evaluator word (lane 0 of
/// every sub-word stays golden).
///
/// Two lane geometries exist:
///
/// - [`LanePlan::build_spread`] *spreads* up to `63 × W` distinct faults
///   across the sub-words — fault `i` occupies bit `1 + (i % 63)` of
///   sub-word `i / 63`. Used by the packed sequential backend, where the
///   flip-flop state is temporal and every sub-word must carry its own
///   faults.
/// - [`LanePlan::build_broadcast`] *broadcasts* up to 63 faults to the same
///   bit lane of **every** sub-word — fault `i` occupies bit `i + 1` in all
///   sub-words. Used by the combinational fault-packed pair path, where
///   each sub-word then carries a different input pattern, evaluating
///   `63 faults × W patterns` per sweep.
///
/// Mirrors [`crate::Evaluator::try_install`] site semantics *per lane*:
/// within one fault the first override for a site wins, and sites the
/// circuit does not have are ignored. Different lanes faulting the same
/// site merge into one masked entry.
#[derive(Debug)]
pub(crate) struct LanePlan<const W: usize> {
    /// Masked stem forces `(slot, lane mask, value word)`.
    pub(crate) stems: Vec<(u32, Word<W>, Word<W>)>,
    /// Masked D-input forces `(dff index, lane mask, value word)`, blended
    /// over the latched word at the end of every period.
    pub(crate) dff_forces: Vec<(u32, Word<W>, Word<W>)>,
    /// Branch injections, sorted by consuming-op schedule position.
    pub(crate) aux: Vec<AuxInject<W>>,
    /// Fanin redirections `(flat index, aux slot)` wiring each faulted pin
    /// to its auxiliary landing pad.
    pub(crate) fanin_patches: Vec<(u32, u32)>,
}

impl<const W: usize> Default for LanePlan<W> {
    fn default() -> Self {
        LanePlan {
            stems: Vec::new(),
            dff_forces: Vec::new(),
            aux: Vec::new(),
            fanin_patches: Vec::new(),
        }
    }
}

impl<const W: usize> LanePlan<W> {
    /// Builds the spread-geometry plan: at most `63 × W` override sets,
    /// fault `i` occupying bit `1 + (i % 63)` of sub-word `i / 63`.
    ///
    /// # Panics
    ///
    /// Panics if more than `63 × W` faults are given.
    pub(crate) fn build_spread(compiled: &CompiledCircuit, faults: &[&[Override]]) -> LanePlan<W> {
        assert!(
            faults.len() <= 63 * W,
            "a spread lane plan packs at most {} faults",
            63 * W
        );
        Self::build_with(compiled, faults, |i| {
            let mut lane = Word::ZERO;
            lane.set_sub(i / 63, 1u64 << (1 + i % 63));
            lane
        })
    }

    /// Builds the broadcast-geometry plan: at most 63 override sets, fault
    /// `i` occupying bit `i + 1` of **every** sub-word (each sub-word then
    /// carries a distinct input pattern).
    ///
    /// # Panics
    ///
    /// Panics if more than 63 faults are given.
    pub(crate) fn build_broadcast(
        compiled: &CompiledCircuit,
        faults: &[&[Override]],
    ) -> LanePlan<W> {
        assert!(
            faults.len() <= 63,
            "a broadcast lane plan packs at most 63 faults"
        );
        Self::build_with(compiled, faults, |i| Word::splat(1u64 << (i + 1)))
    }

    /// The shared plan builder: `lane_of(i)` yields fault `i`'s wide lane
    /// mask (exactly the geometry difference between the constructors).
    fn build_with(
        compiled: &CompiledCircuit,
        faults: &[&[Override]],
        lane_of: impl Fn(usize) -> Word<W>,
    ) -> LanePlan<W> {
        let mut plan = LanePlan::default();
        // flat pin index -> (consuming op, lane mask, value word).
        let mut branches: std::collections::BTreeMap<u32, (u32, Word<W>, Word<W>)> =
            std::collections::BTreeMap::new();
        // dff index -> (lane mask, value word).
        let mut dffs: std::collections::BTreeMap<u32, (Word<W>, Word<W>)> =
            std::collections::BTreeMap::new();
        // Claimed-site scratch, reused across faults: each set is tiny (one
        // entry per override of one fault), so linear scans beat hashing and
        // reusing the buffers keeps the per-fault loop allocation-free.
        let mut stem_claimed: Vec<usize> = Vec::new();
        let mut dff_claimed: Vec<usize> = Vec::new();
        let mut flat_claimed: Vec<usize> = Vec::new();
        for (i, ovs) in faults.iter().enumerate() {
            let lane = lane_of(i);
            stem_claimed.clear();
            dff_claimed.clear();
            flat_claimed.clear();
            for o in ovs.iter() {
                match o.site {
                    Site::Stem(node) => {
                        let slot = node.index();
                        if slot >= compiled.num_slots - 2 || stem_claimed.contains(&slot) {
                            continue; // unknown node, or an earlier override won
                        }
                        stem_claimed.push(slot);
                        plan.stems.push((
                            slot as u32,
                            lane,
                            if o.value { lane } else { Word::ZERO },
                        ));
                    }
                    Site::Branch { node, pin } => {
                        if let Some(d) = compiled.dff_position(node) {
                            if pin == 0 && !dff_claimed.contains(&d) {
                                dff_claimed.push(d);
                                let e = dffs.entry(d as u32).or_insert((Word::ZERO, Word::ZERO));
                                e.0 |= lane;
                                if o.value {
                                    e.1 |= lane;
                                }
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
                        if flat_claimed.contains(&flat) {
                            continue;
                        }
                        flat_claimed.push(flat);
                        let e = branches.entry(flat as u32).or_insert((
                            op_idx as u32,
                            Word::ZERO,
                            Word::ZERO,
                        ));
                        e.1 |= lane;
                        if o.value {
                            e.2 |= lane;
                        }
                    }
                }
            }
        }
        // Assign auxiliary slots in consuming-op schedule order so the
        // packed sweep applies each injection with a single forward cursor.
        let mut entries: Vec<(u32, u32, Word<W>, Word<W>)> = branches
            .into_iter()
            .map(|(flat, (op, mask, value))| (op, flat, mask, value))
            .collect();
        entries.sort_unstable_by_key(|&(op, flat, _, _)| (op, flat));
        for (k, (op, flat, mask, value)) in entries.into_iter().enumerate() {
            let slot = (compiled.num_slots + k) as u32;
            plan.aux.push(AuxInject {
                op,
                slot,
                orig: compiled.fanins[flat as usize],
                mask,
                value,
            });
            plan.fanin_patches.push((flat, slot));
        }
        plan.dff_forces = dffs.into_iter().map(|(d, (m, v))| (d, m, v)).collect();
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scal_netlist::Circuit;

    #[test]
    fn compiles_gates_in_topo_order() {
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let g = c.and(&[a, b]);
        let h = c.or(&[g, a]);
        c.mark_output("f", h);
        let cc = CompiledCircuit::compile(&c);
        assert_eq!(cc.num_ops(), 2);
        assert_eq!(cc.num_inputs(), 2);
        assert_eq!(cc.num_outputs(), 1);
        assert!(!cc.is_sequential());
        // g must be scheduled before h.
        let pos_g = cc.ops.iter().position(|o| o.out == g.index() as u32);
        let pos_h = cc.ops.iter().position(|o| o.out == h.index() as u32);
        assert!(pos_g < pos_h);
        // g is fed only by inputs (level 0); h depends on g (level 1).
        assert_eq!(cc.level_gates(), &[1, 1]);
    }

    #[test]
    fn level_counts_follow_gate_depth() {
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let g1 = c.and(&[a, b]);
        let g2 = c.or(&[a, b]);
        let g3 = c.xor(&[g1, g2]);
        let g4 = c.not(g3);
        c.mark_output("f", g4);
        let (cc, spans) = CompiledCircuit::try_compile_timed(&c).unwrap();
        assert_eq!(cc.level_gates(), &[2, 1, 1]);
        assert_eq!(cc.level_gates().iter().sum::<usize>(), cc.num_ops());
        // Stage timings exist (may be zero on a fast machine, never huge).
        assert!(spans.levelize_micros < 10_000_000);
        assert!(spans.pack_micros < 10_000_000);
    }

    #[test]
    fn records_dff_layout() {
        let mut c = Circuit::new();
        let ff = c.dff(true);
        let nq = c.not(ff);
        c.connect_dff(ff, nq);
        c.mark_output("q", ff);
        let cc = CompiledCircuit::compile(&c);
        assert!(cc.is_sequential());
        assert_eq!(cc.dff_init, vec![true]);
        assert_eq!(cc.dff_d_slots, vec![nq.index() as u32]);
        assert_eq!(cc.dff_position(ff), Some(0));
    }

    #[test]
    #[should_panic(expected = "must validate")]
    fn rejects_invalid_circuits() {
        let mut c = Circuit::new();
        let _ = c.dff(false); // never connected
        let _ = CompiledCircuit::compile(&c);
    }

    #[test]
    fn try_compile_reports_invalid_circuits() {
        let mut c = Circuit::new();
        let _ = c.dff(false); // never connected
        match CompiledCircuit::try_compile(&c) {
            Err(EngineError::InvalidCircuit(_)) => {}
            other => panic!("expected InvalidCircuit, got {other:?}"),
        }
    }
}
