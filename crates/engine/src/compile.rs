//! Compilation of a [`Circuit`] into a flat, levelized evaluation schedule,
//! plus the per-fault fanout-cone extraction behind cone-restricted
//! evaluation ([`ConeBuilder`]).

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
    /// Gate ops in level order: ascending level, topological order within
    /// a level (so also a topological order).
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
    /// Schedule level of each op (parallel to `ops`, non-decreasing).
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

        // Levelize: record each gate's level (longest gate-only path from a
        // source) in topological order, then lay the ops out level by level
        // — a stable counting sort of the topological order by level, so op
        // index order is `(level, topological index)` order. Every fanin of
        // a gate sits at a lower level, so this is a topological order too,
        // and a cone is level-ordered by sorting its op indices alone.
        let t = Instant::now();
        let mut node_level = vec![0u32; n];
        let mut level_gates = Vec::new();
        let mut gates = Vec::new();
        let mut fanin_count = 0usize;
        for id in circuit.topo_order() {
            if let NodeView::Gate(kind) = circuit.view(id) {
                let mut level = 0;
                for f in circuit.fanins(id) {
                    if matches!(circuit.view(*f), NodeView::Gate(_)) {
                        level = level.max(node_level[f.index()] + 1);
                    }
                }
                node_level[id.index()] = level;
                if level_gates.len() <= level as usize {
                    level_gates.resize(level as usize + 1, 0);
                }
                level_gates[level as usize] += 1;
                fanin_count += circuit.fanins(id).len();
                gates.push((id, kind));
            }
        }
        u32::try_from(fanin_count).map_err(|_| EngineError::TooLarge { count: fanin_count })?;
        let mut next_at_level: Vec<usize> = level_gates
            .iter()
            .scan(0, |start, &count| {
                let here = *start;
                *start += count;
                Some(here)
            })
            .collect();
        let mut order = vec![0u32; gates.len()];
        for (topo, &(id, _)) in gates.iter().enumerate() {
            let slot = &mut next_at_level[node_level[id.index()] as usize];
            order[*slot] = topo as u32;
            *slot += 1;
        }
        let mut ops = Vec::with_capacity(gates.len());
        let mut fanins = Vec::with_capacity(fanin_count);
        let mut op_of_node = vec![NO_OP; n];
        let mut op_levels = Vec::with_capacity(gates.len());
        for &topo in &order {
            let (id, kind) = gates[topo as usize];
            let fan = circuit.fanins(id);
            op_of_node[id.index()] = ops.len() as u32;
            op_levels.push(node_level[id.index()]);
            ops.push(Op {
                kind,
                out: id.index() as u32,
                fan_start: fanins.len() as u32,
                fan_len: fan.len() as u32,
            });
            fanins.extend(fan.iter().map(|f| f.index() as u32));
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
}

/// The transitive fanout cone of one fault site set, precomputed so a
/// campaign can evaluate only the ops the fault can perturb.
///
/// Produced by [`ConeBuilder::build`]; consumed by
/// [`crate::WideEvaluator::eval_cone_w`] in the cone-mode pair campaign.
/// All ordinals index into [`FaultCone::ops`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct FaultCone {
    /// Op indices in the cone, ascending — level order, since the schedule
    /// is level-ordered.
    pub(crate) ops: Vec<u32>,
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

/// Reusable scratch that extracts [`FaultCone`]s one fault site set after
/// another — everything [`crate::WideEvaluator::eval_cone_w`] needs to
/// re-evaluate only the ops a fault can perturb, seeded from cached golden
/// slot values.
///
/// The dense per-op and per-slot tables are sized once for the whole
/// schedule, and the marking ones stay in their cleared state between
/// builds: a build marks only the entries its cone touches and resets
/// exactly those before it returns. One cone therefore costs O(cone ops
/// and their fanins, plus the output list), not O(ops + slots), and every
/// buffer — the cone's own lists included — is reused, so a worker builds
/// cones without heap allocation once its buffers have grown.
#[derive(Debug)]
pub(crate) struct ConeBuilder {
    /// Per op: already in the cone.
    in_cone: Vec<bool>,
    /// Per slot: may differ from golden (a seed or a cone op's output).
    dirty: Vec<bool>,
    /// Per slot: cone ordinal of the op producing it. A build reads it only
    /// at its own cone ops' outputs, after writing them, so stale entries
    /// from earlier builds are harmless and it is never reset.
    ordinal_of_slot: Vec<u32>,
    /// Per slot: last cone ordinal reading it, or [`CONE_NONE`] (which also
    /// marks a slot not yet considered for the support list).
    slot_last_read: Vec<u32>,
    /// Stem-forced slots, in override order (first override per site wins).
    seed_slots: Vec<u32>,
    /// Ops with a patched branch pin.
    root_ops: Vec<u32>,
    /// Flat fanin indices already patched (first override per pin wins).
    fanin_patched: Vec<usize>,
    /// Propagation work list.
    queue: Vec<u32>,
    /// The last cone built.
    cone: FaultCone,
}

impl ConeBuilder {
    /// Empty scratch sized for `compiled`'s schedule.
    pub(crate) fn new(compiled: &CompiledCircuit) -> Self {
        ConeBuilder {
            in_cone: vec![false; compiled.ops.len()],
            dirty: vec![false; compiled.num_slots],
            ordinal_of_slot: vec![CONE_NONE; compiled.num_slots],
            slot_last_read: vec![CONE_NONE; compiled.num_slots],
            seed_slots: Vec::new(),
            root_ops: Vec::new(),
            fanin_patched: Vec::new(),
            queue: Vec::new(),
            cone: FaultCone::default(),
        }
    }

    /// The last cone [`ConeBuilder::build`] produced (empty before the
    /// first build).
    pub(crate) fn cone(&self) -> &FaultCone {
        &self.cone
    }

    /// Extracts the transitive fanout cone of a fault site set into the
    /// scratch's cone, replacing the previous one. `compiled` must be the
    /// circuit the scratch was sized for.
    ///
    /// Mirrors [`crate::Evaluator::try_install`] site semantics exactly
    /// (first override per site wins; sites the circuit does not have are
    /// ignored): a stem force seeds the node's slot and dirties its readers;
    /// a branch fault on a gate pin makes that gate a cone root (a
    /// conservative superset — the gate re-evaluates even at patterns where
    /// the stuck pin happens to match). Override values play no part: the
    /// cone depends on the sites alone. Only combinational circuits have
    /// cones: the pair campaign rejects sequential ones before asking.
    pub(crate) fn build(
        &mut self,
        compiled: &CompiledCircuit,
        overrides: &[Override],
    ) -> &FaultCone {
        let ConeBuilder {
            in_cone,
            dirty,
            ordinal_of_slot,
            slot_last_read,
            seed_slots,
            root_ops,
            fanin_patched,
            queue,
            cone,
        } = self;
        cone.clear();
        for o in overrides {
            match o.site {
                Site::Stem(node) => {
                    let slot = node.index();
                    if slot >= compiled.num_slots - 2 || seed_slots.contains(&(slot as u32)) {
                        continue;
                    }
                    dirty[slot] = true;
                    seed_slots.push(slot as u32);
                    queue.extend_from_slice(compiled.readers(slot));
                }
                Site::Branch { node, pin } => {
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
            cone.ops.push(op_idx);
            let out = compiled.ops[op_idx as usize].out as usize;
            if !dirty[out] {
                dirty[out] = true;
                queue.extend_from_slice(compiled.readers(out));
            }
        }

        // Level-ordered cone schedule (the schedule itself is level-ordered)
        // plus the ordinal tables the evaluator and the extraction
        // readability rule need.
        cone.ops.sort_unstable();
        for (j, &i) in cone.ops.iter().enumerate() {
            ordinal_of_slot[compiled.ops[i as usize].out as usize] = j as u32;
        }
        cone.roots.extend(
            root_ops
                .iter()
                .map(|&i| ordinal_of_slot[compiled.ops[i as usize].out as usize]),
        );
        cone.roots.sort_unstable();
        for (j, &i) in cone.ops.iter().enumerate() {
            let op = &compiled.ops[i as usize];
            for &f in &compiled.fanins[op.fan_start as usize..(op.fan_start + op.fan_len) as usize]
            {
                let f = f as usize;
                // First read of `f`: a support slot unless the cone itself
                // produces or seeds it.
                if slot_last_read[f] == CONE_NONE && !dirty[f] {
                    cone.support.push(f as u32);
                }
                // Ascending ordinals, so the final write is the max reader.
                slot_last_read[f] = j as u32;
            }
        }
        cone.op_last_read.extend(
            cone.ops
                .iter()
                .map(|&i| slot_last_read[compiled.ops[i as usize].out as usize]),
        );
        cone.seeds
            .extend(seed_slots.iter().map(|&s| (s, slot_last_read[s as usize])));
        cone.outputs.extend(
            compiled
                .output_slots
                .iter()
                .enumerate()
                .filter(|&(_, &s)| dirty[s as usize])
                .map(|(k, &s)| {
                    let ordinal = if seed_slots.contains(&s) {
                        CONE_SEED
                    } else {
                        ordinal_of_slot[s as usize]
                    };
                    (k as u32, ordinal)
                }),
        );

        // Reset exactly the entries this build touched: the seeds, every
        // cone op, its output slot and its fanin slots.
        for &s in seed_slots.iter() {
            dirty[s as usize] = false;
        }
        for &i in &cone.ops {
            in_cone[i as usize] = false;
            let op = &compiled.ops[i as usize];
            dirty[op.out as usize] = false;
            for &f in &compiled.fanins[op.fan_start as usize..(op.fan_start + op.fan_len) as usize]
            {
                slot_last_read[f as usize] = CONE_NONE;
            }
        }
        seed_slots.clear();
        root_ops.clear();
        fanin_patched.clear();
        cone
    }
}

impl FaultCone {
    /// Empties every list, keeping the buffers.
    fn clear(&mut self) {
        self.ops.clear();
        self.op_last_read.clear();
        self.roots.clear();
        self.seeds.clear();
        self.support.clear();
        self.outputs.clear();
    }
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
    use proptest::prelude::*;
    use scal_netlist::synth::random_selfdual;
    use scal_netlist::Circuit;

    /// A cone built through a scratch that has never built one before.
    fn fresh_cone(cc: &CompiledCircuit, overrides: &[Override]) -> FaultCone {
        ConeBuilder::new(cc).build(cc, overrides).clone()
    }

    /// Every stem and branch fault of `c`, both values, plus sites `c`
    /// lacks: a pin one past each gate's last, and stems and branches on
    /// node indices past the end (the first two land on the constant
    /// slots).
    fn candidate_faults(c: &Circuit) -> Vec<Override> {
        let mut bigger = Circuit::new();
        let beyond: Vec<NodeId> = (0..c.len() + 3)
            .map(|i| bigger.input(format!("x{i}")))
            .collect();
        let mut out = Vec::new();
        for value in [false, true] {
            for id in c.node_ids() {
                out.push(Override {
                    site: Site::Stem(id),
                    value,
                });
                for pin in 0..=c.fanins(id).len() {
                    out.push(Override {
                        site: Site::Branch { node: id, pin },
                        value,
                    });
                }
            }
            for &node in &beyond[c.len()..] {
                out.push(Override {
                    site: Site::Stem(node),
                    value,
                });
                out.push(Override {
                    site: Site::Branch { node, pin: 0 },
                    value,
                });
            }
        }
        out
    }

    /// Builds every override set in `order` through one scratch and checks
    /// each cone against a fresh build, field by field.
    fn assert_reuse_matches_fresh(cc: &CompiledCircuit, order: &[Vec<Override>]) {
        let mut scratch = ConeBuilder::new(cc);
        for (step, ovs) in order.iter().enumerate() {
            let reused = scratch.build(cc, ovs).clone();
            let fresh = fresh_cone(cc, ovs);
            assert_eq!(reused.ops, fresh.ops, "ops at step {step} {ovs:?}");
            assert_eq!(
                reused.op_last_read, fresh.op_last_read,
                "op_last_read at step {step}"
            );
            assert_eq!(reused.roots, fresh.roots, "roots at step {step}");
            assert_eq!(reused.seeds, fresh.seeds, "seeds at step {step}");
            assert_eq!(reused.support, fresh.support, "support at step {step}");
            assert_eq!(reused.outputs, fresh.outputs, "outputs at step {step}");
        }
    }

    #[test]
    fn cone_of_a_small_circuit() {
        // g = a & b; h = g | a; outputs f = h, k = g.
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let g = c.and(&[a, b]);
        let h = c.or(&[g, a]);
        c.mark_output("f", h);
        c.mark_output("k", g);
        let cc = CompiledCircuit::compile(&c);
        let (op_g, op_h) = (cc.op_of_node[g.index()], cc.op_of_node[h.index()]);
        let (sa, sb, sg) = (a.index() as u32, b.index() as u32, g.index() as u32);
        let stem = |node| Override {
            site: Site::Stem(node),
            value: false,
        };
        // Stem on `a`: both gates, seeded from a; `b` is the only support.
        let cone = fresh_cone(&cc, &[stem(a)]);
        assert_eq!(cone.ops, vec![op_g, op_h]);
        assert_eq!(cc.op_levels, vec![0, 1]);
        assert_eq!(cone.op_last_read, vec![1, CONE_NONE]);
        assert!(cone.roots.is_empty());
        assert_eq!(cone.seeds, vec![(sa, 1)]);
        assert_eq!(cone.support, vec![sb]);
        assert_eq!(cone.outputs, vec![(0, 1), (1, 0)]);
        // Branch on h's pin 0 (the g fanin): h alone, rooted; g and a are
        // support.
        let cone = fresh_cone(
            &cc,
            &[Override {
                site: Site::Branch { node: h, pin: 0 },
                value: true,
            }],
        );
        assert_eq!(cone.ops, vec![op_h]);
        assert_eq!(cone.roots, vec![0]);
        assert!(cone.seeds.is_empty());
        assert_eq!(cone.support, vec![sg, sa]);
        assert_eq!(cone.outputs, vec![(0, 0)]);
        // Stem on output g: the seed itself is the reachable output `k`.
        let cone = fresh_cone(&cc, &[stem(g)]);
        assert_eq!(cone.ops, vec![op_h]);
        assert_eq!(cone.seeds, vec![(sg, 0)]);
        assert_eq!(cone.outputs, vec![(0, 0), (1, CONE_SEED)]);
    }

    #[test]
    fn reused_scratch_matches_fresh_builds() {
        let c = random_selfdual(6, 40, 3);
        let cc = CompiledCircuit::compile(&c);
        let singles: Vec<Vec<Override>> =
            candidate_faults(&c).into_iter().map(|o| vec![o]).collect();
        // Forward, then backward: every cone follows one of a different
        // shape, and the turn repeats a site.
        let mut order = singles.clone();
        order.extend(singles.iter().rev().cloned());
        // Multi-site sets: a stem and a branch together, a repeated site.
        order.push(vec![singles[0][0], singles[7][0]]);
        order.push(vec![singles[9][0], singles[9][0], singles[2][0]]);
        assert_reuse_matches_fresh(&cc, &order);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Cones built one after another through one scratch, in a random
        /// order of random one- to three-fault site sets (stems, branches,
        /// repeated sites and sites the circuit lacks), equal fresh builds.
        #[test]
        fn reused_scratch_matches_fresh_builds_on_random_networks(
            seed in any::<u64>(),
            inputs in 3usize..8,
            core_gates in 8usize..48,
            picks in prop::collection::vec(prop::collection::vec(any::<u64>(), 1..4), 1..64),
        ) {
            let c = random_selfdual(inputs, core_gates, seed);
            let cc = CompiledCircuit::compile(&c);
            let candidates = candidate_faults(&c);
            let order: Vec<Vec<Override>> = picks
                .iter()
                .map(|set| set.iter().map(|&i| candidates[i as usize % candidates.len()]).collect())
                .collect();
            assert_reuse_matches_fresh(&cc, &order);
        }

        /// The schedule is level-ordered and topological: levels never
        /// decrease, and every fanin of op `i` is a source or the output of
        /// an op before `i`.
        #[test]
        fn schedule_is_level_ordered_and_topological(
            seed in any::<u64>(),
            inputs in 3usize..8,
            core_gates in 8usize..64,
        ) {
            let c = random_selfdual(inputs, core_gates, seed);
            let cc = CompiledCircuit::compile(&c);
            prop_assert!(cc.op_levels.windows(2).all(|w| w[0] <= w[1]));
            let counted: Vec<usize> = cc.level_gates().iter().enumerate().map(|(l, _)| {
                cc.op_levels.iter().filter(|&&x| x as usize == l).count()
            }).collect();
            prop_assert_eq!(counted.as_slice(), cc.level_gates());
            for (i, op) in cc.ops.iter().enumerate() {
                prop_assert_eq!(cc.op_of_node[op.out as usize], i as u32);
                for &f in &cc.fanins[op.fan_start as usize..(op.fan_start + op.fan_len) as usize] {
                    let producer = cc.op_of_node.get(f as usize).copied().unwrap_or(NO_OP);
                    prop_assert!(producer == NO_OP || (producer as usize) < i);
                }
            }
        }

        /// A cone's op order — plain ascending op index — is the
        /// `(level, topological index)` order of its gates.
        #[test]
        fn cone_order_is_level_then_topological_order(
            seed in any::<u64>(),
            inputs in 3usize..8,
            core_gates in 8usize..64,
        ) {
            let c = random_selfdual(inputs, core_gates, seed);
            let cc = CompiledCircuit::compile(&c);
            let mut topo_index = vec![usize::MAX; c.len()];
            for (i, id) in c.topo_order().into_iter().enumerate() {
                topo_index[id.index()] = i;
            }
            let mut scratch = ConeBuilder::new(&cc);
            for fault in candidate_faults(&c) {
                let cone = scratch.build(&cc, &[fault]);
                let key = |&op: &u32| {
                    (cc.op_levels[op as usize], topo_index[cc.ops[op as usize].out as usize])
                };
                let mut by_key = cone.ops.clone();
                by_key.sort_by_key(key);
                prop_assert_eq!(&cone.ops, &by_key);
            }
        }
    }

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
