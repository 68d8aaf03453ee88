//! # scal-engine — the fault-campaign simulation engine
//!
//! Everything upstream of this crate (faults, exhaustive analysis, sequential
//! campaigns, benches) ultimately asks one question many times over: *what do
//! the outputs of this circuit do under this stuck line?* The seed answered
//! it by walking the [`scal_netlist::Circuit`] graph afresh on every
//! evaluation — re-deriving the topological order, allocating value vectors,
//! and linearly scanning the override list at every node. This crate replaces
//! that with a compile-once / evaluate-many pipeline:
//!
//! 1. **Compile** ([`CompiledCircuit`]): the circuit is levelized once into a
//!    flat array of gate ops over dense value *slots* (one per node, plus two
//!    constant slots). No graph chasing and no allocation happen after this
//!    point.
//! 2. **Pack** ([`Evaluator`]): evaluation is 64-lane bit-parallel — each
//!    `u64` word carries 64 independent patterns. The alternating-pair
//!    campaign evaluates 64 pairs per sweep and classifies them with
//!    word-wide XOR/AND masks instead of per-lane branching. Fault overrides
//!    are installed as dense slot forces and fanin patches, not searched per
//!    node.
//! 3. **Drive** ([`drive`]): every campaign — the pair campaign
//!    ([`try_run_pair_campaign`]), the packed sequential campaign, the CPU
//!    datapath campaign, and the scalar pair and graph sequential oracles —
//!    is a [`Kernel`] under one campaign driver. Each campaign collapses its
//!    fault list into equivalence classes ([`collapse_overrides`]) and
//!    picks its word width from the size of its workload
//!    ([`word_width_for`]); the driver emits the event preamble and
//!    phases, fans units of representatives out over a scoped worker pool ([`par_map_cancellable`], `std::thread::scope`, no
//!    external dependencies), and merges the verdicts back in fault order,
//!    expanded over every class, as the longest completed prefix when
//!    cancelled; the per-fault [`VerdictTable`] it returns is what coverage
//!    maps are gathered from. [`EngineConfig::drop_after_detection`]
//!    optionally stops simulating a fault once it is proven tested; the
//!    default *exact* mode preserves the full per-pair accounting of the
//!    scalar reference implementation bit for bit.
//! 4. **Report** ([`EngineStats`]): compile / golden / fault-simulation wall
//!    times, words evaluated, pairs simulated and faults dropped, surfaced by
//!    `scal-bench`.
//!
//! Pattern-major faulty sweeps run *cone-restricted* ([`EvalMode::Cone`]):
//! per fault only its fanout cone runs, seeded from cached golden slot
//! values, classified over the reachable outputs, with an early exit once
//! the faulty frontier converges back to golden. A fault whose cone proves
//! too wide sweeps its later groups over the whole schedule, and a campaign
//! that packs faults or whose golden cache would not fit runs
//! [`EvalMode::Full`]. The engine makes and reports each choice; all are
//! bit-identical in everything but speed. Sequential campaigns pack up to
//! `63 × W` faults into the lanes of one wide word ([`WidePackedSeqSim`]):
//! lane 0 of every 64-bit sub-word replays the golden machine, every other
//! lane one fault (masked per-lane stem forces, auxiliary branch slots,
//! masked D-latch blends), so a whole batch replays the driven sequence in
//! a single pass over the schedule per period.
//!
//! The entry points ([`try_run_pair_campaign`],
//! [`CompiledCircuit::try_compile`], [`Evaluator::try_eval`]) return
//! [`EngineError`] instead of panicking. A campaign threads a
//! [`scal_obs::CampaignObserver`] through every phase of a run (spans,
//! per-fault events, live progress) and honors a [`scal_obs::CancelToken`]
//! at unit and batch boundaries, returning a deterministic fault-ordered
//! prefix on cancellation — see [`PairCampaign`].
//!
//! The crate speaks the netlist vocabulary ([`scal_netlist::Override`] /
//! [`scal_netlist::Site`]); `scal-faults` layers fault bookkeeping on top and
//! keeps its original scalar simulation as a differential oracle, run as a
//! kernel of its own under the same driver.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
mod collapse;
mod compile;
mod driver;
mod error;
mod eval;
mod pairs;
mod pool;
mod sim;
mod tables;
mod word;

pub use campaign::{
    try_run_pair_campaign, EngineConfig, EngineStats, EvalMode, PairCampaign, PairReport, Toggle,
    MAX_THREADS,
};
pub use collapse::{collapse_overrides, representatives, CollapseCounts, CollapsedFaultList};
pub use compile::{CompileSpans, CompiledCircuit};
pub use driver::{
    check_threads, drive, duration_micros, Driven, FaultSummary, Kernel, Setup, Unit, UnitResult,
    VerdictTable,
};
pub use error::EngineError;
pub use eval::{Evaluator, WideEvaluator};
pub use pairs::PairSet;
pub use pool::{effective_threads, par_map, par_map_cancellable};
pub use sim::{WidePackedBatchPlan, WidePackedSeqSim};
pub use tables::{all_node_tables, node_table, output_tables};
pub use word::{word_width_for, Word, WORD_WIDTHS};
