//! The typed event vocabulary campaigns emit.

use crate::json::JsonObject;

/// A campaign phase, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Circuit compilation into the flat schedule.
    Compile,
    /// Fault-free (golden) sweep and alternation check.
    Golden,
    /// Per-fault simulation across the worker pool.
    FaultSim,
    /// Deterministic aggregation of worker results in fault order.
    Merge,
}

impl Phase {
    /// Stable snake_case name used in traces and metric keys.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::Compile => "compile",
            Phase::Golden => "golden",
            Phase::FaultSim => "fault_sim",
            Phase::Merge => "merge",
        }
    }
}

/// One observable campaign occurrence.
///
/// Durations are carried as integer microseconds (`micros`) so events are
/// `Eq`-comparable and serialize without float noise. Fault indices refer to
/// the caller's fault-list order; `worker` attributes the event to the pool
/// thread that produced it (`0` for the inline single-threaded path).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CampaignEvent {
    /// A campaign began.
    CampaignStart {
        /// Campaign flavour: `"pair"`, `"scalar"`, `"seq"`, `"cpu"`, …
        campaign: &'static str,
        /// Faults queued for simulation.
        faults: usize,
        /// Primary-input count of the circuit under test (0 if not
        /// applicable).
        inputs: usize,
        /// Primary-output count (0 if not applicable).
        outputs: usize,
        /// Worker threads the run will use (1 = inline).
        threads: usize,
    },
    /// Which faulty-sweep evaluation strategy the campaign uses. Emitted
    /// right after [`CampaignEvent::CampaignStart`] by engines that support
    /// mode selection; scalar reference backends do not emit it.
    EvalMode {
        /// Stable lowercase mode name: `"full"` or `"cone"`.
        mode: &'static str,
    },
    /// The lane geometry of the run's packed evaluation words: how the
    /// engine maps patterns and faults onto the `64 × width` bit lanes of
    /// one wide word. Emitted right after [`CampaignEvent::EvalMode`] by
    /// pair campaigns and after [`CampaignEvent::CampaignStart`] by packed
    /// sequential campaigns.
    LaneGeometry {
        /// Word width `W`: 64-lane sub-words per evaluation word (1, 4
        /// or 8).
        width: usize,
        /// Distinct faults packed into the bit lanes of one evaluation word
        /// (0 = one fault per sweep).
        fault_lanes: usize,
        /// Pattern lanes evaluated per sweep (0 = sequential replay; the
        /// lanes carry faults, not patterns).
        pattern_lanes: usize,
        /// Packing scheme: `"pattern"` (pattern-major pair sweep),
        /// `"fault"` (fault-packed pair sweep) or `"seq"` (fault-per-lane
        /// sequential replay).
        packing: &'static str,
    },
    /// A phase began.
    PhaseStart {
        /// Which phase.
        phase: Phase,
    },
    /// A phase completed.
    PhaseEnd {
        /// Which phase.
        phase: Phase,
        /// Wall time of the phase in microseconds.
        micros: u64,
    },
    /// A completed (possibly aggregated) sub-phase span — the engine's
    /// profiler vocabulary. Spans nest under a phase (or another span) by
    /// `parent` name: `levelize` and `pack` under `compile`, `eval_batch`
    /// under `fault_sim`. Aggregated spans carry how many times the span ran
    /// (`count`) and how many work items it processed (`items`: pairs for
    /// `eval_batch`, ops for compile spans).
    Span {
        /// Stable snake_case span name.
        name: &'static str,
        /// Name of the enclosing phase or span.
        parent: &'static str,
        /// Total wall time across all executions, in microseconds. For
        /// worker-parallel spans this is summed *worker* time, which can
        /// exceed the enclosing phase's wall clock.
        micros: u64,
        /// Number of executions aggregated into this span.
        count: u64,
        /// Work items processed (span-specific unit).
        items: u64,
    },
    /// Gate population of one level of the compiled schedule (level 0 =
    /// gates fed only by sources). Emitted once per level after compilation;
    /// multiplying by evaluated words gives per-level gate-evaluation
    /// counts.
    LevelGates {
        /// Level ordinal, from 0.
        level: usize,
        /// Gates scheduled at this level.
        gates: usize,
    },
    /// Summary of the compile-phase fault-collapsing pass: how many faults
    /// the campaign was given, how many structural-equivalence
    /// representatives actually simulate, and how many dominance edges were
    /// found between the collapsed classes (annotation only — dominance is
    /// never used to skip simulation). Emitted once after the compile-phase
    /// spans when collapsing is enabled.
    FaultCollapse {
        /// Original faults queued for the campaign.
        faults: usize,
        /// Equivalence-class representatives that will actually simulate.
        representatives: usize,
        /// Structural dominance edges between distinct collapsed classes.
        dominance_edges: usize,
        /// Wall time of the collapsing pass in microseconds.
        micros: u64,
    },
    /// Class-membership annotation for one fault in a collapsed class of
    /// size > 1, emitted during the merge replay between the fault's
    /// [`CampaignEvent::FaultStart`] and its [`CampaignEvent::FaultFinish`].
    /// The representative's verdict was simulated once and expanded over
    /// every member.
    FaultClass {
        /// Index into the campaign's fault list.
        fault: usize,
        /// Fault-list index of the class representative (equals `fault` for
        /// the representative itself).
        representative: usize,
        /// Total members of the class present in the fault list.
        size: usize,
    },
    /// A fault's sweep began.
    FaultStart {
        /// Index into the campaign's fault list.
        fault: usize,
        /// Worker thread that ran the sweep.
        worker: usize,
    },
    /// One 64-pair batch of a fault's sweep completed.
    BatchDone {
        /// Index into the campaign's fault list.
        fault: usize,
        /// Worker thread that ran the batch.
        worker: usize,
        /// Batch ordinal within the fault's sweep, from 0.
        batch: usize,
        /// Alternating pairs evaluated in the batch.
        pairs: u64,
    },
    /// One fault-per-lane batch of a packed sequential campaign completed:
    /// up to 63 faults replayed the driven word sequence together in the
    /// lanes of one word (lane 0 golden). Emitted before the batch's
    /// per-fault events during the merge replay.
    LaneBatch {
        /// Batch ordinal within the campaign's fault list, from 0.
        batch: usize,
        /// Worker thread that ran the batch.
        worker: usize,
        /// Fault lanes occupied (the golden lane not included).
        lanes: usize,
        /// Driven words replayed before every lane retired (or the sequence
        /// ended).
        words: u64,
        /// Lanes classified (detected or violation) before the drive ended
        /// — retired lanes drop out of the batch's early-exit frontier.
        retired: usize,
    },
    /// A fault's sweep was cut short by fault dropping.
    FaultDropped {
        /// Index into the campaign's fault list.
        fault: usize,
        /// Worker thread that ran the sweep.
        worker: usize,
        /// Batch ordinal at which the sweep stopped.
        batch: usize,
    },
    /// Cone-restricted evaluation statistics for one fault's sweep, emitted
    /// between the fault's `eval_batch` span and its
    /// [`CampaignEvent::FaultFinish`] when the engine runs in cone mode.
    ConeStats {
        /// Index into the campaign's fault list.
        fault: usize,
        /// Worker thread that ran the sweep.
        worker: usize,
        /// Ops in the fault's transitive fanout cone (per sweep).
        cone_ops: u64,
        /// Ops evaluated across the whole sweep, in 64-lane sub-word op
        /// sweeps: the cone's ops (frontier death can stop a batch before
        /// the cone is exhausted), or every schedule op once the fault has
        /// switched to the full schedule.
        ops_evaluated: u64,
        /// Op evaluations a full-schedule sweep would have run but the cone
        /// path skipped (`schedule_ops × words − ops_evaluated`).
        ops_skipped: u64,
        /// Shallowest schedule level at which the faulty frontier converged
        /// back to golden, across all batches (`None` if every batch ran the
        /// cone to completion).
        frontier_died_at_level: Option<u32>,
    },
    /// A fault's sweep completed (possibly dropped early).
    FaultFinish {
        /// Index into the campaign's fault list.
        fault: usize,
        /// Worker thread that ran the sweep.
        worker: usize,
        /// Pairs at which the fault was detected (non-code word).
        detected: usize,
        /// Pairs at which the fault slipped a wrong code word.
        violations: usize,
        /// Whether the fault changed any output at all.
        observable: bool,
        /// Whether fault dropping cut the sweep short.
        dropped: bool,
        /// Pairs evaluated for this fault.
        pairs: u64,
        /// Ordinal of the first detecting pair in sweep order (`None` if the
        /// fault was never detected). Campaigns sweep canonical pairs in
        /// ascending minterm order, so `first_detected + 1` is the
        /// time-to-detection in pairs; sequential and CPU campaigns report
        /// the first detecting word / workload index instead.
        first_detected: Option<u32>,
    },
    /// Live progress tick: `done` of `total` faults finished. Emitted from
    /// worker threads as faults complete; ordering across workers is not
    /// deterministic (counts are monotonic).
    Progress {
        /// Faults finished so far.
        done: usize,
        /// Faults queued in total.
        total: usize,
    },
    /// The campaign was cancelled; `completed` leading faults survive as the
    /// deterministic fault-ordered prefix.
    Cancelled {
        /// Length of the surviving fault-ordered prefix.
        completed: usize,
    },
    /// The campaign finished (normally or via cancellation).
    CampaignEnd {
        /// Faults with results (prefix length if cancelled).
        faults: usize,
        /// Faults whose sweep was dropped early.
        dropped: usize,
        /// Alternating pairs evaluated across all faults.
        pairs: u64,
        /// 64-lane words evaluated, golden sweeps included.
        words: u64,
        /// Total campaign wall time in microseconds.
        micros: u64,
        /// Whether the run was cancelled.
        cancelled: bool,
    },
}

impl CampaignEvent {
    /// Stable snake_case event name (the `"ev"` field of the JSON form).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            CampaignEvent::CampaignStart { .. } => "campaign_start",
            CampaignEvent::EvalMode { .. } => "eval_mode",
            CampaignEvent::LaneGeometry { .. } => "lane_geometry",
            CampaignEvent::ConeStats { .. } => "cone_stats",
            CampaignEvent::PhaseStart { .. } => "phase_start",
            CampaignEvent::PhaseEnd { .. } => "phase_end",
            CampaignEvent::Span { .. } => "span",
            CampaignEvent::LevelGates { .. } => "level_gates",
            CampaignEvent::FaultCollapse { .. } => "fault_collapse",
            CampaignEvent::FaultClass { .. } => "fault_class",
            CampaignEvent::FaultStart { .. } => "fault_start",
            CampaignEvent::BatchDone { .. } => "batch_done",
            CampaignEvent::LaneBatch { .. } => "lane_batch",
            CampaignEvent::FaultDropped { .. } => "fault_dropped",
            CampaignEvent::FaultFinish { .. } => "fault_finish",
            CampaignEvent::Progress { .. } => "progress",
            CampaignEvent::Cancelled { .. } => "cancelled",
            CampaignEvent::CampaignEnd { .. } => "campaign_end",
        }
    }

    /// Serializes the event as one JSON object (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Appends [`CampaignEvent::to_json`]'s text to `out`.
    pub fn write_json(&self, out: &mut String) {
        let mut o = JsonObject::within(out);
        o.str("ev", self.name());
        match *self {
            CampaignEvent::CampaignStart {
                campaign,
                faults,
                inputs,
                outputs,
                threads,
            } => {
                o.str("campaign", campaign);
                o.num("faults", faults as u64);
                o.num("inputs", inputs as u64);
                o.num("outputs", outputs as u64);
                o.num("threads", threads as u64);
            }
            CampaignEvent::EvalMode { mode } => {
                o.str("mode", mode);
            }
            CampaignEvent::LaneGeometry {
                width,
                fault_lanes,
                pattern_lanes,
                packing,
            } => {
                o.num("width", width as u64);
                o.num("fault_lanes", fault_lanes as u64);
                o.num("pattern_lanes", pattern_lanes as u64);
                o.str("packing", packing);
            }
            CampaignEvent::ConeStats {
                fault,
                worker,
                cone_ops,
                ops_evaluated,
                ops_skipped,
                frontier_died_at_level,
            } => {
                o.num("fault", fault as u64);
                o.num("worker", worker as u64);
                o.num("cone_ops", cone_ops);
                o.num("ops_evaluated", ops_evaluated);
                o.num("ops_skipped", ops_skipped);
                if let Some(l) = frontier_died_at_level {
                    o.num("frontier_died_at_level", u64::from(l));
                }
            }
            CampaignEvent::PhaseStart { phase } => {
                o.str("phase", phase.name());
            }
            CampaignEvent::PhaseEnd { phase, micros } => {
                o.str("phase", phase.name());
                o.num("micros", micros);
            }
            CampaignEvent::Span {
                name,
                parent,
                micros,
                count,
                items,
            } => {
                o.str("name", name);
                o.str("parent", parent);
                o.num("micros", micros);
                o.num("count", count);
                o.num("items", items);
            }
            CampaignEvent::LevelGates { level, gates } => {
                o.num("level", level as u64);
                o.num("gates", gates as u64);
            }
            CampaignEvent::FaultCollapse {
                faults,
                representatives,
                dominance_edges,
                micros,
            } => {
                o.num("faults", faults as u64);
                o.num("representatives", representatives as u64);
                o.num("dominance_edges", dominance_edges as u64);
                o.num("micros", micros);
            }
            CampaignEvent::FaultClass {
                fault,
                representative,
                size,
            } => {
                o.num("fault", fault as u64);
                o.num("representative", representative as u64);
                o.num("size", size as u64);
            }
            CampaignEvent::FaultStart { fault, worker } => {
                o.num("fault", fault as u64);
                o.num("worker", worker as u64);
            }
            CampaignEvent::BatchDone {
                fault,
                worker,
                batch,
                pairs,
            } => {
                o.num("fault", fault as u64);
                o.num("worker", worker as u64);
                o.num("batch", batch as u64);
                o.num("pairs", pairs);
            }
            CampaignEvent::LaneBatch {
                batch,
                worker,
                lanes,
                words,
                retired,
            } => {
                o.num("batch", batch as u64);
                o.num("worker", worker as u64);
                o.num("lanes", lanes as u64);
                o.num("words", words);
                o.num("retired", retired as u64);
            }
            CampaignEvent::FaultDropped {
                fault,
                worker,
                batch,
            } => {
                o.num("fault", fault as u64);
                o.num("worker", worker as u64);
                o.num("batch", batch as u64);
            }
            CampaignEvent::FaultFinish {
                fault,
                worker,
                detected,
                violations,
                observable,
                dropped,
                pairs,
                first_detected,
            } => {
                o.num("fault", fault as u64);
                o.num("worker", worker as u64);
                o.num("detected", detected as u64);
                o.num("violations", violations as u64);
                o.bool("observable", observable);
                o.bool("dropped", dropped);
                o.num("pairs", pairs);
                if let Some(p) = first_detected {
                    o.num("first_detected", u64::from(p));
                }
            }
            CampaignEvent::Progress { done, total } => {
                o.num("done", done as u64);
                o.num("total", total as u64);
            }
            CampaignEvent::Cancelled { completed } => {
                o.num("completed", completed as u64);
            }
            CampaignEvent::CampaignEnd {
                faults,
                dropped,
                pairs,
                words,
                micros,
                cancelled,
            } => {
                o.num("faults", faults as u64);
                o.num("dropped", dropped as u64);
                o.num("pairs", pairs);
                o.num("words", words);
                o.num("micros", micros);
                o.bool("cancelled", cancelled);
            }
        }
        o.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_are_stable() {
        assert_eq!(Phase::Compile.name(), "compile");
        assert_eq!(Phase::FaultSim.name(), "fault_sim");
    }

    #[test]
    fn events_serialize_to_valid_json() {
        let events = [
            CampaignEvent::CampaignStart {
                campaign: "pair",
                faults: 12,
                inputs: 3,
                outputs: 1,
                threads: 1,
            },
            CampaignEvent::PhaseEnd {
                phase: Phase::Golden,
                micros: 42,
            },
            CampaignEvent::FaultFinish {
                fault: 3,
                worker: 0,
                detected: 4,
                violations: 0,
                observable: true,
                dropped: false,
                pairs: 4,
                first_detected: Some(1),
            },
            CampaignEvent::Span {
                name: "levelize",
                parent: "compile",
                micros: 7,
                count: 1,
                items: 12,
            },
            CampaignEvent::LevelGates { level: 2, gates: 5 },
            CampaignEvent::LaneBatch {
                batch: 1,
                worker: 0,
                lanes: 63,
                words: 16,
                retired: 40,
            },
            CampaignEvent::Cancelled { completed: 2 },
            CampaignEvent::EvalMode { mode: "cone" },
            CampaignEvent::FaultCollapse {
                faults: 14,
                representatives: 8,
                dominance_edges: 3,
                micros: 1,
            },
            CampaignEvent::FaultClass {
                fault: 5,
                representative: 2,
                size: 3,
            },
            CampaignEvent::LaneGeometry {
                width: 8,
                fault_lanes: 63,
                pattern_lanes: 8,
                packing: "fault",
            },
            CampaignEvent::ConeStats {
                fault: 3,
                worker: 0,
                cone_ops: 9,
                ops_evaluated: 40,
                ops_skipped: 88,
                frontier_died_at_level: Some(2),
            },
        ];
        for e in &events {
            let j = e.to_json();
            crate::json::validate_jsonl(&j).expect("valid JSON");
            assert!(j.contains(&format!("\"ev\":\"{}\"", e.name())));
        }
    }

    #[test]
    fn undetected_faults_omit_first_detected() {
        let e = CampaignEvent::FaultFinish {
            fault: 0,
            worker: 0,
            detected: 0,
            violations: 2,
            observable: true,
            dropped: false,
            pairs: 4,
            first_detected: None,
        };
        let j = e.to_json();
        assert!(!j.contains("first_detected"));
        let d = CampaignEvent::FaultFinish {
            fault: 0,
            worker: 0,
            detected: 1,
            violations: 0,
            observable: true,
            dropped: false,
            pairs: 4,
            first_detected: Some(3),
        };
        assert!(d.to_json().contains("\"first_detected\":3"));
    }

    #[test]
    fn undying_frontiers_omit_death_level() {
        let e = CampaignEvent::ConeStats {
            fault: 0,
            worker: 0,
            cone_ops: 4,
            ops_evaluated: 8,
            ops_skipped: 0,
            frontier_died_at_level: None,
        };
        assert!(!e.to_json().contains("frontier_died_at_level"));
    }
}
