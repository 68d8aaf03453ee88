//! The span-based phase profiler.
//!
//! A [`Profiler`] listens to [`CampaignEvent::PhaseEnd`],
//! [`CampaignEvent::Span`] and [`CampaignEvent::LevelGates`] events and
//! aggregates them into a [`Profile`]: a small tree of phase wall times with
//! engine sub-phase spans (levelize/pack under compile, eval-batch under
//! fault-sim) nested beneath, plus the per-level gate population of the
//! compiled schedule. The profile answers the ROADMAP's "where does engine
//! time go" question: wall time and share per phase, pair throughput over
//! the eval phase alone, and estimated gate-evaluations from the level
//! populations.

use crate::event::CampaignEvent;
use crate::json::JsonObject;
use crate::observer::CampaignObserver;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Wall time of one campaign phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTiming {
    /// Phase name (`"compile"`, `"golden"`, `"fault_sim"`, `"merge"`).
    pub name: String,
    /// Wall time in microseconds.
    pub micros: u64,
}

/// An aggregated engine sub-phase span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanTiming {
    /// Span name (`"levelize"`, `"pack"`, `"eval_batch"`, …).
    pub name: String,
    /// Enclosing phase or span name.
    pub parent: String,
    /// Summed time across executions, in microseconds. For worker-parallel
    /// spans this is summed *worker* time and can exceed the parent phase's
    /// wall clock.
    pub micros: u64,
    /// Executions aggregated.
    pub count: u64,
    /// Work items processed (span-specific unit).
    pub items: u64,
}

/// The aggregated timing picture of one campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// Campaign flavour.
    pub campaign: String,
    /// Phase wall times, in emission order.
    pub phases: Vec<PhaseTiming>,
    /// Aggregated spans (same name+parent summed), in first-seen order.
    pub spans: Vec<SpanTiming>,
    /// Gates per schedule level (level 0 first); empty if the campaign's
    /// backend does not levelize.
    pub levels: Vec<usize>,
    /// Alternating pairs evaluated across all faults.
    pub pairs: u64,
    /// 64-lane words evaluated, golden sweeps included.
    pub words: u64,
    /// Total campaign wall time in microseconds.
    pub micros: u64,
    /// Faulty-sweep evaluation strategy (`"full"` / `"cone"`), or empty if
    /// the backend never announced one (scalar oracles).
    pub eval_mode: String,
    /// Faults that reported cone statistics.
    pub cone_faults: u64,
    /// Ops those faults evaluated (64-lane sub-word op sweeps), summed.
    pub cone_ops_evaluated: u64,
    /// Op evaluations the cone path skipped relative to full-schedule
    /// sweeps, summed across those faults — where a cone-mode speedup comes
    /// from.
    pub cone_ops_skipped: u64,
    /// Fault-per-lane batches a packed sequential campaign ran.
    pub lane_batches: u64,
    /// Fault lanes packed across those batches (63 faults share one word's
    /// worth of sweeps per batch — where a packed-mode speedup comes from).
    pub lanes_packed: u64,
    /// Lanes classified before their batch's drive ended (retired lanes
    /// drop out of the batch's early-exit frontier).
    pub lanes_retired: u64,
    /// Driven words replayed, summed across batches.
    pub lane_words: u64,
    /// Wide-word width `W` (64-lane sub-words per evaluation word), or 0 if
    /// the backend never announced its lane geometry.
    pub word_width: u64,
    /// Distinct faults packed per evaluation word (0 = one fault per sweep).
    pub fault_lanes: u64,
    /// Pattern lanes evaluated per sweep (0 = sequential replay).
    pub pattern_lanes: u64,
    /// Lane-packing scheme (`"pattern"` / `"fault"` / `"seq"` / `"scalar"`),
    /// or empty if never announced.
    pub packing: String,
    /// Original faults the campaign was given, as reported by the
    /// fault-collapsing pass (0 when collapsing was off or never announced).
    pub collapse_faults: u64,
    /// Structural-equivalence representatives actually simulated (0 when
    /// collapsing was off).
    pub collapse_representatives: u64,
    /// Structural dominance edges found between collapsed classes
    /// (annotation only — never used to skip simulation).
    pub collapse_dominance_edges: u64,
}

impl Profile {
    /// Wall time of the named phase, if it ran.
    #[must_use]
    pub fn phase_micros(&self, name: &str) -> Option<u64> {
        self.phases
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.micros)
    }

    /// Wall time of the evaluation phase (`fault_sim`) — the denominator
    /// for apples-to-apples throughput comparisons that exclude compile and
    /// merge overhead.
    #[must_use]
    pub fn eval_micros(&self) -> Option<u64> {
        self.phase_micros("fault_sim")
    }

    /// Pairs per second over the evaluation phase alone (`None` if the
    /// phase is missing or took zero measurable time).
    #[must_use]
    pub fn pairs_per_sec(&self) -> Option<f64> {
        match self.eval_micros() {
            Some(us) if us > 0 => Some(self.pairs as f64 * 1e6 / us as f64),
            _ => None,
        }
    }

    /// Estimated gate evaluations: schedule gate count × words evaluated.
    #[must_use]
    pub fn gate_evals(&self) -> u64 {
        self.levels.iter().map(|&g| g as u64).sum::<u64>() * self.words
    }

    /// Ratio of original faults to simulated representatives (`None` when
    /// fault collapsing was off or never announced). 1.0 means no fault
    /// collapsed; 2.0 means half the fault list simulated.
    #[must_use]
    pub fn collapse_ratio(&self) -> Option<f64> {
        if self.collapse_representatives > 0 {
            Some(self.collapse_faults as f64 / self.collapse_representatives as f64)
        } else {
            None
        }
    }

    /// Fraction of full-schedule op evaluations the cone path skipped
    /// (`None` when no cone statistics were reported).
    #[must_use]
    pub fn ops_skipped_fraction(&self) -> Option<f64> {
        let total = self.cone_ops_evaluated + self.cone_ops_skipped;
        if self.cone_faults > 0 && total > 0 {
            Some(self.cone_ops_skipped as f64 / total as f64)
        } else {
            None
        }
    }

    /// Renders the profile tree: phases with share of wall time, spans
    /// nested under their parent, then the level histogram.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let throughput = match self.pairs_per_sec() {
            Some(r) => format!(", {} pairs/s over eval", fmt_rate(r)),
            None => String::new(),
        };
        let mode = if self.eval_mode.is_empty() {
            String::new()
        } else {
            format!(", {} eval", self.eval_mode)
        };
        let _ = writeln!(
            out,
            "profile [{}]: {} us wall, {} pairs, {} words{mode}{throughput}",
            self.campaign, self.micros, self.pairs, self.words
        );
        if self.word_width > 0 {
            let _ = writeln!(
                out,
                "  word: W={} ({} packing, {} fault lane(s), {} pattern lane(s) per sweep)",
                self.word_width, self.packing, self.fault_lanes, self.pattern_lanes
            );
        }
        if let Some(f) = self.ops_skipped_fraction() {
            let _ = writeln!(
                out,
                "  cone: {} fault(s), {} op-evals run, {} skipped ({:.1}% of full schedule)",
                self.cone_faults,
                self.cone_ops_evaluated,
                self.cone_ops_skipped,
                100.0 * f
            );
        }
        if self.lane_batches > 0 {
            let _ = writeln!(
                out,
                "  lanes: {} batch(es), {} fault lane(s) packed, {} retired early, {} driven word(s)",
                self.lane_batches, self.lanes_packed, self.lanes_retired, self.lane_words
            );
        }
        if let Some(r) = self.collapse_ratio() {
            let _ = writeln!(
                out,
                "  collapse: {} fault(s) -> {} representative(s) ({r:.2}x), {} dominance edge(s)",
                self.collapse_faults, self.collapse_representatives, self.collapse_dominance_edges
            );
        }
        for p in &self.phases {
            let share = if self.micros > 0 {
                format!(" ({:.1}%)", 100.0 * p.micros as f64 / self.micros as f64)
            } else {
                String::new()
            };
            let _ = writeln!(out, "  {}: {} us{share}", p.name, p.micros);
            self.render_spans(&mut out, &p.name, 2);
        }
        if !self.levels.is_empty() {
            let gates: usize = self.levels.iter().sum();
            let _ = writeln!(
                out,
                "  schedule: {} level(s), {} gate(s), ~{} gate-evals",
                self.levels.len(),
                gates,
                self.gate_evals()
            );
            let _ = writeln!(
                out,
                "    gates/level: {}",
                self.levels
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
        out
    }

    fn render_spans(&self, out: &mut String, parent: &str, depth: usize) {
        for s in self.spans.iter().filter(|s| s.parent == parent) {
            let _ = writeln!(
                out,
                "{}{}: {} us ({} run(s), {} item(s))",
                "  ".repeat(depth),
                s.name,
                s.micros,
                s.count,
                s.items
            );
            self.render_spans(out, &s.name, depth + 1);
        }
    }

    /// Serializes the profile as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.str("campaign", &self.campaign);
        o.num("micros", self.micros);
        o.num("pairs", self.pairs);
        o.num("words", self.words);
        if !self.eval_mode.is_empty() {
            o.str("eval_mode", &self.eval_mode);
        }
        if self.word_width > 0 {
            o.num("word_width", self.word_width);
            o.num("fault_lanes", self.fault_lanes);
            o.num("pattern_lanes", self.pattern_lanes);
            o.str("packing", &self.packing);
        }
        if self.cone_faults > 0 {
            o.num("cone_faults", self.cone_faults);
            o.num("cone_ops_evaluated", self.cone_ops_evaluated);
            o.num("cone_ops_skipped", self.cone_ops_skipped);
        }
        if let Some(f) = self.ops_skipped_fraction() {
            o.float("ops_skipped_fraction", f);
        }
        if self.lane_batches > 0 {
            o.num("lane_batches", self.lane_batches);
            o.num("lanes_packed", self.lanes_packed);
            o.num("lanes_retired", self.lanes_retired);
            o.num("lane_words", self.lane_words);
        }
        if let Some(r) = self.collapse_ratio() {
            o.num("collapse_faults", self.collapse_faults);
            o.num("collapse_representatives", self.collapse_representatives);
            o.num("collapse_dominance_edges", self.collapse_dominance_edges);
            o.float("collapse_ratio", r);
        }
        if let Some(r) = self.pairs_per_sec() {
            o.float("pairs_per_sec", r);
        }
        let mut phases = o.array("phases");
        for p in &self.phases {
            let mut po = phases.object();
            po.str("name", &p.name);
            po.num("micros", p.micros);
            po.finish();
        }
        phases.finish();
        let mut spans = o.array("spans");
        for s in &self.spans {
            let mut so = spans.object();
            so.str("name", &s.name);
            so.str("parent", &s.parent);
            so.num("micros", s.micros);
            so.num("count", s.count);
            so.num("items", s.items);
            so.finish();
        }
        spans.finish();
        let mut levels = o.array("levels");
        for &l in &self.levels {
            levels.num(l as u64);
        }
        levels.finish();
        o.num("gate_evals", self.gate_evals());
        o.finish()
    }
}

/// Builds [`Profile`]s from a campaign event stream.
///
/// A profiler survives several campaigns: each `CampaignStart` archives
/// the profile under construction and [`Profiler::profiles`] returns all
/// finished profiles in run order.
#[derive(Debug, Default)]
pub struct Profiler {
    inner: Mutex<ProfilerState>,
}

#[derive(Debug, Default)]
struct ProfilerState {
    current: Option<Profile>,
    finished: Vec<Profile>,
}

impl Profiler {
    /// Creates an empty profiler.
    #[must_use]
    pub fn new() -> Self {
        Profiler::default()
    }

    /// The most recently finished profile, if any campaign has ended.
    ///
    /// # Panics
    ///
    /// Panics if the profiler lock was poisoned.
    #[must_use]
    pub fn latest(&self) -> Option<Profile> {
        self.inner
            .lock()
            .expect("profiler lock")
            .finished
            .last()
            .cloned()
    }

    /// All finished profiles, in campaign order.
    ///
    /// # Panics
    ///
    /// Panics if the profiler lock was poisoned.
    #[must_use]
    pub fn profiles(&self) -> Vec<Profile> {
        self.inner.lock().expect("profiler lock").finished.clone()
    }
}

impl CampaignObserver for Profiler {
    fn on_event(&self, event: &CampaignEvent) {
        let mut state = self.inner.lock().expect("profiler lock");
        match *event {
            CampaignEvent::CampaignStart { campaign, .. } => {
                if let Some(p) = state.current.take() {
                    state.finished.push(p);
                }
                state.current = Some(Profile {
                    campaign: campaign.to_string(),
                    ..Profile::default()
                });
            }
            CampaignEvent::PhaseEnd { phase, micros } => {
                if let Some(p) = state.current.as_mut() {
                    p.phases.push(PhaseTiming {
                        name: phase.name().to_string(),
                        micros,
                    });
                }
            }
            CampaignEvent::Span {
                name,
                parent,
                micros,
                count,
                items,
            } => {
                if let Some(p) = state.current.as_mut() {
                    if let Some(s) = p
                        .spans
                        .iter_mut()
                        .find(|s| s.name == name && s.parent == parent)
                    {
                        s.micros += micros;
                        s.count += count;
                        s.items += items;
                    } else {
                        p.spans.push(SpanTiming {
                            name: name.to_string(),
                            parent: parent.to_string(),
                            micros,
                            count,
                            items,
                        });
                    }
                }
            }
            CampaignEvent::EvalMode { mode } => {
                if let Some(p) = state.current.as_mut() {
                    p.eval_mode = mode.to_string();
                }
            }
            CampaignEvent::LaneGeometry {
                width,
                fault_lanes,
                pattern_lanes,
                packing,
            } => {
                if let Some(p) = state.current.as_mut() {
                    p.word_width = width as u64;
                    p.fault_lanes = fault_lanes as u64;
                    p.pattern_lanes = pattern_lanes as u64;
                    p.packing = packing.to_string();
                }
            }
            CampaignEvent::ConeStats {
                ops_evaluated,
                ops_skipped,
                ..
            } => {
                if let Some(p) = state.current.as_mut() {
                    p.cone_faults += 1;
                    p.cone_ops_evaluated += ops_evaluated;
                    p.cone_ops_skipped += ops_skipped;
                }
            }
            CampaignEvent::LaneBatch {
                lanes,
                words,
                retired,
                ..
            } => {
                if let Some(p) = state.current.as_mut() {
                    p.lane_batches += 1;
                    p.lanes_packed += lanes as u64;
                    p.lanes_retired += retired as u64;
                    p.lane_words += words;
                }
            }
            CampaignEvent::FaultCollapse {
                faults,
                representatives,
                dominance_edges,
                ..
            } => {
                if let Some(p) = state.current.as_mut() {
                    p.collapse_faults = faults as u64;
                    p.collapse_representatives = representatives as u64;
                    p.collapse_dominance_edges = dominance_edges as u64;
                }
            }
            CampaignEvent::LevelGates { level, gates } => {
                if let Some(p) = state.current.as_mut() {
                    if p.levels.len() <= level {
                        p.levels.resize(level + 1, 0);
                    }
                    p.levels[level] = gates;
                }
            }
            CampaignEvent::CampaignEnd {
                pairs,
                words,
                micros,
                ..
            } => {
                if let Some(mut p) = state.current.take() {
                    p.pairs = pairs;
                    p.words = words;
                    p.micros = micros;
                    state.finished.push(p);
                }
            }
            _ => {}
        }
    }
}

/// Formats a rate compactly: `950`, `3.2k`, `1.8M`.
fn fmt_rate(r: f64) -> String {
    if r >= 1e6 {
        format!("{:.1}M", r / 1e6)
    } else if r >= 1e3 {
        format!("{:.1}k", r / 1e3)
    } else {
        format!("{r:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, validate_jsonl, JsonValue};
    use crate::Phase;

    fn sample_events() -> Vec<CampaignEvent> {
        vec![
            CampaignEvent::CampaignStart {
                campaign: "pair",
                faults: 2,
                inputs: 2,
                outputs: 1,
                threads: 1,
            },
            CampaignEvent::EvalMode { mode: "cone" },
            CampaignEvent::LaneGeometry {
                width: 4,
                fault_lanes: 0,
                pattern_lanes: 256,
                packing: "pattern",
            },
            CampaignEvent::PhaseEnd {
                phase: Phase::Compile,
                micros: 50,
            },
            CampaignEvent::Span {
                name: "levelize",
                parent: "compile",
                micros: 30,
                count: 1,
                items: 12,
            },
            CampaignEvent::Span {
                name: "pack",
                parent: "compile",
                micros: 15,
                count: 1,
                items: 12,
            },
            CampaignEvent::LevelGates { level: 0, gates: 4 },
            CampaignEvent::LevelGates { level: 1, gates: 3 },
            CampaignEvent::PhaseEnd {
                phase: Phase::Golden,
                micros: 5,
            },
            CampaignEvent::Span {
                name: "eval_batch",
                parent: "fault_sim",
                micros: 60,
                count: 1,
                items: 4,
            },
            CampaignEvent::Span {
                name: "eval_batch",
                parent: "fault_sim",
                micros: 40,
                count: 1,
                items: 4,
            },
            CampaignEvent::ConeStats {
                fault: 0,
                worker: 0,
                cone_ops: 5,
                ops_evaluated: 10,
                ops_skipped: 18,
                frontier_died_at_level: Some(1),
            },
            CampaignEvent::ConeStats {
                fault: 1,
                worker: 0,
                cone_ops: 7,
                ops_evaluated: 14,
                ops_skipped: 14,
                frontier_died_at_level: None,
            },
            CampaignEvent::PhaseEnd {
                phase: Phase::FaultSim,
                micros: 120,
            },
            CampaignEvent::PhaseEnd {
                phase: Phase::Merge,
                micros: 3,
            },
            CampaignEvent::CampaignEnd {
                faults: 2,
                dropped: 0,
                pairs: 8,
                words: 12,
                micros: 200,
                cancelled: false,
            },
        ]
    }

    #[test]
    fn aggregates_phases_spans_and_levels() {
        let prof = Profiler::new();
        for e in sample_events() {
            prof.on_event(&e);
        }
        let p = prof.latest().expect("profile");
        assert_eq!(p.phase_micros("compile"), Some(50));
        assert_eq!(p.eval_micros(), Some(120));
        // Two eval_batch spans merged into one.
        let eb = p
            .spans
            .iter()
            .find(|s| s.name == "eval_batch")
            .expect("merged span");
        assert_eq!((eb.micros, eb.count, eb.items), (100, 2, 8));
        assert_eq!(p.levels, vec![4, 3]);
        assert_eq!(p.gate_evals(), 7 * 12);
        let rate = p.pairs_per_sec().expect("rate");
        assert!((rate - 8.0 * 1e6 / 120.0).abs() < 1e-6);
        assert_eq!(p.eval_mode, "cone");
        assert_eq!(
            (
                p.word_width,
                p.fault_lanes,
                p.pattern_lanes,
                p.packing.as_str()
            ),
            (4, 0, 256, "pattern")
        );
        assert_eq!(
            (p.cone_faults, p.cone_ops_evaluated, p.cone_ops_skipped),
            (2, 24, 32)
        );
        let frac = p.ops_skipped_fraction().expect("fraction");
        assert!((frac - 32.0 / 56.0).abs() < 1e-9);
    }

    #[test]
    fn render_nests_spans_under_phases() {
        let prof = Profiler::new();
        for e in sample_events() {
            prof.on_event(&e);
        }
        let text = prof.latest().expect("profile").render();
        let compile_at = text.find("  compile: 50 us").expect("compile line");
        let levelize_at = text.find("    levelize: 30 us").expect("nested levelize");
        let golden_at = text.find("  golden: 5 us").expect("golden line");
        assert!(
            compile_at < levelize_at && levelize_at < golden_at,
            "{text}"
        );
        assert!(text.contains("gates/level: 4, 3"), "{text}");
        assert!(text.contains("cone eval"), "{text}");
        assert!(text.contains("word: W=4 (pattern packing"), "{text}");
        assert!(
            text.contains("cone: 2 fault(s), 24 op-evals run, 32 skipped"),
            "{text}"
        );
    }

    #[test]
    fn json_form_is_valid() {
        let prof = Profiler::new();
        for e in sample_events() {
            prof.on_event(&e);
        }
        let json = prof.latest().expect("profile").to_json();
        assert_eq!(validate_jsonl(&json), Ok(1));
        let v = parse(&json).expect("parses");
        assert_eq!(
            v.get("phases")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(4)
        );
        assert_eq!(v.get("gate_evals").and_then(JsonValue::as_f64), Some(84.0));
        assert_eq!(v.get("eval_mode").and_then(JsonValue::as_str), Some("cone"));
        assert_eq!(v.get("word_width").and_then(JsonValue::as_f64), Some(4.0));
        assert_eq!(
            v.get("packing").and_then(JsonValue::as_str),
            Some("pattern")
        );
        assert_eq!(
            v.get("cone_ops_skipped").and_then(JsonValue::as_f64),
            Some(32.0)
        );
    }

    #[test]
    fn lane_batches_aggregate_and_render() {
        let prof = Profiler::new();
        prof.on_event(&CampaignEvent::CampaignStart {
            campaign: "seq",
            faults: 100,
            inputs: 2,
            outputs: 4,
            threads: 1,
        });
        for (batch, lanes, retired) in [(0usize, 63usize, 50usize), (1, 37, 30)] {
            prof.on_event(&CampaignEvent::LaneBatch {
                batch,
                worker: 0,
                lanes,
                words: 16,
                retired,
            });
        }
        prof.on_event(&CampaignEvent::CampaignEnd {
            faults: 100,
            dropped: 0,
            pairs: 700,
            words: 64,
            micros: 90,
            cancelled: false,
        });
        let p = prof.latest().expect("profile");
        assert_eq!(
            (
                p.lane_batches,
                p.lanes_packed,
                p.lanes_retired,
                p.lane_words
            ),
            (2, 100, 80, 32)
        );
        assert!(
            p.render()
                .contains("lanes: 2 batch(es), 100 fault lane(s) packed, 80 retired early"),
            "{}",
            p.render()
        );
        assert!(p.to_json().contains("\"lanes_packed\":100"));
    }

    #[test]
    fn collapse_counters_aggregate_and_render() {
        let prof = Profiler::new();
        prof.on_event(&CampaignEvent::CampaignStart {
            campaign: "pair",
            faults: 14,
            inputs: 3,
            outputs: 1,
            threads: 1,
        });
        prof.on_event(&CampaignEvent::FaultCollapse {
            faults: 14,
            representatives: 7,
            dominance_edges: 4,
            micros: 2,
        });
        prof.on_event(&CampaignEvent::CampaignEnd {
            faults: 14,
            dropped: 0,
            pairs: 56,
            words: 28,
            micros: 50,
            cancelled: false,
        });
        let p = prof.latest().expect("profile");
        assert_eq!(
            (
                p.collapse_faults,
                p.collapse_representatives,
                p.collapse_dominance_edges
            ),
            (14, 7, 4)
        );
        assert_eq!(p.collapse_ratio(), Some(2.0));
        assert!(
            p.render().contains(
                "collapse: 14 fault(s) -> 7 representative(s) (2.00x), 4 dominance edge(s)"
            ),
            "{}",
            p.render()
        );
        assert!(p.to_json().contains("\"collapse_ratio\":2"));
    }

    #[test]
    fn profiles_archive_per_campaign() {
        let prof = Profiler::new();
        for _ in 0..2 {
            for e in sample_events() {
                prof.on_event(&e);
            }
        }
        assert_eq!(prof.profiles().len(), 2);
    }

    #[test]
    fn rate_formats_compactly() {
        assert_eq!(fmt_rate(950.0), "950");
        assert_eq!(fmt_rate(3200.0), "3.2k");
        assert_eq!(fmt_rate(1_800_000.0), "1.8M");
    }
}
