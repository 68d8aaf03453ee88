//! Per-fault coverage maps.
//!
//! A [`CoverageObserver`] listens to a campaign's event stream and builds a
//! [`CoverageMap`]: one [`FaultRecord`] per fault, in fault-list order,
//! carrying the detection verdict, the first detecting pair (and hence
//! time-to-detection), alternation-violation counts, and — when fault
//! dropping or cancellation cut the sweep short — where the sweep stopped.
//! This is the per-line feedback Algorithm 3.1 reasons about: not *how many*
//! faults a SCAL network detects, but *which ones* and *how fast*.
//!
//! Fault events are replayed deterministically in fault order by every
//! campaign flavour, so a coverage map is bit-identical across backends and
//! thread counts, and a cancelled campaign yields a valid fault-ordered
//! prefix map.

use crate::event::CampaignEvent;
use crate::json::JsonObject;
use crate::observer::CampaignObserver;
use std::fmt::Write as _;
use std::sync::Mutex;

/// The coverage verdict for one fault site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Index into the campaign's fault list.
    pub fault: usize,
    /// Human-readable site description (`"carry1 s-a-0"`), when the campaign
    /// supplied labels; empty otherwise.
    pub label: String,
    /// Pairs whose outputs failed the alternation check (detections).
    pub detected: usize,
    /// Ordinal of the first detecting pair in sweep order (`None` if never
    /// detected). Pair campaigns sweep canonical minterms ascending, so this
    /// is the minterm index of the first detecting input pair.
    pub first_detected: Option<u32>,
    /// Pairs that produced a wrong but alternating code word (undetected
    /// errors — fault-secureness violations).
    pub violations: usize,
    /// Whether the fault changed any output at all.
    pub observable: bool,
    /// Whether fault dropping cut the sweep short.
    pub dropped: bool,
    /// Batch ordinal at which the sweep stopped early (`None` for full
    /// sweeps).
    pub dropped_at: Option<usize>,
    /// Pairs evaluated for this fault.
    pub pairs: u64,
    /// Ops in this fault's fanout cone (`None` when the campaign ran in full
    /// eval mode or on a scalar backend).
    pub cone_ops: Option<u64>,
    /// Op evaluations the cone path skipped relative to full-schedule
    /// sweeps (`None` outside cone mode).
    pub ops_skipped: Option<u64>,
    /// Lowest circuit level at which the faulty frontier converged back to
    /// golden and evaluation stopped early (`None` when the fault's effect
    /// always reached the cone boundary, or outside cone mode).
    pub frontier_died_at_level: Option<u32>,
    /// Fault-list index of this fault's structural-equivalence
    /// representative, when fault collapsing merged it into a class of
    /// size > 1 (`None` for singleton classes or uncollapsed runs). Equals
    /// `fault` for the representative itself.
    pub class_rep: Option<usize>,
    /// Members of the fault's collapsed class (`None` alongside
    /// `class_rep = None`).
    pub class_size: Option<usize>,
}

impl FaultRecord {
    /// The record with every backend-dependent annotation cleared: cone
    /// statistics (absent in full/scalar mode) and collapse-class membership
    /// (absent in uncollapsed runs). What remains — verdict, first detecting
    /// pair, violations, drop state, pairs — is the backend-independent
    /// coverage content that differential tests compare bit for bit.
    #[must_use]
    pub fn without_annotations(&self) -> FaultRecord {
        FaultRecord {
            cone_ops: None,
            ops_skipped: None,
            frontier_died_at_level: None,
            class_rep: None,
            class_size: None,
            ..self.clone()
        }
    }
    /// `true` iff at least one pair detected the fault.
    #[must_use]
    pub fn is_detected(&self) -> bool {
        self.detected > 0
    }

    /// Pairs applied until the first detection (`first_detected + 1`), the
    /// thesis's time-to-detection metric. `None` for undetected faults.
    #[must_use]
    pub fn time_to_detection(&self) -> Option<u64> {
        self.first_detected.map(|p| u64::from(p) + 1)
    }
}

/// A complete per-fault coverage picture of one campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageMap {
    /// Campaign flavour (`"pair"`, `"pair_scalar"`, `"seq"`, …).
    pub campaign: String,
    /// One record per fault, in fault-list order. A cancelled campaign
    /// leaves the deterministic prefix.
    pub records: Vec<FaultRecord>,
    /// Faults the campaign queued (may exceed `records.len()` after
    /// cancellation).
    pub total_faults: usize,
    /// Whether the campaign was cancelled.
    pub cancelled: bool,
}

impl CoverageMap {
    /// Faults with at least one detecting pair.
    #[must_use]
    pub fn detected_count(&self) -> usize {
        self.records.iter().filter(|r| r.is_detected()).count()
    }

    /// Detected fraction over the *recorded* faults (1.0 for an empty map).
    #[must_use]
    pub fn coverage_fraction(&self) -> f64 {
        if self.records.is_empty() {
            1.0
        } else {
            self.detected_count() as f64 / self.records.len() as f64
        }
    }

    /// The undetected fault records, in fault order.
    pub fn undetected(&self) -> impl Iterator<Item = &FaultRecord> {
        self.records.iter().filter(|r| !r.is_detected())
    }

    /// The map with [`FaultRecord::without_annotations`] applied to every
    /// record — the form differential tests compare across backends,
    /// eval modes, and collapse settings.
    #[must_use]
    pub fn without_annotations(&self) -> CoverageMap {
        CoverageMap {
            records: self
                .records
                .iter()
                .map(FaultRecord::without_annotations)
                .collect(),
            ..self.clone()
        }
    }

    /// Serializes the map as one JSON object (stable schema, one `records`
    /// array entry per fault).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Appends [`CoverageMap::to_json`]'s text to `out`, every record
    /// written in place.
    pub fn write_json(&self, out: &mut String) {
        let mut o = JsonObject::within(out);
        o.str("campaign", &self.campaign);
        o.num("faults", self.records.len() as u64);
        o.num("total_faults", self.total_faults as u64);
        o.num("detected", self.detected_count() as u64);
        o.float("coverage", self.coverage_fraction());
        o.bool("cancelled", self.cancelled);
        let mut records = o.array("records");
        for r in &self.records {
            let mut ro = records.object();
            ro.num("fault", r.fault as u64);
            if !r.label.is_empty() {
                ro.str("label", &r.label);
            }
            ro.bool("detected", r.is_detected());
            ro.num("detections", r.detected as u64);
            if let Some(p) = r.first_detected {
                ro.num("first_pair", u64::from(p));
                ro.num("ttd_pairs", u64::from(p) + 1);
            }
            ro.num("violations", r.violations as u64);
            ro.bool("observable", r.observable);
            ro.bool("dropped", r.dropped);
            if let Some(b) = r.dropped_at {
                ro.num("dropped_at", b as u64);
            }
            ro.num("pairs", r.pairs);
            if let Some(c) = r.cone_ops {
                ro.num("cone_ops", c);
            }
            if let Some(s) = r.ops_skipped {
                ro.num("ops_skipped", s);
            }
            if let Some(l) = r.frontier_died_at_level {
                ro.num("frontier_died_at_level", u64::from(l));
            }
            if let Some(rep) = r.class_rep {
                ro.num("class_rep", rep as u64);
            }
            if let Some(sz) = r.class_size {
                ro.num("class_size", sz as u64);
            }
            ro.finish();
        }
        records.finish();
        o.finish();
    }

    /// Renders the human-readable undetected-fault report, cross-referencing
    /// the labels (netlist line names) the campaign supplied.
    #[must_use]
    pub fn undetected_report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "coverage [{}]: {}/{} faults detected ({:.1}%){}",
            self.campaign,
            self.detected_count(),
            self.records.len(),
            100.0 * self.coverage_fraction(),
            if self.cancelled {
                " [CANCELLED PREFIX]"
            } else {
                ""
            }
        );
        let undetected: Vec<_> = self.undetected().collect();
        if undetected.is_empty() {
            let _ = writeln!(out, "no undetected faults");
            return out;
        }
        let _ = writeln!(out, "undetected faults:");
        for r in undetected {
            let name = if r.label.is_empty() {
                format!("fault #{}", r.fault)
            } else {
                format!("#{} {}", r.fault, r.label)
            };
            let kind = if !r.observable {
                "unobservable (no output ever changed)"
            } else if r.violations > 0 {
                "code-preserving (wrong but alternating outputs)"
            } else {
                "masked"
            };
            let _ = writeln!(
                out,
                "  {name}: {kind}, {} violation pair(s) over {} pair(s)",
                r.violations, r.pairs
            );
        }
        out
    }
}

/// Builds [`CoverageMap`]s from a campaign event stream.
///
/// Attach one to a campaign (every `Campaign` builder has a `.coverage()`
/// hook) and read [`CoverageObserver::latest`] after the run. Labels are
/// per-fault-index strings, usually `"<line> s-a-<v>"`; campaigns that know
/// their fault list set them via [`CoverageObserver::set_labels`]. An
/// observer survives several campaigns back-to-back — each
/// `CampaignStart` archives the map under construction, and
/// [`CoverageObserver::maps`] returns all finished maps in run order.
#[derive(Debug, Default)]
pub struct CoverageObserver {
    inner: Mutex<CoverageState>,
}

#[derive(Debug, Default)]
struct CoverageState {
    labels: Vec<String>,
    current: Option<CoverageMap>,
    /// `FaultDropped` precedes its `FaultFinish` in the replayed stream;
    /// this carries the batch ordinal across.
    pending_drop: Vec<(usize, usize)>,
    /// `ConeStats` precedes its `FaultFinish` in the replayed stream; this
    /// carries `(fault, cone_ops, ops_skipped, died_at_level)` across.
    pending_cone: Vec<(usize, u64, u64, Option<u32>)>,
    /// `FaultClass` precedes its `FaultFinish` in the replayed stream; this
    /// carries `(fault, representative, size)` across.
    pending_class: Vec<(usize, usize, usize)>,
    finished: Vec<CoverageMap>,
}

impl CoverageObserver {
    /// Creates an empty observer.
    #[must_use]
    pub fn new() -> Self {
        CoverageObserver::default()
    }

    /// Supplies per-fault-index labels (netlist line names) for the current
    /// and subsequent campaigns.
    ///
    /// # Panics
    ///
    /// Panics if the observer lock was poisoned.
    pub fn set_labels(&self, labels: Vec<String>) {
        self.inner.lock().expect("coverage lock").labels = labels;
    }

    /// The most recently *finished* map, if any campaign has ended.
    ///
    /// # Panics
    ///
    /// Panics if the observer lock was poisoned.
    #[must_use]
    pub fn latest(&self) -> Option<CoverageMap> {
        self.inner
            .lock()
            .expect("coverage lock")
            .finished
            .last()
            .cloned()
    }

    /// All finished maps, in campaign order.
    ///
    /// # Panics
    ///
    /// Panics if the observer lock was poisoned.
    #[must_use]
    pub fn maps(&self) -> Vec<CoverageMap> {
        self.inner.lock().expect("coverage lock").finished.clone()
    }
}

impl CampaignObserver for CoverageObserver {
    fn on_event(&self, event: &CampaignEvent) {
        let mut state = self.inner.lock().expect("coverage lock");
        match *event {
            CampaignEvent::CampaignStart {
                campaign, faults, ..
            } => {
                if let Some(map) = state.current.take() {
                    // A start without an end: archive what we have.
                    state.finished.push(map);
                }
                state.pending_drop.clear();
                state.pending_cone.clear();
                state.pending_class.clear();
                state.current = Some(CoverageMap {
                    campaign: campaign.to_string(),
                    records: Vec::with_capacity(faults),
                    total_faults: faults,
                    cancelled: false,
                });
            }
            CampaignEvent::FaultDropped { fault, batch, .. } => {
                state.pending_drop.push((fault, batch));
            }
            CampaignEvent::ConeStats {
                fault,
                cone_ops,
                ops_skipped,
                frontier_died_at_level,
                ..
            } => {
                state
                    .pending_cone
                    .push((fault, cone_ops, ops_skipped, frontier_died_at_level));
            }
            CampaignEvent::FaultClass {
                fault,
                representative,
                size,
            } => {
                state.pending_class.push((fault, representative, size));
            }
            CampaignEvent::FaultFinish {
                fault,
                detected,
                violations,
                observable,
                dropped,
                pairs,
                first_detected,
                ..
            } => {
                let dropped_at = state
                    .pending_drop
                    .iter()
                    .position(|&(f, _)| f == fault)
                    .map(|i| state.pending_drop.swap_remove(i).1);
                let cone = state
                    .pending_cone
                    .iter()
                    .position(|&(f, ..)| f == fault)
                    .map(|i| state.pending_cone.swap_remove(i));
                let class = state
                    .pending_class
                    .iter()
                    .position(|&(f, ..)| f == fault)
                    .map(|i| state.pending_class.swap_remove(i));
                let label = state.labels.get(fault).cloned().unwrap_or_default();
                if let Some(map) = state.current.as_mut() {
                    map.records.push(FaultRecord {
                        fault,
                        label,
                        detected,
                        first_detected,
                        violations,
                        observable,
                        dropped,
                        dropped_at,
                        pairs,
                        cone_ops: cone.map(|(_, c, _, _)| c),
                        ops_skipped: cone.map(|(_, _, s, _)| s),
                        frontier_died_at_level: cone.and_then(|(_, _, _, l)| l),
                        class_rep: class.map(|(_, rep, _)| rep),
                        class_size: class.map(|(_, _, sz)| sz),
                    });
                }
            }
            CampaignEvent::Cancelled { .. } => {
                if let Some(map) = state.current.as_mut() {
                    map.cancelled = true;
                }
            }
            CampaignEvent::CampaignEnd { cancelled, .. } => {
                if let Some(mut map) = state.current.take() {
                    map.cancelled |= cancelled;
                    state.finished.push(map);
                }
                state.pending_drop.clear();
                state.pending_cone.clear();
                state.pending_class.clear();
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, validate_jsonl, JsonValue};

    fn feed(obs: &CoverageObserver, events: &[CampaignEvent]) {
        for e in events {
            obs.on_event(e);
        }
    }

    fn start(faults: usize) -> CampaignEvent {
        CampaignEvent::CampaignStart {
            campaign: "pair",
            faults,
            inputs: 2,
            outputs: 1,
            threads: 1,
        }
    }

    fn finish(fault: usize, detected: usize, first: Option<u32>) -> CampaignEvent {
        CampaignEvent::FaultFinish {
            fault,
            worker: 0,
            detected,
            violations: if detected == 0 { 1 } else { 0 },
            observable: true,
            dropped: false,
            pairs: 4,
            first_detected: first,
        }
    }

    fn end(faults: usize, cancelled: bool) -> CampaignEvent {
        CampaignEvent::CampaignEnd {
            faults,
            dropped: 0,
            pairs: 8,
            words: 10,
            micros: 100,
            cancelled,
        }
    }

    #[test]
    fn builds_a_map_with_ttd_and_labels() {
        let obs = CoverageObserver::new();
        obs.set_labels(vec!["a s-a-0".into(), "a s-a-1".into()]);
        feed(
            &obs,
            &[
                start(2),
                finish(0, 2, Some(1)),
                finish(1, 0, None),
                end(2, false),
            ],
        );
        let map = obs.latest().expect("finished map");
        assert_eq!(map.records.len(), 2);
        assert_eq!(map.detected_count(), 1);
        assert!((map.coverage_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(map.records[0].time_to_detection(), Some(2));
        assert_eq!(map.records[0].label, "a s-a-0");
        assert_eq!(map.undetected().count(), 1);
        let report = map.undetected_report();
        assert!(report.contains("1/2 faults detected"), "{report}");
        assert!(report.contains("#1 a s-a-1"), "{report}");
    }

    #[test]
    fn dropped_at_carries_the_batch_ordinal() {
        let obs = CoverageObserver::new();
        feed(
            &obs,
            &[
                start(1),
                CampaignEvent::FaultDropped {
                    fault: 0,
                    worker: 0,
                    batch: 3,
                },
                CampaignEvent::FaultFinish {
                    fault: 0,
                    worker: 0,
                    detected: 1,
                    violations: 0,
                    observable: true,
                    dropped: true,
                    pairs: 192,
                    first_detected: Some(130),
                },
                end(1, false),
            ],
        );
        let map = obs.latest().expect("map");
        assert_eq!(map.records[0].dropped_at, Some(3));
        assert!(map.records[0].dropped);
    }

    #[test]
    fn cone_stats_attach_to_their_fault_record() {
        let obs = CoverageObserver::new();
        feed(
            &obs,
            &[
                start(2),
                CampaignEvent::ConeStats {
                    fault: 1,
                    worker: 0,
                    cone_ops: 3,
                    ops_evaluated: 6,
                    ops_skipped: 22,
                    frontier_died_at_level: Some(2),
                },
                finish(0, 1, Some(0)),
                finish(1, 0, None),
                end(2, false),
            ],
        );
        let map = obs.latest().expect("map");
        assert_eq!(map.records[0].cone_ops, None);
        assert_eq!(map.records[1].cone_ops, Some(3));
        assert_eq!(map.records[1].ops_skipped, Some(22));
        assert_eq!(map.records[1].frontier_died_at_level, Some(2));
        let json = map.to_json();
        let v = parse(&json).expect("parses");
        let recs = v.get("records").and_then(JsonValue::as_array).unwrap();
        assert!(recs[0].get("cone_ops").is_none());
        assert_eq!(
            recs[1].get("cone_ops").and_then(JsonValue::as_f64),
            Some(3.0)
        );
        assert_eq!(
            recs[1]
                .get("frontier_died_at_level")
                .and_then(JsonValue::as_f64),
            Some(2.0)
        );
    }

    #[test]
    fn fault_class_attaches_and_strips() {
        let obs = CoverageObserver::new();
        feed(
            &obs,
            &[
                start(2),
                CampaignEvent::FaultClass {
                    fault: 1,
                    representative: 0,
                    size: 2,
                },
                finish(0, 1, Some(0)),
                finish(1, 1, Some(0)),
                end(2, false),
            ],
        );
        let map = obs.latest().expect("map");
        assert_eq!(map.records[0].class_rep, None);
        assert_eq!(map.records[1].class_rep, Some(0));
        assert_eq!(map.records[1].class_size, Some(2));
        let json = map.to_json();
        let v = parse(&json).expect("parses");
        let recs = v.get("records").and_then(JsonValue::as_array).unwrap();
        assert!(recs[0].get("class_rep").is_none());
        assert_eq!(
            recs[1].get("class_rep").and_then(JsonValue::as_f64),
            Some(0.0)
        );
        assert_eq!(
            recs[1].get("class_size").and_then(JsonValue::as_f64),
            Some(2.0)
        );
        let stripped = map.without_annotations();
        assert!(stripped
            .records
            .iter()
            .all(|r| r.class_rep.is_none() && r.class_size.is_none() && r.cone_ops.is_none()));
        assert_eq!(stripped.records[1].detected, map.records[1].detected);
    }

    #[test]
    fn cancellation_marks_the_prefix_map() {
        let obs = CoverageObserver::new();
        feed(
            &obs,
            &[
                start(5),
                finish(0, 1, Some(0)),
                finish(1, 1, Some(2)),
                CampaignEvent::Cancelled { completed: 2 },
                end(2, true),
            ],
        );
        let map = obs.latest().expect("map");
        assert!(map.cancelled);
        assert_eq!(map.records.len(), 2);
        assert_eq!(map.total_faults, 5);
    }

    #[test]
    fn json_form_is_valid_and_complete() {
        let obs = CoverageObserver::new();
        obs.set_labels(vec!["n1 s-a-1".into()]);
        feed(&obs, &[start(1), finish(0, 0, None), end(1, false)]);
        let json = obs.latest().expect("map").to_json();
        assert_eq!(validate_jsonl(&json), Ok(1));
        let v = parse(&json).expect("parses");
        assert_eq!(v.get("coverage").and_then(JsonValue::as_f64), Some(0.0));
        let recs = v.get("records").and_then(JsonValue::as_array).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].get("detected"), Some(&JsonValue::Bool(false)));
        assert_eq!(
            recs[0].get("label").and_then(JsonValue::as_str),
            Some("n1 s-a-1")
        );
        assert!(recs[0].get("first_pair").is_none());
    }

    #[test]
    fn survives_back_to_back_campaigns() {
        let obs = CoverageObserver::new();
        feed(&obs, &[start(1), finish(0, 1, Some(0)), end(1, false)]);
        feed(&obs, &[start(1), finish(0, 0, None), end(1, false)]);
        let maps = obs.maps();
        assert_eq!(maps.len(), 2);
        assert_eq!(maps[0].detected_count(), 1);
        assert_eq!(maps[1].detected_count(), 0);
    }
}
