//! Per-fault coverage maps.
//!
//! A [`CoverageMap`] holds one [`FaultRecord`] per fault, in fault-list
//! order, carrying the detection verdict, the first detecting pair (and
//! hence time-to-detection), alternation-violation counts, and — when fault
//! dropping or cancellation cut the sweep short — where the sweep stopped.
//! This is the per-line feedback Algorithm 3.1 reasons about: not *how many*
//! faults a SCAL network detects, but *which ones* and *how fast*.
//!
//! Campaigns gather their map from the verdicts they decided (the engine's
//! verdict table) and push it into a [`CoverageObserver`]; no event stream is
//! involved. Verdicts are merged in fault order by every campaign flavour,
//! so a coverage map is bit-identical across backends and thread counts, and
//! a cancelled campaign yields a valid fault-ordered prefix map.

use crate::json::JsonObject;
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
    /// size > 1 and another fault of the class represents it (`None` for
    /// the representative itself, singleton classes and uncollapsed runs).
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
        // A labelled record takes about 200 bytes.
        out.reserve(160 + 200 * self.records.len());
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

/// Collects the [`CoverageMap`]s of the campaigns it is attached to.
///
/// Attach one to a campaign (every `Campaign` builder has a `.coverage()`
/// hook) and read [`CoverageObserver::latest`] after the run. The campaign
/// labels every record, usually `"<line> s-a-<v>"`, and pushes the finished
/// map when it returns `Ok`; a campaign that fails pushes nothing. One
/// observer survives several campaigns back-to-back, and
/// [`CoverageObserver::maps`] returns all maps in run order.
#[derive(Debug, Default)]
pub struct CoverageObserver {
    maps: Mutex<Vec<CoverageMap>>,
}

impl CoverageObserver {
    /// Creates an empty observer.
    #[must_use]
    pub fn new() -> Self {
        CoverageObserver::default()
    }

    /// Appends the finished map of one campaign.
    ///
    /// # Panics
    ///
    /// Panics if the observer lock was poisoned.
    pub fn push(&self, map: CoverageMap) {
        self.maps.lock().expect("coverage lock").push(map);
    }

    /// The most recently finished map, if any campaign has ended.
    ///
    /// # Panics
    ///
    /// Panics if the observer lock was poisoned.
    #[must_use]
    pub fn latest(&self) -> Option<CoverageMap> {
        self.maps.lock().expect("coverage lock").last().cloned()
    }

    /// The most recently finished map, handed over without a copy.
    ///
    /// # Panics
    ///
    /// Panics if the observer lock was poisoned.
    #[must_use]
    pub fn into_latest(self) -> Option<CoverageMap> {
        self.maps.into_inner().expect("coverage lock").pop()
    }

    /// All finished maps, in campaign order.
    ///
    /// # Panics
    ///
    /// Panics if the observer lock was poisoned.
    #[must_use]
    pub fn maps(&self) -> Vec<CoverageMap> {
        self.maps.lock().expect("coverage lock").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(campaign: &str, detected: usize) -> CoverageMap {
        CoverageMap {
            campaign: campaign.to_string(),
            records: vec![FaultRecord {
                fault: 0,
                label: "n1 s-a-1".into(),
                detected,
                first_detected: (detected > 0).then_some(0),
                violations: 0,
                observable: true,
                dropped: false,
                dropped_at: None,
                pairs: 4,
                cone_ops: None,
                ops_skipped: None,
                frontier_died_at_level: None,
                class_rep: None,
                class_size: None,
            }],
            total_faults: 1,
            cancelled: false,
        }
    }

    #[test]
    fn keeps_every_pushed_map_in_campaign_order() {
        let obs = CoverageObserver::new();
        assert!(obs.latest().is_none());
        obs.push(map("pair", 1));
        obs.push(map("seq", 0));
        let maps = obs.maps();
        assert_eq!(maps.len(), 2);
        assert_eq!(maps[0].detected_count(), 1);
        assert_eq!(maps[1].detected_count(), 0);
        assert_eq!(obs.latest().expect("latest").campaign, "seq");
        assert_eq!(obs.into_latest().expect("handed over").campaign, "seq");
    }

    #[test]
    fn undetected_report_names_labels_and_kinds() {
        let m = map("pair", 0);
        let report = m.undetected_report();
        assert!(report.contains("0/1 faults detected"), "{report}");
        assert!(report.contains("#0 n1 s-a-1: masked"), "{report}");
        assert!(map("pair", 1)
            .undetected_report()
            .contains("no undetected faults"));
    }
}
