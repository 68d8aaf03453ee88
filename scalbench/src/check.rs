//! Output checks against references from independent oracles.
//!
//! A coverage map is reduced to one canonical line per fault record,
//! keeping only the backend-independent content that
//! [`scal_obs::CoverageMap::without_annotations`] keeps. References come
//! from the oracles, never from the path being timed: the scalar pair
//! backend, [`scal_seq::SeqBackend::Graph`], and a collapse-off CPU run.
//! References for fixed inputs are committed under `refs/`; references for
//! seeded inputs are made by the same oracles before set-up.

use crate::harness::Mismatch;
use scal_obs::json::JsonValue;
use scal_obs::CoverageMap;

/// How much of each record a check compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Projection {
    /// Every backend-independent field.
    Full,
    /// Fault, label, detected and first detecting pair: what a
    /// fault-dropping run shares with an exhaustive oracle run (dropping
    /// cuts detection counts, violations and pair counts short).
    Verdict,
}

/// A reference coverage map in canonical form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// Faults the campaign queued.
    pub total_faults: usize,
    /// One canonical line per record (see [`Reference::of_map`]).
    pub lines: Vec<String>,
}

fn opt<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map_or_else(|| "-".to_string(), |v| v.to_string())
}

/// The canonical line of one record: tab-separated fault index, label,
/// detections, first detecting pair, violations, observable, dropped,
/// drop batch and pairs (`-` for an absent value).
#[allow(clippy::too_many_arguments)]
fn line(
    fault: u64,
    label: &str,
    detections: u64,
    first_pair: Option<u64>,
    violations: u64,
    observable: bool,
    dropped: bool,
    dropped_at: Option<u64>,
    pairs: u64,
) -> String {
    format!(
        "{fault}\t{label}\t{detections}\t{}\t{violations}\t{}\t{}\t{}\t{pairs}",
        opt(first_pair),
        u8::from(observable),
        u8::from(dropped),
        opt(dropped_at)
    )
}

impl Reference {
    /// The canonical form of `map` (annotations stripped).
    #[must_use]
    pub fn of_map(map: &CoverageMap) -> Self {
        let map = map.without_annotations();
        Reference {
            total_faults: map.total_faults,
            lines: map
                .records
                .iter()
                .map(|r| {
                    line(
                        r.fault as u64,
                        &r.label,
                        r.detected as u64,
                        r.first_detected.map(u64::from),
                        r.violations as u64,
                        r.observable,
                        r.dropped,
                        r.dropped_at.map(|b| b as u64),
                        r.pairs,
                    )
                })
                .collect(),
        }
    }

    /// The canonical form of the `coverage` object of a serve `result`
    /// frame.
    ///
    /// # Errors
    ///
    /// Describes the first missing or mistyped field.
    pub fn of_json(cov: &JsonValue) -> Result<Self, String> {
        let num = |v: &JsonValue, k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(JsonValue::as_f64)
                .map(|n| n as u64)
                .ok_or_else(|| format!("coverage field {k:?} missing"))
        };
        let flag = |v: &JsonValue, k: &str| -> Result<bool, String> {
            match v.get(k) {
                Some(JsonValue::Bool(b)) => Ok(*b),
                _ => Err(format!("coverage field {k:?} missing")),
            }
        };
        let records = cov
            .get("records")
            .and_then(JsonValue::as_array)
            .ok_or("coverage has no records")?;
        let mut lines = Vec::with_capacity(records.len());
        for r in records {
            lines.push(line(
                num(r, "fault")?,
                r.get("label").and_then(JsonValue::as_str).unwrap_or(""),
                num(r, "detections")?,
                num(r, "first_pair").ok(),
                num(r, "violations")?,
                flag(r, "observable")?,
                flag(r, "dropped")?,
                num(r, "dropped_at").ok(),
                num(r, "pairs")?,
            ));
        }
        Ok(Reference {
            total_faults: num(cov, "total_faults")? as usize,
            lines,
        })
    }

    /// Faults no pair detected.
    #[must_use]
    pub fn undetected(&self) -> usize {
        self.lines
            .iter()
            .filter(|l| l.split('\t').nth(2) == Some("0"))
            .count()
    }

    /// The reference file form: a `total_faults` header, then the lines.
    #[must_use]
    pub fn to_file(&self) -> String {
        let mut s = format!("total_faults\t{}\n", self.total_faults);
        for l in &self.lines {
            s.push_str(l);
            s.push('\n');
        }
        s
    }

    /// Parses [`Reference::to_file`] output.
    ///
    /// # Panics
    ///
    /// Panics on a malformed file: references are part of the benchmark's
    /// source.
    #[must_use]
    pub fn from_file(text: &str) -> Self {
        let mut lines = text.lines();
        let total_faults = lines
            .next()
            .and_then(|h| h.strip_prefix("total_faults\t"))
            .and_then(|n| n.parse().ok())
            .expect("reference file starts with a total_faults header");
        Reference {
            total_faults,
            lines: lines.map(str::to_string).collect(),
        }
    }

    /// Compares `got` to this reference under `proj`.
    ///
    /// # Errors
    ///
    /// Describes the first differing fault record.
    pub fn check(&self, got: &Reference, proj: Projection) -> Result<(), String> {
        if got.total_faults != self.total_faults || got.lines.len() != self.lines.len() {
            return Err(format!(
                "{} records of {} faults, reference has {} of {}",
                got.lines.len(),
                got.total_faults,
                self.lines.len(),
                self.total_faults
            ));
        }
        for (want, have) in self.lines.iter().zip(&got.lines) {
            if project(want, proj) != project(have, proj) {
                return Err(format!(
                    "first differing fault: want [{}] got [{}]",
                    want.replace('\t', " "),
                    have.replace('\t', " ")
                ));
            }
        }
        Ok(())
    }

    /// [`Reference::check`] under `proj`; on a difference, also whether
    /// the per-fault verdicts still match.
    ///
    /// # Errors
    ///
    /// The first differing fault record.
    pub fn compare(&self, got: &Reference, proj: Projection) -> Result<(), Mismatch> {
        self.check(got, proj).map_err(|what| Mismatch {
            what,
            verdicts_match: proj == Projection::Full
                && self.check(got, Projection::Verdict).is_ok(),
        })
    }
}

fn project(line: &str, proj: Projection) -> String {
    match proj {
        Projection::Full => line.to_string(),
        Projection::Verdict => {
            let f: Vec<&str> = line.split('\t').collect();
            let detected = f.get(2).is_some_and(|d| *d != "0");
            format!(
                "{}\t{}\t{}\t{}",
                f.first().unwrap_or(&""),
                f.get(1).unwrap_or(&""),
                u8::from(detected),
                f.get(3).unwrap_or(&"")
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scal_obs::FaultRecord;

    fn map() -> CoverageMap {
        let rec = |fault, detected, first| FaultRecord {
            fault,
            label: format!("n{fault} s-a-0"),
            detected,
            first_detected: first,
            violations: 0,
            observable: true,
            dropped: false,
            dropped_at: None,
            pairs: 4,
            cone_ops: Some(9),
            ops_skipped: None,
            frontier_died_at_level: None,
            class_rep: Some(0),
            class_size: Some(2),
        };
        CoverageMap {
            campaign: "pair".into(),
            records: vec![rec(0, 2, Some(1)), rec(1, 0, None)],
            total_faults: 2,
            cancelled: false,
        }
    }

    #[test]
    fn map_json_and_file_forms_agree() {
        let m = map();
        let r = Reference::of_map(&m);
        let json = scal_obs::json::parse(&m.to_json()).expect("map json");
        assert_eq!(Reference::of_json(&json), Ok(r.clone()));
        assert_eq!(Reference::from_file(&r.to_file()), r);
        assert_eq!(r.undetected(), 1);
    }

    #[test]
    fn check_names_the_first_differing_fault() {
        let r = Reference::of_map(&map());
        let mut m = map();
        m.records[1].detected = 1;
        m.records[1].first_detected = Some(3);
        let err = r
            .check(&Reference::of_map(&m), Projection::Full)
            .unwrap_err();
        assert!(err.contains("n1 s-a-0"), "{err}");
        // A verdict check ignores counts but not the verdict.
        m.records[0].detected = 5;
        m.records[1] = map().records[1].clone();
        assert!(r.check(&Reference::of_map(&m), Projection::Verdict).is_ok());
        assert!(r.check(&Reference::of_map(&m), Projection::Full).is_err());
    }
}
