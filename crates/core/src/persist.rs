//! Worker-profile checkpointing.
//!
//! Crowd-worker profiles are long-lived assets — accuracy histories and
//! execution-time records accumulate over weeks of marketplace activity,
//! and a middleware restart must not reset every worker to "in
//! training". This module serialises a [`ProfilingComponent`] to a
//! versioned, line-oriented text format and restores it exactly
//! (locations, availability excepted — restored workers come back
//! available, matching a reconnect).
//!
//! Format (`reactprofile v1`):
//!
//! ```text
//! reactprofile v1
//! worker <id> <lat> <lon> <assignments> <reward_lo|-> <reward_hi|->
//! cat <id> <category> <finished> <positive>
//! exec <id> <t1> <t2> …
//! ```
//!
//! Floats round-trip exactly via Rust's shortest-representation
//! formatting. No `serde`: the format is three record types over
//! whitespace-separated fields (see the dependency policy in
//! `DESIGN.md`).

use crate::error::CoreError;
use crate::ids::{TaskCategory, WorkerId};
use crate::profiling::ProfilingComponent;
use react_geo::GeoPoint;
use react_prob::EstimatorConfig;
use std::fmt;

/// Parse errors for checkpoint text.
#[derive(Debug, Clone, PartialEq)]
pub enum PersistError {
    /// Missing or unsupported header line.
    BadHeader(String),
    /// A malformed record line (1-based line number + message).
    BadRecord {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A `cat`/`exec` record referenced an undeclared worker.
    UnknownWorker {
        /// 1-based line number.
        line: usize,
        /// The undeclared id.
        id: u64,
    },
    /// A worker id appeared twice.
    Duplicate(CoreError),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::BadHeader(h) => write!(f, "bad checkpoint header: '{h}'"),
            PersistError::BadRecord { line, message } => {
                write!(f, "line {line}: {message}")
            }
            PersistError::UnknownWorker { line, id } => {
                write!(f, "line {line}: worker {id} not declared")
            }
            PersistError::Duplicate(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PersistError {}

const HEADER: &str = "reactprofile v1";

/// Serialises every profile (sorted by worker id) to checkpoint text.
pub fn export_profiles(profiling: &ProfilingComponent) -> String {
    let mut profiles: Vec<_> = profiling.iter().collect();
    profiles.sort_by_key(|p| p.id());
    let mut out = String::from(HEADER);
    out.push('\n');
    for p in &profiles {
        let (lo, hi) = match p.reward_range() {
            Some((lo, hi)) => (lo.to_string(), hi.to_string()),
            None => ("-".to_string(), "-".to_string()),
        };
        out.push_str(&format!(
            "worker {} {} {} {} {} {}\n",
            p.id().0,
            p.location().lat(),
            p.location().lon(),
            p.assignments_served(),
            lo,
            hi
        ));
        for (category, finished, positive) in p.category_stats() {
            out.push_str(&format!(
                "cat {} {} {finished} {positive}\n",
                p.id().0,
                category.0
            ));
        }
        if !p.exec_samples().is_empty() {
            out.push_str(&format!("exec {}", p.id().0));
            for t in p.exec_samples() {
                out.push_str(&format!(" {t}"));
            }
            out.push('\n');
        }
    }
    out
}

/// Restores a [`ProfilingComponent`] from checkpoint text.
pub fn import_profiles(
    text: &str,
    estimator: EstimatorConfig,
) -> Result<ProfilingComponent, PersistError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| PersistError::BadHeader(String::new()))?;
    if header.trim() != HEADER {
        return Err(PersistError::BadHeader(header.to_string()));
    }

    // First pass collects per-worker state, in `worker`-record order, so
    // samples replay in order regardless of record interleaving.
    struct Pending {
        id: u64,
        location: GeoPoint,
        assignments: u64,
        reward_range: Option<(f64, f64)>,
        cats: Vec<(TaskCategory, u64, u64)>,
        exec: Vec<f64>,
    }
    let mut pending: Vec<Pending> = Vec::new();
    let mut index_of: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();

    let bad = |line: usize, message: &str| PersistError::BadRecord {
        line,
        message: message.to_string(),
    };

    for (idx, raw) in lines {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split_whitespace();
        let Some(kind) = fields.next() else { continue };
        match kind {
            "worker" => {
                let parts: Vec<&str> = fields.collect();
                if parts.len() != 6 {
                    return Err(bad(line_no, "worker record needs 6 fields"));
                }
                let id: u64 = parts[0].parse().map_err(|_| bad(line_no, "bad id"))?;
                let lat: f64 = parts[1].parse().map_err(|_| bad(line_no, "bad lat"))?;
                let lon: f64 = parts[2].parse().map_err(|_| bad(line_no, "bad lon"))?;
                let assignments: u64 = parts[3].parse().map_err(|_| bad(line_no, "bad count"))?;
                let reward_range = match (parts[4], parts[5]) {
                    ("-", "-") => None,
                    (lo, hi) => Some((
                        lo.parse().map_err(|_| bad(line_no, "bad reward lo"))?,
                        hi.parse().map_err(|_| bad(line_no, "bad reward hi"))?,
                    )),
                };
                if index_of.insert(id, pending.len()).is_some() {
                    return Err(PersistError::Duplicate(CoreError::DuplicateWorker(
                        WorkerId(id),
                    )));
                }
                pending.push(Pending {
                    id,
                    location: GeoPoint::new(lat, lon),
                    assignments,
                    reward_range,
                    cats: Vec::new(),
                    exec: Vec::new(),
                });
            }
            "cat" => {
                let parts: Vec<&str> = fields.collect();
                if parts.len() != 4 {
                    return Err(bad(line_no, "cat record needs 4 fields"));
                }
                let id: u64 = parts[0].parse().map_err(|_| bad(line_no, "bad id"))?;
                let category: u32 = parts[1].parse().map_err(|_| bad(line_no, "bad category"))?;
                let finished: u64 = parts[2].parse().map_err(|_| bad(line_no, "bad finished"))?;
                let positive: u64 = parts[3].parse().map_err(|_| bad(line_no, "bad positive"))?;
                let p = index_of
                    .get(&id)
                    .and_then(|&i| pending.get_mut(i))
                    .ok_or(PersistError::UnknownWorker { line: line_no, id })?;
                p.cats.push((TaskCategory(category), finished, positive));
            }
            "exec" => {
                let mut parts = fields;
                let id: u64 = parts
                    .next()
                    .ok_or_else(|| bad(line_no, "exec record needs an id"))?
                    .parse()
                    .map_err(|_| bad(line_no, "bad id"))?;
                let p = index_of
                    .get(&id)
                    .and_then(|&i| pending.get_mut(i))
                    .ok_or(PersistError::UnknownWorker { line: line_no, id })?;
                for t in parts {
                    p.exec
                        .push(t.parse().map_err(|_| bad(line_no, "bad sample"))?);
                }
            }
            other => return Err(bad(line_no, &format!("unknown record '{other}'"))),
        }
    }

    let mut profiling = ProfilingComponent::new(estimator);
    for p in pending {
        profiling
            .restore(
                WorkerId(p.id),
                p.location,
                p.assignments,
                p.reward_range,
                &p.cats,
                &p.exec,
            )
            .map_err(PersistError::Duplicate)?;
    }
    Ok(profiling)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TaskCategory;

    fn populated() -> ProfilingComponent {
        let mut p = ProfilingComponent::default();
        p.register(WorkerId(2), GeoPoint::new(37.98, 23.72))
            .unwrap();
        p.register(WorkerId(1), GeoPoint::new(40.64, 22.94))
            .unwrap();
        p.set_reward_range(WorkerId(1), Some((0.05, 0.5))).unwrap();
        for (t, ok) in [(2.5, true), (4.0, false), (8.25, true)] {
            p.record_assignment(WorkerId(1)).unwrap();
            p.record_completion(WorkerId(1), TaskCategory(3), t, ok)
                .unwrap();
        }
        p.record_assignment(WorkerId(2)).unwrap();
        p.record_completion(WorkerId(2), TaskCategory(0), 11.5, true)
            .unwrap();
        p
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let original = populated();
        let text = export_profiles(&original);
        let restored = import_profiles(&text, EstimatorConfig::default()).unwrap();
        assert_eq!(restored.len(), 2);
        for orig in original.iter() {
            let got = restored.profile(orig.id()).unwrap();
            assert_eq!(got.location(), orig.location());
            assert_eq!(got.assignments_served(), orig.assignments_served());
            assert_eq!(got.reward_range(), orig.reward_range());
            assert_eq!(got.category_stats(), orig.category_stats());
            assert_eq!(got.exec_samples(), orig.exec_samples());
            assert_eq!(
                got.accuracy(TaskCategory(3)),
                orig.accuracy(TaskCategory(3))
            );
        }
        // Double round-trip is byte-stable (sorted, canonical floats).
        assert_eq!(export_profiles(&restored), text);
    }

    #[test]
    fn restored_estimator_is_equivalent() {
        let original = populated();
        let mut restored =
            import_profiles(&export_profiles(&original), EstimatorConfig::default()).unwrap();
        let model = restored
            .profile_mut(WorkerId(1))
            .unwrap()
            .exec_model()
            .expect("3 samples restored");
        assert_eq!(model.k_min(), 2.5);
    }

    #[test]
    fn empty_component_roundtrip() {
        let empty = ProfilingComponent::default();
        let text = export_profiles(&empty);
        assert_eq!(text, "reactprofile v1\n");
        let restored = import_profiles(&text, EstimatorConfig::default()).unwrap();
        assert!(restored.is_empty());
    }

    #[test]
    fn rejects_bad_header() {
        assert!(matches!(
            import_profiles("", EstimatorConfig::default()),
            Err(PersistError::BadHeader(_))
        ));
        assert!(matches!(
            import_profiles("profilev9\n", EstimatorConfig::default()),
            Err(PersistError::BadHeader(_))
        ));
    }

    #[test]
    fn rejects_malformed_records() {
        let base = "reactprofile v1\n";
        for (text, expect) in [
            ("worker 1 2.0\n", "6 fields"),
            ("worker x 1 2 3 - -\n", "bad id"),
            ("cat 1 0 5\n", "4 fields"),
            ("bogus 1 2 3\n", "unknown record"),
            ("exec\n", "needs an id"),
        ] {
            let err =
                import_profiles(&format!("{base}{text}"), EstimatorConfig::default()).unwrap_err();
            assert!(
                err.to_string().contains(expect),
                "'{text}' → {err} (expected '{expect}')"
            );
        }
    }

    #[test]
    fn rejects_undeclared_and_duplicate_workers() {
        let err = import_profiles("reactprofile v1\ncat 7 0 1 1\n", EstimatorConfig::default())
            .unwrap_err();
        assert!(matches!(err, PersistError::UnknownWorker { id: 7, .. }));
        let err = import_profiles(
            "reactprofile v1\nworker 1 0 0 0 - -\nworker 1 0 0 0 - -\n",
            EstimatorConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, PersistError::Duplicate(_)));
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "reactprofile v1\n\n# a comment\nworker 5 1.0 2.0 7 - -\n";
        let restored = import_profiles(text, EstimatorConfig::default()).unwrap();
        assert_eq!(restored.len(), 1);
        assert_eq!(
            restored.profile(WorkerId(5)).unwrap().assignments_served(),
            7
        );
    }
}
