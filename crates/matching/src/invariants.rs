//! Runtime invariant checking for matchings (`debug-invariants`).
//!
//! The WBGM algorithms promise more than an approximate objective value:
//! every result must be a *valid* matching (each worker and task used at
//! most once, every pair a real edge, weights finite and non-negative),
//! and the incremental [`MatchingState`] bookkeeping must never drift —
//! in particular REACT's conflict-resolution rule must never leave a
//! flipped edge dangling (a vertex still pointing at a deselected edge).
//!
//! [`MatchingValidator`] checks those invariants and returns a typed
//! [`InvariantViolation`] instead of asserting, so it is usable from
//! tests and tools. The `debug_check_*` helpers are the hook the matchers
//! call: with the `debug-invariants` feature enabled they validate and
//! abort on violation, without it they compile to nothing — release
//! builds pay zero cost.
//!
//! See DESIGN.md § "Invariants catalog" for the full list and which
//! layer enforces each invariant.

use crate::graph::BipartiteGraph;
use crate::matcher::Matching;
use crate::state::MatchingState;
use std::fmt;

/// True when this crate was built with its `debug-invariants` feature:
/// the `debug_check_*` hooks then validate (and allocate) instead of
/// compiling to nothing. `react-core`'s feature of the same name, which
/// arms that crate's own reference checks, enables this one — so a test
/// about what the hot path costs can tell it is not measuring it.
pub const ARMED: bool = cfg!(feature = "debug-invariants");

/// A violated matching invariant, with enough context to debug it.
#[derive(Debug, Clone, PartialEq)]
pub enum InvariantViolation {
    /// A worker appears in more than one matched pair.
    WorkerMatchedTwice {
        /// The worker index.
        worker: u32,
    },
    /// A task appears in more than one matched pair.
    TaskMatchedTwice {
        /// The task index.
        task: u32,
    },
    /// A matched pair is not an edge of the graph.
    PhantomEdge {
        /// The worker endpoint of the phantom pair.
        worker: u32,
        /// The task endpoint of the phantom pair.
        task: u32,
    },
    /// A matched weight is non-finite or negative.
    BadWeight {
        /// The worker endpoint.
        worker: u32,
        /// The task endpoint.
        task: u32,
        /// The offending weight.
        weight: f64,
    },
    /// A matched weight differs from the graph's edge weight.
    WeightMismatch {
        /// The worker endpoint.
        worker: u32,
        /// The task endpoint.
        task: u32,
        /// The weight recorded in the matching.
        recorded: f64,
        /// The weight stored on the graph edge.
        actual: f64,
    },
    /// `total_weight` disagrees with the sum of pair weights.
    TotalWeightDrift {
        /// The recorded total.
        recorded: f64,
        /// The recomputed sum.
        actual: f64,
    },
    /// A vertex points at an edge that is not selected (a flip left the
    /// edge dangling), or at an edge with a different endpoint.
    DanglingVertex {
        /// Human-readable side + index, e.g. `"worker 3"`.
        vertex: String,
        /// The edge id the vertex erroneously points at.
        edge: u32,
    },
    /// A selected edge whose endpoints do not point back at it.
    UnindexedEdge {
        /// The selected-but-unindexed edge id.
        edge: u32,
    },
    /// The state's incremental fitness drifted from the recomputed sum.
    FitnessDrift {
        /// The incrementally-maintained fitness.
        recorded: f64,
        /// The recomputed fitness.
        actual: f64,
    },
    /// The state's size counter drifted from the selected-edge count.
    SizeDrift {
        /// The maintained size.
        recorded: usize,
        /// The recomputed size.
        actual: usize,
    },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::WorkerMatchedTwice { worker } => {
                write!(f, "worker {worker} matched twice")
            }
            InvariantViolation::TaskMatchedTwice { task } => {
                write!(f, "task {task} matched twice")
            }
            InvariantViolation::PhantomEdge { worker, task } => {
                write!(f, "pair (worker {worker}, task {task}) is not a graph edge")
            }
            InvariantViolation::BadWeight {
                worker,
                task,
                weight,
            } => write!(
                f,
                "pair (worker {worker}, task {task}) has invalid weight {weight}"
            ),
            InvariantViolation::WeightMismatch {
                worker,
                task,
                recorded,
                actual,
            } => write!(
                f,
                "pair (worker {worker}, task {task}) records weight {recorded} but edge has {actual}"
            ),
            InvariantViolation::TotalWeightDrift { recorded, actual } => {
                write!(f, "total_weight {recorded} != pair sum {actual}")
            }
            InvariantViolation::DanglingVertex { vertex, edge } => {
                write!(f, "{vertex} points at edge {edge} which is not selected for it")
            }
            InvariantViolation::UnindexedEdge { edge } => {
                write!(f, "selected edge {edge} not indexed by its endpoints")
            }
            InvariantViolation::FitnessDrift { recorded, actual } => {
                write!(f, "fitness {recorded} drifted from recomputed {actual}")
            }
            InvariantViolation::SizeDrift { recorded, actual } => {
                write!(f, "size {recorded} drifted from recomputed {actual}")
            }
        }
    }
}

impl std::error::Error for InvariantViolation {}

/// Validates matchings and matching states against a graph.
#[derive(Debug, Clone, Copy)]
pub struct MatchingValidator<'g> {
    graph: &'g BipartiteGraph,
}

impl<'g> MatchingValidator<'g> {
    /// A validator for matchings over `graph`.
    pub fn new(graph: &'g BipartiteGraph) -> Self {
        MatchingValidator { graph }
    }

    /// Checks a final [`Matching`]: 1-to-1 constraints, edge existence,
    /// weight validity and total-weight consistency.
    pub fn check_matching(&self, m: &Matching) -> Result<(), InvariantViolation> {
        let mut worker_seen = vec![false; self.graph.n_workers()];
        let mut task_seen = vec![false; self.graph.n_tasks()];
        let mut total = 0.0;
        for &(w, t, weight) in &m.pairs {
            let (wi, ti) = (w.0 as usize, t.0 as usize);
            if wi >= worker_seen.len() || ti >= task_seen.len() {
                return Err(InvariantViolation::PhantomEdge {
                    worker: w.0,
                    task: t.0,
                });
            }
            if worker_seen[wi] {
                return Err(InvariantViolation::WorkerMatchedTwice { worker: w.0 });
            }
            if task_seen[ti] {
                return Err(InvariantViolation::TaskMatchedTwice { task: t.0 });
            }
            worker_seen[wi] = true;
            task_seen[ti] = true;
            if !weight.is_finite() || weight < 0.0 {
                return Err(InvariantViolation::BadWeight {
                    worker: w.0,
                    task: t.0,
                    weight,
                });
            }
            let Some(e) = self.graph.find_edge(w, t) else {
                return Err(InvariantViolation::PhantomEdge {
                    worker: w.0,
                    task: t.0,
                });
            };
            let actual = self.graph.edge(e).weight;
            if (actual - weight).abs() > 1e-12 {
                return Err(InvariantViolation::WeightMismatch {
                    worker: w.0,
                    task: t.0,
                    recorded: weight,
                    actual,
                });
            }
            total += weight;
        }
        if (total - m.total_weight).abs() > 1e-9 * (1.0 + total.abs()) {
            return Err(InvariantViolation::TotalWeightDrift {
                recorded: m.total_weight,
                actual: total,
            });
        }
        Ok(())
    }

    /// Checks an in-flight [`MatchingState`] after a flip: every vertex
    /// index points at a selected edge of which it is an endpoint (the
    /// conflict rule left nothing dangling), every selected edge — the
    /// ones the task side holds — is indexed by both endpoints, and
    /// fitness/size have not drifted.
    pub fn check_state(&self, state: &MatchingState) -> Result<(), InvariantViolation> {
        use crate::graph::{TaskIdx, WorkerIdx};
        for w in 0..self.graph.n_workers() {
            if let Some(e) = state.worker_match(WorkerIdx(w as u32)) {
                let edge = self.graph.edge(e);
                if !state.holds(e, edge) || edge.worker.0 as usize != w {
                    return Err(InvariantViolation::DanglingVertex {
                        vertex: format!("worker {w}"),
                        edge: e.0,
                    });
                }
            }
        }
        for t in 0..self.graph.n_tasks() {
            if let Some(e) = state.task_match(TaskIdx(t as u32)) {
                // Its worker's side is the selected-edge pass below.
                if self.graph.edge(e).task.0 as usize != t {
                    return Err(InvariantViolation::DanglingVertex {
                        vertex: format!("task {t}"),
                        edge: e.0,
                    });
                }
            }
        }
        let mut fitness = 0.0;
        let selected = state.selected_edges();
        for &e in &selected {
            let edge = self.graph.edge(e);
            if state.worker_match(edge.worker) != Some(e) || state.task_match(edge.task) != Some(e)
            {
                return Err(InvariantViolation::UnindexedEdge { edge: e.0 });
            }
            fitness += edge.weight;
        }
        if selected.len() != state.size() {
            return Err(InvariantViolation::SizeDrift {
                recorded: state.size(),
                actual: selected.len(),
            });
        }
        if (fitness - state.fitness()).abs() > 1e-9 * (1.0 + fitness.abs()) {
            return Err(InvariantViolation::FitnessDrift {
                recorded: state.fitness(),
                actual: fitness,
            });
        }
        Ok(())
    }
}

/// Validates a matcher's final result when `debug-invariants` is on;
/// a no-op (and zero cost) otherwise. `who` names the matcher in the
/// abort message.
#[cfg(feature = "debug-invariants")]
// The invariant layer's whole job is to abort on corrupted matchings.
#[allow(clippy::panic)]
pub fn debug_check_matching(who: &str, graph: &BipartiteGraph, m: &Matching) {
    if let Err(violation) = MatchingValidator::new(graph).check_matching(m) {
        panic!("{who}: matching invariant violated: {violation}");
    }
}

/// See [`debug_check_matching`] — disabled-feature stub.
#[cfg(not(feature = "debug-invariants"))]
#[inline(always)]
pub fn debug_check_matching(_who: &str, _graph: &BipartiteGraph, _m: &Matching) {}

/// Validates an in-flight matching state (called per flip cycle by the
/// randomized matchers in debug/test builds).
#[cfg(all(feature = "debug-invariants", debug_assertions))]
// The invariant layer's whole job is to abort on corrupted state.
#[allow(clippy::panic)]
pub fn debug_check_state(who: &str, graph: &BipartiteGraph, state: &MatchingState) {
    if let Err(violation) = MatchingValidator::new(graph).check_state(state) {
        panic!("{who}: state invariant violated: {violation}");
    }
}

/// See [`debug_check_state`] — disabled stub (release or feature off).
#[cfg(not(all(feature = "debug-invariants", debug_assertions)))]
#[inline(always)]
pub fn debug_check_state(_who: &str, _graph: &BipartiteGraph, _state: &MatchingState) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{TaskIdx, WorkerIdx};
    use crate::matcher::Matching;

    fn graph() -> BipartiteGraph {
        BipartiteGraph::full(3, 3, |u, v| ((u.0 * 3 + v.0) as f64) / 10.0).unwrap()
    }

    #[test]
    fn valid_matching_passes() {
        let g = graph();
        let m = Matching::from_pairs(
            vec![
                (WorkerIdx(0), TaskIdx(1), 0.1),
                (WorkerIdx(1), TaskIdx(0), 0.3),
            ],
            0.0,
        );
        assert_eq!(MatchingValidator::new(&g).check_matching(&m), Ok(()));
    }

    #[test]
    fn duplicate_worker_caught() {
        let g = graph();
        let m = Matching::from_pairs(
            vec![
                (WorkerIdx(0), TaskIdx(0), 0.0),
                (WorkerIdx(0), TaskIdx(1), 0.1),
            ],
            0.0,
        );
        assert_eq!(
            MatchingValidator::new(&g).check_matching(&m),
            Err(InvariantViolation::WorkerMatchedTwice { worker: 0 })
        );
    }

    #[test]
    fn duplicate_task_caught() {
        let g = graph();
        let m = Matching::from_pairs(
            vec![
                (WorkerIdx(0), TaskIdx(1), 0.1),
                (WorkerIdx(1), TaskIdx(1), 0.4),
            ],
            0.0,
        );
        assert_eq!(
            MatchingValidator::new(&g).check_matching(&m),
            Err(InvariantViolation::TaskMatchedTwice { task: 1 })
        );
    }

    #[test]
    fn phantom_edge_caught() {
        let g = BipartiteGraph::new(2, 2); // no edges at all
        let m = Matching::from_pairs(vec![(WorkerIdx(0), TaskIdx(0), 0.5)], 0.0);
        assert_eq!(
            MatchingValidator::new(&g).check_matching(&m),
            Err(InvariantViolation::PhantomEdge { worker: 0, task: 0 })
        );
        // Out-of-range vertices are phantom too.
        let m = Matching::from_pairs(vec![(WorkerIdx(7), TaskIdx(0), 0.5)], 0.0);
        assert!(matches!(
            MatchingValidator::new(&g).check_matching(&m),
            Err(InvariantViolation::PhantomEdge { worker: 7, .. })
        ));
    }

    #[test]
    fn bad_and_mismatched_weights_caught() {
        let g = graph();
        let m = Matching::from_pairs(vec![(WorkerIdx(0), TaskIdx(1), f64::NAN)], 0.0);
        assert!(matches!(
            MatchingValidator::new(&g).check_matching(&m),
            Err(InvariantViolation::BadWeight { .. })
        ));
        let m = Matching::from_pairs(vec![(WorkerIdx(0), TaskIdx(1), 0.9)], 0.0);
        assert!(matches!(
            MatchingValidator::new(&g).check_matching(&m),
            Err(InvariantViolation::WeightMismatch { .. })
        ));
    }

    #[test]
    fn total_weight_drift_caught() {
        let g = graph();
        let mut m = Matching::from_pairs(vec![(WorkerIdx(0), TaskIdx(1), 0.1)], 0.0);
        m.total_weight = 5.0;
        assert!(matches!(
            MatchingValidator::new(&g).check_matching(&m),
            Err(InvariantViolation::TotalWeightDrift { .. })
        ));
    }

    #[test]
    fn consistent_state_passes() {
        let g = graph();
        let mut s = MatchingState::new(&g);
        let e = g.find_edge(WorkerIdx(0), TaskIdx(2)).unwrap();
        s.insert(e, g.edge(e));
        let e = g.find_edge(WorkerIdx(1), TaskIdx(0)).unwrap();
        s.insert(e, g.edge(e));
        assert_eq!(MatchingValidator::new(&g).check_state(&s), Ok(()));
    }

    /// The state holds no per-edge vector to cross-check its two indices
    /// against, so each must be held to the other.
    #[test]
    fn desynchronised_state_caught_from_either_side() {
        let g = graph();
        let mut consistent = MatchingState::new(&g);
        let e = g.find_edge(WorkerIdx(0), TaskIdx(2)).unwrap();
        consistent.insert(e, g.edge(e));
        let stray = g.find_edge(WorkerIdx(1), TaskIdx(0)).unwrap();
        let validator = MatchingValidator::new(&g);

        // A worker entry without its task twin.
        let mut s = consistent.clone();
        s.desync_worker(WorkerIdx(1), Some(stray));
        assert_eq!(
            validator.check_state(&s),
            Err(InvariantViolation::DanglingVertex {
                vertex: "worker 1".into(),
                edge: stray.0,
            })
        );
        // A task entry without its worker twin.
        let mut s = consistent.clone();
        s.desync_task(TaskIdx(0), Some(stray));
        assert_eq!(
            validator.check_state(&s),
            Err(InvariantViolation::UnindexedEdge { edge: stray.0 })
        );
        // A vertex holding an edge that is not its own.
        let mut s = consistent.clone();
        s.desync_task(TaskIdx(1), Some(stray));
        assert!(matches!(
            validator.check_state(&s),
            Err(InvariantViolation::DanglingVertex { ref vertex, .. }) if vertex == "task 1"
        ));
        // A half-removed edge: the task let go, the worker did not.
        let mut s = consistent.clone();
        s.desync_task(TaskIdx(2), None);
        assert!(matches!(
            validator.check_state(&s),
            Err(InvariantViolation::DanglingVertex { ref vertex, .. }) if vertex == "worker 0"
        ));
        assert_eq!(validator.check_state(&consistent), Ok(()));
    }

    #[test]
    fn violation_messages_are_informative() {
        let msgs = [
            InvariantViolation::WorkerMatchedTwice { worker: 3 }.to_string(),
            InvariantViolation::DanglingVertex {
                vertex: "task 2".into(),
                edge: 9,
            }
            .to_string(),
            InvariantViolation::FitnessDrift {
                recorded: 1.0,
                actual: 2.0,
            }
            .to_string(),
        ];
        assert!(msgs[0].contains("worker 3"));
        assert!(msgs[1].contains("task 2") && msgs[1].contains('9'));
        assert!(msgs[2].contains("drifted"));
    }
}
