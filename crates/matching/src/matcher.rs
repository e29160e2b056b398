//! The [`Matcher`] trait and the [`Matching`] result type.

use crate::graph::{BipartiteGraph, TaskIdx, WorkerIdx};
use crate::invariants::MatchingValidator;
use rand::RngCore;

/// Work counters reported by a matcher run, consumed by the
/// observability layer (matcher cycle/flip telemetry).
///
/// The local-search matchers ([`crate::ReactMatcher`],
/// [`crate::MetropolisMatcher`]) fill every field; direct-construction
/// algorithms (greedy, Hungarian, …) leave the default zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Local-search cycles executed.
    pub cycles: u64,
    /// Flips that changed the matching state.
    pub flips_accepted: u64,
    /// Flips attempted but rejected (annealing loss or losing conflict).
    pub flips_rejected: u64,
    /// Conflicting selections that displaced incumbent edges.
    pub conflicts_resolved: u64,
}

/// The result of running a matching algorithm over a bipartite graph.
#[derive(Debug, Clone, Default)]
pub struct Matching {
    /// The selected `(worker, task, weight)` assignments; no worker or
    /// task appears twice.
    pub pairs: Vec<(WorkerIdx, TaskIdx, f64)>,
    /// The achieved objective `Σ w_ij·x_ij`.
    pub total_weight: f64,
    /// Abstract compute cost of the run, fed to the calibrated
    /// [`crate::cost::CostModel`] to charge simulated scheduler time.
    pub cost_units: f64,
    /// Work counters from the run (zeros for matchers that don't
    /// local-search).
    pub stats: MatchStats,
}

impl Matching {
    /// Builds a matching result from pairs, computing the total weight.
    pub fn from_pairs(pairs: Vec<(WorkerIdx, TaskIdx, f64)>, cost_units: f64) -> Self {
        let total_weight = pairs.iter().map(|p| p.2).sum();
        Matching {
            pairs,
            total_weight,
            cost_units,
            stats: MatchStats::default(),
        }
    }

    /// Attaches work counters to the result.
    pub fn with_stats(mut self, stats: MatchStats) -> Self {
        self.stats = stats;
        self
    }

    /// Number of matched pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when no pair was matched.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The task assigned to `worker`, if any (linear scan; results are
    /// small relative to the graphs that produced them).
    pub fn task_of(&self, worker: WorkerIdx) -> Option<TaskIdx> {
        self.pairs
            .iter()
            .find(|(w, _, _)| *w == worker)
            .map(|&(_, t, _)| t)
    }

    /// The worker assigned to `task`, if any.
    pub fn worker_of(&self, task: TaskIdx) -> Option<WorkerIdx> {
        self.pairs
            .iter()
            .find(|(_, t, _)| *t == task)
            .map(|&(w, _, _)| w)
    }

    /// Asserts that this is a valid matching over `graph`, as defined by
    /// [`MatchingValidator::check_matching`]. For tests.
    pub fn verify(&self, graph: &BipartiteGraph) {
        let checked = MatchingValidator::new(graph).check_matching(self);
        assert!(checked.is_ok(), "invalid matching: {checked:?}");
    }
}

/// A weighted-bipartite-matching algorithm.
///
/// Implementations must be deterministic given the same graph and RNG
/// stream, which is what makes the simulation experiments reproducible.
/// A server holds no matcher: it runs its `MatcherPolicy` through a
/// [`crate::MatcherEngine`], which calls Algorithm 1 in kept buffers and
/// the Greedy and random baselines through this trait. The figure and
/// ablation harnesses and the benchmark's probes use the trait to
/// compare algorithms side by side. `Send` is a supertrait so a boxed
/// matcher may cross threads; matchers are plain data, so this costs
/// nothing.
pub trait Matcher: Send {
    /// Computes a matching over `graph`. Deterministic algorithms ignore
    /// `rng`.
    fn assign(&self, graph: &BipartiteGraph, rng: &mut dyn RngCore) -> Matching;

    /// Short human-readable name for experiment tables.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_computes_weight() {
        let m = Matching::from_pairs(
            vec![
                (WorkerIdx(0), TaskIdx(1), 0.5),
                (WorkerIdx(1), TaskIdx(0), 0.25),
            ],
            10.0,
        );
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
        assert!((m.total_weight - 0.75).abs() < 1e-12);
        assert_eq!(m.cost_units, 10.0);
        assert_eq!(m.stats, MatchStats::default());
        let m = m.with_stats(MatchStats {
            cycles: 5,
            flips_accepted: 3,
            flips_rejected: 2,
            conflicts_resolved: 1,
        });
        assert_eq!(m.stats.cycles, 5);
        assert_eq!(m.task_of(WorkerIdx(0)), Some(TaskIdx(1)));
        assert_eq!(m.task_of(WorkerIdx(9)), None);
        assert_eq!(m.worker_of(TaskIdx(0)), Some(WorkerIdx(1)));
        assert_eq!(m.worker_of(TaskIdx(9)), None);
    }

    #[test]
    fn verify_accepts_valid_matching() {
        let g = BipartiteGraph::full(2, 2, |u, v| (u.0 * 2 + v.0) as f64).unwrap();
        let m = Matching::from_pairs(
            vec![
                (WorkerIdx(0), TaskIdx(0), 0.0),
                (WorkerIdx(1), TaskIdx(1), 3.0),
            ],
            0.0,
        );
        m.verify(&g);
    }

    #[test]
    #[should_panic(expected = "WorkerMatchedTwice")]
    fn verify_rejects_duplicate_worker() {
        let g = BipartiteGraph::full(2, 2, |_, _| 1.0).unwrap();
        let m = Matching::from_pairs(
            vec![
                (WorkerIdx(0), TaskIdx(0), 1.0),
                (WorkerIdx(0), TaskIdx(1), 1.0),
            ],
            0.0,
        );
        m.verify(&g);
    }

    #[test]
    #[should_panic(expected = "PhantomEdge")]
    fn verify_rejects_phantom_edge() {
        let g = BipartiteGraph::new(2, 2);
        let m = Matching::from_pairs(vec![(WorkerIdx(0), TaskIdx(0), 1.0)], 0.0);
        m.verify(&g);
    }
}
