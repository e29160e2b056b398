//! The matching engine: the scheduler's matcher policies and matcher
//! reuse.
//!
//! * [`MatcherPolicy`] — the closed set of algorithms the scheduler can
//!   run per batch, with their parameters. This is the only place the
//!   set is defined; `react-core` re-exports it for `Config`.
//! * [`MatcherEngine`] — the one way to run a policy: batch after batch
//!   in buffers it keeps (Algorithm 1's matching state, the selected-edge
//!   list and the result's pairs), so a warm batch allocates nothing.
//!
//! All shipped matchers are stateless (`assign` takes `&self`), so
//! running in kept buffers is behaviourally identical to a throwaway
//! matcher — the engine never changes results.

use crate::graph::{BipartiteGraph, EdgeId};
use crate::greedy::GreedyMatcher;
use crate::matcher::{Matcher, Matching};
use crate::random::RandomMatcher;
use crate::react::ReactMatcher;
use crate::state::MatchingState;
use rand::RngCore;
use react_obs::{null_observer, CounterKind, ObserverHandle, SpanKind, SpanTimer};

/// Which matching algorithm the Scheduling Component runs per batch —
/// the three systems of the paper's Figs. 5–10 plus the adaptive cycle
/// count it suggests as future work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MatcherPolicy {
    /// The paper's Algorithm 1 with a fixed cycle budget.
    React {
        /// Flip cycles per batch (paper: 1000).
        cycles: usize,
    },
    /// Algorithm 1 with the adaptive cycle count `c = ⌈κ·|E|⌉`.
    ReactAdaptive {
        /// Cycles per edge.
        kappa: f64,
    },
    /// The `O(V·E)` greedy baseline.
    Greedy,
    /// AMT-style uniform random assignment (no profiling, no model).
    Traditional,
}

impl MatcherPolicy {
    /// Stable name for reports: the [`Matcher::name`] of the algorithm
    /// it runs, which picks its row of [`crate::CostModel`].
    pub fn name(&self) -> &'static str {
        match self {
            MatcherPolicy::React { .. } | MatcherPolicy::ReactAdaptive { .. } => "react",
            MatcherPolicy::Greedy => "greedy",
            MatcherPolicy::Traditional => "traditional",
        }
    }

    /// The cycle budget Algorithm 1 runs with on a graph with `n_edges`
    /// edges, when the policy is cycle-bounded. It depends on `n_edges`
    /// only under [`MatcherPolicy::ReactAdaptive`].
    pub fn cycle_budget(&self, n_edges: usize) -> Option<usize> {
        match *self {
            MatcherPolicy::React { cycles } => Some(cycles),
            MatcherPolicy::ReactAdaptive { kappa } => {
                Some(((n_edges as f64 * kappa).ceil() as usize).max(1))
            }
            MatcherPolicy::Greedy | MatcherPolicy::Traditional => None,
        }
    }

    /// Whether this policy uses the probabilistic deadline model
    /// (edge pruning + in-flight reassignment). The paper pairs the
    /// model with REACT *and* Greedy, but not with the Traditional
    /// system.
    pub fn uses_probabilistic_model(&self) -> bool {
        !matches!(self, MatcherPolicy::Traditional)
    }

    /// Whether this policy assigns only to *available* workers.
    ///
    /// The Traditional comparator simulates AMT-style marketplaces,
    /// which have no availability signal: a task lands on a uniformly
    /// random worker who may already be busy and queues behind their
    /// current work — the main reason the paper's traditional system
    /// misses roughly half its deadlines.
    pub fn uses_availability(&self) -> bool {
        !matches!(self, MatcherPolicy::Traditional)
    }
}

/// Runs a policy's matcher batch after batch in buffers it keeps.
///
/// The cycle budget is a number the engine re-derives per graph
/// ([`MatcherPolicy::cycle_budget`]); [`MatcherEngine::rebuilds`] counts
/// how often it changed, i.e. how often a per-budget matcher would have
/// been rebuilt — never, except for the adaptive policy when the graph's
/// edge count moves its `⌈κ·|E|⌉` budget.
pub struct MatcherEngine {
    policy: MatcherPolicy,
    /// The budget of the last run (`Some(None)` for the budget-free
    /// policies); `None` before the first.
    budget: Option<Option<usize>>,
    rebuilds: u64,
    /// Algorithm 1's state, reset per run in `O(|U| + |V|)`.
    state: MatchingState,
    /// The selected edges in edge-id order, gathered per run.
    selected: Vec<EdgeId>,
    /// The last run's result; its pairs keep their storage.
    matching: Matching,
    observer: ObserverHandle,
}

impl MatcherEngine {
    /// Creates an engine for the policy; nothing is sized until the
    /// first [`MatcherEngine::assign`] call. Telemetry goes to the null
    /// observer unless [`MatcherEngine::with_observer`] routes it.
    pub fn new(policy: MatcherPolicy) -> Self {
        MatcherEngine {
            policy,
            budget: None,
            rebuilds: 0,
            state: MatchingState::default(),
            selected: Vec::new(),
            matching: Matching::default(),
            observer: null_observer(),
        }
    }

    /// Routes this engine's telemetry (assign spans, cycle/flip/rebuild
    /// counters) to `observer`. Observers are write-only sinks and never
    /// influence matching results.
    pub fn with_observer(mut self, observer: ObserverHandle) -> Self {
        self.observer = observer;
        self
    }

    /// Stable algorithm name for reports.
    pub fn name(&self) -> &'static str {
        self.policy.name()
    }

    /// How many times the cycle budget was set — 1 after any number of
    /// same-budget batches; grows only under the adaptive policy as
    /// graphs change size.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Runs one assignment pass over `graph`, drawing from `rng` (the
    /// deterministic algorithms ignore it), and returns the result, which
    /// lives in the engine until the next call.
    pub fn assign<R: RngCore + ?Sized>(
        &mut self,
        graph: &BipartiteGraph,
        rng: &mut R,
    ) -> &Matching {
        let timer = SpanTimer::start(self.observer.as_ref());
        let budget = self.policy.cycle_budget(graph.n_edges());
        let rebuilt = self.budget != Some(budget);
        if rebuilt {
            self.budget = Some(budget);
            self.rebuilds += 1;
        }
        match (budget, self.policy) {
            (Some(cycles), _) => {
                let walk = ReactMatcher::with_cycles(cycles).walk();
                let stats = walk.run_in(graph, &mut self.state, rng);
                walk.write_matching(
                    graph,
                    &self.state,
                    stats,
                    &mut self.selected,
                    &mut self.matching,
                );
            }
            // The baselines allocate their own result; no benchmark
            // workload runs them.
            (None, MatcherPolicy::Traditional) => {
                self.matching = RandomMatcher.assign(graph, &mut &mut *rng);
            }
            (None, _) => self.matching = GreedyMatcher.assign(graph, &mut &mut *rng),
        }
        // Engine-level safety net behind the per-algorithm hooks.
        crate::invariants::debug_check_matching(self.name(), graph, &self.matching);
        timer.finish(self.observer.as_ref(), SpanKind::MatcherAssign);
        if self.observer.enabled() {
            let obs = self.observer.as_ref();
            let stats = self.matching.stats;
            obs.incr(CounterKind::MatcherCycles, stats.cycles);
            obs.incr(CounterKind::FlipsAccepted, stats.flips_accepted);
            obs.incr(CounterKind::FlipsRejected, stats.flips_rejected);
            obs.incr(CounterKind::ConflictsResolved, stats.conflicts_resolved);
            if rebuilt {
                obs.incr(CounterKind::MatcherRebuilds, 1);
            }
        }
        &self.matching
    }
}

impl std::fmt::Debug for MatcherEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MatcherEngine")
            .field("policy", &self.policy)
            .field("budget", &self.budget)
            .field("rebuilds", &self.rebuilds)
            .finish()
    }
}

impl Clone for MatcherEngine {
    /// Clones the policy and observer handle; the buffers and the budget
    /// are memoisation and start empty in the clone (all matchers are
    /// stateless, so this cannot change behaviour).
    fn clone(&self) -> Self {
        MatcherEngine::new(self.policy).with_observer(self.observer.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    const ALL_POLICIES: [MatcherPolicy; 4] = [
        MatcherPolicy::React { cycles: 50 },
        MatcherPolicy::ReactAdaptive { kappa: 0.5 },
        MatcherPolicy::Greedy,
        MatcherPolicy::Traditional,
    ];

    #[test]
    fn only_traditional_skips_the_model_and_availability() {
        for policy in ALL_POLICIES {
            let modelled = policy != MatcherPolicy::Traditional;
            assert_eq!(policy.uses_probabilistic_model(), modelled);
            assert_eq!(policy.uses_availability(), modelled);
        }
    }

    #[test]
    fn adaptive_budget_is_ceil_kappa_edges_clamped_to_one() {
        let adaptive = MatcherPolicy::ReactAdaptive { kappa: 0.5 };
        assert_eq!(adaptive.cycle_budget(200), Some(100));
        assert_eq!(adaptive.cycle_budget(3), Some(2));
        assert_eq!(adaptive.cycle_budget(0), Some(1));
        assert_eq!(
            MatcherPolicy::React { cycles: 7 }.cycle_budget(200),
            Some(7)
        );
        assert_eq!(MatcherPolicy::Greedy.cycle_budget(200), None);
    }

    #[test]
    fn engine_reuses_fixed_budget_matchers() {
        let g = BipartiteGraph::full(4, 4, |u, v| ((u.0 + v.0) % 3) as f64 / 3.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut engine = MatcherEngine::new(MatcherPolicy::React { cycles: 50 });
        for _ in 0..5 {
            engine.assign(&g, &mut rng).verify(&g);
        }
        assert_eq!(engine.rebuilds(), 1, "fixed budget ⇒ built once");
    }

    #[test]
    fn engine_rebuilds_adaptive_only_on_budget_change() {
        let g100 = BipartiteGraph::full(10, 10, |_, _| 0.5).unwrap();
        let g200 = BipartiteGraph::full(20, 10, |_, _| 0.5).unwrap();
        let mut engine = MatcherEngine::new(MatcherPolicy::ReactAdaptive { kappa: 1.0 });
        let mut rng = SmallRng::seed_from_u64(1);
        engine.assign(&g100, &mut rng);
        engine.assign(&g100, &mut rng);
        assert_eq!(engine.rebuilds(), 1);
        engine.assign(&g200, &mut rng); // budget 100 → 200
        assert_eq!(engine.rebuilds(), 2);
        assert_eq!(engine.assign(&g200, &mut rng).stats.cycles, 200);
        assert_eq!(engine.rebuilds(), 2);
        engine.assign(&g100, &mut rng);
        assert_eq!(engine.rebuilds(), 3);
    }

    #[test]
    fn engine_reports_spans_and_counters_to_observer() {
        use react_obs::RecordingObserver;
        use std::sync::Arc;

        let g =
            BipartiteGraph::full(8, 8, |u, v| ((u.0 * 5 + v.0 * 3) % 11) as f64 / 11.0).unwrap();
        let rec = RecordingObserver::new();
        let mut engine = MatcherEngine::new(MatcherPolicy::React { cycles: 40 })
            .with_observer(Arc::new(rec.clone()));
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..3 {
            engine.assign(&g, &mut rng);
        }
        let span = rec
            .span_stats(SpanKind::MatcherAssign)
            .expect("assign span");
        assert_eq!(span.count, 3);
        assert!(span.total_seconds >= 0.0);
        assert_eq!(rec.counter(CounterKind::MatcherCycles), 120);
        assert_eq!(
            rec.counter(CounterKind::FlipsAccepted) + rec.counter(CounterKind::FlipsRejected),
            120
        );
        assert_eq!(rec.counter(CounterKind::MatcherRebuilds), 1);
    }

    #[test]
    fn engine_observer_does_not_change_results() {
        use react_obs::RecordingObserver;
        use std::sync::Arc;

        let g =
            BipartiteGraph::full(6, 6, |u, v| ((u.0 * 7 + v.0 * 3) % 10) as f64 / 10.0).unwrap();
        let policy = MatcherPolicy::React { cycles: 100 };
        let mut plain = MatcherEngine::new(policy);
        let mut observed =
            MatcherEngine::new(policy).with_observer(Arc::new(RecordingObserver::new()));
        let mut rng_a = SmallRng::seed_from_u64(11);
        let mut rng_b = SmallRng::seed_from_u64(11);
        for _ in 0..4 {
            let a = plain.assign(&g, &mut rng_a);
            let b = observed.assign(&g, &mut rng_b);
            assert_eq!(a.pairs, b.pairs);
            assert_eq!(a.total_weight.to_bits(), b.total_weight.to_bits());
        }
    }

    #[test]
    fn engine_clone_resets_cache_not_behaviour() {
        let g = BipartiteGraph::full(3, 3, |_, _| 0.5).unwrap();
        let mut engine = MatcherEngine::new(MatcherPolicy::React { cycles: 20 });
        let mut rng = SmallRng::seed_from_u64(3);
        engine.assign(&g, &mut rng);
        let mut clone = engine.clone();
        assert_eq!(clone.rebuilds(), 0, "clone starts unbuilt");
        let mut a = SmallRng::seed_from_u64(4);
        let mut b = SmallRng::seed_from_u64(4);
        let from_clone = clone.assign(&g, &mut a);
        let from_orig = engine.assign(&g, &mut b);
        assert_eq!(from_clone.pairs, from_orig.pairs);
    }
}
