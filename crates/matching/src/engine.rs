//! The matching engine: policy descriptors and matcher reuse.
//!
//! Earlier revisions dispatched from the middleware configuration
//! straight to concrete matcher constructors and re-`Box`ed a fresh
//! matcher for every batch. This module moves that dispatch down into
//! the matching layer, where it belongs:
//!
//! * [`MatcherSpec`] — a plain-data descriptor of *which* algorithm to
//!   run and with what parameters (the matching-layer mirror of the
//!   middleware's `MatcherPolicy`);
//! * [`MatcherEngine`] — builds the matcher once and reuses it across
//!   batches, rebuilding only when the spec's edge-count-dependent
//!   cycle budget actually changes (only the adaptive spec's does);
//! * [`MatchContext`] — what one assignment pass needs from the caller:
//!   the RNG stream and the edge budget of the graph at hand.
//!
//! All shipped matchers are stateless (`assign` takes `&self`), so
//! reusing a built matcher is behaviourally identical to rebuilding it —
//! the engine is pure memoisation and never changes results.

use crate::auction::AuctionMatcher;
use crate::graph::BipartiteGraph;
use crate::greedy::GreedyMatcher;
use crate::hopcroft_karp::HopcroftKarpMatcher;
use crate::hungarian::HungarianMatcher;
use crate::matcher::{Matcher, Matching};
use crate::metropolis::MetropolisMatcher;
use crate::random::RandomMatcher;
use crate::react::ReactMatcher;
use rand::RngCore;
use react_obs::{null_observer, CounterKind, ObserverHandle, SpanKind, SpanTimer};

/// Everything one assignment pass needs from its caller.
pub struct MatchContext<'a> {
    /// Randomness for the randomized matchers (deterministic algorithms
    /// ignore it).
    pub rng: &'a mut dyn RngCore,
    /// Edge count of the graph about to be matched; sizes adaptive
    /// cycle budgets.
    pub edge_budget: usize,
}

impl<'a> MatchContext<'a> {
    /// Creates a context for a graph with `edge_budget` edges.
    pub fn new(rng: &'a mut dyn RngCore, edge_budget: usize) -> Self {
        MatchContext { rng, edge_budget }
    }
}

/// A plain-data descriptor of a matching algorithm and its parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MatcherSpec {
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
    /// The Metropolis baseline at a fixed cycle budget.
    Metropolis {
        /// Flip cycles per batch.
        cycles: usize,
    },
    /// The `O(V·E)` greedy baseline.
    Greedy,
    /// AMT-style uniform random assignment.
    Traditional,
    /// Exact Hungarian optimum (offline reference).
    Hungarian,
    /// ε-auction extension.
    Auction,
    /// Maximum-cardinality extension (Hopcroft–Karp).
    MaxCardinality,
}

impl MatcherSpec {
    /// Instantiates the matcher. `edge_budget` sizes the adaptive
    /// spec's cycle count; all other specs ignore it.
    pub fn build(&self, edge_budget: usize) -> Box<dyn Matcher> {
        match *self {
            MatcherSpec::React { cycles } => Box::new(ReactMatcher::with_cycles(cycles)),
            MatcherSpec::ReactAdaptive { kappa } => Box::new(ReactMatcher::with_cycles(
                ((edge_budget as f64 * kappa).ceil() as usize).max(1),
            )),
            MatcherSpec::Metropolis { cycles } => Box::new(MetropolisMatcher::with_cycles(cycles)),
            MatcherSpec::Greedy => Box::new(GreedyMatcher),
            MatcherSpec::Traditional => Box::new(RandomMatcher),
            MatcherSpec::Hungarian => Box::new(HungarianMatcher),
            MatcherSpec::Auction => Box::new(AuctionMatcher::default()),
            MatcherSpec::MaxCardinality => Box::new(HopcroftKarpMatcher),
        }
    }

    /// The cycle budget a matcher built for `edge_budget` edges would
    /// run with, when the spec is cycle-bounded. A built matcher stays
    /// valid exactly while this value is unchanged — which for every
    /// spec except [`MatcherSpec::ReactAdaptive`] is forever.
    pub fn cycle_budget(&self, edge_budget: usize) -> Option<usize> {
        match *self {
            MatcherSpec::React { cycles } | MatcherSpec::Metropolis { cycles } => Some(cycles),
            MatcherSpec::ReactAdaptive { kappa } => {
                Some(((edge_budget as f64 * kappa).ceil() as usize).max(1))
            }
            _ => None,
        }
    }

    /// Stable name for reports (matches the built [`Matcher::name`]).
    pub fn name(&self) -> &'static str {
        match self {
            MatcherSpec::React { .. } | MatcherSpec::ReactAdaptive { .. } => "react",
            MatcherSpec::Metropolis { .. } => "metropolis",
            MatcherSpec::Greedy => "greedy",
            MatcherSpec::Traditional => "traditional",
            MatcherSpec::Hungarian => "hungarian",
            MatcherSpec::Auction => "auction",
            MatcherSpec::MaxCardinality => "hopcroft-karp",
        }
    }
}

/// Builds a spec's matcher once and reuses it batch after batch.
///
/// The engine rebuilds only when [`MatcherSpec::cycle_budget`] changes
/// for the edge budget at hand — i.e. never, except for the adaptive
/// spec when the graph's edge count moves its `⌈κ·|E|⌉` budget.
pub struct MatcherEngine {
    spec: MatcherSpec,
    built: Option<(Option<usize>, Box<dyn Matcher>)>,
    rebuilds: u64,
    observer: ObserverHandle,
}

impl MatcherEngine {
    /// Creates an engine for the spec; nothing is built until the first
    /// [`MatcherEngine::matcher`] or [`MatcherEngine::assign`] call.
    /// Telemetry goes to the null observer until
    /// [`MatcherEngine::set_observer`] is called.
    pub fn new(spec: MatcherSpec) -> Self {
        MatcherEngine {
            spec,
            built: None,
            rebuilds: 0,
            observer: null_observer(),
        }
    }

    /// Routes this engine's telemetry (assign spans, cycle/flip/rebuild
    /// counters) to `observer`. Observers are write-only sinks and never
    /// influence matching results.
    pub fn set_observer(&mut self, observer: ObserverHandle) {
        self.observer = observer;
    }

    /// Builder-style variant of [`MatcherEngine::set_observer`].
    pub fn with_observer(mut self, observer: ObserverHandle) -> Self {
        self.set_observer(observer);
        self
    }

    /// The spec this engine runs.
    pub fn spec(&self) -> MatcherSpec {
        self.spec
    }

    /// Stable algorithm name for reports.
    pub fn name(&self) -> &'static str {
        self.spec.name()
    }

    /// How many times a matcher has been constructed — 1 after any
    /// number of same-budget batches; grows only under the adaptive
    /// spec as graphs change size.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// The matcher for a graph with `edge_budget` edges, building or
    /// rebuilding only when required.
    pub fn matcher(&mut self, edge_budget: usize) -> &dyn Matcher {
        let budget = self.spec.cycle_budget(edge_budget);
        let built = match self.built.take() {
            Some(built) if built.0 == budget => built,
            _ => {
                self.rebuilds += 1;
                (budget, self.spec.build(edge_budget))
            }
        };
        self.built.insert(built).1.as_ref()
    }

    /// Runs one assignment pass over `graph` under `ctx`.
    pub fn assign(&mut self, graph: &BipartiteGraph, ctx: &mut MatchContext<'_>) -> Matching {
        let enabled = self.observer.enabled();
        let timer = enabled.then(SpanTimer::start);
        let rebuilds_before = self.rebuilds;
        let m = self.matcher(ctx.edge_budget).assign(graph, ctx.rng);
        // Engine-level safety net behind the per-algorithm hooks.
        crate::invariants::debug_check_matching(self.name(), graph, &m);
        if enabled {
            if let Some(timer) = timer {
                timer.finish(self.observer.as_ref(), SpanKind::MatcherAssign);
            }
            let obs = self.observer.as_ref();
            obs.incr(CounterKind::MatcherCycles, m.stats.cycles);
            obs.incr(CounterKind::FlipsAccepted, m.stats.flips_accepted);
            obs.incr(CounterKind::FlipsRejected, m.stats.flips_rejected);
            obs.incr(CounterKind::ConflictsResolved, m.stats.conflicts_resolved);
            let rebuilt = self.rebuilds - rebuilds_before;
            if rebuilt > 0 {
                obs.incr(CounterKind::MatcherRebuilds, rebuilt);
            }
        }
        m
    }
}

impl std::fmt::Debug for MatcherEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MatcherEngine")
            .field("spec", &self.spec)
            .field("built", &self.built.as_ref().map(|(budget, _)| *budget))
            .field("rebuilds", &self.rebuilds)
            .finish()
    }
}

impl Clone for MatcherEngine {
    /// Clones the spec and observer handle; the built matcher is
    /// memoisation and is rebuilt lazily by the clone (all matchers are
    /// stateless, so this cannot change behaviour).
    fn clone(&self) -> Self {
        MatcherEngine::new(self.spec).with_observer(self.observer.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn all_specs() -> Vec<MatcherSpec> {
        vec![
            MatcherSpec::React { cycles: 50 },
            MatcherSpec::ReactAdaptive { kappa: 0.5 },
            MatcherSpec::Metropolis { cycles: 50 },
            MatcherSpec::Greedy,
            MatcherSpec::Traditional,
            MatcherSpec::Hungarian,
            MatcherSpec::Auction,
            MatcherSpec::MaxCardinality,
        ]
    }

    #[test]
    fn spec_build_matches_names() {
        for spec in all_specs() {
            assert_eq!(spec.build(10).name(), spec.name());
        }
    }

    #[test]
    fn engine_reuses_fixed_budget_matchers() {
        let g = BipartiteGraph::full(4, 4, |u, v| ((u.0 + v.0) % 3) as f64 / 3.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut engine = MatcherEngine::new(MatcherSpec::React { cycles: 50 });
        for _ in 0..5 {
            let mut ctx = MatchContext::new(&mut rng, g.n_edges());
            engine.assign(&g, &mut ctx).verify(&g);
        }
        assert_eq!(engine.rebuilds(), 1, "fixed budget ⇒ built once");
    }

    #[test]
    fn engine_rebuilds_adaptive_only_on_budget_change() {
        let mut engine = MatcherEngine::new(MatcherSpec::ReactAdaptive { kappa: 1.0 });
        engine.matcher(100);
        engine.matcher(100);
        assert_eq!(engine.rebuilds(), 1);
        engine.matcher(200); // budget 100 → 200
        assert_eq!(engine.rebuilds(), 2);
        engine.matcher(200);
        assert_eq!(engine.rebuilds(), 2);
    }

    #[test]
    fn engine_reuse_is_bit_identical_to_rebuilding() {
        let g =
            BipartiteGraph::full(6, 6, |u, v| ((u.0 * 7 + v.0 * 3) % 10) as f64 / 10.0).unwrap();
        for spec in all_specs() {
            let mut engine = MatcherEngine::new(spec);
            let mut rng_a = SmallRng::seed_from_u64(9);
            let mut rng_b = SmallRng::seed_from_u64(9);
            for _ in 0..3 {
                let reused = engine.assign(&g, &mut MatchContext::new(&mut rng_a, g.n_edges()));
                let fresh = spec.build(g.n_edges()).assign(&g, &mut rng_b);
                assert_eq!(reused.pairs, fresh.pairs, "{}", spec.name());
                assert_eq!(reused.total_weight, fresh.total_weight);
            }
        }
    }

    #[test]
    fn engine_reports_spans_and_counters_to_observer() {
        use react_obs::RecordingObserver;
        use std::sync::Arc;

        let g =
            BipartiteGraph::full(8, 8, |u, v| ((u.0 * 5 + v.0 * 3) % 11) as f64 / 11.0).unwrap();
        let rec = RecordingObserver::new();
        let mut engine = MatcherEngine::new(MatcherSpec::React { cycles: 40 })
            .with_observer(Arc::new(rec.clone()));
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..3 {
            engine.assign(&g, &mut MatchContext::new(&mut rng, g.n_edges()));
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
        let spec = MatcherSpec::React { cycles: 100 };
        let mut plain = MatcherEngine::new(spec);
        let mut observed =
            MatcherEngine::new(spec).with_observer(Arc::new(RecordingObserver::new()));
        let mut rng_a = SmallRng::seed_from_u64(11);
        let mut rng_b = SmallRng::seed_from_u64(11);
        for _ in 0..4 {
            let a = plain.assign(&g, &mut MatchContext::new(&mut rng_a, g.n_edges()));
            let b = observed.assign(&g, &mut MatchContext::new(&mut rng_b, g.n_edges()));
            assert_eq!(a.pairs, b.pairs);
            assert_eq!(a.total_weight.to_bits(), b.total_weight.to_bits());
        }
    }

    #[test]
    fn engine_clone_resets_cache_not_behaviour() {
        let g = BipartiteGraph::full(3, 3, |_, _| 0.5).unwrap();
        let mut engine = MatcherEngine::new(MatcherSpec::React { cycles: 20 });
        let mut rng = SmallRng::seed_from_u64(3);
        engine.assign(&g, &mut MatchContext::new(&mut rng, g.n_edges()));
        let mut clone = engine.clone();
        assert_eq!(clone.rebuilds(), 0, "clone starts unbuilt");
        let mut a = SmallRng::seed_from_u64(4);
        let mut b = SmallRng::seed_from_u64(4);
        let from_clone = clone.assign(&g, &mut MatchContext::new(&mut a, g.n_edges()));
        let from_orig = engine.assign(&g, &mut MatchContext::new(&mut b, g.n_edges()));
        assert_eq!(from_clone.pairs, from_orig.pairs);
    }
}
