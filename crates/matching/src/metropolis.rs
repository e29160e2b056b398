//! The Metropolis matching baseline (Shih 2008).
//!
//! Identical random walk to [`crate::ReactMatcher`] — pick a random edge,
//! flip it, accept improvements, accept deteriorations with probability
//! `e^{Δg/K}` — but **without** REACT's conflict-resolution rule. The
//! paper's stated difference: *"a major difference among our algorithm
//! and the Metropolis is that they do not consider the case for
//! g(x′) = 0 at all"*. A flip that would violate the matching constraints
//! drives the fitness to zero, i.e. `Δg = −g(x)`, and is therefore
//! accepted only with the (vanishing) probability `e^{−g(x)/K}`; in that
//! rare acceptance the conflicting old edges are dropped so the state
//! stays a valid matching.
//!
//! Consequence: once a vertex is matched, conflicting cycles are almost
//! always wasted — the walk cannot *upgrade* an edge the way REACT does,
//! which is exactly why Fig. 4 shows REACT producing higher weight at the
//! same (or a third of the) cycle budget.

use crate::graph::{is_negligible_weight, BipartiteGraph, EdgeId};
use crate::invariants::{debug_check_matching, debug_check_state};
use crate::matcher::{MatchStats, Matcher, Matching};
use crate::state::MatchingState;
use rand::{Rng, RngCore};

/// Configuration and implementation of the Metropolis WBGM baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetropolisMatcher {
    /// Number of flip cycles.
    pub cycles: usize,
    /// Annealing constant `K` (same role as in [`crate::ReactMatcher`]).
    pub k: f64,
}

impl Default for MetropolisMatcher {
    fn default() -> Self {
        MetropolisMatcher {
            cycles: 1000,
            k: 0.05,
        }
    }
}

impl MetropolisMatcher {
    /// Creates a matcher with the given cycle budget and default `K`.
    pub fn with_cycles(cycles: usize) -> Self {
        MetropolisMatcher {
            cycles,
            ..Default::default()
        }
    }

    /// Runs the walk and returns the final state.
    pub fn run_state(&self, graph: &BipartiteGraph, rng: &mut dyn RngCore) -> MatchingState {
        self.run_state_stats(graph, rng).0
    }

    /// Runs the walk and returns the final state together with the work
    /// counters for the observability layer. Counting happens strictly
    /// after each flip decision, so the RNG draw sequence is exactly the
    /// historical one.
    pub fn run_state_stats(
        &self,
        graph: &BipartiteGraph,
        rng: &mut dyn RngCore,
    ) -> (MatchingState, MatchStats) {
        let mut state = MatchingState::new(graph);
        let mut stats = MatchStats::default();
        let n_edges = graph.n_edges();
        if n_edges == 0 {
            return (state, stats);
        }
        for _ in 0..self.cycles {
            stats.cycles += 1;
            let e = EdgeId(rng.gen_range(0..n_edges as u32));
            let weight = graph.edge(e).weight;
            if state.is_selected(graph, e) {
                // Δg = −w. Same negligible-weight short-circuit as REACT
                // (see `ReactMatcher::flip`): a free move is accepted
                // before any RNG draw, keeping runs bit-identical to the
                // old exact-zero comparison on real scheduler weights.
                if is_negligible_weight(weight) || self.accept_worse(-weight, rng) {
                    state.deselect(graph, e);
                    stats.flips_accepted += 1;
                } else {
                    stats.flips_rejected += 1;
                }
                continue;
            }
            match state.conflicts(graph, e) {
                (None, None) => {
                    state.select(graph, e);
                    stats.flips_accepted += 1;
                }
                (cw, ct) => {
                    // g(x′) = 0 → Δg = −g(x). No special handling: treat
                    // it as an ordinary downhill move.
                    if self.accept_worse(-state.fitness(), rng) {
                        if let Some(c) = cw {
                            state.deselect(graph, c);
                        }
                        if let Some(c) = ct {
                            state.deselect(graph, c);
                        }
                        state.select(graph, e);
                        stats.flips_accepted += 1;
                        stats.conflicts_resolved += 1;
                    } else {
                        stats.flips_rejected += 1;
                    }
                }
            }
            debug_check_state("metropolis", graph, &state);
        }
        (state, stats)
    }

    fn accept_worse(&self, delta: f64, rng: &mut dyn RngCore) -> bool {
        let alpha: f64 = rng.gen();
        alpha <= (delta / self.k).exp()
    }
}

impl Matcher for MetropolisMatcher {
    fn assign(&self, graph: &BipartiteGraph, rng: &mut dyn RngCore) -> Matching {
        let (state, stats) = self.run_state_stats(graph, rng);
        let pairs = state
            .selected_edges()
            .into_iter()
            .map(|e| {
                let edge = graph.edge(e);
                (edge.worker, edge.task, edge.weight)
            })
            .collect();
        // Same cost law as REACT: the paper measured near-identical
        // running times for the two at equal cycles.
        let cost = self.cycles as f64 * graph.n_edges() as f64;
        let m = Matching::from_pairs(pairs, cost).with_stats(stats);
        debug_check_matching("metropolis", graph, &m);
        m
    }

    fn name(&self) -> &'static str {
        "metropolis"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{TaskIdx, WorkerIdx};
    use crate::react::ReactMatcher;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(17)
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteGraph::new(3, 3);
        let m = MetropolisMatcher::default().assign(&g, &mut rng());
        assert!(m.is_empty());
    }

    #[test]
    fn produces_valid_matching() {
        let g =
            BipartiteGraph::full(25, 25, |u, v| ((u.0 * 7 + v.0 * 13) % 50) as f64 / 50.0).unwrap();
        let m = MetropolisMatcher::default().assign(&g, &mut rng());
        m.verify(&g);
        assert!(!m.is_empty());
    }

    #[test]
    fn fills_conflict_free_graph() {
        // A perfect-matching-friendly graph (diagonal only) gets fully
        // matched with enough cycles: no conflicts ever arise.
        let mut g = BipartiteGraph::new(10, 10);
        for i in 0..10 {
            g.add_edge(WorkerIdx(i), TaskIdx(i), 1.0).unwrap();
        }
        let m = MetropolisMatcher::with_cycles(2_000).assign(&g, &mut rng());
        assert_eq!(m.len(), 10);
        assert!((m.total_weight - 10.0).abs() < 1e-9);
    }

    #[test]
    fn react_beats_metropolis_at_equal_cycles() {
        // The paper's Fig. 4 headline: REACT yields higher output than
        // Metropolis for the same cycle budget on contended graphs.
        // Average over several seeds to keep the test robust.
        let g = BipartiteGraph::full(40, 40, |u, v| {
            (((u.0 as u64 * 48271 + v.0 as u64 * 16807) % 997) as f64) / 997.0
        })
        .unwrap();
        let cycles = 400; // scarce budget → contention matters
        let (mut react_total, mut metro_total) = (0.0, 0.0);
        for seed in 0..10 {
            react_total += ReactMatcher::with_cycles(cycles)
                .assign(&g, &mut SmallRng::seed_from_u64(seed))
                .total_weight;
            metro_total += MetropolisMatcher::with_cycles(cycles)
                .assign(&g, &mut SmallRng::seed_from_u64(1000 + seed))
                .total_weight;
        }
        assert!(
            react_total > metro_total,
            "REACT ({react_total:.2}) should beat Metropolis ({metro_total:.2})"
        );
    }

    #[test]
    fn cannot_upgrade_contended_edge_cheaply() {
        // Two workers, one task: whichever edge is selected first tends to
        // stay. Metropolis's expected weight must be visibly below the
        // 0.9 optimum (REACT reaches it a.s.), demonstrating the missing
        // g(x')=0 rule.
        let mut g = BipartiteGraph::new(2, 1);
        g.add_edge(WorkerIdx(0), TaskIdx(0), 0.2).unwrap();
        g.add_edge(WorkerIdx(1), TaskIdx(0), 0.9).unwrap();
        let mut picked_light = 0;
        for seed in 0..200 {
            let m =
                MetropolisMatcher::with_cycles(50).assign(&g, &mut SmallRng::seed_from_u64(seed));
            if m.len() == 1 && m.pairs[0].0 == WorkerIdx(0) {
                picked_light += 1;
            }
        }
        assert!(
            picked_light > 20,
            "Metropolis ended on the light edge only {picked_light}/200 times — \
             conflict handling looks too strong for a baseline"
        );
    }

    #[test]
    fn state_stays_consistent() {
        let g = BipartiteGraph::full(12, 18, |u, v| ((u.0 + 2 * v.0) % 9) as f64 / 9.0).unwrap();
        let state = MetropolisMatcher::with_cycles(3_000).run_state(&g, &mut rng());
        state.verify(&g);
    }

    #[test]
    fn cost_units_match_react_law() {
        let g = BipartiteGraph::full(10, 10, |_, _| 0.5).unwrap();
        let m = MetropolisMatcher::with_cycles(50).assign(&g, &mut rng());
        assert_eq!(m.cost_units, 50.0 * 100.0);
        assert_eq!(MetropolisMatcher::default().name(), "metropolis");
    }

    #[test]
    fn stats_account_for_every_cycle() {
        let g =
            BipartiteGraph::full(25, 25, |u, v| ((u.0 * 7 + v.0 * 13) % 50) as f64 / 50.0).unwrap();
        let m = MetropolisMatcher::with_cycles(300).assign(&g, &mut rng());
        assert_eq!(m.stats.cycles, 300);
        assert_eq!(m.stats.flips_accepted + m.stats.flips_rejected, 300);
        assert!(m.stats.flips_accepted > 0);
    }
}
