//! The REACT Weighted Bipartite Graph Matching algorithm (Algorithm 1)
//! and the Metropolis baseline (Shih 2008) that differs from it in one
//! rule.
//!
//! A randomized local search over matching states `x ∈ {0,1}^{|E|}`. Each
//! of the `c` cycles picks one edge uniformly at random and *flips* it:
//!
//! * **Deselect** (edge was matched): the fitness drops by the edge's
//!   weight, so the flip is only accepted with the annealing probability
//!   `e^{(g(x′)−g(x))/K}`.
//! * **Select, no conflict**: `g(x′) ≥ g(x)` — always accepted.
//! * **Select, conflict** (`g(x′) = 0` in the paper's formulation), the
//!   one arm in which the two matchers differ:
//!   * [`ReactMatcher`] applies the distinctive REACT rule. The weights
//!     `w_kl` of the already-matched edges sharing the new edge's worker
//!     or task are compared against the new weight `w_ij`; if `w_ij`
//!     beats **all** of them, the old edges are removed and the new edge
//!     takes their place; otherwise the flip is rejected.
//!   * [`MetropolisMatcher`] does *"not consider the case for g(x′) = 0
//!     at all"* (the paper's stated difference): the flip is an ordinary
//!     downhill move, `Δg = −g(x)`, accepted only with the (vanishing)
//!     probability `e^{−g(x)/K}`; in that rare acceptance the conflicting
//!     old edges are dropped so the state stays a valid matching.
//!
//! The conflict rule turns conflicting flips into weight *upgrades*
//! instead of wasted cycles, which is why the paper's Fig. 4 shows REACT
//! beating Metropolis at equal (and even a third of the) cycles. Each
//! public matcher type fixes its arm at compile time (the private
//! `Walk`), so neither loop branches on the rule.
//!
//! Cost accounting: the paper's worst-case bound is `O(c·E)` and its
//! measured times scale accordingly (12 s for `c = 1000` on a 10⁶-edge
//! graph, ~45 s for `c = 3000`; Metropolis ran as long at equal cycles);
//! [`Matching::cost_units`] is therefore `c·E` for both, which the
//! calibrated cost model converts to simulated seconds.

use crate::graph::{is_negligible_weight, BipartiteGraph, EdgeId};
use crate::invariants::{debug_check_matching, debug_check_state};
use crate::matcher::{MatchStats, Matcher, Matching};
use crate::state::MatchingState;
use rand::{Rng, RngCore};

/// Annealing constant `K` in the worse-state acceptance probability
/// `e^{Δg/K}`. Weights lie in `[0,1]`, so `K = 0.05` makes a typical
/// full-weight removal survive with probability `e^{-20} ≈ 0`, while
/// near-zero-weight edges stay mobile.
const K: f64 = 0.05;

/// The REACT WBGM heuristic (Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReactMatcher {
    /// Number of flip cycles `c`. The paper uses 1000 in the end-to-end
    /// evaluation and 1000/3000 in the matching micro-benchmarks.
    pub cycles: usize,
}

impl Default for ReactMatcher {
    fn default() -> Self {
        ReactMatcher::with_cycles(1000)
    }
}

impl ReactMatcher {
    /// Creates a matcher with the given cycle budget.
    pub fn with_cycles(cycles: usize) -> Self {
        ReactMatcher { cycles }
    }

    /// The walk this matcher runs: the conflict arm replaces the edges
    /// the new edge beats.
    pub(crate) fn walk(self) -> Walk<true> {
        Walk {
            cycles: self.cycles,
        }
    }
}

impl Matcher for ReactMatcher {
    fn assign(&self, graph: &BipartiteGraph, rng: &mut dyn RngCore) -> Matching {
        self.walk().assign(graph, rng)
    }

    fn name(&self) -> &'static str {
        Walk::<true>::NAME
    }
}

/// The Metropolis WBGM baseline: REACT's walk without the `g(x′) = 0`
/// rule.
///
/// Once a vertex is matched, conflicting cycles are almost always
/// wasted — the walk cannot *upgrade* an edge the way REACT does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetropolisMatcher {
    /// Number of flip cycles.
    pub cycles: usize,
}

impl Default for MetropolisMatcher {
    fn default() -> Self {
        MetropolisMatcher::with_cycles(1000)
    }
}

impl MetropolisMatcher {
    /// Creates a matcher with the given cycle budget.
    pub fn with_cycles(cycles: usize) -> Self {
        MetropolisMatcher { cycles }
    }

    /// The walk this matcher runs: the conflict arm is a downhill step.
    fn walk(self) -> Walk<false> {
        Walk {
            cycles: self.cycles,
        }
    }
}

impl Matcher for MetropolisMatcher {
    fn assign(&self, graph: &BipartiteGraph, rng: &mut dyn RngCore) -> Matching {
        self.walk().assign(graph, rng)
    }

    fn name(&self) -> &'static str {
        Walk::<false>::NAME
    }
}

/// The one annealing walk at a cycle budget. `REPLACE` is its conflict
/// arm: REACT's replacement rule when true, Metropolis's downhill step
/// when false (see the module docs). It is a const, so each matcher's
/// loop compiles with its own arm only.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Walk<const REPLACE: bool> {
    cycles: usize,
}

impl<const REPLACE: bool> Walk<REPLACE> {
    const NAME: &'static str = if REPLACE { "react" } else { "metropolis" };

    /// Runs the walk in fresh buffers.
    fn assign(self, graph: &BipartiteGraph, rng: &mut dyn RngCore) -> Matching {
        let mut state = MatchingState::default();
        let stats = self.run_in(graph, &mut state, rng);
        let mut m = Matching::default();
        let mut selected = Vec::with_capacity(state.size());
        self.write_matching(graph, &state, stats, &mut selected, &mut m);
        m
    }

    /// Runs the walk in `state` — reset for `graph` first, so a caller
    /// that keeps one state across runs allocates nothing once it has
    /// seen its largest graph — and returns the work counters. Generic
    /// over the RNG so a concrete generator is called directly; the draw
    /// sequence is the same whatever type the RNG is reached through.
    pub(crate) fn run_in<R: RngCore + ?Sized>(
        self,
        graph: &BipartiteGraph,
        state: &mut MatchingState,
        rng: &mut R,
    ) -> MatchStats {
        state.reset(graph);
        let mut stats = MatchStats::default();
        let n_edges = graph.n_edges();
        if n_edges == 0 {
            return stats;
        }
        for _ in 0..self.cycles {
            let e = EdgeId(rng.gen_range(0..n_edges as u32));
            Self::flip(graph, state, e, rng, &mut stats);
            stats.cycles += 1;
            debug_check_state(Self::NAME, graph, state);
        }
        stats
    }

    /// Writes the matching `state` holds over `graph` into `out`: pairs in
    /// edge-id order (gathered through `selected`), the total weight, the
    /// `O(c·E)` cost units and `stats`. Both buffers keep their storage.
    pub(crate) fn write_matching(
        self,
        graph: &BipartiteGraph,
        state: &MatchingState,
        stats: MatchStats,
        selected: &mut Vec<EdgeId>,
        out: &mut Matching,
    ) {
        state.selected_edges_into(selected);
        out.pairs.clear();
        out.pairs.extend(selected.iter().map(|&e| {
            let edge = graph.edge(e);
            (edge.worker, edge.task, edge.weight)
        }));
        out.total_weight = out.pairs.iter().map(|p| p.2).sum();
        // Worst-case complexity O(c·E) — see the module docs.
        out.cost_units = self.cycles as f64 * graph.n_edges() as f64;
        out.stats = stats;
        debug_check_matching(Self::NAME, graph, out);
    }

    /// One flip attempt on edge `e`, which is read out of the graph once.
    /// Counting into `stats` happens only after the flip decision, so the
    /// RNG draw sequence is exactly the historical one.
    fn flip<R: RngCore + ?Sized>(
        graph: &BipartiteGraph,
        state: &mut MatchingState,
        e: EdgeId,
        rng: &mut R,
        stats: &mut MatchStats,
    ) {
        let edge = *graph.edge(e);
        let weight = edge.weight;
        // The drawn edge's two slots decide every arm: whether it is
        // held, what it conflicts with and, for REACT, whether it wins.
        let (ws, ts) = state.slots(&edge);
        let held = ts.edge == e.0;
        if REPLACE && !held & !((ws.weight < weight) & (ts.weight < weight)) {
            // REACT's select arm, decided first because most draws lose
            // it: an edge not held goes in iff it beats every matched
            // edge on its worker or task (the g(x′) = 0 case). A free
            // slot's `−∞` loses to every valid weight, so a free
            // endpoint never blocks it, and a tie keeps the incumbent.
            stats.flips_rejected += 1;
            return;
        }
        if held {
            // Flipping off: Δg = −w ≤ 0. A negligible weight is a free
            // move (Δg ≈ 0, acceptance probability e^{Δg/K} ≈ 1) and is
            // accepted outright — crucially *before* any RNG draw, so
            // runs stay bit-identical to the historical exact-zero rule
            // on all weights the scheduler produces. Real deteriorations
            // anneal.
            if is_negligible_weight(weight) || accept_worse(-weight, rng) {
                state.remove(e, &edge);
                stats.flips_accepted += 1;
            } else {
                stats.flips_rejected += 1;
            }
            return;
        }
        // Not held, so neither slot holds `e`: each matched slot is a
        // conflict, and under REACT the edge has beaten both above. With
        // no conflict, Δg = +w ≥ 0 and the flip is accepted.
        let (cw, ct) = (ws.edge(), ts.edge());
        let conflict = cw.is_some() | ct.is_some();
        if !REPLACE && conflict && !accept_worse(-state.fitness(), rng) {
            // Metropolis's conflict arm: an ordinary downhill move,
            // Δg = −g(x).
            stats.flips_rejected += 1;
            return;
        }
        for c in [cw, ct].into_iter().flatten() {
            state.remove(c, graph.edge(c));
        }
        state.insert(e, &edge);
        stats.flips_accepted += 1;
        stats.conflicts_resolved += u64::from(conflict);
    }
}

/// Metropolis acceptance of a fitness drop `delta < 0`: one uniform draw
/// against `e^{delta/K}`.
fn accept_worse<R: RngCore + ?Sized>(delta: f64, rng: &mut R) -> bool {
    let alpha: f64 = rng.gen();
    alpha <= (delta / K).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{TaskIdx, WorkerIdx};
    use crate::invariants::MatchingValidator;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(99)
    }

    #[test]
    fn empty_graph_yields_empty_matching() {
        let g = BipartiteGraph::new(5, 5);
        let m = ReactMatcher::default().assign(&g, &mut rng());
        assert!(m.is_empty());
        assert_eq!(m.total_weight, 0.0);
    }

    #[test]
    fn single_edge_is_selected() {
        let mut g = BipartiteGraph::new(1, 1);
        g.add_edge(WorkerIdx(0), TaskIdx(0), 0.7).unwrap();
        let m = ReactMatcher::with_cycles(50).assign(&g, &mut rng());
        assert_eq!(m.len(), 1);
        assert!((m.total_weight - 0.7).abs() < 1e-12);
        m.verify(&g);
    }

    #[test]
    fn result_satisfies_matching_constraints() {
        let g = BipartiteGraph::full(20, 20, |u, v| ((u.0 * 31 + v.0 * 17) % 100) as f64 / 100.0)
            .unwrap();
        let m = ReactMatcher::default().assign(&g, &mut rng());
        m.verify(&g);
        assert!(m.len() <= 20);
        assert!(!m.is_empty());
    }

    #[test]
    fn conflict_rule_upgrades_to_heavier_edge() {
        // Two workers compete for one task. With enough cycles REACT must
        // end up with the heavier edge thanks to the replacement rule.
        let mut g = BipartiteGraph::new(2, 1);
        g.add_edge(WorkerIdx(0), TaskIdx(0), 0.2).unwrap();
        g.add_edge(WorkerIdx(1), TaskIdx(0), 0.9).unwrap();
        let m = ReactMatcher::with_cycles(200).assign(&g, &mut rng());
        assert_eq!(m.len(), 1);
        assert_eq!(m.pairs[0].0, WorkerIdx(1), "must upgrade to the 0.9 edge");
    }

    #[test]
    fn more_cycles_do_not_hurt_quality() {
        let g = BipartiteGraph::full(50, 50, |u, v| {
            (((u.0 as u64 * 2654435761 + v.0 as u64 * 40503) % 1000) as f64) / 1000.0
        })
        .unwrap();
        let few = ReactMatcher::with_cycles(100).assign(&g, &mut rng());
        let many = ReactMatcher::with_cycles(20_000).assign(&g, &mut rng());
        assert!(
            many.total_weight >= few.total_weight * 0.95,
            "quality collapsed with more cycles: {} vs {}",
            many.total_weight,
            few.total_weight
        );
        assert!(many.len() >= few.len().saturating_sub(2));
    }

    #[test]
    fn approaches_optimum_on_small_graph() {
        // 3×3 with known optimum 0.9+0.8+0.7 = 2.4 on the diagonal.
        let w = [[0.9, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.7]];
        let g = BipartiteGraph::full(3, 3, |u, v| w[u.0 as usize][v.0 as usize]).unwrap();
        let m = ReactMatcher::with_cycles(5_000).assign(&g, &mut rng());
        assert!(
            m.total_weight > 2.3,
            "expected near-optimal 2.4, got {}",
            m.total_weight
        );
    }

    #[test]
    fn cost_units_are_cycles_times_edges() {
        let g = BipartiteGraph::full(10, 10, |_, _| 0.5).unwrap();
        let m = ReactMatcher::with_cycles(77).assign(&g, &mut rng());
        assert_eq!(m.cost_units, 77.0 * 100.0);
    }

    #[test]
    fn deterministic_given_same_seed() {
        let g = BipartiteGraph::full(30, 30, |u, v| ((u.0 ^ v.0) % 7) as f64 / 7.0).unwrap();
        let matcher = ReactMatcher::default();
        let a = matcher.assign(&g, &mut SmallRng::seed_from_u64(5));
        let b = matcher.assign(&g, &mut SmallRng::seed_from_u64(5));
        assert_eq!(a.pairs, b.pairs);
    }

    #[test]
    fn internal_state_stays_consistent() {
        let g = BipartiteGraph::full(15, 12, |u, v| ((u.0 + v.0) % 10) as f64 / 10.0).unwrap();
        let mut state = MatchingState::default();
        ReactMatcher::with_cycles(3_000)
            .walk()
            .run_in(&g, &mut state, &mut rng());
        assert_eq!(MatchingValidator::new(&g).check_state(&state), Ok(()));
    }

    #[test]
    fn name() {
        assert_eq!(ReactMatcher::default().name(), "react");
    }

    #[test]
    fn stats_account_for_every_cycle() {
        let g = BipartiteGraph::full(20, 20, |u, v| ((u.0 * 31 + v.0 * 17) % 100) as f64 / 100.0)
            .unwrap();
        let matcher = ReactMatcher::with_cycles(500);
        let m = matcher.assign(&g, &mut rng());
        assert_eq!(m.stats.cycles, 500);
        assert_eq!(m.stats.flips_accepted + m.stats.flips_rejected, 500);
        assert!(m.stats.flips_accepted > 0);
        assert!(
            m.stats.conflicts_resolved <= m.stats.flips_accepted,
            "every resolution is an accepted flip"
        );
    }

    #[test]
    fn a_reused_state_and_a_concrete_rng_change_nothing() {
        let big = BipartiteGraph::full(30, 30, |u, v| ((u.0 ^ v.0) % 7) as f64 / 7.0).unwrap();
        let small = BipartiteGraph::full(4, 9, |u, v| ((u.0 + v.0) % 5) as f64 / 5.0).unwrap();
        let walk = ReactMatcher::default().walk();
        let mut state = MatchingState::default();
        for g in [&big, &small, &big] {
            let fresh = walk.assign(g, &mut SmallRng::seed_from_u64(5));
            let stats = walk.run_in(g, &mut state, &mut SmallRng::seed_from_u64(5));
            let mut reused = Matching::default();
            walk.write_matching(g, &state, stats, &mut Vec::new(), &mut reused);
            assert_eq!(reused.pairs, fresh.pairs);
            assert_eq!(reused.total_weight.to_bits(), fresh.total_weight.to_bits());
            assert_eq!(reused.stats, fresh.stats);
            assert_eq!(stats.cycles, 1000);
            assert_eq!(MatchingValidator::new(g).check_state(&state), Ok(()));
        }
    }

    fn metropolis_rng() -> SmallRng {
        SmallRng::seed_from_u64(17)
    }

    #[test]
    fn metropolis_empty_graph() {
        let g = BipartiteGraph::new(3, 3);
        let m = MetropolisMatcher::default().assign(&g, &mut metropolis_rng());
        assert!(m.is_empty());
    }

    #[test]
    fn metropolis_produces_valid_matching() {
        let g =
            BipartiteGraph::full(25, 25, |u, v| ((u.0 * 7 + v.0 * 13) % 50) as f64 / 50.0).unwrap();
        let m = MetropolisMatcher::default().assign(&g, &mut metropolis_rng());
        m.verify(&g);
        assert!(!m.is_empty());
    }

    #[test]
    fn metropolis_fills_conflict_free_graph() {
        // A perfect-matching-friendly graph (diagonal only) gets fully
        // matched with enough cycles: no conflicts ever arise.
        let mut g = BipartiteGraph::new(10, 10);
        for i in 0..10 {
            g.add_edge(WorkerIdx(i), TaskIdx(i), 1.0).unwrap();
        }
        let m = MetropolisMatcher::with_cycles(2_000).assign(&g, &mut metropolis_rng());
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
    fn metropolis_cannot_upgrade_contended_edge_cheaply() {
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
    fn metropolis_state_stays_consistent() {
        let g = BipartiteGraph::full(12, 18, |u, v| ((u.0 + 2 * v.0) % 9) as f64 / 9.0).unwrap();
        let mut state = MatchingState::default();
        MetropolisMatcher::with_cycles(3_000)
            .walk()
            .run_in(&g, &mut state, &mut metropolis_rng());
        assert_eq!(MatchingValidator::new(&g).check_state(&state), Ok(()));
    }

    #[test]
    fn metropolis_cost_units_match_react_law() {
        let g = BipartiteGraph::full(10, 10, |_, _| 0.5).unwrap();
        let m = MetropolisMatcher::with_cycles(50).assign(&g, &mut metropolis_rng());
        assert_eq!(m.cost_units, 50.0 * 100.0);
        assert_eq!(MetropolisMatcher::default().name(), "metropolis");
    }

    #[test]
    fn metropolis_stats_account_for_every_cycle() {
        let g =
            BipartiteGraph::full(25, 25, |u, v| ((u.0 * 7 + v.0 * 13) % 50) as f64 / 50.0).unwrap();
        let m = MetropolisMatcher::with_cycles(300).assign(&g, &mut metropolis_rng());
        assert_eq!(m.stats.cycles, 300);
        assert_eq!(m.stats.flips_accepted + m.stats.flips_rejected, 300);
        assert!(m.stats.flips_accepted > 0);
    }
}
