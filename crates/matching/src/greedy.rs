//! The Greedy matching baseline.
//!
//! *"The basic idea of the Greedy matching is to select the edge
//! (worker_i, task_j) for any unassigned task_j ∈ V with the highest
//! weight w_ij, that is subject to the constraints defined for the WBGM.
//! The complexity of such an approach is O(V·E)."*
//!
//! Each task, in arrival order, claims the highest-weight edge to a still
//! free worker. Quality is near-optimal on dense graphs (plenty of free
//! workers with near-maximal weights remain available), but the `O(V·E)`
//! cost is what makes Greedy collapse under load in the paper's Figs.
//! 5–10; [`Matching::cost_units`] is accordingly `|V|·|E|` even though
//! this Rust implementation only walks each task's own adjacency list.

use crate::graph::{BipartiteGraph, TaskIdx};
use crate::invariants::debug_check_matching;
use crate::matcher::{Matcher, Matching};
use rand::RngCore;

/// The greedy per-task max-weight matcher.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GreedyMatcher;

impl Matcher for GreedyMatcher {
    fn assign(&self, graph: &BipartiteGraph, _rng: &mut dyn RngCore) -> Matching {
        let mut worker_taken = vec![false; graph.n_workers()];
        let mut pairs = Vec::new();
        for v in 0..graph.n_tasks() {
            let task = TaskIdx(v as u32);
            let best = graph
                .task_edges(task)
                .iter()
                .map(|&e| graph.edge(e))
                .filter(|edge| !worker_taken[edge.worker.0 as usize])
                // Ties broken toward the lower worker index for
                // determinism (max_by keeps the *last* max, so compare
                // (weight, Reverse(idx)) explicitly).
                // The graph only holds finite weights ≥ 0, where
                // total_cmp is the numeric order.
                .max_by(|a, b| {
                    a.weight
                        .total_cmp(&b.weight)
                        .then(b.worker.0.cmp(&a.worker.0))
                });
            if let Some(edge) = best {
                worker_taken[edge.worker.0 as usize] = true;
                pairs.push((edge.worker, edge.task, edge.weight));
            }
        }
        let cost = graph.n_tasks() as f64 * graph.n_edges() as f64;
        let m = Matching::from_pairs(pairs, cost);
        debug_check_matching("greedy", graph, &m);
        m
    }

    fn name(&self) -> &'static str {
        "greedy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::WorkerIdx;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1)
    }

    /// The matched `(worker, task)` pairs, in task order.
    fn by_task(m: &Matching) -> Vec<(WorkerIdx, TaskIdx)> {
        let mut pairs: Vec<_> = m.pairs.iter().map(|&(w, t, _)| (w, t)).collect();
        pairs.sort_by_key(|&(_, t)| t);
        pairs
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteGraph::new(4, 4);
        let m = GreedyMatcher.assign(&g, &mut rng());
        assert!(m.is_empty());
        assert_eq!(m.cost_units, 0.0);
    }

    #[test]
    fn picks_heaviest_free_worker_per_task() {
        let mut g = BipartiteGraph::new(2, 2);
        g.add_edge(WorkerIdx(0), TaskIdx(0), 0.9).unwrap();
        g.add_edge(WorkerIdx(1), TaskIdx(0), 0.5).unwrap();
        g.add_edge(WorkerIdx(0), TaskIdx(1), 0.8).unwrap();
        g.add_edge(WorkerIdx(1), TaskIdx(1), 0.1).unwrap();
        let m = GreedyMatcher.assign(&g, &mut rng());
        // Task 0 takes worker 0 (0.9); task 1 must settle for worker 1.
        assert_eq!(
            by_task(&m),
            [(WorkerIdx(0), TaskIdx(0)), (WorkerIdx(1), TaskIdx(1))]
        );
        assert!((m.total_weight - 1.0).abs() < 1e-12);
        m.verify(&g);
    }

    #[test]
    fn greedy_is_order_dependent_not_optimal() {
        // Optimal pairs task0→w1 (0.8), task1→w0 (0.9) for 1.7;
        // greedy gives task0→w0 (0.9), task1→w1 (0.2) for 1.1.
        let mut g = BipartiteGraph::new(2, 2);
        g.add_edge(WorkerIdx(0), TaskIdx(0), 0.9).unwrap();
        g.add_edge(WorkerIdx(1), TaskIdx(0), 0.8).unwrap();
        g.add_edge(WorkerIdx(0), TaskIdx(1), 0.9).unwrap();
        g.add_edge(WorkerIdx(1), TaskIdx(1), 0.2).unwrap();
        let m = GreedyMatcher.assign(&g, &mut rng());
        assert!((m.total_weight - 1.1).abs() < 1e-12);
    }

    #[test]
    fn near_optimal_on_dense_graph() {
        // The paper's Fig. 4 observation: on a full graph with many
        // workers per task, greedy is almost optimal (≈ one weight-1.0
        // edge per task available).
        let mut w_rng = SmallRng::seed_from_u64(2024);
        let g = BipartiteGraph::full(100, 20, |_, _| {
            use rand::Rng;
            w_rng.gen::<f64>()
        })
        .unwrap();
        let m = GreedyMatcher.assign(&g, &mut rng());
        assert_eq!(m.len(), 20);
        assert!(
            m.total_weight > 0.95 * 20.0,
            "greedy should be near-optimal on dense graphs, got {}",
            m.total_weight
        );
        m.verify(&g);
    }

    #[test]
    fn more_tasks_than_workers() {
        let g = BipartiteGraph::full(3, 10, |_, v| 1.0 - v.0 as f64 / 100.0).unwrap();
        let m = GreedyMatcher.assign(&g, &mut rng());
        assert_eq!(m.len(), 3, "only |U| tasks can be matched");
        m.verify(&g);
    }

    #[test]
    fn deterministic_tie_break_toward_lower_worker() {
        // 0.0 is a weight the graph accepts: an all-zero tie must still
        // match, and toward the lower index.
        for weight in [0.5, 0.0] {
            let mut g = BipartiteGraph::new(4, 2);
            g.add_edge(WorkerIdx(2), TaskIdx(0), weight).unwrap();
            g.add_edge(WorkerIdx(0), TaskIdx(0), weight).unwrap();
            g.add_edge(WorkerIdx(1), TaskIdx(0), weight).unwrap();
            // A heavier edge beats a tie among lighter, lower-indexed ones.
            g.add_edge(WorkerIdx(1), TaskIdx(1), weight).unwrap();
            g.add_edge(WorkerIdx(3), TaskIdx(1), weight + 0.25).unwrap();
            let m = GreedyMatcher.assign(&g, &mut rng());
            assert_eq!(
                by_task(&m),
                [(WorkerIdx(0), TaskIdx(0)), (WorkerIdx(3), TaskIdx(1))],
                "w={weight}"
            );
        }
    }

    #[test]
    fn cost_is_v_times_e() {
        let g = BipartiteGraph::full(10, 5, |_, _| 0.5).unwrap();
        let m = GreedyMatcher.assign(&g, &mut rng());
        assert_eq!(m.cost_units, 5.0 * 50.0);
        assert_eq!(GreedyMatcher.name(), "greedy");
    }

    #[test]
    fn skips_tasks_with_no_free_worker() {
        let mut g = BipartiteGraph::new(1, 2);
        g.add_edge(WorkerIdx(0), TaskIdx(0), 0.4).unwrap();
        g.add_edge(WorkerIdx(0), TaskIdx(1), 0.9).unwrap();
        let m = GreedyMatcher.assign(&g, &mut rng());
        // Task 0 grabs the only worker; task 1 goes unmatched.
        assert_eq!(by_task(&m), [(WorkerIdx(0), TaskIdx(0))]);
    }
}
