//! Property-based tests over the matching substrate (proptest).

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use react::matching::{
    BipartiteGraph, GreedyMatcher, HungarianMatcher, Matcher, MetropolisMatcher, ReactMatcher,
    TaskIdx, WorkerIdx,
};

/// Strategy: a random sparse bipartite graph with up to 8×8 vertices.
fn arb_graph() -> impl Strategy<Value = BipartiteGraph> {
    (1usize..8, 1usize..8).prop_flat_map(|(nu, nv)| {
        proptest::collection::vec((0..nu as u32, 0..nv as u32, 0.0f64..1.0), 0..=nu * nv).prop_map(
            move |edges| {
                let mut g = BipartiteGraph::new(nu, nv);
                for (u, v, w) in edges {
                    // Duplicate insertions are rejected; ignore them.
                    let _ = g.add_edge(WorkerIdx(u), TaskIdx(v), w);
                }
                g
            },
        )
    })
}

/// Exhaustive optimum for tiny graphs.
fn brute_force(graph: &BipartiteGraph) -> f64 {
    fn rec(graph: &BipartiteGraph, task: usize, used: &mut Vec<bool>) -> f64 {
        if task == graph.n_tasks() {
            return 0.0;
        }
        let mut best = rec(graph, task + 1, used);
        for &e in graph.task_edges(TaskIdx(task as u32)) {
            let edge = graph.edge(e);
            if !used[edge.worker.0 as usize] {
                used[edge.worker.0 as usize] = true;
                best = best.max(edge.weight + rec(graph, task + 1, used));
                used[edge.worker.0 as usize] = false;
            }
        }
        best
    }
    rec(graph, 0, &mut vec![false; graph.n_workers()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_matchers_return_valid_matchings(graph in arb_graph(), seed in 0u64..1000) {
        let matchers: Vec<Box<dyn Matcher>> = vec![
            Box::new(ReactMatcher::with_cycles(300)),
            Box::new(MetropolisMatcher::with_cycles(300)),
            Box::new(GreedyMatcher),
            Box::new(HungarianMatcher),
        ];
        for matcher in matchers {
            let m = matcher.assign(&graph, &mut SmallRng::seed_from_u64(seed));
            m.verify(&graph); // 1-to-1 constraints + real edges + weight sum
            prop_assert!(m.total_weight >= -1e-12);
            prop_assert!(m.len() <= graph.max_matching_size());
        }
    }

    #[test]
    fn hungarian_is_exactly_optimal(graph in arb_graph()) {
        let m = HungarianMatcher.assign(&graph, &mut SmallRng::seed_from_u64(0));
        let opt = brute_force(&graph);
        prop_assert!((m.total_weight - opt).abs() < 1e-9,
            "hungarian {} vs brute force {}", m.total_weight, opt);
    }

    #[test]
    fn no_heuristic_beats_the_optimum(graph in arb_graph(), seed in 0u64..1000) {
        let opt = HungarianMatcher
            .assign(&graph, &mut SmallRng::seed_from_u64(0))
            .total_weight;
        for m in [
            ReactMatcher::with_cycles(500).assign(&graph, &mut SmallRng::seed_from_u64(seed)),
            MetropolisMatcher::with_cycles(500).assign(&graph, &mut SmallRng::seed_from_u64(seed)),
            GreedyMatcher.assign(&graph, &mut SmallRng::seed_from_u64(seed)),
        ] {
            prop_assert!(m.total_weight <= opt + 1e-9,
                "{} exceeded the optimum {}", m.total_weight, opt);
        }
    }

    #[test]
    fn greedy_matches_every_matchable_task_on_full_graphs(
        nu in 1usize..10, nv in 1usize..10, seed in 0u64..100
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = BipartiteGraph::full(nu, nv, |_, _| {
            use rand::Rng;
            rng.gen::<f64>()
        }).unwrap();
        let m = GreedyMatcher.assign(&g, &mut SmallRng::seed_from_u64(0));
        prop_assert_eq!(m.len(), nu.min(nv));
    }
}
