//! Property-based tests over the matching substrate (proptest).

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use react::matching::{
    BipartiteGraph, GreedyMatcher, HungarianMatcher, Matcher, MetropolisMatcher, ReactMatcher,
    TaskIdx, WorkerIdx,
};

mod common;

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
    #![proptest_config(ProptestConfig::with_cases(common::cases(64)))]

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

/// Exact outcomes of both annealing walks on one contended graph: the
/// total weight's bits and the work counters at two cycle budgets and
/// two seeds, per matcher. The weights are small (at most 0.01), so
/// Metropolis's downhill step `e^{−g(x)/K}` is taken often enough to
/// pin its conflict arm too. Any change to a flip arm, the RNG draw
/// order or the result write-out moves at least one entry.
#[test]
fn annealing_walks_match_their_golden_outcomes() {
    let graph = BipartiteGraph::full(24, 16, |u, v| {
        (((u.0 as u64 * 48271 + v.0 as u64 * 16807) % 997) as f64) / 99_700.0
    })
    .unwrap();
    /// The total weight's bits and the stats as [cycles, flips accepted,
    /// flips rejected, conflicts resolved].
    type Outcome = (u64, [u64; 4]);
    // (cycles, seed, REACT's outcome, Metropolis's outcome).
    #[rustfmt::skip]
    let golden: [(usize, u64, Outcome, Outcome); 4] = [
        (300, 3, (0x3fbd_894a_3a27_414b, [300, 71, 229, 33]), (0x3fa4_8aa7_ed83_35aa, [300, 152, 148, 85])),
        (300, 11, (0x3fbe_e5ad_0849_de21, [300, 90, 210, 39]), (0x3fab_7431_9665_3fec, [300, 152, 148, 88])),
        (3000, 3, (0x3fbe_a9db_d381_c04e, [3000, 515, 2485, 238]), (0x3fa5_6634_7159_437e, [3000, 1343, 1657, 833])),
        (3000, 11, (0x3fc0_04c4_0218_6207, [3000, 487, 2513, 223]), (0x3fa4_5220_1b47_7ec0, [3000, 1266, 1734, 763])),
    ];
    let outcome = |m: react::matching::Matching| -> Outcome {
        let s = m.stats;
        (
            m.total_weight.to_bits(),
            [
                s.cycles,
                s.flips_accepted,
                s.flips_rejected,
                s.conflicts_resolved,
            ],
        )
    };
    for (cycles, seed, react, metropolis) in golden {
        let rng = || SmallRng::seed_from_u64(seed);
        let m = ReactMatcher::with_cycles(cycles).assign(&graph, &mut rng());
        assert_eq!(outcome(m), react, "react, {cycles} cycles, seed {seed}");
        let m = MetropolisMatcher::with_cycles(cycles).assign(&graph, &mut rng());
        assert_eq!(
            outcome(m),
            metropolis,
            "metropolis, {cycles} cycles, seed {seed}"
        );
    }
}
