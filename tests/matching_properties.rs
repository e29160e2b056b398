//! Property-based tests over the matching substrate (proptest).

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use react::matching::graph::is_negligible_weight;
use react::matching::{
    BipartiteGraph, EdgeId, GreedyMatcher, HungarianMatcher, MatchStats, Matcher, Matching,
    MetropolisMatcher, ReactMatcher, TaskIdx, WorkerIdx,
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

/// The weights a tie-heavy graph draws from: zero, a negligible weight
/// (below `WEIGHT_EPSILON`) and three that tie often.
const TIE_WEIGHTS: [f64; 5] = [0.0, 1e-13, 0.25, 0.5, 1.0];

/// Strategy: a random sparse bipartite graph with up to 12×12 vertices
/// whose weights are drawn from [`TIE_WEIGHTS`].
fn arb_tie_heavy_graph() -> impl Strategy<Value = BipartiteGraph> {
    (1usize..=12, 1usize..=12).prop_flat_map(|(nu, nv)| {
        proptest::collection::vec(
            (0..nu as u32, 0..nv as u32, 0..TIE_WEIGHTS.len()),
            0..=nu * nv,
        )
        .prop_map(move |edges| {
            let mut g = BipartiteGraph::new(nu, nv);
            for (u, v, w) in edges {
                // Duplicate insertions are rejected; ignore them.
                let _ = g.add_edge(WorkerIdx(u), TaskIdx(v), TIE_WEIGHTS[w]);
            }
            g
        })
    })
}

/// Algorithm 1 (`replace`) or Metropolis's walk as a plain reference:
/// two per-vertex edge indices and a running fitness, every flip decided
/// from the edge arena. A held edge is deselected outright when its
/// weight is negligible and otherwise with the annealing probability; a
/// free edge is selected; a conflicting edge replaces the incumbents
/// under REACT iff it beats all of them, and under Metropolis is a
/// downhill step `e^{−g(x)/K}`. `K = 0.05` is the matchers' annealing
/// constant. The draws, their order and the fitness arithmetic are the
/// matchers', so the two must agree bit for bit.
fn reference_walk(
    graph: &BipartiteGraph,
    cycles: usize,
    replace: bool,
    rng: &mut SmallRng,
) -> Matching {
    fn accept_worse(delta: f64, rng: &mut SmallRng) -> bool {
        let alpha: f64 = rng.gen();
        alpha <= (delta / 0.05).exp()
    }
    let mut worker_match: Vec<Option<EdgeId>> = vec![None; graph.n_workers()];
    let mut task_match: Vec<Option<EdgeId>> = vec![None; graph.n_tasks()];
    let mut fitness = 0.0;
    let mut stats = MatchStats::default();
    let n_edges = graph.n_edges();
    // An edgeless graph runs no cycle, as in the matchers.
    let cycles = if n_edges == 0 { 0 } else { cycles };
    for _ in 0..cycles {
        let e = EdgeId(rng.gen_range(0..n_edges as u32));
        let edge = *graph.edge(e);
        let (u, v) = (edge.worker.0 as usize, edge.task.0 as usize);
        stats.cycles += 1;
        if task_match[v] == Some(e) {
            if is_negligible_weight(edge.weight) || accept_worse(-edge.weight, rng) {
                worker_match[u] = None;
                task_match[v] = None;
                fitness -= edge.weight;
                stats.flips_accepted += 1;
            } else {
                stats.flips_rejected += 1;
            }
            continue;
        }
        let conflicts = [worker_match[u], task_match[v]];
        let conflicts = conflicts.into_iter().flatten().filter(|&c| c != e);
        let conflicting: Vec<EdgeId> = conflicts.collect();
        let accept = if conflicting.is_empty() {
            true
        } else if replace {
            conflicting
                .iter()
                .all(|&c| graph.edge(c).weight < edge.weight)
        } else {
            accept_worse(-fitness, rng)
        };
        if !accept {
            stats.flips_rejected += 1;
            continue;
        }
        for &c in &conflicting {
            let old = graph.edge(c);
            worker_match[old.worker.0 as usize] = None;
            task_match[old.task.0 as usize] = None;
            fitness -= old.weight;
        }
        worker_match[u] = Some(e);
        task_match[v] = Some(e);
        fitness += edge.weight;
        stats.flips_accepted += 1;
        stats.conflicts_resolved += u64::from(!conflicting.is_empty());
    }
    let mut selected: Vec<EdgeId> = task_match.into_iter().flatten().collect();
    selected.sort_unstable();
    let pairs: Vec<_> = selected
        .iter()
        .map(|&e| {
            let edge = graph.edge(e);
            (edge.worker, edge.task, edge.weight)
        })
        .collect();
    let mut m = Matching::from_pairs(pairs, 0.0);
    m.stats = stats;
    m
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

    /// Both annealing matchers are their reference walk on graphs where
    /// ties, zero weights and negligible weights are common: the same
    /// pairs, total weight bits, counters and RNG position afterwards.
    /// Algorithm 1 decides each flip from the drawn edge's two vertex
    /// slots, so a slot test that accepts a tie, beats only one
    /// incumbent or misses a held edge fails here.
    #[test]
    fn annealing_walks_are_their_reference_on_tie_heavy_graphs(
        graph in arb_tie_heavy_graph(), cycles in 1usize..=400, seed in 0u64..1000
    ) {
        for (replace, matcher) in [
            (true, Box::new(ReactMatcher::with_cycles(cycles)) as Box<dyn Matcher>),
            (false, Box::new(MetropolisMatcher::with_cycles(cycles))),
        ] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let m = matcher.assign(&graph, &mut rng);
            let mut reference_rng = SmallRng::seed_from_u64(seed);
            let reference = reference_walk(&graph, cycles, replace, &mut reference_rng);
            let name = matcher.name();
            prop_assert_eq!(&m.pairs, &reference.pairs, "{}: pairs", name);
            prop_assert_eq!(
                m.total_weight.to_bits(), reference.total_weight.to_bits(), "{}: total weight", name
            );
            prop_assert_eq!(m.stats, reference.stats, "{}: stats", name);
            prop_assert_eq!(rng.next_u64(), reference_rng.next_u64(), "{}: RNG position", name);
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

/// Exact outcomes of both annealing walks: the total weight's bits and
/// the work counters per matcher. The contended graph runs at two cycle
/// budgets and two seeds; its weights are small (at most 0.01), so
/// Metropolis's downhill step `e^{−g(x)/K}` is taken often enough to
/// pin its conflict arm too. The tie-heavy graph draws its weights from
/// [`TIE_WEIGHTS`], so ties, zero and negligible weights meet in every
/// arm. Any change to a flip arm, the RNG draw order or the result
/// write-out moves at least one entry.
#[test]
fn annealing_walks_match_their_golden_outcomes() {
    let contended = BipartiteGraph::full(24, 16, |u, v| {
        (((u.0 as u64 * 48271 + v.0 as u64 * 16807) % 997) as f64) / 99_700.0
    })
    .unwrap();
    let tie_heavy = BipartiteGraph::full(12, 10, |u, v| {
        TIE_WEIGHTS[((u.0 * 7 + v.0 * 3) % 5) as usize]
    })
    .unwrap();
    /// The total weight's bits and the stats as [cycles, flips accepted,
    /// flips rejected, conflicts resolved].
    type Outcome = (u64, [u64; 4]);
    // (graph, cycles, seed, REACT's outcome, Metropolis's outcome).
    #[rustfmt::skip]
    let golden: [(&BipartiteGraph, usize, u64, Outcome, Outcome); 5] = [
        (&contended, 300, 3, (0x3fbd_894a_3a27_414b, [300, 71, 229, 33]), (0x3fa4_8aa7_ed83_35aa, [300, 152, 148, 85])),
        (&contended, 300, 11, (0x3fbe_e5ad_0849_de21, [300, 90, 210, 39]), (0x3fab_7431_9665_3fec, [300, 152, 148, 88])),
        (&contended, 3000, 3, (0x3fbe_a9db_d381_c04e, [3000, 515, 2485, 238]), (0x3fa5_6634_7159_437e, [3000, 1343, 1657, 833])),
        (&contended, 3000, 11, (0x3fc0_04c4_0218_6207, [3000, 487, 2513, 223]), (0x3fa4_5220_1b47_7ec0, [3000, 1266, 1734, 763])),
        (&tie_heavy, 400, 5, (0x4024_0000_0000_0000, [400, 25, 375, 12]), (0x4011_0000_0000_0000, [400, 16, 384, 0])),
    ];
    let outcome = |m: Matching| -> Outcome {
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
    for (graph, cycles, seed, react, metropolis) in golden {
        let rng = || SmallRng::seed_from_u64(seed);
        let m = ReactMatcher::with_cycles(cycles).assign(graph, &mut rng());
        assert_eq!(outcome(m), react, "react, {cycles} cycles, seed {seed}");
        let m = MetropolisMatcher::with_cycles(cycles).assign(graph, &mut rng());
        assert_eq!(
            outcome(m),
            metropolis,
            "metropolis, {cycles} cycles, seed {seed}"
        );
    }
}
