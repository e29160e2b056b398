//! The invariant layer exercised as a property: every matcher's output
//! must satisfy [`MatchingValidator::check_matching`] on random graphs,
//! independently of whether the `debug-invariants` feature (which wires
//! the same validator into the matchers themselves) is enabled.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use react::matching::{
    BipartiteGraph, GreedyMatcher, HungarianMatcher, Matcher, MatchingValidator, MetropolisMatcher,
    RandomMatcher, ReactMatcher, TaskIdx, WorkerIdx,
};

mod common;

/// All five matchers, heuristics configured with a small cycle budget.
fn all_matchers() -> Vec<Box<dyn Matcher>> {
    vec![
        Box::new(ReactMatcher::with_cycles(200)),
        Box::new(MetropolisMatcher::with_cycles(200)),
        Box::new(GreedyMatcher),
        Box::new(RandomMatcher),
        Box::new(HungarianMatcher),
    ]
}

/// Strategy: a random sparse bipartite graph with up to 9×9 vertices.
fn arb_graph() -> impl Strategy<Value = BipartiteGraph> {
    (1usize..9, 1usize..9).prop_flat_map(|(nu, nv)| {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(64)))]

    #[test]
    fn every_matcher_passes_the_validator(graph in arb_graph(), seed in 0u64..1000) {
        for matcher in all_matchers() {
            let m = matcher.assign(&graph, &mut SmallRng::seed_from_u64(seed));
            let checked = MatchingValidator::new(&graph).check_matching(&m);
            prop_assert!(
                checked.is_ok(),
                "{}: {}", matcher.name(), checked.unwrap_err()
            );
        }
    }

    #[test]
    fn hungarian_never_loses_to_greedy(graph in arb_graph(), seed in 0u64..1000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let greedy = GreedyMatcher.assign(&graph, &mut rng);
        let optimal = HungarianMatcher.assign(&graph, &mut rng);
        prop_assert!(
            optimal.total_weight >= greedy.total_weight - 1e-9,
            "hungarian {} < greedy {}", optimal.total_weight, greedy.total_weight
        );
    }
}

/// The validator also rejects corrupted matchings — sanity-check the
/// negative direction once outside proptest.
#[test]
fn validator_rejects_phantom_edges() {
    let mut g = BipartiteGraph::new(2, 2);
    g.add_edge(WorkerIdx(0), TaskIdx(0), 0.5).unwrap();
    let phantom = react::matching::Matching::from_pairs(vec![(WorkerIdx(1), TaskIdx(1), 0.3)], 0.0);
    assert!(MatchingValidator::new(&g).check_matching(&phantom).is_err());
}
