//! Integration coverage for the matcher engine layer: every
//! `MatcherPolicy` the middleware accepts must flow through the
//! object-safe engine API (`MatcherSpec` → `MatcherEngine`) and behave
//! exactly like a throwaway matcher.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use react::core::prelude::*;
use react::matching::{BipartiteGraph, MatchContext, MatcherEngine};

fn all_policies() -> Vec<MatcherPolicy> {
    vec![
        MatcherPolicy::React { cycles: 60 },
        MatcherPolicy::ReactAdaptive { kappa: 0.8 },
        MatcherPolicy::Metropolis { cycles: 60 },
        MatcherPolicy::Greedy,
        MatcherPolicy::Traditional,
        MatcherPolicy::Hungarian,
        MatcherPolicy::Auction,
        MatcherPolicy::MaxCardinality,
    ]
}

#[test]
fn every_policy_runs_through_the_engine() {
    let graph = BipartiteGraph::full(5, 5, |u, v| ((u.0 * 3 + v.0) % 7) as f64 / 7.0).unwrap();
    for policy in all_policies() {
        let spec = policy.spec();
        assert_eq!(spec.name(), policy.name(), "spec/policy names agree");

        let mut engine = MatcherEngine::new(spec);
        let mut rng_a = SmallRng::seed_from_u64(7);
        let mut rng_b = SmallRng::seed_from_u64(7);
        for _ in 0..3 {
            let via_engine =
                engine.assign(&graph, &mut MatchContext::new(&mut rng_a, graph.n_edges()));
            via_engine.verify(&graph);
            let throwaway = policy.build(graph.n_edges()).assign(&graph, &mut rng_b);
            assert_eq!(via_engine.pairs, throwaway.pairs, "{}", policy.name());
            assert_eq!(via_engine.total_weight, throwaway.total_weight);
        }
        // Fixed-budget specs build once; only the adaptive spec may
        // rebuild, and with a constant edge budget even it must not.
        assert_eq!(engine.rebuilds(), 1, "{}", policy.name());
    }
}

#[test]
fn server_caches_matcher_across_batches() {
    let mut config = Config::paper_defaults();
    config.matcher = MatcherPolicy::React { cycles: 100 };
    config.batch = BatchTrigger {
        min_unassigned: 1,
        period: None,
    };
    config.charge_matching_time = false;
    let mut server = ServerBuilder::new(config)
        .seed(11)
        .build()
        .expect("valid config");
    let athens = GeoPoint::new(37.98, 23.72);
    for w in 0..4 {
        server.register_worker(WorkerId(w), athens);
    }
    let mut now = 0.0;
    for t in 0..6u64 {
        server.submit_task(
            Task::new(TaskId(t), athens, 90.0, 0.05, TaskCategory(0), "t"),
            now,
        );
        let outcome = server.tick(now);
        for &(w, task) in &outcome.assignments {
            server.complete_task(task, w, 1.0, true).unwrap();
        }
        now += 5.0;
    }
    assert!(server.matcher_rebuilds() >= 1, "at least one batch matched");
    assert_eq!(
        server.matcher_rebuilds(),
        1,
        "fixed-cycle policy must reuse the cached matcher across batches"
    );
}
