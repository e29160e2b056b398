//! The closed set of scheduler matcher policies. `MatcherPolicy` is
//! defined once, in `react-matching`, and re-exported by `react-core`;
//! every variant must build the matcher it names, behave through the
//! caching `MatcherEngine` exactly like a throwaway matcher, and have
//! its own entry in the calibrated cost model.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use react::core::prelude::*;
use react::matching::{BipartiteGraph, CostModel, MatcherEngine};

/// One value per variant. The `let` crosses the two public paths: it
/// compiles only while they name the same type.
fn all_policies() -> [MatcherPolicy; 4] {
    let adaptive: react::matching::MatcherPolicy =
        react::core::MatcherPolicy::ReactAdaptive { kappa: 0.8 };
    [
        MatcherPolicy::React { cycles: 60 },
        adaptive,
        MatcherPolicy::Greedy,
        MatcherPolicy::Traditional,
    ]
}

#[test]
fn every_policy_runs_through_the_engine() {
    let graph = BipartiteGraph::full(5, 5, |u, v| ((u.0 * 3 + v.0) % 7) as f64 / 7.0).unwrap();
    let cost_model = CostModel::paper_calibrated();
    for policy in all_policies() {
        let name = policy.name();
        assert_eq!(policy.build(graph.n_edges()).name(), name);
        // A renamed matcher must not fall silently to the default
        // coefficient.
        assert_ne!(
            cost_model.coefficient(name),
            cost_model.coefficient("no-such-matcher"),
            "{name} has no cost-model entry of its own"
        );

        let mut engine = MatcherEngine::new(policy);
        let mut rng_a = SmallRng::seed_from_u64(7);
        let mut rng_b = SmallRng::seed_from_u64(7);
        for _ in 0..3 {
            let via_engine = engine.assign(&graph, &mut rng_a);
            via_engine.verify(&graph);
            let throwaway = policy.build(graph.n_edges()).assign(&graph, &mut rng_b);
            assert_eq!(via_engine.pairs, throwaway.pairs, "{name}");
            assert_eq!(via_engine.total_weight, throwaway.total_weight);
        }
        // Fixed-budget policies build once; only the adaptive policy may
        // rebuild, and with a constant edge count even it must not.
        assert_eq!(engine.rebuilds(), 1, "{name}");
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
        let assignments = server.tick(now).assignments.clone();
        for (w, task) in assignments {
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
