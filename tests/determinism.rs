//! Reproducibility: identical seeds give bit-identical experiment
//! results across the whole stack (kernel → middleware → harness).

use react::core::MatcherPolicy;
use react::crowd::{Scenario, ScenarioRunner};

#[test]
fn full_simulation_is_bit_reproducible() {
    let run = |seed| {
        ScenarioRunner::new(Scenario::smoke(MatcherPolicy::React { cycles: 300 }, seed)).run()
    };
    let a = run(77);
    let b = run(77);
    assert_eq!(a.received, b.received);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.met_deadline, b.met_deadline);
    assert_eq!(a.positive_feedback, b.positive_feedback);
    assert_eq!(a.reassignments, b.reassignments);
    assert_eq!(a.exec_times, b.exec_times);
    assert_eq!(a.total_times, b.total_times);
    assert_eq!(a.series_met, b.series_met);
    assert_eq!(a.sim_duration, b.sim_duration);
}

#[test]
fn seeds_actually_matter() {
    let run = |seed| {
        ScenarioRunner::new(Scenario::smoke(MatcherPolicy::React { cycles: 300 }, seed)).run()
    };
    let a = run(1);
    let b = run(2);
    assert!(
        a.exec_times != b.exec_times || a.met_deadline != b.met_deadline,
        "different seeds should produce different runs"
    );
}

#[test]
fn policies_share_the_same_workload_per_seed() {
    // The arrival stream and crowd are derived from the scenario seed,
    // not from the policy, so comparisons are paired.
    let react = ScenarioRunner::new(Scenario::smoke(MatcherPolicy::React { cycles: 300 }, 5)).run();
    let trad = ScenarioRunner::new(Scenario::smoke(MatcherPolicy::Traditional, 5)).run();
    assert_eq!(react.received, trad.received);
    assert_eq!(react.sim_duration > 0.0, trad.sim_duration > 0.0);
}
