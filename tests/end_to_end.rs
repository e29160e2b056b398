//! Cross-crate integration: the full simulation pipeline.

use react::core::MatcherPolicy;
use react::crowd::{RunReport, Scenario, ScenarioRunner};

fn run(matcher: MatcherPolicy, seed: u64) -> RunReport {
    ScenarioRunner::new(Scenario::smoke(matcher, seed)).run()
}

#[test]
fn every_policy_completes_a_smoke_scenario() {
    for policy in [
        MatcherPolicy::React { cycles: 300 },
        MatcherPolicy::ReactAdaptive { kappa: 0.2 },
        MatcherPolicy::Greedy,
        MatcherPolicy::Traditional,
    ] {
        let r = run(policy, 11);
        assert_eq!(r.received, 120, "{policy:?}");
        assert!(r.completed > 0, "{policy:?} completed nothing");
        assert!(
            r.completed + r.expired_unassigned >= r.received,
            "{policy:?} lost tasks: completed {} + expired {} < received {}",
            r.completed,
            r.expired_unassigned,
            r.received
        );
    }
}

#[test]
fn conservation_no_task_is_double_counted() {
    let r = run(MatcherPolicy::React { cycles: 300 }, 3);
    // Completions and queue-expiries partition the received tasks
    // (an in-flight task at the horizon would be the only exception;
    // the runner drains them before stopping).
    assert_eq!(r.completed + r.expired_unassigned, r.received);
    assert_eq!(r.exec_times.len() as u64, r.completed);
    assert_eq!(r.total_times.len() as u64, r.completed);
}

#[test]
fn react_dominates_traditional_on_the_paper_metrics() {
    // Averaged over a few seeds to be robust against one lucky run.
    let mut react_met = 0u64;
    let mut trad_met = 0u64;
    let mut react_pos = 0u64;
    let mut trad_pos = 0u64;
    for seed in 0..3 {
        let a = run(MatcherPolicy::React { cycles: 300 }, seed);
        let b = run(MatcherPolicy::Traditional, seed);
        react_met += a.met_deadline;
        trad_met += b.met_deadline;
        react_pos += a.positive_feedback;
        trad_pos += b.positive_feedback;
    }
    assert!(
        react_met > trad_met,
        "react met {react_met} vs traditional {trad_met}"
    );
    assert!(
        react_pos > trad_pos,
        "react positive {react_pos} vs traditional {trad_pos}"
    );
}

#[test]
fn exec_times_within_behavior_bounds() {
    let r = run(MatcherPolicy::React { cycles: 300 }, 5);
    for &t in &r.exec_times {
        // 1–20 s honest, up to 130 s delayed; queueing cannot apply to
        // availability-aware policies.
        assert!(t > 0.0 && t <= 131.0, "exec time {t} out of range");
    }
    for (&total, &exec) in r.total_times.iter().zip(&r.exec_times) {
        assert!(total + 1e-9 >= exec, "total time {total} below exec {exec}");
    }
}

#[test]
fn traditional_total_times_include_worker_queueing() {
    let r = run(MatcherPolicy::Traditional, 5);
    // With blind assignment some tasks queue behind a busy worker, so
    // the max total time should exceed the max possible single
    // execution noticeably more often than not; at minimum the averages
    // must satisfy total ≥ exec.
    assert!(r.avg_total_time() >= r.avg_exec_time() - 1e-9);
}

#[test]
fn adaptive_react_is_competitive_with_fixed() {
    let fixed = run(MatcherPolicy::React { cycles: 300 }, 9);
    let adaptive = run(MatcherPolicy::ReactAdaptive { kappa: 0.3 }, 9);
    assert!(
        adaptive.deadline_ratio() > fixed.deadline_ratio() * 0.7,
        "adaptive {:.2} vs fixed {:.2}",
        adaptive.deadline_ratio(),
        fixed.deadline_ratio()
    );
}
