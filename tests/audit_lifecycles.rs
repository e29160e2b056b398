//! End-to-end lifecycle auditing: every task in a full simulated run —
//! including reassignments, churn-driven recalls and expiries — must
//! follow the legal lifecycle
//! `Submitted (Assigned (Recalled)?)* (Completed | Expired)?`
//! with non-decreasing timestamps and matching workers.

use react::core::{verify_lifecycles, MatcherPolicy, TaskEventKind};
use react::crowd::{ChurnParams, Scenario, ScenarioRunner};

fn audited_scenario(matcher: MatcherPolicy, seed: u64) -> Scenario {
    let mut sc = Scenario::smoke(matcher, seed);
    sc.config.audit = true;
    sc
}

#[test]
fn react_run_has_legal_lifecycles() {
    let r = ScenarioRunner::new(audited_scenario(MatcherPolicy::React { cycles: 300 }, 1)).run();
    let log = r.audit.as_ref().expect("audit enabled");
    assert!(log.events().next().is_some());
    let tasks_seen = verify_lifecycles(log);
    assert_eq!(tasks_seen as u64, r.received);
    // Recalls in the log match the report counter.
    let recalls = log
        .events()
        .filter(|e| matches!(e.kind, TaskEventKind::Recalled { .. }))
        .count() as u64;
    assert_eq!(recalls, r.reassignments);
}

#[test]
fn traditional_run_has_legal_lifecycles() {
    let r = ScenarioRunner::new(audited_scenario(MatcherPolicy::Traditional, 2)).run();
    let log = r.audit.as_ref().expect("audit enabled");
    verify_lifecycles(log);
    // No Eq. (2) recalls under the traditional policy.
    assert!(log
        .events()
        .all(|e| !matches!(e.kind, TaskEventKind::Recalled { .. })));
}

#[test]
fn churny_run_has_legal_lifecycles() {
    let mut sc = audited_scenario(MatcherPolicy::React { cycles: 300 }, 3);
    sc.churn = Some(ChurnParams {
        mean_online: 20.0,
        offline_range: (5.0, 30.0),
    });
    let r = ScenarioRunner::new(sc).run();
    assert!(r.churn_events > 0);
    let log = r.audit.as_ref().expect("audit enabled");
    verify_lifecycles(log);
    // Completion events in the log match the report.
    let completions = log
        .events()
        .filter(|e| matches!(e.kind, TaskEventKind::Completed { .. }))
        .count() as u64;
    assert_eq!(completions, r.completed);
    let expiries = log
        .events()
        .filter(|e| matches!(e.kind, TaskEventKind::Expired))
        .count() as u64;
    assert!(expiries <= r.expired_unassigned);
}

#[test]
fn audit_is_off_by_default() {
    let r = ScenarioRunner::new(Scenario::smoke(MatcherPolicy::React { cycles: 300 }, 4)).run();
    assert!(r.audit.is_none());
}
