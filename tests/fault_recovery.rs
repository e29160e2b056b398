//! Golden end-to-end fault-recovery scenarios.
//!
//! Each test drives a failure through the middleware and asserts the
//! exact audit-log event sequence under a fixed seed: worker dropout
//! mid-task, straggler slowdown caught by the Eq. (2) deadline model,
//! and completion-message loss recovered by the timeout ladder.

use react::core::{
    verify_lifecycles, BatchTrigger, Config, MatcherPolicy, ReactServer, RecoveryConfig, Task,
    TaskCategory, TaskEventKind, TaskId, WorkerId,
};
use react::crowd::{Scenario, ScenarioRunner};
use react::faults::{FaultPlan, StragglerPlan};
use react::geo::GeoPoint;

fn here() -> GeoPoint {
    GeoPoint::new(37.98, 23.72)
}

fn kinds(events: &[react::core::TaskEvent]) -> Vec<&'static str> {
    events
        .iter()
        .map(|e| match e.kind {
            TaskEventKind::Submitted => "submitted",
            TaskEventKind::Assigned { .. } => "assigned",
            TaskEventKind::Recalled { .. } => "recalled",
            TaskEventKind::Completed { .. } => "completed",
            TaskEventKind::Expired => "expired",
            TaskEventKind::HandedOff => "handed_off",
        })
        .collect()
}

/// Dropout mid-task: the held task is recalled at the instant the
/// worker disconnects and reassigned to the surviving worker, who
/// completes it. The audit log records exactly that story.
#[test]
fn dropout_mid_task_reassigns_and_completes() {
    let mut config = Config::paper_defaults();
    config.batch = BatchTrigger {
        min_unassigned: 1,
        period: None,
    };
    config.audit = true;
    config.charge_matching_time = false;
    let mut server = ReactServer::builder(config).seed(7).build().unwrap();
    server.register_worker(WorkerId(1), here());
    server.register_worker(WorkerId(2), here());
    server.submit_task(
        Task::new(TaskId(1), here(), 120.0, 0.05, TaskCategory(0), "t"),
        0.0,
    );
    let out = server.tick(0.0);
    assert_eq!(out.assignments.len(), 1);
    let (first_worker, _) = out.assignments[0];

    // The assigned worker drops out mid-task.
    assert_eq!(server.worker_offline(first_worker, 10.0), vec![TaskId(1)]);
    let out = server.tick(10.0);
    assert_eq!(out.assignments.len(), 1, "the survivor picks it up");
    let (second_worker, _) = out.assignments[0];
    assert_ne!(second_worker, first_worker, "offline workers get nothing");
    server
        .complete_task(TaskId(1), second_worker, 25.0, true)
        .unwrap();

    let log = server.audit().unwrap();
    verify_lifecycles(log);
    let history = log.task_history(TaskId(1));
    assert_eq!(
        kinds(&history),
        vec!["submitted", "assigned", "recalled", "assigned", "completed"],
        "golden dropout sequence: {history:?}"
    );
    // The recall is attributed to the dropped worker, the completion to
    // the survivor.
    assert_eq!(
        history[2].kind,
        TaskEventKind::Recalled {
            worker: first_worker
        }
    );
    assert!(matches!(
        history[4].kind,
        TaskEventKind::Completed { worker, .. } if worker == second_worker
    ));
}

/// Stragglers (uniform 3–5× slowdown) stretch executions and sink
/// deadline hits; the Eq. (2) model still recalls doomed assignments
/// (its predictions track the *learned* slow profiles, so the recall
/// count itself is not monotone in the slowdown), and the whole chaotic
/// log must replay bit-identically from the same seed.
#[test]
fn straggler_slowdown_triggers_deadline_model_recalls() {
    let chaotic = |seed: u64| {
        let mut sc = Scenario::smoke(MatcherPolicy::React { cycles: 300 }, seed);
        sc.config.audit = true;
        sc.faults = Some(FaultPlan {
            straggler: Some(StragglerPlan {
                fraction: 1.0,
                factor_range: (3.0, 5.0),
            }),
            ..FaultPlan::none()
        });
        ScenarioRunner::new(sc).run()
    };
    let mut baseline = Scenario::smoke(MatcherPolicy::React { cycles: 300 }, 42);
    baseline.config.audit = true;
    let baseline = ScenarioRunner::new(baseline).run();
    let slow = chaotic(42);
    assert!(slow.reassignments > 0, "Eq. (2) must fire under slowdown");
    assert!(
        slow.avg_exec_time() > baseline.avg_exec_time(),
        "3–5× slowdown must show in executions: {:.1}s vs {:.1}s",
        slow.avg_exec_time(),
        baseline.avg_exec_time()
    );
    assert!(
        slow.met_deadline < baseline.met_deadline,
        "a uniformly slowed crowd must meet fewer deadlines: {} vs {}",
        slow.met_deadline,
        baseline.met_deadline
    );
    verify_lifecycles(slow.audit.as_ref().unwrap());
    // Exact-sequence determinism: the same seed replays the same log.
    let replay = chaotic(42);
    assert_eq!(
        slow.audit.as_ref().unwrap().events(),
        replay.audit.as_ref().unwrap().events(),
        "chaos audit logs must be bit-identical per seed"
    );
}

/// Completion-message loss: the worker finishes but the server never
/// hears of it; the timeout ladder recalls the silent assignment and the
/// retry lands. At least one task must show the golden
/// submitted→assigned→recalled→assigned→completed shape.
#[test]
fn completion_loss_is_recovered_by_the_timeout_ladder() {
    let run = |seed: u64| {
        let mut sc = Scenario::smoke(MatcherPolicy::React { cycles: 300 }, seed);
        sc.config.audit = true;
        sc.config.recovery = RecoveryConfig::aggressive(30.0);
        sc.faults = Some(FaultPlan {
            loss_probability: 0.25,
            ..FaultPlan::none()
        });
        ScenarioRunner::new(sc).run()
    };
    let r = run(42);
    assert!(r.faults.completions_lost > 0, "losses must fire at p=0.25");
    assert!(
        r.faults.timeout_recalls > 0,
        "the ladder must recall silent assignments: {:?}",
        r.faults
    );
    let log = r.audit.as_ref().unwrap();
    verify_lifecycles(log);
    // Find a task that was recalled (silent assignment) and then
    // completed on retry — the golden recovery shape.
    let recovered = (0..r.received)
        .map(|i| log.task_history(TaskId(i + 1)))
        .find(|h| kinds(h) == vec!["submitted", "assigned", "recalled", "assigned", "completed"]);
    assert!(
        recovered.is_some(),
        "expected at least one single-retry recovery among {} tasks",
        r.received
    );
    // Exact-sequence determinism for the full chaotic log.
    let replay = run(42);
    assert_eq!(log.events(), replay.audit.as_ref().unwrap().events());
}
