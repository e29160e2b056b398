//! Cross-crate integration: middleware behaviour under adversarial
//! sequences (worker churn, stalls, duplicate traffic, expiry storms).

use react::core::prelude::*;
use react::core::Availability;
use react::matching::CostModel;

fn here() -> GeoPoint {
    GeoPoint::new(37.98, 23.72)
}

fn task(id: u64, deadline: f64) -> Task {
    Task::new(TaskId(id), here(), deadline, 0.05, TaskCategory(0), "t")
}

fn eager_server(seed: u64) -> ReactServer {
    let mut config = Config::paper_defaults();
    config.batch = BatchTrigger {
        min_unassigned: 1,
        period: None,
    };
    ServerBuilder::new(config)
        .seed(seed)
        .cost_model(CostModel::free())
        .build()
        .expect("valid config")
}

/// Builds a fast (≈ 2 s) profile so the Eq. (2) model is armed.
fn train(server: &mut ReactServer, worker: WorkerId, base_task: u64, now: &mut f64) {
    for i in 0..3 {
        server.submit_task(task(base_task + i, 60.0), *now);
        let out = server.tick(*now);
        assert!(
            out.assignments.iter().any(|&(w, _)| w == worker),
            "training task must reach the worker"
        );
        server
            .complete_task(TaskId(base_task + i), worker, *now + 2.0, true)
            .unwrap();
        *now += 5.0;
    }
}

#[test]
fn reassignment_chain_across_three_workers() {
    let mut server = eager_server(1);
    let mut now = 0.0;
    // Three workers, trained one at a time (the others join later so
    // training tasks always land on the intended worker).
    server.register_worker(WorkerId(1), here());
    train(&mut server, WorkerId(1), 100, &mut now);
    server.register_worker(WorkerId(2), here());
    // Worker 2 trains as well (worker 1 is also available, so give 2 an
    // explicit course: take worker 1 offline meanwhile).
    server.worker_offline(WorkerId(1), now);
    train(&mut server, WorkerId(2), 200, &mut now);
    server.worker_online(WorkerId(1)).unwrap();

    // A live task lands on one of them; that worker stalls, the task is
    // recalled and must end up completed by the other.
    server.submit_task(task(500, 90.0), now);
    let out = server.tick(now);
    let (first_worker, _) = out.assignments[0];
    // Stall long past the 2 s profile: recall fires.
    let mut recall_seen = false;
    let mut completed_by = None;
    for step in 1..60 {
        let t = now + step as f64;
        let out = server.tick(t);
        if !out.recalls.is_empty() {
            recall_seen = true;
        }
        if let Some(&(w, task_id)) = out.assignments.first() {
            assert_ne!(
                w, first_worker,
                "reassignment must pick the other trained worker"
            );
            server.complete_task(task_id, w, t + 2.0, true).unwrap();
            completed_by = Some(w);
            break;
        }
    }
    assert!(recall_seen, "Eq. (2) recall expected");
    assert!(completed_by.is_some(), "task must complete after recall");
}

#[test]
fn worker_churn_mid_assignment() {
    let mut server = eager_server(2);
    server.register_worker(WorkerId(1), here());
    server.submit_task(task(1, 60.0), 0.0);
    server.tick(0.0);
    // The worker disappears mid-task; the task must return to the pool
    // and flow to a newcomer.
    let recalled = server.worker_offline(WorkerId(1), 0.5);
    assert_eq!(recalled, vec![TaskId(1)]);
    server.register_worker(WorkerId(2), here());
    let out = server.tick(1.0);
    assert_eq!(out.assignments, vec![(WorkerId(2), TaskId(1))]);
    // The departed worker earns no completion.
    assert_eq!(
        server
            .profiling()
            .profile(WorkerId(1))
            .unwrap()
            .total_finished(),
        0
    );
    assert_eq!(
        server
            .profiling()
            .profile(WorkerId(1))
            .unwrap()
            .availability(),
        Availability::Offline
    );
}

#[test]
fn duplicate_submissions_and_registrations_are_idempotent() {
    let mut server = eager_server(3);
    server.register_worker(WorkerId(1), here());
    server.register_worker(WorkerId(1), here());
    server.submit_task(task(1, 60.0), 0.0);
    server.submit_task(task(1, 60.0), 0.0);
    assert_eq!(server.tasks().unassigned_count(), 1);
    let out = server.tick(0.0);
    assert_eq!(out.assignments.len(), 1);
}

#[test]
fn expiry_storm_under_no_workers() {
    let mut server = eager_server(4);
    for i in 0..50 {
        server.submit_task(task(i, 10.0 + i as f64 % 5.0), 0.0);
    }
    let out = server.tick(20.0);
    assert_eq!(out.expired.len(), 50, "all queued tasks expire");
    assert_eq!(server.tasks().unassigned_count(), 0);
    // Later arrivals still work.
    server.register_worker(WorkerId(1), here());
    server.submit_task(task(999, 60.0), 21.0);
    let out = server.tick(21.0);
    assert_eq!(out.assignments.len(), 1);
}

#[test]
fn traditional_assigns_to_busy_workers() {
    let mut config = Config::with_matcher(MatcherPolicy::Traditional);
    config.batch = BatchTrigger {
        min_unassigned: 1,
        period: None,
    };
    config.charge_matching_time = false;
    let mut server = ServerBuilder::new(config)
        .seed(5)
        .build()
        .expect("valid config");
    server.register_worker(WorkerId(1), here());
    // Two tasks, one worker: the AMT-style system assigns both anyway
    // (the second queues behind the first at the worker).
    server.submit_task(task(1, 60.0), 0.0);
    server.tick(0.0);
    server.submit_task(task(2, 60.0), 1.0);
    let out = server.tick(1.0);
    assert_eq!(
        out.assignments,
        vec![(WorkerId(1), TaskId(2))],
        "traditional must hand work to the busy worker too"
    );
    // Both complete in order.
    assert!(server
        .complete_task(TaskId(1), WorkerId(1), 5.0, true)
        .is_ok());
    assert!(server
        .complete_task(TaskId(2), WorkerId(1), 9.0, true)
        .is_ok());
}

#[test]
fn availability_aware_policy_never_double_books() {
    let mut server = eager_server(6);
    server.register_worker(WorkerId(1), here());
    server.submit_task(task(1, 60.0), 0.0);
    server.tick(0.0);
    server.submit_task(task(2, 60.0), 1.0);
    let out = server.tick(1.0);
    assert!(
        out.assignments.is_empty(),
        "REACT must not assign to a busy worker"
    );
}

#[test]
fn late_completion_after_expired_deadline_still_settles() {
    let mut server = eager_server(7);
    server.register_worker(WorkerId(1), here());
    server.submit_task(task(1, 10.0), 0.0);
    server.tick(0.0);
    // Deadline passes while assigned (soft real-time: no expiry).
    let out = server.tick(50.0);
    assert!(out.expired.is_empty());
    let done = server
        .complete_task(TaskId(1), WorkerId(1), 60.0, true)
        .unwrap();
    assert!(!done.met_deadline);
    assert!(!done.positive_feedback);
    // The slow execution entered the profile all the same.
    assert_eq!(
        server
            .profiling()
            .profile(WorkerId(1))
            .unwrap()
            .total_finished(),
        1
    );
}
