//! Restart resilience: a middleware restart must not reset worker
//! profiles to "in training". Drives a server, checkpoints its Profiling
//! Component, restores it into a fresh server and verifies behaviour
//! carries over.

use react::core::prelude::*;
use react::core::{export_profiles, import_profiles};
use react::prob::EstimatorConfig;

fn here() -> GeoPoint {
    GeoPoint::new(37.98, 23.72)
}

fn task(id: u64, deadline: f64) -> Task {
    Task::new(TaskId(id), here(), deadline, 0.05, TaskCategory(0), "t")
}

fn eager_config() -> Config {
    let mut config = Config::paper_defaults();
    config.batch = BatchTrigger {
        min_unassigned: 1,
        period: None,
    };
    config.charge_matching_time = false;
    config
}

/// Runs a warm-up session: two workers complete enough tasks to build
/// profiles (fast worker 1, slow worker 2).
fn warmed_up_server() -> ReactServer {
    let mut server = ServerBuilder::new(eager_config())
        .seed(1)
        .build()
        .expect("valid config");
    server.register_worker(WorkerId(1), here());
    let mut now = 0.0;
    // Worker 1: 4 fast completions with positive feedback.
    for i in 0..4 {
        server.submit_task(task(i, 60.0), now);
        server.tick(now);
        server
            .complete_task(TaskId(i), WorkerId(1), now + 2.0, true)
            .unwrap();
        now += 5.0;
    }
    // Worker 2: 4 slow completions, mixed feedback.
    server.register_worker(WorkerId(2), here());
    server.worker_offline(WorkerId(1), now);
    for i in 10..14 {
        server.submit_task(task(i, 120.0), now);
        server.tick(now);
        server
            .complete_task(TaskId(i), WorkerId(2), now + 60.0, i % 2 == 0)
            .unwrap();
        now += 70.0;
    }
    server.worker_online(WorkerId(1)).unwrap();
    server
}

#[test]
fn restored_profiles_preserve_training_and_accuracy() {
    let old = warmed_up_server();
    let checkpoint = export_profiles(old.profiling());

    // "Restart": fresh server, profiles imported.
    let restored = import_profiles(&checkpoint, EstimatorConfig::default()).unwrap();
    assert_eq!(restored.len(), 2);
    for id in [WorkerId(1), WorkerId(2)] {
        let before = old.profiling().profile(id).unwrap();
        let after = restored.profile(id).unwrap();
        assert_eq!(after.assignments_served(), before.assignments_served());
        assert_eq!(
            after.accuracy(TaskCategory(0)),
            before.accuracy(TaskCategory(0))
        );
        assert_eq!(after.exec_samples(), before.exec_samples());
        assert!(after.is_profiled(), "{id} must stay out of training");
    }
}

#[test]
fn restored_server_still_recalls_stalls() {
    // The restored profile must drive Eq. (2) recalls exactly as the
    // original would: worker 1's ≤2 s history makes a 40 s stall
    // hopeless.
    let old = warmed_up_server();
    let checkpoint = export_profiles(old.profiling());
    let profiling = import_profiles(&checkpoint, EstimatorConfig::default()).unwrap();

    // Exercise the end-to-end path: a fresh server whose workers replay
    // the checkpointed execution history through the normal completion
    // API (the component-level exact restore is covered above).
    let mut server = ServerBuilder::new(eager_config())
        .seed(2)
        .build()
        .expect("valid config");
    for p in profiling.iter() {
        server.register_worker(p.id(), p.location());
    }
    // Replay worker 1's history so its profile is warm again.
    let fast = profiling.profile(WorkerId(1)).unwrap();
    let mut now = 0.0;
    for (i, &t) in fast.exec_samples().iter().enumerate() {
        server.worker_offline(WorkerId(2), now);
        server.submit_task(task(100 + i as u64, 60.0), now);
        server.tick(now);
        server
            .complete_task(TaskId(100 + i as u64), WorkerId(1), now + t, true)
            .unwrap();
        server.worker_online(WorkerId(2)).unwrap();
        now += t + 1.0;
    }
    // Fresh task lands on worker 1 (higher accuracy); it stalls.
    server.worker_offline(WorkerId(2), now);
    server.submit_task(task(500, 90.0), now);
    let out = server.tick(now);
    assert_eq!(out.assignments.len(), 1);
    let mut recalled = false;
    for step in 1..=60 {
        let out = server.tick(now + step as f64);
        if !out.recalls.is_empty() {
            recalled = true;
            break;
        }
    }
    assert!(recalled, "restored-profile server must recall the stall");
}

#[test]
fn checkpoint_is_stable_across_restarts() {
    let old = warmed_up_server();
    let once = export_profiles(old.profiling());
    let twice = export_profiles(&import_profiles(&once, EstimatorConfig::default()).unwrap());
    assert_eq!(once, twice, "export∘import must be idempotent");
}
