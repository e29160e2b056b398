//! Quickstart: drive one REACT region server by hand.
//!
//! Registers a handful of workers, submits location-based tasks, steps
//! the middleware clock, and shows assignments, a probabilistic recall
//! of a stalling worker, and completions.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use react::core::prelude::*;

fn main() {
    // Paper defaults, but batch eagerly (the demo has only a few tasks)
    // and skip the modelled PlanetLab matching latency.
    let mut config = Config::paper_defaults();
    config.batch = BatchTrigger {
        min_unassigned: 1,
        period: None,
    };
    config.charge_matching_time = false;
    let mut server = ServerBuilder::new(config)
        .seed(42)
        .build()
        .expect("paper defaults are valid");

    // A small crowd around Athens.
    let spots = [
        (37.9838, 23.7275, "Syntagma"),
        (37.9715, 23.7267, "Koukaki"),
        (38.0000, 23.7400, "Ampelokipoi"),
    ];
    for (i, (lat, lon, name)) in spots.iter().enumerate() {
        let id = WorkerId(i as u64 + 1);
        server.register_worker(id, GeoPoint::new(*lat, *lon));
        println!("registered {id} near {name}");
    }

    // Build execution-time profiles: keep submitting quick training
    // tasks until every worker has the paper's z = 3 completions, so the
    // probabilistic model is active no matter whom the matcher picks for
    // the urgent task below (the matcher, not the demo, chooses the
    // assignee — it need not round-robin).
    let mut now = 0.0;
    let mut next_task = 100u64;
    while server.profiling().iter().any(|p| p.total_finished() < 3) {
        let tid = TaskId(next_task);
        next_task += 1;
        server.submit_task(
            Task::new(
                tid,
                GeoPoint::new(37.98, 23.73),
                60.0,
                0.05,
                TaskCategory(0),
                "training task",
            ),
            now,
        );
        // The outcome is lent by the server, so copy the assignments out
        // before completing them.
        let assignments = server.tick(now).assignments.clone();
        for (worker, task) in assignments {
            // Everyone answers quickly during training: 4–6 s.
            let exec = 4.0 + (task.0 % 3) as f64 * 0.7;
            let done = server
                .complete_task(task, worker, now + exec, true)
                .expect("assignment just made");
            println!(
                "t={:5.1}s  {worker} finished {task} in {exec:.1}s (deadline met: {})",
                now + exec,
                done.met_deadline
            );
        }
        now += 8.0;
    }

    // Now the interesting part: a real-time task lands on a worker who
    // stalls. The Dynamic Assignment Component (Eq. 2) notices that the
    // elapsed time has exceeded anything in the worker's power-law
    // profile and recalls the task for reassignment.
    let urgent = TaskId(500);
    server.submit_task(
        Task::new(
            urgent,
            GeoPoint::new(37.99, 23.73),
            60.0,
            0.10,
            TaskCategory(0),
            "Is the Kifisias avenue congested right now?",
        ),
        now,
    );
    let out = server.tick(now);
    let (stalling_worker, _) = out.assignments[0];
    println!("\nt={now:5.1}s  urgent task assigned to {stalling_worker} … who stalls");

    // 30 seconds pass with no result (profile says ≤ ~6 s is normal).
    let mut recalled = false;
    for step in 1..=30 {
        let t = now + step as f64;
        let out = server.tick(t);
        if let Some(recall) = out.recalls.first() {
            println!(
                "t={t:5.1}s  Eq. (2) probability fell to {:.3} → task recalled from {}",
                recall.probability, recall.worker
            );
            recalled = true;
        }
        if let Some(&(worker, task)) = out.assignments.first() {
            println!("t={t:5.1}s  task {task} reassigned to {worker}");
            let done = server
                .complete_task(task, worker, t + 5.0, true)
                .expect("reassignment valid");
            println!(
                "t={:5.1}s  {worker} delivered the answer — deadline met: {}, feedback positive: {}",
                t + 5.0,
                done.met_deadline,
                done.positive_feedback
            );
            break;
        }
    }
    assert!(recalled, "the stalled assignment should have been recalled");

    let total = server
        .profiling()
        .iter()
        .map(|p| p.total_finished())
        .sum::<u64>();
    println!(
        "\ncrowd completed {total} tasks overall; scheduler ran {} batches",
        server.batches_run()
    );
}
