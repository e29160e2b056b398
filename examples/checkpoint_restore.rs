//! Checkpoint & restore — worker profiles survive a middleware restart.
//!
//! Builds profiles through a short working session, exports them with
//! `react::core::persist`, "restarts" into a fresh Profiling Component,
//! and shows that accuracy, training counters and the fitted power-law
//! models carry over byte-for-byte.
//!
//! ```text
//! cargo run --example checkpoint_restore
//! ```

use react::core::prelude::*;
use react::core::{export_profiles, import_profiles};
use react::prob::EstimatorConfig;

fn main() {
    let here = GeoPoint::new(37.98, 23.72);
    let mut config = Config::paper_defaults();
    config.batch = BatchTrigger {
        min_unassigned: 1,
        period: None,
    };
    config.charge_matching_time = false;
    let mut server = ServerBuilder::new(config)
        .seed(11)
        .build()
        .expect("paper defaults are valid");

    // A short working session: two workers, six tasks each.
    for w in 1..=2u64 {
        server.register_worker(WorkerId(w), here);
    }
    let mut now = 0.0;
    for i in 0..12u64 {
        server.submit_task(
            Task::new(TaskId(i), here, 60.0, 0.05, TaskCategory(0), "t"),
            now,
        );
        let assignments = server.tick(now).assignments.clone();
        for (worker, task) in assignments {
            // Worker 1 is fast and reliable, worker 2 slow and sloppy.
            let (exec, ok) = if worker == WorkerId(1) {
                (3.0, true)
            } else {
                (25.0, i % 2 == 0)
            };
            server
                .complete_task(task, worker, now + exec, ok)
                .expect("fresh assignment");
        }
        now += 30.0;
    }

    println!("before restart:");
    for p in server.profiling().iter() {
        println!(
            "  {}: {} finished, accuracy {:.2}, exec samples {:?}",
            p.id(),
            p.total_finished(),
            p.accuracy(TaskCategory(0)),
            p.exec_samples()
        );
    }

    // Checkpoint.
    let checkpoint = export_profiles(server.profiling());
    println!("\ncheckpoint ({} bytes):\n{checkpoint}", checkpoint.len());

    // "Restart": a brand-new component, fully restored.
    let restored = import_profiles(&checkpoint, EstimatorConfig::default())
        .expect("our own checkpoint parses");
    println!("after restart:");
    for id in [WorkerId(1), WorkerId(2)] {
        let p = restored.profile(id).expect("restored");
        println!(
            "  {}: {} finished, accuracy {:.2}, still profiled: {}",
            p.id(),
            p.total_finished(),
            p.accuracy(TaskCategory(0)),
            p.is_profiled()
        );
    }
    assert_eq!(
        export_profiles(&restored),
        checkpoint,
        "round-trip is byte-stable"
    );
    println!("\nround-trip byte-stable ✓ — no worker returns to training after a restart");
}
