//! Live dispatch — the middleware on real threads, real sockets and the
//! wall clock.
//!
//! Self-hosts the ingest stack (TCP acceptors and the scheduler thread,
//! which keeps the crowd as a timer queue) and replays a seeded Poisson
//! trace through it over real connections, with time compressed 120×
//! (two simulated minutes per wall second). Demonstrates asynchronous
//! assignment, interruptible execution (Eq. 2 recalls actually abort the
//! busy "human"), and a clean drain on shutdown.
//!
//! ```text
//! cargo run --release --example live_dispatch
//! ```

use react::load::{run, LoadParams};

fn main() -> std::io::Result<()> {
    let params = LoadParams {
        n_workers: 40,
        tasks: 200,
        rate: 4.0,
        time_scale: 120.0,
        seed: 2013,
        ..LoadParams::default()
    };
    println!(
        "a crowd of {} workers; {} tasks at {}/crowd-second, {}× time compression…",
        params.n_workers, params.tasks, params.rate, params.time_scale
    );

    let report = run(&params)?;

    println!(
        "\nlive run finished in {:.1} wall-seconds:",
        report.wall_seconds
    );
    println!("  offered at the door {}", report.offered);
    println!("  accepted            {}", report.accepted);
    println!("  completed           {}", report.completed);
    println!(
        "  met deadline        {} ({:.1}%)",
        report.met_deadline,
        100.0 * report.met_deadline as f64 / report.accepted.max(1) as f64
    );
    println!("  recalls             {}", report.recalls);
    println!("  expired in queue    {}", report.expired);
    println!("  matching batches    {}", report.batches);
    println!(
        "  assign latency      p50 {:.1}s  p99 {:.1}s (crowd time)",
        report.p50_assign, report.p99_assign
    );

    assert!(
        report.conserved,
        "every accepted task must complete, expire or be shed"
    );
    Ok(())
}
