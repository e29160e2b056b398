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
//! The replay client waits for each answer before its connection's next
//! send, so this is a demonstration, not a measurement: the benchmark's
//! `wire-steady` and `wire-overload` workloads measure the live stack.
//!
//! ```text
//! cargo run --release --example live_dispatch
//! ```

use react::load::{build_trace, replay, Shape};
use react::prob::stats::percentile_sorted;
use react::runtime::{IngestConfig, IngestRuntime};
use std::sync::atomic::Ordering;

fn main() -> std::io::Result<()> {
    let (tasks, rate, seed) = (200, 4.0, 2013);
    let config = IngestConfig {
        n_workers: 40,
        time_scale: 120.0,
        seed,
        // One acceptor per sender: an acceptor serves one keep-alive
        // connection at a time.
        acceptors: 4,
        ..IngestConfig::default()
    };
    println!(
        "a crowd of {} workers; {tasks} tasks at {rate}/crowd-second, {}× time compression…",
        config.n_workers, config.time_scale
    );

    let trace = build_trace(Shape::Poisson, rate, tasks, seed);
    let handle = IngestRuntime::new(config).start()?;
    let clock = handle.clock();
    let stats = replay(handle.local_addr(), clock, &trace, 4);
    let report = handle.shutdown();

    println!(
        "\nlive run finished in {:.1} wall-seconds:",
        clock.now() / clock.scale()
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
        percentile_sorted(&report.assign_latencies, 0.50),
        percentile_sorted(&report.assign_latencies, 0.99)
    );

    assert_eq!(
        stats.transport_errors.load(Ordering::Relaxed),
        0,
        "a local replay loses no request in transport"
    );
    assert!(
        report.conserved(),
        "every accepted task must complete, expire or be shed"
    );
    Ok(())
}
