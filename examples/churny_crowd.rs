//! Churny crowd — workers that leave and come back, and multi-region
//! decomposition.
//!
//! The paper warns that *"even the most reliable workers may have short
//! connectivity cycles"*. This demo runs the same REACT workload over an
//! increasingly flaky crowd — a fault plan that takes each worker away
//! once with probability p and brings it back 10–40 s later — then shows
//! the paper's proposed remedy for overload: splitting the area into more
//! regions.
//!
//! ```text
//! cargo run --release --example churny_crowd
//! ```

use react::cluster::{ClusterPolicy, ClusterRunner, ClusterScenario};
use react::core::MatcherPolicy;
use react::crowd::{Scenario, ScenarioRunner};
use react::faults::{DropoutPlan, FaultPlan};
use react::metrics::Table;

fn main() {
    // Part 1 — a 150-worker region under growing dropout, each worker
    // leaving at most once inside the 640 s arrival span.
    let mut table = Table::new(&[
        "dropout p",
        "dropouts",
        "met deadline %",
        "reassigned",
        "expired",
    ])
    .with_title("REACT under worker dropout with rejoin (150 workers, 1200 tasks)");
    for probability in [0.0, 0.25, 0.5, 0.9] {
        let mut sc = Scenario::paper_fig5(MatcherPolicy::React { cycles: 1000 }, 99);
        sc.n_workers = 150;
        sc.arrival_rate = 1.875;
        sc.total_tasks = 1200;
        sc.faults = Some(FaultPlan {
            dropout: Some(DropoutPlan {
                probability,
                window: (0.0, 640.0),
                offline_range: Some((10.0, 40.0)),
            }),
            ..FaultPlan::none()
        });
        let r = ScenarioRunner::new(sc).run();
        table.add_row(vec![
            format!("{probability}"),
            r.faults.dropouts.to_string(),
            format!("{:.1}%", 100.0 * r.deadline_ratio()),
            r.reassignments.to_string(),
            r.expired_unassigned.to_string(),
        ]);
    }
    println!("{}", table.render());

    // Part 2 — the same global load over finer region grids: a cluster
    // run with every coupling mechanism off.
    let mut table = Table::new(&["grid", "servers", "met deadline %", "max server match s"])
        .with_title("Region splitting under one global load (600 workers, 4800 tasks)");
    for (rows, cols) in [(1u32, 1u32), (2, 2), (3, 3)] {
        let mut global = Scenario::paper_fig5(MatcherPolicy::React { cycles: 1000 }, 7);
        global.n_workers = 600;
        global.arrival_rate = 7.5;
        global.total_tasks = 4800;
        let report = ClusterRunner::new(ClusterScenario {
            global,
            rows,
            cols,
            policy: ClusterPolicy::single_tier(),
        })
        .run();
        table.add_row(vec![
            format!("{rows}x{cols}"),
            (rows * cols).to_string(),
            format!("{:.1}%", 100.0 * report.deadline_ratio()),
            format!("{:.1}", report.max_matching_seconds()),
        ]);
    }
    println!("{}", table.render());
    println!(
        "finer grids shrink each server's bipartite graph, cutting the modelled \
         matching latency exactly as the paper's future-work section predicts."
    );
}
