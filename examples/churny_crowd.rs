//! Churny crowd — connectivity churn and multi-region decomposition.
//!
//! The paper warns that *"even the most reliable workers may have short
//! connectivity cycles"*. This demo runs the same REACT workload over an
//! increasingly flaky crowd, then shows the paper's proposed remedy for
//! overload: splitting the area into more regions.
//!
//! ```text
//! cargo run --release --example churny_crowd
//! ```

use react::cluster::{ClusterPolicy, ClusterRunner, ClusterScenario};
use react::core::MatcherPolicy;
use react::crowd::{ChurnParams, Scenario, ScenarioRunner};
use react::metrics::Table;

fn main() {
    // Part 1 — a 150-worker region under growing churn.
    let mut table = Table::new(&[
        "mean online s",
        "churn events",
        "met deadline %",
        "reassigned",
        "expired",
    ])
    .with_title("REACT under worker connectivity churn (150 workers, 1200 tasks)");
    for mean_online in [f64::INFINITY, 120.0, 45.0, 15.0] {
        let mut sc = Scenario::paper_fig5(MatcherPolicy::React { cycles: 1000 }, 99);
        sc.n_workers = 150;
        sc.arrival_rate = 1.875;
        sc.total_tasks = 1200;
        sc.churn = mean_online.is_finite().then_some(ChurnParams {
            mean_online,
            offline_range: (10.0, 40.0),
        });
        let r = ScenarioRunner::new(sc).run();
        table.add_row(vec![
            if mean_online.is_finite() {
                format!("{mean_online}")
            } else {
                "stable".to_string()
            },
            r.churn_events.to_string(),
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
