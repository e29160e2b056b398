//! Matcher comparison — the WBGM algorithms side by side on one graph.
//!
//! Builds a contended 200×200 full bipartite graph and reports matching
//! weight, optimality gap (vs the exact Hungarian solution), measured
//! Rust wall time and the paper-calibrated modelled time for each
//! algorithm — a miniature of the paper's Figs. 3–4 plus the exact
//! reference.
//!
//! ```text
//! cargo run --release --example matcher_comparison
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use react::matching::{
    BipartiteGraph, CostModel, GreedyMatcher, HungarianMatcher, Matcher, MetropolisMatcher,
    ReactMatcher,
};
use react::metrics::Table;
use std::time::Instant;

// The `wall ms` column: wall-clock timing IS the measurement here.
#[allow(clippy::disallowed_methods)]
fn main() {
    let side = 200;
    let mut weight_rng = SmallRng::seed_from_u64(7);
    let graph = BipartiteGraph::full(side, side, |_, _| weight_rng.gen::<f64>())
        .expect("uniform weights are valid");
    println!(
        "full graph: {} workers × {} tasks = {} edges\n",
        graph.n_workers(),
        graph.n_tasks(),
        graph.n_edges()
    );

    let cost_model = CostModel::paper_calibrated();
    let matchers: Vec<Box<dyn Matcher>> = vec![
        Box::new(HungarianMatcher),
        Box::new(GreedyMatcher),
        Box::new(ReactMatcher::with_cycles(3000)),
        Box::new(ReactMatcher::with_cycles(1000)),
        Box::new(MetropolisMatcher::with_cycles(3000)),
        Box::new(MetropolisMatcher::with_cycles(1000)),
    ];
    let labels = [
        "hungarian (exact)",
        "greedy",
        "react @3000",
        "react @1000",
        "metropolis @3000",
        "metropolis @1000",
    ];

    let mut optimum = None;
    let mut table = Table::new(&["algorithm", "weight", "of optimal", "wall ms", "modeled s"])
        .with_title("matching quality vs cost");
    for (matcher, label) in matchers.iter().zip(labels) {
        let mut rng = SmallRng::seed_from_u64(99);
        let t0 = Instant::now();
        let m = matcher.assign(&graph, &mut rng);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        m.verify(&graph);
        let opt = *optimum.get_or_insert(m.total_weight);
        table.add_row(vec![
            label.to_string(),
            format!("{:.2}", m.total_weight),
            format!("{:.1}%", 100.0 * m.total_weight / opt),
            format!("{wall_ms:.2}"),
            format!(
                "{:.2}",
                cost_model.seconds_for(matcher.name(), m.cost_units)
            ),
        ]);
    }
    println!("{}", table.render());
    println!(
        "note: 'modeled s' replays the paper's 2013 JVM/PlanetLab calibration \
         (Fig. 3 anchors); 'wall ms' is this Rust implementation."
    );
}
