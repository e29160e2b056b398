//! Figures 3 and 4 — the WBGM matching micro-benchmarks.
//!
//! Setup (Sec. V-B): 1000 workers matched against 1…1000 tasks on a
//! *full* bipartite graph with weights uniform in `[0, 1]` — the worst
//! case for the matchers. Fig. 3 reports assignment time (paper anchors:
//! Greedy 99.7 s @ 1000 tasks; REACT/Metropolis ≈ 12 s @ 1000 cycles,
//! ≈ 45 s @ 3000); Fig. 4 reports the achieved matching weight (Greedy
//! near-optimal; REACT above Metropolis even at a third of the cycles).
//!
//! Two time columns are reported: the **modelled** seconds from the
//! calibrated [`CostModel`] (comparable to the paper's JVM-on-PlanetLab
//! numbers) and the **measured** wall seconds of this Rust
//! implementation.

use crate::experiment::{Experiment, RunOutput};
use crate::spec::RunSpec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use react_matching::{
    BipartiteGraph, CostModel, GreedyMatcher, HungarianMatcher, Matcher, MetropolisMatcher,
    ReactMatcher,
};
use react_metrics::{KpiReport, KpiRow};
use std::time::Instant;

/// One measured point of the Fig. 3/4 sweep.
#[derive(Debug, Clone)]
pub struct MatchPoint {
    /// Algorithm label, e.g. `react-1000`.
    pub algo: String,
    /// Number of task vertices.
    pub tasks: usize,
    /// Modelled seconds (paper-calibrated cost model).
    pub modeled_secs: f64,
    /// Measured wall seconds of this implementation.
    pub wall_secs: f64,
    /// Achieved matching weight (Fig. 4's y-axis).
    pub weight: f64,
    /// Matched pairs.
    pub matched: usize,
}

/// Parameters of the sweep.
#[derive(Debug, Clone)]
pub struct Fig34Params {
    /// Worker-side size (paper: 1000).
    pub n_workers: usize,
    /// Task counts to sweep (paper: 1…1000).
    pub task_steps: Vec<usize>,
    /// Include the exact Hungarian optimum up to this many tasks
    /// (`O(n³)` — the ceiling for Fig. 4).
    pub hungarian_up_to: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig34Params {
    fn default() -> Self {
        Fig34Params {
            n_workers: 1000,
            task_steps: vec![1, 100, 200, 400, 600, 800, 1000],
            hungarian_up_to: 200,
            seed: 42,
        }
    }
}

impl Fig34Params {
    /// A reduced sweep for tests/CI. The largest step stays above the
    /// modelled greedy/REACT cost crossover (`V > c·β_r/β_g ≈ 135`) so
    /// the Fig. 3 shape is still visible.
    pub fn quick() -> Self {
        Fig34Params {
            n_workers: 200,
            task_steps: vec![10, 60, 200],
            hungarian_up_to: 60,
            seed: 42,
        }
    }
}

/// Runs the sweep and returns every `(algorithm, tasks)` point.
// The figure's `wall_secs` column: wall-clock timing IS the measurement here.
#[allow(clippy::disallowed_methods)]
pub fn run(params: &Fig34Params) -> Vec<MatchPoint> {
    let cost_model = CostModel::paper_calibrated();
    let mut points = Vec::new();
    for &tasks in &params.task_steps {
        let mut weight_rng = SmallRng::seed_from_u64(params.seed ^ tasks as u64);
        let graph = BipartiteGraph::full(params.n_workers, tasks, |_, _| weight_rng.gen::<f64>())
            .expect("full graph construction cannot fail");
        let mut algos: Vec<(String, Box<dyn Matcher>)> = vec![
            ("greedy".to_string(), Box::new(GreedyMatcher)),
            (
                "react-1000".to_string(),
                Box::new(ReactMatcher::with_cycles(1000)),
            ),
            (
                "react-3000".to_string(),
                Box::new(ReactMatcher::with_cycles(3000)),
            ),
            (
                "metropolis-1000".to_string(),
                Box::new(MetropolisMatcher::with_cycles(1000)),
            ),
            (
                "metropolis-3000".to_string(),
                Box::new(MetropolisMatcher::with_cycles(3000)),
            ),
        ];
        if tasks <= params.hungarian_up_to {
            algos.push(("hungarian".to_string(), Box::new(HungarianMatcher)));
        }
        for (label, matcher) in algos {
            let mut rng = SmallRng::seed_from_u64(params.seed ^ 0xa150);
            let t0 = Instant::now();
            let matching = matcher.assign(&graph, &mut rng);
            let wall_secs = t0.elapsed().as_secs_f64();
            points.push(MatchPoint {
                algo: label,
                tasks,
                modeled_secs: cost_model.seconds_for(matcher.name(), matching.cost_units),
                wall_secs,
                weight: matching.total_weight,
                matched: matching.len(),
            });
        }
    }
    points
}

/// The sweep points as shared KPI rows (one schema serves the tables,
/// the CSV and the experiment suite).
pub fn kpi_rows(points: &[MatchPoint]) -> Vec<KpiRow> {
    points
        .iter()
        .map(|p| {
            KpiRow::new()
                .label("algorithm", &p.algo)
                .int("tasks", p.tasks as i64)
                .float("modeled_secs", p.modeled_secs)
                .float("wall_secs", p.wall_secs)
                .float("weight", p.weight)
                .int("matched", p.matched as i64)
        })
        .collect()
}

/// The figure table a run archives.
const FIGURE: &str = "fig3_fig4_matching";

/// The Fig. 3 and Fig. 4 tables plus the figure CSV.
pub fn report(points: &[MatchPoint]) -> RunOutput {
    let report = KpiReport::from_rows(kpi_rows(points));
    let fig3 = report.table(
        "Figure 3 — matching execution time (1000 workers, full graph)",
        Some(&["algorithm", "tasks", "modeled_secs", "wall_secs"]),
    );
    let fig4 = report.table(
        "Figure 4 — matching output (Σ w_ij of the selected edges)",
        Some(&["algorithm", "tasks", "weight", "matched"]),
    );
    let text = format!("{}\n{}", fig3.render(), fig4.render());
    RunOutput::figure(FIGURE, report.rows, text)
}

/// Figures 3–4 as an [`Experiment`]: one wall-clock cell.
pub struct Fig34;

impl Experiment for Fig34 {
    fn name(&self) -> &'static str {
        "fig34"
    }
    fn title(&self) -> &'static str {
        "Figures 3-4 — WBGM matching time and weight micro-benchmarks"
    }
    fn figures(&self) -> Vec<&'static str> {
        vec![FIGURE]
    }
    fn run(&self, spec: &RunSpec) -> Result<RunOutput, String> {
        let params = Fig34Params {
            seed: spec.seed,
            ..spec.sized(Fig34Params::quick)
        };
        Ok(report(&run(&params)))
    }
    fn parallel_safe(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_points() -> Vec<MatchPoint> {
        run(&Fig34Params::quick())
    }

    #[test]
    fn sweep_covers_all_algorithms_and_steps() {
        let pts = quick_points();
        // 3 steps × 5 heuristics + hungarian at ≤60 (2 steps).
        assert_eq!(pts.len(), 3 * 5 + 2);
        assert!(pts.iter().any(|p| p.algo == "hungarian" && p.tasks == 60));
        assert!(!pts.iter().any(|p| p.algo == "hungarian" && p.tasks == 200));
    }

    #[test]
    fn fig3_shape_greedy_dominates_at_scale() {
        // The paper's headline: at the largest size Greedy's modelled
        // time exceeds REACT@1000 by several times.
        let pts = quick_points();
        let at = |algo: &str, tasks: usize| {
            pts.iter()
                .find(|p| p.algo == algo && p.tasks == tasks)
                .unwrap()
        };
        let greedy = at("greedy", 200);
        let react = at("react-1000", 200);
        assert!(
            greedy.modeled_secs > react.modeled_secs,
            "greedy {} vs react {}",
            greedy.modeled_secs,
            react.modeled_secs
        );
        // And 3000 cycles costs 3× the 1000-cycle budget.
        let react3 = at("react-3000", 200);
        assert!((react3.modeled_secs / react.modeled_secs - 3.0).abs() < 1e-9);
    }

    #[test]
    fn fig4_shape_quality_ordering() {
        let pts = quick_points();
        let at = |algo: &str, tasks: usize| {
            pts.iter()
                .find(|p| p.algo == algo && p.tasks == tasks)
                .unwrap()
        };
        // Hungarian ≥ greedy ≥ react ≥ metropolis at equal cycles
        // (small tolerance: the heuristics are randomized).
        let hung = at("hungarian", 60).weight;
        let greedy = at("greedy", 60).weight;
        let react = at("react-1000", 60).weight;
        let metro = at("metropolis-1000", 60).weight;
        assert!(hung >= greedy - 1e-9);
        assert!(greedy > react * 0.99);
        assert!(
            react > metro,
            "REACT ({react:.2}) must beat Metropolis ({metro:.2}) at equal cycles"
        );
    }

    #[test]
    fn react_beats_metropolis_with_a_third_of_cycles() {
        // The paper's strongest Fig. 4 claim.
        let pts = quick_points();
        let at = |algo: &str, tasks: usize| {
            pts.iter()
                .find(|p| p.algo == algo && p.tasks == tasks)
                .unwrap()
        };
        let react1k = at("react-1000", 200).weight;
        let metro3k = at("metropolis-3000", 200).weight;
        assert!(
            react1k > metro3k * 0.95,
            "react@1000 ({react1k:.2}) should rival metropolis@3000 ({metro3k:.2})"
        );
    }

    #[test]
    fn report_renders_and_archives() {
        let out = report(&quick_points());
        assert!(out.text.contains("Figure 3"));
        assert!(out.text.contains("Figure 4"));
        assert_eq!(out.figures.len(), 1);
        assert_eq!(out.figures[0].0, "fig3_fig4_matching");
        // Header + one CSV row per KPI row.
        assert_eq!(out.figures[0].1.len(), out.rows.len() + 1);
    }
}
