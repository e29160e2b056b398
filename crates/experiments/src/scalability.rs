//! Figures 9 and 10 — the scalability sweep (Sec. V-D).
//!
//! The paper stresses all three approaches over graph sizes of 100, 250,
//! 500, 750 and 1000 workers with arrival rates 1.5, 3.125, 6.25, 9.375
//! and 12.5 tasks/s respectively. Fig. 9 plots the percentage of tasks
//! finished before their deadline, Fig. 10 the percentage of positive
//! feedbacks. Expected shape: Greedy is best at 100 workers but collapses
//! as the graph grows (≈ 16 % at 1000); REACT degrades only mildly;
//! Traditional is roughly flat.

use crate::endtoend::paper_policies;
use crate::experiment::{Experiment, RunOutput};
use crate::spec::RunSpec;
use react_crowd::{RunReport, Scenario, ScenarioRunner};
use react_metrics::{KpiReport, KpiRow};

/// One sweep cell.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Policy name.
    pub policy: &'static str,
    /// Worker count.
    pub n_workers: usize,
    /// Arrival rate (tasks/s).
    pub rate: f64,
    /// The full run report.
    pub report: RunReport,
}

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct SweepParams {
    /// `(workers, rate)` pairs (paper defaults via
    /// [`Scenario::fig9_sweep_points`]).
    pub points: Vec<(usize, f64)>,
    /// Optional cap on tasks per run (the paper runs 10 simulated
    /// minutes per point; tests shorten this).
    pub task_cap: Option<usize>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SweepParams {
    fn default() -> Self {
        SweepParams {
            points: Scenario::fig9_sweep_points().to_vec(),
            task_cap: None,
            seed: 42,
        }
    }
}

impl SweepParams {
    /// Two-point sweep for tests/CI: the ends of the paper's range.
    /// Greedy's collapse needs the real 1000-worker scale, so the quick
    /// sweep keeps the sizes and shortens the runs instead.
    pub fn quick() -> Self {
        SweepParams {
            points: vec![(100, 1.5), (1000, 12.5)],
            task_cap: Some(1800),
            seed: 42,
        }
    }
}

/// Runs the sweep for all three policies.
pub fn run(params: &SweepParams) -> Vec<SweepPoint> {
    let mut out = Vec::new();
    for &(n_workers, rate) in &params.points {
        for policy in paper_policies() {
            let mut sc = Scenario::paper_fig9(n_workers, rate, policy, params.seed);
            if let Some(cap) = params.task_cap {
                sc.total_tasks = sc.total_tasks.min(cap);
            }
            let report = ScenarioRunner::new(sc).run();
            out.push(SweepPoint {
                policy: report.matcher_name,
                n_workers,
                rate,
                report,
            });
        }
    }
    out
}

/// The sweep cells as shared KPI rows (one schema serves the tables,
/// the CSV and the experiment suite).
pub fn kpi_rows(points: &[SweepPoint]) -> Vec<KpiRow> {
    points
        .iter()
        .map(|p| {
            KpiRow::new()
                .label("policy", p.policy)
                .int("workers", p.n_workers as i64)
                .float("rate", p.rate)
                .pct("kpi.deadline_hit_rate", p.report.deadline_ratio())
                .pct("kpi.positive_rate", p.report.positive_ratio())
                .int("tasks.reassigned", p.report.reassignments as i64)
                .float("matching.seconds", p.report.total_matching_seconds)
        })
        .collect()
}

/// The figure table a run archives.
const FIGURE: &str = "fig9_fig10_scalability";

/// The Fig. 9/10 tables plus the figure CSV.
pub fn report(points: &[SweepPoint]) -> RunOutput {
    let kpi = KpiReport::from_rows(kpi_rows(points));
    let fig9 = kpi.table(
        "Figure 9 — % of tasks before deadline vs graph size",
        Some(&["policy", "workers", "rate", "kpi.deadline_hit_rate"]),
    );
    let fig10 = kpi.table(
        "Figure 10 — % of positive feedback vs graph size",
        Some(&["policy", "workers", "rate", "kpi.positive_rate"]),
    );
    let text = format!("{}\n{}", fig9.render(), fig10.render());
    RunOutput::figure(FIGURE, kpi.rows, text)
}

/// Figures 9–10 as an [`Experiment`].
pub struct Scalability;

impl Experiment for Scalability {
    fn name(&self) -> &'static str {
        "scalability"
    }
    fn title(&self) -> &'static str {
        "Figures 9-10 — deadline/feedback ratios vs graph size"
    }
    fn figures(&self) -> Vec<&'static str> {
        vec![FIGURE]
    }
    fn run(&self, spec: &RunSpec) -> Result<RunOutput, String> {
        let params = SweepParams {
            seed: spec.seed,
            ..spec.sized(SweepParams::quick)
        };
        Ok(report(&run(&params)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_points() -> Vec<SweepPoint> {
        run(&SweepParams::quick())
    }

    #[test]
    fn sweep_covers_grid() {
        let pts = quick_points();
        assert_eq!(pts.len(), 2 * 3);
        assert!(pts
            .iter()
            .any(|p| p.policy == "greedy" && p.n_workers == 1000));
    }

    #[test]
    fn fig9_shape_greedy_collapses_at_scale() {
        let pts = quick_points();
        let at = |policy: &str, workers: usize| {
            pts.iter()
                .find(|p| p.policy == policy && p.n_workers == workers)
                .unwrap()
        };
        let greedy_small = at("greedy", 100).report.deadline_ratio();
        let greedy_large = at("greedy", 1000).report.deadline_ratio();
        let react_large = at("react", 1000).report.deadline_ratio();
        assert!(
            greedy_large < greedy_small,
            "greedy must degrade with scale: {greedy_small:.2} → {greedy_large:.2}"
        );
        assert!(
            react_large > greedy_large,
            "react ({react_large:.2}) must beat greedy ({greedy_large:.2}) at scale"
        );
    }

    #[test]
    fn fig10_tracks_fig9() {
        // The paper notes Fig. 10 is roughly proportional to Fig. 9.
        let pts = quick_points();
        for p in &pts {
            assert!(p.report.positive_ratio() <= p.report.deadline_ratio() + 1e-9);
        }
    }

    #[test]
    fn report_renders_and_archives() {
        let out = report(&quick_points());
        assert!(out.text.contains("Figure 9"));
        assert!(out.text.contains("Figure 10"));
        assert_eq!(out.figures.len(), 1);
        assert_eq!(out.figures[0].0, "fig9_fig10_scalability");
        assert_eq!(out.figures[0].1.len(), out.rows.len() + 1);
    }
}
