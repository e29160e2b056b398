//! Figures 5–8 — the end-to-end evaluation (Sec. V-C).
//!
//! One region server, 750 workers, tasks at 9.375/s (≈ 8371 total),
//! deadlines 60–120 s, batches at > 10 unassigned tasks, comparing:
//!
//! * **REACT** (Algorithm 1 @ 1000 cycles + the probabilistic model),
//! * **Greedy** (with the probabilistic model, as in the paper),
//! * **Traditional** (AMT-style blind uniform assignment, no model).
//!
//! Paper anchors: REACT finishes 6091 / 8371 before the deadline vs
//! 4264 for Traditional (Fig. 5); positive feedback 4941 vs 3066
//! (Fig. 6); Greedy's cumulative curve rises for ≈ 4200 tasks and then
//! degrades from matching-induced queueing; Traditional's worker
//! execution times are the worst (Fig. 7) and REACT cuts total
//! execution time by up to ≈ 45 % (Fig. 8).

use crate::experiment::{Experiment, RunOutput};
use crate::spec::RunSpec;
use react_core::MatcherPolicy;
use react_crowd::{RunReport, Scenario, ScenarioRunner};
use react_metrics::{ascii_chart, ChartSeries, KpiReport, KpiRow, TimeSeries};

/// The three policies of the paper's end-to-end comparison.
pub fn paper_policies() -> [MatcherPolicy; 3] {
    [
        MatcherPolicy::React { cycles: 1000 },
        MatcherPolicy::Greedy,
        MatcherPolicy::Traditional,
    ]
}

/// Parameters for the end-to-end comparison.
#[derive(Debug, Clone)]
pub struct EndToEndParams {
    /// Worker count (paper: 750).
    pub n_workers: usize,
    /// Total tasks (paper: 8371).
    pub total_tasks: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EndToEndParams {
    fn default() -> Self {
        EndToEndParams {
            n_workers: 750,
            total_tasks: 8371,
            seed: 42,
        }
    }
}

impl EndToEndParams {
    /// Reduced setup for tests/CI.
    pub fn quick() -> Self {
        EndToEndParams {
            n_workers: 80,
            total_tasks: 400,
            seed: 42,
        }
    }
}

/// Runs the three-policy comparison.
pub fn run(params: &EndToEndParams) -> Vec<RunReport> {
    paper_policies()
        .into_iter()
        .map(|policy| {
            let mut sc = Scenario::paper_fig5(policy, params.seed);
            sc.n_workers = params.n_workers;
            sc.total_tasks = params.total_tasks;
            // Keep the arrival rate proportional when scaled down so the
            // load regime matches the paper's.
            sc.arrival_rate *= params.n_workers as f64 / 750.0;
            ScenarioRunner::new(sc).run()
        })
        .collect()
}

/// The comparison as shared KPI rows (one schema serves the summary
/// table, the CSV and the experiment suite). Counter-backed columns use
/// the obs-catalog names.
pub fn kpi_rows(reports: &[RunReport]) -> Vec<KpiRow> {
    reports
        .iter()
        .map(|r| {
            KpiRow::new()
                .label("policy", r.matcher_name)
                .int("kpi.received", r.received as i64)
                .int("deadlines.met", r.met_deadline as i64)
                .pct("kpi.deadline_hit_rate", r.deadline_ratio())
                .int("feedback.positive", r.positive_feedback as i64)
                .pct("kpi.positive_rate", r.positive_ratio())
                .int("tasks.reassigned", r.reassignments as i64)
                .float("kpi.avg_exec_s", r.avg_exec_time())
                .float("kpi.avg_total_s", r.avg_total_time())
                .float("matching.seconds", r.total_matching_seconds)
                .int("batches.run", r.batches as i64)
        })
        .collect()
}

/// Formats a float for the curve CSVs (enough digits, no noise).
fn num(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:.4}")
    }
}

/// One cumulative curve (Fig. 5 or 6) as CSV rows, thinned to ≤ 200
/// points per policy.
fn curve_csv(reports: &[RunReport], series_of: fn(&RunReport) -> &TimeSeries) -> Vec<Vec<String>> {
    let mut rows = vec![vec![
        "policy".to_string(),
        "received".to_string(),
        "cumulative".to_string(),
    ]];
    for r in reports {
        for (x, y) in series_of(r).thin(200) {
            rows.push(vec![r.matcher_name.to_string(), num(x), num(y)]);
        }
    }
    rows
}

/// The figure tables a run archives: summary, Fig. 5 and Fig. 6 curves.
const FIGURES: [&str; 3] = [
    "fig5_8_summary",
    "fig5_deadline_curve",
    "fig6_feedback_curve",
];

/// The Figs. 5–8 tables and chart plus the three figure CSVs.
pub fn report(reports: &[RunReport]) -> RunOutput {
    let kpi = KpiReport::from_rows(kpi_rows(reports));
    let summary = kpi.table("Figures 5-8 — end-to-end comparison", None);
    let figures = vec![
        (FIGURES[0], kpi.to_csv_rows(None)),
        (FIGURES[1], curve_csv(reports, |r| &r.series_met)),
        (FIGURES[2], curve_csv(reports, |r| &r.series_positive)),
    ];

    let mut out = summary.render();
    // Terminal rendition of the Fig. 5 curves (thinned).
    let thinned: Vec<(&str, Vec<(f64, f64)>)> = reports
        .iter()
        .map(|r| (r.matcher_name, r.series_met.thin(120)))
        .collect();
    let series: Vec<ChartSeries<'_>> = thinned
        .iter()
        .map(|(name, points)| ChartSeries { name, points })
        .collect();
    out.push('\n');
    out.push_str(&ascii_chart(
        "Figure 5 — cumulative tasks before deadline (y) vs tasks received (x)",
        &series,
        72,
        18,
    ));
    // Headline comparisons the paper calls out in its abstract.
    if let (Some(react), Some(trad)) = (
        reports.iter().find(|r| r.matcher_name == "react"),
        reports.iter().find(|r| r.matcher_name == "traditional"),
    ) {
        if trad.met_deadline > 0 {
            out.push_str(&format!(
                "\nREACT meets {} deadlines vs Traditional {} → {:.0}% more tasks in time \
                 (paper: 6091 vs 4264, \"up to 61%\")\n",
                react.met_deadline,
                trad.met_deadline,
                100.0 * (react.met_deadline as f64 / trad.met_deadline as f64 - 1.0)
            ));
        }
        if trad.avg_total_time() > 0.0 {
            out.push_str(&format!(
                "REACT average total time {:.1}s vs Traditional {:.1}s → {:.0}% reduction \
                 (paper: \"up to 45%\")\n",
                react.avg_total_time(),
                trad.avg_total_time(),
                100.0 * (1.0 - react.avg_total_time() / trad.avg_total_time())
            ));
        }
    }
    RunOutput {
        rows: kpi.rows,
        figures,
        text: out,
    }
}

/// Figures 5–8 as an [`Experiment`].
pub struct EndToEnd;

impl Experiment for EndToEnd {
    fn name(&self) -> &'static str {
        "endtoend"
    }
    fn title(&self) -> &'static str {
        "Figures 5-8 — end-to-end comparison (REACT / Greedy / Traditional)"
    }
    fn figures(&self) -> Vec<&'static str> {
        FIGURES.to_vec()
    }
    fn run(&self, spec: &RunSpec) -> Result<RunOutput, String> {
        let params = EndToEndParams {
            seed: spec.seed,
            ..spec.sized(EndToEndParams::quick)
        };
        Ok(report(&run(&params)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_reports() -> Vec<RunReport> {
        run(&EndToEndParams::quick())
    }

    #[test]
    fn three_policies_run() {
        let rs = quick_reports();
        assert_eq!(rs.len(), 3);
        let names: Vec<&str> = rs.iter().map(|r| r.matcher_name).collect();
        assert_eq!(names, vec!["react", "greedy", "traditional"]);
        for r in &rs {
            assert_eq!(r.received, 400);
            assert!(r.completed > 0);
        }
    }

    #[test]
    fn fig5_shape_react_beats_traditional() {
        let rs = quick_reports();
        let react = &rs[0];
        let trad = &rs[2];
        assert!(
            react.met_deadline > trad.met_deadline,
            "react {} vs traditional {}",
            react.met_deadline,
            trad.met_deadline
        );
    }

    #[test]
    fn fig6_shape_react_earns_more_positive_feedback() {
        let rs = quick_reports();
        assert!(rs[0].positive_feedback > rs[2].positive_feedback);
    }

    #[test]
    fn fig7_fig8_shape_traditional_slowest() {
        let rs = quick_reports();
        let react = &rs[0];
        let trad = &rs[2];
        assert!(
            trad.avg_exec_time() > react.avg_exec_time(),
            "traditional exec {:.1} must exceed react {:.1}",
            trad.avg_exec_time(),
            react.avg_exec_time()
        );
        assert!(trad.avg_total_time() > react.avg_total_time());
    }

    #[test]
    fn report_renders_and_archives() {
        let out = report(&quick_reports());
        assert!(out.text.contains("Figures 5-8"));
        assert!(out.text.contains("more tasks in time"));
        let names: Vec<&str> = out.figures.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, FIGURES);
        assert_eq!(out.figures[1].1[0], ["policy", "received", "cumulative"]);
        assert_eq!(out.rows.len(), 3);
    }

    #[test]
    fn num_formatting() {
        assert_eq!(num(3.0), "3");
        assert_eq!(num(1.23456), "1.2346");
        assert_eq!(num(-2.0), "-2");
    }
}
