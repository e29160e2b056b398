//! The Sec. V-C CrowdFlower case study, regenerated from the synthetic
//! trace.

use crate::experiment::{Experiment, RunOutput};
use crate::spec::RunSpec;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use react_crowd::{CaseStudySummary, CaseStudyTrace};
use react_metrics::table::pct;
use react_metrics::{KpiRow, Table};

/// Synthesizes a trace of `n` responses and summarizes it.
pub fn run(n: usize, seed: u64) -> CaseStudySummary {
    let mut rng = SmallRng::seed_from_u64(seed);
    CaseStudyTrace::synthesize(n, &mut rng).summarize()
}

/// The case-study summary as a single shared KPI row.
pub fn kpi_rows(summary: &CaseStudySummary) -> Vec<KpiRow> {
    vec![KpiRow::new()
        .int("n_responses", summary.n_responses as i64)
        .pct("kpi.within_20s", summary.fraction_within_20s)
        .pct("kpi.trust_above_half", summary.fraction_trust_above_half)
        .float("kpi.median_response_s", summary.median_response)
        .float("kpi.max_response_s", summary.max_response)]
}

/// The figure table a run archives.
const FIGURE: &str = "case_study";

/// The case-study table plus the figure CSV.
pub fn report(summary: &CaseStudySummary) -> RunOutput {
    let mut t = Table::new(&["statistic", "paper", "synthetic trace"])
        .with_title("CrowdFlower case study (Sec. V-C)");
    t.add_row(vec![
        "responses within 20 s".to_string(),
        "≈ 50%".to_string(),
        pct(summary.fraction_within_20s),
    ]);
    t.add_row(vec![
        "workers with trust > 0.5".to_string(),
        "≈ 70%".to_string(),
        pct(summary.fraction_trust_above_half),
    ]);
    t.add_row(vec![
        "median response".to_string(),
        "≈ 20 s".to_string(),
        format!("{:.1} s", summary.median_response),
    ]);
    t.add_row(vec![
        "slowest response".to_string(),
        "up to 6 h".to_string(),
        format!("{:.2} h", summary.max_response / 3600.0),
    ]);
    RunOutput::figure(FIGURE, kpi_rows(summary), t.render())
}

/// The Sec. V-C case study as an [`Experiment`].
pub struct CaseStudy;

impl Experiment for CaseStudy {
    fn name(&self) -> &'static str {
        "case"
    }
    fn title(&self) -> &'static str {
        "CrowdFlower case study — synthetic-trace statistics (Sec. V-C)"
    }
    fn figures(&self) -> Vec<&'static str> {
        vec![FIGURE]
    }
    fn run(&self, spec: &RunSpec) -> Result<RunOutput, String> {
        let n = if spec.quick { 5_000 } else { 50_000 };
        Ok(report(&run(n, spec.seed)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_matches_paper_anchors() {
        let s = run(20_000, 42);
        assert!((s.fraction_within_20s - 0.5).abs() < 0.05);
        assert!((s.fraction_trust_above_half - 0.7).abs() < 0.03);
    }

    #[test]
    fn report_renders() {
        let out = report(&run(5_000, 1));
        assert!(out.text.contains("CrowdFlower"));
        assert_eq!(out.figures[0].0, "case_study");
        assert_eq!(out.rows.len(), 1);
    }

    #[test]
    fn suite_cell_reproduces_the_direct_call() {
        use crate::experiment::ExpandCtx;
        let ctx = ExpandCtx {
            quick: true,
            seed: 42,
            manifest: None,
        };
        let spec = &CaseStudy.expand(&ctx).unwrap()[0];
        let out = CaseStudy.run(spec).unwrap();
        // Same synthesis path as a direct `run(5_000, 42)`.
        assert_eq!(out.rows, kpi_rows(&run(5_000, 42)));
    }
}
