//! [`Experiment`] adapters for the pre-existing figure suites.
//!
//! Each adapter wraps one `react_bench` module behind the shared
//! `RunSpec → KpiRow` contract: `expand` yields a single axis-free spec
//! whose seed is the sweep's base seed **directly** (not derived), so
//! the legacy suites reproduce the numbers the old per-suite binaries
//! printed; `run` executes the module, prints its classic report (which
//! also archives the module's historical CSV artifacts through the
//! held [`OutputSink`]) and returns the module's KPI rows for the
//! aggregated sweep report.
//!
//! Suites that measure wall-clock throughput (`fig34`, `hotpath`,
//! `cluster`) report `parallel_safe() == false` so the driver pins them
//! to one cell at a time — concurrent cells would poison each other's
//! timings.

use react_bench::report::OutputSink;
use react_bench::{ablation, casestudy, chaos, cluster, endtoend, fig34, hotpath, sweep};
use react_metrics::KpiRow;

use crate::experiment::{ExpandCtx, Experiment};
use crate::spec::RunSpec;

/// The single axis-free spec every legacy suite expands to. The seed is
/// the base seed verbatim — legacy suites must reproduce the numbers
/// they printed before the [`Experiment`] port.
fn single_spec(suite: &str, ctx: &ExpandCtx) -> Result<Vec<RunSpec>, String> {
    Ok(vec![RunSpec {
        suite: suite.to_string(),
        index: 0,
        label: String::new(),
        seed_key: String::new(),
        params: Vec::new(),
        seed: ctx.seed,
        quick: ctx.quick,
    }])
}

/// Prefixes every row with an identifying label column (used by suites
/// whose one run yields several distinct row families).
fn prefixed(column: &str, tag: &str, rows: Vec<KpiRow>) -> Vec<KpiRow> {
    rows.into_iter()
        .map(|row| {
            let mut out = KpiRow::new().label(column, tag);
            for (name, value) in row.cells() {
                out.set(name, value.clone());
            }
            out
        })
        .collect()
}

macro_rules! params_for {
    ($spec:expr, $ty:ty) => {{
        let mut params = if $spec.quick {
            <$ty>::quick()
        } else {
            <$ty>::default()
        };
        params.seed = $spec.seed;
        params
    }};
}

/// Figures 3–4: WBGM matching micro-benchmarks.
pub struct Fig34 {
    sink: OutputSink,
}

impl Experiment for Fig34 {
    fn name(&self) -> &'static str {
        "fig34"
    }
    fn title(&self) -> &'static str {
        "Figures 3-4 — WBGM matching time and weight micro-benchmarks"
    }
    fn expand(&self, ctx: &ExpandCtx) -> Result<Vec<RunSpec>, String> {
        single_spec(self.name(), ctx)
    }
    fn run(&self, spec: &RunSpec) -> Result<Vec<KpiRow>, String> {
        let params = params_for!(spec, fig34::Fig34Params);
        let points = fig34::run(&params);
        println!("{}", fig34::report(&points, &self.sink));
        Ok(fig34::kpi_rows(&points))
    }
    fn parallel_safe(&self) -> bool {
        false
    }
}

/// Figures 5–8: the end-to-end three-policy comparison.
pub struct EndToEnd {
    sink: OutputSink,
}

impl Experiment for EndToEnd {
    fn name(&self) -> &'static str {
        "endtoend"
    }
    fn title(&self) -> &'static str {
        "Figures 5-8 — end-to-end comparison (REACT / Greedy / Traditional)"
    }
    fn expand(&self, ctx: &ExpandCtx) -> Result<Vec<RunSpec>, String> {
        single_spec(self.name(), ctx)
    }
    fn run(&self, spec: &RunSpec) -> Result<Vec<KpiRow>, String> {
        let params = params_for!(spec, endtoend::EndToEndParams);
        let reports = endtoend::run(&params);
        println!("{}", endtoend::report(&reports, &self.sink));
        Ok(endtoend::kpi_rows(&reports))
    }
}

/// Figures 9–10: the scalability sweep.
pub struct Scalability {
    sink: OutputSink,
}

impl Experiment for Scalability {
    fn name(&self) -> &'static str {
        "scalability"
    }
    fn title(&self) -> &'static str {
        "Figures 9-10 — deadline/feedback ratios vs graph size"
    }
    fn expand(&self, ctx: &ExpandCtx) -> Result<Vec<RunSpec>, String> {
        single_spec(self.name(), ctx)
    }
    fn run(&self, spec: &RunSpec) -> Result<Vec<KpiRow>, String> {
        let params = params_for!(spec, sweep::SweepParams);
        let points = sweep::run(&params);
        println!("{}", sweep::report(&points, &self.sink));
        Ok(sweep::kpi_rows(&points))
    }
}

/// Scheduling hot-path micro-benchmarks (wall clock, BENCH_hotpath.json).
pub struct Hotpath {
    sink: OutputSink,
}

impl Experiment for Hotpath {
    fn name(&self) -> &'static str {
        "hotpath"
    }
    fn title(&self) -> &'static str {
        "Scheduling hot path — build/matcher/tick throughput (BENCH_hotpath.json)"
    }
    fn expand(&self, ctx: &ExpandCtx) -> Result<Vec<RunSpec>, String> {
        single_spec(self.name(), ctx)
    }
    fn run(&self, spec: &RunSpec) -> Result<Vec<KpiRow>, String> {
        let params = params_for!(spec, hotpath::HotpathParams);
        let report = hotpath::run(&params, spec.quick);
        println!("{}", hotpath::render(&report, &self.sink));
        let path = hotpath::default_json_path();
        match hotpath::write_json_stamped(&report, &path, &stamp(&self.sink, spec.seed)) {
            Ok(outcome) => println!("# JSON → {}{}", path.display(), describe(&outcome)),
            Err(e) => eprintln!("# failed to write {}: {e}", path.display()),
        }
        let mut rows = prefixed(
            "series",
            "graph_build",
            hotpath::build_kpi_rows(&report.builds),
        );
        rows.extend(prefixed(
            "series",
            "matcher",
            hotpath::matcher_kpi_rows(&report.matchers),
        ));
        rows.extend(prefixed(
            "series",
            "ticks",
            hotpath::tick_kpi_rows(&report.ticks),
        ));
        Ok(rows)
    }
    fn parallel_safe(&self) -> bool {
        false
    }
}

/// Sharded cluster-mode scaling sweep (wall clock, BENCH_cluster.json).
pub struct ClusterSuite {
    sink: OutputSink,
}

impl Experiment for ClusterSuite {
    fn name(&self) -> &'static str {
        "cluster"
    }
    fn title(&self) -> &'static str {
        "Cluster — shard-scaling throughput and determinism identities (BENCH_cluster.json)"
    }
    fn expand(&self, ctx: &ExpandCtx) -> Result<Vec<RunSpec>, String> {
        single_spec(self.name(), ctx)
    }
    fn run(&self, spec: &RunSpec) -> Result<Vec<KpiRow>, String> {
        let params = params_for!(spec, cluster::ClusterParams);
        let report = cluster::run(&params, spec.quick);
        println!("{}", cluster::render(&report, &self.sink));
        let path = cluster::default_json_path();
        match cluster::write_json_stamped(&report, &path, &stamp(&self.sink, spec.seed)) {
            Ok(outcome) => println!("# JSON → {}{}", path.display(), describe(&outcome)),
            Err(e) => eprintln!("# failed to write {}: {e}", path.display()),
        }
        let mut rows = prefixed("series", "scaling", cluster::kpi_rows(&report.scaling));
        rows.extend(prefixed(
            "series",
            "fallback",
            cluster::fallback_kpi_rows(&report.fallback),
        ));
        Ok(rows)
    }
    fn parallel_safe(&self) -> bool {
        false
    }
}

/// The provenance stamp a suite's BENCH JSON carries: the sink's own
/// stamp when it has one, else a fresh seed-only stamp — every BENCH
/// artifact is stamped and backup-protected, even under `--no-csv`.
fn stamp(sink: &OutputSink, seed: u64) -> react_metrics::Provenance {
    sink.provenance()
        .cloned()
        .unwrap_or_else(|| react_metrics::Provenance::new(seed))
}

/// Human-readable suffix for an artifact write outcome.
fn describe(outcome: &react_metrics::ArtifactOutcome) -> String {
    match outcome {
        react_metrics::ArtifactOutcome::Created => String::new(),
        react_metrics::ArtifactOutcome::Unchanged => " (unchanged)".to_string(),
        react_metrics::ArtifactOutcome::BackedUp(prev) => {
            format!(" (prior kept as {})", prev.display())
        }
    }
}

/// Chaos sweep: deadline misses and recovery under injected faults.
pub struct Chaos {
    sink: OutputSink,
}

impl Experiment for Chaos {
    fn name(&self) -> &'static str {
        "chaos"
    }
    fn title(&self) -> &'static str {
        "Chaos — deadline misses and recovery latency under injected faults"
    }
    fn expand(&self, ctx: &ExpandCtx) -> Result<Vec<RunSpec>, String> {
        single_spec(self.name(), ctx)
    }
    fn run(&self, spec: &RunSpec) -> Result<Vec<KpiRow>, String> {
        let params = params_for!(spec, chaos::ChaosParams);
        let points = chaos::run(&params);
        println!("{}", chaos::report(&points, &self.sink));
        Ok(chaos::kpi_rows(&points))
    }
}

/// CrowdFlower case-study statistics.
pub struct CaseStudy {
    sink: OutputSink,
}

impl Experiment for CaseStudy {
    fn name(&self) -> &'static str {
        "case"
    }
    fn title(&self) -> &'static str {
        "CrowdFlower case study — synthetic-trace statistics (Sec. V-C)"
    }
    fn expand(&self, ctx: &ExpandCtx) -> Result<Vec<RunSpec>, String> {
        single_spec(self.name(), ctx)
    }
    fn run(&self, spec: &RunSpec) -> Result<Vec<KpiRow>, String> {
        let n = if spec.quick { 5_000 } else { 50_000 };
        let summary = casestudy::run(n, spec.seed);
        println!("{}", casestudy::report(&summary, &self.sink));
        Ok(casestudy::kpi_rows(&summary))
    }
}

/// All eleven design-choice ablations.
pub struct Ablation {
    sink: OutputSink,
}

impl Experiment for Ablation {
    fn name(&self) -> &'static str {
        "ablation"
    }
    fn title(&self) -> &'static str {
        "Ablations — the eleven design-choice isolations of DESIGN.md"
    }
    fn expand(&self, ctx: &ExpandCtx) -> Result<Vec<RunSpec>, String> {
        single_spec(self.name(), ctx)
    }
    fn run(&self, spec: &RunSpec) -> Result<Vec<KpiRow>, String> {
        let params = params_for!(spec, ablation::AblationParams);
        let mut rows = Vec::new();
        for (name, title, csv_name, rows_fn) in ablation::SUITE {
            let ablation_rows = rows_fn(&params);
            let report = react_metrics::KpiReport::from_rows(ablation_rows.clone());
            self.sink.write(csv_name, &report.to_csv_rows(None));
            println!("{}", report.table(title, None).render());
            rows.extend(prefixed("ablation", name, ablation_rows));
        }
        Ok(rows)
    }
}

/// All eight legacy suites, in the classic `all` presentation order,
/// sharing one output sink.
pub fn legacy_suites(sink: &OutputSink) -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(Fig34 { sink: sink.clone() }),
        Box::new(EndToEnd { sink: sink.clone() }),
        Box::new(Scalability { sink: sink.clone() }),
        Box::new(Hotpath { sink: sink.clone() }),
        Box::new(CaseStudy { sink: sink.clone() }),
        Box::new(Ablation { sink: sink.clone() }),
        Box::new(Chaos { sink: sink.clone() }),
        Box::new(ClusterSuite { sink: sink.clone() }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(quick: bool, seed: u64) -> ExpandCtx<'static> {
        ExpandCtx {
            quick,
            seed,
            manifest: None,
        }
    }

    #[test]
    fn every_legacy_suite_expands_to_one_unseeded_spec() {
        let sink = OutputSink::discard();
        for suite in legacy_suites(&sink) {
            let specs = suite.expand(&ctx(true, 1234)).unwrap();
            assert_eq!(specs.len(), 1, "{} must expand to one spec", suite.name());
            let spec = &specs[0];
            assert_eq!(spec.seed, 1234, "{} must take the base seed", suite.name());
            assert!(spec.quick);
            assert_eq!(spec.label, "");
            assert_eq!(spec.suite, suite.name());
        }
    }

    #[test]
    fn suite_names_are_unique_and_stable() {
        let sink = OutputSink::discard();
        let names: Vec<&str> = legacy_suites(&sink).iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                "fig34",
                "endtoend",
                "scalability",
                "hotpath",
                "case",
                "ablation",
                "chaos",
                "cluster",
            ]
        );
    }

    #[test]
    fn wall_clock_suites_refuse_parallel_cells() {
        let sink = OutputSink::discard();
        for suite in legacy_suites(&sink) {
            let expected = !matches!(suite.name(), "fig34" | "hotpath" | "cluster");
            assert_eq!(
                suite.parallel_safe(),
                expected,
                "{} parallel_safe",
                suite.name()
            );
        }
    }

    #[test]
    fn case_suite_reproduces_old_numbers() {
        let sink = OutputSink::discard();
        let suite = CaseStudy { sink };
        let spec = &suite.expand(&ctx(true, 42)).unwrap()[0];
        let rows = suite.run(spec).unwrap();
        assert_eq!(rows.len(), 1);
        // Same synthesis path as the old `react-experiments case --quick`.
        let direct = casestudy::kpi_rows(&casestudy::run(5_000, 42));
        assert_eq!(rows[0].to_json(), direct[0].to_json());
    }

    #[test]
    fn prefixed_rows_lead_with_the_tag_column() {
        let rows = prefixed("series", "scaling", vec![KpiRow::new().int("workers", 7)]);
        let cols: Vec<&str> = rows[0].columns().collect();
        assert_eq!(cols, vec!["series", "workers"]);
    }
}
