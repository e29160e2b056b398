//! The generic sweep driver: expand → fan out → aggregate → stamp.
//!
//! This is the code every suite used to duplicate: walking its own
//! config grid, collecting its own report struct, rendering its own
//! table and CSV. Under the [`Experiment`] API the driver does it once —
//! it expands each suite into [`RunSpec`]s, fans the specs out across
//! cores with [`run_indexed`] (pinned to one job for wall-clock suites),
//! prefixes every returned [`KpiRow`] with the `suite` / `run` / `seed`
//! identity columns, and aggregates one provenance-stamped [`KpiReport`]
//! written as JSON-lines + CSV.
//!
//! Determinism: specs are run in expansion order and results are
//! re-ordered by index, so serial and parallel execution produce
//! byte-identical reports.

use std::path::PathBuf;

use react_bench::report::OutputSink;
use react_metrics::csv::to_csv_string;
use react_metrics::{write_stamped, ArtifactOutcome, KpiReport, KpiRow, Provenance};

use crate::executor::run_indexed;
use crate::experiment::{ExpandCtx, Experiment};
use crate::legacy::legacy_suites;
use crate::load::LoadSuite;
use crate::manifest::Manifest;
use crate::scenario::ScenarioSweep;

/// Driver knobs, shared by every CLI entry point.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Reduced sizes — seconds instead of minutes.
    pub quick: bool,
    /// Base seed when no manifest supplies one.
    pub seed: u64,
    /// Worker cap for parallel-safe suites (`None` = all cores).
    pub jobs: Option<usize>,
    /// Force single-threaded execution for every suite.
    pub serial: bool,
    /// Where the aggregated `.kpi.jsonl` / `.kpi.csv` artifacts land
    /// (`None` = stdout tables only).
    pub out_dir: Option<PathBuf>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            quick: false,
            seed: 42,
            jobs: None,
            serial: false,
            out_dir: None,
        }
    }
}

/// Everything a sweep produced.
pub struct SweepOutcome {
    /// The aggregated, provenance-stamped report across all suites.
    pub report: KpiReport,
    /// Number of runs executed.
    pub total_runs: usize,
    /// Artifacts written (path, created/unchanged/backed-up).
    pub artifacts: Vec<(PathBuf, ArtifactOutcome)>,
    /// One rendered summary table per suite, in suite order.
    pub tables: Vec<String>,
}

/// Every registered suite: the manifest-driven `scenario` sweep, the
/// eight legacy figure suites and the live-ingest `load` suite, sharing
/// one output sink.
pub fn registry(sink: &OutputSink) -> Vec<Box<dyn Experiment>> {
    let mut suites: Vec<Box<dyn Experiment>> = vec![Box::new(ScenarioSweep)];
    suites.extend(legacy_suites(sink));
    suites.push(Box::new(LoadSuite::new(sink.clone())));
    suites
}

/// Resolves a CLI command or manifest `suites` entry — including the
/// historical figure aliases — to the canonical suite name.
pub fn suite(name: &str) -> Option<&'static str> {
    Some(match name {
        "fig3" | "fig4" | "fig34" => "fig34",
        "fig5" | "fig6" | "fig7" | "fig8" | "fig5-8" | "endtoend" => "endtoend",
        "fig9" | "fig10" | "fig9-10" | "scalability" => "scalability",
        "hotpath" => "hotpath",
        "case" => "case",
        "ablation" => "ablation",
        "chaos" => "chaos",
        "cluster" => "cluster",
        "scenario" => "scenario",
        "load" => "load",
        _ => return None,
    })
}

/// The provenance stamp a sweep's artifacts carry.
fn provenance_for(base_seed: u64, manifest: Option<&Manifest>) -> Provenance {
    let mut p = Provenance::new(base_seed);
    if let Some(m) = manifest {
        p = p.with_manifest_hash(m.hash);
    }
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    p.with_git_revision_from(&cwd)
}

/// Expands, runs and aggregates `suites` into one [`SweepOutcome`].
///
/// The base seed is the manifest's when one is given, else
/// `opts.seed` — so `sweep manifest.toml` reproduces regardless of CLI
/// defaults. Suites whose cells measure wall clock
/// (`parallel_safe() == false`) are pinned to one job; everything else
/// fans out across `opts.jobs` (default: all cores).
pub fn run_suites(
    suites: &[&dyn Experiment],
    manifest: Option<&Manifest>,
    opts: &SweepOptions,
) -> Result<SweepOutcome, String> {
    let base_seed = manifest.map(|m| m.seed).unwrap_or(opts.seed);
    let ctx = ExpandCtx {
        quick: opts.quick,
        seed: base_seed,
        manifest,
    };
    let provenance = provenance_for(base_seed, manifest);
    let mut report = KpiReport::new().with_provenance(provenance.clone());
    let mut tables = Vec::new();
    let mut total_runs = 0usize;

    for suite in suites {
        let specs = suite.expand(&ctx)?;
        total_runs += specs.len();
        let jobs = if opts.serial || !suite.parallel_safe() {
            Some(1)
        } else {
            opts.jobs
        };
        let results = run_indexed(specs.len(), jobs, |i| suite.run(&specs[i]));
        let mut suite_report = KpiReport::new();
        for (spec, result) in specs.iter().zip(results) {
            let rows = result.map_err(|e| {
                format!(
                    "suite `{}` run {} ({}): {e}",
                    suite.name(),
                    spec.index,
                    spec.label
                )
            })?;
            for row in rows {
                let mut full = KpiRow::new()
                    .label("suite", spec.suite.clone())
                    .label(
                        "run",
                        if spec.label.is_empty() {
                            spec.index.to_string()
                        } else {
                            spec.label.clone()
                        },
                    )
                    .label("seed", format!("{:#018x}", spec.seed));
                for (name, value) in row.cells() {
                    full.set(name, value.clone());
                }
                suite_report.push(full.clone());
                report.push(full);
            }
        }
        let columns = suite.table_columns();
        tables.push(
            suite_report
                .table(suite.title(), columns.as_deref())
                .render(),
        );
    }

    let mut artifacts = Vec::new();
    if let Some(dir) = &opts.out_dir {
        let name = manifest.map(|m| m.name.as_str()).unwrap_or("experiments");
        let jsonl_path = dir.join(format!("{name}.kpi.jsonl"));
        let outcome = write_stamped(&jsonl_path, &report.to_jsonl())
            .map_err(|e| format!("could not write {}: {e}", jsonl_path.display()))?;
        artifacts.push((jsonl_path, outcome));

        let csv_path = dir.join(format!("{name}.kpi.csv"));
        let csv = format!(
            "{}\n{}",
            provenance.comment_line(),
            to_csv_string(&report.to_csv_rows(None))
        );
        let outcome = write_stamped(&csv_path, &csv)
            .map_err(|e| format!("could not write {}: {e}", csv_path.display()))?;
        artifacts.push((csv_path, outcome));
    }

    Ok(SweepOutcome {
        report,
        total_runs,
        artifacts,
        tables,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{derive_seed, RunSpec};

    /// A deterministic sim-only suite for driver tests.
    struct Counting {
        cells: usize,
    }

    impl Experiment for Counting {
        fn name(&self) -> &'static str {
            "counting"
        }
        fn title(&self) -> &'static str {
            "Counting — driver test suite"
        }
        fn expand(&self, ctx: &ExpandCtx) -> Result<Vec<RunSpec>, String> {
            Ok((0..self.cells)
                .map(|i| RunSpec {
                    suite: "counting".to_string(),
                    index: i,
                    label: format!("cell={i}"),
                    seed_key: format!("cell={i}"),
                    params: Vec::new(),
                    seed: derive_seed(ctx.seed, "counting", &format!("cell={i}")),
                    quick: ctx.quick,
                })
                .collect())
        }
        fn run(&self, spec: &RunSpec) -> Result<Vec<KpiRow>, String> {
            Ok(vec![KpiRow::new()
                .int("cell", spec.index as i64)
                .int("seed_lo", (spec.seed & 0xffff) as i64)])
        }
    }

    #[test]
    fn serial_and_parallel_reports_are_byte_identical() {
        let suite = Counting { cells: 9 };
        let suites: Vec<&dyn Experiment> = vec![&suite];
        let serial = run_suites(
            &suites,
            None,
            &SweepOptions {
                serial: true,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        let parallel = run_suites(
            &suites,
            None,
            &SweepOptions {
                jobs: Some(4),
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert_eq!(serial.report.to_jsonl(), parallel.report.to_jsonl());
        assert_eq!(serial.total_runs, 9);
    }

    #[test]
    fn rows_carry_suite_run_seed_identity_columns() {
        let suite = Counting { cells: 2 };
        let suites: Vec<&dyn Experiment> = vec![&suite];
        let outcome = run_suites(&suites, None, &SweepOptions::default()).unwrap();
        let cols = outcome.report.columns();
        assert_eq!(&cols[..3], &["suite", "run", "seed"]);
        let jsonl = outcome.report.to_jsonl();
        assert!(jsonl.contains("\"run\":\"cell=0\""), "{jsonl}");
        assert!(jsonl.contains("\"suite\":\"counting\""), "{jsonl}");
    }

    #[test]
    fn registry_lists_scenario_the_eight_legacy_suites_then_load() {
        let sink = OutputSink::discard();
        let names: Vec<&str> = registry(&sink).iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                "scenario",
                "fig34",
                "endtoend",
                "scalability",
                "hotpath",
                "case",
                "ablation",
                "chaos",
                "cluster",
                "load",
            ]
        );
    }

    #[test]
    fn aliases_resolve_to_canonical_names() {
        assert_eq!(suite("fig3"), Some("fig34"));
        assert_eq!(suite("fig7"), Some("endtoend"));
        assert_eq!(suite("fig9"), Some("scalability"));
        assert_eq!(suite("scenario"), Some("scenario"));
        assert_eq!(suite("nope"), None);
    }

    #[test]
    fn artifacts_are_stamped_and_not_silently_overwritten() {
        let dir = std::env::temp_dir().join("react_experiments_sweep_test");
        let _ = std::fs::remove_dir_all(&dir);
        let suite = Counting { cells: 3 };
        let suites: Vec<&dyn Experiment> = vec![&suite];
        let opts = SweepOptions {
            out_dir: Some(dir.clone()),
            ..SweepOptions::default()
        };
        let first = run_suites(&suites, None, &opts).unwrap();
        assert_eq!(first.artifacts.len(), 2);
        assert!(matches!(first.artifacts[0].1, ArtifactOutcome::Created));
        let jsonl = std::fs::read_to_string(&first.artifacts[0].0).unwrap();
        assert!(jsonl.starts_with("{\"provenance\":{\"seed\":42"), "{jsonl}");

        // Identical rerun: byte-identical artifact, no backup.
        let second = run_suites(&suites, None, &opts).unwrap();
        assert!(matches!(second.artifacts[0].1, ArtifactOutcome::Unchanged));

        // A differing run backs the old artifact up instead of clobbering.
        let third = run_suites(
            &suites,
            None,
            &SweepOptions {
                seed: 7,
                ..opts.clone()
            },
        )
        .unwrap();
        assert!(matches!(third.artifacts[0].1, ArtifactOutcome::BackedUp(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
