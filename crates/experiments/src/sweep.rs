//! The generic sweep driver: expand → fan out → aggregate → stamp.
//!
//! This is the code every suite used to duplicate: walking its own
//! config grid, collecting its own report struct, writing its own CSV.
//! Under the [`Experiment`] API the driver does it once — it expands
//! each suite into [`RunSpec`]s, fans the specs out across cores with
//! [`run_indexed`] (pinned to one job for wall-clock suites), prints
//! each run's terminal text, prefixes every returned [`KpiRow`] with the
//! `suite` / `run` / `seed` identity columns, and is the **single
//! writer** of artifacts: every figure CSV and the aggregated
//! JSON-lines + CSV [`KpiReport`] go through one provenance-stamped,
//! backup-protected [`write_stamped`] path.
//!
//! Determinism: specs are run in expansion order and results are
//! re-ordered by index, so one-job and parallel execution produce
//! byte-identical reports.
//!
//! [`RunSpec`]: crate::spec::RunSpec

use std::path::{Path, PathBuf};

use react_metrics::csv::to_csv_string;
use react_metrics::{write_stamped, ArtifactOutcome, KpiReport, KpiRow, Provenance};

use crate::ablation::Ablation;
use crate::case::CaseStudy;
use crate::chaos::Chaos;
use crate::endtoend::EndToEnd;
use crate::executor::run_indexed;
use crate::experiment::{prefixed, ExpandCtx, Experiment};
use crate::fig34::Fig34;
use crate::manifest::Manifest;
use crate::scalability::Scalability;
use crate::scenario::ScenarioSweep;

/// Driver knobs, shared by every CLI entry point.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Reduced sizes — seconds instead of minutes.
    pub quick: bool,
    /// Base seed when no manifest supplies one.
    pub seed: u64,
    /// Worker cap for parallel-safe suites (`None` = all cores,
    /// `Some(1)` = everything on the calling thread).
    pub jobs: Option<usize>,
    /// Where the figure CSVs and the aggregated `.kpi.jsonl` /
    /// `.kpi.csv` report land (`None` = terminal output only).
    pub out_dir: Option<PathBuf>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            quick: false,
            seed: 42,
            jobs: None,
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
    /// Artifacts written (path, created/unchanged/backed-up): the
    /// figure CSVs in run order, then the KPI report pair.
    pub artifacts: Vec<(PathBuf, ArtifactOutcome)>,
}

/// Every registered suite: the manifest-driven `scenario` sweep, then the
/// six paper-artefact suites in the classic `all` presentation order.
pub fn registry() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(ScenarioSweep),
        Box::new(Fig34),
        Box::new(EndToEnd),
        Box::new(Scalability),
        Box::new(CaseStudy),
        Box::new(Ablation),
        Box::new(Chaos),
    ]
}

/// Resolves a CLI command or manifest `suites` entry — including the
/// historical figure aliases — to the canonical suite name.
pub fn suite(name: &str) -> Option<&'static str> {
    Some(match name {
        "fig3" | "fig4" | "fig34" => "fig34",
        "fig5" | "fig6" | "fig7" | "fig8" | "fig5-8" | "endtoend" => "endtoend",
        "fig9" | "fig10" | "fig9-10" | "scalability" => "scalability",
        "case" => "case",
        "ablation" => "ablation",
        "chaos" => "chaos",
        "scenario" => "scenario",
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

/// The one place an artifact reaches disk.
fn write_artifact(
    dir: &Path,
    file_name: &str,
    content: &str,
) -> Result<(PathBuf, ArtifactOutcome), String> {
    let path = dir.join(file_name);
    let outcome = write_stamped(&path, content)
        .map_err(|e| format!("could not write {}: {e}", path.display()))?;
    Ok((path, outcome))
}

/// CSV rows under the provenance comment line.
fn stamped_csv(provenance: &Provenance, rows: &[Vec<String>]) -> String {
    format!("{}\n{}", provenance.comment_line(), to_csv_string(rows))
}

/// Expands, runs and aggregates `suites` into one [`SweepOutcome`].
///
/// The base seed is the manifest's when one is given, else
/// `opts.seed` — so `sweep manifest.toml` reproduces regardless of CLI
/// defaults. Suites whose cells measure wall clock
/// (`parallel_safe() == false`) are pinned to one job; everything else
/// fans out across `opts.jobs` (default: all cores).
///
/// The KPI report is named after the manifest, else after the suite
/// when exactly one is selected (so `fig5` then `case` into one
/// directory keep both reports), else `experiments`.
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
    let mut artifacts = Vec::new();
    let mut total_runs = 0usize;

    for suite in suites {
        let specs = suite.expand(&ctx)?;
        total_runs += specs.len();
        let jobs = if suite.parallel_safe() {
            opts.jobs
        } else {
            Some(1)
        };
        let declared = suite.figures();
        let results = run_indexed(specs.len(), jobs, |i| suite.run(&specs[i]));
        for (spec, result) in specs.iter().zip(results) {
            let output = result.map_err(|e| {
                format!(
                    "suite `{}` run {} ({}): {e}",
                    suite.name(),
                    spec.index,
                    spec.label
                )
            })?;
            if !output.text.is_empty() {
                println!("{}", output.text);
            }
            for (name, rows) in &output.figures {
                if !declared.contains(name) {
                    return Err(format!(
                        "suite `{}` emitted undeclared figure table `{name}`",
                        suite.name()
                    ));
                }
                if let Some(dir) = &opts.out_dir {
                    let csv = stamped_csv(&provenance, rows);
                    artifacts.push(write_artifact(dir, &format!("{name}.csv"), &csv)?);
                }
            }
            let run = if spec.label.is_empty() {
                spec.index.to_string()
            } else {
                spec.label.clone()
            };
            for row in &output.rows {
                let identity = KpiRow::new()
                    .label("suite", spec.suite.clone())
                    .label("run", run.clone())
                    .label("seed", format!("{:#018x}", spec.seed));
                report.push(prefixed(identity, row));
            }
        }
    }

    if let Some(dir) = &opts.out_dir {
        let name = match (manifest, suites) {
            (Some(m), _) => m.name.as_str(),
            (None, [only]) => only.name(),
            (None, _) => "experiments",
        };
        let jsonl = report.to_jsonl();
        artifacts.push(write_artifact(dir, &format!("{name}.kpi.jsonl"), &jsonl)?);
        let csv = stamped_csv(&provenance, &report.to_csv_rows(None));
        artifacts.push(write_artifact(dir, &format!("{name}.kpi.csv"), &csv)?);
    }

    Ok(SweepOutcome {
        report,
        total_runs,
        artifacts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::RunOutput;
    use crate::spec::{derive_seed, RunSpec};

    /// A deterministic sim-only suite for driver tests. It declares the
    /// `counting_cells` figure table; cell 0 emits its row under every
    /// name in `emits`.
    struct Counting {
        name: &'static str,
        cells: usize,
        emits: Vec<&'static str>,
    }

    fn counting(cells: usize) -> Counting {
        Counting {
            name: "counting",
            cells,
            emits: Vec::new(),
        }
    }

    impl Experiment for Counting {
        fn name(&self) -> &'static str {
            self.name
        }
        fn title(&self) -> &'static str {
            "Counting — driver test suite"
        }
        fn figures(&self) -> Vec<&'static str> {
            vec!["counting_cells"]
        }
        fn expand(&self, ctx: &ExpandCtx) -> Result<Vec<RunSpec>, String> {
            Ok((0..self.cells)
                .map(|i| RunSpec {
                    suite: self.name.to_string(),
                    index: i,
                    label: format!("cell={i}"),
                    seed_key: format!("cell={i}"),
                    params: Vec::new(),
                    seed: derive_seed(ctx.seed, self.name, &format!("cell={i}")),
                    quick: ctx.quick,
                })
                .collect())
        }
        fn run(&self, spec: &RunSpec) -> Result<RunOutput, String> {
            let row = KpiRow::new()
                .int("cell", spec.index as i64)
                .int("seed_lo", (spec.seed & 0xffff) as i64);
            let mut out = RunOutput {
                rows: vec![row],
                ..RunOutput::default()
            };
            if spec.index == 0 {
                let table = KpiReport::from_rows(out.rows.clone()).to_csv_rows(None);
                out.figures = self
                    .emits
                    .iter()
                    .map(|&name| (name, table.clone()))
                    .collect();
            }
            Ok(out)
        }
    }

    /// A fresh scratch directory under the system temp dir.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("react_experiments_sweep_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn one_job_and_parallel_reports_are_byte_identical() {
        let suite = counting(9);
        let suites: Vec<&dyn Experiment> = vec![&suite];
        let one_job = run_suites(
            &suites,
            None,
            &SweepOptions {
                jobs: Some(1),
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
        assert_eq!(one_job.report.to_jsonl(), parallel.report.to_jsonl());
        assert_eq!(one_job.total_runs, 9);
    }

    #[test]
    fn rows_carry_suite_run_seed_identity_columns() {
        let suite = counting(2);
        let suites: Vec<&dyn Experiment> = vec![&suite];
        let outcome = run_suites(&suites, None, &SweepOptions::default()).unwrap();
        let cols = outcome.report.columns();
        assert_eq!(&cols[..3], &["suite", "run", "seed"]);
        let jsonl = outcome.report.to_jsonl();
        assert!(jsonl.contains("\"run\":\"cell=0\""), "{jsonl}");
        assert!(jsonl.contains("\"suite\":\"counting\""), "{jsonl}");
    }

    #[test]
    fn registry_lists_scenario_then_the_six_paper_suites() {
        let names: Vec<&str> = registry().iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                "scenario",
                "fig34",
                "endtoend",
                "scalability",
                "case",
                "ablation",
                "chaos",
            ]
        );
        for name in names {
            assert_eq!(suite(name), Some(name), "{name} must resolve to itself");
        }
    }

    #[test]
    fn paper_suites_expand_to_one_cell_on_the_base_seed_verbatim() {
        let ctx = ExpandCtx {
            quick: true,
            seed: 1234,
            manifest: None,
        };
        for suite in registry() {
            if suite.name() == "scenario" {
                continue;
            }
            let specs = suite.expand(&ctx).unwrap();
            assert_eq!(specs.len(), 1, "{} must expand to one spec", suite.name());
            let spec = &specs[0];
            assert_eq!(spec.seed, 1234, "{} must take the base seed", suite.name());
            assert!(spec.quick);
            assert_eq!(spec.label, "");
            assert_eq!(spec.suite, suite.name());
            assert!(!suite.figures().is_empty(), "{} figures", suite.name());
        }
    }

    #[test]
    fn wall_clock_suites_refuse_parallel_cells() {
        for suite in registry() {
            let expected = suite.name() != "fig34";
            assert_eq!(
                suite.parallel_safe(),
                expected,
                "{} parallel_safe",
                suite.name()
            );
        }
    }

    #[test]
    fn aliases_resolve_to_canonical_names() {
        assert_eq!(suite("fig3"), Some("fig34"));
        assert_eq!(suite("fig7"), Some("endtoend"));
        assert_eq!(suite("fig9"), Some("scalability"));
        assert_eq!(suite("scenario"), Some("scenario"));
        assert_eq!(suite("hotpath"), None);
        assert_eq!(suite("nope"), None);
    }

    #[test]
    fn artifacts_are_stamped_and_not_silently_overwritten() {
        let dir = scratch("stamped");
        let suite = Counting {
            emits: vec!["counting_cells"],
            ..counting(3)
        };
        let suites: Vec<&dyn Experiment> = vec![&suite];
        let opts = SweepOptions {
            out_dir: Some(dir.clone()),
            ..SweepOptions::default()
        };
        // The figure CSV, then the KPI report pair.
        let first = run_suites(&suites, None, &opts).unwrap();
        let names: Vec<_> = first
            .artifacts
            .iter()
            .map(|(path, _)| path.file_name().unwrap().to_str().unwrap())
            .collect();
        assert_eq!(
            names,
            [
                "counting_cells.csv",
                "counting.kpi.jsonl",
                "counting.kpi.csv"
            ]
        );
        for (path, outcome) in &first.artifacts {
            assert!(matches!(outcome, ArtifactOutcome::Created), "{path:?}");
        }
        let figure = std::fs::read_to_string(&first.artifacts[0].0).unwrap();
        let mut lines = figure.lines();
        let stamp = lines.next().unwrap();
        assert!(stamp.starts_with("# provenance: seed=42"), "{figure}");
        assert_eq!(lines.next(), Some("cell,seed_lo"), "{figure}");
        let jsonl = std::fs::read_to_string(&first.artifacts[1].0).unwrap();
        assert!(jsonl.starts_with("{\"provenance\":{\"seed\":42"), "{jsonl}");

        // Identical rerun: byte-identical artifacts, no backup.
        let second = run_suites(&suites, None, &opts).unwrap();
        for (path, outcome) in &second.artifacts {
            assert!(matches!(outcome, ArtifactOutcome::Unchanged), "{path:?}");
        }

        // A differing run backs the old report up instead of clobbering.
        let third = run_suites(
            &suites,
            None,
            &SweepOptions {
                seed: 7,
                ..opts.clone()
            },
        )
        .unwrap();
        for (path, outcome) in &third.artifacts {
            assert!(matches!(outcome, ArtifactOutcome::BackedUp(_)), "{path:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_suite_commands_keep_each_others_reports() {
        let dir = scratch("single_suite_names");
        let opts = SweepOptions {
            out_dir: Some(dir.clone()),
            ..SweepOptions::default()
        };
        let (alpha, beta) = (
            Counting {
                name: "alpha",
                ..counting(1)
            },
            Counting {
                name: "beta",
                ..counting(1)
            },
        );
        let first = run_suites(&[&alpha], None, &opts).unwrap();
        let alpha_jsonl = std::fs::read_to_string(dir.join("alpha.kpi.jsonl")).unwrap();
        assert_eq!(alpha_jsonl, first.report.to_jsonl());
        let second = run_suites(&[&beta], None, &opts).unwrap();

        // Both reports intact, each under its suite's name.
        assert_eq!(
            std::fs::read_to_string(dir.join("alpha.kpi.jsonl")).unwrap(),
            alpha_jsonl
        );
        assert_eq!(
            std::fs::read_to_string(dir.join("beta.kpi.jsonl")).unwrap(),
            second.report.to_jsonl()
        );
        assert!(dir.join("alpha.kpi.csv").exists() && dir.join("beta.kpi.csv").exists());
        let displaced: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.contains(".prev."))
            .collect();
        assert!(displaced.is_empty(), "{displaced:?}");

        // Several suites without a manifest fall back to `experiments`.
        run_suites(&[&alpha, &beta], None, &opts).unwrap();
        assert!(dir.join("experiments.kpi.jsonl").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn undeclared_figure_tables_are_rejected() {
        let suite = Counting {
            emits: vec!["surprise"],
            ..counting(1)
        };
        let err = run_suites(&[&suite], None, &SweepOptions::default())
            .err()
            .expect("undeclared figure must fail the sweep");
        assert!(err.contains("undeclared figure table `surprise`"), "{err}");
    }
}
