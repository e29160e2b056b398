//! The [`Experiment`] trait — the one API every suite implements.
//!
//! An experiment knows how to **expand** into a deterministic list of
//! [`RunSpec`]s (from CLI defaults, or from a sweep manifest's axes) and
//! how to **run** one spec into a [`RunOutput`]: its [`KpiRow`]s, any
//! named figure tables and its terminal text. Everything else — fan-out
//! across cores, aggregation, printing, artifact writing — is generic
//! driver code in [`crate::sweep`]; no suite touches the file system.

use react_metrics::{KpiReport, KpiRow};

use crate::manifest::Manifest;
use crate::spec::RunSpec;

/// Context a suite expands its run list from.
#[derive(Debug, Clone, Copy)]
pub struct ExpandCtx<'a> {
    /// Reduced sizes (seconds instead of minutes).
    pub quick: bool,
    /// Base seed (the manifest's seed when sweeping, the CLI `--seed`
    /// otherwise).
    pub seed: u64,
    /// The sweep manifest, when expansion is manifest-driven. The
    /// figure suites ignore it; the `scenario` suite requires it.
    pub manifest: Option<&'a Manifest>,
}

/// What one run hands back to the driver.
#[derive(Debug, Clone, Default)]
pub struct RunOutput {
    /// KPI rows for the aggregated `<name>.kpi.*` report. The driver
    /// prepends the `suite` / `run` / `seed` identity columns.
    pub rows: Vec<KpiRow>,
    /// Figure tables as CSV rows (header first), keyed by a name from
    /// [`Experiment::figures`]; the driver archives each as
    /// `<out>/<name>.csv`.
    pub figures: Vec<(&'static str, Vec<Vec<String>>)>,
    /// The suite's terminal report; the driver prints it.
    pub text: String,
}

impl RunOutput {
    /// A run whose KPI rows are also its one figure table `name`.
    pub fn figure(name: &'static str, rows: Vec<KpiRow>, text: String) -> Self {
        let table = KpiReport::from_rows(rows);
        RunOutput {
            figures: vec![(name, table.to_csv_rows(None))],
            rows: table.rows,
            text,
        }
    }
}

/// `row`'s cells appended to the leading `prefix` columns.
pub(crate) fn prefixed(mut prefix: KpiRow, row: &KpiRow) -> KpiRow {
    for (name, value) in row.cells() {
        prefix.set(name, value.clone());
    }
    prefix
}

/// A family of runs with a common `RunSpec → RunOutput` contract.
pub trait Experiment: Sync {
    /// Stable suite name (manifest `suites = [...]` entries, CLI
    /// commands and the `suite` KPI column all use it).
    fn name(&self) -> &'static str;

    /// One-line human description for `react-experiments list`.
    fn title(&self) -> &'static str;

    /// Every figure-table name a run of this suite may emit. The driver
    /// rejects undeclared names, and `tests/results_inventory.rs` holds
    /// the declared set equal to the CSVs checked in under `results/`.
    fn figures(&self) -> Vec<&'static str> {
        Vec::new()
    }

    /// Expands into the deterministic run list. The default is the
    /// figure suites' single axis-free cell, seeded with the base seed
    /// **verbatim** (not derived) so they reproduce the checked-in
    /// `results/*.csv`.
    fn expand(&self, ctx: &ExpandCtx) -> Result<Vec<RunSpec>, String> {
        Ok(vec![RunSpec {
            suite: self.name().to_string(),
            index: 0,
            label: String::new(),
            seed_key: String::new(),
            params: Vec::new(),
            seed: ctx.seed,
            quick: ctx.quick,
        }])
    }

    /// Executes one spec. Most suites emit exactly one row per spec;
    /// suites whose cell measures several variants at once (ablation)
    /// emit several.
    fn run(&self, spec: &RunSpec) -> Result<RunOutput, String>;

    /// Whether cells may execute concurrently. Suites measuring
    /// wall-clock time (`fig34`, `load`) return `false` so concurrent
    /// cells don't poison each other's timings; purely sim-time suites
    /// keep the all-cores default.
    fn parallel_safe(&self) -> bool {
        true
    }
}
