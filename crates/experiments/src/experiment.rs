//! The [`Experiment`] trait — the one API every suite implements.
//!
//! An experiment knows how to **expand** into a deterministic list of
//! [`RunSpec`]s (from CLI defaults, or from a sweep manifest's axes) and
//! how to **run** one spec into [`KpiRow`]s. Everything else — fan-out
//! across cores, aggregation, rendering, artifact writing — is generic
//! driver code in [`crate::sweep`], shared by all suites instead of
//! duplicated per suite as before.

use react_metrics::KpiRow;

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
    /// The sweep manifest, when expansion is manifest-driven. Suites
    /// with intrinsic cell lists (the legacy figure suites) ignore it;
    /// the `scenario` suite requires it.
    pub manifest: Option<&'a Manifest>,
}

/// A family of runs with a common `RunSpec → KpiRow` contract.
pub trait Experiment: Sync {
    /// Stable suite name (manifest `suites = [...]` entries, CLI
    /// commands and the `suite` KPI column all use it).
    fn name(&self) -> &'static str;

    /// One-line human description for `react-experiments list`.
    fn title(&self) -> &'static str;

    /// Expands into the deterministic run list.
    fn expand(&self, ctx: &ExpandCtx) -> Result<Vec<RunSpec>, String>;

    /// Executes one spec. Most suites emit exactly one row per spec;
    /// suites whose cell measures several variants at once (ablation)
    /// may emit several. The driver prepends the `suite` / `run` /
    /// `seed` identity columns — rows here carry only the suite's own
    /// coordinates and KPIs.
    fn run(&self, spec: &RunSpec) -> Result<Vec<KpiRow>, String>;

    /// Whether cells may execute concurrently. Suites measuring
    /// wall-clock throughput (hotpath, cluster, fig34) return
    /// `false` so concurrent cells don't poison each other's timings;
    /// purely sim-time suites keep the all-cores default.
    fn parallel_safe(&self) -> bool {
        true
    }

    /// Column subset for the terminal summary table (`None` = all).
    /// CSV/JSON-lines always carry every column.
    fn table_columns(&self) -> Option<Vec<&'static str>> {
        None
    }
}
