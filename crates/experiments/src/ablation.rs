//! Ablations of the design choices called out in `DESIGN.md`.
//!
//! The paper motivates several mechanisms without isolating them; these
//! experiments isolate each one:
//!
//! 1. [`conflict_rule_rows`] — REACT's g(x′)=0 replacement rule vs plain
//!    Metropolis rejection, across cycle budgets.
//! 2. [`adaptive_cycles_rows`] — fixed `c` vs the suggested `c = κ·|E|`.
//! 3. [`edge_threshold_rows`] — the Eq. (3) pruning bound, 0 → 0.8.
//! 4. [`reassign_threshold_rows`] — the Eq. (2) recall bound, 0 → 0.5.
//! 5. [`weight_function_rows`] — accuracy (Eq. 1) vs geographic distance vs a
//!    blend.
//! 6. [`batch_trigger_rows`] — queue-threshold vs periodic batching.
//! 7. [`frontier_rows`] — matching quality vs compute time (Hungarian,
//!    Greedy, REACT, Metropolis) on one contended graph.
//! 8. [`region_decomposition_rows`] — the paper's overload fix: one global
//!    load over 1×1 / 2×2 / 3×3 region grids.
//! 9. [`latency_model_rows`] — uniform-with-delay vs power-law crowds (the
//!    estimator's modelling assumption made true).
//! 10. [`model_kind_rows`] — the paper's parametric power-law fit vs the
//!     distribution-free empirical CCDF vs KS-gated auto selection.
//! 11. [`replication_rows`] — REACT's pre-execution worker selection vs
//!     CDAS/Karger-style k-fold redundancy (the related-work claim:
//!     choosing the right worker *before* execution avoids the cost of
//!     multiple assignments).
//!
//! Every ablation is a pure `*_rows` function returning [`KpiRow`]s;
//! [`SUITE`] lists all eleven with their titles and CSV names, and the
//! [`Ablation`] experiment iterates it.

use crate::experiment::{prefixed, Experiment, RunOutput};
use crate::spec::RunSpec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use react_core::{BatchTrigger, LatencyModelKind, MatcherPolicy, WeightFunction};
use react_crowd::{Scenario, ScenarioRunner};
use react_matching::{
    BipartiteGraph, CostModel, GreedyMatcher, HungarianMatcher, Matcher, MatcherEngine,
    MetropolisMatcher, ReactMatcher,
};
use react_metrics::{KpiReport, KpiRow};
use std::time::Instant;

/// Shared ablation parameters.
#[derive(Debug, Clone)]
pub struct AblationParams {
    /// Worker count for the end-to-end ablations.
    pub n_workers: usize,
    /// Tasks per end-to-end run.
    pub total_tasks: usize,
    /// Side of the synthetic matching graphs.
    pub graph_side: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AblationParams {
    fn default() -> Self {
        AblationParams {
            n_workers: 400,
            total_tasks: 3000,
            graph_side: 300,
            seed: 42,
        }
    }
}

impl AblationParams {
    /// Reduced sizes for tests/CI.
    pub fn quick() -> Self {
        AblationParams {
            n_workers: 60,
            total_tasks: 300,
            graph_side: 40,
            seed: 42,
        }
    }
}

/// One [`SUITE`] entry: short name, table title, CSV artifact name and
/// the row-producing function.
pub type AblationEntry = (
    &'static str,
    &'static str,
    &'static str,
    fn(&AblationParams) -> Vec<KpiRow>,
);

/// All eleven ablations in presentation order.
pub const SUITE: &[AblationEntry] = &[
    (
        "conflict_rule",
        "Ablation 1 — g(x')=0 replacement rule (REACT) vs plain rejection",
        "ablation1_conflict_rule",
        conflict_rule_rows,
    ),
    (
        "adaptive_cycles",
        "Ablation 2 — fixed vs adaptive cycle count",
        "ablation2_adaptive_cycles",
        adaptive_cycles_rows,
    ),
    (
        "edge_threshold",
        "Ablation 3 — Eq. (3) edge-pruning threshold",
        "ablation3_edge_threshold",
        edge_threshold_rows,
    ),
    (
        "reassign_threshold",
        "Ablation 4 — Eq. (2) reassignment threshold",
        "ablation4_reassign_threshold",
        reassign_threshold_rows,
    ),
    (
        "weight_function",
        "Ablation 5 — edge weight function",
        "ablation5_weight_function",
        weight_function_rows,
    ),
    (
        "batch_trigger",
        "Ablation 6 — batch trigger policy",
        "ablation6_batch_trigger",
        batch_trigger_rows,
    ),
    (
        "frontier",
        "Ablation 7 — quality vs time frontier",
        "ablation7_frontier",
        frontier_rows,
    ),
    (
        "region_decomposition",
        "Ablation 8 — region decomposition under one global load",
        "ablation8_region_decomposition",
        region_decomposition_rows,
    ),
    (
        "latency_model",
        "Ablation 9 — latency-model sensitivity (uniform vs power-law crowd)",
        "ablation9_latency_model",
        latency_model_rows,
    ),
    (
        "model_kind",
        "Ablation 10 — Eq. (2)/(3) distribution: parametric vs empirical",
        "ablation10_model_kind",
        model_kind_rows,
    ),
    (
        "replication",
        "Ablation 11 — worker selection (REACT) vs k-fold redundancy",
        "ablation11_replication",
        replication_rows,
    ),
];

/// All eleven ablations as one [`Experiment`] cell: each contributes its
/// figure CSV, its table and its KPI rows tagged with an `ablation`
/// column.
pub struct Ablation;

impl Experiment for Ablation {
    fn name(&self) -> &'static str {
        "ablation"
    }
    fn title(&self) -> &'static str {
        "Ablations — the eleven design-choice isolations of DESIGN.md"
    }
    fn figures(&self) -> Vec<&'static str> {
        SUITE.iter().map(|entry| entry.2).collect()
    }
    fn run(&self, spec: &RunSpec) -> Result<RunOutput, String> {
        let params = AblationParams {
            seed: spec.seed,
            ..spec.sized(AblationParams::quick)
        };
        let mut out = RunOutput::default();
        for (name, title, csv_name, rows_fn) in SUITE {
            let report = KpiReport::from_rows(rows_fn(&params));
            out.figures.push((csv_name, report.to_csv_rows(None)));
            out.text.push_str(&report.table(title, None).render());
            out.text.push('\n');
            for row in &report.rows {
                out.rows
                    .push(prefixed(KpiRow::new().label("ablation", *name), row));
            }
        }
        Ok(out)
    }
}

fn contended_graph(side: usize, seed: u64) -> BipartiteGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    BipartiteGraph::full(side, side, |_, _| rng.gen::<f64>()).expect("valid weights")
}

fn scenario(params: &AblationParams, policy: MatcherPolicy, seed: u64) -> Scenario {
    let mut sc = Scenario::paper_fig5(policy, seed);
    sc.n_workers = params.n_workers;
    sc.total_tasks = params.total_tasks;
    sc.arrival_rate *= params.n_workers as f64 / 750.0;
    sc
}

/// Ablation 1 — the conflict-resolution rule: REACT vs Metropolis
/// matching weight at equal cycle budgets.
pub fn conflict_rule_rows(params: &AblationParams) -> Vec<KpiRow> {
    let graph = contended_graph(params.graph_side, params.seed);
    [250usize, 500, 1000, 2000, 4000]
        .into_iter()
        .map(|cycles| {
            let react: f64 = (0..5)
                .map(|i| {
                    ReactMatcher::with_cycles(cycles)
                        .assign(&graph, &mut SmallRng::seed_from_u64(params.seed + i))
                        .total_weight
                })
                .sum::<f64>()
                / 5.0;
            let metro: f64 = (0..5)
                .map(|i| {
                    MetropolisMatcher::with_cycles(cycles)
                        .assign(&graph, &mut SmallRng::seed_from_u64(params.seed + 100 + i))
                        .total_weight
                })
                .sum::<f64>()
                / 5.0;
            KpiRow::new()
                .int("cycles", cycles as i64)
                .float("react_weight", react)
                .float("metropolis_weight", metro)
                .label(
                    "advantage",
                    format!("{:+.1}%", 100.0 * (react / metro - 1.0)),
                )
        })
        .collect()
}

/// Ablation 2 — fixed cycle budgets vs the adaptive `c = κ·|E|` rule.
pub fn adaptive_cycles_rows(params: &AblationParams) -> Vec<KpiRow> {
    let cost_model = CostModel::paper_calibrated();
    let mut rows = Vec::new();
    for side in [params.graph_side / 2, params.graph_side] {
        let graph = contended_graph(side, params.seed ^ side as u64);
        let mut variants = vec![
            (
                "fixed-1000".to_string(),
                MatcherPolicy::React { cycles: 1000 },
            ),
            (
                "fixed-4000".to_string(),
                MatcherPolicy::React { cycles: 4000 },
            ),
        ];
        for kappa in [0.05, 0.2] {
            variants.push((
                format!("adaptive-k{kappa}"),
                MatcherPolicy::ReactAdaptive { kappa },
            ));
        }
        for (label, policy) in variants {
            let mut engine = MatcherEngine::new(policy);
            let m = engine.assign(&graph, &mut SmallRng::seed_from_u64(params.seed));
            rows.push(
                KpiRow::new()
                    .label("variant", &label)
                    .int("side", side as i64)
                    .float("weight", m.total_weight)
                    .float(
                        "modeled_s",
                        cost_model.seconds_for(policy.name(), m.cost_units),
                    ),
            );
        }
    }
    rows
}

/// Ablation 3 — the Eq. (3) edge-instantiation threshold.
pub fn edge_threshold_rows(params: &AblationParams) -> Vec<KpiRow> {
    [0.0, 0.1, 0.3, 0.5, 0.8]
        .into_iter()
        .map(|threshold| {
            let mut sc = scenario(params, MatcherPolicy::React { cycles: 1000 }, params.seed);
            sc.config.deadline.edge_probability_threshold = threshold;
            let r = ScenarioRunner::new(sc).run();
            KpiRow::new()
                .float("threshold", threshold)
                .pct("kpi.deadline_hit_rate", r.deadline_ratio())
                .pct("kpi.positive_rate", r.positive_ratio())
                .int("tasks.reassigned", r.reassignments as i64)
        })
        .collect()
}

/// Ablation 4 — the Eq. (2) reassignment threshold (0 = never recall).
pub fn reassign_threshold_rows(params: &AblationParams) -> Vec<KpiRow> {
    [0.0, 0.05, 0.1, 0.25, 0.5]
        .into_iter()
        .map(|threshold| {
            let mut sc = scenario(params, MatcherPolicy::React { cycles: 1000 }, params.seed);
            sc.config.deadline.reassign_threshold = threshold;
            let r = ScenarioRunner::new(sc).run();
            KpiRow::new()
                .float("threshold", threshold)
                .pct("kpi.deadline_hit_rate", r.deadline_ratio())
                .int("tasks.reassigned", r.reassignments as i64)
                .float("kpi.avg_exec_s", r.avg_exec_time())
        })
        .collect()
}

/// Ablation 5 — the weight function: accuracy vs distance vs blend.
pub fn weight_function_rows(params: &AblationParams) -> Vec<KpiRow> {
    let variants = [
        ("accuracy", WeightFunction::Accuracy),
        ("distance", WeightFunction::Distance { scale_km: 5.0 }),
        (
            "blend-0.5",
            WeightFunction::Blend {
                lambda: 0.5,
                scale_km: 5.0,
            },
        ),
    ];
    variants
        .into_iter()
        .map(|(label, wf)| {
            let mut sc = scenario(params, MatcherPolicy::React { cycles: 1000 }, params.seed);
            sc.config.weight = wf;
            let r = ScenarioRunner::new(sc).run();
            KpiRow::new()
                .label("weight_fn", label)
                .pct("kpi.deadline_hit_rate", r.deadline_ratio())
                .pct("kpi.positive_rate", r.positive_ratio())
        })
        .collect()
}

/// Ablation 6 — batch trigger policy: queue threshold vs period.
pub fn batch_trigger_rows(params: &AblationParams) -> Vec<KpiRow> {
    let variants: [(&str, BatchTrigger); 4] = [
        (
            "threshold-1",
            BatchTrigger {
                min_unassigned: 1,
                period: None,
            },
        ),
        (
            "threshold-10",
            BatchTrigger {
                min_unassigned: 10,
                period: None,
            },
        ),
        (
            "threshold-50",
            BatchTrigger {
                min_unassigned: 50,
                period: None,
            },
        ),
        (
            "hybrid-10/2s",
            BatchTrigger {
                min_unassigned: 10,
                period: Some(2.0),
            },
        ),
    ];
    variants
        .into_iter()
        .map(|(label, trigger)| {
            let mut sc = scenario(params, MatcherPolicy::React { cycles: 1000 }, params.seed);
            sc.config.batch = trigger;
            let r = ScenarioRunner::new(sc).run();
            KpiRow::new()
                .label("trigger", label)
                .pct("kpi.deadline_hit_rate", r.deadline_ratio())
                .int("batches.run", r.batches as i64)
                .float("matching.seconds", r.total_matching_seconds)
        })
        .collect()
}

/// Ablation 7 — the quality-vs-time frontier: exact vs the heuristics.
// The `wall_ms` column: wall-clock timing IS the measurement here.
#[allow(clippy::disallowed_methods)]
pub fn frontier_rows(params: &AblationParams) -> Vec<KpiRow> {
    let graph = contended_graph(params.graph_side, params.seed ^ 0xf00d);
    let cost_model = CostModel::paper_calibrated();
    let matchers: Vec<Box<dyn Matcher>> = vec![
        Box::new(HungarianMatcher),
        Box::new(GreedyMatcher),
        Box::new(ReactMatcher::with_cycles(1000)),
        Box::new(MetropolisMatcher::with_cycles(1000)),
    ];
    let mut optimal = None;
    matchers
        .iter()
        .map(|matcher| {
            let t0 = Instant::now();
            let m = matcher.assign(&graph, &mut SmallRng::seed_from_u64(params.seed));
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            if matcher.name() == "hungarian" {
                optimal = Some(m.total_weight);
            }
            let opt_ratio = optimal.map_or(1.0, |o| m.total_weight / o);
            KpiRow::new()
                .label("matcher", matcher.name())
                .float("weight", m.total_weight)
                .pct("optimality", opt_ratio)
                .float("wall_ms", wall_ms)
                .float(
                    "modeled_s",
                    cost_model.seconds_for(matcher.name(), m.cost_units),
                )
        })
        .collect()
}

/// Ablation 8 — region decomposition under load (the paper's proposed
/// overload fix): the same global workload over 1×1, 2×2 and 3×3 grids,
/// each a cluster run with every coupling mechanism off.
pub fn region_decomposition_rows(params: &AblationParams) -> Vec<KpiRow> {
    use react_cluster::{ClusterPolicy, ClusterRunner, ClusterScenario};
    [(1u32, 1u32), (2, 2), (3, 3)]
        .into_iter()
        .map(|(r, c)| {
            let global = scenario(params, MatcherPolicy::React { cycles: 1000 }, params.seed);
            let report = ClusterRunner::new(ClusterScenario {
                global,
                rows: r,
                cols: c,
                policy: ClusterPolicy::single_tier(),
            })
            .run();
            KpiRow::new()
                .label("grid", format!("{r}x{c}"))
                .int("servers", (r * c) as i64)
                .pct("kpi.deadline_hit_rate", report.deadline_ratio())
                .float("kpi.max_matching_s", report.max_matching_seconds())
        })
        .collect()
}

/// Ablation 9 — latency-model sensitivity. The paper's Eq. (2)/(3)
/// estimator *assumes* power-law execution times (citing Ipeirotis) but
/// its evaluation generates uniform-with-delay times. This experiment
/// runs the same scenario under both crowds: when the crowd really is
/// power-law the estimator is well-specified and REACT's advantage over
/// the no-reassignment baseline should persist or grow.
pub fn latency_model_rows(params: &AblationParams) -> Vec<KpiRow> {
    use react_crowd::BehaviorParams;
    let mut rows = Vec::new();
    for (label, behavior) in [
        ("paper-uniform", BehaviorParams::default()),
        ("power-law", BehaviorParams::power_law_defaults()),
    ] {
        for policy in [
            MatcherPolicy::React { cycles: 1000 },
            MatcherPolicy::Traditional,
        ] {
            let mut sc = scenario(params, policy, params.seed);
            sc.behavior = behavior;
            let r = ScenarioRunner::new(sc).run();
            rows.push(
                KpiRow::new()
                    .label("latency", label)
                    .label("policy", r.matcher_name)
                    .pct("kpi.deadline_hit_rate", r.deadline_ratio())
                    .int("tasks.reassigned", r.reassignments as i64)
                    .float("kpi.avg_exec_s", r.avg_exec_time()),
            );
        }
    }
    rows
}

/// Ablation 10 — which latency distribution Eq. (2)/(3) evaluates: the
/// paper's power-law fit, the empirical CCDF, or KS-gated auto
/// selection. The paper's own synthetic crowd is *bimodal* (uniform
/// service + delay spike), i.e. mis-specified for a power law — the
/// empirical model is the robustness check.
pub fn model_kind_rows(params: &AblationParams) -> Vec<KpiRow> {
    let kinds = [
        ("power-law", LatencyModelKind::PowerLaw),
        ("empirical", LatencyModelKind::Empirical),
        ("auto-ks0.1", LatencyModelKind::Auto { ks_threshold: 0.1 }),
    ];
    kinds
        .into_iter()
        .map(|(label, kind)| {
            let mut sc = scenario(params, MatcherPolicy::React { cycles: 1000 }, params.seed);
            sc.config.latency_model = kind;
            let r = ScenarioRunner::new(sc).run();
            KpiRow::new()
                .label("model", label)
                .pct("kpi.deadline_hit_rate", r.deadline_ratio())
                .pct("kpi.positive_rate", r.positive_ratio())
                .int("tasks.reassigned", r.reassignments as i64)
        })
        .collect()
}

/// Ablation 11 — selection vs redundancy. The paper's related-work
/// section argues REACT *"manages to define the most suitable workers
/// before the execution of the tasks and thus to reduce the cost of the
/// multiple assignments"*. This experiment quantifies it: Traditional
/// with k=1/k=3 replicas vs REACT with k=1, comparing per-logical-task
/// success (any replica positive) against payments made.
pub fn replication_rows(params: &AblationParams) -> Vec<KpiRow> {
    let variants: [(&str, MatcherPolicy, usize); 4] = [
        ("traditional k=1", MatcherPolicy::Traditional, 1),
        ("traditional k=3", MatcherPolicy::Traditional, 3),
        ("react k=1", MatcherPolicy::React { cycles: 1000 }, 1),
        ("react k=3", MatcherPolicy::React { cycles: 1000 }, 3),
    ];
    variants
        .into_iter()
        .map(|(label, policy, k)| {
            let mut sc = scenario(params, policy, params.seed);
            // Keep the *logical* workload constant; replicas multiply load,
            // so give the crowd headroom for a fair accuracy comparison.
            sc.total_tasks = params.total_tasks / 3;
            sc.arrival_rate /= 3.0;
            sc.replication = k;
            let r = ScenarioRunner::new(sc).run();
            let groups = r.groups.max(1) as f64;
            KpiRow::new()
                .label("scheme", label)
                .pct(
                    "kpi.any_positive_rate",
                    r.groups_any_positive as f64 / groups,
                )
                .pct(
                    "kpi.majority_positive_rate",
                    r.groups_majority_positive as f64 / groups,
                )
                .int("payments", r.payments() as i64)
                .float("kpi.payments_per_group", r.payments() as f64 / groups)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use react_metrics::KpiValue;

    fn rendered(rows: Vec<KpiRow>) -> String {
        KpiReport::from_rows(rows).table("ablation", None).render()
    }

    #[test]
    fn suite_lists_all_eleven_uniquely() {
        assert_eq!(SUITE.len(), 11);
        let mut names: Vec<&str> = SUITE.iter().map(|e| e.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 11, "ablation names must be unique");
        for (_, title, csv, _) in SUITE {
            assert!(title.starts_with("Ablation "), "bad title {title}");
            assert!(csv.starts_with("ablation"), "bad csv name {csv}");
        }
    }

    #[test]
    fn conflict_rule_shows_react_advantage() {
        let text = rendered(conflict_rule_rows(&AblationParams::quick()));
        assert!(text.contains("react_weight"));
        // Every advantage cell should be positive (REACT ≥ Metropolis).
        let plus = text.matches('+').count();
        assert!(plus >= 4, "expected mostly positive advantages:\n{text}");
    }

    #[test]
    fn adaptive_cycles_renders() {
        let text = rendered(adaptive_cycles_rows(&AblationParams::quick()));
        assert!(text.contains("adaptive-k0.2"));
        assert!(text.contains("fixed-1000"));
    }

    #[test]
    fn edge_threshold_sweep_runs() {
        let text = rendered(edge_threshold_rows(&AblationParams::quick()));
        assert!(text.contains("0.8"));
    }

    #[test]
    fn reassign_threshold_zero_means_no_recalls() {
        let rows = reassign_threshold_rows(&AblationParams::quick());
        let reassigned = |i: usize| {
            rows[i]
                .get("tasks.reassigned")
                .and_then(|v| v.as_f64())
                .unwrap()
        };
        assert_eq!(rows[0].get("threshold").and_then(|v| v.as_f64()), Some(0.0));
        assert_eq!(reassigned(0), 0.0, "threshold 0 disables Eq. (2) recalls");
        // Higher thresholds recall at least as often.
        assert!(reassigned(4) >= reassigned(2));
    }

    #[test]
    fn weight_function_and_batch_trigger_render() {
        let p = AblationParams::quick();
        assert!(rendered(weight_function_rows(&p)).contains("accuracy"));
        assert!(rendered(batch_trigger_rows(&p)).contains("threshold-10"));
    }

    #[test]
    fn region_decomposition_renders_and_splits_load() {
        let text = rendered(region_decomposition_rows(&AblationParams::quick()));
        assert!(text.contains("1x1"));
        assert!(text.contains("3x3"));
    }

    #[test]
    fn latency_model_runs_both_crowds() {
        let text = rendered(latency_model_rows(&AblationParams::quick()));
        assert!(text.contains("paper-uniform"));
        assert!(text.contains("power-law"));
        assert!(text.contains("react"));
        assert!(text.contains("traditional"));
    }

    #[test]
    fn model_kind_runs_all_three() {
        let text = rendered(model_kind_rows(&AblationParams::quick()));
        assert!(text.contains("power-law"));
        assert!(text.contains("empirical"));
        assert!(text.contains("auto-ks0.1"));
    }

    #[test]
    fn replication_compares_schemes() {
        let text = rendered(replication_rows(&AblationParams::quick()));
        assert!(text.contains("traditional k=3"));
        assert!(text.contains("react k=1"));
    }

    #[test]
    fn frontier_hungarian_tops_weight() {
        let text = rendered(frontier_rows(&AblationParams::quick()));
        assert!(text.contains("hungarian"));
        assert!(
            text.contains("100.0%"),
            "hungarian is its own optimum:\n{text}"
        );
    }

    #[test]
    fn suite_cell_tags_rows_and_emits_every_declared_table() {
        use crate::experiment::ExpandCtx;
        let ctx = ExpandCtx {
            quick: true,
            seed: 42,
            manifest: None,
        };
        let spec = &Ablation.expand(&ctx).unwrap()[0];
        let out = Ablation.run(spec).unwrap();
        let emitted: Vec<&str> = out.figures.iter().map(|(name, _)| *name).collect();
        assert_eq!(emitted, Ablation.figures());
        for (name, title, _, _) in SUITE {
            assert!(out.text.contains(title), "missing table {title}");
            assert!(
                out.rows
                    .iter()
                    .any(|r| r.get("ablation") == Some(&KpiValue::Text((*name).into()))),
                "no rows tagged {name}"
            );
        }
        for row in &out.rows {
            assert_eq!(row.columns().next(), Some("ablation"));
        }
    }
}
