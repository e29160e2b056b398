//! The `scenario` suite: the fully manifest-driven experiment.
//!
//! Each run builds one crowd scenario from its axis coordinates — pool
//! size, matcher (with cycle budget), fault plan, shard count,
//! replicate index — executes it deterministically (single server via
//! [`ScenarioRunner`], sharded via [`ClusterRunner`]), and reads its
//! KPIs from the run report, the attached [`RecordingObserver`] and the
//! audit log. Every emitted value is simulation-deterministic (no wall
//! clock), which is what makes sweep reports byte-identical across
//! reruns and thread counts.
//!
//! Recognised axes/knobs (axes override knobs of the same name):
//!
//! | name           | kind  | default      | meaning                              |
//! |----------------|-------|--------------|--------------------------------------|
//! | `pool`         | int   | 40           | workers registered at t = 0          |
//! | `matcher`      | str   | `react`      | `react[-C]`, `adaptive`, `greedy`, `traditional` |
//! | `cycles`       | int   | 1000         | cycle budget for `react`             |
//! | `kappa`        | float | 0.2          | cycles/edge for `adaptive`           |
//! | `faults`       | str   | `none`       | [`fault_plan`] spec                  |
//! | `shards`       | int   | 1            | shard count (>1 runs the cluster)    |
//! | `policy`       | str   | `coupled`    | [`cluster_policy`] spec              |
//! | `replicate`    | int   | 0            | replicate index (seed axis only)     |
//! | `tasks`        | int   | 5 × pool     | total tasks submitted                |
//! | `arrival_rate` | float | pool / 15    | task arrivals per second             |
//!
//! The `faults` and `policy` specs share one grammar: a named preset, or
//! `+`-joined `name(args)` components where `args` is one value or
//! `key=value` pairs, and a range is `lo..hi`. Each component and each
//! key may appear at most once; an omitted component stays off.

use std::collections::BTreeMap;
use std::str::FromStr;

use react_cluster::{
    AdmissionPolicy, ClusterPolicy, ClusterReport, ClusterRunner, ClusterScenario, HandoffPolicy,
    RebalancePolicy,
};
use react_core::events::{AuditLog, TaskEventKind};
use react_core::{MatcherPolicy, RecoveryConfig, TaskId};
use react_crowd::{RunReport, Scenario, ScenarioRunner};
use react_faults::{BurstPlan, DropoutPlan, FaultPlan, StragglerPlan};
use react_metrics::{KpiRow, KpiValue};
use react_obs::{CounterKind, RecordingObserver};

use crate::experiment::{ExpandCtx, Experiment, RunOutput};
use crate::spec::{expand, RunSpec};

/// The manifest-driven scenario sweep suite.
pub struct ScenarioSweep;

impl Experiment for ScenarioSweep {
    fn name(&self) -> &'static str {
        "scenario"
    }

    fn title(&self) -> &'static str {
        "manifest-driven crowd scenario sweep (pool × matcher × faults × shards)"
    }

    fn expand(&self, ctx: &ExpandCtx) -> Result<Vec<RunSpec>, String> {
        let manifest = ctx
            .manifest
            .ok_or("the scenario suite is manifest-driven; run it via `sweep <manifest>`")?;
        let specs = expand(manifest, self.name(), ctx.quick);
        // Validate every coordinate eagerly: a sweep must fail before
        // its first run, not in the middle of a fan-out.
        for spec in &specs {
            build_config(spec).map_err(|e| format!("run '{}': {e}", spec.label))?;
        }
        Ok(specs)
    }

    fn run(&self, spec: &RunSpec) -> Result<RunOutput, String> {
        let cfg = build_config(spec)?;
        let row = run_config(&cfg, spec);
        Ok(RunOutput {
            text: summary_line(spec, &row),
            rows: vec![row],
            ..RunOutput::default()
        })
    }
}

/// One terminal line per run: the headline KPIs (the report files carry
/// every column).
fn summary_line(spec: &RunSpec, row: &KpiRow) -> String {
    let cell = |name: &str| row.get(name).map(KpiValue::render).unwrap_or_default();
    format!(
        "{:<58} received {:>5}  completed {:>5}  on time {:>5} ({:>6})  \
         assign p50 {:>7}s p99 {:>7}s  shed {:>3}  handoffs {:>3}  {:>6} tasks/s",
        spec.label,
        cell("kpi.received"),
        cell("tasks.completed"),
        cell("deadlines.met"),
        cell("kpi.deadline_hit_rate"),
        cell("kpi.assign_latency_p50_s"),
        cell("kpi.assign_latency_p99_s"),
        cell("shard.admission_shed"),
        cell("shard.handoffs"),
        cell("kpi.tasks_per_sim_s"),
    )
}

/// A validated scenario configuration.
struct RunConfig {
    scenario: Scenario,
    shards: usize,
    policy: ClusterPolicy,
}

fn build_config(spec: &RunSpec) -> Result<RunConfig, String> {
    let pool = spec.usize_param("pool").unwrap_or(40);
    if pool == 0 {
        return Err("pool must be at least 1".to_string());
    }
    let cycles = spec.usize_param("cycles").unwrap_or(1000);
    let kappa = spec.f64_param("kappa").unwrap_or(0.2);
    let matcher = parse_matcher(spec.str_param("matcher").unwrap_or("react"), cycles, kappa)?;
    let faults = fault_plan(spec.str_param("faults").unwrap_or("none"))?;
    let shards = spec.usize_param("shards").unwrap_or(1);
    if shards == 0 {
        return Err("shards must be at least 1".to_string());
    }
    let policy = cluster_policy(spec.str_param("policy").unwrap_or("coupled"))?;
    let tasks = spec.usize_param("tasks").unwrap_or(5 * pool);
    let arrival_rate = spec.f64_param("arrival_rate").unwrap_or(pool as f64 / 15.0);
    let arrival_ok = arrival_rate.is_finite() && arrival_rate > 0.0;
    if !arrival_ok {
        return Err(format!("arrival_rate must be positive, got {arrival_rate}"));
    }

    let mut sc = Scenario::smoke(matcher, spec.seed);
    sc.label = if spec.label.is_empty() {
        "scenario".to_string()
    } else {
        spec.label.clone()
    };
    sc.n_workers = pool;
    sc.arrival_rate = arrival_rate;
    sc.total_tasks = tasks;
    sc.config.audit = true;
    if !faults.is_noop() {
        // Same posture as the chaos suite: faults without the recovery
        // ladder just measure how fast everything dies.
        sc.config.recovery = RecoveryConfig::aggressive(30.0);
        sc.faults = Some(faults);
    }
    Ok(RunConfig {
        scenario: sc,
        shards,
        policy,
    })
}

/// Maps a manifest matcher name (optionally with an embedded `-cycles`
/// budget) to a [`MatcherPolicy`].
fn parse_matcher(name: &str, cycles: usize, kappa: f64) -> Result<MatcherPolicy, String> {
    let (base, embedded) = match name.rsplit_once('-') {
        Some((base, digits))
            if digits.chars().all(|c| c.is_ascii_digit()) && !digits.is_empty() =>
        {
            (base, digits.parse::<usize>().ok())
        }
        _ => (name, None),
    };
    let budget = embedded.unwrap_or(cycles).max(1);
    match base {
        "react" => Ok(MatcherPolicy::React { cycles: budget }),
        "adaptive" | "react-adaptive" => Ok(MatcherPolicy::ReactAdaptive { kappa }),
        "greedy" => Ok(MatcherPolicy::Greedy),
        "traditional" => Ok(MatcherPolicy::Traditional),
        other => Err(format!(
            "unknown matcher '{other}' (expected react[-C], adaptive, greedy or traditional)"
        )),
    }
}

/// Decodes a `faults` spec into a validated [`FaultPlan`].
///
/// Accepted forms:
/// - `none` or an empty spec — [`FaultPlan::none`];
/// - `chaos(I)` — [`FaultPlan::chaos`] at intensity `I`, on its own;
/// - `+`-joined components out of `dropout(P)` (the
///   [`FaultPlan::dropout_only`] preset),
///   `dropout(p=..,window=lo..hi[,offline=lo..hi])`,
///   `straggler(f=..,factor=lo..hi)`, `abandon(p)`, `loss(p)`, `dup(p)`
///   and `bursts(n=..,size=..,window=lo..hi)`.
pub fn fault_plan(spec: &str) -> Result<FaultPlan, String> {
    let spec = spec.trim();
    if spec.is_empty() || spec == "none" {
        return Ok(FaultPlan::none());
    }
    let components = components("fault", spec)?;
    let mut plan = FaultPlan::none();
    for &(name, args) in &components {
        match name {
            "chaos" if components.len() > 1 => {
                return Err("chaos(..) is a preset and takes no other component".into())
            }
            "chaos" => plan = FaultPlan::chaos(number("chaos", args)?),
            "dropout" if args.contains('=') => {
                let kv = Keyed::read(name, args, &["p", "window", "offline"])?;
                plan.dropout = Some(DropoutPlan {
                    probability: kv.number("p")?,
                    window: kv.range("window")?,
                    offline_range: kv.get("offline").map(|_| kv.range("offline")).transpose()?,
                });
            }
            "dropout" => plan.dropout = FaultPlan::dropout_only(number(name, args)?).dropout,
            "straggler" => {
                let kv = Keyed::read(name, args, &["f", "factor"])?;
                plan.straggler = Some(StragglerPlan {
                    fraction: kv.number("f")?,
                    factor_range: kv.range("factor")?,
                });
            }
            "abandon" => plan.abandon_probability = number(name, args)?,
            "loss" => plan.loss_probability = number(name, args)?,
            "dup" => plan.duplication_probability = number(name, args)?,
            "bursts" => {
                let kv = Keyed::read(name, args, &["n", "size", "window"])?;
                plan.bursts = Some(BurstPlan {
                    count: kv.number("n")?,
                    size: kv.number("size")?,
                    window: kv.range("window")?,
                });
            }
            other => {
                return Err(format!(
                    "unknown fault component '{other}' (expected none, chaos, \
                     dropout, straggler, abandon, loss, dup or bursts)"
                ))
            }
        }
    }
    plan.validate()?;
    Ok(plan)
}

/// Decodes a `policy` spec into a validated [`ClusterPolicy`].
///
/// Accepted forms:
/// - `single-tier` (or `single_tier`) — [`ClusterPolicy::single_tier`];
/// - `coupled` — [`ClusterPolicy::coupled`];
/// - `+`-joined components out of `split(threshold)`,
///   `handoff(floor=..,max=..)`,
///   `rebalance(period=..,min_idle=..,max_moves=..)` and
///   `admission(max_open)`. Omitted mechanisms stay off.
pub fn cluster_policy(spec: &str) -> Result<ClusterPolicy, String> {
    let policy = match spec.trim() {
        "" => return Err("empty cluster policy spec".to_string()),
        "single-tier" | "single_tier" => ClusterPolicy::single_tier(),
        "coupled" => ClusterPolicy::coupled(),
        spec => {
            let mut policy = ClusterPolicy::single_tier();
            for (name, args) in components("policy", spec)? {
                match name {
                    "split" => policy.split_threshold = number(name, args)?,
                    "handoff" => {
                        let kv = Keyed::read(name, args, &["floor", "max"])?;
                        policy.handoff = Some(HandoffPolicy {
                            pool_floor: kv.number("floor")?,
                            max_per_tick: kv.number("max")?,
                        });
                    }
                    "rebalance" => {
                        let kv = Keyed::read(name, args, &["period", "min_idle", "max_moves"])?;
                        policy.rebalance = Some(RebalancePolicy {
                            period_ticks: kv.number("period")?,
                            min_idle: kv.number("min_idle")?,
                            max_moves: kv.number("max_moves")?,
                        });
                    }
                    "admission" => {
                        policy.admission = Some(AdmissionPolicy {
                            max_open_tasks: number(name, args)?,
                        });
                    }
                    other => {
                        return Err(format!(
                            "unknown cluster policy component '{other}' (expected \
                             single-tier, coupled, split, handoff, rebalance or admission)"
                        ))
                    }
                }
            }
            policy
        }
    };
    policy.validate()?;
    Ok(policy)
}

/// Splits a `+`-joined spec into its `(name, args)` components,
/// rejecting a component that appears twice.
fn components<'a>(kind: &str, spec: &'a str) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut out: Vec<(&str, &str)> = Vec::new();
    for part in spec.split('+') {
        let part = part.trim();
        let Some(open) = part.find('(') else {
            return Err(format!("{kind} component '{part}' is missing '(…)'"));
        };
        let Some(inner) = part.strip_suffix(')') else {
            return Err(format!(
                "{kind} component '{part}' is missing the closing ')'"
            ));
        };
        let name = part[..open].trim();
        if out.iter().any(|&(seen, _)| seen == name) {
            return Err(format!("{kind} component '{name}' is given twice"));
        }
        out.push((name, &inner[open + 1..]));
    }
    Ok(out)
}

/// One component's `key=value` arguments.
struct Keyed<'a> {
    component: &'a str,
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Keyed<'a> {
    /// Reads `args` as comma-separated `key=value` pairs; every key must
    /// be in `allowed` and appear at most once.
    fn read(component: &'a str, args: &'a str, allowed: &[&str]) -> Result<Self, String> {
        let mut pairs: Vec<(&str, &str)> = Vec::new();
        for pair in args.split(',') {
            let Some((key, value)) = pair.split_once('=') else {
                return Err(format!("{component}: expected key=value, got '{pair}'"));
            };
            let key = key.trim();
            if !allowed.contains(&key) {
                return Err(format!(
                    "{component}: unknown key '{key}' (expected one of {allowed:?})"
                ));
            }
            if pairs.iter().any(|&(seen, _)| seen == key) {
                return Err(format!("{component}: key '{key}' is given twice"));
            }
            pairs.push((key, value.trim()));
        }
        Ok(Keyed { component, pairs })
    }

    fn get(&self, key: &str) -> Option<&'a str> {
        self.pairs.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v)
    }

    fn required(&self, key: &str) -> Result<&'a str, String> {
        self.get(key)
            .ok_or_else(|| format!("{}: missing required key '{key}'", self.component))
    }

    fn number<T: FromStr>(&self, key: &str) -> Result<T, String> {
        number(&format!("{}.{key}", self.component), self.required(key)?)
    }

    fn range(&self, key: &str) -> Result<(f64, f64), String> {
        let what = format!("{}.{key}", self.component);
        let value = self.required(key)?;
        let Some((lo, hi)) = value.split_once("..") else {
            return Err(format!("{what}: expected 'lo..hi', got '{value}'"));
        };
        Ok((number(&what, lo)?, number(&what, hi)?))
    }
}

/// Parses one number of any type, for the error naming it `what`.
fn number<T: FromStr>(what: &str, s: &str) -> Result<T, String> {
    let s = s.trim();
    let kind = std::any::type_name::<T>();
    s.parse()
        .map_err(|_| format!("{what}: '{s}' is not a valid {kind}"))
}

/// Splits a shard count into the most square `rows × cols` grid.
fn grid_for(shards: usize) -> (u32, u32) {
    let mut rows = 1;
    let mut d = 1;
    while d * d <= shards {
        if shards.is_multiple_of(d) {
            rows = d;
        }
        d += 1;
    }
    (rows as u32, (shards / rows) as u32)
}

fn run_config(cfg: &RunConfig, spec: &RunSpec) -> KpiRow {
    let recording = RecordingObserver::new();
    let observer = std::sync::Arc::new(recording.clone());
    if cfg.shards <= 1 {
        let report = ScenarioRunner::new(cfg.scenario.clone())
            .with_observer(observer)
            .run();
        single_row(spec, &report, &recording)
    } else {
        let (rows, cols) = grid_for(cfg.shards);
        let cluster = ClusterScenario {
            global: cfg.scenario.clone(),
            rows,
            cols,
            policy: cfg.policy,
        };
        let report = ClusterRunner::new(cluster).with_observer(observer).run();
        cluster_row(spec, &report, &recording)
    }
}

/// Columns shared by single-server and cluster rows, so the aggregated
/// report has one stable schema.
fn base_row(spec: &RunSpec, rec: &RecordingObserver) -> KpiRow {
    KpiRow::new()
        .label("faults", spec.str_param("faults").unwrap_or("none"))
        .int(
            "tasks.assigned",
            rec.counter(CounterKind::TasksAssigned) as i64,
        )
        .int(
            "tasks.completed",
            rec.counter(CounterKind::TasksCompleted) as i64,
        )
        .int(
            "deadlines.met",
            rec.counter(CounterKind::DeadlinesMet) as i64,
        )
        .int(
            "feedback.positive",
            rec.counter(CounterKind::PositiveFeedback) as i64,
        )
        .int(
            "tasks.expired",
            rec.counter(CounterKind::TasksExpired) as i64,
        )
        .int(
            "tasks.reassigned",
            rec.counter(CounterKind::Reassignments) as i64,
        )
        .int("batches.run", rec.counter(CounterKind::BatchesRun) as i64)
        .int(
            "recovery.timeout_recalls",
            rec.counter(CounterKind::TimeoutRecalls) as i64,
        )
        .int(
            "fault.dropouts",
            rec.counter(CounterKind::FaultDropouts) as i64,
        )
        .int(
            "fault.abandons",
            rec.counter(CounterKind::FaultAbandons) as i64,
        )
        .int(
            "shard.handoffs",
            rec.counter(CounterKind::ShardHandoffs) as i64,
        )
        .int(
            "shard.workers_rebalanced",
            rec.counter(CounterKind::ShardWorkersRebalanced) as i64,
        )
        .int(
            "shard.admission_shed",
            rec.counter(CounterKind::ShardAdmissionShed) as i64,
        )
}

fn single_row(spec: &RunSpec, report: &RunReport, rec: &RecordingObserver) -> KpiRow {
    let latencies = report
        .audit
        .as_ref()
        .map(assignment_latencies)
        .unwrap_or_default();
    finish_row(
        base_row(spec, rec)
            .int("kpi.received", report.received as i64)
            .int("kpi.shards", 1),
        report.received,
        report.met_deadline,
        report.total_matching_seconds,
        report.sim_duration,
        report.completed,
        &latencies,
    )
}

fn cluster_row(spec: &RunSpec, report: &ClusterReport, rec: &RecordingObserver) -> KpiRow {
    let mut latencies: Vec<f64> = Vec::new();
    for shard in &report.shards {
        if let Some(audit) = &shard.audit {
            latencies.extend(assignment_latencies(audit));
        }
    }
    latencies.sort_by(|a, b| a.total_cmp(b));
    let matching: f64 = report.shards.iter().map(|s| s.total_matching_seconds).sum();
    finish_row(
        base_row(spec, rec)
            .int("kpi.received", report.received as i64)
            .int("kpi.shards", report.shards.len() as i64),
        report.received,
        report.met_deadline(),
        matching,
        report.sim_duration,
        report.completed(),
        &latencies,
    )
}

#[allow(clippy::too_many_arguments)]
fn finish_row(
    row: KpiRow,
    received: u64,
    met: u64,
    matching_seconds: f64,
    sim_duration: f64,
    completed: u64,
    latencies: &[f64],
) -> KpiRow {
    let hit_rate = if received > 0 {
        met as f64 / received as f64
    } else {
        0.0
    };
    let throughput = if sim_duration > 0.0 {
        completed as f64 / sim_duration
    } else {
        0.0
    };
    row.pct("kpi.deadline_hit_rate", hit_rate)
        .float("kpi.assign_latency_p50_s", percentile(latencies, 0.50))
        .float("kpi.assign_latency_p99_s", percentile(latencies, 0.99))
        .float("matching.seconds", matching_seconds)
        .float("kpi.sim_duration_s", sim_duration)
        .float("kpi.tasks_per_sim_s", throughput)
}

/// Submission→first-assignment latencies (sim seconds), sorted.
fn assignment_latencies(audit: &AuditLog) -> Vec<f64> {
    let mut submitted: BTreeMap<TaskId, f64> = BTreeMap::new();
    let mut latencies: Vec<f64> = Vec::new();
    for ev in audit.events() {
        match ev.kind {
            TaskEventKind::Submitted => {
                submitted.entry(ev.task).or_insert(ev.at);
            }
            TaskEventKind::Assigned { .. } => {
                if let Some(t0) = submitted.remove(&ev.task) {
                    latencies.push(ev.at - t0);
                }
            }
            _ => {}
        }
    }
    latencies.sort_by(|a, b| a.total_cmp(b));
    latencies
}

/// Nearest-rank percentile over a sorted slice; 0 when empty.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Manifest;

    fn mini_manifest() -> Manifest {
        Manifest::parse(
            "[sweep]\nname = \"mini\"\nseed = 7\nsuites = [\"scenario\"]\n\
             tasks = 40\n[axes]\npool = [12]\nmatcher = [\"react\", \"greedy\"]\n\
             shards = [1, 2]\n",
        )
        .expect("manifest")
    }

    #[test]
    fn expand_validates_eagerly() {
        let m = Manifest::parse(
            "[sweep]\nname = \"bad\"\nsuites = [\"scenario\"]\n\
             [axes]\nmatcher = [\"quantum\"]\n",
        )
        .unwrap();
        let ctx = ExpandCtx {
            quick: true,
            seed: m.seed,
            manifest: Some(&m),
        };
        let err = ScenarioSweep.expand(&ctx).unwrap_err();
        assert!(err.contains("unknown matcher"), "{err}");
    }

    #[test]
    fn runs_are_deterministic_and_schema_stable() {
        let m = mini_manifest();
        let ctx = ExpandCtx {
            quick: true,
            seed: m.seed,
            manifest: Some(&m),
        };
        let specs = ScenarioSweep.expand(&ctx).expect("expand");
        assert_eq!(specs.len(), 4);
        let first = ScenarioSweep.run(&specs[3]).expect("run").rows;
        let again = ScenarioSweep.run(&specs[3]).expect("run").rows;
        assert_eq!(first, again, "same spec must reproduce identical KPIs");
        let single = ScenarioSweep.run(&specs[0]).expect("run").rows;
        let cols_a: Vec<&str> = first[0].columns().collect();
        let cols_b: Vec<&str> = single[0].columns().collect();
        assert_eq!(cols_a, cols_b, "cluster and single rows share one schema");
        let metric = |row: &KpiRow, name| row.get(name).and_then(KpiValue::as_f64);
        assert!(metric(&first[0], "kpi.shards") == Some(2.0));
        assert!(metric(&single[0], "kpi.received").unwrap_or(0.0) > 0.0);
    }

    #[test]
    fn matcher_names_parse_with_embedded_budgets() {
        assert_eq!(
            parse_matcher("react-300", 1000, 0.2),
            Ok(MatcherPolicy::React { cycles: 300 })
        );
        assert_eq!(
            parse_matcher("react", 700, 0.2),
            Ok(MatcherPolicy::React { cycles: 700 })
        );
        assert_eq!(
            parse_matcher("adaptive", 1000, 0.2),
            Ok(MatcherPolicy::ReactAdaptive { kappa: 0.2 })
        );
        // The matching-only baselines are not scheduler policies.
        for rejected in [
            "quantum",
            "metropolis",
            "metropolis-50",
            "hungarian",
            "auction",
            "maxcard",
            "max-cardinality",
        ] {
            let err = parse_matcher(rejected, 1, 0.2).expect_err(rejected);
            assert!(err.starts_with("unknown matcher"), "{rejected}: {err}");
        }
    }

    #[test]
    fn grid_splits_are_most_square() {
        assert_eq!(grid_for(1), (1, 1));
        assert_eq!(grid_for(2), (1, 2));
        assert_eq!(grid_for(4), (2, 2));
        assert_eq!(grid_for(6), (2, 3));
        assert_eq!(grid_for(8), (2, 4));
        assert_eq!(grid_for(7), (1, 7));
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.5), 2.0);
        assert_eq!(percentile(&xs, 0.99), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
