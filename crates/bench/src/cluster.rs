//! Cluster scaling sweep (`BENCH_cluster.json`).
//!
//! Two measurements of the sharded cluster mode:
//!
//! 1. **Shard scaling** — end-to-end cluster ticks/second (submit →
//!    route → per-shard batch → commit → complete, plus the handoff and
//!    rebalance passes) for growing worker pools across 1–16 shards.
//!    Matching cost is quadratic in per-shard membership, so with the
//!    same workload an `S`-shard cluster does ~`1/S` the edge work of a
//!    monolith — the sweep should show near-linear throughput scaling
//!    even with the shards ticking *serially*.
//! 2. **Identities** — the coupled mode must conserve every task, and
//!    serial vs parallel shard execution must be bit-identical.
//!
//! The `react-experiments cluster` subcommand renders the tables and
//! archives the machine-readable summary as `BENCH_cluster.json` at the
//! repository root.

// analyze: allow-file(no-wall-clock) — benchmark harness: wall-clock
// timing IS the measurement here, and react-bench has no react-runtime
// dependency to borrow a Stopwatch from.

use crate::report::OutputSink;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use react_cluster::{
    grid_cluster, AdmissionPolicy, ClusterPolicy, ClusterRunner, ClusterScenario, HandoffPolicy,
    RebalancePolicy, Submission,
};
use react_core::{BatchTrigger, Config, MatcherPolicy, Task, TaskCategory, TaskId};
use react_crowd::Scenario;
use react_geo::BoundingBox;
use react_metrics::{write_stamped, ArtifactOutcome, KpiReport, KpiRow, Provenance};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct ClusterParams {
    /// Worker-pool sizes to sweep (cluster-wide totals).
    pub pools: Vec<usize>,
    /// Shard grids to sweep (`rows × cols` = shard count).
    pub grids: Vec<(u32, u32)>,
    /// Cluster ticks driven per point.
    pub ticks: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for ClusterParams {
    fn default() -> Self {
        ClusterParams {
            pools: vec![300, 600, 1200],
            grids: vec![(1, 1), (1, 2), (2, 2), (2, 4), (4, 4)],
            ticks: 60,
            seed: 42,
        }
    }
}

impl ClusterParams {
    /// Shortened sweep for tests/CI (still spans 1–8 shards).
    pub fn quick() -> Self {
        ClusterParams {
            pools: vec![120, 300],
            grids: vec![(1, 1), (2, 2), (2, 4)],
            ticks: 24,
            seed: 42,
        }
    }
}

/// One (pool, grid) throughput measurement.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Cluster-wide worker-pool size.
    pub workers: usize,
    /// Shard count (= rows × cols; no splitting in the sweep).
    pub shards: usize,
    /// Grid rows.
    pub rows: u32,
    /// Grid columns.
    pub cols: u32,
    /// Tasks submitted per cluster tick.
    pub tasks_per_tick: usize,
    /// Cluster ticks per wall second (shards ticking serially).
    pub ticks_per_sec: f64,
    /// Tasks completed over the drive.
    pub completed: u64,
    /// Cross-shard handoffs performed.
    pub handoffs: u64,
    /// Workers relocated by the rebalance passes.
    pub rebalanced: u64,
    /// Tasks refused at the admission caps.
    pub admission_shed: u64,
    /// Whether every submitted task is accounted for (must hold).
    pub conserved: bool,
}

/// The identity checks (run once per report).
#[derive(Debug, Clone)]
pub struct FallbackPoint {
    /// The coupled run satisfies the conservation identity.
    pub coupled_conserved: bool,
    /// Serial and parallel shard execution are bit-identical.
    pub serial_parallel_identical: bool,
}

/// The cluster sweep report.
#[derive(Debug, Clone)]
pub struct ClusterBenchReport {
    /// Throughput points, pool-major then grid order.
    pub scaling: Vec<ScalingPoint>,
    /// The identity checks.
    pub fallback: FallbackPoint,
    /// Whether the quick parameter set produced this report.
    pub quick: bool,
}

impl ClusterBenchReport {
    /// Throughput of `shards` shards over 1 shard at the largest pool
    /// (the headline scaling number), when both points exist.
    pub fn speedup_over_monolith(&self, shards: usize) -> Option<f64> {
        let pool = self.scaling.iter().map(|p| p.workers).max()?;
        let tps = |n: usize| {
            self.scaling
                .iter()
                .find(|p| p.workers == pool && p.shards == n)
                .map(|p| p.ticks_per_sec)
        };
        Some(tps(shards)? / tps(1)?.max(1e-9))
    }
}

/// The covered area; grids subdivide it into equal shard cells.
fn area() -> BoundingBox {
    BoundingBox::new(0.0, 4.0, 0.0, 4.0).expect("static bounds")
}

/// The standard bench config: REACT matcher, eager batch trigger, free
/// matching time (ticks measure wall throughput, not modelled delay).
fn bench_config() -> Config {
    let mut config = Config::with_matcher(MatcherPolicy::React { cycles: 200 });
    config.batch = BatchTrigger {
        min_unassigned: 1,
        period: None,
    };
    config.charge_matching_time = false;
    config
}

/// The sweep policy: all three cluster mechanisms live (so their pass
/// overhead is part of the measurement), no splitting (shard count stays
/// exactly `rows × cols`), admission cap far above the steady-state
/// queue (uniform load should not shed).
fn sweep_policy() -> ClusterPolicy {
    ClusterPolicy {
        split_threshold: u64::MAX,
        handoff: Some(HandoffPolicy {
            pool_floor: 3,
            max_per_tick: 8,
        }),
        rebalance: Some(RebalancePolicy {
            period_ticks: 5,
            min_idle: 2,
            max_moves: 4,
        }),
        admission: Some(AdmissionPolicy {
            max_open_tasks: 4096,
        }),
    }
}

/// Drives one cluster through the tick loop: every tick submits a
/// pool-scaled batch of tasks, runs the full cluster control step
/// (serial shard ticking, so scaling is algorithmic rather than
/// thread-count), and immediately completes whatever got assigned with
/// per-worker latencies. Mirrors `hotpath::drive_ticks` at cluster
/// scale.
fn measure(pool: usize, rows: u32, cols: u32, ticks: usize, seed: u64) -> ScalingPoint {
    use react_core::WorkerId;
    let mut cluster = grid_cluster(
        area(),
        rows,
        cols,
        bench_config(),
        seed,
        sweep_policy(),
        SmallRng::seed_from_u64(seed ^ 0x5eba),
    )
    .expect("bench config is valid");
    let mut place_rng = SmallRng::seed_from_u64(seed ^ pool as u64);
    for w in 0..pool as u64 {
        let location = area().random_point(&mut place_rng);
        cluster.register_worker(WorkerId(w), location);
    }
    let tasks_per_tick = (pool / 12).max(2);
    let mut task_rng = SmallRng::seed_from_u64(seed ^ 0x7a5c ^ pool as u64);
    let mut next_task = 0u64;
    let mut submitted = 0u64;
    let mut shed = 0u64;
    let mut completed = 0u64;
    let mut retired = 0u64;

    let t0 = Instant::now();
    for step in 0..ticks {
        let now = step as f64;
        for _ in 0..tasks_per_tick {
            let task = Task::new(
                TaskId(next_task),
                area().random_point(&mut task_rng),
                90.0 + (next_task % 4) as f64 * 30.0,
                0.05,
                TaskCategory((next_task % 2) as u32),
                "bench",
            );
            next_task += 1;
            match cluster.submit_task(task, now) {
                Submission::Accepted(_) => submitted += 1,
                Submission::Shed(_) => shed += 1,
                Submission::Unroutable => {}
            }
        }
        let outcome = cluster.tick_serial(now);
        for (server, tick) in &outcome.shard_ticks {
            retired += (tick.expired.len() + tick.shed.len()) as u64;
            for &(worker, task) in &tick.assignments {
                // Sub-tick completion latency keyed to the worker, so
                // the estimators see a spread and keep their fits warm.
                let exec = 0.1 + 0.1 * (worker.0 % 7) as f64;
                if cluster
                    .complete_task(*server, task, worker, now + exec, true)
                    .is_ok()
                {
                    completed += 1;
                }
            }
        }
    }
    let secs = t0.elapsed().as_secs_f64();

    let open_end: usize = cluster
        .server_ids()
        .iter()
        .map(|&id| {
            cluster
                .server(id)
                .expect("shard exists")
                .tasks()
                .open_count()
        })
        .sum();
    let admission_shed: u64 = cluster.admission_shed().iter().sum();
    ScalingPoint {
        workers: pool,
        shards: cluster.shard_count(),
        rows,
        cols,
        tasks_per_tick,
        ticks_per_sec: ticks as f64 / secs.max(1e-9),
        completed,
        handoffs: cluster.handoffs_out().iter().sum(),
        rebalanced: cluster.workers_rebalanced(),
        admission_shed,
        conserved: submitted == completed + retired + open_end as u64 && shed == admission_shed,
    }
}

/// The shard-scaling sweep: every pool against every grid.
pub fn scaling(params: &ClusterParams) -> Vec<ScalingPoint> {
    let mut points = Vec::new();
    for &pool in &params.pools {
        for &(rows, cols) in &params.grids {
            points.push(measure(pool, rows, cols, params.ticks, params.seed));
        }
    }
    points
}

/// The identity checks, on the smoke-scenario scale.
pub fn fallback(seed: u64, quick: bool) -> FallbackPoint {
    let (n_workers, total_tasks) = if quick { (30, 90) } else { (60, 240) };
    let mut global = Scenario::smoke(MatcherPolicy::React { cycles: 200 }, seed);
    global.n_workers = n_workers;
    global.arrival_rate = 4.0;
    global.total_tasks = total_tasks;

    let coupled = ClusterScenario {
        global,
        rows: 2,
        cols: 2,
        policy: ClusterPolicy::coupled(),
    };
    let runner = ClusterRunner::new(coupled);
    let serial = runner.run_serial();
    let parallel = runner.run_parallel();
    FallbackPoint {
        coupled_conserved: serial.conserved(),
        serial_parallel_identical: serial.identical(&parallel),
    }
}

/// Runs both measurements.
pub fn run(params: &ClusterParams, quick: bool) -> ClusterBenchReport {
    ClusterBenchReport {
        scaling: scaling(params),
        fallback: fallback(params.seed, quick),
        quick,
    }
}

/// The canonical location of the benchmark artifact: the repository
/// root, next to `ROADMAP.md`.
pub fn default_json_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_cluster.json")
}

/// Serializes the report as the `BENCH_cluster.json` document
/// (hand-rolled JSON; the workspace carries no serializer dependency).
pub fn to_json(report: &ClusterBenchReport) -> String {
    to_json_with(report, None)
}

/// [`to_json`] with an optional embedded provenance stamp.
pub fn to_json_with(report: &ClusterBenchReport, provenance: Option<&Provenance>) -> String {
    let scaling: Vec<String> = report
        .scaling
        .iter()
        .map(|p| {
            format!(
                "    {{\"workers\": {}, \"shards\": {}, \"grid\": \"{}x{}\", \
                 \"tasks_per_tick\": {}, \"ticks_per_sec\": {:.1}, \
                 \"completed\": {}, \"handoffs\": {}, \"rebalanced\": {}, \
                 \"admission_shed\": {}, \"conserved\": {}}}",
                p.workers,
                p.shards,
                p.rows,
                p.cols,
                p.tasks_per_tick,
                p.ticks_per_sec,
                p.completed,
                p.handoffs,
                p.rebalanced,
                p.admission_shed,
                p.conserved
            )
        })
        .collect();
    let stamp = provenance.map_or(String::new(), |p| {
        format!("  \"provenance\": {},\n", p.to_json())
    });
    format!(
        "{{\n  \"schema\": \"react-cluster-v1\",\n{}  \"quick\": {},\n  \
         \"threads\": {},\n  \"scaling\": [\n{}\n  ],\n  \
         \"fallback\": {{\"coupled_conserved\": {}, \
         \"serial_parallel_identical\": {}, \
         \"speedup_8_over_1\": {:.3}}}\n}}\n",
        stamp,
        report.quick,
        react_core::par::parallelism(),
        scaling.join(",\n"),
        report.fallback.coupled_conserved,
        report.fallback.serial_parallel_identical,
        report.speedup_over_monolith(8).unwrap_or(0.0)
    )
}

/// Writes the JSON artifact, creating parent directories as needed.
pub fn write_json(report: &ClusterBenchReport, path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, to_json(report))
}

/// Writes the JSON artifact with an embedded provenance stamp, backing
/// up a differing prior artifact as `<stem>.prev.json` instead of
/// silently overwriting it.
pub fn write_json_stamped(
    report: &ClusterBenchReport,
    path: &Path,
    provenance: &Provenance,
) -> std::io::Result<ArtifactOutcome> {
    write_stamped(path, &to_json_with(report, Some(provenance)))
}

/// The shard-scaling points as shared KPI rows. Counter-backed columns
/// use the obs-catalog names.
pub fn kpi_rows(points: &[ScalingPoint]) -> Vec<KpiRow> {
    points
        .iter()
        .map(|p| {
            KpiRow::new()
                .int("workers", p.workers as i64)
                .int("shards", p.shards as i64)
                .label("grid", format!("{}x{}", p.rows, p.cols))
                .int("tasks_per_tick", p.tasks_per_tick as i64)
                .float("kpi.ticks_per_sec", p.ticks_per_sec)
                .int("tasks.completed", p.completed as i64)
                .int("shard.handoffs", p.handoffs as i64)
                .int("shard.workers_rebalanced", p.rebalanced as i64)
                .int("shard.admission_shed", p.admission_shed as i64)
                .flag("conserved", p.conserved)
        })
        .collect()
}

/// The identity checks as shared KPI rows (one per check).
pub fn fallback_kpi_rows(fallback: &FallbackPoint) -> Vec<KpiRow> {
    [
        ("coupled_conserved", fallback.coupled_conserved),
        (
            "serial_parallel_identical",
            fallback.serial_parallel_identical,
        ),
    ]
    .into_iter()
    .map(|(name, holds)| KpiRow::new().label("check", name).flag("holds", holds))
    .collect()
}

/// Renders the tables and archives the CSVs.
pub fn render(report: &ClusterBenchReport, sink: &OutputSink) -> String {
    let scaling_kpi = KpiReport::from_rows(kpi_rows(&report.scaling));
    sink.write("cluster_scaling", &scaling_kpi.to_csv_rows(None));
    let scaling_table = scaling_kpi.table(
        "Cluster — ticks/sec by shard count (serial shard execution)",
        None,
    );

    let fallback_kpi = KpiReport::from_rows(fallback_kpi_rows(&report.fallback));
    sink.write("cluster_fallback", &fallback_kpi.to_csv_rows(None));
    let fallback_table =
        fallback_kpi.table("Cluster — conservation and determinism identities", None);

    let speedup = report
        .speedup_over_monolith(8)
        .map_or("n/a".to_string(), |s| format!("{s:.2}x"));
    format!(
        "{}\n{}\n# 8-shard speedup over monolith at largest pool: {}",
        scaling_table.render(),
        fallback_table.render(),
        speedup
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ClusterParams {
        ClusterParams {
            pools: vec![40, 80],
            grids: vec![(1, 1), (2, 2)],
            ticks: 10,
            seed: 42,
        }
    }

    #[test]
    fn scaling_points_conserve_and_progress() {
        for p in scaling(&tiny()) {
            assert!(p.conserved, "{}w/{}s not conserved", p.workers, p.shards);
            assert!(p.ticks_per_sec > 0.0);
            assert!(
                p.completed > 0,
                "{}w/{}s completed nothing",
                p.workers,
                p.shards
            );
        }
    }

    #[test]
    fn fallback_identities_hold() {
        let f = fallback(42, true);
        assert!(f.coupled_conserved, "coupled run must conserve");
        assert!(f.serial_parallel_identical, "shard exec paths must agree");
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let report = run(&tiny(), true);
        let json = to_json(&report);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        for key in [
            "\"schema\"",
            "\"scaling\"",
            "\"fallback\"",
            "\"speedup_8_over_1\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        assert_eq!(json.matches("\"workers\"").count(), 4, "2 pools × 2 grids");
        let dir = std::env::temp_dir().join("react_cluster_bench_test");
        let path = dir.join("BENCH_cluster.json");
        write_json(&report, &path).unwrap();
        assert!(path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn render_archives_csvs() {
        let report = run(&tiny(), true);
        let dir = std::env::temp_dir().join("react_cluster_bench_render_test");
        let text = render(&report, &OutputSink::to_dir(&dir));
        assert!(text.contains("Cluster"));
        assert!(text.contains("fallback") || text.contains("identities"));
        for csv in ["cluster_scaling", "cluster_fallback"] {
            assert!(dir.join(format!("{csv}.csv")).exists(), "{csv} missing");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
