//! Scheduling hot-path micro-benchmarks (`BENCH_hotpath.json`).
//!
//! Three measurements, each swept over growing worker pools:
//!
//! 1. **Graph build** — ns/edge of the cold two-phase [`GraphBuilder`]
//!    (fresh buffers + exact Eq. (3) per edge) versus the warm
//!    [`BatchScratch`] (persistent arenas, epoch-cached phase-A rows,
//!    memoized deadline gates). Both paths must produce bit-identical
//!    graphs; the warm path is expected to be ≥ 2× faster at the
//!    largest pool.
//! 2. **Matcher** — local-search cycles/second of the REACT matcher
//!    over the built graph.
//! 3. **End-to-end ticks** — full `ReactServer::tick` throughput
//!    (submit → build → match → commit → complete) with the graph
//!    build pinned serial versus the parallel default.
//!
//! The `react-experiments hotpath` subcommand renders the tables and
//! archives the machine-readable summary as `BENCH_hotpath.json` at the
//! repository root.

// analyze: allow-file(no-wall-clock) — benchmark harness: wall-clock
// timing IS the measurement here, and react-bench has no react-runtime
// dependency to borrow a Stopwatch from.

use crate::report::OutputSink;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use react_core::{
    BatchScratch, BatchTrigger, Config, GraphBuilder, MatcherPolicy, ProfilingComponent,
    ReactServer, Task, TaskCategory, TaskId, TaskManagementComponent, WorkerId,
};
use react_geo::GeoPoint;
use react_matching::{CostModel, Matcher, ReactMatcher};
use react_metrics::{write_stamped, ArtifactOutcome, KpiReport, KpiRow, Provenance};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct HotpathParams {
    /// Worker-pool sizes to sweep (the ISSUE floor is three).
    pub pools: Vec<usize>,
    /// Unassigned tasks per graph build.
    pub tasks: usize,
    /// Graph builds timed per pool size (per path).
    pub build_iters: usize,
    /// Matcher runs timed per pool size.
    pub matcher_iters: usize,
    /// Server ticks driven per pool size (per path).
    pub ticks: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for HotpathParams {
    fn default() -> Self {
        HotpathParams {
            pools: vec![100, 300, 1000],
            tasks: 100,
            build_iters: 30,
            matcher_iters: 20,
            ticks: 400,
            seed: 42,
        }
    }
}

impl HotpathParams {
    /// Shortened sweep for tests/CI (still three pool sizes).
    pub fn quick() -> Self {
        HotpathParams {
            pools: vec![40, 120, 300],
            tasks: 40,
            build_iters: 12,
            matcher_iters: 6,
            ticks: 150,
            seed: 42,
        }
    }
}

/// One cold-vs-warm graph-build measurement.
#[derive(Debug, Clone)]
pub struct BuildPoint {
    /// Worker-pool size (graph rows).
    pub workers: usize,
    /// Unassigned tasks (graph columns).
    pub tasks: usize,
    /// Edges in the built graph.
    pub edges: usize,
    /// Nanoseconds per edge, cold [`GraphBuilder`] path.
    pub cold_ns_per_edge: f64,
    /// Nanoseconds per edge, warm [`BatchScratch`] path.
    pub warm_ns_per_edge: f64,
    /// Phase-A rows served from the epoch cache on the last warm build.
    pub rows_reused: usize,
    /// Eq. (3) decisions answered by the memoized gate per warm build.
    pub memo_hits: u64,
    /// Whether warm and cold graphs were bit-identical (must hold).
    pub identical: bool,
}

impl BuildPoint {
    /// Cold time over warm time.
    pub fn speedup(&self) -> f64 {
        if self.warm_ns_per_edge > 0.0 {
            self.cold_ns_per_edge / self.warm_ns_per_edge
        } else {
            1.0
        }
    }
}

/// One matcher-throughput measurement.
#[derive(Debug, Clone)]
pub struct MatcherPoint {
    /// Worker-pool size.
    pub workers: usize,
    /// Unassigned tasks.
    pub tasks: usize,
    /// Edges in the matched graph.
    pub edges: usize,
    /// Local-search cycles executed per wall second.
    pub cycles_per_sec: f64,
}

/// One end-to-end tick-throughput measurement.
#[derive(Debug, Clone)]
pub struct TickPoint {
    /// Worker-pool size.
    pub workers: usize,
    /// Ticks per wall second with the graph build pinned serial.
    pub serial_ticks_per_sec: f64,
    /// Ticks per wall second with the default (parallel-capable) build.
    pub parallel_ticks_per_sec: f64,
    /// Whether both paths assigned the same tasks (must hold).
    pub identical: bool,
}

/// The three sweeps of one hotpath run.
#[derive(Debug, Clone)]
pub struct HotpathReport {
    /// Cold-vs-warm graph-build points.
    pub builds: Vec<BuildPoint>,
    /// Matcher cycles/sec points.
    pub matchers: Vec<MatcherPoint>,
    /// End-to-end ticks/sec points.
    pub ticks: Vec<TickPoint>,
    /// Whether the quick parameter set produced this report.
    pub quick: bool,
}

fn here() -> GeoPoint {
    GeoPoint::new(37.98, 23.72)
}

/// The standard bench config: REACT matcher, paper weight function.
fn bench_config() -> Config {
    Config::with_matcher(MatcherPolicy::React { cycles: 200 })
}

/// A seasoned pool (every worker past training with a spread of
/// latencies, so phase A fits real models and Eq. (3) pruning runs) plus
/// a task queue with mixed deadlines.
fn seasoned_components(
    n_workers: usize,
    n_tasks: usize,
) -> (ProfilingComponent, TaskManagementComponent) {
    let mut profiling = ProfilingComponent::default();
    for w in 0..n_workers as u64 {
        profiling.register(WorkerId(w), here()).unwrap();
        let base = 1.0 + (w % 7) as f64 * 9.0;
        for s in 0..3u64 {
            profiling.record_assignment(WorkerId(w)).unwrap();
            profiling
                .record_completion(
                    WorkerId(w),
                    TaskCategory((w % 2) as u32),
                    base + s as f64,
                    true,
                )
                .unwrap();
        }
    }
    let mut tm = TaskManagementComponent::new();
    for t in 0..n_tasks as u64 {
        let deadline = 20.0 + (t % 5) as f64 * 30.0;
        tm.submit(
            Task::new(
                TaskId(t),
                here(),
                deadline,
                0.05,
                TaskCategory((t % 2) as u32),
                "bench",
            ),
            0.0,
        )
        .unwrap();
    }
    (profiling, tm)
}

/// Cold [`GraphBuilder`] vs warm [`BatchScratch`] build sweep. Both
/// paths run serial phase B so the comparison isolates buffer reuse and
/// memoization, not thread counts.
pub fn graph_build(params: &HotpathParams) -> Vec<BuildPoint> {
    let config = bench_config();
    params
        .pools
        .iter()
        .map(|&n_workers| {
            let (mut profiling, tm) = seasoned_components(n_workers, params.tasks);
            // Each iteration is timed individually and the minimum is
            // reported: the min is the run least disturbed by scheduler
            // noise, which is what a per-path comparison needs.
            // Cold path: fresh buffers + exact Eq. (3) every iteration.
            let mut cold_secs = f64::INFINITY;
            let mut cold = None;
            for _ in 0..params.build_iters {
                let t0 = Instant::now();
                let builder = GraphBuilder::prepare(&config, &mut profiling);
                cold = Some(builder.instantiate(&profiling, &tm, 0.0));
                cold_secs = cold_secs.min(t0.elapsed().as_secs_f64());
            }
            let (cold_graph, ..) = cold.expect("build_iters ≥ 1");

            // Warm path: one priming build, then steady-state rebuilds.
            let mut scratch = BatchScratch::new();
            scratch.set_threads(Some(1));
            scratch.build(&config, &mut profiling, &tm, 0.0);
            let mut warm_secs = f64::INFINITY;
            for _ in 0..params.build_iters {
                let t0 = Instant::now();
                scratch.build(&config, &mut profiling, &tm, 0.0);
                warm_secs = warm_secs.min(t0.elapsed().as_secs_f64());
            }
            let built = scratch.build(&config, &mut profiling, &tm, 0.0);

            let edges = built.graph.n_edges().max(1);
            BuildPoint {
                workers: n_workers,
                tasks: params.tasks,
                edges: built.graph.n_edges(),
                cold_ns_per_edge: cold_secs * 1e9 / edges as f64,
                warm_ns_per_edge: warm_secs * 1e9 / edges as f64,
                rows_reused: built.stats.rows_reused,
                memo_hits: built.stats.cdf_memo_hits,
                identical: built.graph.edges() == cold_graph.edges(),
            }
        })
        .collect()
}

/// REACT-matcher throughput over the built graphs.
pub fn matcher_throughput(params: &HotpathParams) -> Vec<MatcherPoint> {
    const CYCLES: usize = 1000;
    let config = bench_config();
    params
        .pools
        .iter()
        .map(|&n_workers| {
            let (mut profiling, tm) = seasoned_components(n_workers, params.tasks);
            let builder = GraphBuilder::prepare(&config, &mut profiling);
            let (graph, ..) = builder.instantiate(&profiling, &tm, 0.0);
            let matcher = ReactMatcher::with_cycles(CYCLES);
            let t0 = Instant::now();
            for i in 0..params.matcher_iters {
                let mut rng = SmallRng::seed_from_u64(params.seed ^ i as u64);
                let matching = matcher.assign(&graph, &mut rng);
                std::hint::black_box(matching.total_weight);
            }
            let secs = t0.elapsed().as_secs_f64();
            MatcherPoint {
                workers: n_workers,
                tasks: params.tasks,
                edges: graph.n_edges(),
                cycles_per_sec: (CYCLES * params.matcher_iters) as f64 / secs.max(1e-9),
            }
        })
        .collect()
}

/// Drives one server through the tick loop: every tick submits two
/// tasks, runs the control step, and immediately completes whatever got
/// assigned (with per-worker latencies, so profiles keep refitting).
/// Returns wall seconds and the assignment trace for identity checks.
fn drive_ticks(server: &mut ReactServer, n_workers: usize, ticks: usize) -> (f64, Vec<(u64, u64)>) {
    for w in 0..n_workers as u64 {
        server.register_worker(WorkerId(w), here());
    }
    let mut next_task = 0u64;
    let mut trace = Vec::new();
    let t0 = Instant::now();
    for step in 0..ticks {
        let now = step as f64;
        for _ in 0..2 {
            server.submit_task(
                Task::new(
                    TaskId(next_task),
                    here(),
                    20.0 + (next_task % 5) as f64 * 30.0,
                    0.05,
                    TaskCategory((next_task % 2) as u32),
                    "bench",
                ),
                now,
            );
            next_task += 1;
        }
        let outcome = server.tick(now);
        for &(worker, task) in &outcome.assignments {
            trace.push((worker.0, task.0));
            // Sub-tick completion latency keyed to the worker, so the
            // estimators see a spread and keep their fits warm.
            let exec = 0.1 + 0.1 * (worker.0 % 7) as f64;
            let _ = server.complete_task(task, worker, now + exec, true);
        }
    }
    (t0.elapsed().as_secs_f64(), trace)
}

/// End-to-end tick throughput, serial vs parallel graph build. The two
/// paths must assign identically (the build is bit-identical either
/// way and everything downstream is seeded).
pub fn tick_throughput(params: &HotpathParams) -> Vec<TickPoint> {
    let mut config = bench_config();
    // Eager trigger: every tick with queued tasks runs a batch.
    config.batch = BatchTrigger {
        min_unassigned: 1,
        period: None,
    };
    params
        .pools
        .iter()
        .map(|&n_workers| {
            let run = |threads: Option<usize>| {
                let mut server = ReactServer::builder(config.clone())
                    .seed(params.seed)
                    .cost_model(CostModel::free())
                    .build()
                    .expect("bench config is valid");
                server.set_build_parallelism(threads);
                drive_ticks(&mut server, n_workers, params.ticks)
            };
            let (serial_secs, serial_trace) = run(Some(1));
            let (parallel_secs, parallel_trace) = run(None);
            TickPoint {
                workers: n_workers,
                serial_ticks_per_sec: params.ticks as f64 / serial_secs.max(1e-9),
                parallel_ticks_per_sec: params.ticks as f64 / parallel_secs.max(1e-9),
                identical: serial_trace == parallel_trace,
            }
        })
        .collect()
}

/// Runs all three sweeps.
pub fn run(params: &HotpathParams, quick: bool) -> HotpathReport {
    HotpathReport {
        builds: graph_build(params),
        matchers: matcher_throughput(params),
        ticks: tick_throughput(params),
        quick,
    }
}

/// The canonical location of the benchmark artifact: the repository
/// root, next to `ROADMAP.md`.
pub fn default_json_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_hotpath.json")
}

/// Serializes the report as the `BENCH_hotpath.json` document
/// (hand-rolled JSON; the workspace carries no serializer dependency).
pub fn to_json(report: &HotpathReport) -> String {
    to_json_with(report, None)
}

/// [`to_json`] with an optional embedded provenance stamp.
pub fn to_json_with(report: &HotpathReport, provenance: Option<&Provenance>) -> String {
    let builds: Vec<String> = report
        .builds
        .iter()
        .map(|b| {
            format!(
                "    {{\"workers\": {}, \"tasks\": {}, \"edges\": {}, \
                 \"cold_ns_per_edge\": {:.2}, \"warm_ns_per_edge\": {:.2}, \
                 \"speedup\": {:.3}, \"rows_reused\": {}, \"memo_hits\": {}, \
                 \"identical\": {}}}",
                b.workers,
                b.tasks,
                b.edges,
                b.cold_ns_per_edge,
                b.warm_ns_per_edge,
                b.speedup(),
                b.rows_reused,
                b.memo_hits,
                b.identical
            )
        })
        .collect();
    let matchers: Vec<String> = report
        .matchers
        .iter()
        .map(|m| {
            format!(
                "    {{\"workers\": {}, \"tasks\": {}, \"edges\": {}, \
                 \"cycles_per_sec\": {:.0}}}",
                m.workers, m.tasks, m.edges, m.cycles_per_sec
            )
        })
        .collect();
    let ticks: Vec<String> = report
        .ticks
        .iter()
        .map(|t| {
            format!(
                "    {{\"workers\": {}, \"serial_ticks_per_sec\": {:.1}, \
                 \"parallel_ticks_per_sec\": {:.1}, \"identical\": {}}}",
                t.workers, t.serial_ticks_per_sec, t.parallel_ticks_per_sec, t.identical
            )
        })
        .collect();
    let stamp = provenance.map_or(String::new(), |p| {
        format!("  \"provenance\": {},\n", p.to_json())
    });
    format!(
        "{{\n  \"schema\": \"react-hotpath-v1\",\n{}  \"quick\": {},\n  \
         \"threads\": {},\n  \"graph_build\": [\n{}\n  ],\n  \
         \"matcher\": [\n{}\n  ],\n  \"ticks\": [\n{}\n  ]\n}}\n",
        stamp,
        report.quick,
        react_core::par::parallelism(),
        builds.join(",\n"),
        matchers.join(",\n"),
        ticks.join(",\n")
    )
}

/// Writes the JSON artifact, creating parent directories as needed.
pub fn write_json(report: &HotpathReport, path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, to_json(report))
}

/// Writes the JSON artifact with an embedded provenance stamp, backing
/// up a differing prior artifact as `<stem>.prev.json` instead of
/// silently overwriting it.
pub fn write_json_stamped(
    report: &HotpathReport,
    path: &Path,
    provenance: &Provenance,
) -> std::io::Result<ArtifactOutcome> {
    write_stamped(path, &to_json_with(report, Some(provenance)))
}

/// The cold-vs-warm graph-build points as shared KPI rows.
pub fn build_kpi_rows(builds: &[BuildPoint]) -> Vec<KpiRow> {
    builds
        .iter()
        .map(|b| {
            KpiRow::new()
                .int("workers", b.workers as i64)
                .int("tasks", b.tasks as i64)
                .int("edges", b.edges as i64)
                .float("cold_ns_per_edge", b.cold_ns_per_edge)
                .float("warm_ns_per_edge", b.warm_ns_per_edge)
                .float("speedup", b.speedup())
                .int("build.rows_reused", b.rows_reused as i64)
                .int("build.cdf_memo_hits", b.memo_hits as i64)
                .flag("identical", b.identical)
        })
        .collect()
}

/// The matcher-throughput points as shared KPI rows.
pub fn matcher_kpi_rows(matchers: &[MatcherPoint]) -> Vec<KpiRow> {
    matchers
        .iter()
        .map(|m| {
            KpiRow::new()
                .int("workers", m.workers as i64)
                .int("tasks", m.tasks as i64)
                .int("edges", m.edges as i64)
                .float("kpi.cycles_per_sec", m.cycles_per_sec)
        })
        .collect()
}

/// The tick-throughput points as shared KPI rows.
pub fn tick_kpi_rows(ticks: &[TickPoint]) -> Vec<KpiRow> {
    ticks
        .iter()
        .map(|t| {
            KpiRow::new()
                .int("workers", t.workers as i64)
                .float("kpi.serial_ticks_per_sec", t.serial_ticks_per_sec)
                .float("kpi.parallel_ticks_per_sec", t.parallel_ticks_per_sec)
                .flag("identical", t.identical)
        })
        .collect()
}

/// Renders the three tables and archives the CSVs.
pub fn render(report: &HotpathReport, sink: &OutputSink) -> String {
    let build_kpi = KpiReport::from_rows(build_kpi_rows(&report.builds));
    sink.write("hotpath_graph_build", &build_kpi.to_csv_rows(None));
    let build_table = build_kpi.table(
        "Graph build — cold GraphBuilder vs warm BatchScratch (serial)",
        None,
    );

    let matcher_kpi = KpiReport::from_rows(matcher_kpi_rows(&report.matchers));
    sink.write("hotpath_matcher", &matcher_kpi.to_csv_rows(None));
    let matcher_table = matcher_kpi.table("Matcher — REACT local-search throughput", None);

    let tick_kpi = KpiReport::from_rows(tick_kpi_rows(&report.ticks));
    sink.write("hotpath_ticks", &tick_kpi.to_csv_rows(None));
    let tick_table = tick_kpi.table(
        "End-to-end — ReactServer ticks/sec, serial vs parallel build",
        None,
    );

    format!(
        "{}\n{}\n{}",
        build_table.render(),
        matcher_table.render(),
        tick_table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HotpathParams {
        HotpathParams {
            pools: vec![10, 40],
            tasks: 12,
            build_iters: 2,
            matcher_iters: 2,
            ticks: 12,
            seed: 42,
        }
    }

    #[test]
    fn warm_build_is_identical_to_cold_build() {
        for b in graph_build(&tiny()) {
            assert!(b.identical, "{} workers diverged", b.workers);
            assert!(b.edges > 0, "seasoned pool must instantiate edges");
            assert_eq!(b.rows_reused, b.workers, "steady-state reuse");
            assert!(b.memo_hits > 0, "gates should answer edges");
            assert!(b.speedup().is_finite());
        }
    }

    #[test]
    fn tick_paths_assign_identically() {
        for t in tick_throughput(&tiny()) {
            assert!(t.identical, "{} workers diverged", t.workers);
            assert!(t.serial_ticks_per_sec > 0.0);
            assert!(t.parallel_ticks_per_sec > 0.0);
        }
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let report = run(&tiny(), true);
        let json = to_json(&report);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        for key in ["\"schema\"", "\"graph_build\"", "\"matcher\"", "\"ticks\""] {
            assert!(json.contains(key), "missing {key}");
        }
        assert_eq!(json.matches("\"workers\"").count(), 6, "2 pools × 3 series");
        let dir = std::env::temp_dir().join("react_hotpath_test");
        let path = dir.join("BENCH_hotpath.json");
        write_json(&report, &path).unwrap();
        assert!(path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn render_archives_csvs() {
        let report = run(&tiny(), true);
        let dir = std::env::temp_dir().join("react_hotpath_render_test");
        let text = render(&report, &OutputSink::to_dir(&dir));
        assert!(text.contains("Graph build"));
        assert!(text.contains("Matcher"));
        assert!(text.contains("End-to-end"));
        for csv in ["hotpath_graph_build", "hotpath_matcher", "hotpath_ticks"] {
            assert!(dir.join(format!("{csv}.csv")).exists(), "{csv} missing");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
