//! Allocation guard for the scheduling hot path: what a tick allocates
//! must not grow with the pool or the graph, and a warm control step
//! allocates nothing at all. The repo benchmark's `allocs_per_task` sees
//! this only when someone runs it; this file makes `cargo test` see it.
//!
//! * a warm [`BatchScratch::build`] after which nothing changed allocates
//!   nothing — the row table, the edge arena and every column are reused;
//! * a build after one worker changed allocates what refitting that one
//!   worker's latency model allocates;
//! * [`ReactMatcher::assign`] allocates a number of blocks that does not
//!   depend on `|E|`, and bytes in `O(|U| + |V|)`;
//! * a warm [`MatcherEngine`] under the adaptive policy allocates nothing
//!   while `|E|`, hence its cycle budget, moves from batch to batch;
//! * a whole [`ScenarioRunner::run`] and a whole churned
//!   [`ClusterRunner::run`] allocate a bounded number of blocks per extra
//!   task — what is left is the drivers' per-task bookkeeping, not ticks
//!   — and two identical runs allocate exactly alike;
//! * the per-task id maps (the task registry's index, the crowd's attempt
//!   counts) allocate alike on every replay even where the hash decides
//!   when a table grows, i.e. they are hashed with a fixed key;
//! * the ingest door parses a keep-alive stream into one connection's
//!   buffers and renders its answers through them without allocating.
//!
//! The counts are per thread, so tests running beside these do not
//! disturb them. With the `debug-invariants` features on, every build
//! and every matcher call also runs its (allocating) reference checks, so
//! the counts are only asserted without them.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use react::cluster::{ClusterPolicy, ClusterRunner, ClusterScenario, HandoffPolicy};
use react::core::{
    BatchScratch, Config, LatencyModelKind, MatcherPolicy, ProfilingComponent, Task, TaskCategory,
    TaskId, TaskManagementComponent, TickOutcome, WorkerId,
};
use react::crowd::{Crowd, Scenario, ScenarioRunner, TaskGenerator, WorkerBehavior};
use react::faults::{DropoutPlan, FaultPlan};
use react::geo::GeoPoint;
use react::matching::{BipartiteGraph, Matcher, MatcherEngine, ReactMatcher, TaskIdx, WorkerIdx};
use react::prob::distributions::UniformRange;
use react::sim::RngStreams;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `(blocks, bytes)` this thread has asked the allocator for.
    static ASKED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// The system allocator, counting per thread every `alloc`,
/// `alloc_zeroed` and `realloc` call and the bytes it asked for.
struct CountingAlloc;

fn count(bytes: usize) {
    // A thread being torn down has no counter left; nothing measures it.
    let _ = ASKED.try_with(|asked| {
        let (blocks, total) = asked.get();
        asked.set((blocks + 1, total + bytes as u64));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a `Cell` in
// const-initialised thread-local storage with no destructor, so reading
// it neither allocates nor touches allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` through this wrapper and the
        // caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the `(blocks, bytes)` it
/// allocated on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let before = ASKED.with(Cell::get);
    let result = f();
    let after = ASKED.with(Cell::get);
    (result, (after.0 - before.0, after.1 - before.1))
}

/// The reference checks of `debug-invariants` allocate on every call —
/// whether this package's feature switched them on or the crates' own.
const COUNTS_HOLD: bool = !react::matching::invariants::ARMED;

fn here() -> GeoPoint {
    GeoPoint::new(37.98, 23.72)
}

/// 300 workers — two thirds with a fitted latency model, some busy or
/// offline — and a queue of 12 tasks
/// over `categories` categories whose deadlines straddle the models.
fn components(categories: u32) -> (ProfilingComponent, TaskManagementComponent) {
    let mut p = ProfilingComponent::default();
    for w in 0..300u64 {
        let id = WorkerId(w);
        p.register(id, here()).unwrap();
        if w % 3 != 0 {
            for k in 0..4 {
                p.record_assignment(id).unwrap();
                let exec = 2.0 + (w % 40) as f64 + 1.5 * k as f64;
                p.record_completion(id, TaskCategory(k % 2), exec, k != 1)
                    .unwrap();
            }
        }
        if w % 11 == 0 {
            p.record_assignment(id).unwrap();
        }
    }
    let mut tm = TaskManagementComponent::new();
    for t in 0..12u64 {
        let (deadline, reward) = (8.0 + 9.0 * t as f64, 0.03 * (1 + t % 3) as f64);
        let category = TaskCategory(t as u32 % categories);
        let task = Task::new(TaskId(t), here(), deadline, reward, category, "alloc");
        tm.submit(task, 0.0).unwrap();
    }
    (p, tm)
}

fn config(kind: LatencyModelKind) -> Config {
    let mut config = Config::with_matcher(MatcherPolicy::React { cycles: 1000 });
    config.latency_model = kind;
    config
}

const KINDS: [LatencyModelKind; 3] = [
    LatencyModelKind::PowerLaw,
    LatencyModelKind::Empirical,
    LatencyModelKind::Auto { ks_threshold: 0.3 },
];

#[test]
fn a_warm_build_after_which_nothing_changed_allocates_nothing() {
    for kind in KINDS {
        // One category: rows remember their weight. Two: every row looks
        // its profile up. Neither may allocate.
        for categories in [1, 2] {
            let config = config(kind);
            let (mut p, tm) = components(categories);
            let mut scratch = BatchScratch::new();
            let edges = scratch.build(&config, &mut p, &tm, 0.0).graph.n_edges();
            assert!(edges > 1_000, "{kind:?}: the graph must be worth building");
            for now in [0.0, 0.5, 3.0] {
                let (built, (blocks, _)) = counted(|| {
                    let built = scratch.build(&config, &mut p, &tm, now);
                    (built.stats, built.graph.n_edges())
                });
                assert_eq!(built.0.rows_reused, built.0.rows_total);
                assert!(built.1 > 1_000);
                if COUNTS_HOLD {
                    assert_eq!(blocks, 0, "{kind:?}, {categories} categories, now={now}");
                }
            }
        }
    }
}

#[test]
fn a_build_after_one_worker_changed_allocates_one_refit() {
    for kind in KINDS {
        let config = config(kind);
        // Two components with one history: one measures the refit alone,
        // the other the build that contains it.
        let (mut alone, _) = components(1);
        let (mut p, tm) = components(1);
        let mut scratch = BatchScratch::new();
        scratch.build(&config, &mut p, &tm, 0.0);
        // The same first fit on the other side, so both estimators hold
        // the same lazily grown buffers.
        BatchScratch::new().build(&config, &mut alone, &tm, 0.0);
        for (round, w) in [(0u64, 17u64), (1, 100), (2, 17), (3, 250)] {
            let id = WorkerId(w);
            for component in [&mut alone, &mut p] {
                component
                    .record_completion(id, TaskCategory(0), 30.0 + round as f64, true)
                    .unwrap();
            }
            let (model, refit) = counted(|| alone.profile_mut(id).unwrap().deadline_dist(kind));
            assert!(model.is_some(), "worker {w} carries a model");
            let (stats, build) = counted(|| scratch.build(&config, &mut p, &tm, 0.0).stats);
            assert_eq!(stats.rows_reused, stats.rows_total - 1);
            // The first change also sizes the scratch's list of changed
            // workers, once.
            if COUNTS_HOLD && round > 0 {
                assert_eq!(build, refit, "{kind:?}: worker {w}, (blocks, bytes)");
            }
        }
    }
}

/// `|U| × |V|` with every `stride`-th pair an edge.
fn graph(n_workers: u32, n_tasks: u32, stride: u32) -> BipartiteGraph {
    let mut g = BipartiteGraph::new(n_workers as usize, n_tasks as usize);
    for u in 0..n_workers {
        for v in (0..n_tasks).filter(|v| (u * n_tasks + v).is_multiple_of(stride)) {
            let weight = f64::from((u * 7 + v * 3) % 10) / 10.0;
            g.add_edge_unchecked(WorkerIdx(u), TaskIdx(v), weight)
                .unwrap();
        }
    }
    g
}

#[test]
fn the_matcher_allocates_by_vertices_not_by_edges() {
    let (n_workers, n_tasks) = (2_000u32, 12u32);
    let matcher = ReactMatcher::with_cycles(1_000);
    let mut asked = Vec::new();
    for stride in [1, 4, 32] {
        let g = graph(n_workers, n_tasks, stride);
        let mut rng = SmallRng::seed_from_u64(u64::from(stride));
        let (matching, (blocks, bytes)) = counted(|| matcher.assign(&g, &mut rng));
        assert!(!matching.pairs.is_empty());
        let per_vertex = bytes as f64 / f64::from(n_workers + n_tasks);
        assert!(
            !COUNTS_HOLD || per_vertex <= 16.0,
            "|E|={}: {bytes} bytes is {per_vertex:.1} per vertex",
            g.n_edges()
        );
        asked.push((g.n_edges(), blocks));
    }
    assert!(asked[0].0 >= 32 * asked[2].0 - 32, "{asked:?}");
    if COUNTS_HOLD {
        assert!(
            asked.iter().all(|&(_, blocks)| blocks == asked[0].1),
            "{asked:?}"
        );
    }
}

#[test]
fn a_warm_adaptive_engine_allocates_nothing_as_the_edge_count_moves() {
    // Same vertices, ever fewer edges: the `⌈κ·|E|⌉` budget moves on
    // every graph.
    let graphs: Vec<BipartiteGraph> = [1, 2, 3, 5, 8].map(|stride| graph(400, 12, stride)).into();
    let mut engine = MatcherEngine::new(MatcherPolicy::ReactAdaptive { kappa: 0.5 });
    let mut rng = SmallRng::seed_from_u64(3);
    for g in &graphs {
        engine.assign(g, &mut rng);
    }
    let rebuilds = engine.rebuilds();
    let (pairs, (blocks, _)) = counted(|| {
        let mut pairs = 0;
        for g in graphs.iter().chain(graphs.iter().rev()) {
            pairs += engine.assign(g, &mut rng).pairs.len();
        }
        pairs
    });
    assert!(pairs > 0);
    assert!(engine.rebuilds() > rebuilds, "the budget must move");
    if COUNTS_HOLD {
        assert_eq!(blocks, 0, "a warm engine allocated");
    }
}

/// `n` arrivals of the scenario's process, from a fixed stream: a shorter
/// trace is a prefix of a longer one.
fn trace(sc: &Scenario, n: usize) -> Vec<(f64, Task)> {
    let mut rng = RngStreams::new(7).stream("hotpath.trace");
    TaskGenerator::new(sc.arrival_rate, sc.region)
        .with_deadline_range(sc.deadline_range.0, sc.deadline_range.1)
        .with_categories(sc.n_categories)
        .take_n(n, &mut rng)
}

/// Blocks a whole run allocates per task beyond the first `short` ones:
/// `(blocks(long) − blocks(short)) / (long − short)`, so what a run
/// allocates once (its server, crowd, scratch and queues) cancels out.
fn blocks_per_extra_task(short: usize, long: usize, run: impl Fn(usize)) -> f64 {
    let (_, (few, _)) = counted(|| run(short));
    let (_, (many, _)) = counted(|| run(long));
    (many as f64 - few as f64) / (long - short) as f64
}

/// The `des-tightpool` shape: 300 busy workers, 8 tasks/s.
fn tightpool() -> Scenario {
    let mut sc = Scenario::paper_fig9(300, 8.0, MatcherPolicy::React { cycles: 1000 }, 2013);
    sc.config.charge_matching_time = false;
    sc
}

/// A `ScenarioRunner::run` of the first `n` tasks of one trace under
/// [`tightpool`].
fn scenario_run(full: &[(f64, Task)], n: usize) {
    let mut sc = tightpool();
    sc.total_tasks = n;
    sc.workload = Some(full[..n].to_vec());
    let report = ScenarioRunner::new(sc).run();
    assert_eq!(report.received, n as u64);
    assert!(report.met_deadline > n as u64 / 2);
}

/// The churned cluster's global scenario: nine workers in ten drop out
/// and come back, over both runs' span, so shards keep falling below the
/// handoff floor.
fn churned_global() -> Scenario {
    let mut global =
        Scenario::paper_fig9(480, 10.0, MatcherPolicy::ReactAdaptive { kappa: 0.5 }, 2013);
    global.config.charge_matching_time = false;
    global.faults = Some(FaultPlan {
        dropout: Some(DropoutPlan {
            probability: 0.9,
            window: (0.0, 400.0),
            offline_range: Some((300.0, 700.0)),
        }),
        bursts: None,
        ..FaultPlan::chaos(0.5)
    });
    global
}

/// A `ClusterRunner::run` of the first `n` tasks of one trace over 2×4
/// shards with handoff, under [`churned_global`].
fn cluster_run(full: &[(f64, Task)], n: usize) {
    let mut global = churned_global();
    global.total_tasks = n;
    global.workload = Some(full[..n].to_vec());
    let scenario = ClusterScenario {
        global,
        rows: 2,
        cols: 4,
        policy: ClusterPolicy {
            handoff: Some(HandoffPolicy {
                pool_floor: 50,
                max_per_tick: 8,
            }),
            ..ClusterPolicy::coupled()
        },
    };
    let report = ClusterRunner::new(scenario).run();
    assert!(report.conserved());
    assert!(report.handoffs() > 0, "the passes must run");
}

// Budgets: what a whole run measures (≈ 0.15 / 0.12 blocks per extra
// task, release and debug alike) plus ≈ 0.1 block, less than per-task
// `BTreeMap` nodes for the registry, the in-flight index and the replica
// tally cost (≈ 0.5 / 0.25), so their coming back fails them.

#[test]
fn a_whole_scenario_run_allocates_little_per_extra_task() {
    let full = trace(&tightpool(), 4_000);
    let per_task = blocks_per_extra_task(2_000, 4_000, |n| scenario_run(&full, n));
    assert!(
        !COUNTS_HOLD || per_task <= 0.25,
        "{per_task:.3} blocks per extra task"
    );
}

#[test]
fn a_whole_churned_cluster_run_allocates_little_per_extra_task() {
    let full = trace(&churned_global(), 4_000);
    let per_task = blocks_per_extra_task(2_000, 4_000, |n| cluster_run(&full, n));
    assert!(
        !COUNTS_HOLD || per_task <= 0.2,
        "{per_task:.3} blocks per extra task"
    );
}

/// A replay of a run allocates exactly what the run did, block for block
/// and byte for byte. A whole run seldom holds a table where its hash
/// key decides when it grows; [`replays_of_a_churned_id_map_allocate_alike`]
/// holds the per-task id maps there.
#[test]
fn two_identical_runs_allocate_identical_block_counts() {
    let full = trace(&tightpool(), 2_000);
    let (_, first) = counted(|| scenario_run(&full, 2_000));
    let (_, second) = counted(|| scenario_run(&full, 2_000));
    assert!(
        !COUNTS_HOLD || first == second,
        "scenario: {first:?} vs {second:?}"
    );
    let full = trace(&churned_global(), 2_000);
    let (_, first) = counted(|| cluster_run(&full, 2_000));
    let (_, second) = counted(|| cluster_run(&full, 2_000));
    assert!(
        !COUNTS_HOLD || first == second,
        "cluster: {first:?} vs {second:?}"
    );
}

/// The id maps under a run, each held where its key decides whether it
/// grows: filled to its load limit (112 ids, a full 128-bucket table),
/// drained to half, then 200 rounds of one id in and one out. Whether the
/// table grows again turns on how many tombstones the removals left,
/// which turns on the hashes — so under a per-process key
/// (`RandomState`) one replay in three to five differs from the others,
/// and 64 replays that all agree are no accident.
const CHURN: (u64, u64, u64) = (112, 56, 200);

fn churn_registry() {
    let (fill, half, rounds) = CHURN;
    let task = |id| Task::new(TaskId(id), here(), 60.0, 0.05, TaskCategory(0), "churn");
    let mut tm = TaskManagementComponent::new();
    for id in 0..fill {
        tm.submit(task(id), 0.0).unwrap();
    }
    for _ in half..fill {
        tm.take_oldest_unassigned().unwrap();
    }
    for id in fill..fill + rounds {
        tm.submit(task(id), 0.0).unwrap();
        tm.take_oldest_unassigned().unwrap();
    }
}

fn churn_crowd() {
    let (fill, half, rounds) = CHURN;
    let worker = WorkerBehavior::uniform(UniformRange::new(1.0, 2.0), 0.0, 0.0, 1.0);
    let mut crowd = Crowd::new(vec![worker; 4], None, &RngStreams::new(1));
    let mut outcome = TickOutcome::default();
    let mut step = |retire: Option<u64>, assign: Option<u64>| {
        outcome.expired.clear();
        outcome.expired.extend(retire.map(TaskId));
        outcome.assignments.clear();
        let assign = assign.map(|id| (WorkerId(id % 4), TaskId(id)));
        outcome.assignments.extend(assign);
        crowd.apply(&outcome, 0.0);
    };
    for id in 0..fill {
        step(None, Some(id));
    }
    for id in 0..fill - half {
        step(Some(id), None);
    }
    for k in 0..rounds {
        step(None, Some(fill + k));
        step(Some(fill - half + k), None);
    }
}

#[test]
fn replays_of_a_churned_id_map_allocate_alike() {
    for (what, episode) in [("registry", churn_registry as fn()), ("crowd", churn_crowd)] {
        let replays: Vec<(u64, u64)> = (0..64).map(|_| counted(episode).1).collect();
        assert!(
            replays.iter().all(|&replay| replay == replays[0]),
            "{what}: {replays:?}"
        );
    }
}

#[test]
fn a_keep_alive_connection_parses_and_answers_without_allocating() {
    use react::runtime::ingest::http::{parse_submit_body, read_request, Request, Response};
    use std::fmt::Write as _;
    use std::io::{BufReader, Write as _};

    let mut wire = Vec::new();
    for i in 0..50u32 {
        let body = format!(
            "{{\"deadline\":{}.5,\"reward\":0.0{},\"lat\":37.9,\"lon\":23.7}}",
            60 + i,
            1 + i % 9
        );
        write!(
            wire,
            "POST /tasks HTTP/1.1\r\nhost: door\r\ncontent-length: {}\r\n\r\n{body}\
             GET /tasks/{i} HTTP/1.1\r\nhost: door\r\n\r\n",
            body.len()
        )
        .unwrap();
    }
    let mut reader = BufReader::new(wire.as_slice());
    // One connection's buffers, sized as the door sizes them.
    let mut line = Vec::with_capacity(512);
    let mut request = Request {
        method: String::with_capacity(8),
        path: String::with_capacity(512),
        body: Vec::with_capacity(512),
        close: false,
    };
    let mut body = String::with_capacity(512);
    let mut out = Vec::with_capacity(512);

    let mut served = 0u32;
    let mut blocks_after_first = 0;
    loop {
        let (more, (blocks, _)) = counted(|| {
            if !read_request(&mut reader, &mut line, &mut request).unwrap() {
                return false;
            }
            body.clear();
            let response = if request.method == "POST" {
                let fields = parse_submit_body(&request.body).expect("well-formed body");
                assert!(fields.deadline.is_some());
                if served % 10 == 4 {
                    Response::json(429, "Too Many Requests", "{\"state\":\"shed\"}")
                        .with_retry_after(1)
                } else {
                    write!(body, "{{\"task\":{served},\"state\":\"queued\"}}").unwrap();
                    Response::json(202, "Accepted", body.as_str())
                }
            } else {
                let id: u64 = request.path["/tasks/".len()..].parse().unwrap();
                write!(body, "{{\"task\":{id},\"state\":\"completed\"").unwrap();
                write!(body, ",\"met_deadline\":{}}}", id.is_multiple_of(2)).unwrap();
                Response::json(200, "OK", body.as_str())
            };
            out.clear();
            response.write_to(&mut out).unwrap();
            true
        });
        if !more {
            break;
        }
        assert!(out.starts_with(b"HTTP/1.1 "));
        if served > 0 {
            blocks_after_first += blocks;
        }
        served += 1;
    }
    assert_eq!(served, 100);
    assert_eq!(blocks_after_first, 0, "allocations after the first request");
}
