//! Bounded state: what a run keeps does not grow with the run.
//!
//! * The task registry. Every driver runs `Lap::run`, which forgets the
//!   tasks retired before each grid tick, so a run ten times longer holds
//!   no more task records, at its peak or at its end, than the short one
//!   plus a slack, though it completes more tasks than the short one
//!   submits — for one server and for a one- and a four-shard `Cluster`.
//! * The estimator's running fit. `ExecTimeEstimator::model` keeps the
//!   smallest sample and the log-sum instead of refitting; after every
//!   `observe` its fit equals `PowerLaw::fit` over the retained samples,
//!   bit for bit, through new and repeated minima, samples ≤ ½ (where the
//!   paper's ½ offset switches off) and a sliding window.
//! * A pruned id is still refused: a late duplicate completion of a task
//!   the registry has forgotten is an error, as it was before the prune.
//! * What each record costs. A `Task` is 48 bytes, a trace entry
//!   `(f64, Task)` 56 and an audit event 32.
//! * The audit log never copies itself. It appends into fixed segments;
//!   at 0, 1, S−1, S, S+1 and 3S+7 events it agrees with a plain `Vec`
//!   on its events, length and per-task histories, its first event keeps
//!   its address through 3S more pushes (in a clone too), and a
//!   backwards timestamp whose two events straddle a segment boundary is
//!   still caught.
//!
//! `PROPTEST_CASES` widens the estimator property (CI: 1024 cases in
//! release).

mod common;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use react::cluster::{Cluster, ClusterPolicy};
use react::core::{
    verify_lifecycles, AuditLog, CompletionOutcome, Config, CoreError, ReactServer, Task,
    TaskCategory, TaskEvent, TaskEventKind, TaskId, TickOutcome, WorkerId,
};
use react::crowd::{
    generate_population, Arrivals, BehaviorParams, Crowd, Delivery, Dispatch, Lap, Ledger,
    Scenario, TaskGenerator, Trigger,
};
use react::geo::{GeoPoint, RegionGrid};
use react::obs::null_observer;
use react::prob::{EstimatorConfig, ExecTimeEstimator, FitMethod, PowerLaw};
use react::sim::RngStreams;

/// Tasks of the short run; the long one has ten times as many.
const BASE_TASKS: usize = 150;
const WORKERS: usize = 40;
/// Arrivals per crowd second.
const RATE: f64 = 1.0;
const TICK: f64 = 5.0;
const DRAIN: f64 = 300.0;
const SEED: u64 = 2013;
/// How many more records the long run may hold than the short one: the
/// tasks in flight or queued at one instant, and those retired since the
/// last grid tick, vary from instant to instant, not with the length.
const SLACK: usize = 40;

/// A ledger that counts completions and nothing else.
#[derive(Default)]
struct Completions(usize);

impl<S> Ledger<S> for Completions {
    fn ticked(&mut self, _: S, _: f64, _: &TickOutcome) {}
    fn completed(&mut self, _: S, _: &Delivery, _: &CompletionOutcome) {
        self.0 += 1;
    }
    fn duplicated(&mut self, _: bool) {}
    fn offline(&mut self, _: WorkerId, _: &[TaskId]) {}
    fn burst(&mut self, _: &Task) {}
}

/// How many task records a middleware holds.
trait Records {
    fn records(&self) -> usize;
}

impl Records for ReactServer {
    fn records(&self) -> usize {
        self.tasks().len()
    }
}

impl Records for Cluster {
    fn records(&self) -> usize {
        let servers = self.server_ids().into_iter();
        servers
            .map(|id| self.server(id).map_or(0, Records::records))
            .sum()
    }
}

/// The middleware, with the most records it held at any grid tick, read
/// as the tick comes and before the lap forgets anything.
struct Peak<D> {
    inner: D,
    peak: usize,
}

impl<D: Dispatch + Records> Dispatch for Peak<D> {
    type Shard = D::Shard;

    fn submit(&mut self, task: Task, now: f64) -> Option<D::Shard> {
        self.inner.submit(task, now)
    }

    fn control_step(
        &mut self,
        now: f64,
        trigger: Trigger<D::Shard>,
        each: impl FnMut(D::Shard, &TickOutcome),
    ) {
        self.inner.control_step(now, trigger, each);
    }

    fn complete(&mut self, done: &Delivery) -> Result<(D::Shard, CompletionOutcome), CoreError> {
        self.inner.complete(done)
    }

    fn worker_offline(&mut self, worker: WorkerId, now: f64) -> Vec<TaskId> {
        self.inner.worker_offline(worker, now)
    }

    fn worker_online(&mut self, worker: WorkerId) {
        self.inner.worker_online(worker);
    }

    fn open_tasks(&self) -> (usize, usize) {
        self.inner.open_tasks()
    }

    fn retire(&mut self, now: f64) {
        self.peak = self.peak.max(self.inner.records());
        self.inner.retire(now);
    }
}

fn config() -> Config {
    let mut config = Config::paper_defaults();
    // A trickle would otherwise wait for the eleventh queued task.
    config.batch.period = Some(TICK);
    config
}

/// `n` Poisson arrivals over the default region.
fn trace(n: usize) -> Vec<(f64, Task)> {
    let mut rng = SmallRng::seed_from_u64(SEED);
    TaskGenerator::new(RATE, Scenario::default_region())
        .with_deadline_range(60.0, 120.0)
        .take_n(n, &mut rng)
}

/// What a run kept: the most task records at a grid tick, the records at
/// the end, and the tasks completed.
type Kept = (usize, usize, usize);

/// What one server keeps over a run of `n` tasks.
fn server_run(n: usize) -> Kept {
    let region = Scenario::default_region();
    let lap = Lap::seeded(
        SEED,
        config(),
        WORKERS,
        &BehaviorParams::default(),
        region,
        None,
        null_observer(),
    );
    let server = Peak {
        inner: lap.server,
        peak: 0,
    };
    let mut lap = Lap::new(server, lap.crowd, region);
    let mut completions = Completions::default();
    lap.run(Arrivals::preset(trace(n)), TICK, DRAIN, &mut completions);
    (lap.server.peak, lap.server.inner.records(), completions.0)
}

/// What a `rows` × `cols` cluster keeps over a run of `n` tasks.
fn cluster_run(n: usize, rows: u32, cols: u32) -> Kept {
    let region = Scenario::default_region();
    let grid = RegionGrid::new(region, rows, cols).expect("non-zero grid");
    let streams = RngStreams::new(SEED);
    let mut pop_rng = streams.stream("population");
    let behaviors = generate_population(WORKERS, &BehaviorParams::default(), &mut pop_rng);
    let locations: Vec<GeoPoint> = (0..WORKERS)
        .map(|_| region.random_point(&mut pop_rng))
        .collect();
    let mut cluster = Cluster::new(
        &grid,
        config(),
        SEED,
        ClusterPolicy::single_tier(),
        null_observer(),
        streams.stream("cluster.rebalance"),
        &locations,
    )
    .expect("valid cluster");
    for (w, &at) in locations.iter().enumerate() {
        cluster.register_worker(WorkerId(w as u64), at);
    }
    let crowd = Crowd::new(behaviors, None, &streams);
    let server = Peak {
        inner: cluster,
        peak: 0,
    };
    let mut lap = Lap::new(server, crowd, region);
    let mut completions = Completions::default();
    lap.run(Arrivals::preset(trace(n)), TICK, DRAIN, &mut completions);
    (lap.server.peak, lap.server.inner.records(), completions.0)
}

/// The long run holds no more than the short one plus [`SLACK`], at its
/// peak and at its end, though it completed more tasks than the short one
/// had.
fn assert_bounded(name: &str, short: Kept, long: Kept) {
    assert!(long.2 > BASE_TASKS, "{name}: {} completions", long.2);
    assert!(
        long.0 <= short.0 + SLACK,
        "{name}: peak {} records over {} tasks vs {} over {BASE_TASKS}",
        long.0,
        10 * BASE_TASKS,
        short.0,
    );
    assert!(
        long.1 <= short.1 + SLACK,
        "{name}: {} records after {} tasks vs {} after {BASE_TASKS}",
        long.1,
        10 * BASE_TASKS,
        short.1,
    );
}

#[test]
fn one_server_holds_no_more_records_over_a_ten_times_longer_run() {
    assert_bounded(
        "server",
        server_run(BASE_TASKS),
        server_run(10 * BASE_TASKS),
    );
}

#[test]
fn clusters_hold_no_more_records_over_a_ten_times_longer_run() {
    for (rows, cols) in [(1, 1), (2, 2)] {
        let short = cluster_run(BASE_TASKS, rows, cols);
        let long = cluster_run(10 * BASE_TASKS, rows, cols);
        assert_bounded(&format!("{rows}x{cols} cluster"), short, long);
    }
}

/// A completion of a task the registry forgot is an error, as the same
/// late duplicate was before the prune: it cannot count twice.
#[test]
fn a_late_duplicate_of_a_pruned_task_is_rejected() {
    let mut config = Config::paper_defaults();
    config.batch.min_unassigned = 1;
    let mut server = ReactServer::builder(config).seed(1).build().expect("valid");
    let here = GeoPoint::new(37.98, 23.72);
    server.register_worker(WorkerId(1), here);
    let (task, worker) = (TaskId(7), WorkerId(1));
    server.submit_task(Task::new(task, here, 60.0, 0.05, TaskCategory(0), "t"), 0.0);
    assert_eq!(server.tick(0.0).assignments, vec![(worker, task)]);
    assert!(server.complete_task(task, worker, 10.0, true).is_ok());
    assert_eq!(
        server.complete_task(task, worker, 10.0, true).err(),
        Some(CoreError::NotAssigned { task, worker }),
        "a duplicate before the prune"
    );
    assert_eq!(server.prune_retired(20.0), 1);
    assert!(server.tasks().is_empty());
    assert_eq!(
        server.complete_task(task, worker, 30.0, true).err(),
        Some(CoreError::UnknownTask(task)),
        "a late duplicate after the prune"
    );
}

#[test]
fn per_task_records_are_as_small_as_what_a_run_reads() {
    assert_eq!(std::mem::size_of::<Task>(), 48);
    assert_eq!(std::mem::size_of::<(f64, Task)>(), 56);
    assert_eq!(std::mem::size_of::<TaskEvent>(), 32);
}

/// Events per audit-log segment (64 KiB of 32-byte events).
const SEGMENT: usize = 2048;

/// The `i`-th event of a synthetic log: thirteen tasks, every kind.
fn event(i: usize) -> TaskEvent {
    let worker = WorkerId(i as u64 % 5);
    let kind = match i % 6 {
        0 => TaskEventKind::Submitted,
        1 => TaskEventKind::Assigned { worker },
        2 => TaskEventKind::Recalled { worker },
        3 => TaskEventKind::Completed {
            worker,
            met_deadline: i.is_multiple_of(4),
        },
        4 => TaskEventKind::Expired,
        _ => TaskEventKind::HandedOff,
    };
    TaskEvent {
        at: i as f64 * 0.5,
        task: TaskId(i as u64 % 13),
        kind,
    }
}

fn push(log: &mut AuditLog, e: TaskEvent) {
    log.push(e.at, e.task, e.kind);
}

#[test]
fn the_audit_log_agrees_with_a_vec_across_segment_boundaries() {
    for n in [0, 1, SEGMENT - 1, SEGMENT, SEGMENT + 1, 3 * SEGMENT + 7] {
        let reference: Vec<TaskEvent> = (0..n).map(event).collect();
        let mut log = AuditLog::new();
        for &e in &reference {
            push(&mut log, e);
        }
        assert_eq!(log.events().count(), n, "{n} events");
        assert!(log.events().eq(reference.iter()), "{n} events");
        for task in (0..14).map(TaskId) {
            let history: Vec<TaskEvent> = reference
                .iter()
                .copied()
                .filter(|e| e.task == task)
                .collect();
            assert_eq!(log.task_history(task), history, "{n} events, {task}");
        }
        let mut copy = log.clone();
        assert_eq!(copy, log, "{n} events");
        push(&mut copy, event(n));
        assert_ne!(copy, log, "{n} events");
    }
}

#[test]
fn recorded_audit_events_never_move() {
    let mut log = AuditLog::new();
    push(&mut log, event(0));
    let first: *const TaskEvent = log.events().next().unwrap();
    for i in 1..=3 * SEGMENT {
        push(&mut log, event(i));
    }
    assert_eq!(log.events().next().unwrap() as *const TaskEvent, first);

    let mut copy = log.clone();
    let last: *const TaskEvent = copy.events().last().unwrap();
    for i in 0..3 * SEGMENT {
        push(&mut copy, event(i));
    }
    assert_eq!(
        copy.events().nth(3 * SEGMENT).unwrap() as *const TaskEvent,
        last
    );
}

/// Task 0 is submitted at the last slot of the first segment and
/// assigned, earlier, at the first slot of the second.
#[test]
#[should_panic(expected = "timestamps went backwards")]
fn a_backwards_timestamp_across_a_segment_boundary_is_caught() {
    let mut log = AuditLog::new();
    for i in 1..SEGMENT {
        log.push(i as f64, TaskId(i as u64), TaskEventKind::Submitted);
    }
    log.push(10.0, TaskId(0), TaskEventKind::Submitted);
    log.push(
        5.0,
        TaskId(0),
        TaskEventKind::Assigned {
            worker: WorkerId(1),
        },
    );
    assert_eq!(log.events().count(), SEGMENT + 1);
    verify_lifecycles(&log);
}

/// Execution times that make new minima, repeat old ones, fall to or
/// below ½, or are invalid and ignored.
fn exec_time() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.5f64..200.0,
        1.0f64..4.0,
        0.01f64..0.5,
        Just(0.5),
        Just(1.0),
        Just(2.0),
        Just(0.0),
        Just(-1.0),
        Just(f64::NAN),
    ]
}

fn bits(model: Option<PowerLaw>) -> Option<(u64, u64)> {
    model.map(|m| (m.alpha().to_bits(), m.k_min().to_bits()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(256)))]

    #[test]
    fn the_running_fit_is_the_refit_bit_for_bit(
        samples in proptest::collection::vec(exec_time(), 1..120),
        window in proptest::option::of(1usize..12),
    ) {
        let mut est = ExecTimeEstimator::new(EstimatorConfig { window });
        for s in samples {
            est.observe(s);
            let retained = est.samples();
            let k_min = retained.iter().copied().fold(f64::INFINITY, f64::min);
            let refit = if est.is_warm() {
                PowerLaw::fit(retained, k_min, FitMethod::Paper).ok()
            } else {
                None
            };
            prop_assert!(refit.is_some() || !est.is_warm(), "a warm estimator fits");
            prop_assert_eq!(bits(est.model()), bits(refit), "after observing {}", s);
        }
    }
}
