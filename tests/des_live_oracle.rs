//! One seeded trace, one schedule: the discrete-event runners and the
//! live scheduler agree, up to the end of the run.
//!
//! The same preset trace runs through `ScenarioRunner::run` and through
//! the live scheduler on a virtual clock (`IngestRuntime::replay`), with
//! the same seed, crowd, middleware configuration, tick interval and
//! drain window, fault-free and under `FaultPlan::chaos(0.5)`. Both are
//! `Lap::run`: what can still differ is how each takes its tasks in (an
//! `Arrivals` trace with replicas, the replay's preset) and what each
//! keeps of the run (its `Ledger`, its leftover count). Every task's audit
//! trail (each event's kind and instant), the tick count and the
//! completed, met, expired and stranded counts must be equal, and no
//! single-server log may hold a `HandedOff`, which only a cluster records.
//!
//! Each run ends one of three ways. With a 10 000 s window and the 30 s
//! timeout ladder, both loops end with nothing open. With a 20 s window
//! and no ladder, the grid stops while abandoned and lost work is still
//! in flight: it is stranded, and what is still queued is left over as
//! expired. With a zero window, the grid stops at the last arrival.
//!
//! A one-shard `ClusterRunner` joins them where the seeds let it. The
//! cluster roots its RNG streams at `seed ^ 0xc1` and seeds shard `i`'s
//! server with a mix of the seed and `i`, where `Lap::seeded` roots them
//! at `seed` and seeds its server with `seed ^ 0x5eed`. A cluster run at
//! `seed ^ 0xc1` draws the runner's population, behaviour and faults; the
//! server seeds cannot agree without moving the cluster's figure CSVs,
//! so the cluster cases match with Greedy, whose matching draws nothing,
//! and without bursts, at which the cluster does not tick.
//!
//! Two hand-made cases pin what Poisson traces never show: a trace with
//! arrivals exactly on grid instants, where every loop books the crowd's
//! events first, then the grid tick, then the arrival; and a shuffled
//! trace, which every loop sorts stably before it runs.

mod common;

use proptest::prelude::*;
use react::cluster::{ClusterPolicy, ClusterReport, ClusterRunner, ClusterScenario};
use react::core::{
    AuditLog, BatchTrigger, Config, MatcherPolicy, RecoveryConfig, Task, TaskCategory,
    TaskEventKind, TaskId,
};
use react::crowd::{Arrivals, BehaviorParams, RunReport, Scenario, ScenarioRunner, TaskGenerator};
use react::faults::FaultPlan;
use react::obs::{ObserverHandle, RecordingObserver, SpanKind};
use react::runtime::{IngestConfig, IngestReport, IngestRuntime};
use react::sim::RngStreams;
use std::collections::BTreeMap;
use std::sync::Arc;

const N_TASKS: usize = 300;
const N_WORKERS: usize = 50;
const ARRIVAL_RATE: f64 = 2.5;
const TICK_INTERVAL: f64 = 1.0;
/// Both loops' drain window after the last arrival, crowd seconds.
const DRAIN: f64 = 10_000.0;

/// How both loops end a run.
#[derive(Debug, Clone, Copy)]
enum Ending {
    /// A `DRAIN` window with the timeout ladder: nothing is left open.
    Long,
    /// A window of this many seconds and no timeout ladder: abandoned
    /// and lost work is stranded, queued work left over as expired.
    Short(f64),
}

impl Ending {
    fn drain(self) -> f64 {
        match self {
            Ending::Long => DRAIN,
            Ending::Short(drain) => drain,
        }
    }

    /// The oracle's middleware, without the ladder on a short ending.
    fn middleware(self) -> Config {
        let mut config = middleware();
        if let Ending::Short(_) = self {
            config.recovery = RecoveryConfig::default();
        }
        config
    }
}

const SHORT: Ending = Ending::Short(20.0);
const ZERO: Ending = Ending::Short(0.0);
const ENDINGS: [Ending; 3] = [Ending::Long, SHORT, ZERO];

/// `N_TASKS` Poisson arrivals with 60–120 s deadlines and one category
/// (the door's), drawn from `seed`.
fn trace(seed: u64) -> Vec<(f64, Task)> {
    let mut rng = RngStreams::new(seed).stream("oracle-trace");
    let mut generator = TaskGenerator::new(ARRIVAL_RATE, Scenario::default_region())
        .with_deadline_range(60.0, 120.0)
        .with_categories(1);
    (0..N_TASKS).map(|_| generator.next(&mut rng)).collect()
}

/// Batches at more than ten waiting tasks or every 5 s, matching time
/// not charged, the audit log on. The 30 s timeout ladder recalls
/// abandoned work, so with a `DRAIN` window both loops end with nothing
/// open; [`Ending::Short`] turns it off.
fn middleware() -> Config {
    let mut config = Config::with_matcher(MatcherPolicy::React { cycles: 200 });
    config.charge_matching_time = false;
    config.batch.period = Some(5.0);
    config.audit = true;
    config.recovery = RecoveryConfig::aggressive(30.0);
    config
}

/// What both loops must agree on.
#[derive(Debug, PartialEq)]
struct Schedule {
    ticks: u64,
    completed: u64,
    met_deadline: u64,
    expired: u64,
    stranded: u64,
}

fn ticks(recorder: &RecordingObserver) -> u64 {
    recorder.span_stats(SpanKind::Tick).map_or(0, |s| s.count)
}

/// The runner's scenario of `seed`: `trace` under `config`.
fn scenario(
    seed: u64,
    config: Config,
    trace: Vec<(f64, Task)>,
    faults: Option<FaultPlan>,
) -> Scenario {
    Scenario {
        label: "oracle".to_string(),
        n_workers: N_WORKERS,
        config,
        n_categories: 1,
        tick_interval: TICK_INTERVAL,
        drain_horizon: DRAIN,
        workload: Some(trace),
        faults,
        ..Scenario::smoke(MatcherPolicy::Greedy, seed)
    }
}

fn run_des(scenario: Scenario) -> (RunReport, Schedule) {
    let recorder = RecordingObserver::new();
    let report = ScenarioRunner::new(scenario)
        .with_observer(Arc::new(recorder.clone()) as ObserverHandle)
        .run();
    let schedule = Schedule {
        ticks: ticks(&recorder),
        completed: report.completed,
        met_deadline: report.met_deadline,
        expired: report.expired_unassigned,
        stranded: report.faults.stranded,
    };
    (report, schedule)
}

fn des(seed: u64, faults: Option<FaultPlan>, ending: Ending) -> (RunReport, Schedule) {
    let mut scenario = scenario(seed, ending.middleware(), trace(seed), faults);
    scenario.drain_horizon = ending.drain();
    run_des(scenario)
}

fn live_config(seed: u64, config: Config, faults: Option<FaultPlan>) -> IngestConfig {
    IngestConfig {
        n_workers: N_WORKERS,
        config,
        tick_interval: TICK_INTERVAL,
        seed,
        faults,
        drain_grace: DRAIN,
        ..IngestConfig::default()
    }
}

fn run_live(config: IngestConfig, trace: Vec<(f64, Task)>) -> (IngestReport, Schedule) {
    let recorder = RecordingObserver::new();
    let report = IngestRuntime::new(config)
        .with_observer(Arc::new(recorder.clone()) as ObserverHandle)
        .replay(trace);
    let schedule = Schedule {
        ticks: ticks(&recorder),
        completed: report.completed,
        met_deadline: report.met_deadline,
        expired: report.expired + report.shed_server,
        stranded: report.stranded,
    };
    (report, schedule)
}

fn live(seed: u64, faults: Option<FaultPlan>, ending: Ending) -> (IngestReport, Schedule) {
    let mut config = live_config(seed, ending.middleware(), faults);
    config.drain_grace = ending.drain();
    run_live(config, trace(seed))
}

/// `global` through a `ClusterRunner` over one shard with no coupling.
fn run_cluster(global: Scenario) -> (ClusterReport, Schedule) {
    let recorder = RecordingObserver::new();
    let scenario = ClusterScenario {
        global,
        rows: 1,
        cols: 1,
        policy: ClusterPolicy::single_tier(),
    };
    let report = ClusterRunner::new(scenario)
        .with_observer(Arc::new(recorder.clone()) as ObserverHandle)
        .run();
    let shard = &report.shards[0];
    let schedule = Schedule {
        ticks: ticks(&recorder),
        completed: shard.completed,
        met_deadline: shard.met_deadline,
        expired: shard.expired_unassigned,
        stranded: shard.stranded,
    };
    (report, schedule)
}

/// A cluster's audit log: its one shard's.
fn shard_log(report: &ClusterReport) -> &AuditLog {
    report.shards[0].audit.as_ref().expect("audit on")
}

/// Every task's trail: each event's kind and instant, in order.
fn trails(log: &AuditLog) -> BTreeMap<TaskId, Vec<(TaskEventKind, f64)>> {
    let mut trails: BTreeMap<_, Vec<_>> = BTreeMap::new();
    for e in log.events() {
        trails.entry(e.task).or_default().push((e.kind, e.at));
    }
    trails
}

/// The first task whose trail differs between the two logs, with both
/// trails, or `None` when every trail is equal.
#[allow(clippy::type_complexity)]
fn first_difference(
    des: &AuditLog,
    live: &AuditLog,
) -> Option<(
    TaskId,
    Option<Vec<(TaskEventKind, f64)>>,
    Option<Vec<(TaskEventKind, f64)>>,
)> {
    let (mut des, mut live) = (trails(des), trails(live));
    let tasks: Vec<TaskId> = des.keys().chain(live.keys()).copied().collect();
    tasks.into_iter().find_map(|task| {
        let (a, b) = (des.remove(&task), live.remove(&task));
        (a != b).then_some((task, a, b))
    })
}

/// Why two runs disagree — their first differing trail, or their
/// schedules — if they do.
fn differ(a: (&AuditLog, &Schedule), b: (&AuditLog, &Schedule)) -> Option<String> {
    if let Some((task, x, y)) = first_difference(a.0, b.0) {
        return Some(format!("{task}: {x:?}\nvs {y:?}"));
    }
    (a.1 != b.1).then(|| format!("{:?} != {:?}", a.1, b.1))
}

/// The first cross-shard handoff in a single server's log, if any.
fn handoff(log: &AuditLog) -> Option<String> {
    let e = log.events().find(|e| e.kind == TaskEventKind::HandedOff)?;
    Some(format!(
        "{} handed off at {} by a single server",
        e.task, e.at
    ))
}

/// Runs both loops on the trace of `seed`, ending as `ending` says, and
/// returns why they disagree, if they do.
fn disagreement(seed: u64, faults: Option<FaultPlan>, ending: Ending) -> Option<String> {
    let (des_report, des_schedule) = des(seed, faults, ending);
    let (live_report, live_schedule) = live(seed, faults, ending);
    let des_log = des_report.audit.as_ref().expect("audit on");
    let live_log = live_report.audit.as_ref().expect("audit on");
    let why = differ((des_log, &des_schedule), (live_log, &live_schedule))
        .map(|why| format!("runner vs live: {why}"));
    why.or_else(|| handoff(des_log).or_else(|| handoff(live_log)))
}

fn assert_agree(seed: u64, faults: Option<FaultPlan>, ending: Ending) {
    let chaos = faults.is_some();
    if let Some(why) = disagreement(seed, faults, ending) {
        panic!("seed {seed}, chaos {chaos}, {ending:?}: {why}");
    }
}

const SEEDS: [u64; 3] = [2013, 7919, 42];

#[test]
fn fault_free_trace_gives_one_schedule() {
    for seed in SEEDS {
        for ending in ENDINGS {
            assert_agree(seed, None, ending);
        }
    }
}

#[test]
fn chaos_trace_gives_one_schedule() {
    for seed in SEEDS {
        for ending in ENDINGS {
            assert_agree(seed, Some(FaultPlan::chaos(0.5)), ending);
        }
    }
}

/// The oracle is not vacuous: the chaos runs book every kind of fault,
/// the fault-free ones complete work after recalls, and the short
/// endings leave work stranded and queued.
#[test]
fn the_traces_exercise_every_booking() {
    let (report, schedule) = des(SEEDS[0], Some(FaultPlan::chaos(0.5)), Ending::Long);
    let f = report.faults;
    assert!(f.dropouts > 0 && f.burst_tasks > 0, "{f:?}");
    assert!(
        f.completions_lost > 0 && f.completions_duplicated > 0,
        "{f:?}"
    );
    assert!(report.reassignments > 0, "{report:?}");
    assert!(schedule.completed > 0 && schedule.ticks > 0, "{schedule:?}");
    let (report, _) = des(SEEDS[0], None, Ending::Long);
    assert!(report.reassignments > 0 && report.expired_unassigned > 0);
    let (_, long) = des(SEEDS[0], Some(FaultPlan::chaos(0.5)), Ending::Long);
    for ending in [SHORT, ZERO] {
        let (_, short) = des(SEEDS[0], Some(FaultPlan::chaos(0.5)), ending);
        assert!(short.stranded > 0, "{ending:?}: {short:?}");
        assert!(
            short.expired > long.expired,
            "{ending:?}: {short:?} vs {long:?}"
        );
        assert!(
            short.ticks < long.ticks,
            "{ending:?}: {short:?} vs {long:?}"
        );
    }
}

/// Greedy matching, otherwise the middleware of `ending`: the cluster
/// cases'.
fn greedy(ending: Ending) -> Config {
    Config {
        matcher: MatcherPolicy::Greedy,
        ..ending.middleware()
    }
}

/// `ClusterRunner` on one shard schedules the runner's trace as the
/// runner does, fault-free and under chaos without bursts, and ends it
/// as the runner does.
#[test]
fn a_one_shard_cluster_gives_the_runners_schedule() {
    let no_bursts = FaultPlan {
        bursts: None,
        ..FaultPlan::chaos(0.5)
    };
    for seed in SEEDS {
        for faults in [None, Some(no_bursts)] {
            for ending in ENDINGS {
                let mut des_scenario = scenario(seed, greedy(ending), trace(seed), faults);
                des_scenario.drain_horizon = ending.drain();
                let cluster_scenario = Scenario {
                    seed: seed ^ 0xc1,
                    ..des_scenario.clone()
                };
                let (des_report, des_schedule) = run_des(des_scenario);
                let (cluster_report, cluster_schedule) = run_cluster(cluster_scenario);
                let des_log = des_report.audit.as_ref().expect("audit on");
                let why = differ(
                    (des_log, &des_schedule),
                    (shard_log(&cluster_report), &cluster_schedule),
                );
                assert!(
                    why.is_none(),
                    "seed {seed}, {faults:?}, {ending:?}: {}",
                    why.unwrap_or_default()
                );
                assert!(des_schedule.completed > 0);
            }
        }
    }
}

/// Two workers that take exactly 3 s per task.
fn three_second_workers() -> BehaviorParams {
    BehaviorParams {
        service_bounds: (3.0, 3.0),
        delay_probability: 0.0,
        ..BehaviorParams::default()
    }
}

/// Greedy batches on every queued task; matching time not charged, the
/// audit log on.
fn eager() -> Config {
    let mut config = Config::with_matcher(MatcherPolicy::Greedy);
    config.charge_matching_time = false;
    config.batch = BatchTrigger {
        min_unassigned: 1,
        period: None,
    };
    config.audit = true;
    config
}

/// Logical tasks 0, 1, 2 at grid instants 1, 2 and 4 s.
fn grid_trace() -> Vec<(f64, Task)> {
    let here = Scenario::default_region().center();
    [1.0, 2.0, 4.0]
        .into_iter()
        .enumerate()
        .map(|(i, at)| {
            let task = Task::new(TaskId(i as u64), here, 100.0, 0.05, TaskCategory(0), "tie");
            (at, task)
        })
        .collect()
}

/// Where each of `kinds`' events of `tasks` at `at` stands in `log`.
fn positions(
    log: &AuditLog,
    at: f64,
    tasks: [u64; 2],
    kind: fn(&TaskEventKind) -> bool,
) -> Vec<usize> {
    let found: Vec<usize> = log
        .events()
        .enumerate()
        .filter(|(_, e)| e.at == at && tasks.contains(&e.task.0) && kind(&e.kind))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(found.len(), 2, "tasks {tasks:?} at {at}: {log:?}");
    found
}

/// At 4 s the crowd's completions of tasks 0 and 1, the grid tick's
/// assignment of tasks 2 and 3 (queued since 2 s), and the submission of
/// tasks 4 and 5 all fall on one instant, in that order.
fn assert_tie_order(loop_name: &str, log: &AuditLog) {
    let done = positions(log, 4.0, [0, 1], |k| {
        matches!(k, TaskEventKind::Completed { .. })
    });
    let ticked = positions(log, 4.0, [2, 3], |k| {
        matches!(k, TaskEventKind::Assigned { .. })
    });
    let arrived = positions(log, 4.0, [4, 5], |k| matches!(k, TaskEventKind::Submitted));
    let (done, ticked, arrived) = (done[1], (ticked[0], ticked[1]), arrived[0]);
    assert!(
        done < ticked.0 && ticked.1 < arrived,
        "{loop_name}: crowd event, tick, arrival out of order: {log:?}"
    );
}

/// Arrivals exactly on grid instants: every loop books the crowd's
/// events due by an instant, then the grid tick, then the arrival. The
/// runner expands each logical task into a `k = 2` replica group; the
/// live loop and the cluster get the expanded trace.
#[test]
fn ties_go_crowd_event_then_tick_then_arrival_in_every_loop() {
    const SEED: u64 = 5;
    let mut des_scenario = scenario(SEED, eager(), grid_trace(), None);
    des_scenario.n_workers = 2;
    des_scenario.behavior = three_second_workers();
    des_scenario.replication = 2;
    let expanded: Vec<_> = Arrivals::preset(grid_trace()).replicated(2).collect();
    let mut live = live_config(SEED, eager(), None);
    live.n_workers = 2;
    live.behavior = three_second_workers();
    let mut cluster_scenario = scenario(SEED ^ 0xc1, eager(), expanded.clone(), None);
    cluster_scenario.n_workers = 2;
    cluster_scenario.behavior = three_second_workers();

    let (des_report, des_schedule) = run_des(des_scenario);
    let (live_report, live_schedule) = run_live(live, expanded);
    let (cluster_report, cluster_schedule) = run_cluster(cluster_scenario);
    let des_log = des_report.audit.as_ref().expect("audit on");
    let live_log = live_report.audit.as_ref().expect("audit on");
    assert_tie_order("runner", des_log);
    assert_tie_order("live", live_log);
    assert_tie_order("cluster", shard_log(&cluster_report));
    assert_eq!(des_schedule.completed, 6, "{des_schedule:?}");
    let why = differ((des_log, &des_schedule), (live_log, &live_schedule));
    assert!(why.is_none(), "runner vs live: {}", why.unwrap_or_default());
    let why = differ(
        (des_log, &des_schedule),
        (shard_log(&cluster_report), &cluster_schedule),
    );
    assert!(
        why.is_none(),
        "runner vs cluster: {}",
        why.unwrap_or_default()
    );
}

/// A trace out of time order is sorted before it runs: the runner, the
/// live loop and the cluster each schedule a reversed trace as they
/// schedule the sorted one.
#[test]
fn a_shuffled_trace_gives_the_sorted_traces_schedule() {
    let seed = SEEDS[0];
    let sorted = trace(seed);
    let mut shuffled = sorted.clone();
    shuffled.reverse();
    let runner = |trace| run_des(scenario(seed, middleware(), trace, None));
    let live = |trace| run_live(live_config(seed, middleware(), None), trace);
    let cluster = |trace| run_cluster(scenario(seed ^ 0xc1, greedy(Ending::Long), trace, None));

    let ((a, x), (b, y)) = (runner(sorted.clone()), runner(shuffled.clone()));
    let why = differ(
        (a.audit.as_ref().unwrap(), &x),
        (b.audit.as_ref().unwrap(), &y),
    );
    assert!(why.is_none(), "runner: {}", why.unwrap_or_default());
    let ((a, x), (b, y)) = (live(sorted.clone()), live(shuffled.clone()));
    let why = differ(
        (a.audit.as_ref().unwrap(), &x),
        (b.audit.as_ref().unwrap(), &y),
    );
    assert!(why.is_none(), "live: {}", why.unwrap_or_default());
    let ((a, x), (b, y)) = (cluster(sorted), cluster(shuffled));
    let why = differ((shard_log(&a), &x), (shard_log(&b), &y));
    assert!(why.is_none(), "cluster: {}", why.unwrap_or_default());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(16)))]

    #[test]
    fn any_trace_seed_gives_one_schedule(seed in any::<u64>()) {
        for faults in [None, Some(FaultPlan::chaos(0.5))] {
            let chaos = faults.is_some();
            let why = disagreement(seed, faults, Ending::Long);
            prop_assert!(why.is_none(), "chaos {}: {}", chaos, why.unwrap_or_default());
        }
    }

    #[test]
    fn any_trace_seed_ends_both_loops_alike(seed in any::<u64>(), zero in any::<bool>()) {
        let ending = if zero { ZERO } else { SHORT };
        for faults in [None, Some(FaultPlan::chaos(0.5))] {
            let chaos = faults.is_some();
            let why = disagreement(seed, faults, ending);
            prop_assert!(why.is_none(), "chaos {}, {:?}: {}", chaos, ending, why.unwrap_or_default());
        }
    }
}
