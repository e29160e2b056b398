//! One seeded trace, one schedule: the discrete-event runner and the live
//! scheduler loop agree.
//!
//! The same preset trace runs through `ScenarioRunner::run` and through
//! the live scheduler thread on a virtual clock
//! (`IngestRuntime::replay`), with the same seed, crowd, middleware
//! configuration and tick interval, once fault-free and once under
//! `FaultPlan::chaos(0.5)`. Every task's audit trail (each event's kind
//! and instant), the tick count and the completed, met and expired counts
//! must be equal. A live loop that ticked anywhere the runner does not —
//! for a completion, at start-up, on a grid counted from its last lap
//! rather than from crowd time 0 — or that skipped the tick at a burst
//! instant fails here.

mod common;

use proptest::prelude::*;
use react::core::{AuditLog, Config, MatcherPolicy, RecoveryConfig, TaskEventKind, TaskId};
use react::crowd::{RunReport, Scenario, ScenarioRunner, TaskGenerator};
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

/// `N_TASKS` Poisson arrivals with 60–120 s deadlines and one category
/// (the door's), drawn from `seed`.
fn trace(seed: u64) -> Vec<(f64, react::core::Task)> {
    let mut rng = RngStreams::new(seed).stream("oracle-trace");
    let mut generator = TaskGenerator::new(ARRIVAL_RATE, Scenario::default_region())
        .with_deadline_range(60.0, 120.0)
        .with_categories(1);
    (0..N_TASKS).map(|_| generator.next(&mut rng)).collect()
}

/// Batches at more than ten waiting tasks or every 5 s, matching time
/// not charged, the audit log on. The timeout ladder recalls abandoned
/// work, so both loops end with nothing in flight inside their drain
/// windows (`DRAIN`): past them the runner leaves stranded work where it
/// is, while the live loop force-drains it.
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
}

fn ticks(recorder: &RecordingObserver) -> u64 {
    recorder.span_stats(SpanKind::Tick).map_or(0, |s| s.count)
}

fn des(seed: u64, faults: Option<FaultPlan>) -> (RunReport, Schedule) {
    let scenario = Scenario {
        label: "oracle".to_string(),
        n_workers: N_WORKERS,
        config: middleware(),
        n_categories: 1,
        tick_interval: TICK_INTERVAL,
        drain_horizon: DRAIN,
        workload: Some(trace(seed)),
        faults,
        ..Scenario::smoke(MatcherPolicy::Greedy, seed)
    };
    let recorder = RecordingObserver::new();
    let report = ScenarioRunner::new(scenario)
        .with_observer(Arc::new(recorder.clone()) as ObserverHandle)
        .run();
    let schedule = Schedule {
        ticks: ticks(&recorder),
        completed: report.completed,
        met_deadline: report.met_deadline,
        expired: report.expired_unassigned,
    };
    (report, schedule)
}

fn live(seed: u64, faults: Option<FaultPlan>) -> (IngestReport, Schedule) {
    let config = IngestConfig {
        n_workers: N_WORKERS,
        config: middleware(),
        tick_interval: TICK_INTERVAL,
        seed,
        faults,
        drain_grace: DRAIN,
        ..IngestConfig::default()
    };
    let recorder = RecordingObserver::new();
    let report = IngestRuntime::new(config)
        .with_observer(Arc::new(recorder.clone()) as ObserverHandle)
        .replay(trace(seed));
    let schedule = Schedule {
        ticks: ticks(&recorder),
        completed: report.completed,
        met_deadline: report.met_deadline,
        expired: report.expired + report.shed_server,
    };
    (report, schedule)
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

/// Runs both loops on the trace of `seed` and returns why they disagree,
/// if they do.
fn disagreement(seed: u64, faults: Option<FaultPlan>) -> Option<String> {
    let (des_report, des_schedule) = des(seed, faults);
    let (live_report, live_schedule) = live(seed, faults);
    let des_log = des_report.audit.as_ref().expect("audit on");
    let live_log = live_report.audit.as_ref().expect("audit on");
    if let Some((task, a, b)) = first_difference(des_log, live_log) {
        return Some(format!("{task}: runner {a:?}\nlive {b:?}"));
    }
    (des_schedule != live_schedule)
        .then(|| format!("runner {des_schedule:?} != live {live_schedule:?}"))
}

fn assert_agree(seed: u64, faults: Option<FaultPlan>) {
    let chaos = faults.is_some();
    if let Some(why) = disagreement(seed, faults) {
        panic!("seed {seed}, chaos {chaos}: {why}");
    }
}

const SEEDS: [u64; 3] = [2013, 7919, 42];

#[test]
fn fault_free_trace_gives_one_schedule() {
    for seed in SEEDS {
        assert_agree(seed, None);
    }
}

#[test]
fn chaos_trace_gives_one_schedule() {
    for seed in SEEDS {
        assert_agree(seed, Some(FaultPlan::chaos(0.5)));
    }
}

/// The oracle is not vacuous: the chaos runs book every kind of fault
/// and the fault-free ones complete work after recalls.
#[test]
fn the_traces_exercise_every_booking() {
    let (report, schedule) = des(SEEDS[0], Some(FaultPlan::chaos(0.5)));
    let f = report.faults;
    assert!(f.dropouts > 0 && f.burst_tasks > 0, "{f:?}");
    assert!(
        f.completions_lost > 0 && f.completions_duplicated > 0,
        "{f:?}"
    );
    assert!(report.reassignments > 0, "{report:?}");
    assert!(schedule.completed > 0 && schedule.ticks > 0, "{schedule:?}");
    let (report, _) = des(SEEDS[0], None);
    assert!(report.reassignments > 0 && report.expired_unassigned > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(16)))]

    #[test]
    fn any_trace_seed_gives_one_schedule(seed in any::<u64>()) {
        for faults in [None, Some(FaultPlan::chaos(0.5))] {
            let chaos = faults.is_some();
            let why = disagreement(seed, faults);
            prop_assert!(why.is_none(), "chaos {}: {}", chaos, why.unwrap_or_default());
        }
    }
}
