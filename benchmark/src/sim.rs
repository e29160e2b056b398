//! The three simulated workloads, driven through the public drivers
//! (`ScenarioRunner::run`, `ClusterRunner::run_serial`).

// analyze: allow-file(no-wall-clock) — benchmark harness: wall-clock
// timing is the measurement.

use crate::gates::{apply, stage_sum};
use crate::probes;
use crate::procstat::{peak_rss_mb, process_cpu};
use crate::report::{Metrics, RunResult};
use crate::stats::{iqr_frac, median, percentile, sort};
use crate::timing::{Interleaver, Timed};
use crate::trace::{observer_metrics, span_median, unattributed_frac, Snapshot};
use crate::workload::{Options, Workload, CROWD_SEED};
use rand::Rng;
use react_cluster::{Cluster, ClusterPolicy, ClusterRunner, ClusterScenario, HandoffPolicy};
use react_core::{
    verify_lifecycles, AuditLog, MatcherPolicy, ReactServer, TaskEventKind, TaskId, WorkerId,
};
use react_crowd::{Scenario, ScenarioRunner, TaskGenerator};
use react_faults::{DropoutPlan, FaultPlan};
use react_geo::{GeoPoint, RegionGrid};
use react_obs::{null_observer, ObserverHandle, RecordingObserver, SpanKind};
use react_sim::RngStreams;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Traces an untraced run offers, each generated from `--seed` and its
/// index; repetitions cycle through them and a metric is taken over all
/// of them as over one long trace. `ontime_frac`, `assign_s_*` and
/// `allocs_per_task` repeat exactly for a seed, so all their spread
/// between seeds is how much one random trace differs from the next: on
/// one trace per run `allocs_per_task` spread 3.5 % and `assign_s_p50`
/// 12 % (`cluster-churn`), more than most changes under test would
/// move them. Four traces halve that.
pub const LEGS: usize = 4;
/// Set-up repetitions whose median is `setup_s`: each leg built twice.
const SETUP_REPS: usize = 2 * LEGS;
/// A run never reports from fewer repetitions than this (two per leg)…
const MIN_REPS: usize = 2 * LEGS;
/// …nor runs more (a fast future host must still end).
const MAX_REPS: usize = 200;

/// A built workload: the scenario with its preset trace.
pub enum SimSpec {
    /// Single server through `ScenarioRunner`.
    Des(Scenario),
    /// Sharded cluster through `ClusterRunner`.
    Cluster(ClusterScenario),
}

/// Arrival rate of `cluster-churn`, tasks per simulated second.
const CHURN_RATE: f64 = 10.0;
/// Workers of `cluster-churn`.
const CHURN_WORKERS: usize = 480;

/// The fault plan of `cluster-churn`: `chaos(0.5)` without bursts, and
/// dropouts spread over the whole repetition instead of its first
/// minute, so shards keep falling below the handoff floor.
pub fn churn_faults(span: f64) -> FaultPlan {
    FaultPlan {
        dropout: Some(DropoutPlan {
            probability: 0.9,
            window: (0.0, span),
            offline_range: Some((300.0, 700.0)),
        }),
        bursts: None,
        ..FaultPlan::chaos(0.5)
    }
}

/// Builds the workload's scenario and generates the preset trace of leg
/// `leg` from `opts.seed`; the crowd comes from [`CROWD_SEED`]. Sizes are
/// frozen: a repetition is 0.6–1.2 s on the 2-core box they were
/// calibrated on.
///
/// `des-tightpool` has 300 workers, not 250: at 250 the queue sits on
/// its knee, congestion episodes come and go with the trace, and
/// `assign_s_p95` ranged 1.1–3.7 s over ten seeds (1.2 of its median
/// between quartiles); at 300 it is 0.86–0.90 s while recall is still
/// ≈ 68 % of tick time.
pub fn build(opts: &Options, leg: usize) -> SimSpec {
    let react = MatcherPolicy::React { cycles: 1000 };
    let (mut scenario, tasks) = match opts.workload {
        Workload::DesWidepool => (Scenario::paper_fig9(2000, 6.0, react, CROWD_SEED), 10_000),
        Workload::DesTightpool => (Scenario::paper_fig9(300, 8.0, react, CROWD_SEED), 20_000),
        Workload::ClusterChurn => (
            Scenario::paper_fig9(
                CHURN_WORKERS,
                CHURN_RATE,
                MatcherPolicy::ReactAdaptive { kappa: 0.5 },
                CROWD_SEED,
            ),
            16_000,
        ),
        wire => unreachable!("{} is not a simulated workload", wire.name()),
    };
    scenario.total_tasks = opts.tasks(tasks);
    // Matching is treated as instantaneous. With the modelled latency
    // charged, Eq. (2) recalls fire inside the window between a batch
    // and its post-dated assignments, the audit log's timestamps go
    // backwards and `verify_lifecycles` rejects the run (the ignored
    // test in `tests/charged.rs` shows it); a benchmark runs only
    // workloads whose outputs verify, so the charge stays off until that
    // is fixed.
    scenario.config.charge_matching_time = false;
    let mut rng = RngStreams::new(opts.seed).stream_indexed("bench.trace", leg as u64);
    let mut trace = TaskGenerator::new(scenario.arrival_rate, scenario.region)
        .with_deadline_range(scenario.deadline_range.0, scenario.deadline_range.1)
        .with_categories(scenario.n_categories)
        .take_n(scenario.total_tasks, &mut rng);
    if opts.workload != Workload::ClusterChurn {
        scenario.workload = Some(trace);
        return SimSpec::Des(scenario);
    }

    // 40 % of arrivals folded into one corner cell: that shard is
    // overloaded while its neighbours idle, which is what handoff and
    // rebalancing exist for.
    let (rows, cols) = (2, 4);
    let grid = RegionGrid::new(scenario.region, rows, cols).expect("static grid");
    let corner = grid
        .region_ids()
        .next()
        .and_then(|id| grid.cell(id))
        .expect("grid has a first cell");
    for (_, task) in &mut trace {
        if rng.gen_bool(0.4) {
            task.location = corner.random_point(&mut rng);
        }
    }
    let span = scenario.total_tasks as f64 / CHURN_RATE;
    scenario.faults = Some(churn_faults(span));
    scenario.workload = Some(trace);
    SimSpec::Cluster(ClusterScenario {
        global: scenario,
        rows,
        cols,
        policy: ClusterPolicy {
            handoff: Some(HandoffPolicy {
                pool_floor: 50,
                max_per_tick: 8,
            }),
            ..ClusterPolicy::coupled()
        },
    })
}

/// The bring-up probe of `setup_s`: a server (or cluster) built from the
/// scenario's configuration with the workload's whole pool registered.
pub fn bring_up(spec: &SimSpec) {
    match spec {
        SimSpec::Des(sc) => {
            let mut rng = RngStreams::new(sc.seed).stream("bench.bringup");
            let mut server = ReactServer::builder(sc.config.clone())
                .seed(sc.seed)
                .build()
                .expect("paper configuration is valid");
            for w in 0..sc.n_workers {
                server.register_worker(WorkerId(w as u64), sc.region.random_point(&mut rng));
            }
            black_box(&server);
        }
        SimSpec::Cluster(cs) => {
            let sc = &cs.global;
            let streams = RngStreams::new(sc.seed);
            let mut rng = streams.stream("bench.bringup");
            let locations: Vec<GeoPoint> = (0..sc.n_workers)
                .map(|_| sc.region.random_point(&mut rng))
                .collect();
            let grid = RegionGrid::new(sc.region, cs.rows, cs.cols).expect("static grid");
            let mut cluster = Cluster::new(
                &grid,
                sc.config.clone(),
                sc.seed,
                cs.policy,
                null_observer(),
                streams.stream("bench.rebalance"),
                &locations,
            )
            .expect("paper configuration is valid");
            for (w, location) in locations.iter().enumerate() {
                cluster.register_worker(WorkerId(w as u64), *location);
            }
            black_box(&cluster);
        }
    }
}

/// What one repetition did, from the driver's report.
#[derive(Debug, Default)]
pub struct SimRun {
    /// Tasks offered.
    pub received: u64,
    /// Tasks completed within their deadline.
    pub met_deadline: u64,
    /// Matching batches run.
    pub batches: u64,
    /// Tasks the conservation identity does not account for.
    pub unaccounted: u64,
    /// Silent abandonments injected by the fault plan.
    pub abandons: u64,
    /// Audit logs (one per server), when auditing was on.
    pub audit: Vec<AuditLog>,
}

impl SimRun {
    /// The counts every repetition of one seed must agree on bit for bit.
    pub fn fingerprint(&self) -> (u64, u64, u64) {
        (self.received, self.met_deadline, self.batches)
    }
}

/// One repetition through the public driver.
pub fn run_once(spec: &SimSpec, observer: Option<ObserverHandle>, audit: bool) -> SimRun {
    let observer = observer.unwrap_or_else(null_observer);
    match spec {
        SimSpec::Des(sc) => {
            let mut sc = sc.clone();
            sc.config.audit = audit;
            let r = ScenarioRunner::new(sc).with_observer(observer).run();
            let accounted = r.completed + r.expired_unassigned + r.faults.stranded;
            SimRun {
                received: r.received,
                met_deadline: r.met_deadline,
                batches: r.batches,
                unaccounted: r.received.abs_diff(accounted),
                abandons: r.faults.abandons,
                audit: r.audit.into_iter().collect(),
            }
        }
        SimSpec::Cluster(cs) => {
            let mut cs = cs.clone();
            cs.global.config.audit = audit;
            let r = ClusterRunner::new(cs).with_observer(observer).run_serial();
            let accounted = r.completed()
                + r.expired_unassigned()
                + r.admission_shed()
                + r.stranded()
                + r.unroutable;
            SimRun {
                received: r.received,
                met_deadline: r.met_deadline(),
                batches: r.shards.iter().map(|s| s.batches).sum(),
                // `conserved()` also demands that handoffs balance.
                unaccounted: r
                    .received
                    .abs_diff(accounted)
                    .max(u64::from(!r.conserved())),
                abandons: r.abandons,
                audit: r.shards.into_iter().filter_map(|s| s.audit).collect(),
            }
        }
    }
}

/// Dropouts the workload's fault plan schedules for its pool. The
/// cluster report carries no dropout count, so the plan is materialised
/// here for the same pool; a workload without a plan has none.
fn scheduled_dropouts(spec: &SimSpec) -> usize {
    let scenario = match spec {
        SimSpec::Des(sc) => sc,
        SimSpec::Cluster(cs) => &cs.global,
    };
    scenario.faults.as_ref().map_or(0, |plan| {
        plan.materialize(&RngStreams::new(scenario.seed), scenario.n_workers)
            .dropouts()
            .len()
    })
}

/// Submission → first assignment of every task that was ever assigned,
/// in simulated seconds, ascending. A task handed between shards is
/// timed from its first submission anywhere.
pub fn assign_latencies(logs: &[AuditLog]) -> Vec<f64> {
    let mut first: HashMap<TaskId, (f64, f64)> = HashMap::new();
    for event in logs.iter().flat_map(|log| log.events()) {
        let entry = first
            .entry(event.task)
            .or_insert((f64::INFINITY, f64::INFINITY));
        match event.kind {
            TaskEventKind::Submitted => entry.0 = entry.0.min(event.at),
            TaskEventKind::Assigned { .. } => entry.1 = entry.1.min(event.at),
            _ => {}
        }
    }
    let mut latencies: Vec<f64> = first
        .values()
        .filter(|(submitted, assigned)| submitted.is_finite() && assigned.is_finite())
        .map(|(submitted, assigned)| (assigned - submitted).max(0.0))
        .collect();
    sort(&mut latencies);
    latencies
}

/// One timed repetition: the leg it ran, and its recorder when traced.
struct Rep {
    leg: usize,
    timed: Timed<SimRun>,
    recorder: Option<RecordingObserver>,
}

/// Runs `run_once` repetitions, kernel-interleaved and cycling through
/// `legs`, until `seconds` of measuring have passed. `observe(i)` says
/// whether repetition `i` is traced.
fn repetitions(
    il: &mut Interleaver,
    legs: &[SimSpec],
    seconds: f64,
    observe: impl Fn(usize) -> bool,
) -> Vec<Rep> {
    // One discarded warm-up repetition: page cache, allocator arenas,
    // branch predictors.
    run_once(&legs[0], None, false);
    il.refresh();
    let mut reps = Vec::new();
    let started = Instant::now();
    while reps.len() < MIN_REPS
        || (started.elapsed().as_secs_f64() < seconds && reps.len() < MAX_REPS)
    {
        let leg = reps.len() % legs.len();
        let recorder = observe(reps.len()).then(RecordingObserver::new);
        let handle = recorder.clone().map(|r| Arc::new(r) as ObserverHandle);
        reps.push(Rep {
            leg,
            timed: il.time(|| run_once(&legs[leg], handle, false)),
            recorder,
        });
    }
    reps
}

/// Output checks shared by both modes, on the repetitions of one leg:
/// they agree bit for bit, and conservation closes.
fn check_leg(result: &mut RunResult, leg: usize, reps: &[&Timed<SimRun>]) {
    let reference = &reps[0].value;
    result.attempted += reference.received;
    for (i, rep) in reps.iter().enumerate() {
        if rep.value.fingerprint() != reference.fingerprint() {
            result.violate(format!(
                "leg {leg}: repetition {i} disagrees on (received, met, batches): {:?} vs {:?}",
                rep.value.fingerprint(),
                reference.fingerprint()
            ));
        }
    }
    if reference.unaccounted > 0 {
        result.failed += reference.unaccounted;
        result.violate(format!(
            "leg {leg}: conservation identity leaves {} task(s) unaccounted for",
            reference.unaccounted
        ));
    }
}

/// The audited pass: same schedule (auditing does not perturb it),
/// lifecycles verified, assignment latencies extracted.
fn audited_pass(result: &mut RunResult, spec: &SimSpec, reference: &SimRun) -> Vec<f64> {
    let audited = run_once(spec, None, true);
    if audited.fingerprint() != reference.fingerprint() {
        result.violate(format!(
            "audited pass disagrees with the timed repetitions: {:?} vs {:?}",
            audited.fingerprint(),
            reference.fingerprint()
        ));
    }
    let verified =
        std::panic::catch_unwind(|| audited.audit.iter().map(verify_lifecycles).sum::<usize>());
    match verified {
        Ok(n) if n > 0 => {}
        Ok(_) => result.violate("audit logs cover no task"),
        Err(_) => {
            result.failed += 1;
            result.violate("verify_lifecycles found an illegal task lifecycle");
        }
    }
    assign_latencies(&audited.audit)
}

/// An untraced run: the eight end-to-end metrics, over all legs.
pub fn end_to_end(opts: &Options) -> RunResult {
    let mut result = RunResult::default();
    let mut il = Interleaver::new();

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut legs = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let timed = il.time(|| {
            let spec = build(opts, rep % LEGS);
            bring_up(&spec);
            spec
        });
        setups.push(timed.wall_ref());
        legs.push(timed.value);
    }
    legs.truncate(LEGS);

    let reps = repetitions(&mut il, &legs, opts.seconds, |_| false);
    let (mut tasks, mut met, mut allocs) = (0, 0, 0);
    let (mut wall, mut cpu) = (0.0, 0.0);
    let mut latencies = Vec::new();
    for (leg, spec) in legs.iter().enumerate() {
        let reps: Vec<&Timed<SimRun>> = reps
            .iter()
            .filter(|rep| rep.leg == leg)
            .map(|rep| &rep.timed)
            .collect();
        check_leg(&mut result, leg, &reps);
        if let Some(rep) = reps.iter().find(|rep| rep.allocs != reps[0].allocs) {
            result.violate(format!(
                "leg {leg}: repetitions disagree on heap allocations: {} vs {}",
                rep.allocs, reps[0].allocs
            ));
        }
        let reference = &reps[0].value;
        latencies.extend(audited_pass(&mut result, spec, reference));
        tasks += reference.received;
        met += reference.met_deadline;
        allocs += reps[0].allocs;
        wall += median(&reps.iter().map(|r| r.wall_ref()).collect::<Vec<_>>());
        cpu += median(&reps.iter().map(|r| r.cpu_ref()).collect::<Vec<_>>());
    }
    if latencies.is_empty() {
        result.violate("no task was ever assigned");
        return result;
    }
    sort(&mut latencies);

    let m = &mut result.metrics;
    m.set("setup_s", median(&setups));
    m.set("ontime_frac", met as f64 / tasks as f64);
    m.set("goodput_per_s", met as f64 / wall);
    m.set("cpu_ms_per_task", cpu * 1e3 / tasks as f64);
    m.set("assign_s_p50", percentile(&latencies, 50.0));
    m.set("assign_s_p95", percentile(&latencies, 95.0));
    m.set("peak_rss_mb", peak_rss_mb());
    m.set("allocs_per_task", allocs as f64 / tasks as f64);
    result.notes.push(format!(
        "{} repetitions over {LEGS} traces, {tasks} tasks in all; \
         {} assignment-latency samples, {} beyond p95",
        reps.len(),
        latencies.len(),
        latencies.len() / 20
    ));
    result
}

/// Per-layer metrics no simulated workload has a source for.
const NOT_SIMULATED: [&str; 13] = [
    "runtime.batches_per_ktask",
    "runtime.accepted_frac",
    "runtime.shed_frac",
    "runtime.expired_frac",
    "runtime.recalls_per_task",
    "runtime.peak_backlog",
    "load.rtt_ms_p50",
    "load.rtt_ms_p95",
    "load.rtt_ms_p99",
    "load.send_lag_ms_p99",
    "load.offered_per_s",
    "load.transport_errors",
    "runtime.stranded",
];

/// A traced run, on the first leg alone: untraced and traced
/// repetitions alternate, so that both see the same host; per-layer
/// metrics come from the traced ones.
pub fn traced(opts: &Options) -> RunResult {
    let mut result = RunResult::default();
    let mut il = Interleaver::new();
    let spec = build(opts, 0);
    let system0 = process_cpu().system;
    let reps = repetitions(&mut il, std::slice::from_ref(&spec), opts.seconds, |i| {
        i % 2 == 1
    });
    let system = process_cpu().system - system0;
    check_leg(
        &mut result,
        0,
        &reps.iter().map(|rep| &rep.timed).collect::<Vec<_>>(),
    );
    let reference = &reps[0].timed.value;
    let latencies = audited_pass(&mut result, &spec, reference);

    let mut plain = Vec::new();
    let mut observed = Vec::new();
    let mut snapshots = Vec::new();
    for rep in &reps {
        match &rep.recorder {
            Some(recorder) => {
                observed.push(&rep.timed);
                snapshots.push(Snapshot::new(recorder.clone(), rep.timed.scale()));
            }
            None => plain.push(&rep.timed),
        }
    }
    let tasks = reference.received;
    let walls = |reps: &[&Timed<SimRun>]| reps.iter().map(|r| r.wall_ref()).collect::<Vec<_>>();
    let plain_wall = median(&walls(&plain));
    let traced_wall = median(&walls(&observed));

    let m = &mut result.metrics;
    observer_metrics(m, &snapshots, tasks);
    for name in NOT_SIMULATED {
        m.set(name, 0.0);
    }
    // Self time by difference: what the repetition spent outside server
    // ticks. On the cluster that is the event loop plus routing, handoff
    // and rebalance passes, which have no span of their own.
    let outside_ticks =
        (traced_wall - span_median(&snapshots, SpanKind::Tick)) * 1e6 / tasks as f64;
    let is_cluster = matches!(spec, SimSpec::Cluster(_));
    m.set(
        "crowd.driver_us_per_task",
        if is_cluster { 0.0 } else { outside_ticks },
    );
    m.set(
        "cluster.pass_us_per_task",
        if is_cluster { outside_ticks } else { 0.0 },
    );
    m.set("faults.dropouts", scheduled_dropouts(&spec) as f64);
    m.set("faults.abandons", reference.abandons as f64);

    let mut kernel = probes::run(m);
    kernel.extend_from_slice(il.kernel_times());
    m.set("obs.trace_overhead_frac", traced_wall / plain_wall - 1.0);
    m.set("bench.kernel_ms_median", median(&kernel) * 1e3);
    m.set("bench.kernel_spread_frac", iqr_frac(&kernel));
    m.set("bench.rep_spread_frac", iqr_frac(&walls(&plain)));
    let unattributed = unattributed_frac(m);
    m.set("bench.unattributed_frac", unattributed);
    let raw_wall = median(&plain.iter().map(|r| r.wall).collect::<Vec<_>>());
    let raw_cpu = median(&plain.iter().map(|r| r.cpu).collect::<Vec<_>>());
    m.set(
        "raw.goodput_per_s",
        reference.met_deadline as f64 / raw_wall,
    );
    m.set("raw.cpu_ms_per_task", raw_cpu * 1e3 / tasks as f64);
    // A repetition spends less system time than the 10 ms tick it is
    // accounted in, so it is taken over all of them, warm-up included.
    m.set(
        "raw.sys_ms_per_task",
        system * 1e3 / ((reps.len() + 1) as f64 * tasks as f64),
    );
    m.set(
        "traced.ontime_frac",
        reference.met_deadline as f64 / tasks as f64,
    );
    m.set("traced.assign_samples", latencies.len() as f64);

    let mut verdicts = gates(opts.workload, m);
    verdicts.extend(stage_sum(unattributed, outside_ticks));
    apply(&mut result, verdicts);
    result
}

fn gates(workload: Workload, m: &Metrics) -> Vec<(String, bool)> {
    let get = |name: &str| m.get(name).unwrap_or(0.0);
    let share = |stage: &str| get(stage) / get("core.tick_us_per_task");
    match workload {
        Workload::DesWidepool => {
            let build = share("core.build_us_per_task");
            vec![(
                format!("build share of tick {build:.3} >= 0.5"),
                build >= 0.5,
            )]
        }
        Workload::DesTightpool => {
            let recall = share("core.recall_us_per_task");
            vec![(
                format!("recall share of tick {recall:.3} >= 0.5"),
                recall >= 0.5,
            )]
        }
        _ => {
            let handoffs = get("cluster.handoffs_per_ktask");
            let rebalanced = get("cluster.workers_rebalanced");
            let dropouts = get("faults.dropouts");
            vec![
                (
                    format!("handoffs per 1000 tasks {handoffs:.1} >= 50"),
                    handoffs >= 50.0,
                ),
                (
                    format!("workers rebalanced {rebalanced} > 0"),
                    rebalanced > 0.0,
                ),
                (format!("dropouts {dropouts} > 0"), dropouts > 0.0),
            ]
        }
    }
}
