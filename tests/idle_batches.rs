//! A batch whose pool is empty is booked, not built.
//!
//! When the batch trigger fires but no worker is in the pool (every one
//! busy or offline; under Traditional, every one offline), the server
//! commits an empty batch without building a graph or running the
//! matcher, charged as the policy charges a graph with no worker row.
//! These tests hold that:
//!
//! 1. one idle batch under each policy, charged and uncharged, counts as
//!    a batch, assigns nothing and charges exactly the region cost of a
//!    pool of 0;
//! 2. small overloaded runs — a 2×2 coupled cluster with 90 % dropout
//!    under `ReactAdaptive` and `Traditional`, and one Traditional
//!    server, all charged — keep their exact outcomes: batches, the bits
//!    of the modelled matching time, met and expired counts and a fold of
//!    every audit log (the numbers were read before idle batches skipped
//!    the build, so they show the schedule did not move);
//! 3. the same runs, observed, record fewer `tick.build` spans than
//!    batches, so the idle branch ran;
//! 4. random small overloaded runs conserve their tasks. Under
//!    `--features debug-invariants` each idle batch also checks that the
//!    cold `SchedulingComponent::build_graph` finds no pool row.

mod common;

use proptest::prelude::*;
use react::cluster::{ClusterPolicy, ClusterReport, ClusterRunner, ClusterScenario};
use react::core::scheduling::region_cost_units;
use react::core::{
    AuditLog, Config, MatcherPolicy, ReactServer, Task, TaskCategory, TaskEventKind, TaskId,
    WorkerId,
};
use react::crowd::{RunReport, Scenario, ScenarioRunner};
use react::faults::{DropoutPlan, FaultPlan};
use react::geo::GeoPoint;
use react::matching::CostModel;
use react::obs::{ObserverHandle, RecordingObserver, SpanKind};
use std::sync::Arc;

const POLICIES: [MatcherPolicy; 4] = [
    MatcherPolicy::React { cycles: 200 },
    MatcherPolicy::ReactAdaptive { kappa: 0.5 },
    MatcherPolicy::Greedy,
    MatcherPolicy::Traditional,
];

fn here() -> GeoPoint {
    GeoPoint::new(37.98, 23.72)
}

fn task(id: u64) -> Task {
    Task::new(TaskId(id), here(), 600.0, 0.05, TaskCategory(0), "t")
}

/// FNV-1a over `words`, in order.
fn fold(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ x).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A fold of every event of `log`: instant bits, task, transition and
/// the worker or verdict it carries.
fn audit_fold(log: Option<&AuditLog>) -> u64 {
    fold(log.into_iter().flat_map(AuditLog::events).flat_map(|e| {
        let (kind, detail) = match e.kind {
            TaskEventKind::Submitted => (0, 0),
            TaskEventKind::Assigned { worker } => (1, worker.0),
            TaskEventKind::Recalled { worker } => (2, worker.0),
            TaskEventKind::Completed {
                worker,
                met_deadline,
            } => (3, worker.0 << 1 | u64::from(met_deadline)),
            TaskEventKind::Expired => (4, 0),
            TaskEventKind::HandedOff => (5, 0),
        };
        [e.at.to_bits(), e.task.0, kind, detail]
    }))
}

#[test]
fn an_idle_batch_is_counted_and_charged_as_an_empty_pool() {
    for policy in POLICIES {
        for charged in [false, true] {
            let mut config = Config::with_matcher(policy);
            config.charge_matching_time = charged;
            let mut s = ReactServer::builder(config).seed(3).build().unwrap();
            for w in 0..3 {
                s.register_worker(WorkerId(w), here());
            }
            for t in 0..10 {
                s.submit_task(task(t), 0.0);
            }
            let first = s.tick(0.0).assignments.len();
            assert!(first > 0, "{policy:?}: the first batch has a pool");
            // Worker 0 stays busy where busy workers leave the pool; every
            // other worker goes offline.
            let keep_busy = policy.uses_availability();
            for w in u64::from(keep_busy)..3 {
                s.worker_offline(WorkerId(w), 1.0);
            }
            for t in 10..20 {
                s.submit_task(task(t), 1.0);
            }
            let now = s.busy_until() + 1.0;
            let (batches, total) = (s.batches_run(), s.total_matching_seconds());
            let (open, queued) = (s.tasks().open_count(), s.tasks().unassigned_count());
            assert!(queued >= 10, "{policy:?}: the trigger fires");

            let out = s.tick(now);
            assert!(out.assignments.is_empty(), "{policy:?}: nothing to match");
            let seconds = if charged {
                let units = region_cost_units(&policy, open, 0, queued);
                CostModel::paper_calibrated().seconds_for(policy.name(), units)
            } else {
                0.0
            };
            assert_eq!(out.matching_seconds.to_bits(), seconds.to_bits());
            assert_eq!(out.effective_at.to_bits(), (now + seconds).to_bits());
            assert_eq!(s.batches_run(), batches + 1, "{policy:?}, {charged}");
            assert_eq!(
                s.total_matching_seconds().to_bits(),
                (total + seconds).to_bits(),
                "{policy:?}, charged: {charged}"
            );
            assert_eq!(s.busy_until().to_bits(), (now + seconds).to_bits());
            assert_eq!(s.tasks().unassigned_count(), queued);
            assert_eq!(s.tasks().open_count(), open);
            if charged && policy == MatcherPolicy::Traditional {
                assert!(seconds > 0.0, "Traditional charges per queued task");
            }
        }
    }
}

/// An overloaded run: few workers, nine in ten of them dropping out for
/// a while, and the modelled matching time charged.
fn overloaded(policy: MatcherPolicy, seed: u64, n_workers: usize) -> Scenario {
    let mut sc = Scenario::smoke(policy, seed);
    sc.n_workers = n_workers;
    sc.arrival_rate = 3.0;
    sc.total_tasks = 180;
    sc.drain_horizon = 120.0;
    sc.config.audit = true;
    sc.config.charge_matching_time = true;
    sc.faults = Some(FaultPlan {
        dropout: Some(DropoutPlan {
            probability: 0.9,
            window: (0.0, 20.0),
            offline_range: Some((60.0, 120.0)),
        }),
        ..FaultPlan::none()
    });
    sc
}

fn cluster(policy: MatcherPolicy, seed: u64) -> ClusterScenario {
    ClusterScenario {
        global: overloaded(policy, seed, 24),
        rows: 2,
        cols: 2,
        policy: ClusterPolicy::coupled(),
    }
}

/// What a golden run pins.
#[derive(Debug, PartialEq)]
struct Outcome {
    batches: u64,
    matching_seconds_bits: u64,
    met_deadline: u64,
    expired: u64,
    audit_folds: Vec<u64>,
}

fn cluster_outcome(r: &ClusterReport) -> Outcome {
    Outcome {
        batches: r.shards.iter().map(|s| s.batches).sum(),
        matching_seconds_bits: fold(r.shards.iter().map(|s| s.total_matching_seconds.to_bits())),
        met_deadline: r.met_deadline(),
        expired: r.expired_unassigned(),
        audit_folds: r
            .shards
            .iter()
            .map(|s| audit_fold(s.audit.as_ref()))
            .collect(),
    }
}

fn server_outcome(r: &RunReport) -> Outcome {
    Outcome {
        batches: r.batches,
        matching_seconds_bits: r.total_matching_seconds.to_bits(),
        met_deadline: r.met_deadline,
        expired: r.expired_unassigned,
        audit_folds: vec![audit_fold(r.audit.as_ref())],
    }
}

/// Golden run `i` of three: a 2×2 coupled cluster under
/// `ReactAdaptive`, the same under Traditional, and one Traditional
/// server; observed through `observer` when one is given.
fn golden_run(i: usize, observer: Option<&RecordingObserver>) -> Outcome {
    let observer = observer.map(|o| Arc::new(o.clone()) as ObserverHandle);
    let policy = match i {
        0 => MatcherPolicy::ReactAdaptive { kappa: 0.5 },
        _ => MatcherPolicy::Traditional,
    };
    if i < 2 {
        let mut runner = ClusterRunner::new(cluster(policy, 14));
        if let Some(o) = observer {
            runner = runner.with_observer(o);
        }
        let r = runner.run();
        assert!(r.conserved(), "{policy:?}: conservation");
        cluster_outcome(&r)
    } else {
        let mut runner = ScenarioRunner::new(overloaded(policy, 13, 10));
        if let Some(o) = observer {
            runner = runner.with_observer(o);
        }
        server_outcome(&runner.run())
    }
}

/// Golden run `i`'s outcome, read before idle batches skipped the build.
fn golden(i: usize) -> Outcome {
    let (batches, matching_seconds_bits, met_deadline, expired, audit_folds) = match i {
        0 => (
            388,
            15987673073464040744,
            26,
            134,
            vec![
                492961243501526156,
                12720185860276935324,
                6666219310162363641,
                13260882016444803165,
            ],
        ),
        1 => (
            171,
            2342897887269854628,
            17,
            9,
            vec![
                2471459358959120440,
                1834930433496210659,
                8018516340074749609,
                16247577741352829430,
            ],
        ),
        _ => (233, 4612757199598757979, 12, 40, vec![1390821140689291015]),
    };
    Outcome {
        batches,
        matching_seconds_bits,
        met_deadline,
        expired,
        audit_folds,
    }
}

#[test]
fn overloaded_runs_keep_their_exact_outcomes() {
    for i in 0..3 {
        assert_eq!(golden_run(i, None), golden(i), "run {i}");
    }
}

#[test]
fn overloaded_runs_skip_the_build_of_idle_batches() {
    for i in 0..3 {
        let recorder = RecordingObserver::new();
        let outcome = golden_run(i, Some(&recorder));
        assert_eq!(
            outcome,
            golden(i),
            "run {i}: an observer moved the schedule"
        );
        let count = |kind| recorder.span_stats(kind).map_or(0, |s| s.count);
        let builds = count(SpanKind::StageBuild);
        assert_eq!(builds, count(SpanKind::StageMatch), "run {i}");
        assert_eq!(count(SpanKind::StageCommit), outcome.batches, "run {i}");
        assert!(
            builds < outcome.batches,
            "run {i}: {builds} builds for {} batches, so no idle batch was booked",
            outcome.batches
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(8)))]

    /// Random small overloaded runs, one server or a 2×2 coupled
    /// cluster, conserve their tasks.
    #[test]
    fn overloaded_runs_conserve(
        policy in 0usize..4,
        seed in 0u64..1_000,
        n_workers in 4usize..16,
        charged in any::<bool>(),
        sharded in any::<bool>(),
    ) {
        let mut sc = overloaded(POLICIES[policy], seed, n_workers);
        sc.total_tasks = 90;
        sc.config.charge_matching_time = charged;
        if sharded {
            let r = ClusterRunner::new(ClusterScenario {
                global: sc,
                rows: 2,
                cols: 2,
                policy: ClusterPolicy::coupled(),
            })
            .run();
            prop_assert_eq!(r.received, 90);
            prop_assert!(r.conserved(), "conservation violated: {:?}", r);
        } else {
            let r = ScenarioRunner::new(sc).run();
            prop_assert_eq!(r.received, 90);
            prop_assert_eq!(
                r.completed + r.expired_unassigned + r.faults.stranded,
                r.received
            );
        }
    }
}
