//! Property-based tests over the cluster layer (proptest).
//!
//! The invariants the sharded mode must hold for *every* policy and
//! fault plan, not just the golden scenarios:
//!
//! 1. **conservation** — no task is lost or duplicated across handoffs,
//!    rebalances, admission sheds and faults: completed + expired +
//!    admission-shed + stranded == received, handoffs-out == handoffs-in,
//!    and the worker population is conserved across rebalances, under
//!    every matcher (Traditional included: its available workers may
//!    still hold queued tasks, which a rebalance must not move);
//! 2. **determinism** — the same scenario run twice produces
//!    bit-identical reports under any policy/fault combination;
//! 3. **auditability** — every shard's lifecycle log stays well-formed
//!    (`Submitted … HandedOff` / fresh `Submitted` on the receiving
//!    shard), including tasks that bounce between shards;
//! 4. **the uncoupled cluster** — under `ClusterPolicy::single_tier()`
//!    (the paper's plain region decomposition) nothing crosses a shard
//!    boundary, so conservation closes shard by shard under the full
//!    chaos plan.
//!
//! Two plain tests hold the rest of the single-tier contract: a finer
//! grid never raises the heaviest shard's matching load, and an attached
//! observer sees `shard.tick` spans without perturbing the report. A
//! third runs one fixed Traditional case through the coupled policy.

#[path = "common/chaos.rs"]
mod chaos;
mod common;

use proptest::prelude::*;
use react::cluster::{
    AdmissionPolicy, ClusterPolicy, ClusterRunner, ClusterScenario, HandoffPolicy, RebalancePolicy,
};
use react::core::{verify_lifecycles, MatcherPolicy, TaskEventKind};
use react::crowd::Scenario;
use react::faults::{DropoutPlan, FaultPlan};
use react::obs::{CounterKind, RecordingObserver, SpanKind};
use std::sync::Arc;

/// Strategy: an arbitrary cluster policy mixing the three mechanisms.
fn arb_policy() -> impl Strategy<Value = ClusterPolicy> {
    (
        proptest::option::of((1usize..10, 1usize..12)),
        proptest::option::of((1u64..6, 0usize..4, 1usize..6)),
        proptest::option::of(4usize..60),
    )
        .prop_map(|(handoff, rebalance, admission)| ClusterPolicy {
            split_threshold: u64::MAX,
            handoff: handoff.map(|(pool_floor, max_per_tick)| HandoffPolicy {
                pool_floor,
                max_per_tick,
            }),
            rebalance: rebalance.map(|(period_ticks, min_idle, max_moves)| RebalancePolicy {
                period_ticks,
                min_idle,
                max_moves,
            }),
            admission: admission.map(|max_open_tasks| AdmissionPolicy { max_open_tasks }),
        })
}

/// The matcher every case but the matcher-sweeping ones runs.
const REACT: MatcherPolicy = MatcherPolicy::React { cycles: 100 };

/// Strategy: any of the matchers a cluster shard can run.
fn arb_matcher() -> impl Strategy<Value = MatcherPolicy> {
    prop_oneof![
        Just(REACT),
        Just(MatcherPolicy::Greedy),
        Just(MatcherPolicy::Traditional),
    ]
}

/// Strategy: an optional dropout-heavy fault plan (the fault kind that
/// exercises handoff hardest — pools collapse and queues must move).
fn arb_faults() -> impl Strategy<Value = Option<FaultPlan>> {
    proptest::option::of((0.0f64..=0.8, any::<bool>())).prop_map(|spec| {
        spec.map(|(probability, rejoin)| FaultPlan {
            dropout: Some(DropoutPlan {
                probability,
                window: (1.0, 25.0),
                offline_range: rejoin.then_some((10.0, 40.0)),
            }),
            ..FaultPlan::none()
        })
    })
}

fn scenario(
    matcher: MatcherPolicy,
    seed: u64,
    rows: u32,
    cols: u32,
    policy: ClusterPolicy,
    faults: Option<FaultPlan>,
) -> ClusterScenario {
    let mut global = Scenario::smoke(matcher, seed);
    global.n_workers = 40;
    global.arrival_rate = 4.0;
    global.total_tasks = 120;
    global.drain_horizon = 150.0;
    global.config.audit = true;
    global.faults = faults;
    ClusterScenario {
        global,
        rows,
        cols,
        policy,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(12)))]

    /// Invariant 1: conservation under arbitrary matchers, policies and
    /// faults.
    #[test]
    fn no_task_is_lost_or_duplicated(
        matcher in arb_matcher(),
        seed in 0u64..1_000,
        rows in 1u32..3,
        cols in 1u32..3,
        policy in arb_policy(),
        faults in arb_faults(),
    ) {
        let sc = scenario(matcher, seed, rows, cols, policy, faults);
        let r = ClusterRunner::new(sc).run();
        prop_assert_eq!(r.received, 120);
        prop_assert_eq!(r.unroutable, 0);
        prop_assert!(r.conserved(), "conservation violated: {:?}", r);
        let workers: usize = r.shards.iter().map(|s| s.workers_final).sum();
        prop_assert_eq!(workers, 40, "worker population not conserved");
    }

    /// Invariant 2: the same scenario run twice is bit-identical
    /// whatever the policy and fault plan. Every `HashMap` of the second
    /// run hashes with a fresh `RandomState`, so iteration order leaking
    /// into a report shows up here.
    #[test]
    fn same_scenario_run_twice_is_bit_identical(
        seed in 0u64..1_000,
        policy in arb_policy(),
        faults in arb_faults(),
    ) {
        let runner = ClusterRunner::new(scenario(REACT, seed, 2, 2, policy, faults));
        let first = runner.run();
        let second = runner.run();
        prop_assert_eq!(first, second, "rerun divergence");
    }

    /// Invariant 3: every shard's audit log verifies, and handoff
    /// events balance across the logs (each HandedOff is matched by a
    /// fresh Submitted on some shard).
    #[test]
    fn audit_lifecycles_stay_well_formed_across_handoffs(
        matcher in arb_matcher(),
        seed in 0u64..1_000,
        policy in arb_policy(),
        faults in arb_faults(),
    ) {
        let r = ClusterRunner::new(scenario(matcher, seed, 2, 2, policy, faults)).run();
        let mut handed_off = 0u64;
        for shard in &r.shards {
            let log = shard.audit.as_ref().expect("audit enabled");
            verify_lifecycles(log);
            handed_off += log
                .events()
                .filter(|e| matches!(e.kind, TaskEventKind::HandedOff))
                .count() as u64;
        }
        prop_assert_eq!(
            handed_off,
            r.handoffs(),
            "audited handoffs must match the cluster counters"
        );
    }

    /// Invariant 4: with every coupling mechanism off nothing crosses a
    /// shard boundary, so each shard conserves its own tasks under the
    /// full chaos plan — what a multi-region deployment promises.
    #[test]
    fn single_tier_shards_conserve_their_own_tasks(
        seed in 0u64..1_000,
        rows in 1u32..4,
        cols in 1u32..4,
        plan in chaos::arb_plan(),
    ) {
        let sc = scenario(REACT, seed, rows, cols, ClusterPolicy::single_tier(), Some(plan));
        let r = ClusterRunner::new(sc).run();
        prop_assert_eq!(r.received, 120 + r.burst_tasks);
        prop_assert_eq!(r.handoffs(), 0);
        prop_assert_eq!(r.workers_rebalanced, 0);
        prop_assert_eq!(r.admission_shed(), 0);
        prop_assert!(r.conserved(), "conservation violated: {:?}", r);
        for s in &r.shards {
            prop_assert_eq!(
                s.completed + s.expired_unassigned + s.stranded,
                s.received,
                "shard {:?} lost or invented a task",
                s.server
            );
            verify_lifecycles(s.audit.as_ref().expect("audit enabled"));
        }
    }
}

/// The paper's overload fix: the same global load over a finer grid never
/// raises the heaviest shard's modelled matching time.
#[test]
fn a_finer_grid_never_raises_the_max_shard_matching_load() {
    let run = |rows, cols| {
        ClusterRunner::new(scenario(
            REACT,
            3,
            rows,
            cols,
            ClusterPolicy::single_tier(),
            None,
        ))
        .run()
    };
    let (coarse, fine) = (run(1, 1), run(2, 2));
    assert!(coarse.max_matching_seconds() > 0.0, "the 1x1 grid matched");
    assert!(
        fine.max_matching_seconds() <= coarse.max_matching_seconds() + 1e-9,
        "splitting must not increase the per-server matching load: coarse {:.2}s vs fine {:.2}s",
        coarse.max_matching_seconds(),
        fine.max_matching_seconds()
    );
}

/// `ClusterRunner::with_observer` is write-only: the report is
/// bit-identical to the unobserved one, every cluster tick times each
/// shard under `shard.tick`, the shard servers report to the same sink,
/// and the run's injected faults reach its `fault.*` counters as a single
/// server's do.
#[test]
fn an_observer_counts_shard_ticks_and_leaves_the_report_identical() {
    let chaos = Some(FaultPlan::chaos(1.0));
    let sc = || scenario(REACT, 5, 2, 2, ClusterPolicy::single_tier(), chaos);
    let baseline = ClusterRunner::new(sc()).run();
    let recording = RecordingObserver::new();
    let observed = ClusterRunner::new(sc())
        .with_observer(Arc::new(recording.clone()))
        .run();
    assert_eq!(
        baseline, observed,
        "attaching a recording observer must not perturb any result"
    );
    let span = recording
        .span_stats(SpanKind::ShardTick)
        .expect("every cluster tick emits shard.tick spans");
    assert!(
        span.count > 0 && span.count.is_multiple_of(4),
        "one per shard per tick"
    );
    assert!(span.total_seconds > 0.0);
    assert!(
        recording.counter(CounterKind::MatcherCycles) > 0,
        "shard servers must forward matcher counters to the shared sink"
    );
    let faults = (
        recording.counter(CounterKind::FaultDropouts),
        recording.counter(CounterKind::FaultAbandons),
    );
    assert_eq!(faults, (observed.dropouts, observed.abandons));
    assert!(
        faults.0 > 0 && faults.1 > 0,
        "the plan injects both: {faults:?}"
    );
}

/// Under Traditional a worker is available again after each completion
/// while it may still hold queued tasks. The coupled policy's rebalance
/// pass moves only workers holding none, so every completion reaches the
/// shard that assigned the task and the run conserves and audits clean.
#[test]
fn a_coupled_traditional_run_rebalances_only_workers_holding_nothing() {
    let mut global = Scenario::smoke(MatcherPolicy::Traditional, 0);
    global.n_workers = 60;
    global.arrival_rate = 4.0;
    global.total_tasks = 240;
    global.config.audit = true;
    let r = ClusterRunner::new(ClusterScenario {
        global,
        rows: 2,
        cols: 2,
        policy: ClusterPolicy::coupled(),
    })
    .run();
    assert!(r.conserved(), "conservation violated: {r:?}");
    assert!(
        r.workers_rebalanced > 0,
        "the pass still moves idle workers"
    );
    for s in &r.shards {
        verify_lifecycles(s.audit.as_ref().expect("audit enabled"));
    }
}
