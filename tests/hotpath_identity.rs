//! Incremental-build identity: the hot-path [`BatchScratch`] must
//! produce graphs bit-identical to a cold [`SchedulingComponent`] build
//! after *any* interleaving of profile mutations, task churn and worker
//! dropouts — the property the epoch-keyed row cache and the memoized
//! deadline gates are designed to preserve.
//!
//! Run under `--features debug-invariants` to additionally arm the
//! scratch's internal cold-rebuild assertion on every step.

use proptest::prelude::*;
use react::core::{
    Availability, BatchScratch, Config, LatencyModelKind, MatcherPolicy, ProfilingComponent,
    SchedulingComponent, Task, TaskCategory, TaskId, TaskManagementComponent, WorkerId,
};
use react::crowd::{Scenario, ScenarioRunner};
use react::faults::FaultPlan;
use react::geo::GeoPoint;

fn here() -> GeoPoint {
    GeoPoint::new(37.98, 23.72)
}

/// One randomized step against the two components the graph build
/// reads. Every variant mutates state the row cache must notice.
#[derive(Debug, Clone)]
enum Op {
    /// Register (or re-register after dropout) a worker.
    Register(u64),
    /// Record a completed task with the given execution time — refits
    /// the latency model, so the cached row must be invalidated.
    Complete { worker: u64, exec: f64, ok: bool },
    /// Record an assignment (flips availability, advances training).
    Assign(u64),
    /// Worker dropout mid-run: the cached row must leave the pool.
    Offline(u64),
    /// Worker returns.
    Online(u64),
    /// Declare or clear a reward range (prunes edges).
    Reward {
        worker: u64,
        range: Option<(f64, f64)>,
    },
    /// Submit a task with the given deadline.
    Submit { id: u64, deadline: f64 },
    /// Assign the oldest unassigned task to a worker, then requeue it
    /// (exercises the assigned-index churn without retiring tasks).
    Churn { worker: u64 },
    /// Advance the build timepoint (changes every `TimeToDeadline`).
    AdvanceTime { dt: f64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..10).prop_map(Op::Register),
        ((0u64..10), (0.5f64..80.0), any::<bool>()).prop_map(|(worker, exec, ok)| Op::Complete {
            worker,
            exec,
            ok
        }),
        (0u64..10).prop_map(Op::Assign),
        (0u64..10).prop_map(Op::Offline),
        (0u64..10).prop_map(Op::Online),
        (
            (0u64..10),
            proptest::option::of((0.01f64..0.5, 0.5f64..2.0))
        )
            .prop_map(|(worker, range)| Op::Reward { worker, range }),
        ((0u64..200), (5.0f64..120.0)).prop_map(|(id, deadline)| Op::Submit { id, deadline }),
        (0u64..10).prop_map(|worker| Op::Churn { worker }),
        (0.5f64..15.0).prop_map(|dt| Op::AdvanceTime { dt }),
    ]
}

/// The latency-model kinds the gate must memoize correctly: the
/// power-law bracket, the empirical step gate, and the KS-driven
/// auto-selector that mixes both.
fn arb_latency_model() -> impl Strategy<Value = LatencyModelKind> {
    prop_oneof![
        Just(LatencyModelKind::PowerLaw),
        Just(LatencyModelKind::Empirical),
        Just(LatencyModelKind::Auto { ks_threshold: 0.3 }),
    ]
}

fn apply(op: &Op, p: &mut ProfilingComponent, tm: &mut TaskManagementComponent, now: &mut f64) {
    match *op {
        Op::Register(w) => {
            let _ = p.register(WorkerId(w), here());
        }
        Op::Complete { worker, exec, ok } => {
            let _ = p.record_completion(
                WorkerId(worker),
                TaskCategory((worker % 2) as u32),
                exec,
                ok,
            );
        }
        Op::Assign(w) => {
            let _ = p.record_assignment(WorkerId(w));
        }
        Op::Offline(w) => {
            let _ = p.set_availability(WorkerId(w), Availability::Offline);
        }
        Op::Online(w) => {
            let _ = p.set_availability(WorkerId(w), Availability::Available);
        }
        Op::Reward { worker, range } => {
            let _ = p.set_reward_range(WorkerId(worker), range);
        }
        Op::Submit { id, deadline } => {
            let _ = tm.submit(
                Task::new(
                    TaskId(id),
                    here(),
                    deadline,
                    0.05,
                    TaskCategory((id % 2) as u32),
                    "prop",
                ),
                *now,
            );
        }
        Op::Churn { worker } => {
            if let Some(&tid) = tm.unassigned().first() {
                if tm.mark_assigned(tid, WorkerId(worker), *now).is_ok() {
                    let _ = tm.mark_unassigned(tid);
                }
            }
        }
        Op::AdvanceTime { dt } => {
            *now += dt;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After every step the incremental build (one scratch carried
    /// across the whole sequence) matches a cold build bit for bit:
    /// same edges, same worker/task index maps, same pruning count.
    #[test]
    fn incremental_build_is_bit_identical_to_cold_build(
        kind in arb_latency_model(),
        ops in proptest::collection::vec(arb_op(), 1..60),
    ) {
        let mut config = Config::with_matcher(MatcherPolicy::React { cycles: 100 });
        config.latency_model = kind;
        let mut p = ProfilingComponent::default();
        let mut tm = TaskManagementComponent::new();
        let mut scratch = BatchScratch::new();
        let mut now = 0.0f64;
        for op in &ops {
            apply(op, &mut p, &mut tm, &mut now);
            let built = scratch.build(&config, &mut p, &tm, now);
            let (cold_workers, cold_tasks, cold_pruned, cold_edges) = {
                let (g, w, t, pr) = SchedulingComponent::build_graph(&config, &mut p, &tm, now);
                (w, t, pr, g.edges().to_vec())
            };
            prop_assert_eq!(built.graph.edges(), &cold_edges[..], "edges diverged after {:?}", op);
            prop_assert_eq!(built.workers, &cold_workers[..]);
            prop_assert_eq!(built.task_ids, &cold_tasks[..]);
            prop_assert_eq!(built.pruned, cold_pruned);
            prop_assert!(built.stats.rows_reused <= built.stats.rows_total);
        }
    }
}

/// End-to-end determinism with faults active: a chaotic scenario driven
/// through the server's scratch-backed tick loop replays bit-identically
/// per seed, and worker dropouts mid-run (which mutate profiles outside
/// the batch path) never desynchronize the row cache. Under
/// `--features debug-invariants` every tick also cross-checks the
/// incremental graph against a cold rebuild.
#[test]
fn faulted_scenario_replays_identically_through_the_scratch() {
    let run = || {
        let mut sc = Scenario::smoke(MatcherPolicy::React { cycles: 200 }, 1717);
        sc.label = "hotpath-faults".to_string();
        sc.n_workers = 40;
        sc.arrival_rate = 3.0;
        sc.total_tasks = 150;
        sc.config.audit = true;
        sc.faults = Some(FaultPlan::chaos(0.6));
        ScenarioRunner::new(sc).run()
    };
    let a = run();
    let b = run();
    assert!(
        a.faults.dropouts > 0,
        "the plan must actually inject dropouts: {:?}",
        a.faults
    );
    assert_eq!(
        a.completed + a.expired_unassigned + a.faults.stranded,
        a.received,
        "task conservation violated: {a:?}"
    );
    assert_eq!(
        a.audit.as_ref().unwrap().events(),
        b.audit.as_ref().unwrap().events(),
        "faulted run must be deterministic per seed"
    );
}
