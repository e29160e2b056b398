//! Property-based tests over arbitrary fault plans (proptest).
//!
//! Three invariants the fault layer must hold for *every* plan, not just
//! the hand-picked golden scenarios:
//!
//! 1. every shard of an uncoupled (single-tier) cluster run conserves
//!    its tasks, faults included;
//! 2. completion-message duplication never double-completes a task;
//! 3. no task is ever silently lost — every received task is completed,
//!    expired, or accounted as stranded, and the audit lifecycles stay
//!    well-formed, even when workers drop out mid-task.

#[path = "common/chaos.rs"]
mod chaos;

use chaos::arb_plan;
use proptest::prelude::*;
use react::cluster::{ClusterPolicy, ClusterRunner, ClusterScenario};
use react::core::{verify_lifecycles, MatcherPolicy, RecoveryConfig, TaskEventKind};
use react::crowd::{RunReport, Scenario, ScenarioRunner};
use react::faults::{DropoutPlan, FaultPlan};
use std::collections::HashMap;

/// The conservation identity every chaotic run must satisfy: nothing the
/// middleware received may vanish.
fn assert_conserved(r: &RunReport) {
    assert_eq!(
        r.completed + r.expired_unassigned + r.faults.stranded,
        r.received,
        "task conservation violated: {:?}",
        r.faults
    );
}

proptest! {
    // Every case is a full end-to-end simulation; keep the counts small.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every region of a multi-region run — a cluster run with no
    /// coupling between its shards — conserves its tasks, whatever faults
    /// are injected.
    #[test]
    fn multi_region_chaos_runs_conserve_tasks_per_region(
        plan in arb_plan(), seed in 0u64..1000
    ) {
        let mut global = Scenario::smoke(MatcherPolicy::React { cycles: 200 }, seed);
        global.n_workers = 40;
        global.total_tasks = 80;
        global.config.recovery = RecoveryConfig::aggressive(30.0);
        global.faults = Some(plan);
        let report = ClusterRunner::new(ClusterScenario {
            global,
            rows: 2,
            cols: 2,
            policy: ClusterPolicy::single_tier(),
        })
        .run();
        for s in &report.shards {
            prop_assert_eq!(
                s.completed + s.expired_unassigned + s.stranded,
                s.received,
                "task conservation violated on {:?}",
                s.server
            );
        }
    }

    /// Completion-message duplication never double-completes a task: the
    /// audit log shows at most one `Completed` event per task, and every
    /// injected duplicate was rejected by the server.
    #[test]
    fn duplication_never_double_completes(
        dup in 0.5f64..=1.0, seed in 0u64..1000
    ) {
        let mut sc = Scenario::smoke(MatcherPolicy::React { cycles: 200 }, seed);
        sc.config.audit = true;
        sc.faults = Some(FaultPlan {
            duplication_probability: dup,
            ..FaultPlan::none()
        });
        let r = ScenarioRunner::new(sc).run();
        prop_assert_eq!(
            r.faults.duplicates_rejected, r.faults.completions_duplicated,
            "every injected duplicate must bounce off the server"
        );
        let log = r.audit.as_ref().unwrap();
        verify_lifecycles(log);
        let mut completions: HashMap<_, u32> = HashMap::new();
        for e in log.events() {
            if matches!(e.kind, TaskEventKind::Completed { .. }) {
                *completions.entry(e.task).or_default() += 1;
            }
        }
        for (task, n) in completions {
            prop_assert_eq!(n, 1, "task {:?} completed {} times", task, n);
        }
    }

    /// Dropped workers never silently swallow tasks: with the recovery
    /// ladder on, every in-flight task of a dropped worker is reassigned
    /// or expired, and the audit lifecycles stay well-formed.
    #[test]
    fn dropouts_never_lose_tasks(
        probability in 0.5f64..=1.0, seed in 0u64..1000
    ) {
        let mut sc = Scenario::smoke(MatcherPolicy::React { cycles: 200 }, seed);
        sc.config.audit = true;
        sc.config.recovery = RecoveryConfig::aggressive(30.0);
        sc.faults = Some(FaultPlan {
            dropout: Some(DropoutPlan {
                probability,
                window: (5.0, 60.0),
                offline_range: Some((20.0, 60.0)),
            }),
            ..FaultPlan::none()
        });
        let r = ScenarioRunner::new(sc).run();
        prop_assert!(r.faults.dropouts > 0, "dropouts must fire at p >= 0.5");
        assert_conserved(&r);
        verify_lifecycles(r.audit.as_ref().unwrap());
    }
}
