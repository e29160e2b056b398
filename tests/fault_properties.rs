//! Property-based tests over arbitrary fault plans (proptest).
//!
//! Three invariants the fault layer must hold for *every* plan, not just
//! the hand-picked golden scenarios:
//!
//! 1. every region of a multi-region run conserves its tasks, faults
//!    included;
//! 2. completion-message duplication never double-completes a task;
//! 3. no task is ever silently lost — every received task is completed,
//!    expired, or accounted as stranded, and the audit lifecycles stay
//!    well-formed, even when workers drop out mid-task.

use proptest::prelude::*;
use react::core::{verify_lifecycles, MatcherPolicy, RecoveryConfig, TaskEventKind};
use react::crowd::{MultiRegionRunner, MultiRegionScenario, RunReport, Scenario, ScenarioRunner};
use react::faults::{BurstPlan, DropoutPlan, FaultPlan, StragglerPlan};
use std::collections::HashMap;

/// Strategy: an arbitrary well-formed [`FaultPlan`] mixing every fault
/// kind at bounded rates.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        proptest::option::of((0.0f64..=1.0, 5.0f64..40.0, 10.0f64..30.0)),
        proptest::option::of((0.0f64..=1.0, 1.6f64..4.0)),
        0.0f64..0.4,
        0.0f64..0.4,
        0.0f64..0.6,
        proptest::option::of((1u32..3, 1u32..8)),
    )
        .prop_map(|(dropout, straggler, abandon, loss, dup, bursts)| {
            let plan = FaultPlan {
                dropout: dropout.map(|(probability, start, span)| DropoutPlan {
                    probability,
                    window: (start, start + span),
                    offline_range: Some((10.0, 40.0)),
                }),
                straggler: straggler.map(|(fraction, hi)| StragglerPlan {
                    fraction,
                    factor_range: (1.5, hi),
                }),
                abandon_probability: abandon,
                loss_probability: loss,
                duplication_probability: dup,
                bursts: bursts.map(|(count, size)| BurstPlan {
                    count,
                    size,
                    window: (10.0, 50.0),
                }),
            };
            plan.validate().expect("strategy emits only valid plans");
            plan
        })
}

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

    /// Every region of a multi-region run conserves its tasks, whatever
    /// faults are injected.
    #[test]
    fn multi_region_chaos_runs_conserve_tasks_per_region(
        plan in arb_plan(), seed in 0u64..1000
    ) {
        let mut global = Scenario::smoke(MatcherPolicy::React { cycles: 200 }, seed);
        global.n_workers = 40;
        global.total_tasks = 80;
        global.config.recovery = RecoveryConfig::aggressive(30.0);
        global.faults = Some(plan);
        let report = MultiRegionRunner::new(MultiRegionScenario {
            global,
            rows: 2,
            cols: 2,
        })
        .run();
        for (_, r) in &report.per_region {
            assert_conserved(r);
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
