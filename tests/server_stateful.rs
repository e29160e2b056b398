//! Stateful property test: random operation sequences against the
//! middleware, checked against a simple reference model.
//!
//! Invariants enforced after every step:
//! * a worker never executes two tasks at once under an
//!   availability-aware policy;
//! * completed/expired tasks never come back;
//! * the unassigned pool plus in-flight assignments plus retired tasks
//!   account for every submission;
//! * the unassigned queue is, id for id and in order, what the reference
//!   queue says: submissions join at the back, recalled tasks rejoin at
//!   the back, expired and assigned ones leave from wherever they sit;
//! * operations on unknown ids fail without corrupting state.
//!
//! Under `--features debug-invariants` every tick additionally re-derives
//! the queue's columns from the task registry; `PROPTEST_CASES` widens
//! the run (CI: 1024 cases in release).

mod common;

use proptest::prelude::*;
use react::core::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone)]
enum Op {
    RegisterWorker(u64),
    SubmitTask { id: u64, deadline: f64 },
    Tick { dt: f64 },
    CompleteOldest { exec: f64, quality_ok: bool },
    WorkerOffline(u64),
    WorkerOnline(u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..8).prop_map(Op::RegisterWorker),
        ((0u64..64), (5.0f64..90.0)).prop_map(|(id, deadline)| Op::SubmitTask { id, deadline }),
        (0.5f64..20.0).prop_map(|dt| Op::Tick { dt }),
        ((0.5f64..40.0), any::<bool>())
            .prop_map(|(exec, quality_ok)| Op::CompleteOldest { exec, quality_ok }),
        (0u64..8).prop_map(Op::WorkerOffline),
        (0u64..8).prop_map(Op::WorkerOnline),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(48)))]

    #[test]
    fn random_op_sequences_preserve_invariants(ops in proptest::collection::vec(arb_op(), 1..80)) {
        let here = GeoPoint::new(37.98, 23.72);
        let mut config = Config::paper_defaults();
        config.batch = BatchTrigger { min_unassigned: 1, period: None };
        config.audit = true;
        config.charge_matching_time = false;
        let mut server = ServerBuilder::new(config)
            .seed(99)
            .build()
            .expect("valid config");

        let mut now = 0.0f64;
        let mut submitted: BTreeSet<TaskId> = BTreeSet::new();
        // Reference view of live assignments: task → worker.
        let mut live: BTreeMap<TaskId, WorkerId> = BTreeMap::new();
        let mut retired: BTreeSet<TaskId> = BTreeSet::new();
        // Reference view of the unassigned queue, oldest first.
        let mut queue: Vec<TaskId> = Vec::new();

        // A tick's stages in their order: expire, recall, then the batch.
        let apply_outcome = |out: &react::core::TickOutcome,
                                 live: &mut BTreeMap<TaskId, WorkerId>,
                                 retired: &mut BTreeSet<TaskId>,
                                 queue: &mut Vec<TaskId>| {
            for task in &out.expired {
                live.remove(task);
                retired.insert(*task);
            }
            queue.retain(|task| !out.expired.contains(task));
            for recall in &out.recalls {
                live.remove(&recall.task);
                queue.push(recall.task);
            }
            for &(worker, task) in &out.assignments {
                prop_assert!(!retired.contains(&task), "retired task reassigned");
                let clash = live.values().filter(|&&w| w == worker).count();
                prop_assert_eq!(clash, 0, "worker {:?} double-booked", worker);
                live.insert(task, worker);
                queue.retain(|&queued| queued != task);
            }
            Ok(())
        };

        for op in ops {
            match op {
                Op::RegisterWorker(w) => {
                    server.register_worker(WorkerId(w), here);
                }
                Op::SubmitTask { id, deadline } => {
                    // Duplicate ids are dropped by the server; the
                    // reference set mirrors that via insert()'s result.
                    if submitted.insert(TaskId(id)) {
                        queue.push(TaskId(id));
                    }
                    server.submit_task(
                        Task::new(TaskId(id), here, deadline, 0.05, TaskCategory(0), "t"),
                        now,
                    );
                }
                Op::Tick { dt } => {
                    now += dt;
                    let out = server.tick(now);
                    apply_outcome(out, &mut live, &mut retired, &mut queue)?;
                }
                Op::CompleteOldest { exec, quality_ok } => {
                    if let Some((&task, &worker)) =
                        live.iter().min_by_key(|(t, _)| t.0)
                    {
                        now += exec;
                        let res = server.complete_task(task, worker, now, quality_ok);
                        prop_assert!(res.is_ok(), "live assignment must complete: {res:?}");
                        live.remove(&task);
                        retired.insert(task);
                    } else {
                        // Nothing live: completing an unknown pair must
                        // fail and change nothing.
                        prop_assert!(server
                            .complete_task(TaskId(9999), WorkerId(0), now, quality_ok)
                            .is_err());
                    }
                }
                Op::WorkerOffline(w) => {
                    for task in server.worker_offline(WorkerId(w), now) {
                        live.remove(&task);
                        queue.push(task);
                    }
                }
                Op::WorkerOnline(w) => {
                    let _ = server.worker_online(WorkerId(w));
                }
            }

            // Cross-check the server against the reference model.
            prop_assert_eq!(server.tasks().unassigned(), &queue[..], "queue diverged");
            let assigned: Vec<_> = server.tasks().assigned().collect();
            prop_assert_eq!(assigned.len(), live.len(), "assignment count mismatch");
            for (task, worker) in &assigned {
                prop_assert_eq!(live.get(task), Some(worker), "assignment map diverged");
            }
            // Retired tasks never reappear as open.
            for task in &retired {
                if let Ok(rec) = server.tasks().record(*task) {
                    prop_assert!(
                        !rec.state.is_open(),
                        "retired {:?} came back as {:?}",
                        task,
                        rec.state
                    );
                }
            }
            // Conservation: every submission is open, live or retired.
            for task in &submitted {
                let rec = server.tasks().record(*task);
                prop_assert!(rec.is_ok(), "submitted task vanished: {:?}", task);
                match rec.unwrap().state {
                    TaskState::Unassigned => {}
                    TaskState::Assigned { .. } => {
                        prop_assert!(live.contains_key(task));
                    }
                    TaskState::Completed { .. } | TaskState::Expired => {
                        prop_assert!(retired.contains(task));
                    }
                }
            }
        }

        // The audit log, if any activity occurred, must be legal.
        if let Some(log) = server.audit() {
            react::core::verify_lifecycles(log);
        }
    }
}
