//! Model test of the task registry: random sequences of every operation
//! that adds, moves or removes a record, run against a `BTreeMap`
//! reference.
//!
//! Ids come from a sparse space — small ids, burst ids above
//! `BURST_ID_BASE` and strided cluster-like ids — so a removal swaps
//! records between slots far apart in id, and entries coming and going
//! make the registry's hash index rehash. After every step the component
//! must answer as the reference does: each `record()`, `len()`, `iter()`
//! in ascending id order, `assigned()` in ascending `(task, worker)`
//! order, `unassigned()` in queue order, `open_count()`, and the `Err` of
//! an operation on an unknown or duplicate id.
//!
//! Under `--features debug-invariants` every read also re-derives the
//! in-flight index and the queue columns from the registry and checks the
//! slot index against the table; `PROPTEST_CASES` widens the run (CI:
//! 1024 cases in release).

mod common;

use proptest::prelude::*;
use react::core::{
    CoreError, Task, TaskCategory, TaskId, TaskManagementComponent, TaskState, WorkerId,
};
use react::faults::BURST_ID_BASE;
use react::geo::GeoPoint;
use std::collections::BTreeMap;

/// Which task an operation names.
#[derive(Debug, Clone, Copy)]
enum Pick {
    /// Any id of the sparse space, tracked or not.
    Any(u64),
    /// The `n`-th tracked id (modulo their number).
    Tracked(usize),
    /// The `n`-th in-flight id (modulo their number).
    InFlight(usize),
}

#[derive(Debug, Clone)]
enum Op {
    Submit { id: u64, deadline: f64, reward: f64 },
    Advance(f64),
    Assign { pick: Pick, worker: u64 },
    Unassign(Pick),
    Complete { pick: Pick, right_worker: bool },
    Expire,
    TakeOldest,
    Prune(f64),
}

fn arb_id() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..24,
        (0u64..24).prop_map(|k| BURST_ID_BASE + k),
        (0u64..24).prop_map(|k| (k << 20) | 5),
    ]
}

fn arb_pick() -> impl Strategy<Value = Pick> {
    prop_oneof![
        arb_id().prop_map(Pick::Any),
        (0usize..64).prop_map(Pick::Tracked),
        (0usize..64).prop_map(Pick::InFlight),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Few distinct deadlines, so expiries land exactly on a tick.
    let deadline = (0usize..4).prop_map(|i| [2.0, 5.0, 12.5, 40.0][i]);
    let reward = (0usize..3).prop_map(|i| [0.01, 0.05, 0.2][i]);
    prop_oneof![
        (arb_id(), deadline, reward).prop_map(|(id, deadline, reward)| Op::Submit {
            id,
            deadline,
            reward
        }),
        (arb_id(), Just(40.0), Just(0.05)).prop_map(|(id, deadline, reward)| Op::Submit {
            id,
            deadline,
            reward
        }),
        (0usize..3).prop_map(|i| Op::Advance([0.5, 1.5, 4.0][i])),
        (arb_pick(), 0u64..6).prop_map(|(pick, worker)| Op::Assign { pick, worker }),
        (arb_pick(), 0u64..6).prop_map(|(pick, worker)| Op::Assign { pick, worker }),
        arb_pick().prop_map(Op::Unassign),
        (arb_pick(), any::<bool>())
            .prop_map(|(pick, right_worker)| Op::Complete { pick, right_worker }),
        Just(Op::Expire),
        Just(Op::TakeOldest),
        (0usize..3).prop_map(|i| Op::Prune([0.0, 3.0, 30.0][i])),
    ]
}

/// What the reference keeps of one task.
#[derive(Debug, Clone)]
struct Ref {
    submitted_at: f64,
    deadline: f64,
    reward: f64,
    state: TaskState,
    assignment_count: u32,
}

impl Ref {
    fn deadline_at(&self) -> f64 {
        self.submitted_at + self.deadline
    }
}

/// The reference registry: records by id, and the queue oldest first.
#[derive(Default)]
struct Model {
    tasks: BTreeMap<TaskId, Ref>,
    queue: Vec<TaskId>,
}

impl Model {
    fn pick(&self, pick: Pick) -> TaskId {
        let nth = |ids: Vec<TaskId>, n: usize| ids.get(n % ids.len().max(1)).copied();
        let chosen = match pick {
            Pick::Any(id) => Some(TaskId(id)),
            Pick::Tracked(n) => nth(self.tasks.keys().copied().collect(), n),
            Pick::InFlight(n) => nth(self.assigned().iter().map(|&(t, _)| t).collect(), n),
        };
        // Nothing of the kind tracked: a sparse id nobody submitted.
        chosen.unwrap_or(TaskId(BURST_ID_BASE - 1))
    }

    fn assigned(&self) -> Vec<(TaskId, WorkerId)> {
        let held = |(&id, r): (&TaskId, &Ref)| match r.state {
            TaskState::Assigned { worker, .. } => Some((id, worker)),
            _ => None,
        };
        self.tasks.iter().filter_map(held).collect()
    }

    fn submit(
        &mut self,
        id: TaskId,
        deadline: f64,
        reward: f64,
        now: f64,
    ) -> Result<(), CoreError> {
        if self.tasks.contains_key(&id) {
            return Err(CoreError::DuplicateTask(id));
        }
        let rec = Ref {
            submitted_at: now,
            deadline,
            reward,
            state: TaskState::Unassigned,
            assignment_count: 0,
        };
        self.tasks.insert(id, rec);
        self.queue.push(id);
        Ok(())
    }

    fn assign(&mut self, id: TaskId, worker: WorkerId, now: f64) -> Result<(), CoreError> {
        let rec = self.tasks.get_mut(&id).ok_or(CoreError::UnknownTask(id))?;
        rec.state = TaskState::Assigned {
            worker,
            assigned_at: now,
        };
        rec.assignment_count += 1;
        self.queue.retain(|&t| t != id);
        Ok(())
    }

    fn unassign(&mut self, id: TaskId) -> Result<WorkerId, CoreError> {
        let rec = self.tasks.get_mut(&id).ok_or(CoreError::UnknownTask(id))?;
        let TaskState::Assigned { worker, .. } = rec.state else {
            return Err(CoreError::NotAssigned {
                task: id,
                worker: WorkerId(u64::MAX),
            });
        };
        rec.state = TaskState::Unassigned;
        self.queue.push(id);
        Ok(worker)
    }

    fn complete(&mut self, id: TaskId, worker: WorkerId, now: f64) -> Result<bool, CoreError> {
        let rec = self.tasks.get_mut(&id).ok_or(CoreError::UnknownTask(id))?;
        match rec.state {
            TaskState::Assigned { worker: w, .. } if w == worker => {
                let met_deadline = now <= rec.deadline_at();
                rec.state = TaskState::Completed {
                    worker,
                    completed_at: now,
                    met_deadline,
                };
                Ok(met_deadline)
            }
            _ => Err(CoreError::NotAssigned { task: id, worker }),
        }
    }

    fn retire(&mut self, ids: &[TaskId]) {
        for id in ids {
            self.tasks
                .get_mut(id)
                .expect("queued task is tracked")
                .state = TaskState::Expired;
        }
        self.queue.retain(|t| !ids.contains(t));
    }

    fn expire(&mut self, now: f64) -> Vec<TaskId> {
        let overdue: Vec<TaskId> = self
            .queue
            .iter()
            .copied()
            .filter(|id| self.tasks[id].deadline_at() - now <= 0.0)
            .collect();
        self.retire(&overdue);
        overdue
    }

    fn take_oldest(&mut self) -> Option<(TaskId, Ref)> {
        if self.queue.is_empty() {
            return None;
        }
        let id = self.queue.remove(0);
        self.tasks.remove(&id).map(|rec| (id, rec))
    }

    fn prune(&mut self, now: f64, horizon: f64) -> usize {
        let before = self.tasks.len();
        self.tasks.retain(|_, rec| match rec.state {
            TaskState::Completed { completed_at, .. } => completed_at + horizon > now,
            TaskState::Expired => rec.deadline_at() + horizon > now,
            _ => true,
        });
        before - self.tasks.len()
    }
}

fn task(id: TaskId, deadline: f64, reward: f64) -> Task {
    let at = GeoPoint::new(37.98, 23.72);
    Task::new(id, at, deadline, reward, TaskCategory(0), "registry")
}

/// Everything the component says about its tasks equals the reference.
fn agree(tm: &TaskManagementComponent, model: &Model, probe: TaskId) -> Result<(), TestCaseError> {
    prop_assert_eq!(tm.len(), model.tasks.len());
    prop_assert_eq!(tm.is_empty(), model.tasks.is_empty());
    for (&id, want) in &model.tasks {
        let rec = tm.record(id);
        prop_assert!(rec.is_ok(), "{id} is tracked");
        let rec = rec.expect("checked above");
        prop_assert_eq!(rec.task.id, id);
        prop_assert_eq!(rec.submitted_at.to_bits(), want.submitted_at.to_bits());
        prop_assert_eq!(rec.deadline_at().to_bits(), want.deadline_at().to_bits());
        prop_assert_eq!(rec.task.reward.to_bits(), want.reward.to_bits());
        prop_assert_eq!(rec.state, want.state, "state of {}", id);
        prop_assert_eq!(rec.assignment_count, want.assignment_count);
    }
    if !model.tasks.contains_key(&probe) {
        prop_assert_eq!(tm.record(probe).err(), Some(CoreError::UnknownTask(probe)));
    }
    let ids: Vec<TaskId> = tm.iter().map(|rec| rec.task.id).collect();
    let want: Vec<TaskId> = model.tasks.keys().copied().collect();
    prop_assert_eq!(ids, want, "iter() in ascending id order");
    let assigned = model.assigned();
    prop_assert_eq!(tm.assigned().collect::<Vec<_>>(), assigned.clone());
    prop_assert_eq!(tm.assigned_count(), assigned.len());
    prop_assert_eq!(tm.unassigned(), &model.queue[..]);
    prop_assert_eq!(tm.unassigned_count(), model.queue.len());
    prop_assert_eq!(tm.open_count(), model.queue.len() + assigned.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(64)))]

    #[test]
    fn registry_answers_as_a_btreemap_reference(ops in proptest::collection::vec(arb_op(), 1..160)) {
        let mut tm = TaskManagementComponent::new();
        let mut model = Model::default();
        let mut now = 0.0f64;
        for op in ops {
            let mut probe = TaskId(BURST_ID_BASE - 1);
            match op {
                Op::Submit { id, deadline, reward } => {
                    let id = TaskId(id);
                    probe = id;
                    let want = model.submit(id, deadline, reward, now);
                    prop_assert_eq!(tm.submit(task(id, deadline, reward), now), want);
                }
                Op::Advance(dt) => now += dt,
                Op::Assign { pick, worker } => {
                    let id = model.pick(pick);
                    probe = id;
                    let want = model.assign(id, WorkerId(worker), now);
                    prop_assert_eq!(tm.mark_assigned(id, WorkerId(worker), now), want);
                }
                Op::Unassign(pick) => {
                    let id = model.pick(pick);
                    probe = id;
                    prop_assert_eq!(tm.mark_unassigned(id), model.unassign(id));
                }
                Op::Complete { pick, right_worker } => {
                    let id = model.pick(pick);
                    probe = id;
                    let holder = model.tasks.get(&id).and_then(|r| r.state.assigned_worker());
                    let worker = match (holder, right_worker) {
                        (Some(w), true) => w,
                        (Some(w), false) => WorkerId(w.0 + 1),
                        (None, _) => WorkerId(0),
                    };
                    prop_assert_eq!(tm.complete(id, worker, now), model.complete(id, worker, now));
                }
                Op::Expire => {
                    let mut out = vec![TaskId(u64::MAX)];
                    tm.expire_overdue_unassigned(now, &mut out);
                    prop_assert_eq!(&out[1..], &model.expire(now)[..], "expiry at {}", now);
                }
                Op::TakeOldest => {
                    let taken = tm.take_oldest_unassigned();
                    let want = model.take_oldest();
                    prop_assert_eq!(taken.is_some(), want.is_some());
                    if let (Some(rec), Some((id, want))) = (taken, want) {
                        probe = id;
                        prop_assert_eq!(rec.task.id, id);
                        prop_assert_eq!(rec.submitted_at.to_bits(), want.submitted_at.to_bits());
                        prop_assert_eq!(rec.state, TaskState::Unassigned);
                        prop_assert_eq!(rec.assignment_count, want.assignment_count);
                    }
                }
                Op::Prune(horizon) => {
                    prop_assert_eq!(tm.prune_retired(now, horizon), model.prune(now, horizon));
                }
            }
            agree(&tm, &model, probe)?;
        }
    }
}
