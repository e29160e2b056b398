//! Stateful property tests of [`Crowd`], the one worker-side model the
//! two discrete-event runners and the live scheduler thread drive.
//!
//! Random tick outcomes (recall / expire / shed / assign batches whose
//! `effective_at` is at or after `now`), worker departures and clock
//! advances over four workers and a handful of task ids, **under a
//! materialised `FaultPlan::chaos`**, against a reference model that is
//! the event arm the drivers used to carry written out plainly: a
//! per-task epoch map that is never pruned, a `next_free` vector and
//! `(task, epoch)`-keyed fault shims. On top of agreeing with the model:
//!
//! * an attempt that was recalled, abandoned or whose report the plan
//!   loses never delivers, and an assignment delivers at most once;
//! * delivery instants never go backwards;
//! * `next_due` is the earliest finish among the live assignments — never
//!   an entry a recall left behind. (A report the plan will lose is still
//!   a due instant: the worker does finish then, and the loss is counted
//!   then and only if no recall came first.)
//! * abandons and lost reports are each counted once;
//! * the crowd's per-task state is bounded by the tasks the middleware
//!   still holds, and empty once every task is delivered, expired or
//!   shed.
//!
//! The second property is the first piece of the DES-vs-live oracle: the
//! same script driven at exact due instants (the runners) and polled at
//! late, irregular instants (the scheduler thread) yields the same run.
//!
//! No threads, no clock: every call takes its crowd time. `PROPTEST_CASES`
//! widens the run (CI: 1024 cases in release).

mod common;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use react::core::dynamic::Recall;
use react::core::{TaskId, TickOutcome, WorkerId};
use react::crowd::{Crowd, Delivery, WorkerBehavior};
use react::faults::{FaultPlan, FaultSchedule};
use react::prob::distributions::UniformRange;
use react::sim::RngStreams;
use std::collections::{BTreeMap, BTreeSet};

const WORKERS: usize = 4;
/// Task slots; a slot's id changes once its task is retired, because a
/// middleware never hands out a completed, expired or shed task again.
const SLOTS: u64 = 8;

#[derive(Debug, Clone)]
enum Op {
    /// One control step. Picks that are illegal in the current state (a
    /// recall of a queued task, an assignment of a held one) are dropped.
    Tick {
        recalls: Vec<u64>,
        retire: Vec<u64>,
        assigns: Vec<(usize, u64)>,
        charge: f64,
    },
    Offline {
        worker: usize,
    },
    Advance {
        dt: f64,
    },
}

fn arb_tick() -> impl Strategy<Value = Op> {
    (
        proptest::collection::vec(0..SLOTS, 0..3),
        proptest::collection::vec(0..SLOTS, 0..2),
        proptest::collection::vec((0..WORKERS, 0..SLOTS), 0..4),
        prop_oneof![Just(0.0), 0.0f64..5.0],
    )
        .prop_map(|(recalls, retire, assigns, charge)| Op::Tick {
            recalls,
            retire,
            assigns,
            charge,
        })
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Twice the weight on control steps keeps the calendars populated.
    prop_oneof![
        arb_tick(),
        arb_tick(),
        (0..WORKERS).prop_map(|worker| Op::Offline { worker }),
        (0.0f64..40.0).prop_map(|dt| Op::Advance { dt }),
    ]
}

/// The paper's uniform-with-delay workers; the first always earns
/// positive feedback, the second never.
fn behaviors() -> Vec<WorkerBehavior> {
    [1.0, 0.0, 0.7, 0.3]
        .into_iter()
        .map(|quality| WorkerBehavior::uniform(UniformRange::new(1.0, 20.0), 0.5, 130.0, quality))
        .collect()
}

/// Chaos with the per-attempt shims turned up so every case meets them.
fn plan() -> FaultPlan {
    FaultPlan {
        abandon_probability: 0.2,
        loss_probability: 0.2,
        duplication_probability: 0.2,
        ..FaultPlan::chaos(1.0)
    }
}

/// The middleware's side of the script: which worker holds which task.
/// Turns raw picks into the outcomes a server could have produced.
struct Middleware {
    /// Per slot: how many tasks it has retired, and the holder of the
    /// current one.
    slots: Vec<(u64, Option<usize>)>,
}

impl Middleware {
    fn new() -> Self {
        Middleware {
            slots: vec![(0, None); SLOTS as usize],
        }
    }

    fn id(&self, slot: u64) -> TaskId {
        TaskId(slot + SLOTS * self.slots[slot as usize].0)
    }

    fn tick(
        &mut self,
        recalls: &[u64],
        retire: &[u64],
        assigns: &[(usize, u64)],
        effective_at: f64,
    ) -> TickOutcome {
        let mut outcome = TickOutcome {
            effective_at,
            ..TickOutcome::default()
        };
        for &slot in recalls {
            if let Some(worker) = self.slots[slot as usize].1.take() {
                outcome.recalls.push(Recall {
                    task: self.id(slot),
                    worker: WorkerId(worker as u64),
                    probability: 0.0,
                });
            }
        }
        for (i, &slot) in retire.iter().enumerate() {
            if self.slots[slot as usize].1.is_none() {
                let gone = if i % 2 == 0 {
                    &mut outcome.expired
                } else {
                    &mut outcome.shed
                };
                gone.push(self.id(slot));
                self.slots[slot as usize].0 += 1;
            }
        }
        for &(worker, slot) in assigns {
            if self.slots[slot as usize].1.is_none() {
                self.slots[slot as usize].1 = Some(worker);
                outcome
                    .assignments
                    .push((WorkerId(worker as u64), self.id(slot)));
            }
        }
        outcome
    }

    fn offline(&mut self, worker: usize) -> Vec<TaskId> {
        let mut recalled = Vec::new();
        for slot in 0..SLOTS {
            if self.slots[slot as usize].1 == Some(worker) {
                self.slots[slot as usize].1 = None;
                recalled.push(self.id(slot));
            }
        }
        recalled
    }

    /// Books a completion; panics unless `done.worker` holds `done.task`.
    fn complete(&mut self, done: &Delivery) {
        let slot = done.task.0 % SLOTS;
        assert_eq!(
            self.id(slot),
            done.task,
            "a retired task was delivered: {done:?}"
        );
        assert_eq!(
            self.slots[slot as usize].1.take(),
            Some(done.worker.0 as usize),
            "delivered by a worker that does not hold it: {done:?}"
        );
        self.slots[slot as usize].0 += 1;
    }

    /// Everything still open, as a last control step: held tasks are
    /// recalled, then every slot's task expires.
    fn close_out(&mut self, now: f64) -> TickOutcome {
        let all: Vec<u64> = (0..SLOTS).collect();
        let mut outcome = self.tick(&all, &[], &[], now);
        outcome.expired = all.iter().map(|&slot| self.id(slot)).collect();
        outcome
    }
}

/// A pending finish event of the reference model.
#[derive(Debug, Clone, Copy)]
struct Finish {
    at: f64,
    worker: WorkerId,
    task: TaskId,
    epoch: u32,
}

/// The reference: what `ScenarioRunner::control_step` and its
/// `Event::Finish` arm did before the crowd existed.
struct Model {
    behaviors: Vec<WorkerBehavior>,
    rng: SmallRng,
    schedule: FaultSchedule,
    epochs: BTreeMap<TaskId, u32>,
    next_free: Vec<f64>,
    /// In scheduling order, so the first of several equal instants is the
    /// one scheduled first.
    finishes: Vec<Finish>,
    abandons: u64,
    lost: u64,
}

impl Model {
    fn new(seed: u64) -> Self {
        let streams = RngStreams::new(seed);
        Model {
            behaviors: behaviors(),
            rng: streams.stream("behavior"),
            schedule: plan().materialize(&streams, WORKERS),
            epochs: BTreeMap::new(),
            next_free: vec![0.0; WORKERS],
            finishes: Vec::new(),
            abandons: 0,
            lost: 0,
        }
    }

    fn apply(&mut self, outcome: &TickOutcome, now: f64) {
        for recall in &outcome.recalls {
            *self.epochs.entry(recall.task).or_insert(0) += 1;
            self.next_free[recall.worker.0 as usize] = now;
        }
        for &(worker, task) in &outcome.assignments {
            let epoch = {
                let e = self.epochs.entry(task).or_insert(0);
                *e += 1;
                *e
            };
            let w = worker.0 as usize;
            let start = outcome.effective_at.max(self.next_free[w]);
            let exec_time = self.behaviors[w].sample_exec_time(&mut self.rng)
                * self.schedule.slowdown_factor(w);
            self.next_free[w] = start + exec_time;
            if self.schedule.abandons(task.0, epoch) {
                self.abandons += 1;
                continue;
            }
            self.finishes.push(Finish {
                at: start + exec_time,
                worker,
                task,
                epoch,
            });
        }
    }

    fn offline(&mut self, worker: WorkerId, recalled: &[TaskId], now: f64) {
        for &task in recalled {
            *self.epochs.entry(task).or_insert(0) += 1;
        }
        self.next_free[worker.0 as usize] = now;
    }

    fn live(&self, f: &Finish) -> bool {
        self.epochs.get(&f.task) == Some(&f.epoch)
    }

    fn next_due(&self) -> Option<f64> {
        self.finishes
            .iter()
            .filter(|f| self.live(f))
            .map(|f| f.at)
            .min_by(f64::total_cmp)
    }

    /// Fires every finish event up to and including `now`, in time then
    /// scheduling order, and returns what reached the middleware with
    /// the epoch it was assigned under.
    fn advance(&mut self, now: f64) -> Vec<(Delivery, u32)> {
        let mut delivered = Vec::new();
        loop {
            let next = self
                .finishes
                .iter()
                .enumerate()
                .filter(|(_, f)| f.at <= now)
                .min_by(|a, b| a.1.at.total_cmp(&b.1.at))
                .map(|(i, _)| i);
            let Some(i) = next else {
                return delivered;
            };
            let f = self.finishes.remove(i);
            if !self.live(&f) {
                continue;
            }
            if self.schedule.loses_completion(f.task.0, f.epoch) {
                self.lost += 1;
                continue;
            }
            let quality_ok = self.behaviors[f.worker.0 as usize].sample_quality_ok(&mut self.rng);
            delivered.push((
                Delivery {
                    worker: f.worker,
                    task: f.task,
                    at: f.at,
                    quality_ok,
                    duplicated: self.schedule.duplicates_completion(f.task.0, f.epoch),
                },
                f.epoch,
            ));
        }
    }
}

fn crowd(seed: u64) -> Crowd {
    Crowd::new(behaviors(), Some(&plan()), &RngStreams::new(seed))
}

/// One step of a recorded script.
enum Step {
    Apply(Box<TickOutcome>),
    Offline(WorkerId, Vec<TaskId>),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(256)))]

    #[test]
    fn crowd_matches_the_event_arm_it_replaced(
        seed in 0u64..1 << 20,
        ops in proptest::collection::vec(arb_op(), 1..120),
    ) {
        let mut crowd = crowd(seed);
        let mut model = Model::new(seed);
        let mut middleware = Middleware::new();
        // Assignments applied and not recalled since, with their epoch:
        // what is allowed to deliver, once each.
        let mut live: BTreeMap<(WorkerId, TaskId), u32> = BTreeMap::new();
        let mut now = 0.0f64;
        let mut last_delivery = 0.0f64;

        for op in ops.iter().map(Some).chain(std::iter::once(None)) {
            match op {
                Some(Op::Tick { recalls, retire, assigns, charge }) => {
                    let outcome = middleware.tick(recalls, retire, assigns, now + charge);
                    for recall in &outcome.recalls {
                        live.remove(&(recall.worker, recall.task));
                    }
                    crowd.apply(&outcome, now);
                    model.apply(&outcome, now);
                    for &(worker, task) in &outcome.assignments {
                        live.insert((worker, task), model.epochs[&task]);
                    }
                }
                Some(Op::Offline { worker }) => {
                    let recalled = middleware.offline(*worker);
                    let worker = WorkerId(*worker as u64);
                    for &task in &recalled {
                        live.remove(&(worker, task));
                    }
                    crowd.offline(worker, &recalled, now);
                    model.offline(worker, &recalled, now);
                }
                Some(Op::Advance { dt }) => {
                    now += dt;
                    let expected = model.advance(now);
                    let mut reported = Vec::new();
                    loop {
                        let due = crowd.next_due();
                        let Some(done) = crowd.pop_due(now) else {
                            prop_assert!(
                                !crowd.next_due().is_some_and(|at| at <= now),
                                "still due at {:?} <= now {} but nothing popped", due, now
                            );
                            break;
                        };
                        prop_assert!(
                            due.is_some_and(|at| at <= done.at) && done.at <= now,
                            "delivered {:?} with next_due {:?} at now {}", done, due, now
                        );
                        prop_assert!(
                            done.at >= last_delivery,
                            "delivery instants went backwards: {} after {}", done.at, last_delivery
                        );
                        last_delivery = done.at;
                        let epoch = live.remove(&(done.worker, done.task));
                        prop_assert!(
                            epoch.is_some(),
                            "{:?} delivered twice or after its recall", done
                        );
                        let epoch = epoch.expect("just checked");
                        prop_assert!(
                            !model.schedule.abandons(done.task.0, epoch)
                                && !model.schedule.loses_completion(done.task.0, epoch),
                            "attempt {} of {:?} was struck by the plan yet delivered", epoch, done.task
                        );
                        middleware.complete(&done);
                        reported.push((done, epoch));
                    }
                    prop_assert_eq!(reported, expected);
                }
                // After the last op: close everything out.
                None => {
                    let outcome = middleware.close_out(now);
                    crowd.apply(&outcome, now);
                    model.apply(&outcome, now);
                    prop_assert_eq!(crowd.pop_due(f64::INFINITY), None);
                    prop_assert_eq!(
                        crowd.tracked_tasks(), 0,
                        "every task is delivered, expired or shed, yet state remains"
                    );
                }
            }
            prop_assert_eq!(crowd.next_due(), model.next_due());
            prop_assert_eq!((crowd.abandoned(), crowd.lost()), (model.abandons, model.lost));
            prop_assert!(
                crowd.tracked_tasks() <= SLOTS as usize,
                "the crowd tracks {} tasks, the middleware holds at most {}",
                crowd.tracked_tasks(), SLOTS
            );
        }
    }

    #[test]
    fn late_irregular_polling_yields_the_run_exact_instants_yield(
        seed in 0u64..1 << 20,
        ops in proptest::collection::vec(arb_op(), 1..120),
    ) {
        // The way a discrete-event runner drives it: every completion is
        // popped at its own due instant, before the loop's next event.
        let mut des = crowd(seed);
        let mut middleware = Middleware::new();
        let mut script: Vec<(f64, Step)> = Vec::new();
        let mut exact = Vec::new();
        let mut now = 0.0f64;
        for op in &ops {
            if let Op::Advance { dt } = op {
                now += dt;
            }
            while let Some(at) = des.next_due().filter(|&at| at <= now) {
                // `None`: the report due at `at` was lost in flight.
                if let Some(done) = des.pop_due(at) {
                    prop_assert_eq!(done.at, at);
                    middleware.complete(&done);
                    exact.push(done);
                }
            }
            match op {
                Op::Tick { recalls, retire, assigns, charge } => {
                    let outcome = middleware.tick(recalls, retire, assigns, now + charge);
                    des.apply(&outcome, now);
                    script.push((now, Step::Apply(Box::new(outcome))));
                }
                Op::Offline { worker } => {
                    let recalled = middleware.offline(*worker);
                    let worker = WorkerId(*worker as u64);
                    des.offline(worker, &recalled, now);
                    script.push((now, Step::Offline(worker, recalled)));
                }
                Op::Advance { .. } => {}
            }
        }
        while let Some(done) = des.pop_due(f64::INFINITY) {
            exact.push(done);
        }

        // The way the scheduler thread drives it: it looks only when it
        // wakes for a control step — late, however many completions fell
        // due meanwhile — and asks for its next wake-up in between.
        let mut live = crowd(seed);
        let mut polled = Vec::new();
        for (now, step) in &script {
            while let Some(done) = live.pop_due(*now) {
                polled.push(done);
            }
            let _wake = live.next_due();
            match step {
                Step::Apply(outcome) => live.apply(outcome, *now),
                Step::Offline(worker, recalled) => live.offline(*worker, recalled, *now),
            }
        }
        while let Some(done) = live.pop_due(f64::INFINITY) {
            polled.push(done);
        }

        prop_assert_eq!(&polled, &exact);
        prop_assert_eq!((live.abandoned(), live.lost()), (des.abandoned(), des.lost()));
        let tasks: BTreeSet<_> = exact.iter().map(|d| d.task).collect();
        prop_assert_eq!(tasks.len(), exact.len(), "a task was delivered twice");
    }
}
