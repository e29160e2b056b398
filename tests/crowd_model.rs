//! Stateful property tests of [`Crowd`], the one worker-side model the
//! two discrete-event runners and the live scheduler thread drive.
//!
//! Random tick outcomes (recall / expire / shed / assign batches whose
//! `effective_at` is at or after `now`), worker departures and clock
//! advances over four workers and a handful of task ids, **under a
//! materialised `FaultPlan::chaos`**, against a reference model that is
//! the event arm the drivers used to carry written out plainly: a
//! per-task epoch map that is never pruned, a `next_free` vector,
//! `(task, epoch)`-keyed fault shims and the plan's dropouts, rejoins and
//! bursts in the schedule's order, never sorted. Every event `pop_due`
//! hands out must be the model's, and on top of that:
//!
//! * events come out in time order, a completion before a timeline event
//!   at the same instant;
//! * an attempt that was recalled, abandoned or whose report the plan
//!   loses never delivers, and an assignment delivers at most once;
//! * `next_due` is the earliest finish among the live assignments — never
//!   an entry a recall left behind, never a timeline event. (A report the
//!   plan will lose is still a due instant: the worker does finish then,
//!   and the loss is counted then and only if no recall came first.)
//! * abandons and lost reports are each counted once;
//! * the crowd's per-task state is bounded by the tasks the middleware
//!   still holds, and empty once every task is delivered, expired or
//!   shed.
//!
//! A plan dropout is booked the way the drivers book it: the middleware
//! recalls what the worker holds and the crowd is told at the dropout's
//! instant.
//!
//! The second property is the first piece of the DES-vs-live oracle: the
//! same script driven at exact instants (the runners) and polled at late,
//! irregular instants (the scheduler thread) yields the same sequence of
//! completions, dropouts, rejoins and bursts.
//!
//! No threads, no clock: every call takes its crowd time. `PROPTEST_CASES`
//! widens the run (CI: 1024 cases in release).

mod common;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use react::core::dynamic::Recall;
use react::core::{TaskId, TickOutcome, WorkerId};
use react::crowd::{Crowd, CrowdEvent, Delivery, WorkerBehavior};
use react::faults::{BurstPlan, DropoutPlan, FaultPlan, FaultSchedule, BURST_ID_BASE};
use react::geo::BoundingBox;
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
/// At full intensity half the workers drop out inside 5–60 s and rejoin
/// 30–90 s later, and two bursts land inside 10–50 s.
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
        for &slot in retire {
            if self.slots[slot as usize].1.is_none() {
                outcome.expired.push(self.id(slot));
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

    fn offline(&mut self, worker: WorkerId) -> Vec<TaskId> {
        let mut recalled = Vec::new();
        for slot in 0..SLOTS {
            if self.slots[slot as usize].1 == Some(worker.0 as usize) {
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

    /// Books what the crowd popped at `at` the way the drivers do: a
    /// completion is settled, a dropout recalls what the worker holds and
    /// the crowd is told; a rejoin or a burst asks nothing of the crowd.
    /// Returns what a dropout recalled.
    fn book(&mut self, crowd: &mut Crowd, at: f64, event: &CrowdEvent) -> Vec<TaskId> {
        match event {
            CrowdEvent::Done(done) => {
                self.complete(done);
                Vec::new()
            }
            CrowdEvent::Offline(worker) => {
                let recalled = self.offline(*worker);
                crowd.offline(*worker, &recalled, at);
                recalled
            }
            CrowdEvent::Online(_) | CrowdEvent::Burst { .. } => Vec::new(),
        }
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

/// The reference: what `ScenarioRunner::control_step`, its
/// `Event::Finish` arm and its fault-plan events did before the crowd
/// existed.
struct Model {
    behaviors: Vec<WorkerBehavior>,
    rng: SmallRng,
    schedule: FaultSchedule,
    epochs: BTreeMap<TaskId, u32>,
    next_free: Vec<f64>,
    /// In scheduling order, so the first of several equal instants is the
    /// one scheduled first.
    finishes: Vec<Finish>,
    /// The plan's dropouts (each departure, then its rejoin) and then its
    /// bursts, in the order the drivers once scheduled them.
    timeline: Vec<(f64, CrowdEvent)>,
    abandons: u64,
    lost: u64,
}

/// Index of the earliest of `times` at or before `until`; the first of
/// several equal ones.
fn earliest(times: impl Iterator<Item = f64>, until: f64) -> Option<usize> {
    times
        .enumerate()
        .filter(|&(_, at)| at <= until)
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(i, _)| i)
}

impl Model {
    fn new(seed: u64) -> Self {
        let streams = RngStreams::new(seed);
        let schedule = plan().materialize(&streams, WORKERS);
        let mut timeline = Vec::new();
        for d in schedule.dropouts() {
            let worker = WorkerId(d.worker as u64);
            timeline.push((d.at, CrowdEvent::Offline(worker)));
            if let Some(rejoin) = d.rejoin_at {
                timeline.push((rejoin, CrowdEvent::Online(worker)));
            }
        }
        for &(at, size) in schedule.bursts() {
            timeline.push((at, CrowdEvent::Burst { size }));
        }
        Model {
            behaviors: behaviors(),
            rng: streams.stream("behavior"),
            schedule,
            epochs: BTreeMap::new(),
            next_free: vec![0.0; WORKERS],
            finishes: Vec::new(),
            timeline,
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

    /// The earliest event due by `until` that reaches the middleware,
    /// with the epoch a delivery was assigned under (0 for a timeline
    /// event): finishes fire in time then scheduling order, timeline
    /// entries in time then schedule order, and a finish goes before a
    /// timeline entry at the same instant.
    fn pop(&mut self, until: f64) -> Option<(f64, CrowdEvent, u32)> {
        loop {
            let finish = earliest(self.finishes.iter().map(|f| f.at), until);
            let fault = earliest(self.timeline.iter().map(|e| e.0), until);
            match (finish, fault) {
                (Some(i), fault)
                    if fault.is_none_or(|j| self.finishes[i].at <= self.timeline[j].0) =>
                {
                    let f = self.finishes.remove(i);
                    if !self.live(&f) {
                        continue;
                    }
                    if self.schedule.loses_completion(f.task.0, f.epoch) {
                        self.lost += 1;
                        continue;
                    }
                    let quality_ok =
                        self.behaviors[f.worker.0 as usize].sample_quality_ok(&mut self.rng);
                    let done = Delivery {
                        worker: f.worker,
                        task: f.task,
                        at: f.at,
                        quality_ok,
                        duplicated: self.schedule.duplicates_completion(f.task.0, f.epoch),
                    };
                    return Some((f.at, CrowdEvent::Done(done), f.epoch));
                }
                (_, Some(j)) => {
                    let (at, event) = self.timeline.remove(j);
                    return Some((at, event, 0));
                }
                (_, None) => return None,
            }
        }
    }
}

fn crowd(seed: u64) -> Crowd {
    Crowd::new(behaviors(), Some(&plan()), &RngStreams::new(seed))
}

/// Pops and books everything due by `now` the way a discrete-event runner
/// does: each call bounded by the next completion's own instant, as a
/// runner bounds it by its own next event.
fn drain_exactly(
    crowd: &mut Crowd,
    middleware: &mut Middleware,
    now: f64,
    events: &mut Vec<(f64, CrowdEvent)>,
) -> Result<(), TestCaseError> {
    loop {
        let until = crowd.next_due().map_or(now, |at| at.min(now));
        match crowd.pop_due(until) {
            Some((at, event)) => {
                if let CrowdEvent::Done(done) = &event {
                    prop_assert_eq!((at, done.at), (until, until));
                }
                middleware.book(crowd, at, &event);
                events.push((at, event));
            }
            // The report due at `until` was lost in flight.
            None if until < now => {}
            None => return Ok(()),
        }
    }
}

/// Pops and books everything due by `now` the way the scheduler thread
/// does when it wakes: one bound, however late.
fn drain_late(
    crowd: &mut Crowd,
    middleware: &mut Middleware,
    now: f64,
    events: &mut Vec<(f64, CrowdEvent)>,
) {
    while let Some((at, event)) = crowd.pop_due(now) {
        middleware.book(crowd, at, &event);
        events.push((at, event));
    }
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
        let mut last_event = 0.0f64;

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
                    let worker = WorkerId(*worker as u64);
                    let recalled = middleware.offline(worker);
                    for &task in &recalled {
                        live.remove(&(worker, task));
                    }
                    crowd.offline(worker, &recalled, now);
                    model.offline(worker, &recalled, now);
                }
                Some(Op::Advance { dt }) => {
                    now += dt;
                    loop {
                        let due = crowd.next_due();
                        let expected = model.pop(now);
                        let Some((at, event)) = crowd.pop_due(now) else {
                            prop_assert!(expected.is_none(), "the model still had {:?}", expected);
                            prop_assert!(
                                !crowd.next_due().is_some_and(|at| at <= now),
                                "still due at {:?} <= now {} but nothing popped", due, now
                            );
                            break;
                        };
                        let epoch = expected.as_ref().map(|e| e.2);
                        prop_assert_eq!(Some((at, event)), expected.map(|e| (e.0, e.1)));
                        prop_assert!(at <= now);
                        prop_assert!(
                            at >= last_event,
                            "events went backwards: {:?} at {} after {}", event, at, last_event
                        );
                        last_event = at;
                        match &event {
                            CrowdEvent::Done(done) => {
                                prop_assert!(
                                    due.is_some_and(|due| due <= at),
                                    "delivered {:?} with next_due {:?}", done, due
                                );
                                let held = live.remove(&(done.worker, done.task));
                                prop_assert!(
                                    held.is_some(),
                                    "{:?} delivered twice or after its recall", done
                                );
                                prop_assert_eq!(held, epoch);
                                let epoch = held.expect("just checked");
                                prop_assert!(
                                    !model.schedule.abandons(done.task.0, epoch)
                                        && !model.schedule.loses_completion(done.task.0, epoch),
                                    "attempt {} of {:?} was struck by the plan yet delivered",
                                    epoch, done.task
                                );
                            }
                            // Completion first on a tie: nothing live is
                            // due by a timeline event once it pops.
                            _ => prop_assert!(
                                !crowd.next_due().is_some_and(|due| due <= at),
                                "{:?} at {} popped before a completion due at {:?}",
                                event, at, crowd.next_due()
                            ),
                        }
                        let recalled = middleware.book(&mut crowd, at, &event);
                        if let CrowdEvent::Offline(worker) = event {
                            for &task in &recalled {
                                live.remove(&(worker, task));
                            }
                            model.offline(worker, &recalled, at);
                        }
                    }
                }
                // After the last op: close everything out. What is left on
                // the timeline still pops, and no completion does.
                None => {
                    let outcome = middleware.close_out(now);
                    crowd.apply(&outcome, now);
                    model.apply(&outcome, now);
                    while let Some((at, event)) = crowd.pop_due(f64::INFINITY) {
                        let expected = model.pop(f64::INFINITY).map(|e| (e.0, e.1));
                        prop_assert_eq!(Some((at, event)), expected);
                        prop_assert!(!matches!(event, CrowdEvent::Done(_)), "{:?}", event);
                        middleware.book(&mut crowd, at, &event);
                    }
                    prop_assert!(model.pop(f64::INFINITY).is_none());
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
        // The way a discrete-event runner drives it: every event is
        // popped at its own instant, before the loop's next event. The
        // other way, the scheduler thread's: it looks only when it wakes
        // for a control step — late, however many events fell due
        // meanwhile — and asks for its next wake-up in between.
        let mut runs = Vec::new();
        for late in [false, true] {
            let mut crowd = crowd(seed);
            let mut middleware = Middleware::new();
            let mut events = Vec::new();
            let mut now = 0.0f64;
            for op in &ops {
                if let Op::Advance { dt } = op {
                    now += dt;
                    if late {
                        continue;
                    }
                }
                if late {
                    drain_late(&mut crowd, &mut middleware, now, &mut events);
                    let _wake = crowd.next_due();
                } else {
                    drain_exactly(&mut crowd, &mut middleware, now, &mut events)?;
                }
                match op {
                    Op::Tick { recalls, retire, assigns, charge } => {
                        let outcome = middleware.tick(recalls, retire, assigns, now + charge);
                        crowd.apply(&outcome, now);
                    }
                    Op::Offline { worker } => {
                        let worker = WorkerId(*worker as u64);
                        let recalled = middleware.offline(worker);
                        crowd.offline(worker, &recalled, now);
                    }
                    Op::Advance { .. } => {}
                }
            }
            if late {
                drain_late(&mut crowd, &mut middleware, f64::INFINITY, &mut events);
            } else {
                drain_exactly(&mut crowd, &mut middleware, f64::INFINITY, &mut events)?;
            }
            runs.push((events, crowd.abandoned(), crowd.lost()));
        }

        let (polled, exact) = (&runs[1], &runs[0]);
        prop_assert_eq!(polled, exact);
        let delivered: Vec<TaskId> = exact
            .0
            .iter()
            .filter_map(|(_, event)| match event {
                CrowdEvent::Done(done) => Some(done.task),
                _ => None,
            })
            .collect();
        let tasks: BTreeSet<_> = delivered.iter().collect();
        prop_assert_eq!(tasks.len(), delivered.len(), "a task was delivered twice");
    }
}

/// The tie rule, which continuous draws never hit: a completion, a
/// dropout, its rejoin and a burst all at one instant come out in that
/// order, and burst tasks take consecutive ids above `BURST_ID_BASE`.
#[test]
fn a_completion_goes_before_the_timeline_at_one_instant() {
    let plan = FaultPlan {
        dropout: Some(DropoutPlan {
            probability: 1.0,
            window: (10.0, 10.0),
            offline_range: Some((0.0, 0.0)),
        }),
        bursts: Some(BurstPlan {
            count: 1,
            size: 2,
            window: (10.0, 10.0),
        }),
        ..FaultPlan::none()
    };
    let worker = WorkerBehavior::uniform(UniformRange::new(5.0, 5.0), 0.0, 0.0, 1.0);
    let mut crowd = Crowd::new(vec![worker], Some(&plan), &RngStreams::new(3));
    let outcome = TickOutcome {
        effective_at: 5.0,
        assignments: vec![(WorkerId(0), TaskId(7))],
        ..TickOutcome::default()
    };
    crowd.apply(&outcome, 5.0);
    assert_eq!(crowd.pop_due(9.5), None);
    assert_eq!(crowd.next_due(), Some(10.0));
    let events: Vec<_> = std::iter::from_fn(|| crowd.pop_due(10.0)).collect();
    let kinds: Vec<_> = events
        .iter()
        .map(|&(at, event)| match event {
            CrowdEvent::Done(done) => (at, "done", done.task.0),
            CrowdEvent::Offline(worker) => (at, "offline", worker.0),
            CrowdEvent::Online(worker) => (at, "online", worker.0),
            CrowdEvent::Burst { size } => (at, "burst", u64::from(size)),
        })
        .collect();
    assert_eq!(
        kinds,
        [
            (10.0, "done", 7),
            (10.0, "offline", 0),
            (10.0, "online", 0),
            (10.0, "burst", 2),
        ]
    );
    let region = BoundingBox::new(37.8, 38.2, 23.5, 24.0).expect("static bounds");
    let ids: Vec<u64> = (0..2)
        .map(|_| crowd.burst_task((60.0, 120.0), 1, region).id.0)
        .collect();
    assert_eq!(ids, [BURST_ID_BASE, BURST_ID_BASE + 1]);
}
