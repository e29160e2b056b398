//! The worker side of a run: what the crowd does with an assignment.
//!
//! A worker executes a task by letting its sampled service time pass, so
//! the crowd is data, not threads: [`Crowd`] owns every worker's
//! behaviour and calendar, the `behavior` RNG stream, the materialised
//! fault schedule, one attempt counter per task in the middleware's
//! hands and one queue of the instants at which assignments finish. The
//! loop that owns the `ReactServer` tells it what each tick assigned and
//! recalled ([`Crowd::apply`]), which workers left ([`Crowd::offline`]),
//! and asks what has finished ([`Crowd::pop_due`]). Every call takes the
//! crowd time as an argument — no clock, no thread — so the two
//! discrete-event runners and the live scheduler thread drive the same
//! model and a scripted run replays exactly.
//!
//! Three conventions, the ones the checked-in `results/*.csv` were
//! produced under:
//!
//! * a task's attempt number is bumped on every assignment *and* every
//!   recall, and `(task, attempt)` keys the fault plan's per-attempt
//!   decisions (abandon, lost completion, duplicated completion);
//! * service times and quality verdicts are drawn from the `behavior`
//!   stream in event order: the service time when the assignment is
//!   applied, the verdict when its completion is delivered;
//! * an assignment's finish instant is fixed when it is applied:
//!   `max(effective_at, worker's calendar) + service time`. The
//!   availability-aware policies hand work to idle workers only, so the
//!   calendar matters to the Traditional (AMT-style) policy alone, whose
//!   extra tasks queue behind the worker's current one; a recall or a
//!   departure frees the calendar for later assignments and leaves the
//!   slots of tasks already queued where they are.

use crate::behavior::WorkerBehavior;
use rand::rngs::SmallRng;
use react_core::{IdMap, TaskId, TickOutcome, WorkerId};
use react_faults::{FaultPlan, FaultSchedule};
use react_sim::{EventQueue, RngStreams, SimTime};

/// A completion report reaching the middleware.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    /// Who finished.
    pub worker: WorkerId,
    /// Which task.
    pub task: TaskId,
    /// The crowd instant the worker finished (not the instant the loop
    /// asked).
    pub at: f64,
    /// The worker's intrinsic quality verdict for this result.
    pub quality_ok: bool,
    /// The fault plan delivers this report a second time; the middleware
    /// must reject the copy.
    pub duplicated: bool,
}

/// Every worker of one run, `WorkerId(i)` being the `i`-th behaviour
/// given to [`Crowd::new`]. Times are crowd seconds.
pub struct Crowd {
    behaviors: Vec<WorkerBehavior>,
    rng: SmallRng,
    faults: FaultSchedule,
    /// Per-worker calendar: the instant the worker's last accepted task
    /// ends.
    next_free: Vec<f64>,
    /// Attempt number of each task assigned at least once and not yet
    /// delivered, expired or shed. Never iterated; an [`IdMap`], so what
    /// its rehashes allocate is the same on every replay.
    attempts: IdMap<TaskId, u32>,
    /// `(worker, task, attempt)` at the instant the assignment finishes.
    /// An entry is stale once the task's attempt number has moved on.
    due: EventQueue<(WorkerId, TaskId, u32)>,
    abandoned: u64,
    lost: u64,
}

impl Crowd {
    /// A crowd of idle workers. Draws come from the `behavior` stream of
    /// `streams`; a fault plan is materialised against the same streams
    /// (it draws from `fault.*` only, so a run with `None` or a no-op
    /// plan is bit-identical to a fault-free one).
    pub fn new(
        behaviors: Vec<WorkerBehavior>,
        faults: Option<&FaultPlan>,
        streams: &RngStreams,
    ) -> Self {
        let faults = match faults {
            Some(plan) if !plan.is_noop() => plan.materialize(streams, behaviors.len()),
            _ => FaultSchedule::none(),
        };
        Crowd {
            next_free: vec![0.0; behaviors.len()],
            behaviors,
            rng: streams.stream("behavior"),
            faults,
            attempts: IdMap::default(),
            due: EventQueue::new(),
            abandoned: 0,
            lost: 0,
        }
    }

    /// The materialised fault schedule (the loop reads its dropout and
    /// burst timeline).
    pub fn faults(&self) -> &FaultSchedule {
        &self.faults
    }

    /// Assignments the fault plan had the worker silently abandon.
    pub fn abandoned(&self) -> u64 {
        self.abandoned
    }

    /// Completion reports the fault plan dropped in flight.
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Tasks the crowd holds an attempt number for.
    pub fn tracked_tasks(&self) -> usize {
        self.attempts.len()
    }

    /// Takes in one control step at `now`: recalled workers stop at once,
    /// expired and shed tasks are forgotten, and each fresh assignment
    /// draws its service time and is due when it ends — unless the fault
    /// plan has the worker abandon it, in which case only a recall frees
    /// the task again.
    ///
    /// # Panics
    /// Panics on a worker the crowd was not built with.
    pub fn apply(&mut self, outcome: &TickOutcome, now: f64) {
        for recall in &outcome.recalls {
            self.next_attempt(recall.task);
            self.next_free[recall.worker.0 as usize] = now;
        }
        for task in outcome.expired.iter().chain(&outcome.shed) {
            self.attempts.remove(task);
        }
        for &(worker, task) in &outcome.assignments {
            let attempt = self.next_attempt(task);
            let w = worker.0 as usize;
            let start = outcome.effective_at.max(self.next_free[w]);
            let exec_time =
                self.behaviors[w].sample_exec_time(&mut self.rng) * self.faults.slowdown_factor(w);
            self.next_free[w] = start + exec_time;
            if self.faults.abandons(task.0, attempt) {
                self.abandoned += 1;
                continue;
            }
            self.due.push(
                SimTime::from_secs(start + exec_time),
                (worker, task, attempt),
            );
        }
    }

    /// `worker` left at `now` and the middleware took `recalled` back
    /// from it.
    ///
    /// # Panics
    /// Panics on a worker the crowd was not built with.
    pub fn offline(&mut self, worker: WorkerId, recalled: &[TaskId], now: f64) {
        for &task in recalled {
            self.next_attempt(task);
        }
        self.next_free[worker.0 as usize] = now;
    }

    /// The instant the earliest live assignment finishes, if any. Drops
    /// the entries recalls left behind on its way there.
    pub fn next_due(&mut self) -> Option<f64> {
        while let Some((at, &(_, task, attempt))) = self.due.peek() {
            if self.attempts.get(&task) == Some(&attempt) {
                return Some(at.as_secs());
            }
            self.due.pop();
        }
        None
    }

    /// The earliest completion report due at or before `now`, oldest
    /// first. A report the fault plan loses is counted and never
    /// surfaces: its task stays assigned until the middleware recalls it.
    pub fn pop_due(&mut self, now: f64) -> Option<Delivery> {
        while self.due.peek_time().is_some_and(|at| at.as_secs() <= now) {
            let (at, (worker, task, attempt)) = self.due.pop().expect("peeked");
            if self.attempts.get(&task) != Some(&attempt) {
                continue;
            }
            if self.faults.loses_completion(task.0, attempt) {
                self.lost += 1;
                continue;
            }
            self.attempts.remove(&task);
            return Some(Delivery {
                worker,
                task,
                at: at.as_secs(),
                quality_ok: self.behaviors[worker.0 as usize].sample_quality_ok(&mut self.rng),
                duplicated: self.faults.duplicates_completion(task.0, attempt),
            });
        }
        None
    }

    fn next_attempt(&mut self, task: TaskId) -> u32 {
        let attempt = self.attempts.entry(task).or_insert(0);
        *attempt += 1;
        *attempt
    }
}
