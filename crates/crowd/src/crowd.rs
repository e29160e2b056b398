//! The worker side of a run: what the crowd does with an assignment,
//! when a worker leaves and comes back, and when the fault plan floods
//! the door.
//!
//! A worker executes a task by letting its sampled service time pass, so
//! the crowd is data, not threads: [`Crowd`] owns every worker's
//! behaviour and calendar, the `behavior` RNG stream, the materialised
//! fault schedule, one attempt counter per task in the middleware's
//! hands, one queue of the instants at which assignments finish, the
//! plan's timeline of dropouts, rejoins and bursts, and the behaviour
//! model's connectivity churn ([`Crowd::set_churn`]) with its `churn`
//! stream. The loop that owns the middleware tells it what each tick
//! assigned and recalled ([`Crowd::apply`]) and which workers left
//! ([`Crowd::offline`]), and asks what is due ([`Crowd::pop_due`]):
//! completions, the plan's events and churn's, one at a time in time
//! order and in that order on a tie.
//! Every call takes the crowd time as an argument — no clock, no thread —
//! so the two discrete-event runners and the live scheduler thread drive
//! the same model, book the same faults in the same order, and a
//! scripted run replays exactly.
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
use crate::scenario::ChurnParams;
use rand::rngs::SmallRng;
use rand::Rng;
use react_core::{IdMap, Task, TaskCategory, TaskId, TickOutcome, WorkerId};
use react_faults::{FaultPlan, FaultSchedule, BURST_ID_BASE};
use react_geo::BoundingBox;
use react_prob::distributions::{Exponential, UniformRange};
use react_sim::{EventQueue, RngStreams, SimDuration, SimTime};

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

/// What [`Crowd::pop_due`] hands the loop driving the crowd.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CrowdEvent {
    /// A completion report reaches the middleware.
    Done(Delivery),
    /// The fault plan or churn takes the worker offline; the loop recalls
    /// what it holds and tells the crowd ([`Crowd::offline`]).
    Offline(WorkerId),
    /// A worker the plan or churn took offline comes back.
    Online(WorkerId),
    /// The fault plan injects `size` extra tasks at one instant, each
    /// minted by [`Crowd::burst_task`].
    Burst {
        /// Tasks in the burst.
        size: u32,
    },
}

/// Every worker of one run, `WorkerId(i)` being the `i`-th behaviour
/// given to [`Crowd::new`]. Times are crowd seconds.
pub struct Crowd {
    behaviors: Vec<WorkerBehavior>,
    rng: SmallRng,
    faults: FaultSchedule,
    /// The plan's dropouts, rejoins and bursts, then churn's departures
    /// and rejoins, not yet popped, each flagged whether the plan's. At one
    /// instant they pop as pushed: the plan's in its schedule's order (each
    /// dropout's departure, then its rejoin; dropouts before bursts), then
    /// churn's.
    timeline: EventQueue<(CrowdEvent, bool)>,
    /// The `fault.burst-tasks` stream burst tasks are drawn from.
    burst_rng: SmallRng,
    /// Burst tasks minted so far: the next one's id offset.
    bursts_minted: u64,
    /// Per-worker calendar: the instant the worker's last accepted task
    /// ends.
    next_free: Vec<f64>,
    /// Attempt number of each task assigned at least once and not yet
    /// delivered or expired. Never iterated; an [`IdMap`], so what
    /// its rehashes allocate is the same on every replay.
    attempts: IdMap<TaskId, u32>,
    /// `(worker, task, attempt)` at the instant the assignment finishes.
    /// An entry is stale once the task's attempt number has moved on.
    due: EventQueue<(WorkerId, TaskId, u32)>,
    /// Connectivity churn, when the run has it.
    churn: Option<ChurnParams>,
    /// The `churn` stream its online and offline periods are drawn from.
    churn_rng: SmallRng,
    /// `(from, length)` once the workload's last task has arrived: the run
    /// drains for `length` seconds from `from`, which a later burst moves.
    drain: Option<(f64, f64)>,
    dropouts: u64,
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
        let (dropouts, bursts) = (faults.dropouts(), faults.bursts());
        let mut timeline = EventQueue::with_capacity(2 * dropouts.len() + bursts.len());
        let mut plan = |at, event| timeline.push(SimTime::from_secs(at), (event, true));
        for d in dropouts {
            let worker = WorkerId(d.worker as u64);
            plan(d.at, CrowdEvent::Offline(worker));
            if let Some(at) = d.rejoin_at {
                plan(at, CrowdEvent::Online(worker));
            }
        }
        for &(at, size) in bursts {
            plan(at, CrowdEvent::Burst { size });
        }
        Crowd {
            next_free: vec![0.0; behaviors.len()],
            behaviors,
            rng: streams.stream("behavior"),
            faults,
            timeline,
            burst_rng: streams.stream("fault.burst-tasks"),
            bursts_minted: 0,
            attempts: IdMap::default(),
            due: EventQueue::new(),
            churn: None,
            churn_rng: streams.stream("churn"),
            drain: None,
            dropouts: 0,
            abandoned: 0,
            lost: 0,
        }
    }

    /// Workers churn: each leaves after an online period drawn from the
    /// `churn` stream, every worker's first one now, in worker order. A
    /// worker that leaves, by churn or by the fault plan, draws its
    /// offline period and comes back after it; a worker that comes back
    /// draws its next online period, until the run has drained
    /// ([`Crowd::drained`]).
    pub fn set_churn(&mut self, churn: ChurnParams) {
        self.churn = Some(churn);
        let online = Exponential::with_mean(churn.mean_online);
        for w in 0..self.behaviors.len() {
            let at = SimTime::from_secs(online.sample(&mut self.churn_rng));
            let leave = CrowdEvent::Offline(WorkerId(w as u64));
            self.timeline.push(at, (leave, false));
        }
    }

    /// The workload ended at `at`: the run drains for `length` seconds
    /// from it, or from the latest burst after it.
    pub fn drain_from(&mut self, at: f64, length: f64) {
        self.drain = Some((at, length));
    }

    /// Whether the run has drained by `now`: its workload ended and the
    /// drain window after it, or after a later burst, has run out. A
    /// window closes at its last instant, so one of length 0 is closed
    /// where it opens.
    pub fn drained(&self, now: f64) -> bool {
        matches!(self.drain, Some((from, length)) if now >= from + length)
    }

    /// Mints the next task of a fault-plan burst: ids count up from
    /// `BURST_ID_BASE` over the run, and the draw order (deadline,
    /// reward, category, location) is part of the seed → bytes contract.
    pub fn burst_task(
        &mut self,
        deadline_range: (f64, f64),
        n_categories: u32,
        region: BoundingBox,
    ) -> Task {
        let rng = &mut self.burst_rng;
        let (lo, hi) = deadline_range;
        let deadline = rng.gen_range(lo..hi.max(lo + f64::EPSILON));
        let reward = rng.gen_range(0.01..0.10);
        let category = TaskCategory(rng.gen_range(0..n_categories.max(1)));
        let id = TaskId(BURST_ID_BASE + self.bursts_minted);
        self.bursts_minted += 1;
        Task::new(
            id,
            region.random_point(rng),
            deadline,
            reward,
            category,
            "burst",
        )
    }

    /// Workers the fault plan took offline (churn's departures are not
    /// counted).
    pub fn dropouts(&self) -> u64 {
        self.dropouts
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
    /// expired tasks are forgotten, and each fresh assignment
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
        for task in &outcome.expired {
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

    /// The instant the earliest live assignment finishes, if any — a
    /// completion, never a timeline event. Drops the entries recalls left
    /// behind on its way there.
    pub fn next_due(&mut self) -> Option<f64> {
        while let Some((at, &(_, task, attempt))) = self.due.peek() {
            if self.attempts.get(&task) == Some(&attempt) {
                return Some(at.as_secs());
            }
            self.due.pop();
        }
        None
    }

    /// The earliest event due at or before `until` and its instant: a
    /// completion report, the fault timeline's next dropout, rejoin or
    /// burst, or churn's next departure or rejoin — in that order when they
    /// fall on one instant. A report the fault plan loses is counted and
    /// never surfaces: its task stays assigned until the middleware
    /// recalls it. Popping a departure or a rejoin draws the worker's next
    /// churn period, and popping a burst moves the drain window.
    pub fn pop_due(&mut self, until: f64) -> Option<(f64, CrowdEvent)> {
        let next_at = self.timeline.peek_time().map_or(until, |at| at.as_secs());
        if let Some(done) = self.pop_delivery(next_at.min(until)) {
            return Some((done.at, CrowdEvent::Done(done)));
        }
        if next_at > until {
            return None;
        }
        let (at, (event, planned)) = self.timeline.pop()?;
        let at = at.as_secs();
        if let (CrowdEvent::Burst { .. }, Some((from, _))) = (event, &mut self.drain) {
            *from = at;
        }
        self.dropouts += u64::from(planned && matches!(event, CrowdEvent::Offline(_)));
        self.churn_after(event, at);
        Some((at, event))
    }

    /// Under churn, a worker that left at `at` comes back after an
    /// offline period, and one that came back leaves again after an
    /// online period unless the run has drained.
    fn churn_after(&mut self, event: CrowdEvent, at: f64) {
        let (Some(churn), drained) = (self.churn, self.drained(at)) else {
            return;
        };
        let rng = &mut self.churn_rng;
        let (after, next) = match event {
            CrowdEvent::Offline(worker) => {
                let (lo, hi) = churn.offline_range;
                let off = UniformRange::new(lo, hi).sample(rng).max(0.001);
                (off, CrowdEvent::Online(worker))
            }
            CrowdEvent::Online(worker) if !drained => {
                let online = Exponential::with_mean(churn.mean_online).sample(rng);
                (online, CrowdEvent::Offline(worker))
            }
            _ => return,
        };
        let at = SimTime::from_secs(at) + SimDuration::from_secs(after);
        self.timeline.push(at, (next, false));
    }

    /// The earliest completion report due at or before `until`.
    fn pop_delivery(&mut self, until: f64) -> Option<Delivery> {
        while self.due.peek_time().is_some_and(|at| at.as_secs() <= until) {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn crowd() -> Crowd {
        Crowd::new(Vec::new(), None, &RngStreams::new(1))
    }

    #[test]
    fn a_zero_length_window_is_closed_where_it_opens() {
        let mut crowd = crowd();
        assert!(!crowd.drained(5.0), "no window before the end");
        crowd.drain_from(5.0, 0.0);
        assert!(!crowd.drained(4.999));
        assert!(crowd.drained(5.0));
    }

    #[test]
    fn a_window_closes_exactly_at_its_end() {
        let mut crowd = crowd();
        crowd.drain_from(5.0, 2.5);
        assert!(!crowd.drained(7.4999));
        assert!(crowd.drained(7.5));
    }
}
