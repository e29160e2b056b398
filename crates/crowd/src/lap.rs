//! One lap for every loop: the control step, the booking of an arrival
//! and of a crowd event, and the discrete-event loop over one timeline.
//!
//! A loop driving the middleware and its [`Crowd`] through time decides
//! only *when* something happens; a [`Lap`] does it.
//! [`Lap::control_step`] ticks the middleware and hands each outcome to
//! the crowd, [`Lap::arrive`] takes a task in and steps where it landed,
//! and [`Lap::book`] books one event [`Crowd::pop_due`] popped: a
//! completion with its duplicate re-delivery, a departure's recall, a
//! rejoin, or a burst's tasks followed by the burst's control step. What
//! each loop keeps of these steps goes through its [`Ledger`], which is
//! told which shard a booking belongs to.
//!
//! The middleware is anything that [`Dispatch`]es: one [`ReactServer`]
//! (`ScenarioRunner` and `react-runtime`'s live scheduler thread) or
//! `react-cluster`'s sharded `Cluster`. [`Lap::run`] is the one
//! discrete-event loop, which both runners drive: it merges the crowd's
//! timeline, the fixed tick grid and the [`Arrivals`] in time order. At
//! one instant the crowd's events go first, then the grid tick, then the
//! arrival — the live loop's rule (`next_tick <= now`) — so one seeded
//! trace gives one schedule whichever loop drives it.

use crate::arrivals::Arrivals;
use crate::behavior::{generate_population, BehaviorParams};
use crate::crowd::{Crowd, CrowdEvent, Delivery};
use crate::scenario::ChurnParams;
use react_core::{
    CompletionOutcome, Config, CoreError, ReactServer, Task, TaskId, TickOutcome, WorkerId,
};
use react_faults::FaultPlan;
use react_geo::BoundingBox;
use react_obs::ObserverHandle;
use react_sim::RngStreams;

/// Why a control step runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger<S> {
    /// A grid tick.
    Grid,
    /// A task arrived and `S` took it in.
    Arrival(S),
    /// The fault plan injected a burst.
    Burst,
}

/// What a [`Lap`] needs of the middleware it drives.
pub trait Dispatch {
    /// Which part of the middleware a booking belongs to: `()` for one
    /// server, a shard for a cluster.
    type Shard: Copy;
    /// Takes `task` in at `now`; the shard that accepted it, or `None`
    /// when it was refused.
    fn submit(&mut self, task: Task, now: f64) -> Option<Self::Shard>;
    /// Runs the control step `trigger` calls for at `now` and hands `each`
    /// the outcome of every shard that ticked, in shard order.
    fn control_step(
        &mut self,
        now: f64,
        trigger: Trigger<Self::Shard>,
        each: impl FnMut(Self::Shard, &TickOutcome),
    );
    /// Delivers a completion report; the shard that held the task.
    fn complete(&mut self, done: &Delivery) -> Result<(Self::Shard, CompletionOutcome), CoreError>;
    /// `worker` left at `now`; the tasks taken back from it.
    fn worker_offline(&mut self, worker: WorkerId, now: f64) -> Vec<TaskId>;
    /// `worker` came back.
    fn worker_online(&mut self, worker: WorkerId);
    /// Whether any task is still queued or in flight.
    fn has_open_tasks(&self) -> bool;
}

/// One server ticks at every trigger.
impl Dispatch for ReactServer {
    type Shard = ();

    fn submit(&mut self, task: Task, now: f64) -> Option<()> {
        self.submit_task(task, now);
        Some(())
    }

    fn control_step(&mut self, now: f64, _: Trigger<()>, mut each: impl FnMut((), &TickOutcome)) {
        each((), self.tick(now));
    }

    fn complete(&mut self, done: &Delivery) -> Result<((), CompletionOutcome), CoreError> {
        let outcome = self.complete_task(done.task, done.worker, done.at, done.quality_ok)?;
        Ok(((), outcome))
    }

    fn worker_offline(&mut self, worker: WorkerId, now: f64) -> Vec<TaskId> {
        ReactServer::worker_offline(self, worker, now)
    }

    fn worker_online(&mut self, worker: WorkerId) {
        let _ = ReactServer::worker_online(self, worker);
    }

    fn has_open_tasks(&self) -> bool {
        self.tasks().open_count() > 0
    }
}

/// What a loop keeps of the steps a [`Lap`] takes for it; `S` is the
/// middleware's [`Dispatch::Shard`].
pub trait Ledger<S = ()> {
    /// A tick of `shard` at `now` retired, recalled and assigned what
    /// `outcome` lists; the crowd takes it in next.
    fn ticked(&mut self, shard: S, now: f64, outcome: &TickOutcome);
    /// `task` arrived at `at`, from the workload or a burst, and `shard`
    /// took it in (`None`: the middleware refused it).
    fn arrived(&mut self, shard: Option<S>, task: TaskId, at: f64) {
        let _ = (shard, task, at);
    }
    /// `shard` accepted `done`.
    fn completed(&mut self, shard: S, done: &Delivery, outcome: &CompletionOutcome);
    /// A duplicated report was delivered again; `rejected` is whether the
    /// middleware refused the copy, as it must.
    fn duplicated(&mut self, rejected: bool);
    /// `worker` went offline and the middleware took `recalled` back.
    fn offline(&mut self, worker: WorkerId, recalled: &[TaskId]);
    /// A burst task, about to be submitted.
    fn burst(&mut self, task: &Task);
}

/// The middleware and the [`Crowd`] it schedules, as one run.
pub struct Lap<D = ReactServer> {
    /// The middleware: one server, or a cluster of them.
    pub server: D,
    /// Its workers.
    pub crowd: Crowd,
    /// Where burst tasks lie.
    region: BoundingBox,
    /// Deadline range of burst tasks.
    burst_deadlines: (f64, f64),
    /// Categories burst tasks are drawn from.
    burst_categories: u32,
}

impl Lap {
    /// The run seeded with `seed`: `n_workers` workers drawn from the
    /// `population` stream and placed in `region`, a server seeded with
    /// `seed ^ 0x5eed`, and a crowd on the run's streams with `faults`
    /// materialised.
    ///
    /// # Panics
    /// Panics on an invalid middleware `config`.
    pub fn seeded(
        seed: u64,
        config: Config,
        n_workers: usize,
        behavior: &BehaviorParams,
        region: BoundingBox,
        faults: Option<&FaultPlan>,
        observer: ObserverHandle,
    ) -> Self {
        let streams = RngStreams::new(seed);
        let mut pop_rng = streams.stream("population");
        let behaviors = generate_population(n_workers, behavior, &mut pop_rng);
        let mut server = ReactServer::builder(config)
            .seed(seed ^ 0x5eed)
            .observer(observer)
            .build()
            .expect("a run carries a valid middleware config");
        for i in 0..behaviors.len() {
            server.register_worker(WorkerId(i as u64), region.random_point(&mut pop_rng));
        }
        Lap::new(server, Crowd::new(behaviors, faults, &streams), region)
    }
}

impl<D: Dispatch> Lap<D> {
    /// `server` and `crowd` as one run over `region`. Burst tasks get
    /// 60–120 s deadlines and one category unless [`Lap::with_bursts`]
    /// says otherwise.
    pub fn new(server: D, crowd: Crowd, region: BoundingBox) -> Self {
        Lap {
            server,
            crowd,
            region,
            burst_deadlines: (60.0, 120.0),
            burst_categories: 1,
        }
    }

    /// Burst tasks get deadlines in `deadline_range` and one of
    /// `n_categories` categories.
    pub fn with_bursts(mut self, deadline_range: (f64, f64), n_categories: u32) -> Self {
        self.burst_deadlines = deadline_range;
        self.burst_categories = n_categories;
        self
    }

    /// The crowd churns ([`Crowd::set_churn`]) when `churn` is set.
    pub fn with_churn(mut self, churn: Option<ChurnParams>) -> Self {
        if let Some(churn) = churn {
            self.crowd.set_churn(churn);
        }
        self
    }

    /// One control step at `now`: the middleware steps as `trigger` asks,
    /// `ledger` books what each shard's tick did, and the crowd takes each
    /// outcome in.
    pub fn control_step(
        &mut self,
        now: f64,
        trigger: Trigger<D::Shard>,
        ledger: &mut impl Ledger<D::Shard>,
    ) {
        let crowd = &mut self.crowd;
        self.server.control_step(now, trigger, |shard, outcome| {
            ledger.ticked(shard, now, outcome);
            crowd.apply(outcome, now);
        });
    }

    /// `task` arrives at `at`; the shard that takes it in steps at once,
    /// so the batch trigger sees the queue grow.
    pub fn arrive(&mut self, at: f64, task: Task, ledger: &mut impl Ledger<D::Shard>) {
        let id = task.id;
        let shard = self.server.submit(task, at);
        ledger.arrived(shard, id, at);
        if let Some(shard) = shard {
            self.control_step(at, Trigger::Arrival(shard), ledger);
        }
    }

    /// Books one event the crowd popped, at its instant `at`. A
    /// duplicated completion is delivered twice and the middleware must
    /// reject the copy; a burst submits its tasks and then takes its
    /// control step.
    ///
    /// # Panics
    /// Panics on a completion the middleware does not hold in flight,
    /// which the crowd never delivers.
    pub fn book(&mut self, at: f64, event: CrowdEvent, ledger: &mut impl Ledger<D::Shard>) {
        match event {
            CrowdEvent::Done(done) => {
                let (shard, outcome) = self
                    .server
                    .complete(&done)
                    .expect("a live completion matches the assignment");
                ledger.completed(shard, &done, &outcome);
                if done.duplicated {
                    ledger.duplicated(self.server.complete(&done).is_err());
                }
            }
            CrowdEvent::Offline(worker) => {
                let recalled = self.server.worker_offline(worker, at);
                ledger.offline(worker, &recalled);
                self.crowd.offline(worker, &recalled, at);
            }
            CrowdEvent::Online(worker) => self.server.worker_online(worker),
            CrowdEvent::Burst { size } => {
                for _ in 0..size {
                    let task = self.crowd.burst_task(
                        self.burst_deadlines,
                        self.burst_categories,
                        self.region,
                    );
                    ledger.burst(&task);
                    let id = task.id;
                    let shard = self.server.submit(task, at);
                    ledger.arrived(shard, id, at);
                }
                self.control_step(at, Trigger::Burst, ledger);
            }
        }
    }

    /// Books every crowd event due by `until`, each at its own instant
    /// and in time order.
    pub fn book_due(&mut self, until: f64, ledger: &mut impl Ledger<D::Shard>) {
        while let Some((at, event)) = self.crowd.pop_due(until) {
            self.book(at, event, ledger);
        }
    }

    /// The discrete-event run: every arrival, a grid tick every
    /// `tick_interval` from crowd time 0 and every crowd event, in time
    /// order, until none is left; returns the last one's instant.
    ///
    /// The grid stops after a tick once the workload's last task has
    /// arrived and nothing is open, or once the run has drained: `drain`
    /// seconds have passed since that last arrival or a later burst
    /// ([`Crowd::drain_from`]). Past that, the crowd's events still due
    /// are booked.
    pub fn run(
        &mut self,
        mut arrivals: Arrivals<'_>,
        tick_interval: f64,
        drain: f64,
        ledger: &mut impl Ledger<D::Shard>,
    ) -> f64 {
        if arrivals.peek_at().is_none() {
            self.crowd.drain_from(0.0, drain);
        }
        // The grid's next tick, infinite once it has stopped.
        let mut next_tick = tick_interval;
        let mut last = 0.0;
        loop {
            let now = next_tick.min(arrivals.peek_at().unwrap_or(f64::INFINITY));
            if let Some((at, event)) = self.crowd.pop_due(now) {
                self.book(at, event, ledger);
                last = at;
                continue;
            }
            if now.is_infinite() {
                return last;
            }
            last = now;
            if next_tick <= now {
                self.control_step(now, Trigger::Grid, ledger);
                let idle = arrivals.peek_at().is_none() && !self.server.has_open_tasks();
                let stop = idle || self.crowd.drained(now);
                next_tick = now + if stop { f64::INFINITY } else { tick_interval };
            } else if let Some((at, task)) = arrivals.next() {
                self.arrive(at, task, ledger);
                if arrivals.peek_at().is_none() {
                    self.crowd.drain_from(at, drain);
                }
            }
        }
    }
}
