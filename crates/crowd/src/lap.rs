//! One lap for every loop: the control step, the booking of an arrival
//! and of a crowd event, and the one control loop over one timeline.
//!
//! A [`Lap`] is the middleware and its [`Crowd`] as one run, and
//! [`Lap::run`] drives it through time. It asks its [`Source`] for the
//! next task due by the grid's next tick, runs each grid tick up to the
//! instant the answer comes with, books the crowd events due by each
//! first, then books the crowd events due by the task's instant and takes
//! the task in. At one instant the crowd's events go first, then the grid
//! tick, then the arrival, so one seeded trace gives one schedule whether
//! an [`Arrivals`](crate::Arrivals) trace or `react-runtime`'s live door
//! feeds it. A control step ticks the middleware and hands each outcome to
//! the crowd; a booking is one event [`Crowd::pop_due`] popped: a
//! completion with its duplicate re-delivery, a departure's recall, a
//! rejoin, or a burst's tasks followed by the burst's control step. What
//! each loop keeps of these steps goes through its [`Ledger`], which is
//! told which shard a booking belongs to.
//!
//! Every run ends one way. At the source's end the drain window opens
//! ([`Crowd::drain_from`]); the grid stops there, or at a later tick,
//! once nothing is open or the window has run out; the crowd's remaining
//! events are then booked at their own instants. What the middleware
//! still holds is each driver's to count: queued tasks as expired,
//! in-flight ones as stranded.
//!
//! The middleware is anything that [`Dispatch`]es: one [`ReactServer`]
//! (`ScenarioRunner` and `react-runtime`'s scheduler thread) or
//! `react-cluster`'s sharded `Cluster`.

use crate::arrivals::{Next, Source};
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
    /// How many tasks are queued, and how many in flight.
    fn open_tasks(&self) -> (usize, usize);
    /// Forgets every task that completed or expired before `now`, so the
    /// middleware holds its open tasks and only the latest retirements.
    /// The lap calls it at each grid tick, before anything due then.
    fn retire(&mut self, now: f64);
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

    fn open_tasks(&self) -> (usize, usize) {
        (
            self.tasks().unassigned_count(),
            self.tasks().assigned_count(),
        )
    }

    fn retire(&mut self, now: f64) {
        self.prune_retired(now);
    }
}

/// What a loop keeps of the steps a [`Lap`] takes for it; `S` is the
/// middleware's [`Dispatch::Shard`].
pub trait Ledger<S = ()> {
    /// A tick of `shard` at `now` retired, recalled and assigned what
    /// `outcome` lists; the crowd takes it in next.
    fn ticked(&mut self, shard: S, now: f64, outcome: &TickOutcome);
    /// `task`, which entered the system at `at`, arrived from the
    /// workload or a burst, and `shard` took it in (`None`: the
    /// middleware refused it).
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

    /// The run: each task the source yields, a grid tick every
    /// `tick_interval` from crowd time 0 and every crowd event, in time
    /// order, until the source's end; then the drain window of `drain`
    /// seconds from that end, which later bursts move. The grid stops at
    /// the end, or at a later tick, once nothing is open or the window has
    /// run out; the crowd's remaining events are then booked at their own
    /// instants. Returns the instant of the last thing booked.
    ///
    /// # Panics
    /// Panics on a task the source yields after its end.
    pub fn run(
        &mut self,
        mut source: impl Source,
        tick_interval: f64,
        drain: f64,
        ledger: &mut impl Ledger<D::Shard>,
    ) -> f64 {
        let mut next_tick = tick_interval;
        let mut now = loop {
            let next = source.next_by(next_tick, self.server.open_tasks().0);
            let now = match next {
                Next::Task { at, .. } | Next::End(at) => at,
                Next::Wait => next_tick,
            };
            while next_tick <= now {
                self.grid_tick(next_tick, ledger);
                next_tick += tick_interval;
            }
            self.book_due(now, ledger);
            match next {
                Next::Task { at, entered, task } => self.arrive(at, entered, task, ledger),
                Next::Wait => {}
                Next::End(end) => break end,
            }
        };
        self.crowd.drain_from(now, drain);
        while self.server.open_tasks() != (0, 0) && !self.crowd.drained(now) {
            let next = source.next_by(next_tick, self.server.open_tasks().0);
            assert!(!matches!(next, Next::Task { .. }), "a task after the end");
            now = next_tick;
            self.grid_tick(now, ledger);
            next_tick += tick_interval;
        }
        while let Some((at, event)) = self.crowd.pop_due(f64::INFINITY) {
            self.book(at, event, ledger);
            now = at;
        }
        now
    }

    /// The grid's tick at `now`, after the crowd events due by it; what
    /// retired before it is forgotten first.
    fn grid_tick(&mut self, now: f64, ledger: &mut impl Ledger<D::Shard>) {
        self.server.retire(now);
        self.book_due(now, ledger);
        self.control_step(now, Trigger::Grid, ledger);
    }

    /// One control step at `now`: the middleware steps as `trigger` asks,
    /// `ledger` books what each shard's tick did, and the crowd takes each
    /// outcome in.
    fn control_step(
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

    /// `task`, which entered the system at `entered`, arrives at `at`; the
    /// shard that takes it in steps at once, so the batch trigger sees the
    /// queue grow.
    fn arrive(&mut self, at: f64, entered: f64, task: Task, ledger: &mut impl Ledger<D::Shard>) {
        let id = task.id;
        let shard = self.server.submit(task, at);
        ledger.arrived(shard, id, entered);
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
    fn book(&mut self, at: f64, event: CrowdEvent, ledger: &mut impl Ledger<D::Shard>) {
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
    fn book_due(&mut self, until: f64, ledger: &mut impl Ledger<D::Shard>) {
        while let Some((at, event)) = self.crowd.pop_due(until) {
            self.book(at, event, ledger);
        }
    }
}
