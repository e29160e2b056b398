//! One lap for every loop: the control step and the booking of a crowd
//! event, which [`ScenarioRunner`](crate::ScenarioRunner) and
//! `react-runtime`'s live scheduler thread both call.
//!
//! A loop driving a [`ReactServer`] and its [`Crowd`] through time decides
//! only *when* something happens; a [`Lap`] does it. [`Lap::control_step`]
//! ticks the server and hands the outcome to the crowd, and [`Lap::book`]
//! books one event [`Crowd::pop_due`] popped: a completion with its
//! duplicate re-delivery, a dropout's recall, a rejoin, or a burst's tasks
//! followed by a tick at the burst instant. What each loop keeps of these
//! steps goes through its [`Ledger`]. Both loops tick at each arrival, at
//! each burst instant and on a fixed grid of the tick interval from crowd
//! time 0 — never for a completion — so one seeded trace gives one
//! schedule whichever loop drives it.

use crate::behavior::{generate_population, BehaviorParams};
use crate::crowd::{Crowd, CrowdEvent, Delivery};
use react_core::{CompletionOutcome, Config, ReactServer, Task, TaskId, TickOutcome, WorkerId};
use react_faults::FaultPlan;
use react_geo::BoundingBox;
use react_obs::ObserverHandle;
use react_sim::RngStreams;

/// What a loop keeps of the steps a [`Lap`] takes for it.
pub trait Ledger {
    /// A tick at `now` retired, recalled and assigned what `outcome`
    /// lists; the crowd takes it in next.
    fn ticked(&mut self, now: f64, outcome: &TickOutcome);
    /// The server accepted `done`, a report on a task submitted at
    /// `submitted_at`.
    fn completed(&mut self, done: &Delivery, outcome: &CompletionOutcome, submitted_at: f64);
    /// A duplicated report was delivered again; `rejected` is whether the
    /// server refused the copy, as it must.
    fn duplicated(&mut self, rejected: bool);
    /// `worker` went offline and the server took `recalled` back from it.
    fn offline(&mut self, worker: WorkerId, recalled: &[TaskId]);
    /// A burst task, about to be submitted.
    fn burst(&mut self, task: &Task);
}

/// A [`ReactServer`] and the [`Crowd`] it schedules, seeded as one run.
pub struct Lap {
    /// The middleware.
    pub server: ReactServer,
    /// Its workers.
    pub crowd: Crowd,
    /// Where the workers stand and burst tasks lie.
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
    /// materialised. Burst tasks get 60–120 s deadlines and one category
    /// unless [`Lap::with_bursts`] says otherwise.
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
        Lap {
            server,
            crowd: Crowd::new(behaviors, faults, &streams),
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

    /// One control step at `now`: the server ticks, `ledger` books what
    /// the tick did, and the crowd takes the outcome in.
    pub fn control_step(&mut self, now: f64, ledger: &mut impl Ledger) {
        let outcome = self.server.tick(now);
        ledger.ticked(now, outcome);
        self.crowd.apply(outcome, now);
    }

    /// Books one event the crowd popped, at its instant `at`. A
    /// duplicated completion is delivered twice and the server must
    /// reject the copy; a burst submits its tasks and ticks at `at`.
    ///
    /// # Panics
    /// Panics on a completion the server does not hold in flight, which
    /// the crowd never delivers.
    pub fn book(&mut self, at: f64, event: CrowdEvent, ledger: &mut impl Ledger) {
        match event {
            CrowdEvent::Done(done) => {
                let tasks = self.server.tasks();
                let submitted_at = tasks.record(done.task).map(|r| r.submitted_at);
                let mut deliver = || {
                    let (task, worker, quality_ok) = (done.task, done.worker, done.quality_ok);
                    self.server.complete_task(task, worker, done.at, quality_ok)
                };
                let outcome = deliver().expect("a live completion matches the assignment");
                ledger.completed(&done, &outcome, submitted_at.expect("task is tracked"));
                if done.duplicated {
                    ledger.duplicated(deliver().is_err());
                }
            }
            CrowdEvent::Offline(worker) => {
                let recalled = self.server.worker_offline(worker, at);
                ledger.offline(worker, &recalled);
                self.crowd.offline(worker, &recalled, at);
            }
            CrowdEvent::Online(worker) => {
                let _ = self.server.worker_online(worker);
            }
            CrowdEvent::Burst { size } => {
                for _ in 0..size {
                    let task = self.crowd.burst_task(
                        self.burst_deadlines,
                        self.burst_categories,
                        self.region,
                    );
                    ledger.burst(&task);
                    self.server.submit_task(task, at);
                }
                self.control_step(at, ledger);
            }
        }
    }

    /// Books every crowd event due by `until`, each at its own instant
    /// and in time order.
    pub fn book_due(&mut self, until: f64, ledger: &mut impl Ledger) {
        while let Some((at, event)) = self.crowd.pop_due(until) {
            self.book(at, event, ledger);
        }
    }
}
