//! The REACT region server: composition of the four components.
//!
//! One `ReactServer` owns one geographic region (point→server routing
//! across regions lives in `react-geo`). The embedding environment —
//! discrete-event simulation, threaded runtime or a real deployment —
//! drives it through three entry points:
//!
//! * [`ReactServer::submit_task`] / [`ReactServer::register_worker`] —
//!   ingestion;
//! * [`ReactServer::tick`] — the periodic control step: expire overdue
//!   queued tasks, recall doomed assignments (Eq. 2), and run a matching
//!   batch when the trigger fires, charging the calibrated scheduler
//!   latency;
//! * [`ReactServer::complete_task`] — a worker returned a result: update
//!   deadline accounting, requester feedback and the worker's profile.

use crate::config::Config;
use crate::dynamic::{DynamicAssignmentComponent, Recall};
use crate::error::CoreError;
use crate::events::{AuditLog, TaskEventKind};
use crate::ids::{TaskId, WorkerId};
use crate::profiling::{Availability, ProfilingComponent};
use crate::scheduling::{BatchResult, BatchScratch, SchedulingComponent};
use crate::task::Task;
use crate::task_mgmt::{Finished, TaskManagementComponent};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use react_geo::GeoPoint;
use react_matching::{CostModel, MatcherEngine};
use react_obs::{null_observer, CounterKind, HistogramKind, ObserverHandle, SpanKind, SpanTimer};
use std::collections::BTreeMap;

/// Everything that happened during one [`ReactServer::tick`].
///
/// The server owns one and clears it at the start of every tick, so its
/// vectors keep their storage from tick to tick; [`ReactServer::tick`]
/// lends it out until the next call.
#[derive(Debug, Clone, Default)]
pub struct TickOutcome {
    /// Queued tasks whose deadlines expired before assignment.
    pub expired: Vec<TaskId>,
    /// Tasks recalled from workers — by the Eq. (2) check or by the
    /// recovery timeout ladder (already moved back to the unassigned
    /// pool).
    pub recalls: Vec<Recall>,
    /// How many of [`TickOutcome::recalls`] were forced by the recovery
    /// timeout ladder rather than the Eq. (2) model.
    pub timeout_recalls: u64,
    /// Fresh `(worker, task)` assignments from this tick's batch.
    pub assignments: Vec<(WorkerId, TaskId)>,
    /// When the batch's assignments take effect: `now` plus the modelled
    /// matching latency. Workers should start executing at this instant.
    pub effective_at: f64,
    /// Modelled scheduler compute time for this batch (0 when no batch
    /// ran or `charge_matching_time` is off).
    pub matching_seconds: f64,
}

impl TickOutcome {
    /// Empties the outcome for a tick at `now`, keeping every vector's
    /// storage.
    fn clear(&mut self, now: f64) {
        self.expired.clear();
        self.recalls.clear();
        self.timeout_recalls = 0;
        self.assignments.clear();
        self.effective_at = now;
        self.matching_seconds = 0.0;
    }
}

/// Result of a completed task, for the caller's metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletionOutcome {
    /// Did the result arrive before the task's deadline?
    pub met_deadline: bool,
    /// The requester feedback recorded (positive requires the deadline
    /// to have been met — the paper's Fig. 6 semantics).
    pub positive_feedback: bool,
    /// `ExecTime_ij`: seconds from (effective) assignment to completion.
    pub exec_time: f64,
    /// The instant this server took the task in.
    pub submitted_at: f64,
}

/// Fluent constructor for [`ReactServer`]: the configuration, the
/// matcher seed and the observer.
///
/// ```
/// use react_core::prelude::*;
///
/// let server = ServerBuilder::new(Config::paper_defaults())
///     .seed(42)
///     .build()
///     .expect("paper defaults are valid");
/// assert_eq!(server.batches_run(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct ServerBuilder {
    config: Config,
    seed: u64,
    observer: ObserverHandle,
}

impl ServerBuilder {
    /// Starts a builder for `config`. Defaults: seed 0, audit as
    /// configured in `config.audit`, and the null observer.
    pub fn new(config: Config) -> Self {
        ServerBuilder {
            config,
            seed: 0,
            observer: null_observer(),
        }
    }

    /// RNG seed for the randomized matchers (equal seeds ⇒ equal runs).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Routes the server's telemetry — `tick`/stage spans, task and
    /// matcher counters, latency histograms — to `observer`. Observers
    /// are write-only sinks; schedules are bit-identical whatever sink
    /// is installed.
    pub fn observer(mut self, observer: ObserverHandle) -> Self {
        self.observer = observer;
        self
    }

    /// Validates the configuration and assembles the server.
    pub fn build(self) -> Result<ReactServer, CoreError> {
        self.config.validate()?;
        Ok(ReactServer::assemble(self.config, self.seed, self.observer))
    }
}

// Shape of the recovery timeout ladder (`stage_timeout_ladder`); its base
// is `RecoveryConfig::progress_timeout`.
/// Factor by which each reassignment widens the progress allowance.
const LADDER_BACKOFF: f64 = 2.0;
/// Largest progress allowance, as a multiple of the base.
const LADDER_CAP: f64 = 4.0;
/// Progress timeouts without an intervening completion before a worker is
/// marked suspect.
const SUSPECT_AFTER: u32 = 3;
/// Multiplicative decay of a suspect worker's profile weight per mark.
const SUSPECT_DECAY: f64 = 0.8;

/// A REACT region server.
#[derive(Debug, Clone)]
pub struct ReactServer {
    config: Config,
    profiling: ProfilingComponent,
    tasks: TaskManagementComponent,
    /// The matcher engine, built once from the policy and reused across
    /// batches (rebuilt only when an adaptive cycle budget moves).
    engine: MatcherEngine,
    rng: SmallRng,
    /// The scheduler is busy (matching) until this instant; new batches
    /// wait for it.
    busy_until: f64,
    last_batch_at: f64,
    total_matching_seconds: f64,
    batches_run: u64,
    audit: Option<AuditLog>,
    observer: ObserverHandle,
    /// Consecutive progress timeouts per worker since their last
    /// completion (the suspicion ladder's strike counter).
    timeout_strikes: BTreeMap<WorkerId, u32>,
    /// Incremental graph builder: persistent arenas + the row table the
    /// profiler's change feed keeps current (see [`BatchScratch`]).
    scratch: BatchScratch,
    /// What the last tick did; see [`TickOutcome`].
    outcome: TickOutcome,
}

impl ReactServer {
    /// Starts a [`ServerBuilder`] for `config` — the supported way to
    /// construct a server.
    pub fn builder(config: Config) -> ServerBuilder {
        ServerBuilder::new(config)
    }

    /// The infallible assembly all construction paths share. Private:
    /// public construction goes through [`ServerBuilder::build`], which
    /// validates first.
    fn assemble(config: Config, seed: u64, observer: ObserverHandle) -> Self {
        let estimator = config.estimator;
        let audit = config.audit.then(AuditLog::new);
        let engine = MatcherEngine::new(config.matcher).with_observer(observer.clone());
        ReactServer {
            config,
            profiling: ProfilingComponent::new(estimator),
            tasks: TaskManagementComponent::new(),
            engine,
            rng: SmallRng::seed_from_u64(seed),
            busy_until: 0.0,
            last_batch_at: 0.0,
            total_matching_seconds: 0.0,
            batches_run: 0,
            audit,
            observer,
            timeout_strikes: BTreeMap::new(),
            scratch: BatchScratch::new(),
            outcome: TickOutcome::default(),
        }
    }

    /// The audit log, when enabled.
    pub fn audit(&self) -> Option<&AuditLog> {
        self.audit.as_ref()
    }

    fn record_event(&mut self, at: f64, task: crate::ids::TaskId, kind: TaskEventKind) {
        if let Some(log) = self.audit.as_mut() {
            log.push(at, task, kind);
        }
    }

    /// Routes this server's telemetry to `observer` (also re-routes the
    /// matcher engine). Prefer [`ServerBuilder::observer`]; this exists
    /// for embeddings that construct the server before the sink.
    pub fn set_observer(&mut self, observer: ObserverHandle) {
        self.engine.set_observer(observer.clone());
        self.observer = observer;
    }

    /// The observer sink receiving this server's telemetry.
    pub fn observer(&self) -> &ObserverHandle {
        &self.observer
    }

    /// The active configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Read access to worker profiles.
    pub fn profiling(&self) -> &ProfilingComponent {
        &self.profiling
    }

    /// Read access to task records.
    pub fn tasks(&self) -> &TaskManagementComponent {
        &self.tasks
    }

    /// Accumulated modelled matching time across all batches.
    pub fn total_matching_seconds(&self) -> f64 {
        self.total_matching_seconds
    }

    /// Number of batches run so far.
    pub fn batches_run(&self) -> u64 {
        self.batches_run
    }

    /// How many times the matcher engine's cycle budget was set — stays
    /// at 1 across any number of batches for fixed-cycle policies;
    /// grows only when an adaptive cycle budget changes with the
    /// graph's edge count.
    pub fn matcher_rebuilds(&self) -> u64 {
        self.engine.rebuilds()
    }

    /// The instant until which the scheduler is busy matching.
    pub fn busy_until(&self) -> f64 {
        self.busy_until
    }

    // ----- ingestion ------------------------------------------------

    /// Registers a worker located at `location`, initially available.
    pub fn register_worker(&mut self, id: WorkerId, location: GeoPoint) {
        // Duplicate registration is a caller bug in simulations but a
        // routine reconnect in a live system: treat as location update.
        // Only an *offline* worker flips back to available — a busy one
        // re-registering (say, a flaky connection) must stay busy, or
        // the scheduler would double-book them.
        if self.profiling.register(id, location).is_err() {
            let _ = self.profiling.set_location(id, location);
            if self
                .profiling
                .profile(id)
                .map(|p| p.availability() == Availability::Offline)
                .unwrap_or(false)
            {
                let _ = self.profiling.set_availability(id, Availability::Available);
            }
        }
    }

    /// Marks a worker as departed. Every task they were executing (or,
    /// under the Traditional policy, queueing for) returns to the
    /// unassigned pool — the Dynamic Assignment Component *"is able to
    /// deal with changes in the worker set ... by reassigning the tasks
    /// when workers abandon the system"*. Returns the recalled tasks.
    pub fn worker_offline(&mut self, id: WorkerId, now: f64) -> Vec<TaskId> {
        let held: Vec<TaskId> = self
            .tasks
            .assigned()
            .filter(|&(_, w)| w == id)
            .map(|(t, _)| t)
            .collect();
        for &task in &held {
            if self.tasks.mark_unassigned(task).is_ok() {
                self.record_event(now, task, TaskEventKind::Recalled { worker: id });
            }
        }
        let _ = self.profiling.set_availability(id, Availability::Offline);
        held
    }

    /// A previously offline worker came back. A no-op for workers that
    /// are not actually offline (a spurious reconnect while busy must
    /// not free the worker for double-booking).
    pub fn worker_online(&mut self, id: WorkerId) -> Result<(), CoreError> {
        if self.profiling.profile(id)?.availability() == Availability::Offline {
            self.profiling
                .set_availability(id, Availability::Available)?;
        }
        Ok(())
    }

    /// Accepts a task submitted at time `now`.
    pub fn submit_task(&mut self, task: Task, now: f64) {
        // Duplicate submissions are dropped (idempotent ingestion).
        let id = task.id;
        if self.tasks.submit(task, now).is_ok() {
            self.record_event(now, id, TaskEventKind::Submitted);
        }
    }

    /// Evicts the oldest queued (unassigned) task for a cross-shard
    /// handoff and returns it together with its original submission
    /// time, or `None` on an empty queue. The task leaves this server
    /// entirely (audited as [`TaskEventKind::HandedOff`]); the cluster
    /// layer re-submits it on a neighbouring shard. In-flight assignments
    /// are never evicted.
    pub fn evict_oldest_unassigned(&mut self, now: f64) -> Option<(Task, f64)> {
        let rec = self.tasks.take_oldest_unassigned()?;
        self.record_event(now, rec.task.id, TaskEventKind::HandedOff);
        Some((rec.task, rec.submitted_at))
    }

    // ----- the control step ------------------------------------------

    /// One control step at time `now`, as a pipeline of named stages:
    /// **expire** → **recall** → **build** → **match** → **commit**
    /// (the last three only when the scheduler is free and the batch
    /// trigger fires). Stages are emitted as `tick.*` spans (plus
    /// task/batch counters) through the configured observer; under the
    /// null observer no clock is read.
    ///
    /// The outcome is the server's own, cleared here and filled by the
    /// stages, and is lent out until the next call: a warm tick
    /// allocates nothing.
    pub fn tick(&mut self, now: f64) -> &TickOutcome {
        let tick_timer = SpanTimer::start(self.observer.as_ref());
        self.outcome.clear(now);

        let t = SpanTimer::start(self.observer.as_ref());
        self.stage_expire(now);
        t.finish(self.observer.as_ref(), SpanKind::StageExpire);

        let t = SpanTimer::start(self.observer.as_ref());
        self.stage_recall(now);
        t.finish(self.observer.as_ref(), SpanKind::StageRecall);

        let mut batch_size = None;
        if self.batch_due(now) {
            // Stage 3: incremental two-phase graph construction through
            // the persistent scratch. Inlined (rather than a &mut self
            // helper) because the built graph borrows the scratch while
            // the matcher runs over the sibling fields.
            let t = SpanTimer::start(self.observer.as_ref());
            let built = self
                .scratch
                .build(&self.config, &mut self.profiling, &self.tasks, now);
            if self.observer.enabled() {
                let obs = self.observer.as_ref();
                let stats = built.stats;
                if stats.refits > 0 {
                    obs.incr(CounterKind::ProfileRefits, stats.refits as u64);
                }
                if stats.rows_reused > 0 {
                    obs.incr(CounterKind::BuildRowsReused, stats.rows_reused as u64);
                }
                if stats.cdf_memo_hits > 0 {
                    obs.incr(CounterKind::BuildCdfMemoHits, stats.cdf_memo_hits);
                }
                if stats.bytes_reused > 0 {
                    obs.incr(CounterKind::ScratchBytesReused, stats.bytes_reused as u64);
                }
            }
            t.finish(self.observer.as_ref(), SpanKind::StageBuild);

            // Stage 4: matching over the built graph through the engine,
            // into the outcome's own assignment vector.
            let t = SpanTimer::start(self.observer.as_ref());
            let batch = SchedulingComponent::match_built(
                &self.config,
                &mut self.engine,
                built.graph,
                built.workers,
                built.task_ids,
                built.pruned,
                self.tasks.open_count(),
                &mut self.rng,
                std::mem::take(&mut self.outcome.assignments),
            );
            t.finish(self.observer.as_ref(), SpanKind::StageMatch);

            let t = SpanTimer::start(self.observer.as_ref());
            batch_size = Some(batch.graph_shape.1);
            self.stage_commit(now, batch);
            t.finish(self.observer.as_ref(), SpanKind::StageCommit);
        }
        if self.observer.enabled() {
            let obs = self.observer.as_ref();
            let outcome = &self.outcome;
            if !outcome.expired.is_empty() {
                obs.incr(CounterKind::TasksExpired, outcome.expired.len() as u64);
            }
            if !outcome.recalls.is_empty() {
                obs.incr(CounterKind::Reassignments, outcome.recalls.len() as u64);
            }
            if outcome.timeout_recalls > 0 {
                obs.incr(CounterKind::TimeoutRecalls, outcome.timeout_recalls);
            }
            if !outcome.assignments.is_empty() {
                obs.incr(CounterKind::TasksAssigned, outcome.assignments.len() as u64);
            }
            if let Some(size) = batch_size {
                obs.incr(CounterKind::BatchesRun, 1);
                obs.observe(HistogramKind::BatchSize, size as f64);
                obs.observe(HistogramKind::MatchingSeconds, outcome.matching_seconds);
            }
        }
        tick_timer.finish(self.observer.as_ref(), SpanKind::Tick);
        &self.outcome
    }

    /// What the last [`tick`](Self::tick) did (empty before the first):
    /// for a caller that ticks several servers before reading any of
    /// their outcomes.
    pub fn last_outcome(&self) -> &TickOutcome {
        &self.outcome
    }

    /// Pipeline stage 1: retire queued tasks that can no longer make
    /// their deadline.
    fn stage_expire(&mut self, now: f64) {
        self.tasks
            .expire_overdue_unassigned(now, &mut self.outcome.expired);
        if let Some(log) = self.audit.as_mut() {
            for &task in &self.outcome.expired {
                log.push(now, task, TaskEventKind::Expired);
            }
        }
    }

    /// Pipeline stage 2: recall in-flight assignments the Eq. (2) model
    /// has given up on, then apply the recovery timeout ladder to
    /// whatever is still in flight.
    fn stage_recall(&mut self, now: f64) {
        let recalls = &mut self.outcome.recalls;
        let exact_checks = DynamicAssignmentComponent::check_due(
            &self.config,
            &mut self.profiling,
            &mut self.tasks,
            now,
            recalls,
        );
        #[cfg(feature = "debug-invariants")]
        assert_eq!(
            *recalls,
            DynamicAssignmentComponent::check(&self.config, &mut self.profiling, &self.tasks, now),
            "memoized recall scan diverged from the exact full scan at t={now}"
        );
        if exact_checks > 0 && self.observer.enabled() {
            self.observer
                .incr(CounterKind::RecallExactChecks, exact_checks);
        }
        for recall in recalls.iter() {
            if self.tasks.mark_unassigned(recall.task).is_ok() {
                let _ = self.profiling.record_recall(recall.worker);
                if let Some(log) = self.audit.as_mut() {
                    let worker = recall.worker;
                    log.push(now, recall.task, TaskEventKind::Recalled { worker });
                }
            }
        }
        self.stage_timeout_ladder(now);
    }

    /// The recovery timeout ladder: the `attempt`-th assignment of a task
    /// gets `progress_timeout · min(LADDER_BACKOFF^attempt, LADDER_CAP)`
    /// seconds to show progress before it is recalled, and a worker that
    /// times out `SUSPECT_AFTER` times without completing anything is
    /// marked suspect (its profile weight decays by `SUSPECT_DECAY`).
    /// Unlike the Eq. (2) check, the ladder needs no latency model — it is
    /// the only recovery path for silently abandoned tasks and lost
    /// completion messages, and it also covers past-due assignments so
    /// they can expire instead of hanging forever on a dead worker. Its
    /// recalls join the outcome's, counted in `timeout_recalls`.
    fn stage_timeout_ladder(&mut self, now: f64) {
        let rc = self.config.recovery;
        let Some(t0) = rc.progress_timeout else {
            return;
        };
        let mut suspected = 0u64;
        // Attempt 0 = first assignment; each retry widens the allowance
        // by the backoff factor, up to the cap.
        let recalls = &mut self.outcome.recalls;
        let first = recalls.len();
        self.tasks.progress_overdue(
            now,
            |assignment_count| {
                let attempt = assignment_count.saturating_sub(1).min(64);
                (t0 * LADDER_BACKOFF.powi(attempt as i32)).min(t0 * LADDER_CAP)
            },
            recalls,
        );
        let mut k = first;
        while let Some(&Recall { task, worker, .. }) = recalls.get(k) {
            if self.tasks.mark_unassigned(task).is_err() {
                recalls.remove(k);
                continue;
            }
            k += 1;
            let _ = self.profiling.record_recall(worker);
            if let Some(log) = self.audit.as_mut() {
                log.push(now, task, TaskEventKind::Recalled { worker });
            }
            let strikes = self.timeout_strikes.entry(worker).or_insert(0);
            *strikes += 1;
            if *strikes >= SUSPECT_AFTER {
                *strikes = 0;
                if self.profiling.mark_suspect(worker, SUSPECT_DECAY).is_ok() {
                    suspected += 1;
                }
            }
        }
        self.outcome.timeout_recalls = (recalls.len() - first) as u64;
        if suspected > 0 && self.observer.enabled() {
            self.observer.incr(CounterKind::WorkersSuspected, suspected);
        }
    }

    /// Whether the scheduler is free and the batch trigger fires, i.e.
    /// whether a [`tick`](Self::tick) at `now` matches.
    fn batch_due(&self, now: f64) -> bool {
        now >= self.busy_until
            && self
                .config
                .batch
                .should_fire(self.tasks.unassigned_count(), now - self.last_batch_at)
    }

    /// Pipeline stage 5: apply the batch — charge the modelled matching
    /// latency, move tasks/workers to assigned, record audit events —
    /// and move its assignments into the outcome.
    fn stage_commit(&mut self, now: f64, batch: BatchResult) {
        let seconds = if self.config.charge_matching_time {
            CostModel::paper_calibrated().seconds_for(batch.matcher_name, batch.region_cost_units)
        } else {
            0.0
        };
        let effective_at = now + seconds;
        for &(worker, task) in &batch.assignments {
            // A batch only ever pairs ids it just read from the live
            // registries, so failures here mean the matcher fabricated
            // ids; drop the pair rather than poison the server.
            if self
                .tasks
                .mark_assigned(task, worker, effective_at)
                .is_err()
            {
                debug_assert!(false, "batch assigned untracked {task}");
                continue;
            }
            if self.profiling.record_assignment(worker).is_err() {
                debug_assert!(false, "batch assigned unregistered {worker}");
            }
            self.record_event(effective_at, task, TaskEventKind::Assigned { worker });
        }
        self.busy_until = effective_at;
        self.last_batch_at = now;
        self.total_matching_seconds += seconds;
        self.batches_run += 1;
        self.outcome.assignments = batch.assignments;
        self.outcome.matching_seconds = seconds;
        self.outcome.effective_at = effective_at;
    }

    // ----- completions ------------------------------------------------

    /// A worker returned a result at `now`. `quality_ok` is the
    /// requester's verdict on the result content (in the simulation:
    /// a coin weighted by the worker's intrinsic quality); the recorded
    /// feedback is positive only when the deadline was also met.
    pub fn complete_task(
        &mut self,
        task: TaskId,
        worker: WorkerId,
        now: f64,
        quality_ok: bool,
    ) -> Result<CompletionOutcome, CoreError> {
        let Finished {
            met_deadline,
            exec_time,
            category,
            submitted_at,
        } = self.tasks.finish(task, worker, now)?;
        // A delivered result absolves the worker of accumulated progress
        // strikes (the suspicion ladder counts *consecutive* timeouts).
        self.timeout_strikes.remove(&worker);
        let positive_feedback = quality_ok && met_deadline;
        self.profiling.record_completion(
            worker,
            category,
            exec_time.max(f64::MIN_POSITIVE),
            positive_feedback,
        )?;
        self.record_event(
            now,
            task,
            TaskEventKind::Completed {
                worker,
                met_deadline,
            },
        );
        if self.observer.enabled() {
            let obs = self.observer.as_ref();
            obs.incr(CounterKind::TasksCompleted, 1);
            if met_deadline {
                obs.incr(CounterKind::DeadlinesMet, 1);
            }
            if positive_feedback {
                obs.incr(CounterKind::PositiveFeedback, 1);
            }
            obs.observe(HistogramKind::ExecSeconds, exec_time);
        }
        Ok(CompletionOutcome {
            met_deadline,
            positive_feedback,
            exec_time,
            submitted_at,
        })
    }

    /// Drops retired task records older than `horizon` seconds (memory
    /// hygiene for long runs). Returns how many were pruned.
    pub fn prune_retired(&mut self, now: f64, horizon: f64) -> usize {
        self.tasks.prune_retired(now, horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BatchTrigger, MatcherPolicy};
    use crate::ids::TaskCategory;

    fn here() -> GeoPoint {
        GeoPoint::new(37.98, 23.72)
    }

    fn task(id: u64, deadline: f64) -> Task {
        Task::new(TaskId(id), here(), deadline, 0.05, TaskCategory(0), "t")
    }

    /// A server that batches on every waiting task and charges no
    /// matching time — convenient for step-by-step tests.
    fn eager_server() -> ReactServer {
        let mut config = Config::paper_defaults();
        config.batch = BatchTrigger {
            min_unassigned: 1,
            period: None,
        };
        config.charge_matching_time = false;
        ReactServer::builder(config).seed(7).build().unwrap()
    }

    #[test]
    fn assigns_submitted_task_to_registered_worker() {
        let mut s = eager_server();
        s.register_worker(WorkerId(1), here());
        s.submit_task(task(1, 60.0), 0.0);
        let out = s.tick(0.0);
        assert_eq!(out.assignments, vec![(WorkerId(1), TaskId(1))]);
        assert_eq!(out.effective_at, 0.0);
        assert_eq!(out.matching_seconds, 0.0);
        assert!(out.expired.is_empty());
        assert_eq!(s.batches_run(), 1);
        // Worker is now busy; a second task waits.
        s.submit_task(task(2, 60.0), 1.0);
        let out = s.tick(1.0);
        assert!(out.assignments.is_empty());
    }

    #[test]
    fn batch_trigger_threshold_respected() {
        let mut config = Config::paper_defaults(); // min_unassigned = 10
        config.charge_matching_time = false;
        let mut s = ReactServer::builder(config).seed(1).build().unwrap();
        for w in 0..20 {
            s.register_worker(WorkerId(w), here());
        }
        for t in 0..9 {
            s.submit_task(task(t, 60.0), 0.0);
        }
        assert!(s.tick(0.0).assignments.is_empty(), "9 < 10: no batch");
        s.submit_task(task(9, 60.0), 0.0);
        let out = s.tick(0.0);
        assert_eq!(out.assignments.len(), 10);
    }

    #[test]
    fn charged_matching_time_delays_effect_and_blocks_scheduler() {
        let mut config = Config::paper_defaults();
        config.batch = BatchTrigger {
            min_unassigned: 1,
            period: None,
        };
        let mut s = ReactServer::builder(config).seed(1).build().unwrap();
        for w in 0..5 {
            s.register_worker(WorkerId(w), here());
        }
        s.submit_task(task(1, 600.0), 0.0);
        let out = s.tick(0.0).clone();
        assert_eq!(out.assignments.len(), 1);
        assert!(out.matching_seconds > 0.0, "paper cost model charges time");
        assert_eq!(out.effective_at, out.matching_seconds);
        assert_eq!(s.busy_until(), out.effective_at);
        // While busy, no further batch runs.
        s.submit_task(task(2, 600.0), 0.0);
        let mid = s.tick(out.effective_at / 2.0);
        assert!(mid.assignments.is_empty());
        // After the busy window the queued task is served.
        let later = s.tick(out.effective_at);
        assert_eq!(later.assignments.len(), 1);
        assert!(s.total_matching_seconds() > 0.0);
    }

    #[test]
    fn completion_updates_profile_and_feedback() {
        let mut s = eager_server();
        s.register_worker(WorkerId(1), here());
        s.submit_task(task(1, 60.0), 0.0);
        s.tick(0.0);
        let out = s.complete_task(TaskId(1), WorkerId(1), 5.0, true).unwrap();
        assert!(out.met_deadline);
        assert!(out.positive_feedback);
        assert_eq!(out.exec_time, 5.0);
        let profile = s.profiling().profile(WorkerId(1)).unwrap();
        assert_eq!(profile.total_finished(), 1);
        assert_eq!(profile.total_positive(), 1);
        assert_eq!(profile.availability(), Availability::Available);
    }

    #[test]
    fn late_completion_never_earns_positive_feedback() {
        let mut s = eager_server();
        s.register_worker(WorkerId(1), here());
        s.submit_task(task(1, 10.0), 0.0);
        s.tick(0.0);
        let out = s.complete_task(TaskId(1), WorkerId(1), 99.0, true).unwrap();
        assert!(!out.met_deadline);
        assert!(!out.positive_feedback, "positive requires met deadline");
    }

    #[test]
    fn unassigned_tasks_expire() {
        let mut s = eager_server();
        s.submit_task(task(1, 10.0), 0.0);
        // No workers: the task sits unassigned past its deadline.
        let out = s.tick(11.0);
        assert_eq!(out.expired, vec![TaskId(1)]);
    }

    #[test]
    fn stalled_worker_triggers_recall_and_reassignment() {
        let mut s = eager_server();
        s.register_worker(WorkerId(1), here());
        // Build a fast profile for worker 1 (3 tasks, 1–2 s each).
        for t in 0..3 {
            s.submit_task(task(100 + t, 60.0), 0.0);
            s.tick(0.0);
            s.complete_task(TaskId(100 + t), WorkerId(1), 0.0 + 1.5, true)
                .unwrap();
        }
        // Caveat: completions above all at time 1.5; now assign a fresh
        // task and let the worker stall.
        s.submit_task(task(200, 60.0), 10.0);
        let out = s.tick(10.0);
        assert_eq!(out.assignments.len(), 1);
        // At t=50 the worker has stalled for 40 s on a ≤2 s profile.
        s.register_worker(WorkerId(2), here()); // a rescuer appears
        let out = s.tick(50.0);
        assert_eq!(out.recalls.len(), 1);
        assert_eq!(out.recalls[0].task, TaskId(200));
        assert_eq!(out.recalls[0].worker, WorkerId(1));
        // The same tick's batch hands the task to the fresh worker.
        assert_eq!(out.assignments, vec![(WorkerId(2), TaskId(200))]);
    }

    #[test]
    fn traditional_server_never_recalls() {
        let mut config = Config::with_matcher(MatcherPolicy::Traditional);
        config.batch = BatchTrigger {
            min_unassigned: 1,
            period: None,
        };
        config.charge_matching_time = false;
        let mut s = ReactServer::builder(config).seed(3).build().unwrap();
        s.register_worker(WorkerId(1), here());
        for t in 0..3 {
            s.submit_task(task(100 + t, 60.0), 0.0);
            s.tick(0.0);
            s.complete_task(TaskId(100 + t), WorkerId(1), 1.0, true)
                .unwrap();
        }
        s.submit_task(task(200, 60.0), 10.0);
        s.tick(10.0);
        let out = s.tick(55.0);
        assert!(out.recalls.is_empty());
    }

    #[test]
    fn timeout_ladder_recalls_silent_workers_and_suspects_them() {
        use crate::config::RecoveryConfig;
        let mut config = Config::paper_defaults();
        config.batch = BatchTrigger {
            min_unassigned: 1,
            period: None,
        };
        config.recovery = RecoveryConfig::aggressive(10.0);
        config.audit = true;
        config.charge_matching_time = false;
        let mut s = ReactServer::builder(config).seed(7).build().unwrap();
        s.register_worker(WorkerId(1), here());
        s.submit_task(task(1, 600.0), 0.0);
        assert_eq!(s.tick(0.0).assignments.len(), 1);
        // Inside the 10 s allowance: nothing happens.
        let out = s.tick(5.0);
        assert!(out.recalls.is_empty() && out.timeout_recalls == 0);
        // Past it: the ladder recalls, and the lone worker is re-picked.
        let out = s.tick(11.0);
        assert_eq!(out.timeout_recalls, 1);
        assert_eq!(out.recalls.len(), 1);
        assert_eq!(out.recalls[0].task, TaskId(1));
        assert_eq!(out.assignments, vec![(WorkerId(1), TaskId(1))]);
        // Attempt 1 gets a backed-off 20 s allowance.
        let out = s.tick(25.0);
        assert!(out.recalls.is_empty(), "within the widened allowance");
        let out = s.tick(35.0);
        assert_eq!(out.timeout_recalls, 1, "second strike past 11+20");
        let suspicions = |s: &ReactServer| s.profiling().profile(WorkerId(1)).unwrap().suspicions();
        assert_eq!(suspicions(&s), 0, "two strikes are below SUSPECT_AFTER");
        // Attempt 2 gets 40 s, which is also the cap.
        assert!(s.tick(74.0).recalls.is_empty());
        assert_eq!(s.tick(76.0).timeout_recalls, 1, "third strike past 35+40");
        // SUSPECT_AFTER strikes ⇒ suspect, weight decayed.
        assert_eq!(suspicions(&s), 1);
        let prof = s.profiling().profile(WorkerId(1)).unwrap();
        assert!((prof.weight_penalty() - SUSPECT_DECAY).abs() < 1e-12);
        // Attempt 3 stays at LADDER_CAP × base rather than doubling to 80 s.
        assert!(s.tick(115.0).recalls.is_empty());
        assert_eq!(s.tick(117.0).timeout_recalls, 1, "capped allowance, 76+40");
        crate::verify_lifecycles(s.audit().unwrap());
        // A completion clears the strike counter.
        s.complete_task(TaskId(1), WorkerId(1), 118.0, true)
            .unwrap();
        assert!(s.timeout_strikes.is_empty());
    }

    #[test]
    fn ladder_disabled_by_default_leaves_stalled_workers_alone() {
        let mut s = eager_server();
        s.register_worker(WorkerId(1), here());
        s.submit_task(task(1, 600.0), 0.0);
        s.tick(0.0);
        // No profile (cold worker) and no ladder: nothing recalls even
        // after a long stall.
        let out = s.tick(500.0);
        assert!(out.recalls.is_empty());
        assert_eq!(out.timeout_recalls, 0);
    }

    #[test]
    fn worker_offline_recalls_their_task() {
        let mut s = eager_server();
        s.register_worker(WorkerId(1), here());
        s.submit_task(task(1, 60.0), 0.0);
        s.tick(0.0);
        let recalled = s.worker_offline(WorkerId(1), 0.5);
        assert_eq!(recalled, vec![TaskId(1)]);
        assert_eq!(s.tasks().unassigned(), &[TaskId(1)]);
        // Coming back online makes them assignable again.
        s.worker_online(WorkerId(1)).unwrap();
        let out = s.tick(1.0);
        assert_eq!(out.assignments, vec![(WorkerId(1), TaskId(1))]);
    }

    #[test]
    fn duplicate_registration_is_location_update() {
        let mut s = eager_server();
        s.register_worker(WorkerId(1), here());
        let elsewhere = GeoPoint::new(40.64, 22.94);
        s.register_worker(WorkerId(1), elsewhere);
        assert_eq!(
            s.profiling().profile(WorkerId(1)).unwrap().location(),
            elsewhere
        );
    }

    #[test]
    fn completion_of_unassigned_task_fails() {
        let mut s = eager_server();
        s.register_worker(WorkerId(1), here());
        s.submit_task(task(1, 60.0), 0.0);
        // Not yet ticked: task unassigned.
        assert!(s.complete_task(TaskId(1), WorkerId(1), 5.0, true).is_err());
        assert!(s.complete_task(TaskId(9), WorkerId(1), 5.0, true).is_err());
    }

    #[test]
    fn matcher_is_cached_across_batches() {
        let mut s = eager_server();
        for w in 0..3 {
            s.register_worker(WorkerId(w), here());
        }
        for t in 0..3u64 {
            s.submit_task(task(t, 600.0), t as f64);
            s.tick(t as f64);
        }
        assert!(s.batches_run() >= 2);
        assert_eq!(s.matcher_rebuilds(), 1, "fixed cycles ⇒ built once");
    }

    #[test]
    fn adaptive_matcher_rebuilds_track_edge_count_changes() {
        let mut config = Config::paper_defaults();
        config.matcher = MatcherPolicy::ReactAdaptive { kappa: 1.0 };
        config.batch = BatchTrigger {
            min_unassigned: 1,
            period: None,
        };
        config.charge_matching_time = false;
        let mut s = ReactServer::builder(config).seed(5).build().unwrap();
        for w in 0..4 {
            s.register_worker(WorkerId(w), here());
        }
        // First batch: 4 workers × 2 tasks; second: fewer free workers,
        // different edge count → adaptive budget moves, engine rebuilds.
        s.submit_task(task(1, 600.0), 0.0);
        s.submit_task(task(2, 600.0), 0.0);
        s.tick(0.0);
        let after_first = s.matcher_rebuilds();
        assert_eq!(after_first, 1);
        s.submit_task(task(3, 600.0), 1.0);
        s.tick(1.0);
        assert!(s.batches_run() == 2);
        assert!(s.matcher_rebuilds() >= after_first);
    }

    #[test]
    fn each_tick_starts_from_an_empty_outcome() {
        let mut s = eager_server();
        s.register_worker(WorkerId(1), here());
        s.submit_task(task(1, 60.0), 0.0);
        s.submit_task(task(2, 5.0), 0.0);
        s.submit_task(task(3, 5.0), 0.0);
        let out = s.tick(6.0);
        assert_eq!(out.expired, vec![TaskId(2), TaskId(3)]);
        assert_eq!(out.assignments, vec![(WorkerId(1), TaskId(1))]);
        assert_eq!(
            s.last_outcome().expired.len(),
            2,
            "lent until the next tick"
        );
        // Nothing happens at 7 s: nothing from 6 s is reported again.
        let idle = s.tick(7.0);
        assert!(idle.expired.is_empty() && idle.assignments.is_empty());
        assert_eq!(idle.effective_at, 7.0);
        assert_eq!(idle.matching_seconds, 0.0);
    }

    #[test]
    fn builder_validates_config() {
        let mut config = Config::paper_defaults();
        config.matcher = MatcherPolicy::React { cycles: 0 };
        let err = ReactServer::builder(config).build().unwrap_err();
        assert!(matches!(err, crate::CoreError::InvalidConfig { .. }));
    }

    #[test]
    fn evict_oldest_unassigned_transfers_queue_with_audit() {
        let mut config = Config::paper_defaults();
        config.batch = BatchTrigger {
            min_unassigned: 100, // never batch — keep the queue intact
            period: None,
        };
        config.audit = true;
        let mut s = ReactServer::builder(config).build().unwrap();
        s.register_worker(WorkerId(1), here());
        s.submit_task(task(1, 60.0), 0.0);
        s.submit_task(task(2, 60.0), 1.0);
        s.submit_task(task(3, 60.0), 2.0);
        let first = s.evict_oldest_unassigned(3.0).unwrap();
        assert_eq!(first.0.id, crate::ids::TaskId(1), "oldest first");
        assert_eq!(first.1, 0.0, "original submission time preserved");
        let second = s.evict_oldest_unassigned(3.0).unwrap();
        assert_eq!(second.0.id, crate::ids::TaskId(2));
        assert_eq!(s.tasks().unassigned_count(), 1);
        // Handed-off tasks close their lifecycle on this server's log.
        let log = s.audit().unwrap();
        crate::events::verify_lifecycles(log);
        let history = log.task_history(crate::ids::TaskId(1));
        assert_eq!(history.last().unwrap().kind, TaskEventKind::HandedOff);
    }

    #[test]
    fn observer_receives_stage_spans_and_counters() {
        use react_obs::RecordingObserver;
        use std::sync::Arc;

        let rec = RecordingObserver::new();
        let mut config = Config::paper_defaults();
        config.batch = BatchTrigger {
            min_unassigned: 1,
            period: None,
        };
        config.charge_matching_time = false;
        let mut s = ReactServer::builder(config)
            .seed(7)
            .observer(Arc::new(rec.clone()))
            .build()
            .unwrap();
        s.register_worker(WorkerId(1), here());
        s.submit_task(task(1, 60.0), 0.0);
        let out = s.tick(0.0);
        assert_eq!(out.assignments.len(), 1);
        s.complete_task(TaskId(1), WorkerId(1), 5.0, true).unwrap();

        for kind in [
            SpanKind::Tick,
            SpanKind::StageExpire,
            SpanKind::StageRecall,
            SpanKind::StageBuild,
            SpanKind::StageMatch,
            SpanKind::StageCommit,
            SpanKind::MatcherAssign,
        ] {
            let stats = rec
                .span_stats(kind)
                .unwrap_or_else(|| panic!("missing span {}", kind.name()));
            assert!(stats.count >= 1, "{}", kind.name());
            assert!(stats.total_seconds >= 0.0);
        }
        assert_eq!(rec.counter(CounterKind::TasksAssigned), 1);
        assert_eq!(rec.counter(CounterKind::BatchesRun), 1);
        assert_eq!(rec.counter(CounterKind::TasksCompleted), 1);
        assert_eq!(rec.counter(CounterKind::DeadlinesMet), 1);
        assert_eq!(rec.counter(CounterKind::PositiveFeedback), 1);
        assert!(rec.counter(CounterKind::MatcherCycles) > 0);
        assert!(rec.histogram(HistogramKind::ExecSeconds).is_some());
        assert!(rec.histogram(HistogramKind::MatchingSeconds).is_some());
    }

    #[test]
    fn null_and_recording_observers_yield_identical_schedules() {
        use react_obs::RecordingObserver;
        use std::sync::Arc;

        let mut config = Config::paper_defaults();
        config.batch = BatchTrigger {
            min_unassigned: 1,
            period: None,
        };
        let build = |observed: bool| {
            let b = ReactServer::builder(config.clone()).seed(99);
            let b = if observed {
                b.observer(Arc::new(RecordingObserver::new()))
            } else {
                b
            };
            b.build().unwrap()
        };
        let mut plain = build(false);
        let mut observed = build(true);
        for s in [&mut plain, &mut observed] {
            for w in 0..4 {
                s.register_worker(WorkerId(w), here());
            }
            for t in 0..12u64 {
                s.submit_task(task(t, 600.0), 0.0);
            }
        }
        for step in 0..20 {
            let now = step as f64;
            let a = plain.tick(now);
            let b = observed.tick(now);
            assert_eq!(a.assignments, b.assignments);
            assert_eq!(a.effective_at.to_bits(), b.effective_at.to_bits());
            assert_eq!(a.matching_seconds.to_bits(), b.matching_seconds.to_bits());
        }
    }

    #[test]
    fn prune_retired_delegates() {
        let mut s = eager_server();
        s.register_worker(WorkerId(1), here());
        s.submit_task(task(1, 10.0), 0.0);
        s.tick(0.0);
        s.complete_task(TaskId(1), WorkerId(1), 1.0, true).unwrap();
        assert_eq!(s.prune_retired(1_000.0, 10.0), 1);
    }
}
