//! Live TCP ingest: an HTTP/1.1 front-end and the scheduler thread.
//!
//! This is the wire boundary the paper's middleware implies: requesters
//! submit tasks with `POST /tasks` and poll with `GET /tasks/<id>`;
//! acceptor threads apply the admission-control ladder (framing →
//! backlog watermark → bounded queue, see [`server`]) and hand admitted
//! tasks to the scheduler thread over a *bounded* channel — the
//! backpressure edge between the door and the middleware, and the one
//! thing the scheduler thread ever blocks on. The scheduler thread has
//! no loop of its own: it runs [`react_crowd::Lap::run`] — the loop of
//! [`react_crowd::ScenarioRunner`] — with the door's inbox on the scaled
//! wall clock as its [`Source`]. The door blocks until the grid's next
//! instant or the next submission, yields the end at `Stop`, and
//! publishes the backlog back to the acceptors every lap. So
//! [`IngestRuntime::replay`] of a trace, the same loop over
//! [`react_crowd::Arrivals`], schedules it as the runner does, and every
//! run ends the runner's way. Door-to-assignment latencies land in
//! [`IngestReport::assign_latencies`].
//!
//! Sockets are sanctioned here (and in `react-load`); the root
//! `clippy.toml` disallows `TcpListener`, `TcpStream` and `UdpSocket`
//! everywhere else, so the rest of the workspace stays socket-free.

// Sanctioned: this module and its `http`/`server` children are the door.
#![allow(clippy::disallowed_types)]

pub mod http;
pub mod server;

use crate::clock::ScaledClock;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError};
use parking_lot::Mutex;
use react_core::{
    verify_lifecycles, AuditLog, CompletionOutcome, Config, Task, TaskId, TickOutcome, WorkerId,
};
use react_crowd::{
    Arrivals, BehaviorParams, Delivery, Dispatch, Lap, Ledger, Next, Scenario, Source,
};
use react_faults::{FaultPlan, BURST_ID_BASE};
use react_obs::{null_observer, HistogramKind, ObserverHandle};
use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use server::STATUS_RETENTION;
pub use server::{DoorStats, Inbox, IngestTask, Shared, TaskStatus};

/// Configuration of the ingest front-end + scheduler + worker fleet.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Number of crowd workers in the scheduler's [`react_crowd::Crowd`] (they cost
    /// memory, not threads).
    pub n_workers: usize,
    /// Crowd behaviour parameters.
    pub behavior: BehaviorParams,
    /// Middleware configuration.
    pub config: Config,
    /// Crowd-seconds per wall-second (time compression).
    pub time_scale: f64,
    /// Scheduler control-loop period, in crowd seconds.
    pub tick_interval: f64,
    /// RNG seed (worker population, exec times, burst tasks), used as
    /// [`react_crowd::ScenarioRunner`] uses its scenario's. Burst tasks get
    /// 60–120 s deadlines and the door's one category.
    pub seed: u64,
    /// Fault-injection plan (`None` = fault-free).
    pub faults: Option<FaultPlan>,
    /// Capacity of the bounded door→scheduler queue.
    pub queue_capacity: usize,
    /// Backlog (queue + unassigned pool) above which the door sheds.
    pub backlog_watermark: usize,
    /// Acceptor threads sharing the listener.
    pub acceptors: usize,
    /// Bind address; use port 0 for an ephemeral port.
    pub bind_addr: String,
    /// Keep-alive read timeout (wall time) on idle connections.
    pub idle_timeout: Duration,
    /// Crowd seconds from `Stop` during which the scheduler's grid keeps
    /// ticking while work is open, as a scenario's `drain_horizon` does
    /// after its last arrival; a burst restarts it. The crowd's remaining
    /// events are then booked without waiting, and what the middleware
    /// still holds is counted as expired (queued) or stranded (in flight).
    /// At 0 the grid stops at `Stop`.
    pub drain_grace: f64,
}

impl Default for IngestConfig {
    fn default() -> Self {
        let mut config = Config::paper_defaults();
        // The matcher's real wall time *is* the latency here; don't
        // also charge the modelled PlanetLab-era cost.
        config.charge_matching_time = false;
        // A live front-end also matches on a period: the paper's
        // threshold-only trigger (>10 unassigned) would starve a
        // trickle of submissions below the threshold forever.
        config.batch.period = Some(5.0);
        IngestConfig {
            n_workers: 25,
            behavior: BehaviorParams::default(),
            config,
            time_scale: 60.0,
            tick_interval: 1.0,
            seed: 7,
            faults: None,
            queue_capacity: 256,
            backlog_watermark: 512,
            acceptors: 2,
            bind_addr: "127.0.0.1:0".to_string(),
            idle_timeout: Duration::from_millis(500),
            drain_grace: 600.0,
        }
    }
}

/// Outcome of one ingest run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngestReport {
    /// `POST /tasks` requests the door received.
    pub offered: u64,
    /// Submissions admitted into the scheduler queue.
    pub accepted: u64,
    /// Submissions shed at the door with 429.
    pub shed_door: u64,
    /// Malformed/unroutable requests answered 4xx/5xx.
    pub rejected: u64,
    /// Status polls served.
    pub polls: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Tasks that completed (any time).
    pub completed: u64,
    /// Tasks completed before their deadline.
    pub met_deadline: u64,
    /// Tasks that expired waiting in the queue, and those still queued
    /// when the run ended.
    pub expired: u64,
    /// Always 0: the middleware never sheds its queue. Kept while the
    /// benchmark harness's conservation check reads it (ROADMAP item 3).
    pub shed_server: u64,
    /// Recalls issued (Eq. (2) + timeout ladder).
    pub recalls: u64,
    /// Burst tasks injected by the fault plan.
    pub injected_burst: u64,
    /// Fault-shim events applied.
    pub fault_events: u64,
    /// Matching batches run.
    pub batches: u64,
    /// Tasks still in flight when the run ended: a worker abandoned them
    /// or their report was lost, and no recall freed them (0 on a clean
    /// run; counted so conservation always closes).
    pub stranded: u64,
    /// Peak bounded-queue depth the door sampled every lap (0 in a replay,
    /// which has no door).
    pub peak_queue_depth: usize,
    /// Peak door-visible backlog (queue + unassigned) the door sampled
    /// every lap (0 in a replay).
    pub peak_backlog: usize,
    /// Door-to-first-assignment latencies, crowd seconds, sorted.
    pub assign_latencies: Vec<f64>,
    /// The task lifecycle audit log, when `config.audit` was enabled. It
    /// is verified at teardown, which panics on an illegal transition — a
    /// test/debug tool.
    pub audit: Option<AuditLog>,
}

impl IngestReport {
    /// The conservation identity: every task the scheduler admitted
    /// (door-accepted + fault bursts) ends exactly one way.
    pub fn conserved(&self) -> bool {
        self.accepted + self.injected_burst
            == self.completed + self.expired + self.shed_server + self.stranded
    }

    /// Offered submissions that were shed at the door, in [0, 1].
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed_door as f64 / self.offered as f64
        }
    }
}

/// The ingest runtime: front-end + scheduler + worker fleet.
pub struct IngestRuntime {
    config: IngestConfig,
    observer: ObserverHandle,
}

/// A running ingest stack. Submit over TCP; call
/// [`IngestHandle::shutdown`] to drain and collect the report.
pub struct IngestHandle {
    addr: SocketAddr,
    clock: ScaledClock,
    shared: Arc<Shared>,
    acceptors: Vec<JoinHandle<()>>,
    scheduler: JoinHandle<IngestReport>,
    n_acceptors: usize,
}

impl IngestRuntime {
    /// Creates a runtime for the given configuration.
    pub fn new(config: IngestConfig) -> Self {
        IngestRuntime {
            config,
            observer: null_observer(),
        }
    }

    /// Attaches an observability sink (`ingest.*` + scheduler catalog).
    pub fn with_observer(mut self, observer: ObserverHandle) -> Self {
        self.observer = observer;
        self
    }

    /// Binds the listener, spawns the acceptors and the scheduler
    /// thread, and returns a handle to the running stack.
    ///
    /// # Panics
    /// Panics on a tick interval or time scale that is not positive and
    /// finite.
    pub fn start(self) -> std::io::Result<IngestHandle> {
        let (shared, inbox) = self.shared();
        let (lc, observer, clock) = (self.config, self.observer, shared.clock);
        let n_acceptors = lc.acceptors.max(1);
        let (addr, acceptors) = server::start_acceptors(
            &lc.bind_addr,
            n_acceptors,
            lc.idle_timeout,
            Arc::clone(&shared),
        )?;
        let scheduler = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ingest-scheduler".to_string())
                .spawn(move || {
                    let mut door = Door {
                        inbox,
                        shared: &shared,
                        now: 0.0,
                        peak_queue_depth: 0,
                        peak_backlog: 0,
                    };
                    let mut report = scheduler_thread(lc, &mut door, observer, &shared);
                    report.peak_queue_depth = door.peak_queue_depth;
                    report.peak_backlog = door.peak_backlog;
                    report
                })
                .expect("spawn scheduler thread")
        };
        Ok(IngestHandle {
            addr,
            clock,
            shared,
            acceptors,
            scheduler,
            n_acceptors,
        })
    }

    /// Runs the scheduler over `trace`, `(instant, task)` pairs, on a
    /// virtual clock: [`Lap::run`] over [`Arrivals::preset`], with no
    /// door, no socket and no thread. A trace out of time order is sorted
    /// stably first. Each task arrives at its instant, the run ends at
    /// the last one and drains for `drain_grace`, and the report is the
    /// one [`IngestHandle::shutdown`] would return, without the door's
    /// peaks. Given the same seed, crowd, middleware configuration, tick
    /// interval and drain window, its schedule is
    /// [`react_crowd::ScenarioRunner`]'s on the same trace.
    ///
    /// # Panics
    /// Panics as [`IngestRuntime::start`] does, and on an illegal audit
    /// trail when `config.audit` is on.
    pub fn replay(self, trace: Vec<(f64, Task)>) -> IngestReport {
        let (shared, _inbox) = self.shared();
        scheduler_thread(self.config, Arrivals::preset(trace), self.observer, &shared)
    }

    /// The state the door and the scheduler share, on a clock started
    /// now, and the receiving end of the door's bounded queue.
    ///
    /// # Panics
    /// Panics on a tick interval that is not positive and finite (static
    /// config): the tick grid would never advance.
    fn shared(&self) -> (Arc<Shared>, Receiver<Inbox>) {
        let tick = self.config.tick_interval;
        assert!(
            tick.is_finite() && tick > 0.0,
            "tick interval must be positive and finite, got {tick}"
        );
        let (submit_tx, inbox) = bounded::<Inbox>(self.config.queue_capacity.max(1));
        let shared = Arc::new(Shared {
            clock: ScaledClock::start(self.config.time_scale),
            observer: self.observer.clone(),
            draining: AtomicBool::new(false),
            backlog: AtomicUsize::new(0),
            watermark: self.config.backlog_watermark,
            next_id: AtomicU64::new(0),
            stats: DoorStats::default(),
            statuses: Mutex::new(HashMap::new()),
            submit_tx,
            default_location: Scenario::default_region().center(),
        });
        (shared, inbox)
    }
}

impl IngestHandle {
    /// The bound listen address (ephemeral port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The run's scaled clock (for wall↔crowd conversions in callers).
    pub fn clock(&self) -> ScaledClock {
        self.clock
    }

    /// Stops accepting, drains in-flight work (bounded by the
    /// configured grace), joins every thread, and returns the report.
    pub fn shutdown(self) -> IngestReport {
        self.shared.draining.store(true, Ordering::SeqCst);
        server::wake_acceptors(self.addr, self.n_acceptors);
        for handle in self.acceptors {
            handle.join().expect("acceptor thread panicked");
        }
        // Only the acceptors submit, so `Stop` is the inbox's last
        // message; sending it is also what wakes an idle scheduler. The
        // scheduler outlives the send (it holds `shared`, and leaves its
        // loop only on `Stop`), so a failure here is its panic, which
        // the join reports.
        let _ = self.shared.submit_tx.send(Inbox::Stop);
        self.scheduler.join().expect("scheduler thread panicked")
    }
}

/// The door's inbox on the scaled wall clock, as the scheduler's source.
struct Door<'a> {
    inbox: Receiver<Inbox>,
    shared: &'a Shared,
    /// The last instant handed out.
    now: f64,
    peak_queue_depth: usize,
    peak_backlog: usize,
}

/// Blocks on the inbox until `until`; the end is `Stop`, and asked again
/// after it, the door waits out `until` (no message follows `Stop`).
/// Each call first publishes the backlog — the inbox plus the `queued`
/// tasks — to the acceptors.
impl Source for Door<'_> {
    fn next_by(&mut self, until: f64, queued: usize) -> Next {
        let queue_depth = self.inbox.len();
        let backlog = queue_depth + queued;
        self.shared.backlog.store(backlog, Ordering::Relaxed);
        self.peak_queue_depth = self.peak_queue_depth.max(queue_depth);
        self.peak_backlog = self.peak_backlog.max(backlog);
        let observer = &self.shared.observer;
        if observer.enabled() {
            observer.observe(HistogramKind::IngestQueueDepth, queue_depth as f64);
        }

        let clock = self.shared.clock;
        let message = match self.inbox.recv_deadline(clock.instant_at(until)) {
            Ok(message) => message,
            Err(RecvTimeoutError::Timeout) => {
                self.now = until;
                return Next::Wait;
            }
            // Cannot happen while the scheduler thread holds `Shared` and
            // its sender; if it ever does, keep the loop's pace rather
            // than spin.
            Err(RecvTimeoutError::Disconnected) => {
                clock.sleep(until - clock.now());
                self.now = until;
                return Next::Wait;
            }
        };
        // Woken at a past `until`, the clock can read a hair before it.
        self.now = clock.now().max(self.now);
        match message {
            Inbox::Task(IngestTask { task, accepted_at }) => Next::Task {
                at: self.now,
                entered: accepted_at,
                task,
            },
            Inbox::Stop => Next::End(self.now),
        }
    }
}

/// The scheduler: [`Lap::run`] over `source` with the run's drain grace,
/// then the report. What the middleware still holds when the run ends is
/// counted as the runner counts it: queued tasks as expired, in-flight
/// ones as stranded.
fn scheduler_thread(
    lc: IngestConfig,
    source: impl Source,
    observer: ObserverHandle,
    shared: &Shared,
) -> IngestReport {
    let mut lap = Lap::seeded(
        lc.seed,
        lc.config.clone(),
        lc.n_workers,
        &lc.behavior,
        Scenario::default_region(),
        lc.faults.as_ref(),
        observer,
    );
    let mut books = Books {
        report: IngestReport::default(),
        accepted_at: HashMap::new(),
        finished: VecDeque::new(),
        shared,
    };
    lap.run(source, lc.tick_interval, lc.drain_grace, &mut books);

    let mut report = books.report;
    let (queued, in_flight) = lap.server.open_tasks();
    report.expired += queued as u64;
    report.stranded = in_flight as u64;
    report.batches = lap.server.batches_run();
    report.fault_events += lap.crowd.abandoned() + lap.crowd.lost();
    report.audit = lap.server.take_audit();
    if let Some(log) = &report.audit {
        verify_lifecycles(log);
    }

    // Close out door counters.
    report.offered = shared.stats.offered.load(Ordering::Relaxed);
    report.accepted = shared.stats.accepted.load(Ordering::Relaxed);
    report.shed_door = shared.stats.shed.load(Ordering::Relaxed);
    report.rejected = shared.stats.rejected.load(Ordering::Relaxed);
    report.polls = shared.stats.polls.load(Ordering::Relaxed);
    report.connections = shared.stats.connections.load(Ordering::Relaxed);
    report.assign_latencies.sort_by(|a, b| a.total_cmp(b));
    report
}

/// What the scheduler thread keeps of each step its [`Lap`] takes: the
/// report, the door's status table and each waiting task's door-accept
/// instant.
struct Books<'a> {
    report: IngestReport,
    /// Door-accept instant of each task not yet assigned once; an entry
    /// is dropped when its task is first assigned or expires, so
    /// the map does not grow with the run.
    accepted_at: HashMap<TaskId, f64>,
    /// Each task whose status turned completed or expired, with the
    /// instant it did, oldest first: the status is dropped from the door's
    /// table [`STATUS_RETENTION`] crowd seconds later.
    finished: VecDeque<(f64, TaskId)>,
    shared: &'a Shared,
}

impl Books<'_> {
    /// Drops the statuses of the tasks that finished `STATUS_RETENTION`
    /// or more before `now`.
    fn forget_finished(&mut self, now: f64) {
        let due = |&(at, _): &(f64, TaskId)| at + STATUS_RETENTION <= now;
        if !self.finished.front().is_some_and(due) {
            return;
        }
        let mut statuses = self.shared.statuses.lock();
        while let Some((_, task)) = self.finished.front().copied().filter(due) {
            self.finished.pop_front();
            statuses.remove(&task.0);
        }
    }
}

impl Ledger for Books<'_> {
    /// Only what came through the door is timed: a burst never did.
    fn arrived(&mut self, _: Option<()>, task: TaskId, entered: f64) {
        if task.0 < BURST_ID_BASE {
            self.accepted_at.insert(task, entered);
        }
    }

    fn ticked(&mut self, _: (), now: f64, outcome: &TickOutcome) {
        self.forget_finished(now);
        for &task in &outcome.expired {
            self.report.expired += 1;
            self.accepted_at.remove(&task);
            self.shared.set_status(task.0, TaskStatus::Expired);
            self.finished.push_back((now, task));
        }
        for recall in &outcome.recalls {
            self.report.recalls += 1;
            self.shared.set_status(recall.task.0, TaskStatus::Queued);
        }
        for &(_, task) in &outcome.assignments {
            self.shared.set_status(task.0, TaskStatus::Assigned);
            if let Some(at) = self.accepted_at.remove(&task) {
                self.report.assign_latencies.push((now - at).max(0.0));
            }
        }
    }

    fn completed(&mut self, _: (), done: &Delivery, outcome: &CompletionOutcome) {
        self.report.completed += 1;
        if outcome.met_deadline {
            self.report.met_deadline += 1;
        }
        let met_deadline = outcome.met_deadline;
        self.shared
            .set_status(done.task.0, TaskStatus::Completed { met_deadline });
        self.finished.push_back((done.at, done.task));
    }

    fn duplicated(&mut self, rejected: bool) {
        self.report.fault_events += 1;
        debug_assert!(rejected, "duplicate completion must be rejected");
    }

    fn offline(&mut self, _worker: WorkerId, recalled: &[TaskId]) {
        self.report.fault_events += 1;
        for task in recalled {
            self.shared.set_status(task.0, TaskStatus::Queued);
        }
    }

    fn burst(&mut self, task: &Task) {
        self.report.injected_burst += 1;
        self.report.fault_events += 1;
        self.shared.set_status(task.id.0, TaskStatus::Queued);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;

    /// Sends one HTTP request on `stream` and reads one response,
    /// returning (status, body).
    fn roundtrip(stream: &mut TcpStream, request: &str) -> (u16, String) {
        stream.write_all(request.as_bytes()).expect("write request");
        read_response(stream)
    }

    fn read_response(stream: &mut TcpStream) -> (u16, String) {
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut status_line = String::new();
        reader.read_line(&mut status_line).expect("status line");
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).expect("header line");
            let trimmed = line.trim_end();
            if trimmed.is_empty() {
                break;
            }
            if let Some(v) = trimmed.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().expect("length");
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).expect("body");
        (status, String::from_utf8(body).expect("utf8 body"))
    }

    /// Submits one task with the given deadline; returns (status, body).
    fn post_task(stream: &mut TcpStream, deadline: u32) -> (u16, String) {
        let body = format!("{{\"deadline\": {deadline}, \"reward\": 0.05}}");
        let req = format!(
            "POST /tasks HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        roundtrip(stream, &req)
    }

    /// Starts a stack, submits one task per deadline over one connection
    /// (each must be admitted) and shuts down at once: tasks are still
    /// queued or executing, so the drain path does the rest.
    fn submit_then_shutdown(
        config: IngestConfig,
        deadlines: impl IntoIterator<Item = u32>,
    ) -> IngestReport {
        let handle = IngestRuntime::new(config).start().expect("start");
        let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
        for deadline in deadlines {
            let (status, _) = post_task(&mut stream, deadline);
            assert_eq!(status, 202);
        }
        drop(stream);
        handle.shutdown()
    }

    fn quick_config() -> IngestConfig {
        IngestConfig {
            n_workers: 4,
            time_scale: 600.0,
            tick_interval: 2.0,
            seed: 11,
            queue_capacity: 64,
            backlog_watermark: 128,
            acceptors: 1,
            ..IngestConfig::default()
        }
    }

    #[test]
    fn submits_over_tcp_flow_through_to_completion() {
        let handle = IngestRuntime::new(quick_config()).start().expect("start");
        let addr = handle.local_addr();
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut ids = Vec::new();
        for _ in 0..5 {
            let (status, resp) = post_task(&mut stream, 120);
            assert_eq!(status, 202, "submit accepted: {resp}");
            let id: u64 = resp
                .split("\"task\":")
                .nth(1)
                .and_then(|s| s.split(',').next())
                .and_then(|s| s.trim().parse().ok())
                .expect("task id in response");
            ids.push(id);
        }
        // Poll until every task reaches a terminal-or-assigned state,
        // bounded by a generous crowd-time budget.
        let clock = handle.clock();
        let budget = 600.0; // crowd seconds == 1 wall second at scale 600
        while clock.now() < budget {
            let (status, body) = roundtrip(
                &mut stream,
                &format!("GET /tasks/{} HTTP/1.1\r\n\r\n", ids[4]),
            );
            assert_eq!(status, 200);
            if body.contains("completed") || body.contains("expired") {
                break;
            }
            clock.sleep(5.0);
        }
        let (status, body) = roundtrip(&mut stream, "GET /report HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        assert!(
            body.contains("\"offered\":5"),
            "report counts offers: {body}"
        );
        drop(stream);
        let report = handle.shutdown();
        assert_eq!(report.offered, 5);
        assert_eq!(report.accepted, 5);
        assert!(report.conserved(), "conservation identity: {report:?}");
        assert!(report.completed + report.expired + report.shed_server == 5);
        assert!(!report.assign_latencies.is_empty(), "latencies recorded");
    }

    #[test]
    fn unknown_task_poll_is_a_404_and_malformed_submit_a_400() {
        let handle = IngestRuntime::new(quick_config()).start().expect("start");
        let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
        let (status, _) = roundtrip(&mut stream, "GET /tasks/999 HTTP/1.1\r\n\r\n");
        assert_eq!(status, 404);
        let (status, _) = roundtrip(
            &mut stream,
            "POST /tasks HTTP/1.1\r\ncontent-length: 9\r\n\r\nnot-json!",
        );
        assert_eq!(status, 400);
        drop(stream);
        let report = handle.shutdown();
        assert_eq!(report.offered, 1);
        assert_eq!(report.accepted, 0);
        // The unknown-id 404 counts as a poll; only the bad body is a
        // rejection.
        assert_eq!(report.rejected, 1);
        assert_eq!(report.polls, 1);
        assert!(report.conserved());
    }

    /// Regression test for the shutdown race (found when workers were
    /// threads; kept as the drain path's audit check): an external
    /// shutdown arriving while workers hold in-flight assignments must
    /// not leave an orphaned audit event (a Completed after the task
    /// was recalled/sealed). `verify_lifecycles` runs inside
    /// `shutdown()` when auditing is on and panics on any illegal
    /// transition, so a clean return *is* the assertion.
    #[test]
    fn external_shutdown_mid_flight_leaves_a_clean_audit_log() {
        let mut config = quick_config();
        config.config.audit = true;
        config.seed = 23;
        // Completions race the teardown path.
        let report = submit_then_shutdown(config, (0..12).map(|i| 60 + i * 10));
        assert!(
            report
                .audit
                .as_ref()
                .is_some_and(|log| log.events().next().is_some()),
            "audit log was recorded"
        );
        assert!(report.conserved(), "conservation identity: {report:?}");
    }

    #[test]
    fn traditional_policy_issues_no_recalls() {
        let mut config = quick_config();
        config.config.matcher = react_core::MatcherPolicy::Traditional;
        let report = submit_then_shutdown(config, [120; 20]);
        assert_eq!(report.accepted, 20);
        assert_eq!(report.recalls, 0, "traditional never recalls: {report:?}");
        assert!(report.completed > 0);
        assert!(report.conserved(), "conservation identity: {report:?}");
    }

    #[test]
    fn fault_plan_fires_the_shims_and_recovery_drains_every_task() {
        use react_core::RecoveryConfig;
        use react_faults::DropoutPlan;
        let mut config = quick_config();
        config.n_workers = 10;
        config.config.recovery = RecoveryConfig::aggressive(20.0);
        config.faults = Some(FaultPlan {
            dropout: Some(DropoutPlan {
                probability: 0.5,
                window: (5.0, 40.0),
                offline_range: Some((10.0, 20.0)),
            }),
            abandon_probability: 0.3,
            loss_probability: 0.1,
            duplication_probability: 0.2,
            ..FaultPlan::none()
        });
        let report = submit_then_shutdown(config, [120; 30]);
        assert_eq!(report.accepted, 30);
        assert!(report.fault_events > 0, "shims must fire: {report:?}");
        assert!(report.conserved(), "conservation identity: {report:?}");
        assert_eq!(
            report.stranded, 0,
            "recovery must drain every faulted task: {report:?}"
        );
    }

    /// Completions and timed faults are booked at their own instants,
    /// which lie before the lap that books them: under the full chaos
    /// plan every task's audit trail must still be a legal, time-ordered
    /// lifecycle (`verify_lifecycles` runs inside `shutdown()` and
    /// panics otherwise) and the report must close.
    #[test]
    fn chaos_run_books_completions_and_faults_in_a_legal_order() {
        use react_core::RecoveryConfig;
        let mut config = quick_config();
        config.n_workers = 10;
        config.seed = 29;
        config.config.audit = true;
        config.config.recovery = RecoveryConfig::aggressive(20.0);
        config.faults = Some(FaultPlan::chaos(0.8));
        let report = submit_then_shutdown(config, (0..30).map(|i| 60 + i * 3));
        assert!(
            report
                .audit
                .as_ref()
                .is_some_and(|log| log.events().next().is_some()),
            "audit log was recorded"
        );
        assert!(report.fault_events > 0, "shims must fire: {report:?}");
        assert!(report.conserved(), "conservation identity: {report:?}");
        assert_eq!(report.stranded, 0, "{report:?}");
    }

    /// A finished task's status answers polls for `STATUS_RETENTION`
    /// crowd seconds and is then dropped: the next poll is the unknown-id
    /// 404. At 3 600 crowd seconds per wall second the retention is one
    /// wall second.
    #[test]
    fn a_finished_status_is_polled_until_its_retention_runs_out() {
        let config = IngestConfig {
            time_scale: 3_600.0,
            tick_interval: 30.0,
            // The connection idles through the retention.
            idle_timeout: Duration::from_secs(10),
            ..quick_config()
        };
        let handle = IngestRuntime::new(config).start().expect("start");
        let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
        let (status, _) = post_task(&mut stream, 120);
        assert_eq!(status, 202);
        let poll = "GET /tasks/0 HTTP/1.1\r\n\r\n";
        let clock = handle.clock();
        let finished_by = loop {
            let (status, body) = roundtrip(&mut stream, poll);
            assert_eq!(status, 200, "{body}");
            if body.contains("completed") || body.contains("expired") {
                break clock.now();
            }
            assert!(clock.now() < 1_200.0, "the task never finished: {body}");
            clock.sleep(5.0);
        };
        let (status, body) = roundtrip(&mut stream, poll);
        assert_eq!(status, 200, "polled right after finishing: {body}");
        // Ten ticks past the retention, the scheduler has dropped it.
        clock.sleep((finished_by + STATUS_RETENTION + 300.0 - clock.now()).max(0.0));
        let (status, body) = roundtrip(&mut stream, poll);
        assert_eq!(status, 404, "{body}");
        assert!(body.contains("unknown task"), "{body}");
        drop(stream);
        let report = handle.shutdown();
        assert_eq!(report.accepted, 1);
        assert!(report.conserved(), "conservation identity: {report:?}");
    }

    #[test]
    fn draining_door_rejects_new_submissions() {
        let handle = IngestRuntime::new(quick_config()).start().expect("start");
        let addr = handle.local_addr();
        // Open the connection first: once draining is set, *new*
        // connections are closed unserved, while in-flight ones get an
        // explicit 503 so clients can tell shutdown from a crash.
        let mut stream = TcpStream::connect(addr).expect("connect");
        // Complete one request so the connection is known to be served
        // (a stream merely sitting in the accept backlog when draining
        // flips would be closed unserved).
        let (status, _) = roundtrip(&mut stream, "GET /report HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        handle.shared.draining.store(true, Ordering::SeqCst);
        let (status, _) = roundtrip(
            &mut stream,
            "POST /tasks HTTP/1.1\r\ncontent-length: 2\r\n\r\n{}",
        );
        assert_eq!(status, 503);
        drop(stream);
        let report = handle.shutdown();
        assert_eq!(report.accepted, 0);
        assert!(report.conserved());
    }

    #[test]
    fn conservation_identity_arithmetic() {
        let mut r = IngestReport {
            accepted: 10,
            injected_burst: 2,
            completed: 7,
            expired: 3,
            shed_server: 1,
            stranded: 1,
            ..IngestReport::default()
        };
        assert!(r.conserved());
        r.stranded = 0;
        assert!(!r.conserved());
        r.offered = 20;
        r.shed_door = 5;
        assert!((r.shed_rate() - 0.25).abs() < 1e-12);
    }
}
