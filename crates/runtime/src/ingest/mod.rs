//! Live TCP ingest: an HTTP/1.1 front-end and the scheduler thread.
//!
//! This is the wire boundary the paper's middleware implies: requesters
//! submit tasks with `POST /tasks` and poll with `GET /tasks/<id>`;
//! acceptor threads apply the admission-control ladder (framing →
//! backlog watermark → bounded queue, see [`server`]) and hand admitted
//! tasks to the scheduler thread over a *bounded* channel — the
//! backpressure edge between the door and the middleware, and the one
//! thing the scheduler thread ever blocks on. The scheduler thread is
//! the crate's one live control loop: it owns the `ReactServer` and the
//! crowd (a [`react_crowd::Crowd`], the same model the discrete-event
//! runners drive: calendars and a timer queue, no threads), books each
//! completion and timed fault at its own instant, ticks once per
//! submission or tick period — waking for a completion only while a
//! batch waits for a worker or the stack drains —
//! publishes its backlog back to the door every tick, and records
//! door-to-assignment latencies in [`IngestReport::assign_latencies`].
//!
//! `std::net` usage is sanctioned here (and in `react-load`) by the
//! `react-analyze` `net-boundary` rule; the rest of the workspace
//! stays socket-free.

pub mod http;
pub mod server;

use crate::clock::ScaledClock;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError};
use parking_lot::Mutex;
use react_core::{verify_lifecycles, Config, ReactServer, Task, TaskId, WorkerId};
use react_crowd::{burst_task, generate_population, BehaviorParams, Crowd, Delivery};
use react_faults::{FaultPlan, FaultSchedule};
use react_geo::BoundingBox;
use react_obs::{null_observer, HistogramKind, ObserverHandle};
use react_sim::RngStreams;
use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

pub use server::{DoorStats, Inbox, IngestTask, Shared, TaskStatus};

/// Deadline range (crowd seconds) of fault-plan burst tasks.
const BURST_DEADLINE_RANGE: (f64, f64) = (60.0, 120.0);

/// A timed fault applied when the scaled clock reaches its instant.
enum FaultAction {
    Offline(usize),
    Online(usize),
    Burst(Vec<Task>),
}

/// Configuration of the ingest front-end + scheduler + worker fleet.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Number of crowd workers in the scheduler's [`Crowd`] (they cost
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
    /// RNG seed (worker population, exec times, burst tasks).
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
    /// Crowd seconds the scheduler keeps draining in-flight work after
    /// shutdown begins before force-shedding what remains.
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
    /// Tasks that expired waiting in the queue.
    pub expired: u64,
    /// Tasks shed by the scheduler (pool collapse or forced drain).
    pub shed_server: u64,
    /// Recalls issued (Eq. (2) + timeout ladder).
    pub recalls: u64,
    /// Burst tasks injected by the fault plan.
    pub injected_burst: u64,
    /// Fault-shim events applied.
    pub fault_events: u64,
    /// Matching batches run.
    pub batches: u64,
    /// Tasks still in flight when the drain grace expired (should be 0
    /// on a clean run; counted so conservation always closes).
    pub stranded: u64,
    /// Peak bounded-queue depth sampled at ticks.
    pub peak_queue_depth: usize,
    /// Peak door-visible backlog (queue + unassigned) sampled at ticks.
    pub peak_backlog: usize,
    /// Door-to-first-assignment latencies, crowd seconds, sorted.
    pub assign_latencies: Vec<f64>,
    /// Audit events recorded (0 unless `config.audit` was enabled). The
    /// log is verified at teardown, which panics on an illegal
    /// transition — a test/debug tool.
    pub audit_events: u64,
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
    pub fn start(self) -> std::io::Result<IngestHandle> {
        let lc = self.config;
        let observer = self.observer;
        let clock = ScaledClock::start(lc.time_scale);
        let region = BoundingBox::new(37.8, 38.2, 23.5, 24.0).expect("static bounds");
        let (submit_tx, submit_rx) = bounded::<Inbox>(lc.queue_capacity.max(1));
        let shared = Arc::new(Shared {
            clock,
            observer: observer.clone(),
            draining: AtomicBool::new(false),
            backlog: AtomicUsize::new(0),
            watermark: lc.backlog_watermark,
            next_id: AtomicU64::new(0),
            stats: DoorStats::default(),
            statuses: Mutex::new(HashMap::new()),
            submit_tx,
            default_location: region.center(),
        });
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
                .spawn(move || scheduler_thread(lc, clock, region, observer, shared, submit_rx))
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

    /// Current depth of the door-visible backlog.
    pub fn backlog(&self) -> usize {
        self.shared.backlog.load(Ordering::Relaxed)
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

/// Builds the fault timeline (dropout/online/burst instants) from a
/// materialized schedule.
fn fault_timeline(
    schedule: &FaultSchedule,
    streams: &RngStreams,
    n_workers: usize,
    region: BoundingBox,
) -> VecDeque<(f64, FaultAction)> {
    let mut timeline: Vec<(f64, FaultAction)> = Vec::new();
    for d in schedule.dropouts() {
        if d.worker >= n_workers {
            continue;
        }
        timeline.push((d.at, FaultAction::Offline(d.worker)));
        if let Some(rejoin) = d.rejoin_at {
            timeline.push((rejoin, FaultAction::Online(d.worker)));
        }
    }
    let mut burst_rng = streams.stream("fault.burst-tasks");
    let mut burst_seq = 0u64;
    for &(at, size) in schedule.bursts() {
        // The door mints category 0 only, so bursts have one category too.
        let tasks = (burst_seq..burst_seq + u64::from(size))
            .map(|seq| burst_task(seq, BURST_DEADLINE_RANGE, 1, region, &mut burst_rng))
            .collect();
        burst_seq += u64::from(size);
        timeline.push((at, FaultAction::Burst(tasks)));
    }
    timeline.sort_by(|a, b| a.0.total_cmp(&b.0));
    timeline.into()
}

/// Blocks on the inbox for at most `wait` crowd seconds; `None` when the
/// wait ran out.
fn next_message(inbox: &Receiver<Inbox>, clock: &ScaledClock, wait: f64) -> Option<Inbox> {
    match inbox.recv_deadline(clock.deadline_after(wait)) {
        Ok(message) => Some(message),
        Err(RecvTimeoutError::Timeout) => None,
        // Cannot happen while the scheduler thread holds `Shared` and
        // its sender; if it ever does, keep the loop's pace rather than
        // spin.
        Err(RecvTimeoutError::Disconnected) => {
            std::thread::sleep(clock.to_wall(wait));
            None
        }
    }
}

/// The scheduler thread: middleware + crowd + drain logic.
///
/// A lap books what fell due since the last one, takes the message that
/// ended the last wait, ticks once and sleeps until the next message or
/// one tick period. A completion is booked at its own finish instant, as
/// the discrete-event runners do, so it needs no lap of its own: the
/// wait ends at the crowd's next due instant only while a freed worker
/// has a batch to take (`ReactServer::batch_due`) or the loop is
/// draining.
fn scheduler_thread(
    lc: IngestConfig,
    clock: ScaledClock,
    region: BoundingBox,
    observer: ObserverHandle,
    shared: Arc<Shared>,
    inbox: Receiver<Inbox>,
) -> IngestReport {
    let streams = RngStreams::new(lc.seed);
    let mut pop_rng = streams.stream("population");
    let behaviors = generate_population(lc.n_workers, &lc.behavior, &mut pop_rng);

    let mut server = ReactServer::builder(lc.config.clone())
        .seed(lc.seed ^ 0xbeef)
        .observer(observer.clone())
        .build()
        .expect("ingest config carries a valid middleware config");
    for i in 0..behaviors.len() {
        server.register_worker(WorkerId(i as u64), region.random_point(&mut pop_rng));
    }
    let mut crowd = Crowd::new(behaviors, lc.faults.as_ref(), &streams);
    let mut timeline = fault_timeline(crowd.faults(), &streams, lc.n_workers, region);

    let mut report = IngestReport::default();
    // Door-accept instant of each task not yet assigned once; an entry
    // is dropped when its task is first assigned, expires or is shed, so
    // the map does not grow with the run.
    let mut accepted_at: HashMap<TaskId, f64> = HashMap::new();
    let mut stopping = false;
    let mut drain_started: Option<f64> = None;
    let mut message: Option<Inbox> = None;

    loop {
        // Completions and timed faults due by now, each at its own
        // instant and in time order (a completion first on a tie).
        let now = clock.now();
        loop {
            let fault_at = timeline.front().map(|&(at, _)| at).filter(|&at| at <= now);
            if let Some(done) = crowd.pop_due(fault_at.unwrap_or(now)) {
                handle_completion(done, &mut server, &shared, &mut report);
                continue;
            }
            let Some(at) = fault_at else { break };
            let (_, action) = timeline.pop_front().expect("front() just saw it");
            match action {
                FaultAction::Offline(w) => {
                    report.fault_events += 1;
                    let worker = WorkerId(w as u64);
                    let recalled = server.worker_offline(worker, at);
                    for task in &recalled {
                        shared.set_status(task.0, TaskStatus::Queued);
                    }
                    crowd.offline(worker, &recalled, at);
                }
                FaultAction::Online(w) => {
                    let _ = server.worker_online(WorkerId(w as u64));
                }
                FaultAction::Burst(tasks) => {
                    for task in tasks {
                        report.injected_burst += 1;
                        report.fault_events += 1;
                        shared.set_status(task.id.0, TaskStatus::Queued);
                        server.submit_task(task, at);
                    }
                }
            }
        }

        match message.take() {
            Some(Inbox::Task(incoming)) => {
                accepted_at.insert(incoming.task.id, incoming.accepted_at);
                server.submit_task(incoming.task, now);
            }
            Some(Inbox::Stop) => stopping = true,
            None => {}
        }

        // Control step.
        let outcome = server.tick(now);
        for task in &outcome.expired {
            report.expired += 1;
            accepted_at.remove(task);
            shared.set_status(task.0, TaskStatus::Expired);
        }
        for task in &outcome.shed {
            report.shed_server += 1;
            accepted_at.remove(task);
            shared.set_status(task.0, TaskStatus::Shed);
        }
        for recall in &outcome.recalls {
            report.recalls += 1;
            shared.set_status(recall.task.0, TaskStatus::Queued);
        }
        for &(_, task) in &outcome.assignments {
            shared.set_status(task.0, TaskStatus::Assigned);
            if let Some(at) = accepted_at.remove(&task) {
                report.assign_latencies.push((now - at).max(0.0));
            }
        }
        crowd.apply(outcome, now);

        // Publish backpressure state back to the door.
        let queue_depth = inbox.len();
        let backlog = queue_depth + server.tasks().unassigned_count();
        shared.backlog.store(backlog, Ordering::Relaxed);
        report.peak_queue_depth = report.peak_queue_depth.max(queue_depth);
        report.peak_backlog = report.peak_backlog.max(backlog);
        if observer.enabled() {
            observer.observe(HistogramKind::IngestQueueDepth, queue_depth as f64);
        }

        // Teardown: drain until idle, bounded by the grace window.
        // `Stop` was the inbox's last message, so nothing is queued.
        if stopping {
            if server.tasks().unassigned_count() == 0 && server.tasks().assigned_count() == 0 {
                break;
            }
            let started = *drain_started.get_or_insert(now);
            if now - started >= lc.drain_grace {
                force_drain(&mut server, lc.n_workers, now, &shared, &mut report);
                break;
            }
        }

        let wait = match crowd.next_due() {
            Some(due) if stopping || server.batch_due(now) => lc.tick_interval.min(due - now),
            _ => lc.tick_interval,
        };
        message = next_message(&inbox, &clock, wait);
    }

    report.batches = server.batches_run();
    report.fault_events += crowd.abandoned() + crowd.lost();
    if let Some(log) = server.audit() {
        report.audit_events = log.len() as u64;
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

/// Books a completion report the crowd delivered, at the instant the
/// worker finished; a duplicated one is delivered twice and the
/// middleware must reject the copy.
fn handle_completion(
    done: Delivery,
    server: &mut ReactServer,
    shared: &Shared,
    report: &mut IngestReport,
) {
    let Ok(out) = server.complete_task(done.task, done.worker, done.at, done.quality_ok) else {
        return;
    };
    report.completed += 1;
    if out.met_deadline {
        report.met_deadline += 1;
    }
    shared.set_status(
        done.task.0,
        TaskStatus::Completed {
            met_deadline: out.met_deadline,
        },
    );
    if done.duplicated {
        report.fault_events += 1;
        let dup = server.complete_task(done.task, done.worker, done.at, done.quality_ok);
        debug_assert!(dup.is_err(), "duplicate completion must be rejected");
    }
}

/// Force-drains the middleware when the grace window expires: recalls
/// every in-flight assignment, sheds the queue, and counts what could
/// not be closed out as stranded. The loop ends here, so the crowd is
/// not told: nothing will ask it what is due again.
fn force_drain(
    server: &mut ReactServer,
    n_workers: usize,
    now: f64,
    shared: &Shared,
    report: &mut IngestReport,
) {
    for w in 0..n_workers {
        for task in server.worker_offline(WorkerId(w as u64), now) {
            shared.set_status(task.0, TaskStatus::Queued);
        }
    }
    while let Some((task, _)) = server.evict_oldest_unassigned(now) {
        report.shed_server += 1;
        shared.set_status(task.id.0, TaskStatus::Shed);
    }
    // Whatever the recall sweep could not free (it should free all).
    report.stranded += server.tasks().assigned_count() as u64;
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
            std::thread::sleep(clock.to_wall(5.0));
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
        assert!(report.audit_events > 0, "audit log was recorded");
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
        assert!(report.audit_events > 0, "audit log was recorded");
        assert!(report.fault_events > 0, "shims must fire: {report:?}");
        assert!(report.conserved(), "conservation identity: {report:?}");
        assert_eq!(report.stranded, 0, "{report:?}");
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
