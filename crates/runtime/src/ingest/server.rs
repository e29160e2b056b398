//! The TCP acceptor side of the ingest front-end.
//!
//! Acceptor threads share one `TcpListener`; each serves its
//! connection's requests in order (keep-alive) and applies the
//! admission-control ladder to `POST /tasks`:
//!
//! 1. **Framing** — malformed requests are answered with 4xx and
//!    counted as rejected; the connection closes when framing is no
//!    longer trustworthy.
//! 2. **Watermark** — when the scheduler-published backlog exceeds the
//!    configured watermark the submission is shed at the door with
//!    `429 Too Many Requests` + `Retry-After` *before* any state is
//!    allocated.
//! 3. **Bounded queue** — otherwise the task is `try_send`-ed into the
//!    bounded scheduler queue; a full queue sheds with 429 instead of
//!    blocking the acceptor (backpressure never propagates into the
//!    kernel accept queue as unbounded latency).
//!
//! Everything is instrumented through the `ingest.*` observer catalog.
//!
//! A connection owns four buffers for its keep-alive life — the line
//! being parsed, the [`Request`] it is parsed into, the body an endpoint
//! writes its JSON into, and the rendered answer — and sends each answer
//! with one write. Fixed answers (404, 400, 429, 503) are static text, so
//! a shed costs no allocation either.

use super::http::{parse_submit_body, read_request, HttpError, Request, Response};
use crate::clock::ScaledClock;
use crossbeam::channel::{Sender, TrySendError};
use parking_lot::Mutex;
use react_core::{Task, TaskCategory, TaskId};
use react_geo::GeoPoint;
use react_obs::{CounterKind, ObserverHandle, SpanKind, SpanTimer};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Where an ingested task currently stands, as reported to status
/// polls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskStatus {
    /// Accepted at the door; waiting for the scheduler.
    Queued,
    /// Executing at a worker.
    Assigned,
    /// A worker returned a result.
    Completed {
        /// Whether the result arrived before the deadline.
        met_deadline: bool,
    },
    /// The deadline passed before a result.
    Expired,
}

impl TaskStatus {
    /// Stable wire name for status-poll responses.
    pub fn wire_name(self) -> &'static str {
        match self {
            TaskStatus::Queued => "queued",
            TaskStatus::Assigned => "assigned",
            TaskStatus::Completed { .. } => "completed",
            TaskStatus::Expired => "expired",
        }
    }
}

/// Door-side counters, shared between acceptors and the scheduler.
/// All relaxed: they are reporting totals, never scheduling inputs.
#[derive(Debug, Default)]
pub struct DoorStats {
    /// `POST /tasks` requests received (parse succeeded or not).
    pub offered: AtomicU64,
    /// Submissions admitted into the bounded queue.
    pub accepted: AtomicU64,
    /// Submissions shed with 429 (watermark or full queue).
    pub shed: AtomicU64,
    /// Malformed requests answered 4xx/5xx.
    pub rejected: AtomicU64,
    /// Status polls served.
    pub polls: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
}

/// A task accepted at the door, en route to the scheduler.
#[derive(Debug, Clone)]
pub struct IngestTask {
    /// The fully built task.
    pub task: Task,
    /// Crowd-time instant the door accepted it (assignment-latency
    /// base; includes any time spent queued behind the scheduler).
    pub accepted_at: f64,
}

/// What travels the bounded queue into the scheduler thread.
#[derive(Debug)]
pub enum Inbox {
    /// A submission the door admitted.
    Task(IngestTask),
    /// Teardown has begun and the acceptors are gone: no message
    /// follows this one.
    Stop,
}

/// State shared between the acceptor threads and the scheduler thread.
pub struct Shared {
    /// The scaled clock all timestamps come from.
    pub clock: ScaledClock,
    /// Telemetry sink.
    pub observer: ObserverHandle,
    /// Set once teardown begins: submissions are answered 503.
    pub draining: AtomicBool,
    /// Scheduler-published backlog (bounded queue + unassigned pool),
    /// refreshed every tick; the door sheds above the watermark.
    pub backlog: AtomicUsize,
    /// Backlog level above which the door sheds.
    pub watermark: usize,
    /// Next task id to allocate.
    pub next_id: AtomicU64,
    /// Door counters.
    pub stats: DoorStats,
    /// Per-task status table for `GET /tasks/<id>`.
    pub statuses: Mutex<HashMap<u64, TaskStatus>>,
    /// The bounded queue into the scheduler.
    pub submit_tx: Sender<Inbox>,
    /// Default task location when the body gives none.
    pub default_location: GeoPoint,
}

impl Shared {
    /// Snapshot of a task's status, if the id is known.
    pub fn status_of(&self, id: u64) -> Option<TaskStatus> {
        self.statuses.lock().get(&id).copied()
    }

    /// Records a status transition.
    pub fn set_status(&self, id: u64, status: TaskStatus) {
        self.statuses.lock().insert(id, status);
    }
}

/// Binds the listener and spawns `acceptors` acceptor threads.
pub fn start_acceptors(
    bind_addr: &str,
    acceptors: usize,
    idle_timeout: Duration,
    shared: Arc<Shared>,
) -> std::io::Result<(SocketAddr, Vec<JoinHandle<()>>)> {
    let listener = TcpListener::bind(bind_addr)?;
    let addr = listener.local_addr()?;
    let mut handles = Vec::with_capacity(acceptors);
    for i in 0..acceptors.max(1) {
        let listener = listener.try_clone()?;
        let shared = Arc::clone(&shared);
        handles.push(
            std::thread::Builder::new()
                .name(format!("ingest-acceptor-{i}"))
                .spawn(move || acceptor_loop(&listener, idle_timeout, &shared))
                .expect("spawn acceptor thread"),
        );
    }
    Ok((addr, handles))
}

/// Wakes `acceptors` threads blocked in `accept()` during teardown by
/// handing each a throwaway connection.
pub fn wake_acceptors(addr: SocketAddr, acceptors: usize) {
    for _ in 0..acceptors.max(1) {
        let _ = TcpStream::connect(addr);
    }
}

fn acceptor_loop(listener: &TcpListener, idle_timeout: Duration, shared: &Shared) {
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        if shared.draining.load(Ordering::SeqCst) {
            // Teardown wake-up connection (or a late client): serve
            // nothing, close immediately.
            return;
        }
        shared.stats.connections.fetch_add(1, Ordering::Relaxed);
        if shared.observer.enabled() {
            shared.observer.incr(CounterKind::IngestConnections, 1);
        }
        serve_connection(stream, idle_timeout, shared);
    }
}

/// Starting capacity of a connection's buffers: every request and answer
/// this door exchanges with a well-behaved client fits, so they are
/// allocated once per connection.
const CONNECTION_BUFFER_BYTES: usize = 512;

/// Serves one keep-alive connection until close, error, or teardown.
fn serve_connection(stream: TcpStream, idle_timeout: Duration, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(idle_timeout));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = Vec::with_capacity(CONNECTION_BUFFER_BYTES);
    let mut request = Request {
        method: String::with_capacity(8),
        path: String::with_capacity(CONNECTION_BUFFER_BYTES),
        body: Vec::with_capacity(CONNECTION_BUFFER_BYTES),
        close: false,
    };
    let mut body = String::with_capacity(CONNECTION_BUFFER_BYTES);
    let mut out = Vec::with_capacity(CONNECTION_BUFFER_BYTES);
    loop {
        // Block for the request's first byte *before* starting the span,
        // so `ingest.request` times the request and not the keep-alive
        // idle gap in front of it. End of stream and read errors map to
        // what `read_request` returns for them at a request boundary.
        let first_byte = reader.fill_buf().map(|buf| !buf.is_empty());
        let timer = SpanTimer::start(shared.observer.as_ref());
        let parsed = match first_byte {
            Ok(true) => read_request(&mut reader, &mut line, &mut request),
            Ok(false) => Ok(false),
            Err(_) => Err(HttpError::Truncated),
        };
        match parsed {
            Ok(true) => {}
            Ok(false) => return,
            Err(err) => {
                count_rejected(shared);
                if let Some((status, reason)) = err.status() {
                    body.clear();
                    body.push_str("{\"error\":\"");
                    body.extend(reason.chars().map(|c| c.to_ascii_lowercase()));
                    body.push_str("\"}");
                    let response = Response::json(status, reason, body.as_str()).closing();
                    let _ = send(&response, &mut out, &mut writer);
                }
                // Framing is no longer trustworthy: close.
                return;
            }
        }
        let response = route(&request, shared, &mut body);
        let close = response.close || request.close;
        let ok = send(&response, &mut out, &mut writer).is_ok();
        timer.finish(shared.observer.as_ref(), SpanKind::IngestRequest);
        if !ok || close || shared.draining.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Renders `response` into `out` and sends it in one write: on a
/// `TCP_NODELAY` socket every write is a segment.
fn send(response: &Response, out: &mut Vec<u8>, writer: &mut TcpStream) -> std::io::Result<()> {
    out.clear();
    response.write_to(out)?;
    writer.write_all(out)
}

/// Dispatches one well-framed request to its endpoint; an endpoint with a
/// computed answer writes it into `body`.
fn route<'b>(request: &Request, shared: &Shared, body: &'b mut String) -> Response<'b> {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/tasks") => submit(request, shared, body),
        ("GET", "/report") => report(shared, body),
        ("GET", path) if path.starts_with("/tasks/") => {
            poll(&path["/tasks/".len()..], shared, body)
        }
        ("GET", "/tasks") | ("POST", _) | ("GET", _) => {
            count_rejected(shared);
            Response::json(404, "Not Found", "{\"error\":\"not found\"}")
        }
        _ => {
            count_rejected(shared);
            Response::json(
                405,
                "Method Not Allowed",
                "{\"error\":\"method not allowed\"}",
            )
        }
    }
}

fn count_rejected(shared: &Shared) {
    shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
    if shared.observer.enabled() {
        shared.observer.incr(CounterKind::IngestRejected, 1);
    }
}

fn shed_response(shared: &Shared) -> Response<'static> {
    shared.stats.shed.fetch_add(1, Ordering::Relaxed);
    if shared.observer.enabled() {
        shared.observer.incr(CounterKind::IngestShed, 1);
    }
    Response::json(429, "Too Many Requests", "{\"state\":\"shed\"}").with_retry_after(1)
}

/// Deadline (crowd seconds) of a submission whose body gives none.
const DEFAULT_DEADLINE: f64 = 90.0;
/// Reward of a submission whose body gives none.
const DEFAULT_REWARD: f64 = 0.05;

/// `POST /tasks`: the admission-control ladder.
fn submit<'b>(request: &Request, shared: &Shared, body: &'b mut String) -> Response<'b> {
    shared.stats.offered.fetch_add(1, Ordering::Relaxed);
    if shared.draining.load(Ordering::SeqCst) {
        count_rejected(shared);
        return Response::json(503, "Service Unavailable", "{\"state\":\"draining\"}").closing();
    }
    // Rung 2: shed at the door while the scheduler lags, before
    // allocating any per-task state.
    if shared.backlog.load(Ordering::Relaxed) > shared.watermark {
        return shed_response(shared);
    }
    // Rung 1 (body validation) — framing already passed.
    let Some(fields) = parse_submit_body(&request.body) else {
        count_rejected(shared);
        return Response::json(400, "Bad Request", "{\"error\":\"bad body\"}");
    };
    let deadline = fields.deadline.unwrap_or(DEFAULT_DEADLINE);
    let reward = fields.reward.unwrap_or(DEFAULT_REWARD);
    if !(deadline.is_finite() && deadline > 0.0 && reward.is_finite() && reward >= 0.0) {
        count_rejected(shared);
        return Response::json(400, "Bad Request", "{\"error\":\"bad deadline or reward\"}");
    }
    let location = match (fields.lat, fields.lon) {
        (Some(lat), Some(lon))
            if (-90.0..=90.0).contains(&lat) && (-180.0..=180.0).contains(&lon) =>
        {
            GeoPoint::new(lat, lon)
        }
        (None, None) => shared.default_location,
        _ => {
            count_rejected(shared);
            return Response::json(400, "Bad Request", "{\"error\":\"bad location\"}");
        }
    };
    let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
    let task = Task::new(
        TaskId(id),
        location,
        deadline,
        reward,
        TaskCategory(fields.category.unwrap_or(0)),
        "ingest",
    );
    shared.set_status(id, TaskStatus::Queued);
    // Rung 3: the bounded queue. A full queue sheds instead of
    // blocking the acceptor.
    match shared.submit_tx.try_send(Inbox::Task(IngestTask {
        task,
        accepted_at: shared.clock.now(),
    })) {
        Ok(()) => {
            shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
            if shared.observer.enabled() {
                shared.observer.incr(CounterKind::IngestAccepted, 1);
            }
            body.clear();
            let _ = write!(body, "{{\"task\":{id},\"state\":\"queued\"}}");
            Response::json(202, "Accepted", body.as_str())
        }
        Err(TrySendError::Full(_)) => {
            shared.statuses.lock().remove(&id);
            shed_response(shared)
        }
        Err(TrySendError::Disconnected(_)) => {
            shared.statuses.lock().remove(&id);
            count_rejected(shared);
            Response::json(503, "Service Unavailable", "{\"state\":\"draining\"}").closing()
        }
    }
}

/// `GET /tasks/<id>`: status poll.
fn poll<'b>(id_text: &str, shared: &Shared, body: &'b mut String) -> Response<'b> {
    shared.stats.polls.fetch_add(1, Ordering::Relaxed);
    if shared.observer.enabled() {
        shared.observer.incr(CounterKind::IngestPolls, 1);
    }
    let Ok(id) = id_text.parse::<u64>() else {
        return Response::json(404, "Not Found", "{\"error\":\"bad task id\"}");
    };
    let Some(status) = shared.status_of(id) else {
        return Response::json(404, "Not Found", "{\"error\":\"unknown task\"}");
    };
    body.clear();
    let _ = write!(body, "{{\"task\":{id},\"state\":\"{}\"", status.wire_name());
    if let TaskStatus::Completed { met_deadline } = status {
        let _ = write!(body, ",\"met_deadline\":{met_deadline}");
    }
    body.push('}');
    Response::json(200, "OK", body.as_str())
}

/// `GET /report`: door-counter snapshot.
fn report<'b>(shared: &Shared, body: &'b mut String) -> Response<'b> {
    let s = &shared.stats;
    body.clear();
    let _ = write!(
        body,
        "{{\"offered\":{},\"accepted\":{},\"shed\":{},\"rejected\":{},\"polls\":{},\"connections\":{},\"backlog\":{},\"draining\":{}}}",
        s.offered.load(Ordering::Relaxed),
        s.accepted.load(Ordering::Relaxed),
        s.shed.load(Ordering::Relaxed),
        s.rejected.load(Ordering::Relaxed),
        s.polls.load(Ordering::Relaxed),
        s.connections.load(Ordering::Relaxed),
        shared.backlog.load(Ordering::Relaxed),
        shared.draining.load(Ordering::SeqCst),
    );
    Response::json(200, "OK", body.as_str())
}
