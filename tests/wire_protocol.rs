//! Golden wire-protocol tests for the ingest front-end.
//!
//! Everything here talks to a live [`react::runtime::IngestRuntime`]
//! through a raw `TcpStream` — no client helper from `react-load` — so
//! the bytes on the wire are exactly what an external requester would
//! send. Covers: framing round-trips, every malformed-input status
//! (400/404/405/413/431/501) without a panic, persistent-connection
//! reuse, `Connection: close`, truncated requests, and clean shutdown.

// Sanctioned: these tests drive the wire boundary from outside.
#![allow(clippy::disallowed_types)]

use react::runtime::{IngestConfig, IngestHandle, IngestRuntime};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A parsed response off the wire.
#[derive(Debug)]
struct WireResponse {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl WireResponse {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Reads one `Content-Length`-framed response. `None` = the server
/// closed the connection before a status line.
fn read_response(reader: &mut BufReader<TcpStream>) -> Option<WireResponse> {
    let mut status_line = String::new();
    if reader.read_line(&mut status_line).ok()? == 0 {
        return None;
    }
    let status: u16 = status_line.split(' ').nth(1)?.parse().ok()?;
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).ok()?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let (name, value) = line.split_once(':')?;
        let (name, value) = (name.trim().to_string(), value.trim().to_string());
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().ok()?;
        }
        headers.push((name, value));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).ok()?;
    Some(WireResponse {
        status,
        headers,
        body: String::from_utf8(body).ok()?,
    })
}

/// Opens a connection to the running stack.
fn connect(handle: &IngestHandle) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    stream.set_nodelay(true).expect("nodelay");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (stream, reader)
}

/// Writes raw bytes and reads one response on a fresh connection.
fn roundtrip(handle: &IngestHandle, raw: &[u8]) -> Option<WireResponse> {
    let (mut stream, mut reader) = connect(handle);
    stream.write_all(raw).expect("write request");
    stream.flush().expect("flush");
    read_response(&mut reader)
}

/// A small fast stack for wire tests: no traffic shaping needed, so a
/// tiny fleet and a high time compression keep each test sub-second.
fn quick_stack() -> IngestHandle {
    let config = IngestConfig {
        n_workers: 4,
        time_scale: 600.0,
        tick_interval: 2.0,
        seed: 33,
        acceptors: 2,
        ..IngestConfig::default()
    };
    IngestRuntime::new(config).start().expect("start stack")
}

#[test]
fn submit_and_poll_round_trip_on_the_wire() {
    let handle = quick_stack();
    let body = "{\"deadline\":90.0,\"reward\":0.05}";
    let response = roundtrip(
        &handle,
        format!(
            "POST /tasks HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
    .expect("a well-framed submit gets a response");
    assert_eq!(response.status, 202);
    assert!(
        response.body.contains("\"state\":\"queued\""),
        "{}",
        response.body
    );
    assert_eq!(
        response.header("content-type"),
        Some("application/json"),
        "every response is JSON-typed"
    );
    assert_eq!(
        response.header("content-length"),
        Some(response.body.len().to_string().as_str()),
        "advertised and actual body length must agree"
    );

    // The 202 body names the task id; poll it back.
    let id: u64 = response
        .body
        .split("\"task\":")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|digits| digits.parse().ok())
        .expect("202 body carries the task id");
    let poll = roundtrip(
        &handle,
        format!("GET /tasks/{id} HTTP/1.1\r\n\r\n").as_bytes(),
    )
    .expect("poll gets a response");
    assert_eq!(poll.status, 200);
    assert!(
        ["queued", "assigned", "completed", "expired", "shed"]
            .iter()
            .any(|state| poll.body.contains(&format!("\"state\":\"{state}\""))),
        "poll must report a wire-named state: {}",
        poll.body
    );

    let report = handle.shutdown();
    assert!(report.conserved(), "conservation: {report:?}");
}

#[test]
fn malformed_inputs_map_to_their_status_codes_without_panicking() {
    let handle = quick_stack();

    // Gibberish request line → 400, connection closed.
    let r = roundtrip(&handle, b"NOT-HTTP\r\n\r\n").expect("400 response");
    assert_eq!(r.status, 400);
    assert_eq!(r.header("connection"), Some("close"));

    // Bad JSON body on a well-framed request → 400, connection kept.
    let r = roundtrip(
        &handle,
        b"POST /tasks HTTP/1.1\r\ncontent-length: 4\r\n\r\n{{{{",
    )
    .expect("400 response");
    assert_eq!(r.status, 400);

    // Unknown path → 404; unknown method → 405.
    let r = roundtrip(&handle, b"GET /nope HTTP/1.1\r\n\r\n").expect("404 response");
    assert_eq!(r.status, 404);
    let r = roundtrip(&handle, b"PATCH /tasks HTTP/1.1\r\n\r\n").expect("405 response");
    assert_eq!(r.status, 405);

    // Declared body over the cap → 413 before any body byte is read.
    let r = roundtrip(
        &handle,
        b"POST /tasks HTTP/1.1\r\ncontent-length: 999999\r\n\r\n",
    )
    .expect("413 response");
    assert_eq!(r.status, 413);

    // Header block over the cap → 431.
    let huge = format!(
        "GET /report HTTP/1.1\r\nx-filler: {}\r\n\r\n",
        "y".repeat(10_000)
    );
    let r = roundtrip(&handle, huge.as_bytes()).expect("431 response");
    assert_eq!(r.status, 431);

    // Chunked transfer coding is outside the subset → 501.
    let r = roundtrip(
        &handle,
        b"POST /tasks HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
    )
    .expect("501 response");
    assert_eq!(r.status, 501);

    // The stack survived all of it and still serves well-formed requests.
    let r = roundtrip(&handle, b"GET /report HTTP/1.1\r\n\r\n").expect("report after abuse");
    assert_eq!(r.status, 200);
    let report = handle.shutdown();
    assert!(report.rejected >= 6, "all six rejects counted: {report:?}");
    assert!(report.conserved(), "conservation: {report:?}");
}

/// A peer that streams header bytes without ever sending a newline must
/// cost the door a bounded buffer and get a 431, not be read until it
/// stops (a read timeout never fires while bytes keep coming).
#[test]
fn an_endless_header_line_gets_a_431_and_a_closed_connection() {
    let handle = quick_stack();
    let (mut stream, mut reader) = connect(&handle);
    let mut flood = b"GET /report HTTP/1.1\r\nx-filler: ".to_vec();
    flood.resize(flood.len() + 64 * 1024, b'z');
    // The door answers after its header budget, long before the flood
    // ends, and may close while it is still being written.
    let _ = stream.write_all(&flood);
    let r = read_response(&mut reader).expect("431 response");
    assert_eq!(r.status, 431);
    assert_eq!(r.header("connection"), Some("close"));
    assert!(
        read_response(&mut reader).is_none(),
        "the connection closes after a 431"
    );
    let report = handle.shutdown();
    assert_eq!(report.rejected, 1, "the flood is one rejection: {report:?}");
}

#[test]
fn truncated_requests_close_the_connection_cleanly() {
    let handle = quick_stack();

    // Stream ends mid-request-line: no response, just a close.
    let (mut stream, mut reader) = connect(&handle);
    stream.write_all(b"POST /ta").expect("partial write");
    drop(stream); // half-close: the server sees EOF mid-line
    assert!(
        read_response(&mut reader).is_none(),
        "a truncated request gets no response"
    );

    // Declared body longer than what arrives: the read times out,
    // surfaces as Truncated, no response, no panic.
    let (mut stream, mut reader) = connect(&handle);
    stream
        .write_all(b"POST /tasks HTTP/1.1\r\ncontent-length: 64\r\n\r\nshort")
        .expect("write");
    drop(stream);
    assert!(
        read_response(&mut reader).is_none(),
        "a short body gets no response"
    );

    // The acceptors survived both.
    let r = roundtrip(&handle, b"GET /report HTTP/1.1\r\n\r\n").expect("report after truncation");
    assert_eq!(r.status, 200);
    let report = handle.shutdown();
    assert!(report.conserved(), "conservation: {report:?}");
}

#[test]
fn persistent_connections_serve_many_requests_and_honor_close() {
    let handle = quick_stack();
    let (mut stream, mut reader) = connect(&handle);

    // Several requests pipelined over one connection.
    for i in 0..5u32 {
        let body = format!("{{\"reward\":0.0{}}}", i + 1);
        stream
            .write_all(
                format!(
                    "POST /tasks HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            )
            .expect("write");
        let r = read_response(&mut reader).expect("keep-alive response");
        assert_eq!(r.status, 202);
        assert_eq!(r.header("connection"), Some("keep-alive"));
    }

    // `Connection: close` is honoured: one response, then EOF.
    stream
        .write_all(b"GET /report HTTP/1.1\r\nconnection: close\r\n\r\n")
        .expect("write");
    let r = read_response(&mut reader).expect("final response");
    assert_eq!(r.status, 200);
    assert!(
        read_response(&mut reader).is_none(),
        "server must close after Connection: close"
    );

    let report = handle.shutdown();
    assert_eq!(report.offered, 5, "five submissions on one connection");
    assert_eq!(
        report.connections, 1,
        "keep-alive reuse means a single accepted connection"
    );
    assert!(report.conserved(), "conservation: {report:?}");
}

#[test]
fn shutdown_is_clean_and_drains_to_a_conserved_report() {
    let handle = quick_stack();
    for _ in 0..8 {
        let r = roundtrip(
            &handle,
            b"POST /tasks HTTP/1.1\r\ncontent-length: 0\r\n\r\n",
        )
        .expect("submit");
        assert_eq!(r.status, 202);
    }
    let addr = handle.local_addr();
    let report = handle.shutdown();
    assert_eq!(report.accepted, 8);
    assert!(
        report.conserved(),
        "drained report conserves tasks: {report:?}"
    );
    assert_eq!(report.stranded, 0, "a graceful drain strands nothing");

    // After shutdown the port no longer serves: a fresh connection is
    // either refused outright or closed without a response.
    if let Ok(mut stream) = TcpStream::connect(addr) {
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let _ = stream.write_all(b"GET /report HTTP/1.1\r\n\r\n");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        assert!(
            read_response(&mut reader).is_none(),
            "no acceptor may serve after shutdown"
        );
    }
}

/// The scheduler ticks once per submission and once per period of its
/// grid, and never for a completion: a completion is booked at its own
/// instant before the next tick, and no completion wakes the loop. A loop
/// that ticked for every completion would run about twice the bound here
/// (30 submissions, ≈ 30 completions, ≈ 15 periods).
#[test]
fn below_capacity_a_completion_does_not_cost_a_tick() {
    use react::obs::{ObserverHandle, RecordingObserver, SpanKind};
    use std::sync::Arc;

    let tick_interval = 10.0;
    let config = IngestConfig {
        n_workers: 60,
        time_scale: 600.0,
        tick_interval,
        seed: 35,
        acceptors: 1,
        ..IngestConfig::default()
    };
    let recorder = RecordingObserver::new();
    let handle = IngestRuntime::new(config)
        .with_observer(Arc::new(recorder.clone()) as ObserverHandle)
        .start()
        .expect("start stack");
    let clock = handle.clock();
    let (mut stream, mut reader) = connect(&handle);
    let body = "{\"deadline\":300.0}";
    let submit = format!(
        "POST /tasks HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut ids = Vec::new();
    for _ in 0..30 {
        stream.write_all(submit.as_bytes()).expect("write");
        let r = read_response(&mut reader).expect("submit answered");
        assert_eq!(r.status, 202);
        let id: u64 = r
            .body
            .split("\"task\":")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|digits| digits.parse().ok())
            .expect("202 body carries the task id");
        ids.push(id);
    }
    // Wait until every task is done, so the drain adds no laps.
    let mut open = ids;
    while !open.is_empty() && clock.now() < 3_000.0 {
        open.retain(|id| {
            stream
                .write_all(format!("GET /tasks/{id} HTTP/1.1\r\n\r\n").as_bytes())
                .expect("write");
            let r = read_response(&mut reader).expect("poll answered");
            !(r.body.contains("completed") || r.body.contains("expired"))
        });
        clock.sleep(5.0);
    }
    assert!(open.is_empty(), "tasks {open:?} never finished");
    let elapsed = clock.now();
    drop((stream, reader));
    let report = handle.shutdown();
    assert_eq!(report.accepted, 30);
    assert!(report.conserved(), "conservation: {report:?}");

    let ticks = recorder
        .span_stats(SpanKind::Tick)
        .map_or(0, |stats| stats.count);
    let periods = (elapsed / tick_interval).ceil() as u64;
    let bound = report.accepted + periods + 5;
    assert!(
        ticks <= bound,
        "{ticks} ticks > {} submissions + {periods} tick periods + 5 ({} completions)",
        report.accepted,
        report.completed
    );
}

/// An idle stack must not wait out its timers to stop: `shutdown()`
/// wakes the scheduler through its inbox. One tick period here is a
/// full wall second, so a scheduler that only notices the stop when a
/// timed wait runs out (it used to take two to three of them) cannot
/// pass; 240 workers because a fleet that size used to be 240 threads
/// to tear down.
#[test]
fn idle_stack_shuts_down_within_one_tick_interval() {
    let tick_interval = 1.0;
    let config = IngestConfig {
        n_workers: 240,
        time_scale: 1.0,
        tick_interval,
        seed: 33,
        ..IngestConfig::default()
    };
    let handle = IngestRuntime::new(config).start().expect("start stack");
    let clock = handle.clock();
    let began = clock.now();
    let report = handle.shutdown();
    let took = clock.now() - began;
    assert!(
        took < tick_interval,
        "idle shutdown took {took:.3} crowd-s of a {tick_interval} s tick"
    );
    assert_eq!(report.offered, 0);
    assert!(report.conserved(), "conservation: {report:?}");
    assert_eq!(report.stranded, 0);
}

/// With no drain grace the run ends at `Stop`: the grid does not tick
/// again, the crowd's remaining events are booked without waiting, and
/// what is still open is counted. One tick period here is two wall
/// seconds, so a scheduler that waited out one more tick before it
/// looked at the window cannot pass. The benchmark's `setup_s` times
/// exactly this start → one submission → `shutdown()` at zero grace.
#[test]
fn zero_grace_shutdown_does_not_wait_for_a_tick() {
    let tick_interval = 2.0;
    let config = IngestConfig {
        n_workers: 4,
        time_scale: 1.0,
        tick_interval,
        seed: 33,
        drain_grace: 0.0,
        ..IngestConfig::default()
    };
    let handle = IngestRuntime::new(config).start().expect("start stack");
    let body = "{\"deadline\":90.0}";
    let submit = format!(
        "POST /tasks HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    let r = roundtrip(&handle, submit.as_bytes()).expect("submit answered");
    assert_eq!(r.status, 202);
    let clock = handle.clock();
    let began = clock.now();
    let report = handle.shutdown();
    let took = clock.now() - began;
    assert!(
        took < tick_interval / 4.0,
        "zero-grace shutdown took {took:.3} crowd-s of a {tick_interval} s tick"
    );
    assert_eq!(report.accepted, 1);
    assert!(report.conserved(), "conservation: {report:?}");
}
