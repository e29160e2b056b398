//! The benchmark's open-loop generator.
//!
//! `react_load::replay` offers each arrival on schedule too, but reports
//! neither when a request was *due* nor how late the generator itself
//! ran. This loop reuses the crate's trace (`build_trace`) and request
//! rendering (`submit_request`), paces over its own `TcpStream`s, and
//! stamps every request with its due time: round trips are timed from
//! that instant, so a stall charges the requests queued behind it, and
//! the lateness of each send is recorded — a generator that runs late
//! has silently become closed-loop. Sends never wait for answers.

// analyze: allow-file(no-wall-clock) — benchmark harness: wall-clock
// timing is the measurement.
// analyze: allow-file(net-boundary) — the benchmark is the wire
// boundary's other half, like react-load.

use crate::stats::sort;
use react_load::{client::submit_request, TraceEntry};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// What the generator saw, merged over its connections.
#[derive(Debug, Default)]
pub struct LoadResult {
    /// Requests written to the wire.
    pub sent: u64,
    /// `202 Accepted` responses.
    pub accepted: u64,
    /// `429 Too Many Requests` responses.
    pub shed: u64,
    /// Any other HTTP status: outside the designed outcomes.
    pub bad_status: u64,
    /// Requests that could not be written or were never answered.
    pub transport_errors: u64,
    /// Due time → response read, milliseconds, one per answered request,
    /// ascending.
    pub rtt_ms: Vec<f64>,
    /// Due time → request written, milliseconds, one per request sent,
    /// ascending.
    pub lag_ms: Vec<f64>,
    /// Common start → last response, wall seconds.
    pub send_seconds: f64,
}

impl LoadResult {
    fn merge(&mut self, other: LoadResult) {
        self.sent += other.sent;
        self.accepted += other.accepted;
        self.shed += other.shed;
        self.bad_status += other.bad_status;
        self.transport_errors += other.transport_errors;
        self.rtt_ms.extend(other.rtt_ms);
        self.lag_ms.extend(other.lag_ms);
        self.send_seconds = self.send_seconds.max(other.send_seconds);
    }
}

/// Reads one `Content-Length`-framed response; returns its status.
pub fn read_status(reader: &mut BufReader<TcpStream>) -> std::io::Result<u16> {
    let bad = |what| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("status line"))?;
    let mut content_length = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| bad("content-length"))?;
            }
        }
    }
    // The door's bodies are a few dozen bytes; anything large is not a
    // response of this protocol.
    let mut body = [0u8; 4096];
    let body = body
        .get_mut(..content_length)
        .ok_or_else(|| bad("oversized body"))?;
    reader.read_exact(body)?;
    Ok(status)
}

fn millis_since(due: Instant) -> f64 {
    Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3
}

/// One connection's share of the trace: the calling thread writes each
/// request when it is due and never waits for an answer (HTTP/1.1
/// pipelining; the door answers a connection's requests in order), while
/// a second thread reads the answers and times each from its due
/// instant. A stalled door therefore delays no send. A connection that
/// breaks is not reopened: what it had left counts as transport errors.
fn run_connection(
    addr: SocketAddr,
    start: Instant,
    time_scale: f64,
    entries: &[(f64, Vec<u8>)],
) -> LoadResult {
    let mut out = LoadResult::default();
    let opened = TcpStream::connect(addr).and_then(|stream| {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        Ok((stream.try_clone()?, stream))
    });
    let Ok((read_half, mut write_half)) = opened else {
        out.transport_errors = entries.len() as u64;
        return out;
    };
    let (due_tx, due_rx) = std::sync::mpsc::channel::<Instant>();
    let answers = std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let mut answers = LoadResult::default();
            let mut reader = BufReader::new(read_half);
            for due in due_rx {
                match read_status(&mut reader) {
                    Ok(202) => answers.accepted += 1,
                    Ok(429) => answers.shed += 1,
                    Ok(_) => answers.bad_status += 1,
                    Err(_) => {
                        // Framing is lost: nothing later can be matched
                        // to its request. The sender's tally of what it
                        // wrote turns the rest into transport errors.
                        break;
                    }
                }
                answers.rtt_ms.push(millis_since(due));
            }
            answers.send_seconds = start.elapsed().as_secs_f64();
            answers
        });
        for (at, request) in entries {
            let due = start + Duration::from_secs_f64(at / time_scale);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            if write_half.write_all(request).is_err() || due_tx.send(due).is_err() {
                break;
            }
            out.sent += 1;
            out.lag_ms.push(millis_since(due));
        }
        drop(due_tx);
        reader.join().expect("reader thread panicked")
    });
    out.merge(answers);
    let answered = out.accepted + out.shed + out.bad_status;
    out.transport_errors = entries.len() as u64 - answered;
    out
}

/// Offers every entry of `trace` at its arrival instant (crowd seconds ÷
/// `time_scale` after the common start) over `connections` keep-alive
/// connections, entries dealt round-robin, whatever happened to earlier
/// requests. Blocks until every entry has been offered and answered.
pub fn drive(
    addr: SocketAddr,
    trace: &[TraceEntry],
    time_scale: f64,
    connections: usize,
) -> LoadResult {
    let connections = connections.max(1);
    // Rendered before the clock starts: the paced loop only writes bytes.
    let mut shares: Vec<Vec<(f64, Vec<u8>)>> = vec![Vec::new(); connections];
    for (i, entry) in trace.iter().enumerate() {
        shares[i % connections].push((entry.at, submit_request(entry)));
    }
    let start = Instant::now() + Duration::from_millis(20);
    let mut merged = LoadResult::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = shares
            .iter()
            .map(|share| scope.spawn(move || run_connection(addr, start, time_scale, share)))
            .collect();
        for handle in handles {
            merged.merge(handle.join().expect("sender thread panicked"));
        }
    });
    sort(&mut merged.rtt_ms);
    sort(&mut merged.lag_ms);
    merged
}
