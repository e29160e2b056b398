//! The `POST /tasks` request bytes, and a keep-alive replay client.
//!
//! [`replay`] paces each sender off the shared [`ScaledClock`], but a
//! sender writes one request and blocks on its answer before the next:
//! once the server answers slower than the trace arrives, that sender
//! falls behind and offers less than its trace. It is the driver for
//! conservation tests and the examples, not a measurement — the live
//! stack is measured by `benchmark/`'s wire workloads, whose generator
//! stamps each request's due instant and never waits on an answer.
//! Connections are persistent (HTTP/1.1 keep-alive) with one reconnect
//! retry when the server closes one under us.

use react_runtime::ScaledClock;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::trace::TraceEntry;

/// Aggregate outcome of one replay.
#[derive(Debug, Default)]
pub struct ClientStats {
    /// Requests written to the wire.
    pub sent: AtomicU64,
    /// 202 responses (admitted).
    pub accepted: AtomicU64,
    /// 429 responses (shed at the door).
    pub shed: AtomicU64,
    /// Any other HTTP status.
    pub rejected: AtomicU64,
    /// Requests lost to transport errors after the retry.
    pub transport_errors: AtomicU64,
}

/// One persistent keep-alive connection.
struct Connection {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Connection {
    fn open(addr: SocketAddr) -> std::io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Connection {
            writer: stream,
            reader,
        })
    }

    /// Writes one request and reads one response; returns the status.
    fn roundtrip(&mut self, request: &[u8]) -> std::io::Result<u16> {
        self.writer.write_all(request)?;
        let mut status_line = String::new();
        if self.reader.read_line(&mut status_line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before response",
            ));
        }
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line")
            })?;
        // Drain headers, then the body, so the connection is reusable.
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-headers",
                ));
            }
            let trimmed = line.trim_end();
            if trimmed.is_empty() {
                break;
            }
            if let Some(v) = trimmed.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().unwrap_or(0);
            }
        }
        if content_length > 0 {
            let mut body = vec![0u8; content_length];
            self.reader.read_exact(&mut body)?;
        }
        Ok(status)
    }
}

/// Renders a trace entry as its `POST /tasks` request bytes.
pub fn submit_request(entry: &TraceEntry) -> Vec<u8> {
    let body = format!(
        "{{\"deadline\": {:.6}, \"reward\": {:.6}, \"lat\": {:.6}, \"lon\": {:.6}, \"category\": {}}}",
        entry.deadline, entry.reward, entry.lat, entry.lon, entry.category
    );
    format!(
        "POST /tasks HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
        body.len(),
        body
    )
    .into_bytes()
}

/// Replays `trace` against `addr`, pacing off `clock`, spreading
/// entries round-robin over `senders` threads (each with its own
/// persistent connection). A sender sends an entry no earlier than its
/// instant and only after the previous entry's answer, so under
/// overload it sends late. Blocks until every entry has been offered.
pub fn replay(
    addr: SocketAddr,
    clock: ScaledClock,
    trace: &[TraceEntry],
    senders: usize,
) -> ClientStats {
    let stats = ClientStats::default();
    let senders = senders.max(1);
    std::thread::scope(|scope| {
        for tid in 0..senders {
            let stats = &stats;
            let entries = trace.iter().skip(tid).step_by(senders);
            scope.spawn(move || {
                let mut conn: Option<Connection> = None;
                for entry in entries {
                    let now = clock.now();
                    if entry.at > now {
                        std::thread::sleep(clock.to_wall(entry.at - now));
                    }
                    let request = submit_request(entry);
                    stats.sent.fetch_add(1, Ordering::Relaxed);
                    match send_with_retry(&mut conn, addr, &request) {
                        Some(202) => {
                            stats.accepted.fetch_add(1, Ordering::Relaxed);
                        }
                        Some(429) => {
                            stats.shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Some(_) => {
                            stats.rejected.fetch_add(1, Ordering::Relaxed);
                        }
                        None => {
                            stats.transport_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    stats
}

/// Sends on the cached connection, reconnecting once on failure.
fn send_with_retry(conn: &mut Option<Connection>, addr: SocketAddr, request: &[u8]) -> Option<u16> {
    for _ in 0..2 {
        if conn.is_none() {
            match Connection::open(addr) {
                Ok(c) => *conn = Some(c),
                Err(_) => continue,
            }
        }
        if let Some(c) = conn.as_mut() {
            match c.roundtrip(request) {
                Ok(status) => return Some(status),
                Err(_) => *conn = None,
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_request_is_well_framed() {
        let entry = TraceEntry {
            at: 0.0,
            deadline: 90.0,
            reward: 0.05,
            lat: 38.0,
            lon: 23.7,
            category: 1,
        };
        let bytes = submit_request(&entry);
        let text = String::from_utf8(bytes).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").expect("header/body split");
        assert!(head.starts_with("POST /tasks HTTP/1.1"));
        let length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("content-length: "))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(length, body.len());
        assert!(body.contains("\"deadline\": 90.000000"));
        assert!(body.contains("\"category\": 1"));
    }
}
