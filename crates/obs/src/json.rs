//! JSON-lines export sink.

use std::io::Write;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::observer::{CounterKind, HistogramKind, Observer, SpanKind};

/// Streams one JSON object per event to a `Write` sink.
///
/// Output shape (one object per line, no trailing commas):
///
/// ```text
/// {"event":"span","name":"tick.match","seconds":0.00042}
/// {"event":"counter","name":"matcher.cycles","by":1200}
/// {"event":"hist","name":"matching.seconds","value":0.0185}
/// ```
///
/// Event names come from the typed vocabularies in this crate and
/// contain only `[a-z._]`, so no string escaping is required. Non-finite
/// numbers (which JSON cannot represent) are emitted as `null`.
///
/// Write errors are swallowed: telemetry export must never take down a
/// scheduling run.
pub struct JsonLinesObserver {
    out: Mutex<Box<dyn Write + Send>>,
}

impl JsonLinesObserver {
    /// Export to an arbitrary writer (file, stdout lock, socket, ...).
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        JsonLinesObserver {
            out: Mutex::new(writer),
        }
    }

    /// Export into a shared in-memory buffer; returns the observer and
    /// the buffer handle so callers (mainly tests) can inspect the
    /// emitted lines afterwards.
    pub fn shared_buffer() -> (Self, Arc<Mutex<Vec<u8>>>) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let writer = SharedBufferWriter {
            buf: Arc::clone(&buf),
        };
        (JsonLinesObserver::new(Box::new(writer)), buf)
    }

    fn emit(&self, line: String) {
        let mut out = self.out.lock();
        let _ = out.write_all(line.as_bytes());
        let _ = out.write_all(b"\n");
    }

    /// Flush the underlying writer.
    pub fn flush(&self) {
        let _ = self.out.lock().flush();
    }
}

impl std::fmt::Debug for JsonLinesObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("JsonLinesObserver")
    }
}

/// Format an `f64` as a JSON number, mapping non-finite values to `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl Observer for JsonLinesObserver {
    fn span(&self, kind: SpanKind, seconds: f64) {
        self.emit(format!(
            r#"{{"event":"span","name":"{}","seconds":{}}}"#,
            kind.name(),
            json_f64(seconds)
        ));
    }

    fn incr(&self, kind: CounterKind, by: u64) {
        self.emit(format!(
            r#"{{"event":"counter","name":"{}","by":{}}}"#,
            kind.name(),
            by
        ));
    }

    fn observe(&self, kind: HistogramKind, value: f64) {
        self.emit(format!(
            r#"{{"event":"hist","name":"{}","value":{}}}"#,
            kind.name(),
            json_f64(value)
        ));
    }
}

struct SharedBufferWriter {
    buf: Arc<Mutex<Vec<u8>>>,
}

impl Write for SharedBufferWriter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf.lock().extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(buf: &Arc<Mutex<Vec<u8>>>) -> Vec<String> {
        String::from_utf8(buf.lock().clone())
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn emits_one_object_per_line_with_expected_shape() {
        let (obs, buf) = JsonLinesObserver::shared_buffer();
        obs.span(SpanKind::StageMatch, 0.5);
        obs.incr(CounterKind::MatcherCycles, 42);
        obs.observe(HistogramKind::MatchingSeconds, 0.125);

        let lines = lines(&buf);
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            r#"{"event":"span","name":"tick.match","seconds":0.5}"#
        );
        assert_eq!(
            lines[1],
            r#"{"event":"counter","name":"matcher.cycles","by":42}"#
        );
        assert_eq!(
            lines[2],
            r#"{"event":"hist","name":"matching.seconds","value":0.125}"#
        );
    }

    #[test]
    fn every_line_is_minimally_valid_json() {
        let (obs, buf) = JsonLinesObserver::shared_buffer();
        obs.span(SpanKind::Tick, 1e-7);
        obs.span(SpanKind::ShardTick, 3.25);
        obs.incr(CounterKind::ShardHandoffs, 1);
        for line in lines(&buf) {
            assert!(line.starts_with('{') && line.ends_with('}'), "line: {line}");
            assert!(line.contains(r#""event":"#), "line: {line}");
            assert!(line.contains(r#""name":"#), "line: {line}");
            // Balanced quotes (even count) is a cheap well-formedness proxy.
            assert_eq!(line.matches('"').count() % 2, 0, "line: {line}");
        }
    }

    #[test]
    fn nonfinite_values_become_null() {
        let (obs, buf) = JsonLinesObserver::shared_buffer();
        obs.span(SpanKind::Tick, f64::NAN);
        obs.observe(HistogramKind::ExecSeconds, f64::INFINITY);
        let lines = lines(&buf);
        assert_eq!(lines[0], r#"{"event":"span","name":"tick","seconds":null}"#);
        assert_eq!(
            lines[1],
            r#"{"event":"hist","name":"exec.seconds","value":null}"#
        );
    }
}
