//! In-memory accumulating sink for tests, benches, and reports.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::histogram::Histogram;
use crate::observer::{CounterKind, HistogramKind, Observer, SpanKind};

/// Aggregate statistics for one span kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanStats {
    /// Number of spans recorded.
    pub count: u64,
    /// Sum of all span durations, in seconds.
    pub total_seconds: f64,
    /// Shortest span, in seconds.
    pub min_seconds: f64,
    /// Longest span, in seconds.
    pub max_seconds: f64,
}

impl SpanStats {
    fn absorb(&mut self, seconds: f64) {
        self.count += 1;
        self.total_seconds += seconds;
        self.min_seconds = self.min_seconds.min(seconds);
        self.max_seconds = self.max_seconds.max(seconds);
    }

    /// Mean span duration in seconds (0 when no spans were recorded).
    pub fn mean_seconds(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_seconds / self.count as f64
        }
    }
}

#[derive(Default)]
struct Inner {
    spans: BTreeMap<&'static str, SpanStats>,
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

/// Accumulates every event in memory behind a mutex.
///
/// Cloning is shallow: clones share the same buffers, so a clone handed
/// to a server keeps feeding the original held by the test.
#[derive(Clone, Default)]
pub struct RecordingObserver {
    inner: Arc<Mutex<Inner>>,
}

impl RecordingObserver {
    /// New empty recorder.
    pub fn new() -> Self {
        RecordingObserver::default()
    }

    /// Statistics for `kind`, or `None` if no such span was recorded.
    pub fn span_stats(&self, kind: SpanKind) -> Option<SpanStats> {
        self.inner.lock().spans.get(kind.name()).copied()
    }

    /// Current value of `kind` (0 if never incremented).
    pub fn counter(&self, kind: CounterKind) -> u64 {
        self.inner
            .lock()
            .counters
            .get(kind.name())
            .copied()
            .unwrap_or(0)
    }

    /// Snapshot of the histogram for `kind`, or `None` if empty.
    pub fn histogram(&self, kind: HistogramKind) -> Option<Histogram> {
        self.inner.lock().histograms.get(kind.name()).cloned()
    }
}

impl std::fmt::Debug for RecordingObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("RecordingObserver")
            .field("spans", &inner.spans.len())
            .field("counters", &inner.counters.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

impl Observer for RecordingObserver {
    fn span(&self, kind: SpanKind, seconds: f64) {
        let mut inner = self.inner.lock();
        inner
            .spans
            .entry(kind.name())
            .or_insert(SpanStats {
                count: 0,
                total_seconds: 0.0,
                min_seconds: f64::INFINITY,
                max_seconds: f64::NEG_INFINITY,
            })
            .absorb(seconds);
    }

    fn incr(&self, kind: CounterKind, by: u64) {
        *self.inner.lock().counters.entry(kind.name()).or_insert(0) += by;
    }

    fn observe(&self, kind: HistogramKind, value: f64) {
        self.inner
            .lock()
            .histograms
            .entry(kind.name())
            .or_default()
            .record(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_spans_counters_histograms() {
        let rec = RecordingObserver::new();
        rec.span(SpanKind::Tick, 0.25);
        rec.span(SpanKind::Tick, 0.75);
        rec.incr(CounterKind::TasksAssigned, 2);
        rec.incr(CounterKind::TasksAssigned, 3);
        rec.observe(HistogramKind::MatchingSeconds, 0.01);

        let stats = rec.span_stats(SpanKind::Tick).unwrap();
        assert_eq!(stats.count, 2);
        assert!((stats.total_seconds - 1.0).abs() < 1e-12);
        assert!((stats.mean_seconds() - 0.5).abs() < 1e-12);
        assert_eq!(stats.min_seconds, 0.25);
        assert_eq!(stats.max_seconds, 0.75);

        assert_eq!(rec.counter(CounterKind::TasksAssigned), 5);
        assert_eq!(rec.counter(CounterKind::TasksExpired), 0);
        let matching = rec.histogram(HistogramKind::MatchingSeconds).unwrap();
        assert_eq!(matching.count(), 1);
        assert_eq!(matching.mean(), Some(0.01));
        assert!(rec.histogram(HistogramKind::ExecSeconds).is_none());
    }

    #[test]
    fn clones_share_state() {
        let rec = RecordingObserver::new();
        let clone = rec.clone();
        clone.incr(CounterKind::BatchesRun, 4);
        assert_eq!(rec.counter(CounterKind::BatchesRun), 4);
    }
}
