//! Monotonic span timing.
//!
//! `react-obs` sits below `react-core` in the dependency graph, so it
//! cannot reuse `react-runtime::clock` (which depends on core). This
//! module is therefore the second sanctioned home of raw monotonic
//! clock reads in the workspace; the root `clippy.toml` disallows
//! `Instant::now()` and `Instant::elapsed()` everywhere else.
//!
//! Durations measured here describe *how long work took*; they are
//! never used as scheduling inputs, so they cannot break determinism.

// Sanctioned: a span's length is an output, never a scheduling input.
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use crate::observer::{Observer, SpanKind};

/// Measures one span against the process monotonic clock — when someone
/// listens.
///
/// The clock is read only when the observer the timer starts against is
/// enabled, so a span under the null observer costs a flag test and no
/// clock read at either end.
#[derive(Debug)]
pub struct SpanTimer {
    start: Option<Instant>,
}

impl SpanTimer {
    /// Starts timing now if `obs` is enabled; otherwise reads no clock.
    pub fn start(obs: &dyn Observer) -> Self {
        SpanTimer {
            start: obs.enabled().then(Instant::now),
        }
    }

    /// Stops the timer and reports the span to `obs`, if the timer was
    /// started against an enabled observer.
    pub fn finish(self, obs: &dyn Observer, kind: SpanKind) {
        if let Some(start) = self.start {
            obs.span(kind, start.elapsed().as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recording::RecordingObserver;
    use crate::NullObserver;

    #[test]
    fn a_null_observer_starts_no_clock() {
        let t = SpanTimer::start(&NullObserver);
        assert!(t.start.is_none());
        t.finish(&NullObserver, SpanKind::Tick);
    }

    #[test]
    fn finish_reports_to_enabled_observer() {
        let rec = RecordingObserver::new();
        let t = SpanTimer::start(&rec);
        t.finish(&rec, SpanKind::StageBuild);
        let stats = rec.span_stats(SpanKind::StageBuild).expect("span recorded");
        assert_eq!(stats.count, 1);
        assert!(stats.total_seconds >= 0.0 && stats.total_seconds.is_finite());
    }
}
