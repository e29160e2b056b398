//! Observability layer for REACT: structured spans, typed counters,
//! histograms, and pluggable sinks.
//!
//! The scheduling stack reports *what happened* through the [`Observer`]
//! trait: every server tick stage, matcher run, reassignment decision,
//! profile refit, and cluster shard tick emits spans and counters.
//! Sinks decide what to do with them:
//!
//! * [`NullObserver`] — the default; reports `enabled() == false` so hot
//!   paths skip all bookkeeping. Provably zero-cost: schedules are
//!   bit-identical with or without it.
//! * [`RecordingObserver`] — accumulates span statistics, counters, and
//!   histograms in memory for tests, benches, and report generation.
//!
//! This crate is a *leaf*: it sits below `react-core` and therefore
//! cannot use `react-runtime`'s clock layer (which depends on core).
//! It owns the only other sanctioned use of monotonic wall-clock reads
//! in the workspace — see [`SpanTimer`] — and clippy's
//! `disallowed_methods` list in the root `clippy.toml` enforces that
//! sanction.
//!
//! Observers are strictly write-only from the scheduler's perspective:
//! nothing in the scheduling pipeline reads observer state back, so no
//! sink can perturb assignment decisions.

#![warn(missing_docs)]

mod histogram;
mod observer;
mod recording;
mod timer;

pub use histogram::Histogram;
pub use observer::{
    null_observer, CounterKind, HistogramKind, NullObserver, Observer, ObserverHandle, SpanKind,
};
pub use recording::{RecordingObserver, SpanStats};
pub use timer::SpanTimer;
