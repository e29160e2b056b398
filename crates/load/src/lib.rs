//! `react-load` — what the benchmark's wire workloads and the live-path
//! tests share about driving the REACT ingest front-end.
//!
//! Two pieces:
//!
//! * [`trace`] — pre-generated arrival traces (Poisson or bursty),
//!   deterministic per seed down to the byte;
//! * [`client`] — the `POST /tasks` request bytes for one arrival, and
//!   [`replay`], a keep-alive client that offers a trace at its
//!   instants but waits for each answer before its connection's next
//!   send — a driver for conservation tests and the examples, not a
//!   measurement. The live stack is measured by `benchmark/`'s
//!   `wire-steady` and `wire-overload` workloads, whose generator never
//!   waits on an answer.
//!
//! `std::net` usage in this crate is sanctioned by the `react-analyze`
//! `net-boundary` rule — the client *is* the wire boundary's other half.

#![warn(missing_docs)]

pub mod client;
pub mod trace;

pub use client::{replay, ClientStats};
pub use trace::{build_trace, trace_hash, trace_text, Shape, TraceEntry};
