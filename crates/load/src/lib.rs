//! `react-load` — seeded open-loop load generation for the REACT
//! ingest front-end.
//!
//! Three pieces:
//!
//! * [`trace`] — pre-generated arrival traces (Poisson or bursty),
//!   deterministic per seed down to the byte;
//! * [`client`] — the open-loop TCP replay client that offers each
//!   arrival at its trace instant over persistent HTTP/1.1
//!   connections, letting the door's admission ladder do the shedding;
//! * [`report`] — run orchestration (self-hosts an
//!   [`react_runtime::IngestRuntime`]), goodput, p50/p99/p999
//!   assignment-latency percentiles and the provenance-stamped JSON
//!   report.
//!
//! `std::net` usage in this crate is sanctioned by the `react-analyze`
//! `net-boundary` rule — the load generator *is* the wire boundary's
//! other half.

#![warn(missing_docs)]

pub mod client;
pub mod report;
pub mod trace;

pub use client::{replay, ClientStats};
pub use report::{
    default_json_path, kpi_rows, percentile, render, run, to_json_with, write_json_stamped,
    LoadParams, LoadRunReport,
};
pub use trace::{build_trace, trace_hash, trace_text, Shape, TraceEntry};
