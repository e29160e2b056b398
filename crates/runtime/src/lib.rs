//! Live (wall-clock) deployment of the REACT middleware.
//!
//! The paper deployed REACT as a Java middleware on PlanetLab. This crate
//! is the equivalent *running system* in Rust: real threads exchanging
//! messages over `crossbeam` channels, driven by the wall clock instead
//! of the discrete-event simulator —
//!
//! * **acceptor threads** take task submissions over TCP (hand-rolled
//!   HTTP/1.1) and apply the admission ladder ([`ingest::server`]),
//! * one **worker-host thread per crowd worker** executes assignments
//!   (sleeping for the sampled human service time, interruptibly so the
//!   scheduler can recall a stalled task), and
//! * the **scheduler thread** ([`ingest`]) owns the
//!   [`react_core::ReactServer`] and runs its control loop: ingestion,
//!   fault timeline, Eq. (2) recalls, batch matching, drain. It is the
//!   only live scheduler loop; `react-load` drives it with a seeded
//!   open-loop trace.
//!
//! Simulated "human seconds" are compressed by a configurable
//! [`IngestConfig::time_scale`] so a 15-minute crowd scenario demos in
//! seconds. The discrete-event runner in `react-crowd` remains the tool
//! for the paper's figures (deterministic, fast); this runtime exists to
//! show the middleware really schedules asynchronously end-to-end.
//!
//! The `tokio` crate suggested by the reproduction hint was deliberately
//! avoided: the dispatch pattern (mpmc queues + per-worker mailboxes)
//! maps directly onto OS threads and `crossbeam` channels, which are on
//! the approved dependency list (see `DESIGN.md`).

#![warn(missing_docs)]

pub mod clock;
pub mod ingest;
pub mod messages;
pub mod worker_host;

pub use clock::{ScaledClock, Stopwatch};
pub use ingest::{IngestConfig, IngestHandle, IngestReport, IngestRuntime};
pub use messages::{Completion, WorkerCommand};
