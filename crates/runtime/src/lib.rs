//! Live (wall-clock) deployment of the REACT middleware.
//!
//! The paper deployed REACT as a Java middleware on PlanetLab. This crate
//! is the equivalent *running system* in Rust, driven by the wall clock
//! instead of the discrete-event simulator —
//!
//! * **acceptor threads** take task submissions over TCP (hand-rolled
//!   HTTP/1.1), apply the admission ladder ([`ingest::server`]) and put
//!   what they admit on one bounded `crossbeam` channel;
//! * the **scheduler thread** ([`ingest`]) is that channel's only
//!   reader and the only other thread there is. It owns the
//!   [`react_core::ReactServer`] and runs `react_crowd::Lap::run`, the
//!   discrete-event runners' one control loop, with the channel on the
//!   scaled wall clock as its source: ingestion, the crowd's completions
//!   and fault timeline, Eq. (2) recalls, batch matching, and the drain
//!   window every run ends with. `benchmark/`'s wire workloads measure
//!   it with an open-loop generator over real sockets;
//! * the **crowd** is data inside that thread, not threads beside it: a
//!   [`react_crowd::Crowd`] — the model the discrete-event runners drive
//!   too — holds each worker's calendar, one timer queue of the instants
//!   the sampled human service times run out and the fault plan's
//!   dropouts, rejoins and bursts, and hands both out as one
//!   time-ordered stream. The scheduler sleeps on its channel until the
//!   next submission or grid tick, so an idle stack costs no CPU, and a
//!   recall simply strikes the timer.
//!
//! Simulated "human seconds" are compressed by a configurable
//! [`IngestConfig::time_scale`] so a 15-minute crowd scenario demos in
//! seconds. The discrete-event runner in `react-crowd` remains the tool
//! for the paper's figures (deterministic, fast); this runtime exists to
//! show the middleware really schedules asynchronously end-to-end.
//!
//! The `tokio` crate suggested by the reproduction hint was deliberately
//! avoided: one bounded mpsc queue with a timed receive is all the
//! concurrency the design has, and OS threads plus a `crossbeam`
//! channel, which is on the approved dependency list (see `DESIGN.md`),
//! cover it.

#![warn(missing_docs)]

pub mod clock;
pub mod ingest;

pub use clock::ScaledClock;
pub use ingest::{IngestConfig, IngestHandle, IngestReport, IngestRuntime};
