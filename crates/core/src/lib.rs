//! # react-core — the REACT middleware
//!
//! Reproduction of the system described in *"Crowdsourcing under
//! Real-Time Constraints"* (Boutsis & Kalogeraki, IPDPS 2013): a
//! middleware that assigns crowdsourcing tasks to human workers so that
//! soft real-time deadlines are met and high-quality results returned.
//!
//! A [`ReactServer`] owns one geographic region and composes the paper's
//! four components (Sec. III-A):
//!
//! * [`ProfilingComponent`] — per-worker location, availability, accuracy
//!   per task category and execution-time history (with the power-law
//!   estimator from `react-prob`).
//! * [`TaskManagementComponent`] — every task's state: unassigned /
//!   assigned (to whom, since when) / completed / expired, plus remaining
//!   time to deadline.
//! * [`SchedulingComponent`] — builds the weighted bipartite graph over
//!   (available workers × unassigned tasks), pruning edges via the
//!   Eq. (3) probability threshold and boosting new workers for their
//!   first `z` training assignments, then runs the configured
//!   [`MatcherPolicy`] (REACT at a fixed or adaptive cycle budget /
//!   Greedy / Traditional — defined in `react-matching`, re-exported
//!   here).
//! * [`DynamicAssignmentComponent`] — evaluates Eq. (2) on every in-flight
//!   assignment and pulls tasks back from workers that will likely miss
//!   the deadline.
//!
//! Drive the server by calling [`ReactServer::tick`] with the current
//! (simulated or wall-clock) time; it lends out the server's own
//! [`TickOutcome`] — fresh assignments, reassignment recalls, expirations
//! and the modelled scheduler compute time — for the embedding
//! environment (the DES in `react-crowd`, the threaded runtime in
//! `react-runtime`, or your own integration) to act on before the next
//! tick.
//!
//! ```
//! use react_core::prelude::*;
//!
//! let mut config = Config::paper_defaults();
//! config.batch = BatchTrigger { min_unassigned: 1, period: None }; // batch eagerly
//! let mut server = ServerBuilder::new(config).seed(42).build().unwrap();
//! let here = GeoPoint::new(37.98, 23.72);
//! server.register_worker(WorkerId(1), here);
//! server.submit_task(Task::new(TaskId(1), here, 60.0, 0.05, TaskCategory(0), "congestion on A?"), 0.0);
//! let outcome = server.tick(0.0);
//! assert_eq!(outcome.assignments, vec![(WorkerId(1), TaskId(1))]);
//! ```
//!
//! Observability: pass any [`react_obs::Observer`] sink to
//! [`ServerBuilder::observer`] to receive per-stage spans, matcher
//! cycle/flip counters and latency histograms; the default
//! [`react_obs::NullObserver`] is provably zero-cost (schedules are
//! bit-identical with or without it, and a tick under it reads no
//! clock).

#![warn(missing_docs)]
// No panics in library code: a failure is a typed error, an internal
// condition a `debug_assert!`.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
// Hash order varies between runs, so scheduling never iterates a hash
// container (the iterating methods are in the root `clippy.toml`).
#![warn(clippy::iter_over_hash_type)]

pub mod config;
pub mod dynamic;
pub mod error;
pub mod events;
pub mod ids;
pub mod prelude;
pub mod profiling;
pub mod scheduling;
pub mod server;
pub mod task;
pub mod task_mgmt;
pub mod weight;

pub use config::{BatchTrigger, Config, LatencyModelKind, MatcherPolicy, RecoveryConfig};
pub use dynamic::DynamicAssignmentComponent;
pub use error::{CoreError, ReactError};
pub use events::{verify_lifecycles, AuditLog, TaskEvent, TaskEventKind};
pub use ids::{IdHasher, IdMap, TaskCategory, TaskId, WorkerId};
pub use profiling::{Availability, ProfilingComponent, WorkerProfile};
pub use scheduling::{BatchResult, BatchScratch, BuildStats, BuiltBatchGraph, SchedulingComponent};
pub use server::{CompletionOutcome, ReactServer, ServerBuilder, TickOutcome};
pub use task::{Task, TaskState};
pub use task_mgmt::TaskManagementComponent;
pub use weight::WeightFunction;
