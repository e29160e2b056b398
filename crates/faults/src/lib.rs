//! # react-faults — deterministic fault injection for chaos runs
//!
//! REACT's dynamic-reassignment machinery exists because crowd workers
//! stall, disappear and drop responses mid-flight, yet the healthy-crowd
//! scenarios never exercise those paths. This crate provides the missing
//! regime: a declarative [`FaultPlan`] describing *which* faults to
//! inject (worker dropout/rejoin, straggler slowdowns, silent task
//! abandonment, completion-message loss/duplication, burst arrivals) and
//! a materialised [`FaultSchedule`] that answers *when and to whom* they
//! happen.
//!
//! Two properties make chaos runs bit-reproducible from a single seed:
//!
//! 1. **Up-front materialisation** — everything that can be drawn before
//!    the run starts (dropout instants, per-worker slowdown factors,
//!    burst times) is drawn from dedicated `react-sim` named RNG streams
//!    (`fault.*`) in [`FaultPlan::materialize`], so the fault timeline is
//!    fixed before the first event fires and identical across reruns.
//! 2. **Order-independent per-event decisions** — faults that depend on
//!    runtime state (does *this* assignment get abandoned? is *this*
//!    completion message lost?) cannot be pre-drawn because the number of
//!    assignments is unknown up front. They are instead pure hash
//!    functions of `(salt, fault kind, task id, attempt)`, so the answer
//!    does not depend on the order in which the embedding asks — the DES
//!    in `react-crowd` and the live threaded runtime in `react-runtime`
//!    replay the exact same faults from the same plan.

#![warn(missing_docs)]
// Hash order varies between runs, so scheduling never iterates a hash
// container (the iterating methods are in the root `clippy.toml`).
#![warn(clippy::iter_over_hash_type)]

pub mod plan;
pub mod schedule;

pub use plan::{BurstPlan, DropoutPlan, FaultPlan, StragglerPlan};
pub use schedule::{Dropout, FaultSchedule, BURST_ID_BASE};
