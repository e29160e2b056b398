//! Sharded cluster mode for REACT.
//!
//! The crates below this one model a *single* REACT server
//! ([`react_core`]). This crate is the paper's spatial decomposition
//! (Sec. III-A: non-overlapping regions, one server each) and the
//! coupling a real deployment adds on top of it:
//!
//! * [`Cluster`] — one [`react_core::ReactServer`] per
//!   [`react_geo::RegionRouter`] leaf cell (including post-split
//!   children), with worker/task routing, live router load accounting,
//!   and three coupling mechanisms on top:
//!   1. **cross-shard task handoff** — when a shard's online pool falls
//!      below the recovery-style pool floor, queued tasks are evicted
//!      (audited as `HandedOff`) and re-submitted on the strongest
//!      edge-adjacent shard with their absolute deadline preserved;
//!   2. **idle-worker rebalancing** — a periodic pass relocating surplus
//!      idle workers toward adjacent shards with backlog deficits,
//!      bit-reproducible via the dedicated `cluster.rebalance` RNG
//!      stream;
//!   3. **admission caps** — a hard per-shard open-task ceiling shedding
//!      excess ingress at the door, reported on `shard.admission_shed`.
//! * [`ClusterRunner`] — a discrete-event harness driving a whole
//!   crowdsourcing scenario (arrivals, churn, faults, completions)
//!   through a [`Cluster`] on one thread, with per-shard reports, a
//!   cluster-wide conservation identity, and same-seed bit-identity.
//!
//! With [`ClusterPolicy::single_tier`] every mechanism is off and the
//! shards never interact: that *is* the paper's multi-region deployment,
//! and how ablation 8 and `examples/churny_crowd.rs` run it. Workers and
//! tasks land in the shard whose cell contains them, and each shard
//! conserves its own tasks (`tests/cluster_properties.rs`).

// Hash order varies between runs, so scheduling never iterates a hash
// container (the iterating methods are in the root `clippy.toml`).
#![warn(clippy::iter_over_hash_type)]

mod cluster;
mod policy;
mod runner;

pub use cluster::{Cluster, ClusterTickOutcome, Handoff, Relocation, Submission};
pub use policy::{AdmissionPolicy, ClusterPolicy, HandoffPolicy, RebalancePolicy};
pub use runner::{ClusterReport, ClusterRunner, ClusterScenario, ShardReport};
