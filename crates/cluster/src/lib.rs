//! Sharded cluster mode for REACT.
//!
//! The crates below this one model a *single* REACT server
//! ([`react_core`]) and a static multi-region decomposition
//! (`react_crowd::MultiRegionRunner`: independent per-region servers,
//! no interaction). This crate lifts both into a real cluster layer:
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
//! shards never interact. That is the multi-region decomposition in
//! spirit, but not in bytes: [`ClusterRunner`] keeps its own event loop
//! (seed root, preloaded arrivals, per-shard arrival ticks), so use
//! `MultiRegionRunner` itself when the uncoupled numbers are wanted.

mod cluster;
mod policy;
mod runner;

pub use cluster::{grid_cluster, Cluster, ClusterTickOutcome, Handoff, Relocation, Submission};
pub use policy::{AdmissionPolicy, ClusterPolicy, HandoffPolicy, RebalancePolicy};
pub use runner::{ClusterReport, ClusterRunner, ClusterScenario, ShardReport};
