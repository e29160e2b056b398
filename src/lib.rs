//! # REACT — REAl-time schEduling for Crowd-based Tasks
//!
//! A Rust reproduction of *"Crowdsourcing under Real-Time Constraints"*
//! (Boutsis & Kalogeraki, IPDPS 2013): a middleware that dynamically
//! assigns crowdsourcing tasks to the most appropriate human workers
//! under soft real-time deadlines, using an online weighted bipartite
//! matching heuristic and a power-law execution-time model that recalls
//! assignments predicted to miss their deadline.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`core`] — the middleware itself ([`core::ReactServer`] and its four
//!   components);
//! * [`matching`] — the bipartite graph and all WBGM algorithms;
//! * [`prob`] — power-law fitting and the Eq. (2)/(3) deadline model;
//! * [`crowd`] — synthetic crowd behaviour, workload generation and the
//!   end-to-end simulation runner;
//! * [`faults`] — declarative fault-injection plans (dropout,
//!   stragglers, message loss/duplication, bursts) for chaos runs;
//! * [`cluster`] — sharded cluster mode: one server per router cell with
//!   cross-shard task handoff, idle-worker rebalancing and admission
//!   caps;
//! * [`sim`] — the discrete-event kernel;
//! * [`geo`] — regions, routing and distances;
//! * [`runtime`] — the live threaded deployment, including the TCP
//!   ingest front-end with admission control;
//! * [`load`] — seeded arrival traces, their `POST /tasks` request bytes
//!   and a replay client for the ingest door (the live stack is measured
//!   by `benchmark/`);
//! * [`metrics`] — counters, series, tables, CSV;
//! * [`obs`] — structured observability: spans, counters, histograms
//!   and the sinks that record or export them.
//!
//! ## Quickstart
//!
//! ```
//! use react::core::prelude::*;
//!
//! let mut config = Config::paper_defaults();
//! config.batch = BatchTrigger { min_unassigned: 1, period: None };
//! config.charge_matching_time = false;
//! let mut server = ServerBuilder::new(config).seed(42).build().unwrap();
//!
//! let athens = GeoPoint::new(37.98, 23.72);
//! server.register_worker(WorkerId(1), athens);
//! server.submit_task(
//!     Task::new(TaskId(1), athens, 60.0, 0.05, TaskCategory(0), "Is road A congested?"),
//!     0.0,
//! );
//! let outcome = server.tick(0.0);
//! assert_eq!(outcome.assignments, vec![(WorkerId(1), TaskId(1))]);
//!
//! let done = server.complete_task(TaskId(1), WorkerId(1), 12.0, true).unwrap();
//! assert!(done.met_deadline);
//! ```

pub use react_cluster as cluster;
pub use react_core as core;
pub use react_crowd as crowd;
pub use react_faults as faults;
pub use react_geo as geo;
pub use react_load as load;
pub use react_matching as matching;
pub use react_metrics as metrics;
pub use react_obs as obs;
pub use react_prob as prob;
pub use react_runtime as runtime;
pub use react_sim as sim;
