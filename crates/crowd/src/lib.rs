//! Crowd behaviour models, workload generation and the end-to-end
//! simulation runner for the REACT experiments.
//!
//! The paper could not obtain real AMT workloads (*"the systems do not
//! allow us to control the task assignment"*), so its evaluation runs a
//! synthetic crowd **parameterised by a CrowdFlower case study** (Sec.
//! V-C). This crate implements that synthetic crowd:
//!
//! * [`WorkerBehavior`] / [`generate_population`] — each worker gets a
//!   personal service-time range inside 1–20 s, a 50 % chance per task to
//!   delay/abandon (stretching execution up to 130 s), and an intrinsic
//!   feedback quality distributed so that 70 % of workers exceed 0.5.
//! * [`TaskGenerator`] — Poisson task arrivals at a configurable rate
//!   with deadlines uniform in 60–120 s, random locations and categories.
//! * [`Scenario`] — named parameter sets for every figure (Fig. 5's
//!   750 workers @ 9.375 tasks/s, Fig. 9's size/rate sweep…).
//! * [`Source`] — where a run's tasks come from, asked for the next task
//!   due by an instant: [`Arrivals`], a run's task arrivals in time order
//!   from a preset trace (sorted stably if it is not) or a Poisson stream,
//!   with replica expansion, or `react-runtime`'s live door.
//! * [`Crowd`] — the worker side of a run as clock-free data: calendars,
//!   the `behavior` stream, the fault shims, one queue of due completions,
//!   and the fault plan's timeline of dropouts, rejoins and bursts, popped
//!   as one time-ordered stream of [`CrowdEvent`]s. The one model [`ScenarioRunner`],
//!   `react-cluster`'s runner and `react-runtime`'s live scheduler thread
//!   all drive.
//! * [`Lap`] — the middleware (anything that [`Dispatch`]es: one
//!   [`react_core::ReactServer`] or `react-cluster`'s `Cluster`) and its
//!   [`Crowd`] as one run, and [`Lap::run`], the one control loop of
//!   every driver, over the crowd's timeline, the tick grid and a
//!   [`Source`], with one end rule; a driver keeps what it needs of each
//!   step through its [`Ledger`].
//! * [`ScenarioRunner`] — drives a [`Lap`] through [`Lap::run`] and
//!   produces a [`RunReport`] with the exact series the paper plots.
//! * [`casestudy`] — a synthesizer reproducing the shape of the raw
//!   CrowdFlower observations (half the responses within 20 s, a tail of
//!   hours, 70 % of workers trusted above 50 %).

#![warn(missing_docs)]
// Hash order varies between runs, so scheduling never iterates a hash
// container (the iterating methods are in the root `clippy.toml`).
#![warn(clippy::iter_over_hash_type)]

pub mod arrivals;
pub mod behavior;
pub mod casestudy;
pub mod crowd;
pub mod generator;
pub mod lap;
pub mod runner;
pub mod scenario;

pub use arrivals::{Arrivals, Next, Source};
pub use behavior::{generate_population, BehaviorParams, ExecModel, LatencyModel, WorkerBehavior};
pub use casestudy::{CaseStudySummary, CaseStudyTrace};
pub use crowd::{Crowd, CrowdEvent, Delivery};
pub use generator::TaskGenerator;
pub use lap::{Dispatch, Lap, Ledger, Trigger};
pub use runner::{FaultStats, RunReport, ScenarioRunner};
pub use scenario::Scenario;
