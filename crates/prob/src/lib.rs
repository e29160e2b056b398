//! Probability substrate for the REACT middleware.
//!
//! The REACT paper (Boutsis & Kalogeraki, IPDPS 2013) estimates whether a
//! crowd worker will finish a task before its deadline by fitting a
//! **power-law distribution** to the worker's historical execution times
//! (following the observation of Ipeirotis that AMT task latencies are
//! power-law distributed) and evaluating its complementary CDF.
//!
//! This crate provides:
//!
//! * [`PowerLaw`] — the distribution itself: density, CDF/CCDF, sampling,
//!   and maximum-likelihood fitting (both the continuous
//!   Clauset–Shalizi–Newman estimator and the discrete variant with the
//!   `−½` offset that the paper prints).
//! * [`ExecTimeEstimator`] — an online, per-worker sample store that
//!   lazily refits the distribution as new completion times arrive.
//! * [`DeadlineModel`] — the paper's Eq. (2)/(3): the probability that a
//!   task completes inside `(t, TimeToDeadline)`, used for edge
//!   instantiation and for mid-flight reassignment decisions.
//! * [`distributions`] — the small set of auxiliary distributions needed
//!   by the workload generators (uniform, exponential, Bernoulli,
//!   bounded Pareto) implemented directly on top of `rand`.
//! * [`stats`] — the percentile of a sorted sample, used by the case
//!   study.

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

pub mod deadline;
pub mod distributions;
pub mod empirical;
pub mod estimator;
pub mod powerlaw;
pub mod stats;

pub use deadline::{
    DeadlineDecision, DeadlineModel, DeadlineModelConfig, EdgeGate, GatedRow, RecallGate,
};
pub use empirical::{EmpiricalDist, FittedModel, LatencyCcdf};
pub use estimator::{EstimatorConfig, ExecTimeEstimator};
pub use powerlaw::{FitMethod, PowerLaw, PowerLawError};

/// Result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, PowerLawError>;
