//! Simulated time and randomness for the REACT experiments.
//!
//! The paper evaluated REACT live on PlanetLab; the documented substitute
//! (see `DESIGN.md`) is a deterministic discrete-event simulation whose
//! virtual clock advances from event to event. All the paper's evaluation
//! metrics — deadline misses, feedback counts, execution times, queueing
//! collapse — are functions of event *ordering* and *latency models*,
//! which a discrete-event run reproduces exactly and repeatably. This
//! crate holds the pieces every such run shares; the one loop that pops
//! a run's events in time order is `react_crowd::Lap::run`, over the
//! crowd's timeline, the arrivals and the tick grid.
//!
//! * [`SimTime`] / [`SimDuration`] — virtual-clock instants and intervals
//!   (seconds as `f64`, NaN-free by construction).
//! * [`EventQueue`] — a time-ordered priority queue with deterministic
//!   FIFO tie-breaking for simultaneous events.
//! * [`rng`] — reproducible named RNG streams derived from one master
//!   seed, so independent model components consume independent streams
//!   (changing one component's draws does not perturb the others).

#![warn(missing_docs)]

pub mod event;
pub mod rng;
pub mod time;

pub use event::EventQueue;
pub use rng::{splitmix64, RngStreams};
pub use time::{SimDuration, SimTime};
