//! # react-experiments — declarative experiment orchestration
//!
//! One API for every experiment suite in the repo: an [`Experiment`]
//! expands (from a sweep [`Manifest`] or its intrinsic cell list) into a
//! deterministic list of [`RunSpec`]s, each run produces [`KpiRow`]s
//! plus any named figure tables and terminal text, and the generic
//! [`sweep`] driver fans the specs out across cores, aggregates
//! everything into one [`KpiReport`], and is the single writer of the
//! provenance-stamped artifacts (figure CSVs, JSON-lines + CSV reports).
//!
//! | module | paper artefact |
//! |---|---|
//! | [`fig34`] | Fig. 3 (matching time) and Fig. 4 (matching weight) |
//! | [`endtoend`] | Figs. 5–8 (deadline curve, feedback curve, execution times) |
//! | [`scalability`] | Figs. 9–10 (scalability sweep) |
//! | [`case`] | the Sec. V-C CrowdFlower case-study statistics |
//! | [`ablation`] | the design-choice ablations listed in `DESIGN.md` |
//! | [`chaos`] | fault-injection sweep (no paper counterpart) |
//! | [`scenario`] | manifest-driven crowd scenario grid (no paper counterpart) |
//! | [`load`] | open-loop TCP replay through the ingest door (no paper counterpart) |
//!
//! Nothing here times the repo's own code for a claim: that is
//! `benchmark/` (see `BENCHMARK.json`).
//!
//! Determinism contract: every run's seed is derived solely from the
//! manifest base seed, the suite name and the run's default-elided axis
//! coordinates ([`spec::derive_seed`]) — so the same manifest always
//! reproduces byte-identical reports, serial or parallel, and extending
//! a manifest with new axis values or whole new axes never reseeds the
//! runs that already existed.
//!
//! [`KpiRow`]: react_metrics::KpiRow
//! [`KpiReport`]: react_metrics::KpiReport

pub mod ablation;
pub mod case;
pub mod chaos;
pub mod endtoend;
pub mod executor;
pub mod experiment;
pub mod fig34;
pub mod load;
pub mod manifest;
pub mod scalability;
pub mod scenario;
pub mod spec;
pub mod sweep;

pub use executor::run_indexed;
pub use experiment::{ExpandCtx, Experiment, RunOutput};
pub use load::LoadSuite;
pub use manifest::{Manifest, ManifestError, ManifestValue};
pub use scenario::ScenarioSweep;
pub use spec::{derive_seed, expand, RunSpec};
pub use sweep::{registry, run_suites, suite, SweepOptions, SweepOutcome};
