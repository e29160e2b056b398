//! Experiment harness regenerating every evaluation figure of
//! *"Crowdsourcing under Real-Time Constraints"*.
//!
//! Each module regenerates one part of the paper's evaluation (see the
//! experiment index in `DESIGN.md`); the `react-experiments` binary
//! drives them from the command line and archives CSVs under
//! `results/`:
//!
//! | module | paper artefact |
//! |---|---|
//! | [`fig34`] | Fig. 3 (matching time) and Fig. 4 (matching weight) |
//! | [`endtoend`] | Figs. 5–8 (deadline curve, feedback curve, execution times) |
//! | [`sweep`] | Figs. 9–10 (scalability sweep) |
//! | [`hotpath`] | scheduling hot-path micro-benchmarks (no paper counterpart: cold vs incremental graph build, matcher cycles/s, tick throughput → `BENCH_hotpath.json`) |
//! | [`casestudy`] | the Sec. V-C CrowdFlower case-study statistics |
//! | [`ablation`] | the design-choice ablations listed in `DESIGN.md` |
//! | [`chaos`] | fault-injection sweep (no paper counterpart: REACT vs baselines under worker dropout, stragglers, message loss) |
//! | [`cluster`] | sharded cluster-mode scaling sweep (no paper counterpart: ticks/sec across 1–16 shards + conservation/determinism identities → `BENCH_cluster.json`) |

#![warn(missing_docs)]

pub mod ablation;
pub mod casestudy;
pub mod chaos;
pub mod cluster;
pub mod endtoend;
pub mod fig34;
pub mod hotpath;
pub mod report;
pub mod sweep;
