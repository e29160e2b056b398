//! Measurement substrate for the REACT experiments.
//!
//! Deliberately small: append-only time series for the paper's
//! cumulative curves (Figs. 5–6) and sweep series (Figs. 9–10), the
//! [`KpiRow`]/[`KpiReport`] schema every experiment suite reports in, a
//! plain-text table renderer for terminal reports, a hand-rolled CSV
//! renderer for archiving the regenerated figure data (no `serde` needed —
//! see `DESIGN.md`), and provenance-stamped artifact writes. Live
//! telemetry (spans, counters, histograms) is aggregated by
//! `react-obs`' `RecordingObserver`, not here.

#![warn(missing_docs)]

pub mod chart;
pub mod csv;
pub mod kpi;
pub mod provenance;
pub mod series;
pub mod table;

pub use chart::{ascii_chart, ChartSeries};
pub use kpi::{KpiReport, KpiRow, KpiValue};
pub use provenance::{fnv1a64, git_revision, write_stamped, ArtifactOutcome, Provenance};
pub use series::TimeSeries;
pub use table::Table;
