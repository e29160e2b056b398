//! Multi-region deployment (Sec. III-A).
//!
//! The paper decomposes the geographic area into non-overlapping regions,
//! each owned by one REACT server; workers and tasks are registered with
//! the server of the region containing them. Because neither workers nor
//! tasks cross region boundaries, the global system decomposes *exactly*
//! into independent per-region simulations over a partitioned workload —
//! which is how [`MultiRegionRunner`] executes it: one global Poisson
//! task stream is generated, split by [`RegionGrid::locate`], and each
//! region replays its share through the standard [`ScenarioRunner`].
//!
//! This is also the paper's answer to overload (*"split the regions so
//! that each of the servers would contain sufficient workers and tasks
//! without being overloaded"*): doubling the grid density halves each
//! server's load, which the `region_split_relieves_overload` test and the
//! `traffic_monitoring` example demonstrate.

use crate::generator::TaskGenerator;
use crate::runner::{RunReport, ScenarioRunner};
use crate::scenario::Scenario;
use react_geo::{RegionGrid, RegionId};
use react_obs::{null_observer, CounterKind, ObserverHandle, SpanKind, SpanTimer};
use react_sim::RngStreams;

/// Configuration of a multi-region run: the *global* scenario (total
/// workers, total arrival rate over the whole area) plus the grid shape.
#[derive(Debug, Clone)]
pub struct MultiRegionScenario {
    /// Global parameters; `n_workers`, `arrival_rate` and `total_tasks`
    /// are area-wide totals, `region` is the whole covered area.
    pub global: Scenario,
    /// Latitude bands of the decomposition.
    pub rows: u32,
    /// Longitude bands of the decomposition.
    pub cols: u32,
}

/// Aggregated outcome of a multi-region run.
#[derive(Debug, Clone)]
pub struct MultiRegionReport {
    /// Per-region reports, in region-id order.
    pub per_region: Vec<(RegionId, RunReport)>,
}

impl MultiRegionReport {
    /// Area-wide received tasks.
    pub fn received(&self) -> u64 {
        self.per_region.iter().map(|(_, r)| r.received).sum()
    }

    /// Area-wide deadline-met count.
    pub fn met_deadline(&self) -> u64 {
        self.per_region.iter().map(|(_, r)| r.met_deadline).sum()
    }

    /// Area-wide positive feedbacks.
    pub fn positive_feedback(&self) -> u64 {
        self.per_region
            .iter()
            .map(|(_, r)| r.positive_feedback)
            .sum()
    }

    /// Area-wide deadline ratio.
    pub fn deadline_ratio(&self) -> f64 {
        let received = self.received();
        if received == 0 {
            0.0
        } else {
            self.met_deadline() as f64 / received as f64
        }
    }

    /// Whether two multi-region reports are bit-identical across every
    /// per-region metric, including the full per-task time series.
    pub fn identical(&self, other: &MultiRegionReport) -> bool {
        self.per_region.len() == other.per_region.len()
            && self
                .per_region
                .iter()
                .zip(other.per_region.iter())
                .all(|((id_a, a), (id_b, b))| {
                    id_a == id_b
                        && a.received == b.received
                        && a.completed == b.completed
                        && a.met_deadline == b.met_deadline
                        && a.positive_feedback == b.positive_feedback
                        && a.expired_unassigned == b.expired_unassigned
                        && a.reassignments == b.reassignments
                        && a.churn_events == b.churn_events
                        && a.batches == b.batches
                        && a.total_matching_seconds.to_bits() == b.total_matching_seconds.to_bits()
                        && a.sim_duration.to_bits() == b.sim_duration.to_bits()
                        && a.exec_times == b.exec_times
                        && a.total_times == b.total_times
                        && a.faults == b.faults
                })
    }

    /// The heaviest per-region modelled matching load (seconds) — the
    /// overload signal that motivates splitting.
    pub fn max_matching_seconds(&self) -> f64 {
        self.per_region
            .iter()
            .map(|(_, r)| r.total_matching_seconds)
            .fold(0.0, f64::max)
    }
}

/// Executes a [`MultiRegionScenario`].
pub struct MultiRegionRunner {
    scenario: MultiRegionScenario,
    observer: ObserverHandle,
}

impl MultiRegionRunner {
    /// Creates a runner.
    pub fn new(scenario: MultiRegionScenario) -> Self {
        MultiRegionRunner {
            scenario,
            observer: null_observer(),
        }
    }

    /// Attaches an observability sink shared by every region server.
    /// Each region's execution is wrapped in a `region.run` span and
    /// bumps the `regions.run` counter; the per-region [`ReactServer`]s
    /// report their stage spans and matcher counters to the same sink.
    /// Observers are write-only — reports stay bit-identical whatever
    /// sink is attached.
    pub fn with_observer(mut self, observer: ObserverHandle) -> Self {
        self.observer = observer;
        self
    }

    /// Runs one region scenario, wrapped in its observability span.
    fn run_region(&self, sc: Scenario) -> RunReport {
        let enabled = self.observer.enabled();
        let timer = enabled.then(SpanTimer::start);
        let report = ScenarioRunner::new(sc)
            .with_observer(self.observer.clone())
            .run();
        if let Some(timer) = timer {
            timer.finish(self.observer.as_ref(), SpanKind::RegionRun);
            self.observer.incr(CounterKind::RegionsRun, 1);
        }
        report
    }

    /// Generates the global stream, partitions it by region, and runs
    /// each region server independently, one after another. Regions
    /// share no state, so callers that want host parallelism run whole
    /// scenarios side by side (as `react-experiments`' executor does).
    pub fn run(&self) -> MultiRegionReport {
        let per_region = partition_scenarios(
            &self.scenario.global,
            self.scenario.rows,
            self.scenario.cols,
        )
        .into_iter()
        .map(|(region_id, sc)| (region_id, self.run_region(sc)))
        .collect();
        MultiRegionReport { per_region }
    }
}

/// Deterministic partition of one global scenario into independent
/// per-region scenarios: the global Poisson stream, its partition by
/// region, the worker split, and one seeded scenario per region (in
/// region-id order).
///
/// This is the single source of truth for the decomposition.
fn partition_scenarios(global: &Scenario, rows: u32, cols: u32) -> Vec<(RegionId, Scenario)> {
    let grid = RegionGrid::new(global.region, rows, cols).expect("non-zero grid dimensions");
    let streams = RngStreams::new(global.seed ^ 0x9e0);
    let mut workload_rng = streams.stream("global-workload");
    let mut generator = TaskGenerator::new(global.arrival_rate, global.region)
        .with_deadline_range(global.deadline_range.0, global.deadline_range.1)
        .with_categories(global.n_categories);

    // Partition the global stream by region.
    let mut per_region_tasks: Vec<Vec<(f64, react_core::Task)>> = vec![Vec::new(); grid.len()];
    for (at, task) in generator.take_n(global.total_tasks, &mut workload_rng) {
        let region = grid
            .locate(&task.location)
            .expect("generator places tasks inside the area");
        per_region_tasks[region.0 as usize].push((at, task));
    }

    // Workers are spread evenly (remainder to the lowest ids).
    let base = global.n_workers / grid.len();
    let remainder = global.n_workers % grid.len();

    grid.region_ids()
        .map(|region_id| {
            let idx = region_id.0 as usize;
            let n_workers = base + usize::from(idx < remainder);
            let mut sc = global.clone();
            sc.label = format!("{}-{}", global.label, region_id);
            sc.n_workers = n_workers;
            sc.region = grid.cell(region_id).expect("id from region_ids");
            sc.seed = global.seed.wrapping_add(region_id.0 as u64 + 1);
            sc.workload = Some(std::mem::take(&mut per_region_tasks[idx]));
            (region_id, sc)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use react_core::MatcherPolicy;

    fn global(seed: u64) -> Scenario {
        let mut sc = Scenario::smoke(MatcherPolicy::React { cycles: 200 }, seed);
        sc.n_workers = 60;
        sc.arrival_rate = 4.0;
        sc.total_tasks = 240;
        sc
    }

    #[test]
    fn partitions_cover_the_whole_workload() {
        let runner = MultiRegionRunner::new(MultiRegionScenario {
            global: global(1),
            rows: 2,
            cols: 2,
        });
        let report = runner.run();
        assert_eq!(report.per_region.len(), 4);
        assert_eq!(report.received(), 240, "every task lands in one region");
        let completed: u64 = report
            .per_region
            .iter()
            .map(|(_, r)| r.completed + r.expired_unassigned)
            .sum();
        assert_eq!(completed, 240);
        assert!(report.met_deadline() > 0);
        assert!(report.positive_feedback() <= report.met_deadline());
        assert!((0.0..=1.0).contains(&report.deadline_ratio()));
    }

    #[test]
    fn workers_are_spread_with_remainder() {
        let mut g = global(2);
        g.n_workers = 10; // 10 over 4 regions → 3,3,2,2
        let report = MultiRegionRunner::new(MultiRegionScenario {
            global: g,
            rows: 2,
            cols: 2,
        })
        .run();
        assert_eq!(report.per_region.len(), 4);
    }

    #[test]
    fn region_split_relieves_overload() {
        // The same global load over a 1×1 grid vs a 2×2 grid: the finer
        // decomposition must carry a smaller per-server matching load.
        let coarse = MultiRegionRunner::new(MultiRegionScenario {
            global: global(3),
            rows: 1,
            cols: 1,
        })
        .run();
        let fine = MultiRegionRunner::new(MultiRegionScenario {
            global: global(3),
            rows: 2,
            cols: 2,
        })
        .run();
        assert!(
            fine.max_matching_seconds() <= coarse.max_matching_seconds() + 1e-9,
            "splitting must not increase the per-server matching load: \
             coarse {:.2}s vs fine {:.2}s",
            coarse.max_matching_seconds(),
            fine.max_matching_seconds()
        );
    }

    #[test]
    fn observer_counts_regions_and_leaves_results_identical() {
        use react_obs::RecordingObserver;
        use std::sync::Arc;
        let scenario = MultiRegionScenario {
            global: global(5),
            rows: 2,
            cols: 2,
        };
        let baseline = MultiRegionRunner::new(MultiRegionScenario {
            global: global(5),
            rows: 2,
            cols: 2,
        })
        .run();
        let recording = RecordingObserver::new();
        let observed = MultiRegionRunner::new(scenario)
            .with_observer(Arc::new(recording.clone()))
            .run();
        assert!(
            baseline.identical(&observed),
            "attaching a recording observer must not perturb any result"
        );
        assert_eq!(recording.counter(CounterKind::RegionsRun), 4);
        let span = recording
            .span_stats(SpanKind::RegionRun)
            .expect("every region emits a region.run span");
        assert_eq!(span.count, 4);
        assert!(span.total_seconds > 0.0);
        assert!(
            recording.counter(CounterKind::MatcherCycles) > 0,
            "region servers must forward matcher counters to the shared sink"
        );
    }

    #[test]
    fn single_region_matches_plain_runner_shape() {
        // A 1×1 multi-region run is just a plain run with a preset
        // workload: totals must be identical in structure.
        let report = MultiRegionRunner::new(MultiRegionScenario {
            global: global(4),
            rows: 1,
            cols: 1,
        })
        .run();
        assert_eq!(report.per_region.len(), 1);
        let (_, r) = &report.per_region[0];
        assert_eq!(r.received, 240);
        assert_eq!(r.completed + r.expired_unassigned, 240);
    }
}
