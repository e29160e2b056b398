//! Named experiment scenarios.
//!
//! A [`Scenario`] bundles every knob of an end-to-end run: crowd size and
//! behaviour, arrival rate and workload length, the middleware
//! configuration, and the RNG seed. The constructors mirror the paper's
//! evaluation setups so each figure's harness is one call.

use crate::behavior::BehaviorParams;
use react_core::{Config, MatcherPolicy};
use react_geo::BoundingBox;

/// Full parameter set of one simulation run.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Human-readable label for reports.
    pub label: String,
    /// Number of workers registered at t = 0 (one region server).
    pub n_workers: usize,
    /// Poisson arrival rate (tasks/second).
    pub arrival_rate: f64,
    /// Total tasks submitted before the arrival stream stops.
    pub total_tasks: usize,
    /// Crowd behaviour parameters.
    pub behavior: BehaviorParams,
    /// Middleware configuration (matcher, thresholds, trigger…).
    pub config: Config,
    /// Geographic region covered by the server.
    pub region: BoundingBox,
    /// Task deadline range (seconds).
    pub deadline_range: (f64, f64),
    /// Number of task categories.
    pub n_categories: u32,
    /// Replication factor `k`: every logical task is submitted as `k`
    /// replicas to distinct workers and judged by majority vote — the
    /// CDAS/Karger-style redundancy scheme the paper's related work
    /// contrasts against (1 = no replication, the paper's setting).
    pub replication: usize,
    /// Interval between middleware control ticks (seconds).
    pub tick_interval: f64,
    /// Hard simulation horizon after the last arrival (seconds) — lets
    /// in-flight work drain without running forever.
    pub drain_horizon: f64,
    /// Master RNG seed.
    pub seed: u64,
    /// Preset workload: when set, the runner replays exactly these
    /// `(arrival_time, task)` pairs instead of generating a Poisson
    /// stream (how a recorded trace is fed to `ScenarioRunner` and
    /// `react-cluster`'s runner). Any order: a trace out of time order
    /// is sorted stably first ([`crate::Arrivals::preset`]).
    pub workload: Option<Vec<(f64, react_core::Task)>>,
    /// Fault-injection plan (`None` = a fault-free run). The plan is
    /// materialised from the scenario's own named RNG streams, so chaos
    /// runs stay bit-reproducible from `seed` alone.
    pub faults: Option<react_faults::FaultPlan>,
}

impl Scenario {
    /// The region used by all paper scenarios (metropolitan Athens — the
    /// authors' locale; the choice has no effect beyond coordinates).
    pub fn default_region() -> BoundingBox {
        BoundingBox::new(37.8, 38.2, 23.5, 24.0).expect("static bounds are valid")
    }

    /// Sec. V-C's end-to-end setup (Figs. 5–8): 750 workers, 9.375
    /// tasks/s, ≈ 8371 tasks, REACT @1000 cycles, batches at > 10
    /// unassigned tasks.
    pub fn paper_fig5(matcher: MatcherPolicy, seed: u64) -> Self {
        Scenario {
            label: format!("fig5-{}", matcher.name()),
            n_workers: 750,
            arrival_rate: 9.375,
            total_tasks: 8371,
            behavior: BehaviorParams::default(),
            config: Config::with_matcher(matcher),
            region: Self::default_region(),
            deadline_range: (60.0, 120.0),
            n_categories: 1,
            replication: 1,
            tick_interval: 1.0,
            drain_horizon: 300.0,
            seed,
            workload: None,
            faults: None,
        }
    }

    /// One point of the Fig. 9/10 scalability sweep: `n` workers at the
    /// matched arrival rate (the paper pairs 100→1.5, 250→3.125,
    /// 500→6.25, 750→9.375, 1000→12.5 tasks/s).
    pub fn paper_fig9(n_workers: usize, rate: f64, matcher: MatcherPolicy, seed: u64) -> Self {
        Scenario {
            label: format!("fig9-{}-w{}", matcher.name(), n_workers),
            n_workers,
            arrival_rate: rate,
            total_tasks: (rate * 600.0).round() as usize, // 10 simulated minutes
            ..Self::paper_fig5(matcher, seed)
        }
    }

    /// The `(workers, rate)` pairs of the paper's scalability sweep.
    pub fn fig9_sweep_points() -> [(usize, f64); 5] {
        [
            (100, 1.5),
            (250, 3.125),
            (500, 6.25),
            (750, 9.375),
            (1000, 12.5),
        ]
    }

    /// A small, fast scenario for tests and the quickstart example.
    pub fn smoke(matcher: MatcherPolicy, seed: u64) -> Self {
        Scenario {
            label: format!("smoke-{}", matcher.name()),
            n_workers: 30,
            arrival_rate: 2.0,
            total_tasks: 120,
            behavior: BehaviorParams::default(),
            config: Config::with_matcher(matcher),
            region: Self::default_region(),
            deadline_range: (60.0, 120.0),
            n_categories: 2,
            replication: 1,
            tick_interval: 1.0,
            drain_horizon: 200.0,
            seed,
            workload: None,
            faults: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_matches_paper_parameters() {
        let s = Scenario::paper_fig5(MatcherPolicy::React { cycles: 1000 }, 1);
        assert_eq!(s.n_workers, 750);
        assert_eq!(s.arrival_rate, 9.375);
        assert_eq!(s.total_tasks, 8371);
        assert_eq!(s.deadline_range, (60.0, 120.0));
        assert_eq!(s.config.batch.min_unassigned, 10);
        assert_eq!(s.label, "fig5-react");
    }

    #[test]
    fn fig9_sweep_pairs_match_paper() {
        let pts = Scenario::fig9_sweep_points();
        assert_eq!(pts[0], (100, 1.5));
        assert_eq!(pts[4], (1000, 12.5));
        let s = Scenario::paper_fig9(500, 6.25, MatcherPolicy::Greedy, 2);
        assert_eq!(s.n_workers, 500);
        assert_eq!(s.total_tasks, 3750);
        assert_eq!(s.label, "fig9-greedy-w500");
    }

    #[test]
    fn smoke_is_small() {
        let s = Scenario::smoke(MatcherPolicy::Traditional, 0);
        assert!(s.total_tasks <= 200);
        assert!(s.n_workers <= 50);
    }
}
