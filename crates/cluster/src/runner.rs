//! The cluster-wide discrete-event harness.
//!
//! [`ClusterRunner`] drives a whole crowdsourcing scenario — arrivals,
//! worker faults and churn, completions — through a [`Cluster`], i.e.
//! through *interacting* shards: tasks hand off between shards when a
//! pool collapses, idle workers migrate toward backlogs, and admission
//! caps shed overload at the door. Under
//! [`ClusterPolicy::single_tier`] none of that happens and the run is the
//! paper's plain multi-region decomposition: regions that never interact.
//!
//! [`ClusterRunner::run`] is `react_crowd::Lap::run` with the cluster as
//! the middleware, on one thread: the same timeline as
//! `react_crowd::ScenarioRunner`'s — the workload's arrivals, a grid of
//! control ticks and the one `react_crowd::Crowd` all shards share, whose
//! `pop_due` yields the completions, the fault plan's dropouts, rejoins
//! and bursts and the churn cycles in time order. An arrival ticks the
//! shard that took it in, a burst ticks nothing, and a grid tick steps all
//! shards in shard order and then runs the cluster passes, so the same
//! scenario and seed give the same [`ClusterReport`] bit for bit.
//!
//! Scope of the coupled mode: `global.replication` is ignored (replica
//! voting stays on the single-server runner); worker faults, bursts,
//! abandons and message loss from `react_faults::FaultPlan` and
//! `global.churn` are fully supported.

use crate::cluster::Cluster;
use crate::policy::ClusterPolicy;
use react_core::{AuditLog, CompletionOutcome, Task, TaskId, TickOutcome, WorkerId};
use react_crowd::{generate_population, Arrivals, Crowd, Delivery, Lap, Ledger, Scenario};
use react_geo::{GeoPoint, RegionGrid, ServerId};
use react_obs::{null_observer, ObserverHandle};
use react_sim::RngStreams;

/// Configuration of a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterScenario {
    /// Global parameters: `n_workers`, `arrival_rate` and `total_tasks`
    /// are cluster-wide totals, `region` is the whole covered area.
    pub global: Scenario,
    /// Latitude bands of the initial shard grid.
    pub rows: u32,
    /// Longitude bands of the initial shard grid.
    pub cols: u32,
    /// Cluster policy (handoff / rebalance / admission / pre-split).
    pub policy: ClusterPolicy,
}

/// Per-shard accounting of one cluster run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardReport {
    /// The shard's server id (router leaf cell).
    pub server: ServerId,
    /// Tasks routed to and accepted by this shard (handoffs excluded).
    pub received: u64,
    /// Tasks this shard completed.
    pub completed: u64,
    /// Completions before the deadline.
    pub met_deadline: u64,
    /// Positive feedbacks earned.
    pub positive_feedback: u64,
    /// Tasks that expired unassigned on this shard (including queued
    /// leftovers at the horizon).
    pub expired_unassigned: u64,
    /// Tasks refused at this shard's admission cap.
    pub admission_shed: u64,
    /// Tasks this shard handed off to neighbours.
    pub handoffs_out: u64,
    /// Tasks this shard received via handoff.
    pub handoffs_in: u64,
    /// Eq. (2) recalls performed by this shard.
    pub reassignments: u64,
    /// Tasks still assigned when the run ended.
    pub stranded: u64,
    /// Matching batches run.
    pub batches: u64,
    /// Modelled scheduler compute time (seconds).
    pub total_matching_seconds: f64,
    /// Workers mapped to this shard at the end (after rebalancing).
    pub workers_final: usize,
    /// Final-worker execution time per completed task.
    pub exec_times: Vec<f64>,
    /// The shard's audit log, when `config.audit` was enabled.
    pub audit: Option<AuditLog>,
}

/// Aggregated outcome of a coupled cluster run. Two runs of one
/// scenario and seed compare equal, per-task time series and audit logs
/// included.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Scenario label.
    pub label: String,
    /// Per-shard reports, in shard order.
    pub shards: Vec<ShardReport>,
    /// Tasks that arrived cluster-wide (workload + bursts).
    pub received: u64,
    /// Tasks whose location fell outside every shard (0 for workloads
    /// generated inside the area).
    pub unroutable: u64,
    /// Workers relocated by the rebalance passes.
    pub workers_rebalanced: u64,
    /// Injected burst tasks.
    pub burst_tasks: u64,
    /// Worker dropouts injected by the fault plan.
    pub dropouts: u64,
    /// Assignments silently abandoned by the fault plan.
    pub abandons: u64,
    /// Completion messages lost in flight.
    pub completions_lost: u64,
    /// Duplicate completion deliveries the servers rejected.
    pub duplicates_rejected: u64,
    /// Simulated duration (seconds).
    pub sim_duration: f64,
}

impl ClusterReport {
    /// Cluster-wide completions.
    pub fn completed(&self) -> u64 {
        self.shards.iter().map(|s| s.completed).sum()
    }

    /// Cluster-wide deadline-met count.
    pub fn met_deadline(&self) -> u64 {
        self.shards.iter().map(|s| s.met_deadline).sum()
    }

    /// Cluster-wide positive feedbacks.
    pub fn positive_feedback(&self) -> u64 {
        self.shards.iter().map(|s| s.positive_feedback).sum()
    }

    /// Cluster-wide expiries (incl. queued leftovers at the horizon).
    pub fn expired_unassigned(&self) -> u64 {
        self.shards.iter().map(|s| s.expired_unassigned).sum()
    }

    /// Cluster-wide admission sheds.
    pub fn admission_shed(&self) -> u64 {
        self.shards.iter().map(|s| s.admission_shed).sum()
    }

    /// Cluster-wide stranded (still-assigned) tasks.
    pub fn stranded(&self) -> u64 {
        self.shards.iter().map(|s| s.stranded).sum()
    }

    /// Cluster-wide handoffs (out == in when conservation holds).
    pub fn handoffs(&self) -> u64 {
        self.shards.iter().map(|s| s.handoffs_out).sum()
    }

    /// The heaviest per-shard modelled matching load (seconds) — the
    /// overload signal that motivates splitting.
    pub fn max_matching_seconds(&self) -> f64 {
        self.shards
            .iter()
            .map(|s| s.total_matching_seconds)
            .fold(0.0, f64::max)
    }

    /// Fraction of received tasks that met their deadline.
    pub fn deadline_ratio(&self) -> f64 {
        if self.received == 0 {
            0.0
        } else {
            self.met_deadline() as f64 / self.received as f64
        }
    }

    /// The conservation identity: every task that arrived is accounted
    /// for exactly once — completed somewhere, expired somewhere, shed
    /// at an admission cap, stranded in a faulty worker's hands, or
    /// unroutable. Handoffs move tasks between shards without creating
    /// or destroying them, so they must also balance pairwise.
    pub fn conserved(&self) -> bool {
        let accounted = self.completed()
            + self.expired_unassigned()
            + self.admission_shed()
            + self.stranded()
            + self.unroutable;
        let handoffs_balanced = self.shards.iter().map(|s| s.handoffs_out).sum::<u64>()
            == self.shards.iter().map(|s| s.handoffs_in).sum::<u64>();
        accounted == self.received && handoffs_balanced
    }
}

/// Runs one [`ClusterScenario`] to completion.
pub struct ClusterRunner {
    scenario: ClusterScenario,
    observer: ObserverHandle,
}

impl ClusterRunner {
    /// Creates a runner.
    pub fn new(scenario: ClusterScenario) -> Self {
        ClusterRunner {
            scenario,
            observer: null_observer(),
        }
    }

    /// Attaches an observability sink shared by every shard server; the
    /// cluster additionally reports `shard.tick` spans and the
    /// `shard.*` counters. Observers are write-only: reports stay
    /// bit-identical whatever sink is attached.
    pub fn with_observer(mut self, observer: ObserverHandle) -> Self {
        self.observer = observer;
        self
    }

    // Alias of `run`, kept only because `benchmark/src/sim.rs`, which this
    // repo's PRs may not edit, calls it; delete it once that caller is gone
    // (ROADMAP benchmark upkeep (b)).
    #[doc(hidden)]
    pub fn run_serial(&self) -> ClusterReport {
        self.run()
    }

    /// The coupled cluster run.
    pub fn run(&self) -> ClusterReport {
        let sc = &self.scenario.global;
        let grid = RegionGrid::new(sc.region, self.scenario.rows, self.scenario.cols)
            .expect("non-zero grid dimensions");
        let streams = RngStreams::new(sc.seed ^ 0xc1);
        let mut pop_rng = streams.stream("population");

        // Crowd: behaviours first, then locations, both from the
        // population stream (mirroring the single-server runner's draw
        // order). The locations double as the pre-split projection.
        let behaviors = generate_population(sc.n_workers, &sc.behavior, &mut pop_rng);
        let locations: Vec<GeoPoint> = (0..sc.n_workers)
            .map(|_| sc.region.random_point(&mut pop_rng))
            .collect();

        let mut cluster = Cluster::new(
            &grid,
            sc.config.clone(),
            sc.seed,
            self.scenario.policy,
            self.observer.clone(),
            streams.stream("cluster.rebalance"),
            &locations,
        )
        .expect("scenario carries a valid middleware config");
        for (w, location) in locations.iter().enumerate() {
            cluster.register_worker(WorkerId(w as u64), *location);
        }
        let crowd = Crowd::new(behaviors, sc.faults.as_ref(), &streams);
        let mut lap = Lap::new(cluster, crowd, sc.region)
            .with_bursts(sc.deadline_range, sc.n_categories)
            .with_churn(sc.churn);

        let server_ids = lap.server.server_ids();
        let shard = |server| ShardReport {
            server,
            ..ShardReport::default()
        };
        let mut books = Books {
            shards: server_ids.iter().copied().map(shard).collect(),
            ..Books::default()
        };
        let arrivals = Arrivals::of(sc, &streams);
        let sim_duration = lap.run(arrivals, sc.tick_interval, sc.drain_horizon, &mut books);

        // Horizon accounting + per-shard server stats.
        let (cluster, crowd, mut shards) = (&lap.server, &lap.crowd, books.shards);
        for (i, &server_id) in server_ids.iter().enumerate() {
            let server = cluster.server(server_id).expect("shard exists");
            shards[i].expired_unassigned += server.tasks().unassigned_count() as u64;
            shards[i].stranded = server.tasks().assigned_count() as u64;
            shards[i].batches = server.batches_run();
            shards[i].total_matching_seconds = server.total_matching_seconds();
            shards[i].audit = server.audit().cloned();
            shards[i].admission_shed = cluster.admission_shed()[i];
            shards[i].handoffs_out = cluster.handoffs_out()[i];
            shards[i].handoffs_in = cluster.handoffs_in()[i];
        }
        for (i, n) in cluster.workers_per_shard().into_iter().enumerate() {
            shards[i].workers_final = n;
        }
        ClusterReport {
            label: sc.label.clone(),
            shards,
            received: books.received,
            unroutable: cluster.unroutable(),
            workers_rebalanced: cluster.workers_rebalanced(),
            burst_tasks: books.burst_tasks,
            dropouts: crowd.dropouts(),
            abandons: crowd.abandoned(),
            completions_lost: crowd.lost(),
            duplicates_rejected: books.duplicates_rejected,
            sim_duration,
        }
    }
}

/// What the runner keeps of each step its [`Lap`] takes, per shard index.
#[derive(Default)]
struct Books {
    shards: Vec<ShardReport>,
    received: u64,
    burst_tasks: u64,
    duplicates_rejected: u64,
}

impl Ledger<usize> for Books {
    fn ticked(&mut self, shard: usize, _now: f64, outcome: &TickOutcome) {
        let report = &mut self.shards[shard];
        report.expired_unassigned += outcome.expired.len() as u64;
        report.reassignments += outcome.recalls.len() as u64;
    }

    fn arrived(&mut self, shard: Option<usize>, _task: TaskId, _at: f64) {
        self.received += 1;
        if let Some(i) = shard {
            self.shards[i].received += 1;
        }
    }

    fn completed(&mut self, shard: usize, _done: &Delivery, outcome: &CompletionOutcome) {
        let report = &mut self.shards[shard];
        report.completed += 1;
        if outcome.met_deadline {
            report.met_deadline += 1;
        }
        if outcome.positive_feedback {
            report.positive_feedback += 1;
        }
        report.exec_times.push(outcome.exec_time);
    }

    fn duplicated(&mut self, rejected: bool) {
        self.duplicates_rejected += u64::from(rejected);
    }

    fn offline(&mut self, _worker: WorkerId, _recalled: &[TaskId]) {}

    fn burst(&mut self, _task: &Task) {
        self.burst_tasks += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AdmissionPolicy, HandoffPolicy, RebalancePolicy};
    use react_core::MatcherPolicy;

    fn scenario(seed: u64, rows: u32, cols: u32, policy: ClusterPolicy) -> ClusterScenario {
        let mut global = Scenario::smoke(MatcherPolicy::React { cycles: 200 }, seed);
        global.n_workers = 60;
        global.arrival_rate = 4.0;
        global.total_tasks = 240;
        ClusterScenario {
            global,
            rows,
            cols,
            policy,
        }
    }

    #[test]
    fn coupled_run_conserves_every_task() {
        let r = ClusterRunner::new(scenario(1, 2, 2, ClusterPolicy::coupled())).run();
        assert_eq!(r.received, 240);
        assert_eq!(r.unroutable, 0, "generator stays inside the area");
        assert!(r.conserved(), "conservation identity must hold: {r:?}");
        assert!(r.completed() > 0);
        assert!(r.met_deadline() <= r.completed());
        assert_eq!(r.shards.len(), 4);
        let per_shard_received: u64 = r.shards.iter().map(|s| s.received).sum();
        assert_eq!(per_shard_received + r.admission_shed() + r.unroutable, 240);
    }

    #[test]
    fn handoffs_rescue_tasks_from_a_depleted_shard() {
        // Drop half the crowd early via the fault plan; handoff keeps
        // queues moving toward whichever shards still have workers.
        let mut sc = scenario(5, 2, 2, ClusterPolicy::coupled());
        sc.policy.handoff = Some(HandoffPolicy {
            pool_floor: 8,
            max_per_tick: 16,
        });
        sc.policy.rebalance = None;
        sc.global.faults = Some(react_faults::FaultPlan {
            dropout: Some(react_faults::DropoutPlan {
                probability: 0.6,
                window: (1.0, 20.0),
                offline_range: None,
            }),
            ..react_faults::FaultPlan::none()
        });
        let r = ClusterRunner::new(sc).run();
        assert!(r.conserved(), "conservation under handoff: {r:?}");
        assert!(r.dropouts > 0, "the plan's dropouts are counted: {r:?}");
        assert!(
            r.handoffs() > 0,
            "pool collapse must trigger handoffs: {r:?}"
        );
    }

    #[test]
    fn rebalancing_moves_workers_and_stays_conserved() {
        let mut sc = scenario(6, 2, 2, ClusterPolicy::coupled());
        sc.policy.rebalance = Some(RebalancePolicy {
            period_ticks: 2,
            min_idle: 1,
            max_moves: 4,
        });
        let r = ClusterRunner::new(sc.clone()).run();
        assert!(r.conserved());
        let total_workers: usize = r.shards.iter().map(|s| s.workers_final).sum();
        assert_eq!(total_workers, sc.global.n_workers, "workers conserved");
    }

    #[test]
    fn admission_cap_sheds_and_still_conserves() {
        let mut sc = scenario(7, 1, 1, ClusterPolicy::coupled());
        sc.policy.admission = Some(AdmissionPolicy { max_open_tasks: 5 });
        sc.policy.handoff = None;
        sc.global.arrival_rate = 40.0; // slam the single shard
        let r = ClusterRunner::new(sc).run();
        assert!(r.admission_shed() > 0, "overload must shed: {r:?}");
        assert!(r.conserved());
    }

    #[test]
    fn audit_logs_verify_across_handoffs() {
        let mut sc = scenario(8, 2, 2, ClusterPolicy::coupled());
        sc.global.config.audit = true;
        sc.policy.handoff = Some(HandoffPolicy {
            pool_floor: 8,
            max_per_tick: 16,
        });
        sc.global.faults = Some(react_faults::FaultPlan {
            dropout: Some(react_faults::DropoutPlan {
                probability: 0.4,
                window: (1.0, 20.0),
                offline_range: None,
            }),
            ..react_faults::FaultPlan::none()
        });
        let r = ClusterRunner::new(sc).run();
        assert!(r.conserved());
        let mut verified = 0;
        for shard in &r.shards {
            let log = shard.audit.as_ref().expect("audit enabled");
            verified += react_core::verify_lifecycles(log);
        }
        assert!(verified > 0, "audit logs must cover the workload");
    }

    #[test]
    fn coupled_run_is_deterministic() {
        let runner = ClusterRunner::new(scenario(9, 2, 2, ClusterPolicy::coupled()));
        let a = runner.run();
        assert_eq!(a, runner.run(), "a runner replays itself");
        let b = ClusterRunner::new(scenario(9, 2, 2, ClusterPolicy::coupled())).run();
        assert_eq!(a, b, "same seed, fresh runner");
        let other = ClusterRunner::new(scenario(3, 2, 2, ClusterPolicy::coupled())).run();
        assert_ne!(a, other, "different seeds should differ");
    }
}
