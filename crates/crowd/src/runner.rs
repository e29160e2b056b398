//! The end-to-end discrete-event experiment runner.
//!
//! Runs a [`ReactServer`](react_core::ReactServer) and a synthetic
//! crowd through one [`Lap`], producing the exact data series the paper
//! plots:
//!
//! * Fig. 5 — cumulative tasks finished before their deadline vs tasks
//!   received ([`RunReport::series_met`]);
//! * Fig. 6 — cumulative positive feedbacks ([`RunReport::series_positive`]);
//! * Fig. 7 — final-worker execution times ([`RunReport::exec_times`]);
//! * Fig. 8 — total times including assignment/queueing
//!   ([`RunReport::total_times`]);
//! * Figs. 9/10 — the ratios, via the same report across a sweep.
//!
//! Event model: the run is [`Lap::run`](crate::Lap::run) over one
//! timeline — the scenario's [`Arrivals`] (preset or Poisson, replicas
//! expanded), middleware control ticks on a fixed grid (expiry sweep,
//! Eq. 2 recalls, batch matching) and the [`Crowd`](crate::Crowd)'s
//! completions, fault-plan events and churn, popped in time order by
//! [`Crowd::pop_due`](crate::Crowd::pop_due). At one instant the crowd's
//! events go first, then the tick, then the arrival. `react-cluster`'s
//! runner and the live scheduler thread run the same loop, and every run
//! ends as [`Lap::run`](crate::Lap::run) ends it.

use crate::arrivals::Arrivals;
use crate::crowd::Delivery;
use crate::lap::{Lap, Ledger};
use crate::scenario::Scenario;
use react_core::{AuditLog, CompletionOutcome, IdMap, Task, TaskId, TickOutcome, WorkerId};
use react_faults::BURST_ID_BASE;
use react_metrics::TimeSeries;
use react_obs::{null_observer, CounterKind, ObserverHandle};
use react_sim::RngStreams;

/// Injected-fault and recovery accounting of one run. All zeros on a
/// fault-free run, so reports stay comparable across scenarios.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Worker dropouts injected by the fault plan. Each is also one of
    /// the departures [`RunReport::churn_events`] counts.
    pub dropouts: u64,
    /// Assignments silently abandoned (worker never reports back).
    pub abandons: u64,
    /// Completion messages dropped in flight.
    pub completions_lost: u64,
    /// Completion messages delivered twice.
    pub completions_duplicated: u64,
    /// Duplicate deliveries the server correctly rejected. Equal to
    /// [`FaultStats::completions_duplicated`] when idempotence holds.
    pub duplicates_rejected: u64,
    /// Extra tasks injected by burst arrivals.
    pub burst_tasks: u64,
    /// Timeout-ladder recalls performed by the recovery layer.
    pub timeout_recalls: u64,
    /// Tasks still assigned when the run ended — in-flight work stranded
    /// by faults that no recovery path reclaimed.
    pub stranded: u64,
}

/// Aggregated results of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Scenario label.
    pub label: String,
    /// The matcher that ran ("react", "greedy", "traditional", …).
    pub matcher_name: &'static str,
    /// Tasks that arrived.
    pub received: u64,
    /// Tasks that completed (before or after their deadline).
    pub completed: u64,
    /// Tasks completed before their deadline (Fig. 5's y-axis).
    pub met_deadline: u64,
    /// Positive feedbacks earned (Fig. 6's y-axis).
    pub positive_feedback: u64,
    /// Tasks that expired while unassigned.
    pub expired_unassigned: u64,
    /// Eq. (2) recalls performed.
    pub reassignments: u64,
    /// Worker departures: churn cycles and fault-plan dropouts alike.
    pub churn_events: u64,
    /// Matching batches run.
    pub batches: u64,
    /// Total modelled scheduler compute time (seconds).
    pub total_matching_seconds: f64,
    /// Cumulative (tasks received → deadlines met) curve.
    pub series_met: TimeSeries,
    /// Cumulative (tasks received → positive feedbacks) curve.
    pub series_positive: TimeSeries,
    /// `ExecTime` of the final worker per completed task (Fig. 7).
    pub exec_times: Vec<f64>,
    /// Submission→completion time per completed task (Fig. 8).
    pub total_times: Vec<f64>,
    /// Simulated duration (seconds).
    pub sim_duration: f64,
    /// The task lifecycle audit log, when `config.audit` was enabled.
    pub audit: Option<AuditLog>,
    /// Replication factor of the run (1 = the paper's setting).
    pub replication: usize,
    /// Logical task groups (= received / replication).
    pub groups: u64,
    /// Groups where a strict majority of replicas earned positive
    /// feedback (the voting scheme's success condition; needs
    /// per-replica success above ½ to help).
    pub groups_majority_positive: u64,
    /// Groups where at least one replica earned positive feedback (the
    /// best-answer redundancy condition).
    pub groups_any_positive: u64,
    /// Groups where at least one replica met the deadline.
    pub groups_any_met: u64,
    /// Injected-fault and recovery accounting (all zeros without a
    /// [`Scenario::faults`] plan).
    pub faults: FaultStats,
}

impl RunReport {
    /// Payments made: one per completed replica (AMT pays on
    /// completion) — the cost metric replication multiplies.
    pub fn payments(&self) -> u64 {
        self.completed
    }

    /// Fraction of received tasks that met their deadline.
    pub fn deadline_ratio(&self) -> f64 {
        if self.received == 0 {
            0.0
        } else {
            self.met_deadline as f64 / self.received as f64
        }
    }

    /// Fraction of received tasks that earned positive feedback.
    pub fn positive_ratio(&self) -> f64 {
        if self.received == 0 {
            0.0
        } else {
            self.positive_feedback as f64 / self.received as f64
        }
    }

    /// Mean final-worker execution time (Fig. 7's bar).
    pub fn avg_exec_time(&self) -> f64 {
        mean(&self.exec_times)
    }

    /// Mean total time including assignment (Fig. 8's bar).
    pub fn avg_total_time(&self) -> f64 {
        mean(&self.total_times)
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// One replica group's completions so far.
#[derive(Debug, Clone, Copy, Default)]
struct GroupTally {
    positives: usize,
    any_met: bool,
}

impl GroupTally {
    /// Books one replica's completion and counts in `report` each group
    /// condition this completion is the first to meet, so every group is
    /// counted once per condition with no pass over the groups.
    fn complete(&mut self, positive: bool, met: bool, k: usize, report: &mut RunReport) {
        if positive {
            self.positives += 1;
            if self.positives == 1 {
                report.groups_any_positive += 1;
            }
            // The positive that makes a strict majority of `k`.
            if self.positives == k / 2 + 1 {
                report.groups_majority_positive += 1;
            }
        }
        if met && !self.any_met {
            self.any_met = true;
            report.groups_any_met += 1;
        }
    }
}

/// Runs one [`Scenario`] to completion.
pub struct ScenarioRunner {
    scenario: Scenario,
    observer: ObserverHandle,
}

impl ScenarioRunner {
    /// Creates a runner for the scenario.
    pub fn new(scenario: Scenario) -> Self {
        ScenarioRunner {
            scenario,
            observer: null_observer(),
        }
    }

    /// Attaches an observability sink; the embedded
    /// [`ReactServer`](react_core::ReactServer) reports per-stage spans,
    /// matcher counters and latency histograms to it. Observers are
    /// write-only: the run's schedule is bit-identical whatever sink is
    /// attached.
    pub fn with_observer(mut self, observer: ObserverHandle) -> Self {
        self.observer = observer;
        self
    }

    /// Executes the simulation and returns the report.
    pub fn run(&self) -> RunReport {
        let sc = &self.scenario;
        let mut lap = Lap::seeded(
            sc.seed,
            sc.config.clone(),
            sc.n_workers,
            &sc.behavior,
            sc.region,
            sc.faults.as_ref(),
            self.observer.clone(),
        )
        .with_bursts(sc.deadline_range, sc.n_categories)
        .with_churn(sc.churn);
        // Replica bookkeeping. At replication 1 a group is its one task,
        // which completes once, so its tally starts empty and needs no map.
        let k = sc.replication.max(1);
        let mut books = Books {
            report: RunReport {
                label: sc.label.clone(),
                matcher_name: sc.config.matcher.name(),
                series_met: TimeSeries::new("met_deadline"),
                series_positive: TimeSeries::new("positive_feedback"),
                replication: k,
                ..RunReport::default()
            },
            groups: IdMap::default(),
            k,
        };
        let arrivals = Arrivals::of(sc, &RngStreams::new(sc.seed)).replicated(k);
        books.report.sim_duration =
            lap.run(arrivals, sc.tick_interval, sc.drain_horizon, &mut books);

        let Books { mut report, .. } = books;
        let (server, crowd) = (&lap.server, &lap.crowd);
        report.batches = server.batches_run();
        report.total_matching_seconds = server.total_matching_seconds();
        report.audit = server.audit().cloned();
        report.groups = (report.received - report.faults.burst_tasks).div_ceil(k as u64);
        // Anything still open at the horizon is a miss that never even
        // completed; count queued leftovers as expired-unassigned.
        report.expired_unassigned += server.tasks().unassigned_count() as u64;
        report.faults.stranded = server.tasks().assigned_count() as u64;
        report.faults.dropouts = crowd.dropouts();
        report.faults.abandons = crowd.abandoned();
        report.faults.completions_lost = crowd.lost();
        if self.observer.enabled() {
            for (kind, by) in [
                (CounterKind::FaultDropouts, report.faults.dropouts),
                (CounterKind::FaultAbandons, report.faults.abandons),
                (
                    CounterKind::FaultCompletionsLost,
                    report.faults.completions_lost,
                ),
                (
                    CounterKind::FaultCompletionsDuplicated,
                    report.faults.completions_duplicated,
                ),
                (CounterKind::FaultBurstTasks, report.faults.burst_tasks),
            ] {
                if by > 0 {
                    self.observer.incr(kind, by);
                }
            }
        }
        report
    }
}

/// A run's report and replica groups: what the runner keeps of each
/// step its [`Lap`] takes.
struct Books {
    report: RunReport,
    groups: IdMap<u64, GroupTally>,
    /// Replication factor.
    k: usize,
}

impl Ledger for Books {
    fn ticked(&mut self, _: (), _now: f64, outcome: &TickOutcome) {
        let report = &mut self.report;
        report.expired_unassigned += outcome.expired.len() as u64;
        report.faults.timeout_recalls += outcome.timeout_recalls;
        report.reassignments += outcome.recalls.len() as u64;
    }

    fn arrived(&mut self, _: Option<()>, _task: TaskId, _at: f64) {
        self.report.received += 1;
    }

    fn completed(&mut self, _: (), done: &Delivery, outcome: &CompletionOutcome) {
        let report = &mut self.report;
        report.completed += 1;
        if outcome.met_deadline {
            report.met_deadline += 1;
        }
        if outcome.positive_feedback {
            report.positive_feedback += 1;
        }
        report
            .series_met
            .push(report.received as f64, report.met_deadline as f64);
        report
            .series_positive
            .push(report.received as f64, report.positive_feedback as f64);
        report.exec_times.push(outcome.exec_time);
        report.total_times.push(done.at - outcome.submitted_at);
        // Burst tasks are not part of any replica group.
        if done.task.0 < BURST_ID_BASE {
            let k = self.k;
            let mut single = GroupTally::default();
            let tally = if k == 1 {
                &mut single
            } else {
                self.groups.entry(done.task.0 / k as u64).or_default()
            };
            let (positive, met) = (outcome.positive_feedback, outcome.met_deadline);
            tally.complete(positive, met, k, report);
        }
    }

    fn duplicated(&mut self, rejected: bool) {
        self.report.faults.completions_duplicated += 1;
        if rejected {
            self.report.faults.duplicates_rejected += 1;
        }
    }

    fn offline(&mut self, _worker: WorkerId, _recalled: &[TaskId]) {
        self.report.churn_events += 1;
    }

    fn burst(&mut self, _task: &Task) {
        self.report.faults.burst_tasks += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use react_core::MatcherPolicy;

    fn run(matcher: MatcherPolicy, seed: u64) -> RunReport {
        ScenarioRunner::new(Scenario::smoke(matcher, seed)).run()
    }

    #[test]
    fn smoke_run_accounts_for_every_task() {
        let r = run(MatcherPolicy::React { cycles: 200 }, 1);
        assert_eq!(r.received, 120);
        assert!(r.completed + r.expired_unassigned <= 120 + r.reassignments);
        assert!(r.completed > 0, "some tasks must complete");
        assert!(r.met_deadline <= r.completed);
        assert!(r.positive_feedback <= r.met_deadline);
        assert_eq!(r.matcher_name, "react");
        assert!(r.sim_duration > 0.0);
        assert!(r.batches > 0);
    }

    #[test]
    fn series_are_cumulative_and_bounded() {
        let r = run(MatcherPolicy::React { cycles: 200 }, 2);
        let pts = r.series_met.points();
        assert!(!pts.is_empty());
        let mut last_y = 0.0;
        for &(x, y) in pts {
            assert!(y >= last_y, "cumulative curve must not decrease");
            assert!(y <= x, "cannot meet more deadlines than tasks received");
            last_y = y;
        }
        assert_eq!(r.series_met.last().unwrap().1, r.met_deadline as f64);
        assert_eq!(
            r.series_positive.last().unwrap().1,
            r.positive_feedback as f64
        );
    }

    #[test]
    fn deterministic_across_identical_seeds() {
        let a = run(MatcherPolicy::React { cycles: 200 }, 7);
        let b = run(MatcherPolicy::React { cycles: 200 }, 7);
        assert_eq!(a.met_deadline, b.met_deadline);
        assert_eq!(a.positive_feedback, b.positive_feedback);
        assert_eq!(a.exec_times, b.exec_times);
        let c = run(MatcherPolicy::React { cycles: 200 }, 8);
        // Not a strict requirement, but astronomically unlikely to match.
        assert!(
            a.met_deadline != c.met_deadline || a.exec_times != c.exec_times,
            "different seeds should differ"
        );
    }

    #[test]
    fn traditional_never_reassigns() {
        let r = run(MatcherPolicy::Traditional, 3);
        assert_eq!(r.reassignments, 0);
        assert!(r.completed > 0);
    }

    #[test]
    fn react_reassigns_stalled_tasks() {
        // With 50 % of executions stretching toward 130 s against 60–120 s
        // deadlines, the Eq. (2) model must fire at least sometimes.
        let r = run(MatcherPolicy::React { cycles: 200 }, 4);
        assert!(
            r.reassignments > 0,
            "expected recalls under the paper's delay model"
        );
    }

    #[test]
    fn replication_expands_and_votes() {
        let mut sc = Scenario::smoke(MatcherPolicy::Traditional, 12);
        sc.total_tasks = 60;
        sc.replication = 3;
        let r = ScenarioRunner::new(sc).run();
        assert_eq!(r.replication, 3);
        assert_eq!(r.received, 180, "60 logical tasks × 3 replicas");
        assert_eq!(r.groups, 60);
        assert!(r.groups_majority_positive <= r.groups);
        assert!(r.groups_any_met <= r.groups);
        assert!(r.groups_any_met > 0);
        // Conservation still holds per replica.
        assert_eq!(r.completed + r.expired_unassigned, r.received);
        assert_eq!(r.payments(), r.completed);
    }

    #[test]
    fn replication_one_matches_positive_ratio() {
        let r = run(MatcherPolicy::React { cycles: 200 }, 13);
        assert_eq!(r.replication, 1);
        assert_eq!(r.groups, r.received);
        assert_eq!(r.groups_majority_positive, r.positive_feedback);
    }

    #[test]
    fn replication_raises_best_answer_rate_at_higher_cost() {
        // The CDAS-style trade under the Traditional policy: asking 3
        // workers and keeping the best answer succeeds far more often
        // than asking one — at ≈3× the payments. (Strict majority voting
        // only helps once per-replica success exceeds ½, which blind
        // traditional assignment does not reach; both metrics are
        // reported.)
        let mut base = Scenario::smoke(MatcherPolicy::Traditional, 14);
        base.total_tasks = 80;
        base.n_workers = 150;
        base.arrival_rate = 1.0;
        let single = ScenarioRunner::new(base.clone()).run();
        let mut replicated = base;
        replicated.replication = 3;
        let triple = ScenarioRunner::new(replicated).run();
        let single_rate = single.groups_any_positive as f64 / single.groups as f64;
        let triple_rate = triple.groups_any_positive as f64 / triple.groups as f64;
        assert!(
            triple_rate > single_rate,
            "best-answer redundancy must raise success: {triple_rate:.2} vs {single_rate:.2}"
        );
        assert!(
            triple.payments() > single.payments() * 2,
            "redundancy costs ≈3×: {} vs {}",
            triple.payments(),
            single.payments()
        );
    }

    #[test]
    fn churn_recalls_tasks_and_still_terminates() {
        use crate::scenario::ChurnParams;
        let mut sc = Scenario::smoke(MatcherPolicy::React { cycles: 200 }, 6);
        sc.churn = Some(ChurnParams {
            mean_online: 30.0,
            offline_range: (5.0, 20.0),
        });
        let r = ScenarioRunner::new(sc).run();
        assert_eq!(r.received, 120);
        assert!(r.churn_events > 0, "churn must actually fire");
        assert_eq!(
            r.completed + r.expired_unassigned,
            r.received,
            "tasks conserved under churn: {r:?}"
        );
        // Stable crowd for comparison: no churn events.
        let stable = run(MatcherPolicy::React { cycles: 200 }, 6);
        assert_eq!(stable.churn_events, 0);
    }

    #[test]
    fn heavy_churn_degrades_but_never_breaks() {
        use crate::scenario::ChurnParams;
        let mut sc = Scenario::smoke(MatcherPolicy::React { cycles: 200 }, 7);
        sc.churn = Some(ChurnParams {
            mean_online: 5.0,
            offline_range: (30.0, 60.0),
        });
        let r = ScenarioRunner::new(sc).run();
        assert_eq!(r.completed + r.expired_unassigned, r.received);
        // With most of the crowd offline most of the time, some tasks
        // must fail to find a worker in time.
        assert!(
            r.expired_unassigned > 0,
            "extreme churn should cause queue expiries"
        );
    }

    #[test]
    fn noop_fault_plan_is_bit_identical_to_no_plan() {
        use react_faults::FaultPlan;
        let baseline = run(MatcherPolicy::React { cycles: 200 }, 21);
        let mut sc = Scenario::smoke(MatcherPolicy::React { cycles: 200 }, 21);
        sc.faults = Some(FaultPlan::none());
        let with_noop = ScenarioRunner::new(sc).run();
        assert_eq!(baseline.exec_times, with_noop.exec_times);
        assert_eq!(baseline.total_times, with_noop.total_times);
        assert_eq!(baseline.met_deadline, with_noop.met_deadline);
        assert_eq!(with_noop.faults, FaultStats::default());
    }

    #[test]
    fn chaos_run_is_deterministic_and_conserves_every_task() {
        use react_core::RecoveryConfig;
        use react_faults::FaultPlan;
        let chaos = |seed: u64| {
            let mut sc = Scenario::smoke(MatcherPolicy::React { cycles: 200 }, seed);
            sc.faults = Some(FaultPlan::chaos(0.8));
            sc.config.recovery = RecoveryConfig::aggressive(30.0);
            ScenarioRunner::new(sc).run()
        };
        let a = chaos(22);
        let b = chaos(22);
        assert_eq!(a.faults, b.faults, "chaos runs must be bit-reproducible");
        assert_eq!(a.exec_times, b.exec_times);
        assert_eq!(a.met_deadline, b.met_deadline);
        assert_eq!(a.reassignments, b.reassignments);
        // Every task — including injected burst tasks — ends the run
        // completed, expired, or stranded in a faulty worker's hands.
        assert_eq!(
            a.completed + a.expired_unassigned + a.faults.stranded,
            a.received,
            "task conservation under chaos: {:?}",
            a.faults
        );
        let injected = a.faults.dropouts
            + a.faults.abandons
            + a.faults.completions_lost
            + a.faults.completions_duplicated
            + a.faults.burst_tasks;
        assert!(injected > 0, "chaos(0.8) must actually inject faults");
        assert_eq!(
            a.faults.duplicates_rejected, a.faults.completions_duplicated,
            "every duplicated completion must be rejected by the server"
        );
        // A different seed materialises a different schedule.
        let c = chaos(23);
        assert!(a.faults != c.faults || a.exec_times != c.exec_times);
    }

    #[test]
    fn dropout_plan_recalls_in_flight_tasks() {
        use react_faults::FaultPlan;
        let mut sc = Scenario::smoke(MatcherPolicy::React { cycles: 200 }, 24);
        sc.faults = Some(FaultPlan::dropout_only(1.0));
        let r = ScenarioRunner::new(sc).run();
        assert!(r.faults.dropouts > 0, "every worker must drop out");
        assert!(
            r.churn_events >= r.faults.dropouts,
            "each dropout fires a worker-offline event"
        );
        assert_eq!(
            r.completed + r.expired_unassigned + r.faults.stranded,
            r.received
        );
    }

    #[test]
    fn timeout_ladder_recovers_abandoned_tasks() {
        use react_core::RecoveryConfig;
        use react_faults::FaultPlan;
        let plan = FaultPlan {
            abandon_probability: 0.3,
            ..FaultPlan::none()
        };
        let mut sc = Scenario::smoke(MatcherPolicy::React { cycles: 200 }, 25);
        sc.faults = Some(plan);
        sc.config.recovery = RecoveryConfig::aggressive(20.0);
        let r = ScenarioRunner::new(sc).run();
        assert!(r.faults.abandons > 0, "abandonment must fire at p=0.3");
        assert!(
            r.faults.timeout_recalls > 0,
            "the ladder must recall abandoned work: {:?}",
            r.faults
        );
        // Without the ladder the same plan strands more work.
        let mut bare = Scenario::smoke(MatcherPolicy::React { cycles: 200 }, 25);
        bare.faults = Some(plan);
        let unrecovered = ScenarioRunner::new(bare).run();
        assert!(
            r.completed > unrecovered.completed,
            "recovery must convert abandoned work into completions: {} vs {}",
            r.completed,
            unrecovered.completed
        );
    }

    #[test]
    fn ratios_and_averages_consistent() {
        let r = run(MatcherPolicy::React { cycles: 200 }, 5);
        assert!((0.0..=1.0).contains(&r.deadline_ratio()));
        assert!((0.0..=1.0).contains(&r.positive_ratio()));
        assert!(r.positive_ratio() <= r.deadline_ratio() + 1e-9);
        if r.completed > 0 {
            assert!(r.avg_exec_time() > 0.0);
            // Total time includes queueing + assignment latency.
            assert!(r.avg_total_time() >= r.avg_exec_time() * 0.9);
        }
        // Empty-report edge cases.
        let empty = RunReport {
            exec_times: vec![],
            total_times: vec![],
            received: 0,
            ..r
        };
        assert_eq!(empty.deadline_ratio(), 0.0);
        assert_eq!(empty.avg_exec_time(), 0.0);
    }
}
