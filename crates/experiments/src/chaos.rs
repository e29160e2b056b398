//! Chaos sweep — policy robustness under increasing fault intensity.
//!
//! Replays the Figs. 5–8 workload through [`react_faults::FaultPlan::chaos`]
//! at a ladder of intensities for each of the three paper policies, with
//! the failure-aware recovery ladder enabled, and reports:
//!
//! * **deadline-miss curves** — received − met-deadline per intensity;
//! * **recovery latency** — mean seconds from a task's *first* recall to
//!   its eventual completion (from the audit log);
//! * the raw injected-fault counters ([`react_crowd::FaultStats`]).
//!
//! The headline check mirrors the paper's thesis under adversity: REACT's
//! availability-aware matching plus the timeout ladder miss strictly
//! fewer deadlines than Traditional blind assignment once workers start
//! dropping out.

use crate::endtoend::paper_policies;
use crate::experiment::{Experiment, RunOutput};
use crate::spec::RunSpec;
use react_core::{AuditLog, MatcherPolicy, RecoveryConfig, TaskEventKind, TaskId};
use react_crowd::{RunReport, Scenario, ScenarioRunner};
use react_faults::FaultPlan;
use react_metrics::{KpiReport, KpiRow};
use std::collections::HashMap;

/// Parameters of the chaos sweep.
#[derive(Debug, Clone)]
pub struct ChaosParams {
    /// Worker count (paper: 750).
    pub n_workers: usize,
    /// Total tasks per run.
    pub total_tasks: usize,
    /// Fault intensities to sweep (each mapped through
    /// [`FaultPlan::chaos`]; 0.0 is the fault-free baseline).
    pub intensities: Vec<f64>,
    /// Timeout-ladder base progress deadline (seconds).
    pub progress_timeout: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ChaosParams {
    fn default() -> Self {
        ChaosParams {
            n_workers: 750,
            total_tasks: 8371,
            intensities: vec![0.0, 0.25, 0.5, 0.75, 1.0],
            progress_timeout: 45.0,
            seed: 42,
        }
    }
}

impl ChaosParams {
    /// Reduced setup for tests/CI.
    pub fn quick() -> Self {
        ChaosParams {
            n_workers: 80,
            total_tasks: 300,
            intensities: vec![0.0, 0.5, 1.0],
            progress_timeout: 30.0,
            seed: 42,
        }
    }
}

/// One (policy, intensity) cell of the sweep.
#[derive(Debug, Clone)]
pub struct ChaosPoint {
    /// The fault intensity the plan was derived from.
    pub intensity: f64,
    /// The full run report (fault counters in `report.faults`).
    pub report: RunReport,
    /// Mean seconds from a task's first recall to its completion
    /// (0.0 when no recalled task completed).
    pub recovery_latency: f64,
}

impl ChaosPoint {
    /// Deadlines missed: every received task that did not finish in time.
    pub fn missed(&self) -> u64 {
        self.report.received - self.report.met_deadline
    }
}

fn scenario(policy: MatcherPolicy, intensity: f64, params: &ChaosParams) -> Scenario {
    let mut sc = Scenario::paper_fig5(policy, params.seed);
    sc.label = format!("chaos-{}-i{:.2}", policy.name(), intensity);
    sc.n_workers = params.n_workers;
    sc.total_tasks = params.total_tasks;
    sc.arrival_rate *= params.n_workers as f64 / 750.0;
    sc.faults = Some(FaultPlan::chaos(intensity));
    sc.config.recovery = RecoveryConfig::aggressive(params.progress_timeout);
    sc.config.audit = true;
    sc
}

/// Mean first-recall→completion latency over the audit log.
fn mean_recovery_latency(log: &AuditLog) -> f64 {
    let mut first_recall: HashMap<TaskId, f64> = HashMap::new();
    let mut total = 0.0f64;
    let mut n = 0u64;
    for e in log.events() {
        match e.kind {
            TaskEventKind::Recalled { .. } => {
                first_recall.entry(e.task).or_insert(e.at);
            }
            TaskEventKind::Completed { .. } => {
                if let Some(&t0) = first_recall.get(&e.task) {
                    total += e.at - t0;
                    n += 1;
                }
            }
            _ => {}
        }
    }
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// Runs the sweep: every policy at every intensity, in policy-major
/// order (matching [`paper_policies`]).
pub fn run(params: &ChaosParams) -> Vec<ChaosPoint> {
    paper_policies()
        .into_iter()
        .flat_map(|policy| {
            params
                .intensities
                .iter()
                .map(move |&intensity| (policy, intensity))
        })
        .map(|(policy, intensity)| {
            let report = ScenarioRunner::new(scenario(policy, intensity, params)).run();
            let recovery_latency = report
                .audit
                .as_ref()
                .map(mean_recovery_latency)
                .unwrap_or(0.0);
            ChaosPoint {
                intensity,
                report,
                recovery_latency,
            }
        })
        .collect()
}

/// The chaos cells as shared KPI rows. Counter-backed columns use the
/// obs-catalog names; derived columns use the `kpi.` prefix.
pub fn kpi_rows(points: &[ChaosPoint]) -> Vec<KpiRow> {
    points
        .iter()
        .map(|p| {
            let r = &p.report;
            let f = &r.faults;
            KpiRow::new()
                .label("policy", r.matcher_name)
                .float("intensity", p.intensity)
                .int("kpi.received", r.received as i64)
                .int("deadlines.met", r.met_deadline as i64)
                .pct("kpi.deadline_hit_rate", r.deadline_ratio())
                .int("kpi.missed", p.missed() as i64)
                .int("tasks.reassigned", r.reassignments as i64)
                .int("recovery.timeout_recalls", f.timeout_recalls as i64)
                .int("fault.abandons", f.abandons as i64)
                .int("fault.completions_lost", f.completions_lost as i64)
                .int(
                    "fault.completions_duplicated",
                    f.completions_duplicated as i64,
                )
                .int("fault.burst_tasks", f.burst_tasks as i64)
                .int("kpi.stranded", f.stranded as i64)
                .float("kpi.recovery_latency_s", p.recovery_latency)
        })
        .collect()
}

/// The figure table a run archives.
const FIGURE: &str = "chaos_sweep";

/// The chaos table and headline plus the `chaos_sweep` CSV.
pub fn report(points: &[ChaosPoint]) -> RunOutput {
    let kpi = KpiReport::from_rows(kpi_rows(points));
    let table = kpi.table(
        "Chaos sweep — deadline misses and recovery under injected faults",
        None,
    );

    let mut out = table.render();
    // Headline: REACT vs Traditional at the heaviest intensity.
    let heaviest = points.iter().map(|p| p.intensity).fold(0.0f64, f64::max);
    let at = |name: &str| {
        points
            .iter()
            .find(|p| p.report.matcher_name == name && p.intensity == heaviest)
    };
    if let (Some(react), Some(trad)) = (at("react"), at("traditional")) {
        out.push_str(&format!(
            "\nAt intensity {:.2}: REACT misses {} deadlines vs Traditional {} \
             (recovery latency {:.1}s vs {:.1}s)\n",
            heaviest,
            react.missed(),
            trad.missed(),
            react.recovery_latency,
            trad.recovery_latency,
        ));
    }
    RunOutput::figure(FIGURE, kpi.rows, out)
}

/// The chaos sweep as an [`Experiment`].
pub struct Chaos;

impl Experiment for Chaos {
    fn name(&self) -> &'static str {
        "chaos"
    }
    fn title(&self) -> &'static str {
        "Chaos — deadline misses and recovery latency under injected faults"
    }
    fn figures(&self) -> Vec<&'static str> {
        vec![FIGURE]
    }
    fn run(&self, spec: &RunSpec) -> Result<RunOutput, String> {
        let params = ChaosParams {
            seed: spec.seed,
            ..spec.sized(ChaosParams::quick)
        };
        Ok(report(&run(&params)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use react_faults::DropoutPlan;

    #[test]
    fn sweep_covers_every_policy_and_intensity() {
        let params = ChaosParams::quick();
        let points = run(&params);
        assert_eq!(points.len(), 3 * params.intensities.len());
        for p in &points {
            assert!(p.report.received as usize >= params.total_tasks);
            // Conservation under chaos with recovery enabled.
            assert_eq!(
                p.report.completed + p.report.expired_unassigned + p.report.faults.stranded,
                p.report.received,
                "conservation at intensity {}: {:?}",
                p.intensity,
                p.report.faults
            );
        }
        // Intensity 0 injects nothing; intensity 1 injects plenty.
        let baseline = &points[0];
        assert_eq!(baseline.report.faults.abandons, 0);
        assert_eq!(baseline.report.faults.dropouts, 0);
        let heavy = &points[params.intensities.len() - 1];
        assert!(heavy.report.faults.abandons > 0);
    }

    #[test]
    fn react_misses_fewer_deadlines_than_traditional_under_dropout() {
        // The acceptance check: under a pure dropout plan, REACT's
        // availability-aware matching + recovery must outperform blind
        // Traditional assignment.
        let params = ChaosParams::quick();
        let run_policy = |policy: MatcherPolicy| {
            let mut sc = scenario(policy, 0.0, &params);
            sc.faults = Some(FaultPlan {
                dropout: Some(DropoutPlan {
                    probability: 0.6,
                    window: (5.0, 60.0),
                    offline_range: Some((30.0, 90.0)),
                }),
                ..FaultPlan::none()
            });
            ScenarioRunner::new(sc).run()
        };
        let react = run_policy(MatcherPolicy::React { cycles: 1000 });
        let trad = run_policy(MatcherPolicy::Traditional);
        assert!(react.faults.dropouts > 0, "dropouts must fire");
        let react_missed = react.received - react.met_deadline;
        let trad_missed = trad.received - trad.met_deadline;
        assert!(
            react_missed < trad_missed,
            "REACT must miss strictly fewer deadlines under dropout: {react_missed} vs {trad_missed}"
        );
    }

    #[test]
    fn report_renders_and_archives() {
        let mut params = ChaosParams::quick();
        params.intensities = vec![0.0, 1.0];
        let out = report(&run(&params));
        assert!(out.text.contains("Chaos sweep"));
        assert!(out.text.contains("REACT misses"));
        assert_eq!(out.figures[0].0, "chaos_sweep");
        assert_eq!(out.figures[0].1.len(), out.rows.len() + 1);
    }

    #[test]
    fn recovery_latency_is_measured_when_recalls_happen() {
        let params = ChaosParams::quick();
        let points = run(&params);
        // At least one chaotic cell must have recalled-and-completed
        // tasks with a positive recovery latency.
        assert!(
            points
                .iter()
                .any(|p| p.intensity > 0.0 && p.recovery_latency > 0.0),
            "expected measurable recovery latency somewhere in the sweep"
        );
    }
}
