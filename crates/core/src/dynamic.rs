//! The Dynamic Assignment Component.
//!
//! Periodically decides Eq. (2) — `Pr(t_ij < ExecTime_ij < TTD_ij)` —
//! for every in-flight assignment, using the executing worker's fitted
//! power-law model. When the probability falls below the configured
//! threshold (10 % in the paper) the task is recalled so the Scheduling
//! Component can find a better worker. The server's tick evaluates it
//! once per assignment and keeps the inverted threshold
//! (`DynamicAssignmentComponent::check_due`); the exact scan of every
//! assignment ([`DynamicAssignmentComponent::check`]) is the reference.
//! Two guards from the paper:
//!
//! * the model *"needs at least 3 completed tasks in the worker's
//!   profile to be initiated"* — cold workers are never second-guessed;
//! * once a task's deadline has already passed there is no better worker
//!   by definition (*"there is no worker that will have a better
//!   probability to finish the task before deadline when it has already
//!   expired"*), so no recall is issued and the worker finishes late.

use crate::config::Config;
use crate::ids::{TaskId, WorkerId};
use crate::profiling::ProfilingComponent;
use crate::task_mgmt::TaskManagementComponent;
use react_prob::{DeadlineDecision, DeadlineModel, FittedModel};

/// One recall decision: which task to pull back from which worker, and
/// the Eq. (2) probability that triggered it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recall {
    /// The task to reassign.
    pub task: TaskId,
    /// The worker it is recalled from.
    pub worker: WorkerId,
    /// The probability that fell below the threshold.
    pub probability: f64,
}

/// What the exact evaluation concluded about one in-flight assignment.
enum Verdict {
    /// No recall now, nor at any later check of this assignment: the
    /// deadline has passed (and stays passed), or the profile is cold
    /// (samples only arrive through a completion, which ends the
    /// assignment).
    Settled,
    /// No recall now, nothing learned about later: the worker is missing
    /// from the registry.
    Skipped,
    /// Eq. (2) was evaluated over `model` with this time-to-deadline.
    Evaluated {
        decision: DeadlineDecision,
        model: FittedModel,
        ttd: f64,
    },
}

/// In-flight checker. Holds no state of its own: what it memoizes lives
/// in the task component's in-flight entries.
#[derive(Debug, Default, Clone, Copy)]
pub struct DynamicAssignmentComponent;

/// The times one Eq. (2) evaluation reads of an assignment at `now`.
struct Held {
    /// `t_ij`.
    elapsed: f64,
    /// `TimeToDeadline_ij`.
    ttd: f64,
    /// Time left until the deadline (negative once past due).
    remaining: f64,
}

impl DynamicAssignmentComponent {
    /// The exact Eq. (2) evaluation of one assignment — the only one:
    /// [`Self::check`] runs it for every entry, [`Self::check_due`] for
    /// the entries its memo cannot answer.
    fn evaluate(
        config: &Config,
        deadline_model: &DeadlineModel,
        profiling: &mut ProfilingComponent,
        held: Held,
        worker: WorkerId,
    ) -> Verdict {
        let Held {
            elapsed,
            ttd,
            remaining,
        } = held;
        // Past-due tasks are left to finish late.
        if remaining <= 0.0 {
            return Verdict::Settled;
        }
        let Ok(profile) = profiling.profile_mut(worker) else {
            return Verdict::Skipped; // worker unknown to this profiler
        };
        let Some(model) = profile.deadline_dist(config.latency_model) else {
            return Verdict::Settled; // cold profile: model not initiated yet
        };
        Verdict::Evaluated {
            decision: deadline_model.check_in_flight(&model, elapsed, ttd),
            model,
            ttd,
        }
    }

    /// Scans all in-flight assignments at time `now` and returns the
    /// recalls mandated by Eq. (2), in ascending task-id order. Does not
    /// mutate any component (beyond lazily refitting a stale model).
    ///
    /// This is the exact full scan: the reference `Self::check_due` is
    /// asserted against on every tick under `debug-invariants`.
    pub fn check(
        config: &Config,
        profiling: &mut ProfilingComponent,
        tasks: &TaskManagementComponent,
        now: f64,
    ) -> Vec<Recall> {
        if !config.matcher.uses_probabilistic_model() {
            return Vec::new();
        }
        let deadline_model = DeadlineModel::new(config.deadline);
        let mut recalls = Vec::new();
        for (task, worker) in tasks.assigned() {
            let Ok(rec) = tasks.record(task) else {
                debug_assert!(false, "assigned {task} is not tracked");
                continue;
            };
            let (Some(elapsed), Some(ttd)) =
                (rec.elapsed_since_assignment(now), rec.time_to_deadline())
            else {
                debug_assert!(false, "in-flight {task} is not assigned");
                continue;
            };
            let held = Held {
                elapsed,
                ttd,
                remaining: rec.remaining_time(now),
            };
            if let Verdict::Evaluated { decision, .. } =
                Self::evaluate(config, &deadline_model, profiling, held, worker)
            {
                if decision.is_reassign() {
                    recalls.push(Recall {
                        task,
                        worker,
                        probability: decision.probability(),
                    });
                }
            }
        }
        recalls
    }

    /// [`Self::check`], paying for the exact evaluation only where its
    /// outcome is not already known, with the recalls appended to
    /// `recalls`. Returns how many entries did reach the exact
    /// evaluation.
    ///
    /// For a fixed assignment the Eq. (2) probability is monotone
    /// non-increasing in elapsed time, so *keep* turns into *reassign*
    /// once, at an elapsed time [`DeadlineModel::recall_gate`] brackets
    /// from the worker's model and the assignment's TTD. The first check
    /// of an assignment evaluates it exactly (so a stale model is refit
    /// when it always was) and stores the bracket's lower end in the
    /// in-flight entry; until the elapsed time reaches it the entry costs
    /// one compare per tick, and from then on it is evaluated exactly
    /// again. A past-due task and a cold profile can never produce a
    /// recall for the rest of the assignment and are parked for good.
    /// The entry carries every time an evaluation reads, so the scan reads
    /// no task record.
    ///
    /// The memo rests on the worker's model not changing while the entry
    /// lives. That is the server's invariant, not this function's:
    /// model-using policies pick from the *available* workers, so a
    /// worker holds at most one task; execution-time samples arrive only
    /// through `complete_task`, which removes the entry; and every other
    /// way an assignment ends or restarts replaces the entry. Hence
    /// `pub(crate)` — with raw components, use [`Self::check`].
    pub(crate) fn check_due(
        config: &Config,
        profiling: &mut ProfilingComponent,
        tasks: &mut TaskManagementComponent,
        now: f64,
        recalls: &mut Vec<Recall>,
    ) -> u64 {
        if !config.matcher.uses_probabilistic_model() {
            return 0;
        }
        let deadline_model = DeadlineModel::new(config.deadline);
        let mut exact_checks = 0u64;
        for (task, entry) in tasks.in_flight_mut() {
            let elapsed = entry.held_for(now);
            if elapsed < entry.recall_keep_before {
                continue;
            }
            exact_checks += 1;
            let held = Held {
                elapsed,
                ttd: entry.time_to_deadline(),
                remaining: entry.remaining_time(now),
            };
            match Self::evaluate(config, &deadline_model, profiling, held, entry.worker) {
                Verdict::Settled => entry.recall_keep_before = f64::INFINITY,
                Verdict::Skipped => {}
                Verdict::Evaluated {
                    decision,
                    model,
                    ttd,
                } => {
                    if decision.is_reassign() {
                        recalls.push(Recall {
                            task: *task,
                            worker: entry.worker,
                            probability: decision.probability(),
                        });
                    } else if entry.recall_keep_before.is_nan() {
                        entry.recall_keep_before =
                            deadline_model.recall_gate(&model, ttd).keep_before();
                    }
                }
            }
        }
        exact_checks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MatcherPolicy;
    use crate::ids::TaskCategory;
    use crate::task::Task;
    use react_geo::GeoPoint;

    fn task(id: u64, deadline: f64) -> Task {
        Task::new(
            TaskId(id),
            GeoPoint::new(37.98, 23.72),
            deadline,
            0.05,
            TaskCategory(0),
            "t",
        )
    }

    /// One worker with a fast profile (completes in 2–4 s) holding one
    /// task with the given deadline, assigned at t=0.
    fn setup(deadline: f64) -> (Config, ProfilingComponent, TaskManagementComponent) {
        let config = Config::paper_defaults();
        let mut p = ProfilingComponent::default();
        p.register(WorkerId(1), GeoPoint::new(37.98, 23.72))
            .unwrap();
        for t in [2.0, 3.0, 4.0] {
            p.record_completion(WorkerId(1), TaskCategory(0), t, true)
                .unwrap();
        }
        let mut tm = TaskManagementComponent::new();
        tm.submit(task(1, deadline), 0.0).unwrap();
        tm.mark_assigned(TaskId(1), WorkerId(1), 0.0).unwrap();
        (config, p, tm)
    }

    #[test]
    fn fresh_assignment_is_kept() {
        let (config, mut p, tm) = setup(60.0);
        let recalls = DynamicAssignmentComponent::check(&config, &mut p, &tm, 0.5);
        assert!(recalls.is_empty());
    }

    #[test]
    fn stalled_assignment_is_recalled() {
        let (config, mut p, tm) = setup(60.0);
        // 55 s elapsed on a worker that always finished in ≤ 4 s: the
        // in-window probability is ~0 → recall.
        let recalls = DynamicAssignmentComponent::check(&config, &mut p, &tm, 55.0);
        assert_eq!(recalls.len(), 1);
        assert_eq!(recalls[0].task, TaskId(1));
        assert_eq!(recalls[0].worker, WorkerId(1));
        assert!(recalls[0].probability < config.deadline.reassign_threshold);
    }

    #[test]
    fn past_due_task_is_left_alone() {
        let (config, mut p, tm) = setup(60.0);
        let recalls = DynamicAssignmentComponent::check(&config, &mut p, &tm, 61.0);
        assert!(recalls.is_empty(), "expired in-flight tasks finish late");
    }

    #[test]
    fn cold_worker_is_never_recalled() {
        let config = Config::paper_defaults();
        let mut p = ProfilingComponent::default();
        p.register(WorkerId(1), GeoPoint::new(37.98, 23.72))
            .unwrap();
        // Only 2 completions — below the 3-task activation rule.
        for t in [2.0, 3.0] {
            p.record_completion(WorkerId(1), TaskCategory(0), t, true)
                .unwrap();
        }
        let mut tm = TaskManagementComponent::new();
        tm.submit(task(1, 60.0), 0.0).unwrap();
        tm.mark_assigned(TaskId(1), WorkerId(1), 0.0).unwrap();
        let recalls = DynamicAssignmentComponent::check(&config, &mut p, &tm, 55.0);
        assert!(recalls.is_empty());
    }

    #[test]
    fn traditional_policy_disables_checks() {
        let (mut config, mut p, tm) = setup(60.0);
        config.matcher = MatcherPolicy::Traditional;
        let recalls = DynamicAssignmentComponent::check(&config, &mut p, &tm, 55.0);
        assert!(recalls.is_empty());
    }

    #[test]
    fn check_due_matches_the_full_scan_and_parks_what_cannot_recall() {
        let (config, mut p, mut tm) = setup(60.0);
        // A second, cold worker holding a second task.
        p.register(WorkerId(2), GeoPoint::new(37.98, 23.72))
            .unwrap();
        tm.submit(task(2, 60.0), 0.0).unwrap();
        tm.mark_assigned(TaskId(2), WorkerId(2), 0.0).unwrap();
        let mut later_checks = 0;
        for step in 0..=130 {
            let now = 0.5 * step as f64;
            let exact = DynamicAssignmentComponent::check(&config, &mut p, &tm, now);
            let mut due = Vec::new();
            let checks =
                DynamicAssignmentComponent::check_due(&config, &mut p, &mut tm, now, &mut due);
            assert_eq!(due, exact, "at t={now}");
            if step == 0 {
                assert_eq!(checks, 2, "both assignments are evaluated once");
            } else {
                later_checks += checks;
            }
        }
        // The cold entry never comes back; the warm one only from its
        // threshold until the deadline parks it (it is never recalled
        // here: the component reports, the server acts).
        let warm_reassigns = (1..=130)
            .filter(|s| {
                !DynamicAssignmentComponent::check(&config, &mut p, &tm, 0.5 * *s as f64).is_empty()
            })
            .count() as u64;
        assert!(warm_reassigns > 0);
        assert!(
            later_checks <= warm_reassigns + 2,
            "{later_checks} exact checks for {warm_reassigns} reassign ticks"
        );
    }

    #[test]
    fn unknown_worker_is_skipped() {
        let (config, _, tm) = setup(60.0);
        let mut p = ProfilingComponent::default();
        let recalls = DynamicAssignmentComponent::check(&config, &mut p, &tm, 55.0);
        assert!(recalls.is_empty());
    }
}
