//! Task lifecycle audit log.
//!
//! When enabled (`Config::audit`), the server records
//! every lifecycle transition of every task. Beyond debugging, the log
//! makes the middleware's behaviour *checkable*: [`verify_lifecycles`]
//! asserts that each task's event sequence matches the legal lifecycle
//!
//! ```text
//! Submitted (Assigned (Recalled)?)* (Completed | Expired | HandedOff)?
//! ```
//!
//! with timestamps non-decreasing and the completing worker equal to the
//! last assigned one. The integration tests run it over whole simulated
//! scenarios.

use crate::ids::{TaskId, WorkerId};
use std::collections::BTreeMap;

/// What happened to a task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaskEventKind {
    /// The requester submitted the task.
    Submitted,
    /// The scheduler assigned it to a worker (effective at the recorded
    /// time, i.e. after the modelled matching latency).
    Assigned {
        /// The chosen worker.
        worker: WorkerId,
    },
    /// The Eq. (2) model (or worker departure) recalled it.
    Recalled {
        /// The worker it was pulled back from.
        worker: WorkerId,
    },
    /// A worker delivered the result.
    Completed {
        /// The delivering worker.
        worker: WorkerId,
        /// Whether the deadline was met.
        met_deadline: bool,
    },
    /// The deadline passed while the task sat unassigned.
    Expired,
    /// The cluster layer evicted the queued task from this server to
    /// re-submit it on a neighbouring shard (cross-shard handoff). From
    /// this server's perspective the task is done; the receiving shard
    /// records a fresh `Submitted` in its own log.
    HandedOff,
}

/// One audit record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskEvent {
    /// Timestamp (seconds).
    pub at: f64,
    /// The task concerned.
    pub task: TaskId,
    /// The transition.
    pub kind: TaskEventKind,
}

/// The audit log: an append-only event sequence.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditLog {
    events: Vec<TaskEvent>,
}

impl AuditLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one event.
    pub fn push(&mut self, at: f64, task: TaskId, kind: TaskEventKind) {
        self.events.push(TaskEvent { at, task, kind });
    }

    /// All recorded events, in recording order.
    pub fn events(&self) -> &[TaskEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events of one task, in order.
    pub fn task_history(&self, task: TaskId) -> Vec<TaskEvent> {
        self.events
            .iter()
            .copied()
            .filter(|e| e.task == task)
            .collect()
    }
}

/// Checks every task's event sequence against the legal lifecycle.
/// Returns the number of tasks verified; panics (with a descriptive
/// message) on the first violation — intended for tests.
///
/// The transition table matches on the event kind with no wildcard arm,
/// so a new [`TaskEventKind`] variant cannot compile without its rule.
// This verifier's whole job is to abort on an illegal audit trail;
// callers sum the count or catch the unwind.
#[allow(clippy::panic)]
pub fn verify_lifecycles(log: &AuditLog) -> usize {
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum State {
        Fresh,
        Queued,
        Running(WorkerId),
        Done,
        /// Handed off to another shard. Unlike `Done`, the task may
        /// legally re-enter this log: a later handoff can bring it back.
        Departed,
    }
    fn illegal(e: &TaskEvent, s: State) -> ! {
        panic!("{}: illegal transition {:?} from {s:?}", e.task, e.kind)
    }
    let mut states: BTreeMap<TaskId, (State, f64)> = BTreeMap::new();
    for e in log.events() {
        let (state, last_at) = states
            .entry(e.task)
            .or_insert((State::Fresh, f64::NEG_INFINITY));
        assert!(
            e.at >= *last_at,
            "{}: timestamps went backwards ({} after {})",
            e.task,
            e.at,
            last_at
        );
        *last_at = e.at;
        *state = match e.kind {
            TaskEventKind::Submitted => match *state {
                State::Fresh | State::Departed => State::Queued,
                s => illegal(e, s),
            },
            TaskEventKind::Assigned { worker } => match *state {
                State::Queued => State::Running(worker),
                s => illegal(e, s),
            },
            TaskEventKind::Recalled { worker } => match *state {
                State::Running(w) => {
                    assert_eq!(
                        w, worker,
                        "{}: recalled from {} but was running at {}",
                        e.task, worker, w
                    );
                    State::Queued
                }
                s => illegal(e, s),
            },
            TaskEventKind::Completed { worker, .. } => match *state {
                State::Running(w) => {
                    assert_eq!(
                        w, worker,
                        "{}: completed by {} but was running at {}",
                        e.task, worker, w
                    );
                    State::Done
                }
                s => illegal(e, s),
            },
            TaskEventKind::Expired => match *state {
                State::Queued => State::Done,
                s => illegal(e, s),
            },
            TaskEventKind::HandedOff => match *state {
                State::Queued => State::Departed,
                s => illegal(e, s),
            },
        };
    }
    states.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(seq: &[(f64, u64, TaskEventKind)]) -> AuditLog {
        let mut log = AuditLog::new();
        for &(at, task, kind) in seq {
            log.push(at, TaskId(task), kind);
        }
        log
    }

    #[test]
    fn empty_log_is_fine() {
        let log = AuditLog::new();
        assert!(log.is_empty());
        assert_eq!(verify_lifecycles(&log), 0);
    }

    #[test]
    fn legal_lifecycle_with_recall() {
        let w1 = WorkerId(1);
        let w2 = WorkerId(2);
        let log = log_of(&[
            (0.0, 1, TaskEventKind::Submitted),
            (1.0, 1, TaskEventKind::Assigned { worker: w1 }),
            (9.0, 1, TaskEventKind::Recalled { worker: w1 }),
            (10.0, 1, TaskEventKind::Assigned { worker: w2 }),
            (
                14.0,
                1,
                TaskEventKind::Completed {
                    worker: w2,
                    met_deadline: true,
                },
            ),
        ]);
        assert_eq!(verify_lifecycles(&log), 1);
        assert_eq!(log.task_history(TaskId(1)).len(), 5);
        assert_eq!(log.len(), 5);
    }

    #[test]
    fn expiry_lifecycle_including_after_recall() {
        let w = WorkerId(1);
        let log = log_of(&[
            (0.0, 7, TaskEventKind::Submitted),
            (60.0, 7, TaskEventKind::Expired),
            (0.0, 8, TaskEventKind::Submitted),
            (1.0, 8, TaskEventKind::Assigned { worker: w }),
            (5.0, 8, TaskEventKind::Recalled { worker: w }),
            (6.0, 8, TaskEventKind::Expired),
        ]);
        assert_eq!(verify_lifecycles(&log), 2);
    }

    #[test]
    fn handoff_lifecycle_including_after_recall() {
        let w = WorkerId(4);
        let log = log_of(&[
            (0.0, 11, TaskEventKind::Submitted),
            (2.0, 11, TaskEventKind::HandedOff),
            (0.0, 12, TaskEventKind::Submitted),
            (1.0, 12, TaskEventKind::Assigned { worker: w }),
            (5.0, 12, TaskEventKind::Recalled { worker: w }),
            (6.0, 12, TaskEventKind::HandedOff),
        ]);
        assert_eq!(verify_lifecycles(&log), 2);
    }

    #[test]
    fn handed_off_task_may_return() {
        // A task handed A→B and later B→A re-enters A's log: the second
        // Submitted after HandedOff is legal, unlike after Expired.
        let w = WorkerId(2);
        let log = log_of(&[
            (0.0, 20, TaskEventKind::Submitted),
            (2.0, 20, TaskEventKind::HandedOff),
            (9.0, 20, TaskEventKind::Submitted),
            (10.0, 20, TaskEventKind::Assigned { worker: w }),
            (
                12.0,
                20,
                TaskEventKind::Completed {
                    worker: w,
                    met_deadline: true,
                },
            ),
        ]);
        assert_eq!(verify_lifecycles(&log), 1);
    }

    #[test]
    #[should_panic(expected = "illegal transition")]
    fn rejects_resubmission_after_expiry() {
        let log = log_of(&[
            (0.0, 1, TaskEventKind::Submitted),
            (1.0, 1, TaskEventKind::Expired),
            (2.0, 1, TaskEventKind::Submitted),
        ]);
        verify_lifecycles(&log);
    }

    #[test]
    #[should_panic(expected = "illegal transition")]
    fn rejects_handing_off_a_running_task() {
        let log = log_of(&[
            (0.0, 1, TaskEventKind::Submitted),
            (
                1.0,
                1,
                TaskEventKind::Assigned {
                    worker: WorkerId(1),
                },
            ),
            (2.0, 1, TaskEventKind::HandedOff),
        ]);
        verify_lifecycles(&log);
    }

    #[test]
    #[should_panic(expected = "illegal transition")]
    fn rejects_expiring_a_running_task() {
        let log = log_of(&[
            (0.0, 1, TaskEventKind::Submitted),
            (
                1.0,
                1,
                TaskEventKind::Assigned {
                    worker: WorkerId(1),
                },
            ),
            (2.0, 1, TaskEventKind::Expired),
        ]);
        verify_lifecycles(&log);
    }

    #[test]
    #[should_panic(expected = "illegal transition")]
    fn rejects_completion_without_assignment() {
        let log = log_of(&[
            (0.0, 1, TaskEventKind::Submitted),
            (
                5.0,
                1,
                TaskEventKind::Completed {
                    worker: WorkerId(1),
                    met_deadline: true,
                },
            ),
        ]);
        verify_lifecycles(&log);
    }

    #[test]
    #[should_panic(expected = "completed by")]
    fn rejects_completion_by_wrong_worker() {
        let log = log_of(&[
            (0.0, 1, TaskEventKind::Submitted),
            (
                1.0,
                1,
                TaskEventKind::Assigned {
                    worker: WorkerId(1),
                },
            ),
            (
                5.0,
                1,
                TaskEventKind::Completed {
                    worker: WorkerId(9),
                    met_deadline: false,
                },
            ),
        ]);
        verify_lifecycles(&log);
    }

    #[test]
    #[should_panic(expected = "timestamps went backwards")]
    fn rejects_time_travel() {
        let log = log_of(&[
            (10.0, 1, TaskEventKind::Submitted),
            (
                5.0,
                1,
                TaskEventKind::Assigned {
                    worker: WorkerId(1),
                },
            ),
        ]);
        verify_lifecycles(&log);
    }

    #[test]
    #[should_panic(expected = "illegal transition")]
    fn rejects_double_submission() {
        let log = log_of(&[
            (0.0, 1, TaskEventKind::Submitted),
            (1.0, 1, TaskEventKind::Submitted),
        ]);
        verify_lifecycles(&log);
    }
}
