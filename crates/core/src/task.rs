//! The task model.
//!
//! Sec. III-B: every task enters the system as
//! `⟨id, latitude, longitude, deadline, reward, description⟩`; it carries
//! a soft real-time deadline (an interval from submission within which it
//! should complete), and the middleware tracks which worker (if any) it
//! is assigned to and since when.
//!
//! The free-text description is not kept: no scheduling stage, report or
//! wire field reads it, and the ingest door never accepted one. Without
//! it a [`Task`] is 48 bytes, and every trace, registry record, inbox
//! entry and handoff that copies one copies only what is read.

use crate::ids::{TaskCategory, TaskId, WorkerId};
use react_geo::GeoPoint;

/// An immutable task description as submitted by a Requester.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Unique task id.
    pub id: TaskId,
    /// The location the task refers to (`latitude_j`, `longitude_j`).
    pub location: GeoPoint,
    /// Soft deadline: seconds from submission within which the task
    /// should complete.
    pub deadline: f64,
    /// Monetary reward for the worker who completes it.
    pub reward: f64,
    /// Category used by the accuracy weight function.
    pub category: TaskCategory,
}

impl Task {
    /// Creates a task. `_description`, the paper's human-readable text
    /// ("Is road A highly congested?"), is accepted and dropped: nothing
    /// reads it (see the module doc).
    ///
    /// # Panics
    /// Panics when `deadline` is not positive/finite or `reward` is
    /// negative/not finite — both are requester-supplied configuration
    /// the platform validates at ingestion.
    pub fn new(
        id: TaskId,
        location: GeoPoint,
        deadline: f64,
        reward: f64,
        category: TaskCategory,
        _description: &'static str,
    ) -> Self {
        assert!(
            deadline.is_finite() && deadline > 0.0,
            "task deadline must be positive and finite, got {deadline}"
        );
        assert!(
            reward.is_finite() && reward >= 0.0,
            "task reward must be non-negative and finite, got {reward}"
        );
        Task {
            id,
            location,
            deadline,
            reward,
            category,
        }
    }
}

/// Lifecycle state of a task inside the middleware.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaskState {
    /// Waiting in the scheduler's pool for an assignment.
    Unassigned,
    /// Executing at a worker since `assigned_at`.
    Assigned {
        /// The executing worker.
        worker: WorkerId,
        /// When the assignment was made (seconds).
        assigned_at: f64,
    },
    /// Finished (possibly after the deadline — soft real-time).
    Completed {
        /// The worker that produced the result.
        worker: WorkerId,
        /// Completion timestamp (seconds).
        completed_at: f64,
        /// Whether completion happened before the deadline.
        met_deadline: bool,
    },
    /// The deadline passed without a result; the task left the system.
    Expired,
}

impl TaskState {
    /// True while the task can still be (re)assigned.
    pub fn is_open(&self) -> bool {
        matches!(self, TaskState::Unassigned | TaskState::Assigned { .. })
    }

    /// The currently executing worker, when assigned.
    pub fn assigned_worker(&self) -> Option<WorkerId> {
        match self {
            TaskState::Assigned { worker, .. } => Some(*worker),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point() -> GeoPoint {
        GeoPoint::new(37.98, 23.72)
    }

    #[test]
    fn task_construction() {
        let t = Task::new(TaskId(1), point(), 90.0, 0.05, TaskCategory(2), "desc");
        assert_eq!(t.id, TaskId(1));
        assert_eq!(t.deadline, 90.0);
        assert_eq!(t.reward, 0.05);
        assert_eq!(t.category, TaskCategory(2));
    }

    #[test]
    #[should_panic(expected = "deadline")]
    fn rejects_zero_deadline() {
        let _ = Task::new(TaskId(1), point(), 0.0, 0.0, TaskCategory(0), "");
    }

    #[test]
    #[should_panic(expected = "reward")]
    fn rejects_negative_reward() {
        let _ = Task::new(TaskId(1), point(), 10.0, -1.0, TaskCategory(0), "");
    }

    #[test]
    fn state_predicates() {
        assert!(TaskState::Unassigned.is_open());
        let assigned = TaskState::Assigned {
            worker: WorkerId(3),
            assigned_at: 1.0,
        };
        assert!(assigned.is_open());
        assert_eq!(assigned.assigned_worker(), Some(WorkerId(3)));
        assert_eq!(TaskState::Unassigned.assigned_worker(), None);
        let done = TaskState::Completed {
            worker: WorkerId(3),
            completed_at: 5.0,
            met_deadline: true,
        };
        assert!(!done.is_open());
        assert!(!TaskState::Expired.is_open());
    }
}
