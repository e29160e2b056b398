//! Error type for middleware operations.

use crate::ids::{TaskId, WorkerId};
use std::fmt;

/// Errors surfaced by the REACT middleware's public API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The worker id is not registered.
    UnknownWorker(WorkerId),
    /// The task id is not tracked (never submitted, or already retired).
    UnknownTask(TaskId),
    /// A worker id was registered twice.
    DuplicateWorker(WorkerId),
    /// A task id was submitted twice.
    DuplicateTask(TaskId),
    /// The operation requires the task to be assigned to this worker.
    NotAssigned {
        /// The task in question.
        task: TaskId,
        /// The worker claimed to be executing it.
        worker: WorkerId,
    },
    /// A configuration rejected by [`crate::Config::validate`] (returned
    /// by `ServerBuilder::build`) or a cluster policy rejected by
    /// `Cluster::new`.
    InvalidConfig {
        /// What is wrong with the configuration.
        reason: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnknownWorker(w) => write!(f, "unknown {w}"),
            CoreError::UnknownTask(t) => write!(f, "unknown {t}"),
            CoreError::DuplicateWorker(w) => write!(f, "{w} already registered"),
            CoreError::DuplicateTask(t) => write!(f, "{t} already submitted"),
            CoreError::NotAssigned { task, worker } => {
                write!(f, "{task} is not assigned to {worker}")
            }
            CoreError::InvalidConfig { reason } => {
                write!(f, "invalid configuration: {reason}")
            }
        }
    }
}

impl std::error::Error for CoreError {}

/// Public-facing alias: the error type REACT's middleware API returns.
pub type ReactError = CoreError;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            CoreError::UnknownWorker(WorkerId(1)).to_string(),
            "unknown worker#1"
        );
        assert_eq!(
            CoreError::DuplicateTask(TaskId(2)).to_string(),
            "task#2 already submitted"
        );
        let e = CoreError::NotAssigned {
            task: TaskId(1),
            worker: WorkerId(2),
        };
        assert!(e.to_string().contains("not assigned"));
        let e = CoreError::InvalidConfig {
            reason: "batch.min_unassigned must be at least 1".into(),
        };
        assert!(e.to_string().starts_with("invalid configuration:"));
    }
}
