//! The handful of types every REACT embedding imports.
//!
//! ```
//! use react_core::prelude::*;
//!
//! let server = ServerBuilder::new(Config::paper_defaults())
//!     .seed(1)
//!     .build()
//!     .unwrap();
//! assert!(server.tasks().unassigned().is_empty());
//! ```

pub use crate::config::{BatchTrigger, Config, LatencyModelKind, MatcherPolicy, RecoveryConfig};
pub use crate::error::{CoreError, ReactError};
pub use crate::ids::{TaskCategory, TaskId, WorkerId};
pub use crate::server::{CompletionOutcome, ReactServer, ServerBuilder, TickOutcome};
pub use crate::task::{Task, TaskState};

// Re-exported from the leaf crates because almost every embedding needs
// a location for its workers/tasks and a sink for its telemetry.
pub use react_geo::GeoPoint;
pub use react_obs::{null_observer, Observer, ObserverHandle};
