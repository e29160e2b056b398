//! Weighted bipartite graphs and matching algorithms for REACT.
//!
//! The REACT scheduler models each assignment batch as a weighted
//! bipartite graph `G = (U, V, E)` — workers on one side, unassigned
//! tasks on the other, an edge for every *feasible* assignment — and
//! selects a matching that (approximately) maximises the total edge
//! weight subject to the 1-to-1 constraints.
//!
//! Five algorithms, all behind the [`Matcher`] trait:
//!
//! | Algorithm | Paper role | Scheduler policy | Complexity |
//! |---|---|---|---|
//! | [`ReactMatcher`] | the contribution (Algorithm 1) | `React`, `ReactAdaptive` | `O(c)` expected, `O(c·E)` worst |
//! | [`GreedyMatcher`] | quality baseline | `Greedy` | `O(V·E)` |
//! | [`RandomMatcher`] | "traditional" AMT-style uniform assignment | `Traditional` | `O(V+E)` |
//! | [`MetropolisMatcher`] | randomized matching baseline of Figs. 3–4 (Shih 2008) | — | `O(c)` |
//! | [`HungarianMatcher`] | offline optimum of Figs. 3–4 (Kuhn 1955) | — | `O(n³)` |
//!
//! The [`engine`] module is the policy layer above the algorithms: the
//! four-variant [`MatcherPolicy`] — the only definition of which
//! matchers the scheduler can run — and the batch-reusing
//! [`MatcherEngine`]. Metropolis and Hungarian are matching baselines
//! only; callers construct them directly.
//!
//! Every matcher reports abstract **cost units** alongside its result so
//! the simulation can charge scheduler compute time through the
//! calibrated [`cost::CostModel`] (see `DESIGN.md`: the paper measured a
//! 2013 JVM on PlanetLab; we reproduce its *relative* costs, not its
//! absolute wall-clock).

#![warn(missing_docs)]
// No panics in library code: a failure is a typed error, an internal
// condition a `debug_assert!`.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
// Hash order varies between runs, so scheduling never iterates a hash
// container (the iterating methods are in the root `clippy.toml`).
#![warn(clippy::iter_over_hash_type)]

pub mod cost;
pub mod engine;
pub mod graph;
pub mod greedy;
pub mod hungarian;
pub mod invariants;
pub mod matcher;
pub mod random;
pub mod react;
pub mod state;

pub use cost::CostModel;
pub use engine::{MatcherEngine, MatcherPolicy};
pub use graph::{BipartiteGraph, EdgeId, GraphError, TaskIdx, WorkerIdx};
pub use greedy::GreedyMatcher;
pub use hungarian::HungarianMatcher;
pub use invariants::{InvariantViolation, MatchingValidator};
pub use matcher::{MatchStats, Matcher, Matching};
pub use random::RandomMatcher;
pub use react::{MetropolisMatcher, ReactMatcher};
pub use state::MatchingState;
