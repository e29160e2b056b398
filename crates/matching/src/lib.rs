//! Weighted bipartite graphs and matching algorithms for REACT.
//!
//! The REACT scheduler models each assignment batch as a weighted
//! bipartite graph `G = (U, V, E)` — workers on one side, unassigned
//! tasks on the other, an edge for every *feasible* assignment — and
//! selects a matching that (approximately) maximises the total edge
//! weight subject to the 1-to-1 constraints.
//!
//! Implemented algorithms, all behind the [`Matcher`] trait:
//!
//! | Algorithm | Paper role | Complexity |
//! |---|---|---|
//! | [`ReactMatcher`] | the contribution (Algorithm 1) | `O(c)` expected, `O(c·E)` worst |
//! | [`MetropolisMatcher`] | randomized baseline (Shih 2008) | `O(c)` |
//! | [`GreedyMatcher`] | quality baseline | `O(V·E)` |
//! | [`HungarianMatcher`] | offline optimum (Kuhn 1955) | `O(n³)` |
//! | [`AuctionMatcher`] | extension: ε-auction (near-optimal) | `O(E·max_w/ε)` |
//! | [`HopcroftKarpMatcher`] | extension: max *cardinality* (throughput-optimal, weight-blind) | `O(E·√V)` |
//! | [`RandomMatcher`] | "traditional" AMT-style uniform assignment | `O(V+E)` |
//!
//! The [`engine`] module hosts the policy layer above the algorithms:
//! [`MatcherSpec`] descriptors and the batch-reusing [`MatcherEngine`].
//!
//! Every matcher reports abstract **cost units** alongside its result so
//! the simulation can charge scheduler compute time through the
//! calibrated [`cost::CostModel`] (see `DESIGN.md`: the paper measured a
//! 2013 JVM on PlanetLab; we reproduce its *relative* costs, not its
//! absolute wall-clock).

#![warn(missing_docs)]

pub mod auction;
pub mod cost;
pub mod engine;
pub mod graph;
pub mod greedy;
pub mod hopcroft_karp;
pub mod hungarian;
pub mod invariants;
pub mod matcher;
pub mod metropolis;
pub mod random;
pub mod react;
pub mod state;

pub use auction::AuctionMatcher;
pub use cost::CostModel;
pub use engine::{MatchContext, MatcherEngine, MatcherSpec};
pub use graph::{BipartiteGraph, EdgeId, GraphError, TaskIdx, WorkerIdx};
pub use greedy::GreedyMatcher;
pub use hopcroft_karp::HopcroftKarpMatcher;
pub use hungarian::HungarianMatcher;
pub use invariants::{InvariantViolation, MatchingValidator};
pub use matcher::{MatchStats, Matcher, Matching};
pub use metropolis::MetropolisMatcher;
pub use random::RandomMatcher;
pub use react::ReactMatcher;
pub use state::MatchingState;
