//! Workspace invariant checker for the REACT codebase.
//!
//! REACT's correctness claims rest on invariants the Rust compiler cannot
//! see: runs must be bit-identically reproducible from a seed (so no
//! ambient wall-clock or RNG in scheduling code), library crates must
//! surface failures as typed errors rather than panics, and weighted
//! edges must never be compared with exact float equality. This crate is
//! a small, fully offline static analysis engine that enforces those
//! project rules over the workspace's `.rs` files — no rustc plugin, no
//! network, no third-party parser.
//!
//! Two layers:
//!
//! * **token rules** ([`rules`]) match patterns over comment/string
//!   stripped code lines;
//! * **symbol-aware rules** ([`parser`], [`symbols`]) run over a
//!   lightweight item-level parse (items, enum variants, typed bindings,
//!   string literals with call-site callees, `.spawn(` closure spans)
//!   plus a cross-file symbol table — unordered hash iteration in
//!   scheduling-visible crates, RNG stream discipline across thread
//!   boundaries, observer-catalog consistency, and audit-event
//!   transition-table exhaustiveness.
//!
//! The engine is rule-driven ([`rules`]) and walks the workspace
//! ([`workspace`]). It is zero-tolerance: there is no file of
//! grandfathered violations, so every violation fails the check.
//!
//! Escape hatches, for code whose violation is *by design*:
//!
//! * `analyze: allow(<rule>)` in a comment — exempts the same line (or,
//!   when the comment stands alone, the next line);
//! * `analyze: allow-file(<rule>)` in a comment — exempts the whole file.
//!
//! Both markers should carry a trailing justification. The CLI
//! (`cargo run -p react-analyze`) exits non-zero on any violation,
//! which is how CI consumes it.

pub mod parser;
pub mod rules;
pub mod symbols;
pub mod workspace;

pub use rules::{Rule, Violation};
pub use symbols::{FileAnalysis, SymbolTable};
pub use workspace::{CheckOutcome, Workspace};
