//! The repo benchmark: five workloads, drift-normalised timing, and a
//! traced per-layer breakdown, all measured from outside the program
//! through its public drivers. See `README.md` for the catalogue.

#![warn(missing_docs)]

pub mod alloc;
pub mod catalog;
pub mod gates;
pub mod loadgen;
pub mod probes;
pub mod procstat;
pub mod refkernel;
pub mod report;
pub mod selfcheck;
pub mod sim;
pub mod stats;
pub mod timing;
pub mod trace;
pub mod wire;
pub mod workload;

use report::RunResult;
use workload::Options;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Runs one workload in one mode.
pub fn run(opts: &Options) -> RunResult {
    match (opts.workload.is_wire(), opts.traced) {
        (false, false) => sim::end_to_end(opts),
        (false, true) => sim::traced(opts),
        (true, false) => wire::end_to_end(opts),
        (true, true) => wire::traced(opts),
    }
}
