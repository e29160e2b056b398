//! ISSUE 12 specifies the simulated workloads with the modelled matching
//! time charged (`Config::charge_matching_time`, the paper's regime);
//! `sim::build` switches it off because the audit trail then does not
//! verify. This test states what has to hold before it can go back on.

use react_benchmark::catalog::DEFAULT_SEED;
use react_benchmark::sim::{build, run_once, SimSpec};
use react_benchmark::workload::{Options, Workload};
use react_core::verify_lifecycles;

#[test]
#[ignore = "fails until crates/core stops stamping Eq. (2) recalls before the post-dated \
            assignments they recall; then un-ignore it, charge matching time in sim::build \
            and measure the baseline again"]
fn lifecycles_verify_with_matching_time_charged() {
    let opts = Options {
        workload: Workload::DesWidepool,
        seed: DEFAULT_SEED,
        seconds: 1.0,
        traced: false,
        quick: false,
    };
    let SimSpec::Des(mut scenario) = build(&opts, 0) else {
        unreachable!("des-widepool is a single-server workload");
    };
    scenario.config.charge_matching_time = true;
    let run = run_once(&SimSpec::Des(scenario), None, true);
    assert_eq!(run.unaccounted, 0, "conservation closes");
    let tasks: usize = run.audit.iter().map(verify_lifecycles).sum();
    assert_eq!(tasks as u64, run.received);
}
