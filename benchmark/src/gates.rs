//! Workload validity gates and the stage-sum check of a traced run. A
//! workload that fails its gate is not measuring what its name says; the
//! verdicts are printed and counted in `bench.gates_failed`, they do not
//! fail the run (a later optimisation may legitimately move a share).

use crate::report::RunResult;

/// The stage-sum check: the five stage spans must cover the tick span
/// within 10 %, and the ticks must fit inside the region they were
/// recorded in. Self time is *defined* as region minus ticks, so "tick +
/// self time = wall" holds by construction and is not checked.
pub fn stage_sum(unattributed_frac: f64, outside_ticks_us: f64) -> Vec<(String, bool)> {
    vec![
        (
            format!("stage spans cover the tick span: residual {unattributed_frac:.4} within 0.10"),
            unattributed_frac.abs() <= 0.10,
        ),
        (
            format!(
                "tick spans fit inside the timed region: {outside_ticks_us:.3} us/task outside"
            ),
            outside_ticks_us >= 0.0,
        ),
    ]
}

/// Prints every verdict and sets `bench.gates_failed`.
pub fn apply(result: &mut RunResult, gates: Vec<(String, bool)>) {
    let failed = gates.iter().filter(|(_, pass)| !pass).count();
    for (what, pass) in gates {
        let verdict = if pass { "PASS" } else { "FAIL" };
        result.notes.push(format!("gate {verdict}: {what}"));
    }
    result.metrics.set("bench.gates_failed", failed as f64);
}
