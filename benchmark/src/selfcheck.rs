//! `benchmark selfcheck`: the A/A test. Two full sets of runs of the
//! same code, back to back, judged the way the driver judges them.

use crate::catalog::{END_TO_END, RUN_SECONDS};
use crate::report::{expected, parse_result};
use crate::stats::{iqr_frac, median, worsening};
use crate::workload::Workload;
use std::process::Command;

/// Runs per set, each with another seed, as the driver makes them.
const RUNS: u64 = 10;

/// Runs one workload once in a child process (so `peak_rss_mb` is the
/// run's own) and returns the end-to-end metric values in catalog order.
fn child(workload: Workload, seed: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name(), "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string()])
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !output.status.success() {
        return Err(format!(
            "{} seed {seed} exited with {}: {last}",
            workload.name(),
            output.status
        ));
    }
    parse_result(last, &expected(false))
}

/// One set: [`RUNS`] runs of `workload`, seeds 1 to `RUNS`. Returns one
/// column of values per end-to-end metric.
fn set(workload: Workload) -> Result<Vec<Vec<f64>>, String> {
    let mut columns = vec![Vec::new(); END_TO_END.len()];
    for seed in 1..=RUNS {
        for (column, value) in columns.iter_mut().zip(child(workload, seed)?) {
            column.push(value);
        }
    }
    Ok(columns)
}

/// Runs two sets per workload and prints, per workload × end-to-end
/// metric, both medians, both spreads (IQR ÷ median over the seeds), how
/// much worse the second median is, and the bound. `Ok(false)` on any
/// breach: a spread above the bound (except `setup_s`, as in the driver)
/// or a second median worse than the first by more than the bound.
pub fn run() -> Result<bool, String> {
    let mut ok = true;
    println!(
        "{:<14} {:<16} {:>13} {:>13} {:>8} {:>8} {:>8} {:>6}",
        "workload", "metric", "median A", "median B", "iqr A", "iqr B", "B worse", "bound"
    );
    for workload in Workload::ALL {
        let a = set(workload)?;
        let b = set(workload)?;
        for ((metric, a), b) in END_TO_END.iter().zip(&a).zip(&b) {
            let (spread_a, spread_b) = (iqr_frac(a), iqr_frac(b));
            let worse = worsening(median(a), median(b), metric.higher_is_better);
            let breach = worse > metric.bound
                || (metric.name != "setup_s" && spread_a.max(spread_b) > metric.bound);
            ok &= !breach;
            println!(
                "{:<14} {:<16} {:>13.6} {:>13.6} {:>8.4} {:>8.4} {:>+8.4} {:>6.2}{}",
                workload.name(),
                metric.name,
                median(a),
                median(b),
                spread_a,
                spread_b,
                worse,
                metric.bound,
                if breach { "  BREACH" } else { "" }
            );
        }
    }
    println!("selfcheck: {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}
