//! Percentile, quartile and normalisation arithmetic.

use react_benchmark::procstat::parse_vm_hwm_kb;
use react_benchmark::refkernel::{normalise, K_REF};
use react_benchmark::stats::{iqr_frac, median, percentile, quartiles, worsening};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

#[test]
fn percentile_is_nearest_rank() {
    let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&sorted, 50.0), 50.0);
    assert_eq!(percentile(&sorted, 95.0), 95.0);
    assert_eq!(percentile(&sorted, 100.0), 100.0);
    assert_eq!(percentile(&sorted, 0.0), 1.0);
    assert_eq!(percentile(&[7.0], 95.0), 7.0);
    // 4500 samples leave 225 beyond p95.
    let many: Vec<f64> = (0..4500).map(f64::from).collect();
    let p95 = percentile(&many, 95.0);
    assert_eq!(many.iter().filter(|&&v| v > p95).count(), 225);
}

#[test]
fn median_handles_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    let q = quartiles(&ten);
    assert!(
        close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25),
        "{q:?}"
    );
    // statistics.quantiles([10, 2, 38, 23, 38, 23, 21], n=4) == [10.0, 23.0, 38.0]
    let q = quartiles(&[10.0, 2.0, 38.0, 23.0, 38.0, 23.0, 21.0]);
    assert!(
        close(q[0], 10.0) && close(q[1], 23.0) && close(q[2], 38.0),
        "{q:?}"
    );
    // Two values: the cut points extrapolate, as Python's do.
    let q = quartiles(&[1.0, 2.0]);
    assert!(close(q[0], 0.75) && close(q[2], 2.25), "{q:?}");
    assert!(close(iqr_frac(&ten), 5.5 / 5.5));
}

#[test]
fn normalisation_divides_by_the_bracketing_kernel_mean() {
    // A host running at half speed doubles both the kernel and the
    // repetition: the reference time does not move.
    assert!(close(normalise(1.0, K_REF, K_REF), 1.0));
    assert!(close(normalise(2.0, 2.0 * K_REF, 2.0 * K_REF), 1.0));
    assert!(close(normalise(3.0, K_REF, 3.0 * K_REF), 1.5));
}

#[test]
fn worsening_follows_the_metric_direction() {
    assert!(close(worsening(100.0, 90.0, true), 0.10));
    assert!(close(worsening(100.0, 110.0, true), -0.10));
    assert!(close(worsening(2.0, 2.5, false), 0.25));
    assert!(close(worsening(2.0, 1.5, false), -0.25));
}

#[test]
fn vm_hwm_is_read_from_status_text() {
    let status = "Name:\tbenchmark\nVmPeak:\t  999 kB\nVmHWM:\t   34816 kB\nVmRSS:\t 100 kB\n";
    assert_eq!(parse_vm_hwm_kb(status), Some(34816.0));
    assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
}
