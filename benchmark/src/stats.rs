//! Percentile, median and spread arithmetic.

/// Nearest-rank percentile (`p` in 0–100) of an ascending-sorted slice.
///
/// # Panics
/// Panics on an empty slice: every caller has samples or has already
/// failed the run.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts ascending by total order.
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), so that
/// `selfcheck` sees the spread the driver sees. Needs two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    let mut cuts = [0.0; 3];
    for (i, cut) in cuts.iter_mut().enumerate() {
        let m = (i + 1) * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (j * 4) as f64;
        *cut = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    cuts
}

/// Interquartile range as a share of the median.
pub fn iqr_frac(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// By how much `second` is worse than `first`, as a share of `first`
/// (negative = better), for a metric where `higher_is_better` or not.
pub fn worsening(first: f64, second: f64, higher_is_better: bool) -> f64 {
    let delta = if higher_is_better {
        first - second
    } else {
        second - first
    };
    delta / first.abs()
}
