//! Exponential-bucket histogram for latency-like distributions.

/// A histogram with exponentially growing bucket bounds.
///
/// Latency distributions in the scheduler span many orders of magnitude
/// (a stage timer may read hundreds of nanoseconds, a matching batch
/// tens of milliseconds), so buckets grow geometrically: bucket `i`
/// (for `i < n-1`) covers `(first * factor^(i-1), first * factor^i]`,
/// with bucket 0 covering `[0, first]` and the last bucket catching
/// everything above the largest bound, including non-finite values.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    first_bound: f64,
    factor: f64,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    /// The largest finite value recorded: the quantiles' ceiling.
    max: f64,
}

impl Histogram {
    /// Default layout: 40 buckets starting at 1 µs growing ×2, covering
    /// roughly 1e-6 s … 5e5 s before the overflow bucket.
    pub fn new() -> Self {
        Histogram::with_layout(1e-6, 2.0, 40)
    }

    /// Custom layout. `first_bound` must be positive and finite,
    /// `factor` must exceed 1, and there must be at least 2 buckets;
    /// out-of-range arguments are clamped to the nearest valid value.
    pub fn with_layout(first_bound: f64, factor: f64, buckets: usize) -> Self {
        let first_bound = if first_bound.is_finite() && first_bound > 0.0 {
            first_bound
        } else {
            1e-6
        };
        let factor = if factor.is_finite() && factor > 1.0 {
            factor
        } else {
            2.0
        };
        let buckets = buckets.max(2);
        Histogram {
            first_bound,
            factor,
            counts: vec![0; buckets],
            count: 0,
            sum: 0.0,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one value.
    pub fn record(&mut self, value: f64) {
        let idx = self.bucket_index(value);
        self.counts[idx] += 1;
        self.count += 1;
        if value.is_finite() {
            self.sum += value;
            self.max = self.max.max(value);
        }
    }

    /// Index of the bucket `value` falls into.
    ///
    /// Negative values land in bucket 0; non-finite values land in the
    /// overflow bucket.
    pub fn bucket_index(&self, value: f64) -> usize {
        let last = self.counts.len() - 1;
        if !value.is_finite() {
            return last;
        }
        if value <= self.first_bound {
            return 0;
        }
        // Smallest i with first_bound * factor^i >= value.
        let i = (value / self.first_bound).ln() / self.factor.ln();
        let i = i.ceil() as usize;
        i.min(last)
    }

    /// Inclusive upper bound of bucket `i` (infinite for the last).
    pub fn bucket_upper(&self, i: usize) -> f64 {
        if i + 1 >= self.counts.len() {
            f64::INFINITY
        } else {
            self.first_bound * self.factor.powi(i as i32)
        }
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of finite recorded values, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }

    /// Approximate quantile (`q` in `[0, 1]`) read from bucket bounds:
    /// returns the upper bound of the bucket containing the `q`-th
    /// value. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(self.bucket_upper(i).min(self.max.max(self.first_bound)));
            }
        }
        Some(self.bucket_upper(self.counts.len() - 1))
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_bucket_catches_small_and_negative() {
        let h = Histogram::with_layout(1e-6, 2.0, 8);
        assert_eq!(h.bucket_index(0.0), 0);
        assert_eq!(h.bucket_index(-5.0), 0);
        assert_eq!(h.bucket_index(1e-6), 0);
        assert_eq!(h.bucket_index(5e-7), 0);
    }

    #[test]
    fn bucket_bounds_are_geometric_and_half_open() {
        let h = Histogram::with_layout(1e-6, 2.0, 8);
        // (1e-6, 2e-6] -> bucket 1, (2e-6, 4e-6] -> bucket 2, ...
        assert_eq!(h.bucket_index(1.5e-6), 1);
        assert_eq!(h.bucket_index(2e-6), 1);
        assert_eq!(h.bucket_index(2.1e-6), 2);
        assert_eq!(h.bucket_index(4e-6), 2);
        assert!((h.bucket_upper(0) - 1e-6).abs() < 1e-18);
        assert!((h.bucket_upper(1) - 2e-6).abs() < 1e-18);
        assert!((h.bucket_upper(2) - 4e-6).abs() < 1e-18);
    }

    #[test]
    fn overflow_bucket_catches_large_and_nonfinite() {
        let h = Histogram::with_layout(1e-6, 2.0, 4);
        // Bounds: 1e-6, 2e-6, 4e-6, then overflow.
        assert_eq!(h.bucket_index(1.0), 3);
        assert_eq!(h.bucket_index(f64::INFINITY), 3);
        assert_eq!(h.bucket_index(f64::NAN), 3);
        assert_eq!(h.bucket_upper(3), f64::INFINITY);
    }

    #[test]
    fn record_tracks_count_and_mean() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), None);
        for v in [0.001, 0.002, 0.004] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert!((h.mean().unwrap() - 0.007 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_is_monotone_and_bounded() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64 * 1e-5);
        }
        let q50 = h.quantile(0.5).unwrap();
        let q99 = h.quantile(0.99).unwrap();
        assert!(q50 <= q99);
        assert!(q99 <= 1000.0 * 1e-5 * 2.0 + 1e-12);
        assert_eq!(Histogram::new().quantile(0.5), None);
    }

    #[test]
    fn degenerate_layouts_are_clamped() {
        let h = Histogram::with_layout(-1.0, 0.5, 0);
        assert!(h.counts.len() >= 2);
        assert!(h.first_bound > 0.0);
        assert!(h.factor > 1.0);
    }
}
