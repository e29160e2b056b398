//! Summary statistics used by the profiling component and the experiment
//! harness: running moments (Welford) and percentile summaries.

/// Numerically stable running mean/variance (Welford's algorithm).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Sample variance with Bessel's correction (`None` for n < 2).
    pub fn variance(&self) -> Option<f64> {
        (self.n > 1).then(|| self.m2 / (self.n - 1) as f64)
    }

    /// Sample standard deviation (`None` for n < 2).
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A percentile summary computed from a full sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples summarised.
    pub count: usize,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (0 for a single sample).
    pub std_dev: f64,
    /// Median (p50).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Builds a summary from `samples`. Returns `None` for an empty slice
    /// or when any sample is NaN.
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() || samples.iter().any(|s| s.is_nan()) {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mut acc = Welford::new();
        for &s in samples {
            acc.push(s);
        }
        Some(Summary {
            count: samples.len(),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            mean: acc.mean()?,
            std_dev: acc.std_dev().unwrap_or(0.0),
            p50: percentile_sorted(&sorted, 0.50),
            p90: percentile_sorted(&sorted, 0.90),
            p99: percentile_sorted(&sorted, 0.99),
        })
    }
}

/// Linear-interpolation percentile over an already-sorted slice.
///
/// # Panics
/// Panics on an empty slice (callers always check).
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    let q = q.clamp(0.0, 1.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let idx = pos.floor() as usize;
    let frac = pos - idx as f64;
    if idx + 1 < sorted.len() {
        sorted[idx] * (1.0 - frac) + sorted[idx + 1] * frac
    } else {
        sorted[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean().unwrap() - 5.0).abs() < 1e-12);
        // Naive sample variance = Σ(x−5)² / 7 = 32/7.
        assert!((w.variance().unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(w.min(), Some(2.0));
        assert_eq!(w.max(), Some(9.0));
    }

    #[test]
    fn welford_empty_and_single() {
        let w = Welford::new();
        assert_eq!(w.mean(), None);
        assert_eq!(w.variance(), None);
        assert_eq!(w.min(), None);
        let mut w = Welford::new();
        w.push(3.0);
        assert_eq!(w.mean(), Some(3.0));
        assert_eq!(w.variance(), None);
        assert_eq!(w.std_dev(), None);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 20.0).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-9);
        assert!((a.variance().unwrap() - whole.variance().unwrap()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut a = Welford::new();
        a.push(1.0);
        let b = Welford::new();
        let before = a;
        a.merge(&b);
        assert_eq!(a, before);
        let mut empty = Welford::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn summary_percentiles() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::from_samples(&samples).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 50.5).abs() < 1e-12);
        assert!((s.p50 - 50.5).abs() < 1e-9);
        assert!((s.p90 - 90.1).abs() < 1e-9);
        assert!((s.p99 - 99.01).abs() < 1e-9);
    }

    #[test]
    fn summary_rejects_empty_and_nan() {
        assert!(Summary::from_samples(&[]).is_none());
        assert!(Summary::from_samples(&[1.0, f64::NAN]).is_none());
    }

    #[test]
    fn summary_single_sample() {
        let s = Summary::from_samples(&[42.0]).unwrap();
        assert_eq!(s.min, 42.0);
        assert_eq!(s.max, 42.0);
        assert_eq!(s.p50, 42.0);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn percentile_boundaries() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(percentile_sorted(&sorted, 1.0), 4.0);
        assert!((percentile_sorted(&sorted, 0.5) - 2.5).abs() < 1e-12);
        // Out-of-range q is clamped.
        assert_eq!(percentile_sorted(&sorted, 2.0), 4.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        let _ = percentile_sorted(&[], 0.5);
    }
}
