//! Auxiliary distributions for the workload generators.
//!
//! Only the approved `rand` crate is available offline, so the handful of
//! distributions the REACT workloads need (uniform ranges, exponential
//! inter-arrivals for Poisson processes, Bernoulli coin flips, bounded
//! Pareto tails for the case-study trace) are implemented here directly
//! via inverse-transform sampling.

use rand::Rng;

/// A closed uniform range `[lo, hi]` over `f64`.
///
/// Workers in the paper's evaluation each draw their service time from a
/// personal `[min, max]` range, itself drawn uniformly from `[1, 20]` s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformRange {
    lo: f64,
    hi: f64,
}

impl UniformRange {
    /// Creates the range, swapping the bounds if given in reverse order.
    pub fn new(lo: f64, hi: f64) -> Self {
        if lo <= hi {
            UniformRange { lo, hi }
        } else {
            UniformRange { lo: hi, hi: lo }
        }
    }

    /// Draws a value uniformly from `[lo, hi]`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.lo == self.hi {
            return self.lo;
        }
        rng.gen_range(self.lo..=self.hi)
    }
}

/// Exponential distribution with rate `lambda` (mean `1/lambda`), the
/// inter-arrival law of a Poisson process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential with rate `lambda > 0`.
    ///
    /// # Panics
    /// Panics when `lambda` is not strictly positive or not finite; the
    /// rate is always a static configuration value in this codebase.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda > 0.0 && lambda.is_finite(),
            "exponential rate must be positive and finite, got {lambda}"
        );
        Exponential { lambda }
    }

    /// Inverse-transform sample: `−ln(u)/λ`, `u ~ U(0,1]`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u = 1.0 - rng.gen::<f64>(); // (0, 1]
        -u.ln() / self.lambda
    }
}

/// A Bernoulli coin with success probability `p ∈ [0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bernoulli {
    p: f64,
}

impl Bernoulli {
    /// Creates the coin, clamping `p` into `[0, 1]`.
    pub fn new(p: f64) -> Self {
        Bernoulli {
            p: p.clamp(0.0, 1.0),
        }
    }

    /// Flips the coin.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        if self.p >= 1.0 {
            true
        } else if self.p <= 0.0 {
            false
        } else {
            rng.gen::<f64>() < self.p
        }
    }
}

/// A Pareto distribution truncated to `[lo, hi]` — used to synthesise the
/// CrowdFlower case-study response times (fast head, hours-long tail).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    alpha: f64,
    lo: f64,
    hi: f64,
}

impl BoundedPareto {
    /// Creates a bounded Pareto with shape `alpha > 0` on `[lo, hi]`,
    /// `0 < lo < hi`.
    ///
    /// # Panics
    /// Panics on invalid static parameters.
    pub fn new(alpha: f64, lo: f64, hi: f64) -> Self {
        assert!(alpha > 0.0 && alpha.is_finite(), "invalid shape {alpha}");
        assert!(0.0 < lo && lo < hi, "invalid bounds [{lo}, {hi}]");
        BoundedPareto { alpha, lo, hi }
    }

    /// Inverse-transform sample from the truncated Pareto.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen();
        let la = self.lo.powf(self.alpha);
        let ha = self.hi.powf(self.alpha);
        // Inverse CDF of the truncated Pareto.
        let x = (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / self.alpha);
        x.clamp(self.lo, self.hi)
    }
}

/// A homogeneous Poisson arrival process with a fixed rate, producing an
/// increasing stream of arrival timestamps.
#[derive(Debug, Clone)]
pub struct PoissonProcess {
    inter: Exponential,
    now: f64,
}

impl PoissonProcess {
    /// Creates a process with `rate` arrivals per second starting at t=0.
    pub fn new(rate: f64) -> Self {
        PoissonProcess {
            inter: Exponential::new(rate),
            now: 0.0,
        }
    }

    /// Advances to and returns the next arrival timestamp.
    pub fn next_arrival<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        self.now += self.inter.sample(rng);
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(123)
    }

    #[test]
    fn uniform_range_swaps_reversed_bounds() {
        let r = UniformRange::new(9.0, 2.0);
        let mut g = rng();
        assert!((0..1_000).all(|_| (2.0..=9.0).contains(&r.sample(&mut g))));
    }

    #[test]
    fn uniform_samples_stay_in_range_and_cover_it() {
        let r = UniformRange::new(1.0, 20.0);
        let mut g = rng();
        let samples: Vec<f64> = (0..10_000).map(|_| r.sample(&mut g)).collect();
        assert!(samples.iter().all(|s| (1.0..=20.0).contains(s)));
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 10.5).abs() < 0.3, "mean {mean}");
    }

    #[test]
    fn degenerate_uniform_range() {
        let r = UniformRange::new(4.0, 4.0);
        let mut g = rng();
        assert_eq!(r.sample(&mut g), 4.0);
    }

    #[test]
    fn exponential_mean_matches() {
        let e = Exponential::new(1.0 / 8.0);
        let mut g = rng();
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| e.sample(&mut g)).sum::<f64>() / n as f64;
        assert!((mean - 8.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "exponential rate")]
    fn exponential_rejects_zero_rate() {
        let _ = Exponential::new(0.0);
    }

    #[test]
    fn bernoulli_frequency() {
        let b = Bernoulli::new(0.7);
        let mut g = rng();
        let hits = (0..20_000).filter(|_| b.sample(&mut g)).count();
        let freq = hits as f64 / 20_000.0;
        assert!((freq - 0.7).abs() < 0.02, "freq {freq}");
    }

    #[test]
    fn bernoulli_extremes_and_clamping() {
        let mut g = rng();
        assert!(Bernoulli::new(1.0).sample(&mut g));
        assert!(!Bernoulli::new(0.0).sample(&mut g));
        assert!((0..100).all(|_| Bernoulli::new(2.0).sample(&mut g)));
        assert!(!(0..100).any(|_| Bernoulli::new(-1.0).sample(&mut g)));
    }

    #[test]
    fn bounded_pareto_stays_in_bounds() {
        let p = BoundedPareto::new(1.1, 2.0, 21_600.0);
        let mut g = rng();
        for _ in 0..10_000 {
            let s = p.sample(&mut g);
            assert!((2.0..=21_600.0).contains(&s));
        }
    }

    #[test]
    fn bounded_pareto_is_heavy_headed() {
        // Most mass near the lower bound: the case-study shape (half the
        // responses in seconds, the tail in hours).
        let p = BoundedPareto::new(1.0, 2.0, 21_600.0);
        let mut g = rng();
        let samples: Vec<f64> = (0..20_000).map(|_| p.sample(&mut g)).collect();
        let below20 = samples.iter().filter(|&&s| s < 20.0).count() as f64 / 20_000.0;
        assert!(below20 > 0.2, "head fraction {below20}");
        let above_hour = samples.iter().filter(|&&s| s > 3_600.0).count();
        assert!(above_hour > 0, "tail must reach hours");
    }

    #[test]
    #[should_panic(expected = "invalid bounds")]
    fn bounded_pareto_rejects_bad_bounds() {
        let _ = BoundedPareto::new(1.0, 5.0, 5.0);
    }

    #[test]
    fn poisson_process_rate() {
        // 9.375 tasks/s is the paper's Fig. 5 arrival rate.
        let mut p = PoissonProcess::new(9.375);
        let mut g = rng();
        let mut last = 0.0;
        let n = 40_000;
        for _ in 0..n {
            let t = p.next_arrival(&mut g);
            assert!(t > last, "arrivals must strictly increase");
            last = t;
        }
        let measured_rate = n as f64 / last;
        assert!(
            (measured_rate - 9.375).abs() / 9.375 < 0.03,
            "rate {measured_rate}"
        );
    }
}
