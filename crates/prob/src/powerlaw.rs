//! Continuous power-law distribution with maximum-likelihood fitting.
//!
//! A quantity `k` follows a power law when it is drawn from
//! `p(k) ∝ k^{−α}` for `k ≥ k_min > 0`. The REACT paper uses the
//! complementary CDF
//!
//! ```text
//! P(k) = Pr(K ≥ k) = (k / k_min)^{−α + 1}
//! ```
//!
//! to estimate the probability that a worker's next execution time exceeds
//! a given bound, and estimates the exponent from observed execution times
//! `k_1 … k_n` as
//!
//! ```text
//! α = 1 + n · [ Σ_i ln( k_i / (k_min − ½) ) ]^{-1}          (paper / CSN discrete)
//! α = 1 + n · [ Σ_i ln( k_i / k_min ) ]^{-1}                (CSN continuous)
//! ```
//!
//! Both estimators are available via [`FitMethod`]; the discrete variant
//! falls back to the continuous one when `k_min ≤ ½` (where its offset
//! would make the logarithm undefined).

use rand::Rng;
use std::fmt;

/// Errors produced by power-law construction and fitting.
#[derive(Debug, Clone, PartialEq)]
pub enum PowerLawError {
    /// `alpha` must be strictly greater than 1 for the CCDF to decay.
    InvalidAlpha(f64),
    /// `k_min` must be strictly positive.
    InvalidKMin(f64),
    /// Fitting needs at least one sample (callers usually demand more).
    NotEnoughSamples {
        /// Samples provided.
        have: usize,
        /// Samples required.
        need: usize,
    },
    /// A sample was not positive or below `k_min` at fit time.
    InvalidSample(f64),
}

impl fmt::Display for PowerLawError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PowerLawError::InvalidAlpha(a) => {
                write!(f, "power-law exponent must be > 1, got {a}")
            }
            PowerLawError::InvalidKMin(k) => {
                write!(f, "power-law lower bound k_min must be > 0, got {k}")
            }
            PowerLawError::NotEnoughSamples { have, need } => {
                write!(
                    f,
                    "power-law fit needs at least {need} samples, have {have}"
                )
            }
            PowerLawError::InvalidSample(s) => {
                write!(f, "power-law sample must be positive and ≥ k_min, got {s}")
            }
        }
    }
}

impl std::error::Error for PowerLawError {}

/// Which maximum-likelihood estimator to use for the exponent `α`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FitMethod {
    /// The estimator printed in the REACT paper (the Clauset–Shalizi–Newman
    /// discrete approximation): `α = 1 + n [Σ ln(k_i/(k_min − ½))]⁻¹`.
    ///
    /// Falls back to [`FitMethod::Continuous`] when `k_min ≤ ½`.
    #[default]
    Paper,
    /// The continuous CSN estimator: `α = 1 + n [Σ ln(k_i/k_min)]⁻¹`.
    Continuous,
}

impl FitMethod {
    /// What the fit divides each sample by before its logarithm, for the
    /// lower bound `k_min`. The paper's discrete approximation offsets the
    /// denominator by ½; that is only meaningful when `k_min > ½`.
    pub(crate) fn denom_base(self, k_min: f64) -> f64 {
        match self {
            FitMethod::Paper if k_min > 0.5 => k_min - 0.5,
            _ => k_min,
        }
    }
}

/// A continuous power-law (Pareto type-I) distribution `p(k) ∝ k^{−α}`,
/// supported on `[k_min, ∞)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLaw {
    alpha: f64,
    k_min: f64,
    /// Cached `−1/(α−1)`: the exponent shared by [`PowerLaw::quantile`]
    /// and inverse-transform sampling, computed once at construction.
    inv_exp: f64,
}

impl PowerLaw {
    /// Creates a power law with exponent `alpha > 1` and lower bound
    /// `k_min > 0`.
    pub fn new(alpha: f64, k_min: f64) -> Result<Self, PowerLawError> {
        if alpha <= 1.0 || !alpha.is_finite() {
            return Err(PowerLawError::InvalidAlpha(alpha));
        }
        if k_min <= 0.0 || !k_min.is_finite() {
            return Err(PowerLawError::InvalidKMin(k_min));
        }
        Ok(PowerLaw {
            alpha,
            k_min,
            inv_exp: -1.0 / (alpha - 1.0),
        })
    }

    /// The scaling exponent `α`.
    #[inline]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The lower bound of power-law behaviour, `k_min`.
    #[inline]
    pub fn k_min(&self) -> f64 {
        self.k_min
    }

    /// Probability density `p(k) = (α−1)/k_min · (k/k_min)^{−α}` for
    /// `k ≥ k_min`, 0 otherwise.
    pub fn pdf(&self, k: f64) -> f64 {
        if k < self.k_min {
            return 0.0;
        }
        (self.alpha - 1.0) / self.k_min * (k / self.k_min).powf(-self.alpha)
    }

    /// Complementary CDF `P(k) = Pr(K ≥ k) = (k/k_min)^{−α+1}`.
    ///
    /// For `k < k_min` the CCDF is 1 (all mass lies above `k_min`).
    pub fn ccdf(&self, k: f64) -> f64 {
        if k <= self.k_min {
            return 1.0;
        }
        (k / self.k_min).powf(1.0 - self.alpha)
    }

    /// CDF `Pr(K < k) = 1 − P(k)`.
    pub fn cdf(&self, k: f64) -> f64 {
        1.0 - self.ccdf(k)
    }

    /// The `q`-quantile (`0 ≤ q < 1`): the value `k` with `cdf(k) = q`.
    pub fn quantile(&self, q: f64) -> f64 {
        debug_assert!((0.0..1.0).contains(&q));
        self.inverse_ccdf(1.0 - q)
    }

    /// The value `k ≥ k_min` with `ccdf(k) = p` (`0 < p ≤ 1`):
    /// `k_min · p^{−1/(α−1)}`. Takes the tail probability directly, so a
    /// small `p` is not first rounded through `1 − p`.
    pub fn inverse_ccdf(&self, p: f64) -> f64 {
        self.k_min * p.powf(self.inv_exp)
    }

    /// Draws one sample via inverse-transform sampling:
    /// `k = k_min · u^{−1/(α−1)}` with `u ~ U(0,1]`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // `gen::<f64>()` yields [0,1); flip to (0,1] so the power is finite.
        let u = 1.0 - rng.gen::<f64>();
        self.k_min * u.powf(self.inv_exp)
    }

    /// Draws `n` samples into a fresh vector.
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Fits a power law to `samples` with the given lower bound and
    /// estimator. All samples must be ≥ `k_min` and positive.
    ///
    /// Returns [`PowerLawError::NotEnoughSamples`] for an empty slice and
    /// [`PowerLawError::InvalidSample`] if any sample is invalid.
    pub fn fit(samples: &[f64], k_min: f64, method: FitMethod) -> Result<Self, PowerLawError> {
        if samples.is_empty() {
            return Err(PowerLawError::NotEnoughSamples { have: 0, need: 1 });
        }
        if k_min <= 0.0 || !k_min.is_finite() {
            return Err(PowerLawError::InvalidKMin(k_min));
        }
        let denom_base = method.denom_base(k_min);
        let mut log_sum = 0.0;
        for &s in samples {
            if s <= 0.0 || !s.is_finite() || s < k_min {
                return Err(PowerLawError::InvalidSample(s));
            }
            log_sum += (s / denom_base).ln();
        }
        PowerLaw::from_log_sum(samples.len(), log_sum, k_min)
    }

    /// The fit of `n` samples whose terms `ln(k_i / denom_base)` sum, in
    /// sample order, to `log_sum`: the closing step of [`PowerLaw::fit`],
    /// for a caller that keeps the sum as samples arrive.
    pub(crate) fn from_log_sum(n: usize, log_sum: f64, k_min: f64) -> Result<Self, PowerLawError> {
        // All samples equal to k_min (continuous method) gives log_sum = 0
        // → α = ∞. Clamp to a large-but-finite exponent: the distribution
        // is then a near-point-mass at k_min, which is the right limit.
        let alpha = if log_sum <= f64::EPSILON {
            MAX_FITTED_ALPHA
        } else {
            (1.0 + n as f64 / log_sum).min(MAX_FITTED_ALPHA)
        };
        PowerLaw::new(alpha, k_min)
    }

    /// Kolmogorov–Smirnov statistic between this distribution and the
    /// empirical CDF of `samples` (only samples ≥ `k_min` are compared).
    /// Smaller is a better fit.
    pub fn ks_statistic(&self, samples: &[f64]) -> f64 {
        self.ks_statistic_with(samples, &mut Vec::new())
    }

    /// [`PowerLaw::ks_statistic`] with a caller-owned scratch buffer, so
    /// repeated goodness-of-fit checks (the auto-`k_min` refit loop runs
    /// one per refit) reuse a single allocation instead of building a
    /// fresh filtered copy of the sample set every call.
    pub fn ks_statistic_with(&self, samples: &[f64], scratch: &mut Vec<f64>) -> f64 {
        scratch.clear();
        scratch.extend(samples.iter().copied().filter(|&s| s >= self.k_min));
        if scratch.is_empty() {
            return 1.0;
        }
        scratch.sort_by(f64::total_cmp);
        let n = scratch.len() as f64;
        let mut d = 0.0f64;
        for (i, &x) in scratch.iter().enumerate() {
            let model = self.cdf(x);
            let emp_lo = i as f64 / n;
            let emp_hi = (i + 1) as f64 / n;
            d = d.max((model - emp_lo).abs()).max((model - emp_hi).abs());
        }
        d
    }
}

/// Cap applied to fitted exponents so that degenerate sample sets (all
/// samples equal) produce a usable near-point-mass distribution instead of
/// an error.
pub const MAX_FITTED_ALPHA: f64 = 64.0;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_invalid_parameters() {
        assert!(matches!(
            PowerLaw::new(1.0, 1.0),
            Err(PowerLawError::InvalidAlpha(_))
        ));
        assert!(matches!(
            PowerLaw::new(0.5, 1.0),
            Err(PowerLawError::InvalidAlpha(_))
        ));
        assert!(matches!(
            PowerLaw::new(f64::NAN, 1.0),
            Err(PowerLawError::InvalidAlpha(_))
        ));
        assert!(matches!(
            PowerLaw::new(2.0, 0.0),
            Err(PowerLawError::InvalidKMin(_))
        ));
        assert!(matches!(
            PowerLaw::new(2.0, -3.0),
            Err(PowerLawError::InvalidKMin(_))
        ));
    }

    #[test]
    fn ccdf_boundary_values() {
        let pl = PowerLaw::new(2.5, 2.0).unwrap();
        assert_eq!(pl.ccdf(0.5), 1.0, "below k_min everything survives");
        assert_eq!(pl.ccdf(2.0), 1.0, "at k_min the CCDF is exactly 1");
        assert!((pl.ccdf(4.0) - 2.0f64.powf(-1.5)).abs() < 1e-12);
        assert!(pl.ccdf(1e9) < 1e-10);
    }

    #[test]
    fn cdf_complements_ccdf() {
        let pl = PowerLaw::new(3.0, 1.5).unwrap();
        for k in [1.5, 2.0, 5.0, 100.0] {
            assert!((pl.cdf(k) + pl.ccdf(k) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn pdf_integrates_to_one_numerically() {
        let pl = PowerLaw::new(2.5, 1.0).unwrap();
        // Trapezoid rule on log-spaced grid up to a large bound.
        let mut total = 0.0;
        let steps = 200_000;
        let hi: f64 = 1e6;
        let ratio = (hi / 1.0f64).powf(1.0 / steps as f64);
        let mut x = 1.0f64;
        for _ in 0..steps {
            let x2 = x * ratio;
            total += 0.5 * (pl.pdf(x) + pl.pdf(x2)) * (x2 - x);
            x = x2;
        }
        assert!((total - 1.0).abs() < 1e-3, "integral was {total}");
    }

    #[test]
    fn quantile_inverts_cdf() {
        let pl = PowerLaw::new(2.2, 3.0).unwrap();
        for q in [0.0, 0.1, 0.5, 0.9, 0.999] {
            let k = pl.quantile(q);
            assert!((pl.cdf(k) - q).abs() < 1e-9, "q={q}");
        }
    }

    #[test]
    fn sampling_matches_theoretical_median() {
        let pl = PowerLaw::new(2.5, 1.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(7);
        let samples = pl.sample_n(&mut rng, 50_000);
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let emp_median = sorted[sorted.len() / 2];
        let theo = pl.quantile(0.5);
        assert!(
            (emp_median - theo).abs() / theo < 0.05,
            "empirical {emp_median} vs theoretical {theo}"
        );
        assert!(samples.iter().all(|&s| s >= 1.0));
    }

    #[test]
    fn fit_recovers_exponent_continuous() {
        let truth = PowerLaw::new(2.5, 1.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(42);
        let samples = truth.sample_n(&mut rng, 20_000);
        let fitted = PowerLaw::fit(&samples, 1.0, FitMethod::Continuous).unwrap();
        assert!(
            (fitted.alpha() - 2.5).abs() < 0.08,
            "fitted α = {}",
            fitted.alpha()
        );
    }

    #[test]
    fn fit_paper_matches_formula() {
        // Hand-computed: samples {2,4,8}, k_min = 2 → denom base 1.5.
        let samples = [2.0, 4.0, 8.0];
        let fitted = PowerLaw::fit(&samples, 2.0, FitMethod::Paper).unwrap();
        let log_sum: f64 = samples.iter().map(|s| (s / 1.5f64).ln()).sum();
        let expected = 1.0 + 3.0 / log_sum;
        assert!((fitted.alpha() - expected).abs() < 1e-12);
    }

    #[test]
    fn fit_paper_falls_back_for_small_kmin() {
        let samples = [0.4, 0.5, 0.9];
        let fitted = PowerLaw::fit(&samples, 0.4, FitMethod::Paper).unwrap();
        let cont = PowerLaw::fit(&samples, 0.4, FitMethod::Continuous).unwrap();
        assert_eq!(fitted, cont);
    }

    #[test]
    fn fit_identical_samples_clamps_alpha() {
        let fitted = PowerLaw::fit(&[3.0, 3.0, 3.0], 3.0, FitMethod::Continuous).unwrap();
        assert_eq!(fitted.alpha(), MAX_FITTED_ALPHA);
        // Near-point-mass: CCDF collapses just above k_min.
        assert!(fitted.ccdf(3.2) < 0.02);
    }

    #[test]
    fn fit_rejects_bad_input() {
        assert!(matches!(
            PowerLaw::fit(&[], 1.0, FitMethod::Continuous),
            Err(PowerLawError::NotEnoughSamples { .. })
        ));
        assert!(matches!(
            PowerLaw::fit(&[0.5], 1.0, FitMethod::Continuous),
            Err(PowerLawError::InvalidSample(_))
        ));
        assert!(matches!(
            PowerLaw::fit(&[-1.0], 1.0, FitMethod::Continuous),
            Err(PowerLawError::InvalidSample(_))
        ));
        assert!(matches!(
            PowerLaw::fit(&[1.0], f64::NAN, FitMethod::Continuous),
            Err(PowerLawError::InvalidKMin(_))
        ));
    }

    #[test]
    fn ks_statistic_small_for_own_samples() {
        let truth = PowerLaw::new(2.3, 1.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(11);
        let samples = truth.sample_n(&mut rng, 10_000);
        let d = truth.ks_statistic(&samples);
        assert!(d < 0.02, "KS statistic {d} too large for own samples");
        // A very different distribution should fit much worse.
        let wrong = PowerLaw::new(5.0, 1.0).unwrap();
        assert!(wrong.ks_statistic(&samples) > 5.0 * d);
    }

    #[test]
    fn ks_statistic_with_scratch_matches_allocating_variant() {
        let truth = PowerLaw::new(2.3, 1.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(13);
        let samples = truth.sample_n(&mut rng, 2_000);
        let mut scratch = Vec::new();
        for alpha in [1.5, 2.3, 4.0] {
            let pl = PowerLaw::new(alpha, 1.0).unwrap();
            let direct = pl.ks_statistic(&samples);
            let via_scratch = pl.ks_statistic_with(&samples, &mut scratch);
            assert_eq!(direct.to_bits(), via_scratch.to_bits(), "α={alpha}");
        }
        // Below-k_min-only input still reports the worst statistic.
        let pl = PowerLaw::new(2.0, 10.0).unwrap();
        assert_eq!(pl.ks_statistic_with(&[1.0, 2.0], &mut scratch), 1.0);
    }

    #[test]
    fn cached_exponent_matches_direct_computation() {
        let pl = PowerLaw::new(2.7, 1.3).unwrap();
        for q in [0.0f64, 0.1, 0.5, 0.99] {
            let direct = 1.3 * (1.0 - q).powf(-1.0 / (2.7f64 - 1.0));
            assert_eq!(pl.quantile(q).to_bits(), direct.to_bits(), "q={q}");
        }
    }

    #[test]
    fn error_messages_are_informative() {
        let e = PowerLaw::new(0.0, 1.0).unwrap_err();
        assert!(e.to_string().contains("exponent"));
        let e = PowerLaw::new(2.0, 0.0).unwrap_err();
        assert!(e.to_string().contains("k_min"));
    }
}
