//! Online per-worker execution-time estimator.
//!
//! The Profiling Component of the REACT server stores, for every worker,
//! the execution times of the tasks they completed. The Dynamic Assignment
//! Component then needs a fitted power law over those times. Refitting
//! from the samples is `O(n)`, and the scheduler asks for a worker's model
//! after each of its completions, so the estimator keeps the fit's two
//! running values instead — the smallest sample and the log-sum — and
//! answers [`ExecTimeEstimator::model`] in `O(1)`. The fit is always the
//! paper's ([`FitMethod::Paper`]).

use crate::empirical::{EmpiricalDist, FittedModel};
use crate::powerlaw::{FitMethod, PowerLaw};

/// Completed tasks before a worker gets a model: the paper's *"at least
/// 3 completed tasks"* before the probabilistic reassignment model
/// activates.
pub const MIN_SAMPLES: usize = 3;

/// Configuration for an [`ExecTimeEstimator`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EstimatorConfig {
    /// Keep only the most recent `window` samples (`None` = unbounded).
    /// A sliding window lets the profile track workers whose behaviour
    /// drifts over a long session.
    pub window: Option<usize>,
}

/// Stores a worker's observed execution times and fits a [`PowerLaw`]
/// over them.
///
/// `k_min` is always the smallest retained sample, matching the paper:
/// *"The lower bound `k_min` is set as the worker's lowest measured
/// execution time for a task."*
///
/// The fit is [`PowerLaw::fit`]'s, bit for bit: the estimator keeps that
/// fit's left fold `Σ ln(k_i / base)` over the samples in arrival order
/// and adds each new sample's term as it comes. The base depends on
/// `k_min`, and a fold cannot give back its first term, so a new minimum
/// or a window eviction refolds the retained samples; anything else is
/// one logarithm.
#[derive(Debug, Clone)]
pub struct ExecTimeEstimator {
    config: EstimatorConfig,
    samples: Vec<f64>,
    /// The smallest retained sample; `+∞` while there is none.
    k_min: f64,
    /// `Σ ln(s / base)` over `samples` in arrival order, with
    /// `base = FitMethod::Paper.denom_base(k_min)`.
    log_sum: f64,
    /// Reused by the KS goodness-of-fit check in [`Self::auto_model`] so
    /// every refit does not allocate and sort a fresh sample copy.
    ks_scratch: Vec<f64>,
}

impl ExecTimeEstimator {
    /// Creates an empty estimator with the given configuration.
    pub fn new(config: EstimatorConfig) -> Self {
        ExecTimeEstimator {
            config,
            samples: Vec::new(),
            k_min: f64::INFINITY,
            log_sum: 0.0,
            ks_scratch: Vec::new(),
        }
    }

    /// Creates an estimator with unbounded history.
    pub fn with_defaults() -> Self {
        Self::new(EstimatorConfig::default())
    }

    /// Records one completed-task execution time (seconds).
    ///
    /// Non-finite or non-positive observations are ignored: execution
    /// times are measured durations and a zero/negative value indicates a
    /// measurement bug upstream, not a real completion.
    pub fn observe(&mut self, exec_time: f64) {
        if !exec_time.is_finite() || exec_time <= 0.0 {
            return;
        }
        self.samples.push(exec_time);
        let mut evicted = false;
        if let Some(w) = self.config.window {
            if self.samples.len() > w {
                let excess = self.samples.len() - w;
                self.samples.drain(..excess);
                evicted = true;
            }
        }
        if evicted || exec_time < self.k_min {
            self.refold();
        } else {
            self.log_sum += (exec_time / FitMethod::Paper.denom_base(self.k_min)).ln();
        }
    }

    /// Recomputes `k_min` and the log-sum from the retained samples, as
    /// [`PowerLaw::fit`] folds them.
    fn refold(&mut self) {
        self.k_min = self.samples.iter().copied().fold(f64::INFINITY, f64::min);
        let base = FitMethod::Paper.denom_base(self.k_min);
        self.log_sum = 0.0;
        for &s in &self.samples {
            self.log_sum += (s / base).ln();
        }
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// True once [`MIN_SAMPLES`] samples exist for [`Self::model`] to
    /// return one.
    pub fn is_warm(&self) -> bool {
        self.samples.len() >= MIN_SAMPLES
    }

    /// The retained samples, in arrival order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// The fitted power law, in `O(1)` from the running values.
    ///
    /// Returns `None` until [`Self::is_warm`]. Fitting failures cannot
    /// occur for warmed-up estimators because `observe` filters invalid
    /// samples and `k_min` is taken from the samples themselves. Under the
    /// `debug-invariants` feature every call is checked, bit for bit,
    /// against [`PowerLaw::fit`] over the retained samples.
    pub fn model(&self) -> Option<PowerLaw> {
        if !self.is_warm() {
            return None;
        }
        let model = PowerLaw::from_log_sum(self.samples.len(), self.log_sum, self.k_min).ok();
        #[cfg(feature = "debug-invariants")]
        {
            let refit = PowerLaw::fit(&self.samples, self.k_min, FitMethod::Paper).ok();
            let bits = |m: Option<PowerLaw>| m.map(|m| (m.alpha().to_bits(), m.k_min().to_bits()));
            assert_eq!(
                bits(model),
                bits(refit),
                "running fit diverged from PowerLaw::fit"
            );
        }
        model
    }

    /// The empirical (step-CCDF) distribution of the retained samples —
    /// the model-free alternative to [`Self::model`]. `None` until warm.
    pub fn empirical(&self) -> Option<EmpiricalDist> {
        if !self.is_warm() {
            return None;
        }
        EmpiricalDist::from_samples(&self.samples)
    }

    /// Model selection: the power-law fit when its Kolmogorov–Smirnov
    /// statistic against the samples is at most `ks_threshold`, the
    /// empirical distribution otherwise. `None` until warm.
    ///
    /// This guards the paper's parametric assumption: a worker whose
    /// latencies are *not* power-law shaped (bimodal, say) falls back to
    /// the distribution-free CCDF instead of a badly-fitted tail.
    pub fn auto_model(&mut self, ks_threshold: f64) -> Option<FittedModel> {
        let model = self.model()?;
        if model.ks_statistic_with(&self.samples, &mut self.ks_scratch) <= ks_threshold {
            Some(FittedModel::PowerLaw(model))
        } else {
            self.empirical().map(FittedModel::Empirical)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn cold_until_min_samples() {
        let mut est = ExecTimeEstimator::with_defaults();
        est.observe(5.0);
        est.observe(7.0);
        assert!(!est.is_warm());
        assert!(est.model().is_none());
        est.observe(9.0);
        assert!(est.is_warm());
        assert!(est.model().is_some());
    }

    #[test]
    fn ignores_invalid_observations() {
        let mut est = ExecTimeEstimator::with_defaults();
        est.observe(f64::NAN);
        est.observe(f64::INFINITY);
        est.observe(-1.0);
        est.observe(0.0);
        assert!(est.is_empty());
    }

    #[test]
    fn k_min_tracks_smallest_sample() {
        let mut est = ExecTimeEstimator::with_defaults();
        for s in [9.0, 4.0, 11.0] {
            est.observe(s);
        }
        let model = est.model().unwrap();
        assert_eq!(model.k_min(), 4.0);
    }

    #[test]
    fn window_evicts_oldest() {
        let mut est = ExecTimeEstimator::new(EstimatorConfig { window: Some(3) });
        for s in [1.0, 2.0, 3.0, 4.0, 5.0] {
            est.observe(s);
        }
        assert_eq!(est.samples(), &[3.0, 4.0, 5.0]);
        assert_eq!(est.model().unwrap().k_min(), 3.0);
    }

    #[test]
    fn model_is_cached_until_new_sample() {
        let mut est = ExecTimeEstimator::with_defaults();
        for s in [2.0, 4.0, 8.0] {
            est.observe(s);
        }
        let m1 = est.model().unwrap();
        let m2 = est.model().unwrap();
        assert_eq!(m1, m2);
        est.observe(16.0);
        let m3 = est.model().unwrap();
        assert_ne!(m1, m3, "a new sample must move the fit");
    }

    #[test]
    fn recovers_synthetic_worker_profile() {
        // A worker whose times follow a power law: the estimator's fitted
        // exponent should be close to the truth. The paper's −½ offset
        // biases the fit on continuous samples by about 1/(2 k_min), so
        // the truth's k_min is large.
        let truth = crate::PowerLaw::new(2.2, 50.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut est = ExecTimeEstimator::with_defaults();
        for _ in 0..5_000 {
            est.observe(truth.sample(&mut rng));
        }
        let fitted = est.model().unwrap();
        assert!(
            (fitted.alpha() - 2.2).abs() < 0.15,
            "α = {}",
            fitted.alpha()
        );
    }

    #[test]
    fn empirical_distribution_when_warm() {
        let mut est = ExecTimeEstimator::with_defaults();
        est.observe(4.0);
        est.observe(2.0);
        assert!(est.empirical().is_none(), "cold estimator");
        est.observe(8.0);
        let emp = est.empirical().unwrap();
        assert_eq!(emp.sorted_samples(), &[2.0, 4.0, 8.0]);
        use crate::empirical::LatencyCcdf;
        assert!((emp.ccdf(4.0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn auto_model_keeps_good_power_law_fit() {
        // The well-specified case: the paper's −½-offset estimator is
        // biased on continuous data by about 1/(2 k_min), so the truth's
        // k_min is large enough for the fit to pass a tight threshold.
        let truth = crate::PowerLaw::new(2.3, 50.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(21);
        let mut est = ExecTimeEstimator::with_defaults();
        for _ in 0..2_000 {
            est.observe(truth.sample(&mut rng));
        }
        let m = est.auto_model(0.05).unwrap();
        assert!(
            matches!(m, FittedModel::PowerLaw(_)),
            "good fit should stay parametric"
        );
    }

    #[test]
    fn auto_model_falls_back_on_bad_fit() {
        // Sharply bimodal latencies (2 s or 100 s, nothing between) are
        // poorly described by any power law.
        let mut est = ExecTimeEstimator::with_defaults();
        for i in 0..400 {
            est.observe(if i % 2 == 0 { 2.0 } else { 100.0 });
        }
        let m = est.auto_model(0.05).unwrap();
        assert!(
            matches!(m, FittedModel::Empirical(_)),
            "bimodal data must fall back"
        );
        // A permissive threshold keeps the parametric model.
        let m = est.auto_model(1.0).unwrap();
        assert!(matches!(m, FittedModel::PowerLaw(_)));
    }
}
