//! Empirical latency distribution — the model-free alternative to the
//! paper's power-law fit.
//!
//! The paper justifies the power law by citing Ipeirotis's AMT analysis,
//! but nothing guarantees an individual worker's latencies follow it.
//! [`EmpiricalDist`] is the distribution-free fallback: the exact step
//! CCDF of the observed samples. [`LatencyCcdf`] abstracts over both so
//! the Eq. (2)/(3) deadline model works with either, and
//! [`FittedModel`] is the tagged union the profiler hands out (including
//! an *auto* mode that keeps the power law only when its KS statistic
//! says the fit is good).

use crate::powerlaw::PowerLaw;

/// Anything that can answer `Pr(K ≥ k)` for a latency variable.
pub trait LatencyCcdf {
    /// The complementary CDF at `k`.
    fn ccdf(&self, k: f64) -> f64;
}

impl LatencyCcdf for PowerLaw {
    fn ccdf(&self, k: f64) -> f64 {
        PowerLaw::ccdf(self, k)
    }
}

/// The empirical (step) distribution of observed samples.
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalDist {
    sorted: Vec<f64>,
}

impl EmpiricalDist {
    /// Builds the distribution from samples (non-finite ones are
    /// dropped). Returns `None` when no valid sample remains.
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|s| s.is_finite()).collect();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_by(f64::total_cmp);
        Some(EmpiricalDist { sorted })
    }

    /// CDF `Pr(K < k)`: fraction of samples strictly below `k`.
    pub fn cdf(&self, k: f64) -> f64 {
        let below = self.sorted.partition_point(|&s| s < k);
        below as f64 / self.sorted.len() as f64
    }

    /// The samples in ascending order (the step positions of the CCDF).
    pub fn sorted_samples(&self) -> &[f64] {
        &self.sorted
    }
}

impl LatencyCcdf for EmpiricalDist {
    /// CCDF `Pr(K ≥ k)`: fraction of samples at or above `k`.
    fn ccdf(&self, k: f64) -> f64 {
        1.0 - self.cdf(k)
    }
}

/// A fitted latency model: the paper's power law or the empirical
/// fallback.
#[derive(Debug, Clone, PartialEq)]
pub enum FittedModel {
    /// Parametric power-law fit (the paper's choice).
    PowerLaw(PowerLaw),
    /// Distribution-free empirical CCDF.
    Empirical(EmpiricalDist),
}

impl LatencyCcdf for FittedModel {
    fn ccdf(&self, k: f64) -> f64 {
        match self {
            FittedModel::PowerLaw(m) => m.ccdf(k),
            FittedModel::Empirical(m) => m.ccdf(k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist() -> EmpiricalDist {
        EmpiricalDist::from_samples(&[5.0, 1.0, 3.0, 3.0]).unwrap()
    }

    #[test]
    fn construction_filters_and_sorts() {
        let d = EmpiricalDist::from_samples(&[2.0, f64::NAN, 1.0, f64::INFINITY]).unwrap();
        assert_eq!(d.sorted_samples(), &[1.0, 2.0]);
        assert!(EmpiricalDist::from_samples(&[]).is_none());
        assert!(EmpiricalDist::from_samples(&[f64::NAN]).is_none());
    }

    #[test]
    fn step_ccdf_values() {
        let d = dist(); // sorted: 1, 3, 3, 5
        assert_eq!(d.ccdf(0.5), 1.0);
        assert_eq!(d.ccdf(1.0), 1.0, "Pr(K ≥ min) = 1");
        assert_eq!(d.ccdf(2.0), 0.75);
        assert_eq!(d.ccdf(3.0), 0.75, "ties count as ≥");
        assert_eq!(d.ccdf(4.0), 0.25);
        assert_eq!(d.ccdf(5.0), 0.25);
        assert_eq!(d.ccdf(5.1), 0.0);
    }

    #[test]
    fn cdf_complements_ccdf() {
        let d = dist();
        for k in [0.0, 1.0, 2.5, 3.0, 5.0, 9.0] {
            assert!((d.cdf(k) + d.ccdf(k) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn trait_dispatch_matches_inherent() {
        let pl = PowerLaw::new(2.0, 1.0).unwrap();
        let as_trait: &dyn LatencyCcdf = &pl;
        assert_eq!(as_trait.ccdf(4.0), pl.ccdf(4.0));
        let d = dist();
        let fitted_pl = FittedModel::PowerLaw(pl);
        let fitted_emp = FittedModel::Empirical(d.clone());
        assert!(matches!(fitted_pl, FittedModel::PowerLaw(_)));
        assert!(matches!(fitted_emp, FittedModel::Empirical(_)));
        assert_eq!(fitted_emp.ccdf(2.0), d.ccdf(2.0));
        assert_eq!(fitted_pl.ccdf(4.0), pl.ccdf(4.0));
    }

    #[test]
    fn empirical_converges_to_generating_law() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let truth = PowerLaw::new(2.5, 2.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(8);
        let samples = truth.sample_n(&mut rng, 20_000);
        let emp = EmpiricalDist::from_samples(&samples).unwrap();
        for k in [2.5, 4.0, 8.0, 20.0] {
            assert!(
                (emp.ccdf(k) - truth.ccdf(k)).abs() < 0.02,
                "at {k}: empirical {} vs true {}",
                emp.ccdf(k),
                truth.ccdf(k)
            );
        }
    }
}
