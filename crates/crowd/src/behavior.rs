//! Worker behaviour models (Sec. V-C).
//!
//! *"We create a number of workers that receive tasks from the system and
//! process them among a time interval that is randomly decided based on
//! their profile and ranges from a minimum to a maximum time. Although
//! each worker receives a unique minimum and maximum time these times are
//! constrained among 1–20 seconds ... a worker might choose to delay or
//! abandon the task randomly with a probability of 50% and thus the
//! executing time may reach up to 130 seconds. Moreover ... each worker
//! has a unique feedback ∈ \[0,1\] assigned with a distribution where the
//! 70% of the workers receive a feedback that is above 0.50."*
//!
//! Besides the paper's uniform-with-delay model, a **power-law** latency
//! model is provided ([`LatencyModel::PowerLaw`]): Ipeirotis's analysis —
//! the very basis of the paper's Eq. (2)/(3) estimator — found AMT
//! latencies to be power-law distributed, so this variant makes the
//! estimator exactly well-specified. The `react-experiments ablation`
//! latency-sensitivity experiment compares the two.

use rand::Rng;
use react_prob::distributions::{Bernoulli, UniformRange};
use react_prob::PowerLaw;

/// How a worker's execution times are generated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// The paper's Sec. V-C model: a personal uniform service range
    /// inside the population bounds, with a per-task delay/abandon coin.
    PaperUniform,
    /// Personal power-law latencies: each worker draws `α` and `k_min`
    /// uniformly from the given ranges; samples are capped (a worker
    /// eventually gives an answer or the session ends).
    PowerLaw {
        /// Range of the personal exponent `α` (must stay > 1).
        alpha_range: (f64, f64),
        /// Range of the personal minimum latency `k_min` (seconds).
        kmin_range: (f64, f64),
        /// Hard cap on a single execution (seconds).
        cap: f64,
    },
}

/// Population-level behaviour parameters (paper defaults in
/// [`BehaviorParams::default`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BehaviorParams {
    /// Bounds within which each worker's personal service range lives
    /// (uniform model only).
    pub service_bounds: (f64, f64),
    /// Per-task probability that the worker delays/abandons (uniform
    /// model only).
    pub delay_probability: f64,
    /// Upper bound of a delayed execution, seconds (uniform model only).
    pub delay_max: f64,
    /// Fraction of workers whose intrinsic quality exceeds 0.5.
    pub fraction_high_quality: f64,
    /// The latency model workers follow.
    pub latency: LatencyModel,
}

impl Default for BehaviorParams {
    fn default() -> Self {
        BehaviorParams {
            service_bounds: (1.0, 20.0),
            delay_probability: 0.5,
            delay_max: 130.0,
            fraction_high_quality: 0.7,
            latency: LatencyModel::PaperUniform,
        }
    }
}

impl BehaviorParams {
    /// Paper defaults but with power-law latencies whose typical values
    /// sit in the same 1–20 s band and whose tail reaches the same
    /// ≈ 130 s scale as the uniform model's delays.
    pub fn power_law_defaults() -> Self {
        BehaviorParams {
            latency: LatencyModel::PowerLaw {
                alpha_range: (1.8, 3.0),
                kmin_range: (1.0, 8.0),
                cap: 130.0,
            },
            ..Self::default()
        }
    }
}

/// How one worker's execution time is sampled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecModel {
    /// Honest uniform service time, stretched by an occasional delay.
    UniformWithDelay {
        /// Personal honest-service range.
        service_range: UniformRange,
        /// Per-task delay/abandon coin.
        delay: Bernoulli,
        /// Delayed executions stretch to at most this long.
        delay_max: f64,
    },
    /// Personal power law, capped.
    PowerLaw {
        /// The personal latency law.
        law: PowerLaw,
        /// Hard cap (seconds).
        cap: f64,
    },
}

/// One simulated human worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerBehavior {
    /// The execution-time model.
    pub exec: ExecModel,
    /// Intrinsic result quality: the probability a requester judges the
    /// result positively (given the deadline was met).
    pub quality: f64,
}

impl WorkerBehavior {
    /// Convenience constructor for the paper's uniform model.
    pub fn uniform(
        service_range: UniformRange,
        delay_probability: f64,
        delay_max: f64,
        quality: f64,
    ) -> Self {
        WorkerBehavior {
            exec: ExecModel::UniformWithDelay {
                service_range,
                delay: Bernoulli::new(delay_probability),
                delay_max,
            },
            quality,
        }
    }

    /// Samples the execution time for one task.
    pub fn sample_exec_time<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match &self.exec {
            ExecModel::UniformWithDelay {
                service_range,
                delay,
                delay_max,
            } => {
                let honest = service_range.sample(rng);
                if delay.sample(rng) && *delay_max > honest {
                    UniformRange::new(honest, *delay_max).sample(rng)
                } else {
                    honest
                }
            }
            ExecModel::PowerLaw { law, cap } => law.sample(rng).min(*cap),
        }
    }

    /// Samples the requester's quality verdict for a completed task.
    pub fn sample_quality_ok<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        Bernoulli::new(self.quality).sample(rng)
    }
}

/// Generates `n` workers per the population parameters. Quality is drawn
/// so that `fraction_high_quality` of workers land above 0.5 (uniform
/// within each band); the execution model follows `params.latency`.
pub fn generate_population<R: Rng + ?Sized>(
    n: usize,
    params: &BehaviorParams,
    rng: &mut R,
) -> Vec<WorkerBehavior> {
    let (lo, hi) = params.service_bounds;
    let high_quality = Bernoulli::new(params.fraction_high_quality);
    (0..n)
        .map(|_| {
            let quality = if high_quality.sample(rng) {
                rng.gen_range(0.5..=1.0)
            } else {
                rng.gen_range(0.0..0.5)
            };
            let exec = match params.latency {
                LatencyModel::PaperUniform => {
                    let a = rng.gen_range(lo..=hi);
                    let b = rng.gen_range(lo..=hi);
                    ExecModel::UniformWithDelay {
                        service_range: UniformRange::new(a, b),
                        delay: Bernoulli::new(params.delay_probability),
                        delay_max: params.delay_max,
                    }
                }
                LatencyModel::PowerLaw {
                    alpha_range,
                    kmin_range,
                    cap,
                } => {
                    let alpha = rng.gen_range(alpha_range.0..=alpha_range.1).max(1.01);
                    let k_min = rng
                        .gen_range(kmin_range.0..=kmin_range.1)
                        .max(f64::MIN_POSITIVE);
                    ExecModel::PowerLaw {
                        law: PowerLaw::new(alpha, k_min).expect("ranges validated above"),
                        cap,
                    }
                }
            };
            WorkerBehavior { exec, quality }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn default_params_match_paper() {
        let p = BehaviorParams::default();
        assert_eq!(p.service_bounds, (1.0, 20.0));
        assert_eq!(p.delay_probability, 0.5);
        assert_eq!(p.delay_max, 130.0);
        assert_eq!(p.fraction_high_quality, 0.7);
        assert_eq!(p.latency, LatencyModel::PaperUniform);
    }

    #[test]
    fn population_ranges_within_bounds() {
        let mut g = rng();
        let pop = generate_population(500, &BehaviorParams::default(), &mut g);
        assert_eq!(pop.len(), 500);
        for w in &pop {
            match w.exec {
                ExecModel::UniformWithDelay { service_range, .. } => {
                    let mut draws = (0..20).map(|_| service_range.sample(&mut g));
                    assert!(draws.all(|s| (1.0..=20.0).contains(&s)));
                }
                _ => panic!("paper model expected"),
            }
            assert!((0.0..=1.0).contains(&w.quality));
        }
    }

    #[test]
    fn seventy_percent_high_quality() {
        let mut g = rng();
        let pop = generate_population(5_000, &BehaviorParams::default(), &mut g);
        let high = pop.iter().filter(|w| w.quality > 0.5).count() as f64 / 5_000.0;
        assert!((high - 0.7).abs() < 0.03, "high-quality fraction {high}");
    }

    #[test]
    fn exec_times_bounded_and_bimodal() {
        let mut g = rng();
        let w = WorkerBehavior::uniform(UniformRange::new(2.0, 10.0), 0.5, 130.0, 0.8);
        let times: Vec<f64> = (0..20_000).map(|_| w.sample_exec_time(&mut g)).collect();
        assert!(times.iter().all(|&t| (2.0..=130.0).contains(&t)));
        // Roughly half the tasks finish inside the honest range.
        let honest = times.iter().filter(|&&t| t <= 10.0).count() as f64 / 20_000.0;
        assert!((0.45..0.65).contains(&honest), "honest fraction {honest}");
        // The delayed half reaches far beyond it.
        assert!(times.iter().any(|&t| t > 100.0));
    }

    #[test]
    fn no_delay_worker_stays_in_range() {
        let mut g = rng();
        let w = WorkerBehavior::uniform(UniformRange::new(3.0, 6.0), 0.0, 130.0, 1.0);
        for _ in 0..1000 {
            let t = w.sample_exec_time(&mut g);
            assert!((3.0..=6.0).contains(&t));
        }
        assert!(w.sample_quality_ok(&mut g));
    }

    #[test]
    fn delay_max_below_honest_is_harmless() {
        let mut g = rng();
        let w = WorkerBehavior::uniform(UniformRange::new(10.0, 12.0), 1.0, 5.0, 0.5);
        for _ in 0..100 {
            let t = w.sample_exec_time(&mut g);
            assert!((10.0..=12.0).contains(&t), "falls back to honest time");
        }
    }

    #[test]
    fn quality_verdict_rate() {
        let mut g = rng();
        let w = WorkerBehavior::uniform(UniformRange::new(1.0, 2.0), 0.0, 130.0, 0.3);
        let ok = (0..20_000).filter(|_| w.sample_quality_ok(&mut g)).count() as f64 / 20_000.0;
        assert!((ok - 0.3).abs() < 0.02, "verdict rate {ok}");
    }

    #[test]
    fn power_law_population_samples_in_support() {
        let mut g = rng();
        let pop = generate_population(200, &BehaviorParams::power_law_defaults(), &mut g);
        for w in &pop {
            let ExecModel::PowerLaw { law, cap } = w.exec else {
                panic!("power-law model expected");
            };
            assert!((1.8..=3.0).contains(&law.alpha()));
            assert!((1.0..=8.0).contains(&law.k_min()));
            for _ in 0..50 {
                let t = w.sample_exec_time(&mut g);
                assert!(t >= law.k_min() && t <= cap, "sample {t} out of range");
            }
        }
    }

    #[test]
    fn power_law_latencies_are_heavy_tailed_but_capped() {
        let mut g = rng();
        let pop = generate_population(300, &BehaviorParams::power_law_defaults(), &mut g);
        let samples: Vec<f64> = pop
            .iter()
            .flat_map(|w| {
                (0..40)
                    .map(|_| w.sample_exec_time(&mut g))
                    .collect::<Vec<_>>()
            })
            .collect();
        // Typical values small, tail touches the cap region.
        let median = {
            let mut s = samples.clone();
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            s[s.len() / 2]
        };
        assert!(median < 15.0, "median {median}");
        assert!(samples.iter().any(|&t| t > 60.0), "tail must reach minutes");
        assert!(samples.iter().all(|&t| t <= 130.0));
    }
}
