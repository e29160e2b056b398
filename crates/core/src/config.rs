//! Middleware configuration.

use crate::weight::WeightFunction;
pub use react_matching::MatcherPolicy;
use react_prob::{DeadlineModelConfig, EstimatorConfig};

/// Which latency distribution the deadline model evaluates Eq. (2)/(3)
/// against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModelKind {
    /// The paper's power-law MLE fit.
    PowerLaw,
    /// The distribution-free empirical CCDF of the observed samples.
    Empirical,
    /// Power law when its KS statistic is at most the threshold,
    /// empirical otherwise (per worker, re-evaluated as samples arrive).
    Auto {
        /// Maximum acceptable KS statistic for the parametric fit.
        ks_threshold: f64,
    },
}

/// When the Scheduling Component starts a new batch. *"Our solution works
/// in batches, which are initiated periodically, or if the number of
/// unassigned tasks has exceeded a boundary."*
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchTrigger {
    /// Fire when at least this many tasks are unassigned (paper: > 10,
    /// i.e. a threshold of 11; we expose the inclusive bound).
    pub min_unassigned: usize,
    /// Also fire when this many seconds elapsed since the last batch and
    /// any task is waiting (`None` = threshold only, as in Fig. 5).
    pub period: Option<f64>,
}

impl BatchTrigger {
    /// Decides whether to fire given the current queue length and the
    /// time since the last batch.
    pub fn should_fire(&self, unassigned: usize, since_last_batch: f64) -> bool {
        if unassigned == 0 {
            return false;
        }
        if unassigned >= self.min_unassigned {
            return true;
        }
        match self.period {
            Some(p) => since_last_batch >= p,
            None => false,
        }
    }
}

/// Failure-aware recovery knobs: the per-assignment timeout ladder and
/// graceful degradation under pool collapse.
///
/// The ladder is orthogonal to the Eq. (2) model: Eq. (2) predicts a
/// miss from a *healthy* worker's latency profile, while the ladder
/// catches workers that stopped responding entirely (silent abandonment,
/// message loss) — cases no latency model can see. Its shape (doubling
/// allowance capped at 4× base, suspicion after 3 strikes) is fixed in
/// `ReactServer`'s ladder stage; only the base is a knob.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Base progress deadline (seconds) for a task's first assignment.
    /// `None` disables the whole ladder (the paper's baseline behaviour).
    pub progress_timeout: Option<f64>,
    /// When fewer than this many workers are online, shed queued tasks
    /// (lowest reward first) beyond `shed_queue_cap`; 0 never sheds.
    pub pool_floor: usize,
    /// Maximum queued tasks kept while the pool is below the floor.
    pub shed_queue_cap: usize,
}

impl RecoveryConfig {
    /// Recovery fully disabled — the paper's baseline behaviour.
    pub fn disabled() -> Self {
        RecoveryConfig {
            progress_timeout: None,
            pool_floor: 0,
            shed_queue_cap: 0,
        }
    }

    /// The enabled ladder for chaos runs: recall after `base_timeout`
    /// seconds without progress.
    pub fn aggressive(base_timeout: f64) -> Self {
        RecoveryConfig {
            progress_timeout: Some(base_timeout),
            ..Self::disabled()
        }
    }
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Full middleware configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Matching algorithm per batch.
    pub matcher: MatcherPolicy,
    /// Edge weight function `F(worker, task)`.
    pub weight: WeightFunction,
    /// Batch trigger policy.
    pub batch: BatchTrigger,
    /// Eq. (2)/(3) thresholds.
    pub deadline: DeadlineModelConfig,
    /// Per-worker execution-time estimator settings (min samples = the
    /// paper's "at least 3 completed tasks").
    pub estimator: EstimatorConfig,
    /// Training rule `z`: a worker's first `z` assignments get maximum
    /// edge weight and bypass pruning, to bootstrap the profile.
    pub training_assignments: u64,
    /// Whether matcher compute time is charged through the calibrated
    /// cost model (`react-matching::CostModel`). Disable to treat
    /// matching as instantaneous (quality-only experiments).
    pub charge_matching_time: bool,
    /// Record every task lifecycle transition in an audit log
    /// ([`crate::AuditLog`]); costs memory proportional to task count.
    pub audit: bool,
    /// Latency distribution used by Eq. (2)/(3) (paper: the power law).
    pub latency_model: LatencyModelKind,
    /// Failure-aware recovery (timeout ladder, suspicion, shedding).
    /// Disabled by default — the paper's evaluation assumes workers
    /// always eventually respond.
    pub recovery: RecoveryConfig,
}

impl Config {
    /// The configuration of the paper's end-to-end evaluation (Sec. V-C):
    /// REACT at 1000 cycles, accuracy weights, batches at > 10 unassigned
    /// tasks, 10 % thresholds, 3-task training.
    pub fn paper_defaults() -> Self {
        Config {
            matcher: MatcherPolicy::React { cycles: 1000 },
            weight: WeightFunction::Accuracy,
            batch: BatchTrigger {
                min_unassigned: 10,
                period: None,
            },
            deadline: DeadlineModelConfig::default(),
            estimator: EstimatorConfig::default(),
            training_assignments: 3,
            charge_matching_time: true,
            audit: false,
            latency_model: LatencyModelKind::PowerLaw,
            recovery: RecoveryConfig::disabled(),
        }
    }

    /// Paper defaults with a different matcher (the comparison harness).
    pub fn with_matcher(matcher: MatcherPolicy) -> Self {
        Config {
            matcher,
            ..Self::paper_defaults()
        }
    }

    /// Checks the configuration for values the scheduler cannot run
    /// with. `ServerBuilder::build` calls this; hand-rolled embeddings
    /// can call it directly.
    pub fn validate(&self) -> Result<(), crate::error::CoreError> {
        let fail = |reason: &str| {
            Err(crate::error::CoreError::InvalidConfig {
                reason: reason.to_string(),
            })
        };
        match self.matcher {
            MatcherPolicy::React { cycles: 0 } => {
                return fail("matcher cycle budget must be at least 1");
            }
            MatcherPolicy::ReactAdaptive { kappa } if !kappa.is_finite() || kappa <= 0.0 => {
                return fail("adaptive matcher kappa must be finite and positive");
            }
            _ => {}
        }
        if self.batch.min_unassigned == 0 {
            return fail("batch.min_unassigned must be at least 1");
        }
        if let Some(p) = self.batch.period {
            if !p.is_finite() || p <= 0.0 {
                return fail("batch.period must be finite and positive");
            }
        }
        for (name, v) in [
            (
                "deadline.edge_probability_threshold",
                self.deadline.edge_probability_threshold,
            ),
            (
                "deadline.reassign_threshold",
                self.deadline.reassign_threshold,
            ),
        ] {
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(crate::error::CoreError::InvalidConfig {
                    reason: format!("{name} must be a probability in [0, 1]"),
                });
            }
        }
        if let LatencyModelKind::Auto { ks_threshold } = self.latency_model {
            if !ks_threshold.is_finite() || ks_threshold <= 0.0 {
                return fail("latency_model Auto ks_threshold must be finite and positive");
            }
        }
        if let Some(t) = self.recovery.progress_timeout {
            if !t.is_finite() || t <= 0.0 {
                return fail("recovery.progress_timeout must be finite and positive");
            }
        }
        Ok(())
    }
}

impl Default for Config {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_v() {
        let c = Config::paper_defaults();
        assert_eq!(c.matcher, MatcherPolicy::React { cycles: 1000 });
        assert_eq!(c.batch.min_unassigned, 10);
        assert_eq!(c.deadline.reassign_threshold, 0.1);
        assert_eq!(c.estimator.min_samples, 3);
        assert_eq!(c.training_assignments, 3);
        assert!(c.charge_matching_time);
    }

    #[test]
    fn validate_accepts_defaults_and_rejects_degenerates() {
        assert!(Config::paper_defaults().validate().is_ok());

        let mut c = Config::paper_defaults();
        c.matcher = MatcherPolicy::React { cycles: 0 };
        assert!(c.validate().is_err());

        let mut c = Config::paper_defaults();
        c.matcher = MatcherPolicy::ReactAdaptive { kappa: f64::NAN };
        assert!(c.validate().is_err());

        let mut c = Config::paper_defaults();
        c.batch.min_unassigned = 0;
        assert!(c.validate().is_err());

        let mut c = Config::paper_defaults();
        c.batch.period = Some(-1.0);
        assert!(c.validate().is_err());

        let mut c = Config::paper_defaults();
        c.deadline.reassign_threshold = 1.5;
        assert!(c.validate().is_err());

        let mut c = Config::paper_defaults();
        c.latency_model = LatencyModelKind::Auto { ks_threshold: 0.0 };
        assert!(c.validate().is_err());

        for bad in [-5.0, 0.0, f64::INFINITY, f64::NAN] {
            let mut c = Config::paper_defaults();
            c.recovery.progress_timeout = Some(bad);
            assert!(c.validate().is_err(), "progress_timeout {bad}");
        }
    }

    #[test]
    fn recovery_defaults_off_and_presets_valid() {
        let r = RecoveryConfig::default();
        assert!(r.progress_timeout.is_none(), "recovery must default off");
        assert_eq!(
            Config::paper_defaults().recovery,
            RecoveryConfig::disabled()
        );
        let mut c = Config::paper_defaults();
        c.recovery = RecoveryConfig::aggressive(30.0);
        assert!(c.recovery.progress_timeout.is_some());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn batch_trigger_threshold_and_period() {
        let t = BatchTrigger {
            min_unassigned: 10,
            period: Some(5.0),
        };
        assert!(!t.should_fire(0, 100.0), "empty queue never fires");
        assert!(t.should_fire(10, 0.0), "threshold met");
        assert!(!t.should_fire(3, 1.0), "below both conditions");
        assert!(t.should_fire(1, 5.0), "period elapsed with waiting task");
        let threshold_only = BatchTrigger {
            min_unassigned: 10,
            period: None,
        };
        assert!(!threshold_only.should_fire(9, 1e9));
        assert!(threshold_only.should_fire(11, 0.0));
    }
}
