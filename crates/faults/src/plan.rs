//! The declarative [`FaultPlan`] and its materialisation into a
//! [`crate::FaultSchedule`].

use rand::{Rng, RngCore};
use react_sim::RngStreams;

use crate::schedule::{Dropout, FaultSchedule};

/// Worker dropout/rejoin faults: each worker independently drops offline
/// at most once, at a uniformly drawn instant inside the window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DropoutPlan {
    /// Per-worker probability of suffering a dropout at all.
    pub probability: f64,
    /// Time window `(lo, hi)` the dropout instant is drawn from.
    pub window: (f64, f64),
    /// Offline duration range `(lo, hi)` before the worker rejoins;
    /// `None` means the dropout is permanent.
    pub offline_range: Option<(f64, f64)>,
}

/// Straggler faults: a fraction of workers execute every task slower by
/// a per-worker factor drawn once at materialisation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerPlan {
    /// Fraction of the worker population affected, in `[0, 1]`.
    pub fraction: f64,
    /// Slowdown factor range `(lo, hi)`; factors are multiplicative on
    /// execution time, so `lo >= 1.0`.
    pub factor_range: (f64, f64),
}

/// Burst arrival faults: extra task waves injected on top of the
/// scenario's nominal workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstPlan {
    /// Number of bursts to inject.
    pub count: u32,
    /// Tasks per burst.
    pub size: u32,
    /// Time window `(lo, hi)` each burst instant is drawn from.
    pub window: (f64, f64),
}

/// A declarative schedule of injectable faults. All knobs default to
/// "off"; [`FaultPlan::chaos`] scales every fault family with a single
/// intensity dial for sweep-style benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Worker dropout/rejoin faults.
    pub dropout: Option<DropoutPlan>,
    /// Straggler slowdown faults.
    pub straggler: Option<StragglerPlan>,
    /// Per-assignment probability that the worker silently abandons the
    /// task (never reports a result; only a recovery timeout frees it).
    pub abandon_probability: f64,
    /// Per-completion probability that the completion message is lost
    /// in flight (the work happened, the server never hears about it).
    pub loss_probability: f64,
    /// Per-completion probability that the completion message is
    /// delivered twice (the server must not double-complete the task).
    pub duplication_probability: f64,
    /// Burst task arrivals.
    pub bursts: Option<BurstPlan>,
}

fn check_prob(name: &str, p: f64) -> Result<(), String> {
    if !p.is_finite() || !(0.0..=1.0).contains(&p) {
        return Err(format!("{name} must be a probability in [0, 1], got {p}"));
    }
    Ok(())
}

fn check_window(name: &str, (lo, hi): (f64, f64)) -> Result<(), String> {
    if !lo.is_finite() || !hi.is_finite() || lo < 0.0 || hi < lo {
        return Err(format!(
            "{name} must be a finite non-negative (lo, hi) window with lo <= hi, got ({lo}, {hi})"
        ));
    }
    Ok(())
}

impl FaultPlan {
    /// A plan that injects nothing. Materialises to a no-op schedule.
    pub fn none() -> Self {
        Self::default()
    }

    /// A preset that scales every fault family with one `intensity` dial
    /// in `[0, 1]` — the axis the `chaos` bench sweeps. Intensity 0 is a
    /// healthy crowd; intensity 1 drops half the workers, slows a third
    /// of them 2–6×, and loses or duplicates a noticeable share of
    /// messages.
    pub fn chaos(intensity: f64) -> Self {
        let i = intensity.clamp(0.0, 1.0);
        FaultPlan {
            dropout: (i > 0.0).then_some(DropoutPlan {
                probability: 0.5 * i,
                window: (5.0, 60.0),
                offline_range: Some((30.0, 90.0)),
            }),
            straggler: (i > 0.0).then_some(StragglerPlan {
                fraction: 0.33 * i,
                factor_range: (2.0, 6.0),
            }),
            abandon_probability: 0.10 * i,
            loss_probability: 0.08 * i,
            duplication_probability: 0.05 * i,
            bursts: (i >= 0.5).then_some(BurstPlan {
                count: 2,
                size: 12,
                window: (10.0, 50.0),
            }),
        }
    }

    /// The dropout-only plan the acceptance comparison runs (REACT vs
    /// Traditional deadline misses under dropout).
    pub fn dropout_only(probability: f64) -> Self {
        FaultPlan {
            dropout: Some(DropoutPlan {
                probability,
                window: (5.0, 60.0),
                offline_range: Some((30.0, 90.0)),
            }),
            ..Self::default()
        }
    }

    /// Whether the plan injects nothing at all.
    pub fn is_noop(&self) -> bool {
        self.dropout.is_none()
            && self.straggler.is_none()
            && self.abandon_probability <= 0.0
            && self.loss_probability <= 0.0
            && self.duplication_probability <= 0.0
            && self.bursts.is_none()
    }

    /// Checks the plan for values a run cannot be built from.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(d) = self.dropout {
            check_prob("dropout.probability", d.probability)?;
            check_window("dropout.window", d.window)?;
            if let Some(r) = d.offline_range {
                check_window("dropout.offline_range", r)?;
            }
        }
        if let Some(s) = self.straggler {
            check_prob("straggler.fraction", s.fraction)?;
            let (lo, hi) = s.factor_range;
            if !lo.is_finite() || !hi.is_finite() || lo < 1.0 || hi < lo {
                return Err(format!(
                    "straggler.factor_range must satisfy 1.0 <= lo <= hi, got ({lo}, {hi})"
                ));
            }
        }
        check_prob("abandon_probability", self.abandon_probability)?;
        check_prob("loss_probability", self.loss_probability)?;
        check_prob("duplication_probability", self.duplication_probability)?;
        if let Some(b) = self.bursts {
            check_window("bursts.window", b.window)?;
            if b.count > 0 && b.size == 0 {
                return Err("bursts.size must be at least 1 when count > 0".to_string());
            }
        }
        Ok(())
    }

    /// Draws every pre-drawable fault (dropout instants, slowdown
    /// factors, burst times) from the `fault.*` named streams of
    /// `streams` and freezes the result into a [`FaultSchedule`].
    ///
    /// The schedule depends only on `(master seed, plan, n_workers)` —
    /// not on anything that happens during the run — which is what makes
    /// chaos runs bit-reproducible.
    /// `horizon` widens windows that extend past it is *not* clamped;
    /// events past the run's drain horizon simply never fire.
    ///
    /// # Panics
    /// Panics if the plan fails [`FaultPlan::validate`].
    pub fn materialize(&self, streams: &RngStreams, n_workers: usize) -> FaultSchedule {
        if let Err(reason) = self.validate() {
            panic!("invalid FaultPlan: {reason}");
        }
        let salt = streams.stream("fault.salt").next_u64();

        let mut dropouts = Vec::new();
        if let Some(d) = self.dropout {
            let mut rng = streams.stream("fault.dropout");
            for worker in 0..n_workers {
                // One gen_bool + (up to) two draws per worker, in worker
                // order: the draw sequence is fixed by (seed, n_workers).
                if !rng.gen_bool(d.probability) {
                    continue;
                }
                let at = sample_window(&mut rng, d.window);
                let rejoin_at = d.offline_range.map(|r| at + sample_window(&mut rng, r));
                dropouts.push(Dropout {
                    worker,
                    at,
                    rejoin_at,
                });
            }
            dropouts.sort_by(|a, b| a.at.total_cmp(&b.at).then(a.worker.cmp(&b.worker)));
        }

        let mut slowdown = vec![1.0; n_workers];
        if let Some(s) = self.straggler {
            let mut rng = streams.stream("fault.straggler");
            for factor in slowdown.iter_mut() {
                if rng.gen_bool(s.fraction) {
                    *factor = sample_window(&mut rng, s.factor_range);
                }
            }
        }

        let mut bursts = Vec::new();
        if let Some(b) = self.bursts {
            let mut rng = streams.stream("fault.burst");
            for _ in 0..b.count {
                bursts.push((sample_window(&mut rng, b.window), b.size));
            }
            bursts.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        }

        FaultSchedule::new(
            salt,
            dropouts,
            slowdown,
            self.abandon_probability,
            self.loss_probability,
            self.duplication_probability,
            bursts,
        )
    }
}

fn sample_window<R: RngCore>(rng: &mut R, (lo, hi): (f64, f64)) -> f64 {
    if hi > lo {
        rng.gen_range(lo..hi)
    } else {
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_noop_and_valid() {
        let p = FaultPlan::none();
        assert!(p.is_noop());
        assert!(p.validate().is_ok());
        let streams = RngStreams::new(7);
        assert!(p.materialize(&streams, 20).is_noop());
    }

    #[test]
    fn chaos_preset_scales_with_intensity() {
        assert!(FaultPlan::chaos(0.0).is_noop() || FaultPlan::chaos(0.0).dropout.is_none());
        let mild = FaultPlan::chaos(0.2);
        let wild = FaultPlan::chaos(1.0);
        assert!(mild.validate().is_ok());
        assert!(wild.validate().is_ok());
        assert!(
            mild.dropout.unwrap().probability < wild.dropout.unwrap().probability,
            "intensity must monotonically raise dropout probability"
        );
        assert!(mild.bursts.is_none() && wild.bursts.is_some());
    }

    #[test]
    fn validate_rejects_degenerate_knobs() {
        let mut p = FaultPlan::none();
        p.abandon_probability = 1.5;
        assert!(p.validate().is_err());

        let mut p = FaultPlan::none();
        p.straggler = Some(StragglerPlan {
            fraction: 0.5,
            factor_range: (0.5, 2.0), // would speed workers up
        });
        assert!(p.validate().is_err());

        let mut p = FaultPlan::none();
        p.dropout = Some(DropoutPlan {
            probability: 0.3,
            window: (10.0, 5.0),
            offline_range: None,
        });
        assert!(p.validate().is_err());
    }

    #[test]
    fn materialize_is_deterministic_per_seed() {
        let plan = FaultPlan::chaos(0.8);
        let a = plan.materialize(&RngStreams::new(42), 50);
        let b = plan.materialize(&RngStreams::new(42), 50);
        assert_eq!(a, b, "same seed must produce an identical schedule");
        let c = plan.materialize(&RngStreams::new(43), 50);
        assert_ne!(a, c, "different seeds should perturb the schedule");
    }

    #[test]
    fn dropout_instants_fall_inside_the_window() {
        let plan = FaultPlan::dropout_only(1.0);
        let sched = plan.materialize(&RngStreams::new(9), 40);
        assert_eq!(sched.dropouts().len(), 40, "probability 1.0 drops everyone");
        for d in sched.dropouts() {
            assert!(
                (5.0..60.0).contains(&d.at),
                "dropout at {} out of window",
                d.at
            );
            let rejoin = d.rejoin_at.expect("plan schedules rejoin");
            assert!(rejoin > d.at);
        }
        // Sorted by time: materialisation order never leaks run order.
        for w in sched.dropouts().windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }
}
