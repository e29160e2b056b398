//! The paper's probabilistic deadline model (Sec. IV-B, Eqs. 2–3).
//!
//! For a task `j` assigned to worker `i` at time `a`:
//!
//! * `TimeToDeadline_ij` — the interval from assignment until the task's
//!   deadline expires,
//! * `t_ij` — the time elapsed since assignment,
//! * `ExecTime_ij` — the (unknown) total execution time on this worker.
//!
//! Using the worker's fitted power-law CCDF `P(k) = Pr(K ≥ k)`:
//!
//! * **Eq. (3)** — edge instantiation: `Pr(ExecTime < TTD) = 1 − P(TTD)`.
//!   An edge `(worker, task)` only enters the bipartite graph when this
//!   probability exceeds an application-defined lower bound.
//! * **Eq. (2)** — in-flight check:
//!   `Pr(t < ExecTime < TTD) = 1 − (P(TTD) + (1 − P(t))) = P(t) − P(TTD)`.
//!   When this drops below a threshold (10 % in the paper's evaluation)
//!   the task is pulled back from the worker and reassigned.

use crate::empirical::{FittedModel, LatencyCcdf};

/// Thresholds driving the two deadline decisions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlineModelConfig {
    /// Minimum `Pr(ExecTime < TTD)` for a worker↔task edge to be
    /// instantiated at all (graph-construction pruning).
    pub edge_probability_threshold: f64,
    /// Minimum in-flight probability `Pr(t < ExecTime < TTD)` before the
    /// assignment is abandoned and the task reassigned. The paper uses 0.1.
    pub reassign_threshold: f64,
}

impl Default for DeadlineModelConfig {
    fn default() -> Self {
        DeadlineModelConfig {
            edge_probability_threshold: 0.1,
            reassign_threshold: 0.1,
        }
    }
}

/// Outcome of an in-flight deadline check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeadlineDecision {
    /// The assignment still has an acceptable chance of meeting the
    /// deadline; leave it with the current worker.
    Keep {
        /// The evaluated `Pr(t < ExecTime < TTD)`.
        probability: f64,
    },
    /// The probability fell below the threshold: pull the task back and
    /// let the Scheduling Component find a better worker.
    Reassign {
        /// The evaluated `Pr(t < ExecTime < TTD)`.
        probability: f64,
    },
}

impl DeadlineDecision {
    /// True for the [`DeadlineDecision::Reassign`] variant.
    pub fn is_reassign(&self) -> bool {
        matches!(self, DeadlineDecision::Reassign { .. })
    }

    /// The probability the decision was based on.
    pub fn probability(&self) -> f64 {
        match *self {
            DeadlineDecision::Keep { probability } | DeadlineDecision::Reassign { probability } => {
                probability
            }
        }
    }
}

/// Stateless evaluator of the paper's Eq. (2)/(3) over a fitted worker
/// model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeadlineModel {
    config: DeadlineModelConfig,
}

impl DeadlineModel {
    /// Creates a model with the given thresholds.
    pub fn new(config: DeadlineModelConfig) -> Self {
        DeadlineModel { config }
    }

    /// **Eq. (3)**: probability that this worker completes a fresh task
    /// within `time_to_deadline` seconds, i.e. `1 − P(TTD)`.
    ///
    /// Works with any latency model (the paper's power law or the
    /// empirical fallback). Degenerate horizons (`TTD ≤ 0`) give
    /// probability 0.
    pub fn pr_complete_before<M: LatencyCcdf + ?Sized>(
        &self,
        model: &M,
        time_to_deadline: f64,
    ) -> f64 {
        if time_to_deadline <= 0.0 {
            return 0.0;
        }
        (1.0 - model.ccdf(time_to_deadline)).clamp(0.0, 1.0)
    }

    /// **Eq. (2)**: probability that the execution time lands inside
    /// `(elapsed, time_to_deadline)`:
    /// `P(elapsed) − P(TTD)` (the paper writes the equivalent
    /// `1 − (P(TTD) + (1 − P(elapsed)))`).
    ///
    /// Returns 0 when the window is empty (`elapsed ≥ TTD`).
    pub fn pr_complete_in_window<M: LatencyCcdf + ?Sized>(
        &self,
        model: &M,
        elapsed: f64,
        time_to_deadline: f64,
    ) -> f64 {
        if elapsed >= time_to_deadline || time_to_deadline <= 0.0 {
            return 0.0;
        }
        let elapsed = elapsed.max(0.0);
        (model.ccdf(elapsed) - model.ccdf(time_to_deadline)).clamp(0.0, 1.0)
    }

    /// Graph-construction rule: should the `(worker, task)` edge be
    /// instantiated, given the worker's fitted model and the task's
    /// time-to-deadline? `None` worker model (cold profile) is handled by
    /// the caller — the paper instantiates all edges for a worker's first
    /// `z` assignments.
    pub fn should_instantiate_edge<M: LatencyCcdf + ?Sized>(
        &self,
        model: &M,
        time_to_deadline: f64,
    ) -> bool {
        self.pr_complete_before(model, time_to_deadline) > self.config.edge_probability_threshold
    }

    /// Inverts Eq. (3) into a memoized per-model [`Cut`] over the
    /// time-to-deadline, so the per-edge
    /// [`DeadlineModel::should_instantiate_edge`] `powf` becomes a float
    /// compare on the graph-build hot path: pruned below `lo`, kept above
    /// `hi`.
    ///
    /// The CCDF is monotone non-increasing in TTD, so the edge predicate
    /// `1 − P(TTD) > θ` flips exactly once, at the critical threshold
    /// `ttd* = quantile(θ) = k_min · (1 − θ)^{−1/(α−1)}` for the power
    /// law. To keep the fast path *bit-identical* to the exact `powf`
    /// evaluation, the power-law cut is a conservative band around
    /// `ttd*`: decisions outside the band are provably on the same side
    /// as the exact predicate (the band's relative margin dwarfs `powf`'s
    /// few-ULP error), and the rare TTD inside it falls back to the exact
    /// evaluation. A step CCDF inverts exactly at a sample `c`: `lo` is
    /// the smallest float above `c`, `hi` is `c`. A threshold no TTD
    /// clears prunes every finite TTD (`lo = hi = +∞`).
    pub fn edge_gate(&self, model: &FittedModel) -> Cut {
        let theta = self.config.edge_probability_threshold;
        // Pr is clamped to [0, 1]: a threshold ≥ 1 can never be exceeded,
        // and anything non-finite or negative is left to the exact path.
        if !(0.0..1.0).contains(&theta) {
            return if theta >= 1.0 { Cut::NEVER } else { Cut::EXACT };
        }
        match model {
            FittedModel::PowerLaw(pl) => {
                exact_band(pl.quantile(theta), pl.alpha()).unwrap_or(Cut::EXACT)
            }
            FittedModel::Empirical(emp) => {
                // Pr(TTD) steps only at sample values: find the minimal
                // count `c` of samples strictly below TTD whose
                // probability — computed through the exact float chain the
                // slow path uses — clears the threshold. The edge then
                // instantiates iff TTD exceeds the c-th smallest sample
                // (and 0, below which the exact path reads probability 0).
                let sorted = emp.sorted_samples();
                let n = sorted.len() as f64;
                for (c, &cut) in sorted.iter().enumerate() {
                    let pr = (1.0 - (1.0 - (c + 1) as f64 / n)).clamp(0.0, 1.0);
                    if pr > theta {
                        let hi = cut.max(0.0);
                        return Cut {
                            lo: next_up(hi),
                            hi,
                        };
                    }
                }
                Cut::NEVER
            }
        }
    }

    /// Inverts Eq. (2) for one assignment into a [`Cut`] over the elapsed
    /// time, so the per-tick [`DeadlineModel::check_in_flight`] becomes a
    /// float compare until the assignment nears the one elapsed time at
    /// which its verdict can flip: kept below `lo`, reassigned above `hi`.
    ///
    /// For a fixed model and TTD, `P(t) − P(TTD)` is monotone
    /// non-increasing in the elapsed time `t`, so `Keep` turns into
    /// `Reassign` once, where `P(t) = θ + P(TTD)`: at
    /// `t* = k_min · (θ + P(TTD))^{−1/(α−1)}` for the power law. As in
    /// [`DeadlineModel::edge_gate`] the power-law cut is a conservative
    /// band around `t*`. `P(TTD)` is the very float the exact chain
    /// subtracts, so it contributes no error; what remains — one rounding
    /// of `θ + P(TTD)`, `powf`'s few ULPs and the `(α−1)`-fold
    /// amplification of the division inside the CCDF — stays below
    /// `~10⁻¹⁵ + (α−1)·10⁻¹⁶` relative, against a margin of at least
    /// `(α−1)·rel ≥ 10⁻¹⁰` relative to `θ + P(TTD)`. That sum is held
    /// above `10⁻³` so the margin also dwarfs the absolute rounding of
    /// the final subtraction. The step CCDF inverts exactly at a sample
    /// `c` (`lo = hi = c`; `−∞` for both when the probability is below
    /// the threshold from the start). Everything else — `θ ∉ (0, 1)`, a
    /// degenerate or NaN TTD, `θ + P(TTD)` outside `[10⁻³, 1)`, a
    /// non-finite `t*` — is left to the exact evaluation. The exact
    /// evaluation counts a negative elapsed time as 0 and the cut does
    /// not, so ask the cut of `max(elapsed, 0)`.
    pub fn recall_gate(&self, model: &FittedModel, time_to_deadline: f64) -> Cut {
        let theta = self.config.reassign_threshold;
        // The probability is clamped to [0, 1]: θ = 0 never fires and
        // θ ≥ 1 fires on (almost) anything, neither through an inversion.
        // NaN fails all three compares.
        let invertible = theta > 0.0 && theta < 1.0 && time_to_deadline > 0.0;
        if !invertible {
            return Cut::EXACT;
        }
        match model {
            FittedModel::PowerLaw(pl) => {
                let critical = theta + pl.ccdf(time_to_deadline);
                if !(1e-3..1.0).contains(&critical) {
                    return Cut::EXACT;
                }
                match exact_band(pl.inverse_ccdf(critical), pl.alpha()) {
                    // The window closes at TTD whatever the band says.
                    Some(band) => Cut {
                        lo: band.lo.min(time_to_deadline),
                        hi: band.hi,
                    },
                    None => Cut::EXACT,
                }
            }
            FittedModel::Empirical(emp) => {
                // P(t) steps down only as `t` passes a sample: with `c`
                // samples strictly below `t` it is `1 − c/n`. Find the
                // minimal `c` whose probability — through the exact float
                // chain of the slow path, which is monotone in `c` — falls
                // below the threshold; the task is then reassigned iff the
                // elapsed time exceeds the c-th smallest sample. Such a
                // `c` exists among the samples below TTD (there the
                // difference is 0 < θ), so the cut also covers `t ≥ TTD`.
                let sorted = emp.sorted_samples();
                let n = sorted.len() as f64;
                let at_deadline = emp.ccdf(time_to_deadline);
                for c in 0..=sorted.len() {
                    let pr = ((1.0 - c as f64 / n) - at_deadline).clamp(0.0, 1.0);
                    if pr < theta {
                        let cut = c.checked_sub(1).map_or(f64::NEG_INFINITY, |i| sorted[i]);
                        return Cut { lo: cut, hi: cut };
                    }
                }
                Cut::EXACT
            }
        }
    }

    /// In-flight rule: given the elapsed time on the current worker,
    /// decide whether to keep or reassign the task.
    pub fn check_in_flight<M: LatencyCcdf + ?Sized>(
        &self,
        model: &M,
        elapsed: f64,
        time_to_deadline: f64,
    ) -> DeadlineDecision {
        let probability = self.pr_complete_in_window(model, elapsed, time_to_deadline);
        if probability < self.config.reassign_threshold {
            DeadlineDecision::Reassign { probability }
        } else {
            DeadlineDecision::Keep { probability }
        }
    }
}

/// The exact-fallback band around an analytically inverted power-law
/// critical point, shared by both rules. Its relative half-width is wide
/// enough that a decision outside it differs from the true predicate
/// value by ≥ `(α−1)·rel` relative in CCDF space, orders of magnitude
/// beyond `powf`'s rounding error. `None` when no usable band exists
/// (non-finite centre, `α` so close to 1 that the band would swallow the
/// axis).
fn exact_band(center: f64, alpha: f64) -> Option<Cut> {
    let rel = (1e-10 / (alpha - 1.0)).max(1e-6);
    if !center.is_finite() || rel >= 1.0 {
        return None;
    }
    Some(Cut {
        lo: center * (1.0 - rel),
        hi: center * (1.0 + rel),
    })
}

/// The smallest `f64` above a finite `c ≥ 0` (`f64::next_up` is newer
/// than the workspace's minimum Rust).
fn next_up(c: f64) -> f64 {
    debug_assert!(c.is_finite() && c >= 0.0, "next_up({c})");
    if c == 0.0 {
        f64::from_bits(1)
    } else {
        f64::from_bits(c.to_bits() + 1)
    }
}

/// One of the paper's deadline rules inverted in its one variable — the
/// time-to-deadline for Eq. (3) ([`DeadlineModel::edge_gate`]), the
/// elapsed time for Eq. (2) ([`DeadlineModel::recall_gate`]): the answer
/// is *no* below `lo`, *yes* above `hi`, and only the exact model can
/// tell in between.
///
/// Every `Some` answer of [`Cut::classify`] equals what the exact
/// evaluation decides. `lo ≤ hi` except where a step CCDF inverts
/// exactly (`lo` is then the next float above `hi`, and nothing is left
/// between them).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cut {
    /// Below this the answer is certainly *no*: the edge is pruned, the
    /// assignment kept.
    pub lo: f64,
    /// Above this the answer is certainly *yes*: the edge is
    /// instantiated, the task reassigned.
    pub hi: f64,
}

impl Cut {
    /// Nothing is certain: the exact evaluation decides every input.
    const EXACT: Cut = Cut {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };

    /// *No* for every finite input.
    const NEVER: Cut = Cut {
        lo: f64::INFINITY,
        hi: f64::INFINITY,
    };

    /// `Some(true)` above `hi`, `Some(false)` below `lo`, and `None` —
    /// evaluate the rule exactly — in between and for NaN.
    #[inline]
    pub fn classify(&self, x: f64) -> Option<bool> {
        if x > self.hi {
            Some(true)
        } else if x < self.lo {
            Some(false)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::empirical::EmpiricalDist;
    use crate::powerlaw::PowerLaw;

    fn model() -> PowerLaw {
        // α = 2, k_min = 5 → P(k) = 5/k for k ≥ 5.
        PowerLaw::new(2.0, 5.0).unwrap()
    }

    #[test]
    fn eq3_matches_closed_form() {
        let dm = DeadlineModel::default();
        let m = model();
        // P(20) = 5/20 = 0.25 → Pr(complete before 20) = 0.75.
        assert!((dm.pr_complete_before(&m, 20.0) - 0.75).abs() < 1e-12);
        // TTD at/below k_min → CCDF 1 → probability 0.
        assert_eq!(dm.pr_complete_before(&m, 5.0), 0.0);
        assert_eq!(dm.pr_complete_before(&m, 0.0), 0.0);
        assert_eq!(dm.pr_complete_before(&m, -3.0), 0.0);
    }

    #[test]
    fn eq2_matches_closed_form() {
        let dm = DeadlineModel::default();
        let m = model();
        // P(10) − P(40) = 0.5 − 0.125 = 0.375.
        assert!((dm.pr_complete_in_window(&m, 10.0, 40.0) - 0.375).abs() < 1e-12);
    }

    #[test]
    fn eq2_empty_window_is_zero() {
        let dm = DeadlineModel::default();
        let m = model();
        assert_eq!(dm.pr_complete_in_window(&m, 40.0, 40.0), 0.0);
        assert_eq!(dm.pr_complete_in_window(&m, 50.0, 40.0), 0.0);
        assert_eq!(dm.pr_complete_in_window(&m, 0.0, 0.0), 0.0);
    }

    #[test]
    fn eq2_shrinks_as_time_elapses() {
        // As the worker keeps not finishing, the remaining window's
        // probability must be non-increasing; this is the signal the paper
        // exploits to detect abandoned/delayed tasks.
        let dm = DeadlineModel::default();
        let m = model();
        let ttd = 60.0;
        let mut last = f64::INFINITY;
        for elapsed in [0.0, 5.0, 10.0, 20.0, 40.0, 55.0, 59.0] {
            let p = dm.pr_complete_in_window(&m, elapsed, ttd);
            assert!(p <= last + 1e-12, "probability rose at elapsed={elapsed}");
            last = p;
        }
        // Just before the deadline there is almost no chance left.
        assert!(dm.pr_complete_in_window(&m, 59.0, 60.0) < 0.02);
    }

    #[test]
    fn eq2_before_kmin_elapsed_equals_eq3ish() {
        // While elapsed < k_min, P(elapsed) = 1 so Eq. 2 reduces to Eq. 3.
        let dm = DeadlineModel::default();
        let m = model();
        let a = dm.pr_complete_in_window(&m, 2.0, 30.0);
        let b = dm.pr_complete_before(&m, 30.0);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn edge_instantiation_threshold() {
        let dm = DeadlineModel::new(DeadlineModelConfig {
            edge_probability_threshold: 0.5,
            reassign_threshold: 0.1,
        });
        let m = model();
        // Pr(complete before 9) = 1 − 5/9 ≈ 0.444 < 0.5 → prune.
        assert!(!dm.should_instantiate_edge(&m, 9.0));
        // Pr(complete before 20) = 0.75 > 0.5 → instantiate.
        assert!(dm.should_instantiate_edge(&m, 20.0));
    }

    #[test]
    fn in_flight_keep_then_reassign() {
        let dm = DeadlineModel::default(); // reassign at < 0.1
        let m = model();
        let ttd = 50.0; // P(50) = 0.1
                        // Early on: P(ε) − P(50) = 1 − 0.1 = 0.9 → keep.
        let d = dm.check_in_flight(&m, 0.0, ttd);
        assert!(!d.is_reassign());
        assert!((d.probability() - 0.9).abs() < 1e-12);
        // Late: P(45) − P(50) = 5/45 − 0.1 ≈ 0.011 → reassign.
        let d = dm.check_in_flight(&m, 45.0, ttd);
        assert!(d.is_reassign());
        assert!(d.probability() < 0.1);
    }

    #[test]
    fn decision_accessors() {
        let keep = DeadlineDecision::Keep { probability: 0.4 };
        let re = DeadlineDecision::Reassign { probability: 0.01 };
        assert!(!keep.is_reassign());
        assert!(re.is_reassign());
        assert_eq!(keep.probability(), 0.4);
        assert_eq!(re.probability(), 0.01);
    }

    #[test]
    fn default_thresholds_match_paper() {
        let cfg = DeadlineModelConfig::default();
        assert_eq!(cfg.reassign_threshold, 0.1);
        assert_eq!(cfg.edge_probability_threshold, 0.1);
    }

    /// Every `Some` answer from the gate must equal the exact Eq. (3)
    /// evaluation — the bit-identity contract the incremental scheduler
    /// relies on.
    fn assert_gate_agrees(dm: &DeadlineModel, model: &FittedModel, ttds: &[f64]) {
        let gate = dm.edge_gate(model);
        for &ttd in ttds {
            let exact = dm.should_instantiate_edge(model, ttd);
            if let Some(fast) = gate.classify(ttd) {
                assert_eq!(fast, exact, "gate {gate:?} disagrees at ttd={ttd}");
            }
        }
    }

    #[test]
    fn edge_gate_matches_exact_powerlaw() {
        for theta in [0.0, 0.1, 0.5, 0.9, 0.999] {
            let dm = DeadlineModel::new(DeadlineModelConfig {
                edge_probability_threshold: theta,
                reassign_threshold: 0.1,
            });
            for (alpha, k_min) in [(2.0, 5.0), (1.01, 1.0), (64.0, 0.3)] {
                let pl = PowerLaw::new(alpha, k_min).unwrap();
                let ttd_star = pl.quantile(theta.min(0.999_999));
                let m = FittedModel::PowerLaw(pl);
                // Dense grid including the critical point's neighbourhood.
                let mut ttds = vec![-1.0, 0.0, k_min * 0.5, k_min, f64::NAN];
                for i in 0..200 {
                    ttds.push(ttd_star * (0.9 + 0.001 * i as f64));
                    ttds.push(k_min * (0.1 + 0.05 * i as f64));
                }
                assert_gate_agrees(&dm, &m, &ttds);
            }
        }
    }

    #[test]
    fn edge_gate_matches_exact_empirical() {
        let samples = [3.0, 3.0, 7.0, 12.0, 20.0];
        let emp = EmpiricalDist::from_samples(&samples).unwrap();
        let m = FittedModel::Empirical(emp);
        for theta in [0.0, 0.1, 0.19, 0.2, 0.5, 0.79, 0.8, 0.99] {
            let dm = DeadlineModel::new(DeadlineModelConfig {
                edge_probability_threshold: theta,
                reassign_threshold: 0.1,
            });
            let mut ttds = vec![-1.0, 0.0, f64::NAN];
            for i in 0..500 {
                ttds.push(i as f64 * 0.05);
            }
            // The steps themselves, and values straddling each step.
            for &s in &samples {
                ttds.extend([s, s - 1e-9, s + 1e-9]);
            }
            let gate = dm.edge_gate(&m);
            // Step CCDFs invert exactly: no TTD may fall back.
            for &ttd in &ttds {
                if !ttd.is_nan() {
                    assert!(gate.classify(ttd).is_some(), "fallback at ttd={ttd}");
                }
            }
            assert_gate_agrees(&dm, &m, &ttds);
        }
    }

    #[test]
    fn edge_gate_threshold_one_never_fires() {
        let dm = DeadlineModel::new(DeadlineModelConfig {
            edge_probability_threshold: 1.0,
            reassign_threshold: 0.1,
        });
        let m = FittedModel::PowerLaw(model());
        assert_eq!(dm.edge_gate(&m), Cut::NEVER);
        assert_eq!(dm.edge_gate(&m).classify(1e12), Some(false));
        assert!(!dm.should_instantiate_edge(&m, 1e12));
    }

    /// Every shape the two inversions produce, probed at its cut points
    /// and one ULP either side of each, then at 0, −0, +∞, −∞ and NaN
    /// (`T`/`F` for `Some(true)`/`Some(false)`, `-` for `None`). `rule`
    /// is the shape's own definition — Eq. (3): exact everywhere, never,
    /// kept iff `ttd > 0 && ttd > cut` (NaN exact), or a band; Eq. (2),
    /// where a negative or NaN elapsed time counts as 0: exact, always,
    /// reassigned iff `elapsed > cut`, or a band — and `cut` what
    /// [`Cut::classify`] answers. They may differ only where the cut
    /// sends an input to the exact path that no build or recall check
    /// meets: NaN, ±∞, and a recall cut's `lo`, where the recall stage,
    /// which skips an assignment only while `elapsed < lo`, evaluates
    /// exactly either way. Anywhere else a `Some` turned `None` would move
    /// `build.cdf_memo_hits` or `recall.exact_checks`.
    #[test]
    fn each_rule_shape_keeps_its_answers_at_its_boundaries() {
        let dm = |edge, recall| {
            DeadlineModel::new(DeadlineModelConfig {
                edge_probability_threshold: edge,
                reassign_threshold: recall,
            })
        };
        let pl = FittedModel::PowerLaw(model());
        let steps = |s: &[f64]| FittedModel::Empirical(EmpiricalDist::from_samples(s).unwrap());
        let (emp, neg) = (
            steps(&[3.0, 3.0, 7.0, 12.0, 20.0]),
            steps(&[-2.0, 3.0, 7.0]),
        );
        let (inf, tiny) = (f64::INFINITY, f64::from_bits(1));
        let band = Cut {
            lo: 5.555549999999999,
            hi: 5.5555611111111105,
        };
        let recall_band = Cut {
            lo: 24.999975,
            hi: 25.000024999999997,
        };
        let three = Cut {
            lo: 3.0f64.next_up(),
            hi: 3.0,
        };
        #[rustfmt::skip]
        let rows = [
            // (shape, derived cut, expected cut, cut points, rule, cut, recall)
            ("exact", dm(-0.2, 0.1).edge_gate(&pl), Cut::EXACT, vec![], "-----", "-----", false),
            ("never", dm(1.0, 0.1).edge_gate(&pl), Cut::NEVER, vec![], "FFFFF", "FF-F-", false),
            ("above", dm(0.1, 0.1).edge_gate(&emp), three, vec![3.0], "FFTFFTF-", "FFTFFTF-", false),
            ("above < 0", dm(0.1, 0.1).edge_gate(&neg), Cut { lo: tiny, hi: 0.0 }, vec![-2.0, 0.0],
                "FFFFFTFFTF-", "FFFFFTFFTF-", false),
            ("bracket", dm(0.1, 0.1).edge_gate(&pl), band, vec![band.lo, band.hi],
                "F----TFFTF-", "F----TFFTF-", false),
            ("recall exact", dm(0.1, 0.0).recall_gate(&pl, 50.0), Cut::EXACT, vec![],
                "-----", "-----", true),
            ("recall always", dm(0.1, 0.1).recall_gate(&emp, 2.0), Cut { lo: -inf, hi: -inf }, vec![],
                "TTTTT", "TTT--", true),
            ("recall after", dm(0.1, 0.1).recall_gate(&emp, 15.0), Cut { lo: 12.0, hi: 12.0 }, vec![12.0],
                "FFTFFTFF", "F-TFFTF-", true),
            ("recall bracket", dm(0.1, 0.1).recall_gate(&pl, 50.0), recall_band,
                vec![recall_band.lo, recall_band.hi], "F----TFFTFF", "F----TFFTF-", true),
        ];
        let answer = |c: char| match c {
            'T' => Some(true),
            'F' => Some(false),
            _ => None,
        };
        for (shape, derived, expected, points, rule, cut, recall) in rows {
            assert_eq!(derived, expected, "{shape}");
            let mut probes: Vec<f64> = points
                .iter()
                .flat_map(|&c: &f64| [c.next_down(), c, c.next_up()])
                .collect();
            probes.extend([0.0, -0.0, inf, -inf, f64::NAN]);
            assert_eq!(probes.len(), rule.len(), "{shape}");
            for ((x, r), c) in probes.into_iter().zip(rule.chars()).zip(cut.chars()) {
                let (rule, cut) = (answer(r), answer(c));
                assert_eq!(derived.classify(x), cut, "{shape} at {x}");
                let unmet = x.is_nan() || x.is_infinite() || (recall && x == derived.lo);
                assert!(
                    cut == rule || (cut.is_none() && unmet),
                    "{shape} at {x}: {rule:?} became {cut:?}"
                );
            }
        }
    }
}
