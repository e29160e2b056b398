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

    /// Inverts Eq. (3) into a memoized per-model [`EdgeGate`], so the
    /// per-edge [`DeadlineModel::should_instantiate_edge`] `powf` becomes
    /// a float compare on the graph-build hot path.
    ///
    /// The CCDF is monotone non-increasing in TTD, so the edge predicate
    /// `1 − P(TTD) > θ` flips exactly once, at the critical threshold
    /// `ttd* = quantile(θ) = k_min · (1 − θ)^{−1/(α−1)}` for the power
    /// law. To keep the fast path *bit-identical* to the exact `powf`
    /// evaluation, the power-law gate is a conservative bracket around
    /// `ttd*`: decisions outside the bracket are provably on the same
    /// side as the exact predicate (the bracket's relative margin dwarfs
    /// `powf`'s few-ULP error), and the rare TTD inside it falls back to
    /// the exact evaluation. Step CCDFs invert exactly, with no bracket.
    pub fn edge_gate(&self, model: &FittedModel) -> EdgeGate {
        let theta = self.config.edge_probability_threshold;
        // Pr is clamped to [0, 1]: a threshold ≥ 1 can never be exceeded,
        // and anything non-finite or negative is left to the exact path.
        if !(0.0..1.0).contains(&theta) {
            return if theta >= 1.0 {
                EdgeGate::Never
            } else {
                EdgeGate::Exact
            };
        }
        match model {
            FittedModel::PowerLaw(pl) => match exact_band(pl.quantile(theta), pl.alpha()) {
                Some((lo, hi)) => EdgeGate::Bracket { lo, hi },
                None => EdgeGate::Exact,
            },
            FittedModel::Empirical(emp) => {
                // Pr(TTD) steps only at sample values: find the minimal
                // count `c` of samples strictly below TTD whose
                // probability — computed through the exact float chain the
                // slow path uses — clears the threshold. The edge then
                // instantiates iff TTD exceeds the c-th smallest sample.
                let sorted = emp.sorted_samples();
                let n = sorted.len() as f64;
                for (c, &cut) in sorted.iter().enumerate() {
                    let pr = (1.0 - (1.0 - (c + 1) as f64 / n)).clamp(0.0, 1.0);
                    if pr > theta {
                        return EdgeGate::Above { cut };
                    }
                }
                EdgeGate::Never
            }
        }
    }

    /// Inverts Eq. (2) for one assignment into a [`RecallGate`], so the
    /// per-tick [`DeadlineModel::check_in_flight`] becomes a float compare
    /// until the assignment nears the one elapsed time at which its
    /// verdict can flip.
    ///
    /// For a fixed model and TTD, `P(t) − P(TTD)` is monotone
    /// non-increasing in the elapsed time `t`, so `Keep` turns into
    /// `Reassign` once, where `P(t) = θ + P(TTD)`: at
    /// `t* = k_min · (θ + P(TTD))^{−1/(α−1)}` for the power law. As in
    /// [`DeadlineModel::edge_gate`] the power-law gate is a conservative
    /// bracket around `t*`. `P(TTD)` is the very float the exact chain
    /// subtracts, so it contributes no error; what remains — one rounding
    /// of `θ + P(TTD)`, `powf`'s few ULPs and the `(α−1)`-fold
    /// amplification of the division inside the CCDF — stays below
    /// `~10⁻¹⁵ + (α−1)·10⁻¹⁶` relative, against a margin of at least
    /// `(α−1)·rel ≥ 10⁻¹⁰` relative to `θ + P(TTD)`. That sum is held
    /// above `10⁻³` so the margin also dwarfs the absolute rounding of
    /// the final subtraction. The step CCDF inverts exactly at a sample.
    /// Everything else — `θ ∉ (0, 1)`, a degenerate or NaN TTD,
    /// `θ + P(TTD)` outside `[10⁻³, 1)`, a non-finite `t*` — is left to
    /// the exact evaluation.
    pub fn recall_gate(&self, model: &FittedModel, time_to_deadline: f64) -> RecallGate {
        let theta = self.config.reassign_threshold;
        // The probability is clamped to [0, 1]: θ = 0 never fires and
        // θ ≥ 1 fires on (almost) anything, neither through an inversion.
        // NaN fails all three compares.
        let invertible = theta > 0.0 && theta < 1.0 && time_to_deadline > 0.0;
        if !invertible {
            return RecallGate::Exact;
        }
        match model {
            FittedModel::PowerLaw(pl) => {
                let critical = theta + pl.ccdf(time_to_deadline);
                if !(1e-3..1.0).contains(&critical) {
                    return RecallGate::Exact;
                }
                match exact_band(pl.inverse_ccdf(critical), pl.alpha()) {
                    // The window closes at TTD whatever the bracket says.
                    Some((lo, hi)) => RecallGate::Bracket {
                        lo: lo.min(time_to_deadline),
                        hi,
                    },
                    None => RecallGate::Exact,
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
                        return match c.checked_sub(1) {
                            Some(i) => RecallGate::After { cut: sorted[i] },
                            None => RecallGate::Always,
                        };
                    }
                }
                RecallGate::Exact
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

/// The exact-fallback band `(lo, hi)` around an analytically inverted
/// power-law critical point, shared by both gates. Its relative
/// half-width is wide enough that a decision outside it differs from the
/// true predicate value by ≥ `(α−1)·rel` relative in CCDF space, orders
/// of magnitude beyond `powf`'s rounding error. `None` when no usable
/// band exists (non-finite centre, `α` so close to 1 that the band would
/// swallow the axis).
fn exact_band(center: f64, alpha: f64) -> Option<(f64, f64)> {
    let rel = (1e-10 / (alpha - 1.0)).max(1e-6);
    if !center.is_finite() || rel >= 1.0 {
        return None;
    }
    Some((center * (1.0 - rel), center * (1.0 + rel)))
}

/// Memoized inversion of the Eq. (3) edge predicate for one fitted model
/// at one threshold (see [`DeadlineModel::edge_gate`]).
///
/// [`EdgeGate::classify`] answers most TTDs with a compare; `None` means
/// the caller must evaluate [`DeadlineModel::should_instantiate_edge`]
/// exactly. Every `Some` answer is guaranteed to equal what the exact
/// evaluation would have returned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeGate {
    /// No fast path: evaluate Eq. (3) exactly for every TTD.
    Exact,
    /// No finite TTD clears the threshold.
    Never,
    /// Instantiate iff `ttd > cut` (and `ttd > 0`): the exact inversion
    /// of a step CCDF.
    Above {
        /// The critical sample value the TTD must exceed.
        cut: f64,
    },
    /// Fast decision outside `[lo, hi]`; inside the band, Eq. (3)
    /// decides (the band brackets the analytic critical point `ttd*`).
    Bracket {
        /// Below this the edge is certainly pruned.
        lo: f64,
        /// Above this the edge is certainly instantiated.
        hi: f64,
    },
}

/// Work over one pool row's (worker, task) pairs that asks Eq. (3) of
/// each pair's time-to-deadline. [`EdgeGate::walk_row`] matches the gate
/// once and runs the row with that variant's per-pair rule, so the loop
/// over the row's pairs carries no `match`.
pub trait GatedRow {
    /// What walking the row yields.
    type Output;

    /// Walks the row. `rule(ttd)` is [`EdgeGate::classify`]`(ttd)` for
    /// the gate the walk started from: `None` asks for the exact
    /// [`DeadlineModel::should_instantiate_edge`].
    fn run(self, rule: impl Fn(f64) -> Option<bool>) -> Self::Output;
}

/// `Above { cut }`'s rule: a NaN TTD goes to the exact path, any other
/// is kept iff it is positive and above the cut.
#[inline]
fn above(cut: f64, ttd: f64) -> Option<bool> {
    if ttd.is_nan() {
        None
    } else {
        Some(ttd > 0.0 && ttd > cut)
    }
}

/// `Bracket { lo, hi }`'s rule: kept above `hi`, pruned below `lo`, the
/// exact path inside the band (and for NaN).
#[inline]
fn bracket(lo: f64, hi: f64, ttd: f64) -> Option<bool> {
    if ttd > hi {
        Some(true)
    } else if ttd < lo {
        Some(false)
    } else {
        None
    }
}

impl EdgeGate {
    /// Fast-path decision for a time-to-deadline; `None` requests the
    /// exact Eq. (3) evaluation (NaN TTDs also land here and resolve to
    /// "prune" through the exact path).
    #[inline]
    pub fn classify(&self, ttd: f64) -> Option<bool> {
        match *self {
            EdgeGate::Exact => None,
            EdgeGate::Never => Some(false),
            EdgeGate::Above { cut } => above(cut, ttd),
            EdgeGate::Bracket { lo, hi } => bracket(lo, hi, ttd),
        }
    }

    /// Runs `row` with this gate's per-pair rule — [`Self::classify`]
    /// with the variant matched here, once, instead of once per pair.
    #[inline]
    pub fn walk_row<R: GatedRow>(self, row: R) -> R::Output {
        match self {
            EdgeGate::Exact => row.run(|_| None),
            EdgeGate::Never => row.run(|_| Some(false)),
            EdgeGate::Above { cut } => row.run(move |ttd| above(cut, ttd)),
            EdgeGate::Bracket { lo, hi } => row.run(move |ttd| bracket(lo, hi, ttd)),
        }
    }
}

/// Inversion of the Eq. (2) in-flight predicate for one fitted model,
/// one threshold and one time-to-deadline (see
/// [`DeadlineModel::recall_gate`]).
///
/// [`RecallGate::classify`] answers most elapsed times with a compare;
/// `None` means the caller must evaluate
/// [`DeadlineModel::check_in_flight`] exactly. Every `Some` answer equals
/// what the exact evaluation would have decided.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecallGate {
    /// No fast path: evaluate Eq. (2) exactly at every elapsed time.
    Exact,
    /// Reassign at every elapsed time: the probability is below the
    /// threshold before the worker has spent any time on the task.
    Always,
    /// Reassign iff `elapsed > cut`: the exact inversion of a step CCDF.
    After {
        /// The sample value the elapsed time must exceed.
        cut: f64,
    },
    /// Fast decision outside `[lo, hi]`; inside the band Eq. (2) decides
    /// (the band brackets the analytic critical point `t*`).
    Bracket {
        /// Below this the assignment is certainly kept.
        lo: f64,
        /// Above this the task is certainly reassigned.
        hi: f64,
    },
}

impl RecallGate {
    /// Fast-path decision for an elapsed time — `Some(true)` reassigns,
    /// `Some(false)` keeps — or `None` to request the exact Eq. (2)
    /// evaluation. Negative and NaN elapsed times count as 0, as they do
    /// on the exact path.
    #[inline]
    pub fn classify(&self, elapsed: f64) -> Option<bool> {
        let elapsed = elapsed.max(0.0);
        match *self {
            RecallGate::Exact => None,
            RecallGate::Always => Some(true),
            RecallGate::After { cut } => Some(elapsed > cut),
            RecallGate::Bracket { lo, hi } => {
                if elapsed < lo {
                    Some(false)
                } else if elapsed > hi {
                    Some(true)
                } else {
                    None
                }
            }
        }
    }

    /// The elapsed time strictly below which the assignment is certainly
    /// kept (`−∞` when nothing is certain): what a caller stores to skip
    /// the check with one compare per tick.
    #[inline]
    pub fn keep_before(&self) -> f64 {
        match *self {
            RecallGate::Exact | RecallGate::Always => f64::NEG_INFINITY,
            RecallGate::After { cut } => cut,
            RecallGate::Bracket { lo, .. } => lo,
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
        assert_eq!(dm.edge_gate(&m), EdgeGate::Never);
        assert_eq!(dm.edge_gate(&m).classify(1e12), Some(false));
        assert!(!dm.should_instantiate_edge(&m, 1e12));
    }
}
