//! Property-based tests over the probability substrate.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use react::prob::{
    DeadlineModel, DeadlineModelConfig, EdgeGate, EmpiricalDist, EstimatorConfig,
    ExecTimeEstimator, FitMethod, FittedModel, GatedRow, PowerLaw, RecallGate,
};

/// Thresholds inside and outside the range the Eq. (2) inversion handles.
fn thresholds() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0f64..1.0,
        1e-6f64..1e-2,
        Just(0.0),
        Just(1.0),
        Just(1.5),
        Just(-0.2),
        Just(f64::NAN),
    ]
}

/// Times-to-deadline, including the degenerate ones.
fn horizons() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.01f64..1e4,
        0.01f64..50.0,
        Just(0.0),
        Just(-1.0),
        Just(f64::INFINITY),
        Just(f64::NAN),
    ]
}

/// The contract `react-core`'s recall stage rests on: wherever the gate
/// answers, it answers what the exact Eq. (2) check decides, and below
/// `keep_before` the exact check never reassigns. Probes the given
/// elapsed times plus the gate's own critical points and their
/// neighbours; returns the gate.
fn assert_recall_gate_agrees(
    theta: f64,
    model: &FittedModel,
    ttd: f64,
    elapsed: &[f64],
) -> Result<RecallGate, TestCaseError> {
    let dm = DeadlineModel::new(DeadlineModelConfig {
        edge_probability_threshold: 0.1,
        reassign_threshold: theta,
    });
    let gate = dm.recall_gate(model, ttd);
    let mut probes = elapsed.to_vec();
    probes.extend([
        -1.0,
        0.0,
        ttd,
        ttd * 0.5,
        ttd * 2.0,
        f64::NAN,
        f64::INFINITY,
    ]);
    let critical = match gate {
        RecallGate::Exact | RecallGate::Always => vec![],
        RecallGate::After { cut } => vec![cut],
        RecallGate::Bracket { lo, hi } => vec![lo, hi, 0.5 * (lo + hi)],
    };
    for c in critical {
        let ulps = |n: i64| f64::from_bits((c.to_bits() as i64 + n) as u64);
        probes.extend([c, ulps(-1), ulps(1), ulps(-64), ulps(64)]);
        probes.extend([c * (1.0 - 1e-7), c * (1.0 + 1e-7), c * 0.99, c * 1.01]);
    }
    for e in probes {
        let exact = dm.check_in_flight(model, e, ttd).is_reassign();
        if let Some(fast) = gate.classify(e) {
            prop_assert_eq!(
                fast,
                exact,
                "{:?} at elapsed={} ttd={} θ={}",
                gate,
                e,
                ttd,
                theta
            );
        }
        if e.max(0.0) < gate.keep_before() {
            prop_assert!(
                !exact,
                "{:?} keeps elapsed={} ttd={} θ={}",
                gate,
                e,
                ttd,
                theta
            );
        }
    }
    Ok(gate)
}

/// A row of Eq. (3) verdicts reached the way the warm graph build
/// reaches them: the per-pair rule [`EdgeGate::walk_row`] hands over,
/// and the exact evaluation where it does not answer. Each verdict comes
/// with whether the rule answered it.
struct RowVerdicts<'a> {
    dm: &'a DeadlineModel,
    model: &'a FittedModel,
    ttds: &'a [f64],
}

impl GatedRow for RowVerdicts<'_> {
    type Output = Vec<(bool, bool)>;

    fn run(self, rule: impl Fn(f64) -> Option<bool>) -> Self::Output {
        let verdict = |ttd: f64| {
            let answer = rule(ttd);
            let exact = || self.dm.should_instantiate_edge(self.model, ttd);
            (answer.unwrap_or_else(exact), answer.is_some())
        };
        self.ttds.iter().map(|&ttd| verdict(ttd)).collect()
    }
}

/// The row rule of `model`'s gate at threshold `theta` equals
/// `classify(ttd).unwrap_or(exact)` on `ttds`, ±0, NaN and each of the
/// gate's cut points with its neighbours one ULP either side. Returns
/// the gate.
fn assert_row_rule_is_classify(
    theta: f64,
    model: &FittedModel,
    ttds: &[f64],
) -> Result<EdgeGate, TestCaseError> {
    let dm = DeadlineModel::new(DeadlineModelConfig {
        edge_probability_threshold: theta,
        reassign_threshold: 0.1,
    });
    let gate = dm.edge_gate(model);
    let cuts = match gate {
        EdgeGate::Exact | EdgeGate::Never => vec![],
        EdgeGate::Above { cut } => vec![cut],
        EdgeGate::Bracket { lo, hi } => vec![lo, hi],
    };
    let mut probes = ttds.to_vec();
    probes.extend([0.0, -0.0, f64::NAN]);
    for c in cuts {
        probes.extend([c.next_down(), c, c.next_up()]);
    }
    let row = gate.walk_row(RowVerdicts {
        dm: &dm,
        model,
        ttds: &probes,
    });
    prop_assert_eq!(row.len(), probes.len());
    for (&ttd, &(verdict, answered)) in probes.iter().zip(&row) {
        let fast = gate.classify(ttd);
        let expected = fast.unwrap_or_else(|| dm.should_instantiate_edge(model, ttd));
        prop_assert_eq!(verdict, expected, "{:?} at ttd={} θ={}", gate, ttd, theta);
        prop_assert_eq!(answered, fast.is_some(), "{:?} at ttd={}", gate, ttd);
    }
    Ok(gate)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ccdf_is_monotone_nonincreasing(
        alpha in 1.01f64..8.0,
        k_min in 0.1f64..100.0,
        a in 0.0f64..1e4,
        b in 0.0f64..1e4,
    ) {
        let pl = PowerLaw::new(alpha, k_min).unwrap();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(pl.ccdf(lo) + 1e-12 >= pl.ccdf(hi));
        prop_assert!((0.0..=1.0).contains(&pl.ccdf(a)));
    }

    #[test]
    fn cdf_quantile_roundtrip(alpha in 1.05f64..6.0, k_min in 0.5f64..50.0, q in 0.0f64..0.999) {
        let pl = PowerLaw::new(alpha, k_min).unwrap();
        let k = pl.quantile(q);
        prop_assert!(k >= k_min);
        prop_assert!((pl.cdf(k) - q).abs() < 1e-6);
    }

    #[test]
    fn samples_respect_support_and_fit_recovers(
        alpha in 1.5f64..4.0,
        k_min in 1.0f64..20.0,
        seed in 0u64..50,
    ) {
        let pl = PowerLaw::new(alpha, k_min).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let samples = pl.sample_n(&mut rng, 4000);
        prop_assert!(samples.iter().all(|&s| s >= k_min));
        let fitted = PowerLaw::fit(&samples, k_min, FitMethod::Continuous).unwrap();
        // Generous statistical tolerance at n = 4000.
        prop_assert!((fitted.alpha() - alpha).abs() < 0.35,
            "α {} fitted as {}", alpha, fitted.alpha());
    }

    #[test]
    fn eq2_probability_is_valid_and_bounded_by_eq3(
        alpha in 1.1f64..5.0,
        k_min in 0.5f64..30.0,
        elapsed in 0.0f64..200.0,
        extra in 0.1f64..200.0,
    ) {
        let pl = PowerLaw::new(alpha, k_min).unwrap();
        let model = DeadlineModel::new(DeadlineModelConfig::default());
        let ttd = elapsed + extra;
        let p_window = model.pr_complete_in_window(&pl, elapsed, ttd);
        let p_total = model.pr_complete_before(&pl, ttd);
        prop_assert!((0.0..=1.0).contains(&p_window));
        // The window probability can never exceed the total probability
        // of finishing before the deadline… plus the mass below k_min
        // (when elapsed < k_min the two coincide).
        prop_assert!(p_window <= 1.0);
        if elapsed <= k_min {
            prop_assert!((p_window - p_total).abs() < 1e-9);
        }
    }

    #[test]
    fn eq2_monotone_in_elapsed(
        alpha in 1.1f64..5.0,
        k_min in 0.5f64..30.0,
        ttd in 1.0f64..300.0,
        e1 in 0.0f64..300.0,
        e2 in 0.0f64..300.0,
    ) {
        let pl = PowerLaw::new(alpha, k_min).unwrap();
        let model = DeadlineModel::new(DeadlineModelConfig::default());
        let (lo, hi) = if e1 <= e2 { (e1, e2) } else { (e2, e1) };
        prop_assert!(
            model.pr_complete_in_window(&pl, lo, ttd) + 1e-12
                >= model.pr_complete_in_window(&pl, hi, ttd)
        );
    }

    #[test]
    fn estimator_kmin_is_smallest_retained_sample(
        samples in proptest::collection::vec(0.01f64..1000.0, 1..50),
        window in proptest::option::of(1usize..20),
    ) {
        let mut est = ExecTimeEstimator::new(EstimatorConfig {
            min_samples: 1,
            window,
            fit_method: FitMethod::Paper,
        });
        for &s in &samples {
            est.observe(s);
        }
        let retained: Vec<f64> = match window {
            Some(w) if samples.len() > w => samples[samples.len() - w..].to_vec(),
            _ => samples.clone(),
        };
        let expect = retained.iter().copied().fold(f64::INFINITY, f64::min);
        prop_assert_eq!(est.samples().iter().copied().fold(f64::INFINITY, f64::min), expect);
        // The fitted model (if any) uses that k_min.
        if let Some(m) = est.model() {
            prop_assert_eq!(m.k_min(), expect);
        }
    }

    #[test]
    fn recall_gate_never_disagrees_with_eq2_power_law(
        alpha in prop_oneof![1.0001f64..1.1, 1.1f64..8.0, 8.0f64..64.0],
        k_min in 0.01f64..100.0,
        theta in thresholds(),
        ttd in horizons(),
        window_frac in -0.5f64..2.0,
        kmin_mult in 0.0f64..3.0,
    ) {
        let model = FittedModel::PowerLaw(PowerLaw::new(alpha, k_min).unwrap());
        // Inside and beyond the window, and on both sides of k_min.
        let elapsed = [window_frac * ttd, kmin_mult * k_min, k_min];
        assert_recall_gate_agrees(theta, &model, ttd, &elapsed)?;
    }

    #[test]
    fn recall_gate_never_disagrees_with_eq2_empirical(
        // One decimal: ties between samples, and with the probes.
        samples in proptest::collection::vec((1u32..500).prop_map(|d| d as f64 / 10.0), 1..40),
        theta in thresholds(),
        ttd in horizons(),
        window_frac in -0.5f64..2.0,
    ) {
        let model = FittedModel::Empirical(EmpiricalDist::from_samples(&samples).unwrap());
        let mut elapsed = vec![window_frac * ttd];
        for &s in &samples {
            elapsed.extend([s, s - 1e-9, s + 1e-9]);
        }
        let gate = assert_recall_gate_agrees(theta, &model, ttd, &elapsed)?;
        // A step CCDF inverts exactly: no elapsed time falls back.
        if theta > 0.0 && theta < 1.0 && ttd > 0.0 {
            prop_assert!(gate.classify(window_frac * ttd).is_some(), "{:?}", gate);
        }
    }

    /// Every case walks all four gates: the power law's `Bracket`, the
    /// step CCDF's `Above`, and both models at a threshold no TTD clears
    /// (`Never`) and at one the gate cannot invert (`Exact`).
    #[test]
    fn row_rule_is_classify_then_exact(
        alpha in prop_oneof![1.0001f64..1.1, 1.1f64..8.0, 8.0f64..64.0],
        k_min in 0.01f64..100.0,
        samples in proptest::collection::vec((1u32..500).prop_map(|d| d as f64 / 10.0), 1..40),
        theta in 0.001f64..0.999,
        ttd in horizons(),
    ) {
        let power_law = FittedModel::PowerLaw(PowerLaw::new(alpha, k_min).unwrap());
        let empirical = FittedModel::Empirical(EmpiricalDist::from_samples(&samples).unwrap());
        let ttds = [ttd, k_min, samples[0]];
        for model in [&power_law, &empirical] {
            let gate = assert_row_rule_is_classify(theta, model, &ttds)?;
            let expected = match model {
                // Unless `ttd*` overflows, as near α = 1 it may.
                FittedModel::PowerLaw(pl) => {
                    matches!(gate, EdgeGate::Bracket { .. }) || !pl.quantile(theta).is_finite()
                }
                FittedModel::Empirical(_) => matches!(gate, EdgeGate::Above { .. }),
            };
            prop_assert!(expected, "{:?} from {:?}", gate, model);
            let never = assert_row_rule_is_classify(1.0, model, &ttds)?;
            prop_assert_eq!(never, EdgeGate::Never);
            let exact = assert_row_rule_is_classify(-0.2, model, &ttds)?;
            prop_assert_eq!(exact, EdgeGate::Exact);
        }
    }
}
