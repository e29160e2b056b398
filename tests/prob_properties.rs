//! Property-based tests over the probability substrate.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use react::prob::{
    Cut, DeadlineModel, DeadlineModelConfig, EmpiricalDist, EstimatorConfig, ExecTimeEstimator,
    FitMethod, FittedModel, PowerLaw,
};

mod common;

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

/// The contract `react-core`'s recall stage rests on: wherever the cut
/// answers for an elapsed time (clamped at 0, as the stage clamps it), it
/// answers what the exact Eq. (2) check decides, and below `lo` the exact
/// check never reassigns. Probes the given elapsed times plus the cut's
/// own finite points, the middle of its band, and their neighbours;
/// returns the cut.
fn assert_recall_gate_agrees(
    theta: f64,
    model: &FittedModel,
    ttd: f64,
    elapsed: &[f64],
) -> Result<Cut, TestCaseError> {
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
    let mut critical: Vec<f64> = [gate.lo, gate.hi]
        .into_iter()
        .filter(|c| c.is_finite())
        .collect();
    if gate.lo < gate.hi && critical.len() == 2 {
        critical.push(0.5 * (gate.lo + gate.hi));
    }
    critical.dedup();
    for c in critical {
        let ulps = |n: i64| f64::from_bits((c.to_bits() as i64 + n) as u64);
        probes.extend([c, ulps(-1), ulps(1), ulps(-64), ulps(64)]);
        probes.extend([c * (1.0 - 1e-7), c * (1.0 + 1e-7), c * 0.99, c * 1.01]);
    }
    for e in probes {
        let exact = dm.check_in_flight(model, e, ttd).is_reassign();
        if let Some(fast) = gate.classify(e.max(0.0)) {
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
        if e.max(0.0) < gate.lo {
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

/// The warm graph build's per-pair rule: wherever `classify(ttd)` answers,
/// it answers what the exact Eq. (3) evaluation decides, on `ttds`, ±0,
/// NaN and each of the cut's finite points with its neighbours one ULP
/// either side. Returns the cut.
fn assert_row_rule_is_classify(
    theta: f64,
    model: &FittedModel,
    ttds: &[f64],
) -> Result<Cut, TestCaseError> {
    let dm = DeadlineModel::new(DeadlineModelConfig {
        edge_probability_threshold: theta,
        reassign_threshold: 0.1,
    });
    let gate = dm.edge_gate(model);
    let mut probes = ttds.to_vec();
    probes.extend([0.0, -0.0, f64::NAN]);
    for c in [gate.lo, gate.hi].into_iter().filter(|c| c.is_finite()) {
        probes.extend([c.next_down(), c, c.next_up()]);
    }
    for ttd in probes {
        if let Some(fast) = gate.classify(ttd) {
            let exact = dm.should_instantiate_edge(model, ttd);
            prop_assert_eq!(fast, exact, "{:?} at ttd={} θ={}", gate, ttd, theta);
        }
    }
    Ok(gate)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(128)))]

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
        let mut est = ExecTimeEstimator::new(EstimatorConfig { window });
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
        // A step CCDF inverts exactly: only the cut itself falls back.
        let e = (window_frac * ttd).max(0.0);
        if theta > 0.0 && theta < 1.0 && ttd > 0.0 && e != gate.lo {
            prop_assert!(gate.classify(e).is_some(), "{:?}", gate);
        }
    }

    /// Every case walks all four cut shapes: the power law's band
    /// (`lo < hi`), the step CCDF's exact inversion (`lo` the next float
    /// above `hi`), and both models at a threshold no TTD clears (`+∞`
    /// for both) and at one the rule cannot invert (`−∞`, `+∞`).
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
                    (gate.lo < gate.hi && gate.hi.is_finite()) || !pl.quantile(theta).is_finite()
                }
                FittedModel::Empirical(_) => gate.lo == gate.hi.next_up(),
            };
            prop_assert!(expected, "{:?} from {:?}", gate, model);
            let never = assert_row_rule_is_classify(1.0, model, &ttds)?;
            prop_assert_eq!(never, Cut { lo: f64::INFINITY, hi: f64::INFINITY });
            let exact = assert_row_rule_is_classify(-0.2, model, &ttds)?;
            prop_assert_eq!(exact, Cut { lo: f64::NEG_INFINITY, hi: f64::INFINITY });
        }
    }
}
