//! Calibrated scheduler-compute cost model.
//!
//! The paper's evaluation ran a Java middleware on PlanetLab (2013);
//! matching a 1000×1000 full graph took **99.7 s** with Greedy and
//! **≈12 s** with REACT/Metropolis at 1000 cycles (**≈45 s** at 3000).
//! This Rust implementation is orders of magnitude faster in wall-clock,
//! which would erase the queueing dynamics that drive the paper's
//! Figs. 5–10 (Greedy collapses precisely *because* matching time grows
//! with graph size relative to task deadlines).
//!
//! [`CostModel`] therefore converts each matcher's abstract
//! [`Matching::cost_units`](crate::Matching) into **simulated seconds**,
//! with per-algorithm coefficients calibrated against the Fig. 3 anchors:
//!
//! | matcher | cost units | coefficient | anchor |
//! |---|---|---|---|
//! | `react`, `metropolis` | `c·E` | 1.35 × 10⁻⁸ s | 12 s @ c=1000, E=10⁶ and 45 s @ c=3000 (least-squares ≈ 13.5/40.5 s) |
//! | `greedy` | `V·E` | 9.97 × 10⁻⁸ s | 99.7 s @ V=1000, E=10⁶ |
//! | `traditional` | `V` | 10⁻⁴ s | negligible — portal lookup per task |
//! | `hungarian` | `n³` | 10⁻⁷ s | dominates every heuristic, per the paper's "inappropriate for dynamic systems" |
//! | any other name | — | 10⁻⁷ s | fallback |
//!
//! The model is a pure function of a matcher's name and cost units, with
//! nothing to configure. A server charges it unless
//! `Config::charge_matching_time` is off, which makes matching
//! instantaneous (quality-only experiments). The experiment harness also
//! reports measured Rust wall-clock time; both series are in
//! `EXPERIMENTS.md`.

/// Per-algorithm coefficients mapping cost units to simulated seconds.
#[derive(Debug, Clone, Copy)]
pub struct CostModel;

impl CostModel {
    /// The model calibrated to the paper's Fig. 3 anchors (see module
    /// docs).
    pub fn paper_calibrated() -> Self {
        CostModel
    }

    /// Simulated seconds charged for a run of matcher `name` that
    /// reported `cost_units`.
    pub fn seconds_for(&self, name: &str, cost_units: f64) -> f64 {
        let coefficient = match name {
            "react" | "metropolis" => 1.35e-8,
            "greedy" => 9.97e-8,
            "traditional" => 1e-4,
            "hungarian" => 1e-7,
            _ => 1e-7,
        };
        coefficient * cost_units.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_anchors_reproduced() {
        let m = CostModel::paper_calibrated();
        // Greedy: 1000 tasks × 10⁶ edges → ≈ 99.7 s.
        let greedy = m.seconds_for("greedy", 1000.0 * 1e6);
        assert!((greedy - 99.7).abs() < 0.1, "greedy anchor {greedy}");
        // REACT 1000 cycles on 10⁶ edges → ≈ 12–14 s.
        let react = m.seconds_for("react", 1000.0 * 1e6);
        assert!((11.0..16.0).contains(&react), "react anchor {react}");
        // REACT 3000 cycles → ≈ 40–45 s; exactly 3× the 1000-cycle time.
        let react3 = m.seconds_for("react", 3000.0 * 1e6);
        assert!((react3 - 3.0 * react).abs() < 1e-9);
        assert!((38.0..47.0).contains(&react3), "react 3000 anchor {react3}");
        // Metropolis charged identically to REACT (paper: same runtime).
        assert_eq!(
            m.seconds_for("metropolis", 12345.0),
            m.seconds_for("react", 12345.0)
        );
    }

    #[test]
    fn greedy_slower_than_react_at_fig3_scale() {
        // The crossover the paper's Fig. 3 shows: on the 1000×1000 full
        // graph Greedy is ~8× slower than REACT@1000 cycles.
        let m = CostModel::paper_calibrated();
        let e = 1e6;
        let greedy = m.seconds_for("greedy", 1000.0 * e);
        let react = m.seconds_for("react", 1000.0 * e);
        assert!(greedy / react > 5.0, "ratio {}", greedy / react);
    }

    #[test]
    fn greedy_faster_on_tiny_batches() {
        // Fig. 9's other end: with 100 workers and small batches Greedy's
        // modelled time undercuts REACT's fixed cycle budget.
        let m = CostModel::paper_calibrated();
        let edges = 10.0 * 100.0; // 10 unassigned tasks × 100 workers
        let greedy = m.seconds_for("greedy", 10.0 * edges);
        let react = m.seconds_for("react", 1000.0 * edges);
        assert!(
            greedy < react,
            "greedy {greedy} should beat react {react} on small graphs"
        );
    }

    #[test]
    fn traditional_is_negligible() {
        let m = CostModel::paper_calibrated();
        assert!(m.seconds_for("traditional", 1000.0) < 0.2);
    }

    #[test]
    fn unknown_matcher_uses_default() {
        let m = CostModel::paper_calibrated();
        assert_eq!(m.seconds_for("mystery", 10.0), 10.0 * 1e-7);
        assert_eq!(m.seconds_for("mystery", -5.0), 0.0, "negative units clamp");
    }
}
