//! The paper's claims as a gate: a schedule change is judged by what it
//! does to the figures, not by its bytes.
//!
//! Every run is the full-scale Fig. 5 scenario (`Scenario::paper_fig5`:
//! 750 workers, 9.375 tasks/s, 8371 tasks). Its default configuration
//! charges each batch the matching latency of the paper's 2013 JVM runs
//! (`CostModel::paper_calibrated`, the Fig. 3 anchor). REACT's Fig. 5
//! margin over Greedy holds only under that charge: with matching free
//! the two tie. So each claim names the calibration it holds under.
//!
//! Seeds and margins were fixed before the numbers were read. Each
//! margin is about half the gap the three-seed means showed: Fig. 5
//! read 0.901 / 0.822 / 0.649 (REACT / Greedy / Traditional), and
//! ablation 4 read 0.896 at threshold 0.1 against 0.827 at 0.

use react::core::{verify_lifecycles, MatcherPolicy};
use react::crowd::{RunReport, Scenario, ScenarioRunner};

/// Every claim holds on each of these seeds, not only on their mean.
const SEEDS: [u64; 3] = [2013, 1, 2];

/// Fig. 5, charged: REACT's met fraction over Greedy's (gap 0.079).
const REACT_OVER_GREEDY: f64 = 0.04;
/// Fig. 5, charged: Greedy's met fraction over Traditional's (gap 0.173).
const GREEDY_OVER_TRADITIONAL: f64 = 0.085;
/// Ablation 4, charged: REACT's met fraction at Eq. (2)'s threshold 0.1
/// over threshold 0, which never recalls (gap 0.069).
const RECALL_OVER_NONE: f64 = 0.035;

const REACT: MatcherPolicy = MatcherPolicy::React { cycles: 1000 };

/// Fig. 5's scenario with matching charged at `paper_calibrated` cost.
fn charged(matcher: MatcherPolicy, seed: u64) -> Scenario {
    let sc = Scenario::paper_fig5(matcher, seed);
    assert!(
        sc.config.charge_matching_time,
        "Fig. 5 charges paper_calibrated matching time"
    );
    sc
}

fn met(sc: Scenario) -> f64 {
    ScenarioRunner::new(sc).run().deadline_ratio()
}

#[test]
fn fig5_react_beats_greedy_beats_traditional_under_paper_calibrated_charging() {
    for seed in SEEDS {
        let react = met(charged(REACT, seed));
        let greedy = met(charged(MatcherPolicy::Greedy, seed));
        let traditional = met(charged(MatcherPolicy::Traditional, seed));
        assert!(
            react > greedy + REACT_OVER_GREEDY,
            "seed {seed}: REACT {react:.4} not {REACT_OVER_GREEDY} over Greedy {greedy:.4}"
        );
        assert!(
            greedy > traditional + GREEDY_OVER_TRADITIONAL,
            "seed {seed}: Greedy {greedy:.4} not {GREEDY_OVER_TRADITIONAL} over \
             Traditional {traditional:.4}"
        );
    }
}

#[test]
fn ablation4_recall_off_loses_to_threshold_0_1_under_paper_calibrated_charging() {
    for seed in SEEDS {
        let recall = charged(REACT, seed);
        assert_eq!(recall.config.deadline.reassign_threshold, 0.1);
        let mut none = charged(REACT, seed);
        none.config.deadline.reassign_threshold = 0.0;
        let (recall, none) = (met(recall), met(none));
        assert!(
            recall > none + RECALL_OVER_NONE,
            "seed {seed}: threshold 0.1 {recall:.4} not {RECALL_OVER_NONE} over 0 {none:.4}"
        );
    }
}

/// Charged runs wait for the recall-ordering fix: a post-dated
/// assignment can be recalled before its start, and the trail then goes
/// backwards. With matching free every lifecycle must verify.
#[test]
fn fig5_runs_with_matching_free_have_legal_lifecycles() {
    for matcher in [REACT, MatcherPolicy::Greedy, MatcherPolicy::Traditional] {
        let mut sc = Scenario::paper_fig5(matcher, SEEDS[0]);
        sc.config.charge_matching_time = false;
        sc.config.audit = true;
        let r: RunReport = ScenarioRunner::new(sc).run();
        let log = r.audit.as_ref().expect("audit enabled");
        assert_eq!(verify_lifecycles(log) as u64, r.received, "{matcher:?}");
    }
}
