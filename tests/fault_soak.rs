//! Long-horizon chaos soak: a heavy [`FaultPlan::chaos`] mix over 200+
//! simulated ticks for each paper policy, with the recovery ladder and
//! audit log on. Ignored by default; run it explicitly with
//!
//! ```text
//! cargo test --features debug-invariants --test fault_soak -- --ignored
//! ```
//!
//! so the `MatchingValidator` hooks check every matching the run
//! produces. The soak asserts no panic, task conservation, well-formed
//! audit lifecycles, and bit-identical replay per seed.

use react::core::{verify_lifecycles, MatcherPolicy, RecoveryConfig};
use react::crowd::{RunReport, Scenario, ScenarioRunner};
use react::faults::FaultPlan;

fn soak(policy: MatcherPolicy, seed: u64) -> RunReport {
    let mut sc = Scenario::smoke(policy, seed);
    sc.label = format!("soak-{}", sc.config.matcher.name());
    sc.n_workers = 120;
    sc.arrival_rate = 4.0;
    sc.total_tasks = 800;
    sc.drain_horizon = 400.0;
    sc.config.audit = true;
    sc.config.recovery = RecoveryConfig::aggressive(40.0);
    sc.faults = Some(FaultPlan::chaos(0.8));
    ScenarioRunner::new(sc).run()
}

#[test]
#[ignore = "long soak; run with --ignored (ideally under --features debug-invariants)"]
fn chaos_soak_holds_every_invariant_for_every_policy() {
    for policy in [
        MatcherPolicy::React { cycles: 1000 },
        MatcherPolicy::Greedy,
        MatcherPolicy::Traditional,
    ] {
        let r = soak(policy, 4242);
        assert!(
            r.sim_duration >= 200.0,
            "{}: the soak must cover 200+ ticks, ran {:.0}s",
            r.matcher_name,
            r.sim_duration
        );
        assert!(
            r.faults.dropouts > 0
                && r.faults.abandons > 0
                && r.faults.completions_lost > 0
                && r.faults.burst_tasks > 0,
            "{}: chaos(0.8) must inject every fault kind: {:?}",
            r.matcher_name,
            r.faults
        );
        assert_eq!(
            r.completed + r.expired_unassigned + r.faults.stranded,
            r.received,
            "{}: task conservation violated: {:?}",
            r.matcher_name,
            r.faults
        );
        assert!(r.met_deadline > 0, "{}: nothing finished", r.matcher_name);
        verify_lifecycles(r.audit.as_ref().unwrap());

        // The whole 200-tick chaotic history replays bit-identically.
        let replay = soak(policy, 4242);
        assert_eq!(
            r.audit, replay.audit,
            "{}: soak must be deterministic per seed",
            r.matcher_name
        );
    }
}
