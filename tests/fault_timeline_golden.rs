//! Exact outcomes of faulted runs, pinned.
//!
//! Dropouts, rejoins and bursts reach a run through the crowd's timeline,
//! merged in time order with the completions; a change to that merge, to
//! the burst-task stream or to the order in which a loop books them moves
//! these numbers even where the same-seed-same-bytes checks still pass.
//! Each case pins the task counts, every fault counter, the bits of the
//! simulated duration and a fold of the bits of every execution time, in
//! completion order.

use react::cluster::{ClusterPolicy, ClusterRunner, ClusterScenario};
use react::core::{MatcherPolicy, RecoveryConfig};
use react::crowd::{FaultStats, RunReport, Scenario, ScenarioRunner};
use react::faults::{BurstPlan, DropoutPlan, FaultPlan};

/// FNV-1a over the bits of `xs`, in order.
fn fold(xs: impl IntoIterator<Item = f64>) -> u64 {
    xs.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What a `ScenarioRunner` case pins.
#[derive(Debug, PartialEq)]
struct Outcome {
    received: u64,
    completed: u64,
    met_deadline: u64,
    reassignments: u64,
    sim_duration_bits: u64,
    exec_times_fold: u64,
    faults: FaultStats,
}

fn outcome(r: &RunReport) -> Outcome {
    Outcome {
        received: r.received,
        completed: r.completed,
        met_deadline: r.met_deadline,
        reassignments: r.reassignments,
        sim_duration_bits: r.sim_duration.to_bits(),
        exec_times_fold: fold(r.exec_times.iter().copied()),
        faults: r.faults,
    }
}

#[test]
fn a_chaos_scenario_run_keeps_its_exact_outcome() {
    let mut sc = Scenario::smoke(MatcherPolicy::React { cycles: 200 }, 22);
    sc.faults = Some(FaultPlan::chaos(0.8));
    sc.config.recovery = RecoveryConfig::aggressive(30.0);
    let r = ScenarioRunner::new(sc).run();
    assert_eq!(
        outcome(&r),
        Outcome {
            received: 144,
            completed: 70,
            met_deadline: 62,
            reassignments: 86,
            sim_duration_bits: 4640924231633207296,
            exec_times_fold: 10861026033411165920,
            faults: FaultStats {
                dropouts: 12,
                abandons: 15,
                completions_lost: 2,
                completions_duplicated: 2,
                duplicates_rejected: 2,
                burst_tasks: 24,
                timeout_recalls: 60,
                stranded: 0,
            },
        }
    );
}

#[test]
fn a_coupled_cluster_run_under_dropouts_and_bursts_keeps_its_exact_outcome() {
    let mut global = Scenario::smoke(MatcherPolicy::React { cycles: 200 }, 9);
    global.n_workers = 60;
    global.arrival_rate = 4.0;
    global.total_tasks = 240;
    global.faults = Some(FaultPlan {
        dropout: Some(DropoutPlan {
            probability: 0.5,
            window: (1.0, 25.0),
            offline_range: Some((10.0, 40.0)),
        }),
        bursts: Some(BurstPlan {
            count: 3,
            size: 10,
            window: (5.0, 40.0),
        }),
        ..FaultPlan::none()
    });
    let r = ClusterRunner::new(ClusterScenario {
        global,
        rows: 2,
        cols: 2,
        policy: ClusterPolicy::coupled(),
    })
    .run();
    assert!(r.conserved());
    let reassignments: u64 = r.shards.iter().map(|s| s.reassignments).sum();
    let exec_times = r.shards.iter().flat_map(|s| s.exec_times.iter().copied());
    // (received, completed, met_deadline, reassignments)
    assert_eq!(
        (r.received, r.completed(), r.met_deadline(), reassignments),
        (270, 196, 146, 42)
    );
    // (burst_tasks, dropouts, abandons, completions_lost,
    // duplicates_rejected, stranded)
    assert_eq!(
        (
            r.burst_tasks,
            r.dropouts,
            r.abandons,
            r.completions_lost,
            r.duplicates_rejected,
            r.stranded(),
        ),
        (30, 25, 0, 0, 0, 0)
    );
    assert_eq!(
        (r.sim_duration.to_bits(), fold(exec_times)),
        (4642683450237648896, 7854558597514456597)
    );
    // The cluster's own decisions: (handoffs, admission_shed,
    // workers_rebalanced, workers_final per shard)
    let workers_final: Vec<usize> = r.shards.iter().map(|s| s.workers_final).collect();
    assert_eq!(
        (
            r.handoffs(),
            r.admission_shed(),
            r.workers_rebalanced,
            workers_final
        ),
        (0, 0, 51, vec![19, 11, 12, 18])
    );
}
