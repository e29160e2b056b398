//! Recall-stage identity: the thresholds a [`ReactServer`] keeps per
//! in-flight assignment (the inverted Eq. (2) gate, the timeout ladder's
//! allowance) must leave every tick's recalls exactly what the exact full
//! scan — [`DynamicAssignmentComponent::check`] over every assignment —
//! decides on the same state, after *any* interleaving of submissions,
//! completions, dropouts, reconnects and evictions.
//!
//! Run under `--features debug-invariants` to additionally arm the
//! server's own per-tick assertion against the full scan (it also covers
//! the scenario replay at the bottom, whose ticks this file cannot see).

use proptest::prelude::*;
use react::core::dynamic::Recall;
use react::core::{
    BatchTrigger, Config, DynamicAssignmentComponent, LatencyModelKind, MatcherPolicy, ReactServer,
    RecoveryConfig, Task, TaskCategory, TaskId, WorkerId,
};
use react::crowd::{Scenario, ScenarioRunner};
use react::faults::FaultPlan;
use react::geo::GeoPoint;

const WORKERS: u64 = 6;

fn here() -> GeoPoint {
    GeoPoint::new(37.98, 23.72)
}

/// One randomized step against the server's public surface.
#[derive(Debug, Clone)]
enum Op {
    Submit {
        deadline: f64,
    },
    /// Advance the clock and run the control step.
    Tick {
        dt: f64,
    },
    /// The `nth` in-flight assignment (mod the count) reports a result.
    Complete {
        nth: usize,
        ok: bool,
    },
    Offline(u64),
    Online(u64),
    /// Duplicate registration: a reconnect, whatever the worker's state.
    Register(u64),
    Evict {
        max: usize,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (2.0f64..90.0).prop_map(|deadline| Op::Submit { deadline }),
        (2.0f64..90.0).prop_map(|deadline| Op::Submit { deadline }),
        (0.1f64..12.0).prop_map(|dt| Op::Tick { dt }),
        (0.1f64..12.0).prop_map(|dt| Op::Tick { dt }),
        (0.1f64..12.0).prop_map(|dt| Op::Tick { dt }),
        ((0usize..8), any::<bool>()).prop_map(|(nth, ok)| Op::Complete { nth, ok }),
        ((0usize..8), any::<bool>()).prop_map(|(nth, ok)| Op::Complete { nth, ok }),
        (0..WORKERS).prop_map(Op::Offline),
        (0..WORKERS).prop_map(Op::Online),
        (0..WORKERS).prop_map(Op::Register),
        (0usize..3).prop_map(|max| Op::Evict { max }),
    ]
}

fn arb_latency_model() -> impl Strategy<Value = LatencyModelKind> {
    prop_oneof![
        Just(LatencyModelKind::PowerLaw),
        Just(LatencyModelKind::Empirical),
        Just(LatencyModelKind::Auto { ks_threshold: 0.3 }),
    ]
}

fn server(kind: LatencyModelKind, charge: bool, ladder: bool, seed: u64) -> ReactServer {
    let mut config = Config::with_matcher(MatcherPolicy::React { cycles: 60 });
    config.latency_model = kind;
    config.charge_matching_time = charge;
    config.batch = BatchTrigger {
        min_unassigned: 1,
        period: None,
    };
    if ladder {
        config.recovery = RecoveryConfig::aggressive(8.0);
    }
    let mut server = ReactServer::builder(config).seed(seed).build().unwrap();
    for w in 0..WORKERS {
        server.register_worker(WorkerId(w), here());
    }
    server
}

/// Ticks at `now` and checks the recalls against the exact full scan of
/// the state the tick starts from (expiry and shedding, which run first,
/// touch only queued tasks). The scan runs on a copy of the profiles so
/// that it cannot refit a model on the server's behalf.
fn tick_against_full_scan(
    server: &mut ReactServer,
    now: f64,
) -> Result<Vec<Recall>, TestCaseError> {
    let exact = DynamicAssignmentComponent::check(
        server.config(),
        &mut server.profiling().clone(),
        server.tasks(),
        now,
    );
    let out = server.tick(now);
    let by_model = out.recalls.len() - out.timeout_recalls as usize;
    prop_assert_eq!(
        &out.recalls[..by_model],
        &exact[..],
        "Eq. (2) recalls at t={}",
        now
    );
    // Nothing the model recalled is left for the ladder, which reports
    // in ascending task order with a zero probability.
    let by_ladder = &out.recalls[by_model..];
    prop_assert!(by_ladder.windows(2).all(|w| w[0].task < w[1].task));
    prop_assert!(by_ladder
        .iter()
        .all(|r| r.probability == 0.0 && exact.iter().all(|e| e.task != r.task)));
    Ok(out.recalls.clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_tick_recalls_what_the_full_scan_recalls(
        kind in arb_latency_model(),
        // Charged matching post-dates assignments: elapsed clamps to 0
        // until they take effect, and a recall may precede them.
        charge in any::<bool>(),
        ladder in any::<bool>(),
        seed in 0u64..1000,
        ops in proptest::collection::vec(arb_op(), 20..160),
    ) {
        let mut server = server(kind, charge, ladder, seed);
        let mut now = 0.0f64;
        let mut next_task = 0u64;
        for op in &ops {
            match *op {
                Op::Submit { deadline } => {
                    next_task += 1;
                    let category = TaskCategory((next_task % 2) as u32);
                    server.submit_task(
                        Task::new(TaskId(next_task), here(), deadline, 0.05, category, "prop"),
                        now,
                    );
                }
                Op::Tick { dt } => {
                    now += dt;
                    tick_against_full_scan(&mut server, now)?;
                }
                Op::Complete { nth, ok } => {
                    let in_flight: Vec<_> = server.tasks().assigned().collect();
                    if !in_flight.is_empty() {
                        let (task, worker) = in_flight[nth % in_flight.len()];
                        // A post-dated assignment completes with a
                        // zero execution time; that too is a sample the
                        // next check must see.
                        let _ = server.complete_task(task, worker, now, ok);
                    }
                }
                Op::Offline(w) => {
                    server.worker_offline(WorkerId(w), now);
                }
                Op::Online(w) => {
                    let _ = server.worker_online(WorkerId(w));
                }
                Op::Register(w) => server.register_worker(WorkerId(w), here()),
                Op::Evict { max } => {
                    for _ in 0..max {
                        server.evict_oldest_unassigned(now);
                    }
                }
            }
        }
    }
}

/// A worker with a tight profile stalls: stepping the clock finely, the
/// server recalls on exactly the tick the full scan first would — under
/// each model kind, so through the power-law bracket and the step cut.
#[test]
fn the_verdict_flips_on_the_tick_the_full_scan_flips() {
    for kind in [
        LatencyModelKind::PowerLaw,
        LatencyModelKind::Empirical,
        LatencyModelKind::Auto { ks_threshold: 0.3 },
    ] {
        let mut server = server(kind, false, false, 11);
        for w in 1..WORKERS {
            server.worker_offline(WorkerId(w), 0.0);
        }
        let mut now = 0.0;
        for (i, exec) in [2.0, 3.5, 2.5, 4.0].into_iter().enumerate() {
            let id = TaskId(i as u64 + 1);
            server.submit_task(
                Task::new(id, here(), 60.0, 0.05, TaskCategory(0), "warm"),
                now,
            );
            assert_eq!(server.tick(now).assignments, vec![(WorkerId(0), id)]);
            now += exec;
            server.complete_task(id, WorkerId(0), now, true).unwrap();
        }
        let stalled = TaskId(9);
        server.submit_task(
            Task::new(stalled, here(), 60.0, 0.05, TaskCategory(0), "stall"),
            now,
        );
        let mut recalled_at = None;
        for step in 0..400 {
            let t = now + 0.125 * step as f64;
            let recalls = tick_against_full_scan(&mut server, t).unwrap();
            if let Some(r) = recalls.first() {
                assert_eq!((r.task, r.worker), (stalled, WorkerId(0)));
                recalled_at = Some(t - now);
                break;
            }
        }
        let waited = recalled_at.unwrap_or_else(|| panic!("{kind:?}: the stall is never recalled"));
        assert!(
            (4.0..60.0).contains(&waited),
            "{kind:?}: recalled after {waited} s — past every sample, before the deadline"
        );
    }
}

/// A chaotic scenario with the ladder on: both recall paths fire, the
/// audit trail verifies and the run replays bit for bit. Its ticks happen
/// inside the runner; `debug-invariants` checks each against the full
/// scan.
#[test]
fn chaos_scenario_recalls_through_both_paths_and_replays() {
    let run = || {
        let mut sc = Scenario::smoke(MatcherPolicy::React { cycles: 200 }, 2013);
        sc.label = "recall-identity".to_string();
        sc.n_workers = 40;
        sc.arrival_rate = 3.0;
        sc.total_tasks = 300;
        sc.config.audit = true;
        sc.config.recovery = RecoveryConfig::aggressive(30.0);
        sc.faults = Some(FaultPlan::chaos(0.6));
        ScenarioRunner::new(sc).run()
    };
    let a = run();
    assert!(a.faults.timeout_recalls > 0, "ladder idle: {:?}", a.faults);
    assert!(
        a.reassignments > a.faults.timeout_recalls,
        "no Eq. (2) recall among {} reassignments ({:?})",
        a.reassignments,
        a.faults
    );
    react::core::verify_lifecycles(a.audit.as_ref().unwrap());
    let b = run();
    assert_eq!(
        a.audit, b.audit,
        "chaotic run must be deterministic per seed"
    );
}
