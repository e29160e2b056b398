//! Incremental-build identity: the hot-path [`BatchScratch`] must
//! produce graphs bit-identical to a cold [`SchedulingComponent`] build
//! after *any* interleaving of profile mutations, queue traffic (submit,
//! assign from anywhere in the queue, requeue, expire, hand off)
//! and worker dropouts, however many of them pass between two of its
//! builds and whichever component it is handed — the property the row
//! table and the change feed that refreshes it, the memoized deadline
//! gates, the row-level weight/Eq. (3) verdicts, the whole-row
//! append into the edge-only graph arena and the unassigned queue's
//! columns (which the warm build reads where the cold one reads the task
//! registry) are designed to preserve.
//!
//! Run under `--features debug-invariants` to additionally arm the
//! scratch's internal cold-rebuild assertion and the queue columns'
//! re-derivation from the registry on every step.

mod common;

use proptest::prelude::*;
use react::core::{
    Availability, BatchScratch, BuildStats, Config, LatencyModelKind, MatcherPolicy,
    ProfilingComponent, SchedulingComponent, Task, TaskCategory, TaskId, TaskManagementComponent,
    WeightFunction, WorkerId,
};
use react::crowd::{Scenario, ScenarioRunner};
use react::faults::FaultPlan;
use react::geo::GeoPoint;
use react::prob::{DeadlineModel, EdgeGate};

/// Distinct locations a few km apart, so `Distance`/`Blend` weights
/// differ between any two (worker, task) pairs.
fn spot(i: u64) -> GeoPoint {
    GeoPoint::new(
        37.90 + 0.011 * (i % 17) as f64,
        23.60 + 0.013 * (i % 23) as f64,
    )
}

/// One randomized step against the two components the graph build
/// reads. Every variant mutates state the row table must notice.
#[derive(Debug, Clone)]
enum Op {
    /// Register (or re-register after dropout) a worker.
    Register(u64),
    /// Record a completed task with the given execution time — refits
    /// the latency model, so the cached row must be invalidated.
    Complete {
        worker: u64,
        category: u32,
        exec: f64,
        ok: bool,
    },
    /// Record an assignment (flips availability, advances training).
    Assign(u64),
    /// Worker dropout mid-run: the cached row must leave the pool.
    Offline(u64),
    /// Worker returns.
    Online(u64),
    /// The worker moves (changes every `Distance`/`Blend` weight).
    SetLocation { worker: u64, to: u64 },
    /// The recovery layer's penalty (scales every accuracy weight).
    MarkSuspect { worker: u64, decay: f64 },
    /// Submit a task.
    Submit {
        id: u64,
        deadline: f64,
        category: u32,
    },
    /// Assign the `nth` queued task (modulo the queue length) to a
    /// worker: a removal from anywhere in the queue. Then requeue it at
    /// the back, or leave it in flight (even `nth`) or complete it (odd).
    AssignNth {
        nth: usize,
        worker: u64,
        requeue: bool,
    },
    /// The expiry sweep: every overdue queued task leaves, wherever it
    /// sits.
    Expire,
    /// A cross-shard handoff of up to `max` of the oldest queued tasks,
    /// received back by the same queue the way `Cluster::pass_handoff`
    /// delivers them: resubmitted now, the deadline re-based.
    Handoff { max: usize },
    /// Advance the build timepoint (changes every `TimeToDeadline`).
    AdvanceTime { dt: f64 },
}

/// Half the steps touch the pool, half the queue.
fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![arb_pool_op(), arb_queue_op()]
}

fn worker() -> std::ops::Range<u64> {
    0u64..10
}

fn arb_pool_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        worker().prop_map(Op::Register),
        (worker(), 0u32..4, 0.5f64..80.0, any::<bool>()).prop_map(
            |(worker, category, exec, ok)| Op::Complete {
                worker,
                category,
                exec,
                ok
            }
        ),
        worker().prop_map(Op::Assign),
        worker().prop_map(Op::Offline),
        worker().prop_map(Op::Online),
        (worker(), 0u64..400).prop_map(|(worker, to)| Op::SetLocation { worker, to }),
        (worker(), 0.1f64..1.0).prop_map(|(worker, decay)| Op::MarkSuspect { worker, decay }),
    ]
}

/// A queued task's `(deadline, category)`.
fn arb_task() -> impl Strategy<Value = (f64, u32)> {
    (5.0f64..120.0, 0u32..4)
}

fn arb_queue_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..200, arb_task()).prop_map(|(id, (deadline, category))| Op::Submit {
            id,
            deadline,
            category
        }),
        (0usize..64, worker(), any::<bool>()).prop_map(|(nth, worker, requeue)| Op::AssignNth {
            nth,
            worker,
            requeue
        }),
        Just(Op::Expire),
        (0usize..6).prop_map(|max| Op::Handoff { max }),
        (0.5f64..15.0).prop_map(|dt| Op::AdvanceTime { dt }),
    ]
}

/// The latency-model kinds the gate must memoize correctly: the
/// power-law bracket, the empirical step gate, and the KS-driven
/// auto-selector that mixes both.
fn arb_latency_model() -> impl Strategy<Value = LatencyModelKind> {
    prop_oneof![
        Just(LatencyModelKind::PowerLaw),
        Just(LatencyModelKind::Empirical),
        Just(LatencyModelKind::Auto { ks_threshold: 0.3 }),
    ]
}

/// `Accuracy` is one weight per row when the batch has one category, one
/// per pair otherwise; the other two read the task's location and stay
/// per pair.
fn arb_weight() -> impl Strategy<Value = WeightFunction> {
    prop_oneof![
        Just(WeightFunction::Accuracy),
        (0.5f64..20.0).prop_map(|scale_km| WeightFunction::Distance { scale_km }),
        ((0.0f64..1.0), (0.5f64..20.0))
            .prop_map(|(lambda, scale_km)| WeightFunction::Blend { lambda, scale_km }),
    ]
}

/// REACT builds over the available pool and prunes with Eq. (3); Greedy
/// shares the pool; Traditional takes the online pool (busy workers
/// included) and uses no model.
fn arb_policy() -> impl Strategy<Value = MatcherPolicy> {
    prop_oneof![
        Just(MatcherPolicy::React { cycles: 100 }),
        Just(MatcherPolicy::Greedy),
        Just(MatcherPolicy::Traditional),
    ]
}

/// Eq. (3) thresholds: the default, anything in between, and the two
/// ends that turn the gate into `Never` (θ ≥ 1) and `Exact` (θ < 0).
fn arb_threshold() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.1), 0.02f64..0.95, Just(1.0), Just(-0.5)]
}

fn apply(op: &Op, p: &mut ProfilingComponent, tm: &mut TaskManagementComponent, now: &mut f64) {
    match *op {
        Op::Register(w) => {
            let _ = p.register(WorkerId(w), spot(w));
        }
        Op::Complete {
            worker,
            category,
            exec,
            ok,
        } => {
            let _ = p.record_completion(WorkerId(worker), TaskCategory(category), exec, ok);
        }
        Op::Assign(w) => {
            let _ = p.record_assignment(WorkerId(w));
        }
        Op::Offline(w) => {
            let _ = p.set_availability(WorkerId(w), Availability::Offline);
        }
        Op::Online(w) => {
            let _ = p.set_availability(WorkerId(w), Availability::Available);
        }
        Op::SetLocation { worker, to } => {
            let _ = p.set_location(WorkerId(worker), spot(to));
        }
        Op::MarkSuspect { worker, decay } => {
            let _ = p.mark_suspect(WorkerId(worker), decay);
        }
        Op::Submit {
            id,
            deadline,
            category,
        } => {
            let task = Task::new(
                TaskId(id),
                spot(100 + id),
                deadline,
                0.05,
                TaskCategory(category),
                "prop",
            );
            let _ = tm.submit(task, *now);
        }
        Op::AssignNth {
            nth,
            worker,
            requeue,
        } => {
            let queued = tm.unassigned();
            if let Some(&tid) = queued.get(nth % queued.len().max(1)) {
                tm.mark_assigned(tid, WorkerId(worker), *now).unwrap();
                if requeue {
                    tm.mark_unassigned(tid).unwrap();
                } else if nth % 2 == 1 {
                    tm.complete(tid, WorkerId(worker), *now).unwrap();
                }
            }
        }
        Op::Expire => {
            tm.expire_overdue_unassigned(*now, &mut Vec::new());
        }
        Op::Handoff { max } => {
            // Each evicted task rejoins at the back, behind the ones that
            // were queued after it.
            for _ in 0..max.min(tm.unassigned_count()) {
                let rec = tm.take_oldest_unassigned().expect("a queued task");
                let mut task = rec.task;
                task.deadline = (rec.submitted_at + task.deadline - *now).max(f64::MIN_POSITIVE);
                tm.submit(task, *now).unwrap();
            }
        }
        Op::AdvanceTime { dt } => {
            *now += dt;
        }
    }
}

/// Asserts the scratch build equals the cold build: same edges in the
/// same order, same index maps, same pruning count.
fn assert_identical(
    scratch: &mut BatchScratch,
    config: &Config,
    p: &mut ProfilingComponent,
    tm: &TaskManagementComponent,
    now: f64,
    what: &dyn std::fmt::Debug,
) -> BuildStats {
    let (cold, cold_workers, cold_tasks, cold_pruned) =
        SchedulingComponent::build_graph(config, p, tm, now);
    let built = scratch.build(config, p, tm, now);
    assert_eq!(
        built.graph.edges(),
        cold.edges(),
        "edges diverged: {what:?}"
    );
    assert_eq!(built.workers, &cold_workers[..], "{what:?}");
    assert_eq!(built.task_ids, &cold_tasks[..], "{what:?}");
    assert_eq!(built.pruned, cold_pruned, "pruning diverged: {what:?}");
    assert_eq!(built.graph.n_workers(), cold.n_workers(), "{what:?}");
    assert!(built.stats.rows_reused <= built.stats.rows_total);
    built.stats
}

/// A pool whose workers already carry a latency model, so the gates are
/// exercised from the first step. Built twice it gives two components
/// with the same ids at the same epochs.
fn seasoned_pool(seasoned: &[f64]) -> ProfilingComponent {
    let mut p = ProfilingComponent::default();
    for (w, &base) in seasoned.iter().enumerate() {
        let id = WorkerId(w as u64);
        p.register(id, spot(w as u64)).unwrap();
        for (k, scale) in [1.0, 1.3, 1.7].into_iter().enumerate() {
            p.record_assignment(id).unwrap();
            p.record_completion(id, TaskCategory(k as u32), base * scale, k != 1)
                .unwrap();
        }
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(64)))]

    /// Whenever a scratch builds, its graph matches a cold build bit for
    /// bit, on every axis the row-level verdicts branch on. Two scratches
    /// read the one component, each on its own cadence (every `k`-th
    /// step, `k` in 1..8), so between two builds of a reader a worker may
    /// change several times, leave and return, or register for the first
    /// time — and the other reader has consumed none, some or all of
    /// those changes. Now and then the first scratch is pointed at
    /// a second component that evolves on its own from the same start
    /// (same ids, same epochs): a reader must not take that feed for the
    /// continuation of the one it last read. In about half the cases
    /// every task is of one category (one weight per row under
    /// `Accuracy`), and
    /// the queue starts up to 47 tasks long.
    #[test]
    fn incremental_build_is_bit_identical_to_cold_build(
        axes in (arb_latency_model(), arb_weight(), arb_policy(), arb_threshold(), 0u64..4),
        seasoned in proptest::collection::vec(0.5f64..60.0, 0..6),
        categories in prop_oneof![Just(1u32), 2u32..5],
        queued in proptest::collection::vec(arb_task(), 0..48),
        ops in proptest::collection::vec(arb_op(), 1..60),
        cadences in (1usize..8, 1usize..8),
        elsewhere in proptest::collection::vec(arb_pool_op(), 0..30),
        detour_every in 2usize..12,
    ) {
        let (kind, weight, policy, threshold, training) = axes;
        // Every submitted task's category folded into the case's spread.
        let ops: Vec<Op> = ops
            .into_iter()
            .map(|op| match op {
                Op::Submit { id, deadline, category } => Op::Submit {
                    id,
                    deadline,
                    category: category % categories,
                },
                op => op,
            })
            .collect();
        let mut config = Config::with_matcher(policy);
        config.latency_model = kind;
        config.weight = weight;
        config.deadline.edge_probability_threshold = threshold;
        config.training_assignments = training;
        let mut p = seasoned_pool(&seasoned);
        let mut other = seasoned_pool(&seasoned);
        let mut tm = TaskManagementComponent::new();
        // A queue long enough to lose rows from its middle.
        for (t, &(deadline, category)) in queued.iter().enumerate() {
            let id = 200 + t as u64;
            let category = category % categories;
            let submit = Op::Submit { id, deadline, category };
            apply(&submit, &mut p, &mut tm, &mut 0.0);
        }
        let (mut first, mut second) = (BatchScratch::new(), BatchScratch::new());
        let mut now = 0.0f64;
        for (step, op) in ops.iter().enumerate() {
            apply(op, &mut p, &mut tm, &mut now);
            if let Some(theirs) = elsewhere.get(step) {
                apply(theirs, &mut other, &mut TaskManagementComponent::new(), &mut 0.0);
            }
            if step % cadences.0 == 0 {
                assert_identical(&mut first, &config, &mut p, &tm, now, &(step, op));
            }
            if step % cadences.1 == 0 {
                assert_identical(&mut second, &config, &mut p, &tm, now, &(step, op));
            }
            if step % detour_every == 1 {
                assert_identical(&mut first, &config, &mut other, &tm, now, &("detour", step));
            }
        }
        // However far a reader lagged, it catches up.
        assert_identical(&mut first, &config, &mut p, &tm, now, &"last");
        assert_identical(&mut second, &config, &mut p, &tm, now, &"last");
    }
}

/// An overloaded shard's batch: a backlog of about 272 tasks of one
/// category against a pool of one to three rows, every row warm, for
/// four backlog lengths. A NaN
/// expiry at the front, in the middle or at the end must keep every row
/// from settling (the spread deadlines leave the fast row unsettled
/// anyway, the long ones would settle it to keep); and one task of
/// another category, wherever it sits, must get a class and a weight of
/// its own. Each batch is built by a weight read per category and by one
/// read per task.
#[test]
fn a_long_one_category_backlog_against_a_small_pool() {
    for weight in [
        WeightFunction::Accuracy,
        WeightFunction::Distance { scale_km: 5.0 },
    ] {
        let mut config = Config::with_matcher(MatcherPolicy::React { cycles: 100 });
        config.training_assignments = 0;
        config.weight = weight;
        for pool in 1..=3usize {
            let mut p = seasoned_pool(&[3.0, 25.0, 50.0][..pool]);
            let mut scratch = BatchScratch::new();
            for len in 272..276usize {
                let mut variants = vec![(None, None)];
                for at in [0, 1, 3, len / 2, len - 2, len - 1] {
                    variants.extend([(Some(at), None), (None, Some(at))]);
                }
                for (odd, nan) in variants {
                    for long in [false, true] {
                        let mut tm = TaskManagementComponent::new();
                        for t in 0..len {
                            let spread = (t * 37 % 300) as f64;
                            let deadline = if long { 200.0 + spread } else { 1.0 + spread };
                            // Seasoned categories 0 and 2 succeeded, 1 did
                            // not: the odd task's weight differs.
                            let (category, deadline) = if odd == Some(t) {
                                (1, 500.0)
                            } else {
                                (2, deadline)
                            };
                            let task = Task::new(
                                TaskId(t as u64),
                                spot(t as u64),
                                deadline,
                                0.6,
                                TaskCategory(category),
                                "backlog",
                            );
                            let submitted = if nan == Some(t) { f64::NAN } else { 0.0 };
                            tm.submit(task, submitted).unwrap();
                        }
                        for now in [0.0, 40.0] {
                            let what = (weight, pool, len, odd, nan, long, now);
                            assert_identical(&mut scratch, &config, &mut p, &tm, now, &what);
                        }
                    }
                }
            }
        }
    }
}

/// The smallest setup around one seasoned worker: `times` completed in
/// category 0, no training rule.
fn one_worker(times: &[f64]) -> (Config, ProfilingComponent) {
    let mut config = Config::with_matcher(MatcherPolicy::React { cycles: 100 });
    config.training_assignments = 0;
    let mut p = ProfilingComponent::default();
    p.register(WorkerId(0), spot(0)).unwrap();
    for &t in times {
        p.record_assignment(WorkerId(0)).unwrap();
        p.record_completion(WorkerId(0), TaskCategory(0), t, true)
            .unwrap();
    }
    (config, p)
}

fn submit(tm: &mut TaskManagementComponent, id: u64, deadline: f64) {
    let task = Task::new(
        TaskId(id),
        spot(id),
        deadline,
        0.05,
        TaskCategory(0),
        "case",
    );
    tm.submit(task, 0.0).unwrap();
}

/// Regression: a row that the gate prunes outright emits nothing, so no
/// weight is computed for it and none may be read; and the gate answers
/// each of its pairs, as when each pair is decided on its own.
#[test]
fn a_row_the_gate_prunes_outright_reads_no_weight() {
    let (config, mut p) = one_worker(&[50.0, 80.0, 120.0]);
    let mut tm = TaskManagementComponent::new();
    // Hopeless deadlines for a worker who never finished under 50 s.
    for id in 1..=3 {
        submit(&mut tm, id, 5.0 + id as f64);
    }
    let mut scratch = BatchScratch::new();
    for round in 0..2 {
        let stats = assert_identical(&mut scratch, &config, &mut p, &tm, 0.0, &round);
        assert_eq!(stats.cdf_memo_hits, 3, "one per pair");
        assert_eq!(scratch.build(&config, &mut p, &tm, 0.0).pruned, 3);
    }
    // The same row once a deadline is feasible: now it has a weight.
    submit(&mut tm, 4, 10_000.0);
    let stats = assert_identical(&mut scratch, &config, &mut p, &tm, 0.0, &"feasible");
    assert_eq!(stats.cdf_memo_hits, 4);
    assert_eq!(scratch.build(&config, &mut p, &tm, 0.0).graph.n_edges(), 1);
}

/// Regression: a row snapshotted while nothing was queued has no batch,
/// hence no category, to remember a weight for; the first batch that
/// emits it evaluates one (a placeholder would not pass the graph's
/// validation, a stale category's would be the wrong weight).
#[test]
fn a_row_snapshotted_on_an_empty_queue_gets_its_weight_later() {
    let (config, mut p) = one_worker(&[1.0, 1.5, 2.0]);
    p.record_completion(WorkerId(0), TaskCategory(1), 1.2, false)
        .unwrap();
    let mut tm = TaskManagementComponent::new();
    let mut scratch = BatchScratch::new();
    let stats = assert_identical(&mut scratch, &config, &mut p, &tm, 0.0, &"empty");
    assert_eq!((stats.rows_total, stats.rows_reused), (1, 0));
    submit(&mut tm, 1, 60.0);
    for round in 0..2 {
        let stats = assert_identical(&mut scratch, &config, &mut p, &tm, 0.0, &round);
        assert_eq!(stats.rows_reused, 1, "the row itself did not change");
        let built = scratch.build(&config, &mut p, &tm, 0.0);
        assert_eq!(built.graph.edges()[0].weight, 1.0);
    }
    // The next batch is of the other category: its weight, not the
    // remembered one.
    tm.mark_assigned(TaskId(1), WorkerId(0), 0.0).unwrap();
    let task = Task::new(TaskId(2), spot(2), 60.0, 0.05, TaskCategory(1), "case");
    tm.submit(task, 0.0).unwrap();
    let stats = assert_identical(&mut scratch, &config, &mut p, &tm, 0.0, &"other category");
    assert_eq!(stats.rows_reused, 1, "still the same row");
    let built = scratch.build(&config, &mut p, &tm, 0.0);
    assert_eq!(built.graph.edges()[0].weight, 0.0);
}

/// More changes between two builds than the component's feed holds (it
/// keeps `max(1024, 2 × registered)` epochs): the reader is told so and
/// re-reads every profile, which must equal the cold build — while a
/// second reader that kept up follows the feed the whole way.
#[test]
fn a_reader_the_feed_has_overrun_resyncs() {
    let (mut config, mut p) = one_worker(&[20.0, 26.0, 31.0, 44.0]);
    config.training_assignments = 2;
    // Eight workers churn; thirty-two stay as they are.
    for w in 1..40 {
        p.register(WorkerId(w), spot(w)).unwrap();
    }
    let mut tm = TaskManagementComponent::new();
    for id in 0..5 {
        submit(&mut tm, id, 30.0 + 15.0 * id as f64);
    }
    let (mut lagging, mut prompt) = (BatchScratch::new(), BatchScratch::new());
    assert_identical(&mut lagging, &config, &mut p, &tm, 0.0, &"first");
    for round in 0..1_300u64 {
        let id = WorkerId(round % 8);
        match round % 5 {
            0 => p.record_assignment(id).unwrap(),
            1 => p
                .record_completion(id, TaskCategory(0), 3.0 + (round % 40) as f64, true)
                .unwrap(),
            2 => p.set_location(id, spot(round)).unwrap(),
            3 => p.set_availability(id, Availability::Offline).unwrap(),
            _ => p.set_availability(id, Availability::Available).unwrap(),
        }
        if round % 100 == 0 {
            assert_identical(&mut prompt, &config, &mut p, &tm, 1.0, &round);
        }
    }
    let kept_up = assert_identical(&mut prompt, &config, &mut p, &tm, 1.0, &"prompt");
    assert!(
        kept_up.rows_reused >= 32,
        "the feed named the eight: {kept_up:?}"
    );
    let resynced = assert_identical(&mut lagging, &config, &mut p, &tm, 1.0, &"lagging");
    assert_eq!(resynced.rows_reused, 0, "a full re-read reuses nothing");
    let steady = assert_identical(&mut lagging, &config, &mut p, &tm, 1.0, &"again");
    assert_eq!(steady.rows_reused, steady.rows_total);
}

/// `x` moved `ulps` representable values up (or down) — positive finite
/// `x` only, which is all a gate boundary can be.
fn nudge(x: f64, ulps: i64) -> f64 {
    f64::from_bits((x.to_bits() as i64 + ulps) as u64)
}

/// Walks the row-verdict boundary. A row is settled at once when the
/// gate already keeps the batch's smallest TTD or already prunes its
/// largest, so the cases that matter put those extremes on the gate's
/// cut points, one ULP either side of them, inside the ambiguous band,
/// at or below zero, on both sides at once, and next to a NaN.
#[test]
fn row_verdicts_agree_with_the_cold_build_at_every_gate_boundary() {
    for kind in [LatencyModelKind::PowerLaw, LatencyModelKind::Empirical] {
        let mut config = Config::with_matcher(MatcherPolicy::React { cycles: 100 });
        config.latency_model = kind;
        let mut p = ProfilingComponent::default();
        // Worker 0 carries the gate under test; 1 is much faster (kept
        // throughout), 2 still in training, 3 another seasoned row.
        for (w, times) in [
            (0u64, &[20.0, 26.0, 31.0, 44.0][..]),
            (1, &[1.0, 1.5, 2.0]),
            (2, &[]),
            (3, &[18.0, 25.0, 40.0]),
        ] {
            let id = WorkerId(w);
            p.register(id, spot(w)).unwrap();
            for &t in times {
                p.record_assignment(id).unwrap();
                p.record_completion(id, TaskCategory(0), t, true).unwrap();
            }
        }
        let model = p
            .profile_mut(WorkerId(0))
            .unwrap()
            .deadline_dist(kind)
            .expect("four completions warm the estimator");
        let cuts = match (kind, DeadlineModel::new(config.deadline).edge_gate(&model)) {
            (LatencyModelKind::PowerLaw, EdgeGate::Bracket { lo, hi }) => {
                assert!(0.0 < lo && lo < hi);
                vec![lo, lo + (hi - lo) / 2.0, hi]
            }
            (LatencyModelKind::Empirical, EdgeGate::Above { cut }) => vec![cut],
            (_, gate) => panic!("{kind:?} produced {gate:?}"),
        };
        let mut points = vec![1e-9, cuts[0] / 2.0, cuts[cuts.len() - 1] * 2.0];
        for &cut in &cuts {
            points.extend([nudge(cut, -1), cut, nudge(cut, 1)]);
        }
        points.sort_by(f64::total_cmp);

        // A batch is a list of (submitted_at, deadline) built at `now`;
        // submitted at 0 and built at 0 a task's TTD is its deadline,
        // exactly.
        let mut batches: Vec<(f64, Vec<(f64, f64)>)> = Vec::new();
        for (i, &a) in points.iter().enumerate() {
            // Both extremes on one point, then every wider span.
            for &b in &points[i..] {
                batches.push((0.0, vec![(0.0, a), (0.0, b)]));
                batches.push((0.0, vec![(0.0, b), (0.0, a + (b - a) / 2.0), (0.0, a)]));
            }
            // TTD = 0 and < 0 beside one that the gate may keep.
            batches.push((a, vec![(0.0, a)]));
            batches.push((a, vec![(0.0, a), (a, a)]));
            batches.push((a + 1.0, vec![(0.0, a), (0.0, nudge(a, -1))]));
            batches.push((a + 1.0, vec![(0.0, a), (a + 1.0, cuts[0] * 4.0)]));
            // A NaN TTD may not hide behind a row verdict.
            batches.push((0.0, vec![(0.0, a), (f64::NAN, a)]));
        }

        let queue = |batch: &[(f64, f64)]| {
            let mut tm = TaskManagementComponent::new();
            for (t, &(submitted_at, deadline)) in batch.iter().enumerate() {
                let task = Task::new(
                    TaskId(t as u64),
                    spot(t as u64),
                    deadline,
                    0.05,
                    TaskCategory(0),
                    "edge",
                );
                tm.submit(task, submitted_at).unwrap();
            }
            tm
        };
        let mut scratch = BatchScratch::new();
        let mut hits = 0u64;
        for (now, batch) in &batches {
            let what = (kind, now, batch);
            hits += assert_identical(&mut scratch, &config, &mut p, &queue(batch), *now, &what)
                .cdf_memo_hits;
        }
        assert!(hits > 0, "{kind:?}: no gate ever answered");

        // Worker 0's row decided pair by pair: each batch also holds a
        // TTD its gate keeps and one it prunes, so the extremes settle
        // nothing.
        let (below, above) = (cuts[0] / 2.0, cuts[cuts.len() - 1] * 2.0);
        let mut build = |batch: &[(f64, f64)]| {
            assert_identical(
                &mut scratch,
                &config,
                &mut p,
                &queue(batch),
                0.0,
                &(kind, batch),
            )
            .cdf_memo_hits
        };
        match kind {
            // Two tasks of one batch inside worker 0's band: both go to
            // the exact CCDF, which no other row's verdicts notice.
            LatencyModelKind::PowerLaw => {
                let in_band = build(&[(0.0, below), (0.0, cuts[0]), (0.0, cuts[1]), (0.0, above)]);
                let out_of_band = build(&[(0.0, below), (0.0, above), (0.0, above), (0.0, above)]);
                assert_eq!(in_band + 2, out_of_band, "the band's two pairs");
            }
            // A NaN TTD in a batch that straddles the cut: the rule sends
            // it to the exact path, the gate answers the rest.
            LatencyModelKind::Empirical => {
                let with_nan = build(&[(0.0, below), (f64::NAN, cuts[0]), (0.0, above)]);
                let without = build(&[(0.0, below), (0.0, above), (0.0, above)]);
                assert!(with_nan > 0, "the gate answered nothing");
                assert!(with_nan < without, "the NaN pair was answered by a gate");
            }
            other => panic!("{other:?} is not walked here"),
        }
    }
}

/// End-to-end determinism with faults active: a chaotic scenario driven
/// through the server's scratch-backed tick loop replays bit-identically
/// per seed, and worker dropouts mid-run (which mutate profiles outside
/// the batch path) never desynchronize the row table. Under
/// `--features debug-invariants` every tick also cross-checks the
/// incremental graph against a cold rebuild.
#[test]
fn faulted_scenario_replays_identically_through_the_scratch() {
    let run = || {
        let mut sc = Scenario::smoke(MatcherPolicy::React { cycles: 200 }, 1717);
        sc.label = "hotpath-faults".to_string();
        sc.n_workers = 40;
        sc.arrival_rate = 3.0;
        sc.total_tasks = 150;
        sc.config.audit = true;
        sc.faults = Some(FaultPlan::chaos(0.6));
        ScenarioRunner::new(sc).run()
    };
    let a = run();
    let b = run();
    assert!(
        a.faults.dropouts > 0,
        "the plan must actually inject dropouts: {:?}",
        a.faults
    );
    assert_eq!(
        a.completed + a.expired_unassigned + a.faults.stranded,
        a.received,
        "task conservation violated: {a:?}"
    );
    assert_eq!(
        a.audit, b.audit,
        "faulted run must be deterministic per seed"
    );
}
