//! Model test of the worker registry: registrations in every id shape a
//! driver produces, interleaved with lookups and updates, run against a
//! `BTreeMap` reference.
//!
//! A lookup probes slot `id.0` before it searches, which answers at once
//! when the registry is `WorkerId(0..n)` and must fall back whenever it
//! is not. So the ids come in five shapes: dense in order (every probe
//! hits), dense shuffled (probes miss until the prefix fills), sparse
//! strided, a shard-like random subset of `0..480` (a probe usually lands
//! on another worker's slot), and ids at or above 2³² up to `u64::MAX`
//! beside a few small ones. Lookups name registered ids, small ids that
//! may or may not be registered, and huge ones. After every step each
//! `profile`, `profile_mut` and `record_completion` must answer as the
//! reference does, and an unknown id must answer `UnknownWorker`.
//!
//! The warm build's row table mirrors the registry and places each
//! refreshed row at the registry slot the lookup returned. Two fixed
//! cases register a worker whose id is smaller than an existing one
//! after a warm build, so the row is inserted in the middle: one against the
//! cold build directly, one through a `ReactServer`, where
//! `--features debug-invariants` holds the table to a fresh snapshot of
//! the registry. `PROPTEST_CASES` widens the run (CI: 1024 cases in
//! release, with `debug-invariants`).

mod common;

use proptest::prelude::*;
use react::core::prelude::*;
use react::core::{
    Availability, BatchScratch, ProfilingComponent, SchedulingComponent, TaskManagementComponent,
};
use std::collections::BTreeMap;

/// How the registration order is drawn.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `0..n` in order: every id names its own slot.
    DenseInOrder,
    /// `0..n` in a shuffled order.
    DenseShuffled,
    /// `offset + k · stride`, shuffled.
    Strided { stride: u64, offset: u64 },
    /// About one id in eight of `0..480`, as a cluster shard holds.
    ShardSubset,
    /// Ids at or above 2³², `u64::MAX` among them, beside small ones.
    Huge,
}

/// Which worker an operation names.
#[derive(Debug, Clone, Copy)]
enum Pick {
    /// The `n`-th registered id (modulo their number).
    Registered(usize),
    /// A small id, registered or not: in a sparse registry it usually
    /// probes another worker's slot.
    Small(u64),
    /// An id at or above 2³².
    Huge(u64),
}

#[derive(Debug, Clone)]
enum Op {
    /// Registers the next id of the shape (or, once they are all in,
    /// one already registered).
    Register,
    Profile(Pick),
    ProfileMut(Pick),
    Assign(Pick),
    Complete {
        pick: Pick,
        ok: bool,
    },
}

/// One step of SplitMix64: a fixed shuffle from a drawn seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn shuffle(ids: &mut [u64], seed: &mut u64) {
    for i in (1..ids.len()).rev() {
        let j = (splitmix(seed) % (i as u64 + 1)) as usize;
        ids.swap(i, j);
    }
}

/// The registration order of `shape`, `n` ids long (the shard subset
/// draws its own size).
fn registration_order(shape: Shape, n: u64, mut seed: u64) -> Vec<u64> {
    let mut ids: Vec<u64> = match shape {
        Shape::DenseInOrder => return (0..n).collect(),
        Shape::DenseShuffled => (0..n).collect(),
        Shape::Strided { stride, offset } => (0..n).map(|k| offset + k * stride).collect(),
        Shape::ShardSubset => (0..480u64)
            .filter(|&id| id == 240 || splitmix(&mut seed).is_multiple_of(8))
            .collect(),
        Shape::Huge => {
            let mut ids: Vec<u64> = (0..n / 4).collect();
            ids.extend((0..n).map(|k| (1 << 32) + k * 3));
            ids.extend([u64::MAX, u64::MAX - 1, u64::MAX - 480]);
            ids
        }
    };
    shuffle(&mut ids, &mut seed);
    ids
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::DenseInOrder),
        Just(Shape::DenseShuffled),
        ((2u64..9), (0u64..9)).prop_map(|(stride, offset)| Shape::Strided {
            stride,
            offset: offset % stride
        }),
        Just(Shape::ShardSubset),
        Just(Shape::Huge),
    ]
}

fn arb_pick() -> impl Strategy<Value = Pick> {
    prop_oneof![
        (0usize..512).prop_map(Pick::Registered),
        (0usize..512).prop_map(Pick::Registered),
        (0u64..480).prop_map(Pick::Small),
        (0u64..64).prop_map(|k| Pick::Huge(if k == 0 { u64::MAX } else { (1 << 32) + k })),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Register),
        Just(Op::Register),
        arb_pick().prop_map(Op::Profile),
        arb_pick().prop_map(Op::ProfileMut),
        arb_pick().prop_map(Op::Assign),
        (arb_pick(), any::<bool>()).prop_map(|(pick, ok)| Op::Complete { pick, ok }),
    ]
}

/// Distinct locations for ids that differ in their low bits.
fn spot(id: u64) -> GeoPoint {
    GeoPoint::new(
        37.90 + 0.001 * (id % 97) as f64,
        23.60 + 0.001 * (id % 89) as f64,
    )
}

/// What the reference keeps of a worker.
#[derive(Debug, Clone, Copy, Default)]
struct Reference {
    busy: bool,
    finished: u64,
    positive: u64,
}

fn pick(model: &BTreeMap<u64, Reference>, order: &[u64], pick: Pick) -> WorkerId {
    WorkerId(match pick {
        // Registration order, not id order: the probe's hits and misses
        // both come up whichever ids are in.
        Pick::Registered(n) => {
            let registered: Vec<u64> = order
                .iter()
                .copied()
                .filter(|id| model.contains_key(id))
                .collect();
            if registered.is_empty() {
                0
            } else {
                registered[n % registered.len()]
            }
        }
        Pick::Small(id) | Pick::Huge(id) => id,
    })
}

/// `profile(id)` answers as the reference does.
fn agree(
    p: &ProfilingComponent,
    model: &BTreeMap<u64, Reference>,
    id: WorkerId,
) -> Result<(), TestCaseError> {
    match (p.profile(id), model.get(&id.0)) {
        (Ok(profile), Some(reference)) => {
            prop_assert_eq!(profile.id(), id);
            prop_assert_eq!(profile.location(), spot(id.0));
            let availability = if reference.busy {
                Availability::Busy
            } else {
                Availability::Available
            };
            prop_assert_eq!(profile.availability(), availability);
            prop_assert_eq!(profile.total_finished(), reference.finished);
            prop_assert_eq!(profile.total_positive(), reference.positive);
        }
        (Err(e), None) => prop_assert_eq!(e, CoreError::UnknownWorker(id)),
        (got, want) => prop_assert!(false, "{id}: registry {got:?}, reference {want:?}"),
    }
    Ok(())
}

/// The registry as a whole: size, id order and the availability count.
fn agree_whole(
    p: &ProfilingComponent,
    model: &BTreeMap<u64, Reference>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(p.len(), model.len());
    prop_assert!(p
        .iter()
        .map(|profile| profile.id().0)
        .eq(model.keys().copied()));
    prop_assert_eq!(
        p.available_count(),
        model.values().filter(|r| !r.busy).count()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(64)))]

    #[test]
    fn registry_answers_as_a_btreemap_reference(
        shape in arb_shape(),
        n in 1u64..64,
        seed in any::<u64>(),
        ops in proptest::collection::vec(arb_op(), 1..200),
    ) {
        let order = registration_order(shape, n, seed);
        let mut next = 0usize;
        let mut p = ProfilingComponent::default();
        let mut model: BTreeMap<u64, Reference> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Register => {
                    let id = order[next.min(order.len() - 1)];
                    next += 1;
                    let fresh = !model.contains_key(&id);
                    let got = p.register(WorkerId(id), spot(id));
                    if fresh {
                        prop_assert_eq!(got, Ok(()));
                        model.insert(id, Reference::default());
                    } else {
                        prop_assert_eq!(got, Err(CoreError::DuplicateWorker(WorkerId(id))));
                    }
                    agree(&p, &model, WorkerId(id))?;
                }
                Op::Profile(which) => agree(&p, &model, pick(&model, &order, which))?,
                Op::ProfileMut(which) => {
                    let id = pick(&model, &order, which);
                    match (p.profile_mut(id), model.contains_key(&id.0)) {
                        (Ok(profile), true) => prop_assert_eq!(profile.id(), id),
                        (Err(e), false) => prop_assert_eq!(e, CoreError::UnknownWorker(id)),
                        (got, known) => prop_assert!(false, "{id}: {got:?}, registered {known}"),
                    }
                }
                Op::Assign(which) => {
                    let id = pick(&model, &order, which);
                    match model.get_mut(&id.0) {
                        Some(reference) => {
                            prop_assert_eq!(p.record_assignment(id), Ok(()));
                            reference.busy = true;
                        }
                        None => {
                            let got = p.record_assignment(id);
                            prop_assert_eq!(got, Err(CoreError::UnknownWorker(id)));
                        }
                    }
                    agree(&p, &model, id)?;
                }
                Op::Complete { pick: which, ok } => {
                    let id = pick(&model, &order, which);
                    let got = p.record_completion(id, TaskCategory(0), 1.5, ok);
                    match model.get_mut(&id.0) {
                        Some(reference) => {
                            prop_assert_eq!(got, Ok(()));
                            reference.busy = false;
                            reference.finished += 1;
                            reference.positive += u64::from(ok);
                        }
                        None => prop_assert_eq!(got, Err(CoreError::UnknownWorker(id))),
                    }
                    agree(&p, &model, id)?;
                }
            }
            agree_whole(&p, &model)?;
        }
        for &id in &order {
            agree(&p, &model, WorkerId(id))?;
        }
    }
}

/// Registers `ids` with a seasoned latency model each, so their rows carry
/// a gate.
fn register_all(p: &mut ProfilingComponent, ids: &[u64]) {
    for &id in ids {
        register_one(p, id);
    }
}

fn register_one(p: &mut ProfilingComponent, id: u64) {
    let worker = WorkerId(id);
    p.register(worker, spot(id)).unwrap();
    for exec in [2.0, 3.0, 5.0] {
        p.record_assignment(worker).unwrap();
        p.record_completion(worker, TaskCategory(0), exec + id as f64 * 0.01, true)
            .unwrap();
    }
}

fn task(id: u64, deadline: f64) -> Task {
    Task::new(
        TaskId(id),
        spot(id),
        deadline,
        0.05,
        TaskCategory(0),
        "case",
    )
}

/// Registries whose late id sorts before an id already in the row
/// table, with the slot its id names held by another worker (`5` into
/// `[0, 1, 2, 3, 7, 8]`), past the table's end (`15` into `[10, 20]`)
/// or in front of everything (`0` into `[3, 4]`).
const LATE_INSERTS: [(&[u64], u64); 3] = [(&[0, 1, 2, 3, 7, 8], 5), (&[10, 20], 15), (&[3, 4], 0)];

/// A warm build after a registration in the middle of the row table
/// emits the same graph as a cold build of the registry.
#[test]
fn a_smaller_id_after_a_warm_build_takes_its_row_in_id_order() {
    let config = Config::paper_defaults();
    for (early, late) in LATE_INSERTS {
        let mut p = ProfilingComponent::default();
        register_all(&mut p, early);
        let mut tm = TaskManagementComponent::new();
        for k in 0..4 {
            tm.submit(task(k, 30.0 + k as f64), 0.0).unwrap();
        }
        let mut scratch = BatchScratch::new();
        for round in 0..2 {
            if round == 1 {
                register_one(&mut p, late);
            }
            let (cold, cold_workers, cold_tasks, cold_pruned) =
                SchedulingComponent::build_graph(&config, &mut p, &tm, 1.0);
            let built = scratch.build(&config, &mut p, &tm, 1.0);
            let what = (early, late, round);
            assert_eq!(built.graph.edges(), cold.edges(), "{what:?}");
            assert_eq!(built.workers, &cold_workers[..], "{what:?}");
            assert_eq!(built.task_ids, &cold_tasks[..], "{what:?}");
            assert_eq!(built.pruned, cold_pruned, "{what:?}");
            if round == 1 {
                assert!(built.workers.contains(&WorkerId(late)), "{what:?}");
                assert!(
                    built.stats.rows_reused > 0,
                    "the build stayed warm: {what:?}"
                );
            }
        }
    }
}

/// The same through a server: after a tick has built, a worker with a
/// smaller id registers and the others leave, so the next batch can go
/// only to the newcomer. Under `debug-invariants` the server's build
/// also holds its row table to a fresh snapshot of the registry.
#[test]
fn a_server_takes_a_smaller_id_registered_after_a_warm_build() {
    for (early, late) in LATE_INSERTS {
        let mut config = Config::paper_defaults();
        config.batch = BatchTrigger {
            min_unassigned: 1,
            period: None,
        };
        config.charge_matching_time = false;
        let mut server = ServerBuilder::new(config).seed(7).build().unwrap();
        for &id in early {
            server.register_worker(WorkerId(id), spot(id));
        }
        server.submit_task(task(1, 60.0), 0.0);
        let first = server.tick(1.0).assignments.clone();
        assert_eq!(first.len(), 1, "{early:?}");
        assert!(server.batches_run() > 0);

        server.register_worker(WorkerId(late), spot(late));
        for &id in early {
            server.worker_offline(WorkerId(id), 1.0);
        }
        let out = server.tick(2.0);
        assert_eq!(
            out.assignments,
            vec![(WorkerId(late), TaskId(1))],
            "{early:?} + {late}"
        );
        let profile = server.profiling().profile(WorkerId(late)).unwrap();
        assert_eq!(profile.availability(), Availability::Busy);
    }
}
