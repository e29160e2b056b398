//! The [`Cluster`] facade: one [`ReactServer`] per router leaf cell,
//! with routing, cross-shard handoff, idle-worker rebalancing and
//! admission control layered on top, driven through [`Dispatch`].
//!
//! Shard topology is fixed at construction: expected member locations
//! are fed through the [`RegionRouter`] and overloaded cells are split
//! (recursively) before any server is built, so shards = router cells
//! *including post-split children*. After that the router only routes:
//! the handoff and rebalance passes read each shard's own worker pool
//! and queue.

use crate::policy::{ClusterPolicy, RebalancePolicy};
use rand::rngs::SmallRng;
use react_core::{CompletionOutcome, Config, CoreError, ReactServer, Task, TickOutcome};
use react_core::{TaskId, WorkerId};
use react_crowd::{Delivery, Dispatch, Trigger};
use react_geo::{BoundingBox, GeoPoint, RegionGrid, RegionRouter, ServerId};
use react_obs::{CounterKind, ObserverHandle, SpanKind, SpanTimer};
use std::collections::BTreeMap;

/// One shard: a server bound to a router leaf cell.
#[derive(Debug)]
struct Shard {
    id: ServerId,
    bounds: BoundingBox,
    server: ReactServer,
}

/// A sharded deployment of REACT servers behind one router.
#[derive(Debug)]
pub struct Cluster {
    router: RegionRouter,
    shards: Vec<Shard>,
    /// `ServerId` → index into `shards`.
    index: BTreeMap<ServerId, usize>,
    /// Each registered worker's current shard index.
    worker_shard: BTreeMap<WorkerId, usize>,
    policy: ClusterPolicy,
    observer: ObserverHandle,
    /// The dedicated `cluster.rebalance` stream: relocated workers draw
    /// their position in the target cell from here and nowhere else, so
    /// rebalancing never perturbs any other stream.
    rebalance_rng: SmallRng,
    /// Cluster ticks performed (drives the rebalance period).
    ticks: u64,
    /// Tasks refused at admission, per shard index.
    admission_shed: Vec<u64>,
    /// Tasks whose location fell outside every cell.
    unroutable: u64,
    /// Handoffs out of / into each shard index.
    handoffs_out: Vec<u64>,
    handoffs_in: Vec<u64>,
    /// Workers relocated by the rebalance pass.
    workers_rebalanced: u64,
}

impl Cluster {
    /// Builds the cluster over `grid`'s cells. `presplit_points` are the
    /// *expected* member locations (typically the worker population):
    /// they are routed through the router and any cell whose projected
    /// load reaches `policy.split_threshold` is subdivided, recursively,
    /// before the per-shard servers are built.
    ///
    /// Each shard's server derives its seed from `seed` and the shard
    /// index, so the whole cluster is reproducible from one seed.
    pub fn new(
        grid: &RegionGrid,
        config: Config,
        seed: u64,
        policy: ClusterPolicy,
        observer: ObserverHandle,
        rebalance_rng: SmallRng,
        presplit_points: &[GeoPoint],
    ) -> Result<Self, CoreError> {
        let mut router = RegionRouter::new(grid, policy.split_threshold);
        for p in presplit_points {
            router.register(p);
        }
        while !router.split_overloaded().is_empty() {}

        let mut shards = Vec::new();
        let mut index = BTreeMap::new();
        for (i, id) in router.leaves().into_iter().enumerate() {
            let bounds = router.bounds(id).expect("leaf has bounds");
            let server = ReactServer::builder(config.clone())
                .seed(shard_seed(seed, i))
                .observer(observer.clone())
                .build()?;
            index.insert(id, shards.len());
            shards.push(Shard { id, bounds, server });
        }
        let n = shards.len();
        Ok(Cluster {
            router,
            shards,
            index,
            worker_shard: BTreeMap::new(),
            policy,
            observer,
            rebalance_rng,
            ticks: 0,
            admission_shed: vec![0; n],
            unroutable: 0,
            handoffs_out: vec![0; n],
            handoffs_in: vec![0; n],
            workers_rebalanced: 0,
        })
    }

    /// The shard servers' ids, in shard order.
    pub fn server_ids(&self) -> Vec<ServerId> {
        self.shards.iter().map(|s| s.id).collect()
    }

    /// Read access to one shard's server.
    pub fn server(&self, id: ServerId) -> Option<&ReactServer> {
        self.index.get(&id).map(|&i| &self.shards[i].server)
    }

    /// Tasks refused at admission so far, per shard (shard order).
    pub fn admission_shed(&self) -> &[u64] {
        &self.admission_shed
    }

    /// Tasks whose location fell outside every cell so far.
    pub fn unroutable(&self) -> u64 {
        self.unroutable
    }

    /// Handoffs out of each shard so far (shard order).
    pub fn handoffs_out(&self) -> &[u64] {
        &self.handoffs_out
    }

    /// Handoffs into each shard so far (shard order).
    pub fn handoffs_in(&self) -> &[u64] {
        &self.handoffs_in
    }

    /// Workers relocated by the rebalance pass so far.
    pub fn workers_rebalanced(&self) -> u64 {
        self.workers_rebalanced
    }

    /// Number of workers currently mapped to each shard (shard order).
    pub fn workers_per_shard(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.shards.len()];
        for &i in self.worker_shard.values() {
            counts[i] += 1;
        }
        counts
    }

    /// Registers a worker: routes by location and registers with the
    /// owning shard's server. Returns the owning shard, or `None` when
    /// the location is outside the area.
    pub fn register_worker(&mut self, id: WorkerId, location: GeoPoint) -> Option<ServerId> {
        let server_id = self.router.route(&location)?;
        let i = self.index[&server_id];
        self.shards[i].server.register_worker(id, location);
        self.worker_shard.insert(id, i);
        Some(server_id)
    }

    /// The full cluster control step: tick every shard in shard order,
    /// then run the handoff pass and — on period — the rebalance pass.
    /// Each shard's outcome stays with its server.
    fn tick(&mut self, now: f64) {
        for shard in &mut self.shards {
            let timer = SpanTimer::start(self.observer.as_ref());
            shard.server.tick(now);
            timer.finish(self.observer.as_ref(), SpanKind::ShardTick);
        }
        self.pass_handoff(now);
        self.ticks += 1;
        if let Some(rb) = self.policy.rebalance {
            if rb.period_ticks > 0 && self.ticks.is_multiple_of(rb.period_ticks) {
                self.pass_rebalance(rb, now);
            }
        }
    }

    /// The handoff pass: for each shard whose online pool fell below the
    /// policy floor and whose queue is non-empty, evict up to
    /// `max_per_tick` queued tasks (oldest first) and re-submit them on
    /// the edge-adjacent shard with the most online workers. Deadlines
    /// are re-based so the absolute expiry instant is preserved, and
    /// handoffs bypass the admission cap (they are intra-cluster moves,
    /// not new ingress).
    fn pass_handoff(&mut self, now: f64) {
        let Some(policy) = self.policy.handoff else {
            return;
        };
        let mut handed = 0;
        for i in 0..self.shards.len() {
            let online = self.shards[i].server.profiling().online_count();
            if online >= policy.pool_floor || self.shards[i].server.tasks().unassigned_count() == 0
            {
                continue;
            }
            let source_id = self.shards[i].id;
            // Target: the edge-adjacent leaf with the most online
            // workers; ties break on the lower server id. A viable
            // target must be strictly better off than the source, or the
            // tasks would bounce without gaining anything.
            let target = self
                .router
                .neighbors(source_id)
                .filter_map(|id| self.index.get(&id).map(|&j| (id, j)))
                .map(|(id, j)| {
                    let n = self.shards[j].server.profiling().online_count();
                    (n, std::cmp::Reverse(id), j)
                })
                .max()
                .filter(|&(n, _, _)| n > online);
            let Some((_, _, j)) = target else {
                continue;
            };
            for _ in 0..policy.max_per_tick {
                let Some((mut task, submitted_at)) =
                    self.shards[i].server.evict_oldest_unassigned(now)
                else {
                    break;
                };
                // Re-base the relative deadline so the absolute expiry
                // instant survives the move. The expiry sweep ran at the
                // top of this tick, so remaining time is positive.
                task.deadline = (submitted_at + task.deadline - now).max(f64::MIN_POSITIVE);
                self.shards[j].server.submit_task(task, now);
                self.handoffs_out[i] += 1;
                self.handoffs_in[j] += 1;
                handed += 1;
            }
        }
        if self.observer.enabled() && handed > 0 {
            self.observer.incr(CounterKind::ShardHandoffs, handed);
        }
    }

    /// The rebalance pass (kern's `relocate_free_cabs` shape): each
    /// shard with more than `min_idle` idle workers relocates up to
    /// `max_moves` of them — lowest worker ids first — to the
    /// edge-adjacent shard with the largest backlog deficit (queued
    /// tasks minus idle workers). Relocated workers re-register at a
    /// position drawn from the `cluster.rebalance` stream inside the
    /// target cell. Only a worker holding no task moves: under
    /// `MatcherPolicy::Traditional` an available worker may still have
    /// tasks queued, and those stay with the shard that assigned them.
    fn pass_rebalance(&mut self, policy: RebalancePolicy, now: f64) {
        let mut moved = 0;
        for i in 0..self.shards.len() {
            let idle = self.shards[i].server.profiling().available_count();
            if idle <= policy.min_idle {
                continue;
            }
            let source_id = self.shards[i].id;
            // Neediest adjacent shard: largest (queued − idle) deficit,
            // ties to the lower server id; only positive deficits pull.
            let target = self
                .router
                .neighbors(source_id)
                .filter_map(|id| self.index.get(&id).map(|&j| (id, j)))
                .map(|(id, j)| {
                    let server = &self.shards[j].server;
                    let queued = server.tasks().unassigned_count() as i64;
                    let idle_there = server.profiling().available_count() as i64;
                    (queued - idle_there, std::cmp::Reverse(id), j)
                })
                .max()
                .filter(|&(deficit, _, _)| deficit > 0);
            let Some((deficit, _, j)) = target else {
                continue;
            };
            let surplus = idle - policy.min_idle;
            let n_moves = policy.max_moves.min(surplus).min(deficit as usize);
            let mut from = WorkerId(0);
            let mut moves = 0;
            while moves < n_moves {
                let server = &self.shards[i].server;
                let Some(worker) = server.profiling().next_available(from) else {
                    break;
                };
                from = WorkerId(worker.0 + 1);
                if server.tasks().assigned().any(|(_, w)| w == worker) {
                    continue;
                }
                // Holding nothing, the worker goes offline at the source
                // without a recall and re-registers fresh on the target
                // (its latency profile restarts — migration has a cost,
                // exactly as a new arrival would).
                self.shards[i].server.worker_offline(worker, now);
                let location = self.shards[j].bounds.random_point(&mut self.rebalance_rng);
                self.shards[j].server.register_worker(worker, location);
                self.worker_shard.insert(worker, j);
                moves += 1;
            }
            moved += moves as u64;
        }
        if moved > 0 {
            self.workers_rebalanced += moved;
            if self.observer.enabled() {
                self.observer
                    .incr(CounterKind::ShardWorkersRebalanced, moved);
            }
        }
    }
}

/// The cluster under a [`react_crowd::Lap`]: a shard is its index, in
/// shard order. An arrival ticks only the shard that took it in, a burst
/// ticks nothing, and a grid tick is the full cluster control step:
/// every shard in shard order, then the handoff and rebalance passes.
impl Dispatch for Cluster {
    type Shard = usize;

    /// Routes by location and applies the admission cap. Sheds are
    /// reported on the `shard.admission_shed` and `recovery.tasks_shed`
    /// counters.
    fn submit(&mut self, task: Task, now: f64) -> Option<usize> {
        let Some(server_id) = self.router.route(&task.location) else {
            self.unroutable += 1;
            return None;
        };
        let i = self.index[&server_id];
        if let Some(admission) = self.policy.admission {
            if self.shards[i].server.tasks().open_count() >= admission.max_open_tasks {
                self.admission_shed[i] += 1;
                if self.observer.enabled() {
                    self.observer.incr(CounterKind::ShardAdmissionShed, 1);
                    self.observer.incr(CounterKind::TasksShed, 1);
                }
                return None;
            }
        }
        self.shards[i].server.submit_task(task, now);
        Some(i)
    }

    fn control_step(
        &mut self,
        now: f64,
        trigger: Trigger<usize>,
        mut each: impl FnMut(usize, &TickOutcome),
    ) {
        match trigger {
            Trigger::Arrival(i) => each(i, self.shards[i].server.tick(now)),
            Trigger::Grid => {
                self.tick(now);
                for (i, shard) in self.shards.iter().enumerate() {
                    each(i, shard.server.last_outcome());
                }
            }
            Trigger::Burst => {}
        }
    }

    /// Only workers holding no task are rebalanced, so a worker holding a
    /// task is still on the shard that assigned it.
    fn complete(&mut self, done: &Delivery) -> Result<(usize, CompletionOutcome), CoreError> {
        let i = *self
            .worker_shard
            .get(&done.worker)
            .ok_or(CoreError::UnknownWorker(done.worker))?;
        let outcome = self.shards[i].server.complete_task(
            done.task,
            done.worker,
            done.at,
            done.quality_ok,
        )?;
        Ok((i, outcome))
    }

    /// The worker's current shard recalls any held tasks.
    fn worker_offline(&mut self, id: WorkerId, now: f64) -> Vec<TaskId> {
        match self.worker_shard.get(&id) {
            Some(&i) => self.shards[i].server.worker_offline(id, now),
            None => Vec::new(),
        }
    }

    /// A departed worker reconnects at its current shard.
    fn worker_online(&mut self, id: WorkerId) {
        if let Some(&i) = self.worker_shard.get(&id) {
            let _ = self.shards[i].server.worker_online(id);
        }
    }

    fn open_tasks(&self) -> (usize, usize) {
        let tasks = self.shards.iter().map(|s| s.server.tasks());
        let queued = tasks.clone().map(|t| t.unassigned_count()).sum();
        (queued, tasks.map(|t| t.assigned_count()).sum())
    }
}

/// Deterministic per-shard server seed: SplitMix64-style mix of the
/// cluster seed and the shard index.
fn shard_seed(seed: u64, shard_index: usize) -> u64 {
    let mut z =
        seed.wrapping_add((shard_index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ 0x5eed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 27)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AdmissionPolicy, HandoffPolicy, RebalancePolicy};
    use rand::SeedableRng;
    use react_core::{Availability, BatchTrigger, TaskCategory};
    use react_obs::null_observer;

    fn area() -> BoundingBox {
        BoundingBox::new(0.0, 4.0, 0.0, 4.0).unwrap()
    }

    fn eager_config() -> Config {
        let mut config = Config::paper_defaults();
        config.batch = BatchTrigger {
            min_unassigned: 1,
            period: None,
        };
        config.charge_matching_time = false;
        config
    }

    fn task_at(id: u64, lat: f64, lon: f64) -> Task {
        Task::new(
            TaskId(id),
            GeoPoint::new(lat, lon),
            60.0,
            0.05,
            TaskCategory(0),
            "t",
        )
    }

    fn cluster_with(policy: ClusterPolicy) -> Cluster {
        let grid = RegionGrid::new(area(), 2, 2).unwrap();
        let rng = SmallRng::seed_from_u64(99);
        Cluster::new(&grid, eager_config(), 7, policy, null_observer(), rng, &[]).unwrap()
    }

    /// The shard index of `id`.
    fn shard(c: &Cluster, id: ServerId) -> usize {
        c.server_ids().iter().position(|&s| s == id).unwrap()
    }

    #[test]
    fn routes_workers_and_tasks_to_their_shards() {
        let mut c = cluster_with(ClusterPolicy::single_tier());
        assert_eq!(c.server_ids().len(), 4);
        let s = c
            .register_worker(WorkerId(1), GeoPoint::new(0.5, 0.5))
            .unwrap();
        let i = shard(&c, s);
        assert_eq!(c.workers_per_shard()[i], 1);
        assert_eq!(c.submit(task_at(1, 0.5, 0.6), 0.0), Some(i));
        assert_eq!(c.server(s).unwrap().tasks().open_count(), 1);
        // Outside the area.
        assert_eq!(c.submit(task_at(2, 9.0, 9.0), 0.0), None);
        assert_eq!(c.unroutable(), 1);
    }

    #[test]
    fn presplit_points_shape_the_topology() {
        let grid = RegionGrid::new(area(), 2, 2).unwrap();
        let hot: Vec<GeoPoint> = (0..20).map(|_| GeoPoint::new(0.5, 0.5)).collect();
        let mut policy = ClusterPolicy::single_tier();
        policy.split_threshold = 10;
        let c = Cluster::new(
            &grid,
            eager_config(),
            7,
            policy,
            null_observer(),
            SmallRng::seed_from_u64(1),
            &hot,
        )
        .unwrap();
        // Cell 0 splits into 4 once: its 20 points spread 5 per child,
        // below the threshold of 10.
        assert_eq!(c.server_ids().len(), 7);
    }

    #[test]
    fn admission_cap_sheds_at_the_door() {
        let mut policy = ClusterPolicy::single_tier();
        policy.admission = Some(AdmissionPolicy { max_open_tasks: 2 });
        let mut c = cluster_with(policy);
        let i = shard(&c, c.router.route(&GeoPoint::new(0.5, 0.5)).unwrap());
        assert_eq!(c.submit(task_at(1, 0.5, 0.5), 0.0), Some(i));
        assert_eq!(c.submit(task_at(2, 0.5, 0.5), 0.0), Some(i));
        assert_eq!(c.submit(task_at(3, 0.5, 0.5), 0.0), None);
        assert_eq!(c.admission_shed()[i], 1);
        // Other shards unaffected.
        let other = shard(&c, c.router.route(&GeoPoint::new(2.5, 2.5)).unwrap());
        assert_eq!(c.submit(task_at(4, 2.5, 2.5), 0.0), Some(other));
    }

    #[test]
    fn handoff_moves_queue_to_stronger_neighbor() {
        let mut policy = ClusterPolicy::single_tier();
        policy.handoff = Some(HandoffPolicy {
            pool_floor: 1,
            max_per_tick: 8,
        });
        let mut c = cluster_with(policy);
        // Shard of cell (0,0) has tasks but zero workers; its lon
        // neighbour has two workers.
        let weak = c.router.route(&GeoPoint::new(0.5, 0.5)).unwrap();
        let strong = c
            .register_worker(WorkerId(1), GeoPoint::new(0.5, 2.5))
            .unwrap();
        c.register_worker(WorkerId(2), GeoPoint::new(0.5, 2.6))
            .unwrap();
        c.submit(task_at(1, 0.5, 0.5), 0.0);
        c.submit(task_at(2, 0.6, 0.5), 0.0);
        c.tick(1.0);
        assert_eq!(c.handoffs_out()[shard(&c, weak)], 2);
        assert_eq!(c.handoffs_in()[shard(&c, strong)], 2);
        assert_eq!(c.handoffs_out().iter().sum::<u64>(), 2);
        assert_eq!(c.server(weak).unwrap().tasks().open_count(), 0);
        // The strong shard accepted (and, with eager batching, likely
        // already assigned) both tasks.
        assert_eq!(c.server(strong).unwrap().tasks().len(), 2);
    }

    #[test]
    fn handoff_needs_a_strictly_stronger_neighbor() {
        let mut policy = ClusterPolicy::single_tier();
        policy.handoff = Some(HandoffPolicy {
            pool_floor: 5,
            max_per_tick: 8,
        });
        let mut c = cluster_with(policy);
        // Every shard is below the floor and equally weak: no handoffs.
        c.submit(task_at(1, 0.5, 0.5), 0.0);
        c.tick(1.0);
        assert_eq!(c.handoffs_out().iter().sum::<u64>(), 0);
    }

    #[test]
    fn rebalance_relocates_idle_workers_toward_backlog() {
        let mut policy = ClusterPolicy::single_tier();
        policy.rebalance = Some(RebalancePolicy {
            period_ticks: 1,
            min_idle: 1,
            max_moves: 2,
        });
        let mut c = cluster_with(policy);
        // Shard A (cell 0,0): 4 idle workers, no tasks. Its lon
        // neighbour: a backlog and no workers at all.
        let mut donor = None;
        for w in 0..4u64 {
            donor = c.register_worker(WorkerId(w), GeoPoint::new(0.5, 0.2 + w as f64 * 0.1));
        }
        let donor = donor.unwrap();
        let needy = c.router.route(&GeoPoint::new(0.5, 2.5)).unwrap();
        // Submit tasks; with no workers there the batch assigns nothing
        // and the queue persists to the rebalance pass.
        for t in 0..5u64 {
            c.submit(task_at(t, 0.5, 2.2 + t as f64 * 0.1), 0.0);
        }
        c.tick(1.0);
        assert_eq!(c.workers_rebalanced(), 2, "max_moves caps the pass");
        let per_shard = c.workers_per_shard();
        assert_eq!(
            (per_shard[shard(&c, donor)], per_shard[shard(&c, needy)]),
            (2, 2)
        );
        // Lowest worker ids move first: they left the donor offline.
        let at = |s: ServerId, w: u64| {
            c.server(s)
                .unwrap()
                .profiling()
                .profile(WorkerId(w))
                .map(|p| p.availability())
        };
        for w in 0..2 {
            assert_eq!(at(donor, w), Ok(Availability::Offline));
            assert!(at(needy, w).is_ok());
        }
        assert_eq!(at(donor, 2), Ok(Availability::Available));
    }

    #[test]
    fn rebalance_respects_period_and_min_idle() {
        let mut policy = ClusterPolicy::single_tier();
        policy.rebalance = Some(RebalancePolicy {
            period_ticks: 3,
            min_idle: 4,
            max_moves: 2,
        });
        let mut c = cluster_with(policy);
        for w in 0..4u64 {
            c.register_worker(WorkerId(w), GeoPoint::new(0.5, 0.2 + w as f64 * 0.1));
        }
        for t in 0..5u64 {
            c.submit(task_at(t, 0.5, 2.2 + t as f64 * 0.1), 0.0);
        }
        // Ticks 1 and 2: off-period. Tick 3: on-period, but the donor
        // only has min_idle workers — nothing moves.
        for now in [1.0, 2.0, 3.0] {
            c.tick(now);
        }
        assert_eq!(c.workers_rebalanced(), 0);
    }
}
