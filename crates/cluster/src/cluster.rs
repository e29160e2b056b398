//! The [`Cluster`] facade: one [`ReactServer`] per router leaf cell,
//! with routing, cross-shard handoff, idle-worker rebalancing and
//! admission control layered on top.
//!
//! Shard topology is fixed at construction: expected member locations
//! are fed through the [`RegionRouter`] and overloaded cells are split
//! (recursively) before any server is built, so shards = router cells
//! *including post-split children*. At runtime the router's load
//! counters track live membership — registrations increment, and
//! completions, expiries, sheds and departures decrement — which is what
//! the rebalance pass reads.

use crate::policy::ClusterPolicy;
use rand::rngs::SmallRng;
use react_core::{
    Availability, CompletionOutcome, Config, CoreError, ReactServer, Task, TickOutcome,
};
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

/// What happened to a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submission {
    /// Routed and accepted by this shard.
    Accepted(ServerId),
    /// Routed to this shard but refused: its open-task count is at the
    /// admission cap. The task never reaches a server.
    Shed(ServerId),
    /// The task's location lies outside every cell.
    Unroutable,
}

/// One cross-shard task handoff performed during a cluster tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Handoff {
    /// The task that moved.
    pub task: TaskId,
    /// The shard it left.
    pub from: ServerId,
    /// The shard it re-entered.
    pub to: ServerId,
}

/// One idle-worker relocation performed by the rebalance pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Relocation {
    /// The worker that moved.
    pub worker: WorkerId,
    /// The shard it left.
    pub from: ServerId,
    /// The shard it joined.
    pub to: ServerId,
}

/// What one cluster control step's passes did. The cluster owns one and
/// clears it every tick, so its vectors keep their storage; each shard's
/// own outcome stays with its server.
#[derive(Debug, Default)]
pub struct ClusterTickOutcome {
    /// Cross-shard handoffs performed after the shard ticks.
    pub handoffs: Vec<Handoff>,
    /// Idle-worker relocations performed by this tick's rebalance pass
    /// (empty on off-period ticks or when rebalancing is disabled).
    pub relocations: Vec<Relocation>,
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
    /// Workers relocated away from each shard index.
    workers_rebalanced: u64,
    /// What the last [`Cluster::tick`]'s passes did.
    outcome: ClusterTickOutcome,
}

impl Cluster {
    /// Builds the cluster over `grid`'s cells. `presplit_points` are the
    /// *expected* member locations (typically the worker population):
    /// they are routed through the router and any cell whose projected
    /// load reaches `policy.split_threshold` is subdivided, recursively,
    /// before the per-shard servers are built. Load counters are then
    /// reset so live accounting starts from zero.
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
        router.reset_loads();

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
            outcome: ClusterTickOutcome::default(),
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

    /// Read access to the router (live per-cell load, neighbours).
    pub fn router(&self) -> &RegionRouter {
        &self.router
    }

    /// The shard a worker currently belongs to.
    pub fn shard_of_worker(&self, id: WorkerId) -> Option<ServerId> {
        self.worker_shard.get(&id).map(|&i| self.shards[i].id)
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

    /// Registers a worker: routes by location, registers with the owning
    /// shard's server and charges the router's load counter. Returns the
    /// owning shard, or `None` when the location is outside the area.
    pub fn register_worker(&mut self, id: WorkerId, location: GeoPoint) -> Option<ServerId> {
        let server_id = self.router.register(&location)?;
        let i = self.index[&server_id];
        self.shards[i].server.register_worker(id, location);
        self.worker_shard.insert(id, i);
        Some(server_id)
    }

    fn availability(&self, shard: usize, id: WorkerId) -> Option<Availability> {
        self.shards[shard]
            .server
            .profiling()
            .profile(id)
            .ok()
            .map(|p| p.availability())
    }

    /// Submits a task: routes by location, applies the admission cap,
    /// and hands the task to the owning shard's server. Sheds are
    /// reported on the `shard.admission_shed` and `recovery.tasks_shed`
    /// counters.
    pub fn submit_task(&mut self, task: Task, now: f64) -> Submission {
        match self.admit(task, now) {
            Ok(i) => Submission::Accepted(self.shards[i].id),
            Err(refused) => refused,
        }
    }

    /// [`Cluster::submit_task`], answering with the accepting shard's
    /// index.
    fn admit(&mut self, task: Task, now: f64) -> Result<usize, Submission> {
        let Some(server_id) = self.router.route(&task.location) else {
            self.unroutable += 1;
            return Err(Submission::Unroutable);
        };
        let i = self.index[&server_id];
        if let Some(admission) = self.policy.admission {
            if self.shards[i].server.tasks().open_count() >= admission.max_open_tasks {
                self.admission_shed[i] += 1;
                if self.observer.enabled() {
                    self.observer.incr(CounterKind::ShardAdmissionShed, 1);
                    self.observer.incr(CounterKind::TasksShed, 1);
                }
                return Err(Submission::Shed(server_id));
            }
        }
        self.shards[i].server.submit_task(task, now);
        self.router.add_load(server_id);
        Ok(i)
    }

    /// The full cluster control step: tick every shard in shard order,
    /// settling router load for what each tick retired, then run the
    /// handoff pass and — on period — the rebalance pass. Each shard's
    /// outcome stays with its server.
    pub fn tick(&mut self, now: f64) -> &ClusterTickOutcome {
        for shard in &mut self.shards {
            let timer = SpanTimer::start(self.observer.as_ref());
            let outcome = shard.server.tick(now);
            timer.finish(self.observer.as_ref(), SpanKind::ShardTick);
            settle_retirements(&mut self.router, shard.id, outcome);
        }
        self.outcome.handoffs.clear();
        self.outcome.relocations.clear();
        self.pass_handoff(now);
        self.ticks += 1;
        if let Some(rb) = self.policy.rebalance {
            if rb.period_ticks > 0 && self.ticks.is_multiple_of(rb.period_ticks) {
                self.pass_rebalance(rb);
            }
        }
        &self.outcome
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
            let Some((_, std::cmp::Reverse(target_id), j)) = target else {
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
                let task_id = task.id;
                self.shards[j].server.submit_task(task, now);
                self.router.deregister(source_id);
                self.router.add_load(target_id);
                self.handoffs_out[i] += 1;
                self.handoffs_in[j] += 1;
                self.outcome.handoffs.push(Handoff {
                    task: task_id,
                    from: source_id,
                    to: target_id,
                });
            }
        }
        let handed = self.outcome.handoffs.len() as u64;
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
    /// target cell.
    fn pass_rebalance(&mut self, policy: crate::policy::RebalancePolicy) {
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
            let Some((deficit, std::cmp::Reverse(target_id), j)) = target else {
                continue;
            };
            let surplus = idle - policy.min_idle;
            let n_moves = policy.max_moves.min(surplus).min(deficit as usize);
            let mut from = WorkerId(0);
            for _ in 0..n_moves {
                // A moved worker is offline here, so the walk can restart
                // past it without skipping anyone.
                let Some(worker) = self.shards[i].server.profiling().next_available(from) else {
                    break;
                };
                from = WorkerId(worker.0 + 1);
                // An idle worker holds no tasks, so going offline at the
                // source recalls nothing; it then re-registers fresh on
                // the target (its latency profile restarts — migration
                // has a cost, exactly as a new arrival would).
                let recalled = self.shards[i].server.worker_offline(worker, 0.0);
                debug_assert!(recalled.is_empty(), "idle workers hold no tasks");
                let location = self.shards[j].bounds.random_point(&mut self.rebalance_rng);
                self.shards[j].server.register_worker(worker, location);
                self.worker_shard.insert(worker, j);
                self.router.deregister(source_id);
                self.router.add_load(target_id);
                self.outcome.relocations.push(Relocation {
                    worker,
                    from: source_id,
                    to: target_id,
                });
            }
        }
        let moved = self.outcome.relocations.len() as u64;
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
/// ticks nothing, and a grid tick is the full cluster control step
/// ([`Cluster::tick`]).
impl Dispatch for Cluster {
    type Shard = usize;

    fn submit(&mut self, task: Task, now: f64) -> Option<usize> {
        self.admit(task, now).ok()
    }

    fn control_step(
        &mut self,
        now: f64,
        trigger: Trigger<usize>,
        mut each: impl FnMut(usize, &TickOutcome),
    ) {
        match trigger {
            Trigger::Arrival(i) => {
                let shard = &mut self.shards[i];
                let outcome = shard.server.tick(now);
                settle_retirements(&mut self.router, shard.id, outcome);
                each(i, outcome);
            }
            Trigger::Grid => {
                self.tick(now);
                for (i, shard) in self.shards.iter().enumerate() {
                    each(i, shard.server.last_outcome());
                }
            }
            Trigger::Burst => {}
        }
    }

    /// Only idle workers are rebalanced, so a worker holding a task is
    /// still on the shard that assigned it. On success the router's load
    /// counter drops.
    fn complete(&mut self, done: &Delivery) -> Result<(usize, CompletionOutcome), CoreError> {
        let i = *self
            .worker_shard
            .get(&done.worker)
            .ok_or(CoreError::UnknownWorker(done.worker))?;
        let shard = &mut self.shards[i];
        let (task, worker) = (done.task, done.worker);
        let outcome = shard
            .server
            .complete_task(task, worker, done.at, done.quality_ok)?;
        self.router.deregister(shard.id);
        Ok((i, outcome))
    }

    /// The worker's current shard recalls any held tasks, and the
    /// router's load counter drops. The server-side calls are idempotent,
    /// so the router guard here keeps duplicate events from skewing the
    /// load counters.
    fn worker_offline(&mut self, id: WorkerId, now: f64) -> Vec<TaskId> {
        let Some(&i) = self.worker_shard.get(&id) else {
            return Vec::new();
        };
        let server_id = self.shards[i].id;
        let was_online = self.availability(i, id) != Some(Availability::Offline);
        let recalled = self.shards[i].server.worker_offline(id, now);
        if was_online {
            self.router.deregister(server_id);
        }
        recalled
    }

    /// A departed worker reconnects at its current shard.
    fn worker_online(&mut self, id: WorkerId) {
        if let Some(&i) = self.worker_shard.get(&id) {
            let server_id = self.shards[i].id;
            let was_offline = self.availability(i, id) == Some(Availability::Offline);
            if was_offline && self.shards[i].server.worker_online(id).is_ok() {
                self.router.add_load(server_id);
            }
        }
    }

    fn open_tasks(&self) -> (usize, usize) {
        let tasks = self.shards.iter().map(|s| s.server.tasks());
        let queued = tasks.clone().map(|t| t.unassigned_count()).sum();
        (queued, tasks.map(|t| t.assigned_count()).sum())
    }
}

/// Drops router load for every task a shard tick retired (expired or
/// shed).
fn settle_retirements(router: &mut RegionRouter, shard: ServerId, outcome: &TickOutcome) {
    for _ in 0..outcome.expired.len() + outcome.shed.len() {
        router.deregister(shard);
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
    use react_core::{BatchTrigger, TaskCategory};
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

    #[test]
    fn routes_workers_and_tasks_to_their_shards() {
        let mut c = cluster_with(ClusterPolicy::single_tier());
        assert_eq!(c.server_ids().len(), 4);
        let s = c
            .register_worker(WorkerId(1), GeoPoint::new(0.5, 0.5))
            .unwrap();
        assert_eq!(c.shard_of_worker(WorkerId(1)), Some(s));
        assert_eq!(c.router().load(s), 1);
        let sub = c.submit_task(task_at(1, 0.5, 0.6), 0.0);
        assert_eq!(sub, Submission::Accepted(s));
        assert_eq!(c.router().load(s), 2);
        assert_eq!(c.server(s).unwrap().tasks().open_count(), 1);
        // Outside the area.
        assert_eq!(
            c.submit_task(task_at(2, 9.0, 9.0), 0.0),
            Submission::Unroutable
        );
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
        // Cell 0 split into 4 (and one child again: 20 points > 10 after
        // the estimate spread of 5 each — no, 20/4 = 5 < 10, one level).
        assert_eq!(c.server_ids().len(), 7);
        // Loads were reset after shaping.
        for id in c.server_ids() {
            assert_eq!(c.router().load(id), 0);
        }
    }

    #[test]
    fn admission_cap_sheds_at_the_door() {
        let mut policy = ClusterPolicy::single_tier();
        policy.admission = Some(AdmissionPolicy { max_open_tasks: 2 });
        let mut c = cluster_with(policy);
        let s = c.router().route(&GeoPoint::new(0.5, 0.5)).unwrap();
        assert_eq!(
            c.submit_task(task_at(1, 0.5, 0.5), 0.0),
            Submission::Accepted(s)
        );
        assert_eq!(
            c.submit_task(task_at(2, 0.5, 0.5), 0.0),
            Submission::Accepted(s)
        );
        assert_eq!(
            c.submit_task(task_at(3, 0.5, 0.5), 0.0),
            Submission::Shed(s)
        );
        let i = c.server_ids().iter().position(|&id| id == s).unwrap();
        assert_eq!(c.admission_shed()[i], 1);
        // Router load only counts accepted tasks.
        assert_eq!(c.router().load(s), 2);
        // Other shards unaffected.
        assert_eq!(
            c.submit_task(task_at(4, 2.5, 2.5), 0.0),
            Submission::Accepted(c.router().route(&GeoPoint::new(2.5, 2.5)).unwrap())
        );
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
        let weak = c.router().route(&GeoPoint::new(0.5, 0.5)).unwrap();
        let strong = c
            .register_worker(WorkerId(1), GeoPoint::new(0.5, 2.5))
            .unwrap();
        c.register_worker(WorkerId(2), GeoPoint::new(0.5, 2.6))
            .unwrap();
        c.submit_task(task_at(1, 0.5, 0.5), 0.0);
        c.submit_task(task_at(2, 0.6, 0.5), 0.0);
        let outcome = c.tick(1.0);
        assert_eq!(outcome.handoffs.len(), 2);
        for h in &outcome.handoffs {
            assert_eq!(h.from, weak);
            assert_eq!(h.to, strong);
        }
        assert_eq!(c.server(weak).unwrap().tasks().open_count(), 0);
        // The strong shard accepted (and, with eager batching, likely
        // already assigned) both tasks.
        let strong_server = c.server(strong).unwrap();
        assert_eq!(
            strong_server.tasks().open_count()
                + strong_server
                    .tasks()
                    .iter()
                    .filter(|r| !r.state.is_open())
                    .count(),
            2
        );
        assert_eq!(c.handoffs_out().iter().sum::<u64>(), 2);
        assert_eq!(c.handoffs_in().iter().sum::<u64>(), 2);
        // Router conservation: loads moved with the tasks.
        assert_eq!(c.router().load(weak), 0);
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
        c.submit_task(task_at(1, 0.5, 0.5), 0.0);
        let outcome = c.tick(1.0);
        assert!(outcome.handoffs.is_empty());
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
        // neighbour: a backlog the single local worker can't clear —
        // give it tasks but no workers at all.
        for w in 0..4u64 {
            c.register_worker(WorkerId(w), GeoPoint::new(0.5, 0.2 + w as f64 * 0.1));
        }
        let needy = c.router().route(&GeoPoint::new(0.5, 2.5)).unwrap();
        // Submit tasks; with no workers there the batch assigns nothing
        // and the queue persists to the rebalance pass.
        for t in 0..5u64 {
            c.submit_task(task_at(t, 0.5, 2.2 + t as f64 * 0.1), 0.0);
        }
        let donor = c.shard_of_worker(WorkerId(0)).unwrap();
        let outcome = c.tick(1.0);
        assert_eq!(outcome.relocations.len(), 2, "max_moves caps the pass");
        for r in &outcome.relocations {
            assert_eq!(r.from, donor);
            assert_eq!(r.to, needy);
        }
        // Lowest worker ids move first; their shard map is updated.
        assert_eq!(outcome.relocations[0].worker, WorkerId(0));
        assert_eq!(c.shard_of_worker(WorkerId(0)), Some(needy));
        assert_eq!(c.workers_rebalanced(), 2);
        // Worker conservation across the cluster.
        assert_eq!(c.workers_per_shard().iter().sum::<usize>(), 4);
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
            c.submit_task(task_at(t, 0.5, 2.2 + t as f64 * 0.1), 0.0);
        }
        // Ticks 1 and 2: off-period. Tick 3: on-period, but the donor
        // only has min_idle workers — nothing moves.
        assert!(c.tick(1.0).relocations.is_empty());
        assert!(c.tick(2.0).relocations.is_empty());
        assert!(c.tick(3.0).relocations.is_empty());
    }

    #[test]
    fn offline_and_online_track_router_load() {
        let mut c = cluster_with(ClusterPolicy::single_tier());
        let s = c
            .register_worker(WorkerId(1), GeoPoint::new(0.5, 0.5))
            .unwrap();
        assert_eq!(c.router().load(s), 1);
        c.worker_offline(WorkerId(1), 1.0);
        assert_eq!(c.router().load(s), 0);
        c.worker_online(WorkerId(1));
        assert_eq!(c.router().load(s), 1);
        // A second online for an already-online worker must not
        // double-charge the router.
        c.worker_online(WorkerId(1));
        assert_eq!(c.router().load(s), 1);
    }
}
