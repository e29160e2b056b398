//! The Scheduling Component.
//!
//! Per batch: build the weighted bipartite graph over (available workers
//! × unassigned tasks) — applying the paper's two graph-construction
//! rules — then run the configured matcher.
//!
//! Graph-construction rules (Sec. IV-A):
//!
//! 1. **Training**: *"for the first z assignments of a new worker, we
//!    instantiate the edges with all available tasks and we assign the
//!    maximum value of F"* — bootstraps profiles for fresh workers.
//! 2. **Probabilistic pruning**: otherwise an edge `(worker, task)` is
//!    only instantiated when `Pr(ExecTime < TimeToDeadline)` (Eq. 3,
//!    from the worker's power-law model) exceeds the configured lower
//!    bound; its weight is `F(worker, task)`.
//!
//! Workers whose estimator is not yet warm (fewer than the minimum
//! completed tasks) cannot be evaluated by Eq. (3); they are instantiated
//! optimistically with their current `F`, consistent with the paper's
//! intent that pruning only applies once a profile exists.
//!
//! [`SchedulingComponent::build_graph`] is the *cold* reference path: one
//! serial pass that refits each pool worker's latency model, allocates
//! fresh buffers and evaluates Eq. (1) and Eq. (3) exactly on every
//! pair. The server's hot loop instead drives [`BatchScratch`], an
//! incremental builder: it keeps a snapshot of every registered worker
//! in place across ticks and retakes it only for the workers the
//! profiler's change feed names since its last build, reuses the edge
//! arena, decides per row what is per row (one weight when the batch has
//! one category, Eq. (3) when the batch's extreme TTDs settle it),
//! answers the remaining Eq. (3) decisions through a memoized
//! [`EdgeGate`] and appends each row's edges to the graph in one call.
//! What it reads of a queued task (expiry instant, category, location)
//! it reads off the unassigned queue's columns; the
//! cold path reads the same facts out of the task registry. The graph is
//! bit-identical to the cold build (asserted under the `debug-invariants`
//! feature, which thereby also holds the columns to the registry).

use crate::config::{Config, MatcherPolicy};
use crate::ids::{TaskCategory, TaskId, WorkerId};
use crate::profiling::{ProfilingComponent, WorkerProfile};
use crate::task_mgmt::TaskManagementComponent;
use rand::RngCore;
use react_matching::{BipartiteGraph, GraphError, MatcherEngine, RowWeights, TaskIdx, WorkerIdx};
use react_prob::{DeadlineModel, EdgeGate, FittedModel, GatedRow};

/// The outcome of one scheduling batch.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Selected assignments in `(worker, task)` form.
    pub assignments: Vec<(WorkerId, TaskId)>,
    /// Achieved matching weight `Σ w_ij x_ij`.
    pub total_weight: f64,
    /// Compute cost over the maintained *region* graph (all open tasks ×
    /// the worker pool) — see [`region_cost_units`]. This is what the
    /// server charges through the calibrated cost model.
    pub region_cost_units: f64,
    /// The matcher that ran.
    pub matcher_name: &'static str,
    /// Graph dimensions, for diagnostics: (workers, tasks, edges).
    pub graph_shape: (usize, usize, usize),
    /// Edges pruned by the Eq. (3) rule.
    pub pruned_edges: usize,
}

/// One row of the [`BatchScratch`] table: what the cold build reads of
/// this worker's profile before its pairs, the memoized
/// Eq. (3) gate derived from the model, and what the emission walk would
/// otherwise read off the profile. Valid until the worker's next epoch.
#[derive(Debug, Clone)]
struct CachedRow {
    id: WorkerId,
    /// The worker is in the batch pool of the config the row was
    /// snapshotted under (`WorkerProfile::in_pool`). Only pool rows carry
    /// a model: a worker outside the pool takes an epoch to enter it.
    in_pool: bool,
    in_training: bool,
    model: Option<FittedModel>,
    /// Inverted deadline kernel for `model` (present iff `model` is).
    gate: Option<EdgeGate>,
    /// The Eq. (1) weight for the one category of a one-category batch,
    /// with that category. Filled by the first such batch that emits the
    /// row — a snapshot has no batch, hence no category, to evaluate for.
    weight: Option<(TaskCategory, f64)>,
}

impl CachedRow {
    /// The row of one worker as its profile stands.
    fn snapshot(
        config: &Config,
        deadline_model: &DeadlineModel,
        profile: &mut WorkerProfile,
    ) -> Self {
        let in_pool = profile.in_pool(!config.matcher.uses_availability());
        let in_training = profile.assignments_served() < config.training_assignments;
        let model = if in_pool && config.matcher.uses_probabilistic_model() && !in_training {
            profile.deadline_dist(config.latency_model)
        } else {
            None
        };
        CachedRow {
            id: profile.id(),
            in_pool,
            in_training,
            gate: model.as_ref().map(|m| deadline_model.edge_gate(m)),
            model,
            weight: None,
        }
    }
}

/// Tallies from one [`BatchScratch::build`] call, for observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Workers in the batch pool (graph rows).
    pub rows_total: usize,
    /// Pool rows this build did not re-snapshot (the worker took no
    /// epoch since the scratch's previous build).
    pub rows_reused: usize,
    /// Rows carrying a latency model this batch (cached or refit) —
    /// the quantity the `profile.refits` counter has always reported.
    pub refits: usize,
    /// Eq. (3) decisions answered by the memoized gate instead of an
    /// exact CCDF evaluation: one per (row, task) pair, whether the gate
    /// settled the pair on its own or the whole row at once.
    pub cdf_memo_hits: u64,
    /// Heap bytes of graph/pool buffers carried over from the
    /// previous batch instead of freshly allocated.
    pub bytes_reused: usize,
}

/// A graph built by [`BatchScratch::build`]: views into the scratch's
/// persistent buffers plus the batch tallies. Borrows the scratch, so
/// run the matcher over it before the next build.
#[derive(Debug)]
pub struct BuiltBatchGraph<'s> {
    /// The assignment graph (rows follow `workers`, columns `task_ids`).
    pub graph: &'s BipartiteGraph,
    /// Row → worker id map, in pool order.
    pub workers: &'s [WorkerId],
    /// Column → task id map, in submission order.
    pub task_ids: &'s [TaskId],
    /// Edges dropped by the Eq. (3) pruning rule.
    pub pruned: usize,
    /// Reuse/memoization tallies for this build.
    pub stats: BuildStats,
}

/// Incremental assignment-graph builder: the hot-path counterpart to
/// [`SchedulingComponent::build_graph`] that a [`crate::ReactServer`] keeps alive across
/// ticks. It holds one row per *registered* worker, refreshes the rows
/// whose worker changed since its last build, and emits the pool's rows
/// in id order; what holds for a whole row is decided once per row, not
/// once per (row, task) pair.
///
/// * **The row table** — each worker's pool membership, training flag,
///   fitted latency model and memoized [`EdgeGate`], in id order, kept
///   in place between builds. A build re-snapshots only the
///   workers the component's change feed
///   (`ProfilingComponent::touched_since`) names since the epoch this
///   scratch last read — a handful out of thousands in steady state —
///   in ascending id order. Since the table mirrors the registry, a
///   row's index is its worker's registry slot, which the profile lookup
///   returns: the row there is replaced, or the newly registered
///   worker's row is inserted there. The first build, a
///   config change (the snapshot depends on the config), a feed that no
///   longer reaches back that far and a component other than the one last
///   read (`ProfilingComponent::instance`) re-read every profile instead,
///   which is a cold start. Each scratch keeps its own cursor, so any
///   number of them can read one component.
/// * **Row-level verdicts** — a weight that depends on the task only
///   through its category
///   ([`WeightFunction::per_category`](crate::WeightFunction)) is one
///   weight for the row when the batch has one category, and is
///   remembered in the row (any other weight is evaluated per pair); and
///   Eq. (3) is settled for the whole row when the gate already keeps
///   the batch's smallest time-to-deadline or already prunes its
///   largest — every [`EdgeGate`] answer is monotone in TTD (`Never` is
///   constant, `Above` and `Bracket` say `true` only above a cut and
///   `false` only below one), so the extremes decide for everything
///   between them. A row
///   pruned outright is done before its weights are computed. Otherwise,
///   and whenever a TTD is NaN, the gate is matched once for the row
///   ([`EdgeGate::walk_row`]) and each pair goes through that variant's
///   rule and, on the narrow ambiguous band, the exact CCDF evaluation,
///   as the cold path's does.
/// * **One write per edge** — a row's weights are one [`RowWeights`],
///   picked once per row. A row kept whole is one exact-size
///   [`BipartiteGraph::append_row`]; any other row is one
///   [`BipartiteGraph::append_row_where`] that asks each pair's verdict
///   as it writes the pair's edge, with no mask between.
/// * **Buffers** — the edge arena ([`BipartiteGraph::reset`] is `O(1)`),
///   the pool and task-id maps and
///   the per-batch task columns keep their capacity across batches, and
///   what a build reads of a task comes off the unassigned queue's own
///   columns (`TaskManagementComponent::queue`), not out of the registry.
///   A build after which nothing changed allocates nothing; otherwise
///   only what a refit allocates.
///
/// The built graph is bit-identical, edge for edge and in the same
/// order, to [`SchedulingComponent::build_graph`]; under the
/// `debug-invariants` feature every build re-runs the cold path and
/// asserts it, and holds the row table to a fresh snapshot of the whole
/// registry.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    /// One row per registered worker, ascending by id, as of `synced`.
    rows: Vec<CachedRow>,
    /// The history `rows` reflects: the component's instance and the last
    /// of its epochs read.
    synced: Option<(u64, u64)>,
    /// The feed's ids while a build applies them.
    touched: Vec<WorkerId>,
    /// This batch's pool, in selection order.
    pool: Vec<WorkerId>,
    task_ids: Vec<TaskId>,
    /// Each task's time to deadline at `now` (aligned with `task_ids`).
    ttds: Vec<f64>,
    /// The current row's weight per task, when it has no one weight.
    weights: Vec<f64>,
    graph: BipartiteGraph,
    /// Fingerprint of the config the rows were snapshotted under; any
    /// change invalidates every one.
    last_config: Option<Config>,
}

impl BatchScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    // Inert: the build has one (single-threaded) path. Kept only because
    // `benchmark/src/probes.rs`, which this repo's PRs may not edit, calls
    // it; delete it once that caller is gone (ROADMAP benchmark upkeep (b)).
    #[doc(hidden)]
    pub fn set_threads(&mut self, _threads: Option<usize>) {}

    /// Heap bytes currently retained by the graph, pool and task-column
    /// buffers.
    pub fn allocated_bytes(&self) -> usize {
        use std::mem::size_of;
        self.graph.allocated_bytes()
            + self.pool.capacity() * size_of::<WorkerId>()
            + self.task_ids.capacity() * size_of::<TaskId>()
            + (self.ttds.capacity() + self.weights.capacity()) * size_of::<f64>()
    }

    /// Brings `rows` up to the component's current epoch — a snapshot of
    /// the workers that changed since `synced`, or of all of them when
    /// the feed cannot say which — and returns how many rows now in the
    /// pool it re-snapshotted.
    fn sync_rows(
        &mut self,
        config: &Config,
        deadline_model: &DeadlineModel,
        profiling: &mut ProfilingComponent,
    ) -> usize {
        let same_config = self.last_config.as_ref() == Some(config);
        if !same_config {
            self.last_config = Some(config.clone());
        }
        let now = (profiling.instance(), profiling.epoch_now());
        self.touched.clear();
        let followed = match self.synced {
            Some((instance, seen)) if same_config && instance == now.0 => profiling
                .touched_since(seen)
                .map(|feed| self.touched.extend(feed))
                .is_some(),
            _ => false,
        };
        self.synced = Some(now);
        if !followed {
            self.rows.clear();
            let fresh = |profile| CachedRow::snapshot(config, deadline_model, profile);
            self.rows.extend(profiling.profiles_mut().map(fresh));
            return self.rows.iter().filter(|row| row.in_pool).count();
        }
        self.touched.sort_unstable();
        self.touched.dedup();
        let mut refreshed = 0usize;
        for &id in &self.touched {
            // The feed names only registered workers: none ever leaves.
            let Ok((slot, profile)) = profiling.slotted_mut(id) else {
                continue;
            };
            let row = CachedRow::snapshot(config, deadline_model, profile);
            refreshed += usize::from(row.in_pool);
            // Rows mirror the registry and the touched ids ascend, so
            // every registered id below this one has its row already:
            // this id's row sits at its registry slot, or goes there.
            if self.rows.get(slot).is_some_and(|r| r.id == id) {
                self.rows[slot] = row;
            } else {
                self.rows.insert(slot, row);
            }
        }
        refreshed
    }

    /// The row table is what a snapshot of the whole registry would
    /// produce now; a weight a row remembers is the one its profile
    /// evaluates to.
    #[cfg(feature = "debug-invariants")]
    fn assert_rows_fresh(
        &self,
        config: &Config,
        deadline_model: &DeadlineModel,
        profiling: &mut ProfilingComponent,
    ) {
        assert_eq!(self.rows.len(), profiling.len(), "row table length");
        for (row, profile) in self.rows.iter().zip(profiling.profiles_mut()) {
            let fresh = CachedRow::snapshot(config, deadline_model, profile);
            if let Some((category, weight)) = row.weight {
                let location = profile.location();
                let expected = config.weight.evaluate_at(profile, category, &location);
                assert_eq!(
                    weight.to_bits(),
                    expected.to_bits(),
                    "stale weight: {row:?}"
                );
            }
            // Debug text: bit-exact on the floats, and NaN equals itself.
            let mut held = row.clone();
            held.weight = None;
            assert_eq!(format!("{held:?}"), format!("{fresh:?}"), "stale row");
        }
    }

    /// Builds the batch graph incrementally. Semantically identical to
    /// [`SchedulingComponent::build_graph`] — same pool selection, same
    /// pruning rules, bit-identical edges — but reusing the scratch's
    /// buffers and row table.
    pub fn build<'s>(
        &'s mut self,
        config: &Config,
        profiling: &mut ProfilingComponent,
        tasks: &TaskManagementComponent,
        now: f64,
    ) -> BuiltBatchGraph<'s> {
        let mut stats = BuildStats {
            bytes_reused: self.allocated_bytes(),
            ..BuildStats::default()
        };
        let deadline_model = DeadlineModel::new(config.deadline);
        let refreshed = self.sync_rows(config, &deadline_model, profiling);
        #[cfg(feature = "debug-invariants")]
        self.assert_rows_fresh(config, &deadline_model, profiling);
        let per_category = config.weight.per_category();

        // Task columns, off the queue's own (the cold path reads the
        // same facts from the registry): each TTD
        // (`TaskRecord::remaining_time(now)`) and the batch's TTD range,
        // in passes that do not chain.
        let queue = tasks.queue();
        self.task_ids.clear();
        self.task_ids.extend_from_slice(&queue.ids);
        self.ttds.clear();
        self.ttds.extend(
            queue
                .deadline_at
                .iter()
                .map(|&deadline_at| deadline_at - now),
        );
        let (ttd_min, ttd_max) = match extremes(&self.ttds) {
            // A NaN TTD resolves through the exact evaluation; as the
            // batch's extremes it keeps every gate from settling a row.
            (_, _, true) => (f64::NAN, f64::NAN),
            (lo, hi, false) => (lo, hi),
        };
        // The one category every task of the batch shares, when the
        // weight reads nothing else of a task: a row then has one weight,
        // which it may remember.
        let shared_category = match queue.category.split_first() {
            Some((&first, rest)) if per_category && rest.iter().all(|&c| c == first) => Some(first),
            _ => None,
        };
        // The walk (below) emits the pool's rows in id order into the
        // reused graph, in the cold builder's (row, task) order.
        self.graph.reset(0, self.task_ids.len());
        self.pool.clear();

        let n = self.task_ids.len();
        let mut pruned = 0usize;
        for row in self.rows.iter_mut().filter(|row| row.in_pool) {
            if row.model.is_some() {
                stats.refits += 1;
            }
            self.pool.push(row.id);
            let worker = self.graph.add_worker();

            // Eq. (3) for the whole row: nothing to test without a model,
            // and with one, whatever the batch's extreme TTDs decide.
            let settled = match row.gate {
                None => Some(true),
                Some(gate) => match (gate.classify(ttd_min), gate.classify(ttd_max)) {
                    (Some(true), _) => Some(true),
                    (_, Some(false)) => Some(false),
                    _ => None,
                },
            };
            if settled == Some(false) {
                // Pruned outright, before any weight: a gate answered
                // each pair.
                stats.cdf_memo_hits += n as u64;
                pruned += n;
                continue;
            }

            // The row's weights: maximum F under the training rule, else
            // Eq. (1) — one for the row when the batch has one category
            // (off the row when it remembers it), else one per task.
            let remembered = match (shared_category, row.weight) {
                (Some(category), Some((held_for, weight))) if held_for == category => Some(weight),
                _ => None,
            };
            let weights = if row.in_training {
                RowWeights::Same(1.0)
            } else if let Some(weight) = remembered {
                RowWeights::Same(weight)
            } else {
                // Rows mirror the registry; a miss would mean it mutated
                // mid-build. The row then contributes no edges, as in the
                // cold builder.
                let Ok(profile) = profiling.profile(row.id) else {
                    debug_assert!(false, "row {} is not registered", row.id);
                    continue;
                };
                match shared_category {
                    Some(category) => {
                        let weight =
                            config
                                .weight
                                .evaluate_at(profile, category, &queue.location[0]);
                        row.weight = Some((category, weight));
                        RowWeights::Same(weight)
                    }
                    None => {
                        self.weights.clear();
                        self.weights
                            .extend(queue.category.iter().zip(&queue.location).map(
                                |(&category, location)| {
                                    config.weight.evaluate_at(profile, category, location)
                                },
                            ));
                        RowWeights::PerTask(&self.weights)
                    }
                }
            };

            // Only in-range indices and weights the graph accepts are
            // emitted; a rejection would mean this builder is broken, so
            // the row is dropped rather than the batch aborted.
            let appended = match (settled, row.gate, &row.model) {
                // Each pair's verdict as its edge is written: Eq. (3) by
                // the row's gate, matched once for the row, and the exact
                // CCDF where the gate does not answer.
                (None, Some(gate), Some(model)) => gate.walk_row(RowEmit {
                    graph: &mut self.graph,
                    worker,
                    weights,
                    ttds: &self.ttds,
                    model,
                    deadline_model: &deadline_model,
                    cdf_memo_hits: &mut stats.cdf_memo_hits,
                    pruned: &mut pruned,
                }),
                // Kept whole: each Eq. (3) decision, if the row has a
                // model, answered by its gate.
                _ => {
                    if row.model.is_some() {
                        stats.cdf_memo_hits += n as u64;
                    }
                    self.graph.append_row(worker, weights)
                }
            };
            debug_assert!(appended.is_ok(), "builder emitted an invalid row");
        }
        stats.rows_total = self.pool.len();
        stats.rows_reused = stats.rows_total - refreshed;

        #[cfg(feature = "debug-invariants")]
        {
            let (cold, cold_workers, cold_tasks, cold_pruned) =
                SchedulingComponent::build_graph(config, profiling, tasks, now);
            assert_eq!(
                self.graph.edges(),
                cold.edges(),
                "incremental graph diverged from the cold build"
            );
            assert_eq!(self.pool, cold_workers, "incremental pool diverged");
            assert_eq!(self.task_ids, cold_tasks, "incremental columns diverged");
            assert_eq!(pruned, cold_pruned, "incremental pruning diverged");
        }

        BuiltBatchGraph {
            graph: &self.graph,
            workers: &self.pool,
            task_ids: &self.task_ids,
            pruned,
            stats,
        }
    }
}

/// One pool row that Eq. (3) does not settle whole, on its way into the
/// graph in [`BatchScratch::build`]: what its pairs' verdicts read, and
/// the tallies they feed.
struct RowEmit<'a> {
    graph: &'a mut BipartiteGraph,
    worker: WorkerIdx,
    weights: RowWeights<'a>,
    ttds: &'a [f64],
    model: &'a FittedModel,
    deadline_model: &'a DeadlineModel,
    cdf_memo_hits: &'a mut u64,
    pruned: &'a mut usize,
}

impl GatedRow for RowEmit<'_> {
    type Output = Result<usize, GraphError>;

    fn run(self, rule: impl Fn(f64) -> Option<bool>) -> Self::Output {
        let RowEmit {
            graph,
            worker,
            weights,
            ttds,
            model,
            deadline_model,
            cdf_memo_hits,
            pruned,
        } = self;
        graph.append_row_where(worker, weights, |v| {
            let ttd = ttds[v];
            let verdict = rule(ttd);
            *cdf_memo_hits += u64::from(verdict.is_some());
            let keep =
                verdict.unwrap_or_else(|| deadline_model.should_instantiate_edge(model, ttd));
            *pruned += usize::from(!keep);
            keep
        })
    }
}

/// The smallest and the largest of `values` and whether any is NaN —
/// `(∞, −∞, false)` for none. Each step is a bare compare-and-select,
/// where `f64::min`/`max` must also pick the other operand of a NaN and
/// so make each element wait on the one before; here NaN never wins a
/// compare, and its flag makes the two extremes moot.
fn extremes(values: &[f64]) -> (f64, f64, bool) {
    let (mut lo, mut hi, mut nan) = (f64::INFINITY, f64::NEG_INFINITY, false);
    for &x in values {
        lo = if x < lo { x } else { lo };
        hi = if x > hi { x } else { hi };
        nan |= x.is_nan();
    }
    (lo, hi, nan)
}

/// Stateless batch scheduler (all state lives in the components).
#[derive(Debug, Default, Clone, Copy)]
pub struct SchedulingComponent;

impl SchedulingComponent {
    /// Builds the assignment graph: the cold reference the warm
    /// [`BatchScratch::build`] is held to. Returns the graph plus the
    /// worker/task index maps and the number of pruned edges.
    ///
    /// `now` is the assignment timepoint used for `TimeToDeadline`
    /// (assignments made by this batch start now).
    pub fn build_graph(
        config: &Config,
        profiling: &mut ProfilingComponent,
        tasks: &TaskManagementComponent,
        now: f64,
    ) -> (BipartiteGraph, Vec<WorkerId>, Vec<TaskId>, usize) {
        let mut task_ids = Vec::new();
        let mut recs = Vec::new();
        for &tid in tasks.unassigned() {
            let Ok(rec) = tasks.record(tid) else {
                debug_assert!(false, "unassigned {tid} is not tracked");
                continue;
            };
            task_ids.push(tid);
            recs.push(rec);
        }
        let pool = if config.matcher.uses_availability() {
            profiling.available_workers()
        } else {
            profiling.online_workers()
        };
        let use_model = config.matcher.uses_probabilistic_model();
        let deadline_model = DeadlineModel::new(config.deadline);
        let mut graph = BipartiteGraph::new(0, task_ids.len());
        let mut workers = Vec::with_capacity(pool.len());
        let mut pruned = 0usize;
        for wid in pool {
            // The pool scan just read these ids out of the registry; a
            // miss would mean the registry mutated mid-build. Drop the
            // row rather than abort the batch.
            let Ok(profile) = profiling.profile_mut(wid) else {
                debug_assert!(false, "pool scan returned unregistered {wid}");
                continue;
            };
            let in_training = profile.assignments_served() < config.training_assignments;
            let model = if use_model && !in_training {
                profile.deadline_dist(config.latency_model)
            } else {
                None
            };
            let profile = &*profile;
            workers.push(wid);
            let worker = graph.add_worker();
            for (v, rec) in recs.iter().enumerate() {
                let keep = model.as_ref().is_none_or(|m| {
                    deadline_model.should_instantiate_edge(m, rec.remaining_time(now))
                });
                if !keep {
                    pruned += 1;
                    continue;
                }
                // Training rule: maximum F.
                let weight = if in_training {
                    1.0
                } else {
                    config.weight.evaluate(profile, &rec.task)
                };
                // Only in-range indices and weights the graph accepts are
                // emitted; a rejection would mean this builder is broken,
                // so the edge is dropped rather than the batch aborted.
                let pushed = graph.add_edge_unchecked(worker, TaskIdx(v as u32), weight);
                debug_assert!(pushed.is_ok(), "builder emitted an invalid edge");
            }
        }
        (graph, workers, task_ids, pruned)
    }

    /// The matching stage over an already-built graph: runs the
    /// engine's matcher and assembles the [`BatchResult`], whose
    /// assignments are written into `assignments` (cleared first) — a
    /// caller that hands the same vector back every batch allocates
    /// nothing for them.
    #[allow(clippy::too_many_arguments)]
    pub fn match_built<R: RngCore + ?Sized>(
        config: &Config,
        engine: &mut MatcherEngine,
        graph: &BipartiteGraph,
        workers: &[WorkerId],
        task_ids: &[TaskId],
        pruned: usize,
        open_tasks: usize,
        rng: &mut R,
        mut assignments: Vec<(WorkerId, TaskId)>,
    ) -> BatchResult {
        let matching = engine.assign(graph, rng);
        assignments.clear();
        assignments.extend(
            matching
                .pairs
                .iter()
                .map(|&(u, v, _)| (workers[u.0 as usize], task_ids[v.0 as usize])),
        );
        let shape = (graph.n_workers(), graph.n_tasks(), graph.n_edges());
        Self::batch_result(
            config,
            shape,
            pruned,
            open_tasks,
            matching.total_weight,
            assignments,
        )
    }

    /// The batch over an empty pool and the `n_tasks` queued tasks —
    /// what [`SchedulingComponent::match_built`] returns for the graph
    /// with no worker row, without building or matching it: no pair,
    /// weight 0, and the region cost of a pool of 0 (which the policy may
    /// still charge). An empty graph draws nothing from the RNG under any
    /// policy, so skipping the matcher changes no schedule.
    pub fn idle_batch(
        config: &Config,
        n_tasks: usize,
        open_tasks: usize,
        mut assignments: Vec<(WorkerId, TaskId)>,
    ) -> BatchResult {
        assignments.clear();
        Self::batch_result(config, (0, n_tasks, 0), 0, open_tasks, 0.0, assignments)
    }

    /// Assembles a batch's [`BatchResult`] from its graph's shape
    /// (workers, tasks, edges): the one place a batch's region cost is
    /// derived.
    fn batch_result(
        config: &Config,
        graph_shape: (usize, usize, usize),
        pruned_edges: usize,
        open_tasks: usize,
        total_weight: f64,
        assignments: Vec<(WorkerId, TaskId)>,
    ) -> BatchResult {
        let (pool, batch_tasks, _) = graph_shape;
        BatchResult {
            assignments,
            total_weight,
            region_cost_units: region_cost_units(&config.matcher, open_tasks, pool, batch_tasks),
            matcher_name: config.matcher.name(),
            graph_shape,
            pruned_edges,
        }
    }
}

/// Compute cost over the maintained region graph.
///
/// Sec. III-C keeps the bipartite graph over *all* open tasks in the
/// region (vertices leave only on completion), so each batch's work
/// scales with the full graph `E_region = V_open · |pool|`, not just the
/// unassigned subgraph the matching ultimately selects from:
///
/// * REACT: `c · E_region` (the paper's `O(c·E)` bound), with `c` the
///   policy's [`MatcherPolicy::cycle_budget`] over the region graph;
/// * Greedy: `V_open · E_region` (the paper's `O(V·E)` bound) — the
///   quadratic-in-backlog growth behind its Fig. 5/9 collapse;
/// * Traditional: one portal lookup per assigned task (no graph at all).
pub fn region_cost_units(
    policy: &MatcherPolicy,
    open_tasks: usize,
    pool_size: usize,
    batch_tasks: usize,
) -> f64 {
    let v = open_tasks.max(batch_tasks);
    let e_region = v * pool_size;
    match (policy.cycle_budget(e_region), policy) {
        (Some(cycles), _) => cycles as f64 * e_region as f64,
        (None, MatcherPolicy::Traditional) => batch_tasks as f64,
        (None, _) => v as f64 * e_region as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MatcherPolicy;
    use crate::profiling::Availability;
    use crate::task::Task;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use react_geo::GeoPoint;

    /// Expiry instants as a queue may hold them: finite of either sign
    /// or a signed zero, then up to three of them overwritten, at random
    /// places, by ±∞ or NaN — so a long slice often has none.
    fn instants(
        len: std::ops::Range<usize>,
    ) -> impl proptest::strategy::Strategy<Value = Vec<f64>> {
        use proptest::prelude::*;
        let value = prop_oneof![-1e6f64..1e6, Just(0.0), Just(-0.0)];
        let special = prop_oneof![Just(f64::INFINITY), Just(f64::NEG_INFINITY), Just(f64::NAN)];
        (
            proptest::collection::vec(value, len),
            proptest::collection::vec((any::<usize>(), special), 0..4),
        )
            .prop_map(|(mut values, specials)| {
                for (at, x) in specials {
                    if !values.is_empty() {
                        let len = values.len();
                        values[at % len] = x;
                    }
                }
                values
            })
    }

    proptest::proptest! {
        /// The compare-and-select pass against a chained fold, on short
        /// slices and on ones as long as an overloaded shard's backlog.
        #[test]
        fn extremes_agree_with_a_fold(
            values in proptest::prop_oneof![instants(0..10), instants(250..301)]
        ) {
            let (lo, hi, nan) = extremes(&values);
            let any_nan = values.iter().any(|x| x.is_nan());
            proptest::prop_assert_eq!(nan, any_nan);
            if !any_nan {
                proptest::prop_assert_eq!(lo, values.iter().copied().fold(f64::INFINITY, f64::min));
                proptest::prop_assert_eq!(hi, values.iter().copied().fold(f64::NEG_INFINITY, f64::max));
            }
        }
    }

    #[test]
    fn extremes_of_nothing_are_the_empty_range() {
        assert_eq!(extremes(&[]), (f64::INFINITY, f64::NEG_INFINITY, false));
        // A NaN first, last or in between.
        for at in 0..7 {
            let mut values = [1.0, -2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
            values[at] = f64::NAN;
            assert!(extremes(&values).2, "NaN at {at}");
        }
    }

    fn here() -> GeoPoint {
        GeoPoint::new(37.98, 23.72)
    }

    fn task(id: u64, deadline: f64) -> Task {
        Task::new(TaskId(id), here(), deadline, 0.05, TaskCategory(0), "t")
    }

    fn setup(n_workers: u64, n_tasks: u64) -> (ProfilingComponent, TaskManagementComponent) {
        let mut p = ProfilingComponent::default();
        for i in 0..n_workers {
            p.register(WorkerId(i), here()).unwrap();
        }
        let mut tm = TaskManagementComponent::new();
        for i in 0..n_tasks {
            tm.submit(task(i, 60.0), 0.0).unwrap();
        }
        (p, tm)
    }

    /// One batch — the cold build, then a throwaway engine's match.
    fn one_batch(
        config: &Config,
        p: &mut ProfilingComponent,
        tm: &TaskManagementComponent,
        rng: &mut SmallRng,
    ) -> BatchResult {
        let (graph, workers, task_ids, pruned) =
            SchedulingComponent::build_graph(config, p, tm, 0.0);
        SchedulingComponent::match_built(
            config,
            &mut MatcherEngine::new(config.matcher),
            &graph,
            &workers,
            &task_ids,
            pruned,
            tm.open_count(),
            rng,
            Vec::new(),
        )
    }

    /// Marks a worker as past training with a known profile.
    fn season_worker(p: &mut ProfilingComponent, id: WorkerId, exec_times: &[f64]) {
        for &t in exec_times {
            p.record_assignment(id).unwrap();
            p.record_completion(id, TaskCategory(0), t, true).unwrap();
        }
    }

    #[test]
    fn training_workers_get_full_edges_with_max_weight() {
        let config = Config::paper_defaults();
        let (mut p, tm) = setup(3, 4);
        let (graph, workers, tasks, pruned) =
            SchedulingComponent::build_graph(&config, &mut p, &tm, 0.0);
        assert_eq!(workers.len(), 3);
        assert_eq!(tasks.len(), 4);
        assert_eq!(graph.n_edges(), 12, "training ⇒ no pruning");
        assert_eq!(pruned, 0);
        assert!(graph.edges().iter().all(|e| e.weight == 1.0));
    }

    #[test]
    fn eq3_pruning_drops_hopeless_edges() {
        let config = Config::paper_defaults();
        let (mut p, mut tm) = setup(1, 0);
        // Season worker 0 with slow history: k_min = 50 s.
        season_worker(&mut p, WorkerId(0), &[50.0, 80.0, 120.0]);
        // A task with only 10 s to its deadline is hopeless for them.
        tm.submit(task(100, 10.0), 0.0).unwrap();
        // A task with a huge window stays feasible.
        tm.submit(task(101, 10_000.0), 0.0).unwrap();
        let (graph, _, tasks, pruned) = SchedulingComponent::build_graph(&config, &mut p, &tm, 0.0);
        assert_eq!(pruned, 1);
        assert_eq!(graph.n_edges(), 1);
        assert_eq!(tasks.len(), 2);
        let edge = &graph.edges()[0];
        assert_eq!(tasks[edge.task.0 as usize], TaskId(101));
    }

    #[test]
    fn traditional_policy_skips_model_entirely() {
        let mut config = Config::with_matcher(MatcherPolicy::Traditional);
        config.training_assignments = 0;
        let (mut p, mut tm) = setup(1, 0);
        season_worker(&mut p, WorkerId(0), &[50.0, 80.0, 120.0]);
        tm.submit(task(100, 10.0), 0.0).unwrap();
        let (graph, _, _, pruned) = SchedulingComponent::build_graph(&config, &mut p, &tm, 0.0);
        assert_eq!(pruned, 0, "traditional never prunes");
        assert_eq!(graph.n_edges(), 1);
    }

    #[test]
    fn seasoned_weight_uses_accuracy() {
        let mut config = Config::paper_defaults();
        config.training_assignments = 0;
        let (mut p, tm) = setup(1, 2);
        // 1 positive out of 2 → accuracy 0.5; fast worker so no pruning.
        p.record_completion(WorkerId(0), TaskCategory(0), 1.0, true)
            .unwrap();
        p.record_completion(WorkerId(0), TaskCategory(0), 1.5, false)
            .unwrap();
        p.record_completion(WorkerId(0), TaskCategory(0), 1.2, true)
            .unwrap();
        let (graph, _, _, _) = SchedulingComponent::build_graph(&config, &mut p, &tm, 0.0);
        assert!(!graph.is_empty());
        for e in graph.edges() {
            assert!((e.weight - 2.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn a_batch_assigns_each_task_once() {
        let config = Config::paper_defaults();
        let (mut p, tm) = setup(10, 5);
        let mut rng = SmallRng::seed_from_u64(1);
        let result = one_batch(&config, &mut p, &tm, &mut rng);
        assert_eq!(result.matcher_name, "react");
        assert!(result.assignments.len() <= 5);
        let mut seen_tasks = std::collections::HashSet::new();
        let mut seen_workers = std::collections::HashSet::new();
        for (w, t) in &result.assignments {
            assert!(seen_tasks.insert(*t));
            assert!(seen_workers.insert(*w));
        }
        assert_eq!(result.graph_shape, (10, 5, 50));
    }

    #[test]
    fn a_batch_with_busy_workers_only_uses_available() {
        let config = Config::paper_defaults();
        let (mut p, tm) = setup(3, 3);
        p.record_assignment(WorkerId(0)).unwrap(); // busy
        let mut rng = SmallRng::seed_from_u64(2);
        let result = one_batch(&config, &mut p, &tm, &mut rng);
        assert!(result.assignments.iter().all(|(w, _)| *w != WorkerId(0)));
        assert_eq!(result.graph_shape.0, 2);
    }

    #[test]
    fn region_cost_units_follow_complexity_laws() {
        // 100 open tasks over a 50-worker pool → E_region = 5000.
        let (open, pool, batch) = (100usize, 50usize, 20usize);
        let e_region = 5000.0;
        assert_eq!(
            region_cost_units(&MatcherPolicy::React { cycles: 1000 }, open, pool, batch),
            1000.0 * e_region
        );
        // Adaptive: c = ⌈κ·E_region⌉ = 1250 cycles over the region graph.
        assert_eq!(
            region_cost_units(
                &MatcherPolicy::ReactAdaptive { kappa: 0.25 },
                open,
                pool,
                batch
            ),
            1250.0 * e_region
        );
        assert_eq!(
            region_cost_units(&MatcherPolicy::Greedy, open, pool, batch),
            100.0 * e_region
        );
        assert_eq!(
            region_cost_units(&MatcherPolicy::Traditional, open, pool, batch),
            batch as f64
        );
        // Open count can never undershoot the batch size.
        assert_eq!(
            region_cost_units(&MatcherPolicy::Greedy, 0, pool, batch),
            20.0 * (20.0 * 50.0)
        );
    }

    #[test]
    fn greedy_region_cost_grows_quadratically_with_backlog() {
        // The mechanism behind the paper's Fig. 9 collapse.
        let small = region_cost_units(&MatcherPolicy::Greedy, 100, 500, 10);
        let big = region_cost_units(&MatcherPolicy::Greedy, 200, 500, 10);
        assert!((big / small - 4.0).abs() < 1e-9, "ratio {}", big / small);
        // REACT grows only linearly.
        let small = region_cost_units(&MatcherPolicy::React { cycles: 1000 }, 100, 500, 10);
        let big = region_cost_units(&MatcherPolicy::React { cycles: 1000 }, 200, 500, 10);
        assert!((big / small - 2.0).abs() < 1e-9);
    }

    /// Seasons a mixed pool (training / seasoned-fast / seasoned-slow)
    /// with a mixed task queue so the pruning rule fires, then returns
    /// the components.
    fn mixed_setup() -> (Config, ProfilingComponent, TaskManagementComponent) {
        let config = Config::paper_defaults();
        let (mut p, mut tm) = setup(40, 12);
        for w in 0..10 {
            season_worker(&mut p, WorkerId(w), &[50.0, 80.0, 120.0]);
        }
        for w in 10..20 {
            season_worker(&mut p, WorkerId(w), &[1.0, 1.5, 2.0]);
        }
        tm.submit(task(100, 8.0), 0.0).unwrap();
        (config, p, tm)
    }

    #[test]
    fn scratch_build_is_bit_identical_to_cold_build() {
        let (config, mut p, tm) = mixed_setup();
        let mut scratch = BatchScratch::new();
        for now in [0.0, 1.0, 5.0] {
            let (cold, cw, ct, cp) = SchedulingComponent::build_graph(&config, &mut p, &tm, now);
            let built = scratch.build(&config, &mut p, &tm, now);
            assert_eq!(built.graph.edges(), cold.edges(), "now={now}");
            assert_eq!(built.workers, &cw[..]);
            assert_eq!(built.task_ids, &ct[..]);
            assert_eq!(built.pruned, cp);
        }
    }

    #[test]
    fn scratch_reuses_rows_until_profiles_mutate() {
        let (config, mut p, tm) = mixed_setup();
        let mut scratch = BatchScratch::new();
        let first = scratch.build(&config, &mut p, &tm, 0.0).stats;
        assert_eq!(first.rows_reused, 0, "cold scratch reuses nothing");
        assert!(first.cdf_memo_hits > 0, "gates should answer most edges");
        let second = scratch.build(&config, &mut p, &tm, 0.0).stats;
        assert_eq!(second.rows_reused, second.rows_total, "steady state");
        assert!(second.bytes_reused > 0, "arenas carry over");
        // One profile mutation invalidates exactly that row.
        p.record_completion(WorkerId(5), TaskCategory(0), 60.0, true)
            .unwrap();
        let third = scratch.build(&config, &mut p, &tm, 0.0).stats;
        assert_eq!(third.rows_reused, third.rows_total - 1);
    }

    #[test]
    fn scratch_config_change_invalidates_every_row() {
        let (config, mut p, tm) = mixed_setup();
        let mut scratch = BatchScratch::new();
        scratch.build(&config, &mut p, &tm, 0.0);
        let mut config2 = config.clone();
        config2.training_assignments += 1;
        let stats = scratch.build(&config2, &mut p, &tm, 0.0).stats;
        assert_eq!(stats.rows_reused, 0, "new config ⇒ full recompute");
        let stats = scratch.build(&config2, &mut p, &tm, 0.0).stats;
        assert_eq!(stats.rows_reused, stats.rows_total);
    }

    #[test]
    fn scratch_inserts_newly_registered_workers() {
        let (config, mut p, tm) = mixed_setup();
        let mut scratch = BatchScratch::new();
        let pool = scratch.build(&config, &mut p, &tm, 0.0).stats.rows_total;
        // Each newcomer is one fresh row in id order; the rest are reused.
        for fresh in [1_500, 12_000, 1_000] {
            p.register(WorkerId(fresh), here()).unwrap();
            let built = scratch.build(&config, &mut p, &tm, 0.0);
            assert_eq!(built.stats.rows_reused, built.stats.rows_total - 1);
            let (cold, ..) = SchedulingComponent::build_graph(&config, &mut p, &tm, 0.0);
            assert_eq!(built.graph.edges(), cold.edges());
            assert_eq!(scratch.rows.len(), p.len());
        }
        let again = scratch.build(&config, &mut p, &tm, 0.0).stats;
        assert_eq!(again.rows_total, pool + 3);
        assert_eq!(again.rows_reused, again.rows_total);
    }

    /// Workers outside the pool have rows too (so that entering it is a
    /// refresh in place, not an insertion), but no model is fitted for
    /// them and they never count as reused.
    #[test]
    fn scratch_keeps_rows_for_workers_outside_the_pool() {
        let (config, mut p, tm) = mixed_setup();
        let mut scratch = BatchScratch::new();
        p.record_assignment(WorkerId(3)).unwrap(); // busy, seasoned
        p.set_availability(WorkerId(15), Availability::Offline)
            .unwrap();
        let built = scratch.build(&config, &mut p, &tm, 0.0);
        assert_eq!(built.stats.rows_total, 38);
        assert_eq!(built.stats.rows_reused, 0);
        assert_eq!(scratch.rows.len(), 40);
        let outside = |scratch: &BatchScratch, w: usize| {
            let row = &scratch.rows[w];
            !row.in_pool && row.model.is_none()
        };
        assert!(outside(&scratch, 3) && outside(&scratch, 15));
        // Coming back is one refreshed row; the other 39 stay put.
        p.record_recall(WorkerId(3)).unwrap();
        let built = scratch.build(&config, &mut p, &tm, 0.0);
        assert_eq!(built.stats.rows_total, 39);
        assert_eq!(built.stats.rows_reused, 38);
        assert!(scratch.rows[3].in_pool && scratch.rows[3].model.is_some());
    }

    /// A scratch follows the component it last read, and only that one:
    /// handed another (here a clone that then diverged) it re-reads every
    /// profile rather than apply a feed that is not its own.
    #[test]
    fn scratch_resyncs_on_a_component_it_did_not_read_last() {
        let (config, mut p, tm) = mixed_setup();
        let mut scratch = BatchScratch::new();
        scratch.build(&config, &mut p, &tm, 0.0);
        let mut q = p.clone();
        // Same epoch count, same last worker, different histories.
        season_worker(&mut p, WorkerId(25), &[9.0, 9.5, 10.0]);
        p.set_availability(WorkerId(30), Availability::Offline)
            .unwrap();
        season_worker(&mut q, WorkerId(26), &[70.0, 75.0, 90.0]);
        q.set_availability(WorkerId(30), Availability::Offline)
            .unwrap();
        assert_eq!(p.epoch_now(), q.epoch_now());
        for foreign in [true, false, true] {
            let component = if foreign { &mut q } else { &mut p };
            let built = scratch.build(&config, component, &tm, 0.0);
            assert_eq!(built.stats.rows_reused, 0, "a foreign feed is no feed");
            let (cold, ..) = SchedulingComponent::build_graph(&config, component, &tm, 0.0);
            assert_eq!(built.graph.edges(), cold.edges());
            let again = scratch.build(&config, component, &tm, 0.0).stats;
            assert_eq!(again.rows_reused, again.rows_total);
        }
    }

    /// More changes between two builds than the feed holds: the build
    /// falls back to the full re-read and is still the cold build.
    #[test]
    fn scratch_resyncs_when_the_feed_overruns() {
        let (config, mut p, tm) = mixed_setup();
        let mut scratch = BatchScratch::new();
        scratch.build(&config, &mut p, &tm, 0.0);
        let seen = p.epoch_now();
        for i in 0..1_100u64 {
            let id = WorkerId(i % 7);
            let to = GeoPoint::new(37.9 + (i % 5) as f64 * 0.01, 23.7);
            p.set_location(id, to).unwrap();
        }
        p.set_availability(WorkerId(33), Availability::Offline)
            .unwrap();
        assert!(
            p.touched_since(seen).is_none(),
            "the feed must have overrun"
        );
        let built = scratch.build(&config, &mut p, &tm, 0.0);
        assert_eq!(built.stats.rows_reused, 0);
        assert!(!built.workers.contains(&WorkerId(33)));
        let (cold, ..) = SchedulingComponent::build_graph(&config, &mut p, &tm, 0.0);
        assert_eq!(built.graph.edges(), cold.edges());
    }

    /// The remembered Eq. (1) weight is keyed by the category it was
    /// evaluated for, and a row snapshotted with nothing queued remembers
    /// none.
    #[test]
    fn scratch_remembers_a_weight_only_for_the_category_it_evaluated() {
        let mut config = Config::paper_defaults();
        config.training_assignments = 0;
        let (mut p, mut tm) = setup(2, 0);
        p.record_completion(WorkerId(0), TaskCategory(0), 2.0, true)
            .unwrap();
        p.record_completion(WorkerId(0), TaskCategory(1), 2.0, false)
            .unwrap();
        let mut scratch = BatchScratch::new();
        let built = scratch.build(&config, &mut p, &tm, 0.0);
        assert_eq!((built.stats.rows_total, built.graph.n_edges()), (2, 0));
        assert!(scratch.rows.iter().all(|row| row.weight.is_none()));
        let in_category = |id: u64, category: u32| {
            Task::new(TaskId(id), here(), 60.0, 0.05, TaskCategory(category), "t")
        };
        let weights = |scratch: &mut BatchScratch, p: &mut _, tm: &_| -> Vec<f64> {
            let built = scratch.build(&config, p, tm, 0.0);
            assert_eq!(built.stats.rows_reused, 2);
            built.graph.edges().iter().map(|e| e.weight).collect()
        };
        tm.submit(in_category(1, 0), 0.0).unwrap();
        assert_eq!(weights(&mut scratch, &mut p, &tm), [1.0, 1.0]);
        assert_eq!(scratch.rows[0].weight, Some((TaskCategory(0), 1.0)));
        // A batch of the other category must not be served category 0's.
        tm.mark_assigned(TaskId(1), WorkerId(1), 0.0).unwrap();
        tm.submit(in_category(2, 1), 0.0).unwrap();
        assert_eq!(weights(&mut scratch, &mut p, &tm), [0.0, 1.0]);
        assert_eq!(scratch.rows[0].weight, Some((TaskCategory(1), 0.0)));
        // Two categories at once: evaluated per class, nothing remembered
        // anew.
        tm.submit(in_category(3, 0), 0.0).unwrap();
        assert_eq!(weights(&mut scratch, &mut p, &tm), [0.0, 1.0, 1.0, 1.0]);
        assert_eq!(scratch.rows[0].weight, Some((TaskCategory(1), 0.0)));
    }

    #[test]
    fn empty_inputs_produce_empty_batch() {
        let config = Config::paper_defaults();
        let (mut p, tm) = setup(0, 3);
        let mut rng = SmallRng::seed_from_u64(3);
        let result = one_batch(&config, &mut p, &tm, &mut rng);
        assert!(result.assignments.is_empty());
        let (mut p, tm) = setup(3, 0);
        let result = one_batch(&config, &mut p, &tm, &mut rng);
        assert!(result.assignments.is_empty());
    }
}
