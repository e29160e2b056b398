//! The weighted bipartite assignment graph.
//!
//! Vertices are plain indices (`WorkerIdx` into `U`, `TaskIdx` into `V`);
//! the caller owns the mapping from indices to domain identifiers. Edges
//! are stored once, in insertion order, in an arena — all the
//! REACT/Metropolis matchers read (random edge selection is `O(1)`). The
//! per-task neighbourhood lists Greedy, Random and Hungarian scan are a
//! CSR index over the arena that the first [`BipartiteGraph::task_edges`]
//! or [`BipartiteGraph::find_edge`] call builds and every mutation drops,
//! so a graph nobody queries by task never pays for one.

use std::fmt;
use std::sync::OnceLock;

/// Index of a worker vertex (`u ∈ U`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkerIdx(pub u32);

/// Index of a task vertex (`v ∈ V`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskIdx(pub u32);

/// Index of an edge in the graph's edge arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

/// Errors from graph construction.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// Vertex index out of range.
    VertexOutOfRange {
        /// Number of worker vertices in the graph.
        workers: usize,
        /// Number of task vertices in the graph.
        tasks: usize,
    },
    /// Weights must be finite and non-negative (the paper's weight
    /// function, worker accuracy, lies in `[0, 1]`).
    InvalidWeight(f64),
    /// The same (worker, task) pair was inserted twice.
    DuplicateEdge {
        /// The worker endpoint of the duplicate.
        worker: WorkerIdx,
        /// The task endpoint of the duplicate.
        task: TaskIdx,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange { workers, tasks } => {
                write!(f, "vertex out of range (|U|={workers}, |V|={tasks})")
            }
            GraphError::InvalidWeight(w) => {
                write!(f, "edge weight must be finite and ≥ 0, got {w}")
            }
            GraphError::DuplicateEdge { worker, task } => {
                write!(f, "duplicate edge (worker {}, task {})", worker.0, task.0)
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Weights smaller than this are treated as zero by the flip rules: a
/// fitness change below `WEIGHT_EPSILON` is noise, not a real
/// deterioration to anneal over.
pub const WEIGHT_EPSILON: f64 = 1e-12;

/// True when `weight` is indistinguishable from zero for the purposes of
/// the accept/reject rules. Graph construction already rejects negative
/// and non-finite weights, so this is a one-sided check.
#[inline]
pub fn is_negligible_weight(weight: f64) -> bool {
    weight < WEIGHT_EPSILON
}

/// The weights a graph accepts: finite and non-negative.
#[inline]
fn is_valid_weight(weight: f64) -> bool {
    weight.is_finite() && weight >= 0.0
}

/// One feasible (worker, task) assignment with its weight
/// `w_ij = F(worker_i, task_j)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// The worker endpoint.
    pub worker: WorkerIdx,
    /// The task endpoint.
    pub task: TaskIdx,
    /// The assignment value; finite and non-negative.
    pub weight: f64,
}

/// A weighted bipartite graph `G = (U, V, E)`.
#[derive(Debug, Clone, Default)]
pub struct BipartiteGraph {
    n_workers: usize,
    n_tasks: usize,
    edges: Vec<Edge>,
    /// Each task's weight class, for the whole-row appends: set per
    /// batch by [`BipartiteGraph::reset_with_classes`], empty otherwise.
    class_of: Vec<u32>,
    /// One past the largest class in `class_of`: the fewest weights a
    /// row may carry.
    n_classes: usize,
    /// Built on first use; every `&mut self` method clears it.
    task_index: OnceLock<TaskIndex>,
}

/// Task-side CSR index: `ids[starts[v]..starts[v + 1]]` are the edges
/// incident to task `v`, ascending in edge id.
#[derive(Debug, Clone)]
struct TaskIndex {
    starts: Vec<u32>,
    ids: Vec<EdgeId>,
}

impl TaskIndex {
    /// Stable counting sort of the edge ids by task.
    fn new(n_tasks: usize, edges: &[Edge]) -> Self {
        let mut starts = vec![0u32; n_tasks + 1];
        for e in edges {
            starts[e.task.0 as usize + 1] += 1;
        }
        for v in 0..n_tasks {
            starts[v + 1] += starts[v];
        }
        let mut next = starts.clone();
        let mut ids = vec![EdgeId(0); edges.len()];
        for (id, e) in edges.iter().enumerate() {
            let slot = &mut next[e.task.0 as usize];
            ids[*slot as usize] = EdgeId(id as u32);
            *slot += 1;
        }
        TaskIndex { starts, ids }
    }
}

impl BipartiteGraph {
    /// Creates an empty graph with `n_workers` worker vertices and
    /// `n_tasks` task vertices.
    pub fn new(n_workers: usize, n_tasks: usize) -> Self {
        BipartiteGraph {
            n_workers,
            n_tasks,
            ..BipartiteGraph::default()
        }
    }

    /// Re-dimensions the graph to `n_workers × n_tasks` and drops all
    /// edges in `O(1)`, keeping the edge arena's allocation, so a scratch
    /// graph reused across scheduling batches stops allocating once it
    /// reaches steady-state size.
    ///
    /// Drops the class column too: a row appended after a plain reset
    /// has no tasks.
    pub fn reset(&mut self, n_workers: usize, n_tasks: usize) {
        self.task_index.take();
        self.edges.clear();
        self.class_of.clear();
        self.n_classes = 0;
        self.n_workers = n_workers;
        self.n_tasks = n_tasks;
    }

    /// [`Self::reset`], then takes the batch's weight-class column for
    /// the whole-row appends: a row will have an edge candidate for each
    /// task `v` of the column, weighted by the row's weight for class
    /// `class_of[v]`. The column is checked here, once per batch, and
    /// written into storage the graph keeps across resets.
    ///
    /// A column longer than `n_tasks` is refused
    /// ([`GraphError::VertexOutOfRange`]) and leaves the graph reset with
    /// an empty column, so the rows appended after it have no tasks.
    pub fn reset_with_classes(
        &mut self,
        n_workers: usize,
        n_tasks: usize,
        class_of: impl IntoIterator<Item = u32>,
    ) -> Result<(), GraphError> {
        self.reset(n_workers, n_tasks);
        self.class_of.extend(class_of);
        if self.class_of.len() > n_tasks {
            self.class_of.clear();
            return Err(self.out_of_range());
        }
        self.n_classes = self
            .class_of
            .iter()
            .max()
            .map_or(0, |&max| max as usize + 1);
        Ok(())
    }

    /// Appends a worker vertex and returns its index, for a builder that
    /// learns `|U|` while it emits edges row by row.
    #[inline]
    pub fn add_worker(&mut self) -> WorkerIdx {
        self.task_index.take();
        self.n_workers += 1;
        WorkerIdx(self.n_workers as u32 - 1)
    }

    /// Heap bytes currently reserved by the edge arena and the class
    /// column — the capacity a [`BipartiteGraph::reset`]-based reuse
    /// cycle retains instead of reallocating — plus the task index if one
    /// is built.
    pub fn allocated_bytes(&self) -> usize {
        use std::mem::size_of;
        self.edges.capacity() * size_of::<Edge>()
            + self.class_of.capacity() * size_of::<u32>()
            + self.task_index.get().map_or(0, |index| {
                index.starts.capacity() * size_of::<u32>()
                    + index.ids.capacity() * size_of::<EdgeId>()
            })
    }

    /// Builds the *complete* bipartite graph with weights produced by
    /// `weight(worker, task)` — the paper's Fig. 3/4 worst case where
    /// every task is connected to every worker.
    pub fn full(
        n_workers: usize,
        n_tasks: usize,
        mut weight: impl FnMut(WorkerIdx, TaskIdx) -> f64,
    ) -> Result<Self, GraphError> {
        let mut g = BipartiteGraph::new(n_workers, n_tasks);
        g.edges.reserve(n_workers * n_tasks);
        // The nested loop cannot produce duplicates, so the edges are
        // inserted directly — `add_edge`'s duplicate scan would make
        // large full graphs quadratic.
        for u in 0..n_workers {
            for v in 0..n_tasks {
                let (worker, task) = (WorkerIdx(u as u32), TaskIdx(v as u32));
                let w = weight(worker, task);
                g.validate(worker, task, w)?;
                g.push(worker, task, w);
            }
        }
        Ok(g)
    }

    /// Number of worker vertices `|U|`.
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// Number of task vertices `|V|`.
    pub fn n_tasks(&self) -> usize {
        self.n_tasks
    }

    /// Number of edges `|E|`.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// True when the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Adds the edge `(worker, task)` with the given weight.
    ///
    /// Rejects out-of-range vertices, non-finite or negative weights and
    /// duplicate pairs. Duplicate detection scans the whole arena
    /// (`O(E)`): this is the entry point for tests and hand-built graphs,
    /// not for batch construction.
    pub fn add_edge(
        &mut self,
        worker: WorkerIdx,
        task: TaskIdx,
        weight: f64,
    ) -> Result<EdgeId, GraphError> {
        self.validate(worker, task, weight)?;
        if self
            .edges
            .iter()
            .any(|e| e.worker == worker && e.task == task)
        {
            return Err(GraphError::DuplicateEdge { worker, task });
        }
        Ok(self.push(worker, task, weight))
    }

    /// Adds the edge `(worker, task)` assuming the caller guarantees the
    /// pair is fresh — the scheduler's nested worker×task loops emit
    /// pairs in strictly ascending `(worker, task)` order, which cannot
    /// repeat one, and the duplicate scan of [`BipartiteGraph::add_edge`]
    /// would make batch construction quadratic. Vertex-range and weight
    /// validation still apply; the ordering is only held by a
    /// `debug_assert`.
    #[inline]
    pub fn add_edge_unchecked(
        &mut self,
        worker: WorkerIdx,
        task: TaskIdx,
        weight: f64,
    ) -> Result<EdgeId, GraphError> {
        self.validate(worker, task, weight)?;
        debug_assert!(
            self.edges
                .last()
                .is_none_or(|last| (last.worker, last.task) < (worker, task)),
            "edge ({}, {}) does not follow the last one pushed",
            worker.0,
            task.0
        );
        Ok(self.push(worker, task, weight))
    }

    /// Appends one worker's whole row: an edge to every task `v` of the
    /// class column [`Self::reset_with_classes`] took, in ascending task
    /// order, weighted `weights[class_of[v]]` — what one
    /// [`Self::add_edge_unchecked`] call per task would push, for a
    /// builder that decides a row at a time. Returns how many edges it
    /// appended.
    ///
    /// The row is checked before anything is written: `worker` in range,
    /// a weight for every class of the column (else
    /// [`GraphError::InvalidWeight`] of NaN) and every weight finite and
    /// non-negative, whether an edge uses it or not. The column itself
    /// was checked by the reset. Like `add_edge_unchecked`, rows must
    /// arrive in ascending worker order, which only a `debug_assert`
    /// holds.
    #[inline]
    pub fn append_row(&mut self, worker: WorkerIdx, weights: &[f64]) -> Result<usize, GraphError> {
        self.check_row(worker, weights)?;
        // An exact-size iterator: one reservation, no per-edge capacity
        // check.
        self.edges
            .extend(self.class_of.iter().enumerate().map(|(v, &class)| Edge {
                worker,
                task: TaskIdx(v as u32),
                weight: weights[class as usize],
            }));
        Ok(self.class_of.len())
    }

    /// [`Self::append_row`] keeping only the tasks `v` for which
    /// `keep(v)` holds. `keep` is called exactly once per task, in
    /// ascending order, and not at all for a row the checks reject.
    #[inline]
    pub fn append_row_where(
        &mut self,
        worker: WorkerIdx,
        weights: &[f64],
        mut keep: impl FnMut(usize) -> bool,
    ) -> Result<usize, GraphError> {
        self.check_row(worker, weights)?;
        // Branch-free compaction: every edge is written at the cursor,
        // which only a kept one advances.
        let start = self.edges.len();
        let filler = Edge {
            worker,
            task: TaskIdx(0),
            weight: 0.0,
        };
        self.edges.resize(start + self.class_of.len(), filler);
        let mut cursor = start;
        for (v, &class) in self.class_of.iter().enumerate() {
            self.edges[cursor] = Edge {
                worker,
                task: TaskIdx(v as u32),
                weight: weights[class as usize],
            };
            cursor += usize::from(keep(v));
        }
        self.edges.truncate(cursor);
        Ok(cursor - start)
    }

    /// The checks of a whole-row append; drops the task index when the
    /// row passes, as every append then writes.
    #[inline]
    fn check_row(&mut self, worker: WorkerIdx, weights: &[f64]) -> Result<(), GraphError> {
        if worker.0 as usize >= self.n_workers {
            return Err(self.out_of_range());
        }
        if weights.len() < self.n_classes {
            return Err(GraphError::InvalidWeight(f64::NAN));
        }
        if let Some(&bad) = weights.iter().find(|&&w| !is_valid_weight(w)) {
            return Err(GraphError::InvalidWeight(bad));
        }
        debug_assert!(
            self.edges.last().is_none_or(|last| last.worker < worker),
            "row {} does not follow the last edge pushed",
            worker.0
        );
        self.task_index.take();
        Ok(())
    }

    fn out_of_range(&self) -> GraphError {
        GraphError::VertexOutOfRange {
            workers: self.n_workers,
            tasks: self.n_tasks,
        }
    }

    #[inline]
    fn validate(&self, worker: WorkerIdx, task: TaskIdx, weight: f64) -> Result<(), GraphError> {
        if worker.0 as usize >= self.n_workers || task.0 as usize >= self.n_tasks {
            return Err(self.out_of_range());
        }
        if !is_valid_weight(weight) {
            return Err(GraphError::InvalidWeight(weight));
        }
        Ok(())
    }

    #[inline]
    fn push(&mut self, worker: WorkerIdx, task: TaskIdx, weight: f64) -> EdgeId {
        self.task_index.take();
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge {
            worker,
            task,
            weight,
        });
        id
    }

    /// The edge with the given id.
    ///
    /// # Panics
    /// Panics on an out-of-range id; edge ids are only produced by this
    /// graph, so that is a caller logic error.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.0 as usize]
    }

    /// All edges in insertion order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Edge ids incident to `task`, ascending (insertion order).
    pub fn task_edges(&self, task: TaskIdx) -> &[EdgeId] {
        let index = self
            .task_index
            .get_or_init(|| TaskIndex::new(self.n_tasks, &self.edges));
        let v = task.0 as usize;
        &index.ids[index.starts[v] as usize..index.starts[v + 1] as usize]
    }

    /// The id of the `(worker, task)` edge, if present.
    pub fn find_edge(&self, worker: WorkerIdx, task: TaskIdx) -> Option<EdgeId> {
        if task.0 as usize >= self.n_tasks {
            return None;
        }
        self.task_edges(task)
            .iter()
            .copied()
            .find(|&e| self.edges[e.0 as usize].worker == worker)
    }

    /// Sum of all edge weights (an upper bound on any matching weight).
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.weight).sum()
    }

    /// The largest possible matching size: `min(|U|, |V|)`.
    pub fn max_matching_size(&self) -> usize {
        self.n_workers.min(self.n_tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = BipartiteGraph::new(3, 2);
        assert_eq!(g.n_workers(), 3);
        assert_eq!(g.n_tasks(), 2);
        assert_eq!(g.n_edges(), 0);
        assert!(g.is_empty());
        assert_eq!(g.max_matching_size(), 2);
    }

    #[test]
    fn add_and_query_edges() {
        let mut g = BipartiteGraph::new(2, 2);
        let e0 = g.add_edge(WorkerIdx(0), TaskIdx(0), 0.5).unwrap();
        let e1 = g.add_edge(WorkerIdx(0), TaskIdx(1), 0.9).unwrap();
        let e2 = g.add_edge(WorkerIdx(1), TaskIdx(0), 0.1).unwrap();
        assert_eq!(g.n_edges(), 3);
        assert_eq!(g.edge(e1).weight, 0.9);
        assert_eq!(g.task_edges(TaskIdx(0)), &[e0, e2]);
        assert_eq!(g.task_edges(TaskIdx(1)), &[e1]);
        assert_eq!(g.find_edge(WorkerIdx(1), TaskIdx(0)), Some(e2));
        assert_eq!(g.find_edge(WorkerIdx(1), TaskIdx(1)), None);
        assert!((g.total_weight() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn rejects_out_of_range() {
        let mut g = BipartiteGraph::new(1, 1);
        assert!(matches!(
            g.add_edge(WorkerIdx(1), TaskIdx(0), 0.5),
            Err(GraphError::VertexOutOfRange { .. })
        ));
        assert!(matches!(
            g.add_edge(WorkerIdx(0), TaskIdx(9), 0.5),
            Err(GraphError::VertexOutOfRange { .. })
        ));
    }

    #[test]
    fn rejects_invalid_weight() {
        let mut g = BipartiteGraph::new(1, 1);
        assert!(matches!(
            g.add_edge(WorkerIdx(0), TaskIdx(0), f64::NAN),
            Err(GraphError::InvalidWeight(_))
        ));
        assert!(matches!(
            g.add_edge(WorkerIdx(0), TaskIdx(0), -0.1),
            Err(GraphError::InvalidWeight(_))
        ));
        assert!(matches!(
            g.add_edge(WorkerIdx(0), TaskIdx(0), f64::INFINITY),
            Err(GraphError::InvalidWeight(_))
        ));
        // Zero weight is allowed (a known-bad worker still is an option).
        assert!(g.add_edge(WorkerIdx(0), TaskIdx(0), 0.0).is_ok());
    }

    #[test]
    fn rejects_duplicate_edge() {
        let mut g = BipartiteGraph::new(1, 1);
        g.add_edge(WorkerIdx(0), TaskIdx(0), 0.5).unwrap();
        assert!(matches!(
            g.add_edge(WorkerIdx(0), TaskIdx(0), 0.7),
            Err(GraphError::DuplicateEdge { .. })
        ));
    }

    #[test]
    fn full_graph_has_all_edges() {
        let g = BipartiteGraph::full(3, 4, |u, v| (u.0 + v.0) as f64 / 10.0).unwrap();
        assert_eq!(g.n_edges(), 12);
        for u in 0..3 {
            let row = g.edges().iter().filter(|e| e.worker == WorkerIdx(u));
            assert_eq!(row.count(), 4);
        }
        for v in 0..4 {
            assert_eq!(g.task_edges(TaskIdx(v)).len(), 3);
        }
        let e = g.find_edge(WorkerIdx(2), TaskIdx(3)).unwrap();
        assert!((g.edge(e).weight - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reset_redimensions_and_keeps_capacity() {
        let mut g = BipartiteGraph::full(4, 5, |u, v| (u.0 + v.0) as f64 / 10.0).unwrap();
        let bytes_before = g.allocated_bytes();
        assert!(bytes_before > 0);
        g.reset(3, 2);
        assert_eq!(g.n_workers(), 3);
        assert_eq!(g.n_tasks(), 2);
        assert_eq!(g.n_edges(), 0);
        assert!(g.task_edges(TaskIdx(1)).is_empty());
        // The edge arena's capacity survives the reset.
        assert!(g.allocated_bytes() > 0);
        // The reset graph behaves like a freshly constructed one.
        let e = g.add_edge(WorkerIdx(2), TaskIdx(1), 0.5).unwrap();
        assert_eq!(g.find_edge(WorkerIdx(2), TaskIdx(1)), Some(e));
        assert!(matches!(
            g.add_edge(WorkerIdx(3), TaskIdx(0), 0.5),
            Err(GraphError::VertexOutOfRange { .. })
        ));
        // Growing back re-dimensions correctly too.
        g.reset(6, 6);
        assert_eq!(g.n_workers(), 6);
        assert!(g.add_edge(WorkerIdx(5), TaskIdx(5), 0.1).is_ok());
    }

    #[test]
    fn task_index_is_rebuilt_after_every_mutation() {
        let mut g = BipartiteGraph::new(2, 2);
        let e0 = g.add_edge(WorkerIdx(0), TaskIdx(1), 0.5).unwrap();
        assert_eq!(g.task_edges(TaskIdx(1)), &[e0]);
        let indexed = g.allocated_bytes();
        // Each mutation below follows a query, so it finds an index built.
        let e1 = g.add_edge(WorkerIdx(1), TaskIdx(0), 0.4).unwrap();
        assert!(g.allocated_bytes() < indexed, "a mutation drops the index");
        assert_eq!(g.task_edges(TaskIdx(0)), &[e1]);
        assert_eq!(g.task_edges(TaskIdx(1)), &[e0]);
        let e2 = g.add_edge_unchecked(WorkerIdx(1), TaskIdx(1), 0.3).unwrap();
        assert_eq!(g.task_edges(TaskIdx(1)), &[e0, e2]);
        assert_eq!(g.find_edge(WorkerIdx(1), TaskIdx(1)), Some(e2));
        assert_eq!(g.add_worker(), WorkerIdx(2));
        let e3 = g.add_edge_unchecked(WorkerIdx(2), TaskIdx(0), 0.2).unwrap();
        assert_eq!(g.task_edges(TaskIdx(0)), &[e1, e3]);
        g.reset(1, 3);
        for v in 0..3 {
            assert!(g.task_edges(TaskIdx(v)).is_empty());
        }
        assert_eq!(g.find_edge(WorkerIdx(1), TaskIdx(1)), None);
        assert_eq!(g.find_edge(WorkerIdx(0), TaskIdx(7)), None, "out of range");
        let e = g.add_edge(WorkerIdx(0), TaskIdx(2), 0.1).unwrap();
        assert_eq!(g.task_edges(TaskIdx(2)), &[e]);
    }

    #[test]
    fn task_edges_ascend_in_edge_id_and_cover_the_arena() {
        // Rows of uneven length, tasks hit in no particular order.
        let mut g = BipartiteGraph::new(5, 4);
        for (u, tasks) in [&[3, 0][..], &[1], &[], &[2, 3, 0, 1], &[0]]
            .iter()
            .enumerate()
        {
            for &v in *tasks {
                g.add_edge(WorkerIdx(u as u32), TaskIdx(v), 0.5).unwrap();
            }
        }
        let mut seen = 0;
        for v in 0..4 {
            let ids = g.task_edges(TaskIdx(v));
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "task {v}: {ids:?}");
            assert!(ids.iter().all(|&e| g.edge(e).task == TaskIdx(v)));
            seen += ids.len();
        }
        assert_eq!(seen, g.n_edges());
    }

    #[test]
    fn matchers_agree_on_a_reused_graph_and_a_fresh_one() {
        use crate::{GreedyMatcher, HungarianMatcher, Matcher, RandomMatcher};
        use rand::{rngs::SmallRng, SeedableRng};
        let fill = |g: &mut BipartiteGraph| {
            for u in 0..6u32 {
                for v in (0..5u32).filter(|v| (u + 2 * v) % 3 != 0) {
                    let w = f64::from((u * 7 + v * 3) % 10) / 10.0;
                    g.add_edge_unchecked(WorkerIdx(u), TaskIdx(v), w).unwrap();
                }
            }
        };
        let mut fresh = BipartiteGraph::new(6, 5);
        fill(&mut fresh);
        // The reused graph held a larger, queried graph before the reset.
        let mut reused = BipartiteGraph::full(9, 8, |u, v| f64::from(u.0 + v.0) / 20.0).unwrap();
        assert_eq!(reused.task_edges(TaskIdx(7)).len(), 9);
        reused.reset(6, 5);
        fill(&mut reused);
        assert_eq!(reused.edges(), fresh.edges());
        let matchers: [&dyn Matcher; 3] = [&GreedyMatcher, &RandomMatcher, &HungarianMatcher];
        for m in matchers {
            let on_fresh = m.assign(&fresh, &mut SmallRng::seed_from_u64(5));
            let on_reused = m.assign(&reused, &mut SmallRng::seed_from_u64(5));
            assert!(!on_fresh.pairs.is_empty(), "{}", m.name());
            assert_eq!(on_reused.pairs, on_fresh.pairs, "{}", m.name());
            assert_eq!(on_reused.cost_units, on_fresh.cost_units);
        }
    }

    /// One whole-row append: the row's weights, and which tasks it keeps
    /// (all of them when `None`).
    type Row<'a> = (&'a [f64], Option<&'a [bool]>);

    /// The whole-row appends of one batch (`class_of` taken by the reset)
    /// against the per-edge entry they stand in for.
    fn per_edge(
        n_tasks: usize,
        class_of: &[u32],
        rows: &[Row],
    ) -> (BipartiteGraph, BipartiteGraph) {
        let mut by_row = BipartiteGraph::new(0, 0);
        by_row
            .reset_with_classes(rows.len(), n_tasks, class_of.iter().copied())
            .unwrap();
        let mut by_edge = BipartiteGraph::new(rows.len(), n_tasks);
        for (u, &(weights, keep)) in rows.iter().enumerate() {
            let worker = WorkerIdx(u as u32);
            let mut expected = 0;
            for (v, &class) in class_of.iter().enumerate() {
                if keep.is_none_or(|keep| keep[v]) {
                    let weight = weights[class as usize];
                    by_edge
                        .add_edge_unchecked(worker, TaskIdx(v as u32), weight)
                        .unwrap();
                    expected += 1;
                }
            }
            let appended = match keep {
                None => by_row.append_row(worker, weights),
                Some(keep) => by_row.append_row_where(worker, weights, |v| keep[v]),
            };
            assert_eq!(appended, Ok(expected));
        }
        (by_row, by_edge)
    }

    #[test]
    fn append_row_equals_one_add_edge_per_kept_task() {
        let batches: [(&[u32], &[Row]); 4] = [
            // A full row of one class; a row that keeps none.
            (
                &[0, 0, 0, 0],
                &[(&[0.7], None), (&[1.0], Some(&[false; 4]))],
            ),
            // A full row of several classes; a filtered one.
            (
                &[0, 1, 0, 2],
                &[
                    (&[0.1, 0.2, 0.3], None),
                    (&[0.4, 0.5, 0.6], Some(&[false, true, true, false])),
                ],
            ),
            // Filtered rows: the ends, all.
            (
                &[1, 1, 0, 0],
                &[(&[0.8, 0.9], Some(&[true, false, false, true]))],
            ),
            (
                &[0, 1, 2, 3],
                &[(&[0.0, 0.25, 0.5, 0.75], Some(&[true; 4]))],
            ),
        ];
        let mut n_edges = 0;
        for (class_of, rows) in batches {
            let (by_row, by_edge) = per_edge(4, class_of, rows);
            assert_eq!(by_row.edges(), by_edge.edges());
            for v in 0..4 {
                assert_eq!(
                    by_row.task_edges(TaskIdx(v)),
                    by_edge.task_edges(TaskIdx(v))
                );
            }
            n_edges += by_row.n_edges();
        }
        assert_eq!(n_edges, 16);
        // An empty column, and a column over a prefix of the tasks.
        let (by_row, by_edge) = per_edge(3, &[], &[(&[], None)]);
        assert_eq!(by_row.edges(), by_edge.edges());
        assert_eq!(by_row.n_edges(), 0);
        let (by_row, by_edge) = per_edge(3, &[0, 0], &[(&[0.5], None)]);
        assert_eq!(by_row.edges(), by_edge.edges());
        assert_eq!(by_row.n_edges(), 2);
    }

    #[test]
    fn append_row_drops_a_built_task_index() {
        let mut g = BipartiteGraph::new(0, 0);
        g.reset_with_classes(2, 2, [0, 0]).unwrap();
        g.append_row(WorkerIdx(0), &[0.5]).unwrap();
        assert_eq!(g.task_edges(TaskIdx(1)), &[EdgeId(1)]);
        g.append_row_where(WorkerIdx(1), &[0.5], |v| v == 1)
            .unwrap();
        assert_eq!(g.task_edges(TaskIdx(1)), &[EdgeId(1), EdgeId(2)]);
        assert_eq!(g.task_edges(TaskIdx(0)), &[EdgeId(0)]);
    }

    #[test]
    fn append_row_rejects_a_bad_row_having_appended_nothing() {
        let mut g = BipartiteGraph::new(0, 0);
        g.reset_with_classes(2, 3, [0, 0, 1]).unwrap();
        g.append_row(WorkerIdx(0), &[0.5, 0.5]).unwrap();
        let before = g.edges().to_vec();
        let out_of_range = |r: Result<usize, GraphError>| {
            matches!(
                r,
                Err(GraphError::VertexOutOfRange {
                    workers: 2,
                    tasks: 3
                })
            )
        };
        let invalid = |r: Result<usize, GraphError>| matches!(r, Err(GraphError::InvalidWeight(_)));
        // The worker. The width is the reset's to check (below), and a
        // verdict, called once per task, has no width to get wrong.
        assert!(out_of_range(g.append_row(WorkerIdx(2), &[0.5, 0.5])));
        assert!(out_of_range(g.append_row_where(
            WorkerIdx(2),
            &[0.5, 0.5],
            |_| true
        )));
        let mut wide = BipartiteGraph::new(0, 0);
        assert!(out_of_range(
            wide.reset_with_classes(2, 3, [0; 4]).map(|()| 0)
        ));
        // A weight the graph does not accept — last of the row's, and of
        // a class no kept edge uses — and a class without a weight.
        let mask = |v: usize| v < 2;
        for bad in [f64::NAN, -0.1, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(invalid(g.append_row(WorkerIdx(1), &[0.5, bad])));
            assert!(invalid(g.append_row_where(WorkerIdx(1), &[0.5, bad], mask)));
        }
        assert!(invalid(g.append_row(WorkerIdx(1), &[0.5])));
        assert!(invalid(g.append_row_where(WorkerIdx(1), &[0.5], mask)));
        assert_eq!(g.edges(), &before[..], "a rejected row must leave no edge");
        // The graph is still usable.
        assert_eq!(g.append_row_where(WorkerIdx(1), &[0.0, 1.0], mask), Ok(2));
        assert_eq!(g.n_edges(), 5);
    }

    #[test]
    fn append_row_where_asks_each_task_once_in_column_order() {
        let mut g = BipartiteGraph::new(0, 0);
        g.reset_with_classes(3, 6, [2, 0, 1, 0, 2]).unwrap();
        for (u, pattern) in [[true; 5], [false; 5], [false, true, true, false, true]]
            .iter()
            .enumerate()
        {
            let mut asked = Vec::new();
            let appended = g.append_row_where(WorkerIdx(u as u32), &[0.1, 0.2, 0.3], |v| {
                asked.push(v);
                pattern[v]
            });
            assert_eq!(asked, [0, 1, 2, 3, 4], "row {u}");
            assert_eq!(appended, Ok(pattern.iter().filter(|&&k| k).count()));
        }
        let kept: Vec<_> = g.edges().iter().map(|e| (e.worker.0, e.task.0)).collect();
        let first = (0..5).map(|v| (0, v));
        let third = [1, 2, 4].map(|v| (2, v));
        assert_eq!(kept, first.chain(third).collect::<Vec<_>>());
    }

    #[test]
    fn a_rejected_row_writes_nothing_and_never_asks_a_verdict() {
        let mut g = BipartiteGraph::new(0, 0);
        g.reset_with_classes(2, 2, [0, 1]).unwrap();
        g.append_row(WorkerIdx(0), &[0.5, 0.5]).unwrap();
        let before = g.edges().to_vec();
        let bad_rows: [(u32, &[f64]); 4] = [
            (2, &[0.5, 0.5]),
            (1, &[0.5]),
            (1, &[0.5, f64::NAN]),
            (1, &[-1.0, 0.5]),
        ];
        for (worker, weights) in bad_rows {
            let mut asked = 0;
            let r = g.append_row_where(WorkerIdx(worker), weights, |_| {
                asked += 1;
                true
            });
            assert!(r.is_err(), "row {worker} {weights:?}");
            assert_eq!(asked, 0, "row {worker} {weights:?}");
            assert_eq!(g.edges(), &before[..]);
        }
    }

    #[test]
    fn a_class_column_wider_than_the_tasks_is_refused() {
        let mut g = BipartiteGraph::new(0, 0);
        g.reset_with_classes(2, 2, [0, 0]).unwrap();
        g.append_row(WorkerIdx(0), &[0.5]).unwrap();
        assert_eq!(
            g.reset_with_classes(2, 2, [0, 1, 0]),
            Err(GraphError::VertexOutOfRange {
                workers: 2,
                tasks: 2
            })
        );
        // Reset all the same, with no column: a row has no tasks.
        assert_eq!((g.n_workers(), g.n_tasks(), g.n_edges()), (2, 2, 0));
        assert_eq!(g.append_row(WorkerIdx(1), &[]), Ok(0));
        assert_eq!(g.n_edges(), 0);
        // As wide as |V| is fine.
        assert_eq!(g.reset_with_classes(2, 3, [0, 1, 0]), Ok(()));
        assert_eq!(g.append_row(WorkerIdx(0), &[0.1, 0.2]), Ok(3));
    }

    #[test]
    fn error_display() {
        let e = GraphError::InvalidWeight(-1.0);
        assert!(e.to_string().contains("weight"));
        let e = GraphError::DuplicateEdge {
            worker: WorkerIdx(1),
            task: TaskIdx(2),
        };
        assert!(e.to_string().contains("duplicate"));
    }
}
