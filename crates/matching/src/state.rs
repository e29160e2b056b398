//! Incremental matching state `x ∈ {0,1}^{|E|}` with O(1) fitness
//! maintenance.
//!
//! The REACT and Metropolis matchers flip one edge per cycle; recomputing
//! `g(x) = Σ x_ij·w_ij` from scratch would cost `O(E)` per cycle. The
//! state therefore tracks, per vertex, which edge currently matches it,
//! and maintains the running fitness incrementally, exactly as the
//! paper's complexity analysis assumes (*"the algorithm computes the new
//! g(x′) that also costs O(1), by adding or subtracting the edge's
//! weight"*). `x` itself is not stored: a matching has at most
//! `min(|U|, |V|)` edges, so the two per-vertex indices *are* the
//! selected set, and the state costs `O(|U| + |V|)` whatever `|E|` is.

use crate::graph::{BipartiteGraph, Edge, EdgeId, TaskIdx, WorkerIdx};

/// A (partial) matching over a [`BipartiteGraph`], kept consistent with
/// the 1-to-1 constraints at all times.
#[derive(Debug, Clone, Default)]
pub struct MatchingState {
    worker_match: Vec<Option<EdgeId>>,
    task_match: Vec<Option<EdgeId>>,
    fitness: f64,
    size: usize,
}

impl MatchingState {
    /// The empty matching over `graph`.
    pub fn new(graph: &BipartiteGraph) -> Self {
        let mut state = MatchingState::default();
        state.reset(graph);
        state
    }

    /// Empties the matching and sizes it for `graph` in `O(|U| + |V|)`,
    /// keeping the two vertex arrays' storage.
    pub(crate) fn reset(&mut self, graph: &BipartiteGraph) {
        self.worker_match.clear();
        self.worker_match.resize(graph.n_workers(), None);
        self.task_match.clear();
        self.task_match.resize(graph.n_tasks(), None);
        self.fitness = 0.0;
        self.size = 0;
    }

    /// Current fitness `g(x)` — the sum of selected edge weights.
    #[inline]
    pub fn fitness(&self) -> f64 {
        self.fitness
    }

    /// Number of selected edges.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// True when edge `e` (read out of the graph as `edge`) is in the
    /// matching: its task is matched by it.
    #[inline]
    pub(crate) fn holds(&self, e: EdgeId, edge: &Edge) -> bool {
        self.task_match[edge.task.0 as usize] == Some(e)
    }

    /// The edge currently matching `worker`, if any.
    #[inline]
    pub fn worker_match(&self, worker: WorkerIdx) -> Option<EdgeId> {
        self.worker_match[worker.0 as usize]
    }

    /// The edge currently matching `task`, if any.
    #[inline]
    pub fn task_match(&self, task: TaskIdx) -> Option<EdgeId> {
        self.task_match[task.0 as usize]
    }

    /// The matched edges that conflict with selecting `e` (read out of the
    /// graph as `edge`): the edge (if any) occupying its worker and the
    /// edge (if any) occupying its task. Selecting an already-selected
    /// edge conflicts with nothing.
    #[inline]
    pub(crate) fn conflicts_of(&self, e: EdgeId, edge: &Edge) -> (Option<EdgeId>, Option<EdgeId>) {
        let w = self.worker_match[edge.worker.0 as usize].filter(|&m| m != e);
        let t = self.task_match[edge.task.0 as usize].filter(|&m| m != e);
        (w, t)
    }

    /// Adds edge `e` (read out of the graph as `edge`) to the matching.
    ///
    /// # Panics
    /// Panics (via `debug_assert`) when either endpoint is occupied (by
    /// `e` itself, if it is already selected) — callers must clear
    /// conflicts first, which keeps this operation `O(1)`.
    #[inline]
    pub(crate) fn insert(&mut self, e: EdgeId, edge: &Edge) {
        debug_assert!(
            self.worker_match[edge.worker.0 as usize].is_none(),
            "worker endpoint occupied"
        );
        debug_assert!(
            self.task_match[edge.task.0 as usize].is_none(),
            "task endpoint occupied"
        );
        self.worker_match[edge.worker.0 as usize] = Some(e);
        self.task_match[edge.task.0 as usize] = Some(e);
        self.fitness += edge.weight;
        self.size += 1;
    }

    /// Removes edge `e` (read out of the graph as `edge`) from the
    /// matching.
    ///
    /// # Panics
    /// `debug_assert`s that `e` is currently selected.
    #[inline]
    pub(crate) fn remove(&mut self, e: EdgeId, edge: &Edge) {
        debug_assert!(
            self.worker_match[edge.worker.0 as usize] == Some(e)
                && self.task_match[edge.task.0 as usize] == Some(e),
            "edge not selected"
        );
        self.worker_match[edge.worker.0 as usize] = None;
        self.task_match[edge.task.0 as usize] = None;
        self.fitness -= edge.weight;
        self.size -= 1;
    }

    /// The selected edges, in edge-id order.
    pub fn selected_edges(&self) -> Vec<EdgeId> {
        let mut selected = Vec::with_capacity(self.size);
        self.selected_edges_into(&mut selected);
        selected
    }

    /// [`Self::selected_edges`] written into `out` (cleared first).
    pub(crate) fn selected_edges_into(&self, out: &mut Vec<EdgeId>) {
        out.clear();
        out.extend(self.task_match.iter().flatten());
        out.sort_unstable();
    }

    /// Exhaustive consistency check for tests: verifies the two
    /// per-vertex indices describe one set of edges (each matched vertex
    /// points at an edge of its own whose other endpoint points back),
    /// and that fitness and size agree with it. Returns the recomputed
    /// fitness.
    pub fn verify(&self, graph: &BipartiteGraph) -> f64 {
        for (u, matched) in self.worker_match.iter().enumerate() {
            if let Some(e) = *matched {
                let edge = graph.edge(e);
                assert_eq!(edge.worker.0 as usize, u, "worker {u} holds a foreign edge");
                assert_eq!(
                    self.task_match[edge.task.0 as usize],
                    Some(e),
                    "worker {u} is matched by an edge its task does not hold"
                );
            }
        }
        let mut fitness = 0.0;
        let mut size = 0;
        for (v, matched) in self.task_match.iter().enumerate() {
            if let Some(e) = *matched {
                let edge = graph.edge(e);
                assert_eq!(edge.task.0 as usize, v, "task {v} holds a foreign edge");
                assert_eq!(
                    self.worker_match[edge.worker.0 as usize],
                    Some(e),
                    "task {v} is matched by an edge its worker does not hold"
                );
                fitness += edge.weight;
                size += 1;
            }
        }
        assert_eq!(size, self.size, "size out of sync");
        assert!(
            (fitness - self.fitness).abs() < 1e-9 * (1.0 + fitness.abs()),
            "fitness out of sync: incremental {} vs recomputed {}",
            self.fitness,
            fitness
        );
        fitness
    }
}

#[cfg(test)]
impl MatchingState {
    /// Points `worker` at `e` without touching the task side, for tests
    /// of the checkers that must notice.
    pub(crate) fn desync_worker(&mut self, worker: WorkerIdx, e: Option<EdgeId>) {
        self.worker_match[worker.0 as usize] = e;
    }

    /// Points `task` at `e` without touching the worker side.
    pub(crate) fn desync_task(&mut self, task: TaskIdx, e: Option<EdgeId>) {
        self.task_match[task.0 as usize] = e;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> BipartiteGraph {
        // 2 workers × 2 tasks, all four edges.
        BipartiteGraph::full(2, 2, |u, v| match (u.0, v.0) {
            (0, 0) => 0.9,
            (0, 1) => 0.2,
            (1, 0) => 0.4,
            (1, 1) => 0.8,
            _ => unreachable!(),
        })
        .unwrap()
    }

    #[test]
    fn select_deselect_roundtrip() {
        let g = diamond();
        let mut s = MatchingState::new(&g);
        let e = g.find_edge(WorkerIdx(0), TaskIdx(0)).unwrap();
        s.insert(e, g.edge(e));
        assert!(s.holds(e, g.edge(e)));
        assert_eq!(s.size(), 1);
        assert!((s.fitness() - 0.9).abs() < 1e-12);
        assert_eq!(s.worker_match(WorkerIdx(0)), Some(e));
        assert_eq!(s.task_match(TaskIdx(0)), Some(e));
        s.verify(&g);
        s.remove(e, g.edge(e));
        assert!(!s.holds(e, g.edge(e)));
        assert_eq!(s.size(), 0);
        assert!(s.fitness().abs() < 1e-12);
        s.verify(&g);
    }

    #[test]
    fn conflicts_detected_on_both_sides() {
        let g = diamond();
        let mut s = MatchingState::new(&g);
        let e00 = g.find_edge(WorkerIdx(0), TaskIdx(0)).unwrap();
        let e01 = g.find_edge(WorkerIdx(0), TaskIdx(1)).unwrap();
        let e10 = g.find_edge(WorkerIdx(1), TaskIdx(0)).unwrap();
        let e11 = g.find_edge(WorkerIdx(1), TaskIdx(1)).unwrap();
        s.insert(e00, g.edge(e00));
        // e01 shares worker 0.
        assert_eq!(s.conflicts_of(e01, g.edge(e01)), (Some(e00), None));
        // e10 shares task 0.
        assert_eq!(s.conflicts_of(e10, g.edge(e10)), (None, Some(e00)));
        // e11 shares nothing.
        assert_eq!(s.conflicts_of(e11, g.edge(e11)), (None, None));
        // A selected edge does not conflict with itself.
        assert_eq!(s.conflicts_of(e00, g.edge(e00)), (None, None));
    }

    #[test]
    fn full_matching_fitness() {
        let g = diamond();
        let mut s = MatchingState::new(&g);
        let e = g.find_edge(WorkerIdx(0), TaskIdx(0)).unwrap();
        s.insert(e, g.edge(e));
        let e = g.find_edge(WorkerIdx(1), TaskIdx(1)).unwrap();
        s.insert(e, g.edge(e));
        assert_eq!(s.size(), 2);
        assert!((s.fitness() - 1.7).abs() < 1e-12);
        assert_eq!(s.selected_edges().len(), 2);
        s.verify(&g);
    }

    #[test]
    #[should_panic(expected = "worker endpoint occupied")]
    #[cfg(debug_assertions)]
    fn select_conflicting_edge_panics() {
        let g = diamond();
        let mut s = MatchingState::new(&g);
        let e = g.find_edge(WorkerIdx(0), TaskIdx(0)).unwrap();
        s.insert(e, g.edge(e));
        let e = g.find_edge(WorkerIdx(0), TaskIdx(1)).unwrap();
        s.insert(e, g.edge(e));
    }

    #[test]
    fn selected_edges_ascend_in_edge_id_whatever_the_insertion_order() {
        // Edge ids follow insertion, which here runs against both the
        // worker and the task order, so task order is not edge-id order.
        let mut g = BipartiteGraph::new(3, 3);
        let e0 = g.add_edge(WorkerIdx(2), TaskIdx(2), 0.3).unwrap();
        let e1 = g.add_edge(WorkerIdx(0), TaskIdx(1), 0.5).unwrap();
        let e2 = g.add_edge(WorkerIdx(1), TaskIdx(1), 0.9).unwrap();
        let e3 = g.add_edge(WorkerIdx(1), TaskIdx(0), 0.7).unwrap();
        let mut s = MatchingState::new(&g);
        for e in [e3, e1, e0] {
            s.insert(e, g.edge(e));
        }
        assert_eq!(s.selected_edges(), vec![e0, e1, e3]);
        assert!(!s.holds(e2, g.edge(e2)), "its task is matched by e1");
        s.verify(&g);
        s.remove(e1, g.edge(e1));
        s.remove(e3, g.edge(e3));
        s.insert(e2, g.edge(e2));
        assert_eq!(s.selected_edges(), vec![e0, e2]);
        s.verify(&g);
    }

    /// With no third vector to cross-check against, `verify` must catch
    /// the two indices disagreeing from either side.
    #[test]
    #[should_panic(expected = "worker 1 is matched by an edge its task does not hold")]
    fn verify_catches_a_worker_entry_without_its_task_twin() {
        let g = diamond();
        let mut s = MatchingState::new(&g);
        let e = g.find_edge(WorkerIdx(0), TaskIdx(0)).unwrap();
        s.insert(e, g.edge(e));
        s.desync_worker(WorkerIdx(1), g.find_edge(WorkerIdx(1), TaskIdx(1)));
        s.verify(&g);
    }

    #[test]
    #[should_panic(expected = "task 1 is matched by an edge its worker does not hold")]
    fn verify_catches_a_task_entry_without_its_worker_twin() {
        let g = diamond();
        let mut s = MatchingState::new(&g);
        let e = g.find_edge(WorkerIdx(0), TaskIdx(0)).unwrap();
        s.insert(e, g.edge(e));
        s.desync_task(TaskIdx(1), g.find_edge(WorkerIdx(1), TaskIdx(1)));
        s.verify(&g);
    }

    #[test]
    fn verify_recomputes_fitness() {
        let g = diamond();
        let mut s = MatchingState::new(&g);
        let e = g.find_edge(WorkerIdx(1), TaskIdx(0)).unwrap();
        s.insert(e, g.edge(e));
        let f = s.verify(&g);
        assert!((f - 0.4).abs() < 1e-12);
    }
}
