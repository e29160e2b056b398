//! Incremental matching state `x ∈ {0,1}^{|E|}` with O(1) fitness
//! maintenance.
//!
//! The REACT and Metropolis matchers flip one edge per cycle; recomputing
//! `g(x) = Σ x_ij·w_ij` from scratch would cost `O(E)` per cycle. The
//! state therefore keeps one slot per vertex — the edge currently
//! matching it and that edge's weight — and maintains the running fitness
//! incrementally, exactly as the paper's complexity analysis assumes
//! (*"the algorithm computes the new g(x′) that also costs O(1), by
//! adding or subtracting the edge's weight"*). `x` itself is not stored:
//! a matching has at most `min(|U|, |V|)` edges, so the two slot arrays'
//! edges *are* the selected set, and the state costs `O(|U| + |V|)`
//! whatever `|E|` is. The cached weight lets Algorithm 1 decide a
//! conflicting flip from the drawn edge's two slots; an incumbent is read
//! out of the edge arena only when the flip removes it.

use crate::graph::{BipartiteGraph, Edge, EdgeId, TaskIdx, WorkerIdx};

/// The edge id a free slot holds. An arena would need `u32::MAX` edges
/// (about 100 GB) before a real edge took it.
const NONE: u32 = u32::MAX;

/// One vertex's entry in a [`MatchingState`]: the edge matching it and
/// that edge's weight, bit for bit, or [`Slot::FREE`]. Packed to 12
/// bytes (4-byte alignment) rather than padded to 16, so a fresh walk
/// allocates under 16 bytes a vertex (`tests/hotpath_allocs.rs`); the
/// weight is read by value, never by reference.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, packed(4))]
pub(crate) struct Slot {
    /// The matched edge's weight; `−∞` when free, so that no valid
    /// weight compares below it.
    pub(crate) weight: f64,
    /// The matched edge's id; `u32::MAX` when free.
    pub(crate) edge: u32,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 12);

impl Slot {
    /// The slot of an unmatched vertex.
    pub(crate) const FREE: Slot = Slot {
        weight: f64::NEG_INFINITY,
        edge: NONE,
    };

    /// The matched edge, if any.
    #[inline]
    pub(crate) fn edge(self) -> Option<EdgeId> {
        (self.edge != NONE).then_some(EdgeId(self.edge))
    }
}

/// A (partial) matching over a [`BipartiteGraph`], kept consistent with
/// the 1-to-1 constraints at all times.
#[derive(Debug, Clone, Default)]
pub struct MatchingState {
    worker_slots: Vec<Slot>,
    task_slots: Vec<Slot>,
    fitness: f64,
    size: usize,
}

impl MatchingState {
    /// Empties the matching and sizes it for `graph` in `O(|U| + |V|)`,
    /// keeping the two slot arrays' storage.
    pub(crate) fn reset(&mut self, graph: &BipartiteGraph) {
        self.worker_slots.clear();
        self.worker_slots.resize(graph.n_workers(), Slot::FREE);
        self.task_slots.clear();
        self.task_slots.resize(graph.n_tasks(), Slot::FREE);
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
        self.task_slots[edge.task.0 as usize].edge == e.0
    }

    /// The slots of `edge`'s worker and task, in that order.
    #[inline]
    pub(crate) fn slots(&self, edge: &Edge) -> (Slot, Slot) {
        (
            self.worker_slots[edge.worker.0 as usize],
            self.task_slots[edge.task.0 as usize],
        )
    }

    /// `worker`'s slot.
    pub(crate) fn worker_slot(&self, worker: WorkerIdx) -> Slot {
        self.worker_slots[worker.0 as usize]
    }

    /// `task`'s slot.
    pub(crate) fn task_slot(&self, task: TaskIdx) -> Slot {
        self.task_slots[task.0 as usize]
    }

    /// The edge currently matching `worker`, if any.
    #[inline]
    pub fn worker_match(&self, worker: WorkerIdx) -> Option<EdgeId> {
        self.worker_slot(worker).edge()
    }

    /// The edge currently matching `task`, if any.
    #[inline]
    pub fn task_match(&self, task: TaskIdx) -> Option<EdgeId> {
        self.task_slot(task).edge()
    }

    /// Adds edge `e` (read out of the graph as `edge`) to the matching,
    /// writing its weight into both endpoints' slots.
    ///
    /// # Panics
    /// Panics (via `debug_assert`) when either endpoint is occupied (by
    /// `e` itself, if it is already selected) — callers must clear
    /// conflicts first, which keeps this operation `O(1)`.
    #[inline]
    pub(crate) fn insert(&mut self, e: EdgeId, edge: &Edge) {
        debug_assert!(
            self.worker_slots[edge.worker.0 as usize].edge == NONE,
            "worker endpoint occupied"
        );
        debug_assert!(
            self.task_slots[edge.task.0 as usize].edge == NONE,
            "task endpoint occupied"
        );
        debug_assert!(e.0 != NONE, "edge id {NONE} marks a free slot");
        let slot = Slot {
            weight: edge.weight,
            edge: e.0,
        };
        self.worker_slots[edge.worker.0 as usize] = slot;
        self.task_slots[edge.task.0 as usize] = slot;
        self.fitness += edge.weight;
        self.size += 1;
    }

    /// Removes edge `e` (read out of the graph as `edge`) from the
    /// matching, freeing both endpoints' slots.
    ///
    /// # Panics
    /// `debug_assert`s that `e` is currently selected.
    #[inline]
    pub(crate) fn remove(&mut self, e: EdgeId, edge: &Edge) {
        debug_assert!(
            self.worker_slots[edge.worker.0 as usize].edge == e.0
                && self.task_slots[edge.task.0 as usize].edge == e.0,
            "edge not selected"
        );
        self.worker_slots[edge.worker.0 as usize] = Slot::FREE;
        self.task_slots[edge.task.0 as usize] = Slot::FREE;
        self.fitness -= edge.weight;
        self.size -= 1;
    }

    /// The selected edges, in edge-id order.
    pub fn selected_edges(&self) -> Vec<EdgeId> {
        let mut selected = Vec::with_capacity(self.size);
        self.selected_edges_into(&mut selected);
        selected
    }

    /// [`Self::selected_edges`] written into `out` (cleared first). Each
    /// selected edge sits in both slot arrays, so the shorter one holds
    /// the whole set: a batch of a few workers over a long backlog is read
    /// back from its workers.
    pub(crate) fn selected_edges_into(&self, out: &mut Vec<EdgeId>) {
        out.clear();
        let side = if self.worker_slots.len() < self.task_slots.len() {
            &self.worker_slots
        } else {
            &self.task_slots
        };
        out.extend(side.iter().filter_map(|slot| slot.edge()));
        out.sort_unstable();
    }

    /// Exhaustive consistency check for tests: verifies the two slot
    /// arrays describe one set of edges (each matched vertex points at an
    /// edge of its own whose other endpoint points back, and caches its
    /// weight bit for bit; each free slot is `(−∞, NONE)`), and that
    /// fitness and size agree with it. Returns the recomputed fitness.
    pub fn verify(&self, graph: &BipartiteGraph) -> f64 {
        for (u, slot) in self.worker_slots.iter().enumerate() {
            match slot.edge() {
                Some(e) => {
                    let edge = graph.edge(e);
                    assert_eq!(edge.worker.0 as usize, u, "worker {u} holds a foreign edge");
                    assert_eq!(
                        self.task_slots[edge.task.0 as usize].edge, e.0,
                        "worker {u} is matched by an edge its task does not hold"
                    );
                    assert_eq!(
                        slot.weight.to_bits(),
                        edge.weight.to_bits(),
                        "worker {u} caches a stale weight"
                    );
                }
                None => assert_eq!(*slot, Slot::FREE, "worker {u} has a stale free slot"),
            }
        }
        let mut fitness = 0.0;
        let mut size = 0;
        for (v, slot) in self.task_slots.iter().enumerate() {
            match slot.edge() {
                Some(e) => {
                    let edge = graph.edge(e);
                    assert_eq!(edge.task.0 as usize, v, "task {v} holds a foreign edge");
                    assert_eq!(
                        self.worker_slots[edge.worker.0 as usize].edge, e.0,
                        "task {v} is matched by an edge its worker does not hold"
                    );
                    assert_eq!(
                        slot.weight.to_bits(),
                        edge.weight.to_bits(),
                        "task {v} caches a stale weight"
                    );
                    fitness += edge.weight;
                    size += 1;
                }
                None => assert_eq!(*slot, Slot::FREE, "task {v} has a stale free slot"),
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
    /// Overwrites `worker`'s slot without touching the task side, for
    /// tests of the checkers that must notice: `Some((e, weight))` points
    /// it at `e` with that cached weight, `None` frees it.
    pub(crate) fn desync_worker(&mut self, worker: WorkerIdx, slot: Option<(EdgeId, f64)>) {
        self.worker_slots[worker.0 as usize] = desynced(slot);
    }

    /// Overwrites `task`'s slot without touching the worker side.
    pub(crate) fn desync_task(&mut self, task: TaskIdx, slot: Option<(EdgeId, f64)>) {
        self.task_slots[task.0 as usize] = desynced(slot);
    }
}

#[cfg(test)]
fn desynced(slot: Option<(EdgeId, f64)>) -> Slot {
    slot.map_or(Slot::FREE, |(e, weight)| Slot { weight, edge: e.0 })
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
        let mut s = MatchingState::default();
        s.reset(&g);
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
        let mut s = MatchingState::default();
        s.reset(&g);
        let e00 = g.find_edge(WorkerIdx(0), TaskIdx(0)).unwrap();
        let e01 = g.find_edge(WorkerIdx(0), TaskIdx(1)).unwrap();
        let e10 = g.find_edge(WorkerIdx(1), TaskIdx(0)).unwrap();
        let e11 = g.find_edge(WorkerIdx(1), TaskIdx(1)).unwrap();
        s.insert(e00, g.edge(e00));
        let edges = |e: EdgeId| {
            let (w, t) = s.slots(g.edge(e));
            (w.edge(), t.edge())
        };
        // e01 shares worker 0.
        assert_eq!(edges(e01), (Some(e00), None));
        // e10 shares task 0.
        assert_eq!(edges(e10), (None, Some(e00)));
        // e11 shares nothing.
        assert_eq!(edges(e11), (None, None));
        // A selected edge's two slots hold it.
        assert_eq!(edges(e00), (Some(e00), Some(e00)));
        assert!(s.holds(e00, g.edge(e00)));
    }

    #[test]
    fn full_matching_fitness() {
        let g = diamond();
        let mut s = MatchingState::default();
        s.reset(&g);
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
        let mut s = MatchingState::default();
        s.reset(&g);
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
        let mut s = MatchingState::default();
        s.reset(&g);
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

    /// Read back from the worker side (fewer workers than tasks) or the
    /// task side (more), the set is the one both arrays describe.
    #[test]
    fn selected_edges_are_the_same_from_either_side() {
        for (n_workers, n_tasks) in [(2, 7), (7, 2)] {
            let g = BipartiteGraph::full(n_workers, n_tasks, |u, v| {
                0.1 + f64::from((u.0 * 5 + v.0 * 3) % 7)
            })
            .unwrap();
            let mut s = MatchingState::default();
            s.reset(&g);
            // Against both orders: worker 1 takes the last task, worker 0
            // the first.
            let last = TaskIdx(n_tasks as u32 - 1);
            for (u, v) in [(WorkerIdx(1), last), (WorkerIdx(0), TaskIdx(0))] {
                let e = g.find_edge(u, v).unwrap();
                s.insert(e, g.edge(e));
            }
            let mut by_task: Vec<EdgeId> = s.task_slots.iter().filter_map(|s| s.edge()).collect();
            let mut by_worker: Vec<EdgeId> =
                s.worker_slots.iter().filter_map(|s| s.edge()).collect();
            by_task.sort_unstable();
            by_worker.sort_unstable();
            assert_eq!(by_task, by_worker);
            assert_eq!(s.selected_edges(), by_task, "{n_workers} × {n_tasks}");
            s.verify(&g);
        }
    }

    /// With no third vector to cross-check against, `verify` must catch
    /// the two slot arrays disagreeing from either side.
    #[test]
    #[should_panic(expected = "worker 1 is matched by an edge its task does not hold")]
    fn verify_catches_a_worker_entry_without_its_task_twin() {
        let g = diamond();
        let mut s = MatchingState::default();
        s.reset(&g);
        let e = g.find_edge(WorkerIdx(0), TaskIdx(0)).unwrap();
        s.insert(e, g.edge(e));
        let stray = g.find_edge(WorkerIdx(1), TaskIdx(1)).unwrap();
        s.desync_worker(WorkerIdx(1), Some((stray, g.edge(stray).weight)));
        s.verify(&g);
    }

    #[test]
    #[should_panic(expected = "task 1 is matched by an edge its worker does not hold")]
    fn verify_catches_a_task_entry_without_its_worker_twin() {
        let g = diamond();
        let mut s = MatchingState::default();
        s.reset(&g);
        let e = g.find_edge(WorkerIdx(0), TaskIdx(0)).unwrap();
        s.insert(e, g.edge(e));
        let stray = g.find_edge(WorkerIdx(1), TaskIdx(1)).unwrap();
        s.desync_task(TaskIdx(1), Some((stray, g.edge(stray).weight)));
        s.verify(&g);
    }

    /// A slot whose edge is right but whose cached weight is not that
    /// edge's, bit for bit, is what would let Algorithm 1 decide a flip
    /// against a weight the matching does not hold: `verify` catches it
    /// on either side.
    #[test]
    #[should_panic(expected = "task 0 caches a stale weight")]
    fn verify_catches_a_stale_task_weight() {
        let g = diamond();
        let mut s = MatchingState::default();
        s.reset(&g);
        let e = g.find_edge(WorkerIdx(0), TaskIdx(0)).unwrap();
        s.insert(e, g.edge(e));
        s.desync_task(TaskIdx(0), Some((e, f64::from_bits(0.9f64.to_bits() + 1))));
        s.verify(&g);
    }

    #[test]
    #[should_panic(expected = "worker 1 has a stale free slot")]
    fn verify_catches_a_free_slot_with_a_weight() {
        let g = diamond();
        let mut s = MatchingState::default();
        s.reset(&g);
        s.desync_worker(WorkerIdx(1), Some((EdgeId(NONE), 0.0)));
        s.verify(&g);
    }

    #[test]
    fn slots_cache_the_matched_weight_and_free_to_minus_infinity() {
        let g = diamond();
        let mut s = MatchingState::default();
        s.reset(&g);
        let e = g.find_edge(WorkerIdx(1), TaskIdx(1)).unwrap();
        assert_eq!(s.slots(g.edge(e)), (Slot::FREE, Slot::FREE));
        s.insert(e, g.edge(e));
        let held = Slot {
            weight: 0.8,
            edge: e.0,
        };
        assert_eq!(s.slots(g.edge(e)), (held, held));
        s.remove(e, g.edge(e));
        assert_eq!(s.slots(g.edge(e)), (Slot::FREE, Slot::FREE));
    }

    #[test]
    fn verify_recomputes_fitness() {
        let g = diamond();
        let mut s = MatchingState::default();
        s.reset(&g);
        let e = g.find_edge(WorkerIdx(1), TaskIdx(0)).unwrap();
        s.insert(e, g.edge(e));
        let f = s.verify(&g);
        assert!((f - 0.4).abs() < 1e-12);
    }
}
