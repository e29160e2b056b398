//! The Task Management Component.
//!
//! Tracks every task in the platform: its immutable description, its
//! lifecycle state, the remaining time to its deadline and — when
//! assigned — which worker holds it and for how long. Provides the
//! scheduler's view of the unassigned pool and retires tasks whose
//! deadlines expired while waiting.
//!
//! The registry holds every task the server has seen and not yet pruned,
//! and is what the public accessors answer from. It is a slot table: the
//! records sit in a `Vec` in no particular order and an [`IdMap`] gives
//! each id its slot, so a lookup is one fixed-key hash and a removal is a
//! `swap_remove` plus re-pointing the one record it moved. The map is
//! only looked up, never iterated. A record that retires — completed or expired —
//! also joins a list of retirements in the order they happened, which is
//! what [`TaskManagementComponent::prune_retired`] walks, so a long run's
//! registry holds its open tasks and its recent retirements, and a prune
//! costs what was retired since the last one.
//!
//! The two sets a control step walks each carry what that walk reads, so
//! no per-tick loop reads the registry: the in-flight index (`InFlight`
//! entries in a `Vec` sorted by task id, read by the recall stage and the
//! timeout ladder) and the unassigned queue (`UnassignedQueue`, read by
//! the expiry sweep and the graph build). Both are copies
//! of registry facts that cannot change while the task stays where it
//! is; the `debug-invariants` feature re-derives them from the registry
//! on every read.

use crate::dynamic::Recall;
use crate::error::CoreError;
use crate::ids::{IdMap, TaskCategory, TaskId, WorkerId};
use crate::task::{Task, TaskState};
use react_geo::GeoPoint;
use std::collections::hash_map::Entry;
use std::ops::Range;

/// A tracked task: description + dynamic state.
#[derive(Debug, Clone)]
pub struct TaskRecord {
    /// The submitted task.
    pub task: Task,
    /// Submission timestamp (seconds).
    pub submitted_at: f64,
    /// Current lifecycle state.
    pub state: TaskState,
    /// How many times the task has been assigned (1 + reassignments).
    pub assignment_count: u32,
}

impl TaskRecord {
    /// Absolute deadline instant: `submitted_at + deadline`.
    pub fn deadline_at(&self) -> f64 {
        self.submitted_at + self.task.deadline
    }

    /// `remaining_time` until expiry at `now` (negative once past due).
    pub fn remaining_time(&self, now: f64) -> f64 {
        self.deadline_at() - now
    }

    /// `TimeToDeadline_ij` — the window from the current assignment's
    /// start to the deadline. `None` when unassigned.
    pub fn time_to_deadline(&self) -> Option<f64> {
        match self.state {
            TaskState::Assigned { assigned_at, .. } => Some(self.deadline_at() - assigned_at),
            _ => None,
        }
    }

    /// `t_ij` — seconds since the current assignment started. `None`
    /// when unassigned.
    pub fn elapsed_since_assignment(&self, now: f64) -> Option<f64> {
        match self.state {
            TaskState::Assigned { assigned_at, .. } => Some((now - assigned_at).max(0.0)),
            _ => None,
        }
    }
}

/// Index entry for one in-flight assignment: who holds the task, the
/// record facts the recall stage and the timeout ladder read, and what
/// the recall stage has worked out about when the assignment next needs a
/// real look. Both thresholds live in elapsed-time space — the float
/// chain the exact predicates themselves compare in — so skipping an
/// entry needs no instant conversion to argue about. A fresh entry
/// replaces the old one on every (re)assignment, which is what keeps the
/// copies and the memo valid.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InFlight {
    pub(crate) worker: WorkerId,
    /// Copy of the record's `assigned_at`.
    assigned_at: f64,
    /// [`TaskRecord::deadline_at`], by that very expression, so the times
    /// derived from it have the record's bits.
    deadline_at: f64,
    /// Copy of the record's `assignment_count`.
    assignment_count: u32,
    /// Elapsed time strictly below which the Eq. (2) check is known to
    /// keep (or skip) the assignment. NaN — which fails every compare —
    /// until the assignment's first check derives it.
    pub(crate) recall_keep_before: f64,
    /// The timeout ladder's allowance for this attempt; NaN until the
    /// ladder first sees the assignment.
    timeout_allowance: f64,
}

impl InFlight {
    /// The entry for `rec`, just assigned to `worker` at `assigned_at`.
    fn new(rec: &TaskRecord, worker: WorkerId, assigned_at: f64) -> Self {
        InFlight {
            worker,
            assigned_at,
            deadline_at: rec.deadline_at(),
            assignment_count: rec.assignment_count,
            recall_keep_before: f64::NAN,
            timeout_allowance: f64::NAN,
        }
    }

    /// `t_ij`, exactly as [`TaskRecord::elapsed_since_assignment`]
    /// computes it.
    #[inline]
    pub(crate) fn held_for(&self, now: f64) -> f64 {
        (now - self.assigned_at).max(0.0)
    }

    /// `TimeToDeadline_ij`, exactly as [`TaskRecord::time_to_deadline`]
    /// computes it.
    #[inline]
    pub(crate) fn time_to_deadline(&self) -> f64 {
        self.deadline_at - self.assigned_at
    }

    /// Exactly [`TaskRecord::remaining_time`].
    #[inline]
    pub(crate) fn remaining_time(&self, now: f64) -> f64 {
        self.deadline_at - now
    }
}

/// What completing a task tells the rest of the server.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Finished {
    /// Did the result arrive before the task's deadline?
    pub(crate) met_deadline: bool,
    /// `ExecTime_ij`: the assignment's elapsed time at the completion.
    pub(crate) exec_time: f64,
    pub(crate) category: TaskCategory,
    /// The instant the task was submitted here.
    pub(crate) submitted_at: f64,
}

/// The unassigned queue: one row per waiting task, in submission/recall
/// order (the deterministic scheduling input), held as aligned columns of
/// the facts every control step reads of a queued task. Each is a copy of
/// the registry's value — immutable while the task is tracked — so a row
/// is written once, when the task joins the queue, and only ever removed.
#[derive(Debug, Clone, Default)]
pub(crate) struct UnassignedQueue {
    pub(crate) ids: Vec<TaskId>,
    /// [`TaskRecord::deadline_at`], by that very expression, so a time to
    /// deadline derived from the column has the registry's bits.
    pub(crate) deadline_at: Vec<f64>,
    pub(crate) category: Vec<TaskCategory>,
    pub(crate) location: Vec<GeoPoint>,
}

impl UnassignedQueue {
    /// Appends `rec` as the youngest row.
    fn push(&mut self, rec: &TaskRecord) {
        self.ids.push(rec.task.id);
        self.deadline_at.push(rec.deadline_at());
        self.category.push(rec.task.category);
        self.location.push(rec.task.location);
    }

    /// Moves the rows `from` down so they start at row `to`
    /// (`to <= from.start`), in every column.
    fn move_rows(&mut self, from: Range<usize>, to: usize) {
        self.ids.copy_within(from.clone(), to);
        self.deadline_at.copy_within(from.clone(), to);
        self.category.copy_within(from.clone(), to);
        self.location.copy_within(from, to);
    }

    /// Keeps the first `len` rows of every column.
    fn truncate(&mut self, len: usize) {
        self.ids.truncate(len);
        self.deadline_at.truncate(len);
        self.category.truncate(len);
        self.location.truncate(len);
    }

    /// Removes the rows at `rows` (strictly ascending) from every column,
    /// keeping the survivors in order: one move per surviving run, so a
    /// single row costs what `Vec::remove` does.
    fn remove_rows(&mut self, rows: &[usize]) {
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]));
        let Some(&first) = rows.first() else {
            return;
        };
        let mut kept = first;
        for (k, &row) in rows.iter().enumerate() {
            let run_end = rows.get(k + 1).copied().unwrap_or(self.ids.len());
            self.move_rows(row + 1..run_end, kept);
            kept += run_end - (row + 1);
        }
        self.truncate(kept);
    }

    /// Removes every row whose deadline has passed at `now` —
    /// `TaskRecord::remaining_time(now) <= 0.0`, off the column — keeping
    /// the survivors in order, and appends the removed ids to `out` in
    /// queue order. The compaction of [`Self::remove_rows`], with each
    /// next overdue row found by scanning the column instead of read from
    /// a list.
    fn drain_overdue(&mut self, now: f64, out: &mut Vec<TaskId>) {
        let overdue = |deadline_at: &f64| deadline_at - now <= 0.0;
        let Some(mut row) = self.deadline_at.iter().position(overdue) else {
            return;
        };
        let mut kept = row;
        while row < self.ids.len() {
            out.push(self.ids[row]);
            let survivors = row + 1;
            let run_end = self.deadline_at[survivors..]
                .iter()
                .position(overdue)
                .map_or(self.ids.len(), |k| survivors + k);
            self.move_rows(survivors..run_end, kept);
            kept += run_end - survivors;
            row = run_end;
        }
        self.truncate(kept);
    }

    /// Every column in a form that compares floats by bits.
    #[cfg(any(test, feature = "debug-invariants"))]
    fn bits(&self) -> impl PartialEq + std::fmt::Debug + '_ {
        let bits = |column: &[f64]| column.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let location = self.location.iter();
        (
            &self.ids,
            bits(&self.deadline_at),
            &self.category,
            location
                .map(|at| (at.lat().to_bits(), at.lon().to_bits()))
                .collect::<Vec<_>>(),
        )
    }
}

/// Registry and lifecycle manager for tasks.
#[derive(Debug, Clone, Default)]
pub struct TaskManagementComponent {
    /// Every tracked task, in no particular order.
    records: Vec<TaskRecord>,
    /// The slot in `records` of each tracked task.
    slots: IdMap<TaskId, usize>,
    unassigned: UnassignedQueue,
    /// One entry per record in [`TaskState::Assigned`], in ascending
    /// task-id order — the order the recall stage and the timeout ladder
    /// walk and recall in. Bounded by the busy workers, so a binary-search
    /// insert or remove moves few entries.
    in_flight: Vec<(TaskId, InFlight)>,
    /// The id of every record in a retired state, in retirement order,
    /// for [`Self::prune_retired`]. An id may be listed twice, or after
    /// its record reopened or left; the prune drops such entries.
    retired: Vec<TaskId>,
}

impl TaskManagementComponent {
    /// Creates an empty component.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accepts a new task at time `now`.
    pub fn submit(&mut self, task: Task, now: f64) -> Result<(), CoreError> {
        let Entry::Vacant(slot) = self.slots.entry(task.id) else {
            return Err(CoreError::DuplicateTask(task.id));
        };
        slot.insert(self.records.len());
        let rec = TaskRecord {
            task,
            submitted_at: now,
            state: TaskState::Unassigned,
            assignment_count: 0,
        };
        self.unassigned.push(&rec);
        self.records.push(rec);
        Ok(())
    }

    /// The slot of `id`'s record.
    fn slot(&self, id: TaskId) -> Result<usize, CoreError> {
        self.slots
            .get(&id)
            .copied()
            .ok_or(CoreError::UnknownTask(id))
    }

    /// The record for `id`.
    pub fn record(&self, id: TaskId) -> Result<&TaskRecord, CoreError> {
        Ok(&self.records[self.slot(id)?])
    }

    /// Removes `id`'s record from the registry: the last record moves into
    /// its slot.
    fn remove(&mut self, id: TaskId) -> Option<TaskRecord> {
        let slot = self.slots.remove(&id)?;
        let rec = self.records.swap_remove(slot);
        if let Some(moved) = self.records.get(slot) {
            self.slots.insert(moved.task.id, slot);
        }
        Some(rec)
    }

    /// Number of tracked tasks (all states).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The unassigned pool, oldest first.
    pub fn unassigned(&self) -> &[TaskId] {
        &self.unassigned.ids
    }

    /// The unassigned pool with its columns, oldest first — what the graph
    /// build reads instead of one registry lookup per queued task.
    pub(crate) fn queue(&self) -> &UnassignedQueue {
        self.debug_validate_assigned_index();
        &self.unassigned
    }

    /// Number of unassigned tasks (the scheduler's batch trigger input).
    pub fn unassigned_count(&self) -> usize {
        self.unassigned.ids.len()
    }

    /// Number of *open* tasks — unassigned plus in-flight. Sec. III-C
    /// maintains the region graph over this whole set (*"the task set
    /// changes only when new tasks arrive or executing tasks finish"*),
    /// which is what the scheduler's compute cost scales with.
    pub fn open_count(&self) -> usize {
        self.debug_validate_assigned_index();
        self.unassigned.ids.len() + self.in_flight.len()
    }

    /// All currently assigned task ids with their workers, in ascending
    /// task-id order. Iterates the maintained index — no allocation.
    pub fn assigned(&self) -> impl Iterator<Item = (TaskId, WorkerId)> + '_ {
        self.debug_validate_assigned_index();
        self.in_flight.iter().map(|(t, e)| (*t, e.worker))
    }

    /// The in-flight entries, ascending task id: the recall stage updates
    /// an entry's memo while reading the facts the entry carries.
    pub(crate) fn in_flight_mut(&mut self) -> &mut [(TaskId, InFlight)] {
        self.debug_validate_assigned_index();
        &mut self.in_flight
    }

    /// Where `id` sits, or would sit, in the in-flight index.
    fn in_flight_position(&self, id: TaskId) -> Result<usize, usize> {
        self.in_flight.binary_search_by_key(&id, |&(t, _)| t)
    }

    /// In-flight assignments that have gone longer without completing
    /// than their progress allowance, appended to `out` in ascending
    /// task-id order as recalls of probability 0 (the caller performs
    /// them). `allowance_for(assignment_count)` is fixed for the life of
    /// an assignment, so it is consulted once and kept in the entry; every
    /// later tick pays one compare per assignment.
    pub(crate) fn progress_overdue(
        &mut self,
        now: f64,
        allowance_for: impl Fn(u32) -> f64,
        out: &mut Vec<Recall>,
    ) {
        self.debug_validate_assigned_index();
        for (task, entry) in &mut self.in_flight {
            if entry.timeout_allowance.is_nan() {
                entry.timeout_allowance = allowance_for(entry.assignment_count);
            }
            #[cfg(feature = "debug-invariants")]
            assert_eq!(
                allowance_for(entry.assignment_count).to_bits(),
                entry.timeout_allowance.to_bits(),
                "stored progress allowance of {task} went stale"
            );
            if entry.held_for(now) <= entry.timeout_allowance {
                continue;
            }
            out.push(Recall {
                task: *task,
                worker: entry.worker,
                probability: 0.0,
            });
        }
    }

    /// Number of in-flight (assigned) tasks.
    pub fn assigned_count(&self) -> usize {
        self.in_flight.len()
    }

    /// Under `debug-invariants`, re-derives the in-flight index and the
    /// unassigned queue's columns from the task registry and asserts the
    /// incremental bookkeeping matches, and that the slot index and the
    /// table agree one-to-one.
    #[inline]
    fn debug_validate_assigned_index(&self) {
        #[cfg(feature = "debug-invariants")]
        {
            assert_eq!(self.slots.len(), self.records.len(), "slot index size");
            for (slot, rec) in self.records.iter().enumerate() {
                let id = rec.task.id;
                assert_eq!(self.slots.get(&id), Some(&slot), "slot of {id} is stale");
            }
            type Facts = (TaskId, WorkerId, u64, u64, u32);
            let mut derived: Vec<Facts> = self
                .records
                .iter()
                .filter_map(|r| match r.state {
                    TaskState::Assigned {
                        worker,
                        assigned_at,
                    } => Some((
                        r.task.id,
                        worker,
                        assigned_at.to_bits(),
                        r.deadline_at().to_bits(),
                        r.assignment_count,
                    )),
                    _ => None,
                })
                .collect();
            derived.sort_unstable_by_key(|facts| facts.0);
            let indexed: Vec<Facts> = self
                .in_flight
                .iter()
                .map(|(t, e)| {
                    let (at, due) = (e.assigned_at.to_bits(), e.deadline_at.to_bits());
                    (*t, e.worker, at, due, e.assignment_count)
                })
                .collect();
            assert_eq!(
                derived, indexed,
                "in-flight index diverged from the registry"
            );
            let mut listed = self.retired.clone();
            listed.sort_unstable();
            for rec in self.records.iter().filter(|r| !r.state.is_open()) {
                let id = rec.task.id;
                assert!(
                    listed.binary_search(&id).is_ok(),
                    "retired {id} is not listed"
                );
            }
            let open = self.records.iter().filter(|r| r.state.is_open()).count();
            assert_eq!(
                open,
                self.unassigned.ids.len() + self.in_flight.len(),
                "open tasks must be exactly unassigned + assigned"
            );
            self.assert_queue_matches_registry();
        }
    }

    /// Re-derives the unassigned queue from the registry: the queued ids
    /// are exactly the records in [`TaskState::Unassigned`], once each,
    /// and every column repeats its record bit for bit.
    #[cfg(any(test, feature = "debug-invariants"))]
    fn assert_queue_matches_registry(&self) {
        let queue = &self.unassigned;
        // A queued id without an unassigned record derives no row, so it
        // shows as a divergence too.
        let mut derived = UnassignedQueue::default();
        let records = queue.ids.iter().filter_map(|&id| self.record(id).ok());
        for rec in records.filter(|rec| rec.state == TaskState::Unassigned) {
            derived.push(rec);
        }
        assert_eq!(
            queue.bits(),
            derived.bits(),
            "queue columns diverged from the registry"
        );
        let mut distinct = queue.ids.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), queue.ids.len(), "a task is queued twice");
        let waiting = self
            .records
            .iter()
            .filter(|r| r.state == TaskState::Unassigned);
        assert_eq!(
            waiting.count(),
            queue.ids.len(),
            "an unassigned task is not queued"
        );
    }

    /// Marks `id` assigned to `worker` at `now`. A retired task
    /// (completed or expired) is refused as [`CoreError::UnknownTask`],
    /// the answer it gets once its record is pruned.
    pub fn mark_assigned(
        &mut self,
        id: TaskId,
        worker: WorkerId,
        now: f64,
    ) -> Result<(), CoreError> {
        let slot = self.slot(id)?;
        let rec = &mut self.records[slot];
        if !rec.state.is_open() {
            return Err(CoreError::UnknownTask(id));
        }
        rec.state = TaskState::Assigned {
            worker,
            assigned_at: now,
        };
        rec.assignment_count += 1;
        let entry = InFlight::new(rec, worker, now);
        if let Some(row) = self.unassigned.ids.iter().position(|&t| t == id) {
            self.unassigned.remove_rows(&[row]);
        }
        match self.in_flight_position(id) {
            Ok(i) => self.in_flight[i].1 = entry,
            Err(i) => self.in_flight.insert(i, (id, entry)),
        }
        Ok(())
    }

    /// Drops `id`'s in-flight entry, if it has one.
    fn remove_in_flight(&mut self, id: TaskId) {
        if let Ok(i) = self.in_flight_position(id) {
            self.in_flight.remove(i);
        }
    }

    /// Recalls an assigned task back into the unassigned pool (dynamic
    /// reassignment). Returns the worker it was recalled from.
    pub fn mark_unassigned(&mut self, id: TaskId) -> Result<WorkerId, CoreError> {
        let slot = self.slot(id)?;
        let rec = &mut self.records[slot];
        match rec.state {
            TaskState::Assigned { worker, .. } => {
                rec.state = TaskState::Unassigned;
                self.unassigned.push(rec);
                self.remove_in_flight(id);
                Ok(worker)
            }
            _ => Err(CoreError::NotAssigned {
                task: id,
                worker: WorkerId(u64::MAX),
            }),
        }
    }

    /// Completes `id` at `now` by `worker`. Returns whether the deadline
    /// was met.
    pub fn complete(&mut self, id: TaskId, worker: WorkerId, now: f64) -> Result<bool, CoreError> {
        self.finish(id, worker, now).map(|done| done.met_deadline)
    }

    /// [`Self::complete`], returning what the profiler needs of the
    /// completion too: one registry lookup in all.
    pub(crate) fn finish(
        &mut self,
        id: TaskId,
        worker: WorkerId,
        now: f64,
    ) -> Result<Finished, CoreError> {
        let slot = self.slot(id)?;
        let rec = &mut self.records[slot];
        let (
            TaskState::Assigned {
                worker: held_by, ..
            },
            Some(exec_time),
        ) = (rec.state, rec.elapsed_since_assignment(now))
        else {
            return Err(CoreError::NotAssigned { task: id, worker });
        };
        if held_by != worker {
            return Err(CoreError::NotAssigned { task: id, worker });
        }
        let met_deadline = now <= rec.deadline_at();
        rec.state = TaskState::Completed {
            worker,
            completed_at: now,
            met_deadline,
        };
        let (category, submitted_at) = (rec.task.category, rec.submitted_at);
        self.remove_in_flight(id);
        self.retired.push(id);
        Ok(Finished {
            met_deadline,
            exec_time,
            category,
            submitted_at,
        })
    }

    /// Expires every *unassigned* task whose deadline has passed at
    /// `now` and appends their ids to `out`, in queue order. (The paper's
    /// model: an expired task leaves the repository; a task already
    /// executing may still finish late — the soft-deadline semantics.)
    pub fn expire_overdue_unassigned(&mut self, now: f64, out: &mut Vec<TaskId>) {
        let first = out.len();
        self.unassigned.drain_overdue(now, out);
        self.retire(&out[first..]);
    }

    /// Marks the tasks `ids` [`TaskState::Expired`] in the registry.
    fn retire(&mut self, ids: &[TaskId]) {
        for &id in ids {
            if let Ok(slot) = self.slot(id) {
                self.records[slot].state = TaskState::Expired;
                self.retired.push(id);
            }
        }
    }

    /// Removes the oldest unassigned task from the registry entirely and
    /// returns its record — the eviction half of a cross-shard handoff —
    /// or `None` on an empty queue. The task is not retired: ownership
    /// transfers to the caller, who re-submits it on another server.
    /// Assigned tasks are never taken.
    pub fn take_oldest_unassigned(&mut self) -> Option<TaskRecord> {
        let &id = self.unassigned.ids.first()?;
        self.unassigned.remove_rows(&[0]);
        self.remove(id)
    }

    /// Removes the records that retired at or before `now` — a completed
    /// one by its completion instant, an expired one by its deadline — and
    /// returns how many were pruned. Walks the retirement list, not the
    /// registry, so it costs the retirements still listed: with `now` no
    /// earlier than the last retirement, those since the last prune. A
    /// pruned id is unknown from then on: completing it is an error still,
    /// and submitting it again starts a new task.
    pub fn prune_retired(&mut self, now: f64) -> usize {
        let before = self.records.len();
        let mut retired = std::mem::take(&mut self.retired);
        retired.retain(|&id| {
            let Ok(slot) = self.slot(id) else {
                return false;
            };
            let rec = &self.records[slot];
            let keep = match rec.state {
                TaskState::Completed { completed_at, .. } => completed_at > now,
                TaskState::Expired => rec.deadline_at() > now,
                // Reopened: listed again when it next retires.
                _ => return false,
            };
            if !keep {
                self.remove(id);
            }
            keep
        });
        self.retired = retired;
        before - self.records.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(id: u64, deadline: f64) -> Task {
        Task::new(
            TaskId(id),
            GeoPoint::new(37.98, 23.72),
            deadline,
            0.05,
            TaskCategory(0),
            "t",
        )
    }

    /// What one expiry sweep at `now` retires.
    fn expire(tm: &mut TaskManagementComponent, now: f64) -> Vec<TaskId> {
        let mut out = Vec::new();
        tm.expire_overdue_unassigned(now, &mut out);
        out
    }

    /// Up to `max` evictions, oldest first.
    fn take(tm: &mut TaskManagementComponent, max: usize) -> Vec<TaskRecord> {
        std::iter::from_fn(|| tm.take_oldest_unassigned())
            .take(max)
            .collect()
    }

    #[test]
    fn submit_and_duplicate() {
        let mut tm = TaskManagementComponent::new();
        tm.submit(task(1, 60.0), 0.0).unwrap();
        assert_eq!(tm.len(), 1);
        assert_eq!(tm.unassigned(), &[TaskId(1)]);
        assert_eq!(
            tm.submit(task(1, 60.0), 1.0),
            Err(CoreError::DuplicateTask(TaskId(1)))
        );
        assert!(tm.record(TaskId(9)).is_err());
    }

    #[test]
    fn assignment_lifecycle() {
        let mut tm = TaskManagementComponent::new();
        tm.submit(task(1, 60.0), 10.0).unwrap();
        tm.mark_assigned(TaskId(1), WorkerId(4), 15.0).unwrap();
        assert_eq!(tm.unassigned_count(), 0);
        let rec = tm.record(TaskId(1)).unwrap();
        assert_eq!(rec.assignment_count, 1);
        assert_eq!(rec.state.assigned_worker(), Some(WorkerId(4)));
        // TTD = (10+60) − 15 = 55.
        assert_eq!(rec.time_to_deadline(), Some(55.0));
        assert_eq!(rec.elapsed_since_assignment(20.0), Some(5.0));
        assert_eq!(
            tm.assigned().collect::<Vec<_>>(),
            vec![(TaskId(1), WorkerId(4))]
        );
        assert_eq!(tm.assigned_count(), 1);
        // Complete before the deadline.
        let met = tm.complete(TaskId(1), WorkerId(4), 30.0).unwrap();
        assert!(met);
        assert!(matches!(
            tm.record(TaskId(1)).unwrap().state,
            TaskState::Completed {
                met_deadline: true,
                ..
            }
        ));
    }

    #[test]
    fn late_completion_is_recorded_as_missed() {
        let mut tm = TaskManagementComponent::new();
        tm.submit(task(1, 10.0), 0.0).unwrap();
        tm.mark_assigned(TaskId(1), WorkerId(1), 1.0).unwrap();
        let met = tm.complete(TaskId(1), WorkerId(1), 99.0).unwrap();
        assert!(!met);
    }

    #[test]
    fn complete_requires_matching_worker() {
        let mut tm = TaskManagementComponent::new();
        tm.submit(task(1, 60.0), 0.0).unwrap();
        tm.mark_assigned(TaskId(1), WorkerId(4), 0.0).unwrap();
        assert!(matches!(
            tm.complete(TaskId(1), WorkerId(5), 1.0),
            Err(CoreError::NotAssigned { .. })
        ));
    }

    #[test]
    fn recall_requeues_at_back() {
        let mut tm = TaskManagementComponent::new();
        tm.submit(task(1, 60.0), 0.0).unwrap();
        tm.submit(task(2, 60.0), 0.0).unwrap();
        tm.mark_assigned(TaskId(1), WorkerId(4), 0.0).unwrap();
        let from = tm.mark_unassigned(TaskId(1)).unwrap();
        assert_eq!(from, WorkerId(4));
        // Task 1 rejoins behind task 2.
        assert_eq!(tm.unassigned(), &[TaskId(2), TaskId(1)]);
        // Recalling an unassigned task is an error.
        assert!(tm.mark_unassigned(TaskId(2)).is_err());
        // Reassignment bumps the count.
        tm.mark_assigned(TaskId(1), WorkerId(5), 5.0).unwrap();
        assert_eq!(tm.record(TaskId(1)).unwrap().assignment_count, 2);
    }

    #[test]
    fn expiry_of_unassigned() {
        let mut tm = TaskManagementComponent::new();
        tm.submit(task(1, 10.0), 0.0).unwrap();
        tm.submit(task(2, 100.0), 0.0).unwrap();
        tm.mark_assigned(TaskId(2), WorkerId(1), 0.0).unwrap();
        tm.submit(task(3, 5.0), 0.0).unwrap();
        let expired = expire(&mut tm, 20.0);
        assert_eq!(expired, vec![TaskId(1), TaskId(3)]);
        assert!(matches!(
            tm.record(TaskId(1)).unwrap().state,
            TaskState::Expired
        ));
        // Assigned task 2 untouched (soft deadline).
        assert!(tm.record(TaskId(2)).unwrap().state.is_open());
        assert_eq!(tm.unassigned_count(), 0);
    }

    #[test]
    fn remaining_time_goes_negative() {
        let mut tm = TaskManagementComponent::new();
        tm.submit(task(1, 10.0), 5.0).unwrap();
        let rec = tm.record(TaskId(1)).unwrap();
        assert_eq!(rec.deadline_at(), 15.0);
        assert_eq!(rec.remaining_time(12.0), 3.0);
        assert_eq!(rec.remaining_time(20.0), -5.0);
        assert_eq!(rec.time_to_deadline(), None);
        assert_eq!(rec.elapsed_since_assignment(20.0), None);
    }

    /// A task whose every queue column depends on `id`, so a row that
    /// ends up beside the wrong id shows.
    fn varied(id: u64, deadline: f64) -> Task {
        Task::new(
            TaskId(id),
            GeoPoint::new(37.0 + id as f64 / 100.0, 23.0 - id as f64 / 100.0),
            deadline,
            0.05,
            TaskCategory(id as u32 % 3),
            "t",
        )
    }

    #[test]
    fn expiry_returns_queue_order_and_keeps_survivors_in_order() {
        let mut tm = TaskManagementComponent::new();
        // Overdue at t = 20: the first row, two adjacent rows mid-queue
        // and the last row.
        let queued = [
            (5, 10.0),
            (2, 100.0),
            (9, 5.0),
            (7, 8.0),
            (1, 50.0),
            (6, 90.0),
        ];
        for (id, deadline) in queued {
            tm.submit(varied(id, deadline), 0.0).unwrap();
        }
        // A recalled task rejoins at the back with its original deadline.
        tm.submit(varied(3, 15.0), 1.0).unwrap();
        tm.mark_assigned(TaskId(3), WorkerId(1), 2.0).unwrap();
        tm.mark_unassigned(TaskId(3)).unwrap();
        tm.assert_queue_matches_registry();
        let ids = |v: &[u64]| v.iter().map(|&i| TaskId(i)).collect::<Vec<_>>();
        assert!(expire(&mut tm, 4.0).is_empty());
        assert_eq!(expire(&mut tm, 20.0), ids(&[5, 9, 7, 3]));
        assert_eq!(tm.unassigned(), &ids(&[2, 1, 6])[..]);
        tm.assert_queue_matches_registry();
        assert_eq!(expire(&mut tm, 95.0), ids(&[1, 6]));
        assert_eq!(tm.unassigned(), &ids(&[2])[..]);
        tm.assert_queue_matches_registry();
    }

    #[test]
    fn expiry_boundary_is_exactly_zero_remaining() {
        let one_ulp_later = |x: f64| f64::from_bits(x.to_bits() + 1);
        let deadline = 12.3;
        let mut tm = TaskManagementComponent::new();
        tm.submit(task(1, deadline), 0.0).unwrap();
        tm.submit(task(2, one_ulp_later(deadline)), 0.0).unwrap();
        // Remaining time exactly 0.0 expires; the smallest positive
        // remainder does not.
        assert_eq!(tm.record(TaskId(1)).unwrap().remaining_time(deadline), 0.0);
        assert!(tm.record(TaskId(2)).unwrap().remaining_time(deadline) > 0.0);
        assert_eq!(expire(&mut tm, deadline), vec![TaskId(1)]);
        assert_eq!(tm.unassigned(), &[TaskId(2)]);
        assert_eq!(expire(&mut tm, one_ulp_later(deadline)), vec![TaskId(2)]);
        // A deadline that is not a number never compares overdue.
        tm.submit(task(3, 10.0), f64::NAN).unwrap();
        assert!(expire(&mut tm, f64::MAX).is_empty());
        tm.assert_queue_matches_registry();
    }

    #[test]
    fn mid_queue_assignment_removes_one_row_from_every_column() {
        let mut tm = TaskManagementComponent::new();
        for id in 1..=5 {
            tm.submit(varied(id, 60.0 + id as f64), id as f64).unwrap();
        }
        tm.mark_assigned(TaskId(3), WorkerId(4), 6.0).unwrap();
        assert_eq!(
            tm.unassigned(),
            &[TaskId(1), TaskId(2), TaskId(4), TaskId(5)]
        );
        tm.assert_queue_matches_registry();
        // Assigning a task that is not queued leaves the queue alone.
        tm.mark_assigned(TaskId(3), WorkerId(5), 7.0).unwrap();
        assert_eq!(tm.unassigned_count(), 4);
        // The requeued row carries the submission's deadline, not the
        // recall's.
        tm.mark_unassigned(TaskId(3)).unwrap();
        assert_eq!(tm.queue().deadline_at.last(), Some(&(3.0 + 63.0)));
        tm.assert_queue_matches_registry();
        // A handoff takes whole rows off the front.
        let taken = take(&mut tm, 2);
        assert_eq!(taken[1].task.id, TaskId(2));
        assert_eq!(tm.unassigned(), &[TaskId(4), TaskId(5), TaskId(3)]);
        tm.assert_queue_matches_registry();
        assert_eq!(take(&mut tm, usize::MAX).len(), 3);
        tm.assert_queue_matches_registry();
    }

    #[test]
    fn take_oldest_unassigned_transfers_oldest_first() {
        let mut tm = TaskManagementComponent::new();
        tm.submit(task(1, 60.0), 0.0).unwrap();
        tm.submit(task(2, 60.0), 1.0).unwrap();
        tm.submit(task(3, 60.0), 2.0).unwrap();
        tm.mark_assigned(TaskId(1), WorkerId(4), 3.0).unwrap();
        // Only unassigned tasks move, oldest (2) before (3).
        let taken = take(&mut tm, 10);
        assert_eq!(taken.len(), 2);
        assert_eq!(taken[0].task.id, TaskId(2));
        assert_eq!(taken[0].submitted_at, 1.0);
        assert_eq!(taken[1].task.id, TaskId(3));
        // Taken records are gone from the registry; the assigned task
        // stays untouched.
        assert!(tm.record(TaskId(2)).is_err());
        assert_eq!(tm.len(), 1);
        assert_eq!(tm.unassigned_count(), 0);
        assert_eq!(tm.assigned_count(), 1);
        // `max` caps the transfer.
        tm.submit(task(5, 60.0), 4.0).unwrap();
        tm.submit(task(6, 60.0), 5.0).unwrap();
        let taken = take(&mut tm, 1);
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].task.id, TaskId(5));
        assert_eq!(tm.unassigned(), &[TaskId(6)]);
    }

    #[test]
    fn prune_retired_keeps_later_retirements_and_open() {
        let mut tm = TaskManagementComponent::new();
        tm.submit(task(1, 10.0), 0.0).unwrap();
        tm.submit(task(2, 10.0), 0.0).unwrap();
        tm.submit(task(3, 1000.0), 0.0).unwrap();
        tm.mark_assigned(TaskId(1), WorkerId(1), 0.0).unwrap();
        tm.complete(TaskId(1), WorkerId(1), 5.0).unwrap();
        expire(&mut tm, 50.0); // task 2 expires (task 3 still live)
        assert_eq!(tm.prune_retired(5.0), 1, "task 1, completed at 5 s");
        // Task 2 retired by its deadline, 10 s: still kept at 5 s.
        assert!(tm.record(TaskId(2)).is_ok());
        assert_eq!(tm.prune_retired(10.0), 1, "expired task 2");
        assert_eq!(tm.len(), 1);
        assert!(tm.record(TaskId(3)).is_ok());
    }

    #[test]
    fn a_retired_task_is_not_reassigned_before_or_after_its_prune() {
        let mut tm = TaskManagementComponent::new();
        tm.submit(task(1, 10.0), 0.0).unwrap();
        tm.submit(task(2, 10.0), 0.0).unwrap();
        tm.mark_assigned(TaskId(1), WorkerId(1), 0.0).unwrap();
        tm.complete(TaskId(1), WorkerId(1), 5.0).unwrap();
        expire(&mut tm, 50.0); // task 2 expires
        for pruned in [false, true] {
            if pruned {
                assert_eq!(tm.prune_retired(50.0), 2);
            }
            for id in [TaskId(1), TaskId(2)] {
                assert_eq!(
                    tm.mark_assigned(id, WorkerId(3), 60.0),
                    Err(CoreError::UnknownTask(id)),
                    "{id}, pruned: {pruned}"
                );
            }
            assert_eq!(tm.assigned_count(), 0);
            assert!(tm.unassigned().is_empty());
        }
        tm.assert_queue_matches_registry();
    }
}
