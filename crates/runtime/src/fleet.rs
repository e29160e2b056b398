//! The crowd as data: every worker's to-do list and one timer queue.
//!
//! A worker executes an assignment by letting its sampled service time
//! pass. Nothing has to *run* for that: [`Fleet`] keeps, per worker, the
//! task in hand and a FIFO of double-booked ones, and a single queue of
//! the crowd-time instants at which the tasks in hand finish. The
//! scheduler thread owns the fleet, tells it what it assigns and
//! recalls, and asks it what is due — so it can sleep until the next
//! instant instead of being woken by a thread per worker, and every
//! call takes the crowd time as an argument, which makes the fleet
//! replayable from explicit times without a clock.
//!
//! The FIFO exists because availability-aware policies never hand a
//! worker more than one task at a time, but the Traditional (AMT-style)
//! policy assigns blindly, and the extra tasks queue behind the current
//! one exactly like a marketplace worker's personal to-do list.

use react_core::{TaskId, WorkerId};
use react_sim::{EventQueue, SimTime};
use std::collections::VecDeque;

/// A worker's completion report to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Who finished.
    pub worker: WorkerId,
    /// Which task.
    pub task: TaskId,
    /// The worker's intrinsic quality verdict for this result.
    pub quality_ok: bool,
}

/// One crowd worker.
struct Host {
    /// Intrinsic positive-feedback probability.
    quality: f64,
    /// Completions reported so far; the verdict hash's counter, so the
    /// host needs no RNG state.
    verdicts: u64,
    /// Bumped whenever the task in hand changes. A due-queue entry
    /// carries the epoch it was pushed under and is stale once they
    /// differ.
    epoch: u64,
    in_hand: Option<TaskId>,
    /// Double-booked tasks with their service times, oldest first.
    /// Empty whenever nothing is in hand.
    queued: VecDeque<(TaskId, f64)>,
}

/// Every worker of the crowd, indexed by `WorkerId(i)` for the `i`-th
/// quality given to [`Fleet::new`]. Times are crowd seconds.
pub struct Fleet {
    hosts: Vec<Host>,
    /// `(worker index, epoch)` at the instant its task in hand finishes.
    due: EventQueue<(usize, u64)>,
}

impl Fleet {
    /// A fleet of idle workers with the given intrinsic qualities.
    pub fn new(qualities: impl IntoIterator<Item = f64>) -> Self {
        Fleet {
            hosts: qualities
                .into_iter()
                .map(|quality| Host {
                    quality,
                    verdicts: 0,
                    epoch: 0,
                    in_hand: None,
                    queued: VecDeque::new(),
                })
                .collect(),
            due: EventQueue::new(),
        }
    }

    /// Hands `task` to `worker`: an idle worker starts it at `now` and
    /// finishes `exec` crowd seconds later unless recalled first; a busy
    /// one queues it behind what it has. A task the worker already holds
    /// (scheduler retry, fault injection) is not taken a second time.
    ///
    /// # Panics
    /// Panics on a worker the fleet was not built with.
    pub fn assign(&mut self, worker: WorkerId, task: TaskId, exec: f64, now: f64) {
        let w = worker.0 as usize;
        let host = &mut self.hosts[w];
        match host.in_hand {
            None => self.start(w, task, exec, now),
            Some(current) => {
                if current != task && !host.queued.iter().any(|&(t, _)| t == task) {
                    host.queued.push_back((task, exec));
                }
            }
        }
    }

    /// Takes `task` back from `worker`, whether it is in hand or still
    /// queued — both copies die together, so a recalled task can never
    /// complete. Abandoning the task in hand makes the worker pick up
    /// its next queued one at `now`. A recall of a task the worker does
    /// not hold changes nothing.
    ///
    /// # Panics
    /// Panics on a worker the fleet was not built with.
    pub fn recall(&mut self, worker: WorkerId, task: TaskId, now: f64) {
        let w = worker.0 as usize;
        let host = &mut self.hosts[w];
        host.queued.retain(|&(t, _)| t != task);
        if host.in_hand == Some(task) {
            host.in_hand = None;
            host.epoch += 1;
            self.pick_up_next(w, now);
        }
    }

    /// The instant the earliest task in hand finishes, if any worker is
    /// busy. Drops the entries recalls left behind on its way there.
    pub fn next_due(&mut self) -> Option<f64> {
        while let Some((at, &(w, epoch))) = self.due.peek() {
            if self.hosts[w].epoch == epoch {
                return Some(at.as_secs());
            }
            self.due.pop();
        }
        None
    }

    /// Reports the earliest completion due at or before `now`, oldest
    /// first. The worker picks up its next queued task at the instant it
    /// finished this one, not at `now`: a worker does not wait for the
    /// scheduler to notice before carrying on.
    pub fn pop_due(&mut self, now: f64) -> Option<Completion> {
        let at = self.next_due().filter(|&at| at <= now)?;
        let (_, (w, _)) = self.due.pop().expect("next_due left a live entry in front");
        let host = &mut self.hosts[w];
        let task = host
            .in_hand
            .take()
            .expect("a live due entry has its task in hand");
        host.verdicts += 1;
        let worker = WorkerId(w as u64);
        let quality_ok = verdict(worker, host.verdicts) < host.quality;
        self.pick_up_next(w, at);
        Some(Completion {
            worker,
            task,
            quality_ok,
        })
    }

    fn pick_up_next(&mut self, w: usize, at: f64) {
        if let Some((task, exec)) = self.hosts[w].queued.pop_front() {
            self.start(w, task, exec, at);
        }
    }

    fn start(&mut self, w: usize, task: TaskId, exec: f64, at: f64) {
        let host = &mut self.hosts[w];
        host.epoch += 1;
        host.in_hand = Some(task);
        // `max` also maps a NaN service time to zero.
        self.due
            .push(SimTime::from_secs(at + exec.max(0.0)), (w, host.epoch));
    }
}

/// Deterministic per-(worker, completion) pseudo-uniform in [0, 1).
fn verdict(id: WorkerId, counter: u64) -> f64 {
    let mut z = id.0 ^ counter.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: WorkerId = WorkerId(1);

    /// Two workers; the tests drive `W`, the second one.
    fn fleet(quality: f64) -> Fleet {
        Fleet::new([quality, quality])
    }

    /// Everything due by `now`, in order.
    fn drain(fleet: &mut Fleet, now: f64) -> Vec<TaskId> {
        std::iter::from_fn(|| fleet.pop_due(now))
            .map(|done| done.task)
            .collect()
    }

    #[test]
    fn completes_assignment_after_service_time() {
        let mut fleet = fleet(1.0);
        fleet.assign(W, TaskId(7), 20.0, 100.0);
        assert_eq!(fleet.next_due(), Some(120.0));
        assert_eq!(fleet.pop_due(119.9), None, "not before its service time");
        let done = fleet.pop_due(120.0).expect("due exactly at 120");
        assert_eq!((done.worker, done.task), (W, TaskId(7)));
        assert!(done.quality_ok, "quality 1.0 is always positive");
        assert_eq!(fleet.next_due(), None);
        assert_eq!(fleet.pop_due(1e9), None, "a task completes once");
    }

    #[test]
    fn recall_aborts_execution() {
        let mut fleet = fleet(1.0);
        fleet.assign(W, TaskId(1), 60_000.0, 0.0);
        fleet.recall(W, TaskId(1), 20.0);
        assert_eq!(fleet.next_due(), None, "the recalled entry is not due");
        assert_eq!(
            drain(&mut fleet, 1e9),
            vec![],
            "a recalled task never completes"
        );
        // The worker is idle again and can take new work.
        fleet.assign(W, TaskId(2), 5.0, 30.0);
        assert_eq!(drain(&mut fleet, 35.0), vec![TaskId(2)]);
    }

    #[test]
    fn double_booked_tasks_queue_fifo() {
        let mut fleet = fleet(1.0);
        for t in [1u64, 2, 3] {
            fleet.assign(W, TaskId(t), 10.0, 0.0);
        }
        // One in hand at a time: each starts when the one before ends.
        assert_eq!(drain(&mut fleet, 9.0), vec![]);
        assert_eq!(drain(&mut fleet, 10.0), vec![TaskId(1)]);
        assert_eq!(fleet.next_due(), Some(20.0));
        // A scheduler that looks late still sees them in order, each
        // having started when its predecessor finished.
        assert_eq!(drain(&mut fleet, 100.0), vec![TaskId(2), TaskId(3)]);
    }

    #[test]
    fn recall_of_queued_task_removes_it() {
        let mut fleet = fleet(1.0);
        fleet.assign(W, TaskId(1), 50.0, 0.0);
        fleet.assign(W, TaskId(2), 5.0, 0.0);
        fleet.recall(W, TaskId(2), 1.0);
        assert_eq!(drain(&mut fleet, 1e9), vec![TaskId(1)]);
    }

    #[test]
    fn recall_of_the_task_in_hand_starts_the_next_at_the_recall() {
        let mut fleet = fleet(1.0);
        fleet.assign(W, TaskId(1), 50.0, 0.0);
        fleet.assign(W, TaskId(2), 5.0, 0.0);
        fleet.recall(W, TaskId(1), 20.0);
        assert_eq!(fleet.next_due(), Some(25.0));
        assert_eq!(drain(&mut fleet, 1e9), vec![TaskId(2)]);
    }

    #[test]
    fn stale_recall_is_harmless() {
        let mut fleet = fleet(0.0);
        fleet.recall(W, TaskId(9), 0.0);
        fleet.assign(W, TaskId(3), 1.0, 0.0);
        fleet.recall(W, TaskId(9), 0.5);
        let done = fleet.pop_due(1.0).expect("task 3 is untouched");
        assert_eq!(done.task, TaskId(3));
        assert!(!done.quality_ok, "quality 0.0 is never positive");
    }

    #[test]
    fn recall_purges_queued_copy_of_the_task_in_hand() {
        // Regression (found in the threaded host this replaced): a
        // duplicated assign left a copy of the recalled task in the
        // FIFO; the worker replayed it and completed a task the
        // scheduler had already rerouted.
        let mut fleet = fleet(1.0);
        fleet.assign(W, TaskId(1), 60_000.0, 0.0);
        fleet.assign(W, TaskId(1), 60_000.0, 20.0);
        fleet.recall(W, TaskId(1), 21.0);
        assert_eq!(
            drain(&mut fleet, 1e9),
            vec![],
            "a recalled task must never complete, even from a queued copy"
        );
        // The worker is idle and healthy.
        fleet.assign(W, TaskId(2), 5.0, 30.0);
        assert_eq!(drain(&mut fleet, 35.0), vec![TaskId(2)]);
    }

    #[test]
    fn duplicate_assign_completes_once() {
        let mut fleet = fleet(1.0);
        fleet.assign(W, TaskId(3), 40.0, 0.0);
        fleet.assign(W, TaskId(3), 40.0, 10.0);
        assert_eq!(drain(&mut fleet, 1e9), vec![TaskId(3)]);
        // Likewise for a duplicate of a task that is still queued.
        fleet.assign(W, TaskId(4), 40.0, 100.0);
        fleet.assign(W, TaskId(5), 1.0, 100.0);
        fleet.assign(W, TaskId(5), 1.0, 101.0);
        assert_eq!(drain(&mut fleet, 1e9), vec![TaskId(4), TaskId(5)]);
    }

    #[test]
    fn workers_are_independent_and_completions_come_oldest_first() {
        let mut fleet = fleet(1.0);
        fleet.assign(WorkerId(0), TaskId(1), 30.0, 0.0);
        fleet.assign(W, TaskId(2), 10.0, 5.0);
        fleet.recall(W, TaskId(1), 6.0); // worker 0's task, asked of W
        assert_eq!(fleet.next_due(), Some(15.0));
        assert_eq!(drain(&mut fleet, 30.0), vec![TaskId(2), TaskId(1)]);
    }

    #[test]
    fn verdict_is_uniform_ish() {
        let n = 10_000;
        let below_half =
            (0..n).filter(|&i| verdict(WorkerId(9), i) < 0.5).count() as f64 / n as f64;
        assert!((below_half - 0.5).abs() < 0.03, "fraction {below_half}");
    }
}
