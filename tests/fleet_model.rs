//! Stateful property test of the runtime's [`Fleet`]: random
//! assign / recall / advance interleavings over three workers, checked
//! against a per-worker reference model and four direct properties.
//!
//! * per worker, the fleet reports exactly the model's completions, in
//!   order, at the model's instants (one task in hand at a time, each
//!   queued task's service time starting when its predecessor finished
//!   or was recalled);
//! * a task completes at most once per assignment and never after its
//!   recall;
//! * completion instants never go backwards across the whole fleet;
//! * after every operation `next_due` is the earliest finish among the
//!   tasks in hand — never an entry a recall left behind.
//!
//! No threads, no clock: every call takes its crowd time. `PROPTEST_CASES`
//! widens the run (CI: 1024 cases in release).

mod common;

use proptest::prelude::*;
use react::core::{TaskId, WorkerId};
use react::runtime::Fleet;
use std::collections::BTreeSet;

const WORKERS: usize = 3;

#[derive(Debug, Clone)]
enum Op {
    Assign { worker: usize, task: u64, exec: f64 },
    Recall { worker: usize, task: u64 },
    Advance { dt: f64 },
}

/// An assignment; few task ids, so duplicates and recalls that hit are
/// common.
fn arb_assign() -> impl Strategy<Value = Op> {
    let exec = prop_oneof![Just(0.0), 0.0f64..30.0];
    ((0..WORKERS), (0u64..6), exec).prop_map(|(worker, task, exec)| Op::Assign {
        worker,
        task,
        exec,
    })
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Twice the weight on assignments keeps the to-do lists populated.
    prop_oneof![
        arb_assign(),
        arb_assign(),
        ((0..WORKERS), (0u64..6)).prop_map(|(worker, task)| Op::Recall { worker, task }),
        (0.0f64..20.0).prop_map(|dt| Op::Advance { dt }),
    ]
}

/// One worker of the reference model: the to-do list written out.
#[derive(Debug, Clone, Default)]
struct ModelWorker {
    /// Task in hand and the instant it finishes.
    in_hand: Option<(u64, f64)>,
    /// Tasks waiting behind it with their service times, oldest first.
    queued: Vec<(u64, f64)>,
}

impl ModelWorker {
    fn assign(&mut self, task: u64, exec: f64, now: f64) {
        match self.in_hand {
            None => self.in_hand = Some((task, now + exec)),
            Some((current, _)) => {
                if current != task && self.queued.iter().all(|&(t, _)| t != task) {
                    self.queued.push((task, exec));
                }
            }
        }
    }

    fn recall(&mut self, task: u64, now: f64) {
        self.queued.retain(|&(t, _)| t != task);
        if self.in_hand.is_some_and(|(current, _)| current == task) {
            self.in_hand = None;
            self.start_next(now);
        }
    }

    fn start_next(&mut self, at: f64) {
        if !self.queued.is_empty() {
            let (task, exec) = self.queued.remove(0);
            self.in_hand = Some((task, at + exec));
        }
    }

    /// The `(task, instant)` completions up to and including `now`.
    fn advance(&mut self, now: f64) -> Vec<(u64, f64)> {
        let mut done = Vec::new();
        while let Some((task, at)) = self.in_hand.filter(|&(_, at)| at <= now) {
            done.push((task, at));
            self.in_hand = None;
            self.start_next(at);
        }
        done
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(256)))]

    #[test]
    fn fleet_matches_the_per_worker_model(ops in proptest::collection::vec(arb_op(), 1..120)) {
        // Worker 1 never gives a positive verdict, the others always do.
        let mut fleet = Fleet::new([1.0, 0.0, 1.0]);
        let mut model = vec![ModelWorker::default(); WORKERS];
        // (worker, task) pairs assigned and neither recalled nor
        // completed since: what is allowed to complete.
        let mut live: BTreeSet<(usize, u64)> = BTreeSet::new();
        let mut now = 0.0f64;
        let mut last_completion = 0.0f64;

        for op in ops {
            match op {
                Op::Assign { worker, task, exec } => {
                    fleet.assign(WorkerId(worker as u64), TaskId(task), exec, now);
                    model[worker].assign(task, exec, now);
                    live.insert((worker, task));
                }
                Op::Recall { worker, task } => {
                    fleet.recall(WorkerId(worker as u64), TaskId(task), now);
                    model[worker].recall(task, now);
                    live.remove(&(worker, task));
                }
                Op::Advance { dt } => {
                    now += dt;
                    let expected: Vec<Vec<(u64, f64)>> =
                        model.iter_mut().map(|m| m.advance(now)).collect();
                    let mut reported = vec![Vec::new(); WORKERS];
                    loop {
                        let due = fleet.next_due();
                        let Some(done) = fleet.pop_due(now) else {
                            prop_assert!(
                                !due.is_some_and(|at| at <= now),
                                "due at {:?} <= now {} but nothing popped", due, now
                            );
                            break;
                        };
                        let at = due.expect("a completion was due, so next_due named it");
                        prop_assert!(at <= now, "completed at {} before its time {}", now, at);
                        prop_assert!(
                            at >= last_completion,
                            "completion instants went backwards: {} after {}", at, last_completion
                        );
                        last_completion = at;
                        let worker = done.worker.0 as usize;
                        prop_assert!(
                            live.remove(&(worker, done.task.0)),
                            "{:?} completed {:?} twice or after its recall", done.worker, done.task
                        );
                        prop_assert_eq!(done.quality_ok, worker != 1);
                        reported[worker].push((done.task.0, at));
                    }
                    prop_assert_eq!(reported, expected);
                }
            }
            let earliest = model
                .iter()
                .filter_map(|m| m.in_hand.map(|(_, at)| at))
                .min_by(f64::total_cmp);
            prop_assert_eq!(fleet.next_due(), earliest);
        }
    }
}
