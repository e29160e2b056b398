//! Where a run's tasks come from: one [`Source`] trait for every loop.
//!
//! [`Lap::run`](crate::Lap::run) asks its source for the next task due by
//! the grid's next instant and merges the answer with the tick grid and
//! the crowd's timeline. [`Arrivals`] is the source over a trace — a
//! preset one, or a scenario's Poisson workload — with each logical task
//! expanded into its replicas; it never waits. `react-runtime`'s door is
//! the other: it blocks on its inbox on the scaled wall clock.

use crate::generator::TaskGenerator;
use crate::scenario::Scenario;
use react_core::{Task, TaskId};
use react_sim::RngStreams;
use std::borrow::Cow;

/// What a [`Source`] answers when asked for the next task due by an
/// instant.
#[derive(Debug, PartialEq)]
pub enum Next {
    /// `task` is taken in at `at`. It entered the system at `entered`:
    /// the door's accept instant, or `at` for a trace.
    Task {
        /// The instant the loop takes the task in.
        at: f64,
        /// The instant the task entered the system.
        entered: f64,
        /// The task.
        task: Task,
    },
    /// The instant asked for has come with no task.
    Wait,
    /// No task follows: the workload ended at this instant.
    End(f64),
}

/// Where [`Lap::run`](crate::Lap::run) takes its tasks from.
pub trait Source {
    /// The next task taken by crowd time `until`, [`Next::Wait`] once
    /// `until` has come without one, or [`Next::End`]. `queued` is how
    /// many tasks the middleware holds unassigned. Instants never go back,
    /// and no task follows the end: asked again after it, a source on a
    /// clock waits until `until`, one without answers at once.
    fn next_by(&mut self, until: f64, queued: usize) -> Next;
}

/// A source lent to a loop is still the source.
impl<S: Source + ?Sized> Source for &mut S {
    fn next_by(&mut self, until: f64, queued: usize) -> Next {
        (**self).next_by(until, queued)
    }
}

/// A run's task arrivals in time order.
pub struct Arrivals<'a> {
    /// The logical tasks, sorted by instant.
    trace: Cow<'a, [(f64, Task)]>,
    /// The next logical task's position.
    next: usize,
    /// Replication factor `k`.
    replicas: u64,
    /// Replicas of the next logical task already yielded.
    yielded: u64,
}

impl<'a> Arrivals<'a> {
    /// The tasks of `trace` at their instants. A trace out of time order
    /// is sorted first, stably, so tasks at one instant keep their order.
    pub fn preset(trace: impl Into<Cow<'a, [(f64, Task)]>>) -> Self {
        let mut trace = trace.into();
        if !trace.is_sorted_by(|a, b| a.0 <= b.0) {
            trace.to_mut().sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        Arrivals {
            trace,
            next: 0,
            replicas: 1,
            yielded: 0,
        }
    }

    /// The scenario's workload: its preset trace, read in place, or
    /// `total_tasks` Poisson arrivals drawn from the `workload` stream of
    /// `streams`.
    pub fn of(scenario: &'a Scenario, streams: &RngStreams) -> Self {
        if let Some(trace) = &scenario.workload {
            return Self::preset(trace.as_slice());
        }
        let (lo, hi) = scenario.deadline_range;
        let mut rng = streams.stream("workload");
        let trace = TaskGenerator::new(scenario.arrival_rate, scenario.region)
            .with_deadline_range(lo, hi)
            .with_categories(scenario.n_categories)
            .take_n(scenario.total_tasks, &mut rng);
        Self::preset(trace)
    }

    /// Each logical task arrives as `k` replicas at its instant, ids
    /// `id·k + j` for `j` in `0..k`, sharing the group id `id`; at `k` ≤ 1
    /// a task arrives as itself.
    pub fn replicated(mut self, k: usize) -> Self {
        self.replicas = k.max(1) as u64;
        self
    }

    /// The instant of the next arrival, if any is left.
    pub fn peek_at(&self) -> Option<f64> {
        self.trace.get(self.next).map(|&(at, _)| at)
    }
}

/// Never waits: a task due by `until` is taken at its own instant, and
/// the end is the last arrival's instant, or 0 for an empty trace.
impl Source for Arrivals<'_> {
    fn next_by(&mut self, until: f64, _queued: usize) -> Next {
        match self.peek_at() {
            Some(at) if at <= until => {
                let (at, task) = self.next().expect("peeked");
                Next::Task {
                    at,
                    entered: at,
                    task,
                }
            }
            Some(_) => Next::Wait,
            None => Next::End(self.trace.last().map_or(0.0, |&(at, _)| at)),
        }
    }
}

impl Iterator for Arrivals<'_> {
    type Item = (f64, Task);

    fn next(&mut self) -> Option<(f64, Task)> {
        let (at, task) = self.trace.get(self.next)?;
        let id = TaskId(task.id.0 * self.replicas + self.yielded);
        self.yielded += 1;
        if self.yielded == self.replicas {
            self.yielded = 0;
            self.next += 1;
        }
        Some((*at, Task { id, ..task.clone() }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use react_core::TaskCategory;
    use react_geo::GeoPoint;

    fn task(id: u64) -> Task {
        let here = GeoPoint::new(38.0, 23.7);
        Task::new(TaskId(id), here, 60.0, 0.05, TaskCategory(0), "t")
    }

    fn ids(arrivals: Arrivals<'_>) -> Vec<(f64, u64)> {
        arrivals.map(|(at, task)| (at, task.id.0)).collect()
    }

    #[test]
    fn a_shuffled_preset_arrives_sorted_and_ties_keep_their_order() {
        let trace = vec![
            (3.0, task(0)),
            (1.0, task(1)),
            (3.0, task(2)),
            (2.0, task(3)),
        ];
        let arrivals = Arrivals::preset(trace);
        assert_eq!(arrivals.peek_at(), Some(1.0));
        assert_eq!(ids(arrivals), [(1.0, 1), (2.0, 3), (3.0, 0), (3.0, 2)]);
    }

    #[test]
    fn replicas_share_their_group_and_instant() {
        let trace = [(1.0, task(0)), (2.0, task(1))];
        let arrivals = Arrivals::preset(&trace[..]).replicated(3);
        let expected = [(1.0, 0), (1.0, 1), (1.0, 2), (2.0, 3), (2.0, 4), (2.0, 5)];
        assert_eq!(ids(arrivals), expected);
    }

    #[test]
    fn a_trace_ends_at_its_last_arrival_without_waiting() {
        let mut arrivals = Arrivals::preset(vec![(1.0, task(0)), (2.5, task(1))]);
        assert_eq!(arrivals.next_by(0.5, 0), Next::Wait);
        for (at, id) in [(1.0, 0), (2.5, 1)] {
            let task = task(id);
            let expected = Next::Task {
                at,
                entered: at,
                task,
            };
            assert_eq!(arrivals.next_by(3.0, 0), expected);
        }
        assert_eq!(arrivals.next_by(3.0, 0), Next::End(2.5));
        assert_eq!(arrivals.next_by(9.0, 0), Next::End(2.5));
        assert_eq!(Arrivals::preset(Vec::new()).next_by(9.0, 0), Next::End(0.0));
    }

    #[test]
    fn a_poisson_workload_is_the_generators_stream() {
        let mut sc = Scenario::smoke(react_core::MatcherPolicy::Greedy, 3);
        sc.total_tasks = 5;
        let streams = RngStreams::new(sc.seed);
        let got: Vec<_> = Arrivals::of(&sc, &streams).collect();
        let expected = TaskGenerator::new(sc.arrival_rate, sc.region)
            .with_deadline_range(sc.deadline_range.0, sc.deadline_range.1)
            .with_categories(sc.n_categories)
            .take_n(5, &mut streams.stream("workload"));
        assert_eq!(got, expected);
    }
}
