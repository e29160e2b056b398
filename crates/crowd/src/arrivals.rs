//! Where a run's tasks come from: one source for every loop.
//!
//! [`Arrivals`] yields `(instant, task)` pairs in time order from a
//! trace — a preset one, or a scenario's Poisson workload — with each
//! logical task expanded into its replicas.
//! [`Lap::run`](crate::Lap::run) merges it with the tick grid and the
//! crowd's timeline, and `react-runtime`'s replay takes its trace from it.

use crate::generator::TaskGenerator;
use crate::scenario::Scenario;
use react_core::{Task, TaskId};
use react_sim::RngStreams;
use std::borrow::Cow;

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
