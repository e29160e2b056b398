//! Task workload generation.
//!
//! Tasks arrive in a Poisson stream at a configurable rate (Fig. 5 uses
//! 9.375 tasks/s; the Fig. 9 sweep 1.5–12.5 tasks/s) with deadlines drawn
//! uniformly from 60–120 s, locations uniform within the region and
//! categories uniform over a small set.

use rand::Rng;
use react_core::{Task, TaskCategory, TaskId};
use react_geo::BoundingBox;
use react_prob::distributions::{PoissonProcess, UniformRange};

/// Generates a stream of `(arrival_time, Task)` pairs.
#[derive(Debug, Clone)]
pub struct TaskGenerator {
    arrivals: PoissonProcess,
    deadline_range: UniformRange,
    reward_range: UniformRange,
    region: BoundingBox,
    n_categories: u32,
    next_id: u64,
}

impl TaskGenerator {
    /// Creates a generator with the paper's deadline range (60–120 s)
    /// and sub-dime rewards (90 % of AMT tasks pay below $0.10, per Ipeirotis).
    pub fn new(rate: f64, region: BoundingBox) -> Self {
        TaskGenerator {
            arrivals: PoissonProcess::new(rate),
            deadline_range: UniformRange::new(60.0, 120.0),
            reward_range: UniformRange::new(0.01, 0.10),
            region,
            n_categories: 1,
            next_id: 0,
        }
    }

    /// Overrides the deadline range.
    pub fn with_deadline_range(mut self, lo: f64, hi: f64) -> Self {
        self.deadline_range = UniformRange::new(lo, hi);
        self
    }

    /// Uses `n` task categories (uniformly assigned).
    pub fn with_categories(mut self, n: u32) -> Self {
        self.n_categories = n.max(1);
        self
    }

    /// Draws the next arrival: its timestamp and the task itself.
    pub fn next<R: Rng + ?Sized>(&mut self, rng: &mut R) -> (f64, Task) {
        let at = self.arrivals.next_arrival(rng);
        let id = TaskId(self.next_id);
        self.next_id += 1;
        let category = TaskCategory(rng.gen_range(0..self.n_categories));
        let task = Task::new(
            id,
            self.region.random_point(rng),
            self.deadline_range.sample(rng),
            self.reward_range.sample(rng),
            category,
            "How congested is the area around this point?",
        );
        (at, task)
    }

    /// Generates the full workload of `n` tasks.
    pub fn take_n<R: Rng + ?Sized>(&mut self, n: usize, rng: &mut R) -> Vec<(f64, Task)> {
        (0..n).map(|_| self.next(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn region() -> BoundingBox {
        BoundingBox::new(37.8, 38.2, 23.5, 24.0).unwrap()
    }

    #[test]
    fn ids_are_sequential_and_unique() {
        let mut g = SmallRng::seed_from_u64(0);
        let mut gen = TaskGenerator::new(9.375, region());
        let tasks = gen.take_n(100, &mut g);
        for (i, (_, t)) in tasks.iter().enumerate() {
            assert_eq!(t.id, TaskId(i as u64));
        }
    }

    #[test]
    fn arrivals_match_rate_and_increase() {
        let mut g = SmallRng::seed_from_u64(1);
        let mut gen = TaskGenerator::new(9.375, region());
        let tasks = gen.take_n(10_000, &mut g);
        let mut last = 0.0;
        for (at, _) in &tasks {
            assert!(*at > last);
            last = *at;
        }
        let rate = 10_000.0 / last;
        assert!((rate - 9.375).abs() / 9.375 < 0.05, "rate {rate}");
    }

    #[test]
    fn paper_deadline_and_reward_ranges() {
        let mut g = SmallRng::seed_from_u64(2);
        let mut gen = TaskGenerator::new(1.0, region());
        for (_, t) in gen.take_n(2_000, &mut g) {
            assert!(
                (60.0..=120.0).contains(&t.deadline),
                "deadline {}",
                t.deadline
            );
            assert!((0.01..=0.10).contains(&t.reward));
            assert!(region().contains(&t.location));
            assert_eq!(t.category, TaskCategory(0));
        }
    }

    #[test]
    fn custom_deadline_and_categories() {
        let mut g = SmallRng::seed_from_u64(3);
        let mut gen = TaskGenerator::new(1.0, region())
            .with_deadline_range(5.0, 10.0)
            .with_categories(4);
        let tasks = gen.take_n(2_000, &mut g);
        let mut seen = std::collections::HashSet::new();
        for (_, t) in &tasks {
            assert!((5.0..=10.0).contains(&t.deadline));
            assert!(t.category.0 < 4);
            seen.insert(t.category);
        }
        assert_eq!(seen.len(), 4, "all categories used");
        // Zero categories clamps to one.
        let gen = TaskGenerator::new(1.0, region()).with_categories(0);
        assert_eq!(gen.n_categories, 1);
    }
}
