//! The materialised [`FaultSchedule`]: a frozen fault timeline plus
//! order-independent per-event fault decisions.

use react_sim::splitmix64;

/// Task ids at or above this base are injected burst tasks: far outside
/// the sequential generator id space and the replica-id arithmetic
/// (`logical_id * k + j`), so they can never collide with workload ids.
pub const BURST_ID_BASE: u64 = 1 << 40;

/// One scheduled worker dropout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dropout {
    /// Index of the worker in the scenario population (`0..n_workers`).
    pub worker: usize,
    /// Simulation time the worker goes offline.
    pub at: f64,
    /// Simulation time the worker comes back, if it ever does.
    pub rejoin_at: Option<f64>,
}

/// A [`FaultPlan`](crate::FaultPlan) materialised against a seed and a
/// worker population: the pre-drawn fault timeline (dropouts, slowdown
/// factors, bursts) plus hash-based per-event decisions for the faults
/// whose occasions are only known at run time.
///
/// Its one reader at run time is the crowd (`react_crowd::Crowd`): it
/// merges the dropouts, rejoins and bursts into one time-ordered stream
/// with its completions, so every driver (the two DES runners and the
/// live scheduler thread) books the same timeline in the same order.
/// Per-event queries ([`abandons`](Self::abandons),
/// [`loses_completion`](Self::loses_completion),
/// [`duplicates_completion`](Self::duplicates_completion)) are pure
/// functions of `(salt, kind, task, attempt)` — the answer never depends
/// on query order, so every driver replays identical faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    salt: u64,
    dropouts: Vec<Dropout>,
    slowdown: Vec<f64>,
    abandon_p: f64,
    loss_p: f64,
    dup_p: f64,
    bursts: Vec<(f64, u32)>,
}

// Distinct kind constants keep the three per-event decision families
// statistically independent of one another for the same (task, attempt).
const KIND_ABANDON: u64 = 0xA;
const KIND_LOSS: u64 = 0xB;
const KIND_DUP: u64 = 0xC;

/// Hashes `(salt, kind, a, b)` to a uniform value in `[0, 1)`.
fn decide(salt: u64, kind: u64, a: u64, b: u64) -> f64 {
    let mut h = splitmix64(salt ^ kind.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    h = splitmix64(h ^ a);
    h = splitmix64(h ^ b);
    (h >> 11) as f64 * (1.0 / ((1u64 << 53) as f64))
}

impl FaultSchedule {
    pub(crate) fn new(
        salt: u64,
        dropouts: Vec<Dropout>,
        slowdown: Vec<f64>,
        abandon_p: f64,
        loss_p: f64,
        dup_p: f64,
        bursts: Vec<(f64, u32)>,
    ) -> Self {
        FaultSchedule {
            salt,
            dropouts,
            slowdown,
            abandon_p,
            loss_p,
            dup_p,
            bursts,
        }
    }

    /// A schedule that injects nothing, for fault-free runs.
    pub fn none() -> Self {
        FaultSchedule {
            salt: 0,
            dropouts: Vec::new(),
            slowdown: Vec::new(),
            abandon_p: 0.0,
            loss_p: 0.0,
            dup_p: 0.0,
            bursts: Vec::new(),
        }
    }

    /// Whether this schedule injects nothing.
    pub fn is_noop(&self) -> bool {
        self.dropouts.is_empty()
            && self.bursts.is_empty()
            && self.abandon_p <= 0.0
            && self.loss_p <= 0.0
            && self.dup_p <= 0.0
            && self.slowdown.iter().all(|&f| f <= 1.0)
    }

    /// Scheduled dropouts, sorted by time.
    pub fn dropouts(&self) -> &[Dropout] {
        &self.dropouts
    }

    /// Scheduled burst arrivals `(time, size)`, sorted by time.
    pub fn bursts(&self) -> &[(f64, u32)] {
        &self.bursts
    }

    /// Multiplicative execution-time factor for `worker` (1.0 = healthy;
    /// also 1.0 for workers outside the materialised population).
    pub fn slowdown_factor(&self, worker: usize) -> f64 {
        self.slowdown.get(worker).copied().unwrap_or(1.0)
    }

    /// Whether the `attempt`-th assignment of `task` is silently
    /// abandoned by its worker.
    pub fn abandons(&self, task: u64, attempt: u32) -> bool {
        self.abandon_p > 0.0
            && decide(self.salt, KIND_ABANDON, task, attempt as u64) < self.abandon_p
    }

    /// Whether the completion message for the `attempt`-th assignment of
    /// `task` is lost in flight.
    pub fn loses_completion(&self, task: u64, attempt: u32) -> bool {
        self.loss_p > 0.0 && decide(self.salt, KIND_LOSS, task, attempt as u64) < self.loss_p
    }

    /// Whether the completion message for the `attempt`-th assignment of
    /// `task` is delivered twice.
    pub fn duplicates_completion(&self, task: u64, attempt: u32) -> bool {
        self.dup_p > 0.0 && decide(self.salt, KIND_DUP, task, attempt as u64) < self.dup_p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probed() -> FaultSchedule {
        FaultSchedule::new(
            0xDEAD_BEEF,
            Vec::new(),
            vec![1.0, 3.0],
            0.3,
            0.3,
            0.3,
            Vec::new(),
        )
    }

    #[test]
    fn none_is_noop() {
        assert!(FaultSchedule::none().is_noop());
        assert!(!probed().is_noop());
    }

    #[test]
    fn decisions_are_stable_and_order_independent() {
        let s = probed();
        let forward: Vec<bool> = (0..64).map(|t| s.abandons(t, 0)).collect();
        let backward: Vec<bool> = (0..64).rev().map(|t| s.abandons(t, 0)).collect();
        let backward: Vec<bool> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward, "query order must not matter");
        assert!(
            forward.iter().any(|&b| b),
            "p=0.3 over 64 trials should fire"
        );
        assert!(!forward.iter().all(|&b| b), "p=0.3 must not always fire");
    }

    #[test]
    fn fault_families_are_independent() {
        let s = probed();
        let a: Vec<bool> = (0..256).map(|t| s.abandons(t, 1)).collect();
        let l: Vec<bool> = (0..256).map(|t| s.loses_completion(t, 1)).collect();
        let d: Vec<bool> = (0..256).map(|t| s.duplicates_completion(t, 1)).collect();
        assert_ne!(a, l, "abandon and loss decisions must decorrelate");
        assert_ne!(l, d, "loss and duplication decisions must decorrelate");
    }

    #[test]
    fn attempts_redecide() {
        let s = probed();
        let by_attempt: Vec<bool> = (0..64).map(|k| s.abandons(5, k)).collect();
        assert!(by_attempt.iter().any(|&b| b) && !by_attempt.iter().all(|&b| b));
    }

    #[test]
    fn decision_rates_track_probabilities() {
        let s = FaultSchedule::new(99, Vec::new(), Vec::new(), 0.25, 0.0, 1.0, Vec::new());
        let n = 4000u64;
        let hits = (0..n).filter(|&t| s.abandons(t, 0)).count() as f64 / n as f64;
        assert!((hits - 0.25).abs() < 0.03, "observed abandon rate {hits}");
        assert!(
            (0..n).all(|t| s.duplicates_completion(t, 0)),
            "p=1 always fires"
        );
        assert!((0..n).all(|t| !s.loses_completion(t, 0)), "p=0 never fires");
    }

    #[test]
    fn slowdown_defaults_to_healthy_out_of_range() {
        let s = probed();
        assert_eq!(s.slowdown_factor(1), 3.0);
        assert_eq!(s.slowdown_factor(17), 1.0);
    }
}
