//! Edge weight functions `F(worker_i, task_j)`.
//!
//! The paper evaluates with the **accuracy** weight (Eq. 1) — the
//! worker's positive-feedback ratio in the task's category — and
//! discusses a **distance** variant for location-based applications
//! (*"we could use their geographical distance on the weight in order to
//! get the nearest worker for the specific task"*). Both are provided,
//! plus a convex blend, all normalised into `[0, 1]` so they are
//! interchangeable in the matching graph.

use crate::ids::TaskCategory;
use crate::profiling::WorkerProfile;
use crate::task::Task;
use react_geo::GeoPoint;

/// Which weight function the Scheduling Component uses.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum WeightFunction {
    /// Eq. (1): worker accuracy in the task's category,
    /// `Σ positive / Σ finished ∈ [0, 1]`.
    #[default]
    Accuracy,
    /// Proximity: `1 / (1 + distance_km / scale_km)` — 1 at the task
    /// location, decaying with great-circle distance.
    Distance {
        /// The distance (km) at which the weight halves.
        scale_km: f64,
    },
    /// Convex combination `λ·accuracy + (1−λ)·proximity`.
    Blend {
        /// Weight of the accuracy term, `λ ∈ [0, 1]`.
        lambda: f64,
        /// Proximity half-weight distance (km).
        scale_km: f64,
    },
}

impl WeightFunction {
    /// Evaluates `F(worker, task) ∈ [0, 1]`.
    pub fn evaluate(&self, worker: &WorkerProfile, task: &Task) -> f64 {
        self.evaluate_at(worker, task.category, &task.location)
    }

    /// [`Self::evaluate`] over the two facts it reads of a task, for the
    /// graph build, which holds them as queue columns.
    pub(crate) fn evaluate_at(
        &self,
        worker: &WorkerProfile,
        category: TaskCategory,
        location: &GeoPoint,
    ) -> f64 {
        match *self {
            WeightFunction::Accuracy => accuracy_weight(worker, category),
            WeightFunction::Distance { scale_km } => distance_weight(worker, location, scale_km),
            WeightFunction::Blend { lambda, scale_km } => {
                let l = lambda.clamp(0.0, 1.0);
                l * accuracy_weight(worker, category)
                    + (1.0 - l) * distance_weight(worker, location, scale_km)
            }
        }
    }

    /// True when [`Self::evaluate`] reads nothing of the task but its
    /// category, so one evaluation serves every task of that category in
    /// a batch. Exhaustive on purpose: a new variant has to choose.
    pub(crate) fn per_category(&self) -> bool {
        match self {
            WeightFunction::Accuracy => true,
            WeightFunction::Distance { .. } | WeightFunction::Blend { .. } => false,
        }
    }
}

fn accuracy_weight(worker: &WorkerProfile, category: TaskCategory) -> f64 {
    worker.accuracy(category).clamp(0.0, 1.0)
}

fn distance_weight(worker: &WorkerProfile, location: &GeoPoint, scale_km: f64) -> f64 {
    let d = worker.location().distance_km(location);
    let scale = scale_km.max(f64::MIN_POSITIVE);
    1.0 / (1.0 + d / scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{TaskId, WorkerId};
    use crate::profiling::ProfilingComponent;

    fn setup() -> (ProfilingComponent, Task) {
        let mut p = ProfilingComponent::default();
        p.register(WorkerId(1), GeoPoint::new(37.98, 23.72))
            .unwrap();
        let task = Task::new(
            TaskId(1),
            GeoPoint::new(38.08, 23.72), // ≈ 11 km north
            60.0,
            0.05,
            TaskCategory(0),
            "t",
        );
        (p, task)
    }

    #[test]
    fn accuracy_weight_tracks_feedback() {
        let (mut p, task) = setup();
        let wf = WeightFunction::Accuracy;
        // Fresh worker: optimistic 1.0.
        assert_eq!(wf.evaluate(p.profile(WorkerId(1)).unwrap(), &task), 1.0);
        p.record_completion(WorkerId(1), TaskCategory(0), 5.0, true)
            .unwrap();
        p.record_completion(WorkerId(1), TaskCategory(0), 5.0, false)
            .unwrap();
        assert!((wf.evaluate(p.profile(WorkerId(1)).unwrap(), &task) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distance_weight_decays() {
        let (p, task) = setup();
        let near = WeightFunction::Distance { scale_km: 100.0 };
        let far = WeightFunction::Distance { scale_km: 1.0 };
        let profile = p.profile(WorkerId(1)).unwrap();
        let w_near = near.evaluate(profile, &task);
        let w_far = far.evaluate(profile, &task);
        assert!(w_near > w_far, "larger scale should tolerate distance");
        assert!((0.0..=1.0).contains(&w_near));
        assert!((0.0..=1.0).contains(&w_far));
        // Worker exactly at the task location scores 1.0.
        let colocated = Task::new(
            TaskId(2),
            profile.location(),
            60.0,
            0.0,
            TaskCategory(0),
            "t",
        );
        assert_eq!(near.evaluate(profile, &colocated), 1.0);
    }

    #[test]
    fn blend_interpolates() {
        let (mut p, task) = setup();
        // Force accuracy to 0 so the blend isolates the proximity term.
        p.record_completion(WorkerId(1), TaskCategory(0), 5.0, false)
            .unwrap();
        let profile = p.profile(WorkerId(1)).unwrap();
        let acc_only = WeightFunction::Blend {
            lambda: 1.0,
            scale_km: 10.0,
        };
        let dist_only = WeightFunction::Blend {
            lambda: 0.0,
            scale_km: 10.0,
        };
        let half = WeightFunction::Blend {
            lambda: 0.5,
            scale_km: 10.0,
        };
        let a = acc_only.evaluate(profile, &task);
        let d = dist_only.evaluate(profile, &task);
        let h = half.evaluate(profile, &task);
        assert_eq!(a, 0.0);
        assert!((h - 0.5 * (a + d)).abs() < 1e-12);
        // Out-of-range lambda clamps.
        let clamped = WeightFunction::Blend {
            lambda: 7.0,
            scale_km: 10.0,
        };
        assert_eq!(clamped.evaluate(profile, &task), a);
    }

    #[test]
    fn default_is_accuracy() {
        assert_eq!(WeightFunction::default(), WeightFunction::Accuracy);
    }
}
