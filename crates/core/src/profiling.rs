//! The Profiling Component.
//!
//! Keeps, for every registered worker: geographic location, current
//! availability, per-category feedback statistics (the numerator and
//! denominator of the Eq. 1 accuracy weight), the execution-time history
//! feeding the power-law estimator, and the number of assignments served
//! (for the `z`-training rule). *"Our model follows closely the AMT
//! model, where parameters such as skills and interests are not
//! considered."*

use crate::error::CoreError;
use crate::ids::{TaskCategory, WorkerId};
use react_geo::GeoPoint;
use react_prob::{EstimatorConfig, ExecTimeEstimator, FittedModel, PowerLaw};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

/// A worker's availability as tracked by the profiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Availability {
    /// Idle and eligible for assignment.
    Available,
    /// Executing a task (one task at a time, per the paper's model).
    Busy,
    /// Departed the system (short connectivity cycles are the norm).
    Offline,
}

/// Per-category feedback tally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CategoryStats {
    finished: u64,
    positive: u64,
}

/// Everything the platform knows about one worker.
#[derive(Debug, Clone)]
pub struct WorkerProfile {
    id: WorkerId,
    location: GeoPoint,
    availability: Availability,
    by_category: BTreeMap<TaskCategory, CategoryStats>,
    estimator: ExecTimeEstimator,
    assignments_served: u64,
    reward_range: Option<(f64, f64)>,
    /// Times the recovery layer flagged this worker for failing progress
    /// deadlines.
    suspicions: u32,
    /// Multiplicative penalty applied to the Eq. (1) accuracy while the
    /// worker is suspect (1.0 = trusted).
    weight_penalty: f64,
    /// The component epoch of the last mutation that can change
    /// scheduling output (availability, samples, feedback, reward range,
    /// penalty, location); [`ProfilingComponent::touched_since`] is the
    /// same fact as a feed.
    epoch: u64,
}

impl WorkerProfile {
    fn new(id: WorkerId, location: GeoPoint, estimator_config: EstimatorConfig) -> Self {
        WorkerProfile {
            id,
            location,
            availability: Availability::Available,
            by_category: BTreeMap::new(),
            estimator: ExecTimeEstimator::new(estimator_config),
            assignments_served: 0,
            reward_range: None,
            suspicions: 0,
            weight_penalty: 1.0,
            epoch: 0,
        }
    }

    /// The profile's mutation epoch (see the field docs).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The worker's id.
    pub fn id(&self) -> WorkerId {
        self.id
    }

    /// Registered geographic location.
    pub fn location(&self) -> GeoPoint {
        self.location
    }

    /// Current availability.
    pub fn availability(&self) -> Availability {
        self.availability
    }

    /// Total assignments this worker has received (including ones later
    /// recalled); drives the first-`z` training rule.
    pub fn assignments_served(&self) -> u64 {
        self.assignments_served
    }

    /// Completed tasks across all categories.
    pub fn total_finished(&self) -> u64 {
        self.by_category.values().map(|s| s.finished).sum()
    }

    /// Positive feedbacks across all categories.
    pub fn total_positive(&self) -> u64 {
        self.by_category.values().map(|s| s.positive).sum()
    }

    /// Eq. (1) accuracy for `category`:
    /// `Σ PositiveTask / Σ FinishedTask` within the category.
    ///
    /// Fallback ladder for sparse history (the paper trains new workers
    /// at maximum weight): no history in the category → overall accuracy;
    /// no history at all → 1.0 (optimistic).
    /// A suspect worker's tally is additionally scaled by the recovery
    /// layer's [`weight_penalty`](Self::weight_penalty), so repeatedly
    /// unresponsive workers sink in the matching order without being
    /// evicted outright.
    pub fn accuracy(&self, category: TaskCategory) -> f64 {
        let raw = if let Some(s) = self.by_category.get(&category) {
            if s.finished > 0 {
                s.positive as f64 / s.finished as f64
            } else {
                self.overall_accuracy()
            }
        } else {
            self.overall_accuracy()
        };
        raw * self.weight_penalty
    }

    fn overall_accuracy(&self) -> f64 {
        let finished = self.total_finished();
        if finished > 0 {
            self.total_positive() as f64 / finished as f64
        } else {
            1.0
        }
    }

    /// Times the recovery layer marked this worker suspect.
    pub fn suspicions(&self) -> u32 {
        self.suspicions
    }

    /// Current multiplicative penalty on the worker's accuracy weight
    /// (1.0 = trusted, decays per suspicion).
    pub fn weight_penalty(&self) -> f64 {
        self.weight_penalty
    }

    /// The fitted execution-time model (None until the estimator warms
    /// up — 3 completed tasks with the paper defaults).
    pub fn exec_model(&mut self) -> Option<PowerLaw> {
        self.estimator.model()
    }

    /// The latency distribution for the deadline model, per the
    /// configured kind (`None` until the estimator warms up).
    pub fn deadline_dist(&mut self, kind: crate::config::LatencyModelKind) -> Option<FittedModel> {
        use crate::config::LatencyModelKind;
        match kind {
            LatencyModelKind::PowerLaw => self.exec_model().map(FittedModel::PowerLaw),
            LatencyModelKind::Empirical => self.estimator.empirical().map(FittedModel::Empirical),
            LatencyModelKind::Auto { ks_threshold } => self.estimator.auto_model(ks_threshold),
        }
    }

    /// True once the execution-time model is usable.
    pub fn is_profiled(&self) -> bool {
        self.estimator.is_warm()
    }

    /// The worker's acceptable reward range, if they declared one.
    ///
    /// The paper's pricing extension (Sec. III-C, *Task Rewards*): when a
    /// task's reward falls outside this range the `(worker, task)` edge
    /// is never instantiated. `None` means the worker takes any reward.
    pub fn reward_range(&self) -> Option<(f64, f64)> {
        self.reward_range
    }

    /// True when the worker would accept a task paying `reward`.
    pub fn accepts_reward(&self, reward: f64) -> bool {
        range_accepts(self.reward_range, reward)
    }

    /// True when the worker belongs to a batch's pool: available, or
    /// merely online when the policy has no availability signal
    /// (`include_busy`).
    pub(crate) fn in_pool(&self, include_busy: bool) -> bool {
        match self.availability {
            Availability::Available => true,
            Availability::Busy => include_busy,
            Availability::Offline => false,
        }
    }

    /// Per-category feedback tallies as `(category, finished, positive)`
    /// triples, sorted by category (for deterministic checkpoints — the
    /// `BTreeMap` already iterates in key order).
    pub fn category_stats(&self) -> Vec<(TaskCategory, u64, u64)> {
        self.by_category
            .iter()
            .map(|(c, s)| (*c, s.finished, s.positive))
            .collect()
    }

    /// The retained execution-time samples, in observation order.
    pub fn exec_samples(&self) -> &[f64] {
        self.estimator.samples()
    }
}

/// [`WorkerProfile::accepts_reward`] over a declared range, for a reader
/// that holds the range without the profile.
pub(crate) fn range_accepts(range: Option<(f64, f64)>, reward: f64) -> bool {
    match range {
        None => true,
        Some((lo, hi)) => reward >= lo && reward <= hi,
    }
}

/// The change feed never holds fewer epochs than this, however small the
/// registry.
const MIN_FEED_LEN: usize = 1024;

/// Source of [`ProfilingComponent::instance`] values.
static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(0);

fn fresh_instance() -> u64 {
    // Only ever compared for equality; publishes nothing.
    NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed)
}

/// Which worker took each recent epoch — the change feed a graph build
/// reads instead of re-reading every profile.
#[derive(Debug, Clone, Default)]
struct ChangeFeed {
    /// The last epoch handed out. Every scheduling-visible change — a
    /// profile mutation, a registration, a deregistration — takes the
    /// next one, from [`Self::take`] only, so epochs are strictly
    /// increasing and each belongs to exactly one worker.
    last_epoch: u64,
    /// `log[i]` took epoch `log_base + 1 + i`, oldest first, so
    /// `log_base + log.len() == last_epoch`.
    log: VecDeque<WorkerId>,
    log_base: u64,
}

impl ChangeFeed {
    /// Hands the next epoch to `id` and logs it, dropping the oldest
    /// entries beyond `capacity`. Call only once the change is certain to
    /// happen: an epoch nobody holds, or a change without one, breaks the
    /// alignment of `log` with the epochs.
    fn take(&mut self, id: WorkerId, capacity: usize) -> u64 {
        self.last_epoch += 1;
        self.log.push_back(id);
        while self.log.len() > capacity {
            self.log.pop_front();
            self.log_base += 1;
        }
        self.last_epoch
    }
}

/// Registry of worker profiles.
#[derive(Debug)]
pub struct ProfilingComponent {
    /// Registered worker ids, strictly ascending: a lookup is a binary
    /// search over this column.
    ids: Vec<WorkerId>,
    /// `profiles[i]` is the profile of `ids[i]`.
    profiles: Vec<WorkerProfile>,
    /// `profiles` counted by availability (indexed `state as usize`), kept
    /// by every method that registers, removes or moves a worker, so the
    /// pool's size is read in `O(1)`.
    counts: [usize; 3],
    estimator_config: EstimatorConfig,
    feed: ChangeFeed,
    /// Identity of this history: unique per component value in the
    /// process (a clone gets its own), so a reader that remembers
    /// `(instance, epoch)` knows whether the feed it is handed continues
    /// the one it last read.
    instance: u64,
}

impl Clone for ProfilingComponent {
    /// The copy's history may diverge from here on, so it is a new
    /// `Self::instance` to the feed's readers.
    fn clone(&self) -> Self {
        ProfilingComponent {
            ids: self.ids.clone(),
            profiles: self.profiles.clone(),
            counts: self.counts,
            estimator_config: self.estimator_config,
            feed: self.feed.clone(),
            instance: fresh_instance(),
        }
    }
}

impl Default for ProfilingComponent {
    fn default() -> Self {
        Self::new(EstimatorConfig::default())
    }
}

impl ProfilingComponent {
    /// Creates a profiler whose per-worker estimators use
    /// `estimator_config`.
    pub fn new(estimator_config: EstimatorConfig) -> Self {
        ProfilingComponent {
            ids: Vec::new(),
            profiles: Vec::new(),
            counts: [0; 3],
            estimator_config,
            feed: ChangeFeed::default(),
            instance: fresh_instance(),
        }
    }

    /// How many epochs the feed reaches back: twice the registry, so a
    /// reader that builds at least once per two changes per worker never
    /// falls off it, and never fewer than [`MIN_FEED_LEN`] — bounded by
    /// the registry, not by the length of the run.
    fn feed_capacity(&self) -> usize {
        MIN_FEED_LEN.max(2 * self.ids.len())
    }

    /// The last epoch handed out (0 before the first change).
    pub(crate) fn epoch_now(&self) -> u64 {
        self.feed.last_epoch
    }

    /// See the field docs; a feed reader keeps it next to the epoch.
    pub(crate) fn instance(&self) -> u64 {
        self.instance
    }

    /// The workers that took epochs `seen + 1 ..= epoch_now()`, in epoch
    /// order (a worker changed twice appears twice). `None` when the feed
    /// no longer reaches back to `seen`, or `seen` is not an epoch of
    /// this component: the reader must then re-read every profile.
    pub(crate) fn touched_since(&self, seen: u64) -> Option<impl Iterator<Item = WorkerId> + '_> {
        let feed = &self.feed;
        if seen < feed.log_base || seen > feed.last_epoch {
            return None;
        }
        Some(feed.log.range((seen - feed.log_base) as usize..).copied())
    }

    /// Where `id` sits in the registry's columns.
    fn slot(&self, id: WorkerId) -> Result<usize, CoreError> {
        self.ids
            .binary_search(&id)
            .map_err(|_| CoreError::UnknownWorker(id))
    }

    /// [`Self::profile_mut`] plus an epoch bump: every scheduling-visible
    /// mutation below goes through this. An unknown worker takes no epoch.
    fn touch(&mut self, id: WorkerId) -> Result<&mut WorkerProfile, CoreError> {
        let capacity = self.feed_capacity();
        let slot = self.slot(id)?;
        let p = &mut self.profiles[slot];
        p.epoch = self.feed.take(id, capacity);
        Ok(p)
    }

    /// [`Self::touch`] plus a counted move to `availability`: every
    /// availability change after registration goes through this.
    fn set_state(
        &mut self,
        id: WorkerId,
        availability: Availability,
    ) -> Result<&mut WorkerProfile, CoreError> {
        let capacity = self.feed_capacity();
        let slot = self.slot(id)?;
        let p = &mut self.profiles[slot];
        p.epoch = self.feed.take(id, capacity);
        let was = std::mem::replace(&mut p.availability, availability);
        self.counts[was as usize] -= 1;
        self.counts[availability as usize] += 1;
        Ok(p)
    }

    /// Registers a new worker at `location`, initially available.
    pub fn register(&mut self, id: WorkerId, location: GeoPoint) -> Result<(), CoreError> {
        let Err(slot) = self.ids.binary_search(&id) else {
            return Err(CoreError::DuplicateWorker(id));
        };
        let mut profile = WorkerProfile::new(id, location, self.estimator_config);
        profile.epoch = self.feed.take(id, self.feed_capacity());
        self.counts[profile.availability as usize] += 1;
        self.ids.insert(slot, id);
        self.profiles.insert(slot, profile);
        Ok(())
    }

    /// Removes a worker entirely (left the system).
    pub fn deregister(&mut self, id: WorkerId) -> Result<WorkerProfile, CoreError> {
        let slot = self.slot(id)?;
        self.ids.remove(slot);
        let profile = self.profiles.remove(slot);
        self.feed.take(id, self.feed_capacity());
        self.counts[profile.availability as usize] -= 1;
        Ok(profile)
    }

    /// Number of registered workers.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no workers are registered.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Immutable access to a profile.
    pub fn profile(&self, id: WorkerId) -> Result<&WorkerProfile, CoreError> {
        Ok(&self.profiles[self.slot(id)?])
    }

    /// Mutable access to a profile (used by the scheduler for lazily
    /// fitted models).
    pub fn profile_mut(&mut self, id: WorkerId) -> Result<&mut WorkerProfile, CoreError> {
        let slot = self.slot(id)?;
        Ok(&mut self.profiles[slot])
    }

    /// Sets a worker's availability.
    pub fn set_availability(
        &mut self,
        id: WorkerId,
        availability: Availability,
    ) -> Result<(), CoreError> {
        self.set_state(id, availability)?;
        Ok(())
    }

    /// Updates a worker's reported location.
    pub fn set_location(&mut self, id: WorkerId, location: GeoPoint) -> Result<(), CoreError> {
        self.touch(id)?.location = location;
        Ok(())
    }

    /// Declares (or clears, with `None`) a worker's acceptable reward
    /// range — the paper's pricing extension. The range can be changed
    /// at any time *"based on the user's current needs and mood"*.
    pub fn set_reward_range(
        &mut self,
        id: WorkerId,
        range: Option<(f64, f64)>,
    ) -> Result<(), CoreError> {
        let normalized = range.map(|(a, b)| if a <= b { (a, b) } else { (b, a) });
        self.touch(id)?.reward_range = normalized;
        Ok(())
    }

    /// Records that the worker received an assignment (training counter)
    /// and marks them busy.
    pub fn record_assignment(&mut self, id: WorkerId) -> Result<(), CoreError> {
        self.set_state(id, Availability::Busy)?.assignments_served += 1;
        Ok(())
    }

    /// Records a completed task: execution time feeds the power-law
    /// estimator, the requester's feedback updates the category tally,
    /// and the worker becomes available again.
    pub fn record_completion(
        &mut self,
        id: WorkerId,
        category: TaskCategory,
        exec_time: f64,
        positive_feedback: bool,
    ) -> Result<(), CoreError> {
        let p = self.set_state(id, Availability::Available)?;
        p.estimator.observe(exec_time);
        let stats = p.by_category.entry(category).or_default();
        stats.finished += 1;
        if positive_feedback {
            stats.positive += 1;
        }
        Ok(())
    }

    /// Records that a task was recalled from the worker (reassignment):
    /// the worker becomes available but no completion is logged.
    pub fn record_recall(&mut self, id: WorkerId) -> Result<(), CoreError> {
        self.set_availability(id, Availability::Available)
    }

    /// Marks a worker suspect: decays its profile weight by `decay`
    /// (multiplicative, clamped to `(0, 1]`) and bumps its suspicion
    /// count. Returns the new count. The recovery layer calls this after
    /// repeated progress timeouts.
    pub fn mark_suspect(&mut self, id: WorkerId, decay: f64) -> Result<u32, CoreError> {
        let p = self.touch(id)?;
        p.suspicions += 1;
        p.weight_penalty = (p.weight_penalty * decay.clamp(f64::MIN_POSITIVE, 1.0)).max(0.0);
        Ok(p.suspicions)
    }

    /// Ids of all currently available workers, in ascending id order for
    /// deterministic graph construction.
    pub fn available_workers(&self) -> Vec<WorkerId> {
        self.profiles
            .iter()
            .filter(|p| p.in_pool(false))
            .map(|p| p.id)
            .collect()
    }

    /// Ids of all online (available **or** busy) workers, sorted. This is
    /// the Traditional policy's pool: AMT-style systems have no
    /// availability signal, so busy workers receive work too.
    pub fn online_workers(&self) -> Vec<WorkerId> {
        self.profiles
            .iter()
            .filter(|p| p.in_pool(true))
            .map(|p| p.id)
            .collect()
    }

    /// Every profile, mutably (for the lazily fitted models), in
    /// ascending id order: what a feed reader re-reads when
    /// [`Self::touched_since`] cannot tell it what changed.
    pub(crate) fn profiles_mut(&mut self) -> impl Iterator<Item = &mut WorkerProfile> {
        self.profiles.iter_mut()
    }

    /// The lowest-id available worker whose id is at least `from` — a
    /// walk over [`Self::available_workers`] that holds no list, so the
    /// caller may change the component between steps.
    pub fn next_available(&self, from: WorkerId) -> Option<WorkerId> {
        let start = self.ids.partition_point(|&id| id < from);
        self.profiles[start..]
            .iter()
            .find(|p| p.in_pool(false))
            .map(|p| p.id)
    }

    /// How many workers are online — `online_workers().len()`, in `O(1)`.
    pub fn online_count(&self) -> usize {
        self.debug_validate_counts();
        self.counts[Availability::Available as usize] + self.counts[Availability::Busy as usize]
    }

    /// How many workers are available — `available_workers().len()`, in
    /// `O(1)`.
    pub fn available_count(&self) -> usize {
        self.debug_validate_counts();
        self.counts[Availability::Available as usize]
    }

    /// Under `debug-invariants`, recounts the registry by availability and
    /// asserts the kept counters agree, and that the id column is strictly
    /// ascending and names each profile beside it.
    #[inline]
    fn debug_validate_counts(&self) {
        #[cfg(feature = "debug-invariants")]
        {
            let mut recount = [0; 3];
            for p in &self.profiles {
                recount[p.availability as usize] += 1;
            }
            assert_eq!(self.counts, recount, "availability counters diverged");
            assert!(
                self.ids.windows(2).all(|w| w[0] < w[1]),
                "id column unsorted"
            );
            assert!(
                self.ids.iter().eq(self.profiles.iter().map(|p| &p.id)),
                "id column diverged from the profiles"
            );
        }
    }

    /// Iterates over all profiles, in ascending worker-id order.
    pub fn iter(&self) -> impl Iterator<Item = &WorkerProfile> {
        self.profiles.iter()
    }

    /// Rebuilds a worker profile from checkpointed state (see
    /// [`crate::persist`]). The worker is registered as available; the
    /// execution-time samples replay through the estimator in order so
    /// window semantics are preserved.
    #[allow(clippy::too_many_arguments)]
    pub fn restore(
        &mut self,
        id: WorkerId,
        location: GeoPoint,
        assignments_served: u64,
        reward_range: Option<(f64, f64)>,
        category_stats: &[(TaskCategory, u64, u64)],
        exec_samples: &[f64],
    ) -> Result<(), CoreError> {
        self.register(id, location)?;
        let profile = self.touch(id)?;
        profile.assignments_served = assignments_served;
        profile.reward_range = reward_range.map(|(a, b)| if a <= b { (a, b) } else { (b, a) });
        for &(category, finished, positive) in category_stats {
            profile.by_category.insert(
                category,
                CategoryStats {
                    finished,
                    positive: positive.min(finished),
                },
            );
        }
        for &t in exec_samples {
            profile.estimator.observe(t);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn here() -> GeoPoint {
        GeoPoint::new(37.98, 23.72)
    }

    fn profiler_with_worker() -> ProfilingComponent {
        let mut p = ProfilingComponent::default();
        p.register(WorkerId(1), here()).unwrap();
        p
    }

    #[test]
    fn register_and_duplicate() {
        let mut p = profiler_with_worker();
        assert_eq!(p.len(), 1);
        assert!(!p.is_empty());
        assert_eq!(
            p.register(WorkerId(1), here()),
            Err(CoreError::DuplicateWorker(WorkerId(1)))
        );
        assert!(p.profile(WorkerId(2)).is_err());
    }

    #[test]
    fn deregister_removes() {
        let mut p = profiler_with_worker();
        let prof = p.deregister(WorkerId(1)).unwrap();
        assert_eq!(prof.id(), WorkerId(1));
        assert!(p.is_empty());
        assert!(matches!(
            p.deregister(WorkerId(1)),
            Err(CoreError::UnknownWorker(WorkerId(1)))
        ));
    }

    #[test]
    fn availability_transitions() {
        let mut p = profiler_with_worker();
        assert_eq!(
            p.profile(WorkerId(1)).unwrap().availability(),
            Availability::Available
        );
        p.record_assignment(WorkerId(1)).unwrap();
        assert_eq!(
            p.profile(WorkerId(1)).unwrap().availability(),
            Availability::Busy
        );
        assert!(p.available_workers().is_empty());
        p.record_completion(WorkerId(1), TaskCategory(0), 5.0, true)
            .unwrap();
        assert_eq!(
            p.profile(WorkerId(1)).unwrap().availability(),
            Availability::Available
        );
        assert_eq!(p.available_workers(), vec![WorkerId(1)]);
        p.set_availability(WorkerId(1), Availability::Offline)
            .unwrap();
        assert!(p.available_workers().is_empty());
    }

    #[test]
    fn recall_frees_without_completion() {
        let mut p = profiler_with_worker();
        p.record_assignment(WorkerId(1)).unwrap();
        p.record_recall(WorkerId(1)).unwrap();
        let prof = p.profile(WorkerId(1)).unwrap();
        assert_eq!(prof.availability(), Availability::Available);
        assert_eq!(prof.total_finished(), 0);
        assert_eq!(prof.assignments_served(), 1);
    }

    #[test]
    fn eq1_accuracy_per_category() {
        let mut p = profiler_with_worker();
        let cat = TaskCategory(7);
        for positive in [true, true, false, true] {
            p.record_completion(WorkerId(1), cat, 3.0, positive)
                .unwrap();
        }
        let prof = p.profile(WorkerId(1)).unwrap();
        assert!((prof.accuracy(cat) - 0.75).abs() < 1e-12);
        assert_eq!(prof.total_finished(), 4);
        assert_eq!(prof.total_positive(), 3);
    }

    #[test]
    fn accuracy_fallback_ladder() {
        let mut p = profiler_with_worker();
        // Fresh worker: optimistic 1.0 everywhere.
        assert_eq!(
            p.profile(WorkerId(1)).unwrap().accuracy(TaskCategory(0)),
            1.0
        );
        // History only in category 0: category 1 falls back to overall.
        p.record_completion(WorkerId(1), TaskCategory(0), 2.0, false)
            .unwrap();
        p.record_completion(WorkerId(1), TaskCategory(0), 2.0, true)
            .unwrap();
        let prof = p.profile(WorkerId(1)).unwrap();
        assert!((prof.accuracy(TaskCategory(1)) - 0.5).abs() < 1e-12);
        assert!((prof.accuracy(TaskCategory(0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn estimator_warms_after_three_completions() {
        let mut p = profiler_with_worker();
        for t in [4.0, 6.0] {
            p.record_completion(WorkerId(1), TaskCategory(0), t, true)
                .unwrap();
        }
        assert!(!p.profile(WorkerId(1)).unwrap().is_profiled());
        assert!(p.profile_mut(WorkerId(1)).unwrap().exec_model().is_none());
        p.record_completion(WorkerId(1), TaskCategory(0), 9.0, true)
            .unwrap();
        let prof = p.profile_mut(WorkerId(1)).unwrap();
        assert!(prof.is_profiled());
        let model = prof.exec_model().unwrap();
        assert_eq!(model.k_min(), 4.0);
    }

    #[test]
    fn available_workers_sorted() {
        let mut p = ProfilingComponent::default();
        for id in [5, 1, 9, 3] {
            p.register(WorkerId(id), here()).unwrap();
        }
        assert_eq!(
            p.available_workers(),
            vec![WorkerId(1), WorkerId(3), WorkerId(5), WorkerId(9)]
        );
    }

    #[test]
    fn reward_range_declaration() {
        let mut p = profiler_with_worker();
        let prof = p.profile(WorkerId(1)).unwrap();
        assert_eq!(prof.reward_range(), None);
        assert!(prof.accepts_reward(0.0));
        p.set_reward_range(WorkerId(1), Some((0.05, 0.50))).unwrap();
        let prof = p.profile(WorkerId(1)).unwrap();
        assert!(prof.accepts_reward(0.05));
        assert!(prof.accepts_reward(0.50));
        assert!(!prof.accepts_reward(0.01));
        assert!(!prof.accepts_reward(0.51));
        // Reversed bounds are normalised.
        p.set_reward_range(WorkerId(1), Some((0.9, 0.1))).unwrap();
        assert_eq!(
            p.profile(WorkerId(1)).unwrap().reward_range(),
            Some((0.1, 0.9))
        );
        // Clearing restores accept-anything.
        p.set_reward_range(WorkerId(1), None).unwrap();
        assert!(p.profile(WorkerId(1)).unwrap().accepts_reward(1e9));
        assert!(p.set_reward_range(WorkerId(2), None).is_err());
    }

    #[test]
    fn suspicion_decays_accuracy_weight() {
        let mut p = profiler_with_worker();
        let cat = TaskCategory(0);
        for _ in 0..4 {
            p.record_completion(WorkerId(1), cat, 3.0, true).unwrap();
        }
        assert_eq!(p.profile(WorkerId(1)).unwrap().accuracy(cat), 1.0);
        assert_eq!(p.mark_suspect(WorkerId(1), 0.5).unwrap(), 1);
        assert_eq!(p.mark_suspect(WorkerId(1), 0.5).unwrap(), 2);
        let prof = p.profile(WorkerId(1)).unwrap();
        assert_eq!(prof.suspicions(), 2);
        assert!((prof.weight_penalty() - 0.25).abs() < 1e-12);
        assert!((prof.accuracy(cat) - 0.25).abs() < 1e-12);
        // The fallback ladder is penalised too.
        assert!((prof.accuracy(TaskCategory(9)) - 0.25).abs() < 1e-12);
        assert!(p.mark_suspect(WorkerId(9), 0.5).is_err());
    }

    #[test]
    fn epoch_bumps_on_every_scheduling_visible_mutation() {
        let mut p = profiler_with_worker();
        let mut last = p.profile(WorkerId(1)).unwrap().epoch();
        let mut expect_bump = |p: &ProfilingComponent, what: &str| {
            let e = p.profile(WorkerId(1)).unwrap().epoch();
            assert!(e > last, "{what} must bump the epoch");
            last = e;
        };
        p.record_assignment(WorkerId(1)).unwrap();
        expect_bump(&p, "record_assignment");
        p.record_completion(WorkerId(1), TaskCategory(0), 3.0, true)
            .unwrap();
        expect_bump(&p, "record_completion");
        p.record_recall(WorkerId(1)).unwrap();
        expect_bump(&p, "record_recall");
        p.set_availability(WorkerId(1), Availability::Offline)
            .unwrap();
        expect_bump(&p, "set_availability");
        p.set_location(WorkerId(1), GeoPoint::new(40.0, 22.0))
            .unwrap();
        expect_bump(&p, "set_location");
        p.set_reward_range(WorkerId(1), Some((0.1, 0.9))).unwrap();
        expect_bump(&p, "set_reward_range");
        p.mark_suspect(WorkerId(1), 0.5).unwrap();
        expect_bump(&p, "mark_suspect");
        // Lazy model access is output-idempotent and must NOT bump.
        let _ = p.profile_mut(WorkerId(1)).unwrap().exec_model();
        assert_eq!(p.profile(WorkerId(1)).unwrap().epoch(), last);
        // A failed mutation takes no epoch: nobody would hold it.
        let before = p.epoch_now();
        assert!(p.record_assignment(WorkerId(9)).is_err());
        assert!(p.set_reward_range(WorkerId(9), None).is_err());
        assert!(p.deregister(WorkerId(9)).is_err());
        assert!(p.register(WorkerId(1), here()).is_err());
        assert_eq!(p.epoch_now(), before);
        // Leaving changes the pool, so it takes one; re-registration can
        // never reuse an epoch a reader remembers.
        p.deregister(WorkerId(1)).unwrap();
        assert_eq!(p.epoch_now(), before + 1);
        p.register(WorkerId(1), here()).unwrap();
        assert!(p.profile(WorkerId(1)).unwrap().epoch() > last);
        assert_eq!(p.profile(WorkerId(1)).unwrap().epoch(), p.epoch_now());
    }

    /// After any sequence of operations, failed ones included, the feed
    /// read from epoch `e` yields exactly the workers of epochs
    /// `e + 1 ..= epoch_now()`, in order.
    #[test]
    fn feed_yields_exactly_the_workers_of_the_epochs_since() {
        let mut p = ProfilingComponent::default();
        // (epoch, worker) as observed from outside after each operation.
        let mut history: Vec<(u64, WorkerId)> = Vec::new();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..400 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let id = WorkerId((state >> 33) % 6);
            let before = p.epoch_now();
            let done = match (state >> 40) % 6 {
                0 => p.register(id, here()).is_ok(),
                1 => p.deregister(id).is_ok(),
                2 => p.record_assignment(id).is_ok(),
                3 => p.record_completion(id, TaskCategory(0), 3.0, true).is_ok(),
                4 => p.set_availability(id, Availability::Offline).is_ok(),
                _ => p.mark_suspect(id, 0.9).is_ok(),
            };
            assert_eq!(p.epoch_now(), before + u64::from(done));
            if done {
                history.push((p.epoch_now(), id));
                if let Ok(profile) = p.profile(id) {
                    assert_eq!(profile.epoch(), p.epoch_now());
                }
            }
        }
        assert!(history.len() > 100, "the sequence must mostly succeed");
        for seen in 0..=p.epoch_now() {
            let fed: Vec<WorkerId> = p.touched_since(seen).expect("within reach").collect();
            let expected: Vec<WorkerId> = history
                .iter()
                .filter(|(epoch, _)| *epoch > seen)
                .map(|&(_, id)| id)
                .collect();
            assert_eq!(fed, expected, "since {seen}");
        }
        assert!(
            p.touched_since(p.epoch_now() + 1).is_none(),
            "not yet an epoch"
        );
    }

    /// The kept counters answer what walking the registry answers, after
    /// any sequence of operations, failed ones included.
    #[test]
    fn pool_counts_agree_with_the_registry() {
        let mut p = ProfilingComponent::default();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..2_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let id = WorkerId((state >> 33) % 8);
            let _ = match (state >> 40) % 7 {
                0 => p.register(id, here()),
                1 => p.deregister(id).map(|_| ()),
                2 => p.record_assignment(id),
                3 => p.record_completion(id, TaskCategory(0), 3.0, true),
                4 => p.record_recall(id),
                5 => p.set_availability(id, Availability::Offline),
                _ => p.restore(id, here(), 2, None, &[], &[4.0]),
            };
            assert_eq!(p.online_count(), p.online_workers().len());
            assert_eq!(p.available_count(), p.available_workers().len());
            let first = p.available_workers().first().copied();
            assert_eq!(p.next_available(WorkerId(0)), first);
        }
        let walked: Vec<WorkerId> = std::iter::successors(p.next_available(WorkerId(0)), |w| {
            p.next_available(WorkerId(w.0 + 1))
        })
        .collect();
        assert_eq!(walked, p.available_workers());
    }

    /// The feed is bounded by the registry, never by the length of the
    /// run; a reader it no longer reaches back to is told so.
    #[test]
    fn feed_is_bounded_by_the_registry_not_the_run() {
        let mut p = ProfilingComponent::default();
        for id in 0..10 {
            p.register(WorkerId(id), here()).unwrap();
        }
        let start = p.epoch_now();
        for i in 0..100_000u64 {
            p.mark_suspect(WorkerId(i % 10), 1.0).unwrap();
        }
        assert_eq!(p.feed.log.len(), MIN_FEED_LEN);
        assert_eq!(p.feed.log_base + MIN_FEED_LEN as u64, p.epoch_now());
        assert!(p.touched_since(start).is_none());
        let reach = p.epoch_now() - MIN_FEED_LEN as u64;
        assert!(p.touched_since(reach - 1).is_none());
        assert_eq!(p.touched_since(reach).unwrap().count(), MIN_FEED_LEN);
        // A wide registry widens it: two changes per worker.
        for id in 10..1_000 {
            p.register(WorkerId(id), here()).unwrap();
        }
        for i in 0..5_000u64 {
            p.mark_suspect(WorkerId(i % 1_000), 1.0).unwrap();
        }
        assert_eq!(p.feed.log.len(), 2_000);
        // ... and a shrinking one narrows it again.
        for id in 10..1_000 {
            p.deregister(WorkerId(id)).unwrap();
        }
        assert_eq!(p.feed.log.len(), MIN_FEED_LEN);
    }

    /// A clone is its own history to a feed reader.
    #[test]
    fn clone_is_a_new_instance() {
        let p = profiler_with_worker();
        let q = p.clone();
        assert_ne!(p.instance(), q.instance());
        assert_eq!(p.epoch_now(), q.epoch_now());
        assert_eq!(q.available_workers(), p.available_workers());
    }

    #[test]
    fn location_update() {
        let mut p = profiler_with_worker();
        let new_loc = GeoPoint::new(40.64, 22.94);
        p.set_location(WorkerId(1), new_loc).unwrap();
        assert_eq!(p.profile(WorkerId(1)).unwrap().location(), new_loc);
    }
}
