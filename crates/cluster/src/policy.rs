//! Cluster-level policies: handoff, rebalancing and admission control.
//!
//! Each mechanism is optional and independently tunable; `None` disables
//! it entirely, and [`ClusterPolicy::single_tier`] disables all three —
//! the configuration under which a cluster run is the paper's plain
//! multi-region decomposition.

/// Cross-shard task handoff: when a shard's live worker pool collapses
/// below `pool_floor`, queued tasks are evicted and re-submitted on the
/// edge-adjacent shard with the most online workers instead of expiring
/// where no one can serve them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HandoffPolicy {
    /// Online-worker count below which the shard starts handing off its
    /// queue.
    pub pool_floor: usize,
    /// At most this many tasks leave a shard per cluster tick — a drip,
    /// not a flood, so the receiving shard's batch sizes stay bounded.
    pub max_per_tick: usize,
}

impl Default for HandoffPolicy {
    fn default() -> Self {
        HandoffPolicy {
            pool_floor: 3,
            max_per_tick: 8,
        }
    }
}

/// Periodic idle-worker rebalancing between adjacent shards, after
/// kern's `relocate_free_cabs`: every `period_ticks` cluster ticks, a
/// shard with surplus idle workers relocates some of them to the
/// edge-adjacent shard with the largest backlog deficit. Relocated
/// workers re-enter the target shard at a position drawn from the
/// dedicated `cluster.rebalance` RNG stream, keeping runs
/// bit-reproducible from the master seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalancePolicy {
    /// Cluster ticks between rebalance passes.
    pub period_ticks: u64,
    /// A donor shard always keeps at least this many idle workers.
    pub min_idle: usize,
    /// At most this many workers move out of one shard per pass.
    pub max_moves: usize,
}

impl Default for RebalancePolicy {
    fn default() -> Self {
        RebalancePolicy {
            period_ticks: 5,
            min_idle: 2,
            max_moves: 4,
        }
    }
}

/// Hard per-shard admission cap (kern `MAXLCM`-style cutoff): a task
/// routed to a shard whose open-task count (queued + in-flight) is at
/// the cap is refused at the door and counted as shed, instead of
/// melting the matcher with an unboundedly growing batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionPolicy {
    /// Maximum open tasks a shard accepts before shedding new arrivals.
    pub max_open_tasks: usize,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            max_open_tasks: 512,
        }
    }
}

/// The full cluster policy bundle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterPolicy {
    /// Router load at which a cell is split into four sub-cells at
    /// cluster construction time (projected-load pre-splitting).
    /// `u64::MAX` disables splitting.
    pub split_threshold: u64,
    /// Cross-shard handoff, or `None` to disable.
    pub handoff: Option<HandoffPolicy>,
    /// Idle-worker rebalancing, or `None` to disable.
    pub rebalance: Option<RebalancePolicy>,
    /// Per-shard admission cap, or `None` for unbounded admission.
    pub admission: Option<AdmissionPolicy>,
}

impl ClusterPolicy {
    /// All mechanisms off: shards are fully independent, as in the
    /// multi-region decomposition.
    pub fn single_tier() -> Self {
        ClusterPolicy {
            split_threshold: u64::MAX,
            handoff: None,
            rebalance: None,
            admission: None,
        }
    }

    /// The coupled default: handoff, rebalancing and admission all on
    /// with their default tunings, no pre-splitting.
    pub fn coupled() -> Self {
        ClusterPolicy {
            split_threshold: u64::MAX,
            handoff: Some(HandoffPolicy::default()),
            rebalance: Some(RebalancePolicy::default()),
            admission: Some(AdmissionPolicy::default()),
        }
    }

    /// Checks the policy for values a cluster cannot be built from.
    /// `Cluster::new` calls this.
    pub fn validate(&self) -> Result<(), String> {
        // A child cell inherits a quarter of its parent's load, so any
        // threshold of at least 1 stops splitting; 0 never does.
        if self.split_threshold == 0 {
            return Err("split_threshold must be at least 1, got 0".to_string());
        }
        Ok(())
    }
}

impl Default for ClusterPolicy {
    fn default() -> Self {
        Self::coupled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_tier_disables_everything() {
        let p = ClusterPolicy::single_tier();
        assert!(p.handoff.is_none());
        assert!(p.rebalance.is_none());
        assert!(p.admission.is_none());
        assert_eq!(p.split_threshold, u64::MAX);
    }

    #[test]
    fn coupled_is_the_default_with_everything_on() {
        let p = ClusterPolicy::default();
        assert_eq!(p, ClusterPolicy::coupled());
        assert!(p.handoff.is_some());
        assert!(p.rebalance.is_some());
        assert!(p.admission.is_some());
    }
}
