//! Cluster-level policies: handoff, rebalancing and admission control.
//!
//! Each mechanism is optional and independently tunable; `None` disables
//! it entirely, and [`ClusterPolicy::single_tier`] disables all three —
//! the configuration under which a cluster run is the paper's plain
//! multi-region decomposition.

use std::fmt;

/// Cross-shard task handoff: when a shard's live worker pool collapses
/// below `pool_floor` (the same trigger the recovery layer's shedding
/// uses), queued tasks are evicted and re-submitted on the edge-adjacent
/// shard with the most online workers, instead of being dropped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HandoffPolicy {
    /// Online-worker count below which the shard starts handing off its
    /// queue. Mirrors `RecoveryConfig::pool_floor`.
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
}

impl Default for ClusterPolicy {
    fn default() -> Self {
        Self::coupled()
    }
}

/// Canonical manifest form. [`ClusterPolicy::from_manifest`] parses
/// exactly this grammar, so `from_manifest(&policy.to_string())`
/// round-trips every policy.
impl fmt::Display for ClusterPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == ClusterPolicy::single_tier() {
            return write!(f, "single-tier");
        }
        let mut parts: Vec<String> = Vec::new();
        if self.split_threshold != u64::MAX {
            parts.push(format!("split({})", self.split_threshold));
        }
        if let Some(h) = self.handoff {
            parts.push(format!(
                "handoff(floor={},max={})",
                h.pool_floor, h.max_per_tick
            ));
        }
        if let Some(r) = self.rebalance {
            parts.push(format!(
                "rebalance(period={},min_idle={},max_moves={})",
                r.period_ticks, r.min_idle, r.max_moves
            ));
        }
        if let Some(a) = self.admission {
            parts.push(format!("admission({})", a.max_open_tasks));
        }
        write!(f, "{}", parts.join("+"))
    }
}

impl ClusterPolicy {
    /// Parses the declarative manifest form of a policy, so cluster
    /// admission/rebalance axes are expressible in sweep manifests.
    ///
    /// Accepted forms:
    /// - `single-tier` — [`ClusterPolicy::single_tier`];
    /// - `coupled` — [`ClusterPolicy::coupled`];
    /// - the canonical compound grammar [`Display`](fmt::Display) emits:
    ///   `+`-joined components out of `split(threshold)`,
    ///   `handoff(floor=..,max=..)`,
    ///   `rebalance(period=..,min_idle=..,max_moves=..)` and
    ///   `admission(max_open)`. Omitted mechanisms stay disabled.
    pub fn from_manifest(spec: &str) -> Result<ClusterPolicy, String> {
        let spec = spec.trim();
        match spec {
            "" => return Err("empty cluster policy spec".to_string()),
            "single-tier" | "single_tier" => return Ok(ClusterPolicy::single_tier()),
            "coupled" => return Ok(ClusterPolicy::coupled()),
            _ => {}
        }
        let mut policy = ClusterPolicy::single_tier();
        for part in spec.split('+') {
            let (name, args) = split_component(part.trim())?;
            match name {
                "split" => policy.split_threshold = parse_u64("split threshold", args)?,
                "handoff" => {
                    let kv = parse_kv(name, args, &["floor", "max"])?;
                    policy.handoff = Some(HandoffPolicy {
                        pool_floor: parse_usize("handoff.floor", req(name, &kv, "floor")?)?,
                        max_per_tick: parse_usize("handoff.max", req(name, &kv, "max")?)?,
                    });
                }
                "rebalance" => {
                    let kv = parse_kv(name, args, &["period", "min_idle", "max_moves"])?;
                    policy.rebalance = Some(RebalancePolicy {
                        period_ticks: parse_u64("rebalance.period", req(name, &kv, "period")?)?,
                        min_idle: parse_usize("rebalance.min_idle", req(name, &kv, "min_idle")?)?,
                        max_moves: parse_usize(
                            "rebalance.max_moves",
                            req(name, &kv, "max_moves")?,
                        )?,
                    });
                }
                "admission" => {
                    policy.admission = Some(AdmissionPolicy {
                        max_open_tasks: parse_usize("admission cap", args)?,
                    });
                }
                other => {
                    return Err(format!(
                        "unknown cluster policy component '{other}' (expected \
                         single-tier, coupled, split, handoff, rebalance or admission)"
                    ))
                }
            }
        }
        Ok(policy)
    }
}

fn split_component(part: &str) -> Result<(&str, &str), String> {
    let Some(open) = part.find('(') else {
        return Err(format!("policy component '{part}' is missing '(…)'"));
    };
    let Some(stripped) = part.strip_suffix(')') else {
        return Err(format!(
            "policy component '{part}' is missing the closing ')'"
        ));
    };
    Ok((part[..open].trim(), &stripped[open + 1..]))
}

fn parse_kv<'a>(
    component: &str,
    args: &'a str,
    allowed: &[&str],
) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut out = Vec::new();
    for pair in args.split(',') {
        let Some((k, v)) = pair.split_once('=') else {
            return Err(format!("{component}: expected key=value, got '{pair}'"));
        };
        let k = k.trim();
        if !allowed.contains(&k) {
            return Err(format!(
                "{component}: unknown key '{k}' (expected one of {allowed:?})"
            ));
        }
        out.push((k, v.trim()));
    }
    Ok(out)
}

fn req<'a>(component: &str, kv: &[(&str, &'a str)], key: &str) -> Result<&'a str, String> {
    kv.iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| *v)
        .ok_or_else(|| format!("{component}: missing required key '{key}'"))
}

fn parse_u64(what: &str, s: &str) -> Result<u64, String> {
    s.trim()
        .parse::<u64>()
        .map_err(|_| format!("{what}: '{s}' is not a non-negative integer"))
}

fn parse_usize(what: &str, s: &str) -> Result<usize, String> {
    s.trim()
        .parse::<usize>()
        .map_err(|_| format!("{what}: '{s}' is not a non-negative integer"))
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

    #[test]
    fn display_round_trips_through_from_manifest() {
        let policies = [
            ClusterPolicy::single_tier(),
            ClusterPolicy::coupled(),
            ClusterPolicy {
                split_threshold: 1000,
                handoff: Some(HandoffPolicy {
                    pool_floor: 5,
                    max_per_tick: 16,
                }),
                rebalance: None,
                admission: Some(AdmissionPolicy {
                    max_open_tasks: 4096,
                }),
            },
            ClusterPolicy {
                split_threshold: u64::MAX,
                handoff: None,
                rebalance: Some(RebalancePolicy {
                    period_ticks: 7,
                    min_idle: 1,
                    max_moves: 9,
                }),
                admission: None,
            },
        ];
        for policy in policies {
            let spec = policy.to_string();
            let parsed = ClusterPolicy::from_manifest(&spec)
                .unwrap_or_else(|e| panic!("'{spec}' failed to parse: {e}"));
            assert_eq!(parsed, policy, "round-trip diverged for '{spec}'");
        }
    }

    #[test]
    fn from_manifest_accepts_named_presets() {
        assert_eq!(
            ClusterPolicy::from_manifest("single-tier"),
            Ok(ClusterPolicy::single_tier())
        );
        assert_eq!(
            ClusterPolicy::from_manifest("coupled"),
            Ok(ClusterPolicy::coupled())
        );
        let p = ClusterPolicy::from_manifest("admission(128)").unwrap();
        assert_eq!(p.admission.map(|a| a.max_open_tasks), Some(128));
        assert!(p.handoff.is_none() && p.rebalance.is_none());
    }

    #[test]
    fn from_manifest_rejects_malformed_specs() {
        for bad in [
            "",
            "bogus(1)",
            "handoff(floor=3)",      // missing max
            "handoff(floor=3,max=8", // missing )
            "rebalance(period=x,min_idle=1,max_moves=2)",
            "admission(-5)",
            "split(lots)",
        ] {
            assert!(
                ClusterPolicy::from_manifest(bad).is_err(),
                "'{bad}' should have been rejected"
            );
        }
    }
}
