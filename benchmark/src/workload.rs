//! The workloads and the options of one run.

use crate::catalog::WORKLOADS;

/// Seed of the crowd: worker population, locations, behaviour and fault
/// schedule are part of a workload's definition, like its pool size.
/// `--seed` generates what is offered to that crowd. Drawing the crowd
/// from `--seed` too made the *inputs* differ more between seeds than
/// any change under test would: over ten seeds `ontime_frac` spread
/// 3.7 % and `assign_s_p50` 34 % on `cluster-churn`, against 2.4 % and
/// 12 % with the crowd held fixed.
pub const CROWD_SEED: u64 = 2013;

/// One of the five workloads, in catalog order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `des-widepool`
    DesWidepool,
    /// `des-tightpool`
    DesTightpool,
    /// `cluster-churn`
    ClusterChurn,
    /// `wire-steady`
    WireSteady,
    /// `wire-overload`
    WireOverload,
}

impl Workload {
    /// Every workload, in catalog order.
    pub const ALL: [Workload; 5] = [
        Workload::DesWidepool,
        Workload::DesTightpool,
        Workload::ClusterChurn,
        Workload::WireSteady,
        Workload::WireOverload,
    ];

    /// The catalog name.
    pub fn name(self) -> &'static str {
        WORKLOADS[self as usize].name
    }

    /// Looks a workload up by catalog name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload goes over real TCP (as opposed to simulated).
    pub fn is_wire(self) -> bool {
        matches!(self, Workload::WireSteady | Workload::WireOverload)
    }
}

/// Options of one run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or not (end-to-end metrics).
    pub traced: bool,
    /// 1/20-size smoke pass; its result is stamped and refused.
    pub quick: bool,
}

impl Options {
    /// `full` tasks, or a twentieth of them on a quick pass.
    pub fn tasks(&self, full: usize) -> usize {
        if self.quick {
            full / 20
        } else {
            full
        }
    }
}
