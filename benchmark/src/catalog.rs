//! The benchmark's vocabulary: workloads, metrics, units, directions and
//! bounds. `BENCHMARK.json` at the repo root is [`manifest_json`]
//! rendered to a file (`benchmark manifest`); a test holds them equal.

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 15;
/// The seed workloads were calibrated with.
pub const DEFAULT_SEED: u64 = 2013;

/// The command the driver runs from the root of a checkout.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// One workload: its name and the one-line reason it exists.
pub struct WorkloadSpec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload was chosen.
    pub why: &'static str,
}

/// The five workloads.
pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "des-widepool",
        why: "2000 idle workers, 6 tasks/s: wide graphs, build (react-core scheduling + react-prob gates) is most of tick time; matching time not charged, the audit trail fails with it",
    },
    WorkloadSpec {
        name: "des-tightpool",
        why: "300 busy workers, 8 tasks/s: thousands of tiny batches, Eq. (2) recall checks and profile refits dominate; matching time not charged, the audit trail fails with it",
    },
    WorkloadSpec {
        name: "cluster-churn",
        why: "2x4 shards, skewed arrivals, 90% worker dropout: only workload where cluster handoff, rebalance, geo and faults work; matching time not charged, the audit trail fails with it",
    },
    WorkloadSpec {
        name: "wire-steady",
        why: "real TCP, open loop at 300 req/s, below the knee: nothing shed; door or observability overhead shows as user+system CPU per task",
    },
    WorkloadSpec {
        name: "wire-overload",
        why: "same stack at 1200 req/s, about 4x capacity: 429 path and pinned backlog; shed-earlier policies must show here",
    },
];

/// One end-to-end metric.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether higher values are better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

/// The eight end-to-end metrics every workload reports. A bound is per
/// metric, so it follows the workload on which the metric is least
/// steady: about three times the widest interquartile spread over ten
/// seeds seen in the A/A sets, capped at the contract's 0.25 (README,
/// "Bounds"). The wire workloads set every bound but two: `assign_s_p50`
/// and `allocs_per_task` follow `cluster-churn`, whose traces differ most.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("ontime_frac", "ratio", true, 0.10),
    e2e("goodput_per_s", "1/s", true, 0.25),
    e2e("cpu_ms_per_task", "ms", false, 0.25),
    e2e("assign_s_p50", "s", false, 0.20),
    e2e("assign_s_p95", "s", false, 0.20),
    e2e("peak_rss_mb", "MB", false, 0.25),
    e2e("allocs_per_task", "count", false, 0.07),
];

/// One per-layer metric (no bound).
pub struct PerLayer {
    /// Metric name; the prefix is the crate it measures.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether higher values are better.
    pub higher_is_better: bool,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
    }
}

/// The per-layer metrics of a traced run. A metric a workload's layers
/// never touch reads 0 there.
pub const PER_LAYER: [PerLayer; 69] = [
    // Recording observer: spans and counters of the traced repetitions.
    lo("core.tick_us_per_task", "us"),
    lo("core.expire_us_per_task", "us"),
    lo("core.recall_us_per_task", "us"),
    lo("core.build_us_per_task", "us"),
    lo("core.match_us_per_task", "us"),
    lo("core.commit_us_per_task", "us"),
    lo("core.ticks_per_task", "count"),
    lo("core.batches_per_ktask", "count"),
    hi("core.batch_size_mean", "count"),
    lo("core.assigns_per_task", "count"),
    lo("core.reassigns_per_task", "count"),
    lo("core.expired_frac", "ratio"),
    hi("core.rows_reused_per_batch", "count"),
    hi("core.scratch_kb_reused_per_task", "kB"),
    lo("prob.refits_per_task", "count"),
    hi("prob.cdf_memo_hits_per_task", "count"),
    lo("matching.cycles_per_task", "count"),
    lo("matching.ns_per_cycle", "ns"),
    hi("matching.flip_accept_frac", "ratio"),
    lo("matching.conflicts_per_kcycle", "count"),
    lo("matching.rebuilds_per_batch", "count"),
    lo("cluster.shard_tick_us_per_task", "us"),
    lo("cluster.handoffs_per_ktask", "count"),
    lo("cluster.workers_rebalanced", "count"),
    lo("cluster.admission_shed_frac", "ratio"),
    lo("runtime.request_us_mean", "us"),
    lo("runtime.queue_depth_p99", "count"),
    lo("runtime.batches_per_ktask", "count"),
    // Self time by difference.
    lo("crowd.driver_us_per_task", "us"),
    lo("cluster.pass_us_per_task", "us"),
    // Driver reports.
    hi("runtime.accepted_frac", "ratio"),
    lo("runtime.shed_frac", "ratio"),
    lo("runtime.expired_frac", "ratio"),
    lo("runtime.recalls_per_task", "count"),
    lo("runtime.peak_backlog", "count"),
    lo("runtime.stranded", "count"),
    lo("faults.dropouts", "count"),
    lo("faults.abandons", "count"),
    // Open-loop generator.
    lo("load.rtt_ms_p50", "ms"),
    lo("load.rtt_ms_p95", "ms"),
    lo("load.rtt_ms_p99", "ms"),
    lo("load.send_lag_ms_p99", "ms"),
    hi("load.offered_per_s", "1/s"),
    lo("load.transport_errors", "count"),
    // Direct probes of public functions on fixed inputs.
    lo("prob.fit_ns", "ns"),
    lo("prob.edge_gate_ns", "ns"),
    lo("prob.in_flight_check_ns", "ns"),
    lo("core.build_cold_ns_per_edge", "ns"),
    lo("core.build_warm_ns_per_edge", "ns"),
    lo("matching.probe_ns_per_cycle", "ns"),
    hi("matching.weight_ratio_vs_hungarian", "ratio"),
    lo("sim.event_ns", "ns"),
    lo("geo.route_ns", "ns"),
    lo("faults.materialize_us", "us"),
    lo("runtime.http_parse_ns", "ns"),
    lo("runtime.body_parse_ns", "ns"),
    lo("runtime.response_write_ns", "ns"),
    lo("load.trace_build_us_per_ktask", "us"),
    // About the measurement itself.
    lo("obs.trace_overhead_frac", "ratio"),
    lo("bench.kernel_ms_median", "ms"),
    lo("bench.kernel_spread_frac", "ratio"),
    lo("bench.rep_spread_frac", "ratio"),
    lo("bench.unattributed_frac", "ratio"),
    lo("bench.gates_failed", "count"),
    hi("raw.goodput_per_s", "1/s"),
    lo("raw.cpu_ms_per_task", "ms"),
    lo("raw.sys_ms_per_task", "ms"),
    // The traced pass's own outcome, to compare with the untraced runs.
    hi("traced.ontime_frac", "ratio"),
    lo("traced.assign_samples", "count"),
];

fn direction(higher_is_better: bool) -> &'static str {
    if higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

/// `BENCHMARK.json`, byte for byte.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    let command: Vec<String> = COMMAND.iter().map(|c| format!("\"{c}\"")).collect();
    out.push_str(&format!("  \"command\": [{}],\n", command.join(", ")));
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                direction(m.higher_is_better),
                m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                direction(m.higher_is_better)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}
