//! The two wire workloads: `IngestRuntime` fed over real TCP by the
//! open-loop generator.

// analyze: allow-file(no-wall-clock) — benchmark harness: wall-clock
// timing is the measurement.
// analyze: allow-file(net-boundary) — the benchmark is the wire
// boundary's other half, like react-load.

use crate::alloc::allocations;
use crate::gates::{apply, stage_sum};
use crate::loadgen::{drive, read_status, LoadResult};
use crate::probes;
use crate::procstat::{peak_rss_mb, process_cpu, CpuSplit};
use crate::refkernel::{normalise, RefKernel};
use crate::report::RunResult;
use crate::stats::{iqr_frac, median, percentile};
use crate::trace::{observer_metrics, unattributed_frac, Snapshot};
use crate::workload::{Options, Workload, CROWD_SEED};
use react_load::{build_trace, client::submit_request, Shape};
use react_obs::{ObserverHandle, RecordingObserver, SpanKind};
use react_runtime::{IngestConfig, IngestReport, IngestRuntime};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Crowd seconds per wall second.
const TIME_SCALE: f64 = 60.0;
/// Generator connections (= acceptors: an acceptor serves one
/// keep-alive connection at a time).
const SENDERS: usize = 2;
/// Cold starts whose median is `setup_s`.
const COLD_STARTS: usize = 9;
/// Passes an untraced run splits its `--seconds` into, each on a fresh
/// stack with its own trace; a metric is the median over them. The host
/// now and then stalls for most of a second, which on a stack that runs
/// in real time is a burst of late assignments: as one 15 s pass, two
/// runs in ten had `assign_s_p95` at 2.5 and 9.5 crowd-s where the others
/// read 1.5–1.7. A stall spoils one pass of three and the median drops it.
const PASSES: usize = 3;

/// Offered rate in tasks per crowd second.
fn rate(workload: Workload) -> f64 {
    match workload {
        Workload::WireSteady => 5.0,
        Workload::WireOverload => 20.0,
        sim => unreachable!("{} is not a wire workload", sim.name()),
    }
}

/// The stack both wire workloads run on. The crowd is the workload's
/// own (`CROWD_SEED`); `--seed` generates the requests offered to it.
///
/// The door closes a keep-alive connection that is silent for
/// `idle_timeout`, 0.5 s by default. The generator's gaps are
/// milliseconds, but the shared host now and then stalls a virtual CPU,
/// and the sender threads' timers with it, for longer than that: one run
/// in forty lost both connections 2 s in, and everything still to be
/// sent became a transport error. Ten seconds outlast any stall a run
/// would survive anyway (the generator gives an answer five).
fn ingest_config() -> IngestConfig {
    IngestConfig {
        n_workers: 240,
        time_scale: TIME_SCALE,
        seed: CROWD_SEED,
        queue_capacity: 256,
        backlog_watermark: 512,
        acceptors: SENDERS,
        idle_timeout: Duration::from_secs(10),
        ..IngestConfig::default()
    }
}

/// One cold start: `IngestRuntime::start()` → first `202` on a fresh
/// connection → `shutdown()`. Returns wall seconds, or `None` when the
/// door did not answer `202`.
fn cold_start() -> Option<f64> {
    let config = IngestConfig {
        // Nothing to wait for: the one probe task is force-drained.
        drain_grace: 0.0,
        ..ingest_config()
    };
    let probe = build_trace(Shape::Poisson, 1.0, 1, CROWD_SEED);
    let start = Instant::now();
    let handle = IngestRuntime::new(config).start().ok()?;
    let status = TcpStream::connect(handle.local_addr()).and_then(|mut stream| {
        stream.write_all(&submit_request(&probe[0]))?;
        read_status(&mut BufReader::new(stream))
    });
    let report = handle.shutdown();
    (matches!(status, Ok(202)) && report.conserved()).then(|| start.elapsed().as_secs_f64())
}

/// One pass of the workload. CPU and allocations cover send phase +
/// drain.
struct Pass {
    report: IngestReport,
    load: LoadResult,
    /// Wall seconds `shutdown()` took to drain what was in flight.
    drain_seconds: f64,
    cpu: CpuSplit,
    allocs: u64,
    offered: u64,
}

impl Pass {
    /// On-time completions per wall second of send phase + drain: the
    /// time the stack took to finish what it was offered. Over the send
    /// phase alone, whose length the seeded trace fixes, it would be
    /// `ontime_frac` times the offered rate and say nothing new.
    fn goodput(&self) -> f64 {
        self.report.met_deadline as f64 / (self.load.send_seconds + self.drain_seconds)
    }
}

/// Pass `index` of a run: `--seconds / PASSES` of arrivals, generated
/// from `--seed` and the index.
fn pass(opts: &Options, index: usize, observer: Option<ObserverHandle>) -> std::io::Result<Pass> {
    let rate = rate(opts.workload);
    let n_tasks = opts
        .tasks((rate * TIME_SCALE * opts.seconds / PASSES as f64).round() as usize)
        .max(1);
    let seed = opts
        .seed
        .wrapping_mul(PASSES as u64)
        .wrapping_add(index as u64);
    let trace = build_trace(Shape::Poisson, rate, n_tasks, seed);
    let mut runtime = IngestRuntime::new(ingest_config());
    if let Some(observer) = observer {
        runtime = runtime.with_observer(observer);
    }
    let handle = runtime.start()?;
    let (allocs0, cpu0) = (allocations(), process_cpu());
    let load = drive(handle.local_addr(), &trace, TIME_SCALE, SENDERS);
    let drain = Instant::now();
    let report = handle.shutdown();
    Ok(Pass {
        drain_seconds: drain.elapsed().as_secs_f64(),
        cpu: process_cpu() - cpu0,
        allocs: allocations() - allocs0,
        offered: n_tasks as u64,
        report,
        load,
    })
}

/// Output checks: every request answered 202 or 429, the door's counts
/// match the generator's, and the conservation identity closes.
fn check(result: &mut RunResult, pass: &Pass) {
    let (report, load) = (&pass.report, &pass.load);
    result.attempted += pass.offered;
    result.failed += load.transport_errors + load.bad_status;
    if load.transport_errors + load.bad_status > 0 {
        result.violate(format!(
            "{} transport error(s), {} response(s) other than 202/429",
            load.transport_errors, load.bad_status
        ));
    }
    if !report.conserved() {
        let closed = report.completed + report.expired + report.shed_server + report.stranded;
        result.failed += (report.accepted + report.injected_burst).abs_diff(closed);
        result.violate("IngestReport::conserved() does not hold");
    }
    let door = (report.offered, report.accepted, report.shed_door);
    let generator = (load.sent, load.accepted, load.shed);
    if door != generator || load.sent != pass.offered {
        result.violate(format!(
            "door (offered, accepted, shed) {door:?} != generator {generator:?} of {} due",
            pass.offered
        ));
    }
    if report.stranded > 0 {
        result.violate(format!("{} task(s) stranded at drain", report.stranded));
    }
}

/// An untraced run: the eight end-to-end metrics.
pub fn end_to_end(opts: &Options) -> RunResult {
    let mut result = RunResult::default();

    let mut setups = Vec::with_capacity(COLD_STARTS);
    for _ in 0..COLD_STARTS {
        match cold_start() {
            Some(seconds) => setups.push(seconds),
            None => result.violate("cold start was not answered 202"),
        }
    }

    let mut passes = Vec::with_capacity(PASSES);
    for index in 0..PASSES {
        match pass(opts, index, None) {
            Ok(pass) => {
                check(&mut result, &pass);
                passes.push(pass);
            }
            Err(err) => {
                result.violate(format!("ingest runtime did not start: {err}"));
                return result;
            }
        }
    }
    if setups.is_empty()
        || passes
            .iter()
            .any(|pass| pass.report.assign_latencies.is_empty())
    {
        result.violate("no task was ever assigned");
        return result;
    }

    let over_passes =
        |value: fn(&Pass) -> f64| median(&passes.iter().map(value).collect::<Vec<_>>());
    let m = &mut result.metrics;
    m.set("setup_s", median(&setups));
    m.set(
        "ontime_frac",
        over_passes(|p| p.report.met_deadline as f64 / p.offered as f64),
    );
    // Neither is normalised: the open-loop clock sets the pace, and the
    // CPU a pass takes does not follow the kernel (README, "Why timings
    // are in reference seconds").
    m.set("goodput_per_s", over_passes(Pass::goodput));
    m.set(
        "cpu_ms_per_task",
        over_passes(|p| p.cpu.total() * 1e3 / p.offered as f64),
    );
    m.set(
        "assign_s_p50",
        over_passes(|p| percentile(&p.report.assign_latencies, 50.0)),
    );
    m.set(
        "assign_s_p95",
        over_passes(|p| percentile(&p.report.assign_latencies, 95.0)),
    );
    m.set("peak_rss_mb", peak_rss_mb());
    m.set(
        "allocs_per_task",
        over_passes(|p| p.allocs as f64 / p.offered as f64),
    );
    for pass in &passes {
        let tasks = pass.offered as f64;
        let latencies = &pass.report.assign_latencies;
        result.notes.push(format!(
            "{} tasks offered in {:.2} s, drained {:.2} s later, {} on time; \
             {} assignment-latency samples, {} beyond p95 ({:.3} s); \
             CPU per task {:.4} ms user + {:.4} ms system",
            pass.offered,
            pass.load.send_seconds,
            pass.drain_seconds,
            pass.report.met_deadline,
            latencies.len(),
            latencies.len() / 20,
            percentile(latencies, 95.0),
            pass.cpu.user * 1e3 / tasks,
            pass.cpu.system * 1e3 / tasks
        ));
    }
    result
}

/// Per-layer metrics no wire workload has a source for.
const NOT_ON_WIRE: [&str; 5] = [
    "crowd.driver_us_per_task",
    "cluster.pass_us_per_task",
    "faults.dropouts",
    "faults.abandons",
    "bench.rep_spread_frac",
];

/// A traced run: the first pass of the run untraced, then the same pass
/// with the recording observer attached through
/// `IngestRuntime::with_observer`.
pub fn traced(opts: &Options) -> RunResult {
    let mut result = RunResult::default();
    let mut kernel = RefKernel::new();

    let plain = pass(opts, 0, None);
    let recorder = RecordingObserver::new();
    let handle = Arc::new(recorder.clone()) as ObserverHandle;
    // Span times are the one thing normalised on the wire: they are
    // compute, and are read next to the simulated workloads' spans.
    let k_before = kernel.run();
    let observed = pass(opts, 0, Some(handle));
    let k_after = kernel.run();
    let (plain, observed) = match (plain, observed) {
        (Ok(plain), Ok(observed)) => (plain, observed),
        (Err(err), _) | (_, Err(err)) => {
            result.violate(format!("ingest runtime did not start: {err}"));
            return result;
        }
    };
    check(&mut result, &observed);
    let scale = normalise(1.0, k_before, k_after);
    let snapshot = [Snapshot::new(recorder, scale)];
    let tasks = observed.offered as f64;
    let report = &observed.report;
    let mut history = vec![k_before, k_after];

    let m = &mut result.metrics;
    observer_metrics(m, &snapshot, observed.offered);
    for name in NOT_ON_WIRE {
        m.set(name, 0.0);
    }
    m.set(
        "runtime.batches_per_ktask",
        report.batches as f64 * 1e3 / tasks,
    );
    m.set("runtime.accepted_frac", report.accepted as f64 / tasks);
    m.set("runtime.shed_frac", report.shed_door as f64 / tasks);
    m.set(
        "runtime.expired_frac",
        (report.expired + report.shed_server) as f64 / tasks,
    );
    m.set("runtime.recalls_per_task", report.recalls as f64 / tasks);
    m.set("runtime.peak_backlog", report.peak_backlog as f64);
    m.set("runtime.stranded", report.stranded as f64);

    let load = &observed.load;
    let pct = |sorted: &[f64], p| {
        if sorted.is_empty() {
            0.0
        } else {
            percentile(sorted, p)
        }
    };
    m.set("load.rtt_ms_p50", pct(&load.rtt_ms, 50.0));
    m.set("load.rtt_ms_p95", pct(&load.rtt_ms, 95.0));
    m.set("load.rtt_ms_p99", pct(&load.rtt_ms, 99.0));
    let lag_p99 = pct(&load.lag_ms, 99.0);
    m.set("load.send_lag_ms_p99", lag_p99);
    m.set("load.offered_per_s", load.sent as f64 / load.send_seconds);
    m.set("load.transport_errors", load.transport_errors as f64);

    history.extend(probes::run(m));
    m.set(
        "obs.trace_overhead_frac",
        1.0 - observed.goodput() / plain.goodput(),
    );
    m.set("bench.kernel_ms_median", median(&history) * 1e3);
    m.set("bench.kernel_spread_frac", iqr_frac(&history));
    let unattributed = unattributed_frac(m);
    m.set("bench.unattributed_frac", unattributed);
    m.set("raw.goodput_per_s", observed.goodput());
    m.set("raw.cpu_ms_per_task", observed.cpu.total() * 1e3 / tasks);
    m.set("raw.sys_ms_per_task", observed.cpu.system * 1e3 / tasks);
    m.set("traced.ontime_frac", report.met_deadline as f64 / tasks);
    m.set(
        "traced.assign_samples",
        report.assign_latencies.len() as f64,
    );

    let shed = m.get("runtime.shed_frac").unwrap_or(0.0);
    let tick_ms = 1e3 / TIME_SCALE;
    let mut verdicts = vec![
        match opts.workload {
            Workload::WireSteady => (
                format!("door shed share {shed:.4} = 0"),
                report.shed_door == 0,
            ),
            _ => (format!("door shed share {shed:.4} >= 0.2"), shed >= 0.2),
        },
        (
            format!("generator lateness p99 {lag_p99:.3} ms < one tick ({tick_ms:.1} ms)"),
            lag_p99 < tick_ms,
        ),
    ];
    let region = observed.load.send_seconds * scale;
    let outside_ticks_us = (region - snapshot[0].span_total(SpanKind::Tick)) * 1e6 / tasks;
    verdicts.extend(stage_sum(unattributed, outside_ticks_us));
    apply(&mut result, verdicts);
    result
}
