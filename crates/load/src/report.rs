//! Load-run orchestration and the stamped JSON report.
//!
//! [`run`] self-hosts an [`IngestRuntime`], replays a seeded trace
//! through real TCP connections with the open-loop client, shuts the
//! stack down and folds the door counters, scheduler report and
//! latency percentiles into one [`LoadRunReport`].

use react_metrics::{write_stamped, ArtifactOutcome, KpiRow, Provenance};
use react_runtime::{IngestConfig, IngestRuntime, Stopwatch};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;

use crate::client;
use crate::trace::{build_trace, trace_hash, trace_span, Shape};

/// Parameters of one load run.
#[derive(Debug, Clone)]
pub struct LoadParams {
    /// RNG seed (trace + worker population + behaviour).
    pub seed: u64,
    /// Arrival-process shape.
    pub shape: Shape,
    /// Offered rate, tasks per crowd second.
    pub rate: f64,
    /// Trace length.
    pub tasks: usize,
    /// Crowd seconds per wall second.
    pub time_scale: f64,
    /// Crowd workers in the hosted runtime.
    pub n_workers: usize,
    /// Sender threads in the replay client.
    pub senders: usize,
    /// Acceptor threads at the door.
    pub acceptors: usize,
    /// Bounded door→scheduler queue capacity.
    pub queue_capacity: usize,
    /// Backlog watermark above which the door sheds.
    pub backlog_watermark: usize,
}

impl Default for LoadParams {
    fn default() -> Self {
        LoadParams {
            seed: 2013,
            shape: Shape::Poisson,
            // 9.375 tasks per crowd second (the paper's Fig. 5 rate);
            // at the default compression this offers ~2M requests per
            // wall hour through the TCP door.
            rate: 9.375,
            tasks: 4000,
            time_scale: 60.0,
            n_workers: 60,
            senders: 4,
            // One acceptor per sender thread: an acceptor serves one
            // keep-alive connection at a time, so a 4-sender replay
            // needs 4 to keep every connection live for the whole run.
            acceptors: 4,
            queue_capacity: 256,
            backlog_watermark: 512,
        }
    }
}

impl LoadParams {
    /// A CI-sized variant (~seconds of wall time). Senders match the
    /// acceptor count: each acceptor serves one keep-alive connection
    /// at a time, so surplus senders would stall in read timeouts on a
    /// slow CI box instead of measuring the door.
    pub fn quick() -> Self {
        LoadParams {
            tasks: 1200,
            n_workers: 40,
            senders: 2,
            ..LoadParams::default()
        }
    }
}

/// Everything one load run measured.
#[derive(Debug, Clone)]
pub struct LoadRunReport {
    /// The parameters the run used.
    pub params: LoadParams,
    /// FNV-1a 64 fingerprint of the replayed trace.
    pub trace_hash: u64,
    /// Wall seconds spent replaying (client-side, offer to last shutdown).
    pub wall_seconds: f64,
    /// Crowd seconds the trace spans.
    pub crowd_span: f64,
    /// Requests the client put on the wire.
    pub sent: u64,
    /// Requests lost to transport errors.
    pub transport_errors: u64,
    /// `POST /tasks` requests the door saw.
    pub offered: u64,
    /// Submissions admitted.
    pub accepted: u64,
    /// Submissions shed with 429.
    pub shed_door: u64,
    /// Malformed/unroutable requests.
    pub rejected: u64,
    /// Tasks completed.
    pub completed: u64,
    /// Completions inside the deadline.
    pub met_deadline: u64,
    /// Tasks that expired.
    pub expired: u64,
    /// Tasks the scheduler shed or force-drained.
    pub shed_server: u64,
    /// Eq. (2)/timeout recalls issued.
    pub recalls: u64,
    /// Matching batches run.
    pub batches: u64,
    /// Conservation identity verdict from the scheduler.
    pub conserved: bool,
    /// On-time completions per wall hour — the headline.
    pub goodput_per_hour: f64,
    /// On-time completions as a fraction of offered requests.
    pub ontime_frac: f64,
    /// Offered wall throughput, requests per hour.
    pub offered_per_hour: f64,
    /// Door shed fraction of offered load.
    pub shed_rate: f64,
    /// Median door-to-assignment latency, crowd seconds.
    pub p50_assign: f64,
    /// 99th percentile assignment latency, crowd seconds.
    pub p99_assign: f64,
    /// 99.9th percentile assignment latency, crowd seconds.
    pub p999_assign: f64,
    /// Assignments the percentiles are computed over.
    pub assignments_measured: u64,
    /// Peak bounded-queue depth.
    pub peak_queue_depth: usize,
    /// Peak door-visible backlog.
    pub peak_backlog: usize,
}

/// Nearest-rank percentile of an ascending-sorted slice; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Runs one load scenario end to end (hosted runtime + TCP replay).
pub fn run(params: &LoadParams) -> std::io::Result<LoadRunReport> {
    let trace = build_trace(params.shape, params.rate, params.tasks, params.seed);
    let hash = trace_hash(&trace);
    let span = trace_span(&trace);
    let config = IngestConfig {
        n_workers: params.n_workers,
        time_scale: params.time_scale,
        seed: params.seed,
        queue_capacity: params.queue_capacity,
        backlog_watermark: params.backlog_watermark,
        acceptors: params.acceptors,
        ..IngestConfig::default()
    };
    let handle = IngestRuntime::new(config).start()?;
    let watch = Stopwatch::start();
    let stats = client::replay(handle.local_addr(), handle.clock(), &trace, params.senders);
    let report = handle.shutdown();
    let wall = watch.elapsed_secs();

    let hours = (wall / 3600.0).max(1e-9);
    Ok(LoadRunReport {
        params: params.clone(),
        trace_hash: hash,
        wall_seconds: wall,
        crowd_span: span,
        sent: stats.sent.load(Ordering::Relaxed),
        transport_errors: stats.transport_errors.load(Ordering::Relaxed),
        offered: report.offered,
        accepted: report.accepted,
        shed_door: report.shed_door,
        rejected: report.rejected,
        completed: report.completed,
        met_deadline: report.met_deadline,
        expired: report.expired,
        shed_server: report.shed_server,
        recalls: report.recalls,
        batches: report.batches,
        conserved: report.conserved(),
        goodput_per_hour: report.met_deadline as f64 / hours,
        ontime_frac: report.met_deadline as f64 / report.offered.max(1) as f64,
        offered_per_hour: report.offered as f64 / hours,
        shed_rate: report.shed_rate(),
        p50_assign: percentile(&report.assign_latencies, 50.0),
        p99_assign: percentile(&report.assign_latencies, 99.0),
        p999_assign: percentile(&report.assign_latencies, 99.9),
        assignments_measured: report.assign_latencies.len() as u64,
        peak_queue_depth: report.peak_queue_depth,
        peak_backlog: report.peak_backlog,
    })
}

/// Where the report lands when `--out` is not given: under the
/// workspace's `target/`, so a run leaves nothing in the checkout.
pub fn default_json_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/react-load.json")
}

/// Serializes one or more runs as one JSON document (hand-rolled; the
/// workspace carries no serializer dependency).
pub fn to_json_with(runs: &[LoadRunReport], provenance: Option<&Provenance>) -> String {
    let mut out = String::from("{\n  \"benchmark\": \"load\",\n");
    if let Some(p) = provenance {
        out.push_str(&format!("  \"provenance\": {},\n", p.to_json()));
    }
    out.push_str("  \"runs\": [\n");
    let rendered: Vec<String> = runs.iter().map(run_json).collect();
    out.push_str(&rendered.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

fn run_json(r: &LoadRunReport) -> String {
    format!(
        "    {{\"shape\": \"{}\", \"goodput_per_hour\": {:.1}, \"ontime_frac\": {:.6}, \
\"seed\": {}, \"rate\": {:.3}, \"tasks\": {}, \
\"time_scale\": {:.1}, \"trace_hash\": \"{:#018x}\", \"wall_seconds\": {:.3}, \
\"offered\": {}, \"accepted\": {}, \"shed_door\": {}, \"rejected\": {}, \
\"transport_errors\": {}, \"completed\": {}, \"met_deadline\": {}, \"expired\": {}, \
\"shed_server\": {}, \"recalls\": {}, \"batches\": {}, \"conserved\": {}, \
\"offered_per_hour\": {:.1}, \"shed_rate\": {:.6}, \
\"p50_assign\": {:.4}, \"p99_assign\": {:.4}, \"p999_assign\": {:.4}, \
\"assignments_measured\": {}, \"peak_queue_depth\": {}, \"peak_backlog\": {}}}",
        r.params.shape.name(),
        r.goodput_per_hour,
        r.ontime_frac,
        r.params.seed,
        r.params.rate,
        r.params.tasks,
        r.params.time_scale,
        r.trace_hash,
        r.wall_seconds,
        r.offered,
        r.accepted,
        r.shed_door,
        r.rejected,
        r.transport_errors,
        r.completed,
        r.met_deadline,
        r.expired,
        r.shed_server,
        r.recalls,
        r.batches,
        r.conserved,
        r.offered_per_hour,
        r.shed_rate,
        r.p50_assign,
        r.p99_assign,
        r.p999_assign,
        r.assignments_measured,
        r.peak_queue_depth,
        r.peak_backlog,
    )
}

/// Writes the stamped artifact through the no-silent-overwrite writer.
pub fn write_json_stamped(
    runs: &[LoadRunReport],
    path: &Path,
    provenance: &Provenance,
) -> std::io::Result<ArtifactOutcome> {
    write_stamped(path, &to_json_with(runs, Some(provenance)))
}

/// One KPI row per run, for the aggregated sweep report.
pub fn kpi_rows(runs: &[LoadRunReport]) -> Vec<KpiRow> {
    runs.iter()
        .map(|r| {
            KpiRow::new()
                .label("shape", r.params.shape.name())
                .float("goodput_per_hour", r.goodput_per_hour)
                .pct("ontime_frac", r.ontime_frac)
                .int("offered", r.offered as i64)
                .int("accepted", r.accepted as i64)
                .int("shed_door", r.shed_door as i64)
                .int("completed", r.completed as i64)
                .float("offered_per_hour", r.offered_per_hour)
                .float("p50_assign", r.p50_assign)
                .float("p99_assign", r.p99_assign)
                .float("p999_assign", r.p999_assign)
                .pct("shed_rate", r.shed_rate)
                .flag("conserved", r.conserved)
        })
        .collect()
}

/// Plain-text report for the console.
pub fn render(runs: &[LoadRunReport]) -> String {
    let mut out = String::from(
        "== load — open-loop TCP replay through the ingest door ==\n\
shape     goodput/h  ontime  offered  accepted  shed   offered/h    p50      p99      p999     conserved\n",
    );
    for r in runs {
        out.push_str(&format!(
            "{:<9} {:<10.0} {:<7.3} {:<8} {:<9} {:<6} {:<12.0} {:<8.3} {:<8.3} {:<8.3} {}\n",
            r.params.shape.name(),
            r.goodput_per_hour,
            r.ontime_frac,
            r.offered,
            r.accepted,
            r.shed_door,
            r.offered_per_hour,
            r.p50_assign,
            r.p99_assign,
            r.p999_assign,
            r.conserved,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert!((percentile(&xs, 50.0) - 50.0).abs() < 1e-12);
        assert!((percentile(&xs, 99.0) - 99.0).abs() < 1e-12);
        assert!((percentile(&xs, 99.9) - 100.0).abs() < 1e-12);
        assert!((percentile(&[7.5], 50.0) - 7.5).abs() < 1e-12);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn json_document_carries_every_headline_metric() {
        let report = LoadRunReport {
            params: LoadParams::default(),
            trace_hash: 0xabcd,
            wall_seconds: 1.5,
            crowd_span: 90.0,
            sent: 100,
            transport_errors: 0,
            offered: 100,
            accepted: 90,
            shed_door: 10,
            rejected: 0,
            completed: 80,
            met_deadline: 70,
            expired: 5,
            shed_server: 5,
            recalls: 3,
            batches: 12,
            conserved: true,
            goodput_per_hour: 168000.0,
            ontime_frac: 0.7,
            offered_per_hour: 240000.0,
            shed_rate: 0.1,
            p50_assign: 4.0,
            p99_assign: 11.0,
            p999_assign: 15.0,
            assignments_measured: 85,
            peak_queue_depth: 17,
            peak_backlog: 60,
        };
        let json = to_json_with(&[report], Some(&Provenance::new(2013)));
        for key in [
            "\"goodput_per_hour\"",
            "\"ontime_frac\"",
            "\"offered_per_hour\"",
            "\"p50_assign\"",
            "\"p99_assign\"",
            "\"p999_assign\"",
            "\"shed_rate\"",
            "\"conserved\": true",
            "\"provenance\"",
            "\"trace_hash\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
