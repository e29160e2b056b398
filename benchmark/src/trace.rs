//! Per-layer metrics from a `react_obs::RecordingObserver` attached from
//! outside, through the drivers' `with_observer` hooks.

use crate::report::Metrics;
use crate::stats::median;
use react_obs::{CounterKind, HistogramKind, RecordingObserver, SpanKind};

/// What one traced repetition recorded, with the factor that turns its
/// raw seconds into reference seconds.
pub struct Snapshot {
    recorder: RecordingObserver,
    /// `K_REF / mean(k_before, k_after)` of the repetition.
    pub scale: f64,
}

impl Snapshot {
    /// Wraps a recorder whose run has finished.
    pub fn new(recorder: RecordingObserver, scale: f64) -> Self {
        Snapshot { recorder, scale }
    }

    /// Total of a span kind, in reference seconds.
    pub fn span_total(&self, kind: SpanKind) -> f64 {
        self.recorder
            .span_stats(kind)
            .map_or(0.0, |s| s.total_seconds * self.scale)
    }

    fn span_count(&self, kind: SpanKind) -> u64 {
        self.recorder.span_stats(kind).map_or(0, |s| s.count)
    }

    /// A counter's value.
    pub fn counter(&self, kind: CounterKind) -> u64 {
        self.recorder.counter(kind)
    }
}

/// Median over repetitions of a span kind's total, reference seconds.
pub fn span_median(reps: &[Snapshot], kind: SpanKind) -> f64 {
    median(&reps.iter().map(|r| r.span_total(kind)).collect::<Vec<_>>())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The tick stages, with their metric names.
pub const STAGES: [(SpanKind, &str); 5] = [
    (SpanKind::StageExpire, "core.expire_us_per_task"),
    (SpanKind::StageRecall, "core.recall_us_per_task"),
    (SpanKind::StageBuild, "core.build_us_per_task"),
    (SpanKind::StageMatch, "core.match_us_per_task"),
    (SpanKind::StageCommit, "core.commit_us_per_task"),
];

/// Sets every metric that comes from the recording observer. Spans are
/// medians over the traced repetitions; counters come from the first
/// (on the simulated workloads they are the same in all of them).
pub fn observer_metrics(m: &mut Metrics, reps: &[Snapshot], tasks: u64) {
    let tasks = tasks as f64;
    let first = &reps[0];
    let count = |kind| first.counter(kind) as f64;
    let us_per_task = |kind| span_median(reps, kind) * 1e6 / tasks;

    m.set("core.tick_us_per_task", us_per_task(SpanKind::Tick));
    for (kind, name) in STAGES {
        m.set(name, us_per_task(kind));
    }
    m.set(
        "core.ticks_per_task",
        first.span_count(SpanKind::Tick) as f64 / tasks,
    );
    let batches = count(CounterKind::BatchesRun);
    m.set("core.batches_per_ktask", batches * 1e3 / tasks);
    m.set(
        "core.batch_size_mean",
        first
            .recorder
            .histogram(HistogramKind::BatchSize)
            .and_then(|h| h.mean())
            .unwrap_or(0.0),
    );
    m.set(
        "core.assigns_per_task",
        count(CounterKind::TasksAssigned) / tasks,
    );
    m.set(
        "core.reassigns_per_task",
        count(CounterKind::Reassignments) / tasks,
    );
    m.set(
        "core.expired_frac",
        count(CounterKind::TasksExpired) / tasks,
    );
    m.set(
        "core.rows_reused_per_batch",
        ratio(count(CounterKind::BuildRowsReused), batches),
    );
    m.set(
        "core.scratch_kb_reused_per_task",
        count(CounterKind::ScratchBytesReused) / 1024.0 / tasks,
    );
    m.set(
        "prob.refits_per_task",
        count(CounterKind::ProfileRefits) / tasks,
    );
    m.set(
        "prob.cdf_memo_hits_per_task",
        count(CounterKind::BuildCdfMemoHits) / tasks,
    );
    let cycles = count(CounterKind::MatcherCycles);
    m.set("matching.cycles_per_task", cycles / tasks);
    m.set(
        "matching.ns_per_cycle",
        ratio(span_median(reps, SpanKind::MatcherAssign) * 1e9, cycles),
    );
    let accepted = count(CounterKind::FlipsAccepted);
    m.set(
        "matching.flip_accept_frac",
        ratio(accepted, accepted + count(CounterKind::FlipsRejected)),
    );
    m.set(
        "matching.conflicts_per_kcycle",
        ratio(count(CounterKind::ConflictsResolved) * 1e3, cycles),
    );
    m.set(
        "matching.rebuilds_per_batch",
        ratio(count(CounterKind::MatcherRebuilds), batches),
    );
    m.set(
        "cluster.shard_tick_us_per_task",
        us_per_task(SpanKind::ShardTick),
    );
    m.set(
        "cluster.handoffs_per_ktask",
        count(CounterKind::ShardHandoffs) * 1e3 / tasks,
    );
    m.set(
        "cluster.workers_rebalanced",
        count(CounterKind::ShardWorkersRebalanced),
    );
    m.set(
        "cluster.admission_shed_frac",
        count(CounterKind::ShardAdmissionShed) / tasks,
    );
    m.set(
        "runtime.request_us_mean",
        first
            .recorder
            .span_stats(SpanKind::IngestRequest)
            .map_or(0.0, |s| s.mean_seconds() * first.scale * 1e6),
    );
    m.set(
        "runtime.queue_depth_p99",
        first
            .recorder
            .histogram(HistogramKind::IngestQueueDepth)
            .and_then(|h| h.quantile(0.99))
            .unwrap_or(0.0),
    );
}

/// Share of tick time the five stage spans do not cover, from the
/// metrics [`observer_metrics`] set. The stage-sum check holds it
/// within 10 %.
pub fn unattributed_frac(m: &Metrics) -> f64 {
    let tick = m.get("core.tick_us_per_task").unwrap_or(0.0);
    let stages: f64 = STAGES
        .iter()
        .map(|(_, name)| m.get(name).unwrap_or(0.0))
        .sum();
    ratio(tick - stages, tick)
}
