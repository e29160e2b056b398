//! The [`Observer`] trait, the typed span/counter/histogram vocabularies,
//! and the zero-cost [`NullObserver`].

use std::sync::Arc;

/// A timed region of the scheduling pipeline.
///
/// Span names form a dotted taxonomy: `tick` covers a whole
/// `ReactServer::tick`, `tick.*` its five stages, `matcher.assign` one
/// `MatcherEngine` run inside `tick.match`, and `shard.tick` one shard
/// server's tick inside a `Cluster` control step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// One full `ReactServer::tick` call.
    Tick,
    /// Deadline-expiry sweep at the top of a tick.
    StageExpire,
    /// Eq.(2) recall scan over running assignments.
    StageRecall,
    /// Bipartite graph construction (profile refits + edge pruning).
    StageBuild,
    /// Matcher execution over the built graph.
    StageMatch,
    /// Commit of the matching: task state flips, cost-model charging.
    StageCommit,
    /// One `MatcherEngine::assign` run (nested inside [`SpanKind::StageMatch`]).
    MatcherAssign,
    /// One shard server's tick inside a `Cluster` control step.
    ShardTick,
    /// One HTTP request handled by the ingest front-end (parse +
    /// admission decision + response write).
    IngestRequest,
}

impl SpanKind {
    /// Stable dotted name used by sinks.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Tick => "tick",
            SpanKind::StageExpire => "tick.expire",
            SpanKind::StageRecall => "tick.recall",
            SpanKind::StageBuild => "tick.build",
            SpanKind::StageMatch => "tick.match",
            SpanKind::StageCommit => "tick.commit",
            SpanKind::MatcherAssign => "matcher.assign",
            SpanKind::ShardTick => "shard.tick",
            SpanKind::IngestRequest => "ingest.request",
        }
    }
}

/// A monotonically increasing event count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CounterKind {
    /// Tasks dropped because their deadline passed unassigned.
    TasksExpired,
    /// Dynamic reassignments triggered by the Eq.(2) recall model.
    Reassignments,
    /// Task→worker assignments committed.
    TasksAssigned,
    /// Matching batches executed (a tick may skip the batch stages).
    BatchesRun,
    /// Local-search cycles executed by the matcher.
    MatcherCycles,
    /// Edge flips accepted during matcher cycles.
    FlipsAccepted,
    /// Edge flips rejected during matcher cycles.
    FlipsRejected,
    /// Conflicts resolved by the REACT upgrade rule (new edge displaced
    /// strictly-worse incumbents).
    ConflictsResolved,
    /// Matcher instances (re)built after a spec or budget change.
    MatcherRebuilds,
    /// Worker latency profiles refit during graph build.
    ProfileRefits,
    /// Graph-build rows served from the batch scratch's row table
    /// (profile epoch unchanged since the previous batch).
    BuildRowsReused,
    /// Eq.(3) edge decisions answered by the memoized deadline gate
    /// instead of an exact CCDF evaluation.
    BuildCdfMemoHits,
    /// Heap bytes of graph/row buffers carried over from the previous
    /// batch instead of freshly allocated.
    ScratchBytesReused,
    /// In-flight assignments that reached the exact Eq.(2) evaluation
    /// (the rest were answered by their stored recall threshold).
    RecallExactChecks,
    /// Tasks completed by workers.
    TasksCompleted,
    /// Completed tasks that met their deadline.
    DeadlinesMet,
    /// Positive-feedback profile updates recorded on completion.
    PositiveFeedback,
    /// Assignments recalled by the recovery timeout ladder (progress
    /// deadline exceeded), as opposed to Eq.(2) model recalls.
    TimeoutRecalls,
    /// Workers marked suspect after repeated progress timeouts (their
    /// profile weight is decayed).
    WorkersSuspected,
    /// Injected worker dropouts (fault plan).
    FaultDropouts,
    /// Injected silent task abandonments (fault plan).
    FaultAbandons,
    /// Completion messages dropped in flight (fault plan).
    FaultCompletionsLost,
    /// Completion messages delivered twice (fault plan).
    FaultCompletionsDuplicated,
    /// Extra tasks injected by burst arrivals (fault plan).
    FaultBurstTasks,
    /// Queued tasks handed from a collapsed shard to a neighbour shard.
    ShardHandoffs,
    /// Idle workers relocated between adjacent shards by the periodic
    /// rebalance pass.
    ShardWorkersRebalanced,
    /// Tasks refused at submission because the target shard's open-task
    /// count hit its hard admission cap.
    ShardAdmissionShed,
    /// TCP connections accepted by the ingest front-end.
    IngestConnections,
    /// Task submissions admitted past the front door into the bounded
    /// scheduler queue.
    IngestAccepted,
    /// Malformed requests refused with a 4xx status (bad framing, bad
    /// method, oversized body).
    IngestRejected,
    /// Submissions shed at the door with `429 Too Many Requests`
    /// (bounded queue full or scheduler backlog above the watermark).
    IngestShed,
    /// Status polls (`GET /tasks/<id>`) served.
    IngestPolls,
}

impl CounterKind {
    /// Stable dotted name used by sinks.
    pub fn name(self) -> &'static str {
        match self {
            CounterKind::TasksExpired => "tasks.expired",
            CounterKind::Reassignments => "tasks.reassigned",
            CounterKind::TasksAssigned => "tasks.assigned",
            CounterKind::BatchesRun => "batches.run",
            CounterKind::MatcherCycles => "matcher.cycles",
            CounterKind::FlipsAccepted => "matcher.flips_accepted",
            CounterKind::FlipsRejected => "matcher.flips_rejected",
            CounterKind::ConflictsResolved => "matcher.conflicts_resolved",
            CounterKind::MatcherRebuilds => "matcher.rebuilds",
            CounterKind::ProfileRefits => "profile.refits",
            CounterKind::BuildRowsReused => "build.rows_reused",
            CounterKind::BuildCdfMemoHits => "build.cdf_memo_hits",
            CounterKind::ScratchBytesReused => "scratch.bytes_reused",
            CounterKind::RecallExactChecks => "recall.exact_checks",
            CounterKind::TasksCompleted => "tasks.completed",
            CounterKind::DeadlinesMet => "deadlines.met",
            CounterKind::PositiveFeedback => "feedback.positive",
            CounterKind::TimeoutRecalls => "recovery.timeout_recalls",
            CounterKind::WorkersSuspected => "recovery.workers_suspected",
            CounterKind::FaultDropouts => "fault.dropouts",
            CounterKind::FaultAbandons => "fault.abandons",
            CounterKind::FaultCompletionsLost => "fault.completions_lost",
            CounterKind::FaultCompletionsDuplicated => "fault.completions_duplicated",
            CounterKind::FaultBurstTasks => "fault.burst_tasks",
            CounterKind::ShardHandoffs => "shard.handoffs",
            CounterKind::ShardWorkersRebalanced => "shard.workers_rebalanced",
            CounterKind::ShardAdmissionShed => "shard.admission_shed",
            CounterKind::IngestConnections => "ingest.connections",
            CounterKind::IngestAccepted => "ingest.accepted",
            CounterKind::IngestRejected => "ingest.rejected",
            CounterKind::IngestShed => "ingest.shed",
            CounterKind::IngestPolls => "ingest.polls",
        }
    }
}

/// A distribution of observed values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HistogramKind {
    /// Modelled matching latency charged per batch, in seconds.
    MatchingSeconds,
    /// Task execution time reported on completion, in seconds.
    ExecSeconds,
    /// Number of unassigned tasks entering a matching batch.
    BatchSize,
    /// Depth of the bounded ingest queue sampled at each scheduler tick
    /// (tasks accepted but not yet submitted to the middleware).
    IngestQueueDepth,
}

impl HistogramKind {
    /// Stable dotted name used by sinks.
    pub fn name(self) -> &'static str {
        match self {
            HistogramKind::MatchingSeconds => "matching.seconds",
            HistogramKind::ExecSeconds => "exec.seconds",
            HistogramKind::BatchSize => "batch.size",
            HistogramKind::IngestQueueDepth => "ingest.queue_depth",
        }
    }
}

/// Sink for structured telemetry emitted by the scheduling pipeline.
///
/// Implementations must be cheap and must never feed information back
/// into scheduling decisions; the pipeline only ever *writes* through
/// this trait. All methods take `&self` — sinks handle their own
/// synchronisation (the live ingest shares one observer between its
/// acceptor threads and its scheduler thread). `Debug` is a supertrait so structs
/// holding an [`ObserverHandle`] can keep `#[derive(Debug)]`.
pub trait Observer: Send + Sync + std::fmt::Debug {
    /// Whether this sink wants events at all.
    ///
    /// Hot paths may consult this once per event batch and skip
    /// formatting/aggregation work when it returns `false`. Timing
    /// itself is *not* gated on it: stage durations are measured
    /// unconditionally because `TickOutcome` reports them regardless.
    fn enabled(&self) -> bool {
        true
    }

    /// Record a completed span of `seconds` duration.
    fn span(&self, kind: SpanKind, seconds: f64);

    /// Add `by` to a counter.
    fn incr(&self, kind: CounterKind, by: u64);

    /// Record one value into a histogram.
    fn observe(&self, kind: HistogramKind, value: f64);
}

/// Shared, thread-safe handle to an observer sink.
pub type ObserverHandle = Arc<dyn Observer>;

/// The do-nothing sink: `enabled()` is `false` and every event is
/// discarded. This is the default observer everywhere; runs under it are
/// bit-identical to runs with no observability compiled in at all.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn enabled(&self) -> bool {
        false
    }

    fn span(&self, _kind: SpanKind, _seconds: f64) {}

    fn incr(&self, _kind: CounterKind, _by: u64) {}

    fn observe(&self, _kind: HistogramKind, _value: f64) {}
}

/// Convenience constructor for the default [`NullObserver`] handle.
pub fn null_observer() -> ObserverHandle {
    Arc::new(NullObserver)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_observer_is_disabled() {
        let obs = null_observer();
        assert!(!obs.enabled());
        obs.span(SpanKind::Tick, 1.0);
        obs.incr(CounterKind::TasksAssigned, 3);
        obs.observe(HistogramKind::MatchingSeconds, 0.5);
    }

    #[test]
    fn names_are_unique_and_dotted() {
        let spans = [
            SpanKind::Tick,
            SpanKind::StageExpire,
            SpanKind::StageRecall,
            SpanKind::StageBuild,
            SpanKind::StageMatch,
            SpanKind::StageCommit,
            SpanKind::MatcherAssign,
            SpanKind::ShardTick,
            SpanKind::IngestRequest,
        ];
        let mut seen = std::collections::BTreeSet::new();
        for s in spans {
            assert!(seen.insert(s.name()), "duplicate span name {}", s.name());
        }
        let counters = [
            CounterKind::TasksExpired,
            CounterKind::Reassignments,
            CounterKind::TasksAssigned,
            CounterKind::BatchesRun,
            CounterKind::MatcherCycles,
            CounterKind::FlipsAccepted,
            CounterKind::FlipsRejected,
            CounterKind::ConflictsResolved,
            CounterKind::MatcherRebuilds,
            CounterKind::ProfileRefits,
            CounterKind::BuildRowsReused,
            CounterKind::BuildCdfMemoHits,
            CounterKind::ScratchBytesReused,
            CounterKind::RecallExactChecks,
            CounterKind::TasksCompleted,
            CounterKind::DeadlinesMet,
            CounterKind::PositiveFeedback,
            CounterKind::TimeoutRecalls,
            CounterKind::WorkersSuspected,
            CounterKind::FaultDropouts,
            CounterKind::FaultAbandons,
            CounterKind::FaultCompletionsLost,
            CounterKind::FaultCompletionsDuplicated,
            CounterKind::FaultBurstTasks,
            CounterKind::ShardHandoffs,
            CounterKind::ShardWorkersRebalanced,
            CounterKind::ShardAdmissionShed,
            CounterKind::IngestConnections,
            CounterKind::IngestAccepted,
            CounterKind::IngestRejected,
            CounterKind::IngestShed,
            CounterKind::IngestPolls,
        ];
        for c in counters {
            assert!(seen.insert(c.name()), "duplicate counter name {}", c.name());
            assert!(
                c.name().contains('.'),
                "counter name not dotted: {}",
                c.name()
            );
        }
        let histograms = [
            HistogramKind::MatchingSeconds,
            HistogramKind::ExecSeconds,
            HistogramKind::BatchSize,
            HistogramKind::IngestQueueDepth,
        ];
        for h in histograms {
            assert!(
                seen.insert(h.name()),
                "duplicate histogram name {}",
                h.name()
            );
            assert!(
                h.name().contains('.'),
                "histogram name not dotted: {}",
                h.name()
            );
        }
    }
}
