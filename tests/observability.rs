//! Observability integration: attaching any observer sink must never
//! perturb a simulation (write-only telemetry, bit-identical schedules)
//! while a recording sink must capture the full span/counter catalog of
//! a real end-to-end run.

use react::core::prelude::*;
use react::crowd::{Scenario, ScenarioRunner};
use react::obs::{CounterKind, HistogramKind, RecordingObserver, SpanKind};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn run_with(seed: u64, observer: Option<ObserverHandle>) -> react::crowd::RunReport {
    let scenario = Scenario::smoke(MatcherPolicy::React { cycles: 200 }, seed);
    let mut runner = ScenarioRunner::new(scenario);
    if let Some(observer) = observer {
        runner = runner.with_observer(observer);
    }
    runner.run()
}

fn assert_reports_bit_identical(a: &react::crowd::RunReport, b: &react::crowd::RunReport) {
    assert_eq!(a.received, b.received);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.met_deadline, b.met_deadline);
    assert_eq!(a.positive_feedback, b.positive_feedback);
    assert_eq!(a.reassignments, b.reassignments);
    assert_eq!(a.expired_unassigned, b.expired_unassigned);
    assert_eq!(a.batches, b.batches);
    assert_eq!(
        a.total_matching_seconds.to_bits(),
        b.total_matching_seconds.to_bits()
    );
    assert_eq!(a.exec_times.len(), b.exec_times.len());
    for (x, y) in a.exec_times.iter().zip(&b.exec_times) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    for (x, y) in a.total_times.iter().zip(&b.total_times) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

#[test]
fn observers_never_perturb_schedules_across_seeds() {
    for seed in [3u64, 17, 41] {
        let baseline = run_with(seed, None);
        let recording = RecordingObserver::new();
        let observed = run_with(seed, Some(Arc::new(recording)));
        assert_reports_bit_identical(&baseline, &observed);
    }
}

#[test]
fn recording_observer_captures_the_full_catalog() {
    let recording = RecordingObserver::new();
    let report = run_with(7, Some(Arc::new(recording.clone())));

    // Every tick stage produced spans with monotonic durations.
    for kind in [
        SpanKind::Tick,
        SpanKind::StageExpire,
        SpanKind::StageRecall,
        SpanKind::StageBuild,
        SpanKind::StageMatch,
        SpanKind::StageCommit,
    ] {
        let stats = recording
            .span_stats(kind)
            .unwrap_or_else(|| panic!("missing span {}", kind.name()));
        assert!(stats.count > 0, "{} never fired", kind.name());
        assert!(stats.total_seconds >= 0.0);
        assert!(stats.max_seconds >= stats.min_seconds);
    }

    // Matcher cycle/flip accounting flowed through the engine.
    let cycles = recording.counter(CounterKind::MatcherCycles);
    let accepted = recording.counter(CounterKind::FlipsAccepted);
    let rejected = recording.counter(CounterKind::FlipsRejected);
    assert!(cycles > 0, "matcher ran no cycles");
    assert_eq!(
        accepted + rejected,
        cycles,
        "every REACT cycle is an accepted or rejected flip"
    );

    // Counters reconcile with the run report.
    assert_eq!(
        recording.counter(CounterKind::Reassignments),
        report.reassignments,
        "dynamic-reassignment decisions must be counted"
    );
    assert_eq!(recording.counter(CounterKind::BatchesRun), report.batches);
    assert_eq!(
        recording.counter(CounterKind::TasksCompleted),
        report.completed
    );
    assert_eq!(
        recording.counter(CounterKind::DeadlinesMet),
        report.met_deadline
    );

    // Latency histograms observed every completion.
    let exec = recording
        .histogram(HistogramKind::ExecSeconds)
        .expect("exec.seconds histogram");
    assert_eq!(exec.count(), report.completed);
}

/// The build-stage counters are counts of decisions, not of how the
/// build reaches them: `build.cdf_memo_hits` is one per (row, task) pair
/// a memoized gate settled (whether pair by pair or for the whole row),
/// `build.rows_reused` one per pool row whose epoch was unchanged, and
/// `profile.refits` one per row carrying a latency model. They feed
/// `prob.cdf_memo_hits_per_task`, `core.rows_reused_per_batch` and
/// `prob.refits_per_task` in `benchmark/`, so an optimisation of the
/// build may not move them. Literals measured at commit 491d67d (PR 17).
#[test]
fn build_counters_keep_their_meaning() {
    let counters = |scenario: Scenario| {
        let recording = RecordingObserver::new();
        ScenarioRunner::new(scenario)
            .with_observer(Arc::new(recording.clone()))
            .run();
        [
            recording.counter(CounterKind::BuildCdfMemoHits),
            recording.counter(CounterKind::BuildRowsReused),
            recording.counter(CounterKind::ProfileRefits),
        ]
    };
    // Two task categories, 30 workers.
    let smoke = Scenario::smoke(MatcherPolicy::React { cycles: 200 }, 7);
    assert_eq!(counters(smoke), [1724, 36, 52]);
    // One category, 120 workers at 3 tasks/s, cut to 400 tasks.
    let mut fig9 = Scenario::paper_fig9(120, 3.0, MatcherPolicy::React { cycles: 200 }, 2013);
    fig9.total_tasks = 400;
    assert_eq!(counters(fig9), [4678, 1622, 463]);
}

/// `.rs` files under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Whether `source` names `path` (`Kind::Variant`) as a whole token
/// outside a comment line.
fn names(source: &str, path: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    source
        .lines()
        .filter(|line| !line.trim_start().starts_with("//"))
        .any(|line| {
            line.match_indices(path).any(|(at, _)| {
                !line[..at].ends_with(ident) && !line[at + path.len()..].starts_with(ident)
            })
        })
}

/// The catalog is the one vocabulary for spans, counters and histograms,
/// so an entry nothing records is dead. The `name()` matches in
/// `crates/obs/src/observer.rs` are exhaustive, so their
/// `Kind::Variant => "name"` arms list every entry; each must be named by
/// some source file outside `crates/obs/src/`.
#[test]
fn every_catalog_entry_is_referenced_outside_obs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let catalog =
        fs::read_to_string(root.join("crates/obs/src/observer.rs")).expect("read the catalog");
    let entries: Vec<&str> = catalog
        .lines()
        .filter_map(|line| line.trim().split_once(" => \"").map(|(lhs, _)| lhs))
        .filter(|lhs| lhs.contains("Kind::"))
        .collect();
    for kind in ["SpanKind::", "CounterKind::", "HistogramKind::"] {
        assert!(
            entries.iter().any(|e| e.starts_with(kind)),
            "no {kind} arms found: has the catalog's layout changed?"
        );
    }

    let obs = root.join("crates/obs/src");
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    let sources: Vec<String> = files
        .iter()
        .filter(|f| !f.starts_with(&obs))
        .map(|f| fs::read_to_string(f).expect("read a source file"))
        .collect();
    let dead: Vec<&str> = entries
        .iter()
        .copied()
        .filter(|entry| !sources.iter().any(|s| names(s, entry)))
        .collect();
    assert!(
        dead.is_empty(),
        "catalog entries no code outside crates/obs/src/ records: {dead:?}"
    );
}
