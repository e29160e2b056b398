//! Determinism properties of the arrival traces and the replay client
//! (proptest).
//!
//! A replay crosses a real TCP boundary, so wall-clock noise is
//! unavoidable in *latencies* — but everything upstream of the wire must
//! stay bit-deterministic, and everything downstream must conserve
//! tasks:
//!
//! 1. the same seed yields a byte-identical arrival trace for every
//!    shape/rate/size, and the published trace hash is the hash of
//!    exactly those bytes;
//! 2. replaying the same seeded trace twice into a live
//!    [`react::runtime::IngestRuntime`] (on its `ScaledClock`)
//!    reproduces the admission ledger (offered, accepted, shed,
//!    rejected) and both runs conserve tasks;
//! 3. serial (one acceptor, one sender) and threaded (several of each)
//!    replays of one trace both close the conservation identity —
//!    submitted = completed + expired + shed + stranded.

use proptest::prelude::*;
use react::load::{build_trace, replay, trace_hash, trace_text, ClientStats, Shape};
use react::metrics::fnv1a64;
use react::runtime::{IngestConfig, IngestReport, IngestRuntime};
use std::sync::atomic::Ordering;

/// Strategy: an arbitrary trace shape.
fn arb_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::Poisson),
        (5.0f64..60.0, 5usize..40).prop_map(|(period, size)| Shape::Bursty { period, size }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property 1: the trace is a pure function of (shape, rate, n, seed).
    #[test]
    fn same_seed_yields_a_byte_identical_trace(
        shape in arb_shape(),
        rate in 0.5f64..20.0,
        n in 1usize..200,
        seed in any::<u64>(),
    ) {
        let a = build_trace(shape, rate, n, seed);
        let b = build_trace(shape, rate, n, seed);
        let text_a = trace_text(&a);
        let text_b = trace_text(&b);
        prop_assert_eq!(&text_a, &text_b, "same seed must replay byte-identically");
        prop_assert_eq!(trace_hash(&a), trace_hash(&b));
        prop_assert_eq!(
            trace_hash(&a),
            fnv1a64(text_a.as_bytes()),
            "the published hash is the hash of the published bytes"
        );
        // Arrivals are non-decreasing — the replay loop relies on it.
        for pair in a.windows(2) {
            prop_assert!(pair[0].at <= pair[1].at, "trace must be time-sorted");
        }
    }

    /// Property 1b: the seed actually matters.
    #[test]
    fn different_seeds_yield_different_traces(
        shape in arb_shape(),
        seed in any::<u64>(),
    ) {
        let a = build_trace(shape, 5.0, 50, seed);
        let b = build_trace(shape, 5.0, 50, seed.wrapping_add(1));
        prop_assert_ne!(trace_text(&a), trace_text(&b));
    }
}

/// Trace length of a tiny live run.
const TASKS: usize = 48;

/// A sub-second live run: few tasks, aggressive time compression.
/// Returns the replayed trace's hash, the client's tally and the stack's
/// report.
fn tiny_run(seed: u64, acceptors: usize, senders: usize) -> (u64, ClientStats, IngestReport) {
    let trace = build_trace(Shape::Poisson, 12.0, TASKS, seed);
    let config = IngestConfig {
        n_workers: 8,
        time_scale: 600.0,
        seed,
        // Large enough that nothing is shed: the ledger stays exact.
        queue_capacity: 512,
        backlog_watermark: 4096,
        acceptors,
        ..IngestConfig::default()
    };
    let handle = IngestRuntime::new(config).start().expect("start stack");
    let stats = replay(handle.local_addr(), handle.clock(), &trace, senders);
    (trace_hash(&trace), stats, handle.shutdown())
}

proptest! {
    // Each case spins up two full TCP stacks; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Property 2: the end-to-end admission ledger reproduces run-to-run.
    #[test]
    fn scaled_clock_replay_reproduces_the_admission_ledger(seed in any::<u64>()) {
        let (first_hash, _, first) = tiny_run(seed, 1, 1);
        let (second_hash, _, second) = tiny_run(seed, 1, 1);
        prop_assert_eq!(first_hash, second_hash, "same trace on the wire");
        prop_assert_eq!(first.offered, second.offered);
        prop_assert_eq!(first.accepted, second.accepted);
        prop_assert_eq!(first.shed_door, second.shed_door);
        prop_assert_eq!(first.rejected, second.rejected);
        prop_assert_eq!(first.offered, TASKS as u64, "every trace entry reaches the door");
        prop_assert_eq!(first.shed_door, 0, "an over-provisioned queue sheds nothing");
        prop_assert!(first.conserved(), "first run conserves tasks");
        prop_assert!(second.conserved(), "second run conserves tasks");
    }

    /// Property 3: acceptor/sender threading never loses a task —
    /// submitted = completed + expired + shed + stranded, serial or not.
    #[test]
    fn serial_and_threaded_acceptors_conserve_tasks(seed in any::<u64>()) {
        for (acceptors, senders) in [(1usize, 1usize), (4, 4)] {
            let (_, stats, report) = tiny_run(seed, acceptors, senders);
            prop_assert_eq!(
                report.offered, TASKS as u64,
                "{}x{}: the replay offers the whole trace", acceptors, senders
            );
            prop_assert_eq!(stats.transport_errors.load(Ordering::Relaxed), 0);
            prop_assert!(
                report.conserved(),
                "{}x{}: conservation identity must close", acceptors, senders
            );
        }
    }
}
