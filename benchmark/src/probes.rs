//! Direct probes: each layer's public functions timed on fixed inputs,
//! so a layer's own cost is visible apart from how often the workloads
//! call it. Reported in reference nanoseconds.

// analyze: allow-file(no-wall-clock) — benchmark harness: wall-clock
// timing is the measurement.

use crate::refkernel::{normalise, RefKernel};
use crate::report::Metrics;
use crate::sim::churn_faults;
use crate::stats::median;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use react_core::{
    BatchScratch, Config, MatcherPolicy, ProfilingComponent, Task, TaskCategory, TaskId,
    TaskManagementComponent, WorkerId,
};
use react_geo::{GeoPoint, RegionGrid, RegionRouter};
use react_load::{build_trace, client::submit_request, Shape};
use react_matching::{BipartiteGraph, HungarianMatcher, Matcher, ReactMatcher};
use react_prob::{DeadlineModel, DeadlineModelConfig, FitMethod, FittedModel, PowerLaw};
use react_runtime::ingest::http::{parse_request, parse_submit_body, Response};
use react_sim::{EventQueue, RngStreams, SimTime};
use std::hint::black_box;
use std::io::Cursor;
use std::time::Instant;

/// Seed of every probe input: probes measure code, not inputs.
const PROBE_SEED: u64 = 0x00C0_FFEE;

/// Median over five batches of the raw nanoseconds one `op` takes.
fn ns_per_op(iters: usize, mut op: impl FnMut(usize)) -> f64 {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for i in 0..iters {
                op(i);
            }
            start.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .collect();
    median(&batches)
}

fn here() -> GeoPoint {
    GeoPoint::new(37.98, 23.72)
}

/// A pool past training with a spread of latencies (so phase A fits real
/// models and Eq. (3) pruning runs) and a queue with mixed deadlines.
fn seasoned(n_workers: u64, n_tasks: u64) -> (ProfilingComponent, TaskManagementComponent) {
    let mut profiling = ProfilingComponent::default();
    for w in 0..n_workers {
        let id = WorkerId(w);
        profiling.register(id, here()).expect("fresh worker id");
        let base = 1.0 + (w % 7) as f64 * 9.0;
        for s in 0..3 {
            profiling.record_assignment(id).expect("registered");
            profiling
                .record_completion(id, TaskCategory((w % 2) as u32), base + s as f64, true)
                .expect("registered");
        }
    }
    let mut tasks = TaskManagementComponent::new();
    for t in 0..n_tasks {
        let deadline = 20.0 + (t % 5) as f64 * 30.0;
        let category = TaskCategory((t % 2) as u32);
        tasks
            .submit(
                Task::new(TaskId(t), here(), deadline, 0.05, category, "probe"),
                0.0,
            )
            .expect("fresh task id");
    }
    (profiling, tasks)
}

fn random_graph(workers: usize, tasks: usize, rng: &mut SmallRng) -> BipartiteGraph {
    BipartiteGraph::full(workers, tasks, |_, _| rng.gen_range(0.05..1.0)).expect("finite weights")
}

/// Runs every probe and sets its metric. Returns the kernel readings
/// that bracketed the probes.
pub fn run(m: &mut Metrics) -> Vec<f64> {
    let mut kernel = RefKernel::new();
    let k_before = kernel.run();
    let mut raw: Vec<(&'static str, f64)> = Vec::new();
    let mut rng = SmallRng::seed_from_u64(PROBE_SEED);

    // react-prob.
    let truth = PowerLaw::new(2.5, 1.0).expect("valid parameters");
    let samples = truth.sample_n(&mut rng, 50);
    let k_min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    raw.push((
        "prob.fit_ns",
        ns_per_op(20_000, |_| {
            black_box(PowerLaw::fit(black_box(&samples), k_min, FitMethod::Paper).ok());
        }),
    ));
    let model = DeadlineModel::new(DeadlineModelConfig::default());
    let fitted = FittedModel::PowerLaw(truth);
    raw.push((
        "prob.edge_gate_ns",
        ns_per_op(200_000, |i| {
            let gate = model.edge_gate(black_box(&fitted));
            black_box(gate.classify(1.0 + (i % 120) as f64));
        }),
    ));
    raw.push((
        "prob.in_flight_check_ns",
        ns_per_op(200_000, |i| {
            black_box(model.check_in_flight(black_box(&truth), (i % 60) as f64, 90.0));
        }),
    ));

    // react-core graph build: 2000 workers × 60 tasks.
    let config = Config::with_matcher(MatcherPolicy::React { cycles: 1000 });
    let (mut profiling, tasks) = seasoned(2000, 60);
    let edges = {
        let mut scratch = BatchScratch::new();
        scratch.set_threads(Some(1));
        scratch
            .build(&config, &mut profiling, &tasks, 0.0)
            .graph
            .n_edges()
            .max(1) as f64
    };
    raw.push((
        "core.build_cold_ns_per_edge",
        ns_per_op(8, |_| {
            let mut scratch = BatchScratch::new();
            scratch.set_threads(Some(1));
            black_box(scratch.build(&config, &mut profiling, &tasks, 0.0).pruned);
        }) / edges,
    ));
    let mut scratch = BatchScratch::new();
    scratch.set_threads(Some(1));
    scratch.build(&config, &mut profiling, &tasks, 0.0);
    raw.push((
        "core.build_warm_ns_per_edge",
        ns_per_op(8, |_| {
            black_box(scratch.build(&config, &mut profiling, &tasks, 0.0).pruned);
        }) / edges,
    ));

    // react-matching: speed on 250 × 30, quality against the optimum on
    // 60 × 60 ("faster must not mean worse").
    let cycles = 1000;
    let matcher = ReactMatcher::with_cycles(cycles);
    let graph = random_graph(250, 30, &mut rng);
    raw.push((
        "matching.probe_ns_per_cycle",
        ns_per_op(40, |i| {
            let mut rng = SmallRng::seed_from_u64(PROBE_SEED ^ i as u64);
            black_box(matcher.assign(&graph, &mut rng).total_weight);
        }) / cycles as f64,
    ));
    let square = random_graph(60, 60, &mut rng);
    let optimum = HungarianMatcher.assign(&square, &mut rng).total_weight;
    let achieved: Vec<f64> = (0..9)
        .map(|i| {
            let mut rng = SmallRng::seed_from_u64(PROBE_SEED ^ i);
            matcher.assign(&square, &mut rng).total_weight
        })
        .collect();
    m.set(
        "matching.weight_ratio_vs_hungarian",
        median(&achieved) / optimum,
    );

    // react-sim: push + pop with 10 000 events pending.
    let mut queue: EventQueue<u64> = EventQueue::new();
    for i in 0..10_000u64 {
        queue.push(SimTime::from_secs(rng.gen_range(0.0..1000.0)), i);
    }
    raw.push((
        "sim.event_ns",
        ns_per_op(200_000, |i| {
            if let Some((at, payload)) = queue.pop() {
                let later = at.as_secs() + 1.0 + (i % 97) as f64;
                queue.push(SimTime::from_secs(later), payload);
            }
        }),
    ));

    // react-geo: routing a point to its shard on the 2 × 4 grid.
    let region = react_crowd::Scenario::default_region();
    let grid = RegionGrid::new(region, 2, 4).expect("static grid");
    let router = RegionRouter::new(&grid, u64::MAX);
    let points: Vec<GeoPoint> = (0..256).map(|_| region.random_point(&mut rng)).collect();
    raw.push((
        "geo.route_ns",
        ns_per_op(200_000, |i| {
            black_box(router.route(&points[i % points.len()]));
        }),
    ));

    // react-faults: materialising the churn plan for its pool.
    let plan = churn_faults(1600.0);
    let streams = RngStreams::new(PROBE_SEED);
    raw.push((
        "faults.materialize_us",
        ns_per_op(200, |_| {
            black_box(plan.materialize(&streams, 480).dropouts().len());
        }) / 1e3,
    ));

    // react-runtime wire codec.
    let trace = build_trace(Shape::Poisson, 5.0, 64, PROBE_SEED);
    let request = submit_request(&trace[0]);
    raw.push((
        "runtime.http_parse_ns",
        ns_per_op(50_000, |_| {
            let parsed = parse_request(&mut Cursor::new(black_box(&request[..])));
            black_box(parsed.ok());
        }),
    ));
    let body = parse_request(&mut Cursor::new(&request[..]))
        .ok()
        .flatten()
        .expect("the generator's own request parses")
        .body;
    raw.push((
        "runtime.body_parse_ns",
        ns_per_op(50_000, |_| {
            black_box(parse_submit_body(black_box(&body)));
        }),
    ));
    let mut sink = Vec::with_capacity(256);
    raw.push((
        "runtime.response_write_ns",
        ns_per_op(50_000, |i| {
            sink.clear();
            let response = Response::json(202, "Accepted", format!("{{\"task\":{i}}}"));
            black_box(response.write_to(&mut sink).is_ok());
        }),
    ));

    // react-load: generating a 1000-arrival trace.
    raw.push((
        "load.trace_build_us_per_ktask",
        ns_per_op(20, |i| {
            black_box(build_trace(Shape::Poisson, 5.0, 1000, PROBE_SEED ^ i as u64).len());
        }) / 1e3,
    ));

    let k_after = kernel.run();
    for (name, value) in raw {
        m.set(name, normalise(value, k_before, k_after));
    }
    vec![k_before, k_after]
}
