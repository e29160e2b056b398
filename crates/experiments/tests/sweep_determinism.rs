//! Property test: for any small scenario manifest, the serial and
//! parallel fan-outs of the sweep driver produce byte-identical KPI
//! reports. This is the determinism half of the ISSUE acceptance — the
//! executor's thread placement must never leak into results.

use proptest::prelude::*;

use react_experiments::{run_suites, Experiment, Manifest, ScenarioSweep, SweepOptions};

fn manifest_text(
    seed: u64,
    pools: &[u32],
    matchers: &[&str],
    shards: &[u32],
    tasks: u32,
) -> String {
    let quote = |xs: &[&str]| {
        xs.iter()
            .map(|m| format!("\"{m}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let ints = |xs: &[u32]| {
        xs.iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        "[sweep]\nname = \"prop\"\nseed = {seed}\nsuites = [\"scenario\"]\ntasks = {tasks}\n\
         [axes]\npool = [{}]\nmatcher = [{}]\nshards = [{}]\n",
        ints(pools),
        quote(matchers),
        ints(shards),
    )
}

fn jsonl_for(manifest: &Manifest, jobs: usize) -> String {
    let scenario = ScenarioSweep;
    let suites: Vec<&dyn Experiment> = vec![&scenario];
    let opts = SweepOptions {
        quick: true,
        jobs: Some(jobs),
        ..SweepOptions::default()
    };
    run_suites(&suites, Some(manifest), &opts)
        .expect("sweep")
        .report
        .to_jsonl()
}

proptest! {
    // Each case runs every cell twice (serial + 4-way parallel); keep
    // the case count small and the scenarios tiny.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn serial_and_parallel_fanout_reports_are_byte_identical(
        seed in 0u64..10_000,
        pool_mask in 1u8..4,       // non-empty subset of [6, 10]
        matcher_mask in 1u8..8,    // non-empty subset of the matcher list
        both_shards in 0u8..2,
        tasks in 10u32..30,
    ) {
        let pools: Vec<u32> = [6u32, 10]
            .iter()
            .enumerate()
            .filter(|(i, _)| pool_mask & (1 << i) != 0)
            .map(|(_, p)| *p)
            .collect();
        let matchers: Vec<&str> = ["react", "greedy", "traditional"]
            .iter()
            .enumerate()
            .filter(|(i, _)| matcher_mask & (1 << i) != 0)
            .map(|(_, m)| *m)
            .collect();
        let shards: Vec<u32> = if both_shards == 1 { vec![1, 2] } else { vec![1] };
        let text = manifest_text(seed, &pools, &matchers, &shards, tasks);
        let manifest = Manifest::parse(&text).expect("parse");
        let serial = jsonl_for(&manifest, 1);
        let parallel = jsonl_for(&manifest, 4);
        prop_assert!(
            serial.lines().count() > pools.len() * matchers.len() * shards.len(),
            "report must carry one line per run plus the provenance header"
        );
        prop_assert_eq!(serial, parallel);
    }
}
