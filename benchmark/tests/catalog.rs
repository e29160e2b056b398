//! Every name the benchmark can emit is well formed and appears in
//! `BENCHMARK.json`, which is the catalog rendered to a file.

use react_benchmark::catalog::{
    manifest_json, COMMAND, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS,
};
use react_benchmark::report::expected;
use std::collections::BTreeSet;

fn well_formed(name: &str, max: usize, extra: &str) -> bool {
    !name.is_empty()
        && name.len() <= max
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

fn is_name(name: &str) -> bool {
    well_formed(name, 64, "_.-") && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

#[test]
fn names_units_and_limits_meet_the_contract() {
    let mut seen = BTreeSet::new();
    for w in &WORKLOADS {
        assert!(is_name(w.name), "workload name {}", w.name);
        assert!(seen.insert(w.name), "duplicate name {}", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "why of {}",
            w.name
        );
        assert!(
            !w.why.contains('"') && !w.why.contains('\\'),
            "why of {} needs no escaping",
            w.name
        );
    }
    for (name, unit) in expected(false).into_iter().chain(expected(true)) {
        assert!(is_name(name), "metric name {name}");
        assert!(seen.insert(name), "duplicate name {name}");
        assert!(well_formed(unit, 16, "_/%.-"), "unit {unit} of {name}");
    }
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!((1..=60).contains(&RUN_SECONDS));
    assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|c| c.len() <= 200));
    for m in &END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is mandatory");
    assert!(setup.unit == "s" && !setup.higher_is_better);
    let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, largest, "setup_s carries the largest bound");
}

#[test]
fn benchmark_json_is_the_rendered_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        on_disk,
        manifest_json(),
        "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json`"
    );
    assert!(on_disk.len() <= 64 * 1024);
    for (name, _) in expected(false).into_iter().chain(expected(true)) {
        assert!(
            on_disk.contains(&format!("\"name\": \"{name}\"")),
            "{name} missing"
        );
    }
}
