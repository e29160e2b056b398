//! A smoke pass of every workload, in both modes, at 1/20 size through
//! the real binary: it must exit 0, report correct outputs under every
//! catalog name, and stamp the result so that nothing accepts it as a
//! benchmark result.

use react_benchmark::catalog::WORKLOADS;
use react_benchmark::report::{expected, parse_result};
use std::process::Command;

fn smoke(workload: &str, trace: &str) {
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", workload, "--trace", trace])
        .args(["--seed", "5", "--seconds", "1", "--quick"])
        .output()
        .expect("benchmark binary starts");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    assert!(
        output.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0,"), "{last}");
    assert!(
        last.ends_with(", \"quick\": true}"),
        "quick runs are stamped: {last}"
    );
    let names = expected(trace == "1");
    for (name, unit) in &names {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing from {last}"
        );
        assert!(stdout
            .lines()
            .any(|l| l.starts_with(name) && l.ends_with(unit)));
    }
    assert_eq!(
        last.matches("\"value\": ").count(),
        names.len(),
        "no extra metric"
    );
    let refused = parse_result(last, &names).expect_err("a quick result is refused");
    assert!(refused.contains("quick"), "{refused}");
}

#[test]
fn every_workload_passes_untraced() {
    for w in &WORKLOADS {
        smoke(w.name, "0");
    }
}

#[test]
fn every_workload_passes_traced() {
    for w in &WORKLOADS {
        smoke(w.name, "1");
    }
}

#[test]
fn a_full_size_result_line_parses_and_bad_usage_exits_2() {
    let names = expected(false);
    let fields: Vec<String> = names
        .iter()
        .enumerate()
        .map(|(i, (name, unit))| {
            format!("\"{name}\": {{\"value\": {}.5, \"unit\": \"{unit}\"}}", i)
        })
        .collect();
    let line = format!(
        "{{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    let values = parse_result(&line, &names).expect("well-formed line");
    assert_eq!(values.len(), names.len());
    assert_eq!(values[3], 3.5);

    let status = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", "no-such-workload"])
        .status()
        .expect("benchmark binary starts");
    assert_eq!(status.code(), Some(2));
}
