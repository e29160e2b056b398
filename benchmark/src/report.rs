//! A run's result: named metric values, the operation tally, and the
//! lines a run prints.

use crate::catalog::{END_TO_END, PER_LAYER};

/// Metric values by name, in the order they were set.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Records `name = value`.
    ///
    /// # Panics
    /// Panics when `name` was already set: two code paths claiming one
    /// metric is a bug in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.get(name).is_none(), "metric {name} set twice");
        self.0.push((name, value));
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Every name set so far.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.iter().map(|&(n, _)| n)
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted: tasks offered.
    pub attempted: u64,
    /// Operations that ended outside the designed outcomes.
    pub failed: u64,
    /// Output-check violations, one line each; empty = outputs correct.
    pub violations: Vec<String>,
    /// The metrics of this run's mode.
    pub metrics: Metrics,
    /// Human-readable lines (sample counts, gates) printed with the table.
    pub notes: Vec<String>,
}

impl RunResult {
    /// Records an output-check violation.
    pub fn violate(&mut self, what: impl Into<String>) {
        self.violations.push(what.into());
    }

    /// Whether every output check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }
}

/// `(name, unit)` of every metric of a mode, in catalog order.
pub fn expected(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// Checks the result against the catalog (every metric of the mode set,
/// finite, and nothing else), then renders the human-readable table and
/// the final JSON line. `quick` adds a fifth key, which makes the line
/// unusable as a benchmark result on purpose.
pub fn render(result: &mut RunResult, traced: bool, quick: bool) -> (String, String) {
    let expected = expected(traced);
    let unknown: Vec<&str> = result
        .metrics
        .names()
        .filter(|name| !expected.iter().any(|(e, _)| e == name))
        .collect();
    for name in unknown {
        result.violate(format!("metric {name} is not in the catalog for this mode"));
    }
    let mut table = String::new();
    let mut fields = Vec::with_capacity(expected.len());
    for &(name, unit) in &expected {
        let value = match result.metrics.get(name) {
            Some(v) if v.is_finite() => v,
            Some(v) => {
                result.violate(format!("metric {name} is not finite ({v})"));
                0.0
            }
            None => {
                result.violate(format!("metric {name} was not measured"));
                0.0
            }
        };
        table.push_str(&format!("{name:<38} {value:>16.6} {unit}\n"));
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for note in &result.notes {
        table.push_str(&format!("# {note}\n"));
    }
    for violation in &result.violations {
        table.push_str(&format!("VIOLATION: {violation}\n"));
    }
    let quick_key = if quick { ", \"quick\": true" } else { "" };
    let json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}{quick_key}}}",
        result.correct(),
        result.attempted.max(1),
        result.failed,
        fields.join(", "),
    );
    (table, json)
}

/// Reads the metric values, in `names` order, back out of a result line
/// this module rendered. Refuses a line stamped `"quick": true`: a
/// 1/20-size smoke pass is not a benchmark result.
pub fn parse_result(line: &str, names: &[(&str, &str)]) -> Result<Vec<f64>, String> {
    if line.contains("\"quick\": true") {
        return Err("a quick run is not a benchmark result".to_string());
    }
    names
        .iter()
        .map(|(name, _)| {
            let key = format!("\"{name}\": {{\"value\": ");
            line.split_once(&key)
                .and_then(|(_, rest)| rest.split(',').next())
                .and_then(|number| number.parse().ok())
                .ok_or_else(|| format!("{name} missing from: {line}"))
        })
        .collect()
}
