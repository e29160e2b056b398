//! Shared KPI vocabulary for every experiment suite.
//!
//! Before PR 8 each bench suite carried its own point struct plus
//! duplicated table- and CSV-row builders. [`KpiRow`] / [`KpiReport`]
//! replace that: a row is an ordered list of named cells (labels and
//! numeric KPIs), a report is an ordered list of rows plus optional
//! [`crate::Provenance`]. One report renders to a terminal
//! table, RFC-4180 CSV rows, and JSON-lines — the formats the old code
//! hand-built per suite.
//!
//! Column names are stable and, where a value is a direct readout of an
//! observer counter or histogram, named after the obs catalog entry
//! (`deadlines.met`, `shard.handoffs`, `matching.seconds`, ...). Derived
//! quantities use the `kpi.` prefix (`kpi.deadline_hit_rate`,
//! `kpi.assign_latency_p99_s`).

use crate::provenance::Provenance;
use crate::table::Table;

/// One typed KPI cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum KpiValue {
    /// A free-form label (suite name, matcher name, fault plan, ...).
    Text(String),
    /// An integer count.
    Int(i64),
    /// A raw floating-point quantity.
    Float(f64),
    /// A ratio in `[0, 1]`, rendered as a percentage in tables but kept
    /// as the raw ratio in CSV/JSON so downstream math stays exact.
    Pct(f64),
}

impl KpiValue {
    /// Table cell rendering (human-facing).
    pub fn render(&self) -> String {
        match self {
            KpiValue::Text(s) => s.clone(),
            KpiValue::Int(i) => i.to_string(),
            KpiValue::Float(x) => format_float(*x),
            KpiValue::Pct(x) => format!("{:.1}%", x * 100.0),
        }
    }

    /// CSV cell rendering (machine-facing, raw values).
    pub fn to_csv_cell(&self) -> String {
        match self {
            KpiValue::Text(s) => s.clone(),
            KpiValue::Int(i) => i.to_string(),
            KpiValue::Float(x) | KpiValue::Pct(x) => format!("{x}"),
        }
    }

    /// JSON value rendering. Non-finite floats become `null`.
    pub fn to_json(&self) -> String {
        match self {
            KpiValue::Text(s) => json_string(s),
            KpiValue::Int(i) => i.to_string(),
            KpiValue::Float(x) | KpiValue::Pct(x) => {
                if x.is_finite() {
                    format!("{x}")
                } else {
                    "null".to_string()
                }
            }
        }
    }

    /// The value as `f64` when it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            KpiValue::Int(i) => Some(*i as f64),
            KpiValue::Float(x) | KpiValue::Pct(x) => Some(*x),
            _ => None,
        }
    }
}

fn format_float(x: f64) -> String {
    if !x.is_finite() {
        return format!("{x}");
    }
    let a = x.abs();
    if a > 0.0 && a < 0.001 {
        format!("{x:.2e}")
    } else if a >= 1000.0 {
        format!("{x:.0}")
    } else {
        let s = format!("{x:.3}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    }
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One experiment run's KPIs: an ordered list of named cells.
///
/// Cell order is insertion order — it drives table/CSV column order, so
/// suites should add labels first, then counts, then derived rates.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KpiRow {
    cells: Vec<(String, KpiValue)>,
}

impl KpiRow {
    /// An empty row.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds or replaces a cell, preserving first-insertion position on
    /// replacement.
    pub fn set(&mut self, name: &str, value: KpiValue) {
        if let Some(slot) = self.cells.iter_mut().find(|(n, _)| n == name) {
            slot.1 = value;
        } else {
            self.cells.push((name.to_string(), value));
        }
    }

    /// Builder-style text label.
    pub fn label(mut self, name: &str, value: impl Into<String>) -> Self {
        self.set(name, KpiValue::Text(value.into()));
        self
    }

    /// Builder-style integer count.
    pub fn int(mut self, name: &str, value: i64) -> Self {
        self.set(name, KpiValue::Int(value));
        self
    }

    /// Builder-style float.
    pub fn float(mut self, name: &str, value: f64) -> Self {
        self.set(name, KpiValue::Float(value));
        self
    }

    /// Builder-style ratio (rendered as a percentage in tables).
    pub fn pct(mut self, name: &str, value: f64) -> Self {
        self.set(name, KpiValue::Pct(value));
        self
    }

    /// Looks a cell up by column name.
    pub fn get(&self, name: &str) -> Option<&KpiValue> {
        self.cells.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Numeric readout of a cell, when present and numeric.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.get(name).and_then(KpiValue::as_f64)
    }

    /// Text readout of a cell, when present and textual.
    pub fn text(&self, name: &str) -> Option<&str> {
        match self.get(name) {
            Some(KpiValue::Text(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Column names in insertion order.
    pub fn columns(&self) -> impl Iterator<Item = &str> {
        self.cells.iter().map(|(n, _)| n.as_str())
    }

    /// `(name, value)` cells in insertion order — for merging rows
    /// (e.g. prefixing identity columns in the sweep driver).
    pub fn cells(&self) -> impl Iterator<Item = (&str, &KpiValue)> {
        self.cells.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the row has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The row as one JSON object (insertion order preserved).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_string(name));
            out.push(':');
            out.push_str(&value.to_json());
        }
        out.push('}');
        out
    }
}

/// An ordered collection of [`KpiRow`]s with optional provenance — the
/// single aggregated artifact an experiment suite or sweep emits.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KpiReport {
    /// The rows, in run order.
    pub rows: Vec<KpiRow>,
    /// Attribution stamp carried into every serialisation.
    pub provenance: Option<Provenance>,
}

impl KpiReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a report from rows.
    pub fn from_rows(rows: Vec<KpiRow>) -> Self {
        KpiReport {
            rows,
            provenance: None,
        }
    }

    /// Attaches a provenance stamp.
    pub fn with_provenance(mut self, provenance: Provenance) -> Self {
        self.provenance = Some(provenance);
        self
    }

    /// Appends a row.
    pub fn push(&mut self, row: KpiRow) {
        self.rows.push(row);
    }

    /// Union of column names across rows, in first-seen order.
    pub fn columns(&self) -> Vec<String> {
        let mut cols: Vec<String> = Vec::new();
        for row in &self.rows {
            for name in row.columns() {
                if !cols.iter().any(|c| c == name) {
                    cols.push(name.to_string());
                }
            }
        }
        cols
    }

    /// CSV rows (header + one row per [`KpiRow`]); missing cells render
    /// empty. Column set is restricted to `columns` when given.
    pub fn to_csv_rows(&self, columns: Option<&[&str]>) -> Vec<Vec<String>> {
        let all = self.columns();
        let cols: Vec<&str> = match columns {
            Some(sel) => sel.to_vec(),
            None => all.iter().map(|s| s.as_str()).collect(),
        };
        let mut rows = Vec::with_capacity(self.rows.len() + 1);
        rows.push(cols.iter().map(|c| c.to_string()).collect());
        for row in &self.rows {
            rows.push(
                cols.iter()
                    .map(|c| row.get(c).map(KpiValue::to_csv_cell).unwrap_or_default())
                    .collect(),
            );
        }
        rows
    }

    /// JSON-lines serialisation: one provenance header object (when
    /// stamped), then one object per row. Byte-stable for identical
    /// rows + provenance.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        if let Some(p) = &self.provenance {
            out.push_str("{\"provenance\":");
            out.push_str(&p.to_json());
            out.push_str("}\n");
        }
        for row in &self.rows {
            out.push_str(&row.to_json());
            out.push('\n');
        }
        out
    }

    /// Terminal table over all columns (or a selection).
    pub fn table(&self, title: &str, columns: Option<&[&str]>) -> Table {
        let all = self.columns();
        let cols: Vec<&str> = match columns {
            Some(sel) => sel.to_vec(),
            None => all.iter().map(|s| s.as_str()).collect(),
        };
        let mut table = Table::new(&cols).with_title(title);
        for row in &self.rows {
            table.add_row(
                cols.iter()
                    .map(|c| row.get(c).map(KpiValue::render).unwrap_or_default())
                    .collect(),
            );
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row() -> KpiRow {
        KpiRow::new()
            .label("suite", "scenario")
            .int("tasks.completed", 42)
            .pct("kpi.deadline_hit_rate", 0.875)
            .float("matching.seconds", 1.5)
    }

    #[test]
    fn row_json_preserves_insertion_order() {
        let json = sample_row().to_json();
        assert_eq!(
            json,
            "{\"suite\":\"scenario\",\"tasks.completed\":42,\
             \"kpi.deadline_hit_rate\":0.875,\"matching.seconds\":1.5}"
        );
    }

    #[test]
    fn set_replaces_in_place() {
        let mut row = sample_row();
        row.set("tasks.completed", KpiValue::Int(43));
        let cols: Vec<&str> = row.columns().collect();
        assert_eq!(cols[1], "tasks.completed");
        assert_eq!(row.metric("tasks.completed"), Some(43.0));
    }

    #[test]
    fn report_columns_union_first_seen() {
        let mut report = KpiReport::new();
        report.push(KpiRow::new().label("a", "x").int("b", 1));
        report.push(KpiRow::new().label("a", "y").int("c", 2));
        assert_eq!(report.columns(), vec!["a", "b", "c"]);
        let csv = report.to_csv_rows(None);
        assert_eq!(csv[0], vec!["a", "b", "c"]);
        assert_eq!(csv[1], vec!["x", "1", ""]);
        assert_eq!(csv[2], vec!["y", "", "2"]);
    }

    #[test]
    fn pct_renders_percent_in_tables_raw_in_csv() {
        let v = KpiValue::Pct(0.4321);
        assert_eq!(v.render(), "43.2%");
        assert_eq!(v.to_csv_cell(), "0.4321");
        assert_eq!(v.to_json(), "0.4321");
    }

    #[test]
    fn jsonl_is_stable_and_parseable_shape() {
        let report = KpiReport::from_rows(vec![sample_row()]);
        let a = report.to_jsonl();
        let b = report.to_jsonl();
        assert_eq!(a, b);
        assert!(a.starts_with('{') && a.ends_with('\n'));
    }

    #[test]
    fn non_finite_floats_serialise_as_null() {
        let row = KpiRow::new().float("x", f64::NAN);
        assert_eq!(row.to_json(), "{\"x\":null}");
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
