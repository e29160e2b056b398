//! Plain-text table rendering for experiment reports.

use std::fmt::Write as _;

/// A simple column-aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    title: Option<String>,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            title: None,
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Sets a title printed above the table.
    pub fn with_title(mut self, title: impl Into<String>) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Appends a row of preformatted cells.
    ///
    /// # Panics
    /// Panics when the cell count differs from the header count.
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells, table has {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// Renders the table. First column left-aligned, the rest
    /// right-aligned (the usual look for numeric result tables).
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if let Some(t) = &self.title {
            let _ = writeln!(out, "{t}");
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                if i == 0 {
                    let _ = write!(line, "{:<width$}", cell, width = widths[i]);
                } else {
                    let _ = write!(line, "{:>width$}", cell, width = widths[i]);
                }
            }
            line
        };
        let header_line = fmt_row(&self.headers, &widths);
        let _ = writeln!(out, "{header_line}");
        let total: usize = widths.iter().sum::<usize>() + 2 * ncols.saturating_sub(1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }
}

/// Formats a ratio as a percentage with 1 decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["algo", "tasks", "met"]).with_title("Fig 5");
        t.add_row(vec!["react".into(), "8371".into(), "6091".into()]);
        t.add_row(vec!["traditional".into(), "8371".into(), "4264".into()]);
        let s = t.render();
        assert!(s.starts_with("Fig 5\n"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5, "title + header + rule + 2 rows");
        assert!(lines[1].contains("algo"));
        assert!(lines[3].starts_with("react"));
        // Right-aligned numeric columns line up.
        let met_col = lines[1].rfind("met").unwrap();
        assert_eq!(lines[3].rfind("6091").unwrap() + 4, met_col + 3);
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.add_row(vec!["x".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.614), "61.4%");
        assert_eq!(pct(1.0), "100.0%");
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = Table::new(&["only"]);
        let s = t.render();
        assert!(s.contains("only"));
        assert_eq!(s.lines().count(), 2);
    }
}
