//! Minimal CSV rendering (RFC-4180 quoting) for archiving figure data;
//! [`crate::write_stamped`] puts the string on disk.

/// Quotes a cell when it contains a comma, quote or newline.
fn quote(cell: &str) -> String {
    if cell.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// Renders rows (first row = header) to a CSV string.
pub fn to_csv_string(rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    for row in rows {
        let line: Vec<String> = row.iter().map(|c| quote(c)).collect();
        out.push_str(&line.join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_cells_unquoted() {
        let rows = vec![
            vec!["a".to_string(), "b".to_string()],
            vec!["1".to_string(), "2".to_string()],
        ];
        assert_eq!(to_csv_string(&rows), "a,b\n1,2\n");
    }

    #[test]
    fn special_cells_quoted() {
        let rows = vec![vec!["he,llo".to_string(), "say \"hi\"".to_string()]];
        assert_eq!(to_csv_string(&rows), "\"he,llo\",\"say \"\"hi\"\"\"\n");
    }
}
