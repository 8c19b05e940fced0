//! Plain-text tables for experiment output — every experiment `repro`
//! runs prints one or more of these, and a full run concatenates them into
//! the experiment record.

use std::fmt;

/// A labelled table of rows, mirroring one figure or table of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Identifier, e.g. `"Fig 8a"`.
    pub id: String,
    /// What the paper's version of this table shows.
    pub caption: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Row cells (first column is typically the x-axis value).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(
        id: impl Into<String>,
        caption: impl Into<String>,
        columns: &[&str],
    ) -> Table {
        Table {
            id: id.into(),
            caption: caption.into(),
            columns: columns.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count mismatches the header.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Formats a percentage cell.
    pub fn pct(v: f64) -> String {
        format!("{:.1}%", 100.0 * v)
    }

    /// Formats a ratio cell with three decimals.
    pub fn num(v: f64) -> String {
        format!("{v:.3}")
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== {} — {} ===", self.id, self.caption)?;
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        writeln!(f, "{}", header.join("  "))?;
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            writeln!(f, "{}", cells.join("  "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Fig X", "demo", &["x", "value"]);
        t.push_row(vec!["1".into(), Table::pct(0.5)]);
        t.push_row(vec!["100".into(), Table::pct(1.0)]);
        let s = t.to_string();
        assert!(s.contains("Fig X"));
        assert!(s.contains("50.0%"));
        assert!(s.contains("100.0%"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("T", "demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(Table::pct(0.123), "12.3%");
        assert_eq!(Table::num(0.12345), "0.123");
    }
}
