//! Plain-text and CSV tables for experiment output.

use std::fmt;

/// A simple column-aligned table with a title and optional footnotes.
///
/// # Examples
///
/// ```
/// use mla_sim::Table;
///
/// let mut table = Table::new("demo", &["n", "ratio"]);
/// table.row(&["8", "1.25"]);
/// table.row(&["16", "1.50"]);
/// let text = table.render();
/// assert!(text.contains("demo"));
/// assert!(text.contains("1.50"));
/// assert_eq!(table.to_csv(), "n,ratio\n8,1.25\n16,1.50\n");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    #[must_use]
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            headers: headers.iter().map(|&h| h.to_owned()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// The table title.
    #[must_use]
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: &[&str]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells, table has {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows
            .push(cells.iter().map(|&c| c.to_owned()).collect());
    }

    /// Appends a footnote printed below the table.
    pub fn note(&mut self, note: &str) {
        self.notes.push(note.to_owned());
    }

    /// The table in structured artifact form (for `mla-runner`'s JSON
    /// campaign reports).
    #[must_use]
    pub fn to_artifact(&self) -> mla_runner::TableData {
        mla_runner::TableData {
            title: self.title.clone(),
            headers: self.headers.clone(),
            rows: self.rows.clone(),
            notes: self.notes.clone(),
        }
    }

    /// Renders the table as aligned plain text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str("== ");
        out.push_str(&self.title);
        out.push_str(" ==\n");
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", cell, width = widths[i]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        for note in &self.notes {
            out.push_str("  * ");
            out.push_str(note);
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV (headers + rows; notes omitted).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_and_notes() {
        let mut table = Table::new("t", &["col", "value"]);
        table.row(&["a", "1"]);
        table.row(&["long-name", "22"]);
        table.note("a note");
        let text = table.render();
        assert!(text.contains("== t =="));
        assert!(text.contains("long-name"));
        assert!(text.contains("* a note"));
        assert_eq!(table.len(), 2);
        assert!(!table.is_empty());
    }

    #[test]
    #[should_panic(expected = "row has 1 cells")]
    fn row_length_is_validated() {
        let mut table = Table::new("t", &["a", "b"]);
        table.row(&["only-one"]);
    }

    #[test]
    fn csv_round_trip() {
        let mut table = Table::new("t", &["x", "y"]);
        table.row(&["1", "2"]);
        assert_eq!(table.to_csv(), "x,y\n1,2\n");
    }
}
