//! Fixed-width result tables for the benchmark binaries.

/// A printable result table with a title and optional paper reference note.
#[derive(Debug, Clone)]
pub struct Report {
    title: String,
    pub(crate) columns: Vec<String>,
    pub(crate) rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Report {
    /// Creates an empty report with the given column headers.
    pub fn new(title: &str, columns: Vec<String>) -> Report {
        Report {
            title: title.to_string(),
            columns,
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Adds one data row (must match the column count).
    pub fn add_row(&mut self, row: Vec<String>) {
        debug_assert_eq!(row.len(), self.columns.len());
        self.rows.push(row);
    }

    /// Adds a free-form note printed under the table (for the paper's
    /// reported numbers and caveats).
    pub fn add_note(&mut self, note: &str) {
        self.notes.push(note.to_string());
    }

    /// Renders the table as an aligned string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (width, cell) in widths.iter_mut().zip(row) {
                *width = (*width).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let cells = cells.iter().zip(&widths);
            let padded: Vec<String> = cells.map(|(cell, &w)| format!("{cell:<w$}")).collect();
            padded.join("  ") + "\n"
        };
        let mut out = format!("\n== {} ==\n", self.title);
        out.push_str(&line(&self.columns));
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row));
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// A table row: its label, then its cells.
pub fn row(label: &str, cells: impl Iterator<Item = String>) -> Vec<String> {
    std::iter::once(label.to_string()).chain(cells).collect()
}

// One byte formatter for every stats surface: the server's INFO command and
// Prometheus endpoint render the same fields, so the rendering lives in
// `pebblesdb_common::stats` and this is just the historical name.
pub use pebblesdb_common::stats::format_mib;

/// Formats a ratio with two decimals.
pub fn format_ratio(value: f64) -> String {
    format!("{value:.2}")
}

/// Formats a throughput value in KOps/s with one decimal.
pub fn format_kops(value: f64) -> String {
    format!("{value:.1}")
}
