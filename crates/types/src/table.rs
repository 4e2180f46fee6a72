//! A small aligned-text table, used by the analytic crate and the bench
//! harness to print the paper's tables in the paper's own layout.

use std::fmt;

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Align {
    /// Left-aligned (labels).
    Left,
    /// Right-aligned (numbers); the default.
    #[default]
    Right,
}

/// An aligned text table with a title, column headers and string cells.
///
/// ```
/// use twobit_types::Table;
/// let mut t = Table::new("demo", vec!["n".into(), "overhead".into()]);
/// t.push_row(vec!["4".into(), "0.025".into()]);
/// t.push_row(vec!["64".into(), "1.622".into()]);
/// let s = t.to_string();
/// assert!(s.contains("overhead"));
/// assert!(s.contains("1.622"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    aligns: Vec<Align>,
}

impl Table {
    /// Creates an empty table with the given title and column headers.
    /// The first column is left-aligned, all others right-aligned; use
    /// [`Table::set_alignments`] to override.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: Vec<String>) -> Self {
        let mut aligns = vec![Align::Right; headers.len()];
        if let Some(first) = aligns.first_mut() {
            *first = Align::Left;
        }
        Table {
            title: title.into(),
            headers,
            rows: Vec::new(),
            aligns,
        }
    }

    /// Overrides column alignments.
    ///
    /// # Panics
    ///
    /// Panics if `aligns.len()` differs from the number of columns.
    pub fn set_alignments(&mut self, aligns: Vec<Align>) {
        assert_eq!(aligns.len(), self.headers.len(), "one alignment per column");
        self.aligns = aligns;
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(row);
    }

    /// Appends a full-width separator/label row (e.g. the paper's
    /// `case 1:` group markers). Rendered flush-left, not padded.
    pub fn push_section(&mut self, label: impl Into<String>) {
        // A sentinel single-cell row; rendering special-cases width 1.
        self.rows.push(vec![label.into()]);
    }

    /// The table's title.
    #[must_use]
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column headers.
    #[must_use]
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The data rows (section rows appear as single-cell rows).
    #[must_use]
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Number of data rows, counting section markers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as tab-separated values (headers first, sections as a
    /// single cell), for machine consumption.
    #[must_use]
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join("\t"));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join("\t"));
            out.push('\n');
        }
        out
    }

    fn column_widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            if row.len() != self.headers.len() {
                continue; // section marker
            }
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        widths
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.column_widths();
        writeln!(f, "{}", self.title)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        writeln!(f, "{}", "=".repeat(self.title.len().max(total)))?;
        let mut header_line = String::new();
        for (i, (h, w)) in self.headers.iter().zip(&widths).enumerate() {
            if i > 0 {
                header_line.push_str("  ");
            }
            match self.aligns[i] {
                Align::Left => header_line.push_str(&format!("{h:<w$}")),
                Align::Right => header_line.push_str(&format!("{h:>w$}")),
            }
        }
        writeln!(f, "{}", header_line.trim_end())?;
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            if row.len() == 1 && self.headers.len() != 1 {
                writeln!(f, "{}", row[0])?;
                continue;
            }
            let mut line = String::new();
            for (i, (cell, w)) in row.iter().zip(&widths).enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                match self.aligns[i] {
                    Align::Left => line.push_str(&format!("{cell:<w$}")),
                    Align::Right => line.push_str(&format!("{cell:>w$}")),
                }
            }
            writeln!(f, "{}", line.trim_end())?;
        }
        Ok(())
    }
}

/// Formats a float the way the paper's tables do (three decimal places).
#[must_use]
pub fn fmt3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("t", vec!["n".into(), "a".into(), "b".into()]);
        t.push_section("case 1:");
        t.push_row(vec!["4".into(), "0.1".into(), "0.22".into()]);
        t.push_row(vec!["64".into(), "10.5".into(), "0.3".into()]);
        t
    }

    #[test]
    fn rows_must_match_header_width() {
        let mut t = Table::new("t", vec!["a".into(), "b".into()]);
        t.push_row(vec!["1".into(), "2".into()]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "row width must match")]
    fn mismatched_row_panics() {
        let mut t = Table::new("t", vec!["a".into(), "b".into()]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn display_contains_all_cells_and_sections() {
        let s = sample().to_string();
        for needle in ["case 1:", "0.22", "10.5", "64"] {
            assert!(s.contains(needle), "missing {needle} in:\n{s}");
        }
    }

    #[test]
    fn columns_align_right_by_default() {
        let s = sample().to_string();
        // "4" and "64" end at the same column (right alignment of col 0 is
        // overridden to Left; numeric col 1 right-aligns: "0.1" under "10.5").
        let lines: Vec<&str> = s.lines().collect();
        let row4 = lines
            .iter()
            .find(|l| l.trim_start().starts_with('4'))
            .unwrap();
        let row64 = lines.iter().find(|l| l.starts_with("64")).unwrap();
        let pos_a_4 = row4.find("0.1").unwrap();
        let pos_a_64 = row64.find("10.5").unwrap();
        assert_eq!(pos_a_4, pos_a_64 + 1, "right-aligned numeric column");
    }

    #[test]
    fn tsv_roundtrips_cells() {
        let tsv = sample().to_tsv();
        assert!(tsv.starts_with("n\ta\tb\n"));
        assert!(tsv.contains("4\t0.1\t0.22"));
    }

    #[test]
    fn fmt3_matches_paper_precision() {
        assert_eq!(fmt3(0.4494), "0.449");
        assert_eq!(fmt3(57.33), "57.330");
        assert_eq!(fmt3(0.0), "0.000");
    }

    #[test]
    fn empty_table_renders() {
        let t = Table::new("empty", vec!["x".into()]);
        assert!(t.is_empty());
        assert!(t.to_string().contains("empty"));
    }

    #[test]
    fn set_alignments_validates_width() {
        let mut t = Table::new("t", vec!["a".into(), "b".into()]);
        t.set_alignments(vec![Align::Right, Align::Left]);
    }
}
