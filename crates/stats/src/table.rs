//! Plain-text table and series rendering for the experiment harness.
//!
//! The `experiments` binary prints every reproduced "table" as a
//! markdown-style [`Table`] and every "figure" as a [`Series`] — the
//! x/y rows plus an ASCII chart, so results are inspectable in a
//! terminal and diffable in EXPERIMENTS.md.

use std::fmt;

/// A rectangular text table with a header row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// The table's title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The raw rows (for assertions in tests).
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the table as CSV (RFC-4180-style quoting for cells
    /// containing commas, quotes or newlines), header row first.
    ///
    /// # Examples
    ///
    /// ```
    /// use crn_stats::Table;
    /// let mut t = Table::new("demo", &["a", "b"]);
    /// t.push_row(vec!["1".into(), "x,y".into()]);
    /// assert_eq!(t.to_csv(), "a,b\n1,\"x,y\"\n");
    /// ```
    pub fn to_csv(&self) -> String {
        fn cell(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        let mut line = |cells: &[String]| {
            let row: Vec<String> = cells.iter().map(|c| cell(c)).collect();
            out.push_str(&row.join(","));
            out.push('\n');
        };
        line(&self.headers);
        for row in &self.rows {
            line(row);
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "## {}", self.title)?;
        writeln!(f)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (w, cell) in widths.iter().zip(cells) {
                write!(f, " {cell:<w$} |")?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{:-<1$}|", "", w + 2)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// An x/y series with an ASCII rendering (one experiment "figure").
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    title: String,
    x_label: String,
    y_label: String,
    points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Series {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The series title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The collected points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Renders the series as two-column CSV (`x,y`).
    ///
    /// # Examples
    ///
    /// ```
    /// use crn_stats::Series;
    /// let mut s = Series::new("t", "n", "slots");
    /// s.push(2.0, 8.5);
    /// assert_eq!(s.to_csv(), "n,slots\n2,8.5\n");
    /// ```
    pub fn to_csv(&self) -> String {
        let mut out = format!("{},{}\n", self.x_label, self.y_label);
        for &(x, y) in &self.points {
            out.push_str(&format!("{x},{y}\n"));
        }
        out
    }

    /// Renders a simple horizontal bar chart, one line per point.
    fn render_bars(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let max_y = self
            .points
            .iter()
            .map(|&(_, y)| y)
            .fold(f64::NEG_INFINITY, f64::max);
        if !max_y.is_finite() || max_y <= 0.0 {
            return Ok(());
        }
        const WIDTH: usize = 48;
        for &(x, y) in &self.points {
            let bar = ((y / max_y) * WIDTH as f64).round().max(0.0) as usize;
            writeln!(f, "{x:>12.2} | {:#<bar$}", "", bar = bar)?;
        }
        Ok(())
    }
}

impl fmt::Display for Series {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "## {}", self.title)?;
        writeln!(f)?;
        writeln!(f, "| {} | {} |", self.x_label, self.y_label)?;
        writeln!(f, "|---|---|")?;
        for &(x, y) in &self.points {
            writeln!(f, "| {x} | {y:.3} |")?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "{} vs {} (bars scaled to max):",
            self.y_label, self.x_label
        )?;
        self.render_bars(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_markdown() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.push_row(vec!["alpha".into(), "1".into()]);
        t.push_row(vec!["b".into(), "12345".into()]);
        let s = t.to_string();
        assert!(s.contains("## demo"));
        assert!(s.contains("| name  | value |"));
        assert!(s.contains("| alpha | 1     |"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_row_rejected() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_quotes_special_cells() {
        let mut t = Table::new("x", &["name", "note"]);
        t.push_row(vec!["plain".into(), "a,b".into()]);
        t.push_row(vec!["quoted\"".into(), "line\nbreak".into()]);
        let csv = t.to_csv();
        assert!(csv.starts_with("name,note\n"));
        assert!(csv.contains("plain,\"a,b\"\n"));
        assert!(csv.contains("\"quoted\"\"\",\"line\nbreak\"\n"));
    }

    #[test]
    fn series_renders_points_and_bars() {
        let mut s = Series::new("fig", "n", "slots");
        s.push(2.0, 10.0);
        s.push(4.0, 20.0);
        let out = s.to_string();
        assert!(out.contains("## fig"));
        assert!(out.contains("| 2 | 10.000 |"));
        assert!(out.contains('#'), "bars missing: {out}");
        assert_eq!(s.points().len(), 2);
    }

    #[test]
    fn empty_series_renders_without_bars() {
        let s = Series::new("empty", "x", "y");
        let out = s.to_string();
        assert!(out.contains("## empty"));
    }

    #[test]
    fn series_with_zero_max_does_not_panic() {
        let mut s = Series::new("zero", "x", "y");
        s.push(1.0, 0.0);
        let _ = s.to_string();
    }
}
