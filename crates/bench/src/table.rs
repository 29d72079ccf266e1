//! Minimal markdown-style table rendering for experiment output.

/// A simple column-aligned table printer.
///
/// ```
/// use scar_bench::Table;
///
/// let mut t = Table::new(vec!["Strategy".into(), "EDP (J·s)".into()]);
/// t.row(vec!["Het-Sides".into(), format!("{:.3}", 3.328)]);
/// let s = t.render();
/// assert!(s.contains("Het-Sides"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: Vec<String>) -> Self {
        Self {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned markdown.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut s = String::from("|");
            for i in 0..ncols {
                s.push(' ');
                s.push_str(&format!("{:w$}", cells[i], w = widths[i]));
                s.push_str(" |");
            }
            s
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{:-<w$}--|", "", w = w));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats a ratio like the paper's normalized plots (`0.52x`).
pub fn ratio(value: f64, baseline: f64) -> String {
    if baseline == 0.0 {
        return "n/a".into();
    }
    format!("{:.2}x", value / baseline)
}

/// One strategy's row of a normalized sweep: for every scenario of
/// `grid[scenario][strategy]`, `value` of strategy `k` over `value` of
/// strategy `base`, as `{:.2}` — or `-` when either result is missing or
/// the base is not positive.
pub fn relative_cells<T>(
    grid: &[Vec<Option<T>>],
    k: usize,
    base: usize,
    value: impl Fn(&T) -> f64,
) -> Vec<String> {
    grid.iter()
        .map(|row| {
            let at = |i: usize| row[i].as_ref().map(&value);
            match (at(k), at(base)) {
                (Some(v), Some(b)) if b > 0.0 => format!("{:.2}", v / b),
                _ => "-".into(),
            }
        })
        .collect()
}

/// Engineering-notation seconds (`1.37 s`, `0.28 ms`).
pub fn fmt_seconds(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.3} µs", s * 1e6)
    }
}

/// Engineering-notation joules.
pub fn fmt_joules(j: f64) -> String {
    if j >= 1.0 {
        format!("{j:.3} J")
    } else if j >= 1e-3 {
        format!("{:.3} mJ", j * 1e3)
    } else {
        format!("{:.3} µJ", j * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new(vec!["a".into(), "bb".into()]);
        t.row(vec!["x".into(), "y".into()]);
        let s = t.render();
        assert!(s.starts_with("| a | bb |"));
        assert!(s.lines().count() == 3);
        assert!(!t.is_empty());
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut t = Table::new(vec!["a".into()]);
        t.row(vec!["x".into(), "y".into()]);
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(ratio(1.0, 2.0), "0.50x");
        assert_eq!(ratio(1.0, 0.0), "n/a");
    }

    #[test]
    fn relative_cells_normalize_by_the_base_column() {
        let grid = vec![
            vec![Some(2.0), Some(3.0)],
            vec![Some(2.0), None],
            vec![Some(0.0), Some(1.0)],
        ];
        assert_eq!(relative_cells(&grid, 1, 0, |v| *v), ["1.50", "-", "-"]);
        assert_eq!(relative_cells(&grid, 0, 0, |v| *v), ["1.00", "1.00", "-"]);
    }

    #[test]
    fn unit_formatting() {
        assert_eq!(fmt_seconds(1.5), "1.500 s");
        assert_eq!(fmt_seconds(0.0015), "1.500 ms");
        assert_eq!(fmt_seconds(2e-6), "2.000 µs");
        assert_eq!(fmt_joules(0.5), "500.000 mJ");
    }
}
