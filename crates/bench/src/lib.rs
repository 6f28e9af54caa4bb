//! # mrpa-bench — experiment harness for the path-algebra reproduction
//!
//! The paper contains one figure (Fig. 1) and no quantitative tables; the
//! experiments reproduced here are E1–E10: Fig. 1 itself plus the
//! quantitative claims the paper makes qualitatively (join ⊆ product,
//! restriction prunes the traversal explosion, label selectivity, derivation
//! semantics, NFA vs DFA, generator ≡ recognizer∘scan, engine throughput).
//!
//! Each experiment is a binary in `src/bin/exp_*.rs` whose module doc names
//! its experiment number and the section of the paper it reproduces; it
//! prints a human-readable table.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

use std::time::Instant;

pub mod e8;

/// Measures the wall-clock time of a closure, returning (result, milliseconds).
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Measures the median wall-clock time of `runs` executions (milliseconds).
pub fn time_median<T>(runs: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut times: Vec<f64> = (0..runs.max(1))
        .map(|_| {
            let start = Instant::now();
            let _ = f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

/// A simple fixed-width table printer for experiment output.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<I: IntoIterator<Item = S>, S: Into<String>>(headers: I) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row<I: IntoIterator<Item = S>, S: Into<String>>(&mut self, cells: I) {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                if cell.len() > widths[i] {
                    widths[i] = cell.len();
                }
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1))));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout with a title line.
    pub fn print(&self, title: &str) {
        println!("\n== {title} ==");
        print!("{}", self.render());
    }
}

/// Formats a float with 3 decimal places (milliseconds, ratios, correlations).
pub fn fmt_f(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_returns_result_and_positive_duration() {
        let (value, ms) = time(|| (0..1000).sum::<u64>());
        assert_eq!(value, 499500);
        assert!(ms >= 0.0);
        let median = time_median(3, || 1 + 1);
        assert!(median >= 0.0);
    }

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new(["name", "value"]);
        t.row(["alpha", "1"]);
        t.row(["a-much-longer-name", "2"]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        let rendered = t.render();
        assert!(rendered.contains("name"));
        assert!(rendered.contains("a-much-longer-name"));
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(1.23456), "1.235");
    }
}
