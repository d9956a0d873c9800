//! # itm-bench — experiment reproduction harness and benchmarks
//!
//! One function per paper artifact (every table, figure, and quantitative
//! claim — the E1–E13 index in `DESIGN.md`), plus the D1–D5 ablations.
//! Each experiment returns a [`ExperimentResult`]: a human-readable table
//! and machine-readable CSV rows, which the `repro` binary prints and
//! writes under `results/`.
//!
//! Criterion benchmarks for the computational kernels live in `benches/`.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod ablations;
pub mod experiments;
pub mod plan;

use std::fmt::Write as _;

/// The outcome of one reproduced experiment.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment id (e.g. `"fig2"`).
    pub id: &'static str,
    /// One-line title.
    pub title: String,
    /// CSV header.
    pub csv_header: String,
    /// CSV data rows.
    pub csv_rows: Vec<String>,
    /// Headline (key, value) pairs compared against the paper.
    pub headline: Vec<(String, String)>,
}

impl ExperimentResult {
    /// Render the CSV body.
    pub fn csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.csv_header);
        for r in &self.csv_rows {
            let _ = writeln!(out, "{r}");
        }
        out
    }

    /// Render the human-readable summary.
    pub fn text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        for (k, v) in &self.headline {
            let _ = writeln!(out, "  {k}: {v}");
        }
        out
    }
}

/// Helper: format a float percentage.
pub(crate) fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExperimentResult {
        ExperimentResult {
            id: "sample",
            title: "a sample experiment".into(),
            csv_header: "a,b".into(),
            csv_rows: vec!["1,2".into(), "3,4".into()],
            headline: vec![("metric".into(), "42%".into())],
        }
    }

    #[test]
    fn csv_rendering_includes_header_and_rows() {
        let csv = sample().csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines, vec!["a,b", "1,2", "3,4"]);
    }

    #[test]
    fn text_rendering_includes_id_title_and_headlines() {
        let text = sample().text();
        assert!(text.contains("sample"));
        assert!(text.contains("a sample experiment"));
        assert!(text.contains("metric: 42%"));
    }

    #[test]
    fn pct_formats_fractions() {
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(pct(0.0), "0.0%");
        assert_eq!(pct(1.0), "100.0%");
        assert_eq!(pct(0.1234), "12.3%");
    }
}
