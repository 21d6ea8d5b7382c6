//! Result tables: the rows/series each figure of the paper reports,
//! emitted as aligned text, Markdown, and CSV.

use std::fmt::Write as _;

/// A simple result table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id, e.g. "Fig. 10".
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Row data (stringified).
    pub rows: Vec<Vec<String>>,
    /// Free-text notes (workload, parameters, expected shape).
    pub notes: Vec<String>,
}

impl Table {
    /// Create an empty table.
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row (must match the column count).
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row width mismatch in table {}",
            self.id
        );
        self.rows.push(row);
    }

    /// Append a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Render as GitHub-flavored Markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {} — {}\n", self.id, self.title);
        let _ = writeln!(out, "| {} |", self.columns.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.columns
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        if !self.notes.is_empty() {
            let _ = writeln!(out);
            for n in &self.notes {
                let _ = writeln!(out, "> {n}");
            }
        }
        out
    }

    /// Render as CSV (headers + rows; notes as `#` comments).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            let _ = writeln!(out, "# {n}");
        }
        let _ = writeln!(out, "{}", self.columns.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Render as aligned plain text for the terminal.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", header.join("  "));
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", cells.join("  "));
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        out
    }
}

/// Format a duration in milliseconds with sensible precision.
pub fn ms(d: std::time::Duration) -> String {
    let v = d.as_secs_f64() * 1e3;
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Format a ratio/fraction.
pub fn frac(x: f64) -> String {
    format!("{x:.3}")
}

/// Comma-joined list of the vector features this CPU reports, recorded in
/// bench series headers so timings are comparable across machines.
pub fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut found = vec!["sse2"];
        if std::arch::is_x86_feature_detected!("sse4.2") {
            found.push("sse4.2");
        }
        if std::arch::is_x86_feature_detected!("avx") {
            found.push("avx");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            found.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            found.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            found.push("avx512f");
        }
        found.join(",")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        String::from("none")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Fig. X", "demo", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        t.push_row(vec!["30".into(), "4".into()]);
        t.note("a note");
        t
    }

    #[test]
    fn cpu_features_is_nonempty() {
        assert!(!cpu_features().is_empty());
    }

    #[test]
    fn markdown_has_header_separator_and_rows() {
        let md = sample().to_markdown();
        assert!(md.contains("| a | b |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 30 | 4 |"));
        assert!(md.contains("> a note"));
    }

    #[test]
    fn csv_roundtrip_shape() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "# a note");
        assert_eq!(lines[1], "a,b");
        assert_eq!(lines.len(), 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("t", "t", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(ms(std::time::Duration::from_millis(250)), "250");
        assert_eq!(ms(std::time::Duration::from_micros(1500)), "1.50");
        assert_eq!(ms(std::time::Duration::from_micros(120)), "0.1200");
    }
}
