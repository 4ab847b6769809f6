//! Plain-text / Markdown / CSV table rendering for the experiments and the CLI.
//!
//! Every experiment prints a Markdown table (the rows its module in the root
//! package's `src/experiments/` computes), and a table can additionally emit
//! the same rows as CSV or JSON so the numbers can be re-plotted without
//! re-running the simulation.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// A simple column-oriented table of strings.
///
/// # Example
///
/// ```
/// use geogossip_analysis::Table;
/// let mut t = Table::new(vec!["n", "transmissions"]);
/// t.add_row(vec!["256".into(), "12345".into()]);
/// let markdown = t.to_markdown();
/// assert!(markdown.contains("| n | transmissions |"));
/// assert!(markdown.contains("| 256 | 12345 |"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if no headers are given.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        assert!(!headers.is_empty(), "a table needs at least one column");
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the number of headers.
    pub fn add_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row length must match the number of columns"
        );
        self.rows.push(row);
    }

    /// Convenience: appends a row of displayable values.
    pub fn push_display<D: std::fmt::Display>(&mut self, row: &[D]) {
        self.add_row(row.iter().map(|d| d.to_string()).collect());
    }

    /// Renders the table as GitHub-flavoured Markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }

    /// Renders the table as CSV (comma-separated; fields containing commas are
    /// quoted).
    pub fn to_csv(&self) -> String {
        let escape = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Serialises the table as a JSON array of objects keyed by header.
    ///
    /// Rendered by hand (all cells are strings) so the crate needs no JSON
    /// dependency; strings are escaped per RFC 8259.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (r, row) in self.rows.iter().enumerate() {
            if r > 0 {
                out.push(',');
            }
            out.push_str("\n  {");
            for (c, (header, cell)) in self.headers.iter().zip(row).enumerate() {
                if c > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{}: {}", json_string(header), json_string(cell));
            }
            out.push('}');
        }
        out.push_str("\n]");
        out
    }
}

/// Escapes `s` as a JSON string literal (quotes included).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(vec!["protocol", "n", "cost"]);
        t.add_row(vec!["pairwise".into(), "256".into(), "1000".into()]);
        t.add_row(vec!["affine".into(), "256".into(), "200".into()]);
        t
    }

    #[test]
    fn markdown_has_header_separator_and_rows() {
        let md = sample().to_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].contains("---"));
        assert!(lines[3].starts_with("| affine"));
    }

    #[test]
    fn csv_round_trips_simple_fields() {
        let csv = sample().to_csv();
        assert!(csv.starts_with("protocol,n,cost\n"));
        assert!(csv.contains("pairwise,256,1000"));
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new(vec!["name"]);
        t.add_row(vec!["a,b".into()]);
        t.add_row(vec!["say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn json_emits_one_object_per_row() {
        let json = sample().to_json();
        assert_eq!(json.matches('{').count(), 2);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"protocol\": \"pairwise\""));
        assert!(json.contains("\"cost\": \"200\""));
    }

    #[test]
    fn json_escapes_quotes_and_control_characters() {
        let mut t = Table::new(vec!["note"]);
        t.add_row(vec!["say \"hi\"\nback\\slash".into()]);
        let json = t.to_json();
        assert!(json.contains(r#""say \"hi\"\nback\\slash""#));
    }

    #[test]
    fn push_display_formats_values() {
        let mut t = Table::new(vec!["a", "b"]);
        t.push_display(&[1.5, 2.0]);
        assert_eq!(t.rows()[0], vec!["1.5".to_string(), "2".to_string()]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn mismatched_row_rejected() {
        let mut t = Table::new(vec!["a", "b"]);
        t.add_row(vec!["only one".into()]);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_headers_rejected() {
        let _ = Table::new(Vec::<String>::new());
    }
}
