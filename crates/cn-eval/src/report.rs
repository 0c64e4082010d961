//! Plain-text/markdown table rendering for experiment output.

use serde::{Deserialize, Serialize};

/// A renderable results table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table {
    /// Table caption, e.g. `"Table 4: ..."`.
    pub(crate) title: String,
    /// Column headers.
    pub(crate) headers: Vec<String>,
    /// Data rows (each the same length as `headers`).
    pub(crate) rows: Vec<Vec<String>>,
}

impl Table {
    /// Create an empty table.
    pub(crate) fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the row length differs from the header length.
    pub(crate) fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row/header length mismatch");
        self.rows.push(row);
    }

    /// Render as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for (i, (c, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    s.push_str("  ");
                }
                s.push_str(&format!("{c:>w$}", w = w));
            }
            s.push('\n');
            s
        };
        out.push_str(&line(&self.headers, &widths));
        let rule: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
        }
        out
    }

    /// Render as CSV (title as a comment line, then header + rows).
    pub fn render_csv(&self) -> String {
        let escape = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = format!("# {}\n", self.title);
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Render as a GitHub-flavored markdown table.
    pub fn render_markdown(&self) -> String {
        let mut out = format!("### {}\n\n", self.title);
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.headers.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Format a fraction as a signed percentage with one decimal, paper-style
/// (`+1.4%`, `-45.3%`).
pub(crate) fn signed_pct(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

/// Format a fraction as an unsigned percentage with one decimal.
pub(crate) fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.push_row(vec!["alpha".into(), "1".into()]);
        t.push_row(vec!["b".into(), "12345".into()]);
        let s = t.render();
        assert!(s.contains("Demo"));
        assert!(s.contains("alpha"));
        let md = t.render_markdown();
        assert!(md.contains("| name | value |"));
    }

    #[test]
    fn renders_csv_with_escaping() {
        let mut t = Table::new("T", &["a", "b"]);
        t.push_row(vec!["x,y".into(), "quo\"te".into()]);
        let csv = t.render_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"quo\"\"te\""));
        assert!(csv.starts_with("# T\n"));
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn row_length_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn percent_formatting() {
        assert_eq!(signed_pct(0.014), "+1.4%");
        assert_eq!(signed_pct(-0.453), "-45.3%");
        assert_eq!(pct(0.455), "45.5%");
    }
}
