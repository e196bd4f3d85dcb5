use std::fmt;

/// A result table: a title, a header row, and string-valued cells,
/// rendered as aligned GitHub-flavoured markdown so output can be pasted
/// straight into a document.
///
/// # Examples
///
/// ```
/// use dmx_harness::Table;
///
/// let mut t = Table::new("Demo", &["algorithm", "messages"]);
/// t.row(&["dag", "3"]);
/// let text = t.to_string();
/// assert!(text.contains("| dag"));
/// assert!(text.contains("Demo"));
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
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a footnote line, rendered after the table body (and
    /// excluded from [`to_csv`](Table::to_csv)).
    pub fn note(&mut self, line: &str) {
        self.notes.push(line.to_string());
    }

    /// The footnote lines appended so far.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row<S: AsRef<str>>(&mut self, cells: &[S]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows
            .push(cells.iter().map(|c| c.as_ref().to_string()).collect());
    }

    /// The table's title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no data rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Cell access (row-major), for assertions in tests.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn cell(&self, row: usize, col: usize) -> &str {
        &self.rows[row][col]
    }

    /// Looks up a row by the value of its first column.
    ///
    /// # Examples
    ///
    /// ```
    /// # use dmx_harness::Table;
    /// let mut t = Table::new("x", &["k", "v"]);
    /// t.row(&["a", "1"]);
    /// assert_eq!(t.find_row("a").unwrap()[1], "1");
    /// ```
    pub fn find_row(&self, key: &str) -> Option<&[String]> {
        self.rows.iter().find(|r| r[0] == key).map(Vec::as_slice)
    }

    /// Serializes as CSV (header row first, RFC-4180-style quoting of
    /// cells containing commas or quotes) for plotting pipelines.
    ///
    /// # Examples
    ///
    /// ```
    /// # use dmx_harness::Table;
    /// let mut t = Table::new("x", &["algo", "msgs"]);
    /// t.row(&["dag", "3"]);
    /// assert_eq!(t.to_csv(), "algo,msgs\ndag,3\n");
    /// ```
    pub fn to_csv(&self) -> String {
        fn escape(cell: &str) -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = String::new();
        let mut write_row = |cells: &[String]| {
            let line: Vec<String> = cells.iter().map(|c| escape(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        write_row(&self.headers);
        for row in &self.rows {
            write_row(row);
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "## {}", self.title)?;
        writeln!(f)?;
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for i in 0..cols {
                write!(f, " {:w$} |", cells[i], w = widths[i])?;
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{:-<w$}|", "", w = w + 2)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        for note in &self.notes {
            writeln!(f)?;
            writeln!(f, "{note}")?;
        }
        Ok(())
    }
}

/// Formats a float with two decimals, trimming trailing zeros sensibly
/// for table cells.
pub(crate) fn fmt_f64(v: f64) -> String {
    format!("{v:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new("Widths", &["a", "longheader"]);
        t.row(&["xxxxxxxx", "1"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "## Widths");
        assert!(lines[2].starts_with("| a "));
        // Header and data rows have equal width.
        assert_eq!(lines[2].len(), lines[4].len());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one"]);
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["plain", "with,comma"]);
        t.row(&["say \"hi\"", "y"]);
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\nplain,\"with,comma\"\n\"say \"\"hi\"\"\",y\n");
    }

    #[test]
    fn lookup() {
        let mut t = Table::new("x", &["k", "v"]);
        t.row(&["dag", "3"]);
        t.row(&["raymond", "4"]);
        assert_eq!(t.find_row("raymond").unwrap()[1], "4");
        assert!(t.find_row("nope").is_none());
        assert_eq!(t.len(), 2);
        assert_eq!(t.cell(0, 1), "3");
    }
}
