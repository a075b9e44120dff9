//! Plain-text tables for experiment output, plus a JSON rendering so
//! tooling can track the performance trajectory across PRs
//! (`repro ... --json <path>`). JSON goes through the workspace's one
//! canonical serializer, [`bsc_util::json::JsonValue::render`] (sorted
//! keys, compact) — the same one `bsc-analyze --json` and the serve wire
//! protocol use — so every machine-readable artifact is byte-diffable.

use bsc_util::json::JsonValue;

/// A named table of rows, rendered with aligned columns.
#[derive(Debug, Clone)]
pub struct Table {
    /// Title shown above the table (e.g. `"Table 3: BFS vs DFS vs TA"`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (each row should have `headers.len()` cells).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes printed under the table.
    pub notes: Vec<String>,
}

impl Table {
    /// Create an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Append a note.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Find a cell by row index and column header.
    pub fn cell(&self, row: usize, header: &str) -> Option<&str> {
        let col = self.headers.iter().position(|h| h == header)?;
        self.rows.get(row)?.get(col).map(String::as_str)
    }

    /// The table as a [`JsonValue`] object
    /// (`{"headers", "notes", "rows", "title"}`).
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::object([
            ("title".to_string(), JsonValue::String(self.title.clone())),
            ("headers".to_string(), string_array(&self.headers)),
            (
                "rows".to_string(),
                JsonValue::Array(self.rows.iter().map(|row| string_array(row)).collect()),
            ),
            ("notes".to_string(), string_array(&self.notes)),
        ])
    }

    /// Render as canonical JSON (sorted keys, compact) via the shared
    /// [`JsonValue::render`] serializer.
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }
}

fn string_array(items: &[String]) -> JsonValue {
    JsonValue::Array(
        items
            .iter()
            .map(|item| JsonValue::String(item.clone()))
            .collect(),
    )
}

/// Render a whole experiment run — scale, requested targets and every table
/// produced — as a pretty-enough JSON document for checked-in baselines.
pub fn tables_to_json(scale: &str, targets: &[&str], tables: &[Table]) -> String {
    tables_to_json_with_error(scale, targets, tables, None)
}

/// Like [`tables_to_json`], with an optional `"error"` field recording that
/// the run did not complete. `repro --json` emits this *partial* document
/// when an experiment fails, so downstream tooling (the CI bench gate) can
/// distinguish "slower" from "crashed" instead of finding no file at all.
pub fn tables_to_json_with_error(
    scale: &str,
    targets: &[&str],
    tables: &[Table],
    error: Option<&str>,
) -> String {
    let mut pairs = vec![
        ("scale".to_string(), JsonValue::String(scale.to_string())),
        (
            "targets".to_string(),
            JsonValue::Array(
                targets
                    .iter()
                    .map(|t| JsonValue::String(t.to_string()))
                    .collect(),
            ),
        ),
        (
            "tables".to_string(),
            JsonValue::Array(tables.iter().map(Table::to_json_value).collect()),
        ),
    ];
    if let Some(error) = error {
        pairs.push(("error".to_string(), JsonValue::String(error.to_string())));
    }
    // Canonical form is newline-free; the trailing newline keeps the
    // checked-in baselines and CI artifacts POSIX-friendly.
    let mut out = JsonValue::object(pairs).render();
    out.push('\n');
    out
}

/// A parsed `repro --json` document: the reader side of
/// [`tables_to_json_with_error`].
#[derive(Debug, Clone)]
pub struct BenchDoc {
    /// The scale the run used (`"quick"` or `"paper"`).
    pub scale: String,
    /// The requested targets.
    pub targets: Vec<String>,
    /// Present when the run crashed before completing; the tables then hold
    /// only what was produced up to the failure.
    pub error: Option<String>,
    /// Every table produced.
    pub tables: Vec<Table>,
}

/// Parse a bench JSON document (e.g. the checked-in `BENCH_table3.json`).
pub fn parse_bench_doc(text: &str) -> Result<BenchDoc, String> {
    let value = bsc_util::json::parse(text)?;
    let string_list = |value: Option<&JsonValue>, what: &str| {
        value
            .and_then(|v| v.as_array())
            .map(|items| {
                items
                    .iter()
                    .map(|item| {
                        item.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| format!("non-string entry in {what}"))
                    })
                    .collect::<Result<Vec<String>, String>>()
            })
            .unwrap_or_else(|| Err(format!("missing or non-array {what}")))
    };
    let tables = value
        .get("tables")
        .and_then(|t| t.as_array())
        .ok_or_else(|| "missing or non-array \"tables\"".to_string())?
        .iter()
        .map(|entry| {
            let title = entry
                .get("title")
                .and_then(|t| t.as_str())
                .ok_or_else(|| "table without a string \"title\"".to_string())?;
            let headers = string_list(entry.get("headers"), "\"headers\"")?;
            let rows = entry
                .get("rows")
                .and_then(|r| r.as_array())
                .ok_or_else(|| format!("table {title:?} without \"rows\""))?
                .iter()
                .map(|row| string_list(Some(row), "a row"))
                .collect::<Result<Vec<Vec<String>>, String>>()?;
            let notes = string_list(entry.get("notes"), "\"notes\"")?;
            Ok(Table {
                title: title.to_string(),
                headers,
                rows,
                notes,
            })
        })
        .collect::<Result<Vec<Table>, String>>()?;
    Ok(BenchDoc {
        scale: value
            .get("scale")
            .and_then(|s| s.as_str())
            .unwrap_or_default()
            .to_string(),
        targets: string_list(value.get("targets"), "\"targets\"").unwrap_or_default(),
        error: value
            .get("error")
            .and_then(|e| e.as_str())
            .map(str::to_string),
        tables,
    })
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.title)?;
        writeln!(f, "{}", "=".repeat(self.title.len()))?;
        let columns = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(columns) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let render = |cells: &[String], f: &mut std::fmt::Formatter<'_>| -> std::fmt::Result {
            let mut parts = Vec::with_capacity(columns);
            for (i, cell) in cells.iter().enumerate().take(columns) {
                parts.push(format!("{cell:>width$}", width = widths[i]));
            }
            writeln!(f, "  {}", parts.join("  "))
        };
        render(&self.headers, f)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * columns;
        writeln!(f, "  {}", "-".repeat(total))?;
        for row in &self.rows {
            render(row, f)?;
        }
        for note in &self.notes {
            writeln!(f, "  note: {note}")?;
        }
        Ok(())
    }
}

/// Format a duration in seconds with three decimals.
pub fn seconds(duration: std::time::Duration) -> String {
    format!("{:.3}", duration.as_secs_f64())
}

/// Format a byte count as mebibytes.
pub fn mib(bytes: u64) -> String {
    format!("{:.1}MB", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut table = Table::new("Demo", &["m", "BFS", "DFS"]);
        table.push_row(vec!["3".into(), "0.65".into(), "60.3".into()]);
        table.push_row(vec!["15".into(), "12.49".into(), "792.05".into()]);
        table.push_note("times in seconds");
        let rendered = table.to_string();
        assert!(rendered.contains("Demo"));
        assert!(rendered.contains("note: times in seconds"));
        assert!(rendered.lines().count() >= 6);
        assert_eq!(table.num_rows(), 2);
        assert_eq!(table.cell(1, "DFS"), Some("792.05"));
        assert_eq!(table.cell(0, "missing"), None);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(seconds(std::time::Duration::from_millis(1500)), "1.500");
        assert_eq!(mib(3 * 1024 * 1024), "3.0MB");
    }

    #[test]
    fn json_rendering_escapes_and_structures() {
        let mut table = Table::new("He said \"hi\"\n", &["a", "b"]);
        table.push_row(vec!["1".into(), "x\\y".into()]);
        table.push_note("tab\there");
        let json = table.to_json();
        // Canonical form: sorted keys, compact, newline-free.
        assert_eq!(
            json,
            "{\"headers\":[\"a\",\"b\"],\"notes\":[\"tab\\there\"],\
             \"rows\":[[\"1\",\"x\\\\y\"]],\"title\":\"He said \\\"hi\\\"\\n\"}"
        );
        let doc = tables_to_json("quick", &["table3"], &[table]);
        assert!(doc.contains("\"scale\":\"quick\""));
        assert!(doc.contains("\"targets\":[\"table3\"]"));
        assert_eq!(doc.lines().count(), 1, "canonical JSON is a single line");
        assert!(doc.ends_with("}\n"));
        // parse(render(x)) is the identity on the value.
        let value = bsc_util::json::parse(&doc).expect("canonical output parses");
        assert_eq!(value.render(), doc.trim_end());
    }

    #[test]
    fn round_trips_the_report_serializer() {
        let mut table = Table::new("T \"quoted\"", &["a", "b(s)"]);
        table.push_row(vec!["x".into(), "0.123".into()]);
        table.push_note("a note\nwith newline");
        let text = tables_to_json("quick", &["table3"], &[table]);
        let doc = bsc_util::json::parse(&text).unwrap();
        assert_eq!(doc.get("scale").unwrap().as_str(), Some("quick"));
        let tables = doc.get("tables").unwrap().as_array().unwrap();
        assert_eq!(tables.len(), 1);
        assert_eq!(
            tables[0].get("title").unwrap().as_str(),
            Some("T \"quoted\"")
        );
        let rows = tables[0].get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows[0].as_array().unwrap()[1].as_str(), Some("0.123"));
    }

    #[test]
    fn bench_doc_round_trips_including_the_error_field() {
        let mut table = Table::new("Table X: demo", &["m", "BFS(s)"]);
        table.push_row(vec!["3".into(), "0.123".into()]);
        table.push_note("a note");
        let complete = tables_to_json("quick", &["table3"], &[table.clone()]);
        let doc = parse_bench_doc(&complete).expect("well-formed document");
        assert_eq!(doc.scale, "quick");
        assert_eq!(doc.targets, vec!["table3".to_string()]);
        assert_eq!(doc.error, None);
        assert_eq!(doc.tables.len(), 1);
        assert_eq!(doc.tables[0].title, table.title);
        assert_eq!(doc.tables[0].headers, table.headers);
        assert_eq!(doc.tables[0].rows, table.rows);
        assert_eq!(doc.tables[0].notes, table.notes);

        let partial =
            tables_to_json_with_error("quick", &["table3"], &[table], Some("solver exploded"));
        let doc = parse_bench_doc(&partial).expect("well-formed partial document");
        assert_eq!(doc.error.as_deref(), Some("solver exploded"));
        assert_eq!(doc.tables.len(), 1, "partial tables are preserved");

        assert!(parse_bench_doc("{}").is_err());
        assert!(parse_bench_doc("not json").is_err());
    }
}
