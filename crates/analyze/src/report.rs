//! Findings and the machine-readable report.
//!
//! The `--json` report is rendered through the workspace's one canonical
//! serializer, [`bsc_util::json::JsonValue::render`] — the same entry point
//! `repro --json` and the serve protocol use — so every structured document
//! this workspace emits has the same shape discipline (sorted keys, compact,
//! newline-free). [`parse_report`] is the reader side; the round-trip
//! property `parse(render(x)) == x` is tested below.

use bsc_util::json::{self, JsonValue};

/// The lints `bsc-analyze` ships. Every lint has a kebab-case name used in
/// findings, on the command line and in `// bsc:allow(<name>)` directives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// Iterating a `HashMap`/`HashSet` in a crate that feeds Solutions or
    /// transcripts, with no adjacent sort to pin the order.
    NondeterministicIteration,
    /// `unwrap()` / `expect("…")` / `panic!` / `unreachable!` / `todo!` /
    /// `unimplemented!` (or an `assert!` guarding an indexing expression)
    /// in non-test library code.
    PanicInLib,
    /// A solver hot-path loop from which no `checkpoint(` call is
    /// reachable, so a cancelled or deadline-expired solve cannot stop.
    MissingCancelCheckpoint,
    /// A `Display` impl for an error type that interpolates timing values,
    /// breaking byte-diffable transcripts.
    NonstaticErrorDisplay,
    /// An epoch or weight crossing the cluster wire as a JSON `f64` number
    /// instead of a 16-hex-digit bit string.
    WireF64Epoch,
    /// File I/O (`OpenOptions`, `File::open`, `File::create`, `std::fs`) in
    /// library code outside the storage backends, which every byte the
    /// libraries write must go through.
    RawFileIo,
    /// A `Cargo.toml` dependency that is not a workspace-internal path
    /// dependency (the zero-external-dependency policy).
    DependencyPolicy,
    /// A crate root missing `#![forbid(unsafe_code)]`.
    UnsafeForbid,
}

impl Lint {
    /// Every lint, in reporting order.
    pub const ALL: [Lint; 8] = [
        Lint::NondeterministicIteration,
        Lint::PanicInLib,
        Lint::MissingCancelCheckpoint,
        Lint::NonstaticErrorDisplay,
        Lint::WireF64Epoch,
        Lint::RawFileIo,
        Lint::DependencyPolicy,
        Lint::UnsafeForbid,
    ];

    /// The kebab-case name used in findings and `bsc:allow` directives.
    pub fn name(self) -> &'static str {
        match self {
            Lint::NondeterministicIteration => "nondeterministic-iteration",
            Lint::PanicInLib => "panic-in-lib",
            Lint::MissingCancelCheckpoint => "missing-cancel-checkpoint",
            Lint::NonstaticErrorDisplay => "nonstatic-error-display",
            Lint::WireF64Epoch => "wire-f64-epoch",
            Lint::RawFileIo => "raw-file-io",
            Lint::DependencyPolicy => "dependency-policy",
            Lint::UnsafeForbid => "unsafe-forbid",
        }
    }

    /// Parse a lint name (as written in a `bsc:allow` directive).
    pub fn parse(name: &str) -> Option<Lint> {
        Lint::ALL.into_iter().find(|lint| lint.name() == name)
    }
}

impl std::fmt::Display for Lint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line of the violation.
    pub line: u32,
    /// Which lint fired.
    pub lint: Lint,
    /// What is wrong and how to fix or allow it.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.lint, self.message
        )
    }
}

/// The result of an engine run over the workspace.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// All findings, sorted by (path, line, lint) so the report — like
    /// everything else in this workspace — is byte-stable run to run.
    pub findings: Vec<Finding>,
    /// How many source files were scanned.
    pub files_scanned: usize,
    /// How many manifests (`Cargo.toml`) were scanned.
    pub manifests_scanned: usize,
}

impl Report {
    /// Render the machine-readable report document via the workspace's
    /// canonical serializer.
    pub fn to_json(&self) -> String {
        let findings = JsonValue::Array(
            self.findings
                .iter()
                .map(|f| {
                    JsonValue::object([
                        ("path".to_string(), JsonValue::from(f.path.as_str())),
                        ("line".to_string(), JsonValue::from(u64::from(f.line))),
                        ("lint".to_string(), JsonValue::from(f.lint.name())),
                        ("message".to_string(), JsonValue::from(f.message.as_str())),
                    ])
                })
                .collect(),
        );
        JsonValue::object([
            ("version".to_string(), JsonValue::from(1u64)),
            ("findings".to_string(), findings),
            (
                "files_scanned".to_string(),
                JsonValue::from(self.files_scanned),
            ),
            (
                "manifests_scanned".to_string(),
                JsonValue::from(self.manifests_scanned),
            ),
            (
                "lints".to_string(),
                JsonValue::Array(
                    Lint::ALL
                        .into_iter()
                        .map(|l| JsonValue::from(l.name()))
                        .collect(),
                ),
            ),
        ])
        .render()
    }
}

/// Parse a rendered report back into a [`Report`] — the reader side of
/// [`Report::to_json`], used by the round-trip test and by any tooling that
/// consumes the CI artifact.
pub fn parse_report(text: &str) -> Result<Report, String> {
    let doc = json::parse(text)?;
    let version = doc
        .get("version")
        .and_then(JsonValue::as_u64)
        .ok_or("report: missing version")?;
    if version != 1 {
        return Err(format!("report: unsupported version {version}"));
    }
    let findings = doc
        .get("findings")
        .and_then(JsonValue::as_array)
        .ok_or("report: missing findings")?
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            let field = |key: &str| {
                entry
                    .get(key)
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| format!("report: finding {i}: missing {key}"))
            };
            let lint_name = field("lint")?;
            Ok(Finding {
                path: field("path")?.to_string(),
                line: entry
                    .get("line")
                    .and_then(JsonValue::as_u64)
                    .and_then(|l| u32::try_from(l).ok())
                    .ok_or_else(|| format!("report: finding {i}: bad line"))?,
                lint: Lint::parse(lint_name)
                    .ok_or_else(|| format!("report: finding {i}: unknown lint '{lint_name}'"))?,
                message: field("message")?.to_string(),
            })
        })
        .collect::<Result<Vec<Finding>, String>>()?;
    let count = |key: &str| {
        doc.get(key)
            .and_then(JsonValue::as_u64)
            .map(|n| n as usize)
            .ok_or_else(|| format!("report: missing {key}"))
    };
    Ok(Report {
        findings,
        files_scanned: count("files_scanned")?,
        manifests_scanned: count("manifests_scanned")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            findings: vec![
                Finding {
                    path: "crates/core/src/bfs.rs".to_string(),
                    line: 42,
                    lint: Lint::PanicInLib,
                    message: "`.unwrap()` in library code — return a BscError".to_string(),
                },
                Finding {
                    path: "crates/graph/src/keyword_graph.rs".to_string(),
                    line: 7,
                    lint: Lint::NondeterministicIteration,
                    message: "HashMap iterated with \"quotes\" and\nnewline".to_string(),
                },
            ],
            files_scanned: 65,
            manifests_scanned: 11,
        }
    }

    #[test]
    fn report_round_trips_through_the_canonical_serializer() {
        let report = sample();
        let text = report.to_json();
        // Canonical form: single line, parseable by the shared parser.
        assert!(!text.contains('\n'));
        let parsed = parse_report(&text).expect("rendered report parses");
        assert_eq!(parsed, report);
        // Rendering is deterministic (byte-stable).
        assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn empty_report_round_trips() {
        let report = Report {
            findings: Vec::new(),
            files_scanned: 0,
            manifests_scanned: 0,
        };
        let parsed = parse_report(&report.to_json()).expect("parses");
        assert_eq!(parsed, report);
    }

    #[test]
    fn malformed_reports_error_cleanly() {
        for bad in [
            "",
            "{}",
            "{\"version\":2,\"findings\":[],\"files_scanned\":0,\"manifests_scanned\":0}",
            "{\"version\":1,\"findings\":[{\"path\":\"x\"}],\"files_scanned\":0,\"manifests_scanned\":0}",
            "{\"version\":1,\"findings\":[{\"path\":\"x\",\"line\":1,\"lint\":\"no-such-lint\",\"message\":\"m\"}],\"files_scanned\":0,\"manifests_scanned\":0}",
        ] {
            assert!(parse_report(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn lint_names_parse_back() {
        for lint in Lint::ALL {
            assert_eq!(Lint::parse(lint.name()), Some(lint));
        }
        assert_eq!(Lint::parse("nonsense"), None);
    }

    #[test]
    fn findings_display_as_clickable_locations() {
        let finding = &sample().findings[0];
        assert_eq!(
            finding.to_string(),
            "crates/core/src/bfs.rs:42: [panic-in-lib] `.unwrap()` in library code — return a BscError"
        );
    }
}
