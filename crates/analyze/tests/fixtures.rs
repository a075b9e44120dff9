//! One fixture per lint: each test proves the lint fires on the labeled
//! violations (and nothing else), then proves a `bsc:allow` directive above
//! every finding quiets the file completely. Fixtures live outside `src/`
//! so workspace runs of `bsc-analyze` never lint them; the fake paths and
//! crate names passed to [`SourceFile::new`] supply the context each lint
//! keys on (crate membership, hot-path basename, `wire.rs`, crate root).

use bsc_analyze::engine;
use bsc_analyze::lints;
use bsc_analyze::report::{parse_report, Finding, Lint};
use bsc_analyze::source::{FileRole, SourceFile};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = format!("{}/fixtures/{}", env!("CARGO_MANIFEST_DIR"), name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn lint_source(source: &str, path: &str, crate_name: &str, is_crate_root: bool) -> Vec<Finding> {
    let file = SourceFile::new(
        path.to_string(),
        crate_name.to_string(),
        FileRole::Lib,
        source,
    );
    lints::check_file(&file, is_crate_root)
}

/// Lines (ascending) of the findings carrying `lint`.
fn lines_of(findings: &[Finding], lint: Lint) -> Vec<u32> {
    let mut lines: Vec<u32> = findings
        .iter()
        .filter(|f| f.lint == lint)
        .map(|f| f.line)
        .collect();
    lines.sort_unstable();
    lines
}

/// Insert a standalone `// bsc:allow(<lint>)` comment directly above every
/// finding (bottom-up, so earlier line numbers stay valid), re-lint, and
/// require a clean report. This is the escape-hatch contract: a standalone
/// directive covers exactly the line below it.
fn assert_allows_quiet(
    source: &str,
    findings: &[Finding],
    path: &str,
    crate_name: &str,
    is_crate_root: bool,
) {
    assert!(
        !findings.is_empty(),
        "nothing to quiet — fixture did not fire"
    );
    let mut sites: Vec<(u32, Lint)> = findings.iter().map(|f| (f.line, f.lint)).collect();
    sites.sort_unstable();
    sites.dedup();
    let mut lines: Vec<String> = source.lines().map(str::to_string).collect();
    for (line, lint) in sites.into_iter().rev() {
        let idx = (line as usize).saturating_sub(1);
        lines.insert(idx, format!("// bsc:allow({}) -- fixture", lint.name()));
    }
    let patched = lines.join("\n");
    let after = lint_source(&patched, path, crate_name, is_crate_root);
    assert!(
        after.is_empty(),
        "allow directives should quiet every finding, still got: {after:?}"
    );
}

#[test]
fn nondeterministic_iteration_fires_and_allows_quiet() {
    let src = fixture("nondeterministic_iteration.rs");
    let findings = lint_source(&src, "crates/core/src/fixture.rs", "bsc-core", false);
    assert_eq!(
        lines_of(&findings, Lint::NondeterministicIteration),
        vec![14, 22, 37],
        "for-in over a map field, unsorted .keys().collect(), local HashSet iteration"
    );
    assert_eq!(findings.len(), 3, "no other lint should fire: {findings:?}");
    assert_allows_quiet(
        &src,
        &findings,
        "crates/core/src/fixture.rs",
        "bsc-core",
        false,
    );
}

#[test]
fn nondeterministic_iteration_only_guards_output_feeding_crates() {
    let src = fixture("nondeterministic_iteration.rs");
    // Same code in a crate whose iteration order never reaches Solutions or
    // transcripts (e.g. the bench harness) is not flagged.
    let findings = lint_source(&src, "crates/bench/src/fixture.rs", "bsc-bench", false);
    assert_eq!(
        lines_of(&findings, Lint::NondeterministicIteration),
        Vec::<u32>::new()
    );
}

#[test]
fn panic_in_lib_fires_and_allows_quiet() {
    let src = fixture("panic_in_lib.rs");
    let findings = lint_source(&src, "crates/core/src/fixture.rs", "bsc-core", false);
    assert_eq!(
        lines_of(&findings, Lint::PanicInLib),
        vec![6, 8, 10, 13, 18],
        "unwrap, expect(str), indexing assert!, panic!, unreachable!"
    );
    assert_eq!(findings.len(), 5, "no other lint should fire: {findings:?}");
    assert_allows_quiet(
        &src,
        &findings,
        "crates/core/src/fixture.rs",
        "bsc-core",
        false,
    );
}

#[test]
fn panic_in_lib_exempts_bench_crate() {
    let src = fixture("panic_in_lib.rs");
    let findings = lint_source(&src, "crates/bench/src/fixture.rs", "bsc-bench", false);
    assert_eq!(lines_of(&findings, Lint::PanicInLib), Vec::<u32>::new());
}

#[test]
fn missing_cancel_checkpoint_fires_and_allows_quiet() {
    let src = fixture("missing_cancel_checkpoint.rs");
    let findings = lint_source(&src, "crates/core/src/bfs.rs", "bsc-core", false);
    assert_eq!(
        lines_of(&findings, Lint::MissingCancelCheckpoint),
        vec![14],
        "only the un-checkpointed loop; direct and via-helper coverage both count"
    );
    assert_eq!(findings.len(), 1, "no other lint should fire: {findings:?}");
    assert_allows_quiet(&src, &findings, "crates/core/src/bfs.rs", "bsc-core", false);
}

#[test]
fn missing_cancel_checkpoint_only_guards_hot_path_files() {
    let src = fixture("missing_cancel_checkpoint.rs");
    let findings = lint_source(&src, "crates/core/src/fixture.rs", "bsc-core", false);
    assert_eq!(
        lines_of(&findings, Lint::MissingCancelCheckpoint),
        Vec::<u32>::new()
    );
}

#[test]
fn nonstatic_error_display_fires_and_allows_quiet() {
    let src = fixture("nonstatic_error_display.rs");
    let findings = lint_source(&src, "crates/core/src/fixture.rs", "bsc-core", false);
    assert_eq!(
        lines_of(&findings, Lint::NonstaticErrorDisplay),
        vec![16, 29],
        "timing placeholder in write!, Instant::now() in an error Display"
    );
    assert_eq!(findings.len(), 2, "no other lint should fire: {findings:?}");
    assert_allows_quiet(
        &src,
        &findings,
        "crates/core/src/fixture.rs",
        "bsc-core",
        false,
    );
}

#[test]
fn wire_f64_epoch_fires_and_allows_quiet() {
    let src = fixture("wire_f64_epoch.rs");
    let findings = lint_source(&src, "crates/cluster/src/wire.rs", "bsc-cluster", false);
    // Line 17 trips both patterns: `epoch as f64` and `JsonValue::Number`
    // with an epoch argument.
    assert_eq!(
        lines_of(&findings, Lint::WireF64Epoch),
        vec![17, 17, 22],
        "epoch as f64, JsonValue::Number(epoch…), JsonValue::from(weight)"
    );
    assert_eq!(findings.len(), 3, "no other lint should fire: {findings:?}");
    assert_allows_quiet(
        &src,
        &findings,
        "crates/cluster/src/wire.rs",
        "bsc-cluster",
        false,
    );
}

#[test]
fn wire_f64_epoch_only_guards_wire_files() {
    let src = fixture("wire_f64_epoch.rs");
    let findings = lint_source(&src, "crates/cluster/src/fixture.rs", "bsc-cluster", false);
    assert_eq!(lines_of(&findings, Lint::WireF64Epoch), Vec::<u32>::new());
}

#[test]
fn raw_file_io_fires_and_allows_quiet() {
    let src = fixture("raw_file_io.rs");
    let path = "crates/storage/src/fixture.rs";
    let findings = lint_source(&src, path, "bsc-storage", false);
    assert_eq!(
        lines_of(&findings, Lint::RawFileIo),
        vec![4, 9, 15, 20],
        "use std::fs, File::create, std::fs::OpenOptions (once per line), std::fs::remove_file"
    );
    assert_eq!(findings.len(), 4, "no other lint should fire: {findings:?}");
    assert_allows_quiet(&src, &findings, path, "bsc-storage", false);
}

#[test]
fn raw_file_io_exempts_the_backends_and_tool_crates() {
    let src = fixture("raw_file_io.rs");
    for (path, crate_name) in [
        ("crates/storage/src/backend.rs", "bsc-storage"),
        ("crates/storage/src/temp.rs", "bsc-storage"),
        ("crates/analyze/src/engine.rs", "bsc-analyze"),
        ("crates/bench/src/fixture.rs", "bsc-bench"),
    ] {
        let findings = lint_source(&src, path, crate_name, false);
        assert_eq!(
            lines_of(&findings, Lint::RawFileIo),
            Vec::<u32>::new(),
            "{path}"
        );
    }
}

#[test]
fn unsafe_forbid_fires_and_allows_quiet() {
    let src = fixture("unsafe_forbid.rs");
    let findings = lint_source(&src, "crates/demo/src/lib.rs", "bsc-demo", true);
    assert_eq!(lines_of(&findings, Lint::UnsafeForbid), vec![1]);
    assert_eq!(findings.len(), 1, "no other lint should fire: {findings:?}");
    // The finding anchors to line 1; a directive at the very top of the file
    // (covering line 2) is the documented escape hatch.
    assert_allows_quiet(&src, &findings, "crates/demo/src/lib.rs", "bsc-demo", true);
}

#[test]
fn unsafe_forbid_satisfied_by_attribute() {
    let src = "#![forbid(unsafe_code)]\npub fn x() -> u32 {\n    1\n}\n";
    let findings = lint_source(src, "crates/demo/src/lib.rs", "bsc-demo", true);
    assert_eq!(lines_of(&findings, Lint::UnsafeForbid), Vec::<u32>::new());
    // `deny` with a reachable `unsafe_code` token also satisfies the policy.
    let src = "#![deny(unsafe_code)]\npub fn x() -> u32 {\n    1\n}\n";
    let findings = lint_source(src, "crates/demo/src/lib.rs", "bsc-demo", true);
    assert_eq!(lines_of(&findings, Lint::UnsafeForbid), Vec::<u32>::new());
}

#[test]
fn unsafe_forbid_ignored_for_non_root_modules() {
    let src = fixture("unsafe_forbid.rs");
    let findings = lint_source(&src, "crates/demo/src/helper.rs", "bsc-demo", false);
    assert_eq!(lines_of(&findings, Lint::UnsafeForbid), Vec::<u32>::new());
}

#[test]
fn dependency_policy_fires_and_allows_quiet() {
    let text = fixture("dependency_policy.toml");
    let findings = lints::check_manifest("crates/fixture/Cargo.toml", &text);
    assert_eq!(
        lines_of(&findings, Lint::DependencyPolicy),
        vec![12, 14, 17, 18, 22],
        "registry version, git source, pathless subsection header, subsection \
         version key, registry dev-dependency"
    );
    assert_eq!(findings.len(), 5, "unexpected extra findings: {findings:?}");

    // `# bsc:allow(dependency-policy)` on the line above covers each site.
    let mut sites: Vec<u32> = findings.iter().map(|f| f.line).collect();
    sites.sort_unstable();
    sites.dedup();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    for line in sites.into_iter().rev() {
        let idx = (line as usize).saturating_sub(1);
        lines.insert(idx, "# bsc:allow(dependency-policy) -- fixture".to_string());
    }
    let patched = lines.join("\n");
    let after = lints::check_manifest("crates/fixture/Cargo.toml", &patched);
    assert!(
        after.is_empty(),
        "allows should quiet the manifest, got: {after:?}"
    );
}

/// Acceptance criterion, enforced from `cargo test`: the engine must report
/// zero findings on the workspace it ships in — and the JSON report must
/// round-trip through the canonical serializer.
#[test]
fn workspace_self_check_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = engine::run(&root).expect("engine runs on its own workspace");
    assert!(
        report.findings.is_empty(),
        "the workspace must lint clean; found: {:#?}",
        report.findings
    );
    assert!(report.files_scanned > 0 && report.manifests_scanned > 0);
    let json = report.to_json();
    let parsed = parse_report(&json).expect("report JSON parses back");
    assert_eq!(parsed, report, "parse(render(report)) must be the identity");
}
