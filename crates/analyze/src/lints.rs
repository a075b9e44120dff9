//! The lint passes.
//!
//! Each lint encodes one invariant the workspace's byte-identity guarantee
//! rests on (see `docs/analysis.md` for the full catalogue and rationale).
//! Lints are deliberately token-level: they match sequences in the lexed
//! stream and balance brackets to find bodies, trading type information for
//! zero dependencies and a scan of the whole workspace in milliseconds.
//! Every lint can be silenced per line with
//! `// bsc:allow(<lint>) -- <justification>`.

use std::collections::{HashMap, HashSet};

use crate::lexer::TokenKind;
use crate::report::{Finding, Lint};
use crate::source::{FileRole, SourceFile};

/// Crates whose library code feeds Solutions or byte-diffed transcripts:
/// the `nondeterministic-iteration` lint applies to these.
const OUTPUT_FEEDING_CRATES: [&str; 5] = [
    "bsc-core",
    "bsc-graph",
    "bsc-cluster",
    "bsc-service",
    "bsc-storage",
];

/// The bench harness aborts on broken invariants by design (`repro` wraps
/// every experiment in `catch_unwind`), so `panic-in-lib` exempts it the
/// same way it exempts `benches/` targets.
const PANIC_EXEMPT_CRATES: [&str; 1] = ["bsc-bench"];

/// Tool crates whose job is touching files — the analyzer reads source
/// trees, the bench harness writes its reports — are exempt from
/// `raw-file-io`.
const RAW_IO_EXEMPT_CRATES: [&str; 2] = ["bsc-analyze", "bsc-bench"];

/// The storage backends: the one place library code may open files. Every
/// other byte a library writes goes through a `StorageBackend`, so it is a
/// log frame with fault injection and per-backend I/O accounting.
const RAW_IO_FILES: [&str; 2] = [
    "crates/storage/src/backend.rs",
    "crates/storage/src/temp.rs",
];

/// Solver hot-path files: every loop nest here must be able to observe a
/// tripped [`CancelToken`](bsc_util::cancel::CancelToken). `bfs.rs` holds the
/// one BFS interval sweep (every BFS solve, whole view or start window, runs
/// that loop), `lookahead.rs` the two passes a batch solve makes over its
/// view before it searches. `sharded.rs` holds
/// the one loop over start windows (sharded, distributed and delta solves
/// all run it): each solved window checkpoints internally, but the loop
/// over windows is itself a hot path. `delta.rs` holds the per-install
/// interval comparison.
const HOT_PATH_FILES: [&str; 8] = [
    "bfs.rs",
    "lookahead.rs",
    "dfs.rs",
    "ta.rs",
    "normalized.rs",
    "sharded.rs",
    "exhaustive.rs",
    "delta.rs",
];

/// Run every source lint that applies to `file`. `is_crate_root` enables
/// the `unsafe-forbid` check. Findings already filtered through the file's
/// `bsc:allow` directives.
pub fn check_file(file: &SourceFile, is_crate_root: bool) -> Vec<Finding> {
    let mut findings = Vec::new();
    if is_crate_root {
        unsafe_forbid(file, &mut findings);
    }
    if file.role == FileRole::Lib {
        if OUTPUT_FEEDING_CRATES.contains(&file.crate_name.as_str()) {
            nondeterministic_iteration(file, &mut findings);
        }
        if !PANIC_EXEMPT_CRATES.contains(&file.crate_name.as_str()) {
            panic_in_lib(file, &mut findings);
        }
        nonstatic_error_display(file, &mut findings);
        if HOT_PATH_FILES.contains(&basename(&file.path)) {
            missing_cancel_checkpoint(file, &mut findings);
        }
        if basename(&file.path) == "wire.rs" {
            wire_f64_epoch(file, &mut findings);
        }
        if !RAW_IO_EXEMPT_CRATES.contains(&file.crate_name.as_str())
            && !RAW_IO_FILES.contains(&file.path.as_str())
        {
            raw_file_io(file, &mut findings);
        }
    }
    findings.retain(|f| !file.allowed(f.lint, f.line));
    findings
}

fn basename(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

fn finding(file: &SourceFile, line: u32, lint: Lint, message: String) -> Finding {
    Finding {
        path: file.path.clone(),
        line,
        lint,
        message,
    }
}

// ---------------------------------------------------------------------------
// nondeterministic-iteration
// ---------------------------------------------------------------------------

const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Identifiers whose presence within 3 lines of the iteration means the
/// order is pinned before anything can reach output.
const SORT_HINTS: [&str; 10] = [
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_by_cached_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
];

fn nondeterministic_iteration(file: &SourceFile, findings: &mut Vec<Finding>) {
    let hashed = hash_bound_idents(file);
    if hashed.is_empty() {
        return;
    }
    let tokens = &file.tokens;
    for i in 0..tokens.len() {
        if file.in_test[i]
            || tokens[i].kind != TokenKind::Ident
            || !hashed.contains(&tokens[i].text)
        {
            continue;
        }
        // `x.iter()` / `x.keys()` / …
        let method_call = tokens.get(i + 1).is_some_and(|t| t.is_punct('.'))
            && tokens.get(i + 2).is_some_and(|t| {
                t.kind == TokenKind::Ident && ITER_METHODS.contains(&t.text.as_str())
            })
            && tokens.get(i + 3).is_some_and(|t| t.is_punct('('));
        // `for (k, v) in &x {` / `for k in x {` / `for k in &self.map {`
        let for_in = {
            let mut j = i;
            loop {
                if j > 0 && (tokens[j - 1].is_punct('&') || tokens[j - 1].is_ident("mut")) {
                    j -= 1;
                } else if j > 1
                    && tokens[j - 1].is_punct('.')
                    && tokens[j - 2].kind == TokenKind::Ident
                {
                    j -= 2;
                } else {
                    break;
                }
            }
            j > 0
                && tokens[j - 1].is_ident("in")
                && tokens.get(i + 1).is_some_and(|t| t.is_punct('{'))
        };
        if !(method_call || for_in) {
            continue;
        }
        let line = tokens[i].line;
        let sorted_nearby = tokens
            .iter()
            .skip(i)
            .take_while(|t| t.line <= line + 3)
            .any(|t| t.kind == TokenKind::Ident && SORT_HINTS.contains(&t.text.as_str()));
        if sorted_nearby {
            continue;
        }
        findings.push(finding(
            file,
            line,
            Lint::NondeterministicIteration,
            format!(
                "`{}` is a HashMap/HashSet: iterating it yields a nondeterministic order \
                 in a crate that feeds Solutions/transcripts; sort within 3 lines, or \
                 annotate `// bsc:allow(nondeterministic-iteration) -- <why order cannot \
                 reach output>`",
                tokens[i].text
            ),
        ));
    }
}

/// Identifiers bound to a `HashMap`/`HashSet` anywhere in the file: typed
/// bindings, struct fields and fn params (`x: HashMap<…>`), and `let`
/// bindings initialised from a constructor (`let x = HashMap::new()`).
fn hash_bound_idents(file: &SourceFile) -> HashSet<String> {
    let tokens = &file.tokens;
    let mut bound = HashSet::new();
    for i in 0..tokens.len() {
        if !(tokens[i].is_ident("HashMap") || tokens[i].is_ident("HashSet")) {
            continue;
        }
        // `name : [& 'a mut] HashMap` — a field, param or typed binding.
        let mut j = i;
        while j > 0
            && (tokens[j - 1].is_punct('&')
                || tokens[j - 1].is_ident("mut")
                || tokens[j - 1].kind == TokenKind::Lifetime)
        {
            j -= 1;
        }
        if j >= 2 && tokens[j - 1].is_punct(':') && tokens[j - 2].kind == TokenKind::Ident {
            bound.insert(tokens[j - 2].text.clone());
            continue;
        }
        // `let [mut] name = HashMap::…` (possibly via `let name: Alias =`).
        if i >= 2
            && tokens[i - 1].is_punct('=')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
        {
            let j = i - 2;
            if tokens[j].kind == TokenKind::Ident {
                if j >= 2 && tokens[j - 1].is_punct(':') && tokens[j - 2].kind == TokenKind::Ident {
                    bound.insert(tokens[j - 2].text.clone());
                } else if j >= 1 && (tokens[j - 1].is_ident("let") || tokens[j - 1].is_ident("mut"))
                {
                    bound.insert(tokens[j].text.clone());
                }
            }
        }
    }
    bound
}

// ---------------------------------------------------------------------------
// panic-in-lib
// ---------------------------------------------------------------------------

fn panic_in_lib(file: &SourceFile, findings: &mut Vec<Finding>) {
    let tokens = &file.tokens;
    for i in 0..tokens.len() {
        if file.in_test[i] || tokens[i].kind != TokenKind::Ident {
            continue;
        }
        let text = tokens[i].text.as_str();
        let line = tokens[i].line;
        let preceded_by_dot = i > 0 && tokens[i - 1].is_punct('.');
        match text {
            // `.unwrap()` — but not `foo.unwrap_or(…)`, which is a distinct
            // identifier, nor a user fn called `unwrap` without a receiver.
            "unwrap"
                if preceded_by_dot
                    && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
                    && tokens.get(i + 2).is_some_and(|t| t.is_punct(')')) =>
            {
                findings.push(finding(
                    file,
                    line,
                    Lint::PanicInLib,
                    "`.unwrap()` in library code can panic; return a proper error \
                     (BscError/StorageError), restructure, or annotate \
                     `// bsc:allow(panic-in-lib) -- <invariant>`"
                        .to_string(),
                ));
            }
            // `.expect("…")` — the string-literal message distinguishes
            // Option/Result::expect from unrelated methods named `expect`
            // (e.g. the JSON parser's `self.expect(b'{')`).
            "expect"
                if preceded_by_dot
                    && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
                    && tokens.get(i + 2).is_some_and(|t| t.kind == TokenKind::Str) =>
            {
                findings.push(finding(
                    file,
                    line,
                    Lint::PanicInLib,
                    "`.expect(\"…\")` in library code can panic; return a proper error, \
                     restructure, or annotate `// bsc:allow(panic-in-lib) -- <invariant>`"
                        .to_string(),
                ));
            }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if !preceded_by_dot && tokens.get(i + 1).is_some_and(|t| t.is_punct('!')) =>
            {
                findings.push(finding(
                    file,
                    line,
                    Lint::PanicInLib,
                    format!(
                        "`{text}!` in library code aborts the query instead of returning \
                         an error; surface a BscError variant or annotate \
                         `// bsc:allow(panic-in-lib) -- <invariant>`"
                    ),
                ));
            }
            // An `assert!` whose condition indexes into a slice panics on
            // two fronts at once; either bound is a crash a caller cannot
            // recover from.
            "assert" | "assert_eq" | "assert_ne"
                if !preceded_by_dot
                    && tokens.get(i + 1).is_some_and(|t| t.is_punct('!'))
                    && tokens.get(i + 2).is_some_and(|t| t.is_punct('(')) =>
            {
                if let Some(close) = file.matching_close(i + 2) {
                    let indexes = (i + 3..close).any(|j| {
                        tokens[j].kind == TokenKind::Ident
                            && tokens.get(j + 1).is_some_and(|t| t.is_punct('['))
                    });
                    if indexes {
                        findings.push(finding(
                            file,
                            line,
                            Lint::PanicInLib,
                            format!(
                                "`{text}!` guarding an indexing expression in library code \
                                 can panic; validate and return an error, or annotate \
                                 `// bsc:allow(panic-in-lib) -- <invariant>`"
                            ),
                        ));
                    }
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// missing-cancel-checkpoint
// ---------------------------------------------------------------------------

fn missing_cancel_checkpoint(file: &SourceFile, findings: &mut Vec<Finding>) {
    let tokens = &file.tokens;

    // In-file call graph: which functions lead to a `checkpoint(` call,
    // directly or through other functions defined in this file. "Reachable"
    // in the finding message is exactly this relation.
    let mut fn_spans: HashMap<String, Vec<(usize, usize)>> = HashMap::new();
    for i in 0..tokens.len() {
        if tokens[i].is_ident("fn")
            && tokens
                .get(i + 1)
                .is_some_and(|t| t.kind == TokenKind::Ident)
        {
            if let Some(open) = file.find_body_open(i + 2) {
                if let Some(close) = file.matching_close(open) {
                    fn_spans
                        .entry(tokens[i + 1].text.clone())
                        .or_default()
                        .push((open, close));
                }
            }
        }
    }
    let direct = |span: (usize, usize)| {
        (span.0..span.1).any(|j| {
            tokens[j].is_ident("checkpoint") && tokens.get(j + 1).is_some_and(|t| t.is_punct('('))
        })
    };
    let mut checkpointing: HashSet<String> = fn_spans
        .iter()
        .filter(|(_, spans)| spans.iter().any(|&s| direct(s)))
        .map(|(name, _)| name.clone())
        .collect();
    loop {
        let before = checkpointing.len();
        for (name, spans) in &fn_spans {
            if checkpointing.contains(name) {
                continue;
            }
            let calls_checkpointing = spans.iter().any(|&(open, close)| {
                (open..close).any(|j| {
                    tokens[j].kind == TokenKind::Ident
                        && checkpointing.contains(&tokens[j].text)
                        && tokens.get(j + 1).is_some_and(|t| t.is_punct('('))
                })
            });
            if calls_checkpointing {
                checkpointing.insert(name.clone());
            }
        }
        if checkpointing.len() == before {
            break;
        }
    }

    // Collect loops with their body spans.
    struct Loop {
        keyword: usize,
        span: (usize, usize),
        covered: bool,
    }
    let mut loops = Vec::new();
    for i in 0..tokens.len() {
        if file.in_test[i] {
            continue;
        }
        let is_loop_kw =
            tokens[i].is_ident("for") || tokens[i].is_ident("while") || tokens[i].is_ident("loop");
        // `loop` in this position is always the expression keyword; `for`
        // also appears in `impl … for …`, which has no loop body shape —
        // filter it by requiring that no `impl` immediately precedes the
        // matched type path. Cheaper: an `impl … for` is followed by a type
        // and then `{`; a `for` loop is followed by a pattern, `in`, an
        // iterable and `{`. Distinguish by looking for `in` before the body.
        if !is_loop_kw {
            continue;
        }
        let Some(open) = file.find_body_open(i + 1) else {
            continue;
        };
        if tokens[i].is_ident("for") && !(i + 1..open).any(|j| tokens[j].is_ident("in")) {
            continue; // `impl Trait for Type {` — not a loop
        }
        let Some(close) = file.matching_close(open) else {
            continue;
        };
        let reachable = (open..close).any(|j| {
            tokens[j].kind == TokenKind::Ident
                && tokens.get(j + 1).is_some_and(|t| t.is_punct('('))
                && (tokens[j].text == "checkpoint" || checkpointing.contains(&tokens[j].text))
        });
        loops.push(Loop {
            keyword: i,
            span: (open, close),
            covered: reachable,
        });
    }

    // A loop nested inside a covered loop is bounded between checkpoints by
    // the outer iteration; flag only the outermost loop of each uncovered
    // nest so one missing checkpoint yields one finding.
    for i in 0..loops.len() {
        if loops[i].covered {
            continue;
        }
        let keyword = loops[i].keyword;
        let enclosed = loops
            .iter()
            .enumerate()
            .any(|(j, other)| j != i && other.span.0 < keyword && keyword < other.span.1);
        if enclosed {
            continue;
        }
        findings.push(finding(
            file,
            tokens[keyword].line,
            Lint::MissingCancelCheckpoint,
            format!(
                "no `checkpoint(` call is reachable from this `{}` body in a solver \
                 hot-path file: a cancelled or deadline-expired solve cannot stop here; \
                 add `token.checkpoint(&mut tick)` or annotate \
                 `// bsc:allow(missing-cancel-checkpoint) -- <why bounded>`",
                tokens[keyword].text
            ),
        ));
    }
}

// ---------------------------------------------------------------------------
// nonstatic-error-display
// ---------------------------------------------------------------------------

/// Identifier fragments that smell like wall-clock values. Interpolating
/// one into an error `Display` breaks the serve/oracle/coordinator
/// transcript byte-diff (the PR 7 rule: deadline errors carry static text).
const TIMING_FRAGMENTS: [&str; 6] = [
    "elapsed", "micros", "millis", "nanos", "duration", "latency",
];

fn smells_like_timing(ident: &str) -> bool {
    let lower = ident.to_lowercase();
    TIMING_FRAGMENTS.iter().any(|f| lower.contains(f))
}

fn nonstatic_error_display(file: &SourceFile, findings: &mut Vec<Finding>) {
    let tokens = &file.tokens;
    for i in 0..tokens.len() {
        if file.in_test[i]
            || !tokens[i].is_ident("Display")
            || !tokens.get(i + 1).is_some_and(|t| t.is_ident("for"))
        {
            continue;
        }
        let Some(type_name) = tokens.get(i + 2).filter(|t| t.kind == TokenKind::Ident) else {
            continue;
        };
        if !type_name.text.contains("Error") {
            continue;
        }
        let Some(open) = file.find_body_open(i + 2) else {
            continue;
        };
        let Some(close) = file.matching_close(open) else {
            continue;
        };
        for j in open..close {
            let t = &tokens[j];
            // `Instant::now()` inside an error Display is timing by
            // definition.
            if t.is_ident("Instant")
                && tokens.get(j + 1).is_some_and(|t| t.is_punct(':'))
                && tokens.get(j + 2).is_some_and(|t| t.is_punct(':'))
                && tokens.get(j + 3).is_some_and(|t| t.is_ident("now"))
            {
                findings.push(finding(
                    file,
                    t.line,
                    Lint::NonstaticErrorDisplay,
                    format!(
                        "`Instant::now()` inside `Display for {}`: error text must be \
                         static so transcripts stay byte-diffable",
                        type_name.text
                    ),
                ));
                continue;
            }
            let is_fmt_macro =
                (t.is_ident("write") || t.is_ident("writeln") || t.is_ident("format"))
                    && tokens.get(j + 1).is_some_and(|t| t.is_punct('!'));
            if !is_fmt_macro {
                continue;
            }
            let Some(args_open) = tokens
                .get(j + 2)
                .is_some_and(|t| t.is_punct('('))
                .then_some(j + 2)
            else {
                continue;
            };
            let Some(args_close) = file.matching_close(args_open) else {
                continue;
            };
            for arg in &tokens[args_open + 1..args_close] {
                let hit = match arg.kind {
                    TokenKind::Ident => smells_like_timing(&arg.text),
                    TokenKind::Str => format_placeholders(&arg.text)
                        .into_iter()
                        .any(|name| smells_like_timing(&name)),
                    _ => false,
                };
                if hit {
                    findings.push(finding(
                        file,
                        arg.line,
                        Lint::NonstaticErrorDisplay,
                        format!(
                            "`Display for {}` interpolates a timing value \
                             (`{}`): serve/oracle/coordinator transcripts are byte-diffed, \
                             so error text must be static — keep the value in the variant, \
                             drop it from Display (see BscError::DeadlineExceeded)",
                            type_name.text,
                            arg.text.chars().take(40).collect::<String>()
                        ),
                    ));
                    break; // one finding per macro call is enough
                }
            }
        }
    }
}

/// Names interpolated by a format string: `"{elapsed_micros}"` →
/// `["elapsed_micros"]`. `{{` escapes and `{}`/`{0}` positional holes are
/// skipped; formatting specs after `:` are cut.
fn format_placeholders(text: &str) -> Vec<String> {
    let mut names = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] == b'{' {
            if bytes.get(i + 1) == Some(&b'{') {
                i += 2;
                continue;
            }
            let end = match text[i + 1..].find('}') {
                Some(off) => i + 1 + off,
                None => break,
            };
            let inner = &text[i + 1..end];
            let name = inner.split(':').next().unwrap_or("");
            if !name.is_empty() && name.chars().all(|c| c.is_alphanumeric() || c == '_') {
                names.push(name.to_string());
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    names
}

// ---------------------------------------------------------------------------
// wire-f64-epoch
// ---------------------------------------------------------------------------

fn wire_f64_epoch(file: &SourceFile, findings: &mut Vec<Finding>) {
    let tokens = &file.tokens;
    for i in 0..tokens.len() {
        if file.in_test[i] {
            continue;
        }
        // `epoch as f64` / `weight as f64`: the conversion that loses
        // bit 63 / NaN payloads before JSON even sees the value.
        if tokens[i].kind == TokenKind::Ident
            && (tokens[i].text.to_lowercase().contains("epoch")
                || tokens[i].text.to_lowercase().contains("weight"))
            && tokens.get(i + 1).is_some_and(|t| t.is_ident("as"))
            && tokens.get(i + 2).is_some_and(|t| t.is_ident("f64"))
        {
            findings.push(finding(
                file,
                tokens[i].line,
                Lint::WireF64Epoch,
                format!(
                    "`{} as f64` in a wire codec: epochs/weights must cross the wire as \
                     16-hex-digit bit strings (`weight_bits`/`epoch_to_json`), not JSON \
                     numbers — f64 cannot represent bit-63 epochs or NaN payloads exactly",
                    tokens[i].text
                ),
            ));
            continue;
        }
        // `JsonValue::Number(…epoch…)` / `JsonValue::from(…weight…)` without
        // a `to_bits`/hex conversion in the argument list.
        if !(tokens[i].is_ident("JsonValue")
            && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && tokens
                .get(i + 3)
                .is_some_and(|t| t.is_ident("Number") || t.is_ident("from"))
            && tokens.get(i + 4).is_some_and(|t| t.is_punct('(')))
        {
            continue;
        }
        let Some(close) = file.matching_close(i + 4) else {
            continue;
        };
        let args = &tokens[i + 5..close];
        let suspicious = args.iter().any(|t| {
            t.kind == TokenKind::Ident
                && (t.text.to_lowercase().contains("epoch")
                    || t.text.to_lowercase().contains("weight"))
        });
        let hexed = args.iter().any(|t| {
            (t.kind == TokenKind::Ident
                && matches!(
                    t.text.as_str(),
                    "to_bits"
                        | "from_bits"
                        | "weight_bits"
                        | "parse_weight_bits"
                        | "epoch_to_json"
                        | "epoch_from_json"
                ))
                || (t.kind == TokenKind::Str && t.text.contains("016x"))
        });
        if suspicious && !hexed {
            findings.push(finding(
                file,
                tokens[i].line,
                Lint::WireF64Epoch,
                "epoch/weight serialized through a JSON number in a wire codec: route it \
                 through the 16-hex-digit helpers (`weight_bits`/`epoch_to_json`) so \
                 values round-trip bit-exactly"
                    .to_string(),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// raw-file-io
// ---------------------------------------------------------------------------

/// `OpenOptions`, `File::open`, `File::create` or a `std::fs` path in
/// non-test library code. One finding per line.
fn raw_file_io(file: &SourceFile, findings: &mut Vec<Finding>) {
    let tokens = &file.tokens;
    let path_sep = |i: usize| {
        tokens.get(i).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
    };
    let mut last_line = 0;
    for i in 0..tokens.len() {
        if file.in_test[i] || tokens[i].line == last_line {
            continue;
        }
        let raw = tokens[i].is_ident("OpenOptions")
            || (tokens[i].is_ident("File")
                && path_sep(i + 1)
                && tokens
                    .get(i + 3)
                    .is_some_and(|t| t.is_ident("open") || t.is_ident("create")))
            || (tokens[i].is_ident("std")
                && path_sep(i + 1)
                && tokens.get(i + 3).is_some_and(|t| t.is_ident("fs")));
        if !raw {
            continue;
        }
        last_line = tokens[i].line;
        findings.push(finding(
            file,
            tokens[i].line,
            Lint::RawFileIo,
            "raw file I/O in library code: spill through a `NodeStore` over a \
             `StorageBackend` (`StorageSpec::open_temp`) so the bytes are log frames with \
             fault injection and I/O accounting, or annotate \
             `// bsc:allow(raw-file-io) -- <justification>`"
                .to_string(),
        ));
    }
}

// ---------------------------------------------------------------------------
// unsafe-forbid
// ---------------------------------------------------------------------------

fn unsafe_forbid(file: &SourceFile, findings: &mut Vec<Finding>) {
    // The finding anchors to line 1, which no standalone comment can sit
    // above; honor a directive in either of the first two lines so the
    // escape hatch stays writable (`// bsc:allow(unsafe-forbid) -- …` at
    // the very top of the file).
    if file.allowed(Lint::UnsafeForbid, 2) {
        return;
    }
    let tokens = &file.tokens;
    let has_attr = (0..tokens.len()).any(|i| {
        tokens[i].is_punct('#')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('!'))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct('['))
            && tokens
                .get(i + 3)
                .is_some_and(|t| t.is_ident("forbid") || t.is_ident("deny"))
            && tokens.get(i + 4).is_some_and(|t| t.is_punct('('))
            && (i + 5..tokens.len().min(i + 12)).any(|j| tokens[j].is_ident("unsafe_code"))
    });
    if !has_attr {
        findings.push(finding(
            file,
            1,
            Lint::UnsafeForbid,
            "crate root is missing `#![forbid(unsafe_code)]` (or `deny` with a justified \
             allow): the workspace is 100% safe Rust and must not silently regress"
                .to_string(),
        ));
    }
}

// ---------------------------------------------------------------------------
// dependency-policy
// ---------------------------------------------------------------------------

/// Lint one `Cargo.toml`. The zero-external-dependency policy: every entry
/// in a dependencies-like section must be a workspace/path dependency —
/// never a registry version, git url or alternative registry. A tiny
/// line-oriented TOML reader is ample for the manifests this workspace
/// writes. Allowed via `# bsc:allow(dependency-policy)` on the same or the
/// preceding line.
pub fn check_manifest(path: &str, text: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut section = String::new();
    // A `[dependencies.<name>]` subsection is judged once its keys are
    // known: (header line, name, saw a path/workspace key).
    let mut pending: Option<(u32, String, bool)> = None;
    let mut allowed_lines: HashSet<u32> = HashSet::new();

    let flag = |findings: &mut Vec<Finding>, line: u32, name: &str, why: &str| {
        findings.push(Finding {
            path: path.to_string(),
            line,
            lint: Lint::DependencyPolicy,
            message: format!(
                "dependency `{name}` {why}: the workspace builds hermetically with zero \
                 external dependencies — use a workspace path dependency or annotate \
                 `# bsc:allow(dependency-policy) -- <justification>`"
            ),
        });
    };

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx as u32 + 1;
        let line = raw.trim();
        if let Some(comment_at) = line.find('#') {
            if line[comment_at..].contains("bsc:allow(dependency-policy)") {
                allowed_lines.insert(line_no);
                allowed_lines.insert(line_no + 1);
            }
        }
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            if let Some((header_line, name, ok)) = pending.take() {
                if !ok && !allowed_lines.contains(&header_line) {
                    flag(
                        &mut findings,
                        header_line,
                        &name,
                        "has no `path` or `workspace` key",
                    );
                }
            }
            section = line.trim_matches(['[', ']']).to_string();
            if let Some(name) = section
                .strip_prefix("dependencies.")
                .or_else(|| section.strip_prefix("dev-dependencies."))
                .or_else(|| section.strip_prefix("build-dependencies."))
            {
                pending = Some((line_no, name.to_string(), false));
            }
            continue;
        }
        if let Some(state) = pending.as_mut() {
            let key = line.split('=').next().unwrap_or("").trim();
            if key == "path" || key == "workspace" {
                state.2 = true;
            }
            if (key == "git" || key == "registry" || key == "version")
                && !allowed_lines.contains(&line_no)
            {
                flag(
                    &mut findings,
                    line_no,
                    &state.1.clone(),
                    "names a registry/git source",
                );
            }
            continue;
        }
        let in_deps = section == "dependencies"
            || section == "dev-dependencies"
            || section == "build-dependencies"
            || section == "workspace.dependencies"
            || section.ends_with(".dependencies")
            || section.ends_with(".dev-dependencies");
        if !in_deps {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        let value = value.trim();
        if allowed_lines.contains(&line_no) {
            continue;
        }
        let workspace_form = key.ends_with(".workspace") && value == "true";
        let inline_ok = value.starts_with('{')
            && (value.contains("path") || value.contains("workspace = true"))
            && !value.contains("git")
            && !value.contains("registry")
            && !value.contains("version");
        if !(workspace_form || inline_ok) {
            let name = key.trim_end_matches(".workspace");
            flag(
                &mut findings,
                line_no,
                name,
                "is not a workspace path dependency",
            );
        }
    }
    if let Some((header_line, name, ok)) = pending.take() {
        if !ok && !allowed_lines.contains(&header_line) {
            flag(
                &mut findings,
                header_line,
                &name,
                "has no `path` or `workspace` key",
            );
        }
    }
    findings
}
