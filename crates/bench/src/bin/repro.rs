//! `repro` — regenerate the paper's tables and figures, and gate CI on them.
//!
//! ```text
//! repro [--paper] [--json <path>] [--backend <spec>] [--shards <n>]
//!       [--distributed <n>]
//!       [all|table1|table2|fig6|table3|fig7|fig8|fig9|fig10|fig11|fig12|
//!        fig13|fig14|quali|baselines|streaming]
//! repro gate [--baseline <path>] [--json <path>] [--runs <n>]
//!            [--tolerance <pct>] [--shards <n>] [--distributed <n>]
//! repro load [--qps <n>] [--tenants <n>] [--duration <ms>] [--seed <n>]
//!            [--json <path>] [--gate] [--baseline <path>]
//!            [--tolerance <pct>]
//! repro streaming [--paper] [--json <path>] [--gate] [--baseline <path>]
//!                 [--tolerance <pct>]
//! ```
//!
//! Without arguments the whole suite runs at the reduced "quick" scale; pass
//! `--paper` for the paper's parameter ranges (slower). `--json <path>`
//! additionally writes every produced table as a structured JSON document
//! (hand-rolled serializer, zero dependencies) so the performance trajectory
//! can be tracked across commits — `BENCH_table3.json` at the repository
//! root is such a baseline. If an experiment fails, the document is still
//! written with the tables produced so far plus an `"error"` field, so
//! downstream tooling can tell "crashed" apart from "slower".
//!
//! `repro gate` is the CI bench-regression gate: it re-runs the `table3`
//! experiments `--runs` times (default 3), takes per-cell medians, and
//! fails (exit 1) when any wall-clock cell of the baseline (default
//! `BENCH_table3.json`) regresses by more than `--tolerance` percent
//! (default 25) — or when the fresh run crashes. The gate's shard count
//! defaults to whatever the baseline's sharding table was recorded with
//! (its title embeds it), so the comparison lines up without flags.
//!
//! `repro load` runs the deterministic open-loop load harness
//! (`bsc_bench::load`) against a fresh `QueryEngine`: Zipf-skewed
//! multi-tenant traffic at `--qps` for `--duration` milliseconds, with the
//! schedule (and therefore every quota-shed decision) a pure function of
//! `--seed`. It prints latency-quantile, admission and per-tenant tables;
//! `--json <path>` writes them as a bench document. With `--gate` the run
//! is compared against `--baseline` (default `BENCH_load.json`) using the
//! suffix-typed gate columns: `(us)` latency SLOs with `--tolerance`
//! percent relative slack (default 100) plus a 20 ms floor, `(%)` rates
//! with ±5-point slack, and `(=)` byte-exact determinism columns. Exit 1
//! on any violation.
//!
//! `--backend <spec>` restricts the storage-backend I/O report (`table2`) to
//! one backend: `memory`, `logfile`, `blockcache` or `blockcache:<bytes>`.
//! `--shards <n>` sets the shard count of the Table 3 sharding ablation
//! (default 3), and `--distributed <n>` the worker count of the Table 3
//! distributed fan-out ablation (default 2; the workers are in-process TCP
//! servers on 127.0.0.1). Without `--backend` all shipped backends are
//! compared. The gate resolves both counts from the baseline's table titles
//! (`(shards=N)`, `(dist_workers=N)`) the same way.

#![forbid(unsafe_code)]

use std::panic::{catch_unwind, AssertUnwindSafe};

use bsc_bench::experiments::{self, Scale};
use bsc_bench::gate::{self, GateConfig};
use bsc_bench::report::{parse_bench_doc, tables_to_json_with_error, Table};
use bsc_storage::backend::StorageSpec;

/// Turn a panic payload into a printable message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "experiment panicked with a non-string payload".to_string()
    }
}

/// One dispatchable experiment target. The two `usize`s are the shard count
/// of the sharding ablation and the worker count of the distributed fan-out
/// ablation.
type TargetFn = fn(Scale, &[StorageSpec], usize, usize) -> Vec<Table>;

/// The single source of truth for target names: validation iterates the
/// names, dispatch calls the paired function, so the two can never drift.
const TARGETS: &[(&str, TargetFn)] = &[
    ("all", |scale, backends, shards, dist| {
        experiments::all_with_backends(scale, backends, shards, dist)
    }),
    ("table1", |scale, _, _, _| vec![experiments::table1(scale)]),
    ("table2", |scale, backends, _, _| {
        vec![experiments::table2_io(scale, backends)]
    }),
    ("fig6", |scale, _, _, _| vec![experiments::fig6(scale)]),
    ("table3", |scale, _, shards, dist| {
        vec![
            experiments::table3(scale),
            experiments::table3_ablation(scale),
            experiments::table3_sharded(scale, shards),
            experiments::table3_distributed(scale, dist),
            experiments::table3_deadline(scale),
        ]
    }),
    ("fig7", |scale, _, _, _| vec![experiments::fig7(scale)]),
    ("fig8", |scale, _, _, _| vec![experiments::fig8(scale)]),
    ("fig9", |scale, _, _, _| vec![experiments::fig9(scale)]),
    ("fig10", |scale, _, _, _| vec![experiments::fig10(scale)]),
    ("fig11", |scale, _, _, _| vec![experiments::fig11(scale)]),
    ("fig12", |scale, _, _, _| vec![experiments::fig12(scale)]),
    ("fig13", |scale, _, _, _| vec![experiments::fig13(scale)]),
    ("fig14", |scale, _, _, _| vec![experiments::fig14(scale)]),
    ("quali", |scale, _, _, _| experiments::quali(scale)),
    ("baselines", |scale, _, _, _| {
        vec![experiments::baselines(scale)]
    }),
    ("streaming", |scale, _, _, _| {
        let mut tables = vec![experiments::streaming_ablation(scale)];
        tables.extend(experiments::streaming_delta(scale));
        tables
    }),
];

fn target_fn(name: &str) -> Option<TargetFn> {
    TARGETS
        .iter()
        .find(|(target, _)| *target == name)
        .map(|&(_, f)| f)
}

/// Produce the tables of one resolved target, catching panics (a failing
/// solver run surfaces as `Err(message)` instead of aborting the process).
fn run_target(
    f: TargetFn,
    scale: Scale,
    backends: &[StorageSpec],
    shards: usize,
    dist_workers: usize,
) -> Result<Vec<Table>, String> {
    catch_unwind(AssertUnwindSafe(|| {
        f(scale, backends, shards, dist_workers)
    }))
    .map_err(panic_message)
}

fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// A flag's value argument, or exit 2.
fn flag_value<'a>(iter: &mut impl Iterator<Item = &'a String>, flag: &str) -> &'a str {
    match iter.next() {
        Some(value) => value,
        None => usage_error(&format!("{flag} requires an argument")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("gate") {
        run_gate(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("load") {
        run_load(&args[1..]);
        return;
    }
    // `streaming` is both a plain target (inside `all`) and a gateable
    // subcommand; leading-position `streaming` takes the subcommand path so
    // `--gate`/`--baseline` work, exactly like `load`.
    if args.first().map(String::as_str) == Some("streaming") {
        run_streaming(&args[1..]);
        return;
    }

    let scale = if args.iter().any(|a| a == "--paper") {
        Scale::Paper
    } else {
        Scale::Quick
    };
    let mut json_path: Option<String> = None;
    let mut backends: Vec<StorageSpec> = StorageSpec::ALL.to_vec();
    let mut backend_flag = false;
    let mut shards = 3usize;
    let mut shards_flag = false;
    let mut dist_workers = 2usize;
    let mut dist_flag = false;
    let mut targets: Vec<&str> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--paper" => {}
            "--json" => json_path = Some(flag_value(&mut iter, "--json").to_string()),
            "--shards" => match flag_value(&mut iter, "--shards").parse::<usize>() {
                Ok(n) if n >= 1 => {
                    shards = n;
                    shards_flag = true;
                }
                _ => usage_error("--shards requires a positive integer"),
            },
            "--distributed" => match flag_value(&mut iter, "--distributed").parse::<usize>() {
                Ok(n) if n >= 1 => {
                    dist_workers = n;
                    dist_flag = true;
                }
                _ => usage_error("--distributed requires a positive integer"),
            },
            "--backend" => match StorageSpec::parse(flag_value(&mut iter, "--backend")) {
                Some(spec) => {
                    backends = vec![spec];
                    backend_flag = true;
                }
                None => usage_error(
                    "unknown backend (expected memory, logfile, blockcache or blockcache:<bytes>)",
                ),
            },
            flag if flag.starts_with("--") => usage_error(&format!(
                "unknown flag '{flag}' (expected --paper, --json <path>, --backend <spec>, \
                 --shards <n> or --distributed <n>)"
            )),
            target => targets.push(target),
        }
    }
    if targets.is_empty() {
        targets.push("all");
    }
    let mut resolved: Vec<(&str, TargetFn)> = Vec::with_capacity(targets.len());
    for target in &targets {
        match target_fn(target) {
            Some(f) => resolved.push((target, f)),
            None => {
                eprintln!("unknown experiment '{target}'");
                let names: Vec<&str> = TARGETS.iter().map(|&(name, _)| name).collect();
                eprintln!("expected one of: {}", names.join(" "));
                std::process::exit(2);
            }
        }
    }
    if backend_flag && !targets.iter().any(|t| matches!(*t, "table2" | "all")) {
        eprintln!(
            "warning: --backend only affects the storage-backend I/O report (table2/all); \
             the requested target(s) ignore it"
        );
    }
    if shards_flag && !targets.iter().any(|t| matches!(*t, "table3" | "all")) {
        eprintln!(
            "warning: --shards only affects the Table 3 sharding ablation (table3/all); \
             the requested target(s) ignore it"
        );
    }
    if dist_flag && !targets.iter().any(|t| matches!(*t, "table3" | "all")) {
        eprintln!(
            "warning: --distributed only affects the Table 3 fan-out ablation (table3/all); \
             the requested target(s) ignore it"
        );
    }

    let mut produced: Vec<Table> = Vec::new();
    let mut error: Option<String> = None;
    for &(target, f) in &resolved {
        match run_target(f, scale, &backends, shards, dist_workers) {
            Ok(tables) => {
                for table in tables {
                    println!("{table}");
                    produced.push(table);
                }
            }
            Err(message) => {
                error = Some(format!("target '{target}' failed: {message}"));
                break;
            }
        }
    }

    if let Some(path) = &json_path {
        let scale_name = match scale {
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        };
        let json = tables_to_json_with_error(scale_name, &targets, &produced, error.as_deref());
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("failed to write JSON to {path}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "wrote {} table(s) to {path}{}",
            produced.len(),
            if error.is_some() {
                " (partial: run failed)"
            } else {
                ""
            }
        );
    }
    if let Some(message) = error {
        eprintln!("{message}");
        std::process::exit(1);
    }
}

/// The `repro load` subcommand: one deterministic open-loop load run,
/// optionally gated against a checked-in baseline.
fn run_load(args: &[String]) {
    let mut config = bsc_bench::load::LoadConfig::default();
    let mut json_path: Option<String> = None;
    let mut gate_flag = false;
    let mut baseline_path = "BENCH_load.json".to_string();
    let mut gate_config = GateConfig::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--qps" => match flag_value(&mut iter, "--qps").parse::<u64>() {
                Ok(n) if n >= 1 => config = config.qps(n),
                _ => usage_error("--qps requires a positive integer"),
            },
            "--tenants" => match flag_value(&mut iter, "--tenants").parse::<usize>() {
                Ok(n) if n >= 1 => config = config.tenants(n),
                _ => usage_error("--tenants requires a positive integer"),
            },
            "--duration" => match flag_value(&mut iter, "--duration").parse::<u64>() {
                Ok(n) if n >= 1 => config = config.duration_millis(n),
                _ => usage_error("--duration requires a positive integer (milliseconds)"),
            },
            "--seed" => match flag_value(&mut iter, "--seed").parse::<u64>() {
                Ok(n) => config = config.seed(n),
                _ => usage_error("--seed requires a non-negative integer"),
            },
            "--json" => json_path = Some(flag_value(&mut iter, "--json").to_string()),
            "--gate" => gate_flag = true,
            "--baseline" => baseline_path = flag_value(&mut iter, "--baseline").to_string(),
            "--tolerance" => match flag_value(&mut iter, "--tolerance").parse::<f64>() {
                Ok(pct) if pct > 0.0 => gate_config.slo_tolerance = pct / 100.0,
                _ => usage_error("--tolerance requires a positive percentage"),
            },
            flag => usage_error(&format!(
                "unknown load flag '{flag}' (expected --qps <n>, --tenants <n>, \
                 --duration <ms>, --seed <n>, --json <path>, --gate, --baseline <path> \
                 or --tolerance <pct>)"
            )),
        }
    }

    let tables = match bsc_bench::load::run(config) {
        Ok(report) => report.tables(),
        Err(message) => {
            let message = format!("load run failed: {message}");
            if let Some(path) = &json_path {
                let json = tables_to_json_with_error("quick", &["load"], &[], Some(&message));
                if let Err(e) = std::fs::write(path, json) {
                    eprintln!("failed to write JSON to {path}: {e}");
                }
            }
            eprintln!("{message}");
            std::process::exit(1);
        }
    };
    for table in &tables {
        println!("{table}");
    }
    if let Some(path) = &json_path {
        let json = tables_to_json_with_error("quick", &["load"], &tables, None);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("failed to write JSON to {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {} table(s) to {path}", tables.len());
    }
    if gate_flag {
        let baseline_text = match std::fs::read_to_string(&baseline_path) {
            Ok(text) => text,
            Err(e) => usage_error(&format!("cannot read baseline {baseline_path}: {e}")),
        };
        let baseline = match parse_bench_doc(&baseline_text) {
            Ok(doc) => doc,
            Err(e) => usage_error(&format!("cannot parse baseline {baseline_path}: {e}")),
        };
        if let Some(error) = &baseline.error {
            usage_error(&format!(
                "baseline {baseline_path} records a failed run ({error}); regenerate it \
                 before gating"
            ));
        }
        let report = gate::compare(&baseline.tables, &tables, gate_config);
        print!("{}", report.render());
        if !report.passed() {
            std::process::exit(1);
        }
    }
}

/// The `repro streaming` subcommand: the streaming ablation, the publish
/// cost of a long stream (ingest-latency quantiles, and step costs at a
/// short vs a long stream length), a fed engine's push + query at the same
/// two lengths, and the incremental delta ablation (merge-vs-cold
/// head-to-head), optionally gated against the checked-in
/// `BENCH_streaming.json` with the suffix-typed columns: `(us)` ingest and
/// solve latencies under the SLO band, `(=)` shared-interval and
/// windows-resolved/spliced counts and the result digest byte-exact (the
/// determinism tripwire — a digest drift means the solver changed its
/// *answer*, a shared-interval drift that a publish copied what it should
/// have shared).
fn run_streaming(args: &[String]) {
    let mut json_path: Option<String> = None;
    let mut gate_flag = false;
    let mut baseline_path = "BENCH_streaming.json".to_string();
    let mut gate_config = GateConfig::default();
    let mut scale = Scale::Quick;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--paper" => scale = Scale::Paper,
            "--json" => json_path = Some(flag_value(&mut iter, "--json").to_string()),
            "--gate" => gate_flag = true,
            "--baseline" => baseline_path = flag_value(&mut iter, "--baseline").to_string(),
            "--tolerance" => match flag_value(&mut iter, "--tolerance").parse::<f64>() {
                Ok(pct) if pct > 0.0 => gate_config.slo_tolerance = pct / 100.0,
                _ => usage_error("--tolerance requires a positive percentage"),
            },
            flag => usage_error(&format!(
                "unknown streaming flag '{flag}' (expected --paper, --json <path>, --gate, \
                 --baseline <path> or --tolerance <pct>)"
            )),
        }
    }
    if gate_flag && matches!(scale, Scale::Paper) {
        usage_error("--gate compares against a quick-scale baseline; drop --paper");
    }

    let streaming = target_fn("streaming").expect("streaming is a registered target");
    let tables = match run_target(streaming, scale, &StorageSpec::ALL, 3, 2) {
        Ok(tables) => tables,
        Err(message) => {
            let message = format!("streaming run failed: {message}");
            if let Some(path) = &json_path {
                let json = tables_to_json_with_error("quick", &["streaming"], &[], Some(&message));
                if let Err(e) = std::fs::write(path, json) {
                    eprintln!("failed to write JSON to {path}: {e}");
                }
            }
            eprintln!("{message}");
            std::process::exit(1);
        }
    };
    for table in &tables {
        println!("{table}");
    }
    if let Some(path) = &json_path {
        let scale_name = match scale {
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        };
        let json = tables_to_json_with_error(scale_name, &["streaming"], &tables, None);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("failed to write JSON to {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {} table(s) to {path}", tables.len());
    }
    if gate_flag {
        let baseline_text = match std::fs::read_to_string(&baseline_path) {
            Ok(text) => text,
            Err(e) => usage_error(&format!("cannot read baseline {baseline_path}: {e}")),
        };
        let baseline = match parse_bench_doc(&baseline_text) {
            Ok(doc) => doc,
            Err(e) => usage_error(&format!("cannot parse baseline {baseline_path}: {e}")),
        };
        if let Some(error) = &baseline.error {
            usage_error(&format!(
                "baseline {baseline_path} records a failed run ({error}); regenerate it \
                 before gating"
            ));
        }
        let report = gate::compare(&baseline.tables, &tables, gate_config);
        print!("{}", report.render());
        if !report.passed() {
            std::process::exit(1);
        }
    }
}

/// The `repro gate` subcommand: fresh `table3` medians vs the checked-in
/// baseline.
fn run_gate(args: &[String]) {
    let mut baseline_path = "BENCH_table3.json".to_string();
    let mut json_path: Option<String> = None;
    let mut runs = 3usize;
    let mut shards: Option<usize> = None;
    let mut dist_workers: Option<usize> = None;
    let mut config = GateConfig::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--baseline" => baseline_path = flag_value(&mut iter, "--baseline").to_string(),
            "--json" => json_path = Some(flag_value(&mut iter, "--json").to_string()),
            "--runs" => match flag_value(&mut iter, "--runs").parse::<usize>() {
                Ok(n) if n >= 1 => runs = n,
                _ => usage_error("--runs requires a positive integer"),
            },
            "--shards" => match flag_value(&mut iter, "--shards").parse::<usize>() {
                Ok(n) if n >= 1 => shards = Some(n),
                _ => usage_error("--shards requires a positive integer"),
            },
            "--distributed" => match flag_value(&mut iter, "--distributed").parse::<usize>() {
                Ok(n) if n >= 1 => dist_workers = Some(n),
                _ => usage_error("--distributed requires a positive integer"),
            },
            "--tolerance" => match flag_value(&mut iter, "--tolerance").parse::<f64>() {
                Ok(pct) if pct > 0.0 => config.tolerance = pct / 100.0,
                _ => usage_error("--tolerance requires a positive percentage"),
            },
            flag => usage_error(&format!(
                "unknown gate flag '{flag}' (expected --baseline <path>, --json <path>, \
                 --runs <n>, --tolerance <pct>, --shards <n> or --distributed <n>)"
            )),
        }
    }

    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => text,
        Err(e) => usage_error(&format!("cannot read baseline {baseline_path}: {e}")),
    };
    let baseline = match parse_bench_doc(&baseline_text) {
        Ok(doc) => doc,
        Err(e) => usage_error(&format!("cannot parse baseline {baseline_path}: {e}")),
    };
    if let Some(error) = &baseline.error {
        usage_error(&format!(
            "baseline {baseline_path} records a failed run ({error}); regenerate it before gating"
        ));
    }
    // The gate always measures fresh runs at quick scale; a baseline from a
    // different scale would make every comparison vacuous.
    if baseline.scale != "quick" {
        usage_error(&format!(
            "baseline {baseline_path} was recorded at scale {:?}, but the gate measures at \
             \"quick\"; regenerate it with `repro table3 --json {baseline_path}` (no --paper), \
             or run `repro gate --baseline <valid-quick-doc> --json {baseline_path}` to write \
             median-of-N tables",
            baseline.scale
        ));
    }

    // The sharding table's title and time column embed the shard count, so
    // a fresh run at a different count than the baseline can only produce
    // MISSING failures. Default to the count the baseline was recorded
    // with; an explicit --shards (for a matching custom baseline) wins, but
    // a mismatch is called out up front.
    fn titled_count(tables: &[Table], marker: &str) -> Option<usize> {
        tables.iter().find_map(|t| {
            let tail = &t.title[t.title.find(marker)? + marker.len()..];
            tail.strip_suffix(')')?.parse::<usize>().ok()
        })
    }
    fn resolve_count(
        flag_name: &str,
        flag: Option<usize>,
        baseline: Option<usize>,
        default: usize,
        what: &str,
    ) -> usize {
        match (flag, baseline) {
            (Some(flag), Some(base)) if flag != base => {
                eprintln!(
                    "warning: {flag_name} {flag} does not match the baseline's {what}={base}; \
                     that table will be reported MISSING — regenerate the baseline at \
                     {flag} first"
                );
                flag
            }
            (Some(flag), _) => flag,
            (None, Some(base)) => base,
            (None, None) => default,
        }
    }
    let shards = resolve_count(
        "--shards",
        shards,
        titled_count(&baseline.tables, "(shards="),
        3,
        "shards",
    );
    let dist_workers = resolve_count(
        "--distributed",
        dist_workers,
        titled_count(&baseline.tables, "(dist_workers="),
        2,
        "dist_workers",
    );

    let backends = StorageSpec::ALL.to_vec();
    let table3 = target_fn("table3").expect("table3 is a registered target");
    let mut all_runs: Vec<Vec<Table>> = Vec::with_capacity(runs);
    let mut error: Option<String> = None;
    for run in 0..runs {
        eprintln!("gate: table3 run {}/{runs}", run + 1);
        match run_target(table3, Scale::Quick, &backends, shards, dist_workers) {
            Ok(tables) => all_runs.push(tables),
            Err(message) => {
                error = Some(format!("table3 run {} crashed: {message}", run + 1));
                break;
            }
        }
    }

    let fresh = gate::median_tables(&all_runs);
    if let Some(path) = &json_path {
        let json = tables_to_json_with_error("quick", &["table3"], &fresh, error.as_deref());
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("failed to write JSON to {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote fresh median tables to {path}");
    }
    if let Some(message) = error {
        eprintln!("bench gate: CRASHED — {message}");
        std::process::exit(1);
    }

    let report = gate::compare(&baseline.tables, &fresh, config);
    print!("{}", report.render());
    if !report.passed() {
        std::process::exit(1);
    }
}
