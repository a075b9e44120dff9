//! The benchmark of record: drives real `bsc serve` processes through six
//! workloads and reports end-to-end and per-layer metrics. See README.md.
//!
//! ```text
//! bsc-benchmark --bsc <bin> --out <dir> [--seed N] [--seconds S] [--json <file>]            all workloads, untraced
//! bsc-benchmark --bsc <bin> --out <dir> [--seed N] [--seconds S] --traced [--json <file>]   traced rounds + layer probes
//! bsc-benchmark --bsc <bin> --out <dir> --workload W --seed N --seconds S --trace 0|1   one driver run
//! bsc-benchmark compare <a.json> <b.json>
//! ```

#![forbid(unsafe_code)]

mod bench;
mod child;
mod compare;
mod probes;
mod replay;
mod report;
mod round;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use bench::{run_traced, run_workload, TracedRun, E2E, PER_LAYER};
use probes::{value_of, Metric};
use round::Env;
use workload::Workload;

struct Args {
    env: Env,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    json: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        env: Env {
            bsc: PathBuf::new(),
            out: PathBuf::from("benchmark/out"),
        },
        workload: None,
        seed: 7,
        // Long enough for every workload-specific percentile to get its
        // samples (20 first queries on cluster-fanout); the driver passes
        // `run_seconds` of `BENCHMARK.json`.
        seconds: 15.0,
        traced: false,
        json: None,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        if flag == "--traced" {
            parsed.traced = true;
            continue;
        }
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--bsc" => parsed.env.bsc = PathBuf::from(value),
            "--out" => parsed.env.out = PathBuf::from(value),
            "--json" => parsed.json = Some(PathBuf::from(value)),
            "--workload" => parsed.workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => parsed.traced = matches!(value.as_str(), "1"),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if !parsed.env.bsc.is_file() {
        return Err(format!(
            "--bsc '{}' is not a file (run through benchmark/run.sh)",
            parsed.env.bsc.display()
        ));
    }
    Ok(parsed)
}

/// Everything a traced run reports for one workload, in [`PER_LAYER`] order.
fn per_layer(
    traced: &TracedRun,
    in_process: &[Metric],
    worker: &[Metric],
) -> Result<Vec<Metric>, String> {
    PER_LAYER
        .iter()
        .map(|name| {
            traced
                .metrics
                .iter()
                .chain(in_process)
                .chain(worker)
                .find(|m| m.name == *name)
                .cloned()
                .ok_or_else(|| format!("per-layer metric {name} was not measured"))
        })
        .collect()
}

/// The workload-independent probes: the graph they ran on, their metrics,
/// and the in-process window solve time the worker probes compare against.
fn in_process_probes() -> (bsc_core::cluster_graph::ClusterGraph, Vec<Metric>, f64) {
    let big = probes::big_graph();
    let in_process = probes::run_in_process(&big);
    let window_ms = value_of(&in_process, "core.distributed.window_solve_ms");
    (big, in_process, window_ms)
}

fn write_trace(env: &Env, traced: &TracedRun) -> Result<(), String> {
    let path = env
        .out
        .join(format!("trace-{}.jsonl", traced.run.workload.name()));
    traced
        .tracer
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "-- {} spans written to {}",
        traced.tracer.spans().len(),
        path.display()
    );
    Ok(())
}

/// One driver run: one workload, result line last.
fn driver_run(args: &Args, workload: Workload) -> Result<(), String> {
    if !args.traced {
        let run = run_workload(&args.env, workload, args.seed, args.seconds)?;
        report::print_run(&run);
        let values = run.e2e();
        let metrics = E2E
            .iter()
            .filter(|def| def.only.is_none())
            .map(|def| {
                let value = values.iter().find(|v| v.name == def.name);
                value
                    .map(|v| (def.name.to_string(), v.value, def.unit))
                    .ok_or_else(|| {
                        format!(
                            "{} has too few samples on {} (failed ops?)",
                            def.name,
                            workload.name()
                        )
                    })
            })
            .collect::<Result<Vec<_>, _>>()?;
        println!("{}", report::driver_line(&run, metrics));
        return Ok(());
    }
    let (big, in_process, window_ms) = in_process_probes();
    let mut traced = run_traced(
        &args.env,
        workload,
        args.seed,
        args.seconds,
        &big,
        window_ms,
    )?;
    let worker = match traced.worker_metrics.take() {
        Some(metrics) => metrics,
        None => probes::cluster::worker_probes_standalone(
            &args.env,
            &big,
            window_ms,
            &mut traced.tracer,
        )?,
    };
    let layers = per_layer(&traced, &in_process, &worker)?;
    report::print_run(&traced.run);
    report::print_metrics("per-layer metrics", &layers);
    report::print_span_summary(traced.tracer.spans());
    write_trace(&args.env, &traced)?;
    let metrics = layers
        .iter()
        .map(|m| (m.name.to_string(), m.value, m.unit))
        .collect();
    println!("{}", report::driver_line(&traced.run, metrics));
    Ok(())
}

/// `run.sh` without `--workload`: all six workloads. Returns whether every
/// op of every workload succeeded.
fn full_run(args: &Args) -> Result<bool, String> {
    let mut entries = Vec::new();
    let mut clean = true;
    let mut shared: Vec<Metric> = Vec::new();
    if args.traced {
        let (big, in_process, window_ms) = in_process_probes();
        for workload in Workload::ALL {
            let mut traced = run_traced(
                &args.env,
                workload,
                args.seed,
                args.seconds,
                &big,
                window_ms,
            )?;
            report::print_run(&traced.run);
            report::print_metrics("per-layer metrics of this workload", &traced.metrics);
            report::print_span_summary(traced.tracer.spans());
            write_trace(&args.env, &traced)?;
            let share = value_of(&traced.metrics, "trace.unattributed_share");
            // The (=)-style tripwire: most of a request's time must be
            // attributed to a layer on the single-process workloads.
            let gated = !matches!(workload, Workload::StreamDelta | Workload::ClusterFanout);
            if gated && share > 0.2 {
                println!(
                    "  FLAG: trace.unattributed_share {share:.3} > 0.2 on {}",
                    workload.name()
                );
            }
            shared.extend(traced.worker_metrics.take().unwrap_or_default());
            clean &= traced.run.failed() == 0;
            entries.push((
                workload.name().to_string(),
                report::run_json(&traced.run, &traced.metrics),
            ));
        }
        shared.extend(in_process);
        shared.sort_by_key(|m| PER_LAYER.iter().position(|name| *name == m.name));
        report::print_metrics("per-layer metrics (workload-independent probes)", &shared);
    } else {
        for workload in Workload::ALL {
            let run = run_workload(&args.env, workload, args.seed, args.seconds)?;
            report::print_run(&run);
            clean &= run.failed() == 0;
            entries.push((workload.name().to_string(), report::run_json(&run, &[])));
        }
    }
    let default = if args.traced {
        "results-traced.json"
    } else {
        "results.json"
    };
    let path = args
        .json
        .clone()
        .unwrap_or_else(|| args.env.out.join(default));
    let document = report::results_json(args.seed, args.traced, entries, &shared).render();
    std::fs::write(&path, document + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("-- results written to {}", path.display());
    Ok(clean)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => match compare::compare_files(a, b) {
                Ok((report, passed)) => {
                    print!("{report}");
                    println!(
                        "{}",
                        if passed {
                            "compare: ok"
                        } else {
                            "compare: FAILED"
                        }
                    );
                    if passed {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("usage: compare <a.json> <b.json>");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // Scratch files of in-process probes (log-file backends) stay inside
    // the checkout, like the children's.
    if let Err(e) = std::fs::create_dir_all(args.env.tmp()) {
        eprintln!("cannot create {}: {e}", args.env.tmp().display());
        return ExitCode::from(2);
    }
    std::env::set_var("TMPDIR", args.env.tmp());
    let outcome = match args.workload {
        Some(workload) => driver_run(&args, workload).map(|()| true),
        None => full_run(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("failed_share > 0: some replies were wrong, missing or late");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
