//! The printed report and the result documents (`results.json`, the
//! driver's result line).

use std::collections::BTreeMap;

use bsc_util::json::JsonValue;

use crate::bench::{E2eValue, WorkloadRun, E2E};
use crate::probes::Metric;
use crate::stats;
use crate::trace::{self, Span};
use crate::workload::Workload;

fn number(value: f64) -> JsonValue {
    JsonValue::from(value)
}

fn object<const N: usize>(pairs: [(&str, JsonValue); N]) -> JsonValue {
    JsonValue::object(pairs.map(|(k, v)| (k.to_string(), v)))
}

fn metric_json(m: &Metric) -> JsonValue {
    object([
        ("value", number(m.value)),
        ("unit", JsonValue::from(m.unit)),
        ("samples", JsonValue::from(m.samples)),
    ])
}

/// `{name: {value, unit, samples}}` for per-layer metrics.
pub fn metrics_json(metrics: &[Metric]) -> JsonValue {
    JsonValue::object(metrics.iter().map(|m| (m.name.to_string(), metric_json(m))))
}

/// One workload's entry in `results.json`.
pub fn run_json(run: &WorkloadRun, per_layer: &[Metric]) -> JsonValue {
    let e2e = run.e2e().into_iter().map(|v| {
        let rounds = JsonValue::Array(v.rounds.iter().copied().map(number).collect());
        let cell = object([
            ("value", number(v.value)),
            ("unit", JsonValue::from(v.unit)),
            ("samples", JsonValue::from(v.samples)),
            ("rounds", rounds),
        ]);
        (v.name.to_string(), cell)
    });
    let exact = run
        .exact_counters()
        .into_iter()
        .map(|(name, value)| (name.to_string(), number(value)));
    object([
        ("why", JsonValue::from(run.workload.why())),
        ("schedule_hash", JsonValue::from(run.schedule_hash.as_str())),
        ("rounds", JsonValue::from(run.rounds.len())),
        ("attempted", JsonValue::from(run.attempted())),
        ("failed", JsonValue::from(run.failed())),
        (
            "failed_share",
            number(run.failed() as f64 / run.attempted().max(1) as f64),
        ),
        ("oracle_s", number(run.oracle_s)),
        ("end_to_end", JsonValue::object(e2e)),
        ("exact", JsonValue::object(exact)),
        ("per_layer", metrics_json(per_layer)),
    ])
}

/// The whole `results.json` document.
pub fn results_json(
    seed: u64,
    traced: bool,
    workloads: Vec<(String, JsonValue)>,
    per_layer: &[Metric],
) -> JsonValue {
    object([
        ("seed", JsonValue::from(seed)),
        ("traced", JsonValue::Bool(traced)),
        ("workloads", JsonValue::object(workloads)),
        ("per_layer", metrics_json(per_layer)),
    ])
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn driver_line(run: &WorkloadRun, metrics: Vec<(String, f64, &str)>) -> String {
    let metrics = metrics.into_iter().map(|(name, value, unit)| {
        (
            name,
            object([("value", number(value)), ("unit", JsonValue::from(unit))]),
        )
    });
    object([
        ("correct", JsonValue::Bool(run.failed() == 0)),
        ("attempted", JsonValue::from(run.attempted())),
        ("failed", JsonValue::from(run.failed())),
        ("metrics", JsonValue::object(metrics)),
    ])
    .render()
}

/// Per-round values, the first dozen of them.
fn list(values: &[f64]) -> String {
    const SHOWN: usize = 12;
    let shown: Vec<String> = values
        .iter()
        .take(SHOWN)
        .map(|v| format!("{v:.4}"))
        .collect();
    let more = values.len().saturating_sub(SHOWN);
    let tail = if more > 0 {
        format!(", +{more} more")
    } else {
        String::new()
    };
    format!("[{}{tail}]", shown.join(", "))
}

/// Print one workload's end-to-end metrics: name, value, unit, sample
/// count, per-round values and their spread.
pub fn print_run(run: &WorkloadRun) {
    println!(
        "== {}{}: {} round(s), {} timed ops, {} failed (failed_share {}), schedule_hash {}, oracle pass {:.2} s",
        run.workload.name(),
        if Workload::DRIVER.contains(&run.workload) {
            ""
        } else {
            " (run.sh only, not in BENCHMARK.json)"
        },
        run.rounds.len(),
        run.attempted(),
        run.failed(),
        run.failed() as f64 / run.attempted().max(1) as f64,
        run.schedule_hash,
        run.oracle_s
    );
    let values: Vec<E2eValue> = run.e2e();
    for def in &E2E {
        match values.iter().find(|v| v.name == def.name) {
            Some(v) => println!(
                "  {:<26} {:>12.4} {:<4} n={:<7} rounds {} spread {:.1}%",
                v.name,
                v.value,
                v.unit,
                v.samples,
                list(&v.rounds),
                stats::spread(&v.rounds) * 100.0
            ),
            // Omitted, never estimated.
            None if def.applies_to(run.workload) => {
                println!(
                    "  {:<26} {:>12} (fewer than ten samples beyond the percentile)",
                    def.name, "-"
                )
            }
            None => {}
        }
    }
    for (name, value) in run.exact_counters() {
        println!("  {:<26} {:>12} (exact)", name, value);
    }
    for error in run.rounds.iter().flat_map(|r| &r.errors) {
        println!("  FAILED: {error}");
    }
}

pub fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("-- {title}");
    for m in metrics {
        println!(
            "  {:<40} {:>14.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

/// Per span name: count, median duration and median self time.
pub fn print_span_summary(spans: &[Span]) {
    let own = trace::self_times_us(spans);
    let mut by_name: BTreeMap<&str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(own) {
        let entry = by_name.entry(span.name).or_default();
        entry.0.push(span.duration_us());
        entry.1.push(own);
    }
    println!("-- spans (median us / median self us)");
    for (name, (durations, own)) in by_name {
        println!(
            "  {:<40} n={:<7} {:>12.1} {:>12.1}",
            name,
            durations.len(),
            stats::median(&durations),
            stats::median(&own)
        );
    }
}
