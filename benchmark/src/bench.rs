//! Running a workload and turning its rounds into named metrics.

use bsc_core::cluster_graph::ClusterGraph;

use crate::child::OneCore;
use crate::probes::{self, Metric};
use crate::replay::{self, Replay};
use crate::round::{run_round, set_up_only, Env, Prepared, RoundResult};
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{OpClass, Plan, Workload};

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct E2eDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
    /// The one workload the metric is defined on, if it is not defined on
    /// all of them. `BENCHMARK.json` has one metric list for all workloads,
    /// so it carries the metrics defined everywhere; the others are
    /// reported and compared by `run.sh` alone.
    pub only: Option<Workload>,
}

impl E2eDef {
    /// Whether the metric is defined on `workload`.
    pub fn applies_to(&self, workload: Workload) -> bool {
        self.only.is_none() || self.only == Some(workload)
    }
}

const fn lower(
    name: &'static str,
    unit: &'static str,
    bound: f64,
    only: Option<Workload>,
) -> E2eDef {
    E2eDef {
        name,
        unit,
        better: Better::Lower,
        bound,
        only,
    }
}

/// The end-to-end metrics. `failed_share` is not in the table: it is the
/// `failed`/`attempted` pair of every result and must be 0.
///
/// The timing bounds are as wide as `BENCHMARK.json` allows because the box
/// this was sized on is not steadier: its memory-bound speed moves by 20 %
/// for seconds to minutes at a time (README, "How steady it is"). A bound
/// below that cannot tell a regression from the box.
pub const E2E: [E2eDef; 9] = [
    lower("setup_s", "s", 0.25, None),
    lower("latency_p50_ms", "ms", 0.25, None),
    lower("latency_p95_ms", "ms", 0.25, None),
    lower("latency_p99_ms", "ms", 0.25, Some(Workload::ServeHot)),
    E2eDef {
        name: "throughput_qps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        only: None,
    },
    lower("ingest_p50_ms", "ms", 0.25, Some(Workload::StreamDelta)),
    lower("ingest_p95_ms", "ms", 0.25, Some(Workload::StreamDelta)),
    lower(
        "epoch_first_query_p50_ms",
        "ms",
        0.25,
        Some(Workload::ClusterFanout),
    ),
    // A small server's peak is two-valued with the op order (which worker's
    // arena the big queries land in): 17.9 or 19.1 MB on `serve-cold`,
    // 7 % apart, a third of this bound.
    lower("server_rss_peak_mb", "MB", 0.20, None),
];

/// One end-to-end value with what it was computed from.
#[derive(Debug, Clone, PartialEq)]
pub struct E2eValue {
    pub name: &'static str,
    pub unit: &'static str,
    /// For timings and rates, the statistic over each op's best repetition
    /// (see [`stats::best_per_op`]), set-up steps included; the mean of
    /// rounds for `server_rss_peak_mb`.
    pub value: f64,
    pub samples: usize,
    /// The statistic per round; `stats::spread` of these is the run's
    /// reported spread.
    pub rounds: Vec<f64>,
}

/// Extra spawn-and-set-up repetitions per run, so `setup_s` is taken over
/// several set-ups even when the run has few rounds: up to
/// `MIN_SETUPS` samples in any case, then more while they are cheap (a 5 ms
/// set-up needs more repetitions than a 1 s one to read steadily, and can
/// afford them).
const MIN_SETUPS: usize = 5;
const MAX_EXTRA_SETUPS: usize = 17;
const EXTRA_SETUP_BUDGET_S: f64 = 0.5;

/// The untraced rounds of one workload.
#[derive(Debug)]
pub struct WorkloadRun {
    pub workload: Workload,
    pub plan: Plan,
    pub schedule_hash: String,
    pub rounds: Vec<RoundResult>,
    /// Every set-up of the run, as its steps: one per round plus the extra
    /// set-ups.
    pub setups: Vec<Vec<f64>>,
    pub oracle_s: f64,
}

impl WorkloadRun {
    pub fn attempted(&self) -> u64 {
        self.rounds.iter().map(|r| r.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.rounds.iter().map(|r| r.failed).sum()
    }

    /// Every end-to-end metric defined on this workload that the run's
    /// samples support, in [`E2E`] order. A cell is omitted, never
    /// estimated, when fewer than ten samples lie beyond the percentile.
    pub fn e2e(&self) -> Vec<E2eValue> {
        E2E.iter()
            .filter(|def| def.applies_to(self.workload))
            .filter_map(|def| {
                let (value, samples, rounds) = self.measure(def.name)?;
                Some(E2eValue {
                    name: def.name,
                    unit: def.unit,
                    value,
                    samples,
                    rounds,
                })
            })
            .collect()
    }

    /// `(value, samples, per-round values)` of the metric called `name`.
    fn measure(&self, name: &str) -> Option<(f64, usize, Vec<f64>)> {
        let quantile = |class, q| {
            let per_round: Vec<Vec<f64>> = self
                .rounds
                .iter()
                .map(|r| r.class_latencies(&self.plan.ops, class))
                .collect();
            let (value, rounds) = stats::run_quantile(&per_round, q)?;
            let samples = per_round.iter().flatten().filter(|v| !v.is_nan()).count();
            Some((value, samples, rounds))
        };
        match name {
            // The sum of each step's best repetition over the run's
            // set-ups, as an op's figure is its best repetition. Beside it,
            // each set-up's own time.
            "setup_s" => Some((
                stats::best_per_op(&self.setups).iter().sum(),
                self.setups.len(),
                self.setups.iter().map(|steps| steps.iter().sum()).collect(),
            )),
            "latency_p50_ms" => quantile(OpClass::Query, 0.50),
            "latency_p95_ms" => quantile(OpClass::Query, 0.95),
            "latency_p99_ms" => quantile(OpClass::Query, 0.99),
            // Ops of a round over the sum of each op's best cycle: the rate
            // of a round in which no op was disturbed (see
            // `stats::best_per_op`). Beside it, each round's own rate.
            "throughput_qps" => {
                let cycles: Vec<Vec<f64>> =
                    self.rounds.iter().map(|r| r.cycle_ms.clone()).collect();
                let best = stats::best_per_op(&cycles);
                let best_wall_s = best.iter().sum::<f64>() / 1e3;
                let rates: Vec<f64> = self
                    .rounds
                    .iter()
                    .filter(|r| r.wall_s > 0.0)
                    .map(|r| r.correct() as f64 / r.wall_s)
                    .collect();
                let correct = self.rounds.iter().map(RoundResult::correct).min()?;
                (best_wall_s > 0.0).then(|| (correct as f64 / best_wall_s, rates.len(), rates))
            }
            "ingest_p50_ms" => quantile(OpClass::Push, 0.50),
            "ingest_p95_ms" => quantile(OpClass::Push, 0.95),
            "epoch_first_query_p50_ms" => quantile(OpClass::FirstQuery, 0.50),
            // The mean, not the median: which allocator arena serves the
            // big queries differs between processes, so a small server's
            // peak is two-valued and its median flips with the majority.
            "server_rss_peak_mb" => {
                let peaks: Vec<f64> = self.rounds.iter().map(|r| r.rss_peak_mb).collect();
                let mean = peaks.iter().sum::<f64>() / peaks.len().max(1) as f64;
                Some((mean, peaks.len(), peaks))
            }
            _ => None,
        }
    }

    /// Counters that must repeat exactly between two runs of one commit and
    /// seed: the determinism tripwires `compare` checks.
    pub fn exact_counters(&self) -> Vec<(&'static str, f64)> {
        let first = self.rounds.first();
        let counter = |f: fn(&RoundResult) -> f64| first.map_or(0.0, f);
        vec![
            ("reply_bytes", counter(|r| r.reply_bytes as f64)),
            (
                "service.cache.hit_ratio",
                counter(|r| r.counters.hit_ratio()),
            ),
            (
                "service.cache.carried_forward",
                counter(|r| r.counters.carried_forward as f64),
            ),
            ("cluster.client.rpcs_per_query", counter(rpcs_per_query)),
            (
                "cluster.client.window_cache_hits",
                counter(|r| r.counters.window_cache_hits as f64),
            ),
        ]
    }
}

fn rpcs_per_query(round: &RoundResult) -> f64 {
    match round.counters.queries {
        0 => 0.0,
        queries => round.counters.rpcs as f64 / queries as f64,
    }
}

/// Oracle pass, then the fewest untraced rounds whose measured time (set-up
/// plus timed section, both reported) adds up to `seconds` and that give
/// `latency_p95_ms` its 200 samples.
pub fn run_workload(
    env: &Env,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<WorkloadRun, String> {
    let _one_core = workload.one_core().then(OneCore::enter);
    let plan = Plan::build(workload, seed);
    let schedule_hash = plan.schedule_hash();
    let prepared = Prepared::new(env, plan)?;
    let mut rounds: Vec<RoundResult> = Vec::new();
    loop {
        rounds.push(run_round(env, &prepared, None, 0, |_, _, _| {})?);
        let measured: f64 = rounds.iter().map(|r| r.setup_s + r.wall_s).sum();
        let queries: usize = rounds
            .iter()
            .map(|r| r.class_latencies(&prepared.plan.ops, OpClass::Query).len())
            .sum();
        // A round with failures may never reach the sample count: stop and
        // let the failure be reported.
        if measured >= seconds
            && (stats::supports(queries, 0.95) || rounds.iter().any(|r| r.failed > 0))
        {
            break;
        }
    }
    let mut setups: Vec<Vec<f64>> = rounds.iter().map(|r| r.setup_steps.clone()).collect();
    let mut spent = 0.0;
    for _ in 0..MAX_EXTRA_SETUPS {
        // What one more would cost.
        let next = setups.last().map_or(0.0, |steps| steps.iter().sum());
        if setups.len() >= MIN_SETUPS && spent + next > EXTRA_SETUP_BUDGET_S {
            break;
        }
        let steps = set_up_only(env, &prepared)?;
        spent += steps.iter().sum::<f64>();
        setups.push(steps);
    }
    Ok(WorkloadRun {
        workload,
        schedule_hash,
        rounds,
        setups,
        oracle_s: prepared.oracle_s,
        plan: prepared.plan,
    })
}

/// The traced run of one workload: untraced and traced rounds in turn (the
/// untraced ones are the baseline the tracing overhead is taken against and
/// the source of the server counters); the first traced round also carries
/// the in-process replay.
pub struct TracedRun {
    /// The untraced rounds.
    pub run: WorkloadRun,
    pub tracer: Tracer,
    /// `harness.*`, `trace.*` and the per-workload server counters.
    pub metrics: Vec<Metric>,
    /// `cluster.worker.*`, when this workload's own fleet had workers.
    pub worker_metrics: Option<Vec<Metric>>,
}

pub fn run_traced(
    env: &Env,
    workload: Workload,
    seed: u64,
    seconds: f64,
    big: &ClusterGraph,
    window_solve_ms: f64,
) -> Result<TracedRun, String> {
    let _one_core = workload.one_core().then(OneCore::enter);
    let plan = Plan::build(workload, seed);
    let schedule_hash = plan.schedule_hash();
    let prepared = Prepared::new(env, plan)?;
    let ops = prepared.plan.ops.len();
    let mut tracer = Tracer::with_capacity(ops * 3 + 4096);
    let mut replayed = Replay::default();
    let mut worker_metrics = None;
    let (mut untraced, mut traced): (Vec<RoundResult>, Vec<RoundResult>) = (Vec::new(), Vec::new());
    let mut measured = 0.0;
    while measured < seconds || traced.is_empty() {
        untraced.push(run_round(env, &prepared, None, 0, |_, _, _| {})?);
        // Request ids stay unique across traced rounds.
        let base = (traced.len() * ops) as u32;
        let first = traced.is_empty();
        traced.push(run_round(
            env,
            &prepared,
            Some(&mut tracer),
            base,
            |fleet, round, tracer| {
                if first {
                    replayed = replay::replay(&prepared, fleet, round, tracer);
                    if let Some(addr) = fleet.worker_addrs.first() {
                        worker_metrics = Some(probes::cluster::worker_probes(
                            addr,
                            big,
                            window_solve_ms,
                            tracer,
                        ));
                    }
                }
            },
        )?);
        measured += [&untraced, &traced]
            .iter()
            .filter_map(|rounds| rounds.last())
            .map(|r| r.setup_s + r.wall_s)
            .sum::<f64>();
    }
    let p50 = |rounds: &[RoundResult]| {
        let per_round: Vec<Vec<f64>> = rounds
            .iter()
            .map(|r| r.class_latencies(&prepared.plan.ops, OpClass::Query))
            .collect();
        stats::run_quantile(&per_round, 0.5).map_or(0.0, |(value, _)| value)
    };
    let overhead = if p50(&untraced) > 0.0 {
        p50(&traced) / p50(&untraced) - 1.0
    } else {
        0.0
    };
    let timed_ops: usize = traced.iter().map(|r| r.latency_ms.len()).sum();
    let counters = &untraced[0].counters;
    let queries = counters.queries as usize;
    let metrics = vec![
        Metric::new("harness.pipe_rtt_us", traced[0].pipe_rtt_us, "us", 200),
        Metric::new("harness.trace_overhead_share", overhead, "ratio", timed_ops),
        Metric::new(
            "trace.unattributed_share",
            replayed.unattributed_share,
            "ratio",
            replayed.sampled,
        ),
        Metric::new(
            "service.engine.queue_wait_mean_us",
            counters.queue_wait_mean_us,
            "us",
            queries,
        ),
        Metric::new(
            "service.cache.hit_ratio",
            counters.hit_ratio(),
            "ratio",
            queries,
        ),
        Metric::new(
            "service.cache.carried_forward",
            counters.carried_forward as f64,
            "count",
            queries,
        ),
        Metric::new(
            "cluster.client.rpcs_per_query",
            rpcs_per_query(&untraced[0]),
            "count",
            queries,
        ),
        Metric::new(
            "cluster.client.rpc_mean_us",
            counters.rpc_mean_us,
            "us",
            counters.rpcs as usize,
        ),
        Metric::new(
            "cluster.client.window_cache_hits",
            counters.window_cache_hits as f64,
            "count",
            queries,
        ),
    ];
    let setups = untraced
        .iter()
        .chain(&traced)
        .map(|r| r.setup_steps.clone())
        .collect();
    Ok(TracedRun {
        run: WorkloadRun {
            workload,
            schedule_hash,
            rounds: untraced,
            setups,
            oracle_s: prepared.oracle_s,
            plan: prepared.plan,
        },
        tracer,
        metrics,
        worker_metrics: worker_metrics.transpose()?,
    })
}

/// Every per-layer metric name, in report order: what `--trace 1` prints
/// and `BENCHMARK.json` lists under `per_layer`.
pub const PER_LAYER: &[&str] = &[
    "harness.pipe_rtt_us",
    "harness.trace_overhead_share",
    "trace.unattributed_share",
    "util.json.parse_query_us",
    "util.json.render_reply_us",
    "util.json.parse_push_us",
    "service.protocol.parse_query_us",
    "service.protocol.parse_push_us",
    "service.protocol.render_reply_us",
    "service.session.hit_us",
    "service.session.cold_overhead_us",
    "service.engine.hit_us",
    "service.engine.queue_wait_mean_us",
    "service.engine.install_incremental_ms",
    "service.cache.get_us",
    "service.cache.put_us",
    "service.cache.hit_ratio",
    "service.cache.carried_forward",
    "service.admission.push_pop_us",
    "core.bfs.solve_ms",
    "core.bfs.full_solve_ms",
    "core.auto.overhead_us",
    "core.dfs.solve_ms",
    "core.ta.solve_ms",
    "core.normalized.solve_ms",
    "core.dfs.logfile_solve_ms",
    "core.sharded.solve_ms",
    "core.sharded.serial_solve_ms",
    "core.cluster_graph.window_extract_ms",
    "core.cluster_graph.window_share",
    "core.distributed.window_solve_ms",
    "core.topk.merge_us",
    "core.cluster_graph.generate_ms",
    "core.streaming.push_ms",
    "core.streaming.snapshot_ms",
    "core.delta.between_ms",
    "core.delta.cold_solve_ms",
    "core.delta.splice_solve_ms",
    "core.delta.windows_resolved",
    "core.delta.windows_spliced",
    "storage.memory.put_us",
    "storage.memory.get_us",
    "storage.logfile.put_us",
    "storage.logfile.get_us",
    "storage.blockcache.put_us",
    "storage.blockcache.get_us",
    "storage.logfile.dfs_reads",
    "storage.logfile.dfs_bytes_read",
    "storage.blockcache.evictions",
    "cluster.wire.graph_encode_ms",
    "cluster.wire.graph_decode_ms",
    "cluster.wire.graph_bytes",
    "cluster.wire.window_request_encode_us",
    "cluster.wire.window_result_decode_us",
    "cluster.worker.ping_rtt_us",
    "cluster.worker.install_graph_ms",
    "cluster.worker.solve_window_rtt_ms",
    "cluster.worker.wire_overhead_ms",
    "cluster.client.rpcs_per_query",
    "cluster.client.rpc_mean_us",
    "cluster.client.window_cache_hits",
];

#[cfg(test)]
mod tests {
    use super::*;
    use bsc_util::json::{self, JsonValue};

    /// `BENCHMARK.json` restates the tables of this file and of
    /// `workload.rs` for the driver; they must not drift apart.
    #[test]
    fn benchmark_json_agrees_with_the_harness() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let list = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .expect(key)
                .to_vec()
        };
        let text = |entry: &JsonValue, key: &str| {
            entry
                .get(key)
                .and_then(JsonValue::as_str)
                .expect(key)
                .to_string()
        };

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = Workload::DRIVER
            .iter()
            .map(|w| (w.name().to_string(), w.why().to_string()))
            .collect();
        assert_eq!(workloads, expected);

        let everywhere: Vec<&E2eDef> = E2E.iter().filter(|def| def.only.is_none()).collect();
        let listed = list("end_to_end");
        assert_eq!(listed.len(), everywhere.len());
        for (entry, def) in listed.iter().zip(everywhere) {
            assert_eq!(text(entry, "name"), def.name);
            assert_eq!(text(entry, "unit"), def.unit);
            assert_eq!(
                text(entry, "better") == "lower",
                def.better == Better::Lower
            );
            assert_eq!(
                entry.get("bound").and_then(JsonValue::as_f64),
                Some(def.bound)
            );
        }

        let per_layer: Vec<String> = list("per_layer").iter().map(|m| text(m, "name")).collect();
        assert_eq!(per_layer, PER_LAYER);
    }
}
