//! In-process layer probes: each per-layer timing is a call into one
//! layer's public function, on the same graphs and request lines the
//! workloads use. One probe per bound `fn`, grouped by crate — the README
//! lists every binding, so a change that removes one of those functions
//! knows a benchmark change must rebind the probe first.

pub mod cluster;
pub mod core;
pub mod service;
pub mod storage;
pub mod util;

use std::time::Instant;

use bsc_core::cluster_graph::{ClusterGraph, ClusterNodeId};
use bsc_core::path::ClusterPath;
use bsc_core::problem::StableClusterSpec;
use bsc_core::solver::{AlgorithmKind, SolverOptions};
use bsc_core::synthetic::{ClusterGraphGenerator, SyntheticGraphParams};
use bsc_service::protocol::{parse_request, Request};

use crate::stats;
use crate::workload::{self, DATA_SEED};

/// One per-layer measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Calls (or counted events) behind the value.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// Median wall time of one call, in microseconds, and the number of calls:
/// 200, or 20 when a call takes more than 10 ms.
pub fn median_call_us<R>(mut f: impl FnMut() -> R) -> (f64, usize) {
    let mut time_one = || {
        let start = Instant::now();
        std::hint::black_box(f());
        start.elapsed().as_secs_f64() * 1e6
    };
    let calls = if time_one() > 10_000.0 { 20 } else { 200 };
    let samples: Vec<f64> = (0..calls).map(|_| time_one()).collect();
    (stats::median(&samples), calls)
}

/// [`median_call_us`] for calls too short to time singly: each of the 200
/// samples times `batch` calls and reports their mean.
pub fn median_batched_us<R>(batch: usize, mut f: impl FnMut() -> R) -> (f64, usize) {
    let samples: Vec<f64> = (0..200)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            start.elapsed().as_secs_f64() * 1e6 / batch as f64
        })
        .collect();
    (stats::median(&samples), 200 * batch)
}

/// A timing metric in microseconds.
pub fn timed_us<R>(name: &'static str, f: impl FnMut() -> R) -> Metric {
    let (us, calls) = median_call_us(f);
    Metric::new(name, us, "us", calls)
}

/// A timing metric in milliseconds.
pub fn timed_ms<R>(name: &'static str, f: impl FnMut() -> R) -> Metric {
    let (us, calls) = median_call_us(f);
    Metric::new(name, us / 1e3, "ms", calls)
}

/// The `serve-hot` request line every parse/hit probe uses, and the query
/// it stands for (`bfs`, `exact:3`, `k=5`).
pub const HOT_LINE: &str = "{\"op\":\"query\",\"algorithm\":\"bfs\",\"spec\":\"exact:3\",\"k\":5}";
pub const PROBE_SPEC: StableClusterSpec = StableClusterSpec::ExactLength(3);
pub const PROBE_K: usize = 5;

fn generate(intervals: usize, nodes: u32, degree: u32) -> ClusterGraph {
    ClusterGraphGenerator::new(SyntheticGraphParams {
        num_intervals: intervals,
        nodes_per_interval: nodes,
        avg_out_degree: degree,
        gap: 1,
        seed: DATA_SEED,
    })
    .generate()
}

/// The 12x300 graph the `serve-*` workloads load.
pub fn big_graph() -> ClusterGraph {
    generate(12, 300, 5)
}

/// The 6x60 graph `serve-disk` loads.
pub fn small_graph() -> ClusterGraph {
    generate(6, 60, 3)
}

/// Direct one-shot solve, as the oracle and the engine's cold path run it.
pub fn solve_direct(
    graph: &ClusterGraph,
    algorithm: AlgorithmKind,
    spec: StableClusterSpec,
    k: usize,
    options: SolverOptions,
) -> Vec<ClusterPath> {
    algorithm
        .build_with_options(spec, k, graph.num_intervals(), options)
        .and_then(|mut solver| solver.solve(graph))
        .expect("probe solve")
        .paths
}

/// A `push_interval` line as [`bsc_core::streaming::OnlineStableClusters`]
/// ingests it (the grouping `Session` does before calling `push_interval`).
pub fn parent_edges(push_line: &str) -> Vec<Vec<(ClusterNodeId, f64)>> {
    let Ok(Request::PushInterval { nodes, edges }) = parse_request(push_line) else {
        panic!("not a push_interval line");
    };
    let mut grouped = vec![Vec::new(); nodes as usize];
    for (parent, node, weight) in edges {
        grouped[node as usize].push((parent, weight));
    }
    grouped
}

/// The value of the metric called `name`.
pub fn value_of(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(0.0, |m| m.value)
}

/// Run every probe that needs no server process; the `cluster.worker.*`
/// probes, which need a worker process, are [`cluster::worker_probes`].
pub fn run_in_process(big: &ClusterGraph) -> Vec<Metric> {
    let small = small_graph();
    let pushes = workload::push_lines();
    let stream = core::stream_fixture(&pushes);
    let mut metrics = core::probes(big, &small, &stream);
    let bfs_solve_us = value_of(&metrics, "core.bfs.solve_ms") * 1e3;
    metrics.extend(util::probes(big, &pushes));
    metrics.extend(service::probes(big, &pushes, &stream, bfs_solve_us));
    metrics.extend(storage::probes(&small));
    metrics.extend(cluster::wire_probes(big));
    metrics
}
