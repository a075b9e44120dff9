//! `bsc_core` probes: the solvers behind `AlgorithmKind::build_with_options`,
//! `ShardedSolver::new`, `ClusterGraph::window`, `solve_window_locally`,
//! `TopKPaths`, `ClusterGraphGenerator::generate`, `OnlineStableClusters`,
//! `GraphDelta::between` and `solve_windows`.

use std::time::Instant;

use bsc_core::cluster_graph::ClusterGraph;
use bsc_core::delta::{solve_windows, GraphDelta};
use bsc_core::distributed::{solve_window_locally, WindowResult};
use bsc_core::problem::{KlStableParams, StableClusterSpec};
use bsc_core::sharded::ShardedSolver;
use bsc_core::snapshot::GraphSnapshot;
use bsc_core::solver::{AlgorithmKind, SolverOptions, StableClusterSolver};
use bsc_core::streaming::OnlineStableClusters;
use bsc_core::topk::TopKPaths;
use bsc_storage::backend::StorageSpec;

use super::{
    big_graph, median_call_us, parent_edges, solve_direct, timed_ms, timed_us, Metric, PROBE_K,
    PROBE_SPEC,
};
use crate::stats;

/// `l` of [`PROBE_SPEC`].
pub const PROBE_L: u32 = 3;

/// `stream-delta`'s graph at its last two sizes, built the way the session
/// builds it, with the ingest timings taken on the way.
pub struct StreamFixture {
    /// The graph after the second-to-last push.
    pub prev: GraphSnapshot,
    /// The graph after the last push.
    pub last: GraphSnapshot,
    pub metrics: Vec<Metric>,
}

/// Replay every push line through `OnlineStableClusters::{push_interval,
/// snapshot}`. `push_ms` is the median over all pushes; `snapshot_ms` over
/// the last 20, i.e. at (close to) final size — the late-stream cost.
pub fn stream_fixture(pushes: &[String]) -> StreamFixture {
    let mut online = OnlineStableClusters::new(KlStableParams::new(5, PROBE_L), 1);
    let mut push_ms = Vec::new();
    let mut snapshot_ms = Vec::new();
    let mut prev = None;
    let mut last = None;
    for line in pushes {
        let edges = parent_edges(line);
        let start = Instant::now();
        online.push_interval(edges);
        push_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        let snapshot = online.snapshot();
        snapshot_ms.push(start.elapsed().as_secs_f64() * 1e3);
        prev = last.replace(snapshot);
    }
    let late = &snapshot_ms[snapshot_ms.len().saturating_sub(20)..];
    StreamFixture {
        prev: prev.expect("two pushes"),
        last: last.expect("two pushes"),
        metrics: vec![
            Metric::new(
                "core.streaming.push_ms",
                stats::median(&push_ms),
                "ms",
                push_ms.len(),
            ),
            Metric::new(
                "core.streaming.snapshot_ms",
                stats::median(late),
                "ms",
                late.len(),
            ),
        ],
    }
}

/// Σ `ClusterGraph::window(a, a + l)` over every start interval: what a
/// windowed solve spends extracting subgraphs.
pub fn extract_all_windows(graph: &ClusterGraph, l: u32) -> usize {
    let starts = graph.num_intervals() as u32 - l;
    (0..starts)
        .map(|a| graph.window(a, a + l).num_edges())
        .sum()
}

/// Every window of `graph` through `solve_window_locally`, in start order.
pub fn solve_all_windows(graph: &ClusterGraph, l: u32, k: usize) -> Vec<WindowResult> {
    let starts = graph.num_intervals() as u32 - l;
    (0..starts)
        .map(|a| {
            solve_window_locally(
                graph,
                a,
                l,
                k,
                AlgorithmKind::Bfs,
                &SolverOptions::default(),
            )
            .expect("window solve")
        })
        .collect()
}

pub fn probes(big: &ClusterGraph, small: &ClusterGraph, stream: &StreamFixture) -> Vec<Metric> {
    let plain = SolverOptions::default;
    let memory = || SolverOptions::default().storage(StorageSpec::Memory);
    let mut metrics = Vec::new();

    // Solvers on the 12x300 graph (-> latency_p50_ms@serve-cold).
    let bfs = timed_ms("core.bfs.solve_ms", || {
        solve_direct(big, AlgorithmKind::Bfs, PROBE_SPEC, PROBE_K, plain())
    });
    let auto = median_call_us(|| {
        solve_direct(
            big,
            AlgorithmKind::Auto { budget_bytes: None },
            PROBE_SPEC,
            PROBE_K,
            plain(),
        )
    });
    metrics.push(Metric::new(
        "core.auto.overhead_us",
        auto.0 - bfs.value * 1e3,
        "us",
        auto.1,
    ));
    metrics.push(bfs);
    metrics.push(timed_ms("core.bfs.full_solve_ms", || {
        solve_direct(
            big,
            AlgorithmKind::Bfs,
            StableClusterSpec::FullPaths,
            PROBE_K,
            plain(),
        )
    }));

    // The paper's other algorithms on the 6x60 graph (-> serve-disk).
    let exact2 = StableClusterSpec::ExactLength(2);
    metrics.push(timed_ms("core.dfs.solve_ms", || {
        solve_direct(small, AlgorithmKind::Dfs, exact2, PROBE_K, memory())
    }));
    metrics.push(timed_ms("core.dfs.logfile_solve_ms", || {
        solve_direct(
            small,
            AlgorithmKind::Dfs,
            exact2,
            PROBE_K,
            plain().storage(StorageSpec::LogFile),
        )
    }));
    metrics.push(timed_ms("core.ta.solve_ms", || {
        solve_direct(
            small,
            AlgorithmKind::Ta,
            StableClusterSpec::FullPaths,
            PROBE_K,
            memory(),
        )
    }));
    metrics.push(timed_ms("core.normalized.solve_ms", || {
        solve_direct(
            small,
            AlgorithmKind::Normalized,
            StableClusterSpec::Normalized { l_min: 2 },
            PROBE_K,
            memory(),
        )
    }));

    // Windows (-> latency_p50_ms@serve-sharded and the cluster workers).
    let sharded = |shards: usize| {
        move || {
            ShardedSolver::new(
                AlgorithmKind::Bfs,
                PROBE_SPEC,
                PROBE_K,
                SolverOptions::default().shards(shards),
            )
            .and_then(|mut solver| solver.solve(big))
            .expect("sharded solve")
        }
    };
    metrics.push(timed_ms("core.sharded.solve_ms", sharded(2)));
    let serial = timed_ms("core.sharded.serial_solve_ms", sharded(1));
    let extract = timed_ms("core.cluster_graph.window_extract_ms", || {
        extract_all_windows(big, PROBE_L)
    });
    // The number ROADMAP lists as unknown: extraction's share of a
    // windowed solve on one thread.
    metrics.push(Metric::new(
        "core.cluster_graph.window_share",
        extract.value / serial.value,
        "ratio",
        extract.samples,
    ));
    metrics.push(serial);
    metrics.push(extract);
    let starts = big.num_intervals() - PROBE_L as usize;
    let (all_windows_us, calls) = median_call_us(|| solve_all_windows(big, PROBE_L, PROBE_K));
    metrics.push(Metric::new(
        "core.distributed.window_solve_ms",
        all_windows_us / 1e3 / starts as f64,
        "ms",
        calls * starts,
    ));
    let windows = solve_all_windows(big, PROBE_L, PROBE_K);
    metrics.push(timed_us("core.topk.merge_us", || {
        let mut merged = TopKPaths::new(PROBE_K);
        for path in windows.iter().flat_map(|w| &w.paths) {
            merged.offer_by_weight(path.clone());
        }
        merged.into_sorted()
    }));
    metrics.push(timed_ms("core.cluster_graph.generate_ms", big_graph));

    // Streaming and delta at stream-delta's final size.
    metrics.extend(stream.metrics.iter().cloned());
    metrics.push(timed_ms("core.delta.between_ms", || {
        GraphDelta::between(&stream.prev, &stream.last)
    }));
    let delta_solve = |graph: &ClusterGraph, prior| {
        solve_windows(
            graph,
            PROBE_SPEC,
            PROBE_K,
            AlgorithmKind::Bfs,
            &SolverOptions::default(),
            prior,
        )
        .expect("delta solve")
    };
    metrics.push(timed_ms("core.delta.cold_solve_ms", || {
        delta_solve(&stream.last, None)
    }));
    let prior = delta_solve(&stream.prev, None).windows;
    let delta = GraphDelta::between(&stream.prev, &stream.last);
    metrics.push(timed_ms("core.delta.splice_solve_ms", || {
        delta_solve(&stream.last, Some((&prior, &delta)))
    }));
    let spliced = delta_solve(&stream.last, Some((&prior, &delta)))
        .solution
        .stats;
    metrics.push(Metric::new(
        "core.delta.windows_resolved",
        spliced.windows_resolved as f64,
        "count",
        1,
    ));
    metrics.push(Metric::new(
        "core.delta.windows_spliced",
        spliced.windows_spliced as f64,
        "count",
        1,
    ));
    metrics
}
