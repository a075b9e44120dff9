//! Distributed shard fan-out: the coordinator half of multi-process solving.
//!
//! A [`ShardedSolver`](crate::sharded::ShardedSolver) built with a transport
//! ([`ShardedSolver::with_transport`](crate::sharded::ShardedSolver::with_transport);
//! `docs/sharding.md` states the start-interval decomposition and its
//! byte-identity argument) fans per-window solve requests — a start interval
//! and a length, never a subgraph — out to remote workers through an
//! object-safe [`ShardTransport`] and merges the results, so the merged
//! [`Solution`] is **byte-identical** to the same solver on local threads
//! (and hence to the unsharded solve) for every worker count. This module
//! holds what that fan-out speaks: the request and result of one window,
//! the transport trait, epochs, and the window solve both sides run.
//!
//! The networking itself lives outside this crate: `bsc-cluster` implements
//! [`ShardTransport`] over a line-delimited JSON TCP protocol and registers
//! a factory here via [`register_transport_factory`], which is how
//! [`SolverOptions::fanout`](crate::solver::SolverOptions::fanout) selects
//! distributed solving like any other backend — through
//! [`AlgorithmKind::build_with_options`] — without `bsc-core` linking a
//! transport. Worker processes call [`solve_window_locally`], the same code
//! path local threads use — a [`ClusterGraph::window`] view of the epoch
//! graph the worker already holds, solved in place — which is what makes
//! the byte-identity guarantee structural rather than coincidental.
//!
//! Failure semantics are the transport's contract: a
//! [`ShardTransport::solve_window`] call either returns the window's full
//! result or an error after the transport exhausted its retries/failover
//! (windows are idempotent — re-solving one on another worker yields the
//! identical paths, so failover never changes the answer). When no worker
//! can be reached the error is [`BscError::Cluster`], never a hang.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use bsc_storage::backend::StorageSpec;

use crate::bfs::BfsStableClusters;
use crate::cluster_graph::ClusterGraph;
use crate::error::{BscError, BscResult};
use crate::lookahead::Completions;
use crate::path::ClusterPath;
use crate::problem::{KlStableParams, StableClusterSpec};
use crate::solver::{AlgorithmKind, Solution, SolverOptions, SolverStats};
use crate::ta::TaStableClusters;

/// The worker set of a distributed fan-out: a non-empty list of
/// `host:port` addresses, in dispatch-affinity order (shard range `i` is
/// preferentially dispatched to worker `i % len`).
///
/// This is plain data (parse/Display like every other CLI-selectable knob),
/// so it can live in [`SolverOptions`] and cache keys; turning it into live
/// connections is the registered transport factory's job.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FanoutSpec {
    /// Worker addresses (`host:port`), non-empty.
    pub workers: Vec<String>,
}

impl FanoutSpec {
    /// Build from a list of addresses. Returns `None` when the list is
    /// empty or any address is blank.
    pub fn new(workers: Vec<String>) -> Option<FanoutSpec> {
        if workers.is_empty() || workers.iter().any(|w| w.trim().is_empty()) {
            return None;
        }
        Some(FanoutSpec { workers })
    }

    /// Parse a comma-separated address list (`"host:p1,host:p2"`).
    /// Whitespace around addresses is trimmed; empty entries reject.
    pub fn parse(text: &str) -> Option<FanoutSpec> {
        let workers: Vec<String> = text.split(',').map(|w| w.trim().to_string()).collect();
        if workers.iter().any(String::is_empty) {
            return None;
        }
        FanoutSpec::new(workers)
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Always false — the constructors reject empty worker lists.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }
}

impl std::fmt::Display for FanoutSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.workers.join(","))
    }
}

/// One window solve request: everything a worker needs to answer
/// independently, given the epoch's graph.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRequest {
    /// Epoch identifying the graph the window belongs to (see
    /// [`anonymous_epoch`] for solves outside the snapshot path).
    pub epoch: u64,
    /// Start interval of the window (the window spans `[start, start + l]`).
    pub start: u32,
    /// Path length `l` — inside the window this is the full-path length.
    pub l: u32,
    /// Number of result paths.
    pub k: usize,
    /// Inner algorithm solving the window (`Auto` resolves per window,
    /// exactly as it resolves per shard in-process).
    pub algorithm: AlgorithmKind,
    /// Storage backend the worker provisions for the window solve.
    pub storage: StorageSpec,
    /// Dispatch-affinity hint: the index of the worker that should answer
    /// if healthy. Transports fail over to other workers when it is not.
    pub preferred: usize,
    /// Remaining deadline budget (milliseconds) at dispatch time, when the
    /// coordinator's query carries one. The worker reconstructs a local
    /// [`CancelToken`](crate::solver::CancelToken) from it so a window solve
    /// observing the budget stops burning worker CPU after the coordinator
    /// has already given up.
    pub deadline_ms: Option<u64>,
}

/// A solved window: result paths in the graph's own node ids plus the
/// solver counters, ready to merge.
#[derive(Debug, Clone)]
pub struct WindowResult {
    /// The window's top-k paths.
    pub paths: Vec<ClusterPath>,
    /// The window solver's execution counters.
    pub stats: SolverStats,
}

/// An object-safe fan-out transport: given the graph (for lazy
/// distribution) and a window request, produce the window's result.
///
/// Contract:
/// * **Exactness** — the returned paths are bit-identical to
///   [`solve_window_locally`] on the same graph (transports must carry
///   `f64` weights losslessly, e.g. as `to_bits`).
/// * **Idempotent failover** — on a worker failure the transport may
///   re-dispatch the window to any other worker; when every worker is
///   exhausted it returns [`BscError::Cluster`] instead of hanging.
/// * **Graph distribution** — the transport ships `graph` to a worker that
///   has not seen `epoch` yet (an epoch identifies graph content; see
///   [`anonymous_epoch`]).
pub trait ShardTransport: Send + Sync + std::fmt::Debug {
    /// Number of workers in the fan-out set.
    fn worker_count(&self) -> usize;

    /// Solve one window, failing over between workers as needed.
    fn solve_window(
        &self,
        graph: &ClusterGraph,
        request: &WindowRequest,
    ) -> BscResult<WindowResult>;
}

/// Epochs with this bit set are coordinator-local graph identities minted
/// by [`anonymous_epoch`], disjoint from `SnapshotCell` epochs.
pub const ANONYMOUS_EPOCH_BIT: u64 = 1 << 63;

static ANONYMOUS_EPOCHS: AtomicU64 = AtomicU64::new(0);

/// Mint a process-unique epoch for a graph that has none (a bare
/// [`solve`](crate::solver::StableClusterSolver::solve) call outside the
/// snapshot path). Workers cache graphs by epoch per connection, so a fresh
/// identity per solve is correct — merely one graph shipment less efficient
/// than the snapshot path, which reuses the real epoch across queries.
pub fn anonymous_epoch() -> u64 {
    ANONYMOUS_EPOCH_BIT | ANONYMOUS_EPOCHS.fetch_add(1, Ordering::Relaxed)
}

/// Solve one start interval's window on the local machine — the shared
/// implementation behind both the in-process
/// [`ShardedSolver`](crate::sharded::ShardedSolver) and the remote worker
/// of `bsc-cluster`, which is what makes distributed results structurally
/// byte-identical to sharded ones.
///
/// Takes the `(l + 1)`-interval view at `start`, builds `algorithm` for the
/// window's full-path query (`ExactLength(l)` *is* full-length inside the
/// window, so every algorithm — TA included — accepts it) and solves
/// sequentially, in place, with its own `storage`-provisioned backend. A
/// window the graph does not contain is a [`BscError::InvalidConfig`].
pub fn solve_window_locally(
    graph: &ClusterGraph,
    start: u32,
    l: u32,
    k: usize,
    algorithm: AlgorithmKind,
    options: &SolverOptions,
) -> BscResult<WindowResult> {
    solve_window(graph, start, l, k, algorithm, options, None)
}

/// Does a window solved by `algorithm` read its look-ahead through a lens,
/// so that a run of windows may share one table? BFS does, and TA does for
/// `startwts`. An `auto` that reaches a window carries a budget: it priced
/// one window's table and keeps its own. DFS reads none.
pub(crate) fn reads_a_shared_table(algorithm: AlgorithmKind) -> bool {
    matches!(algorithm, AlgorithmKind::Bfs | AlgorithmKind::Ta)
}

/// [`solve_window_locally`], reading the window's look-ahead off `shared`
/// where its leaf can ([`reads_a_shared_table`]): a table for this `l` over
/// a run of windows that holds this one. The answer and every counter are
/// those of the window solved alone.
pub(crate) fn solve_window(
    graph: &ClusterGraph,
    start: u32,
    l: u32,
    k: usize,
    algorithm: AlgorithmKind,
    options: &SolverOptions,
    shared: Option<&Completions>,
) -> BscResult<WindowResult> {
    let m = graph.num_intervals();
    let end = start.checked_add(l).filter(|&end| (end as usize) < m);
    let end = end.ok_or_else(|| {
        BscError::InvalidConfig(format!(
            "window of length {l} at interval {start} is outside the graph ({m} intervals)"
        ))
    })?;
    let view = graph.window(start, end);
    let cancel = options.cancel.clone();
    let solution = match shared.filter(|_| reads_a_shared_table(algorithm)) {
        Some(table) if algorithm == AlgorithmKind::Ta => {
            let ta = TaStableClusters::new(k).with_cancel(cancel);
            Solution::of(|| ta.run_in(view, Some(table)))
        }
        Some(table) => {
            let bfs = BfsStableClusters::new(KlStableParams::new(k, l)).with_cancel(cancel);
            Solution::of(|| bfs.run_in(view, Some(table)))
        }
        // Window solves are the leaves of any fan-out: `build_leaf` never
        // shards or re-distributes, whatever the caller's options said.
        None => algorithm
            .build_leaf(
                StableClusterSpec::ExactLength(l),
                k,
                l as usize + 1,
                options,
            )?
            .solve_view(view),
    };
    let Solution {
        paths, mut stats, ..
    } = solution?;
    // One window actually solved: sharded, distributed and delta solves all
    // merge these, so the aggregate's `windows_resolved` counts the windows
    // that ran regardless of how they were partitioned.
    stats.windows_resolved = 1;
    Ok(WindowResult { paths, stats })
}

/// A factory turning a [`FanoutSpec`] into a live transport (expected to
/// pool connections so per-query solver builds are cheap).
pub type TransportFactory =
    Box<dyn Fn(&FanoutSpec) -> BscResult<Arc<dyn ShardTransport>> + Send + Sync>;

static TRANSPORT_FACTORY: OnceLock<TransportFactory> = OnceLock::new();

/// Register the process-wide transport factory behind
/// [`SolverOptions::fanout`](crate::solver::SolverOptions::fanout).
/// The first registration wins (returns `true`); later calls are ignored
/// (`false`), so it is safe to call from every entry point.
pub fn register_transport_factory(factory: TransportFactory) -> bool {
    TRANSPORT_FACTORY.set(factory).is_ok()
}

/// Resolve a [`FanoutSpec`] through the registered factory.
///
/// Errors with [`BscError::Cluster`] when no factory is registered — the
/// binary (or test) must call `bsc_cluster::install_transport()` first;
/// `bsc-core` itself never links a network transport.
pub fn transport_for(spec: &FanoutSpec) -> BscResult<Arc<dyn ShardTransport>> {
    match TRANSPORT_FACTORY.get() {
        Some(factory) => factory(spec),
        None => Err(BscError::Cluster(
            "no cluster transport registered for the fan-out worker set; call \
             bsc_cluster::install_transport() before building distributed solvers"
                .to_string(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{ClusterGraphGenerator, SyntheticGraphParams};

    fn graph(m: usize, n: u32, d: u32, g: u32, seed: u64) -> ClusterGraph {
        ClusterGraphGenerator::new(SyntheticGraphParams {
            num_intervals: m,
            nodes_per_interval: n,
            avg_out_degree: d,
            gap: g,
            seed,
        })
        .generate()
    }

    #[test]
    fn fanout_spec_parses_and_displays() {
        let spec = FanoutSpec::parse("127.0.0.1:7001, 127.0.0.1:7002").unwrap();
        assert_eq!(spec.len(), 2);
        assert_eq!(spec.to_string(), "127.0.0.1:7001,127.0.0.1:7002");
        assert_eq!(FanoutSpec::parse(&spec.to_string()), Some(spec));
        assert_eq!(FanoutSpec::parse(""), None);
        assert_eq!(FanoutSpec::parse("a:1,,b:2"), None);
        assert_eq!(FanoutSpec::new(vec![]), None);
    }

    #[test]
    fn anonymous_epochs_are_unique_and_flagged() {
        let a = anonymous_epoch();
        let b = anonymous_epoch();
        assert_ne!(a, b);
        assert!(a & ANONYMOUS_EPOCH_BIT != 0);
        assert!(b & ANONYMOUS_EPOCH_BIT != 0);
    }

    #[test]
    fn unregistered_transport_is_a_clean_error() {
        // The factory may be registered by another test binary, but within
        // this unit-test process nothing registers one.
        let spec = FanoutSpec::parse("127.0.0.1:1").unwrap();
        match transport_for(&spec) {
            Err(BscError::Cluster(reason)) => {
                assert!(reason.contains("transport"), "{reason}")
            }
            Ok(_) => { /* another test registered a factory first — fine */ }
            Err(other) => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn a_window_the_graph_does_not_contain_is_an_error_not_a_panic() {
        let solve = |graph: &ClusterGraph, start: u32, l: u32| {
            let options = SolverOptions::default();
            solve_window_locally(graph, start, l, 3, AlgorithmKind::Bfs, &options)
        };
        let graph = graph(6, 10, 2, 0, 3);
        let empty = crate::cluster_graph::ClusterGraphBuilder::new(0).build();
        // `start + l` overflows; ends one past the last interval; no graph.
        for (graph, start, l) in [(&graph, u32::MAX, 2), (&graph, 4, 2), (&empty, 0, 0)] {
            let error = solve(graph, start, l).expect_err("outside the graph");
            assert!(matches!(error, BscError::InvalidConfig(_)), "{error}");
            assert!(error.to_string().contains("outside the graph"), "{error}");
        }
        // The last window the graph does contain still solves.
        let last = solve(&graph, 3, 2).expect("window [3, 5]");
        assert_eq!(last.stats.windows_resolved, 1);
        assert!(last.paths.iter().all(|p| p.nodes()[0].interval == 3));
        assert!(!last.paths.is_empty());
    }
}
