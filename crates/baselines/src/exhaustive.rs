//! Exhaustive top-k path enumeration — the ground-truth oracle.
//!
//! The BFS, DFS and TA solvers of `bsc-core` all claim to return the exact
//! top-k paths (Claims 1 and 2 of the paper). This module enumerates *every*
//! path of a cluster graph by brute force and selects the top-k directly, so
//! the integration tests can verify those claims on randomly generated
//! graphs. Complexity is exponential in the number of intervals; only use it
//! on small graphs.

use bsc_core::cluster_graph::{ClusterGraph, ClusterNodeId, GraphView};
use bsc_core::error::BscResult;
use bsc_core::path::ClusterPath;
use bsc_core::problem::StableClusterSpec;
use bsc_core::solver::{
    check_not_expired, deadline_error, AlgorithmKind, Solution, SolverStats, StableClusterSolver,
};
use bsc_core::topk::TopKPaths;
use bsc_util::cancel::CancelToken;

/// The exhaustive oracle behind the [`StableClusterSolver`] trait, so the
/// conformance suites can run it through the same `Box<dyn>` dispatch as the
/// real algorithms. It answers every [`StableClusterSpec`]; complexity is
/// exponential in the number of intervals, so only use it on small graphs.
#[derive(Debug, Clone)]
pub struct ExhaustiveSolver {
    spec: StableClusterSpec,
    k: usize,
    cancel: Option<CancelToken>,
}

impl ExhaustiveSolver {
    /// Create an oracle answering `spec` with `k` results.
    pub fn new(spec: StableClusterSpec, k: usize) -> Self {
        ExhaustiveSolver {
            spec,
            k,
            cancel: None,
        }
    }

    /// Attach a cooperative-cancellation token, observed at amortized
    /// checkpoints during the enumeration. Even the oracle honours
    /// deadlines: it backs the serve-protocol `oracle` executor, which must
    /// report the same `DeadlineExceeded` outcomes as the engine.
    pub fn with_cancel(mut self, cancel: Option<CancelToken>) -> Self {
        self.cancel = cancel;
        self
    }
}

impl StableClusterSolver for ExhaustiveSolver {
    fn name(&self) -> &'static str {
        "exhaustive-oracle"
    }

    fn algorithm(&self) -> AlgorithmKind {
        match self.spec {
            StableClusterSpec::Normalized { .. } => AlgorithmKind::Normalized,
            _ => AlgorithmKind::Bfs,
        }
    }

    fn solve_view(&mut self, graph: GraphView<'_>) -> BscResult<Solution> {
        check_not_expired(self.cancel.as_ref())?;
        let mut stats = SolverStats::default();
        let cancel = self.cancel.as_ref();
        let paths = match self.spec {
            StableClusterSpec::FullPaths => {
                let l = graph.num_intervals().saturating_sub(1) as u32;
                exhaustive_top_k_cancellable(graph, self.k, l, cancel)?
            }
            StableClusterSpec::ExactLength(l) => {
                exhaustive_top_k_cancellable(graph, self.k, l, cancel)?
            }
            StableClusterSpec::Normalized { l_min } => {
                exhaustive_normalized_top_k_cancellable(graph, self.k, l_min, cancel)?
            }
        };
        stats.paths_generated = paths.len() as u64;
        Ok(Solution {
            paths,
            stats,
            io: Default::default(),
        })
    }
}

/// The exact top-k paths of length exactly `l`, by descending weight.
pub fn exhaustive_top_k(graph: &ClusterGraph, k: usize, l: u32) -> Vec<ClusterPath> {
    // bsc:allow(panic-in-lib) -- with cancel = None the only error source (deadline) cannot fire
    exhaustive_top_k_cancellable(graph, k, l, None).expect("infallible without a cancel token")
}

/// [`exhaustive_top_k`] over a graph or a view of one, with an optional
/// cancellation token, observed once per visited path at amortized
/// checkpoints.
pub fn exhaustive_top_k_cancellable<'a>(
    graph: impl Into<GraphView<'a>>,
    k: usize,
    l: u32,
    cancel: Option<&CancelToken>,
) -> BscResult<Vec<ClusterPath>> {
    let graph = graph.into();
    let mut heap = TopKPaths::new(k);
    if k == 0 || l == 0 {
        return Ok(Vec::new());
    }
    let mut tick = 0u32;
    for start in graph.intervals().flat_map(|i| graph.interval_node_ids(i)) {
        extend(
            graph,
            vec![start],
            0.0,
            l,
            cancel,
            &mut tick,
            &mut |path: &ClusterPath| {
                if path.length() == l {
                    heap.offer_by_weight(path.clone());
                }
            },
        )?;
    }
    Ok(heap.into_sorted())
}

/// The exact top-k paths of length at least `l_min`, by descending stability.
pub fn exhaustive_normalized_top_k(graph: &ClusterGraph, k: usize, l_min: u32) -> Vec<ClusterPath> {
    exhaustive_normalized_top_k_cancellable(graph, k, l_min, None)
        .expect("infallible without a cancel token") // bsc:allow(panic-in-lib) -- with cancel = None the only error source (deadline) cannot fire
}

/// [`exhaustive_normalized_top_k`] over a graph or a view of one, with an
/// optional cancellation token, observed once per visited path at amortized
/// checkpoints.
pub fn exhaustive_normalized_top_k_cancellable<'a>(
    graph: impl Into<GraphView<'a>>,
    k: usize,
    l_min: u32,
    cancel: Option<&CancelToken>,
) -> BscResult<Vec<ClusterPath>> {
    let graph = graph.into();
    let mut results: Vec<ClusterPath> = Vec::new();
    if k == 0 || l_min == 0 {
        return Ok(results);
    }
    let max_len = graph.num_intervals().saturating_sub(1) as u32;
    let mut tick = 0u32;
    for start in graph.intervals().flat_map(|i| graph.interval_node_ids(i)) {
        extend(
            graph,
            vec![start],
            0.0,
            max_len,
            cancel,
            &mut tick,
            &mut |path: &ClusterPath| {
                if path.length() >= l_min {
                    results.push(path.clone());
                }
            },
        )?;
    }
    results.sort_by(|a, b| {
        b.stability()
            .total_cmp(&a.stability())
            .then_with(|| a.tie_break_key().cmp(&b.tie_break_key()))
    });
    results.truncate(k);
    Ok(results)
}

/// Depth-first enumeration of every path starting with `nodes`, invoking the
/// callback on each path with at least one edge and length at most `max_len`.
/// The cancel token (when present) is observed once per recursion step.
fn extend(
    graph: GraphView<'_>,
    nodes: Vec<ClusterNodeId>,
    weight: f64,
    max_len: u32,
    cancel: Option<&CancelToken>,
    tick: &mut u32,
    visit: &mut impl FnMut(&ClusterPath),
) -> BscResult<()> {
    if let Some(token) = cancel {
        if token.checkpoint(tick) {
            return Err(deadline_error(token));
        }
    }
    let last = *nodes.last().expect("non-empty"); // bsc:allow(panic-in-lib) -- recursion seeds every walk with a start node
    let first = nodes[0];
    if nodes.len() > 1 {
        let path = ClusterPath::new(nodes.clone(), weight);
        visit(&path);
    }
    for edge in graph.children(last) {
        if edge.to.interval - first.interval > max_len {
            continue;
        }
        let mut next = nodes.clone();
        next.push(edge.to);
        extend(
            graph,
            next,
            weight + edge.weight,
            max_len,
            cancel,
            tick,
            visit,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsc_core::cluster_graph::ClusterGraphBuilder;
    use bsc_core::problem::KlStableParams;
    use bsc_core::synthetic::{ClusterGraphGenerator, SyntheticGraphParams};
    use bsc_core::BfsStableClusters;

    fn node(interval: u32, index: u32) -> ClusterNodeId {
        ClusterNodeId::new(interval, index)
    }

    #[test]
    fn enumerates_simple_chain() {
        let mut builder = ClusterGraphBuilder::new(0);
        for _ in 0..3 {
            builder.add_interval(1);
        }
        builder.add_edge(node(0, 0), node(1, 0), 0.4);
        builder.add_edge(node(1, 0), node(2, 0), 0.6);
        let graph = builder.build();
        let top = exhaustive_top_k(&graph, 5, 2);
        assert_eq!(top.len(), 1);
        assert!((top[0].weight() - 1.0).abs() < 1e-12);
        let top1 = exhaustive_top_k(&graph, 5, 1);
        assert_eq!(top1.len(), 2);
    }

    #[test]
    fn agrees_with_bfs_on_random_graphs() {
        for seed in 0..3 {
            let graph = ClusterGraphGenerator::new(SyntheticGraphParams {
                num_intervals: 5,
                nodes_per_interval: 6,
                avg_out_degree: 2,
                gap: 1,
                seed: seed + 300,
            })
            .generate();
            for l in [2, 3, 4] {
                let oracle = exhaustive_top_k(&graph, 4, l);
                let bfs = BfsStableClusters::new(KlStableParams::new(4, l))
                    .run(&graph)
                    .unwrap();
                assert_eq!(oracle.len(), bfs.len());
                for (a, b) in oracle.iter().zip(bfs.iter()) {
                    assert!((a.weight() - b.weight()).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn normalized_oracle_respects_min_length() {
        let mut builder = ClusterGraphBuilder::new(0);
        for _ in 0..4 {
            builder.add_interval(1);
        }
        builder.add_edge(node(0, 0), node(1, 0), 0.9);
        builder.add_edge(node(1, 0), node(2, 0), 0.3);
        builder.add_edge(node(2, 0), node(3, 0), 0.3);
        let graph = builder.build();
        let top = exhaustive_normalized_top_k(&graph, 3, 2);
        assert!(!top.is_empty());
        for path in &top {
            assert!(path.length() >= 2);
        }
        // Best by stability is the 0->1->2 prefix: (0.9+0.3)/2 = 0.6.
        assert!((top[0].stability() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_parameters() {
        let graph = ClusterGraphGenerator::new(SyntheticGraphParams {
            num_intervals: 3,
            nodes_per_interval: 3,
            avg_out_degree: 1,
            gap: 0,
            seed: 0,
        })
        .generate();
        assert!(exhaustive_top_k(&graph, 0, 2).is_empty());
        assert!(exhaustive_top_k(&graph, 3, 0).is_empty());
        assert!(exhaustive_normalized_top_k(&graph, 0, 2).is_empty());
    }
}
