//! Adaptation of the Threshold Algorithm (Section 4.4).
//!
//! The classic TA of Fagin, Lotem and Naor aggregates sorted attribute lists;
//! here every pair of temporal intervals within the gap bound contributes one
//! list of cluster-graph edges sorted by descending weight. Edges are
//! consumed round-robin; for each newly seen edge all **full paths** (length
//! `m − 1`) containing it are materialized by expanding prefixes back to the
//! first interval and suffixes forward to the last interval (random seeks in
//! the edge lists; both come back as [`ClusterPath`]s), and offered to the
//! top-k heap `H`. Two memo tables,
//! `startwts` and `endwts`, cache the best suffix / prefix weight per node so
//! that hopeless edges can be discarded without enumeration. The scan stops
//! when the k-th best complete path outweighs the *virtual path* assembled
//! from the highest unseen edge weight of each list.
//!
//! As the paper observes, the number of random seeks grows as `m^(d−1)`, so
//! the adaptation is only practical for small `m` and is restricted to full
//! paths (`l = m − 1`).

use std::collections::HashMap;

use bsc_util::cancel::CancelToken;

use crate::cluster_graph::{ClusterNodeId, GraphView};
use crate::error::BscResult;
use crate::path::ClusterPath;
use crate::solver::{
    check_not_expired, deadline_error, AlgorithmKind, Solution, SolverStats, StableClusterSolver,
};
use crate::topk::TopKPaths;

/// The TA-based solver for top-k *full* stable-cluster paths.
#[derive(Debug, Clone)]
pub struct TaStableClusters {
    k: usize,
    cancel: Option<CancelToken>,
}

impl TaStableClusters {
    /// Create a solver returning the top `k` full paths.
    pub fn new(k: usize) -> Self {
        TaStableClusters { k, cancel: None }
    }

    /// Attach a cooperative-cancellation token, observed at amortized
    /// checkpoints (roughly once per [`CancelToken::CHECK_INTERVAL`] edges
    /// scanned). A tripped token aborts the run with
    /// [`crate::error::BscError::DeadlineExceeded`].
    pub fn with_cancel(mut self, cancel: Option<CancelToken>) -> Self {
        self.cancel = cancel;
        self
    }

    /// Run the algorithm over a graph or a view of one (full paths span
    /// the view).
    pub fn run<'a>(&self, graph: impl Into<GraphView<'a>>) -> BscResult<Vec<ClusterPath>> {
        self.run_with_stats(graph).map(|(paths, _)| paths)
    }

    /// Run the algorithm and report execution statistics. Of
    /// [`SolverStats`] it fills `edges_traversed` (edges read from the
    /// sorted lists), `random_seeks` (adjacency-list accesses while
    /// expanding prefixes and suffixes), `paths_generated` (full paths
    /// enumerated), `prunes` (edges discarded on the `startwts` / `endwts`
    /// bound) and `early_termination` (the threshold condition stopped the
    /// scan).
    pub fn run_with_stats<'a>(
        &self,
        graph: impl Into<GraphView<'a>>,
    ) -> BscResult<(Vec<ClusterPath>, SolverStats)> {
        let graph = graph.into();
        let mut stats = SolverStats::default();
        check_not_expired(self.cancel.as_ref())?;
        let m = graph.num_intervals() as u32;
        if self.k == 0 || m < 2 {
            return Ok((Vec::new(), stats));
        }
        let (first, last) = (graph.first_interval(), graph.intervals().end - 1);

        // One sorted edge list per interval pair (i, j), j - i <= g + 1.
        struct EdgeList {
            edges: Vec<(f64, ClusterNodeId, ClusterNodeId)>,
            cursor: usize,
        }
        let mut lists: Vec<EdgeList> = Vec::new();
        // bsc:allow(missing-cancel-checkpoint) -- one-time setup linear in the edge count; the TA round loop checkpoints
        for i in graph.intervals() {
            for j in (i + 1)..=i.saturating_add(graph.max_edge_length()).min(last) {
                let mut edges: Vec<(f64, ClusterNodeId, ClusterNodeId)> = graph
                    .interval_node_ids(i)
                    .flat_map(|from| graph.children(from).map(move |e| (e.weight, from, e.to)))
                    .filter(|&(_, _, to)| to.interval == j)
                    .collect();
                edges.sort_by(|a, b| b.0.total_cmp(&a.0));
                if !edges.is_empty() {
                    lists.push(EdgeList { edges, cursor: 0 });
                }
            }
        }
        if lists.is_empty() {
            return Ok((Vec::new(), stats));
        }

        let mut global = TopKPaths::new(self.k);
        // Best known prefix weight (first interval .. node) and suffix weight
        // (node .. last interval); NEG_INFINITY = no such path exists,
        // absent = not yet computed.
        let mut endwts: HashMap<ClusterNodeId, f64> = HashMap::new();
        let mut startwts: HashMap<ClusterNodeId, f64> = HashMap::new();

        let cancel = self.cancel.as_ref();
        let mut tick = 0u32;
        loop {
            let mut progressed = false;
            for list_index in 0..lists.len() {
                if let Some(token) = cancel {
                    if token.checkpoint(&mut tick) {
                        return Err(deadline_error(token));
                    }
                }
                let (weight, from, to) = {
                    let list = &mut lists[list_index];
                    if list.cursor >= list.edges.len() {
                        continue;
                    }
                    let edge = list.edges[list.cursor];
                    list.cursor += 1;
                    edge
                };
                progressed = true;
                stats.edges_traversed += 1;

                // Upper bound from the memo tables when available.
                if let (Some(&prefix_bound), Some(&suffix_bound)) =
                    (endwts.get(&from), startwts.get(&to))
                {
                    let bound = prefix_bound + weight + suffix_bound;
                    if bound < global.admission_threshold() {
                        stats.prunes += 1;
                        continue;
                    }
                }

                // Enumerate every full path containing this edge.
                let prefixes = enumerate_prefixes(graph, from, &mut stats);
                let best_prefix = prefixes
                    .iter()
                    .map(|p| p.weight())
                    .fold(f64::NEG_INFINITY, f64::max);
                endwts.insert(from, best_prefix);
                if prefixes.is_empty() {
                    continue;
                }
                let suffixes = enumerate_suffixes(graph, to, &mut stats);
                let best_suffix = suffixes
                    .iter()
                    .map(|p| p.weight())
                    .fold(f64::NEG_INFINITY, f64::max);
                startwts.insert(to, best_suffix);
                if suffixes.is_empty() {
                    continue;
                }
                for prefix in &prefixes {
                    for suffix in &suffixes {
                        let total = prefix.weight() + weight + suffix.weight();
                        stats.paths_generated += 1;
                        // Worst-score fast path: materialize the combined
                        // node vector only when the heap could admit it.
                        if !global.would_admit(total) {
                            continue;
                        }
                        let nodes = [prefix.nodes(), suffix.nodes()].concat();
                        if global.iter().any(|p| p.nodes() == nodes.as_slice()) {
                            continue;
                        }
                        global.offer_by_weight(ClusterPath::new(nodes, total));
                    }
                }

                // Threshold test: the best possible path made of unseen edges.
                if global.is_full() {
                    let heads: Vec<(u32, u32, Option<f64>)> = lists
                        .iter()
                        .map(|list| {
                            (
                                list.edges[0].1.interval - first,
                                list.edges[0].2.interval - first,
                                list.edges.get(list.cursor).map(|e| e.0),
                            )
                        })
                        .collect();
                    let threshold = virtual_path_bound(&heads, m);
                    // Strictly greater: under the heap's tie-admission
                    // semantics an unseen path weighing exactly the k-th
                    // best score could still displace a held path via the
                    // content tie-break, so stopping at equality could
                    // return a different (equal-weight) top-k than BFS/DFS.
                    if global.admission_threshold() > threshold {
                        stats.early_termination = true;
                        return Ok((global.into_sorted(), stats));
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        Ok((global.into_sorted(), stats))
    }
}

/// All paths from a node of the view's first interval to `node` (exclusive
/// of `node` itself in the weight, inclusive in the node list).
fn enumerate_prefixes(
    graph: GraphView<'_>,
    node: ClusterNodeId,
    stats: &mut SolverStats,
) -> Vec<ClusterPath> {
    if node.interval == graph.first_interval() {
        return vec![ClusterPath::singleton(node)];
    }
    stats.random_seeks += 1;
    let mut result = Vec::new();
    // bsc:allow(missing-cancel-checkpoint) -- bounded by the path multiplicity of one node; the TA round loop checkpoints between seeks
    for edge in graph.parents(node) {
        for prefix in enumerate_prefixes(graph, edge.to, stats) {
            result.push(prefix.extend(node, edge.weight));
        }
    }
    result
}

/// All paths from `node` to a node of the view's last interval.
fn enumerate_suffixes(
    graph: GraphView<'_>,
    node: ClusterNodeId,
    stats: &mut SolverStats,
) -> Vec<ClusterPath> {
    if node.interval + 1 == graph.intervals().end {
        return vec![ClusterPath::singleton(node)];
    }
    stats.random_seeks += 1;
    let mut result = Vec::new();
    // bsc:allow(missing-cancel-checkpoint) -- bounded by the path multiplicity of one node; the TA round loop checkpoints between seeks
    for edge in graph.children(node) {
        for suffix in enumerate_suffixes(graph, edge.to, stats) {
            result.push(suffix.prepend(node, edge.weight));
        }
    }
    result
}

/// The weight of the "virtual path": an optimistic full path assembled from
/// the highest *unseen* edge weight of each list, combined over a dynamic
/// program on intervals. Any path consisting solely of unseen edges weighs at
/// most this much. `heads` gives each list's `(from interval, to interval,
/// highest unseen weight)`, intervals counted from the view's first.
fn virtual_path_bound(heads: &[(u32, u32, Option<f64>)], m: u32) -> f64 {
    // best[i] = best achievable weight of an unseen-edge path from interval i
    // to interval m-1.
    let mut best = vec![f64::NEG_INFINITY; m as usize];
    best[(m - 1) as usize] = 0.0;
    // bsc:allow(missing-cancel-checkpoint) -- O(m * lists) dynamic program per TA round; the round loop checkpoints
    for i in (0..m - 1).rev() {
        for &(from, to, head) in heads {
            let (Some(head), next) = (head, best[to as usize]) else {
                continue;
            };
            if from == i && next != f64::NEG_INFINITY {
                best[i as usize] = best[i as usize].max(head + next);
            }
        }
    }
    best[0]
}

impl StableClusterSolver for TaStableClusters {
    fn name(&self) -> &'static str {
        "ta"
    }

    fn algorithm(&self) -> AlgorithmKind {
        AlgorithmKind::Ta
    }

    fn solve_view(&mut self, view: GraphView<'_>) -> BscResult<Solution> {
        Solution::of(|| self.run_with_stats(view))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::BfsStableClusters;
    use crate::cluster_graph::{ClusterGraph, ClusterGraphBuilder};
    use crate::problem::KlStableParams;
    use crate::synthetic::{ClusterGraphGenerator, SyntheticGraphParams};

    fn node(interval: u32, index: u32) -> ClusterNodeId {
        ClusterNodeId::new(interval, index)
    }

    fn figure5_graph() -> ClusterGraph {
        let mut builder = ClusterGraphBuilder::new(1);
        for _ in 0..3 {
            builder.add_interval(3);
        }
        builder.add_edge(node(0, 0), node(1, 0), 0.5);
        builder.add_edge(node(0, 1), node(1, 1), 0.1);
        builder.add_edge(node(0, 2), node(1, 1), 0.8);
        builder.add_edge(node(0, 1), node(1, 2), 0.4);
        builder.add_edge(node(1, 0), node(2, 0), 0.7);
        builder.add_edge(node(1, 1), node(2, 0), 0.7);
        builder.add_edge(node(1, 0), node(2, 1), 0.4);
        builder.add_edge(node(1, 1), node(2, 2), 0.9);
        builder.add_edge(node(1, 2), node(2, 2), 0.4);
        builder.add_edge(node(0, 0), node(2, 1), 0.5);
        builder.build()
    }

    #[test]
    fn figure5_top2_full_paths() {
        let graph = figure5_graph();
        let result = TaStableClusters::new(2).run(&graph).unwrap();
        assert_eq!(result.len(), 2);
        assert_eq!(result[0].nodes(), &[node(0, 2), node(1, 1), node(2, 2)]);
        assert!((result[0].weight() - 1.7).abs() < 1e-12);
        assert_eq!(result[1].nodes(), &[node(0, 2), node(1, 1), node(2, 0)]);
        assert!((result[1].weight() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn matches_bfs_full_paths_on_random_graphs() {
        for seed in 0..5 {
            let graph = ClusterGraphGenerator::new(SyntheticGraphParams {
                num_intervals: 4,
                nodes_per_interval: 8,
                avg_out_degree: 3,
                gap: 0,
                seed: seed + 50,
            })
            .generate();
            for k in [1, 3, 5] {
                let bfs =
                    BfsStableClusters::new(KlStableParams::full_paths(k, graph.num_intervals()))
                        .run(&graph)
                        .unwrap();
                let ta = TaStableClusters::new(k).run(&graph).unwrap();
                assert_eq!(bfs.len(), ta.len(), "seed={seed} k={k}");
                for (a, b) in bfs.iter().zip(ta.iter()) {
                    assert!(
                        (a.weight() - b.weight()).abs() < 1e-9,
                        "seed={seed} k={k}: bfs={} ta={}",
                        a.weight(),
                        b.weight()
                    );
                }
            }
        }
    }

    #[test]
    fn matches_bfs_with_gaps() {
        // The widest gap too: `i + gap + 1` used to wrap, list no interval
        // pair and answer nothing.
        for gap in [1, u32::MAX] {
            let graph = ClusterGraphGenerator::new(SyntheticGraphParams {
                num_intervals: 4,
                nodes_per_interval: 6,
                avg_out_degree: 2,
                gap,
                seed: 77,
            })
            .generate();
            let k = 4;
            let bfs = BfsStableClusters::new(KlStableParams::full_paths(k, 4))
                .run(&graph)
                .unwrap();
            let ta = TaStableClusters::new(k).run(&graph).unwrap();
            assert_eq!(bfs.len(), k, "gap={gap}");
            assert_eq!(bfs.len(), ta.len(), "gap={gap}");
            for (a, b) in bfs.iter().zip(ta.iter()) {
                assert!((a.weight() - b.weight()).abs() < 1e-9, "gap={gap}");
            }
        }
    }

    #[test]
    fn early_termination_on_favourable_input() {
        // One dominant chain and many weak edges: the top-1 path should be
        // found long before the lists are exhausted.
        let mut builder = ClusterGraphBuilder::new(0);
        for _ in 0..3 {
            builder.add_interval(30);
        }
        for j in 0..30u32 {
            for i in 0..30u32 {
                let w = if i == 0 && j == 0 { 1.0 } else { 0.01 };
                builder.add_edge(node(0, i), node(1, j), w);
                builder.add_edge(node(1, i), node(2, j), w);
            }
        }
        let graph = builder.build();
        let (paths, stats) = TaStableClusters::new(1).run_with_stats(&graph).unwrap();
        assert_eq!(paths.len(), 1);
        assert!((paths[0].weight() - 2.0).abs() < 1e-12);
        assert!(stats.early_termination, "{stats:?}");
        assert!(stats.edges_traversed < 900 * 2, "{stats:?}");
    }

    #[test]
    fn degenerate_inputs() {
        let graph = figure5_graph();
        assert!(TaStableClusters::new(0).run(&graph).unwrap().is_empty());
        let empty = ClusterGraphBuilder::new(0).build();
        assert!(TaStableClusters::new(3).run(&empty).unwrap().is_empty());
        let mut single = ClusterGraphBuilder::new(0);
        single.add_interval(3);
        assert!(TaStableClusters::new(3)
            .run(&single.build())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn virtual_path_bound_dp() {
        // Lists (0->1) head 0.9, (1->2) head 0.5 => bound 1.4.
        let lists = vec![(0u32, 1u32, Some(0.9)), (1, 2, Some(0.5))];
        let bound = virtual_path_bound(&lists, 3);
        assert!((bound - 1.4).abs() < 1e-12);
        // Exhausted second list: no unseen full path exists.
        let lists = vec![(0u32, 1u32, Some(0.9)), (1, 2, None)];
        let bound = virtual_path_bound(&lists, 3);
        assert_eq!(bound, f64::NEG_INFINITY);
        // Gap list (0 -> 2) allows skipping interval 1.
        let lists = vec![(0u32, 2u32, Some(0.7)), (1, 2, None)];
        let bound = virtual_path_bound(&lists, 3);
        assert!((bound - 0.7).abs() < 1e-12);
    }

    #[test]
    fn stats_are_populated() {
        let graph = figure5_graph();
        let (_, stats) = TaStableClusters::new(2).run_with_stats(&graph).unwrap();
        assert!(stats.edges_traversed > 0);
        assert!(stats.paths_generated > 0);
        assert!(stats.random_seeks > 0);
    }
}
