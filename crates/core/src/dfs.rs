//! The DFS-based algorithm for kl-stable clusters (Algorithm 3).
//!
//! A depth-first traversal of the cluster graph from a virtual source.
//! Per-node state lives **on disk** — in a [`NodeStore`] over whichever
//! [`StorageSpec`] backend the configuration names — and is touched with
//! random I/O: one read when a node is pushed on the stack, one write when it
//! is popped — only the stack (at most one frame per temporal interval on any
//! root-to-leaf path, each with the order of its node's children) stays in
//! memory, which is why the paper recommends DFS for memory-constrained
//! environments even though it is much slower than BFS. The paths of a
//! node's state are plain [`ClusterPath`]s, in memory as on disk: the stored
//! form is their node list and weight.
//!
//! Per node `c` the algorithm maintains:
//!
//! * a **visited** flag — set once all descendants have been considered;
//! * `maxweight(c, x)` — the weight of the best currently-known path of
//!   length `x` ending at `c` (used only for pruning);
//! * `bestpaths(c, x)` — the top-k paths of length `x` **starting** at `c`
//!   (note the direction: the reverse of the BFS heaps), filled in when the
//!   DFS backtracks out of `c`'s children.
//!
//! The pruning rule (`CanPrune`): assuming all edge weights lie in `(0, 1]`,
//! a prefix of length `x` and weight `w` ending at `c` can be extended to a
//! length-`l` path of weight at most `w + (l − x)`; if that optimistic bound
//! is below the current k-th best weight for every feasible prefix length,
//! exploring `c`'s subtree now cannot improve the answer, so `c` is popped
//! and every node on the stack has its visited flag cleared (their subtrees
//! are no longer guaranteed to have been fully considered).

use std::ops::Range;

use bsc_storage::backend::StorageSpec;
use bsc_storage::node_store::NodeStore;
use bsc_util::cancel::CancelToken;

use crate::cluster_graph::{ClusterEdge, ClusterGraph, ClusterNodeId, GraphView};
use crate::error::BscResult;
use crate::path::ClusterPath;
use crate::problem::{can_still_reach, shortest_feasible, KlStableParams};
use crate::solver::{
    check_not_expired, deadline_error, AlgorithmKind, Solution, SolverStats, StableClusterSolver,
};
use crate::topk::{tie_cmp, TopKPaths};

/// Configuration of the DFS algorithm.
#[derive(Debug, Clone, Copy)]
pub struct DfsConfig {
    /// Apply the `CanPrune` optimistic-bound pruning rule.
    pub enable_pruning: bool,
    /// The backend of the [`NodeStore`] per-node state lives in (the
    /// paper's setting, and the default, is the log file).
    pub storage: StorageSpec,
}

impl Default for DfsConfig {
    fn default() -> Self {
        DfsConfig {
            enable_pruning: true,
            storage: StorageSpec::LogFile,
        }
    }
}

impl DfsConfig {
    /// Node state in the [`StorageSpec::Memory`] backend (for tests and
    /// small graphs).
    pub fn in_memory() -> Self {
        DfsConfig::default().with_storage(StorageSpec::Memory)
    }

    /// Keep per-node state in the backend described by `spec`.
    pub fn with_storage(mut self, spec: StorageSpec) -> Self {
        self.storage = spec;
        self
    }

    /// Disable pruning (exhaustive DFS).
    pub fn without_pruning(mut self) -> Self {
        self.enable_pruning = false;
        self
    }
}

/// Per-node state, in memory while the node sits on the stack.
#[derive(Debug)]
struct NodeState {
    visited: bool,
    /// `maxweight[x − 1]` for path length `x ∈ [1, l]`; `NEG_INFINITY` when
    /// no prefix of that length has been seen yet.
    maxweight: Vec<f64>,
    /// `bestpaths[x − 1]`: top-k paths of length `x` *starting* at this
    /// node, best first.
    bestpaths: Vec<Vec<ClusterPath>>,
}

impl NodeState {
    fn empty(l: u32) -> Self {
        NodeState {
            visited: false,
            maxweight: vec![f64::NEG_INFINITY; l as usize],
            bestpaths: vec![Vec::new(); l as usize],
        }
    }
}

/// On-disk representation of [`NodeState`].
type StoredNodeState = (bool, Vec<f64>, Vec<Vec<(f64, Vec<u64>)>>);

fn to_stored(state: &NodeState) -> StoredNodeState {
    (
        state.visited,
        state.maxweight.clone(),
        state
            .bestpaths
            .iter()
            .map(|paths| {
                paths
                    .iter()
                    .map(|path| {
                        (
                            path.weight(),
                            path.nodes().iter().map(|n| n.to_u64()).collect(),
                        )
                    })
                    .collect()
            })
            .collect(),
    )
}

fn from_stored(stored: StoredNodeState) -> NodeState {
    NodeState {
        visited: stored.0,
        maxweight: stored.1,
        bestpaths: stored
            .2
            .into_iter()
            .map(|paths| {
                paths
                    .into_iter()
                    .map(|(w, nodes)| {
                        let nodes = nodes.into_iter().map(ClusterNodeId::from_u64).collect();
                        ClusterPath::new(nodes, w)
                    })
                    .collect()
            })
            .collect(),
    }
}

/// A stack frame: a node (or the virtual source) with its in-memory state and
/// how far it has read its children, whose order is the stack's row for the
/// frame's depth (see [`order_children`]).
struct Frame<'r> {
    /// `None` for the virtual source.
    node: Option<ClusterNodeId>,
    /// The weight of the edge the frame was pushed through: the graph may
    /// join two nodes by parallel edges, and only this one is the tree's.
    weight: f64,
    /// The node's children as stored, in arrival order.
    row: &'r [ClusterEdge],
    /// The children considered so far.
    next: usize,
    state: NodeState,
}

/// Fill `orders[depth]` with the positions in `row` of the children inside
/// `within`, by descending weight and, among equal weights, in row order —
/// the paper's "children connected with edges of high weight are considered
/// first". With the position as the last key the in-place unstable sort
/// gives exactly a stable sort's order and needs no scratch, and the row of
/// each depth is reused, so a push in steady state allocates nothing.
fn order_children(
    orders: &mut Vec<Vec<usize>>,
    depth: usize,
    row: &[ClusterEdge],
    within: Range<u32>,
) {
    if orders.len() <= depth {
        orders.resize_with(depth + 1, Vec::new);
    }
    let order = &mut orders[depth];
    order.clear();
    let inside = |&(_, edge): &(usize, &ClusterEdge)| within.contains(&edge.to.interval);
    order.extend(row.iter().enumerate().filter(inside).map(|(at, _)| at));
    order.sort_unstable_by(|&a, &b| {
        let heavier = row[b].weight.total_cmp(&row[a].weight);
        heavier.then(a.cmp(&b))
    });
}

/// The DFS-based kl-stable-clusters solver.
#[derive(Debug, Clone)]
pub struct DfsStableClusters {
    params: KlStableParams,
    config: DfsConfig,
    cancel: Option<CancelToken>,
}

impl DfsStableClusters {
    /// Create a solver with the default (on-disk, pruning enabled)
    /// configuration.
    pub fn new(params: KlStableParams) -> Self {
        DfsStableClusters {
            params,
            config: DfsConfig::default(),
            cancel: None,
        }
    }

    /// Create a solver with an explicit configuration.
    pub fn with_config(params: KlStableParams, config: DfsConfig) -> Self {
        DfsStableClusters {
            params,
            config,
            cancel: None,
        }
    }

    /// Attach a cooperative-cancellation token, observed once per traversal
    /// step at amortized checkpoints. A tripped token aborts the run with
    /// [`crate::error::BscError::DeadlineExceeded`].
    pub fn with_cancel(mut self, cancel: Option<CancelToken>) -> Self {
        self.cancel = cancel;
        self
    }

    /// Convenience: top-k full paths of a graph.
    pub fn full_paths(k: usize, graph: &ClusterGraph) -> BscResult<Vec<ClusterPath>> {
        DfsStableClusters::new(KlStableParams::full_paths(k, graph.num_intervals())).run(graph)
    }

    /// The configured parameters.
    pub fn params(&self) -> KlStableParams {
        self.params
    }

    /// Run the traversal over a graph or a view of one and return the top-k
    /// paths of length exactly `l`, in descending weight order.
    pub fn run<'a>(&self, graph: impl Into<GraphView<'a>>) -> BscResult<Vec<ClusterPath>> {
        self.run_with_stats(graph).map(|(paths, _)| paths)
    }

    /// Run the traversal, also reporting execution statistics. Of
    /// [`SolverStats`] it fills `paths_generated` (candidates merged into
    /// `bestpaths`), `edges_traversed` (children considered), `node_reads` /
    /// `node_writes` (node states fetched from / persisted to the store),
    /// `prunes` (times `CanPrune` fired) and `peak_stack_depth`.
    pub fn run_with_stats<'a>(
        &self,
        graph: impl Into<GraphView<'a>>,
    ) -> BscResult<(Vec<ClusterPath>, SolverStats)> {
        let graph = graph.into();
        let k = self.params.k;
        let l = self.params.l;
        let mut stats = SolverStats::default();
        check_not_expired(self.cancel.as_ref())?;
        if k == 0 || l == 0 || graph.num_intervals() < 2 {
            return Ok((Vec::new(), stats));
        }
        let m = graph.num_intervals() as u32;
        if l > m - 1 {
            return Ok((Vec::new(), stats));
        }

        let mut store: NodeStore<u64, StoredNodeState> =
            NodeStore::temp(self.config.storage, "bsc-dfs")?;

        let mut global = TopKPaths::new(k);

        // Children of the virtual source: every node at which a path of
        // length l can start (`l` intervals before the view's end at the
        // latest), ordered by interval.
        let (first, end) = (graph.first_interval(), graph.intervals().end);
        let source_children: Vec<ClusterEdge> = (first..end - l)
            .flat_map(|interval| graph.interval_node_ids(interval))
            .map(|to| ClusterEdge { to, weight: 0.0 })
            .collect();

        let mut orders = Vec::new();
        order_children(&mut orders, 0, &source_children, graph.intervals());
        let mut stack = vec![Frame {
            node: None,
            weight: 0.0,
            row: &source_children,
            next: 0,
            state: NodeState::empty(l),
        }];

        let cancel = self.cancel.as_ref();
        let mut tick = 0u32;
        while let Some(top_index) = stack.len().checked_sub(1) {
            if let Some(token) = cancel {
                if token.checkpoint(&mut tick) {
                    return Err(deadline_error(token));
                }
            }
            stats.peak_stack_depth = stats.peak_stack_depth.max(stack.len());
            let frame = &mut stack[top_index];
            let child_edge = orders[top_index].get(frame.next).map(|&at| frame.row[at]);
            let parent_node = frame.node;
            frame.next += 1;

            match child_edge {
                Some(edge) => {
                    stats.edges_traversed += 1;
                    let child = edge.to;
                    let mut child_state = match store.get(&child.to_u64())? {
                        Some(stored) => {
                            stats.node_reads += 1;
                            from_stored(stored)
                        }
                        None => NodeState::empty(l),
                    };

                    if child_state.visited {
                        // All descendants of the child were already
                        // considered: reuse its bestpaths immediately.
                        if let (Some(parent), Some(parent_frame)) = (parent_node, stack.last_mut())
                        {
                            update_parent_bestpaths(
                                &mut parent_frame.state,
                                parent,
                                child,
                                edge.weight,
                                &child_state,
                                l,
                                k,
                                &mut global,
                                &mut stats,
                            );
                        }
                        continue;
                    }

                    // Mark visited and push.
                    child_state.visited = true;
                    if let Some(parent) = parent_node {
                        update_maxweight(
                            &mut child_state,
                            &stack[top_index].state,
                            parent,
                            child,
                            edge.weight,
                            l,
                            end,
                        );
                    }

                    let depth = child.interval - first;
                    if self.config.enable_pruning
                        && can_prune(&child_state, depth, l, m, global.admission_threshold())
                    {
                        stats.prunes += 1;
                        // Postpone the child: clear visited flags of every
                        // node on the stack (their subtrees are no longer
                        // guaranteed complete) and of the child itself.
                        child_state.visited = false;
                        for frame in stack.iter_mut() {
                            frame.state.visited = false;
                        }
                        store.put(&child.to_u64(), &to_stored(&child_state))?;
                        stats.node_writes += 1;
                        continue;
                    }

                    let row = graph.graph().children(child);
                    order_children(&mut orders, stack.len(), row, graph.intervals());
                    stack.push(Frame {
                        node: Some(child),
                        weight: edge.weight,
                        row,
                        next: 0,
                        state: child_state,
                    });
                }
                None => {
                    // Node finished: pop, persist, back-track into the parent.
                    let Some(finished) = stack.pop() else { break };
                    if let Some(node) = finished.node {
                        store.put(&node.to_u64(), &to_stored(&finished.state))?;
                        stats.node_writes += 1;
                        if let Some(parent_frame) = stack.last_mut() {
                            if let Some(parent) = parent_frame.node {
                                update_parent_bestpaths(
                                    &mut parent_frame.state,
                                    parent,
                                    node,
                                    finished.weight,
                                    &finished.state,
                                    l,
                                    k,
                                    &mut global,
                                    &mut stats,
                                );
                            }
                        }
                    }
                }
            }
        }

        Ok((global.into_sorted(), stats))
    }
}

/// Update `maxweight` of `child` given the prefix information of `parent`.
fn update_maxweight(
    child_state: &mut NodeState,
    parent_state: &NodeState,
    parent: ClusterNodeId,
    child: ClusterNodeId,
    edge_weight: f64,
    l: u32,
    end: u32,
) {
    let len = ClusterGraph::edge_length(parent, child);
    if len > l {
        return;
    }
    // Prefix of length 0 ending at the parent exists iff a path may start at
    // the parent (enough room before `end`, one past the view's last
    // interval, for a full suffix of length l).
    let parent_start_feasible = parent.interval + l < end;
    // bsc:allow(missing-cancel-checkpoint) -- bounded by l <= interval count; the DFS driver checkpoints per edge
    for x in len..=l {
        let prefix_len = x - len;
        let prefix_weight = if prefix_len == 0 {
            if parent_start_feasible {
                0.0
            } else {
                f64::NEG_INFINITY
            }
        } else {
            parent_state.maxweight[prefix_len as usize - 1]
        };
        if prefix_weight == f64::NEG_INFINITY {
            continue;
        }
        let candidate = prefix_weight + edge_weight;
        let slot = &mut child_state.maxweight[x as usize - 1];
        if candidate > *slot {
            *slot = candidate;
        }
    }
}

/// The `CanPrune` test: true when postponing the node cannot lose a top-k
/// path. A prefix of length `x` ending at the node participates in a
/// length-`l` path in one of three roles — as a complete path (`x = l`), as
/// a middle prefix extended by the node's subtree (`0 < x < l`), or as the
/// empty prefix of a path *starting* at the node (`x = 0`) — and in every
/// role the path's weight is bounded by `maxweight(x) + (l − x)` because each
/// remaining unit of length contributes at most weight one. If every feasible
/// role is provably below the current k-th best weight, the node can be
/// postponed; it stays unvisited, so a later arrival with a better prefix
/// re-explores it. `i` is the node's interval counted from the view's first,
/// `m` the view's interval count.
fn can_prune(state: &NodeState, i: u32, l: u32, m: u32, min_k: f64) -> bool {
    // A suffix of length l − x must still fit after interval i.
    let x_floor = shortest_feasible(l, i, m - 1);
    // bsc:allow(missing-cancel-checkpoint) -- bounded by l <= interval count; the DFS driver checkpoints per edge
    for x in x_floor..=l.min(i) {
        let prefix_weight = if x == 0 {
            // The empty prefix: a path may start at this node.
            0.0
        } else {
            state.maxweight[x as usize - 1]
        };
        if prefix_weight == f64::NEG_INFINITY {
            // No prefix of this length known yet; if one shows up later the
            // node (still unvisited) will be re-explored then.
            continue;
        }
        if can_still_reach(l, prefix_weight, f64::from(l - x), min_k) {
            return false;
        }
    }
    true
}

/// Merge the bare edge `parent -> child` and every path in the child's
/// `bestpaths` into the parent's `bestpaths`, offering new length-`l` paths
/// to the global heap.
#[allow(clippy::too_many_arguments)]
fn update_parent_bestpaths(
    parent_state: &mut NodeState,
    parent: ClusterNodeId,
    child: ClusterNodeId,
    edge_weight: f64,
    child_state: &NodeState,
    l: u32,
    k: usize,
    global: &mut TopKPaths,
    stats: &mut SolverStats,
) {
    let len = ClusterGraph::edge_length(parent, child);
    if len > l {
        return;
    }
    let mut candidates: Vec<(u32, ClusterPath)> = vec![(
        len,
        ClusterPath::singleton(child).prepend(parent, edge_weight),
    )];
    // bsc:allow(missing-cancel-checkpoint) -- bounded by l buckets of at most k paths each; the DFS driver checkpoints per edge
    for (x_index, paths) in child_state.bestpaths.iter().enumerate() {
        let x = x_index as u32 + 1;
        let total = x + len;
        if total > l {
            break;
        }
        for path in paths {
            candidates.push((total, path.prepend(parent, edge_weight)));
        }
    }
    stats.paths_generated += candidates.len() as u64;
    // bsc:allow(missing-cancel-checkpoint) -- at most l*k + 1 candidates; the DFS driver checkpoints per edge
    for (length, candidate) in candidates {
        let bucket = &mut parent_state.bestpaths[length as usize - 1];
        if bucket.iter().any(|held| held.nodes() == candidate.nodes()) {
            continue;
        }
        bucket.push(candidate.clone());
        // Weight descending, exact ties broken by content — the same strict
        // order the `TopKPaths` heaps use, so equal-weight survivors never
        // depend on discovery order and DFS agrees with BFS on tied inputs.
        bucket.sort_by(|a, b| {
            b.weight()
                .total_cmp(&a.weight())
                .then_with(|| tie_cmp(a, b))
        });
        let inserted = bucket
            .iter()
            .take(k)
            .any(|held| held.nodes() == candidate.nodes());
        bucket.truncate(k);
        if !inserted {
            continue;
        }
        if length == l && !global.iter().any(|p| p.nodes() == candidate.nodes()) {
            global.offer_by_weight(candidate);
        }
    }
}

impl StableClusterSolver for DfsStableClusters {
    fn name(&self) -> &'static str {
        "dfs"
    }

    fn algorithm(&self) -> AlgorithmKind {
        AlgorithmKind::Dfs
    }

    fn solve_view(&mut self, view: GraphView<'_>) -> BscResult<Solution> {
        Solution::of(|| self.run_with_stats(view))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::BfsStableClusters;
    use crate::cluster_graph::ClusterGraphBuilder;
    use crate::synthetic::{ClusterGraphGenerator, SyntheticGraphParams};

    fn node(interval: u32, index: u32) -> ClusterNodeId {
        ClusterNodeId::new(interval, index)
    }

    /// The Figure 5 / Table 2 worked example (same weights as the BFS tests).
    fn figure5_graph() -> ClusterGraph {
        let mut builder = ClusterGraphBuilder::new(1);
        for _ in 0..3 {
            builder.add_interval(3);
        }
        builder.add_edge(node(0, 0), node(1, 0), 0.5); // c11 -> c21
        builder.add_edge(node(0, 1), node(1, 1), 0.1); // c12 -> c22
        builder.add_edge(node(0, 2), node(1, 1), 0.8); // c13 -> c22
        builder.add_edge(node(0, 1), node(1, 2), 0.4); // c12 -> c23
        builder.add_edge(node(1, 0), node(2, 0), 0.7); // c21 -> c31
        builder.add_edge(node(1, 1), node(2, 0), 0.7); // c22 -> c31
        builder.add_edge(node(1, 0), node(2, 1), 0.4); // c21 -> c32
        builder.add_edge(node(1, 1), node(2, 2), 0.9); // c22 -> c33
        builder.add_edge(node(1, 2), node(2, 2), 0.4); // c23 -> c33
        builder.add_edge(node(0, 0), node(2, 1), 0.5); // c11 -> c32 (gap)
        builder.build()
    }

    #[test]
    fn table2_example_top1_full_path() {
        // The paper's Table 2 walks this example with k = 1, l = 2 and ends
        // with H = {c13 c22 c33}.
        let graph = figure5_graph();
        let result = DfsStableClusters::new(KlStableParams::new(1, 2))
            .run(&graph)
            .unwrap();
        assert_eq!(result.len(), 1);
        assert_eq!(result[0].nodes(), &[node(0, 2), node(1, 1), node(2, 2)]);
        assert!((result[0].weight() - 1.7).abs() < 1e-12);
    }

    #[test]
    fn pruning_fires_on_the_worked_example() {
        let graph = figure5_graph();
        let (_, stats) = DfsStableClusters::new(KlStableParams::new(1, 2))
            .run_with_stats(&graph)
            .unwrap();
        // Table 2 shows c22 being pruned when first reached through c12.
        assert!(
            stats.prunes >= 1,
            "expected at least one prune, got {stats:?}"
        );
    }

    #[test]
    fn matches_bfs_on_figure5_for_all_lengths() {
        let graph = figure5_graph();
        for l in [1, 2] {
            for k in [1, 2, 5] {
                let params = KlStableParams::new(k, l);
                let bfs = BfsStableClusters::new(params).run(&graph).unwrap();
                let dfs = DfsStableClusters::with_config(params, DfsConfig::in_memory())
                    .run(&graph)
                    .unwrap();
                assert_eq!(bfs.len(), dfs.len(), "k={k} l={l}");
                for (a, b) in bfs.iter().zip(dfs.iter()) {
                    assert!(
                        (a.weight() - b.weight()).abs() < 1e-9,
                        "k={k} l={l}: {} vs {}",
                        a.weight(),
                        b.weight()
                    );
                }
            }
        }
    }

    #[test]
    fn every_storage_backend_matches_the_memory_backend() {
        let graph = ClusterGraphGenerator::new(SyntheticGraphParams {
            num_intervals: 4,
            nodes_per_interval: 10,
            avg_out_degree: 3,
            gap: 1,
            seed: 23,
        })
        .generate();
        let params = KlStableParams::new(3, 3);
        let in_memory = DfsStableClusters::with_config(params, DfsConfig::in_memory())
            .run(&graph)
            .unwrap();
        for spec in StorageSpec::ALL {
            let stored =
                DfsStableClusters::with_config(params, DfsConfig::default().with_storage(spec))
                    .run(&graph)
                    .unwrap();
            assert_eq!(stored.len(), in_memory.len(), "{spec}");
            for (a, b) in stored.iter().zip(in_memory.iter()) {
                assert_eq!(a.nodes(), b.nodes(), "{spec}");
                assert_eq!(a.weight().to_bits(), b.weight().to_bits(), "{spec}");
            }
        }
    }

    #[test]
    fn pruning_does_not_change_results_on_random_graphs() {
        for seed in 0..5 {
            let graph = ClusterGraphGenerator::new(SyntheticGraphParams {
                num_intervals: 5,
                nodes_per_interval: 8,
                avg_out_degree: 2,
                gap: 1,
                seed,
            })
            .generate();
            for l in [2, 3, 4] {
                let params = KlStableParams::new(3, l);
                let pruned = DfsStableClusters::with_config(params, DfsConfig::in_memory())
                    .run(&graph)
                    .unwrap();
                let exhaustive = DfsStableClusters::with_config(
                    params,
                    DfsConfig::in_memory().without_pruning(),
                )
                .run(&graph)
                .unwrap();
                assert_eq!(pruned.len(), exhaustive.len(), "seed={seed} l={l}");
                for (a, b) in pruned.iter().zip(exhaustive.iter()) {
                    assert!((a.weight() - b.weight()).abs() < 1e-9, "seed={seed} l={l}");
                }
            }
        }
    }

    #[test]
    fn matches_bfs_on_random_graphs() {
        for seed in 0..4 {
            let graph = ClusterGraphGenerator::new(SyntheticGraphParams {
                num_intervals: 5,
                nodes_per_interval: 10,
                avg_out_degree: 3,
                gap: 0,
                seed: seed + 100,
            })
            .generate();
            for l in [1, 2, 4] {
                let params = KlStableParams::new(4, l);
                let bfs = BfsStableClusters::new(params).run(&graph).unwrap();
                let dfs = DfsStableClusters::with_config(params, DfsConfig::in_memory())
                    .run(&graph)
                    .unwrap();
                assert_eq!(bfs.len(), dfs.len(), "seed={seed} l={l}");
                for (a, b) in bfs.iter().zip(dfs.iter()) {
                    assert!(
                        (a.weight() - b.weight()).abs() < 1e-9,
                        "seed={seed} l={l}: bfs={} dfs={}",
                        a.weight(),
                        b.weight()
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_inputs() {
        let graph = figure5_graph();
        assert!(DfsStableClusters::new(KlStableParams::new(0, 2))
            .run(&graph)
            .unwrap()
            .is_empty());
        assert!(DfsStableClusters::new(KlStableParams::new(3, 0))
            .run(&graph)
            .unwrap()
            .is_empty());
        // l longer than the graph span.
        assert!(DfsStableClusters::new(KlStableParams::new(3, 10))
            .run(&graph)
            .unwrap()
            .is_empty());
        let empty = ClusterGraphBuilder::new(0).build();
        assert!(DfsStableClusters::new(KlStableParams::new(3, 1))
            .run(&empty)
            .unwrap()
            .is_empty());
    }

    /// `c0,0` and `c1,0` are joined by two parallel edges, the lighter
    /// arriving first. DFS reaches `c1,0` through the heavier one (children
    /// by descending weight), and the paths it builds through `c1,0` must
    /// weigh that edge, not the first the row lists.
    #[test]
    fn a_parallel_edge_weighs_what_dfs_traversed() {
        let mut builder = ClusterGraphBuilder::new(0);
        for _ in 0..3 {
            builder.add_interval(2);
        }
        builder.add_edge(node(0, 0), node(1, 0), 0.3);
        builder.add_edge(node(0, 0), node(1, 0), 0.9);
        builder.add_edge(node(1, 0), node(2, 0), 0.8);
        builder.add_edge(node(0, 0), node(1, 1), 0.6);
        builder.add_edge(node(1, 1), node(2, 1), 0.7);
        builder.add_edge(node(0, 1), node(1, 1), 0.4);
        builder.add_edge(node(1, 0), node(2, 1), 0.2);
        let graph = builder.build();
        let (k, l) = (2, 2);
        let mut exhaustive = TopKPaths::new(k);
        for path in crate::lookahead::every_path(graph.view()) {
            if path.length() == l {
                exhaustive.offer_by_weight(path);
            }
        }
        let expected = exhaustive.into_sorted();
        assert_eq!(expected[0].nodes(), &[node(0, 0), node(1, 0), node(2, 0)]);
        assert_eq!(expected[0].weight().to_bits(), (0.9f64 + 0.8).to_bits());
        let (found, stats) =
            DfsStableClusters::with_config(KlStableParams::new(k, l), DfsConfig::in_memory())
                .run_with_stats(&graph)
                .unwrap();
        let key = |paths: &[ClusterPath]| -> Vec<(Vec<ClusterNodeId>, u64)> {
            let key = |path: &ClusterPath| (path.nodes().to_vec(), path.weight().to_bits());
            paths.iter().map(key).collect()
        };
        assert_eq!(key(&found), key(&expected));
        // Pinned from the same solve over child rows stored by descending
        // weight: DFS reads the rows it orders itself in that order.
        let pinned = SolverStats {
            paths_generated: 13,
            edges_traversed: 9,
            node_reads: 3,
            node_writes: 6,
            peak_stack_depth: 4,
            ..SolverStats::default()
        };
        assert_eq!(stats, pinned);
    }

    #[test]
    fn stack_depth_is_bounded_by_interval_count() {
        let graph = ClusterGraphGenerator::new(SyntheticGraphParams {
            num_intervals: 6,
            nodes_per_interval: 12,
            avg_out_degree: 3,
            gap: 0,
            seed: 3,
        })
        .generate();
        let (_, stats) =
            DfsStableClusters::with_config(KlStableParams::new(2, 5), DfsConfig::in_memory())
                .run_with_stats(&graph)
                .unwrap();
        // Stack = source + at most one node per interval.
        assert!(stats.peak_stack_depth <= graph.num_intervals() + 1);
        assert!(stats.node_reads > 0);
        assert!(stats.node_writes > 0);
    }
}
