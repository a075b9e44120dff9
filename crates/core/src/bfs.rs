//! The BFS-based algorithm for kl-stable clusters (Algorithm 2).
//!
//! The cluster graph is processed interval by interval. Every node `c_ij`
//! is annotated with up to `l` bounded heaps `h^x_ij` (1 ≤ x ≤ l), each
//! holding the top-k highest-weight subpaths of length exactly `x` that end
//! at `c_ij`. Because a node of interval `i` can only have parents in
//! intervals `[i − g − 1, i − 1]`, the heaps of the last `g + 1` intervals
//! suffice to compute the heaps of the current interval, and a single pass
//! over the intervals computes the global top-k heap `H` of paths of length
//! exactly `l`.
//!
//! That pass is written once, as the crate-private `IntervalSweep`: its
//! state is the heaps of the intervals already swept, the global heap and
//! the counters, and its one step, `advance`, computes the next interval's
//! heaps from [`ClusterGraph::parents`]. Everything that runs Algorithm 2
//! is a driver of that step:
//!
//! * batch BFS ([`BfsStableClusters`]) advances over `0..m`;
//! * the online solver of Section 4.6
//!   ([`OnlineStableClusters`](crate::streaming::OnlineStableClusters))
//!   appends an interval to its graph and advances over it;
//! * the secondary-storage variant ([`BfsConfig::on_disk`]) is the same
//!   step behind the `HeapWindow` seam, which answers "where do a parent's
//!   heaps live, and what does a prefix held there look like". In memory
//!   that is a ring of `g + 2` interval slots indexed by
//!   `interval % (g + 2)` and node index — no hashing on parent lookups —
//!   holding zero-copy [`SharedPath`] chains, so extending a prefix by one
//!   edge is one `Arc` allocation, never a `Vec` clone. Store-backed it is
//!   a [`bsc_storage::NodeStore`] over the [`StorageSpec`] backend picked
//!   by [`BfsConfig::store_backed`], holding `(weight, node ids)` records
//!   that are materialized only once a candidate is admitted — the
//!   pseudocode's "save `c_ij` along with `h^x_ij` to disk", read back with
//!   random I/O.
//!
//! The sweep is sequential. A solve uses more than one core through shard
//! ranges (`docs/sharding.md`, "How a solve uses cores"), never inside one
//! sweep: the top-k under the strict `(score, content)` order does not
//! depend on who offered a path or in which order, so every driver and
//! every placement produces the identical `Solution`.

use std::borrow::Cow;

use bsc_storage::backend::StorageSpec;
use bsc_storage::io_stats::IoScope;
use bsc_storage::node_store::NodeStore;
use bsc_util::cancel::CancelToken;

use crate::cluster_graph::{ClusterGraph, ClusterNodeId};
use crate::error::BscResult;
use crate::path::ClusterPath;
use crate::path_tree::SharedPath;
use crate::problem::KlStableParams;
use crate::solver::{
    check_not_expired, deadline_error, AlgorithmKind, Solution, SolverStats, StableClusterSolver,
};
use crate::topk::SharedTopK;

/// Configuration of the BFS algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct BfsConfig {
    /// `Some(spec)` persists every node's heaps to a [`NodeStore`] over the
    /// selected backend instead of keeping the sliding window in memory;
    /// `None` (the default) is the paper's in-memory configuration.
    pub storage: Option<StorageSpec>,
}

impl BfsConfig {
    /// The secondary-storage variant over the paper's log-file backend.
    pub fn on_disk() -> Self {
        BfsConfig::store_backed(StorageSpec::LogFile)
    }

    /// The secondary-storage variant over an explicit backend.
    pub fn store_backed(spec: StorageSpec) -> Self {
        BfsConfig {
            storage: Some(spec),
        }
    }
}

/// Statistics of one BFS run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BfsStats {
    /// Number of candidate paths generated (heap offers considered). The
    /// count is taken *before* the worst-score admission fast path, so it
    /// depends only on the graph and the query — not on where the heaps
    /// live.
    pub paths_generated: u64,
    /// Peak number of paths held across all node heaps simultaneously
    /// (a proxy for the algorithm's memory footprint; 0 store-backed, where
    /// no heap outlives its node's step in memory).
    pub peak_resident_paths: usize,
    /// Number of nodes processed.
    pub nodes_processed: u64,
}

/// Where the heaps of already-swept intervals live and what a prefix held
/// there looks like — the one seam between the in-memory and the
/// store-backed sweep (what `StateStore` is to `dfs.rs`), monomorphised
/// into [`IntervalSweep::advance`].
pub(crate) trait HeapWindow {
    /// One heap `h^x` of an already-swept node.
    type Heap: Clone;
    /// One subpath held in such a heap.
    type Prefix: 'static;

    /// Make room for `interval`, about to be swept with `num_nodes` nodes.
    fn open(&mut self, interval: u32, num_nodes: usize);
    /// Take over a swept node's heaps (the pseudocode's "save `c_ij` along
    /// with `h^x_ij`").
    fn keep(&mut self, node: ClusterNodeId, heaps: Vec<SharedTopK>) -> BscResult<()>;
    /// The heaps of `parent`, indexed by length − 1; `None` when nothing is
    /// held for it.
    fn parent_heaps(&mut self, parent: ClusterNodeId) -> BscResult<Option<Cow<'_, [Self::Heap]>>>;
    /// The subpaths held in `heap`, in arbitrary order.
    fn prefixes(heap: &Self::Heap) -> impl Iterator<Item = &Self::Prefix>;
    /// A held subpath's weight — all the admission check needs.
    fn weight(prefix: &Self::Prefix) -> f64;
    /// `prefix` extended by the edge to `node`; called only for candidates
    /// some heap admits.
    fn extend(prefix: &Self::Prefix, node: ClusterNodeId, weight: f64) -> SharedPath;
    /// Paths currently held in memory.
    fn resident_paths(&self) -> usize;
}

/// The in-memory window: a ring of `g + 2` interval slots, each the
/// interval it holds (`u32::MAX` when empty) and that interval's per-node
/// heaps. A parent of interval `i` lies in `[i − g − 1, i − 1]`, which never
/// collides with the slot `i` itself overwrites (that of `i − g − 2`).
pub(crate) struct Ring {
    slots: Vec<(u32, Vec<Vec<SharedTopK>>)>,
    resident: usize,
}

impl Ring {
    pub(crate) fn new(gap: u32) -> Self {
        Ring {
            slots: (0..gap as usize + 2)
                .map(|_| (u32::MAX, Vec::new()))
                .collect(),
            resident: 0,
        }
    }

    fn slot(&mut self, interval: u32) -> &mut (u32, Vec<Vec<SharedTopK>>) {
        let slots = self.slots.len();
        &mut self.slots[interval as usize % slots]
    }
}

fn held_paths(heaps: &[SharedTopK]) -> usize {
    heaps.iter().map(SharedTopK::len).sum()
}

impl HeapWindow for Ring {
    type Heap = SharedTopK;
    type Prefix = SharedPath;

    fn open(&mut self, interval: u32, num_nodes: usize) {
        let evicted = std::mem::replace(
            self.slot(interval),
            (interval, Vec::with_capacity(num_nodes)),
        );
        self.resident -= evicted.1.iter().map(|h| held_paths(h)).sum::<usize>();
    }

    fn keep(&mut self, node: ClusterNodeId, heaps: Vec<SharedTopK>) -> BscResult<()> {
        self.resident += held_paths(&heaps);
        self.slot(node.interval).1.push(heaps);
        Ok(())
    }

    fn parent_heaps(&mut self, parent: ClusterNodeId) -> BscResult<Option<Cow<'_, [SharedTopK]>>> {
        let (held_interval, heaps) = &self.slots[parent.interval as usize % self.slots.len()];
        if *held_interval != parent.interval {
            return Ok(None);
        }
        let heaps = heaps.get(parent.index as usize);
        Ok(heaps.map(|heaps| Cow::Borrowed(heaps.as_slice())))
    }

    fn prefixes(heap: &SharedTopK) -> impl Iterator<Item = &SharedPath> {
        heap.iter()
    }

    fn weight(prefix: &SharedPath) -> f64 {
        prefix.weight()
    }

    fn extend(prefix: &SharedPath, node: ClusterNodeId, weight: f64) -> SharedPath {
        prefix.extend(node, weight)
    }

    fn resident_paths(&self) -> usize {
        self.resident
    }
}

/// Serialized form of one held subpath: `(weight, node ids)`.
type StoredPrefix = (f64, Vec<u64>);

/// The secondary-storage window: every node's heaps in a [`NodeStore`],
/// for each length `x` (1-based) the subpaths as [`StoredPrefix`] records.
struct Stored(NodeStore<u64, Vec<Vec<StoredPrefix>>>);

impl HeapWindow for Stored {
    type Heap = Vec<StoredPrefix>;
    type Prefix = StoredPrefix;

    fn open(&mut self, _interval: u32, _num_nodes: usize) {}

    fn keep(&mut self, node: ClusterNodeId, heaps: Vec<SharedTopK>) -> BscResult<()> {
        let stored: Vec<Vec<StoredPrefix>> = heaps
            .iter()
            .map(|heap| {
                heap.iter()
                    .map(|p| (p.weight(), p.nodes().iter().map(|n| n.to_u64()).collect()))
                    .collect()
            })
            .collect();
        Ok(self.0.put(&node.to_u64(), &stored)?)
    }

    fn parent_heaps(
        &mut self,
        parent: ClusterNodeId,
    ) -> BscResult<Option<Cow<'_, [Vec<StoredPrefix>]>>> {
        Ok(self.0.get(&parent.to_u64())?.map(Cow::Owned))
    }

    fn prefixes(heap: &Vec<StoredPrefix>) -> impl Iterator<Item = &StoredPrefix> {
        heap.iter()
    }

    fn weight(prefix: &StoredPrefix) -> f64 {
        prefix.0
    }

    fn extend(prefix: &StoredPrefix, node: ClusterNodeId, weight: f64) -> SharedPath {
        let nodes: Vec<ClusterNodeId> = prefix
            .1
            .iter()
            .map(|&id| ClusterNodeId::from_u64(id))
            .collect();
        SharedPath::from_stored_nodes(&nodes, prefix.0).extend(node, weight)
    }

    fn resident_paths(&self) -> usize {
        0
    }
}

/// Algorithm 2 as a resumable pass: the heaps of the intervals swept so far
/// (in `W`), the global top-k of length-`l` paths, and the counters.
/// [`IntervalSweep::advance`] is the only place the algorithm's inner loop
/// exists; see the module docs for its drivers.
pub(crate) struct IntervalSweep<W = Ring> {
    k: usize,
    l: u32,
    /// Keep only subpaths that start at interval 0 — all a full-path query
    /// (`l = m − 1`) can use. Needs `m` up front, so only batch solves set
    /// it; it changes the work done, never the answer.
    anchored: bool,
    window: W,
    global: SharedTopK,
    stats: BfsStats,
    /// Amortization counter of the cancellation checkpoints.
    tick: u32,
}

impl<W: HeapWindow> IntervalSweep<W> {
    pub(crate) fn new(params: KlStableParams, anchored: bool, window: W) -> Self {
        IntervalSweep {
            k: params.k,
            l: params.l,
            anchored,
            window,
            global: SharedTopK::new(params.k),
            stats: BfsStats::default(),
            tick: 0,
        }
    }

    /// Sweep `interval` of `graph`: compute the heaps `h^x` of each of its
    /// nodes from its parents' heaps and offer every length-`l` path to the
    /// global heap. Intervals must be swept in order, each once; a failed
    /// sweep (`cancel` tripped, storage error) is not resumable.
    pub(crate) fn advance(
        &mut self,
        graph: &ClusterGraph,
        interval: u32,
        cancel: Option<&CancelToken>,
    ) -> BscResult<()> {
        let (k, l) = (self.k, self.l);
        let num_nodes = graph.nodes_in_interval(interval);
        self.stats.nodes_processed += u64::from(num_nodes);
        self.window.open(interval, num_nodes as usize);
        for index in 0..num_nodes {
            if let Some(token) = cancel {
                if token.checkpoint(&mut self.tick) {
                    return Err(deadline_error(token));
                }
            }
            let node = ClusterNodeId::new(interval, index);
            // Heaps h^x for x = 1..=min(l, interval): a path ending at
            // interval `i` cannot be longer than `i`.
            let max_len = l.min(interval) as usize;
            let mut heaps: Vec<SharedTopK> = (0..max_len).map(|_| SharedTopK::new(k)).collect();
            for parent_edge in graph.parents(node) {
                let parent = parent_edge.to;
                let weight = parent_edge.weight;
                let len = ClusterGraph::edge_length(parent, node);
                if len > l {
                    continue;
                }
                // Base case: the edge itself is a path of length `len`.
                if !self.anchored || len == interval {
                    let edge_path = SharedPath::singleton(parent).extend(node, weight);
                    self.stats.paths_generated += 1;
                    if len == l {
                        self.global.offer_by_weight(edge_path.clone());
                    }
                    heaps[len as usize - 1].offer_by_weight(edge_path);
                }

                // Extensions of subpaths ending at the parent.
                let Some(parent_heaps) = self.window.parent_heaps(parent)? else {
                    continue;
                };
                for (x_minus_1, heap) in parent_heaps.iter().enumerate() {
                    let total = x_minus_1 as u32 + 1 + len;
                    if total > l {
                        break;
                    }
                    if self.anchored && total != interval {
                        continue;
                    }
                    let bucket = &mut heaps[total as usize - 1];
                    for prefix in W::prefixes(heap) {
                        self.stats.paths_generated += 1;
                        let extended_weight = W::weight(prefix) + weight;
                        // Worst-score fast path: skip the extension (and
                        // the heap churn) when no heap could admit it.
                        let admit_bucket = bucket.would_admit(extended_weight);
                        let admit_global = total == l && self.global.would_admit(extended_weight);
                        if !admit_bucket && !admit_global {
                            continue;
                        }
                        let extended = W::extend(prefix, node, weight);
                        if admit_global {
                            self.global.offer_by_weight(extended.clone());
                        }
                        if admit_bucket {
                            bucket.offer_by_weight(extended);
                        }
                    }
                }
            }
            self.window.keep(node, heaps)?;
        }
        let resident = self.window.resident_paths();
        self.stats.peak_resident_paths = self.stats.peak_resident_paths.max(resident);
        Ok(())
    }

    /// The top-k paths of length exactly `l` over the intervals swept so
    /// far, in descending weight order.
    pub(crate) fn top_k(&self) -> Vec<ClusterPath> {
        let sorted = self.global.clone().into_sorted();
        sorted.iter().map(SharedPath::to_cluster_path).collect()
    }

    /// Batch BFS: sweep every interval of `graph`.
    fn run(
        mut self,
        graph: &ClusterGraph,
        cancel: Option<&CancelToken>,
    ) -> BscResult<(Vec<ClusterPath>, BfsStats)> {
        for interval in 0..graph.num_intervals() as u32 {
            self.advance(graph, interval, cancel)?;
        }
        Ok((self.top_k(), self.stats))
    }
}

/// The BFS-based kl-stable-clusters solver.
#[derive(Debug, Clone)]
pub struct BfsStableClusters {
    params: KlStableParams,
    config: BfsConfig,
    cancel: Option<CancelToken>,
}

impl BfsStableClusters {
    /// Create a solver for the given parameters.
    pub fn new(params: KlStableParams) -> Self {
        BfsStableClusters::with_config(params, BfsConfig::default())
    }

    /// Create a solver with an explicit storage configuration.
    pub fn with_config(params: KlStableParams, config: BfsConfig) -> Self {
        BfsStableClusters {
            params,
            config,
            cancel: None,
        }
    }

    /// Attach a cooperative-cancellation token. The sweep observes it at
    /// amortized checkpoints (roughly one real check per
    /// [`CancelToken::CHECK_INTERVAL`] nodes) and aborts with
    /// [`BscError::DeadlineExceeded`](crate::error::BscError) once it trips.
    pub fn with_cancel(mut self, cancel: Option<CancelToken>) -> Self {
        self.cancel = cancel;
        self
    }

    /// Convenience: solve for the top-k *full* paths (length `m − 1`).
    pub fn full_paths(k: usize, graph: &ClusterGraph) -> BscResult<Vec<ClusterPath>> {
        BfsStableClusters::new(KlStableParams::full_paths(k, graph.num_intervals())).run(graph)
    }

    /// The configured parameters.
    pub fn params(&self) -> KlStableParams {
        self.params
    }

    /// Run the algorithm, returning the top-k paths of length exactly `l` in
    /// descending weight order.
    pub fn run(&self, graph: &ClusterGraph) -> BscResult<Vec<ClusterPath>> {
        self.run_with_stats(graph).map(|(paths, _)| paths)
    }

    /// Run the algorithm and also report execution statistics.
    pub fn run_with_stats(&self, graph: &ClusterGraph) -> BscResult<(Vec<ClusterPath>, BfsStats)> {
        let KlStableParams { k, l } = self.params;
        let cancel = self.cancel.as_ref();
        check_not_expired(cancel)?;
        let m = graph.num_intervals() as u32;
        if k == 0 || l == 0 || m < 2 {
            return Ok((Vec::new(), BfsStats::default()));
        }
        let anchored = l == m - 1;
        match self.config.storage {
            Some(spec) => {
                let window = Stored(NodeStore::temp(spec, "bsc-bfs")?);
                IntervalSweep::new(self.params, anchored, window).run(graph, cancel)
            }
            None => {
                IntervalSweep::new(self.params, anchored, Ring::new(graph.gap())).run(graph, cancel)
            }
        }
    }
}

impl From<BfsStats> for SolverStats {
    fn from(stats: BfsStats) -> Self {
        SolverStats {
            paths_generated: stats.paths_generated,
            nodes_processed: stats.nodes_processed,
            peak_resident_paths: stats.peak_resident_paths,
            ..SolverStats::default()
        }
    }
}

impl StableClusterSolver for BfsStableClusters {
    fn name(&self) -> &'static str {
        "bfs"
    }

    fn algorithm(&self) -> AlgorithmKind {
        AlgorithmKind::Bfs
    }

    fn solve(&mut self, graph: &ClusterGraph) -> BscResult<Solution> {
        let scope = IoScope::start();
        let (paths, stats) = self.run_with_stats(graph)?;
        Ok(Solution {
            paths,
            stats: stats.into(),
            io: scope.finish(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster_graph::ClusterGraphBuilder;
    use crate::synthetic::{ClusterGraphGenerator, SyntheticGraphParams};

    fn node(interval: u32, index: u32) -> ClusterNodeId {
        ClusterNodeId::new(interval, index)
    }

    /// The worked example of Figure 5: three intervals with three clusters
    /// each, gap g = 1. Edge weights as read off the figure's heap traces:
    /// the resulting full-path top-2 is {c13c22c31 (1.5), c13c22c33 (1.7)}
    /// ... the paper reports the best two paths as c13c22c31 and c13c22c33.
    fn figure5_graph() -> ClusterGraph {
        let mut builder = ClusterGraphBuilder::new(1);
        for _ in 0..3 {
            builder.add_interval(3);
        }
        // Interval 1 -> 2 edges.
        builder.add_edge(node(0, 0), node(1, 0), 0.5); // c11 -> c21
        builder.add_edge(node(0, 1), node(1, 1), 0.1); // c12 -> c22
        builder.add_edge(node(0, 2), node(1, 1), 0.8); // c13 -> c22
        builder.add_edge(node(0, 1), node(1, 2), 0.4); // c12 -> c23
                                                       // Interval 2 -> 3 edges.
        builder.add_edge(node(1, 0), node(2, 0), 0.7); // c21 -> c31
        builder.add_edge(node(1, 1), node(2, 0), 0.7); // c22 -> c31
        builder.add_edge(node(1, 0), node(2, 1), 0.4); // c21 -> c32
        builder.add_edge(node(1, 1), node(2, 2), 0.9); // c22 -> c33
        builder.add_edge(node(1, 2), node(2, 2), 0.4); // c23 -> c33
                                                       // Gap edge interval 1 -> 3 (length 2).
        builder.add_edge(node(0, 0), node(2, 1), 0.5); // c11 -> c32
        builder.build()
    }

    #[test]
    fn figure5_full_paths_top2() {
        let graph = figure5_graph();
        let solver = BfsStableClusters::new(KlStableParams::new(2, 2));
        let result = solver.run(&graph).unwrap();
        assert_eq!(result.len(), 2);
        // Best: c13 c22 c33 with weight 0.8 + 0.9 = 1.7.
        assert_eq!(result[0].nodes(), &[node(0, 2), node(1, 1), node(2, 2)]);
        assert!((result[0].weight() - 1.7).abs() < 1e-12);
        // Second: c13 c22 c31 with weight 0.8 + 0.7 = 1.5.
        assert_eq!(result[1].nodes(), &[node(0, 2), node(1, 1), node(2, 0)]);
        assert!((result[1].weight() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn figure5_length_one_subpaths() {
        let graph = figure5_graph();
        let solver = BfsStableClusters::new(KlStableParams::new(3, 1));
        let result = solver.run(&graph).unwrap();
        assert_eq!(result.len(), 3);
        let weights: Vec<f64> = result.iter().map(ClusterPath::weight).collect();
        assert!((weights[0] - 0.9).abs() < 1e-12);
        assert!((weights[1] - 0.8).abs() < 1e-12);
        assert!((weights[2] - 0.7).abs() < 1e-12);
        for path in &result {
            assert_eq!(path.length(), 1);
        }
    }

    #[test]
    fn gap_edges_count_with_their_temporal_length() {
        // Only a single gap edge of length 2 exists between intervals 0 and 2.
        let mut builder = ClusterGraphBuilder::new(1);
        builder.add_interval(1);
        builder.add_interval(1);
        builder.add_interval(1);
        builder.add_edge(node(0, 0), node(2, 0), 0.9);
        let graph = builder.build();
        let paths_len2 = BfsStableClusters::new(KlStableParams::new(5, 2))
            .run(&graph)
            .unwrap();
        assert_eq!(paths_len2.len(), 1);
        assert_eq!(paths_len2[0].nodes().len(), 2);
        let paths_len1 = BfsStableClusters::new(KlStableParams::new(5, 1))
            .run(&graph)
            .unwrap();
        assert!(paths_len1.is_empty());
    }

    #[test]
    fn empty_and_degenerate_graphs() {
        let empty = ClusterGraphBuilder::new(0).build();
        assert!(BfsStableClusters::new(KlStableParams::new(3, 2))
            .run(&empty)
            .unwrap()
            .is_empty());

        let mut single = ClusterGraphBuilder::new(0);
        single.add_interval(4);
        let graph = single.build();
        assert!(BfsStableClusters::new(KlStableParams::new(3, 1))
            .run(&graph)
            .unwrap()
            .is_empty());

        // k = 0 and l = 0 return nothing.
        let graph = figure5_graph();
        assert!(BfsStableClusters::new(KlStableParams::new(0, 2))
            .run(&graph)
            .unwrap()
            .is_empty());
        assert!(BfsStableClusters::new(KlStableParams::new(3, 0))
            .run(&graph)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn store_backed_matches_in_memory_for_every_backend() {
        let graph = ClusterGraphGenerator::new(SyntheticGraphParams {
            num_intervals: 5,
            nodes_per_interval: 15,
            avg_out_degree: 3,
            gap: 1,
            seed: 11,
        })
        .generate();
        for l in [1, 2, 3, 4] {
            let params = KlStableParams::new(4, l);
            let (in_memory, stats) = BfsStableClusters::new(params)
                .run_with_stats(&graph)
                .unwrap();
            for spec in StorageSpec::ALL {
                let (stored, stored_stats) =
                    BfsStableClusters::with_config(params, BfsConfig::store_backed(spec))
                        .run_with_stats(&graph)
                        .unwrap();
                // One step, two windows: the same candidates are considered.
                assert_eq!(stats.paths_generated, stored_stats.paths_generated);
                assert_eq!(stats.nodes_processed, stored_stats.nodes_processed);
                assert_eq!(in_memory.len(), stored.len(), "l = {l} {spec}");
                for (a, b) in in_memory.iter().zip(stored.iter()) {
                    assert_eq!(a.nodes(), b.nodes(), "l = {l} {spec}");
                    assert_eq!(a.weight().to_bits(), b.weight().to_bits(), "l = {l} {spec}");
                }
            }
        }
    }

    #[test]
    fn stats_are_populated() {
        let graph = figure5_graph();
        let (_, stats) = BfsStableClusters::new(KlStableParams::new(2, 2))
            .run_with_stats(&graph)
            .unwrap();
        assert_eq!(stats.nodes_processed, 9);
        assert!(stats.paths_generated > 0);
        assert!(stats.peak_resident_paths > 0);
    }

    #[test]
    fn results_are_sorted_by_descending_weight() {
        let graph = ClusterGraphGenerator::new(SyntheticGraphParams {
            num_intervals: 6,
            nodes_per_interval: 20,
            avg_out_degree: 4,
            gap: 0,
            seed: 5,
        })
        .generate();
        let result = BfsStableClusters::new(KlStableParams::new(10, 5))
            .run(&graph)
            .unwrap();
        assert!(!result.is_empty());
        for pair in result.windows(2) {
            assert!(pair[0].weight() >= pair[1].weight() - 1e-12);
        }
        for path in &result {
            assert_eq!(path.length(), 5);
        }
    }
}
