//! Normalized stable clusters (Problem 2, Section 4.5).
//!
//! Instead of fixing the path length, Problem 2 searches for the k paths of
//! length at least `l_min` with the highest **stability** = weight / length.
//! The solver follows the BFS framework of Algorithm 2 with two per-node
//! structures:
//!
//! * `smallpaths(c, x)` for `x < l_min` — *all* paths of length `x` ending at
//!   `c` (they are too short to score yet but may grow into candidates);
//! * `bestpaths(c)` — candidate paths of length ≥ `l_min` ending at `c`,
//!   pruned with **Theorem 1**: a prefix whose stability does not exceed the
//!   stability of the rest of the path can be dropped, because for any
//!   possible suffix the suffix-only path will score at least as well.
//!
//! The paper additionally suggests deleting a candidate that is a subpath of
//! another candidate. That rule is *not* applied here because it can lose
//! optimal answers: with prefix stability 0.5, suffix stability 0.4 and a
//! future extension of stability 1.0, the shorter path (0.4 + 1.0)/2 = 0.7
//! beats the longer (0.5 + 0.4 + 1.0)/3 = 0.63, so the shorter candidate must
//! survive. Theorem 1 alone keeps the algorithm exact, which the tests verify
//! against an exhaustive oracle.
//!
//! Nothing bounds how many candidates a node keeps (no top-k applies below
//! `l_min`, and Theorem 1 only shortens), so a candidate is not a
//! [`ClusterPath`] of its own: it is the head of a chain of hops shared with
//! every candidate that extends the same prefix — one hop per candidate
//! instead of one node vector (which measured twice the peak memory, see
//! `docs/performance.md`, "Where paths live"). The chain is private to this
//! module; what leaves it is a [`ClusterPath`].

use std::collections::HashMap;
use std::rc::Rc;

use bsc_util::cancel::CancelToken;

use crate::cluster_graph::{ClusterGraph, ClusterNodeId, GraphView};
use crate::error::BscResult;
use crate::path::ClusterPath;
use crate::problem::NormalizedParams;
use crate::solver::{
    check_not_expired, deadline_error, AlgorithmKind, Solution, SolverStats, StableClusterSolver,
};
use crate::topk::TopKPaths;

/// One hop of a candidate's chain: a node, the weight of the edge that
/// reaches it (0 at the chain's first node) and the hop before it.
#[derive(Debug)]
struct Hop {
    node: ClusterNodeId,
    edge_weight: f64,
    prev: Option<Rc<Hop>>,
}

/// A candidate path stored per node: the hop of its latest node, the hops
/// before it shared with every candidate extending the same prefix. The hops
/// carry the per-edge weights (Theorem 1 evaluates prefix/suffix stabilities
/// from them). `Rc`: the sweep is sequential and no candidate outlives
/// [`NormalizedStableClusters::run_with_stats`].
#[derive(Debug, Clone)]
struct Candidate {
    head: Rc<Hop>,
    first_interval: u32,
    num_nodes: u32,
    weight: f64,
}

impl Candidate {
    fn singleton(node: ClusterNodeId) -> Candidate {
        Candidate {
            head: Rc::new(Hop {
                node,
                edge_weight: 0.0,
                prev: None,
            }),
            first_interval: node.interval,
            num_nodes: 1,
            weight: 0.0,
        }
    }

    /// Extend by one edge to a strictly later `node`: one new hop, the
    /// chain behind it shared.
    fn extend(&self, node: ClusterNodeId, edge_weight: f64) -> Candidate {
        debug_assert!(
            node.interval > self.head.node.interval,
            "extension must move forward in time"
        );
        Candidate {
            head: Rc::new(Hop {
                node,
                edge_weight,
                prev: Some(Rc::clone(&self.head)),
            }),
            first_interval: self.first_interval,
            num_nodes: self.num_nodes + 1,
            weight: self.weight + edge_weight,
        }
    }

    /// A chain of its own over `nodes` and the weights of the edges between
    /// them (what a Theorem 1 drop leaves of a candidate).
    fn from_parts(nodes: &[ClusterNodeId], edge_weights: &[f64]) -> Candidate {
        nodes[1..]
            .iter()
            .zip(edge_weights)
            .fold(Candidate::singleton(nodes[0]), |chain, (&node, &w)| {
                chain.extend(node, w)
            })
    }

    /// The temporal length (interval span).
    fn length(&self) -> u32 {
        self.head.node.interval - self.first_interval
    }

    /// The nodes and the per-edge weights, both in temporal order.
    fn parts(&self) -> (Vec<ClusterNodeId>, Vec<f64>) {
        let mut nodes = Vec::with_capacity(self.num_nodes as usize);
        let mut edge_weights = Vec::with_capacity(self.num_nodes as usize - 1);
        let mut hop = &self.head;
        nodes.push(hop.node);
        // bsc:allow(missing-cancel-checkpoint) -- one step per node of one candidate; the sweep checkpoints per node
        while let Some(prev) = &hop.prev {
            edge_weights.push(hop.edge_weight);
            nodes.push(prev.node);
            hop = prev;
        }
        nodes.reverse();
        edge_weights.reverse();
        (nodes, edge_weights)
    }

    /// Node-sequence equality; reaching a hop both chains share settles it.
    fn same_nodes(&self, other: &Candidate) -> bool {
        if self.num_nodes != other.num_nodes {
            return false;
        }
        let (mut a, mut b) = (&self.head, &other.head);
        // bsc:allow(missing-cancel-checkpoint) -- one step per node of one candidate; the sweep checkpoints per node
        loop {
            if Rc::ptr_eq(a, b) {
                return true;
            }
            if a.node != b.node {
                return false;
            }
            match (&a.prev, &b.prev) {
                (Some(x), Some(y)) => {
                    a = x;
                    b = y;
                }
                // Equal node counts: the chains end together.
                _ => return true,
            }
        }
    }
}

/// Per-node state within the sliding window.
#[derive(Debug, Clone, Default)]
struct NodeState {
    /// `smallpaths[x − 1]` for `x ∈ [1, l_min − 1]`.
    smallpaths: Vec<Vec<Candidate>>,
    /// Candidates of length ≥ `l_min`, Theorem-1 pruned.
    bestpaths: Vec<Candidate>,
}

/// The solver for Problem 2.
#[derive(Debug, Clone)]
pub struct NormalizedStableClusters {
    params: NormalizedParams,
    cancel: Option<CancelToken>,
}

impl NormalizedStableClusters {
    /// Create a solver.
    pub fn new(params: NormalizedParams) -> Self {
        NormalizedStableClusters {
            params,
            cancel: None,
        }
    }

    /// Attach a cooperative-cancellation token, observed at amortized
    /// checkpoints (roughly once per [`CancelToken::CHECK_INTERVAL`] nodes).
    /// A tripped token aborts the run with
    /// [`crate::error::BscError::DeadlineExceeded`].
    pub fn with_cancel(mut self, cancel: Option<CancelToken>) -> Self {
        self.cancel = cancel;
        self
    }

    /// The configured parameters.
    pub fn params(&self) -> NormalizedParams {
        self.params
    }

    /// Run the solver over a graph or a view of one: the top-k paths of
    /// length ≥ `l_min` by stability, in descending stability order.
    pub fn run<'a>(&self, graph: impl Into<GraphView<'a>>) -> BscResult<Vec<ClusterPath>> {
        self.run_with_stats(graph).map(|(paths, _)| paths)
    }

    /// Run and report execution statistics. Of [`SolverStats`] it fills
    /// `paths_generated` (candidates generated), `prunes` (prefixes dropped
    /// by Theorem 1) and `peak_resident_paths` (candidates resident across
    /// the sliding window).
    pub fn run_with_stats<'a>(
        &self,
        graph: impl Into<GraphView<'a>>,
    ) -> BscResult<(Vec<ClusterPath>, SolverStats)> {
        let graph = graph.into();
        let k = self.params.k;
        let l_min = self.params.l_min;
        let mut stats = SolverStats::default();
        check_not_expired(self.cancel.as_ref())?;
        // A path of length >= l_min spans l_min + 1 intervals; when the view
        // has fewer, none exists — answered before `l_min`, a number a
        // client sends, sizes anything.
        if k == 0 || l_min == 0 || l_min as usize >= graph.num_intervals() {
            return Ok((Vec::new(), stats));
        }
        let gap = graph.gap();
        let mut global = TopKPaths::new(k);
        let mut window: HashMap<ClusterNodeId, NodeState> = HashMap::new();
        let mut resident = 0usize;
        let cancel = self.cancel.as_ref();
        let mut tick = 0u32;

        for interval in graph.intervals() {
            let mut interval_states: Vec<(ClusterNodeId, NodeState)> = Vec::new();
            for node in graph.interval_node_ids(interval) {
                if let Some(token) = cancel {
                    if token.checkpoint(&mut tick) {
                        return Err(deadline_error(token));
                    }
                }
                let mut state = NodeState {
                    smallpaths: vec![Vec::new(); l_min.saturating_sub(1) as usize],
                    bestpaths: Vec::new(),
                };
                for parent_edge in graph.parents(node) {
                    let parent = parent_edge.to;
                    let weight = parent_edge.weight;
                    let len = ClusterGraph::edge_length(parent, node);
                    let edge_candidate = Candidate::singleton(parent).extend(node, weight);
                    stats.paths_generated += 1;
                    self.place(edge_candidate, len, &mut state, &mut global, &mut stats);

                    let Some(parent_state) = window.get(&parent) else {
                        continue;
                    };
                    let mut extensions: Vec<(u32, Candidate)> = Vec::new();
                    for (x_index, bucket) in parent_state.smallpaths.iter().enumerate() {
                        let total = x_index as u32 + 1 + len;
                        for candidate in bucket {
                            extensions.push((total, candidate.extend(node, weight)));
                        }
                    }
                    for candidate in &parent_state.bestpaths {
                        let total = candidate.length() + len;
                        extensions.push((total, candidate.extend(node, weight)));
                    }
                    for (total, candidate) in extensions {
                        stats.paths_generated += 1;
                        self.place(candidate, total, &mut state, &mut global, &mut stats);
                    }
                }
                interval_states.push((node, state));
            }
            for (node, state) in interval_states {
                resident +=
                    state.smallpaths.iter().map(Vec::len).sum::<usize>() + state.bestpaths.len();
                window.insert(node, state);
            }
            stats.peak_resident_paths = stats.peak_resident_paths.max(resident);
            if interval > gap {
                let evict = interval - gap - 1;
                for node in graph.interval_node_ids(evict) {
                    if let Some(state) = window.remove(&node) {
                        resident -= state.smallpaths.iter().map(Vec::len).sum::<usize>()
                            + state.bestpaths.len();
                    }
                }
            }
        }
        Ok((global.into_sorted(), stats))
    }

    /// Route a freshly generated candidate of temporal length `total` into
    /// the node state, offering it to the global heap when long enough.
    fn place(
        &self,
        candidate: Candidate,
        total: u32,
        state: &mut NodeState,
        global: &mut TopKPaths,
        stats: &mut SolverStats,
    ) {
        let l_min = self.params.l_min;
        if total < l_min {
            let bucket = &mut state.smallpaths[total as usize - 1];
            if !bucket.iter().any(|c| c.same_nodes(&candidate)) {
                bucket.push(candidate);
            }
            return;
        }
        // Long enough to be scored. Walk the chain once; the global offer
        // and the Theorem 1 scan below share the same vectors.
        let (nodes, edge_weights) = candidate.parts();
        if !global.iter().any(|p| p.nodes() == nodes.as_slice()) {
            global.offer_by_stability(ClusterPath::new(nodes.clone(), candidate.weight));
        }
        // Theorem 1: drop a prefix whose stability does not exceed the
        // stability of the remaining suffix (of length >= l_min).
        let pruned = theorem1_prune(candidate, &nodes, &edge_weights, l_min, stats);
        let bucket = &mut state.bestpaths;
        if !bucket.iter().any(|c| c.same_nodes(&pruned)) {
            bucket.push(pruned);
        }
    }
}

/// Apply the Theorem 1 prefix-dropping rule repeatedly: find the earliest
/// split `π = πpre · πcurr` with `length(πcurr) ≥ l_min` and
/// `stability(πpre) ≤ stability(πcurr)`, replace `π` by `πcurr`, and repeat.
///
/// The caller passes the candidate's already-materialized `nodes` and
/// `edge_weights` (shared with the global-heap offer, so each chain is
/// walked once); `start` tracks the surviving suffix instead of re-slicing
/// vectors, and the original chain is returned untouched when nothing was
/// dropped (the common case).
fn theorem1_prune(
    candidate: Candidate,
    nodes: &[ClusterNodeId],
    edge_weights: &[f64],
    l_min: u32,
    stats: &mut SolverStats,
) -> Candidate {
    let n = nodes.len();
    let mut start = 0usize;
    // bsc:allow(missing-cancel-checkpoint) -- every round advances start or exits; at most n rounds over one candidate
    loop {
        let mut replaced = false;
        for split in (start + 1)..n - 1 {
            // Prefix: nodes[start..=split], edges[start..split].
            // Suffix: nodes[split..], edges[split..].
            let prefix_weight: f64 = edge_weights[start..split].iter().sum();
            let prefix_length = nodes[split].interval - nodes[start].interval;
            let suffix_weight: f64 = edge_weights[split..].iter().sum();
            let suffix_length = nodes[n - 1].interval - nodes[split].interval;
            if suffix_length < l_min || prefix_length == 0 || suffix_length == 0 {
                continue;
            }
            let prefix_stability = prefix_weight / f64::from(prefix_length);
            let suffix_stability = suffix_weight / f64::from(suffix_length);
            if prefix_stability <= suffix_stability {
                start = split;
                stats.prunes += 1;
                replaced = true;
                break;
            }
        }
        if !replaced {
            return if start == 0 {
                candidate
            } else {
                Candidate::from_parts(&nodes[start..], &edge_weights[start..])
            };
        }
    }
}

impl StableClusterSolver for NormalizedStableClusters {
    fn name(&self) -> &'static str {
        "normalized"
    }

    fn algorithm(&self) -> AlgorithmKind {
        AlgorithmKind::Normalized
    }

    fn solve_view(&mut self, view: GraphView<'_>) -> BscResult<Solution> {
        Solution::of(|| self.run_with_stats(view))
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

    /// Exhaustive oracle: enumerate every path, keep those of length >=
    /// l_min, return the top-k stabilities.
    fn oracle_top_stabilities(graph: &ClusterGraph, k: usize, l_min: u32) -> Vec<f64> {
        fn extend(
            graph: &ClusterGraph,
            nodes: Vec<ClusterNodeId>,
            weight: f64,
            out: &mut Vec<(f64, u32)>,
        ) {
            let last = *nodes.last().unwrap();
            let length = last.interval - nodes[0].interval;
            if length > 0 {
                out.push((weight, length));
            }
            for edge in graph.children(last) {
                let mut next = nodes.clone();
                next.push(edge.to);
                extend(graph, next, weight + edge.weight, out);
            }
        }
        let mut all = Vec::new();
        for start in graph.node_ids() {
            extend(graph, vec![start], 0.0, &mut all);
        }
        let mut stabilities: Vec<f64> = all
            .into_iter()
            .filter(|&(_, length)| length >= l_min)
            .map(|(weight, length)| weight / f64::from(length))
            .collect();
        stabilities.sort_by(|a, b| b.total_cmp(a));
        stabilities.truncate(k);
        stabilities
    }

    #[test]
    fn prefers_dense_subpath_over_long_weak_path() {
        // Path A: 0 -> 1 -> 2 with weights 0.9, 0.9 (stability 0.9).
        // Path B: 0 -> 1 -> 2 -> 3 with an extra weak edge 0.1
        //         (stability (1.8 + 0.1)/3 = 0.633).
        let mut builder = ClusterGraphBuilder::new(0);
        for _ in 0..4 {
            builder.add_interval(1);
        }
        builder.add_edge(node(0, 0), node(1, 0), 0.9);
        builder.add_edge(node(1, 0), node(2, 0), 0.9);
        builder.add_edge(node(2, 0), node(3, 0), 0.1);
        let graph = builder.build();
        let result = NormalizedStableClusters::new(NormalizedParams::new(1, 2))
            .run(&graph)
            .unwrap();
        assert_eq!(result.len(), 1);
        assert_eq!(result[0].nodes(), &[node(0, 0), node(1, 0), node(2, 0)]);
        assert!((result[0].stability() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn respects_minimum_length() {
        let mut builder = ClusterGraphBuilder::new(0);
        for _ in 0..3 {
            builder.add_interval(1);
        }
        builder.add_edge(node(0, 0), node(1, 0), 1.0);
        builder.add_edge(node(1, 0), node(2, 0), 0.2);
        let graph = builder.build();
        // With l_min = 2, the only eligible path is the full one.
        let result = NormalizedStableClusters::new(NormalizedParams::new(3, 2))
            .run(&graph)
            .unwrap();
        assert_eq!(result.len(), 1);
        assert_eq!(result[0].length(), 2);
        assert!((result[0].stability() - 0.6).abs() < 1e-12);
        // With l_min = 1 the strong single edge wins.
        let result = NormalizedStableClusters::new(NormalizedParams::new(1, 1))
            .run(&graph)
            .unwrap();
        assert!((result[0].stability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn matches_oracle_on_random_graphs() {
        for seed in 0..6 {
            let graph = ClusterGraphGenerator::new(SyntheticGraphParams {
                num_intervals: 5,
                nodes_per_interval: 5,
                avg_out_degree: 2,
                gap: 1,
                seed: seed + 10,
            })
            .generate();
            for l_min in [1, 2, 3] {
                for k in [1, 3] {
                    let expected = oracle_top_stabilities(&graph, k, l_min);
                    let got: Vec<f64> =
                        NormalizedStableClusters::new(NormalizedParams::new(k, l_min))
                            .run(&graph)
                            .unwrap()
                            .iter()
                            .map(ClusterPath::stability)
                            .collect();
                    assert_eq!(got.len(), expected.len(), "seed={seed} lmin={l_min} k={k}");
                    for (g, e) in got.iter().zip(expected.iter()) {
                        assert!(
                            (g - e).abs() < 1e-9,
                            "seed={seed} lmin={l_min} k={k}: got {g}, expected {e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn theorem1_prunes_weak_prefixes() {
        let mut stats = SolverStats::default();
        let candidate = Candidate::from_parts(
            &[node(0, 0), node(1, 0), node(2, 0), node(3, 0)],
            &[0.1, 0.9, 0.9],
        );
        let (nodes, weights) = candidate.parts();
        let pruned = theorem1_prune(candidate, &nodes, &weights, 2, &mut stats);
        // The weak first edge (stability 0.1 <= suffix stability 0.9) drops.
        assert_eq!(pruned.parts().0, vec![node(1, 0), node(2, 0), node(3, 0)]);
        assert!((pruned.weight - 1.8).abs() < 1e-12);
        assert_eq!(stats.prunes, 1);
    }

    #[test]
    fn theorem1_keeps_strong_prefixes() {
        let mut stats = SolverStats::default();
        let candidate = Candidate::from_parts(
            &[node(0, 0), node(1, 0), node(2, 0), node(3, 0)],
            &[0.9, 0.5, 0.5],
        );
        let (nodes, weights) = candidate.parts();
        let pruned = theorem1_prune(candidate.clone(), &nodes, &weights, 2, &mut stats);
        assert!(Rc::ptr_eq(&pruned.head, &candidate.head));
        assert_eq!(stats.prunes, 0);
    }

    /// Prefix sharing is what bounds Problem 2's memory (one hop per
    /// candidate), so it is asserted by pointer.
    #[test]
    fn extend_shares_the_prefix() {
        let base = Candidate::singleton(node(0, 0)).extend(node(1, 1), 0.5);
        let a = base.extend(node(2, 0), 0.3);
        let b = base.extend(node(2, 1), 0.4);
        for extension in [&a, &b] {
            let shared = extension.head.prev.as_ref().unwrap();
            assert!(Rc::ptr_eq(shared, &base.head));
        }
        assert_eq!(a.parts().0, vec![node(0, 0), node(1, 1), node(2, 0)]);
        assert_eq!(b.parts().0, vec![node(0, 0), node(1, 1), node(2, 1)]);
        assert!((a.weight - 0.8).abs() < 1e-12);
        assert!((b.weight - 0.9).abs() < 1e-12);
        assert_eq!(a.length(), 2);
        assert_eq!(a.num_nodes, 3);
        assert!(!a.same_nodes(&b));
        assert!(a.same_nodes(&a.clone()));
    }

    #[test]
    fn from_parts_keeps_edge_weights() {
        let nodes = vec![node(0, 0), node(1, 0), node(3, 0)];
        let path = Candidate::from_parts(&nodes, &[0.2, 0.7]);
        assert_eq!(path.parts(), (nodes, vec![0.2, 0.7]));
        assert!((path.weight - 0.9).abs() < 1e-12);
        assert_eq!(path.length(), 3);
    }

    #[test]
    fn shared_suffix_equality_uses_pointer_shortcut() {
        let base = Candidate::singleton(node(0, 0)).extend(node(1, 0), 0.5);
        let a = base.extend(node(2, 0), 0.1);
        let b = base.extend(node(2, 0), 0.9);
        // Different final hops over one shared chain: equal node sequences,
        // settled at the shared hop.
        assert!(!Rc::ptr_eq(&a.head, &b.head));
        assert!(Rc::ptr_eq(
            a.head.prev.as_ref().unwrap(),
            b.head.prev.as_ref().unwrap()
        ));
        assert!(a.same_nodes(&b));
        // The same sequence over a chain of its own compares hop by hop.
        let (nodes, weights) = a.parts();
        assert!(a.same_nodes(&Candidate::from_parts(&nodes, &weights)));
        assert!(!a.same_nodes(&base));
    }

    #[test]
    fn gap_edges_lower_stability() {
        // A strong edge over a gap of one interval has length 2: stability
        // is halved relative to a consecutive edge of equal weight.
        let mut builder = ClusterGraphBuilder::new(1);
        for _ in 0..3 {
            builder.add_interval(1);
        }
        builder.add_edge(node(0, 0), node(2, 0), 0.8);
        let graph = builder.build();
        let result = NormalizedStableClusters::new(NormalizedParams::new(1, 1))
            .run(&graph)
            .unwrap();
        assert_eq!(result.len(), 1);
        assert!((result[0].stability() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        let graph = ClusterGraphGenerator::new(SyntheticGraphParams {
            num_intervals: 3,
            nodes_per_interval: 4,
            avg_out_degree: 2,
            gap: 0,
            seed: 1,
        })
        .generate();
        assert!(NormalizedStableClusters::new(NormalizedParams::new(0, 2))
            .run(&graph)
            .unwrap()
            .is_empty());
        assert!(NormalizedStableClusters::new(NormalizedParams::new(3, 0))
            .run(&graph)
            .unwrap()
            .is_empty());
        let empty = ClusterGraphBuilder::new(0).build();
        assert!(NormalizedStableClusters::new(NormalizedParams::new(3, 2))
            .run(&empty)
            .unwrap()
            .is_empty());
        // No path of 3 intervals is 3 long; `l_min - 1` buckets per node
        // used to be allocated before finding that out (96 GB for the
        // second one). The longest length there is still answers.
        for l_min in [3, u32::MAX] {
            let (paths, stats) = NormalizedStableClusters::new(NormalizedParams::new(3, l_min))
                .run_with_stats(&graph)
                .unwrap();
            assert!(paths.is_empty());
            assert_eq!(stats.paths_generated, 0);
        }
        assert!(!NormalizedStableClusters::new(NormalizedParams::new(3, 2))
            .run(&graph)
            .unwrap()
            .is_empty());
    }
}
