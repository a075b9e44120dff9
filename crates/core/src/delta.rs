//! Incremental epoch-delta solving: re-solve only the windows a new
//! interval touches, splice the rest forward.
//!
//! The start-window decomposition (`docs/sharding.md`) makes the global
//! top-k the strict `(score, content)` merge of per-start-window top-k's.
//! This module adds the *temporal* consequence: when one epoch's graph
//! differs from an earlier one only in some intervals — the streamed-ingest
//! case, where every pushed interval appends one column — any window whose
//! intervals are all unchanged holds the same subgraph, so its per-window
//! top-k from the earlier epoch can be **spliced forward** without
//! re-solving. The whole rule, in one sentence: *a window is reused iff the
//! graph it was solved on and the graph being queried hold identical
//! in-edges over it, checked when it is used.* The check is
//! [`GraphDelta::between`] on those two graphs — nothing records, caps or
//! composes per-epoch deltas in between — and [`solve_windows`] runs the
//! crate's one windowed solver, [`ShardedSolver`](crate::sharded::ShardedSolver),
//! with its memo on, on local threads or on a fan-out's workers as the
//! query's options say.
//!
//! ## Why the splice is byte-identical to a cold re-solve
//!
//! [`GraphDelta::between`] marks an interval *dirty* unless its node count
//! and its full in-edge multiset (source node, target node, exact weight
//! bits) are equal across the two graphs. For a window `[a, a + l]` whose
//! intervals are all clean:
//!
//! 1. every in-window edge targets an interval in `[a + 1, a + l]`, so the
//!    window's edge multiset is covered by the compared in-edge sets;
//! 2. equal node counts and equal edge multisets mean the two epochs'
//!    [`ClusterGraph::window`] views hold the same nodes and the same edges,
//!    weight bits included (weights are compared by bit pattern, never by
//!    float tolerance) — at most a node's parents are listed in a different
//!    order;
//! 3. a deterministic solver on the same window content produces the
//!    identical per-window top-k — the top-k set is unique under the total
//!    `(score desc, content asc)` order, whatever order candidates are
//!    offered in;
//! 4. the merge of per-window top-k's is order-independent, so replacing a
//!    re-solve by the prior result cannot change a byte of the merged
//!    [`Solution`].
//!
//! The two graphs need not be consecutive epochs, nor related at all: a
//! stream's epochs share every segment an append left alone, so across any
//! number of ingests the comparison is `O(m)` pointer tests, and for
//! segments the two graphs do not share (a `load` replaced the graph
//! mid-stream) it falls back to comparing content — slower, never wrong.
//!
//! Problem 2 (normalized) does **not** decompose across start windows and
//! is rejected. `FullPaths` degrades gracefully: its single window spans
//! the whole graph, so any change re-solves it — correct, just never
//! faster.

use std::sync::Arc;

use crate::cluster_graph::ClusterGraph;
use crate::distributed::WindowResult;
use crate::error::BscResult;
use crate::problem::StableClusterSpec;
use crate::sharded::{PathLength, Windowed};
use crate::solver::{AlgorithmKind, Solution, SolverOptions};

/// The interval-range difference between two [`ClusterGraph`] generations.
///
/// Interval indices are stable identifiers across epochs (the streaming
/// layer appends new intervals and may drop edges of evicted ones, but
/// never renumbers), so the delta is a per-interval dirty bitmap over the
/// *new* graph: interval `i` is dirty when it did not exist before, its
/// node count changed, or its in-edge multiset changed in any way.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphDelta {
    old_intervals: u32,
    new_intervals: u32,
    dirty: Vec<bool>,
}

/// Per-node in-edges of one interval, flattened to exact-comparison tuples
/// `(node index, parent interval, parent index, weight bits)` and sorted.
fn interval_in_edge_signature(graph: &ClusterGraph, interval: u32) -> Vec<(u32, u32, u32, u64)> {
    let mut sig = Vec::new();
    // bsc:allow(missing-cancel-checkpoint) -- one bounded O(deg) scan of a single interval's in-edges, run at install time with no token in scope
    for node in graph.interval_node_ids(interval) {
        for edge in graph.parents(node) {
            sig.push((
                node.index,
                edge.to.interval,
                edge.to.index,
                edge.weight.to_bits(),
            ));
        }
    }
    sig.sort_unstable();
    sig
}

impl GraphDelta {
    /// Compare two graph generations interval by interval.
    ///
    /// An interval whose in-edge segment both graphs *share*
    /// ([`ClusterGraph::shares_in_edges`]) is clean in O(1): a segment is
    /// immutable, so one allocation reachable from both graphs is a proof
    /// of equal node count and equal in-edges, not a hint. Consecutive
    /// epochs of a stream ([`ClusterGraph::append`]) share every interval
    /// but the appended one, which makes the whole comparison `O(m)`.
    /// Intervals held in separate segments — graphs built independently —
    /// fall back to comparing content, `O(V + E log deg)` over those
    /// intervals.
    pub fn between(old: &ClusterGraph, new: &ClusterGraph) -> GraphDelta {
        let old_intervals = old.num_intervals() as u32;
        let new_intervals = new.num_intervals() as u32;
        let mut dirty = Vec::with_capacity(new_intervals as usize);
        // bsc:allow(missing-cancel-checkpoint) -- one bounded comparison pass per install: O(1) per shared interval, O(V + E log deg) over unshared ones; no token in scope
        for i in 0..new_intervals {
            let is_dirty = i >= old_intervals
                || !old.shares_in_edges(new, i)
                    && (old.nodes_in_interval(i) != new.nodes_in_interval(i)
                        || interval_in_edge_signature(old, i)
                            != interval_in_edge_signature(new, i));
            dirty.push(is_dirty);
        }
        GraphDelta {
            old_intervals,
            new_intervals,
            dirty,
        }
    }

    /// Intervals in the generation the delta starts from.
    pub fn old_intervals(&self) -> u32 {
        self.old_intervals
    }

    /// Intervals in the generation the delta ends at.
    pub fn new_intervals(&self) -> u32 {
        self.new_intervals
    }

    /// Whether interval `i` of the new generation changed (out-of-range
    /// intervals count as dirty — conservative).
    pub fn is_dirty(&self, interval: u32) -> bool {
        self.dirty.get(interval as usize).copied().unwrap_or(true)
    }

    /// Number of dirty intervals.
    pub fn dirty_count(&self) -> usize {
        self.dirty.iter().filter(|d| **d).count()
    }

    /// Whether the start window `[start, start + l]` contains any dirty
    /// interval. Windows reaching outside the new generation count as
    /// touched.
    pub fn touches_window(&self, start: u32, l: u32) -> bool {
        let end = match start.checked_add(l) {
            Some(end) => end,
            None => return true,
        };
        if (end as usize) >= self.dirty.len() {
            return true;
        }
        (start..=end).any(|i| self.dirty[i as usize])
    }
}

/// The per-start-window results of one windowed solve, kept so the next
/// epoch can splice untouched windows forward. `windows[a]` is the top-k of
/// the window starting at interval `a` (in global coordinates), shared: a
/// splice hands the next set the same result, not a copy of its paths. The
/// default set holds no window, so it splices nothing.
#[derive(Debug, Clone, Default)]
pub struct WindowSet {
    /// Exact path length the windows were solved for.
    pub l: u32,
    /// Top-k size the windows were solved for.
    pub k: usize,
    /// One result per valid start interval, index = start.
    pub windows: Vec<Arc<WindowResult>>,
}

/// What a windowed solve produces: the merged solution plus the per-window
/// results a future epoch can splice from.
#[derive(Debug)]
pub struct DeltaSolveOutcome {
    /// The merged top-k — byte-identical to a cold unsharded solve.
    pub solution: Solution,
    /// Per-window results for the *current* graph, splice source for the
    /// next epoch.
    pub windows: WindowSet,
}

/// Solve a kl-stable-cluster query window by window, splicing forward any
/// earlier window the delta proves untouched.
///
/// With `prior == None` (or a prior whose shape does not match) this is a
/// cold windowed solve: `stats.windows_resolved` counts every window, and
/// the outcome seeds future splices. With a matching prior — a [`WindowSet`]
/// solved on some other graph and the [`GraphDelta`] from that graph to this
/// one — untouched windows are shared forward (`stats.windows_spliced`) and
/// only touched ones re-solve: post-ingest latency proportional to the
/// delta, result byte-identical by the argument in the module docs. A
/// spliced window contributes its paths but not its historical counters; the
/// returned stats describe the work *this* solve performed. Windows that do
/// run are placed by the same [`ShardedSolver`](crate::sharded::ShardedSolver)
/// [`AlgorithmKind::build_with_options`] would build: on `options.shards`
/// local threads, or, with `options.fanout`, on the registered transport's
/// workers — so a coordinator dispatches only the windows the delta
/// touches, and the workers key the graph they are shipped by `graph`'s own
/// id: an engine's pinned snapshot is shipped once, not once per query. An
/// unbudgeted `Auto` resolves once against `graph`, as the direct solve
/// would.
pub fn solve_windows(
    graph: &ClusterGraph,
    spec: StableClusterSpec,
    k: usize,
    algorithm: AlgorithmKind,
    options: &SolverOptions,
    prior: Option<(&WindowSet, &GraphDelta)>,
) -> BscResult<DeltaSolveOutcome> {
    PathLength::of(spec, "delta")?;
    let solver = algorithm.windowed(spec, k, options.clone())?;
    let mut windowed = Windowed::new(&solver, graph.view());
    windowed.prior = prior;
    windowed.keep_windows = true;
    windowed.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster_graph::ClusterGraphBuilder;
    use crate::error::BscError;
    use crate::synthetic::{ClusterGraphGenerator, SyntheticGraphParams};
    use bsc_util::rng::DetRng;
    use std::time::Duration;

    fn gen_graph(m: u32, seed: u64) -> ClusterGraph {
        ClusterGraphGenerator::new(SyntheticGraphParams {
            num_intervals: m as usize,
            nodes_per_interval: 6,
            avg_out_degree: 3,
            gap: 0,
            seed,
        })
        .generate()
    }

    /// Rebuild `graph` with `extra` appended intervals wired by `rng`.
    fn extend_graph(
        graph: &ClusterGraph,
        extra: u32,
        nodes: u32,
        rng: &mut DetRng,
    ) -> ClusterGraph {
        let m = graph.num_intervals() as u32;
        let mut builder = ClusterGraphBuilder::new(graph.gap());
        for i in 0..m {
            builder.add_interval(graph.nodes_in_interval(i));
        }
        for _ in 0..extra {
            builder.add_interval(nodes);
        }
        for (from, to, weight) in graph.edges() {
            builder.add_edge(from, to, weight);
        }
        for i in 0..extra {
            let interval = m + i;
            for j in 0..nodes {
                for _ in 0..2 {
                    let prev = interval - 1;
                    let parent = rng.below(u64::from(graph_nodes(graph, nodes, prev))) as u32;
                    let weight = 0.05 + rng.next_f64() * 0.9;
                    builder.add_edge(
                        crate::cluster_graph::ClusterNodeId::new(prev, parent),
                        crate::cluster_graph::ClusterNodeId::new(interval, j),
                        weight,
                    );
                }
            }
        }
        builder.build()
    }

    fn graph_nodes(graph: &ClusterGraph, appended_nodes: u32, interval: u32) -> u32 {
        if (interval as usize) < graph.num_intervals() {
            graph.nodes_in_interval(interval)
        } else {
            appended_nodes
        }
    }

    #[test]
    fn identical_graphs_have_clean_delta() {
        let graph = gen_graph(6, 7);
        let delta = GraphDelta::between(&graph, &graph);
        assert_eq!(delta.dirty_count(), 0);
        assert!(!delta.touches_window(0, 3));
        assert!(delta.touches_window(3, 3), "window past the end is touched");
    }

    #[test]
    fn appended_interval_marks_only_itself_dirty() {
        let graph = gen_graph(6, 7);
        let mut rng = DetRng::seed_from_u64(1);
        let extended = extend_graph(&graph, 1, 6, &mut rng);
        let delta = GraphDelta::between(&graph, &extended);
        assert_eq!(delta.dirty_count(), 1);
        assert!(delta.is_dirty(6));
        assert!(!delta.touches_window(0, 2)); // [0,2] untouched
        assert!(delta.touches_window(4, 2)); // [4,6] includes the new column
    }

    #[test]
    fn changed_weight_bits_mark_the_target_interval_dirty() {
        let mut builder = ClusterGraphBuilder::new(0);
        builder.add_interval(1);
        builder.add_interval(1);
        let a = crate::cluster_graph::ClusterNodeId::new(0, 0);
        let b = crate::cluster_graph::ClusterNodeId::new(1, 0);
        builder.add_edge(a, b, 0.5);
        let old = builder.build();
        let mut builder = ClusterGraphBuilder::new(0);
        builder.add_interval(1);
        builder.add_interval(1);
        builder.add_edge(a, b, 0.6);
        let new = builder.build();
        let delta = GraphDelta::between(&old, &new);
        assert!(!delta.is_dirty(0));
        assert!(delta.is_dirty(1));
    }

    #[test]
    fn spliced_solve_is_byte_identical_to_cold_across_random_appends() {
        for seed in [11u64, 12, 13] {
            let mut rng = DetRng::seed_from_u64(seed);
            let mut graph = gen_graph(5, seed);
            let spec = StableClusterSpec::ExactLength(2);
            let options = SolverOptions::default();
            let mut prior: Option<(WindowSet, u64)> = None; // (windows, epoch tag unused)
            for _round in 0..4 {
                let next = extend_graph(&graph, 1, 6, &mut rng);
                let delta = GraphDelta::between(&graph, &next);
                let cold = solve_windows(&next, spec, 4, AlgorithmKind::Bfs, &options, None)
                    .expect("cold solve");
                let warm = match &prior {
                    Some((set, _)) => solve_windows(
                        &next,
                        spec,
                        4,
                        AlgorithmKind::Bfs,
                        &options,
                        Some((set, &delta)),
                    )
                    .expect("warm solve"),
                    None => solve_windows(&next, spec, 4, AlgorithmKind::Bfs, &options, None)
                        .expect("first solve"),
                };
                assert_eq!(cold.solution.paths, warm.solution.paths);
                if prior.is_some() {
                    assert!(
                        warm.solution.stats.windows_spliced > 0,
                        "an append must leave early windows spliceable"
                    );
                    assert!(
                        warm.solution.stats.windows_resolved < cold.solution.stats.windows_resolved
                    );
                }
                assert_eq!(
                    cold.solution.stats.windows_resolved,
                    (next.num_intervals() as u64) - 2
                );
                prior = Some((warm.windows, 0));
                graph = next;
            }
        }
    }

    #[test]
    fn mismatched_prior_shape_is_ignored_not_misused() {
        let graph = gen_graph(6, 9);
        let spec = StableClusterSpec::ExactLength(2);
        let options = SolverOptions::default();
        let cold = solve_windows(&graph, spec, 3, AlgorithmKind::Bfs, &options, None).unwrap();
        // A prior solved for a different k: must not splice.
        let delta = GraphDelta::between(&graph, &graph);
        let other = solve_windows(&graph, spec, 2, AlgorithmKind::Bfs, &options, None).unwrap();
        let warm = solve_windows(
            &graph,
            spec,
            3,
            AlgorithmKind::Bfs,
            &options,
            Some((&other.windows, &delta)),
        )
        .unwrap();
        assert_eq!(warm.solution.stats.windows_spliced, 0);
        assert_eq!(cold.solution.paths, warm.solution.paths);
    }

    #[test]
    fn expired_deadline_stops_the_window_loop() {
        let graph = gen_graph(8, 5);
        let options = SolverOptions::default().deadline(Some(Duration::ZERO));
        let err = solve_windows(
            &graph,
            StableClusterSpec::ExactLength(2),
            3,
            AlgorithmKind::Bfs,
            &options,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, BscError::DeadlineExceeded { .. }));
    }

    #[test]
    fn an_all_dirty_delta_forces_every_window_to_resolve() {
        let graph = gen_graph(6, 8);
        let spec = StableClusterSpec::ExactLength(2);
        let options = SolverOptions::default();
        let cold = solve_windows(&graph, spec, 3, AlgorithmKind::Bfs, &options, None).unwrap();
        // An unrelated graph of the same shape differs in every interval
        // that has in-edges, and every window holds one.
        let all_dirty = GraphDelta::between(&gen_graph(6, 9), &graph);
        assert!((1..6).all(|i| all_dirty.is_dirty(i)));
        let warm = solve_windows(
            &graph,
            spec,
            3,
            AlgorithmKind::Bfs,
            &options,
            Some((&cold.windows, &all_dirty)),
        )
        .unwrap();
        assert_eq!(warm.solution.stats.windows_spliced, 0);
        assert_eq!(warm.solution.stats.windows_resolved, 4);
        assert_eq!(cold.solution.paths, warm.solution.paths);
    }
}
