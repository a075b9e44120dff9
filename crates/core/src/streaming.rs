//! Online (streaming) stable-cluster maintenance (Section 4.6).
//!
//! New blog posts arrive continuously, so the cluster graph grows by one
//! interval at a time. A path of length `l` lies inside one start window
//! `[a, a + l]`, and an arriving interval adds only the paths of the windows
//! that reach it: every older path keeps its weight. So, as the paper's
//! online algorithm does, [`OnlineStableClusters`] keeps only its last
//! answer. [`OnlineStableClusters::push`] appends the interval to the
//! graph-so-far and does nothing else;
//! [`OnlineStableClusters::current_top_k`] answers through the crate's one
//! windowed executor ([`solve_windows`]), handing it the last answer and the
//! [`GraphDelta`] from that answer's graph to this one: after one push it
//! solves the one window the push added with batch BFS, pruned by the last
//! answer's k-th weight, and merges its paths with the last answer, so the
//! answer is byte-identical to batch BFS on the graph-so-far (the argument
//! is in [`crate::delta`]). A consumer that polls after every push pays one
//! window solve per interval; one that polls after many pays one per window
//! those pushes added.
//!
//! For the long-lived query engine the stream is also the **graph source**:
//! every push extends the graph-so-far by one interval through the
//! persistent [`ClusterGraph::append`] — the new graph shares all but the
//! last `g + 2` intervals' segments with the one before — and
//! [`OnlineStableClusters::snapshot`] hands it out as an epoch-tagged
//! [`GraphSnapshot`] (epoch = intervals ingested). Installing it into a
//! [`SnapshotCell`](crate::snapshot::SnapshotCell) swaps it in atomically,
//! so in-flight queries keep solving against the epoch they pinned while
//! new intervals arrive.

use std::sync::Arc;

use bsc_graph::cluster::KeywordCluster;

use crate::affinity::Affinity;
use crate::cluster_graph::{in_edges, ClusterGraph, ClusterGraphBuilder, ClusterNodeId, InEdge};
use crate::delta::{solve_windows, Answer, GraphDelta};
use crate::error::BscResult;
use crate::path::ClusterPath;
use crate::problem::{KlStableParams, StableClusterSpec};
use crate::snapshot::GraphSnapshot;
use crate::solver::{AlgorithmKind, SolverOptions, SolverStats};

/// Incremental solver for kl-stable clusters over a growing timeline.
pub struct OnlineStableClusters {
    params: KlStableParams,
    /// The graph of every interval ingested so far — also the record of the
    /// gap, the interval count and each interval's node count that the next
    /// push is validated against.
    graph: Arc<ClusterGraph>,
    /// The graph the last answer was solved on (at first the empty graph,
    /// whose answer is empty).
    answered: Arc<ClusterGraph>,
    /// The last answer: what the next one merges from.
    answer: Answer,
    /// Every answer's solve, merged.
    stats: SolverStats,
}

impl std::fmt::Debug for OnlineStableClusters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnlineStableClusters")
            .field("params", &self.params)
            .field("gap", &self.graph.gap())
            .field("intervals", &self.num_intervals())
            .field("edges_ingested", &self.edges_ingested())
            .finish()
    }
}

impl OnlineStableClusters {
    /// Create an empty online solver for paths of length exactly `params.l`
    /// with the given maximum gap.
    pub fn new(params: KlStableParams, gap: u32) -> Self {
        let graph = Arc::new(ClusterGraphBuilder::new(gap).build());
        let KlStableParams { k, l } = params;
        OnlineStableClusters {
            params,
            answered: Arc::clone(&graph),
            graph,
            answer: Answer {
                l,
                k,
                paths: Vec::new(),
            },
            stats: SolverStats::default(),
        }
    }

    /// The `k` and `l` every answer is asked for.
    pub fn params(&self) -> KlStableParams {
        self.params
    }

    /// Number of intervals ingested so far.
    pub fn num_intervals(&self) -> usize {
        self.graph.num_intervals()
    }

    /// Total number of edges ingested.
    pub fn edges_ingested(&self) -> u64 {
        self.graph.num_edges() as u64
    }

    /// The graph of every interval ingested so far (what
    /// [`OnlineStableClusters::snapshot`] publishes).
    pub fn graph(&self) -> &ClusterGraph {
        &self.graph
    }

    /// Ingest the next temporal interval of `nodes` cluster nodes, whose
    /// in-edges `edges` lists as `(earlier node, node index, weight)`:
    /// append it to the graph-so-far ([`ClusterGraph::append`], the one
    /// check of a pushed interval). Nothing is solved until
    /// [`OnlineStableClusters::current_top_k`] is asked. Weights must lie in
    /// `(0, 1]`: cluster-graph affinities are normalized into it, and the
    /// graph takes the weights exactly as the solvers score them.
    ///
    /// # Errors
    /// The first edge that names a node that does not exist or violates the
    /// gap or weight constraints, in [`ClusterGraph::append`]'s words; the
    /// solver is then as it was.
    pub fn push(&mut self, nodes: u32, edges: &[InEdge]) -> Result<(), String> {
        self.graph = Arc::new(self.graph.append(nodes, edges)?);
        Ok(())
    }

    /// [`OnlineStableClusters::push`] of an interval given node by node:
    /// `parent_edges[j]` lists the incoming edges of the interval's `j`-th
    /// cluster node as `(earlier node, weight)` pairs.
    ///
    /// # Panics
    /// Panics where `push` answers an error; the solver is then as it was.
    pub fn push_interval(&mut self, parent_edges: Vec<Vec<(ClusterNodeId, f64)>>) {
        let pushed = u32::try_from(parent_edges.len())
            .map_err(|_| "an interval holds at most u32::MAX nodes".to_string())
            .and_then(|nodes| self.push(nodes, &in_edges(&parent_edges)));
        if let Err(rejected) = pushed {
            panic!("{rejected}"); // bsc:allow(panic-in-lib) -- documented contract of the per-node adapter; `push` is the fallible form
        }
    }

    /// The current top-k paths of length exactly `l`, in descending weight
    /// order, reflecting every interval ingested so far.
    ///
    /// Repeated calls between ingests return the memoized answer. After an
    /// ingest the start windows the new intervals added are solved with
    /// batch BFS and merged with the last answer ([`solve_windows`] with the
    /// [`GraphDelta`] between the two graphs). The error is a window
    /// solve's: a table the allocator refuses.
    pub fn current_top_k(&mut self) -> BscResult<Vec<ClusterPath>> {
        if !Arc::ptr_eq(&self.answered, &self.graph) {
            let KlStableParams { k, l } = self.params;
            let delta = GraphDelta::between(&self.answered, &self.graph);
            let outcome = solve_windows(
                &self.graph,
                StableClusterSpec::ExactLength(l),
                k,
                AlgorithmKind::Bfs,
                &SolverOptions::default(),
                Some((&self.answer, &delta)),
            )?;
            self.stats.merge(&outcome.solution.stats);
            self.answered = Arc::clone(&self.graph);
            self.answer = outcome.windows;
        }
        Ok(self.answer.paths.clone())
    }

    /// What the answers' window solves have counted since the stream opened,
    /// merged ([`SolverStats::merge`]): per answer, `windows_resolved` counts
    /// the windows solved and `windows_spliced` the older starts the last
    /// answer stood for; `shards` and `threads` are 1 once an answer has
    /// solved a window (one range, run on one chunk), and 0 before.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// The graph-so-far as an epoch-tagged [`GraphSnapshot`] (epoch =
    /// intervals ingested so far). Every accepted edge is present with its
    /// exact weight, so any path inside the snapshot scores bit-identically
    /// to the stream's answers. Nothing is built here: `push`
    /// already appended the interval, and this hands out another handle to
    /// that graph — O(1) whatever the length of the stream, so publishing
    /// after every interval costs no more than publishing in batches.
    pub fn snapshot(&mut self) -> GraphSnapshot {
        GraphSnapshot::from_arc(Arc::clone(&self.graph), self.graph.num_intervals() as u64)
    }

    /// Replay an existing cluster graph interval by interval (mainly for
    /// testing the equivalence with the batch algorithm).
    pub fn replay(params: KlStableParams, graph: &ClusterGraph) -> Self {
        let mut online = OnlineStableClusters::new(params, graph.gap());
        for interval in 0..graph.num_intervals() as u32 {
            online.push_interval(graph.interval_parent_edges(interval));
        }
        online
    }
}

/// Convenience wrapper that ingests raw keyword clusters: it keeps the
/// clusters of the last `g + 1` intervals, computes affinity edges against
/// them for every new interval, and feeds the result to
/// [`OnlineStableClusters`].
pub struct OnlineClusterFeed {
    solver: OnlineStableClusters,
    affinity: Box<dyn Affinity>,
    theta: f64,
    /// Clusters of the last `g + 1` ingested intervals (interval, clusters).
    recent: Vec<(u32, Vec<KeywordCluster>)>,
}

impl std::fmt::Debug for OnlineClusterFeed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnlineClusterFeed")
            .field("solver", &self.solver)
            .field("theta", &self.theta)
            .field("affinity", &self.affinity.name())
            .finish()
    }
}

impl OnlineClusterFeed {
    /// Create a feed.
    pub fn new(params: KlStableParams, gap: u32, affinity: Box<dyn Affinity>, theta: f64) -> Self {
        OnlineClusterFeed {
            solver: OnlineStableClusters::new(params, gap),
            affinity,
            theta,
            recent: Vec::new(),
        }
    }

    /// Ingest the clusters of the next interval.
    pub fn push_clusters(&mut self, clusters: Vec<KeywordCluster>) {
        let interval = self.solver.num_intervals() as u32;
        let mut parent_edges: Vec<Vec<(ClusterNodeId, f64)>> = vec![Vec::new(); clusters.len()];
        for (old_interval, old_clusters) in &self.recent {
            if interval - old_interval > self.solver.graph().max_edge_length() {
                continue;
            }
            for (new_index, new_cluster) in clusters.iter().enumerate() {
                for (old_index, old_cluster) in old_clusters.iter().enumerate() {
                    let value = self.affinity.affinity(old_cluster, new_cluster);
                    if value > self.theta {
                        parent_edges[new_index].push((
                            ClusterNodeId::new(*old_interval, old_index as u32),
                            value.min(1.0),
                        ));
                    }
                }
            }
        }
        self.solver.push_interval(parent_edges);
        self.recent.push((interval, clusters));
        let keep_from = interval.saturating_sub(self.solver.graph().gap());
        self.recent.retain(|(i, _)| *i >= keep_from);
    }

    /// The current top-k stable clusters
    /// ([`OnlineStableClusters::current_top_k`]).
    pub fn current_top_k(&mut self) -> BscResult<Vec<ClusterPath>> {
        self.solver.current_top_k()
    }

    /// Access the underlying solver (e.g. for statistics).
    pub fn solver(&self) -> &OnlineStableClusters {
        &self.solver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affinity::JaccardAffinity;
    use crate::bfs::{threshold_scenario, BfsStableClusters};
    use crate::snapshot::SnapshotCell;
    use crate::synthetic::{ClusterGraphGenerator, SyntheticGraphParams};
    use bsc_corpus::timeline::IntervalId;
    use bsc_corpus::vocabulary::KeywordId;
    use bsc_util::DetRng;

    #[test]
    fn streaming_matches_batch_bfs() {
        for seed in 0..4 {
            for gap in [0, 1, 2] {
                let graph = ClusterGraphGenerator::new(SyntheticGraphParams {
                    num_intervals: 6,
                    nodes_per_interval: 12,
                    avg_out_degree: 3,
                    gap,
                    seed: seed + 200,
                })
                .generate();
                for l in [2, 3, 5] {
                    let params = KlStableParams::new(4, l);
                    let batch = BfsStableClusters::new(params).run(&graph).unwrap();
                    let online = OnlineStableClusters::replay(params, &graph)
                        .current_top_k()
                        .unwrap();
                    assert_eq!(batch.len(), online.len(), "seed={seed} gap={gap} l={l}");
                    for (a, b) in batch.iter().zip(online.iter()) {
                        assert!(
                            (a.weight() - b.weight()).abs() < 1e-9,
                            "seed={seed} gap={gap} l={l}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn replayed_snapshot_reconstructs_the_graph_bit_for_bit() {
        let graph = ClusterGraphGenerator::new(SyntheticGraphParams {
            num_intervals: 5,
            nodes_per_interval: 10,
            avg_out_degree: 3,
            gap: 1,
            seed: 42,
        })
        .generate();
        let mut online = OnlineStableClusters::replay(KlStableParams::new(3, 2), &graph);
        let snapshot = online.snapshot();
        assert_eq!(snapshot.epoch(), graph.num_intervals() as u64);
        assert_eq!(snapshot.num_nodes(), graph.num_nodes());
        assert_eq!(snapshot.num_edges(), graph.num_edges());
        for (from, to, weight) in graph.edges() {
            assert_eq!(
                snapshot.edge_weight(from, to).map(f64::to_bits),
                Some(weight.to_bits()),
                "{from} -> {to}"
            );
        }
        // Repeated calls between ingests hand out the same graph.
        assert!(std::sync::Arc::ptr_eq(
            snapshot.graph(),
            online.snapshot().graph()
        ));
    }

    #[test]
    fn installed_snapshots_swap_epochs_as_intervals_arrive() {
        let cell = SnapshotCell::empty();
        let mut online = OnlineStableClusters::new(KlStableParams::new(2, 1), 0);
        online.push_interval(vec![Vec::new(), Vec::new()]);
        let first = cell.install(online.snapshot());
        assert_eq!(first.epoch(), 1);
        assert_eq!(cell.load().num_intervals(), 1);

        let pinned = cell.load();
        online.push_interval(vec![vec![(ClusterNodeId::new(0, 0), 0.75)]]);
        let second = cell.install(online.snapshot());
        assert_eq!(second.epoch(), 2);
        assert_eq!(cell.load().num_intervals(), 2);
        assert_eq!(cell.load().num_edges(), 1);
        // The query that pinned the old epoch still sees the old graph.
        assert_eq!(pinned.num_intervals(), 1);
        assert_eq!(pinned.num_edges(), 0);
    }

    #[test]
    fn incremental_results_grow_monotonically() {
        let graph = ClusterGraphGenerator::new(SyntheticGraphParams {
            num_intervals: 6,
            nodes_per_interval: 10,
            avg_out_degree: 3,
            gap: 0,
            seed: 1,
        })
        .generate();
        let params = KlStableParams::new(3, 2);
        let mut online = OnlineStableClusters::new(params, graph.gap());
        let mut previous_best = f64::NEG_INFINITY;
        for interval in 0..graph.num_intervals() as u32 {
            online.push_interval(graph.interval_parent_edges(interval));
            let best = online
                .current_top_k()
                .unwrap()
                .first()
                .map(|p| p.weight())
                .unwrap_or(f64::NEG_INFINITY);
            assert!(best >= previous_best - 1e-12, "best path weight regressed");
            previous_best = best;
        }
        assert_eq!(online.num_intervals(), 6);
        assert!(online.edges_ingested() > 0);
    }

    /// A stream of `pushes` intervals of `nodes` nodes, each node with up to
    /// `parents` random parents within the gap.
    fn random_stream(pushes: u32, nodes: u32, parents: u32, gap: u32) -> ClusterGraph {
        let mut graph = ClusterGraphBuilder::new(gap).build();
        let mut rng = DetRng::seed_from_u64(77);
        for interval in 0..pushes {
            let edges: Vec<Vec<(ClusterNodeId, f64)>> = (0..nodes)
                .map(|_| {
                    let mut edges: Vec<(ClusterNodeId, f64)> = Vec::new();
                    while edges.len() < parents.min(interval * nodes) as usize {
                        let back = rng.range_inclusive(1, u64::from(interval.min(gap + 1))) as u32;
                        let parent =
                            ClusterNodeId::new(interval - back, rng.index(nodes as usize) as u32);
                        if edges.iter().all(|(held, _)| *held != parent) {
                            edges.push((parent, 0.05 + 0.95 * rng.next_f64()));
                        }
                    }
                    edges
                })
                .collect();
            graph = graph.append(nodes, &in_edges(&edges)).unwrap();
        }
        graph
    }

    #[test]
    fn an_answer_after_a_push_solves_one_window_and_carries_the_rest() {
        // After each push the window that ends at the new interval is solved
        // and the last answer stands for every older one; a second answer
        // without a push solves nothing. Each answer is batch BFS's on the
        // graph-so-far, and all the stream keeps of it is its k paths.
        let (l, gap) = (3u32, 1u32);
        let params = KlStableParams::new(5, l);
        let stream = random_stream(40, 20, 4, gap);
        let mut online = OnlineStableClusters::new(params, gap);
        for interval in 0..stream.num_intervals() as u32 {
            online.push_interval(stream.interval_parent_edges(interval));
            let before = online.stats();
            let answer = online.current_top_k().unwrap();
            let batch = BfsStableClusters::new(params).run(online.graph()).unwrap();
            assert_eq!(answer, batch, "push {interval}");
            assert_eq!(online.answer.paths, answer, "push {interval}");
            assert!(Arc::ptr_eq(&online.answered, &online.graph));
            let stats = online.stats();
            let starts = (interval + 1).saturating_sub(l) as u64;
            let resolved = stats.windows_resolved - before.windows_resolved;
            let spliced = stats.windows_spliced - before.windows_spliced;
            assert_eq!(resolved, u64::from(starts > 0), "push {interval}");
            assert_eq!(spliced, starts.saturating_sub(1), "push {interval}");
            // Each answer that solves a window is one range on one chunk, and
            // answers in sequence merge the solve's shape by its larger value.
            let shape = usize::from(starts > 0);
            assert_eq!((stats.shards, stats.threads), (shape, shape));

            assert_eq!(online.current_top_k().unwrap(), answer, "push {interval}");
            assert_eq!(online.stats(), stats, "push {interval}");
        }
        assert!(online.stats().windows_spliced > 0);
    }

    #[test]
    fn the_stream_answers_the_threshold_scenario_after_every_push() {
        // `bfs::threshold_scenario`: lane `a` is the answer once four
        // intervals have arrived, lane `b`, one step heavier, once all six
        // have.
        let (graph, late) = threshold_scenario(0);
        let early = ClusterPath::new((0..4).map(|v| ClusterNodeId::new(v, 0)).collect(), 2.75);
        let mut online = OnlineStableClusters::new(KlStableParams::new(1, 3), 0);
        for interval in 0..6 {
            online.push_interval(graph.interval_parent_edges(interval));
            let expected = match interval {
                0..=2 => vec![],
                3 | 4 => vec![early.clone()],
                _ => vec![late.clone()],
            };
            assert_eq!(online.current_top_k().unwrap(), expected, "push {interval}");
        }
    }

    #[test]
    #[should_panic(expected = "(0, 1]")]
    fn rejects_weights_above_one() {
        // A batch build would renormalize every edge by a weight above 1;
        // the append never renormalizes, so it must not admit one.
        let mut online = OnlineStableClusters::new(KlStableParams::new(2, 1), 0);
        online.push_interval(vec![Vec::new()]);
        online.push_interval(vec![vec![(ClusterNodeId::new(0, 0), 1.5)]]);
    }

    #[test]
    #[should_panic(expected = "exceeds the gap")]
    fn rejects_edges_beyond_gap() {
        let mut online = OnlineStableClusters::new(KlStableParams::new(2, 2), 0);
        online.push_interval(vec![Vec::new()]);
        online.push_interval(vec![Vec::new()]);
        // Edge from interval 0 to interval 2 with gap 0 is invalid.
        online.push_interval(vec![vec![(ClusterNodeId::new(0, 0), 0.5)]]);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn rejects_unknown_parents() {
        let mut online = OnlineStableClusters::new(KlStableParams::new(2, 2), 1);
        online.push_interval(vec![Vec::new()]);
        online.push_interval(vec![vec![(ClusterNodeId::new(0, 5), 0.5)]]);
    }

    fn cluster(interval: u32, id: u32, keywords: &[u32]) -> KeywordCluster {
        KeywordCluster::new(
            id,
            IntervalId(interval),
            keywords.iter().map(|&k| KeywordId(k)),
            vec![],
        )
    }

    #[test]
    fn cluster_feed_connects_overlapping_clusters() {
        let params = KlStableParams::new(2, 2);
        let mut feed = OnlineClusterFeed::new(params, 0, Box::new(JaccardAffinity), 0.1);
        feed.push_clusters(vec![cluster(0, 0, &[1, 2, 3]), cluster(0, 1, &[50, 51])]);
        feed.push_clusters(vec![cluster(1, 0, &[1, 2, 3, 4])]);
        feed.push_clusters(vec![cluster(2, 0, &[1, 2, 3, 4, 5])]);
        let top = feed.current_top_k().unwrap();
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].length(), 2);
        assert_eq!(top[0].nodes()[0], ClusterNodeId::new(0, 0));
        assert!(top[0].weight() > 1.0);
        assert_eq!(feed.solver().num_intervals(), 3);
    }

    #[test]
    fn cluster_feed_with_the_widest_gap_reaches_every_earlier_interval() {
        // `gap + 1` used to wrap to 0 and skip every earlier interval.
        let params = KlStableParams::new(2, 2);
        let mut feed = OnlineClusterFeed::new(params, u32::MAX, Box::new(JaccardAffinity), 0.1);
        feed.push_clusters(vec![cluster(0, 0, &[1, 2, 3])]);
        feed.push_clusters(vec![cluster(1, 0, &[70, 71])]);
        feed.push_clusters(vec![cluster(2, 0, &[1, 2, 3, 4])]);
        let top = feed.current_top_k().unwrap();
        assert_eq!(top.len(), 1);
        assert_eq!(
            top[0].nodes(),
            [ClusterNodeId::new(0, 0), ClusterNodeId::new(2, 0)]
        );
    }

    #[test]
    fn cluster_feed_respects_theta() {
        let params = KlStableParams::new(2, 1);
        let mut feed = OnlineClusterFeed::new(params, 0, Box::new(JaccardAffinity), 0.9);
        feed.push_clusters(vec![cluster(0, 0, &[1, 2, 3])]);
        feed.push_clusters(vec![cluster(1, 0, &[1, 2, 9, 10])]);
        // Jaccard = 2/5 = 0.4 < 0.9 -> no edge, no paths.
        assert!(feed.current_top_k().unwrap().is_empty());
    }
}
