//! Incremental epoch-delta solving: answer a grown graph from the answer of
//! the graph it grew from, solving only the start windows the growth added.
//!
//! The start-window decomposition (`docs/sharding.md`) makes the global
//! top-k the strict `(score, content)` merge of per-start-window top-k's.
//! This module adds the *temporal* consequence, the one the paper's online
//! algorithm (Section 4.6) rests on: when a graph extends an earlier one by
//! appends only — the streamed-ingest case, where every pushed interval
//! appends one column — every path of the earlier graph is still a path,
//! with the same weight, and the new paths are exactly those of the start
//! windows that reach an appended interval (the *tail* windows). So the new
//! top-k is the merge of the earlier [`Answer`] with the tail windows' paths,
//! and each tail window may prune by the earlier k-th weight. The whole rule,
//! in one sentence: *an answer is carried iff [`GraphDelta::between`] the
//! graph it was solved on and the graph being queried finds that the latter
//! extends the former by appends only, checked when it is used* — nothing
//! records, caps or composes per-epoch deltas in between. [`solve_windows`]
//! runs the crate's one windowed solver,
//! [`ShardedSolver`](crate::sharded::ShardedSolver), over the whole graph or
//! over its tail, on local threads or on a fan-out's workers as the query's
//! options say.
//!
//! ## Why the merge is byte-identical to a cold solve
//!
//! [`GraphDelta::between`] holds an interval unchanged when its node count
//! and its full in-edge multiset (source node, target node, exact weight
//! bits) are equal across the two graphs, and finds appends only when the
//! new graph has at least as many intervals and every old one is unchanged.
//! Say the old graph has `o` intervals and the new one `m ≥ o`, appends
//! only. For paths of length `l`:
//!
//! 1. **Every old path keeps its weight bits.** Each of its edges targets one
//!    of the old intervals, whose in-edges are equal to the bit, so the path
//!    exists in the new graph and sums the same weights in the same order.
//!    Conversely a new-graph path that ends before interval `o` lies wholly
//!    in unchanged intervals: it is an old path.
//! 2. **The new paths are exactly those of the tail windows.** A path
//!    starting at `a` lies in the window `[a, a + l]`; it is new iff it
//!    reaches interval `o`, i.e. iff `a ≥ o − l`. Those are the starts
//!    `o − l .. m − l` (from 0 when `o ≤ l`), and the old starts `0 .. o − l`
//!    are exactly those of the old graph.
//! 3. **Nothing below the old k-th weight can enter the answer.** The old
//!    answer is the top-k of every old path, so no other old path can enter;
//!    if it holds `k` paths, all of them stay, and a candidate below the
//!    k-th of them loses to `k` of them. So each tail window is solved with
//!    that weight as its floor (the floor of `Completions::lens`, which a
//!    local sharded solve hands its windows too, judged with
//!    `can_still_reach`'s slack): its
//!    result keeps every path of it that can enter the merge. With fewer
//!    than `k` carried paths the floor is `−∞`.
//! 4. **On an exact tie, a carried path sorts first.** Content order compares
//!    node sequences front to back, and a carried path starts before
//!    interval `o − l`, every tail path at or after it. So a tail path tied
//!    with the old k-th weight never displaces a carried one, and the floor
//!    may keep or drop it.
//!
//! The top-k under the total `(score desc, content asc)` order is unique,
//! so merging the carried paths with the tail windows' results is the cold
//! answer, byte for byte. The two graphs need not be consecutive epochs: a
//! stream's epochs share every segment an append left alone, so across any
//! number of ingests the comparison is `O(m)` pointer tests, and for
//! segments the two graphs do not share (a `load` replaced the graph
//! mid-stream) it falls back to comparing content — slower, never wrong.
//! Anything else — a changed interval, a shorter graph, an answer to
//! another `l` or `k` — solves cold.
//!
//! **Counters.** On every windowed answer `windows_resolved +
//! windows_spliced` is the graph's number of starts, which a debug build
//! checks: `windows_resolved` counts the windows decided now (swept or
//! ruled out), `windows_spliced` the old graph's starts, which the carried
//! answer stands for. A top-0 query, and a full path of a one-interval
//! graph (no edge, so no window), decide no window.
//!
//! Problem 2 (normalized) does **not** decompose across start windows and
//! is rejected. `FullPaths` degrades gracefully: its length grows with the
//! graph, so an answer to a shorter graph never carries — correct, just
//! never faster.

use crate::cluster_graph::ClusterGraph;
use crate::error::BscResult;
use crate::path::ClusterPath;
use crate::problem::StableClusterSpec;
use crate::sharded::{PathLength, Windowed};
use crate::solver::{AlgorithmKind, Solution, SolverOptions};
use crate::topk::{is_answer, TopKPaths};

/// Whether one [`ClusterGraph`] generation extends another by appends only.
///
/// Interval indices are stable identifiers across epochs (the streaming
/// layer appends new intervals and may drop edges of evicted ones, but
/// never renumbers), so the newer generation extends the older one when it
/// has at least as many intervals and each of the older one's intervals
/// holds the same node count and the same in-edge multiset in both.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphDelta {
    old_intervals: u32,
    new_intervals: u32,
    appends_only: bool,
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
    /// Compare two graph generations over the older one's intervals,
    /// stopping at the first that differs.
    ///
    /// An interval whose in-edge segment both graphs *share*
    /// ([`ClusterGraph::shares_in_edges`]) is equal in O(1): a segment is
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
        let appends_only = old_intervals <= new_intervals
            && (0..old_intervals).all(|i| {
                old.shares_in_edges(new, i)
                    || old.nodes_in_interval(i) == new.nodes_in_interval(i)
                        && interval_in_edge_signature(old, i) == interval_in_edge_signature(new, i)
            });
        GraphDelta {
            old_intervals,
            new_intervals,
            appends_only,
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

    /// Whether the new generation extends the old one by appends only: it
    /// has at least as many intervals, and every interval of the old
    /// generation is unchanged in it.
    pub fn only_appends(&self) -> bool {
        self.appends_only
    }
}

/// The answer a later solve merges from: the top-k paths of length `l` of
/// the graph it was solved on, best first, as a solve returns them.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Exact path length the answer was solved for.
    pub l: u32,
    /// Top-k size the answer was solved for.
    pub k: usize,
    /// The answer's paths (at most `k`), in descending `(score, content)`
    /// order.
    pub paths: Vec<ClusterPath>,
}

impl Answer {
    /// The weight nothing below which can enter a later merge: the k-th
    /// path's, or `−∞` while the answer holds fewer than `k` paths.
    fn floor(&self) -> f64 {
        let full = self.paths.len() == self.k;
        let kth = self.paths.last().filter(|_| full);
        kth.map_or(f64::NEG_INFINITY, ClusterPath::weight)
    }
}

/// What a windowed solve produces: its counters, and the top-k as the
/// [`Answer`] a later solve of a grown graph merges from. The paths are held
/// once, in `windows`.
#[derive(Debug)]
pub struct DeltaSolveOutcome {
    /// The solve's stats and I/O; its `paths` are empty (see
    /// [`DeltaSolveOutcome::into_solution`]).
    pub solution: Solution,
    /// The top-k — byte-identical to a cold unsharded solve — and the
    /// answer the next epoch merges from.
    pub windows: Answer,
}

impl DeltaSolveOutcome {
    /// The top-k as a [`Solution`]: `windows`' paths with `solution`'s stats.
    pub fn into_solution(self) -> Solution {
        Solution {
            paths: self.windows.paths,
            ..self.solution
        }
    }
}

/// Solve a kl-stable-cluster query window by window, carrying an earlier
/// answer forward when this graph extends the graph it was solved on.
///
/// With `prior == None`, or a prior that does not carry — solved for
/// another `l` or `k`, or whose [`GraphDelta`] does not land on this graph
/// by appends only — this is a cold windowed
/// solve of the whole graph, and `stats.windows_resolved` counts every
/// window. With a prior that carries, only the tail windows — those that
/// reach an interval the older graph lacks — are solved, each pruned by the
/// prior's k-th weight, and merged with the prior's paths:
/// `stats.windows_spliced` counts the older graph's starts, and the result is
/// byte-identical by the argument in the module docs. The returned stats
/// describe the work *this* solve performed. Windows are placed by the same
/// [`ShardedSolver`](crate::sharded::ShardedSolver)
/// [`AlgorithmKind::build_with_options`] would build: on `options.shards`
/// local threads, or, with `options.fanout`, on the registered transport's
/// workers (unfloored) — so a coordinator dispatches only the tail windows,
/// and the workers key the graph they are shipped by `graph`'s own id: an
/// engine's pinned snapshot is shipped once, not once per query. An
/// unbudgeted `Auto` resolves once against the whole of `graph`, as the
/// direct solve would.
pub fn solve_windows(
    graph: &ClusterGraph,
    spec: StableClusterSpec,
    k: usize,
    algorithm: AlgorithmKind,
    options: &SolverOptions,
    prior: Option<(&Answer, &GraphDelta)>,
) -> BscResult<DeltaSolveOutcome> {
    let length = PathLength::of(spec, "delta")?;
    let solver = algorithm.windowed(spec, k, options.clone())?;
    let m = graph.num_intervals() as u32;
    let l = length.over(m);
    let carried = prior.filter(|(answer, delta)| {
        let question = answer.l == l && answer.k == k;
        question && delta.new_intervals() == m && delta.only_appends()
    });
    let mut windowed = Windowed::new(&solver, graph.view());
    if let Some((answer, delta)) = carried {
        // The starts the answer stands for; the tail starts after them.
        windowed.from = delta.old_intervals().saturating_sub(l);
        windowed.floor = answer.floor();
    }
    let spliced = windowed.from;
    let mut solution = windowed.run()?;
    let mut paths = std::mem::take(&mut solution.paths);
    if let Some((answer, _)) = carried {
        let mut merged = TopKPaths::new(k);
        // bsc:allow(missing-cancel-checkpoint) -- at most 2k paths: the carried answer and the tail's merged top-k
        for path in answer.paths.iter().cloned().chain(paths) {
            merged.offer_by_weight(path);
        }
        paths = merged.into_sorted();
        solution.stats.windows_spliced = u64::from(spliced);
        debug_assert!(is_answer(&paths, k), "a merged answer out of order");
    }
    let windows = Answer { l, k, paths };
    Ok(DeltaSolveOutcome { solution, windows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster_graph::{in_edges, ClusterGraphBuilder};
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
        assert!(delta.only_appends());
        assert_eq!((delta.old_intervals(), delta.new_intervals()), (6, 6));
    }

    #[test]
    fn an_appended_interval_is_an_append_and_its_removal_is_not() {
        let graph = gen_graph(6, 7);
        let mut rng = DetRng::seed_from_u64(1);
        let extended = extend_graph(&graph, 1, 6, &mut rng);
        let delta = GraphDelta::between(&graph, &extended);
        assert!(delta.only_appends());
        assert_eq!((delta.old_intervals(), delta.new_intervals()), (6, 7));
        // Backwards, the shorter graph lacks an interval: not an append.
        let shorter = GraphDelta::between(&extended, &graph);
        assert!(!shorter.only_appends());
        assert_eq!((shorter.old_intervals(), shorter.new_intervals()), (7, 6));
    }

    #[test]
    fn a_changed_weight_is_not_an_append() {
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
        assert!(!GraphDelta::between(&old, &new).only_appends());
        // The interval before the changed one still compares equal.
        let first = |graph: &ClusterGraph| {
            let mut builder = ClusterGraphBuilder::new(0);
            builder.add_interval(graph.nodes_in_interval(0));
            builder.build()
        };
        assert!(GraphDelta::between(&first(&old), &new).only_appends());
    }

    #[test]
    fn merged_solve_is_byte_identical_to_cold_across_random_appends() {
        for seed in [11u64, 12, 13] {
            let mut rng = DetRng::seed_from_u64(seed);
            let mut graph = gen_graph(5, seed);
            let spec = StableClusterSpec::ExactLength(2);
            let options = SolverOptions::default();
            let mut prior: Option<Answer> = None;
            for _round in 0..4 {
                let next = extend_graph(&graph, 1, 6, &mut rng);
                let delta = GraphDelta::between(&graph, &next);
                let cold = solve_windows(&next, spec, 4, AlgorithmKind::Bfs, &options, None)
                    .expect("cold solve");
                let prior_and_delta = prior.as_ref().map(|answer| (answer, &delta));
                let warm = solve_windows(
                    &next,
                    spec,
                    4,
                    AlgorithmKind::Bfs,
                    &options,
                    prior_and_delta,
                )
                .expect("warm solve");
                assert_eq!(cold.windows.paths, warm.windows.paths);
                let starts = next.num_intervals() as u64 - 2;
                let stats = warm.solution.stats;
                assert_eq!(stats.windows_resolved + stats.windows_spliced, starts);
                if prior.is_some() {
                    assert_eq!(
                        (stats.windows_resolved, stats.windows_spliced),
                        (1, starts - 1)
                    );
                }
                assert_eq!(cold.solution.stats.windows_resolved, starts);
                assert!(warm.windows.paths.len() <= 4);
                prior = Some(warm.windows);
                graph = next;
            }
        }
    }

    #[test]
    fn merges_on_tied_weights_answer_as_batch_bfs() {
        // Ties are where the floor is tight: a tail path that ties the
        // carried k-th weight must lose to it, whatever the floor keeps. Over
        // every weighting of the look-ahead battery, each `l` and `k` below,
        // at and above the number of tied paths, every answer of a stream
        // merged push by push is batch BFS's, bit for bit.
        use crate::bfs::BfsStableClusters;
        use crate::lookahead::{reweighted, WEIGHTINGS};
        use crate::problem::KlStableParams;
        let base = gen_graph(9, 31);
        let options = SolverOptions::default();
        for (name, weight) in WEIGHTINGS {
            let whole = reweighted(&base, weight);
            for l in [1, 2, 3] {
                for k in [1, 3, 6, 40] {
                    let spec = StableClusterSpec::ExactLength(l);
                    let mut graph = ClusterGraphBuilder::new(whole.gap()).build();
                    let mut answer = Answer {
                        l,
                        k,
                        paths: Vec::new(),
                    };
                    for interval in 0..whole.num_intervals() as u32 {
                        let nodes = whole.nodes_in_interval(interval);
                        let edges = in_edges(&whole.interval_parent_edges(interval));
                        let next = graph.append(nodes, &edges).unwrap();
                        let delta = GraphDelta::between(&graph, &next);
                        let kind = AlgorithmKind::Bfs;
                        let prior = Some((&answer, &delta));
                        let merged = solve_windows(&next, spec, k, kind, &options, prior);
                        let merged = merged.unwrap();
                        let batch = BfsStableClusters::new(KlStableParams::new(k, l));
                        let expected = batch.run(&next.clone()).unwrap();
                        let case = format!("{name} l={l} k={k} interval={interval}");
                        assert_eq!(merged.windows.paths, expected, "{case}");
                        let starts = (interval + 1).saturating_sub(l);
                        let stats = merged.solution.stats;
                        assert_eq!(stats.windows_resolved, u64::from(starts > 0), "{case}");
                        assert_eq!(
                            stats.windows_spliced,
                            u64::from(starts.max(1) - 1),
                            "{case}"
                        );
                        answer = merged.windows;
                        graph = next;
                    }
                }
            }
        }
    }

    #[test]
    fn fed_queries_in_any_order_answer_cold_and_keep_one_last_window_table() {
        // An epoch's fed queries each solve the one tail window the push
        // added, and the graph keeps the deepest last window's table asked:
        // a shallower query reads it, a deeper one deepens it. After each
        // push of a gap-1 stream, on the four weightings (uniform,
        // tie-heavy, all-equal and two-valued), every order of
        // `l` ∈ {1, 2, 3, 4}, each at `k` ∈ {1, 3, 7}, by BFS and by TA over
        // two shards, merges the last epoch's answer into batch BFS's answer
        // on a clone, bit for bit; once every `l` merges one tail window, the
        // graph keeps exactly one table, at `l = 4`. Every other order runs
        // on a clone, which deepens its table as the order asks deeper, and
        // the rest on a fresh append of a graph the last epoch asked every
        // `l` of, whose first query, whichever `l`, builds the table at
        // `l = 4` once the graph holds that window.
        use crate::bfs::BfsStableClusters;
        use crate::lookahead::{reweighted, WEIGHTINGS};
        use crate::problem::KlStableParams;
        let base = ClusterGraphGenerator::new(SyntheticGraphParams {
            num_intervals: 9,
            nodes_per_interval: 6,
            avg_out_degree: 3,
            gap: 1,
            seed: 4_321,
        })
        .generate();
        let lengths = [1, 2, 3, 4];
        let orders: Vec<[u32; 4]> = (0..4 * 4 * 4 * 4)
            .map(|code: u32| lengths.map(|l| lengths[(code >> (2 * (l - 1)) & 3) as usize]))
            .filter(|order| (1..=4).all(|l| order.contains(&l)))
            .collect();
        assert_eq!(orders.len(), 24);
        let algorithms = [
            (AlgorithmKind::Bfs, SolverOptions::default()),
            (AlgorithmKind::Ta, SolverOptions::default().shards(2)),
        ];
        let ks = [1, 3, 7];
        let mut merged_one_window = 0;
        for (name, weight) in WEIGHTINGS {
            let whole = reweighted(&base, weight);
            let mut graph = ClusterGraphBuilder::new(whole.gap()).build();
            let mut answers: Vec<Answer> = lengths
                .iter()
                .flat_map(|&l| {
                    ks.map(|k| Answer {
                        l,
                        k,
                        paths: Vec::new(),
                    })
                })
                .collect();
            for interval in 0..whole.num_intervals() as u32 {
                let nodes = whole.nodes_in_interval(interval);
                let edges = in_edges(&whole.interval_parent_edges(interval));
                let next = graph.append(nodes, &edges).unwrap();
                let cold: Vec<Answer> = answers
                    .iter()
                    .map(|&Answer { l, k, .. }| {
                        let batch = BfsStableClusters::new(KlStableParams::new(k, l));
                        let paths = batch.run(&next.clone()).unwrap();
                        Answer { l, k, paths }
                    })
                    .collect();
                let mut asked_all = None;
                for (index, order) in orders.iter().enumerate() {
                    // A clone starts cold and deepens its table as the
                    // order asks deeper; a fresh append of the last epoch's
                    // fed graph builds its first one as deep as that graph
                    // was asked.
                    let fed = match index % 2 {
                        0 => next.clone(),
                        _ => graph.append(nodes, &edges).unwrap(),
                    };
                    let delta = GraphDelta::between(&graph, &fed);
                    for &l in order {
                        let asked = answers
                            .iter()
                            .zip(&cold)
                            .filter(|(answer, _)| answer.l == l);
                        for (prior, cold) in asked {
                            for (kind, options) in &algorithms {
                                let spec = StableClusterSpec::ExactLength(l);
                                let carried = Some((prior, &delta));
                                let merged =
                                    solve_windows(&fed, spec, prior.k, *kind, options, carried);
                                let k = prior.k;
                                let case = format!(
                                    "{name} {kind} interval={interval} {order:?} l={l} k={k}"
                                );
                                assert_eq!(merged.unwrap().windows.paths, cold.paths, "{case}");
                            }
                        }
                    }
                    if interval > 4 {
                        assert_eq!(fed.memoized(), [4], "{name} interval={interval} {order:?}");
                        merged_one_window += 1;
                    }
                    asked_all = Some(fed);
                }
                answers = cold;
                graph = asked_all.unwrap();
            }
        }
        assert_eq!(merged_one_window, 4 * 4 * 24);
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
        assert_eq!(cold.windows.paths, warm.windows.paths);
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
    fn a_delta_that_is_not_an_append_forces_every_window_to_resolve() {
        let graph = gen_graph(6, 8);
        let spec = StableClusterSpec::ExactLength(2);
        let options = SolverOptions::default();
        let cold = solve_windows(&graph, spec, 3, AlgorithmKind::Bfs, &options, None).unwrap();
        // An unrelated graph of the same shape differs in its in-edges.
        let unrelated = GraphDelta::between(&gen_graph(6, 9), &graph);
        assert!(!unrelated.only_appends());
        let warm = solve_windows(
            &graph,
            spec,
            3,
            AlgorithmKind::Bfs,
            &options,
            Some((&cold.windows, &unrelated)),
        )
        .unwrap();
        assert_eq!(warm.solution.stats.windows_spliced, 0);
        assert_eq!(warm.solution.stats.windows_resolved, 4);
        assert_eq!(cold.windows.paths, warm.windows.paths);
    }
}
