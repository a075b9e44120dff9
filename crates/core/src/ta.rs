//! Adaptation of the Threshold Algorithm (Section 4.4).
//!
//! The classic TA of Fagin, Lotem and Naor aggregates sorted attribute lists;
//! here every pair of temporal intervals within the gap bound contributes one
//! list of cluster-graph edges sorted by descending weight, and the objects
//! being ranked are the **full paths** (length `m − 1`) of the view.
//!
//! *Sorted access* is the round-robin scan: one edge is popped from each list
//! in turn, and the scan stops when the k-th best path found strictly
//! outweighs the *virtual path* assembled from the highest unseen edge weight
//! of each list — no path made of unseen edges can weigh more.
//!
//! *Random access* is the expansion of a popped edge `(from, to)` into the
//! full paths through it: a walk back over [`GraphView::parents`] from `from`
//! to the first interval, and for each prefix that arrives a walk forward
//! over [`GraphView::children`] from `to` to the last. Each walk is a
//! depth-first descent that streams: it holds one path, not a set of them,
//! weighs a candidate once it is complete — left to right over its edges, as
//! Algorithm 2 does, so the two solvers' answers agree to the bit — and
//! offers it to the top-k heap `H`. A cancellation checkpoint sits on every
//! step of both walks.
//!
//! The paper discards an edge by `startwts` and `endwts`, the best suffix
//! after it and the best prefix before it, and learns those by enumerating
//! every prefix and suffix of the edges it has popped. Here they are the two
//! look-ahead tables of the crate-private `lookahead` module, each filled in
//! one pass over the view before the first edge is popped: `startwts[c]` the
//! heaviest path from `c` to the last interval (`Completions`, the table
//! Algorithm 2 bounds its subpaths by), and with it `θ₀`, the k-th best
//! `startwts` of the first interval, which the k-th answer is known to reach
//! (in a window of a sharded solve, raised to the floor the merged answer
//! reaches); then `endwts[c]`, the heaviest path to `c` from an *admitted*
//! start (`Arrivals`) — a node `s` of the first interval whose `startwts[s]`
//! reaches the floor by `Lens::can_start`, the slack counted twice. So the
//! bound (`problem::can_still_reach`, the one definition and slack BFS uses)
//! is exact and stands from the start:
//!
//! * a list holds only the edges whose best full path from an admitted start
//!   reaches `θ₀`;
//! * a popped edge is expanded only if that path reaches the current
//!   threshold, `max(θ₀, H's)`, read once per edge so that the work done
//!   does not depend on the order of a node's parents;
//! * a walk steps only to a parent (child) through which the best path
//!   still reaches that threshold.
//!
//! **Why seeding only the admitted starts is exact.** A path from a start `s`
//! the lens rejects weighs at most `C[s][l]`, its best full path, to within
//! `can_still_reach`'s slack however it is summed — a prefix left to right
//! joined to the best suffix after an edge included. `can_start` counts that
//! slack twice, so no such path can reach the floor, and every threshold a
//! TA test uses is at least the floor. So every prefix the seeding drops
//! could never pass `Search::reaches`: an edge whose heaviest arrival comes
//! from a rejected start is pruned whether `endwts` counts that start or
//! not, and an edge only rejected starts reach lies on no answer. An answer
//! starts at an admitted start, so each of its edges is listed and each of
//! its prefixes survives the walk back, and the virtual-path bound over the
//! lists that remain still bounds every path not yet found. Lists,
//! expansions, answers and counters are those of arrivals seeded by every
//! start; what changes is what is read. The forward pass walks only the
//! nodes an admitted start reaches, and keeps them per interval in index
//! order (`Arrivals::reached`); the listing pass walks those lists alone, in
//! the same order the scan of every node listed in. A node no admitted
//! start reaches is never looked at, and its edges count as pruned, unread
//! (`prunes` is the view's edges less those listed). So past the two tables'
//! set-up a run costs what its admitted starts reach, not the view's width:
//! in a window of a sharded solve, handed the whole view's `θ₀`, a handful
//! of nodes.
//!
//! What is enumerated is therefore the near-answers, not `d^(m−1)` paths per
//! edge, and the cost of a solve is the two passes plus the sort of the edges
//! that survive. With all weights equal nothing is cut and the expansions are
//! as large as the paper's — which is what the checkpoints are for. The
//! adaptation remains restricted to full paths (`l = m − 1`); a sharded
//! subpath query runs it over start windows, each a view it spans in full.

use std::ops::Range;

use bsc_util::cancel::CancelToken;

use crate::cluster_graph::{ClusterNodeId, GraphView};
use crate::error::BscResult;
use crate::lookahead::{Arrivals, Completions, Lens};
use crate::path::ClusterPath;
use crate::problem::can_still_reach;
use crate::solver::{
    check_not_expired, checkpoint, AlgorithmKind, Solution, SolverStats, StableClusterSolver,
};
use crate::topk::TopKPaths;

/// The TA-based solver for top-k *full* stable-cluster paths.
#[derive(Debug, Clone)]
pub struct TaStableClusters {
    k: usize,
    cancel: Option<CancelToken>,
    /// A weight the caller's k-th answer is known to reach, listed and
    /// expanded against beside the view's own `θ₀`: a sharded solve's
    /// windows are handed the whole view's. `−∞` unless a window solve sets
    /// it.
    floor: f64,
}

/// An edge of a sorted list: `(weight, from, to)`.
type ListedEdge = (f64, ClusterNodeId, ClusterNodeId);

/// The sorted list of one interval pair (counted from the view's first
/// interval): where its edges not yet popped lie, heaviest first, in the
/// run's one vector of listed edges.
struct EdgeList {
    from: u32,
    to: u32,
    unseen: Range<usize>,
}

/// One TA run over a view: the two look-ahead tables, the top-k heap and the
/// counters.
struct Search<'a> {
    view: GraphView<'a>,
    /// The length of a full path, `m − 1`.
    l: u32,
    /// The view's own full-path table, or its graph's read as its own.
    startwts: Lens<'a>,
    endwts: Arrivals,
    global: TopKPaths,
    stats: SolverStats,
    cancel: Option<&'a CancelToken>,
    /// Amortization counter of the cancellation checkpoints.
    tick: u32,
    /// The nodes of the path a walk is on, reused from one to the next.
    path: Vec<ClusterNodeId>,
}

impl<'a> Search<'a> {
    /// Look ahead over `view` (at least two intervals) in both directions:
    /// everything a run knows before it pops its first edge. `startwts` is
    /// read off `table`, built for full paths of `view` over it or over a
    /// view that holds it, its `θ₀` raised to `floor` (the lens's own);
    /// `endwts` is filled here, from the starts `startwts` admits. `tick`
    /// carries on the amortization of the table's checkpoints.
    fn over(
        view: GraphView<'a>,
        k: usize,
        table: &'a Completions,
        floor: f64,
        cancel: Option<&'a CancelToken>,
        mut tick: u32,
    ) -> BscResult<Self> {
        let l = view.num_intervals() as u32 - 1;
        let startwts = table.lens(view, l, k, floor);
        let endwts = Arrivals::of(view, &startwts, cancel, &mut tick)?;
        Ok(Search {
            view,
            l,
            startwts,
            endwts,
            global: TopKPaths::new(k),
            stats: SolverStats::default(),
            cancel,
            tick,
            path: Vec::new(),
        })
    }

    /// Is there a full path that begins with a prefix of weight `before` at
    /// best, ends with a suffix of `after` at best, and can still reach
    /// `threshold`?
    fn reaches(&self, before: f64, after: f64, threshold: f64) -> bool {
        before + after > f64::NEG_INFINITY && can_still_reach(self.l, before, after, threshold)
    }

    /// The edges worth listing — those whose best full path from an
    /// admitted start reaches `θ₀` — one list per interval pair `(i, j)`,
    /// `j − i ≤ g + 1`, in that order, each by descending weight. Only the
    /// nodes an admitted start reaches are walked, in index order, interval
    /// by interval; every edge of the view not listed counts as pruned.
    fn sorted_lists(&mut self) -> BscResult<(Vec<ListedEdge>, Vec<EdgeList>)> {
        let view = self.view;
        let (first, floor) = (view.first_interval(), self.startwts.floor());
        let mut listed: Vec<ListedEdge> = Vec::new();
        let mut lists = Vec::new();
        for interval in view.intervals() {
            let begin = listed.len();
            for &index in self.endwts.reached(interval) {
                checkpoint(self.cancel, &mut self.tick)?;
                let from = ClusterNodeId::new(interval, index);
                let before = self.endwts.arriving(from);
                for edge in view.children(from) {
                    let after = self.startwts.to_the_end(edge.to);
                    if self.reaches(before + edge.weight, after, floor) {
                        listed.push((edge.weight, from, edge.to));
                    }
                }
            }
            let by_target_then_weight = |a: &ListedEdge, b: &ListedEdge| {
                let target = a.2.interval.cmp(&b.2.interval);
                target.then(b.0.total_cmp(&a.0))
            };
            listed[begin..].sort_by(by_target_then_weight);
            let mut at = begin;
            for list in listed[begin..].chunk_by(|a, b| a.2.interval == b.2.interval) {
                lists.push(EdgeList {
                    from: interval - first,
                    to: list[0].2.interval - first,
                    unseen: at..at + list.len(),
                });
                at += list.len();
            }
        }
        self.stats.prunes += (view.num_edges() - listed.len()) as u64;
        Ok((listed, lists))
    }

    /// Random access: offer `H` every full path through the edge
    /// `from → to` of weight `weight` that can still reach `threshold`. The
    /// walk back holds one prefix at a time — per node its parents yet to be
    /// tried — and hands each that arrives in the first interval to
    /// [`Search::walk_forth`].
    fn expand(&mut self, (weight, from, to): ListedEdge, threshold: f64) -> BscResult<()> {
        let view = self.view;
        let first = view.first_interval();
        let after = self.startwts.to_the_end(to);
        // Per node of the prefix, latest first: the node, the edge that
        // leaves it, the weight from it to `to` summed right to left (what
        // the bound reads), and its parents yet to be tried.
        let mut back = vec![(from, weight, weight, view.parents(from))];
        while let Some(&mut (node, _, through, ref mut parents)) = back.last_mut() {
            checkpoint(self.cancel, &mut self.tick)?;
            if node.interval == first {
                // Weigh the prefix as Algorithm 2 does, left to right.
                let edges = back.iter().rev().map(|&(_, edge, ..)| edge);
                let so_far = edges.fold(0.0, |sum, edge| sum + edge);
                self.path.clear();
                self.path.extend(back.iter().rev().map(|&(node, ..)| node));
                self.walk_forth(to, so_far, threshold)?;
                back.pop();
                continue;
            }
            let Some(edge) = parents.next() else {
                self.stats.random_seeks += 1;
                back.pop();
                continue;
            };
            let through = edge.weight + through;
            if self.reaches(self.endwts.arriving(edge.to) + through, after, threshold) {
                back.push((edge.to, edge.weight, through, view.parents(edge.to)));
            }
        }
        Ok(())
    }

    /// The walk forward from `to`, reached by the prefix in `self.path`, which
    /// weighs `so_far` with the edge into `to`: one suffix at a time, each
    /// complete path weighed left to right and offered to `H` under the
    /// strict `(score, content)` order.
    fn walk_forth(&mut self, to: ClusterNodeId, so_far: f64, threshold: f64) -> BscResult<()> {
        let view = self.view;
        let last = view.intervals().end - 1;
        let prefix = self.path.len();
        let mut forth = vec![(to, so_far, view.children(to))];
        while let Some(&mut (node, so_far, ref mut children)) = forth.last_mut() {
            checkpoint(self.cancel, &mut self.tick)?;
            if node.interval == last {
                self.stats.paths_generated += 1;
                // Worst-score fast path: materialize the node vector only
                // when the heap could admit it; a path is found once per
                // edge of it that is popped.
                if self.global.would_admit(so_far) {
                    self.path.truncate(prefix);
                    self.path.extend(forth.iter().map(|&(node, ..)| node));
                    let found = self.path.as_slice();
                    if !self.global.iter().any(|held| held.nodes() == found) {
                        let found = ClusterPath::new(found.to_vec(), so_far);
                        self.global.offer_by_weight(found);
                    }
                }
                forth.pop();
                continue;
            }
            let Some(edge) = children.next() else {
                self.stats.random_seeks += 1;
                forth.pop();
                continue;
            };
            let so_far = so_far + edge.weight;
            if self.reaches(so_far, self.startwts.to_the_end(edge.to), threshold) {
                forth.push((edge.to, so_far, view.children(edge.to)));
            }
        }
        Ok(())
    }
}

impl TaStableClusters {
    /// Create a solver returning the top `k` full paths.
    pub fn new(k: usize) -> Self {
        TaStableClusters {
            k,
            cancel: None,
            floor: f64::NEG_INFINITY,
        }
    }

    /// Judge edges by `floor` too, a weight the merged k-th answer of the
    /// solve this one is a window of is known to reach (`sharded.rs`). The
    /// paths are then those of the window that can enter that answer, not
    /// the window's own top-k.
    pub(crate) fn with_floor(mut self, floor: f64) -> Self {
        self.floor = floor;
        self
    }

    /// Attach a cooperative-cancellation token, observed at amortized
    /// checkpoints (roughly once per [`CancelToken::CHECK_INTERVAL`] of
    /// them). A checkpoint counts a node the backward pass relaxes, where
    /// the graph keeps no table; a node an admitted start reaches, in the
    /// forward pass and again as its edges are listed — not a node scanned,
    /// since neither walks a node no admitted start reaches; a list a round
    /// of the scan pops from; and a step of an expansion. A tripped token
    /// aborts the run with [`crate::error::BscError::DeadlineExceeded`].
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
    /// [`SolverStats`] it fills `prunes` (edges discarded on the
    /// `startwts` / `endwts` bound: never listed because their best full
    /// path from an admitted start misses `θ₀`, read or not, or popped and
    /// not expanded because it misses the threshold by then),
    /// `edges_traversed` (edges popped from the sorted lists),
    /// `random_seeks` (adjacency rows read while expanding: one per node a
    /// walk steps through, the first and the last interval's excepted),
    /// `paths_generated` (full paths a walk completed and
    /// weighed, counted before `H`'s admission test — every one of them can
    /// reach the threshold its edge was popped under) and
    /// `early_termination` (the threshold condition stopped the scan).
    ///
    /// `startwts` is `GraphView::completions`: a table the graph keeps that
    /// holds the view's weights at its full length, or one built first. Either way the same
    /// answer and the same counters.
    pub fn run_with_stats<'a>(
        &self,
        graph: impl Into<GraphView<'a>>,
    ) -> BscResult<(Vec<ClusterPath>, SolverStats)> {
        let view = graph.into();
        let cancel = self.cancel.as_ref();
        check_not_expired(cancel)?;
        let m = view.num_intervals() as u32;
        if self.k == 0 || m < 2 {
            return Ok((Vec::new(), SolverStats::default()));
        }
        let mut tick = 0;
        let table = view.completions(m - 1, cancel, &mut tick)?;
        let mut search = Search::over(view, self.k, &table, self.floor, cancel, tick)?;
        let (listed, mut lists) = search.sorted_lists()?;
        let floor = search.startwts.floor();
        let mut heads = Vec::with_capacity(lists.len());
        'scan: loop {
            let mut progressed = false;
            for list_index in 0..lists.len() {
                checkpoint(search.cancel, &mut search.tick)?;
                let Some(popped) = lists[list_index].unseen.next() else {
                    continue;
                };
                let edge = listed[popped];
                progressed = true;
                search.stats.edges_traversed += 1;

                let (weight, from, to) = edge;
                let threshold = search.global.admission_threshold().max(floor);
                let before = search.endwts.arriving(from) + weight;
                if !search.reaches(before, search.startwts.to_the_end(to), threshold) {
                    search.stats.prunes += 1;
                    continue;
                }
                search.expand(edge, threshold)?;

                // Threshold test: the best possible path made of unseen edges.
                if search.global.is_full() {
                    heads.clear();
                    heads.extend(lists.iter().map(|list| {
                        let unseen = listed[list.unseen.clone()].first();
                        (list.from, list.to, unseen.map(|edge| edge.0))
                    }));
                    // Strictly greater: under the heap's tie-admission
                    // semantics an unseen path weighing exactly the k-th
                    // best score could still displace a held path via the
                    // content tie-break, so stopping at equality could
                    // return a different (equal-weight) top-k than BFS/DFS.
                    if search.global.admission_threshold() > virtual_path_bound(&heads, m) {
                        search.stats.early_termination = true;
                        break 'scan;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        Ok((search.global.into_sorted(), search.stats))
    }
}

/// The weight of the "virtual path": an optimistic full path assembled from
/// the highest *unseen* edge weight of each list, combined over a dynamic
/// program on intervals. Any path consisting solely of unseen edges weighs at
/// most this much. `heads` gives each list's `(from interval, to interval,
/// highest unseen weight)`, intervals counted from the view's first, lists
/// ordered by `from`.
fn virtual_path_bound(heads: &[(u32, u32, Option<f64>)], m: u32) -> f64 {
    // best[i] = best achievable weight of an unseen-edge path from interval i
    // to interval m-1; an edge runs forward, so in reverse list order
    // best[to] is final before a list from an earlier interval reads it.
    let mut best = vec![f64::NEG_INFINITY; m as usize];
    best[(m - 1) as usize] = 0.0;
    // bsc:allow(missing-cancel-checkpoint) -- O(lists) dynamic program per expanded edge; the round loop checkpoints
    for &(from, to, head) in heads.iter().rev() {
        // −∞ onward stays −∞: no unseen path leaves `to`.
        if let Some(head) = head {
            best[from as usize] = best[from as usize].max(head + best[to as usize]);
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
    use crate::lookahead::NO_FLOOR;
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
                // To the bit: both weigh a path left to right.
                assert_eq!(bfs, ta, "seed={seed} k={k}");
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
            assert_eq!(bfs, ta, "gap={gap}");
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
    fn every_edge_of_figure5_is_filtered_pruned_or_expanded_as_derived_by_hand() {
        // Figure 5 (g = 1, full paths of length 2), its tables by hand:
        //
        //   startwts  c00 1.2  c01 1.0  c02 1.7   c10 0.7  c11 0.9  c12 0.4
        //   endwts    c10 0.5  c11 0.8  c12 0.4   c20 1.5  c21 0.9  c22 1.7
        //
        // and the best full path through each edge, `endwts + w + startwts`:
        //
        //   c00→c10 1.2   c01→c11 1.0   c02→c11 1.7   c01→c12 0.8
        //   c10→c20 1.2   c11→c20 1.5   c10→c21 0.9   c11→c22 1.7
        //   c12→c22 0.8   c00→c21 0.5 (the gap edge)
        let graph = figure5_graph();
        let counted = |k| {
            let (_, stats) = TaStableClusters::new(k).run_with_stats(&graph).unwrap();
            stats
        };

        // k = 2: θ₀ = 1.2, the second-best start. Five edges reach it and are
        // listed, by interval pair and descending weight (the two 0.7s in
        // node order); the other five are never listed, and the pair (0, 2)
        // has no list at all.
        let table = Completions::of(graph.view(), 2, None, &mut 0).unwrap();
        let mut search = Search::over(graph.view(), 2, &table, f64::NEG_INFINITY, None, 0).unwrap();
        assert_eq!(search.startwts.floor(), 1.2);
        let (listed, lists) = search.sorted_lists().unwrap();
        let expected = [
            (0.8, node(0, 2), node(1, 1)),
            (0.5, node(0, 0), node(1, 0)),
            (0.9, node(1, 1), node(2, 2)),
            (0.7, node(1, 0), node(2, 0)),
            (0.7, node(1, 1), node(2, 0)),
        ];
        assert_eq!(listed, expected);
        let lists: Vec<_> = lists
            .iter()
            .map(|list| (list.from, list.to, list.unseen.clone()))
            .collect();
        assert_eq!(lists, [(0, 1, 0..2), (1, 2, 2..5)]);
        assert_eq!(search.stats.prunes, 5);
        // The first pop, c02→c11, starts in the first interval: no walk
        // back, one row read (c11's children), both answers (1.7, 1.5). The
        // unseen heads are then 0.5 and 0.9: 1.4 < 1.5 stops the scan.
        let expanded_once = SolverStats {
            paths_generated: 2,
            edges_traversed: 1,
            prunes: 5,
            random_seeks: 1,
            early_termination: true,
            ..SolverStats::default()
        };
        assert_eq!(counted(2), expanded_once);

        // k = 4: three starts, so θ₀ = −∞ and all ten edges are listed (each
        // lies on a full path). Popped round-robin over (0,1), (0,2), (1,2):
        //
        //   c02→c11  expanded: c11's children → 1.7, 1.5          (1 row)
        //   c00→c21  expanded: first to last, the path itself 0.5  (0 rows)
        //   c11→c22  expanded: c11's parents → 1.0, and 1.7 again  (1 row)
        //            H full at 0.5; unseen 0.5 + 0.7 = 1.2: go on
        //   c00→c10  expanded under 0.5: c10's children → 1.2, 0.9 (1 row)
        //            H now 1.7 1.5 1.2 1.0; unseen 0.4 + 0.7: go on
        //   c10→c20  expanded: c10's parents → 1.2 again           (1 row)
        //   c01→c12  pruned at the pop: 0.8 misses 1.0
        //   c11→c20  expanded: c11's parents, c01 cut (0.8) → 1.5 again (1 row)
        //            unseen 0.1 + 0.4 = 0.5 < 1.0: stop
        //
        // c01→c11, c10→c21 and c12→c22 are never popped.
        let pruned_one = SolverStats {
            paths_generated: 9,
            edges_traversed: 7,
            prunes: 1,
            random_seeks: 5,
            early_termination: true,
            ..SolverStats::default()
        };
        assert_eq!(counted(4), pruned_one);
        let weights: Vec<f64> = TaStableClusters::new(4)
            .run(&graph)
            .unwrap()
            .iter()
            .map(ClusterPath::weight)
            .collect();
        assert_eq!(weights, [0.8 + 0.9, 0.8 + 0.7, 0.5 + 0.7, 0.1 + 0.9]);
    }

    #[test]
    fn a_start_below_the_floor_seeds_no_arrival_and_the_counters_are_derived_by_hand() {
        // g = 0, full paths of length 2. Starts a (0,0), r (0,1), s (0,2);
        // then y (1,0), x (1,1), w (1,2); then z (2,0):
        //
        //   a→y 0.9  a→x 0.1  r→x 0.8  s→w 0.5  y→z 0.9  x→z 0.1  w→z 0.5
        //
        // startwts: a 1.8, r 0.9, s 1.0; y 0.9, x 0.1, w 0.5. The heaviest
        // arrival into x, and so into the edge x→z, comes from r (0.8); a
        // arrives with 0.1.
        let mut builder = ClusterGraphBuilder::new(0);
        for nodes in [3, 3, 1] {
            builder.add_interval(nodes);
        }
        let (a, r, s) = (node(0, 0), node(0, 1), node(0, 2));
        let (y, x, w, z) = (node(1, 0), node(1, 1), node(1, 2), node(2, 0));
        for (from, to, weight) in [
            (a, y, 0.9),
            (a, x, 0.1),
            (r, x, 0.8),
            (s, w, 0.5),
            (y, z, 0.9),
            (x, z, 0.1),
            (w, z, 0.5),
        ] {
            builder.add_edge(from, to, weight);
        }
        let graph = builder.build();
        let view = graph.view();
        let table = Completions::of(view, 2, None, &mut 0).unwrap();
        let all = table.lens(view, 2, 0, NO_FLOOR);
        let every_start = Arrivals::of(view, &all, None, &mut 0).unwrap();
        let none = f64::NEG_INFINITY;

        // k = 1: θ₀ = 1.8 admits a alone. r and s seed nothing, so x arrives
        // with a's 0.1 and w with nothing, where every start would give
        // 0.8 and 0.5. The two lists hold a→y and y→z; the other five edges
        // are pruned either way — an edge whose heaviest arrival comes from
        // a start the floor rejects lies on no path that reaches the floor —
        // but r's, s's and w's are never read. The first pop, a→y, expands
        // through y's children to a y z 1.8 (1 row) and fills H; (0,1) has
        // nothing unseen: stop.
        let mut search = Search::over(view, 1, &table, none, None, 0).unwrap();
        assert_eq!(search.startwts.floor(), 1.8);
        let arriving = |arrivals: &Arrivals| [r, s, x, w, z].map(|n| arrivals.arriving(n));
        assert_eq!(arriving(&search.endwts), [none, none, 0.1, none, 1.8]);
        assert_eq!(arriving(&every_start), [0.0, 0.0, 0.8, 0.5, 1.8]);
        let (listed, _) = search.sorted_lists().unwrap();
        assert_eq!(listed, [(0.9, a, y), (0.9, y, z)]);
        assert_eq!(search.stats.prunes, 5);
        let mut seeded_by_all = Search::over(view, 1, &table, none, None, 0).unwrap();
        seeded_by_all.endwts = every_start;
        assert_eq!(seeded_by_all.sorted_lists().unwrap().0, listed);
        assert_eq!(seeded_by_all.stats.prunes, 5);

        // k = 2: θ₀ = 1.0 admits a and s; r (0.9) is still below it and x
        // still arrives with 0.1. Listed: a→y 0.9, s→w 0.5 | y→z 0.9,
        // w→z 0.5; pruned: a→x, r→x, x→z. Popped round-robin:
        //
        //   a→y  expanded: y's children → a y z 1.8             (1 row)
        //   y→z  expanded: y's parents → a y z again            (1 row)
        //   s→w  expanded: w's children → s w z 1.0, H full     (1 row)
        //        unseen: (0,1) none, (1,2) 0.5 — no unseen full path: stop
        let mut search = Search::over(view, 2, &table, none, None, 0).unwrap();
        assert_eq!(search.startwts.floor(), 1.0);
        assert_eq!(arriving(&search.endwts), [none, 0.0, 0.1, 0.5, 1.8]);
        let (listed, _) = search.sorted_lists().unwrap();
        let expected = [(0.9, a, y), (0.5, s, w), (0.9, y, z), (0.5, w, z)];
        assert_eq!(listed, expected);
        assert_eq!(search.stats.prunes, 3);

        let derived = [(1, 1, 1, 5, 1), (2, 3, 3, 3, 3)];
        for (k, generated, traversed, prunes, seeks) in derived {
            let (paths, stats) = TaStableClusters::new(k).run_with_stats(&graph).unwrap();
            let expected = SolverStats {
                paths_generated: generated,
                edges_traversed: traversed,
                prunes,
                random_seeks: seeks,
                early_termination: true,
                ..SolverStats::default()
            };
            assert_eq!(stats, expected, "k={k}");
            let bfs = BfsStableClusters::full_paths(k, &graph).unwrap();
            assert_eq!(paths, bfs, "k={k}");
            let weights: Vec<f64> = paths.iter().map(ClusterPath::weight).collect();
            assert_eq!(weights, [0.9 + 0.9, 0.5 + 0.5][..k], "k={k}");
        }
    }
}
