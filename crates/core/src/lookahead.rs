//! What a batch solver can know of a view before it searches it: how every
//! subpath can end, and how every full path can begin.
//!
//! Sections 4.3 and 4.4 of the paper both discard a subpath by "what can it
//! still gain": DFS's `CanPrune`, and the `startwts` / `endwts` of the TA
//! adaptation — the best suffix after an edge and the best prefix before it.
//! A solver that holds the whole view need not guess those, nor learn them by
//! enumerating: each is one relaxation over the view's edges.
//!
//! * [`Completions`] is the backward pass (over [`GraphView::parents`], last
//!   interval first): `C[c][r]`, the heaviest path of length exactly `r`
//!   leaving `c`, for each `r` a prefix ending at `c` can ask for, and `θ₀`,
//!   the k-th largest `C[c][l]`. It is `startwts`, per length. Algorithm 2
//!   ([`crate::bfs`], rule 3 of its module docs) bounds every subpath it
//!   might hold by it; the TA adaptation ([`crate::ta`]) reads the one length
//!   a full-path query asks of each node.
//! * [`Arrivals`] is its forward mirror for full paths (over
//!   [`GraphView::children`], first interval first): the heaviest path from
//!   the view's first interval to `c`. It is `endwts`; only TA reads it.
//!
//! Either is sized by the view — never by `k` — allocated once, fallibly
//! ([`blank`]: a table the allocator refuses is the query's error, not an
//! abort), and dropped with the solve. What is read through them is judged
//! by [`can_still_reach`](crate::problem::can_still_reach), whose slack
//! covers the different orders the two passes and a solver sum a path in.

use std::ops::Range;

use bsc_graph::csr::prefix_offsets;
use bsc_util::cancel::CancelToken;

use crate::cluster_graph::{ClusterGraph, ClusterNodeId, GraphView};
use crate::error::{BscError, BscResult};
use crate::problem::KlStableParams;
use crate::solver::checkpoint;

/// What a batch driver knows of the intervals its search has yet to reach:
/// how deep the last one lies, and how every subpath can end. `best` is the
/// table `C[c][r]` — the largest weight of a path of length exactly `r` that
/// leaves `c` inside the view, `−∞` where there is none — filled by one
/// backward relaxation over [`GraphView::parents`], each sum built right to
/// left. A node has a weight only for the `r` it can be asked for
/// ([`Completions::lengths`]): at most `min(l, last − l + 1)` of them, one
/// for full paths and inside a start window. Dropped with the solve.
pub(crate) struct Completions {
    first: u32,
    /// How many intervals into the view its last one lies.
    last: u32,
    /// Per interval of the view, where its nodes' weights lie in `best`.
    asked: Vec<Asked>,
    /// `C[c][r]`, a node's weights adjacent, by `r − shortest`.
    best: Vec<f64>,
    /// `θ₀`, see [`Completions::floor`].
    floor: f64,
}

/// The weights of one interval's nodes in [`Completions::best`]: node
/// `index` has `width` of them from `at + index · width` on, for the lengths
/// `shortest..shortest + width`.
#[derive(Clone, Copy)]
struct Asked {
    at: usize,
    shortest: u32,
    width: u32,
}

/// A look-ahead table the allocator will not give.
fn table_overflow(weights: usize) -> BscError {
    BscError::InvalidConfig(format!(
        "the look-ahead table of this query would hold {weights} weights; ask for shards \
         (a window's table holds one weight per node) or a length nearer full paths"
    ))
}

/// `total` weights of `−∞`, or an error — not an abort — where the
/// allocator will not give them.
fn blank(total: usize) -> BscResult<Vec<f64>> {
    let mut best = Vec::new();
    let room = best.try_reserve_exact(total);
    room.map_err(|_| table_overflow(total))?;
    best.resize(total, f64::NEG_INFINITY);
    Ok(best)
}

impl Completions {
    /// The lengths `r` asked of a node `depth` intervals into a view whose
    /// last interval lies `last` in. A prefix that ends there started inside
    /// the view, so it is at most `depth` long and asks for `r ≥ l − depth`;
    /// what it asks for must fit before the last interval, `r ≤ last − depth`;
    /// and `θ₀` reads `r = l`. None where no subpath is ever held (`l = 1`) or
    /// none fits (`l > last`), so such an `l` sizes nothing.
    fn lengths(l: u32, depth: u32, last: u32) -> Range<u32> {
        if l < 2 {
            return 0..0;
        }
        let shortest = l.saturating_sub(depth).max(1);
        shortest..(l.min(last - depth) + 1).max(shortest)
    }

    /// Relax every edge of `view` once, last interval first, for the lengths
    /// asked of its parent that it can be the first edge of: one `r` per
    /// edge for full paths and start windows, at most `l` otherwise. The
    /// checkpoints count on `tick`, the caller's own.
    pub(crate) fn of(
        view: GraphView<'_>,
        params: KlStableParams,
        cancel: Option<&CancelToken>,
        tick: &mut u32,
    ) -> BscResult<Completions> {
        let KlStableParams { k, l } = params;
        let first = view.first_interval();
        let last = (view.num_intervals() as u32).saturating_sub(1);
        let lengths = |interval: u32| Completions::lengths(l, interval - first, last);
        let weights =
            |interval| view.nodes_in_interval(interval) as usize * lengths(interval).len();
        let offsets = prefix_offsets(&view.intervals().map(weights).collect::<Vec<_>>());
        let layout = |(interval, &at)| Asked {
            at,
            shortest: lengths(interval).start,
            width: lengths(interval).len() as u32,
        };
        let total = offsets.last().copied().unwrap_or(0);
        let mut ahead = Completions {
            first,
            last,
            asked: view.intervals().zip(&offsets).map(layout).collect(),
            best: blank(total)?,
            floor: f64::NEG_INFINITY,
        };
        if total == 0 {
            return Ok(ahead);
        }
        // `C[c][l]` of every node that starts a length-`l` path: one value
        // per node at most, whatever `k` is.
        let mut whole = Vec::new();
        for interval in view.intervals().rev() {
            let depth = interval - first;
            let mine = ahead.asked[depth as usize];
            for index in 0..view.nodes_in_interval(interval) {
                checkpoint(cancel, tick)?;
                // Every edge leaving `child` has been relaxed: its weights
                // are final, `C[child][l]` the last of them if it is asked.
                let child = ClusterNodeId::new(interval, index);
                let child_row = mine.row(index);
                if mine.shortest + mine.width > l {
                    let weight = ahead.best[child_row + mine.width as usize - 1];
                    if weight > f64::NEG_INFINITY {
                        whole.push(weight);
                    }
                }
                for edge in view.parents(child) {
                    let len = ClusterGraph::edge_length(edge.to, child);
                    let theirs = ahead.asked[(depth - len) as usize];
                    let parent_row = theirs.row(edge.to.index);
                    for r in theirs.shortest.max(len)..theirs.shortest + theirs.width {
                        // `r − len ≥ l − depth` and fits behind `child`: asked.
                        let rest = match r - len {
                            0 => 0.0,
                            rest => ahead.best[child_row + (rest - mine.shortest) as usize],
                        };
                        let through = &mut ahead.best[parent_row + (r - theirs.shortest) as usize];
                        *through = through.max(edge.weight + rest);
                    }
                }
            }
        }
        if let Some(kth) = k.checked_sub(1).filter(|&kth| kth < whole.len()) {
            ahead.floor = *whole.select_nth_unstable_by(kth, |a, b| b.total_cmp(a)).1;
        }
        Ok(ahead)
    }

    /// The shortest length asked of `node`, and `C[node][r]` from it on.
    #[inline]
    pub(crate) fn leaving(&self, node: ClusterNodeId) -> (u32, &[f64]) {
        let asked = self.asked[(node.interval - self.first) as usize];
        let row = asked.row(node.index);
        (asked.shortest, &self.best[row..row + asked.width as usize])
    }

    /// Of a full-path table (`l` the view's whole length), which asks one
    /// length of every node before the last interval and none of a node in
    /// it: the heaviest path from `node` to the last interval, `0` there —
    /// the `startwts` of the TA adaptation. (A two-interval view holds no
    /// table; every edge of it ends in the last interval.)
    #[inline]
    pub(crate) fn to_the_end(&self, node: ClusterNodeId) -> f64 {
        self.leaving(node).1.first().copied().unwrap_or(0.0)
    }

    /// `θ₀`: the k-th largest `C[c][l]` over the view's nodes, `−∞` when
    /// fewer than `k` of them start a length-`l` path. `k` distinct starts
    /// are `k` distinct paths, so the final k-th answer weighs at least this
    /// (within [`can_still_reach`](crate::problem::can_still_reach)'s slack)
    /// before anything is searched.
    #[inline]
    pub(crate) fn floor(&self) -> f64 {
        self.floor
    }

    /// How many intervals into the view its last one lies.
    #[inline]
    pub(crate) fn last(&self) -> u32 {
        self.last
    }

    /// Does the table hold a weight at all? Not for `l = 1` or an `l` beyond
    /// the last interval ([`Completions::lengths`]): such a table bounds
    /// nothing and says of no node whether an answer can start there.
    #[inline]
    pub(crate) fn holds_weights(&self) -> bool {
        !self.best.is_empty()
    }
}

impl Asked {
    /// Where the weights of the interval's node `index` start.
    #[inline]
    fn row(self, index: u32) -> usize {
        self.at + index as usize * self.width as usize
    }
}

/// How every full path of a view can begin — the forward mirror of a
/// full-path [`Completions`]: for each node `c`, the largest weight of a path
/// from a node of the view's first interval to `c` (`0` in the first interval
/// itself, `−∞` where none arrives), filled by one forward relaxation over
/// [`GraphView::children`], each sum built left to right. One weight per node
/// of the view. Dropped with the solve.
pub(crate) struct Arrivals {
    first: u32,
    /// Per interval of the view, where its nodes' weights lie in `best`.
    at: Vec<usize>,
    best: Vec<f64>,
}

impl Arrivals {
    /// Relax every edge of `view` once, first interval first. The
    /// checkpoints count on `tick`, the caller's own.
    pub(crate) fn of(
        view: GraphView<'_>,
        cancel: Option<&CancelToken>,
        tick: &mut u32,
    ) -> BscResult<Arrivals> {
        let first = view.first_interval();
        let nodes = |interval| view.nodes_in_interval(interval) as usize;
        let at = prefix_offsets(&view.intervals().map(nodes).collect::<Vec<_>>());
        let mut behind = Arrivals {
            first,
            best: blank(at.last().copied().unwrap_or(0))?,
            at,
        };
        behind.best[..nodes(first)].fill(0.0);
        for parent in view.intervals().flat_map(|i| view.interval_node_ids(i)) {
            checkpoint(cancel, tick)?;
            // Every edge into `parent` has been relaxed: its weight is final.
            let so_far = behind.arriving(parent);
            if so_far > f64::NEG_INFINITY {
                for edge in view.children(parent) {
                    let child = behind.slot(edge.to);
                    behind.best[child] = behind.best[child].max(so_far + edge.weight);
                }
            }
        }
        Ok(behind)
    }

    #[inline]
    fn slot(&self, node: ClusterNodeId) -> usize {
        self.at[(node.interval - self.first) as usize] + node.index as usize
    }

    /// The heaviest path from the view's first interval to `node`.
    #[inline]
    pub(crate) fn arriving(&self, node: ClusterNodeId) -> f64 {
        self.best[self.slot(node)]
    }
}

/// Every path of `view`, each summed left to right as a sweep sums it.
#[cfg(test)]
pub(crate) fn every_path(view: GraphView<'_>) -> Vec<crate::path::ClusterPath> {
    use crate::path::ClusterPath;
    let nodes = view.intervals().flat_map(|i| view.interval_node_ids(i));
    let mut paths: Vec<ClusterPath> = nodes.map(ClusterPath::singleton).collect();
    let mut grown = 0;
    while grown < paths.len() {
        let path = paths[grown].clone();
        let longer = view.children(path.last());
        paths.extend(longer.map(|edge| path.extend(edge.to, edge.weight)));
        grown += 1;
    }
    paths
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::bfs::{threshold_scenario, BfsStableClusters};
    use crate::cluster_graph::ClusterGraphBuilder;
    use crate::problem::summation_slack;
    use crate::synthetic::{ClusterGraphGenerator, SyntheticGraphParams};

    fn node(interval: u32, index: u32) -> ClusterNodeId {
        ClusterNodeId::new(interval, index)
    }

    fn ahead_of(view: GraphView<'_>, params: KlStableParams) -> Completions {
        Completions::of(view, params, None, &mut 0).unwrap()
    }

    fn random_graph(m: usize, n: u32, d: u32, gap: u32, seed: u64) -> ClusterGraph {
        ClusterGraphGenerator::new(SyntheticGraphParams {
            num_intervals: m,
            nodes_per_interval: n,
            avg_out_degree: d,
            gap,
            seed,
        })
        .generate()
    }

    #[test]
    fn the_completion_table_is_the_best_path_of_each_length_asked() {
        // Against an enumeration of every path of the view, over whole graphs
        // and a window that has edges crossing both of its ends: the best
        // path of each length asked of each node, −∞ exactly where there is
        // none, and no weight for a length nobody asks — shorter than
        // `l − depth`, or too long to fit. No table for `l = 1`, where no
        // prefix is held to ask.
        for gap in [0, 1, 2] {
            let graph = random_graph(8, 9, 3, gap, 31 + u64::from(gap));
            for view in [graph.view(), graph.window(2, 6)] {
                let paths = every_path(view);
                let mut heaviest = HashMap::new();
                for path in &paths {
                    let best = heaviest
                        .entry((path.first(), path.length()))
                        .or_insert(f64::NEG_INFINITY);
                    *best = path.weight().max(*best);
                }
                let first = view.first_interval();
                let last = view.num_intervals() as u32 - 1;
                for l in 1..=last.min(6) {
                    let slack = summation_slack(l);
                    let mut whole: Vec<f64> = paths
                        .iter()
                        .filter(|path| path.length() == l)
                        .map(|path| path.weight())
                        .collect();
                    whole.sort_by(|a, b| b.total_cmp(a));
                    for k in [1, 3] {
                        let case = format!("gap={gap} first={first} l={l} k={k}");
                        let ahead = ahead_of(view, KlStableParams::new(k, l));
                        assert_eq!(ahead.last(), last, "{case}");
                        for node in view.intervals().flat_map(|i| view.interval_node_ids(i)) {
                            let depth = node.interval - first;
                            let fits = l.saturating_sub(depth).max(1)..=l.min(last - depth);
                            let expected = (1..=l).filter(|r| l > 1 && fits.contains(r));
                            let (shortest, weights) = ahead.leaving(node);
                            let asked = shortest..shortest + weights.len() as u32;
                            assert!(
                                asked.is_empty() || asked.clone().eq(expected.clone()),
                                "{case}: {node} is asked {asked:?}"
                            );
                            assert_eq!(asked.len(), expected.count(), "{case}: {node}");
                            assert!(asked.len() as u32 <= l.min(last - l + 1), "{case}");
                            for (r, &table) in asked.zip(weights) {
                                let none = f64::NEG_INFINITY;
                                let leaving = heaviest.get(&(node, r)).copied().unwrap_or(none);
                                assert!(
                                    table == leaving || (table - leaving).abs() <= slack,
                                    "{case}: C[{node}][{r}] = {table}, enumerated {leaving}"
                                );
                            }
                        }
                        // `θ₀` is a weight the k-th answer reaches.
                        match whole.get(k - 1) {
                            Some(kth) => assert!(ahead.floor() <= kth + slack, "{case}"),
                            None => assert_eq!(ahead.floor(), f64::NEG_INFINITY, "{case}"),
                        }
                        assert_eq!(ahead.floor().is_finite(), l > 1, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn the_completion_table_grows_with_the_view_not_with_its_square() {
        // 2 000 intervals of one node each. A full-path query asks one
        // length of every node, so its table is one weight per node where
        // `l` per node would be 32 MB here and quadratic in the stream.
        let m = 2_000;
        let mut builder = ClusterGraphBuilder::new(0);
        for _ in 0..m {
            builder.add_interval(1);
        }
        for i in 1..m {
            builder.add_edge(node(i - 1, 0), node(i, 0), 0.5);
        }
        let graph = builder.build();
        let last = m - 1;
        for l in [last, last - 9, 10, 2] {
            let ahead = ahead_of(graph.view(), KlStableParams::new(1, l));
            let per_node = l.min(last - l + 1) as usize;
            assert!(ahead.best.len() <= graph.num_nodes() * per_node, "l={l}");
            assert_eq!(ahead.floor(), f64::from(l) * 0.5, "l={l}");
        }
        let full = ahead_of(graph.view(), KlStableParams::new(1, last));
        assert_eq!(full.best.len(), graph.num_nodes() - 1);
        assert_eq!(full.to_the_end(node(0, 0)), f64::from(last) * 0.5);
        assert_eq!(full.to_the_end(node(last - 1, 0)), 0.5);
        assert_eq!(full.to_the_end(node(last, 0)), 0.0);
        let paths = BfsStableClusters::full_paths(1, &graph).unwrap();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].weight(), f64::from(last) * 0.5);
        // Its mirror holds one weight per node, whatever the length.
        let behind = Arrivals::of(graph.view(), None, &mut 0).unwrap();
        assert_eq!(behind.best.len(), graph.num_nodes());
        assert_eq!(behind.arriving(node(last, 0)), f64::from(last) * 0.5);

        // A table the allocator will not give is the query's error, for
        // either pass: both allocate through `blank`.
        let refused = blank(usize::MAX / 8).unwrap_err();
        assert!(matches!(refused, BscError::InvalidConfig(_)), "{refused}");
    }

    #[test]
    fn arrivals_are_the_best_path_from_the_first_interval() {
        // Against an enumeration of every path: the heaviest path from the
        // view's first interval to each node, bit for bit (both sum left to
        // right), `0` in the first interval and −∞ exactly where no path
        // from it arrives — whatever the gap, and in a window that edges
        // cross into from intervals before it.
        let mut unreached = 0;
        for gap in [0, 1, u32::MAX] {
            for seed in 0..4 {
                let graph = random_graph(5, 8, 1 + seed as u32 % 2, gap, 900 + seed);
                for view in [graph.view(), graph.window(1, 4), graph.window(2, 2)] {
                    let case = format!("gap={gap} seed={seed} from {}", view.first_interval());
                    let mut heaviest = HashMap::new();
                    for path in every_path(view) {
                        if path.first().interval == view.first_interval() {
                            let best = heaviest.entry(path.last()).or_insert(f64::NEG_INFINITY);
                            *best = path.weight().max(*best);
                        }
                    }
                    let behind = Arrivals::of(view, None, &mut 0).unwrap();
                    for node in view.intervals().flat_map(|i| view.interval_node_ids(i)) {
                        let expected = heaviest.get(&node).copied();
                        unreached += usize::from(expected.is_none());
                        let expected = expected.unwrap_or(f64::NEG_INFINITY);
                        let table = behind.arriving(node);
                        assert_eq!(table.to_bits(), expected.to_bits(), "{case}: {node}");
                        if node.interval == view.first_interval() {
                            assert_eq!(table, 0.0, "{case}: {node}");
                        }
                    }
                }
            }
        }
        // The generator leaves nodes no path from the first interval reaches.
        assert!(unreached > 20, "{unreached}");
    }

    #[test]
    fn arrivals_count_from_the_first_interval_of_a_window() {
        // Ahead of the window a chain of weight-1 edges runs into lane `a`:
        // a table that counted from interval 0 would arrive at `a` with 2.
        let offset = 2;
        let (graph, answer) = threshold_scenario(offset);
        let behind = Arrivals::of(graph.window(offset, offset + 5), None, &mut 0).unwrap();
        let at = |v: u32, index: u32| behind.arriving(node(offset + v, index));
        assert_eq!(at(0, 0), 0.0);
        assert_eq!(at(1, 0), 1.0);
        assert_eq!(at(2, 0), 2.0);
        assert_eq!(at(3, 0), 2.75);
        // Lanes `b` and `c` start two intervals into the window: no path
        // from its first interval arrives, the answer's nodes included.
        for &node in answer.nodes() {
            assert_eq!(behind.arriving(node), f64::NEG_INFINITY, "{node}");
        }
        let whole = Arrivals::of(graph.view(), None, &mut 0).unwrap();
        assert_eq!(whole.arriving(node(offset + 3, 0)), 4.75);
    }
}
