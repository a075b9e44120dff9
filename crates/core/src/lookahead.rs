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
//!   leaving `c`, for each `r` a prefix ending at `c` can ask for. It is
//!   `startwts`, per length. A solver reads it through a [`Lens`] over its
//!   own view, which also holds that view's `θ₀`, the k-th largest `C[c][l]`
//!   over its starts. Algorithm 2 ([`crate::bfs`], rule 3 of its module docs)
//!   bounds every subpath it might hold by it; the TA adaptation
//!   ([`crate::ta`]) reads the one length a full-path query asks of each
//!   node.
//! * [`Arrivals`] is its forward mirror for full paths (over
//!   [`GraphView::children`], first interval first): the heaviest path from
//!   the view's first interval to `c`. It is `endwts`; only TA reads it.
//!
//! Either is sized by the view — never by `k` — allocated once, fallibly
//! ([`blank`]: a table the allocator refuses is the query's error, not an
//! abort), and dropped with the solve. What is read through them is judged
//! by [`can_still_reach`](crate::problem::can_still_reach), whose slack
//! covers the different orders the two passes and a solver sum a path in.
//!
//! **One table per run of windows.** A start window `[s, s + l]` asks one
//! length of each node, `l − d` of a node `d` intervals in. A run of
//! consecutive windows `[a, b]` — the windows a shard range solves — asks
//! of a node `D` intervals into `[a, b + l]` every length from
//! `max(l − D, 1)` to `min(l, b + l − a − D)`: exactly the lengths its
//! windows ask of it, one each. So one table over `[a, b + l]` holds every
//! weight of every window's own table, and nothing else: each edge is
//! relaxed once for the run, with the run of `max`es the plan already
//! makes, instead of once per window it lies in. What a window reads there
//! is the same weight, bit for bit — a path of length `l − d` from a node of
//! the window ends at `s + l`, inside the window, so the run's slot is the
//! max over the very paths, summed in the very order, of the window's own.
//! A [`Lens`] ([`Completions::lens`]) reads a view's rows off a wider table
//! and takes the view's own `θ₀` over the view's own starts: the run's would
//! be higher, and unsound for a window. Every solve reads through one; an
//! unsharded solve's lens is over a table of its own view. A run's table is
//! capped at [`RUN_TABLE_WEIGHTS`] (1 MiB) and built by the windowed
//! solver ([`crate::sharded`]).
//!
//! Both passes read an interval's rows as stored ([`GraphView::rows`]) and
//! compare one end of an edge against the view, the end that can lie
//! outside it. The backward pass splits `best` once per interval into the
//! rows before it, where every parent of its nodes lies, and its own, and
//! relaxes by a **plan**: per edge length, which slot of a parent's row takes
//! the bare edge and which slots take the edge plus the child's weights. That
//! depends on the two intervals' layouts, never on the nodes, so an edge
//! costs one compare, one row address and one short run of `max`es — a
//! single one in a table of full paths or of a start window, which asks one
//! length of each node. The sums and their right-to-left order are those of
//! the loop the plan replaced (kept in the tests as the reference the two
//! passes are held to, bit for bit).

use std::ops::Range;

use bsc_graph::csr::prefix_offsets;
use bsc_util::cancel::CancelToken;

use crate::cluster_graph::{ClusterNodeId, GraphView};
use crate::error::{BscError, BscResult};
use crate::solver::checkpoint;

/// How every subpath of a view can end: the table `C[c][r]` — the largest
/// weight of a path of length exactly `r` that leaves `c` inside the view,
/// `−∞` where there is none — filled by one backward relaxation over
/// [`GraphView::parents`], each sum built right to left. A node has a weight
/// only for the `r` it can be asked for ([`Completions::lengths`]): at most
/// `min(l, last − l + 1)` of them, one for full paths and inside a start
/// window. A solver reads it through a [`Lens`] over its own view, which may
/// be the table's view or any view inside it (a run of start windows shares
/// one table). Dropped with the solve, or with the run.
pub(crate) struct Completions {
    l: u32,
    first: u32,
    /// Per interval of the view, where its nodes' weights lie in `best`.
    asked: Vec<Asked>,
    /// `C[c][r]`, a node's weights adjacent, by `r − shortest`.
    best: Vec<f64>,
}

/// The most weights a run of start windows shares in one table (1 MiB). A
/// window whose own table is larger gets a table of its own, as it would
/// solved alone; past that, [`table_overflow`]'s advice holds.
pub(crate) const RUN_TABLE_WEIGHTS: usize = (1 << 20) / std::mem::size_of::<f64>();

/// The weights of one interval's nodes in [`Completions::best`]: node
/// `index` has `width` of them from `at + index · width` on, for the lengths
/// `shortest..shortest + width`.
#[derive(Clone, Copy)]
struct Asked {
    at: usize,
    shortest: u32,
    width: usize,
}

/// The weights one interval's nodes are asked for, in a table laid out for
/// a view that may be wider: node `index` has `width` of them from
/// `at + index · stride` on, for the lengths `shortest..shortest + width`.
/// Not [`Asked`] with a stride: the kernel reads `Asked`, and a fourth field
/// there read 4 % slower on a cold solve.
#[derive(Clone, Copy)]
struct Rows {
    at: usize,
    stride: usize,
    shortest: u32,
    width: usize,
}

impl Rows {
    /// Where the weights of the interval's node `index` start.
    #[inline]
    fn row(self, index: usize) -> usize {
        self.at + index * self.stride
    }
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

    /// How many weights `view`'s own table holds for length `l`: one per
    /// node and length asked of it. A run of start windows holds exactly the
    /// sum of its windows' counts. (`of` spells the same layout out inline:
    /// routed through one shared iterator, the kernel's code read 2–3 %
    /// slower on a cold solve, in-process.)
    pub(crate) fn weights(view: GraphView<'_>, l: u32) -> usize {
        let (first, last) = (view.first_interval(), last_of(view));
        let lengths = |interval: u32| Completions::lengths(l, interval - first, last);
        let weights =
            |interval| view.nodes_in_interval(interval) as usize * lengths(interval).len();
        view.intervals().map(weights).sum()
    }

    /// Relax every edge of `view` once, last interval first, for the lengths
    /// asked of its parent that it can be the first edge of: one `r` per
    /// edge for full paths and start windows, at most `l` otherwise. The
    /// checkpoints count on `tick`, the caller's own. `k` plays no part:
    /// the table is every window's, and `θ₀` is each [`Lens`]'s own.
    pub(crate) fn of(
        view: GraphView<'_>,
        l: u32,
        cancel: Option<&CancelToken>,
        tick: &mut u32,
    ) -> BscResult<Completions> {
        let (first, last) = (view.first_interval(), last_of(view));
        let lengths = |interval: u32| Completions::lengths(l, interval - first, last);
        let weights =
            |interval| view.nodes_in_interval(interval) as usize * lengths(interval).len();
        let offsets = prefix_offsets(&view.intervals().map(weights).collect::<Vec<_>>());
        let layout = |(interval, &at)| Asked {
            at,
            shortest: lengths(interval).start,
            width: lengths(interval).len(),
        };
        let total = offsets.last().copied().unwrap_or(0);
        let mut ahead = Completions {
            l,
            first,
            asked: view.intervals().zip(&offsets).map(layout).collect(),
            best: blank(total)?,
        };
        if total == 0 {
            return Ok(ahead);
        }
        // Indexed by edge length; no edge has length 0.
        let mut plan = vec![Step::default()];
        for interval in view.intervals().rev() {
            let depth = interval - first;
            let mine = ahead.asked[depth as usize];
            // Parents lie in earlier intervals: their rows are all before ours.
            let (earlier, ours) = ahead.best.split_at_mut(mine.at);
            let (parents, _) = view.rows(interval);
            plan.truncate(1);
            for index in 0..view.nodes_in_interval(interval) {
                checkpoint(cancel, tick)?;
                // Every edge leaving this node has been relaxed: its weights
                // are final.
                let child = &ours[index as usize * mine.width..][..mine.width];
                for edge in parents.row(index) {
                    let len = interval - edge.to.interval;
                    if len as usize >= plan.len() {
                        if len > depth {
                            continue; // the parent lies before the view
                        }
                        grow(&mut plan, &ahead.asked, depth, len);
                    }
                    let (step, weight) = (plan[len as usize], edge.weight);
                    let row = edge.to.index as usize * step.width;
                    if step.bare {
                        raise(&mut earlier[row + step.to - 1], weight);
                    }
                    // Every row of a full-path or start-window table is one
                    // slot: one `raise`, where the loop's set-up cost those
                    // passes 6–11 % of their time.
                    match &mut earlier[row + step.to..row + step.end] {
                        [through] => raise(through, weight + child[0]),
                        through => {
                            for (through, rest) in through.iter_mut().zip(child) {
                                raise(through, weight + rest);
                            }
                        }
                    }
                }
            }
        }
        Ok(ahead)
    }

    /// What `view` — the table's own view or one inside it — would read in
    /// a table of its own, and its `θ₀` for `k`. The lengths a view asks of
    /// a node are among those its table asks (a node `D` intervals into the
    /// table's view and `d ≤ D` into `view` is asked `r ≥ l − d ≥ l − D`,
    /// and `r` no longer than `view` leaves room for), and every path of
    /// such a length ends inside `view`: the weight the lens reads is the
    /// max over the very paths, summed in the very order, that `view`'s own
    /// table would hold — the same bits.
    pub(crate) fn lens(&self, view: GraphView<'_>, k: usize) -> Lens<'_> {
        let (l, first, last) = (self.l, view.first_interval(), last_of(view));
        let past = view.intervals().end.checked_sub(self.first);
        debug_assert!(first >= self.first && past.is_some_and(|p| p as usize <= self.asked.len()));
        let layout = |interval: u32| {
            let table = self.asked[(interval - self.first) as usize];
            let asked = Completions::lengths(l, interval - first, last);
            debug_assert!(asked.is_empty() || table.shortest <= asked.start);
            debug_assert!(asked.end <= table.shortest + table.width as u32);
            let skip = match asked.is_empty() {
                true => 0,
                false => (asked.start - table.shortest) as usize,
            };
            Rows {
                at: table.at + skip,
                stride: table.width,
                shortest: asked.start,
                width: asked.len(),
            }
        };
        let rows: Vec<Rows> = view.intervals().map(layout).collect();
        let nodes = |interval| view.nodes_in_interval(interval) as usize;
        let mut own = view.intervals().zip(&rows);
        let holds_weights = own.any(|(interval, rows)| nodes(interval) * rows.width > 0);
        // `C[c][l]` of every node `view` asks it of — `−∞` where no length-`l`
        // path starts, which sorts last — one value per node at most,
        // whatever `k` is.
        let asks_l = |(_, rows): &(u32, &Rows)| rows.shortest + rows.width as u32 > l;
        let starts = view.intervals().zip(&rows).filter(asks_l);
        let mut whole: Vec<f64> = Vec::with_capacity(starts.clone().map(|(i, _)| nodes(i)).sum());
        starts.for_each(|(interval, rows)| {
            // An interval without nodes may have no row to start from.
            let from = self
                .best
                .get(rows.at + rows.width - 1..)
                .unwrap_or_default();
            let ends = from.iter().step_by(rows.stride);
            whole.extend(ends.take(nodes(interval)).copied());
        });
        let mut floor = f64::NEG_INFINITY;
        if let Some(kth) = k.checked_sub(1).filter(|&kth| kth < whole.len()) {
            floor = *whole.select_nth_unstable_by(kth, |a, b| b.total_cmp(a)).1;
        }
        Lens {
            best: &self.best,
            first,
            last,
            rows,
            floor,
            holds_weights,
        }
    }
}

/// How many intervals into `view` its last one lies.
fn last_of(view: GraphView<'_>) -> u32 {
    (view.num_intervals() as u32).saturating_sub(1)
}

/// One view's reading of a [`Completions`] built over it or over a view
/// that holds it ([`Completions::lens`]): what its own table would answer,
/// and its own `θ₀`. Every solve reads its table through one — the whole
/// view's over its own table, a start window's over its run's.
pub(crate) struct Lens<'t> {
    best: &'t [f64],
    first: u32,
    /// How many intervals into the view its last one lies.
    last: u32,
    /// Per interval of the view, where its nodes' weights lie in `best`.
    rows: Vec<Rows>,
    floor: f64,
    holds_weights: bool,
}

impl Lens<'_> {
    /// The shortest length asked of `node`, and `C[node][r]` from it on.
    #[inline]
    pub(crate) fn leaving(&self, node: ClusterNodeId) -> (u32, &[f64]) {
        let rows = self.rows[(node.interval - self.first) as usize];
        let row = rows.row(node.index as usize);
        (rows.shortest, &self.best[row..row + rows.width])
    }

    /// Of a full-path view (`l` its whole length), which is asked one length
    /// of every node before the last interval and none of a node in it: the
    /// heaviest path from `node` to the last interval, `0` there — the
    /// `startwts` of the TA adaptation. (A two-interval view holds no
    /// weight; every edge of it ends in the last interval.)
    #[inline]
    pub(crate) fn to_the_end(&self, node: ClusterNodeId) -> f64 {
        self.leaving(node).1.first().copied().unwrap_or(0.0)
    }

    /// `θ₀`: the k-th largest `C[c][l]` over the view's nodes, `−∞` when
    /// fewer than `k` of them start a length-`l` path. `k` distinct starts
    /// are `k` distinct paths, so the final k-th answer weighs at least this
    /// (within [`can_still_reach`](crate::problem::can_still_reach)'s slack)
    /// before anything is searched. Taken over the view's own starts only:
    /// a run's starts would set a floor one window cannot reach.
    #[inline]
    pub(crate) fn floor(&self) -> f64 {
        self.floor
    }

    /// How many intervals into the view its last one lies.
    #[inline]
    pub(crate) fn last(&self) -> u32 {
        self.last
    }

    /// Does the view read a weight at all? Not for `l = 1` or an `l` beyond
    /// its last interval ([`Completions::lengths`]): such a lens bounds
    /// nothing and says of no node whether an answer can start there.
    #[inline]
    pub(crate) fn holds_weights(&self) -> bool {
        self.holds_weights
    }
}

/// How an edge of one length into one interval relaxes its parent, whatever
/// the two nodes. Offsets count in [`Completions::best`] from
/// `index · width`, `index` the parent's: if `bare`, slot `to − 1`
/// (`r = len`) takes the edge alone, and slots `to..end` take the edge plus
/// the child's weights from its first on, pairwise. From its first: the
/// lengths `r > len` the parent asks, less `len`, are those the child asks
/// from its shortest on ([`Completions::lengths`] at depths `len` apart).
#[derive(Clone, Copy, Default)]
struct Step {
    width: usize,
    bare: bool,
    to: usize,
    end: usize,
}

/// Extend the plan of the interval `depth` into the view to edges of length
/// `len`: once per length its edges have, so a gap sizes nothing up front.
#[cold]
fn grow(plan: &mut Vec<Step>, asked: &[Asked], depth: u32, len: u32) {
    let lengths = plan.len() as u32..=len;
    plan.extend(lengths.map(|len| {
        let theirs = asked[(depth - len) as usize];
        let (shortest, end) = (theirs.shortest, theirs.shortest + theirs.width as u32);
        Step {
            width: theirs.width,
            bare: (shortest..end).contains(&len),
            to: theirs.at + (shortest.max(len + 1).min(end) - shortest) as usize,
            end: theirs.at + theirs.width,
        }
    }));
}

/// `*slot = slot.max(weight)` for a table's weights, which are never NaN: one
/// compare and select, where `f64::max` also orders NaN.
fn raise(slot: &mut f64, weight: f64) {
    *slot = if weight > *slot { weight } else { *slot };
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
        for (depth, interval) in view.intervals().enumerate() {
            let (_, children) = view.rows(interval);
            // Where each later interval's weights start, by edge length; none
            // past the view's last interval.
            let later = &behind.at[depth..view.num_intervals()];
            for index in 0..view.nodes_in_interval(interval) {
                checkpoint(cancel, tick)?;
                // Every edge into this node has been relaxed: its weight is final.
                let so_far = behind.best[later[0] + index as usize];
                if so_far > f64::NEG_INFINITY {
                    for edge in children.row(index) {
                        if let Some(&at) = later.get((edge.to.interval - interval) as usize) {
                            let slot = &mut behind.best[at + edge.to.index as usize];
                            raise(slot, so_far + edge.weight);
                        }
                    }
                }
            }
        }
        Ok(behind)
    }

    /// The heaviest path from the view's first interval to `node`.
    #[inline]
    pub(crate) fn arriving(&self, node: ClusterNodeId) -> f64 {
        self.best[self.at[(node.interval - self.first) as usize] + node.index as usize]
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

/// `graph` with every weight `w` replaced by `weight(w)`.
#[cfg(test)]
pub(crate) fn reweighted(
    graph: &crate::cluster_graph::ClusterGraph,
    weight: impl Fn(f64) -> f64,
) -> crate::cluster_graph::ClusterGraph {
    let mut builder = crate::cluster_graph::ClusterGraphBuilder::new(graph.gap());
    for interval in 0..graph.num_intervals() as u32 {
        builder.add_interval(graph.nodes_in_interval(interval));
    }
    for (from, to, w) in graph.edges() {
        builder.add_edge(from, to, weight(w));
    }
    builder.build()
}

#[cfg(test)]
pub(crate) type Reweight = fn(f64) -> f64;

/// Weights that separate completions (uniform), that tie in heaps (the three
/// values of `tests/algorithm_equivalence.rs::tie_heavy`), that cut nothing
/// (all equal) and that nearly do (two values), for [`reweighted`].
#[cfg(test)]
pub(crate) const WEIGHTINGS: [(&str, Reweight); 4] = [
    ("uniform", |w| w),
    ("tie-heavy", |w| {
        [0.25, 0.5, 1.0][(w * 3.0).min(2.0) as usize]
    }),
    ("all-equal", |_| 1.0),
    ("two-valued", |w| if w < 0.5 { 0.5 } else { 1.0 }),
];

/// 2 000 intervals of two nodes, gap 1: two lanes of seeded weights,
/// crossed by three edges and jumped by two, so that a full path is one
/// of a few dozen and every path of a length can be listed.
#[cfg(test)]
pub(crate) fn long_thin_graph() -> crate::cluster_graph::ClusterGraph {
    use crate::cluster_graph::{ClusterGraphBuilder, ClusterNodeId};
    let node = ClusterNodeId::new;
    let m = 2_000;
    let mut rng = bsc_util::rng::DetRng::seed_from_u64(2_000);
    let mut weight = || (1 + rng.below(1_000)) as f64 / 1_000.0;
    let mut builder = ClusterGraphBuilder::new(1);
    for _ in 0..m {
        builder.add_interval(2);
    }
    for i in 1..m {
        for lane in 0..2 {
            builder.add_edge(node(i - 1, lane), node(i, lane), weight());
        }
    }
    for i in [300, 990, 1_650] {
        builder.add_edge(node(i, 0), node(i + 1, 1), weight());
    }
    for i in [700, 1_200] {
        builder.add_edge(node(i, 1), node(i + 2, 0), weight());
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::auto::{bfs_resident_bytes, dfs_resident_bytes, GraphShape};
    use crate::bfs::{threshold_scenario, BfsStableClusters};
    use crate::cluster_graph::{ClusterGraph, ClusterGraphBuilder};
    use crate::path::ClusterPath;
    use crate::problem::{summation_slack, KlStableParams, StableClusterSpec};
    use crate::sharded::ShardedSolver;
    use crate::solver::{AlgorithmKind, SolverOptions, StableClusterSolver};
    use crate::synthetic::{ClusterGraphGenerator, SyntheticGraphParams};
    use crate::ta::TaStableClusters;
    use crate::topk::TopKPaths;

    /// The backward relaxation as written before the plan, into the layout
    /// `of` lays out, and `θ₀` as the pass took it: each parent through
    /// [`GraphView::parents`], each length it asks through a `match` on what
    /// is left for the child. The reference the kernel and the lens are held
    /// to.
    fn completions_by_reference(view: GraphView<'_>, params: KlStableParams) -> (Vec<f64>, f64) {
        let KlStableParams { k, l } = params;
        let first = view.first_interval();
        let mut ahead = ahead_of(view, l);
        ahead.best.fill(f64::NEG_INFINITY);
        let mut floor = f64::NEG_INFINITY;
        let mut whole = Vec::new();
        for interval in view.intervals().rev() {
            let depth = interval - first;
            let mine = ahead.asked[depth as usize];
            for index in 0..view.nodes_in_interval(interval) {
                let child = ClusterNodeId::new(interval, index);
                let child_row = mine.at + index as usize * mine.width;
                if mine.shortest + mine.width as u32 > l {
                    let weight = ahead.best[child_row + mine.width - 1];
                    if weight > f64::NEG_INFINITY {
                        whole.push(weight);
                    }
                }
                for edge in view.parents(child) {
                    let len = ClusterGraph::edge_length(edge.to, child);
                    let theirs = ahead.asked[(depth - len) as usize];
                    let parent_row = theirs.at + edge.to.index as usize * theirs.width;
                    for r in theirs.shortest.max(len)..theirs.shortest + theirs.width as u32 {
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
            floor = *whole.select_nth_unstable_by(kth, |a, b| b.total_cmp(a)).1;
        }
        (ahead.best, floor)
    }

    /// The forward relaxation as written before the plan: each child through
    /// [`GraphView::children`].
    fn arrivals_by_reference(view: GraphView<'_>) -> Vec<f64> {
        let mut behind = Arrivals::of(view, None, &mut 0).unwrap();
        behind.best.fill(f64::NEG_INFINITY);
        behind.best[..view.nodes_in_interval(view.first_interval()) as usize].fill(0.0);
        for parent in view.intervals().flat_map(|i| view.interval_node_ids(i)) {
            let so_far = behind.arriving(parent);
            if so_far > f64::NEG_INFINITY {
                for edge in view.children(parent) {
                    let child = behind.at[(edge.to.interval - behind.first) as usize]
                        + edge.to.index as usize;
                    behind.best[child] = behind.best[child].max(so_far + edge.weight);
                }
            }
        }
        behind.best
    }

    /// Both passes over `view`, against the references, bit for bit: every
    /// weight of the table, `θ₀` for each `k`, and the arrivals.
    fn assert_kernel_is_reference(view: GraphView<'_>, ls: impl Iterator<Item = u32>, case: &str) {
        let bits = |table: &[f64]| table.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        let arrivals = Arrivals::of(view, None, &mut 0).unwrap();
        assert_eq!(
            bits(&arrivals.best),
            bits(&arrivals_by_reference(view)),
            "{case}"
        );
        for l in ls {
            let kernel = ahead_of(view, l);
            for k in [1, 5] {
                let (best, floor) = completions_by_reference(view, KlStableParams::new(k, l));
                assert_eq!(bits(&kernel.best), bits(&best), "{case} l={l} k={k}");
                assert_eq!(
                    kernel.lens(view, k).floor().to_bits(),
                    floor.to_bits(),
                    "{case} l={l} k={k}"
                );
            }
        }
    }

    fn node(interval: u32, index: u32) -> ClusterNodeId {
        ClusterNodeId::new(interval, index)
    }

    fn ahead_of(view: GraphView<'_>, l: u32) -> Completions {
        Completions::of(view, l, None, &mut 0).unwrap()
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
                        let table = ahead_of(view, l);
                        let ahead = table.lens(view, k);
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
            let ahead = ahead_of(graph.view(), l);
            let per_node = l.min(last - l + 1) as usize;
            assert!(ahead.best.len() <= graph.num_nodes() * per_node, "l={l}");
            assert_eq!(ahead.best.len(), Completions::weights(graph.view(), l));
            let floor = ahead.lens(graph.view(), 1).floor();
            assert_eq!(floor, f64::from(l) * 0.5, "l={l}");
        }
        let table = ahead_of(graph.view(), last);
        assert_eq!(table.best.len(), graph.num_nodes() - 1);
        let full = table.lens(graph.view(), 1);
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

    #[test]
    fn the_kernel_fills_the_tables_the_reference_loops_fill() {
        // Same additions, same right-to-left order, and `max` takes them in
        // any order: the plan changes how an edge finds its slots, never what
        // lands there. Edges of one interval up to four; the four weightings;
        // whole graphs, views that start mid-graph (edges cross into them)
        // and every window of every width (every start window of every `l`);
        // every `l` from 1 to one past the view.
        let mut views = 0;
        for gap in 0..=3 {
            for seed in 0..3 {
                let base = random_graph(7, 8, 3, gap, 7_300 + seed);
                for (name, weight) in WEIGHTINGS {
                    let graph = reweighted(&base, weight);
                    let (g, m) = (&graph, graph.num_intervals() as u32);
                    let mut cut = vec![g.view(), g.window(2, m - 1), g.window(3, m - 2)];
                    cut.extend((1..m).flat_map(|w| (0..m - w).map(move |s| g.window(s, s + w))));
                    for view in cut {
                        let case = format!("{name} gap={gap} seed={seed} {:?}", view.intervals());
                        assert_kernel_is_reference(view, 1..=m, &case);
                        views += 1;
                    }
                }
            }
        }
        assert_eq!(views, 4 * 3 * 4 * 24);
    }

    /// `lens` reads `window` exactly as `alone`, the window's own table,
    /// does: the same lengths and weights of every node, the same bits.
    fn assert_reads_alike(lens: &Lens<'_>, alone: &Lens<'_>, window: GraphView<'_>, case: &str) {
        let bits = |(shortest, weights): (u32, &[f64])| {
            (
                shortest,
                weights.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
            )
        };
        assert_eq!(lens.last(), alone.last(), "{case}");
        assert_eq!(lens.holds_weights(), alone.holds_weights(), "{case}");
        assert_eq!(lens.floor().to_bits(), alone.floor().to_bits(), "{case}");
        for node in window.intervals().flat_map(|i| window.interval_node_ids(i)) {
            assert_eq!(
                bits(lens.leaving(node)),
                bits(alone.leaving(node)),
                "{case}: {node}"
            );
            let (end, own_end) = (lens.to_the_end(node), alone.to_the_end(node));
            assert_eq!(end.to_bits(), own_end.to_bits(), "{case}: {node}");
        }
    }

    #[test]
    fn a_run_of_windows_reads_each_window_as_its_own_table() {
        // The kernel's battery: edges of one interval up to four, the four
        // weightings, the whole graph and views that start mid-graph, `k` ∈
        // {1, 5}. For every `l`, every run `[a, b]` of start windows inside
        // the view and every window `[s, s + l]` of the run, the lens over
        // the run's table reads what `Completions::of(window)` reads —
        // weights, the lengths they are for, `to_the_end`, θ₀ (the window's
        // own starts, never the run's), `last` and `holds_weights` — to the
        // bit; and the run's table holds exactly its windows' weights.
        let mut windows = 0;
        for gap in 0..=3 {
            let base = random_graph(7, 8, 3, gap, 7_300 + u64::from(gap));
            for (name, weight) in WEIGHTINGS {
                let graph = reweighted(&base, weight);
                let m = graph.num_intervals() as u32;
                for view in [graph.view(), graph.window(1, m - 1), graph.window(2, m - 2)] {
                    let (first, end) = (view.first_interval(), view.intervals().end);
                    for l in 1..end - first {
                        for (a, b) in
                            (first..end - l).flat_map(|a| (a..end - l).map(move |b| (a, b)))
                        {
                            let run = ahead_of(graph.window(a, b + l), l);
                            let mut alone = 0;
                            for s in a..=b {
                                let window = graph.window(s, s + l);
                                let own = ahead_of(window, l);
                                alone += own.best.len();
                                for k in [1, 5] {
                                    let case =
                                        format!("{name} gap={gap} l={l} run {a}..={b} s={s} k={k}");
                                    let (lens, own) = (run.lens(window, k), own.lens(window, k));
                                    assert_reads_alike(&lens, &own, window, &case);
                                }
                                windows += 1;
                            }
                            assert_eq!(
                                run.best.len(),
                                alone,
                                "{name} gap={gap} l={l} run {a}..={b}"
                            );
                        }
                    }
                }
            }
        }
        assert_eq!(windows, 4 * 4 * 211);
    }

    /// The top `k` of every path of exactly `l` edges, each summed left to
    /// right: the oracle where [`every_path`] would hold every prefix of a
    /// 2 000-interval path. One walk per start that can reach `l`, on an
    /// explicit stack of (node, weight so far, next child to take).
    fn enumerated(graph: &ClusterGraph, k: usize, l: u32) -> Vec<ClusterPath> {
        let mut best = TopKPaths::new(k);
        let m = graph.num_intervals() as u32;
        for start in graph.node_ids().filter(|start| start.interval + l < m) {
            let mut walk = vec![(start, 0.0, 0)];
            while let Some(frame) = walk.last_mut() {
                let (at, weight) = (frame.0, frame.1);
                let length = at.interval - start.interval;
                let next = graph.children(at).get(frame.2).filter(|_| length < l);
                let Some(edge) = next else {
                    if length == l && best.would_admit(weight) {
                        let nodes = walk.iter().map(|frame| frame.0).collect();
                        best.offer_by_weight(ClusterPath::new(nodes, weight));
                    }
                    walk.pop();
                    continue;
                };
                frame.2 += 1;
                if edge.to.interval - start.interval <= l {
                    walk.push((edge.to, weight + edge.weight, 0));
                }
            }
        }
        best.into_sorted()
    }

    fn assert_same(found: &[ClusterPath], expected: &[ClusterPath], case: &str) {
        let key = |path: &ClusterPath| (path.nodes().to_vec(), path.weight().to_bits());
        let found: Vec<_> = found.iter().map(key).collect();
        assert_eq!(
            found,
            expected.iter().map(key).collect::<Vec<_>>(),
            "{case}"
        );
        assert!(!found.is_empty(), "{case}");
    }

    #[test]
    fn a_long_thin_graph_solves_like_its_enumeration() {
        // Every graph above has at most a dozen intervals. Here the last lies
        // 1 999 in, and `l` runs from 2 — a table a thousand times longer
        // than it is wide — through the widest table the view can ask for
        // (`l` = 1 000, a thousand weights per node) to full paths, whole
        // graph and a view that starts 1 500 in. Each answer is the
        // enumeration's, or a clean error: never an abort.
        let graph = long_thin_graph();
        let last = graph.num_intervals() as u32 - 1;
        assert_kernel_is_reference(graph.view(), [2, 3, 1_000, last].into_iter(), "long");
        assert_kernel_is_reference(
            graph.window(1_500, last),
            [2, 499].into_iter(),
            "from 1 500",
        );
        let widest = ahead_of(graph.view(), 1_000);
        let lens = widest.lens(graph.view(), 5);
        assert_eq!(lens.leaving(node(999, 0)).1.len(), 1_000);

        let k = 5;
        let full = enumerated(&graph, k, last);
        assert_same(
            &BfsStableClusters::full_paths(k, &graph).unwrap(),
            &full,
            "bfs full",
        );
        assert_same(
            &TaStableClusters::new(k).run(&graph).unwrap(),
            &full,
            "ta full",
        );
        // And in two ranges: 1 990 start windows of eleven intervals, whose
        // runs share a table each, and 999 of 1 001 intervals, sixteen runs.
        let options = SolverOptions::default().shards(2);
        for l in [10, 1_000] {
            let expected = enumerated(&graph, k, l);
            let found = BfsStableClusters::new(KlStableParams::new(k, l))
                .run(&graph)
                .unwrap();
            assert_same(&found, &expected, &format!("bfs exact:{l}"));
            let spec = StableClusterSpec::ExactLength(l);
            let mut sharded =
                ShardedSolver::new(AlgorithmKind::Bfs, spec, k, options.clone()).unwrap();
            let found = sharded.solve(&graph).unwrap().paths;
            assert_same(&found, &expected, &format!("shards(2) exact:{l}"));
        }

        // `auto` prices the widest table: a byte short of BFS's estimate, with
        // DFS's stack beyond it too, the query is refused as a configuration.
        let shape = GraphShape::of(&graph);
        let budget = bfs_resident_bytes(&shape, k, 1_000) - 1;
        assert!(dfs_resident_bytes(&shape, k, 1_000) > budget);
        let auto = AlgorithmKind::Auto {
            budget_bytes: Some(budget),
        };
        let spec = StableClusterSpec::ExactLength(1_000);
        let refused = auto
            .build(spec, k, graph.num_intervals())
            .unwrap()
            .solve(&graph);
        assert!(
            matches!(refused, Err(BscError::InvalidConfig(_))),
            "{refused:?}"
        );
    }
}
