//! The BFS-based algorithm for kl-stable clusters (Algorithm 2).
//!
//! The cluster graph is processed interval by interval. Every node `c_ij`
//! is annotated with bounded heaps `h^x_ij`, each holding the top-k
//! highest-weight subpaths of length exactly `x` that end at `c_ij`. Because
//! a node of interval `i` can only have parents in intervals
//! `[i − g − 1, i − 1]`, the heaps of the last `g + 1` intervals suffice to
//! compute the heaps of the current interval, and a single pass over the
//! intervals computes the global top-k heap `H` of paths of length exactly
//! `l`.
//!
//! Which heaps exist and what enters them is one policy of that pass, where
//! the paper gives every node `l` heaps: **a subpath is held only if it can
//! still become an answer.** Four rules follow; none can change an answer,
//! only `nodes_processed` (nodes visited), `paths_generated` (candidates
//! considered at them) and `peak_resident_paths`.
//!
//! * *Nobody reads `h^l`.* A child extends a prefix by an edge at least one
//!   interval long, so a node `depth` intervals into the sweep keeps rows for
//!   lengths `1..=min(l − 1, depth)` (`rows_per_node`; none for `l = 1`) and
//!   a length-`l` path is offered to `H` alone.
//! * *The suffix must fit.* The sweep knows how deep the last interval of
//!   its view lies, and a subpath too short to reach length `l` by then
//!   (`problem::shortest_feasible`) is not considered: a full-path query
//!   keeps only subpaths from the view's first interval.
//! * *The best completion must reach `H`.* A subpath of length `x` and
//!   weight `w` that ends at `c` grows into nothing heavier than `w` plus the
//!   best path of length `l − x` leaving `c`; below the k-th answer it is
//!   considered but not held (`problem::can_still_reach`). Before it sweeps,
//!   one backward relaxation over [`GraphView::parents`] (`Completions`, in
//!   the crate-private `lookahead` module, where the TA adaptation reads it
//!   too; a view reads its graph's table through a `Lens`, as its own)
//!   gives every node `c` of the view `C[c][r]`, the heaviest path of
//!   length exactly `r` leaving `c` inside the view, for each `r` a prefix
//!   ending at `c` can ask for — the `startwts` of the paper's TA
//!   adaptation, per length — and `θ₀`, the k-th largest `C[c][l]`: `k`
//!   distinct starts are `k` distinct paths, so the k-th answer weighs at
//!   least `θ₀` and the threshold `max(θ₀, H's)` stands before the first
//!   interval is swept — in a start window as in a whole graph; a window of
//!   a local sharded solve is handed the whole view's `θ₀`, higher than its
//!   own and sound for the merged answer (`sharded.rs`). What the
//!   sweep holds is the prefixes of near-answers: a handful of slots where
//!   the paper's heaps hold `k` per node and length. The threshold only
//!   rises, so what it rules out could not have entered later. It is read
//!   once per node, so the work done does not depend on the order of a node's
//!   parents. With all weights equal every completion ties the k-th answer
//!   and nothing is cut.
//! * *Nobody visits a node nothing live reaches.* A subpath is held at a
//!   node only if a parent offered it: one that holds a prefix of it, or one
//!   it starts at. So the sweep visits a node — walks its parents, lays its
//!   rows out — only if a **live** node marked it, and passes over every
//!   other node without reading an edge. A node is live if its rows hold a
//!   slot once it has been visited, or if a near-answer can start there:
//!   `C[c][l]` is asked of it and reaches `θ₀` (`Lens::can_start`:
//!   `can_still_reach` with an empty prefix, the slack counted twice — the
//!   predicate a sharded solve rules a whole window out by). Every edge out
//!   of `c` was relaxed into `C[c][l]` with the very addition `reaches`
//!   judges the bare edge by, against a threshold that only rises from
//!   `θ₀`, so a start that fails holds no edge `reaches` would hold — the
//!   second slack is for the one thing that differs, the order the slack
//!   itself is added in — and what an unmarked node is passed over with is
//!   exactly nothing. Once an interval is swept its live nodes mark their
//!   children ([`GraphView::children`]); an interval more than half of whose
//!   nodes are live marks every node in reach at once instead, so an input
//!   that cuts nothing (all weights equal) pays no second walk of its edges.
//!   Marking may only err towards visiting. So an interval costs what its
//!   live parents reach, not its width: where a length-`l` path can start
//!   (`depth + l ≤ last`) the sweep still reads every node's start weight,
//!   and visits the marked among them in index order; where none can —
//!   every interval of a start window but its first, the last `l` of a
//!   whole view — nobody is live but whom a visit leaves holding a slot,
//!   and the sweep walks the marked nodes alone, never looking at the rest.
//!   A sweep whose table holds no weight — `l = 1`, or an `l` beyond the
//!   last interval — knows of no node whether it is live, takes every node
//!   for live and visits every node, through the same loop.
//!
//! That pass is written once, as the private `IntervalSweep`: it looks ahead
//! over its view when it is made, its state is the heaps of the intervals
//! already swept, the global heap and the counters, and its one step,
//! `advance`, computes the next interval's heaps from
//! [`GraphView::parents`]. [`BfsStableClusters`] is its one driver: it
//! advances over the intervals of its view — a window is swept in place,
//! lengths counted from its first. The online solver of Section 4.6
//! ([`OnlineStableClusters`](crate::streaming::OnlineStableClusters)) is not
//! a second one: it answers through the windowed executor, one solve of each
//! start window an arrival added, merged with its last answer
//! ([`solve_windows`](crate::delta::solve_windows)).
//!
//! The rows of the intervals already swept live in memory, one flat table
//! per interval (`Ring`). The paper saves `c_ij` along with `h^x_ij` to
//! disk because its rows outgrew memory; these hold the prefixes of
//! near-answers and do not, so no BFS state is ever in storage — DFS is the
//! storage-resident solver.
//!
//! A heap `h^x_ij` is a row of a table: a binary min-heap over a slice of
//! 16-byte `(weight, link)` slots, addressed by node index and length — no
//! hashing, no pointer per heap. The subpath behind a slot is a chain of
//! 12-byte `(node, previous link)` cells in the table's link arena, so
//! extending a prefix by one edge writes one cell and shares the prefix's
//! cells with every sibling extension; the cell is written only once a row
//! admits the candidate, and a candidate that evicts a row's worst subpath
//! takes over that subpath's cell, so an arena holds exactly the links of
//! the slots that survive. Nothing in the sweep is allocated per candidate,
//! per heap or per node: a node's parents are walked once, the candidates
//! that pass the rules above wait in one reused buffer, and a row is sized
//! before it is filled, to `min(k, candidates waiting for it)`; an interval's
//! table is three vectors and a word per node up to the last that holds
//! anything, recycled from the table that has just fallen out of reach. The
//! rows of an interval are kept for `g + 1` further intervals (its possible
//! children), its link cells for `l + g` (the reach of a chain held by those
//! children), so what a sweep retains in heaps is bounded by `l` and `g`
//! however many intervals its view has. The marks are a list of node
//! indices for each interval a child of the interval being swept can lie in
//! — at most `g + 1` of them, and never more than the view has left — an
//! entry per edge a live node marks along, sorted and deduplicated when the
//! list's interval comes up (the ascending order `Ring` keeps rows in),
//! and recycled the same way. The sweep holds its
//! completion table beside them, and that is sized by the view: a node has a
//! weight for each length it can be asked for, at most `min(l, last − l + 1)`
//! of them — one for full paths and inside a start window, 86 KB for
//! 12 × 300 nodes at `l = 6`, a fraction of the view's own adjacency — and
//! none is sized by `k`. It is allocated once (a table the allocator refuses
//! is the query's error, not an abort) and dropped with the sweep — or,
//! built for the whole graph, kept by the graph for every later solve at
//! that length, a start window's included (at most 4 MiB per graph). Only the
//! global heap `H` holds materialized [`ClusterPath`]s — built behind its
//! `would_admit` check — so an answer never points into a table.
//!
//! The sweep is sequential. A solve uses more than one core through shard
//! ranges (`docs/sharding.md`, "How a solve uses cores"), never inside one
//! sweep: the top-k under the strict `(score, content)` order does not
//! depend on who offered a path or in which order, so every driver and
//! every placement produces the identical `Solution`.

use std::cmp::Ordering;
use std::collections::VecDeque;
use std::ops::Range;

use bsc_util::cancel::CancelToken;

use crate::cluster_graph::{ClusterGraph, ClusterNodeId, GraphView};
use crate::error::{BscError, BscResult};
use crate::lookahead::{give_back, spare_list, Completions, Lens};
use crate::path::ClusterPath;
use crate::problem::{can_still_reach, shortest_feasible, KlStableParams};
use crate::solver::{
    check_not_expired, checkpoint, AlgorithmKind, Solution, SolverStats, StableClusterSolver,
};
use crate::topk::TopKPaths;

/// "No cell": a [`Link`] with this `prev` starts its subpath at its own node.
const NO_LINK: u32 = u32::MAX;

/// One subpath held in a row: its weight and the cell of the table's link
/// arena that says how it reaches the row's node.
#[derive(Debug, Clone, Copy)]
struct Slot {
    weight: f64,
    link: u32,
}

/// How a held subpath reaches its last node: over an edge from `node`,
/// after the subpath in cell `prev` of the table that holds `node`'s rows
/// ([`NO_LINK`]: the subpath starts at `node`). A subpath is the chain of
/// its links, latest edge first; subpaths extending one prefix share the
/// prefix's cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Link {
    node: ClusterNodeId,
    prev: u32,
}

/// The empty prefix every node offers its children: extending it by an edge
/// is the base case, the edge itself as a path.
static BARE_EDGE: [Slot; 1] = [Slot {
    weight: 0.0,
    link: NO_LINK,
}];

/// The heaps `h^x` of some nodes as one flat table. Row `r` is
/// `slots[starts[r]..starts[r + 1]]`, a binary min-heap under the
/// `(weight, content)` order whose root is the subpath the next admission
/// evicts; a node's rows are adjacent, indexed by length − 1. `links` is the
/// arena the slots point into, one cell per slot: a candidate that evicts a
/// row's root takes over the root's cell, so the arena never holds a link no
/// slot owns.
#[derive(Debug)]
struct Table {
    starts: Vec<u32>,
    slots: Vec<Slot>,
    links: Vec<Link>,
    /// Slots in use per row while the rows are being filled (only in the
    /// sweep's table of the node in progress; a finished row is full).
    filled: Vec<u32>,
    /// Per node of the interval, by index, the row its rows start at:
    /// [`NO_LINK`], or no entry, for a node that holds nothing (only in a
    /// [`Ring`]'s tables).
    first_row: Vec<u32>,
}

/// More held subpaths than a `u32` cell index can address.
fn table_overflow() -> BscError {
    BscError::InvalidConfig(
        "the BFS heaps of one interval would hold more than 2^32 subpaths; lower k".to_string(),
    )
}

impl Table {
    fn new() -> Table {
        Table {
            starts: vec![0],
            slots: Vec::new(),
            links: Vec::new(),
            filled: Vec::new(),
            first_row: Vec::new(),
        }
    }

    /// Empty the table, keeping its buffers.
    fn reset(&mut self) {
        self.starts.clear();
        self.starts.push(0);
        self.slots.clear();
        self.links.clear();
        self.filled.clear();
        self.first_row.clear();
    }

    /// Start over with one empty row per entry of `room`, each with that
    /// many slots.
    fn lay_out(&mut self, room: &[usize]) -> BscResult<()> {
        self.reset();
        let total = room.iter().fold(0usize, |sum, &r| sum.saturating_add(r));
        if u32::try_from(total).map_or(true, |t| t == NO_LINK) {
            return Err(table_overflow());
        }
        let mut end = 0u32;
        self.starts.extend(room.iter().map(|&r| {
            end += r as u32;
            end
        }));
        let blank = Link {
            node: ClusterNodeId::new(0, 0),
            prev: NO_LINK,
        };
        self.slots.resize(total, BARE_EDGE[0]);
        self.links.resize(total, blank);
        self.filled.resize(room.len(), 0);
        Ok(())
    }

    fn row(&self, row: usize) -> &[Slot] {
        &self.slots[self.starts[row] as usize..self.starts[row + 1] as usize]
    }

    /// The subpaths of length `x` a parent whose rows are `rows` offers its
    /// children: its row `h^x`, or for `x = 0` the empty prefix.
    fn prefixes(&self, rows: &Range<usize>, x: usize) -> &[Slot] {
        match x {
            0 => &BARE_EDGE,
            _ => self.row(rows.start + x - 1),
        }
    }

    /// Could row `row` admit a candidate of this weight right now? As
    /// [`TopKPaths::would_admit`]: `true` means it enters unless it ties the
    /// root and loses the content tie-break.
    fn would_admit(&self, row: usize, weight: f64) -> bool {
        let (start, end) = (self.starts[row], self.starts[row + 1]);
        start + self.filled[row] < end
            || (start < end && weight >= self.slots[start as usize].weight)
    }

    /// Offer row `row` the subpath `link` of weight `weight`; the row keeps
    /// the unique top subpaths under the `(weight, content)` order, whatever
    /// the order of offers.
    fn offer(&mut self, window: &Ring, row: usize, weight: f64, link: Link) {
        let start = self.starts[row] as usize;
        let end = self.starts[row + 1] as usize;
        let cell = start + self.filled[row] as usize;
        if cell < end {
            self.links[cell] = link;
            self.slots[cell] = Slot {
                weight,
                link: cell as u32,
            };
            self.filled[row] += 1;
            sift_up(
                window,
                &self.links,
                &mut self.slots[start..=cell],
                cell - start,
            );
            return;
        }
        let root = self.slots[start];
        let admitted = match weight.total_cmp(&root.weight) {
            Ordering::Less => false,
            Ordering::Equal => {
                chain_cmp(window, Some(link), Some(self.links[root.link as usize]))
                    == Ordering::Less
            }
            Ordering::Greater => true,
        };
        if admitted {
            self.links[root.link as usize] = link;
            self.slots[start].weight = weight;
            sift_down(window, &self.links, &mut self.slots[start..end], 0);
        }
    }
}

/// The link before `link` on its chain, `None` at the chain's first node.
fn prev_link(window: &Ring, link: Link) -> Option<Link> {
    (link.prev != NO_LINK).then(|| window.table(link.node.interval).links[link.prev as usize])
}

/// Order two subpaths that end at the same node by content, exactly as
/// [`ClusterPath::tie_break_key`] orders the materialized node sequences —
/// front to back by `(interval, index)` — without materializing either.
/// The chains are walked latest node first, in step by interval, and the
/// recursion lets the earliest difference decide: a node in an interval the
/// other path skips sorts its path first (the other's node at that position
/// is later), a shared cell ends the walk. Depth is bounded by the two
/// paths' node counts.
fn chain_cmp(window: &Ring, a: Option<Link>, b: Option<Link>) -> Ordering {
    match (a, b) {
        (None, None) => Ordering::Equal,
        (Some(a), None) => chain_cmp(window, prev_link(window, a), None).then(Ordering::Less),
        (None, Some(b)) => chain_cmp(window, None, prev_link(window, b)).then(Ordering::Greater),
        (Some(x), Some(y)) if x == y => Ordering::Equal,
        (Some(x), Some(y)) => match x.node.interval.cmp(&y.node.interval) {
            Ordering::Greater => chain_cmp(window, prev_link(window, x), b).then(Ordering::Less),
            Ordering::Less => chain_cmp(window, a, prev_link(window, y)).then(Ordering::Greater),
            Ordering::Equal => chain_cmp(window, prev_link(window, x), prev_link(window, y))
                .then(x.node.index.cmp(&y.node.index)),
        },
    }
}

/// Is `a` evicted before `b`: lower weight, or equal weight and later
/// content? `links` is the arena both slots point into.
fn evicted_first(window: &Ring, links: &[Link], a: Slot, b: Slot) -> bool {
    let order = a.weight.total_cmp(&b.weight).then_with(|| {
        let (a, b) = (links[a.link as usize], links[b.link as usize]);
        chain_cmp(window, Some(b), Some(a))
    });
    order == Ordering::Less
}

/// Restore the heap order of `row` after its slot `at` was appended.
/// Recursion depth is `log2` of the row.
fn sift_up(window: &Ring, links: &[Link], row: &mut [Slot], at: usize) {
    if at == 0 {
        return;
    }
    let parent = (at - 1) / 2;
    if evicted_first(window, links, row[at], row[parent]) {
        row.swap(at, parent);
        sift_up(window, links, row, parent);
    }
}

/// Restore the heap order of `row` after its slot `at` was replaced.
fn sift_down(window: &Ring, links: &[Link], row: &mut [Slot], at: usize) {
    let left = 2 * at + 1;
    if left >= row.len() {
        return;
    }
    let right = left + 1;
    let child = if right < row.len() && evicted_first(window, links, row[right], row[left]) {
        right
    } else {
        left
    };
    if evicted_first(window, links, row[child], row[at]) {
        row.swap(at, child);
        sift_down(window, links, row, child);
    }
}

/// The nodes of the subpath `link` extended to `last`, in temporal order.
fn chain_nodes(window: &Ring, link: Link, last: ClusterNodeId) -> Vec<ClusterNodeId> {
    let chain = std::iter::successors(Some(link), |&at| prev_link(window, at));
    let mut nodes: Vec<ClusterNodeId> = std::iter::once(last)
        .chain(chain.map(|at| at.node))
        .collect();
    nodes.reverse();
    nodes
}

/// The rows of a node `depth` intervals into a sweep for length `l`. The sweep
/// lays rows out by it and [`Ring`] counts them by it, or neighbours' rows alias.
fn rows_per_node(l: u32, depth: u32) -> usize {
    l.saturating_sub(1).min(depth) as usize
}

/// The in-memory window: one [`Table`] per swept interval, consecutive
/// intervals from `oldest` on; a node `i` intervals past the `first` swept
/// that holds anything has [`rows_per_node`]`(l, i)` rows from its
/// `first_row` on, and one that holds nothing (most do) is that one word.
/// A parent of interval `i` lies in `[i − g − 1, i − 1]`, so only the last
/// `g + 2` tables keep their rows; a subpath held there is shorter than
/// `l`, so its chain reaches back fewer than `l` intervals further, and a
/// table is dropped whole once the sweep is `l + g + 1` intervals past it.
/// What a sweep retains is therefore bounded by `l` and `g`, not by how long
/// it has run.
struct Ring {
    gap: u32,
    l: u32,
    first: u32,
    oldest: u32,
    tables: VecDeque<Table>,
}

impl Ring {
    fn new(gap: u32, l: u32) -> Self {
        Ring {
            gap,
            l,
            first: 0,
            oldest: 0,
            tables: VecDeque::new(),
        }
    }

    /// Make room for `interval`, about to be swept, and let go of what no
    /// later interval can reach.
    fn open(&mut self, interval: u32) {
        // The table `age` intervals back sits `age` places from the end.
        let reach = (self.gap as usize).saturating_add(1);
        if self.tables.is_empty() {
            (self.first, self.oldest) = (interval, interval);
        }
        // A table out of every chain's reach donates its buffers to the
        // new one; so does the row part of the table that just lost its
        // last possible child.
        let expired = self.tables.len() >= reach.saturating_add(self.l as usize);
        let mut table = expired
            .then(|| self.tables.pop_front())
            .flatten()
            .unwrap_or_else(Table::new);
        self.oldest += u32::from(expired);
        let childless = self.tables.len().checked_sub(reach.saturating_add(1));
        if let Some(childless) = childless.and_then(|at| self.tables.get_mut(at)) {
            table.starts = std::mem::take(&mut childless.starts);
            table.slots = std::mem::take(&mut childless.slots);
            table.first_row = std::mem::take(&mut childless.first_row);
        }
        table.reset();
        let (rows, likely) = self
            .tables
            .back()
            .map_or((0, 0), |t| (t.starts.len(), t.links.len()));
        table.starts.reserve(rows);
        table.slots.reserve(likely);
        table.links.reserve(likely);
        self.tables.push_back(table);
    }

    /// The rows of `parent`: their row numbers in `self.table(parent.interval)`,
    /// by length − 1 (empty when nothing is held for it).
    fn load(&self, parent: ClusterNodeId) -> Range<usize> {
        let held = parent.interval.checked_sub(self.oldest);
        let Some(table) = held.and_then(|at| self.tables.get(at as usize)) else {
            return 0..0;
        };
        // A node that holds no slot has no rows: the sweep then tests the
        // parent's bare edge alone. Nor has one out of a child's reach.
        match table.first_row.get(parent.index as usize) {
            Some(&first) if first != NO_LINK => {
                let first = first as usize;
                first..first + rows_per_node(self.l, parent.interval - self.first)
            }
            _ => 0..0,
        }
    }

    /// The table holding the rows and the link cells of `interval`'s nodes.
    fn table(&self, interval: u32) -> &Table {
        &self.tables[(interval - self.oldest) as usize]
    }

    /// Take over a swept node's rows; `rows` is reused for the next node.
    /// The nodes of an interval are kept in index order; one the sweep
    /// passes over is never kept, and [`Ring::load`] reads it as holding
    /// nothing.
    fn keep(&mut self, node: ClusterNodeId, rows: &Table) -> BscResult<()> {
        // Nothing held: no rows, which `load` reads as the same nothing.
        if rows.slots.is_empty() {
            return Ok(());
        }
        // Out of order, the resize below would cut off the rows of the
        // nodes kept after this one.
        let back = (self.oldest as usize + self.tables.len()).checked_sub(1);
        debug_assert_eq!(
            Some(node.interval as usize),
            back,
            "{node} kept in another table"
        );
        let Some(table) = self.tables.back_mut() else {
            return Ok(());
        };
        debug_assert!(
            table.first_row.len() <= node.index as usize,
            "{node} kept after a node of a higher index, or twice"
        );
        // The node's cells go behind the interval's: shift what points at them.
        let base = table.links.len();
        let shift = match u32::try_from(base + rows.links.len()) {
            Ok(end) if end != NO_LINK => base as u32,
            _ => return Err(table_overflow()),
        };
        // Nobody between the last node kept and this one holds anything.
        let first_row = u32::try_from(table.starts.len() - 1).map_err(|_| table_overflow())?;
        table.first_row.resize(node.index as usize, NO_LINK);
        table.first_row.push(first_row);
        table
            .starts
            .extend(rows.starts[1..].iter().map(|&s| s + shift));
        table.slots.extend(rows.slots.iter().map(|s| Slot {
            weight: s.weight,
            link: s.link + shift,
        }));
        table.links.extend_from_slice(&rows.links);
        Ok(())
    }

    /// Paths currently held.
    fn resident_paths(&self) -> usize {
        self.tables.iter().map(|t| t.slots.len()).sum()
    }
}

/// Algorithm 2 as a pass over one view: what it knows of the view before it
/// sweeps it, the rows of the intervals swept so far (a [`Ring`]), the
/// global top-k of length-`l` paths, and the counters.
/// [`IntervalSweep::advance`] is the only place the algorithm's inner loop
/// exists.
struct IntervalSweep<'t> {
    k: usize,
    l: u32,
    /// How every subpath of the view can end, and how deep its last interval
    /// lies: the view's own table, or its graph's read as its own. It decides
    /// the work done, never the answer.
    ahead: Lens<'t>,
    window: Ring,
    /// The rows of the node in progress.
    rows: Table,
    /// The candidates of the node in progress that its rows will be
    /// offered, as `(row, weight, link)`.
    pending: Vec<(usize, f64, Link)>,
    /// Per row of the node in progress, how many of them.
    room: Vec<usize>,
    /// Materialized, so the answer never points into a table.
    global: TopKPaths,
    /// The live nodes of the interval being swept, by index: who marks
    /// their children once it is swept. A field like every buffer of the
    /// step: a vector local to `advance` gives each call in its loop an
    /// unwind edge, and an all-equal-weights solve read 5–17 % slower for it.
    live: Vec<u32>,
    /// Whom a live node has marked, as node indices in the order marked,
    /// repeats included: at the front the interval being swept, behind it
    /// the intervals a child of one of its nodes can lie in. A list is
    /// sorted and deduplicated when its interval's turn comes, and goes to
    /// the back, emptied, once its interval is swept.
    marks: VecDeque<Vec<u32>>,
    /// Every node of an interval before this one is marked, whatever
    /// `marks` says: what an interval crowded with live nodes leaves behind.
    all_marked_before: u32,
    stats: SolverStats,
    /// Amortization counter of the cancellation checkpoints.
    tick: u32,
}

#[cfg(test)]
impl IntervalSweep<'_> {
    /// Mark every node of every interval to come, as if every node were
    /// live: what the sweep then visits and holds is what it held before it
    /// passed over anyone.
    fn mark_everyone(&mut self) {
        self.all_marked_before = u32::MAX;
    }

    /// Slots and link cells the window retains.
    fn retained(&self) -> (usize, usize) {
        let tables = &self.window.tables;
        let slots = tables.iter().map(|t| t.slots.len()).sum();
        let links = tables.iter().map(|t| t.links.len()).sum();
        (slots, links)
    }

    /// The subpaths held for `node` as paths, by length − 1 (no rows once
    /// they are out of a child's reach).
    fn held(&self, node: ClusterNodeId) -> Vec<Vec<ClusterPath>> {
        let rows = self.window.load(node);
        if rows.is_empty() {
            return Vec::new();
        }
        let table = self.window.table(node.interval);
        rows.map(|row| {
            let path = |slot: &Slot| {
                assert_ne!(slot.link, NO_LINK, "{node} keeps a blank slot");
                let link = table.links[slot.link as usize];
                ClusterPath::new(chain_nodes(&self.window, link, node), slot.weight)
            };
            table.row(row).iter().map(path).collect()
        })
        .collect()
    }

    /// Audit what the window holds once `swept` has been advanced over:
    /// every held slot is a path of `view` that ends at its node, has its
    /// row's length and weighs, summed left to right, exactly what the slot
    /// says; no row below the feasibility floor holds anything. Returns
    /// every held path.
    fn audit(&self, view: GraphView<'_>, swept: u32) -> Vec<ClusterPath> {
        let (l, first) = (self.l, view.first_interval());
        let mut held = Vec::new();
        for interval in first..=swept {
            let depth = interval - first;
            let floor = shortest_feasible(l, depth, self.ahead.last());
            for node in view.interval_node_ids(interval) {
                let rows = self.held(node);
                assert!(
                    rows.is_empty() || rows.len() == rows_per_node(l, depth),
                    "{node} keeps {} rows",
                    rows.len()
                );
                for (row, paths) in rows.into_iter().enumerate() {
                    let length = row as u32 + 1;
                    assert!(
                        paths.is_empty() || length >= floor,
                        "{node} holds length {length} below the floor {floor}"
                    );
                    for path in &paths {
                        assert_eq!(path.last(), node);
                        assert_eq!(path.length(), length, "{path:?} in row {row} of {node}");
                        assert!(path.first().interval >= first, "{path:?} leaves the view");
                        let sum = path.nodes().windows(2).fold(0.0, |sum, edge| {
                            let weight = view.graph().edge_weight(edge[0], edge[1]);
                            sum + weight.expect("a held subpath follows edges of the graph")
                        });
                        assert_eq!(sum.to_bits(), path.weight().to_bits(), "{path:?}");
                    }
                    held.extend(paths);
                }
            }
        }
        held
    }

    /// The top-k paths of length exactly `l` over the intervals swept so
    /// far, in descending weight order.
    fn top_k(&self) -> Vec<ClusterPath> {
        self.global.clone().into_sorted()
    }

    /// What the sweep has counted so far.
    fn stats(&self) -> SolverStats {
        self.stats
    }
}

/// One representable step of [`threshold_scenario`]'s weights.
#[cfg(test)]
const STEP: f64 = 1.0 / (1u64 << 40) as f64;

/// A six-interval graph (gap 0) for `k = 1`, `l = 3`, its first interval
/// numbered `offset`, with dyadic weights so every sum is exact:
///
/// ```text
/// v0    v1    v2    v3    v4    v5
/// a ─1─ a ─1─ a ─¾─ a                      2.75, complete at v3
///             b ─¾+STEP─ b ─1─ b ─1─ b   2.75 + STEP: the answer
///             c ─¾−STEP─ c ─1─ c ─1─ c   2.75 − STEP
/// ```
///
/// The sweep knows θ₀ = 2.75 + STEP before v0 and how every lane ends: `b`
/// meets θ₀ exactly and is held all the way, `a` misses it by one step, `c`
/// by two, and neither is ever held. Lane `a` is the answer while the graph
/// ends at v3 or v4 (`streaming.rs` answers after every arrival).
///
/// With `offset > 0` the earlier intervals hold a chain of weight-1 edges
/// into `a` at v0 that beats everything — unless the view starts at
/// `offset`. Swept as a whole, the only live start is `b`
/// at v2 (`C[b][3] = θ₀`; `a` at v0 starts 2.75 at best, `c` misses by two
/// steps, and nothing of length 3 leaves v1 or `a` at v2), so nobody is
/// visited before v3 and three nodes are in all, one candidate each: v3 `b`
/// 1 (the edge, held), which marks v4 `b` 1 (length 2, held; the bare edge
/// can no longer fit), which marks v5 `b` 1 (into `H`): 3. Visiting every
/// node considered 7: the edges into `a` at v1, v2 and v3 and into `c` at v3
/// as well, none of them held. Returned with the answer, lane `b`.
#[cfg(test)]
pub(crate) fn threshold_scenario(offset: u32) -> (ClusterGraph, ClusterPath) {
    use crate::cluster_graph::ClusterGraphBuilder;
    let mut builder = ClusterGraphBuilder::new(0);
    let node = |v: u32, index: u32| ClusterNodeId::new(offset + v, index);
    for _ in 0..offset {
        builder.add_interval(1);
    }
    for nodes in [1, 1, 3, 3, 2, 2] {
        builder.add_interval(nodes);
    }
    for before in 0..offset {
        let to = ClusterNodeId::new(before + 1, 0);
        builder.add_edge(ClusterNodeId::new(before, 0), to, 1.0);
    }
    builder.add_edge(node(0, 0), node(1, 0), 1.0);
    builder.add_edge(node(1, 0), node(2, 0), 1.0);
    builder.add_edge(node(2, 0), node(3, 0), 0.75);
    for (lane, weight) in [(1, 0.75 + STEP), (2, 0.75 - STEP)] {
        builder.add_edge(node(2, lane), node(3, lane), weight);
        builder.add_edge(node(3, lane), node(4, lane - 1), 1.0);
        builder.add_edge(node(4, lane - 1), node(5, lane - 1), 1.0);
    }
    let answer = vec![node(2, 1), node(3, 1), node(4, 0), node(5, 0)];
    (builder.build(), ClusterPath::new(answer, 2.75 + STEP))
}

impl<'t> IntervalSweep<'t> {
    /// A sweep of `view` that has learnt how every subpath of it can end:
    /// `ahead`, a lens over `view` of a table built before any interval is
    /// swept. `tick` carries on the amortization of the table's checkpoints.
    fn new(params: KlStableParams, view: GraphView<'_>, ahead: Lens<'t>, tick: u32) -> Self {
        IntervalSweep {
            k: params.k,
            l: params.l,
            ahead,
            window: Ring::new(view.gap(), params.l),
            rows: Table::new(),
            pending: Vec::new(),
            room: Vec::new(),
            global: TopKPaths::new(params.k),
            live: Vec::new(),
            marks: VecDeque::new(),
            all_marked_before: 0,
            stats: SolverStats::default(),
            tick,
        }
    }

    /// Sweep `interval` of `view`: compute the heaps `h^x` of each of its
    /// nodes a live node has marked from its parents' heaps and offer every
    /// length-`l` path to the global heap. A shorter subpath is held only if
    /// it can still become an answer (module docs): it fits before the last
    /// interval, and its best completion reaches the k-th answer. Of an
    /// interval where no length-`l` path can start it walks only the marked
    /// nodes. A sweep whose table holds no weight visits every node.
    /// Intervals must be swept in order, each once; a failed sweep
    /// (`cancel` tripped, a table too large to address) is not resumable.
    fn advance(
        &mut self,
        view: GraphView<'_>,
        interval: u32,
        cancel: Option<&CancelToken>,
    ) -> BscResult<()> {
        let (k, l) = (self.k, self.l);
        let num_nodes = view.nodes_in_interval(interval);
        let depth = interval - view.first_interval();
        self.window.open(interval);
        // The lengths `total` a parent `len` intervals back extends its
        // held lengths `x` to (`x = 0`: the edge itself), as `(x, total)`:
        // up to `l`, and from the shortest that still fits before `last`.
        let ahead = &self.ahead;
        let floor = shortest_feasible(l, depth, ahead.last());
        let known = ahead.floor();
        let extended_lengths = move |len: u32, rows: &Range<usize>| {
            (floor.saturating_sub(len) as usize..=rows.len())
                .map(move |x| (x, x as u32 + len))
                .take_while(move |&(_, total)| total <= l)
        };
        // Who is visited: whoever a live node marked, or for want of a
        // weight that says who is live, everyone. The marks, sorted and
        // deduplicated now, are the ascending order `Ring::keep` needs.
        let sparse = ahead.holds_weights();
        let everyone = !sparse || interval < self.all_marked_before;
        if let Some(marked) = self.marks.front_mut() {
            marked.sort_unstable();
            marked.dedup();
        }
        let marked = self.marks.front().map_or(&[][..], Vec::as_slice);
        // Can a length-`l` path start here? Not where it would end past the
        // last interval: every interval of a start window but its first,
        // the last `l` of a whole view. There nobody is live but whom a
        // visit leaves holding a slot, and only the marked are walked.
        let may_start = !sparse || depth.saturating_add(l) <= ahead.last();
        let walk_all = everyone || may_start;
        let walked = match walk_all {
            true => num_nodes,
            false => marked.len() as u32,
        };
        self.live.clear();
        let mut next_marked = marked.iter().copied().peekable();
        for at in 0..walked {
            let index = match walk_all {
                true => at,
                false => marked[at as usize],
            };
            let node = ClusterNodeId::new(interval, index);
            // Can a near-answer start here? (Everyone, where the table holds
            // no weight to say; they are all visited anyway.)
            let starts = may_start && ahead.can_start(node);
            let visited = everyone || !walk_all || next_marked.next_if_eq(&index).is_some();
            if !visited {
                if starts {
                    self.live.push(index);
                }
                continue;
            }
            checkpoint(cancel, &mut self.tick)?;
            self.stats.nodes_processed += 1;
            let (shortest, best) = ahead.leaving(node);
            let parents = view.parents(node);
            // Read once per node: every parent is judged by the same
            // threshold whatever this node adds to `H` meanwhile, so the
            // count does not depend on parent order. The threshold only
            // rises, so what it rules out stays out.
            let min_k = self.global.admission_threshold().max(known);
            // The rest of a subpath `total` long: the best that leaves this
            // node.
            let reaches = move |total: u32, weight: f64| {
                let completion = best[(l - total - shortest) as usize];
                can_still_reach(l, weight, completion, min_k)
            };

            // One pass over the parents: count every candidate, offer the
            // length-`l` ones to `H`, and set the shorter ones that reach
            // aside — few, with the completions known — to size the rows by.
            self.pending.clear();
            self.room.clear();
            self.room.resize(rows_per_node(l, depth), 0);
            for parent_edge in parents {
                let parent = parent_edge.to;
                let weight = parent_edge.weight;
                let len = ClusterGraph::edge_length(parent, node);
                // An edge longer than l extends nothing.
                let rows = if len > l {
                    0..0
                } else {
                    self.window.load(parent)
                };
                let held = self.window.table(parent.interval);
                for (x, total) in extended_lengths(len, &rows) {
                    for prefix in held.prefixes(&rows, x) {
                        self.stats.paths_generated += 1;
                        let extended_weight = prefix.weight + weight;
                        let extended = Link {
                            node: parent,
                            prev: prefix.link,
                        };
                        // Worst-score fast path: skip the extension (and
                        // the heap churn) when the heap could not admit it.
                        if total == l {
                            if self.global.would_admit(extended_weight) {
                                let nodes = chain_nodes(&self.window, extended, node);
                                self.global
                                    .offer_by_weight(ClusterPath::new(nodes, extended_weight));
                            }
                        } else if reaches(total, extended_weight) {
                            let row = total as usize - 1;
                            self.room[row] += 1;
                            self.pending.push((row, extended_weight, extended));
                        }
                    }
                }
            }
            // A row never needs more than k slots.
            self.room.iter_mut().for_each(|room| *room = k.min(*room));
            self.rows.lay_out(&self.room)?;
            for &(row, weight, link) in &self.pending {
                if self.rows.would_admit(row, weight) {
                    self.rows.offer(&self.window, row, weight, link);
                }
            }
            // A finished row is full: a blank slot would read as a prefix.
            let filled = self.rows.filled.iter().map(|&filled| filled as usize);
            debug_assert!(filled.eq(self.room.iter().copied()));
            self.window.keep(node, &self.rows)?;
            if starts || (sparse && !self.rows.slots.is_empty()) {
                self.live.push(index);
            }
        }
        // A live node marks its children. An interval more than half of
        // whose nodes are live reaches most of what lies in reach: marking
        // all of it costs nothing, child by child the edges a second time.
        if 2 * self.live.len() > num_nodes as usize {
            let reach = interval.saturating_add(view.max_edge_length());
            self.all_marked_before = self.all_marked_before.max(reach.saturating_add(1));
        } else {
            for &index in &self.live {
                checkpoint(cancel, &mut self.tick)?;
                for child in view.children(ClusterNodeId::new(interval, index)) {
                    let beyond = (child.to.interval - interval) as usize;
                    if self.marks.len() <= beyond {
                        self.marks.resize_with(beyond + 1, spare_list);
                    }
                    self.marks[beyond].push(child.to.index);
                }
            }
        }
        // The interval's own marks are spent: its list goes to the back,
        // for an interval nobody has marked yet.
        if let Some(mut spent) = self.marks.pop_front() {
            spent.clear();
            self.marks.push_back(spent);
        }
        let resident = self.window.resident_paths();
        self.stats.peak_resident_paths = self.stats.peak_resident_paths.max(resident);
        Ok(())
    }

    /// Batch BFS: read how every subpath of `view` can end off `table` (a
    /// table of `view`'s own, or of the graph that holds it), with `θ₀`
    /// raised to `floor`, then sweep its intervals.
    fn run(
        params: KlStableParams,
        view: GraphView<'_>,
        table: &Completions,
        floor: f64,
        cancel: Option<&CancelToken>,
        tick: u32,
    ) -> BscResult<(Vec<ClusterPath>, SolverStats)> {
        let ahead = table.lens(view, params.l, params.k, floor);
        let mut sweep = IntervalSweep::new(params, view, ahead, tick);
        for interval in view.intervals() {
            sweep.advance(view, interval, cancel)?;
        }
        // The mark lists go back to the thread, for its next sweep.
        sweep.marks.into_iter().for_each(give_back);
        Ok((sweep.global.into_sorted(), sweep.stats))
    }
}

/// The BFS-based kl-stable-clusters solver.
#[derive(Debug, Clone)]
pub struct BfsStableClusters {
    params: KlStableParams,
    cancel: Option<CancelToken>,
    /// A weight the caller's k-th answer is known to reach, pruned by beside
    /// the view's own `θ₀`: a sharded solve's windows are handed the whole
    /// view's. `−∞` unless a window solve sets it.
    floor: f64,
}

impl BfsStableClusters {
    /// Create a solver for the given parameters.
    pub fn new(params: KlStableParams) -> Self {
        BfsStableClusters {
            params,
            cancel: None,
            floor: f64::NEG_INFINITY,
        }
    }

    /// Prune by `floor` too, a weight the merged k-th answer of the solve
    /// this one is a window of is known to reach (`sharded.rs`). The paths
    /// are then those of the window that can enter that answer, not the
    /// window's own top-k.
    pub(crate) fn with_floor(mut self, floor: f64) -> Self {
        self.floor = floor;
        self
    }

    /// Attach a cooperative-cancellation token. The sweep observes it at
    /// amortized checkpoints (roughly one real check per
    /// [`CancelToken::CHECK_INTERVAL`] of them) and aborts with
    /// [`BscError::DeadlineExceeded`](crate::error::BscError) once it trips.
    /// A checkpoint counts a node visited, or a live node marking its
    /// children — not a node scanned: the sweep passes over a node nobody
    /// marked at no more than a look at its start weight, and walks only the
    /// marked ones of an interval where nobody can start. Building the
    /// look-ahead table, where the graph keeps none, counts its nodes.
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

    /// Run the algorithm over a graph or a view of one, returning the top-k
    /// paths of length exactly `l` in descending weight order.
    pub fn run<'a>(&self, graph: impl Into<GraphView<'a>>) -> BscResult<Vec<ClusterPath>> {
        self.run_with_stats(graph).map(|(paths, _)| paths)
    }

    /// Run the algorithm and also report execution statistics. Of
    /// [`SolverStats`] it fills `nodes_processed` (nodes visited: those a
    /// live node marked, module docs; every node for `l = 1`),
    /// `paths_generated` (candidates considered at visited nodes: every
    /// extension that still fits before the last interval, counted *before*
    /// the bound and the worst-score admission fast path, so it depends only
    /// on the graph and the query) and `peak_resident_paths` (paths held
    /// across all node heaps simultaneously, a proxy for the memory
    /// footprint).
    ///
    /// The look-ahead is `GraphView::completions`: a table the graph keeps
    /// that holds the view's weights at `l`, or one built first (one the allocator refuses, or a
    /// tripped token, is the error). Either way the same answer and the same
    /// counters.
    pub fn run_with_stats<'a>(
        &self,
        graph: impl Into<GraphView<'a>>,
    ) -> BscResult<(Vec<ClusterPath>, SolverStats)> {
        let view = graph.into();
        let KlStableParams { k, l } = self.params;
        let cancel = self.cancel.as_ref();
        check_not_expired(cancel)?;
        let m = view.num_intervals() as u32;
        if k == 0 || l == 0 || m < 2 {
            return Ok((Vec::new(), SolverStats::default()));
        }
        let mut tick = 0;
        let table = view.completions(l, cancel, &mut tick)?;
        IntervalSweep::run(self.params, view, &table, self.floor, cancel, tick)
    }
}

impl StableClusterSolver for BfsStableClusters {
    fn name(&self) -> &'static str {
        "bfs"
    }

    fn algorithm(&self) -> AlgorithmKind {
        AlgorithmKind::Bfs
    }

    fn solve_view(&mut self, view: GraphView<'_>) -> BscResult<Solution> {
        Solution::of(|| self.run_with_stats(view))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster_graph::ClusterGraphBuilder;
    use crate::lookahead::{every_path, long_thin_graph, reweighted, NO_FLOOR, WEIGHTINGS};
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

    /// What a sweep learns before it sweeps.
    fn ahead_of(view: GraphView<'_>, params: KlStableParams) -> Completions {
        Completions::of(view, params.l, None, &mut 0).unwrap()
    }

    /// A sweep of `view` over `table`, as `run` makes one.
    fn sweep_of<'t>(
        table: &'t Completions,
        params: KlStableParams,
        view: GraphView<'_>,
    ) -> IntervalSweep<'t> {
        IntervalSweep::new(
            params,
            view,
            table.lens(view, params.l, params.k, NO_FLOOR),
            0,
        )
    }

    /// `C[node][r]`, for an `r` asked of `node`.
    fn completion(ahead: &Lens<'_>, node: ClusterNodeId, r: u32) -> f64 {
        let (shortest, best) = ahead.leaving(node);
        best[(r - shortest) as usize]
    }

    #[test]
    fn every_held_subpath_is_a_path_that_can_still_become_an_answer() {
        // The audit runs after every interval, over whole graphs and a window
        // that has edges crossing both of its ends; every path of the view,
        // enumerated, is what the answers are held against (and, in
        // `lookahead.rs`, the table and θ₀).
        for gap in [0, 1, 2] {
            let graph = ClusterGraphGenerator::new(SyntheticGraphParams {
                num_intervals: 8,
                nodes_per_interval: 9,
                avg_out_degree: 3,
                gap,
                seed: 31 + u64::from(gap),
            })
            .generate();
            for view in [graph.view(), graph.window(2, 6)] {
                let paths = every_path(view);
                let first = view.first_interval();
                let last = view.num_intervals() as u32 - 1;
                for l in 1..=last.min(6) {
                    for k in [1, 3] {
                        let params = KlStableParams::new(k, l);
                        let case = format!("gap={gap} first={first} l={l} k={k}");
                        let mut exhaustive = TopKPaths::new(k);
                        for path in paths.iter().filter(|path| path.length() == l) {
                            exhaustive.offer_by_weight(path.clone());
                        }
                        let exhaustive = exhaustive.into_sorted();
                        assert!(!exhaustive.is_empty(), "{case}");

                        let table = ahead_of(view, params);
                        let mut sweep = sweep_of(&table, params, view);
                        let mut held = 0;
                        for interval in view.intervals() {
                            let before = sweep.global.admission_threshold();
                            sweep.advance(view, interval, None).unwrap();
                            held += sweep.audit(view, interval).len();
                            // What the interval holds passed the rule as it
                            // stood when the interval was opened.
                            let min_k = before.max(sweep.ahead.floor());
                            for node in view.interval_node_ids(interval) {
                                for path in sweep.held(node).into_iter().flatten() {
                                    let rest = l - path.length();
                                    let completion = completion(&sweep.ahead, node, rest);
                                    assert!(
                                        can_still_reach(l, path.weight(), completion, min_k),
                                        "{case}: {path:?} is held"
                                    );
                                }
                            }
                        }
                        assert_eq!(held == 0, l == 1, "{case}");
                        assert_eq!(sweep.top_k(), exhaustive, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn the_bound_keeps_what_beats_the_threshold_by_one_step_and_drops_its_twin() {
        let params = KlStableParams::new(1, 3);
        let (graph, answer) = threshold_scenario(0);
        let (shifted, shifted_answer) = threshold_scenario(2);
        for (view, answer) in [
            (graph.view(), &answer),
            (shifted.window(2, 7), &shifted_answer),
        ] {
            let first = view.first_interval();
            let (paths, stats) = BfsStableClusters::new(params).run_with_stats(view).unwrap();
            assert_eq!(paths, std::slice::from_ref(answer), "first={first}");
            // Hand-counted in `threshold_scenario`'s docs.
            assert_eq!(stats.paths_generated, 3, "first={first}");
            assert_eq!(stats.nodes_processed, 3, "first={first}");
        }
        // The whole shifted graph sees the chain its window does not.
        let whole = BfsStableClusters::new(params).run(&shifted).unwrap();
        assert_eq!(whole[0].weight(), 3.0);

        // Lane `a`, one step short of θ₀, and the twin are never held.
        let table = ahead_of(graph.view(), params);
        let mut sweep = sweep_of(&table, params, graph.view());
        assert_eq!(sweep.ahead.floor(), 2.75 + STEP);
        for interval in graph.view().intervals() {
            sweep.advance(graph.view(), interval, None).unwrap();
            let held = sweep.audit(graph.view(), interval);
            assert!(held.iter().all(|path| path.first() == node(2, 1)));
            if interval == 3 {
                let kept = ClusterPath::new(vec![node(2, 1), node(3, 1)], 0.75 + STEP);
                assert_eq!(sweep.held(node(3, 1)), [vec![kept], vec![]]);
                assert!(sweep.held(node(3, 0)).is_empty() && sweep.held(node(3, 2)).is_empty());
            }
        }
        assert_eq!(sweep.top_k(), [answer]);
    }

    /// The top `k` paths of length `l` among `paths`, the view's every path.
    fn brute_force(paths: &[ClusterPath], k: usize, l: u32) -> Vec<ClusterPath> {
        let mut top = TopKPaths::new(k);
        for path in paths.iter().filter(|path| path.length() == l) {
            top.offer_by_weight(path.clone());
        }
        top.into_sorted()
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

    fn assert_same_paths(found: &[ClusterPath], expected: &[ClusterPath], case: &str) {
        assert_eq!(found.len(), expected.len(), "{case}");
        for (found, expected) in found.iter().zip(expected) {
            assert_eq!(found.nodes(), expected.nodes(), "{case}");
            assert_eq!(
                found.weight().to_bits(),
                expected.weight().to_bits(),
                "{case}"
            );
        }
    }

    #[test]
    fn a_sweep_whose_table_holds_no_weight_visits_every_node() {
        // Who is live is read off the completion table, and a table holds no
        // weight for `l = 1` (no prefix is ever held) or an `l` the view
        // cannot hold: "no start passes" must then read "nobody knows", not
        // "nobody is live" — the first cut of the marks answered `exact:1`
        // with nothing. Beside it the edges of the rule: full paths, a view
        // of two intervals, and a `k` no graph can fill (θ₀ = −∞, every start
        // is live). Each against every path of the view, enumerated.
        for gap in [0, 1, u32::MAX] {
            let graph = random_graph(5, 6, 2, gap, 640 + u64::from(gap.min(2)));
            for view in [graph.view(), graph.window(1, 4), graph.window(2, 3)] {
                let paths = every_path(view);
                let last = view.num_intervals() as u32 - 1;
                for l in [1, 2, last, last + 1] {
                    for k in [1, 4, usize::MAX] {
                        let params = KlStableParams::new(k, l);
                        let first = view.first_interval();
                        let case = format!("gap={gap} first={first} last={last} l={l} k={k}");
                        let expected = brute_force(&paths, k, l);
                        assert_eq!(expected.is_empty(), l > last, "{case}");
                        let sparse = ahead_of(view, params)
                            .lens(view, l, k, NO_FLOOR)
                            .holds_weights();
                        assert_eq!(sparse, (2..=last).contains(&l), "{case}");
                        let (found, stats) =
                            BfsStableClusters::new(params).run_with_stats(view).unwrap();
                        assert_same_paths(&found, &expected, &case);
                        let everyone = stats.nodes_processed == view.num_nodes() as u64;
                        assert!(sparse || everyone, "{case}: {stats:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_node_the_sweep_passes_over_would_have_held_nothing() {
        // Every sweep twice: as shipped, and with every node marked (test
        // code's only way in; no request can ask for it). After each interval
        // every node holds the same subpaths either way — so what was passed
        // over holds nothing when it is visited — and the peaks and the
        // answers agree to the bit. Weights that separate completions
        // (uniform), that tie in heaps (the three values of
        // `tests/algorithm_equivalence.rs::tie_heavy`), that cut nothing (all
        // equal) and that nearly do (two values); edges of one interval, two,
        // and any length; whole graphs and windows that edges cross into.
        let mut graphs = Vec::new();
        for seed in 0..17 {
            for gap in [0, 1, u32::MAX] {
                let base = random_graph(6, 10, 2, gap, 4_100 + seed);
                for (name, weight) in WEIGHTINGS {
                    let graph = reweighted(&base, weight);
                    graphs.push((format!("{name} gap={gap} seed={seed}"), graph, 1, 4));
                }
            }
        }
        graphs.push((
            "threshold scenario".to_string(),
            threshold_scenario(2).0,
            2,
            7,
        ));
        assert!(graphs.len() > 200);
        let (mut passed_over, mut visited) = (0, 0);
        for (name, graph, start, end) in &graphs {
            for view in [graph.view(), graph.window(*start, *end)] {
                let first = view.first_interval();
                for l in 1..view.num_intervals() as u32 {
                    for k in [1, 5, 50] {
                        let params = KlStableParams::new(k, l);
                        let case = format!("{name} first={first} l={l} k={k}");
                        let table = ahead_of(view, params);
                        let sweep = || sweep_of(&table, params, view);
                        let (mut shipped, mut everyone) = (sweep(), sweep());
                        everyone.mark_everyone();
                        for interval in view.intervals() {
                            shipped.advance(view, interval, None).unwrap();
                            everyone.advance(view, interval, None).unwrap();
                            for node in view.interval_node_ids(interval) {
                                let held = everyone.held(node);
                                assert_eq!(shipped.held(node), held, "{case}: {node}");
                            }
                            assert_eq!(shipped.retained(), everyone.retained(), "{case}");
                        }
                        let (shipped_stats, stats) = (shipped.stats(), everyone.stats());
                        assert_eq!(stats.nodes_processed, view.num_nodes() as u64, "{case}");
                        assert_eq!(
                            shipped_stats.peak_resident_paths, stats.peak_resident_paths,
                            "{case}"
                        );
                        assert!(
                            shipped_stats.paths_generated <= stats.paths_generated,
                            "{case}"
                        );
                        assert_same_paths(&shipped.top_k(), &everyone.top_k(), &case);
                        passed_over += stats.nodes_processed - shipped_stats.nodes_processed;
                        visited += shipped_stats.nodes_processed;
                    }
                }
            }
        }
        // Both happen often: passing over, and visiting whom somebody marked.
        assert!(
            passed_over > 50_000 && visited > 50_000,
            "{passed_over} {visited}"
        );
    }

    #[test]
    fn the_marks_grow_with_the_gap_and_the_widest_interval_not_with_the_stream() {
        // 2 000 intervals of three nodes, gap 2. Lane 0 is a chain of weight-1
        // edges, so for `k = 1` its nodes alone are live — one node in three,
        // marked child by child — and each reaches `g + 1` intervals ahead.
        let (m, gap, l) = (2_000u32, 2u32, 10u32);
        let mut builder = ClusterGraphBuilder::new(gap);
        for _ in 0..m {
            builder.add_interval(3);
        }
        for i in 1..m {
            builder.add_edge(node(i - 1, 0), node(i, 0), 1.0);
            builder.add_edge(node(i - 1, 1), node(i, 2), 0.25);
            if i > gap {
                builder.add_edge(node(i - gap - 1, 0), node(i, 1), 0.25);
            }
        }
        let graph = builder.build();
        let view = graph.view();
        let params = KlStableParams::new(1, l);
        let table = ahead_of(view, params);
        let mut sweep = sweep_of(&table, params, view);
        let mut widest_ring = 0;
        for interval in view.intervals() {
            sweep.advance(view, interval, None).unwrap();
            // The intervals a child can lie in, and the list just spent.
            assert!(sweep.marks.len() <= gap as usize + 2, "{interval}");
            assert!(
                sweep.marks.iter().all(|marks| marks.len() <= 3),
                "{interval}"
            );
            assert!(sweep.live.len() <= 3, "{interval}");
            widest_ring = widest_ring.max(sweep.marks.len());
        }
        assert_eq!(widest_ring, gap as usize + 2);
        // Lane 0 and whom it marks: two nodes of three, no more.
        assert_eq!(sweep.stats().nodes_processed, u64::from(2 * (m - 1) - gap));
        assert_eq!(sweep.top_k()[0].weight(), f64::from(l));

        // A gap of `u32::MAX` sizes nothing: a child lies inside the view,
        // and a list is made for an interval only when a node of it is
        // marked. (Nothing here is sized by a request: a mark list holds an
        // entry per edge a live node marked along, and there are no more
        // lists than the view has intervals.)
        let graph = random_graph(4, 6, 1, u32::MAX, 77);
        let params = KlStableParams::new(1, 2);
        let table = ahead_of(graph.view(), params);
        let mut sweep = sweep_of(&table, params, graph.view());
        for interval in graph.view().intervals() {
            sweep.advance(graph.view(), interval, None).unwrap();
            assert!(
                sweep.marks.len() <= 4 && sweep.all_marked_before <= 4,
                "{interval}"
            );
        }
        let expected = brute_force(&every_path(graph.view()), 1, 2);
        assert_same_paths(&sweep.top_k(), &expected, "gap=u32::MAX");
    }

    #[test]
    fn what_a_batch_sweep_retains_at_its_peak_is_bounded_by_k_l_g_and_the_widest_interval() {
        // Why BFS keeps its rows in memory, where the paper puts them on disk:
        // at its peak a batch sweep retains a slot (16 B) per held subpath in
        // the `g + 2` tables a child can read, and a link cell (12 B) per slot
        // in the `l + g + 1` tables a held chain can reach — each table at most
        // `k · rows_per_node` slots per node of the widest interval, however
        // many intervals the view has. Measured on the benchmark's 12 × 300
        // topology under every weighting (all equal cuts nothing), and on a
        // 2 000-interval graph; docs/performance.md, "What a batch sweep
        // retains", records the peaks.
        assert_eq!(
            (std::mem::size_of::<Slot>(), std::mem::size_of::<Link>()),
            (16, 12)
        );
        let k = 10;
        let benchmark = random_graph(12, 300, 5, 1, 20_240_607);
        let mut cases = Vec::new();
        for (name, weight) in WEIGHTINGS {
            let graph = reweighted(&benchmark, weight);
            cases.push((format!("{name} exact:6"), graph.clone(), 6));
            cases.push((format!("{name} full"), graph, 11));
        }
        let thin = long_thin_graph();
        cases.push(("long thin exact:6".to_string(), thin.clone(), 6));
        cases.push(("long thin full".to_string(), thin, 1_999));
        for (case, graph, l) in cases {
            let view = graph.view();
            let params = KlStableParams::new(k, l);
            let table = ahead_of(view, params);
            let mut sweep = sweep_of(&table, params, view);
            let (mut peak_slots, mut peak_links, mut peak_bytes) = (0, 0, 0);
            for interval in view.intervals() {
                sweep.advance(view, interval, None).unwrap();
                let (slots, links) = sweep.retained();
                peak_slots = peak_slots.max(slots);
                peak_links = peak_links.max(links);
                peak_bytes = peak_bytes.max(16 * slots + 12 * links);
            }
            assert_eq!(sweep.stats().peak_resident_paths, peak_slots, "{case}");
            let widest = view.intervals().map(|i| view.nodes_in_interval(i));
            let per_table = k * rows_per_node(l, u32::MAX) * widest.max().unwrap() as usize;
            let g = view.gap() as usize;
            assert!(
                peak_slots <= per_table * (g + 2),
                "{case}: {peak_slots} slots"
            );
            assert!(
                peak_links <= per_table * (l as usize + g + 1),
                "{case}: {peak_links} links"
            );
            assert!(peak_bytes < 16 << 20, "{case}: {peak_bytes} B");
        }
    }

    #[test]
    fn a_cancelled_solve_keeps_no_table_and_the_next_one_does() {
        let graph = ClusterGraphGenerator::new(SyntheticGraphParams {
            num_intervals: 12,
            nodes_per_interval: 300,
            avg_out_degree: 5,
            gap: 1,
            seed: 20_240_607,
        })
        .generate();
        let expired = CancelToken::new();
        expired.cancel();
        let bfs = BfsStableClusters::new(KlStableParams::new(5, 3));
        let cancelled = bfs.clone().with_cancel(Some(expired.clone())).run(&graph);
        assert!(matches!(cancelled, Err(BscError::DeadlineExceeded { .. })));
        // A build the token trips part-way through (3 600 nodes, a check
        // every 1 024) keeps nothing either.
        let tripped = graph.view().completions(3, Some(&expired), &mut 0);
        assert!(matches!(tripped, Err(BscError::DeadlineExceeded { .. })));
        assert!(graph.memoized().is_empty());
        let answer = bfs.run(&graph).unwrap();
        assert_eq!(graph.memoized(), [3]);
        assert_eq!(answer, bfs.run(&graph.clone()).unwrap());
    }

    #[test]
    fn marks_that_reach_an_interval_out_of_order_from_two_intervals_are_walked_in_order() {
        // Gap 1, four intervals of six nodes, `exact:2`, `k = 2`. Starts
        // a (0,0) and b (1,0) are live, nobody else is (θ₀ = 1.0, a's
        // gap edge alone; every other start reaches 0.61 at most):
        //
        //   a → (2,4) 1.0 (length 2)   b → (2,1) 0.5 → (3,1) 0.55
        //                              b → (2,4) 0.5 → (3,4) 0.6
        //
        // and weak edges of 0.01 along every other lane. a marks (2,4) once
        // interval 0 is swept; b marks (2,1) and (2,4) once interval 1 is:
        // interval 2's list reads [4, 1, 4], from two intervals, out of
        // order and with a repeat. No length-2 path starts in interval 2,
        // so that list is all it walks, and both nodes keep a row that
        // interval 3 extends into the answers. Walked unsorted, the row of
        // (2,4) is cut off by (2,1)'s and 1.1 is lost; walked with the
        // repeat, (2,4) is visited twice. The counters are the ones the
        // sweep that scanned every node of every interval gave.
        let mut builder = ClusterGraphBuilder::new(1);
        for _ in 0..4 {
            builder.add_interval(6);
        }
        builder.add_edge(node(0, 0), node(2, 4), 1.0);
        for (lane, first, second) in [(1, 0.5, 0.55), (4, 0.5, 0.6)] {
            builder.add_edge(node(1, 0), node(2, lane), first);
            builder.add_edge(node(2, lane), node(3, lane), second);
        }
        for lane in 1..6 {
            builder.add_edge(node(0, lane), node(1, lane), 0.01);
            builder.add_edge(node(1, lane), node(2, lane), 0.01);
            if ![1, 4].contains(&lane) {
                builder.add_edge(node(2, lane), node(3, lane), 0.01);
            }
        }
        let graph = builder.build();
        let (view, params) = (graph.view(), KlStableParams::new(2, 2));
        let table = ahead_of(view, params);
        let mut sweep = sweep_of(&table, params, view);
        assert_eq!(sweep.ahead.floor(), 1.0);
        sweep.advance(view, 0, None).unwrap();
        sweep.advance(view, 1, None).unwrap();
        assert_eq!(sweep.marks.front(), Some(&vec![4, 1, 4]));
        sweep.advance(view, 2, None).unwrap();
        assert_eq!(sweep.held(node(2, 1)).concat()[0].weight(), 0.5);
        assert_eq!(sweep.held(node(2, 4)).concat()[0].weight(), 0.5);
        sweep.advance(view, 3, None).unwrap();
        let expected = brute_force(&every_path(view), 2, 2);
        let weights: Vec<f64> = expected.iter().map(ClusterPath::weight).collect();
        assert_eq!(weights, [0.5 + 0.6, 0.5 + 0.55]);
        assert_same_paths(&sweep.top_k(), &expected, "stepped");
        let (found, stats) = BfsStableClusters::new(params)
            .run_with_stats(&graph)
            .unwrap();
        assert_same_paths(&found, &expected, "solved");
        assert_eq!(stats, sweep.stats());
        let scanning_every_node = SolverStats {
            nodes_processed: 4,
            paths_generated: 7,
            peak_resident_paths: 2,
            ..SolverStats::default()
        };
        assert_eq!(stats, scanning_every_node);
    }

    #[test]
    fn a_k_beyond_every_count_sizes_nothing() {
        // θ₀ is selected among at most one weight per node: a `k` no graph
        // can fill answers −∞ (and every path there is), whatever it is.
        let mut builder = ClusterGraphBuilder::new(0);
        for _ in 0..3 {
            builder.add_interval(1);
        }
        builder.add_edge(node(0, 0), node(1, 0), 0.5);
        builder.add_edge(node(1, 0), node(2, 0), 0.25);
        let graph = builder.build();
        for (view, l, weights) in [
            (graph.view(), 1, vec![0.5, 0.25]),
            (graph.view(), 2, vec![0.75]),
            (graph.window(1, 2), 1, vec![0.25]),
        ] {
            let params = KlStableParams::new(usize::MAX, l);
            let ahead = ahead_of(view, params);
            let lens = ahead.lens(view, l, params.k, NO_FLOOR);
            assert_eq!(lens.floor(), f64::NEG_INFINITY);
            let paths = BfsStableClusters::new(params).run(view).unwrap();
            let found: Vec<f64> = paths.iter().map(ClusterPath::weight).collect();
            assert_eq!(found, weights, "l={l}");
        }
    }

    #[test]
    fn stats_are_populated() {
        let graph = figure5_graph();
        let (_, stats) = BfsStableClusters::new(KlStableParams::new(2, 2))
            .run_with_stats(&graph)
            .unwrap();
        // Nobody marks the first interval; c11 and c13 start the two answers
        // and crowd it, so the other two are visited whole.
        assert_eq!(stats.nodes_processed, 6);
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
