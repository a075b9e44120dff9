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
//!   [`GraphView::children`], first interval first): the heaviest path to
//!   `c` from a start of the view's first interval that the full-path lens
//!   admits ([`Lens::can_start`]), and per interval the nodes it reaches,
//!   in index order. It is `endwts`; only TA reads it, and lists edges from
//!   the reached nodes alone. It relaxes from those nodes alone too, so it
//!   costs what the admitted starts reach, not the view's width.
//!
//! Either is sized by the view — never by `k` — allocated once, fallibly
//! ([`blank`]: a table the allocator refuses is the query's error, not an
//! abort), and dropped with the solve — or kept by its graph (below). What
//! is read through them is judged
//! by [`can_still_reach`](crate::problem::can_still_reach), whose slack
//! covers the different orders the two passes and a solver sum a path in.
//!
//! **A table answers every view whose weights it holds.** `C[c][r]` is the
//! best of the paths of length `r` leaving `c`, and all of them end at
//! `c`'s interval plus `r`: no view that holds those intervals sees another
//! path, and the pass sums each the same way (right to left, from the
//! child's slot for `r − len`). So a table's slot is the same bits whatever
//! view or `l` it was built for, and a table answers a view at `l` wherever
//! it asks every length the view asks of each node
//! ([`Completions::covers`]); a [`Lens`] ([`Completions::lens`]) then reads
//! the view's rows at the view's own `l` and takes the view's own `θ₀` over
//! the view's own starts. Two such containments carry the reuse:
//!
//! * *The whole graph's table for `l` holds every start window's.* A start
//!   window `[s, s + l]` asks one length of each node, `l − d` of a node `d`
//!   intervals in; the whole graph's table asks of a node `D` intervals in
//!   every length from `max(l − D, 1)` to `min(l, last − D)`: exactly the
//!   lengths the windows that hold it ask, one each. The graph's `θ₀` would
//!   be higher than a window's own, and unsound for a window's own top-k. It
//!   is sound for the merged top-k of all the windows, which is all a local
//!   sharded solve of the whole graph answers, so such a solve takes each
//!   window's lens with the graph's `θ₀` as its floor (the `floor` of
//!   [`Completions::lens`], whose `θ₀` heap then skips every start below it
//!   at one compare) and sweeps no window none of whose starts
//!   [`Lens::can_start`] (`sharded.rs`).
//! * *The last start window's table for `l` holds every shorter last
//!   window's.* Every window `[t − l, t]` that ends at the graph's last
//!   interval `t` asks a node of interval `i` the one length `t − i`,
//!   whatever `l` is: the tables of an epoch's last windows are nested, the
//!   deeper holding the shallower. Deepening is as cheap: a kept row is
//!   final, since a completion reads only later intervals, all of them in
//!   both windows. So the deeper window's table is new rows ahead of the
//!   kept ones, and only the new intervals and the `g + 1` kept ones their
//!   edges reach are relaxed; a kept row relaxed again keeps its bits,
//!   because [`raise`] moves a slot only on a strictly greater weight.
//!
//! `k` plays no part in a table, and a graph never changes once built, so a
//! graph keeps the tables its solves built ([`Memo`], read and filled only
//! through [`GraphView::completions`]): the first solve of the whole graph
//! at `l` builds one, and every later solve of that graph it covers —
//! unsharded, each start window of a sharded one, TA's `startwts` — reads
//! it; and it keeps its last start window's table, as deep as the deepest
//! `l` asked, which every tail window a fed query solves at the graph's end
//! reads or deepens (`delta.rs`). A graph an append makes builds its first
//! last-window table as deep as its parent's last window was asked, so an
//! epoch whose queries ask the lengths the last one asked builds one table,
//! at its first query, whatever order the others come in; a deeper ask
//! still deepens it. Per epoch, the table work of the fed queries is one
//! backward pass as deep as the deepest `l` asked. What a graph keeps is
//! capped at [`MEMO_WEIGHTS`] (4 MiB); past that a solve builds its table
//! and drops it, as every solve did before.
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

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::Range;
use std::sync::{Arc, Mutex};

use bsc_graph::csr::prefix_offsets;
use bsc_util::cancel::CancelToken;

use crate::cluster_graph::{ClusterNodeId, GraphView};
use crate::error::{BscError, BscResult};
use crate::problem::{can_still_reach, summation_slack};
use crate::solver::checkpoint;

/// How every subpath of a view can end: the table `C[c][r]` — the largest
/// weight of a path of length exactly `r` that leaves `c` inside the view,
/// `−∞` where there is none — filled by one backward relaxation over
/// [`GraphView::parents`], each sum built right to left. A node has a weight
/// only for the `r` it can be asked for ([`Completions::lengths`]): at most
/// `min(l, last − l + 1)` of them, one for full paths and inside a start
/// window. A solver reads it through a [`Lens`] over its own view at its own
/// `l`, which may be the table's or any the table [covers](Completions::covers)
/// (every start window reads the whole graph's). Dropped with the solve, or
/// kept by the graph ([`Memo`]).
pub(crate) struct Completions {
    l: u32,
    first: u32,
    /// Per interval of the view, where its nodes' weights lie in `best`.
    asked: Vec<Asked>,
    /// `C[c][r]`, a node's weights adjacent, by `r − shortest`.
    best: Vec<f64>,
}

/// The most weights one graph keeps in its [`Memo`] (4 MiB): `stream-delta`'s
/// 70 × 1 000 graph at `l = 3` (about 204 k) fits, as do `serve-cold`'s six
/// lengths of 12 × 300 together. A sharded solve whose whole table is larger
/// reads a table of each window's own, as it would solved alone; past that,
/// [`table_overflow`]'s advice holds. No option sets it.
pub(crate) const MEMO_WEIGHTS: usize = (4 << 20) / std::mem::size_of::<f64>();

/// The look-ahead tables one graph keeps, at most [`MEMO_WEIGHTS`] of them
/// together and none evicted: one per `l` of the whole graph, filled by the
/// first solve of the whole graph at that `l`, and one of its last start
/// window `[t − l, t]`, as deep as the deepest `l` a solve asked of it —
/// deepened, not rebuilt, when a longer one is asked. Every later solve of
/// the graph reads whichever [covers](Completions::covers) its view
/// ([`GraphView::completions`], the one place that decides what is kept). A
/// clone of the graph starts empty; every graph an append makes starts
/// with no table and builds its first last-window table as deep as the
/// deepest `l` its parent's last window was asked ([`Memo::appended`]). A
/// shard thread's handle on the graph shares its memo ([`Memo::shared`]),
/// so the windows it solves read the tables the graph keeps and keep theirs
/// there. A poisoned lock reads as empty and keeps nothing.
#[derive(Default)]
pub(crate) struct Memo(Arc<Mutex<Kept>>);

/// What a [`Memo`] holds.
#[derive(Default)]
struct Kept {
    /// The whole graph's tables, in the order kept.
    whole: Vec<Arc<Completions>>,
    /// The table of the graph's last start window.
    last: Option<Arc<Completions>>,
    /// The deepest `l` a solve asked of the graph's last start window.
    deepest: u32,
    /// How deep the first last-window table is built: the `deepest` of the
    /// graph this one was appended to.
    ahead: u32,
    /// Look-ups a kept table answered, whichever handle on the graph asked
    /// (read by the tests of who reads which table).
    #[cfg_attr(not(test), allow(dead_code))]
    answered: usize,
}

impl Kept {
    /// The weights kept, over every table.
    fn weights(&self) -> usize {
        self.tables().map(|table| table.best.len()).sum()
    }

    fn tables(&self) -> impl Iterator<Item = &Arc<Completions>> {
        self.whole.iter().chain(&self.last)
    }

    /// A kept table that holds every weight `view` reads at `l`: the whole
    /// graph's for `l`, which covers every view at `l` and is found without
    /// a walk over the view, else any that covers it.
    fn covering(&self, view: GraphView<'_>, l: u32) -> Option<Arc<Completions>> {
        let own = self.whole.iter().find(|table| table.l == l);
        own.or_else(|| self.tables().find(|table| table.covers(view, l)))
            .cloned()
    }
}

impl GraphView<'_> {
    /// The look-ahead table the view reads for paths of length `l`: a table
    /// its graph keeps that [covers](Completions::covers) it, if any; else
    /// one built now — for the graph's last start window `[t − l, t]`, the
    /// kept table of a shorter last window deepened, and as deep as the
    /// graph this one was appended to was asked, where that is deeper and
    /// fits [`MEMO_WEIGHTS`] — and kept for the
    /// solves that follow if it is the whole graph's, or the last window's
    /// and deeper than the one kept, unless the memo would outgrow
    /// [`MEMO_WEIGHTS`] or a racing build, the same bits, was kept first.
    /// The table of any other view is its own, kept by nobody. Its
    /// checkpoints count on `tick`; a cancelled or refused build keeps
    /// nothing.
    pub(crate) fn completions(
        self,
        l: u32,
        cancel: Option<&CancelToken>,
        tick: &mut u32,
    ) -> BscResult<Arc<Completions>> {
        let graph = self.graph();
        let end = graph.num_intervals() as u32;
        let whole = self.num_intervals() == end as usize;
        // A start window that ends at the graph's last interval, asking
        // weights: a kept table of a shorter one holds its deepest rows.
        let window = !whole && self.intervals().end == end && last_of(self) == l && l >= 2;
        let memo = &graph.memo.0;
        let (found, last, ahead) = match memo.lock() {
            Ok(mut held) => {
                if window {
                    held.deepest = held.deepest.max(l);
                }
                let found = held.covering(self, l);
                held.answered += usize::from(found.is_some());
                (found, held.last.clone(), held.ahead)
            }
            Err(_) => (None, None, 0),
        };
        if let Some(table) = found {
            return Ok(table);
        }
        // The last window as deep as the graph appended to was asked, where
        // that fits: its table holds this one's and the epoch's deeper asks.
        let depth = ahead.min(end.saturating_sub(2));
        let deeper = (window && depth > l)
            .then(|| graph.window(end - 1 - depth, end - 1))
            .filter(|&deeper| Completions::weights(deeper, depth) <= MEMO_WEIGHTS);
        let (view, l) = deeper.map_or((self, l), |deeper| (deeper, depth));
        let table = Arc::new(match last.filter(|_| window) {
            Some(shorter) => shorter.deepened(view, l, cancel, tick)?,
            None => Completions::of(view, l, cancel, tick)?,
        });
        if let (true, Ok(mut held)) = (whole || window, memo.lock()) {
            // A last window's table replaces the shallower one kept.
            let freed = held
                .last
                .as_ref()
                .filter(|_| window)
                .map_or(0, |kept| kept.best.len());
            let fits = held.weights() - freed + table.best.len() <= MEMO_WEIGHTS;
            if fits && held.covering(view, l).is_none() {
                let kept = Some(Arc::clone(&table));
                match window {
                    true => held.last = kept,
                    false => held.whole.extend(kept),
                }
            }
        }
        Ok(table)
    }
}

impl Memo {
    /// The memo of a graph appended to this one's: no table, and the first
    /// table of its last start window is built as deep as this graph's was
    /// asked, so the next epoch's fed queries build one table in any order.
    pub(crate) fn appended(&self) -> Memo {
        let deepest = self.0.lock().map_or(0, |held| held.deepest);
        Memo(Arc::new(Mutex::new(Kept {
            ahead: deepest,
            ..Kept::default()
        })))
    }

    /// This very memo, for a second handle on the same graph value.
    pub(crate) fn shared(&self) -> Memo {
        Memo(Arc::clone(&self.0))
    }
}

impl Clone for Memo {
    /// An empty memo: a clone is a cold graph.
    fn clone(&self) -> Memo {
        Memo::default()
    }
}

impl std::fmt::Debug for Memo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let weights = self.0.lock().map_or(0, |held| held.weights());
        write!(f, "Memo({weights} weights)")
    }
}

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

/// How many node-index lists a thread keeps for its next pass, and the most
/// entries one it keeps may hold: a list let go past either is freed.
const SPARE_LISTS: usize = 16;
const SPARE_ENTRIES: usize = 1 << 16;

thread_local! {
    /// The node-index lists this thread's passes let go of ([`give_back`]).
    static SPARE: RefCell<Vec<Vec<u32>>> = const { RefCell::new(Vec::new()) };
}

/// An empty list of node indices — a BFS sweep's marks, the forward pass's
/// reached nodes — reusing one this thread's last pass let go of. Each
/// window of a sharded solve is a pass of its own, and lists made afresh
/// for every window raised a serving process's peak resident memory
/// (docs/performance.md, "A window costs what its live starts reach").
pub(crate) fn spare_list() -> Vec<u32> {
    let spare = SPARE.try_with(|spare| spare.borrow_mut().pop());
    spare.ok().flatten().unwrap_or_default()
}

/// Let `list` go, for this thread's next pass to [reuse](spare_list).
pub(crate) fn give_back(mut list: Vec<u32>) {
    if list.capacity() == 0 || list.capacity() > SPARE_ENTRIES {
        return;
    }
    list.clear();
    let _ = SPARE.try_with(|spare| {
        let mut spare = spare.borrow_mut();
        if spare.len() < SPARE_LISTS {
            spare.push(list);
        }
    });
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
    /// node and length asked of it. The whole graph's holds exactly the sum
    /// of its start windows' counts. (`of` spells the same layout out inline:
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
        let mut ahead = Completions::laid_out(view, l)?;
        ahead.relax(view, view.intervals(), cancel, tick)?;
        Ok(ahead)
    }

    /// `view`'s table for `l`, every weight `−∞`.
    fn laid_out(view: GraphView<'_>, l: u32) -> BscResult<Completions> {
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
        Ok(Completions {
            l,
            first,
            asked: view.intervals().zip(&offsets).map(layout).collect(),
            best: blank(total)?,
        })
    }

    /// Relax every edge into `intervals`, a run of the intervals of `view`
    /// (the table's own), last interval first: each into the rows of its
    /// parent, from the child's row, which every edge leaving the child has
    /// been relaxed into by then — or was final before.
    fn relax(
        &mut self,
        view: GraphView<'_>,
        intervals: Range<u32>,
        cancel: Option<&CancelToken>,
        tick: &mut u32,
    ) -> BscResult<()> {
        if self.best.is_empty() {
            return Ok(());
        }
        let first = self.first;
        // Indexed by edge length; no edge has length 0.
        let mut plan = vec![Step::default()];
        for interval in intervals.rev() {
            let depth = interval - first;
            let mine = self.asked[depth as usize];
            // Parents lie in earlier intervals: their rows are all before ours.
            let (earlier, ours) = self.best.split_at_mut(mine.at);
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
                        grow(&mut plan, &self.asked, depth, len);
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
        Ok(())
    }

    /// The table of `view`, the graph's last start window `[t − l, t]`, from
    /// this one, the table of a shorter last window. Both ask a node `t − i`
    /// of its interval `i`, one length each, and a weight is final once the
    /// intervals after its node are relaxed — all of them in both windows —
    /// so the deeper table is new rows ahead of the kept ones. Two runs of
    /// intervals are relaxed: the new ones, and the kept ones an edge from a
    /// new one reaches (the first `gap + 1`). A kept row relaxed again by an
    /// edge of the kept window keeps its bits: [`raise`] moves a slot only
    /// on a strictly greater weight, and the slot holds that very sum.
    fn deepened(
        &self,
        view: GraphView<'_>,
        l: u32,
        cancel: Option<&CancelToken>,
        tick: &mut u32,
    ) -> BscResult<Completions> {
        let mut deeper = Completions::laid_out(view, l)?;
        let new = deeper.best.len() - self.best.len();
        let skipped = (self.first - deeper.first) as usize;
        debug_assert!(self
            .asked
            .iter()
            .zip(&deeper.asked[skipped..])
            .all(|(kept, ours)| {
                (kept.at + new, kept.shortest, kept.width) == (ours.at, ours.shortest, ours.width)
            }));
        deeper.best[new..].copy_from_slice(&self.best);
        let reached = self.first.saturating_add(view.max_edge_length());
        let relaxed = view.first_interval()..reached.min(view.intervals().end);
        deeper.relax(view, relaxed, cancel, tick)?;
        Ok(deeper)
    }

    /// Does this table hold every weight `view` reads at `l`? It does when
    /// the view lies inside the table's and every length the view asks of a
    /// node is among those the table asks of it. Then what a [`Lens`] reads
    /// there is what `view`'s own table would hold, bit for bit: a path of
    /// length `r` from a node of interval `i` ends at `i + r`, inside both
    /// views, so either slot is the max over the very paths, each summed in
    /// the very order (right to left, from the child's slot for `r − len`,
    /// itself asked in both). A view that asks nothing (`l = 1`, or `l`
    /// beyond it) is covered by any table that spans it.
    pub(crate) fn covers(&self, view: GraphView<'_>, l: u32) -> bool {
        let (first, last) = (view.first_interval(), last_of(view));
        let end = view.intervals().end;
        let within = first >= self.first && (end - self.first) as usize <= self.asked.len();
        within
            && view.intervals().all(|interval| {
                let table = self.asked[(interval - self.first) as usize];
                let asked = Completions::lengths(l, interval - first, last);
                let held = table.shortest..table.shortest + table.width as u32;
                asked.is_empty() || held.start <= asked.start && asked.end <= held.end
            })
    }

    /// What `view` would read at `l` in a table of its own, and its `θ₀`
    /// for `k` raised to `floor` (a weight the answer its reader contributes
    /// to is known to reach; `−∞` for none): the same bits, off any table
    /// that [covers](Completions::covers) the view at `l` — its own, a wider
    /// view's for the same `l` (the whole graph's for each of its start
    /// windows), or a deeper last window's. A start below `floor` cannot
    /// move that θ₀, so the heap that selects it skips it at one compare: a
    /// window of a sharded solve, handed the whole view's `θ₀`, heaps
    /// almost nothing.
    pub(crate) fn lens(&self, view: GraphView<'_>, l: u32, k: usize, floor: f64) -> Lens<'_> {
        let (first, last) = (view.first_interval(), last_of(view));
        debug_assert!(self.covers(view, l));
        let layout = |interval: u32| {
            let table = self.asked[(interval - self.first) as usize];
            let asked = Completions::lengths(l, interval - first, last);
            // An empty range may start past the table's: no length is asked.
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
        // path starts, which sorts last — read once into a min-heap of the
        // `min(k, starts)` largest at or above `floor`, whatever `k` is: a
        // weight costs one compare unless it displaces the least. Its least
        // is the k-th largest `select_nth_unstable_by` would pick, to the
        // bit, where at least `k` starts reach `floor`; where fewer do, the
        // k-th largest lies below `floor`, and `floor` is the answer.
        let floor_rank = ranked(floor.to_bits() as i64);
        let asks_l = |(_, rows): &(u32, &Rows)| rows.shortest + rows.width as u32 > l;
        let starts = view.intervals().zip(&rows).filter(asks_l);
        let mut top = BinaryHeap::new();
        starts.for_each(|(interval, rows)| {
            // An interval without nodes may have no row to start from.
            let from = self
                .best
                .get(rows.at + rows.width - 1..)
                .unwrap_or_default();
            let ends = from.iter().step_by(rows.stride).take(nodes(interval));
            ends.for_each(|end| {
                let end = Reverse(ranked(end.to_bits() as i64));
                // Once the heap is full its least reaches `floor`, and so
                // does whatever displaces it.
                if top.len() < k {
                    if end.0 >= floor_rank {
                        top.push(end);
                    }
                } else if let Some(mut least) = top.peek_mut().filter(|least| end < **least) {
                    *least = end;
                }
            });
        });
        let least = top.peek().filter(|_| top.len() == k);
        let kth = least.map(|least| ranked(least.0) as u64);
        Lens {
            best: &self.best,
            l,
            first,
            last,
            rows,
            floor: kth.map_or(floor, f64::from_bits),
            holds_weights,
        }
    }
}

/// A table weight's place in [`f64::total_cmp`]'s order, as the integer that
/// method compares; given that integer, the weight's bits again.
fn ranked(bits: i64) -> i64 {
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// How many intervals into `view` its last one lies.
fn last_of(view: GraphView<'_>) -> u32 {
    (view.num_intervals() as u32).saturating_sub(1)
}

/// One view's reading of a [`Completions`] built over it or over a view
/// that holds it ([`Completions::lens`]): what its own table would answer,
/// and its own `θ₀`. Every solve reads its table through one — the whole
/// view's over its own table or its graph's, a start window's over its
/// graph's where the graph keeps one.
pub(crate) struct Lens<'t> {
    best: &'t [f64],
    l: u32,
    first: u32,
    /// How many intervals into the view its last one lies.
    last: u32,
    /// Per interval of the view, where its nodes' weights lie in `best`.
    rows: Vec<Rows>,
    floor: f64,
    holds_weights: bool,
}

impl<'t> Lens<'t> {
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
    /// fewer than `k` of them start a length-`l` path — or the higher floor
    /// the lens was taken with ([`Completions::lens`]): a sharded solve's
    /// windows read the whole view's `θ₀`, which holds for the merged top-k
    /// though not for a window's own. `k` distinct starts are `k` distinct
    /// paths, so the final k-th answer weighs at least this (within
    /// [`can_still_reach`]'s slack) before anything is searched. Taken over
    /// the view's own starts only: a run's starts would set a floor one
    /// window's own top-k cannot reach.
    #[inline]
    pub(crate) fn floor(&self) -> f64 {
        self.floor
    }

    /// Can a near-answer start at `node`? It can if `C[node][l]` is asked of
    /// it and reaches the floor — [`can_still_reach`] with an empty prefix,
    /// the slack counted twice: every edge out of `node` was relaxed into
    /// `C[node][l]` with the very addition a sweep judges the bare edge by,
    /// so a start that fails holds no edge the sweep would hold, to the last
    /// bit. A lens that holds no weight knows nothing of any node and rules
    /// none out. The one test of who is live at a sweep's first visit
    /// (`bfs.rs`) and of which start windows a sharded solve sweeps at all.
    #[inline]
    pub(crate) fn can_start(&self, node: ClusterNodeId) -> bool {
        if !self.holds_weights {
            return true;
        }
        let (l, (shortest, best)) = (self.l, self.leaving(node));
        let whole = best.get((l - shortest) as usize);
        whole.is_some_and(|&whole| can_still_reach(l, summation_slack(l), whole, self.floor))
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

/// How every full path of a view that can be an answer begins — the forward
/// mirror of a full-path [`Completions`]: for each node `c`, the largest
/// weight of a path to `c` from a node of the view's first interval that its
/// full-path [`Lens`] admits ([`Lens::can_start`]; `0` at such a start, `−∞`
/// at every other start and wherever no admitted start arrives), filled by
/// one forward relaxation over [`GraphView::children`], each sum built left
/// to right — and, per interval, the nodes it reached (a weight above `−∞`),
/// in ascending index order. A start the lens rejects begins no path that
/// can reach its floor (`ta.rs` module docs), so what it would arrive with
/// is never asked, and no node only such starts reach is ever walked: the
/// pass relaxes the edges of the reached nodes alone, and TA lists from
/// them alone. One weight per node of the view, one index per node reached.
/// Dropped with the solve.
pub(crate) struct Arrivals {
    first: u32,
    /// Per interval of the view, where its nodes' weights lie in `best`.
    at: Vec<usize>,
    best: Vec<f64>,
    /// The indices of the nodes reached, interval after interval, each
    /// interval's ascending.
    reached: Vec<u32>,
    /// Per interval of the view, where its reached nodes start in
    /// `reached`; one entry more, the end of the last.
    reached_at: Vec<usize>,
}

impl Arrivals {
    /// Seed the starts `starts` admits — a full-path lens over `view`; one
    /// that holds no weight, or whose floor is `−∞`, admits every start —
    /// and relax, once, every edge leaving a node they reach, first interval
    /// first. A node is listed in its interval's reached list when an edge
    /// first arrives at it, and an interval's list is sorted when its turn
    /// comes, so a node none reaches costs nothing at all. The checkpoints
    /// count the nodes reached on `tick`, the caller's own.
    pub(crate) fn of(
        view: GraphView<'_>,
        starts: &Lens<'_>,
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
            reached: spare_list(),
            reached_at: Vec::with_capacity(view.num_intervals() + 1),
        };
        // Whom an edge has reached, by interval: at the front the interval
        // being relaxed, behind it those an edge of it can end in. A list
        // goes to the back, emptied, once its interval is relaxed.
        let mut arriving = VecDeque::from([spare_list()]);
        let seeds = behind.best[..nodes(first)].iter_mut();
        // bsc:allow(missing-cancel-checkpoint) -- one read per start; the relaxation below checkpoints every node reached
        for (seed, start) in seeds.zip(view.interval_node_ids(first)) {
            if starts.can_start(start) {
                *seed = 0.0;
                arriving[0].push(start.index);
            }
        }
        for (depth, interval) in view.intervals().enumerate() {
            let (_, children) = view.rows(interval);
            // Where each later interval's weights start, by edge length; none
            // past the view's last interval.
            let later = &behind.at[depth..view.num_intervals()];
            let mut mine = arriving.pop_front().unwrap_or_else(spare_list);
            mine.sort_unstable();
            behind.reached_at.push(behind.reached.len());
            for &index in &mine {
                checkpoint(cancel, tick)?;
                // Every edge into this node has been relaxed: its weight is final.
                let so_far = behind.best[later[0] + index as usize];
                for edge in children.row(index) {
                    let len = (edge.to.interval - interval) as usize;
                    let Some(&at) = later.get(len) else {
                        continue;
                    };
                    let slot = &mut behind.best[at + edge.to.index as usize];
                    // A first arrival: `so_far` and the weight are finite.
                    if *slot == f64::NEG_INFINITY {
                        if arriving.len() < len {
                            arriving.resize_with(len, spare_list);
                        }
                        arriving[len - 1].push(edge.to.index);
                    }
                    raise(slot, so_far + edge.weight);
                }
            }
            behind.reached.extend_from_slice(&mine);
            mine.clear();
            arriving.push_back(mine);
        }
        behind.reached_at.push(behind.reached.len());
        arriving.into_iter().for_each(give_back);
        Ok(behind)
    }

    /// The heaviest path to `node` from a start the lens admitted.
    #[inline]
    pub(crate) fn arriving(&self, node: ClusterNodeId) -> f64 {
        self.best[self.at[(node.interval - self.first) as usize] + node.index as usize]
    }

    /// The indices of `interval`'s nodes an admitted start reaches, in
    /// ascending order: exactly those whose [`arriving`](Arrivals::arriving)
    /// weight is above `−∞`.
    #[inline]
    pub(crate) fn reached(&self, interval: u32) -> &[u32] {
        let depth = (interval - self.first) as usize;
        &self.reached[self.reached_at[depth]..self.reached_at[depth + 1]]
    }
}

impl Drop for Arrivals {
    fn drop(&mut self) {
        give_back(std::mem::take(&mut self.reached));
    }
}

#[cfg(test)]
impl Memo {
    /// The lengths a table is kept for: the whole graph's in the order
    /// kept, then the last start window's.
    pub(crate) fn lengths(&self) -> Vec<u32> {
        let held = self.0.lock().unwrap();
        held.tables().map(|table| table.l).collect()
    }

    /// How many look-ups a kept table answered.
    pub(crate) fn answered(&self) -> usize {
        self.0.lock().unwrap().answered
    }
}

/// The floor of a lens taken for nobody's merged answer: `θ₀` is the
/// view's own.
#[cfg(test)]
pub(crate) const NO_FLOOR: f64 = f64::NEG_INFINITY;

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
    use crate::distributed::solve_window_locally;
    use crate::path::ClusterPath;
    use crate::problem::{summation_slack, KlStableParams, StableClusterSpec};
    use crate::sharded::ShardedSolver;
    use crate::solver::{AlgorithmKind, SolverOptions, SolverStats, StableClusterSolver};
    use crate::synthetic::{ClusterGraphGenerator, SyntheticGraphParams};
    use crate::ta::TaStableClusters;
    use crate::topk::TopKPaths;

    /// The backward relaxation as written before the plan, into the layout
    /// `of` lays out, and `C[c][l]` of every node asked it, `−∞` included:
    /// each parent through [`GraphView::parents`], each length it asks
    /// through a `match` on what is left for the child. The reference the
    /// kernel is held to, and, through [`floor_by_reference`], the lens.
    fn completions_by_reference(view: GraphView<'_>, l: u32) -> (Vec<f64>, Vec<f64>) {
        let first = view.first_interval();
        let mut ahead = ahead_of(view, l);
        ahead.best.fill(f64::NEG_INFINITY);
        let mut whole = Vec::new();
        for interval in view.intervals().rev() {
            let depth = interval - first;
            let mine = ahead.asked[depth as usize];
            for index in 0..view.nodes_in_interval(interval) {
                let child = ClusterNodeId::new(interval, index);
                let child_row = mine.at + index as usize * mine.width;
                if mine.shortest + mine.width as u32 > l {
                    whole.push(ahead.best[child_row + mine.width - 1]);
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
        (ahead.best, whole)
    }

    /// `θ₀` as the pass took it before the lens kept the `k` largest: the
    /// k-th largest of `whole` by `select_nth_unstable_by`, `−∞` for `k = 0`
    /// or past `whole`.
    fn floor_by_reference(mut whole: Vec<f64>, k: usize) -> f64 {
        match k.checked_sub(1).filter(|&kth| kth < whole.len()) {
            Some(kth) => *whole.select_nth_unstable_by(kth, |a, b| b.total_cmp(a)).1,
            None => f64::NEG_INFINITY,
        }
    }

    /// The forward relaxation as written before it walked only the nodes
    /// reached: every node of every interval in index order, the edges of
    /// each an admitted start reaches through [`GraphView::children`], from
    /// the starts `starts` admits.
    fn arrivals_by_reference(view: GraphView<'_>, starts: &Lens<'_>) -> Vec<f64> {
        let mut behind = from_every_start(view);
        behind.best.fill(f64::NEG_INFINITY);
        for start in view.interval_node_ids(view.first_interval()) {
            if starts.can_start(start) {
                behind.best[start.index as usize] = 0.0;
            }
        }
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
        std::mem::take(&mut behind.best)
    }

    /// `Arrivals::of` over `starts` against the reference, bit for bit, and
    /// each interval's reached list: exactly the nodes some admitted start
    /// arrives at, in ascending index order.
    fn assert_arrivals_are_reference(view: GraphView<'_>, starts: &Lens<'_>, case: &str) {
        let bits = |table: &[f64]| table.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        let behind = Arrivals::of(view, starts, None, &mut 0).unwrap();
        let reference = arrivals_by_reference(view, starts);
        assert_eq!(bits(&behind.best), bits(&reference), "{case}");
        for interval in view.intervals() {
            let nodes = view.interval_node_ids(interval);
            let reached = nodes.filter(|&node| behind.arriving(node) > f64::NEG_INFINITY);
            let reached: Vec<u32> = reached.map(|node| node.index).collect();
            assert_eq!(behind.reached(interval), reached, "{case}: {interval}");
        }
    }

    /// The floors a lens is taken with: none, a mid-range start's `C[s][l]`
    /// (of `whole`, every node's), and one above every start.
    fn floors(whole: &[f64]) -> [f64; 3] {
        let mut starts: Vec<f64> = whole.iter().copied().filter(|w| w.is_finite()).collect();
        starts.sort_by(f64::total_cmp);
        let mid = starts.get(starts.len() / 2).copied().unwrap_or(NO_FLOOR);
        let above = starts.last().map_or(1.0, |top| top + 1.0);
        [NO_FLOOR, mid, above]
    }

    /// Both passes over `view`, against the references, bit for bit: every
    /// weight of the table and `θ₀` for `k` from 0 to past the view's starts
    /// — one short of them, all of them, one more — as the heap over every
    /// start took it, raised to each of [`floors`]; and, for full paths,
    /// the arrivals from the starts each of those lenses admits.
    fn assert_kernel_is_reference(view: GraphView<'_>, ls: impl Iterator<Item = u32>, case: &str) {
        let bits = |table: &[f64]| table.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        for l in ls {
            let kernel = ahead_of(view, l);
            let (best, whole) = completions_by_reference(view, l);
            assert_eq!(bits(&kernel.best), bits(&best), "{case} l={l}");
            let starts = whole.len();
            let ks = [
                0,
                1,
                2,
                5,
                starts.saturating_sub(1),
                starts,
                starts + 1,
                usize::MAX,
            ];
            for floor in floors(&whole) {
                for k in ks {
                    let case = format!("{case} l={l} k={k} floor={floor}");
                    let lens = kernel.lens(view, l, k, floor);
                    let raised = floor_by_reference(whole.clone(), k).max(floor);
                    assert_eq!(lens.floor().to_bits(), raised.to_bits(), "{case}");
                    if l == last_of(view) {
                        assert_arrivals_are_reference(view, &lens, &case);
                    }
                }
            }
        }
    }

    fn node(interval: u32, index: u32) -> ClusterNodeId {
        ClusterNodeId::new(interval, index)
    }

    fn ahead_of(view: GraphView<'_>, l: u32) -> Completions {
        Completions::of(view, l, None, &mut 0).unwrap()
    }

    /// `view`'s arrivals seeded by every start of its first interval: a
    /// full-path lens taken for `k = 0` has floor `−∞` and admits them all.
    fn from_every_start(view: GraphView<'_>) -> Arrivals {
        let table = ahead_of(view, last_of(view));
        Arrivals::of(view, &table.lens(view, table.l, 0, NO_FLOOR), None, &mut 0).unwrap()
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
                        let ahead = table.lens(view, l, k, NO_FLOOR);
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
            let floor = ahead.lens(graph.view(), l, 1, NO_FLOOR).floor();
            assert_eq!(floor, f64::from(l) * 0.5, "l={l}");
        }
        let table = ahead_of(graph.view(), last);
        assert_eq!(table.best.len(), graph.num_nodes() - 1);
        let full = table.lens(graph.view(), last, 1, NO_FLOOR);
        assert_eq!(full.to_the_end(node(0, 0)), f64::from(last) * 0.5);
        assert_eq!(full.to_the_end(node(last - 1, 0)), 0.5);
        assert_eq!(full.to_the_end(node(last, 0)), 0.0);
        let paths = BfsStableClusters::full_paths(1, &graph).unwrap();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].weight(), f64::from(last) * 0.5);
        // Its mirror holds one weight per node, whatever the length.
        let behind = from_every_start(graph.view());
        assert_eq!(behind.best.len(), graph.num_nodes());
        assert_eq!(behind.arriving(node(last, 0)), f64::from(last) * 0.5);

        // A table the allocator will not give is the query's error, for
        // either pass: both allocate through `blank`.
        let refused = blank(usize::MAX / 8).unwrap_err();
        assert!(matches!(refused, BscError::InvalidConfig(_)), "{refused}");
    }

    #[test]
    fn arrivals_are_the_best_path_from_the_first_interval() {
        // Against an enumeration of every path, for the full-path lens of
        // `k` ∈ {0, 1, 3} and that lens raised past its own floor (`k = 0`
        // admits every start): `0` at a start the lens admits and −∞ at one
        // it rejects; elsewhere the heaviest path from an admitted start to
        // each node, bit for bit (both sum left to right), and −∞ exactly
        // where none arrives — whatever the gap, on the four weightings, and
        // in a window that edges cross into from intervals before it.
        let mut graphs = Vec::new();
        for gap in [0, 1, u32::MAX] {
            for seed in 0..4 {
                let base = random_graph(5, 8, 1 + seed as u32 % 2, gap, 900 + seed);
                for (name, weight) in WEIGHTINGS {
                    let case = format!("{name} gap={gap} seed={seed}");
                    graphs.push((case, reweighted(&base, weight)));
                }
            }
        }
        let lenses = [(0, None), (1, None), (3, None), (3, Some(0.4))];
        let (mut unreached, mut rejected, mut cut_off) = (0, 0, 0);
        for (name, graph) in &graphs {
            for view in [graph.view(), graph.window(1, 4), graph.window(2, 2)] {
                let first = view.first_interval();
                let table = ahead_of(view, last_of(view));
                let paths = every_path(view);
                let every = from_every_start(view);
                for (k, raise) in lenses {
                    let case = format!("{name} from {first} k={k} raised {raise:?}");
                    let floor = table.lens(view, table.l, k, NO_FLOOR).floor();
                    let raised = raise.map_or(NO_FLOOR, |by| floor + by);
                    let lens = table.lens(view, table.l, k, raised);
                    let mut heaviest = HashMap::new();
                    for path in &paths {
                        if path.first().interval == first && lens.can_start(path.first()) {
                            let best = heaviest.entry(path.last()).or_insert(f64::NEG_INFINITY);
                            *best = path.weight().max(*best);
                        }
                    }
                    let behind = Arrivals::of(view, &lens, None, &mut 0).unwrap();
                    for node in view.intervals().flat_map(|i| view.interval_node_ids(i)) {
                        let expected = heaviest.get(&node).copied();
                        unreached += usize::from(k == 0 && expected.is_none());
                        let expected = expected.unwrap_or(f64::NEG_INFINITY);
                        let arriving = behind.arriving(node);
                        assert_eq!(arriving.to_bits(), expected.to_bits(), "{case}: {node}");
                        if node.interval == first {
                            let admitted = lens.can_start(node);
                            assert_eq!(arriving == 0.0, admitted, "{case}: {node}");
                            rejected += usize::from(!admitted);
                        }
                        let everyone = every.arriving(node) > f64::NEG_INFINITY;
                        cut_off += usize::from(everyone && arriving == f64::NEG_INFINITY);
                    }
                }
            }
        }
        // The generator leaves nodes no path from the first interval
        // reaches; the lenses reject starts, and nodes every start would
        // reach go unseeded.
        assert!(unreached > 20, "{unreached}");
        assert!(rejected > 100, "{rejected}");
        assert!(cut_off > 100, "{cut_off}");
    }

    #[test]
    fn arrivals_count_from_the_first_interval_of_a_window() {
        // Ahead of the window a chain of weight-1 edges runs into lane `a`:
        // a table that counted from interval 0 would arrive at `a` with 2.
        let offset = 2;
        let (graph, answer) = threshold_scenario(offset);
        let behind = from_every_start(graph.window(offset, offset + 5));
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
        let whole = from_every_start(graph.view());
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
    fn a_wider_table_reads_each_window_as_its_own() {
        // The kernel's battery: edges of one interval up to four, the four
        // weightings, the whole graph and views that start mid-graph, `k` ∈
        // {1, 5}. For every `l`, every run `[a, b]` of start windows inside
        // the view — the whole graph's among them, the table a graph keeps
        // — and every window `[s, s + l]` of the run, the lens over the
        // run's table reads what `Completions::of(window)` reads — weights,
        // the lengths they are for, `to_the_end`, θ₀ (the window's own
        // starts, never the run's), `last` and `holds_weights` — to the bit;
        // and the run's table holds exactly its windows' weights.
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
                                    let (lens, own) = (
                                        run.lens(window, l, k, NO_FLOOR),
                                        own.lens(window, l, k, NO_FLOOR),
                                    );
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

    /// Nine intervals of up to four nodes, every fourth one (from `seed`'s
    /// offset on) empty, each node the child of up to three parents drawn
    /// at every length up to `gap + 1`, or eight for a wider gap.
    fn graph_with_empty_intervals(gap: u32, seed: u64) -> ClusterGraph {
        let mut rng = bsc_util::rng::DetRng::seed_from_u64(seed);
        let mut builder = ClusterGraphBuilder::new(gap);
        let sizes: Vec<u32> = (0..9)
            .map(|i| match (i + seed) % 4 {
                2 => 0,
                _ => 1 + rng.below(4) as u32,
            })
            .collect();
        for &nodes in &sizes {
            builder.add_interval(nodes);
        }
        for to in 1..sizes.len() as u32 {
            for index in 0..sizes[to as usize] {
                for _ in 0..3 {
                    let len = 1 + rng.below(u64::from(gap.min(7)) + 1) as u32;
                    let Some(from) = to.checked_sub(len) else {
                        continue;
                    };
                    let parents = u64::from(sizes[from as usize]);
                    if parents > 0 {
                        let parent = node(from, rng.below(parents) as u32);
                        let weight = (1 + rng.below(1_000)) as f64 / 1_000.0;
                        builder.add_edge(parent, node(to, index), weight);
                    }
                }
            }
        }
        builder.build()
    }

    /// The start window `[t − l, t]` of `graph`, `t` its last interval.
    fn last(graph: &ClusterGraph, l: u32) -> GraphView<'_> {
        let t = graph.num_intervals() as u32 - 1;
        graph.window(t - l, t)
    }

    #[test]
    fn a_last_window_s_table_answers_every_shorter_one_and_deepens_to_a_longer_one() {
        // The graph's last start windows `[t − l, t]`: for every
        // `1 ≤ d < l ≤ 6`, the table of the last window at `l` covers the
        // last window at `d` and reads it as that window's own table does
        // (weights, lengths, `θ₀`, to the bit); the table at `d` deepened to
        // `l` is `Completions::of` of the last window at `l`, bit for bit;
        // and a graph asked for both, `d` first, keeps the one at `l`,
        // deepened where `d` asks weights. Over gaps 0 to 3 and `u32::MAX`,
        // the four weightings and graphs whose first, last or inner
        // intervals hold no node.
        let bits = |table: &Completions| table.best.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        let mut deepened = 0;
        for gap in [0, 1, 2, 3, u32::MAX] {
            for seed in 0..4 {
                let base = graph_with_empty_intervals(gap, 4_000 + seed);
                for (name, weight) in WEIGHTINGS {
                    let graph = reweighted(&base, weight);
                    for l in 2..=6 {
                        let deep = ahead_of(last(&graph, l), l);
                        for d in 1..l {
                            let case = format!("{name} gap={gap} seed={seed} d={d} l={l}");
                            let window = last(&graph, d);
                            let own = ahead_of(window, d);
                            assert!(deep.covers(window, d), "{case}");
                            for k in [1, 3] {
                                let (lens, alone) = (
                                    deep.lens(window, d, k, NO_FLOOR),
                                    own.lens(window, d, k, NO_FLOOR),
                                );
                                assert_reads_alike(&lens, &alone, window, &format!("{case} k={k}"));
                            }
                            if d >= 2 {
                                let grown = own.deepened(last(&graph, l), l, None, &mut 0).unwrap();
                                assert_eq!(bits(&grown), bits(&deep), "{case}");
                                deepened += 1;
                            }
                            let fresh = graph.clone();
                            last(&fresh, d).completions(d, None, &mut 0).unwrap();
                            let kept = last(&fresh, l).completions(l, None, &mut 0).unwrap();
                            assert_eq!(bits(&kept), bits(&deep), "{case}");
                            assert_eq!(fresh.memoized(), [l], "{case}");
                        }
                    }
                }
            }
        }
        assert_eq!(deepened, 5 * 4 * 4 * 10);
    }

    #[test]
    fn an_appended_graph_builds_its_last_window_s_table_as_deep_as_its_parent_s_was_asked() {
        // A stream's epochs: the graph of seven intervals is asked its last
        // window at `D`, the one appended to it at `d`. The appended graph's
        // first table is its last window's at `max(d, D)`, `Completions::of`
        // of that window bit for bit, it reads the window at `d` as that
        // window's own table does, and it is the one table kept. What it
        // hands on is what it was asked, not what it built: the next graph
        // builds at `max(d, 2)`. A clone builds at `d`; `l = 1` asks
        // nothing and keeps nothing. Over gaps 0 to 3 and `u32::MAX`, the
        // four weightings and graphs with empty intervals.
        use crate::cluster_graph::in_edges;
        let bits = |table: &Completions| table.best.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        let mut cases = 0;
        for gap in [0, 1, 2, 3, u32::MAX] {
            for seed in 0..4 {
                let base = graph_with_empty_intervals(gap, 5_000 + seed);
                for (name, weight) in WEIGHTINGS {
                    let whole = reweighted(&base, weight);
                    let append = |graph: &ClusterGraph, interval: u32| {
                        let edges = in_edges(&whole.interval_parent_edges(interval));
                        let nodes = whole.nodes_in_interval(interval);
                        graph.append(nodes, &edges).unwrap()
                    };
                    let mut parent = ClusterGraphBuilder::new(gap).build();
                    for interval in 0..7 {
                        parent = append(&parent, interval);
                    }
                    for asked in 2..=5 {
                        let parent = parent.clone();
                        last(&parent, asked)
                            .completions(asked, None, &mut 0)
                            .unwrap();
                        for d in 1..=5 {
                            let case = format!("{name} gap={gap} seed={seed} D={asked} d={d}");
                            let child = append(&parent, 7);
                            let window = last(&child, d);
                            let table = window.completions(d, None, &mut 0).unwrap();
                            if d == 1 {
                                assert!(child.memoized().is_empty(), "{case}");
                            } else {
                                let depth = d.max(asked);
                                let deep = ahead_of(last(&child, depth), depth);
                                assert_eq!(bits(&table), bits(&deep), "{case}");
                                assert_eq!(child.memoized(), [depth], "{case}");
                                let own = ahead_of(window, d);
                                for k in [1, 3] {
                                    let (lens, alone) = (
                                        table.lens(window, d, k, NO_FLOOR),
                                        own.lens(window, d, k, NO_FLOOR),
                                    );
                                    assert_reads_alike(
                                        &lens,
                                        &alone,
                                        window,
                                        &format!("{case} k={k}"),
                                    );
                                }
                            }
                            let next = append(&child, 8);
                            last(&next, 2).completions(2, None, &mut 0).unwrap();
                            assert_eq!(next.memoized(), [d.max(2)], "{case}");
                            let cold = child.clone();
                            last(&cold, d).completions(d, None, &mut 0).unwrap();
                            let built = if d == 1 { vec![] } else { vec![d] };
                            assert_eq!(cold.memoized(), built, "{case}");
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 5 * 4 * 4 * 4 * 5);
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
        let lens = widest.lens(graph.view(), 1_000, 5, NO_FLOOR);
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
        // And in two ranges: 1 990 start windows of eleven intervals, which
        // read the graph's table, and 999 of 1 001 intervals, each reading
        // its own.
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
        // The graph kept the tables of full paths and `l` = 10; the widest,
        // two million weights, answered both solves and was dropped.
        assert!(Completions::weights(graph.view(), 1_000) > MEMO_WEIGHTS);
        assert_eq!(graph.memoized(), [last, 10]);

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

    /// Paths with their weight bits, and the counters: what a solve reading
    /// the graph's table and one reading its own must agree on.
    type Keyed = (Vec<(Vec<ClusterNodeId>, u64)>, SolverStats);

    fn keyed((paths, stats): (Vec<ClusterPath>, SolverStats)) -> Keyed {
        let key = |path: &ClusterPath| (path.nodes().to_vec(), path.weight().to_bits());
        (paths.iter().map(key).collect(), stats)
    }

    #[test]
    fn the_graph_s_table_answers_and_counts_as_a_table_of_the_solve_s_own() {
        // Each solve below reads the table its graph keeps, built by a first
        // solve of the whole graph; the reference is the same solve on a
        // clone, which keeps none: a whole-graph solve builds its table, a
        // window solved alone its own, and the clone keeps only its last
        // window's, which no earlier window reads. Paths, weight bits and every counter
        // (`visited`, `generated`, `held` among them) agree, for BFS
        // `exact:l` and full paths, TA full paths, and every BFS or TA start
        // window solved alone — over the four weightings and the long thin
        // graph.
        let mut graphs = vec![("long-thin".to_string(), long_thin_graph())];
        for gap in 0..=2 {
            let base = random_graph(7, 8, 3, gap, 7_300 + u64::from(gap));
            for (name, weight) in WEIGHTINGS {
                graphs.push((format!("{name} gap={gap}"), reweighted(&base, weight)));
            }
        }
        let k = 5;
        for (name, graph) in &graphs {
            let last = graph.num_intervals() as u32 - 1;
            for l in [2, 3, last] {
                let case = format!("{name} l={l}");
                let bfs = BfsStableClusters::new(KlStableParams::new(k, l));
                let cold = keyed(bfs.run_with_stats(&graph.clone()).unwrap());
                bfs.run_with_stats(graph).unwrap();
                assert!(graph.memoized().contains(&l), "{case}");
                assert_eq!(keyed(bfs.run_with_stats(graph).unwrap()), cold, "{case}");
            }
            let ta = TaStableClusters::new(k);
            let cold = keyed(ta.run_with_stats(&graph.clone()).unwrap());
            assert_eq!(keyed(ta.run_with_stats(graph).unwrap()), cold, "{name} ta");

            let options = SolverOptions::default().shards(2);
            for (algorithm, l) in [AlgorithmKind::Bfs, AlgorithmKind::Ta]
                .into_iter()
                .zip([2, 3])
            {
                let case = format!("{name} {algorithm:?} exact:{l}");
                let cold = graph.clone();
                for start in 0..=last - l {
                    let solve = |graph| {
                        let window = solve_window_locally(graph, start, l, k, algorithm, &options);
                        let window = window.unwrap();
                        keyed((window.paths, window.stats))
                    };
                    assert_eq!(solve(graph), solve(&cold), "{case} start={start}");
                }
                assert_eq!(cold.memoized(), [l], "{case}");
            }
            assert_eq!(graph.memoized(), [2, 3, last], "{name}");
        }
    }

    #[test]
    fn two_threads_solving_one_graph_agree_and_keep_one_table_per_length() {
        // Both threads miss, build and offer the same table; the first offer
        // is kept and the other dropped, bit-identical anyway.
        let graph = random_graph(12, 60, 4, 1, 2_024);
        let ls = [2, 3, 5, 11];
        let solve = |l| {
            let bfs = BfsStableClusters::new(KlStableParams::new(5, l));
            keyed(bfs.run_with_stats(&graph).unwrap())
        };
        let (here, there) = std::thread::scope(|scope| {
            let there = scope.spawn(|| ls.map(solve));
            (ls.map(solve), there.join().unwrap())
        });
        let cold = graph.clone();
        for (l, (here, there)) in ls.iter().zip(here.into_iter().zip(there)) {
            assert_eq!(here, there, "l={l}");
            let bfs = BfsStableClusters::new(KlStableParams::new(5, *l));
            assert_eq!(
                here,
                keyed(bfs.run_with_stats(&cold.clone()).unwrap()),
                "l={l}"
            );
        }
        let mut kept = graph.memoized();
        kept.sort_unstable();
        assert_eq!(kept, ls);
    }
}
