//! The one windowed solver: [`ShardedSolver`] answers a Problem 1 query
//! start window by start window, on local threads or on a fan-out's workers,
//! and [`solve_windows`](crate::delta::solve_windows) runs the same solver
//! over a whole graph, or over the tail windows an append added to a graph
//! whose answer it carries. `docs/sharding.md` carries the same statement for
//! readers of the rendered docs.
//!
//! ## The decomposition and why it is byte-identical
//!
//! Every length-`l` path starts at exactly one interval `a` and lives
//! entirely inside the temporal window `[a, a + l]`. So the global top-k is
//! the merge of per-start top-k's, and a per-start top-k needs only the
//! window: an `(l + 1)`-interval [`GraphView`], read in place, in which the
//! query *is* the full-path query (which is why even TA, full paths only,
//! serves subpath queries here). Nothing is copied and no node id is
//! translated — a window's paths are paths of the graph, weighed over the
//! very edges the unsharded solve reads. The merge keeps the `k` best under
//! the strict total order `(score desc, content asc)`; the top-k set under a
//! total order is unique, so none of the following can change a byte of the
//! merged [`Solution`]: how the starts are partitioned into ranges, which
//! thread or process solved a window, the order results arrive in or a
//! node's parents are listed in, or whether the windows of an earlier epoch
//! are stood for by that epoch's answer, at which
//! [`GraphDelta`](crate::delta::GraphDelta) proves they held the same edges
//! (see [`crate::delta`] for that proof). Problem
//! 2 (normalized stability) has unbounded windows and does not decompose;
//! `PathLength::of` is the one place it is rejected. The graph solved is
//! itself a view: handed a proper sub-view, the solver decomposes that.
//!
//! ## The two seams, each crossed once per window
//!
//! * **Transport** (the solver's `transport`) — how one `(range index,
//!   start)` becomes a [`WindowResult`](crate::distributed::WindowResult),
//!   and how many ranges there are and run at once. `None` solves windows
//!   on this machine over
//!   [`SolverOptions::shards`] ranges, dealt into at most as many chunks as
//!   the machine has cores, run by the process's shard threads and the
//!   caller; a [`ShardTransport`] gets one range per worker, each
//!   dispatched by a thread of its own, because they block on sockets, not
//!   cores. A window request names the graph by the graph value's own id,
//!   so each worker connection is shipped a graph once and solves every
//!   later window of it on that copy; a clone or an append ships afresh.
//!   Each inner solver provisions its own
//!   [`StorageSpec`](bsc_storage::backend::StorageSpec)-selected backend,
//!   so windows never share mutable storage.
//! * **Floor** (`Windowed::floor`) — a weight the merged k-th answer is
//!   known to reach before any window runs: `−∞` for a solve of its own, the
//!   carried answer's k-th weight for the tail windows
//!   [`solve_windows`](crate::delta::solve_windows) merges with it. Nothing
//!   of a window outlives the solve: what a later epoch reuses is the
//!   merged answer, never a window's own top-k.
//!
//! ## The look-ahead tables a graph keeps
//!
//! Every BFS and TA window solve reads the backward pass of
//! `lookahead::Completions`, and a node lies in up to `l + 1` windows. A
//! table answers every view whose weights it holds (`Completions::covers`;
//! the `lookahead` module docs carry the argument), and a graph keeps the
//! tables its solves build (`GraphView::completions`, within
//! `lookahead::MEMO_WEIGHTS`, 4 MiB) — the whole graph's, one per `l`, and
//! its last start window's. So a solve of the whole graph whose windows are
//! BFS or TA solved here has the graph keep its table for `l` before the
//! windows — the one the unsharded solve of that length reads too — and each
//! window (`distributed::solve_window`) reads it through a `Lens`, which
//! answers exactly what the window's own table would, its `θ₀` included.
//! The tail windows a fed query solves (`Windowed::from` > 0) read the same
//! way: the last of them, the window `[t − l, t]` at the graph's end, reads
//! the last window's table the graph keeps if it is as deep as `l`, and
//! otherwise deepens it to `l` and has the graph keep the deeper one, so an
//! epoch's fed queries build one backward pass between them, as deep as the
//! deepest `l` asked; an appended graph builds its first one as deep as its
//! parent's was asked, so that pass is its first query's. Any other window — an earlier tail window of a merge
//! over several appends, a window of a part of the graph, of a per-window
//! budgeted `auto`, of a graph whose table would pass the bound, or on a
//! transport's worker (one window per request) — reads a kept table that
//! covers it if there is one, and otherwise builds its own and keeps
//! nothing. DFS reads none.
//!
//! ## The graph's floor
//!
//! A window's own `θ₀` is the k-th best start of one interval, far below the
//! whole view's. What is merged is the top-k of every window, and `k`
//! distinct starts of the view are `k` distinct paths: no path below the
//! view's `θ₀` (judged with `can_still_reach`'s slack) can enter it, whichever
//! window it lies in. So where the graph's table is kept as above, every
//! window prunes by the view's `θ₀` (or the solve's `floor`, if higher), and
//! a window none of whose starts can reach it (`Lens::can_start`, the
//! predicate a BFS sweep marks its live starts by) is never swept: it would
//! have answered nothing. The floor is unsound for a window's *own* top-k,
//! so a transport's workers, whose results are windows' own, sweep every
//! window by its own floor alone: paths and every counter are those of the
//! window solved alone, as they are for a per-window budgeted `auto`, which
//! reads no floor. The tail windows of a merge (`Windowed::from` > 0) sweep
//! by the solve's `floor` beside their own. Otherwise the counters are those
//! of the swept windows solved alone with the view's floor.
//!
//! ## What every solve shares
//!
//! Where two or more ranges are formed, starts are weighted by the edges in
//! their window's leading intervals and split into contiguous ranges by
//! `balanced_ranges` (one range weighs nothing), and the ranges are dealt
//! into chunks, one worker's share each. A local solve runs its last chunk
//! on the calling thread and posts the others to the process's shard
//! threads — `cores − 1` of them, a [`Pool`] started by the first solve that
//! posts, the core count read once per process — and runs itself any
//! posted chunk no shard thread has started yet; a posted chunk reads the
//! graph through a handle that shares its id and its kept tables. A
//! transport's chunks, one range each, run on scoped threads of their own,
//! which wait on sockets, not cores. All chunks share one [`CancelToken`],
//! checked in full before every window: the first to fail trips it, its
//! siblings stop at their next window, and the root-cause error wins over
//! the `DeadlineExceeded` they report.
//!
//! **What a window costs.** Past the graph's table, which every window reads
//! and none builds, a swept window costs what its live starts reach, not
//! its width: its lens heaps only the starts at or above the floor it is
//! handed (`Completions::lens`); a BFS window reads the start weight of
//! each node of its first interval, the only one a length-`l` path of the
//! window starts in, and past it walks only the nodes a live node marked;
//! a TA window relaxes and lists edges only from the nodes its admitted
//! starts reach. A ruled-out window costs a look at its first interval's
//! start weights.
//!
//! **`Auto`** resolves once, before the windows, against the whole graph
//! the unsharded solve would read — unless it carries a budget and the
//! *query* asked for `shards > 1`, in which case each window resolves its
//! own (a budget is a property of the query, not of where it runs: a
//! coordinator's default fan-out forms ranges on its own). Without a budget
//! `auto` is BFS for every Problem 1 query (`auto.rs`), so its windows share
//! tables like BFS's.
//!
//! **Stats.** Each field merges by the rule [`SolverStats`] declares for it:
//! a chunk merges its windows in sequence ([`SolverStats::merge`]), the
//! solve its chunks side by side ([`SolverStats::merge_concurrent`]). A
//! chunk states its share of the solve's shape, its ranges as `shards` and
//! itself as one of `threads`, and counts a window ruled out with no sweep
//! as decided: `windows_resolved` is the view's starts from `from` on, which
//! a debug build checks, with the order of the merged answer. A top-0
//! query decides no window.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use bsc_graph::partition::balanced_ranges;
use bsc_storage::io_stats::IoScope;
use bsc_util::cancel::CancelToken;
use bsc_util::pool::Pool;

use crate::auto::{choose_algorithm, GraphShape};
use crate::cluster_graph::{ClusterGraph, GraphView};
use crate::distributed::{solve_window, ShardTransport, WindowRequest};
use crate::error::{BscError, BscResult};
use crate::lookahead::{Completions, MEMO_WEIGHTS};
use crate::problem::StableClusterSpec;
use crate::solver::{
    check_not_expired, deadline_error, AlgorithmKind, Solution, SolverOptions, SolverStats,
    StableClusterSolver,
};
use crate::topk::{is_answer, TopKPaths};

/// The path length of a Problem 1 query (`None` = full paths): proof that
/// the query decomposes by start interval.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PathLength(Option<u32>);

impl PathLength {
    /// Admit `spec` to windowed solving on behalf of `solver` (the name the
    /// rejection is reported under).
    pub(crate) fn of(spec: StableClusterSpec, solver: &'static str) -> BscResult<PathLength> {
        match spec {
            StableClusterSpec::FullPaths => Ok(PathLength(None)),
            StableClusterSpec::ExactLength(l) => Ok(PathLength(Some(l))),
            StableClusterSpec::Normalized { .. } => Err(BscError::Unsupported {
                algorithm: solver,
                reason: "Problem 2 (normalized stability) does not decompose across start \
                         intervals; run the normalized solver unsharded and in-process"
                    .to_string(),
            }),
        }
    }

    /// The length in a graph of `num_intervals` intervals.
    pub(crate) fn over(self, num_intervals: u32) -> u32 {
        self.0.unwrap_or(num_intervals.saturating_sub(1))
    }
}

/// A solver that partitions the start intervals into ranges, solves each
/// range's windows with an inner algorithm — on local threads, or on remote
/// workers through a [`ShardTransport`] — and merges the per-window
/// solutions.
///
/// Constructed directly or through [`AlgorithmKind::build_with_options`]
/// whenever [`SolverOptions::shards`] is greater than one or
/// [`SolverOptions::fanout`] names a worker set.
#[derive(Debug, Clone)]
pub struct ShardedSolver {
    inner: AlgorithmKind,
    length: PathLength,
    k: usize,
    options: SolverOptions,
    /// `None` runs `options.shards` ranges on local threads; `Some` runs one
    /// range per worker of the transport.
    transport: Option<Arc<dyn ShardTransport>>,
}

impl ShardedSolver {
    /// Create a solver running `inner` per window on local threads.
    ///
    /// Problem 2 ([`StableClusterSpec::Normalized`]) does not decompose by
    /// start interval (a normalized path's window is unbounded), so it is
    /// rejected as [`BscError::Unsupported`](crate::error::BscError); the
    /// algorithm/spec pairing rules of the inner algorithm are enforced as
    /// well.
    pub fn new(
        inner: AlgorithmKind,
        spec: StableClusterSpec,
        k: usize,
        options: SolverOptions,
    ) -> BscResult<ShardedSolver> {
        let length = PathLength::of(spec, "sharded")?;
        inner.check_spec(spec)?;
        Ok(ShardedSolver {
            inner,
            length,
            k,
            options,
            transport: None,
        })
    }

    /// Create a solver fanning its windows out through `transport`, one
    /// range per worker, with the checks of [`ShardedSolver::new`] reported
    /// under the name `distributed`; a transport without workers is a
    /// [`BscError::Cluster`].
    pub fn with_transport(
        transport: Arc<dyn ShardTransport>,
        inner: AlgorithmKind,
        spec: StableClusterSpec,
        k: usize,
        options: SolverOptions,
    ) -> BscResult<ShardedSolver> {
        PathLength::of(spec, "distributed")?;
        if transport.worker_count() == 0 {
            return Err(BscError::Cluster(
                "distributed fan-out requires at least one worker".to_string(),
            ));
        }
        let local = ShardedSolver::new(inner, spec, k, options)?;
        Ok(ShardedSolver {
            transport: Some(transport),
            ..local
        })
    }
}

impl StableClusterSolver for ShardedSolver {
    fn name(&self) -> &'static str {
        match self.transport {
            Some(_) => "distributed",
            None => "sharded",
        }
    }

    fn algorithm(&self) -> AlgorithmKind {
        self.inner
    }

    fn solve_view(&mut self, view: GraphView<'_>) -> BscResult<Solution> {
        Windowed::new(self, view).run()
    }
}

/// One solve of a [`ShardedSolver`].
pub(crate) struct Windowed<'a> {
    solver: &'a ShardedSolver,
    view: GraphView<'a>,
    /// The inner algorithm, `Auto` resolved once where it does not resolve
    /// per window.
    algorithm: AlgorithmKind,
    /// How many of the view's first starts are not solved: a carried answer
    /// stands for them (`0`: none).
    pub(crate) from: u32,
    /// A weight the merged k-th answer is known to reach, which every
    /// window solved here prunes by (`−∞`: none known).
    pub(crate) floor: f64,
}

/// What one chunk of ranges hands back.
struct Partial {
    top: TopKPaths,
    stats: SolverStats,
}

/// What every chunk of one solve reads but the graph, owned, so that a
/// shard thread can run one after the call that posted it has returned by
/// a panic.
struct Chunks {
    /// The first start solved.
    first: u32,
    l: u32,
    k: usize,
    algorithm: AlgorithmKind,
    floor: f64,
    live: Vec<bool>,
    leaf: SolverOptions,
    cancel: CancelToken,
    transport: Option<Arc<dyn ShardTransport>>,
}

impl Chunks {
    /// One chunk, the `index`-th, of `ranges` ranges: every window of
    /// `starts` (counted from the first solved) in start order, merged into
    /// a local top-k; each swept by `floor` if `live` (a transport's workers
    /// by their own floor alone, the chunk's one range preferred), else
    /// decided with no sweep. The full token is checked before every
    /// window, and a failed window trips it for the sibling chunks. The
    /// chunk's stats state its share of the solve's shape: its ranges, and
    /// the one thread that runs it.
    fn run(
        &self,
        graph: &ClusterGraph,
        (index, (ranges, starts)): (usize, (usize, Range<usize>)),
    ) -> BscResult<Partial> {
        let (l, k, algorithm, cancel) = (self.l, self.k, self.algorithm, &self.cancel);
        let shape = SolverStats {
            shards: ranges,
            threads: 1,
            ..SolverStats::default()
        };
        let mut part = Partial {
            top: TopKPaths::new(k),
            stats: shape,
        };
        // bsc:allow(missing-cancel-checkpoint) -- every window is preceded by the full (unamortized) token check, and window solves checkpoint internally
        for start in starts {
            if cancel.expired() {
                return Err(deadline_error(cancel));
            }
            if !self.live[start] {
                // Decided at this epoch, with no sweep.
                part.stats.windows_resolved += 1;
                continue;
            }
            let start = self.first + start as u32;
            let result = match &self.transport {
                None => solve_window(graph, start, l, k, algorithm, &self.leaf, self.floor),
                Some(transport) => {
                    let request = WindowRequest {
                        // The graph names itself: no other graph value in
                        // the process carries its id.
                        epoch: graph.id(),
                        start,
                        l,
                        k,
                        algorithm,
                        storage: self.leaf.storage,
                        preferred: index,
                        // The budget remaining *now*, so the worker's local
                        // token expires in step with ours.
                        deadline_ms: cancel.remaining().map(|left| left.as_millis() as u64),
                    };
                    transport.solve_window(graph, &request)
                }
            };
            let result = result.inspect_err(|_| cancel.cancel())?;
            part.stats.merge(&result.stats);
            for path in result.paths {
                if part.top.would_admit(path.weight()) {
                    part.top.offer_by_weight(path);
                }
            }
        }
        Ok(part)
    }
}

/// The machine's parallelism, read once per process: the call reads the
/// cgroup's files each time (12–21 µs on a 2-vCPU container).
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The process's shard threads, one fewer than its cores, started by the
/// first local solve that deals out more than one chunk.
fn shard_pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool::new(cores() - 1))
}

impl<'a> Windowed<'a> {
    /// A solve of `view` by `solver`, with no floor known beforehand.
    pub(crate) fn new(solver: &'a ShardedSolver, view: GraphView<'a>) -> Windowed<'a> {
        Windowed {
            solver,
            view,
            algorithm: solver.inner,
            from: 0,
            floor: f64::NEG_INFINITY,
        }
    }

    /// Run the solve.
    pub(crate) fn run(mut self) -> BscResult<Solution> {
        let options = &self.solver.options;
        check_not_expired(options.cancel.as_ref())?;
        let scope = IoScope::start();
        let (view, k) = (self.view, self.solver.k);
        let m = view.num_intervals() as u32;
        let l = self.solver.length.over(m);
        self.algorithm = match self.algorithm {
            AlgorithmKind::Auto { budget_bytes }
                if budget_bytes.is_none() || options.shards <= 1 =>
            {
                let spec = StableClusterSpec::ExactLength(l);
                choose_algorithm(&GraphShape::of(view), spec, k, budget_bytes)?
            }
            concrete_or_per_window => concrete_or_per_window,
        };
        let mut merged = TopKPaths::new(k);
        let mut stats = SolverStats::default();
        // A path of length l starting `a` intervals into the view spans
        // [a, a + l]: a <= m - 1 - l; the first `from` are not solved.
        if k > 0 && l >= 1 && l < m.saturating_sub(self.from) {
            let cancel = options.cancel.clone().unwrap_or_default();
            let (floor, live) = self.floor_and_live_windows(l, &cancel)?;
            let transport = self.solver.transport.as_deref();
            let ranges = self.ranges(l, transport.map_or(options.shards, |t| t.worker_count()));
            // Each chunk is a contiguous run of ranges, one worker's share.
            // One range is one chunk whatever the core count, which is then
            // not read; a transport's workers take one range each.
            let workers = match transport {
                None if ranges.len() > 1 => cores(),
                _ => ranges.len(),
            };
            let chunk = ranges.len().div_ceil(workers.min(ranges.len()).max(1));
            let dealt = ranges
                .chunks(chunk)
                .map(|run| (run.len(), run[0].start..run[run.len() - 1].end));
            let chunks = Chunks {
                first: view.first_interval() + self.from,
                l,
                k,
                algorithm: self.algorithm,
                floor,
                live,
                leaf: options.clone().cancel_token(Some(cancel.clone())),
                cancel,
                transport: self.solver.transport.clone(),
            };
            let results = self.run_chunks(chunks, dealt.enumerate().collect());
            // Root cause first; `min_by_key` keeps the first of equals.
            let (parts, errors): (Vec<_>, Vec<_>) = results.into_iter().partition(Result::is_ok);
            let root_cause = errors
                .into_iter()
                .filter_map(Result::err)
                .min_by_key(|e| matches!(e, BscError::DeadlineExceeded { .. }));
            if let Some(error) = root_cause {
                return Err(error);
            }
            parts.into_iter().filter_map(Result::ok).for_each(|part| {
                merged.absorb(part.top);
                stats.merge_concurrent(&part.stats);
            });
        }
        // The laws of every windowed answer. The windows decided here and
        // the `from` starts a carried answer stands for (what
        // `delta::solve_windows` reports as `windows_spliced`) are the
        // view's starts; a top-0 query decides none, and a full path of a
        // one-interval view (`l = 0`) has no window. The merged answer is at
        // most `k` paths in strict order.
        let starts = u64::from(m.saturating_sub(l));
        let decided = stats.windows_resolved + u64::from(self.from);
        debug_assert!(
            k == 0 || l == 0 || decided == starts,
            "{decided} of {starts} starts"
        );
        let paths = merged.into_sorted();
        debug_assert!(is_answer(&paths, k), "a merged answer out of order");
        Ok(Solution {
            paths,
            stats,
            io: scope.finish(),
        })
    }

    /// The starts solved, counted from the first, split into at most `parts`
    /// contiguous ranges weighed by the edges in each window's leading
    /// intervals. One range is weighed by nobody: its edges are counted
    /// only where two or more ranges are formed, and only from the first
    /// start solved on.
    fn ranges(&self, l: u32, parts: usize) -> Vec<Range<usize>> {
        let view = self.view;
        let starts = view.num_intervals() - (self.from + l) as usize;
        if parts <= 1 || starts <= 1 {
            return std::iter::once(0..starts).collect();
        }
        let first = view.first_interval() + self.from;
        // Start `a`'s window leads with the intervals `a..a + l`.
        let counts = view
            .graph()
            .interval_out_edge_counts(first..view.intervals().end - 1);
        let weights: Vec<u64> = counts
            .windows(l as usize)
            .map(|leading| leading.iter().sum::<u64>().max(1))
            .collect();
        balanced_ranges(&weights, parts).iter().collect()
    }

    /// Before the windows, have the graph keep its look-ahead table for `l`
    /// ([`GraphView::completions`]), which every window of BFS or TA then
    /// reads as its own: where the view is the whole graph, the windows are
    /// solved here by BFS or TA (DFS reads no table, a budgeted `auto`
    /// priced one window's) and the table fits the graph's memo
    /// ([`MEMO_WEIGHTS`]). Otherwise each window reads the table its graph
    /// keeps, if any, or builds its own.
    ///
    /// Returns the floor every window prunes by beside its own `θ₀` and,
    /// per start solved counted from the first, whether its window is swept
    /// at all. Where the table is kept, the floor is the view's `θ₀` (or
    /// `self.floor`, if higher) — `k` distinct starts are `k` distinct
    /// paths, so nothing below it can enter the merged top-k — and a window
    /// none of whose starts can reach it (`Lens::can_start`) is ruled out.
    /// Every other solve (among them one that solves only the starts from
    /// `self.from` on) sweeps every window by `self.floor` beside its own.
    fn floor_and_live_windows(&self, l: u32, cancel: &CancelToken) -> BscResult<(f64, Vec<bool>)> {
        let view = self.view;
        let starts = view.first_interval() + self.from..view.intervals().end - l;
        let whole = self.from == 0 && view.num_intervals() == view.graph().num_intervals();
        let reads = matches!(self.algorithm, AlgorithmKind::Bfs | AlgorithmKind::Ta);
        // The table's size is walked for last, only where all else holds.
        let keeps = whole && reads && self.solver.transport.is_none();
        if !(keeps && Completions::weights(view, l) <= MEMO_WEIGHTS) {
            return Ok((self.floor, vec![true; starts.len()]));
        }
        let table = view.completions(l, Some(cancel), &mut 0)?;
        let lens = table.lens(view, l, self.solver.k, self.floor);
        let live = |start| {
            view.interval_node_ids(start)
                .any(|node| lens.can_start(node))
        };
        Ok((lens.floor(), starts.map(live).collect()))
    }

    /// Run the chunks, results in chunk order. A local solve runs the last
    /// on this thread and posts the others to the process's shard threads,
    /// which the caller helps out ([`Pool::join`]), each reading the graph
    /// through a [handle](ClusterGraph::handle) on it; one chunk runs here
    /// with nothing posted. A fan-out runs each chunk but the last on a
    /// scoped thread of its own: those wait on the transport's sockets, not
    /// on cores.
    fn run_chunks(
        &self,
        chunks: Chunks,
        mut dealt: Vec<(usize, (usize, Range<usize>))>,
    ) -> Vec<BscResult<Partial>> {
        let (graph, own) = (self.view.graph(), dealt.pop().unwrap_or_default());
        if dealt.is_empty() {
            return vec![chunks.run(graph, own)];
        }
        if chunks.transport.is_some() {
            let chunks = &chunks;
            return std::thread::scope(|scope| {
                let spawned: Vec<_> = dealt
                    .into_iter()
                    .map(|chunk| scope.spawn(move || chunks.run(graph, chunk)))
                    .collect();
                let own = chunks.run(graph, own);
                spawned
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .chain([own])
                    .collect()
            });
        }
        let shared = Arc::new((graph.handle(), chunks));
        let posted = dealt.into_iter().map(|chunk| {
            let shared = Arc::clone(&shared);
            move || shared.1.run(&shared.0, chunk)
        });
        shard_pool().join(posted, || shared.1.run(graph, own))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auto::bfs_resident_bytes;
    use crate::bfs::BfsStableClusters;
    use crate::cluster_graph::{ClusterGraph, ClusterGraphBuilder, ClusterNodeId};
    use crate::delta::GraphDelta;
    use crate::distributed::{solve_window_locally, WindowResult};
    use crate::lookahead::{long_thin_graph, reweighted, NO_FLOOR, WEIGHTINGS};
    use crate::path::ClusterPath;
    use crate::problem::KlStableParams;
    use crate::synthetic::{ClusterGraphGenerator, SyntheticGraphParams};

    fn graph(m: usize, n: u32, d: u32, g: u32, seed: u64) -> ClusterGraph {
        ClusterGraphGenerator::new(SyntheticGraphParams {
            num_intervals: m,
            nodes_per_interval: n,
            avg_out_degree: d,
            gap: g,
            seed,
        })
        .generate()
    }

    fn assert_identical(a: &[ClusterPath], b: &[ClusterPath], context: &str) {
        assert_eq!(a.len(), b.len(), "{context}: lengths differ");
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.nodes(), y.nodes(), "{context}");
            assert_eq!(x.weight().to_bits(), y.weight().to_bits(), "{context}");
        }
    }

    /// A transport whose every worker is down, exercising the error path
    /// without any networking.
    #[derive(Debug)]
    struct FailingTransport;

    impl ShardTransport for FailingTransport {
        fn worker_count(&self) -> usize {
            2
        }

        fn solve_window(&self, _: &ClusterGraph, _: &WindowRequest) -> BscResult<WindowResult> {
            Err(BscError::Cluster("every worker is down".to_string()))
        }
    }

    #[test]
    fn full_paths_spec_matches_too() {
        let graph = graph(6, 15, 3, 0, 7);
        let mut reference = AlgorithmKind::Bfs
            .build(StableClusterSpec::FullPaths, 4, graph.num_intervals())
            .unwrap();
        let expected = reference.solve(&graph).unwrap().paths;
        let mut sharded = ShardedSolver::new(
            AlgorithmKind::Bfs,
            StableClusterSpec::FullPaths,
            4,
            SolverOptions::default().shards(3),
        )
        .unwrap();
        let solution = sharded.solve(&graph).unwrap();
        assert_identical(&expected, &solution.paths, "full paths");
        // A full-path query has a single valid start, hence a single shard.
        assert_eq!(solution.stats.shards, 1);
    }

    #[test]
    fn sharding_extends_ta_to_subpath_queries() {
        // Unsharded TA rejects ExactLength below the full length; inside
        // per-start windows the same query is full-length, so it works.
        let graph = graph(7, 12, 3, 1, 99);
        let spec = StableClusterSpec::ExactLength(3);
        assert!(AlgorithmKind::Ta
            .build(spec, 4, graph.num_intervals())
            .is_err());
        let mut reference = AlgorithmKind::Bfs
            .build(spec, 4, graph.num_intervals())
            .unwrap();
        let expected = reference.solve(&graph).unwrap().paths;
        let mut sharded = ShardedSolver::new(
            AlgorithmKind::Ta,
            spec,
            4,
            SolverOptions::default().shards(2),
        )
        .unwrap();
        let solution = sharded.solve(&graph).unwrap();
        assert_eq!(expected.len(), solution.paths.len());
        for (a, b) in expected.iter().zip(solution.paths.iter()) {
            assert_eq!(a.nodes(), b.nodes());
            assert!((a.weight() - b.weight()).abs() < 1e-9);
        }
    }

    #[test]
    fn huge_shard_counts_are_capped_not_oversubscribed() {
        // 39 valid starts and a 10k-shard request: the partition caps at one
        // range per start and the workers cap at the machine's parallelism,
        // so this must neither panic nor change the answer.
        let graph = graph(40, 4, 2, 0, 8);
        let spec = StableClusterSpec::ExactLength(1);
        let mut reference = AlgorithmKind::Bfs
            .build(spec, 5, graph.num_intervals())
            .unwrap();
        let expected = reference.solve(&graph).unwrap().paths;
        let mut sharded = ShardedSolver::new(
            AlgorithmKind::Bfs,
            spec,
            5,
            SolverOptions::default().shards(10_000),
        )
        .unwrap();
        let solution = sharded.solve(&graph).unwrap();
        assert_identical(&expected, &solution.paths, "shards=10000");
        assert_eq!(solution.stats.shards, 39);
    }

    #[test]
    fn degenerate_graphs_yield_empty_solutions() {
        let empty = ClusterGraphBuilder::new(0).build();
        let mut solver = ShardedSolver::new(
            AlgorithmKind::Bfs,
            StableClusterSpec::ExactLength(2),
            5,
            SolverOptions::default().shards(4),
        )
        .unwrap();
        assert!(solver.solve(&empty).unwrap().paths.is_empty());

        // l longer than the graph span: no valid starts.
        let short = graph(3, 5, 2, 0, 1);
        let mut solver = ShardedSolver::new(
            AlgorithmKind::Bfs,
            StableClusterSpec::ExactLength(9),
            5,
            SolverOptions::default().shards(4),
        )
        .unwrap();
        assert!(solver.solve(&short).unwrap().paths.is_empty());

        // No valid start, so nothing is dispatched: even a transport whose
        // every worker is down answers.
        let mut solver = ShardedSolver::with_transport(
            Arc::new(FailingTransport),
            AlgorithmKind::Bfs,
            StableClusterSpec::ExactLength(2),
            5,
            SolverOptions::default(),
        )
        .unwrap();
        assert!(solver.solve(&empty).unwrap().paths.is_empty());
    }

    #[test]
    fn transport_errors_surface_not_hang() {
        let graph = graph(6, 10, 2, 0, 3);
        let mut distributed = ShardedSolver::with_transport(
            Arc::new(FailingTransport),
            AlgorithmKind::Bfs,
            StableClusterSpec::ExactLength(2),
            3,
            SolverOptions::default(),
        )
        .unwrap();
        let err = distributed.solve(&graph).unwrap_err();
        assert!(matches!(err, BscError::Cluster(_)), "{err}");
    }

    #[test]
    fn stats_aggregate_across_shards_and_are_shard_count_invariant() {
        let graph = graph(7, 18, 3, 1, 5);
        let spec = StableClusterSpec::ExactLength(2);
        let mut one =
            ShardedSolver::new(AlgorithmKind::Bfs, spec, 5, SolverOptions::default()).unwrap();
        let base = one.solve(&graph).unwrap();
        assert!(base.stats.paths_generated > 0);
        assert_eq!(base.stats.shards, 1);
        for shards in [2usize, 3] {
            let mut solver = ShardedSolver::new(
                AlgorithmKind::Bfs,
                spec,
                5,
                SolverOptions::default().shards(shards),
            )
            .unwrap();
            let solution = solver.solve(&graph).unwrap();
            // The per-start work is identical for every shard count, so the
            // summed counters are too — only the grouping changes.
            assert_eq!(solution.stats.paths_generated, base.stats.paths_generated);
            assert_eq!(solution.stats.nodes_processed, base.stats.nodes_processed);
            assert_eq!(solution.stats.shards, shards.min(5));
        }
    }

    #[test]
    fn only_a_fresh_local_solve_of_the_whole_graph_keeps_the_graph_s_table() {
        let graph = graph(12, 300, 5, 1, 20_240_607);
        let cancel = CancelToken::default();
        let options = SolverOptions::default().shards(2);
        let solver = |algorithm, l| {
            let spec = StableClusterSpec::ExactLength(l);
            ShardedSolver::new(algorithm, spec, 5, options.clone()).unwrap()
        };
        let keep = |solver: &ShardedSolver, graph: &ClusterGraph, view, l| {
            let windowed = Windowed::new(solver, view);
            windowed.floor_and_live_windows(l, &cancel).unwrap();
            graph.memoized()
        };
        // A part of the graph, a leaf that reads no table (DFS) or prices
        // one window's (a budgeted `auto`), and a transport's workers have
        // the graph keep nothing.
        let bfs = solver(AlgorithmKind::Bfs, 3);
        assert!(keep(&bfs, &graph, graph.window(1, 11), 3).is_empty());
        let dfs = solver(AlgorithmKind::Dfs, 3);
        assert!(keep(&dfs, &graph, graph.view(), 3).is_empty());
        let budgeted = AlgorithmKind::Auto {
            budget_bytes: Some(1 << 20),
        };
        assert!(keep(&solver(budgeted, 3), &graph, graph.view(), 3).is_empty());
        let spec = StableClusterSpec::ExactLength(3);
        let (transport, bfs_kind) = (Arc::new(FailingTransport), AlgorithmKind::Bfs);
        let fanned = ShardedSolver::with_transport(transport, bfs_kind, spec, 5, options.clone());
        assert!(keep(&fanned.unwrap(), &graph, graph.view(), 3).is_empty());
        // BFS and TA windows of the whole graph have it keep one table per
        // length, the one the unsharded solve of that length reads.
        assert_eq!(keep(&bfs, &graph, graph.view(), 3), [3]);
        let ta = |l| solver(AlgorithmKind::Ta, l);
        assert_eq!(keep(&ta(2), &graph, graph.view(), 2), [3, 2]);
        assert_eq!(keep(&ta(3), &graph, graph.view(), 3), [3, 2]);
        // A whole table over the memo's bound is not built: 14 intervals of
        // 15 000 nodes at `l = 10` ask 600 000 weights, where each window
        // asks 150 000.
        let mut wide = ClusterGraphBuilder::new(0);
        for _ in 0..14 {
            wide.add_interval(15_000);
        }
        let wide = wide.build();
        assert!(Completions::weights(wide.view(), 10) > MEMO_WEIGHTS);
        let bfs = solver(AlgorithmKind::Bfs, 10);
        assert!(keep(&bfs, &wide, wide.view(), 10).is_empty());
    }

    #[test]
    fn a_two_shard_solve_s_windows_read_the_graph_s_one_table_on_every_thread() {
        // Every chunk, posted to a shard thread or run by the caller, reads
        // the graph through a handle that shares its memo: the graph keeps
        // its one whole-graph table, and that table answers the look-up of
        // every swept window — a chunk reading a graph of its own would
        // build tables the graph never sees. A handle keeps the graph's id
        // and tables; a clone has neither.
        let graph = graph(12, 300, 5, 1, 20_240_607);
        let spec = StableClusterSpec::ExactLength(3);
        let options = SolverOptions::default().shards(2);
        let mut solver = ShardedSolver::new(AlgorithmKind::Bfs, spec, 5, options).unwrap();
        let cold = graph.clone();
        let windowed = Windowed::new(&solver, cold.view());
        let (_, live) = windowed
            .floor_and_live_windows(3, &CancelToken::default())
            .unwrap();
        let swept = live.iter().filter(|&&live| live).count();
        assert!(swept > 1 && swept < live.len(), "{swept} of {}", live.len());
        let solution = solver.solve(&graph).unwrap();
        assert_eq!(solution.stats.shards, 2);
        assert_eq!(solution.stats.threads, cores().min(2));
        assert_eq!(graph.memoized(), [3]);
        assert_eq!(graph.memo.answered(), swept);
        let handle = graph.handle();
        assert_eq!((handle.id(), handle.memoized()), (graph.id(), vec![3]));
        let clone = graph.clone();
        assert!(clone.memoized().is_empty());
        assert_ne!(clone.id(), graph.id());
    }

    #[test]
    fn concurrent_solves_from_more_threads_than_cores_each_answer_as_one_alone() {
        // More callers than cores, each solving at two, three and eight
        // ranges over one shared graph: the shard threads are busy with one
        // another's chunks, and callers run the posted chunks no shard
        // thread has started. Every solve equals the same solve of a cold
        // clone run alone first, in paths and in every counter — `threads`
        // and the summed peaks included.
        let graph = graph(12, 120, 4, 1, 4_343);
        let mut queries = Vec::new();
        for algorithm in [AlgorithmKind::Bfs, AlgorithmKind::Ta] {
            for l in [2, 3, 5] {
                for shards in [2, 3, 8] {
                    queries.push((algorithm, l, shards));
                }
            }
        }
        let solve = |graph: &ClusterGraph, (algorithm, l, shards)| {
            let spec = StableClusterSpec::ExactLength(l);
            let options = SolverOptions::default().shards(shards);
            let mut solver = ShardedSolver::new(algorithm, spec, 5, options).unwrap();
            solver.solve(graph).unwrap()
        };
        let alone: Vec<Solution> = queries.iter().map(|&q| solve(&graph.clone(), q)).collect();
        std::thread::scope(|scope| {
            for caller in 0..cores() + 2 {
                let (graph, queries, alone) = (&graph, &queries, &alone);
                scope.spawn(move || {
                    for turn in 0..3 * queries.len() {
                        let i = (caller + turn) % queries.len();
                        let case = format!("caller {caller} {:?}", queries[i]);
                        let solution = solve(graph, queries[i]);
                        assert_identical(&alone[i].paths, &solution.paths, &case);
                        assert_eq!(solution.stats, alone[i].stats, "{case}");
                    }
                });
            }
        });
    }

    #[test]
    fn a_merge_keeps_the_table_of_the_new_graph_s_last_window() {
        // The stream's next epoch: one interval appended, its parents those
        // of the last interval moved one on. The earlier answer stands for
        // the windows it leaves alone; the one it adds, the new graph's last
        // start window, builds its table and the graph keeps it. A shorter
        // last window reads it, a longer one deepens it, and the graph then
        // keeps the deeper one alone — every answer still the cold one.
        let old = graph(12, 300, 5, 1, 20_240_607);
        let options = SolverOptions::default();
        let solve = |graph, l, prior| {
            let spec = StableClusterSpec::ExactLength(l);
            crate::delta::solve_windows(graph, spec, 5, AlgorithmKind::Bfs, &options, prior)
        };
        let first: Vec<_> = [3, 2, 4].map(|l| solve(&old, l, None).unwrap()).into();
        assert_eq!(old.memoized(), [3, 2, 4]);
        let moved = |(parent, weight): &(ClusterNodeId, f64)| {
            (
                ClusterNodeId::new(parent.interval + 1, parent.index),
                *weight,
            )
        };
        let edges = old.interval_parent_edges(11);
        let edges: Vec<Vec<_>> = edges
            .iter()
            .map(|row| row.iter().map(moved).collect())
            .collect();
        let nodes = edges.len() as u32;
        let new = old
            .append(nodes, &crate::cluster_graph::in_edges(&edges))
            .unwrap();
        let delta = GraphDelta::between(&old, &new);
        for (prior, (l, kept)) in first.iter().zip([(3, [3]), (2, [3]), (4, [4])]) {
            let second = solve(&new, l, Some((&prior.windows, &delta))).unwrap();
            assert_eq!(second.solution.stats.windows_spliced, u64::from(12 - l));
            assert_eq!(second.solution.stats.windows_resolved, 1);
            assert_eq!(new.memoized(), kept, "l={l}");
            let mut cold = AlgorithmKind::Bfs
                .build(StableClusterSpec::ExactLength(l), 5, new.num_intervals())
                .unwrap();
            assert_eq!(
                second.windows.paths,
                cold.solve(&new.clone()).unwrap().paths,
                "l={l}"
            );
        }
    }

    #[test]
    fn windows_too_long_to_share_a_table_still_answer() {
        // The graph's table is over the memo's bound here, so it is not
        // built: each long window on a long graph reads a table of its own,
        // as it would solved alone, and answers — never `InvalidConfig` —
        // and the graph keeps only its last window's, one weight per node.
        let shards = SolverOptions::default().shards(2);
        let thin = long_thin_graph();
        let stream = graph(1_000, 200, 2, 0, 1_000);
        for (graph, l) in [(&thin, 1_000), (&stream, 500)] {
            let spec = StableClusterSpec::ExactLength(l);
            let mut solver =
                ShardedSolver::new(AlgorithmKind::Bfs, spec, 5, shards.clone()).unwrap();
            let solution = solver.solve(graph).unwrap_or_else(|e| panic!("l={l}: {e}"));
            let starts = graph.num_intervals() as u64 - u64::from(l);
            assert_eq!(solution.stats.windows_resolved, starts, "l={l}");
            assert_eq!(solution.paths.len(), 5, "l={l}");
            assert!(
                solution.paths.iter().all(|path| path.length() == l),
                "l={l}"
            );
            assert_eq!(graph.memoized(), [l], "l={l}");
        }
    }

    #[test]
    fn a_budget_that_priced_one_window_still_holds_each_window() {
        // A budgeted `auto` resolves per window and keeps a table and a
        // floor of its own: a budget exactly BFS's price of one window still
        // picks BFS in every window, counters and all — those of the BFS
        // windows solved alone; a byte less picks the next solver.
        let graph = graph(12, 300, 5, 1, 20_240_607);
        let (k, l) = (5, 3);
        let spec = StableClusterSpec::ExactLength(l);
        let options = SolverOptions::default().shards(2);
        let solve = |algorithm| {
            let mut solver = ShardedSolver::new(algorithm, spec, k, options.clone()).unwrap();
            solver.solve(&graph).unwrap()
        };
        let bfs = solve(AlgorithmKind::Bfs);
        let mut alone = SolverStats::default();
        for start in 0..graph.num_intervals() as u32 - l {
            let window = solve_window_locally(&graph, start, l, k, AlgorithmKind::Bfs, &options);
            alone.merge(&window.unwrap().stats);
        }
        let price = bfs_resident_bytes(&GraphShape::of(graph.window(0, l)), k, u64::from(l));
        let auto = |budget| AlgorithmKind::Auto {
            budget_bytes: Some(budget),
        };
        let fits = solve(auto(price));
        assert_eq!(fits.paths, bfs.paths);
        assert_eq!(fits.stats.paths_generated, alone.paths_generated);
        assert_eq!(fits.stats.nodes_processed, alone.nodes_processed);
        let short = solve(auto(price - 1));
        assert_eq!(short.paths, bfs.paths);
        assert_ne!(short.stats.paths_generated, alone.paths_generated);
    }

    #[test]
    fn a_cold_stream_solve_answers_as_the_unsharded_one() {
        // The shape of the benchmark's cold delta solve: 70 intervals of
        // 1 000 nodes, about 6 000 in-edges each, `exact:3`: 67 windows read
        // the graph's table, which it keeps (within the memo's bound), and
        // answer as the unsharded solve of a clone, which builds its own.
        let graph = graph(70, 1_000, 6, 0, 70);
        let spec = StableClusterSpec::ExactLength(3);
        let options = SolverOptions::default();
        let windowed =
            crate::delta::solve_windows(&graph, spec, 5, AlgorithmKind::Bfs, &options, None);
        let mut unsharded = AlgorithmKind::Bfs
            .build(spec, 5, graph.num_intervals())
            .unwrap();
        assert_eq!(
            windowed.unwrap().windows.paths,
            unsharded.solve(&graph.clone()).unwrap().paths
        );
        assert_eq!(graph.memoized(), [3]);
    }

    /// The counters a merge of windows adds up, peaks aside.
    fn counted(stats: &SolverStats) -> [u64; 6] {
        [
            stats.nodes_processed,
            stats.paths_generated,
            stats.prunes,
            stats.random_seeks,
            stats.edges_traversed,
            stats.windows_resolved,
        ]
    }

    /// Hold a local sharded solve of the whole of `graph` (`kind`, whose
    /// windows `leaf` solves; `l`, `k`) at shards ∈ {1, 2, 3, 8} to the
    /// windows solved one by one with the view's `θ₀`: a window ruled out
    /// would have answered nothing and adds only its `windows_resolved`; a
    /// swept one adds its counters, and peaks follow the stats rule over
    /// the swept windows — the widest with one range, between it and their
    /// sum with more. Returns the paths, equal at every shard count, and
    /// how many windows were ruled out.
    fn assert_windows_by_the_view_s_floor(
        graph: &ClusterGraph,
        (kind, leaf): (AlgorithmKind, AlgorithmKind),
        (l, k): (u32, usize),
        case: &str,
    ) -> (Vec<ClusterPath>, usize) {
        let m = graph.num_intervals() as u32;
        let spec = StableClusterSpec::ExactLength(l);
        let options = SolverOptions::default();
        let solver = ShardedSolver::new(kind, spec, k, options.clone()).unwrap();
        let mut windowed = Windowed::new(&solver, graph.view());
        windowed.algorithm = leaf;
        let (floor, live) = windowed
            .floor_and_live_windows(l, &CancelToken::default())
            .unwrap();
        let table = Completions::of(graph.view(), l, None, &mut 0).unwrap();
        let view_s = table.lens(graph.view(), l, k, NO_FLOOR).floor();
        assert_eq!(floor.to_bits(), view_s.to_bits(), "{case}");
        let mut sum = SolverStats::default();
        let (mut widest, mut summed) = (0, 0);
        for (start, &live) in (0..m - l).zip(&live) {
            let window = solve_window(graph, start, l, k, leaf, &options, floor).unwrap();
            if live {
                sum.merge(&window.stats);
                widest = widest.max(window.stats.peak_resident_paths);
                summed += window.stats.peak_resident_paths;
            } else {
                assert!(window.paths.is_empty(), "{case} start={start}");
                sum.windows_resolved += 1;
            }
        }
        let mut answers = None;
        for shards in [1, 2, 3, 8] {
            let case = format!("{case} shards={shards}");
            let options = options.clone().shards(shards);
            let mut solver = ShardedSolver::new(kind, spec, k, options).unwrap();
            let solution = solver.solve(graph).unwrap();
            assert_eq!(counted(&solution.stats), counted(&sum), "{case}");
            let peak = solution.stats.peak_resident_paths;
            assert!(widest <= peak && peak <= summed, "{case}");
            if shards == 1 {
                assert_eq!(peak, widest, "{case}");
            }
            let answers = answers.get_or_insert_with(|| solution.paths.clone());
            assert_identical(answers, &solution.paths, &case);
        }
        let ruled_out = live.iter().filter(|&&live| !live).count();
        (answers.unwrap_or_default(), ruled_out)
    }

    #[test]
    fn windows_pruned_by_the_view_s_floor_answer_as_the_unsharded_solve() {
        // The look-ahead battery: edges of one interval up to four, the four
        // weightings, every `l` (`l = 1` holds no weight and rules out
        // nothing), `k` ∈ {1, 5, past the starts}. BFS and TA windows of a
        // local sharded solve prune by the view's `θ₀` and skip the windows
        // none of whose starts reaches it: paths and weight bits are the
        // unsharded BFS solve's and the merge of the windows solved alone,
        // and the counters those of the windows solved with the view's floor
        // (`assert_windows_by_the_view_s_floor`). With all weights equal
        // nothing is ruled out.
        let key = |paths: &[ClusterPath]| {
            let key = |path: &ClusterPath| (path.nodes().to_vec(), path.weight().to_bits());
            paths.iter().map(key).collect::<Vec<_>>()
        };
        let (mut ruled_out, mut solves) = (0, 0);
        for gap in 0..=3 {
            let base = graph(7, 8, 3, gap, 7_300 + u64::from(gap));
            for (name, weight) in WEIGHTINGS {
                let graph = reweighted(&base, weight);
                let m = graph.num_intervals() as u32;
                for l in 1..m {
                    let starts = 8 * (m - l) as usize;
                    for k in [1, 5, starts + 1] {
                        let case = format!("{name} gap={gap} l={l} k={k}");
                        let cold = graph.clone();
                        let bfs = BfsStableClusters::new(KlStableParams::new(k, l));
                        let expected = key(&bfs.run(&cold).unwrap());
                        let mut merged = TopKPaths::new(k);
                        for start in 0..m - l {
                            let options = SolverOptions::default();
                            let alone = solve_window_locally(
                                &cold,
                                start,
                                l,
                                k,
                                AlgorithmKind::Bfs,
                                &options,
                            );
                            alone.unwrap().paths.into_iter().for_each(|p| {
                                merged.offer_by_weight(p);
                            });
                        }
                        assert_eq!(key(&merged.into_sorted()), expected, "{case}");
                        for algorithm in [AlgorithmKind::Bfs, AlgorithmKind::Ta] {
                            let case = format!("{case} {algorithm}");
                            let (paths, out) = assert_windows_by_the_view_s_floor(
                                &graph,
                                (algorithm, algorithm),
                                (l, k),
                                &case,
                            );
                            assert_eq!(key(&paths), expected, "{case}");
                            let none_out = l == 1 || name == "all-equal";
                            assert!(!none_out || out == 0, "{case}");
                            ruled_out += out;
                            solves += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(solves, 4 * 4 * 6 * 3 * 2);
        assert!(ruled_out > 0, "no window ruled out in {solves} solves");
    }

    #[test]
    fn the_integration_rows_count_the_windows_by_the_view_s_floor() {
        // The graph and rows of `tests/sharded_solve.rs`'s counter test
        // (unbudgeted `auto` is BFS in every window; full paths are one
        // window, whose own floor is the view's): there the local sharded
        // counters are only held equal across partitions, here to the
        // windows solved with the view's floor.
        let graph = graph(12, 40, 3, 1, 2929);
        let m = graph.num_intervals() as u32;
        let (bfs, ta) = (AlgorithmKind::Bfs, AlgorithmKind::Ta);
        let auto = AlgorithmKind::Auto { budget_bytes: None };
        let rows = [
            (bfs, bfs, 3),
            (bfs, bfs, 6),
            (bfs, bfs, m - 1),
            (ta, ta, 3),
            (ta, ta, 5),
            (auto, bfs, 2),
        ];
        for (kind, leaf, l) in rows {
            let spec = StableClusterSpec::ExactLength(l);
            let chosen = choose_algorithm(&GraphShape::of(graph.view()), spec, 5, None);
            assert!(kind != auto || chosen.unwrap() == leaf, "{kind} l={l}");
            let case = format!("{kind} l={l}");
            let (paths, _) =
                assert_windows_by_the_view_s_floor(&graph, (kind, leaf), (l, 5), &case);
            assert!(!paths.is_empty(), "{case}");
        }
    }

    #[test]
    fn a_start_that_reaches_the_floor_only_summed_the_sweep_s_way_is_swept() {
        // Two candidate answers in two windows, weighed by the table right to
        // left and by the sweep left to right (`e` = 2^-53, half an ulp of 1):
        // `p` = e, e, 1 from interval 0 is 1 to the table and 1 + 2e to the
        // sweep; `q` = 1, e, e from interval 1 is 1 + 2e to the table and 1 to
        // the sweep. The view's `θ₀` for k = 1 is `q`'s start, 1 + 2e; `p`'s
        // start misses it by one ulp, and reaches it only with the slack —
        // yet `p` is the answer.
        let e = f64::EPSILON / 2.0;
        let node = ClusterNodeId::new;
        let mut builder = ClusterGraphBuilder::new(0);
        for _ in 0..5 {
            builder.add_interval(2);
        }
        for (from, lane, weights) in [(0, 0, [e, e, 1.0]), (1, 1, [1.0, e, e])] {
            for (step, weight) in (from..).zip(weights) {
                builder.add_edge(node(step, lane), node(step + 1, lane), weight);
            }
        }
        let graph = builder.build();
        let p = [node(0, 0), node(1, 0), node(2, 0), node(3, 0)];
        let spec = StableClusterSpec::ExactLength(3);
        for algorithm in [AlgorithmKind::Bfs, AlgorithmKind::Ta] {
            let options = SolverOptions::default().shards(2);
            let mut solver = ShardedSolver::new(algorithm, spec, 1, options).unwrap();
            let solution = solver.solve(&graph).unwrap();
            assert_eq!(solution.paths.len(), 1, "{algorithm}");
            assert_eq!(solution.paths[0].nodes(), p, "{algorithm}");
            assert_eq!(solution.paths[0].weight(), 1.0 + 2.0 * e, "{algorithm}");
            assert_eq!(solution.stats.windows_resolved, 2, "{algorithm}");
        }
        let table = Completions::of(graph.view(), 3, None, &mut 0).unwrap();
        assert_eq!(
            table.lens(graph.view(), 3, 1, NO_FLOOR).floor(),
            1.0 + 2.0 * e
        );
        // The unsharded sweep marks its live starts by the same predicate.
        let unsharded = BfsStableClusters::new(KlStableParams::new(1, 3));
        assert_eq!(unsharded.run(&graph).unwrap()[0].nodes(), p);
    }
}
