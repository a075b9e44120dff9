//! The one windowed executor: [`ShardedSolver`](crate::sharded::ShardedSolver),
//! [`DistributedSolver`](crate::distributed::DistributedSolver) and
//! [`solve_windows`](crate::delta::solve_windows) are three configurations
//! of [`Windowed::run`]. `docs/sharding.md` carries the same statement for
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
//! node's parents are listed in, or whether a window's result was computed
//! now or spliced from an earlier epoch at which [`GraphDelta`] proves the
//! window held the same edges (see [`crate::delta`] for that proof). Problem
//! 2 (normalized stability) has unbounded windows and does not decompose;
//! [`PathLength::of`] is the one place it is rejected. The graph solved is
//! itself a view: handed a proper sub-view, the executor decomposes that.
//!
//! ## The two seams, each crossed once per window
//!
//! * [`Placement`] — how one `(range index, start)` becomes a
//!   [`WindowResult`], and how many ranges may run at once: local leaves
//!   cap at the machine's parallelism, transport dispatchers run one per
//!   range because they block on sockets, not cores.
//! * **Memo** ([`Windowed::prior`], [`Windowed::keep_windows`]) — whether a
//!   prior epoch's [`WindowSet`] may stand in for windows its [`GraphDelta`]
//!   leaves untouched, and whether this solve's per-window results are kept
//!   for the next epoch.
//!
//! ## One look-ahead table per run of windows
//!
//! Every BFS and TA window solve starts with the backward pass of
//! `lookahead::Completions` over its view, and a node lies in up to `l + 1`
//! windows. A local range worker therefore groups the starts it solves —
//! consecutive, and not spliced — into **runs** `[a, b]`, and builds one
//! table over `[a, b + l]` per run, the first time a window of the run is
//! solved by a leaf that reads one (BFS, unbudgeted `auto`, TA; see
//! `distributed::reads_a_shared_table`). Each window reads it through a
//! `Lens`, which answers exactly what the window's own table would, its
//! `θ₀` included (the `lookahead` module docs carry the argument), so paths
//! and every counter are those of the window solved alone: sharing changes
//! time only. The run's table holds exactly its windows' tables; a run is
//! as long as keeps that within `lookahead::RUN_TABLE_WEIGHTS` (1 MiB), and
//! a window whose own table is larger is a run of one. A budgeted `auto`
//! priced one window's table and keeps its own, DFS reads none, and a
//! transport placement sends one window per request, so a worker's
//! [`solve_window_locally`](crate::distributed::solve_window_locally) is a
//! run of one — as is the one window a streamed answer re-solves.
//!
//! ## What every configuration shares
//!
//! Starts are weighted by the edges in their window's leading intervals and
//! split into contiguous ranges by `balanced_ranges`; the last range worker
//! is the calling thread, the others scoped threads. All share one
//! [`CancelToken`], checked in full before every window: the first worker
//! to fail trips it, its siblings stop at their next window, and the
//! root-cause error wins over the `DeadlineExceeded` they report.
//!
//! **`Auto`** resolves per window only when the *query* asked for
//! `shards > 1` — what the oracle's `build_with_options` does when it wraps
//! the query in a `ShardedSolver`. Otherwise it resolves once, against the
//! whole graph the unsharded solve would read, however many ranges the
//! placement forms on its own (a coordinator's default fan-out forms one per
//! worker): a budget is a property of the query, not of where it runs.
//!
//! **Stats.** `shards` is the number of ranges formed; `threads` the range
//! workers that ran concurrently — the one writer of that field, since
//! every solver is sequential inside its window; peaks are max-merged
//! within a worker and summed across concurrent workers;
//! `windows_resolved` / `windows_spliced` count windows solved / reused,
//! and a spliced window's historical counters are not re-counted.

use std::ops::Range;
use std::sync::Arc;

use bsc_graph::partition::balanced_ranges;
use bsc_storage::io_stats::IoScope;
use bsc_util::cancel::CancelToken;

use crate::auto::{choose_algorithm, GraphShape};
use crate::cluster_graph::GraphView;
use crate::delta::{DeltaSolveOutcome, GraphDelta, WindowSet};
use crate::distributed::{
    anonymous_epoch, reads_a_shared_table, solve_window, ShardTransport, WindowRequest,
    WindowResult,
};
use crate::error::{BscError, BscResult};
use crate::lookahead::{Completions, RUN_TABLE_WEIGHTS};
use crate::problem::StableClusterSpec;
use crate::solver::{
    check_not_expired, deadline_error, AlgorithmKind, Solution, SolverOptions, SolverStats,
};
use crate::topk::TopKPaths;

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

/// Where a window runs.
enum Placement<'a> {
    /// On this machine, through `distributed::solve_window`, a range's runs
    /// of windows sharing a look-ahead table each.
    Local,
    /// On a remote worker; `epoch` identifies the graph to the transport.
    Transport {
        transport: &'a dyn ShardTransport,
        epoch: u64,
    },
}

/// One windowed solve, fully configured.
pub(crate) struct Windowed<'a> {
    view: GraphView<'a>,
    length: PathLength,
    k: usize,
    algorithm: AlgorithmKind,
    options: &'a SolverOptions,
    /// Ranges to split the valid starts into (0 counts as 1).
    ranges: usize,
    placement: Placement<'a>,
    /// A prior epoch's per-window results and the delta from that epoch to
    /// `view`'s graph: windows the delta proves untouched are spliced, not
    /// solved (whole-graph views only).
    pub(crate) prior: Option<(&'a WindowSet, &'a GraphDelta)>,
    /// Keep every window's result in the outcome, for the next epoch.
    pub(crate) keep_windows: bool,
}

/// What one range worker hands back.
struct Partial {
    top: TopKPaths,
    stats: SolverStats,
    kept: Vec<Arc<WindowResult>>,
}

impl<'a> Windowed<'a> {
    /// A cold solve of `view` that keeps nothing, placed by `transport` —
    /// the one place a placement is decided. `None` solves the windows on
    /// this machine over `options.shards` ranges; `Some((transport, epoch))`
    /// dispatches them through `transport`, one range per worker, naming the
    /// graph by `epoch`: a published snapshot's own, so a worker keeps the
    /// graph it installed from one query of the epoch to the next; 0 stands
    /// for a graph that was never published and becomes a fresh
    /// [`anonymous_epoch`], so workers neither collide on unrelated graphs
    /// nor reuse a stale one.
    pub(crate) fn new(
        view: GraphView<'a>,
        length: PathLength,
        k: usize,
        algorithm: AlgorithmKind,
        options: &'a SolverOptions,
        transport: Option<(&'a dyn ShardTransport, u64)>,
    ) -> Windowed<'a> {
        let (ranges, placement) = match transport {
            None => (options.shards, Placement::Local),
            Some((transport, epoch)) => {
                let epoch = match epoch {
                    0 => anonymous_epoch(),
                    published => published,
                };
                let placement = Placement::Transport { transport, epoch };
                (transport.worker_count(), placement)
            }
        };
        Windowed {
            view,
            length,
            k,
            algorithm,
            options,
            ranges,
            placement,
            prior: None,
            keep_windows: false,
        }
    }

    /// Run the solve.
    pub(crate) fn run(mut self) -> BscResult<DeltaSolveOutcome> {
        check_not_expired(self.options.cancel.as_ref())?;
        let scope = IoScope::start();
        let (view, k) = (self.view, self.k);
        let m = view.num_intervals() as u32;
        let l = self.length.over(m);
        self.algorithm = match self.algorithm {
            AlgorithmKind::Auto { budget_bytes } if self.options.shards <= 1 => {
                let spec = StableClusterSpec::ExactLength(l);
                choose_algorithm(&GraphShape::of(view), spec, k, budget_bytes)?
            }
            concrete_or_per_window => concrete_or_per_window,
        };
        // A prior only splices when it answers the same question (same l
        // and k) and its delta lands on this graph generation.
        self.prior = self
            .prior
            .filter(|(set, delta)| set.l == l && set.k == k && delta.new_intervals() == m);
        let mut merged = TopKPaths::new(k);
        let mut stats = SolverStats::default();
        let mut windows = Vec::new();
        // A path of length l starting `a` intervals into the view spans
        // [a, a + l]: a <= m - 1 - l.
        if k > 0 && l >= 1 && l < m {
            let edge_counts = view.graph().interval_out_edge_counts();
            let edge_counts = &edge_counts[view.first_interval() as usize..];
            let weights: Vec<u64> = (0..(m - l) as usize)
                .map(|a| edge_counts[a..a + l as usize].iter().sum::<u64>().max(1))
                .collect();
            let partition = balanced_ranges(&weights, self.ranges.max(1));
            let ranges: Vec<Range<usize>> = partition.iter().collect();
            let workers = match self.placement {
                Placement::Local => std::thread::available_parallelism().map_or(1, |n| n.get()),
                Placement::Transport { .. } => ranges.len(),
            };
            // Each worker owns a contiguous run of ranges, so concatenating
            // the workers' kept windows in order yields start order.
            let chunk = ranges.len().div_ceil(workers.min(ranges.len()).max(1));
            let cancel = self.options.cancel.clone().unwrap_or_default();
            let leaf = self.options.clone().cancel_token(Some(cancel.clone()));
            let (this, leaf, cancel) = (&self, &leaf, &cancel);
            let work = move |(i, owned)| this.run_ranges(l, i * chunk, owned, leaf, cancel);
            // One worker per chunk: the last on this thread, the others each
            // on a scoped thread of their own.
            let results: Vec<BscResult<Partial>> = std::thread::scope(|scope| {
                let mut chunks = ranges.chunks(chunk).enumerate();
                let here = chunks.next_back();
                let spawned: Vec<_> = chunks.map(|c| scope.spawn(move || work(c))).collect();
                let here = here.map(work);
                spawned
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .chain(here)
                    .collect()
            });
            stats.shards = ranges.len();
            stats.threads = results.len();
            // Root cause first; `min_by_key` keeps the first of equals.
            let (parts, errors): (Vec<_>, Vec<_>) = results.into_iter().partition(Result::is_ok);
            let root_cause = errors
                .into_iter()
                .filter_map(Result::err)
                .min_by_key(|e| matches!(e, BscError::DeadlineExceeded { .. }));
            if let Some(error) = root_cause {
                return Err(error);
            }
            let (mut peak_paths, mut peak_depth) = (0, 0);
            parts.into_iter().filter_map(Result::ok).for_each(|part| {
                merged.absorb(part.top);
                peak_paths += part.stats.peak_resident_paths;
                peak_depth += part.stats.peak_stack_depth;
                stats.merge(&part.stats);
                windows.extend(part.kept);
            });
            stats.peak_resident_paths = peak_paths;
            stats.peak_stack_depth = peak_depth;
        }
        Ok(DeltaSolveOutcome {
            solution: Solution {
                paths: merged.into_sorted(),
                stats,
                io: scope.finish(),
            },
            windows: WindowSet { l, k, windows },
        })
    }

    /// One worker: obtain every window of `owned` (range indices start at
    /// `first`, starts at the view's first interval) in start order, merging
    /// into a local top-k.
    fn run_ranges(
        &self,
        l: u32,
        first: usize,
        owned: &[Range<usize>],
        leaf: &SolverOptions,
        cancel: &CancelToken,
    ) -> BscResult<Partial> {
        let (graph, k, algorithm) = (self.view.graph(), self.k, self.algorithm);
        // Sized once: a kept set regrown window by window churns the
        // allocator enough to slow the *next* ingest (measured on
        // `stream-delta`).
        let kept = match self.keep_windows {
            true => owned.iter().map(Range::len).sum(),
            false => 0,
        };
        let mut part = Partial {
            top: TopKPaths::new(k),
            stats: SolverStats::default(),
            kept: Vec::with_capacity(kept),
        };
        let first_start = self.view.first_interval();
        // The look-ahead table the run of windows being solved here shares,
        // and the last start it holds.
        let mut run: Option<(u32, Completions)> = None;
        // bsc:allow(missing-cancel-checkpoint) -- every window is preceded by the full (unamortized) token check, and window solves checkpoint internally
        for (index, range) in owned.iter().enumerate() {
            for start in range.clone() {
                if cancel.expired() {
                    return Err(deadline_error(cancel));
                }
                let start = first_start + start as u32;
                let spliced = self.spliced(start, l);
                let result = match (spliced, &self.placement) {
                    (Some(previous), _) => {
                        part.stats.windows_spliced += 1;
                        Ok(Arc::clone(previous))
                    }
                    (None, Placement::Local) => {
                        let past = run.as_ref().map_or(true, |&(last, _)| start > last);
                        if past && reads_a_shared_table(algorithm) {
                            drop(run.take());
                            let stop = first_start + range.end as u32;
                            let table = self.run_from(start, stop, l, cancel);
                            run = Some(table.inspect_err(|_| cancel.cancel())?);
                        }
                        let shared = run.as_ref().map(|(_, table)| table);
                        solve_window(graph, start, l, k, algorithm, leaf, shared).map(Arc::new)
                    }
                    (None, Placement::Transport { transport, epoch }) => {
                        let request = WindowRequest {
                            epoch: *epoch,
                            start,
                            l,
                            k,
                            algorithm,
                            storage: leaf.storage,
                            preferred: first + index,
                            // The budget remaining *now*, so the worker's
                            // local token expires in step with ours.
                            deadline_ms: cancel.remaining().map(|left| left.as_millis() as u64),
                        };
                        transport.solve_window(graph, &request).map(Arc::new)
                    }
                };
                let result = result.inspect_err(|_| cancel.cancel())?;
                if spliced.is_none() {
                    part.stats.merge(&result.stats);
                }
                for path in &result.paths {
                    if part.top.would_admit(path.weight()) {
                        part.top.offer_by_weight(path.clone());
                    }
                }
                if self.keep_windows {
                    part.kept.push(result);
                }
            }
        }
        Ok(part)
    }

    /// The prior epoch's result for the window at `start`, if its delta
    /// leaves the window untouched.
    fn spliced(&self, start: u32, l: u32) -> Option<&'a Arc<WindowResult>> {
        self.prior
            .filter(|(_, delta)| !delta.touches_window(start, l))
            .and_then(|(set, _)| set.windows.get(start as usize))
    }

    /// The look-ahead table a run of windows from `start` on shares, and the
    /// run's last start: consecutive starts before `stop` that are solved,
    /// not spliced, as many as keep the table within [`RUN_TABLE_WEIGHTS`]
    /// — at least `start`'s, whatever its size. A run's table holds exactly
    /// its windows' tables.
    fn run_from(
        &self,
        start: u32,
        stop: u32,
        l: u32,
        cancel: &CancelToken,
    ) -> BscResult<(u32, Completions)> {
        let graph = self.view.graph();
        let weights = |start: u32| Completions::weights(graph.window(start, start + l), l);
        let mut held = weights(start);
        let fits = |&next: &u32| {
            held += weights(next);
            held <= RUN_TABLE_WEIGHTS
        };
        let more = (start + 1..stop).take_while(|&next| self.spliced(next, l).is_none());
        let last = more.take_while(fits).last().unwrap_or(start);
        let table = Completions::of(graph.window(start, last + l), l, Some(cancel), &mut 0)?;
        Ok((last, table))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auto::{bfs_resident_bytes, GraphShape};
    use crate::cluster_graph::{ClusterGraph, ClusterGraphBuilder};
    use crate::lookahead::long_thin_graph;
    use crate::sharded::ShardedSolver;
    use crate::solver::StableClusterSolver;
    use crate::synthetic::{ClusterGraphGenerator, SyntheticGraphParams};

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
    fn a_run_s_table_holds_no_more_than_the_cap_or_its_first_window_s_own() {
        // Walked as a range worker walks them: every run is as long as the
        // cap allows, its table within the cap — or, where one window's own
        // table is larger (14 intervals of 15 000 nodes at `l = 10`: 150 000
        // weights), exactly that window's, a run of one.
        let mut wide = ClusterGraphBuilder::new(0);
        for _ in 0..14 {
            wide.add_interval(15_000);
        }
        let cases = [
            (random_graph(12, 300, 5, 1, 20_240_607), 3, 1),
            (random_graph(12, 300, 5, 1, 20_240_607), 6, 1),
            (long_thin_graph(), 1_000, 16),
            (random_graph(60, 1_000, 2, 0, 61), 4, 2),
            (wide.build(), 10, 4),
        ];
        for (graph, l, runs) in cases {
            let options = SolverOptions::default();
            let view = graph.view();
            let length = PathLength(Some(l));
            let windowed = Windowed::new(view, length, 5, AlgorithmKind::Bfs, &options, None);
            let cancel = CancelToken::default();
            let own = |start: u32| Completions::weights(graph.window(start, start + l), l);
            let stop = graph.num_intervals() as u32 - l;
            let (mut start, mut formed) = (0, 0);
            while start < stop {
                let (last, _) = windowed.run_from(start, stop, l, &cancel).unwrap();
                let held = Completions::weights(graph.window(start, last + l), l);
                let case = format!("l={l} run {start}..={last}");
                assert!(held <= RUN_TABLE_WEIGHTS.max(own(start)), "{case}: {held}");
                assert_eq!(held, (start..=last).map(own).sum::<usize>(), "{case}");
                if last + 1 < stop {
                    assert!(held + own(last + 1) > RUN_TABLE_WEIGHTS, "{case}");
                }
                (start, formed) = (last + 1, formed + 1);
            }
            assert_eq!(formed, runs, "l={l}");
        }
    }

    #[test]
    fn windows_too_long_to_share_a_table_still_answer() {
        // The cap keeps a run to what one window would have held: long
        // windows on long graphs answer as before, never `InvalidConfig`.
        let shards = SolverOptions::default().shards(2);
        let thin = long_thin_graph();
        let stream = random_graph(1_000, 200, 2, 0, 1_000);
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
        }
    }

    #[test]
    fn a_budget_that_priced_one_window_still_holds_each_window() {
        // A budgeted `auto` resolves per window and keeps a table of its own:
        // a budget exactly BFS's price of one window still picks BFS in every
        // window, counters and all; a byte less picks the next solver.
        let graph = random_graph(12, 300, 5, 1, 20_240_607);
        let (k, l) = (5, 3);
        let spec = StableClusterSpec::ExactLength(l);
        let options = SolverOptions::default().shards(2);
        let solve = |algorithm| {
            let mut solver = ShardedSolver::new(algorithm, spec, k, options.clone()).unwrap();
            solver.solve(&graph).unwrap()
        };
        let bfs = solve(AlgorithmKind::Bfs);
        let price = bfs_resident_bytes(&GraphShape::of(graph.window(0, l)), k, u64::from(l));
        let auto = |budget| AlgorithmKind::Auto {
            budget_bytes: Some(budget),
        };
        let fits = solve(auto(price));
        assert_eq!(fits.paths, bfs.paths);
        assert_eq!(fits.stats.paths_generated, bfs.stats.paths_generated);
        assert_eq!(fits.stats.nodes_processed, bfs.stats.nodes_processed);
        let short = solve(auto(price - 1));
        assert_eq!(short.paths, bfs.paths);
        assert_ne!(short.stats.paths_generated, bfs.stats.paths_generated);
    }

    #[test]
    fn a_cold_stream_solve_answers_as_the_unsharded_one() {
        // The shape of the benchmark's cold delta solve: 70 intervals of
        // 1 000 nodes, about 6 000 in-edges each, `exact:3`: 67 windows in
        // two runs of shared tables, the answer the unsharded solve's.
        let graph = random_graph(70, 1_000, 6, 0, 70);
        let spec = StableClusterSpec::ExactLength(3);
        let options = SolverOptions::default();
        let windowed =
            crate::delta::solve_windows(&graph, spec, 5, AlgorithmKind::Bfs, &options, None);
        let mut unsharded = AlgorithmKind::Bfs
            .build(spec, 5, graph.num_intervals())
            .unwrap();
        assert_eq!(
            windowed.unwrap().solution.paths,
            unsharded.solve(&graph).unwrap().paths
        );
    }
}
