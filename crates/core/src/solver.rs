//! The unified solver abstraction over every stable-cluster algorithm.
//!
//! The paper's evaluation (Sections 4–5) is a *comparison* of interchangeable
//! algorithms — BFS (Algorithm 2), disk-resident DFS (Algorithm 3), the
//! Threshold-Algorithm adaptation, the normalized-stability solver of
//! Problem 2 — run over the same cluster graph. [`StableClusterSolver`] is
//! the seam that makes them interchangeable in code as well: every solver
//! takes a [`GraphView`] (a whole [`ClusterGraph`], or a temporal window of
//! one read in place) and produces a [`Solution`] carrying the result paths,
//! unified execution statistics and the logical I/O performed, behind one
//! object-safe trait suitable for `Box<dyn StableClusterSolver>` collections.
//!
//! [`AlgorithmKind`] names the available algorithms; [`AlgorithmKind::build`]
//! is the one place that knows how to construct each solver for a
//! [`StableClusterSpec`], validating per-algorithm restrictions (the TA
//! adaptation is full-paths-only; the normalized solver only answers
//! Problem 2) up front as [`BscError::Unsupported`].

use std::time::Duration;

use bsc_storage::backend::StorageSpec;
use bsc_storage::io_stats::{IoScope, IoSnapshot};
pub use bsc_util::cancel::CancelToken;

use crate::cluster_graph::{ClusterGraph, GraphView};
use crate::distributed::transport_for;
use crate::error::{BscError, BscResult};
use crate::path::ClusterPath;
use crate::problem::{KlStableParams, NormalizedParams, StableClusterSpec};
use crate::sharded::{PathLength, ShardedSolver};
use crate::snapshot::GraphSnapshot;

/// The admission lane a query rides in a multi-tenant query engine.
///
/// Two lanes are enough for the QoS the engine offers: `High` for
/// interactive/latency-sensitive traffic, `Normal` for everything else.
/// Priority never changes *what* is computed — only how long a query waits
/// in the admission queue behind other tenants' work — so it is excluded
/// from solution-cache keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueryPriority {
    /// Served ahead of the normal lane (subject to the engine's starvation
    /// bound — see `docs/load.md`).
    High,
    /// The default lane.
    #[default]
    Normal,
}

impl QueryPriority {
    /// The priority's short, stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            QueryPriority::High => "high",
            QueryPriority::Normal => "normal",
        }
    }

    /// Parse a short name as produced by [`QueryPriority::name`].
    pub fn parse(name: &str) -> Option<QueryPriority> {
        match name {
            "high" => Some(QueryPriority::High),
            "normal" => Some(QueryPriority::Normal),
            _ => None,
        }
    }
}

impl std::fmt::Display for QueryPriority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Deployment-level knobs shared by every [`AlgorithmKind::build_with_options`]
/// construction: which [`StorageSpec`] backend DFS, the disk-resident
/// solver, keeps its per-node state in, how the solve is split across cores
/// (`shards`) or processes (`fanout`), its deadline, and who it is billed
/// to. Problem-level parameters (spec, `k`) stay separate — these options
/// never change *what* is computed, only how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolverOptions {
    /// Storage backend DFS keeps its per-node state in. DFS is the one
    /// solver that reads it, whether asked for by name or picked by `auto`.
    /// Every backend produces the identical `Solution`.
    pub storage: StorageSpec,
    /// Number of interval shards (`> 1` wraps the solver in a
    /// [`ShardedSolver`] on local threads; `1`, the default, solves
    /// unsharded). Shard ranges are the one way a single solve uses more
    /// than one core — every solver is sequential inside its window. Every
    /// shard count produces the identical `Solution`; see
    /// `docs/sharding.md`.
    pub shards: usize,
    /// Fan the per-window solves out to remote worker processes instead of
    /// local shard threads (`Some` wraps the solver in a [`ShardedSolver`]
    /// over the transport registered via
    /// [`register_transport_factory`](crate::distributed::register_transport_factory),
    /// one range per worker). Takes precedence over
    /// [`SolverOptions::shards`] for placement — the two are the same
    /// decomposition, executed by processes instead of threads, and every
    /// worker set produces the identical `Solution`. `None` (the default)
    /// solves in-process.
    pub fanout: Option<crate::distributed::FanoutSpec>,
    /// Cooperative cancellation for the solve: every solver's hot loop
    /// polls this token at amortized checkpoints and aborts with
    /// [`BscError::DeadlineExceeded`] once it trips — by an explicit
    /// [`CancelToken::cancel`] or by its deadline passing. A windowed solve
    /// shares the token across its range workers (the first to fail cancels
    /// its siblings) and forwards the remaining budget to remote workers
    /// over the wire. `None` (the default) solves to completion;
    /// the answer is byte-identical either way — a token never changes
    /// *what* is computed, only whether the solve is allowed to finish.
    pub cancel: Option<CancelToken>,
    /// The tenant the query is billed to in a multi-tenant query engine:
    /// the engine keeps per-tenant admission counters and, when configured
    /// with a quota, sheds this tenant's excess traffic as
    /// [`BscError::Saturated`]. `None` (the default) means untracked,
    /// unmetered traffic. Never changes the answer, so it is excluded from
    /// solution-cache keys.
    pub tenant: Option<String>,
    /// The admission lane ([`QueryPriority`]) the query rides in the
    /// engine's queue. Changes queue waits, never answers.
    pub priority: QueryPriority,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            storage: StorageSpec::LogFile,
            shards: 1,
            fanout: None,
            cancel: None,
            tenant: None,
            priority: QueryPriority::Normal,
        }
    }
}

impl SolverOptions {
    /// Set the storage backend DFS keeps its per-node state in.
    pub fn storage(mut self, storage: StorageSpec) -> Self {
        self.storage = storage;
        self
    }

    /// Set the interval shard count (1 = unsharded).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Set (or clear) the distributed fan-out worker set.
    pub fn fanout(mut self, fanout: Option<crate::distributed::FanoutSpec>) -> Self {
        self.fanout = fanout;
        self
    }

    /// Set (or clear) the cooperative cancellation token.
    pub fn cancel_token(mut self, cancel: Option<CancelToken>) -> Self {
        self.cancel = cancel;
        self
    }

    /// Set (or clear) the tenant the query is billed to.
    pub fn tenant(mut self, tenant: Option<String>) -> Self {
        self.tenant = tenant;
        self
    }

    /// Set the admission-lane priority.
    pub fn priority(mut self, priority: QueryPriority) -> Self {
        self.priority = priority;
        self
    }

    /// Give the solve a wall-clock budget measured from *now*: installs a
    /// fresh [`CancelToken`] whose deadline is `budget` away (`None` clears
    /// any token). A zero budget produces an already-expired token, so the
    /// solve fails fast with [`BscError::DeadlineExceeded`] without doing
    /// any work.
    pub fn deadline(self, budget: Option<Duration>) -> Self {
        self.cancel_token(budget.map(CancelToken::after))
    }
}

/// Fail fast when a query's token has already tripped. Every solver entry
/// point calls this before touching the graph, which is what makes an
/// expired deadline return [`BscError::DeadlineExceeded`] *without solving*
/// from every layer.
pub fn check_not_expired(cancel: Option<&CancelToken>) -> BscResult<()> {
    match cancel {
        Some(token) if token.expired() => Err(deadline_error(token)),
        _ => Ok(()),
    }
}

/// The amortized form of [`check_not_expired`] for a solver's inner loops:
/// one real check per [`CancelToken::CHECK_INTERVAL`] calls, counted on the
/// caller's `tick`.
#[inline]
pub(crate) fn checkpoint(cancel: Option<&CancelToken>, tick: &mut u32) -> BscResult<()> {
    match cancel {
        Some(token) if token.checkpoint(tick) => Err(deadline_error(token)),
        _ => Ok(()),
    }
}

/// The error a tripped [`CancelToken`] surfaces as.
pub fn deadline_error(token: &CancelToken) -> BscError {
    BscError::DeadlineExceeded {
        elapsed_micros: token.elapsed_micros(),
    }
}

/// Unified execution statistics across all solver implementations.
///
/// Each algorithm counts straight into the fields that are meaningful for it
/// and leaves the rest at their defaults (each solver's `run_with_stats`
/// documents which ones those are): BFS reports generated paths and
/// resident-path peaks, DFS reports node-state I/O, prunes and stack depth,
/// TA reports edges its bound discarded, edges scanned, rows read while
/// expanding and early termination, the normalized solver reports Theorem-1
/// prefix drops as `prunes`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolverStats {
    /// Candidate paths generated / enumerated (BFS: candidates considered at
    /// the nodes it visited; TA: full paths an expansion completed and
    /// weighed, each able to reach the threshold its edge was popped under).
    pub paths_generated: u64,
    /// Graph nodes processed (BFS: nodes visited — a batch sweep passes over
    /// a node no prefix of a near-answer can reach and does not count it).
    pub nodes_processed: u64,
    /// Edges traversed or scanned (TA: popped from the sorted lists).
    pub edges_traversed: u64,
    /// Times a pruning rule fired (DFS `CanPrune`, Theorem 1 prefix drops;
    /// TA: edges whose best full path, read off the look-ahead tables,
    /// misses the threshold — never listed, or popped and not expanded).
    pub prunes: u64,
    /// Per-node state reads (random I/O for the disk-resident variants).
    pub node_reads: u64,
    /// Per-node state writes.
    pub node_writes: u64,
    /// Adjacency rows read while expanding a popped edge into the full paths
    /// through it (TA): one per node a walk steps through.
    pub random_seeks: u64,
    /// Peak number of candidate paths resident in memory.
    pub peak_resident_paths: usize,
    /// Peak traversal stack depth (DFS).
    pub peak_stack_depth: usize,
    /// True when the solver stopped before exhausting its input (TA's
    /// threshold condition).
    pub early_termination: bool,
    /// Range workers of a windowed (sharded, distributed or delta) solve
    /// that ran concurrently (0 = not a windowed solve: every solver is
    /// sequential on its own). Written only by the windowed executor.
    pub threads: usize,
    /// Interval shards the solve was split across (0 = not a sharded
    /// solve; the sharded solver reports the number of shard ranges
    /// actually formed).
    pub shards: usize,
    /// Wall-clock microseconds the query waited for a worker before its
    /// solve began (0 outside the query engine — only an admission queue
    /// has a wait to report).
    pub queue_wait_micros: u64,
    /// Wall-clock microseconds of the solve itself (0 = not measured; the
    /// pipeline's solver stage and the query engine fill it in). Unlike
    /// every other field this one is nondeterministic by nature, so
    /// byte-identical-result comparisons must ignore it.
    pub solve_micros: u64,
    /// Start windows actually solved by a windowed solve (0 = not a
    /// windowed solve). `solve_window_locally` reports 1 per window, so a
    /// sharded, distributed or delta solve accumulates the count through
    /// `merge` regardless of how the windows were partitioned.
    pub windows_resolved: u64,
    /// Start windows answered by splicing a prior epoch's per-window
    /// result forward instead of re-solving (delta solves only; see
    /// `bsc_core::delta`).
    pub windows_spliced: u64,
}

impl SolverStats {
    /// Componentwise aggregation for *sequentially* composed runs: counters
    /// sum, peaks take the maximum, `early_termination` ORs. The windowed
    /// executor combines per-window statistics with it; for runs that
    /// executed concurrently the caller must adjust the peak fields itself
    /// (the simultaneous peak is bounded by the sum of the parts, not their
    /// max — see the stats rule in `docs/sharding.md`). `threads` is left
    /// alone: it describes the executor doing the merging, not its parts.
    pub fn merge(&mut self, other: &SolverStats) {
        self.paths_generated += other.paths_generated;
        self.nodes_processed += other.nodes_processed;
        self.edges_traversed += other.edges_traversed;
        self.prunes += other.prunes;
        self.node_reads += other.node_reads;
        self.node_writes += other.node_writes;
        self.random_seeks += other.random_seeks;
        self.peak_resident_paths = self.peak_resident_paths.max(other.peak_resident_paths);
        self.peak_stack_depth = self.peak_stack_depth.max(other.peak_stack_depth);
        self.early_termination |= other.early_termination;
        self.shards = self.shards.max(other.shards);
        self.queue_wait_micros += other.queue_wait_micros;
        self.solve_micros += other.solve_micros;
        self.windows_resolved += other.windows_resolved;
        self.windows_spliced += other.windows_spliced;
    }
}

/// Everything a solver run produces.
#[derive(Debug, Clone)]
pub struct Solution {
    /// The result paths, best first (by weight for Problem 1, by stability
    /// for Problem 2).
    pub paths: Vec<ClusterPath>,
    /// Unified execution statistics.
    pub stats: SolverStats,
    /// Logical I/O performed by the storage substrate during the run.
    ///
    /// Measured as a delta of the **process-wide** I/O counters
    /// ([`bsc_storage::io_stats::global`]), so if other storage users run
    /// concurrently with the solve their I/O is attributed here too. For
    /// exact per-solver numbers, run solvers one at a time.
    pub io: IoSnapshot,
}

impl Solution {
    /// The [`Solution`] of one solver `run`, with the logical I/O it did.
    pub(crate) fn of(
        run: impl FnOnce() -> BscResult<(Vec<ClusterPath>, SolverStats)>,
    ) -> BscResult<Solution> {
        let scope = IoScope::start();
        let (paths, stats) = run()?;
        Ok(Solution {
            paths,
            stats,
            io: scope.finish(),
        })
    }
}

/// An object-safe solver for stable-cluster problems over a cluster graph.
///
/// Implementations are constructed with their problem parameters (via
/// [`AlgorithmKind::build`] or their own constructors) and may keep scratch
/// state between calls, hence `&mut self`.
pub trait StableClusterSolver: std::fmt::Debug {
    /// A short, stable, human-readable name (e.g. `"bfs"`).
    fn name(&self) -> &'static str;

    /// The [`AlgorithmKind`] this solver stands in for. For the built-in
    /// solvers this is the algorithm they implement; solvers outside the
    /// enum (such as test oracles) report the kind whose answers they are
    /// interchangeable with, and distinguish themselves via
    /// [`StableClusterSolver::name`].
    fn algorithm(&self) -> AlgorithmKind;

    /// Solve the configured problem over the intervals of `view`: "the
    /// first interval" is [`GraphView::first_interval`], "a full path"
    /// spans the view, and result paths carry the graph's own node ids.
    fn solve_view(&mut self, view: GraphView<'_>) -> BscResult<Solution>;

    /// Solve the configured problem over the whole of `graph`.
    fn solve(&mut self, graph: &ClusterGraph) -> BscResult<Solution> {
        self.solve_view(graph.view())
    }

    /// Solve against a shared [`GraphSnapshot`] — the long-lived-engine
    /// entry point. Solvers *borrow* the snapshot's graph (they never own
    /// graphs), so any number of queries can run against the same epoch
    /// concurrently while newer epochs are published. The default simply
    /// dereferences; solvers have no reason to override it.
    fn solve_snapshot(&mut self, snapshot: &GraphSnapshot) -> BscResult<Solution> {
        self.solve(snapshot.graph())
    }
}

/// The algorithms the engine can run, for dynamic dispatch and configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// Algorithm 2: interval-by-interval BFS with per-node bounded heaps.
    Bfs,
    /// Algorithm 3: DFS with disk-resident per-node state and `CanPrune`.
    Dfs,
    /// Section 4.4: the Threshold-Algorithm adaptation (full paths only).
    Ta,
    /// Section 4.5: normalized stable clusters (Problem 2).
    Normalized,
    /// The selection policy: pick BFS, DFS or TA per graph from its shape
    /// (m, n, d, g) and an optional memory budget in bytes, using the
    /// Table 3 crossovers (see [`crate::auto`]). Resolution happens at
    /// solve time, when the graph is known; inside a sharded solve a
    /// budgeted `Auto` resolves per window.
    Auto {
        /// Resident-memory budget in bytes; `None` means unlimited (the
        /// fastest algorithm, BFS, is always picked).
        budget_bytes: Option<u64>,
    },
}

impl AlgorithmKind {
    /// Every concrete algorithm, in presentation order. `Auto` is a policy
    /// *over* these, not an algorithm of its own, so it is not listed.
    pub const ALL: [AlgorithmKind; 4] = [
        AlgorithmKind::Bfs,
        AlgorithmKind::Dfs,
        AlgorithmKind::Ta,
        AlgorithmKind::Normalized,
    ];

    /// The algorithm's short name (`Auto`'s budget is carried by
    /// [`Display`](std::fmt::Display), not the name).
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmKind::Bfs => "bfs",
            AlgorithmKind::Dfs => "dfs",
            AlgorithmKind::Ta => "ta",
            AlgorithmKind::Normalized => "normalized",
            AlgorithmKind::Auto { .. } => "auto",
        }
    }

    /// Parse a short name as produced by [`AlgorithmKind::name`], plus the
    /// budgeted policy forms `auto` and `auto:<bytes>` (mirroring
    /// `blockcache:<bytes>` in [`StorageSpec::parse`]).
    pub fn parse(name: &str) -> Option<AlgorithmKind> {
        if name == "auto" {
            return Some(AlgorithmKind::Auto { budget_bytes: None });
        }
        if let Some(bytes) = name.strip_prefix("auto:") {
            return bytes.parse::<u64>().ok().map(|b| AlgorithmKind::Auto {
                budget_bytes: Some(b),
            });
        }
        AlgorithmKind::ALL
            .into_iter()
            .find(|kind| kind.name() == name)
    }

    /// The graph-independent rules for a spec: a path has at least one edge
    /// (`ExactLength(0)` and `Normalized { l_min: 0 }` are
    /// [`BscError::InvalidConfig`]), the normalized solver answers Problem 2
    /// only, and Problem 2 requires the normalized solver. TA's
    /// full-paths-only restriction depends on the graph's interval count and
    /// is checked by [`AlgorithmKind::build`] instead.
    ///
    /// This is the single source of those rules — [`AlgorithmKind::build`],
    /// [`AlgorithmKind::supports`], the windowed solvers and
    /// pipeline-parameter validation all delegate here so they cannot drift
    /// apart.
    pub fn check_spec(self, spec: StableClusterSpec) -> BscResult<()> {
        match (self, spec) {
            (_, StableClusterSpec::ExactLength(0)) => Err(BscError::InvalidConfig(
                "ExactLength(l) requires l >= 1: a path has at least one edge".into(),
            )),
            (_, StableClusterSpec::Normalized { l_min: 0 }) => Err(BscError::InvalidConfig(
                "Normalized requires l_min >= 1".into(),
            )),
            // Auto resolves to a compatible algorithm for any spec (the
            // normalized solver for Problem 2, BFS/DFS/TA otherwise).
            (AlgorithmKind::Auto { .. }, _) => Ok(()),
            (AlgorithmKind::Normalized, StableClusterSpec::Normalized { .. }) => Ok(()),
            (AlgorithmKind::Normalized, other) => Err(BscError::Unsupported {
                algorithm: "normalized",
                reason: format!(
                    "the normalized solver answers Problem 2 only; requested {other:?}"
                ),
            }),
            (kind, StableClusterSpec::Normalized { .. }) => Err(BscError::Unsupported {
                algorithm: kind.name(),
                reason: "Problem 2 (normalized stability) requires AlgorithmKind::Normalized"
                    .to_string(),
            }),
            _ => Ok(()),
        }
    }

    /// Construct a solver for this algorithm answering `spec` with `k`
    /// results over a graph of `num_intervals` temporal intervals.
    ///
    /// Validates per-algorithm restrictions — [`AlgorithmKind::check_spec`]
    /// plus TA's full-paths-only rule — surfacing violations as
    /// [`BscError::Unsupported`].
    pub fn build(
        self,
        spec: StableClusterSpec,
        k: usize,
        num_intervals: usize,
    ) -> BscResult<Box<dyn StableClusterSolver>> {
        self.build_with_options(spec, k, num_intervals, SolverOptions::default())
    }

    /// Like [`AlgorithmKind::build`], with deployment-level
    /// [`SolverOptions`]: the [`StorageSpec`] backend DFS keeps its per-node
    /// state in, sharding and fan-out. No option changes the computed
    /// `Solution`.
    pub fn build_with_options(
        self,
        spec: StableClusterSpec,
        k: usize,
        num_intervals: usize,
        options: SolverOptions,
    ) -> BscResult<Box<dyn StableClusterSolver>> {
        self.check_spec(spec)?;
        // Windowed solving wraps first, so each window builds (and, for a
        // budgeted Auto, resolves) its own inner solver. Note the
        // per-algorithm graph-dependent checks of `build_leaf` deliberately
        // do NOT run here in that case: inside an (l + 1)-interval window
        // every exact-length query is full-length, so e.g. TA accepts
        // subpath queries when sharded.
        if options.shards > 1 || options.fanout.is_some() {
            return Ok(Box::new(self.windowed(spec, k, options)?));
        }
        self.build_leaf(spec, k, num_intervals, &options)
    }

    /// The windowed solver `options` ask for: on the fan-out's workers when
    /// [`SolverOptions::fanout`] names a worker set (it takes precedence
    /// over local sharding: the same windows, run by processes instead of
    /// threads), else on [`SolverOptions::shards`] local ranges. The one
    /// place a fan-out becomes a transport.
    pub(crate) fn windowed(
        self,
        spec: StableClusterSpec,
        k: usize,
        options: SolverOptions,
    ) -> BscResult<ShardedSolver> {
        match options.fanout.as_ref().map(transport_for).transpose()? {
            Some(transport) => ShardedSolver::with_transport(transport, self, spec, k, options),
            None => ShardedSolver::new(self, spec, k, options),
        }
    }

    /// The solver itself, below the sharding and fan-out layers:
    /// [`SolverOptions::shards`] and [`SolverOptions::fanout`] are not
    /// consulted, so a window solve can hand its caller's options straight
    /// down without recursing into another decomposition.
    pub(crate) fn build_leaf(
        self,
        spec: StableClusterSpec,
        k: usize,
        num_intervals: usize,
        options: &SolverOptions,
    ) -> BscResult<Box<dyn StableClusterSolver>> {
        self.check_spec(spec)?;
        if let AlgorithmKind::Auto { budget_bytes } = self {
            return Ok(Box::new(crate::auto::AutoSolver::new(
                spec,
                k,
                budget_bytes,
                options.clone(),
            )));
        }
        let full_l = num_intervals.saturating_sub(1) as u32;
        let cancel = options.cancel.clone();
        // Problem 1 specs normalise to their path length; Problem 2 has
        // none and falls through to the normalized arm.
        let length = PathLength::of(spec, self.name()).ok();
        let length = length.map(|length| length.over(num_intervals as u32));
        match (self, length, spec) {
            (AlgorithmKind::Bfs, Some(l), _) => {
                let params = KlStableParams::new(k, l);
                Ok(Box::new(
                    crate::bfs::BfsStableClusters::new(params).with_cancel(cancel),
                ))
            }
            (AlgorithmKind::Dfs, Some(l), _) => {
                let config = crate::dfs::DfsConfig::default().with_storage(options.storage);
                let params = KlStableParams::new(k, l);
                Ok(Box::new(
                    crate::dfs::DfsStableClusters::with_config(params, config).with_cancel(cancel),
                ))
            }
            (AlgorithmKind::Ta, Some(l), _) if l == full_l => Ok(Box::new(
                crate::ta::TaStableClusters::new(k).with_cancel(cancel),
            )),
            (AlgorithmKind::Ta, _, other) => Err(BscError::Unsupported {
                algorithm: "ta",
                reason: format!(
                    "the Threshold-Algorithm adaptation only materializes full paths \
                     (length {full_l} here), not {other:?}"
                ),
            }),
            (AlgorithmKind::Normalized, _, StableClusterSpec::Normalized { l_min }) => {
                Ok(Box::new(
                    crate::normalized::NormalizedStableClusters::new(NormalizedParams::new(
                        k, l_min,
                    ))
                    .with_cancel(cancel),
                ))
            }
            // check_spec rejected every cross pairing above; report the
            // mismatch as an error rather than aborting the process.
            (kind, _, other) => Err(BscError::Unsupported {
                algorithm: "build",
                reason: format!("check_spec admitted {kind} with {other:?}"),
            }),
        }
    }

    /// True when [`AlgorithmKind::build`] would succeed for this combination.
    pub fn supports(self, spec: StableClusterSpec, num_intervals: usize) -> bool {
        if self.check_spec(spec).is_err() {
            return false;
        }
        let full_l = num_intervals.saturating_sub(1) as u32;
        match (self, spec) {
            (AlgorithmKind::Ta, StableClusterSpec::ExactLength(l)) => l == full_l,
            _ => true,
        }
    }
}

impl std::fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlgorithmKind::Auto {
                budget_bytes: Some(bytes),
            } => write!(f, "auto:{bytes}"),
            other => f.write_str(other.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{ClusterGraphGenerator, SyntheticGraphParams};

    fn graph(seed: u64) -> ClusterGraph {
        ClusterGraphGenerator::new(SyntheticGraphParams {
            num_intervals: 4,
            nodes_per_interval: 6,
            avg_out_degree: 2,
            gap: 0,
            seed,
        })
        .generate()
    }

    #[test]
    fn parse_roundtrips_names() {
        for kind in AlgorithmKind::ALL {
            assert_eq!(AlgorithmKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(AlgorithmKind::parse("dijkstra"), None);
    }

    #[test]
    fn auto_parses_with_and_without_a_budget() {
        assert_eq!(
            AlgorithmKind::parse("auto"),
            Some(AlgorithmKind::Auto { budget_bytes: None })
        );
        let budgeted = AlgorithmKind::Auto {
            budget_bytes: Some(4096),
        };
        assert_eq!(AlgorithmKind::parse("auto:4096"), Some(budgeted));
        assert_eq!(budgeted.to_string(), "auto:4096");
        assert_eq!(AlgorithmKind::parse(&budgeted.to_string()), Some(budgeted));
        assert_eq!(AlgorithmKind::parse("auto:"), None);
        assert_eq!(AlgorithmKind::parse("auto:lots"), None);
        assert_eq!(budgeted.name(), "auto");
    }

    #[test]
    fn auto_and_sharded_build_through_the_options_seam() {
        let auto = AlgorithmKind::Auto { budget_bytes: None }
            .build(StableClusterSpec::FullPaths, 3, 4)
            .unwrap();
        assert_eq!(auto.name(), "auto");

        let sharded = AlgorithmKind::Bfs
            .build_with_options(
                StableClusterSpec::ExactLength(2),
                3,
                4,
                SolverOptions::default().shards(2),
            )
            .unwrap();
        assert_eq!(sharded.name(), "sharded");
        assert_eq!(sharded.algorithm(), AlgorithmKind::Bfs);

        // Sharding rejects Problem 2 at build time.
        let err = AlgorithmKind::Normalized
            .build_with_options(
                StableClusterSpec::Normalized { l_min: 2 },
                3,
                4,
                SolverOptions::default().shards(2),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            BscError::Unsupported {
                algorithm: "sharded",
                ..
            }
        ));
    }

    #[test]
    fn build_rejects_unsupported_combinations() {
        let err = AlgorithmKind::Ta
            .build(StableClusterSpec::ExactLength(1), 3, 4)
            .unwrap_err();
        assert!(matches!(
            err,
            BscError::Unsupported {
                algorithm: "ta",
                ..
            }
        ));

        let err = AlgorithmKind::Normalized
            .build(StableClusterSpec::FullPaths, 3, 4)
            .unwrap_err();
        assert!(matches!(
            err,
            BscError::Unsupported {
                algorithm: "normalized",
                ..
            }
        ));

        let err = AlgorithmKind::Bfs
            .build(StableClusterSpec::Normalized { l_min: 2 }, 3, 4)
            .unwrap_err();
        assert!(matches!(
            err,
            BscError::Unsupported {
                algorithm: "bfs",
                ..
            }
        ));
    }

    #[test]
    fn ta_accepts_exact_full_length() {
        assert!(AlgorithmKind::Ta
            .build(StableClusterSpec::ExactLength(3), 3, 4)
            .is_ok());
    }

    #[test]
    fn supports_matches_build() {
        for kind in AlgorithmKind::ALL {
            for spec in [
                StableClusterSpec::FullPaths,
                StableClusterSpec::ExactLength(2),
                StableClusterSpec::ExactLength(3),
                StableClusterSpec::Normalized { l_min: 2 },
            ] {
                assert_eq!(
                    kind.supports(spec, 4),
                    kind.build(spec, 3, 4).is_ok(),
                    "{kind} {spec:?}"
                );
            }
        }
    }

    #[test]
    fn every_kind_solves_through_the_trait() {
        // Seed 23: DFS prunes and TA filters edges on its bound here.
        let graph = graph(23);
        for kind in AlgorithmKind::ALL {
            let spec = match kind {
                AlgorithmKind::Normalized => StableClusterSpec::Normalized { l_min: 2 },
                _ => StableClusterSpec::FullPaths,
            };
            let mut solver = kind.build(spec, 3, graph.num_intervals()).unwrap();
            assert_eq!(solver.algorithm(), kind);
            assert_eq!(solver.name(), kind.name());
            let solution = solver.solve(&graph).unwrap();
            assert!(!solution.paths.is_empty(), "{kind}");
            // Every deterministic counter, so a solver that counts into the
            // wrong `SolverStats` field fails here (no reply carries them).
            let expected = match kind {
                // θ₀ = 2.2183, and three nodes of the first interval start a
                // path that reaches it: c0,2 (2.4094), c0,5 (2.3728) and c0,3
                // (θ₀ itself). Nobody marks the first interval; the three mark
                // five nodes of the second (15 of its 16 in-edges: c1,5 has
                // c0,0 → c1,5 alone and is passed over), where c1,0 and c1,3
                // hold the answers' first edges (1 + 2). Those two mark four
                // nodes of the third — 7 extensions of the three prefixes,
                // held at c2,0 and c2,2 — which mark four of the last, 7
                // more: 15 + 7 + 7 candidates at 0 + 5 + 4 + 4 nodes, and
                // the prefixes of the answers (3 + 3 over two intervals) are
                // all the sweep holds.
                AlgorithmKind::Bfs => SolverStats {
                    paths_generated: 29,
                    nodes_processed: 13,
                    peak_resident_paths: 6,
                    ..SolverStats::default()
                },
                AlgorithmKind::Dfs => SolverStats {
                    paths_generated: 140,
                    edges_traversed: 48,
                    prunes: 2,
                    node_reads: 26,
                    node_writes: 24,
                    peak_stack_depth: 5,
                    ..SolverStats::default()
                },
                // θ₀ = 2.2183, the third-best start. Seven of the 45 edges
                // lie on a full path that reaches it — those of the answers
                // c0,2 c1,3 c2,2 c3,4 (2.4094), c0,5 c1,0 c2,0 c3,1 (2.3728)
                // and c0,3 c1,3 c2,2 c3,4 (2.2183, θ₀ itself), which share
                // c1,3 → c2,2 → c3,4 — so 38 are never listed. One round pops
                // the head of each list: c0,2 → c1,3 walks forth through
                // c1,3 and c2,2 (2 rows, the first answer); c1,0 → c2,0
                // walks back through c1,0, forth through c2,0 (2 rows, the
                // second); c2,2 → c3,4 walks back through c2,2 and c1,3
                // (2 rows) to c0,2, the first answer again, and c0,3, the
                // third. `H` is full at 2.2183 and the unseen heads sum to
                // 0.8011 + 0.5606 + 0.8552 = 2.2169: the scan stops.
                AlgorithmKind::Ta => SolverStats {
                    paths_generated: 4,
                    edges_traversed: 3,
                    prunes: 38,
                    random_seeks: 6,
                    early_termination: true,
                    ..SolverStats::default()
                },
                _ => SolverStats {
                    paths_generated: 190,
                    prunes: 51,
                    peak_resident_paths: 123,
                    ..SolverStats::default()
                },
            };
            let deterministic = SolverStats {
                queue_wait_micros: 0,
                solve_micros: 0,
                ..solution.stats
            };
            assert_eq!(deterministic, expected, "{kind}");
        }
    }
}
