//! `AlgorithmKind::Auto` — the solver selection policy.
//!
//! The paper's evaluation (Table 3, Figures 7–13) establishes a clear
//! hierarchy: BFS is the fastest algorithm whenever its sliding window of
//! per-node heaps fits in memory, the TA adaptation is competitive only for
//! *full-path* queries over few intervals (the published one enumerates
//! every prefix and suffix of an edge to bound it, `d^(m−1)` paths), and DFS
//! — slowest, but needing only a stack in memory with per-node state on disk
//! — is the algorithm of last resort for memory-constrained deployments.
//! [`choose_algorithm`] encodes exactly that ranking: given the graph shape
//! (`m`, `n`, `d`, `g`), the query and an optional memory budget, it picks
//! the fastest algorithm whose estimated resident footprint fits.
//!
//! [`TA_CROSSOVER_INTERVALS`] is 6 because that is where `repro table3`
//! measured TA losing to DFS while TA still enumerated (quick scale: 0.033 s
//! vs 0.070 s at m = 6, skipped beyond). [`crate::ta`] reads its bounds off
//! two look-ahead tables now and answers m = 9 in under a millisecond
//! (`BENCH_table3.json`), so the constant no longer marks a crossover; it
//! stays until the ranking is redone together with an `explain` surface
//! (ROADMAP item 2), where a budgeted choice that flips is a visible diff
//! rather than a silent transcript change.
//!
//! Footprint estimates are deliberately coarse — deterministic arithmetic
//! over the shape, not measurements — because the policy must be cheap,
//! reproducible, and unit-testable at the crossover points. They price the
//! two layouts paths are held in — BFS's slot tables and link arena, and one
//! `RESIDENT_PATH_BYTES` per path DFS or the normalized solver holds (a
//! `ClusterPath`, or a candidate and its hop) — and the look-ahead tables a
//! batch BFS or a TA solve holds beside them. An unsatisfiable
//! budget (even DFS's stack would not fit) is a configuration error,
//! reported as [`BscError::InvalidConfig`], never a panic.

use crate::cluster_graph::GraphView;
use crate::error::{BscError, BscResult};
use crate::problem::StableClusterSpec;
use crate::solver::{AlgorithmKind, Solution, SolverOptions, StableClusterSolver};

/// Beyond this many temporal intervals the TA adaptation is never picked:
/// where Table 3 measured the enumerating TA losing to DFS (module docs —
/// not a crossover of the TA that exists, kept until `Auto` is re-ranked).
pub const TA_CROSSOVER_INTERVALS: usize = 6;

/// Estimated bytes per path a solver other than BFS holds resident. A
/// [`ClusterPath`](crate::path::ClusterPath) (DFS's `bestpaths`) is 32 bytes
/// inline — its node vector's pointer, length and capacity, and the weight —
/// plus 8 per node on the heap: 64 at `l = 3` (four nodes), 80 with the
/// allocator's header and rounding. A normalized candidate is 24 bytes
/// inline plus the one hop it adds to the shared chain: a node (8), an edge
/// weight (8), the pointer to the hop before (8) and the `Rc` counts (16),
/// 40 in a 48-byte allocation — 72, priced the same.
const RESIDENT_PATH_BYTES: u64 = 80;

/// Bytes per slot of a BFS row: an `f64` weight and a `u32` cell index,
/// padded (see [`crate::bfs`]).
const BFS_SLOT_BYTES: u64 = 16;

/// Bytes per cell of a BFS link arena: a `ClusterNodeId` and a `u32`.
const BFS_LINK_BYTES: u64 = 12;

/// Bytes per weight of a look-ahead table (BFS's completions, TA's
/// `startwts` and `endwts`): an `f64`.
const LOOKAHEAD_WEIGHT_BYTES: u64 = 8;

/// The shape parameters of a cluster graph that drive algorithm selection —
/// the paper's (m, n, d, g) axes, read off a [`GraphView`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphShape {
    /// Number of temporal intervals `m`.
    pub num_intervals: usize,
    /// Maximum nodes in any single interval (the window estimate is driven
    /// by the widest interval, not the average).
    pub max_interval_nodes: u64,
    /// Total nodes across all intervals.
    pub num_nodes: u64,
    /// Total directed edges `|E|`.
    pub num_edges: u64,
    /// Average out-degree `d = |E| / |V|` (0 for an empty graph).
    pub avg_out_degree: f64,
    /// Maximum allowed gap `g`.
    pub gap: u32,
}

impl GraphShape {
    /// Read the shape off a graph or a view of one: a window's shape counts
    /// the nodes and edges inside the window, as a graph built from the
    /// window alone would.
    pub fn of<'a>(graph: impl Into<GraphView<'a>>) -> GraphShape {
        let graph = graph.into();
        let num_nodes = graph.num_nodes() as u64;
        let num_edges = graph.num_edges() as u64;
        let max_interval_nodes = graph
            .intervals()
            .map(|i| u64::from(graph.nodes_in_interval(i)))
            .max()
            .unwrap_or(0);
        GraphShape {
            num_intervals: graph.num_intervals(),
            max_interval_nodes,
            num_nodes,
            num_edges,
            avg_out_degree: if num_nodes == 0 {
                0.0
            } else {
                num_edges as f64 / num_nodes as f64
            },
            gap: graph.gap(),
        }
    }

    /// The effective path length of a Problem 1 query against this shape.
    fn effective_length(&self, spec: StableClusterSpec) -> u64 {
        match spec {
            StableClusterSpec::FullPaths => self.num_intervals.saturating_sub(1) as u64,
            StableClusterSpec::ExactLength(l) => u64::from(l),
            StableClusterSpec::Normalized { .. } => self.num_intervals.saturating_sub(1) as u64,
        }
    }
}

/// Estimated resident footprint of the in-memory BFS (Algorithm 2): every
/// interval holds up to `n_max` nodes with `l` rows of `k` subpaths, each a
/// slot and a link cell in flat arrays; the slots stay for a sliding window
/// of `g + 2` intervals, the link cells for the `l + g + 1` intervals a
/// held chain can reach back through. An upper bound on the heaps, left there
/// on purpose: the sweep holds at most `l − 1` rows per node (see
/// [`crate::bfs`]) and, knowing how every subpath can end, a handful of slots
/// in all, but what its bounds cut depends on the weights, which a
/// [`GraphShape`] does not see, and re-pricing the row alone would move
/// budgeted `auto` choices. Beside the heaps a batch solve holds its
/// completion table, the one part that grows with the whole view: every node
/// has a weight for each length it can be asked for, at most
/// `min(l, m − l)` — one for full paths and inside a start window. The
/// sweep's marks are under one byte per node of the `g + 1` intervals in
/// reach and are not priced.
pub fn bfs_resident_bytes(shape: &GraphShape, k: usize, l: u64) -> u64 {
    let l = l.max(1);
    let window = u64::from(shape.gap) + 2;
    let per_path = window.saturating_mul(BFS_SLOT_BYTES).saturating_add(
        (window - 1)
            .saturating_add(l)
            .saturating_mul(BFS_LINK_BYTES),
    );
    let heaps = shape
        .max_interval_nodes
        .saturating_mul(l)
        .saturating_mul(k as u64)
        .saturating_mul(per_path);
    let asked = l.min((shape.num_intervals as u64).saturating_sub(l));
    let completions = shape
        .num_nodes
        .saturating_mul(asked)
        .saturating_mul(LOOKAHEAD_WEIGHT_BYTES);
    heaps.saturating_add(completions)
}

/// Estimated resident footprint of the TA adaptation: both sorted edge-list
/// directions plus the seek index (~48 bytes per edge — an upper bound, left
/// there as [`bfs_resident_bytes`] leaves its heaps: a list holds only the
/// edges whose best full path reaches the k-th start, which the shape does
/// not say), its two look-ahead tables (`startwts` and `endwts`, a weight
/// each per node of the view) and the candidate heap of `k` full paths.
pub fn ta_resident_bytes(shape: &GraphShape, k: usize) -> u64 {
    let lists = shape.num_edges.saturating_mul(48);
    let tables = shape.num_nodes.saturating_mul(2 * LOOKAHEAD_WEIGHT_BYTES);
    let heap = (k as u64)
        .saturating_mul(shape.num_intervals as u64)
        .saturating_mul(32);
    lists.saturating_add(tables).saturating_add(heap)
}

/// Estimated resident footprint of DFS (Algorithm 3): per-node state lives
/// on disk, memory holds only the traversal stack — at most one frame per
/// interval, each with `l` buckets of `k` paths plus the `maxweight` array.
pub fn dfs_resident_bytes(shape: &GraphShape, k: usize, l: u64) -> u64 {
    let frames = shape.num_intervals as u64 + 1;
    let per_frame = l
        .max(1)
        .saturating_mul(k as u64)
        .saturating_mul(RESIDENT_PATH_BYTES)
        .saturating_add(l.saturating_mul(8))
        .saturating_add(64);
    frames.saturating_mul(per_frame)
}

/// Estimated resident footprint of the normalized solver (Problem 2): the
/// BFS framework — a sliding window of `g + 2` intervals of up to `n_max`
/// nodes — priced as `k` candidates for *every* length up to `m − 1`.
pub fn normalized_resident_bytes(shape: &GraphShape, k: usize) -> u64 {
    (u64::from(shape.gap) + 2)
        .saturating_mul(shape.max_interval_nodes)
        .saturating_mul((shape.num_intervals.saturating_sub(1) as u64).max(1))
        .saturating_mul(k as u64)
        .saturating_mul(RESIDENT_PATH_BYTES)
}

/// Pick the concrete algorithm for `spec` over a graph of this shape under
/// an optional memory budget. `None` is unlimited and never reads the shape:
/// BFS for every Problem 1 query, the normalized solver for Problem 2 — the
/// one place that policy is stated.
///
/// The ranking follows the Table 3 measurements (see the module docs):
///
/// 1. **Normalized** queries have exactly one solver; it must fit.
/// 2. **BFS** whenever its window estimate fits — it is the fastest
///    algorithm at every measured shape.
/// 3. **TA** for full-path queries over at most [`TA_CROSSOVER_INTERVALS`]
///    intervals when its edge lists and look-ahead tables fit.
/// 4. **DFS** when its stack fits — the slowest option, but the only one
///    whose footprint does not grow with `n`.
///
/// If even the DFS stack exceeds the budget the request is unsatisfiable
/// and a [`BscError::InvalidConfig`] describing the shortfall is returned.
pub fn choose_algorithm(
    shape: &GraphShape,
    spec: StableClusterSpec,
    k: usize,
    budget_bytes: Option<u64>,
) -> BscResult<AlgorithmKind> {
    let problem_two = matches!(spec, StableClusterSpec::Normalized { .. });
    // Without a budget the fastest solver always fits: the shape is not read.
    let Some(budget) = budget_bytes else {
        return Ok(match problem_two {
            true => AlgorithmKind::Normalized,
            false => AlgorithmKind::Bfs,
        });
    };
    let fits = |estimate: u64| estimate <= budget;
    if problem_two {
        let needed = normalized_resident_bytes(shape, k);
        return if fits(needed) {
            Ok(AlgorithmKind::Normalized)
        } else {
            Err(BscError::InvalidConfig(format!(
                "memory budget {budget} B cannot satisfy Problem 2: the normalized solver needs \
                 ~{needed} B and has no disk-resident fallback"
            )))
        };
    }
    let l = shape.effective_length(spec);
    if fits(bfs_resident_bytes(shape, k, l)) {
        return Ok(AlgorithmKind::Bfs);
    }
    let full_paths = l == shape.num_intervals.saturating_sub(1) as u64;
    if full_paths
        && shape.num_intervals <= TA_CROSSOVER_INTERVALS
        && fits(ta_resident_bytes(shape, k))
    {
        return Ok(AlgorithmKind::Ta);
    }
    let dfs_needed = dfs_resident_bytes(shape, k, l);
    if fits(dfs_needed) {
        return Ok(AlgorithmKind::Dfs);
    }
    Err(BscError::InvalidConfig(format!(
        "memory budget {budget} B is unsatisfiable for this graph shape: even the DFS stack needs \
         ~{dfs_needed} B (m = {}, n_max = {}, k = {k}, l = {l})",
        shape.num_intervals, shape.max_interval_nodes,
    )))
}

/// The deferred-choice solver behind [`AlgorithmKind::Auto`].
///
/// Construction (through [`AlgorithmKind::build_with_options`]) cannot see
/// the graph, so the choice happens at [`StableClusterSolver::solve`] time:
/// read the [`GraphShape`], run [`choose_algorithm`], build the chosen
/// solver with the same [`SolverOptions`] and delegate. Inside a sharded
/// solve a budgeted `Auto` resolves per window, so a wide window can pick
/// BFS while a memory-heavy one falls back to DFS; every other windowed
/// solve resolves once against the whole graph, as this solver does. The
/// solver only borrows the graph it resolves against, so under a long-lived
/// engine `Auto` re-reads the shape of whatever epoch-tagged
/// [`GraphSnapshot`](crate::snapshot::GraphSnapshot) each query pinned —
/// the policy adapts per epoch as streamed intervals grow the graph.
#[derive(Debug)]
pub struct AutoSolver {
    spec: StableClusterSpec,
    k: usize,
    budget_bytes: Option<u64>,
    options: SolverOptions,
    last_choice: Option<AlgorithmKind>,
}

impl AutoSolver {
    /// Create a deferred-choice solver. `options.shards` and
    /// `options.fanout` are ignored — Auto resolution happens per
    /// (sub)graph, below the sharding/fan-out layers.
    pub fn new(
        spec: StableClusterSpec,
        k: usize,
        budget_bytes: Option<u64>,
        options: SolverOptions,
    ) -> AutoSolver {
        AutoSolver {
            spec,
            k,
            budget_bytes,
            options,
            last_choice: None,
        }
    }

    /// The algorithm the most recent [`StableClusterSolver::solve`] call
    /// resolved to, if any.
    pub fn last_choice(&self) -> Option<AlgorithmKind> {
        self.last_choice
    }
}

impl StableClusterSolver for AutoSolver {
    fn name(&self) -> &'static str {
        "auto"
    }

    fn algorithm(&self) -> AlgorithmKind {
        AlgorithmKind::Auto {
            budget_bytes: self.budget_bytes,
        }
    }

    fn solve_view(&mut self, view: GraphView<'_>) -> BscResult<Solution> {
        crate::solver::check_not_expired(self.options.cancel.as_ref())?;
        let shape = GraphShape::of(view);
        let choice = choose_algorithm(&shape, self.spec, self.k, self.budget_bytes)?;
        self.last_choice = Some(choice);
        let mut inner = choice.build_leaf(
            self.spec,
            self.k,
            view.num_intervals(),
            &self.options,
            f64::NEG_INFINITY,
        )?;
        inner.solve_view(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{ClusterGraphGenerator, SyntheticGraphParams};

    /// The Table 3 quick-scale shape at a given m: n = 150, d = 5, g = 0.
    fn table3_shape(m: usize) -> GraphShape {
        GraphShape {
            num_intervals: m,
            max_interval_nodes: 150,
            num_nodes: (150 * m) as u64,
            num_edges: (150 * m * 5) as u64,
            avg_out_degree: 5.0,
            gap: 0,
        }
    }

    #[test]
    fn unlimited_budget_always_picks_bfs_for_problem_one() {
        for m in [3, 6, 9, 15] {
            let choice =
                choose_algorithm(&table3_shape(m), StableClusterSpec::FullPaths, 5, None).unwrap();
            assert_eq!(choice, AlgorithmKind::Bfs, "m={m}");
        }
    }

    #[test]
    fn ta_is_picked_below_the_table3_crossover_when_bfs_does_not_fit() {
        // A budget strictly between the TA and BFS estimates: BFS is ruled
        // out, TA fits, and the m <= 6 crossover decides TA vs DFS. (Such a
        // budget exists from m = 4 on: at m = 3 the flat BFS tables are
        // estimated below TA's edge lists.)
        for m in [4, TA_CROSSOVER_INTERVALS] {
            let shape = table3_shape(m);
            let l = (m - 1) as u64;
            let budget = ta_resident_bytes(&shape, 5).max(dfs_resident_bytes(&shape, 5, l)) + 1;
            assert!(
                budget < bfs_resident_bytes(&shape, 5, l),
                "m={m}: test budget must exclude BFS"
            );
            let choice =
                choose_algorithm(&shape, StableClusterSpec::FullPaths, 5, Some(budget)).unwrap();
            assert_eq!(choice, AlgorithmKind::Ta, "m={m}");
        }
    }

    #[test]
    fn dfs_takes_over_beyond_the_crossover() {
        // Same budget regime, one interval past the crossover: TA is no
        // longer considered even though it would fit.
        let m = TA_CROSSOVER_INTERVALS + 1;
        let shape = table3_shape(m);
        let l = (m - 1) as u64;
        let budget = ta_resident_bytes(&shape, 5).max(dfs_resident_bytes(&shape, 5, l)) + 1;
        assert!(budget < bfs_resident_bytes(&shape, 5, l));
        let choice =
            choose_algorithm(&shape, StableClusterSpec::FullPaths, 5, Some(budget)).unwrap();
        assert_eq!(choice, AlgorithmKind::Dfs);
    }

    #[test]
    fn subpath_queries_never_pick_ta() {
        // TA only materializes full paths; below the crossover a subpath
        // query under BFS-excluding pressure must go to DFS. (k = 20: at
        // k = 5 no budget admits TA's edge lists and excludes BFS.)
        let shape = table3_shape(4);
        let budget = ta_resident_bytes(&shape, 20).max(dfs_resident_bytes(&shape, 20, 2)) + 1;
        assert!(budget < bfs_resident_bytes(&shape, 20, 2));
        let choice =
            choose_algorithm(&shape, StableClusterSpec::ExactLength(2), 20, Some(budget)).unwrap();
        assert_eq!(choice, AlgorithmKind::Dfs);
    }

    #[test]
    fn the_completion_table_is_priced_beside_the_heaps() {
        // The one term that grows with the whole view: a weight per node and
        // length it can be asked for — one for full paths, `min(l, m − l)`
        // at most, none for a length the view cannot hold.
        let shape = table3_shape(1000);
        let heaps = |l| {
            bfs_resident_bytes(
                &GraphShape {
                    num_nodes: 0,
                    ..shape
                },
                5,
                l,
            )
        };
        let table = |l| bfs_resident_bytes(&shape, 5, l) - heaps(l);
        assert_eq!(table(999), 150_000 * 8);
        assert_eq!(table(10), 150_000 * 8 * 10);
        assert_eq!(table(600), 150_000 * 8 * 400);
        assert_eq!(table(1000), 0);
        // It is what a budget meets first on a long stream.
        assert!(table(10) > heaps(10));
    }

    #[test]
    fn ta_prices_its_two_look_ahead_tables() {
        // `startwts` and `endwts`: a weight each per node of the view,
        // whatever `k` — beside edge lists that outweigh them 15 to 1 here.
        let shape = table3_shape(6);
        let unpriced = GraphShape {
            num_nodes: 0,
            ..shape
        };
        for k in [1, 50] {
            let tables = ta_resident_bytes(&shape, k) - ta_resident_bytes(&unpriced, k);
            assert_eq!(tables, 900 * 16);
        }
        assert_eq!(ta_resident_bytes(&unpriced, 0), 4500 * 48);
    }

    #[test]
    fn unsatisfiable_budget_is_an_error_not_a_panic() {
        let shape = table3_shape(6);
        let err = choose_algorithm(&shape, StableClusterSpec::FullPaths, 5, Some(1)).unwrap_err();
        assert!(matches!(err, BscError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("unsatisfiable"), "{err}");

        let err = choose_algorithm(
            &shape,
            StableClusterSpec::Normalized { l_min: 2 },
            5,
            Some(1),
        )
        .unwrap_err();
        assert!(matches!(err, BscError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn normalized_queries_resolve_to_the_normalized_solver() {
        let choice = choose_algorithm(
            &table3_shape(6),
            StableClusterSpec::Normalized { l_min: 2 },
            5,
            None,
        )
        .unwrap();
        assert_eq!(choice, AlgorithmKind::Normalized);
    }

    /// A per-window `Auto` reads the shape of a view; it must pick what it
    /// picked when the window was a graph of its own (edges leaving the
    /// window not counted). Every window of the benchmark's 12×300 graph.
    #[test]
    fn a_window_view_has_the_shape_of_the_rebuilt_window() {
        let graph = ClusterGraphGenerator::new(SyntheticGraphParams {
            num_intervals: 12,
            nodes_per_interval: 300,
            avg_out_degree: 5,
            gap: 1,
            seed: 20_240_607,
        })
        .generate();
        for start in 0..12u32 {
            for end in start..12 {
                let mut builder = crate::cluster_graph::ClusterGraphBuilder::new(graph.gap());
                for interval in start..=end {
                    builder.add_interval(graph.nodes_in_interval(interval));
                }
                let shift = |n: crate::cluster_graph::ClusterNodeId| {
                    crate::cluster_graph::ClusterNodeId::new(n.interval - start, n.index)
                };
                for (from, to, weight) in graph.edges() {
                    if from.interval >= start && to.interval <= end {
                        builder.add_edge(shift(from), shift(to), weight);
                    }
                }
                let rebuilt = GraphShape::of(&builder.build());
                let shape = GraphShape::of(graph.window(start, end));
                assert_eq!(shape, rebuilt, "[{start}, {end}]");
                // Same shape, same choice — at budgets on both sides of
                // every crossover of this window.
                let l = u64::from(end - start);
                let spec = StableClusterSpec::ExactLength(end - start);
                for budget in [
                    bfs_resident_bytes(&shape, 5, l),
                    bfs_resident_bytes(&shape, 5, l).saturating_sub(1),
                    ta_resident_bytes(&shape, 5),
                    dfs_resident_bytes(&shape, 5, l),
                ] {
                    let on_view = choose_algorithm(&shape, spec, 5, Some(budget));
                    let on_rebuild = choose_algorithm(&rebuilt, spec, 5, Some(budget));
                    assert_eq!(on_view.ok(), on_rebuild.ok(), "[{start}, {end}] {budget}");
                }
            }
        }
    }

    #[test]
    fn auto_solver_resolves_and_solves_through_the_trait() {
        let graph = ClusterGraphGenerator::new(SyntheticGraphParams {
            num_intervals: 4,
            nodes_per_interval: 8,
            avg_out_degree: 2,
            gap: 0,
            seed: 17,
        })
        .generate();
        let mut reference = AlgorithmKind::Bfs
            .build(StableClusterSpec::FullPaths, 3, graph.num_intervals())
            .unwrap();
        let expected = reference.solve(&graph).unwrap().paths;

        let mut auto = AutoSolver::new(
            StableClusterSpec::FullPaths,
            3,
            None,
            SolverOptions::default(),
        );
        assert_eq!(auto.name(), "auto");
        let solution = auto.solve(&graph).unwrap();
        assert_eq!(auto.last_choice(), Some(AlgorithmKind::Bfs));
        assert_eq!(solution.paths, expected);

        // A tight-but-satisfiable budget flips the same query to DFS.
        let shape = GraphShape::of(&graph);
        let l = (graph.num_intervals() - 1) as u64;
        let budget = dfs_resident_bytes(&shape, 3, l)
            .max(ta_resident_bytes(&shape, 3))
            .max(1);
        let mut frugal = AutoSolver::new(
            StableClusterSpec::FullPaths,
            3,
            Some(budget),
            SolverOptions::default(),
        );
        let frugal_solution = frugal.solve(&graph).unwrap();
        assert_ne!(frugal.last_choice(), Some(AlgorithmKind::Bfs));
        assert_eq!(frugal_solution.paths.len(), expected.len());

        // An unsatisfiable budget surfaces as an error through solve().
        let mut impossible = AutoSolver::new(
            StableClusterSpec::FullPaths,
            3,
            Some(1),
            SolverOptions::default(),
        );
        assert!(matches!(
            impossible.solve(&graph).unwrap_err(),
            BscError::InvalidConfig(_)
        ));
    }
}
