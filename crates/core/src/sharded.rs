//! Sharded interval solving: the windowed executor on local threads.
//!
//! [`ShardedSolver`] is the "local placement, `shards` ranges, no memo"
//! configuration of the crate's one windowed executor (`windowed.rs`).
//! `docs/sharding.md` states the start-interval decomposition, why the
//! merged [`Solution`] is **byte-identical** to the unsharded solve for
//! every shard count, and how threads, cancellation and stats behave. Two
//! properties are worth repeating for callers of this type:
//!
//! * each window is an `(l + 1)`-interval view of the graph, read in place,
//!   so *every* exact-length query becomes a full-path query inside its
//!   window — even the TA adaptation (full paths only) serves subpath
//!   queries when sharded;
//! * each inner solver provisions its own
//!   [`StorageSpec`](bsc_storage::backend::StorageSpec)-selected backend, so
//!   shards never share mutable storage and the working set per shard
//!   shrinks with the shard count.

use crate::cluster_graph::GraphView;
use crate::error::BscResult;
use crate::problem::StableClusterSpec;
use crate::solver::{AlgorithmKind, Solution, SolverOptions, StableClusterSolver};
use crate::windowed::{PathLength, Windowed};

/// A solver that partitions the interval axis into shards, delegates each
/// shard to an inner algorithm, and merges the per-shard solutions.
///
/// Constructed directly or through
/// [`AlgorithmKind::build_with_options`] whenever
/// [`SolverOptions::shards`] is greater than one.
#[derive(Debug, Clone)]
pub struct ShardedSolver {
    inner: AlgorithmKind,
    length: PathLength,
    k: usize,
    options: SolverOptions,
}

impl ShardedSolver {
    /// Create a sharded solver running `inner` per shard.
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
        })
    }
}

impl StableClusterSolver for ShardedSolver {
    fn name(&self) -> &'static str {
        "sharded"
    }

    fn algorithm(&self) -> AlgorithmKind {
        self.inner
    }

    fn solve_view(&mut self, view: GraphView<'_>) -> BscResult<Solution> {
        let windowed = Windowed::new(view, self.length, self.k, self.inner, &self.options, None);
        Ok(windowed.run()?.solution)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster_graph::ClusterGraph;
    use crate::path::ClusterPath;
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
        let empty = crate::cluster_graph::ClusterGraphBuilder::new(0).build();
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
}
