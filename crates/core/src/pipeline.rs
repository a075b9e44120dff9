//! End-to-end pipeline: documents → per-interval clusters → cluster graph →
//! stable clusters.
//!
//! This module glues the two halves of the paper together the way the
//! qualitative evaluation (Section 5.3) does: for every temporal interval the
//! posts are reduced to keyword-pair counts, the keyword graph is pruned with
//! χ² and ρ, clusters are extracted as biconnected components, the cluster
//! graph is built with a chosen affinity function, gap and threshold θ, and
//! finally the stable clusters are reported.
//!
//! The final stage is pluggable: [`PipelineParams::algorithm`] selects any
//! [`AlgorithmKind`] — BFS, disk-resident DFS, the TA adaptation or the
//! normalized solver — and the pipeline drives it through the
//! [`StableClusterSolver`](crate::solver::StableClusterSolver) trait, so
//! every algorithm of the paper runs end-to-end from raw documents.
//! Parameters are validated when the [`Pipeline`] is constructed; a bad
//! configuration surfaces as [`BscError::InvalidConfig`] (or
//! [`BscError::Unsupported`] for an algorithm/spec mismatch) instead of
//! silent nonsense results.

use bsc_corpus::pairs::{PairCountConfig, PairCounter};
use bsc_corpus::synthetic::GeneratedCorpus;
use bsc_corpus::timeline::Timeline;
use bsc_corpus::vocabulary::Vocabulary;
use bsc_graph::cluster::{ClusterExtractor, KeywordCluster};
use bsc_graph::keyword_graph::KeywordGraphBuilder;
use bsc_graph::prune::{PruneConfig, PruneStats};
use bsc_storage::backend::StorageSpec;
use bsc_storage::io_stats::IoSnapshot;

use crate::affinity::AffinityKind;
use crate::cluster_graph::ClusterGraphBuilder;
use crate::error::{BscError, BscResult};
use crate::path::ClusterPath;
use crate::sharded::PathLength;
use crate::snapshot::GraphSnapshot;
use crate::solver::{AlgorithmKind, Solution, SolverOptions, SolverStats};

pub use crate::problem::StableClusterSpec;

/// Pipeline configuration. The defaults follow the paper's qualitative
/// evaluation: χ² > 3.84, ρ > 0.2, biconnected-component clusters, Jaccard
/// affinity with θ = 0.1, gap 2, daily intervals, BFS (Algorithm 2) as the
/// solver.
///
/// Build a configuration with the builder-style methods and hand it to
/// [`Pipeline::new`], which validates it:
///
/// ```
/// use bsc_core::pipeline::{Pipeline, PipelineParams};
/// use bsc_core::solver::AlgorithmKind;
///
/// let pipeline = Pipeline::new(
///     PipelineParams::default()
///         .exact_length(3)
///         .top_k(20)
///         .algorithm(AlgorithmKind::Dfs),
/// )
/// .expect("valid parameters");
/// # let _ = pipeline;
/// ```
#[derive(Debug, Clone)]
pub struct PipelineParams {
    /// Keyword-pair counting strategy.
    pub pair_counting: PairCountConfig,
    /// χ²/ρ pruning thresholds.
    pub prune: PruneConfig,
    /// Cluster extraction mode and minimum size.
    pub extractor: ClusterExtractor,
    /// Affinity function for the cluster graph.
    pub affinity: AffinityKind,
    /// Affinity threshold θ.
    pub theta: f64,
    /// Maximum gap `g`.
    pub gap: u32,
    /// Number of stable clusters to report.
    pub k: usize,
    /// Which problem to solve.
    pub spec: StableClusterSpec,
    /// Which algorithm solves it. `None` (the default) derives the
    /// algorithm from the spec — BFS for Problem 1, the normalized solver
    /// for Problem 2 — so the spec-setting builder methods compose in any
    /// order. An explicit choice is never overridden; an explicit mismatch
    /// (e.g. the normalized solver for a Problem 1 spec) fails validation.
    pub algorithm: Option<AlgorithmKind>,
    /// How the solver stage runs: the storage backend of DFS's per-node
    /// state (`docs/storage.md`), interval shards and distributed fan-out
    /// (`docs/sharding.md`, `docs/distributed.md`; Problem 1 specs only) and
    /// a cancellation token (`docs/robustness.md`). Set through the builder
    /// methods below and handed to
    /// [`AlgorithmKind::build_with_options`] as is; no option changes the
    /// result.
    pub options: SolverOptions,
}

impl Default for PipelineParams {
    fn default() -> Self {
        PipelineParams {
            pair_counting: PairCountConfig::default(),
            prune: PruneConfig::paper(),
            extractor: ClusterExtractor::default(),
            affinity: AffinityKind::Jaccard,
            theta: 0.1,
            gap: 2,
            k: 10,
            spec: StableClusterSpec::ExactLength(3),
            algorithm: None,
            options: SolverOptions::default(),
        }
    }
}

impl PipelineParams {
    /// Request full-week (full-path) stable clusters.
    pub fn full_paths(mut self) -> Self {
        self.spec = StableClusterSpec::FullPaths;
        self
    }

    /// Request paths of an exact length.
    pub fn exact_length(mut self, l: u32) -> Self {
        self.spec = StableClusterSpec::ExactLength(l);
        self
    }

    /// Request normalized stable clusters. With no explicit algorithm
    /// choice the normalized solver (the only algorithm that answers
    /// Problem 2) is derived automatically.
    pub fn normalized(mut self, l_min: u32) -> Self {
        self.spec = StableClusterSpec::Normalized { l_min };
        self
    }

    /// Select the solving algorithm explicitly. Without this call the
    /// algorithm is derived from the spec (BFS for Problem 1, the
    /// normalized solver for Problem 2).
    pub fn algorithm(mut self, algorithm: AlgorithmKind) -> Self {
        self.algorithm = Some(algorithm);
        self
    }

    /// The algorithm that will run: the explicit choice if one was made,
    /// otherwise derived from the spec.
    pub fn resolved_algorithm(&self) -> AlgorithmKind {
        self.algorithm.unwrap_or(match self.spec {
            StableClusterSpec::Normalized { .. } => AlgorithmKind::Normalized,
            _ => AlgorithmKind::Bfs,
        })
    }

    /// Set the affinity threshold θ.
    pub fn theta(mut self, theta: f64) -> Self {
        self.theta = theta;
        self
    }

    /// Set the maximum gap `g`.
    pub fn gap(mut self, gap: u32) -> Self {
        self.gap = gap;
        self
    }

    /// Set the number of stable clusters to report.
    pub fn top_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Set the storage backend for the solver stage's disk-resident state.
    pub fn storage(mut self, storage: StorageSpec) -> Self {
        self.options.storage = storage;
        self
    }

    /// Set the solver-stage interval shard count (1 = unsharded).
    pub fn shards(mut self, shards: usize) -> Self {
        self.options.shards = shards;
        self
    }

    /// Set (or clear) the solver-stage distributed fan-out worker set.
    pub fn fanout(mut self, fanout: Option<crate::distributed::FanoutSpec>) -> Self {
        self.options.fanout = fanout;
        self
    }

    /// Attach (or clear) a cooperative-cancellation token for the solver
    /// stage.
    pub fn cancel_token(mut self, cancel: Option<bsc_util::cancel::CancelToken>) -> Self {
        self.options.cancel = cancel;
        self
    }

    /// Give the solver stage a deadline budget from now (`None` clears it).
    /// An exhausted budget surfaces as [`BscError::DeadlineExceeded`].
    pub fn deadline(self, budget: Option<std::time::Duration>) -> Self {
        self.cancel_token(budget.map(bsc_util::cancel::CancelToken::after))
    }

    /// Check the configuration, returning [`BscError::InvalidConfig`] for
    /// out-of-range parameters and [`BscError::Unsupported`] for an
    /// algorithm/spec mismatch.
    pub fn validate(&self) -> BscResult<()> {
        if !(0.0..=1.0).contains(&self.theta) || self.theta.is_nan() {
            return Err(BscError::InvalidConfig(format!(
                "theta must lie in [0, 1], got {}",
                self.theta
            )));
        }
        if self.k == 0 {
            return Err(BscError::InvalidConfig(
                "k must be positive: a top-0 query returns nothing".into(),
            ));
        }
        if self.options.shards == 0 {
            return Err(BscError::InvalidConfig(
                "shards must be >= 1 (1 = unsharded)".into(),
            ));
        }
        if self.options.shards > 1 {
            PathLength::of(self.spec, "sharded")?;
        }
        if self.options.fanout.is_some() {
            PathLength::of(self.spec, "distributed")?;
        }
        // The spec's own rules and the algorithm/spec pairing live in one
        // place; TA's full-paths-only restriction depends on the graph's
        // interval count, which is unknown until the run, and is checked
        // there by `build`.
        self.resolved_algorithm().check_spec(self.spec)
    }
}

/// The construction half of a pipeline run: per-interval clusters, pruning
/// statistics and the built cluster graph published as an epoch-0
/// [`GraphSnapshot`]. Produced by [`Pipeline::build_snapshot`]; any number
/// of queries can then run against the snapshot through
/// [`Pipeline::solve_snapshot`] (or a long-lived query engine) without
/// rebuilding the graph.
#[derive(Debug, Clone)]
pub struct GraphBuild {
    /// Clusters discovered for every interval.
    pub interval_clusters: Vec<Vec<KeywordCluster>>,
    /// χ²/ρ pruning statistics per interval.
    pub prune_stats: Vec<PruneStats>,
    /// The cluster graph built across intervals, shared and epoch-tagged.
    pub snapshot: GraphSnapshot,
}

/// Everything the pipeline produces.
#[derive(Debug, Clone)]
pub struct PipelineOutcome {
    /// Clusters discovered for every interval.
    pub interval_clusters: Vec<Vec<KeywordCluster>>,
    /// χ²/ρ pruning statistics per interval.
    pub prune_stats: Vec<PruneStats>,
    /// The cluster graph built across intervals, as a shareable
    /// [`GraphSnapshot`] (dereferences to [`ClusterGraph`], so existing
    /// `outcome.cluster_graph.num_edges()`-style call sites are unchanged;
    /// clone it to hand the same graph to a query engine without copying).
    ///
    /// [`ClusterGraph`]: crate::cluster_graph::ClusterGraph
    pub cluster_graph: GraphSnapshot,
    /// The stable clusters (paths) found, best first.
    pub stable_paths: Vec<ClusterPath>,
    /// Unified execution statistics of the solver stage.
    pub solver_stats: SolverStats,
    /// Logical I/O performed by the solver stage.
    pub solver_io: IoSnapshot,
}

impl PipelineOutcome {
    /// Total number of clusters across all intervals.
    pub fn total_clusters(&self) -> usize {
        self.interval_clusters.iter().map(Vec::len).sum()
    }

    /// Render a stable path as one keyword set per hop, using `vocabulary`.
    pub fn describe_path(&self, path: &ClusterPath, vocabulary: &Vocabulary) -> Vec<String> {
        path.nodes()
            .iter()
            .map(|node| {
                let cluster = &self.interval_clusters[node.interval as usize][node.index as usize];
                format!("t{}: {}", node.interval, cluster.render(vocabulary))
            })
            .collect()
    }

    /// The cluster behind a path node.
    pub fn cluster_at(&self, node: crate::cluster_graph::ClusterNodeId) -> &KeywordCluster {
        &self.interval_clusters[node.interval as usize][node.index as usize]
    }
}

/// The end-to-end pipeline.
#[derive(Debug, Clone)]
pub struct Pipeline {
    params: PipelineParams,
}

impl Pipeline {
    /// Create a pipeline, validating the parameters.
    pub fn new(params: PipelineParams) -> BscResult<Self> {
        params.validate()?;
        Ok(Pipeline { params })
    }

    /// The configured parameters.
    pub fn params(&self) -> &PipelineParams {
        &self.params
    }

    /// Run on a generated corpus (convenience wrapper over
    /// [`Pipeline::run_timeline`] that additionally attaches the corpus
    /// vocabulary to the produced snapshot, so paths can be rendered back
    /// to keywords from the snapshot alone).
    pub fn run(&self, corpus: &GeneratedCorpus) -> BscResult<PipelineOutcome> {
        let build = self.build_snapshot(&corpus.timeline)?;
        let build = GraphBuild {
            snapshot: build.snapshot.with_vocabulary(corpus.shared_vocabulary()),
            ..build
        };
        self.finish(build)
    }

    /// Run on an arbitrary timeline of documents.
    pub fn run_timeline(&self, timeline: &Timeline) -> BscResult<PipelineOutcome> {
        self.finish(self.build_snapshot(timeline)?)
    }

    /// The construction half: documents → per-interval clusters → cluster
    /// graph, published as an epoch-0 [`GraphSnapshot`]. No solving
    /// happens; hand the snapshot to [`Pipeline::solve_snapshot`], a query
    /// engine, or a [`SnapshotCell`](crate::snapshot::SnapshotCell).
    pub fn build_snapshot(&self, timeline: &Timeline) -> BscResult<GraphBuild> {
        let params = &self.params;
        let counter = PairCounter::with_config(params.pair_counting.clone());
        let mut interval_clusters = Vec::with_capacity(timeline.num_intervals());
        let mut prune_stats = Vec::with_capacity(timeline.num_intervals());

        for (interval, documents) in timeline.iter() {
            let counts = counter
                .count(documents)
                .map_err(|e| BscError::Corpus(format!("pair counting failed: {e}")))?;
            let keyword_graph = KeywordGraphBuilder::from_pair_counts(&counts);
            let (pruned, stats) = params.prune.prune(&keyword_graph);
            let clusters = params.extractor.extract(&pruned, interval)?;
            interval_clusters.push(clusters);
            prune_stats.push(stats);
        }

        let affinity = params.affinity.build();
        let cluster_graph = ClusterGraphBuilder::from_clusters(
            &interval_clusters,
            affinity.as_ref(),
            params.gap,
            params.theta,
        );

        Ok(GraphBuild {
            interval_clusters,
            prune_stats,
            snapshot: GraphSnapshot::new(cluster_graph),
        })
    }

    /// The query half: run the configured solver against an existing
    /// snapshot, borrowing its graph. The returned [`Solution`] is
    /// byte-identical to what a full [`Pipeline::run_timeline`] over the
    /// same documents would report — the split changes where the graph
    /// lives, never the answer.
    pub fn solve_snapshot(&self, snapshot: &GraphSnapshot) -> BscResult<Solution> {
        let params = &self.params;
        crate::solver::check_not_expired(params.options.cancel.as_ref())?;
        let mut solver = params.resolved_algorithm().build_with_options(
            params.spec,
            params.k,
            snapshot.num_intervals(),
            params.options.clone(),
        )?;
        solver.solve(snapshot.graph())
    }

    /// Assemble an outcome from a finished build plus a solve against it.
    fn finish(&self, build: GraphBuild) -> BscResult<PipelineOutcome> {
        let solution = self.solve_snapshot(&build.snapshot)?;
        Ok(PipelineOutcome {
            interval_clusters: build.interval_clusters,
            prune_stats: build.prune_stats,
            cluster_graph: build.snapshot,
            stable_paths: solution.paths,
            solver_stats: solution.stats,
            solver_io: solution.io,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsc_corpus::synthetic::{SyntheticBlogosphere, SyntheticConfig};

    fn small_corpus() -> GeneratedCorpus {
        SyntheticBlogosphere::new(SyntheticConfig::small()).generate()
    }

    fn run(params: PipelineParams) -> PipelineOutcome {
        Pipeline::new(params)
            .expect("valid params")
            .run(&small_corpus())
            .expect("pipeline run")
    }

    #[test]
    fn end_to_end_produces_clusters_and_paths() {
        let outcome = run(PipelineParams::default().exact_length(2));
        assert_eq!(outcome.interval_clusters.len(), 7);
        assert!(outcome.total_clusters() > 0, "no clusters discovered");
        assert!(
            outcome.cluster_graph.num_edges() > 0,
            "no cluster-graph edges"
        );
        assert!(!outcome.stable_paths.is_empty(), "no stable paths");
        for path in &outcome.stable_paths {
            assert_eq!(path.length(), 2);
        }
        assert!(outcome.solver_stats.paths_generated > 0);
    }

    #[test]
    fn every_algorithm_runs_end_to_end() {
        let corpus = small_corpus();
        let mut lengths = Vec::new();
        for kind in AlgorithmKind::ALL {
            let params = match kind {
                AlgorithmKind::Normalized => PipelineParams::default().normalized(2),
                _ => PipelineParams::default().full_paths().algorithm(kind),
            };
            let outcome = Pipeline::new(params)
                .expect("valid params")
                .run(&corpus)
                .unwrap_or_else(|e| panic!("{kind} failed: {e}"));
            lengths.push((kind, outcome.stable_paths.len()));
        }
        // The three Problem 1 solvers must agree on the result count.
        let full_path_counts: Vec<usize> = lengths
            .iter()
            .filter(|(k, _)| *k != AlgorithmKind::Normalized)
            .map(|&(_, n)| n)
            .collect();
        assert!(
            full_path_counts.windows(2).all(|w| w[0] == w[1]),
            "{lengths:?}"
        );
    }

    #[test]
    fn discovers_the_scripted_somalia_event_cluster() {
        let corpus = small_corpus();
        let outcome = Pipeline::new(PipelineParams::default().exact_length(2))
            .expect("valid params")
            .run(&corpus)
            .unwrap();
        let somalia = corpus.vocabulary.get("somalia").expect("keyword interned");
        let islamist = corpus.vocabulary.get("islamist").expect("keyword interned");
        let found = outcome
            .interval_clusters
            .iter()
            .flatten()
            .any(|c| c.contains(somalia) && c.contains(islamist));
        assert!(
            found,
            "expected a cluster containing the Somalia event keywords"
        );
    }

    #[test]
    fn describe_path_renders_keywords() {
        let corpus = small_corpus();
        let outcome = Pipeline::new(PipelineParams::default().exact_length(2))
            .expect("valid params")
            .run(&corpus)
            .unwrap();
        let path = &outcome.stable_paths[0];
        let description = outcome.describe_path(path, &corpus.vocabulary);
        assert_eq!(description.len(), path.num_nodes());
        assert!(description[0].starts_with(&format!("t{}", path.first().interval)));
    }

    #[test]
    fn every_storage_backend_yields_identical_stable_paths() {
        // DFS is the disk-resident solver: the backend choice must never
        // change the answer, only where the per-node state lives.
        let corpus = small_corpus();
        let mut baseline: Option<Vec<crate::path::ClusterPath>> = None;
        for spec in StorageSpec::ALL {
            let outcome = Pipeline::new(
                PipelineParams::default()
                    .exact_length(2)
                    .algorithm(AlgorithmKind::Dfs)
                    .storage(spec),
            )
            .expect("valid params")
            .run(&corpus)
            .unwrap();
            match &baseline {
                None => baseline = Some(outcome.stable_paths),
                Some(expected) => {
                    assert_eq!(expected.len(), outcome.stable_paths.len(), "{spec}");
                    for (a, b) in expected.iter().zip(outcome.stable_paths.iter()) {
                        assert_eq!(a.nodes(), b.nodes(), "{spec}");
                        assert_eq!(a.weight().to_bits(), b.weight().to_bits(), "{spec}");
                    }
                }
            }
        }
    }

    #[test]
    fn normalized_spec_runs() {
        let outcome = run(PipelineParams::default().normalized(2));
        for path in &outcome.stable_paths {
            assert!(path.length() >= 2);
        }
    }

    #[test]
    fn prune_stats_are_reported_per_interval() {
        let outcome = run(PipelineParams::default());
        assert_eq!(outcome.prune_stats.len(), 7);
        assert!(outcome.prune_stats.iter().any(|s| s.input_edges > 0));
        for stats in &outcome.prune_stats {
            assert_eq!(
                stats.surviving_edges
                    + stats.dropped_by_chi_square
                    + stats.dropped_by_rho
                    + stats.dropped_by_count,
                stats.input_edges
            );
        }
    }

    #[test]
    fn spec_builder_methods_compose_in_any_order() {
        // With no explicit algorithm choice the solver follows the final
        // spec, whatever order the builder methods ran in.
        let params = PipelineParams::default().normalized(2).exact_length(3);
        assert_eq!(params.resolved_algorithm(), AlgorithmKind::Bfs);
        assert!(Pipeline::new(params).is_ok());
        let params = PipelineParams::default().exact_length(3).normalized(2);
        assert_eq!(params.resolved_algorithm(), AlgorithmKind::Normalized);
        assert!(Pipeline::new(params).is_ok());
        // An explicit choice survives spec changes...
        let params = PipelineParams::default()
            .algorithm(AlgorithmKind::Dfs)
            .exact_length(3);
        assert_eq!(params.resolved_algorithm(), AlgorithmKind::Dfs);
        // ...and an explicit choice is never silently replaced: a mismatch
        // fails validation instead.
        let params = PipelineParams::default()
            .algorithm(AlgorithmKind::Normalized)
            .exact_length(3);
        assert!(matches!(
            Pipeline::new(params).unwrap_err(),
            BscError::Unsupported { .. }
        ));
    }

    #[test]
    fn validation_rejects_bad_theta() {
        for theta in [-0.1, 1.5, f64::NAN] {
            let err = Pipeline::new(PipelineParams::default().theta(theta)).unwrap_err();
            assert!(matches!(err, BscError::InvalidConfig(_)), "theta={theta}");
        }
    }

    #[test]
    fn validation_rejects_zero_k_and_zero_lengths() {
        assert!(matches!(
            Pipeline::new(PipelineParams::default().top_k(0)).unwrap_err(),
            BscError::InvalidConfig(_)
        ));
        assert!(matches!(
            Pipeline::new(PipelineParams::default().exact_length(0)).unwrap_err(),
            BscError::InvalidConfig(_)
        ));
        assert!(matches!(
            Pipeline::new(PipelineParams::default().normalized(0)).unwrap_err(),
            BscError::InvalidConfig(_)
        ));
    }

    #[test]
    fn validation_rejects_algorithm_spec_mismatch() {
        // Normalized solver asked for Problem 1.
        let params = PipelineParams::default()
            .exact_length(2)
            .algorithm(AlgorithmKind::Normalized);
        assert!(matches!(
            Pipeline::new(params).unwrap_err(),
            BscError::Unsupported { .. }
        ));
        // Problem 2 asked of a Problem 1 solver.
        let mut params = PipelineParams::default().normalized(2);
        params.algorithm = Some(AlgorithmKind::Bfs);
        assert!(matches!(
            Pipeline::new(params).unwrap_err(),
            BscError::Unsupported { .. }
        ));
    }

    #[test]
    fn ta_with_short_exact_length_fails_at_run_time() {
        // TA only materializes full paths; with 7 intervals ExactLength(2)
        // cannot be satisfied, and the pipeline reports it as Unsupported.
        let params = PipelineParams::default()
            .exact_length(2)
            .algorithm(AlgorithmKind::Ta);
        let err = Pipeline::new(params)
            .expect("statically valid")
            .run(&small_corpus())
            .unwrap_err();
        assert!(matches!(
            err,
            BscError::Unsupported {
                algorithm: "ta",
                ..
            }
        ));
    }
}
