//! # bsc-core
//!
//! Stable clusters in temporal text streams — the primary contribution of
//! *"Seeking Stable Clusters in the Blogosphere"* (Bansal, Chiang, Koudas,
//! Tompa; VLDB 2007).
//!
//! Given per-interval keyword clusters (produced by [`bsc_graph`]), this
//! crate builds the **cluster graph** — nodes are clusters, edges connect
//! clusters of nearby intervals whose keyword sets have affinity above a
//! threshold θ, possibly skipping up to `g` intervals (gaps) — and solves:
//!
//! * **Problem 1 (kl-stable clusters):** the `k` highest-weight paths of
//!   length exactly `l`, via three algorithms: [`bfs`] (Algorithm 2),
//!   [`dfs`] (Algorithm 3, disk-resident per-node state) and [`ta`] (an
//!   adaptation of the Threshold Algorithm, full paths only);
//! * **Problem 2 (normalized stable clusters):** the `k` paths of length at
//!   least `l_min` with the highest weight/length ratio ([`normalized`]);
//! * the **online** versions of the above that ingest one interval at a time
//!   ([`streaming`]).
//!
//! ## The solver seam
//!
//! All batch algorithms implement one object-safe trait,
//! [`solver::StableClusterSolver`]: construct a solver from an
//! [`solver::AlgorithmKind`] and a [`problem::StableClusterSpec`], call
//! `solve`, and get a [`solver::Solution`] with the result paths, unified
//! [`solver::SolverStats`] and the logical I/O performed. Fallible
//! operations report [`error::BscError`].
//!
//! ```
//! use bsc_core::problem::StableClusterSpec;
//! use bsc_core::solver::AlgorithmKind;
//! use bsc_core::synthetic::{ClusterGraphGenerator, SyntheticGraphParams};
//!
//! let graph = ClusterGraphGenerator::new(SyntheticGraphParams {
//!     num_intervals: 4,
//!     nodes_per_interval: 10,
//!     avg_out_degree: 3,
//!     gap: 0,
//!     seed: 7,
//! })
//! .generate();
//!
//! // Any algorithm behind the same trait object.
//! for kind in [AlgorithmKind::Bfs, AlgorithmKind::Dfs, AlgorithmKind::Ta] {
//!     let mut solver = kind
//!         .build(StableClusterSpec::FullPaths, 5, graph.num_intervals())
//!         .unwrap();
//!     let solution = solver.solve(&graph).unwrap();
//!     assert!(!solution.paths.is_empty());
//! }
//! ```
//!
//! The [`pipeline`] module chains everything together starting from raw
//! documents — with the same pluggable algorithm choice via
//! [`pipeline::PipelineParams::algorithm`] — and [`synthetic`] implements
//! the paper's synthetic cluster-graph workload generator used by the
//! evaluation section.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod affinity;
pub mod auto;
pub mod bfs;
pub mod cluster_graph;
pub mod delta;
pub mod dfs;
pub mod distributed;
pub mod error;
mod lookahead;
pub mod normalized;
pub mod path;
pub mod pipeline;
pub mod problem;
pub mod sharded;
pub mod snapshot;
pub mod solver;
pub mod streaming;
pub mod synthetic;
pub mod ta;
pub mod topk;

pub use affinity::{Affinity, AffinityKind, JaccardAffinity};
pub use auto::{choose_algorithm, AutoSolver, GraphShape};
pub use bfs::BfsStableClusters;
pub use bsc_storage::backend::StorageSpec;
pub use cluster_graph::{ClusterEdge, ClusterGraph, ClusterGraphBuilder, ClusterNodeId};
pub use delta::{solve_windows, Answer, DeltaSolveOutcome, GraphDelta};
pub use dfs::{DfsConfig, DfsStableClusters};
pub use distributed::{
    register_transport_factory, solve_window_locally, transport_for, FanoutSpec, ShardTransport,
    WindowRequest, WindowResult,
};
pub use error::{BscError, BscResult};
pub use normalized::NormalizedStableClusters;
pub use path::ClusterPath;
pub use pipeline::{GraphBuild, Pipeline, PipelineOutcome, PipelineParams};
pub use problem::{KlStableParams, NormalizedParams, StableClusterSpec};
pub use sharded::ShardedSolver;
pub use snapshot::{GraphSnapshot, SnapshotCell};
pub use solver::{
    AlgorithmKind, QueryPriority, Solution, SolverOptions, SolverStats, StableClusterSolver,
};
pub use streaming::{OnlineClusterFeed, OnlineStableClusters};
pub use synthetic::{ClusterGraphGenerator, SyntheticGraphParams};
pub use ta::TaStableClusters;
pub use topk::TopKPaths;
