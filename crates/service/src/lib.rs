//! # bsc-service
//!
//! The long-lived stable-cluster query service: the piece that turns the
//! one-shot solvers of [`bsc_core`] into an engine that serves many queries
//! over a resident, continuously refreshed cluster graph — the shape the
//! paper's online workload (and millions-of-users traffic) actually has.
//!
//! Three layers:
//!
//! * [`engine::QueryEngine`] — a fixed thread-pool executor over
//!   [`GraphSnapshot`](bsc_core::snapshot::GraphSnapshot)s: bounded
//!   two-lane admission ([`admission::AdmissionQueue`]; back-pressure via
//!   [`BscError::Saturated`], per-tenant token-bucket quotas and priority
//!   lanes with a starvation bound), per-query
//!   [`SolverOptions`](bsc_core::solver::SolverOptions), any
//!   [`AlgorithmKind`](bsc_core::solver::AlgorithmKind) (including `Auto`
//!   and sharded), and an epoch-tagged LRU [`cache::SolutionCache`]
//!   invalidated on snapshot swap — the one memo for repeated queries
//!   (`--cache 0` solves every query). Every answer is byte-identical to
//!   the one-shot `Pipeline::run` on the same graph.
//! * [`protocol`] — the std-only line-delimited JSON protocol (shared JSON
//!   implementation: [`bsc_util::json`]).
//! * [`session::Session`] — the stateful loop behind the `bsc serve`
//!   binary, with a reference **oracle** executor whose transcripts must be
//!   byte-identical to the engine's (CI diffs them).
//!
//! ```
//! use bsc_core::problem::StableClusterSpec;
//! use bsc_core::solver::AlgorithmKind;
//! use bsc_core::synthetic::{ClusterGraphGenerator, SyntheticGraphParams};
//! use bsc_service::engine::{EngineConfig, QueryEngine, QueryRequest};
//!
//! let engine = QueryEngine::new(EngineConfig::default().workers(2)).unwrap();
//! let graph = ClusterGraphGenerator::new(SyntheticGraphParams {
//!     num_intervals: 5,
//!     nodes_per_interval: 10,
//!     avg_out_degree: 3,
//!     gap: 1,
//!     seed: 7,
//! })
//! .generate();
//! engine.install_graph(graph);
//!
//! let response = engine
//!     .query(QueryRequest::new(
//!         AlgorithmKind::Bfs,
//!         StableClusterSpec::ExactLength(2),
//!         5,
//!     ))
//!     .unwrap();
//! assert_eq!(response.epoch, 1);
//! assert!(!response.solution.paths.is_empty());
//! ```
//!
//! [`BscError::Saturated`]: bsc_core::error::BscError::Saturated

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod engine;
pub mod protocol;
pub mod session;

pub use admission::AdmissionQueue;
pub use cache::{CacheStats, SolutionCache};
pub use engine::{
    EngineConfig, EngineStats, QueryEngine, QueryRequest, QueryResponse, QueryTicket, TenantQuota,
    TenantStats,
};
pub use session::Session;
