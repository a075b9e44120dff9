//! Multi-process shard fan-out for the stable-cluster engine.
//!
//! [`bsc_core::sharded::ShardedSolver`] decomposes a top-k stable-cluster
//! query into per-start *window* solves, run on local threads or through a
//! [`bsc_core::distributed::ShardTransport`]. This crate is that transport:
//! the coordinator's solver forms one range of starts per worker and fans
//! the window solves out to TCP worker **processes** over the same
//! line-delimited canonical-JSON protocol style as `bsc serve`.
//!
//! The three modules mirror the three halves of that story:
//!
//! - [`wire`] — framing and codecs: one canonical-JSON object per line,
//!   graphs and paths round-tripped bit-exactly (`f64::to_bits` hex),
//!   protocol versioning.
//! - [`worker`] — [`worker::WorkerServer`], the process that owns no graph
//!   until a coordinator installs one (per connection, keyed by the
//!   coordinator's graph id) and then answers `solve_window` requests by
//!   calling the *same* [`bsc_core::distributed::solve_window_locally`] the
//!   solver's local threads use. Byte-identical output is structural, not
//!   tested into existence.
//! - [`client`] — [`client::ClusterClient`], the coordinator-side
//!   [`bsc_core::distributed::ShardTransport`]: pooled connections, lazy
//!   graph distribution keyed by each graph value's process-unique id (the
//!   `epoch` of a [`bsc_core::distributed::WindowRequest`], so two graphs
//!   never share a worker's copy, whichever engines asked),
//!   preferred-worker dispatch with round-robin failover, bounded retry
//!   passes with deterministic backoff, per-worker RPC latency histograms.
//!
//! # Wiring it up
//!
//! `bsc-core` cannot depend on this crate, so the transport is injected:
//! call [`install_transport`] once at startup (the `bsc` binary does) and
//! every solver built with [`bsc_core::solver::SolverOptions::fanout`]
//! set (a `ShardedSolver` over the transport; so does every
//! [`bsc_core::pipeline::PipelineParams`] with `fanout` set) dispatches
//! through a pooled [`client::ClusterClient`] for that worker set.
//!
//! ```no_run
//! use bsc_core::distributed::FanoutSpec;
//! use bsc_core::pipeline::PipelineParams;
//!
//! bsc_cluster::install_transport();
//! let params = PipelineParams::default()
//!     .fanout(FanoutSpec::parse("127.0.0.1:4401,127.0.0.1:4402"));
//! ```
//!
//! See `docs/distributed.md` for topology, message flow, and failure
//! semantics.

#![forbid(unsafe_code)]

pub mod client;
pub mod wire;
pub mod worker;

use std::sync::{Arc, Mutex, OnceLock};

use bsc_core::distributed::{FanoutSpec, ShardTransport};
use bsc_core::error::BscResult;

pub use client::{ClientConfig, ClusterClient, WorkerHealth};
pub use wire::PROTOCOL_VERSION;
pub use worker::{WorkerConfig, WorkerHandle, WorkerServer};

/// Pool of one [`ClusterClient`] per distinct worker set, so every query
/// against the same fan-out spec shares connections, cooldowns, and
/// latency histograms. A linear scan is fine: a process talks to a
/// handful of worker sets, not thousands.
type ClientPool = Mutex<Vec<(FanoutSpec, Arc<ClusterClient>)>>;
static CLIENT_POOL: OnceLock<ClientPool> = OnceLock::new();

/// Get (or create) the pooled client for a worker set.
pub fn client_for(spec: &FanoutSpec) -> Arc<ClusterClient> {
    let pool = CLIENT_POOL.get_or_init(|| Mutex::new(Vec::new()));
    let mut pool = pool.lock().unwrap_or_else(|p| p.into_inner());
    if let Some((_, client)) = pool.iter().find(|(s, _)| s == spec) {
        return Arc::clone(client);
    }
    let client = Arc::new(ClusterClient::new(spec.clone(), ClientConfig::default()));
    pool.push((spec.clone(), Arc::clone(&client)));
    client
}

/// Register the TCP transport with `bsc-core`'s fan-out seam. Idempotent;
/// returns whether this call installed the factory (false when one — this
/// one or another — was already registered).
///
/// After this, `SolverOptions::fanout(Some(spec))` and
/// `PipelineParams::fanout(Some(spec))` route window solves to the spec's
/// workers.
pub fn install_transport() -> bool {
    bsc_core::distributed::register_transport_factory(Box::new(
        |spec: &FanoutSpec| -> BscResult<Arc<dyn ShardTransport>> {
            Ok(client_for(spec) as Arc<dyn ShardTransport>)
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_pool_hands_back_the_same_client_for_the_same_spec() {
        let spec = FanoutSpec::parse("127.0.0.1:19231").unwrap();
        let a = client_for(&spec);
        let b = client_for(&spec);
        assert!(Arc::ptr_eq(&a, &b));
        let other = FanoutSpec::parse("127.0.0.1:19232").unwrap();
        let c = client_for(&other);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn install_transport_is_idempotent() {
        // First call may or may not win the registry (another test can get
        // there first); the second call definitely reports already-set.
        let _ = install_transport();
        assert!(!install_transport());
    }
}
