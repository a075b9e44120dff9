//! # bsc-util
//!
//! Dependency-free utilities shared across the blogstable workspace.
//!
//! The workspace builds in hermetic environments with no access to a crate
//! registry, so the handful of things one would normally pull from small
//! external crates live here instead:
//!
//! * [`DetRng`] — a fast, seedable, deterministic pseudo-random number
//!   generator used by the synthetic workload generators, the randomized
//!   test suites and the CC-Pivot baseline;
//! * [`json`] — a zero-dependency JSON value type with parser and canonical
//!   serializer, shared by the bench documents (`repro --json`, the CI
//!   bench gate) and the `bsc serve` line protocol;
//! * [`histogram`] — a fixed-bucket latency histogram used by the query
//!   engine's stats endpoint and the `repro` experiment harness;
//! * [`cancel`] — a shared cooperative-cancellation token with optional
//!   deadline, polled by every solver's hot loop (see `docs/robustness.md`);
//! * [`pool`] — helper threads that outlive the call which first needs
//!   them, onto which a call posts chunks and steals back those not started
//!   (the sharded solver's shard threads, see `docs/sharding.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod histogram;
pub mod json;
pub mod pool;
pub mod rng;

pub use cancel::CancelToken;
pub use histogram::LatencyHistogram;
pub use json::JsonValue;
pub use pool::Pool;
pub use rng::DetRng;
