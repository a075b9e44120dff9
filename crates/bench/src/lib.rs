//! # bsc-bench
//!
//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (Section 5). Each experiment is a plain function returning a
//! [`report::Table`], so the same code backs the `repro` binary, the
//! integration tests and the micro-benches under `benches/`.
//!
//! Two scales are provided: [`Scale::Quick`] (minutes for the full suite,
//! used by default and by `cargo bench`) and [`Scale::Paper`] (the paper's
//! parameter ranges where feasible on a single machine).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod gate;
pub mod harness;
pub mod load;
pub mod reference;
pub mod report;
pub mod workloads;

pub use experiments::Scale;
pub use report::Table;
