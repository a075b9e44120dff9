//! # bsc-storage
//!
//! External-memory substrate for the blogstable workspace.
//!
//! The algorithms of *"Seeking Stable Clusters in the Blogosphere"* (Bansal
//! et al., VLDB 2007) are explicitly designed to be "efficiently realizable in
//! secondary storage": keyword pairs are produced by a single pass over the
//! posts and aggregated with an **external merge sort**, the biconnected
//! component algorithm keeps only a **stack** in memory (paged to disk if it
//! grows too large), and the DFS stable-cluster algorithm keeps per-node state
//! (heaps of best paths, `maxweight` entries) **on disk**, touching it with
//! random reads and writes. All three reach disk the same way: as keyed
//! records in a [`NodeStore`] over a [`StorageBackend`], so every byte this
//! workspace's libraries write is a `tag | key | value` log frame.
//!
//! This crate provides those primitives:
//!
//! * [`io_stats`] — process-wide I/O accounting so experiments can report read
//!   and write operations (the paper disables the OS page cache to measure
//!   I/O; we count explicit operations instead).
//! * [`codec`] — a compact, dependency-free binary encoding used by every
//!   on-disk record.
//! * [`backend`] — the pluggable [`StorageBackend`] trait with its shipped
//!   implementations (append-only log file, plain memory, budget-bounded
//!   block cache) and the [`StorageSpec`] deployment selector.
//! * [`fault`] — a deterministic fault-injecting decorator over any backend
//!   (seeded I/O errors and torn writes), for robustness conformance tests.
//! * [`node_store`] — the typed keyed record store over any backend, used for
//!   the disk-resident algorithms' per-node state and for both spills below.
//! * [`external_sort`] — bounded-memory external merge sort whose runs are
//!   pages in a [`NodeStore`].
//! * [`paged_stack`] — a stack whose cold bottom spills to a [`NodeStore`].
//! * [`temp`] — scoped temporary directories for the file-backed backends.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod codec;
pub mod external_sort;
pub mod fault;
pub mod io_stats;
pub mod node_store;
pub mod paged_stack;
pub mod temp;

pub use backend::{
    BlockCacheBackend, FaultInner, InMemoryBackend, LogFileBackend, StorageBackend, StorageSpec,
};
pub use codec::{Decode, Encode};
pub use external_sort::{ExternalSorter, SortConfig};
pub use fault::FaultInjectingBackend;
pub use io_stats::{IoScope, IoSnapshot, IoStats};
pub use node_store::NodeStore;
pub use paged_stack::PagedStack;
pub use temp::TempDir;

/// Errors produced by the storage substrate.
#[derive(Debug)]
pub enum StorageError {
    /// An underlying I/O error.
    Io(std::io::Error),
    /// A record could not be decoded from its on-disk representation.
    Corrupt(String),
    /// A key was not present in a keyed store.
    MissingKey(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
            StorageError::Corrupt(msg) => write!(f, "corrupt record: {msg}"),
            StorageError::MissingKey(k) => write!(f, "missing key: {k}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl From<StorageError> for std::io::Error {
    fn from(e: StorageError) -> Self {
        match e {
            // Unwrap rather than nest: the original error kind survives.
            StorageError::Io(io) => io,
            other => std::io::Error::other(other),
        }
    }
}

/// Convenience result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_error_converts_into_io_error_and_back() {
        // Io unwraps to the original error, preserving its kind.
        let io: std::io::Error =
            StorageError::Io(std::io::Error::new(std::io::ErrorKind::NotFound, "gone")).into();
        assert_eq!(io.kind(), std::io::ErrorKind::NotFound);
        // Non-Io variants wrap, keeping the message and source chain.
        let io: std::io::Error = StorageError::Corrupt("truncated frame".into()).into();
        assert!(io.to_string().contains("truncated frame"));
        assert!(io.get_ref().is_some(), "source must be preserved");
        let back: StorageError = std::io::Error::other("boom").into();
        assert!(matches!(back, StorageError::Io(_)));
    }
}
