//! Graph snapshots: shared, epoch-tagged, immutable views of a
//! [`ClusterGraph`].
//!
//! The paper's workload is online — stable clusters are queried continuously
//! as new blog intervals arrive — so a long-lived engine cannot let each
//! query own its graph. A [`GraphSnapshot`] is the sharing unit: an
//! `Arc<ClusterGraph>` (cheap to clone, immutable once published) tagged
//! with an **epoch** and optionally carrying the [`Vocabulary`] the graph's
//! clusters were interned against, so results can be rendered back to
//! keywords without replumbing the corpus.
//!
//! [`SnapshotCell`] is the publication point: one writer (the ingest path)
//! swaps in a new snapshot while any number of in-flight queries keep
//! solving against the `Arc` they pinned at admission — the swap never
//! blocks them, and the monotonically increasing epoch gives caches an
//! exact invalidation signal ([`SnapshotCell::epoch`] is lock-free). This
//! is the resident-engine architecture of disk-based keyword search
//! (EMBANKS): build once, serve many queries, refresh by swapping. The cell
//! holds the resident snapshot and its epoch and nothing else: how two
//! epochs' graphs relate is read off the graphs themselves
//! ([`GraphDelta::between`](crate::delta::GraphDelta::between) — consecutive
//! epochs of a stream share their untouched segments), never remembered
//! here.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use bsc_corpus::vocabulary::Vocabulary;

use crate::cluster_graph::{ClusterGraph, GraphView};

/// An immutable, shareable view of a cluster graph at one point in time.
///
/// Cloning is `Arc`-cheap. Dereferences to [`ClusterGraph`], so every
/// borrowing API (`solver.solve(&snapshot)`, `snapshot.num_edges()`, …)
/// works on a snapshot unchanged.
#[derive(Debug, Clone)]
pub struct GraphSnapshot {
    graph: Arc<ClusterGraph>,
    epoch: u64,
    vocabulary: Option<Arc<Vocabulary>>,
}

impl GraphSnapshot {
    /// Wrap a graph as epoch-0 snapshot (publishing through a
    /// [`SnapshotCell`] re-tags the epoch).
    pub fn new(graph: ClusterGraph) -> Self {
        GraphSnapshot {
            graph: Arc::new(graph),
            epoch: 0,
            vocabulary: None,
        }
    }

    /// Wrap an already-shared graph with an explicit epoch.
    pub fn from_arc(graph: Arc<ClusterGraph>, epoch: u64) -> Self {
        GraphSnapshot {
            graph,
            epoch,
            vocabulary: None,
        }
    }

    /// Attach the vocabulary the graph's clusters were interned against.
    pub fn with_vocabulary(mut self, vocabulary: Arc<Vocabulary>) -> Self {
        self.vocabulary = Some(vocabulary);
        self
    }

    /// Re-tag the epoch (used by [`SnapshotCell`], which owns epoch
    /// assignment for everything published through it).
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// The shared graph.
    pub fn graph(&self) -> &Arc<ClusterGraph> {
        &self.graph
    }

    /// The snapshot's epoch. Within one [`SnapshotCell`] epochs strictly
    /// increase with every publication, so equal epochs mean the same graph.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The vocabulary handle, when one was attached.
    pub fn vocabulary(&self) -> Option<&Arc<Vocabulary>> {
        self.vocabulary.as_ref()
    }
}

impl Deref for GraphSnapshot {
    type Target = ClusterGraph;

    fn deref(&self) -> &ClusterGraph {
        &self.graph
    }
}

/// So `solver.run(&snapshot)` keeps working where a `&ClusterGraph` did.
impl<'a> From<&'a GraphSnapshot> for GraphView<'a> {
    fn from(snapshot: &'a GraphSnapshot) -> Self {
        snapshot.graph.view()
    }
}

/// The single-writer, many-reader publication point for snapshots.
///
/// Readers call [`SnapshotCell::load`] to pin the current snapshot (two
/// `Arc` clones under a briefly held read lock — never blocked by a solve in
/// progress, because solves run against their own pinned `Arc`, not the
/// cell). The ingest path calls [`SnapshotCell::publish`] (or
/// [`SnapshotCell::install`]) to swap in a new graph; the cell assigns the
/// next epoch, which [`SnapshotCell::epoch`] exposes lock-free for cache
/// staleness checks.
#[derive(Debug)]
pub struct SnapshotCell {
    current: RwLock<GraphSnapshot>,
    /// Mirrors `current`'s epoch so staleness checks need no lock.
    epoch: AtomicU64,
}

impl SnapshotCell {
    /// A cell holding the given snapshot, re-tagged as epoch 0.
    pub fn new(snapshot: GraphSnapshot) -> Self {
        SnapshotCell {
            current: RwLock::new(snapshot.with_epoch(0)),
            epoch: AtomicU64::new(0),
        }
    }

    /// A cell holding an empty epoch-0 graph — the state of a freshly
    /// started engine before any ingest.
    pub fn empty() -> Self {
        SnapshotCell::new(GraphSnapshot::new(ClusterGraph::default()))
    }

    /// Pin the current snapshot. In-flight queries keep the snapshot they
    /// loaded even while newer epochs are published.
    pub fn load(&self) -> GraphSnapshot {
        // A panicked writer can only have been between `*guard = …` and
        // unlock; the stored snapshot is always a complete value, so
        // recovering from poison is sound.
        self.current
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// The current epoch, lock-free.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Publish a new graph, assigning the next epoch. Returns the installed
    /// snapshot.
    pub fn publish(&self, graph: ClusterGraph) -> GraphSnapshot {
        self.install(GraphSnapshot::new(graph))
    }

    /// Install an externally built snapshot (e.g. a pipeline outcome's, or
    /// one from [`OnlineStableClusters::snapshot`]). The cell re-tags it
    /// with the next epoch — the cell owns epoch assignment, so epochs stay
    /// strictly monotone however snapshots are produced. Returns the
    /// installed (re-tagged) snapshot.
    ///
    /// [`OnlineStableClusters::snapshot`]: crate::streaming::OnlineStableClusters::snapshot
    pub fn install(&self, snapshot: GraphSnapshot) -> GraphSnapshot {
        let mut guard = self.current.write().unwrap_or_else(|p| p.into_inner());
        let next_epoch = guard.epoch() + 1;
        let installed = snapshot.with_epoch(next_epoch);
        *guard = installed.clone();
        // Readers that observe the new epoch are guaranteed to load() the
        // new snapshot or a later one: the store happens while the write
        // lock is still held.
        self.epoch.store(next_epoch, Ordering::Release);
        installed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster_graph::{ClusterGraphBuilder, ClusterNodeId};

    fn two_interval_graph(weight: f64) -> ClusterGraph {
        let mut builder = ClusterGraphBuilder::new(0);
        builder.add_interval(1);
        builder.add_interval(1);
        builder.add_edge(ClusterNodeId::new(0, 0), ClusterNodeId::new(1, 0), weight);
        builder.build()
    }

    #[test]
    fn snapshot_derefs_to_the_graph() {
        let snapshot = GraphSnapshot::new(two_interval_graph(0.5));
        assert_eq!(snapshot.num_intervals(), 2);
        assert_eq!(snapshot.num_edges(), 1);
        assert_eq!(snapshot.epoch(), 0);
        assert!(snapshot.vocabulary().is_none());
        // Clones share the same graph allocation.
        let clone = snapshot.clone();
        assert!(Arc::ptr_eq(snapshot.graph(), clone.graph()));
    }

    #[test]
    fn vocabulary_handle_travels_with_the_snapshot() {
        let mut vocabulary = Vocabulary::default();
        vocabulary.intern("somalia");
        let snapshot =
            GraphSnapshot::new(two_interval_graph(0.5)).with_vocabulary(Arc::new(vocabulary));
        let vocab = snapshot.vocabulary().expect("attached");
        assert!(vocab.get("somalia").is_some());
        assert!(snapshot.clone().vocabulary().is_some());
    }

    #[test]
    fn cell_swaps_epochs_monotonically_without_touching_pinned_readers() {
        let cell = SnapshotCell::empty();
        assert_eq!(cell.epoch(), 0);
        assert_eq!(cell.load().num_intervals(), 0);

        let pinned = cell.load();
        let first = cell.publish(two_interval_graph(0.5));
        assert_eq!(first.epoch(), 1);
        assert_eq!(cell.epoch(), 1);
        // The reader that pinned before the swap still sees the old graph.
        assert_eq!(pinned.epoch(), 0);
        assert_eq!(pinned.num_intervals(), 0);
        // A snapshot arriving with its own epoch is re-tagged, not trusted.
        let second = cell.install(GraphSnapshot::new(two_interval_graph(0.25)).with_epoch(999));
        assert_eq!(second.epoch(), 2);
        assert_eq!(cell.load().epoch(), 2);
        assert_eq!(
            cell.load()
                .edge_weight(ClusterNodeId::new(0, 0), ClusterNodeId::new(1, 0)),
            Some(0.25)
        );
    }

    #[test]
    fn concurrent_publishers_and_readers_stay_consistent() {
        let cell = Arc::new(SnapshotCell::empty());
        std::thread::scope(|scope| {
            let writer_cell = Arc::clone(&cell);
            scope.spawn(move || {
                for i in 0..50 {
                    writer_cell.publish(two_interval_graph(1.0 / (i + 1) as f64));
                }
            });
            for _ in 0..4 {
                let reader_cell = Arc::clone(&cell);
                scope.spawn(move || {
                    let mut last_epoch = 0;
                    for _ in 0..200 {
                        let snapshot = reader_cell.load();
                        // Epochs never go backwards, and a non-zero epoch
                        // always carries the published two-interval graph.
                        assert!(snapshot.epoch() >= last_epoch);
                        if snapshot.epoch() > 0 {
                            assert_eq!(snapshot.num_intervals(), 2);
                        }
                        last_epoch = snapshot.epoch();
                    }
                });
            }
        });
        assert_eq!(cell.epoch(), 50);
    }
}
