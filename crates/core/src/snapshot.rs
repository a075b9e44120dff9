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
//! (EMBANKS): build once, serve many queries, refresh by swapping.

use std::collections::VecDeque;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use bsc_corpus::vocabulary::Vocabulary;

use crate::cluster_graph::{ClusterGraph, GraphView};
use crate::delta::GraphDelta;

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
    current: RwLock<CellState>,
    /// Mirrors `current`'s epoch so staleness checks need no lock.
    epoch: AtomicU64,
}

/// Cap on the stored delta chain: splices across more than this many
/// consecutive ingests fall back to a cold solve (the chain's oldest links
/// are forgotten, so [`SnapshotCell::delta_between`] returns `None`).
const MAX_DELTA_CHAIN: usize = 16;

/// One link of the cell's delta chain: the interval delta between two
/// consecutively published epochs.
#[derive(Debug, Clone)]
struct EpochDelta {
    from_epoch: u64,
    to_epoch: u64,
    delta: Arc<GraphDelta>,
}

/// The cell's guarded state: the resident snapshot plus the chain of
/// deltas linking recent epochs, kept consistent under one lock.
#[derive(Debug)]
struct CellState {
    snapshot: GraphSnapshot,
    deltas: VecDeque<EpochDelta>,
}

impl SnapshotCell {
    /// A cell holding the given snapshot, re-tagged as epoch 0.
    pub fn new(snapshot: GraphSnapshot) -> Self {
        SnapshotCell {
            current: RwLock::new(CellState {
                snapshot: snapshot.with_epoch(0),
                deltas: VecDeque::new(),
            }),
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
            .snapshot
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
        let next_epoch = guard.snapshot.epoch() + 1;
        let installed = snapshot.with_epoch(next_epoch);
        guard.snapshot = installed.clone();
        // A plain install states nothing about how the new graph relates to
        // the old one, so prior-epoch window results must never splice past
        // it: drop the chain.
        guard.deltas.clear();
        // Readers that observe the new epoch are guaranteed to load() the
        // new snapshot or a later one: the store happens while the write
        // lock is still held.
        self.epoch.store(next_epoch, Ordering::Release);
        installed
    }

    /// Install a snapshot **and** record the interval delta between it and
    /// the previously resident graph, extending the cell's delta chain so
    /// prior-epoch per-window results can be spliced forward (see
    /// [`crate::delta`]). Epoch assignment is identical to
    /// [`SnapshotCell::install`].
    ///
    /// The delta is always computed here, against the graph the cell
    /// actually holds — never accepted from the caller — so an interleaved
    /// `install` (a `load` op replacing the graph mid-stream) can only
    /// *drop* the chain, never corrupt it.
    pub fn install_incremental(&self, snapshot: GraphSnapshot) -> GraphSnapshot {
        // The comparison runs against a pinned snapshot outside the write
        // lock so readers are never blocked by it. It is O(m) when the
        // resident graph is the one `snapshot` was appended to (shared
        // segments are clean by identity) and compares content otherwise.
        let prior = self.load();
        let delta = Arc::new(GraphDelta::between(prior.graph(), snapshot.graph()));
        let mut guard = self.current.write().unwrap_or_else(|p| p.into_inner());
        let next_epoch = guard.snapshot.epoch() + 1;
        let installed = snapshot.with_epoch(next_epoch);
        if guard.snapshot.epoch() == prior.epoch() {
            guard.deltas.push_back(EpochDelta {
                from_epoch: prior.epoch(),
                to_epoch: next_epoch,
                delta,
            });
            while guard.deltas.len() > MAX_DELTA_CHAIN {
                guard.deltas.pop_front();
            }
        } else {
            // Another install won the race between our load() and this
            // lock: the delta describes the wrong pair of generations.
            guard.deltas.clear();
        }
        guard.snapshot = installed.clone();
        self.epoch.store(next_epoch, Ordering::Release);
        installed
    }

    /// Whether the cell currently holds any delta links — i.e. the graph is
    /// being fed incrementally and windowed solves are worth seeding.
    pub fn has_deltas(&self) -> bool {
        !self
            .current
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .deltas
            .is_empty()
    }

    /// Compose the stored chain into a single delta covering
    /// `from_epoch → to_epoch`. Returns `None` when the chain does not span
    /// the range (pruned, cleared by a plain install, or the epochs were
    /// never published here) — callers must then solve cold.
    pub fn delta_between(&self, from_epoch: u64, to_epoch: u64) -> Option<GraphDelta> {
        if from_epoch >= to_epoch {
            return None;
        }
        let guard = self.current.read().unwrap_or_else(|p| p.into_inner());
        let mut links = guard
            .deltas
            .iter()
            .skip_while(|link| link.from_epoch != from_epoch);
        let first = links.next()?;
        let mut acc = (*first.delta).clone();
        let mut at = first.to_epoch;
        while at < to_epoch {
            let next = links.next()?;
            if next.from_epoch != at {
                return None;
            }
            acc = acc.compose(&next.delta)?;
            at = next.to_epoch;
        }
        if at == to_epoch {
            Some(acc)
        } else {
            None
        }
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
    fn incremental_installs_build_a_composable_delta_chain() {
        let cell = SnapshotCell::empty();
        assert!(!cell.has_deltas());
        let first = cell.install_incremental(GraphSnapshot::new(two_interval_graph(0.5)));
        let second = cell.install_incremental(GraphSnapshot::new(two_interval_graph(0.25)));
        assert!(cell.has_deltas());
        let link = cell
            .delta_between(first.epoch(), second.epoch())
            .expect("adjacent epochs are linked");
        // Only the edge-receiving interval changed between the two graphs.
        assert!(!link.is_dirty(0));
        assert!(link.is_dirty(1));
        let composed = cell
            .delta_between(0, second.epoch())
            .expect("chain composes");
        // The epoch-0 graph was empty, so everything is dirty end to end.
        assert_eq!(composed.dirty_count(), 2);
        assert!(cell.delta_between(second.epoch(), first.epoch()).is_none());
        // A plain install severs the chain.
        cell.install(GraphSnapshot::new(two_interval_graph(0.5)));
        assert!(!cell.has_deltas());
        assert!(cell.delta_between(first.epoch(), second.epoch()).is_none());
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
