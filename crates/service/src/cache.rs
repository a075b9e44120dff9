//! The epoch-tagged LRU solution cache, and the one memo a query merges
//! from.
//!
//! Stable-cluster queries are pure functions of `(snapshot epoch, query
//! parameters)`: the same algorithm, spec, `k` and options against the same
//! graph always produce the byte-identical [`Solution`] (the workspace-wide
//! determinism invariant). That makes caching trivial to get right — the
//! only invalidation signal needed is the epoch. Every entry carries the
//! epoch it was computed at, and [`SolutionCache::get`] only ever answers
//! for an exact epoch match, so a stale answer can never be served.
//!
//! An entry for an exact-length query also holds **the [`GraphSnapshot`] it
//! was solved on**, and proves its own reuse: the engine compares that graph
//! with the graph a later query pinned (`GraphDelta::between`, at the point
//! of use) and, if the pinned graph extends it by appends only, merges the
//! entry's paths with the windows the appends added (see
//! [`bsc_core::delta`]). An entry holds its `k` paths and a handle on a
//! graph, never a window's own result, so it stays useful however many
//! ingests it sleeps through.
//!
//! [`SolutionCache::advance_epoch`] is told whether the new graph extends
//! the one it replaces by appends only — the engine derives that from the
//! two graphs when it installs one. If it does (a push on a stream), the
//! entries that hold a snapshot are **carried forward**, found by the next
//! solve of the same key via [`SolutionCache::carried`], and the others are
//! dropped; the `carried_forward` / `delta_dropped` counters report the
//! split. Otherwise (a `load`) every entry is dropped: a carried answer
//! would only cost a comparison at its use to learn it cannot be merged
//! from.

use std::collections::HashMap;

use bsc_core::path::ClusterPath;
use bsc_core::snapshot::GraphSnapshot;
use bsc_core::solver::Solution;

/// Counters describing cache behaviour since engine start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries currently resident.
    pub entries: usize,
    /// Configured capacity (0 disables caching).
    pub capacity: usize,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (including epoch mismatches).
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Entries dropped by epoch advances (snapshot swaps), including
    /// `delta_dropped`.
    pub invalidations: u64,
    /// Entries that hold a snapshot, carried across epoch advances to a
    /// graph that extends the replaced one by appends only — each is an
    /// answer a later solve may merge from.
    pub carried_forward: u64,
    /// Solution-only entries such an advance still had to drop.
    pub delta_dropped: u64,
}

#[derive(Debug)]
struct Entry {
    /// The epoch the solution was computed at.
    epoch: u64,
    solution: Solution,
    /// The snapshot an exact-length query was solved on (an `Arc` handle; a
    /// stream's epochs share their segments, so holding one pins little):
    /// the graph a later solve proves a merge from `solution` against.
    solved_on: Option<GraphSnapshot>,
    last_used: u64,
}

/// A bounded LRU cache of query solutions with per-entry epoch tags.
#[derive(Debug)]
pub struct SolutionCache {
    capacity: usize,
    /// The newest epoch the cache has been advanced to; puts for older
    /// epochs are dropped.
    epoch: u64,
    /// Monotone recency clock for the LRU policy.
    tick: u64,
    map: HashMap<String, Entry>,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
    carried_forward: u64,
    delta_dropped: u64,
}

impl SolutionCache {
    /// An empty cache holding at most `capacity` solutions (0 disables it).
    pub fn new(capacity: usize) -> Self {
        SolutionCache {
            capacity,
            epoch: 0,
            tick: 0,
            map: HashMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
            invalidations: 0,
            carried_forward: 0,
            delta_dropped: 0,
        }
    }

    /// Advance to `epoch`. If `appends()` finds that the new graph extends
    /// the replaced one by appends only, every entry that holds a snapshot
    /// is kept as an answer to merge from (`carried_forward`) and the
    /// solution-only ones are dropped (`delta_dropped`); otherwise every
    /// entry is dropped. `appends` runs only when there is an entry to keep.
    pub fn advance_epoch(&mut self, epoch: u64, appends: impl FnOnce() -> bool) {
        if epoch <= self.epoch {
            return;
        }
        self.epoch = epoch;
        let before = self.map.len();
        if before > 0 && appends() {
            // bsc:allow(nondeterministic-iteration) -- retain order only affects counter arithmetic, never output
            self.map.retain(|_, entry| entry.solved_on.is_some());
            self.carried_forward += self.map.len() as u64;
            self.delta_dropped += (before - self.map.len()) as u64;
        } else {
            self.map.clear();
        }
        self.invalidations += (before - self.map.len()) as u64;
    }

    /// Look up the solution for `key` computed at `epoch`. Counts a miss
    /// when absent or when the entry belongs to a different epoch (a
    /// carried-forward entry is merged from, never a direct answer).
    pub fn get(&mut self, epoch: u64, key: &str) -> Option<Solution> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some(entry) if entry.epoch == epoch => {
                entry.last_used = self.tick;
                self.hits += 1;
                Some(entry.solution.clone())
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// The answer a solve of `key` could merge from — the snapshot
    /// the entry was solved on and its paths — whatever epoch that was. The
    /// caller derives the proof from that graph and the one it is solving.
    /// Does not touch the hit/miss counters (the subsequent put records the
    /// outcome).
    pub fn carried(&mut self, key: &str) -> Option<(GraphSnapshot, Vec<ClusterPath>)> {
        self.tick += 1;
        let entry = self.map.get_mut(key)?;
        let solved_on = entry.solved_on.clone()?;
        entry.last_used = self.tick;
        Some((solved_on, entry.solution.paths.clone()))
    }

    /// Store a solution computed at `epoch`, with the snapshot it ran on
    /// when a later epoch may merge from it. A put for an *older* epoch (a
    /// query that pinned its snapshot before a swap) is dropped. A put for
    /// a newer epoch first advances the cache, dropping every entry: a put
    /// cannot tell how the two graphs relate. (The engine advances under
    /// the lock it installs under, so its puts never do.)
    pub fn put(
        &mut self,
        epoch: u64,
        key: String,
        solution: Solution,
        solved_on: Option<GraphSnapshot>,
    ) {
        if self.capacity == 0 {
            return;
        }
        self.advance_epoch(epoch, || false);
        if epoch < self.epoch {
            return;
        }
        self.tick += 1;
        let tick = self.tick;
        self.map.insert(
            key,
            Entry {
                epoch,
                solution,
                solved_on,
                last_used: tick,
            },
        );
        if self.map.len() > self.capacity {
            if let Some(oldest) = self
                .map // bsc:allow(nondeterministic-iteration) -- ticks are unique, the min has one winner
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
                self.evictions += 1;
            }
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.map.len(),
            capacity: self.capacity,
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            invalidations: self.invalidations,
            carried_forward: self.carried_forward,
            delta_dropped: self.delta_dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsc_core::cluster_graph::ClusterNodeId;
    use bsc_core::solver::SolverStats;
    use bsc_storage::io_stats::IoSnapshot;

    fn solution(weight: f64) -> Solution {
        Solution {
            paths: vec![ClusterPath::new(
                vec![ClusterNodeId::new(0, 0), ClusterNodeId::new(1, 0)],
                weight,
            )],
            stats: SolverStats::default(),
            io: IoSnapshot::default(),
        }
    }

    fn solved_on() -> Option<GraphSnapshot> {
        Some(GraphSnapshot::new(Default::default()))
    }

    #[test]
    fn hit_after_put_same_epoch() {
        let mut cache = SolutionCache::new(4);
        assert!(cache.get(1, "q").is_none());
        cache.put(1, "q".into(), solution(0.5), None);
        let hit = cache.get(1, "q").expect("cached");
        assert_eq!(hit.paths[0].weight(), 0.5);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn an_advance_past_anything_but_appends_invalidates_everything() {
        let mut cache = SolutionCache::new(4);
        cache.put(1, "a".into(), solution(0.1), None);
        cache.put(1, "b".into(), solution(0.2), solved_on());
        cache.advance_epoch(2, || false);
        assert!(cache.get(2, "a").is_none());
        assert_eq!(cache.stats().invalidations, 2);
        assert_eq!(cache.stats().entries, 0);
        assert!(cache.carried("b").is_none());
    }

    #[test]
    fn an_advance_by_appends_carries_entries_with_a_snapshot_and_drops_the_rest() {
        let mut cache = SolutionCache::new(4);
        cache.put(1, "solution-only".into(), solution(0.1), None);
        cache.put(1, "windowed".into(), solution(0.2), solved_on());
        cache.advance_epoch(2, || true);
        let stats = cache.stats();
        assert_eq!(stats.carried_forward, 1);
        assert_eq!(stats.delta_dropped, 1);
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.entries, 1);
        // The carried entry is merged from, never a direct answer.
        assert!(cache.get(2, "windowed").is_none());
        let (_, paths) = cache.carried("windowed").expect("carried");
        assert_eq!(paths[0].weight(), 0.2);
        assert!(cache.carried("solution-only").is_none());
    }

    #[test]
    fn a_put_for_a_newer_epoch_carries_nothing_and_an_empty_cache_compares_nothing() {
        let mut cache = SolutionCache::new(4);
        cache.advance_epoch(1, || panic!("no entry to keep, no graphs to compare"));
        cache.put(1, "q".into(), solution(0.2), solved_on());
        cache.put(2, "r".into(), solution(0.3), solved_on());
        assert!(cache.carried("q").is_none());
        let stats = cache.stats();
        assert_eq!((stats.carried_forward, stats.invalidations), (0, 1));
    }

    #[test]
    fn put_replaces_a_carried_entry_with_the_fresh_epoch() {
        let mut cache = SolutionCache::new(4);
        cache.put(1, "q".into(), solution(0.2), solved_on());
        cache.advance_epoch(2, || true);
        cache.put(2, "q".into(), solution(0.3), solved_on());
        let hit = cache.get(2, "q").expect("fresh entry answers");
        assert_eq!(hit.paths[0].weight(), 0.3);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn stale_epoch_lookups_and_puts_bypass_the_cache() {
        let mut cache = SolutionCache::new(4);
        cache.advance_epoch(5, || true);
        // A query pinned at epoch 3 finishes after the swap to 5.
        cache.put(3, "old".into(), solution(0.9), None);
        assert!(cache.get(3, "old").is_none());
        assert!(cache.get(5, "old").is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn lru_evicts_the_least_recently_used() {
        let mut cache = SolutionCache::new(2);
        cache.put(1, "a".into(), solution(0.1), None);
        cache.put(1, "b".into(), solution(0.2), None);
        assert!(cache.get(1, "a").is_some()); // refresh "a"
        cache.put(1, "c".into(), solution(0.3), None); // evicts "b"
        assert!(cache.get(1, "b").is_none());
        assert!(cache.get(1, "a").is_some());
        assert!(cache.get(1, "c").is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = SolutionCache::new(0);
        cache.put(1, "a".into(), solution(0.1), None);
        assert!(cache.get(1, "a").is_none());
        assert_eq!(cache.stats().entries, 0);
    }
}
