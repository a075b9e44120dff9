//! The epoch-tagged LRU solution cache, and the one memo a fed query
//! answers from.
//!
//! Stable-cluster queries are pure functions of `(snapshot epoch, query
//! parameters)`: the same algorithm, spec, `k` and options against the same
//! graph always produce the byte-identical [`Solution`] (the workspace-wide
//! determinism invariant). That makes caching trivial to get right — the
//! only invalidation signal needed is the epoch. Every entry carries the
//! epoch it was computed at, and [`SolutionCache::get`] only ever answers
//! for an exact epoch match, so a stale answer can never be served.
//!
//! Entries produced by a windowed solve (see [`bsc_core::delta`]) also hold
//! **the [`GraphSnapshot`] they were solved on**, and an entry proves its
//! own reuse: the engine compares that graph with the graph a later query
//! pinned (`GraphDelta::between`, at the point of use) and, if the pinned
//! graph extends it by appends only, merges the entry's paths with the
//! windows the appends added. An entry holds its `k` paths and a handle on a
//! graph, never a window's own result. Nothing here — or anywhere else — has
//! to vouch for what happened between the two epochs, so an entry stays
//! useful however many ingests it sleeps through. On an *incremental*
//! advance ([`SolutionCache::advance_epoch_incremental`]) such entries are
//! therefore **carried forward**, found by the next solve of the same key
//! via [`SolutionCache::carried`]; solution-only entries are dropped as
//! before, and the `carried_forward` / `delta_dropped` counters report the
//! split. A plain (non-incremental) advance drops everything: the new graph
//! shares nothing with the old, so a carried answer would cost a content
//! comparison to learn it cannot be merged from.

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
    /// Windowed entries carried across incremental epoch advances instead
    /// of being dropped — each is an answer a later solve may merge from.
    pub carried_forward: u64,
    /// Solution-only entries an incremental advance still had to drop.
    pub delta_dropped: u64,
}

#[derive(Debug)]
struct Entry {
    /// The epoch the solution was computed at.
    epoch: u64,
    solution: Solution,
    /// The snapshot a windowed solve ran on (an `Arc` handle; a stream's
    /// epochs share their segments, so holding one pins little): the graph
    /// a later solve proves a merge from `solution` against.
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

    /// Drop every entry. Called on a plain snapshot swap: the generations
    /// share no segment, so nothing resident is worth comparing against.
    pub fn advance_epoch(&mut self, epoch: u64) {
        if epoch > self.epoch {
            self.invalidations += self.map.len() as u64;
            self.map.clear();
            self.epoch = epoch;
        }
    }

    /// Advance to `epoch` keeping every windowed entry as an answer to merge
    /// from (`carried_forward`); solution-only entries are dropped
    /// (`delta_dropped`) — nothing proves what they were solved on. Called
    /// on an incremental snapshot install.
    pub fn advance_epoch_incremental(&mut self, epoch: u64) {
        if epoch <= self.epoch {
            return;
        }
        let before = self.map.len();
        // bsc:allow(nondeterministic-iteration) -- retain order only affects counter arithmetic, never output
        self.map.retain(|_, entry| entry.solved_on.is_some());
        let dropped = (before - self.map.len()) as u64;
        self.carried_forward += self.map.len() as u64;
        self.delta_dropped += dropped;
        self.invalidations += dropped;
        self.epoch = epoch;
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

    /// The answer a windowed solve of `key` could merge from — the snapshot
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
    /// when the solve was windowed. A put for a newer epoch first advances
    /// the cache (incrementally — a carried answer is checked against the
    /// graph of whichever solve uses it); a put for an *older* epoch (a
    /// query that pinned its snapshot before a swap) is dropped.
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
        self.advance_epoch_incremental(epoch);
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
    fn plain_epoch_advance_invalidates_everything() {
        let mut cache = SolutionCache::new(4);
        cache.put(1, "a".into(), solution(0.1), None);
        cache.put(1, "b".into(), solution(0.2), solved_on());
        cache.advance_epoch(2);
        assert!(cache.get(2, "a").is_none());
        assert_eq!(cache.stats().invalidations, 2);
        assert_eq!(cache.stats().entries, 0);
        assert!(cache.carried("b").is_none());
    }

    #[test]
    fn incremental_advance_carries_windowed_entries_and_drops_the_rest() {
        let mut cache = SolutionCache::new(4);
        cache.put(1, "solution-only".into(), solution(0.1), None);
        cache.put(1, "windowed".into(), solution(0.2), solved_on());
        cache.advance_epoch_incremental(2);
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
    fn put_replaces_a_carried_entry_with_the_fresh_epoch() {
        let mut cache = SolutionCache::new(4);
        cache.put(1, "q".into(), solution(0.2), solved_on());
        cache.advance_epoch_incremental(2);
        cache.put(2, "q".into(), solution(0.3), solved_on());
        let hit = cache.get(2, "q").expect("fresh entry answers");
        assert_eq!(hit.paths[0].weight(), 0.3);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn stale_epoch_lookups_and_puts_bypass_the_cache() {
        let mut cache = SolutionCache::new(4);
        cache.advance_epoch(5);
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
