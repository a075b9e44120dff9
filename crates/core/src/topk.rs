//! Bounded top-k heaps of weighted paths.
//!
//! Every algorithm of Section 4 maintains fixed-size heaps: the per-node
//! heaps `h^x_ij` of the BFS algorithm, the `bestpaths` heaps of the DFS
//! algorithm and the global result heap `H`. [`TopKPaths`] is that
//! structure over materialized [`ClusterPath`]s (result heaps, the windowed
//! merge, oracles): it keeps the `k` highest-scoring paths, evicting the
//! minimum when a better candidate arrives ("check π against the heap" in
//! the paper's pseudocode). (The per-node heaps of the BFS sweep are flat
//! tables of their own, see [`crate::bfs`]; only its global heap is a
//! [`TopKPaths`].) Call [`TopKPaths::would_admit`] with a candidate's score
//! *before* constructing or cloning it: when the score cannot beat the
//! current worst held score the construction, the clone and the heap churn
//! are all skipped. Exact score ties are broken by path content — the two
//! node sequences compared in place, front to back — so what a heap holds
//! never depends on the order offers arrive in, and a tie costs no
//! allocation.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::path::ClusterPath;

/// Deterministic total order on path *content*, independent of scores, for
/// breaking exact score ties (so heap contents never depend on insertion
/// order): the node sequences front to back, a node by `(interval, index)` —
/// the order of [`ClusterPath::tie_break_key`], read off the paths in place
/// (this runs inside heap sifts). DFS sorts its `bestpaths` buckets by it too.
pub(crate) fn tie_cmp(a: &ClusterPath, b: &ClusterPath) -> Ordering {
    a.nodes().cmp(b.nodes())
}

/// The law of a merged answer to a top-`k` query by weight: at most `k`
/// paths, in strict `(score desc, content asc)` order — no two equal, so
/// no path twice. Checked by `debug_assert!` where answers are merged.
pub(crate) fn is_answer(paths: &[ClusterPath], k: usize) -> bool {
    let before = |a: &ClusterPath, b: &ClusterPath| {
        let order = b.weight().total_cmp(&a.weight());
        order.then_with(|| tie_cmp(a, b)) == Ordering::Less
    };
    paths.len() <= k && paths.windows(2).all(|pair| before(&pair[0], &pair[1]))
}

/// A path together with the score the heap orders by.
#[derive(Debug, Clone)]
struct Scored {
    score: f64,
    path: ClusterPath,
}

impl PartialEq for Scored {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Scored {}

impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scored {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse the score: BinaryHeap is a max-heap, we want the *minimum*
        // score at the top so it can be evicted cheaply. The content order
        // is NOT reversed: among equal scores the top is the entry sorting
        // *latest* in the output order — exactly the one
        // [`TopKPaths::offer_scored`] must evict on a tie.
        other
            .score
            .total_cmp(&self.score)
            .then_with(|| tie_cmp(&self.path, &other.path))
    }
}

/// A bounded collection of the `k` highest-scoring paths.
#[derive(Debug, Clone)]
pub struct TopKPaths {
    k: usize,
    heap: BinaryHeap<Scored>,
}

impl TopKPaths {
    /// The most slots [`TopKPaths::new`] reserves before any path is held.
    const RESERVED_SLOTS: usize = 64;

    /// Create an empty heap of capacity `k`. Only a small `k` is reserved
    /// for up front (one allocation, as the per-node heaps of the solvers
    /// want); beyond 64 slots (`RESERVED_SLOTS`) storage grows with the paths
    /// actually held, so `k` — a number a client sends — sizes nothing.
    pub fn new(k: usize) -> Self {
        TopKPaths {
            k,
            heap: BinaryHeap::with_capacity(k.saturating_add(1).min(Self::RESERVED_SLOTS)),
        }
    }

    /// Capacity of the heap.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of paths currently held.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no paths are held.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Is the heap at capacity?
    pub fn is_full(&self) -> bool {
        self.heap.len() >= self.k
    }

    /// The lowest score currently held, or `None` if empty.
    pub fn min_score(&self) -> Option<f64> {
        self.heap.peek().map(|s| s.score)
    }

    /// The score a candidate must *exceed* to enter a full heap
    /// (−∞ while the heap still has room). This is the `min-k` value of the
    /// DFS pruning rule.
    pub fn admission_threshold(&self) -> f64 {
        if self.is_full() {
            self.min_score().unwrap_or(f64::NEG_INFINITY)
        } else {
            f64::NEG_INFINITY
        }
    }

    /// Could a candidate with this score be admitted right now? `false`
    /// means it certainly cannot enter, so callers can skip constructing or
    /// cloning it; `true` means it enters unless it ties the worst score and
    /// loses the content tie-break inside [`TopKPaths::offer_scored`].
    pub fn would_admit(&self, score: f64) -> bool {
        self.k > 0 && (!self.is_full() || score >= self.admission_threshold())
    }

    /// Offer a path with an explicit score. Returns true if it was admitted.
    ///
    /// Admission follows the strict total order (score descending, then
    /// path content ascending): the held set is always the unique
    /// top-k under that order, so it never depends on the order offers
    /// arrive in — the property that makes the windowed merge exact.
    pub fn offer_scored(&mut self, path: ClusterPath, score: f64) -> bool {
        if self.k == 0 {
            return false;
        }
        if self.heap.len() < self.k {
            self.heap.push(Scored { score, path });
            return true;
        }
        let Some(worst) = self.heap.peek() else {
            return false; // len >= k >= 1, so the heap has a top
        };
        match score.total_cmp(&worst.score) {
            Ordering::Less => return false,
            Ordering::Equal => {
                // The heap top is the worst under (score desc, tie asc);
                // replace it only when the candidate sorts strictly earlier.
                if tie_cmp(&path, &worst.path) != Ordering::Less {
                    return false;
                }
            }
            Ordering::Greater => {}
        }
        self.heap.pop();
        self.heap.push(Scored { score, path });
        true
    }

    /// Offer a path scored by its aggregate weight (Problem 1).
    pub fn offer_by_weight(&mut self, path: ClusterPath) -> bool {
        let score = path.weight();
        self.offer_scored(path, score)
    }

    /// Offer a path scored by its stability = weight / length (Problem 2).
    pub fn offer_by_stability(&mut self, path: ClusterPath) -> bool {
        let score = path.stability();
        self.offer_scored(path, score)
    }

    /// Merge another heap into this one (used to combine the per-range
    /// heaps of a windowed solve). The top-k set under the total
    /// (score, content) order is unique, so the merge order never affects
    /// the result.
    pub fn absorb(&mut self, other: TopKPaths) {
        for entry in other.heap {
            self.offer_scored(entry.path, entry.score);
        }
    }

    /// The held paths in descending score order.
    pub fn into_sorted(self) -> Vec<ClusterPath> {
        // `Scored`'s order, read forwards, is the output order.
        let mut entries: Vec<Scored> = self.heap.into_vec();
        entries.sort();
        entries.into_iter().map(|s| s.path).collect()
    }

    /// Iterate over the held paths in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = &ClusterPath> {
        self.heap.iter().map(|s| &s.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster_graph::ClusterNodeId;
    use bsc_util::DetRng;

    fn path(weight: f64, start: u32) -> ClusterPath {
        ClusterPath::singleton(ClusterNodeId {
            interval: 0,
            index: start,
        })
        .extend(
            ClusterNodeId {
                interval: 1,
                index: start,
            },
            weight,
        )
    }

    #[test]
    fn keeps_only_k_best() {
        let mut topk = TopKPaths::new(3);
        for (i, w) in [0.1, 0.9, 0.5, 0.7, 0.3].iter().enumerate() {
            topk.offer_by_weight(path(*w, i as u32));
        }
        let result = topk.into_sorted();
        let weights: Vec<f64> = result.iter().map(|p| p.weight()).collect();
        assert_eq!(weights, vec![0.9, 0.7, 0.5]);
    }

    #[test]
    fn admission_threshold_tracks_min() {
        let mut topk = TopKPaths::new(2);
        assert_eq!(topk.admission_threshold(), f64::NEG_INFINITY);
        topk.offer_by_weight(path(0.4, 0));
        assert_eq!(topk.admission_threshold(), f64::NEG_INFINITY);
        topk.offer_by_weight(path(0.8, 1));
        assert!((topk.admission_threshold() - 0.4).abs() < 1e-12);
        topk.offer_by_weight(path(0.6, 2));
        assert!((topk.admission_threshold() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn rejects_below_threshold() {
        let mut topk = TopKPaths::new(1);
        assert!(topk.offer_by_weight(path(0.5, 0)));
        assert!(!topk.offer_by_weight(path(0.3, 1)));
        assert!(topk.offer_by_weight(path(0.7, 2)));
        assert_eq!(topk.len(), 1);
    }

    #[test]
    fn would_admit_mirrors_offers() {
        let mut topk = TopKPaths::new(2);
        assert!(topk.would_admit(0.1));
        topk.offer_by_weight(path(0.5, 5));
        topk.offer_by_weight(path(0.8, 1));
        assert!((topk.admission_threshold() - 0.5).abs() < 1e-12);
        assert!(!topk.would_admit(0.4999999));
        // A tying score *may* enter (content tie-break decides inside).
        assert!(topk.would_admit(0.5));
        assert!(topk.would_admit(0.5000001));
        assert!(!topk.offer_by_weight(path(0.4, 0)));
        assert!(topk.offer_by_weight(path(0.6, 3)));
    }

    #[test]
    fn equal_scores_admit_by_content_order_not_arrival_order() {
        // Regardless of offer order, a full heap holding ties keeps the
        // paths that sort earliest under the deterministic content order.
        let candidates = [path(0.5, 3), path(0.5, 1), path(0.5, 2), path(0.5, 0)];
        let mut forward = TopKPaths::new(2);
        for p in candidates.iter().cloned() {
            forward.offer_by_weight(p);
        }
        let mut backward = TopKPaths::new(2);
        for p in candidates.iter().rev().cloned() {
            backward.offer_by_weight(p);
        }
        let a = forward.into_sorted();
        let b = backward.into_sorted();
        assert_eq!(a, b);
        let starts: Vec<u32> = a.iter().map(|p| p.nodes()[0].index).collect();
        assert_eq!(starts, vec![0, 1]);

        // The content order is `tie_break_key`'s (which the exhaustive
        // oracle sorts by) — also between paths of different node counts
        // and where one path skips an interval the other visits.
        let node = |interval, index| ClusterNodeId { interval, index };
        let paths = [
            ClusterPath::singleton(node(0, 1)),
            ClusterPath::new(vec![node(0, 1), node(1, 0)], 0.5),
            ClusterPath::new(vec![node(0, 1), node(1, 0), node(2, 0)], 0.5),
            ClusterPath::new(vec![node(0, 1), node(2, 0)], 0.5),
            ClusterPath::new(vec![node(0, 0), node(2, 3)], 0.5),
            ClusterPath::new(vec![node(0, 0), node(1, 7), node(2, 3)], 0.5),
        ];
        for a in &paths {
            for b in &paths {
                let by_key = a.tie_break_key().cmp(&b.tie_break_key());
                assert_eq!(tie_cmp(a, b), by_key, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn zero_capacity_accepts_nothing() {
        let mut topk = TopKPaths::new(0);
        assert!(!topk.would_admit(f64::INFINITY));
        assert!(!topk.offer_by_weight(path(1.0, 0)));
        assert!(topk.is_empty());
    }

    #[test]
    fn a_huge_k_reserves_nothing_and_keeps_every_offer() {
        // `k + 1` slots up front used to abort the process on this line.
        let mut topk = TopKPaths::new(usize::MAX);
        assert_eq!(topk.k(), usize::MAX);
        for (i, w) in [0.3, 0.9, 0.6].iter().enumerate() {
            assert!(topk.would_admit(*w));
            assert!(topk.offer_by_weight(path(*w, i as u32)));
        }
        assert!(!topk.is_full());
        let weights: Vec<f64> = topk.into_sorted().iter().map(|p| p.weight()).collect();
        assert_eq!(weights, vec![0.9, 0.6, 0.3]);
    }

    #[test]
    fn stability_scoring() {
        let mut topk = TopKPaths::new(2);
        // length 1, weight 0.9 -> stability 0.9
        let short = path(0.9, 0);
        // length 3, weight 1.5 -> stability 0.5
        let long = ClusterPath::singleton(ClusterNodeId {
            interval: 0,
            index: 9,
        })
        .extend(
            ClusterNodeId {
                interval: 3,
                index: 9,
            },
            1.5,
        );
        topk.offer_by_stability(long.clone());
        topk.offer_by_stability(short.clone());
        assert_eq!(topk.into_sorted(), vec![short, long]);
    }

    #[test]
    fn absorb_merges_to_the_same_topk() {
        let weights = [0.4, 0.9, 0.1, 0.7, 0.6, 0.95, 0.2, 0.5];
        let mut whole = TopKPaths::new(3);
        for (i, w) in weights.iter().enumerate() {
            whole.offer_by_weight(path(*w, i as u32));
        }
        let mut left = TopKPaths::new(3);
        let mut right = TopKPaths::new(3);
        for (i, w) in weights.iter().enumerate() {
            let target = if i % 2 == 0 { &mut left } else { &mut right };
            target.offer_by_weight(path(*w, i as u32));
        }
        let mut merged = left;
        merged.absorb(right);
        assert_eq!(merged.into_sorted(), whole.into_sorted());
    }

    #[test]
    fn randomized_matches_sort_and_truncate() {
        let mut rng = DetRng::seed_from_u64(700);
        for _ in 0..64 {
            let k = rng.index(8);
            let len = rng.index(60);
            let weights: Vec<f64> = (0..len).map(|_| rng.next_f64()).collect();
            let mut topk = TopKPaths::new(k);
            for (i, w) in weights.iter().enumerate() {
                topk.offer_by_weight(path(*w, i as u32));
            }
            let got: Vec<f64> = topk.into_sorted().iter().map(|p| p.weight()).collect();
            let mut expected = weights.clone();
            expected.sort_by(|a, b| b.total_cmp(a));
            expected.truncate(k);
            assert_eq!(got.len(), expected.len());
            for (g, e) in got.iter().zip(expected.iter()) {
                assert!((g - e).abs() < 1e-12);
            }
        }
    }
}
