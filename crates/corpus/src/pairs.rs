//! Keyword-pair co-occurrence counting.
//!
//! Section 3 of the paper: for every document `D` and every pair of keywords
//! `u, v ∈ D`, `A_D(u,v) = 1`; summing over all documents of the interval
//! gives `A(u,v)`, the number of documents containing both keywords. The
//! per-keyword document frequency `A(u)` is obtained by also emitting the
//! self pair `(u,u)`. Two implementations are provided:
//!
//! * [`PairCounter::in_memory`] — a hash-map counter, used when the interval's
//!   pair multiset fits in memory.
//! * [`PairCounter::external`] — the paper's approach verbatim: emit every
//!   pair occurrence to the external merge sort of
//!   [`bsc_storage::external_sort`], whose runs spill to a temporary log file
//!   (`StorageSpec::LogFile`), so identical pairs become adjacent, and count
//!   them in one pass over the sorted output.
//!
//! Both produce the same [`PairCounts`]; a property test asserts this.

use std::collections::HashMap;

use bsc_storage::external_sort::{sort_and_count, ExternalSorter, SortConfig};
use bsc_storage::StorageSpec;

use crate::document::Document;
use crate::vocabulary::KeywordId;

/// Strategy and tuning for pair counting.
#[derive(Debug, Clone, Default)]
pub struct PairCountConfig {
    /// Use the external-sort implementation instead of the in-memory hash
    /// map.
    pub external: bool,
    /// Spill configuration for the external implementation.
    pub sort: SortConfig,
}

impl PairCountConfig {
    /// The paper's secondary-storage pipeline (external sort of the pair
    /// file).
    pub fn external() -> Self {
        PairCountConfig {
            external: true,
            sort: SortConfig::default(),
        }
    }
}

/// Aggregated co-occurrence statistics for one temporal interval.
#[derive(Debug, Clone, Default)]
pub struct PairCounts {
    /// `A(u,v)` for `u < v`: number of documents containing both keywords.
    pair_counts: HashMap<(KeywordId, KeywordId), u64>,
    /// `A(u)`: number of documents containing keyword `u`.
    keyword_counts: HashMap<KeywordId, u64>,
    /// `n = |D|`: total number of documents in the interval.
    num_documents: u64,
}

impl PairCounts {
    /// `A(u,v)`: the number of documents containing both `u` and `v`.
    pub fn pair_count(&self, u: KeywordId, v: KeywordId) -> u64 {
        if u == v {
            return self.keyword_count(u);
        }
        let key = if u < v { (u, v) } else { (v, u) };
        self.pair_counts.get(&key).copied().unwrap_or(0)
    }

    /// `A(u)`: the number of documents containing `u`.
    pub fn keyword_count(&self, u: KeywordId) -> u64 {
        self.keyword_counts.get(&u).copied().unwrap_or(0)
    }

    /// `n`: the number of documents in the interval.
    pub fn num_documents(&self) -> u64 {
        self.num_documents
    }

    /// Number of distinct keywords observed.
    pub fn num_keywords(&self) -> usize {
        self.keyword_counts.len()
    }

    /// Number of distinct co-occurring keyword pairs (graph edges before
    /// pruning).
    pub fn num_pairs(&self) -> usize {
        self.pair_counts.len()
    }

    /// Iterate over `(u, v, A(u,v))` triplets with `u < v`.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (KeywordId, KeywordId, u64)> + '_ {
        self.pair_counts.iter().map(|(&(u, v), &c)| (u, v, c))
    }

    /// Iterate over `(u, A(u))` entries.
    pub fn iter_keywords(&self) -> impl Iterator<Item = (KeywordId, u64)> + '_ {
        self.keyword_counts.iter().map(|(&u, &c)| (u, c))
    }
}

/// Counts keyword pairs over a collection of documents.
#[derive(Debug, Clone, Default)]
pub struct PairCounter {
    config: PairCountConfig,
}

impl PairCounter {
    /// A counter using the in-memory strategy.
    pub fn in_memory() -> Self {
        PairCounter {
            config: PairCountConfig::default(),
        }
    }

    /// A counter using the external-sort strategy.
    pub fn external() -> Self {
        PairCounter {
            config: PairCountConfig::external(),
        }
    }

    /// A counter with an explicit configuration.
    pub fn with_config(config: PairCountConfig) -> Self {
        PairCounter { config }
    }

    /// Count all keyword pairs over `documents`.
    pub fn count(&self, documents: &[Document]) -> std::io::Result<PairCounts> {
        if self.config.external {
            self.count_external(documents)
        } else {
            Ok(self.count_in_memory(documents))
        }
    }

    fn count_in_memory(&self, documents: &[Document]) -> PairCounts {
        let mut counts = PairCounts {
            num_documents: documents.len() as u64,
            ..Default::default()
        };
        for doc in documents {
            let keywords = doc.keywords();
            for (i, &u) in keywords.iter().enumerate() {
                *counts.keyword_counts.entry(u).or_insert(0) += 1;
                for &v in &keywords[i + 1..] {
                    *counts.pair_counts.entry((u, v)).or_insert(0) += 1;
                }
            }
        }
        counts
    }

    fn count_external(&self, documents: &[Document]) -> std::io::Result<PairCounts> {
        let mut sorter: ExternalSorter<(u32, u32)> = ExternalSorter::new(
            self.config.sort.clone(),
            StorageSpec::LogFile.open_temp("bsc-extsort")?,
        );
        for doc in documents {
            let keywords = doc.keywords();
            for (i, &u) in keywords.iter().enumerate() {
                // The (u,u) self pair carries A(u), exactly as in the paper.
                sorter.push((u.0, u.0))?;
                for &v in &keywords[i + 1..] {
                    sorter.push((u.0, v.0))?;
                }
            }
        }
        let mut counts = PairCounts {
            num_documents: documents.len() as u64,
            ..Default::default()
        };
        sort_and_count(sorter, |(u, v), count| {
            if u == v {
                counts.keyword_counts.insert(KeywordId(u), count);
            } else {
                counts
                    .pair_counts
                    .insert((KeywordId(u), KeywordId(v)), count);
            }
        })?;
        Ok(counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::DocumentId;
    use crate::timeline::IntervalId;
    use bsc_util::DetRng;

    fn doc(id: u64, keywords: &[u32]) -> Document {
        Document::new(
            DocumentId(id),
            IntervalId(0),
            keywords.iter().map(|&k| KeywordId(k)),
        )
    }

    #[test]
    fn counts_simple_corpus() {
        let docs = vec![
            doc(1, &[1, 2, 3]),
            doc(2, &[1, 2]),
            doc(3, &[2, 3]),
            doc(4, &[4]),
        ];
        let counts = PairCounter::in_memory().count(&docs).unwrap();
        assert_eq!(counts.num_documents(), 4);
        assert_eq!(counts.keyword_count(KeywordId(1)), 2);
        assert_eq!(counts.keyword_count(KeywordId(2)), 3);
        assert_eq!(counts.keyword_count(KeywordId(3)), 2);
        assert_eq!(counts.keyword_count(KeywordId(4)), 1);
        assert_eq!(counts.pair_count(KeywordId(1), KeywordId(2)), 2);
        assert_eq!(counts.pair_count(KeywordId(2), KeywordId(1)), 2);
        assert_eq!(counts.pair_count(KeywordId(1), KeywordId(3)), 1);
        assert_eq!(counts.pair_count(KeywordId(2), KeywordId(3)), 2);
        assert_eq!(counts.pair_count(KeywordId(1), KeywordId(4)), 0);
        assert_eq!(counts.num_keywords(), 4);
        assert_eq!(counts.num_pairs(), 3);
    }

    #[test]
    fn self_pair_count_equals_keyword_count() {
        let docs = vec![doc(1, &[7, 8]), doc(2, &[7])];
        let counts = PairCounter::in_memory().count(&docs).unwrap();
        assert_eq!(counts.pair_count(KeywordId(7), KeywordId(7)), 2);
    }

    #[test]
    fn external_matches_in_memory_on_fixed_corpus() {
        let docs = vec![
            doc(1, &[1, 2, 3, 4]),
            doc(2, &[2, 3]),
            doc(3, &[1, 4, 5]),
            doc(4, &[5]),
            doc(5, &[1, 2, 3, 4, 5]),
        ];
        let a = PairCounter::in_memory().count(&docs).unwrap();
        let config = PairCountConfig {
            external: true,
            sort: SortConfig::tiny(),
        };
        let b = PairCounter::with_config(config).count(&docs).unwrap();
        assert_eq!(a.num_documents(), b.num_documents());
        for u in 1..=5u32 {
            assert_eq!(a.keyword_count(KeywordId(u)), b.keyword_count(KeywordId(u)));
            for v in 1..=5u32 {
                assert_eq!(
                    a.pair_count(KeywordId(u), KeywordId(v)),
                    b.pair_count(KeywordId(u), KeywordId(v)),
                    "pair ({u},{v})"
                );
            }
        }
    }

    #[test]
    fn empty_corpus() {
        let counts = PairCounter::in_memory().count(&[]).unwrap();
        assert_eq!(counts.num_documents(), 0);
        assert_eq!(counts.num_keywords(), 0);
        assert_eq!(counts.num_pairs(), 0);
    }

    /// Generate a random corpus: `num_docs` documents, each a random subset
    /// of the keyword universe `[0, universe)`.
    fn random_docs(
        rng: &mut DetRng,
        num_docs: usize,
        universe: u32,
        max_words: usize,
    ) -> Vec<Document> {
        (0..num_docs)
            .map(|i| {
                let mut words: Vec<u32> = (0..rng.index(max_words + 1))
                    .map(|_| rng.below(universe as u64) as u32)
                    .collect();
                words.sort_unstable();
                words.dedup();
                doc(i as u64, &words)
            })
            .collect()
    }

    #[test]
    fn randomized_external_equals_in_memory() {
        let mut rng = DetRng::seed_from_u64(400);
        for _ in 0..16 {
            let n = rng.index(30);
            let docs = random_docs(&mut rng, n, 20, 7);
            let a = PairCounter::in_memory().count(&docs).unwrap();
            let config = PairCountConfig {
                external: true,
                sort: SortConfig::tiny(),
            };
            let b = PairCounter::with_config(config).count(&docs).unwrap();
            assert_eq!(a.num_documents(), b.num_documents());
            for u in 0..20u32 {
                assert_eq!(a.keyword_count(KeywordId(u)), b.keyword_count(KeywordId(u)));
                for v in (u + 1)..20u32 {
                    assert_eq!(
                        a.pair_count(KeywordId(u), KeywordId(v)),
                        b.pair_count(KeywordId(u), KeywordId(v))
                    );
                }
            }
        }
    }

    #[test]
    fn randomized_pair_count_bounded_by_keyword_counts() {
        let mut rng = DetRng::seed_from_u64(401);
        for _ in 0..16 {
            let n = 1 + rng.index(19);
            let docs = random_docs(&mut rng, n, 10, 5);
            let counts = PairCounter::in_memory().count(&docs).unwrap();
            for (u, v, c) in counts.iter_pairs() {
                assert!(c <= counts.keyword_count(u));
                assert!(c <= counts.keyword_count(v));
                assert!(counts.keyword_count(u) <= counts.num_documents());
            }
        }
    }
}
