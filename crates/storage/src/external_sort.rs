//! Bounded-memory external merge sort.
//!
//! Section 3 of the paper aggregates keyword pairs by writing every pair
//! occurrence to a file and sorting that file lexicographically "using
//! external memory merge sort" so that identical pairs become adjacent and
//! can be counted in a single pass. [`ExternalSorter`] implements exactly
//! that: it buffers records up to a memory budget, writes each buffer out as
//! a sorted run, and merges the runs with a k-way merge driven by a binary
//! heap.
//!
//! A run is a sequence of pages in a [`NodeStore`] over whichever
//! [`StorageBackend`] the caller passes, page `p` of run `r` under the key
//! `(r, p)`. A page holds `max(1, max_records_in_memory / merge_fan_in)`
//! records, so a merge of `merge_fan_in` runs holds at most one buffer of
//! records; a run reader deletes each page once it has read it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::backend::StorageBackend;
use crate::codec::{Decode, Encode};
use crate::node_store::NodeStore;
use crate::{Result, StorageError};

/// Configuration for an [`ExternalSorter`].
#[derive(Debug, Clone)]
pub struct SortConfig {
    /// Maximum number of records buffered in memory before a run is spilled.
    pub max_records_in_memory: usize,
    /// Maximum number of runs merged at once (fan-in). If more runs exist,
    /// intermediate merge passes are performed. Values below 2 are clamped
    /// to 2: a pass must merge at least two runs into one to make progress.
    pub merge_fan_in: usize,
}

impl Default for SortConfig {
    fn default() -> Self {
        SortConfig {
            max_records_in_memory: 1 << 20,
            merge_fan_in: 64,
        }
    }
}

impl SortConfig {
    /// A configuration with a small in-memory buffer, useful for exercising
    /// the spill-and-merge paths in tests.
    pub fn tiny() -> Self {
        SortConfig {
            max_records_in_memory: 16,
            merge_fan_in: 3,
        }
    }
}

/// The spill store: page `p` of run `r` under the key `(r, p)`.
type Pages<T> = NodeStore<(u32, u32), Vec<T>>;

/// A spilled run: `pages` pages under the run id `id`.
#[derive(Debug, Clone, Copy)]
struct Run {
    id: u32,
    pages: u32,
}

/// External merge sorter for records of type `T`.
///
/// ```
/// use bsc_storage::external_sort::{ExternalSorter, SortConfig};
/// use bsc_storage::StorageSpec;
///
/// let backend = StorageSpec::LogFile.open_temp("doc-sort").unwrap();
/// let mut sorter: ExternalSorter<u32> = ExternalSorter::new(SortConfig::tiny(), backend);
/// for v in [5u32, 3, 9, 1, 1, 7] {
///     sorter.push(v).unwrap();
/// }
/// let sorted: Vec<u32> = sorter.finish().unwrap().collect::<Result<_, _>>().unwrap();
/// assert_eq!(sorted, vec![1, 1, 3, 5, 7, 9]);
/// ```
#[derive(Debug)]
pub struct ExternalSorter<T> {
    config: SortConfig,
    /// Records per spilled page.
    page_len: usize,
    buffer: Vec<T>,
    runs: Vec<Run>,
    next_run: u32,
    store: Pages<T>,
    total_records: u64,
}

impl<T: Encode + Decode + Ord> ExternalSorter<T> {
    /// Create a sorter with the given configuration that spills its runs to
    /// `backend`.
    pub fn new(mut config: SortConfig, backend: Box<dyn StorageBackend>) -> Self {
        config.merge_fan_in = config.merge_fan_in.max(2);
        ExternalSorter {
            page_len: (config.max_records_in_memory / config.merge_fan_in).max(1),
            buffer: Vec::with_capacity(config.max_records_in_memory.min(1 << 16)),
            config,
            runs: Vec::new(),
            next_run: 0,
            store: NodeStore::with_backend(backend),
            total_records: 0,
        }
    }

    /// Add a record to be sorted.
    pub fn push(&mut self, record: T) -> Result<()> {
        self.buffer.push(record);
        self.total_records += 1;
        if self.buffer.len() >= self.config.max_records_in_memory {
            self.spill_run()?;
        }
        Ok(())
    }

    /// Total number of records pushed.
    pub fn len(&self) -> u64 {
        self.total_records
    }

    /// True if no records have been pushed.
    pub fn is_empty(&self) -> bool {
        self.total_records == 0
    }

    /// Number of runs spilled so far.
    pub fn spilled_runs(&self) -> usize {
        self.runs.len()
    }

    /// A writer for the next run id.
    fn run_writer(&mut self) -> Result<RunWriter<T>> {
        let id = self.next_run;
        self.next_run = next_id(id)?;
        Ok(RunWriter {
            run: Run { id, pages: 0 },
            page: Vec::with_capacity(self.page_len),
            page_len: self.page_len,
        })
    }

    fn spill_run(&mut self) -> Result<()> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        self.buffer.sort_unstable();
        let mut run = self.run_writer()?;
        for record in self.buffer.drain(..) {
            run.push(&mut self.store, record)?;
        }
        self.runs.push(run.finish(&mut self.store)?);
        Ok(())
    }

    /// Finish pushing records and return an iterator over them in sorted
    /// order.
    pub fn finish(mut self) -> Result<SortedIter<T>> {
        // If everything fit in memory, sort the buffer and avoid disk I/O.
        if self.runs.is_empty() {
            self.buffer.sort_unstable();
            return Ok(SortedIter(Sorted::InMemory(self.buffer.into_iter())));
        }
        self.spill_run()?;
        // Reduce the number of runs to the fan-in with intermediate passes;
        // each pass replaces `fan_in >= 2` runs with one.
        let fan_in = self.config.merge_fan_in;
        while self.runs.len() > fan_in {
            let group: Vec<Run> = self.runs.drain(..fan_in).collect();
            let mut merge = KWayMerge::new(group, &mut self.store)?;
            let mut merged = self.run_writer()?;
            while let Some(record) = merge.next_record(&mut self.store)? {
                merged.push(&mut self.store, record)?;
            }
            self.runs.push(merged.finish(&mut self.store)?);
        }
        let merge = KWayMerge::new(self.runs, &mut self.store)?;
        Ok(SortedIter(Sorted::Merged(merge, self.store)))
    }
}

/// Iterator over the sorted output of an [`ExternalSorter`].
pub struct SortedIter<T>(Sorted<T>);

enum Sorted<T> {
    /// Everything fit in memory.
    InMemory(std::vec::IntoIter<T>),
    /// Streaming k-way merge over the spilled runs, and the store holding
    /// them (dropped, with its scratch files, with the iterator).
    Merged(KWayMerge<T>, Pages<T>),
}

impl<T: Encode + Decode> SortedIter<T> {
    /// The backend the runs spilled to (for I/O accounting), or `None` when
    /// everything fit in memory.
    pub fn backend(&self) -> Option<&dyn StorageBackend> {
        match &self.0 {
            Sorted::InMemory(_) => None,
            Sorted::Merged(_, store) => Some(store.backend()),
        }
    }
}

impl<T: Encode + Decode + Ord> Iterator for SortedIter<T> {
    type Item = Result<T>;

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.0 {
            Sorted::InMemory(iter) => iter.next().map(Ok),
            Sorted::Merged(merge, store) => merge.next_record(store).transpose(),
        }
    }
}

impl<T> std::fmt::Debug for SortedIter<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Sorted::InMemory(_) => write!(f, "SortedIter::InMemory"),
            Sorted::Merged(merge, _) => write!(f, "SortedIter::Merged({} runs)", merge.runs.len()),
        }
    }
}

/// The run or page number after `id`; an error rather than a wrapped key
/// that would overwrite a live page.
fn next_id(id: u32) -> Result<u32> {
    id.checked_add(1).ok_or_else(|| {
        StorageError::Io(std::io::Error::other("external sort: too many spill pages"))
    })
}

/// Appends records to one run, a page at a time.
struct RunWriter<T> {
    run: Run,
    page: Vec<T>,
    page_len: usize,
}

impl<T: Encode + Decode> RunWriter<T> {
    fn push(&mut self, store: &mut Pages<T>, record: T) -> Result<()> {
        self.page.push(record);
        if self.page.len() == self.page_len {
            self.flush(store)?;
        }
        Ok(())
    }

    fn flush(&mut self, store: &mut Pages<T>) -> Result<()> {
        if !self.page.is_empty() {
            store.put(&(self.run.id, self.run.pages), &self.page)?;
            self.run.pages = next_id(self.run.pages)?;
            self.page.clear();
        }
        Ok(())
    }

    fn finish(mut self, store: &mut Pages<T>) -> Result<Run> {
        self.flush(store)?;
        Ok(self.run)
    }
}

/// Reads one run back in order, deleting each page once it is read.
struct RunReader<T> {
    run: Run,
    next_page: u32,
    page: std::vec::IntoIter<T>,
}

impl<T: Encode + Decode> RunReader<T> {
    fn new(run: Run) -> Self {
        RunReader {
            run,
            next_page: 0,
            page: Vec::new().into_iter(),
        }
    }

    fn read(&mut self, store: &mut Pages<T>) -> Result<Option<T>> {
        loop {
            if let Some(record) = self.page.next() {
                return Ok(Some(record));
            }
            if self.next_page == self.run.pages {
                return Ok(None);
            }
            let key = (self.run.id, self.next_page);
            self.page = store.get_required(&key)?.into_iter();
            store.delete(&key)?;
            self.next_page += 1;
        }
    }
}

struct HeapEntry<T> {
    record: T,
    source: usize,
}

impl<T: Ord> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.record == other.record && self.source == other.source
    }
}
impl<T: Ord> Eq for HeapEntry<T> {}
impl<T: Ord> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T: Ord> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.record
            .cmp(&other.record)
            .then(self.source.cmp(&other.source))
    }
}

/// Streaming k-way merge over sorted runs.
struct KWayMerge<T> {
    runs: Vec<RunReader<T>>,
    heap: BinaryHeap<Reverse<HeapEntry<T>>>,
}

impl<T: Encode + Decode + Ord> KWayMerge<T> {
    /// Prime the merge heap with the first record of every run.
    fn new(runs: Vec<Run>, store: &mut Pages<T>) -> Result<Self> {
        let mut runs: Vec<RunReader<T>> = runs.into_iter().map(RunReader::new).collect();
        let mut heap = BinaryHeap::with_capacity(runs.len());
        for (source, run) in runs.iter_mut().enumerate() {
            if let Some(record) = run.read(store)? {
                heap.push(Reverse(HeapEntry { record, source }));
            }
        }
        Ok(KWayMerge { runs, heap })
    }

    /// Produce the next record in globally sorted order.
    fn next_record(&mut self, store: &mut Pages<T>) -> Result<Option<T>> {
        let Some(Reverse(entry)) = self.heap.pop() else {
            return Ok(None);
        };
        if let Some(next) = self.runs[entry.source].read(store)? {
            self.heap.push(Reverse(HeapEntry {
                record: next,
                source: entry.source,
            }));
        }
        Ok(Some(entry.record))
    }
}

/// Sort records and group identical consecutive ones, invoking `f` with each
/// distinct record and its multiplicity. This is the paper's "sort the pair
/// file, then count identical adjacent pairs" aggregation in one call.
pub fn sort_and_count<T, F>(sorter: ExternalSorter<T>, mut f: F) -> Result<()>
where
    T: Encode + Decode + Ord + Clone,
    F: FnMut(T, u64),
{
    let mut iter = sorter.finish()?;
    let mut current: Option<(T, u64)> = None;
    while let Some(record) = iter.next().transpose()? {
        match &mut current {
            Some((value, count)) if *value == record => *count += 1,
            Some((value, count)) => {
                f(value.clone(), *count);
                current = Some((record, 1));
            }
            None => current = Some((record, 1)),
        }
    }
    if let Some((value, count)) = current {
        f(value, count);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::StorageSpec;
    use bsc_util::DetRng;

    fn spill() -> Box<dyn StorageBackend> {
        StorageSpec::LogFile.open_temp("extsort").unwrap()
    }

    fn sort_via_external(values: Vec<(u32, u32)>, config: SortConfig) -> Vec<(u32, u32)> {
        let mut sorter = ExternalSorter::new(config, spill());
        for v in &values {
            sorter.push(*v).unwrap();
        }
        sorter
            .finish()
            .unwrap()
            .collect::<Result<Vec<_>>>()
            .unwrap()
    }

    #[test]
    fn in_memory_path_sorts() {
        let values = vec![(3u32, 1u32), (1, 2), (2, 0), (1, 1)];
        let sorted = sort_via_external(values.clone(), SortConfig::default());
        let mut expected = values;
        expected.sort();
        assert_eq!(sorted, expected);
    }

    #[test]
    fn spilled_path_sorts() {
        let values: Vec<(u32, u32)> = (0..200).map(|i| ((997 * i) % 101, i)).collect();
        let config = SortConfig::tiny();
        let mut sorter = ExternalSorter::new(config, spill());
        for v in &values {
            sorter.push(*v).unwrap();
        }
        assert!(sorter.spilled_runs() > 3, "expected multiple spill runs");
        let sorted: Vec<(u32, u32)> = sorter
            .finish()
            .unwrap()
            .collect::<Result<Vec<_>>>()
            .unwrap();
        let mut expected = values;
        expected.sort();
        assert_eq!(sorted, expected);
    }

    #[test]
    fn empty_input() {
        let sorted = sort_via_external(vec![], SortConfig::tiny());
        assert!(sorted.is_empty());
    }

    #[test]
    fn sort_and_count_aggregates_duplicates() {
        let mut sorter: ExternalSorter<(u32, u32)> =
            ExternalSorter::new(SortConfig::tiny(), spill());
        for _ in 0..5 {
            sorter.push((1, 2)).unwrap();
        }
        for _ in 0..3 {
            sorter.push((0, 9)).unwrap();
        }
        sorter.push((7, 7)).unwrap();
        let mut counts = Vec::new();
        sort_and_count(sorter, |pair, count| counts.push((pair, count))).unwrap();
        assert_eq!(counts, vec![((0, 9), 3), ((1, 2), 5), ((7, 7), 1)]);
    }

    #[test]
    fn merge_fan_in_respected_with_many_runs() {
        let config = SortConfig {
            max_records_in_memory: 4,
            merge_fan_in: 2,
        };
        let values: Vec<(u32, u32)> = (0..100).map(|i| (100 - i, i)).collect();
        let sorted = sort_via_external(values.clone(), config);
        let mut expected = values;
        expected.sort();
        assert_eq!(sorted, expected);
    }

    /// A fan-in below 2 is clamped: a pass that merged one run into one (or
    /// none into an empty run) would never reduce the run count.
    #[test]
    fn fan_in_below_two_is_clamped_and_terminates() {
        let values: Vec<(u32, u32)> = (0..6).map(|i| (6 - i, i)).collect();
        let mut expected = values.clone();
        expected.sort();
        for merge_fan_in in [0, 1] {
            let config = SortConfig {
                max_records_in_memory: 2,
                merge_fan_in,
            };
            let mut sorter = ExternalSorter::new(config, spill());
            for v in &values {
                sorter.push(*v).unwrap();
            }
            assert_eq!(sorter.spilled_runs(), 3, "fan-in {merge_fan_in}");
            let sorted: Vec<(u32, u32)> = sorter
                .finish()
                .unwrap()
                .collect::<Result<Vec<_>>>()
                .unwrap();
            assert_eq!(sorted, expected, "fan-in {merge_fan_in}");
        }
    }

    #[test]
    fn merged_pages_are_deleted_once_read() {
        let mut sorter = ExternalSorter::new(SortConfig::tiny(), spill());
        for v in (0..100u32).rev() {
            sorter.push(v).unwrap();
        }
        let mut iter = sorter.finish().unwrap();
        let sorted: Vec<u32> = iter.by_ref().collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        let backend = iter.backend().expect("100 records at 16 per buffer spill");
        assert!(backend.is_empty(), "every page read must be deleted");
        let io = backend.io_snapshot();
        assert!(io.read_ops > 0 && io.write_ops > 0, "{io:?}");
    }

    #[test]
    fn randomized_matches_in_memory_sort() {
        let mut rng = DetRng::seed_from_u64(200);
        for _ in 0..16 {
            let len = rng.index(300);
            let values: Vec<(u32, u32)> =
                (0..len).map(|_| (rng.next_u32(), rng.next_u32())).collect();
            let external = sort_via_external(values.clone(), SortConfig::tiny());
            let mut expected = values;
            expected.sort();
            assert_eq!(external, expected);
        }
    }

    #[test]
    fn randomized_count_totals_match() {
        let mut rng = DetRng::seed_from_u64(201);
        for _ in 0..16 {
            let len = rng.index(200);
            let values: Vec<u32> = (0..len).map(|_| rng.next_u32() % 10).collect();
            let mut sorter: ExternalSorter<u32> = ExternalSorter::new(SortConfig::tiny(), spill());
            for v in &values {
                sorter.push(*v).unwrap();
            }
            let mut total = 0u64;
            sort_and_count(sorter, |_, count| total += count).unwrap();
            assert_eq!(total, values.len() as u64);
        }
    }
}
