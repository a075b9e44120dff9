//! A stack that spills to secondary storage beyond a memory budget.
//!
//! The biconnected-component algorithm (Algorithm 1) keeps edges on a stack;
//! the paper notes that "since the data structure in memory is a stack with
//! well defined access patterns, it can be efficiently paged to secondary
//! storage if its size exceeds available resources". [`PagedStack`] does
//! exactly that: the hot top of the stack lives in memory, and when the
//! in-memory portion exceeds a configurable number of entries the cold bottom
//! half is written out as one page. Page `i` is key `i` of a
//! [`NodeStore`] over whichever [`StorageBackend`] the caller passes, so a
//! spill is one `put`, an unspill one `get` and one `delete`, and the pages
//! share the log format, fault injection and I/O accounting of every other
//! store.

use crate::backend::{InMemoryBackend, StorageBackend};
use crate::codec::{Decode, Encode};
use crate::node_store::NodeStore;
use crate::Result;

/// A LIFO stack whose cold bottom spills to a [`StorageBackend`].
#[derive(Debug)]
pub struct PagedStack<T> {
    /// In-memory (hot) suffix of the stack; the logical top is at the back.
    hot: Vec<T>,
    /// Spilled pages, keyed by page number; the newest page has the highest.
    store: NodeStore<u64, Vec<T>>,
    /// Number of pages currently spilled (keys `0..pages`).
    pages: u64,
    max_hot: usize,
    spill_batch: usize,
    total_len: usize,
    spills: u64,
    unspills: u64,
}

impl<T: Encode + Decode> PagedStack<T> {
    /// Create a stack that keeps at most `max_hot` entries in memory and
    /// spills to `backend`.
    ///
    /// When the hot portion exceeds `max_hot`, the oldest half of the hot
    /// entries is written out as one page.
    pub fn new(max_hot: usize, backend: Box<dyn StorageBackend>) -> Self {
        let max_hot = max_hot.max(2);
        PagedStack {
            hot: Vec::new(),
            store: NodeStore::with_backend(backend),
            pages: 0,
            max_hot,
            spill_batch: max_hot / 2,
            total_len: 0,
            spills: 0,
            unspills: 0,
        }
    }

    /// A stack that never spills (purely in-memory).
    pub fn unbounded() -> Self {
        let mut stack = Self::new(0, Box::new(InMemoryBackend::new()));
        stack.max_hot = usize::MAX;
        stack
    }

    /// Number of elements on the stack.
    pub fn len(&self) -> usize {
        self.total_len
    }

    /// True if the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.total_len == 0
    }

    /// Number of pages spilled over the lifetime of the stack.
    pub fn spill_count(&self) -> u64 {
        self.spills
    }

    /// Number of pages read back over the lifetime of the stack.
    pub fn unspill_count(&self) -> u64 {
        self.unspills
    }

    /// The backend the pages spill to (for I/O accounting).
    pub fn backend(&self) -> &dyn StorageBackend {
        self.store.backend()
    }

    /// Push a value on the stack.
    pub fn push(&mut self, value: T) -> Result<()> {
        self.hot.push(value);
        self.total_len += 1;
        if self.hot.len() > self.max_hot {
            self.spill()?;
        }
        Ok(())
    }

    /// Pop the top value, or `None` if the stack is empty.
    pub fn pop(&mut self) -> Result<Option<T>> {
        if self.hot.is_empty() {
            self.unspill()?;
        }
        let value = self.hot.pop();
        if value.is_some() {
            self.total_len -= 1;
        }
        Ok(value)
    }

    /// Peek at the top value without removing it.
    pub fn peek(&mut self) -> Result<Option<&T>> {
        if self.hot.is_empty() {
            self.unspill()?;
        }
        Ok(self.hot.last())
    }

    /// Write the *bottom* (oldest) part of the hot vector out as the next
    /// page, preserving order so that unspilling restores LIFO semantics.
    fn spill(&mut self) -> Result<()> {
        let cold: Vec<T> = self.hot.drain(..self.spill_batch).collect();
        self.store.put(&self.pages, &cold)?;
        self.pages += 1;
        self.spills += 1;
        Ok(())
    }

    /// Read the newest page back underneath the hot elements (it is older
    /// than anything currently hot) and delete it from the store.
    fn unspill(&mut self) -> Result<()> {
        let Some(page) = self.pages.checked_sub(1) else {
            return Ok(());
        };
        let mut restored = self.store.get_required(&page)?;
        self.store.delete(&page)?;
        self.pages = page;
        restored.append(&mut self.hot);
        self.hot = restored;
        self.unspills += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::StorageSpec;
    use bsc_util::DetRng;

    fn spilling<T: Encode + Decode>(max_hot: usize) -> PagedStack<T> {
        PagedStack::new(
            max_hot,
            StorageSpec::LogFile.open_temp("pagedstack").unwrap(),
        )
    }

    #[test]
    fn lifo_order_without_spilling() {
        let mut stack: PagedStack<u32> = PagedStack::unbounded();
        for i in 0..10 {
            stack.push(i).unwrap();
        }
        for i in (0..10).rev() {
            assert_eq!(stack.pop().unwrap(), Some(i));
        }
        assert!(stack.pop().unwrap().is_none());
        assert_eq!(stack.spill_count(), 0);
    }

    #[test]
    fn lifo_order_with_spilling() {
        let mut stack: PagedStack<u64> = spilling(8);
        for i in 0..1000u64 {
            stack.push(i).unwrap();
        }
        assert!(stack.spill_count() > 0, "stack should have spilled");
        for i in (0..1000u64).rev() {
            assert_eq!(stack.pop().unwrap(), Some(i), "mismatch at {i}");
        }
        assert!(stack.pop().unwrap().is_none());
        assert!(stack.unspill_count() > 0);
        // Every page read back was deleted: the store holds nothing live.
        assert!(stack.backend().is_empty());
        let io = stack.backend().io_snapshot();
        assert!(io.read_ops > 0 && io.write_ops > 0, "{io:?}");
    }

    #[test]
    fn interleaved_push_pop_with_spilling() {
        let mut stack: PagedStack<u32> = spilling(4);
        let mut model: Vec<u32> = Vec::new();
        for round in 0..50u32 {
            for i in 0..5 {
                let v = round * 10 + i;
                stack.push(v).unwrap();
                model.push(v);
            }
            for _ in 0..3 {
                assert_eq!(stack.pop().unwrap(), model.pop());
            }
            assert_eq!(stack.len(), model.len());
        }
        while let Some(expected) = model.pop() {
            assert_eq!(stack.pop().unwrap(), Some(expected));
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut stack: PagedStack<u32> = spilling(2);
        for i in 0..20 {
            stack.push(i).unwrap();
        }
        assert_eq!(stack.peek().unwrap().copied(), Some(19));
        assert_eq!(stack.len(), 20);
        assert_eq!(stack.pop().unwrap(), Some(19));
    }

    #[test]
    fn tuple_payloads() {
        let mut stack: PagedStack<(u32, u32, f64)> = spilling(3);
        for i in 0..100u32 {
            stack.push((i, i + 1, i as f64 * 0.5)).unwrap();
        }
        for i in (0..100u32).rev() {
            assert_eq!(stack.pop().unwrap(), Some((i, i + 1, i as f64 * 0.5)));
        }
    }

    #[test]
    fn randomized_behaves_like_vec() {
        let mut rng = DetRng::seed_from_u64(300);
        for round in 0..8 {
            let spec = StorageSpec::ALL[round % StorageSpec::ALL.len()];
            let mut stack: PagedStack<u16> = PagedStack::new(5, spec.open_temp("ps").unwrap());
            let mut model: Vec<u16> = Vec::new();
            for _ in 0..rng.index(400) {
                if rng.chance(0.6) {
                    let v = rng.next_u32() as u16;
                    stack.push(v).unwrap();
                    model.push(v);
                } else {
                    assert_eq!(stack.pop().unwrap(), model.pop(), "{spec}");
                }
                assert_eq!(stack.len(), model.len(), "{spec}");
            }
            while let Some(expected) = model.pop() {
                assert_eq!(stack.pop().unwrap(), Some(expected), "{spec}");
            }
            assert!(stack.pop().unwrap().is_none(), "{spec}");
        }
    }
}
