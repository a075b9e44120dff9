//! Helper threads that outlive the call which first needs them.
//!
//! A [`Pool`] starts a fixed number of helper threads once, and
//! [`Pool::join`] is the one way a call hands them work. The caller posts
//! every chunk but its own, runs its own, then runs every posted chunk that
//! no helper has started yet (it steals it back), and waits only for the
//! chunks a helper is already running. So a call never waits for a thread
//! to start, never deadlocks when every helper is busy (with other callers'
//! chunks, or with a chunk that itself calls `join`), and on a pool with no
//! helper runs everything inline.
//!
//! A posted chunk owns what it reads (`'static`): a helper may still hold it
//! after the call that posted it has returned by a panic. A panic in a
//! chunk is caught where it ran and re-raised on the caller
//! ([`std::panic::resume_unwind`]), as [`std::thread::JoinHandle::join`]
//! hands one back. No lock here is held across a chunk, and a poisoned one
//! is read as it stands.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

/// A fixed set of helper threads that run the chunks [`Pool::join`] posts.
/// Dropping the pool lets its helpers exit once nothing is posted.
pub struct Pool {
    queue: Arc<Queue>,
    helpers: usize,
}

/// The chunks posted and not yet taken by a helper, oldest first.
#[derive(Default)]
struct Queue {
    held: Mutex<Posted>,
    wake: Condvar,
}

#[derive(Default)]
struct Posted {
    chunks: VecDeque<Arc<dyn Run>>,
    closed: bool,
}

/// A posted chunk, whatever its value's type.
trait Run: Send + Sync {
    /// Run the chunk, unless a thread has taken it already.
    fn run(&self);
}

/// One posted chunk: its work until a thread takes it, then its outcome.
struct Chunk<T> {
    work: Mutex<Option<Box<dyn FnOnce() -> T + Send>>>,
    outcome: Mutex<Option<thread::Result<T>>>,
    finished: Condvar,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<T: Send> Run for Chunk<T> {
    fn run(&self) {
        let work = lock(&self.work).take();
        if let Some(work) = work {
            let outcome = panic::catch_unwind(AssertUnwindSafe(work));
            *lock(&self.outcome) = Some(outcome);
            self.finished.notify_one();
        }
    }
}

impl<T> Chunk<T> {
    fn new(work: impl FnOnce() -> T + Send + 'static) -> Chunk<T> {
        Chunk {
            work: Mutex::new(Some(Box::new(work))),
            outcome: Mutex::new(None),
            finished: Condvar::new(),
        }
    }

    /// The chunk's value once a thread has run it, or its panic re-raised.
    fn wait(&self) -> T {
        let mut outcome = lock(&self.outcome);
        loop {
            match outcome.take() {
                Some(Ok(value)) => return value,
                Some(Err(panic)) => panic::resume_unwind(panic),
                None => {
                    outcome = self
                        .finished
                        .wait(outcome)
                        .unwrap_or_else(PoisonError::into_inner)
                }
            }
        }
    }
}

impl Queue {
    /// A helper's life: run what is posted, oldest first, until the pool
    /// is dropped and nothing is left.
    fn serve(&self) {
        loop {
            let mut held = lock(&self.held);
            let chunk = loop {
                match held.chunks.pop_front() {
                    Some(chunk) => break chunk,
                    None if held.closed => return,
                    None => held = self.wake.wait(held).unwrap_or_else(PoisonError::into_inner),
                }
            };
            drop(held);
            chunk.run();
        }
    }
}

impl Pool {
    /// A pool of `helpers` threads, all started now. A thread the system
    /// refuses to start is one helper fewer.
    pub fn new(helpers: usize) -> Pool {
        let queue = Arc::new(Queue::default());
        let started = (0..helpers).filter(|_| {
            let queue = Arc::clone(&queue);
            let helper = thread::Builder::new().name("bsc-pool".to_string());
            helper.spawn(move || queue.serve()).is_ok()
        });
        let helpers = started.count();
        Pool { queue, helpers }
    }

    /// Run `own` on this thread and every chunk of `posted` on a helper or,
    /// if no helper has started it by the time `own` returns, on this thread
    /// as well. Returns the values of `posted` in order, then `own`'s; a
    /// panic in any chunk is re-raised here.
    pub fn join<T, F>(&self, posted: impl IntoIterator<Item = F>, own: impl FnOnce() -> T) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let chunks: Vec<Arc<Chunk<T>>> = posted.into_iter().map(Chunk::new).map(Arc::new).collect();
        if self.helpers > 0 && !chunks.is_empty() {
            let erased = chunks.iter().map(|chunk| Arc::clone(chunk) as Arc<dyn Run>);
            lock(&self.queue.held).chunks.extend(erased);
            for _ in 0..chunks.len().min(self.helpers) {
                self.queue.wake.notify_one();
            }
        }
        let own = own();
        // Steal back what no helper has started, the last posted first.
        chunks.iter().rev().for_each(|chunk| chunk.run());
        let mut values: Vec<T> = chunks.iter().map(|chunk| chunk.wait()).collect();
        values.push(own);
        values
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        lock(&self.queue.held).closed = true;
        self.queue.wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Long enough that only a lost helper or a deadlock runs past it.
    const PATIENCE: Duration = Duration::from_secs(30);

    fn here() -> thread::ThreadId {
        thread::current().id()
    }

    #[test]
    fn a_pool_with_no_helper_runs_every_chunk_on_the_caller_in_order() {
        let pool = Pool::new(0);
        let caller = here();
        let posted = (0..4).map(|i| move || (i, here()));
        let values = pool.join(posted, || (4, here()));
        assert_eq!(values.len(), 5);
        for (i, (value, thread)) in values.into_iter().enumerate() {
            assert_eq!((value, thread), (i, caller));
        }
        assert_eq!(pool.join(Vec::<fn() -> u8>::new(), || 7), [7]);
    }

    #[test]
    fn a_chunk_no_helper_has_started_is_run_by_the_caller() {
        // The one helper is held by a chunk that waits to be released; the
        // next call's chunks cannot wait for it, so its caller runs them all
        // and returns while the helper is still busy.
        let pool = Arc::new(Pool::new(1));
        let (started, on_helper) = mpsc::channel();
        let (busy, helper_busy) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        let holder = {
            let pool = Arc::clone(&pool);
            thread::spawn(move || {
                let held = move || {
                    let _ = started.send(());
                    released.recv_timeout(PATIENCE).is_ok()
                };
                // This caller's own chunk returns once the helper has taken
                // the posted one, so it cannot steal it back.
                let own = || {
                    let taken = on_helper.recv_timeout(PATIENCE).is_ok();
                    let _ = busy.send(());
                    taken
                };
                pool.join([held], own)
            })
        };
        helper_busy.recv_timeout(PATIENCE).unwrap();
        let caller = here();
        let values = pool.join((0..3).map(|i| move || (i, here())), || (3, here()));
        assert_eq!(values, (0..4).map(|i| (i, caller)).collect::<Vec<_>>());
        release.send(()).unwrap();
        assert_eq!(holder.join().unwrap(), [true, true]);
    }

    #[test]
    fn a_panicking_chunk_re_raises_on_the_caller_and_the_helper_serves_on() {
        let pool = Pool::new(1);
        let (started, on_helper) = mpsc::channel();
        let boom = move || -> bool {
            let _ = started.send(());
            panic!("boom on a helper")
        };
        let call = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.join([boom], || on_helper.recv_timeout(PATIENCE).is_ok())
        }));
        let panic = call.expect_err("the helper's panic reaches the caller");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"boom on a helper"));
        // The same helper runs the next calls' chunks: each caller's own
        // chunk returns once a thread other than itself has run the posted
        // one (a lost helper would leave it to the caller, after a timeout).
        for _ in 0..3 {
            let (done, on_done) = mpsc::channel();
            let work = move || {
                let _ = done.send(());
                Some(here())
            };
            let own = || on_done.recv_timeout(PATIENCE).ok().map(|()| here());
            let values = pool.join([work], own);
            let caller = Some(here());
            assert_eq!(values[1], caller, "no helper ran the posted chunk");
            assert!(values[0].is_some() && values[0] != caller);
        }
    }

    #[test]
    fn a_panic_the_caller_steals_back_re_raises_too() {
        let pool = Pool::new(0);
        let call = panic::catch_unwind(|| pool.join([|| -> u8 { panic!("boom inline") }], || 1));
        let panic = call.expect_err("an inline chunk's panic reaches the caller");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"boom inline"));
    }
}
