//! The engine's bounded, two-lane admission queue.
//!
//! PR 5's engine used a plain `mpsc::sync_channel` as its admission queue:
//! bounded, FIFO, and completely flat — a burst from one tenant's batch jobs
//! delayed every interactive query behind it. [`AdmissionQueue`] replaces it
//! with the minimal QoS structure the multi-tenant engine needs:
//!
//! * **Two priority lanes** ([`QueryPriority::High`] and
//!   [`QueryPriority::Normal`]), FIFO within each lane, sharing one bounded
//!   capacity. A push waits on the condvar for a slot until a deadline
//!   ([`AdmissionQueue::push_until`]) or sheds at once (`try_push`).
//! * **A deterministic starvation bound**: the high lane is preferred, but
//!   after [`HIGH_LANE_BURST`] consecutive high-lane pops one normal-lane
//!   item is served (when present). A normal-lane item with `w` items ahead
//!   of it in its lane is therefore dequeued within
//!   `(w + 1) * (HIGH_LANE_BURST + 1)` pops no matter how much high-priority
//!   traffic arrives.
//!
//! The queue is a plain `Mutex` + `Condvar` over two `VecDeque`s — no
//! lock-free cleverness. Admission is never the hot path (solves dominate by
//! orders of magnitude); what matters here is that the policy is simple
//! enough to state exactly and test deterministically.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use bsc_core::solver::QueryPriority;

/// Consecutive high-lane pops allowed before a waiting normal-lane item is
/// served. This is the knob behind the starvation bound documented on
/// [`AdmissionQueue`]; it is a constant, not a config field, because the
/// bound's *existence* is the contract — tuning it has never mattered at the
/// queue depths the engine runs (≤ a few hundred).
pub const HIGH_LANE_BURST: usize = 4;

/// Why a push was refused, carrying the item back to the caller.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity (shed or retry — the caller's choice).
    Full(T),
    /// The queue was closed by [`AdmissionQueue::close`]; it will never
    /// accept another item.
    Closed(T),
}

struct Lanes<T> {
    high: VecDeque<T>,
    normal: VecDeque<T>,
    /// Consecutive high-lane pops since the last normal-lane pop.
    high_streak: usize,
    closed: bool,
}

impl<T> Lanes<T> {
    fn len(&self) -> usize {
        self.high.len() + self.normal.len()
    }
}

/// A bounded two-lane priority queue. See the module docs for the policy.
pub struct AdmissionQueue<T> {
    lanes: Mutex<Lanes<T>>,
    cond: Condvar,
    capacity: usize,
}

impl<T> AdmissionQueue<T> {
    /// An empty queue holding at most `capacity` items across both lanes.
    pub fn new(capacity: usize) -> AdmissionQueue<T> {
        AdmissionQueue {
            lanes: Mutex::new(Lanes {
                high: VecDeque::new(),
                normal: VecDeque::new(),
                high_streak: 0,
                closed: false,
            }),
            cond: Condvar::new(),
            capacity,
        }
    }

    /// The shared capacity both lanes draw from.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, Lanes<T>> {
        self.lanes.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Enqueue without blocking: a full queue returns
    /// [`PushError::Full`] (back-pressure), a closed one
    /// [`PushError::Closed`] — both hand the item back.
    pub fn try_push(&self, item: T, priority: QueryPriority) -> Result<(), PushError<T>> {
        self.push_until(item, priority, Some(Instant::now()))
    }

    /// Enqueue, waiting while the queue is full until `deadline` (`None`:
    /// for as long as it takes). A queue still full at the deadline returns
    /// [`PushError::Full`]; a queue that is (or becomes) closed
    /// [`PushError::Closed`] — both hand the item back.
    pub fn push_until(
        &self,
        item: T,
        priority: QueryPriority,
        deadline: Option<Instant>,
    ) -> Result<(), PushError<T>> {
        let mut lanes = self.locked();
        while !lanes.closed && lanes.len() >= self.capacity {
            let left = deadline.map(|at| at.saturating_duration_since(Instant::now()));
            lanes = match left {
                None => self.cond.wait(lanes).unwrap_or_else(|p| p.into_inner()),
                Some(left) if left.is_zero() => return Err(PushError::Full(item)),
                Some(left) => match self.cond.wait_timeout(lanes, left) {
                    Ok((lanes, _)) => lanes,
                    Err(poisoned) => poisoned.into_inner().0,
                },
            };
        }
        if lanes.closed {
            return Err(PushError::Closed(item));
        }
        match priority {
            QueryPriority::High => lanes.high.push_back(item),
            QueryPriority::Normal => lanes.normal.push_back(item),
        }
        drop(lanes);
        self.cond.notify_all();
        Ok(())
    }

    /// Dequeue the next item under the lane policy, blocking while the queue
    /// is empty and open. Returns `None` only when the queue is closed
    /// **and** drained — items enqueued before [`AdmissionQueue::close`]
    /// are still handed out afterwards, so workers can fail them fast
    /// instead of dropping them on the floor.
    pub fn pop(&self) -> Option<T> {
        let mut lanes = self.locked();
        loop {
            if lanes.len() > 0 {
                let item = Self::pop_policy(&mut lanes);
                drop(lanes);
                // A slot just freed: wake blocked pushers (and any other
                // poppers racing for remaining items).
                self.cond.notify_all();
                return item;
            }
            if lanes.closed {
                return None;
            }
            lanes = self.cond.wait(lanes).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// The lane policy, applied to a non-empty queue: prefer the high lane,
    /// but serve the normal lane once every [`HIGH_LANE_BURST`] + 1 pops
    /// when it has a waiter.
    fn pop_policy(lanes: &mut Lanes<T>) -> Option<T> {
        let serve_normal = !lanes.normal.is_empty()
            && (lanes.high.is_empty() || lanes.high_streak >= HIGH_LANE_BURST);
        if serve_normal {
            lanes.high_streak = 0;
            lanes.normal.pop_front()
        } else {
            lanes.high_streak += 1;
            lanes.high.pop_front()
        }
    }

    /// Close the queue: pushes start failing, poppers drain what is left
    /// and then read `None`. Idempotent.
    pub fn close(&self) {
        self.locked().closed = true;
        self.cond.notify_all();
    }

    /// True once [`AdmissionQueue::close`] has run.
    pub fn is_closed(&self) -> bool {
        self.locked().closed
    }

    /// Items currently queued across both lanes.
    pub fn len(&self) -> usize {
        self.locked().len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(queue: &AdmissionQueue<u32>, item: u32, priority: QueryPriority) {
        queue
            .try_push(item, priority)
            .expect("push within capacity");
    }

    #[test]
    fn fifo_within_a_lane() {
        let queue = AdmissionQueue::new(8);
        for i in 0..4 {
            push(&queue, i, QueryPriority::Normal);
        }
        for i in 0..4 {
            assert_eq!(queue.pop(), Some(i));
        }
    }

    #[test]
    fn high_lane_is_served_first() {
        let queue = AdmissionQueue::new(8);
        push(&queue, 0, QueryPriority::Normal);
        push(&queue, 1, QueryPriority::High);
        push(&queue, 2, QueryPriority::High);
        assert_eq!(queue.pop(), Some(1));
        assert_eq!(queue.pop(), Some(2));
        assert_eq!(queue.pop(), Some(0));
    }

    #[test]
    fn the_normal_lane_is_never_starved() {
        // Keep the high lane non-empty for the whole run; the normal item
        // must still surface within HIGH_LANE_BURST + 1 pops.
        let queue = AdmissionQueue::new(64);
        push(&queue, 999, QueryPriority::Normal);
        for i in 0..32 {
            push(&queue, i, QueryPriority::High);
        }
        let mut pops = 0;
        loop {
            pops += 1;
            if queue.pop() == Some(999) {
                break;
            }
            assert!(
                pops <= HIGH_LANE_BURST + 1,
                "normal-lane item starved for {pops} pops"
            );
        }
        assert_eq!(pops, HIGH_LANE_BURST + 1);
    }

    #[test]
    fn the_streak_resets_after_a_normal_pop() {
        let queue = AdmissionQueue::new(64);
        for i in 0..20 {
            push(&queue, i, QueryPriority::High);
        }
        push(&queue, 100, QueryPriority::Normal);
        push(&queue, 101, QueryPriority::Normal);
        let mut order = Vec::new();
        while let Some(item) = {
            if queue.is_empty() {
                None
            } else {
                queue.pop()
            }
        } {
            order.push(item);
        }
        // Exactly one normal item per HIGH_LANE_BURST high pops.
        let first_normal = order.iter().position(|&i| i == 100).unwrap();
        let second_normal = order.iter().position(|&i| i == 101).unwrap();
        assert_eq!(first_normal, HIGH_LANE_BURST);
        assert_eq!(second_normal, 2 * HIGH_LANE_BURST + 1);
    }

    #[test]
    fn capacity_is_shared_across_lanes() {
        let queue = AdmissionQueue::new(2);
        push(&queue, 0, QueryPriority::High);
        push(&queue, 1, QueryPriority::Normal);
        assert!(matches!(
            queue.try_push(2, QueryPriority::High),
            Err(PushError::Full(2))
        ));
        assert_eq!(queue.len(), 2);
    }

    #[test]
    fn close_drains_then_ends() {
        let queue = AdmissionQueue::new(8);
        push(&queue, 7, QueryPriority::Normal);
        queue.close();
        assert!(queue.is_closed());
        assert!(matches!(
            queue.try_push(8, QueryPriority::Normal),
            Err(PushError::Closed(8))
        ));
        assert!(matches!(
            queue.push_until(9, QueryPriority::High, None),
            Err(PushError::Closed(9))
        ));
        assert_eq!(queue.pop(), Some(7));
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn pop_blocks_until_a_push_arrives() {
        let queue = std::sync::Arc::new(AdmissionQueue::new(4));
        let popper = {
            let queue = std::sync::Arc::clone(&queue);
            std::thread::spawn(move || queue.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        push(&queue, 42, QueryPriority::Normal);
        assert_eq!(popper.join().unwrap(), Some(42));
    }

    #[test]
    fn push_until_waits_for_a_slot_until_its_deadline() {
        use std::sync::Arc;
        use std::time::Duration;
        let full = || {
            let queue = Arc::new(AdmissionQueue::new(1));
            push(&queue, 1, QueryPriority::Normal);
            queue
        };
        let waiting = |queue: &Arc<AdmissionQueue<u32>>, deadline: Option<Instant>| {
            let queue = Arc::clone(queue);
            std::thread::spawn(move || queue.push_until(2, QueryPriority::Normal, deadline))
        };
        // Nothing frees a slot: `Full` at the deadline, not before.
        let queue = full();
        let begun = Instant::now();
        let deadline = begun + Duration::from_millis(20);
        let outcome = queue.push_until(2, QueryPriority::Normal, Some(deadline));
        assert!(matches!(outcome, Err(PushError::Full(2))));
        assert!(Instant::now() >= deadline);
        assert_eq!(queue.len(), 1);
        // A pop before the deadline frees the slot the waiter takes.
        for deadline in [None, Some(Instant::now() + Duration::from_secs(60))] {
            let queue = full();
            let pusher = waiting(&queue, deadline);
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(queue.pop(), Some(1));
            assert!(matches!(pusher.join().unwrap(), Ok(())));
            assert_eq!(queue.pop(), Some(2));
        }
        // Closing the queue ends the wait with the item handed back.
        for deadline in [None, Some(Instant::now() + Duration::from_secs(60))] {
            let queue = full();
            let pusher = waiting(&queue, deadline);
            std::thread::sleep(Duration::from_millis(20));
            queue.close();
            assert!(matches!(pusher.join().unwrap(), Err(PushError::Closed(2))));
        }
    }
}
