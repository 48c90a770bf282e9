//! A capacity-bounded single-producer/single-consumer ring: the *bounded
//! private queue*.
//!
//! The paper's private queues (§3.1) are unbounded: a client can log calls
//! faster than a slow handler executes them, growing memory without limit.
//! This module adds the production-scale variant: a fixed-capacity ring
//! buffer whose producer side offers both a non-blocking
//! [`try_push`](BoundedSpscProducer::try_push) and a blocking
//! [`push`](BoundedSpscProducer::push) (spin-then-park *backpressure*: the
//! client is throttled to the handler's pace instead of queueing unbounded
//! work), and whose consumer side polls and drains *batches*
//! ([`try_drain_batch`](BoundedSpscConsumer::try_drain_batch)) so the handler
//! pays the queue-crossing cost once per batch instead of once per request.
//!
//! The ring keeps the SPSC discipline of the unbounded queue: the producer
//! owns the tail sequence, the consumer owns the head sequence, and each
//! side publishes its cursor with release ordering, so the hot path is two
//! atomic loads and one atomic store per operation — no locks, no CAS.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use qs_sync::{Backoff, CachePadded, Parker};

use crate::{BlockWatcher, Closed};

/// Error returned by [`BoundedSpscProducer::try_push`] when the ring is at
/// capacity; the rejected value is handed back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub struct Full<T>(pub T);

impl<T> std::fmt::Display for Full<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("queue is at capacity")
    }
}

/// Shared state of the bounded SPSC ring.
pub struct BoundedSpsc<T> {
    /// Fixed slot array; slot `seq % capacity` holds the item with sequence
    /// number `seq`.
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Monotonically increasing consumer cursor: everything below `head` has
    /// been dequeued.
    head: CachePadded<AtomicUsize>,
    /// Monotonically increasing producer cursor: everything below `tail` has
    /// been enqueued.  Invariant: `tail - head <= capacity`.
    tail: CachePadded<AtomicUsize>,
    /// Set once the producer closes the queue (END of the separate block).
    closed: AtomicBool,
    /// Set when the consumer half is dropped without draining the queue:
    /// nobody will ever make space again, so the producer must not block.
    abandoned: AtomicBool,
    /// Number of blocking pushes that had to wait for space (statistics).
    stalls: AtomicUsize,
    /// Parked producer thread waiting for space, if any.
    producer: Parker,
}

// SAFETY: the producer/consumer handles enforce single-threaded access to
// each cursor; values of `T` move across threads, requiring `T: Send`.
unsafe impl<T: Send> Send for BoundedSpsc<T> {}
unsafe impl<T: Send> Sync for BoundedSpsc<T> {}

/// Producer (client) half of the bounded private queue.
pub struct BoundedSpscProducer<T> {
    queue: Arc<BoundedSpsc<T>>,
}

/// Consumer (handler) half of the bounded private queue.
pub struct BoundedSpscConsumer<T> {
    queue: Arc<BoundedSpsc<T>>,
}

/// Creates a bounded SPSC ring holding at most `capacity` items.
///
/// # Panics
///
/// Panics if `capacity` is zero.
pub fn bounded_spsc_channel<T>(
    capacity: usize,
) -> (BoundedSpscProducer<T>, BoundedSpscConsumer<T>) {
    assert!(capacity > 0, "a bounded queue needs capacity >= 1");
    let slots = (0..capacity)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let queue = Arc::new(BoundedSpsc {
        slots,
        head: CachePadded::new(AtomicUsize::new(0)),
        tail: CachePadded::new(AtomicUsize::new(0)),
        closed: AtomicBool::new(false),
        abandoned: AtomicBool::new(false),
        stalls: AtomicUsize::new(0),
        producer: Parker::new(),
    });
    (
        BoundedSpscProducer {
            queue: Arc::clone(&queue),
        },
        BoundedSpscConsumer { queue },
    )
}

impl<T> BoundedSpsc<T> {
    /// Maximum number of items the ring can hold.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Current number of queued items (racy snapshot).
    ///
    /// Never exceeds [`capacity`](Self::capacity) *because the ring is
    /// correct*, not by clamping: `tail` is loaded before `head`, and `head`
    /// only grows, so the difference is at most the capacity the producer
    /// respected at enqueue time.  Tests rely on this being a genuine
    /// observation of the bound.
    pub fn len(&self) -> usize {
        let tail = self.tail.load(Ordering::Acquire);
        let head = self.head.load(Ordering::Acquire);
        tail.saturating_sub(head)
    }

    /// Returns `true` if no items are currently queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` while the ring is at capacity (racy snapshot, like
    /// [`len`](Self::len)).  Used by the deadlock detector as a liveness
    /// probe: a registered "blocked push" edge is only trusted while the
    /// ring it blocks on is still actually full.
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity()
    }

    /// Number of items ever enqueued (statistics; racy snapshot).
    pub fn total_enqueued(&self) -> usize {
        self.tail.load(Ordering::Relaxed)
    }

    /// Number of items ever dequeued (statistics; racy snapshot).
    pub fn total_dequeued(&self) -> usize {
        self.head.load(Ordering::Relaxed)
    }

    /// Number of blocking pushes that found the ring full and had to wait
    /// for the consumer (the backpressure stall count).
    pub fn total_stalls(&self) -> usize {
        self.stalls.load(Ordering::Relaxed)
    }

    /// Returns `true` while the ring is at or past its half-full watermark
    /// (`len * 2 >= capacity`) — the occupancy signal behind
    /// [`crate::WakeReason::Pressure`].  Racy snapshot, like
    /// [`len`](Self::len).
    pub fn is_pressured(&self) -> bool {
        self.len() * 2 >= self.capacity()
    }

    /// Returns `true` if the producer has closed the queue.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    fn wake_producer(&self) {
        self.producer.wake();
    }
}

impl<T> BoundedSpscProducer<T> {
    /// Attempts to enqueue without blocking; hands `value` back inside
    /// [`Full`] when the ring is at capacity.
    ///
    /// If the consumer half has been dropped (an abandoned queue, e.g. a
    /// handler that shut down mid-block), the value is silently discarded —
    /// matching the unbounded queue, where such requests were accepted and
    /// never executed.  A producer must never hang on a queue nobody will
    /// ever drain.
    pub fn try_push(&self, value: T) -> Result<(), Full<T>> {
        let queue = &*self.queue;
        if queue.abandoned.load(Ordering::Acquire) {
            return Ok(());
        }
        let tail = queue.tail.load(Ordering::Relaxed);
        let head = queue.head.load(Ordering::Acquire);
        if tail - head == queue.capacity() {
            return Err(Full(value));
        }
        let slot = &queue.slots[tail % queue.capacity()];
        // SAFETY: `tail - head < capacity`, so the consumer has finished with
        // this slot (its previous occupant had sequence `tail - capacity`,
        // strictly below `head`), and only this producer writes slots.
        unsafe { (*slot.get()).write(value) };
        queue.tail.store(tail + 1, Ordering::Release);
        Ok(())
    }

    /// Enqueues `value`, blocking (spin then park) while the ring is full.
    ///
    /// This is the *backpressure* path: a client that outruns its handler is
    /// throttled to the handler's pace instead of growing the queue without
    /// limit.  Returns `true` if the push had to wait for space (a
    /// "backpressure stall"), `false` if it was immediate.
    pub fn push(&self, value: T) -> bool {
        match self.push_impl(value, None) {
            Ok(stalled) => stalled,
            Err(_) => unreachable!("an unwatched push never aborts"),
        }
    }

    /// [`push`](Self::push) under a [`BlockWatcher`]: the watcher observes
    /// the blocking interval and may abort the wait, in which case the value
    /// is handed back inside [`Full`] without having been enqueued.
    ///
    /// This is the deadlock-detection hook: the runtime registers the
    /// blocked push as a wait-for edge in `block_begin`, and the detector's
    /// `Break` policy makes `should_abort` true (then wakes the producer via
    /// [`unblocker`](Self::unblocker)) to fail one push on a confirmed
    /// cycle.
    pub fn push_watched(&self, value: T, watcher: &dyn BlockWatcher) -> Result<bool, Full<T>> {
        self.push_impl(value, Some(watcher))
    }

    fn push_impl(&self, value: T, watcher: Option<&dyn BlockWatcher>) -> Result<bool, Full<T>> {
        let mut value = match self.try_push(value) {
            Ok(()) => return Ok(false),
            Err(Full(v)) => v,
        };
        let queue = &*self.queue;
        queue.stalls.fetch_add(1, Ordering::Relaxed);
        if let Some(watcher) = watcher {
            watcher.block_begin();
        }
        let backoff = Backoff::new();
        loop {
            if watcher.is_some_and(BlockWatcher::should_abort) {
                if let Some(watcher) = watcher {
                    watcher.block_end();
                }
                return Err(Full(value));
            }
            value = match self.try_push(value) {
                Ok(()) => {
                    if let Some(watcher) = watcher {
                        watcher.block_end();
                    }
                    return Ok(true);
                }
                Err(Full(v)) => v,
            };
            if backoff.is_completed() {
                self.park_until_space(watcher);
                backoff.reset();
            } else {
                backoff.snooze();
            }
        }
    }

    fn park_until_space(&self, watcher: Option<&dyn BlockWatcher>) {
        let queue = &*self.queue;
        // Abandonment must be part of the wait condition: if the consumer is
        // dropped between a failed `try_push` and this park, `wake_producer`
        // fires before the parked flag is up, and space alone will never
        // appear — only the abandoned flag ends the wait.  The watcher's
        // abort request ends the wait the same way (its setter wakes the
        // producer after flipping it).
        queue.producer.park_until(|| {
            self.has_space()
                || queue.abandoned.load(Ordering::Acquire)
                || watcher.is_some_and(BlockWatcher::should_abort)
        });
    }

    fn has_space(&self) -> bool {
        let queue = &*self.queue;
        let tail = queue.tail.load(Ordering::Relaxed);
        let head = queue.head.load(Ordering::Acquire);
        tail - head < queue.capacity()
    }

    /// Closes the queue.  The consumer drains the remaining items and then
    /// observes [`Closed`].  Corresponds to the END marker at the end of a
    /// separate block.
    pub fn close(&self) {
        self.queue.closed.store(true, Ordering::Release);
    }

    /// Statistics / inspection access to the underlying queue.
    pub fn queue(&self) -> &BoundedSpsc<T> {
        &self.queue
    }
}

impl<T: Send + 'static> BoundedSpscProducer<T> {
    /// A detached handle that wakes this producer if it is blocked in a
    /// [`push`](Self::push) / [`push_watched`](Self::push_watched).
    ///
    /// The deadlock detector calls it after flipping a watcher's abort flag
    /// so the parked producer re-checks its wait condition; spurious wakes
    /// are harmless (the park protocol re-checks and re-parks).
    pub fn unblocker(&self) -> Arc<dyn Fn() + Send + Sync> {
        let queue = Arc::clone(&self.queue);
        Arc::new(move || queue.wake_producer())
    }

    /// A detached probe answering "is the ring currently full?" — see
    /// [`BoundedSpsc::is_full`].  The deadlock detector re-validates a
    /// registered blocked-push edge with it at scan time.
    pub fn full_probe(&self) -> Arc<dyn Fn() -> bool + Send + Sync> {
        let queue = Arc::clone(&self.queue);
        Arc::new(move || queue.is_full())
    }
}

impl<T> BoundedSpscConsumer<T> {
    /// Attempts to dequeue without blocking.
    ///
    /// Returns `Ok(Some(v))` for an item, `Ok(None)` if the ring is
    /// currently empty but still open, and `Err(Closed)` if it is closed and
    /// drained.
    pub fn try_dequeue(&self) -> Result<Option<T>, Closed> {
        let queue = &*self.queue;
        let head = queue.head.load(Ordering::Relaxed);
        let tail = queue.tail.load(Ordering::Acquire);
        if head == tail {
            if queue.closed.load(Ordering::Acquire) {
                // Re-check: an item may have been pushed between the tail
                // load and the closed load.
                if queue.tail.load(Ordering::Acquire) != head {
                    return self.try_dequeue();
                }
                return Err(Closed);
            }
            return Ok(None);
        }
        let slot = &queue.slots[head % queue.capacity()];
        // SAFETY: `head < tail`, so the producer published this slot (release
        // store of `tail` observed with acquire) and will not touch it again
        // until `head` moves past it.
        let value = unsafe { (*slot.get()).assume_init_read() };
        queue.head.store(head + 1, Ordering::Release);
        queue.wake_producer();
        Ok(Some(value))
    }

    /// Drains up to `max` immediately available items into `out` without
    /// blocking.  Returns the number of items appended, or [`Closed`] if the
    /// ring is closed and fully drained.
    pub fn try_drain_batch(&self, out: &mut Vec<T>, max: usize) -> Result<usize, Closed> {
        crate::batch::try_drain_with(out, max, || self.try_dequeue())
    }

    /// Statistics / inspection access to the underlying queue.
    pub fn queue(&self) -> &BoundedSpsc<T> {
        &self.queue
    }

    /// Shared handle to the underlying queue (for detached probes).
    pub(crate) fn shared(&self) -> Arc<BoundedSpsc<T>> {
        Arc::clone(&self.queue)
    }
}

impl<T> Drop for BoundedSpscConsumer<T> {
    fn drop(&mut self) {
        // Drop the undrained items first (ordinary consumer-side dequeues,
        // safe against a concurrent producer): requests carry completion
        // guards whose drop wakes their waiting client (see the runtime's
        // sync/query tokens), and deferring that to the ring's own drop
        // could deadlock — a client parked on such a guard holds the
        // producer half, so the ring would never drop.  Known residue: a
        // push racing with the tail of this drain (its abandoned-check
        // happened before the flag below, its slot write after the drain's
        // last look) can strand one item until the ring drops.
        while let Ok(Some(item)) = self.try_dequeue() {
            drop(item);
        }
        // Nobody will ever drain this queue again: release any producer
        // blocked on a full ring (see `try_push` for the discard semantics).
        self.queue.abandoned.store(true, Ordering::Release);
        self.queue.wake_producer();
    }
}

impl<T> Drop for BoundedSpsc<T> {
    fn drop(&mut self) {
        let head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        for seq in head..tail {
            let slot = &self.slots[seq % self.slots.len()];
            // SAFETY: exclusive access during drop; slots in `head..tail`
            // were written and never read.
            unsafe { (*slot.get()).assume_init_drop() };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_order_single_thread() {
        let (tx, rx) = bounded_spsc_channel(8);
        for i in 0..8 {
            tx.try_push(i).unwrap();
        }
        for i in 0..8 {
            assert_eq!(rx.try_dequeue(), Ok(Some(i)));
        }
        assert_eq!(rx.try_dequeue(), Ok(None));
    }

    #[test]
    fn try_push_rejects_when_full() {
        let (tx, rx) = bounded_spsc_channel(2);
        tx.try_push(1).unwrap();
        tx.try_push(2).unwrap();
        assert_eq!(tx.try_push(3), Err(Full(3)));
        assert_eq!(tx.queue().len(), 2);
        assert_eq!(rx.try_dequeue(), Ok(Some(1)));
        tx.try_push(3).unwrap();
        assert_eq!(rx.try_dequeue(), Ok(Some(2)));
        assert_eq!(rx.try_dequeue(), Ok(Some(3)));
    }

    #[test]
    fn capacity_one_round_trips() {
        let (tx, rx) = bounded_spsc_channel(1);
        for i in 0..100 {
            tx.try_push(i).unwrap();
            assert_eq!(tx.try_push(i), Err(Full(i)));
            assert_eq!(rx.try_dequeue(), Ok(Some(i)));
        }
    }

    #[test]
    fn blocking_push_waits_for_space_and_counts_the_stall() {
        let (tx, rx) = bounded_spsc_channel(1);
        tx.try_push(1).unwrap();
        let producer = thread::spawn(move || {
            let stalled = tx.push(2);
            (tx, stalled)
        });
        thread::sleep(std::time::Duration::from_millis(30));
        assert_eq!(rx.try_dequeue(), Ok(Some(1)));
        let (tx, stalled) = producer.join().unwrap();
        assert!(stalled, "push into a full ring must report the stall");
        assert_eq!(tx.queue().total_stalls(), 1);
        assert_eq!(rx.try_dequeue(), Ok(Some(2)));
        assert!(!tx.push(3), "push with space is not a stall");
        assert_eq!(tx.queue().total_stalls(), 1);
    }

    #[test]
    fn close_is_observed_after_drain() {
        let (tx, rx) = bounded_spsc_channel(4);
        tx.try_push('a').unwrap();
        tx.close();
        assert_eq!(rx.try_dequeue(), Ok(Some('a')));
        assert_eq!(rx.try_dequeue(), Err(Closed));
        assert!(rx.queue().is_closed());
    }

    #[test]
    fn try_drain_batch_takes_at_most_max() {
        let (tx, rx) = bounded_spsc_channel(8);
        for i in 0..6 {
            tx.try_push(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(rx.try_drain_batch(&mut out, 4), Ok(4));
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(rx.try_drain_batch(&mut out, 4), Ok(2));
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(rx.try_drain_batch(&mut out, 4), Ok(0));
        tx.close();
        assert_eq!(rx.try_drain_batch(&mut out, 4), Err(Closed));
    }

    #[test]
    fn concurrent_producer_consumer_preserves_order_and_bound() {
        const CAPACITY: usize = 7;
        let (tx, rx) = bounded_spsc_channel(CAPACITY);
        let n = 50_000usize;
        let producer = thread::spawn(move || {
            for i in 0..n {
                tx.push(i);
            }
            tx.close();
        });
        let mut expected = 0usize;
        let mut batch = Vec::new();
        loop {
            assert!(rx.queue().len() <= CAPACITY, "ring exceeded its capacity");
            match rx.try_drain_batch(&mut batch, 5) {
                Err(Closed) => break,
                Ok(0) => thread::yield_now(),
                Ok(_) => {
                    for v in batch.drain(..) {
                        assert_eq!(v, expected);
                        expected += 1;
                    }
                }
            }
        }
        assert_eq!(expected, n);
        producer.join().unwrap();
    }

    #[test]
    fn dropping_with_unconsumed_items_releases_them() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let (tx, rx) = bounded_spsc_channel(4);
            for _ in 0..4 {
                tx.push(D);
            }
            // Wrap the ring so head/tail are past the first lap.
            drop(rx.try_dequeue());
            drop(rx.try_dequeue());
            tx.push(D);
            tx.push(D);
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 6);
    }

    #[test]
    #[should_panic(expected = "capacity >= 1")]
    fn zero_capacity_is_rejected() {
        let _ = bounded_spsc_channel::<u8>(0);
    }

    #[test]
    fn watched_push_can_be_aborted_while_parked() {
        use std::sync::atomic::AtomicUsize;

        struct Abortable {
            begins: AtomicUsize,
            ends: AtomicUsize,
            abort: AtomicBool,
        }
        impl BlockWatcher for Abortable {
            fn block_begin(&self) {
                self.begins.fetch_add(1, Ordering::SeqCst);
            }
            fn should_abort(&self) -> bool {
                self.abort.load(Ordering::SeqCst)
            }
            fn block_end(&self) {
                self.ends.fetch_add(1, Ordering::SeqCst);
            }
        }

        let (tx, rx) = bounded_spsc_channel(1);
        tx.try_push(1).unwrap();
        let watcher = Arc::new(Abortable {
            begins: AtomicUsize::new(0),
            ends: AtomicUsize::new(0),
            abort: AtomicBool::new(false),
        });
        let unblock = tx.unblocker();
        let producer = {
            let watcher = Arc::clone(&watcher);
            thread::spawn(move || {
                let aborted = tx.push_watched(2, &*watcher);
                (tx, aborted)
            })
        };
        // Let the producer block and park, then abort + wake it.
        thread::sleep(std::time::Duration::from_millis(30));
        watcher.abort.store(true, Ordering::SeqCst);
        unblock();
        let (tx, aborted) = producer.join().unwrap();
        assert_eq!(aborted, Err(Full(2)), "abort hands the value back");
        assert_eq!(watcher.begins.load(Ordering::SeqCst), 1);
        assert_eq!(watcher.ends.load(Ordering::SeqCst), 1);
        assert!(tx.queue().is_full(), "nothing was enqueued by the abort");
        // The ring still works: space appears, the next watched push is
        // immediate and never consults the watcher.
        assert_eq!(rx.try_dequeue(), Ok(Some(1)));
        watcher.abort.store(false, Ordering::SeqCst);
        assert_eq!(tx.push_watched(3, &*watcher), Ok(false));
        assert_eq!(watcher.begins.load(Ordering::SeqCst), 1, "no new block");
        assert_eq!(rx.try_dequeue(), Ok(Some(3)));
        assert!(!rx.queue().is_full());
    }

    #[test]
    fn dropping_the_consumer_releases_a_blocked_producer() {
        let (tx, rx) = bounded_spsc_channel(1);
        tx.try_push(1).unwrap();
        let producer = thread::spawn(move || {
            tx.push(2); // blocks: ring is full
            tx.push(3); // discarded outright once abandoned
        });
        thread::sleep(std::time::Duration::from_millis(30));
        drop(rx);
        producer.join().unwrap();
    }
}
