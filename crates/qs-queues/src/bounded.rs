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
//!
//! The capacity bounds occupancy, not memory up front: slot storage is
//! allocated [`CHUNK_SLOTS`] slots at a time, when the producer first
//! reaches a chunk.  A separate block logs a handful of requests into a
//! mailbox of 1024 slots, and hundreds of blocks can be pending at once, so
//! a ring that allocated its capacity at creation would hold 24 KiB of
//! 24-byte requests per block to store a few of them.
//!
//! # Reuse
//!
//! A fresh ring costs three allocations — the shared header, the chunk
//! table and the first chunk — and its free usually lands on the handler's
//! thread, which lets go of it last.  A block's ring can serve the next
//! block instead.  The consumer, having drained a closed ring, gives up its
//! half with [`BoundedSpscConsumer::into_spare`] and gets the ring back
//! instead of dropping it; once the producer half has been dropped too,
//! and no probe cloned from either half is left, [`reopen`] resets its
//! cursors to 0 and hands out a new producer/consumer pair over the same
//! memory.  Which half lets go last does not matter: the consumer's handle
//! waits wherever it was handed back until it is the only one.
//!
//! Only single-chunk rings are kept.  A block that logged more than
//! [`CHUNK_SLOTS`] requests frees its ring as before: a kept ring then
//! holds one chunk of slots, not the storage of the largest block its
//! client ever ran.  Keeping grown rings as well was measured slower on
//! a stream of 256-call blocks, whose ring costs are amortised over the
//! calls anyway.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::Arc;

use qs_sync::{Backoff, CachePadded, Parker};

use crate::{BlockWatcher, Closed};

/// Slots per storage chunk of a [`BoundedSpsc`] ring (the last chunk of a
/// ring whose capacity is not a multiple holds the remainder).
pub const CHUNK_SLOTS: usize = 16;

/// Error returned by [`BoundedSpscProducer::try_push`] when the ring is at
/// capacity; the rejected value is handed back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub struct Full<T>(pub T);

impl<T> std::fmt::Display for Full<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("queue is at capacity")
    }
}

type Slot<T> = UnsafeCell<MaybeUninit<T>>;

/// Shared state of the bounded SPSC ring.
pub struct BoundedSpsc<T> {
    /// The item with sequence number `seq` lives in slot `seq % capacity`,
    /// which is slot `index % CHUNK_SLOTS` of chunk `index / CHUNK_SLOTS`.
    /// An entry is null until the producer first reaches its chunk, then
    /// points at the chunk's first slot.  The producer stores an entry
    /// (Release) before any `tail` store that publishes a slot in it; the
    /// consumer loads it (Acquire) only for slots below a `tail` it has
    /// loaded (Acquire), so it never sees a null entry.
    chunks: Box<[AtomicPtr<Slot<T>>]>,
    capacity: usize,
    /// Monotonically increasing consumer cursor: everything below `head` has
    /// been dequeued.
    head: CachePadded<AtomicUsize>,
    /// Monotonically increasing producer cursor: everything below `tail` has
    /// been enqueued.  Invariant: `tail - head <= capacity`.
    tail: CachePadded<AtomicUsize>,
    /// Set once the producer closes the queue (END of the separate block).
    closed: AtomicBool,
    /// Set when the consumer half is dropped before the producer closed the
    /// queue: nobody will ever make space again, so the producer must not
    /// block.
    abandoned: AtomicBool,
    /// Number of blocking pushes that had to wait for space (statistics).
    stalls: AtomicUsize,
    /// Parked producer thread waiting for space, if any.
    producer: Parker,
}

// SAFETY: the producer/consumer handles enforce single-threaded access to
// each cursor and to the chunk entries' stores (producer only); values of
// `T` move across threads, requiring `T: Send`.
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
    let queue = Arc::new(BoundedSpsc::new(capacity));
    (
        BoundedSpscProducer {
            queue: Arc::clone(&queue),
        },
        BoundedSpscConsumer { queue },
    )
}

impl<T> BoundedSpsc<T> {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a bounded queue needs capacity >= 1");
        let chunks = (0..capacity.div_ceil(CHUNK_SLOTS))
            .map(|_| AtomicPtr::new(ptr::null_mut()))
            .collect();
        BoundedSpsc {
            chunks,
            capacity,
            head: CachePadded::new(AtomicUsize::new(0)),
            tail: CachePadded::new(AtomicUsize::new(0)),
            closed: AtomicBool::new(false),
            abandoned: AtomicBool::new(false),
            stalls: AtomicUsize::new(0),
            producer: Parker::new(),
        }
    }

    /// Maximum number of items the ring can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of slots in chunk `chunk`.
    fn chunk_len(&self, chunk: usize) -> usize {
        CHUNK_SLOTS.min(self.capacity - chunk * CHUNK_SLOTS)
    }

    /// The slot of sequence number `seq`, allocating its chunk if this is
    /// the producer's first visit.  Producer only.
    fn producer_slot(&self, seq: usize) -> &Slot<T> {
        let index = seq % self.capacity;
        let entry = &self.chunks[index / CHUNK_SLOTS];
        // Only the producer stores entries, so its own last store is what
        // this load reads.
        let mut chunk = entry.load(Ordering::Relaxed);
        if chunk.is_null() {
            let slots: Box<[Slot<T>]> = (0..self.chunk_len(index / CHUNK_SLOTS))
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect();
            chunk = Box::into_raw(slots).cast::<Slot<T>>();
            entry.store(chunk, Ordering::Release);
        }
        // SAFETY: `chunk` points at `chunk_len` live slots (freed only when
        // the ring drops), and `index % CHUNK_SLOTS` is below that length
        // because `index < capacity`.
        unsafe { &*chunk.add(index % CHUNK_SLOTS) }
    }

    /// The slot of a sequence number below an observed `tail`, whose chunk
    /// the producer therefore stored before publishing it.
    fn published_slot(&self, seq: usize) -> &Slot<T> {
        let index = seq % self.capacity;
        let chunk = self.chunks[index / CHUNK_SLOTS].load(Ordering::Acquire);
        assert!(!chunk.is_null(), "a published slot's chunk is allocated");
        // SAFETY: as in `producer_slot`.
        unsafe { &*chunk.add(index % CHUNK_SLOTS) }
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

    /// Whether the producer never reached a chunk past the first: every
    /// sequence number below `tail` mapped into chunk 0.
    fn within_first_chunk(&self, tail: usize) -> bool {
        self.capacity <= CHUNK_SLOTS || tail <= CHUNK_SLOTS
    }

    /// Whether the ring can serve another block once nobody else holds it:
    /// it ended closed and drained, was not abandoned, and never left its
    /// first chunk.
    fn reusable(&self) -> bool {
        if !self.is_closed() || self.abandoned.load(Ordering::Acquire) {
            return false;
        }
        // Final: the producer closed the ring after its last push.
        let tail = self.tail.load(Ordering::Acquire);
        self.head.load(Ordering::Acquire) == tail && self.within_first_chunk(tail)
    }

    /// Resets a [`reusable`](Self::reusable) ring to the state of a fresh
    /// one: cursors at 0, open, no stalls counted.
    fn reset(&mut self) {
        *self.head.get_mut() = 0;
        *self.tail.get_mut() = 0;
        *self.closed.get_mut() = false;
        *self.stalls.get_mut() = 0;
        // Drops a wake left pending by the last block's consumer.
        self.producer = Parker::new();
    }
}

/// Reopens a ring that [`BoundedSpscConsumer::into_spare`] handed back as
/// a fresh producer/consumer pair over the same slots, or drops `ring` and
/// returns `None`.
///
/// The ring is reopened only if `ring` is its last handle — the producer
/// half, and every probe cloned from either half, have been dropped — and
/// the last block left it closed, drained and not abandoned, within its
/// first chunk.  The reopened ring behaves as one fresh from
/// [`bounded_spsc_channel`]: empty, open, cursors and stall count at 0.
pub fn reopen<T>(
    mut ring: Arc<BoundedSpsc<T>>,
) -> Option<(BoundedSpscProducer<T>, BoundedSpscConsumer<T>)> {
    // `get_mut` succeeds only on the last handle, and acquires every other
    // handle's release on drop, so the consumer's last reads of the slots
    // happen before the reset.
    let last = Arc::get_mut(&mut ring)?;
    if !last.reusable() {
        return None;
    }
    last.reset();
    Some((
        BoundedSpscProducer {
            queue: Arc::clone(&ring),
        },
        BoundedSpscConsumer { queue: ring },
    ))
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
        let slot = queue.producer_slot(tail);
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
        let dequeued = self.dequeue_without_wake();
        if let Ok(Some(_)) = dequeued {
            self.queue.wake_producer();
        }
        dequeued
    }

    /// [`try_dequeue`](Self::try_dequeue) without waking a producer parked
    /// for space; the caller wakes it once the `head` stores are done.
    fn dequeue_without_wake(&self) -> Result<Option<T>, Closed> {
        let queue = &*self.queue;
        let head = queue.head.load(Ordering::Relaxed);
        let tail = queue.tail.load(Ordering::Acquire);
        if head == tail {
            if queue.closed.load(Ordering::Acquire) {
                // Re-check: an item may have been pushed between the tail
                // load and the closed load.
                if queue.tail.load(Ordering::Acquire) != head {
                    return self.dequeue_without_wake();
                }
                return Err(Closed);
            }
            return Ok(None);
        }
        let slot = queue.published_slot(head);
        // SAFETY: `head < tail`, so the producer published this slot (release
        // store of `tail` observed with acquire) and will not touch it again
        // until `head` moves past it.
        let value = unsafe { (*slot.get()).assume_init_read() };
        queue.head.store(head + 1, Ordering::Release);
        Ok(Some(value))
    }

    /// Drains up to `max` immediately available items into `out` without
    /// blocking.  Returns the number of items appended, or [`Closed`] if the
    /// ring is closed and fully drained.
    ///
    /// A producer parked for space is woken once, after the batch's last
    /// `head` store: any advance of `head` makes the space it waits for, so
    /// one wake per batch covers it, where a wake per item would cost one
    /// locked read-modify-write per request on a line the producer reads on
    /// every push.
    pub fn try_drain_batch(&self, out: &mut Vec<T>, max: usize) -> Result<usize, Closed> {
        let drained = crate::batch::try_drain_with(out, max, || self.dequeue_without_wake());
        if let Ok(1..) = drained {
            self.queue.wake_producer();
        }
        drained
    }

    /// Statistics / inspection access to the underlying queue.
    pub fn queue(&self) -> &BoundedSpsc<T> {
        &self.queue
    }

    /// Shared handle to the underlying queue (for detached probes).
    pub(crate) fn shared(&self) -> Arc<BoundedSpsc<T>> {
        Arc::clone(&self.queue)
    }

    /// Gives up the consumer half and returns a handle to the ring for
    /// [`reopen`] if the producer closed it, this consumer drained it, and
    /// it never left its first chunk; drops the half as usual otherwise.
    ///
    /// The producer half may still be alive: the returned handle is kept
    /// until it is the last, and `reopen` checks that.  Handing the ring
    /// back from this side only means that no race between the two halves
    /// letting go can lose a ring — the handle that decides is never
    /// dropped.
    pub fn into_spare(self) -> Option<Arc<BoundedSpsc<T>>> {
        let ring = self.shared();
        // The drop drops what is left, and leaves a closed ring unabandoned.
        drop(self);
        ring.reusable().then_some(ring)
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
        // A closed ring's producer pushes nothing more: the ring is not
        // abandoned, only done with, and stays fit for `reopen`.
        if self.queue.is_closed() {
            return;
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
            let slot = self.published_slot(seq);
            // SAFETY: exclusive access during drop; slots in `head..tail`
            // were written and never read.
            unsafe { (*slot.get()).assume_init_drop() };
        }
        for chunk in 0..self.chunks.len() {
            let first = *self.chunks[chunk].get_mut();
            if !first.is_null() {
                let slots = ptr::slice_from_raw_parts_mut(first, self.chunk_len(chunk));
                // SAFETY: `first` came from `Box::into_raw` of a boxed slice
                // of exactly `chunk_len(chunk)` slots and is freed only here;
                // the slots hold no live values any more (`MaybeUninit`).
                drop(unsafe { Box::from_raw(slots) });
            }
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

    fn allocated_chunks<T>(queue: &BoundedSpsc<T>) -> usize {
        queue
            .chunks
            .iter()
            .filter(|chunk| !chunk.load(Ordering::Relaxed).is_null())
            .count()
    }

    #[test]
    fn slot_storage_grows_a_chunk_at_a_time_as_the_producer_reaches_it() {
        let (tx, rx) = bounded_spsc_channel(1024);
        assert_eq!(allocated_chunks(tx.queue()), 0, "nothing up front");
        for i in 0..3 {
            tx.push(i);
        }
        assert_eq!(allocated_chunks(tx.queue()), 1);
        for i in 3..CHUNK_SLOTS + 1 {
            tx.push(i);
        }
        assert_eq!(allocated_chunks(tx.queue()), 2);
        for i in 0..CHUNK_SLOTS + 1 {
            assert_eq!(rx.try_dequeue(), Ok(Some(i)));
        }
    }

    #[test]
    fn a_partial_last_chunk_wraps_and_drops_cleanly() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D(usize);
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        // Chunks of 16, 16 and 8 slots; three laps, then a ring dropped
        // with items left in every chunk.
        let capacity = 2 * CHUNK_SLOTS + CHUNK_SLOTS / 2;
        {
            let (tx, rx) = bounded_spsc_channel(capacity);
            for i in 0..3 * capacity {
                tx.push(D(i));
                if i >= capacity - 1 {
                    let D(seen) = rx.try_dequeue().unwrap().unwrap();
                    assert_eq!(seen, i + 1 - capacity);
                }
            }
            assert_eq!(allocated_chunks(tx.queue()), 3);
            assert_eq!(tx.queue().len(), capacity - 1);
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 3 * capacity);
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

    #[test]
    fn a_batch_drain_releases_a_producer_blocked_on_a_full_ring() {
        let (tx, rx) = bounded_spsc_channel(2);
        tx.try_push(1).unwrap();
        tx.try_push(2).unwrap();
        let queue = rx.shared();
        let producer = thread::spawn(move || {
            let stalled = tx.push(3);
            (tx, stalled)
        });
        // The push counts its stall before it waits; then give it time to
        // finish its backoff and park.
        while queue.total_stalls() == 0 {
            thread::yield_now();
        }
        thread::sleep(std::time::Duration::from_millis(30));
        let mut out = Vec::new();
        assert_eq!(rx.try_drain_batch(&mut out, 8), Ok(2));
        let (tx, stalled) = producer.join().unwrap();
        assert!(stalled, "the push waited for the batch drain");
        assert_eq!(out, vec![1, 2]);
        assert_eq!(rx.try_dequeue(), Ok(Some(3)));
        assert_eq!(tx.queue().total_stalls(), 1);
    }

    /// A block's worth of traffic on `tx`/`rx`: `items` pushed and drained,
    /// a stall, then the close.
    fn run_block(tx: &BoundedSpscProducer<usize>, rx: &BoundedSpscConsumer<usize>, items: usize) {
        for i in 0..items {
            tx.push(i);
            assert_eq!(rx.try_dequeue(), Ok(Some(i)));
        }
        tx.queue.stalls.fetch_add(1, Ordering::Relaxed);
        tx.close();
        assert_eq!(rx.try_dequeue(), Err(Closed));
    }

    /// Reopens `ring`, failing the test if it cannot be.
    fn reopened<T>(ring: Arc<BoundedSpsc<T>>) -> (BoundedSpscProducer<T>, BoundedSpscConsumer<T>) {
        reopen(ring).unwrap_or_else(|| panic!("the ring must reopen"))
    }

    #[test]
    fn a_reopened_ring_starts_empty_at_cursor_zero_with_flags_cleared() {
        let (tx, rx) = bounded_spsc_channel(1024);
        run_block(&tx, &rx, 5);
        let first_chunk = tx.queue.chunks[0].load(Ordering::Relaxed);
        let ring = rx.into_spare().expect("closed, drained, one chunk");
        drop(tx);
        let (tx, rx) = reopened(ring);
        let queue = tx.queue();
        assert_eq!(queue.total_enqueued(), 0);
        assert_eq!(queue.total_dequeued(), 0);
        assert_eq!(queue.total_stalls(), 0);
        assert!(!queue.is_closed());
        assert!(!queue.abandoned.load(Ordering::Relaxed));
        assert_eq!(allocated_chunks(queue), 1, "the first chunk is kept");
        assert_eq!(queue.chunks[0].load(Ordering::Relaxed), first_chunk);
        assert_eq!(rx.try_dequeue(), Ok(None), "empty and open");
        for i in 0..3 {
            tx.push(i);
        }
        tx.close();
        let mut out = Vec::new();
        assert_eq!(rx.try_drain_batch(&mut out, 8), Ok(3));
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(rx.try_dequeue(), Err(Closed));
        // And again, the producer dropped before the consumer let go.
        drop(tx);
        let (tx, rx) = reopened(rx.into_spare().expect("a second block"));
        assert_eq!(tx.queue().total_enqueued(), 0);
        drop(rx);
    }

    #[test]
    fn a_ring_is_not_recycled_while_another_handle_holds_it() {
        // The producer half.
        let (tx, rx) = bounded_spsc_channel(8);
        run_block(&tx, &rx, 2);
        let ring = rx.into_spare().expect("handed back");
        assert!(reopen(ring).is_none(), "the producer holds the ring");
        assert_eq!(Arc::strong_count(&tx.queue), 1, "a failed reopen drops");
        // Any other handle.
        let (tx, rx) = bounded_spsc_channel(8);
        run_block(&tx, &rx, 2);
        let twin = rx.shared();
        let ring = rx.into_spare().expect("handed back");
        drop(tx);
        assert!(reopen(ring).is_none(), "a twin holds the ring");
        drop(twin);
    }

    #[test]
    fn unclosed_undrained_abandoned_or_grown_rings_are_freed() {
        // Unclosed: the producer never closed the block.
        let (tx, rx) = bounded_spsc_channel::<usize>(8);
        drop(tx);
        assert!(rx.into_spare().is_none(), "unclosed");

        // Abandoned: the consumer let go before the close.
        let (tx, rx) = bounded_spsc_channel::<usize>(8);
        let ring = rx.shared();
        assert!(rx.into_spare().is_none(), "open when the consumer let go");
        assert!(ring.abandoned.load(Ordering::Relaxed));
        tx.close();
        drop(tx);
        assert!(reopen(ring).is_none(), "abandoned");

        // Undrained: items left behind a close, with no consumer to drop
        // them before the ring is checked.
        let ring = Arc::new(BoundedSpsc::new(8));
        let tx = BoundedSpscProducer {
            queue: Arc::clone(&ring),
        };
        tx.push(1usize);
        tx.close();
        drop(tx);
        assert!(reopen(ring).is_none(), "undrained");

        // Grown: the block logged past the first chunk.
        let (tx, rx) = bounded_spsc_channel(1024);
        run_block(&tx, &rx, CHUNK_SLOTS + 1);
        assert!(rx.into_spare().is_none(), "grown past the first chunk");

        // A ring of one chunk is kept however many laps it made.
        let (tx, rx) = bounded_spsc_channel(CHUNK_SLOTS);
        run_block(&tx, &rx, 3 * CHUNK_SLOTS);
        assert!(rx.into_spare().is_some(), "a one-chunk ring");
    }

    #[test]
    fn a_closed_rings_consumer_drop_does_not_abandon_it() {
        let (tx, rx) = bounded_spsc_channel(4);
        tx.push(1);
        tx.close();
        drop(rx);
        assert!(!tx.queue.abandoned.load(Ordering::Relaxed));
        assert!(tx.queue().is_empty(), "the drop drained the ring");
    }
}
