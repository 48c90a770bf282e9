//! An unbounded single-producer/single-consumer queue: the *private queue*.
//!
//! Once a handler has dequeued a client's private queue from the
//! queue-of-queues, "the communication is then single-producer
//! single-consumer; the client enqueues calls, the handler dequeues and
//! executes them" (§3.1).  The queue is a linked list of fixed-size segments;
//! within a segment each slot carries a `ready` flag that the producer
//! publishes with release ordering and the consumer observes with acquire
//! ordering, so neither side ever contends on a shared index.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::Arc;

use qs_sync::{Backoff, CachePadded, SpinLock};

use crate::Closed;

/// Number of slots per segment.  Chosen so a segment (with its header) stays
/// within a few cache lines for pointer-sized payloads while amortising the
/// allocation cost of segment creation across many enqueues.
const SEGMENT_SIZE: usize = 64;

struct Slot<T> {
    ready: AtomicBool,
    value: UnsafeCell<MaybeUninit<T>>,
}

struct Segment<T> {
    slots: Box<[Slot<T>]>,
    next: AtomicPtr<Segment<T>>,
}

impl<T> Segment<T> {
    fn new() -> Box<Self> {
        let slots = (0..SEGMENT_SIZE)
            .map(|_| Slot {
                ready: AtomicBool::new(false),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Box::new(Segment {
            slots,
            next: AtomicPtr::new(ptr::null_mut()),
        })
    }
}

/// Shared state of the SPSC queue.
///
/// The producer owns `tail_segment`/`tail_index`, the consumer owns
/// `head_segment`/`head_index`; both are cache-padded so the two sides never
/// write to the same line.
pub struct SpscQueue<T> {
    /// Producer cursor (segment pointer + index within it).
    tail: CachePadded<SpinLock<Cursor<T>>>,
    /// Consumer cursor.
    head: CachePadded<SpinLock<Cursor<T>>>,
    /// Set once the producer closes the queue (END of the separate block).
    closed: AtomicBool,
    /// Number of items enqueued over the queue's lifetime (statistics).
    enqueued: AtomicUsize,
    /// Number of items dequeued over the queue's lifetime (statistics).
    dequeued: AtomicUsize,
}

struct Cursor<T> {
    segment: *mut Segment<T>,
    index: usize,
}

// SAFETY: the producer/consumer handles below enforce single-threaded access
// to each cursor; values of `T` are moved across threads, requiring `T: Send`.
unsafe impl<T: Send> Send for SpscQueue<T> {}
unsafe impl<T: Send> Sync for SpscQueue<T> {}

impl<T> SpscQueue<T> {
    fn new() -> Arc<Self> {
        let first = Box::into_raw(Segment::new());
        Arc::new(SpscQueue {
            tail: CachePadded::new(SpinLock::new(Cursor {
                segment: first,
                index: 0,
            })),
            head: CachePadded::new(SpinLock::new(Cursor {
                segment: first,
                index: 0,
            })),
            closed: AtomicBool::new(false),
            enqueued: AtomicUsize::new(0),
            dequeued: AtomicUsize::new(0),
        })
    }

    /// Number of items ever enqueued (statistics; racy snapshot).
    pub fn total_enqueued(&self) -> usize {
        self.enqueued.load(Ordering::Relaxed)
    }

    /// Number of items ever dequeued (statistics; racy snapshot).
    pub fn total_dequeued(&self) -> usize {
        self.dequeued.load(Ordering::Relaxed)
    }

    /// Returns `true` if the producer has closed the queue.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }
}

/// Producer (client) half of the private queue.
pub struct SpscProducer<T> {
    queue: Arc<SpscQueue<T>>,
}

/// Consumer (handler) half of the private queue.
pub struct SpscConsumer<T> {
    queue: Arc<SpscQueue<T>>,
}

/// Creates a new private queue, returning the producer and consumer handles
/// plus a shared reference for statistics inspection.
pub fn spsc_channel<T>() -> (SpscProducer<T>, SpscConsumer<T>) {
    let queue = SpscQueue::new();
    (
        SpscProducer {
            queue: Arc::clone(&queue),
        },
        SpscConsumer { queue },
    )
}

impl<T> SpscProducer<T> {
    /// Enqueues `value` at the tail of the queue.
    ///
    /// This is the non-blocking `call` operation of the execution model: the
    /// client packages a call and appends it to its private queue.
    pub fn enqueue(&self, value: T) {
        let queue = &*self.queue;
        let mut tail = queue.tail.lock();
        // SAFETY: `tail.segment` is a valid segment allocated by this queue
        // and only the producer follows/extends the tail.
        let segment = unsafe { &*tail.segment };
        let slot = &segment.slots[tail.index];
        // SAFETY: the slot at the producer cursor has never been written in
        // this round; the consumer will not read it until `ready` is set.
        unsafe { (*slot.value.get()).write(value) };
        slot.ready.store(true, Ordering::Release);
        tail.index += 1;
        if tail.index == SEGMENT_SIZE {
            let new_segment = Box::into_raw(Segment::new());
            segment.next.store(new_segment, Ordering::Release);
            tail.segment = new_segment;
            tail.index = 0;
        }
        drop(tail);
        queue.enqueued.fetch_add(1, Ordering::Relaxed);
    }

    /// Closes the queue.  The consumer will drain the remaining items and
    /// then observe [`Closed`].  Corresponds to enqueueing the END marker at
    /// the end of a separate block.
    pub fn close(&self) {
        self.queue.closed.store(true, Ordering::Release);
    }

    /// Statistics / inspection access to the underlying queue.
    pub fn queue(&self) -> &SpscQueue<T> {
        &self.queue
    }
}

impl<T> SpscConsumer<T> {
    /// Attempts to dequeue without blocking.
    ///
    /// Returns `Ok(Some(v))` for an item, `Ok(None)` if the queue is
    /// currently empty but still open, and `Err(Closed)` if it is closed and
    /// drained.
    pub fn try_dequeue(&self) -> Result<Option<T>, Closed> {
        let queue = &*self.queue;
        let mut head = queue.head.lock();
        // SAFETY: only the consumer follows the head cursor.
        let segment = unsafe { &*head.segment };
        let slot = &segment.slots[head.index];
        if slot.ready.load(Ordering::Acquire) {
            // SAFETY: `ready` was published after the value write; the
            // consumer takes ownership exactly once.
            let value = unsafe { (*slot.value.get()).assume_init_read() };
            head.index += 1;
            if head.index == SEGMENT_SIZE {
                // The producer installed `next` before marking the last slot
                // of this segment ready... but it actually installs `next`
                // right after writing slot SEGMENT_SIZE-1, so spin briefly.
                let backoff = Backoff::new();
                loop {
                    let next = segment.next.load(Ordering::Acquire);
                    if !next.is_null() {
                        let old = head.segment;
                        head.segment = next;
                        head.index = 0;
                        drop(head);
                        // SAFETY: the consumer is past this segment and the
                        // producer moved its tail off it when installing next.
                        unsafe { drop(Box::from_raw(old)) };
                        queue.dequeued.fetch_add(1, Ordering::Relaxed);
                        return Ok(Some(value));
                    }
                    backoff.snooze();
                }
            }
            drop(head);
            queue.dequeued.fetch_add(1, Ordering::Relaxed);
            return Ok(Some(value));
        }
        if queue.closed.load(Ordering::Acquire) {
            // Re-check: an item may have been enqueued between the slot check
            // and the closed check.
            if slot.ready.load(Ordering::Acquire) {
                drop(head);
                return self.try_dequeue();
            }
            return Err(Closed);
        }
        Ok(None)
    }

    /// Drains up to `max` immediately available items into `out` without
    /// blocking.  Returns the number of items appended, or [`Closed`] if the
    /// queue is closed and fully drained.
    pub fn try_drain_batch(&self, out: &mut Vec<T>, max: usize) -> Result<usize, Closed> {
        crate::batch::try_drain_with(out, max, || self.try_dequeue())
    }

    /// Statistics / inspection access to the underlying queue.
    pub fn queue(&self) -> &SpscQueue<T> {
        &self.queue
    }

    /// Shared handle to the underlying queue (for detached probes).
    pub(crate) fn shared(&self) -> Arc<SpscQueue<T>> {
        Arc::clone(&self.queue)
    }
}

impl<T> Drop for SpscConsumer<T> {
    fn drop(&mut self) {
        // Drop the undrained items now (ordinary consumer-side dequeues,
        // safe against a concurrent producer): requests carry completion
        // guards whose drop wakes their waiting client, and deferring that
        // to the queue's own drop could deadlock — a client parked on such
        // a completion holds the producer half, so the queue would never
        // drop.  Known residue: an enqueue racing with the tail of this
        // drain can strand one item until the queue drops.
        while let Ok(Some(item)) = self.try_dequeue() {
            drop(item);
        }
    }
}

impl<T> Drop for SpscQueue<T> {
    fn drop(&mut self) {
        // Drain and free any remaining items and segments.
        let mut head = self.head.lock();
        let tail_segment = self.tail.lock().segment;
        loop {
            let segment_ptr = head.segment;
            // SAFETY: exclusive access during drop.
            let segment = unsafe { &*segment_ptr };
            while head.index < SEGMENT_SIZE {
                let slot = &segment.slots[head.index];
                if slot.ready.load(Ordering::Acquire) {
                    // SAFETY: ready items were written and never read.
                    unsafe { (*slot.value.get()).assume_init_drop() };
                    head.index += 1;
                } else {
                    break;
                }
            }
            let next = segment.next.load(Ordering::Acquire);
            // SAFETY: drop owns all segments.
            unsafe { drop(Box::from_raw(segment_ptr)) };
            if segment_ptr == tail_segment || next.is_null() {
                break;
            }
            head.segment = next;
            head.index = 0;
        }
        // Prevent the cursors' raw pointers from being used further.
        head.segment = ptr::null_mut();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_order_single_thread() {
        let (tx, rx) = spsc_channel();
        for i in 0..200 {
            tx.enqueue(i);
        }
        for i in 0..200 {
            assert_eq!(rx.try_dequeue(), Ok(Some(i)));
        }
        assert_eq!(rx.try_dequeue(), Ok(None));
    }

    #[test]
    fn close_is_observed_after_drain() {
        let (tx, rx) = spsc_channel();
        tx.enqueue(1);
        tx.enqueue(2);
        tx.close();
        assert_eq!(rx.try_dequeue(), Ok(Some(1)));
        assert_eq!(rx.try_dequeue(), Ok(Some(2)));
        assert_eq!(rx.try_dequeue(), Err(Closed));
        assert!(rx.queue().is_closed());
    }

    #[test]
    fn crosses_segment_boundaries() {
        let (tx, rx) = spsc_channel();
        let n = SEGMENT_SIZE * 5 + 7;
        for i in 0..n {
            tx.enqueue(i);
        }
        tx.close();
        let mut got = Vec::new();
        while let Ok(Some(v)) = rx.try_dequeue() {
            got.push(v);
        }
        assert_eq!(got, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_producer_consumer_preserves_order() {
        let (tx, rx) = spsc_channel();
        let n = 100_000usize;
        let producer = thread::spawn(move || {
            for i in 0..n {
                tx.enqueue(i);
            }
            tx.close();
        });
        let mut expected = 0usize;
        while let Some(v) = crate::poll(|| rx.try_dequeue()) {
            assert_eq!(v, expected);
            expected += 1;
        }
        assert_eq!(expected, n);
        producer.join().unwrap();
    }

    #[test]
    fn statistics_count_traffic() {
        let (tx, rx) = spsc_channel();
        for i in 0..10 {
            tx.enqueue(i);
        }
        for _ in 0..4 {
            rx.try_dequeue().unwrap();
        }
        assert_eq!(rx.queue().total_enqueued(), 10);
        assert_eq!(rx.queue().total_dequeued(), 4);
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
            let (tx, _rx) = spsc_channel();
            for _ in 0..(SEGMENT_SIZE + 3) {
                tx.enqueue(D);
            }
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), SEGMENT_SIZE + 3);
    }

    #[test]
    fn try_drain_batch_matches_repeated_dequeue() {
        let (tx, rx) = spsc_channel();
        let n = SEGMENT_SIZE * 2 + 11;
        for i in 0..n {
            tx.enqueue(i);
        }
        tx.close();
        let mut got = Vec::new();
        while let Ok(drained) = rx.try_drain_batch(&mut got, 13) {
            assert!((1..=13).contains(&drained));
        }
        assert_eq!(got, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn boxed_payloads_round_trip() {
        let (tx, rx) = spsc_channel::<Box<dyn FnOnce() -> i32 + Send>>();
        tx.enqueue(Box::new(|| 7));
        tx.enqueue(Box::new(|| 8));
        let a = rx.try_dequeue().unwrap().unwrap()();
        let b = rx.try_dequeue().unwrap().unwrap()();
        assert_eq!(a + b, 15);
    }
}
