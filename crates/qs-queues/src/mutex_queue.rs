//! A naive lock-based MPMC queue, optionally capacity-bounded.
//!
//! This is the queue the *unoptimised* SCOOP runtime (configuration "None" in
//! §4) uses for its single request queue, and the baseline in the queue
//! ablation benchmark (E9): every operation takes a mutex, so each handoff
//! pays at least one lock round-trip.
//!
//! To keep the optimisation study apples-to-apples, the lock-based
//! configuration gets the same mailbox semantics as the queue-of-queues one:
//! [`with_capacity`](MutexQueue::with_capacity) bounds the queue (producers
//! block on a condition variable — *backpressure* — instead of growing it
//! without limit), consumers poll and are woken through the [`WakeHook`], and
//! [`try_drain_batch`](MutexQueue::try_drain_batch) hands the consumer a
//! whole batch per lock acquisition instead of one item.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use qs_sync::OnceValue;

use crate::{BlockWatcher, Closed, WakeHook, WakeReason};

/// A mutex-protected FIFO queue with a close protocol and an optional
/// capacity bound.
///
/// ```
/// use qs_queues::{Closed, MutexQueue};
/// let q = MutexQueue::new();
/// q.enqueue(3);
/// assert_eq!(q.try_dequeue(), Ok(Some(3)));
/// q.close();
/// assert_eq!(q.try_dequeue(), Err(Closed));
/// ```
pub struct MutexQueue<T> {
    inner: Mutex<Inner<T>>,
    /// Producers blocked on a full bounded queue wait here.
    not_full: Condvar,
    /// `None` = unbounded (the seed behaviour).
    capacity: Option<usize>,
    /// The consumer-wake hook; see [`WakeHook`].
    wake_hook: OnceValue<WakeHook>,
}

impl<T> std::fmt::Debug for MutexQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MutexQueue")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("closed", &self.is_closed())
            .finish()
    }
}

#[derive(Debug)]
struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    enqueued: usize,
    dequeued: usize,
    stalls: usize,
}

impl<T> Default for MutexQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> MutexQueue<T> {
    /// Creates an empty, open, unbounded queue.
    pub fn new() -> Self {
        Self::with_capacity(None)
    }

    /// Creates an empty, open queue bounded at `capacity` items (`None` =
    /// unbounded).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is `Some(0)`.
    pub fn with_capacity(capacity: Option<usize>) -> Self {
        assert!(capacity != Some(0), "a bounded queue needs capacity >= 1");
        MutexQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
                enqueued: 0,
                dequeued: 0,
                stalls: 0,
            }),
            not_full: Condvar::new(),
            capacity,
            wake_hook: OnceValue::new(),
        }
    }

    /// Registers the consumer-wake hook, invoked after every enqueue and on
    /// close (outside the queue lock).  May be set at most once; subsequent
    /// calls are ignored.
    pub fn set_wake_hook(&self, hook: WakeHook) {
        let _ = self.wake_hook.set(hook);
    }

    fn invoke_wake_hook(&self, reason: WakeReason) {
        if let Some(hook) = self.wake_hook.get() {
            hook(reason);
        }
    }

    /// The capacity bound, or `None` if unbounded.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    fn is_full(&self, inner: &Inner<T>) -> bool {
        matches!(self.capacity, Some(cap) if inner.items.len() >= cap)
    }

    /// Whether `len` items sit at or past the half-full watermark of a
    /// bounded queue (see [`WakeReason::Pressure`]); unbounded queues are
    /// never pressured.
    fn pressured_at(&self, len: usize) -> bool {
        matches!(self.capacity, Some(cap) if len * 2 >= cap)
    }

    /// The [`WakeReason`] for a push that left `len` items queued and may
    /// have stalled waiting for space.
    fn push_reason(&self, stalled: bool, len: usize) -> WakeReason {
        if stalled || self.pressured_at(len) {
            WakeReason::Pressure
        } else {
            WakeReason::Enqueue
        }
    }

    /// Returns `true` while a bounded queue sits at or past its half-full
    /// watermark.  Always `false` for unbounded queues — answered without
    /// touching the queue mutex, since consumers poll this on their hot
    /// path.
    pub fn is_pressured(&self) -> bool {
        self.capacity.is_some() && self.pressured_at(self.len())
    }

    /// Signals waiting producers that space appeared.  An unbounded queue
    /// can never have a producer waiting on `not_full`, so the consumer-side
    /// hot path (the E9 lock-based baseline) skips the condvar entirely.
    fn notify_space(&self) {
        if self.capacity.is_some() {
            self.not_full.notify_all();
        }
    }

    /// Attempts to append `value` without blocking; hands it back when the
    /// queue is at capacity.
    pub fn try_enqueue(&self, value: T) -> Result<(), T> {
        let mut inner = self.inner.lock().unwrap();
        if self.is_full(&inner) {
            return Err(value);
        }
        inner.items.push_back(value);
        inner.enqueued += 1;
        let len = inner.items.len();
        drop(inner);
        self.invoke_wake_hook(self.push_reason(false, len));
        Ok(())
    }

    /// Appends `value`, blocking while the queue is at capacity
    /// (backpressure).  Returns `true` if the enqueue had to wait for space.
    ///
    /// Once the queue is closed the bound is no longer enforced: a draining
    /// (or exiting) consumer must never leave a producer blocked forever, so
    /// shutdown reverts to the unbounded enqueue semantics.
    pub fn enqueue(&self, value: T) -> bool {
        let mut inner = self.inner.lock().unwrap();
        let mut stalled = false;
        while self.is_full(&inner) && !inner.closed {
            if !stalled {
                stalled = true;
                inner.stalls += 1;
            }
            inner = self.not_full.wait(inner).unwrap();
        }
        inner.items.push_back(value);
        inner.enqueued += 1;
        let len = inner.items.len();
        drop(inner);
        self.invoke_wake_hook(self.push_reason(stalled, len));
        stalled
    }

    /// [`enqueue`](Self::enqueue) under a [`BlockWatcher`]: the watcher
    /// observes the blocking (backpressure) interval and may abort the wait,
    /// in which case the value is handed back in `Err` without having been
    /// enqueued.  An unbounded queue never blocks and never consults the
    /// watcher.
    ///
    /// Watcher callbacks run *outside* the queue lock (they typically take a
    /// registry lock of their own).  The wait polls `should_abort` on a
    /// short condvar timeout, so an abort is observed promptly even without
    /// a [`wake_producers`](Self::wake_producers) nudge.
    pub fn enqueue_watched(&self, value: T, watcher: &dyn BlockWatcher) -> Result<bool, T> {
        let mut stalled = false;
        let mut inner = self.inner.lock().unwrap();
        while self.is_full(&inner) && !inner.closed {
            if !stalled {
                stalled = true;
                inner.stalls += 1;
                // First wait round: register the block with the watcher,
                // outside the queue lock, then re-evaluate from scratch.
                drop(inner);
                watcher.block_begin();
            } else {
                let (guard, _timed_out) = self
                    .not_full
                    .wait_timeout(inner, Duration::from_millis(5))
                    .unwrap();
                // Poll the abort flag outside the queue lock (the watcher
                // contract), re-acquiring it for the loop re-check.
                drop(guard);
            }
            if watcher.should_abort() {
                watcher.block_end();
                return Err(value);
            }
            inner = self.inner.lock().unwrap();
        }
        inner.items.push_back(value);
        inner.enqueued += 1;
        let len = inner.items.len();
        drop(inner);
        if stalled {
            watcher.block_end();
        }
        self.invoke_wake_hook(self.push_reason(stalled, len));
        Ok(stalled)
    }

    /// Wakes every producer blocked waiting for space (the deadlock
    /// detector's nudge after requesting an abort; spurious wakes are
    /// harmless).  No-op for unbounded queues, which never block producers.
    pub fn wake_producers(&self) {
        self.notify_space();
    }

    /// Returns `true` while a bounded queue is at capacity; always `false`
    /// for unbounded queues.  The deadlock detector's liveness probe for
    /// registered blocked-push edges.
    pub fn is_at_capacity(&self) -> bool {
        self.capacity.is_some() && self.is_full(&self.inner.lock().unwrap())
    }

    /// Closes the queue; consumers observe [`Closed`] after draining.
    pub fn close(&self) {
        self.close_without_wake();
        self.invoke_wake_hook(WakeReason::Close);
    }

    /// [`close`](Self::close) without invoking the wake hook, for a closer
    /// that drives the consumer itself.  Producers blocked for space still
    /// wake and observe the close.
    pub fn close_without_wake(&self) {
        self.inner.lock().unwrap().closed = true;
        self.not_full.notify_all();
    }

    /// Returns `true` once the queue has been closed.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().unwrap().closed
    }

    /// Current number of queued items.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().items.len()
    }

    /// Returns `true` if no items are currently queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of enqueue operations so far.
    pub fn total_enqueued(&self) -> usize {
        self.inner.lock().unwrap().enqueued
    }

    /// Total number of successful dequeues so far.
    pub fn total_dequeued(&self) -> usize {
        self.inner.lock().unwrap().dequeued
    }

    /// Number of blocking enqueues that found the queue full and had to wait
    /// (the backpressure stall count).  Always zero for unbounded queues.
    pub fn total_stalls(&self) -> usize {
        self.inner.lock().unwrap().stalls
    }

    /// Attempts to dequeue without blocking.
    ///
    /// Returns `Ok(Some(v))` for an item, `Ok(None)` if currently empty but
    /// open, `Err(Closed)` if closed and drained.
    pub fn try_dequeue(&self) -> Result<Option<T>, Closed> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(v) = inner.items.pop_front() {
            inner.dequeued += 1;
            drop(inner);
            self.notify_space();
            Ok(Some(v))
        } else if inner.closed {
            Err(Closed)
        } else {
            Ok(None)
        }
    }

    /// Drains up to `max` immediately available items into `out` without
    /// blocking.  Returns the number of items appended, or [`Closed`] if the
    /// queue is closed and fully drained.
    pub fn try_drain_batch(&self, out: &mut Vec<T>, max: usize) -> Result<usize, Closed> {
        let mut inner = self.inner.lock().unwrap();
        if inner.items.is_empty() && inner.closed {
            return Err(Closed);
        }
        let drained = self.drain_locked(&mut inner, out, max);
        drop(inner);
        if drained > 0 {
            self.notify_space();
        }
        Ok(drained)
    }

    fn drain_locked(&self, inner: &mut Inner<T>, out: &mut Vec<T>, max: usize) -> usize {
        let take = inner.items.len().min(max);
        out.extend(inner.items.drain(..take));
        inner.dequeued += take;
        take
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn fifo_order() {
        let q = MutexQueue::new();
        q.enqueue(1);
        q.enqueue(2);
        q.enqueue(3);
        assert_eq!(q.len(), 3);
        assert_eq!(q.try_dequeue(), Ok(Some(1)));
        assert_eq!(q.try_dequeue(), Ok(Some(2)));
        assert_eq!(q.try_dequeue(), Ok(Some(3)));
        assert!(q.is_empty());
    }

    #[test]
    fn try_dequeue_distinguishes_empty_and_closed() {
        let q = MutexQueue::<i32>::new();
        assert_eq!(q.try_dequeue(), Ok(None));
        q.close();
        assert_eq!(q.try_dequeue(), Err(Closed));
        assert!(q.is_closed());
    }

    #[test]
    fn bounded_enqueue_blocks_and_counts_the_stall() {
        let q = Arc::new(MutexQueue::with_capacity(Some(2)));
        assert_eq!(q.capacity(), Some(2));
        assert!(!q.enqueue(1));
        assert!(!q.enqueue(2));
        assert_eq!(q.try_enqueue(3), Err(3));
        let q2 = Arc::clone(&q);
        let producer = thread::spawn(move || q2.enqueue(3));
        thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.try_dequeue(), Ok(Some(1)));
        assert!(producer.join().unwrap(), "full enqueue must report a stall");
        assert_eq!(q.total_stalls(), 1);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn watched_enqueue_can_be_aborted() {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

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

        let q = Arc::new(MutexQueue::with_capacity(Some(1)));
        q.enqueue(1);
        let watcher = Arc::new(Abortable {
            begins: AtomicUsize::new(0),
            ends: AtomicUsize::new(0),
            abort: AtomicBool::new(false),
        });
        let producer = {
            let (q, watcher) = (Arc::clone(&q), Arc::clone(&watcher));
            thread::spawn(move || q.enqueue_watched(2, &*watcher))
        };
        thread::sleep(std::time::Duration::from_millis(30));
        assert!(q.is_at_capacity());
        watcher.abort.store(true, Ordering::SeqCst);
        q.wake_producers();
        assert_eq!(
            producer.join().unwrap(),
            Err(2),
            "abort hands the value back"
        );
        assert_eq!(watcher.begins.load(Ordering::SeqCst), 1);
        assert_eq!(watcher.ends.load(Ordering::SeqCst), 1);
        assert_eq!(q.len(), 1, "nothing enqueued by the abort");
        // Un-aborted watched enqueues behave like plain ones.
        watcher.abort.store(false, Ordering::SeqCst);
        assert_eq!(q.try_dequeue(), Ok(Some(1)));
        assert_eq!(q.enqueue_watched(3, &*watcher), Ok(false));
        assert_eq!(watcher.begins.load(Ordering::SeqCst), 1, "no new block");
        assert!(!MutexQueue::<u8>::new().is_at_capacity());
    }

    #[test]
    fn unbounded_queue_never_stalls() {
        let q = MutexQueue::new();
        for i in 0..10_000 {
            assert!(!q.enqueue(i));
        }
        assert_eq!(q.total_stalls(), 0);
    }

    #[test]
    fn wake_hook_reports_pressure_only_at_a_bound() {
        use crate::WakeReason;

        let reasons: Arc<std::sync::Mutex<Vec<WakeReason>>> = Arc::default();
        let sink = Arc::clone(&reasons);
        let q = MutexQueue::with_capacity(Some(4));
        q.set_wake_hook(Arc::new(move |reason| sink.lock().unwrap().push(reason)));
        assert!(!q.is_pressured());
        q.enqueue(1); // 1/4: below the watermark
        q.try_enqueue(2).unwrap(); // 2/4: at it
        assert!(q.is_pressured());
        q.close();
        assert_eq!(
            *reasons.lock().unwrap(),
            vec![WakeReason::Enqueue, WakeReason::Pressure, WakeReason::Close]
        );

        let unbounded = MutexQueue::new();
        for i in 0..100 {
            unbounded.enqueue(i);
        }
        assert!(
            !unbounded.is_pressured(),
            "an unbounded queue has no watermark"
        );
    }

    #[test]
    fn try_drain_batch_matches_repeated_dequeue() {
        let q = MutexQueue::new();
        for i in 0..50 {
            q.enqueue(i);
        }
        q.close();
        let mut got = Vec::new();
        while let Ok(n) = q.try_drain_batch(&mut got, 7) {
            assert!((1..=7).contains(&n));
        }
        assert_eq!(got, (0..50).collect::<Vec<_>>());
        assert_eq!(q.total_dequeued(), 50);
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 4;
        const PER_PRODUCER: usize = 5_000;
        let q = Arc::new(MutexQueue::with_capacity(Some(64)));
        let mut producers = Vec::new();
        for p in 0..PRODUCERS {
            let q = Arc::clone(&q);
            producers.push(thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    q.enqueue(p * PER_PRODUCER + i);
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..CONSUMERS {
            let q = Arc::clone(&q);
            consumers.push(thread::spawn(move || {
                let mut count = 0usize;
                let mut batch = Vec::new();
                loop {
                    match q.try_drain_batch(&mut batch, 16) {
                        Err(Closed) => break,
                        Ok(0) => thread::yield_now(),
                        Ok(n) => {
                            count += n;
                            batch.clear();
                        }
                    }
                }
                count
            }));
        }
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let total: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, PRODUCERS * PER_PRODUCER);
        assert_eq!(q.total_enqueued(), PRODUCERS * PER_PRODUCER);
        assert_eq!(q.total_dequeued(), PRODUCERS * PER_PRODUCER);
    }
}
