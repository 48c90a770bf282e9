//! The lock-free multiple-producer/single-consumer *queue-of-queues*.
//!
//! "Each queue-of-queues has many clients trying to gain access, but only one
//! handler removing the private queues. This is a typical multiple-producer
//! single-consumer arrangement, so an efficient lock-free queue specialized
//! for this case can be used" (§3.1).
//!
//! The implementation is the classic Vyukov intrusive MPSC queue: producers
//! append with a single atomic `swap` (wait-free), the unique consumer pops
//! from the other end.  A momentary "inconsistent" window exists while a
//! producer has swapped in its node but not yet linked it; the consumer
//! handles that by retrying with backoff, which is acceptable because the
//! window is a handful of instructions long.

use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};

use qs_sync::{Backoff, CachePadded, OnceValue};

use crate::{Closed, WakeHook, WakeReason};

struct Node<T> {
    next: AtomicPtr<Node<T>>,
    value: Option<T>,
}

impl<T> Node<T> {
    fn new(value: Option<T>) -> *mut Self {
        Box::into_raw(Box::new(Node {
            next: AtomicPtr::new(ptr::null_mut()),
            value,
        }))
    }
}

/// Result of a non-blocking pop from the queue-of-queues.
#[derive(Debug, PartialEq, Eq)]
enum Pop<T> {
    Item(T),
    Empty,
    /// A producer is mid-push; retry shortly.
    Inconsistent,
}

/// A lock-free unbounded MPSC queue with a polling consumer side, a
/// consumer-wake hook and a close ("no more work") protocol.
///
/// ```
/// use qs_queues::{Closed, QueueOfQueues};
/// let q = QueueOfQueues::new();
/// q.enqueue(5);
/// assert_eq!(q.try_dequeue(), Ok(Some(5)));
/// assert_eq!(q.try_dequeue(), Ok(None));
/// q.close();
/// assert_eq!(q.try_dequeue(), Err(Closed));
/// ```
pub struct QueueOfQueues<T> {
    /// Producers swap new nodes into `head`.
    head: CachePadded<AtomicPtr<Node<T>>>,
    /// The consumer advances `tail` (the current stub node).
    tail: CachePadded<AtomicPtr<Node<T>>>,
    closed: AtomicBool,
    enqueued: AtomicUsize,
    dequeued: AtomicUsize,
    /// The consumer-wake hook; see [`WakeHook`].
    wake_hook: OnceValue<WakeHook>,
}

// SAFETY: producers only touch `head` (atomic swap) and their own node;
// the single consumer owns `tail`.  Values are moved across threads.
unsafe impl<T: Send> Send for QueueOfQueues<T> {}
unsafe impl<T: Send> Sync for QueueOfQueues<T> {}

impl<T> Default for QueueOfQueues<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> QueueOfQueues<T> {
    /// Creates an empty, open queue.
    pub fn new() -> Self {
        let stub = Node::new(None);
        QueueOfQueues {
            head: CachePadded::new(AtomicPtr::new(stub)),
            tail: CachePadded::new(AtomicPtr::new(stub)),
            closed: AtomicBool::new(false),
            enqueued: AtomicUsize::new(0),
            dequeued: AtomicUsize::new(0),
            wake_hook: OnceValue::new(),
        }
    }

    /// Registers the consumer-wake hook, invoked after every enqueue and on
    /// close.  May be set at most once (subsequent calls are ignored); the
    /// consumer's scheduler registers it before any producer it wants to
    /// hear from starts enqueuing.
    pub fn set_wake_hook(&self, hook: WakeHook) {
        let _ = self.wake_hook.set(hook);
    }

    fn invoke_wake_hook(&self, reason: WakeReason) {
        if let Some(hook) = self.wake_hook.get() {
            hook(reason);
        }
    }

    /// Appends `value`.  Wait-free for producers: one allocation, one swap,
    /// one store.  The queue-of-queues is unbounded, so its wakes always
    /// carry [`WakeReason::Enqueue`] — pressure originates in the (bounded)
    /// private queues, never here.
    pub fn enqueue(&self, value: T) {
        let node = Node::new(Some(value));
        // SAFETY: `node` is a fresh allocation we exclusively own until the
        // consumer reaches it.
        let prev = self.head.swap(node, Ordering::AcqRel);
        // Linking the previous head to the new node completes the push.  The
        // brief window before this store is the "inconsistent" state.
        unsafe { (*prev).next.store(node, Ordering::Release) };
        self.enqueued.fetch_add(1, Ordering::Relaxed);
        self.invoke_wake_hook(WakeReason::Enqueue);
    }

    /// Marks the queue closed.  The consumer drains the remaining items and
    /// then observes [`Closed`].
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.invoke_wake_hook(WakeReason::Close);
    }

    /// Returns `true` once [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Total number of enqueue operations (statistics; racy snapshot).
    pub fn total_enqueued(&self) -> usize {
        self.enqueued.load(Ordering::Relaxed)
    }

    /// Total number of successful dequeue operations (statistics).
    pub fn total_dequeued(&self) -> usize {
        self.dequeued.load(Ordering::Relaxed)
    }

    /// Non-blocking pop; must only be called from the single consumer thread.
    fn pop(&self) -> Pop<T> {
        let tail = self.tail.load(Ordering::Relaxed);
        // SAFETY: `tail` is always a valid node owned by the consumer (the
        // current stub).
        let next = unsafe { (*tail).next.load(Ordering::Acquire) };
        if !next.is_null() {
            self.tail.store(next, Ordering::Relaxed);
            // SAFETY: `next` was fully published by its producer (release
            // store observed with acquire); taking the value transfers
            // ownership, and the old stub is ours to free.
            let value = unsafe { (*next).value.take() };
            unsafe { drop(Box::from_raw(tail)) };
            self.dequeued.fetch_add(1, Ordering::Relaxed);
            return Pop::Item(value.expect("non-stub node must carry a value"));
        }
        // No linked successor.  If head == tail the queue is genuinely empty;
        // otherwise a producer is mid-push.
        if self.head.load(Ordering::Acquire) == tail {
            Pop::Empty
        } else {
            Pop::Inconsistent
        }
    }

    /// Attempts to dequeue without blocking.
    ///
    /// Returns `Ok(Some(v))` on success, `Ok(None)` if empty-but-open, and
    /// `Err(Closed)` if closed and drained.
    pub fn try_dequeue(&self) -> Result<Option<T>, Closed> {
        let backoff = Backoff::new();
        loop {
            match self.pop() {
                Pop::Item(v) => return Ok(Some(v)),
                Pop::Inconsistent => backoff.spin(),
                Pop::Empty => {
                    if self.closed.load(Ordering::Acquire) {
                        // An enqueue may have raced ahead of the close flag.
                        return match self.pop() {
                            Pop::Item(v) => Ok(Some(v)),
                            Pop::Empty => Err(Closed),
                            Pop::Inconsistent => {
                                backoff.spin();
                                continue;
                            }
                        };
                    }
                    return Ok(None);
                }
            }
        }
    }
}

impl<T> Drop for QueueOfQueues<T> {
    fn drop(&mut self) {
        let mut node = *self.tail.get_mut();
        while !node.is_null() {
            // SAFETY: during drop we own every remaining node.
            let next = unsafe { (*node).next.load(Ordering::Relaxed) };
            unsafe { drop(Box::from_raw(node)) };
            node = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn single_thread_fifo() {
        let q = QueueOfQueues::new();
        for i in 0..100 {
            q.enqueue(i);
        }
        for i in 0..100 {
            assert_eq!(q.try_dequeue(), Ok(Some(i)));
        }
        assert_eq!(q.try_dequeue(), Ok(None));
    }

    #[test]
    fn close_after_drain() {
        let q = QueueOfQueues::new();
        q.enqueue('a');
        q.close();
        assert_eq!(q.try_dequeue(), Ok(Some('a')));
        assert_eq!(q.try_dequeue(), Err(Closed));
        assert!(q.is_closed());
    }

    #[test]
    fn many_producers_every_item_arrives_exactly_once() {
        const PRODUCERS: usize = 8;
        const PER_PRODUCER: usize = 10_000;
        let q = Arc::new(QueueOfQueues::new());
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let q = Arc::clone(&q);
            handles.push(thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    q.enqueue(p * PER_PRODUCER + i);
                }
            }));
        }
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut seen = HashSet::new();
                while let Some(v) = crate::poll(|| q.try_dequeue()) {
                    assert!(seen.insert(v), "duplicate item {v}");
                }
                seen
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        q.close();
        let seen = consumer.join().unwrap();
        assert_eq!(seen.len(), PRODUCERS * PER_PRODUCER);
    }

    #[test]
    fn per_producer_order_is_preserved() {
        // The reasoning guarantee the runtime relies on: each producer's items
        // come out in the order that producer inserted them (global order may
        // interleave).
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 5_000;
        let q = Arc::new(QueueOfQueues::new());
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let q = Arc::clone(&q);
            handles.push(thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    q.enqueue((p, i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        q.close();
        let mut last = [None; PRODUCERS];
        while let Ok(Some((p, i))) = q.try_dequeue() {
            if let Some(prev) = last[p] {
                assert!(i > prev, "producer {p} reordered: {prev} then {i}");
            }
            last[p] = Some(i);
        }
        for (p, l) in last.iter().enumerate() {
            assert_eq!(*l, Some(PER_PRODUCER - 1), "producer {p} lost items");
        }
    }

    #[test]
    fn wake_hook_fires_on_enqueue_and_close() {
        let reasons: Arc<std::sync::Mutex<Vec<WakeReason>>> = Arc::default();
        let sink = Arc::clone(&reasons);
        let q = QueueOfQueues::new();
        q.set_wake_hook(Arc::new(move |reason| sink.lock().unwrap().push(reason)));
        q.enqueue(1u8);
        q.close();
        assert_eq!(
            *reasons.lock().unwrap(),
            vec![WakeReason::Enqueue, WakeReason::Close]
        );
    }

    #[test]
    fn drop_frees_pending_items() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let q = QueueOfQueues::new();
            for _ in 0..10 {
                q.enqueue(D);
            }
            let _ = q.try_dequeue();
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn statistics_track_traffic() {
        let q = QueueOfQueues::new();
        q.enqueue(1);
        q.enqueue(2);
        let _ = q.try_dequeue();
        assert_eq!(q.total_enqueued(), 2);
        assert_eq!(q.total_dequeued(), 1);
    }
}
