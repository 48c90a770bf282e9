//! Property-based tests for the queue substrate.
//!
//! The reasoning guarantees of SCOOP/Qs (§2.2) rest on two queue properties:
//! per-producer FIFO order and exactly-once delivery.  These properties are
//! exercised here with randomly generated operation sequences and thread
//! interleavings.  Consumers only poll (`try_dequeue` / `try_drain_batch`),
//! so a consuming thread here yields between empty polls.

use proptest::prelude::*;
use qs_queues::bounded::CHUNK_SLOTS;
use qs_queues::{bounded_spsc_channel, spsc_channel, Closed, MutexQueue, QueueOfQueues};
use std::sync::Arc;
use std::thread;

/// Polls until an item arrives (`Some`) or the queue is closed and drained
/// (`None`), yielding the CPU between empty polls.
fn poll<T>(mut try_dequeue: impl FnMut() -> Result<Option<T>, Closed>) -> Option<T> {
    loop {
        match try_dequeue() {
            Ok(Some(item)) => return Some(item),
            Ok(None) => thread::yield_now(),
            Err(Closed) => return None,
        }
    }
}

/// The batch form of [`poll`]: `Some(n)` with `n >= 1` items appended.
fn poll_batch(mut try_drain: impl FnMut() -> Result<usize, Closed>) -> Option<usize> {
    loop {
        match try_drain() {
            Ok(0) => thread::yield_now(),
            Ok(n) => return Some(n),
            Err(Closed) => return None,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The SPSC private queue is a FIFO under any interleaving of enqueues
    /// and dequeues performed by one producer and one consumer thread.
    #[test]
    fn spsc_is_fifo(items in proptest::collection::vec(any::<u32>(), 0..2_000)) {
        let (tx, rx) = spsc_channel();
        let expected = items.clone();
        let producer = thread::spawn(move || {
            for item in items {
                tx.enqueue(item);
            }
            tx.close();
        });
        let mut got = Vec::new();
        while let Some(v) = poll(|| rx.try_dequeue()) {
            got.push(v);
        }
        producer.join().unwrap();
        prop_assert_eq!(got, expected);
    }

    /// The MPSC queue-of-queues delivers every item exactly once and keeps
    /// each producer's items in their insertion order.
    #[test]
    fn mpsc_per_producer_fifo(
        per_producer in proptest::collection::vec(
            proptest::collection::vec(any::<u16>(), 0..500), 1..6)
    ) {
        let q = Arc::new(QueueOfQueues::new());
        let mut handles = Vec::new();
        for (p, items) in per_producer.iter().cloned().enumerate() {
            let q = Arc::clone(&q);
            handles.push(thread::spawn(move || {
                for (i, item) in items.into_iter().enumerate() {
                    q.enqueue((p, i, item));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        q.close();
        let mut next_index = vec![0usize; per_producer.len()];
        let mut received = vec![Vec::new(); per_producer.len()];
        while let Some((p, i, item)) = poll(|| q.try_dequeue()) {
            prop_assert_eq!(i, next_index[p], "producer {} reordered", p);
            next_index[p] += 1;
            received[p].push(item);
        }
        prop_assert_eq!(received, per_producer);
    }

    /// A sequential interleaving of operations on the lock-free MPSC queue
    /// matches the behaviour of the reference mutex queue.
    #[test]
    fn mpsc_matches_mutex_queue_sequentially(ops in proptest::collection::vec(any::<Option<u8>>(), 0..400)) {
        let fast = QueueOfQueues::new();
        let reference = MutexQueue::new();
        for op in ops {
            match op {
                Some(v) => {
                    fast.enqueue(v);
                    reference.enqueue(v);
                }
                None => {
                    let a = fast.try_dequeue();
                    let b = reference.try_dequeue();
                    prop_assert_eq!(a, b);
                }
            }
        }
        // Drain both; remaining contents must agree.
        loop {
            let a = fast.try_dequeue();
            let b = reference.try_dequeue();
            prop_assert_eq!(&a, &b);
            if a == Ok(None) {
                break;
            }
        }
    }

    /// The bounded ring delivers every item exactly once, in FIFO order,
    /// across a real producer/consumer thread pair, and its length never
    /// exceeds the capacity — for any capacity, including the degenerate 1,
    /// one chunk, several, and a partial last chunk.  `warmup` items pass
    /// through first, so the run starts at any offset from a chunk boundary
    /// and from the wrap point.
    #[test]
    fn bounded_ring_is_fifo_and_respects_capacity(
        items in proptest::collection::vec(any::<u32>(), 0..2_000),
        capacity in 1usize..3 * CHUNK_SLOTS + 2,
        warmup in 0usize..2 * CHUNK_SLOTS,
    ) {
        let (tx, rx) = bounded_spsc_channel(capacity);
        for i in 0..warmup {
            tx.push(u32::MAX);
            if i + 1 >= capacity || i + 1 == warmup {
                while !rx.queue().is_empty() {
                    prop_assert_eq!(rx.try_dequeue(), Ok(Some(u32::MAX)));
                }
            }
        }
        let expected = items.clone();
        let producer = thread::spawn(move || {
            let mut stalls = 0usize;
            for item in items {
                if tx.push(item) {
                    stalls += 1;
                }
            }
            tx.close();
            (tx, stalls)
        });
        let mut got = Vec::new();
        loop {
            let len = rx.queue().len();
            prop_assert!(len <= capacity, "len {} exceeded capacity {}", len, capacity);
            match poll(|| rx.try_dequeue()) {
                Some(v) => got.push(v),
                None => break,
            }
        }
        let (tx, stalls) = producer.join().unwrap();
        // Exactly once, in order: the received sequence *is* the sent one.
        prop_assert_eq!(&got, &expected);
        prop_assert_eq!(tx.queue().total_enqueued(), warmup + expected.len());
        prop_assert_eq!(tx.queue().total_dequeued(), warmup + expected.len());
        prop_assert_eq!(tx.queue().total_stalls(), stalls);
    }

    /// Draining in batches is observably equivalent to repeated single
    /// dequeues: same items, same order, same close behaviour — for any
    /// batch limit, capacity and item count.
    #[test]
    fn bounded_drain_batch_equals_repeated_dequeue(
        items in proptest::collection::vec(any::<u16>(), 0..600),
        capacity in 1usize..9,
        max_batch in 1usize..12,
    ) {
        // Feed both queues the same way: producer threads with identical
        // input, so backpressure interleavings are exercised on both.
        let run = |by_batch: bool| {
            let (tx, rx) = bounded_spsc_channel(capacity);
            let items = items.clone();
            let producer = thread::spawn(move || {
                for item in items {
                    tx.push(item);
                }
                tx.close();
            });
            let mut got = Vec::new();
            if by_batch {
                while let Some(n) = poll_batch(|| rx.try_drain_batch(&mut got, max_batch)) {
                    assert!(n <= max_batch);
                }
            } else {
                while let Some(v) = poll(|| rx.try_dequeue()) {
                    got.push(v);
                }
            }
            producer.join().unwrap();
            got
        };
        prop_assert_eq!(run(true), run(false));
    }

    /// The bounded MutexQueue (the lock-based configuration's mailbox) keeps
    /// the same FIFO/exactly-once guarantees and honours its capacity bound.
    #[test]
    fn bounded_mutex_queue_is_fifo_and_respects_capacity(
        items in proptest::collection::vec(any::<u32>(), 0..800),
        capacity in 1usize..9,
        max_batch in 1usize..12,
    ) {
        let q = Arc::new(MutexQueue::with_capacity(Some(capacity)));
        let expected = items.clone();
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                for item in items {
                    q.enqueue(item);
                }
                q.close();
            })
        };
        let mut got = Vec::new();
        loop {
            prop_assert!(q.len() <= capacity, "len exceeded capacity {}", capacity);
            match poll_batch(|| q.try_drain_batch(&mut got, max_batch)) {
                Some(n) => prop_assert!(n <= max_batch),
                None => break,
            }
        }
        producer.join().unwrap();
        prop_assert_eq!(&got, &expected);
        prop_assert_eq!(q.total_enqueued(), expected.len());
        prop_assert_eq!(q.total_dequeued(), expected.len());
    }

    /// Closing with items still queued never loses them.
    #[test]
    fn close_does_not_drop_pending_items(n in 0usize..500) {
        let (tx, rx) = spsc_channel();
        for i in 0..n {
            tx.enqueue(i);
        }
        tx.close();
        let mut count = 0;
        while let Some(v) = poll(|| rx.try_dequeue()) {
            assert_eq!(v, count);
            count += 1;
        }
        prop_assert_eq!(count, n);
    }
}
