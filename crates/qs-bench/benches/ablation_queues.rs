//! §3.1 ablation: the specialised queue structures against the naive
//! mutex-protected queue that the unoptimised runtime uses.  Consumers
//! poll (`try_dequeue`) and yield while their queue is empty.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qs_queues::{spsc_channel, Closed, MutexQueue, QueueOfQueues};

const ITEMS: usize = 20_000;
const PRODUCERS: usize = 4;

/// Polls `try_dequeue` until `expected` items arrived or the queue closed;
/// returns how many did.
fn consume<T>(
    expected: usize,
    mut try_dequeue: impl FnMut() -> Result<Option<T>, Closed>,
) -> usize {
    let mut count = 0usize;
    while count < expected {
        match try_dequeue() {
            Ok(Some(_)) => count += 1,
            Ok(None) => std::thread::yield_now(),
            Err(Closed) => break,
        }
    }
    count
}

fn spsc_throughput() {
    let (tx, rx) = spsc_channel();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for i in 0..ITEMS {
                tx.enqueue(i);
            }
            tx.close();
        });
        // One more than was sent: runs until the close, exactly-once checked.
        assert_eq!(consume(ITEMS + 1, || rx.try_dequeue()), ITEMS);
    });
}

fn mpsc_throughput() {
    let queue = QueueOfQueues::new();
    std::thread::scope(|scope| {
        for p in 0..PRODUCERS {
            let queue = &queue;
            scope.spawn(move || {
                for i in 0..ITEMS / PRODUCERS {
                    queue.enqueue(p * ITEMS + i);
                }
            });
        }
        scope.spawn(|| {
            let expected = (ITEMS / PRODUCERS) * PRODUCERS;
            assert_eq!(consume(expected, || queue.try_dequeue()), expected);
            queue.close();
        });
    });
}

fn mutex_throughput() {
    let queue = MutexQueue::new();
    std::thread::scope(|scope| {
        for p in 0..PRODUCERS {
            let queue = &queue;
            scope.spawn(move || {
                for i in 0..ITEMS / PRODUCERS {
                    queue.enqueue(p * ITEMS + i);
                }
            });
        }
        scope.spawn(|| {
            let expected = (ITEMS / PRODUCERS) * PRODUCERS;
            assert_eq!(consume(expected, || queue.try_dequeue()), expected);
            queue.close();
        });
    });
}

fn ablation_queues(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_queue_structures");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(600));
    group.bench_function(BenchmarkId::new("spsc_private_queue", ITEMS), |b| {
        b.iter(spsc_throughput)
    });
    group.bench_function(BenchmarkId::new("mpsc_queue_of_queues", ITEMS), |b| {
        b.iter(mpsc_throughput)
    });
    group.bench_function(BenchmarkId::new("mutex_queue", ITEMS), |b| {
        b.iter(mutex_throughput)
    });
    group.finish();
}

criterion_group!(benches, ablation_queues);
criterion_main!(benches);
