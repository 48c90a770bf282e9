//! Tasks + channels (the Go stand-in).
//!
//! Go programs in the paper's benchmark suite structure everything as
//! goroutines communicating over channels, with shared memory available but
//! not race-checked (Table 3).  This module provides the same vocabulary:
//! [`go`](Spawner::go) spawns a task on a shared work-stealing pool (goroutines are
//! multiplexed onto OS threads, as are our pool workers), and channels come
//! from `crossbeam` (unbounded and bounded/rendezvous, like Go's buffered and
//! unbuffered channels).

use std::sync::Arc;

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use qs_exec::ThreadPool;
use qs_sync::WaitGroup;

/// A handle to a group of "goroutines" spawned with [`Spawner::go`]; waiting
/// on it joins them all (like a `sync.WaitGroup`).
pub struct Spawner {
    pool: Arc<ThreadPool>,
    wait_group: Arc<WaitGroup>,
}

impl Spawner {
    /// Creates a spawner multiplexing tasks over `threads` OS threads.
    pub fn new(threads: usize) -> Self {
        Spawner {
            pool: Arc::new(ThreadPool::new(threads)),
            wait_group: Arc::new(WaitGroup::new()),
        }
    }

    /// Spawns a task ("goroutine").
    pub fn go<F>(&self, task: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.wait_group.add(1);
        let wait_group = Arc::clone(&self.wait_group);
        self.pool.spawn(move || {
            task();
            wait_group.done();
        });
    }

    /// Waits for every spawned task to finish.
    pub fn wait(&self) {
        self.wait_group.wait();
    }

    /// Number of worker threads backing this spawner.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }
}

/// Creates an unbuffered (rendezvous) channel, like `make(chan T)`.
pub fn chan<T>() -> (Sender<T>, Receiver<T>) {
    bounded(0)
}

/// Creates a buffered channel, like `make(chan T, capacity)`.
pub fn chan_buffered<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    bounded(capacity)
}

/// Creates an unbounded channel (no direct Go equivalent, used where the
/// paper's Go code relies on a large buffer).
pub fn chan_unbounded<T>() -> (Sender<T>, Receiver<T>) {
    unbounded()
}

/// Spawns a dedicated OS thread for a long-running "goroutine" — used by the
/// coordination benchmarks where each participant blocks on channel receives
/// for the whole run (threadring, chameneos).
pub fn go_thread<F, R>(task: F) -> std::thread::JoinHandle<R>
where
    F: FnOnce() -> R + Send + 'static,
    R: Send + 'static,
{
    std::thread::spawn(task)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn spawner_runs_and_joins_tasks() {
        let spawner = Spawner::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            spawner.go(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        spawner.wait();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        assert!(spawner.threads() >= 1);
    }

    #[test]
    fn rendezvous_channel_synchronises() {
        let (tx, rx) = chan::<u32>();
        let sender = go_thread(move || {
            for i in 0..10 {
                tx.send(i).unwrap();
            }
        });
        let received: Vec<u32> = (0..10).map(|_| rx.recv().unwrap()).collect();
        assert_eq!(received, (0..10).collect::<Vec<_>>());
        sender.join().unwrap();
    }

    #[test]
    fn buffered_channel_decouples_producer() {
        let (tx, rx) = chan_buffered(8);
        for i in 0..8 {
            tx.send(i).unwrap(); // does not block up to the capacity
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 8);
    }

    #[test]
    fn pipeline_of_goroutines() {
        // A small producer -> transformer -> consumer pipeline, the idiom the
        // Go versions of the Cowichan problems use.
        let spawner = Spawner::new(3);
        let (raw_tx, raw_rx) = chan_unbounded::<u64>();
        let (sq_tx, sq_rx) = chan_unbounded::<u64>();
        spawner.go(move || {
            for i in 0..100 {
                raw_tx.send(i).unwrap();
            }
        });
        spawner.go(move || {
            while let Ok(v) = raw_rx.recv() {
                sq_tx.send(v * v).unwrap();
            }
        });
        let total: u64 = sq_rx.iter().sum();
        spawner.wait();
        assert_eq!(total, (0..100u64).map(|v| v * v).sum());
    }
}
