//! A work-stealing deque: owner-LIFO, thief-FIFO.
//!
//! The scheduling literature the paper builds on (Cilk-style work stealing,
//! §6 "Related Work") keeps one deque per worker: the owner pushes and pops
//! at one end (LIFO, for locality and depth-first execution of fork/join
//! work), thieves steal from the other end (FIFO, taking the oldest — and
//! typically largest — piece of work).  This module provides that structure
//! with a short critical section per operation: a spinlock-protected ring
//! plus an atomic length that lets thieves skip empty deques without ever
//! touching the lock, which is where almost all steal attempts end in a
//! balanced system.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use qs_sync::SpinLock;

struct DequeShared<T> {
    items: SpinLock<VecDeque<T>>,
    /// Cached length so thieves can skip empty deques without locking.
    len: AtomicUsize,
}

/// The owner half of a work-stealing deque.  Not `Clone`: exactly one worker
/// pushes and pops locally.
pub struct Worker<T> {
    shared: Arc<DequeShared<T>>,
}

/// The thief half: cheap to clone and share with every other worker.
pub struct Stealer<T> {
    shared: Arc<DequeShared<T>>,
}

impl<T> Clone for Stealer<T> {
    fn clone(&self) -> Self {
        Stealer {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// Creates a connected worker/stealer pair.
pub fn steal_deque<T>() -> (Worker<T>, Stealer<T>) {
    let shared = Arc::new(DequeShared {
        items: SpinLock::new(VecDeque::new()),
        len: AtomicUsize::new(0),
    });
    (
        Worker {
            shared: Arc::clone(&shared),
        },
        Stealer { shared },
    )
}

impl<T> Worker<T> {
    /// Pushes a task onto the owner's end.
    pub fn push(&self, value: T) {
        let mut items = self.shared.items.lock();
        items.push_back(value);
        self.shared.len.store(items.len(), Ordering::Release);
    }

    /// Pops the most recently pushed task (LIFO), if any.
    pub fn pop(&self) -> Option<T> {
        if self.shared.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut items = self.shared.items.lock();
        let value = items.pop_back();
        self.shared.len.store(items.len(), Ordering::Release);
        value
    }

    /// Number of queued tasks (racy snapshot).
    pub fn len(&self) -> usize {
        self.shared.len.load(Ordering::Acquire)
    }

    /// Whether the deque is currently empty (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Stealer<T> {
    /// Steals the oldest task (FIFO end), if any.
    pub fn steal(&self) -> Option<T> {
        if self.shared.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut items = self.shared.items.lock();
        let value = items.pop_front();
        self.shared.len.store(items.len(), Ordering::Release);
        value
    }

    /// Whether the deque looks empty (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.shared.len.load(Ordering::Acquire) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_is_lifo_and_thief_is_fifo() {
        let (worker, stealer) = steal_deque();
        for i in 0..4 {
            worker.push(i);
        }
        assert_eq!(worker.pop(), Some(3), "owner takes the newest");
        assert_eq!(stealer.steal(), Some(0), "thief takes the oldest");
        assert_eq!(worker.pop(), Some(2));
        assert_eq!(stealer.steal(), Some(1));
        assert_eq!(worker.pop(), None);
        assert_eq!(stealer.steal(), None);
    }

    #[test]
    fn lengths_track_operations() {
        let (worker, stealer) = steal_deque();
        assert!(worker.is_empty() && stealer.is_empty());
        for i in 0..10 {
            worker.push(i);
        }
        assert_eq!(worker.len(), 10);
        worker.pop();
        stealer.steal();
        assert_eq!(worker.len(), 8);
    }

    #[test]
    fn concurrent_producers_and_thieves_lose_nothing() {
        use std::sync::atomic::AtomicBool;

        let (worker, stealer) = steal_deque::<u64>();
        let worker = Arc::new(worker);
        let done = Arc::new(AtomicBool::new(false));
        const ITEMS: u64 = 20_000;

        let producer = {
            let worker = Arc::clone(&worker);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut owner_taken = Vec::new();
                for i in 0..ITEMS {
                    worker.push(i);
                    if i % 3 == 0 {
                        if let Some(v) = worker.pop() {
                            owner_taken.push(v);
                        }
                    }
                }
                done.store(true, Ordering::Release);
                owner_taken
            })
        };
        let thieves: Vec<_> = (0..3)
            .map(|_| {
                let stealer = stealer.clone();
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    let mut taken = Vec::new();
                    loop {
                        match stealer.steal() {
                            Some(v) => taken.push(v),
                            None => {
                                if done.load(Ordering::Acquire) && stealer.is_empty() {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        }
                    }
                    taken
                })
            })
            .collect();

        let mut all = producer.join().unwrap();
        // Drain what is left after the producer stopped.
        while let Some(v) = worker.pop() {
            all.push(v);
        }
        for thief in thieves {
            all.extend(thief.join().unwrap());
        }
        // Thieves may exit before the tail is drained; collect the remainder.
        while let Some(v) = stealer.steal() {
            all.push(v);
        }
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), ITEMS as usize, "tasks lost or duplicated");
    }
}
