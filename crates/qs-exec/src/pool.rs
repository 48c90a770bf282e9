//! A work-stealing thread pool for `'static` tasks.
//!
//! Workers keep their own LIFO deques and steal FIFO from each other (the
//! Cilk/BWS discipline discussed in §6 of the paper); an injector queue feeds
//! external submissions.  The pool is used by the parallel (Cowichan)
//! workloads and by the baseline paradigms.  Handlers are scheduled
//! elsewhere: they are M:N multiplexed onto
//! [`crate::handler_scheduler::HandlerScheduler`], which tolerates blocking
//! steps via compensation workers.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::deque::{Injector, Stealer, Worker};
use parking_lot::{Condvar, Mutex};

type Task = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    injector: Injector<Task>,
    stealers: Vec<Stealer<Task>>,
    shutdown: AtomicBool,
    /// Number of tasks submitted but not yet finished.
    pending: AtomicUsize,
    /// Number of workers currently parked.
    sleeping: AtomicUsize,
    /// Number of tasks that panicked.
    panicked: AtomicUsize,
    idle_lock: Mutex<()>,
    idle_cond: Condvar,
    all_done_lock: Mutex<()>,
    all_done_cond: Condvar,
}

impl Shared {
    /// Runs one task, recording panics and signalling completion.
    fn execute(&self, task: Task) {
        if catch_unwind(AssertUnwindSafe(task)).is_err() {
            self.panicked.fetch_add(1, Ordering::Relaxed);
        }
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = self.all_done_lock.lock();
            self.all_done_cond.notify_all();
        }
    }

    /// Steals one task from the injector or any worker deque, for threads
    /// that are not pool workers (or workers helping while they wait).
    fn steal_task(&self) -> Option<Task> {
        loop {
            match self.injector.steal() {
                crossbeam::deque::Steal::Success(task) => return Some(task),
                crossbeam::deque::Steal::Retry => continue,
                crossbeam::deque::Steal::Empty => break,
            }
        }
        for stealer in &self.stealers {
            loop {
                match stealer.steal() {
                    crossbeam::deque::Steal::Success(task) => return Some(task),
                    crossbeam::deque::Steal::Retry => continue,
                    crossbeam::deque::Steal::Empty => break,
                }
            }
        }
        None
    }

    fn notify_one(&self) {
        if self.sleeping.load(Ordering::Acquire) > 0 {
            let _guard = self.idle_lock.lock();
            self.idle_cond.notify_one();
        }
    }

    fn notify_all(&self) {
        let _guard = self.idle_lock.lock();
        self.idle_cond.notify_all();
    }
}

/// A fixed-size work-stealing thread pool.
///
/// ```
/// use qs_exec::ThreadPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
///
/// let pool = ThreadPool::new(4);
/// let counter = Arc::new(AtomicUsize::new(0));
/// for _ in 0..100 {
///     let counter = Arc::clone(&counter);
///     pool.spawn(move || { counter.fetch_add(1, Ordering::SeqCst); });
/// }
/// pool.wait_idle();
/// assert_eq!(counter.load(Ordering::SeqCst), 100);
/// ```
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl ThreadPool {
    /// Creates a pool with `threads` worker threads (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let workers_local: Vec<Worker<Task>> = (0..threads).map(|_| Worker::new_lifo()).collect();
        let stealers = workers_local.iter().map(|w| w.stealer()).collect();
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            stealers,
            shutdown: AtomicBool::new(false),
            pending: AtomicUsize::new(0),
            sleeping: AtomicUsize::new(0),
            panicked: AtomicUsize::new(0),
            idle_lock: Mutex::new(()),
            idle_cond: Condvar::new(),
            all_done_lock: Mutex::new(()),
            all_done_cond: Condvar::new(),
        });
        let workers = workers_local
            .into_iter()
            .enumerate()
            .map(|(index, local)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("qs-worker-{index}"))
                    .spawn(move || worker_loop(index, local, shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            workers,
            threads,
        }
    }

    /// Creates a pool sized to the machine's available parallelism.
    pub fn with_default_parallelism() -> Self {
        Self::new(crate::default_parallelism())
    }

    /// Number of worker threads in the pool.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Submits a task for execution.
    pub fn spawn<F>(&self, task: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.shared.pending.fetch_add(1, Ordering::AcqRel);
        self.shared.injector.push(Box::new(task));
        self.shared.notify_one();
    }

    /// Blocks until every submitted task has finished.
    pub fn wait_idle(&self) {
        let mut guard = self.shared.all_done_lock.lock();
        while self.shared.pending.load(Ordering::Acquire) != 0 {
            self.shared.all_done_cond.wait(&mut guard);
        }
    }

    /// Attempts to steal and execute one pending task on the calling thread.
    ///
    /// Returns `true` if a task was run.  Used by [`crate::scope`] so that a
    /// thread blocked at the end of a scope (possibly itself a pool worker)
    /// helps drain the pool instead of deadlocking it.
    pub fn help_run_one(&self) -> bool {
        match self.shared.steal_task() {
            Some(task) => {
                self.shared.execute(task);
                true
            }
            None => false,
        }
    }

    /// Number of tasks that panicked since the pool was created.
    pub fn panicked_tasks(&self) -> usize {
        self.shared.panicked.load(Ordering::Relaxed)
    }

    /// Number of tasks submitted but not yet completed.
    pub fn pending_tasks(&self) -> usize {
        self.shared.pending.load(Ordering::Acquire)
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn find_task(index: usize, local: &Worker<Task>, shared: &Shared) -> Option<Task> {
    if let Some(task) = local.pop() {
        return Some(task);
    }
    // Drain the injector into the local queue, then steal from siblings.
    loop {
        match shared.injector.steal_batch_and_pop(local) {
            crossbeam::deque::Steal::Success(task) => return Some(task),
            crossbeam::deque::Steal::Retry => continue,
            crossbeam::deque::Steal::Empty => break,
        }
    }
    for (victim, stealer) in shared.stealers.iter().enumerate() {
        if victim == index {
            continue;
        }
        loop {
            match stealer.steal() {
                crossbeam::deque::Steal::Success(task) => return Some(task),
                crossbeam::deque::Steal::Retry => continue,
                crossbeam::deque::Steal::Empty => break,
            }
        }
    }
    None
}

fn worker_loop(index: usize, local: Worker<Task>, shared: Arc<Shared>) {
    loop {
        if let Some(task) = find_task(index, &local, &shared) {
            shared.execute(task);
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Nothing to do: park on the idle condvar.
        let mut guard = shared.idle_lock.lock();
        // Re-check for work while holding the lock so a submission cannot be
        // missed between the failed `find_task` and the wait.
        if shared.shutdown.load(Ordering::Acquire)
            || !shared.injector.is_empty()
            || shared.pending.load(Ordering::Acquire) > 0
        {
            continue;
        }
        shared.sleeping.fetch_add(1, Ordering::AcqRel);
        shared.idle_cond.wait(&mut guard);
        shared.sleeping.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_all_tasks() {
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..1_000 {
            let counter = Arc::clone(&counter);
            pool.spawn(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 1_000);
        assert_eq!(pool.pending_tasks(), 0);
    }

    #[test]
    fn at_least_one_thread_even_if_zero_requested() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1);
        let done = Arc::new(AtomicBool::new(false));
        let d = Arc::clone(&done);
        pool.spawn(move || d.store(true, Ordering::SeqCst));
        pool.wait_idle();
        assert!(done.load(Ordering::SeqCst));
    }

    #[test]
    fn tasks_spawned_from_tasks_complete() {
        let pool = Arc::new(ThreadPool::new(2));
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let pool2 = Arc::clone(&pool);
            let counter = Arc::clone(&counter);
            pool.spawn(move || {
                for _ in 0..10 {
                    let counter = Arc::clone(&counter);
                    pool2.spawn(move || {
                        counter.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn panicking_task_does_not_kill_the_pool() {
        let pool = ThreadPool::new(2);
        pool.spawn(|| panic!("task failure"));
        let ok = Arc::new(AtomicBool::new(false));
        let ok2 = Arc::clone(&ok);
        pool.spawn(move || ok2.store(true, Ordering::SeqCst));
        pool.wait_idle();
        assert!(ok.load(Ordering::SeqCst));
        assert_eq!(pool.panicked_tasks(), 1);
    }

    #[test]
    fn wait_idle_with_no_tasks_returns_immediately() {
        let pool = ThreadPool::new(2);
        pool.wait_idle();
    }

    #[test]
    fn drop_joins_workers() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(3);
            for _ in 0..50 {
                let counter = Arc::clone(&counter);
                pool.spawn(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
            pool.wait_idle();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }
}
