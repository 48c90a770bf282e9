//! Task-switching and lightweight-thread layers of the SCOOP/Qs runtime.
//!
//! §3 of the paper: "The runtime is broken into 3 layers: task switching,
//! light-weight threads, and handlers."  The original implementation uses
//! user-level (green) threads so that handler creation and the
//! handler-to-client handoff are cheap.  In Rust, user-level context
//! switching of arbitrary blocking code is not expressible safely, so this
//! crate provides the closest equivalents (documented as a substitution in
//! `DESIGN.md`):
//!
//! * [`ThreadPool`] — a work-stealing pool for short-lived computational
//!   tasks (the "task switching" layer), used by the data-parallel workloads;
//! * [`scope`]/[`Scope`] — structured borrowing parallelism on top of the
//!   pool (parallel-for, fork/join);
//! * [`ThreadCache`] — recycled OS threads for handlers running in the
//!   *dedicated* scheduling mode, so that creating and retiring a handler
//!   does not pay thread creation cost each time (the "lightweight threads"
//!   layer);
//! * [`HandlerScheduler`] — M:N scheduling of handlers: resumable
//!   [`PooledTask`]s multiplexed onto a fixed work-stealing worker pool with
//!   a lost-wakeup-free re-arming protocol and blocked-worker compensation,
//!   so handler count is no longer bounded by OS thread count; a client
//!   about to wait on an idle task steps it on its own thread instead
//!   ([`TaskHandle::run_here`]);
//! * [`deque`] — the per-worker work-stealing deques (owner-LIFO,
//!   thief-FIFO) the handler scheduler's workers run on.

#![warn(missing_docs)]

pub mod deque;
pub mod handler_scheduler;
pub mod pool;
pub mod scope;
pub mod thread_cache;

pub use deque::{steal_deque, Stealer, Worker};
pub use handler_scheduler::{HandlerScheduler, PooledTask, RanHere, StepOutcome, TaskHandle};
pub use pool::ThreadPool;
pub use scope::{parallel_chunks, parallel_for, Scope};
pub use thread_cache::{CachedThread, ThreadCache};

/// Returns the number of worker threads to use by default: the amount of
/// available parallelism, or 4 if it cannot be determined.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}
