//! Specialised queue substrate for the SCOOP/Qs runtime.
//!
//! §3.1 of the paper observes that the queue-of-queues pattern induces two
//! very specific communication shapes, each of which admits a specialised,
//! efficient queue:
//!
//! * the **queue-of-queues** itself has many clients inserting their private
//!   queues but only one handler removing them — a *multiple-producer,
//!   single-consumer* (MPSC) arrangement ([`mpsc::QueueOfQueues`]);
//! * each **private queue** is written by exactly one client and drained by
//!   exactly one handler — a *single-producer, single-consumer* (SPSC)
//!   arrangement ([`spsc::SpscQueue`]).
//!
//! "These optimizations are important as they are involved in all
//! communication between clients and handlers."
//!
//! The crate also provides a naive lock-based queue ([`mutex_queue`]) used by
//! the unoptimised baseline configuration and by the ablation benchmark E9,
//! which quantifies how much the specialised queues matter.
//!
//! Two production-scale extensions sit on top of the paper's structures:
//!
//! * a **capacity-bounded SPSC ring** ([`bounded`]) whose blocking `push`
//!   applies *backpressure* to clients that outrun their handler, instead of
//!   growing the private queue without limit; and
//! * **batch draining** (`try_drain_batch` on every consumer flavour,
//!   including [`MutexQueue`]), so the handler amortises its dequeue
//!   overhead — one lock acquisition per batch on the mutex queue, one
//!   accounting update per batch on the lock-free queues — instead of paying
//!   it per request.
//!
//! The [`mailbox`] module unifies the bounded and unbounded private queues
//! behind one producer/consumer pair, keyed by an optional capacity.
//!
//! The blocking (backpressure) push paths additionally accept a
//! [`BlockWatcher`], the instrumentation hook the runtime's deadlock
//! detector uses to register "producer blocked on full mailbox" wait-for
//! edges and to *break* one such push when it sits on a confirmed cycle.
//!
//! # Consumers poll; producers fire the [`WakeHook`]
//!
//! No queue in this crate blocks its consumer.  The consumer side is
//! `try_dequeue` / `try_drain_batch` only, returning "empty for now"
//! (`Ok(None)` / `Ok(0)`) or "closed and drained" ([`Closed`]); how to wait
//! in between — go back to a scheduler, park a thread — is the consumer's
//! business, and the [`WakeHook`] it registers (on the mutex queue, or
//! through the mailbox producer for a private queue) is how it hears of new
//! work: producers invoke it after every enqueue and on close.  That is the
//! one hand-over path per event; a push does nothing else on the consumer's
//! behalf.  A mailbox producer that is about to wait for its own item may
//! push or close `_without_wake` and get the consumer there itself (a
//! client stepping its handler on its own thread).  Producers, by contrast,
//! *do* block here: a push into a full bounded queue parks until the
//! consumer makes space.
//!
//! The queue-of-queues has no hook: registering a private queue is not
//! work.  A handler has nothing to do with an empty open private queue, and
//! that queue's first request or its close fires the mailbox's own hook;
//! waking the handler at registration as well would only have it scheduled
//! ahead of the request it is waiting for.
//!
//! Each hook invocation carries a [`WakeReason`] occupancy hint: bounded
//! queues report [`WakeReason::Pressure`] when a push crosses the half-full
//! watermark or blocks for space, letting the consumer's scheduler
//! prioritise backpressured pipelines.  The reason is advisory only —
//! receivers must honour every wake regardless of reason (see the
//! [`WakeReason`] contract).

#![warn(missing_docs)]

pub(crate) mod batch;
pub mod bounded;
pub mod mailbox;
pub mod mpsc;
pub mod mutex_queue;
pub mod spsc;

pub use bounded::{
    bounded_spsc_channel, BoundedSpsc, BoundedSpscConsumer, BoundedSpscProducer, Full,
};
pub use mailbox::{mailbox, MailboxConsumer, MailboxProducer};
pub use mpsc::QueueOfQueues;
pub use mutex_queue::MutexQueue;
pub use spsc::{spsc_channel, SpscConsumer, SpscProducer, SpscQueue};

/// A consumer-wake callback registered on a queue by its (single) consumer's
/// scheduler.
///
/// Producers invoke the hook after every operation that can make new work
/// visible to the consumer — an enqueue or a close.  Consumers only poll
/// (see the crate docs), so this is how one that found its queues empty — a
/// handler that returned to its scheduler — is re-armed.  Producers may
/// invoke the hook spuriously (more often than the queue transitions from
/// empty to nonempty); deduplication
/// is the receiver's job — the scheduler's schedule-flag protocol collapses
/// redundant wakes, which keeps the queue-side contract trivial: *never miss
/// one*, duplicates are free.
///
/// Every invocation carries a [`WakeReason`] occupancy hint.  The reason is
/// *advisory*: a receiver must treat every invocation, whatever the reason,
/// as "work may now be visible" — it may only use the reason to decide *how
/// urgently* to run the consumer, never *whether* to wake it at all.
pub type WakeHook = std::sync::Arc<dyn Fn(WakeReason) + Send + Sync>;

/// Observer of producer-side *blocking* on a bounded queue, the
/// instrumentation hook behind runtime deadlock detection.
///
/// A blocking push that finds the queue full calls
/// [`block_begin`](BlockWatcher::block_begin) once before waiting,
/// [`should_abort`](BlockWatcher::should_abort) inside the wait loop (after
/// every wake), and [`block_end`](BlockWatcher::block_end) once when the
/// wait ends — whether space appeared, the queue closed/was abandoned, or
/// the watcher aborted it.  When `should_abort` returns `true` the push
/// gives up and hands the value back to the caller instead of enqueueing.
///
/// The watcher's implementor is responsible for waking the blocked producer
/// (e.g. via [`BoundedSpscProducer::unblocker`] /
/// [`MutexQueue::wake_producers`]) after making `should_abort` true; the
/// queue re-checks it on every wake-up.  Watcher methods are called with no
/// queue lock held, so they may take their own locks freely.
pub trait BlockWatcher: Send + Sync {
    /// The push found the queue full and is about to wait for space.
    fn block_begin(&self);
    /// Polled inside the wait loop; returning `true` aborts the push.
    fn should_abort(&self) -> bool;
    /// The wait ended (success, close/abandon, or abort).
    fn block_end(&self);
}

/// Occupancy hint carried by every [`WakeHook`] invocation.
///
/// # Contract
///
/// * Producers fire [`Pressure`](WakeReason::Pressure) when a push into a
///   *bounded* queue crosses the half-full watermark (`len * 2 >= capacity`
///   after the push) or had to block for space; such a wake means the
///   producer is at (or near) the point of being throttled, and the consumer
///   should be scheduled promptly so backpressured pipelines keep a fine
///   producer/consumer interleaving.
/// * All other enqueues fire [`Enqueue`](WakeReason::Enqueue), and a close
///   fires [`Close`](WakeReason::Close).
/// * The queues themselves never fire [`Guard`](WakeReason::Guard); a
///   runtime layer that knows clients are parked on a guard whose truth the
///   consumer's progress may change fires it *in addition to* the ordinary
///   close wake, asking for prompt scheduling like `Pressure` does.
/// * Receivers may not drop a wake based on its reason: the reason modulates
///   scheduling priority only.  Producers may over-report pressure
///   (spuriously), never under-report it while actually blocking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeReason {
    /// An ordinary enqueue made work visible; no urgency implied.
    Enqueue,
    /// The queue was closed (END of a separate block / shutdown).
    Close,
    /// A push crossed the bounded queue's half-full watermark or blocked on
    /// a full queue: the producer is being throttled, schedule the consumer
    /// promptly.
    Pressure,
    /// Clients are parked on a wait condition over the consumer's state and
    /// the work just made visible may change its truth: schedule the
    /// consumer promptly so the pending guard signal (fired when the
    /// consumer processes the work) is not delayed behind a long run queue.
    Guard,
    /// The consumer previously failed to take its object's reader–writer
    /// gate in write mode (shared-read reservations were active) and the
    /// gate may now be writable: schedule the consumer promptly so stashed
    /// work is applied as soon as the last reader leaves.  Like
    /// [`Guard`](WakeReason::Guard), fired by a runtime layer — never by the
    /// queues themselves.
    Writable,
}

/// Error returned by the non-blocking `try_dequeue` operations when the
/// queue has been closed and fully drained: no item will ever arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closed;

impl std::fmt::Display for Closed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("queue closed and drained")
    }
}

impl std::error::Error for Closed {}

/// Test helper: the consumer side of a cross-thread test — poll until an
/// item arrives (`Some`) or the queue is closed and drained (`None`).
#[cfg(test)]
pub(crate) fn poll<T>(mut try_dequeue: impl FnMut() -> Result<Option<T>, Closed>) -> Option<T> {
    loop {
        match try_dequeue() {
            Ok(Some(item)) => return Some(item),
            Ok(None) => std::thread::yield_now(),
            Err(Closed) => return None,
        }
    }
}
