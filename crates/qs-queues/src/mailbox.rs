//! The *mailbox*: one client's private queue, bounded or unbounded.
//!
//! The runtime threads a `mailbox_capacity` knob through its configuration;
//! this module gives it a single producer/consumer pair that dispatches to
//! the unbounded segment-list queue ([`crate::spsc`], the paper's §3.1
//! structure) or to the capacity-bounded ring ([`crate::bounded`], the
//! backpressure variant) depending on that knob.  Both sides expose the
//! batch-draining consumer interface, so the handler main loop is written
//! once against mailboxes and never matches on the configuration again.

use std::sync::Arc;

use crate::bounded::{bounded_spsc_channel, BoundedSpscConsumer, BoundedSpscProducer, Full};
use crate::spsc::{spsc_channel, SpscConsumer, SpscProducer};
use crate::{BlockWatcher, Closed, WakeHook, WakeReason};

/// The two underlying queue flavours of a mailbox producer.
enum ProducerFlavour<T> {
    /// Unbounded private queue (the seed behaviour; `capacity = None`).
    Unbounded(SpscProducer<T>),
    /// Capacity-bounded ring with blocking-push backpressure.
    Bounded(BoundedSpscProducer<T>),
}

/// Producer (client) half of a mailbox.
pub struct MailboxProducer<T> {
    flavour: ProducerFlavour<T>,
    /// The consumer-wake hook; see [`WakeHook`].  The consumer only polls,
    /// so this is the one way it learns of new work.  Carried by the
    /// producer (rather than the shared queue) because a mailbox's consumer
    /// is known at creation time — the client building the mailbox copies
    /// the hook from the handler it is reserving.
    wake_hook: Option<WakeHook>,
}

/// Consumer (handler) half of a mailbox.
pub enum MailboxConsumer<T> {
    /// Unbounded private queue (the seed behaviour; `capacity = None`).
    Unbounded(SpscConsumer<T>),
    /// Capacity-bounded ring with blocking-push backpressure.
    Bounded(BoundedSpscConsumer<T>),
}

/// Creates a mailbox: unbounded when `capacity` is `None`, a bounded ring
/// otherwise.
///
/// # Panics
///
/// Panics if `capacity` is `Some(0)`.
pub fn mailbox<T>(capacity: Option<usize>) -> (MailboxProducer<T>, MailboxConsumer<T>) {
    let (flavour, consumer) = match capacity {
        None => {
            let (tx, rx) = spsc_channel();
            (
                ProducerFlavour::Unbounded(tx),
                MailboxConsumer::Unbounded(rx),
            )
        }
        Some(capacity) => {
            let (tx, rx) = bounded_spsc_channel(capacity);
            (ProducerFlavour::Bounded(tx), MailboxConsumer::Bounded(rx))
        }
    };
    (
        MailboxProducer {
            flavour,
            wake_hook: None,
        },
        consumer,
    )
}

impl<T> MailboxProducer<T> {
    /// Attaches the consumer-wake hook, invoked after every enqueue and on
    /// close.
    pub fn with_wake_hook(mut self, hook: WakeHook) -> Self {
        self.wake_hook = Some(hook);
        self
    }

    fn invoke_wake_hook(&self, reason: WakeReason) {
        if let Some(hook) = &self.wake_hook {
            hook(reason);
        }
    }

    /// The [`WakeReason`] for a completed push: a bounded mailbox that had
    /// to block for space, or sits at/past its half-full watermark after the
    /// push, reports [`WakeReason::Pressure`].
    fn push_reason(&self, stalled: bool) -> WakeReason {
        match &self.flavour {
            ProducerFlavour::Unbounded(_) => WakeReason::Enqueue,
            ProducerFlavour::Bounded(tx) => {
                if stalled || tx.queue().is_pressured() {
                    WakeReason::Pressure
                } else {
                    WakeReason::Enqueue
                }
            }
        }
    }

    /// Enqueues `value`, blocking for space when the mailbox is bounded and
    /// full.  Returns `true` if the enqueue had to wait (a backpressure
    /// stall); an unbounded mailbox never stalls.
    pub fn enqueue(&self, value: T) -> bool {
        let stalled = match &self.flavour {
            ProducerFlavour::Unbounded(tx) => {
                tx.enqueue(value);
                false
            }
            ProducerFlavour::Bounded(tx) => tx.push(value),
        };
        self.invoke_wake_hook(self.push_reason(stalled));
        stalled
    }

    /// [`enqueue`](Self::enqueue) under a [`BlockWatcher`]: the watcher
    /// observes the blocking interval of a bounded mailbox and may abort the
    /// wait, in which case the value is handed back in `Err` without having
    /// been enqueued.  Unbounded mailboxes never block, never consult the
    /// watcher, and never fail.
    pub fn enqueue_watched(&self, value: T, watcher: &dyn BlockWatcher) -> Result<bool, T> {
        let stalled = match &self.flavour {
            ProducerFlavour::Unbounded(tx) => {
                tx.enqueue(value);
                false
            }
            ProducerFlavour::Bounded(tx) => match tx.push_watched(value, watcher) {
                Ok(stalled) => stalled,
                Err(Full(value)) => return Err(value),
            },
        };
        self.invoke_wake_hook(self.push_reason(stalled));
        Ok(stalled)
    }

    /// Attempts to enqueue without blocking; hands `value` back when a
    /// bounded mailbox is at capacity.  Never fails on an unbounded mailbox.
    pub fn try_enqueue(&self, value: T) -> Result<(), T> {
        let result = match &self.flavour {
            ProducerFlavour::Unbounded(tx) => {
                tx.enqueue(value);
                Ok(())
            }
            ProducerFlavour::Bounded(tx) => tx.try_push(value).map_err(|full| full.0),
        };
        if result.is_ok() {
            self.invoke_wake_hook(self.push_reason(false));
        }
        result
    }

    /// Closes the mailbox (the END marker of a separate block).
    pub fn close(&self) {
        match &self.flavour {
            ProducerFlavour::Unbounded(tx) => tx.close(),
            ProducerFlavour::Bounded(tx) => tx.close(),
        }
        self.invoke_wake_hook(WakeReason::Close);
    }

    /// The capacity bound, or `None` if unbounded.
    pub fn capacity(&self) -> Option<usize> {
        match &self.flavour {
            ProducerFlavour::Unbounded(_) => None,
            ProducerFlavour::Bounded(tx) => Some(tx.queue().capacity()),
        }
    }

    /// Number of blocking enqueues that had to wait for space so far.
    pub fn total_stalls(&self) -> usize {
        match &self.flavour {
            ProducerFlavour::Unbounded(_) => 0,
            ProducerFlavour::Bounded(tx) => tx.queue().total_stalls(),
        }
    }
}

impl<T: Send + 'static> MailboxProducer<T> {
    /// A detached handle that wakes this producer if it is blocked in a
    /// bounded [`enqueue`](Self::enqueue) /
    /// [`enqueue_watched`](Self::enqueue_watched); `None` for unbounded
    /// mailboxes, which never block.  See
    /// [`BoundedSpscProducer::unblocker`].
    pub fn unblocker(&self) -> Option<Arc<dyn Fn() + Send + Sync>> {
        match &self.flavour {
            ProducerFlavour::Unbounded(_) => None,
            ProducerFlavour::Bounded(tx) => Some(tx.unblocker()),
        }
    }

    /// A detached probe answering "is this mailbox currently full?"; `None`
    /// for unbounded mailboxes.  The deadlock detector uses it to
    /// re-validate a registered blocked-push edge at scan time.
    pub fn full_probe(&self) -> Option<Arc<dyn Fn() -> bool + Send + Sync>> {
        match &self.flavour {
            ProducerFlavour::Unbounded(_) => None,
            ProducerFlavour::Bounded(tx) => Some(tx.full_probe()),
        }
    }
}

impl<T> MailboxConsumer<T> {
    /// Attempts to dequeue one item without blocking.
    pub fn try_dequeue(&self) -> Result<Option<T>, Closed> {
        match self {
            MailboxConsumer::Unbounded(rx) => rx.try_dequeue(),
            MailboxConsumer::Bounded(rx) => rx.try_dequeue(),
        }
    }

    /// Drains up to `max` immediately available items into `out` without
    /// blocking; `Err(Closed)` once closed and fully drained.
    pub fn try_drain_batch(&self, out: &mut Vec<T>, max: usize) -> Result<usize, Closed> {
        match self {
            MailboxConsumer::Unbounded(rx) => rx.try_drain_batch(out, max),
            MailboxConsumer::Bounded(rx) => rx.try_drain_batch(out, max),
        }
    }

    /// Number of items ever enqueued into this mailbox.
    pub fn total_enqueued(&self) -> usize {
        match self {
            MailboxConsumer::Unbounded(rx) => rx.queue().total_enqueued(),
            MailboxConsumer::Bounded(rx) => rx.queue().total_enqueued(),
        }
    }

    /// Number of items ever dequeued from this mailbox.
    pub fn total_dequeued(&self) -> usize {
        match self {
            MailboxConsumer::Unbounded(rx) => rx.queue().total_dequeued(),
            MailboxConsumer::Bounded(rx) => rx.queue().total_dequeued(),
        }
    }

    /// Returns `true` while a bounded mailbox sits at or past its half-full
    /// watermark (see [`WakeReason::Pressure`]).  An unbounded mailbox is
    /// never pressured.
    pub fn is_pressured(&self) -> bool {
        match self {
            MailboxConsumer::Unbounded(_) => false,
            MailboxConsumer::Bounded(rx) => rx.queue().is_pressured(),
        }
    }

    /// Number of blocking enqueues into this mailbox that had to wait for
    /// space so far.  Always zero for an unbounded mailbox.
    pub fn total_stalls(&self) -> usize {
        match self {
            MailboxConsumer::Unbounded(_) => 0,
            MailboxConsumer::Bounded(rx) => rx.queue().total_stalls(),
        }
    }
}

impl<T: Send + 'static> MailboxConsumer<T> {
    /// A detached probe answering "is this mailbox still open and empty?" —
    /// the liveness condition of a consumer *parked on* it.
    ///
    /// The deadlock detector attaches it to the handler's "parked on this
    /// client's open queue" (Serving) wait-for edge: the moment the client
    /// enqueues something or ends its block, the probe goes false and a
    /// stale edge (registered at the idle transition, not yet cleared
    /// because the woken consumer is still waiting for a worker) cannot
    /// complete a phantom cycle.
    pub fn serving_probe(&self) -> Arc<dyn Fn() -> bool + Send + Sync> {
        match self {
            MailboxConsumer::Unbounded(rx) => {
                let queue = rx.shared();
                Arc::new(move || {
                    !queue.is_closed() && queue.total_dequeued() == queue.total_enqueued()
                })
            }
            MailboxConsumer::Bounded(rx) => {
                let queue = rx.shared();
                Arc::new(move || !queue.is_closed() && queue.is_empty())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_mailbox_never_stalls() {
        let (tx, rx) = mailbox(None);
        assert_eq!(tx.capacity(), None);
        for i in 0..1_000 {
            assert!(!tx.enqueue(i));
        }
        assert_eq!(tx.total_stalls(), 0);
        tx.close();
        let mut out = Vec::new();
        while rx.try_drain_batch(&mut out, 64).is_ok() {}
        assert_eq!(out, (0..1_000).collect::<Vec<_>>());
        assert_eq!(rx.total_dequeued(), 1_000);
    }

    #[test]
    fn bounded_mailbox_enforces_capacity() {
        let (tx, rx) = mailbox(Some(3));
        assert_eq!(tx.capacity(), Some(3));
        tx.try_enqueue(1).unwrap();
        tx.try_enqueue(2).unwrap();
        tx.try_enqueue(3).unwrap();
        assert_eq!(tx.try_enqueue(4), Err(4));
        assert_eq!(rx.try_dequeue(), Ok(Some(1)));
        tx.try_enqueue(4).unwrap();
        tx.close();
        let mut out = Vec::new();
        while rx.try_drain_batch(&mut out, 2).is_ok() {}
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn both_flavours_share_the_dequeue_protocol() {
        for capacity in [None, Some(2)] {
            let (tx, rx) = mailbox(capacity);
            tx.enqueue('x');
            tx.close();
            assert_eq!(rx.try_dequeue(), Ok(Some('x')));
            assert_eq!(rx.try_dequeue(), Err(Closed));
            assert_eq!(rx.total_enqueued(), 1);
        }
    }

    #[test]
    fn bounded_wake_hook_reports_pressure_at_the_watermark() {
        use crate::WakeReason;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let reasons: Arc<std::sync::Mutex<Vec<WakeReason>>> = Arc::default();
        let sink = Arc::clone(&reasons);
        let (tx, rx) = mailbox::<u32>(Some(4));
        let tx = tx.with_wake_hook(Arc::new(move |reason| sink.lock().unwrap().push(reason)));
        // 1 of 4: below the half-full watermark.
        tx.enqueue(1);
        // 2..4 of 4: at or past it.
        tx.enqueue(2);
        tx.try_enqueue(3).unwrap();
        tx.enqueue(4);
        tx.close();
        assert!(rx.is_pressured(), "full ring is pressured");
        assert_eq!(
            *reasons.lock().unwrap(),
            vec![
                WakeReason::Enqueue,
                WakeReason::Pressure,
                WakeReason::Pressure,
                WakeReason::Pressure,
                WakeReason::Close,
            ]
        );
        // Draining below the watermark clears the consumer-visible signal.
        rx.try_dequeue().unwrap();
        rx.try_dequeue().unwrap();
        rx.try_dequeue().unwrap();
        assert!(!rx.is_pressured());
        assert_eq!(rx.total_stalls(), 0, "no push ever blocked");

        // A blocked push reports pressure (and the stall) even though the
        // ring is briefly below the watermark when it completes.
        let stalls = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mailbox::<u32>(Some(1));
        let observed = Arc::clone(&stalls);
        let tx = tx.with_wake_hook(Arc::new(move |reason| {
            if reason == WakeReason::Pressure {
                observed.fetch_add(1, Ordering::SeqCst);
            }
        }));
        tx.enqueue(1); // capacity 1: immediately at the watermark
        let producer = std::thread::spawn(move || assert!(tx.enqueue(2), "push must stall"));
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(rx.try_dequeue(), Ok(Some(1)));
        producer.join().unwrap();
        assert!(rx.total_stalls() >= 1);
        assert!(stalls.load(Ordering::SeqCst) >= 2);
    }

    #[test]
    fn unbounded_wake_hook_never_reports_pressure() {
        use crate::WakeReason;
        use std::sync::Arc;

        let reasons: Arc<std::sync::Mutex<Vec<WakeReason>>> = Arc::default();
        let sink = Arc::clone(&reasons);
        let (tx, rx) = mailbox::<u32>(None);
        let tx = tx.with_wake_hook(Arc::new(move |reason| sink.lock().unwrap().push(reason)));
        for i in 0..100 {
            tx.enqueue(i);
        }
        tx.close();
        assert!(!rx.is_pressured());
        assert_eq!(rx.total_stalls(), 0);
        let reasons = reasons.lock().unwrap();
        assert_eq!(reasons.len(), 101);
        assert!(reasons[..100].iter().all(|r| *r == WakeReason::Enqueue));
        assert_eq!(reasons[100], WakeReason::Close);
    }
}
