//! The *mailbox*: one client's private queue, bounded or unbounded.
//!
//! The runtime threads a `mailbox_capacity` knob through its configuration;
//! this module gives it a single producer/consumer pair that dispatches to
//! the unbounded segment-list queue ([`crate::spsc`], the paper's §3.1
//! structure) or to the capacity-bounded ring ([`crate::bounded`], the
//! backpressure variant) depending on that knob.  Both sides expose the
//! batch-draining consumer interface, so the handler main loop is written
//! once against mailboxes and never matches on the configuration again.
//!
//! A bounded mailbox's ring can serve more than one block: the consumer of
//! a closed, drained mailbox hands the ring back with
//! [`into_spare`](MailboxConsumer::into_spare), a [`SpareRings`] keeps it,
//! and [`reopen_mailbox`] turns it into the next block's mailbox once the
//! producer half is gone too (see [`crate::bounded`]'s reuse rule).
//! Unbounded mailboxes are never kept.

use std::any::{Any, TypeId};
use std::sync::Arc;

use qs_sync::SpinLock;

use crate::bounded::{
    bounded_spsc_channel, BoundedSpsc, BoundedSpscConsumer, BoundedSpscProducer, Full,
};
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

/// [`mailbox`] over a spare ring: reopens `spare` (see
/// [`crate::bounded::reopen`]) as a bounded mailbox of its capacity with no
/// wake hook, or drops it and returns `None` when it cannot be reopened.
pub fn reopen_mailbox<T>(
    spare: Arc<BoundedSpsc<T>>,
) -> Option<(MailboxProducer<T>, MailboxConsumer<T>)> {
    let (tx, rx) = crate::bounded::reopen(spare)?;
    Some((
        MailboxProducer {
            flavour: ProducerFlavour::Bounded(tx),
            wake_hook: None,
        },
        MailboxConsumer::Bounded(rx),
    ))
}

/// Most rings one [`SpareRings`] keeps.
///
/// A client's rings come back in bursts: on a machine with more runnable
/// threads than cores, a client can open blocks for a whole scheduler time
/// slice while the handlers that will let go of their rings are not
/// running, and then get hundreds of rings back at once.  A small cap
/// drops most of such a burst and the client allocates again; this one
/// holds it.  The cap does not raise a client's footprint: a ring is
/// allocated only when the client has no spare, so the rings a client
/// owns, in flight and spare, never outnumber the most it ever had in
/// flight at once.
pub const SPARE_RINGS: usize = 1024;

/// The spare rings of one item type and capacity, most recently kept last.
struct Shelf {
    ring_type: TypeId,
    capacity: usize,
    rings: Vec<Arc<dyn Any + Send + Sync>>,
}

/// The spare private-queue rings of one client: rings of its ended blocks,
/// handed back by their consumers ([`MailboxConsumer::into_spare`]), for
/// its next blocks to reopen with [`reopen_mailbox`].
///
/// The consumer usually lets go on the handler's thread, so the set is
/// shared: a lock around at most [`SPARE_RINGS`] rings, shelved by item
/// type and capacity.  A ring handed back to a full set is dropped.
/// Nothing is kept up front.
#[derive(Default)]
pub struct SpareRings {
    shelves: SpinLock<Shelves>,
}

#[derive(Default)]
struct Shelves {
    shelves: Vec<Shelf>,
    /// Rings on all shelves together.
    kept: usize,
}

impl Shelves {
    fn shelf<T: Send + 'static>(&mut self, capacity: usize) -> Option<&mut Shelf> {
        let ring_type = TypeId::of::<BoundedSpsc<T>>();
        self.shelves
            .iter_mut()
            .find(|shelf| shelf.ring_type == ring_type && shelf.capacity == capacity)
    }
}

impl SpareRings {
    /// An empty set of spare rings (allocates nothing).
    pub const fn new() -> Self {
        SpareRings {
            shelves: SpinLock::new(Shelves {
                shelves: Vec::new(),
                kept: 0,
            }),
        }
    }

    /// Keeps `ring` for a later [`take`](Self::take), or drops it when
    /// [`SPARE_RINGS`] rings are kept already.
    pub fn keep<T: Send + 'static>(&self, ring: Arc<BoundedSpsc<T>>) {
        let rejected = {
            let mut shelves = self.shelves.lock();
            if shelves.kept < SPARE_RINGS {
                shelves.kept += 1;
                let capacity = ring.capacity();
                match shelves.shelf::<T>(capacity) {
                    Some(shelf) => shelf.rings.push(ring),
                    None => shelves.shelves.push(Shelf {
                        ring_type: TypeId::of::<BoundedSpsc<T>>(),
                        capacity,
                        rings: vec![ring],
                    }),
                }
                None
            } else {
                Some(ring)
            }
        };
        // Dropped after the lock: dropping a ring can drop requests, and
        // their drop can open a block.
        drop(rejected);
    }

    /// Takes out the most recently kept ring of item type `T` and
    /// `capacity` (the one most likely still in cache) that no other handle
    /// holds any more — its producer half, and any probe cloned from either
    /// half, are gone — for [`reopen_mailbox`].
    pub fn take<T: Send + 'static>(&self, capacity: usize) -> Option<Arc<BoundedSpsc<T>>> {
        let mut shelves = self.shelves.lock();
        let rings = &mut shelves.shelf::<T>(capacity)?.rings;
        let index = rings
            .iter()
            .rposition(|ring| Arc::strong_count(ring) == 1)?;
        let ring = rings.remove(index);
        shelves.kept -= 1;
        Arc::downcast(ring).ok()
    }
}

impl<T> MailboxProducer<T> {
    /// Attaches the consumer-wake hook, invoked after every enqueue and on
    /// close except the `_without_wake` forms.
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
        match self.enqueue_watched(value, None) {
            Ok(stalled) => stalled,
            Err(_) => unreachable!("an unwatched enqueue never aborts"),
        }
    }

    /// [`enqueue`](Self::enqueue) under an optional [`BlockWatcher`]: the
    /// watcher observes the blocking interval of a bounded mailbox and may
    /// abort the wait, in which case the value is handed back in `Err`
    /// without having been enqueued.  Unbounded mailboxes never block,
    /// never consult the watcher, and never fail.
    pub fn enqueue_watched(&self, value: T, watcher: Option<&dyn BlockWatcher>) -> Result<bool, T> {
        let stalled = self.enqueue_without_wake(value, watcher)?;
        self.invoke_wake_hook(self.push_reason(stalled));
        Ok(stalled)
    }

    /// [`enqueue_watched`](Self::enqueue_watched) without invoking the wake
    /// hook.  The caller takes over the hook's duty of getting the consumer
    /// to the new item — a client about to wait for it steps the consumer
    /// itself.
    pub fn enqueue_without_wake(
        &self,
        value: T,
        watcher: Option<&dyn BlockWatcher>,
    ) -> Result<bool, T> {
        match &self.flavour {
            ProducerFlavour::Unbounded(tx) => {
                tx.enqueue(value);
                Ok(false)
            }
            ProducerFlavour::Bounded(tx) => match watcher {
                Some(watcher) => tx.push_watched(value, watcher).map_err(|Full(value)| value),
                None => Ok(tx.push(value)),
            },
        }
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
        self.close_without_wake();
        self.invoke_wake_hook(WakeReason::Close);
    }

    /// [`close`](Self::close) without invoking the wake hook, under the
    /// contract of [`enqueue_without_wake`](Self::enqueue_without_wake).
    pub fn close_without_wake(&self) {
        match &self.flavour {
            ProducerFlavour::Unbounded(tx) => tx.close(),
            ProducerFlavour::Bounded(tx) => tx.close(),
        }
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
    /// Gives up the consumer half of a closed, drained mailbox, handing its
    /// ring back for [`reopen_mailbox`] when
    /// [`BoundedSpscConsumer::into_spare`] does; `None` for an unbounded
    /// mailbox, which is dropped as usual.
    pub fn into_spare(self) -> Option<Arc<BoundedSpsc<T>>> {
        match self {
            MailboxConsumer::Unbounded(_) => None,
            MailboxConsumer::Bounded(rx) => rx.into_spare(),
        }
    }

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
    fn without_wake_forms_leave_the_hook_to_the_caller() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        for capacity in [None, Some(4)] {
            let wakes = Arc::new(AtomicUsize::new(0));
            let counter = Arc::clone(&wakes);
            let (tx, rx) = mailbox::<u32>(capacity);
            let tx = tx.with_wake_hook(Arc::new(move |_| {
                counter.fetch_add(1, Ordering::SeqCst);
            }));
            assert_eq!(tx.enqueue_without_wake(1, None), Ok(false));
            tx.close_without_wake();
            assert_eq!(wakes.load(Ordering::SeqCst), 0, "{capacity:?}");
            assert_eq!(rx.try_dequeue(), Ok(Some(1)));
            assert_eq!(rx.try_dequeue(), Err(Closed));
        }
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

    /// A closed, drained bounded mailbox of `capacity`, both halves alive.
    fn ended_block(capacity: usize) -> (MailboxProducer<u32>, MailboxConsumer<u32>) {
        let (tx, rx) = mailbox(Some(capacity));
        tx.enqueue(7);
        tx.close();
        assert_eq!(rx.try_dequeue(), Ok(Some(7)));
        assert_eq!(rx.try_dequeue(), Err(Closed));
        (tx, rx)
    }

    #[test]
    fn a_ring_reopens_once_its_producer_half_is_gone() {
        let spares = SpareRings::new();
        let (tx, rx) = ended_block(8);
        spares.keep(rx.into_spare().expect("closed and drained"));
        assert!(spares.take::<u32>(8).is_none(), "the producer holds it");
        drop(tx);
        let ring = spares.take::<u32>(8).expect("the producer is gone");
        assert!(reopen_mailbox(ring).is_some());
    }

    #[test]
    fn deadlock_probes_keep_a_ring_from_being_recycled() {
        type Probe = fn(&MailboxProducer<u32>, &MailboxConsumer<u32>) -> Box<dyn Any>;
        let probes: [Probe; 3] = [
            |tx, _| Box::new(tx.unblocker()),
            |tx, _| Box::new(tx.full_probe()),
            |_, rx| Box::new(rx.serving_probe()),
        ];
        for (index, probe) in probes.iter().enumerate() {
            let spares = SpareRings::new();
            let (tx, rx) = ended_block(8);
            let probe = probe(&tx, &rx);
            drop(tx);
            spares.keep(rx.into_spare().expect("closed and drained"));
            assert!(spares.take::<u32>(8).is_none(), "probe {index}");
            drop(probe);
            assert!(spares.take::<u32>(8).is_some(), "probe {index} dropped");
        }
    }

    #[test]
    fn unbounded_mailboxes_are_never_kept() {
        let (tx, rx) = mailbox::<u32>(None);
        tx.close();
        assert_eq!(rx.try_dequeue(), Err(Closed));
        assert!(rx.into_spare().is_none());
    }

    #[test]
    fn spare_rings_reopen_by_item_type_and_capacity() {
        let spares = SpareRings::new();
        let (tx, rx) = ended_block(8);
        drop(tx);
        spares.keep(rx.into_spare().unwrap());
        assert!(spares.take::<u64>(8).is_none(), "another item type");
        assert!(spares.take::<u32>(16).is_none(), "another capacity");
        let ring = spares.take::<u32>(8).expect("the kept ring");
        assert!(spares.take::<u32>(8).is_none(), "taken once");
        let (tx, rx) = reopen_mailbox(ring).expect("a spare reopens");
        assert_eq!(tx.capacity(), Some(8));
        tx.enqueue(1);
        assert_eq!(rx.try_dequeue(), Ok(Some(1)));
        assert_eq!(rx.total_enqueued(), 1, "counted from 0 again");
    }

    #[test]
    fn spare_rings_hold_at_most_the_cap() {
        let spares = SpareRings::new();
        for _ in 0..SPARE_RINGS + 3 {
            let (tx, rx) = ended_block(4);
            drop(tx);
            spares.keep(rx.into_spare().unwrap());
        }
        let mut taken = 0;
        while spares.take::<u32>(4).is_some() {
            taken += 1;
        }
        assert_eq!(taken, SPARE_RINGS);
    }
}
