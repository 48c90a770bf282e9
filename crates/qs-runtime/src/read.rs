//! Shared-read reservations: commutativity-aware concurrency on hot
//! handlers.
//!
//! An exclusive reservation serialises *all* clients of a handler, even when
//! every one of them only reads — queries commute, so serialising them buys
//! nothing and costs a full reservation round-trip per client.  A
//! **shared-read reservation** ([`crate::reserve`](fn@crate::reserve)`(&h).read()`, or a
//! [`read`]`(&h)` member inside a multi-handler set) instead takes the
//! handler object's reader–writer gate ([`qs_sync::ReadGate`]) in read mode:
//! any number of readers hold it concurrently, and they query the object
//! *directly* on the client thread — zero queue crossings, zero handler
//! involvement, which is where the throughput win on read-mostly workloads
//! comes from.
//!
//! Safety comes from the gate, not the queues: every `&mut` access to the
//! object — the handler main loop applying a batch, a client-executed query
//! under an exclusive reservation — first takes the gate in write mode and
//! therefore excludes all readers (and vice versa).  The gate is
//! writer-preferring: once a writer announces itself, new readers are
//! refused until it gets through, so a steady read stream cannot starve
//! writes.
//!
//! Within a read block only commuting operations are available:
//! [`query`](ReadSeparate::query), [`query_async`](ReadSeparate::query_async)
//! and [`peek`](ReadSeparate::peek).  Commands are rejected with
//! [`MailboxError::ReadOnlyReservation`] — a read reservation never silently
//! upgrades to exclusive access.
//!
//! Deadlock integration: a reader blocked behind an announced writer
//! registers a [`ReadWait`](qs_deadlock::EdgeKind::ReadWait) edge (breakable
//! — the acquisition aborts with a [`MailboxError::DeadlockBroken`] panic
//! when the `Break` policy fails it), and a writer blocked behind readers
//! registers one [`WriterWait`](qs_deadlock::EdgeKind::WriterWait) edge per
//! concrete read holder, so reader/writer cycles are named, reported and
//! breakable like every other wait in the runtime.

use std::cell::Cell;
use std::sync::Arc;

use qs_deadlock::{EdgeKind, WakerFn};
use qs_sync::{GateWake, Parker};

use crate::deadlock::current_waiter;
use crate::handler::{Handler, HandlerCore};
use crate::separate::{MailboxError, QueryToken};
use crate::stats::RuntimeStats;

/// Marks one member of a reservation set as shared-read: the builder
/// acquires the handler's gate in read mode instead of performing an
/// exclusive registration.
///
/// Obtained from [`read`] (for tuple members) or
/// [`crate::Reservation::read`] (for the single-handler form).  The marker
/// is `Copy` so reservation-set tuples stay as cheap to build as handler
/// references.
pub struct Read<'h, T: Send + 'static> {
    pub(crate) handler: &'h Handler<T>,
}

impl<T: Send + 'static> Clone for Read<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T: Send + 'static> Copy for Read<'_, T> {}

/// Marks a member of a reservation-set tuple as shared-read.
///
/// ```
/// use qs_runtime::{read, reserve, Runtime, RuntimeConfig};
///
/// let rt = Runtime::new(RuntimeConfig::all_optimizations());
/// let config = rt.spawn_handler(10u64);
/// let audit = rt.spawn_handler(Vec::<u64>::new());
/// // `config` is only read — many clients can hold it concurrently while
/// // each appends to its own exclusive `audit` reservation.
/// reserve((read(&config), &audit)).run(|(cfg, log)| {
///     let threshold = cfg.query(|t| *t);
///     log.call(move |entries| entries.push(threshold));
/// });
/// ```
pub fn read<T: Send + 'static>(handler: &Handler<T>) -> Read<'_, T> {
    Read { handler }
}

/// Shared-read reservation guard for one handler within a separate block.
///
/// The read-mode counterpart of [`crate::Separate`]: obtained through
/// [`crate::reserve`](fn@crate::reserve)`(&h).read()` or a [`read`]-marked member of a
/// reservation set.  Holds the handler object's gate in read mode for the
/// duration of the block; queries execute directly on the client thread.
/// Not `Send`, like every reservation guard.
pub struct ReadSeparate<'a, T: Send + 'static> {
    core: &'a Arc<HandlerCore<T>>,
    /// This client's deadlock-tracking identity while registered as a read
    /// holder (tracking on and the gate-read held).
    holder: Option<qs_deadlock::ParticipantId>,
    /// Whether the gate is currently held in read mode by this guard.
    active: bool,
    /// Queries run through this guard, added to the shared
    /// [`RuntimeStats`] once, on release.
    queries: Cell<u64>,
    /// Prevents `Send`/`Sync` auto-derivation.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl<'a, T: Send + 'static> ReadSeparate<'a, T> {
    /// Begins a single-handler read reservation (the `reserve(&h).read()`
    /// fast path): no registration machinery, just the gate.
    pub(crate) fn begin_single(core: &'a Arc<HandlerCore<T>>) -> Self {
        RuntimeStats::bump(&core.stats.separate_blocks);
        let mut guard = Self::attach(core);
        guard.activate();
        guard
    }

    /// Creates the guard without acquiring the gate; the reservation
    /// protocol calls [`activate`](Self::activate) after every exclusive
    /// registration in the set has been released (acquiring a gate inside
    /// the registration's spinlocks could deadlock undetectably).  The
    /// set-level statistics were already recorded by the registration.
    pub(crate) fn attach(core: &'a Arc<HandlerCore<T>>) -> Self {
        ReadSeparate {
            core,
            holder: None,
            active: false,
            queries: Cell::new(0),
            _not_send: std::marker::PhantomData,
        }
    }

    /// Acquires the gate in read mode, blocking behind an active or
    /// announced writer.
    ///
    /// The blocking interval registers a breakable `ReadWait` wait-for
    /// edge; when the deadlock detector's `Break` policy fails it, the
    /// acquisition panics with [`MailboxError::DeadlockBroken`] instead of
    /// deadlocking.
    pub(crate) fn activate(&mut self) {
        debug_assert!(!self.active, "read reservation activated twice");
        if !self.core.gate.try_read() {
            self.block_for_read();
        }
        self.active = true;
        if let Some(tracking) = self.core.deadlock.as_ref() {
            let client = current_waiter(&tracking.registry);
            self.core.register_read_holder(client);
            self.holder = Some(client);
        }
        RuntimeStats::bump(&self.core.stats.read_reservations);
        RuntimeStats::bump_max(
            &self.core.stats.peak_concurrent_readers,
            u64::from(self.core.gate.readers()),
        );
    }

    /// The slow path of [`activate`](Self::activate): park until the gate
    /// admits readers again, honouring a deadlock-detector break.
    #[cold]
    fn block_for_read(&mut self) {
        let parker = Arc::new(Parker::new());
        // Breakable ReadWait edge: "this client is blocked until the
        // reserved handler's writer (the handler itself, or a client
        // mutating under an exclusive reservation) gets through and
        // leaves".  The probe re-validates writer contention at scan time;
        // the waker unparks us after a break.
        let edge = self.core.deadlock.as_ref().map(|tracking| {
            let waiter = current_waiter(&tracking.registry);
            let gate = Arc::clone(&self.core.gate);
            let wake_parker = Arc::clone(&parker);
            tracking.registry.register(
                waiter,
                tracking.participant,
                EdgeKind::ReadWait,
                Some(Arc::new(move || wake_parker.wake()) as WakerFn),
                Some(Arc::new(move || gate.writer_contended()) as qs_deadlock::ProbeFn),
            )
        });
        loop {
            if self.core.gate.try_read() {
                return;
            }
            if edge.as_ref().is_some_and(|edge| edge.is_broken()) {
                RuntimeStats::bump(&self.core.stats.deadlocks_broken);
                std::panic::panic_any(MailboxError::DeadlockBroken {
                    handler: self.core.id,
                });
            }
            // Lost-wake protocol: enlist, then re-try — either the retry
            // sees the gate free, or the releasing writer sees the waiter.
            self.core.gate.enlist(GateWake::Parker(Arc::clone(&parker)));
            if self.core.gate.try_read() {
                return;
            }
            let gate = &self.core.gate;
            let broken = &edge;
            parker.park_until(|| {
                !gate.writer_contended() || broken.as_ref().is_some_and(|edge| edge.is_broken())
            });
        }
    }

    /// Performs a query directly on the client thread and returns its
    /// result.
    ///
    /// No sync, no round-trip, no handler involvement: the gate-read hold
    /// guarantees no writer is mutating the object, so the closure reads it
    /// in place.  Because nothing crosses threads, the closure needs
    /// neither `Send` nor `'static`.
    pub fn query<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        self.queries.set(self.queries.get() + 1);
        // SAFETY: this guard holds the gate in read mode; every `&mut` site
        // takes the gate in write mode first, so only other readers can be
        // touching the object concurrently.
        let object = unsafe { self.core.object_ref() };
        f(object)
    }

    /// The pipelined-query form, for API parity with
    /// [`crate::Separate::query_async`].
    ///
    /// Readers hold the object directly, so the query executes eagerly on
    /// this thread and the returned token is born completed:
    /// [`QueryToken::wait`] never blocks.
    pub fn query_async<R: Send + 'static>(&self, f: impl FnOnce(&T) -> R) -> QueryToken<R> {
        QueryToken::ready(self.query(f))
    }

    /// Reads the handler-owned object directly.  The borrow keeps the guard
    /// (and with it the gate-read hold) borrowed, so no writer can intervene
    /// while it is alive.
    pub fn peek(&self) -> &T {
        debug_assert!(self.active, "peek on an unactivated read reservation");
        // SAFETY: as in `query`; the returned lifetime is tied to `self`.
        unsafe { self.core.object_ref() }
    }

    /// Commands are not available through a read reservation: returns
    /// [`MailboxError::ReadOnlyReservation`] without enqueueing anything.
    ///
    /// The closure is accepted (and dropped) so call sites discover the
    /// misuse by switching a reservation from exclusive to read without
    /// rewriting every line — the error, not a type mismatch per call,
    /// tells them which operation needs the exclusive mode back.
    pub fn call(&self, _f: impl FnOnce(&mut T) + Send + 'static) -> Result<(), MailboxError> {
        Err(MailboxError::ReadOnlyReservation {
            handler: self.core.id,
        })
    }

    /// Non-blocking command form; rejected exactly like
    /// [`call`](Self::call).
    pub fn try_call(&self, f: impl FnOnce(&mut T) + Send + 'static) -> Result<(), MailboxError> {
        self.call(f)
    }

    /// The identifier of the reserved handler.
    pub fn handler_id(&self) -> crate::HandlerId {
        self.core.id
    }

    /// The runtime statistics block shared by the reserved handler.
    pub fn stats(&self) -> &Arc<RuntimeStats> {
        &self.core.stats
    }
}

impl<T: Send + 'static> Drop for ReadSeparate<'_, T> {
    fn drop(&mut self) {
        RuntimeStats::add(
            &self.core.stats.queries_client_executed,
            self.queries.take(),
        );
        if !self.active {
            return;
        }
        if let Some(holder) = self.holder.take() {
            self.core.deregister_read_holder(holder);
        }
        self.core.gate.end_read();
    }
}
