//! The unified reservation API: one composable [`reserve`] entry point.
//!
//! The paper's generalised `separate` rule (§2.4, §3.3) is a single concept —
//! atomically reserve a *set* of handlers, optionally guarded by a wait
//! condition — and this module exposes it as a single builder:
//!
//! ```
//! use qs_runtime::{reserve, Runtime, RuntimeConfig, WaitConfig};
//!
//! let rt = Runtime::new(RuntimeConfig::all_optimizations());
//! let x = rt.spawn_handler(1u64);
//! let y = rt.spawn_handler(2u64);
//! let z = rt.spawn_handler(3u64);
//!
//! // Plain atomic multi-reservation.
//! let sum = reserve((&x, &y, &z)).run(|(sx, sy, sz)| {
//!     sx.query(|v| *v) + sy.query(|v| *v) + sz.query(|v| *v)
//! });
//! assert_eq!(sum, 6);
//!
//! // Guarded by a joint wait condition, with a retry budget.
//! let result = reserve((&x, &y, &z))
//!     .when(|x: &u64, y: &u64, z: &u64| x + y + z >= 6)
//!     .timeout(WaitConfig::bounded(100))
//!     .try_run(|(sx, _sy, _sz)| sx.query(|v| *v));
//! assert_eq!(result, Ok(1));
//! ```
//!
//! A [`ReservationSet`] is a single `&Handler<T>`, a heterogeneous tuple of
//! handler references up to arity 4, or a homogeneous `&[Handler<T>]` slice.
//! Whatever the shape, the atomic registration happens here, in one place,
//! for both the queue-of-queues and the lock-based configurations: the
//! reservation locks (§3.3) — or, lock-based, the handler locks themselves —
//! are acquired in increasing handler-id order, so two overlapping
//! reservations can never deadlock against each other, and the client's
//! private queues are enqueued while all locks are held, making the
//! registration atomic (Fig. 5's consistency guarantee).
//!
//! Wait conditions follow the SCOOP contract semantics (§2.2): the condition
//! is evaluated under the reservation, the body runs under that *same*
//! reservation when it holds, and the reservation is released between
//! attempts so other clients can make the condition true.  There is one wait
//! loop: after a short spin window (`WaitConfig::spin_retries` attempts) the
//! client does not poll — it parks on a per-handler registry of guard
//! waiters ([`crate::guard`]) and is signalled when a handler finishes a
//! block that may have changed the condition's truth.  A `max_retries`
//! policy does not pick a different loop; it sizes the spin window: the
//! attempt budget is spent eagerly, back to back, and the wait fails when it
//! is gone — such a wait never parks, because a parked client makes no
//! attempts.
//!
//! # Read members
//!
//! Every member of a set defaults to **exclusive**, but queries commute, so
//! a member that is only read can be marked shared-read:
//! [`reserve`]`(&h).read()` for the single-handler form, a
//! [`crate::read`](fn@crate::read)`(&h)` marker inside a tuple, or `.read()` on a slice
//! reservation.  Read members skip the queues entirely — they take the
//! handler object's reader–writer gate in read mode and query in place on
//! the client thread (see [`crate::read`](mod@crate::read) for the full semantics, including
//! the deadlock-detection story and why commands are rejected).
//!
//! Two protocol notes.  First, ordering: gate-reads are acquired only
//! *after* the set's registration locks are released (attach, then
//! activate) — blocking behind a writer while holding reservation spinlocks
//! would stall every other multi-reservation on those handlers in a way the
//! deadlock detector cannot observe.  Second, atomicity: exclusive members
//! of one set still observe the full Fig. 5 consistency guarantee among
//! themselves, but read members only get per-object isolation — their gates
//! are acquired one at a time, so a writer may slip between two
//! acquisitions and a *cross-member* read snapshot is not a single instant.
//! Use exclusive members where joint consistency across handlers matters.
//! Duplicate-handler rejection is mode-blind: the same handler may not
//! appear twice in a set, whatever the modes.

use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Instant;

use qs_deadlock::{EdgeGuard, EdgeKind, ParticipantId, WaitRegistry};
use qs_sync::{Backoff, SpinLock, SpinLockGuard};

use crate::contracts::{WaitConfig, WaitTimeout};
use crate::deadlock::{current_waiter, Tracking};
use crate::guard::{enter_probe_round, GuardRegistry, ParkedWaiter};
use crate::handler::{Handler, HandlerCore, HandlerId};
use crate::read::{Read, ReadSeparate};
use crate::separate::Separate;
use crate::stats::RuntimeStats;

/// The deadlock-tracking identities of a reservation set's handlers, used
/// to register `ReserveWait` wait-for edges while a wait condition retries.
type DeadlockTargets = Vec<(Arc<WaitRegistry>, ParticipantId)>;

/// The guard-waiter registries of a reservation set's handlers, one per
/// handler, used to park a client whose wait condition failed.
type GuardRegistries = Vec<Arc<GuardRegistry>>;

// ---------------------------------------------------------------------------
// Type-erased view of a handler used by the atomic registration protocol
// ---------------------------------------------------------------------------

/// The parts of a [`HandlerCore`] the id-ordered locking protocol needs,
/// independent of the owned object's type.
pub(crate) trait RawReservable {
    fn raw_id(&self) -> HandlerId;
    fn raw_queue_of_queues(&self) -> bool;
    fn raw_reservation_lock(&self) -> &SpinLock<()>;
    fn raw_client_lock(&self) -> &parking_lot::Mutex<()>;
    fn raw_lock_holder(&self) -> &std::sync::atomic::AtomicU64;
    fn raw_stats(&self) -> &RuntimeStats;
    fn raw_deadlock(&self) -> Option<&Tracking>;
}

impl<T> RawReservable for HandlerCore<T> {
    fn raw_id(&self) -> HandlerId {
        self.id
    }
    fn raw_queue_of_queues(&self) -> bool {
        self.config.queue_of_queues
    }
    fn raw_reservation_lock(&self) -> &SpinLock<()> {
        &self.reservation_lock
    }
    fn raw_client_lock(&self) -> &parking_lot::Mutex<()> {
        &self.client_lock
    }
    fn raw_lock_holder(&self) -> &std::sync::atomic::AtomicU64 {
        &self.lock_holder
    }
    fn raw_stats(&self) -> &RuntimeStats {
        &self.stats
    }
    fn raw_deadlock(&self) -> Option<&Tracking> {
        self.deadlock.as_ref()
    }
}

/// How one member of a reservation set is reserved.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReserveMode {
    /// The default: the member is registered exclusively (private queue or
    /// handler lock) and the guard exposes the full command/query surface.
    Exclusive,
    /// Shared-read: the member takes the object's reader–writer gate in
    /// read mode after registration; no queue, no handler lock, queries
    /// only.
    Read,
}

/// The type-erased view of one reservation-set member handed to the atomic
/// registration protocol: which handler, reserved how.
///
/// Appears in the [`ReserveMember`] trait's (hidden) surface so the tuple
/// implementations can be generic over member modes; user code never
/// constructs one.
pub struct MemberDescriptor<'h> {
    pub(crate) core: &'h dyn RawReservable,
    pub(crate) mode: ReserveMode,
}

/// The one place where multi-handler reservations acquire their locks.
///
/// §3.3: "a spinlock per handler" serialises multi-reservations on the
/// queue-of-queues path; the pre-Qs path takes the handler locks themselves.
/// Either way the locks are taken in increasing handler-id order, which makes
/// overlapping reservations deadlock-free regardless of the order the caller
/// listed the handlers in.
///
/// Public only because it appears in [`ReserveMember`]'s (hidden) plumbing
/// signatures; user code cannot construct or use one.
pub struct AtomicRegistration<'h> {
    /// Reservation spinlock guards (queue-of-queues path); held until drop,
    /// i.e. until every private queue of the set has been enqueued.
    _spin_guards: Vec<SpinLockGuard<'h, ()>>,
    /// Handler lock guards by *set position* (lock-based path); taken out by
    /// the caller and carried in the [`Separate`] guards for the whole block.
    lock_guards: Vec<Option<parking_lot::MutexGuard<'h, ()>>>,
}

/// Reservation sets rarely exceed the tuple arities; index buffers up to
/// this size stay on the stack.
const INLINE_SET: usize = 8;

/// The global lock-acquisition key of one handler: primarily its id (the
/// paper's protocol), with the core's address as tiebreaker so handlers from
/// *different* [`crate::Runtime`] instances — whose per-runtime ids may
/// collide — still fall into one total order.  Pointer equality (not id
/// equality) is what identifies "the same handler twice".
fn lock_key(core: &dyn RawReservable) -> (HandlerId, *const ()) {
    (core.raw_id(), core as *const dyn RawReservable as *const ())
}

impl<'h> AtomicRegistration<'h> {
    /// Acquires the reservation locks for `members` in handler-id order and
    /// records the set-level statistics.
    ///
    /// Read members are lock-free here on both paths: they neither enqueue
    /// a private queue (nothing to keep atomic) nor take the lock-based
    /// handler lock (the gate, acquired after this registration is
    /// released, is their entire protocol) — which is precisely why a set
    /// of one exclusive member plus any number of read members costs the
    /// same as a singleton reservation.
    ///
    /// # Panics
    ///
    /// Panics if the same handler appears twice in the set, whatever the
    /// modes — reserving a handler against itself would self-deadlock
    /// (exclusive/exclusive), or upgrade/downgrade ambiguously
    /// (exclusive/read), so it is rejected eagerly.
    pub(crate) fn acquire(members: &[MemberDescriptor<'h>]) -> Self {
        let acquire_timer = qs_obs::timer();
        let first = members.first().expect("reservation sets are non-empty");
        let stats = first.core.raw_stats();
        RuntimeStats::bump(&stats.separate_blocks);
        if members.len() > 1 {
            RuntimeStats::bump(&stats.multi_reservations);
        }

        // Index-sort the set by its global lock key; small sets (every tuple
        // arity) sort in a stack buffer.
        let mut inline_buffer = [0usize; INLINE_SET];
        let mut spill_buffer;
        let order: &mut [usize] = if members.len() <= INLINE_SET {
            let order = &mut inline_buffer[..members.len()];
            for (slot, index) in order.iter_mut().zip(0..) {
                *slot = index;
            }
            order
        } else {
            spill_buffer = (0..members.len()).collect::<Vec<usize>>();
            &mut spill_buffer
        };
        order.sort_by_key(|&i| lock_key(members[i].core));
        for pair in order.windows(2) {
            assert!(
                lock_key(members[pair[0]].core).1 != lock_key(members[pair[1]].core).1,
                "a reservation set must not contain the same handler twice"
            );
        }

        let exclusive = members
            .iter()
            .filter(|member| member.mode == ReserveMode::Exclusive)
            .count();
        let mut spin_guards = Vec::new();
        let mut lock_guards = Vec::new();
        if first.core.raw_queue_of_queues() {
            // Phase 1 of §3.3: take the reservation spinlocks in id order.
            // A single exclusive registration enqueues lock-free and skips
            // them (read members never count: they enqueue nothing).
            if exclusive > 1 {
                spin_guards.reserve_exact(exclusive);
                spin_guards.extend(
                    order
                        .iter()
                        .filter(|&&i| members[i].mode == ReserveMode::Exclusive)
                        .map(|&i| members[i].core.raw_reservation_lock().lock()),
                );
            }
        } else {
            // Pre-Qs path: take the handler locks themselves, in id order,
            // and hold them for the whole block (Fig. 2 semantics).  Each
            // contended acquisition is a reportable HandlerLock edge.
            lock_guards.resize_with(members.len(), || None);
            for &i in order.iter() {
                if members[i].mode == ReserveMode::Exclusive {
                    lock_guards[i] = Some(crate::deadlock::lock_handler(
                        members[i].core.raw_client_lock(),
                        members[i].core.raw_lock_holder(),
                        members[i].core.raw_deadlock(),
                    ));
                }
            }
        }
        acquire_timer.record(qs_obs::obs_histogram!("reserve.acquire_ns"));
        qs_obs::trace(
            qs_obs::TraceKind::ReserveAcquire,
            first.core.raw_id(),
            members.len() as u64,
        );
        AtomicRegistration {
            _spin_guards: spin_guards,
            lock_guards,
        }
    }

    /// Takes the handler-lock guard for the handler at `set_index` (always
    /// `None` on the queue-of-queues path).
    pub(crate) fn take_lock(
        &mut self,
        set_index: usize,
    ) -> Option<parking_lot::MutexGuard<'h, ()>> {
        self.lock_guards.get_mut(set_index).and_then(Option::take)
    }
}

// ---------------------------------------------------------------------------
// ReservationSet: the shapes that can be reserved
// ---------------------------------------------------------------------------

/// A set of handlers that can be reserved atomically by [`reserve`].
///
/// Implemented for `&Handler<T>` (arity 1), heterogeneous tuples of handler
/// references up to arity 4, and homogeneous `&[Handler<T>]` /
/// `&Vec<Handler<T>>` slices.  `Guards` is the matching shape of
/// [`Separate`] reservation guards handed to the block body.
pub trait ReservationSet<'h>: Copy {
    /// The reservation guards for this set: a single [`Separate`], a tuple
    /// of them, or a `Vec` for slices.
    type Guards;

    /// Performs the atomic registration and returns the guards.
    #[doc(hidden)]
    fn begin(self) -> Self::Guards;

    /// The statistics block reservation retries are accounted to.
    #[doc(hidden)]
    fn shared_stats(self) -> Option<Arc<RuntimeStats>>;

    /// The deadlock-tracking identities of the set's handlers (empty while
    /// the runtime's `DeadlockPolicy` is `Off`).
    #[doc(hidden)]
    fn deadlock_targets(self) -> DeadlockTargets;

    /// The guard-waiter registries of the set's handlers, one per handler —
    /// where a client parks while its wait condition is false.
    #[doc(hidden)]
    fn guard_registries(self) -> GuardRegistries;
}

fn deadlock_target<T: Send + 'static>(
    handler: &Handler<T>,
) -> Option<(Arc<WaitRegistry>, ParticipantId)> {
    handler
        .core()
        .deadlock
        .as_ref()
        .map(|tracking| (Arc::clone(&tracking.registry), tracking.participant))
}

impl<'h, T: Send + 'static> ReservationSet<'h> for &'h Handler<T> {
    type Guards = Separate<'h, T>;

    fn begin(self) -> Self::Guards {
        // Arity 1 is the Fig. 8 fast path: no reservation spinlock at all.
        Separate::begin_single(self.core())
    }

    fn shared_stats(self) -> Option<Arc<RuntimeStats>> {
        Some(Arc::clone(self.stats()))
    }

    fn deadlock_targets(self) -> DeadlockTargets {
        deadlock_target(self).into_iter().collect()
    }

    fn guard_registries(self) -> GuardRegistries {
        vec![Arc::clone(&self.core().guards)]
    }
}

// ---------------------------------------------------------------------------
// ReserveMember: the shapes one *member* of a tuple set can take
// ---------------------------------------------------------------------------

/// One member of a reservation-set tuple: a plain `&Handler<T>` (exclusive,
/// the default) or a [`crate::read`](fn@crate::read)`(&handler)` marker (shared-read).
///
/// The tuple [`ReservationSet`] implementations are generic over this
/// trait, which is what lets exclusive and read members mix freely in one
/// atomic set.  All methods are protocol plumbing; user code only ever
/// names the trait in bounds.
pub trait ReserveMember<'h>: Copy {
    /// The reservation guard this member contributes to the set's `Guards`
    /// tuple: [`Separate`] for exclusive members, [`ReadSeparate`] for read
    /// members.
    type Guard: MemberGuard;

    /// The member's handler and mode, for the atomic registration.
    #[doc(hidden)]
    fn descriptor(self) -> MemberDescriptor<'h>;

    /// Builds the guard while the registration is held.  Exclusive members
    /// enqueue their private queue (or take over their handler lock) here;
    /// read members construct an inactive guard — their gate must not be
    /// acquired under the registration's spinlocks.
    #[doc(hidden)]
    fn attach(self, registration: &mut AtomicRegistration<'h>, set_index: usize) -> Self::Guard;

    /// Completes the guard after the registration is released: a no-op for
    /// exclusive members, the (potentially blocking) gate-read acquisition
    /// for read members.
    #[doc(hidden)]
    fn activate(guard: &mut Self::Guard);

    #[doc(hidden)]
    fn member_stats(self) -> Arc<RuntimeStats>;

    #[doc(hidden)]
    fn member_deadlock_target(self) -> Option<(Arc<WaitRegistry>, ParticipantId)>;

    #[doc(hidden)]
    fn member_guard_registry(self) -> Arc<GuardRegistry>;
}

/// The wait-condition surface shared by both guard flavours, so
/// [`WaitCondition`] closures work over mixed tuples.
pub trait MemberGuard {
    /// The handler-owned object type the condition observes.
    type Object;

    /// Brings the guard to a state where [`wait_peek`](Self::wait_peek) is
    /// race-free: a sync round-trip for exclusive guards (parking the
    /// handler on this client's queue), nothing for read guards (the
    /// gate-read hold already excludes writers).
    #[doc(hidden)]
    fn wait_sync(&mut self);

    /// Reads the object for a condition evaluation.
    #[doc(hidden)]
    fn wait_peek(&self) -> &Self::Object;
}

impl<T: Send + 'static> MemberGuard for Separate<'_, T> {
    type Object = T;

    fn wait_sync(&mut self) {
        self.sync();
    }

    fn wait_peek(&self) -> &T {
        self.peek_synced()
    }
}

impl<T: Send + 'static> MemberGuard for ReadSeparate<'_, T> {
    type Object = T;

    fn wait_sync(&mut self) {}

    fn wait_peek(&self) -> &T {
        self.peek()
    }
}

impl<'h, T: Send + 'static> ReserveMember<'h> for &'h Handler<T> {
    type Guard = Separate<'h, T>;

    fn descriptor(self) -> MemberDescriptor<'h> {
        MemberDescriptor {
            core: &**self.core(),
            mode: ReserveMode::Exclusive,
        }
    }

    fn attach(self, registration: &mut AtomicRegistration<'h>, set_index: usize) -> Self::Guard {
        // Register one private queue (queue-of-queues) or carry the
        // already-acquired handler lock (lock-based) while the registration
        // keeps the set atomic.
        Separate::attach(self.core(), registration.take_lock(set_index))
    }

    fn activate(_guard: &mut Self::Guard) {}

    fn member_stats(self) -> Arc<RuntimeStats> {
        Arc::clone(self.stats())
    }

    fn member_deadlock_target(self) -> Option<(Arc<WaitRegistry>, ParticipantId)> {
        deadlock_target(self)
    }

    fn member_guard_registry(self) -> Arc<GuardRegistry> {
        Arc::clone(&self.core().guards)
    }
}

impl<'h, T: Send + 'static> ReserveMember<'h> for Read<'h, T> {
    type Guard = ReadSeparate<'h, T>;

    fn descriptor(self) -> MemberDescriptor<'h> {
        MemberDescriptor {
            core: &**self.handler.core(),
            mode: ReserveMode::Read,
        }
    }

    fn attach(self, _registration: &mut AtomicRegistration<'h>, _set_index: usize) -> Self::Guard {
        ReadSeparate::attach(self.handler.core())
    }

    fn activate(guard: &mut Self::Guard) {
        guard.activate();
    }

    fn member_stats(self) -> Arc<RuntimeStats> {
        Arc::clone(self.handler.stats())
    }

    fn member_deadlock_target(self) -> Option<(Arc<WaitRegistry>, ParticipantId)> {
        deadlock_target(self.handler)
    }

    fn member_guard_registry(self) -> Arc<GuardRegistry> {
        Arc::clone(&self.handler.core().guards)
    }
}

macro_rules! impl_reservation_set_for_tuple {
    ($(($($name:ident : $ty:ident @ $index:tt),+)),+ $(,)?) => {$(
        impl<'h, $($ty: ReserveMember<'h>),+> ReservationSet<'h> for ($($ty,)+) {
            type Guards = ($($ty::Guard,)+);

            fn begin(self) -> Self::Guards {
                let ($($name,)+) = self;
                let mut registration = AtomicRegistration::acquire(&[
                    $($name.descriptor(),)+
                ]);
                let mut guards = ($(
                    $name.attach(&mut registration, $index),
                )+);
                drop(registration);
                // Two-phase begin: read members acquire their gates only
                // *after* the registration's locks are released — blocking
                // behind a writer while holding reservation spinlocks would
                // stall unrelated multi-reservations undetectably.
                {
                    let ($($name,)+) = &mut guards;
                    $(<$ty as ReserveMember>::activate($name);)+
                }
                guards
            }

            fn shared_stats(self) -> Option<Arc<RuntimeStats>> {
                let ($($name,)+) = self;
                let mut stats = None;
                $(if stats.is_none() { stats = Some($name.member_stats()); })+
                stats
            }

            fn deadlock_targets(self) -> DeadlockTargets {
                let ($($name,)+) = self;
                let mut targets = DeadlockTargets::new();
                $(targets.extend($name.member_deadlock_target());)+
                targets
            }

            fn guard_registries(self) -> GuardRegistries {
                let ($($name,)+) = self;
                vec![$($name.member_guard_registry(),)+]
            }
        }
    )+};
}

impl_reservation_set_for_tuple! {
    (a: A @ 0, b: B @ 1),
    (a: A @ 0, b: B @ 1, c: C @ 2),
    (a: A @ 0, b: B @ 1, c: C @ 2, d: D @ 3),
}

impl<'h, T: Send + 'static> ReservationSet<'h> for &'h [Handler<T>] {
    type Guards = Vec<Separate<'h, T>>;

    fn begin(self) -> Self::Guards {
        match self {
            [] => Vec::new(),
            [single] => vec![Separate::begin_single(single.core())],
            handlers => {
                let members: Vec<MemberDescriptor> = handlers
                    .iter()
                    .map(|h| MemberDescriptor {
                        core: &**h.core(),
                        mode: ReserveMode::Exclusive,
                    })
                    .collect();
                let mut registration = AtomicRegistration::acquire(&members);
                let guards = handlers
                    .iter()
                    .enumerate()
                    .map(|(i, h)| Separate::attach(h.core(), registration.take_lock(i)))
                    .collect();
                drop(registration);
                guards
            }
        }
    }

    fn shared_stats(self) -> Option<Arc<RuntimeStats>> {
        self.first().map(|h| Arc::clone(h.stats()))
    }

    fn deadlock_targets(self) -> DeadlockTargets {
        self.iter().filter_map(deadlock_target).collect()
    }

    fn guard_registries(self) -> GuardRegistries {
        self.iter().map(|h| Arc::clone(&h.core().guards)).collect()
    }
}

impl<'h, T: Send + 'static> ReservationSet<'h> for &'h Vec<Handler<T>> {
    type Guards = Vec<Separate<'h, T>>;

    fn begin(self) -> Self::Guards {
        self.as_slice().begin()
    }

    fn shared_stats(self) -> Option<Arc<RuntimeStats>> {
        self.as_slice().shared_stats()
    }

    fn deadlock_targets(self) -> DeadlockTargets {
        self.as_slice().deadlock_targets()
    }

    fn guard_registries(self) -> GuardRegistries {
        self.as_slice().guard_registries()
    }
}

// The single-handler read form, reached through `reserve(&h).read()`: like
// the exclusive arity-1 fast path it touches no registration machinery at
// all — the gate acquisition *is* the reservation.
impl<'h, T: Send + 'static> ReservationSet<'h> for Read<'h, T> {
    type Guards = ReadSeparate<'h, T>;

    fn begin(self) -> Self::Guards {
        ReadSeparate::begin_single(self.handler.core())
    }

    fn shared_stats(self) -> Option<Arc<RuntimeStats>> {
        Some(Arc::clone(self.handler.stats()))
    }

    fn deadlock_targets(self) -> DeadlockTargets {
        deadlock_target(self.handler).into_iter().collect()
    }

    fn guard_registries(self) -> GuardRegistries {
        vec![Arc::clone(&self.handler.core().guards)]
    }
}

/// A homogeneous reservation set whose members are all shared-read,
/// obtained by calling `.read()` on a slice or `Vec` reservation.
///
/// Reserving it acquires every handler's gate in read mode; the guards are
/// a `Vec` of [`ReadSeparate`].  Registration is lock-free (read members
/// take no reservation locks) but still rejects duplicate handlers.
pub struct ReadSlice<'h, T: Send + 'static> {
    handlers: &'h [Handler<T>],
}

impl<T: Send + 'static> Clone for ReadSlice<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T: Send + 'static> Copy for ReadSlice<'_, T> {}

impl<'h, T: Send + 'static> ReservationSet<'h> for ReadSlice<'h, T> {
    type Guards = Vec<ReadSeparate<'h, T>>;

    fn begin(self) -> Self::Guards {
        match self.handlers {
            [] => Vec::new(),
            [single] => vec![ReadSeparate::begin_single(single.core())],
            handlers => {
                let members: Vec<MemberDescriptor> = handlers
                    .iter()
                    .map(|h| MemberDescriptor {
                        core: &**h.core(),
                        mode: ReserveMode::Read,
                    })
                    .collect();
                // Takes no locks (every member is read) but keeps the
                // duplicate-handler rejection and set-level statistics.
                let registration = AtomicRegistration::acquire(&members);
                let mut guards: Vec<ReadSeparate<'h, T>> = handlers
                    .iter()
                    .map(|h| ReadSeparate::attach(h.core()))
                    .collect();
                drop(registration);
                for guard in &mut guards {
                    guard.activate();
                }
                guards
            }
        }
    }

    fn shared_stats(self) -> Option<Arc<RuntimeStats>> {
        self.handlers.first().map(|h| Arc::clone(h.stats()))
    }

    fn deadlock_targets(self) -> DeadlockTargets {
        self.handlers.iter().filter_map(deadlock_target).collect()
    }

    fn guard_registries(self) -> GuardRegistries {
        self.handlers
            .iter()
            .map(|h| Arc::clone(&h.core().guards))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Wait conditions
// ---------------------------------------------------------------------------

/// A wait condition over the objects of a [`ReservationSet`].
///
/// Blanket-implemented for plain closures matching the set's shape:
/// `Fn(&T) -> bool` for a single handler, `Fn(&A, &B) -> bool` (and so on up
/// to arity 4) for tuples, and `Fn(&[&T]) -> bool` for slices.  Evaluation
/// synchronises every handler of the set first, so the condition observes a
/// mutually consistent snapshot (the Fig. 5 situation), and runs under the
/// same reservation as the body — no other client can invalidate a condition
/// that was observed to hold (§2.2 guarantee 2).
pub trait WaitCondition<'h, S: ReservationSet<'h>> {
    /// Evaluates the condition against a freshly reserved set.
    #[doc(hidden)]
    fn holds(&self, guards: &mut S::Guards) -> bool;
}

impl<'h, T, F> WaitCondition<'h, &'h Handler<T>> for F
where
    T: Send + 'static,
    F: Fn(&T) -> bool,
{
    fn holds(&self, guard: &mut Separate<'h, T>) -> bool {
        guard.sync();
        self(guard.peek_synced())
    }
}

macro_rules! impl_wait_condition_for_tuple {
    ($(($($name:ident : $ty:ident),+)),+ $(,)?) => {$(
        impl<'h, $($ty,)+ F> WaitCondition<'h, ($($ty,)+)> for F
        where
            $($ty: ReserveMember<'h>,)+
            F: Fn($(&<$ty::Guard as MemberGuard>::Object),+) -> bool,
        {
            fn holds(&self, guards: &mut ($($ty::Guard,)+)) -> bool {
                let ($($name,)+) = guards;
                // Sync every exclusive member first: afterwards all of them
                // are parked on this client's queues, so the joint read is
                // race-free and their observations mutually consistent.
                // Read members need no sync — their gate-read hold already
                // excludes writers (per-object; see the module docs for the
                // cross-member caveat).
                $($name.wait_sync();)+
                self($($name.wait_peek()),+)
            }
        }
    )+};
}

impl_wait_condition_for_tuple! {
    (a: A, b: B),
    (a: A, b: B, c: C),
    (a: A, b: B, c: C, d: D),
}

/// Shared evaluation for the homogeneous (slice-shaped) sets: sync every
/// guard, then hand the condition one consistent snapshot of all objects.
fn holds_for_slice<T, F>(guards: &mut [Separate<'_, T>], condition: &F) -> bool
where
    T: Send + 'static,
    F: Fn(&[&T]) -> bool,
{
    for guard in guards.iter_mut() {
        guard.sync();
    }
    let objects: Vec<&T> = guards.iter().map(Separate::peek_synced).collect();
    condition(&objects)
}

impl<'h, T, F> WaitCondition<'h, &'h [Handler<T>]> for F
where
    T: Send + 'static,
    F: Fn(&[&T]) -> bool,
{
    fn holds(&self, guards: &mut Vec<Separate<'h, T>>) -> bool {
        holds_for_slice(guards, self)
    }
}

impl<'h, T, F> WaitCondition<'h, &'h Vec<Handler<T>>> for F
where
    T: Send + 'static,
    F: Fn(&[&T]) -> bool,
{
    fn holds(&self, guards: &mut Vec<Separate<'h, T>>) -> bool {
        holds_for_slice(guards, self)
    }
}

impl<'h, T, F> WaitCondition<'h, Read<'h, T>> for F
where
    T: Send + 'static,
    F: Fn(&T) -> bool,
{
    fn holds(&self, guard: &mut ReadSeparate<'h, T>) -> bool {
        // No sync: the gate-read hold keeps the object stable, and the body
        // runs under the same hold, so an observed-true condition stays
        // true until the block ends (writers are excluded throughout).
        self(guard.peek())
    }
}

impl<'h, T, F> WaitCondition<'h, ReadSlice<'h, T>> for F
where
    T: Send + 'static,
    F: Fn(&[&T]) -> bool,
{
    fn holds(&self, guards: &mut Vec<ReadSeparate<'h, T>>) -> bool {
        let objects: Vec<&T> = guards.iter().map(ReadSeparate::peek).collect();
        self(&objects)
    }
}

// ---------------------------------------------------------------------------
// The builder
// ---------------------------------------------------------------------------

/// Builder returned by [`reserve`]; see the module docs for the full shape.
#[must_use = "a reservation does nothing until `.run(…)` is called"]
pub struct Reservation<'h, S: ReservationSet<'h>> {
    set: S,
    _handlers: PhantomData<&'h ()>,
}

/// A reservation guarded by a wait condition, returned by
/// [`Reservation::when`].
#[must_use = "a reservation does nothing until `.run(…)` or `.try_run(…)` is called"]
pub struct GuardedReservation<'h, S: ReservationSet<'h>, C> {
    set: S,
    condition: C,
    config: WaitConfig,
    _handlers: PhantomData<&'h ()>,
}

/// Reserves a set of handlers atomically.
///
/// The entry point of the unified reservation API.  `set` is a single
/// `&Handler<T>`, a tuple of handler references up to arity 4, or a
/// `&[Handler<T>]` slice; the returned builder optionally takes a wait
/// condition ([`when`](Reservation::when)) and a retry/timeout policy
/// ([`timeout`](GuardedReservation::timeout)) before running the block body
/// ([`run`](Reservation::run) / [`try_run`](GuardedReservation::try_run)).
///
/// ```
/// use qs_runtime::{reserve, Runtime, RuntimeConfig};
///
/// let rt = Runtime::new(RuntimeConfig::all_optimizations());
/// let account = rt.spawn_handler(100i64);
/// let audit = rt.spawn_handler(Vec::<i64>::new());
///
/// reserve((&account, &audit)).run(|(acc, log)| {
///     acc.call(|balance| *balance -= 30);
///     let remaining = acc.query(|balance| *balance);
///     log.call(move |entries| entries.push(remaining));
/// });
/// ```
pub fn reserve<'h, S: ReservationSet<'h>>(set: S) -> Reservation<'h, S> {
    Reservation {
        set,
        _handlers: PhantomData,
    }
}

impl<'h, S: ReservationSet<'h>> Reservation<'h, S> {
    /// Guards the reservation with a wait condition: the body runs only once
    /// the condition holds, under the same reservation that observed it.
    /// Between failed attempts the reservation is released so other clients
    /// can make the condition true.
    pub fn when<C: WaitCondition<'h, S>>(self, condition: C) -> GuardedReservation<'h, S, C> {
        GuardedReservation {
            set: self.set,
            condition,
            config: WaitConfig::default(),
            _handlers: PhantomData,
        }
    }

    /// Reserves the set and runs `body` with the reservation guards.
    pub fn run<R>(self, body: impl FnOnce(&mut S::Guards) -> R) -> R {
        let mut guards = self.set.begin();
        body(&mut guards)
        // Dropping the guards ends the block (END rule) for every handler.
    }
}

impl<'h, T: Send + 'static> Reservation<'h, &'h Handler<T>> {
    /// Downgrades the reservation to shared-read: any number of clients
    /// hold it concurrently, queries run in place on the client thread, and
    /// commands are rejected (see [`crate::read`](mod@crate::read)).
    ///
    /// ```
    /// use qs_runtime::{reserve, Runtime, RuntimeConfig};
    ///
    /// let rt = Runtime::new(RuntimeConfig::all_optimizations());
    /// let scores = rt.spawn_handler(vec![3u32, 1, 4]);
    /// let top = reserve(&scores)
    ///     .read()
    ///     .run(|r| r.query(|s| s.iter().copied().max().unwrap_or(0)));
    /// assert_eq!(top, 4);
    /// ```
    pub fn read(self) -> Reservation<'h, Read<'h, T>> {
        reserve(crate::read::read(self.set))
    }
}

impl<'h, T: Send + 'static> Reservation<'h, &'h [Handler<T>]> {
    /// Downgrades every member of the slice reservation to shared-read.
    pub fn read(self) -> Reservation<'h, ReadSlice<'h, T>> {
        reserve(ReadSlice { handlers: self.set })
    }
}

impl<'h, T: Send + 'static> Reservation<'h, &'h Vec<Handler<T>>> {
    /// Downgrades every member of the slice reservation to shared-read.
    pub fn read(self) -> Reservation<'h, ReadSlice<'h, T>> {
        reserve(ReadSlice {
            handlers: self.set.as_slice(),
        })
    }
}

impl<'h, S: ReservationSet<'h>, C> GuardedReservation<'h, S, C> {
    /// Sets the retry/timeout policy for the wait condition; see
    /// [`WaitConfig`].  Without this, the reservation retries forever (the
    /// SCOOP semantics).
    pub fn timeout(mut self, config: WaitConfig) -> Self {
        self.config = config;
        self
    }
}

impl<'h, S: ReservationSet<'h>, C: WaitCondition<'h, S>> GuardedReservation<'h, S, C> {
    /// Runs `body` once the wait condition holds.
    ///
    /// # Panics
    ///
    /// Panics if a bounded [`timeout`](GuardedReservation::timeout) policy is exhausted;
    /// use [`try_run`](GuardedReservation::try_run) to handle that case.
    pub fn run<R>(self, body: impl FnOnce(&mut S::Guards) -> R) -> R {
        match self.try_run(body) {
            Ok(result) => result,
            Err(timeout) => panic!("reservation wait condition timed out: {timeout}"),
        }
    }

    /// Runs `body` once the wait condition holds, giving up according to the
    /// configured [`timeout`](GuardedReservation::timeout) policy.
    ///
    /// Failed evaluations do not poll: after a brief spin window the client
    /// registers itself with every handler of the set and parks until some
    /// handler finishes a block — the only event that can change the
    /// condition's truth — then re-reserves and re-evaluates.  Under a
    /// `max_retries` policy the spin window is the whole attempt budget: it
    /// is spent eagerly and the wait returns `Err` when it is gone, without
    /// ever parking (a parked client makes no attempts).
    ///
    /// Lost-signal freedom: the waiter registers with every handler's
    /// registry — and clears its signal flag — *while the failed
    /// reservation is still open*, i.e. while every handler of the set is
    /// parked on this client's queues (or its locks are held).  Any
    /// state-changing block therefore completes only after this round's
    /// release, so its signal necessarily lands after the registration;
    /// blocks that completed before the round was observed by the
    /// evaluation itself.
    pub fn try_run<R>(self, body: impl FnOnce(&mut S::Guards) -> R) -> Result<R, WaitTimeout> {
        let stats = self.set.shared_stats();
        let registries = self.set.guard_registries();
        let mut body = Some(body);
        let mut attempts = 0usize;
        let deadline = self
            .config
            .max_wait
            .map(|max_wait| Instant::now() + max_wait);
        let backoff = Backoff::new();
        // Registered with every handler of the set on the first failed
        // evaluation; dropping it (on return) deregisters everywhere.
        let mut parking: Option<ParkedWaiter> = None;
        // Deadlock tracking: from the first failed attempt this client is
        // (conditionally) blocked on every handler of the set, registered
        // as ReserveWait edges.  The probe is the `parked` flag — a parked
        // client is genuinely waiting, while one that is busy re-reserving
        // and evaluating is making progress and must not complete a cycle
        // at scan time (e.g. against the Serving edge of the very block the
        // evaluation holds open).  The edges carry a waker that unparks
        // this client, and the park condition re-checks the break token on
        // every wake, so `Break` can fail a confirmed cycle straight out of
        // the park.
        let mut reserve_edges: Vec<EdgeGuard> = Vec::new();
        let parked = Arc::new(std::sync::atomic::AtomicBool::new(false));
        loop {
            attempts += 1;
            if let Some(stats) = &stats {
                RuntimeStats::bump(&stats.wait_condition_checks);
            }
            {
                // Evaluation rounds are probe rounds: their blocks are
                // attached silent, so the closes they enqueue do not signal
                // other guard waiters (a failed probe changes no state).
                // Only `begin` runs under the flag — the body may open
                // nested blocks of its own, and those must signal normally.
                let mut guards = {
                    let _probe = enter_probe_round();
                    self.set.begin()
                };
                if self.condition.holds(&mut guards) {
                    // The condition holds and the reservation stays open, so
                    // no other client can invalidate it before the body has
                    // run (§2.2 guarantee 2).
                    let body = body.take().expect("body consumed once");
                    let result = body(&mut guards);
                    drop(guards);
                    drop(parking);
                    // This round's blocks were silent but the body *did*
                    // change state: signal the set's registries explicitly.
                    // Any waiter whose evaluation has not yet observed the
                    // body's effects shares a handler with this set, so its
                    // next sync serialises after this round's closes.
                    for registry in &registries {
                        registry.signal_all();
                    }
                    return Ok(result);
                }
                // Failed.  (Re-)arm the parking slot while the reservation
                // is still open: no state-changing block on any handler of
                // the set can complete — and signal — between this
                // registration and the release below, so clearing the
                // signal flag here discards only signals whose effects this
                // very evaluation already observed.
                let waiter = &parking
                    .get_or_insert_with(|| ParkedWaiter::register(&registries))
                    .waiter;
                waiter
                    .signaled
                    .store(false, std::sync::atomic::Ordering::Release);
                // Release the reservation (guards drop here) so other
                // clients can make the condition true.
            }
            if let Some(stats) = &stats {
                RuntimeStats::bump(&stats.wait_condition_retries);
            }
            if attempts == 1 {
                let slot = parking.as_ref().expect("registered on first failure");
                for (registry, owner) in self.set.deadlock_targets() {
                    let waiter_id = current_waiter(&registry);
                    let probe = Arc::clone(&parked);
                    let wake = Arc::clone(&slot.waiter);
                    reserve_edges.push(registry.register(
                        waiter_id,
                        owner,
                        EdgeKind::ReserveWait,
                        Some(Arc::new(move || wake.parker.wake())),
                        Some(Arc::new(move || {
                            probe.load(std::sync::atomic::Ordering::Acquire)
                        })),
                    ));
                }
            }
            if reserve_edges.iter().any(EdgeGuard::is_broken) {
                // The deadlock monitor confirmed a cycle through this wait
                // and broke it here: surface it as a timeout.
                if let Some(stats) = &stats {
                    RuntimeStats::bump(&stats.deadlocks_broken);
                }
                return Err(WaitTimeout { attempts });
            }
            if self
                .config
                .max_retries
                .is_some_and(|budget| attempts >= budget)
            {
                return Err(WaitTimeout { attempts });
            }
            if let Some(deadline) = deadline {
                if Instant::now() >= deadline {
                    return Err(WaitTimeout { attempts });
                }
            }
            // Young conditions often come true within a round trip or two;
            // a short spin window spares them the park/unpark.  An attempt
            // budget is spent here in full: it ran out above before the
            // window can close, so a bounded wait never reaches the park.
            let spin_window = self.config.max_retries.unwrap_or(self.config.spin_retries);
            if attempts <= spin_window {
                backoff.spin();
                continue;
            }
            let waiter = &parking
                .as_ref()
                .expect("registered on first failure")
                .waiter;
            let signaled_or_broken = || {
                waiter.signaled.load(std::sync::atomic::Ordering::Acquire)
                    || reserve_edges.iter().any(EdgeGuard::is_broken)
            };
            let park_timer = qs_obs::timer();
            parked.store(true, std::sync::atomic::Ordering::Release);
            match deadline {
                Some(deadline) => {
                    waiter
                        .parker
                        .park_until_deadline(signaled_or_broken, deadline);
                }
                None => waiter.parker.park_until(signaled_or_broken),
            }
            parked.store(false, std::sync::atomic::Ordering::Release);
            let was_signaled = waiter.signaled.load(std::sync::atomic::Ordering::Acquire);
            if was_signaled {
                if let Some(stats) = &stats {
                    RuntimeStats::bump(&stats.guard_wakeups);
                }
                // Park-to-resume interval of a signalled guard waiter: what
                // parking costs over staying in the spin window.
                park_timer.record(qs_obs::obs_histogram!("guard.park_resume_ns"));
                qs_obs::trace(qs_obs::TraceKind::GuardWakeup, attempts as u64, 0);
            }
            // Resolve a break or an expired deadline *before* re-evaluating:
            // in a genuine cycle the handlers this wait observes are
            // themselves blocked, so another evaluation would hang in its
            // sync instead of surfacing the error.  A signalled waiter past
            // its deadline still gets the re-evaluation — the post-attempt
            // deadline check above fails it if the condition is still false.
            if reserve_edges.iter().any(EdgeGuard::is_broken) {
                if let Some(stats) = &stats {
                    RuntimeStats::bump(&stats.deadlocks_broken);
                }
                return Err(WaitTimeout { attempts });
            }
            if !was_signaled {
                if let Some(deadline) = deadline {
                    if Instant::now() >= deadline {
                        return Err(WaitTimeout { attempts });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{OptimizationLevel, RuntimeConfig};
    use crate::runtime::Runtime;

    #[test]
    fn single_handler_reserve_matches_separate() {
        let rt = Runtime::new(RuntimeConfig::all_optimizations());
        let cell = rt.spawn_handler(0u32);
        let doubled = reserve(&cell).run(|guard| {
            guard.call(|n| *n = 21);
            guard.query(|n| *n * 2)
        });
        assert_eq!(doubled, 42);
        // Arity 1 must not touch the multi-reservation machinery.
        assert_eq!(rt.stats_snapshot().multi_reservations, 0);
        assert_eq!(rt.stats_snapshot().separate_blocks, 1);
    }

    #[test]
    fn tuple_reserve_sees_consistent_state() {
        // Fig. 5: painters colour (x, y) atomically; an observer reserving
        // both must never see mixed colours.
        for level in [OptimizationLevel::All, OptimizationLevel::None] {
            let rt = Runtime::new(level.config());
            let x = rt.spawn_handler(0u8);
            let y = rt.spawn_handler(0u8);
            let mut painters = Vec::new();
            for colour in [1u8, 2u8] {
                let x = x.clone();
                let y = y.clone();
                painters.push(std::thread::spawn(move || {
                    for _ in 0..200 {
                        reserve((&x, &y)).run(|(sx, sy)| {
                            sx.call(move |v| *v = colour);
                            sy.call(move |v| *v = colour);
                        });
                    }
                }));
            }
            let observer = {
                let x = x.clone();
                let y = y.clone();
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let (cx, cy) =
                            reserve((&x, &y)).run(|(sx, sy)| (sx.query(|v| *v), sy.query(|v| *v)));
                        assert_eq!(cx, cy, "observed mixed colours under {level}");
                    }
                })
            };
            for painter in painters {
                painter.join().unwrap();
            }
            observer.join().unwrap();
        }
    }

    #[test]
    fn arity_four_tuples_reserve_heterogeneous_handlers() {
        let rt = Runtime::new(RuntimeConfig::all_optimizations());
        let a = rt.spawn_handler(1u32);
        let b = rt.spawn_handler(String::new());
        let c = rt.spawn_handler(Vec::<u8>::new());
        let d = rt.spawn_handler(0.5f64);
        reserve((&a, &b, &c, &d)).run(|(sa, sb, sc, sd)| {
            sa.call(|n| *n += 1);
            sb.call(|s| s.push('q'));
            sc.call(|v| v.push(3));
            sd.call(|f| *f *= 4.0);
            assert_eq!(sa.query(|n| *n), 2);
            assert_eq!(sb.query(|s| s.clone()), "q");
            assert_eq!(sc.query(|v| v.len()), 1);
            assert_eq!(sd.query(|f| *f), 2.0);
        });
        assert_eq!(rt.stats_snapshot().multi_reservations, 1);
    }

    #[test]
    fn slice_reserve_handles_empty_single_and_many() {
        let rt = Runtime::new(RuntimeConfig::all_optimizations());
        let none: Vec<Handler<u64>> = Vec::new();
        assert_eq!(reserve(&none[..]).run(|guards| guards.len()), 0);

        let one = vec![rt.spawn_handler(5u64)];
        assert_eq!(reserve(&one).run(|guards| guards[0].query(|v| *v)), 5);
        // A singleton set takes the lock-free fast path.
        assert_eq!(rt.stats_snapshot().multi_reservations, 0);

        let handlers: Vec<_> = (0..6).map(|i| rt.spawn_handler(i as u64)).collect();
        let sum = reserve(&handlers)
            .run(|guards| guards.iter_mut().map(|g| g.query(|v| *v)).sum::<u64>());
        assert_eq!(sum, (0..6).sum());
        assert_eq!(rt.stats_snapshot().multi_reservations, 1);
    }

    #[test]
    fn opposite_order_reservations_do_not_deadlock() {
        for level in [OptimizationLevel::All, OptimizationLevel::None] {
            let rt = Runtime::new(level.config());
            let x = rt.spawn_handler(0u64);
            let y = rt.spawn_handler(0u64);
            let t1 = {
                let (x, y) = (x.clone(), y.clone());
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        reserve((&x, &y)).run(|(sx, sy)| {
                            sx.call(|v| *v += 1);
                            sy.call(|v| *v += 1);
                        });
                    }
                })
            };
            let t2 = {
                let (x, y) = (x.clone(), y.clone());
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        reserve((&y, &x)).run(|(sy, sx)| {
                            sy.call(|v| *v += 1);
                            sx.call(|v| *v += 1);
                        });
                    }
                })
            };
            t1.join().unwrap();
            t2.join().unwrap();
            assert_eq!(x.query_detached(|v| *v), 1_000);
            assert_eq!(y.query_detached(|v| *v), 1_000);
        }
    }

    #[test]
    fn triple_wait_condition_holds_under_the_reservation() {
        // The arity-3 guarded invariant the old API could not express.
        for level in [OptimizationLevel::All, OptimizationLevel::None] {
            let rt = Runtime::new(level.config());
            let a = rt.spawn_handler(0i64);
            let b = rt.spawn_handler(0i64);
            let c = rt.spawn_handler(0i64);
            let feeder = {
                let (a, b, c) = (a.clone(), b.clone(), c.clone());
                std::thread::spawn(move || {
                    for _ in 0..10 {
                        reserve((&a, &b, &c)).run(|(sa, sb, sc)| {
                            sa.call(|v| *v += 1);
                            sb.call(|v| *v += 2);
                            sc.call(|v| *v += 3);
                        });
                    }
                })
            };
            let observed = reserve((&a, &b, &c))
                .when(|a: &i64, b: &i64, c: &i64| a + b + c >= 60)
                .run(|(sa, sb, sc)| sa.query(|v| *v) + sb.query(|v| *v) + sc.query(|v| *v));
            assert_eq!(observed % 6, 0, "level {level}: tuple must be consistent");
            assert!(observed >= 60);
            feeder.join().unwrap();
        }
    }

    #[test]
    fn bounded_retries_and_wall_clock_timeouts_fire() {
        let rt = Runtime::new(RuntimeConfig::all_optimizations());
        let a = rt.spawn_handler(0u32);
        let b = rt.spawn_handler(0u32);
        let c = rt.spawn_handler(0u32);

        let by_attempts = reserve((&a, &b, &c))
            .when(|a: &u32, b: &u32, c: &u32| *a + *b + *c > 0)
            .timeout(WaitConfig::bounded(4))
            .try_run(|_| ());
        assert_eq!(by_attempts, Err(WaitTimeout { attempts: 4 }));

        let by_clock = reserve((&a, &b))
            .when(|a: &u32, b: &u32| *a + *b > 0)
            .timeout(WaitConfig::wall_clock(std::time::Duration::from_millis(15)))
            .try_run(|_| ());
        assert!(by_clock.is_err(), "wall-clock timeout must fire");
        assert!(rt.stats_snapshot().wait_condition_retries >= 4);
    }

    #[test]
    fn slice_wait_condition_sees_all_objects() {
        let rt = Runtime::new(RuntimeConfig::all_optimizations());
        let handlers: Vec<_> = (0..4).map(|_| rt.spawn_handler(0u64)).collect();
        let feeder = {
            let handlers = handlers.clone();
            std::thread::spawn(move || {
                for h in &handlers {
                    h.call_detached(|v| *v += 1);
                }
            })
        };
        let total = reserve(&handlers)
            .when(|objects: &[&u64]| objects.iter().all(|v| **v >= 1))
            .run(|guards| guards.iter_mut().map(|g| g.query(|v| *v)).sum::<u64>());
        assert_eq!(total, 4);
        feeder.join().unwrap();
    }

    #[test]
    #[should_panic(expected = "same handler twice")]
    fn duplicate_handlers_in_a_set_are_rejected() {
        let rt = Runtime::new(RuntimeConfig::all_optimizations());
        let x = rt.spawn_handler(0u8);
        reserve((&x, &x)).run(|_| ());
    }

    #[test]
    fn handlers_from_different_runtimes_can_share_a_set() {
        // Handler ids are per-runtime, so `a` and `b` both carry id 1; the
        // lock order falls back to the core address and the distinct
        // handlers must not be mistaken for duplicates.
        for level in [OptimizationLevel::All, OptimizationLevel::None] {
            let rt1 = Runtime::new(level.config());
            let rt2 = Runtime::new(level.config());
            let a = rt1.spawn_handler(0u64);
            let b = rt2.spawn_handler(0u64);
            assert_eq!(a.id(), b.id(), "precondition: per-runtime ids collide");
            let t1 = {
                let (a, b) = (a.clone(), b.clone());
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        reserve((&a, &b)).run(|(sa, sb)| {
                            sa.call(|v| *v += 1);
                            sb.call(|v| *v += 1);
                        });
                    }
                })
            };
            let t2 = {
                let (a, b) = (a.clone(), b.clone());
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        reserve((&b, &a)).run(|(sb, sa)| {
                            sb.call(|v| *v += 1);
                            sa.call(|v| *v += 1);
                        });
                    }
                })
            };
            t1.join().unwrap();
            t2.join().unwrap();
            assert_eq!(a.query_detached(|v| *v), 400, "level {level}");
            assert_eq!(b.query_detached(|v| *v), 400, "level {level}");
        }
    }

    #[test]
    fn reservation_released_between_retries_lets_others_progress() {
        // If the waiter held its reservation while waiting this would
        // deadlock — completion is evidence the reservation is released
        // between attempts.
        let rt = Runtime::new(RuntimeConfig::all_optimizations());
        let flag = rt.spawn_handler(false);
        let other = rt.spawn_handler(0u8);
        let helper = {
            let flag = flag.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                flag.call_detached(|f| *f = true);
            })
        };
        let observed = reserve((&flag, &other))
            .when(|f: &bool, _: &u8| *f)
            .run(|(sf, _)| sf.query(|f| *f));
        assert!(observed);
        helper.join().unwrap();
    }
}
