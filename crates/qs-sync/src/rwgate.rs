//! Reader–writer gate guarding a handler-owned object.
//!
//! Shared-read reservations let many clients execute queries against one
//! handler's object concurrently.  That is sound only while no command runs:
//! the [`ReadGate`] is the synchronisation point.  Readers (clients holding a
//! read reservation) take the gate in *read* mode; every `&mut` access to the
//! object — the handler main loop applying a batch, or a client-executed
//! query under an exclusive reservation — takes it in *write* mode.
//!
//! The design goals, in order:
//!
//! 1. **Free when unused.** A handler with no read reservations must pay one
//!    uncontended CAS per batch, nothing more — the exclusive-only fast paths
//!    of the runtime must not regress.
//! 2. **Writer preference.** A stream of readers must not starve the handler:
//!    once a writer announces itself, new readers are refused until it has
//!    run, so the reader population can only shrink while a writer waits.
//!    This also makes the deadlock detector's writer-blocked-behind-readers
//!    edges sound: the blocking set never grows.
//! 3. **No blocking inside the gate.** All acquisition entry points are
//!    `try_`-shaped plus an explicit waiter list ([`enlist`](ReadGate::enlist)),
//!    so callers choose how to wait — parking a client thread, or re-arming a
//!    pooled handler through its scheduler hook.
//!
//! The state packs into one `AtomicU64`: bits 0..32 count active readers,
//! bit 32 flags an active writer, bits 33.. count announced (waiting)
//! writers.  A single load classifies the gate; acquisition is a single CAS.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::parker::Parker;
use crate::spinlock::SpinLock;

/// Active-reader count mask (bits 0..32).
const READERS_MASK: u64 = (1 << 32) - 1;
/// Set while a writer holds the gate.
const WRITER_ACTIVE: u64 = 1 << 32;
/// One announced (waiting) writer; the count occupies bits 33 and up.
const WRITER_WAITING_UNIT: u64 = 1 << 33;

/// How a party blocked on the gate wants to be woken.
#[derive(Clone)]
pub enum GateWake {
    /// A client thread parked on this [`Parker`]; wake it.
    Parker(Arc<Parker>),
    /// Arbitrary callback — e.g. re-arm a pooled handler via its scheduler
    /// wake hook.  Must be cheap and must not block.
    Hook(Arc<dyn Fn() + Send + Sync>),
}

impl GateWake {
    fn fire(&self) {
        match self {
            GateWake::Parker(parker) => parker.wake(),
            GateWake::Hook(hook) => hook(),
        }
    }
}

struct GateWaiter {
    writer: bool,
    wake: GateWake,
}

/// A reader-counting, writer-preferring gate over one object.
///
/// See the [module docs](self) for the protocol.  The lost-wake discipline is
/// the usual one: a blocked party *first* [`enlist`](ReadGate::enlist)s its
/// waker, *then* re-tries acquisition; a releasing party *first* publishes
/// the new state (with `Release` ordering), *then* drains and fires the
/// waiter list.  Either the retry sees the new state or the waker sees the
/// enlisted entry.  Wakes may be spurious (the state can be re-taken before
/// the woken party retries); callers loop.
///
/// Entries are one-shot, and *every* release event drains them all — also
/// one that leaves a waiter's own condition false (a writer retracting its
/// announcement while it still holds the gate, the last reader leaving with
/// a writer announced).  So an entry is routinely consumed before its owner
/// has parked, and the owner then parks with nothing enlisted.  That is
/// safe only because a fired waker *sticks*: a [`Parker`] keeps a wake that
/// found nobody parked and ends the next park with it (the owner loops,
/// re-enlists, re-tries), and a hook re-arms a scheduler task that re-tries
/// on its next step.  A waker that could be dropped on the floor would lose
/// the reader behind a writer this way.
pub struct ReadGate {
    state: AtomicU64,
    waiters: SpinLock<Vec<GateWaiter>>,
}

impl Default for ReadGate {
    fn default() -> Self {
        Self::new()
    }
}

impl ReadGate {
    /// Creates an open gate: no readers, no writer.
    pub fn new() -> Self {
        ReadGate {
            state: AtomicU64::new(0),
            waiters: SpinLock::new(Vec::new()),
        }
    }

    /// Tries to take the gate in read mode.  Fails (returning `false`) while
    /// a writer is active *or announced* — writer preference means readers
    /// queue behind any waiting writer.
    pub fn try_read(&self) -> bool {
        let mut current = self.state.load(Ordering::Relaxed);
        loop {
            if current & !READERS_MASK != 0 {
                return false;
            }
            debug_assert!(current & READERS_MASK < READERS_MASK, "reader overflow");
            match self.state.compare_exchange_weak(
                current,
                current + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    // `a` = reader count after this acquisition.
                    qs_obs::trace(
                        qs_obs::TraceKind::ReadAcquire,
                        (current & READERS_MASK) + 1,
                        0,
                    );
                    return true;
                }
                Err(now) => current = now,
            }
        }
    }

    /// Releases one read hold.  The last reader out wakes enlisted waiters
    /// so an announced writer can proceed.
    pub fn end_read(&self) {
        let prev = self.state.fetch_sub(1, Ordering::Release);
        debug_assert!(prev & READERS_MASK > 0, "end_read without a read hold");
        // `a` = reader count after this release.
        qs_obs::trace(qs_obs::TraceKind::ReadRelease, (prev & READERS_MASK) - 1, 0);
        if prev & READERS_MASK == 1 {
            self.wake_waiters();
        }
    }

    /// Tries to take the gate in write mode: succeeds iff no reader and no
    /// other writer is active.  Announced-writer bits do not block this —
    /// any writer may win the CAS, announced or not — so the uncontended
    /// exclusive path stays a single CAS.
    pub fn try_write(&self) -> bool {
        let mut current = self.state.load(Ordering::Relaxed);
        loop {
            if current & (READERS_MASK | WRITER_ACTIVE) != 0 {
                return false;
            }
            match self.state.compare_exchange_weak(
                current,
                current | WRITER_ACTIVE,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => current = now,
            }
        }
    }

    /// Announces a waiting writer: from here until
    /// [`retract_writer`](ReadGate::retract_writer) (or the writer gets in
    /// and [`end_write`](ReadGate::end_write)s after winning), new readers
    /// are refused, so the active-reader set can only shrink.
    pub fn announce_writer(&self) {
        self.state.fetch_add(WRITER_WAITING_UNIT, Ordering::AcqRel);
    }

    /// Withdraws one [`announce_writer`](ReadGate::announce_writer).  Wakes
    /// waiters: readers refused purely because of this announcement can now
    /// get in.
    pub fn retract_writer(&self) {
        let prev = self.state.fetch_sub(WRITER_WAITING_UNIT, Ordering::AcqRel);
        debug_assert!(prev >= WRITER_WAITING_UNIT, "retract without announce");
        self.wake_waiters();
    }

    /// Releases the write hold and wakes all enlisted waiters (readers and
    /// writers alike; whoever retries first wins).
    pub fn end_write(&self) {
        let prev = self.state.fetch_and(!WRITER_ACTIVE, Ordering::Release);
        debug_assert!(prev & WRITER_ACTIVE != 0, "end_write without a write hold");
        self.wake_waiters();
    }

    /// Takes the gate in write mode, spinning/parking the calling thread
    /// until it succeeds.  For paths where blocking the OS thread is fine,
    /// such as a client executing a query on the object.
    pub fn write(&self) {
        if self.try_write() {
            return;
        }
        self.announce_writer();
        let parker = Arc::new(Parker::new());
        loop {
            if self.try_write() {
                break;
            }
            self.enlist(true, GateWake::Parker(Arc::clone(&parker)));
            if self.try_write() {
                break;
            }
            parker.park_until(|| self.writable());
        }
        self.retract_writer();
    }

    /// Registers a waiter to be woken at the next release event.  One-shot:
    /// the entry is consumed (or becomes stale) at the next wake round, so
    /// blocked parties re-enlist on every failed retry.
    pub fn enlist(&self, writer: bool, wake: GateWake) {
        self.waiters.lock().push(GateWaiter { writer, wake });
    }

    fn wake_waiters(&self) {
        let drained = std::mem::take(&mut *self.waiters.lock());
        for waiter in drained {
            let _ = waiter.writer;
            waiter.wake.fire();
        }
    }

    /// Number of active readers right now (racy snapshot).
    pub fn readers(&self) -> u32 {
        (self.state.load(Ordering::Acquire) & READERS_MASK) as u32
    }

    /// `true` if a write acquisition would succeed right now (racy).
    pub fn writable(&self) -> bool {
        self.state.load(Ordering::Acquire) & (READERS_MASK | WRITER_ACTIVE) == 0
    }

    /// `true` while a writer is announced or active — the signal that
    /// readers are (or are about to be) refused (racy snapshot).
    pub fn writer_contended(&self) -> bool {
        self.state.load(Ordering::Acquire) & !READERS_MASK != 0
    }
}

impl std::fmt::Debug for ReadGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.load(Ordering::Relaxed);
        f.debug_struct("ReadGate")
            .field("readers", &(state & READERS_MASK))
            .field("writer_active", &(state & WRITER_ACTIVE != 0))
            .field("writers_waiting", &(state / WRITER_WAITING_UNIT))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn readers_share_writers_exclude() {
        let gate = ReadGate::new();
        assert!(gate.try_read());
        assert!(gate.try_read());
        assert_eq!(gate.readers(), 2);
        assert!(!gate.try_write(), "readers block writers");
        gate.end_read();
        assert!(!gate.try_write());
        gate.end_read();
        assert!(gate.try_write());
        assert!(!gate.try_read(), "active writer blocks readers");
        assert!(!gate.try_write(), "writers are exclusive");
        gate.end_write();
        assert!(gate.try_read());
        gate.end_read();
    }

    #[test]
    fn announced_writer_refuses_new_readers() {
        let gate = ReadGate::new();
        assert!(gate.try_read());
        gate.announce_writer();
        assert!(!gate.try_read(), "writer preference");
        assert!(gate.writer_contended());
        gate.end_read();
        assert!(gate.try_write());
        gate.end_write();
        gate.retract_writer();
        assert!(gate.try_read());
        gate.end_read();
        assert!(!gate.writer_contended());
    }

    #[test]
    fn blocking_write_waits_for_readers() {
        let gate = Arc::new(ReadGate::new());
        assert!(gate.try_read());
        let g2 = Arc::clone(&gate);
        let writer = thread::spawn(move || {
            g2.write();
            let got_it = !g2.writable();
            g2.end_write();
            got_it
        });
        thread::sleep(Duration::from_millis(20));
        gate.end_read();
        assert!(writer.join().unwrap());
    }

    #[test]
    fn hook_waiters_fire_on_release() {
        let gate = ReadGate::new();
        let fired = Arc::new(AtomicUsize::new(0));
        assert!(gate.try_read());
        let counter = Arc::clone(&fired);
        gate.enlist(
            true,
            GateWake::Hook(Arc::new(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            })),
        );
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        gate.end_read();
        assert_eq!(fired.load(Ordering::SeqCst), 1, "last reader out wakes");
        // The list is one-shot: a second release round does not re-fire.
        assert!(gate.try_write());
        gate.end_write();
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn stress_readers_never_overlap_a_writer() {
        let gate = Arc::new(ReadGate::new());
        let in_write = Arc::new(AtomicUsize::new(0));
        let violations = Arc::new(AtomicUsize::new(0));
        let mut threads = Vec::new();
        for _ in 0..4 {
            let gate = Arc::clone(&gate);
            let in_write = Arc::clone(&in_write);
            let violations = Arc::clone(&violations);
            threads.push(thread::spawn(move || {
                for _ in 0..20_000 {
                    if gate.try_read() {
                        if in_write.load(Ordering::SeqCst) != 0 {
                            violations.fetch_add(1, Ordering::SeqCst);
                        }
                        gate.end_read();
                    }
                }
            }));
        }
        for _ in 0..2 {
            let gate = Arc::clone(&gate);
            let in_write = Arc::clone(&in_write);
            let violations = Arc::clone(&violations);
            threads.push(thread::spawn(move || {
                for _ in 0..5_000 {
                    gate.write();
                    if in_write.fetch_add(1, Ordering::SeqCst) != 0 {
                        violations.fetch_add(1, Ordering::SeqCst);
                    }
                    if gate.readers() != 0 {
                        violations.fetch_add(1, Ordering::SeqCst);
                    }
                    in_write.fetch_sub(1, Ordering::SeqCst);
                    gate.end_write();
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(violations.load(Ordering::SeqCst), 0);
        assert!(gate.writable());
    }
}
