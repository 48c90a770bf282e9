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
//!    uncontended CAS to take the gate and one RMW to release it per batch,
//!    nothing more — no lock on either side — so the exclusive-only fast
//!    paths of the runtime do not regress.
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
//! bit 32 flags an active writer, bit 33 flags a non-empty waiter list, and
//! bits 34.. count announced (waiting) writers.  A single load classifies the
//! gate; acquisition is a single CAS.  The waiter bit is what keeps releases
//! lock-free: a release drains the waiter list only when the value its own
//! release RMW returned has the bit set.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::parker::Parker;
use crate::spinlock::SpinLock;

/// Active-reader count mask (bits 0..32).
const READERS_MASK: u64 = (1 << 32) - 1;
/// Set while a writer holds the gate.
const WRITER_ACTIVE: u64 = 1 << 32;
/// Set while the waiter list is non-empty; changed only under its lock.
const WAITERS: u64 = 1 << 33;
/// One announced (waiting) writer; the count occupies bits 34 and up.
const WRITER_WAITING_UNIT: u64 = 1 << 34;
/// Everything that refuses a reader: an active or an announced writer.
const WRITERS_MASK: u64 = !(READERS_MASK | WAITERS);

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

/// A reader-counting, writer-preferring gate over one object.
///
/// See the [module docs](self) for the protocol.  The lost-wake discipline is
/// the usual one: a blocked party *first* [`enlist`](ReadGate::enlist)s its
/// waker, *then* re-tries acquisition; a releasing party publishes the new
/// state with one RMW and drains and fires the waiter list iff that RMW
/// returned the waiter bit.  `enlist` sets the bit with an RMW after its
/// push, and the drain clears it with an RMW before taking the list, both
/// under the list's lock.  RMWs on one word are totally ordered, so either
/// the release comes after the enlist (and sees the bit, or a drain that
/// already took the entry) or before it (and the retry, which reads the
/// word after the enlist's RMW, sees the release).  No fence is needed.
/// Wakes may be spurious (the state can be re-taken before the woken party
/// retries); callers loop.
///
/// Entries are one-shot, and every release event that finds the waiter bit
/// drains them all — also one that leaves a waiter's own condition false (a writer retracting its
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
    waiters: SpinLock<Vec<GateWake>>,
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
            if current & WRITERS_MASK != 0 {
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
            self.wake_if_waiting(prev);
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
        self.wake_if_waiting(prev);
    }

    /// Releases the write hold and wakes all enlisted waiters (readers and
    /// writers alike; whoever retries first wins).  With nobody enlisted
    /// this is one RMW and takes no lock.
    pub fn end_write(&self) {
        let prev = self.state.fetch_and(!WRITER_ACTIVE, Ordering::Release);
        debug_assert!(prev & WRITER_ACTIVE != 0, "end_write without a write hold");
        self.wake_if_waiting(prev);
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
            self.enlist(GateWake::Parker(Arc::clone(&parker)));
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
    pub fn enlist(&self, wake: GateWake) {
        let mut waiters = self.waiters.lock();
        waiters.push(wake);
        self.state.fetch_or(WAITERS, Ordering::AcqRel);
    }

    /// The tail of every release: `prev` is the value the release RMW
    /// returned, so the list is drained only if a waiter had enlisted by
    /// then (see the [type docs](ReadGate) for why that cannot lose one).
    fn wake_if_waiting(&self, prev: u64) {
        if prev & WAITERS != 0 {
            self.wake_waiters();
        }
    }

    #[cold]
    fn wake_waiters(&self) {
        let drained = {
            let mut waiters = self.waiters.lock();
            self.state.fetch_and(!WAITERS, Ordering::AcqRel);
            std::mem::take(&mut *waiters)
        };
        for wake in drained {
            wake.fire();
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
        self.state.load(Ordering::Acquire) & WRITERS_MASK != 0
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
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    /// Rounds per release flavour in the enlist-against-release race.
    const RACE_ROUNDS: usize = 100_000;

    /// How a holder lets go of the gate in one race round.
    #[derive(Clone, Copy)]
    enum Release {
        EndWrite,
        EndRead,
        RetractWriter,
    }

    /// Spins (yielding now and then) until `done` holds.
    fn spin_until(mut done: impl FnMut() -> bool) {
        let mut spins = 0u32;
        while !done() {
            spins += 1;
            if spins.is_multiple_of(64) {
                thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// One party takes the gate and releases it through `release`; the
    /// other blocks on it at the same time — in [`ReadGate::write`], or as a
    /// reader that enlists a parker and re-tries — and must be woken.  The
    /// holder releases a varying number of spins after the waiter starts its
    /// attempt, so releases land all along the waiter's try, enlist, retry
    /// and park.  A round that is not done within the timeout is a lost
    /// wake-up.
    fn race_releases_against_waiters(release: Release) {
        /// `go` value that ends the waiter thread.
        const STOP: usize = usize::MAX;
        let gate = Arc::new(ReadGate::new());
        // Round `r` is announced as `2 * (r + 1) + as_writer`; the waiter
        // acknowledges it by storing `r + 1` in `started`.
        let go = Arc::new(AtomicUsize::new(0));
        let started = Arc::new(AtomicUsize::new(0));
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let waiter = {
            let (gate, go, started) = (Arc::clone(&gate), Arc::clone(&go), Arc::clone(&started));
            thread::spawn(move || {
                let parker = Arc::new(Parker::new());
                for round in 1.. {
                    let mut signal = 0;
                    spin_until(|| {
                        signal = go.load(Ordering::Acquire);
                        signal == STOP || signal >> 1 == round
                    });
                    if signal == STOP {
                        return;
                    }
                    started.store(round, Ordering::Release);
                    if signal & 1 == 1 {
                        gate.write();
                        gate.end_write();
                    } else {
                        loop {
                            if gate.try_read() {
                                break;
                            }
                            gate.enlist(GateWake::Parker(Arc::clone(&parker)));
                            if gate.try_read() {
                                break;
                            }
                            parker.park_until(|| !gate.writer_contended());
                        }
                        gate.end_read();
                    }
                    done_tx.send(()).unwrap();
                }
            })
        };
        for round in 0..RACE_ROUNDS {
            // The waiter that the held gate refuses: a reader never blocks
            // another reader, so a read hold is raced by a writer, and a
            // writer announcement (which refuses readers) by a reader.
            let as_writer = match release {
                Release::EndWrite => {
                    assert!(gate.try_write());
                    round % 2 == 0
                }
                Release::EndRead => {
                    assert!(gate.try_read());
                    true
                }
                Release::RetractWriter => {
                    gate.announce_writer();
                    false
                }
            };
            go.store(2 * (round + 1) + usize::from(as_writer), Ordering::Release);
            spin_until(|| started.load(Ordering::Acquire) == round + 1);
            for _ in 0..round % 97 {
                std::hint::spin_loop();
            }
            match release {
                Release::EndWrite => gate.end_write(),
                Release::EndRead => gate.end_read(),
                Release::RetractWriter => gate.retract_writer(),
            }
            if done_rx.recv_timeout(Duration::from_secs(5)).is_err() {
                panic!("round {round}: the waiter was never woken ({gate:?})");
            }
        }
        go.store(STOP, Ordering::Release);
        waiter.join().unwrap();
        assert!(gate.writable());
        assert!(!gate.writer_contended());
    }

    #[test]
    fn a_waiter_enlisted_against_a_release_is_always_woken() {
        for release in [Release::EndWrite, Release::EndRead, Release::RetractWriter] {
            race_releases_against_waiters(release);
        }
    }

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
        // Release only once the writer has announced itself, so the release
        // always races a blocked writer rather than one not yet started.
        while !gate.writer_contended() {
            thread::yield_now();
        }
        gate.end_read();
        assert!(writer.join().unwrap());
    }

    #[test]
    fn enlisted_waiters_do_not_refuse_readers() {
        let gate = ReadGate::new();
        gate.enlist(GateWake::Hook(Arc::new(|| {})));
        assert!(gate.try_read(), "the waiter bit is not a writer");
        assert!(!gate.writer_contended());
        assert!(
            format!("{gate:?}").contains("writers_waiting: 0"),
            "{gate:?}"
        );
        assert!(!gate.try_write(), "the reader holds the gate");
        gate.end_read();
        assert!(gate.writable());
        assert!(gate.try_write());
        gate.end_write();
    }

    #[test]
    fn hook_waiters_fire_on_release() {
        let gate = ReadGate::new();
        let fired = Arc::new(AtomicUsize::new(0));
        assert!(gate.try_read());
        let counter = Arc::clone(&fired);
        gate.enlist(GateWake::Hook(Arc::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        })));
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
