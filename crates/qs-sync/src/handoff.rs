//! Single-value rendezvous ("direct handoff") between a handler and a client.
//!
//! §3.2 of the paper describes the final query optimisation: "when the
//! handler finishes synchronizing with a client, it will have no more work to
//! do. Therefore control passes directly from the handler to the client [...]
//! avoiding unnecessary context switching."
//!
//! [`Handoff`] captures that interaction as a reusable one-slot channel: the
//! producer (handler) deposits a value and directly unparks the exact
//! consumer thread (client) that is waiting — no queue, no global scheduler,
//! no lock on the fast path.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::Thread;

use crate::Backoff;

const IDLE: u8 = 0;
const WAITING: u8 = 1;
const READY: u8 = 2;
/// Terminal: the producer will never deposit a value (it dropped the
/// request or unwound before completing).  A waiter must not park forever
/// on it — [`Handoff::wait`] surfaces it as a panic.
const ABANDONED: u8 = 3;

/// A reusable one-slot rendezvous channel.
///
/// At most one consumer waits at a time (in the runtime, the private queue's
/// owning client) and at most one producer completes the handoff (the
/// handler).  The pair may be reused for any number of rounds; rounds are
/// numbered so that a late producer from a previous round can never satisfy a
/// later wait.
///
/// ```
/// use qs_sync::Handoff;
/// use std::sync::Arc;
///
/// let h = Arc::new(Handoff::<u64>::new());
/// let h2 = Arc::clone(&h);
/// let producer = std::thread::spawn(move || h2.complete(7));
/// assert_eq!(h.wait(), 7);
/// producer.join().unwrap();
/// ```
pub struct Handoff<T> {
    state: AtomicU8,
    round: AtomicUsize,
    slot: UnsafeCell<MaybeUninit<T>>,
    waiter: Mutex<Option<Thread>>,
}

// SAFETY: the state machine guarantees exclusive access to `slot`: the
// producer writes it only in the IDLE/WAITING -> READY transition and the
// consumer reads it only after observing READY.
unsafe impl<T: Send> Send for Handoff<T> {}
unsafe impl<T: Send> Sync for Handoff<T> {}

impl<T> Default for Handoff<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Handoff<T> {
    /// Creates an empty handoff slot.
    pub fn new() -> Self {
        Handoff {
            state: AtomicU8::new(IDLE),
            round: AtomicUsize::new(0),
            slot: UnsafeCell::new(MaybeUninit::uninit()),
            waiter: Mutex::new(None),
        }
    }

    /// Deposits `value` and wakes the waiting consumer, if any.
    ///
    /// Must be called at most once per round (i.e. per matching
    /// [`wait`](Handoff::wait)); the runtime guarantees this because each
    /// query enqueues exactly one sync token.
    pub fn complete(&self, value: T) {
        // SAFETY: per the round protocol only one producer writes per round
        // and the consumer does not read until READY is published below.
        unsafe { (*self.slot.get()).write(value) };
        let prev = self.state.swap(READY, Ordering::Release);
        if prev == WAITING {
            if let Some(thread) = self.waiter.lock().unwrap().take() {
                thread.unpark();
            }
        }
    }

    /// Returns `true` if a value has been deposited and not yet consumed.
    pub fn is_ready(&self) -> bool {
        self.state.load(Ordering::Acquire) == READY
    }

    /// Returns `true` once the producer [`abandon`](Handoff::abandon)ed the
    /// handoff: no value will ever arrive and [`wait`](Handoff::wait) would
    /// panic.
    pub fn is_abandoned(&self) -> bool {
        self.state.load(Ordering::Acquire) == ABANDONED
    }

    /// Marks the handoff as never-completing and wakes the waiting
    /// consumer, whose [`wait`](Handoff::wait) then panics instead of
    /// parking forever.
    ///
    /// Called by producer-side guards when the request that was supposed to
    /// [`complete`](Handoff::complete) is dropped unexecuted or unwinds
    /// mid-execution (e.g. a deadlock-broken nested push).  A value already
    /// deposited is never overwritten; abandoning twice is harmless.
    pub fn abandon(&self) {
        let mut current = self.state.load(Ordering::Acquire);
        loop {
            if current == READY || current == ABANDONED {
                return;
            }
            match self.state.compare_exchange(
                current,
                ABANDONED,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(previous) => {
                    if previous == WAITING {
                        if let Some(thread) = self.waiter.lock().unwrap().take() {
                            thread.unpark();
                        }
                    }
                    return;
                }
                Err(now) => current = now,
            }
        }
    }

    /// Waits for the producer and takes the deposited value, resetting the
    /// handoff for the next round.
    ///
    /// # Panics
    ///
    /// Panics if the producer [`abandon`](Handoff::abandon)ed the handoff:
    /// the value will never arrive, and surfacing that beats parking the
    /// consumer forever.
    pub fn wait(&self) -> T {
        if !self.wait_settled_or(|| false) || self.is_abandoned() {
            Self::panic_abandoned();
        }
        // SAFETY: READY was observed with acquire ordering, so the write in
        // `complete` happens-before this read, and the protocol gives the
        // consumer exclusive access now.
        let value = unsafe { (*self.slot.get()).assume_init_read() };
        self.round.fetch_add(1, Ordering::Relaxed);
        self.state.store(IDLE, Ordering::Release);
        value
    }

    /// Waits, without taking the value, until it is deposited or the
    /// handoff is abandoned (`true`), or until `interrupted` returns `true`
    /// (`false`).  Spins for one [`Backoff`] window, then parks.  Whoever
    /// makes `interrupted` true must unpark the waiting thread afterwards;
    /// the value, once it arrives, is still taken with
    /// [`wait`](Handoff::wait).
    pub fn wait_settled_or(&self, mut interrupted: impl FnMut() -> bool) -> bool {
        let backoff = Backoff::new();
        loop {
            if matches!(self.state.load(Ordering::Acquire), READY | ABANDONED) {
                return true;
            }
            if interrupted() {
                return false;
            }
            if backoff.is_completed() {
                return self.park_until_settled(interrupted);
            }
            backoff.snooze();
        }
    }

    fn panic_abandoned() -> ! {
        panic!(
            "handoff abandoned: the producer dropped or failed the request before \
             completing it; the awaited value will never arrive"
        );
    }

    /// [`wait`](Handoff::wait) with a park-site instrumentation hook:
    /// `on_block` runs once, just before the consumer commits to blocking,
    /// and whatever it returns is held for the duration of the wait.
    ///
    /// The runtime uses this to register the wait in its deadlock wait-for
    /// registry (the guard removes the edge when dropped); a handoff whose
    /// value is already deposited takes the ready fast path and never calls
    /// the hook, so un-contended query round-trips stay unregistered.
    pub fn wait_instrumented<G>(&self, on_block: impl FnOnce() -> G) -> T {
        if self.is_ready() {
            return self.wait();
        }
        let _blocked = on_block();
        self.wait()
    }

    fn park_until_settled(&self, mut interrupted: impl FnMut() -> bool) -> bool {
        loop {
            {
                let mut waiter = self.waiter.lock().unwrap();
                // CAS so a racing `complete`/`abandon` (which transition
                // without taking the lock) is never overwritten.
                match self.state.compare_exchange(
                    IDLE,
                    WAITING,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) | Err(WAITING) => *waiter = Some(std::thread::current()),
                    Err(_) => return true, // READY or ABANDONED
                }
            }
            loop {
                if interrupted() {
                    return false;
                }
                std::thread::park();
                match self.state.load(Ordering::Acquire) {
                    READY | ABANDONED => return true,
                    WAITING => continue, // spurious wake-up or interrupt
                    _ => break,          // retry registration
                }
            }
        }
    }

    /// Returns the number of completed rounds (mainly for statistics).
    pub fn rounds(&self) -> usize {
        self.round.load(Ordering::Relaxed)
    }
}

impl<T> Drop for Handoff<T> {
    fn drop(&mut self) {
        // A value that was deposited but never consumed must still be dropped.
        if *self.state.get_mut() == READY {
            // SAFETY: READY means the slot holds an initialised value and no
            // consumer will read it (we have `&mut self`).
            unsafe { (*self.slot.get()).assume_init_drop() };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn complete_then_wait() {
        let h = Handoff::new();
        h.complete(42u32);
        assert!(h.is_ready());
        assert_eq!(h.wait(), 42);
        assert!(!h.is_ready());
        assert_eq!(h.rounds(), 1);
    }

    #[test]
    fn an_interrupted_wait_returns_and_the_value_still_arrives() {
        // The waiter checks its interrupt (not yet raised), is unparked by
        // it and returns `false`; the value deposited after that is still
        // taken by its `wait`.
        let h = Arc::new(Handoff::<u32>::new());
        let interrupt = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let (checked_tx, checked) = std::sync::mpsc::channel();
        let (returned_tx, returned) = std::sync::mpsc::channel();
        let waiter = {
            let (h, interrupt) = (Arc::clone(&h), Arc::clone(&interrupt));
            thread::spawn(move || {
                let settled = h.wait_settled_or(|| {
                    let _ = checked_tx.send(());
                    interrupt.load(Ordering::SeqCst)
                });
                returned_tx.send(settled).unwrap();
                h.wait()
            })
        };
        checked.recv().expect("the waiter checks its interrupt");
        interrupt.store(true, Ordering::SeqCst);
        waiter.thread().unpark();
        assert!(!returned.recv().unwrap(), "interrupted, not settled");
        h.complete(9);
        assert_eq!(waiter.join().unwrap(), 9);
    }

    #[test]
    fn wait_blocks_for_producer() {
        let h = Arc::new(Handoff::<String>::new());
        let h2 = Arc::clone(&h);
        let producer = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            h2.complete("hello".to_string());
        });
        assert_eq!(h.wait(), "hello");
        producer.join().unwrap();
    }

    #[test]
    fn reusable_for_many_rounds() {
        let h = Arc::new(Handoff::<usize>::new());
        let h2 = Arc::clone(&h);
        let rounds = 10_000;
        let producer = thread::spawn(move || {
            for i in 0..rounds {
                // Wait for the slot to be free before the next round.
                while h2.is_ready() {
                    std::hint::spin_loop();
                }
                h2.complete(i);
            }
        });
        for i in 0..rounds {
            assert_eq!(h.wait(), i);
        }
        producer.join().unwrap();
        assert_eq!(h.rounds(), rounds);
    }

    #[test]
    fn abandonment_wakes_and_panics_the_waiter_instead_of_hanging() {
        // A parked waiter is released by `abandon` and panics.
        let h = Arc::new(Handoff::<u32>::new());
        let h2 = Arc::clone(&h);
        let waiter = thread::spawn(move || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h2.wait()))
        });
        thread::sleep(Duration::from_millis(30));
        assert!(!h.is_abandoned());
        h.abandon();
        let result = waiter.join().unwrap();
        assert!(result.is_err(), "abandoned wait must panic, not hang");
        assert!(h.is_abandoned());
        assert!(!h.is_ready());
        // Abandoning twice is harmless; a fresh wait panics immediately.
        h.abandon();
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.wait())).is_err());

        // A deposited value is never overwritten by a late abandon.
        let h = Handoff::new();
        h.complete(9u32);
        h.abandon();
        assert!(h.is_ready());
        assert_eq!(h.wait(), 9);
    }

    #[test]
    fn wait_instrumented_skips_the_hook_when_ready() {
        use std::sync::atomic::AtomicUsize;
        let h = Handoff::new();
        h.complete(5u32);
        let calls = AtomicUsize::new(0);
        let value = h.wait_instrumented(|| {
            calls.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(value, 5);
        assert_eq!(calls.load(Ordering::SeqCst), 0, "ready fast path");

        // A genuinely blocking wait runs the hook exactly once, before
        // blocking, and drops its guard after the value arrives.
        let h = Arc::new(Handoff::<u32>::new());
        let h2 = Arc::clone(&h);
        let producer = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            h2.complete(7);
        });
        struct Guard(Arc<AtomicUsize>);
        impl Drop for Guard {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let value = h.wait_instrumented(|| Guard(Arc::clone(&drops)));
        assert_eq!(value, 7);
        assert_eq!(drops.load(Ordering::SeqCst), 1, "guard released after wait");
        producer.join().unwrap();
    }

    #[test]
    fn unconsumed_value_is_dropped() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let h = Handoff::new();
            h.complete(D);
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn values_are_not_dropped_twice() {
        let h = Handoff::new();
        h.complete(Box::new(7));
        let b = h.wait();
        assert_eq!(*b, 7);
        drop(h); // must not double-drop the already-taken box
    }
}
