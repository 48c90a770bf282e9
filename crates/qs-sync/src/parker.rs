//! A one-thread parking slot: one state word, the shape of std's own
//! thread parker.
//!
//! Every blocking path in the workspace that is not a [`crate::Handoff`]
//! (a bounded producer waiting for space, a guard waiter, a reader or writer
//! behind the object gate) parks here.  The protocol is the three-state word `EMPTY / PARKED /
//! NOTIFIED`, and both sides move it with read-modify-write operations only,
//! so they are totally ordered: either the waker's swap observes `PARKED`
//! (and unparks), or the waiter's `EMPTY -> PARKED` exchange observes
//! `NOTIFIED` (and does not park).  There is no second word to update in a
//! second step, which is what used to lose wake-ups.

use std::sync::atomic::{AtomicU8, Ordering};
use std::thread::Thread;
use std::time::Instant;

use crate::SpinLock;

/// Nobody is parked and no wake is pending.
const EMPTY: u8 = 0;
/// A waiter published itself and has not been woken since.
const PARKED: u8 = 1;
/// A wake arrived: the parked waiter returns, or — when nobody was parked —
/// the next park returns at once.
const NOTIFIED: u8 = 2;

/// A parking slot for a single waiting thread.
///
/// The waiter calls [`park_until`](Parker::park_until) with the condition it
/// is waiting for; any other thread calls [`wake`](Parker::wake) after
/// making that condition true.
///
/// A wake is never lost and never removes anything.  With nobody parked it
/// stays pending and ends the next park immediately; with a waiter parked
/// it unparks whichever thread the slot names *at that moment*.  If the
/// waiter it claimed has already returned and another registration took its
/// place, that is a spurious unpark of the newcomer — whose own `PARKED`
/// word is still there for the next `wake` to claim.  Either way the cost
/// of a stale wake is one early return, which every park loop absorbs by
/// re-checking.
#[derive(Debug, Default)]
pub struct Parker {
    state: AtomicU8,
    /// The thread to unpark; written by the waiter before it publishes
    /// `PARKED`, only ever read by wakers.
    thread: SpinLock<Option<Thread>>,
}

impl Parker {
    /// Creates an empty parking slot.
    pub fn new() -> Self {
        Parker::default()
    }

    /// Blocks the current thread until `condition` returns `true` or a
    /// [`wake`](Parker::wake) arrives — including one that arrived since the
    /// slot was last parked on.  Callers re-check in their outer retry
    /// loop, so an early return costs one extra iteration, never a missed
    /// state change.  Spurious returns of the underlying `thread::park` are
    /// absorbed.
    pub fn park_until(&self, condition: impl FnMut() -> bool) {
        self.park(condition, None);
    }

    /// [`park_until`](Parker::park_until) with a deadline: gives up once
    /// `Instant::now() >= deadline` even if neither the condition nor a wake
    /// arrived.  Returns the last observation of `condition` — `true` when
    /// the awaited state was seen, `false` on a timeout or on a wake that
    /// found the condition still false; callers re-check in their outer
    /// loop either way.
    pub fn park_until_deadline(&self, condition: impl FnMut() -> bool, deadline: Instant) -> bool {
        self.park(condition, Some(deadline))
    }

    fn park(&self, mut condition: impl FnMut() -> bool, deadline: Option<Instant>) -> bool {
        *self.thread.lock() = Some(std::thread::current());
        let published = self
            .state
            .compare_exchange(EMPTY, PARKED, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        let observed = loop {
            if condition() {
                break true;
            }
            // Not published: a wake was already pending.  Otherwise a waker
            // has claimed the publication since.
            if !published || self.state.load(Ordering::Acquire) == NOTIFIED {
                break false;
            }
            match deadline {
                None => std::thread::park(),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        break false;
                    }
                    std::thread::park_timeout(deadline - now);
                }
            }
        };
        // Consume the wake (or withdraw the publication).  A swap, not a
        // store: it reads the latest wake and so orders everything that
        // waker published before whatever the caller looks at next.
        self.state.swap(EMPTY, Ordering::SeqCst);
        observed
    }

    /// Wakes the parked thread, or leaves the wake pending for the next
    /// park.  Call *after* publishing the state change the waiter is
    /// waiting for.
    pub fn wake(&self) {
        if self.state.swap(NOTIFIED, Ordering::SeqCst) == PARKED {
            // Clone, never take: the slot may already name a later
            // registration, which this waker did not observe and must not
            // remove.
            let thread = self.thread.lock().clone();
            if let Some(thread) = thread {
                thread.unpark();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn condition_true_up_front_never_parks() {
        let parker = Parker::new();
        parker.park_until(|| true);
    }

    #[test]
    fn wake_releases_a_parked_thread() {
        let parker = Arc::new(Parker::new());
        let flag = Arc::new(AtomicBool::new(false));
        let waiter = {
            let (parker, flag) = (Arc::clone(&parker), Arc::clone(&flag));
            thread::spawn(move || parker.park_until(|| flag.load(Ordering::Acquire)))
        };
        thread::sleep(Duration::from_millis(30));
        flag.store(true, Ordering::Release);
        parker.wake();
        waiter.join().unwrap();
    }

    #[test]
    fn wake_without_waiter_ends_the_next_park_once() {
        let parker = Parker::new();
        parker.wake();
        // The pending wake returns this park although nothing holds...
        parker.park_until(|| false);
        // ...and is consumed by it: the next one runs to its deadline.
        let deadline = std::time::Instant::now() + Duration::from_millis(20);
        assert!(!parker.park_until_deadline(|| false, deadline));
        assert!(std::time::Instant::now() >= deadline);
    }

    #[test]
    fn deadline_park_times_out_without_a_wake() {
        let parker = Parker::new();
        let deadline = std::time::Instant::now() + Duration::from_millis(40);
        let started = std::time::Instant::now();
        let observed = parker.park_until_deadline(|| false, deadline);
        assert!(!observed, "nothing ever made the condition true");
        assert!(started.elapsed() >= Duration::from_millis(40));
        // The slot is fully unregistered: a later plain park still works.
        parker.park_until(|| true);
    }

    #[test]
    fn deadline_park_returns_promptly_on_wake() {
        let parker = Arc::new(Parker::new());
        let flag = Arc::new(AtomicBool::new(false));
        let waiter = {
            let (parker, flag) = (Arc::clone(&parker), Arc::clone(&flag));
            thread::spawn(move || {
                let deadline = std::time::Instant::now() + Duration::from_secs(30);
                parker.park_until_deadline(|| flag.load(Ordering::Acquire), deadline)
            })
        };
        thread::sleep(Duration::from_millis(30));
        flag.store(true, Ordering::Release);
        parker.wake();
        assert!(waiter.join().unwrap(), "wake must deliver the condition");
    }

    #[test]
    fn deadline_park_with_condition_already_true_never_blocks() {
        let parker = Parker::new();
        // A deadline in the past still observes a true condition.
        let deadline = std::time::Instant::now() - Duration::from_millis(1);
        assert!(parker.park_until_deadline(|| true, deadline));
    }

    #[test]
    fn repeated_rounds_lose_no_wakeups() {
        let parker = Arc::new(Parker::new());
        let turn = Arc::new(AtomicUsize::new(0));
        let rounds = 10_000;
        let waker = {
            let (parker, turn) = (Arc::clone(&parker), Arc::clone(&turn));
            thread::spawn(move || {
                for round in 0..rounds {
                    while turn.load(Ordering::Acquire) != round {
                        std::hint::spin_loop();
                    }
                    turn.store(round + 1, Ordering::Release);
                    parker.wake();
                }
            })
        };
        for round in 0..rounds {
            parker.park_until(|| turn.load(Ordering::Acquire) > round);
        }
        waker.join().unwrap();
    }
}
