//! Event-driven wait conditions: per-handler registries of parked guard
//! waiters.
//!
//! "An Efficient Implementation of Guard-Based Synchronization" replaces the
//! classic evaluate-in-a-loop guard with parked waiters that state-changing
//! operations signal.  This module is that mechanism for `reserve().when`:
//!
//! * A client whose wait condition evaluated false registers one
//!   `GuardWaiter` with the [`GuardRegistry`] of **every** handler in its
//!   reservation set — *while the failing reservation is still open*.  While
//!   a condition is being evaluated all of the set's handlers are parked on
//!   the evaluating client's queues, so any state-changing block on those
//!   handlers is serialised after the evaluation; its completion signal
//!   therefore cannot fire before the waiter is registered, which is the
//!   lost-signal-freedom argument.
//! * When a handler processes the **end of a separate block** (the close of
//!   a private queue, or — lock-based — when the reserving client releases
//!   the handler lock), it conservatively signals every registered waiter:
//!   the block may have changed the state a condition depends on.  The woken
//!   client re-reserves and re-evaluates under a fresh reservation, so the
//!   §2.2 "the condition holds under the same reservation as the body"
//!   guarantee is untouched — only the wakeup discipline changed.
//! * The waiter's own evaluation rounds open *probe* reservations
//!   (thread-local flag, below) whose closes are silent — otherwise every
//!   re-evaluation by one waiter would wake all others and N waiters would
//!   livelock in an O(N²) signal storm.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use qs_sync::{Parker, SpinLock};

use crate::stats::RuntimeStats;

/// One client parked on a failed wait condition.  A single `GuardWaiter` is
/// shared by every handler registry of the client's reservation set.
#[derive(Debug, Default)]
pub(crate) struct GuardWaiter {
    /// Parking slot for the waiting client thread.
    pub(crate) parker: Parker,
    /// Set (before waking) by a handler signal; reset by the waiter under an
    /// open reservation, so a signal for a block the waiter has not yet
    /// observed can never be cleared.
    pub(crate) signaled: AtomicBool,
}

/// The parked guard waiters of one handler.
///
/// Not public API — exposed only because [`crate::reserve::ReservationSet`]
/// (a public trait) names it in a `#[doc(hidden)]` method.
#[derive(Debug)]
pub struct GuardRegistry {
    waiters: SpinLock<Vec<Arc<GuardWaiter>>>,
    /// Mirror of `waiters.len()`: lets the handler's hot close-processing
    /// path skip the lock entirely while nobody is waiting.
    count: AtomicUsize,
    stats: Arc<RuntimeStats>,
}

impl GuardRegistry {
    pub(crate) fn new(stats: Arc<RuntimeStats>) -> Self {
        GuardRegistry {
            waiters: SpinLock::new(Vec::new()),
            count: AtomicUsize::new(0),
            stats,
        }
    }

    /// Registers a waiter (idempotent).  Must be called while the waiter
    /// holds an open reservation of this registry's handler — see the module
    /// docs for why that makes signals lost-free.
    pub(crate) fn register(&self, waiter: &Arc<GuardWaiter>) {
        let mut waiters = self.waiters.lock();
        if !waiters.iter().any(|w| Arc::ptr_eq(w, waiter)) {
            waiters.push(Arc::clone(waiter));
            self.count.store(waiters.len(), Ordering::Release);
        }
    }

    /// Removes a waiter; harmless if it was never registered.
    pub(crate) fn deregister(&self, waiter: &Arc<GuardWaiter>) {
        let mut waiters = self.waiters.lock();
        if let Some(index) = waiters.iter().position(|w| Arc::ptr_eq(w, waiter)) {
            waiters.swap_remove(index);
            self.count.store(waiters.len(), Ordering::Release);
        }
    }

    /// Whether any guard waiter is currently registered (lock-free).
    pub(crate) fn has_waiters(&self) -> bool {
        self.count.load(Ordering::Acquire) > 0
    }

    /// Conservatively signals every registered waiter: some handler state
    /// they guard on may have changed.  Counted per waiter in
    /// `guard_signals`.  The no-waiter fast path is a single atomic load.
    pub(crate) fn signal_all(&self) {
        if !self.has_waiters() {
            return;
        }
        // Snapshot under the lock, wake outside it: a woken client may
        // immediately re-evaluate, succeed, and call `deregister` (which
        // takes this lock) before the iteration finishes.
        let snapshot: Vec<Arc<GuardWaiter>> = self.waiters.lock().clone();
        self.stats
            .guard_signals
            .fetch_add(snapshot.len() as u64, Ordering::Relaxed);
        qs_obs::trace(qs_obs::TraceKind::GuardSignal, snapshot.len() as u64, 0);
        for waiter in snapshot {
            waiter.signaled.store(true, Ordering::Release);
            waiter.parker.wake();
        }
    }
}

/// One client's registration across its whole reservation set, removed on
/// drop (i.e. when `try_run` returns, however it returns).
pub(crate) struct ParkedWaiter {
    pub(crate) waiter: Arc<GuardWaiter>,
    registries: Vec<Arc<GuardRegistry>>,
}

impl ParkedWaiter {
    /// Creates the shared waiter and registers it with every registry.
    pub(crate) fn register(registries: &[Arc<GuardRegistry>]) -> ParkedWaiter {
        let waiter = Arc::new(GuardWaiter::default());
        for registry in registries {
            registry.register(&waiter);
        }
        ParkedWaiter {
            waiter,
            registries: registries.to_vec(),
        }
    }
}

impl Drop for ParkedWaiter {
    fn drop(&mut self) {
        for registry in &self.registries {
            registry.deregister(&self.waiter);
        }
    }
}

thread_local! {
    /// True while the wait-condition machinery is opening a *probe*
    /// reservation round (evaluate the condition, maybe run the body).  The
    /// blocks opened under it are marked silent — their closes do not signal
    /// guard waiters — because a failed evaluation changes nothing, and a
    /// successful round signals explicitly from `try_run` once the body has
    /// run and the guards have dropped.
    static PROBE_ROUND: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as opening a probe round until the returned
/// guard drops; restores the previous state, so nesting is safe.
pub(crate) fn enter_probe_round() -> ProbeRoundGuard {
    let previous = PROBE_ROUND.with(|flag| flag.replace(true));
    ProbeRoundGuard { previous }
}

/// Whether the current thread is opening a probe round right now.  Read by
/// `Separate::attach` to decide whether the block's completion should signal
/// guard waiters.
pub(crate) fn in_probe_round() -> bool {
    PROBE_ROUND.with(Cell::get)
}

pub(crate) struct ProbeRoundGuard {
    previous: bool,
}

impl Drop for ProbeRoundGuard {
    fn drop(&mut self) {
        PROBE_ROUND.with(|flag| flag.set(self.previous));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_counts_and_deduplicates_waiters() {
        let registry = GuardRegistry::new(RuntimeStats::new());
        assert!(!registry.has_waiters());
        let waiter = Arc::new(GuardWaiter::default());
        registry.register(&waiter);
        registry.register(&waiter);
        assert!(registry.has_waiters());
        registry.deregister(&waiter);
        assert!(!registry.has_waiters(), "duplicate registration collapsed");
        registry.deregister(&waiter);
    }

    #[test]
    fn signal_all_sets_the_flag_and_counts() {
        let stats = RuntimeStats::new();
        let registry = GuardRegistry::new(Arc::clone(&stats));
        let waiter = Arc::new(GuardWaiter::default());
        registry.register(&waiter);
        registry.signal_all();
        assert!(waiter.signaled.load(Ordering::Acquire));
        assert_eq!(stats.snapshot().guard_signals, 1);
        registry.deregister(&waiter);
        // No waiters: the fast path must not count anything.
        registry.signal_all();
        assert_eq!(stats.snapshot().guard_signals, 1);
    }

    #[test]
    fn parked_waiter_registers_everywhere_and_cleans_up() {
        let stats = RuntimeStats::new();
        let registries = vec![
            Arc::new(GuardRegistry::new(Arc::clone(&stats))),
            Arc::new(GuardRegistry::new(Arc::clone(&stats))),
        ];
        let parked = ParkedWaiter::register(&registries);
        assert!(registries.iter().all(|r| r.has_waiters()));
        drop(parked);
        assert!(registries.iter().all(|r| !r.has_waiters()));
    }

    #[test]
    fn probe_round_flag_nests_and_restores() {
        assert!(!in_probe_round());
        {
            let _outer = enter_probe_round();
            assert!(in_probe_round());
            {
                let _inner = enter_probe_round();
                assert!(in_probe_round());
            }
            assert!(in_probe_round());
        }
        assert!(!in_probe_round());
    }
}
