//! Runtime statistics.
//!
//! §7 of the paper calls for "a SCOOP-specific instrumentation for the
//! runtime, providing detailed measurements for the internal components".
//! The counters here are cheap relaxed atomics and are used by the
//! experiment harness to report, e.g., how many sync round-trips each
//! optimisation level eliminates (the mechanism behind Fig. 16).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of batch-size histogram buckets; bucket `i` counts drained batches
/// whose size falls in [`batch_bucket_range`]`(i)`.
pub const BATCH_SIZE_BUCKETS: usize = 7;

/// The inclusive `(lo, hi)` batch-size range of histogram bucket `index`
/// (`hi = u64::MAX` for the open-ended last bucket): 1, 2, 3–4, 5–8, 9–16,
/// 17–32, 33+.
pub fn batch_bucket_range(index: usize) -> (u64, u64) {
    match index {
        0 => (1, 1),
        1 => (2, 2),
        2 => (3, 4),
        3 => (5, 8),
        4 => (9, 16),
        5 => (17, 32),
        _ => (33, u64::MAX),
    }
}

fn batch_bucket_index(size: usize) -> usize {
    match size {
        0..=1 => 0,
        2 => 1,
        3..=4 => 2,
        5..=8 => 3,
        9..=16 => 4,
        17..=32 => 5,
        _ => 6,
    }
}

/// Shared, monotonically increasing counters describing runtime activity.
#[derive(Debug, Default)]
pub struct RuntimeStats {
    /// Asynchronous calls enqueued on private queues / request queues.
    pub calls_enqueued: AtomicU64,
    /// Queries executed on the client after a sync (§3.2 optimisation), or
    /// under a shared-read reservation.  Each reservation guard counts its
    /// own and adds them here when it is released (also on unwind), so a
    /// block's queries show up once the block has ended.
    pub queries_client_executed: AtomicU64,
    /// Queries packaged, sent to and executed by the handler.
    pub queries_handler_executed: AtomicU64,
    /// Asynchronous (pipelined) queries logged via `query_async`.
    pub queries_pipelined: AtomicU64,
    /// Sync round-trips actually performed (client blocked on the handler).
    pub syncs_performed: AtomicU64,
    /// Sync operations elided by dynamic or static coalescing.  Counted
    /// like `queries_client_executed`: added when the block's guard is
    /// released.
    pub syncs_elided: AtomicU64,
    /// Separate blocks entered (single reservations).
    pub separate_blocks: AtomicU64,
    /// Multi-handler reservations performed.
    pub multi_reservations: AtomicU64,
    /// Private queues enqueued into queue-of-queues.
    pub private_queues_enqueued: AtomicU64,
    /// Handlers spawned.
    pub handlers_spawned: AtomicU64,
    /// Calls whose execution panicked on the handler.
    pub call_panics: AtomicU64,
    /// Wait-condition evaluations performed at reservation time (§2 contracts).
    pub wait_condition_checks: AtomicU64,
    /// Reservations retried because their wait condition did not (yet) hold.
    pub wait_condition_retries: AtomicU64,
    /// Guard signals delivered to parked wait-condition waiters (one per
    /// waiter per signalling event; conservative, so a signal does not imply
    /// the condition now holds).
    pub guard_signals: AtomicU64,
    /// Parked wait-condition waiters woken by a guard signal into a
    /// re-evaluation.  `guard_signals - guard_wakeups` is the portion of
    /// conservative signalling that found the waiter already awake (spurious
    /// from the parking perspective); wakeups not followed by a successful
    /// round show up as `wait_condition_retries`.
    pub guard_wakeups: AtomicU64,
    /// Postcondition checks evaluated.
    pub postcondition_checks: AtomicU64,
    /// Postcondition checks that failed.
    pub postcondition_failures: AtomicU64,
    /// Batches drained from mailboxes by handler main loops.
    pub batches_drained: AtomicU64,
    /// Requests delivered inside drained batches.
    pub batch_requests_drained: AtomicU64,
    /// Requests (calls and handler-executed/pipelined queries) actually
    /// applied to a handler-owned object.
    pub requests_executed: AtomicU64,
    /// Enqueues that had to wait for mailbox space (bounded mailboxes only).
    pub backpressure_stalls: AtomicU64,
    /// Non-blocking `try_call`s rejected because the bounded mailbox was
    /// full.
    pub backpressure_rejections: AtomicU64,
    /// Pooled scheduling: handlers handed to the worker pool — an
    /// idle→scheduled transition (a producer's wake hook re-armed a parked
    /// handler) that found no parked driver, a client's own step of the
    /// handler that ended by handing it on, or a parked driver passing on a
    /// handler it was handed after its sync had completed.  A hand-over to
    /// a parked driver counts in `driver_wakes` instead.
    pub handler_wakeups: AtomicU64,
    /// Pooled scheduling: handlers a wake handed to a client parked in a
    /// sync on them (the handler's parked driver) instead of the pool; that
    /// client steps the handler on its own thread.
    pub driver_wakes: AtomicU64,
    /// Pooled scheduling: steps that exhausted their request budget and
    /// yielded the worker with work still pending.
    pub handler_yields: AtomicU64,
    /// Pooled scheduling: producer wakes that carried
    /// `WakeReason::Pressure` (a push crossed a bounded mailbox's half-full
    /// watermark or blocked for space), routing the handler through the
    /// scheduler's priority lane.
    pub pressure_wakes: AtomicU64,
    /// Pooled scheduling: yield budgets shrunk to one batch because the
    /// handler's mailbox reported backpressure.
    pub budget_shrinks: AtomicU64,
    /// Wait-for cycles confirmed by the deadlock detector (one per distinct
    /// cycle; requires `DeadlockPolicy::Report` or `Break`).
    pub deadlocks_detected: AtomicU64,
    /// Blocked bounded pushes failed by `DeadlockPolicy::Break` to unwind a
    /// confirmed cycle.
    pub deadlocks_broken: AtomicU64,
    /// Shared-read reservations acquired (`reserve(&h).read()` and
    /// read-marked members of tuple/slice sets).
    pub read_reservations: AtomicU64,
    /// High-water mark of concurrent read holds observed on any single
    /// handler's gate (a level, not a count — `since()` keeps the later
    /// snapshot's value).
    pub peak_concurrent_readers: AtomicU64,
    /// Handler main-loop steps that found their object's gate held by
    /// readers and had to wait (announcing writer preference) before
    /// applying a drained batch.
    pub writer_waits: AtomicU64,
    /// Histogram of drained batch sizes; see [`batch_bucket_range`].
    pub batch_size_buckets: [AtomicU64; BATCH_SIZE_BUCKETS],
}

impl RuntimeStats {
    /// Creates a zeroed statistics block.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Increment helper used throughout the runtime.
    #[inline]
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` to a counter; adding nothing touches no shared cache line.
    #[inline]
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        if n != 0 {
            counter.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Raises a high-water-mark counter to `value` if it is below it.
    #[inline]
    pub(crate) fn bump_max(counter: &AtomicU64, value: u64) {
        counter.fetch_max(value, Ordering::Relaxed);
    }

    /// Records one drained batch of `size` requests.
    #[inline]
    pub(crate) fn record_batch(&self, size: usize) {
        self.batches_drained.fetch_add(1, Ordering::Relaxed);
        self.batch_requests_drained
            .fetch_add(size as u64, Ordering::Relaxed);
        self.batch_size_buckets[batch_bucket_index(size)].fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a point-in-time snapshot of all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            calls_enqueued: self.calls_enqueued.load(Ordering::Relaxed),
            queries_client_executed: self.queries_client_executed.load(Ordering::Relaxed),
            queries_handler_executed: self.queries_handler_executed.load(Ordering::Relaxed),
            queries_pipelined: self.queries_pipelined.load(Ordering::Relaxed),
            syncs_performed: self.syncs_performed.load(Ordering::Relaxed),
            syncs_elided: self.syncs_elided.load(Ordering::Relaxed),
            separate_blocks: self.separate_blocks.load(Ordering::Relaxed),
            multi_reservations: self.multi_reservations.load(Ordering::Relaxed),
            private_queues_enqueued: self.private_queues_enqueued.load(Ordering::Relaxed),
            handlers_spawned: self.handlers_spawned.load(Ordering::Relaxed),
            call_panics: self.call_panics.load(Ordering::Relaxed),
            wait_condition_checks: self.wait_condition_checks.load(Ordering::Relaxed),
            wait_condition_retries: self.wait_condition_retries.load(Ordering::Relaxed),
            guard_signals: self.guard_signals.load(Ordering::Relaxed),
            guard_wakeups: self.guard_wakeups.load(Ordering::Relaxed),
            postcondition_checks: self.postcondition_checks.load(Ordering::Relaxed),
            postcondition_failures: self.postcondition_failures.load(Ordering::Relaxed),
            batches_drained: self.batches_drained.load(Ordering::Relaxed),
            batch_requests_drained: self.batch_requests_drained.load(Ordering::Relaxed),
            requests_executed: self.requests_executed.load(Ordering::Relaxed),
            backpressure_stalls: self.backpressure_stalls.load(Ordering::Relaxed),
            backpressure_rejections: self.backpressure_rejections.load(Ordering::Relaxed),
            handler_wakeups: self.handler_wakeups.load(Ordering::Relaxed),
            driver_wakes: self.driver_wakes.load(Ordering::Relaxed),
            handler_yields: self.handler_yields.load(Ordering::Relaxed),
            pressure_wakes: self.pressure_wakes.load(Ordering::Relaxed),
            budget_shrinks: self.budget_shrinks.load(Ordering::Relaxed),
            deadlocks_detected: self.deadlocks_detected.load(Ordering::Relaxed),
            deadlocks_broken: self.deadlocks_broken.load(Ordering::Relaxed),
            read_reservations: self.read_reservations.load(Ordering::Relaxed),
            peak_concurrent_readers: self.peak_concurrent_readers.load(Ordering::Relaxed),
            writer_waits: self.writer_waits.load(Ordering::Relaxed),
            scheduler_steals: 0,
            monitor_scans: 0,
            batch_size_buckets: std::array::from_fn(|i| {
                self.batch_size_buckets[i].load(Ordering::Relaxed)
            }),
        }
    }
}

/// A plain-data copy of [`RuntimeStats`] at a point in time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Asynchronous calls enqueued.
    pub calls_enqueued: u64,
    /// Queries executed client-side.
    pub queries_client_executed: u64,
    /// Queries executed handler-side.
    pub queries_handler_executed: u64,
    /// Pipelined queries logged without blocking (`query_async`).
    pub queries_pipelined: u64,
    /// Sync round-trips performed.
    pub syncs_performed: u64,
    /// Syncs elided by coalescing.
    pub syncs_elided: u64,
    /// Separate blocks entered.
    pub separate_blocks: u64,
    /// Multi-handler reservations.
    pub multi_reservations: u64,
    /// Private queues enqueued into queue-of-queues.
    pub private_queues_enqueued: u64,
    /// Handlers spawned.
    pub handlers_spawned: u64,
    /// Panicking calls.
    pub call_panics: u64,
    /// Wait-condition evaluations performed at reservation time.
    pub wait_condition_checks: u64,
    /// Reservations retried because their wait condition did not hold.
    pub wait_condition_retries: u64,
    /// Guard signals delivered to parked wait-condition waiters (per waiter
    /// per signalling event; conservative).
    pub guard_signals: u64,
    /// Parked wait-condition waiters woken by a guard signal into a
    /// re-evaluation.
    pub guard_wakeups: u64,
    /// Postcondition checks evaluated.
    pub postcondition_checks: u64,
    /// Postcondition checks that failed.
    pub postcondition_failures: u64,
    /// Batches drained from mailboxes by handler main loops.
    pub batches_drained: u64,
    /// Requests delivered inside drained batches.
    pub batch_requests_drained: u64,
    /// Requests (calls and handler-executed/pipelined queries) applied to a
    /// handler-owned object.
    pub requests_executed: u64,
    /// Enqueues that had to wait for mailbox space (bounded mailboxes only).
    pub backpressure_stalls: u64,
    /// Non-blocking `try_call`s rejected on a full bounded mailbox.
    pub backpressure_rejections: u64,
    /// Pooled scheduling: handlers handed to the worker pool (see
    /// [`RuntimeStats::handler_wakeups`]).
    pub handler_wakeups: u64,
    /// Pooled scheduling: handlers handed to a client parked in a sync on
    /// them instead of the pool (see [`RuntimeStats::driver_wakes`]).
    pub driver_wakes: u64,
    /// Pooled scheduling: steps that yielded on an exhausted budget.
    pub handler_yields: u64,
    /// Pooled scheduling: pressure wakes fired by bounded-mailbox producers
    /// at or past the half-full watermark (or blocking for space).
    pub pressure_wakes: u64,
    /// Pooled scheduling: yield budgets shrunk under mailbox backpressure.
    pub budget_shrinks: u64,
    /// Wait-for cycles confirmed by the deadlock detector.
    pub deadlocks_detected: u64,
    /// Blocked bounded pushes failed by `DeadlockPolicy::Break`.
    pub deadlocks_broken: u64,
    /// Shared-read reservations acquired.
    pub read_reservations: u64,
    /// High-water mark of concurrent read holds on any one handler's gate.
    /// A level, not a count: [`since`](StatsSnapshot::since) keeps the later
    /// snapshot's value instead of subtracting.
    pub peak_concurrent_readers: u64,
    /// Handler steps that had to wait for readers before applying a batch.
    pub writer_waits: u64,
    /// Always 0: the handler pool has one run queue, so no worker steals
    /// from another.  Kept while the benchmark still reports it as
    /// `exec.steals_per_kop`; goes when that row does.
    pub scheduler_steals: u64,
    /// Full cycle-detection scans the deadlock monitor has run (adaptive
    /// tick; skipped idle ticks not included).  Tracked by the monitor,
    /// merged in by [`crate::Runtime::stats_snapshot`]; zero in a snapshot
    /// taken directly from [`RuntimeStats`].
    pub monitor_scans: u64,
    /// Histogram of drained batch sizes; see [`batch_bucket_range`].
    pub batch_size_buckets: [u64; BATCH_SIZE_BUCKETS],
}

impl StatsSnapshot {
    /// Total number of queries, independent of where they executed.
    pub fn total_queries(&self) -> u64 {
        self.queries_client_executed + self.queries_handler_executed + self.queries_pipelined
    }

    /// Mean number of requests per drained batch (0.0 before any batch).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches_drained == 0 {
            0.0
        } else {
            self.batch_requests_drained as f64 / self.batches_drained as f64
        }
    }

    /// Fraction of sync operations that were elided (0.0 if none occurred).
    pub fn sync_elision_ratio(&self) -> f64 {
        let total = self.syncs_performed + self.syncs_elided;
        if total == 0 {
            0.0
        } else {
            self.syncs_elided as f64 / total as f64
        }
    }

    /// Difference between two snapshots (self - earlier), saturating at zero.
    ///
    /// Every field is a monotone **counter** and subtracts — except
    /// `peak_concurrent_readers`, which is a **gauge** (a high-water level):
    /// subtracting two levels is meaningless (a peak of 7 before and 7 after
    /// does not mean "0 readers in between"), so the interval keeps the later
    /// snapshot's level.  Callers that want the peak *within* an interval
    /// must reset the underlying counter instead.
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            calls_enqueued: self.calls_enqueued.saturating_sub(earlier.calls_enqueued),
            queries_client_executed: self
                .queries_client_executed
                .saturating_sub(earlier.queries_client_executed),
            queries_handler_executed: self
                .queries_handler_executed
                .saturating_sub(earlier.queries_handler_executed),
            queries_pipelined: self
                .queries_pipelined
                .saturating_sub(earlier.queries_pipelined),
            syncs_performed: self.syncs_performed.saturating_sub(earlier.syncs_performed),
            syncs_elided: self.syncs_elided.saturating_sub(earlier.syncs_elided),
            separate_blocks: self.separate_blocks.saturating_sub(earlier.separate_blocks),
            multi_reservations: self
                .multi_reservations
                .saturating_sub(earlier.multi_reservations),
            private_queues_enqueued: self
                .private_queues_enqueued
                .saturating_sub(earlier.private_queues_enqueued),
            handlers_spawned: self
                .handlers_spawned
                .saturating_sub(earlier.handlers_spawned),
            call_panics: self.call_panics.saturating_sub(earlier.call_panics),
            wait_condition_checks: self
                .wait_condition_checks
                .saturating_sub(earlier.wait_condition_checks),
            wait_condition_retries: self
                .wait_condition_retries
                .saturating_sub(earlier.wait_condition_retries),
            guard_signals: self.guard_signals.saturating_sub(earlier.guard_signals),
            guard_wakeups: self.guard_wakeups.saturating_sub(earlier.guard_wakeups),
            postcondition_checks: self
                .postcondition_checks
                .saturating_sub(earlier.postcondition_checks),
            postcondition_failures: self
                .postcondition_failures
                .saturating_sub(earlier.postcondition_failures),
            batches_drained: self.batches_drained.saturating_sub(earlier.batches_drained),
            batch_requests_drained: self
                .batch_requests_drained
                .saturating_sub(earlier.batch_requests_drained),
            requests_executed: self
                .requests_executed
                .saturating_sub(earlier.requests_executed),
            backpressure_stalls: self
                .backpressure_stalls
                .saturating_sub(earlier.backpressure_stalls),
            backpressure_rejections: self
                .backpressure_rejections
                .saturating_sub(earlier.backpressure_rejections),
            handler_wakeups: self.handler_wakeups.saturating_sub(earlier.handler_wakeups),
            driver_wakes: self.driver_wakes.saturating_sub(earlier.driver_wakes),
            handler_yields: self.handler_yields.saturating_sub(earlier.handler_yields),
            pressure_wakes: self.pressure_wakes.saturating_sub(earlier.pressure_wakes),
            budget_shrinks: self.budget_shrinks.saturating_sub(earlier.budget_shrinks),
            deadlocks_detected: self
                .deadlocks_detected
                .saturating_sub(earlier.deadlocks_detected),
            deadlocks_broken: self
                .deadlocks_broken
                .saturating_sub(earlier.deadlocks_broken),
            read_reservations: self
                .read_reservations
                .saturating_sub(earlier.read_reservations),
            // A high-water mark, not a monotone count: the difference of two
            // peaks is meaningless, so the interval keeps the later level.
            peak_concurrent_readers: self.peak_concurrent_readers,
            writer_waits: self.writer_waits.saturating_sub(earlier.writer_waits),
            scheduler_steals: self
                .scheduler_steals
                .saturating_sub(earlier.scheduler_steals),
            monitor_scans: self.monitor_scans.saturating_sub(earlier.monitor_scans),
            batch_size_buckets: std::array::from_fn(|i| {
                self.batch_size_buckets[i].saturating_sub(earlier.batch_size_buckets[i])
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let stats = RuntimeStats::new();
        RuntimeStats::bump(&stats.calls_enqueued);
        RuntimeStats::bump(&stats.calls_enqueued);
        RuntimeStats::bump(&stats.syncs_performed);
        let snap = stats.snapshot();
        assert_eq!(snap.calls_enqueued, 2);
        assert_eq!(snap.syncs_performed, 1);
        assert_eq!(snap.total_queries(), 0);
    }

    #[test]
    fn elision_ratio_handles_zero() {
        assert_eq!(StatsSnapshot::default().sync_elision_ratio(), 0.0);
        let snap = StatsSnapshot {
            syncs_performed: 1,
            syncs_elided: 3,
            ..Default::default()
        };
        assert!((snap.sync_elision_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn batch_histogram_buckets_cover_all_sizes() {
        let stats = RuntimeStats::new();
        for size in [1usize, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 1000] {
            stats.record_batch(size);
        }
        let snap = stats.snapshot();
        assert_eq!(snap.batches_drained, 12);
        assert_eq!(snap.batch_size_buckets, [1, 1, 2, 2, 2, 2, 2]);
        assert_eq!(
            snap.batch_requests_drained,
            1 + 2 + 3 + 4 + 5 + 8 + 9 + 16 + 17 + 32 + 33 + 1000
        );
        assert!(snap.mean_batch_size() > 1.0);
        // Bucket ranges partition [1, ∞): each upper bound + 1 is the next
        // lower bound.
        for i in 0..BATCH_SIZE_BUCKETS - 1 {
            let (_, hi) = batch_bucket_range(i);
            let (lo_next, _) = batch_bucket_range(i + 1);
            assert_eq!(hi + 1, lo_next);
        }
    }

    #[test]
    fn mean_batch_size_handles_zero() {
        assert_eq!(StatsSnapshot::default().mean_batch_size(), 0.0);
    }

    #[test]
    fn read_reservation_counters_snapshot_and_diff() {
        let stats = RuntimeStats::new();
        RuntimeStats::bump(&stats.read_reservations);
        RuntimeStats::bump(&stats.read_reservations);
        RuntimeStats::bump(&stats.writer_waits);
        RuntimeStats::bump_max(&stats.peak_concurrent_readers, 3);
        RuntimeStats::bump_max(&stats.peak_concurrent_readers, 7);
        RuntimeStats::bump_max(&stats.peak_concurrent_readers, 5);
        let snap = stats.snapshot();
        assert_eq!(snap.read_reservations, 2);
        assert_eq!(snap.writer_waits, 1);
        assert_eq!(snap.peak_concurrent_readers, 7, "fetch_max keeps the peak");
        // since(): counts subtract, the peak is carried as a level.
        let earlier = StatsSnapshot {
            read_reservations: 1,
            writer_waits: 1,
            peak_concurrent_readers: 6,
            ..Default::default()
        };
        let diff = snap.since(&earlier);
        assert_eq!(diff.read_reservations, 1);
        assert_eq!(diff.writer_waits, 0);
        assert_eq!(diff.peak_concurrent_readers, 7);
    }

    /// Enumerates **every** `StatsSnapshot` field with a distinct value and
    /// checks the full `since()` result wholesale: counters subtract, the
    /// one gauge (`peak_concurrent_readers`) keeps the later level.  Adding
    /// a field without classifying it in `since()` fails this test (the
    /// struct literals below have no `..Default::default()` escape hatch).
    #[test]
    fn since_classifies_every_field_counter_or_gauge() {
        let early = StatsSnapshot {
            calls_enqueued: 100,
            queries_client_executed: 101,
            queries_handler_executed: 102,
            queries_pipelined: 103,
            syncs_performed: 104,
            syncs_elided: 105,
            separate_blocks: 106,
            multi_reservations: 107,
            private_queues_enqueued: 108,
            handlers_spawned: 109,
            call_panics: 110,
            wait_condition_checks: 111,
            wait_condition_retries: 112,
            guard_signals: 113,
            guard_wakeups: 114,
            postcondition_checks: 115,
            postcondition_failures: 116,
            batches_drained: 117,
            batch_requests_drained: 118,
            requests_executed: 119,
            backpressure_stalls: 120,
            backpressure_rejections: 121,
            handler_wakeups: 122,
            driver_wakes: 133,
            handler_yields: 123,
            pressure_wakes: 124,
            budget_shrinks: 125,
            deadlocks_detected: 126,
            deadlocks_broken: 127,
            read_reservations: 128,
            peak_concurrent_readers: 9, // gauge: early level, must be ignored
            writer_waits: 130,
            scheduler_steals: 131,
            monitor_scans: 132,
            batch_size_buckets: [1, 2, 3, 4, 5, 6, 7],
        };
        // Later snapshot: every counter advanced by a field-specific delta
        // (its index + 1), the gauge settled at a *lower* level than early's
        // peak — since() must still report the later level, not a difference.
        let late = StatsSnapshot {
            calls_enqueued: early.calls_enqueued + 1,
            queries_client_executed: early.queries_client_executed + 2,
            queries_handler_executed: early.queries_handler_executed + 3,
            queries_pipelined: early.queries_pipelined + 4,
            syncs_performed: early.syncs_performed + 5,
            syncs_elided: early.syncs_elided + 6,
            separate_blocks: early.separate_blocks + 7,
            multi_reservations: early.multi_reservations + 8,
            private_queues_enqueued: early.private_queues_enqueued + 9,
            handlers_spawned: early.handlers_spawned + 10,
            call_panics: early.call_panics + 11,
            wait_condition_checks: early.wait_condition_checks + 12,
            wait_condition_retries: early.wait_condition_retries + 13,
            guard_signals: early.guard_signals + 14,
            guard_wakeups: early.guard_wakeups + 15,
            postcondition_checks: early.postcondition_checks + 16,
            postcondition_failures: early.postcondition_failures + 17,
            batches_drained: early.batches_drained + 18,
            batch_requests_drained: early.batch_requests_drained + 19,
            requests_executed: early.requests_executed + 20,
            backpressure_stalls: early.backpressure_stalls + 21,
            backpressure_rejections: early.backpressure_rejections + 22,
            handler_wakeups: early.handler_wakeups + 23,
            driver_wakes: early.driver_wakes + 33,
            handler_yields: early.handler_yields + 24,
            pressure_wakes: early.pressure_wakes + 25,
            budget_shrinks: early.budget_shrinks + 26,
            deadlocks_detected: early.deadlocks_detected + 27,
            deadlocks_broken: early.deadlocks_broken + 28,
            read_reservations: early.read_reservations + 29,
            peak_concurrent_readers: 6,
            writer_waits: early.writer_waits + 30,
            scheduler_steals: early.scheduler_steals + 31,
            monitor_scans: early.monitor_scans + 32,
            batch_size_buckets: [11, 12, 13, 14, 15, 16, 17],
        };
        let expected = StatsSnapshot {
            calls_enqueued: 1,
            queries_client_executed: 2,
            queries_handler_executed: 3,
            queries_pipelined: 4,
            syncs_performed: 5,
            syncs_elided: 6,
            separate_blocks: 7,
            multi_reservations: 8,
            private_queues_enqueued: 9,
            handlers_spawned: 10,
            call_panics: 11,
            wait_condition_checks: 12,
            wait_condition_retries: 13,
            guard_signals: 14,
            guard_wakeups: 15,
            postcondition_checks: 16,
            postcondition_failures: 17,
            batches_drained: 18,
            batch_requests_drained: 19,
            requests_executed: 20,
            backpressure_stalls: 21,
            backpressure_rejections: 22,
            handler_wakeups: 23,
            driver_wakes: 33,
            handler_yields: 24,
            pressure_wakes: 25,
            budget_shrinks: 26,
            deadlocks_detected: 27,
            deadlocks_broken: 28,
            read_reservations: 29,
            peak_concurrent_readers: 6, // the later level, not |6 - 9|
            writer_waits: 30,
            scheduler_steals: 31,
            monitor_scans: 32,
            batch_size_buckets: [10; BATCH_SIZE_BUCKETS],
        };
        assert_eq!(late.since(&early), expected);
        // The reverse interval saturates counters at zero but still carries
        // `self`'s gauge level.
        let reverse = early.since(&late);
        assert_eq!(reverse.calls_enqueued, 0);
        assert_eq!(reverse.peak_concurrent_readers, 9);
    }

    #[test]
    fn since_subtracts_fieldwise() {
        let early = StatsSnapshot {
            calls_enqueued: 10,
            syncs_performed: 4,
            ..Default::default()
        };
        let late = StatsSnapshot {
            calls_enqueued: 25,
            syncs_performed: 9,
            ..Default::default()
        };
        let diff = late.since(&early);
        assert_eq!(diff.calls_enqueued, 15);
        assert_eq!(diff.syncs_performed, 5);
        // Saturation instead of wrap-around.
        assert_eq!(early.since(&late).calls_enqueued, 0);
    }
}
