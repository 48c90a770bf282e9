//! The runtime object: configuration, statistics and handler creation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use qs_deadlock::{DeadlockMonitor, DeadlockReport, WaitRegistry};
use qs_exec::HandlerScheduler;

use crate::config::{DeadlockPolicy, OptimizationLevel, RuntimeConfig};
use crate::deadlock::Tracking;
use crate::handler::{Handler, HandlerCore, HandlerId, PooledHandler};
use crate::stats::{RuntimeStats, StatsSnapshot};

/// Scan interval of the deadlock detector (when `DeadlockPolicy` is on).
/// With the monitor's two-consecutive-scans confirmation pass, a genuine
/// cycle is detected and reported within roughly two ticks of forming.
const DEADLOCK_TICK: Duration = Duration::from_millis(10);

/// The per-runtime deadlock-detection context: the wait-for registry every
/// blocking edge reports into, the monitor thread scanning it, and the
/// reports it has confirmed.
struct DeadlockRuntime {
    registry: Arc<WaitRegistry>,
    reports: Arc<parking_lot::Mutex<Vec<DeadlockReport>>>,
    /// Stops and joins the monitor thread when the runtime drops; also the
    /// source of the `monitor_scans` statistic.
    monitor: DeadlockMonitor,
}

impl DeadlockRuntime {
    fn start(policy: DeadlockPolicy, stats: Arc<RuntimeStats>) -> Self {
        let registry = WaitRegistry::new();
        let reports: Arc<parking_lot::Mutex<Vec<DeadlockReport>>> = Arc::default();
        let sink = Arc::clone(&reports);
        let monitor = DeadlockMonitor::spawn(
            Arc::clone(&registry),
            DEADLOCK_TICK,
            policy.breaks_cycles(),
            move |report| {
                RuntimeStats::bump(&stats.deadlocks_detected);
                eprintln!("[qs-runtime] deadlock detected: {report}");
                sink.lock().push(report.clone());
            },
        );
        DeadlockRuntime {
            registry,
            reports,
            monitor,
        }
    }
}

struct RuntimeInner {
    config: RuntimeConfig,
    stats: Arc<RuntimeStats>,
    /// M:N handler scheduler, created lazily at the first `spawn_handler`;
    /// its threads start when a handler is first handed to the pool, so
    /// runtimes that never spawn, or whose handlers are only ever stepped by
    /// their clients, pay no worker threads.
    scheduler: parking_lot::Mutex<Option<Arc<HandlerScheduler>>>,
    /// Deadlock detection; `None` while the policy is `Off`.
    deadlock: Option<DeadlockRuntime>,
    next_handler_id: AtomicU64,
}

impl Drop for RuntimeInner {
    fn drop(&mut self) {
        // Tear the scheduler down on a detached reaper thread: the shutdown
        // drains queued steps and joins workers, which can take as long as
        // the longest in-flight (possibly blocking) handler step, and
        // dropping the runtime never waits on running handlers.  Handlers
        // notified after the shutdown flag is set run their steps inline on
        // the notifying thread, so no work is stranded either way.
        if let Some(scheduler) = self.scheduler.lock().take() {
            let _ = std::thread::Builder::new()
                .name("qs-sched-reaper".to_string())
                .spawn(move || scheduler.shutdown());
        }
    }
}

/// A SCOOP/Qs runtime instance.
///
/// The runtime owns the shared resources of the execution model — the
/// configuration (which optimisations are active), the statistics block and
/// the M:N scheduler handlers run on — and creates [`Handler`]s.  Cloning a
/// `Runtime` is cheap and yields a handle to the same instance.
///
/// ```
/// use qs_runtime::{reserve, Runtime, OptimizationLevel};
///
/// let rt = Runtime::with_level(OptimizationLevel::All);
/// let account = rt.spawn_handler(100i64);
/// reserve(&account).run(|acc| {
///     acc.call(|balance| *balance -= 30);
///     assert_eq!(acc.query(|balance| *balance), 70);
/// });
/// ```
#[derive(Clone)]
pub struct Runtime {
    inner: Arc<RuntimeInner>,
}

impl Runtime {
    /// Creates a runtime with an explicit configuration.
    ///
    /// If [`RuntimeConfig::observability`] is above `Off`, this *raises* the
    /// process-global observability mode (it never lowers it — see
    /// [`qs_obs::raise_mode`]), so metrics and traces from every layer start
    /// flowing the moment the runtime exists.
    pub fn new(config: RuntimeConfig) -> Self {
        qs_obs::raise_mode(config.observability);
        let stats = RuntimeStats::new();
        let deadlock = config
            .deadlock_policy
            .is_enabled()
            .then(|| DeadlockRuntime::start(config.deadlock_policy, Arc::clone(&stats)));
        Runtime {
            inner: Arc::new(RuntimeInner {
                config,
                stats,
                scheduler: parking_lot::Mutex::new(None),
                deadlock,
                next_handler_id: AtomicU64::new(1),
            }),
        }
    }

    /// The wait-for cycles the deadlock detector has confirmed so far
    /// (empty while the policy is [`DeadlockPolicy::Off`], or while nothing
    /// deadlocked).  Also counted in the `deadlocks_detected` statistic.
    pub fn deadlock_reports(&self) -> Vec<DeadlockReport> {
        self.inner
            .deadlock
            .as_ref()
            .map(|deadlock| deadlock.reports.lock().clone())
            .unwrap_or_default()
    }

    /// The M:N scheduler, created on first use.
    fn scheduler(&self) -> Arc<HandlerScheduler> {
        let mut slot = self.inner.scheduler.lock();
        if let Some(scheduler) = slot.as_ref() {
            return Arc::clone(scheduler);
        }
        let scheduler = HandlerScheduler::new(self.inner.config.effective_workers());
        *slot = Some(Arc::clone(&scheduler));
        scheduler
    }

    /// Creates a runtime for one of the named optimisation levels of §4.
    pub fn with_level(level: OptimizationLevel) -> Self {
        Self::new(level.config())
    }

    /// The fully optimised SCOOP/Qs runtime (the paper's "All").
    pub fn fully_optimized() -> Self {
        Self::new(RuntimeConfig::all_optimizations())
    }

    /// The configuration this runtime was created with.
    pub fn config(&self) -> RuntimeConfig {
        self.inner.config
    }

    /// The shared statistics block.
    pub fn stats(&self) -> &Arc<RuntimeStats> {
        &self.inner.stats
    }

    /// Convenience: a point-in-time snapshot of the statistics, including
    /// the deadlock monitor's scan count when it is running.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let mut snapshot = self.inner.stats.snapshot();
        if let Some(deadlock) = self.inner.deadlock.as_ref() {
            snapshot.monitor_scans = deadlock.monitor.scan_count();
        }
        snapshot
    }

    /// The process-global observability metrics registry — counters and
    /// latency histograms recorded by every runtime in the process while the
    /// ambient [`qs_obs::mode`] is `Counters` or `Full`.  Shared, like the
    /// mode itself: per-runtime numbers live in [`stats`](Self::stats).
    pub fn metrics(&self) -> &'static qs_obs::MetricsRegistry {
        qs_obs::registry()
    }

    /// Number of handlers spawned so far.
    pub fn handlers_spawned(&self) -> u64 {
        self.inner.stats.snapshot().handlers_spawned
    }

    /// Creates a new handler owning `object` and registers its main loop as
    /// a task on the runtime's M:N scheduler.
    ///
    /// The handler begins processing requests immediately and runs until it
    /// is stopped (explicitly or by dropping the last [`Handler`] handle).
    pub fn spawn_handler<T: Send + 'static>(&self, object: T) -> Handler<T> {
        self.spawn_with_config(self.inner.config, object)
    }

    /// Like [`spawn_handler`](Self::spawn_handler), but with this handler's
    /// mailbox bound overridden (`None` = unbounded): every client mailbox
    /// this handler hands out — private queue or shared request queue — uses
    /// `capacity` instead of the runtime-wide
    /// [`RuntimeConfig::mailbox_capacity`].  Handlers spawned either way
    /// coexist freely on one runtime; the override is visible in the
    /// handler's [`Handler::config`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is `Some(0)`.
    pub fn spawn_with_capacity<T: Send + 'static>(
        &self,
        object: T,
        capacity: Option<usize>,
    ) -> Handler<T> {
        self.spawn_with_config(self.inner.config.with_mailbox_capacity(capacity), object)
    }

    fn spawn_with_config<T: Send + 'static>(&self, config: RuntimeConfig, object: T) -> Handler<T> {
        let id: HandlerId = self.inner.next_handler_id.fetch_add(1, Ordering::Relaxed);
        RuntimeStats::bump(&self.inner.stats.handlers_spawned);
        qs_obs::trace(qs_obs::TraceKind::HandlerSpawn, id, 0);
        // Deadlock tracking: give the handler its participant identity in
        // the runtime's wait-for registry before any client can reach it.
        let tracking = self.inner.deadlock.as_ref().map(|deadlock| Tracking {
            registry: Arc::clone(&deadlock.registry),
            participant: deadlock.registry.participant(format!("handler-{id}")),
        });
        // The hook that re-arms the task is part of the core, so it is in
        // place before any client can enqueue into a hook-less queue.
        let task = self.scheduler().register_with(|task| {
            let core = HandlerCore::new(
                id,
                config,
                Arc::clone(&self.inner.stats),
                object,
                tracking,
                task,
            );
            Arc::new(PooledHandler::new(core))
        });
        Handler::from_core(Arc::clone(task.core()))
    }

    /// Spawns one handler per element of `objects`, returning the handles in
    /// the same order.  Convenient for creating worker groups.
    pub fn spawn_handlers<T, I>(&self, objects: I) -> Vec<Handler<T>>
    where
        T: Send + 'static,
        I: IntoIterator<Item = T>,
    {
        objects.into_iter().map(|o| self.spawn_handler(o)).collect()
    }

    /// Number of M:N scheduler worker threads currently alive (core workers
    /// plus live compensation workers); zero until a handler is first
    /// handed to the pool.
    pub fn scheduler_threads(&self) -> usize {
        self.inner
            .scheduler
            .lock()
            .as_ref()
            .map_or(0, |s| s.live_threads())
    }

    /// Most M:N scheduler worker threads ever alive at once.
    pub fn scheduler_peak_threads(&self) -> usize {
        self.inner
            .scheduler
            .lock()
            .as_ref()
            .map_or(0, |s| s.peak_threads())
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("config", &self.inner.config)
            .field("handlers_spawned", &self.handlers_spawned())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_and_use_many_handlers() {
        let rt = Runtime::fully_optimized();
        let handlers = rt.spawn_handlers((0..16).map(|i| i as u64));
        for (i, h) in handlers.iter().enumerate() {
            h.separate(|s| {
                s.call(|v| *v *= 2);
                assert_eq!(s.query(|v| *v), (i as u64) * 2);
            });
        }
        assert_eq!(rt.handlers_spawned(), 16);
    }

    #[test]
    fn handler_ids_are_unique() {
        let rt = Runtime::fully_optimized();
        let a = rt.spawn_handler(());
        let b = rt.spawn_handler(());
        let c = rt.spawn_handler(());
        assert_ne!(a.id(), b.id());
        assert_ne!(b.id(), c.id());
    }

    #[test]
    fn handlers_share_a_fixed_pool() {
        let rt = Runtime::fully_optimized();
        assert_eq!(rt.scheduler_threads(), 0, "scheduler starts lazily");
        let handlers = rt.spawn_handlers((0..256).map(|i| i as u64));
        for (i, h) in handlers.iter().enumerate() {
            h.separate(|s| {
                s.call(|v| *v += 1);
                assert_eq!(s.query(|v| *v), i as u64 + 1);
            });
        }
        // 256 live handlers on a fixed-size pool.
        let workers = rt.config().effective_workers();
        assert!(
            rt.scheduler_threads() >= workers,
            "all {workers} pool workers must be alive, saw {}",
            rt.scheduler_threads()
        );
        let snap = rt.stats_snapshot();
        assert!(snap.handler_wakeups > 0, "producers re-armed handlers");
        for h in handlers {
            assert!(h.shutdown_and_take().is_some());
        }
    }

    #[test]
    fn retired_pooled_handlers_release_their_objects() {
        // Regression: the wake-hook closure (core → hook → task handle →
        // pooled task → core) must not keep a finished handler's core — and
        // with it the owned object — alive forever.  The scheduler breaks
        // the cycle by releasing the task reference at the Done transition.
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Token;
        impl Drop for Token {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let rt = Runtime::fully_optimized();
        for _ in 0..10 {
            let h = rt.spawn_handler(Token);
            h.call_detached(|_| {});
            h.stop();
            h.wait_finished();
        }
        // The final core release happens on a worker thread just after the
        // finished event; give it a bounded moment.
        for _ in 0..2_000 {
            if DROPS.load(Ordering::SeqCst) == 10 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(
            DROPS.load(Ordering::SeqCst),
            10,
            "retired pooled handlers leaked their cores/objects"
        );
    }

    #[test]
    fn clone_shares_the_same_instance() {
        let rt = Runtime::fully_optimized();
        let rt2 = rt.clone();
        let _h = rt.spawn_handler(());
        assert_eq!(rt2.handlers_spawned(), 1);
        assert!(format!("{rt2:?}").contains("handlers_spawned"));
    }

    #[test]
    fn level_constructor_matches_config() {
        let rt = Runtime::with_level(OptimizationLevel::QoQ);
        assert!(rt.config().queue_of_queues);
        assert!(!rt.config().dynamic_sync_coalescing);
    }

    #[test]
    fn stats_accumulate_across_handlers() {
        let rt = Runtime::fully_optimized();
        let a = rt.spawn_handler(0u32);
        let b = rt.spawn_handler(0u32);
        a.separate(|s| s.call(|v| *v += 1));
        b.separate(|s| s.call(|v| *v += 1));
        a.stop();
        b.stop();
        a.wait_finished();
        b.wait_finished();
        let snap = rt.stats_snapshot();
        assert_eq!(snap.calls_enqueued, 2);
        assert_eq!(snap.separate_blocks, 2);
        assert_eq!(snap.handlers_spawned, 2);
    }
}
