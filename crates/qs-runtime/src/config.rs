//! Runtime configuration: the optimisation axes evaluated in §4 of the paper.

use std::fmt;

pub use qs_obs::ObservabilityMode;

/// The five named configurations compared in §4 (Tables 1 and 2).
///
/// Each level maps to a [`RuntimeConfig`]; the *Static* level additionally
/// requires the program to have been transformed by the sync-coalescing pass
/// (either via `qs-compiler` or by hand-hoisting [`crate::Separate::sync`]
/// out of loops), which the workload crate takes care of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptimizationLevel {
    /// No optimisations: lock-based handler reservation, handler-executed
    /// queries, a sync round-trip per query.
    None,
    /// Dynamic sync-coalescing (§3.4.1) plus client-executed queries (§3.2).
    Dynamic,
    /// Static sync-coalescing (§3.4.2): the program performs explicit,
    /// statically-placed syncs; the runtime itself runs like `None` but with
    /// client-executed queries so elided syncs actually pay nothing.
    Static,
    /// Queue-of-queues communication (§2.3/§3.1) without any sync reduction.
    QoQ,
    /// All optimisations together: the full SCOOP/Qs runtime.
    All,
}

impl OptimizationLevel {
    /// All five levels in the order the paper's tables list them.
    pub const ALL: [OptimizationLevel; 5] = [
        OptimizationLevel::None,
        OptimizationLevel::Dynamic,
        OptimizationLevel::Static,
        OptimizationLevel::QoQ,
        OptimizationLevel::All,
    ];

    /// The [`RuntimeConfig`] corresponding to this level.
    pub fn config(self) -> RuntimeConfig {
        match self {
            OptimizationLevel::None => RuntimeConfig::unoptimized(),
            OptimizationLevel::Dynamic => RuntimeConfig {
                dynamic_sync_coalescing: true,
                client_executed_queries: true,
                ..RuntimeConfig::unoptimized()
            },
            OptimizationLevel::Static => RuntimeConfig {
                client_executed_queries: true,
                assume_static_sync: true,
                auto_read: true,
                ..RuntimeConfig::unoptimized()
            },
            OptimizationLevel::QoQ => RuntimeConfig {
                queue_of_queues: true,
                ..RuntimeConfig::unoptimized()
            },
            OptimizationLevel::All => RuntimeConfig::all_optimizations(),
        }
    }

    /// The short name used in the paper's tables ("none", "Dyn.", …).
    pub fn label(self) -> &'static str {
        match self {
            OptimizationLevel::None => "None",
            OptimizationLevel::Dynamic => "Dynamic",
            OptimizationLevel::Static => "Static",
            OptimizationLevel::QoQ => "QoQ",
            OptimizationLevel::All => "All",
        }
    }
}

impl fmt::Display for OptimizationLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What the runtime does about wait-for cycles among handlers and clients.
///
/// Bounded mailboxes (the default) add blocking edges the paper's §2.5
/// deadlock argument does not cover: a producer blocked pushing into a full
/// mailbox.  With a policy other than [`Off`](DeadlockPolicy::Off), the
/// runtime's blocking edges — query/sync handoffs, blocked bounded pushes,
/// handlers parked on open private queues, `reserve().when(...)` retries,
/// and, on the lock-based configuration, acquiring a handler lock another
/// client holds — report into a per-runtime `qs-deadlock` wait-for
/// registry, and a detector thread runs incremental cycle detection over
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DeadlockPolicy {
    /// No tracking, no detector thread, zero overhead on every blocking
    /// path (the default).  A cyclic topology hangs silently, as in the
    /// seed runtime.
    #[default]
    Off,
    /// Detect and report: a confirmed cycle is logged, counted in the
    /// `deadlocks_detected` statistic and retrievable via
    /// `Runtime::deadlock_reports`.  The cycle itself is left in place.
    Report,
    /// Detect, report, then *break* the cycle: one blocked bounded push on
    /// it is failed — the push aborts, the logging `call` panics with
    /// [`crate::MailboxError::DeadlockBroken`] (caught and counted like any
    /// handler-side call panic), and the freed handler unwinds the rest of
    /// the cycle.  Cycles without a bounded-push edge (pure query cycles)
    /// are only reported.
    Break,
}

impl DeadlockPolicy {
    /// `true` unless the policy is [`Off`](DeadlockPolicy::Off).
    pub fn is_enabled(self) -> bool {
        !matches!(self, DeadlockPolicy::Off)
    }

    /// `true` for the cycle-breaking policy.
    pub fn breaks_cycles(self) -> bool {
        matches!(self, DeadlockPolicy::Break)
    }

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            DeadlockPolicy::Off => "Off",
            DeadlockPolicy::Report => "Report",
            DeadlockPolicy::Break => "Break",
        }
    }
}

impl fmt::Display for DeadlockPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Default bound on every client mailbox (private queue / shared request
/// queue).  Large enough that well-paced workloads never stall, small enough
/// that a slow handler caps its memory at `clients × capacity` requests
/// instead of growing without limit.
pub const DEFAULT_MAILBOX_CAPACITY: usize = 1024;

/// Default maximum number of requests the handler drains from a mailbox per
/// queue crossing.
pub const DEFAULT_MAX_BATCH: usize = 32;

/// Fine-grained runtime switches; see [`OptimizationLevel`] for the bundles
/// evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Use the queue-of-queues + private SPSC queues communication structure.
    /// When `false`, the pre-Qs lock-based handler (single request queue,
    /// handler lock held for the whole separate block) is used.
    pub queue_of_queues: bool,
    /// Execute queries on the client after a sync, instead of packaging the
    /// call and running it on the handler (§3.2).
    pub client_executed_queries: bool,
    /// Track a `synced` flag per private queue and skip redundant sync
    /// round-trips (§3.4.1).
    pub dynamic_sync_coalescing: bool,
    /// The program has been statically transformed so that explicit
    /// [`crate::Separate::sync`] calls are already minimal; queries issued
    /// through [`crate::Separate::query_unsynced`] skip even the dynamic
    /// synced-flag check.  This flag exists for reporting purposes (it does
    /// not change runtime behaviour on its own).
    pub assume_static_sync: bool,
    /// Core worker threads of the M:N pool every handler runs on
    /// ([`qs_exec::HandlerScheduler`]); `0` (the default) sizes it to the
    /// machine's available parallelism, at least 2.  Idle handlers cost no
    /// thread, and a client about to wait on an idle handler steps it
    /// itself.  A step that blocks (a nested separate block, bounded-mailbox
    /// backpressure, a handler body waiting on something outside the
    /// runtime) pins its worker; the scheduler's monitor observes a pinned
    /// worker that is off-CPU and adds a compensation worker, so the pool
    /// cannot starve itself.  Applies to every [`OptimizationLevel`].
    pub workers: usize,
    /// Bound on each client mailbox (private SPSC queue on the
    /// queue-of-queues path, shared request queue on the lock-based path).
    /// `None` reverts to the paper's unbounded queues; with a bound, clients
    /// that outrun the handler block on enqueue (*backpressure*) instead of
    /// growing the queue without limit.  Applies to every
    /// [`OptimizationLevel`].
    pub mailbox_capacity: Option<usize>,
    /// Maximum number of requests the handler drains from a mailbox per
    /// queue crossing (always at least 1).  Batch draining amortises the
    /// per-request dequeue cost on the hottest runtime path; `1` reproduces
    /// the seed's one-request-per-iteration loop.
    pub max_batch: usize,
    /// Runtime deadlock detection over the live wait-for graph (queries,
    /// blocked bounded pushes, open-queue serving, reservation retries).
    /// `Off` (the default) keeps every blocking path un-instrumented.
    /// Applies to every [`OptimizationLevel`].
    pub deadlock_policy: DeadlockPolicy,
    /// Honour the effect-inference pass's read-only verdicts: separate
    /// blocks the static analysis proves query-only are reserved in shared
    /// read mode (`reserve(..).read()`) instead of exclusively.  Off, every
    /// block reserves exclusively regardless of the verdict — the
    /// differential baseline for the auto-`.read()` path.  Enabled on the
    /// `Static` and `All` levels (the ones that trust static transforms).
    pub auto_read: bool,
    /// How much the runtime records about itself (see `qs-obs`):
    /// [`ObservabilityMode::Off`] (the default) keeps every instrumentation
    /// site down to one relaxed load; `Counters` arms the latency
    /// histograms and counters of the process-wide metrics registry;
    /// `Full` additionally records typed trace events into per-thread ring
    /// buffers, exportable as a Chrome trace.  The mode is process-global
    /// (like a `tracing` subscriber): constructing a runtime *raises* it,
    /// so one `Full` runtime among `Off` runtimes records.  Applies to
    /// every [`OptimizationLevel`].
    pub observability: ObservabilityMode,
}

impl RuntimeConfig {
    /// The unoptimised baseline: lock-based handlers, handler-executed
    /// queries, no sync coalescing.
    pub fn unoptimized() -> Self {
        RuntimeConfig {
            queue_of_queues: false,
            client_executed_queries: false,
            dynamic_sync_coalescing: false,
            assume_static_sync: false,
            workers: 0,
            mailbox_capacity: Some(DEFAULT_MAILBOX_CAPACITY),
            max_batch: DEFAULT_MAX_BATCH,
            deadlock_policy: DeadlockPolicy::Off,
            auto_read: false,
            observability: ObservabilityMode::Off,
        }
    }

    /// Every optimisation enabled: the full SCOOP/Qs runtime.
    pub fn all_optimizations() -> Self {
        RuntimeConfig {
            queue_of_queues: true,
            client_executed_queries: true,
            dynamic_sync_coalescing: true,
            assume_static_sync: true,
            workers: 0,
            mailbox_capacity: Some(DEFAULT_MAILBOX_CAPACITY),
            max_batch: DEFAULT_MAX_BATCH,
            deadlock_policy: DeadlockPolicy::Off,
            auto_read: true,
            observability: ObservabilityMode::Off,
        }
    }

    /// The configuration for a named optimisation level.
    pub fn for_level(level: OptimizationLevel) -> Self {
        level.config()
    }

    /// Returns this configuration with the mailbox bound replaced (`None` =
    /// unbounded, the paper's original queues).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is `Some(0)`.
    pub fn with_mailbox_capacity(mut self, capacity: Option<usize>) -> Self {
        assert!(capacity != Some(0), "a bounded mailbox needs capacity >= 1");
        self.mailbox_capacity = capacity;
        self
    }

    /// Returns this configuration with the drain batch limit replaced
    /// (clamped to at least 1; `1` reproduces the seed's
    /// one-request-per-iteration handler loop).
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Returns this configuration with the pool's core worker count
    /// replaced (`0` = auto-size; see [`workers`](Self::workers)).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// The pool's core worker count: [`workers`](Self::workers), or when
    /// that is `0` the machine's available parallelism, at least 2 (so a
    /// single blocking handler on a single-core box does not immediately
    /// lean on compensation).
    pub fn effective_workers(&self) -> usize {
        match self.workers {
            0 => qs_exec::default_parallelism().max(2),
            workers => workers,
        }
    }

    /// Returns this configuration with the deadlock-detection policy
    /// replaced; see [`DeadlockPolicy`].
    pub fn with_deadlock_policy(mut self, policy: DeadlockPolicy) -> Self {
        self.deadlock_policy = policy;
        self
    }

    /// Returns this configuration with the auto-`.read()` downgrade knob
    /// replaced: whether separate blocks the effect-inference pass proves
    /// read-only are reserved in shared read mode.
    pub fn with_auto_read(mut self, auto_read: bool) -> Self {
        self.auto_read = auto_read;
        self
    }

    /// Returns this configuration with the observability mode replaced;
    /// see [`ObservabilityMode`].
    pub fn with_observability(mut self, observability: ObservabilityMode) -> Self {
        self.observability = observability;
        self
    }
}

impl Default for RuntimeConfig {
    /// Defaults to the fully optimised SCOOP/Qs configuration.
    fn default() -> Self {
        Self::all_optimizations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fully_optimized() {
        let c = RuntimeConfig::default();
        assert!(c.queue_of_queues);
        assert!(c.client_executed_queries);
        assert!(c.dynamic_sync_coalescing);
    }

    #[test]
    fn none_level_disables_everything() {
        let c = OptimizationLevel::None.config();
        assert!(!c.queue_of_queues);
        assert!(!c.client_executed_queries);
        assert!(!c.dynamic_sync_coalescing);
        assert!(!c.assume_static_sync);
    }

    #[test]
    fn qoq_level_enables_only_queues() {
        let c = OptimizationLevel::QoQ.config();
        assert!(c.queue_of_queues);
        assert!(!c.client_executed_queries);
        assert!(!c.dynamic_sync_coalescing);
    }

    #[test]
    fn dynamic_level_enables_coalescing_and_client_queries() {
        let c = OptimizationLevel::Dynamic.config();
        assert!(!c.queue_of_queues);
        assert!(c.client_executed_queries);
        assert!(c.dynamic_sync_coalescing);
    }

    #[test]
    fn static_level_marks_static_sync() {
        let c = OptimizationLevel::Static.config();
        assert!(c.assume_static_sync);
        assert!(c.client_executed_queries);
        assert!(!c.dynamic_sync_coalescing);
        assert!(c.auto_read, "Static trusts the effect pass");
    }

    #[test]
    fn auto_read_follows_the_static_transform_levels() {
        assert!(!OptimizationLevel::None.config().auto_read);
        assert!(!OptimizationLevel::Dynamic.config().auto_read);
        assert!(!OptimizationLevel::QoQ.config().auto_read);
        assert!(OptimizationLevel::Static.config().auto_read);
        assert!(OptimizationLevel::All.config().auto_read);
        let c = RuntimeConfig::default().with_auto_read(false);
        assert!(!c.auto_read);
        assert!(c.with_auto_read(true).auto_read);
    }

    #[test]
    fn every_level_carries_the_mailbox_knobs() {
        for level in OptimizationLevel::ALL {
            let c = level.config();
            assert_eq!(
                c.mailbox_capacity,
                Some(DEFAULT_MAILBOX_CAPACITY),
                "{level}"
            );
            assert_eq!(c.max_batch, DEFAULT_MAX_BATCH, "{level}");
        }
    }

    #[test]
    fn every_level_auto_sizes_the_pool() {
        for level in OptimizationLevel::ALL {
            assert_eq!(level.config().workers, 0, "{level}");
        }
    }

    #[test]
    fn workers_resolve_to_a_pool_size() {
        let c = RuntimeConfig::default().with_workers(3);
        assert_eq!(c.effective_workers(), 3);
        let auto = c.with_workers(0).effective_workers();
        assert!(auto >= 2, "auto-sizing keeps at least two workers: {auto}");
    }

    #[test]
    fn mailbox_builders_override_and_clamp() {
        let c = OptimizationLevel::All
            .config()
            .with_mailbox_capacity(Some(7))
            .with_max_batch(0);
        assert_eq!(c.mailbox_capacity, Some(7));
        assert_eq!(c.max_batch, 1, "max_batch clamps to at least 1");
        let unbounded = c.with_mailbox_capacity(None);
        assert_eq!(unbounded.mailbox_capacity, None);
    }

    #[test]
    fn deadlock_policy_defaults_off_on_every_level() {
        for level in OptimizationLevel::ALL {
            let c = level.config();
            assert_eq!(c.deadlock_policy, DeadlockPolicy::Off, "{level}");
            assert!(!c.deadlock_policy.is_enabled());
        }
        let c = RuntimeConfig::default().with_deadlock_policy(DeadlockPolicy::Report);
        assert!(c.deadlock_policy.is_enabled());
        assert!(!c.deadlock_policy.breaks_cycles());
        let c = c.with_deadlock_policy(DeadlockPolicy::Break);
        assert!(c.deadlock_policy.breaks_cycles());
        assert_eq!(DeadlockPolicy::Break.to_string(), "Break");
        assert_eq!(DeadlockPolicy::default().label(), "Off");
    }

    #[test]
    fn observability_defaults_off_on_every_level() {
        // Off must be the zero-cost default everywhere: no level silently
        // arms the registry or the trace rings.
        for level in OptimizationLevel::ALL {
            let c = level.config();
            assert_eq!(c.observability, ObservabilityMode::Off, "{level}");
        }
        let c = RuntimeConfig::default().with_observability(ObservabilityMode::Counters);
        assert_eq!(c.observability, ObservabilityMode::Counters);
        let c = c.with_observability(ObservabilityMode::Full);
        assert_eq!(c.observability, ObservabilityMode::Full);
        assert_eq!(ObservabilityMode::Full.to_string(), "full");
        assert_eq!(ObservabilityMode::default().label(), "off");
    }

    #[test]
    #[should_panic(expected = "capacity >= 1")]
    fn zero_mailbox_capacity_is_rejected() {
        let _ = RuntimeConfig::default().with_mailbox_capacity(Some(0));
    }

    #[test]
    fn labels_match_paper_tables() {
        let labels: Vec<_> = OptimizationLevel::ALL.iter().map(|l| l.label()).collect();
        assert_eq!(labels, vec!["None", "Dynamic", "Static", "QoQ", "All"]);
        assert_eq!(OptimizationLevel::All.to_string(), "All");
    }
}
