//! Cross-configuration stress/soak suite: N clients × M handlers hammering
//! logs and queries across every `OptimizationLevel`, with deliberately tiny
//! mailbox capacities (1, 2, 7) so the backpressure path is exercised
//! constantly, plus the unbounded configuration as the stall-free control,
//! on the auto-sized M:N pool and on deliberately small ones.
//!
//! Each round asserts the full set of accounting invariants:
//!
//! * nothing is lost: the handlers' final state reflects every logged call;
//! * enqueued == executed: every call and handler-executed/pipelined query
//!   that entered a mailbox was applied exactly once;
//! * no stall is counted without a bounded mailbox;
//! * batch draining actually happens (nonzero `batches_drained`);
//! * shutdown is clean: every handler drains and hands its object back.

use scoop_qs::prelude::*;

/// One stress round: `clients` threads × `handler_count` handlers, each
/// client running `blocks` separate blocks of `calls_per_block` calls plus a
/// query mix, on a fresh runtime configured with `capacity`.
fn stress_round(
    level: OptimizationLevel,
    capacity: Option<usize>,
    clients: usize,
    handler_count: usize,
    blocks: usize,
    calls_per_block: usize,
) {
    stress_round_scheduled(
        level,
        0,
        capacity,
        clients,
        handler_count,
        blocks,
        calls_per_block,
    );
}

#[allow(clippy::too_many_arguments)]
fn stress_round_scheduled(
    level: OptimizationLevel,
    workers: usize,
    capacity: Option<usize>,
    clients: usize,
    handler_count: usize,
    blocks: usize,
    calls_per_block: usize,
) {
    let config = level
        .config()
        .with_mailbox_capacity(capacity)
        .with_workers(workers);
    let rt = Runtime::new(config);
    let handlers: Vec<Handler<u64>> = (0..handler_count).map(|_| rt.spawn_handler(0u64)).collect();

    std::thread::scope(|scope| {
        for client in 0..clients {
            let handlers = handlers.clone();
            scope.spawn(move || {
                for block in 0..blocks {
                    let handler = &handlers[(client + block) % handlers.len()];
                    let label = format!("{level}/cap {capacity:?}");
                    handler.separate(|s| {
                        for _ in 0..calls_per_block {
                            s.call(|n| *n += 1);
                        }
                        // A pipelined query in flight while further calls are
                        // logged, then a synchronous query: both must observe
                        // a prefix-consistent counter.
                        let early = s.query_async(|n| *n);
                        s.call(|n| *n += 1);
                        let late = s.query(|n| *n);
                        let early = early.wait();
                        assert!(
                            early < late,
                            "{label}: pipelined query saw {early}, later sync query saw {late}"
                        );
                    });
                }
            });
        }
    });

    // Clean shutdown: every handler drains its remaining work and returns
    // its object.
    let total: u64 = handlers
        .into_iter()
        .map(|h| h.shutdown_and_take().expect("object taken exactly once"))
        .sum();
    let expected_calls = (clients * blocks * (calls_per_block + 1)) as u64;
    let context = format!("{level} with capacity {capacity:?}");
    assert_eq!(total, expected_calls, "{context}: calls lost or duplicated");

    let snap = rt.stats_snapshot();
    assert_eq!(snap.calls_enqueued, expected_calls, "{context}");
    // Every request that entered a mailbox was applied exactly once.
    assert_eq!(
        snap.requests_executed,
        snap.calls_enqueued + snap.queries_handler_executed + snap.queries_pipelined,
        "{context}: enqueued != executed"
    );
    assert_eq!(
        snap.queries_pipelined,
        (clients * blocks) as u64,
        "{context}"
    );
    assert!(snap.batches_drained > 0, "{context}: no batches drained");
    assert_eq!(
        snap.batch_requests_drained,
        snap.requests_executed + snap.syncs_performed,
        "{context}: drained requests must be exactly the executed ones plus sync tokens"
    );
    if capacity.is_none() {
        assert_eq!(
            snap.backpressure_stalls, 0,
            "{context}: an unbounded mailbox must never stall"
        );
    }
}

/// Every optimisation level must survive the tiniest possible mailbox: with
/// capacity 1 every second enqueue stalls, so this is the maximal-contention
/// backpressure configuration.
#[test]
fn all_levels_survive_mailbox_capacity_one() {
    for level in OptimizationLevel::ALL {
        stress_round(level, Some(1), 4, 2, 6, 20);
    }
}

/// Small odd capacities exercise ring wrap-around (7) and the two-entry
/// boundary (2) across every level.
#[test]
fn all_levels_survive_tiny_capacities() {
    for level in OptimizationLevel::ALL {
        for capacity in [2, 7] {
            stress_round(level, Some(capacity), 4, 2, 6, 20);
        }
    }
}

/// The unbounded control: identical workload, and the invariant that no
/// backpressure stall is ever counted without a bound.
#[test]
fn all_levels_unbounded_control_never_stalls() {
    for level in OptimizationLevel::ALL {
        stress_round(level, None, 4, 2, 6, 20);
    }
}

/// A bounded run whose clients deliberately outrun the handler must record
/// backpressure stalls (the complement of the unbounded control above).
#[test]
fn capacity_one_fan_in_records_stalls() {
    let rt = Runtime::new(
        OptimizationLevel::All
            .config()
            .with_mailbox_capacity(Some(1)),
    );
    let handler = rt.spawn_handler(0u64);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let handler = handler.clone();
            scope.spawn(move || {
                handler.separate(|s| {
                    for _ in 0..500 {
                        s.call(|n| *n += 1);
                    }
                });
            });
        }
    });
    assert_eq!(handler.shutdown_and_take(), Some(1_000));
    let snap = rt.stats_snapshot();
    assert!(
        snap.backpressure_stalls > 0,
        "two clients bursting 500 calls into capacity-1 mailboxes must stall"
    );
}

/// The M:N pool at its most constrained: 200 live handlers multiplexed over
/// 2 workers, across every optimisation level, asserting the full
/// enqueued == executed accounting and clean shutdown.
#[test]
fn pooled_two_workers_two_hundred_handlers_across_levels() {
    for level in OptimizationLevel::ALL {
        stress_round_scheduled(level, 2, Some(7), 4, 200, 8, 10);
    }
}

/// Lost-wakeup regression: hammer the idle→nonempty race.
///
/// Every `query` forces the handler to drain the client's queue, complete
/// the sync handoff and go idle; the client then immediately enqueues the
/// next call, racing the producer-side wake hook against the worker's
/// running→idle transition.  If the schedule-flag protocol ever drops a
/// wake, the next sync round-trip strands forever and the test times out
/// instead of passing; if it double-schedules, the accounting assertions
/// catch the duplicated drain.
#[test]
fn lost_wakeup_hammer_idle_nonempty_race() {
    for level in [OptimizationLevel::All, OptimizationLevel::None] {
        let rt = Runtime::new(level.config().with_workers(1));
        let handler = rt.spawn_handler(0u64);
        const ROUNDS: u64 = 2_000;
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let handler = handler.clone();
                scope.spawn(move || {
                    for _ in 0..ROUNDS {
                        handler.separate(|s| {
                            s.call(|n| *n += 1);
                            // The round-trip parks the handler right after
                            // the drain — the racy window.
                            let _ = s.query(|n| *n);
                        });
                    }
                });
            }
        });
        assert_eq!(
            handler.shutdown_and_take(),
            Some(2 * ROUNDS),
            "{level}: a wakeup was lost or a request stranded"
        );
        let snap = rt.stats_snapshot();
        assert_eq!(snap.calls_enqueued, 2 * ROUNDS, "{level}");
        assert_eq!(
            snap.requests_executed,
            snap.calls_enqueued + snap.queries_handler_executed + snap.queries_pipelined,
            "{level}: enqueued != executed"
        );
        assert!(snap.handler_wakeups > 0, "{level}: no wakeups recorded");
    }
}

/// A mostly-idle fleet: thousands of live handlers, a trickle of work, a
/// 2-worker pool.  Verifies idle handlers cost no OS threads (the M:N
/// point) while every handler still makes progress when poked.
#[test]
fn thousands_of_idle_handlers_on_two_workers() {
    let rt = Runtime::new(OptimizationLevel::All.config().with_workers(2));
    let handlers: Vec<Handler<u64>> = (0..2_000).map(|_| rt.spawn_handler(0u64)).collect();
    // Poke a scattered subset.
    for (i, handler) in handlers.iter().enumerate().step_by(37) {
        handler.call_detached(move |n| *n = i as u64);
    }
    for (i, handler) in handlers.iter().enumerate().step_by(37) {
        assert_eq!(handler.query_detached(|n| *n), i as u64);
    }
    // 2 core workers + possibly a few compensation workers, never
    // thousands.
    assert!(
        rt.scheduler_peak_threads() < 64,
        "2000 idle handlers must not cost threads: peak {}",
        rt.scheduler_peak_threads()
    );
    for handler in handlers {
        assert!(handler.shutdown_and_take().is_some());
    }
}

/// Sustained backpressure: pipelines whose blocks are far larger than their
/// capacity-8 mailboxes, on a deliberately undersized 1-worker pool.  This
/// checks causes, not throughput: producers must actually stall, the
/// bounded mailboxes must fire pressure wakes, and everything enqueued must
/// be executed.
#[test]
fn sustained_backpressure_stalls_fire_pressure_wakes_and_lose_nothing() {
    use qs_bench::experiments::{
        backpressure_sweep, BACKPRESSURE_CALLS_PER_BLOCK, BACKPRESSURE_PIPELINES,
    };

    // The experiment (pipelines, capacity 8, calls per block, undersized
    // 1-worker pool) lives in qs_bench::experiments so this test and the
    // `run_experiments scheduler` sweep run the same thing.
    const BLOCKS: usize = 6; // blocks >> capacity: sustained stalls
    let point = backpressure_sweep(BLOCKS, 1);
    assert!(
        point.backpressure_stalls > 0,
        "no sustained pressure: {point:?}"
    );
    assert_eq!(
        point.requests,
        (BACKPRESSURE_PIPELINES * BLOCKS * BACKPRESSURE_CALLS_PER_BLOCK) as u64,
        "enqueued != executed: {point:?}"
    );
    assert!(
        point.pressure_wakes > 0,
        "bounded mailboxes at capacity must fire pressure wakes: {point:?}"
    );
}

/// Two-handler fairness regression on a single pool worker: the remaining
/// yield budget must persist across scheduler steps (and a yielded handler
/// must re-enter behind its runnable peers), or one hot handler with a deep
/// backlog monopolises the worker and the other starves until the first is
/// completely done.
#[test]
fn two_preloaded_handlers_share_one_worker_fairly() {
    use std::sync::{Arc, Mutex};

    /// Global execution-order bookkeeping: the longest contiguous run of
    /// calls one handler got the worker for.
    #[derive(Default)]
    struct Streaks {
        last: u8,
        current: u64,
        max: u64,
    }

    impl Streaks {
        fn record(&mut self, who: u8) {
            if self.last == who {
                self.current += 1;
            } else {
                self.last = who;
                self.current = 1;
            }
            self.max = self.max.max(self.current);
        }
    }

    const PRELOAD: u64 = 20_000;
    // One yield budget is the intended scheduling quantum; anything a few
    // multiples above it means a handler held the worker across what should
    // have been a yield boundary.
    const MAX_FAIR_STREAK: u64 = 4_096;
    const ATTEMPTS: usize = 5;

    /// One measured round: preload both handlers behind the gate, release,
    /// and return (max contiguous streak, whether the run stayed on the
    /// single worker).  If preloading outlasts the ~100ms compensation
    /// threshold (slow CI box), the monitor hands the second handler its own
    /// thread and the streak measurement is meaningless — the caller retries.
    fn round(preload: u64) -> (u64, bool) {
        let rt = Runtime::new(
            OptimizationLevel::All
                .config()
                // Unbounded: the clients must fully preload both backlogs
                // without ever blocking, so the fairness of the drain itself
                // is what is measured.
                .with_mailbox_capacity(None)
                .with_workers(1),
        );
        let a = rt.spawn_handler(0u64);
        let b = rt.spawn_handler(0u64);
        let streaks = Arc::new(Mutex::new(Streaks::default()));
        let gate = Arc::new(qs_sync::Event::new());

        std::thread::scope(|scope| {
            for (who, handler) in [(1u8, &a), (2u8, &b)] {
                let streaks = &streaks;
                let gate = &gate;
                scope.spawn(move || {
                    handler.separate(|s| {
                        // The single worker blocks here until both backlogs
                        // are fully preloaded, so neither handler gets a
                        // head start.
                        let gate = Arc::clone(gate);
                        s.call(move |_| gate.wait());
                        for _ in 0..preload {
                            let streaks = Arc::clone(streaks);
                            s.call(move |n| {
                                *n += 1;
                                streaks.lock().unwrap().record(who);
                            });
                        }
                    });
                });
            }
        });
        // Both backlogs are fully logged (the clients never block on the
        // unbounded mailboxes); only now may the drain race begin.
        gate.set();

        assert_eq!(a.shutdown_and_take(), Some(preload));
        assert_eq!(b.shutdown_and_take(), Some(preload));
        let max_streak = streaks.lock().unwrap().max;
        (max_streak, rt.scheduler_peak_threads() <= 1)
    }

    let mut last_clean = None;
    for _ in 0..ATTEMPTS {
        let (max_streak, single_worker) = round(PRELOAD);
        if single_worker {
            last_clean = Some(max_streak);
            break;
        }
    }
    let Some(max_streak) = last_clean else {
        // Compensation fired on every attempt: the box is too loaded to
        // keep the gate window under the 100ms stall threshold, and with
        // two workers there is no single-worker fairness to measure.
        eprintln!("skipping streak assertion: compensation fired on all {ATTEMPTS} attempts");
        return;
    };
    // Persisted budgets + yield-to-global-FIFO give strict ~1024-request
    // alternation.  The old fresh-budget-per-step behaviour let the first
    // handler hold the worker for 16+ consecutive budgets (its LIFO deque
    // re-popped it until the next shared poll), i.e. streaks >= 16384.
    assert!(
        max_streak <= MAX_FAIR_STREAK,
        "one handler monopolised the single worker for {max_streak} consecutive \
         requests (fairness quantum is ~1024, allowed at most {MAX_FAIR_STREAK})"
    );
}

/// Per-handler mailbox-capacity overrides coexist with the runtime-wide
/// default on one runtime: a capacity-1 handler applies hard backpressure
/// while sibling handlers keep the roomy default, on both loop flavours.
#[test]
fn per_handler_capacity_override_coexists_with_global_default() {
    for level in [OptimizationLevel::All, OptimizationLevel::None] {
        let context = level.to_string();
        let rt = Runtime::new(level.config().with_workers(2));
        let roomy = rt.spawn_handler(0u64);
        let tiny = rt.spawn_with_capacity(0u64, Some(1));
        assert_eq!(tiny.config().mailbox_capacity, Some(1), "{context}");
        assert_eq!(
            roomy.config().mailbox_capacity,
            rt.config().mailbox_capacity,
            "{context}"
        );

        // The roomy handler first: blocks far below the default bound
        // must finish without a single stall.
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let roomy = roomy.clone();
                scope.spawn(move || {
                    for _ in 0..3 {
                        roomy.separate(|s| {
                            for _ in 0..100 {
                                s.call(|n| *n += 1);
                            }
                        });
                    }
                });
            }
        });
        assert_eq!(roomy.query_detached(|n| *n), 600, "{context}");
        assert_eq!(
            rt.stats_snapshot().backpressure_stalls,
            0,
            "{context}: the default-capacity handler must not stall"
        );

        // The capacity-1 handler: every burst vastly exceeds the bound,
        // so the producers must stall — and still lose nothing.
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let tiny = tiny.clone();
                scope.spawn(move || {
                    tiny.separate(|s| {
                        for _ in 0..500 {
                            s.call(|n| *n += 1);
                        }
                    });
                });
            }
        });
        assert_eq!(tiny.query_detached(|n| *n), 1_000, "{context}");
        assert!(
            rt.stats_snapshot().backpressure_stalls > 0,
            "{context}: the capacity-1 override must apply backpressure"
        );
        assert_eq!(roomy.shutdown_and_take(), Some(600), "{context}");
        assert_eq!(tiny.shutdown_and_take(), Some(1_000), "{context}");
    }
}

/// Release-mode soak of the queue-of-queues configurations (QoQ and All),
/// sized for the CI stress job.  Run with `--include-ignored`.
#[test]
#[ignore = "soak test; run in release mode via the CI stress job"]
fn soak_queue_of_queues_configurations() {
    for level in [OptimizationLevel::QoQ, OptimizationLevel::All] {
        for capacity in [Some(1), Some(7), Some(64), None] {
            stress_round(level, capacity, 8, 4, 100, 500);
        }
    }
}

/// Release-mode soak of the lock-based configurations (None, Dynamic,
/// Static).  Run with `--include-ignored`.
#[test]
#[ignore = "soak test; run in release mode via the CI stress job"]
fn soak_lock_based_configurations() {
    for level in [
        OptimizationLevel::None,
        OptimizationLevel::Dynamic,
        OptimizationLevel::Static,
    ] {
        for capacity in [Some(1), Some(7), Some(64), None] {
            stress_round(level, capacity, 8, 4, 100, 250);
        }
    }
}

// ---------------------------------------------------------------------------
// Runtime deadlock detection: real bounded-mailbox cycles and the
// no-false-positive control
// ---------------------------------------------------------------------------

/// One node of a cyclic-logging ring: each node, while executing a request,
/// bursts two calls into the next node's capacity-1 mailbox — the second
/// push blocks until the next node serves the fresh private queue, and with
/// every node pinned in its own push the ring deadlocks deterministically.
struct RingNode {
    next: Option<Handler<RingNode>>,
    received: u64,
    /// Set once this node's entangling request is executing.
    ready: std::sync::Arc<scoop_qs::sync::Event>,
    /// Every node's `ready` event: the ring rendezvouses before pushing, so
    /// the deadlock does not depend on a lucky interleaving.
    all_ready: Vec<std::sync::Arc<scoop_qs::sync::Event>>,
}

fn entangle_ring(node: &mut RingNode) {
    node.ready.set();
    for event in &node.all_ready {
        event.wait();
    }
    let next = node.next.clone().expect("ring wired before entangling");
    next.separate(|s| {
        s.call(|peer| peer.received += 1);
        s.call(|peer| peer.received += 1); // <- blocks: capacity 1
    });
}

/// Builds an `n`-node ring under `policy` (capacity-1 mailboxes, a 2-worker
/// pool) and fires every node's entangling request.
fn spawn_deadlocked_ring(policy: DeadlockPolicy, n: usize) -> (Runtime, Vec<Handler<RingNode>>) {
    use std::sync::Arc;

    let rt = Runtime::new(
        OptimizationLevel::All
            .config()
            .with_mailbox_capacity(Some(1))
            .with_workers(2)
            .with_deadlock_policy(policy),
    );
    let events: Vec<Arc<scoop_qs::sync::Event>> = (0..n)
        .map(|_| Arc::new(scoop_qs::sync::Event::new()))
        .collect();
    let nodes: Vec<Handler<RingNode>> = (0..n)
        .map(|i| {
            rt.spawn_handler(RingNode {
                next: None,
                received: 0,
                ready: Arc::clone(&events[i]),
                all_ready: events.clone(),
            })
        })
        .collect();
    for (i, node) in nodes.iter().enumerate() {
        let next = nodes[(i + 1) % n].clone();
        node.call_detached(move |ring_node| ring_node.next = Some(next));
    }
    for node in &nodes {
        node.call_detached(entangle_ring);
    }
    (rt, nodes)
}

/// Polls until the detector has confirmed at least one cycle; panics (with
/// `context`) if that takes longer than the bound — the detection-latency
/// assertion.
fn await_detection(rt: &Runtime, context: &str) -> std::time::Duration {
    let started = std::time::Instant::now();
    while rt.stats_snapshot().deadlocks_detected == 0 {
        assert!(
            started.elapsed() < std::time::Duration::from_secs(30),
            "{context}: no deadlock report within 30s"
        );
        std::thread::yield_now();
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    started.elapsed()
}

/// A real 2-party bounded-mailbox cycle: detected within the latency bound,
/// reported with the right participants and edge kinds, broken by
/// `DeadlockPolicy::Break`, and fully recovered from.
#[test]
fn deadlock_two_party_cycle_detected_and_broken_across_modes() {
    deadlocked_ring_round(2);
}

/// The same, for a 3-party ring: client A blocked pushing to B, B to C, C
/// back to A.
#[test]
fn deadlock_three_party_cycle_detected_and_broken_across_modes() {
    deadlocked_ring_round(3);
}

fn deadlocked_ring_round(n: usize) {
    let context = format!("{n}-party");
    let (rt, nodes) = spawn_deadlocked_ring(DeadlockPolicy::Break, n);

    // Latency bound: the detector confirms within two 10ms scan ticks of
    // the cycle forming; the ring needs a rendezvous (and possibly a ~100ms
    // compensation spawn) first.  5s is two orders of magnitude of
    // CI-noise headroom above that, and far below await_detection's 30s
    // hang backstop — a detection slowdown fails here first.
    let latency = await_detection(&rt, &context);
    assert!(
        latency < std::time::Duration::from_secs(5),
        "{context}: detection latency {latency:?} exceeds the bound"
    );

    // The report names the ring: n handler participants, every edge a
    // blocked bounded push.
    let reports = rt.deadlock_reports();
    assert!(!reports.is_empty(), "{context}: report retrievable");
    let report = &reports[0];
    assert_eq!(report.edges.len(), n, "{context}: {report}");
    assert!(
        report
            .kinds()
            .iter()
            .all(|kind| *kind == DeadlockEdgeKind::MailboxPush),
        "{context}: pure push ring, got {report}"
    );
    let mut participants: Vec<&str> = report.participants();
    participants.sort_unstable();
    participants.dedup();
    assert_eq!(participants.len(), n, "{context}: distinct handlers");
    assert!(
        participants.iter().all(|p| p.starts_with("handler-")),
        "{context}: waits attributed to handlers, not worker threads: {participants:?}"
    );

    // Break recovery: exactly one of the 2n pushes is dropped, the rest
    // land once the freed handlers drain.
    let expected = (2 * n - 1) as u64;
    let started = std::time::Instant::now();
    loop {
        let total: u64 = nodes
            .iter()
            .map(|node| node.query_detached(|ring_node| ring_node.received))
            .sum();
        if total == expected {
            break;
        }
        assert!(
            started.elapsed() < std::time::Duration::from_secs(30),
            "{context}: counts stuck at {total}, want {expected}"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    let snapshot = rt.stats_snapshot();
    assert!(snapshot.deadlocks_detected >= 1, "{context}: {snapshot:?}");
    assert!(snapshot.deadlocks_broken >= 1, "{context}: {snapshot:?}");
    assert!(
        snapshot.call_panics >= 1,
        "{context}: the broken push surfaces as a caught panic: {snapshot:?}"
    );

    // Clean shutdown: unwire the ring (the handles form an Arc cycle) and
    // retire every node.
    for node in &nodes {
        node.call_detached(|ring_node| ring_node.next = None);
    }
    for node in nodes {
        assert!(node.shutdown_and_take().is_some(), "{context}");
    }
}

/// `DeadlockPolicy::Report` observes without intervening: the cycle is
/// reported (and counted) but stays in place, and nothing is broken.
#[test]
fn deadlock_report_mode_observes_without_breaking() {
    let (rt, nodes) = spawn_deadlocked_ring(DeadlockPolicy::Report, 2);
    let context = "report-mode 2-party";
    await_detection(&rt, context);
    // Give the monitor a few more ticks: the confirmed cycle must be
    // reported exactly once and never broken.
    std::thread::sleep(std::time::Duration::from_millis(100));
    let snapshot = rt.stats_snapshot();
    assert_eq!(snapshot.deadlocks_detected, 1, "{context}: {snapshot:?}");
    assert_eq!(snapshot.deadlocks_broken, 0, "{context}: {snapshot:?}");
    assert_eq!(snapshot.call_panics, 0, "{context}: {snapshot:?}");
    let reports = rt.deadlock_reports();
    assert_eq!(reports.len(), 1, "{context}");
    assert_eq!(reports[0].edges.len(), 2, "{context}: {}", reports[0]);
    // The deadlock is real and Report leaves it in place: abandon the
    // runtime (drop never waits on blocked handlers; the two pinned pool
    // workers are deliberately leaked until process exit).
    drop(nodes);
    drop(rt);
}

/// The pre-Qs lock-based configuration's classic failure mode: two clients
/// open nested separate blocks on two handlers in opposite orders (ABBA).
/// Handler locks are held for whole blocks (Fig. 2), so once both outer
/// blocks are open the inner acquisitions deadlock — and the detector must
/// name the cycle with `HandlerLock` edges, attributing each wait to the
/// client *holding* the other lock (not to the handlers, which are idle).
#[test]
fn deadlock_lock_based_abba_cycle_is_reported_as_handler_lock_edges() {
    use std::sync::Arc;

    let rt = Runtime::new(
        OptimizationLevel::None
            .config()
            .with_deadlock_policy(DeadlockPolicy::Report),
    );
    let a = rt.spawn_handler(0u64);
    let b = rt.spawn_handler(0u64);
    // Rendezvous: each thread sets its event once it holds its outer lock,
    // and waits for the other before reaching for the inner one — so the
    // ABBA cycle forms deterministically, not on a lucky interleaving.
    let a_held = Arc::new(scoop_qs::sync::Event::new());
    let b_held = Arc::new(scoop_qs::sync::Event::new());
    let forward = {
        let (a, b) = (a.clone(), b.clone());
        let (a_held, b_held) = (Arc::clone(&a_held), Arc::clone(&b_held));
        std::thread::spawn(move || {
            a.separate(|sa| {
                sa.call(|v| *v += 1);
                a_held.set();
                b_held.wait();
                b.separate(|sb| sb.call(|v| *v += 1)); // <- blocks forever
            });
        })
    };
    let backward = {
        let (a, b) = (a.clone(), b.clone());
        let (a_held, b_held) = (Arc::clone(&a_held), Arc::clone(&b_held));
        std::thread::spawn(move || {
            b.separate(|sb| {
                sb.call(|v| *v += 1);
                b_held.set();
                a_held.wait();
                a.separate(|sa| sa.call(|v| *v += 1)); // <- blocks forever
            });
        })
    };

    let context = "lock-based ABBA";
    await_detection(&rt, context);
    std::thread::sleep(std::time::Duration::from_millis(100));
    let snapshot = rt.stats_snapshot();
    assert_eq!(snapshot.deadlocks_detected, 1, "{context}: {snapshot:?}");
    assert_eq!(
        snapshot.deadlocks_broken, 0,
        "{context}: HandlerLock edges are not breakable: {snapshot:?}"
    );
    let reports = rt.deadlock_reports();
    assert_eq!(reports.len(), 1, "{context}");
    let report = &reports[0];
    assert_eq!(report.edges.len(), 2, "{context}: {report}");
    assert!(
        report
            .kinds()
            .iter()
            .all(|kind| *kind == DeadlockEdgeKind::HandlerLock),
        "{context}: pure lock cycle, got {report}"
    );
    let mut participants: Vec<&str> = report.participants();
    participants.sort_unstable();
    participants.dedup();
    assert_eq!(participants.len(), 2, "{context}: two distinct clients");
    assert!(
        participants.iter().all(|p| p.starts_with("client-")),
        "{context}: waits belong to the lock-holding clients: {participants:?}"
    );

    // The deadlock is permanent by construction (nothing can break a mutex
    // acquisition): leak the two pinned client threads and the runtime —
    // the same abandonment as the Report-mode ring above.
    drop(forward);
    drop(backward);
    drop((a, b));
    std::mem::forget(rt);
}

/// The no-false-positive control: a heavily backpressured but *acyclic*
/// pipeline under `DeadlockPolicy::Report` must finish with plenty of
/// genuine blocking (stalls > 0) and zero deadlock reports.
#[test]
fn deadlock_soak_acyclic_backpressure_has_no_false_positives() {
    struct Stage {
        next: Option<Handler<Stage>>,
        received: u64,
        pending: u64,
    }

    /// Forwarding step: every 8 received messages are forwarded to the next
    /// stage in one burst — 8 > capacity 4, so every burst (and every
    /// client block) genuinely stalls on backpressure.
    fn pump(stage: &mut Stage) {
        stage.received += 1;
        stage.pending += 1;
        if stage.pending == 8 {
            stage.pending = 0;
            if let Some(next) = stage.next.clone() {
                next.separate(|s| {
                    for _ in 0..8 {
                        s.call(pump);
                    }
                });
            }
        }
    }

    let context = "acyclic soak";
    let rt = Runtime::new(
        OptimizationLevel::All
            .config()
            .with_mailbox_capacity(Some(4))
            .with_workers(2)
            .with_deadlock_policy(DeadlockPolicy::Report),
    );
    let sink = rt.spawn_handler(Stage {
        next: None,
        received: 0,
        pending: 0,
    });
    let mid = rt.spawn_handler(Stage {
        next: Some(sink.clone()),
        received: 0,
        pending: 0,
    });
    let first = rt.spawn_handler(Stage {
        next: Some(mid.clone()),
        received: 0,
        pending: 0,
    });

    const CLIENTS: usize = 2;
    const BLOCKS: usize = 40;
    const CALLS_PER_BLOCK: usize = 16;
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let first = first.clone();
            scope.spawn(move || {
                for _ in 0..BLOCKS {
                    first.separate(|s| {
                        for _ in 0..CALLS_PER_BLOCK {
                            s.call(pump);
                        }
                    });
                }
            });
        }
    });

    // Every message flows through: 1280 into the first stage, forwarded
    // in full batches of 8 all the way to the sink.
    let expected = (CLIENTS * BLOCKS * CALLS_PER_BLOCK) as u64;
    let started = std::time::Instant::now();
    while sink.query_detached(|stage| stage.received) < expected {
        assert!(
            started.elapsed() < std::time::Duration::from_secs(60),
            "{context}: pipeline stalled"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    let snapshot = rt.stats_snapshot();
    assert!(
        snapshot.backpressure_stalls > 0,
        "{context}: the soak must exercise real blocking, got {snapshot:?}"
    );
    assert_eq!(
        snapshot.deadlocks_detected,
        0,
        "{context}: false positive! reports: {:?}",
        rt.deadlock_reports()
    );
    assert_eq!(snapshot.deadlocks_broken, 0, "{context}");
    assert!(rt.deadlock_reports().is_empty(), "{context}");

    // Clean teardown, producers first.
    assert!(first.shutdown_and_take().is_some(), "{context}");
    assert!(mid.shutdown_and_take().is_some(), "{context}");
    let sink = sink.shutdown_and_take().expect("sink retires");
    assert_eq!(sink.received, expected, "{context}");
}
