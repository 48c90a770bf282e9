//! Integration tests for event-driven wait conditions: clients whose
//! `reserve(...).when(...)` condition is false park on the set's handlers
//! and are signalled when a block completes, instead of re-polling on a
//! timer.  Covers the O(signals) evaluation-count guarantee under heavy
//! waiter fan-in, the lost-signal race between evaluation and registration,
//! wall-clock timeout clamping, eager attempt budgets, and the interaction with
//! the runtime deadlock detector (a *parked* guard waiter still confirms —
//! and `Break` still fails — a reservation cycle).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use scoop_qs::prelude::*;

fn runtime(workers: usize) -> Runtime {
    Runtime::new(RuntimeConfig::all_optimizations().with_workers(workers))
}

/// A hundred clients park on one handler; ten state changes resolve them
/// all.  The total number of condition evaluations must scale with the
/// number of signals (a handful per waiter), not with elapsed time — a
/// loop re-evaluating every millisecond would do so tens of thousands of
/// times over the same quarter second.
#[test]
fn hundred_waiters_resolve_with_few_evaluations_pooled() {
    const WAITERS: usize = 100;
    const TARGET: u64 = 10;

    let rt = runtime(4);
    let counter = rt.spawn_handler(0u64);
    let waiters: Vec<_> = (0..WAITERS)
        .map(|_| {
            let counter = counter.clone();
            std::thread::spawn(move || {
                reserve(&counter)
                    .when(|c: &u64| *c >= TARGET)
                    .run(|guard| guard.query(|c| *c))
            })
        })
        .collect();

    // Wait until every waiter has burnt its spin window and failed once
    // more, i.e. is on its way into the park; then drive the condition true
    // in TARGET spaced steps so most waiters park (and get signalled)
    // several times over.
    let failures_before_parking = WaitConfig::default().spin_retries + 1;
    while rt.stats_snapshot().wait_condition_retries < (WAITERS * failures_before_parking) as u64 {
        std::thread::sleep(Duration::from_millis(1));
    }
    for _ in 0..TARGET {
        std::thread::sleep(Duration::from_millis(20));
        counter.call_detached(|c| *c += 1);
    }
    for waiter in waiters {
        assert!(waiter.join().unwrap() >= TARGET);
    }

    let snapshot = rt.stats_snapshot();
    assert!(snapshot.guard_signals > 0, "{snapshot:?}");
    assert!(snapshot.guard_wakeups > 0, "{snapshot:?}");
    // O(signals): ~9 spin evaluations per waiter plus one per wakeup, far
    // under the ≥20,000 a quarter second of 100 × 1ms-polling would cost.
    assert!(
        snapshot.wait_condition_checks < 10_000,
        "waiters polled instead of parking: {snapshot:?}"
    );
}

/// The lost-signal hammer: one client chases a counter another client keeps
/// bumping, so every round re-runs the evaluate → register → release →
/// park handshake while closes race in from the producer.  A signal falling
/// into any gap of that handshake would park the waiter forever and hang
/// the test.
#[test]
fn signals_racing_registration_are_never_lost_pooled() {
    const ROUNDS: usize = 2_000;

    let rt = runtime(4);
    let counter = rt.spawn_handler(0u64);
    let stop = Arc::new(AtomicBool::new(false));
    let producer = {
        let counter = counter.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut bumps = 0u64;
            while !stop.load(Ordering::Acquire) {
                counter.call_detached(|c| *c += 1);
                bumps += 1;
                // Mix paces: bursts make the condition true before the
                // waiter parks, pauses (longer than the waiter's spin
                // window) force it to actually park.
                if bumps.is_multiple_of(8) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        })
    };

    let mut last_seen = 0u64;
    for round in 0..ROUNDS {
        let observed = reserve(&counter)
            .when(move |c: &u64| *c > last_seen)
            .run(|guard| guard.query(|c| *c));
        assert!(observed > last_seen, "round {round}");
        last_seen = observed;
    }
    stop.store(true, Ordering::Release);
    producer.join().unwrap();

    let snapshot = rt.stats_snapshot();
    assert!(
        snapshot.guard_wakeups > 0,
        "the hammer never parked, the race went unexercised: {snapshot:?}"
    );
}

/// The two ways one wait loop gives up.  A wall-clock timeout stays
/// wall-clock: the park is bounded by the remaining budget, not by a fixed
/// nap.  An attempt budget is spent eagerly: `bounded(n)` returns after
/// exactly `n` evaluations without ever parking.
#[test]
fn wall_clock_timeouts_are_clamped_and_attempt_budgets_never_park() {
    const BUDGET: Duration = Duration::from_millis(60);
    // Generous CI headroom; the point is "one budget", not "ten naps".
    const OVERSHOOT: Duration = Duration::from_millis(250);

    let rt = runtime(2);
    let cell = rt.spawn_handler(0u8);

    // No attempt budget: one deadline-bounded park.
    let started = Instant::now();
    let parked = reserve(&cell)
        .when(|c: &u8| *c > 0)
        .timeout(WaitConfig::wall_clock(BUDGET))
        .try_run(|_| ());
    let elapsed = started.elapsed();
    assert!(parked.is_err(), "parked: the condition can never hold");
    assert!(elapsed >= BUDGET, "parked: fired early after {elapsed:?}");
    assert!(elapsed < OVERSHOOT, "parked: overshot to {elapsed:?}");

    // An attempt budget well past the default spin window.  Nothing ever
    // signals this handler, so a wait that parked would sit out the
    // wall-clock bound and report fewer attempts than its budget.
    const ATTEMPTS: usize = 40;
    let config = WaitConfig {
        max_retries: Some(ATTEMPTS),
        max_wait: Some(Duration::from_secs(10)),
        ..WaitConfig::default()
    };
    let checks_before = rt.stats_snapshot().wait_condition_checks;
    let bounded = reserve(&cell)
        .when(|c: &u8| *c > 0)
        .timeout(config)
        .try_run(|_| ());
    assert_eq!(bounded, Err(WaitTimeout { attempts: ATTEMPTS }));
    assert_eq!(
        rt.stats_snapshot().wait_condition_checks - checks_before,
        ATTEMPTS as u64,
        "every attempt of the budget evaluates the condition once"
    );
}

/// Builds a 2-party cycle through a *parked* guard waiter, deterministically:
///
/// 1. Client A opens a block on X (X commits to it: `Serving X→A`) and then
///    waits on Y's state.  Y is still idle, so A's evaluations complete,
///    fail, and A parks (`ReserveWait A→Y`).
/// 2. Once A is parked, client B opens a block on Y (`Serving Y→B`) and
///    queries X inside it — X is pinned to A's open block, so the query
///    blocks (`Query B→X`), closing the cycle: A→Y→B→X→A.
///
/// The only breakable edge in that cycle is A's parked reservation, so the
/// detector can fail A straight out of its park.  Whenever A's wait fails —
/// broken or timed out — A closes its block and then satisfies B's
/// condition, so B always unwinds to `Ok`.
type CycleOutcome = (
    Result<(), WaitTimeout>,
    Result<(), WaitTimeout>,
    Handler<u64>,
    Handler<u64>,
);

fn run_parked_guard_cycle(rt: &Runtime, a_wait: WaitConfig) -> CycleOutcome {
    let x = rt.spawn_handler(0u64);
    let y = rt.spawn_handler(0u64);

    let a = {
        let (x, y) = (x.clone(), y.clone());
        std::thread::spawn(move || {
            let result = reserve(&x).run(|guard| {
                // Sync so X is committed to this open block for the whole
                // inner wait.
                guard.query(|v| *v);
                reserve(&y)
                    .when(|v: &u64| *v >= 1)
                    .timeout(a_wait)
                    .try_run(|_| ())
            });
            if result.is_err() {
                // The block on X is closed now: hand B its release.
                x.call_detached(|v| *v = 1);
            }
            result
        })
    };

    // B must not move before A is parked on Y: if both inner waits start
    // together, both evaluations block in their syncs and the cycle forms
    // out of plain query edges with nothing breakable on it.  A's spin
    // window is `spin_retries = 8` failed evaluations, so once the retry
    // counter passes it A is parking.
    let started = Instant::now();
    while rt.stats_snapshot().wait_condition_retries < 9 {
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "waiter A never reached its parking attempt"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(Duration::from_millis(100));

    let b = {
        let (x, y) = (x.clone(), y.clone());
        std::thread::spawn(move || {
            reserve(&y).run(|guard| {
                guard.query(|v| *v);
                // Blocks: X is serving A's open block.  Completes — with the
                // condition already true — once A fails and releases.
                reserve(&x).when(|v: &u64| *v >= 1).try_run(|_| ())
            })
        })
    };
    (a.join().unwrap(), b.join().unwrap(), x, y)
}

/// `Report` mode: parking must not hide the cycle — a parked waiter reads
/// as *waiting* to the detector's probes, so the cycle through A's parked
/// reservation is confirmed and attributed to a `reserve-wait` edge.  The
/// cycle is left in place; A's bounded wait then times out (straight out of
/// the park — a re-evaluation would hang in its sync) and unwinds it.
#[test]
fn parked_guard_cycle_is_reported() {
    let rt = Runtime::new(
        RuntimeConfig::all_optimizations()
            .with_workers(2)
            .with_deadlock_policy(DeadlockPolicy::Report),
    );
    // A's wait is bounded at 2s — two orders of magnitude above the
    // detector's scan tick — so the cycle is confirmed *while A is parked*;
    // after the timeout no cycle exists to report.
    let (a, b, _x, _y) =
        run_parked_guard_cycle(&rt, WaitConfig::wall_clock(Duration::from_secs(2)));
    assert!(a.is_err(), "report mode leaves the cycle in place: {a:?}");
    assert_eq!(b, Ok(()), "A's timeout must have released B");

    let snapshot = rt.stats_snapshot();
    assert!(snapshot.deadlocks_detected >= 1, "{snapshot:?}");
    assert_eq!(snapshot.deadlocks_broken, 0, "report mode must not break");
    let reports = rt.deadlock_reports();
    assert!(
        reports.iter().any(|report| report
            .edges
            .iter()
            .any(|edge| edge.kind == DeadlockEdgeKind::ReserveWait)),
        "the cycle must be attributed to the parked reservation: {reports:?}"
    );
}

/// `Break` mode: the same cycle with an *unbounded* wait — A would park
/// forever.  The detector confirms the cycle and breaks its one breakable
/// edge, A's parked reservation; the edge's waker unparks A, whose wait
/// fails with `WaitTimeout` without re-evaluating (a re-evaluation would
/// hang).  A then releases its handler and satisfies B's condition.
#[test]
fn parked_guard_cycle_is_broken_and_recovered_from() {
    let rt = Runtime::new(
        RuntimeConfig::all_optimizations()
            .with_workers(2)
            .with_deadlock_policy(DeadlockPolicy::Break),
    );
    let (a, b, x, y) = run_parked_guard_cycle(&rt, WaitConfig::default());
    assert!(
        a.is_err(),
        "the parked wait must be failed by the break: {a:?}"
    );
    assert_eq!(b, Ok(()), "A's failure must have released B");

    let snapshot = rt.stats_snapshot();
    assert!(snapshot.deadlocks_detected >= 1, "{snapshot:?}");
    assert!(snapshot.deadlocks_broken >= 1, "{snapshot:?}");
    // Both handlers survived the break and stay fully usable.
    x.call_detached(|v| *v += 10);
    y.call_detached(|v| *v += 10);
    assert!(x.query_detached(|v| *v) >= 10);
    assert!(y.query_detached(|v| *v) >= 10);
}
