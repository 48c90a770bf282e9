//! The two drivers of a handler: a client about to wait on an idle handler
//! steps it on its own thread, and the pool's workers step it otherwise.
//!
//! Deterministic checks only — counts, thread ids and logs, no wall-clock
//! ratios: a synced block wakes no worker; spawning a handler, or stopping
//! an idle one, starts no pool thread; a client parked in its sync takes
//! the wakes of the block ahead of it, and a client parked on a failed
//! guard takes none; a call whose block ends unsynced
//! never runs on the client that logged it; a nested client step completes;
//! an END runs no other client's request, neither one that waits for what
//! the ending client does next nor one that waits for a reservation the
//! ending thread still holds; a handler body that blocks cannot wedge a
//! one-worker pool; and §2.2's per-client order and block contiguity hold
//! with clients stepping the handler, on both deadlock policies, with a
//! one-worker pool as the control.  Every multi-threaded test runs under a
//! watchdog, so a lost wake-up fails instead of hanging the suite.

use std::sync::{mpsc, Arc, Barrier};
use std::thread::ThreadId;
use std::time::Duration;

use scoop_qs::prelude::*;
use scoop_qs::semantics::{Event, Trace};

const LIMIT: Duration = Duration::from_secs(60);

/// Runs `body` on its own thread and fails the test, instead of hanging it,
/// when `body` has not returned within `LIMIT`.
fn within<T: Send + 'static>(what: &str, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, result) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(body());
    });
    result
        .recv_timeout(LIMIT)
        .unwrap_or_else(|_| panic!("{what}: still running after {LIMIT:?}"))
}

fn pooled() -> RuntimeConfig {
    RuntimeConfig::all_optimizations().with_workers(2)
}

#[test]
fn synced_blocks_on_an_idle_pooled_handler_wake_no_worker() {
    const BLOCKS: u64 = 1_000;
    let rt = Runtime::new(pooled());
    let pair = rt.spawn_handler((1u64, 2u64));
    let before = rt.stats_snapshot();
    for _ in 0..BLOCKS {
        let (a, b) = pair.separate(|s| s.query(|p| *p));
        assert_eq!(b, 2 * a);
    }
    let after = rt.stats_snapshot();
    assert_eq!(after.syncs_performed - before.syncs_performed, BLOCKS);
    assert_eq!(
        after.handler_wakeups - before.handler_wakeups,
        0,
        "the client stepped its handler: neither the sync nor the END woke a worker"
    );
}

#[test]
fn stopping_an_idle_handler_starts_no_pool_thread() {
    // The stopping thread retires an idle handler itself: after one synced
    // block, nothing ever reached the pool, so it never started.
    let rt = Runtime::new(pooled());
    let h = rt.spawn_handler(5u64);
    assert_eq!(h.separate(|s| s.query(|n| *n)), 5);
    assert_eq!(h.shutdown_and_take(), Some(5));
    assert_eq!(rt.scheduler_peak_threads(), 0);
}

#[test]
fn calls_ended_unsynced_never_run_on_the_logging_client() {
    // Cowichan's broadcast + join: one call per idle worker handler, each
    // block ended without a sync, then one query per worker.
    within("broadcast + join", || {
        let rt = Runtime::new(pooled());
        let workers: Vec<Handler<Vec<ThreadId>>> =
            (0..4).map(|_| rt.spawn_handler(Vec::new())).collect();
        for _ in 0..200 {
            for worker in &workers {
                worker.separate(|s| s.call(|ran_on| ran_on.push(std::thread::current().id())));
            }
            for worker in &workers {
                worker.separate(|s| s.query(|_| ()));
            }
        }
        let client = std::thread::current().id();
        for worker in workers {
            let ran_on = worker.shutdown_and_take().expect("object");
            assert_eq!(ran_on.len(), 200);
            assert!(
                ran_on.iter().all(|&thread| thread != client),
                "a call ran on the client that logged it"
            );
        }
    });
}

#[test]
fn a_nested_inline_step_completes() {
    // A call logged ahead of the client's sync on H1 queries H2, which is
    // idle: whichever thread steps H1 through that call — the client, or a
    // worker — steps H2 inline from inside H1's step.  H2 lives on its own
    // runtime so its wake-ups are counted apart: the nested syncs and ENDs
    // add at most one per round.
    const ROUNDS: u64 = 200;
    let (value, h2_wakeups) = within("nested client step", || {
        let (rt1, rt2) = (Runtime::new(pooled()), Runtime::new(pooled()));
        let h1 = rt1.spawn_handler(0u64);
        let h2 = rt2.spawn_handler(1u64);
        let before = rt2.stats_snapshot().handler_wakeups;
        for _ in 0..ROUNDS {
            let inner = h2.clone();
            h1.separate(|s| {
                s.call(move |n| *n += inner.separate(|s2| s2.query(|m| *m)));
                s.query(|n| *n)
            });
        }
        let value = h1.separate(|s| s.query(|n| *n));
        (value, rt2.stats_snapshot().handler_wakeups - before)
    });
    assert_eq!(value, ROUNDS);
    assert!(h2_wakeups <= ROUNDS, "{h2_wakeups} wake-ups of H2");
}

#[test]
fn an_end_leaves_queued_calls_that_wait_on_the_ending_client_to_the_pool() {
    // Client A ends a synced block on H1.  Queued on H1 behind it are two
    // blocks of client B, each a call that waits for something A does only
    // after that END: a message on a channel, and a flag on a third handler
    // behind `reserve().when`.  Had A's END run those calls, A would wait
    // on itself; the pool must run them instead.
    for round in 0..50 {
        within("END ahead of the ending client's own signal", move || {
            let rt = Runtime::new(pooled());
            let h1 = rt.spawn_handler(0u64);
            let flag = rt.spawn_handler(false);
            let (tx, rx) = mpsc::channel::<u64>();
            let queued = Arc::new(Barrier::new(2));
            let b = {
                let (h1, flag, queued) = (h1.clone(), flag.clone(), Arc::clone(&queued));
                std::thread::spawn(move || {
                    queued.wait(); // A's block is open and synced
                    h1.separate(|s| s.call(move |n| *n = rx.recv().expect("A's message")));
                    h1.separate(|s| {
                        s.call(move |n| {
                            reserve(&flag).when(|f: &bool| *f).run(|_| ());
                            *n += 1;
                        })
                    });
                    queued.wait();
                })
            };
            h1.separate(|s| {
                assert_eq!(s.query(|n| *n), 0);
                queued.wait();
                queued.wait(); // B's calls are queued behind this block
            });
            tx.send(7).expect("B's call is alive");
            flag.separate(|s| s.call(|f| *f = true));
            b.join().expect("client B");
            assert_eq!(h1.separate(|s| s.query(|n| *n)), 8, "round {round}");
        });
    }
}

#[test]
fn an_end_leaves_other_clients_requests_to_the_pool_while_its_thread_holds_a_reservation() {
    // Client A holds an open block on H2 and ends a synced inner block on
    // H1.  Queued on H1 behind A's block is client C's call, which queries
    // H2 — and H2 serves A's open block until A ends it.  Had A's END run
    // C's call, A would wait on itself; the pool must run it instead.
    for round in 0..50 {
        within("END under an outer reservation", move || {
            let rt = Runtime::new(pooled());
            let h1 = rt.spawn_handler(0u64);
            let h2 = rt.spawn_handler(7u64);
            let logged = Arc::new(Barrier::new(2));
            let c = {
                let (h1, h2, logged) = (h1.clone(), h2.clone(), Arc::clone(&logged));
                std::thread::spawn(move || {
                    logged.wait(); // A's blocks are open and synced
                    h1.separate(|s| s.call(move |n| *n = h2.separate(|s2| s2.query(|m| *m))));
                    logged.wait();
                })
            };
            h2.separate(|outer| {
                assert_eq!(outer.query(|m| *m), 7);
                h1.separate(|inner| {
                    inner.query(|n| *n);
                    logged.wait();
                    logged.wait(); // C's call is queued behind this block
                });
            });
            c.join().expect("client C");
            assert_eq!(h1.separate(|s| s.query(|n| *n)), 7, "round {round}");
        });
    }
}

/// Spins until `ready` holds: a handshake, not a timed wait.
fn wait_until(ready: impl Fn() -> bool) {
    while !ready() {
        std::thread::yield_now();
    }
}

#[test]
fn spawning_a_handler_starts_no_pool_thread() {
    let rt = Runtime::new(pooled());
    let _h = rt.spawn_handler(0u64);
    assert_eq!(rt.scheduler_peak_threads(), 0);
}

#[test]
fn a_consumer_parked_in_its_query_takes_the_producers_end_wake() {
    // The producer's block is open and synced; the consumer's query queues
    // behind it and parks as the handler's driver.  The producer's call and
    // its unsynced END then go to the consumer, which runs the call and the
    // close on its own thread: no worker is woken, none is ever started.
    let (seen, end, total, peak) = within("parked driver", || {
        let rt = Runtime::new(pooled());
        let h = rt.spawn_handler(0u64);
        let opened = Arc::new(Barrier::new(2));
        let consumer = {
            let (h, opened) = (h.clone(), Arc::clone(&opened));
            std::thread::spawn(move || {
                opened.wait(); // the producer's block is open and synced
                h.separate(|s| s.query(|n| *n))
            })
        };
        let start = rt.stats_snapshot();
        let before_end = h.separate(|s| {
            assert_eq!(s.query(|n| *n), 0);
            opened.wait();
            wait_until(|| h.has_parked_driver());
            s.call(|n| *n += 1);
            wait_until(|| h.has_parked_driver());
            rt.stats_snapshot()
        });
        let end = rt.stats_snapshot().since(&before_end);
        let seen = consumer.join().expect("consumer");
        let total = rt.stats_snapshot().since(&start);
        (seen, end, total, rt.scheduler_peak_threads())
    });
    assert_eq!(seen, 1, "the query saw the call's effect");
    assert_eq!(end.handler_wakeups, 0, "the END woke no worker");
    assert_eq!(end.driver_wakes, 1, "the END went to the parked consumer");
    assert_eq!(total.handler_wakeups, 0);
    assert_eq!(peak, 0, "no pool thread was started");
}

#[test]
fn a_client_parked_on_a_failed_guard_is_not_a_driver() {
    // The consumer's `reserve().when` evaluations fail and it parks on the
    // handler's guard registry.  It holds no reservation, so it must not
    // take the producer's wake: that goes to the pool.
    let (taken, wake) = within("guard waiter", || {
        let rt = Runtime::new(pooled());
        let h = rt.spawn_handler(0u64);
        let consumer = {
            let h = h.clone();
            std::thread::spawn(move || {
                reserve(&h)
                    .when(|n: &u64| *n > 0)
                    .run(|s| s.query(std::mem::take))
            })
        };
        // Past its spin window of re-evaluations, the consumer parks.
        let spin_window = WaitConfig::default().spin_retries as u64;
        wait_until(|| rt.stats_snapshot().wait_condition_retries > spin_window);
        assert!(!h.has_parked_driver(), "a guard waiter took the slot");
        let before = rt.stats_snapshot();
        // Read before the END: the consumer is signalled, and may sync
        // again, only once the handler has processed the close.
        let wake = h.separate(|s| {
            s.call(|n| *n = 7);
            rt.stats_snapshot().since(&before)
        });
        (consumer.join().expect("consumer"), wake)
    });
    assert_eq!(taken, 7);
    assert_eq!(wake.handler_wakeups, 1, "the call's wake went to the pool");
    assert_eq!(wake.driver_wakes, 0, "and not to the guard waiter");
}

#[test]
fn a_guarded_producer_and_consumer_pass_ten_thousand_items_in_order() {
    // The driver slot's race test: one producer and one consumer on one
    // handler behind `reserve().when`, so each parks in its sync behind
    // the other's open block, is handed the other's wakes, evicts and is
    // put back.  A lost wake hangs a client; a misordered step shows in
    // the items.
    const ITEMS: u64 = 10_000;
    const CAPACITY: usize = 4;
    let received = within("guard hand-over hammer", || {
        let rt = Runtime::new(pooled());
        let buffer = rt.spawn_handler(std::collections::VecDeque::<u64>::new());
        let producer = {
            let buffer = buffer.clone();
            std::thread::spawn(move || {
                for item in 0..ITEMS {
                    reserve(&buffer)
                        .when(|q: &std::collections::VecDeque<u64>| q.len() < CAPACITY)
                        .run(|s| s.call(move |q| q.push_back(item)));
                }
            })
        };
        let mut received = Vec::with_capacity(ITEMS as usize);
        while (received.len() as u64) < ITEMS {
            let taken = reserve(&buffer)
                .when(|q: &std::collections::VecDeque<u64>| q.len() >= 2)
                .run(|s| s.query(|q| q.drain(..2).collect::<Vec<u64>>()));
            received.extend(taken);
        }
        producer.join().expect("producer");
        received
    });
    assert!(received.iter().copied().eq(0..ITEMS), "items out of order");
}

#[test]
fn a_blocking_handler_body_cannot_wedge_a_one_worker_pool() {
    // Handler A's call blocks in `recv` on the pool's only worker; handler
    // B's call, logged after A's call has started, holds the sender.  B can
    // then run only on a second thread, which the scheduler's monitor adds
    // once it observes the worker pinned off-CPU.
    let (received, peak) = within("blocking body on one worker", || {
        let rt = Runtime::new(pooled().with_workers(1));
        let (a, b) = (rt.spawn_handler(0u64), rt.spawn_handler(false));
        let (tx, rx) = mpsc::channel::<u64>();
        let (started_tx, started) = mpsc::channel();
        a.separate(|s| {
            s.call(move |n| {
                started_tx.send(()).expect("the client is waiting");
                *n = rx.recv().expect("B's message");
            })
        });
        started.recv().expect("A's call started");
        b.separate(|s| {
            s.call(move |sent| {
                tx.send(7).expect("A's call is alive");
                *sent = true;
            })
        });
        assert!(b.separate(|s| s.query(|sent| *sent)), "B's call ran");
        (a.separate(|s| s.query(|n| *n)), rt.scheduler_peak_threads())
    });
    assert_eq!(received, 7, "A's call received B's message");
    assert!(peak >= 2, "no compensation worker was added: peak {peak}");
}

/// Which requests one block of the §2.2 check logs.
#[derive(Clone, Copy)]
enum Shape {
    CallsThenQuery,
    QueryOnly,
    CallsOnly,
}

/// One handler, `clients` clients, each running `blocks` blocks of rotating
/// shape; every request records `(client, block, seq)` in the object, `seq`
/// counting that client's requests.  Returns the handler's log.
fn mixed_blocks(
    config: RuntimeConfig,
    clients: usize,
    blocks: usize,
) -> Vec<(usize, usize, usize)> {
    let rt = Runtime::new(config);
    let h = rt.spawn_handler(Vec::<(usize, usize, usize)>::new());
    std::thread::scope(|scope| {
        for client in 0..clients {
            let h = h.clone();
            scope.spawn(move || {
                let mut seq = 0;
                let shapes = [Shape::CallsThenQuery, Shape::QueryOnly, Shape::CallsOnly];
                for block in 0..blocks {
                    let shape = shapes[(block + client) % shapes.len()];
                    h.separate(|s| {
                        if !matches!(shape, Shape::QueryOnly) {
                            for _ in 0..1 + block % 4 {
                                s.call(move |log| log.push((client, block, seq)));
                                seq += 1;
                            }
                        }
                        if !matches!(shape, Shape::CallsOnly) {
                            s.query(move |log| log.push((client, block, seq)));
                            seq += 1;
                        }
                    });
                }
            });
        }
    });
    assert!(
        rt.deadlock_reports().is_empty(),
        "{:?}",
        rt.deadlock_reports()
    );
    h.shutdown_and_take().expect("object")
}

#[test]
fn per_client_order_and_block_contiguity_hold_under_client_stepping() {
    let configs = [
        ("pooled, deadlock off", pooled()),
        (
            "pooled, deadlock report",
            pooled().with_deadlock_policy(DeadlockPolicy::Report),
        ),
        ("one worker", pooled().with_workers(1)),
    ];
    for (name, config) in configs {
        for clients in 2..=4 {
            const BLOCKS: usize = 400;
            let log = within(name, move || mixed_blocks(config, clients, BLOCKS));
            // Per-client order and exactly-once: each client's entries are
            // its sequence numbers 0, 1, 2, … in order.
            for client in 0..clients {
                let seqs: Vec<usize> = log
                    .iter()
                    .filter(|entry| entry.0 == client)
                    .map(|entry| entry.2)
                    .collect();
                assert!(
                    seqs.iter().copied().eq(0..seqs.len()),
                    "{name}, {clients} clients: client {client} out of order"
                );
            }
            // Block contiguity: once a block's run of entries ends, that
            // block never appears again.
            let mut finished = std::collections::HashSet::new();
            for pair in log.windows(2) {
                let (this, next) = ((pair[0].0, pair[0].1), (pair[1].0, pair[1].1));
                if this != next {
                    finished.insert(this);
                    assert!(
                        !finished.contains(&next),
                        "{name}, {clients} clients: block {next:?} interleaved"
                    );
                }
            }
            // The same, as the semantics states it.
            let mut trace = Trace::new();
            trace.extend(
                (0..clients)
                    .flat_map(|client| {
                        (0..BLOCKS).map(move |_| Event::Reserved {
                            client: format!("c{client}"),
                            handlers: vec!["h".into()],
                        })
                    })
                    .collect(),
            );
            trace.extend(
                log.iter()
                    .map(|&(client, block, seq)| Event::Scheduled {
                        handler: "h".into(),
                        client: format!("c{client}"),
                        method: format!("b{block}.{seq}"),
                    })
                    .collect(),
            );
            assert!(
                trace.per_client_blocks_are_contiguous("h"),
                "{name}, {clients} clients"
            );
        }
    }
}
