//! Shared-read reservations: safety, linearisability and deadlock-breaking
//! tests across all five optimisation levels.
//!
//! The invariants under test:
//!
//! * **No torn state**: a reader can never observe the object in the middle
//!   of a command (or of a mutating client-executed query) — every `&mut`
//!   site takes the object's gate in write mode first.
//! * **Reader concurrency**: readers genuinely share the reservation (a
//!   barrier across N concurrent read blocks completes, which would
//!   deadlock if reads serialised).
//! * **Linearisability against exclusive access**: a value observed under a
//!   read reservation is never newer than what a subsequent exclusive
//!   reservation sees, and writes a client made exclusively are visible to
//!   its own later reads.
//! * **Commands are rejected** with the typed
//!   [`MailboxError::ReadOnlyReservation`] error, not silently upgraded.
//! * **Reader/writer cycles** are confirmed by the deadlock detector and
//!   broken at the (breakable) read acquisition.
//! * **No lost wake-ups**: the two hangs the benchmark found (a `Parker`
//!   ping-pong and the 2-client read mix whose readers park on it) finish
//!   under a watchdog instead of hanging the suite.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use scoop_qs::prelude::*;
use scoop_qs::runtime::read;
use scoop_qs::sync::Parker;

/// Core workers of the pool these tests' handlers run on.
const WORKERS: usize = 4;

/// The pair invariant every writer maintains *between* commands but breaks
/// *inside* them: `b == 2 * a`.  Observing `b != 2 * a` means a reader saw
/// the middle of a write.
fn check_pair(pair: &(u64, u64), context: &str) {
    assert_eq!(
        pair.1,
        2 * pair.0,
        "{context}: reader observed a torn write ({pair:?})"
    );
}

#[test]
fn readers_never_observe_torn_state_across_all_configs() {
    for level in OptimizationLevel::ALL {
        let context = level.to_string();
        let rt = Runtime::new(level.config().with_workers(WORKERS));
        let h = rt.spawn_handler((0u64, 0u64));

        let writer = {
            let h = h.clone();
            std::thread::spawn(move || {
                for _ in 0..300 {
                    // Asynchronous command: invariant broken mid-closure.
                    h.separate(|s| {
                        s.call(|p| {
                            p.0 += 1;
                            p.1 = 2 * p.0;
                        });
                    });
                }
            })
        };
        let mutating_querier = {
            let h = h.clone();
            let context = context.clone();
            std::thread::spawn(move || {
                for _ in 0..150 {
                    // Client-executed (on Dynamic/Static/All) mutating
                    // query: the other `&mut` site the gate must cover.
                    let observed = h.separate(|s| {
                        s.query(|p| {
                            p.0 += 1;
                            p.1 = 2 * p.0;
                            *p
                        })
                    });
                    check_pair(&observed, &context);
                }
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let h = h.clone();
                let context = context.clone();
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        reserve(&h).read().run(|r| {
                            check_pair(&r.query(|p| *p), &context);
                            check_pair(r.peek(), &context);
                        });
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        mutating_querier.join().unwrap();
        for reader in readers {
            reader.join().unwrap();
        }
        let observed = h.query_detached(|p| *p);
        assert_eq!(observed, (450, 900), "{context}");
        let snap = rt.stats_snapshot();
        assert!(
            snap.read_reservations >= 600,
            "{context}: read reservations must be counted, got {}",
            snap.read_reservations
        );
    }
}

#[test]
fn readers_hold_the_reservation_concurrently() {
    // N threads park on a barrier *inside* their read blocks: completion is
    // proof the reservation is genuinely shared (serialised readers would
    // deadlock here), and the peak-reader statistic must have seen them.
    const N: usize = 4;
    let rt = Runtime::new(RuntimeConfig::all_optimizations().with_workers(WORKERS));
    let h = rt.spawn_handler(7u64);
    let barrier = Arc::new(Barrier::new(N));
    let threads: Vec<_> = (0..N)
        .map(|_| {
            let h = h.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                reserve(&h).read().run(|r| {
                    barrier.wait();
                    r.query(|n| *n)
                })
            })
        })
        .collect();
    for thread in threads {
        assert_eq!(thread.join().unwrap(), 7);
    }
    let snap = rt.stats_snapshot();
    assert!(
        snap.peak_concurrent_readers >= N as u64,
        "peak readers {} < {N}",
        snap.peak_concurrent_readers
    );
}

#[test]
fn reads_linearise_against_exclusive_access() {
    for level in OptimizationLevel::ALL {
        let context = level.to_string();
        let rt = Runtime::new(level.config().with_workers(WORKERS));
        let h = rt.spawn_handler(0u64);
        let stop = Arc::new(AtomicU64::new(0));

        let writer = {
            let h = h.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while stop.load(Ordering::Acquire) == 0 {
                    h.separate(|s| s.call(|n| *n += 1));
                }
            })
        };
        // Monotonicity: a read observation never exceeds a later
        // exclusive observation (the counter only grows).
        for _ in 0..100 {
            let under_read = reserve(&h).read().run(|r| r.query(|n| *n));
            let under_exclusive = h.separate(|s| s.query(|n| *n));
            assert!(
                under_read <= under_exclusive,
                "{context}: read saw {under_read}, later exclusive saw {under_exclusive}"
            );
        }
        stop.store(1, Ordering::Release);
        writer.join().unwrap();

        // Read-your-writes: a *synced* exclusive write is visible to the
        // same client's subsequent read reservation.  (The sync matters:
        // read reservations observe the object directly and do not wait
        // for commands still sitting in private queues.)
        let marker = 1_000_000u64;
        h.separate(|s| {
            s.call(move |n| *n = marker);
            s.query(|n| *n)
        });
        let seen = reserve(&h).read().run(|r| r.query(|n| *n));
        assert!(
            seen >= marker,
            "{context}: read reservation missed the client's own write ({seen})"
        );
    }
}

#[test]
fn commands_through_a_read_reservation_fail_with_the_typed_error() {
    for level in [OptimizationLevel::All, OptimizationLevel::None] {
        let rt = Runtime::with_level(level);
        let h = rt.spawn_handler(5u32);
        reserve(&h).read().run(|r| {
            let err = r.call(|n| *n += 1).unwrap_err();
            assert_eq!(
                err,
                MailboxError::ReadOnlyReservation { handler: h.id() },
                "{level}"
            );
            assert!(format!("{err}").contains("read mode"), "{level}");
            let err = r.try_call(|n| *n += 1).unwrap_err();
            assert!(
                matches!(err, MailboxError::ReadOnlyReservation { .. }),
                "{level}"
            );
        });
        // The rejected commands never reached the handler.
        assert_eq!(h.query_detached(|n| *n), 5, "{level}");
        rt.stats_snapshot();
    }
}

#[test]
fn read_members_mix_with_exclusive_members_in_one_set() {
    for level in [OptimizationLevel::All, OptimizationLevel::None] {
        let context = level.to_string();
        let rt = Runtime::new(level.config().with_workers(WORKERS));
        let config = rt.spawn_handler(10u64);
        let audit = rt.spawn_handler(Vec::<u64>::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let (config, audit) = (config.clone(), audit.clone());
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        reserve((read(&config), &audit)).run(|(cfg, log)| {
                            let threshold = cfg.query(|t| *t);
                            log.call(move |entries| entries.push(threshold));
                        });
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
        let entries = audit.query_detached(|v| v.clone());
        assert_eq!(entries.len(), 200, "{context}");
        assert!(entries.iter().all(|&t| t == 10), "{context}");
    }
}

#[test]
fn wait_conditions_work_on_read_reservations() {
    let rt = Runtime::new(RuntimeConfig::all_optimizations().with_workers(WORKERS));
    let h = rt.spawn_handler(0u64);
    let feeder = {
        let h = h.clone();
        std::thread::spawn(move || {
            for _ in 0..100 {
                h.separate(|s| s.call(|n| *n += 1));
            }
        })
    };
    // Single read member...
    let seen = reserve(&h)
        .read()
        .when(|n: &u64| *n >= 100)
        .run(|r| r.query(|n| *n));
    assert!(seen >= 100, "condition ran before it held ({seen})");
    // ...and a read member inside a guarded mixed tuple.
    let sink = rt.spawn_handler(0u64);
    let copied = reserve((read(&h), &sink))
        .when(|n: &u64, _s: &u64| *n >= 100)
        .run(|(r, s)| {
            let value = r.query(|n| *n);
            s.call(move |t| *t = value);
            s.query(|t| *t)
        });
    assert!(copied >= 100);
    feeder.join().unwrap();
}

#[test]
fn slice_reservations_downgrade_to_read() {
    let rt = Runtime::new(RuntimeConfig::all_optimizations());
    let handlers: Vec<_> = (0..5).map(|i| rt.spawn_handler(i as u64)).collect();
    let total = reserve(&handlers)
        .read()
        .run(|guards| guards.iter().map(|g| g.query(|v| *v)).sum::<u64>());
    assert_eq!(total, (0..5).sum());
    // Wait conditions see the whole slice.
    let all_positive = reserve(&handlers[1..])
        .read()
        .when(|objects: &[&u64]| objects.iter().all(|v| **v >= 1))
        .run(|guards| guards.len());
    assert_eq!(all_positive, 4);
}

#[test]
#[should_panic(expected = "same handler twice")]
fn duplicate_handlers_rejected_across_modes() {
    let rt = Runtime::new(RuntimeConfig::all_optimizations());
    let h = rt.spawn_handler(0u8);
    // Exclusive + read of the same handler is as self-deadlocking as
    // exclusive twice: rejected eagerly, whatever the member modes.
    reserve((read(&h), &h)).run(|_| ());
}

/// The deterministic reader/writer cycle, confirmed and broken:
///
/// * client X holds `read(B)` and blocks acquiring `read(A)` — handler A is
///   mid-batch, so A's gate is write-held (`ReadWait` X → A);
/// * handler A's running call performs a nested query against B and parks
///   on its handoff (`Query` A → B);
/// * handler B cannot apply the batch containing that query: its write gate
///   is blocked behind X's read hold (`WriterWait` B → X).
///
/// The only breakable edge on the cycle is X's read acquisition: `Break`
/// fails it, X panics with [`MailboxError::DeadlockBroken`], its unwind
/// releases `read(B)`, and the whole chain drains.
#[test]
fn reader_writer_cycle_is_broken_at_the_read_acquisition() {
    let rt = Runtime::new(
        RuntimeConfig::all_optimizations()
            .with_workers(WORKERS)
            .with_deadlock_policy(DeadlockPolicy::Break),
    );
    let a = rt.spawn_handler(0u64);
    let b = rt.spawn_handler(0u64);

    let x_holds_read_b = Arc::new(scoop_qs::sync::Event::new());
    let a_is_applying = Arc::new(scoop_qs::sync::Event::new());

    // Client X: holds read(B), then blocks acquiring read(A).
    let client_x = {
        let (a, b) = (a.clone(), b.clone());
        let x_holds_read_b = Arc::clone(&x_holds_read_b);
        let a_is_applying = Arc::clone(&a_is_applying);
        std::thread::spawn(move || {
            reserve(&b).read().run(|rb| {
                x_holds_read_b.set();
                // Only attempt read(A) once handler A provably holds its
                // write gate, so the acquisition genuinely blocks.
                a_is_applying.wait();
                reserve(&a)
                    .read()
                    .run(|ra| ra.query(|n| *n) + rb.query(|n| *n))
            })
        })
    };

    // Handler A: a logged call that (while A's write gate is held for
    // the whole batch) queries B — which can never answer, because B's
    // writer is blocked behind X.
    x_holds_read_b.wait();
    let a_signal = Arc::clone(&a_is_applying);
    let b_for_a = b.clone();
    a.call_detached(move |n| {
        a_signal.set();
        *n = reserve(&b_for_a).run(|sb| sb.query(|m| *m + 1));
    });

    // X must be failed with the typed break error...
    let payload = client_x
        .join()
        .expect_err("client X must be broken out of the deadlock");
    let error = payload
        .downcast_ref::<MailboxError>()
        .expect("break surfaces as MailboxError");
    assert_eq!(*error, MailboxError::DeadlockBroken { handler: a.id() });

    // ...after which every party drains: A's nested query completes.
    assert_eq!(a.query_detached(|n| *n), 1);
    assert_eq!(b.query_detached(|n| *n), 0);

    // The report names the reader/writer cycle.
    let reports = rt.deadlock_reports();
    assert!(!reports.is_empty(), "cycle must be reported");
    let kinds: Vec<_> = reports.iter().flat_map(|r| r.kinds()).collect();
    assert!(kinds.contains(&DeadlockEdgeKind::ReadWait), "{kinds:?}");
    assert!(kinds.contains(&DeadlockEdgeKind::WriterWait), "{kinds:?}");
    let snap = rt.stats_snapshot();
    assert!(snap.deadlocks_broken >= 1);
    assert!(snap.writer_waits >= 1, "B's blocked writer must be counted");
}

/// Runs `body` on its own thread and fails the test, instead of hanging it,
/// when `body` has not returned within `limit`: a lost wake-up leaves its
/// threads in `futex_wait` forever.
fn within<T: Send + 'static>(
    limit: Duration,
    what: &str,
    body: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (done, result) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(body());
    });
    result
        .recv_timeout(limit)
        .unwrap_or_else(|_| panic!("{what}: still running after {limit:?}, a wake-up was lost"))
}

/// Two threads pass a ball over two parkers with plain `park_until`: every
/// hop is one `wake` racing one registration, and a waiter often moves on
/// by itself (it sees the ball before parking) while its waker is still
/// inside `wake` — the window in which a waker that removes the thread
/// slot in a second step steals the waiter's *next* registration.
#[test]
fn parker_ping_pong_loses_no_wakeup() {
    const HOPS: usize = 400_000;

    fn take_ball(ball: &AtomicBool, parker: &Parker) {
        while !ball.swap(false, Ordering::AcqRel) {
            parker.park_until(|| ball.load(Ordering::Acquire));
        }
    }

    fn pass_ball(ball: &AtomicBool, parker: &Parker) {
        ball.store(true, Ordering::Release);
        parker.wake();
    }

    within(Duration::from_secs(60), "parker ping-pong", || {
        let here = Arc::new((AtomicBool::new(false), Parker::new()));
        let there = Arc::new((AtomicBool::new(false), Parker::new()));
        let peer = {
            let (here, there) = (Arc::clone(&here), Arc::clone(&there));
            std::thread::spawn(move || {
                for _ in 0..HOPS / 2 {
                    take_ball(&there.0, &there.1);
                    pass_ball(&here.0, &here.1);
                }
            })
        };
        for _ in 0..HOPS / 2 {
            pass_ball(&there.0, &there.1);
            take_ball(&here.0, &here.1);
        }
        peer.join().unwrap();
    });
}

/// The reproduction from `benchmark/README.md` § Not included: two clients,
/// 1 % exclusive writes, the rest shared reads, on one handler for two
/// seconds.  Readers refused by an announced writer park on a `Parker`
/// enlisted with the gate; losing one of those wakes stops both clients.
#[test]
fn two_client_read_mix_with_rare_writes_keeps_running() {
    const WINDOW: Duration = Duration::from_secs(2);
    let (reads, value) = within(
        Duration::from_secs(30),
        "2-client 1 %-write mix",
        move || {
            let rt = Runtime::new(RuntimeConfig::all_optimizations().with_workers(WORKERS));
            let h = rt.spawn_handler(0u64);
            let clients: Vec<_> = (0..2)
                .map(|_| {
                    let h = h.clone();
                    std::thread::spawn(move || {
                        let started = Instant::now();
                        let (mut reads, mut writes) = (0u64, 0u64);
                        let mut i = 0u64;
                        while started.elapsed() < WINDOW {
                            if i.is_multiple_of(100) {
                                h.separate(|s| s.call(|n| *n += 1));
                                writes += 1;
                            } else {
                                reserve(&h).read().run(|r| r.query(|n| *n));
                                reads += 1;
                            }
                            i += 1;
                        }
                        (reads, writes)
                    })
                })
                .collect();
            let (mut reads, mut writes) = (0, 0);
            for client in clients {
                let (r, w) = client.join().unwrap();
                reads += r;
                writes += w;
            }
            let value = h.query_detached(|n| *n);
            assert_eq!(value, writes, "every write applied exactly once");
            (reads, value)
        },
    );
    assert!(reads > 0 && value > 0, "the mix made no progress");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property: under any mix of reader/writer interleavings the pair
    /// invariant holds for every read observation and the final state
    /// matches the write count exactly.
    #[test]
    fn random_reader_writer_mixes_stay_consistent(
        writes in 1usize..120,
        readers in 1usize..4,
        reads_per_reader in 1usize..60,
        workers in 1usize..3,
    ) {
        let rt = Runtime::new(RuntimeConfig::all_optimizations().with_workers(workers));
        let h = rt.spawn_handler((0u64, 0u64));
        let writer = {
            let h = h.clone();
            std::thread::spawn(move || {
                for _ in 0..writes {
                    h.separate(|s| s.call(|p| { p.0 += 1; p.1 = 2 * p.0; }));
                }
            })
        };
        let reader_threads: Vec<_> = (0..readers).map(|_| {
            let h = h.clone();
            std::thread::spawn(move || {
                for _ in 0..reads_per_reader {
                    let seen = reserve(&h).read().run(|r| r.query(|p| *p));
                    prop_assert_eq!(seen.1, 2 * seen.0, "torn read: {:?}", seen);
                }
                Ok(())
            })
        }).collect();
        writer.join().unwrap();
        for reader in reader_threads {
            reader.join().unwrap()?;
        }
        prop_assert_eq!(h.query_detached(|p| *p), (writes as u64, 2 * writes as u64));
    }
}
