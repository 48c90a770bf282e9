//! The Santa Claus problem (Trono, 1994) on event-driven wait conditions.
//!
//! Santa sleeps until either all nine reindeer are back from vacation
//! (deliver toys) or three elves queue up with questions (help them), with
//! reindeer taking priority.  It is the classic stress test for condition
//! synchronisation: three species of client park on overlapping disjunctive
//! conditions over one shared state, and every state change may wake a
//! different subset of them.
//!
//! In SCOOP/Qs the whole coordination problem is three wait conditions on a
//! single `NorthPole` handler:
//!
//! * Santa: `reserve(&np).when(|s| s.reindeer_back == 9 || s.elves_queued >= 3)`
//!   — the choice between the two duties (and reindeer priority) is made
//!   *under the reservation*, so it cannot race arrivals.
//! * A reindeer: arrive, then `when(|s| s.deliveries > my_round)` — park
//!   until this round's sleigh run is done.
//! * An elf: `when(|s| s.elves_queued < 3)` — park while a full group is
//!   waiting for Santa, so groups are exactly three.
//!
//! Every waiter parks on the handler's guard-waiter registry and is
//! signalled when a block completes on it; nobody polls.  The example runs
//! the season and asserts the exact toy/question accounting — and that the waiters genuinely parked and were woken by
//! signals (`guard_wakeups`), not by timers.
//!
//! Run with a hard timeout in CI: a lost wake-up turns this example into a
//! silent hang.

use std::time::Duration;

use scoop_qs::prelude::*;

const REINDEER: u32 = 9;
const DELIVERIES: u32 = 5;
const ELVES: u32 = 6;
const QUESTIONS_PER_ELF: u32 = 5;
/// Elves are helped in groups of exactly three.
const GROUPS: u32 = ELVES * QUESTIONS_PER_ELF / 3;

/// The shared state Santa and his helpers coordinate through.
#[derive(Default)]
struct NorthPole {
    /// Reindeer back from vacation, waiting at the stable (0..=9).
    reindeer_back: u32,
    /// Elves queued at Santa's door with a question (0..=3).
    elves_queued: u32,
    /// Completed sleigh runs.
    deliveries: u32,
    /// Elf groups helped.
    groups_helped: u32,
}

fn run_season(workers: usize) {
    let rt = Runtime::new(RuntimeConfig::all_optimizations().with_workers(workers));
    let north_pole = rt.spawn_handler(NorthPole::default());

    let reindeer: Vec<_> = (0..REINDEER)
        .map(|id| {
            let np = north_pole.clone();
            std::thread::spawn(move || {
                for round in 0..DELIVERIES {
                    // Vacation lengths differ, so the ninth arrival — the
                    // one that makes Santa's condition true — varies.
                    std::thread::sleep(Duration::from_millis(u64::from((id + round) % 4 + 1)));
                    np.call_detached(|s| s.reindeer_back += 1);
                    // Park until this round's delivery is done.
                    reserve(&np)
                        .when(move |s: &NorthPole| s.deliveries > round)
                        .run(|_| ());
                }
            })
        })
        .collect();

    let elves: Vec<_> = (0..ELVES)
        .map(|id| {
            let np = north_pole.clone();
            std::thread::spawn(move || {
                for question in 0..QUESTIONS_PER_ELF {
                    std::thread::sleep(Duration::from_millis(u64::from((id + question) % 3 + 1)));
                    // Join the queue only while there is room: groups are
                    // exactly three, enforced by the wait condition.
                    reserve(&np)
                        .when(|s: &NorthPole| s.elves_queued < 3)
                        .run(|guard| guard.call(|s| s.elves_queued += 1));
                }
            })
        })
        .collect();

    // Santa: sleep until there is work, prefer the reindeer, repeat until
    // the season is over.
    let (mut delivered, mut helped) = (0, 0);
    while delivered < DELIVERIES || helped < GROUPS {
        let (now_delivered, now_helped) = reserve(&north_pole)
            .when(|s: &NorthPole| s.reindeer_back == REINDEER || s.elves_queued >= 3)
            .run(|guard| {
                guard.call(|s| {
                    if s.reindeer_back == REINDEER {
                        s.reindeer_back = 0;
                        s.deliveries += 1;
                    } else {
                        s.elves_queued -= 3;
                        s.groups_helped += 1;
                    }
                });
                guard.query(|s| (s.deliveries, s.groups_helped))
            });
        (delivered, helped) = (now_delivered, now_helped);
    }

    for r in reindeer {
        r.join().unwrap();
    }
    for e in elves {
        e.join().unwrap();
    }

    let season = north_pole.query_detached(|s| (s.deliveries, s.groups_helped, s.elves_queued));
    assert_eq!(season, (DELIVERIES, GROUPS, 0), "season accounting");
    let snapshot = rt.stats_snapshot();
    assert!(
        snapshot.guard_signals > 0 && snapshot.guard_wakeups > 0,
        "waiters must park and be signalled, not poll: {snapshot:?}"
    );
    println!(
        "[{workers} workers] {DELIVERIES} deliveries, {GROUPS} elf groups; \
         {} condition evaluations, {} guard signals, {} parked wake-ups",
        snapshot.wait_condition_checks, snapshot.guard_signals, snapshot.guard_wakeups
    );
}

fn main() {
    run_season(4);
    println!("santa_claus: OK");
}
