//! Shared-read reservations on a hot handler: a read-mostly leaderboard.
//!
//! One handler owns the leaderboard; one writer keeps recording scores while
//! N reader threads hammer it with ranking queries.  Run once with the
//! readers taking **exclusive** reservations (the classic SCOOP posture:
//! every client serialises on the handler) and once with **shared-read**
//! reservations (`reserve(&board).read()`), where queries commute and
//! execute concurrently on the client threads without involving the handler
//! at all.
//!
//! Each reader checks the leaderboard invariant (scores sorted descending)
//! on every observation — a torn read of a mid-update board would trip the
//! assertion — and the run ends by printing the runtime's reader-concurrency
//! statistics: `peak_concurrent_readers` proves readers genuinely overlapped
//! and `writer_waits` shows the writer being (briefly, thanks to writer
//! preference) held out by the read crowd.
//!
//! Run with `cargo run --release --example hot_reads` (pass `smoke` for the
//! quick CI-sized run).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use scoop_qs::prelude::*;

/// A score table the writer keeps sorted descending; the sort order is the
/// invariant every reader re-checks on every query.
struct Leaderboard {
    entries: Vec<(u32, u64)>, // (player, score)
    updates: u64,
}

impl Leaderboard {
    fn new(players: u32) -> Self {
        Leaderboard {
            entries: (0..players).map(|p| (p, 0)).collect(),
            updates: 0,
        }
    }

    /// One write: bump a player's score and restore the sort order.  The
    /// board is momentarily unsorted inside this method — which is exactly
    /// what a torn read would observe.
    fn record(&mut self, player: u32, delta: u64) {
        if let Some(entry) = self.entries.iter_mut().find(|(p, _)| *p == player) {
            entry.1 += delta;
        }
        self.entries.sort_by_key(|entry| std::cmp::Reverse(entry.1));
        self.updates += 1;
    }

    fn top(&self) -> (u32, u64) {
        assert!(
            self.entries.windows(2).all(|w| w[0].1 >= w[1].1),
            "torn read: leaderboard observed unsorted"
        );
        self.entries[0]
    }
}

fn main() {
    let smoke = std::env::args().nth(1).as_deref() == Some("smoke");
    let (readers, reads_per_reader) = if smoke { (4, 20_000) } else { (8, 100_000) };
    println!("== hot_reads: {readers} readers x {reads_per_reader} queries + 1 writer ==\n");

    let exclusive = run(readers, reads_per_reader, false);
    let shared = run(readers, reads_per_reader, true);
    println!(
        "\nshared-read speed-up over exclusive: {:.2}x",
        shared / exclusive
    );
}

/// Drives the workload and returns read throughput (queries/second).
fn run(readers: usize, reads_per_reader: usize, shared: bool) -> f64 {
    let rt = Runtime::new(RuntimeConfig::all_optimizations());
    let board = rt.spawn_handler(Leaderboard::new(16));
    let stop_writer = Arc::new(AtomicBool::new(false));
    // The writer starts only once every reader has left its opening read
    // block: an announced writer refuses new readers, so a writer running
    // during the rendezvous below would wait for the readers already in,
    // while they wait at the rendezvous for the readers it keeps out.
    let writer_start = Arc::new(Barrier::new(readers + 1));

    let writer = {
        let board = board.clone();
        let stop = Arc::clone(&stop_writer);
        let start = Arc::clone(&writer_start);
        std::thread::spawn(move || {
            start.wait();
            let mut player = 0u32;
            while !stop.load(Ordering::Acquire) {
                player = (player + 7) % 16;
                let p = player;
                // Synced exclusive write: record, then query so the command
                // is applied (and contends with the read crowd) right now.
                board.separate(|s| {
                    s.call(move |b| b.record(p, 5));
                    s.query(|b| b.updates)
                });
            }
        })
    };

    // Open with every reader parked on a barrier inside its read block: a
    // deterministic record of reader overlap (sub-microsecond holds in the
    // hot loop can convoy and serialise for long stretches, so sampling
    // overlap from the loop alone is unreliable).
    let rendezvous = Arc::new(Barrier::new(readers));
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..readers {
            let board = board.clone();
            let rendezvous = Arc::clone(&rendezvous);
            let writer_start = Arc::clone(&writer_start);
            scope.spawn(move || {
                if shared {
                    reserve(&board).read().run(|_| rendezvous.wait());
                }
                writer_start.wait();
                let mut last_top = 0u64;
                for _ in 0..reads_per_reader {
                    let (_, top) = if shared {
                        reserve(&board).read().run(|b| b.query(|board| board.top()))
                    } else {
                        board.separate(|s| s.query(|board| board.top()))
                    };
                    // Scores only grow: each reader's view is monotonic.
                    assert!(top >= last_top, "leaderboard ran backwards");
                    last_top = top;
                }
            });
        }
    });
    let elapsed = started.elapsed();
    stop_writer.store(true, Ordering::Release);
    writer.join().unwrap();

    let total_reads = (readers * reads_per_reader) as f64;
    let throughput = total_reads / elapsed.as_secs_f64();
    let snap = rt.stats_snapshot();
    let label = if shared { "shared-read" } else { "exclusive " };
    println!(
        "[{label}] {total_reads:>9.0} reads in {elapsed:?} ({throughput:>12.0} reads/s) | \
         writer updates: {}",
        board.query_detached(|b| b.updates),
    );
    println!(
        "             read_reservations: {:>8}  peak_concurrent_readers: {:>2}  writer_waits: {}",
        snap.read_reservations, snap.peak_concurrent_readers, snap.writer_waits
    );
    if shared {
        assert!(
            snap.peak_concurrent_readers >= readers as u64,
            "shared-read run never overlapped its {readers} readers"
        );
    }
    throughput
}
