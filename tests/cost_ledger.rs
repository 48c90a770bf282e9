//! Allocation ledger: the exact number of heap allocations a client thread
//! makes per separate block, for the shapes the benchmark's `sync_query`
//! and `bank_transfer` workloads run.
//!
//! A counting global allocator over [`System`] tallies allocations per
//! thread, so a count is the client's own: a handler step that runs on a
//! pool worker does not show up in it.  Each shape is warmed up first, so
//! one-time growth (the handler's batch buffer, the client's spare rings)
//! is out of the count, and the count is the fewest over several rounds:
//! a shared structure the client pushes into (the pool's run queue) still
//! grows now and then when its backlog reaches a new high, which is not a
//! cost of the block, while a per-block allocation shows in every round.
//! Run with `--nocapture` to print the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use scoop_qs::prelude::*;

/// [`System`], counting every allocation (a `realloc` included) on the
/// calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counting touches only a const-initialised thread-local
// cell, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes while running `body`.
fn allocations_in(body: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    body();
    ALLOCATIONS.with(Cell::get) - before
}

const WARM_UP: usize = 1_000;
const ROUNDS: usize = 5;
const BLOCKS_PER_ROUND: u64 = 40;

/// The fewest allocations per block the calling thread made over
/// [`ROUNDS`] rounds of [`BLOCKS_PER_ROUND`] runs of `block`, after
/// [`WARM_UP`] unmeasured runs; `between` runs after every block, unmeasured.
fn allocations_per_block(mut block: impl FnMut(), mut between: impl FnMut()) -> f64 {
    for _ in 0..WARM_UP {
        block();
        between();
    }
    let fewest = (0..ROUNDS)
        .map(|_| {
            (0..BLOCKS_PER_ROUND)
                .map(|_| {
                    let allocations = allocations_in(&mut block);
                    between();
                    allocations
                })
                .sum::<u64>()
        })
        .min()
        .unwrap_or_default();
    fewest as f64 / BLOCKS_PER_ROUND as f64
}

/// One query on a warm handler: the block runs entirely on the client
/// (its sync and its END step the handler here), so the count is exact.
/// The two allocations left are the queue-of-queues node that registers
/// the block's private queue and the block's sync handoff; the private
/// queue itself is a ring the previous block handed back.
#[test]
fn a_one_query_block_allocates_its_queue_node_and_sync_handoff() {
    let rt = Runtime::new(RuntimeConfig::all_optimizations());
    let pair = rt.spawn_handler((3u64, 6u64));
    let block = || {
        let (x, y) = pair.separate(|s| s.query(|p| *p));
        assert_eq!(y, 2 * x);
    };
    let allocations = allocations_per_block(block, || ());
    println!("one-query block: {allocations} allocations per block");
    assert_eq!(allocations, 2.0);
}

/// Two handlers, one call each, the block ended unsynced: the pool's
/// workers process both closes.  Before each measured block both handlers
/// are quiesced with a synced block, which returns only after the handler
/// processed the measured block's close — so its rings are back with the
/// client, and the count does not race the pool.  The five allocations left
/// are the two queue-of-queues nodes, the two members' sync handoffs (made
/// whether or not the block syncs) and the vector holding the set's
/// reservation spinlocks; the calls capture nothing, so boxing them
/// allocates nothing.
#[test]
fn a_two_handler_two_call_block_reuses_both_rings() {
    let rt = Runtime::new(RuntimeConfig::all_optimizations());
    let from = rt.spawn_handler(1_000i64);
    let to = rt.spawn_handler(1_000i64);
    // Four empty blocks on handlers of the same type, nested so they are
    // open at once: four rings, all handed back at their ends, so the
    // client has spares for the measured block whatever the quiescing
    // blocks still hold.
    let spare = rt.spawn_handler(0i64);
    let extra = rt.spawn_handler(0i64);
    from.separate(|_| to.separate(|_| spare.separate(|_| extra.separate(|_| ()))));
    let transfer = || {
        reserve((&from, &to)).run(|(a, b)| {
            a.call(|balance| *balance -= 1);
            b.call(|balance| *balance += 1);
        })
    };
    let quiesce = || {
        from.separate(|s| s.sync());
        to.separate(|s| s.sync());
    };
    let allocations = allocations_per_block(transfer, quiesce);
    println!("two-handler two-call block: {allocations} allocations per block");
    assert_eq!(allocations, 5.0);
    let total = reserve((&from, &to)).run(|(a, b)| a.query(|v| *v) + b.query(|v| *v));
    assert_eq!(total, 2_000);
}
