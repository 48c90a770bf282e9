//! `many_handlers` — the M:N scheduler's load-bearing claim, measured:
//! ≥ 50,000 concurrently live, mostly-idle handlers run on `workers + O(1)`
//! OS threads, and every handler still responds when poked.
//!
//! Run with `cargo bench -p qs-bench --bench many_handlers`; it is a plain
//! `harness = false` binary, so failures are loud assertions.

use qs_bench::experiments::process_threads;
use qs_runtime::{OptimizationLevel, Runtime};

const IDLE_FLEET: usize = 50_000;

/// A 50k mostly-idle fleet costs pool-plus-epsilon threads.
fn idle_fleet_thread_bound() {
    let rt = Runtime::new(OptimizationLevel::All.config());
    let workers = rt.config().effective_workers();
    let threads_before = process_threads();

    let fleet: Vec<_> = (0..IDLE_FLEET).map(|_| rt.spawn_handler(0u64)).collect();
    // Poke a scattered subset so the fleet is "mostly idle", not "never
    // scheduled": every poked handler must round-trip.
    for (i, handler) in fleet.iter().enumerate().step_by(997) {
        handler.call_detached(move |n| *n = i as u64);
    }
    for (i, handler) in fleet.iter().enumerate().step_by(997) {
        assert_eq!(
            handler.query_detached(|n| *n),
            i as u64,
            "handler {i} lost its poke"
        );
    }

    let peak_sched = rt.scheduler_peak_threads();
    let threads_now = process_threads();
    println!(
        "idle fleet: {IDLE_FLEET} live handlers | pool workers {workers} | \
         scheduler peak threads {peak_sched} | process threads {threads_before} -> {threads_now}"
    );
    // workers + O(1): core workers plus a small compensation allowance.
    assert!(
        peak_sched <= workers + 16,
        "50k idle handlers must not grow the pool: peak {peak_sched} vs {workers} workers"
    );
    drop(fleet);
}

fn main() {
    idle_fleet_thread_bound();
    println!("many_handlers: the claim holds");
}
