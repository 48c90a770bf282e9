//! Scheduling-layer ablation: the [`qs_exec::ThreadPool`] on balanced and
//! imbalanced fork/join workloads, plus the M:N handler pool on a fan-out /
//! fan-in workload over live handlers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qs_exec::ThreadPool;
use qs_runtime::{OptimizationLevel, Runtime};

const TASKS: usize = 512;
const WORK: u64 = 2_000;

fn busy_work(iterations: u64) -> u64 {
    let mut accumulator = 0u64;
    for i in 0..iterations {
        accumulator = accumulator
            .wrapping_mul(6364136223846793005)
            .wrapping_add(i);
    }
    accumulator
}

/// Balanced: every task is submitted externally and costs the same.
fn balanced_shared_pool(pool: &ThreadPool) -> u64 {
    let total = Arc::new(AtomicU64::new(0));
    for _ in 0..TASKS {
        let total = Arc::clone(&total);
        pool.spawn(move || {
            total.fetch_add(busy_work(WORK) & 1, Ordering::Relaxed);
        });
    }
    pool.wait_idle();
    total.load(Ordering::Relaxed)
}

/// Imbalanced: one seed task fans out all the real work from inside the pool.
fn imbalanced_shared_pool(pool: &Arc<ThreadPool>) -> u64 {
    let total = Arc::new(AtomicU64::new(0));
    {
        let total = Arc::clone(&total);
        let inner = Arc::clone(pool);
        pool.spawn(move || {
            for _ in 0..TASKS {
                let total = Arc::clone(&total);
                inner.spawn(move || {
                    total.fetch_add(busy_work(WORK) & 1, Ordering::Relaxed);
                });
            }
        });
    }
    pool.wait_idle();
    total.load(Ordering::Relaxed)
}

fn ablation_scheduler(c: &mut Criterion) {
    let threads = qs_exec::default_parallelism().min(8);
    let shared = Arc::new(ThreadPool::new(threads));

    let mut group = c.benchmark_group("ablation_scheduler");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(800));

    group.bench_with_input(
        BenchmarkId::new("balanced", "shared_queue"),
        &shared,
        |b, pool| b.iter(|| balanced_shared_pool(pool)),
    );
    group.bench_with_input(
        BenchmarkId::new("imbalanced", "shared_queue"),
        &shared,
        |b, pool| b.iter(|| imbalanced_shared_pool(pool)),
    );
    group.finish();
}

/// Fan-out/fan-in over `handlers` live handlers: one separate block of
/// `calls` asynchronous calls per handler, then a query per handler.
fn handler_fan_out(rt: &Runtime, handlers: usize, calls: usize) -> u64 {
    let fleet: Vec<_> = (0..handlers).map(|_| rt.spawn_handler(0u64)).collect();
    for handler in &fleet {
        handler.separate(|s| {
            for _ in 0..calls {
                s.call(|n| *n += 1);
            }
        });
    }
    let total: u64 = fleet.iter().map(|h| h.query_detached(|n| *n)).sum();
    assert_eq!(total, (handlers * calls) as u64);
    total
}

fn ablation_handler_scheduling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_handler_scheduling");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(800));

    let rt = Runtime::new(OptimizationLevel::All.config());
    group.bench_with_input(
        BenchmarkId::new("fan_out_8_handlers", "pooled"),
        &rt,
        |b, rt| b.iter(|| handler_fan_out(rt, 8, 200)),
    );
    group.bench_with_input(
        BenchmarkId::new("fan_out_256_handlers", "pooled"),
        &rt,
        |b, rt| b.iter(|| handler_fan_out(rt, 256, 8)),
    );
    group.finish();
}

criterion_group!(benches, ablation_scheduler, ablation_handler_scheduling);
criterion_main!(benches);
