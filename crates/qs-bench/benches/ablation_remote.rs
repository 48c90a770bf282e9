//! Transport ablation for the §7 future-work direction: the same
//! counter workload against (a) an in-memory handler (shared-memory private
//! queues), (b) a remote node over byte channels with no latency (pure
//! serialisation overhead), and (c) a remote node with injected per-write
//! latency (a stand-in for a network hop; a block writes once per sync
//! point).
//!
//! The interesting shape: serialisation costs a constant factor on every
//! call, and latency multiplies with the number of *synchronous* operations —
//! which is exactly why the paper pushes sync-reduction so hard (§3.4).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qs_remote::{counter_registry, ChannelConfig, RemoteNode, RemoteObject, WireValue};
use qs_runtime::{Runtime, RuntimeConfig};

const CALLS_PER_BLOCK: i64 = 200;
const QUERIES_PER_BLOCK: i64 = 10;

fn in_memory(runtime: &Runtime) -> i64 {
    let counter = runtime.spawn_handler(0i64);
    let result = counter.separate(|s| {
        for _ in 0..CALLS_PER_BLOCK {
            s.call(|n| *n += 1);
        }
        let mut last = 0;
        for _ in 0..QUERIES_PER_BLOCK {
            last = s.query(|n| *n);
        }
        last
    });
    counter.stop();
    result
}

fn remote(config: ChannelConfig) -> i64 {
    let node = RemoteNode::spawn(
        "counter",
        RemoteObject::new(0i64, counter_registry()),
        config,
    );
    let proxy = node.proxy("bench");
    let result = proxy.separate(|s| {
        for _ in 0..CALLS_PER_BLOCK {
            s.call("add", vec![WireValue::Int(1)]).expect("call");
        }
        let mut last = 0;
        for _ in 0..QUERIES_PER_BLOCK {
            last = s
                .query("value", vec![])
                .expect("query")
                .as_int()
                .expect("int");
        }
        last
    });
    drop(node);
    result
}

fn ablation_remote(c: &mut Criterion) {
    let runtime = Runtime::new(RuntimeConfig::all_optimizations());

    let mut group = c.benchmark_group("ablation_remote_transport");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(800));

    group.bench_function(BenchmarkId::new("counter_block", "in_memory"), |b| {
        b.iter(|| in_memory(&runtime))
    });
    group.bench_function(
        BenchmarkId::new("counter_block", "remote_no_latency"),
        |b| b.iter(|| remote(ChannelConfig::fast())),
    );
    group.bench_function(
        BenchmarkId::new("counter_block", "remote_100us_latency"),
        |b| b.iter(|| remote(ChannelConfig::with_latency(Duration::from_micros(100)))),
    );
    group.finish();
}

criterion_group!(benches, ablation_remote);
criterion_main!(benches);
