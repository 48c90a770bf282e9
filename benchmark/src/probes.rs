//! Layer probes: each times one public function of one crate in isolation,
//! from outside, as nanoseconds per operation (median of a few repetitions).
//! Where it applies there is an uncontended and a contended (cross-thread)
//! variant.  `README.md` records which end-to-end metric each should move.

use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qs_cluster::{bank_service, ClusterClient, NodeConfig, NodeServer};
use qs_exec::{HandlerScheduler, PooledTask, StepOutcome};
use qs_queues::{bounded_spsc_channel, spsc_channel, MutexQueue, QueueOfQueues};
use qs_remote::node::SocketProxy;
use qs_remote::{
    counter_registry, decode_frame, encode_frame, ChannelConfig, Frame, NodeAddr, NodeListener,
    RemoteNode, RemoteObject, RemoteSeparate, WireValue,
};
use qs_runtime::{reserve, Runtime, RuntimeConfig};
use qs_sync::{Handoff, Parker, ReadGate};

use crate::stats::median;

const REPETITIONS: usize = 3;
/// The default mailbox is a bounded ring of this capacity.
const RING: usize = 1024;

/// Calls `op` in batches until `budget` has passed; nanoseconds per call.
fn time_loop(budget: Duration, batch: u64, mut op: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        for _ in 0..batch {
            op();
        }
        calls += batch;
        let elapsed = start.elapsed();
        if elapsed >= budget {
            return elapsed.as_nanos() as f64 / calls as f64;
        }
    }
}

/// Runs `round` (which returns nanoseconds spent and operations done) until
/// `budget` has passed; nanoseconds per operation.
fn time_rounds(budget: Duration, mut round: impl FnMut() -> (u64, u64)) -> f64 {
    let start = Instant::now();
    let (mut nanos, mut operations) = (0u64, 0u64);
    while start.elapsed() < budget || operations == 0 {
        let (n, o) = round();
        nanos += n;
        operations += o;
    }
    nanos as f64 / operations as f64
}

fn spin_until(condition: impl Fn() -> bool) {
    while !condition() {
        std::hint::spin_loop();
    }
}

/// A consumer thread draining `items`-sized rounds pushed by the caller:
/// nanoseconds per item from first push to last pop.
fn cross_thread(budget: Duration, push: impl Fn(u64), pop: impl Fn() -> bool + Send) -> f64 {
    const ITEMS: u64 = 20_000;
    let popped = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let pop = pop;
            while !done.load(Ordering::Acquire) {
                if pop() {
                    popped.fetch_add(1, Ordering::Release);
                } else {
                    std::hint::spin_loop();
                }
            }
        });
        let mut pushed = 0u64;
        let per_item = time_rounds(budget, || {
            let start = Instant::now();
            for i in 0..ITEMS {
                push(i);
            }
            pushed += ITEMS;
            spin_until(|| popped.load(Ordering::Acquire) == pushed);
            (start.elapsed().as_nanos() as u64, ITEMS)
        });
        done.store(true, Ordering::Release);
        per_item
    })
}

fn spsc_push_pop(budget: Duration) -> f64 {
    let (tx, rx) = spsc_channel::<u64>();
    let mut i = 0u64;
    time_loop(budget, 1024, || {
        i += 1;
        tx.enqueue(i);
        black_box(rx.try_dequeue().expect("open"));
    })
}

fn spsc_xthread(budget: Duration) -> f64 {
    let (tx, rx) = spsc_channel::<u64>();
    cross_thread(
        budget,
        |i| tx.enqueue(i),
        move || matches!(rx.try_dequeue(), Ok(Some(_))),
    )
}

fn bounded_push_pop(budget: Duration) -> f64 {
    let (tx, rx) = bounded_spsc_channel::<u64>(RING);
    let mut i = 0u64;
    time_loop(budget, 1024, || {
        i += 1;
        tx.push(i);
        black_box(rx.try_dequeue().expect("open"));
    })
}

fn bounded_xthread(budget: Duration) -> f64 {
    let (tx, rx) = bounded_spsc_channel::<u64>(RING);
    cross_thread(
        budget,
        |i| {
            tx.push(i);
        },
        move || matches!(rx.try_dequeue(), Ok(Some(_))),
    )
}

fn drain_batch32(budget: Duration) -> f64 {
    let (tx, rx) = bounded_spsc_channel::<u64>(RING);
    let mut out = Vec::with_capacity(32);
    time_rounds(budget, || {
        for i in 0..RING as u64 {
            tx.push(i);
        }
        let start = Instant::now();
        for _ in 0..RING / 32 {
            out.clear();
            black_box(rx.try_drain_batch(&mut out, 32).expect("open"));
        }
        (start.elapsed().as_nanos() as u64, RING as u64)
    })
}

fn qoq_enqueue_dequeue(budget: Duration) -> f64 {
    let qoq = QueueOfQueues::<u64>::new();
    let mut i = 0u64;
    time_loop(budget, 1024, || {
        i += 1;
        qoq.enqueue(i);
        black_box(qoq.try_dequeue().expect("open"));
    })
}

/// Two producers against the one consumer: nanoseconds per item dequeued.
fn qoq_contended(budget: Duration) -> f64 {
    let qoq = QueueOfQueues::<u64>::new();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                // Bounded lead over the consumer keeps the queue short.
                while !done.load(Ordering::Acquire) {
                    if qoq.total_enqueued() - qoq.total_dequeued() < RING {
                        qoq.enqueue(1);
                    } else {
                        std::hint::spin_loop();
                    }
                }
            });
        }
        let per_item = time_loop(budget, 1024, || loop {
            if let Ok(Some(item)) = qoq.try_dequeue() {
                black_box(item);
                break;
            }
            std::hint::spin_loop();
        });
        done.store(true, Ordering::Release);
        per_item
    })
}

fn mutex_queue_push_pop(budget: Duration) -> f64 {
    let queue = MutexQueue::<u64>::new();
    let mut i = 0u64;
    time_loop(budget, 1024, || {
        i += 1;
        queue.enqueue(i);
        black_box(queue.try_dequeue().expect("open"));
    })
}

/// Two threads ping-pong through a pair of handoffs: one full round trip.
fn handoff_roundtrip(budget: Duration) -> f64 {
    let ping = Handoff::<bool>::new();
    let pong = Handoff::<()>::new();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while ping.wait() {
                pong.complete(());
            }
        });
        let per_trip = time_loop(budget, 16, || {
            ping.complete(true);
            pong.wait();
        });
        ping.complete(false);
        per_trip
    })
}

/// Parks of the `Parker` probe that ended by their deadline with the ball
/// already passed: the wake that should have ended them was lost.
static LOST_WAKEUPS: AtomicU64 = AtomicU64::new(0);

/// Takes the ball once it is there, parking until then.  `park_until` may
/// return early, so the ball is re-checked around it; and it may never
/// return — a waker preempted between its `parked.swap` and its
/// `thread.take` later takes the *next* registration of a waiter that moved
/// on by itself, and the wake after that finds no thread to unpark (see
/// README, *Findings*) — so every park has a deadline and a lost wake is
/// counted instead of hanging the probes.
fn take_ball(ball: &AtomicBool, parker: &Parker) {
    const DEADLINE: Duration = Duration::from_millis(1);
    while !ball.swap(false, Ordering::AcqRel) {
        let parked_at = Instant::now();
        parker.park_until_deadline(|| ball.load(Ordering::Acquire), parked_at + DEADLINE);
        if parked_at.elapsed() >= DEADLINE && ball.load(Ordering::Acquire) {
            LOST_WAKEUPS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn parker_lost_wakeups(_budget: Duration) -> f64 {
    LOST_WAKEUPS.load(Ordering::Relaxed) as f64
}

fn pass_ball(ball: &AtomicBool, parker: &Parker) {
    ball.store(true, Ordering::Release);
    parker.wake();
}

/// Ping-pong over two parkers; one hop is `wake` until `park_until` returns.
fn parker_wake_to_run(budget: Duration) -> f64 {
    let (here, there) = (Parker::new(), Parker::new());
    let (ball_here, ball_there) = (AtomicBool::new(false), AtomicBool::new(false));
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| loop {
            take_ball(&ball_there, &there);
            if done.load(Ordering::Acquire) {
                return;
            }
            pass_ball(&ball_here, &here);
        });
        let per_trip = time_loop(budget, 16, || {
            pass_ball(&ball_there, &there);
            take_ball(&ball_here, &here);
        });
        done.store(true, Ordering::Release);
        pass_ball(&ball_there, &there);
        per_trip / 2.0
    })
}

fn readgate_read(budget: Duration) -> f64 {
    let gate = ReadGate::new();
    time_loop(budget, 1024, || {
        assert!(gate.try_read());
        gate.end_read();
    })
}

fn readgate_write(budget: Duration) -> f64 {
    let gate = ReadGate::new();
    time_loop(budget, 1024, || {
        gate.write();
        gate.end_write();
    })
}

/// A task whose step stamps the clock.
struct Stamp {
    epoch: Instant,
    stepped_at: AtomicU64,
}

impl PooledTask for Stamp {
    fn step(&self) -> StepOutcome {
        self.stepped_at
            .store(self.epoch.elapsed().as_nanos() as u64, Ordering::Release);
        StepOutcome::Idle
    }
}

/// How long a probe lets a worker or waiter go back to sleep between rounds.
const SETTLE: Duration = Duration::from_micros(50);

fn settle() {
    let start = Instant::now();
    spin_until(|| start.elapsed() >= SETTLE);
}

/// `TaskHandle::notify` on an idle task until its step runs on a worker.
fn notify_to_step(budget: Duration) -> f64 {
    let scheduler = HandlerScheduler::new(2);
    let task = Arc::new(Stamp {
        epoch: Instant::now(),
        stepped_at: AtomicU64::new(0),
    });
    let handle = scheduler.register(Arc::clone(&task) as Arc<dyn PooledTask>);
    let per_wake = time_rounds(budget, || {
        settle();
        task.stepped_at.store(0, Ordering::Release);
        let notified_at = task.epoch.elapsed().as_nanos() as u64;
        handle.notify();
        spin_until(|| task.stepped_at.load(Ordering::Acquire) != 0);
        (
            task.stepped_at
                .load(Ordering::Acquire)
                .saturating_sub(notified_at),
            1,
        )
    });
    scheduler.shutdown();
    per_wake
}

/// A task with nothing to do: every step is scheduling cost.
struct Idle;

impl PooledTask for Idle {
    fn step(&self) -> StepOutcome {
        StepOutcome::Idle
    }
}

/// 1 000 registered tasks re-notified round-robin: steps per second.
fn steps_per_s(budget: Duration) -> f64 {
    let scheduler = HandlerScheduler::new(2);
    let handles: Vec<_> = (0..1000)
        .map(|_| scheduler.register(Arc::new(Idle)))
        .collect();
    let steps_before = scheduler.steps();
    let start = Instant::now();
    while start.elapsed() < budget {
        for handle in &handles {
            handle.notify();
        }
    }
    let rate = (scheduler.steps() - steps_before) as f64 / start.elapsed().as_secs_f64();
    scheduler.shutdown();
    rate
}

fn reserve1_empty(budget: Duration) -> f64 {
    let rt = Runtime::new(RuntimeConfig::all_optimizations());
    let handler = rt.spawn_handler(0u64);
    time_loop(budget, 64, || reserve(&handler).run(|_| {}))
}

fn reserve2_empty(budget: Duration) -> f64 {
    let rt = Runtime::new(RuntimeConfig::all_optimizations());
    let (a, b) = (rt.spawn_handler(0u64), rt.spawn_handler(0u64));
    time_loop(budget, 64, || reserve((&a, &b)).run(|_| {}))
}

/// Per `call` inside one long block (the bounded mailbox throttles the
/// client to the handler's pace once it is full, as it does in real use).
fn call_enqueue(budget: Duration) -> f64 {
    let rt = Runtime::new(RuntimeConfig::all_optimizations());
    let handler = rt.spawn_handler(0u64);
    handler.separate(|s| time_loop(budget, 1024, || s.call(|n| *n += 1)))
}

/// Queries after the first in a block, timed by [`query_probe`].
const FOLLOWING: u64 = 64;

/// First query of a block (pays the sync round trip) and the following ones
/// (sync elided, executed by the client): nanoseconds per `(first, following)`.
fn query_probe(budget: Duration) -> (f64, f64) {
    let rt = Runtime::new(RuntimeConfig::all_optimizations());
    let handler = rt.spawn_handler(7u64);
    let (mut first_ns, mut following_ns, mut blocks) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    while start.elapsed() < budget {
        handler.separate(|s| {
            let entered = Instant::now();
            black_box(s.query(|n| *n));
            let synced = Instant::now();
            for _ in 0..FOLLOWING {
                black_box(s.query(|n| *n));
            }
            first_ns += (synced - entered).as_nanos() as u64;
            following_ns += synced.elapsed().as_nanos() as u64;
        });
        blocks += 1;
    }
    (
        first_ns as f64 / blocks as f64,
        following_ns as f64 / (blocks * FOLLOWING) as f64,
    )
}

fn query_sync(budget: Duration) -> f64 {
    query_probe(budget).0
}

fn query_synced(budget: Duration) -> f64 {
    query_probe(budget).1
}

/// A whole shared-read block with one query, from one thread only.
fn read_query(budget: Duration) -> f64 {
    let rt = Runtime::new(RuntimeConfig::all_optimizations());
    let handler = rt.spawn_handler(7u64);
    time_loop(budget, 64, || {
        black_box(reserve(&handler).read().run(|r| r.query(|n| *n)));
    })
}

/// A waiter parked on `.when`: from the call that satisfies the guard being
/// applied on the handler to the waiter's body running.
fn guard_resume(budget: Duration) -> f64 {
    struct Gate {
        open: bool,
        opened_at: Option<Instant>,
    }
    let rt = Runtime::new(RuntimeConfig::all_optimizations());
    let gate = rt.spawn_handler(Gate {
        open: false,
        opened_at: None,
    });
    let waiting = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !done.load(Ordering::Acquire) {
                waiting.store(false, Ordering::Release);
                settle();
                gate.call_detached(|g| {
                    g.open = true;
                    g.opened_at = Some(Instant::now());
                });
                spin_until(|| waiting.load(Ordering::Acquire) || done.load(Ordering::Acquire));
            }
        });
        let per_resume = time_rounds(budget, || {
            let resumed = reserve(&gate).when(|g: &Gate| g.open).run(|s| {
                s.query(|g| {
                    g.open = false;
                    g.opened_at.take().expect("opened").elapsed()
                })
            });
            waiting.store(true, Ordering::Release);
            (resumed.as_nanos() as u64, 1)
        });
        done.store(true, Ordering::Release);
        per_resume
    })
}

fn deposit_frame() -> Frame {
    Frame::Call {
        method: "deposit".to_string(),
        args: vec![WireValue::Int(1)],
    }
}

fn encode_call(budget: Duration) -> f64 {
    let frame = deposit_frame();
    time_loop(budget, 256, || {
        black_box(encode_frame(black_box(&frame)));
    })
}

fn decode_call(budget: Duration) -> f64 {
    let encoded = encode_frame(&deposit_frame());
    // The transport consumes the four-byte length prefix before decoding.
    let body = &encoded[4..];
    time_loop(budget, 256, || {
        black_box(decode_frame(black_box(body)).expect("well-formed frame"));
    })
}

/// One query round trip inside an open block (connection already set up).
fn query_rtt(budget: Duration, block: &mut RemoteSeparate) -> f64 {
    time_loop(budget, 8, || {
        black_box(block.query("value", vec![]).expect("counter answers"));
    })
}

fn counter_node() -> RemoteNode<i64> {
    RemoteNode::spawn(
        "probe",
        RemoteObject::new(0i64, counter_registry()),
        ChannelConfig::fast(),
    )
}

fn inproc_rtt(budget: Duration) -> f64 {
    let node = counter_node();
    node.proxy("probe-client")
        .separate(|s| query_rtt(budget, s))
}

fn socket_rtt(budget: Duration, listen: &NodeAddr) -> f64 {
    let node = counter_node();
    let listener = NodeListener::bind(listen).expect("bind probe listener");
    let addr = node.listen(listener).expect("serve probe listener");
    let per_trip = SocketProxy::new(addr, "probe-client")
        .separate(|s| query_rtt(budget, s))
        .expect("dial probe node");
    node.stop();
    per_trip
}

fn tcp_rtt(budget: Duration) -> f64 {
    socket_rtt(budget, &NodeAddr::Tcp("127.0.0.1:0".to_string()))
}

fn unix_rtt(budget: Duration) -> f64 {
    // A path of its own per call: a stopped node's accept thread removes its
    // socket file when it gets round to exiting, which may be after the next
    // call has bound.
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let name = format!(
        "probe-{}-{}.sock",
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    );
    std::fs::create_dir_all(crate::OUT_DIR).expect("create the output directory");
    socket_rtt(
        budget,
        &NodeAddr::Unix(Path::new(crate::OUT_DIR).join(name)),
    )
}

/// A two-node bank cluster on TCP loopback with its ring distributed.
fn with_cluster(probe: impl FnOnce(&ClusterClient) -> f64) -> f64 {
    let nodes: Vec<_> = (0..2)
        .map(|_| {
            let listen = NodeAddr::Tcp("127.0.0.1:0".to_string());
            NodeServer::start(bank_service(), NodeConfig::at(listen)).expect("start probe node")
        })
        .collect();
    let addrs: Vec<NodeAddr> = nodes.iter().map(|node| node.addr().clone()).collect();
    let client = ClusterClient::new("probe-client", &addrs);
    client.set_ring(&addrs).expect("distribute the ring");
    let result = probe(&client);
    for node in &nodes {
        node.shutdown();
    }
    result
}

fn cluster_route(budget: Duration) -> f64 {
    with_cluster(|client| {
        let mut user = 0u64;
        time_loop(budget, 256, || {
            user += 1;
            black_box(client.route(user % 64));
        })
    })
}

/// One whole routed block holding a single `balance` query.
fn cluster_block(budget: Duration) -> f64 {
    with_cluster(|client| {
        let mut user = 0u64;
        time_loop(budget, 8, || {
            user += 1;
            black_box(
                client
                    .query(user % 64, "balance", vec![])
                    .expect("node answers"),
            );
        })
    })
}

/// Metric name, unit, and the function that measures it for about the given
/// time.
pub type Probe = (&'static str, &'static str, fn(Duration) -> f64);

/// Every probe, in the order they run.
pub const PROBES: [Probe; 29] = [
    ("queues.spsc_push_pop_ns", "ns", spsc_push_pop),
    ("queues.spsc_xthread_ns", "ns", spsc_xthread),
    ("queues.bounded_push_pop_ns", "ns", bounded_push_pop),
    ("queues.bounded_xthread_ns", "ns", bounded_xthread),
    ("queues.drain_batch32_ns_per_item", "ns", drain_batch32),
    ("queues.qoq_enqueue_dequeue_ns", "ns", qoq_enqueue_dequeue),
    ("queues.qoq_contended_ns", "ns", qoq_contended),
    ("queues.mutex_queue_push_pop_ns", "ns", mutex_queue_push_pop),
    ("sync.handoff_roundtrip_ns", "ns", handoff_roundtrip),
    ("sync.parker_wake_to_run_ns", "ns", parker_wake_to_run),
    // Reads what the probe above counted, so it must follow it.
    ("sync.parker_lost_wakeups", "count", parker_lost_wakeups),
    ("sync.readgate_read_ns", "ns", readgate_read),
    ("sync.readgate_write_ns", "ns", readgate_write),
    ("exec.notify_to_step_ns", "ns", notify_to_step),
    ("exec.steps_per_s", "1/s", steps_per_s),
    ("runtime.reserve1_empty_ns", "ns", reserve1_empty),
    ("runtime.reserve2_empty_ns", "ns", reserve2_empty),
    ("runtime.call_enqueue_ns", "ns", call_enqueue),
    ("runtime.query_sync_ns", "ns", query_sync),
    ("runtime.query_synced_ns", "ns", query_synced),
    ("runtime.read_query_ns", "ns", read_query),
    ("runtime.guard_resume_ns", "ns", guard_resume),
    ("remote.encode_call_ns", "ns", encode_call),
    ("remote.decode_call_ns", "ns", decode_call),
    ("remote.inproc_rtt_ns", "ns", inproc_rtt),
    ("remote.tcp_rtt_ns", "ns", tcp_rtt),
    ("remote.unix_rtt_ns", "ns", unix_rtt),
    ("cluster.route_ns", "ns", cluster_route),
    ("cluster.block_ns", "ns", cluster_block),
];

/// Runs every probe for about `total` altogether and prints the median of
/// its repetitions as a `RESULT` line.
pub fn run_all(total: Duration) {
    let budget = total / (PROBES.len() * REPETITIONS) as u32;
    for (name, _unit, probe) in PROBES {
        let runs: Vec<f64> = (0..REPETITIONS).map(|_| probe(budget)).collect();
        println!("RESULT {name} {}", median(&runs));
    }
}
