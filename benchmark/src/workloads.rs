//! The six closed-loop workloads (and the hidden `_hang`).
//!
//! Each builds its runtime, handlers and per-client state from the seed and
//! returns one closure per client thread.  A closure runs one *block* — the
//! unit a SCOOP client waits for — checks what came back, and says how many
//! ops that was.  Why each workload exists is recorded in `README.md` and in
//! `BENCHMARK.json`.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use qs_cluster::{bank_service, ClusterClient, NodeConfig, NodeServer};
use qs_remote::{NodeAddr, RemoteError, WireValue};
use qs_runtime::{
    reserve, Handler, OptimizationLevel, Runtime, RuntimeConfig, StatsSnapshot, WaitConfig,
};
use qs_workloads::{run_parallel_scoop, CowichanParams, ParallelTask};

use crate::trace::{SpanKind, Tracer};

/// What one block did: ops completed and verified, and ops that failed
/// (error, timeout or a reply that does not check out).
#[derive(Debug, Clone, Copy, Default)]
pub struct Block {
    pub ops: u64,
    pub failed: u64,
    /// The client logged commands and waited for nothing: the block's time
    /// is the cost of logging, not a latency sample (see `trial.rs`).
    pub unwaited: bool,
}

impl Block {
    fn done(ops: u64) -> Block {
        Block {
            ops,
            ..Block::default()
        }
    }

    fn failed(failed: u64) -> Block {
        Block {
            failed,
            ..Block::default()
        }
    }

    fn checked(ops: u64, ok: bool) -> Block {
        if ok {
            Block::done(ops)
        } else {
            Block::failed(ops)
        }
    }
}

/// One client thread: called in a loop with `stopping` once the trial wants
/// it to end; returns `None` when the client is done.
pub type Client = Box<dyn FnMut(bool, &mut Tracer) -> Option<Block> + Send>;

/// Counters read from outside the program under test.
pub enum Counters {
    Unreachable,
    Runtime {
        stats: Box<StatsSnapshot>,
        peak_threads: usize,
    },
    Cluster {
        connections: i64,
        nacks: i64,
    },
}

pub struct Instance {
    pub clients: Vec<Client>,
    pub counters: Box<dyn Fn() -> Counters + Send + Sync>,
    /// End-of-trial verification, run after every client has returned.
    pub finish: Box<dyn FnOnce() -> Result<(), String>>,
}

/// Builds the named workload for `clients` client threads.
pub fn build(name: &str, seed: u64, clients: usize) -> Option<Instance> {
    Some(match name {
        "sync_query" => sync_query(seed, clients),
        "call_stream" => call_stream(seed, clients),
        "bank_transfer" => bank_transfer(seed, clients),
        "guard_handoff" => guard_handoff(seed),
        "cluster_bank" => cluster_bank(seed, clients),
        "cowichan_chain" => cowichan_chain(seed),
        "_hang" => hang(),
        _ => return None,
    })
}

/// SplitMix64: the benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn runtime_counters(rt: &Runtime) -> Box<dyn Fn() -> Counters + Send + Sync> {
    let rt = rt.clone();
    Box::new(move || Counters::Runtime {
        stats: Box::new(rt.stats_snapshot()),
        peak_threads: rt.scheduler_peak_threads(),
    })
}

/// Two wake hops and nothing else: every op is a one-query separate block on
/// one hot handler owning `(a, 2a)`.
fn sync_query(seed: u64, clients: usize) -> Instance {
    let rt = Runtime::new(RuntimeConfig::all_optimizations());
    let a = Rng::new(seed, 0).next() >> 1;
    let pair = rt.spawn_handler((a, 2 * a));
    let clients = (0..clients)
        .map(|_| {
            let pair = pair.clone();
            Box::new(move |stopping: bool, tr: &mut Tracer| {
                if stopping {
                    return None;
                }
                let entered = tr.op_start();
                let (x, y, left) = pair.separate(|s| {
                    let reserved = tr.span(SpanKind::Reserve, entered);
                    let (x, y) = s.query(|p| (p.0, p.1));
                    (x, y, tr.span(SpanKind::Query, reserved))
                });
                tr.span(SpanKind::Release, left);
                Some(Block::checked(1, x == a && y == 2 * x))
            }) as Client
        })
        .collect();
    Instance {
        clients,
        counters: runtime_counters(&rt),
        finish: Box::new(|| Ok(())),
    }
}

/// Calls logged per block of `call_stream`.
const STREAM_CALLS: u64 = 256;

/// Commands, not queries: each client streams 256 calls at its own handler
/// and closes the block with one query that must equal its running total.
fn call_stream(seed: u64, clients: usize) -> Instance {
    let rt = Runtime::new(RuntimeConfig::all_optimizations());
    let totals: Vec<Handler<u64>> = (0..clients).map(|_| rt.spawn_handler(0u64)).collect();
    let clients = totals
        .iter()
        .enumerate()
        .map(|(index, total)| {
            let total = total.clone();
            let mut rng = Rng::new(seed, index as u64 + 1);
            let mut expected = 0u64;
            Box::new(move |stopping: bool, tr: &mut Tracer| {
                if stopping {
                    return None;
                }
                let entered = tr.op_start();
                let (seen, left) = total.separate(|s| {
                    let reserved = tr.span(SpanKind::Reserve, entered);
                    for _ in 0..STREAM_CALLS {
                        let amount = rng.below(1000);
                        expected += amount;
                        s.call(move |t| *t += amount);
                    }
                    // One span for the 256 calls together: two clock reads
                    // around a single call would cost more than the call.
                    let logged = tr.span(SpanKind::Call, reserved);
                    let seen = s.query(|t| *t);
                    (seen, tr.span(SpanKind::Query, logged))
                });
                tr.span(SpanKind::Release, left);
                Some(Block::checked(STREAM_CALLS, seen == expected))
            }) as Client
        })
        .collect();
    Instance {
        clients,
        counters: runtime_counters(&rt),
        finish: Box::new(|| Ok(())),
    }
}

const ACCOUNTS: u64 = 10_000;
const OPENING_BALANCE: i64 = 1_000;

/// Many mostly idle handlers: seeded random pairs of 10 000 accounts, 7 of 8
/// blocks an atomic two-handler transfer, 1 of 8 a balance query.
fn bank_transfer(seed: u64, clients: usize) -> Instance {
    let rt = Runtime::new(RuntimeConfig::all_optimizations());
    let accounts: Arc<Vec<Handler<i64>>> = Arc::new(
        (0..ACCOUNTS)
            .map(|_| rt.spawn_handler(OPENING_BALANCE))
            .collect(),
    );
    let clients = (0..clients)
        .map(|index| {
            let accounts = Arc::clone(&accounts);
            let mut rng = Rng::new(seed, index as u64 + 1);
            Box::new(move |stopping: bool, tr: &mut Tracer| {
                if stopping {
                    return None;
                }
                let from = rng.below(ACCOUNTS);
                let to = (from + 1 + rng.below(ACCOUNTS - 1)) % ACCOUNTS;
                let (from, to) = (&accounts[from as usize], &accounts[to as usize]);
                let entered = tr.op_start();
                if rng.below(8) == 0 {
                    let (balance, left) = reserve(from).run(|s| {
                        let reserved = tr.span(SpanKind::Reserve, entered);
                        let balance = s.query(|b| *b);
                        (balance, tr.span(SpanKind::Query, reserved))
                    });
                    tr.span(SpanKind::Release, left);
                    // Money only moves one unit at a time, so no balance can
                    // leave this range while the total is conserved.
                    let total = OPENING_BALANCE * ACCOUNTS as i64;
                    return Some(Block::checked(1, (-total..=total).contains(&balance)));
                }
                let left = reserve((from, to)).run(|(a, b)| {
                    let reserved = tr.span(SpanKind::Reserve, entered);
                    a.call(|balance| *balance -= 1);
                    let withdrawn = tr.span(SpanKind::Call, reserved);
                    b.call(|balance| *balance += 1);
                    tr.span(SpanKind::Call, withdrawn)
                });
                tr.span(SpanKind::Release, left);
                Some(Block {
                    unwaited: true,
                    ..Block::done(1)
                })
            }) as Client
        })
        .collect();
    let finish_accounts = Arc::clone(&accounts);
    Instance {
        clients,
        counters: runtime_counters(&rt),
        finish: Box::new(move || {
            // Pipelined: all 10 000 queries are logged before the first is
            // awaited, and each runs after every transfer logged before it.
            let tokens: Vec<_> = finish_accounts
                .iter()
                .map(|account| account.separate(|s| s.query_async(|b| *b)))
                .collect();
            let total: i64 = tokens.into_iter().map(|token| token.wait()).sum();
            if total == OPENING_BALANCE * ACCOUNTS as i64 {
                Ok(())
            } else {
                Err(format!("bank total {total} is not conserved"))
            }
        }),
    }
}

const BUFFER_CAPACITY: usize = 16;
/// Items the consumer waits for and takes per block.  With one, producer and
/// consumer alternate on the handler's queue-of-queues and every guard holds
/// at its first evaluation (2.00 checks per item, no signal ever sent): the
/// registry would never be used.  With two, every other consumer block finds
/// one item, registers as a waiter and is signalled by the producer's next
/// block.
const TAKEN_PER_BLOCK: u64 = 2;
const GUARD_TIMEOUT: Duration = Duration::from_millis(500);
/// Pushed by the producer when the trial ends, so the consumer never waits
/// for an item that will not come.
const END_OF_STREAM: u64 = u64::MAX;

/// The guard registry and signalling path: one bounded buffer, a producer
/// guarded by "not full", a consumer guarded by "two items there".  An op is
/// one item consumed, in order.
fn guard_handoff(seed: u64) -> Instance {
    let rt = Runtime::new(RuntimeConfig::all_optimizations());
    let buffer = rt.spawn_handler(VecDeque::<u64>::with_capacity(BUFFER_CAPACITY));
    let first = Rng::new(seed, 0).next() >> 1;

    let producer = {
        let buffer = buffer.clone();
        let mut next = first;
        Box::new(move |stopping: bool, tr: &mut Tracer| {
            let item = if stopping { END_OF_STREAM } else { next };
            let entered = tr.op_start();
            let pushed = reserve(&buffer)
                .when(|q: &VecDeque<u64>| q.len() < BUFFER_CAPACITY)
                .timeout(WaitConfig::wall_clock(GUARD_TIMEOUT))
                .try_run(|s| {
                    let reserved = tr.span(SpanKind::Reserve, entered);
                    // The end of the stream fills a whole consumer block.
                    let copies = if stopping { TAKEN_PER_BLOCK } else { 1 };
                    s.call(move |q| q.extend((0..copies).map(|_| item)));
                    tr.span(SpanKind::Call, reserved)
                });
            if stopping {
                return None;
            }
            Some(match pushed {
                Ok(left) => {
                    tr.span(SpanKind::Release, left);
                    next += 1;
                    // The consumer counts the op when the item arrives.
                    Block::default()
                }
                Err(_timeout) => Block::failed(1),
            })
        }) as Client
    };

    let consumer = {
        let buffer = buffer.clone();
        let mut expected = first;
        Box::new(move |stopping: bool, tr: &mut Tracer| {
            let entered = tr.op_start();
            let popped = reserve(&buffer)
                .when(|q: &VecDeque<u64>| q.len() as u64 >= TAKEN_PER_BLOCK)
                .timeout(WaitConfig::wall_clock(GUARD_TIMEOUT))
                .try_run(|s| {
                    let reserved = tr.span(SpanKind::Reserve, entered);
                    let items: Vec<u64> =
                        s.query(|q| q.drain(..TAKEN_PER_BLOCK as usize).collect());
                    (items, tr.span(SpanKind::Query, reserved))
                });
            match popped {
                Ok((items, _)) if items.contains(&END_OF_STREAM) => None,
                Ok((items, left)) => {
                    tr.span(SpanKind::Release, left);
                    let in_order = items
                        .iter()
                        .copied()
                        .eq(expected..expected + TAKEN_PER_BLOCK);
                    expected += TAKEN_PER_BLOCK;
                    Some(Block::checked(TAKEN_PER_BLOCK, in_order))
                }
                // A timeout after the producer has stopped is the end of the
                // stream, not a failed op.
                Err(_timeout) if stopping => None,
                Err(_timeout) => Some(Block::failed(1)),
            }
        }) as Client
    };

    Instance {
        clients: vec![producer, consumer],
        counters: runtime_counters(&rt),
        finish: Box::new(|| Ok(())),
    }
}

const CLUSTER_NODES: usize = 2;
const USERS_PER_CLIENT: u64 = 5_000;
const DEPOSITS_PER_BLOCK: u64 = 3;
/// Requests per `cluster_bank` block: the deposits and the closing balance.
const REQUESTS_PER_BLOCK: u64 = DEPOSITS_PER_BLOCK + 1;
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(2);

/// What the clients sent, to be matched against the nodes' own counters.
#[derive(Default)]
struct Sent {
    blocks: AtomicU64,
    calls: AtomicU64,
    queries: AtomicU64,
}

/// The nodes' own counters (`control(node, "stats")`), summed over the nodes.
fn node_stats(client: &ClusterClient) -> Result<BTreeMap<String, i64>, String> {
    let mut totals = BTreeMap::new();
    for node in client.nodes() {
        let stats = client
            .control(&node, "stats", vec![])
            .map_err(|e| format!("stats from {node}: {e}"))?;
        for pair in stats.as_list()? {
            if let [name, count] = pair.as_list()? {
                *totals.entry(name.as_str()?.to_string()).or_insert(0) += count.as_int()?;
            }
        }
    }
    Ok(totals)
}

/// One `cluster_bank` block: three deposits and the balance they leave.
fn cluster_block(
    client: &ClusterClient,
    user: u64,
    tr: &mut Tracer,
) -> Result<WireValue, RemoteError> {
    let entered = tr.op_start();
    let (balance, left) = client.separate(user, |s| {
        let mut at = tr.span(SpanKind::ClusterOpen, entered);
        let balance = (|| {
            for _ in 0..DEPOSITS_PER_BLOCK {
                s.call("deposit", vec![WireValue::Int(1)])?;
                at = tr.span(SpanKind::RemoteCall, at);
            }
            let balance = s.query("balance", vec![])?;
            at = tr.span(SpanKind::RemoteQuery, at);
            Ok(balance)
        })();
        (balance, at)
    })?;
    tr.span(SpanKind::ClusterClose, left);
    balance
}

/// The remote path: two in-process nodes behind TCP loopback, one routing
/// client per client thread, 5 000 users each; every reply is checked against
/// the client's own tally of that user.
fn cluster_bank(seed: u64, clients: usize) -> Instance {
    let nodes: Vec<NodeServer<_>> = (0..CLUSTER_NODES)
        .map(|_| {
            let listen = NodeAddr::Tcp("127.0.0.1:0".to_string());
            NodeServer::start(bank_service(), NodeConfig::at(listen)).expect("start cluster node")
        })
        .collect();
    let addrs: Vec<NodeAddr> = nodes.iter().map(|node| node.addr().clone()).collect();
    let connect =
        |name: &str| ClusterClient::new(name, &addrs).with_response_timeout(RESPONSE_TIMEOUT);
    let control = Arc::new(connect("bench-control"));
    control.set_ring(&addrs).expect("distribute the ring");
    let sent = Arc::new(Sent::default());

    // Each client thread's routing client, connected, with every one of its
    // users' handlers already created, so the window measures requests.
    let connected: Vec<ClusterClient> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..clients as u64)
            .map(|index| {
                let connect = &connect;
                scope.spawn(move || {
                    let client = connect(&format!("bench-client-{index}"));
                    let first_user = index * USERS_PER_CLIENT;
                    for user in first_user..first_user + USERS_PER_CLIENT {
                        client
                            .query(user, "balance", vec![])
                            .expect("create the user's handler");
                    }
                    client
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|thread| thread.join().expect("connect a client"))
            .collect()
    });
    let created = connected.len() as u64 * USERS_PER_CLIENT;
    sent.blocks.fetch_add(created, Ordering::Relaxed);
    sent.queries.fetch_add(created, Ordering::Relaxed);

    let clients = connected
        .into_iter()
        .enumerate()
        .map(|(index, client)| {
            let first_user = index as u64 * USERS_PER_CLIENT;
            let sent = Arc::clone(&sent);
            let mut rng = Rng::new(seed, index as u64 + 1);
            let mut tally = vec![0i64; USERS_PER_CLIENT as usize];
            Box::new(move |stopping: bool, tr: &mut Tracer| {
                if stopping {
                    return None;
                }
                let slot = rng.below(USERS_PER_CLIENT);
                let reply = cluster_block(&client, first_user + slot, tr);
                if reply.is_err() {
                    // The connection is dropped with the block; what the
                    // node saw of it is unknown, so is the user's balance.
                    return Some(Block::checked(REQUESTS_PER_BLOCK, false));
                }
                sent.blocks.fetch_add(1, Ordering::Relaxed);
                sent.calls.fetch_add(DEPOSITS_PER_BLOCK, Ordering::Relaxed);
                sent.queries.fetch_add(1, Ordering::Relaxed);
                tally[slot as usize] += DEPOSITS_PER_BLOCK as i64;
                let expected = WireValue::Int(tally[slot as usize]);
                Some(Block::checked(REQUESTS_PER_BLOCK, reply == Ok(expected)))
            }) as Client
        })
        .collect();

    let counters_client = Arc::clone(&control);
    Instance {
        clients,
        counters: Box::new(move || {
            let stats = node_stats(&counters_client).unwrap_or_default();
            let count = |name: &str| stats.get(name).copied().unwrap_or(-1);
            Counters::Cluster {
                connections: count("connections"),
                nacks: count("nacks"),
            }
        }),
        finish: Box::new(move || {
            let served = node_stats(&control)?;
            for (field, sent) in [
                ("blocks", &sent.blocks),
                ("calls", &sent.calls),
                ("queries", &sent.queries),
            ] {
                let served = served.get(field).copied().unwrap_or(0);
                let sent = sent.load(Ordering::Relaxed) as i64;
                if served != sent {
                    return Err(format!(
                        "nodes served {served} {field}, clients sent {sent}"
                    ));
                }
            }
            for node in &nodes {
                node.shutdown();
            }
            Ok(())
        }),
    }
}

/// Matrix side of one Cowichan chain; an op is one of its `CHAIN_NR²` cells.
/// At 200 a chain takes about 5 ms, so a trial times hundreds of them, and
/// the split (three quarters of a chain spent communicating) is the one
/// measured at 2000.
const CHAIN_NR: usize = 200;

/// The data-intensive half: the Cowichan chain at full optimisation on two
/// worker handlers.  `run_parallel_scoop` compares every chain's result with
/// `seq::chain` and panics on a mismatch, which is caught as a failed block.
fn cowichan_chain(seed: u64) -> Instance {
    let params = CowichanParams {
        nr: CHAIN_NR,
        p_percent: 1,
        nw: CHAIN_NR,
        seed,
        threads: 2,
    };
    let cells = (CHAIN_NR * CHAIN_NR) as u64;
    let client = Box::new(move |stopping: bool, tr: &mut Tracer| {
        if stopping {
            return None;
        }
        let chain = catch_unwind(AssertUnwindSafe(|| {
            run_parallel_scoop(ParallelTask::Chain, OptimizationLevel::All, &params)
        }));
        Some(match chain {
            Ok(timing) => {
                // The stages are private to qs-workloads; what it reports is
                // the time they spent communicating and computing in total.
                let communicate = timing.communicate.as_nanos() as u64;
                tr.span_within_op(SpanKind::Communicate, 0, communicate);
                tr.span_within_op(
                    SpanKind::Compute,
                    communicate,
                    timing.compute.as_nanos() as u64,
                );
                Block::done(cells)
            }
            Err(_) => Block::failed(cells),
        })
    }) as Client;
    Instance {
        clients: vec![client],
        counters: Box::new(|| Counters::Unreachable),
        finish: Box::new(|| Ok(())),
    }
}

/// Never finishes a block: what the watchdog exists for.
fn hang() -> Instance {
    let client = Box::new(|_stopping: bool, _tr: &mut Tracer| -> Option<Block> {
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }) as Client;
    Instance {
        clients: vec![client],
        counters: Box::new(|| Counters::Unreachable),
        finish: Box::new(|| Ok(())),
    }
}
