//! One trial: a fresh process that builds one workload, lets its clients
//! run through a discarded warm-up and a measured window, verifies, and
//! prints what it measured as `RESULT <name> <value>` lines for the
//! orchestrator to read.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::spec::SPANS;
use crate::stats::percentile;
use crate::trace::{self, Summary, Tracer};
use crate::workloads::{self, Block, Client, Counters};

pub struct TrialArgs {
    pub workload: String,
    pub seed: u64,
    pub warmup: Duration,
    pub window: Duration,
    pub clients: usize,
    /// Record benchmark-side spans and write them here.
    pub trace_out: Option<PathBuf>,
}

// A trial's phases.  Only a traced trial has a TRACED window: the same
// process, spans on, so that the two rates differ by what tracing costs and
// not by which process they were measured in.
const WARMUP: u8 = 0;
const MEASURE: u8 = 1;
const TRACED: u8 = 2;
const STOP: u8 = 3;

/// Latency samples kept per client; written once before the window so that
/// peak RSS does not depend on how many ops a trial completed.
const SAMPLE_CAPACITY: usize = 1 << 18;
/// Set in a sample whose block only logged commands (`Block::unwaited`).
const UNWAITED: u32 = 1 << 31;

#[derive(Default)]
struct ClientLog {
    /// Nanoseconds per block, saturating at 2.1 s, with [`UNWAITED`] set
    /// where the client waited for nothing.  The two kinds are told apart
    /// because the median is taken over the waited ones alone: an unwaited
    /// block costs its client 2-4 us unless the worker it woke takes the
    /// client's core (8-40 us), and where about half of them do
    /// (`bank_transfer`) a median over all blocks sits on the step between
    /// the two and moves by a quarter with the load on the host.
    samples: Vec<u32>,
    ops: u64,
    failed: u64,
    /// Ops completed inside the traced window.
    traced_ops: u64,
}

impl ClientLog {
    fn new() -> ClientLog {
        let mut log = ClientLog {
            samples: vec![1; SAMPLE_CAPACITY],
            ..ClientLog::default()
        };
        log.samples.clear();
        log
    }
}

fn client_loop(mut client: Client, phase: &AtomicU8, log: &mut ClientLog, tracer: &mut Tracer) {
    loop {
        let before = phase.load(Ordering::Acquire);
        tracer.set_active(before == TRACED);
        tracer.begin_op();
        let start = Instant::now();
        let Some(block) = client(before == STOP, tracer) else {
            tracer.end_op(false);
            return;
        };
        let elapsed = start.elapsed();
        let Block {
            ops,
            failed,
            unwaited,
        } = block;
        // Only a block that began and ended inside one window counts.
        let inside = phase.load(Ordering::Acquire) == before;
        tracer.end_op(inside && ops + failed > 0);
        if inside && before == TRACED {
            log.traced_ops += ops;
        }
        if inside && before == MEASURE {
            log.ops += ops;
            log.failed += failed;
            if ops + failed > 0 && log.samples.len() < SAMPLE_CAPACITY {
                let nanos = elapsed.as_nanos().min(u128::from(UNWAITED - 1)) as u32;
                log.samples
                    .push(if unwaited { nanos | UNWAITED } else { nanos });
            }
        }
    }
}

/// CPU time (user + system) of this process so far, all threads included,
/// also those that have exited.
fn process_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` through the pointer,
    // which is valid and exclusive for the call; the layout above is the
    // 64-bit Linux `struct timespec`, the only target the benchmark builds
    // for (it reads /proc elsewhere).
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(now.tv_sec as u64, now.tv_nsec as u32)
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn result(name: &str, value: f64) {
    println!("RESULT {name} {value}");
}

/// Layer counts over the window, per op (`spec::COUNTS`).
fn print_counts(before: &Counters, after: &Counters, ops: f64) {
    match (before, after) {
        (
            Counters::Runtime { stats: earlier, .. },
            Counters::Runtime {
                stats,
                peak_threads,
            },
        ) => {
            let delta = stats.since(earlier);
            let per_op = |count: u64| count as f64 / ops;
            result("runtime.syncs_per_op", per_op(delta.syncs_performed));
            result(
                "runtime.handler_wakeups_per_op",
                per_op(delta.handler_wakeups),
            );
            result("runtime.mean_batch_size", delta.mean_batch_size());
            result(
                "runtime.backpressure_stalls_per_kop",
                1e3 * per_op(delta.backpressure_stalls),
            );
            result(
                "runtime.private_queues_per_op",
                per_op(delta.private_queues_enqueued),
            );
            result(
                "runtime.wait_checks_per_op",
                per_op(delta.wait_condition_checks),
            );
            result("runtime.guard_signals_per_op", per_op(delta.guard_signals));
            result("runtime.guard_wakeups_per_op", per_op(delta.guard_wakeups));
            result("exec.steals_per_kop", 1e3 * per_op(delta.scheduler_steals));
            result("exec.peak_threads", *peak_threads as f64);
        }
        (
            Counters::Cluster {
                connections: earlier_connections,
                nacks: earlier_nacks,
            },
            Counters::Cluster { connections, nacks },
        ) => {
            result(
                "cluster.connections_opened",
                (connections - earlier_connections) as f64,
            );
            result("cluster.nacks", (nacks - earlier_nacks) as f64);
        }
        _ => {}
    }
}

fn print_trace(summary: &Summary) {
    for (kind, span) in SPANS.iter().enumerate().skip(1) {
        result(&format!("trace.{span}.count"), summary.count[kind]);
        result(&format!("trace.{span}.self_us"), summary.total_us[kind]);
        result(
            &format!("trace.{span}.share_of_op"),
            summary.share_of_op(kind),
        );
    }
    result("trace.residual_share", summary.residual_share());
    if summary.dropped > 0 {
        eprintln!(
            "benchmark: the span buffers were full, {} spans are missing from the summary",
            summary.dropped
        );
    }
}

/// What the main thread measured around the clients' windows.
struct Timing {
    setup: Duration,
    window: Duration,
    /// Length of the traced window that follows, in a traced trial.
    traced_window: Option<Duration>,
    cpu: Duration,
    before: Counters,
    after: Counters,
}

/// Runs the trial; `Err` is a verification failure (or an unknown workload).
pub fn run(args: &TrialArgs) -> Result<(), String> {
    let epoch = Instant::now();
    let instance = workloads::build(&args.workload, args.seed, args.clients)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;

    let phase = AtomicU8::new(WARMUP);
    let started = AtomicUsize::new(0);
    let traced = args.trace_out.is_some();
    let counters = instance.counters;
    let client_count = instance.clients.len();
    let (logs, tracers, timing) = std::thread::scope(|scope| {
        let threads: Vec<_> = instance
            .clients
            .into_iter()
            .map(|client| {
                let (phase, started) = (&phase, &started);
                scope.spawn(move || {
                    let mut log = ClientLog::new();
                    let mut tracer = Tracer::new(epoch, traced);
                    started.fetch_add(1, Ordering::Release);
                    client_loop(client, phase, &mut log, &mut tracer);
                    (log, tracer)
                })
            })
            .collect();
        // Set-up ends when every client thread has its buffers and is
        // issuing blocks.
        while started.load(Ordering::Acquire) < client_count {
            std::thread::yield_now();
        }
        let setup = epoch.elapsed();

        std::thread::sleep(args.warmup);
        let before = counters();
        let cpu_before = process_cpu();
        let window_start = Instant::now();
        phase.store(MEASURE, Ordering::Release);
        std::thread::sleep(args.window);
        phase.store(if traced { TRACED } else { STOP }, Ordering::Release);
        let window = window_start.elapsed();
        let cpu = process_cpu() - cpu_before;
        let after = counters();
        let traced_window = traced.then(|| {
            let start = Instant::now();
            std::thread::sleep(args.window);
            phase.store(STOP, Ordering::Release);
            start.elapsed()
        });

        let (logs, tracers): (Vec<_>, Vec<_>) = threads
            .into_iter()
            .map(|thread| thread.join().expect("a client thread panicked"))
            .unzip();
        let timing = Timing {
            setup,
            window,
            traced_window,
            cpu,
            before,
            after,
        };
        (logs, tracers, timing)
    });
    // Read before the end-of-trial verification, whose burst of queries is
    // the benchmark's doing, not the workload's.
    let peak_rss = peak_rss_mb();
    let verified = (instance.finish)();

    let ops: u64 = logs.iter().map(|log| log.ops).sum();
    let failed: u64 = logs.iter().map(|log| log.failed).sum();
    let traced_ops: u64 = logs.iter().map(|log| log.traced_ops).sum();
    // Sorted, the waited samples come first and the flagged ones after.
    let mut samples: Vec<u32> = logs.into_iter().flat_map(|log| log.samples).collect();
    samples.sort_unstable();
    let (waited, unwaited) = samples.split_at(samples.partition_point(|s| s & UNWAITED == 0));
    let unwaited: Vec<u32> = unwaited.iter().map(|s| s & !UNWAITED).collect();
    // The tail is taken over every block: a block that waits for nothing
    // can still stall, on a full mailbox or off its core.
    let mut all = [waited, &unwaited].concat();
    all.sort_unstable();
    let done = ops.max(1) as f64;

    result("ops", ops as f64);
    result("failed", failed as f64);
    result("window_s", timing.window.as_secs_f64());
    let rate = ops as f64 / timing.window.as_secs_f64();
    result("ops_per_s", rate);
    result("latency_samples", all.len() as f64);
    result("latency_p50_us", percentile(waited, 50.0) / 1e3);
    result("latency_p99_us", percentile(&all, 99.0) / 1e3);
    result(
        "latency.unwaited_block_p50_us",
        percentile(&unwaited, 50.0) / 1e3,
    );
    result("cpu_us_per_op", timing.cpu.as_secs_f64() * 1e6 / done);
    result("setup_s", timing.setup.as_secs_f64());
    print_counts(&timing.before, &timing.after, done);
    if let (Some(path), Some(traced_window)) = (&args.trace_out, timing.traced_window) {
        print_trace(&Summary::of(&tracers));
        let traced_rate = traced_ops as f64 / traced_window.as_secs_f64();
        result("trace.overhead_share", 1.0 - traced_rate / rate);
        trace::write_chrome(path, &tracers).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    result("peak_rss_mb", peak_rss);
    verified?;
    if ops == 0 {
        return Err("no op completed inside the measured window".to_string());
    }
    result("verified", 1.0);
    Ok(())
}
