//! The experiment definitions: one function per table/figure of the paper,
//! plus the handler-scheduling sweep behind `BENCH_scheduler.json`.

use std::time::{Duration, Instant};

use qs_baselines::Paradigm;
use qs_runtime::{reserve, OptimizationLevel, Runtime, RuntimeConfig};
use qs_workloads::concurrent::{
    run_concurrent, run_concurrent_scoop, ConcurrentParams, ConcurrentTask,
};
use qs_workloads::types::{CowichanParams, ParallelTask};
use qs_workloads::{run_parallel, run_parallel_scoop};

/// How large the problem instances should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Fast instances for CI / smoke runs (seconds in total).
    Quick,
    /// The default benchmark scale (a few minutes in total).
    Standard,
    /// The paper's full parameters (hours; requires a large machine).
    Paper,
}

impl Scale {
    /// Parses a scale name; unknown names fall back to `Quick`.
    pub fn parse(name: &str) -> Scale {
        match name {
            "standard" => Scale::Standard,
            "paper" => Scale::Paper,
            _ => Scale::Quick,
        }
    }

    /// The Cowichan parameters for this scale.
    pub fn cowichan(&self, threads: usize) -> CowichanParams {
        match self {
            Scale::Quick => CowichanParams {
                threads,
                ..CowichanParams::small()
            },
            Scale::Standard => CowichanParams::bench(threads),
            Scale::Paper => CowichanParams::paper(threads),
        }
    }

    /// The coordination-benchmark parameters for this scale.
    pub fn concurrent(&self) -> ConcurrentParams {
        match self {
            Scale::Quick => ConcurrentParams::tiny(),
            Scale::Standard => ConcurrentParams::bench(),
            Scale::Paper => ConcurrentParams::paper(),
        }
    }

    /// Thread counts for the scalability sweep (Fig. 19).
    pub fn thread_sweep(&self) -> Vec<usize> {
        let max = qs_exec::default_parallelism();
        let mut sweep = vec![1, 2, 4, 8, 16, 32];
        sweep.retain(|&t| t <= max.max(2));
        if matches!(self, Scale::Quick) {
            sweep.truncate(3);
        }
        sweep
    }
}

/// One labelled series of measurements (a row of a table / a line of a plot).
#[derive(Debug, Clone)]
pub struct Series {
    /// Row label (task name, language name, …).
    pub label: String,
    /// Column labels (optimisation level, paradigm, thread count, …).
    pub columns: Vec<String>,
    /// One measurement per column.
    pub values: Vec<f64>,
}

impl Series {
    /// Creates a series from parallel label/value vectors.
    pub fn new(label: impl Into<String>, columns: Vec<String>, values: Vec<f64>) -> Self {
        Series {
            label: label.into(),
            columns,
            values,
        }
    }

    /// Values normalised to the smallest entry (the format of Table 1).
    pub fn normalized(&self) -> Vec<f64> {
        let min = self
            .values
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
            .max(f64::MIN_POSITIVE);
        self.values.iter().map(|v| v / min).collect()
    }
}

fn seconds(duration: Duration) -> f64 {
    duration.as_secs_f64()
}

/// Table 1 / Fig. 16: communication time of each parallel task under each
/// optimisation level (values in seconds; Table 1 normalises per row).
pub fn table1_opt_parallel(scale: Scale, threads: usize) -> Vec<Series> {
    let params = scale.cowichan(threads);
    let columns: Vec<String> = OptimizationLevel::ALL
        .iter()
        .map(|l| l.to_string())
        .collect();
    ParallelTask::ALL
        .iter()
        .map(|&task| {
            let values = OptimizationLevel::ALL
                .iter()
                .map(|&level| seconds(run_parallel_scoop(task, level, &params).communicate))
                .collect();
            Series::new(task.name(), columns.clone(), values)
        })
        .collect()
}

/// Table 2 / Fig. 17: wall-clock time of each concurrent task under each
/// optimisation level (seconds).
pub fn table2_opt_concurrent(scale: Scale) -> Vec<Series> {
    let params = scale.concurrent();
    let columns: Vec<String> = OptimizationLevel::ALL
        .iter()
        .map(|l| l.to_string())
        .collect();
    ConcurrentTask::ALL
        .iter()
        .map(|&task| {
            let values = OptimizationLevel::ALL
                .iter()
                .map(|&level| seconds(run_concurrent_scoop(task, level, &params)))
                .collect();
            Series::new(task.name(), columns.clone(), values)
        })
        .collect()
}

/// Table 4 / Fig. 18: total and compute-only times of each parallel task
/// under each paradigm at a fixed thread count (seconds).  Returns
/// `(total, compute)` series per task.
pub fn table4_lang_parallel(scale: Scale, threads: usize) -> Vec<(Series, Series)> {
    let params = scale.cowichan(threads);
    let columns: Vec<String> = Paradigm::ALL.iter().map(|p| p.to_string()).collect();
    ParallelTask::ALL
        .iter()
        .map(|&task| {
            let runs: Vec<_> = Paradigm::ALL
                .iter()
                .map(|&paradigm| run_parallel(task, paradigm, &params))
                .collect();
            let totals = runs.iter().map(|r| seconds(r.total())).collect();
            let computes = runs.iter().map(|r| seconds(r.compute)).collect();
            (
                Series::new(format!("{task} (total)"), columns.clone(), totals),
                Series::new(format!("{task} (compute)"), columns.clone(), computes),
            )
        })
        .collect()
}

/// Fig. 19: speedup of each paradigm on each task over the thread sweep.
/// Returns one series per (task, paradigm) with one value per thread count.
pub fn fig19_scalability(scale: Scale, tasks: &[ParallelTask]) -> Vec<Series> {
    let sweep = scale.thread_sweep();
    let columns: Vec<String> = sweep.iter().map(|t| format!("{t} threads")).collect();
    let mut series = Vec::new();
    for &task in tasks {
        for &paradigm in &Paradigm::ALL {
            let mut times = Vec::new();
            for &threads in &sweep {
                let params = scale.cowichan(threads);
                times.push(seconds(run_parallel(task, paradigm, &params).total()));
            }
            let base = times[0].max(f64::MIN_POSITIVE);
            let speedups = times
                .iter()
                .map(|t| base / t.max(f64::MIN_POSITIVE))
                .collect();
            series.push(Series::new(
                format!("{task} / {paradigm}"),
                columns.clone(),
                speedups,
            ));
        }
    }
    series
}

/// Table 5 / Fig. 20: wall-clock time of each concurrent task under each
/// paradigm (seconds).
pub fn table5_lang_concurrent(scale: Scale) -> Vec<Series> {
    let params = scale.concurrent();
    let columns: Vec<String> = Paradigm::ALL.iter().map(|p| p.to_string()).collect();
    ConcurrentTask::ALL
        .iter()
        .map(|&task| {
            let values = Paradigm::ALL
                .iter()
                .map(|&paradigm| seconds(run_concurrent(task, paradigm, &params)))
                .collect();
            Series::new(task.name(), columns.clone(), values)
        })
        .collect()
}

/// Percentile digest of one latency histogram, in nanoseconds.  All zeros
/// when the run recorded no samples (observability off).
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySummary {
    /// Recorded samples.
    pub samples: u64,
    /// Median latency.
    pub p50_ns: u64,
    /// 95th-percentile latency.
    pub p95_ns: u64,
    /// 99th-percentile latency.
    pub p99_ns: u64,
    /// Worst observed latency.
    pub max_ns: u64,
}

impl LatencySummary {
    /// Digests a histogram snapshot into the standard percentile set.
    pub fn from_histogram(snap: &qs_obs::HistogramSnapshot) -> LatencySummary {
        LatencySummary {
            samples: snap.count,
            p50_ns: snap.percentile(50.0),
            p95_ns: snap.percentile(95.0),
            p99_ns: snap.percentile(99.0),
            max_ns: snap.max,
        }
    }
}

/// One measured point of the handler-count scaling sweep: `handlers` live
/// handlers on the M:N pool, each receiving one fan-out block of
/// asynchronous calls followed by a fan-in query.
#[derive(Debug, Clone)]
pub struct SchedulerPoint {
    /// Core pool workers.
    pub workers: usize,
    /// Concurrently live handlers.
    pub handlers: usize,
    /// Requests executed during the measured window.
    pub requests: u64,
    /// Wall-clock time of fan-out + fan-in.
    pub elapsed: Duration,
    /// Requests per second over the measured window.
    pub requests_per_sec: f64,
    /// Highest OS thread count of the process observed during the point.
    pub peak_process_threads: usize,
    /// Scheduler-side worker-thread high-water.
    pub peak_scheduler_threads: usize,
    /// Enqueue→execute latency distribution over the point
    /// (`request.enqueue_to_execute_ns`).
    pub latency: LatencySummary,
}

/// Current OS thread count of this process (`/proc/self/status`); 0 when the
/// platform does not expose it.
pub fn process_threads() -> usize {
    let status = match std::fs::read_to_string("/proc/self/status") {
        Ok(status) => status,
        Err(_) => return 0,
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|rest| rest.trim().parse().ok())
        .unwrap_or(0)
}

/// Runs one sweep point on a `workers`-worker pool (`0` = auto-size):
/// spawns `handlers` handlers, fans one block of `calls_per_handler` calls
/// out to every handler from four client threads, fans the results back in
/// with one query per handler, and verifies the total before reporting.
pub fn scheduler_point(
    workers: usize,
    handlers: usize,
    calls_per_handler: usize,
) -> SchedulerPoint {
    // Counters keep the sweep honest about latency percentiles at a cost
    // the overhead gate proves is within noise of Off.
    scheduler_point_with_observability(
        workers,
        handlers,
        calls_per_handler,
        qs_obs::ObservabilityMode::Counters,
    )
}

/// [`scheduler_point`] with an explicit observability mode, for the
/// instrumentation-overhead gate: `Off` measures the uninstrumented
/// baseline, `Full` the worst case with tracing armed.
pub fn scheduler_point_with_observability(
    workers: usize,
    handlers: usize,
    calls_per_handler: usize,
    observability: qs_obs::ObservabilityMode,
) -> SchedulerPoint {
    // The ambient mode only ratchets up through `Runtime::new`; benches pin
    // it per point so an earlier `Full` cell cannot leak into an `Off` one.
    qs_obs::set_mode(observability);
    let latency_hist = qs_obs::registry().histogram("request.enqueue_to_execute_ns");
    latency_hist.reset();
    let rt = Runtime::new(
        RuntimeConfig::all_optimizations()
            .with_workers(workers)
            .with_observability(observability),
    );
    let fleet: Vec<_> = (0..handlers).map(|_| rt.spawn_handler(0u64)).collect();
    let baseline = rt.stats_snapshot();
    let mut peak_threads = process_threads();

    let start = Instant::now();
    let clients = 4.min(handlers).max(1);
    std::thread::scope(|scope| {
        for client in 0..clients {
            let fleet = &fleet;
            scope.spawn(move || {
                for handler in fleet.iter().skip(client).step_by(clients) {
                    handler.separate(|s| {
                        for _ in 0..calls_per_handler {
                            s.call(|n| *n += 1);
                        }
                    });
                }
            });
        }
    });
    peak_threads = peak_threads.max(process_threads());
    // Fan-in: one query per handler proves every logged call was applied.
    let total: u64 = fleet.iter().map(|h| h.query_detached(|n| *n)).sum();
    let elapsed = start.elapsed();
    peak_threads = peak_threads.max(process_threads());
    assert_eq!(
        total,
        (handlers * calls_per_handler) as u64,
        "sweep point lost requests ({handlers} handlers)"
    );

    let snap = rt.stats_snapshot().since(&baseline);
    let secs = elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
    let point = SchedulerPoint {
        workers: rt.config().effective_workers(),
        handlers,
        requests: snap.requests_executed,
        elapsed,
        requests_per_sec: snap.requests_executed as f64 / secs,
        peak_process_threads: peak_threads,
        peak_scheduler_threads: rt.scheduler_peak_threads(),
        latency: LatencySummary::from_histogram(&latency_hist.snapshot()),
    };
    drop(fleet);
    point
}

/// The handler-count sweep behind `BENCH_scheduler.json`: the auto-sized
/// pool at each count in `counts`.
pub fn scheduler_sweep(counts: &[usize]) -> Vec<SchedulerPoint> {
    counts
        .iter()
        .map(|&handlers| scheduler_point(0, handlers, 10))
        .collect()
}

/// One measured point of the sustained-backpressure experiment: `pipelines`
/// client/handler pairs, each client logging `blocks` separate blocks of
/// `calls_per_block` asynchronous calls into a capacity-`capacity` mailbox
/// with `calls_per_block` ≫ `capacity`, so every block spends most of its
/// life with the producer blocked on a full ring.
#[derive(Debug, Clone)]
pub struct BackpressurePoint {
    /// Core pool workers.
    pub workers: usize,
    /// Requests executed during the measured window.
    pub requests: u64,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// Requests per second over the measured window.
    pub requests_per_sec: f64,
    /// Producer enqueues that had to block for mailbox space.
    pub backpressure_stalls: u64,
    /// Pressure wakes fired by producers at/past the mailbox watermark.
    pub pressure_wakes: u64,
    /// Yield budgets shrunk under mailbox backpressure.
    pub budget_shrinks: u64,
}

/// Parameters of the sustained-backpressure experiment (shared by the bench
/// sweep and the CI smoke gate so they measure the same thing).
pub const BACKPRESSURE_CAPACITY: usize = 8;
/// Client/handler pairs; deliberately more than the 1-worker pool.
pub const BACKPRESSURE_PIPELINES: usize = 4;
/// Calls per separate block — ≫ the mailbox capacity, the "sustained" part.
pub const BACKPRESSURE_CALLS_PER_BLOCK: usize = 400;

/// Runs the sustained-backpressure workload on a deliberately *undersized*
/// pool (one worker against [`BACKPRESSURE_PIPELINES`] pipelines) and
/// reports its throughput: the configuration where ring-sized service
/// bursts used to collapse throughput.
pub fn backpressure_point(blocks: usize) -> BackpressurePoint {
    let rt = Runtime::new(
        RuntimeConfig::all_optimizations()
            .with_mailbox_capacity(Some(BACKPRESSURE_CAPACITY))
            .with_workers(1),
    );
    let handlers: Vec<_> = (0..BACKPRESSURE_PIPELINES)
        .map(|_| rt.spawn_handler(0u64))
        .collect();
    let baseline = rt.stats_snapshot();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for handler in &handlers {
            scope.spawn(move || {
                for _ in 0..blocks {
                    handler.separate(|s| {
                        for _ in 0..BACKPRESSURE_CALLS_PER_BLOCK {
                            s.call(|n| *n += 1);
                        }
                    });
                }
            });
        }
    });
    let total: u64 = handlers.iter().map(|h| h.query_detached(|n| *n)).sum();
    let elapsed = start.elapsed();
    assert_eq!(
        total,
        (BACKPRESSURE_PIPELINES * blocks * BACKPRESSURE_CALLS_PER_BLOCK) as u64,
        "backpressure point lost requests"
    );
    let snap = rt.stats_snapshot().since(&baseline);
    let secs = elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
    BackpressurePoint {
        workers: rt.config().effective_workers(),
        requests: snap.requests_executed,
        elapsed,
        requests_per_sec: snap.requests_executed as f64 / secs,
        backpressure_stalls: snap.backpressure_stalls,
        pressure_wakes: snap.pressure_wakes,
        budget_shrinks: snap.budget_shrinks,
    }
}

/// The sustained-backpressure experiment, measured `rounds` times with the
/// best run kept (the experiment is latency-dominated and a single
/// descheduling hiccup should not decide the recorded figure).
pub fn backpressure_sweep(blocks: usize, rounds: usize) -> BackpressurePoint {
    (0..rounds.max(1))
        .map(|_| backpressure_point(blocks))
        .max_by(|a, b| a.requests_per_sec.total_cmp(&b.requests_per_sec))
        .expect("at least one round")
}

// ---------------------------------------------------------------------------
// Guarded waits: clients parked on `reserve(...).when(...)` conditions
// ---------------------------------------------------------------------------

/// Gap between producer state changes in the resume-latency experiment —
/// long enough that the waiter is parked when the change lands.
pub const WAIT_LATENCY_GAP: Duration = Duration::from_millis(1);

/// One measured point of the wake-latency experiment: a single waiter
/// chasing a producer that advances the condition every
/// [`WAIT_LATENCY_GAP`], measuring state-change-to-body latency per round.
#[derive(Debug, Clone)]
pub struct WaitLatencyPoint {
    /// Core pool workers.
    pub workers: usize,
    /// Measured rounds.
    pub rounds: usize,
    /// Median latency from the handler applying the state change to the
    /// waiter's body observing it, in microseconds.
    pub median_resume_micros: f64,
    /// 95th-percentile resume latency in microseconds.
    pub p95_resume_micros: f64,
    /// Condition evaluations over the whole run.
    pub wait_condition_checks: u64,
    /// Wake-ups of parked waiters by guard signals.
    pub guard_wakeups: u64,
}

/// Measures waiter resume latency: the producer stamps the instant the
/// state change is applied on the handler, and the waiter's body reads the
/// stamp's age — signal, unpark, re-reservation and sync included.
pub fn wait_latency_point(workers: usize, rounds: usize) -> WaitLatencyPoint {
    struct LatencyCell {
        value: u64,
        stamp: Option<Instant>,
    }
    let rt = Runtime::new(RuntimeConfig::all_optimizations().with_workers(workers));
    let cell = rt.spawn_handler(LatencyCell {
        value: 0,
        stamp: None,
    });
    let producer = {
        let cell = cell.clone();
        std::thread::spawn(move || {
            for _ in 0..rounds {
                std::thread::sleep(WAIT_LATENCY_GAP);
                cell.call_detached(|c| {
                    c.value += 1;
                    c.stamp = Some(Instant::now());
                });
            }
        })
    };
    let mut resumes_micros: Vec<f64> = Vec::with_capacity(rounds);
    for round in 0..rounds as u64 {
        let resumed = reserve(&cell)
            .when(move |c: &LatencyCell| c.value > round)
            .run(|guard| guard.query(|c| c.stamp.expect("producer stamped").elapsed()));
        resumes_micros.push(resumed.as_secs_f64() * 1e6);
    }
    producer.join().unwrap();
    resumes_micros.sort_by(f64::total_cmp);
    let snap = rt.stats_snapshot();
    WaitLatencyPoint {
        workers,
        rounds,
        median_resume_micros: resumes_micros[rounds / 2],
        p95_resume_micros: resumes_micros[(rounds * 95 / 100).min(rounds - 1)],
        wait_condition_checks: snap.wait_condition_checks,
        guard_wakeups: snap.guard_wakeups,
    }
}

/// Concurrent waiters in the scaling experiment.
pub const WAIT_SCALING_WAITERS: usize = 100;
/// Producer steps driving the scaling experiment's condition true.
pub const WAIT_SCALING_STEPS: u64 = 10;
/// Gap between producer steps — the window in which parked waiters must
/// cost nothing.
pub const WAIT_SCALING_STEP_GAP: Duration = Duration::from_millis(35);

/// One measured point of the waiter-scaling experiment:
/// [`WAIT_SCALING_WAITERS`] clients parked on one handler while a producer
/// advances the condition in [`WAIT_SCALING_STEPS`] spaced steps.  The
/// interesting figure is `wait_condition_checks` per wake-up: a parked
/// waiter evaluates once per signal plus its spin window, so the ratio stays
/// a small constant; anything that re-evaluates on a timer grows it with
/// elapsed time.
#[derive(Debug, Clone)]
pub struct WaitScalingPoint {
    /// Core pool workers.
    pub workers: usize,
    /// Concurrent waiters.
    pub waiters: usize,
    /// Wall-clock time until every waiter resolved.
    pub elapsed: Duration,
    /// Condition evaluations over the whole run.
    pub wait_condition_checks: u64,
    /// Conservative guard signals fired by the runtime.
    pub guard_signals: u64,
    /// Wake-ups of parked waiters.
    pub guard_wakeups: u64,
}

impl WaitScalingPoint {
    /// Condition evaluations per wake-up of a parked waiter.
    pub fn checks_per_wakeup(&self) -> f64 {
        self.wait_condition_checks as f64 / (self.guard_wakeups as f64).max(1.0)
    }
}

/// Runs the waiter-scaling workload on a `workers`-worker pool.
pub fn wait_scaling_point(workers: usize, waiters: usize) -> WaitScalingPoint {
    let rt = Runtime::new(RuntimeConfig::all_optimizations().with_workers(workers));
    let counter = rt.spawn_handler(0u64);
    let start = Instant::now();
    let threads: Vec<_> = (0..waiters)
        .map(|_| {
            let counter = counter.clone();
            std::thread::spawn(move || {
                reserve(&counter)
                    .when(|c: &u64| *c >= WAIT_SCALING_STEPS)
                    .run(|_| ());
            })
        })
        .collect();
    // Let every waiter pass its spin window first, then advance the
    // condition in spaced steps.
    std::thread::sleep(Duration::from_millis(50));
    for _ in 0..WAIT_SCALING_STEPS {
        std::thread::sleep(WAIT_SCALING_STEP_GAP);
        counter.call_detached(|c| *c += 1);
    }
    for thread in threads {
        thread.join().unwrap();
    }
    let elapsed = start.elapsed();
    let snap = rt.stats_snapshot();
    WaitScalingPoint {
        workers,
        waiters,
        elapsed,
        wait_condition_checks: snap.wait_condition_checks,
        guard_signals: snap.guard_signals,
        guard_wakeups: snap.guard_wakeups,
    }
}

// ---------------------------------------------------------------------------
// Shared-read reservations: exclusive vs read-mode clients on one hot handler
// ---------------------------------------------------------------------------

/// One measured cell of the read-reservation experiment: `readers` clients
/// hammering one hot handler, `write_percent` of each client's operations
/// being synced exclusive writes, the rest queries — taken either through
/// exclusive reservations (the baseline: every client serialises on the
/// handler) or through shared-read reservations (`reserve(&h).read()`).
#[derive(Debug, Clone)]
pub struct ReadersPoint {
    /// Client threads.
    pub readers: usize,
    /// Percentage of each client's operations that are exclusive writes.
    pub write_percent: u32,
    /// Whether reads used shared-read reservations (vs exclusive).
    pub shared: bool,
    /// Operations per client.
    pub ops_per_client: usize,
    /// Wall-clock time of the cell.
    pub elapsed: Duration,
    /// Total operations across all clients.
    pub total_ops: u64,
    /// Operations per second over the measured window.
    pub ops_per_sec: f64,
    /// High-water of concurrent gate-read holders (0 in exclusive mode).
    pub peak_concurrent_readers: u64,
    /// Writers that had to wait behind read holders.
    pub writer_waits: u64,
}

/// Runs one cell of the read-reservation experiment.
///
/// The handler owns a `(u64, u64)` pair with the invariant `b == 2 * a`,
/// restored by every write as a whole but broken inside it; every read
/// re-checks the invariant, so the throughput numbers double as a torn-read
/// stress.  Writes are synced exclusive blocks in *both* modes — the
/// experiment varies only how the reads are taken.
pub fn readers_point(
    readers: usize,
    write_percent: u32,
    shared: bool,
    ops_per_client: usize,
) -> ReadersPoint {
    assert!(write_percent <= 100);
    let rt = Runtime::new(RuntimeConfig::all_optimizations());
    let hot = rt.spawn_handler((0u64, 0u64));
    let write_period = 100u32
        .checked_div(write_percent)
        .map_or(usize::MAX, |p| p as usize);
    // In shared mode, start with every client parked on a barrier *inside*
    // its read block: deterministic proof the readers overlap (and an exact
    // `peak_concurrent_readers >= readers` record).  Sampling overlap from
    // the timed loop alone is unreliable — sub-microsecond holds convoy on
    // the contended cache lines and can serialise for thousands of
    // operations at a stretch.
    let rendezvous = std::sync::Barrier::new(readers);

    let start = Instant::now();
    let writes_total: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..readers)
            .map(|_| {
                let hot = &hot;
                let rendezvous = &rendezvous;
                scope.spawn(move || {
                    let mut writes = 0u64;
                    if shared {
                        reserve(hot).read().run(|_| rendezvous.wait());
                    }
                    for op in 0..ops_per_client {
                        if op % write_period == 0 && write_percent > 0 {
                            // Synced exclusive write: applied (and contending
                            // with the read crowd) before the block ends.
                            hot.separate(|s| {
                                s.call(|p| {
                                    p.0 += 1;
                                    p.1 = 2 * p.0;
                                });
                                s.query(|p| p.0)
                            });
                            writes += 1;
                        } else if shared {
                            let pair = reserve(hot).read().run(|r| r.query(|p| *p));
                            assert_eq!(pair.1, 2 * pair.0, "torn read: {pair:?}");
                        } else {
                            let pair = hot.separate(|s| s.query(|p| *p));
                            assert_eq!(pair.1, 2 * pair.0, "torn read: {pair:?}");
                        }
                    }
                    writes
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let elapsed = start.elapsed();
    let (final_a, final_b) = hot.query_detached(|p| *p);
    assert_eq!(
        (final_a, final_b),
        (writes_total, 2 * writes_total),
        "readers point lost writes ({readers} readers, {write_percent}% writes, shared={shared})"
    );

    let snap = rt.stats_snapshot();
    let total_ops = (readers * ops_per_client) as u64;
    ReadersPoint {
        readers,
        write_percent,
        shared,
        ops_per_client,
        elapsed,
        total_ops,
        ops_per_sec: total_ops as f64 / elapsed.as_secs_f64().max(f64::MIN_POSITIVE),
        peak_concurrent_readers: snap.peak_concurrent_readers,
        writer_waits: snap.writer_waits,
    }
}

/// The readers × write-ratio grid behind `BENCH_readers.json`: every cell
/// measured with exclusive reads first, then shared reads, so each
/// (readers, write_percent) pair yields a directly comparable ratio.
pub fn readers_sweep(
    reader_counts: &[usize],
    write_percents: &[u32],
    ops: usize,
) -> Vec<ReadersPoint> {
    let mut points = Vec::new();
    for &readers in reader_counts {
        for &write_percent in write_percents {
            points.push(readers_point(readers, write_percent, false, ops));
            points.push(readers_point(readers, write_percent, true, ops));
        }
    }
    points
}

// ---------------------------------------------------------------------------
// Auto-read downgrade: inferred `.read()` lang programs vs hand-written
// ---------------------------------------------------------------------------

/// One cell of the auto-read experiment: the same read-mostly surface
/// program executed three ways — reads through plain exclusive blocks
/// (auto-read off), through a hand-written `separate read` block, or through
/// a plain block the effect-inference pass proved read-only (auto-read on).
/// The inferred column earning the declared column's throughput *and* its
/// `read_reservations` count is the end-to-end proof that the static pass
/// emits the downgrade automatically.
#[derive(Debug, Clone)]
pub struct AutoReadPoint {
    /// `"exclusive"`, `"declared"` or `"inferred"`.
    pub mode: &'static str,
    /// Readings the sensor holds (queries per program iteration ≈ readings + 2).
    pub readings: usize,
    /// Program iterations measured.
    pub iterations: usize,
    /// Wall-clock time of the cell.
    pub elapsed: Duration,
    /// Sensor queries per second across the run.
    pub queries_per_sec: f64,
    /// Shared-read reservations taken across the run (0 in exclusive mode).
    pub read_reservations: u64,
}

/// The read-mostly sensor program of the auto-read experiment; `declared`
/// picks between a hand-written `separate read` block and a plain block left
/// for the effect-inference pass to downgrade.
fn auto_read_source(readings: usize, declared: bool) -> String {
    let keyword = if declared {
        "separate read"
    } else {
        "separate"
    };
    format!(
        "\
class SENSOR
  attribute readings : ARRAY
  attribute samples : INTEGER
  command calibrate(n: INTEGER) local i : INTEGER do
    readings := array(n)
    i := 0
    while i < n loop readings[i] := i * 7 i := i + 1 end
    samples := n
  end
  query at(i: INTEGER) : INTEGER do Result := readings[i] end
  query count : INTEGER do Result := samples end
end

main
  local s : separate SENSOR
  local i : INTEGER
  local n : INTEGER
  local checksum : INTEGER
do
  create s
  separate s do s.calibrate({readings}) end
  {keyword} s do
    n := s.count()
    i := 0
    while i < n loop
      checksum := checksum + s.at(i)
      i := i + 1
    end
  end
  print(checksum)
end
"
    )
}

/// Runs one cell of the auto-read experiment.
pub fn auto_read_point(mode: &'static str, readings: usize, iterations: usize) -> AutoReadPoint {
    use qs_lang::{compile, run_compiled, QueryStrategy};

    let (declared, auto_read) = match mode {
        "exclusive" => (false, false),
        "declared" => (true, false),
        "inferred" => (false, true),
        other => panic!("unknown auto-read mode {other}"),
    };
    let compiled = compile(&auto_read_source(readings, declared)).expect("program compiles");
    if mode == "inferred" {
        assert_eq!(
            compiled.checked.inferred_read_blocks.len(),
            1,
            "the effect pass must prove the query block read-only"
        );
    }
    let expected: i64 = (0..readings as i64).map(|i| i * 7).sum();
    let runtime = Runtime::new(RuntimeConfig::all_optimizations().with_auto_read(auto_read));

    let start = Instant::now();
    let mut read_reservations = 0u64;
    for _ in 0..iterations {
        let output = run_compiled(&compiled, &runtime, QueryStrategy::RuntimeManaged)
            .expect("auto-read cell runs");
        assert_eq!(
            output.printed,
            vec![expected.to_string()],
            "auto-read cell diverged in mode {mode}"
        );
        read_reservations = output.stats.read_reservations;
    }
    let elapsed = start.elapsed();
    let queries = (iterations * (readings + 2)) as u64;
    AutoReadPoint {
        mode,
        readings,
        iterations,
        elapsed,
        queries_per_sec: queries as f64 / elapsed.as_secs_f64().max(f64::MIN_POSITIVE),
        read_reservations,
    }
}

/// The three-mode auto-read comparison behind the `auto` section of
/// `BENCH_readers.json`.
pub fn auto_read_sweep(readings: usize, iterations: usize) -> Vec<AutoReadPoint> {
    ["exclusive", "declared", "inferred"]
        .into_iter()
        .map(|mode| auto_read_point(mode, readings, iterations))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_point_accounts_every_request() {
        let point = scheduler_point(2, 32, 10);
        assert_eq!(point.handlers, 32);
        assert_eq!(point.workers, 2);
        // 10 calls per handler plus one fan-in query each (client- or
        // handler-executed depending on level; All uses client-executed,
        // so only the calls count as executed requests).
        assert!(point.requests >= 320, "{point:?}");
        assert!(point.requests_per_sec > 0.0);
    }

    #[test]
    fn readers_point_accounts_every_operation() {
        for shared in [false, true] {
            let point = readers_point(2, 10, shared, 200);
            assert_eq!(point.total_ops, 400);
            assert_eq!(point.shared, shared);
            assert!(point.ops_per_sec > 0.0);
        }
        // The opening rendezvous makes the overlap record deterministic.
        let point = readers_point(4, 0, true, 500);
        assert!(
            point.peak_concurrent_readers >= 4,
            "shared cell recorded no reader overlap: {point:?}"
        );
    }

    #[test]
    fn auto_read_cells_agree_and_only_read_modes_reserve_shared() {
        let points = auto_read_sweep(32, 3);
        assert_eq!(points.len(), 3);
        let by_mode = |mode: &str| points.iter().find(|p| p.mode == mode).unwrap();
        assert_eq!(by_mode("exclusive").read_reservations, 0);
        assert!(by_mode("declared").read_reservations > 0);
        assert!(
            by_mode("inferred").read_reservations > 0,
            "the effect pass must emit the .read() downgrade"
        );
        for point in &points {
            assert!(point.queries_per_sec > 0.0);
        }
    }

    #[test]
    fn process_thread_count_is_visible_on_linux() {
        let threads = process_threads();
        if cfg!(target_os = "linux") {
            assert!(threads >= 1, "at least the main thread");
        }
    }

    #[test]
    fn scale_parsing_and_parameters() {
        assert_eq!(Scale::parse("standard"), Scale::Standard);
        assert_eq!(Scale::parse("paper"), Scale::Paper);
        assert_eq!(Scale::parse("anything"), Scale::Quick);
        assert!(Scale::Quick.cowichan(4).nr < Scale::Standard.cowichan(4).nr);
        assert!(!Scale::Quick.thread_sweep().is_empty());
    }

    #[test]
    fn series_normalisation_uses_the_minimum() {
        let s = Series::new("x", vec!["a".into(), "b".into()], vec![2.0, 8.0]);
        assert_eq!(s.normalized(), vec![1.0, 4.0]);
    }
}
