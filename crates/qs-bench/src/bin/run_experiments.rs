//! Prints the paper's tables and figure series from fresh measurements.
//!
//! ```text
//! run_experiments [table1|table2|table4|table5|fig19|summary|all] [quick|standard|paper]
//! run_experiments scheduler [smoke|quick|full]   # writes BENCH_scheduler.json
//! run_experiments waits [smoke|quick|full]       # guarded-wait resume latency + scaling,
//!                                                # writes BENCH_waits.json
//! run_experiments readers [smoke|quick|full]     # shared-read vs exclusive clients,
//!                                                # writes BENCH_readers.json
//! run_experiments remote [smoke|quick|full]      # multi-process cluster sweep,
//!                                                # writes BENCH_remote.json
//! run_experiments overhead [smoke|quick|full]    # observability-overhead gate
//! run_experiments remote-node <addr>             # internal: one cluster node process
//! ```
//!
//! Results (who wins, by what factor) are machine-relative; EXPERIMENTS.md
//! records a measured run next to the paper's reported numbers, and
//! `BENCH_scheduler.json` a handler-count sweep of the M:N scheduler.

use qs_bench::remote_sweep::{
    remote_point, RemotePoint, REMOTE_CALLS_PER_USER, REMOTE_QUERIES_PER_USER,
};

use qs_bench::experiments::{
    auto_read_sweep, backpressure_sweep, fig19_scalability, readers_sweep,
    scheduler_point_with_observability, scheduler_sweep, table1_opt_parallel,
    table2_opt_concurrent, table4_lang_parallel, table5_lang_concurrent, wait_latency_point,
    wait_scaling_point, AutoReadPoint, BackpressurePoint, LatencySummary, ReadersPoint, Scale,
    SchedulerPoint, WaitLatencyPoint, WaitScalingPoint, BACKPRESSURE_CALLS_PER_BLOCK,
    BACKPRESSURE_CAPACITY, BACKPRESSURE_PIPELINES, WAIT_LATENCY_GAP, WAIT_SCALING_STEPS,
    WAIT_SCALING_STEP_GAP, WAIT_SCALING_WAITERS,
};
use qs_bench::report::{geometric_mean, print_table};
use qs_workloads::types::ParallelTask;

fn fmt(values: &[f64]) -> Vec<String> {
    values.iter().map(|v| format!("{v:.3}")).collect()
}

fn run_table1(scale: Scale, threads: usize) -> Vec<f64> {
    let series = table1_opt_parallel(scale, threads);
    let header: Vec<String> = std::iter::once("task".to_string())
        .chain(series[0].columns.iter().cloned())
        .collect();
    let rows: Vec<(String, Vec<String>)> = series
        .iter()
        .map(|s| (s.label.clone(), fmt(&s.normalized())))
        .collect();
    print_table(
        "Table 1 — parallel tasks, communication time normalised to fastest optimisation",
        &header,
        &rows,
    );
    let rows_seconds: Vec<(String, Vec<String>)> = series
        .iter()
        .map(|s| (s.label.clone(), fmt(&s.values)))
        .collect();
    print_table(
        "Fig. 16 — parallel tasks, communication time per optimisation (seconds)",
        &header,
        &rows_seconds,
    );
    // "All" column feeds the §4.4 summary.
    series.iter().map(|s| s.values[4]).collect()
}

fn run_table2(scale: Scale) -> Vec<Vec<f64>> {
    let series = table2_opt_concurrent(scale);
    let header: Vec<String> = std::iter::once("task".to_string())
        .chain(series[0].columns.iter().cloned())
        .collect();
    let rows: Vec<(String, Vec<String>)> = series
        .iter()
        .map(|s| (s.label.clone(), fmt(&s.values)))
        .collect();
    print_table(
        "Table 2 / Fig. 17 — concurrent tasks, time per optimisation (seconds)",
        &header,
        &rows,
    );
    series.iter().map(|s| s.values.clone()).collect()
}

fn run_table4(scale: Scale, threads: usize) {
    let series = table4_lang_parallel(scale, threads);
    let header: Vec<String> = std::iter::once("task".to_string())
        .chain(series[0].0.columns.iter().cloned())
        .collect();
    let mut rows = Vec::new();
    for (total, compute) in &series {
        rows.push((total.label.clone(), fmt(&total.values)));
        rows.push((compute.label.clone(), fmt(&compute.values)));
    }
    print_table(
        &format!("Table 4 / Fig. 18 — parallel tasks per paradigm at {threads} threads (seconds)"),
        &header,
        &rows,
    );
}

fn run_fig19(scale: Scale) {
    let series = fig19_scalability(scale, &[ParallelTask::Chain, ParallelTask::Randmat]);
    let header: Vec<String> = std::iter::once("task / paradigm".to_string())
        .chain(series[0].columns.iter().cloned())
        .collect();
    let rows: Vec<(String, Vec<String>)> = series
        .iter()
        .map(|s| (s.label.clone(), fmt(&s.values)))
        .collect();
    print_table(
        "Fig. 19 — speedup over 1-thread run (chain, randmat)",
        &header,
        &rows,
    );
}

fn run_table5(scale: Scale) {
    let series = table5_lang_concurrent(scale);
    let header: Vec<String> = std::iter::once("task".to_string())
        .chain(series[0].columns.iter().cloned())
        .collect();
    let rows: Vec<(String, Vec<String>)> = series
        .iter()
        .map(|s| (s.label.clone(), fmt(&s.values)))
        .collect();
    print_table(
        "Table 5 / Fig. 20 — concurrent tasks per paradigm (seconds)",
        &header,
        &rows,
    );
    let per_paradigm: Vec<(String, Vec<String>)> = series[0]
        .columns
        .iter()
        .enumerate()
        .map(|(i, paradigm)| {
            let column: Vec<f64> = series.iter().map(|s| s.values[i]).collect();
            (
                paradigm.clone(),
                vec![format!("{:.3}", geometric_mean(&column))],
            )
        })
        .collect();
    print_table(
        "§5.4 — geometric mean over the concurrent tasks (seconds)",
        &["paradigm".to_string(), "geo-mean".to_string()],
        &per_paradigm,
    );
}

fn run_summary(scale: Scale, threads: usize) {
    let table2 = table2_opt_concurrent(scale);
    let levels = table2[0].columns.clone();
    let per_level: Vec<(String, Vec<String>)> = levels
        .iter()
        .enumerate()
        .map(|(i, level)| {
            let column: Vec<f64> = table2.iter().map(|s| s.values[i]).collect();
            (
                level.clone(),
                vec![format!("{:.3}", geometric_mean(&column))],
            )
        })
        .collect();
    print_table(
        "§4.4 — geometric mean of the concurrent benchmarks per optimisation (seconds)",
        &["optimisation".to_string(), "geo-mean".to_string()],
        &per_level,
    );
    let _ = threads;
}

/// One latency digest as a JSON object (nanoseconds throughout).
fn latency_to_json(l: &LatencySummary) -> String {
    format!(
        "{{\"samples\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}",
        l.samples, l.p50_ns, l.p95_ns, l.p99_ns, l.max_ns
    )
}

/// Hand-rolled JSON for the scheduler sweep (the workspace is offline; no
/// serde).  One object per point, stable key order.
fn scheduler_points_to_json(
    points: &[SchedulerPoint],
    backpressure: &BackpressurePoint,
    overhead: &OverheadReport,
) -> String {
    let mut out = String::from("{\n  \"bench\": \"scheduler_handler_sweep\",\n");
    out.push_str("  \"unit\": \"requests_per_sec\",\n");
    out.push_str(&format!(
        "  \"parallelism\": {},\n  \"points\": [\n",
        qs_exec::default_parallelism()
    ));
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workers\": {}, \"handlers\": {}, \
             \"requests\": {}, \"elapsed_secs\": {:.6}, \"requests_per_sec\": {:.1}, \
             \"peak_process_threads\": {}, \"peak_scheduler_threads\": {}, \
             \"latency_ns\": {}}}{}\n",
            p.workers,
            p.handlers,
            p.requests,
            p.elapsed.as_secs_f64(),
            p.requests_per_sec,
            p.peak_process_threads,
            p.peak_scheduler_threads,
            latency_to_json(&p.latency),
            if i + 1 == points.len() { "" } else { "," },
        ));
    }
    let p = backpressure;
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"backpressure\": {{\"capacity\": {BACKPRESSURE_CAPACITY}, \
         \"pipelines\": {BACKPRESSURE_PIPELINES}, \
         \"calls_per_block\": {BACKPRESSURE_CALLS_PER_BLOCK}, \"workers\": {}, \
         \"requests\": {}, \"elapsed_secs\": {:.6}, \"requests_per_sec\": {:.1}, \
         \"backpressure_stalls\": {}, \"pressure_wakes\": {}, \
         \"budget_shrinks\": {}}},\n",
        p.workers,
        p.requests,
        p.elapsed.as_secs_f64(),
        p.requests_per_sec,
        p.backpressure_stalls,
        p.pressure_wakes,
        p.budget_shrinks,
    ));
    out.push_str(&overhead_to_json(overhead));
    out.push_str("}\n");
    out
}

/// Floor on `Off`-mode throughput relative to the interleaved baseline cell
/// (which also runs `Off`): the two cells are the same configuration, so
/// their best-of-N ratio measures the run's own noise — a disarmed
/// instrumentation layer costing more than 1% would show up here as a
/// systematic, not noise-shaped, shortfall.
const OVERHEAD_OFF_MIN_RATIO: f64 = 0.99;
/// Floor on `Full`-mode throughput relative to `Off`: tracing plus counters
/// on every hot path may cost at most 10% on the fan-out/fan-in workload.
const OVERHEAD_FULL_MIN_RATIO: f64 = 0.90;

/// Calls per handler in each overhead cell.  Deliberately 10x the sweep's
/// points: sub-50ms cells measure scheduler jitter, not instrumentation
/// (two identical `Off` cells were seen 5-10% apart at 10 calls/handler).
const OVERHEAD_CALLS_PER_HANDLER: usize = 100;

/// Best-of-N throughput of the three instrumentation cells on one fixed
/// scheduler workload, measured interleaved so clock drift and thermal
/// throttling hit every cell alike.
///
/// The gate ratios are **paired per round**: cells inside one round run
/// milliseconds apart, so a ratio taken within a round cancels the minute-
/// scale drift of a shared CI box (identical `Off` cells were seen 14%
/// apart when their best passes came from *different* rounds).  Each gate
/// keeps its most favorable round — a real regression depresses the ratio
/// in every round, while one-sided noise only spoils some of them.
struct OverheadReport {
    handlers: usize,
    calls_per_handler: usize,
    rounds: usize,
    /// Best requests/sec with observability `Off` (reference cell).
    baseline_req_per_sec: f64,
    /// Best requests/sec of the second `Off` cell (noise calibration).
    off_req_per_sec: f64,
    /// Best requests/sec with observability `Full` (tracing armed).
    full_req_per_sec: f64,
    /// Best per-round off/baseline throughput ratio (gated quantity).
    off_over_baseline: f64,
    /// Best per-round full/off throughput ratio (gated quantity).
    full_over_off: f64,
}

impl OverheadReport {
    fn off_over_baseline(&self) -> f64 {
        self.off_over_baseline
    }

    fn full_over_off(&self) -> f64 {
        self.full_over_off
    }
}

/// Runs the instrumentation-overhead cells: `rounds` interleaved passes of
/// baseline(`Off`), off(`Off`) and full(`Full`) on the pooled scheduler,
/// keeping each cell's best pass (best-of-N rejects one-sided scheduling
/// hiccups far better than means on shared CI boxes).  The cell order
/// rotates every round so no cell systematically inherits the slot-position
/// advantages (allocator state, cache warmth, frequency ramp) of running
/// first or last.
fn measure_overhead(handlers: usize, calls_per_handler: usize, rounds: usize) -> OverheadReport {
    use qs_obs::ObservabilityMode as Obs;
    // Warm-up pass: first-touch page faults and worker spin-up belong to
    // nobody's cell.
    scheduler_point_with_observability(0, handlers, calls_per_handler, Obs::Off);
    let cells = [(0usize, Obs::Off), (1, Obs::Off), (2, Obs::Full)];
    let mut best = [0.0f64; 3];
    let (mut off_over_baseline, mut full_over_off) = (0.0f64, 0.0f64);
    for round in 0..rounds {
        let mut rps = [0.0f64; 3];
        for i in 0..cells.len() {
            let (slot, obs) = cells[(round + i) % cells.len()];
            let point = scheduler_point_with_observability(0, handlers, calls_per_handler, obs);
            rps[slot] = point.requests_per_sec;
            best[slot] = best[slot].max(point.requests_per_sec);
        }
        off_over_baseline = off_over_baseline.max(rps[1] / rps[0].max(f64::MIN_POSITIVE));
        full_over_off = full_over_off.max(rps[2] / rps[1].max(f64::MIN_POSITIVE));
    }
    qs_obs::set_mode(Obs::Off);
    OverheadReport {
        handlers,
        calls_per_handler,
        rounds,
        baseline_req_per_sec: best[0],
        off_req_per_sec: best[1],
        full_req_per_sec: best[2],
        off_over_baseline,
        full_over_off,
    }
}

/// The `overhead` section of `BENCH_scheduler.json`.
fn overhead_to_json(o: &OverheadReport) -> String {
    format!(
        "  \"overhead\": {{\n    \"workload\": \"pooled fan-out/fan-in, {} interleaved \
         rounds, gates on best per-round paired ratio\",\n    \"handlers\": {}, \"calls_per_handler\": {},\n    \
         \"baseline_req_per_sec\": {:.1}, \"off_req_per_sec\": {:.1}, \
         \"full_req_per_sec\": {:.1},\n    \"off_over_baseline\": {:.4}, \
         \"full_over_off\": {:.4},\n    \"gates\": {{\"min_off_over_baseline\": \
         {OVERHEAD_OFF_MIN_RATIO}, \"min_full_over_off\": {OVERHEAD_FULL_MIN_RATIO}}}\n  }}\n",
        o.rounds,
        o.handlers,
        o.calls_per_handler,
        o.baseline_req_per_sec,
        o.off_req_per_sec,
        o.full_req_per_sec,
        o.off_over_baseline(),
        o.full_over_off(),
    )
}

/// Prints the overhead cells and asserts both gates (CI runs this in
/// release mode via the `scheduler` smoke and the `overhead` subcommand).
fn report_and_gate_overhead(overhead: &OverheadReport) {
    let rows: Vec<(String, Vec<String>)> = [
        ("baseline (Off)", overhead.baseline_req_per_sec),
        ("off (Off)", overhead.off_req_per_sec),
        ("full (Full)", overhead.full_req_per_sec),
    ]
    .iter()
    .map(|(label, rps)| (label.to_string(), vec![format!("{rps:.0}")]))
    .collect();
    print_table(
        &format!(
            "Observability overhead — {} handlers x {} calls, {} interleaved rounds, \
             best paired round: off/baseline = {:.3}, full/off = {:.3}",
            overhead.handlers,
            overhead.calls_per_handler,
            overhead.rounds,
            overhead.off_over_baseline(),
            overhead.full_over_off(),
        ),
        &["cell".to_string(), "req/s".to_string()],
        &rows,
    );
    assert!(
        overhead.off_over_baseline() >= OVERHEAD_OFF_MIN_RATIO,
        "observability regression: Off mode reached only {:.4}x the baseline cell \
         (minimum {OVERHEAD_OFF_MIN_RATIO}) — the disarmed instrumentation layer is \
         no longer free; see the overhead section of BENCH_scheduler.json",
        overhead.off_over_baseline(),
    );
    assert!(
        overhead.full_over_off() >= OVERHEAD_FULL_MIN_RATIO,
        "observability regression: Full mode reached only {:.4}x Off-mode throughput \
         (minimum {OVERHEAD_FULL_MIN_RATIO}); see the overhead section of \
         BENCH_scheduler.json",
        overhead.full_over_off(),
    );
}

/// The `overhead` mode: run the instrumentation cells alone and gate them,
/// without rewriting `BENCH_scheduler.json`.
fn run_overhead_gate(scale: &str) {
    let rounds = match scale {
        "smoke" | "quick" => 8,
        _ => 12,
    };
    let overhead = measure_overhead(1_000, OVERHEAD_CALLS_PER_HANDLER, rounds);
    report_and_gate_overhead(&overhead);
}

/// The `scheduler` mode: run the handler-count sweep and write
/// `BENCH_scheduler.json` next to the current directory.
fn run_scheduler_sweep(scale: &str) {
    let (counts, bp_blocks, bp_rounds): (&[usize], usize, usize) = match scale {
        "smoke" => (&[1_000], 30, 3),
        "quick" => (&[1_000, 10_000], 30, 3),
        _ => (&[1_000, 10_000, 50_000], 60, 5),
    };
    let points = scheduler_sweep(counts);
    let header = vec![
        "workers x handlers".to_string(),
        "req/s".to_string(),
        "p50 µs".to_string(),
        "p99 µs".to_string(),
        "peak proc threads".to_string(),
        "peak sched threads".to_string(),
    ];
    let rows: Vec<(String, Vec<String>)> = points
        .iter()
        .map(|p| {
            (
                format!("{} x{}", p.workers, p.handlers),
                vec![
                    format!("{:.0}", p.requests_per_sec),
                    format!("{:.1}", p.latency.p50_ns as f64 / 1_000.0),
                    format!("{:.1}", p.latency.p99_ns as f64 / 1_000.0),
                    p.peak_process_threads.to_string(),
                    p.peak_scheduler_threads.to_string(),
                ],
            )
        })
        .collect();
    print_table(
        "Handler scheduling — M:N pool (fan-out/fan-in)",
        &header,
        &rows,
    );

    // Sustained backpressure: blocks ≫ mailbox capacity on an undersized
    // (1-worker) pool.
    let backpressure = backpressure_sweep(bp_blocks, bp_rounds);
    let p = &backpressure;
    let bp_rows = vec![(
        format!("workers {}", p.workers),
        vec![
            format!("{:.0}", p.requests_per_sec),
            p.backpressure_stalls.to_string(),
            p.pressure_wakes.to_string(),
            p.budget_shrinks.to_string(),
        ],
    )];
    print_table(
        &format!(
            "Sustained backpressure — {BACKPRESSURE_PIPELINES} pipelines, capacity \
             {BACKPRESSURE_CAPACITY}, {BACKPRESSURE_CALLS_PER_BLOCK} calls/block"
        ),
        &[
            "pool".to_string(),
            "req/s".to_string(),
            "stalls".to_string(),
            "pressure wakes".to_string(),
            "budget shrinks".to_string(),
        ],
        &bp_rows,
    );

    // The instrumentation-overhead cells ride along with every sweep so the
    // committed BENCH_scheduler.json always carries a fresh overhead section.
    let overhead = measure_overhead(
        1_000,
        OVERHEAD_CALLS_PER_HANDLER,
        if scale == "full" { 12 } else { 8 },
    );

    let json = scheduler_points_to_json(&points, &backpressure, &overhead);
    let path = "BENCH_scheduler.json";
    std::fs::write(path, json).expect("write BENCH_scheduler.json");
    println!("wrote {path}");

    // The regression gate CI runs in release mode: observability must stay
    // near-free.
    report_and_gate_overhead(&overhead);
}

/// Ceiling on the parked waiter's median resume latency (state change
/// applied on the handler → waiter's body observes it).  The CI smoke run
/// fails above it: an event-driven waiter that resumes on millisecond
/// timescales is being woken by a timer, not by the signal.
const WAIT_RESUME_MEDIAN_MAX_MICROS: f64 = 100.0;

/// Ceiling on condition evaluations per wake-up in the 100-waiter scaling
/// experiment.  A parked waiter evaluates once per signal plus its spin
/// window — 1.9 per wake-up here (19 evaluations, 10 wake-ups each) — while
/// re-evaluating every millisecond over the same run would make it ~30.
const WAIT_CHECKS_PER_WAKEUP_MAX: f64 = 4.0;

/// JSON for the guarded-wait experiments (hand-rolled — the workspace is
/// offline, no serde).
fn wait_points_to_json(latency: &WaitLatencyPoint, scaling: &WaitScalingPoint) -> String {
    let mut out = String::from("{\n  \"bench\": \"guarded_wait_sweep\",\n");
    out.push_str(&format!(
        "  \"resume_latency\": {{\"producer_gap_micros\": {}, \"workers\": {}, \
         \"rounds\": {}, \"median_resume_micros\": {:.2}, \"p95_resume_micros\": {:.2}, \
         \"wait_condition_checks\": {}, \"guard_wakeups\": {}}},\n",
        WAIT_LATENCY_GAP.as_micros(),
        latency.workers,
        latency.rounds,
        latency.median_resume_micros,
        latency.p95_resume_micros,
        latency.wait_condition_checks,
        latency.guard_wakeups,
    ));
    out.push_str(&format!(
        "  \"scaling\": {{\"waiters\": {WAIT_SCALING_WAITERS}, \
         \"steps\": {WAIT_SCALING_STEPS}, \"step_gap_ms\": {}, \"workers\": {}, \
         \"elapsed_secs\": {:.6}, \"wait_condition_checks\": {}, \
         \"guard_signals\": {}, \"guard_wakeups\": {}, \
         \"checks_per_wakeup\": {:.2}}},\n",
        WAIT_SCALING_STEP_GAP.as_millis(),
        scaling.workers,
        scaling.elapsed.as_secs_f64(),
        scaling.wait_condition_checks,
        scaling.guard_signals,
        scaling.guard_wakeups,
        scaling.checks_per_wakeup(),
    ));
    out.push_str(&format!(
        "  \"gates\": {{\"max_median_resume_micros\": \
         {WAIT_RESUME_MEDIAN_MAX_MICROS}, \"max_checks_per_wakeup\": \
         {WAIT_CHECKS_PER_WAKEUP_MAX}}}\n}}\n"
    ));
    out
}

/// The `waits` mode: measure parked wait conditions on a 4-worker pool and
/// write `BENCH_waits.json`.
fn run_waits_sweep(scale: &str) {
    let latency_rounds = match scale {
        "smoke" => 300,
        "quick" => 1_000,
        _ => 3_000,
    };
    const WORKERS: usize = 4;
    let latency = wait_latency_point(WORKERS, latency_rounds);
    let scaling = wait_scaling_point(WORKERS, WAIT_SCALING_WAITERS);

    let rows = vec![(
        format!("workers {WORKERS}"),
        vec![
            format!("{:.1}", latency.median_resume_micros),
            format!("{:.1}", latency.p95_resume_micros),
            latency.wait_condition_checks.to_string(),
            latency.guard_wakeups.to_string(),
        ],
    )];
    print_table(
        &format!(
            "Guarded waits — resume latency over {latency_rounds} rounds \
             (producer gap {}µs)",
            WAIT_LATENCY_GAP.as_micros()
        ),
        &[
            "pool".to_string(),
            "median µs".to_string(),
            "p95 µs".to_string(),
            "checks".to_string(),
            "wakeups".to_string(),
        ],
        &rows,
    );

    let rows = vec![(
        format!("workers {WORKERS}"),
        vec![
            scaling.wait_condition_checks.to_string(),
            scaling.guard_signals.to_string(),
            scaling.guard_wakeups.to_string(),
            format!("{:.2}", scaling.checks_per_wakeup()),
            format!("{:.2}", scaling.elapsed.as_secs_f64()),
        ],
    )];
    print_table(
        &format!(
            "Guarded waits — {WAIT_SCALING_WAITERS} waiters, {WAIT_SCALING_STEPS} \
             spaced signals"
        ),
        &[
            "pool".to_string(),
            "checks".to_string(),
            "signals".to_string(),
            "wakeups".to_string(),
            "checks/wakeup".to_string(),
            "elapsed s".to_string(),
        ],
        &rows,
    );

    let json = wait_points_to_json(&latency, &scaling);
    let path = "BENCH_waits.json";
    std::fs::write(path, json).expect("write BENCH_waits.json");
    println!("wrote {path}");

    // Regression gates, run in release by CI.
    assert!(
        latency.median_resume_micros < WAIT_RESUME_MEDIAN_MAX_MICROS,
        "guarded-wait regression: median resume latency {:.1}µs \
         (ceiling {WAIT_RESUME_MEDIAN_MAX_MICROS}µs); see BENCH_waits.json",
        latency.median_resume_micros,
    );
    assert!(
        scaling.checks_per_wakeup() <= WAIT_CHECKS_PER_WAKEUP_MAX,
        "guarded-wait regression: {:.1} condition evaluations per wake-up \
         (ceiling {WAIT_CHECKS_PER_WAKEUP_MAX}) — waiters are re-evaluating without \
         being signalled; see BENCH_waits.json",
        scaling.checks_per_wakeup(),
    );
}

/// Minimum shared-read/exclusive throughput ratio at the gate cell
/// (≥ [`READERS_GATE_MIN_READERS`] readers, ≤ 1% writes) for the CI smoke
/// run; the full sweep must clear [`READERS_FULL_MIN_SPEEDUP`].  Reads under
/// a shared-read reservation execute directly on the client threads, so on a
/// read-mostly hot handler anything close to 1× means the gate has stopped
/// admitting concurrent readers.
const READERS_SMOKE_MIN_SPEEDUP: f64 = 1.5;
/// The full sweep's floor at the same gate cells.
const READERS_FULL_MIN_SPEEDUP: f64 = 2.0;
/// Reader count from which the speed-up floor applies.
const READERS_GATE_MIN_READERS: usize = 4;

/// JSON for the read-reservation sweep (hand-rolled — the workspace is
/// offline, no serde).
fn readers_points_to_json(
    points: &[ReadersPoint],
    auto: &[AutoReadPoint],
    min_speedup: f64,
) -> String {
    let mut out = String::from("{\n  \"bench\": \"read_reservation_sweep\",\n");
    out.push_str("  \"unit\": \"ops_per_sec\",\n");
    out.push_str(
        "  \"workload\": \"one hot handler owning an invariant pair; N clients, \
         write_percent of each client's ops are synced exclusive writes, the rest \
         queries taken exclusively (baseline) or via shared-read reservations\",\n",
    );
    out.push_str(&format!(
        "  \"gate\": {{\"min_readers\": {READERS_GATE_MIN_READERS}, \
         \"max_write_percent\": 1, \"min_shared_over_exclusive\": {min_speedup}}},\n"
    ));
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"readers\": {}, \"write_percent\": {}, \"mode\": \"{}\", \
             \"ops_per_client\": {}, \"total_ops\": {}, \"elapsed_secs\": {:.6}, \
             \"ops_per_sec\": {:.1}, \"peak_concurrent_readers\": {}, \
             \"writer_waits\": {}}}{}\n",
            p.readers,
            p.write_percent,
            if p.shared { "shared-read" } else { "exclusive" },
            p.ops_per_client,
            p.total_ops,
            p.elapsed.as_secs_f64(),
            p.ops_per_sec,
            p.peak_concurrent_readers,
            p.writer_waits,
            if i + 1 == points.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n  \"speedups\": [\n");
    let pairs = readers_pairs(points);
    for (i, (exclusive, shared)) in pairs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"readers\": {}, \"write_percent\": {}, \
             \"shared_over_exclusive\": {:.3}}}{}\n",
            exclusive.readers,
            exclusive.write_percent,
            shared.ops_per_sec / exclusive.ops_per_sec.max(f64::MIN_POSITIVE),
            if i + 1 == pairs.len() { "" } else { "," },
        ));
    }
    // The `auto` column: the same read-mostly surface program with reads
    // taken exclusively, through a hand-written `separate read`, or through
    // a plain block the effect-inference pass downgraded automatically.
    out.push_str("  ],\n  \"auto\": [\n");
    for (i, p) in auto.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"readings\": {}, \"iterations\": {}, \
             \"elapsed_secs\": {:.6}, \"queries_per_sec\": {:.1}, \
             \"read_reservations\": {}}}{}\n",
            p.mode,
            p.readings,
            p.iterations,
            p.elapsed.as_secs_f64(),
            p.queries_per_sec,
            p.read_reservations,
            if i + 1 == auto.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Pairs each exclusive cell with its shared-read twin.
fn readers_pairs(points: &[ReadersPoint]) -> Vec<(&ReadersPoint, &ReadersPoint)> {
    points
        .iter()
        .filter(|p| !p.shared)
        .filter_map(|exclusive| {
            points
                .iter()
                .find(|p| {
                    p.shared
                        && p.readers == exclusive.readers
                        && p.write_percent == exclusive.write_percent
                })
                .map(|shared| (exclusive, shared))
        })
        .collect()
}

/// The `readers` mode: sweep exclusive versus shared-read clients over a
/// readers × write-ratio grid and write `BENCH_readers.json`.
fn run_readers_sweep(scale: &str) {
    let (reader_counts, ops, min_speedup): (&[usize], usize, f64) = match scale {
        "smoke" => (&[1, 4], 10_000, READERS_SMOKE_MIN_SPEEDUP),
        "quick" => (&[1, 2, 4], 20_000, READERS_SMOKE_MIN_SPEEDUP),
        _ => (&[1, 2, 4, 8], 50_000, READERS_FULL_MIN_SPEEDUP),
    };
    let write_percents: &[u32] = &[0, 1, 10];
    let points = readers_sweep(reader_counts, write_percents, ops);
    let (auto_readings, auto_iterations) = match scale {
        "smoke" => (64, 50),
        "quick" => (128, 100),
        _ => (256, 200),
    };
    let auto = auto_read_sweep(auto_readings, auto_iterations);

    let rows: Vec<(String, Vec<String>)> = readers_pairs(&points)
        .iter()
        .map(|(exclusive, shared)| {
            (
                format!(
                    "{} readers, {}% writes",
                    exclusive.readers, exclusive.write_percent
                ),
                vec![
                    format!("{:.0}", exclusive.ops_per_sec),
                    format!("{:.0}", shared.ops_per_sec),
                    format!(
                        "{:.2}x",
                        shared.ops_per_sec / exclusive.ops_per_sec.max(f64::MIN_POSITIVE)
                    ),
                    shared.peak_concurrent_readers.to_string(),
                    shared.writer_waits.to_string(),
                ],
            )
        })
        .collect();
    print_table(
        "Shared-read reservations — exclusive vs read-mode clients on one hot handler",
        &[
            "cell".to_string(),
            "exclusive ops/s".to_string(),
            "shared ops/s".to_string(),
            "speed-up".to_string(),
            "peak readers".to_string(),
            "writer waits".to_string(),
        ],
        &rows,
    );

    let auto_rows: Vec<(String, Vec<String>)> = auto
        .iter()
        .map(|p| {
            (
                p.mode.to_string(),
                vec![
                    format!("{:.0}", p.queries_per_sec),
                    p.read_reservations.to_string(),
                ],
            )
        })
        .collect();
    print_table(
        &format!(
            "Auto-read downgrade — {auto_readings}-reading sensor, \
             {auto_iterations} iterations per mode"
        ),
        &[
            "mode".to_string(),
            "queries/s".to_string(),
            "read reservations".to_string(),
        ],
        &auto_rows,
    );

    let json = readers_points_to_json(&points, &auto, min_speedup);
    let path = "BENCH_readers.json";
    std::fs::write(path, json).expect("write BENCH_readers.json");
    println!("wrote {path}");

    // The regression gate CI runs in release mode: at read-mostly cells with
    // enough readers, shared-read reservations must actually buy concurrency.
    for (exclusive, shared) in readers_pairs(&points) {
        if exclusive.readers < READERS_GATE_MIN_READERS || exclusive.write_percent > 1 {
            continue;
        }
        let speedup = shared.ops_per_sec / exclusive.ops_per_sec.max(f64::MIN_POSITIVE);
        assert!(
            speedup >= min_speedup,
            "read-reservation regression: shared-read reached only {speedup:.2}x exclusive \
             throughput at {} readers / {}% writes (minimum {min_speedup}); see \
             BENCH_readers.json",
            exclusive.readers,
            exclusive.write_percent,
        );
        // Deterministic: every shared cell opens with all its clients
        // rendezvoused inside read blocks.
        assert!(
            shared.peak_concurrent_readers >= shared.readers as u64,
            "read-reservation regression: gate cell recorded only {} concurrent readers \
             of {} ({}% writes)",
            shared.peak_concurrent_readers,
            shared.readers,
            exclusive.write_percent,
        );
    }

    // The auto-read gate: the effect-inference downgrade must actually fire
    // (the inferred cell takes read reservations, the exclusive baseline
    // none), and an inferred `.read()` must not cost materially more than a
    // hand-written one.
    let auto_cell = |mode: &str| auto.iter().find(|p| p.mode == mode).expect("auto cell");
    assert_eq!(auto_cell("exclusive").read_reservations, 0);
    assert!(
        auto_cell("inferred").read_reservations > 0,
        "auto-read regression: the inferred cell took no read reservations; \
         the effect pass stopped emitting the downgrade"
    );
    let inferred_over_declared = auto_cell("inferred").queries_per_sec
        / auto_cell("declared").queries_per_sec.max(f64::MIN_POSITIVE);
    assert!(
        inferred_over_declared >= 0.5,
        "auto-read regression: inferred .read() reached only {inferred_over_declared:.2}x \
         the hand-written read block's throughput; see BENCH_readers.json"
    );
}

/// JSON for the distributed sweep (hand-rolled — the workspace is offline,
/// no serde).
fn remote_points_to_json(points: &[RemotePoint]) -> String {
    let mut out = String::from("{\n  \"bench\": \"remote_cluster_sweep\",\n");
    out.push_str("  \"unit\": \"requests_per_sec\",\n");
    out.push_str(
        "  \"workload\": \"bank: one handler per user, per-user separate block of \
         deposits + a verified balance query, sharded by consistent hashing\",\n",
    );
    out.push_str(&format!(
        "  \"calls_per_user\": {REMOTE_CALLS_PER_USER},\n  \
         \"queries_per_user\": {REMOTE_QUERIES_PER_USER},\n  \"points\": [\n"
    ));
    for (i, p) in points.iter().enumerate() {
        let handlers: Vec<String> = p.per_node_handlers.iter().map(i64::to_string).collect();
        out.push_str(&format!(
            "    {{\"transport\": \"{}\", \"nodes\": {}, \"users\": {}, \
             \"client_threads\": {}, \"blocks\": {}, \"calls\": {}, \"queries\": {}, \
             \"elapsed_secs\": {:.6}, \"requests_per_sec\": {:.1}, \
             \"per_node_handlers\": [{}], \"rtt_ns\": {}}}{}\n",
            p.transport,
            p.nodes,
            p.users,
            p.client_threads,
            p.blocks,
            p.calls,
            p.queries,
            p.elapsed.as_secs_f64(),
            p.requests_per_sec,
            handlers.join(", "),
            latency_to_json(&p.rtt),
            if i + 1 == points.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The `remote` mode: spawn real node processes, sweep users × nodes, write
/// `BENCH_remote.json`.
fn run_remote_sweep(scale: &str) {
    // (transport, nodes, users) cells per tier.  TCP carries the scaling
    // series; one Unix-socket cell per tier proves the second transport
    // end-to-end.
    let cells: &[(&'static str, usize, u64)] = match scale {
        "smoke" => &[("tcp", 2, 2_000), ("unix", 2, 500)],
        "quick" => &[("tcp", 1, 10_000), ("tcp", 2, 10_000), ("unix", 2, 2_000)],
        _ => &[
            ("tcp", 1, 20_000),
            ("tcp", 2, 100_000),
            ("tcp", 4, 100_000),
            ("unix", 2, 10_000),
        ],
    };
    let client_threads = qs_exec::default_parallelism().min(8);
    let mut points = Vec::with_capacity(cells.len());
    for &(transport, nodes, users) in cells {
        let point = remote_point("remote-node", nodes, users, client_threads, transport)
            .expect("remote sweep cell failed");
        println!(
            "remote: {transport} nodes={nodes} users={users} -> {:.0} req/s \
             ({} blocks in {:.2}s, rtt p50/p99 {:.0}/{:.0}µs, handlers per node {:?})",
            point.requests_per_sec,
            point.blocks,
            point.elapsed.as_secs_f64(),
            point.rtt.p50_ns as f64 / 1_000.0,
            point.rtt.p99_ns as f64 / 1_000.0,
            point.per_node_handlers,
        );
        points.push(point);
    }
    let rows: Vec<(String, Vec<String>)> = points
        .iter()
        .map(|p| {
            (
                format!("{} x{} nodes, {} users", p.transport, p.nodes, p.users),
                vec![
                    format!("{:.0}", p.requests_per_sec),
                    format!("{:.2}", p.elapsed.as_secs_f64()),
                    format!("{:?}", p.per_node_handlers),
                ],
            )
        })
        .collect();
    print_table(
        "Distributed SCOOP — users × nodes over real sockets (bank workload)",
        &[
            "cell".to_string(),
            "req/s".to_string(),
            "elapsed s".to_string(),
            "handlers/node".to_string(),
        ],
        &rows,
    );
    let json = remote_points_to_json(&points);
    let path = "BENCH_remote.json";
    std::fs::write(path, json).expect("write BENCH_remote.json");
    println!("wrote {path}");
}

/// The hidden `remote-node` mode: one cluster node process.  Prints
/// `READY <addr>` once the listener is bound, then serves until the driver
/// sends the `shutdown` control op.
fn run_remote_node(listen: &str) {
    use std::io::Write;
    let addr = qs_remote::NodeAddr::parse(listen).expect("node listen address");
    let server =
        qs_cluster::NodeServer::start(qs_cluster::bank_service(), qs_cluster::NodeConfig::at(addr))
            .expect("start cluster node");
    println!("READY {}", server.addr());
    std::io::stdout().flush().expect("flush READY line");
    server.wait();
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let what = args.get(1).map(String::as_str).unwrap_or("all");
    if what == "scheduler" {
        run_scheduler_sweep(args.get(2).map(String::as_str).unwrap_or("full"));
        return;
    }
    if what == "waits" {
        run_waits_sweep(args.get(2).map(String::as_str).unwrap_or("full"));
        return;
    }
    if what == "readers" {
        run_readers_sweep(args.get(2).map(String::as_str).unwrap_or("full"));
        return;
    }
    if what == "remote" {
        run_remote_sweep(args.get(2).map(String::as_str).unwrap_or("full"));
        return;
    }
    if what == "overhead" {
        run_overhead_gate(args.get(2).map(String::as_str).unwrap_or("full"));
        return;
    }
    if what == "remote-node" {
        run_remote_node(args.get(2).expect("remote-node needs a listen address"));
        return;
    }
    let scale = Scale::parse(args.get(2).map(String::as_str).unwrap_or("quick"));
    let threads = qs_exec::default_parallelism().min(8);
    println!("experiments: {what}  scale: {scale:?}  threads: {threads}");

    match what {
        "table1" | "fig16" => {
            run_table1(scale, threads);
        }
        "table2" | "fig17" => {
            run_table2(scale);
        }
        "table4" | "fig18" => run_table4(scale, threads),
        "fig19" => run_fig19(scale),
        "table5" | "fig20" => run_table5(scale),
        "summary" => run_summary(scale, threads),
        _ => {
            run_table1(scale, threads);
            run_table2(scale);
            run_table4(scale, threads);
            run_fig19(scale);
            run_table5(scale);
            run_summary(scale, threads);
        }
    }
}
