//! The orchestrator: re-executes this binary once per trial, so that each
//! trial is a fresh process (a sticky fast or slow mode is sampled once per
//! trial, not once per run) that a watchdog can kill.  A hang is booked as
//! failed ops, not as a crash of the pipeline.

use std::collections::BTreeMap;
use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::report::Json;
use crate::spec::{self, OverTrials, COMPOSED, END_TO_END, WORKLOADS};
use crate::stats::{lower_quartile, midmean, quartiles};

/// What one child printed: metric name to value.
pub type Results = BTreeMap<String, f64>;

/// How one run of one workload is measured.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    pub seed: u64,
    /// Measured seconds per run, split evenly over the trials.
    pub seconds: f64,
    pub trials: usize,
    /// Discarded warm-up before each trial's window.
    pub warmup: f64,
}

/// Time a trial may take to build its workload, on top of warm-up and
/// window, before the watchdog's factor applies.
const SETUP_ALLOWANCE: f64 = 3.0;
/// A child is killed at this multiple of its budget.
const WATCHDOG_FACTOR: f64 = 3.0;
/// The exit code of a trial whose outputs did not verify.
pub const EXIT_UNVERIFIED: u8 = 2;

pub fn default_clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

enum Outcome {
    /// The child exited by itself; `verified` is false when it said its
    /// outputs were wrong.
    Exited { results: Results, verified: bool },
    /// Killed by the watchdog, crashed, or could not be started.
    Lost(String),
}

/// Runs `benchmark <args>` as a child and waits for it, at most
/// `WATCHDOG_FACTOR × budget`.
fn child(args: &[String], budget: f64) -> Outcome {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return Outcome::Lost(format!("cannot find this executable: {e}")),
    };
    let mut child = match Command::new(exe).args(args).stdout(Stdio::piped()).spawn() {
        Ok(child) => child,
        Err(e) => return Outcome::Lost(format!("cannot start a child: {e}")),
    };
    let deadline = Instant::now() + Duration::from_secs_f64(WATCHDOG_FACTOR * budget);
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            Ok(None) => {
                // Kill, then wait: no process outlives the benchmark.
                let _ = child.kill();
                let _ = child.wait();
                return Outcome::Lost(format!("killed by the watchdog: {}", args.join(" ")));
            }
            Err(e) => return Outcome::Lost(format!("cannot wait for a child: {e}")),
        }
    };
    // A child prints a few kilobytes, less than a pipe holds, so reading
    // after it has exited cannot have blocked it.
    let mut printed = String::new();
    if let Some(mut stdout) = child.stdout.take() {
        let _ = stdout.read_to_string(&mut printed);
    }
    let results: Results = printed
        .lines()
        .filter_map(|line| {
            let mut words = line.strip_prefix("RESULT ")?.split(' ');
            Some((words.next()?.to_string(), words.next()?.parse().ok()?))
        })
        .collect();
    match status.code() {
        Some(0) => Outcome::Exited {
            results,
            verified: true,
        },
        Some(code) if code == i32::from(EXIT_UNVERIFIED) => Outcome::Exited {
            results,
            verified: false,
        },
        _ => Outcome::Lost(format!("{status}: {}", args.join(" "))),
    }
}

/// The trials of one workload, with the books the contract asks for.
#[derive(Default)]
pub struct Measured {
    /// Trials that exited by themselves, in order.
    pub trials: Vec<Results>,
    /// Trials the watchdog killed or that crashed.
    pub lost: Vec<String>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
}

impl Measured {
    pub fn values(&self, metric: &str) -> Vec<f64> {
        self.trials
            .iter()
            .filter_map(|trial| trial.get(metric).copied())
            .collect()
    }

    /// The run's value of `metric`, formed from its trials as the metric's
    /// [`OverTrials`] says (midmean for anything that is not an end-to-end
    /// metric).
    pub fn value(&self, metric: &str) -> f64 {
        let values = self.values(metric);
        let over_trials = END_TO_END
            .iter()
            .find(|m| m.name == metric)
            .map_or(OverTrials::Midmean, |m| m.over_trials);
        match over_trials {
            OverTrials::Midmean => midmean(&values),
            OverTrials::LowerQuartile => lower_quartile(&values),
        }
    }
}

/// Runs `trials` fresh trial processes of `workload`, one after another.
pub fn measure(
    workload: &str,
    settings: Settings,
    clients: usize,
    trace_out: Option<&PathBuf>,
) -> Measured {
    let window = settings.seconds / settings.trials as f64;
    let mut measured = Measured {
        correct: true,
        ..Measured::default()
    };
    for trial in 0..settings.trials {
        let mut args = vec![
            "trial".to_string(),
            workload.to_string(),
            "--seed".to_string(),
            // Each trial draws its own inputs, all fixed by the run's seed.
            (settings.seed.wrapping_mul(1_000_003) + trial as u64).to_string(),
            "--warmup".to_string(),
            settings.warmup.to_string(),
            "--seconds".to_string(),
            window.to_string(),
            "--clients".to_string(),
            clients.to_string(),
        ];
        if let Some(path) = trace_out {
            args.push("--trace-out".to_string());
            args.push(path.display().to_string());
        }
        // A traced trial has a second window of the same length.
        let windows = if trace_out.is_some() { 2.0 } else { 1.0 };
        match child(&args, settings.warmup + windows * window + SETUP_ALLOWANCE) {
            Outcome::Exited { results, verified } => {
                let ops = results.get("ops").copied().unwrap_or(0.0) as u64;
                let failed = results.get("failed").copied().unwrap_or(0.0) as u64;
                measured.attempted += ops + failed;
                measured.failed += failed;
                measured.correct &= verified;
                measured.trials.push(results);
            }
            Outcome::Lost(why) => {
                eprintln!("benchmark: {workload}: trial {trial} lost: {why}");
                measured.lost.push(why);
            }
        }
    }
    // A lost trial owes the ops a trial of this run completes: all failed.
    let owed = (measured.value("ops") as u64).max(1) * measured.lost.len() as u64;
    measured.attempted += owed;
    measured.failed += owed;
    measured
}

/// Runs the layer probes in a child for about `seconds` altogether.
pub fn probes(seconds: f64) -> Results {
    let args = [
        "probes".to_string(),
        "--seconds".to_string(),
        seconds.to_string(),
    ];
    match child(&args, seconds + SETUP_ALLOWANCE) {
        Outcome::Exited { results, .. } => results,
        Outcome::Lost(why) => {
            eprintln!("benchmark: probes lost: {why}");
            Results::new()
        }
    }
}

/// The end-to-end metrics of an untraced run, each formed over its trials.
pub fn end_to_end(measured: &Measured) -> Vec<(String, Json)> {
    END_TO_END
        .iter()
        .map(|metric| {
            let value = measured.value(metric.name);
            (metric.name.to_string(), Json::metric(value, metric.unit))
        })
        .collect()
}

/// Like [`end_to_end`], with the quartiles and range over the trials beside
/// each value.
fn end_to_end_detailed(measured: &Measured) -> Json {
    Json::Obj(
        END_TO_END
            .iter()
            .map(|metric| {
                let values = measured.values(metric.name);
                let mid = measured.value(metric.name);
                let (q1, q3) = quartiles(&values).unwrap_or((mid, mid));
                let low = values.iter().copied().fold(f64::INFINITY, f64::min);
                let high = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let detail = Json::obj([
                    ("value", Json::Num(mid)),
                    ("unit", Json::str(metric.unit)),
                    ("q1", Json::Num(q1)),
                    ("q3", Json::Num(q3)),
                    ("range_share", Json::Num((high - low) / mid)),
                    (
                        "trials",
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    ),
                ]);
                (metric.name.to_string(), detail)
            })
            .collect(),
    )
}

/// What the probes predict one single-client block costs, in microseconds.
fn predicted_us(workload: &str, probes: &Results) -> f64 {
    let ns = |name: &str| probes.get(name).copied().unwrap_or(0.0);
    let predicted_ns = match workload {
        "sync_query" => {
            ns("runtime.reserve1_empty_ns")
                + ns("exec.notify_to_step_ns")
                + ns("sync.handoff_roundtrip_ns")
        }
        "cluster_bank" => {
            ns("cluster.route_ns")
                + 4.0 * (ns("remote.encode_call_ns") + ns("remote.decode_call_ns"))
                + ns("remote.tcp_rtt_ns")
        }
        _ => 0.0,
    };
    predicted_ns / 1e3
}

/// A traced run of one workload.
pub struct Traced {
    pub metrics: Vec<(String, Json)>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
}

/// The per-layer metrics of one workload: one traced trial (an untraced
/// window for the counts and the rate tracing is compared with, then a
/// traced window in the same process), for the composed workloads one
/// single-client trial, and the probes (run here unless the caller already
/// has them).  Each window and the probes get a quarter of
/// `settings.seconds`.
pub fn traced(workload: &str, settings: Settings, probe_results: Option<&Results>) -> Traced {
    let part = Settings {
        seconds: settings.seconds / 4.0,
        trials: 1,
        ..settings
    };
    let trace_path = PathBuf::from(crate::OUT_DIR).join(format!("trace-{workload}.json"));
    let with_spans = measure(workload, part, default_clients(), Some(&trace_path));
    let single = COMPOSED
        .contains(&workload)
        .then(|| measure(workload, part, 1, None));
    let own_probes;
    let probe_results = match probe_results {
        Some(results) => results,
        None => {
            own_probes = probes(part.seconds);
            &own_probes
        }
    };

    let mut values = probe_results.clone();
    for results in &with_spans.trials {
        values.extend(results.iter().map(|(name, value)| (name.clone(), *value)));
    }
    if let Some(single) = &single {
        let predicted = predicted_us(workload, probe_results);
        let observed = single.value("latency_p50_us");
        values.insert("compose.predicted_us".to_string(), predicted);
        values.insert("compose.observed_us".to_string(), observed);
        values.insert("compose.residual_us".to_string(), observed - predicted);
    }

    let trials = [Some(&with_spans), single.as_ref()];
    let trials = || trials.iter().flatten();
    Traced {
        metrics: spec::per_layer()
            .into_iter()
            .map(|(name, unit)| {
                // A span or count this workload does not have reads 0.
                let value = values.get(&name).copied().unwrap_or(0.0);
                (name, Json::metric(value, unit))
            })
            .collect(),
        correct: trials().all(|m| m.correct && m.lost.is_empty())
            && probe_results.len() >= crate::probes::PROBES.len(),
        attempted: trials().map(|m| m.attempted).sum(),
        failed: trials().map(|m| m.failed).sum(),
    }
}

/// The one line the driver reads.
pub fn driver_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, Json)>,
) -> Json {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted.max(1))),
        ("failed", Json::Int(failed)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|output| output.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |output| String::from_utf8_lossy(&output.stdout).trim().to_string(),
        )
}

fn environment() -> Json {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    Json::obj([
        ("available_parallelism", Json::Int(parallelism as u64)),
        ("clients", Json::Int(default_clients() as u64)),
        (
            "commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        ("kernel", Json::str(kernel.trim())),
    ])
}

/// `run`: every workload untraced, the probes once, then every workload
/// traced; one JSON document on stdout and under `out/`.  `Err` only when an
/// output failed verification.
pub fn run_all(settings: Settings, traced_seconds: f64) -> Result<(), String> {
    let clients = default_clients();
    let untraced: Vec<Measured> = WORKLOADS
        .iter()
        .map(|workload| measure(workload, settings, clients, None))
        .collect();
    let traced_settings = Settings {
        seconds: traced_seconds,
        ..settings
    };
    let probe_results = probes(traced_seconds / 4.0);
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for (workload, measured) in WORKLOADS.iter().zip(&untraced) {
        let layers = traced(workload, traced_settings, Some(&probe_results));
        all_correct &= measured.correct && layers.correct;
        let failed_share = measured.failed as f64 / measured.attempted.max(1) as f64;
        workloads.push((
            workload.to_string(),
            Json::obj([
                ("correct", Json::Bool(measured.correct && layers.correct)),
                ("attempted", Json::Int(measured.attempted)),
                ("failed", Json::Int(measured.failed)),
                ("failed_ops_share", Json::Num(failed_share)),
                ("lost_trials", Json::Int(measured.lost.len() as u64)),
                (
                    "latency_samples_per_trial",
                    Json::Num(measured.value("latency_samples")),
                ),
                ("end_to_end", end_to_end_detailed(measured)),
                ("per_layer", Json::Obj(layers.metrics)),
            ]),
        ));
    }
    let document = Json::obj([
        ("seed", Json::Int(settings.seed)),
        ("seconds_per_workload", Json::Num(settings.seconds)),
        ("trials_per_workload", Json::Int(settings.trials as u64)),
        ("warmup_seconds_per_trial", Json::Num(settings.warmup)),
        ("environment", environment()),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = PathBuf::from(crate::OUT_DIR).join(format!("run-seed{}.json", settings.seed));
    std::fs::create_dir_all(crate::OUT_DIR)
        .and_then(|()| std::fs::write(&path, format!("{document}\n")))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{document}");
    if all_correct {
        Ok(())
    } else {
        Err("an output failed verification".to_string())
    }
}

/// `repeat`: the untraced set twice, back to back; per workload and
/// end-to-end metric both values, how much the second differs, the bound,
/// and a verdict.  `Err` when any pair differs by more than its bound.
pub fn repeat(settings: Settings) -> Result<(), String> {
    let clients = default_clients();
    let set = || -> Vec<Measured> {
        WORKLOADS
            .iter()
            .map(|workload| measure(workload, settings, clients, None))
            .collect()
    };
    let (first, second) = (set(), set());
    println!(
        "{:<15} {:<15} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    let mut unresolved = 0;
    for ((workload, a), b) in WORKLOADS.iter().zip(&first).zip(&second) {
        for metric in END_TO_END {
            let (x, y) = (a.value(metric.name), b.value(metric.name));
            let diff = (y - x) / x;
            let pass = diff.abs() <= metric.bound;
            unresolved += usize::from(!pass);
            println!(
                "{workload:<15} {:<15} {x:>14.5} {y:>14.5} {:>+7.1}% {:>5.0}%  {}",
                metric.name,
                100.0 * diff,
                100.0 * metric.bound,
                if pass { "PASS" } else { "UNRESOLVED" },
            );
        }
        for (label, set) in [("first", a), ("second", b)] {
            println!(
                "{workload:<15} failed_ops_share ({label}) = {} / {}, lost trials {}",
                set.failed,
                set.attempted,
                set.lost.len()
            );
            unresolved += usize::from(set.failed > 0 || !set.correct);
        }
    }
    if unresolved == 0 {
        Ok(())
    } else {
        Err(format!(
            "{unresolved} pairs differ by more than their bound or failed"
        ))
    }
}
