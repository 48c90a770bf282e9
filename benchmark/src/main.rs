//! The repo's benchmark.  See `README.md` for what it measures and why.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, as the driver calls it
//! benchmark run [--seed n] [--seconds s] [--smoke]                     every workload, probes, traced trials
//! benchmark repeat [--seed n] [--seconds s]                            the untraced set twice, compared
//! benchmark spec                                                       what BENCHMARK.json must say
//! benchmark trial <workload> …  |  benchmark probes …                  the orchestrator's children
//! ```

mod orchestrate;
mod probes;
mod report;
mod spec;
mod stats;
mod trace;
mod trial;
mod workloads;

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Duration;

use orchestrate::Settings;

/// Where traces, run documents and the Unix-socket probe go: inside the
/// checkout the benchmark is run from, and git-ignored.
pub const OUT_DIR: &str = "benchmark/out";

/// Trials per run: each a fresh process.
const TRIALS: usize = 5;
/// Long enough for `bank_transfer` to have used all but a few dozen of its
/// accounts from every client.
const WARMUP_SECONDS: f64 = 0.6;
const RUN_SECONDS: f64 = 18.0;

struct Args {
    positional: Vec<String>,
    options: HashMap<String, String>,
    smoke: bool,
}

impl Args {
    fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            positional: Vec::new(),
            options: HashMap::new(),
            smoke: false,
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some("smoke") => parsed.smoke = true,
                Some(name) => {
                    let value = args.next().ok_or(format!("--{name} needs a value"))?;
                    parsed.options.insert(name.to_string(), value);
                }
                None => parsed.positional.push(arg),
            }
        }
        Ok(parsed)
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.options.get(name) {
            Some(value) => value
                .parse()
                .map_err(|_| format!("--{name}: cannot read `{value}`")),
            None => Ok(default),
        }
    }

    fn settings(&self) -> Result<Settings, String> {
        let seconds: f64 = self.get("seconds", RUN_SECONDS)?;
        let trials: usize = self.get("trials", TRIALS)?;
        if !(seconds > 0.0 && seconds <= 60.0) || trials == 0 {
            return Err("--seconds must be in (0, 60] and --trials at least 1".to_string());
        }
        Ok(Settings {
            seed: self.get("seed", 1)?,
            seconds,
            trials,
            warmup: self.get("warmup", WARMUP_SECONDS)?,
        })
    }
}

/// One run of one workload, as the driver calls it.  Exit code 0 unless an
/// output failed verification; lost trials are failed ops, not errors.
fn driver_run(args: &Args) -> Result<(), String> {
    let workload = args
        .options
        .get("workload")
        .ok_or("which workload?  --workload <name>")?;
    if !spec::WORKLOADS.contains(&workload.as_str()) && workload != "_hang" {
        return Err(format!("unknown workload `{workload}`"));
    }
    let settings = args.settings()?;
    let (correct, line) = if args.get("trace", 0u8)? == 0 {
        let measured =
            orchestrate::measure(workload, settings, orchestrate::default_clients(), None);
        let correct = measured.correct && !measured.trials.is_empty();
        let metrics = orchestrate::end_to_end(&measured);
        let line = orchestrate::driver_line(correct, measured.attempted, measured.failed, metrics);
        (correct, line)
    } else {
        let traced = orchestrate::traced(workload, settings, None);
        let line = orchestrate::driver_line(
            traced.correct,
            traced.attempted,
            traced.failed,
            traced.metrics,
        );
        (traced.correct, line)
    };
    println!("{line}");
    if correct {
        Ok(())
    } else {
        Err(format!("{workload}: an output failed verification"))
    }
}

fn dispatch(args: &Args) -> Result<(), String> {
    match args.positional.first().map(String::as_str) {
        None => driver_run(args),
        Some("run") => {
            let settings = args.settings()?;
            if args.smoke {
                let smoke = Settings {
                    seconds: 0.3,
                    trials: 1,
                    warmup: 0.1,
                    ..settings
                };
                orchestrate::run_all(smoke, 1.2)
            } else {
                orchestrate::run_all(settings, settings.seconds)
            }
        }
        Some("repeat") => orchestrate::repeat(args.settings()?),
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            Ok(())
        }
        Some("probes") => {
            let seconds: f64 = args.get("seconds", 2.5)?;
            probes::run_all(Duration::from_secs_f64(seconds));
            Ok(())
        }
        Some("trial") => trial::run(&trial::TrialArgs {
            workload: args.positional.get(1).ok_or("trial <workload>")?.clone(),
            seed: args.get("seed", 1)?,
            warmup: Duration::from_secs_f64(args.get("warmup", WARMUP_SECONDS)?),
            window: Duration::from_secs_f64(args.get("seconds", RUN_SECONDS / TRIALS as f64)?),
            clients: args.get("clients", orchestrate::default_clients())?,
            trace_out: args.options.get("trace-out").map(Into::into),
        }),
        Some(other) => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| dispatch(&args));
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::from(orchestrate::EXIT_UNVERIFIED)
        }
    }
}
