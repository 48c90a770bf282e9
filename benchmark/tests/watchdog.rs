//! The orchestrator against a trial that never returns: the hidden `_hang`
//! workload must be killed by the watchdog and booked as failed ops, and the
//! run must still end with its result line.

use std::process::Command;
use std::time::{Duration, Instant};

#[test]
fn a_hung_trial_is_killed_and_booked_as_failed() {
    let started = Instant::now();
    let run = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", "_hang", "--seed", "1", "--trace", "0"])
        .args(["--trials", "1", "--seconds", "0.1", "--warmup", "0.1"])
        .output()
        .expect("start the benchmark");
    // Budget 0.1 + 0.1 + 3 s of set-up allowance, killed at three times that.
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "the run stalled"
    );

    let stdout = String::from_utf8(run.stdout).expect("utf-8 output");
    let line = stdout.lines().last().expect("a result line");
    assert!(line.contains(r#""correct": false"#), "{line}");
    assert!(line.contains(r#""attempted": 1, "failed": 1"#), "{line}");
    assert!(
        !run.status.success(),
        "a run without one finished trial is not a success"
    );
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("killed by the watchdog"), "{stderr}");
}
