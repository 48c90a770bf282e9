//! The benchmark's contract in one place: workload names, end-to-end metrics
//! with their regression bounds, and every per-layer metric with its unit.
//! `BENCHMARK.json` at the repo root states the same tables; a unit test below
//! fails if the two drift apart.

use crate::probes::PROBES;

/// The six workloads, in the order `run` executes them.
pub const WORKLOADS: [&str; 6] = [
    "sync_query",
    "call_stream",
    "bank_transfer",
    "guard_handoff",
    "cluster_bank",
    "cowichan_chain",
];

/// Why each workload is in the set, in the order of [`WORKLOADS`].
const WHY: [&str; 6] = [
    "one-query block on one hot handler: two wake hops (qs-sync Handoff, qs-exec notify to step) and almost no queue work",
    "256 calls then one query per block: qs-queues push/drain and Separate::call dominate, the wake path is amortised 256:1",
    "10000 mostly idle account handlers, seeded two-handler transfers: idle-scheduled-step cycle, QoQ registration, arity-2 reserve",
    "bounded buffer behind when-guards, one producer, one consumer waiting for two items: guard registry, signal on block close",
    "two nodes over TCP loopback, 3 deposits and a balance per block: qs-remote encode/decode and socket writes, qs-cluster routing",
    "Cowichan chain on two worker handlers: bulk transfer through queries, the data-intensive half the coordination layers should not move",
];

/// Workloads for which a traced run also prints the probe-composition row.
pub const COMPOSED: [&str; 2] = ["sync_query", "cluster_bank"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// How a run's value of a metric is formed from its trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverTrials {
    /// Mean of the middle three of five: forgets one stray process at each
    /// end and averages two groups of processes instead of flipping between
    /// them.
    Midmean,
    /// The second lowest of five (the value a quarter of the way up).  For a
    /// statistic that is itself a tail: whenever anything else runs on the
    /// box for ten or twenty seconds, the p99 of every trial in that stretch
    /// doubles or quadruples, so a run's value has to survive three such
    /// trials of five; the lowest alone would be one lucky process.
    LowerQuartile,
}

/// An end-to-end metric: what a user of the runtime pays.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub over_trials: OverTrials,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "ops/s",
        better: Better::Higher,
        over_trials: OverTrials::Midmean,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        over_trials: OverTrials::Midmean,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p99_us",
        unit: "us",
        better: Better::Lower,
        over_trials: OverTrials::LowerQuartile,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        over_trials: OverTrials::Midmean,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        over_trials: OverTrials::Midmean,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        over_trials: OverTrials::Midmean,
        bound: 0.25,
    },
];

/// Counts read from outside the program over the measured window of the
/// workload being run (`Runtime::stats_snapshot`, `control(node, "stats")`),
/// divided by ops.  A count the workload cannot reach reads 0.
pub const COUNTS: [(&str, &str); 12] = [
    ("runtime.syncs_per_op", "count"),
    ("runtime.handler_wakeups_per_op", "count"),
    ("runtime.mean_batch_size", "count"),
    ("runtime.backpressure_stalls_per_kop", "count"),
    ("runtime.private_queues_per_op", "count"),
    ("runtime.wait_checks_per_op", "count"),
    ("runtime.guard_signals_per_op", "count"),
    ("runtime.guard_wakeups_per_op", "count"),
    ("exec.steals_per_kop", "count"),
    ("exec.peak_threads", "count"),
    ("cluster.connections_opened", "count"),
    ("cluster.nacks", "count"),
];

/// Statistics of the measured window that are too ill-conditioned to carry a
/// bound, kept as diagnostics.  The median time of a block in which the
/// client waited for nothing (`bank_transfer`'s transfers; 0 elsewhere) sits
/// on the step between "logged in 3 us" and "the worker just woken took the
/// client's core for 10-40 us", and moves by a quarter with the host's load.
pub const WINDOW_DIAGNOSTICS: [(&str, &str); 1] = [("latency.unwaited_block_p50_us", "us")];

/// Benchmark-side span names; index 0 is the root span of one op.
pub const SPANS: [&str; 11] = [
    "op",
    "runtime.reserve",
    "runtime.call",
    "runtime.query",
    "runtime.release",
    "cluster.open",
    "remote.call",
    "remote.query",
    "cluster.close",
    "workloads.compute",
    "workloads.communicate",
];

/// Per child span: `trace.<span>.count`, `.self_us`, `.share_of_op`.  Every
/// child span is a leaf, so its total time is its self time.
pub const SPAN_FIELDS: [(&str, &str); 3] = [
    ("count", "count"),
    ("self_us", "us"),
    ("share_of_op", "ratio"),
];

/// Trace-wide and composition metrics of a traced run.
pub const TRACE_TOTALS: [(&str, &str); 5] = [
    ("trace.residual_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("compose.predicted_us", "us"),
    ("compose.observed_us", "us"),
    ("compose.residual_us", "us"),
];

/// Every per-layer metric a traced run prints, with its unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = Vec::new();
    all.extend(PROBES.iter().map(|(n, u, _)| (n.to_string(), *u)));
    all.extend(COUNTS.iter().map(|(n, u)| (n.to_string(), *u)));
    all.extend(WINDOW_DIAGNOSTICS.iter().map(|(n, u)| (n.to_string(), *u)));
    for span in &SPANS[1..] {
        for (field, unit) in SPAN_FIELDS {
            all.push((format!("trace.{span}.{field}"), unit));
        }
    }
    all.extend(TRACE_TOTALS.iter().map(|(n, u)| (n.to_string(), *u)));
    all
}

/// What `BENCHMARK.json` at the repo root must contain, byte for byte.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out += "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n";
    out += "  \"paths\": [\"benchmark\"],\n";
    out += "  \"run_seconds\": 18,\n";
    let lines = |items: Vec<String>| items.join(",\n");
    out += "  \"workloads\": [\n";
    out += &lines(
        WORKLOADS
            .iter()
            .zip(WHY)
            .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
            .collect(),
    );
    out += "\n  ],\n  \"end_to_end\": [\n";
    out += &lines(
        END_TO_END
            .iter()
            .map(|m| {
                let better = match m.better {
                    Better::Higher => "higher",
                    Better::Lower => "lower",
                };
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                    m.name, m.unit, m.bound
                )
            })
            .collect(),
    );
    out += "\n  ],\n  \"per_layer\": [\n";
    out += &lines(
        per_layer()
            .into_iter()
            .map(|(name, unit)| {
                // Only a rate is better when higher; times, counts of work
                // per op and shares of an op are costs.
                let better = if unit == "1/s" { "higher" } else { "lower" };
                format!(
                    "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}"
                )
            })
            .collect(),
    );
    out += "\n  ]\n}\n";
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_at_the_repo_root_states_this_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `benchmark spec`"
        );
    }

    #[test]
    fn names_units_and_sizes_are_inside_the_contract() {
        let name_ok = |name: &str| {
            name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let layers = per_layer();
        assert!(layers.len() <= 128);
        let mut names: Vec<&str> = layers.iter().map(|(name, _)| name.as_str()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(WORKLOADS);
        assert!(names.iter().all(|name| name_ok(name)), "{names:?}");
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        assert!(WHY.iter().all(|why| why.len() <= 200 && !why.contains('"')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(benchmark_json().len() <= 64 * 1024);
    }
}
