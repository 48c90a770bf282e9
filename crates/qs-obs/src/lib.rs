//! # qs-obs — observability for the SCOOP/Qs runtime
//!
//! The runtime's performance story (West, Nanz, Meyer — PPoPP 2015, §5)
//! rests on attributing gains to specific mechanisms: sync elision, query
//! pipelining, queue structure.  This crate supplies the instrumentation
//! discipline that makes such attribution possible on the grown system:
//!
//! * **[`trace`](mod@trace)** — a low-overhead event-tracing layer: per-thread
//!   lock-free ring buffers of typed [`TraceKind`] events with monotonic
//!   timestamps, exportable as Chrome `trace_event` JSON
//!   ([`chrome_trace_json`]) and dumpable as a flight recorder
//!   ([`flight_recorder`]) when something goes wrong.
//! * **[`metrics`]** — a process-wide registry ([`registry`]) of counters,
//!   gauges and log-bucketed latency [`Histogram`]s (p50/p95/p99/max),
//!   exposable as JSON and Prometheus-style text.
//! * **[`json`]** — the hand-rolled JSON writer/parser the exposition and
//!   its validation use (the workspace is offline; no serde).
//!
//! Everything is gated behind a process-global [`ObservabilityMode`]:
//! `Off` (the default) costs one relaxed atomic load and a predicted
//! branch per instrumentation site; `Counters` arms the metric
//! histograms/counters; `Full` additionally records trace events.  The
//! runtime raises the mode from `RuntimeConfig::observability`
//! ([`raise_mode`]); benchmarks and tests may set it explicitly
//! ([`set_mode`]).  The mode is deliberately global, like a `tracing`
//! subscriber: lower layers (queues, executor, remote transport) record
//! events without threading a handle through every constructor.

#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod trace;

pub use json::{parse_json, JsonValue};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, HISTOGRAM_BUCKETS,
};
pub use trace::{
    chrome_trace_json, flight_recorder, now_nanos, reset_trace, trace, trace_always, trace_events,
    TraceEvent, TraceKind,
};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// How much the process records.  `Off` is the default and keeps every
/// instrumentation site down to a relaxed load and a predicted branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
#[repr(u8)]
pub enum ObservabilityMode {
    /// Record nothing (the zero-cost default).
    #[default]
    Off = 0,
    /// Arm the metrics registry: counters, gauges, latency histograms.
    Counters = 1,
    /// Additionally record trace events into the per-thread ring buffers.
    Full = 2,
}

impl ObservabilityMode {
    /// Every mode, in increasing order of cost.
    pub const ALL: [ObservabilityMode; 3] = [
        ObservabilityMode::Off,
        ObservabilityMode::Counters,
        ObservabilityMode::Full,
    ];

    /// Display label (also accepted by [`parse`](Self::parse)).
    pub fn label(self) -> &'static str {
        match self {
            ObservabilityMode::Off => "off",
            ObservabilityMode::Counters => "counters",
            ObservabilityMode::Full => "full",
        }
    }

    /// Parses a label; unknown names mean `None`.
    pub fn parse(name: &str) -> Option<ObservabilityMode> {
        match name {
            "off" => Some(ObservabilityMode::Off),
            "counters" => Some(ObservabilityMode::Counters),
            "full" => Some(ObservabilityMode::Full),
            _ => None,
        }
    }

    fn from_u8(raw: u8) -> ObservabilityMode {
        match raw {
            2 => ObservabilityMode::Full,
            1 => ObservabilityMode::Counters,
            _ => ObservabilityMode::Off,
        }
    }
}

impl std::fmt::Display for ObservabilityMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The process-global mode.  Relaxed everywhere: a site observing a stale
/// mode for a few loads merely records (or skips) a handful of events.
static MODE: AtomicU8 = AtomicU8::new(0);

/// The current process-global observability mode.
#[inline]
pub fn mode() -> ObservabilityMode {
    ObservabilityMode::from_u8(MODE.load(Ordering::Relaxed))
}

/// Sets the process-global mode (benchmarks, tests, examples).
pub fn set_mode(mode: ObservabilityMode) {
    MODE.store(mode as u8, Ordering::Relaxed);
}

/// Raises the process-global mode to at least `mode` (never lowers it) —
/// what `Runtime::new` does with `RuntimeConfig::observability`, so one
/// `Full` runtime in a process of `Off` runtimes records its events.
pub fn raise_mode(mode: ObservabilityMode) {
    MODE.fetch_max(mode as u8, Ordering::Relaxed);
}

/// Whether counters/gauges/histograms should record (`Counters` or `Full`).
#[inline(always)]
pub fn counters_enabled() -> bool {
    MODE.load(Ordering::Relaxed) >= ObservabilityMode::Counters as u8
}

/// Whether trace events should record (`Full` only).
#[inline(always)]
pub fn tracing_enabled() -> bool {
    MODE.load(Ordering::Relaxed) >= ObservabilityMode::Full as u8
}

/// The process-wide metrics registry.
pub fn registry() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(MetricsRegistry::new)
}

/// The sampling period hot per-request sites use with [`sampled`].
///
/// Per-request instrumentation (the enqueue→execute latency stamp, the
/// mailbox-enqueue trace event) fires once per [`HOT_SAMPLE`] requests per
/// thread instead of on every request: a uniform 1-in-N sample preserves
/// the latency distribution's percentiles while keeping the armed-mode
/// cost on a sub-microsecond hot path within the overhead gate's budget
/// (full instrumentation of every request was measured at 2-4x that).
/// Low-frequency events (reservation acquire, guard park/resume, query and
/// remote round trips, drains, stalls, deadlock scans) stay unsampled.
pub const HOT_SAMPLE: u32 = 32;

thread_local! {
    static SAMPLE_TICK: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Per-thread 1-in-`n` sampling tick for hot-path instrumentation: true on
/// a thread's first call and then every `n`-th.  The tick is shared by all
/// call sites on the thread (it is a statistical sample, not a schedule),
/// and each call costs one thread-local increment.
#[inline]
pub fn sampled(n: u32) -> bool {
    SAMPLE_TICK.with(|tick| {
        let t = tick.get();
        tick.set(t.wrapping_add(1));
        n <= 1 || t % n == 0
    })
}

/// A latency stopwatch that is armed only when counters are enabled, so
/// disabled call sites never pay for `Instant::now()`.
#[derive(Debug)]
#[must_use = "a timer records nothing unless finished with record()"]
pub struct Timer(Option<std::time::Instant>);

/// Starts a [`Timer`]; unarmed (free) when the mode is `Off`.
#[inline]
pub fn timer() -> Timer {
    if counters_enabled() {
        Timer(Some(std::time::Instant::now()))
    } else {
        Timer(None)
    }
}

impl Timer {
    /// A timer that never records, regardless of mode.
    pub fn disarmed() -> Timer {
        Timer(None)
    }

    /// Whether the timer was armed at creation.
    pub fn is_armed(&self) -> bool {
        self.0.is_some()
    }

    /// Records the elapsed nanoseconds into `histogram` (if armed) and
    /// returns them.
    #[inline]
    pub fn record(self, histogram: &Histogram) -> Option<u64> {
        self.0.map(|start| {
            let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            histogram.record(nanos);
            nanos
        })
    }
}

/// Caches a registry histogram in a per-call-site static, so hot paths pay
/// one `OnceLock` check instead of a registry lock per event.
#[macro_export]
macro_rules! obs_histogram {
    ($name:expr) => {{
        static SLOT: std::sync::OnceLock<std::sync::Arc<$crate::Histogram>> =
            std::sync::OnceLock::new();
        SLOT.get_or_init(|| $crate::registry().histogram($name))
    }};
}

/// Caches a registry counter in a per-call-site static (see
/// [`obs_histogram!`]).
#[macro_export]
macro_rules! obs_counter {
    ($name:expr) => {{
        static SLOT: std::sync::OnceLock<std::sync::Arc<$crate::Counter>> =
            std::sync::OnceLock::new();
        SLOT.get_or_init(|| $crate::registry().counter($name))
    }};
}

/// Bumps a named counter by `n` when counters are enabled.
#[macro_export]
macro_rules! obs_count {
    ($name:expr, $n:expr) => {
        if $crate::counters_enabled() {
            $crate::obs_counter!($name).add($n);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_orderings_and_labels() {
        assert!(ObservabilityMode::Off < ObservabilityMode::Counters);
        assert!(ObservabilityMode::Counters < ObservabilityMode::Full);
        for mode in ObservabilityMode::ALL {
            assert_eq!(ObservabilityMode::parse(mode.label()), Some(mode));
            assert_eq!(ObservabilityMode::from_u8(mode as u8), mode);
        }
        assert_eq!(ObservabilityMode::parse("verbose"), None);
        assert_eq!(ObservabilityMode::default(), ObservabilityMode::Off);
    }

    #[test]
    fn raise_never_lowers() {
        // Serialised against other mode tests by running in one process;
        // restore Off at the end either way.
        set_mode(ObservabilityMode::Full);
        raise_mode(ObservabilityMode::Counters);
        assert_eq!(mode(), ObservabilityMode::Full);
        set_mode(ObservabilityMode::Off);
        assert!(!counters_enabled());
        assert!(!tracing_enabled());
        raise_mode(ObservabilityMode::Counters);
        assert!(counters_enabled());
        assert!(!tracing_enabled());
        set_mode(ObservabilityMode::Off);
    }

    #[test]
    fn timer_is_free_when_off() {
        set_mode(ObservabilityMode::Off);
        assert!(!timer().is_armed());
        let h = Histogram::new();
        assert_eq!(timer().record(&h), None);
        assert_eq!(h.snapshot().count, 0);
        assert!(!Timer::disarmed().is_armed());
    }
}
