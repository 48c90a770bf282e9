//! The event-tracing layer: per-thread lock-free ring buffers of typed
//! events with monotonic timestamps, exportable as Chrome `trace_event`
//! JSON (`chrome://tracing`, Perfetto) and dumpable as a flight recorder.
//!
//! Recording is wait-free for the owning thread: each thread writes its
//! own ring through relaxed atomic stores and publishes with one release
//! store of the head index.  Readers (trace export, flight dumps) may run
//! concurrently; the event being overwritten at that instant can read
//! torn, which a post-mortem recorder accepts in exchange for never
//! stalling the traced hot path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json::escape_json;

/// The typed events the runtime records (one per instrumented mechanism).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceKind {
    /// A handler came to life (`a` = handler id).
    HandlerSpawn,
    /// A handler retired (`a` = handler id).
    HandlerRetire,
    /// A reservation (separate block) was acquired (`a` = handler id,
    /// `b` = 1 for read mode, 0 for exclusive).
    ReserveAcquire,
    /// A reservation was released (`a` = handler id, `b` = read flag).
    ReserveRelease,
    /// The read gate admitted a reader (`a` = handler id).
    ReadAcquire,
    /// A reader left the read gate (`a` = handler id).
    ReadRelease,
    /// A request was enqueued into a private queue (`a` = handler id).
    MailboxEnqueue,
    /// A handler drained a batch (`a` = handler id, `b` = batch size).
    MailboxDrain,
    /// A producer stalled on a full mailbox (`a` = handler id).
    MailboxStall,
    /// A scheduler worker parked idle (`a` = worker).
    SchedPark,
    /// A handler went through the pressure lane (`a` = handler id).
    SchedPressure,
    /// A handler signalled its guard-waiter registry (`a` = handler id,
    /// `b` = waiters signalled).
    GuardSignal,
    /// A parked waiter woke to re-evaluate its condition (`a` = handler id).
    GuardWakeup,
    /// The deadlock monitor scanned the wait-for graph (`a` = edges).
    DeadlockScan,
    /// The deadlock monitor confirmed a cycle (`a` = cycle length).
    DeadlockReport,
    /// A wire frame was sent (`a` = payload bytes).
    FrameSend,
    /// A wire frame was received (`a` = payload bytes).
    FrameRecv,
}

impl TraceKind {
    /// Every kind (docs, tests, exporters).
    pub const ALL: [TraceKind; 17] = [
        TraceKind::HandlerSpawn,
        TraceKind::HandlerRetire,
        TraceKind::ReserveAcquire,
        TraceKind::ReserveRelease,
        TraceKind::ReadAcquire,
        TraceKind::ReadRelease,
        TraceKind::MailboxEnqueue,
        TraceKind::MailboxDrain,
        TraceKind::MailboxStall,
        TraceKind::SchedPark,
        TraceKind::SchedPressure,
        TraceKind::GuardSignal,
        TraceKind::GuardWakeup,
        TraceKind::DeadlockScan,
        TraceKind::DeadlockReport,
        TraceKind::FrameSend,
        TraceKind::FrameRecv,
    ];

    /// Dotted event name, `category.event`.
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::HandlerSpawn => "handler.spawn",
            TraceKind::HandlerRetire => "handler.retire",
            TraceKind::ReserveAcquire => "reserve.acquire",
            TraceKind::ReserveRelease => "reserve.release",
            TraceKind::ReadAcquire => "read.acquire",
            TraceKind::ReadRelease => "read.release",
            TraceKind::MailboxEnqueue => "mailbox.enqueue",
            TraceKind::MailboxDrain => "mailbox.drain",
            TraceKind::MailboxStall => "mailbox.stall",
            TraceKind::SchedPark => "sched.park",
            TraceKind::SchedPressure => "sched.pressure",
            TraceKind::GuardSignal => "guard.signal",
            TraceKind::GuardWakeup => "guard.wakeup",
            TraceKind::DeadlockScan => "deadlock.scan",
            TraceKind::DeadlockReport => "deadlock.report",
            TraceKind::FrameSend => "remote.frame_send",
            TraceKind::FrameRecv => "remote.frame_recv",
        }
    }

    /// The Chrome-trace category (the part before the dot).
    pub fn category(self) -> &'static str {
        let label = self.label();
        &label[..label.find('.').expect("labels are dotted")]
    }

    fn from_u8(raw: u8) -> Option<TraceKind> {
        TraceKind::ALL.get(raw as usize).copied()
    }
}

/// One recorded event, as read back out of a ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Recording thread's trace id (dense, assigned at first event).
    pub tid: u64,
    /// Recording thread's name ("" when unnamed).
    pub thread: String,
    /// What happened.
    pub kind: TraceKind,
    /// Nanoseconds since the process's trace epoch.
    pub ts_nanos: u64,
    /// First event argument (see [`TraceKind`] docs).
    pub a: u64,
    /// Second event argument.
    pub b: u64,
}

/// Events each thread retains (ring capacity): enough history to see the
/// run-up to a stall or deadlock without unbounded memory.
pub const RING_CAPACITY: usize = 4096;

struct Slot {
    /// `kind as u64 + 1`; 0 marks a never-written slot.
    kind: AtomicU64,
    ts: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

/// One thread's ring.  Written only by its owning thread; read by anyone.
struct ThreadRing {
    tid: u64,
    name: String,
    /// Monotone count of events ever written (next write position).
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl ThreadRing {
    fn record(&self, kind: TraceKind, ts: u64, a: u64, b: u64) {
        let head = self.head.load(Ordering::Relaxed);
        // RING_CAPACITY is a power of two: mask, don't divide (the div was
        // visible in the overhead gate's Full cell).
        debug_assert!(self.slots.len().is_power_of_two());
        let slot = &self.slots[head as usize & (self.slots.len() - 1)];
        slot.kind.store(kind as u64 + 1, Ordering::Relaxed);
        slot.ts.store(ts, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        self.head.store(head + 1, Ordering::Release);
    }

    /// The retained events, oldest first.
    fn events(&self) -> Vec<TraceEvent> {
        let head = self.head.load(Ordering::Acquire);
        let len = self.slots.len() as u64;
        let start = head.saturating_sub(len);
        (start..head)
            .filter_map(|i| {
                let slot = &self.slots[i as usize % self.slots.len()];
                let kind = slot.kind.load(Ordering::Relaxed);
                let kind = TraceKind::from_u8(kind.checked_sub(1)? as u8)?;
                Some(TraceEvent {
                    tid: self.tid,
                    thread: self.name.clone(),
                    kind,
                    ts_nanos: slot.ts.load(Ordering::Relaxed),
                    a: slot.a.load(Ordering::Relaxed),
                    b: slot.b.load(Ordering::Relaxed),
                })
            })
            .collect()
    }
}

#[derive(Default)]
struct TraceRegistry {
    rings: Mutex<Vec<Arc<ThreadRing>>>,
    next_tid: AtomicU64,
}

fn trace_registry() -> &'static TraceRegistry {
    static REGISTRY: OnceLock<TraceRegistry> = OnceLock::new();
    REGISTRY.get_or_init(TraceRegistry::default)
}

/// The process's trace epoch (fixed at the first timestamp request).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch — the timestamp base every recorded
/// event and cross-thread latency stamp shares.
#[inline]
pub fn now_nanos() -> u64 {
    epoch().elapsed().as_nanos().min(u64::MAX as u128) as u64
}

thread_local! {
    static RING: std::cell::OnceCell<Arc<ThreadRing>> = const { std::cell::OnceCell::new() };
}

fn with_ring(f: impl FnOnce(&ThreadRing)) {
    RING.with(|cell| {
        let ring = cell.get_or_init(|| {
            let registry = trace_registry();
            let ring = Arc::new(ThreadRing {
                tid: registry.next_tid.fetch_add(1, Ordering::Relaxed),
                name: std::thread::current().name().unwrap_or("").to_string(),
                head: AtomicU64::new(0),
                slots: (0..RING_CAPACITY)
                    .map(|_| Slot {
                        kind: AtomicU64::new(0),
                        ts: AtomicU64::new(0),
                        a: AtomicU64::new(0),
                        b: AtomicU64::new(0),
                    })
                    .collect(),
            });
            registry
                .rings
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(Arc::clone(&ring));
            ring
        });
        f(ring);
    });
}

/// Records one event into the current thread's ring — if the mode is
/// `Full`; otherwise a relaxed load and a predicted branch.
#[inline]
pub fn trace(kind: TraceKind, a: u64, b: u64) {
    if crate::tracing_enabled() {
        trace_always(kind, a, b);
    }
}

/// Records unconditionally (exporter tests; prefer [`trace`]).
pub fn trace_always(kind: TraceKind, a: u64, b: u64) {
    let ts = now_nanos();
    with_ring(|ring| ring.record(kind, ts, a, b));
}

/// Every retained event from every thread that ever recorded, oldest
/// first per thread.
pub fn trace_events() -> Vec<TraceEvent> {
    let rings: Vec<Arc<ThreadRing>> = trace_registry()
        .rings
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone();
    let mut events: Vec<TraceEvent> = rings.iter().flat_map(|r| r.events()).collect();
    events.sort_by_key(|e| e.ts_nanos);
    events
}

/// Clears every ring (the threads keep their registrations).  Benchmarks
/// and examples use this to scope an export to one phase.
pub fn reset_trace() {
    let rings: Vec<Arc<ThreadRing>> = trace_registry()
        .rings
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone();
    for ring in rings {
        for slot in ring.slots.iter() {
            slot.kind.store(0, Ordering::Relaxed);
        }
        ring.head.store(0, Ordering::Release);
    }
}

/// Exports every retained event as Chrome `trace_event` JSON (the
/// "JSON Array Format" object with `traceEvents`): open the file in
/// `chrome://tracing` or <https://ui.perfetto.dev>.  Events are instants
/// (`ph:"i"`, thread scope); threads are named via `M` metadata records.
pub fn chrome_trace_json() -> String {
    let rings: Vec<Arc<ThreadRing>> = trace_registry()
        .rings
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone();
    let mut out = String::from("{\"traceEvents\": [\n");
    let mut first = true;
    let mut push = |line: String, out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&line);
    };
    for ring in &rings {
        push(
            format!(
                "  {{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {}, \
                 \"args\": {{\"name\": \"{}\"}}}}",
                ring.tid,
                escape_json(if ring.name.is_empty() {
                    "unnamed"
                } else {
                    &ring.name
                })
            ),
            &mut out,
        );
    }
    for ring in &rings {
        for event in ring.events() {
            push(
                format!(
                    "  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"i\", \"s\": \"t\", \
                     \"ts\": {:.3}, \"pid\": 1, \"tid\": {}, \
                     \"args\": {{\"a\": {}, \"b\": {}}}}}",
                    event.kind.label(),
                    event.kind.category(),
                    event.ts_nanos as f64 / 1_000.0,
                    event.tid,
                    event.a,
                    event.b,
                ),
                &mut out,
            );
        }
    }
    out.push_str("\n], \"displayTimeUnit\": \"ns\"}\n");
    out
}

/// The flight recorder: the last `per_thread` retained events of every
/// thread, globally ordered by timestamp and formatted one per line —
/// what a `DeadlockReport` attaches so a cycle arrives with the event
/// history that led into it.
pub fn flight_recorder(per_thread: usize) -> Vec<String> {
    let rings: Vec<Arc<ThreadRing>> = trace_registry()
        .rings
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone();
    let mut events: Vec<TraceEvent> = rings
        .iter()
        .flat_map(|ring| {
            let events = ring.events();
            let skip = events.len().saturating_sub(per_thread);
            events.into_iter().skip(skip)
        })
        .collect();
    events.sort_by_key(|e| e.ts_nanos);
    events
        .into_iter()
        .map(|e| {
            let name = if e.thread.is_empty() {
                String::new()
            } else {
                format!(" {}", e.thread)
            };
            format!(
                "[+{:>12}ns tid={}{}] {} a={} b={}",
                e.ts_nanos,
                e.tid,
                name,
                e.kind.label(),
                e.a,
                e.b
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_json;

    #[test]
    fn kinds_have_unique_dotted_labels() {
        let mut labels: Vec<&str> = TraceKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        let before = labels.len();
        labels.dedup();
        assert_eq!(labels.len(), before, "duplicate labels");
        for kind in TraceKind::ALL {
            assert!(kind.label().contains('.'));
            assert!(!kind.category().is_empty());
            assert_eq!(TraceKind::from_u8(kind as u8), Some(kind));
        }
        assert_eq!(TraceKind::from_u8(200), None);
    }

    #[test]
    fn recorded_events_come_back_in_order_and_wrap() {
        // Record from a dedicated named thread so this test owns its ring.
        std::thread::Builder::new()
            .name("obs-trace-test".into())
            .spawn(|| {
                for i in 0..(RING_CAPACITY as u64 + 10) {
                    trace_always(TraceKind::MailboxEnqueue, i, 0);
                }
                RING.with(|cell| {
                    let ring = cell.get().expect("ring exists after recording");
                    let events = ring.events();
                    assert_eq!(events.len(), RING_CAPACITY, "ring retains its capacity");
                    // The 10 oldest were overwritten.
                    assert_eq!(events.first().unwrap().a, 10);
                    assert_eq!(events.last().unwrap().a, RING_CAPACITY as u64 + 9);
                    assert!(events.windows(2).all(|w| w[0].ts_nanos <= w[1].ts_nanos));
                    assert_eq!(events[0].thread, "obs-trace-test");
                });
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn chrome_export_is_valid_json_with_metadata() {
        std::thread::Builder::new()
            .name("obs-chrome-test".into())
            .spawn(|| {
                trace_always(TraceKind::SchedPark, 1, 2);
                trace_always(TraceKind::DeadlockReport, 3, 0);
            })
            .unwrap()
            .join()
            .unwrap();
        let json = chrome_trace_json();
        let doc = parse_json(&json).expect("chrome trace parses");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M")));
        let park = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("sched.park"))
            .expect("recorded event exported");
        assert_eq!(park.get("cat").and_then(|c| c.as_str()), Some("sched"));
        assert_eq!(
            park.get("args")
                .and_then(|a| a.get("a"))
                .and_then(|v| v.as_f64()),
            Some(1.0)
        );
    }

    #[test]
    fn flight_recorder_limits_and_formats() {
        std::thread::Builder::new()
            .name("obs-flight-test".into())
            .spawn(|| {
                for i in 0..50 {
                    trace_always(TraceKind::GuardSignal, i, 1);
                }
                let lines = flight_recorder(8);
                // Other test threads may contribute, but this thread caps at 8.
                let mine: Vec<&String> = lines
                    .iter()
                    .filter(|l| l.contains("obs-flight-test"))
                    .collect();
                assert!(mine.len() <= 8);
                assert!(!mine.is_empty());
                assert!(mine.iter().all(|l| l.contains("guard.signal")));
            })
            .unwrap()
            .join()
            .unwrap();
    }
}
