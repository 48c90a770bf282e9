//! Runtime deadlock detection for SCOOP/Qs: a live wait-for graph.
//!
//! §2.5 of the paper argues that SCOOP/Qs programs can only deadlock through
//! cyclic *queries*, because reservations and asynchronous calls never
//! block.  That argument stops holding the moment mailboxes are bounded: a
//! producer blocked pushing into a full mailbox is a real wait-for edge the
//! model does not have, and a cyclic-logging topology that is perfectly safe
//! with unbounded queues can now hang forever.  Instead of assuming the
//! non-blocking claim, this crate makes it *checkable at runtime*:
//!
//! * the runtime's blocking edges — a client parked in a query handoff, a
//!   producer blocked pushing into a full bounded mailbox, a handler parked
//!   on a client's open private queue, a reservation retrying a wait
//!   condition, a client blocked acquiring the pre-Qs lock-based
//!   configuration's handler lock — register themselves in a
//!   [`WaitRegistry`] for exactly the duration of the wait (RAII: dropping
//!   the [`EdgeGuard`] removes the edge);
//! * a [`DeadlockMonitor`] thread periodically runs cycle detection over the
//!   registry (incrementally: scans are skipped while the edge set is
//!   unchanged and nothing is pending confirmation) and emits a
//!   [`DeadlockReport`] naming the participants and edge kinds on each
//!   cycle;
//! * a detected cycle can optionally be *broken*: [`WaitRegistry::break_edge`]
//!   flips the edge's break token and wakes the blocked thread, which aborts
//!   its wait and surfaces an error — unwinding the cycle the way a
//!   non-blocking `try_call` would have avoided it.
//!
//! Two guards keep the detector honest about false positives:
//!
//! * an edge may carry a *probe* ([`ProbeFn`]) re-checked at scan time (e.g.
//!   "is that mailbox still full?"), so an edge whose wait has logically
//!   ended but whose guard has not been dropped yet cannot complete a cycle;
//! * the monitor only reports a cycle it has seen on **two consecutive
//!   scans** with the identical set of edge instances — transient
//!   coincidences (a push unblocking just as its consumer parks) dissolve
//!   before the confirmation pass.
//!
//! The crate is runtime-agnostic: participants are opaque ids with labels,
//! and the only integration points are edge registration and the break
//! token.  `qs-runtime` wires its handlers, clients, mailboxes and
//! reservations into it behind the `DeadlockPolicy` configuration knob.

#![warn(missing_docs)]

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

/// Trace events per thread attached to a report's flight recorder (when
/// full tracing is enabled): enough run-up history to see what each
/// participant was doing as the cycle closed, small enough to log whole.
const FLIGHT_EVENTS_PER_THREAD: usize = 64;

/// Wakes a thread blocked on the instrumented wait so it can observe a break
/// request.  Registered alongside [`EdgeKind::MailboxPush`] edges; called by
/// [`WaitRegistry::break_edge`] after the break token is set.
pub type WakerFn = Arc<dyn Fn() + Send + Sync>;

/// Re-validates an edge at scan time: returns `true` while the wait it
/// describes is still real (e.g. the mailbox is still full, the query result
/// is still pending).  Edges whose probe returns `false` are excluded from
/// cycle detection, so a wait that logically ended a microsecond ago cannot
/// complete a phantom cycle.  Probes are called *outside* the registry lock
/// and must not block.
pub type ProbeFn = Arc<dyn Fn() -> bool + Send + Sync>;

/// Opaque identity of one waiting/owning party (a handler or a client
/// thread) within one [`WaitRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParticipantId(pub u64);

impl fmt::Display for ParticipantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Identity of one registered wait-for edge.  Edge ids are never reused, so
/// a cycle key built from edge ids identifies one concrete deadlock
/// instance, not just a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u64);

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// The kind of blocking edge a waiter registered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// The waiter is blocked in a query / sync round-trip on the owner (the
    /// only blocking edge the paper's §2.5 model has).
    Query,
    /// The waiter is blocked pushing into the owner's full bounded mailbox
    /// (the backpressure edge bounded mailboxes added).  The only kind the
    /// `Break` policy fails over.
    MailboxPush,
    /// The waiter is retrying a `reserve().when(...)` wait condition whose
    /// truth depends on the owner.  Conditional: a cycle through this edge
    /// may be a livelock (the condition may never become true) rather than a
    /// hard deadlock.
    ReserveWait,
    /// The waiter is a handler parked on the owner's *open but empty*
    /// private queue: it cannot serve any other client until the owner logs
    /// more requests or ends its separate block.
    Serving,
    /// The waiter is blocked acquiring the owner's handler lock (the pre-Qs
    /// lock-based configuration holds it for a whole separate block, so
    /// nested blocks taken in opposite orders form a classic lock cycle).
    HandlerLock,
    /// The waiter is a client blocked acquiring a *shared-read* reservation
    /// on the owner handler's reader–writer gate: a writer is active or
    /// announced, and writer preference refuses new readers until it runs.
    ReadWait,
    /// The waiter is a handler (as writer) blocked behind active readers of
    /// its own object's gate: it cannot apply commands until every current
    /// read reservation ends.  One edge is registered per read holder, so a
    /// cycle names the concrete reader it runs through.
    WriterWait,
}

impl EdgeKind {
    /// Short human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            EdgeKind::Query => "query",
            EdgeKind::MailboxPush => "mailbox-push",
            EdgeKind::ReserveWait => "reserve-wait",
            EdgeKind::Serving => "serving",
            EdgeKind::HandlerLock => "handler-lock",
            EdgeKind::ReadWait => "read-wait",
            EdgeKind::WriterWait => "writer-wait",
        }
    }

    /// Whether the `Break` policy can fail this edge's wait.  Blocked
    /// bounded pushes poll their break token, a parked `reserve().when`
    /// waiter checks it on every wake (its edge carries a waker that unparks
    /// the client), surfacing the break as a `WaitTimeout`, and a client
    /// blocked acquiring a shared-read reservation aborts the acquisition
    /// with a `DeadlockBroken` panic.  Query handoffs, mutex acquisitions
    /// and a handler's own writer wait cannot be failed without corrupting
    /// their protocol.
    pub fn breakable(self) -> bool {
        matches!(
            self,
            EdgeKind::MailboxPush | EdgeKind::ReserveWait | EdgeKind::ReadWait
        )
    }
}

impl fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Shared break token of one edge: set by [`WaitRegistry::break_edge`],
/// polled by the blocked waiter through [`EdgeGuard::is_broken`].
#[derive(Default)]
struct EdgeState {
    broken: AtomicBool,
}

struct EdgeRecord {
    waiter: ParticipantId,
    owner: ParticipantId,
    kind: EdgeKind,
    state: Arc<EdgeState>,
    waker: Option<WakerFn>,
    probe: Option<ProbeFn>,
    /// When the edge was registered — i.e. when the waiter blocked.  A
    /// reported edge carries its age so the report distinguishes a cycle
    /// that just closed from one that has been wedged for minutes.
    registered_at: Instant,
}

#[derive(Default)]
struct Inner {
    /// Live edges by raw id; BTreeMap for deterministic scan order.
    edges: BTreeMap<u64, EdgeRecord>,
    /// Human-readable labels by raw participant id.
    labels: HashMap<u64, String>,
}

/// The concurrent wait-for registry every real blocking edge reports into.
///
/// ```
/// use qs_deadlock::{EdgeKind, WaitRegistry};
///
/// let registry = WaitRegistry::new();
/// let a = registry.participant("handler-a");
/// let b = registry.participant("handler-b");
/// let _ab = registry.register(a, b, EdgeKind::MailboxPush, None, None);
/// let _ba = registry.register(b, a, EdgeKind::MailboxPush, None, None);
/// let cycles = registry.scan();
/// assert_eq!(cycles.len(), 1);
/// assert_eq!(cycles[0].edges.len(), 2);
/// ```
pub struct WaitRegistry {
    inner: Mutex<Inner>,
    /// Bumped on every edge registration/removal; the monitor skips scans
    /// while it is unchanged and no cycle is pending confirmation.
    version: AtomicU64,
    next_participant: AtomicU64,
    next_edge: AtomicU64,
}

impl WaitRegistry {
    /// Creates an empty registry.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Arc<Self> {
        Arc::new(WaitRegistry {
            inner: Mutex::new(Inner::default()),
            version: AtomicU64::new(0),
            next_participant: AtomicU64::new(1),
            next_edge: AtomicU64::new(1),
        })
    }

    /// Allocates a fresh participant id carrying `label` (shown in reports).
    pub fn participant(&self, label: impl Into<String>) -> ParticipantId {
        let id = self.next_participant.fetch_add(1, Ordering::Relaxed);
        self.inner.lock().unwrap().labels.insert(id, label.into());
        ParticipantId(id)
    }

    /// Releases a participant's label once the party it names is gone (a
    /// retired handler, an exited client thread), so a long-lived registry
    /// does not accumulate one entry per participant ever seen.  Edges that
    /// still reference the id fall back to its numeric display.
    pub fn forget_participant(&self, participant: ParticipantId) {
        self.inner.lock().unwrap().labels.remove(&participant.0);
    }

    /// Whether `edge` is still registered (used by the monitor to prune its
    /// reported-cycle memory; edge ids are never reused).
    pub fn edge_exists(&self, edge: EdgeId) -> bool {
        self.inner.lock().unwrap().edges.contains_key(&edge.0)
    }

    /// Whether any registered edge carries a probe.  Probed edges can
    /// change the *effective* wait-for graph without any
    /// registration/removal (the probe's answer flips), so the monitor must
    /// keep scanning while they exist even at an unchanged
    /// [`version`](Self::version).
    pub fn has_probed_edges(&self) -> bool {
        self.inner
            .lock()
            .unwrap()
            .edges
            .values()
            .any(|record| record.probe.is_some())
    }

    /// Registers the edge "`waiter` is blocked until `owner` makes
    /// progress".  The edge lives until the returned [`EdgeGuard`] is
    /// dropped; register immediately before blocking, drop immediately
    /// after.
    ///
    /// `waker` (for breakable edges) wakes the blocked thread after a break;
    /// `probe` re-validates the edge at scan time (see [`ProbeFn`]).
    pub fn register(
        self: &Arc<Self>,
        waiter: ParticipantId,
        owner: ParticipantId,
        kind: EdgeKind,
        waker: Option<WakerFn>,
        probe: Option<ProbeFn>,
    ) -> EdgeGuard {
        let id = self.next_edge.fetch_add(1, Ordering::Relaxed);
        let state = Arc::new(EdgeState::default());
        self.inner.lock().unwrap().edges.insert(
            id,
            EdgeRecord {
                waiter,
                owner,
                kind,
                state: Arc::clone(&state),
                waker,
                probe,
                registered_at: Instant::now(),
            },
        );
        self.version.fetch_add(1, Ordering::Release);
        EdgeGuard {
            registry: Arc::clone(self),
            id,
            state,
        }
    }

    fn remove(&self, id: u64) {
        self.inner.lock().unwrap().edges.remove(&id);
        self.version.fetch_add(1, Ordering::Release);
    }

    /// Sets the break token of `edge` and wakes its blocked waiter.
    /// Returns `false` when the edge is already gone (the wait ended on its
    /// own between scan and break).
    pub fn break_edge(&self, edge: EdgeId) -> bool {
        let waker = {
            let inner = self.inner.lock().unwrap();
            let Some(record) = inner.edges.get(&edge.0) else {
                return false;
            };
            record.state.broken.store(true, Ordering::Release);
            record.waker.clone()
        };
        // The waker runs outside the registry lock: it typically signals a
        // parker or condvar and must never nest back into the registry.
        if let Some(waker) = waker {
            waker();
        }
        true
    }

    /// Number of currently registered edges.
    pub fn edge_count(&self) -> usize {
        self.inner.lock().unwrap().edges.len()
    }

    /// Monotonic change counter (bumped per registration/removal).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Runs cycle detection over the current edge set and returns one
    /// [`DeadlockReport`] per (node-disjoint) cycle found.
    ///
    /// Edges with a probe are re-validated first, *outside* the registry
    /// lock; an edge whose probe fails is invisible to this scan.
    pub fn scan(&self) -> Vec<DeadlockReport> {
        struct Snap {
            id: u64,
            waiter: ParticipantId,
            owner: ParticipantId,
            kind: EdgeKind,
            probe: Option<ProbeFn>,
            registered_at: Instant,
        }
        // Labels are deliberately NOT snapshotted here: the steady-state
        // scan (probed edges, no cycle) would otherwise clone two strings
        // per edge a hundred times a second for nothing.  They are resolved
        // in a second, short lock only for the rare edges that end up on a
        // reported cycle.
        let snapshot: Vec<Snap> = {
            let inner = self.inner.lock().unwrap();
            inner
                .edges
                .iter()
                .map(|(&id, record)| Snap {
                    id,
                    waiter: record.waiter,
                    owner: record.owner,
                    kind: record.kind,
                    probe: record.probe.clone(),
                    registered_at: record.registered_at,
                })
                .collect()
        };
        // Probe outside the lock: probes touch queue state whose writers may
        // themselves be registering edges (lock-order inversion otherwise).
        let live: Vec<&Snap> = snapshot
            .iter()
            .filter(|edge| edge.probe.as_ref().is_none_or(|probe| probe()))
            .collect();
        qs_obs::trace(qs_obs::TraceKind::DeadlockScan, live.len() as u64, 0);

        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            Grey,
            Black,
        }
        fn visit(
            node: ParticipantId,
            live: &[&Snap],
            successors: &BTreeMap<ParticipantId, Vec<usize>>,
            marks: &mut HashMap<ParticipantId, Mark>,
            stack: &mut Vec<(ParticipantId, usize)>,
        ) -> Option<Vec<usize>> {
            match marks.get(&node) {
                Some(Mark::Black) => return None,
                Some(Mark::Grey) => {
                    let start = stack
                        .iter()
                        .position(|(n, _)| *n == node)
                        .expect("grey node is on the stack");
                    return Some(stack[start..].iter().map(|&(_, edge)| edge).collect());
                }
                None => {}
            }
            marks.insert(node, Mark::Grey);
            for &edge_index in successors.get(&node).map_or(&[][..], Vec::as_slice) {
                stack.push((node, edge_index));
                let found = visit(live[edge_index].owner, live, successors, marks, stack);
                stack.pop();
                if found.is_some() {
                    return found;
                }
            }
            marks.insert(node, Mark::Black);
            None
        }

        // Find cycles iteratively: report one, remove its edges, search
        // again — so distinct (edge-disjoint) cycles that share a
        // participant are all reported in one scan, instead of the first
        // one shadowing the rest.  Terminates because every round removes
        // at least one edge.
        let mut removed: Vec<bool> = vec![false; live.len()];
        let mut reports = Vec::new();
        loop {
            let mut successors: BTreeMap<ParticipantId, Vec<usize>> = BTreeMap::new();
            for (index, edge) in live.iter().enumerate() {
                if !removed[index] {
                    successors.entry(edge.waiter).or_default().push(index);
                }
            }
            let mut marks = HashMap::new();
            let mut found = None;
            for &node in successors.keys() {
                let mut stack = Vec::new();
                if let Some(cycle) = visit(node, &live, &successors, &mut marks, &mut stack) {
                    found = Some(cycle);
                    break;
                }
            }
            let Some(cycle) = found else {
                break;
            };
            for &edge_index in &cycle {
                removed[edge_index] = true;
            }
            let label = |participant: ParticipantId| {
                self.inner
                    .lock()
                    .unwrap()
                    .labels
                    .get(&participant.0)
                    .cloned()
                    .unwrap_or_else(|| participant.to_string())
            };
            let now = Instant::now();
            reports.push(DeadlockReport {
                edges: cycle
                    .into_iter()
                    .map(|edge_index| {
                        let edge = live[edge_index];
                        ReportedEdge {
                            id: EdgeId(edge.id),
                            waiter: edge.waiter,
                            waiter_label: label(edge.waiter),
                            owner: edge.owner,
                            owner_label: label(edge.owner),
                            kind: edge.kind,
                            age: now.saturating_duration_since(edge.registered_at),
                        }
                    })
                    .collect(),
                detected_at: SystemTime::now(),
                flight_recorder: if qs_obs::tracing_enabled() {
                    qs_obs::flight_recorder(FLIGHT_EVENTS_PER_THREAD)
                } else {
                    Vec::new()
                },
            });
        }
        reports
    }
}

impl fmt::Debug for WaitRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WaitRegistry")
            .field("edges", &self.edge_count())
            .field("version", &self.version())
            .finish()
    }
}

/// RAII handle for one registered wait-for edge: dropping it removes the
/// edge from the registry.  Held by the blocking site for exactly the
/// duration of the wait.
pub struct EdgeGuard {
    registry: Arc<WaitRegistry>,
    id: u64,
    state: Arc<EdgeState>,
}

impl EdgeGuard {
    /// The registered edge's id.
    pub fn id(&self) -> EdgeId {
        EdgeId(self.id)
    }

    /// Returns `true` once [`WaitRegistry::break_edge`] targeted this edge:
    /// the waiter must abort its wait and surface the break as an error.
    pub fn is_broken(&self) -> bool {
        self.state.broken.load(Ordering::Acquire)
    }
}

impl Drop for EdgeGuard {
    fn drop(&mut self) {
        self.registry.remove(self.id);
    }
}

impl fmt::Debug for EdgeGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EdgeGuard")
            .field("id", &self.id)
            .field("broken", &self.is_broken())
            .finish()
    }
}

/// One edge of a reported cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportedEdge {
    /// The concrete edge instance (usable with [`WaitRegistry::break_edge`]).
    pub id: EdgeId,
    /// The blocked party.
    pub waiter: ParticipantId,
    /// Label of the blocked party.
    pub waiter_label: String,
    /// The party the waiter is blocked on.
    pub owner: ParticipantId,
    /// Label of the owner.
    pub owner_label: String,
    /// What kind of wait this is.
    pub kind: EdgeKind,
    /// How long the waiter had already been blocked when the scan that
    /// produced this report ran.
    pub age: Duration,
}

/// A confirmed wait-for cycle: the handlers/clients on it and the kind of
/// each blocking edge, in cycle order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockReport {
    /// The edges of the cycle; edge `i`'s owner is edge `i+1`'s waiter
    /// (cyclically).
    pub edges: Vec<ReportedEdge>,
    /// Wall-clock time of the scan that produced this report, so reports
    /// logged from long-running services correlate with external logs.
    pub detected_at: SystemTime,
    /// The observability flight recorder at detection time: the last few
    /// trace events of every thread (globally time-ordered, one formatted
    /// line each).  Empty unless the process runs with full tracing
    /// ([`qs_obs::ObservabilityMode::Full`]).
    pub flight_recorder: Vec<String>,
}

impl DeadlockReport {
    /// Labels of the waiting participants, in cycle order.
    pub fn participants(&self) -> Vec<&str> {
        self.edges
            .iter()
            .map(|edge| edge.waiter_label.as_str())
            .collect()
    }

    /// The edge kinds on the cycle, in cycle order.
    pub fn kinds(&self) -> Vec<EdgeKind> {
        self.edges.iter().map(|edge| edge.kind).collect()
    }

    /// The first edge the `Break` policy can fail, if the cycle has one.
    pub fn breakable_edge(&self) -> Option<&ReportedEdge> {
        self.edges.iter().find(|edge| edge.kind.breakable())
    }

    /// The canonical identity of this concrete cycle: its sorted edge ids.
    pub fn cycle_key(&self) -> Vec<EdgeId> {
        let mut key: Vec<EdgeId> = self.edges.iter().map(|edge| edge.id).collect();
        key.sort_unstable();
        key
    }
}

impl fmt::Display for DeadlockReport {
    /// Multi-line human rendering: a headline with the party count and the
    /// wall-clock detection time (unix seconds), one line per edge with its
    /// kind, age and breakability, and — when tracing was on — the attached
    /// flight-recorder lines.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let unix = self
            .detected_at
            .duration_since(SystemTime::UNIX_EPOCH)
            .unwrap_or_default();
        write!(
            f,
            "deadlock: {}-party wait cycle (detected at unix {}.{:03}): ",
            self.edges.len(),
            unix.as_secs(),
            unix.subsec_millis()
        )?;
        for edge in &self.edges {
            write!(f, "{} --[{}]--> ", edge.waiter_label, edge.kind)?;
        }
        match self.edges.first() {
            Some(first) => f.write_str(&first.waiter_label)?,
            None => f.write_str("(empty)")?,
        }
        for edge in &self.edges {
            write!(
                f,
                "\n  {}: {} --[{}]--> {} (blocked for {:?}{})",
                edge.id,
                edge.waiter_label,
                edge.kind,
                edge.owner_label,
                edge.age,
                if edge.kind.breakable() {
                    ", breakable"
                } else {
                    ""
                }
            )?;
        }
        if !self.flight_recorder.is_empty() {
            write!(
                f,
                "\n  flight recorder ({} events):",
                self.flight_recorder.len()
            )?;
            for line in &self.flight_recorder {
                write!(f, "\n    {line}")?;
            }
        }
        Ok(())
    }
}

/// The detector thread: periodically scans a [`WaitRegistry`], confirms
/// cycles across two consecutive scans, reports them, and (optionally)
/// breaks one breakable edge per confirmed cycle.
///
/// Dropping the monitor stops and joins the thread.
pub struct DeadlockMonitor {
    stop: Arc<AtomicBool>,
    scans: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl DeadlockMonitor {
    /// Spawns the detector over `registry`, scanning roughly every `tick`.
    ///
    /// The interval is *adaptive* around that base (see [`adaptive_tick`]):
    /// it drops while probed edges keep the effective graph in motion, and
    /// backs off exponentially toward `10 * tick` while the registry is
    /// empty, so an idle runtime costs next to nothing.
    ///
    /// `on_report` runs on the monitor thread once per confirmed cycle; with
    /// `break_cycles` the monitor additionally fails the cycle's first
    /// [breakable](EdgeKind::breakable) edge right after reporting it.
    pub fn spawn(
        registry: Arc<WaitRegistry>,
        tick: Duration,
        break_cycles: bool,
        on_report: impl Fn(&DeadlockReport) + Send + 'static,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let scans = Arc::new(AtomicU64::new(0));
        let thread_stop = Arc::clone(&stop);
        let thread_scans = Arc::clone(&scans);
        let handle = std::thread::Builder::new()
            .name("qs-deadlock-monitor".to_string())
            .spawn(move || {
                monitor_loop(
                    &registry,
                    tick,
                    break_cycles,
                    &thread_stop,
                    &thread_scans,
                    &on_report,
                );
            })
            .expect("failed to spawn deadlock monitor");
        DeadlockMonitor {
            stop,
            scans,
            handle: Some(handle),
        }
    }

    /// Number of full cycle-detection scans the monitor has run so far
    /// (skipped ticks — unchanged version, nothing pending — not included).
    pub fn scan_count(&self) -> u64 {
        self.scans.load(Ordering::Relaxed)
    }

    /// Asks the monitor thread to exit at its next tick.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }
}

impl Drop for DeadlockMonitor {
    fn drop(&mut self) {
        self.stop();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl fmt::Debug for DeadlockMonitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeadlockMonitor")
            .field("stopped", &self.stop.load(Ordering::Relaxed))
            .finish()
    }
}

/// The monitor's next sleep interval, derived from `base` (the configured
/// tick) and the registry's current shape:
///
/// * **probed edges exist** (or a candidate cycle awaits confirmation): the
///   effective graph can flip without the version moving, so scan fast —
///   `base / 5`, floored at 1ms.  A forming deadlock is confirmed (and, under
///   `Break`, unwound) in a fraction of the base interval.
/// * **registry empty, nothing pending**: back off exponentially — double
///   `current` each idle round up to `10 * base` (100ms at the default 10ms
///   tick).  An idle runtime's monitor wakes ten times a second instead of a
///   hundred.
/// * otherwise (unprobed edges live): hold the base interval; registrations
///   bump the version, so ordinary scans stay cheap skips.
///
/// Pure so the schedule is unit-testable without a thread.
pub fn adaptive_tick(
    base: Duration,
    probed_or_pending: bool,
    idle: bool,
    current: Duration,
) -> Duration {
    let fast_floor = Duration::from_millis(1);
    let idle_cap = base.saturating_mul(10);
    if probed_or_pending {
        (base / 5).max(fast_floor)
    } else if idle {
        current.saturating_mul(2).clamp(base, idle_cap)
    } else {
        base
    }
}

/// The monitor's two-scan confirmation: a cycle is reported only once two
/// consecutive scans have seen it with identical edges, so a cycle that
/// forms and dissolves between two scans is never reported.
#[derive(Default)]
struct Confirmation {
    /// Cycles seen on the previous scan, awaiting confirmation.
    candidates: HashSet<Vec<EdgeId>>,
    /// Cycles already reported; keyed by edge ids, which are never reused,
    /// so one concrete deadlock instance is reported exactly once.
    reported: HashSet<Vec<EdgeId>>,
}

impl Confirmation {
    /// Whether a cycle from the last scan awaits confirmation.
    fn pending(&self) -> bool {
        !self.candidates.is_empty()
    }

    /// Scans `registry` once and returns the cycles this scan confirms.
    fn scan(&mut self, registry: &WaitRegistry) -> Vec<DeadlockReport> {
        // Prune reported-cycle memory whose edges are all gone: ids are
        // never reused, so a pruned key can never suppress a fresh cycle,
        // and the set stays bounded by the number of *live* deadlocks.
        self.reported
            .retain(|key| key.iter().any(|&edge| registry.edge_exists(edge)));
        let mut confirmed = Vec::new();
        let mut next_candidates = HashSet::new();
        for report in registry.scan() {
            let key = report.cycle_key();
            if self.reported.contains(&key) {
                continue;
            }
            if self.candidates.contains(&key) {
                // Seen on two consecutive scans with identical edges:
                // confirmed.
                self.reported.insert(key);
                confirmed.push(report);
            } else {
                next_candidates.insert(key);
            }
        }
        self.candidates = next_candidates;
        confirmed
    }
}

fn monitor_loop(
    registry: &Arc<WaitRegistry>,
    tick: Duration,
    break_cycles: bool,
    stop: &AtomicBool,
    scans: &AtomicU64,
    on_report: &dyn Fn(&DeadlockReport),
) {
    let mut confirmation = Confirmation::default();
    let mut scanned_version = u64::MAX;
    let mut interval = tick;
    while !stop.load(Ordering::Acquire) {
        interval = adaptive_tick(
            tick,
            registry.has_probed_edges() || confirmation.pending(),
            registry.edge_count() == 0,
            interval,
        );
        std::thread::sleep(interval);
        if stop.load(Ordering::Acquire) {
            return;
        }
        // Incremental: skip the scan while the edge set is unchanged and no
        // candidate awaits confirmation.  (With candidates pending we must
        // rescan even at the same version — an unchanged registry is exactly
        // what confirms a deadlock.  And while *probed* edges exist, the
        // effective graph can change without the version moving, so those
        // keep the scanner ticking too.)
        let version = registry.version();
        if version == scanned_version && !confirmation.pending() && !registry.has_probed_edges() {
            continue;
        }
        scanned_version = version;
        scans.fetch_add(1, Ordering::Relaxed);
        for report in confirmation.scan(registry) {
            qs_obs::trace(
                qs_obs::TraceKind::DeadlockReport,
                report.edges.len() as u64,
                0,
            );
            on_report(&report);
            if break_cycles {
                if let Some(edge) = report.breakable_edge() {
                    registry.break_edge(edge.id);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn acyclic_edges_report_nothing() {
        let registry = WaitRegistry::new();
        let a = registry.participant("a");
        let b = registry.participant("b");
        let c = registry.participant("c");
        let _ab = registry.register(a, b, EdgeKind::Query, None, None);
        let _bc = registry.register(b, c, EdgeKind::MailboxPush, None, None);
        assert!(registry.scan().is_empty());
        assert_eq!(registry.edge_count(), 2);
    }

    #[test]
    fn a_cycle_is_reported_with_labels_and_kinds() {
        let registry = WaitRegistry::new();
        let a = registry.participant("handler-a");
        let b = registry.participant("handler-b");
        let _ab = registry.register(a, b, EdgeKind::MailboxPush, None, None);
        let _ba = registry.register(b, a, EdgeKind::Serving, None, None);
        let reports = registry.scan();
        assert_eq!(reports.len(), 1);
        let report = &reports[0];
        assert_eq!(report.edges.len(), 2);
        let mut participants = report.participants();
        participants.sort_unstable();
        assert_eq!(participants, vec!["handler-a", "handler-b"]);
        assert!(report.kinds().contains(&EdgeKind::MailboxPush));
        assert!(report.kinds().contains(&EdgeKind::Serving));
        assert_eq!(
            report.breakable_edge().map(|edge| edge.kind),
            Some(EdgeKind::MailboxPush)
        );
        let text = report.to_string();
        assert!(text.contains("handler-a"), "{text}");
        assert!(text.contains("mailbox-push"), "{text}");
    }

    #[test]
    fn reports_carry_timestamps_ages_and_render_richly() {
        let registry = WaitRegistry::new();
        let a = registry.participant("handler-a");
        let b = registry.participant("handler-b");
        let _ab = registry.register(a, b, EdgeKind::MailboxPush, None, None);
        std::thread::sleep(Duration::from_millis(5));
        let _ba = registry.register(b, a, EdgeKind::Serving, None, None);
        let report = registry.scan().remove(0);
        assert!(report.detected_at <= SystemTime::now());
        let push = report
            .edges
            .iter()
            .find(|edge| edge.kind == EdgeKind::MailboxPush)
            .expect("push edge on the cycle");
        let serving = report
            .edges
            .iter()
            .find(|edge| edge.kind == EdgeKind::Serving)
            .expect("serving edge on the cycle");
        assert!(push.age >= Duration::from_millis(5), "{:?}", push.age);
        assert!(
            serving.age <= push.age,
            "the later-registered edge is younger"
        );
        let text = report.to_string();
        assert!(text.contains("2-party wait cycle"), "{text}");
        assert!(text.contains("detected at unix"), "{text}");
        assert!(text.contains("breakable"), "{text}");
        assert!(text.contains("blocked for"), "{text}");
    }

    #[test]
    fn flight_recorder_attaches_under_full_tracing() {
        let registry = WaitRegistry::new();
        let a = registry.participant("a");
        let b = registry.participant("b");
        let _ab = registry.register(a, b, EdgeKind::Query, None, None);
        let _ba = registry.register(b, a, EdgeKind::Query, None, None);
        qs_obs::set_mode(qs_obs::ObservabilityMode::Full);
        qs_obs::trace(qs_obs::TraceKind::GuardSignal, 7, 1);
        let report = registry.scan().remove(0);
        qs_obs::set_mode(qs_obs::ObservabilityMode::Off);
        assert!(
            !report.flight_recorder.is_empty(),
            "full tracing attaches the recorder"
        );
        assert!(report.to_string().contains("flight recorder"), "{report}");
    }

    #[test]
    fn dropping_a_guard_dissolves_the_cycle() {
        let registry = WaitRegistry::new();
        let a = registry.participant("a");
        let b = registry.participant("b");
        let ab = registry.register(a, b, EdgeKind::Query, None, None);
        let _ba = registry.register(b, a, EdgeKind::Query, None, None);
        assert_eq!(registry.scan().len(), 1);
        let version = registry.version();
        drop(ab);
        assert!(registry.version() > version, "removal bumps the version");
        assert!(registry.scan().is_empty());
        assert_eq!(registry.edge_count(), 1);
    }

    #[test]
    fn probes_veto_stale_edges() {
        let registry = WaitRegistry::new();
        let a = registry.participant("a");
        let b = registry.participant("b");
        let valid = Arc::new(AtomicBool::new(true));
        let probe_valid = Arc::clone(&valid);
        let _ab = registry.register(
            a,
            b,
            EdgeKind::MailboxPush,
            None,
            Some(Arc::new(move || probe_valid.load(Ordering::Acquire)) as ProbeFn),
        );
        let _ba = registry.register(b, a, EdgeKind::MailboxPush, None, None);
        assert_eq!(registry.scan().len(), 1);
        valid.store(false, Ordering::Release);
        assert!(
            registry.scan().is_empty(),
            "a probed-out edge cannot complete a cycle"
        );
    }

    #[test]
    fn break_edge_sets_the_token_and_fires_the_waker() {
        let registry = WaitRegistry::new();
        let a = registry.participant("a");
        let b = registry.participant("b");
        let wakes = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&wakes);
        let guard = registry.register(
            a,
            b,
            EdgeKind::MailboxPush,
            Some(Arc::new(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            }) as WakerFn),
            None,
        );
        assert!(!guard.is_broken());
        assert!(registry.break_edge(guard.id()));
        assert!(guard.is_broken());
        assert_eq!(wakes.load(Ordering::SeqCst), 1);
        let id = guard.id();
        drop(guard);
        assert!(!registry.break_edge(id), "a removed edge cannot be broken");
    }

    #[test]
    fn three_party_cycle_is_one_report() {
        let registry = WaitRegistry::new();
        let a = registry.participant("a");
        let b = registry.participant("b");
        let c = registry.participant("c");
        let _ab = registry.register(a, b, EdgeKind::MailboxPush, None, None);
        let _bc = registry.register(b, c, EdgeKind::MailboxPush, None, None);
        let _ca = registry.register(c, a, EdgeKind::MailboxPush, None, None);
        let reports = registry.scan();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].edges.len(), 3);
        // Cycle order is consistent: each edge's owner is the next waiter.
        let edges = &reports[0].edges;
        for (index, edge) in edges.iter().enumerate() {
            assert_eq!(edge.owner, edges[(index + 1) % edges.len()].waiter);
        }
    }

    #[test]
    fn edge_disjoint_cycles_sharing_a_node_are_all_reported() {
        // c waits on both h1 and h2 (a multi-handler reservation), and each
        // handler waits back on c: two distinct cycles through the shared
        // node c.  Neither may shadow the other.
        let registry = WaitRegistry::new();
        let c = registry.participant("client");
        let h1 = registry.participant("handler-1");
        let h2 = registry.participant("handler-2");
        let _c1 = registry.register(c, h1, EdgeKind::ReserveWait, None, None);
        let _h1c = registry.register(h1, c, EdgeKind::MailboxPush, None, None);
        let _c2 = registry.register(c, h2, EdgeKind::ReserveWait, None, None);
        let _h2c = registry.register(h2, c, EdgeKind::MailboxPush, None, None);
        let reports = registry.scan();
        assert_eq!(reports.len(), 2, "{reports:?}");
        let mut owners: Vec<String> = reports
            .iter()
            .flat_map(|report| report.edges.iter())
            .filter(|edge| edge.kind == EdgeKind::ReserveWait)
            .map(|edge| edge.owner_label.clone())
            .collect();
        owners.sort_unstable();
        assert_eq!(owners, vec!["handler-1", "handler-2"]);
    }

    #[test]
    fn monitor_confirms_then_reports_and_breaks() {
        let registry = WaitRegistry::new();
        let a = registry.participant("a");
        let b = registry.participant("b");
        let ab = registry.register(a, b, EdgeKind::MailboxPush, None, None);
        let ba = registry.register(b, a, EdgeKind::MailboxPush, None, None);
        let reports: Arc<Mutex<Vec<DeadlockReport>>> = Arc::default();
        let sink = Arc::clone(&reports);
        let monitor = DeadlockMonitor::spawn(
            Arc::clone(&registry),
            Duration::from_millis(2),
            true,
            move |report| sink.lock().unwrap().push(report.clone()),
        );
        // Two scans to confirm, a few ticks of slack.
        for _ in 0..500 {
            if !reports.lock().unwrap().is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let collected = reports.lock().unwrap().clone();
        assert_eq!(collected.len(), 1, "confirmed cycle reported exactly once");
        assert!(
            ab.is_broken() || ba.is_broken(),
            "one push edge of the confirmed cycle carries the break token"
        );
        drop(monitor);
    }

    #[test]
    fn adaptive_tick_schedule() {
        let base = Duration::from_millis(10);
        // Probed edges / pending candidates: fast scan, 1ms floor.
        assert_eq!(
            adaptive_tick(base, true, false, base),
            Duration::from_millis(2)
        );
        assert_eq!(
            adaptive_tick(Duration::from_millis(4), true, false, base),
            Duration::from_millis(1),
            "fast interval is floored at 1ms"
        );
        // Idle: exponential back-off toward 10x base, then capped there.
        let mut current = base;
        let mut seen = Vec::new();
        for _ in 0..6 {
            current = adaptive_tick(base, false, true, current);
            seen.push(current.as_millis());
        }
        assert_eq!(seen, vec![20, 40, 80, 100, 100, 100]);
        // Recovery: a fast tick followed by live unprobed edges returns to
        // base (never below it, never stuck at the idle cap).
        let fast = adaptive_tick(base, true, false, base);
        assert_eq!(adaptive_tick(base, false, false, fast), base);
        assert_eq!(adaptive_tick(base, false, false, base * 10), base);
        // Idle growth restarts from base even when entered at the floor.
        assert_eq!(adaptive_tick(base, false, true, fast), base);
    }

    #[test]
    fn monitor_counts_scans_and_skips_when_idle() {
        let registry = WaitRegistry::new();
        let monitor = DeadlockMonitor::spawn(
            Arc::clone(&registry),
            Duration::from_millis(1),
            false,
            |_| {},
        );
        // Empty registry at an unchanged version: ticks are skipped, not
        // scanned.  The first tick scans once (version 0 != u64::MAX).
        std::thread::sleep(Duration::from_millis(40));
        let idle_scans = monitor.scan_count();
        assert!(idle_scans <= 1, "idle ticks must skip, saw {idle_scans}");
        // A probed edge forces a scan per tick.
        let a = registry.participant("a");
        let b = registry.participant("b");
        let probed = registry.register(
            a,
            b,
            EdgeKind::ReadWait,
            None,
            Some(Arc::new(|| true) as ProbeFn),
        );
        std::thread::sleep(Duration::from_millis(40));
        let busy_scans = monitor.scan_count();
        assert!(
            busy_scans > idle_scans,
            "probed edges must keep the scanner ticking"
        );
        drop(probed);
        drop(monitor);
    }

    #[test]
    fn reader_writer_cycle_is_reported_and_read_wait_is_breakable() {
        // Client X holds read(B) and blocks acquiring read(A); handler A is
        // blocked on a query against B (a client-executed call chain); B's
        // writer is blocked behind X's read hold.  Classic 3-party
        // reader/writer cycle over the new edge kinds.
        let registry = WaitRegistry::new();
        let x = registry.participant("client-x");
        let a = registry.participant("handler-a");
        let b = registry.participant("handler-b");
        let xa = registry.register(x, a, EdgeKind::ReadWait, None, None);
        let _ab = registry.register(a, b, EdgeKind::Query, None, None);
        let _bx = registry.register(b, x, EdgeKind::WriterWait, None, None);
        let reports = registry.scan();
        assert_eq!(reports.len(), 1);
        let report = &reports[0];
        assert_eq!(report.edges.len(), 3);
        assert!(report.kinds().contains(&EdgeKind::ReadWait));
        assert!(report.kinds().contains(&EdgeKind::WriterWait));
        assert_eq!(
            report.breakable_edge().map(|edge| edge.kind),
            Some(EdgeKind::ReadWait),
            "the read acquisition is the only breakable edge on the cycle"
        );
        assert!(!EdgeKind::WriterWait.breakable());
        let text = report.to_string();
        assert!(text.contains("read-wait"), "{text}");
        assert!(text.contains("writer-wait"), "{text}");
        drop(xa);
    }

    #[test]
    fn monitor_does_not_report_transient_cycles() {
        // The monitor's confirmation step, driven scan by scan: each cycle
        // is seen by exactly one scan and dropped before the next, so none
        // may ever be reported — however the monitor's ticks would fall.
        let registry = WaitRegistry::new();
        let a = registry.participant("a");
        let b = registry.participant("b");
        let mut confirmation = Confirmation::default();
        for _ in 0..50 {
            let ab = registry.register(a, b, EdgeKind::Query, None, None);
            let ba = registry.register(b, a, EdgeKind::Query, None, None);
            assert!(
                confirmation.scan(&registry).is_empty(),
                "a cycle seen once must not be reported"
            );
            assert!(confirmation.pending(), "the scan saw the cycle");
            drop(ab);
            drop(ba);
            assert!(
                confirmation.scan(&registry).is_empty(),
                "sub-tick cycles must not be reported"
            );
            assert!(!confirmation.pending());
        }
        // The control: a cycle that outlives two scans is reported, once.
        let _ab = registry.register(a, b, EdgeKind::Query, None, None);
        let _ba = registry.register(b, a, EdgeKind::Query, None, None);
        assert!(confirmation.scan(&registry).is_empty());
        assert_eq!(confirmation.scan(&registry).len(), 1);
        assert!(confirmation.scan(&registry).is_empty(), "reported once");
    }
}
