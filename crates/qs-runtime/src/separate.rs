//! The `separate` block reservation guard.
//!
//! A [`Separate`] value represents one client's reservation of one handler
//! for the duration of a separate block.  On the queue-of-queues path it owns
//! the producer half of the client's private queue (Fig. 8 of the paper); on
//! the lock-based path it holds the handler lock (Fig. 2).  Within the block
//! the client can log asynchronous [`call`](Separate::call)s, perform
//! synchronous [`query`](Separate::query)s, and issue explicit
//! [`sync`](Separate::sync) operations (the primitive the static
//! sync-coalescing pass of `qs-compiler` minimises).

use std::sync::Arc;

use qs_deadlock::{EdgeKind, ParticipantId, ProbeFn, WaitRegistry, WakerFn};
use qs_queues::{
    mailbox, reopen_mailbox, BlockWatcher, MailboxConsumer, MailboxProducer, SpareRings, WakeReason,
};
use qs_sync::Handoff;

use crate::deadlock::{current_waiter, BlockTracking};
use crate::handler::{ClientMailbox, HandlerCore};
use crate::request::Request;
use crate::stats::RuntimeStats;

thread_local! {
    /// The private-queue rings of this thread's ended blocks, handed back
    /// by the handlers that processed their closes, for its next blocks
    /// (see [`Separate::attach`]).
    static SPARE_RINGS: Arc<SpareRings> = Arc::new(SpareRings::new());
}

/// A private queue for a block this thread is opening: a spare ring of a
/// bounded mailbox reopened when `spares` has one free, a new mailbox
/// otherwise (always, when unbounded).
fn private_queue<T: Send + 'static>(
    capacity: Option<usize>,
    spares: Option<&SpareRings>,
) -> (MailboxProducer<Request<T>>, MailboxConsumer<Request<T>>) {
    spares
        .zip(capacity)
        .and_then(|(spares, capacity)| spares.take(capacity))
        .and_then(reopen_mailbox)
        .unwrap_or_else(|| mailbox(capacity))
}

/// Reservation guard for one handler within a separate block.
///
/// Obtained through [`crate::Handler::separate`] or the unified
/// [`crate::reserve`](fn@crate::reserve) builder.  Not `Send`: a
/// reservation belongs to the client thread that created it, mirroring
/// SCOOP semantics.
pub struct Separate<'a, T: Send + 'static> {
    core: &'a Arc<HandlerCore<T>>,
    /// Producer half of the client mailbox (QoQ configuration); bounded or
    /// unbounded per [`crate::RuntimeConfig::mailbox_capacity`].
    producer: Option<MailboxProducer<Request<T>>>,
    /// Handler lock guard (lock-based configuration).
    lock_guard: Option<parking_lot::MutexGuard<'a, ()>>,
    /// Reusable sync handoff for this reservation.
    sync_handoff: Arc<Handoff<()>>,
    /// Deadlock-detection context (`DeadlockPolicy` on): who this block's
    /// waits belong to, whom they wait on, and how a blocked push into this
    /// block's mailbox is woken/re-validated.
    tracking: Option<BlockTracking>,
    /// Whether this block's completion is relevant to parked `reserve().when`
    /// waiters (false for the silent probe blocks the wait-condition
    /// machinery opens).  On the queue-of-queues path the handler signals
    /// when it *processes* the close — this flag additionally fires a
    /// priority wake so a pooled handler gets there promptly, unless the
    /// closing client processed the close itself; on the lock-based path
    /// (no handler-visible close event exists) the client signals directly
    /// after releasing the handler lock, which is safe because blocks fully
    /// serialise on that lock.
    signal_guards: bool,
    /// How far the handler is known to have got through this block.
    progress: Progress,
    /// Queries this block ran on the client, and syncs it elided: plain
    /// counts, added to the shared [`RuntimeStats`] once, by
    /// [`end`](Separate::end), so a query after a sync touches no shared
    /// counter.
    queries_client_executed: u64,
    syncs_elided: u64,
    ended: bool,
    /// Prevents `Send`/`Sync` auto-derivation.
    _not_send: std::marker::PhantomData<*const ()>,
}

/// How far the handler is known to have got through a block's requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Progress {
    /// Nothing logged yet.
    Empty,
    /// A sync completed after the last request logged: the handler has
    /// applied all of them and is parked on this block's queue.
    Synced,
    /// Requests logged since the last sync may still be waiting.
    Pending,
}

impl<'a, T: Send + 'static> Separate<'a, T> {
    /// Begins a single-handler reservation (the common case, Fig. 8).
    pub(crate) fn begin_single(core: &'a Arc<HandlerCore<T>>) -> Self {
        RuntimeStats::bump(&core.stats.separate_blocks);
        if core.config.queue_of_queues {
            Self::attach(core, None)
        } else {
            // Pre-Qs semantics: take the handler lock for the whole block.
            // A contended acquisition registers a HandlerLock wait-for edge
            // so lock-order deadlocks between nested blocks are reportable.
            let guard = crate::deadlock::lock_handler(
                &core.client_lock,
                &core.lock_holder,
                core.deadlock.as_ref(),
            );
            Self::attach(core, Some(guard))
        }
    }

    /// Registers this client with one handler and returns the guard.
    ///
    /// On the queue-of-queues path (no `lock_guard`), this is the SEPARATE
    /// rule: enqueue a fresh private queue on the handler's queue-of-queues —
    /// lock-free, never blocks on other clients.  On the lock-based path the
    /// caller has already acquired the handler lock (directly, or through the
    /// id-ordered multi-reservation protocol in [`crate::reserve`]) and the
    /// guard simply carries it for the duration of the block.
    ///
    /// "Fresh" means empty and open, not newly allocated.  A bounded
    /// private queue reopens a spare ring of this thread: the ring of an
    /// earlier block of this thread, on any handler of the same object type
    /// and mailbox capacity, that the handler handed back after processing
    /// the block's close (see [`end`](Separate::end)).  The most recently
    /// handed back is taken; a ring is allocated only when there is none.
    /// Unbounded mailboxes are always new.
    pub(crate) fn attach(
        core: &'a Arc<HandlerCore<T>>,
        lock_guard: Option<parking_lot::MutexGuard<'a, ()>>,
    ) -> Self {
        if lock_guard.is_none() && core.config.queue_of_queues {
            let capacity = core.config.mailbox_capacity;
            // Where the handler hands the ring back to.
            let spares = capacity.and_then(|_| SPARE_RINGS.try_with(Arc::clone).ok());
            let (producer, consumer) = private_queue(capacity, spares.as_deref());
            // Every request logged into this private queue must re-arm the
            // handler's driver.
            let producer = producer.with_wake_hook(Arc::clone(&core.wake_hook));
            // Deadlock tracking: tag the queue with the reserving party so
            // the handler's "parked on this open queue" state becomes a
            // named Serving edge, validated at scan time by the
            // still-open-and-empty probe.
            let (client, serving_probe) = core
                .deadlock
                .as_ref()
                .map(|tracking| (current_waiter(&tracking.registry), consumer.serving_probe()))
                .unzip();
            core.qoq.enqueue(ClientMailbox {
                consumer,
                client,
                serving_probe,
                signal_on_close: !crate::guard::in_probe_round(),
                spares,
            });
            RuntimeStats::bump(&core.stats.private_queues_enqueued);
            Self::from_parts(core, Some(producer), None)
        } else {
            Self::from_parts(core, None, lock_guard)
        }
    }

    /// Begins a reservation whose registration was already performed by the
    /// multi-handler reservation protocol (§2.4 / §3.3).
    pub(crate) fn from_parts(
        core: &'a Arc<HandlerCore<T>>,
        producer: Option<MailboxProducer<Request<T>>>,
        lock_guard: Option<parking_lot::MutexGuard<'a, ()>>,
    ) -> Self {
        let tracking =
            core.deadlock.as_ref().map(|tracking| {
                let waiter = current_waiter(&tracking.registry);
                let (push_waker, push_probe) = match &producer {
                    // QoQ path: this block's private mailbox.
                    Some(producer) => (producer.unblocker(), producer.full_probe()),
                    // Lock-based path: pushes go to the handler's shared bounded
                    // request queue.
                    None => {
                        let waker_core = Arc::clone(core);
                        let probe_core = Arc::clone(core);
                        (
                            Some(Arc::new(move || waker_core.request_queue.wake_producers())
                                as WakerFn),
                            Some(Arc::new(move || probe_core.request_queue.is_at_capacity())
                                as ProbeFn),
                        )
                    }
                };
                BlockTracking {
                    registry: Arc::clone(&tracking.registry),
                    owner: tracking.participant,
                    waiter,
                    push_waker,
                    push_probe,
                }
            });
        Separate {
            core,
            producer,
            lock_guard,
            sync_handoff: Arc::new(Handoff::new()),
            tracking,
            signal_guards: !crate::guard::in_probe_round(),
            progress: Progress::Empty,
            queries_client_executed: 0,
            syncs_elided: 0,
            ended: false,
            _not_send: std::marker::PhantomData,
        }
    }

    /// Wraps a call closure so the enqueue→execute interval lands in the
    /// process-wide `request.enqueue_to_execute_ns` latency histogram when
    /// counters are armed; hands the closure back untouched otherwise, so
    /// the `Off` mode pays exactly one relaxed load here.  Armed, only
    /// 1-in-[`qs_obs::HOT_SAMPLE`] requests per thread are stamped: the
    /// extra closure box plus a shared-histogram record on *every* request
    /// of a sub-microsecond hot path was measured at tens of percent, while
    /// a uniform sample keeps the percentiles and costs a thread-local tick.
    fn instrument_enqueue(f: crate::request::CallFn<T>) -> crate::request::CallFn<T> {
        if !qs_obs::counters_enabled() || !qs_obs::sampled(qs_obs::HOT_SAMPLE) {
            return f;
        }
        // `obs_histogram!` hands out `&'static Arc<_>`: capture the static
        // reference, not a clone — per-request refcounting on one shared
        // Arc is a contended-cacheline hot spot.
        let histogram: &'static Arc<qs_obs::Histogram> =
            qs_obs::obs_histogram!("request.enqueue_to_execute_ns");
        let enqueued = qs_obs::now_nanos();
        Box::new(move |object: &mut T| {
            histogram.record(qs_obs::now_nanos().saturating_sub(enqueued));
            f(object)
        })
    }

    fn enqueue(&self, request: Request<T>) {
        self.push(request, true);
    }

    /// Logs `request`, firing the handler's wake hook when `wake` is set; a
    /// caller that clears it (queue-of-queues path only) gets the handler
    /// to the request itself.
    fn push(&self, request: Request<T>, wake: bool) {
        // Sampled like the latency stamp above: per-request ring writes are
        // the one trace site on the per-call fast path.
        if qs_obs::tracing_enabled() && qs_obs::sampled(qs_obs::HOT_SAMPLE) {
            qs_obs::trace_always(qs_obs::TraceKind::MailboxEnqueue, self.core.id, 0);
        }
        // Deadlock tracking: a blocking push registers a MailboxPush
        // wait-for edge, and the detector's Break policy may abort it.
        let watcher = self.tracking.as_ref().map(BlockTracking::push_watcher);
        let watcher = watcher.as_ref().map(|watcher| watcher as &dyn BlockWatcher);
        // Both mailbox flavours report whether the enqueue had to wait for
        // space: that wait *is* the backpressure the bounded configuration
        // promises (the client is throttled to the handler's pace), and it
        // is surfaced in the runtime statistics.
        let pushed = match (&self.producer, watcher) {
            (Some(producer), watcher) if wake => producer.enqueue_watched(request, watcher),
            (Some(producer), watcher) => producer.enqueue_without_wake(request, watcher),
            (None, Some(watcher)) => self.core.request_queue.enqueue_watched(request, watcher),
            (None, None) => Ok(self.core.request_queue.enqueue(request)),
        };
        let stalled = match pushed {
            Ok(stalled) => stalled,
            Err(_request) => {
                // This push sat on a confirmed wait-for cycle and was chosen
                // as the break point: surface it instead of deadlocking.
                // Inside a handler-executed call the panic is caught by the
                // handler loop (counted in `call_panics`), which then
                // resumes draining and unwinds the rest of the cycle.
                RuntimeStats::bump(&self.core.stats.deadlocks_broken);
                std::panic::panic_any(MailboxError::DeadlockBroken {
                    handler: self.core.id,
                });
            }
        };
        if stalled {
            RuntimeStats::bump(&self.core.stats.backpressure_stalls);
            qs_obs::trace(qs_obs::TraceKind::MailboxStall, self.core.id, 0);
            qs_obs::obs_count!("mailbox.backpressure_stalls", 1);
        }
    }

    /// Takes the handler object's reader–writer gate in write mode for the
    /// duration of a client-executed mutation, blocking behind any active
    /// shared-read reservations (see [`crate::read`]).  The sync that
    /// precedes every client-executed access parks the *handler*, but
    /// readers bypass the queues entirely, so the gate is the only thing
    /// serialising this client's `&mut` against their concurrent `&`.
    /// Returns a guard that releases the gate on drop — also on unwind, so
    /// a panicking query closure cannot wedge readers out forever.  With no
    /// read reservation active this is one uncontended CAS, and the release
    /// one RMW.
    fn write_gate(&self) -> WriteGateGuard<'_> {
        self.core
            .write_gate_blocking(self.tracking.as_ref().map(|tracking| tracking.waiter));
        WriteGateGuard {
            gate: &self.core.gate,
        }
    }

    /// Waits on a sync/query handoff, registering the wait as a Query
    /// wait-for edge while deadlock tracking is on.  The edge carries an
    /// `is_ready` probe so a completed-but-not-yet-collected handoff cannot
    /// sustain a phantom cycle.
    fn wait_on_handoff<R: Send + 'static>(&self, handoff: &Arc<Handoff<R>>) -> R {
        match &self.tracking {
            Some(tracking) => {
                let pending = Arc::clone(handoff);
                handoff.wait_instrumented(|| {
                    tracking.query_edge(Some(Arc::new(move || !pending.is_ready()) as ProbeFn))
                })
            }
            None => handoff.wait(),
        }
    }

    /// Logs an asynchronous call on the handler (the `call` rule).
    ///
    /// The closure runs on the handler thread, after every previously logged
    /// request from this block and before any later one; it never interleaves
    /// with requests from other clients.
    pub fn call(&mut self, f: impl FnOnce(&mut T) + Send + 'static) {
        assert!(!self.ended, "call after the separate block ended");
        RuntimeStats::bump(&self.core.stats.calls_enqueued);
        self.enqueue(Request::Call(Self::instrument_enqueue(Box::new(f))));
        // An asynchronous call invalidates the synced state (§3.4).
        self.progress = Progress::Pending;
    }

    /// Attempts to log an asynchronous call without blocking, surfacing a
    /// full bounded mailbox to the caller instead of stalling on
    /// backpressure.
    ///
    /// On `Ok(())` the call is enqueued exactly as [`call`](Separate::call)
    /// would have.  On a full mailbox the closure is handed back inside
    /// [`MailboxFull`] so the client can retry, shed load, or fall back to
    /// the blocking [`call`](Separate::call); the rejection is counted in
    /// the `backpressure_rejections` statistic.  Unbounded mailboxes never
    /// reject.
    ///
    /// Retry with [`try_call_boxed`](Separate::try_call_boxed) — re-passing
    /// the returned box through `try_call` would wrap it in a fresh box per
    /// attempt, and the handler would then pay one level of call-stack per
    /// rejected attempt when it finally executes the call.
    ///
    /// ```
    /// use qs_runtime::{Runtime, RuntimeConfig};
    ///
    /// let rt = Runtime::new(RuntimeConfig::all_optimizations());
    /// let counter = rt.spawn_handler(0u64);
    /// counter.separate(|s| {
    ///     let mut pending = s.try_call(|n| *n += 1);
    ///     // Retry until the handler makes room (here: immediately).
    ///     while let Err(rejected) = pending {
    ///         pending = s.try_call_boxed(rejected.call);
    ///     }
    ///     assert_eq!(s.query(|n| *n), 1);
    /// });
    /// ```
    pub fn try_call(
        &mut self,
        f: impl FnOnce(&mut T) + Send + 'static,
    ) -> Result<(), MailboxFull<T>> {
        self.try_call_boxed(Box::new(f))
    }

    /// [`try_call`](Separate::try_call) for an already-boxed call — the
    /// retry form: a call rejected with [`MailboxFull`] is re-submitted
    /// as-is, without another layer of boxing.
    pub fn try_call_boxed(
        &mut self,
        call: crate::request::CallFn<T>,
    ) -> Result<(), MailboxFull<T>> {
        assert!(!self.ended, "call after the separate block ended");
        // Deliberately not latency-instrumented: a rejected call is handed
        // back and re-submitted through this same path, and wrapping it per
        // attempt would nest one closure layer per retry (the exact hazard
        // the boxed retry form exists to avoid).
        let result = match &self.producer {
            Some(producer) => producer.try_enqueue(Request::Call(call)),
            None => self.core.request_queue.try_enqueue(Request::Call(call)),
        };
        match result {
            Ok(()) => {
                RuntimeStats::bump(&self.core.stats.calls_enqueued);
                self.progress = Progress::Pending;
                Ok(())
            }
            Err(Request::Call(call)) => {
                RuntimeStats::bump(&self.core.stats.backpressure_rejections);
                Err(MailboxFull { call })
            }
            Err(_) => unreachable!("try_call only enqueues Request::Call"),
        }
    }

    /// Returns `true` if the handler is known to have processed everything
    /// this block logged so far.
    pub fn is_synced(&self) -> bool {
        self.progress == Progress::Synced
    }

    /// Performs an explicit synchronisation with the handler.
    ///
    /// After `sync` returns, every call logged earlier in this block has been
    /// applied.  With dynamic sync-coalescing enabled a redundant sync is
    /// elided (§3.4.1); without it the round-trip is always paid, which is
    /// what makes the unoptimised configurations slow on query-heavy code.
    pub fn sync(&mut self) {
        if self.is_synced() && self.core.config.dynamic_sync_coalescing {
            self.syncs_elided += 1;
            return;
        }
        self.force_sync();
    }

    /// Performs the sync round-trip unconditionally.
    ///
    /// On the queue-of-queues path the client, about to block on the sync,
    /// steps an idle handler itself (see [`HandlerCore::run_here`]):
    /// the step applies everything queued ahead of the sync, then the sync,
    /// and parks the handler on this block's queue — so the wait below
    /// usually finds the handoff complete.  A handler that another party is
    /// stepping (most often the client ahead, still in its own step) is
    /// usually idle again once that step ends, so the claim is retried for
    /// one backoff window before the client settles for a notify, which
    /// would hand the handler to a worker; the retries stop as soon as that
    /// other party completes the sync.  A client whose sync is still
    /// pending then parks as the handler's driver, with its deadlock edge
    /// held: the next wake that finds the handler idle hands it to this
    /// client instead of a worker (see [`HandlerCore::drive_sync`]).
    fn force_sync(&mut self) {
        RuntimeStats::bump(&self.core.stats.syncs_performed);
        let handoff = Arc::clone(&self.sync_handoff);
        let sync = Request::Sync(crate::request::CompletionGuard::new(Arc::clone(&handoff)));
        if self.producer.is_some() {
            self.push(sync, false);
            // Deadlock tracking: while this client drives the handler it
            // waits on it exactly as it would parked on the handoff.
            let _edge = self.tracking.as_ref().map(|tracking| {
                let pending = Arc::clone(&handoff);
                tracking.query_edge(Some(Arc::new(move || !pending.is_ready()) as ProbeFn))
            });
            self.core.drive_sync(&handoff);
        } else {
            self.enqueue(sync);
        }
        self.wait_on_handoff(&handoff);
        self.progress = Progress::Synced;
    }

    /// Ensures the handler has drained this block's requests, eliding the
    /// round-trip when the runtime can prove it redundant.
    fn ensure_synced(&mut self) {
        if self.is_synced() && self.core.config.dynamic_sync_coalescing {
            self.syncs_elided += 1;
            return;
        }
        // Without coalescing the runtime does not exploit the knowledge
        // that we are synced; it pays the round trip again (this is the
        // behaviour of the None/QoQ configurations in §4).
        self.force_sync();
    }

    /// Performs a synchronous query (the `query` rule) and returns its
    /// result.
    ///
    /// Depending on [`crate::RuntimeConfig::client_executed_queries`] the
    /// closure runs either on the client thread after a sync (§3.2, Fig. 10b)
    /// or on the handler with the result handed back (Fig. 10a).
    pub fn query<R: Send + 'static>(&mut self, f: impl FnOnce(&mut T) -> R + Send + 'static) -> R {
        assert!(!self.ended, "query after the separate block ended");
        let round_trip = qs_obs::timer();
        if self.core.config.client_executed_queries {
            self.ensure_synced();
            self.queries_client_executed += 1;
            let _write = self.write_gate();
            // SAFETY: the sync above guarantees the handler has drained this
            // client's requests and is now parked waiting on this client's
            // (empty) private queue — or, lock-based, on the empty shared
            // request queue while we hold the handler lock.  No other client
            // can schedule work in between, and the write gate excludes
            // shared-read reservations, so we have exclusive access.
            let object = unsafe { self.core.object_mut() };
            let result = f(object);
            round_trip.record(qs_obs::obs_histogram!("query.round_trip_ns"));
            result
        } else {
            RuntimeStats::bump(&self.core.stats.queries_handler_executed);
            let result_handoff: Arc<Handoff<R>> = Arc::new(Handoff::new());
            let completion = crate::request::CompletionGuard::new(Arc::clone(&result_handoff));
            self.enqueue(Request::Query(Box::new(move |object: &mut T| {
                completion.complete(f(object));
            })));
            let result = self.wait_on_handoff(&result_handoff);
            // A completed query implies the handler processed everything
            // before it, so the block is synced now.
            self.progress = Progress::Synced;
            round_trip.record(qs_obs::obs_histogram!("query.round_trip_ns"));
            result
        }
    }

    /// Executes a query on the client **without** first synchronising.
    ///
    /// This is the primitive emitted for queries whose sync was removed by
    /// the *static* sync-coalescing pass (§3.4.2): the pass has proven that a
    /// dominating [`sync`](Separate::sync) exists on every path and that no
    /// intervening asynchronous call invalidated it.  Calling it without that
    /// guarantee is a logic error; in debug builds it is detected.
    ///
    /// With no shared-read reservation active, the cost is the gate's write
    /// hold — one uncontended CAS to take it and one RMW to release it —
    /// plus the closure.  The query and its elided sync are counted on this
    /// guard and reach [`RuntimeStats`] when the block ends.
    pub fn query_unsynced<R>(&mut self, f: impl FnOnce(&mut T) -> R) -> R {
        assert!(!self.ended, "query after the separate block ended");
        debug_assert!(
            self.is_synced(),
            "query_unsynced called while not synced; the static sync-coalescing \
             contract is violated"
        );
        self.queries_client_executed += 1;
        self.syncs_elided += 1;
        let _write = self.write_gate();
        // SAFETY: as in `query` — the caller (the static pass) guarantees a
        // dominating sync with no intervening asynchronous call, so the
        // handler is parked and cannot touch the object; the write gate
        // excludes shared-read reservations.
        let object = unsafe { self.core.object_mut() };
        f(object)
    }

    /// Reads the handler-owned object directly, without logging a request.
    ///
    /// Used by the wait-condition machinery in [`crate::reserve`]: after an
    /// explicit [`sync`](Separate::sync) the handler is parked on this
    /// client's queue, so the read is race-free.  Unlike
    /// [`query_unsynced`](Separate::query_unsynced) this does not count as a
    /// query in the statistics — condition evaluations are tracked separately
    /// via `wait_condition_checks`.
    pub(crate) fn peek_synced(&self) -> &T {
        debug_assert!(
            self.is_synced(),
            "peek_synced called while not synced; the reservation protocol \
             must sync before evaluating a wait condition"
        );
        // SAFETY: as in `query` — after the sync the handler is parked and
        // cannot touch the object, and the returned borrow keeps `self`
        // borrowed so no new request can be logged while it is alive.  No
        // write gate is needed: the borrow is shared, so concurrent
        // shared-read reservations are harmless, and every `&mut` site
        // (handler batches, client-executed queries) blocks on this
        // client's reservation, not on the gate alone.
        unsafe { self.core.object_mut() }
    }

    /// Logs an asynchronous (pipelined) query and returns immediately.
    ///
    /// The closure runs on the handler, after every previously logged request
    /// from this block, and its result is deposited in the returned
    /// [`QueryToken`].  Unlike [`query`](Separate::query), the client does
    /// not block: it can log further calls, issue more asynchronous queries —
    /// including on *other* handlers, overlapping N round-trips that
    /// [`query`](Separate::query) would serialise — and collect the results
    /// later with [`QueryToken::wait`] or [`QueryToken::try_take`].
    ///
    /// This generalises the §3.2 direct-handoff path: the handoff is still
    /// one-to-one between the handler and this client, but the rendezvous is
    /// deferred to the token instead of being taken immediately.
    ///
    /// ```
    /// use qs_runtime::{Runtime, RuntimeConfig};
    ///
    /// let rt = Runtime::new(RuntimeConfig::all_optimizations());
    /// let a = rt.spawn_handler(2u64);
    /// let b = rt.spawn_handler(3u64);
    /// let (ta, tb) = qs_runtime::reserve((&a, &b)).run(|(sa, sb)| {
    ///     // Both queries are in flight before either result is awaited.
    ///     (sa.query_async(|v| *v * 10), sb.query_async(|v| *v * 10))
    /// });
    /// assert_eq!(ta.wait() + tb.wait(), 50);
    /// ```
    pub fn query_async<R: Send + 'static>(
        &mut self,
        f: impl FnOnce(&mut T) -> R + Send + 'static,
    ) -> QueryToken<R> {
        assert!(!self.ended, "query after the separate block ended");
        RuntimeStats::bump(&self.core.stats.queries_pipelined);
        let handoff: Arc<Handoff<R>> = Arc::new(Handoff::new());
        let completion = crate::request::CompletionGuard::new(Arc::clone(&handoff));
        self.enqueue(Request::Query(Box::new(move |object: &mut T| {
            completion.complete(f(object));
        })));
        // The handler now has pending work from this block again.
        self.progress = Progress::Pending;
        QueryToken {
            handoff,
            taken: false,
            tracking: self
                .tracking
                .as_ref()
                .map(|tracking| (Arc::clone(&tracking.registry), tracking.owner)),
        }
    }

    /// Ends the separate block, releasing the handler for other clients.
    ///
    /// On the queue-of-queues path this closes the block's private queue.
    /// When the handler processes the close — on its pool worker, or here
    /// when this thread steps it — a bounded mailbox's ring that never grew
    /// past its first chunk goes back to this thread, and once this guard's
    /// producer half is dropped too, the next block this thread opens on a
    /// handler of the same type reopens it as its private queue: a block
    /// neither allocates a ring nor has one freed on the handler's thread.
    /// A thread keeps at most [`qs_queues::mailbox::SPARE_RINGS`] spare
    /// rings; a ring that grew past its first chunk, or finds the set full,
    /// is freed as before.
    ///
    /// Called automatically when the guard is dropped; calling it twice is
    /// harmless.
    pub fn end(&mut self) {
        // First, so a block that unwinds reports its client-side counts too.
        RuntimeStats::add(
            &self.core.stats.queries_client_executed,
            std::mem::take(&mut self.queries_client_executed),
        );
        RuntimeStats::add(
            &self.core.stats.syncs_elided,
            std::mem::take(&mut self.syncs_elided),
        );
        if self.ended {
            return;
        }
        self.ended = true;
        qs_obs::trace(qs_obs::TraceKind::ReserveRelease, self.core.id, 0);
        if let Some(producer) = self.producer.take() {
            // END marker: the handler moves on to the next private queue.
            // With nothing of this block left for it, the handler has only
            // the close to process, and the client processes it itself —
            // with no budget, so it runs no client code: the first call or
            // query after the close goes to the pool (see
            // `HandlerCore::apply_batch`).
            let stepped = if self.progress != Progress::Pending {
                producer.close_without_wake();
                self.core.run_here(0)
            } else {
                producer.close();
                false
            };
            // Guard waiters are signalled when the handler *processes* this
            // close (which serialises the signal after every call of the
            // block — signalling here instead could be consumed by a waiter
            // that has not observed the block's effects yet).  A client whose
            // step left nothing to the pool processed the close itself — or
            // found the handler pinned to another open block, whose END will
            // bring it here.  Otherwise, with waiters parked, ask the
            // handler's driver to get there promptly: in the pooled
            // scheduler a Guard wake rides the priority lane like Pressure,
            // keeping wake-to-resume latency low under load.
            if !stepped && self.signal_guards && self.core.guards.has_waiters() {
                (self.core.wake_hook)(WakeReason::Guard);
            }
        }
        let lock_based = self.lock_guard.is_some();
        // Lock-based path: releasing the handler lock ends the reservation.
        // Clear the deadlock-tracking holder stamp first — after the guard
        // drops the lock belongs to whoever acquires it next.
        if lock_based {
            crate::deadlock::unlock_handler(&self.core.lock_holder);
        }
        self.lock_guard = None;
        // Lock-based path: no handler-visible close event exists, so the
        // client signals parked guard waiters itself, after releasing the
        // lock.  Safe against lost signals: any block whose effects a waiter
        // has not observed must still acquire the handler lock, i.e. after
        // the waiter (which registered while holding it) released it — so
        // its end-of-block signal fires after the waiter's registration.
        if lock_based && self.signal_guards {
            self.core.guards.signal_all();
        }
    }

    /// The identifier of the reserved handler.
    pub fn handler_id(&self) -> crate::HandlerId {
        self.core.id
    }

    /// The runtime statistics block shared by the reserved handler.
    pub fn stats(&self) -> &Arc<RuntimeStats> {
        &self.core.stats
    }
}

impl<T: Send + 'static> Drop for Separate<'_, T> {
    fn drop(&mut self) {
        self.end();
    }
}

/// RAII guard for a client-executed mutation's hold on the handler object's
/// reader–writer gate: releases the write mode on drop, including unwinds.
struct WriteGateGuard<'g> {
    gate: &'g qs_sync::ReadGate,
}

impl Drop for WriteGateGuard<'_> {
    fn drop(&mut self) {
        self.gate.end_write();
    }
}

/// Error returned by [`Separate::try_call`] when the bounded mailbox is at
/// capacity: the handler has not kept up and the runtime refuses to block
/// the client.
///
/// Carries the rejected closure back so the caller can retry it (possibly
/// after shedding load) without reconstructing the captured state.  Retry
/// through [`Separate::try_call_boxed`], which re-submits the box as-is.
pub struct MailboxFull<T> {
    /// The rejected call, returned unexecuted.
    pub call: Box<dyn FnOnce(&mut T) + Send + 'static>,
}

impl<T> std::fmt::Debug for MailboxFull<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MailboxFull").finish_non_exhaustive()
    }
}

impl<T> std::fmt::Display for MailboxFull<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("mailbox full: bounded queue at capacity, call rejected")
    }
}

impl<T> std::error::Error for MailboxFull<T> {}

/// A mailbox interaction failed outright (as opposed to [`MailboxFull`],
/// which hands the rejected closure back for retry).
///
/// [`DeadlockBroken`](MailboxError::DeadlockBroken) is how
/// [`crate::DeadlockPolicy::Break`] surfaces its intervention: the blocked
/// `call` panics with this value as the payload (recover it with
/// `payload.downcast_ref::<MailboxError>()` in a `catch_unwind`).  On a
/// handler-executed call the handler loop catches the panic, counts it in
/// `call_panics`, and resumes draining — which is exactly what unwinds the
/// rest of the cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum MailboxError {
    /// A blocking push into this handler's bounded mailbox sat on a
    /// confirmed wait-for cycle and was failed by the deadlock detector's
    /// `Break` policy; the logged call was dropped unexecuted.
    DeadlockBroken {
        /// The handler whose mailbox the broken push targeted.
        handler: crate::HandlerId,
    },
    /// A mutating operation (`call`, `try_call`) was attempted through a
    /// shared-read reservation (see [`crate::read`](mod@crate::read)).
    /// Read reservations admit only commuting operations — `query`,
    /// `query_async`, `peek` —
    /// so the runtime fails the command fast instead of silently upgrading
    /// to exclusive access.
    ReadOnlyReservation {
        /// The handler the read-only reservation targets.
        handler: crate::HandlerId,
    },
}

impl std::fmt::Display for MailboxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MailboxError::DeadlockBroken { handler } => write!(
                f,
                "push into the mailbox of handler {handler} was broken by the deadlock \
                 detector: the blocked producers formed a confirmed wait-for cycle"
            ),
            MailboxError::ReadOnlyReservation { handler } => write!(
                f,
                "handler {handler} is reserved in read mode: commands are rejected; \
                 use an exclusive reservation (or `query`) instead"
            ),
        }
    }
}

impl std::error::Error for MailboxError {}

/// Handle to the pending result of a [`Separate::query_async`] call.
///
/// The token is independent of the separate block that created it: the
/// result may be collected inside the block, after it ended, or from a
/// different point in the client's control flow.  Dropping an unconsumed
/// token is fine — the deposited result is released when the token and the
/// handler are done with it.
#[must_use = "a pipelined query's result is lost unless the token is waited on"]
pub struct QueryToken<R: Send + 'static> {
    handoff: Arc<Handoff<R>>,
    taken: bool,
    /// Deadlock tracking: the registry and the queried handler's identity,
    /// so a blocking [`wait`](QueryToken::wait) registers a Query wait-for
    /// edge.  The *waiter* is resolved at wait time — tokens are `Send`, so
    /// the collecting thread may differ from the logging one.
    tracking: Option<(Arc<WaitRegistry>, ParticipantId)>,
}

impl<R: Send + 'static> QueryToken<R> {
    /// A token born completed, used by read reservations: the query ran
    /// eagerly on the client (readers hold the object directly), so the
    /// result is deposited before the token is handed out and
    /// [`wait`](QueryToken::wait) never blocks.
    pub(crate) fn ready(value: R) -> Self {
        let handoff = Arc::new(Handoff::new());
        handoff.complete(value);
        QueryToken {
            handoff,
            taken: false,
            tracking: None,
        }
    }

    /// Blocks until the handler has executed the query and returns its
    /// result (the deferred half of the §3.2 direct handoff).
    ///
    /// # Panics
    ///
    /// Panics if the result was already collected with
    /// [`try_take`](QueryToken::try_take), or if the query was abandoned —
    /// its request dropped unexecuted or unwound mid-execution (a panicking
    /// closure, or a nested push failed by `DeadlockPolicy::Break`) — since
    /// the result will never arrive.
    pub fn wait(self) -> R {
        assert!(!self.taken, "query result already taken");
        match &self.tracking {
            Some((registry, owner)) => {
                let waiter = current_waiter(registry);
                let owner = *owner;
                let pending = Arc::clone(&self.handoff);
                self.handoff.wait_instrumented(|| {
                    registry.register(
                        waiter,
                        owner,
                        EdgeKind::Query,
                        None,
                        Some(Arc::new(move || !pending.is_ready()) as ProbeFn),
                    )
                })
            }
            None => self.handoff.wait(),
        }
    }

    /// Returns the result if the handler has already deposited it, without
    /// blocking.  Returns `None` while the query is still in flight and
    /// after the result has been taken.
    ///
    /// # Panics
    ///
    /// Panics if the query was abandoned (its request dropped unexecuted or
    /// unwound mid-execution) — polling would otherwise spin forever on a
    /// result that will never arrive.
    pub fn try_take(&mut self) -> Option<R> {
        if !self.taken && self.handoff.is_abandoned() {
            panic!("pipelined query abandoned: the handler dropped or failed the request");
        }
        if !self.taken && self.handoff.is_ready() {
            self.taken = true;
            Some(self.handoff.wait())
        } else {
            None
        }
    }

    /// Returns `true` once the result is available.
    pub fn is_ready(&self) -> bool {
        self.handoff.is_ready()
    }
}

impl<R: Send + 'static> std::fmt::Debug for QueryToken<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryToken")
            .field("ready", &self.is_ready())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{OptimizationLevel, RuntimeConfig};
    use crate::handler::Handler;
    use crate::runtime::Runtime;

    /// A handler on its own runtime, returned alongside it: the runtime
    /// owns the scheduler, so it must outlive the test's blocks.
    fn spawn<T: Send + 'static>(config: RuntimeConfig, object: T) -> (Runtime, Handler<T>) {
        let rt = Runtime::new(config);
        let handler = rt.spawn_handler(object);
        (rt, handler)
    }

    #[test]
    fn dynamic_coalescing_elides_second_sync() {
        let (_rt, handler) = spawn(OptimizationLevel::Dynamic.config(), 5u32);
        handler.separate(|s| {
            assert_eq!(s.query(|n| *n), 5);
            assert_eq!(s.query(|n| *n), 5);
            assert_eq!(s.query(|n| *n), 5);
        });
        let snap = handler.stats().snapshot();
        assert_eq!(snap.syncs_performed, 1, "only the first query syncs");
        assert_eq!(snap.syncs_elided, 2);
        handler.stop();
    }

    #[test]
    fn without_coalescing_every_query_syncs() {
        let (_rt, handler) = spawn(OptimizationLevel::QoQ.config(), 5u32);
        handler.separate(|s| {
            for _ in 0..4 {
                s.query(|n| *n);
            }
        });
        let snap = handler.stats().snapshot();
        // QoQ config has handler-executed queries, so no sync tokens at all,
        // but also no elisions; every query is a full round trip.
        assert_eq!(snap.queries_handler_executed, 4);
        assert_eq!(snap.syncs_elided, 0);
        handler.stop();
    }

    #[test]
    fn call_invalidates_synced_state() {
        let (_rt, handler) = spawn(RuntimeConfig::all_optimizations(), 0u32);
        handler.separate(|s| {
            s.query(|n| *n);
            assert!(s.is_synced());
            s.call(|n| *n += 1);
            assert!(!s.is_synced());
            assert_eq!(s.query(|n| *n), 1);
        });
        let snap = handler.stats().snapshot();
        assert_eq!(snap.syncs_performed, 2);
        handler.stop();
    }

    #[test]
    fn explicit_sync_plus_unsynced_queries() {
        // The shape the static pass produces for Fig. 14: one sync hoisted
        // out of the loop, unsynced reads inside it.
        let (_rt, handler) = spawn(
            OptimizationLevel::Static.config(),
            (0..64).collect::<Vec<u32>>(),
        );
        let total = handler.separate(|s| {
            s.sync();
            let mut total = 0u32;
            for i in 0..64 {
                total += s.query_unsynced(|v| v[i]);
            }
            total
        });
        assert_eq!(total, (0..64).sum());
        let snap = handler.stats().snapshot();
        assert_eq!(snap.syncs_performed, 1);
        assert_eq!(snap.queries_client_executed, 64);
        handler.stop();
    }

    /// The shape of [`client_side_counts_survive_an_unwinding_block`]: a
    /// sync, 10 unsynced queries and 5 synced ones.
    fn sync_then_fifteen_queries(s: &mut Separate<'_, u32>) {
        s.sync();
        for _ in 0..10 {
            s.query_unsynced(|n| *n);
        }
        for _ in 0..5 {
            s.query(|n| *n);
        }
    }

    #[test]
    fn client_side_counts_survive_an_unwinding_block() {
        let (_rt, normal) = spawn(RuntimeConfig::all_optimizations(), 3u32);
        normal.separate(sync_then_fifteen_queries);
        let expected = normal.stats().snapshot();
        assert_eq!(expected.queries_client_executed, 15);
        assert_eq!(expected.syncs_elided, 15);

        let (_rt2, unwound) = spawn(RuntimeConfig::all_optimizations(), 3u32);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            unwound.separate(|s| {
                sync_then_fifteen_queries(s);
                panic!("block bomb");
            })
        }));
        assert!(result.is_err());
        let snap = unwound.stats().snapshot();
        assert_eq!(
            snap.queries_client_executed,
            expected.queries_client_executed
        );
        assert_eq!(snap.syncs_elided, expected.syncs_elided);
        assert_eq!(snap.syncs_performed, expected.syncs_performed);
        assert_eq!(
            unwound.query_detached(|n| *n),
            3,
            "the handler still serves"
        );
        normal.stop();
        unwound.stop();
    }

    #[test]
    fn read_guard_queries_count_once_released() {
        const QUERIES: u64 = 37;
        let (_rt, handler) = spawn(RuntimeConfig::all_optimizations(), 9u32);
        let sum = crate::reserve(&handler).read().run(|r| {
            (0..QUERIES)
                .map(|_| u64::from(r.query(|n| *n)))
                .sum::<u64>()
        });
        assert_eq!(sum, 9 * QUERIES);
        let snap = handler.stats().snapshot();
        assert_eq!(snap.queries_client_executed, QUERIES);
        assert_eq!(snap.syncs_elided, 0);
        handler.stop();
    }

    #[test]
    fn handler_executed_queries_return_results() {
        let (_rt, handler) = spawn(OptimizationLevel::None.config(), String::from("abc"));
        let len = handler.separate(|s| {
            s.call(|t| t.push('d'));
            s.query(|t| t.len())
        });
        assert_eq!(len, 4);
        assert_eq!(handler.stats().snapshot().queries_handler_executed, 1);
        handler.stop();
    }

    #[test]
    fn separate_blocks_from_two_threads_do_not_interleave() {
        // Fig. 1: with two clients logging on the same handler, each client's
        // requests are applied contiguously.
        let (_rt, handler) = spawn(RuntimeConfig::all_optimizations(), Vec::<(u8, u32)>::new());
        let h1 = handler.clone();
        let h2 = handler.clone();
        let t1 = std::thread::spawn(move || {
            h1.separate(|s| {
                for i in 0..1_000 {
                    s.call(move |v| v.push((1, i)));
                }
            });
        });
        let t2 = std::thread::spawn(move || {
            h2.separate(|s| {
                for i in 0..1_000 {
                    s.call(move |v| v.push((2, i)));
                }
            });
        });
        t1.join().unwrap();
        t2.join().unwrap();
        let log = handler.shutdown_and_take().unwrap();
        assert_eq!(log.len(), 2_000);
        // The log must be exactly client 1's block followed by client 2's, or
        // vice versa — never interleaved.
        let first_owner = log[0].0;
        let first_block: Vec<_> = log.iter().take_while(|(o, _)| *o == first_owner).collect();
        assert_eq!(first_block.len(), 1_000, "blocks interleaved");
    }

    #[test]
    fn query_async_pipelines_and_orders_with_calls() {
        for level in [OptimizationLevel::All, OptimizationLevel::None] {
            let (_rt, handler) = spawn(level.config(), 0u64);
            let (first, second) = handler.separate(|s| {
                s.call(|n| *n = 10);
                let first = s.query_async(|n| *n);
                s.call(|n| *n += 5);
                let second = s.query_async(|n| *n);
                (first, second)
            });
            // Tokens remain valid after the block has ended.
            assert_eq!(first.wait(), 10, "level {level:?}");
            assert_eq!(second.wait(), 15, "level {level:?}");
            let snap = handler.stats().snapshot();
            assert_eq!(snap.queries_pipelined, 2);
            handler.stop();
        }
    }

    #[test]
    fn query_async_try_take_yields_exactly_once() {
        let (_rt, handler) = spawn(RuntimeConfig::all_optimizations(), 7u32);
        let mut token = handler.separate(|s| s.query_async(|n| *n));
        // Spin until the handler has deposited the result.
        let value = loop {
            if let Some(value) = token.try_take() {
                break value;
            }
            std::hint::spin_loop();
        };
        assert_eq!(value, 7);
        assert!(token.try_take().is_none(), "result is taken at most once");
        handler.stop();
    }

    #[test]
    fn query_async_invalidates_the_synced_flag() {
        let (_rt, handler) = spawn(RuntimeConfig::all_optimizations(), 1u32);
        handler.separate(|s| {
            s.sync();
            assert!(s.is_synced());
            let token = s.query_async(|n| *n);
            assert!(!s.is_synced(), "a pipelined query is pending work");
            assert_eq!(token.wait(), 1);
            assert_eq!(s.query(|n| *n), 1);
        });
        handler.stop();
    }

    #[test]
    fn try_call_rejects_on_a_full_capacity_one_mailbox() {
        // Both loop flavours: fill the capacity-1 mailbox while the handler
        // is provably busy, then assert the non-blocking path hands the call
        // back instead of stalling.
        for level in [OptimizationLevel::All, OptimizationLevel::None] {
            let (_rt, handler) = spawn(level.config().with_mailbox_capacity(Some(1)), 0u64);
            let context = level.to_string();
            handler.separate(|s| {
                let gate = Arc::new(qs_sync::Event::new());
                let opened = Arc::clone(&gate);
                // Occupies the handler until the gate opens.
                s.call(move |_| opened.wait());
                // Fills the capacity-1 mailbox; by the time this
                // blocking enqueue returns, the handler has drained the
                // gate call (making room) and is stuck executing it.
                s.call(|n| *n += 1);
                // Non-blocking: must reject, not stall.
                let rejected = s
                    .try_call(|n| *n += 10)
                    .expect_err(&format!("{context}: mailbox must be full"));
                assert!(format!("{rejected}").contains("mailbox full"), "{context}");
                assert!(format!("{rejected:?}").contains("MailboxFull"), "{context}");
                gate.set();
                // The rejected closure is handed back executable; the
                // boxed retry form re-submits it without re-wrapping.
                let mut pending = s.try_call_boxed(rejected.call);
                while let Err(again) = pending {
                    std::thread::yield_now();
                    pending = s.try_call_boxed(again.call);
                }
                assert_eq!(s.query(|n| *n), 11, "{context}");
            });
            let snap = handler.stats().snapshot();
            assert!(
                snap.backpressure_rejections >= 1,
                "{context}: rejection must be counted, got {snap:?}"
            );
            assert_eq!(handler.shutdown_and_take(), Some(11), "{context}");
        }
    }

    #[test]
    fn try_call_never_rejects_on_an_unbounded_mailbox() {
        let (_rt, handler) = spawn(
            RuntimeConfig::all_optimizations().with_mailbox_capacity(None),
            0u64,
        );
        handler.separate(|s| {
            for _ in 0..1_000 {
                s.try_call(|n| *n += 1).expect("unbounded never rejects");
            }
            assert_eq!(s.query(|n| *n), 1_000);
        });
        assert_eq!(handler.stats().snapshot().backpressure_rejections, 0);
        handler.stop();
    }

    #[test]
    fn panicking_query_closure_abandons_instead_of_hanging_the_client() {
        // Regression: a handler-executed query whose closure unwinds (a
        // panic, or a nested push failed by DeadlockPolicy::Break) used to
        // leave the client parked forever on a handoff nobody would ever
        // complete.  The CompletionGuard now abandons it, surfacing a
        // panic to the waiting client instead.
        let (_rt, handler) = spawn(OptimizationLevel::None.config(), 5u32);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handler.separate(|s| s.query(|_: &mut u32| -> u32 { panic!("query bomb") }))
        }));
        assert!(result.is_err(), "the client must panic, not hang");
        // The handler survives (the closure panic was caught and counted)
        // and keeps serving.
        assert_eq!(handler.query_detached(|n| *n), 5);
        assert_eq!(handler.stats().snapshot().call_panics, 1);

        // Same protection for pipelined queries: polling surfaces the
        // abandonment as a panic instead of spinning forever.
        let mut token = handler.separate(|s| s.query_async(|_| -> u32 { panic!("async bomb") }));
        let mut surfaced = false;
        for _ in 0..2_000 {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| token.try_take())) {
                Ok(None) => std::thread::sleep(std::time::Duration::from_millis(1)),
                Ok(Some(_)) => panic!("abandoned query must not yield a value"),
                Err(_) => {
                    surfaced = true;
                    break;
                }
            }
        }
        assert!(surfaced, "try_take must surface the abandonment");
        assert_eq!(handler.query_detached(|n| *n), 5);
        handler.stop();
    }

    #[test]
    #[should_panic(expected = "after the separate block ended")]
    fn using_an_ended_guard_panics() {
        let (_rt, handler) = spawn(RuntimeConfig::all_optimizations(), 0u32);
        handler.separate(|s| {
            s.end();
            s.call(|n| *n += 1);
        });
    }
}
