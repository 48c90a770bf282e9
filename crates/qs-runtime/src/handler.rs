//! Handlers (SCOOP *processors*): the threads of execution that own objects.
//!
//! "The SCOOP model associates every object with a thread of execution, its
//! handler. There can be many objects associated to a single handler, but
//! every object has exactly one handler" (§2.1).  In this reproduction a
//! [`Handler<T>`] owns a single Rust value of type `T` (which may of course
//! be an arbitrarily large object graph); clients may only reach that value
//! through separate blocks.
//!
//! The handler's main loop is a transcription of Fig. 7 of the paper:
//! dequeue private queues from the queue-of-queues, and for each private
//! queue dequeue and execute calls until the client signals the end of its
//! separate block.  The lock-based pre-Qs loop (used when
//! [`RuntimeConfig::queue_of_queues`] is off) drains a single shared request
//! queue instead.
//!
//! # One loop, two drivers
//!
//! Each loop exists exactly once, as a resumable *step*
//! (`HandlerCore::step_queue_of_queues` / `HandlerCore::step_lock_based`,
//! reached only through [`PooledHandler`]'s [`PooledTask`] impl): it polls
//! its queues, applies what it finds, keeps its position in
//! [`PooledLoopState`], and *returns* [`StepOutcome::Idle`] when the queues
//! are momentarily empty instead of blocking.  Two parties step it:
//!
//! * **the pool** — every request a producer makes visible fires the
//!   handler's wake hook, and the [`qs_exec::HandlerScheduler`] re-arms the
//!   task on its worker pool, so tens of thousands of mostly-idle handlers
//!   share a handful of threads;
//! * **the client** — a handler that is idle when a client is about to
//!   wait for it is stepped on that client's thread.
//!
//! The client's step (`HandlerCore::run_here` over
//! [`qs_exec::TaskHandle::run_here`]) is the paper's §3.2 handoff without a
//! worker in between: the client's wait costs no OS wake-up of a worker,
//! and the client is not parked when its own sync completes.  It happens at
//! four points:
//!
//! * the push of the `Sync` a `query`/`sync` is about to wait on (on the
//!   queue-of-queues path).  The step applies at most one drain batch
//!   ([`RuntimeConfig::max_batch`]) before handing the handler to the pool.
//!   Whatever it runs ahead of the `Sync` is work the client's wait depends
//!   on anyway.  A handler that another party is stepping — typically the
//!   client ahead of this one, still in its own step — is claimed again
//!   ([`HandlerCore::try_run_here`]) for one backoff window while the sync
//!   is pending, and only then notified; a client step that a notify
//!   interrupted steps again on the client before it hands the handler on.
//!   Between them, two clients of one handler keep it off the pool.
//! * the END of a block that has logged no call since its last sync (so the
//!   handler is parked on it with nothing left but the close).  This step
//!   runs no client code: it processes closes and the sync tokens of the
//!   clients behind, which only wake those clients, and the first call or
//!   query it finds goes on as a wake would send it: to a parked driver
//!   (below), or to the pool.  That request may wait for something the
//!   ending client does only after its END, so running it here could make
//!   the client wait on itself.
//! * [`stop`](HandlerCore::stop), with the same zero budget: a handler
//!   with nothing queued retires on the stopping thread, so a runtime
//!   whose handlers were only ever stepped by their clients never starts
//!   the pool's threads.
//! * the **parked driver**: a client whose sync is still pending after its
//!   step, or after a backoff window of failed claims, registers its
//!   thread in the handler's one driver slot
//!   ([`qs_exec::TaskHandle::park_driver`]), keeping its deadlock Query
//!   edge, and re-checks its sync and the idle claim before it parks.  A
//!   wake that then finds the handler idle — typically the unsynced END,
//!   or a call, of the block ahead — hands the handler to that client
//!   instead of the pool and unparks it (`driver_wakes`, not
//!   `handler_wakeups`), and the client steps it with one drain batch as
//!   budget, as at its `Sync` push.  That is sound for the same reason:
//!   everything ahead of the client's `Sync` in queue-of-queues order is
//!   work its own wait depends on, and the step cannot pass the client's
//!   own private queue (see below).  The ending client still never runs
//!   the calls it logged.  A client whose sync completed before it took a
//!   handler it was handed passes the handler on — to the driver it
//!   evicted, or to the pool — and never drops it: what follows its sync
//!   is not its to run.  The slot holds the latest client to park; the
//!   one it evicted is put back when that client leaves.  Clients parked
//!   on a `reserve().when` guard are not drivers: they hold no
//!   reservation, their set may span handlers, and a queued call may wait
//!   on them.
//!
//! Never on a `call`, nor at the END of a block with calls outstanding: a
//! client that logs work and walks away must not run that work itself, or
//! fanning calls out to idle handlers (Cowichan's `broadcast`) would compute
//! serially on the client.
//!
//! The step preserves the §3.2 client-executed-query contract: after
//! completing a sync the handler cannot proceed past the syncing client's
//! private queue (its step only re-polls that queue and goes idle), so the
//! client's direct object access still races with nothing.  That holds
//! whichever thread stepped it.

use std::cell::UnsafeCell;
use std::mem::ManuallyDrop;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use qs_deadlock::{EdgeGuard, EdgeKind, ParticipantId};
use qs_exec::{PooledTask, StepOutcome, TaskHandle, Wake};
use qs_queues::{Closed, MailboxConsumer, MutexQueue, QueueOfQueues, WakeHook, WakeReason};
use qs_sync::{Backoff, Event, GateWake, Handoff, ReadGate, SpinLock};

use crate::config::RuntimeConfig;
use crate::deadlock::{HandlerScope, Tracking};
use crate::request::Request;
use crate::separate::Separate;
use crate::stats::RuntimeStats;

/// Unique identifier of a handler within one process.
pub type HandlerId = u64;

/// The consumer end of one client's private queue, tagged with the client's
/// deadlock-tracking identity (when the runtime's `DeadlockPolicy` is on).
///
/// The tag is what turns "this handler is parked on an open private queue"
/// into a *named* wait-for edge — handler → client — for the detector's
/// cycle search; without it a three-party Fig. 6-style deadlock (clients
/// blocked pushing, handlers committed to other clients' open blocks) has
/// no path through the handlers.
pub(crate) struct ClientMailbox<T> {
    pub(crate) consumer: MailboxConsumer<Request<T>>,
    pub(crate) client: Option<ParticipantId>,
    /// Liveness probe for the Serving edge: "still open and empty".  A
    /// Serving edge whose queue has since received work (or closed) is
    /// stale — the handler is about to run, not blocked — and must not
    /// complete a cycle at scan time.
    pub(crate) serving_probe: Option<qs_deadlock::ProbeFn>,
    /// Whether processing this block's close should conservatively signal
    /// the handler's parked guard waiters (the block may have changed state
    /// a `reserve().when` condition depends on).  False for the *probe*
    /// blocks the wait-condition machinery itself opens — their closes are
    /// silent, or every re-evaluation by one waiter would wake all others.
    pub(crate) signal_on_close: bool,
}

/// Caps the batch buffer's *pre*-allocation: a huge `max_batch` (e.g.
/// `usize::MAX` as "drain everything") must not panic `Vec::with_capacity`
/// or reserve gigabytes up front — the buffer simply grows on demand beyond
/// this.
fn batch_prealloc(max_batch: usize) -> usize {
    max_batch.min(1024)
}

/// The handler's wake hook over its task.  A pressure wake (bounded mailbox
/// at its watermark or a blocked producer) routes through the scheduler's
/// priority lane so the handler runs promptly; so does a guard wake (clients
/// parked on a wait condition this handler's pending work may decide) and a
/// writable wake (the handler has a stashed batch waiting for readers to
/// leave its object's gate).
fn wake_hook(task: TaskHandle, stats: Arc<RuntimeStats>) -> WakeHook {
    Arc::new(move |reason| {
        let wake = match reason {
            WakeReason::Pressure => {
                RuntimeStats::bump(&stats.pressure_wakes);
                task.notify_pressure()
            }
            WakeReason::Guard | WakeReason::Writable => task.notify_pressure(),
            _ => task.notify(),
        };
        count_wake(&stats, wake);
    })
}

/// Counts where a wake sent the handler: the pool (`handler_wakeups`) or a
/// parked driver (`driver_wakes`).
fn count_wake(stats: &RuntimeStats, wake: Wake) {
    match wake {
        Wake::Pool => RuntimeStats::bump(&stats.handler_wakeups),
        Wake::Driver => RuntimeStats::bump(&stats.driver_wakes),
        Wake::Covered => {}
    }
}

/// Requests a handler may apply in one step before yielding (fairness
/// between handlers sharing a pool; counted in `handler_yields`).
///
/// The *remaining* budget persists in [`PooledLoopState`] across scheduler
/// steps and is refilled only once it is spent — i.e. only after the handler
/// has been through the scheduler's global FIFO behind its runnable peers —
/// so an immediately re-enqueued hot handler cannot restart from a full
/// budget and monopolise its worker.  While a mailbox reports backpressure
/// the remaining budget additionally shrinks to one batch
/// (`RuntimeConfig::max_batch`; counted in `budget_shrinks`), which keeps
/// a backpressured producer and its consumer finely interleaved.
const YIELD_BUDGET: usize = 1024;

/// Shared state of one handler, owned jointly by the handler thread and all
/// client-side [`Handler`] handles.
pub(crate) struct HandlerCore<T> {
    pub(crate) id: HandlerId,
    pub(crate) config: RuntimeConfig,
    pub(crate) stats: Arc<RuntimeStats>,
    /// The object owned by this handler.  Accessed mutably by the handler
    /// thread while executing requests, and by a client thread while it is
    /// executing a client-side query (during which the handler is guaranteed
    /// to be parked on that client's queue — see §3.2).
    object: UnsafeCell<ManuallyDrop<T>>,
    object_taken: AtomicBool,

    /// Queue-of-queues (QoQ configuration): each element is the consumer end
    /// of one client's mailbox (bounded or unbounded private queue,
    /// per [`RuntimeConfig::mailbox_capacity`]).
    pub(crate) qoq: QueueOfQueues<ClientMailbox<T>>,
    /// Spinlock serialising *multi-handler* reservations (§3.3).  Single
    /// reservations enqueue lock-free and never touch it.
    pub(crate) reservation_lock: SpinLock<()>,

    /// Single request queue (lock-based configuration).
    pub(crate) request_queue: MutexQueue<Request<T>>,
    /// Handler lock held by the reserving client for the whole separate block
    /// (lock-based configuration; Fig. 2 of the paper).
    pub(crate) client_lock: parking_lot::Mutex<()>,
    /// Raw participant id of the party currently holding `client_lock`
    /// (0 = unheld; maintained only while deadlock tracking is on).  A
    /// blocked acquisition registers its wait-for edge against this holder —
    /// not against the handler — which is what lets an ABBA lock cycle
    /// between two clients close in the wait-for graph.
    pub(crate) lock_holder: std::sync::atomic::AtomicU64,

    stopped: AtomicBool,
    finished: Event,
    final_value: SpinLock<Option<T>>,

    /// The handler's wake hook: copied into every mailbox producer this
    /// handler hands out and registered on the request queue, so any
    /// producer making work visible re-arms the handler's task.
    pub(crate) wake_hook: WakeHook,
    /// The handler's task on the scheduler, through which a client steps
    /// this handler on its own thread ([`run_here`](Self::run_here)).
    task: TaskHandle,

    /// Deadlock-detection hook (registry + this handler's participant
    /// identity); `None` when the runtime's `DeadlockPolicy` is `Off`, which
    /// keeps every blocking path un-instrumented.
    pub(crate) deadlock: Option<Tracking>,

    /// Parked `reserve().when` waiters whose conditions depend on this
    /// handler's state; signalled when a separate block completes on it.
    pub(crate) guards: Arc<crate::guard::GuardRegistry>,

    /// Reader–writer gate over `object`.  Shared-read reservations hold it
    /// in read mode (and query the object directly, client-side); every
    /// `&mut` access — the main loop applying a batch, a client-executed
    /// query under an exclusive reservation — holds it in write mode.  With
    /// no read reservation ever taken, the gate costs the write paths one
    /// uncontended CAS and one release RMW per batch, and no lock.  `Arc`
    /// so scan-time deadlock probes can outlive a borrow of the core.
    pub(crate) gate: Arc<ReadGate>,
    /// Deadlock-tracking identities of the clients currently holding read
    /// reservations on this handler, so a writer blocked behind readers can
    /// register one `WriterWait` edge per concrete reader.  Maintained only
    /// while tracking is on.
    pub(crate) read_holders: Arc<SpinLock<Vec<ParticipantId>>>,
}

// SAFETY: access to `object` is serialised by the execution model (handler
// executes requests sequentially; a client touches the object only while the
// handler is parked on that client's private queue).  All other fields are
// thread-safe primitives.
unsafe impl<T: Send> Send for HandlerCore<T> {}
unsafe impl<T: Send> Sync for HandlerCore<T> {}

impl<T: Send + 'static> HandlerCore<T> {
    pub(crate) fn new(
        id: HandlerId,
        config: RuntimeConfig,
        stats: Arc<RuntimeStats>,
        object: T,
        deadlock: Option<Tracking>,
        task: TaskHandle,
    ) -> Arc<Self> {
        let guards = Arc::new(crate::guard::GuardRegistry::new(Arc::clone(&stats)));
        let wake_hook = wake_hook(task.clone(), Arc::clone(&stats));
        let request_queue = MutexQueue::with_capacity(config.mailbox_capacity);
        request_queue.set_wake_hook(Arc::clone(&wake_hook));
        Arc::new(HandlerCore {
            id,
            config,
            stats,
            object: UnsafeCell::new(ManuallyDrop::new(object)),
            object_taken: AtomicBool::new(false),
            qoq: QueueOfQueues::new(),
            reservation_lock: SpinLock::new(()),
            request_queue,
            client_lock: parking_lot::Mutex::new(()),
            lock_holder: std::sync::atomic::AtomicU64::new(0),
            stopped: AtomicBool::new(false),
            finished: Event::new(),
            final_value: SpinLock::new(None),
            wake_hook,
            task,
            deadlock,
            guards,
            gate: Arc::new(ReadGate::new()),
            read_holders: Arc::new(SpinLock::new(Vec::new())),
        })
    }

    /// The client driver (see the module docs): a client that is about to
    /// wait for this handler, or is closing a block the handler has nothing
    /// left of, steps it here when the pool has it idle, applying at most
    /// `budget` requests (with none, only sync tokens; see `apply_batch`).
    /// Otherwise — busy or already scheduled — the task is notified as for
    /// any push.  Returns whether this thread stepped the handler and
    /// handed it on to nobody.
    pub(crate) fn run_here(&self, budget: usize) -> bool {
        let ran = self.task.run_here(budget);
        count_wake(&self.stats, ran.wake);
        ran.stepped && ran.wake == Wake::Covered
    }

    /// [`run_here`](Self::run_here) only when the handler is idle: returns
    /// `false`, and notifies nobody, when another party has it running or
    /// scheduled.
    pub(crate) fn try_run_here(&self, budget: usize) -> bool {
        let Some(wake) = self.task.try_run_here(budget) else {
            return false;
        };
        count_wake(&self.stats, wake);
        true
    }

    /// Gets the handler through `sync`, a `Sync` this client pushed without
    /// a wake and is about to wait on (see the module docs): the client
    /// steps an idle handler with one drain batch as budget, and retries
    /// that claim for one backoff window while another party has the
    /// handler.  If the sync is still pending then, the client parks as the
    /// handler's driver: a wake that finds the handler idle hands it to
    /// this thread, which steps it with the same budget, instead of to the
    /// pool.  Returns once `sync` has settled.
    pub(crate) fn drive_sync(&self, sync: &Handoff<()>) {
        let budget = self.config.max_batch.max(1);
        let settled = || sync.is_ready() || sync.is_abandoned();
        let backoff = Backoff::new();
        // Every exit but a completed sync has claimed or notified the
        // handler, as a push with a wake would have.
        while !settled() && !self.try_run_here(budget) {
            if backoff.is_completed() {
                self.run_here(budget);
                break;
            }
            backoff.snooze();
        }
        if settled() {
            return;
        }
        let mut driver = self.task.park_driver();
        // A wake between the last step and the registration went to the
        // pool; one that finds the handler idle from here on comes to this
        // thread.  Re-check the sync, and claim an idle handler once more,
        // before parking.
        if !settled() {
            self.try_run_here(budget);
        }
        loop {
            if sync.wait_settled_or(|| driver.is_handed()) {
                // A wake that raced the sync's completion is passed on:
                // what follows this client's sync is not ours to run.
                count_wake(&self.stats, driver.leave());
                return;
            }
            count_wake(&self.stats, driver.drive(budget));
            // A wake between the step's release and the repark went to
            // the pool or another driver; none is lost.
            if !settled() {
                driver.repark();
            }
        }
    }

    /// Whether the next wake hands this handler to a parked driver.
    pub(crate) fn has_parked_driver(&self) -> bool {
        self.task.driver_waiting()
    }

    /// Pointer to the handler-owned object.
    ///
    /// # Safety
    ///
    /// The caller must guarantee that the handler thread is not concurrently
    /// executing a request for the duration of the access.  The runtime
    /// establishes this for client-side queries by first performing a sync:
    /// after the sync completes the handler is parked on the caller's own
    /// private queue (or, on the lock-based path, on the empty shared request
    /// queue while the caller holds the handler lock).
    ///
    /// The `&self -> &mut T` shape is the point of the execution model: the
    /// `UnsafeCell` is the single place where the model's "exactly one thread
    /// touches the object at a time" argument is cashed in.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn object_mut(&self) -> &mut T {
        &mut (*self.object.get())
    }

    /// Shared reference to the handler-owned object.
    ///
    /// # Safety
    ///
    /// The caller must guarantee no `&mut` access runs for the duration of
    /// the borrow.  The runtime establishes this for shared-read
    /// reservations by holding the [`gate`](Self::gate) in read mode: every
    /// `&mut` site takes the gate in write mode first.
    pub(crate) unsafe fn object_ref(&self) -> &T {
        &(*self.object.get())
    }

    /// Registers `client` as a live read holder (deadlock tracking only).
    pub(crate) fn register_read_holder(&self, client: ParticipantId) {
        self.read_holders.lock().push(client);
    }

    /// Removes one registration of `client` from the read-holder set.
    pub(crate) fn deregister_read_holder(&self, client: ParticipantId) {
        let mut holders = self.read_holders.lock();
        if let Some(index) = holders.iter().position(|&holder| holder == client) {
            holders.swap_remove(index);
        }
    }

    /// One `WriterWait` edge per current read holder: "`waiter` (this
    /// handler applying a batch, or a client about to execute a query under
    /// its exclusive reservation) is blocked behind that concrete reader".
    /// Sound as a one-time snapshot: the writer has announced itself, so
    /// writer preference refuses new readers and the blocking set can only
    /// shrink — an edge whose reader has since left is vetoed by its probe.
    pub(crate) fn writer_wait_edges(&self, waiter: Option<ParticipantId>) -> Vec<EdgeGuard> {
        let Some(tracking) = self.deadlock.as_ref() else {
            return Vec::new();
        };
        let waiter = waiter.unwrap_or(tracking.participant);
        let holders = self.read_holders.lock().clone();
        holders
            .into_iter()
            .map(|holder| {
                let gate = Arc::clone(&self.gate);
                let read_holders = Arc::clone(&self.read_holders);
                let probe: qs_deadlock::ProbeFn =
                    Arc::new(move || gate.readers() > 0 && read_holders.lock().contains(&holder));
                tracking
                    .registry
                    .register(waiter, holder, EdgeKind::WriterWait, None, Some(probe))
            })
            .collect()
    }

    /// Takes the object's gate in write mode, blocking the calling thread
    /// behind any active readers.  Used by client-executed queries (`waiter`
    /// names the client); the handler's own step never blocks — it stashes
    /// its batch and goes idle instead (see
    /// [`apply_batch`](Self::apply_batch)).
    pub(crate) fn write_gate_blocking(&self, waiter: Option<ParticipantId>) {
        if self.gate.try_write() {
            return;
        }
        RuntimeStats::bump(&self.stats.writer_waits);
        // Announced before the edges are taken, so the reader set they
        // snapshot can only shrink while this writer waits.
        self.gate.announce_writer();
        let _edges = self.writer_wait_edges(waiter);
        self.gate.write();
        self.gate.retract_writer();
    }

    /// Applies one request to the object.  Returns `false` when the request
    /// signals the end of the current private queue.
    pub(crate) fn apply(&self, request: Request<T>) -> bool {
        match request {
            Request::Call(f) | Request::Query(f) => {
                RuntimeStats::bump(&self.stats.requests_executed);
                // Deadlock tracking: any wait the closure performs (a nested
                // separate block's query or blocked bounded push) is
                // attributed to *this handler*, not to the anonymous worker
                // thread executing it.
                let _scope = self.deadlock.as_ref().map(HandlerScope::enter);
                // SAFETY: only the handler thread calls `apply`, and clients
                // only access the object while the handler is parked.
                let object = unsafe { self.object_mut() };
                if catch_unwind(AssertUnwindSafe(|| f(object))).is_err() {
                    RuntimeStats::bump(&self.stats.call_panics);
                }
                true
            }
            Request::Sync(token) => {
                token.complete(());
                true
            }
            Request::End => false,
        }
    }

    /// Marks the handler as stopping and drives it to its exit.  The
    /// stopping thread steps an idle handler itself, with no budget: a
    /// handler with nothing queued retires here without the pool, and the
    /// first call or query still queued goes to the pool, as at an END.
    pub(crate) fn stop(&self) {
        if !self.stopped.swap(true, Ordering::AcqRel) {
            self.qoq.close();
            self.request_queue.close_without_wake();
            self.run_here(0);
            // Guard waiters parked on a dying handler must not strand: wake
            // them so their next evaluation observes the shutdown.
            self.guards.signal_all();
        }
    }

    /// Returns `true` once [`stop`](Self::stop) has been called.
    pub(crate) fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::Acquire)
    }

    /// Terminal transition: moves the object out so `shutdown_and_take` can
    /// return it and signals completion.
    pub(crate) fn finish(self: &Arc<Self>) {
        qs_obs::trace(qs_obs::TraceKind::HandlerRetire, self.id, 0);
        if !self.object_taken.swap(true, Ordering::AcqRel) {
            // SAFETY: the handler stepped to `Done` (no driver steps a done
            // task again), no request will ever touch the object again, and
            // the `object_taken` flag guarantees a single take.
            let value = unsafe { ManuallyDrop::take(&mut *self.object.get()) };
            *self.final_value.lock() = Some(value);
        }
        self.finished.set();
    }

    /// The wait-for edge "this handler is parked on `client`'s open private
    /// queue": it cannot serve anyone else until that client logs more
    /// requests or ends its block.  `None` when tracking is off (or the
    /// queue predates it).  Registered only around the *parked-on-empty*
    /// states — a full or draining queue is progress, not a wait, and
    /// registering it would manufacture phantom cycles out of ordinary
    /// backpressure.
    fn serving_edge(&self, queue: &ClientMailbox<T>) -> Option<EdgeGuard> {
        let tracking = self.deadlock.as_ref()?;
        Some(tracking.registry.register(
            tracking.participant,
            queue.client?,
            EdgeKind::Serving,
            None,
            queue.serving_probe.clone(),
        ))
    }

    /// Fig. 7: one step of the queue-of-queues main loop, batch-drained.
    ///
    /// Instead of paying one queue crossing per request, the handler pulls up
    /// to [`RuntimeConfig::max_batch`] requests from the current private
    /// queue at a time and applies them back to back.  Within a batch the
    /// semantics are unchanged: requests were drained in FIFO order, and a
    /// `Sync` request is always the last of its batch, because the client
    /// blocks on the sync handoff before it can log anything further.
    ///
    /// The dequeues are polls, and the loop position (which private queue is
    /// being drained) lives in `state` across steps.  Care point (§3.2): when
    /// the current private queue is empty but open — which is exactly the
    /// situation after completing a sync for a client that may now be
    /// executing a query on the object — the step returns
    /// [`StepOutcome::Idle`] *without advancing past that queue* and without
    /// touching the object, so the handler is parked from the client's point
    /// of view and being stepped again by an unrelated producer's wake is
    /// harmless.
    fn step_queue_of_queues(&self, state: &mut PooledLoopState<T>) -> StepOutcome {
        let max_batch = self.config.max_batch.max(1);
        if let Some(outcome) = self.resume_pending_batch(state) {
            return outcome;
        }
        let spin = Backoff::new();
        loop {
            let Some(current) = state.current.as_ref() else {
                // RUN rule, polled: take the next private queue if one is
                // ready.
                match self.qoq.try_dequeue() {
                    Ok(Some(private_queue)) => {
                        state.current = Some(private_queue);
                        state.stalls_seen = 0;
                        continue;
                    }
                    Ok(None) => return StepOutcome::Idle,
                    Err(Closed) => return StepOutcome::Done,
                }
            };
            // Sampled before the drain: a ring at its watermark right now is
            // about to be emptied by it.
            let pressured = current.consumer.is_pressured();
            match current
                .consumer
                .try_drain_batch(&mut state.batch, max_batch)
            {
                // END rule: the client closed its mailbox; move on (on this
                // path the end of a block is the mailbox close —
                // `Request::End` never enters a private queue).  The
                // finished block may have changed state a parked
                // `reserve().when` condition depends on — signal the pending
                // guards (probe blocks stay silent).
                Err(Closed) => {
                    state.serving = None;
                    if let Some(closed) = state.current.take() {
                        if closed.signal_on_close {
                            self.guards.signal_all();
                        }
                    }
                }
                // Mid-block and momentarily empty: the handler is "parked on
                // the client's queue" from the client's point of view.
                // When this mailbox's producer has blocked for space since
                // the last idle transition (a backpressured pipeline, likely
                // refilling the ring right now), spin-repoll briefly before
                // conceding Idle — without it every ring refill costs a full
                // wake round-trip through the driver.  The spin only
                // re-polls this same queue, so the §3.2 guarantee is
                // untouched; the stalls-recency gate keeps long-quiet queues
                // from paying the backoff ladder on every idle transition.
                Ok(0) => {
                    let stalls = current.consumer.total_stalls();
                    if stalls > state.stalls_seen && !spin.is_completed() {
                        spin.snooze();
                        continue;
                    }
                    state.stalls_seen = stalls;
                    // Going idle on an open private queue: register the
                    // Serving wait-for edge (once; it persists across
                    // re-polls of the same empty queue) so the deadlock
                    // detector can walk through this handler.
                    if state.serving.is_none() {
                        state.serving = self.serving_edge(current);
                    }
                    return StepOutcome::Idle;
                }
                Ok(drained) => {
                    state.serving = None;
                    spin.reset();
                    if let Some(outcome) = self.apply_batch(state, drained, pressured) {
                        return outcome;
                    }
                }
            }
        }
    }

    /// One step of the pre-Qs lock-based loop: poll-drain the single shared
    /// request queue, one lock acquisition per batch.  The §3.2 argument
    /// holds here too: a client-executed query runs while the caller holds
    /// the handler lock and the request queue is empty, and an empty poll
    /// touches only the queue, never the object.
    fn step_lock_based(&self, state: &mut PooledLoopState<T>) -> StepOutcome {
        let max_batch = self.config.max_batch.max(1);
        if let Some(outcome) = self.resume_pending_batch(state) {
            return outcome;
        }
        let spin = Backoff::new();
        loop {
            let pressured = self.request_queue.is_pressured();
            match self
                .request_queue
                .try_drain_batch(&mut state.batch, max_batch)
            {
                Err(qs_queues::Closed) => return StepOutcome::Done,
                // See `step_queue_of_queues`: briefly spin-repoll instead of
                // paying a wake round-trip per ring refill of a
                // backpressured producer — but only when a stall happened
                // since the last idle transition (the request queue lives as
                // long as the handler, so the raw lifetime counter would buy
                // a backoff ladder per idle forever after one stall).
                Ok(0) => {
                    let stalls = self.request_queue.total_stalls();
                    if stalls > state.stalls_seen && !spin.is_completed() {
                        spin.snooze();
                        continue;
                    }
                    state.stalls_seen = stalls;
                    return StepOutcome::Idle;
                }
                Ok(drained) => {
                    spin.reset();
                    if let Some(outcome) = self.apply_batch(state, drained, pressured) {
                        return outcome;
                    }
                }
            }
        }
    }

    /// Re-attempts a batch that an earlier step drained but could not apply
    /// because readers held the object's gate.  `None` means there is no
    /// pending batch (or it was applied and the step may continue); `Some`
    /// is the outcome the step must return.
    fn resume_pending_batch(&self, state: &mut PooledLoopState<T>) -> Option<StepOutcome> {
        let (drained, pressured) = state.pending?;
        self.apply_batch(state, drained, pressured)
    }

    /// Applies one drained batch and charges it against the persisted yield
    /// budget — the single copy of the record/apply/budget sequence shared
    /// by [`step_queue_of_queues`](Self::step_queue_of_queues) and
    /// [`step_lock_based`](Self::step_lock_based), so the budget logic
    /// cannot drift between the two loop flavours.  Returns the outcome the
    /// step must end with, or `None` when it may go on polling.
    ///
    /// `pressured` is the source queue's occupancy at drain time: while a
    /// bounded mailbox reports pressure the remaining budget shrinks to one
    /// batch, so the handler yields after every batch and backpressured
    /// pipelines interleave finely (the blocked producer's pressure wake
    /// re-schedules the handler through the priority lane).
    ///
    /// The batch runs under the object's gate in write mode.  A step must
    /// never block its driver, so when readers hold the gate the batch is
    /// *stashed* (`state.pending`; the requests stay in `state.batch`) and
    /// the step goes [`StepOutcome::Idle`] with a writer announced
    /// (refusing new readers) and a [`WakeReason::Writable`] hook enlisted,
    /// so the last reader out re-arms the handler (through the pooled
    /// scheduler's priority lane).  Once applied, a spent budget is
    /// [`StepOutcome::Yielded`].
    ///
    /// A step with no budget at all (a client's END step) runs no client
    /// code: it applies a batch of sync tokens, which only wake their
    /// clients, and stashes any batch with a call or query the same way,
    /// yielding it to the pool.
    fn apply_batch(
        &self,
        state: &mut PooledLoopState<T>,
        drained: usize,
        pressured: bool,
    ) -> Option<StepOutcome> {
        let syncs_only = state.budget == 0;
        if syncs_only
            && state
                .batch
                .iter()
                .any(|request| !matches!(request, Request::Sync(_)))
        {
            state.pending = Some((drained, pressured));
            return Some(StepOutcome::Yielded);
        }
        if !self.gate.try_write() {
            if !state.write_requested {
                RuntimeStats::bump(&self.stats.writer_waits);
                self.gate.announce_writer();
                state.write_requested = true;
                state.writer_edges = self.writer_wait_edges(None);
            }
            // Lost-wake protocol: enlist the wake hook, then re-try — either
            // the retry sees the gate free, or the releasing reader sees the
            // hook.
            let hook = Arc::clone(&self.wake_hook);
            self.gate
                .enlist(GateWake::Hook(Arc::new(move || hook(WakeReason::Writable))));
            if !self.gate.try_write() {
                state.pending = Some((drained, pressured));
                return Some(StepOutcome::Idle);
            }
        }
        state.pending = None;
        if state.write_requested {
            self.gate.retract_writer();
            state.write_requested = false;
            state.writer_edges.clear();
        }
        self.stats.record_batch(drained);
        qs_obs::trace(qs_obs::TraceKind::MailboxDrain, self.id, drained as u64);
        for request in state.batch.drain(..) {
            self.apply(request);
        }
        self.gate.end_write();
        if syncs_only {
            return None;
        }
        if pressured {
            let batch_budget = self.config.max_batch.max(1);
            if state.budget > batch_budget {
                state.budget = batch_budget;
                RuntimeStats::bump(&self.stats.budget_shrinks);
            }
        }
        state.budget = state.budget.saturating_sub(drained);
        (state.budget == 0).then_some(StepOutcome::Yielded)
    }

    fn wait_finished(&self) {
        self.finished.wait();
    }

    fn take_final_value(&self) -> Option<T> {
        self.final_value.lock().take()
    }
}

impl<T> Drop for HandlerCore<T> {
    fn drop(&mut self) {
        if !*self.object_taken.get_mut() {
            // SAFETY: exclusive access during drop; the value was never taken.
            unsafe { ManuallyDrop::drop(self.object.get_mut()) };
        }
        // Release the handler's label from the wait-for registry: the core
        // is gone, so no new edge can ever name it.
        if let Some(tracking) = &self.deadlock {
            tracking.registry.forget_participant(tracking.participant);
        }
    }
}

/// Loop position of a handler, persisted across steps.
pub(crate) struct PooledLoopState<T> {
    /// The private queue currently being drained (queue-of-queues mode).
    /// While set, the handler must not advance to another client — the
    /// §3.2 "parked on the client's queue" guarantee.
    current: Option<ClientMailbox<T>>,
    /// Deadlock tracking: the registered "parked on `current`'s open
    /// queue" Serving edge, alive from the idle transition until the queue
    /// yields work or closes.
    serving: Option<EdgeGuard>,
    /// Reusable drain buffer.
    batch: Vec<Request<T>>,
    /// Remaining yield budget, carried across steps (see [`YIELD_BUDGET`]).
    budget: usize,
    /// The drain source's backpressure-stall count as of the last idle
    /// transition.  The empty-poll spin-repoll only runs while new stalls
    /// have happened since, so one historical stall does not buy a backoff
    /// ladder per idle transition for the rest of the source's life.  Reset
    /// when the QoQ loop advances to a fresh private queue (whose counter
    /// restarts at zero).
    stalls_seen: usize,
    /// A drained-but-unapplied batch (its `(drained, pressured)` accounting;
    /// the requests themselves sit in `batch`): readers held the object's
    /// gate when the step tried to apply it.  Re-attempted first at every
    /// step until the gate is won.
    pending: Option<(usize, bool)>,
    /// Whether this handler currently has a writer announced on its gate
    /// (set with `pending`; must be retracted exactly once).
    write_requested: bool,
    /// Deadlock tracking: live `WriterWait` edges, one per reader the
    /// stashed batch is blocked behind.
    writer_edges: Vec<EdgeGuard>,
}

impl<T> PooledLoopState<T> {
    /// Refills the budget once it has been fully spent.  Called at step
    /// entry: a spent budget means the previous step yielded, and the yield
    /// re-enqueued the handler at the back of the scheduler's global FIFO —
    /// every peer that was runnable has had the worker since, so a fresh
    /// budget is earned.  A budget merely *shrunk* by backpressure (nonzero
    /// remainder) is kept: the pipeline is still in its fine-interleaving
    /// regime until the pressure drains.
    fn refill_budget_if_spent(&mut self) {
        if self.budget == 0 {
            self.budget = YIELD_BUDGET;
        }
    }
}

/// The [`PooledTask`] both drivers step a handler through: the M:N
/// scheduler's workers, and a client about to wait on the handler.
pub(crate) struct PooledHandler<T: Send + 'static> {
    core: Arc<HandlerCore<T>>,
    /// Loop state; a driver runs at most one step of a task at a time, so
    /// this lock is uncontended and only fences the state against the
    /// `Send`-across-workers handoff.
    state: SpinLock<PooledLoopState<T>>,
}

impl<T: Send + 'static> PooledHandler<T> {
    pub(crate) fn new(core: Arc<HandlerCore<T>>) -> Self {
        let max_batch = core.config.max_batch.max(1);
        PooledHandler {
            core,
            state: SpinLock::new(PooledLoopState {
                current: None,
                serving: None,
                batch: Vec::with_capacity(batch_prealloc(max_batch)),
                budget: YIELD_BUDGET,
                stalls_seen: 0,
                pending: None,
                write_requested: false,
                writer_edges: Vec::new(),
            }),
        }
    }

    pub(crate) fn core(&self) -> &Arc<HandlerCore<T>> {
        &self.core
    }

    /// One step; `cap` bounds the requests it may apply (see
    /// [`PooledTask::step_here`]) without charging the pool's yield budget,
    /// which a step off the pool does not spend.
    fn step_within(&self, cap: Option<usize>) -> StepOutcome {
        let mut state = self.state.lock();
        state.refill_budget_if_spent();
        let pool_budget = state.budget;
        if let Some(cap) = cap {
            state.budget = cap;
        }
        let outcome = if self.core.config.queue_of_queues {
            self.core.step_queue_of_queues(&mut state)
        } else {
            self.core.step_lock_based(&mut state)
        };
        if cap.is_some() {
            state.budget = pool_budget;
        }
        drop(state);
        match outcome {
            StepOutcome::Done => self.core.finish(),
            StepOutcome::Yielded => RuntimeStats::bump(&self.core.stats.handler_yields),
            StepOutcome::Idle => {}
        }
        outcome
    }
}

impl<T: Send + 'static> Drop for PooledHandler<T> {
    fn drop(&mut self) {
        // A task can be retired without stepping to Done (a panic escaping
        // a step, scheduler teardown).  The core outlives it
        // (clients hold handles), so any requests still queued would sit
        // there forever — including sync/query completion guards whose
        // clients are parked on them.  Drain everything: dropping the
        // requests fires those guards' abandon-on-drop, waking the clients
        // into a panic instead of a permanent hang.  No step can be running
        // concurrently (a driver runs at most one step at a time, and the
        // task is unreachable now), so this is the sole consumer.
        {
            let mut state = self.state.lock();
            state.serving = None;
            state.current = None; // consumer drop drains the open queue
                                  // A writer announced for a stashed batch must be withdrawn, or
                                  // the dead handler's gate would refuse readers forever.
            if state.write_requested {
                self.core.gate.retract_writer();
                state.write_requested = false;
            }
            state.writer_edges.clear();
            state.pending = None;
            state.batch.clear();
        }
        while let Ok(Some(request)) = self.core.request_queue.try_dequeue() {
            drop(request);
        }
        while let Ok(Some(queue)) = self.core.qoq.try_dequeue() {
            drop(queue);
        }
        // Any guard waiter parked on this handler will never receive another
        // handler-side signal; wake them so they observe the teardown.
        self.core.guards.signal_all();
    }
}

impl<T: Send + 'static> PooledTask for PooledHandler<T> {
    fn step(&self) -> StepOutcome {
        self.step_within(None)
    }

    /// A client's step applies at most `budget` requests, then yields the
    /// handler to the pool.
    fn step_here(&self, budget: usize) -> StepOutcome {
        self.step_within(Some(budget))
    }
}

/// Closes the handler's queues when the last client-side handle goes away.
struct ShutdownOnLastHandle<T: Send + 'static> {
    core: Arc<HandlerCore<T>>,
}

impl<T: Send + 'static> Drop for ShutdownOnLastHandle<T> {
    fn drop(&mut self) {
        self.core.stop();
    }
}

/// A client-side handle to a handler owning a value of type `T`.
///
/// Handles are cheap to clone and may be shared freely between threads; the
/// handler shuts down (after draining already-logged work) when the last
/// handle is dropped, or earlier if [`Handler::stop`] is called.
pub struct Handler<T: Send + 'static> {
    core: Arc<HandlerCore<T>>,
    shutdown: Arc<ShutdownOnLastHandle<T>>,
}

impl<T: Send + 'static> Clone for Handler<T> {
    fn clone(&self) -> Self {
        Handler {
            core: Arc::clone(&self.core),
            shutdown: Arc::clone(&self.shutdown),
        }
    }
}

impl<T: Send + 'static> Handler<T> {
    pub(crate) fn from_core(core: Arc<HandlerCore<T>>) -> Self {
        let shutdown = Arc::new(ShutdownOnLastHandle {
            core: Arc::clone(&core),
        });
        Handler { core, shutdown }
    }

    pub(crate) fn core(&self) -> &Arc<HandlerCore<T>> {
        &self.core
    }

    /// The unique identifier of this handler.
    pub fn id(&self) -> HandlerId {
        self.core.id
    }

    /// The configuration the handler was spawned with.
    pub fn config(&self) -> RuntimeConfig {
        self.core.config
    }

    /// Enters a separate block reserving this handler, runs `body` with the
    /// reservation guard, and releases the reservation afterwards.
    ///
    /// This corresponds to `separate x do <body> end` in SCOOP and to the
    /// compiled sequence of Fig. 8: obtain a private queue, enqueue it on the
    /// handler's queue-of-queues, log requests, enqueue the END marker.
    pub fn separate<R>(&self, body: impl FnOnce(&mut Separate<'_, T>) -> R) -> R {
        let mut guard = Separate::begin_single(&self.core);
        let result = body(&mut guard);
        guard.end();
        result
    }

    /// Logs a single asynchronous call without keeping the reservation open.
    ///
    /// Equivalent to `self.separate(|s| s.call(f))`, provided for
    /// convenience in fire-and-forget situations.
    pub fn call_detached(&self, f: impl FnOnce(&mut T) + Send + 'static) {
        self.separate(|s| s.call(f));
    }

    /// Performs a single synchronous query in its own separate block.
    pub fn query_detached<R: Send + 'static>(
        &self,
        f: impl FnOnce(&mut T) -> R + Send + 'static,
    ) -> R {
        self.separate(|s| s.query(f))
    }

    /// Requests the handler to stop after draining already-logged work.
    pub fn stop(&self) {
        self.core.stop();
    }

    /// Returns `true` once the handler has been asked to stop.
    pub fn is_stopped(&self) -> bool {
        self.core.is_stopped()
    }

    /// Blocks until the handler thread has exited.
    ///
    /// The handler exits once it has been stopped (explicitly or by dropping
    /// the last handle) and has drained all logged work.
    pub fn wait_finished(&self) {
        self.core.wait_finished();
    }

    /// Stops the handler, waits for it to drain, and returns the owned
    /// object.
    ///
    /// Returns `None` if another handle already retrieved the value.
    pub fn shutdown_and_take(self) -> Option<T> {
        self.core.stop();
        self.core.wait_finished();
        self.core.take_final_value()
    }

    /// The runtime statistics block shared by this handler.
    pub fn stats(&self) -> &Arc<RuntimeStats> {
        &self.core.stats
    }

    /// Whether a client is parked in a sync on this handler as its driver
    /// while the handler is idle: the next wake hands the handler to that
    /// client (counted in [`RuntimeStats::driver_wakes`]) instead of the
    /// pool.
    pub fn has_parked_driver(&self) -> bool {
        self.core.has_parked_driver()
    }
}

impl<T: Send + 'static> std::fmt::Debug for Handler<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Handler")
            .field("id", &self.core.id)
            .field("stopped", &self.core.is_stopped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptimizationLevel;
    use crate::runtime::Runtime;

    /// A handler on its own runtime, returned alongside it: the runtime
    /// owns the scheduler, so it must outlive the test's blocks.
    fn spawn<T: Send + 'static>(config: RuntimeConfig, object: T) -> (Runtime, Handler<T>) {
        let rt = Runtime::new(config);
        let handler = rt.spawn_handler(object);
        (rt, handler)
    }

    #[test]
    fn calls_and_queries_apply_in_order_qoq() {
        let (_rt, handler) = spawn(RuntimeConfig::all_optimizations(), Vec::<u32>::new());
        handler.separate(|s| {
            for i in 0..100 {
                s.call(move |v| v.push(i));
            }
            let len = s.query(|v| v.len());
            assert_eq!(len, 100);
        });
        let v = handler.shutdown_and_take().unwrap();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn calls_and_queries_apply_in_order_lock_based() {
        let (_rt, handler) = spawn(OptimizationLevel::None.config(), Vec::<u32>::new());
        handler.separate(|s| {
            for i in 0..100 {
                s.call(move |v| v.push(i));
            }
            assert_eq!(s.query(|v| v.len()), 100);
        });
        let v = handler.shutdown_and_take().unwrap();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn gigantic_max_batch_does_not_panic_the_handler() {
        // "Drain everything" expressed as usize::MAX must not blow up the
        // batch buffer pre-allocation on either loop flavour.
        for level in [OptimizationLevel::All, OptimizationLevel::None] {
            let config = level.config().with_max_batch(usize::MAX);
            let (_rt, handler) = spawn(config, 0u64);
            handler.separate(|s| {
                for _ in 0..100 {
                    s.call(|n| *n += 1);
                }
                assert_eq!(s.query(|n| *n), 100);
            });
            assert_eq!(handler.shutdown_and_take(), Some(100));
        }
    }

    #[test]
    fn detached_helpers_work() {
        let (_rt, handler) = spawn(RuntimeConfig::all_optimizations(), 0u64);
        handler.call_detached(|n| *n += 5);
        assert_eq!(handler.query_detached(|n| *n), 5);
        handler.stop();
        handler.wait_finished();
    }

    #[test]
    fn dropping_last_handle_stops_handler() {
        let (_rt, handler) = spawn(RuntimeConfig::all_optimizations(), 1u8);
        let clone = handler.clone();
        let core = Arc::clone(handler.core());
        drop(handler);
        assert!(!core.is_stopped(), "clone still alive");
        drop(clone);
        assert!(core.is_stopped());
        core.wait_finished();
    }

    #[test]
    fn shutdown_and_take_returns_object_once() {
        let (_rt, handler) = spawn(RuntimeConfig::all_optimizations(), String::from("state"));
        let other = handler.clone();
        assert_eq!(handler.shutdown_and_take().as_deref(), Some("state"));
        assert_eq!(other.shutdown_and_take(), None);
    }

    #[test]
    fn panicking_call_does_not_kill_handler() {
        let (_rt, handler) = spawn(RuntimeConfig::all_optimizations(), 0i32);
        handler.separate(|s| {
            s.call(|_| panic!("bad call"));
            s.call(|n| *n = 3);
            assert_eq!(s.query(|n| *n), 3);
        });
        assert_eq!(handler.stats().snapshot().call_panics, 1);
        handler.stop();
    }

    #[test]
    fn debug_output_mentions_id() {
        let (_rt, handler) = spawn(RuntimeConfig::all_optimizations(), ());
        assert!(format!("{handler:?}").contains("id"));
        handler.stop();
    }
}
