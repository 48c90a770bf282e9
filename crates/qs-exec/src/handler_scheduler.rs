//! M:N scheduling of handlers: many resumable tasks on a small
//! work-stealing worker pool.
//!
//! The paper keeps handler creation cheap with user-level threads (§3).  A
//! thread per handler would cap the number of *live* handlers at the number
//! of OS threads the machine tolerates, because an idle handler would block
//! its thread waiting for work.  This module has no such cap: a handler is
//! a [`PooledTask`] whose
//! [`step`](PooledTask::step) *returns* when its queues are empty, and the
//! [`HandlerScheduler`] re-arms it when a producer signals new work through
//! the task's [`TaskHandle`].  Fifty thousand mostly-idle handlers then cost
//! fifty thousand small task structs, not fifty thousand OS threads.
//!
//! # The schedule-flag protocol
//!
//! Each task carries one atomic flag with five states — `Idle`, `Scheduled`,
//! `Running`, `Notified` (running with a wake pending) and `Done` — which
//! guarantees the two properties an M:N handler loop needs:
//!
//! * **a task is never enqueued twice**: only the `Idle → Scheduled` and
//!   `Running → Idle`-failed transitions enqueue (or hand the task to a
//!   parked driver, see below), and both are CAS-guarded;
//! * **a wake is never lost**: a notify that finds the task `Running` moves
//!   it to `Notified`, and the worker's `Running → Idle` CAS then fails and
//!   reschedules instead of parking, so work enqueued *while* the task was
//!   deciding to go idle is always seen.
//!
//! Producers therefore do not need to detect empty→nonempty transitions;
//! they notify on every enqueue and the flag collapses the duplicates.
//! Nor do they owe the protocol any ordering beyond publishing before they
//! notify: `notify` and the step entry carry the sequentially consistent
//! fences that make "a notify that saw `Scheduled` is covered by the run it
//! saw scheduled" true.
//!
//! The fences come in one pair.  [`TaskHandle::notify`] fences between the
//! producer's publication and its *load* of the flag; whoever steps the
//! task fences between its `Running` store (or `Idle → Running` CAS) and
//! the step's first queue poll.  Of any producer and step that race, either
//! the producer's load sees `Running` (and moves it to `Notified`, so the
//! step's release fails and the task runs again) or the step's polls see
//! the publication.
//!
//! # Parties outside the pool
//!
//! A party that is not a worker — a client about to block on work it just
//! published ([`TaskHandle::run_here`]), or any notifier once the pool has
//! shut down — may step a task on its own thread, through the same flag.
//! Such a party may claim the task only by the CAS `Idle → Running`: an
//! `Idle` task sits in no run queue, so the claim makes the caller its only
//! stepper.  A `Scheduled` task already sits in a run queue, and claiming it
//! would have it stepped twice at once; a `Running`/`Notified` one has a
//! stepper.  On any of those [`TaskHandle::run_here`] falls back to an
//! ordinary notify, while [`TaskHandle::try_run_here`] leaves the flag
//! alone, so a party that expects the current stepper to finish soon can
//! retry the claim a few times before it notifies.
//!
//! After its step the party releases the task by the worker's own
//! `Running → Idle` CAS.  When that CAS fails because a notify came in
//! during the step, the party steps the task again on its own thread, with
//! the same budget, a bounded number of times: the notifier is usually
//! another client whose work waits behind the block the party still holds
//! open, and one more poll settles it for less than a worker's wake.  A
//! step that is still notified after that, or ends out of budget, is handed
//! on as a notify hands on an idle task (below).  The party also bounds the
//! step ([`PooledTask::step_here`]'s `budget`): it runs others' work only
//! when its own wait depends on that work anyway, and a party that
//! published no work of its own runs none.  The pool's threads start with
//! the first task queued, so a pool whose tasks are only ever stepped by
//! such parties runs none.
//!
//! A party that is about to *park* until the task has processed its work
//! may register as the task's **parked driver**
//! ([`TaskHandle::park_driver`]): one atomic word in the task's state
//! holds it, the latest to register (an evicted driver is put back when
//! the one that evicted it leaves).  A notify that takes the task
//! `Idle → Scheduled` and finds a driver in the slot takes it out, hands
//! the task to it and unparks it ([`Wake::Driver`]); with the slot empty
//! the task goes to the pool ([`Wake::Pool`]).  Either way every
//! `Scheduled` task has exactly one owner — a run queue of the pool, or
//! one driver — and only that owner may step it: the driver stores
//! `Running`, issues the `Running` fence and steps as a claiming party
//! does ([`ParkedDriver::drive`]).  A driver that no longer needs the task
//! when it was handed it (its wait ended meanwhile) passes it on as a
//! notify would — to the driver it evicted, or to the pool — and never
//! drops it ([`ParkedDriver::leave`]).  No party ever claims a `Scheduled`
//! task.
//!
//! # The pressure lane
//!
//! Wakes come in two flavours: plain [`TaskHandle::notify`] and
//! [`TaskHandle::notify_pressure`], fired by producers that crossed a
//! bounded queue's half-full watermark or blocked on a full one.
//! Pressure-woken tasks enter a dedicated FIFO consulted before the
//! injector, the deques and every worker's LIFO slot, so the consumer of a
//! backpressured pipeline runs promptly instead of queueing behind
//! burst-mode peers — the scheduling half of keeping the fine
//! producer/consumer interleaving a thread per consumer would get from the
//! OS futex.
//! Budget-exhausted (`Yielded`) tasks re-enter through the global FIFO
//! rather than the owner's LIFO deque, so one hot handler cannot starve its
//! deque peers between shared polls.
//!
//! # Blocking edges and compensation
//!
//! A handler step may block: a request closure can enter a nested separate
//! block, wait on a query, or stall on bounded-mailbox backpressure.  A
//! blocked step pins its worker, and with every worker pinned the pool would
//! deadlock even though runnable tasks are queued.  The scheduler
//! compensates instead of requiring annotations: a monitor thread watches
//! for "runnable tasks, no sleeping worker, and every core worker pinned
//! inside its current step for at least `STALL_THRESHOLD` (100ms)" and
//! spawns an
//! extra worker (up to [`MAX_EXTRA_WORKERS`]), which retires once the queue
//! calms down.  This is the detect-and-spawn strategy of classic M:N
//! runtimes, traded for the simplicity of not distinguishing blocking from
//! non-blocking handler bodies.
//!
//! "Pinned for a long time" alone is not proof of blocking: on an
//! oversubscribed box a CPU-bound step can be preempted past the threshold,
//! and spawning more threads there only worsens the oversubscription.  The
//! monitor therefore samples each pinned worker's *thread CPU time* from
//! `/proc/self/task/<tid>/stat` and compensates only when at least one
//! pinned worker is genuinely off-CPU (futex-parked on a blocking edge).
//! Where procfs is unavailable the monitor falls back to treating every
//! long-pinned step as blocked.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::{JoinHandle, Thread};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use qs_queues::MutexQueue;
use qs_sync::Backoff;

use crate::deque::{steal_deque, Stealer, Worker};

/// What a [`PooledTask::step`] reports back to its scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// Out of immediately available work; the task parks until the next
    /// [`TaskHandle::notify`].
    Idle,
    /// The yield budget ran out with work still pending; reschedule so other
    /// tasks get the worker (fairness).
    Yielded,
    /// The task terminated; it is never scheduled again and further notifies
    /// are no-ops.
    Done,
}

/// A resumable task multiplexed onto the scheduler's workers.
///
/// `step` must *poll*, never block on "queue empty": when it finds no
/// immediately available work it returns [`StepOutcome::Idle`] and relies on
/// a producer calling [`TaskHandle::notify`] after enqueuing.  The scheduler
/// runs at most one `step` of a given task at a time, so implementations may
/// keep interior mutable loop state behind an uncontended lock.
pub trait PooledTask: Send + Sync + 'static {
    /// Runs until out of work, out of budget, or done.
    fn step(&self) -> StepOutcome;

    /// A step on the thread of a party outside the pool (see
    /// [`TaskHandle::run_here`]).  That party has work of its own to get
    /// back to, so a task that can bound its steps applies at most `budget`
    /// of its queued work items here and ends [`StepOutcome::Yielded`] on
    /// any it leaves: with `budget == 0` it does only the bookkeeping that
    /// runs none of them.  A task that cannot bound them ignores `budget`;
    /// by default this is [`step`](Self::step).
    fn step_here(&self, budget: usize) -> StepOutcome {
        let _ = budget;
        self.step()
    }
}

/// Where a wake sent a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// The task was idle and went to the pool's run queues (a "handler
    /// wakeup").
    Pool,
    /// The task was idle and went to the client parked as its driver (see
    /// [`TaskHandle::park_driver`]).
    Driver,
    /// The wake was already covered: the task was scheduled, running or
    /// done, and nobody new was woken.
    Covered,
}

/// What a [`TaskHandle::run_here`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RanHere {
    /// The calling thread stepped the task.
    pub stepped: bool,
    /// Where the task went: [`Wake::Pool`] when the fallback notify queued
    /// it or the step ended notified or out of budget and handed it on,
    /// [`Wake::Driver`] when the fallback notify handed it to a parked
    /// driver, [`Wake::Covered`] otherwise.
    pub wake: Wake,
}

// Schedule-flag states.
const IDLE: u8 = 0;
const SCHEDULED: u8 = 1;
const RUNNING: u8 = 2;
const NOTIFIED: u8 = 3;
const DONE: u8 = 4;

/// Upper bound on live compensation workers; far above what any reasonable
/// blocking-edge chain needs, low enough to turn a runaway into a visible
/// plateau instead of thread exhaustion.
pub const MAX_EXTRA_WORKERS: usize = 1024;

/// How often the monitor checks for a stalled pool while tasks are
/// runnable.
const MONITOR_INTERVAL: Duration = Duration::from_millis(1);

/// Monitor tick while the pool is idle (nothing queued): nothing to
/// compensate for, so the monitor mostly sleeps.
const IDLE_MONITOR_INTERVAL: Duration = Duration::from_millis(25);

/// A core worker counts as blocked once it has been inside one step this
/// long.  Long enough that ordinary steps (bounded by the caller's yield
/// budget) and OS preemption on oversubscribed boxes do not trigger
/// spurious compensation, short enough that a genuine blocking-edge
/// deadlock resolves in a fraction of a second per chain link.
const STALL_THRESHOLD: Duration = Duration::from_millis(100);

/// Pause after spawning a compensation worker, giving it time to drain the
/// queue before the monitor re-evaluates (bounds the spawn rate during one
/// long stall).
const POST_SPAWN_PAUSE: Duration = Duration::from_millis(25);

struct TaskState {
    /// Cleared when the task reaches `Done`.  Handles commonly sit inside
    /// the task's own wake plumbing (a handler core owns the hook closure
    /// owning this state, while the task owns the core), so dropping the
    /// task reference at the terminal transition is what breaks that cycle
    /// and lets a finished task's resources free while notify handles
    /// linger.
    task: Mutex<Option<Arc<dyn PooledTask>>>,
    flag: AtomicU8,
    /// Set by [`TaskHandle::notify_pressure`]; consumed (and cleared) at the
    /// next enqueue decision, routing the task through the priority lane.
    /// Kept separate from the schedule flag so a pressure wake arriving
    /// while the task is `Running`/`Scheduled` still upgrades its next
    /// enqueue.
    pressure: AtomicBool,
    /// The client parked as this task's driver, or null: one reference of
    /// an `Arc<Driver>`, put here by [`TaskHandle::park_driver`] and taken
    /// out by whoever swaps or exchanges it back to null — the waking
    /// notifier, or the driver leaving.
    driver: AtomicPtr<Driver>,
    scheduler: Weak<Shared>,
}

impl Drop for TaskState {
    fn drop(&mut self) {
        let driver = *self.driver.get_mut();
        if !driver.is_null() {
            // SAFETY: the slot owns one reference of the `Arc` it holds.
            drop(unsafe { Arc::from_raw(driver) });
        }
    }
}

impl TaskState {
    /// The task to step, if not yet done.
    fn task(&self) -> Option<Arc<dyn PooledTask>> {
        self.task.lock().clone()
    }

    /// Terminal transition: mark done and release the task reference.
    fn mark_done(&self) {
        self.flag.store(DONE, Ordering::SeqCst);
        *self.task.lock() = None;
    }
}

/// Shared handle to a registered task; producers call
/// [`notify`](TaskHandle::notify) after making work available.
pub struct TaskHandle {
    state: Arc<TaskState>,
}

impl Clone for TaskHandle {
    fn clone(&self) -> Self {
        TaskHandle {
            state: Arc::clone(&self.state),
        }
    }
}

impl TaskHandle {
    /// Wakes the task: schedules it if idle, or flags the running step to
    /// re-check its queues before parking.  An idle task goes to the client
    /// parked as its driver when there is one ([`Wake::Driver`]), to the
    /// pool otherwise ([`Wake::Pool`]); duplicates and notifies against
    /// running/done tasks wake nobody ([`Wake::Covered`]).
    pub fn notify(&self) -> Wake {
        // The caller has just published work, typically with a Release
        // store into a queue, and the fast paths below only *load* the
        // flag.  Without this fence that load may be satisfied before the
        // publication is visible (StoreLoad): the producer reads a stale
        // `Scheduled`/`Notified` and returns while the worker, already
        // `Running`, polls the queue, misses the item and goes `Idle` — a
        // lost wake.  Pairs with the fence after the `Running` store in
        // `run_task`/`run_inline` and after the claim in `run_here`: either
        // this load sees `Running`, or that step's polls see the
        // publication.
        fence(Ordering::SeqCst);
        loop {
            match self.state.flag.load(Ordering::SeqCst) {
                IDLE => {
                    if self
                        .state
                        .flag
                        .compare_exchange(IDLE, SCHEDULED, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        return schedule(Arc::clone(&self.state));
                    }
                }
                RUNNING => {
                    if self
                        .state
                        .flag
                        .compare_exchange(RUNNING, NOTIFIED, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        return Wake::Covered;
                    }
                }
                // SCHEDULED, NOTIFIED, DONE: the wake is already covered.
                _ => return Wake::Covered,
            }
        }
    }

    /// A *pressure wake*: like [`notify`](TaskHandle::notify), but the task
    /// is routed through the scheduler's priority lane — consulted before
    /// every worker's LIFO deque — so a consumer whose producer is blocked
    /// (or nearly blocked) on a bounded queue runs promptly instead of
    /// queueing behind burst-mode peers.  The runtime also routes guard
    /// wakes here: clients parked on a `reserve().when` condition resume
    /// only after this task processes the block that may satisfy it, so
    /// delaying the task delays them too.
    ///
    /// The pressure marking is sticky until the task's next enqueue: a
    /// pressure wake that finds the task `Running` or already `Scheduled`
    /// still upgrades its next trip through the queues.
    pub fn notify_pressure(&self) -> Wake {
        self.state.pressure.store(true, Ordering::SeqCst);
        self.notify()
    }

    /// The client's half of the schedule-flag protocol: called instead of
    /// [`notify`](TaskHandle::notify) by a producer that is about to block
    /// until the task has processed what it just published, or that
    /// published only bookkeeping (`budget == 0`).  When the task is `Idle`
    /// the caller claims it (`Idle → Running`) and runs one
    /// [`PooledTask::step_here`] with `budget` on its own thread — no
    /// worker wakes, and no thread but the caller's is involved — then
    /// releases it as a worker would, stepping again here first when a
    /// notify came in meanwhile (see the module docs).  In any other state
    /// this is an ordinary `notify`.
    pub fn run_here(&self, budget: usize) -> RanHere {
        match self.try_run_here(budget) {
            Some(wake) => RanHere {
                stepped: true,
                wake,
            },
            None => RanHere {
                stepped: false,
                wake: self.notify(),
            },
        }
    }

    /// [`run_here`](TaskHandle::run_here) without its fallback: steps the
    /// task on the calling thread only when it is `Idle`, and otherwise
    /// returns `None` and leaves the flag as it found it — no notify.  For a
    /// client that wants to keep trying the claim before it settles for a
    /// notify; it owes the task a `run_here` or a `notify` unless the work
    /// it waits on completes meanwhile.  `Some` says where the step handed
    /// the task on ([`Wake::Covered`]: nowhere, it released it).
    pub fn try_run_here(&self, budget: usize) -> Option<Wake> {
        self.state
            .flag
            .compare_exchange(IDLE, RUNNING, Ordering::SeqCst, Ordering::SeqCst)
            .ok()?;
        // The `Running` fence: pairs with the fence in `notify`.
        fence(Ordering::SeqCst);
        Some(step_claimed(&self.state, budget))
    }

    /// Registers the calling thread as the task's parked driver: a client
    /// about to park until the task has processed work it published.  The
    /// next notify that takes the task `Idle → Scheduled` hands the task to
    /// this thread instead of the pool and unparks it (see the module
    /// docs).  A driver already in the slot is evicted: no wake comes to it
    /// until this one leaves and puts it back.  The caller must re-check
    /// what it waits for, and may claim an idle task with
    /// [`try_run_here`](Self::try_run_here), after registering and before
    /// it parks; a wake before the registration went to the pool.
    pub fn park_driver(&self) -> ParkedDriver {
        let mut parked = ParkedDriver {
            state: Arc::clone(&self.state),
            driver: Arc::new(Driver {
                thread: std::thread::current(),
                fate: AtomicU8::new(PARKED),
            }),
            below: None,
            in_slot: false,
        };
        parked.enter_slot();
        parked
    }

    /// Whether the next notify would hand the task to a parked driver: one
    /// holds the slot, and the task is idle.
    pub fn driver_waiting(&self) -> bool {
        !self.state.driver.load(Ordering::SeqCst).is_null()
            && self.state.flag.load(Ordering::SeqCst) == IDLE
    }

    /// Returns `true` once the task reported [`StepOutcome::Done`].
    pub fn is_done(&self) -> bool {
        self.state.flag.load(Ordering::SeqCst) == DONE
    }
}

/// The record a parked driver leaves in its task's slot.
struct Driver {
    thread: Thread,
    /// `PARKED` while in the slot.  Whoever takes the record out of the
    /// slot, other than its driver, sets it: `HANDED` by a notifier (the
    /// task is `Scheduled`, and this driver is its only owner), `EVICTED`
    /// by a later driver.  A driver leaving while evicted sets `LEFT`, so
    /// its evictor does not put it back.
    fate: AtomicU8,
}

// Driver fates.
const PARKED: u8 = 0;
const HANDED: u8 = 1;
const EVICTED: u8 = 2;
const LEFT: u8 = 3;

/// A client registered as its task's parked driver
/// ([`TaskHandle::park_driver`]).  A wake that finds the task idle hands it
/// to the driver in the slot: [`is_handed`](Self::is_handed) turns true and
/// the thread is unparked.  The client then [`drive`](Self::drive)s the
/// task while what it waits for is still pending, and
/// [`repark`](Self::repark)s for the next wake; once its wait is over it
/// [`leave`](Self::leave)s, which passes a task handed over meanwhile on —
/// never drops it.  Dropping the guard leaves.
///
/// The slot holds one driver: the latest to register.  The driver it
/// evicted waits on, and is put back in the slot when the evicting driver
/// leaves, so a client whose wait ends first does not take the slot with
/// it.
pub struct ParkedDriver {
    state: Arc<TaskState>,
    driver: Arc<Driver>,
    /// The driver this one evicted, put back when this one leaves.
    below: Option<Arc<Driver>>,
    /// Whether the record may be in the slot: from registering until a
    /// wake hands the task over.
    in_slot: bool,
}

impl ParkedDriver {
    /// Whether a wake handed the task to this driver.
    pub fn is_handed(&self) -> bool {
        self.driver.fate.load(Ordering::SeqCst) == HANDED
    }

    /// Steps the task a wake handed to this driver, as
    /// [`TaskHandle::run_here`] would with `budget`, and releases it the
    /// same way.  The slot no longer holds this driver until
    /// [`repark`](Self::repark).  Returns where the step handed the task
    /// on.
    ///
    /// # Panics
    ///
    /// Panics when the task was not handed over.
    pub fn drive(&mut self, budget: usize) -> Wake {
        assert!(self.is_handed(), "drive before a wake handed the task over");
        self.in_slot = false;
        self.state.flag.store(RUNNING, Ordering::SeqCst);
        // The `Running` fence: pairs with the fence in `notify`.
        fence(Ordering::SeqCst);
        step_claimed(&self.state, budget)
    }

    /// Registers this driver again after [`drive`](Self::drive), as
    /// [`TaskHandle::park_driver`] does.
    pub fn repark(&mut self) {
        if !self.in_slot {
            self.driver.fate.store(PARKED, Ordering::SeqCst);
            self.enter_slot();
        }
    }

    /// Leaves the slot and puts back the driver this one evicted.  A task a
    /// wake handed to this driver — before the leave, or racing it — is
    /// passed on as a notify would hand it on (to the driver put back, or
    /// to the pool), so that wake is not lost.  Returns where it went.
    pub fn leave(mut self) -> Wake {
        self.leave_slot()
    }

    fn enter_slot(&mut self) {
        let raw = Arc::into_raw(Arc::clone(&self.driver)).cast_mut();
        let evicted = self.state.driver.swap(raw, Ordering::SeqCst);
        self.in_slot = true;
        if !evicted.is_null() {
            // SAFETY: the slot owned one reference; the swap moved it here.
            let evicted = unsafe { Arc::from_raw(evicted) };
            evicted.fate.store(EVICTED, Ordering::SeqCst);
            self.below = Some(evicted);
        }
    }

    fn leave_slot(&mut self) -> Wake {
        let handed = std::mem::take(&mut self.in_slot) && self.take_out();
        if let Some(below) = self.below.take() {
            self.put_back(below);
        }
        if handed {
            schedule(Arc::clone(&self.state))
        } else {
            Wake::Covered
        }
    }

    /// Takes this driver out of the slot.  Returns `true` when a notifier
    /// took it first: the task is then `Scheduled` and this driver's to
    /// pass on.
    fn take_out(&self) -> bool {
        let raw = Arc::as_ptr(&self.driver).cast_mut();
        let backoff = Backoff::new();
        loop {
            if self
                .state
                .driver
                .compare_exchange(
                    raw,
                    std::ptr::null_mut(),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok()
            {
                // SAFETY: the slot owned one reference; the exchange moved
                // it here.
                drop(unsafe { Arc::from_raw(raw) });
                return false;
            }
            match self.driver.fate.load(Ordering::SeqCst) {
                // Whoever took the record is between its exchange and its
                // fate store, or a leaving evictor is putting it back.
                PARKED => backoff.snooze(),
                HANDED => return true,
                EVICTED => {
                    if self
                        .driver
                        .fate
                        .compare_exchange(EVICTED, LEFT, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        return false;
                    }
                }
                _ => return false,
            }
        }
    }

    /// Puts `below`, the driver this one evicted, back in the slot, unless
    /// it has left or the slot holds another driver.
    fn put_back(&self, below: Arc<Driver>) {
        if below
            .fate
            .compare_exchange(EVICTED, PARKED, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return;
        }
        let raw = Arc::into_raw(Arc::clone(&below)).cast_mut();
        if self
            .state
            .driver
            .compare_exchange(
                std::ptr::null_mut(),
                raw,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_err()
        {
            // SAFETY: `raw` came from `into_raw` above and was not stored.
            drop(unsafe { Arc::from_raw(raw) });
            below.fate.store(EVICTED, Ordering::SeqCst);
        }
    }
}

impl Drop for ParkedDriver {
    fn drop(&mut self) {
        self.leave_slot();
    }
}

impl std::fmt::Debug for ParkedDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParkedDriver")
            .field("handed", &self.is_handed())
            .finish()
    }
}

/// Hands a `Scheduled` task on: to its parked driver, when one holds the
/// slot; to the pool; or — when the scheduler is gone or shut down — runs
/// it inline on the calling thread so a task with pending work can never
/// be stranded.
fn schedule(state: Arc<TaskState>) -> Wake {
    // A load first: the slot is empty on almost every wake, and an empty
    // slot needs no read-modify-write.  A driver that registers after this
    // load finds the task `Scheduled` and waits for the pool's step.
    if !state.driver.load(Ordering::SeqCst).is_null() {
        let raw = state.driver.swap(std::ptr::null_mut(), Ordering::SeqCst);
        if !raw.is_null() {
            // SAFETY: the slot owned one reference; the swap moved it here.
            let driver = unsafe { Arc::from_raw(raw) };
            let thread = driver.thread.clone();
            driver.fate.store(HANDED, Ordering::SeqCst);
            thread.unpark();
            return Wake::Driver;
        }
    }
    match live_pool(&state) {
        Some(shared) => {
            enqueue_runnable(&shared, state);
            Wake::Pool
        }
        None => {
            run_inline(&state);
            Wake::Covered
        }
    }
}

/// The task's scheduler, unless it is gone or shutting down.
fn live_pool(state: &TaskState) -> Option<Arc<Shared>> {
    state
        .scheduler
        .upgrade()
        .filter(|shared| !shared.shutdown.load(Ordering::Acquire))
}

/// Routes a `Scheduled` task into the priority lane when a pressure wake is
/// pending for it, the plain injector otherwise.  Consuming the pressure
/// flag here (the single enqueue decision point) means a pressure wake
/// arriving at any flag state upgrades exactly one subsequent enqueue.
fn enqueue_runnable(shared: &Arc<Shared>, state: Arc<TaskState>) {
    if state.pressure.swap(false, Ordering::SeqCst) {
        qs_obs::trace(qs_obs::TraceKind::SchedPressure, 0, 0);
        shared.enqueue_priority(state);
    } else {
        shared.enqueue(state);
    }
}

/// Degraded post-shutdown execution of a `Scheduled` task: the notifying
/// thread steps it itself, as a client would.
fn run_inline(state: &Arc<TaskState>) {
    state.flag.store(RUNNING, Ordering::SeqCst);
    // Pairs with the fence in `TaskHandle::notify`.
    fence(Ordering::SeqCst);
    step_claimed(state, usize::MAX);
}

/// Extra steps a party outside the pool runs, with its own budget, when its
/// step ends `Idle` but a notify came in meanwhile.  The notifier is most
/// often another client of the same handler that found this party
/// stepping, and its work usually waits behind the block this party still
/// holds open: one more poll here settles it for the cost of a step, where
/// handing the task on costs a worker's wake.  The bound keeps a task that
/// is notified on every step from holding the party.
const NOTIFIED_STEPS_HERE: usize = 4;

/// Steps a task the calling thread, a party outside the pool, holds
/// `Running` (fence already issued), then releases it: `Idle` by the
/// `Running → Idle` CAS; `Notified` by stepping again here, up to
/// [`NOTIFIED_STEPS_HERE`] times with the same budget; `Notified` beyond
/// that, or `Yielded`, on as a notify hands an idle task on — to the parked
/// driver, if one waits, or to the pool — or, with no pool left, another
/// step here, unbounded, since nobody else will take the work.  Returns
/// where the task went.
fn step_claimed(state: &Arc<TaskState>, mut budget: usize) -> Wake {
    let Some(task) = state.task() else {
        return Wake::Covered;
    };
    let mut notified_steps = NOTIFIED_STEPS_HERE;
    loop {
        let outcome =
            catch_unwind(AssertUnwindSafe(|| task.step_here(budget))).unwrap_or(StepOutcome::Done);
        match outcome {
            StepOutcome::Done => {
                state.mark_done();
                return Wake::Covered;
            }
            StepOutcome::Idle
                if state
                    .flag
                    .compare_exchange(RUNNING, IDLE, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok() =>
            {
                return Wake::Covered;
            }
            // `Notified`: the flag can leave `Running` only that way while
            // this thread holds it.  Taking it back to `Running` consumes
            // the notify, and the next step's polls cover it.
            StepOutcome::Idle if notified_steps > 0 => {
                notified_steps -= 1;
                state.flag.store(RUNNING, Ordering::SeqCst);
                fence(Ordering::SeqCst);
            }
            _ if live_pool(state).is_some() => {
                state.flag.store(SCHEDULED, Ordering::SeqCst);
                return schedule(Arc::clone(state));
            }
            _ => {
                budget = usize::MAX;
                state.flag.store(RUNNING, Ordering::SeqCst);
                fence(Ordering::SeqCst);
            }
        }
    }
}

struct Shared {
    /// External (non-worker) submissions and post-yield overflow.
    injector: MutexQueue<Arc<TaskState>>,
    /// The pressure lane: tasks whose producers are blocked (or nearly
    /// blocked) on a bounded queue.  Consulted before the injector, the
    /// deques *and* each worker's LIFO slot, so a backpressured pipeline's
    /// consumer never queues behind burst-mode peers.  Every
    /// `SHARED_POLL_INTERVAL`th acquisition inverts the order (plain
    /// sources first) so a perpetually-pressured pipeline cannot starve
    /// plain-woken tasks.
    priority: MutexQueue<Arc<TaskState>>,
    /// Lock-free occupancy count of `priority`: workers check it before
    /// touching the lane's mutex, keeping the (overwhelmingly common)
    /// pressure-free acquisition path free of the global lock.
    priority_len: AtomicUsize,
    /// Thief handles onto every core worker's deque.
    stealers: Vec<Stealer<Arc<TaskState>>>,
    /// Tasks currently sitting in the injector or a deque.
    queued: AtomicUsize,
    /// Core workers currently parked.
    sleeping: AtomicUsize,
    shutdown: AtomicBool,
    idle_lock: Mutex<()>,
    idle_cond: Condvar,
    /// Clock origin for the per-worker step timestamps.
    epoch: std::time::Instant,
    /// Per core worker: `1 + millis-since-epoch` at which its current step
    /// began, or 0 while between steps.  The monitor reads these to decide
    /// whether every worker is pinned inside a (probably blocking) step.
    step_started: Vec<AtomicU64>,
    /// Per core worker: OS thread id (0 while unknown / unsupported), used
    /// by the monitor to sample per-thread CPU time from `/proc`.
    worker_tids: Vec<AtomicU64>,
    /// Steps started (statistics).
    steps: AtomicU64,
    steals: AtomicU64,
    panics: AtomicU64,
    /// Tasks enqueued through the pressure lane (statistics).
    pressure_scheduled: AtomicU64,
    /// Compensation bookkeeping.
    extras_spawned: AtomicU64,
    extras_live: AtomicUsize,
    extra_handles: Mutex<Vec<JoinHandle<()>>>,
    live_threads: AtomicUsize,
    peak_threads: AtomicUsize,
    /// The core workers' deques until the first task is queued, when
    /// [`start_threads`](Self::start_threads) spawns the core workers and
    /// the monitor; `None` from then on, and from shutdown.  A pool whose
    /// tasks are only ever stepped by clients starts no thread.
    unstarted: Mutex<Option<Vec<Worker<Arc<TaskState>>>>>,
    started: AtomicBool,
    /// The core workers' and the monitor's threads, once started.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn enqueue(self: &Arc<Self>, state: Arc<TaskState>) {
        self.queued.fetch_add(1, Ordering::SeqCst);
        self.injector.enqueue(state);
        if self.injector.is_closed() {
            // Shutdown finished behind our back; no worker will ever look at
            // the injector again.  Drain it here so the task still runs.
            self.drain_injector_inline();
        } else {
            self.start_threads();
            self.wake_one();
        }
    }

    /// Spawns the core workers and the monitor, once.  Their handles are
    /// recorded before the `unstarted` lock is released, so a shutdown —
    /// which takes that lock first — joins every thread ever started.
    fn start_threads(self: &Arc<Self>) {
        if self.started.load(Ordering::Acquire) {
            return;
        }
        let mut unstarted = self.unstarted.lock();
        let Some(deques) = unstarted.take() else {
            return;
        };
        let mut threads = self.threads.lock();
        for (index, deque) in deques.into_iter().enumerate() {
            let shared = Arc::clone(self);
            shared.note_thread_started();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("qs-hsched-worker-{index}"))
                    .spawn(move || {
                        worker_loop(index, deque, Arc::clone(&shared));
                        shared.note_thread_exited();
                    })
                    .expect("failed to spawn scheduler worker"),
            );
        }
        let shared = Arc::clone(self);
        threads.push(
            std::thread::Builder::new()
                .name("qs-hsched-monitor".to_string())
                .spawn(move || monitor_loop(shared))
                .expect("failed to spawn scheduler monitor"),
        );
        self.started.store(true, Ordering::Release);
    }

    /// Like [`enqueue`](Self::enqueue), but through the pressure lane.  The
    /// occupancy count is raised *before* the push: any taker that would
    /// find the item also sees a nonzero count (the reverse order could
    /// make a concurrent `take_priority` skip a visible task).
    fn enqueue_priority(self: &Arc<Self>, state: Arc<TaskState>) {
        self.pressure_scheduled.fetch_add(1, Ordering::Relaxed);
        self.queued.fetch_add(1, Ordering::SeqCst);
        self.priority_len.fetch_add(1, Ordering::SeqCst);
        self.priority.enqueue(state);
        if self.priority.is_closed() {
            // Shutdown finished behind our back (see `enqueue`).
            self.drain_priority_inline();
        } else {
            self.start_threads();
            self.wake_one();
        }
    }

    /// Grabs the next pressure-lane task, if any.  The common (empty-lane)
    /// case is one relaxed-ish atomic load; the lane's mutex is only taken
    /// while pressure wakes are actually in flight.
    fn take_priority(&self) -> Option<Arc<TaskState>> {
        if self.priority_len.load(Ordering::SeqCst) == 0 {
            return None;
        }
        if let Ok(Some(task)) = self.priority.try_dequeue() {
            self.priority_len.fetch_sub(1, Ordering::SeqCst);
            self.queued.fetch_sub(1, Ordering::SeqCst);
            return Some(task);
        }
        None
    }

    /// Runs everything still in the pressure lane inline (shutdown path and
    /// the enqueue/close race).
    fn drain_priority_inline(&self) {
        while let Ok(Some(task)) = self.priority.try_dequeue() {
            self.priority_len.fetch_sub(1, Ordering::SeqCst);
            self.queued.fetch_sub(1, Ordering::SeqCst);
            run_inline(&task);
        }
    }

    /// Runs everything still in the injector inline (shutdown path and the
    /// enqueue/close race).
    fn drain_injector_inline(&self) {
        while let Ok(Some(task)) = self.injector.try_dequeue() {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            run_inline(&task);
        }
    }

    fn wake_one(&self) {
        if self.sleeping.load(Ordering::SeqCst) > 0 {
            let _guard = self.idle_lock.lock();
            self.idle_cond.notify_one();
        }
    }

    fn wake_all(&self) {
        let _guard = self.idle_lock.lock();
        self.idle_cond.notify_all();
    }

    /// Grabs a task from the pressure lane, the injector or any core deque
    /// (used by extra workers and by core workers whose own deque ran dry).
    fn take_shared(&self, skip_deque: Option<usize>) -> Option<Arc<TaskState>> {
        self.take_priority().or_else(|| self.take_plain(skip_deque))
    }

    /// Grabs a task from the plain (non-pressure) shared sources: the
    /// injector, then any core deque.
    fn take_plain(&self, skip_deque: Option<usize>) -> Option<Arc<TaskState>> {
        if let Ok(Some(task)) = self.injector.try_dequeue() {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            return Some(task);
        }
        for (victim, stealer) in self.stealers.iter().enumerate() {
            if Some(victim) == skip_deque {
                continue;
            }
            if let Some(task) = stealer.steal() {
                self.queued.fetch_sub(1, Ordering::SeqCst);
                self.steals.fetch_add(1, Ordering::Relaxed);
                qs_obs::trace(qs_obs::TraceKind::SchedSteal, victim as u64, 0);
                return Some(task);
            }
        }
        None
    }

    /// `1 + millis since scheduler creation` (the +1 keeps 0 free as the
    /// "between steps" marker).
    fn now_marker(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64 + 1
    }

    fn note_thread_started(&self) {
        let live = self.live_threads.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak_threads.fetch_max(live, Ordering::SeqCst);
    }

    fn note_thread_exited(&self) {
        self.live_threads.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Runs one step of `state` and routes the outcome: `Done` parks the flag
/// terminally, `Yielded` goes back to the *global* runnable FIFO (fairness:
/// re-entering through the owner's LIFO deque would let one hot handler be
/// re-popped immediately and starve its deque peers), `Idle` parks unless a
/// notify raced in.
fn run_task(shared: &Arc<Shared>, local: Option<&Worker<Arc<TaskState>>>, state: Arc<TaskState>) {
    let Some(task) = state.task() else {
        return;
    };
    shared.steps.fetch_add(1, Ordering::SeqCst);
    state.flag.store(RUNNING, Ordering::SeqCst);
    // Pairs with the fence in `TaskHandle::notify`: the step's queue polls
    // must not be satisfied before `Running` is visible to producers.
    fence(Ordering::SeqCst);
    let outcome = catch_unwind(AssertUnwindSafe(|| task.step())).unwrap_or_else(|_| {
        shared.panics.fetch_add(1, Ordering::Relaxed);
        StepOutcome::Done
    });
    match outcome {
        StepOutcome::Done => state.mark_done(),
        StepOutcome::Yielded => {
            state.flag.store(SCHEDULED, Ordering::SeqCst);
            // A yield is a fairness event: the task goes to the back of the
            // global FIFO (or the pressure lane when its producers are
            // backpressured), behind every peer that was already runnable.
            enqueue_runnable(shared, state);
        }
        StepOutcome::Idle => {
            if state
                .flag
                .compare_exchange(RUNNING, IDLE, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                // A producer notified while the step was running: the task
                // stays runnable so the new work cannot be lost.
                state.flag.store(SCHEDULED, Ordering::SeqCst);
                requeue(shared, local, state);
            }
        }
    }
}

/// Re-enqueues a task that was notified mid-step: the owner's deque for
/// locality (the task's queues were just hot in this worker's cache), unless
/// a pressure wake raced in, which routes through the priority lane.
fn requeue(shared: &Arc<Shared>, local: Option<&Worker<Arc<TaskState>>>, state: Arc<TaskState>) {
    if state.pressure.swap(false, Ordering::SeqCst) {
        qs_obs::trace(qs_obs::TraceKind::SchedPressure, 0, 0);
        shared.enqueue_priority(state);
        return;
    }
    match local {
        Some(deque) => {
            shared.queued.fetch_add(1, Ordering::SeqCst);
            deque.push(state);
            // Another worker may be parked while this deque now holds work.
            shared.wake_one();
        }
        None => shared.enqueue(state),
    }
}

/// A worker consults the shared sources (injector, sibling deques) first on
/// every Nth task acquisition.  Without this, a handler that yields on its
/// budget goes back to the owner's LIFO deque and is immediately re-popped,
/// so one hot handler could starve every task waiting in the injector.
/// The same rotation also inverts the pressure lane's precedence (plain
/// sources first on the Nth acquisition), so a perpetually-backpressured
/// pipeline — which re-enters the priority lane on every yield — cannot
/// starve plain-woken tasks either: pressure buys promptness, never
/// exclusivity.
const SHARED_POLL_INTERVAL: u32 = 16;

fn worker_loop(index: usize, local: Worker<Arc<TaskState>>, shared: Arc<Shared>) {
    shared.worker_tids[index].store(current_thread_id(), Ordering::SeqCst);
    let backoff = Backoff::new();
    let mut acquisitions = 0u32;
    loop {
        acquisitions = acquisitions.wrapping_add(1);
        let pop_local = || {
            local.pop().inspect(|_| {
                shared.queued.fetch_sub(1, Ordering::SeqCst);
            })
        };
        // The pressure lane outranks the LIFO slot on ordinary
        // acquisitions (a backpressured pipeline's consumer must not wait
        // behind this worker's own burst-mode tasks); every Nth
        // acquisition inverts the order so neither the lane nor the LIFO
        // slot can starve the plain shared sources.
        let task = if acquisitions.is_multiple_of(SHARED_POLL_INTERVAL) {
            shared
                .take_plain(Some(index))
                .or_else(|| shared.take_priority())
                .or_else(pop_local)
        } else {
            shared
                .take_priority()
                .or_else(pop_local)
                .or_else(|| shared.take_plain(Some(index)))
        };
        if let Some(task) = task {
            shared.step_started[index].store(shared.now_marker(), Ordering::SeqCst);
            run_task(&shared, Some(&local), task);
            shared.step_started[index].store(0, Ordering::SeqCst);
            backoff.reset();
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            if shared.queued.load(Ordering::SeqCst) == 0 {
                return;
            }
            // Someone is mid-enqueue; spin briefly and retry the take.
            backoff.snooze();
            continue;
        }
        if shared.queued.load(Ordering::SeqCst) > 0 {
            // Counted but not yet visible in any queue: a producer is between
            // the increment and the push.
            backoff.snooze();
            continue;
        }
        let mut guard = shared.idle_lock.lock();
        if shared.shutdown.load(Ordering::Acquire) || shared.queued.load(Ordering::SeqCst) > 0 {
            continue;
        }
        shared.sleeping.fetch_add(1, Ordering::SeqCst);
        qs_obs::trace(qs_obs::TraceKind::SchedPark, index as u64, 0);
        shared.idle_cond.wait(&mut guard);
        shared.sleeping.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Compensation worker: pulls from the injector and the core deques only,
/// retires after a stretch of idleness or on shutdown.
fn extra_worker_loop(shared: Arc<Shared>) {
    let mut idle_rounds = 0u32;
    while idle_rounds < 64 {
        if let Some(task) = shared.take_shared(None) {
            run_task(&shared, None, task);
            idle_rounds = 0;
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) && shared.queued.load(Ordering::SeqCst) == 0 {
            break;
        }
        idle_rounds += 1;
        std::thread::sleep(Duration::from_micros(200));
    }
    shared.extras_live.fetch_sub(1, Ordering::SeqCst);
    shared.note_thread_exited();
}

/// The OS id of the calling thread (`/proc/thread-self/stat` field 1), or 0
/// where that is unavailable (non-Linux, masked procfs).  0 makes the
/// monitor fall back to its pre-sampling behaviour for this worker: treat a
/// long-pinned step as blocked.
fn current_thread_id() -> u64 {
    std::fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|stat| stat.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Cumulative CPU time (user + system, in clock ticks) consumed by thread
/// `tid` of this process, sampled from `/proc/self/task/<tid>/stat`.
fn thread_cpu_ticks(tid: u64) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/stat")).ok()?;
    // Fields 14 (utime) and 15 (stime), counted 1-based from the front of
    // the line; the comm field (2) may contain spaces, so parse from the
    // closing parenthesis: the remainder starts at field 3.
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `/proc` reports CPU time in `USER_HZ` ticks; the kernel ABI pins the
/// value observed through procfs at 100 regardless of the kernel's internal
/// HZ, so 1 tick = 10ms of CPU.
const PROC_TICK_MS: u64 = 10;

/// CPU-time observation of one worker's current step, keyed by the step's
/// start marker so a new step resets the baseline.
#[derive(Clone, Copy)]
struct StepCpuBaseline {
    step_marker: u64,
    cpu_ticks: Option<u64>,
    wall_marker: u64,
}

/// How long a step must have been pinned before the monitor starts a CPU
/// baseline for it.  Keeps the per-tick procfs reads away from pools whose
/// steps are ordinarily short: only steps already suspiciously long (but
/// still well before the stall threshold) get sampled.
const BASELINE_MIN_PIN: Duration = Duration::from_millis(25);

/// Minimum wall-clock window a CPU baseline must span before a "blocked"
/// verdict is trusted.  With USER_HZ ticks of 10ms, a verdict off a 1-2ms
/// window would read every thread as 0-CPU ("blocked") and re-introduce the
/// spurious compensation this sampling exists to prevent.  A step that
/// started its baseline at `BASELINE_MIN_PIN` has a 75ms window by the time
/// the 100ms stall threshold passes, so the gate adds no detection latency
/// on the common path.
const MIN_BLOCKED_WINDOW: Duration = Duration::from_millis(50);

/// Whether a worker pinned inside one step since `baseline` is *blocked*
/// (parked in a futex, waiting on I/O) rather than CPU-bound: a blocked
/// thread accrues (almost) no CPU time across the stall window, while a
/// CPU-bound step — even one starved by preemption on an oversubscribed box
/// — keeps accruing.  Unknown CPU time (no procfs) counts as blocked, which
/// is the monitor's original, conservative behaviour.  A window still
/// shorter than [`MIN_BLOCKED_WINDOW`] counts as *not* blocked: too little
/// wall time has passed to distinguish anything at tick granularity, and
/// the verdict matures within a couple of monitor ticks.
fn pinned_step_is_blocked(baseline: &StepCpuBaseline, now: u64, tid: u64) -> bool {
    let wall_ms = now.saturating_sub(baseline.wall_marker);
    let (Some(cpu_then), Some(cpu_now)) = (baseline.cpu_ticks, thread_cpu_ticks(tid)) else {
        return true;
    };
    if wall_ms < MIN_BLOCKED_WINDOW.as_millis() as u64 {
        return false;
    }
    let cpu_ms = cpu_now.saturating_sub(cpu_then) * PROC_TICK_MS;
    // Blocked = the thread used under a quarter of the wall-clock window as
    // CPU.  The 25% margin absorbs tick granularity (10ms per tick against
    // a >=50ms window) and steps that briefly compute before blocking.
    cpu_ms * 4 < wall_ms
}

fn monitor_loop(shared: Arc<Shared>) {
    // Per core worker: the CPU baseline of the step it is currently inside.
    let mut baselines: Vec<Option<StepCpuBaseline>> = vec![None; shared.step_started.len()];
    loop {
        // Tick fast only while tasks are runnable; an idle pool downshifts
        // so a long-lived runtime full of parked handlers costs ~40 monitor
        // wakeups a second instead of 1000 (detection latency is dominated
        // by the 100ms stall threshold either way).
        let busy = shared.queued.load(Ordering::SeqCst) > 0;
        std::thread::sleep(if busy {
            MONITOR_INTERVAL
        } else {
            IDLE_MONITOR_INTERVAL
        });
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Retired compensation workers leave finished JoinHandles behind;
        // reap them so a long-lived scheduler does not accumulate one
        // handle per extra ever spawned.
        {
            let mut extras = shared.extra_handles.lock();
            if !extras.is_empty() {
                extras.retain(|handle| !handle.is_finished());
            }
        }
        // Track per-worker CPU baselines for steps that have been pinned
        // past `BASELINE_MIN_PIN` — regardless of queue state or sleeping
        // workers, so the baseline predates the stall window even when the
        // queue only becomes nonempty after the stall began.  Short steps
        // never reach the pin threshold and cost no procfs reads.
        let now = shared.now_marker();
        for (index, started) in shared.step_started.iter().enumerate() {
            let started = started.load(Ordering::SeqCst);
            if started == 0 {
                baselines[index] = None;
                continue;
            }
            if now.saturating_sub(started) < BASELINE_MIN_PIN.as_millis() as u64 {
                continue;
            }
            let stale = !matches!(&baselines[index], Some(b) if b.step_marker == started);
            if stale {
                let tid = shared.worker_tids[index].load(Ordering::SeqCst);
                baselines[index] = Some(StepCpuBaseline {
                    step_marker: started,
                    cpu_ticks: (tid != 0).then(|| thread_cpu_ticks(tid)).flatten(),
                    wall_marker: now,
                });
            }
        }
        if shared.queued.load(Ordering::SeqCst) == 0 {
            continue;
        }
        if shared.sleeping.load(Ordering::SeqCst) > 0 {
            // A worker is available; make sure it is awake and move on.
            shared.wake_one();
            continue;
        }
        // Compensate only when every core worker has been pinned inside one
        // step for at least the stall threshold — the signature of blocking
        // steps, not of short steps or scheduling jitter.
        let threshold = STALL_THRESHOLD.as_millis() as u64;
        let all_stuck = shared.step_started.iter().all(|started| {
            let started = started.load(Ordering::SeqCst);
            started != 0 && now.saturating_sub(started) >= threshold
        });
        if !all_stuck {
            continue;
        }
        // Distinguish blocked workers from CPU-bound ones: a step that is
        // merely slow (or preempted on an oversubscribed box) burns CPU the
        // whole time, and spawning more threads would only worsen the
        // oversubscription.  Compensate only when at least one pinned
        // worker is genuinely off-CPU (futex-parked on a blocking edge).
        let any_blocked = baselines.iter().enumerate().any(|(index, baseline)| {
            let Some(baseline) = baseline else {
                return true;
            };
            let tid = shared.worker_tids[index].load(Ordering::SeqCst);
            pinned_step_is_blocked(baseline, now, tid)
        });
        if !any_blocked {
            continue;
        }
        // Runnable tasks, no free worker, every worker pinned, at least one
        // provably blocked.  Compensate.
        if shared.extras_live.load(Ordering::SeqCst) < MAX_EXTRA_WORKERS {
            shared.extras_live.fetch_add(1, Ordering::SeqCst);
            shared.extras_spawned.fetch_add(1, Ordering::Relaxed);
            shared.note_thread_started();
            let worker_shared = Arc::clone(&shared);
            let id = shared.extras_spawned.load(Ordering::Relaxed);
            let handle = std::thread::Builder::new()
                .name(format!("qs-hsched-extra-{id}"))
                .spawn(move || extra_worker_loop(worker_shared))
                .expect("failed to spawn compensation worker");
            shared.extra_handles.lock().push(handle);
            std::thread::sleep(POST_SPAWN_PAUSE);
        }
    }
}

/// A fixed-size M:N scheduler for [`PooledTask`]s with lost-wakeup-free
/// re-arming and blocked-worker compensation.
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
/// use qs_exec::{HandlerScheduler, PooledTask, StepOutcome};
///
/// struct Countdown(AtomicU64);
/// impl PooledTask for Countdown {
///     fn step(&self) -> StepOutcome {
///         if self.0.fetch_sub(1, Ordering::SeqCst) > 1 {
///             StepOutcome::Idle // wait for the next notify
///         } else {
///             StepOutcome::Done
///         }
///     }
/// }
///
/// let scheduler = HandlerScheduler::new(2);
/// let handle = scheduler.register(Arc::new(Countdown(AtomicU64::new(3))));
/// while !handle.is_done() {
///     handle.notify();
/// }
/// ```
pub struct HandlerScheduler {
    shared: Arc<Shared>,
    core_workers: usize,
}

impl HandlerScheduler {
    /// Creates a scheduler with `workers` core worker threads (at least
    /// one) plus the compensation monitor, started when the first task is
    /// queued.
    pub fn new(workers: usize) -> Arc<Self> {
        let workers = workers.max(1);
        let mut deques = Vec::with_capacity(workers);
        let mut stealers = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (deque, stealer) = steal_deque();
            deques.push(deque);
            stealers.push(stealer);
        }
        let shared = Arc::new(Shared {
            injector: MutexQueue::new(),
            priority: MutexQueue::new(),
            priority_len: AtomicUsize::new(0),
            stealers,
            queued: AtomicUsize::new(0),
            sleeping: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            idle_lock: Mutex::new(()),
            idle_cond: Condvar::new(),
            epoch: std::time::Instant::now(),
            step_started: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            worker_tids: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            steps: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            pressure_scheduled: AtomicU64::new(0),
            extras_spawned: AtomicU64::new(0),
            extras_live: AtomicUsize::new(0),
            extra_handles: Mutex::new(Vec::new()),
            live_threads: AtomicUsize::new(0),
            peak_threads: AtomicUsize::new(0),
            unstarted: Mutex::new(Some(deques)),
            started: AtomicBool::new(false),
            threads: Mutex::new(Vec::new()),
        });
        Arc::new(HandlerScheduler {
            shared,
            core_workers: workers,
        })
    }

    /// Registers a task, initially idle; the first
    /// [`notify`](TaskHandle::notify) schedules it.
    pub fn register(&self, task: Arc<dyn PooledTask>) -> TaskHandle {
        self.handle(Some(task))
    }

    /// Like [`register`](Self::register), for a task that holds its own
    /// handle (a handler's wake hook notifies through it): `build` receives
    /// the handle and returns the task, which is registered before anyone
    /// else can see the handle.
    pub fn register_with<P: PooledTask>(&self, build: impl FnOnce(TaskHandle) -> Arc<P>) -> Arc<P> {
        let handle = self.handle(None);
        let task = build(handle.clone());
        *handle.state.task.lock() = Some(Arc::clone(&task) as Arc<dyn PooledTask>);
        task
    }

    fn handle(&self, task: Option<Arc<dyn PooledTask>>) -> TaskHandle {
        TaskHandle {
            state: Arc::new(TaskState {
                task: Mutex::new(task),
                flag: AtomicU8::new(IDLE),
                pressure: AtomicBool::new(false),
                driver: AtomicPtr::new(std::ptr::null_mut()),
                scheduler: Arc::downgrade(&self.shared),
            }),
        }
    }

    /// Number of core worker threads.
    pub fn workers(&self) -> usize {
        self.core_workers
    }

    /// Tasks successfully stolen from a core worker's deque by another
    /// thread (sibling worker, compensation worker, or the shutdown
    /// drainer).  Injector grabs are not steals and are not counted.
    pub fn steals(&self) -> u64 {
        self.shared.steals.load(Ordering::Relaxed)
    }

    /// Total steps started.
    pub fn steps(&self) -> u64 {
        self.shared.steps.load(Ordering::SeqCst)
    }

    /// Steps whose task panicked (the task is retired, the worker survives).
    pub fn panicked_steps(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Tasks scheduled through the pressure lane (a
    /// [`TaskHandle::notify_pressure`] wake, or a yield while a pressure
    /// wake was pending).
    pub fn pressure_scheduled(&self) -> u64 {
        self.shared.pressure_scheduled.load(Ordering::Relaxed)
    }

    /// Compensation workers ever spawned by the monitor.
    pub fn extra_workers_spawned(&self) -> u64 {
        self.shared.extras_spawned.load(Ordering::Relaxed)
    }

    /// Worker threads currently alive (core + compensation).
    pub fn live_threads(&self) -> usize {
        self.shared.live_threads.load(Ordering::SeqCst)
    }

    /// Most worker threads ever alive at once (core + compensation).
    pub fn peak_threads(&self) -> usize {
        self.shared.peak_threads.load(Ordering::SeqCst)
    }

    /// Drains queued tasks, stops every worker and the monitor, and joins
    /// them.  Tasks notified after shutdown run inline on the notifying
    /// thread, so no pending work is ever stranded.
    ///
    /// While joining, the calling thread doubles as a drain worker: a core
    /// worker pinned inside a blocking step may depend on a still-queued
    /// task to unblock it (the compensation scenario), and the monitor is
    /// winding down — so the joiner runs queued tasks itself until the
    /// worker exits.  Blocks until in-flight steps return; a step that only
    /// an external event can unblock keeps `shutdown` waiting for it.
    pub fn shutdown(&self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // No thread starts from here on.
        drop(self.shared.unstarted.lock().take());
        self.shared.wake_all();
        let threads: Vec<_> = self.shared.threads.lock().drain(..).collect();
        for handle in threads {
            while !handle.is_finished() {
                match self.shared.take_shared(None) {
                    Some(task) => run_task(&self.shared, None, task),
                    None => std::thread::sleep(Duration::from_millis(1)),
                }
            }
            let _ = handle.join();
        }
        loop {
            let extras: Vec<_> = self.shared.extra_handles.lock().drain(..).collect();
            if extras.is_empty() {
                break;
            }
            for handle in extras {
                let _ = handle.join();
            }
        }
        self.shared.priority.close();
        self.shared.injector.close();
        self.shared.drain_priority_inline();
        self.shared.drain_injector_inline();
    }
}

impl Drop for HandlerScheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for HandlerScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HandlerScheduler")
            .field("workers", &self.core_workers)
            .field("live_threads", &self.live_threads())
            .field("steps", &self.steps())
            .field("steals", &self.steals())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qs_sync::Event;
    use std::sync::atomic::AtomicUsize;

    /// Counts notifies received while draining a shared work counter.
    struct DrainTask {
        pending: AtomicUsize,
        executed: AtomicUsize,
        done: AtomicBool,
    }

    impl DrainTask {
        fn new() -> Arc<Self> {
            Arc::new(DrainTask {
                pending: AtomicUsize::new(0),
                executed: AtomicUsize::new(0),
                done: AtomicBool::new(false),
            })
        }
    }

    impl PooledTask for DrainTask {
        fn step(&self) -> StepOutcome {
            loop {
                if self
                    .pending
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok()
                {
                    self.executed.fetch_add(1, Ordering::SeqCst);
                } else if self.done.load(Ordering::SeqCst) {
                    return StepOutcome::Done;
                } else {
                    return StepOutcome::Idle;
                }
            }
        }
    }

    #[test]
    fn every_notified_unit_of_work_executes() {
        let scheduler = HandlerScheduler::new(2);
        let task = DrainTask::new();
        let handle = scheduler.register(Arc::clone(&task) as Arc<dyn PooledTask>);
        const UNITS: usize = 10_000;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let task = Arc::clone(&task);
                let handle = handle.clone();
                scope.spawn(move || {
                    for _ in 0..UNITS / 4 {
                        task.pending.fetch_add(1, Ordering::SeqCst);
                        handle.notify();
                    }
                });
            }
        });
        // Wait for the drain, then let the task finish.
        while task.executed.load(Ordering::SeqCst) < UNITS {
            std::thread::yield_now();
        }
        task.done.store(true, Ordering::SeqCst);
        handle.notify();
        while !handle.is_done() {
            std::thread::yield_now();
        }
        assert_eq!(task.executed.load(Ordering::SeqCst), UNITS);
        scheduler.shutdown();
    }

    #[test]
    fn a_task_built_around_its_handle_is_stepped_through_it() {
        /// Re-arms itself through its own handle until it has run twice.
        struct SelfWaking {
            handle: TaskHandle,
            steps: AtomicUsize,
        }
        impl PooledTask for SelfWaking {
            fn step(&self) -> StepOutcome {
                if self.steps.fetch_add(1, Ordering::SeqCst) == 0 {
                    self.handle.notify();
                    StepOutcome::Idle
                } else {
                    StepOutcome::Done
                }
            }
        }
        let scheduler = HandlerScheduler::new(1);
        let task = scheduler.register_with(|handle| {
            Arc::new(SelfWaking {
                handle,
                steps: AtomicUsize::new(0),
            })
        });
        task.handle.notify();
        while !task.handle.is_done() {
            std::thread::yield_now();
        }
        assert_eq!(task.steps.load(Ordering::SeqCst), 2);
        scheduler.shutdown();
    }

    #[test]
    fn idle_tasks_cost_no_threads() {
        let scheduler = HandlerScheduler::new(2);
        let handles: Vec<_> = (0..10_000)
            .map(|_| scheduler.register(DrainTask::new() as Arc<dyn PooledTask>))
            .collect();
        assert!(
            scheduler.live_threads() <= 2 + scheduler.shared.extras_live.load(Ordering::SeqCst)
        );
        drop(handles);
        scheduler.shutdown();
        assert_eq!(scheduler.live_threads(), 0);
    }

    #[test]
    fn yielded_tasks_are_rescheduled_until_done() {
        struct Stepper {
            steps_left: AtomicUsize,
        }
        impl PooledTask for Stepper {
            fn step(&self) -> StepOutcome {
                if self.steps_left.fetch_sub(1, Ordering::SeqCst) > 1 {
                    StepOutcome::Yielded
                } else {
                    StepOutcome::Done
                }
            }
        }
        let scheduler = HandlerScheduler::new(1);
        let handle = scheduler.register(Arc::new(Stepper {
            steps_left: AtomicUsize::new(50),
        }));
        handle.notify();
        while !handle.is_done() {
            std::thread::yield_now();
        }
        assert!(scheduler.steps() >= 50);
    }

    #[test]
    fn blocked_worker_is_compensated() {
        // Task A blocks its (only) worker until task B has run; without the
        // monitor spawning an extra worker this deadlocks.
        let scheduler = HandlerScheduler::new(1);
        let gate = Arc::new(Event::new());

        struct Blocker {
            gate: Arc<Event>,
        }
        impl PooledTask for Blocker {
            fn step(&self) -> StepOutcome {
                self.gate.wait();
                StepOutcome::Done
            }
        }
        struct Opener {
            gate: Arc<Event>,
        }
        impl PooledTask for Opener {
            fn step(&self) -> StepOutcome {
                self.gate.set();
                StepOutcome::Done
            }
        }

        let blocker = scheduler.register(Arc::new(Blocker {
            gate: Arc::clone(&gate),
        }));
        let opener = scheduler.register(Arc::new(Opener {
            gate: Arc::clone(&gate),
        }));
        blocker.notify();
        // Give the worker a moment to pick up the blocking step.
        std::thread::sleep(Duration::from_millis(5));
        opener.notify();
        while !blocker.is_done() || !opener.is_done() {
            std::thread::yield_now();
        }
        assert!(scheduler.extra_workers_spawned() >= 1);
        scheduler.shutdown();
    }

    #[test]
    fn shutdown_runs_queued_unblocker_tasks() {
        // Regression: a worker pinned in a blocking step whose unblocker is
        // still queued must not deadlock shutdown — the joining thread
        // drains the queue itself while it waits.
        let scheduler = HandlerScheduler::new(1);
        let gate = Arc::new(Event::new());

        struct Blocker {
            gate: Arc<Event>,
        }
        impl PooledTask for Blocker {
            fn step(&self) -> StepOutcome {
                self.gate.wait();
                StepOutcome::Done
            }
        }
        struct Opener {
            gate: Arc<Event>,
        }
        impl PooledTask for Opener {
            fn step(&self) -> StepOutcome {
                self.gate.set();
                StepOutcome::Done
            }
        }

        let blocker = scheduler.register(Arc::new(Blocker {
            gate: Arc::clone(&gate),
        }));
        let opener = scheduler.register(Arc::new(Opener {
            gate: Arc::clone(&gate),
        }));
        blocker.notify();
        std::thread::sleep(Duration::from_millis(5));
        // The single worker is now pinned inside Blocker::step; the opener
        // sits in the injector.  Shut down before the 100ms compensation
        // threshold can fire.
        opener.notify();
        scheduler.shutdown();
        assert!(blocker.is_done());
        assert!(opener.is_done());
    }

    #[test]
    fn yielding_task_does_not_starve_the_injector() {
        // Regression: a hot task re-queued to its owner's LIFO deque must
        // not keep a single worker from ever consulting the injector.
        struct Hog {
            yields_left: AtomicUsize,
            other_done_first: Arc<AtomicBool>,
            other: Arc<Event>,
        }
        impl PooledTask for Hog {
            fn step(&self) -> StepOutcome {
                if self.yields_left.fetch_sub(1, Ordering::SeqCst) > 1 {
                    StepOutcome::Yielded
                } else {
                    self.other_done_first
                        .store(self.other.is_set(), Ordering::SeqCst);
                    StepOutcome::Done
                }
            }
        }
        struct Quick {
            done: Arc<Event>,
        }
        impl PooledTask for Quick {
            fn step(&self) -> StepOutcome {
                self.done.set();
                StepOutcome::Done
            }
        }

        let scheduler = HandlerScheduler::new(1);
        let quick_done = Arc::new(Event::new());
        let other_done_first = Arc::new(AtomicBool::new(false));
        let hog = scheduler.register(Arc::new(Hog {
            yields_left: AtomicUsize::new(10_000),
            other_done_first: Arc::clone(&other_done_first),
            other: Arc::clone(&quick_done),
        }));
        let quick = scheduler.register(Arc::new(Quick {
            done: Arc::clone(&quick_done),
        }));
        hog.notify();
        quick.notify();
        while !hog.is_done() || !quick.is_done() {
            std::thread::yield_now();
        }
        assert!(
            other_done_first.load(Ordering::SeqCst),
            "the injector task must run before a 10k-yield hog finishes"
        );
        scheduler.shutdown();
    }

    #[test]
    fn pressure_notified_task_overtakes_the_queue() {
        // One worker, pinned by a gate task; a crowd of plain-notified tasks
        // piles into the injector, then one task is pressure-notified.  When
        // the gate opens, the pressure-lane task must run before the crowd
        // that was queued ahead of it.
        use std::sync::Mutex as StdMutex;

        struct Recorder {
            id: usize,
            order: Arc<StdMutex<Vec<usize>>>,
        }
        impl PooledTask for Recorder {
            fn step(&self) -> StepOutcome {
                self.order.lock().unwrap().push(self.id);
                StepOutcome::Done
            }
        }
        struct Gate {
            gate: Arc<Event>,
        }
        impl PooledTask for Gate {
            fn step(&self) -> StepOutcome {
                self.gate.wait();
                StepOutcome::Done
            }
        }

        let scheduler = HandlerScheduler::new(1);
        let order: Arc<StdMutex<Vec<usize>>> = Arc::default();
        let gate = Arc::new(Event::new());
        let blocker = scheduler.register(Arc::new(Gate {
            gate: Arc::clone(&gate),
        }));
        blocker.notify();
        // Let the worker pick the gate task up and pin itself.
        std::thread::sleep(Duration::from_millis(5));
        let crowd: Vec<_> = (0..8)
            .map(|id| {
                let handle = scheduler.register(Arc::new(Recorder {
                    id,
                    order: Arc::clone(&order),
                }));
                handle.notify();
                handle
            })
            .collect();
        let urgent = scheduler.register(Arc::new(Recorder {
            id: 99,
            order: Arc::clone(&order),
        }));
        urgent.notify_pressure();
        gate.set();
        for handle in crowd.iter().chain([&urgent, &blocker]) {
            while !handle.is_done() {
                std::thread::yield_now();
            }
        }
        assert!(scheduler.pressure_scheduled() >= 1);
        let order = order.lock().unwrap();
        // First in the common case; second at most, when the gate happened
        // to open on the every-16th anti-starvation acquisition (which
        // consults the plain injector before the pressure lane on purpose).
        let position = order.iter().position(|&id| id == 99);
        assert!(
            position <= Some(1),
            "the pressure-woken task must overtake the injector crowd: {order:?}"
        );
        scheduler.shutdown();
    }

    #[test]
    fn notify_after_shutdown_runs_inline() {
        let scheduler = HandlerScheduler::new(1);
        let task = DrainTask::new();
        let handle = scheduler.register(Arc::clone(&task) as Arc<dyn PooledTask>);
        scheduler.shutdown();
        task.pending.fetch_add(1, Ordering::SeqCst);
        handle.notify();
        assert_eq!(task.executed.load(Ordering::SeqCst), 1);
    }

    /// Records the thread of every step; the first `step_here` reports the
    /// outcome it was built with, every other step `Idle`.
    struct Recorder {
        threads: std::sync::Mutex<Vec<std::thread::ThreadId>>,
        first_here: std::sync::Mutex<Option<StepOutcome>>,
    }

    impl Recorder {
        fn new(first_here: StepOutcome) -> Arc<Self> {
            Arc::new(Recorder {
                threads: std::sync::Mutex::new(Vec::new()),
                first_here: std::sync::Mutex::new(Some(first_here)),
            })
        }

        fn steps(&self) -> usize {
            self.threads.lock().unwrap().len()
        }
    }

    impl PooledTask for Recorder {
        fn step(&self) -> StepOutcome {
            self.threads
                .lock()
                .unwrap()
                .push(std::thread::current().id());
            StepOutcome::Idle
        }

        fn step_here(&self, _budget: usize) -> StepOutcome {
            self.step();
            self.first_here
                .lock()
                .unwrap()
                .take()
                .unwrap_or(StepOutcome::Idle)
        }
    }

    #[test]
    fn run_here_steps_an_idle_task_on_the_calling_thread() {
        let scheduler = HandlerScheduler::new(2);
        let task = Recorder::new(StepOutcome::Idle);
        let handle = scheduler.register(Arc::clone(&task) as Arc<dyn PooledTask>);
        for _ in 0..100 {
            let ran = handle.run_here(1);
            assert_eq!(
                ran,
                RanHere {
                    stepped: true,
                    wake: Wake::Covered
                }
            );
        }
        assert_eq!(task.steps(), 100);
        let here = std::thread::current().id();
        assert!(task.threads.lock().unwrap().iter().all(|&t| t == here));
        assert_eq!(scheduler.steps(), 0, "no worker stepped it");
        assert_eq!(scheduler.live_threads(), 0, "and none was started");
        // The first task queued starts the pool.
        handle.notify();
        assert_eq!(scheduler.live_threads(), 2);
        scheduler.shutdown();
        assert_eq!(scheduler.live_threads(), 0);
    }

    #[test]
    fn run_here_on_a_busy_task_is_an_ordinary_notify() {
        // The task is `Running` on the only worker, blocked inside its
        // step: the claim must fail, and the notify it falls back to must
        // get the task stepped again once the running step returns.
        struct Gated {
            entered: Event,
            gate: Event,
            steps: AtomicUsize,
        }
        impl PooledTask for Gated {
            fn step(&self) -> StepOutcome {
                if self.steps.fetch_add(1, Ordering::SeqCst) == 0 {
                    self.entered.set();
                    self.gate.wait();
                }
                StepOutcome::Idle
            }
        }
        let scheduler = HandlerScheduler::new(1);
        let task = Arc::new(Gated {
            entered: Event::new(),
            gate: Event::new(),
            steps: AtomicUsize::new(0),
        });
        let handle = scheduler.register(Arc::clone(&task) as Arc<dyn PooledTask>);
        handle.notify();
        task.entered.wait();
        assert_eq!(
            handle.run_here(1),
            RanHere {
                stepped: false,
                wake: Wake::Covered
            },
            "Running → Notified, no claim"
        );
        task.gate.set();
        while task.steps.load(Ordering::SeqCst) < 2 {
            std::thread::yield_now();
        }
        assert_eq!(
            scheduler.steps(),
            2,
            "the notified task ran again on the pool"
        );
        scheduler.shutdown();
    }

    #[test]
    fn run_here_hands_a_yielded_step_to_the_pool() {
        let scheduler = HandlerScheduler::new(1);
        let task = Recorder::new(StepOutcome::Yielded);
        let handle = scheduler.register(Arc::clone(&task) as Arc<dyn PooledTask>);
        assert_eq!(
            handle.run_here(1),
            RanHere {
                stepped: true,
                wake: Wake::Pool
            }
        );
        while task.steps() < 2 {
            std::thread::yield_now();
        }
        let here = std::thread::current().id();
        let threads = task.threads.lock().unwrap().clone();
        assert_eq!(threads[0], here);
        assert_ne!(threads[1], here, "the pool took the yielded task");
        scheduler.shutdown();
    }

    /// Notifies its own handle from each of its first `notifying` client
    /// steps; a pool step sets `pooled`.  Every step ends `Idle`.
    struct SelfNotifying {
        handle: TaskHandle,
        notifying: AtomicUsize,
        here: std::sync::Mutex<Vec<std::thread::ThreadId>>,
        pooled: Event,
    }

    impl SelfNotifying {
        fn register(scheduler: &HandlerScheduler, notifying: usize) -> Arc<Self> {
            scheduler.register_with(|handle| {
                Arc::new(SelfNotifying {
                    handle,
                    notifying: AtomicUsize::new(notifying),
                    here: std::sync::Mutex::new(Vec::new()),
                    pooled: Event::new(),
                })
            })
        }
    }

    impl PooledTask for SelfNotifying {
        fn step(&self) -> StepOutcome {
            self.pooled.set();
            StepOutcome::Idle
        }

        fn step_here(&self, _budget: usize) -> StepOutcome {
            self.here.lock().unwrap().push(std::thread::current().id());
            if self
                .notifying
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
            {
                self.handle.notify();
            }
            StepOutcome::Idle
        }
    }

    #[test]
    fn a_client_step_that_was_notified_runs_again_here() {
        let scheduler = HandlerScheduler::new(1);
        let task = SelfNotifying::register(&scheduler, 1);
        assert_eq!(
            task.handle.run_here(1),
            RanHere {
                stepped: true,
                wake: Wake::Covered
            },
            "the notified step ran again here instead of going to the pool"
        );
        let here = std::thread::current().id();
        assert_eq!(*task.here.lock().unwrap(), vec![here, here]);
        assert_eq!(scheduler.steps(), 0, "no worker stepped it");
        assert_eq!(scheduler.peak_threads(), 0, "and none was started");
        scheduler.shutdown();
    }

    #[test]
    fn a_client_step_notified_on_every_step_goes_to_the_pool() {
        let scheduler = HandlerScheduler::new(1);
        let task = SelfNotifying::register(&scheduler, usize::MAX);
        assert_eq!(
            task.handle.run_here(1),
            RanHere {
                stepped: true,
                wake: Wake::Pool
            }
        );
        assert_eq!(task.here.lock().unwrap().len(), 1 + NOTIFIED_STEPS_HERE);
        task.pooled.wait();
        scheduler.shutdown();
        assert_eq!(scheduler.steps(), 1, "the pool stepped it once");
    }

    #[test]
    fn try_run_here_neither_claims_nor_notifies_a_busy_task() {
        /// Pins the only worker until `gate` opens.
        struct Pin {
            entered: Event,
            gate: Event,
        }
        impl PooledTask for Pin {
            fn step(&self) -> StepOutcome {
                self.entered.set();
                self.gate.wait();
                StepOutcome::Done
            }
        }
        /// Counts its steps.
        struct Counted(AtomicUsize, Event);
        impl PooledTask for Counted {
            fn step(&self) -> StepOutcome {
                self.0.fetch_add(1, Ordering::SeqCst);
                self.1.set();
                StepOutcome::Idle
            }
        }
        let scheduler = HandlerScheduler::new(1);
        // An idle task is stepped on the caller.
        let idle = Recorder::new(StepOutcome::Idle);
        let handle = scheduler.register(Arc::clone(&idle) as Arc<dyn PooledTask>);
        assert_eq!(handle.try_run_here(1), Some(Wake::Covered));
        assert_eq!(
            *idle.threads.lock().unwrap(),
            vec![std::thread::current().id()]
        );
        // A busy one is left alone.
        let pin = Arc::new(Pin {
            entered: Event::new(),
            gate: Event::new(),
        });
        scheduler
            .register(Arc::clone(&pin) as Arc<dyn PooledTask>)
            .notify();
        pin.entered.wait();
        let task = Arc::new(Counted(AtomicUsize::new(0), Event::new()));
        let handle = scheduler.register(Arc::clone(&task) as Arc<dyn PooledTask>);
        assert_eq!(
            handle.notify(),
            Wake::Pool,
            "queued behind the pinned worker"
        );
        assert_eq!(
            handle.try_run_here(1),
            None,
            "a Scheduled task is not claimed"
        );
        assert_eq!(handle.state.flag.load(Ordering::SeqCst), SCHEDULED);
        pin.gate.set();
        task.1.wait();
        scheduler.shutdown();
        assert_eq!(task.0.load(Ordering::SeqCst), 1, "the pool stepped it once");
    }

    /// Runs `body` on its own thread and fails the test, instead of hanging
    /// it, when `body` has not returned within a minute.
    fn within<T: Send + 'static>(what: &str, body: impl FnOnce() -> T + Send + 'static) -> T {
        let (done, result) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = done.send(body());
        });
        result
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("{what}: still running after 60 s"))
    }

    #[test]
    fn a_wake_hands_an_idle_task_to_its_parked_driver() {
        let scheduler = HandlerScheduler::new(1);
        let task = DrainTask::new();
        let handle = scheduler.register(Arc::clone(&task) as Arc<dyn PooledTask>);
        let mut driver = handle.park_driver();
        assert!(handle.driver_waiting());
        assert!(!driver.is_handed());
        task.pending.fetch_add(1, Ordering::SeqCst);
        assert_eq!(handle.notify(), Wake::Driver);
        assert!(driver.is_handed());
        assert!(!handle.driver_waiting(), "the wake took the driver out");
        assert_eq!(handle.notify(), Wake::Covered, "the driver owns the task");
        assert_eq!(driver.drive(1), Wake::Covered, "released idle");
        assert_eq!(task.executed.load(Ordering::SeqCst), 1);
        // Back in the slot, the next wake comes here again.
        driver.repark();
        task.pending.fetch_add(1, Ordering::SeqCst);
        assert_eq!(handle.notify(), Wake::Driver);
        assert_eq!(driver.drive(1), Wake::Covered);
        assert_eq!(driver.leave(), Wake::Covered);
        assert_eq!(task.executed.load(Ordering::SeqCst), 2);
        assert_eq!(scheduler.steps(), 0, "no worker stepped it");
        assert_eq!(scheduler.peak_threads(), 0, "and none was started");
        // With the slot empty, a wake goes to the pool.
        task.pending.fetch_add(1, Ordering::SeqCst);
        assert_eq!(handle.notify(), Wake::Pool);
        scheduler.shutdown();
        assert_eq!(task.executed.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn a_driver_whose_wait_ended_passes_a_handed_task_on() {
        // The wake comes in after the driver's own wait is over (another
        // party completed it): leaving must hand the task to the pool, or
        // nobody ever steps it and the queued unit never runs.
        let executed = within("handed task passed on", || {
            let scheduler = HandlerScheduler::new(1);
            let task = DrainTask::new();
            let handle = scheduler.register(Arc::clone(&task) as Arc<dyn PooledTask>);
            let driver = handle.park_driver();
            task.pending.fetch_add(1, Ordering::SeqCst);
            assert_eq!(handle.notify(), Wake::Driver);
            let passed = driver.leave();
            while task.executed.load(Ordering::SeqCst) < 1 {
                std::thread::yield_now();
            }
            scheduler.shutdown();
            (passed, task.executed.load(Ordering::SeqCst))
        });
        assert_eq!(executed, (Wake::Pool, 1));
    }

    #[test]
    fn a_later_driver_evicts_the_earlier_and_puts_it_back_on_leaving() {
        let scheduler = HandlerScheduler::new(1);
        let task = DrainTask::new();
        let handle = scheduler.register(Arc::clone(&task) as Arc<dyn PooledTask>);
        let mut first = handle.park_driver();
        let second = handle.park_driver();
        task.pending.fetch_add(1, Ordering::SeqCst);
        assert_eq!(handle.notify(), Wake::Driver);
        assert!(second.is_handed() && !first.is_handed());
        // The second leaves with the task: it goes to the first, put back.
        assert_eq!(second.leave(), Wake::Driver);
        assert!(first.is_handed());
        assert_eq!(first.drive(1), Wake::Covered);
        assert_eq!(first.leave(), Wake::Covered);
        assert_eq!(task.executed.load(Ordering::SeqCst), 1);
        // An evicted driver that leaves first is not put back.
        let first = handle.park_driver();
        let second = handle.park_driver();
        assert_eq!(first.leave(), Wake::Covered);
        assert_eq!(second.leave(), Wake::Covered);
        assert!(!handle.driver_waiting());
        assert_eq!(scheduler.peak_threads(), 0);
        scheduler.shutdown();
    }

    #[test]
    fn racing_drivers_and_a_pool_lose_no_wake() {
        // Two clients each publish a unit without a wake and wait for it the
        // way a sync does: claim the idle task, else register as its driver
        // and notify (a wake that may come back to itself), then drive what
        // they are handed.  They evict and put back each other, race the
        // pool for the task, and leave with handed tasks.  A lost wake
        // leaves a unit unexecuted and hangs a client.
        const ROUNDS: usize = 10_000;
        let executed = within("driver race", || {
            let scheduler = HandlerScheduler::new(1);
            let task = DrainTask::new();
            let handle = scheduler.register(Arc::clone(&task) as Arc<dyn PooledTask>);
            let published = Arc::new(AtomicUsize::new(0));
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    let (task, handle, published) = (&task, &handle, &published);
                    scope.spawn(move || {
                        for _ in 0..ROUNDS {
                            let ticket = published.fetch_add(1, Ordering::SeqCst);
                            task.pending.fetch_add(1, Ordering::SeqCst);
                            let done = || task.executed.load(Ordering::SeqCst) > ticket;
                            if handle.try_run_here(1).is_some() && done() {
                                continue;
                            }
                            let mut driver = handle.park_driver();
                            handle.notify();
                            while !done() {
                                if driver.is_handed() {
                                    driver.drive(1);
                                    driver.repark();
                                } else {
                                    std::thread::yield_now();
                                }
                            }
                            driver.leave();
                        }
                    });
                }
            });
            scheduler.shutdown();
            task.executed.load(Ordering::SeqCst)
        });
        assert_eq!(executed, 2 * ROUNDS);
    }

    #[test]
    fn panicking_step_retires_the_task_and_spares_the_worker() {
        struct Bomb;
        impl PooledTask for Bomb {
            fn step(&self) -> StepOutcome {
                panic!("task failure");
            }
        }
        let scheduler = HandlerScheduler::new(1);
        let bomb = scheduler.register(Arc::new(Bomb));
        bomb.notify();
        while !bomb.is_done() {
            std::thread::yield_now();
        }
        assert_eq!(scheduler.panicked_steps(), 1);
        // The worker survives and still runs other tasks.
        let task = DrainTask::new();
        let handle = scheduler.register(Arc::clone(&task) as Arc<dyn PooledTask>);
        task.pending.fetch_add(1, Ordering::SeqCst);
        task.done.store(true, Ordering::SeqCst);
        handle.notify();
        while !handle.is_done() {
            std::thread::yield_now();
        }
        assert_eq!(task.executed.load(Ordering::SeqCst), 1);
        scheduler.shutdown();
    }

    #[test]
    fn work_is_stolen_across_workers() {
        let scheduler = HandlerScheduler::new(2);
        // Many independent yield-happy tasks force cross-deque traffic.
        let handles: Vec<_> = (0..64)
            .map(|_| {
                let task = DrainTask::new();
                task.pending.store(50, Ordering::SeqCst);
                task.done.store(true, Ordering::SeqCst);
                (
                    Arc::clone(&task),
                    scheduler.register(task as Arc<dyn PooledTask>),
                )
            })
            .collect();
        for (_, handle) in &handles {
            handle.notify();
        }
        for (task, handle) in &handles {
            while !handle.is_done() {
                std::thread::yield_now();
            }
            assert_eq!(task.executed.load(Ordering::SeqCst), 50);
        }
        scheduler.shutdown();
    }
}
