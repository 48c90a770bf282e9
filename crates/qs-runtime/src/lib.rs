//! # qs-runtime — the SCOOP/Qs execution model
//!
//! This crate is the primary contribution of the reproduced paper:
//! *Efficient and Reasonable Object-Oriented Concurrency* (West, Nanz, Meyer;
//! PPoPP 2015).  It implements the SCOOP concurrency model — every object is
//! owned by exactly one *handler* (thread of execution), and clients interact
//! with it only inside *separate blocks* — together with the SCOOP/Qs
//! *queue-of-queues* execution strategy and the runtime optimisations of §3:
//!
//! * **Queue-of-queues (QoQ)** — each client gets a private SPSC queue that
//!   it shares with the handler; registering for a separate block is a single
//!   lock-free enqueue of that private queue into the handler's MPSC
//!   queue-of-queues, so clients never block each other while logging
//!   asynchronous calls (§2.3, §3.1).
//! * **Client-executed queries** — a query (synchronous call) is compiled to
//!   a `sync` token plus a local call executed by the client once the handler
//!   has drained the client's private queue, avoiding call packaging and
//!   enabling inlining (§3.2).
//! * **Direct handoff** — completing a sync wakes the exact waiting client
//!   thread rather than going through a global scheduler (§3.2).
//! * **Dynamic sync-coalescing** — a per-private-queue `synced` flag elides
//!   redundant sync round-trips (§3.4.1).  (The *static* variant lives in the
//!   `qs-compiler` crate and drives the same elision via [`Separate::sync`] /
//!   [`Separate::query_unsynced`].)
//! * **Lock-based baseline** — the pre-Qs SCOOP execution model (a single
//!   request queue guarded by a handler lock) is retained behind
//!   [`RuntimeConfig`] so the paper's optimisation study (§4, Tables 1–2) can
//!   be reproduced.
//!
//! ## Reasoning guarantees
//!
//! The runtime upholds the two guarantees of §2.2:
//!
//! 1. non-separate calls and primitive instructions execute immediately and
//!    synchronously (ordinary Rust code in the client);
//! 2. calls logged on a handler inside one separate block are executed in
//!    order, with no intervening calls from other clients.
//!
//! ## Example
//!
//! Reservations — single-handler or atomic multi-handler, optionally guarded
//! by a wait condition — all go through the composable [`reserve`] entry
//! point:
//!
//! ```
//! use qs_runtime::{reserve, Runtime, RuntimeConfig};
//!
//! let rt = Runtime::new(RuntimeConfig::all_optimizations());
//! let counter = rt.spawn_handler(0u64);
//! let log = rt.spawn_handler(Vec::<u64>::new());
//!
//! // Single-handler separate block (`Handler::separate` is shorthand).
//! reserve(&counter).run(|c| {
//!     for _ in 0..10 {
//!         c.call(|n| *n += 1);       // asynchronous command
//!     }
//!     assert_eq!(c.query(|n| *n), 10); // synchronous query
//! });
//!
//! // Atomic two-handler reservation: the pair is observed consistently.
//! reserve((&counter, &log)).run(|(c, l)| {
//!     let value = c.query(|n| *n);
//!     l.call(move |entries| entries.push(value));
//! });
//!
//! let final_value = counter.shutdown_and_take().unwrap();
//! assert_eq!(final_value, 10);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod contracts;
mod deadlock;
#[doc(hidden)]
pub mod guard;
pub mod handler;
pub mod read;
pub mod request;
pub mod reserve;
pub mod runtime;
pub mod separate;
pub mod stats;

pub use config::{
    DeadlockPolicy, ObservabilityMode, OptimizationLevel, RuntimeConfig, DEFAULT_MAILBOX_CAPACITY,
    DEFAULT_MAX_BATCH,
};
pub use contracts::{assert_postcondition, check_postcondition, WaitConfig, WaitTimeout};
pub use handler::{Handler, HandlerId};
pub use qs_deadlock::{DeadlockReport, EdgeKind as DeadlockEdgeKind, ReportedEdge};
pub use read::{read, Read, ReadSeparate};
pub use reserve::{
    reserve, GuardedReservation, MemberGuard, Reservation, ReservationSet, ReserveMember,
    WaitCondition,
};
pub use runtime::Runtime;
pub use separate::{MailboxError, MailboxFull, QueryToken, Separate};
pub use stats::{batch_bucket_range, RuntimeStats, StatsSnapshot, BATCH_SIZE_BUCKETS};
