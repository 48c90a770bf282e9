//! # scoop-qs — a reproduction of "Efficient and Reasonable Object-Oriented Concurrency" (PPoPP 2015)
//!
//! This facade crate re-exports the workspace members so that downstream
//! users (and the examples and integration tests in this repository) can use
//! a single dependency.
//!
//! * [`runtime`] — the SCOOP/Qs runtime: handlers, separate blocks,
//!   asynchronous calls, queries, queue-of-queues, sync-coalescing, wait
//!   conditions and postconditions.
//! * [`semantics`] — the executable operational semantics of the paper's
//!   Fig. 3 inference rules, deadlock analysis (§2.5) and conformance
//!   checking of observed executions against the §2.2 guarantees.
//! * [`compiler`] — the mini-IR, control-flow graph and the static
//!   sync-coalescing pass of §3.4.2.
//! * [`lang`] — a miniature SCOOP surface language (lexer, parser, checker,
//!   lowering through the static pass, interpreter on the runtime).
//! * [`deadlock`] — the live wait-for registry and detector behind the
//!   runtime's `DeadlockPolicy` knob (queries, blocked bounded pushes,
//!   serving commitments, reservation retries).
//! * [`remote`] — serialized private queues over byte channels and real
//!   sockets (TCP / Unix-domain): the §7 "sockets as the underlying
//!   implementation" direction.
//! * [`cluster`] — multi-node SCOOP/Qs: consistent-hash handler placement,
//!   node servers hosting per-user handlers on the pooled runtime, and a
//!   routing cluster client.
//! * [`queues`], [`sync`], [`exec`] — the substrates the runtime is built on.
//! * [`baselines`] — shared-memory, channel, actor and STM paradigm
//!   baselines standing in for C++/TBB, Go, Erlang and Haskell.
//! * [`workloads`] — the Cowichan parallel suite and the coordination
//!   benchmarks from the paper's evaluation.
//!
//! ## Quickstart
//!
//! Handlers own objects; clients reserve one or more handlers with the
//! composable [`runtime::reserve`] entry point and interact with the objects
//! through the reservation guards:
//!
//! ```
//! use scoop_qs::prelude::*;
//!
//! let rt = Runtime::new(RuntimeConfig::all_optimizations());
//! let source = rt.spawn_handler(100i64);
//! let target = rt.spawn_handler(0i64);
//!
//! // Atomically reserve both accounts, but only once the source can afford
//! // the transfer; give up after 1000 failed attempts.
//! let moved = reserve((&source, &target))
//!     .when(|s: &i64, _t: &i64| *s >= 10)
//!     .timeout(WaitConfig::bounded(1000))
//!     .try_run(|(s, t)| {
//!         s.call(|balance| *balance -= 10);
//!         t.call(|balance| *balance += 10);
//!         t.query(|balance| *balance)
//!     });
//! assert_eq!(moved, Ok(10));
//! ```

pub use qs_baselines as baselines;
pub use qs_cluster as cluster;
pub use qs_compiler as compiler;
pub use qs_deadlock as deadlock;
pub use qs_exec as exec;
pub use qs_lang as lang;
pub use qs_obs as obs;
pub use qs_queues as queues;
pub use qs_remote as remote;
pub use qs_runtime as runtime;
pub use qs_semantics as semantics;
pub use qs_sync as sync;
pub use qs_workloads as workloads;

/// Convenience prelude exposing the most common runtime API items.
pub mod prelude {
    pub use qs_runtime::{
        read, reserve, DeadlockEdgeKind, DeadlockPolicy, DeadlockReport, GuardedReservation,
        Handler, MailboxError, MailboxFull, ObservabilityMode, OptimizationLevel, QueryToken, Read,
        ReadSeparate, Reservation, ReservationSet, Runtime, RuntimeConfig, RuntimeStats, Separate,
        WaitCondition, WaitConfig, WaitTimeout,
    };
}
