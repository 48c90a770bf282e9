//! The block server: the one place wire frames become operations on a
//! handler.
//!
//! A [`BlockServer`] owns an object's [`MethodRegistry`] and the counters of
//! what it applied.  [`BlockServer::serve_block`] reads one block's
//! `Call`/`Query`/`Sync`/`End` frames off a stream and runs them on a
//! [`qs_runtime::Handler`] inside [`Handler::separate`], so ordering and
//! atomicity (§2.2) come from the runtime.  Both node types use it: a
//! [`crate::node::RemoteNode`] once per private queue after its `Hello`, and
//! a `qs-cluster` node server once per `Open`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use qs_runtime::{Handler, Runtime, Separate};

use crate::channel::{ByteReceiver, ByteSender, RecvError};
use crate::registry::MethodRegistry;
use crate::wire::{Frame, WireValue};

/// What a block server has applied, counted as it goes.
#[derive(Debug, Default)]
struct Counters {
    blocks: AtomicU64,
    calls: AtomicU64,
    queries: AtomicU64,
    syncs: AtomicU64,
    application_errors: AtomicU64,
    call_panics: AtomicU64,
    protocol_errors: AtomicU64,
}

/// A point-in-time copy of a node's counters (the remote analogue of
/// `qs_runtime::StatsSnapshot`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Separate blocks served.
    pub blocks_served: u64,
    /// Asynchronous calls received.
    pub calls_applied: u64,
    /// Queries received (and answered).
    pub queries_applied: u64,
    /// Sync tokens acknowledged.
    pub syncs_acked: u64,
    /// Methods that returned an error or panicked (reported to clients for
    /// queries, counted for calls).
    pub application_errors: u64,
    /// Calls whose method panicked, logged and folded alike (the in-memory
    /// runtime's `call_panics`).
    pub call_panics: u64,
    /// Malformed or unexpected frames.
    pub protocol_errors: u64,
    /// The serving runtime's `calls_enqueued`: calls logged one by one
    /// rather than folded into the query or sync they came with.
    pub runtime_calls_enqueued: u64,
    /// The serving runtime's `handler_wakeups`: blocks that needed a pool
    /// worker rather than being stepped by the serving thread.
    pub runtime_handler_wakeups: u64,
}

/// A call held back to run at its block's next sync (see
/// [`BlockServer::serve_block`]).
type HeldCall = (String, Vec<WireValue>);

/// Serves blocks of wire frames against handlers of one object type.
pub struct BlockServer<S> {
    registry: Arc<MethodRegistry<S>>,
    counters: Counters,
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

impl<S: Send + 'static> BlockServer<S> {
    /// A server dispatching frames to `registry`'s methods.
    pub fn new(registry: Arc<MethodRegistry<S>>) -> Arc<BlockServer<S>> {
        Arc::new(BlockServer {
            registry,
            counters: Counters::default(),
        })
    }

    /// Serves one block on `handler`: frames up to `End` become operations
    /// on the handler's separate-block guard.  Returns `false` when the
    /// stream cannot carry another block (it closed, failed, or broke the
    /// protocol).
    ///
    /// A `Call` whose successor frame is already in the read buffer arrived
    /// in the same write as the block's next frames, and is held rather
    /// than logged.  The `Query` or `Sync` that ends the run then becomes a
    /// single `guard.query` that applies the held calls in order — and
    /// answers the query — on this thread, with the handler synced: the
    /// §3.2 exclusivity that lets a client run its own query body also
    /// covers the calls that came with it, and the handler is stepped here
    /// instead of waking a pool worker for the calls and handing the query
    /// back.
    ///
    /// `End`, an error, or a call with nothing buffered behind it logs the
    /// held calls with `guard.call` instead.  That last case is what keeps
    /// the held calls bounded by one read buffer: a long run of calls
    /// arrives in several writes (a client writes every 16 KiB), and each
    /// piece is logged as it ends, so the handler works through the run
    /// while the client is still sending it.  A client that sends frame by
    /// frame never has a frame buffered behind a call, and is served
    /// exactly as before.
    ///
    /// A method that panics is contained to its call or query: a query's
    /// panic is answered as an application error, and neither reaches the
    /// serving thread or the handler.
    #[must_use]
    pub fn serve_block(
        self: &Arc<Self>,
        handler: &Handler<S>,
        requests: &ByteReceiver,
        responses: &ByteSender,
    ) -> bool {
        bump(&self.counters.blocks);
        handler.separate(|guard| {
            let mut held: Vec<HeldCall> = Vec::new();
            let served = loop {
                match requests.recv_frame() {
                    Ok(Frame::Call { method, args }) => {
                        bump(&self.counters.calls);
                        held.push((method, args));
                        if !requests.has_frame() {
                            self.log_calls(guard, &mut held);
                        }
                    }
                    Ok(Frame::Query { method, args }) => {
                        bump(&self.counters.queries);
                        let server = Arc::clone(self);
                        let calls = std::mem::take(&mut held);
                        let result = guard.query(move |state| {
                            server.apply_calls(state, calls);
                            server.apply(state, &method, &args, false)
                        });
                        let answer = Frame::QueryResult { result };
                        if responses.send_frame(&answer).is_err() {
                            break false;
                        }
                    }
                    Ok(Frame::Sync) => {
                        bump(&self.counters.syncs);
                        if held.is_empty() {
                            guard.sync();
                        } else {
                            let server = Arc::clone(self);
                            let calls = std::mem::take(&mut held);
                            guard.query(move |state| server.apply_calls(state, calls));
                        }
                        if responses.send_frame(&Frame::SyncAck).is_err() {
                            break false;
                        }
                    }
                    Ok(Frame::End) => break true,
                    Ok(_) | Err(RecvError::Malformed(_)) => {
                        self.protocol_error();
                        break false;
                    }
                    Err(_) => break false,
                }
            };
            self.log_calls(guard, &mut held);
            served
        })
    }

    /// Logs `calls` on the handler as asynchronous calls, in order.
    fn log_calls(self: &Arc<Self>, guard: &mut Separate<'_, S>, calls: &mut Vec<HeldCall>) {
        for (method, args) in calls.drain(..) {
            let server = Arc::clone(self);
            guard.call(move |state| {
                let _ = server.apply(state, &method, &args, true);
            });
        }
    }

    /// Applies held calls with call semantics: an error is dropped and a
    /// panic contained, so neither reaches the query that follows them.
    fn apply_calls(&self, state: &mut S, calls: Vec<HeldCall>) {
        for (method, args) in calls {
            let _ = self.apply(state, &method, &args, true);
        }
    }

    /// Dispatches one method, turning a panic into an error and counting
    /// both.
    fn apply(
        &self,
        state: &mut S,
        method: &str,
        args: &[WireValue],
        is_call: bool,
    ) -> Result<WireValue, String> {
        let dispatched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.registry.dispatch(state, method, args)
        }));
        let result = dispatched.unwrap_or_else(|_| {
            if is_call {
                bump(&self.counters.call_panics);
            }
            Err(format!("method `{method}` panicked"))
        });
        if result.is_err() {
            bump(&self.counters.application_errors);
        }
        result
    }

    /// Counts a malformed or unexpected frame.
    pub(crate) fn protocol_error(&self) {
        bump(&self.counters.protocol_errors);
    }

    /// The server's counters, with those of the `runtime` its handlers run
    /// on.
    pub fn stats(&self, runtime: &Runtime) -> NodeStats {
        let c = &self.counters;
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let runtime = runtime.stats_snapshot();
        NodeStats {
            blocks_served: load(&c.blocks),
            calls_applied: load(&c.calls),
            queries_applied: load(&c.queries),
            syncs_acked: load(&c.syncs),
            application_errors: load(&c.application_errors),
            call_panics: load(&c.call_panics),
            protocol_errors: load(&c.protocol_errors),
            runtime_calls_enqueued: runtime.calls_enqueued,
            runtime_handler_wakeups: runtime.handler_wakeups,
        }
    }
}
