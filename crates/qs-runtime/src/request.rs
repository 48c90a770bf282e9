//! Requests exchanged between clients and handlers.
//!
//! A request corresponds to one entry in a private queue (QoQ configuration)
//! or in the handler's single request queue (lock-based configuration).  The
//! paper packages asynchronous calls with libffi (§3.2, Fig. 9); the Rust
//! equivalent is a boxed `FnOnce` closure, which carries the captured
//! arguments on the heap exactly as the libffi call structure does.

use std::sync::Arc;

use qs_sync::Handoff;

/// A closure applied to the handler-owned object.
pub type CallFn<T> = Box<dyn FnOnce(&mut T) + Send + 'static>;

/// Producer-side guard of a request's result handoff, shared by sync tokens
/// (`R = ()`) and handler-executed/pipelined queries: either the request
/// executes and `complete`s the handoff, or —
/// if it is dropped unexecuted (its mailbox abandoned mid-shutdown before
/// the handler reached it) or unwinds mid-execution (a panicking closure,
/// or a nested push failed by `DeadlockPolicy::Break`) — the drop abandons
/// it, waking the parked client into a panic instead of leaving it waiting
/// forever on a completion that will never come.
pub struct CompletionGuard<R: Send + 'static> {
    handoff: Option<Arc<Handoff<R>>>,
}

impl<R: Send + 'static> CompletionGuard<R> {
    pub(crate) fn new(handoff: Arc<Handoff<R>>) -> Self {
        CompletionGuard {
            handoff: Some(handoff),
        }
    }

    /// Deposits the result (for a sync token: the bare acknowledgement that
    /// every previous request from the client has been applied).
    pub(crate) fn complete(mut self, value: R) {
        self.handoff
            .take()
            .expect("a request completes at most once")
            .complete(value);
    }
}

impl<R: Send + 'static> Drop for CompletionGuard<R> {
    fn drop(&mut self) {
        if let Some(handoff) = self.handoff.take() {
            handoff.abandon();
        }
    }
}

/// One client request for a handler owning an object of type `T`.
pub enum Request<T> {
    /// An asynchronous command (`call` rule): execute the closure on the
    /// handler, no reply.
    Call(CallFn<T>),
    /// A handler-executed query (`query` rule without the §3.2 shift): the
    /// closure computes the result and completes the embedded handoff.
    Query(CallFn<T>),
    /// A synchronisation token (modified `query` rule of §3.2): the handler
    /// completes the handoff, signalling that every previous request from
    /// this client has been applied; the client then executes the query
    /// locally.
    Sync(CompletionGuard<()>),
    /// End of a group of requests (`end` rule).  Only used on the lock-based
    /// path, where the single request queue is shared by all clients and
    /// cannot be closed per-client; on the QoQ path the private queue's
    /// `close()` plays this role.
    End,
}

impl<T> Request<T> {
    /// A short label for tracing/debugging.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Call(_) => "call",
            Request::Query(_) => "query",
            Request::Sync(_) => "sync",
            Request::End => "end",
        }
    }
}

impl<T> std::fmt::Debug for Request<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Request")
            .field("kind", &self.kind())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_reported() {
        let call: Request<u32> = Request::Call(Box::new(|n| *n += 1));
        let query: Request<u32> = Request::Query(Box::new(|_| {}));
        let sync: Request<u32> = Request::Sync(CompletionGuard::new(Arc::new(Handoff::new())));
        let end: Request<u32> = Request::End;
        assert_eq!(call.kind(), "call");
        assert_eq!(query.kind(), "query");
        assert_eq!(sync.kind(), "sync");
        assert_eq!(end.kind(), "end");
        assert!(format!("{call:?}").contains("call"));
    }

    #[test]
    fn call_closure_mutates_object() {
        let req: Request<Vec<u32>> = Request::Call(Box::new(|v| v.push(9)));
        let mut obj = vec![1, 2];
        if let Request::Call(f) = req {
            f(&mut obj);
        }
        assert_eq!(obj, vec![1, 2, 9]);
    }

    #[test]
    fn sync_request_completes_handoff() {
        let handoff = Arc::new(Handoff::new());
        let req: Request<()> = Request::Sync(CompletionGuard::new(Arc::clone(&handoff)));
        if let Request::Sync(token) = req {
            token.complete(());
        }
        assert!(handoff.is_ready());
        assert!(!handoff.is_abandoned());
    }

    #[test]
    fn sync_request_dropped_unexecuted_abandons_the_handoff() {
        // A sync token lost to an abandoned mailbox (handler shut down
        // before reaching it) must wake its parked client into a panic, not
        // strand it forever.
        let handoff = Arc::new(Handoff::new());
        let req: Request<()> = Request::Sync(CompletionGuard::new(Arc::clone(&handoff)));
        drop(req);
        assert!(handoff.is_abandoned());
        assert!(!handoff.is_ready());
    }
}
