//! Remote handler nodes and client proxies.
//!
//! A [`RemoteNode`] plays the role of a SCOOP handler whose private queues
//! are byte streams instead of shared-memory SPSC queues: clients register a
//! channel pair (requests out, responses back) on the node's queue-of-queues,
//! and the node drains one private queue at a time — exactly the Fig. 7 loop,
//! with `recv_frame` in place of `dequeue`.  The §2.2 reasoning guarantees
//! carry over unchanged: frames of one block are applied in order and blocks
//! are never interleaved, because the node finishes a private queue before
//! taking the next.
//!
//! Differences from the in-memory runtime, all forced by the byte stream:
//!
//! * queries are handler-executed (the client cannot touch remote memory),
//!   so the §3.2 client-executed-query optimisation does not apply — its
//!   remote analogue is *sync coalescing*, which is implemented: a query
//!   implies synchronisation, so an immediately following `sync` is elided;
//! * calls carry method names and serialised arguments ([`crate::registry`])
//!   rather than closures.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use qs_queues::{Closed, QueueOfQueues};

use crate::channel::{byte_channel, ByteReceiver, ByteSender, ChannelConfig, RecvError};
use crate::registry::RemoteObject;
use crate::transport::{NodeAddr, NodeListener, SocketFile};
use crate::wire::{Frame, WireValue, WIRE_VERSION};

/// Counters describing one node's activity (the remote analogue of
/// `qs_runtime::RuntimeStats`).
#[derive(Debug, Default)]
struct NodeCounters {
    blocks_served: AtomicU64,
    calls_applied: AtomicU64,
    queries_applied: AtomicU64,
    syncs_acked: AtomicU64,
    application_errors: AtomicU64,
    protocol_errors: AtomicU64,
}

/// A point-in-time copy of a node's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Private queues (separate blocks) fully served.
    pub blocks_served: u64,
    /// Asynchronous calls applied.
    pub calls_applied: u64,
    /// Queries applied (and answered).
    pub queries_applied: u64,
    /// Sync tokens acknowledged.
    pub syncs_acked: u64,
    /// Application-level method errors (reported to clients for queries,
    /// counted for calls).
    pub application_errors: u64,
    /// Malformed or unexpected frames.
    pub protocol_errors: u64,
}

struct NodeShared {
    name: String,
    qoq: QueueOfQueues<(ByteReceiver, ByteSender)>,
    /// The serving thread, which parks between private queues: unparked
    /// after every registration on `qoq` and on close (the queue-of-queues
    /// itself wakes nobody).  Set before any proxy exists.
    server: std::sync::OnceLock<std::thread::Thread>,
    channel_config: ChannelConfig,
    counters: NodeCounters,
    /// Socket listeners feeding this node's queue-of-queues: the address
    /// [`RemoteNode::stop`] dials once to unblock the accept loop, and for
    /// Unix sockets the file it then removes.
    listeners: Mutex<Vec<(NodeAddr, Option<SocketFile>)>>,
}

impl NodeShared {
    /// Registers a private queue and wakes the serving thread to it.
    fn register(&self, queue: (ByteReceiver, ByteSender)) {
        self.qoq.enqueue(queue);
        self.wake_server();
    }

    fn wake_server(&self) {
        if let Some(server) = self.server.get() {
            server.unpark();
        }
    }

    /// Stops accepting new private queues and retires the socket listeners.
    fn stop(&self) {
        self.qoq.close();
        self.wake_server();
        for (addr, socket_file) in self.listeners.lock().drain(..) {
            // Unblock the accept loop so its thread exits.
            let _ = addr.connect();
            // The accept thread drops its listener only once that dial
            // reaches it — too late for a successor binding the same path
            // straight after this call returns, whose file the late unlink
            // would take.  Remove ours now, while the path still names it.
            if let Some(file) = socket_file {
                file.unlink();
            }
        }
    }
}

/// A handler node owning one remote object and serving clients over byte
/// channels.
pub struct RemoteNode<T> {
    shared: Arc<NodeShared>,
    final_state: Arc<Mutex<Option<T>>>,
    thread: Option<JoinHandle<()>>,
}

/// A client-side handle used to open separate blocks against a node.
#[derive(Clone)]
pub struct RemoteProxy {
    shared: Arc<NodeShared>,
    client: String,
}

/// Errors surfaced to remote clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoteError {
    /// The node shut down or the channel closed.
    Disconnected,
    /// The node did not answer within the configured
    /// [`ChannelConfig::response_timeout`] — a dead or wedged peer.  The
    /// block's connection must be abandoned (socket streams may be
    /// desynchronised after a timeout).
    Timeout,
    /// The node answered with something unexpected (protocol violation).
    Protocol(String),
    /// The invoked method reported an error.
    Application(String),
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Disconnected => f.write_str("remote handler disconnected"),
            RemoteError::Timeout => f.write_str("remote handler did not answer in time"),
            RemoteError::Protocol(m) => write!(f, "protocol error: {m}"),
            RemoteError::Application(m) => write!(f, "application error: {m}"),
        }
    }
}

impl std::error::Error for RemoteError {}

impl<T: Send + 'static> RemoteNode<T> {
    /// Spawns a node thread hosting `object`; private queues created by
    /// proxies use `channel_config` (latency / capacity injection).
    pub fn spawn(name: &str, object: RemoteObject<T>, channel_config: ChannelConfig) -> Self {
        let shared = Arc::new(NodeShared {
            name: name.to_string(),
            qoq: QueueOfQueues::new(),
            server: std::sync::OnceLock::new(),
            channel_config,
            counters: NodeCounters::default(),
            listeners: Mutex::new(Vec::new()),
        });
        let final_state = Arc::new(Mutex::new(None));
        let thread_shared = Arc::clone(&shared);
        let thread_final = Arc::clone(&final_state);
        let thread = std::thread::Builder::new()
            .name(format!("remote-node-{name}"))
            .spawn(move || {
                let mut object = object;
                serve(&thread_shared, &mut object);
                *thread_final.lock() = Some(object.state);
            })
            .expect("spawn remote node thread");
        // The serving thread polls the queue-of-queues and parks in between;
        // its handle is in place before any proxy exists to enqueue.
        let _ = shared.server.set(thread.thread().clone());
        RemoteNode {
            shared,
            final_state,
            thread: Some(thread),
        }
    }

    /// The node's name.
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// Creates a client proxy for this node.
    pub fn proxy(&self, client: &str) -> RemoteProxy {
        RemoteProxy {
            shared: Arc::clone(&self.shared),
            client: client.to_string(),
        }
    }

    /// A snapshot of the node's counters.
    pub fn stats(&self) -> NodeStats {
        let c = &self.shared.counters;
        NodeStats {
            blocks_served: c.blocks_served.load(Ordering::Relaxed),
            calls_applied: c.calls_applied.load(Ordering::Relaxed),
            queries_applied: c.queries_applied.load(Ordering::Relaxed),
            syncs_acked: c.syncs_acked.load(Ordering::Relaxed),
            application_errors: c.application_errors.load(Ordering::Relaxed),
            protocol_errors: c.protocol_errors.load(Ordering::Relaxed),
        }
    }

    /// Serves socket connections on `listener`: each accepted connection is
    /// one separate block — its frames form a private queue registered on
    /// the node's queue-of-queues, so remote clients interleave with
    /// in-process proxies under the same Fig. 7 loop.  Returns the bound
    /// address (with any ephemeral TCP port resolved) for clients to dial
    /// with [`SocketProxy::connect`].
    pub fn listen(&self, listener: NodeListener) -> std::io::Result<NodeAddr> {
        let addr = listener.local_addr()?;
        self.shared
            .listeners
            .lock()
            .push((addr.clone(), listener.socket_file()));
        let shared = Arc::clone(&self.shared);
        std::thread::Builder::new()
            .name(format!("remote-accept-{}", self.shared.name))
            .spawn(move || loop {
                match listener.accept() {
                    Ok((responses, requests)) => {
                        if shared.qoq.is_closed() {
                            // Also covers the wake-up connection stop() makes.
                            return;
                        }
                        shared.register((requests, responses));
                    }
                    Err(_) => return,
                }
            })
            .expect("spawn remote accept thread");
        Ok(addr)
    }

    /// Stops accepting new private queues; already-registered blocks are
    /// still drained.  When this returns, the socket files of the node's
    /// Unix listeners are gone and their paths free to bind again.
    pub fn stop(&self) {
        self.shared.stop();
    }

    /// Stops the node, waits for the serving thread and returns the final
    /// object state.
    pub fn shutdown_and_take(mut self) -> Option<T> {
        self.stop();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        self.final_state.lock().take()
    }
}

impl<T> Drop for RemoteNode<T> {
    fn drop(&mut self) {
        self.shared.stop();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl<T: Send + 'static> std::fmt::Debug for RemoteNode<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteNode")
            .field("name", &self.shared.name)
            .field("stats", &self.stats())
            .finish()
    }
}

/// The node's serving loop: Fig. 7 over byte channels.  Between private
/// queues the thread parks; every registration and the close unpark it,
/// and an unpark that lands between an empty poll and the park stays
/// pending and ends the park at once.
fn serve<T>(shared: &Arc<NodeShared>, object: &mut RemoteObject<T>) {
    loop {
        match shared.qoq.try_dequeue() {
            Ok(Some((requests, responses))) => {
                serve_private_queue(shared, object, &requests, &responses);
                shared
                    .counters
                    .blocks_served
                    .fetch_add(1, Ordering::Relaxed);
            }
            Ok(None) => std::thread::park(),
            Err(Closed) => return,
        }
    }
}

fn serve_private_queue<T>(
    shared: &Arc<NodeShared>,
    object: &mut RemoteObject<T>,
    requests: &ByteReceiver,
    responses: &ByteSender,
) {
    loop {
        match requests.recv_frame() {
            Ok(Frame::Hello { version, .. }) => {
                if version != WIRE_VERSION {
                    shared
                        .counters
                        .protocol_errors
                        .fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
            Ok(Frame::Call { method, args }) => {
                shared
                    .counters
                    .calls_applied
                    .fetch_add(1, Ordering::Relaxed);
                if object.apply(&method, &args).is_err() {
                    // An asynchronous call has nobody to report to; count it,
                    // matching the in-memory runtime's `call_panics` counter.
                    shared
                        .counters
                        .application_errors
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
            Ok(Frame::Query { method, args }) => {
                shared
                    .counters
                    .queries_applied
                    .fetch_add(1, Ordering::Relaxed);
                let result = object.apply(&method, &args);
                if result.is_err() {
                    shared
                        .counters
                        .application_errors
                        .fetch_add(1, Ordering::Relaxed);
                }
                if responses
                    .send_frame(&Frame::QueryResult { result })
                    .is_err()
                {
                    return;
                }
            }
            Ok(Frame::Sync) => {
                shared.counters.syncs_acked.fetch_add(1, Ordering::Relaxed);
                if responses.send_frame(&Frame::SyncAck).is_err() {
                    return;
                }
            }
            Ok(Frame::End) => return,
            Ok(unexpected) => {
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                let _ = unexpected;
                return;
            }
            Err(RecvError::Closed) => return,
            // The node reads without a deadline, but the arm keeps the match
            // exhaustive (and correct if that ever changes): a timeout means
            // the stream is unusable.
            Err(RecvError::TimedOut) => return,
            Err(RecvError::Malformed(_)) => {
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }
}

impl RemoteProxy {
    /// Opens a separate block against the node: registers a fresh byte-channel
    /// private queue on the node's queue-of-queues, runs `body`, then logs the
    /// END marker (Fig. 8 over the wire).
    pub fn separate<R>(&self, body: impl FnOnce(&mut RemoteSeparate) -> R) -> R {
        let (request_tx, request_rx) = byte_channel(self.shared.channel_config);
        let (response_tx, response_rx) = byte_channel(self.shared.channel_config);
        if self.shared.qoq.is_closed() {
            // The node has shut down: dropping the response sender here makes
            // every query/sync in the body observe `Disconnected` instead of
            // blocking on a reply that will never come.
            drop(response_tx);
            drop(request_rx);
        } else {
            self.shared.register((request_rx, response_tx));
        }
        let _ = request_tx.send_frame(&Frame::Hello {
            version: WIRE_VERSION,
            client: self.client.clone(),
        });
        let mut guard = RemoteSeparate::over(
            request_tx,
            response_rx,
            self.shared.channel_config.response_timeout,
        );
        let result = body(&mut guard);
        guard.end();
        result
    }

    /// Fire-and-forget convenience: a single asynchronous call in its own
    /// block.
    pub fn call_detached(&self, method: &str, args: Vec<WireValue>) -> Result<(), RemoteError> {
        self.separate(|s| s.call(method, args))
    }

    /// Convenience: a single query in its own block.
    pub fn query_detached(
        &self,
        method: &str,
        args: Vec<WireValue>,
    ) -> Result<WireValue, RemoteError> {
        self.separate(|s| s.query(method, args))
    }

    /// The client name this proxy registers under.
    pub fn client_name(&self) -> &str {
        &self.client
    }
}

impl std::fmt::Debug for RemoteProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteProxy")
            .field("node", &self.shared.name)
            .field("client", &self.client)
            .finish()
    }
}

/// A client-side handle opening separate blocks against a node that serves
/// sockets ([`RemoteNode::listen`]); the out-of-process counterpart of
/// [`RemoteProxy`].
///
/// Each block dials a fresh connection — connection = block, exactly
/// mirroring the in-process design where each block registers a fresh byte
/// channel.  (The `qs-cluster` crate layers pooled, multiplexed connections
/// on top for high block rates.)
#[derive(Debug, Clone)]
pub struct SocketProxy {
    addr: NodeAddr,
    client: String,
    response_timeout: Option<Duration>,
}

impl SocketProxy {
    /// Creates a proxy dialling `addr` for every block.
    pub fn new(addr: NodeAddr, client: &str) -> SocketProxy {
        SocketProxy {
            addr,
            client: client.to_string(),
            response_timeout: None,
        }
    }

    /// Bounds every query/sync wait, so a node process that dies mid-block
    /// surfaces [`RemoteError::Timeout`] instead of hanging.
    pub fn with_response_timeout(mut self, timeout: Duration) -> SocketProxy {
        self.response_timeout = Some(timeout);
        self
    }

    /// Opens a separate block over a fresh connection.  Fails with
    /// [`RemoteError::Disconnected`] if the node cannot be reached.
    pub fn separate<R>(
        &self,
        body: impl FnOnce(&mut RemoteSeparate) -> R,
    ) -> Result<R, RemoteError> {
        let (requests, responses) = self.addr.connect().map_err(|_| RemoteError::Disconnected)?;
        let _ = requests.send_frame(&Frame::Hello {
            version: WIRE_VERSION,
            client: self.client.clone(),
        });
        let mut guard = RemoteSeparate::over(requests, responses, self.response_timeout);
        let result = body(&mut guard);
        guard.end();
        Ok(result)
    }

    /// The address this proxy dials.
    pub fn addr(&self) -> &NodeAddr {
        &self.addr
    }
}

/// One client's reservation of a remote node for the duration of a block.
pub struct RemoteSeparate {
    requests: ByteSender,
    responses: ByteReceiver,
    response_timeout: Option<Duration>,
    synced: bool,
    ended: bool,
    failed: bool,
}

impl RemoteSeparate {
    /// Builds a block guard over an already-connected request/response
    /// stream pair, sending no prologue — the caller is responsible for any
    /// handshake ([`RemoteProxy::separate`] sends `Hello`, a cluster client
    /// sends `Open`).  The halves are clones, so a pooled connection
    /// survives the guard: the block ends with an explicit `End` frame, not
    /// by closing the stream.
    pub fn over(
        requests: ByteSender,
        responses: ByteReceiver,
        response_timeout: Option<Duration>,
    ) -> RemoteSeparate {
        RemoteSeparate {
            requests,
            responses,
            response_timeout,
            synced: false,
            ended: false,
            failed: false,
        }
    }

    /// Logs an asynchronous command (the `call` rule).
    pub fn call(&mut self, method: &str, args: Vec<WireValue>) -> Result<(), RemoteError> {
        assert!(!self.ended, "call after the separate block ended");
        self.synced = false;
        self.requests
            .send_frame(&Frame::Call {
                method: method.to_string(),
                args,
            })
            .map_err(|_| self.fail(RemoteError::Disconnected))
    }

    /// Waits for one response frame, converting transport failures and
    /// recording whether the underlying connection is still trustworthy.
    fn recv_response(&mut self) -> Result<Frame, RemoteError> {
        match self.responses.recv_frame_timeout(self.response_timeout) {
            Ok(Frame::Nack { message }) => {
                // The serving side refused this block (e.g. the handler does
                // not live on that cluster node).
                Err(self.fail(RemoteError::Protocol(format!("block refused: {message}"))))
            }
            Ok(frame) => Ok(frame),
            Err(RecvError::TimedOut) => Err(self.fail(RemoteError::Timeout)),
            Err(RecvError::Closed) => Err(self.fail(RemoteError::Disconnected)),
            Err(RecvError::Malformed(e)) => {
                Err(self.fail(RemoteError::Protocol(format!("malformed response: {e}"))))
            }
        }
    }

    fn fail(&mut self, error: RemoteError) -> RemoteError {
        self.failed = true;
        error
    }

    /// Performs a synchronous query and returns its value (the `query` rule).
    pub fn query(&mut self, method: &str, args: Vec<WireValue>) -> Result<WireValue, RemoteError> {
        assert!(!self.ended, "query after the separate block ended");
        let round_trip = qs_obs::timer();
        self.requests
            .send_frame(&Frame::Query {
                method: method.to_string(),
                args,
            })
            .map_err(|_| self.fail(RemoteError::Disconnected))?;
        let response = self.recv_response()?;
        round_trip.record(qs_obs::obs_histogram!("remote.call_rtt_ns"));
        match response {
            Frame::QueryResult { result } => {
                // Receiving the result implies the node drained everything we
                // logged before the query: the block is synchronised (§3.4).
                self.synced = true;
                result.map_err(RemoteError::Application)
            }
            other => Err(self.fail(RemoteError::Protocol(format!(
                "expected QueryResult, received {other:?}"
            )))),
        }
    }

    /// Performs an explicit synchronisation; elided if the block is already
    /// known to be synchronised (dynamic sync coalescing, §3.4.1).
    pub fn sync(&mut self) -> Result<(), RemoteError> {
        assert!(!self.ended, "sync after the separate block ended");
        if self.synced {
            return Ok(());
        }
        let round_trip = qs_obs::timer();
        self.requests
            .send_frame(&Frame::Sync)
            .map_err(|_| self.fail(RemoteError::Disconnected))?;
        let response = self.recv_response()?;
        round_trip.record(qs_obs::obs_histogram!("remote.call_rtt_ns"));
        match response {
            Frame::SyncAck => {
                self.synced = true;
                Ok(())
            }
            other => Err(self.fail(RemoteError::Protocol(format!(
                "expected SyncAck, received {other:?}"
            )))),
        }
    }

    /// Whether the node is known to have applied everything logged so far.
    pub fn is_synced(&self) -> bool {
        self.synced
    }

    /// Whether the block's connection suffered a transport or protocol
    /// failure (timeout, disconnect, malformed or refused response).  A
    /// pooling layer must discard such a connection instead of reusing it —
    /// a timed-out socket stream may be desynchronised.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Ends the block (logged automatically when the guard is dropped).
    pub fn end(&mut self) {
        if self.ended {
            return;
        }
        self.ended = true;
        let _ = self.requests.send_frame(&Frame::End);
    }
}

impl Drop for RemoteSeparate {
    fn drop(&mut self) {
        self.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{counter_registry, MethodRegistry};

    fn counter_node(name: &str) -> RemoteNode<i64> {
        RemoteNode::spawn(
            name,
            RemoteObject::new(0i64, counter_registry()),
            ChannelConfig::fast(),
        )
    }

    #[test]
    fn calls_and_queries_work_over_the_wire() {
        let node = counter_node("counter");
        let proxy = node.proxy("client-a");
        let value = proxy.separate(|s| {
            for i in 1..=10 {
                s.call("add", vec![WireValue::Int(i)]).unwrap();
            }
            s.query("value", vec![]).unwrap()
        });
        assert_eq!(value, WireValue::Int(55));
        let stats = node.stats();
        assert_eq!(stats.calls_applied, 10);
        assert_eq!(stats.queries_applied, 1);
        assert_eq!(node.shutdown_and_take(), Some(55));
    }

    #[test]
    fn blocks_from_concurrent_clients_never_interleave() {
        // The node's object records (client, seq) pairs; afterwards each
        // client's block must form a contiguous, ordered run.
        let registry = MethodRegistry::<Vec<(i64, i64)>>::new().with("record", |log, args| {
            let client = args[0].as_int()?;
            let seq = args[1].as_int()?;
            log.push((client, seq));
            Ok(WireValue::Unit)
        });
        let node = RemoteNode::spawn(
            "log",
            RemoteObject::new(Vec::new(), registry),
            ChannelConfig::fast(),
        );
        let mut threads = Vec::new();
        for client in 0..4i64 {
            let proxy = node.proxy(&format!("client-{client}"));
            threads.push(std::thread::spawn(move || {
                for _block in 0..5 {
                    proxy.separate(|s| {
                        for seq in 0..20i64 {
                            s.call("record", vec![WireValue::Int(client), WireValue::Int(seq)])
                                .unwrap();
                        }
                    });
                }
            }));
        }
        for thread in threads {
            thread.join().unwrap();
        }
        let log = node.shutdown_and_take().unwrap();
        assert_eq!(log.len(), 4 * 5 * 20);
        // Split into runs of 20 and check each is one client's 0..20 sequence.
        for chunk in log.chunks(20) {
            let client = chunk[0].0;
            for (i, &(c, seq)) in chunk.iter().enumerate() {
                assert_eq!(c, client, "block interleaved with another client");
                assert_eq!(seq, i as i64, "calls reordered within a block");
            }
        }
    }

    #[test]
    fn sync_coalescing_elides_redundant_syncs() {
        let node = counter_node("counter");
        let proxy = node.proxy("client");
        proxy.separate(|s| {
            s.call("add", vec![WireValue::Int(1)]).unwrap();
            s.sync().unwrap();
            assert!(s.is_synced());
            // Already synced: these must not produce extra round-trips.
            s.sync().unwrap();
            s.sync().unwrap();
            // A query also leaves the block synced.
            s.query("value", vec![]).unwrap();
            s.sync().unwrap();
            // A new call invalidates the synced state.
            s.call("add", vec![WireValue::Int(1)]).unwrap();
            assert!(!s.is_synced());
            s.sync().unwrap();
        });
        let stats = node.stats();
        assert_eq!(
            stats.syncs_acked, 2,
            "only two sync round-trips should reach the node"
        );
    }

    #[test]
    fn application_errors_are_reported_to_queries_and_counted_for_calls() {
        let node = counter_node("counter");
        let proxy = node.proxy("client");
        let err = proxy.query_detached("missing", vec![]).unwrap_err();
        assert!(matches!(err, RemoteError::Application(_)));
        proxy.call_detached("missing", vec![]).unwrap();
        // Wait until the node has drained the block, then check the counter.
        proxy.query_detached("value", vec![]).unwrap();
        let stats = node.stats();
        assert_eq!(stats.application_errors, 2);
        assert!(err.to_string().contains("no method"));
    }

    #[test]
    fn latency_injection_still_preserves_order() {
        let node = RemoteNode::spawn(
            "slow",
            RemoteObject::new(0i64, counter_registry()),
            ChannelConfig::with_latency(std::time::Duration::from_millis(1)),
        );
        let proxy = node.proxy("client");
        let value = proxy.separate(|s| {
            for _ in 0..5 {
                s.call("add", vec![WireValue::Int(2)]).unwrap();
            }
            s.query("value", vec![]).unwrap()
        });
        assert_eq!(value, WireValue::Int(10));
    }

    #[test]
    fn node_shutdown_disconnects_new_blocks() {
        let node = counter_node("counter");
        let proxy = node.proxy("client");
        node.stop();
        // The queue-of-queues is closed: new registrations are dropped and
        // queries observe the disconnect rather than hanging.
        let result = proxy.separate(|s| s.query("value", vec![]));
        assert_eq!(result, Err(RemoteError::Disconnected));
    }

    #[test]
    fn socket_proxy_round_trips_over_loopback_tcp() {
        let node = counter_node("sock");
        let addr = node
            .listen(NodeListener::bind(&NodeAddr::Tcp("127.0.0.1:0".into())).unwrap())
            .unwrap();
        let proxy = SocketProxy::new(addr, "tcp-client");
        let value = proxy
            .separate(|s| {
                s.call("add", vec![WireValue::Int(40)]).unwrap();
                s.call("add", vec![WireValue::Int(2)]).unwrap();
                s.query("value", vec![]).unwrap()
            })
            .unwrap();
        assert_eq!(value, WireValue::Int(42));
        assert_eq!(node.shutdown_and_take(), Some(42));
    }

    #[test]
    fn socket_blocks_from_many_clients_keep_block_atomicity() {
        let node = counter_node("sock-many");
        let addr = node
            .listen(NodeListener::bind(&NodeAddr::Tcp("127.0.0.1:0".into())).unwrap())
            .unwrap();
        let mut threads = Vec::new();
        for c in 0..4 {
            let proxy = SocketProxy::new(addr.clone(), &format!("client-{c}"));
            threads.push(std::thread::spawn(move || {
                for _ in 0..5 {
                    proxy
                        .separate(|s| {
                            s.call("add", vec![WireValue::Int(1)]).unwrap();
                            s.sync().unwrap();
                        })
                        .unwrap();
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(node.shutdown_and_take(), Some(20));
    }

    #[test]
    fn stopped_node_frees_its_unix_path_for_a_successor() {
        // bind, stop, rebind, dial: `stop()` removes the socket file before
        // it returns, so the first node's accept thread — which drops its
        // listener only when `stop()`'s wake-up dial reaches it, possibly
        // after the successor has bound — finds nothing of its own to unlink.
        let path = std::env::temp_dir().join(format!("qs-node-rebind-{}.sock", std::process::id()));
        let addr = NodeAddr::Unix(path.clone());
        for round in 0..20 {
            let first = counter_node("first");
            first.listen(NodeListener::bind(&addr).unwrap()).unwrap();
            first.stop();
            assert!(!path.exists(), "round {round}: stop() left its socket file");
            let successor = counter_node("successor");
            successor
                .listen(NodeListener::bind(&addr).unwrap())
                .unwrap();
            drop(first);
            let value = SocketProxy::new(addr.clone(), "client")
                .separate(|s| {
                    s.call("add", vec![WireValue::Int(round)]).unwrap();
                    s.query("value", vec![]).unwrap()
                })
                .unwrap_or_else(|e| panic!("round {round}: successor unreachable: {e}"));
            assert_eq!(value, WireValue::Int(round));
            assert_eq!(successor.shutdown_and_take(), Some(round));
        }
    }

    #[test]
    fn silent_peer_surfaces_timeout_not_a_hang() {
        // A "node" that accepts the connection and then goes silent: the
        // client's bounded query wait must report Timeout, and the guard
        // must mark its connection unusable.
        let listener = NodeListener::bind(&NodeAddr::Tcp("127.0.0.1:0".into())).unwrap();
        let addr = listener.local_addr().unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let silent = std::thread::spawn(move || {
            let conn = listener.accept().unwrap();
            let _ = done_rx.recv();
            drop(conn);
        });
        let proxy =
            SocketProxy::new(addr, "victim").with_response_timeout(Duration::from_millis(100));
        let (err, failed) = proxy
            .separate(|s| (s.query("value", vec![]).unwrap_err(), s.is_failed()))
            .unwrap();
        assert_eq!(err, RemoteError::Timeout);
        assert!(failed, "a timed-out block must be marked failed");
        done_tx.send(()).unwrap();
        silent.join().unwrap();
    }

    #[test]
    fn dead_peer_surfaces_disconnected() {
        // A "node" that dies (closes the connection) mid-block.
        let listener = NodeListener::bind(&NodeAddr::Tcp("127.0.0.1:0".into())).unwrap();
        let addr = listener.local_addr().unwrap();
        let killer = std::thread::spawn(move || drop(listener.accept().unwrap()));
        let proxy = SocketProxy::new(addr, "victim");
        let err = proxy
            .separate(|s| s.query("value", vec![]).unwrap_err())
            .unwrap();
        assert_eq!(err, RemoteError::Disconnected);
        killer.join().unwrap();
    }

    #[test]
    fn unreachable_node_fails_fast() {
        // Nobody is listening on this address (bind then drop releases it).
        let listener = NodeListener::bind(&NodeAddr::Tcp("127.0.0.1:0".into())).unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let proxy = SocketProxy::new(addr, "nobody-home");
        assert_eq!(
            proxy.separate(|_| ()).unwrap_err(),
            RemoteError::Disconnected
        );
    }

    #[test]
    fn debug_and_stats_are_exposed() {
        let node = counter_node("counter");
        let proxy = node.proxy("debug-client");
        assert!(format!("{node:?}").contains("counter"));
        assert!(format!("{proxy:?}").contains("debug-client"));
        assert_eq!(proxy.client_name(), "debug-client");
        assert_eq!(node.stats(), NodeStats::default());
    }
}
