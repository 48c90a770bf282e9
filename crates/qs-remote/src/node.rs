//! Remote handler nodes and client proxies.
//!
//! A [`RemoteNode`] plays the role of a SCOOP handler whose private queues
//! are byte streams instead of shared-memory SPSC queues.  It is one
//! [`qs_runtime::Handler`] on a runtime of its own plus a serving thread:
//! every block — an in-process [`RemoteProxy`] registering a channel pair
//! (requests out, responses back), or a socket accepted by
//! [`RemoteNode::listen`] — reaches that thread as a private queue, in
//! arrival order, and the thread serves one private queue at a time with
//! [`BlockServer::serve_block`], the block server `qs-cluster` nodes use
//! too.  The §2.2 reasoning guarantees carry over unchanged: each block
//! runs inside [`qs_runtime::Handler::separate`], so its frames are applied
//! in order and blocks are never interleaved.
//!
//! The serving thread is the handler's client, so the runtime's
//! optimisations apply to it: a query runs on the serving thread after a
//! sync (§3.2), the calls that arrived with it run inside that query, and a
//! block that ends synced steps the handler without waking a pool worker.
//! Two differences from the in-memory runtime are forced by the byte
//! stream:
//!
//! * the client cannot touch remote memory, so its analogue of the §3.2
//!   optimisation is *sync coalescing*: a query implies synchronisation, so
//!   an immediately following `sync` is elided;
//! * calls carry method names and serialised arguments ([`crate::registry`])
//!   rather than closures.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use qs_runtime::{Runtime, RuntimeConfig};

use crate::channel::{byte_channel, ByteReceiver, ByteSender, ChannelConfig, RecvError};
use crate::registry::RemoteObject;
use crate::server::{BlockServer, NodeStats};
use crate::transport::{NodeAddr, NodeListener, SocketFile};
use crate::wire::{Frame, WireValue, WIRE_VERSION};

/// One block's streams, as the serving thread receives them: its requests
/// and where to answer them.
type PrivateQueue = (ByteReceiver, ByteSender);

struct NodeShared {
    name: String,
    channel_config: ChannelConfig,
    /// Where blocks register for the serving thread; `None` once the node
    /// has stopped, which ends the serving thread's loop after the blocks
    /// already registered.
    queues: Mutex<Option<mpsc::Sender<PrivateQueue>>>,
    /// Socket listeners feeding this node: the address [`RemoteNode::stop`]
    /// dials once to unblock the accept loop, and for Unix sockets the file
    /// it then removes.
    listeners: Mutex<Vec<(NodeAddr, Option<SocketFile>)>>,
}

impl NodeShared {
    /// Hands a private queue to the serving thread.  A stopped node drops
    /// it instead, so the client's queries observe `Disconnected` rather
    /// than waiting for a reply that will never come.
    fn register(&self, queue: PrivateQueue) {
        if let Some(queues) = &*self.queues.lock() {
            let _ = queues.send(queue);
        }
    }

    fn is_stopped(&self) -> bool {
        self.queues.lock().is_none()
    }

    /// Stops accepting new private queues and retires the socket listeners.
    fn stop(&self) {
        self.queues.lock().take();
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
pub struct RemoteNode<T: Send + 'static> {
    shared: Arc<NodeShared>,
    server: Arc<BlockServer<T>>,
    runtime: Runtime,
    /// The serving thread, which returns the object once it has served the
    /// last block and shut the handler down.
    thread: Option<JoinHandle<Option<T>>>,
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
    /// The invoked method reported an error (or panicked).
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
    /// Spawns a node hosting `object`; private queues created by proxies
    /// use `channel_config` (latency / capacity injection).
    pub fn spawn(name: &str, object: RemoteObject<T>, channel_config: ChannelConfig) -> Self {
        // One handler needs one pool worker.
        let runtime = Runtime::new(RuntimeConfig::default().with_workers(1));
        let handler = runtime.spawn_handler(object.state);
        let server = BlockServer::new(object.registry);
        let (queues, arrivals) = mpsc::channel::<PrivateQueue>();
        let serving = Arc::clone(&server);
        let thread = std::thread::Builder::new()
            .name(format!("remote-node-{name}"))
            .spawn(move || {
                for (requests, responses) in arrivals {
                    match requests.recv_frame() {
                        Ok(Frame::Hello { version, .. }) if version == WIRE_VERSION => {
                            let _ = serving.serve_block(&handler, &requests, &responses);
                        }
                        Err(RecvError::Closed) => {}
                        Ok(_) | Err(_) => serving.protocol_error(),
                    }
                }
                handler.shutdown_and_take()
            })
            .expect("spawn remote node thread");
        RemoteNode {
            shared: Arc::new(NodeShared {
                name: name.to_string(),
                channel_config,
                queues: Mutex::new(Some(queues)),
                listeners: Mutex::new(Vec::new()),
            }),
            server,
            runtime,
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
        self.server.stats(&self.runtime)
    }

    /// Serves socket connections on `listener`: each accepted connection is
    /// one separate block, queued for the serving thread alongside the
    /// in-process proxies' blocks.  Returns the bound address (with any
    /// ephemeral TCP port resolved) for clients to dial with
    /// [`SocketProxy::new`].
    pub fn listen(&self, listener: NodeListener) -> std::io::Result<NodeAddr> {
        let addr = listener.local_addr()?;
        self.shared
            .listeners
            .lock()
            .push((addr.clone(), listener.socket_file()));
        let shared = Arc::clone(&self.shared);
        std::thread::Builder::new()
            .name(format!("remote-accept-{}", self.shared.name))
            .spawn(move || {
                while let Ok((responses, requests)) = listener.accept() {
                    // Also covers the wake-up connection stop() makes.
                    if shared.is_stopped() {
                        return;
                    }
                    shared.register((requests, responses));
                }
            })
            .expect("spawn remote accept thread");
        Ok(addr)
    }

    /// Stops accepting new private queues; already-registered blocks are
    /// still served.  When this returns, the socket files of the node's
    /// Unix listeners are gone and their paths free to bind again.
    pub fn stop(&self) {
        self.shared.stop();
    }

    /// Stops the node, waits for the serving thread to serve the blocks
    /// already registered, and returns the final object state.
    pub fn shutdown_and_take(mut self) -> Option<T> {
        self.stop();
        self.thread.take()?.join().ok().flatten()
    }
}

impl<T: Send + 'static> Drop for RemoteNode<T> {
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

impl RemoteProxy {
    /// Opens a separate block against the node: hands a fresh byte-channel
    /// private queue to the node, runs `body`, then logs the END marker
    /// (Fig. 8 over the wire).  Calls logged after the body's last query or
    /// sync go out with that marker; a body that needs to know they were
    /// delivered ends the block itself with [`RemoteSeparate::end`].
    pub fn separate<R>(&self, body: impl FnOnce(&mut RemoteSeparate) -> R) -> R {
        let (request_tx, request_rx) = byte_channel(self.shared.channel_config);
        let (response_tx, response_rx) = byte_channel(self.shared.channel_config);
        self.shared.register((request_rx, response_tx));
        let mut guard = RemoteSeparate::over(
            request_tx,
            response_rx,
            self.shared.channel_config.response_timeout,
        )
        .with_prologue(&Frame::Hello {
            version: WIRE_VERSION,
            client: self.client.clone(),
        });
        let result = body(&mut guard);
        let _ = guard.end();
        result
    }

    /// Fire-and-forget convenience: a single asynchronous call in its own
    /// block.  Fails with [`RemoteError::Disconnected`] when the call could
    /// not be written, e.g. because the node has stopped.
    pub fn call_detached(&self, method: &str, args: Vec<WireValue>) -> Result<(), RemoteError> {
        self.separate(|s| {
            s.call(method, args)?;
            s.end()
        })
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
    /// [`RemoteError::Disconnected`] if the node cannot be reached, or if
    /// the block's final write does not go through (see
    /// [`RemoteSeparate::end`]).
    pub fn separate<R>(
        &self,
        body: impl FnOnce(&mut RemoteSeparate) -> R,
    ) -> Result<R, RemoteError> {
        let (requests, responses) = self.addr.connect().map_err(|_| RemoteError::Disconnected)?;
        let mut guard = RemoteSeparate::over(requests, responses, self.response_timeout)
            .with_prologue(&Frame::Hello {
                version: WIRE_VERSION,
                client: self.client.clone(),
            });
        let result = body(&mut guard);
        guard.end()?;
        Ok(result)
    }

    /// The address this proxy dials.
    pub fn addr(&self) -> &NodeAddr {
        &self.addr
    }
}

/// Dials a replacement connection for a block whose first write failed
/// (see [`RemoteSeparate::with_redial`]).
type Redial = Box<dyn FnOnce() -> Result<(ByteSender, ByteReceiver), RemoteError> + Send>;

/// How many encoded bytes a block buffers before a call writes them: a long
/// run of calls goes out in pieces of about this size, so neither the
/// client's buffer nor what the node holds of it grows with the run.
const FLUSH_AT: usize = 16 * 1024;

/// One client's reservation of a remote node for the duration of a block.
///
/// Frames are encoded into a per-block buffer and written together at the
/// block's sync points: a query or sync writes everything logged since the
/// last write, then waits for its reply, and the end writes the rest.  A
/// call therefore reaches the node with the next query, sync or end, not at
/// once — which no client can observe, because the block holds the handler
/// until its `End`, and `End` is always written.  A run of calls that fills
/// 16 KiB of buffer is written at the call that fills it instead.
pub struct RemoteSeparate {
    requests: ByteSender,
    responses: ByteReceiver,
    response_timeout: Option<Duration>,
    /// Frames logged since the last write.
    pending: Vec<u8>,
    /// Taken by the first write: only that one may redial.
    redial: Option<Redial>,
    synced: bool,
    ended: bool,
    failed: bool,
}

impl RemoteSeparate {
    /// Builds a block guard over an already-connected request/response
    /// stream pair, sending no prologue — the caller adds any handshake with
    /// [`with_prologue`](Self::with_prologue) ([`RemoteProxy::separate`]
    /// puts `Hello` there, a cluster client `Open`).  A pooled connection
    /// survives the guard: the block ends with an explicit `End` frame, not
    /// by closing the stream, and [`halves`](Self::halves) hands it back.
    pub fn over(
        requests: ByteSender,
        responses: ByteReceiver,
        response_timeout: Option<Duration>,
    ) -> RemoteSeparate {
        RemoteSeparate {
            requests,
            responses,
            response_timeout,
            // Room for a typical block (an `Open`, a few calls and a query)
            // without regrowing.
            pending: Vec::with_capacity(256),
            redial: None,
            synced: false,
            ended: false,
            failed: false,
        }
    }

    /// Puts `frame` ahead of the block's body, in its first write.
    pub fn with_prologue(mut self, frame: &Frame) -> RemoteSeparate {
        self.log(frame);
        self
    }

    /// Lets the block's first write fall back to a fresh connection once.
    /// If that write fails — the pooled connection died while idle — no
    /// frame of the block has reached a node, so `redial` dials a
    /// replacement (performing any connection handshake itself) and the
    /// buffered prologue and body are written there instead.  A write that
    /// fails after the first has reached the connection never redials: the
    /// node may hold part of the block, and the block is marked failed.
    pub fn with_redial(
        mut self,
        redial: impl FnOnce() -> Result<(ByteSender, ByteReceiver), RemoteError> + Send + 'static,
    ) -> RemoteSeparate {
        self.redial = Some(Box::new(redial));
        self
    }

    /// The connection the block ran on — after a redial, the replacement —
    /// for a pooling layer to reuse once the block has ended unfailed.
    pub fn halves(&self) -> (ByteSender, ByteReceiver) {
        (self.requests.clone(), self.responses.clone())
    }

    fn log(&mut self, frame: &Frame) {
        let at = self.pending.len();
        crate::wire::encode_frame_into(frame, &mut self.pending);
        qs_obs::trace(
            qs_obs::TraceKind::FrameSend,
            (self.pending.len() - at) as u64,
            0,
        );
    }

    /// Writes the frames logged since the last write, as one write.
    fn flush(&mut self) -> Result<(), RemoteError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let redial = self.redial.take();
        let mut sent = self.requests.send_bytes(&self.pending);
        if let (Err(_), Some(redial)) = (sent, redial) {
            let (requests, responses) = redial().map_err(|e| self.fail(e))?;
            self.requests = requests;
            self.responses = responses;
            sent = self.requests.send_bytes(&self.pending);
        }
        self.pending.clear();
        sent.map_err(|_| self.fail(RemoteError::Disconnected))
    }

    /// Logs an asynchronous command (the `call` rule).  The frame is only
    /// buffered — the socket is not touched until the buffer holds 16 KiB —
    /// so a failure to deliver it surfaces at that call, or at the block's
    /// next query, sync or [`end`](Self::end).
    pub fn call(&mut self, method: &str, args: Vec<WireValue>) -> Result<(), RemoteError> {
        assert!(!self.ended, "call after the separate block ended");
        self.synced = false;
        self.log(&Frame::Call {
            method: method.to_string(),
            args,
        });
        if self.pending.len() >= FLUSH_AT {
            self.flush()?;
        }
        Ok(())
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

    /// Performs a synchronous query and returns its value (the `query`
    /// rule): writes everything logged so far together with the query.
    pub fn query(&mut self, method: &str, args: Vec<WireValue>) -> Result<WireValue, RemoteError> {
        assert!(!self.ended, "query after the separate block ended");
        let round_trip = qs_obs::timer();
        self.log(&Frame::Query {
            method: method.to_string(),
            args,
        });
        self.flush()?;
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
        self.log(&Frame::Sync);
        self.flush()?;
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
    /// failure (timeout, disconnect, malformed or refused response, or a
    /// write that did not go through).  A pooling layer must discard such a
    /// connection instead of reusing it — a timed-out socket stream may be
    /// desynchronised.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Ends the block, writing whatever is still buffered followed by
    /// `End` (logged automatically when the guard is dropped).
    ///
    /// Fails with [`RemoteError::Disconnected`] when that write does not go
    /// through, so the calls logged since the last query or sync may not
    /// have reached the node.  A block that had already failed reports
    /// nothing more here — its error went to the operation that hit it —
    /// and ending an ended block is a no-op.
    pub fn end(&mut self) -> Result<(), RemoteError> {
        if self.ended {
            return Ok(());
        }
        self.ended = true;
        let failed_before = self.failed;
        self.log(&Frame::End);
        match self.flush() {
            Err(error) if !failed_before => Err(error),
            _ => Ok(()),
        }
    }
}

impl Drop for RemoteSeparate {
    fn drop(&mut self) {
        let _ = self.end();
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

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
    fn a_panicking_method_leaves_the_node_serving() {
        let registry = counter_registry().with("explode", |_, _| panic!("explode called"));
        let node = RemoteNode::spawn(
            "fragile",
            RemoteObject::new(0i64, registry),
            ChannelConfig::fast().with_response_timeout(Duration::from_secs(2)),
        );
        let proxy = node.proxy("client");
        let started = std::time::Instant::now();
        proxy.call_detached("add", vec![WireValue::Int(4)]).unwrap();
        proxy.call_detached("explode", vec![]).unwrap();
        let err = proxy.query_detached("explode", vec![]).unwrap_err();
        assert_eq!(
            err,
            RemoteError::Application("method `explode` panicked".into())
        );
        assert_eq!(proxy.query_detached("value", vec![]), Ok(WireValue::Int(4)));
        assert!(started.elapsed() < Duration::from_secs(2), "a reply waited");
        let stats = node.stats();
        assert_eq!(stats.call_panics, 1);
        assert_eq!(stats.application_errors, 2);
        assert_eq!(node.shutdown_and_take(), Some(4));
    }

    #[test]
    fn calls_sent_with_their_query_run_at_its_sync_without_a_worker() {
        let node = counter_node("fold");
        let proxy = node.proxy("client");
        proxy.query_detached("value", vec![]).unwrap();
        let runtime_counts =
            |stats: NodeStats| (stats.runtime_calls_enqueued, stats.runtime_handler_wakeups);

        // Hello, three adds and the query go out in one write; the serving
        // thread applies the adds inside the query's sync, so the runtime
        // neither enqueues a call nor wakes a worker.
        let before = runtime_counts(node.stats());
        for block in 1..=200 {
            let value = proxy.separate(|s| {
                for amount in 1..=3 {
                    s.call("add", vec![WireValue::Int(amount)]).unwrap();
                }
                s.query("value", vec![]).unwrap()
            });
            assert_eq!(value, WireValue::Int(6 * block), "block {block}");
        }
        assert_eq!(runtime_counts(node.stats()), before);

        // Without a query the adds arrive with `End` and are logged as
        // calls: every one reaches the handler through the pool.
        for _ in 0..200 {
            proxy.separate(|s| {
                for amount in 1..=3 {
                    s.call("add", vec![WireValue::Int(amount)]).unwrap();
                }
            });
        }
        assert_eq!(
            proxy.query_detached("value", vec![]),
            Ok(WireValue::Int(2400))
        );
        assert_eq!(node.stats().runtime_calls_enqueued - before.0, 600);
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

    fn add(amount: i64) -> Frame {
        Frame::Call {
            method: "add".into(),
            args: vec![WireValue::Int(amount)],
        }
    }

    #[test]
    fn calls_wait_for_the_next_sync_point_and_go_out_in_one_write() {
        let (requests, node_side) = byte_channel(ChannelConfig::fast());
        let (_responses_tx, responses) = byte_channel(ChannelConfig::fast());
        let mut guard = RemoteSeparate::over(requests, responses, None)
            .with_prologue(&Frame::Open { handler: 3 });
        guard.call("add", vec![WireValue::Int(1)]).unwrap();
        guard.call("add", vec![WireValue::Int(2)]).unwrap();
        assert_eq!(node_side.buffered_bytes(), 0, "a call wrote to the stream");
        guard.end().unwrap();
        for frame in [Frame::Open { handler: 3 }, add(1), add(2), Frame::End] {
            assert_eq!(node_side.recv_frame().unwrap(), frame);
        }
        assert!(!node_side.has_frame());
    }

    #[test]
    fn a_failed_first_write_redials_once_and_sends_the_block_there() {
        let (dead_requests, dead_node) = byte_channel(ChannelConfig::fast());
        drop(dead_node);
        let (_dead_responses_tx, dead_responses) = byte_channel(ChannelConfig::fast());
        let (live_requests, live_node) = byte_channel(ChannelConfig::fast());
        let (live_responses_tx, live_responses) = byte_channel(ChannelConfig::fast());
        // The reply is queued up front, so the block's sync needs no peer
        // thread.
        live_responses_tx.send_frame(&Frame::SyncAck).unwrap();
        let dials = Arc::new(AtomicU64::new(0));
        let counted = Arc::clone(&dials);
        let replacement = (live_requests, live_responses);
        let mut guard =
            RemoteSeparate::over(dead_requests, dead_responses, Some(Duration::from_secs(5)))
                .with_prologue(&Frame::Open { handler: 7 })
                .with_redial(move || {
                    counted.fetch_add(1, Ordering::Relaxed);
                    Ok(replacement)
                });
        guard.call("add", vec![WireValue::Int(1)]).unwrap();
        guard.call("add", vec![WireValue::Int(2)]).unwrap();
        guard.sync().unwrap();
        guard.end().unwrap();
        assert!(!guard.is_failed());
        assert_eq!(dials.load(Ordering::Relaxed), 1);
        // The live peer got the prologue and the body exactly once.
        for frame in [
            Frame::Open { handler: 7 },
            add(1),
            add(2),
            Frame::Sync,
            Frame::End,
        ] {
            assert_eq!(live_node.recv_frame().unwrap(), frame);
        }
        assert!(!live_node.has_frame());
        // `halves()` is the replacement pair.
        let (requests, responses) = guard.halves();
        requests.send_frame(&Frame::Sync).unwrap();
        assert_eq!(live_node.recv_frame().unwrap(), Frame::Sync);
        live_responses_tx.send_frame(&Frame::SyncAck).unwrap();
        assert_eq!(responses.recv_frame().unwrap(), Frame::SyncAck);
    }

    #[test]
    fn a_write_failing_after_the_first_never_redials() {
        let (requests, node_side) = byte_channel(ChannelConfig::fast());
        let (responses_tx, responses) = byte_channel(ChannelConfig::fast());
        responses_tx.send_frame(&Frame::SyncAck).unwrap();
        let dials = Arc::new(AtomicU64::new(0));
        let counted = Arc::clone(&dials);
        let mut guard = RemoteSeparate::over(requests, responses, Some(Duration::from_secs(5)))
            .with_prologue(&Frame::Open { handler: 1 })
            .with_redial(move || {
                counted.fetch_add(1, Ordering::Relaxed);
                Err(RemoteError::Disconnected)
            });
        guard.call("add", vec![WireValue::Int(1)]).unwrap();
        guard.sync().unwrap();
        // The node has part of the block; now its end of the stream closes.
        drop(node_side);
        guard.call("add", vec![WireValue::Int(2)]).unwrap();
        assert_eq!(guard.sync(), Err(RemoteError::Disconnected));
        assert!(guard.is_failed());
        assert_eq!(dials.load(Ordering::Relaxed), 0);
        // The sync already reported the failure; the end adds nothing.
        assert_eq!(guard.end(), Ok(()));
    }

    #[test]
    fn an_end_whose_write_fails_reports_it() {
        let (requests, node_side) = byte_channel(ChannelConfig::fast());
        let (_responses_tx, responses) = byte_channel(ChannelConfig::fast());
        drop(node_side);
        let mut guard = RemoteSeparate::over(requests, responses, None)
            .with_prologue(&Frame::Open { handler: 1 });
        // Buffered, so the call itself cannot know.
        guard.call("add", vec![WireValue::Int(1)]).unwrap();
        assert_eq!(guard.end(), Err(RemoteError::Disconnected));
        assert!(guard.is_failed());
        assert_eq!(guard.end(), Ok(()), "ending twice is a no-op");
    }

    #[test]
    fn call_detached_on_a_stopped_node_fails() {
        let node = counter_node("counter");
        let proxy = node.proxy("client");
        proxy.call_detached("add", vec![WireValue::Int(1)]).unwrap();
        node.stop();
        assert_eq!(
            proxy.call_detached("add", vec![WireValue::Int(1)]),
            Err(RemoteError::Disconnected)
        );
    }

    #[test]
    fn a_long_run_of_calls_is_written_in_bounded_pieces() {
        let (requests, node_side) = byte_channel(ChannelConfig::fast());
        let (_responses_tx, responses) = byte_channel(ChannelConfig::fast());
        let mut guard = RemoteSeparate::over(requests, responses, None)
            .with_prologue(&Frame::Open { handler: 1 });
        let calls = 100_000;
        let mut writes = 0;
        let mut written = 0;
        for i in 0..calls {
            guard.call("add", vec![WireValue::Int(i)]).unwrap();
            assert!(
                guard.pending.len() < FLUSH_AT,
                "call {i} left a full buffer"
            );
            let now = node_side.buffered_bytes();
            if now > written {
                // One write: the buffer that had just reached the limit.
                assert!(
                    now - written < FLUSH_AT + 64,
                    "a write of {}",
                    now - written
                );
                writes += 1;
                written = now;
            }
        }
        // The node had most of the block before its end.
        assert!(writes >= 100, "only {writes} writes for {calls} calls");
        guard.end().unwrap();
        assert_eq!(node_side.recv_frame().unwrap(), Frame::Open { handler: 1 });
        for i in 0..calls {
            assert_eq!(node_side.recv_frame().unwrap(), add(i));
        }
        assert_eq!(node_side.recv_frame().unwrap(), Frame::End);
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
