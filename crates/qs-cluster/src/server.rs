//! The node process: a socket front-end over a pooled SCOOP/Qs runtime.
//!
//! A [`NodeServer`] is one shard of a cluster service.  It owns a
//! [`qs_runtime::Runtime`] (M:N pooled scheduling — tens of thousands of
//! idle handlers cost a few worker threads, PR 3's result) and hosts one
//! runtime handler per *service handler id* that clients open blocks
//! against.  Handlers are spawned lazily on first use; their state comes
//! from the service's factory.
//!
//! Each accepted connection gets a protocol-adapter thread translating wire
//! frames into runtime operations:
//!
//! ```text
//! Hello                — once per connection (version check)
//! Open{handler}        — begin a separate block against one handler
//!   Call/Query/Sync…   — the block body (Fig. 8 over the wire)
//! End                  — end the block; next Open may follow
//! Control{op, args}    — out-of-block management (ping/stats/ring/…)
//! ```
//!
//! Connections are *multiplexed*: one connection carries any number of
//! blocks against any handlers this node owns, in sequence.  After `Open`
//! the block is served by [`qs_remote::BlockServer::serve_block`] — the
//! block server a `qs_remote::RemoteNode` uses too — which maps it onto
//! [`qs_runtime::Handler::separate`], so the §2.2 reasoning guarantees
//! (per-block order, no interleaving) are enforced by the same runtime
//! machinery as in-process code.
//!
//! A cluster client writes a block's frames together, one write per sync
//! point (`Open`, the calls and the query arrive as one).  The block server
//! runs calls that arrived with a query or sync at that sync, on the
//! adapter thread, inside the query's own client-executed closure — so a
//! remote block wakes no pool worker and hands nothing back through the
//! scheduler.  The `stats` control op reports the block server's counters
//! with the runtime's `runtime_calls_enqueued` and
//! `runtime_handler_wakeups`, so the difference is visible from outside the
//! node; `call_panics` counts the panics of folded and logged calls alike,
//! and a query whose method panics is answered with an application error.
//!
//! Placement is checked on every `Open`: the node routes the handler id on
//! its own copy of the [`HashRing`] and answers [`Frame::Nack`] when the
//! handler belongs to a different node — a routing bug fails loudly instead
//! of silently splitting a handler's state across nodes.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;
use qs_remote::transport::{NodeAddr, NodeListener};
use qs_remote::wire::{Frame, WireValue, WIRE_VERSION};
use qs_remote::{BlockServer, ByteReceiver, ByteSender, MethodRegistry};
use qs_runtime::{Handler, Runtime, RuntimeConfig};

use crate::ring::HashRing;

/// A cluster-hosted service: a name, the methods every handler exposes, and
/// a factory producing the per-handler state (`handler id → fresh state`).
pub struct ClusterService<S> {
    name: String,
    registry: Arc<MethodRegistry<S>>,
    factory: Arc<dyn Fn(u64) -> S + Send + Sync>,
}

impl<S> Clone for ClusterService<S> {
    fn clone(&self) -> Self {
        ClusterService {
            name: self.name.clone(),
            registry: Arc::clone(&self.registry),
            factory: Arc::clone(&self.factory),
        }
    }
}

impl<S> ClusterService<S> {
    /// Bundles a service name, its method registry and its state factory.
    pub fn new(
        name: &str,
        registry: MethodRegistry<S>,
        factory: impl Fn(u64) -> S + Send + Sync + 'static,
    ) -> ClusterService<S> {
        ClusterService {
            name: name.to_string(),
            registry: Arc::new(registry),
            factory: Arc::new(factory),
        }
    }

    /// The service name (reported by the `ping` control op).
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Configuration of one node process.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Where to listen (`tcp:127.0.0.1:0` requests an ephemeral port; read
    /// the bound address back with [`NodeServer::addr`]).
    pub listen: NodeAddr,
    /// Initial ring membership (textual addresses).  Empty means "just
    /// myself" — a driver then distributes the full membership with the
    /// `ring` control op once every node has reported its bound address.
    pub nodes: Vec<String>,
    /// The runtime configuration handlers run under (defaults to the fully
    /// optimised pooled runtime).
    pub runtime: RuntimeConfig,
    /// Optional TCP address (`HOST:PORT`, port 0 for ephemeral) of a
    /// plain-text HTTP endpoint serving the process's metrics registry in
    /// Prometheus exposition format — scrape `http://HOST:PORT/metrics`
    /// (any path answers).  `None` (the default) starts no endpoint.
    pub metrics_listen: Option<String>,
}

impl NodeConfig {
    /// Listens on `listen` with a default runtime and a self-only ring.
    pub fn at(listen: NodeAddr) -> NodeConfig {
        NodeConfig {
            listen,
            nodes: Vec::new(),
            runtime: RuntimeConfig::default(),
            metrics_listen: None,
        }
    }

    /// Enables the HTTP metrics endpoint on `addr` (builder form).
    pub fn with_metrics_listen(mut self, addr: &str) -> NodeConfig {
        self.metrics_listen = Some(addr.to_string());
        self
    }
}

struct ServerShared<S: Send + 'static> {
    service: ClusterService<S>,
    self_name: String,
    self_addr: NodeAddr,
    ring: Mutex<HashRing>,
    runtime: Runtime,
    handlers: Mutex<HashMap<u64, Handler<S>>>,
    stopping: AtomicBool,
    /// Response senders of live connections; closed on stop so clients
    /// observe the node's death instead of talking to a half-dead server
    /// (the in-process analogue of a dying process closing its sockets).
    conns: Mutex<Vec<ByteSender>>,
    /// Serves every block and counts what it applied.
    server: Arc<BlockServer<S>>,
    connections: AtomicU64,
    nacks: AtomicU64,
    /// Bound address of the HTTP metrics endpoint, when one was requested;
    /// dialled once on stop to unblock its accept loop.
    metrics_addr: Option<std::net::SocketAddr>,
}

/// A running cluster node: listener + protocol adapters + pooled runtime.
pub struct NodeServer<S: Send + 'static> {
    shared: Arc<ServerShared<S>>,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
}

impl<S: Send + 'static> NodeServer<S> {
    /// Binds the listener and starts serving `service`.
    pub fn start(service: ClusterService<S>, config: NodeConfig) -> io::Result<NodeServer<S>> {
        let listener = NodeListener::bind(&config.listen)?;
        let self_addr = listener.local_addr()?;
        let self_name = self_addr.to_string();
        let mut ring = HashRing::with_nodes(&config.nodes);
        if config.nodes.is_empty() {
            ring.add(&self_name);
        }
        let metrics_listener = config
            .metrics_listen
            .as_deref()
            .map(std::net::TcpListener::bind)
            .transpose()?;
        let metrics_addr = metrics_listener
            .as_ref()
            .map(std::net::TcpListener::local_addr)
            .transpose()?;
        let server = BlockServer::new(Arc::clone(&service.registry));
        let shared = Arc::new(ServerShared {
            service,
            self_name,
            self_addr,
            ring: Mutex::new(ring),
            runtime: Runtime::new(config.runtime),
            handlers: Mutex::new(HashMap::new()),
            stopping: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            server,
            connections: AtomicU64::new(0),
            nacks: AtomicU64::new(0),
            metrics_addr,
        });
        if let Some(listener) = metrics_listener {
            let metrics_shared = Arc::clone(&shared);
            let _ = std::thread::Builder::new()
                .name(format!("cluster-metrics-{}", shared.self_name))
                .spawn(move || serve_metrics_http(&metrics_shared, &listener));
        }
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name(format!("cluster-accept-{}", shared.self_name))
            .spawn(move || loop {
                match listener.accept() {
                    Ok((responses, requests)) => {
                        if accept_shared.stopping.load(Ordering::Acquire) {
                            return;
                        }
                        accept_shared.connections.fetch_add(1, Ordering::Relaxed);
                        accept_shared.conns.lock().push(responses.clone());
                        let conn_shared = Arc::clone(&accept_shared);
                        let _ = std::thread::Builder::new()
                            .name(format!("cluster-conn-{}", conn_shared.self_name))
                            .spawn(move || serve_connection(&conn_shared, &requests, &responses));
                    }
                    Err(_) => return,
                }
            })
            .expect("spawn cluster accept thread");
        Ok(NodeServer {
            shared,
            accept_thread: Mutex::new(Some(accept_thread)),
        })
    }

    /// The bound address (ephemeral TCP ports resolved).
    pub fn addr(&self) -> &NodeAddr {
        &self.shared.self_addr
    }

    /// This node's name on the ring (the textual form of [`Self::addr`]).
    pub fn name(&self) -> &str {
        &self.shared.self_name
    }

    /// Number of handlers spawned on this node so far.
    pub fn handlers_live(&self) -> usize {
        self.shared.handlers.lock().len()
    }

    /// The bound address of the HTTP metrics endpoint, when
    /// [`NodeConfig::metrics_listen`] requested one (ephemeral ports
    /// resolved).
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.shared.metrics_addr
    }

    /// Blocks until the server stops (via the `shutdown` control op or
    /// [`Self::shutdown`] from another thread).
    pub fn wait(&self) {
        let thread = self.accept_thread.lock().take();
        if let Some(thread) = thread {
            let _ = thread.join();
        }
    }

    /// Stops accepting connections and shuts the runtime's handlers down.
    /// Connections currently being served finish their in-flight block and
    /// exit when the peer closes.
    pub fn shutdown(&self) {
        request_stop(&self.shared);
        self.wait();
        self.shared.handlers.lock().clear();
    }
}

impl<S: Send + 'static> Drop for NodeServer<S> {
    fn drop(&mut self) {
        request_stop(&self.shared);
        self.wait();
    }
}

/// Flags the server as stopping and unblocks its accept loop by dialling it
/// once.
fn request_stop<S: Send + 'static>(shared: &ServerShared<S>) {
    if !shared.stopping.swap(true, Ordering::AcqRel) {
        let _ = shared.self_addr.connect();
        if let Some(addr) = shared.metrics_addr {
            let _ = std::net::TcpStream::connect(addr);
        }
        for conn in shared.conns.lock().drain(..) {
            conn.close();
        }
    }
}

/// Minimal HTTP/1.1 server for Prometheus scrapes: every request (any
/// method, any path) is answered with the process-wide metrics registry in
/// exposition format and the connection is closed.  One request per
/// connection — exactly the shape a scraper produces.
fn serve_metrics_http<S: Send + 'static>(
    shared: &Arc<ServerShared<S>>,
    listener: &std::net::TcpListener,
) {
    use std::io::{Read, Write};
    for stream in listener.incoming() {
        if shared.stopping.load(Ordering::Acquire) {
            return;
        }
        let Ok(mut stream) = stream else { return };
        // Read (and discard) the request head; scrapers send it in one
        // segment, and the response does not depend on it.
        let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(500)));
        let mut head = [0u8; 1024];
        let _ = stream.read(&mut head);
        let body = qs_obs::registry().to_prometheus_text();
        let response = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        );
        let _ = stream.write_all(response.as_bytes());
    }
}

/// Looks up (or lazily spawns) the runtime handler hosting `id`.
fn handler_for<S: Send + 'static>(shared: &ServerShared<S>, id: u64) -> Handler<S> {
    let mut handlers = shared.handlers.lock();
    handlers
        .entry(id)
        .or_insert_with(|| shared.runtime.spawn_handler((shared.service.factory)(id)))
        .clone()
}

/// One connection's protocol-adapter loop.
fn serve_connection<S: Send + 'static>(
    shared: &Arc<ServerShared<S>>,
    requests: &ByteReceiver,
    responses: &ByteSender,
) {
    loop {
        match requests.recv_frame() {
            Ok(Frame::Hello { version, .. }) => {
                if version != WIRE_VERSION {
                    let _ = responses.send_frame(&Frame::Nack {
                        message: format!(
                            "wire version {version} not supported (node speaks {WIRE_VERSION})"
                        ),
                    });
                    return;
                }
            }
            Ok(Frame::Open { handler }) => {
                if shared.stopping.load(Ordering::Acquire) {
                    return;
                }
                let owner = shared.ring.lock().route(handler).map(str::to_string);
                if owner.as_deref() != Some(shared.self_name.as_str()) {
                    shared.nacks.fetch_add(1, Ordering::Relaxed);
                    let message = match owner {
                        Some(owner) => {
                            format!(
                                "handler {handler} lives on {owner}, not {}",
                                shared.self_name
                            )
                        }
                        None => "ring not configured".to_string(),
                    };
                    if responses.send_frame(&Frame::Nack { message }).is_err()
                        || drain_refused_block(requests).is_err()
                    {
                        return;
                    }
                    continue;
                }
                let handler = handler_for(shared, handler);
                if !shared.server.serve_block(&handler, requests, responses) {
                    return;
                }
            }
            Ok(Frame::Control { op, args }) => {
                let result = apply_control(shared, &op, &args);
                if responses
                    .send_frame(&Frame::ControlResult { result })
                    .is_err()
                {
                    return;
                }
                if op == "shutdown" {
                    request_stop(shared);
                    return;
                }
            }
            // Anything else outside a block is a protocol violation; the
            // stream cannot be trusted any more.
            Ok(_) | Err(_) => return,
        }
    }
}

/// Skips the frames of a refused block so the connection stays usable: the
/// client pipelines calls without waiting, so they are already in flight
/// when the Nack is sent.
fn drain_refused_block(requests: &ByteReceiver) -> Result<(), ()> {
    loop {
        match requests.recv_frame() {
            Ok(Frame::End) => return Ok(()),
            Ok(Frame::Call { .. }) | Ok(Frame::Query { .. }) | Ok(Frame::Sync) => {}
            Ok(_) | Err(_) => return Err(()),
        }
    }
}

/// Applies one management operation.
fn apply_control<S: Send + 'static>(
    shared: &ServerShared<S>,
    op: &str,
    args: &[WireValue],
) -> Result<WireValue, String> {
    match op {
        "ping" => Ok(WireValue::Str(format!(
            "{}@{}",
            shared.service.name, shared.self_name
        ))),
        "handlers" => Ok(WireValue::Int(shared.handlers.lock().len() as i64)),
        "stats" => {
            let stats = shared.server.stats(&shared.runtime);
            let pair = |k: &str, v: u64| {
                WireValue::List(vec![
                    WireValue::Str(k.to_string()),
                    WireValue::Int(v as i64),
                ])
            };
            Ok(WireValue::List(vec![
                pair("connections", shared.connections.load(Ordering::Relaxed)),
                pair("blocks", stats.blocks_served),
                pair("nacks", shared.nacks.load(Ordering::Relaxed)),
                pair("calls", stats.calls_applied),
                pair("queries", stats.queries_applied),
                pair("syncs", stats.syncs_acked),
                pair("application_errors", stats.application_errors),
                pair("call_panics", stats.call_panics),
                pair("handlers", shared.handlers.lock().len() as u64),
                pair("runtime_calls_enqueued", stats.runtime_calls_enqueued),
                pair("runtime_handler_wakeups", stats.runtime_handler_wakeups),
            ]))
        }
        "ring" => {
            let mut members = Vec::with_capacity(args.len());
            for arg in args {
                members.push(arg.as_str()?.to_string());
            }
            if members.is_empty() {
                return Err("ring needs at least one member".to_string());
            }
            *shared.ring.lock() = HashRing::with_nodes(&members);
            Ok(WireValue::Int(members.len() as i64))
        }
        "join" => {
            let node = args.first().ok_or("join needs a node address")?.as_str()?;
            Ok(WireValue::Bool(shared.ring.lock().add(node)))
        }
        "leave" => {
            let node = args.first().ok_or("leave needs a node address")?.as_str()?;
            Ok(WireValue::Bool(shared.ring.lock().remove(node)))
        }
        "metrics" => Ok(WireValue::Str(qs_obs::registry().to_json())),
        "metrics_text" => Ok(WireValue::Str(qs_obs::registry().to_prometheus_text())),
        "shutdown" => Ok(WireValue::Unit),
        other => Err(format!("unknown control op `{other}`")),
    }
}
