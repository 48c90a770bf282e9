//! The client side: consistent-hash routing plus pooled connections.
//!
//! A [`ClusterClient`] holds the same [`HashRing`] as the nodes and routes
//! every separate block to the node owning the target handler.  Connections
//! are dialled lazily, kept in a small per-node pool, and multiplexed: one
//! connection carries many blocks in sequence (`Open … End`, then the next
//! `Open`).  A connection whose block failed — timeout, disconnect,
//! malformed or refused response — is dropped instead of returned to the
//! pool, because a timed-out socket stream may be desynchronised
//! ([`RemoteSeparate::is_failed`]).

use std::collections::HashMap;
use std::time::Duration;

use parking_lot::Mutex;
use qs_remote::transport::NodeAddr;
use qs_remote::wire::{Frame, WireValue, WIRE_VERSION};
use qs_remote::{ByteReceiver, ByteSender, RecvError, RemoteError, RemoteSeparate};

use crate::ring::HashRing;

/// How many idle connections the client keeps per node.
const POOLED_PER_NODE: usize = 4;

/// One connection to a node: its request and response halves.
type Conn = (ByteSender, ByteReceiver);

/// A routing client for a cluster service.
pub struct ClusterClient {
    client: String,
    ring: Mutex<HashRing>,
    pool: Mutex<HashMap<String, Vec<Conn>>>,
    response_timeout: Option<Duration>,
}

impl ClusterClient {
    /// Creates a client routing across `nodes` (dialled lazily).
    pub fn new(client: &str, nodes: &[NodeAddr]) -> ClusterClient {
        ClusterClient {
            client: client.to_string(),
            ring: Mutex::new(HashRing::with_nodes(nodes.iter().map(|n| n.to_string()))),
            pool: Mutex::new(HashMap::new()),
            response_timeout: None,
        }
    }

    /// Bounds every response wait (query/sync/control), so a dead node
    /// surfaces [`RemoteError::Timeout`] instead of hanging the client.
    pub fn with_response_timeout(mut self, timeout: Duration) -> ClusterClient {
        self.response_timeout = Some(timeout);
        self
    }

    /// The node currently owning `handler`.
    pub fn route(&self, handler: u64) -> Option<String> {
        self.ring.lock().route(handler).map(str::to_string)
    }

    /// The member nodes, sorted.
    pub fn nodes(&self) -> Vec<String> {
        self.ring
            .lock()
            .nodes()
            .iter()
            .map(|n| n.to_string())
            .collect()
    }

    fn checkout(&self, node: &str) -> Option<Conn> {
        self.pool.lock().get_mut(node)?.pop()
    }

    fn give_back(&self, node: &str, conn: Conn) {
        let mut pool = self.pool.lock();
        let conns = pool.entry(node.to_string()).or_default();
        if conns.len() < POOLED_PER_NODE {
            conns.push(conn);
        }
    }

    /// A connection to `node` with `prologue` already sent: a pooled
    /// connection whose first send succeeds, else one fresh dial.  The
    /// single retry absorbs pooled connections that died while idle.
    fn conn_with_prologue(&self, node: &str, prologue: &Frame) -> Result<Conn, RemoteError> {
        if let Some((requests, responses)) = self.checkout(node) {
            if requests.send_frame(prologue).is_ok() {
                return Ok((requests, responses));
            }
        }
        let (requests, responses) = dial(node, &self.client)?;
        requests
            .send_frame(prologue)
            .map_err(|_| RemoteError::Disconnected)?;
        Ok((requests, responses))
    }

    /// Opens a separate block against `handler`, routed to its owning node.
    ///
    /// The block's frames go out together at its sync points (see
    /// [`RemoteSeparate`]), `Open` in the first write.  On a pooled
    /// connection that first write falls back to one fresh dial if it
    /// fails, as the connection may have died while idle.  Fails with
    /// [`RemoteError::Disconnected`] when the node cannot be dialled or the
    /// block's final write does not go through ([`RemoteSeparate::end`]).
    pub fn separate<R>(
        &self,
        handler: u64,
        body: impl FnOnce(&mut RemoteSeparate) -> R,
    ) -> Result<R, RemoteError> {
        let node = self
            .route(handler)
            .ok_or_else(|| RemoteError::Protocol("cluster has no nodes".to_string()))?;
        let (requests, responses, pooled) = match self.checkout(&node) {
            Some((requests, responses)) => (requests, responses, true),
            None => {
                let (requests, responses) = dial(&node, &self.client)?;
                (requests, responses, false)
            }
        };
        let mut guard = RemoteSeparate::over(requests, responses, self.response_timeout)
            .with_prologue(&Frame::Open { handler });
        if pooled {
            let (node, client) = (node.clone(), self.client.clone());
            guard = guard.with_redial(move || dial(&node, &client));
        }
        let result = body(&mut guard);
        let ended = guard.end();
        if !guard.is_failed() {
            self.give_back(&node, guard.halves());
        }
        ended.map(|()| result)
    }

    /// Fire-and-forget convenience: one asynchronous call in its own block.
    /// Fails with [`RemoteError::Disconnected`] when the call cannot be
    /// written to its node.
    pub fn call(
        &self,
        handler: u64,
        method: &str,
        args: Vec<WireValue>,
    ) -> Result<(), RemoteError> {
        self.separate(handler, |s| s.call(method, args))?
    }

    /// Convenience: one query in its own block.
    pub fn query(
        &self,
        handler: u64,
        method: &str,
        args: Vec<WireValue>,
    ) -> Result<WireValue, RemoteError> {
        self.separate(handler, |s| s.query(method, args))?
    }

    /// Sends one management operation to `node` and awaits its result.
    pub fn control(
        &self,
        node: &str,
        op: &str,
        args: Vec<WireValue>,
    ) -> Result<WireValue, RemoteError> {
        let (requests, responses) = self.conn_with_prologue(
            node,
            &Frame::Control {
                op: op.to_string(),
                args,
            },
        )?;
        match responses.recv_frame_timeout(self.response_timeout) {
            Ok(Frame::ControlResult { result }) => {
                // A node answering `shutdown` closes the connection next;
                // pooling it would hand a dead connection to the next block.
                if op != "shutdown" {
                    self.give_back(node, (requests, responses));
                }
                result.map_err(RemoteError::Application)
            }
            Ok(Frame::Nack { message }) => Err(RemoteError::Protocol(message)),
            Ok(other) => Err(RemoteError::Protocol(format!(
                "expected ControlResult, received {other:?}"
            ))),
            Err(RecvError::TimedOut) => Err(RemoteError::Timeout),
            Err(_) => Err(RemoteError::Disconnected),
        }
    }

    /// Distributes the full ring membership: updates the local ring and
    /// sends the `ring` control op to every member, so client and nodes
    /// agree on placement.  This is the bootstrap step after every node
    /// process has reported its bound address.
    pub fn set_ring(&self, nodes: &[NodeAddr]) -> Result<(), RemoteError> {
        let members: Vec<String> = nodes.iter().map(|n| n.to_string()).collect();
        *self.ring.lock() = HashRing::with_nodes(&members);
        let args: Vec<WireValue> = members.iter().map(|m| WireValue::Str(m.clone())).collect();
        for member in &members {
            self.control(member, "ring", args.clone())?;
        }
        Ok(())
    }

    /// Adds a node: tells every current member (and the newcomer) about the
    /// join, then updates the local ring.
    pub fn add_node(&self, node: &NodeAddr) -> Result<(), RemoteError> {
        let name = node.to_string();
        let mut members = self.nodes();
        if !members.contains(&name) {
            members.push(name.clone());
        }
        for member in &members {
            if member == &name {
                // The newcomer gets the whole membership, not just itself.
                let args = members.iter().map(|m| WireValue::Str(m.clone())).collect();
                self.control(member, "ring", args)?;
            } else {
                self.control(member, "join", vec![WireValue::Str(name.clone())])?;
            }
        }
        self.ring.lock().add(&name);
        Ok(())
    }

    /// Removes a node from the ring (remaining members are told; the node
    /// itself may already be dead, which is fine).
    pub fn remove_node(&self, node: &NodeAddr) -> Result<(), RemoteError> {
        let name = node.to_string();
        self.ring.lock().remove(&name);
        self.pool.lock().remove(&name);
        for member in self.nodes() {
            self.control(&member, "leave", vec![WireValue::Str(name.clone())])?;
        }
        Ok(())
    }

    /// Sends `shutdown` to every member node (best-effort: nodes that are
    /// already gone are skipped).
    pub fn shutdown_cluster(&self) {
        for member in self.nodes() {
            let _ = self.control(&member, "shutdown", vec![]);
        }
    }
}

/// Dials `node` and greets it as `client`.
fn dial(node: &str, client: &str) -> Result<Conn, RemoteError> {
    let addr = NodeAddr::parse(node).map_err(RemoteError::Protocol)?;
    let (requests, responses) = addr.connect().map_err(|_| RemoteError::Disconnected)?;
    requests
        .send_frame(&Frame::Hello {
            version: WIRE_VERSION,
            client: client.to_string(),
        })
        .map_err(|_| RemoteError::Disconnected)?;
    Ok((requests, responses))
}

impl std::fmt::Debug for ClusterClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterClient")
            .field("client", &self.client)
            .field("nodes", &self.nodes())
            .finish()
    }
}
