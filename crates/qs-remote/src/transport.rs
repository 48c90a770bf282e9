//! Real-socket substrate: TCP and Unix-domain streams under the same
//! [`ByteSender`]/[`ByteReceiver`] surface as the in-process byte channels.
//!
//! This is the "usage of sockets as the underlying implementation" the
//! paper's §7 names as future work.  Everything above this module — frames,
//! method registries, [`crate::RemoteNode`], [`crate::RemoteSeparate`] — is
//! substrate-agnostic; this module only turns a connected socket into the
//! two half-duplex byte-stream handles the rest of the crate speaks.
//!
//! Design notes:
//!
//! * **std-only, blocking I/O.**  No async runtime: each direction of a
//!   socket is guarded by its own mutex, so one thread can block reading
//!   while another writes (exactly how [`crate::RemoteSeparate`] uses a
//!   channel pair).
//! * **Half-close maps to `shutdown`.**  Dropping the last clone of a
//!   [`ByteSender`] shuts down the write direction (the peer reads
//!   end-of-stream after draining); dropping the last [`ByteReceiver`]
//!   clone shuts down reads.
//! * **Reads are buffered.**  The receiving half owns a read buffer: one
//!   `read` takes whatever the peer has sent, up to 16 KiB, and frames are
//!   parsed from memory — a block whose frames arrive in one write costs
//!   the node one syscall, not two per frame.  Bytes past the frame being
//!   returned stay buffered for the next receive, and
//!   [`ByteReceiver::has_frame`] reports whether one is complete there (the
//!   node uses it to tell a call that arrived with its query from one sent
//!   alone).  The buffer grows only for a frame longer than itself and
//!   shrinks back once that frame is parsed.
//! * **Timeouts are connection-fatal.**  A read deadline is implemented
//!   with `SO_RCVTIMEO`; if it fires mid-frame the stream position is
//!   unknown, so callers must abandon the connection after
//!   [`crate::RecvError::TimedOut`] — which is what the peer-death
//!   hardening in [`crate::node`] and `qs-cluster` does.
//! * **Untrusted peers.**  Socket readers enforce
//!   [`crate::wire::MAX_FRAME_LEN`] on every length prefix before the read
//!   buffer grows to hold its frame, so a corrupt prefix cannot force
//!   a huge allocation.  No authentication or encryption is provided; bind
//!   to loopback/Unix sockets or trusted networks only (see the README's
//!   "Distributed mode" caveats).

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::fs::MetadataExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::channel::{stream_halves, ByteReceiver, ByteSender, ChannelClosed, RecvError};
use crate::wire::{decode_frame, DecodeError, Frame, MAX_FRAME_LEN};

/// The address of a cluster node: a TCP endpoint or a Unix-domain socket
/// path.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeAddr {
    /// A TCP endpoint, e.g. `127.0.0.1:7101`.
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl NodeAddr {
    /// Parses the textual form used on command lines and in `READY` lines:
    /// `tcp:HOST:PORT` or `unix:PATH` (a bare `HOST:PORT` is accepted as
    /// TCP).
    pub fn parse(spec: &str) -> Result<NodeAddr, String> {
        if let Some(rest) = spec.strip_prefix("tcp:") {
            Ok(NodeAddr::Tcp(rest.to_string()))
        } else if let Some(rest) = spec.strip_prefix("unix:") {
            Ok(NodeAddr::Unix(PathBuf::from(rest)))
        } else if spec.contains(':') {
            Ok(NodeAddr::Tcp(spec.to_string()))
        } else {
            Err(format!(
                "node address `{spec}` is neither tcp:HOST:PORT nor unix:PATH"
            ))
        }
    }

    /// Connects to this address and returns the connected byte-stream pair.
    pub fn connect(&self) -> io::Result<(ByteSender, ByteReceiver)> {
        match self {
            NodeAddr::Tcp(addr) => socket_pair(Socket::Tcp(TcpStream::connect(addr)?)),
            NodeAddr::Unix(path) => socket_pair(Socket::Unix(UnixStream::connect(path)?)),
        }
    }
}

impl fmt::Display for NodeAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeAddr::Tcp(addr) => write!(f, "tcp:{addr}"),
            NodeAddr::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// What a path names right now, as `(device, inode)`.
fn file_id(path: &Path) -> io::Result<(u64, u64)> {
    let metadata = std::fs::symlink_metadata(path)?;
    Ok((metadata.dev(), metadata.ino()))
}

/// The socket file a Unix listener created: its path and the identity the
/// file had at bind time.
pub(crate) struct SocketFile {
    path: PathBuf,
    created: (u64, u64),
}

impl SocketFile {
    /// Removes the file — unless the path no longer names it: it was
    /// already unlinked, or a successor has since bound the same path, and
    /// the file there is not ours to remove.  A bound socket pins its
    /// inode, so while the listener is open no other file can carry its
    /// identity.
    pub(crate) fn unlink(&self) {
        if file_id(&self.path).ok() == Some(self.created) {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// A listening endpoint accepting node connections.
pub enum NodeListener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain listener, the path it bound and the identity of the
    /// socket file it created there; that file is removed on drop.
    Unix(UnixListener, PathBuf, (u64, u64)),
}

impl NodeListener {
    /// Binds a listener.  For TCP, port 0 requests an ephemeral port —
    /// read the actual one back with [`NodeListener::local_addr`].  For
    /// Unix sockets, a stale socket file from a previous run is removed
    /// first.
    pub fn bind(addr: &NodeAddr) -> io::Result<NodeListener> {
        match addr {
            NodeAddr::Tcp(spec) => Ok(NodeListener::Tcp(TcpListener::bind(spec)?)),
            NodeAddr::Unix(path) => {
                if path.exists() {
                    let _ = std::fs::remove_file(path);
                }
                let listener = UnixListener::bind(path)?;
                Ok(NodeListener::Unix(listener, path.clone(), file_id(path)?))
            }
        }
    }

    /// The bound address, with any ephemeral TCP port resolved.
    pub fn local_addr(&self) -> io::Result<NodeAddr> {
        match self {
            NodeListener::Tcp(listener) => Ok(NodeAddr::Tcp(listener.local_addr()?.to_string())),
            NodeListener::Unix(_, path, _) => Ok(NodeAddr::Unix(path.clone())),
        }
    }

    /// The socket file this listener will remove when dropped (Unix only),
    /// so an owner that stops the listener from another thread can remove
    /// it without waiting for the drop.
    pub(crate) fn socket_file(&self) -> Option<SocketFile> {
        match self {
            NodeListener::Tcp(_) => None,
            NodeListener::Unix(_, path, created) => Some(SocketFile {
                path: path.clone(),
                created: *created,
            }),
        }
    }

    /// Blocks until a peer connects and returns the connected pair.
    pub fn accept(&self) -> io::Result<(ByteSender, ByteReceiver)> {
        match self {
            NodeListener::Tcp(listener) => {
                let (stream, _) = listener.accept()?;
                socket_pair(Socket::Tcp(stream))
            }
            NodeListener::Unix(listener, _, _) => {
                let (stream, _) = listener.accept()?;
                socket_pair(Socket::Unix(stream))
            }
        }
    }
}

impl Drop for NodeListener {
    fn drop(&mut self) {
        if let Some(file) = self.socket_file() {
            file.unlink();
        }
    }
}

enum Socket {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Socket {
    /// `&TcpStream`/`&UnixStream` implement `Read`/`Write`, so both
    /// directions work through a shared reference; the per-direction
    /// mutexes in [`StreamConn`] serialise concurrent users of one
    /// direction.
    fn read(&self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Socket::Tcp(s) => (&*s).read(buf),
            Socket::Unix(s) => (&*s).read(buf),
        }
    }

    fn write_all(&self, buf: &[u8]) -> io::Result<()> {
        match self {
            Socket::Tcp(s) => (&*s).write_all(buf),
            Socket::Unix(s) => (&*s).write_all(buf),
        }
    }

    fn shutdown(&self, how: Shutdown) {
        let _ = match self {
            Socket::Tcp(s) => s.shutdown(how),
            Socket::Unix(s) => s.shutdown(how),
        };
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Socket::Tcp(s) => s.set_read_timeout(timeout),
            Socket::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    fn peer(&self) -> String {
        match self {
            Socket::Tcp(s) => s
                .peer_addr()
                .map(|a| format!("tcp:{a}"))
                .unwrap_or_else(|_| "tcp:<disconnected>".to_string()),
            Socket::Unix(_) => "unix".to_string(),
        }
    }
}

/// How much one `read` asks the socket for: a block's frames, or several
/// replies, arrive in one call.
const READ_CHUNK: usize = 16 * 1024;

/// The receiving direction of a socket: its programmed timeout and the
/// bytes read but not yet parsed.
struct ReadState {
    /// The `SO_RCVTIMEO` currently programmed on the socket; cached so
    /// back-to-back reads with the same deadline skip the setsockopt call.
    timeout: Option<Duration>,
    /// Storage for bytes read from the socket; all of it is usable, the
    /// unparsed bytes are `buffer[start..end]`.  Allocated by the first
    /// read, grown only for a frame longer than itself.
    buffer: Vec<u8>,
    start: usize,
    end: usize,
}

impl ReadState {
    /// Bytes the frame at the front of the buffer occupies, header
    /// included — 4 while the header itself is incomplete.  A length prefix
    /// over [`MAX_FRAME_LEN`] is an error here, before anything grows to
    /// hold its frame.
    fn front_frame(&self) -> Result<usize, RecvError> {
        let Some(header) = self.buffer[self.start..self.end].first_chunk::<4>() else {
            return Ok(4);
        };
        let len = u32::from_le_bytes(*header) as usize;
        if len > MAX_FRAME_LEN {
            return Err(RecvError::Malformed(DecodeError {
                message: format!("frame length {len} exceeds the wire limit"),
            }));
        }
        Ok(4 + len)
    }

    fn unparsed(&self) -> usize {
        self.end - self.start
    }

    /// Makes room for a read that completes the frame of `needed` bytes at
    /// the front: moves the unparsed bytes (less than that frame) to the
    /// start of the storage, so the read gets all of it behind them, and
    /// grows the storage only when the frame is longer than all of it.
    fn make_room(&mut self, needed: usize) {
        if self.start > 0 {
            self.buffer.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if needed > self.buffer.len() {
            self.buffer.resize(needed.max(READ_CHUNK), 0);
        }
    }
}

/// One connected socket shared by its sender and receiver halves.
struct StreamConn {
    socket: Socket,
    read: Mutex<ReadState>,
    write: Mutex<()>,
}

impl StreamConn {
    fn write_bytes(&self, bytes: &[u8]) -> Result<(), ChannelClosed> {
        let _guard = self.write.lock();
        self.socket.write_all(bytes).map_err(|_| ChannelClosed)
    }

    /// Parses the next frame out of the read buffer, reading the socket
    /// only while no complete frame is buffered.
    fn recv_frame(&self, timeout: Option<Duration>) -> Result<Frame, RecvError> {
        let mut state = self.read.lock();
        let total = loop {
            let total = state.front_frame()?;
            if state.unparsed() >= total {
                break total;
            }
            state.make_room(total);
            self.fill(&mut state, timeout)?;
        };
        let frame = decode_frame(&state.buffer[state.start + 4..state.start + total]);
        state.start += total;
        if state.unparsed() == 0 {
            state.start = 0;
            state.end = 0;
            if state.buffer.len() > READ_CHUNK {
                // A long frame grew the storage; give it back.
                state.buffer.truncate(READ_CHUNK);
                state.buffer.shrink_to_fit();
            }
        }
        // 4 header bytes + body = the peer's FrameSend payload size.
        qs_obs::trace(qs_obs::TraceKind::FrameRecv, total as u64, 0);
        frame.map_err(RecvError::Malformed)
    }

    /// One `read` into the free storage behind the unparsed bytes: whatever
    /// the peer has sent, blocking until some of it arrives or `timeout`
    /// expires.
    fn fill(&self, state: &mut ReadState, timeout: Option<Duration>) -> Result<(), RecvError> {
        if state.timeout != timeout {
            self.socket
                .set_read_timeout(timeout)
                .map_err(|_| RecvError::Closed)?;
            state.timeout = timeout;
        }
        loop {
            match self.socket.read(&mut state.buffer[state.end..]) {
                Ok(0) => return Err(RecvError::Closed),
                Ok(n) => {
                    state.end += n;
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Err(RecvError::TimedOut);
                }
                Err(_) => return Err(RecvError::Closed),
            }
        }
    }
}

/// The socket-backed sending half; shuts down the write direction when
/// dropped.
pub(crate) struct StreamTx {
    conn: Arc<StreamConn>,
}

impl StreamTx {
    pub(crate) fn write_bytes(&self, bytes: &[u8]) -> Result<(), ChannelClosed> {
        self.conn.write_bytes(bytes)
    }

    pub(crate) fn shutdown(&self) {
        self.conn.socket.shutdown(Shutdown::Write);
    }

    pub(crate) fn peer(&self) -> String {
        self.conn.socket.peer()
    }
}

impl Drop for StreamTx {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The socket-backed receiving half; shuts down the read direction when
/// dropped.
pub(crate) struct StreamRx {
    conn: Arc<StreamConn>,
}

impl StreamRx {
    pub(crate) fn recv_frame(&self, timeout: Option<Duration>) -> Result<Frame, RecvError> {
        self.conn.recv_frame(timeout)
    }

    /// Whether a complete frame is already buffered.  `false` while another
    /// thread is reading this socket: what it reads is its own.
    pub(crate) fn has_frame(&self) -> bool {
        self.conn.read.try_lock().is_some_and(|state| {
            state
                .front_frame()
                .is_ok_and(|total| state.unparsed() >= total)
        })
    }

    /// Bytes read from the socket and not yet parsed (0 while another
    /// thread is reading it).
    pub(crate) fn buffered_bytes(&self) -> usize {
        self.conn
            .read
            .try_lock()
            .map_or(0, |state| state.unparsed())
    }
}

impl Drop for StreamRx {
    fn drop(&mut self) {
        self.conn.socket.shutdown(Shutdown::Read);
    }
}

fn socket_pair(socket: Socket) -> io::Result<(ByteSender, ByteReceiver)> {
    // A block's frames up to its sync point are written whole, in one
    // write; disabling Nagle keeps query round-trips from stalling on
    // delayed ACKs.
    if let Socket::Tcp(stream) = &socket {
        let _ = stream.set_nodelay(true);
    }
    let conn = Arc::new(StreamConn {
        socket,
        read: Mutex::new(ReadState {
            timeout: None,
            buffer: Vec::new(),
            start: 0,
            end: 0,
        }),
        write: Mutex::new(()),
    });
    Ok(stream_halves(
        StreamTx {
            conn: Arc::clone(&conn),
        },
        StreamRx { conn },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Frame, WireValue};

    fn loopback_pair() -> ((ByteSender, ByteReceiver), (ByteSender, ByteReceiver)) {
        let listener = NodeListener::bind(&NodeAddr::Tcp("127.0.0.1:0".into())).unwrap();
        let addr = listener.local_addr().unwrap();
        let accepted = std::thread::spawn(move || listener.accept().unwrap());
        let client = addr.connect().unwrap();
        (client, accepted.join().unwrap())
    }

    #[test]
    fn frames_cross_loopback_tcp_in_order() {
        let ((client_tx, client_rx), (server_tx, server_rx)) = loopback_pair();
        client_tx
            .send_frame(&Frame::Call {
                method: "deposit".into(),
                args: vec![WireValue::Int(25)],
            })
            .unwrap();
        match server_rx.recv_frame().unwrap() {
            Frame::Call { method, args } => {
                assert_eq!(method, "deposit");
                assert_eq!(args, vec![WireValue::Int(25)]);
            }
            other => panic!("unexpected frame {other:?}"),
        }
        server_tx
            .send_frame(&Frame::QueryResult {
                result: Ok(WireValue::Int(25)),
            })
            .unwrap();
        assert!(matches!(
            client_rx.recv_frame().unwrap(),
            Frame::QueryResult { .. }
        ));
    }

    #[test]
    fn frames_cross_unix_sockets() {
        let path =
            std::env::temp_dir().join(format!("qs-transport-test-{}.sock", std::process::id()));
        let listener = NodeListener::bind(&NodeAddr::Unix(path.clone())).unwrap();
        let accepted = std::thread::spawn(move || listener.accept().unwrap());
        let (client_tx, _client_rx) = NodeAddr::Unix(path.clone()).connect().unwrap();
        let (_server_tx, server_rx) = accepted.join().unwrap();
        client_tx.send_frame(&Frame::Sync).unwrap();
        assert_eq!(server_rx.recv_frame().unwrap(), Frame::Sync);
    }

    #[test]
    fn peer_drop_is_end_of_stream_not_a_hang() {
        let ((client_tx, client_rx), (server_tx, server_rx)) = loopback_pair();
        drop(server_tx);
        drop(server_rx);
        assert_eq!(client_rx.recv_frame(), Err(RecvError::Closed));
        // Writing into a closed peer eventually errors too (the first write
        // may be buffered by the kernel before the RST arrives).
        let mut closed = false;
        for _ in 0..100 {
            if client_tx.send_frame(&Frame::Sync).is_err() {
                closed = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(closed, "send kept succeeding against a closed peer");
    }

    #[test]
    fn read_timeout_surfaces_timed_out() {
        let ((_client_tx, client_rx), _server) = loopback_pair();
        let start = std::time::Instant::now();
        assert_eq!(
            client_rx.recv_frame_timeout(Some(Duration::from_millis(40))),
            Err(RecvError::TimedOut)
        );
        assert!(start.elapsed() >= Duration::from_millis(40));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_not_allocated() {
        let ((client_tx, _client_rx), (_server_tx, server_rx)) = loopback_pair();
        client_tx.send_bytes(&u32::MAX.to_le_bytes()).unwrap();
        match server_rx.recv_frame() {
            Err(RecvError::Malformed(e)) => {
                assert!(e.message.contains("wire limit"), "{}", e.message)
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    /// Sends a greeting and five frames in one write, then receives them:
    /// once the greeting is in, the other five are buffered, each complete
    /// before its own receive.
    fn five_frames_in_one_write((tx, rx): (ByteSender, ByteReceiver)) {
        let greeting = Frame::Hello {
            version: crate::WIRE_VERSION,
            client: "batch".into(),
        };
        let frames = [
            Frame::Open { handler: 9 },
            Frame::Call {
                method: "deposit".into(),
                args: vec![WireValue::Int(1)],
            },
            Frame::Call {
                method: "deposit".into(),
                args: vec![WireValue::Int(2)],
            },
            Frame::Query {
                method: "balance".into(),
                args: vec![],
            },
            Frame::End,
        ];
        let mut bytes = Vec::new();
        for frame in std::iter::once(&greeting).chain(&frames) {
            crate::wire::encode_frame_into(frame, &mut bytes);
        }
        tx.send_bytes(&bytes).unwrap();
        // A socket's first read takes the whole write.
        assert_eq!(rx.recv_frame().unwrap(), greeting);
        for frame in &frames {
            assert!(rx.has_frame(), "{frame:?} is not buffered");
            assert_eq!(&rx.recv_frame().unwrap(), frame);
        }
        assert!(!rx.has_frame());
        assert_eq!(rx.buffered_bytes(), 0);
    }

    #[test]
    fn frames_written_together_are_buffered_on_every_substrate() {
        five_frames_in_one_write(crate::byte_channel(crate::ChannelConfig::fast()));
        let ((client_tx, _client_rx), (_server_tx, server_rx)) = loopback_pair();
        five_frames_in_one_write((client_tx, server_rx));
        let path =
            std::env::temp_dir().join(format!("qs-transport-batch-{}.sock", std::process::id()));
        let listener = NodeListener::bind(&NodeAddr::Unix(path.clone())).unwrap();
        let accepted = std::thread::spawn(move || listener.accept().unwrap());
        let (client_tx, _client_rx) = NodeAddr::Unix(path).connect().unwrap();
        let (_server_tx, server_rx) = accepted.join().unwrap();
        five_frames_in_one_write((client_tx, server_rx));
    }

    #[test]
    fn a_frame_longer_than_one_read_decodes() {
        let ((client_tx, _client_rx), (_server_tx, server_rx)) = loopback_pair();
        let long = "x".repeat(100 * 1024);
        let call = Frame::Call {
            method: "store".into(),
            args: vec![WireValue::Str(long)],
        };
        let sent = call.clone();
        // The writer may block on the socket's send buffer until the
        // reader drains it.
        let writer = std::thread::spawn(move || {
            client_tx.send_frame(&sent).unwrap();
            client_tx.send_frame(&Frame::Sync).unwrap();
        });
        assert_eq!(server_rx.recv_frame().unwrap(), call);
        assert_eq!(server_rx.recv_frame().unwrap(), Frame::Sync);
        writer.join().unwrap();
        assert_eq!(server_rx.buffered_bytes(), 0);
    }

    #[test]
    fn node_addr_parses_and_displays() {
        assert_eq!(
            NodeAddr::parse("tcp:127.0.0.1:7101").unwrap(),
            NodeAddr::Tcp("127.0.0.1:7101".into())
        );
        assert_eq!(
            NodeAddr::parse("127.0.0.1:7101").unwrap(),
            NodeAddr::Tcp("127.0.0.1:7101".into())
        );
        assert_eq!(
            NodeAddr::parse("unix:/tmp/qs.sock").unwrap(),
            NodeAddr::Unix(PathBuf::from("/tmp/qs.sock"))
        );
        assert!(NodeAddr::parse("nonsense").is_err());
        let spec = NodeAddr::Tcp("127.0.0.1:7101".into()).to_string();
        assert_eq!(
            NodeAddr::parse(&spec).unwrap(),
            NodeAddr::parse("tcp:127.0.0.1:7101").unwrap()
        );
    }

    #[test]
    fn unix_listener_cleans_up_its_socket_file() {
        let path =
            std::env::temp_dir().join(format!("qs-transport-cleanup-{}.sock", std::process::id()));
        let listener = NodeListener::bind(&NodeAddr::Unix(path.clone())).unwrap();
        assert!(path.exists());
        drop(listener);
        assert!(!path.exists());
    }

    #[test]
    fn dropped_listener_leaves_a_successors_socket_file_alone() {
        let path = std::env::temp_dir().join(format!(
            "qs-transport-successor-{}.sock",
            std::process::id()
        ));
        let addr = NodeAddr::Unix(path.clone());
        let first = NodeListener::bind(&addr).unwrap();
        // Binding the same path replaces the file under the first listener.
        let successor = NodeListener::bind(&addr).unwrap();
        drop(first);
        assert!(path.exists(), "the path names the successor's file now");
        let accepted = std::thread::spawn(move || successor.accept().map(|_| ()));
        addr.connect().expect("the successor is still reachable");
        accepted.join().unwrap().unwrap();
        assert!(!path.exists(), "the successor removed its own file");
    }
}
