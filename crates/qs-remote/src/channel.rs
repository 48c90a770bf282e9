//! The byte-stream substrate private queues are serialized over.
//!
//! The paper's §7 proposes sockets as the carrier for private queues.  Two
//! substrates implement the same [`ByteSender`]/[`ByteReceiver`] surface, so
//! the node/proxy machinery in [`crate::node`] works unchanged over either:
//!
//! * **in-process byte channels** ([`byte_channel`]) — ordered bytes,
//!   blocking reads, half-close, and (optionally) injected per-write latency
//!   and bounded send buffers so wide-area behaviour can be studied on one
//!   machine without a network;
//! * **real sockets** ([`crate::transport`]) — TCP and Unix-domain streams,
//!   for genuinely multi-process deployments (`qs-cluster`).
//!
//! On top of the raw byte stream, [`ByteSender::send_frame`] /
//! [`ByteReceiver::recv_frame`] speak the length-prefixed format of
//! [`crate::wire`].
//!
//! Both halves are cheaply cloneable handles: the underlying stream closes
//! when the *last* clone of a half is dropped (or eagerly via
//! [`ByteSender::close`]).  This is what lets a persistent cluster
//! connection lend its halves to one separate block after another.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};

use crate::transport::{StreamRx, StreamTx};
use crate::wire::{decode_frame, encode_frame, DecodeError, Frame};

/// Configuration of an in-process byte channel.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChannelConfig {
    /// Latency added to every write (simulated network delay).
    pub latency: Option<Duration>,
    /// Maximum number of buffered bytes before senders block (simulated
    /// socket send-buffer); `None` means unbounded.  A single write longer
    /// than the capacity waits for the buffer to empty and then goes in
    /// whole, so a frame never waits on itself; a block's writes are at
    /// most about 16 KiB plus one frame.
    pub capacity: Option<usize>,
    /// How long a client waits for a query/sync/control response before
    /// surfacing a timeout instead of blocking forever (`None` = wait
    /// forever, the historical behaviour).  Applies to both substrates; on
    /// sockets this is what turns a silently dead peer into a
    /// [`crate::RemoteError::Timeout`].
    pub response_timeout: Option<Duration>,
}

impl ChannelConfig {
    /// An unbounded channel with no injected latency (the default).
    pub fn fast() -> Self {
        ChannelConfig::default()
    }

    /// A channel that delays every write by `latency`.
    pub fn with_latency(latency: Duration) -> Self {
        ChannelConfig {
            latency: Some(latency),
            ..Default::default()
        }
    }

    /// Sets the response timeout (builder form).
    pub fn with_response_timeout(mut self, timeout: Duration) -> Self {
        self.response_timeout = Some(timeout);
        self
    }
}

#[derive(Default)]
struct Stream {
    buffer: VecDeque<u8>,
    closed: bool,
}

struct Shared {
    stream: Mutex<Stream>,
    readable: Condvar,
    writable: Condvar,
    config: ChannelConfig,
}

/// The channel-backed sending half; closes the stream when dropped.
struct ChannelTx {
    shared: Arc<Shared>,
}

/// The channel-backed receiving half; closes the stream when dropped (which
/// unblocks a sender waiting on capacity, mirroring a socket reset).
struct ChannelRx {
    shared: Arc<Shared>,
}

#[derive(Clone)]
enum SenderInner {
    Channel(Arc<ChannelTx>),
    Stream(Arc<StreamTx>),
}

#[derive(Clone)]
enum ReceiverInner {
    Channel(Arc<ChannelRx>),
    Stream(Arc<StreamRx>),
}

/// The sending half of a byte stream (in-process channel or socket).
#[derive(Clone)]
pub struct ByteSender {
    inner: SenderInner,
}

/// The receiving half of a byte stream (in-process channel or socket).
#[derive(Clone)]
pub struct ByteReceiver {
    inner: ReceiverInner,
}

/// Creates a connected in-process sender/receiver pair.
pub fn byte_channel(config: ChannelConfig) -> (ByteSender, ByteReceiver) {
    let shared = Arc::new(Shared {
        stream: Mutex::new(Stream::default()),
        readable: Condvar::new(),
        writable: Condvar::new(),
        config,
    });
    (
        ByteSender {
            inner: SenderInner::Channel(Arc::new(ChannelTx {
                shared: Arc::clone(&shared),
            })),
        },
        ByteReceiver {
            inner: ReceiverInner::Channel(Arc::new(ChannelRx { shared })),
        },
    )
}

/// Wraps the halves of an already-connected socket (used by
/// [`crate::transport`]).
pub(crate) fn stream_halves(tx: StreamTx, rx: StreamRx) -> (ByteSender, ByteReceiver) {
    (
        ByteSender {
            inner: SenderInner::Stream(Arc::new(tx)),
        },
        ByteReceiver {
            inner: ReceiverInner::Stream(Arc::new(rx)),
        },
    )
}

/// Error returned when the peer has closed the channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelClosed;

impl std::fmt::Display for ChannelClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("byte channel closed by peer")
    }
}

impl std::error::Error for ChannelClosed {}

/// Errors surfaced by [`ByteReceiver::recv_frame`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvError {
    /// The peer closed the channel (clean end of stream), or the underlying
    /// socket reported a connection error.
    Closed,
    /// The stream carried bytes that do not decode as a frame.
    Malformed(DecodeError),
    /// No complete frame arrived within the caller's deadline
    /// ([`ByteReceiver::recv_frame_timeout`]).  On a socket the stream may
    /// have desynchronised (a partially read frame stays consumed), so the
    /// connection should be abandoned after a timeout.
    TimedOut,
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Closed => f.write_str("byte channel closed"),
            RecvError::Malformed(e) => write!(f, "{e}"),
            RecvError::TimedOut => f.write_str("timed out waiting for a frame"),
        }
    }
}

impl std::error::Error for RecvError {}

impl ChannelTx {
    fn send_bytes(&self, bytes: &[u8]) -> Result<(), ChannelClosed> {
        if let Some(latency) = self.shared.config.latency {
            std::thread::sleep(latency);
        }
        let mut stream = self.shared.stream.lock();
        loop {
            if stream.closed {
                return Err(ChannelClosed);
            }
            let within_capacity = self
                .shared
                .config
                .capacity
                .map(|cap| stream.buffer.len() + bytes.len() <= cap.max(bytes.len()))
                .unwrap_or(true);
            if within_capacity {
                break;
            }
            self.shared.writable.wait(&mut stream);
        }
        stream.buffer.extend(bytes.iter().copied());
        drop(stream);
        self.shared.readable.notify_one();
        Ok(())
    }

    fn close(&self) {
        let mut stream = self.shared.stream.lock();
        stream.closed = true;
        drop(stream);
        self.shared.readable.notify_all();
        self.shared.writable.notify_all();
    }
}

impl Drop for ChannelTx {
    fn drop(&mut self) {
        self.close();
    }
}

impl ByteSender {
    /// Appends raw bytes to the stream, blocking while the peer's buffer is
    /// full (in-process channels with a configured capacity) or while the
    /// socket's send buffer is full (sockets — the kernel's backpressure).
    pub fn send_bytes(&self, bytes: &[u8]) -> Result<(), ChannelClosed> {
        match &self.inner {
            SenderInner::Channel(tx) => tx.send_bytes(bytes),
            SenderInner::Stream(tx) => tx.write_bytes(bytes),
        }
    }

    /// Encodes and sends one frame.
    pub fn send_frame(&self, frame: &Frame) -> Result<(), ChannelClosed> {
        let encoded: Bytes = encode_frame(frame);
        qs_obs::trace(qs_obs::TraceKind::FrameSend, encoded.len() as u64, 0);
        self.send_bytes(&encoded)
    }

    /// Closes the sending direction; the receiver sees end-of-stream after
    /// draining.  Also happens automatically when the last clone of this
    /// half is dropped.
    pub fn close(&self) {
        match &self.inner {
            SenderInner::Channel(tx) => tx.close(),
            SenderInner::Stream(tx) => tx.shutdown(),
        }
    }

    /// Human-readable description of the peer (socket address, or
    /// `"in-process"` for byte channels) — diagnostics only.
    pub fn peer(&self) -> String {
        match &self.inner {
            SenderInner::Channel(_) => "in-process".to_string(),
            SenderInner::Stream(tx) => tx.peer(),
        }
    }
}

impl ChannelRx {
    /// Blocks until exactly `n` bytes are available and returns them;
    /// reports closure if the stream ends first, `None` on deadline expiry.
    fn recv_exact_deadline(
        &self,
        n: usize,
        deadline: Option<Instant>,
    ) -> Result<Vec<u8>, RecvError> {
        let mut stream = self.shared.stream.lock();
        loop {
            if stream.buffer.len() >= n {
                let bytes: Vec<u8> = stream.buffer.drain(..n).collect();
                drop(stream);
                self.shared.writable.notify_one();
                return Ok(bytes);
            }
            if stream.closed {
                return Err(RecvError::Closed);
            }
            match deadline {
                None => self.shared.readable.wait(&mut stream),
                Some(deadline) => {
                    let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                        return Err(RecvError::TimedOut);
                    };
                    if self
                        .shared
                        .readable
                        .wait_for(&mut stream, remaining)
                        .timed_out()
                        && stream.buffer.len() < n
                        && !stream.closed
                    {
                        return Err(RecvError::TimedOut);
                    }
                }
            }
        }
    }

    fn close(&self) {
        let mut stream = self.shared.stream.lock();
        stream.closed = true;
        drop(stream);
        self.shared.writable.notify_all();
        self.shared.readable.notify_all();
    }
}

impl Drop for ChannelRx {
    fn drop(&mut self) {
        // Closing from the receiving side unblocks a sender waiting on
        // capacity, mirroring a socket reset.
        self.close();
    }
}

impl ByteReceiver {
    /// Receives one length-prefixed frame, blocking until it is complete.
    pub fn recv_frame(&self) -> Result<Frame, RecvError> {
        self.recv_frame_timeout(None)
    }

    /// Receives one length-prefixed frame, giving up after `timeout`
    /// (`None` = block forever).
    ///
    /// After [`RecvError::TimedOut`] on a *socket*, the stream may be
    /// desynchronised (a partial frame may sit in the read buffer): abandon
    /// the connection rather than reading further.
    pub fn recv_frame_timeout(&self, timeout: Option<Duration>) -> Result<Frame, RecvError> {
        let rx = match &self.inner {
            ReceiverInner::Channel(rx) => rx,
            ReceiverInner::Stream(rx) => return rx.recv_frame(timeout),
        };
        let deadline = timeout.map(|t| Instant::now() + t);
        let header = rx.recv_exact_deadline(4, deadline)?;
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
        let body = rx.recv_exact_deadline(len, deadline)?;
        // 4 header bytes + body = the peer's FrameSend payload size.
        qs_obs::trace(qs_obs::TraceKind::FrameRecv, body.len() as u64 + 4, 0);
        decode_frame(&body).map_err(RecvError::Malformed)
    }

    /// Whether a complete frame is already buffered, so the next
    /// [`recv_frame`](Self::recv_frame) returns without waiting for the
    /// peer.  Never blocks and never reads the socket.
    pub fn has_frame(&self) -> bool {
        match &self.inner {
            ReceiverInner::Channel(rx) => {
                let buffer = &rx.shared.stream.lock().buffer;
                buffer.len() >= 4 && {
                    let len = u32::from_le_bytes([buffer[0], buffer[1], buffer[2], buffer[3]]);
                    buffer.len() >= 4 + len as usize
                }
            }
            ReceiverInner::Stream(rx) => rx.has_frame(),
        }
    }

    /// Returns `true` when the sender has closed the channel and no buffered
    /// bytes remain.  Socket receivers cannot observe this without reading
    /// and always return `false`.
    pub fn is_drained(&self) -> bool {
        match &self.inner {
            ReceiverInner::Channel(rx) => {
                let stream = rx.shared.stream.lock();
                stream.closed && stream.buffer.is_empty()
            }
            ReceiverInner::Stream(_) => false,
        }
    }

    /// Number of bytes received but not yet returned as frames
    /// (diagnostics): the channel's buffer, or a socket's read buffer —
    /// not what still waits in the kernel.
    pub fn buffered_bytes(&self) -> usize {
        match &self.inner {
            ReceiverInner::Channel(rx) => rx.shared.stream.lock().buffer.len(),
            ReceiverInner::Stream(rx) => rx.buffered_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireValue;

    #[test]
    fn frames_cross_the_channel_in_order() {
        let (sender, receiver) = byte_channel(ChannelConfig::fast());
        let frames = vec![
            Frame::Hello {
                version: 1,
                client: "c".into(),
            },
            Frame::Call {
                method: "m".into(),
                args: vec![WireValue::Int(1)],
            },
            Frame::Sync,
            Frame::End,
        ];
        for frame in &frames {
            sender.send_frame(frame).unwrap();
        }
        for frame in &frames {
            assert_eq!(&receiver.recv_frame().unwrap(), frame);
        }
    }

    #[test]
    fn receiver_blocks_until_data_arrives() {
        let (sender, receiver) = byte_channel(ChannelConfig::fast());
        let reader = std::thread::spawn(move || receiver.recv_frame().unwrap());
        std::thread::sleep(Duration::from_millis(10));
        sender.send_frame(&Frame::SyncAck).unwrap();
        assert_eq!(reader.join().unwrap(), Frame::SyncAck);
    }

    #[test]
    fn close_is_seen_as_end_of_stream() {
        let (sender, receiver) = byte_channel(ChannelConfig::fast());
        sender.send_frame(&Frame::End).unwrap();
        sender.close();
        assert_eq!(receiver.recv_frame().unwrap(), Frame::End);
        assert_eq!(receiver.recv_frame(), Err(RecvError::Closed));
        assert!(receiver.is_drained());
        assert!(sender.send_frame(&Frame::Sync).is_err());
    }

    #[test]
    fn dropping_sender_closes_the_stream() {
        let (sender, receiver) = byte_channel(ChannelConfig::fast());
        drop(sender);
        assert_eq!(receiver.recv_frame(), Err(RecvError::Closed));
    }

    #[test]
    fn cloned_halves_keep_the_stream_open_until_the_last_drop() {
        let (sender, receiver) = byte_channel(ChannelConfig::fast());
        let extra = sender.clone();
        drop(sender);
        // One clone still alive: the stream stays open.
        extra.send_frame(&Frame::Sync).unwrap();
        assert_eq!(receiver.recv_frame().unwrap(), Frame::Sync);
        drop(extra);
        assert_eq!(receiver.recv_frame(), Err(RecvError::Closed));
    }

    #[test]
    fn recv_frame_timeout_expires_and_then_recovers() {
        let (sender, receiver) = byte_channel(ChannelConfig::fast());
        let start = Instant::now();
        assert_eq!(
            receiver.recv_frame_timeout(Some(Duration::from_millis(30))),
            Err(RecvError::TimedOut)
        );
        assert!(start.elapsed() >= Duration::from_millis(30));
        // In-process channels consume nothing on timeout: a later frame is
        // still received intact.
        sender.send_frame(&Frame::SyncAck).unwrap();
        assert_eq!(
            receiver.recv_frame_timeout(Some(Duration::from_secs(5))),
            Ok(Frame::SyncAck)
        );
    }

    #[test]
    fn bounded_channel_applies_backpressure() {
        let (sender, receiver) = byte_channel(ChannelConfig {
            capacity: Some(64),
            ..ChannelConfig::default()
        });
        // Fill beyond the capacity from another thread; the sender must not
        // lose data and must finish once the receiver drains.
        let writer = std::thread::spawn(move || {
            for i in 0..100u32 {
                sender
                    .send_frame(&Frame::Call {
                        method: format!("m{i}"),
                        args: vec![WireValue::Int(i as i64)],
                    })
                    .unwrap();
            }
        });
        let mut received = 0;
        while received < 100 {
            match receiver.recv_frame().unwrap() {
                Frame::Call { args, .. } => {
                    assert_eq!(args[0], WireValue::Int(received));
                    received += 1;
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        writer.join().unwrap();
    }

    #[test]
    fn latency_injection_delays_delivery() {
        let (sender, receiver) =
            byte_channel(ChannelConfig::with_latency(Duration::from_millis(5)));
        let start = std::time::Instant::now();
        for _ in 0..4 {
            sender.send_frame(&Frame::Sync).unwrap();
        }
        for _ in 0..4 {
            receiver.recv_frame().unwrap();
        }
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn buffered_bytes_reports_backlog() {
        let (sender, receiver) = byte_channel(ChannelConfig::fast());
        assert_eq!(receiver.buffered_bytes(), 0);
        sender.send_frame(&Frame::Sync).unwrap();
        assert!(receiver.buffered_bytes() > 0);
        receiver.recv_frame().unwrap();
        assert_eq!(receiver.buffered_bytes(), 0);
        assert_eq!(sender.peer(), "in-process");
    }
}
