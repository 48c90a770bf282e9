//! # qs-remote — serialized private queues over byte channels
//!
//! §7 of the paper lists "the usage of sockets as the underlying
//! implementation" of private queues as future work: instead of sharing a
//! memory-resident SPSC queue, a client and a handler exchange encoded call
//! frames over a byte stream — the stepping stone towards distributed SCOOP.
//!
//! This crate builds that design against an in-process byte-channel substrate
//! (so it runs on one machine without a network), keeping the SCOOP/Qs
//! structure intact:
//!
//! * [`wire`] — the frame format: length-prefixed, binary-encoded call frames
//!   (`Hello`, `Call`, `Query`, `Sync`/`SyncAck`, `QueryResult`, `End`);
//! * [`channel`] — the byte-channel substrate standing in for a socket pair,
//!   with optional per-write latency and bounded send buffers so wide-area
//!   behaviour can be studied locally;
//! * [`registry`] — method registries: a byte stream cannot carry a closure,
//!   so remote calls name registered methods and carry serialised arguments;
//! * [`server`] — the block server: the one place `Call`/`Query`/`Sync`/`End`
//!   frames are applied, inside a separate block on a `qs-runtime` handler;
//! * [`node`] — remote handler nodes and client proxies: a
//!   [`node::RemoteNode`] is one runtime handler whose serving thread takes
//!   private queues (byte channels or accepted sockets) in arrival order and
//!   serves each with the block server; a [`node::RemoteProxy`] opens
//!   separate blocks, logs calls, performs queries and syncs, preserving the
//!   per-block ordering guarantee of §2.2.
//!
//! ## Example
//!
//! ```
//! use qs_remote::{ChannelConfig, RemoteNode, RemoteObject, WireValue};
//! use qs_remote::registry::counter_registry;
//!
//! let node = RemoteNode::spawn(
//!     "counter",
//!     RemoteObject::new(0i64, counter_registry()),
//!     ChannelConfig::fast(),
//! );
//! let proxy = node.proxy("quickstart");
//! let value = proxy.separate(|s| {
//!     s.call("add", vec![WireValue::Int(40)]).unwrap();
//!     s.call("add", vec![WireValue::Int(2)]).unwrap();
//!     s.query("value", vec![]).unwrap()
//! });
//! assert_eq!(value, WireValue::Int(42));
//! assert_eq!(node.shutdown_and_take(), Some(42));
//! ```

#![warn(missing_docs)]

pub mod channel;
pub mod node;
pub mod registry;
pub mod server;
pub mod transport;
pub mod wire;

pub use channel::{
    byte_channel, ByteReceiver, ByteSender, ChannelClosed, ChannelConfig, RecvError,
};
pub use node::{RemoteError, RemoteNode, RemoteProxy, RemoteSeparate};
pub use registry::{counter_registry, MethodRegistry, RemoteObject};
pub use server::{BlockServer, NodeStats};
pub use transport::{NodeAddr, NodeListener};
pub use wire::{
    decode_frame, encode_frame, encode_frame_into, DecodeError, Frame, WireValue, WIRE_VERSION,
};
