//! The wire format: length-prefixed, binary-encoded call frames.
//!
//! A memory-resident private queue can carry a boxed closure; a byte stream
//! cannot.  Remote requests therefore name a registered method and carry
//! self-describing argument values ([`WireValue`]), mirroring how the paper's
//! in-memory runtime packages asynchronous calls with libffi (§3.2) — the
//! packaging cost simply becomes serialisation cost.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! +------------+----------------------------+
//! | u32 length | length bytes of frame body |
//! +------------+----------------------------+
//! ```
//!
//! The body starts with a one-byte frame tag followed by tag-specific fields.
//! Values are encoded with a one-byte type tag.  The format is deliberately
//! simple and versioned by [`WIRE_VERSION`].

use bytes::{Buf, BufMut, Bytes};

/// Version byte embedded in every `Hello` frame.
///
/// Version 2 added the cluster frames ([`Frame::Open`], [`Frame::Nack`],
/// [`Frame::Control`], [`Frame::ControlResult`]) that multiplex many
/// handler-addressed blocks over one persistent connection.
pub const WIRE_VERSION: u8 = 2;

/// Upper bound on a frame body accepted from an *untrusted* byte stream
/// (sockets).  A corrupt or hostile length prefix must not make the reader
/// allocate gigabytes; in-process channels skip the check (both ends are the
/// same trusted program).
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// A self-describing value carried in call frames.
#[derive(Debug, Clone, PartialEq)]
pub enum WireValue {
    /// Absence of a value.
    Unit,
    /// A signed 64-bit integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// A 64-bit float.
    Float(f64),
    /// A UTF-8 string.
    Str(String),
    /// Raw bytes.
    Bytes(Vec<u8>),
    /// A list of values.
    List(Vec<WireValue>),
}

impl WireValue {
    /// Extracts an integer, or an error message describing the mismatch.
    pub fn as_int(&self) -> Result<i64, String> {
        match self {
            WireValue::Int(n) => Ok(*n),
            other => Err(format!("expected Int, found {other:?}")),
        }
    }

    /// Extracts a boolean.
    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            WireValue::Bool(b) => Ok(*b),
            other => Err(format!("expected Bool, found {other:?}")),
        }
    }

    /// Extracts a string slice.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            WireValue::Str(s) => Ok(s),
            other => Err(format!("expected Str, found {other:?}")),
        }
    }

    /// Extracts a list slice.
    pub fn as_list(&self) -> Result<&[WireValue], String> {
        match self {
            WireValue::List(items) => Ok(items),
            other => Err(format!("expected List, found {other:?}")),
        }
    }
}

/// One frame of the client↔handler protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Sent once when a private queue is registered; carries the protocol
    /// version and the client's name (diagnostics only).
    Hello {
        /// Protocol version ([`WIRE_VERSION`]).
        version: u8,
        /// Free-form client name.
        client: String,
    },
    /// An asynchronous command (the `call` rule): apply `method` to the
    /// handler-owned object.
    Call {
        /// Registered method name.
        method: String,
        /// Arguments.
        args: Vec<WireValue>,
    },
    /// A synchronous query (the `query` rule): apply `method` and send the
    /// result back on the response stream.
    Query {
        /// Registered method name.
        method: String,
        /// Arguments.
        args: Vec<WireValue>,
    },
    /// A sync token: the handler replies with [`Frame::SyncAck`] once every
    /// earlier frame of this private queue has been applied (§3.2).
    Sync,
    /// Handler → client: acknowledges a [`Frame::Sync`].
    SyncAck,
    /// Handler → client: the result of a [`Frame::Query`].
    QueryResult {
        /// The outcome: the value, or an application-level error message.
        result: Result<WireValue, String>,
    },
    /// The END marker closing the client's private queue (the `end` rule).
    End,
    /// Opens a separate block against one handler of a multi-handler node —
    /// the cluster analogue of [`Frame::Hello`].  On a persistent connection
    /// each block is `Open … (Call|Query|Sync)* … End`; the node registers a
    /// fresh private queue for `handler` when it sees the `Open`.
    Open {
        /// The target handler's cluster-wide identifier (what the placement
        /// ring hashes).
        handler: u64,
    },
    /// Node → client: the preceding [`Frame::Open`] (or [`Frame::Hello`])
    /// was rejected; the connection is about to close.
    Nack {
        /// Why the node refused (version mismatch, unknown shard, …).
        message: String,
    },
    /// A node-level control operation outside any handler: `"ping"`,
    /// `"stats"`, `"shutdown"`, … (the small management surface a real
    /// service needs; see `qs-cluster` for the registered operations).
    Control {
        /// Operation name.
        op: String,
        /// Arguments.
        args: Vec<WireValue>,
    },
    /// Node → client: the outcome of a [`Frame::Control`] operation.
    ControlResult {
        /// The value, or an error message.
        result: Result<WireValue, String>,
    },
}

const TAG_HELLO: u8 = 1;
const TAG_CALL: u8 = 2;
const TAG_QUERY: u8 = 3;
const TAG_SYNC: u8 = 4;
const TAG_SYNC_ACK: u8 = 5;
const TAG_QUERY_RESULT: u8 = 6;
const TAG_END: u8 = 7;
const TAG_OPEN: u8 = 8;
const TAG_NACK: u8 = 9;
const TAG_CONTROL: u8 = 10;
const TAG_CONTROL_RESULT: u8 = 11;

const VTAG_UNIT: u8 = 0;
const VTAG_INT: u8 = 1;
const VTAG_BOOL: u8 = 2;
const VTAG_FLOAT: u8 = 3;
const VTAG_STR: u8 = 4;
const VTAG_BYTES: u8 = 5;
const VTAG_LIST: u8 = 6;

/// Errors produced while decoding a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Description of what went wrong.
    pub message: String,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode error: {}", self.message)
    }
}

impl std::error::Error for DecodeError {}

fn decode_err<T>(message: impl Into<String>) -> Result<T, DecodeError> {
    Err(DecodeError {
        message: message.into(),
    })
}

/// Encodes a frame as a length-prefixed byte buffer ready to be written to a
/// byte channel.
pub fn encode_frame(frame: &Frame) -> Bytes {
    let mut framed = Vec::with_capacity(64);
    encode_frame_into(frame, &mut framed);
    Bytes::from(framed)
}

/// Appends one length-prefixed frame to `out` — how a block guard batches
/// the frames of a block into one write.
pub fn encode_frame_into(frame: &Frame, out: &mut Vec<u8>) {
    let at = out.len();
    out.put_u32_le(0);
    match frame {
        Frame::Hello { version, client } => {
            out.put_u8(TAG_HELLO);
            out.put_u8(*version);
            put_string(out, client);
        }
        Frame::Call { method, args } => {
            out.put_u8(TAG_CALL);
            put_string(out, method);
            put_values(out, args);
        }
        Frame::Query { method, args } => {
            out.put_u8(TAG_QUERY);
            put_string(out, method);
            put_values(out, args);
        }
        Frame::Sync => out.put_u8(TAG_SYNC),
        Frame::SyncAck => out.put_u8(TAG_SYNC_ACK),
        Frame::QueryResult { result } => {
            out.put_u8(TAG_QUERY_RESULT);
            match result {
                Ok(value) => {
                    out.put_u8(1);
                    put_value(out, value);
                }
                Err(message) => {
                    out.put_u8(0);
                    put_string(out, message);
                }
            }
        }
        Frame::End => out.put_u8(TAG_END),
        Frame::Open { handler } => {
            out.put_u8(TAG_OPEN);
            out.put_u64_le(*handler);
        }
        Frame::Nack { message } => {
            out.put_u8(TAG_NACK);
            put_string(out, message);
        }
        Frame::Control { op, args } => {
            out.put_u8(TAG_CONTROL);
            put_string(out, op);
            put_values(out, args);
        }
        Frame::ControlResult { result } => {
            out.put_u8(TAG_CONTROL_RESULT);
            match result {
                Ok(value) => {
                    out.put_u8(1);
                    put_value(out, value);
                }
                Err(message) => {
                    out.put_u8(0);
                    put_string(out, message);
                }
            }
        }
    }
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Decodes one frame from a body buffer (the length prefix must already have
/// been consumed by the transport layer).
pub fn decode_frame(mut body: &[u8]) -> Result<Frame, DecodeError> {
    if body.is_empty() {
        return decode_err("empty frame body");
    }
    let tag = body.get_u8();
    let frame = match tag {
        TAG_HELLO => {
            if body.remaining() < 1 {
                return decode_err("hello frame missing version");
            }
            let version = body.get_u8();
            let client = get_string(&mut body)?;
            Frame::Hello { version, client }
        }
        TAG_CALL => Frame::Call {
            method: get_string(&mut body)?,
            args: get_values(&mut body)?,
        },
        TAG_QUERY => Frame::Query {
            method: get_string(&mut body)?,
            args: get_values(&mut body)?,
        },
        TAG_SYNC => Frame::Sync,
        TAG_SYNC_ACK => Frame::SyncAck,
        TAG_QUERY_RESULT => {
            if body.remaining() < 1 {
                return decode_err("query result frame missing status");
            }
            let ok = body.get_u8() == 1;
            if ok {
                Frame::QueryResult {
                    result: Ok(get_value(&mut body)?),
                }
            } else {
                Frame::QueryResult {
                    result: Err(get_string(&mut body)?),
                }
            }
        }
        TAG_END => Frame::End,
        TAG_OPEN => {
            if body.remaining() < 8 {
                return decode_err("truncated Open handler id");
            }
            Frame::Open {
                handler: body.get_u64_le(),
            }
        }
        TAG_NACK => Frame::Nack {
            message: get_string(&mut body)?,
        },
        TAG_CONTROL => Frame::Control {
            op: get_string(&mut body)?,
            args: get_values(&mut body)?,
        },
        TAG_CONTROL_RESULT => {
            if body.remaining() < 1 {
                return decode_err("control result frame missing status");
            }
            let ok = body.get_u8() == 1;
            if ok {
                Frame::ControlResult {
                    result: Ok(get_value(&mut body)?),
                }
            } else {
                Frame::ControlResult {
                    result: Err(get_string(&mut body)?),
                }
            }
        }
        other => return decode_err(format!("unknown frame tag {other}")),
    };
    if body.has_remaining() {
        return decode_err(format!("{} trailing byte(s) after frame", body.remaining()));
    }
    Ok(frame)
}

fn put_string(buffer: &mut Vec<u8>, value: &str) {
    buffer.put_u32_le(value.len() as u32);
    buffer.put_slice(value.as_bytes());
}

fn get_string(body: &mut &[u8]) -> Result<String, DecodeError> {
    if body.remaining() < 4 {
        return decode_err("truncated string length");
    }
    let len = body.get_u32_le() as usize;
    if body.remaining() < len {
        return decode_err("truncated string payload");
    }
    let (head, rest) = body.split_at(len);
    let value = std::str::from_utf8(head)
        .map_err(|_| DecodeError {
            message: "string payload is not UTF-8".to_string(),
        })?
        .to_string();
    *body = rest;
    Ok(value)
}

fn put_values(buffer: &mut Vec<u8>, values: &[WireValue]) {
    buffer.put_u32_le(values.len() as u32);
    for value in values {
        put_value(buffer, value);
    }
}

fn get_values(body: &mut &[u8]) -> Result<Vec<WireValue>, DecodeError> {
    if body.remaining() < 4 {
        return decode_err("truncated value-list length");
    }
    let count = body.get_u32_le() as usize;
    if count > 1 << 24 {
        return decode_err(format!("value list of length {count} exceeds limits"));
    }
    let mut values = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        values.push(get_value(body)?);
    }
    Ok(values)
}

fn put_value(buffer: &mut Vec<u8>, value: &WireValue) {
    match value {
        WireValue::Unit => buffer.put_u8(VTAG_UNIT),
        WireValue::Int(n) => {
            buffer.put_u8(VTAG_INT);
            buffer.put_i64_le(*n);
        }
        WireValue::Bool(b) => {
            buffer.put_u8(VTAG_BOOL);
            buffer.put_u8(u8::from(*b));
        }
        WireValue::Float(x) => {
            buffer.put_u8(VTAG_FLOAT);
            buffer.put_f64_le(*x);
        }
        WireValue::Str(s) => {
            buffer.put_u8(VTAG_STR);
            put_string(buffer, s);
        }
        WireValue::Bytes(bytes) => {
            buffer.put_u8(VTAG_BYTES);
            buffer.put_u32_le(bytes.len() as u32);
            buffer.put_slice(bytes);
        }
        WireValue::List(items) => {
            buffer.put_u8(VTAG_LIST);
            put_values(buffer, items);
        }
    }
}

fn get_value(body: &mut &[u8]) -> Result<WireValue, DecodeError> {
    if body.remaining() < 1 {
        return decode_err("truncated value tag");
    }
    let tag = body.get_u8();
    let value = match tag {
        VTAG_UNIT => WireValue::Unit,
        VTAG_INT => {
            if body.remaining() < 8 {
                return decode_err("truncated Int");
            }
            WireValue::Int(body.get_i64_le())
        }
        VTAG_BOOL => {
            if body.remaining() < 1 {
                return decode_err("truncated Bool");
            }
            WireValue::Bool(body.get_u8() != 0)
        }
        VTAG_FLOAT => {
            if body.remaining() < 8 {
                return decode_err("truncated Float");
            }
            WireValue::Float(body.get_f64_le())
        }
        VTAG_STR => WireValue::Str(get_string(body)?),
        VTAG_BYTES => {
            if body.remaining() < 4 {
                return decode_err("truncated Bytes length");
            }
            let len = body.get_u32_le() as usize;
            if body.remaining() < len {
                return decode_err("truncated Bytes payload");
            }
            let (head, rest) = body.split_at(len);
            let bytes = head.to_vec();
            *body = rest;
            WireValue::Bytes(bytes)
        }
        VTAG_LIST => WireValue::List(get_values(body)?),
        other => return decode_err(format!("unknown value tag {other}")),
    };
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let encoded = encode_frame(&frame);
        // Strip the length prefix the way the transport does.
        let mut cursor = &encoded[..];
        let len = cursor.get_u32_le() as usize;
        assert_eq!(cursor.len(), len);
        let decoded = decode_frame(cursor).unwrap();
        assert_eq!(decoded, frame);
    }

    #[test]
    fn all_frame_kinds_roundtrip() {
        roundtrip(Frame::Hello {
            version: WIRE_VERSION,
            client: "client-1".to_string(),
        });
        roundtrip(Frame::Call {
            method: "deposit".to_string(),
            args: vec![WireValue::Int(25), WireValue::Bool(true)],
        });
        roundtrip(Frame::Query {
            method: "balance".to_string(),
            args: vec![],
        });
        roundtrip(Frame::Sync);
        roundtrip(Frame::SyncAck);
        roundtrip(Frame::QueryResult {
            result: Ok(WireValue::List(vec![
                WireValue::Int(-3),
                WireValue::Str("αβγ".to_string()),
                WireValue::Bytes(vec![0, 255, 128]),
                WireValue::Float(1.5),
                WireValue::Unit,
            ])),
        });
        roundtrip(Frame::QueryResult {
            result: Err("no such method".to_string()),
        });
        roundtrip(Frame::End);
        roundtrip(Frame::Open {
            handler: u64::MAX - 7,
        });
        roundtrip(Frame::Nack {
            message: "wrong shard".to_string(),
        });
        roundtrip(Frame::Control {
            op: "stats".to_string(),
            args: vec![WireValue::Str("detail".to_string())],
        });
        roundtrip(Frame::ControlResult {
            result: Ok(WireValue::Int(3)),
        });
        roundtrip(Frame::ControlResult {
            result: Err("unknown op".to_string()),
        });
    }

    #[test]
    fn nested_lists_roundtrip() {
        roundtrip(Frame::Call {
            method: "matrix_row".to_string(),
            args: vec![WireValue::List(vec![
                WireValue::List(vec![WireValue::Int(1), WireValue::Int(2)]),
                WireValue::List(vec![]),
            ])],
        });
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_frame(&[]).is_err());
        assert!(decode_frame(&[99]).is_err());
        // Truncated string length.
        assert!(decode_frame(&[TAG_CALL, 3, 0]).is_err());
        // Trailing bytes.
        assert!(decode_frame(&[TAG_SYNC, 0]).is_err());
        // Non-UTF-8 method name.
        let mut body = Vec::new();
        body.put_u8(TAG_CALL);
        body.put_u32_le(2);
        body.put_slice(&[0xFF, 0xFE]);
        body.put_u32_le(0);
        assert!(decode_frame(&body).is_err());
    }

    #[test]
    fn value_accessors_report_mismatches() {
        assert_eq!(WireValue::Int(7).as_int().unwrap(), 7);
        assert!(WireValue::Bool(true).as_int().is_err());
        assert!(WireValue::Int(0).as_bool().is_err());
        assert_eq!(WireValue::Str("x".into()).as_str().unwrap(), "x");
        assert!(WireValue::Unit.as_str().is_err());
        assert_eq!(
            WireValue::List(vec![WireValue::Unit])
                .as_list()
                .unwrap()
                .len(),
            1
        );
        assert!(WireValue::Int(1).as_list().is_err());
    }

    #[test]
    fn decode_error_displays() {
        let error = decode_frame(&[42]).unwrap_err();
        assert!(error.to_string().contains("unknown frame tag"));
    }
}
