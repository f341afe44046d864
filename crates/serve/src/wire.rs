//! The wire protocol: a length-prefixed binary framing for requests and
//! responses over a byte stream. `PROTOCOL.md` at the repository root is
//! the normative byte-level specification; this module is its reference
//! implementation, and `tests/wire_props.rs` pins the round-trip and
//! malformed-input behavior.
//!
//! Design points, in brief:
//!
//! * **Self-delimiting.** Every frame starts with an 8-byte header
//!   (magic, version, type, flags, payload length), so a reader always
//!   knows how many bytes it is waiting for — the precondition for
//!   pipelining many requests on one connection.
//! * **Correlation ids, not ordering.** Responses carry the request's
//!   client-chosen `id` and may arrive in any order; clients must match
//!   on `id`, never on position.
//! * **Two failure severities.** A frame whose *boundary* is intact but
//!   whose payload doesn't parse yields [`DecodeError::Malformed`] — the
//!   connection skips the frame, answers with an [`ERR_MALFORMED`] error
//!   frame, and keeps going. A broken *boundary* (bad magic, unknown
//!   version/type, oversized length) yields [`DecodeError::Fatal`]: the
//!   stream position can no longer be trusted, so the peer gets one
//!   [`ERR_PROTOCOL`] error frame and the connection closes.
//! * **Big-endian everywhere**, including the IEEE-754 bit patterns of
//!   `f32` payload elements (`f32::to_bits` / `from_bits`, so NaN
//!   payloads survive byte-for-byte).

use crate::server::{Response, ServeError};
use mersit_ptq::Executor;

/// First byte of every frame. Chosen to be outside ASCII so that a
/// text-protocol client connecting by mistake fails fast.
pub const MAGIC: u8 = 0xC8;
/// The one protocol version this build speaks.
pub const VERSION: u8 = 1;
/// Fixed size of the frame header in bytes.
pub const HEADER_LEN: usize = 8;

/// Frame type tag: request. Client → server.
pub const FRAME_REQUEST: u8 = 0x01;
/// Frame type tag: response. Server → client.
pub const FRAME_RESPONSE: u8 = 0x02;
/// Frame type tag: error. Server → client.
pub const FRAME_ERROR: u8 = 0x03;
/// Frame type tag: ping. Client → server liveness probe.
pub const FRAME_PING: u8 = 0x04;
/// Frame type tag: pong. Server → client, echoing the ping token.
pub const FRAME_PONG: u8 = 0x05;

/// Error code: admission queue full (reserved — the reference server
/// prefers holding the frame + TCP backpressure over emitting this, see
/// `PROTOCOL.md` §5).
pub const ERR_QUEUE_FULL: u16 = 1;
/// Error code: no model with the requested name is loaded.
pub const ERR_UNKNOWN_MODEL: u16 = 2;
/// Error code: the assignment spec did not parse.
pub const ERR_BAD_FORMAT: u16 = 3;
/// Error code: the server is shutting down.
pub const ERR_SHUTTING_DOWN: u16 = 4;
/// Error code: the batch this request rode in failed in compute.
pub const ERR_INTERNAL: u16 = 5;
/// Error code: a well-delimited frame whose payload did not parse. The
/// connection stays open.
pub const ERR_MALFORMED: u16 = 6;
/// Error code: framing lost (bad magic/version/type/flags or an
/// oversized declared length). The server closes the connection after
/// this frame.
pub const ERR_PROTOCOL: u16 = 7;

/// Highest input rank a request may declare.
pub const MAX_RANK: usize = 8;

/// A decoded request frame: everything needed to build a
/// [`crate::Request`] against an in-process [`crate::Server`].
#[derive(Debug, Clone, PartialEq)]
pub struct WireRequest {
    /// Client-chosen correlation id, echoed verbatim in the response or
    /// error frame. Clients pipelining multiple requests must keep ids
    /// unique per connection while in flight.
    pub id: u64,
    /// Target model name (UTF-8, ≤ 255 bytes).
    pub model: String,
    /// Format / assignment spec (`"MERSIT(8,2)"`,
    /// `"MERSIT(8,2);head=FP(8,4)"`); `None` (zero-length on the wire)
    /// selects the FP32 reference forward.
    pub assignment: Option<String>,
    /// Requested executor: `None` = server default
    /// (wire value 0), otherwise float (1) / bit-true (2).
    pub executor: Option<Executor>,
    /// Sample shape, **without** a batch dimension (the server batches).
    pub shape: Vec<usize>,
    /// Row-major sample payload; `data.len()` equals the shape product.
    pub data: Vec<f32>,
}

/// A decoded response frame (the server's answer to one request).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireResponse {
    /// Correlation id of the request this answers.
    pub id: u64,
    /// Argmax class index.
    pub prediction: u32,
    /// Size of the coalesced batch that computed this.
    pub batch_size: u32,
    /// Microseconds from admission to the batch starting to compute.
    pub queue_us: u64,
    /// Microseconds from admission to the response being ready.
    pub total_us: u64,
}

/// A decoded error frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Correlation id of the offending request, or `0` when the error is
    /// not attributable to a specific request (e.g. framing lost).
    pub id: u64,
    /// One of the `ERR_*` codes.
    pub code: u16,
    /// Human-readable detail (UTF-8, ≤ 65 535 bytes). Informational
    /// only — clients must dispatch on `code`.
    pub message: String,
}

/// Any frame the protocol can carry.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A client inference request.
    Request(WireRequest),
    /// A server answer.
    Response(WireResponse),
    /// A server-side failure report.
    Error(WireError),
    /// Liveness probe carrying an opaque token.
    Ping(u64),
    /// Probe answer echoing the token.
    Pong(u64),
}

/// Why a buffer failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The frame boundary itself is untrustworthy (bad magic, unknown
    /// version or type, nonzero flags, declared length over the limit).
    /// The connection must send one [`ERR_PROTOCOL`] frame and close.
    Fatal(String),
    /// The frame boundary is intact — `consumed` bytes cover the whole
    /// frame — but the payload inside did not parse. Skip the frame,
    /// answer [`ERR_MALFORMED`] (with `id` when it could be recovered,
    /// else 0), and keep the connection.
    Malformed {
        /// Total frame size to skip (header + payload).
        consumed: usize,
        /// Recovered request id, or 0.
        id: u64,
        /// What went wrong.
        reason: String,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Fatal(m) => write!(f, "protocol error: {m}"),
            DecodeError::Malformed { reason, .. } => write!(f, "malformed frame: {reason}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Maps a [`ServeError`] to its wire error code.
#[must_use]
pub fn error_code(e: &ServeError) -> u16 {
    match e {
        ServeError::QueueFull { .. } => ERR_QUEUE_FULL,
        ServeError::UnknownModel(_) => ERR_UNKNOWN_MODEL,
        ServeError::BadFormat(_) => ERR_BAD_FORMAT,
        ServeError::ShuttingDown => ERR_SHUTTING_DOWN,
        ServeError::Internal(_) => ERR_INTERNAL,
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Writes a frame header followed by the payload produced by `body`.
/// The payload length field is back-patched, so `body` can emit freely.
fn frame(out: &mut Vec<u8>, frame_type: u8, body: impl FnOnce(&mut Vec<u8>)) {
    out.push(MAGIC);
    out.push(VERSION);
    out.push(frame_type);
    out.push(0); // flags: must be zero in v1
    let len_at = out.len();
    put_u32(out, 0);
    let payload_start = out.len();
    body(out);
    let payload_len =
        u32::try_from(out.len() - payload_start).expect("frame payload exceeds u32::MAX");
    out[len_at..len_at + 4].copy_from_slice(&payload_len.to_be_bytes());
}

/// Encodes a request frame.
///
/// # Panics
///
/// Panics if the model name exceeds 255 bytes, the assignment spec
/// exceeds 65 535 bytes, the rank exceeds [`MAX_RANK`], a dimension
/// exceeds `u32::MAX`, or `data.len()` differs from the shape product —
/// these are caller bugs, not wire conditions.
pub fn encode_request(req: &WireRequest, out: &mut Vec<u8>) {
    let model = req.model.as_bytes();
    assert!(model.len() <= 255, "model name too long for the wire");
    let assign = req.assignment.as_deref().unwrap_or("").as_bytes();
    assert!(assign.len() <= 65_535, "assignment spec too long");
    assert!(
        req.shape.len() <= MAX_RANK && !req.shape.is_empty(),
        "bad rank"
    );
    let elems: usize = req.shape.iter().product();
    assert_eq!(req.data.len(), elems, "payload/shape mismatch");
    frame(out, FRAME_REQUEST, |out| {
        put_u64(out, req.id);
        out.push(model.len() as u8);
        out.extend_from_slice(model);
        put_u16(out, assign.len() as u16);
        out.extend_from_slice(assign);
        out.push(match req.executor {
            None => 0,
            Some(Executor::Float) => 1,
            Some(Executor::BitTrue) => 2,
        });
        out.push(req.shape.len() as u8);
        for &d in &req.shape {
            put_u32(out, u32::try_from(d).expect("dimension exceeds u32"));
        }
        for &v in &req.data {
            put_u32(out, v.to_bits());
        }
    });
}

/// Encodes a response frame answering request `id`.
pub fn encode_response(id: u64, resp: &Response, out: &mut Vec<u8>) {
    frame(out, FRAME_RESPONSE, |out| {
        put_u64(out, id);
        put_u32(out, u32::try_from(resp.prediction).unwrap_or(u32::MAX));
        put_u32(out, u32::try_from(resp.batch_size).unwrap_or(u32::MAX));
        put_u64(out, resp.queue_us);
        put_u64(out, resp.total_us);
    });
}

/// Encodes an error frame (code + truncated-to-u16 message).
pub fn encode_error(id: u64, code: u16, message: &str, out: &mut Vec<u8>) {
    let msg = truncate_utf8(message, 65_535);
    frame(out, FRAME_ERROR, |out| {
        put_u64(out, id);
        put_u16(out, code);
        put_u16(out, msg.len() as u16);
        out.extend_from_slice(msg);
    });
}

/// Encodes a ping frame carrying `token`.
pub fn encode_ping(token: u64, out: &mut Vec<u8>) {
    frame(out, FRAME_PING, |out| put_u64(out, token));
}

/// Encodes a pong frame echoing `token`.
pub fn encode_pong(token: u64, out: &mut Vec<u8>) {
    frame(out, FRAME_PONG, |out| put_u64(out, token));
}

/// Truncates to at most `max` bytes on a UTF-8 boundary.
fn truncate_utf8(s: &str, max: usize) -> &[u8] {
    if s.len() <= max {
        return s.as_bytes();
    }
    let mut end = max;
    while end > 0 && !s.is_char_boundary(end) {
        end -= 1;
    }
    &s.as_bytes()[..end]
}

/// Cursor over a frame payload with bounds-checked big-endian reads.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "payload truncated: wanted {n} more bytes, have {}",
                self.remaining()
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    fn utf8(&mut self, n: usize) -> Result<&'a str, String> {
        std::str::from_utf8(self.take(n)?).map_err(|e| format!("invalid UTF-8: {e}"))
    }
}

/// Attempts to decode one frame from the front of `buf`.
///
/// * `Ok(None)` — `buf` holds no complete frame yet; read more bytes.
/// * `Ok(Some((frame, consumed)))` — one frame decoded; drop `consumed`
///   bytes from the front of `buf` and call again.
/// * `Err(..)` — see [`DecodeError`] for the two severities.
///
/// `max_payload` bounds the declared payload length (a resource cap, not
/// a protocol constant — the reference server uses its read-buffer
/// capacity); longer declarations are [`DecodeError::Fatal`] because the
/// reader will never buffer enough to reach the next boundary.
///
/// Never panics, for any byte sequence: pinned by `tests/wire_props.rs`.
pub fn decode_frame(buf: &[u8], max_payload: usize) -> Result<Option<(Frame, usize)>, DecodeError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    if buf[0] != MAGIC {
        return Err(DecodeError::Fatal(format!(
            "bad magic byte 0x{:02X} (want 0x{MAGIC:02X})",
            buf[0]
        )));
    }
    if buf[1] != VERSION {
        return Err(DecodeError::Fatal(format!(
            "unsupported protocol version {} (this build speaks {VERSION})",
            buf[1]
        )));
    }
    let frame_type = buf[2];
    if buf[3] != 0 {
        return Err(DecodeError::Fatal(format!(
            "nonzero flags 0x{:02X} in a v1 frame",
            buf[3]
        )));
    }
    let payload_len = u32::from_be_bytes(buf[4..8].try_into().expect("len 4")) as usize;
    if payload_len > max_payload {
        return Err(DecodeError::Fatal(format!(
            "declared payload of {payload_len} bytes exceeds the {max_payload}-byte limit"
        )));
    }
    let total = HEADER_LEN + payload_len;
    if buf.len() < total {
        return Ok(None);
    }
    let payload = &buf[HEADER_LEN..total];
    let frame = match frame_type {
        FRAME_REQUEST => decode_request(payload).map(Frame::Request),
        FRAME_RESPONSE => decode_response(payload).map(Frame::Response),
        FRAME_ERROR => decode_error(payload).map(Frame::Error),
        FRAME_PING => decode_token(payload).map(Frame::Ping),
        FRAME_PONG => decode_token(payload).map(Frame::Pong),
        t => {
            return Err(DecodeError::Fatal(format!("unknown frame type 0x{t:02X}")));
        }
    };
    match frame {
        Ok(f) => Ok(Some((f, total))),
        Err(reason) => Err(DecodeError::Malformed {
            consumed: total,
            id: recover_id(payload),
            reason,
        }),
    }
}

/// Best-effort request-id recovery from a malformed payload (the id is
/// always the first 8 payload bytes of every id-carrying frame type).
fn recover_id(payload: &[u8]) -> u64 {
    if payload.len() >= 8 {
        u64::from_be_bytes(payload[..8].try_into().expect("len 8"))
    } else {
        0
    }
}

fn decode_request(payload: &[u8]) -> Result<WireRequest, String> {
    let mut r = Reader::new(payload);
    let id = r.u64()?;
    let model_len = r.u8()? as usize;
    let model = r.utf8(model_len)?.to_owned();
    if model.is_empty() {
        return Err("empty model name".into());
    }
    let assign_len = r.u16()? as usize;
    let assignment = if assign_len == 0 {
        None
    } else {
        Some(r.utf8(assign_len)?.to_owned())
    };
    let executor = match r.u8()? {
        0 => None,
        1 => Some(Executor::Float),
        2 => Some(Executor::BitTrue),
        e => return Err(format!("unknown executor code {e}")),
    };
    let rank = r.u8()? as usize;
    if rank == 0 || rank > MAX_RANK {
        return Err(format!("rank {rank} outside 1..={MAX_RANK}"));
    }
    let mut shape = Vec::with_capacity(rank);
    let mut elems: usize = 1;
    for _ in 0..rank {
        let d = r.u32()? as usize;
        if d == 0 {
            return Err("zero dimension".into());
        }
        elems = elems
            .checked_mul(d)
            .ok_or_else(|| "shape product overflows".to_owned())?;
        shape.push(d);
    }
    // The element count must exactly consume the rest of the payload —
    // a mismatch means the sender and receiver disagree about layout.
    if r.remaining() != elems * 4 {
        return Err(format!(
            "payload holds {} bytes of data but the shape wants {}",
            r.remaining(),
            elems * 4
        ));
    }
    let mut data = Vec::with_capacity(elems);
    for _ in 0..elems {
        data.push(f32::from_bits(r.u32()?));
    }
    Ok(WireRequest {
        id,
        model,
        assignment,
        executor,
        shape,
        data,
    })
}

fn decode_response(payload: &[u8]) -> Result<WireResponse, String> {
    let mut r = Reader::new(payload);
    let resp = WireResponse {
        id: r.u64()?,
        prediction: r.u32()?,
        batch_size: r.u32()?,
        queue_us: r.u64()?,
        total_us: r.u64()?,
    };
    if r.remaining() != 0 {
        return Err(format!("{} trailing bytes after response", r.remaining()));
    }
    Ok(resp)
}

fn decode_error(payload: &[u8]) -> Result<WireError, String> {
    let mut r = Reader::new(payload);
    let id = r.u64()?;
    let code = r.u16()?;
    let msg_len = r.u16()? as usize;
    let message = r.utf8(msg_len)?.to_owned();
    if r.remaining() != 0 {
        return Err(format!("{} trailing bytes after error", r.remaining()));
    }
    Ok(WireError { id, code, message })
}

fn decode_token(payload: &[u8]) -> Result<u64, String> {
    let mut r = Reader::new(payload);
    let token = r.u64()?;
    if r.remaining() != 0 {
        return Err(format!("{} trailing bytes after ping/pong", r.remaining()));
    }
    Ok(token)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let req = WireRequest {
            id: 42,
            model: "vgg_t".into(),
            assignment: Some("MERSIT(8,2);head=FP(8,4)".into()),
            executor: Some(Executor::BitTrue),
            shape: vec![3, 4, 4],
            data: (0..48).map(|i| i as f32 * 0.5 - 3.0).collect(),
        };
        let mut buf = Vec::new();
        encode_request(&req, &mut buf);
        let (frame, used) = decode_frame(&buf, 1 << 20).unwrap().unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(frame, Frame::Request(req));
    }

    #[test]
    fn truncated_needs_more_and_garbage_is_fatal() {
        let mut buf = Vec::new();
        encode_ping(7, &mut buf);
        for cut in 0..buf.len() {
            assert_eq!(decode_frame(&buf[..cut], 1 << 20), Ok(None));
        }
        assert!(matches!(
            decode_frame(b"GET / HTTP/1.1\r\n", 1 << 20),
            Err(DecodeError::Fatal(_))
        ));
    }

    #[test]
    fn oversized_declaration_is_fatal() {
        let mut buf = vec![MAGIC, VERSION, FRAME_PING, 0];
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            decode_frame(&buf, 1 << 20),
            Err(DecodeError::Fatal(_))
        ));
    }

    /// Pins the annotated hex example in `PROTOCOL.md` §6 — if this
    /// fails, either the codec or the spec drifted; fix whichever is
    /// wrong and keep the two in sync.
    #[test]
    fn protocol_md_worked_example_matches() {
        fn unhex(s: &str) -> Vec<u8> {
            (0..s.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
                .collect()
        }
        let req = WireRequest {
            id: 7,
            model: "vgg_t".into(),
            assignment: Some("MERSIT(8,2)".into()),
            executor: Some(Executor::BitTrue),
            shape: vec![4],
            data: vec![1.5, -2.0, 0.25, 3.0],
        };
        let mut buf = Vec::new();
        encode_request(&req, &mut buf);
        assert_eq!(
            buf,
            unhex(
                "c8010100000000310000000000000007057667675f74000b4d45525349\
                 5428382c32290201000000043fc00000c00000003e80000040400000"
            )
        );
        let resp = Response {
            prediction: 3,
            batch_size: 2,
            queue_us: 412,
            total_us: 903,
        };
        let mut buf = Vec::new();
        encode_response(7, &resp, &mut buf);
        assert_eq!(
            buf,
            unhex(
                "c80102000000002000000000000000070000000300000002000000000000019c0000000000000387"
            )
        );
    }

    #[test]
    fn malformed_payload_recovers_id_and_boundary() {
        // A request frame whose payload is just an id (no model etc.).
        let mut buf = Vec::new();
        frame(&mut buf, FRAME_REQUEST, |out| put_u64(out, 0xDEAD));
        match decode_frame(&buf, 1 << 20) {
            Err(DecodeError::Malformed { consumed, id, .. }) => {
                assert_eq!(consumed, buf.len());
                assert_eq!(id, 0xDEAD);
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }
}
