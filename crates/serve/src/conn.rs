//! Per-connection state machine for the socket front door: partial-read
//! framing, request decode + submission, out-of-order response write-back,
//! and the two backpressure seams (read-buffer cap, write-buffer cap,
//! plus *holding* a request frame the admission queue refused: it stays
//! unconsumed at the head of the read buffer and reads pause, so TCP flow
//! control — not an error frame — pushes back on the client).
//!
//! A [`Conn`] never blocks: all socket I/O is `WouldBlock`-aware, and
//! completed inference arrives by polling [`Ticket::try_wait`] from the
//! event loop. The loop in [`crate::net`] owns the scheduling; this
//! module owns what happens to one connection's bytes.

use crate::config::NetConfig;
use crate::server::{Request, ServeError, Server, Ticket};
use crate::wire::{self, DecodeError, Frame, WireRequest};
use mersit_tensor::Tensor;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;

/// What a connection wants from the next readiness poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    /// Poll for readability (there is buffer room and no held frame).
    pub read: bool,
    /// Poll for writability (buffered response bytes are waiting).
    pub write: bool,
}

/// Counters one connection accumulates over its lifetime; folded into
/// [`crate::net::NetStats`] when the connection closes.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ConnCounters {
    /// Bytes read off the socket.
    pub bytes_read: u64,
    /// Bytes written back.
    pub bytes_written: u64,
    /// Request frames consumed (a held frame counts once, when admitted).
    pub requests: u64,
    /// Response frames queued for write.
    pub responses: u64,
    /// Error frames queued for write.
    pub errors: u64,
}

/// One accepted connection: socket, elastic read/write buffers, the
/// in-flight tickets awaiting completion, and whether the frame at the
/// head of the read buffer is held (queue-refused).
pub(crate) struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    /// Bytes of `write_buf` already written to the socket.
    write_pos: usize,
    /// Requests submitted to the server, awaiting their responses.
    in_flight: Vec<(u64, Ticket)>,
    /// The admission queue refused the request frame at the head of
    /// `read_buf`; it is re-decoded and resubmitted every tick.
    held: bool,
    /// No more reads: the peer sent EOF, a fatal protocol error fired, or
    /// the server is draining for shutdown.
    read_closed: bool,
    /// A fatal protocol error was encountered: close as soon as the
    /// write buffer drains, without waiting for in-flight work.
    poisoned: bool,
    pub(crate) counters: ConnCounters,
}

impl Conn {
    /// Wraps an accepted stream (sets it non-blocking and disables
    /// Nagle's algorithm so small response frames leave immediately).
    pub(crate) fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            in_flight: Vec::new(),
            held: false,
            read_closed: false,
            poisoned: false,
            counters: ConnCounters::default(),
        })
    }

    /// The raw fd for readiness polling.
    #[cfg(unix)]
    pub(crate) fn raw_fd(&self) -> i32 {
        use std::os::unix::io::AsRawFd;
        self.stream.as_raw_fd()
    }

    /// What to poll for next. Reading pauses (without erroring) while any
    /// backpressure condition holds: a held frame, a full read
    /// buffer, or a write backlog past the cap.
    pub(crate) fn interest(&self, cfg: &NetConfig) -> Interest {
        let backlogged = self.write_buf.len() - self.write_pos >= cfg.write_buf;
        Interest {
            read: !self.read_closed
                && !self.held
                && self.read_buf.len() < cfg.read_buf
                && !backlogged,
            write: self.write_pos < self.write_buf.len(),
        }
    }

    /// True when there are tickets to poll for completion.
    pub(crate) fn has_in_flight(&self) -> bool {
        !self.in_flight.is_empty() || self.held
    }

    /// True when this connection is over: nothing left to read, answer,
    /// or flush. The event loop drops it. Leftover `read_buf` bytes are
    /// a held frame (which keeps the connection open) or at most a
    /// partial trailing frame — once reads stopped that can never
    /// complete, so it doesn't hold the connection open.
    pub(crate) fn finished(&self) -> bool {
        let flushed = self.write_pos >= self.write_buf.len();
        if self.poisoned {
            return flushed;
        }
        self.read_closed && self.in_flight.is_empty() && !self.held && flushed
    }

    /// Stops reading new requests (shutdown drain: in-flight work still
    /// completes and flushes before [`Conn::finished`] turns true).
    pub(crate) fn begin_drain(&mut self) {
        self.read_closed = true;
    }

    /// Pulls whatever the socket has, up to the read-buffer cap. Returns
    /// `Err` on a dead socket (the event loop drops the connection).
    pub(crate) fn fill(&mut self, cfg: &NetConfig) -> std::io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        while !self.read_closed && self.read_buf.len() < cfg.read_buf {
            let room = (cfg.read_buf - self.read_buf.len()).min(chunk.len());
            match self.stream.read(&mut chunk[..room]) {
                Ok(0) => {
                    self.read_closed = true;
                }
                Ok(n) => {
                    self.counters.bytes_read += n as u64;
                    mersit_obs::add("serve.net.bytes.read", n as u64);
                    self.read_buf.extend_from_slice(&chunk[..n]);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Decodes and dispatches every complete frame in the read buffer,
    /// stopping early under backpressure (a queue-refused frame stays in
    /// the buffer, held). Call after [`Conn::fill`] and once per tick to
    /// retry a held frame.
    pub(crate) fn process(&mut self, server: &Server, cfg: &NetConfig) {
        self.held = false;
        while !self.poisoned {
            let outcome = {
                let _span = mersit_obs::span("serve.net.frame.decode");
                wire::decode_frame(&self.read_buf, cfg.read_buf)
            };
            match outcome {
                Ok(None) => break,
                Ok(Some((frame, used))) => {
                    if !self.handle_frame(frame, server) {
                        self.held = true;
                        break;
                    }
                    self.read_buf.drain(..used);
                }
                Err(DecodeError::Malformed {
                    consumed,
                    id,
                    reason,
                }) => {
                    self.read_buf.drain(..consumed);
                    self.push_error(id, wire::ERR_MALFORMED, &reason);
                }
                Err(DecodeError::Fatal(reason)) => {
                    // Framing lost: report once, stop reading, close
                    // after the error frame flushes.
                    self.push_error(0, wire::ERR_PROTOCOL, &reason);
                    self.read_buf.clear();
                    self.read_closed = true;
                    self.poisoned = true;
                }
            }
        }
    }

    /// Acts on one decoded frame. A request goes to the in-process
    /// server; on `QueueFull` this returns `false` and the caller holds
    /// the frame for retry next tick instead of erroring — combined with
    /// [`Conn::interest`] refusing to read while held, admission pressure
    /// turns into TCP flow control the client feels as a slow socket, not
    /// as failures. Other admission errors answer immediately with an
    /// error frame.
    fn handle_frame(&mut self, frame: Frame, server: &Server) -> bool {
        match frame {
            Frame::Request(req) => {
                let id = req.id;
                match server.submit(build_request(req)) {
                    Ok(ticket) => self.in_flight.push((id, ticket)),
                    Err(ServeError::QueueFull { .. }) => return false,
                    Err(e) => self.push_error(id, wire::error_code(&e), &e.to_string()),
                }
                self.counters.requests += 1;
            }
            Frame::Ping(token) => {
                wire::encode_pong(token, &mut self.write_buf);
            }
            // Response / Error / Pong frames travel server → client
            // only; a client sending one is confused but harmless.
            Frame::Response(r) => {
                self.push_error(r.id, wire::ERR_MALFORMED, "unexpected response frame");
            }
            Frame::Error(e) => {
                self.push_error(e.id, wire::ERR_MALFORMED, "unexpected error frame");
            }
            Frame::Pong(_) => {
                self.push_error(0, wire::ERR_MALFORMED, "unexpected pong frame");
            }
        }
        true
    }

    /// Polls every in-flight ticket; completed ones become response (or
    /// error) frames in the write buffer. Returns how many completed.
    pub(crate) fn drain_tickets(&mut self) -> usize {
        let mut done = 0;
        let mut i = 0;
        while i < self.in_flight.len() {
            let (id, ticket) = &self.in_flight[i];
            match ticket.try_wait() {
                None => i += 1,
                Some(result) => {
                    let id = *id;
                    self.in_flight.swap_remove(i);
                    done += 1;
                    match result {
                        Ok(resp) => {
                            self.counters.responses += 1;
                            wire::encode_response(id, &resp, &mut self.write_buf);
                        }
                        Err(e) => {
                            self.push_error(id, wire::error_code(&e), &e.to_string());
                        }
                    }
                }
            }
        }
        done
    }

    /// Writes buffered bytes until the socket blocks or the buffer
    /// empties. Returns `Err` on a dead socket.
    pub(crate) fn flush(&mut self) -> std::io::Result<()> {
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::WriteZero,
                        "socket accepted no bytes",
                    ));
                }
                Ok(n) => {
                    self.write_pos += n;
                    self.counters.bytes_written += n as u64;
                    mersit_obs::add("serve.net.bytes.written", n as u64);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // Reclaim fully-written prefixes so the buffer never grows
        // monotonically across a long-lived connection.
        if self.write_pos == self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
        } else if self.write_pos > 64 * 1024 {
            self.write_buf.drain(..self.write_pos);
            self.write_pos = 0;
        }
        Ok(())
    }

    fn push_error(&mut self, id: u64, code: u16, message: &str) {
        self.counters.errors += 1;
        wire::encode_error(id, code, message, &mut self.write_buf);
    }
}

/// Lowers a decoded wire request onto the in-process [`Request`] builder.
fn build_request(req: WireRequest) -> Request {
    let input = Tensor::from_vec(req.data, &req.shape);
    let mut r = Request::new(req.model, input);
    if let Some(spec) = req.assignment {
        r = r.format(spec);
        if let Some(e) = req.executor {
            r = r.executor(e);
        }
    }
    r
}
