//! The socket front door: one event-loop thread multiplexing every TCP
//! connection onto the in-process [`Server`] — no thread-per-client, no
//! async runtime, no second compute pool.
//!
//! The loop is a hand-rolled `poll(2)` readiness cycle over `std::net`
//! sockets set non-blocking (a direct FFI declaration against the libc
//! the Rust standard library already links; no external crates). Each
//! iteration:
//!
//! 1. re-decodes and resubmits any held (queue-refused) request frame,
//!    then decodes any complete frames already buffered,
//! 2. polls completed [`crate::Ticket`]s and turns them into response
//!    frames (the batcher thread never blocks on a slow client — the
//!    ticket channel decouples it),
//! 3. builds the `pollfd` set from each connection's declared interest
//!    (read paused under backpressure, write only when bytes wait),
//! 4. `poll(2)`s with a short timeout while inference is in flight, a
//!    long one when idle,
//! 5. accepts, reads, and writes whatever became ready.
//!
//! # Invariants
//!
//! * **The batcher never blocks on the network.** Responses cross from
//!   the batcher to the event loop over the per-request ticket channel;
//!   a client that stops reading only ever stalls *its own* connection
//!   (write-buffer cap → reads pause → TCP backpressure).
//! * **Admission conservation extends to the wire.** Every request
//!   frame is answered by exactly one response or error frame (a held
//!   frame only once it is admitted), unless its connection died first — in which case the in-process
//!   server still completes the work and the response is discarded with
//!   the connection (`submitted == completed + failed` server-side,
//!   pinned by `tests/net_e2e.rs` across mid-flight disconnects).
//! * **Graceful drain.** [`NetHandle::shutdown`] stops accepting and
//!   reading, but every in-flight request still computes, flushes, and
//!   only then closes — pinned by `tests/net_e2e.rs`.
//!
//! # Observability
//!
//! With `MERSIT_OBS=1`: `serve.net.connections` / `serve.net.frames.in`
//! counters, `serve.net.bytes.read` / `serve.net.bytes.written` byte
//! counters, and a `serve.net.frame.decode` span per decode attempt.

use crate::config::NetConfig;
use crate::conn::Conn;
use crate::server::Server;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Minimal `poll(2)` FFI: the standard library already links libc on
/// every unix target, so declaring the symbol directly costs nothing and
/// keeps the workspace dependency-free.
#[cfg(unix)]
mod sys {
    /// `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout: i32) -> i32;
    }

    /// Blocks until an fd is ready or `timeout_ms` passes. An empty set
    /// is a plain sleep. `EINTR` reports as zero ready fds.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> usize {
        // SAFETY: `fds` is a valid, exclusively-borrowed slice of
        // `#[repr(C)]` pollfd values for the duration of the call, and
        // the length is passed alongside the pointer.
        let n = unsafe {
            poll(
                fds.as_mut_ptr(),
                fds.len() as std::os::raw::c_ulong,
                timeout_ms,
            )
        };
        usize::try_from(n).unwrap_or(0)
    }
}

/// Portable fallback for non-unix targets: sleep briefly and report
/// everything as ready — the non-blocking I/O paths treat spurious
/// readiness as a no-op (`WouldBlock`), so this is correct, just busier.
#[cfg(not(unix))]
mod sys {
    #[derive(Debug, Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> usize {
        std::thread::sleep(std::time::Duration::from_millis(
            1.min(timeout_ms.max(0) as u64),
        ));
        for f in fds.iter_mut() {
            f.revents = f.events;
        }
        fds.len()
    }
}

/// Poll timeout while any request is in flight (ms): the ticket channel
/// has no fd to select on, so this bounds added response latency.
const BUSY_TIMEOUT_MS: i32 = 1;
/// Poll timeout when fully idle (ms): bounds how long a shutdown signal
/// waits to be noticed.
const IDLE_TIMEOUT_MS: i32 = 25;

/// Lifetime counters for one event loop, returned by
/// [`NetHandle::shutdown`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections closed (gracefully or on error).
    pub closed: u64,
    /// Request frames consumed (a held frame counts once).
    pub requests: u64,
    /// Response frames written toward clients.
    pub responses: u64,
    /// Error frames written toward clients.
    pub errors: u64,
    /// Bytes read off sockets.
    pub bytes_read: u64,
    /// Bytes written to sockets.
    pub bytes_written: u64,
}

/// A running socket front door: the bound address, a stop flag, and the
/// event-loop thread's handle.
#[derive(Debug)]
pub struct NetHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<NetStats>>,
}

impl NetHandle {
    /// The actually-bound listen address (resolves port `0` requests).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals the loop to drain — stop accepting and reading, answer
    /// everything in flight, flush, close — and joins it, returning the
    /// lifetime counters.
    pub fn shutdown(mut self) -> NetStats {
        self.stop.store(true, Ordering::Release);
        self.join
            .take()
            .expect("event loop joined twice")
            .join()
            .expect("event loop panicked")
    }

    /// Blocks until the loop exits on its own (it only does if the
    /// listener dies); used by `mersit-served` to park the main thread.
    pub fn join(mut self) -> NetStats {
        self.join
            .take()
            .expect("event loop joined twice")
            .join()
            .expect("event loop panicked")
    }
}

impl Drop for NetHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.join.take() {
            let _ = h.join();
        }
    }
}

/// Binds `cfg.addr` and spawns the event-loop thread over `server`.
///
/// # Errors
///
/// Propagates listener bind/configuration failures.
pub fn spawn(server: Arc<Server>, cfg: NetConfig) -> std::io::Result<NetHandle> {
    let listener = TcpListener::bind(cfg.addr.as_str())?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let loop_stop = Arc::clone(&stop);
    let join = std::thread::Builder::new()
        .name("mersit-serve-net".into())
        .spawn(move || event_loop(&server, &listener, &cfg, &loop_stop))
        .expect("spawn net event-loop thread");
    Ok(NetHandle {
        addr,
        stop,
        join: Some(join),
    })
}

/// The readiness loop proper. Runs until stopped-and-drained.
fn event_loop(
    server: &Server,
    listener: &TcpListener,
    cfg: &NetConfig,
    stop: &AtomicBool,
) -> NetStats {
    let mut conns: Vec<Conn> = Vec::new();
    let mut stats = NetStats::default();
    let mut draining = false;
    loop {
        if !draining && stop.load(Ordering::Acquire) {
            draining = true;
            for c in &mut conns {
                c.begin_drain();
            }
        }
        // Phase 1: make progress on buffered bytes and held frames, then
        // poll tickets so finished inference becomes response frames.
        let mut in_flight = false;
        for c in &mut conns {
            c.process(server, cfg);
            c.drain_tickets();
            in_flight |= c.has_in_flight();
        }
        // Phase 2: opportunistic flush — most responses fit the socket
        // buffer, so this usually completes without waiting for POLLOUT.
        retain_live(&mut conns, &mut stats, |c| c.flush().is_ok());
        if draining && conns.is_empty() {
            return stats;
        }

        // Phase 3: build the pollfd set. Index 0 is the listener (only
        // while accepting); connection i sits at offset `base + i`.
        let accepting = !draining && conns.len() < cfg.max_conns;
        let base = usize::from(accepting);
        let mut fds: Vec<sys::PollFd> = Vec::with_capacity(base + conns.len());
        if accepting {
            fds.push(sys::PollFd {
                fd: listener_fd(listener),
                events: sys::POLLIN,
                revents: 0,
            });
        }
        for c in &conns {
            let interest = c.interest(cfg);
            let mut events = 0i16;
            if interest.read {
                events |= sys::POLLIN;
            }
            if interest.write {
                events |= sys::POLLOUT;
            }
            // events == 0 still reports POLLHUP/POLLERR, keeping dead
            // sockets from lingering while fully backpressured.
            fds.push(sys::PollFd {
                fd: conn_fd(c),
                events,
                revents: 0,
            });
        }
        let timeout = if in_flight {
            BUSY_TIMEOUT_MS
        } else {
            IDLE_TIMEOUT_MS
        };
        sys::poll_fds(&mut fds, timeout);

        // Phase 4: act on readiness. Accept first, but only walk the
        // connections the pollfd set was built from — freshly accepted
        // ones have no revents yet and wait for the next tick.
        let polled = fds.len() - base;
        if accepting && fds[0].revents & (sys::POLLIN | sys::POLLERR) != 0 {
            accept_ready(listener, cfg, &mut conns, &mut stats);
        }
        let mut dead = Vec::new();
        for (i, c) in conns.iter_mut().enumerate().take(polled) {
            let r = fds[base + i].revents;
            if r & (sys::POLLERR | sys::POLLNVAL) != 0 {
                dead.push(i);
                continue;
            }
            if r & (sys::POLLIN | sys::POLLHUP) != 0 {
                if c.fill(cfg).is_err() {
                    dead.push(i);
                    continue;
                }
                c.process(server, cfg);
            }
            if r & sys::POLLOUT != 0 && c.flush().is_err() {
                dead.push(i);
            }
        }
        for &i in dead.iter().rev() {
            let c = conns.swap_remove(i);
            fold_counters(&mut stats, &c);
            stats.closed += 1;
        }
        retain_live(&mut conns, &mut stats, |c| !c.finished());
    }
}

/// Accepts every pending connection (or parks at the cap — the listener
/// simply stops being polled, leaving latecomers in the kernel backlog).
fn accept_ready(
    listener: &TcpListener,
    cfg: &NetConfig,
    conns: &mut Vec<Conn>,
    stats: &mut NetStats,
) {
    while conns.len() < cfg.max_conns {
        match listener.accept() {
            Ok((stream, _peer)) => match Conn::new(stream) {
                Ok(conn) => {
                    stats.accepted += 1;
                    mersit_obs::incr("serve.net.connections");
                    conns.push(conn);
                }
                Err(_) => stats.closed += 1,
            },
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            // Transient accept errors (EMFILE, ECONNABORTED): skip this
            // round rather than spinning or dying.
            Err(_) => break,
        }
    }
}

/// Drops connections failing `keep`, folding their counters into stats.
fn retain_live(
    conns: &mut Vec<Conn>,
    stats: &mut NetStats,
    mut keep: impl FnMut(&mut Conn) -> bool,
) {
    let mut i = 0;
    while i < conns.len() {
        if keep(&mut conns[i]) {
            i += 1;
        } else {
            let c = conns.swap_remove(i);
            fold_counters(stats, &c);
            stats.closed += 1;
        }
    }
}

fn fold_counters(stats: &mut NetStats, c: &Conn) {
    stats.requests += c.counters.requests;
    stats.responses += c.counters.responses;
    stats.errors += c.counters.errors;
    stats.bytes_read += c.counters.bytes_read;
    stats.bytes_written += c.counters.bytes_written;
    mersit_obs::add("serve.net.frames.in", c.counters.requests);
}

#[cfg(unix)]
fn listener_fd(l: &TcpListener) -> i32 {
    use std::os::unix::io::AsRawFd;
    l.as_raw_fd()
}

#[cfg(unix)]
fn conn_fd(c: &Conn) -> i32 {
    c.raw_fd()
}

#[cfg(not(unix))]
fn listener_fd(_l: &TcpListener) -> i32 {
    0
}

#[cfg(not(unix))]
fn conn_fd(_c: &Conn) -> i32 {
    0
}
