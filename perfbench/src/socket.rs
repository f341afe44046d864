//! Lone traffic over the `mersit-served` wire protocol: the probe the
//! traced run measures the socket layer with.
//!
//! One load-generator thread drives a few TCP connections into the
//! in-process event loop ([`mersit_serve::net`]). Arrivals follow a
//! seeded Poisson schedule at a fixed rate, never derived from a
//! measured one, and the generator records how late it sent each
//! request.

use crate::pass::{Answer, Pass};
use crate::trace;
use crate::zoo::{self, Combo};
use mersit_serve::{net, wire, NetConfig, NetHandle, Server};
use mersit_tensor::{Rng, Tensor};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Samples per seed the traffic draws from.
const POOL: usize = 32;
/// Connections the generator holds open (never more than `nproc`).
const CONNECTIONS: usize = 2;
/// How long after the last arrival the generator waits for answers.
const GRACE: Duration = Duration::from_secs(5);

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Waits until a descriptor is ready or `timeout` passes (`ppoll(2)`,
/// for sub-millisecond wake-ups).
fn wait_ready(fds: &mut [PollFd], timeout: Duration) {
    let ts = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a valid exclusive slice of `struct pollfd` for its
    // length, `ts` is a valid `struct timespec` that outlives the call,
    // and a null signal mask is allowed. A failure (EINTR) only means an
    // early wake-up, which the caller's loop tolerates.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
    }
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Offset from the start of the run.
    pub due: Duration,
    pub combo: usize,
    pub sample: usize,
}

/// `count` Poisson arrivals at `rate` req/s, drawn from `seed`.
pub fn schedule(seed: u64, rate: f64, count: usize, combos: usize) -> Vec<Arrival> {
    let mut rng = Rng::new(seed ^ 0x0A11_1BA1);
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            t += -(1.0 - rng.uniform()).ln() / rate;
            Arrival {
                due: Duration::from_secs_f64(t),
                combo: rng.below(combos),
                sample: rng.below(POOL),
            }
        })
        .collect()
}

/// A server behind the event loop, with the generator's connections open
/// and every plan of the mix built.
pub struct Rig {
    handle: Option<NetHandle>,
    conns: Vec<TcpStream>,
    pub combos: Vec<Combo>,
    pub samples: Vec<Tensor>,
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.conns.clear();
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
    }
}

fn wire_request(id: u64, combo: &Combo, sample: &Tensor) -> wire::WireRequest {
    wire::WireRequest {
        id,
        model: combo.model.to_owned(),
        assignment: combo.format.map(str::to_owned),
        executor: combo.format.map(|_| combo.executor),
        shape: sample.shape().to_vec(),
        data: sample.data().to_vec(),
    }
}

/// Starts the server and event loop over `models`, connects, and warms
/// one plan per combo over the wire.
pub fn setup(seed: u64, models: &[&str], combos: Vec<Combo>) -> Rig {
    let loaded = models.iter().map(|m| zoo::build_model(m)).collect();
    let server = Arc::new(Server::start(loaded, zoo::serve_config()));
    let cfg = NetConfig {
        addr: "127.0.0.1:0".to_owned(),
        max_conns: 16,
        read_buf: 256 * 1024,
        write_buf: 256 * 1024,
    };
    let handle = net::spawn(server, cfg).expect("bind a loopback port");
    let conns: Vec<TcpStream> = (0..CONNECTIONS.min(crate::sys::nproc()))
        .map(|_| {
            let s = TcpStream::connect(handle.addr()).expect("connect to the event loop");
            s.set_nodelay(true).expect("set TCP_NODELAY");
            s
        })
        .collect();
    let samples = zoo::samples(seed, POOL);
    let mut rig = Rig {
        handle: Some(handle),
        conns,
        combos,
        samples,
    };
    for (i, combo) in rig.combos.iter().enumerate() {
        let mut frame = Vec::new();
        wire::encode_request(&wire_request(i as u64, combo, &rig.samples[0]), &mut frame);
        let conn = &mut rig.conns[0];
        conn.write_all(&frame).expect("send warm-up request");
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        let frame = loop {
            if let Some((f, _)) = wire::decode_frame(&buf, 1 << 20).expect("valid reply") {
                break f;
            }
            let n = conn.read(&mut chunk).expect("read warm-up reply");
            assert!(n > 0, "server closed the connection during warm-up");
            buf.extend_from_slice(&chunk[..n]);
        };
        assert!(
            matches!(frame, wire::Frame::Response(_)),
            "warm-up request failed: {frame:?}"
        );
    }
    for c in &rig.conns {
        c.set_nonblocking(true).expect("non-blocking socket");
    }
    rig
}

/// What happened to one scheduled request.
#[derive(Debug, Clone, Copy, Default)]
struct Flight {
    sent: Option<Instant>,
    ok: bool,
}

/// Per-connection byte buffers.
#[derive(Default)]
struct ConnBuf {
    out: Vec<u8>,
    written: usize,
    inbuf: Vec<u8>,
}

impl Rig {
    /// Sends `arrivals` on schedule, from the calling thread, and collects
    /// every answer.
    pub fn drive(&mut self, arrivals: &[Arrival]) -> Pass {
        let mut flights = vec![Flight::default(); arrivals.len()];
        let mut bufs: Vec<ConnBuf> = self.conns.iter().map(|_| ConnBuf::default()).collect();
        let mut pass = Pass::default();
        let mut outstanding = 0usize;
        let mut next = 0usize;
        let mut chunk = vec![0u8; 64 * 1024];
        let end = arrivals.last().map_or(Duration::ZERO, |a| a.due);
        let t0 = Instant::now();
        loop {
            let now = Instant::now();
            while next < arrivals.len() && t0 + arrivals[next].due <= now {
                let a = arrivals[next];
                let ci = next % bufs.len();
                trace::scoped("wire.encode", next as u64 + 1, || {
                    let req =
                        wire_request(next as u64, &self.combos[a.combo], &self.samples[a.sample]);
                    wire::encode_request(&req, &mut bufs[ci].out);
                });
                flights[next].sent = Some(now);
                pass.sample(
                    "late_us",
                    now.duration_since(t0 + a.due).as_secs_f64() * 1e6,
                );
                outstanding += 1;
                next += 1;
            }
            for (conn, b) in self.conns.iter_mut().zip(&mut bufs) {
                while b.written < b.out.len() {
                    match conn.write(&b.out[b.written..]) {
                        Ok(n) => b.written += n,
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) => panic!("connection write failed: {e}"),
                    }
                }
                if b.written == b.out.len() {
                    b.out.clear();
                    b.written = 0;
                }
                loop {
                    match conn.read(&mut chunk) {
                        Ok(0) => panic!("server closed a connection"),
                        Ok(n) => b.inbuf.extend_from_slice(&chunk[..n]),
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) => panic!("connection read failed: {e}"),
                    }
                }
                let recv = Instant::now();
                let mut used = 0;
                while let Some((frame, n)) = trace::scoped("wire.decode", 0, || {
                    wire::decode_frame(&b.inbuf[used..], 1 << 20).expect("server frames decode")
                }) {
                    used += n;
                    let (id, ok) = match frame {
                        wire::Frame::Response(r) => {
                            let i = r.id as usize;
                            let a = arrivals[i];
                            let sent = flights[i].sent.expect("answered requests were sent");
                            let rtt = recv.duration_since(sent).as_secs_f64() * 1e6;
                            pass.sample("front_door_us", rtt - r.total_us as f64);
                            pass.sample("queue_us", r.queue_us as f64);
                            pass.sample("service_us", (r.total_us - r.queue_us) as f64);
                            pass.sample("batch", f64::from(r.batch_size));
                            pass.answers.push(Answer {
                                combo: a.combo,
                                sample: a.sample,
                                pred: r.prediction as usize,
                                in_limit: true,
                            });
                            (r.id, true)
                        }
                        wire::Frame::Error(e) => (e.id, false),
                        other => panic!("unexpected frame from server: {other:?}"),
                    };
                    flights[id as usize].ok = ok;
                    trace::record("request", id + 1, 0, t0 + arrivals[id as usize].due, recv);
                    outstanding -= 1;
                }
                b.inbuf.drain(..used);
            }
            let elapsed = now.duration_since(t0);
            if next == arrivals.len() && (outstanding == 0 || elapsed > end + GRACE) {
                break;
            }
            let timeout = if next < arrivals.len() {
                arrivals[next].due.saturating_sub(elapsed)
            } else {
                Duration::from_millis(50)
            };
            let mut fds: Vec<PollFd> = self
                .conns
                .iter()
                .zip(&bufs)
                .map(|(c, b)| PollFd {
                    fd: c.as_raw_fd(),
                    events: POLLIN | if b.out.is_empty() { 0 } else { POLLOUT },
                    revents: 0,
                })
                .collect();
            wait_ready(&mut fds, timeout.min(Duration::from_millis(50)));
        }
        pass.attempted = arrivals.len() as u64;
        pass.failed = flights.iter().filter(|f| !f.ok).count() as u64;
        pass
    }
}
