//! TCP transport: one authenticated socket per replica link.
//!
//! Topology is a full mesh with a deterministic dialing convention — the
//! lower-id replica dials the higher-id replica's listener — so each
//! ordered pair shares exactly one connection. Every connection runs the
//! [`session`](crate::session) handshake before carrying traffic, and
//! every frame is `len || seq || payload || tag` (framing from
//! [`astro_types::wire`], MAC from the session layer).
//!
//! # Threads
//!
//! A [`TcpEndpoint`] owns its listener, links and pending handshakes and
//! does all their I/O on its caller's thread — in a cluster, the replica
//! driver. Its sockets are non-blocking:
//!
//! - `send` / `broadcast` seal frames into a per-link buffer; `uncork`, an
//!   uncorked `send`, or a corked buffer past 256 KiB writes it, one
//!   `write(2)` per link when the socket has room.
//! - `recv_timeout` returns a staged message if one is waiting; otherwise
//!   it reads every link without blocking, opens each complete frame in
//!   place (MAC and sequence checked before it is staged) and stages it.
//!   Only when nothing is staged does it block, in **one** `poll(2)` over
//!   the links, the listener, the pending handshakes and a wake socket.
//!   Staged messages never keep it from polling them all at least every
//!   50 ms.
//! - Each accepted or dialed socket first runs its side of HELLO → ACK →
//!   CONFIRM as a non-blocking state machine, dropped after 2 s.
//! - A flush the kernel cannot take in full waits in that same `poll` for
//!   writability and keeps reading every link meanwhile, so two endpoints
//!   flushing to each other with full socket buffers both make progress.
//!   A link that accepts no byte for 2 s is torn down.
//!
//! std has no non-blocking `connect`, so each dial runs its TCP connect
//! on a short-lived thread (at most one per peer) that hands the socket
//! back over a channel, wakes the `poll` and ends.
//!
//! Failure handling: a broken connection tears the link down when the
//! endpoint is driven — its next `recv_timeout` reads the EOF, or its
//! next `send` fails to write. From then on `send` and `broadcast` report
//! [`NetError::LinkDown`] for that peer at once. On the dialer side the
//! driven endpoint re-dials it (at most once per peer per 250 ms); the
//! acceptor side installs whatever authenticated replacement arrives, and
//! keeps at most 16 inbound handshakes waiting, evicting the oldest.
//! Messages in flight during an outage are lost — exactly the fair-loss
//! link the BRB layer is designed to tolerate (quorums mask a
//! disconnected minority; a reconnected replica rejoins the broadcast
//! flow).

// Parses handshake bytes from unauthenticated sockets: none may reach a
// panic.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::frames::FrameReader;
use crate::session::{
    make_ack, make_confirm, make_hello, session_pair, verify_ack, verify_confirm, verify_hello,
    RecvSession, SendSession, ACK_LEN, CONFIRM_LEN, HELLO_LEN, NONCE_LEN,
};
use crate::{Endpoint, NetError, Payload, Transport};
use astro_obs::{Counter, FlightRecorder, Histogram, Registry};
use astro_types::wire::{peek_frame_len, put_frame, Wire, MAX_FRAME_LEN};
use astro_types::{Keychain, ReplicaId};
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_short};
use std::os::unix::net::UnixStream;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

type Packet = (ReplicaId, Payload);

/// How long a TCP connect, and then a handshake, may take.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// How long a flush waits on a link that accepts no byte before tearing
/// it down: a peer that completes the handshake but stops reading costs
/// its own link, never an indefinite stall of the endpoint's thread.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Minimum spacing between dials to one peer, from the end of the last
/// attempt: a dead peer costs one connect per cooldown.
const REDIAL_COOLDOWN: Duration = Duration::from_millis(250);

/// The longest a driven endpoint leaves its listener, handshakes and due
/// redials unserviced. Redials heal links even in a quiet mesh, so a
/// restarted replica's catch-up requests can reach its lower-id peers.
const MAINTENANCE_PERIOD: Duration = Duration::from_millis(50);

/// Most inbound handshakes pending at once.
const MAX_PENDING_ACCEPTS: usize = 16;

/// When a per-link coalescing buffer grows past this while corked, it is
/// flushed inline — bounds memory under pathological bursts.
const CORK_FLUSH_THRESHOLD: usize = 256 << 10;

/// Most bytes one pass takes from one link (a pass stops earlier at the
/// first read that leaves the buffer short of full). Bounded so a peer
/// streaming faster than we consume cannot hold the endpoint in one
/// link's read loop while its own flushes wait.
const READ_BUDGET: usize = 256 << 10;

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;

/// The C library's `poll(2)` family (std already links it). Linux gets
/// `ppoll`, whose nanosecond timeout keeps a caller's sub-millisecond
/// timer deadlines; elsewhere `poll` waits whole milliseconds, rounded up
/// so a short wait never spins.
#[cfg(target_os = "linux")]
mod sys {
    use super::PollFd;
    use std::os::raw::{c_int, c_long, c_ulong, c_void};
    use std::time::Duration;

    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }

    pub(super) fn poll(fds: &mut [PollFd], timeout: Duration) -> c_int {
        let timeout = Timespec {
            tv_sec: timeout.as_secs().min(c_long::MAX as u64) as c_long,
            tv_nsec: timeout.subsec_nanos() as c_long,
        };
        // SAFETY: `fds` is an exclusively borrowed, initialised array of
        // `fds.len()` `pollfd` records and `timeout` a valid `timespec`,
        // both outliving the call; a null signal mask leaves it unchanged.
        unsafe { ppoll(fds.as_mut_ptr(), fds.len() as c_ulong, &timeout, std::ptr::null()) }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::PollFd;
    use std::os::raw::{c_int, c_uint};
    use std::time::Duration;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_uint, timeout: c_int) -> c_int;
    }

    pub(super) fn poll(fds: &mut [PollFd], timeout: Duration) -> c_int {
        let ms = timeout.as_nanos().div_ceil(1_000_000).min(c_int::MAX as u128) as c_int;
        // SAFETY: `fds` is an exclusively borrowed, initialised array of
        // `fds.len()` `pollfd` records that outlives the call.
        unsafe { poll(fds.as_mut_ptr(), fds.len() as c_uint, ms) }
    }
}

/// Waits up to `timeout` for an event on any of `fds` (entries with a
/// negative fd are ignored); an interrupted or failed call reports no
/// events.
fn poll_fds(fds: &mut [PollFd], timeout: Duration) {
    if sys::poll(fds, timeout) < 0 {
        for fd in fds {
            fd.revents = 0;
        }
    }
}

/// Per-ordered-link traffic counters (`net.r{me}.to_r{peer}.*` /
/// `net.r{me}.from_r{peer}.*`).
struct LinkMetrics {
    tx_bytes: Counter,
    tx_frames: Counter,
    rx_bytes: Counter,
    rx_frames: Counter,
    /// Latency of one sampled `write(2)` *to this peer* — the per-link
    /// attribution the health engine's slow-link rule reads (a slow or
    /// backpressured socket stalls only its own link's writes).
    write_nanos: Histogram,
}

/// Metric handles one TCP endpoint records into once a registry is
/// attached. Resolved eagerly for every peer so the hot paths index an
/// array.
struct NetMetrics {
    links: Vec<LinkMetrics>,
    /// Latency of one `write(2)` on the send path.
    write_nanos: Histogram,
    /// Bytes per link flush: a cork window's frames, or one uncorked
    /// frame.
    flush_bytes: Histogram,
    /// Dials after bring-up (a registry is attached only after it).
    redials: Counter,
    /// Failed inbound handshakes, and dials the peer answered wrongly.
    handshake_failures: Counter,
    flight: FlightRecorder,
    /// Write counter driving the 1-in-[`WRITE_SAMPLE`] `write_nanos`
    /// sampling.
    writes: u64,
}

/// Sampling interval for `write_nanos`: timing every write costs two
/// clock reads plus a histogram feed on the flush path, which is serial
/// critical-path time on small machines. One in eight keeps the
/// distribution honest at a fraction of the cost.
const WRITE_SAMPLE: u64 = 8;

impl NetMetrics {
    fn new(registry: &Registry, me: u32, n: usize) -> NetMetrics {
        let links = (0..n)
            .map(|peer| LinkMetrics {
                tx_bytes: registry.counter(&format!("net.r{me}.to_r{peer}.tx_bytes")),
                tx_frames: registry.counter(&format!("net.r{me}.to_r{peer}.tx_frames")),
                rx_bytes: registry.counter(&format!("net.r{me}.from_r{peer}.rx_bytes")),
                rx_frames: registry.counter(&format!("net.r{me}.from_r{peer}.rx_frames")),
                write_nanos: registry.histogram(&format!("net.r{me}.to_r{peer}.write_nanos")),
            })
            .collect();
        NetMetrics {
            links,
            write_nanos: registry.histogram(&format!("net.r{me}.write_nanos")),
            flush_bytes: registry.histogram(&format!("net.r{me}.flush_bytes")),
            redials: registry.counter(&format!("net.r{me}.redials")),
            handshake_failures: registry.counter(&format!("net.r{me}.handshake_failures")),
            flight: registry.flight(me),
            writes: 0,
        }
    }

    /// Times every [`WRITE_SAMPLE`]th `write` to peer `to` when metrics
    /// are attached; plain call otherwise. A sampled write feeds both
    /// the per-replica aggregate and the per-link histogram.
    fn timed_write<R>(metrics: Option<&mut NetMetrics>, to: usize, write: impl FnOnce() -> R) -> R {
        let Some(m) = metrics else { return write() };
        m.writes += 1;
        if m.writes % WRITE_SAMPLE != 1 {
            return write();
        }
        let started = Instant::now();
        let result = write();
        let nanos = started.elapsed().as_nanos() as u64;
        m.write_nanos.record(nanos);
        m.links[to].write_nanos.record(nanos);
        result
    }
}

/// Which handshake frame a connection waits for next.
#[derive(Clone, Copy)]
enum Step {
    /// Acceptor: the dialer's HELLO.
    Hello,
    /// Dialer of `peer`, HELLO sent: its ACK.
    Ack { peer: ReplicaId, nonce_d: [u8; NONCE_LEN] },
    /// Acceptor, ACK sent to `peer`: its CONFIRM.
    Confirm { peer: ReplicaId, nonce_d: [u8; NONCE_LEN], nonce_a: [u8; NONCE_LEN] },
    /// Nothing: authenticated with `peer`.
    Done { peer: ReplicaId, nonce_d: [u8; NONCE_LEN], nonce_a: [u8; NONCE_LEN] },
}

/// Writes one handshake frame whole. Each side writes at most two frames
/// of at most `4 + HELLO_LEN` bytes into a fresh socket, so a write that
/// would block means a broken connection.
fn write_leg(dst: &mut impl Write, payload: &[u8]) -> Result<(), NetError> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    put_frame(&mut frame, payload);
    Ok(dst.write_all(&frame)?)
}

/// One side of a handshake over any byte source and sink. It reads no
/// byte past the frame its step waits for, so what follows CONFIRM stays
/// in the socket for the link's frame reader.
struct Handshake {
    step: Step,
    /// `frame[..got]` of the awaited frame (HELLO is the longest).
    frame: [u8; 4 + HELLO_LEN],
    got: usize,
}

impl Handshake {
    /// Starts the side that dials `peer`, writing its HELLO to `dst`, or
    /// with `None` the acceptor's side.
    fn start(
        keychain: &Keychain,
        dial: Option<ReplicaId>,
        dst: &mut impl Write,
    ) -> Result<Handshake, NetError> {
        let step = match dial {
            Some(peer) => {
                let (hello, nonce_d) = make_hello(keychain, peer);
                write_leg(dst, &hello)?;
                Step::Ack { peer, nonce_d }
            }
            None => Step::Hello,
        };
        Ok(Handshake { step, frame: [0; 4 + HELLO_LEN], got: 0 })
    }

    /// Reads from `src` until it would block, answering each frame to
    /// `dst`; once this side is done, returns the peer's index and session.
    /// Any error (end of stream, a wrong frame size, a frame that fails
    /// verification) means the connection must be closed.
    fn read_from(
        &mut self,
        keychain: &Keychain,
        src: &mut impl Read,
        dst: &mut impl Write,
    ) -> Result<Option<(usize, SendSession, RecvSession)>, NetError> {
        let rejected = |peer, reason| NetError::Handshake { peer, reason };
        loop {
            let len = match self.step {
                Step::Hello => HELLO_LEN,
                Step::Ack { .. } => ACK_LEN,
                Step::Confirm { .. } => CONFIRM_LEN,
                Step::Done { peer, nonce_d, nonce_a } => {
                    let dialer = keychain.id().min(peer);
                    let (tx, rx) = session_pair(keychain, peer, dialer, &nonce_d, &nonce_a);
                    return Ok(Some((peer.0 as usize, tx, rx)));
                }
            };
            let wrong_size = || rejected(None, "unexpected frame size");
            match src.read(self.frame.get_mut(self.got..4 + len).ok_or_else(wrong_size)?) {
                Ok(0) => return Err(io::Error::from(ErrorKind::UnexpectedEof).into()),
                Ok(n) => self.got += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
            if self.got >= 4 && peek_frame_len(&self.frame[..4]).ok().flatten() != Some(len) {
                return Err(wrong_size());
            }
            if self.got < 4 + len {
                continue;
            }
            self.got = 0;
            let payload = &self.frame[4..4 + len];
            self.step = match self.step {
                Step::Hello => {
                    let (peer, nonce_d) = verify_hello(keychain, payload)
                        .map_err(|_| rejected(None, "hello rejected"))?;
                    // Only the designated dialer may own this link: the mesh
                    // convention is lower id dials, so an inbound connection
                    // must come from a lower-id replica (never our own id).
                    if peer >= keychain.id() {
                        return Err(rejected(Some(peer), "not my dialer"));
                    }
                    let (ack, nonce_a) = make_ack(keychain, peer, &nonce_d);
                    write_leg(dst, &ack)?;
                    Step::Confirm { peer, nonce_d, nonce_a }
                }
                Step::Ack { peer, nonce_d } => {
                    let nonce_a = verify_ack(keychain, peer, &nonce_d, payload)
                        .map_err(|_| rejected(Some(peer), "ack rejected"))?;
                    write_leg(dst, &make_confirm(keychain, peer, &nonce_d, &nonce_a))?;
                    Step::Done { peer, nonce_d, nonce_a }
                }
                // Key confirmation: a replayed HELLO passes the check above,
                // but only the real key holder can answer our fresh nonce.
                // Without this leg an attacker could evict a genuine link by
                // replaying recorded HELLOs.
                Step::Confirm { peer, nonce_d, nonce_a } => {
                    verify_confirm(keychain, peer, &nonce_d, &nonce_a, payload)
                        .map_err(|_| rejected(Some(peer), "confirm rejected"))?;
                    Step::Done { peer, nonce_d, nonce_a }
                }
                done @ Step::Done { .. } => done,
            };
        }
    }
}

/// A connection whose handshake is in progress.
struct Pending {
    stream: TcpStream,
    deadline: Instant,
    /// The peer this endpoint dialed; `None` for an accepted connection.
    dialed: Option<usize>,
    hs: Handshake,
}

/// One live link, owned by the endpoint.
struct Link {
    stream: TcpStream,
    tx: SendSession,
    rx: FrameReader,
    /// Sealed frames not yet written: `out[sent..]`. Frames sealed under
    /// this connection's session die with it (fair-loss link).
    out: Vec<u8>,
    sent: usize,
    /// While a flush waits on this link: when it last accepted a byte.
    stalled_since: Option<Instant>,
}

/// One replica's TCP endpoint.
///
/// Created directly with [`TcpEndpoint::establish`] (one call per OS
/// process) or in bulk with [`TcpTransport::loopback`] (single-process
/// clusters and tests). All link I/O happens on the thread that calls
/// it; see the [module docs](self).
pub struct TcpEndpoint {
    keychain: Keychain,
    peer_addrs: Vec<Option<SocketAddr>>,
    listener: TcpListener,
    listen_addr: SocketAddr,
    /// Live links by peer index (`None`: down, or the local slot).
    links: Vec<Option<Link>>,
    /// Handshakes in progress, oldest first.
    pending: VecDeque<Pending>,
    /// By peer index: when the next dial is due if the link is down;
    /// `None` while a dial is in progress.
    next_dial: Vec<Option<Instant>>,
    /// The last dial whose peer held other key material.
    rejected: Option<NetError>,
    /// Each connect thread sends its peer and socket on a clone of
    /// `connects_tx`, then writes a byte to a clone of `wake_tx`.
    connects: Receiver<(usize, io::Result<TcpStream>)>,
    connects_tx: Sender<(usize, io::Result<TcpStream>)>,
    wake: UnixStream,
    wake_tx: UnixStream,
    /// After a failed `accept` (fd exhaustion, say): unpolled until then.
    accept_resume: Option<Instant>,
    /// When `recv_timeout` must poll although messages are staged.
    next_service: Instant,
    /// Authenticated inbound and self-addressed messages, in arrival
    /// order.
    staged: VecDeque<Packet>,
    /// When set, sends leave their frames in the link's buffer and
    /// `uncork` writes each link's run of frames with one syscall;
    /// otherwise every send writes its frame at once.
    corked: bool,
    /// Poll set scratch: one entry per peer (fd -1 while the link is
    /// down), the wake socket, the listener, then the pending handshakes.
    fds: Vec<PollFd>,
    metrics: Option<NetMetrics>,
}

impl std::fmt::Debug for TcpEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpEndpoint")
            .field("me", &self.keychain.id())
            .field("n", &self.links.len())
            .field("listen", &self.listen_addr)
            .finish()
    }
}

impl TcpEndpoint {
    /// Brings up this replica's side of the mesh on `listener`: dials
    /// every higher-id peer (the mesh convention: lower id dials) and
    /// drives the endpoint until each dial resolves — the link is up, the
    /// connect failed, or its 2 s handshake deadline passed.
    /// `peer_addrs[i]` is replica `i`'s listen address (`None` for the
    /// local slot). [`wait_connected`] drives the endpoint until the mesh
    /// is complete.
    ///
    /// # Errors
    ///
    /// Fails if the address book does not match the keychain's key book,
    /// or a reachable peer answers the handshake with other key material.
    ///
    /// [`wait_connected`]: TcpEndpoint::wait_connected
    pub fn establish(
        keychain: Keychain,
        listener: TcpListener,
        peer_addrs: Vec<Option<SocketAddr>>,
    ) -> Result<TcpEndpoint, NetError> {
        let n = keychain.book().len();
        if peer_addrs.len() != n {
            return Err(NetError::Handshake {
                peer: None,
                reason: "address book size does not match key book",
            });
        }
        listener.set_nonblocking(true)?;
        let (wake, wake_tx) = UnixStream::pair()?;
        wake.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let (connects_tx, connects) = mpsc::channel();
        let now = Instant::now();
        let mut endpoint = TcpEndpoint {
            keychain,
            peer_addrs,
            listen_addr: listener.local_addr()?,
            listener,
            links: (0..n).map(|_| None).collect(),
            pending: VecDeque::new(),
            next_dial: vec![Some(now); n],
            rejected: None,
            connects,
            connects_tx,
            wake,
            wake_tx,
            accept_resume: None,
            next_service: now,
            staged: VecDeque::new(),
            corked: false,
            fds: Vec::with_capacity(n + 2),
            metrics: None,
        };
        // An unreachable peer is left to the redials. A peer holding other
        // key material never accepts us, so coming up would be a lie.
        endpoint.redial(now);
        let mut open: Vec<usize> = (0..n).filter(|&i| endpoint.next_dial[i].is_none()).collect();
        while !open.is_empty() {
            endpoint.poll_once(MAINTENANCE_PERIOD);
            if let Some(e) = endpoint.rejected.take() {
                return Err(e);
            }
            open.retain(|&i| endpoint.next_dial[i].is_none());
        }
        Ok(endpoint)
    }

    /// The address the endpoint's listener is bound to.
    pub fn listen_addr(&self) -> SocketAddr {
        self.listen_addr
    }

    /// Drives the endpoint until every link of the mesh is authenticated
    /// and up; messages arriving meanwhile stay staged for
    /// [`recv_timeout`](Endpoint::recv_timeout).
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] if the mesh is still incomplete after
    /// `timeout` (a peer is down or holds different key material).
    pub fn wait_connected(&mut self, timeout: Duration) -> Result<(), NetError> {
        let deadline = Instant::now().checked_add(timeout);
        let me = self.keychain.id().0 as usize;
        loop {
            if self.links.iter().enumerate().all(|(i, link)| i == me || link.is_some()) {
                return Ok(());
            }
            let left =
                deadline.map_or(Duration::MAX, |d| d.saturating_duration_since(Instant::now()));
            if left.is_zero() {
                return Err(NetError::Timeout("mesh did not come up"));
            }
            self.poll_once(left);
        }
    }

    /// Severs every live connection without shutting the endpoint down —
    /// the reconnect path then has to bring the mesh back. Test-only.
    #[doc(hidden)]
    pub fn debug_sever_links(&self) {
        for link in self.links.iter().flatten() {
            let _ = link.stream.shutdown(Shutdown::Both);
        }
    }

    /// Starts a dial to each down dialer-side link whose cooldown passed;
    /// its thread hands the connected socket back and wakes the endpoint.
    fn redial(&mut self, now: Instant) {
        let me = self.keychain.id().0 as usize;
        let due: Vec<_> = (me + 1..self.links.len())
            .filter(|&i| self.links[i].is_none() && self.next_dial[i].is_some_and(|at| at <= now))
            .filter_map(|i| Some((i, self.peer_addrs[i]?)))
            .collect();
        for (peer, addr) in due {
            let connects = self.connects_tx.clone();
            let spawned = self.wake_tx.try_clone().and_then(|wake| {
                std::thread::Builder::new().name("astro-net-connect".into()).spawn(move || {
                    let connected = TcpStream::connect_timeout(&addr, HANDSHAKE_TIMEOUT);
                    if connects.send((peer, connected)).is_ok() {
                        let _ = (&wake).write(&[1]);
                    }
                })
            });
            self.next_dial[peer] = None;
            if let Err(e) = spawned {
                self.resolved(Some(peer), Err(e.into()), now);
            }
        }
    }

    /// Accepts every connection the listener holds, evicting the oldest
    /// pending inbound handshake past [`MAX_PENDING_ACCEPTS`].
    fn accept_all(&mut self, now: Instant) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let inbound = self.pending.iter().filter(|p| p.dialed.is_none()).count();
                    let oldest = self.pending.iter().position(|p| p.dialed.is_none());
                    if let Some(k) = oldest.filter(|_| inbound >= MAX_PENDING_ACCEPTS) {
                        self.pending.remove(k);
                        self.resolved(None, Err(NetError::Timeout("evicted")), now);
                    }
                    self.admit(Ok(stream), None, now);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(_) => return self.accept_resume = Some(now + MAINTENANCE_PERIOD),
            }
        }
    }

    /// Makes a connected socket a pending handshake, dialing `dialed` or
    /// accepting, and advances it at once.
    fn admit(&mut self, stream: io::Result<TcpStream>, dialed: Option<usize>, now: Instant) {
        let peer = dialed.map(|i| ReplicaId(i as u32));
        let started = stream.map_err(NetError::from).and_then(|s| {
            s.set_nonblocking(true)?;
            s.set_nodelay(true)?;
            Ok((Handshake::start(&self.keychain, peer, &mut &s)?, s))
        });
        match started {
            Ok((hs, stream)) => {
                let deadline = now + HANDSHAKE_TIMEOUT;
                self.pending.push_back(Pending { stream, deadline, dialed, hs });
                self.advance(self.pending.len() - 1, now);
            }
            Err(e) => self.resolved(dialed, Err(e), now),
        }
    }

    /// Advances pending handshake `k`, which leaves the set once it is
    /// complete, fails or is past its deadline. True if it is still
    /// pending.
    fn advance(&mut self, k: usize, now: Instant) -> bool {
        let Some(p) = self.pending.get_mut(k) else { return false };
        let outcome = match p.hs.read_from(&self.keychain, &mut &p.stream, &mut &p.stream) {
            Ok(None) if now < p.deadline => return true,
            Ok(None) => Err(NetError::Timeout("handshake")),
            Ok(Some(session)) => Ok(session),
            Err(e) => Err(e),
        };
        let Some(p) = self.pending.remove(k) else { return false };
        match outcome {
            Ok((peer, tx, rx)) => {
                self.resolved(p.dialed, Ok(()), now);
                self.install(peer, p.stream, tx, rx);
            }
            Err(e) => self.resolved(p.dialed, Err(e), now),
        }
        false
    }

    /// Meters how a handshake ended. For a dial to `peer`, the next is due
    /// a cooldown from now, and an answer with other key material is kept
    /// for `establish`.
    fn resolved(&mut self, dialed: Option<usize>, result: Result<(), NetError>, now: Instant) {
        let Some(peer) = dialed else {
            if let (Some(m), Err(_)) = (&self.metrics, result) {
                m.handshake_failures.inc();
                m.flight.event("net.accept_handshake.err", 0, 0);
            }
            return;
        };
        self.next_dial[peer] = Some(now + REDIAL_COOLDOWN);
        let rejected = matches!(result, Err(NetError::Handshake { .. }));
        if let Some(m) = &self.metrics {
            m.redials.inc();
            let event = if result.is_ok() { "net.redial.ok" } else { "net.redial.err" };
            m.flight.event(event, peer as u64, 0);
            if rejected {
                m.handshake_failures.inc();
            }
        }
        if let Err(e @ NetError::Handshake { .. }) = result {
            self.rejected = Some(e);
        }
    }

    /// Installs an authenticated connection as `peer`'s link. A
    /// replacement first drains what the old connection still holds, so
    /// frames that arrived on it are not lost to the swap.
    fn install(&mut self, peer: usize, stream: TcpStream, tx: SendSession, rx: RecvSession) {
        self.read_link(peer);
        self.teardown(peer);
        let rx = FrameReader::new(rx);
        self.links[peer] = Some(Link { stream, tx, rx, out: vec![], sent: 0, stalled_since: None });
    }

    /// Closes link `i`, if up.
    fn teardown(&mut self, i: usize) {
        if let Some(link) = self.links[i].take() {
            let _ = link.stream.shutdown(Shutdown::Both);
        }
    }

    /// Reads what link `i`'s socket holds (up to [`READ_BUDGET`]) without
    /// blocking and stages every complete frame; tears the link down on
    /// EOF, a socket error, or the first frame that fails authentication
    /// (frames after it are not delivered).
    fn read_link(&mut self, i: usize) {
        let Some(link) = self.links[i].as_mut() else {
            return;
        };
        let peer = ReplicaId(i as u32);
        let (mut frames, mut bytes) = (0u64, 0u64);
        let mut budget = READ_BUDGET;
        let alive = 'read: loop {
            match link.rx.read_from(&mut link.stream) {
                Ok(0) => break false,
                Ok(n) => {
                    // A read that filled the buffer may have left more in
                    // the socket; a short one emptied it.
                    let more = link.rx.is_full() && n < budget;
                    budget = budget.saturating_sub(n);
                    loop {
                        match link.rx.next_payload() {
                            Ok(Some(payload)) => {
                                frames += 1;
                                bytes += (4 + SendSession::sealed_len(payload.len())) as u64;
                                self.staged.push_back((peer, Payload::from(payload)));
                            }
                            Ok(None) => break,
                            Err(_) => break 'read false,
                        }
                    }
                    if !more {
                        break true;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break true,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break false,
            }
        };
        if frames > 0 {
            if let Some(m) = &self.metrics {
                m.links[i].rx_bytes.add(bytes);
                m.links[i].rx_frames.add(frames);
            }
        }
        if !alive {
            self.teardown(i);
        }
    }

    /// One `poll(2)` over every link, the wake socket, the listener and the
    /// pending handshakes, for at most `timeout` and [`MAINTENANCE_PERIOD`];
    /// then readable links are read, ready or expired handshakes advance,
    /// new sockets become handshakes and due redials start. Links a flush
    /// waits on are polled for writability too (events stay in `fds`).
    /// Returns the time the poll ended.
    fn poll_once(&mut self, timeout: Duration) -> Instant {
        let n = self.links.len();
        let entry = |(fd, events): (c_int, c_short)| PollFd { fd, events, revents: 0 };
        self.fds.clear();
        for link in &self.links {
            self.fds.push(entry(match link {
                Some(l) if l.stalled_since.is_some() => (l.stream.as_raw_fd(), POLLIN | POLLOUT),
                Some(l) => (l.stream.as_raw_fd(), POLLIN),
                None => (-1, 0),
            }));
        }
        let listening = self.accept_resume.is_none_or(|at| Instant::now() >= at);
        let listener = if listening { self.listener.as_raw_fd() } else { -1 };
        self.fds.push(entry((self.wake.as_raw_fd(), POLLIN)));
        self.fds.push(entry((listener, POLLIN)));
        self.fds.extend(self.pending.iter().map(|p| entry((p.stream.as_raw_fd(), POLLIN))));
        poll_fds(&mut self.fds, timeout.min(MAINTENANCE_PERIOD));

        let now = Instant::now();
        self.next_service = now + MAINTENANCE_PERIOD;
        for i in 0..n {
            if self.fds[i].revents & (POLLIN | POLLERR | POLLHUP) != 0 {
                self.read_link(i);
            }
        }
        // The polled handshakes in order: `k` moves past those still
        // pending, since a resolved one leaves the set.
        let mut k = 0;
        for slot in n + 2..self.fds.len() {
            let expired = self.pending.get(k).is_some_and(|p| now >= p.deadline);
            if (self.fds[slot].revents == 0 && !expired) || self.advance(k, now) {
                k += 1;
            }
        }
        if self.fds[n].revents != 0 {
            let mut sink = [0u8; 64];
            while matches!((&self.wake).read(&mut sink), Ok(n) if n > 0) {}
            while let Ok((peer, connected)) = self.connects.try_recv() {
                self.admit(connected, Some(peer), now);
            }
        }
        if self.fds[n + 1].revents != 0 {
            self.accept_resume = None;
            self.accept_all(now);
        }
        self.redial(now);
        now
    }

    /// Writes as much of link `i`'s buffered frames as the socket takes
    /// in one `write(2)`. A partial write leaves the link marked stalled
    /// for the flush to wait on; an error tears it down (`false`).
    fn write_link(&mut self, i: usize) -> bool {
        let mut metrics = self.metrics.as_mut();
        let Some(link) = self.links[i].as_mut() else {
            return true;
        };
        while link.sent < link.out.len() {
            let rest = &link.out[link.sent..];
            match NetMetrics::timed_write(metrics.as_deref_mut(), i, || (&link.stream).write(rest))
            {
                Ok(n) if n > 0 => {
                    link.sent += n;
                    if link.sent == link.out.len() {
                        // Give excess capacity back: one 16 MiB frame must
                        // not pin 16 MiB per link for the endpoint's life.
                        link.out.clear();
                        link.out.shrink_to(CORK_FLUSH_THRESHOLD);
                        link.sent = 0;
                        link.stalled_since = None;
                    } else {
                        // A short write means the socket buffer is full.
                        link.stalled_since = Some(Instant::now());
                    }
                    return true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    link.stalled_since.get_or_insert_with(Instant::now);
                    return true;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                _ => {
                    self.teardown(i);
                    return false;
                }
            }
        }
        true
    }

    /// Writes out link `only`'s buffered frames, or every link's when
    /// `None`: one `write(2)` per link when the socket has room, else a
    /// wait in [`poll_once`](Self::poll_once) for writability that keeps
    /// reading every link. Returns the first targeted link that failed or
    /// accepted no byte for [`WRITE_TIMEOUT`]; it is torn down and its
    /// frames are lost, as with any link drop.
    fn flush(&mut self, only: Option<usize>) -> Result<(), NetError> {
        let targets = only.map_or(0..self.links.len(), |i| i..i + 1);
        let mut first_err = None;
        for i in targets.clone() {
            let Some(link) = &self.links[i] else { continue };
            if link.sent == link.out.len() {
                continue;
            }
            if let Some(m) = &self.metrics {
                m.flush_bytes.record((link.out.len() - link.sent) as u64);
            }
            if !self.write_link(i) {
                first_err.get_or_insert(NetError::LinkDown(ReplicaId(i as u32)));
            }
        }
        loop {
            let now = Instant::now();
            let mut wait_until: Option<Instant> = None;
            for i in targets.clone() {
                let Some(since) = self.links[i].as_ref().and_then(|l| l.stalled_since) else {
                    continue;
                };
                let give_up = since + WRITE_TIMEOUT;
                if now >= give_up {
                    if let Some(m) = &self.metrics {
                        m.flight.event("net.write_timeout", i as u64, 0);
                    }
                    self.teardown(i);
                    first_err.get_or_insert(NetError::LinkDown(ReplicaId(i as u32)));
                } else {
                    wait_until = Some(wait_until.map_or(give_up, |t| t.min(give_up)));
                }
            }
            let Some(wait_until) = wait_until else { break };
            self.poll_once(wait_until - now);
            for i in targets.clone() {
                let writable = self.fds[i].revents & (POLLOUT | POLLERR | POLLHUP) != 0;
                let waiting = self.links[i].as_ref().is_some_and(|l| l.stalled_since.is_some());
                if writable && waiting && !self.write_link(i) {
                    first_err.get_or_insert(NetError::LinkDown(ReplicaId(i as u32)));
                }
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Attempts to hand `payload` to link `to` by appending the sealed
    /// frame to its buffer, which is flushed at once unless corked (or,
    /// corked, once it outgrows [`CORK_FLUSH_THRESHOLD`]). Returns `false`
    /// if the link is down or the flush tore it down.
    fn try_send(&mut self, to: usize, payload: &[u8]) -> bool {
        let Some(link) = self.links[to].as_mut() else {
            return false;
        };
        let before = link.out.len();
        append_frame(&mut link.tx, payload, &mut link.out);
        if let Some(m) = &self.metrics {
            m.links[to].tx_bytes.add((link.out.len() - before) as u64);
            m.links[to].tx_frames.inc();
        }
        if !self.corked {
            return self.flush(Some(to)).is_ok();
        }
        if link.out.len() - link.sent < CORK_FLUSH_THRESHOLD {
            return true;
        }
        // A long corked burst: take in what the peers sent meanwhile too,
        // so a peer whose own flush waits on us is not held up until our
        // `uncork`.
        let flushed = self.flush(Some(to)).is_ok();
        for i in 0..self.links.len() {
            self.read_link(i);
        }
        flushed
    }
}

/// Appends `len || seq || payload || tag` to `out` with no intermediate
/// allocation (the frame header is written from the known sealed length).
fn append_frame(session: &mut SendSession, payload: &[u8], out: &mut Vec<u8>) {
    let sealed_len = SendSession::sealed_len(payload.len());
    assert!(sealed_len <= MAX_FRAME_LEN, "frame payload too large");
    (sealed_len as u32).encode(out);
    session.seal_into(payload, out);
}

impl Endpoint for TcpEndpoint {
    fn local(&self) -> ReplicaId {
        self.keychain.id()
    }

    fn n(&self) -> usize {
        self.links.len()
    }

    fn send(&mut self, to: ReplicaId, payload: &[u8]) -> Result<(), NetError> {
        let i = to.0 as usize;
        if i >= self.links.len() {
            return Err(NetError::UnknownPeer(to));
        }
        if to == self.keychain.id() {
            // Self-delivery short-circuits the socket layer.
            self.staged.push_back((to, Payload::from(payload)));
            return Ok(());
        }
        // A down link fails at once: the endpoint re-dials it while it is
        // driven, so a crashed or stalling peer never slows traffic to the
        // live quorum.
        if self.try_send(i, payload) {
            Ok(())
        } else {
            Err(NetError::LinkDown(to))
        }
    }

    fn broadcast(&mut self, payload: &[u8]) -> Result<(), NetError> {
        let mut first_err = None;
        for i in 0..self.links.len() {
            if let Err(e) = self.send(ReplicaId(i as u32), payload) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Packet>, NetError> {
        let mut now = Instant::now();
        // Staged traffic must not starve the listener, the pending
        // handshakes and due redials.
        if now >= self.next_service {
            self.poll_once(Duration::ZERO);
        } else if self.staged.is_empty() {
            for i in 0..self.links.len() {
                self.read_link(i);
            }
        }
        // `None`: the timeout runs past the clock's range, so no deadline.
        let deadline = now.checked_add(timeout);
        loop {
            if let Some(packet) = self.staged.pop_front() {
                return Ok(Some(packet));
            }
            let left = deadline.map_or(Duration::MAX, |d| d.saturating_duration_since(now));
            if left.is_zero() {
                return Ok(None);
            }
            now = self.poll_once(left);
        }
    }

    fn cork(&mut self) {
        self.corked = true;
    }

    fn attach_registry(&mut self, registry: &Arc<Registry>) {
        // First attach wins; a second registry for the same endpoint is
        // ignored rather than double-counted.
        if self.metrics.is_none() {
            self.metrics = Some(NetMetrics::new(registry, self.keychain.id().0, self.links.len()));
        }
    }

    fn uncork(&mut self) -> Result<(), NetError> {
        self.corked = false;
        self.flush(None)
    }
}

/// A single-process loopback mesh: `n` [`TcpEndpoint`]s over 127.0.0.1,
/// with key material from the provided keychains.
pub struct TcpTransport {
    endpoints: Vec<TcpEndpoint>,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport").field("n", &self.endpoints.len()).finish()
    }
}

impl TcpTransport {
    /// Binds `keychains.len()` listeners on loopback, establishes the full
    /// authenticated mesh, and waits until every link is up.
    ///
    /// # Errors
    ///
    /// Fails on bind/dial errors or if the mesh does not complete within a
    /// few seconds (e.g. mismatched key material).
    pub fn loopback(keychains: Vec<Keychain>) -> Result<TcpTransport, NetError> {
        let n = keychains.len();
        let listeners: Vec<TcpListener> =
            (0..n).map(|_| TcpListener::bind(("127.0.0.1", 0))).collect::<std::io::Result<_>>()?;
        let addrs: Vec<SocketAddr> =
            listeners.iter().map(TcpListener::local_addr).collect::<std::io::Result<_>>()?;

        // Bring up concurrently: every endpoint both dials and accepts, and
        // each thread drives its own endpoint until its mesh is complete.
        let handles: Vec<_> = keychains
            .into_iter()
            .zip(listeners)
            .enumerate()
            .map(|(i, (keychain, listener))| {
                let peer_addrs: Vec<Option<SocketAddr>> =
                    addrs.iter().enumerate().map(|(j, a)| (j != i).then_some(*a)).collect();
                std::thread::spawn(move || -> Result<TcpEndpoint, NetError> {
                    let mut endpoint = TcpEndpoint::establish(keychain, listener, peer_addrs)?;
                    endpoint.wait_connected(Duration::from_secs(5))?;
                    Ok(endpoint)
                })
            })
            .collect();

        let mut endpoints = Vec::with_capacity(n);
        for handle in handles {
            let panicked = |_| NetError::Io(io::Error::other("bring-up thread panicked"));
            endpoints.push(handle.join().map_err(panicked)??);
        }
        Ok(TcpTransport { endpoints })
    }

    /// Number of replicas in the mesh.
    pub fn len(&self) -> usize {
        self.endpoints.len()
    }

    /// True if the mesh is empty.
    pub fn is_empty(&self) -> bool {
        self.endpoints.is_empty()
    }
}

impl Transport for TcpTransport {
    type Endpoint = TcpEndpoint;

    fn into_endpoints(self) -> Vec<TcpEndpoint> {
        self.endpoints
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type Session = (usize, SendSession, RecvSession);

    fn keychains() -> Vec<Keychain> {
        Keychain::deterministic_system(b"tcp-handshake-tests", 2)
    }

    /// A socket whose receive buffer holds the slice and nothing more:
    /// reads take from it, then would block.
    struct Chunk<'a>(&'a [u8]);

    impl Read for Chunk<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.0.is_empty() {
                return Err(ErrorKind::WouldBlock.into());
            }
            self.0.read(buf)
        }
    }

    /// Feeds `bytes` to `hs` in two reads split at `at`. Returns what it
    /// wrote back, its session once done, and the bytes it left unread.
    fn feed(
        hs: &mut Handshake,
        keychain: &Keychain,
        bytes: &[u8],
        at: usize,
    ) -> (Vec<u8>, Option<Session>, Vec<u8>) {
        let (mut out, mut session, mut left) = (Vec::new(), None, Vec::new());
        for part in [&bytes[..at], &bytes[at..]] {
            let mut chunk = Chunk(part);
            session = hs.read_from(keychain, &mut chunk, &mut out).unwrap();
            left.extend_from_slice(chunk.0);
        }
        (out, session, left)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Arbitrary bytes in arbitrary chunks, to either side: no panic,
        /// no byte read past the awaited frame, no session, and the
        /// connection is closed once a whole frame has arrived.
        #[test]
        fn arbitrary_bytes_never_panic_nor_overread(
            bytes in proptest::collection::vec(any::<u8>(), 0..200),
            splits in proptest::collection::vec(1usize..80, 1..8),
            dialer in 0usize..2,
            framed in 0usize..2,
        ) {
            let ks = keychains();
            let mut sent = Vec::new();
            let (me, dial, leg) =
                if dialer == 1 { (&ks[0], Some(ReplicaId(1)), ACK_LEN) } else { (&ks[1], None, HELLO_LEN) };
            let mut hs = Handshake::start(me, dial, &mut sent).unwrap();
            let hello_len = sent.len();
            // Half the cases carry the right header, so the garbage
            // reaches verification.
            let mut input = Vec::new();
            if framed == 1 {
                (leg as u32).encode(&mut input);
            }
            input.extend_from_slice(&bytes);
            let (mut rest, mut consumed, mut closed) = (&input[..], 0, false);
            let mut sizes = splits.iter().cycle();
            while !rest.is_empty() && !closed {
                let take = sizes.next().map_or(rest.len(), |&s| s.min(rest.len()));
                let mut chunk = Chunk(&rest[..take]);
                rest = &rest[take..];
                let result = hs.read_from(me, &mut chunk, &mut sent);
                consumed += take - chunk.0.len();
                prop_assert!(consumed <= 4 + leg, "read {} bytes for a {}-byte leg", consumed, leg);
                match result {
                    Ok(session) => prop_assert!(session.is_none() && chunk.0.is_empty()),
                    Err(_) => closed = true,
                }
            }
            prop_assert!(closed || input.len() < 4 + leg);
            // Nothing is answered: the only bytes written are a dialer's HELLO.
            prop_assert_eq!(sent.len(), hello_len);
            prop_assert_eq!(hello_len, if dialer == 1 { 4 + HELLO_LEN } else { 0 });
        }
    }

    #[test]
    fn a_genuine_handshake_completes_at_every_split() {
        let ks = keychains();
        for at in 0..=4 + HELLO_LEN {
            let mut hello = Vec::new();
            let mut dialer = Handshake::start(&ks[0], Some(ReplicaId(1)), &mut hello).unwrap();
            let mut acceptor = Handshake::start(&ks[1], None, &mut Vec::new()).unwrap();
            let (ack, session, left) = feed(&mut acceptor, &ks[1], &hello, at.min(hello.len()));
            assert!(session.is_none() && left.is_empty(), "split {at}");
            let (confirm, session, left) = feed(&mut dialer, &ks[0], &ack, at.min(ack.len()));
            let (peer, mut dialer_tx, mut dialer_rx) = session.expect("the dialer is done");
            assert!(peer == 1 && left.is_empty(), "split {at}");
            // The dialer's first frame follows CONFIRM at once: the acceptor
            // must leave it in the stream for the link's frame reader.
            let mut wire = confirm.clone();
            append_frame(&mut dialer_tx, b"first", &mut wire);
            let (reply, session, left) = feed(&mut acceptor, &ks[1], &wire, at.min(wire.len()));
            let (peer, mut acceptor_tx, mut acceptor_rx) = session.expect("the acceptor is done");
            assert!(peer == 0 && reply.is_empty(), "split {at}");
            assert_eq!(left, wire[confirm.len()..], "split {at}");
            assert_eq!(acceptor_rx.open(&left[4..]).unwrap(), b"first");
            assert_eq!(dialer_rx.open(&acceptor_tx.seal(b"back")).unwrap(), b"back");
        }
    }
}
