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
//! A [`TcpEndpoint`] does all link I/O on its caller's thread — in a
//! cluster, the replica driver. Its sockets are non-blocking:
//!
//! - `send` / `broadcast` seal frames into a per-link buffer; `uncork`, an
//!   uncorked `send`, or a corked buffer past 256 KiB writes it, one
//!   `write(2)` per link when the socket has room.
//! - `recv_timeout` returns a staged message if one is waiting; otherwise
//!   it reads every socket without blocking, opens each complete frame in
//!   place (MAC and sequence checked before it is staged) and stages it.
//!   Only when nothing is staged does it block, in **one** `poll(2)` over
//!   every link plus a wake socket, until the timeout.
//! - A flush the kernel cannot take in full waits in that same `poll` for
//!   writability and keeps reading every link meanwhile, so two endpoints
//!   flushing to each other with full socket buffers both make progress.
//!   A link that accepts no byte for 2 s is torn down.
//!
//! Two background threads per endpoint do all the dialing and
//! handshaking: the acceptor (one short-lived thread per inbound
//! handshake) and the maintenance pass that re-dials dead links. Each
//! hands an authenticated connection to the endpoint through an adoption
//! queue and writes one byte to the wake socket, so a `recv_timeout`
//! already blocked in `poll` adopts the new link within the same call.
//! The endpoint's caller never dials, connects or handshakes: a peer that
//! is down, or answers a handshake slowly or never, costs a background
//! thread its time, not the replica loop.
//!
//! Failure handling: a broken connection tears the link down when the
//! endpoint is driven — its next `recv_timeout` reads the EOF, or its
//! next `send` fails to write. From then on `send` and `broadcast` report
//! [`NetError::LinkDown`] for that peer at once. On the dialer side the
//! maintenance pass re-dials it (at most once per peer per 250 ms); the
//! acceptor side keeps its listener open and installs whatever
//! authenticated replacement arrives. Messages in flight during the
//! outage are lost — exactly the fair-loss link the BRB layer is designed
//! to tolerate (quorums mask a disconnected minority; a reconnected
//! replica rejoins the broadcast flow).

use crate::frames::FrameReader;
use crate::session::{
    make_ack, make_confirm, make_hello, session_pair, verify_ack, verify_confirm, verify_hello,
    RecvSession, SendSession, ACK_LEN, CONFIRM_LEN, HELLO_LEN,
};
use crate::{Endpoint, NetError, Payload, Transport};
use astro_obs::{Counter, FlightRecorder, Histogram, Registry};
use astro_types::wire::{peek_frame_len, put_frame, Wire, MAX_FRAME_LEN};
use astro_types::{Keychain, ReplicaId};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_short};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

type Packet = (ReplicaId, Payload);

/// How long a handshake leg may block before the connection is dropped.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// How long a flush waits on a link that accepts no byte before tearing
/// it down: a peer that completes the handshake but stops reading costs
/// its own link, never an indefinite stall of the endpoint's thread.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Minimum spacing between the maintenance pass's redial attempts to one
/// peer; see [`maintenance_main`].
const REDIAL_COOLDOWN: Duration = Duration::from_millis(250);

/// Pause between re-dial attempts during `establish` (process start skew).
const REDIAL_BACKOFF: Duration = Duration::from_millis(25);

/// Pause after a failed `accept()` before retrying. Persistent accept
/// errors (e.g. fd exhaustion) must degrade into a slow retry loop, not a
/// busy spin pinning a core.
const ACCEPT_RETRY_DELAY: Duration = Duration::from_millis(50);

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
/// array; the handshake threads observe the attach through a `OnceLock`.
struct NetMetrics {
    links: Vec<LinkMetrics>,
    /// Latency of one `write(2)` on the send path.
    write_nanos: Histogram,
    /// Bytes per link flush: a cork window's frames, or one uncorked
    /// frame.
    flush_bytes: Histogram,
    /// The maintenance pass's reconnection attempts (the initial mesh
    /// comes up before a registry can be attached).
    redials: Counter,
    /// Dial or accept handshakes that failed authentication or framing.
    handshake_failures: Counter,
    flight: FlightRecorder,
    /// Write counter driving the 1-in-[`WRITE_SAMPLE`] `write_nanos`
    /// sampling.
    writes: AtomicU64,
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
            writes: AtomicU64::new(0),
        }
    }

    /// Times every [`WRITE_SAMPLE`]th `write` to peer `to` when metrics
    /// are attached; plain call otherwise. A sampled write feeds both
    /// the per-replica aggregate and the per-link histogram.
    fn timed_write<R>(metrics: Option<&NetMetrics>, to: usize, write: impl FnOnce() -> R) -> R {
        match metrics {
            None => write(),
            Some(m) => {
                if m.writes.fetch_add(1, Ordering::Relaxed) % WRITE_SAMPLE != 0 {
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
    }
}

/// A freshly handshaken connection: the socket (already non-blocking)
/// and both session halves.
struct Conn {
    stream: TcpStream,
    tx: SendSession,
    rx: RecvSession,
}

/// An authenticated connection on its way from a handshake thread to the
/// endpoint. Generations number one peer's connections in hand-over
/// order.
struct Handover {
    peer: usize,
    generation: u64,
    conn: Conn,
}

/// What the handshake threads and the endpoint share about one peer's
/// link.
#[derive(Default)]
struct LinkSlot {
    /// Generation of the newest connection handed to the endpoint.
    handed: AtomicU64,
    /// Highest generation the endpoint has torn down.
    dead: AtomicU64,
}

impl LinkSlot {
    /// True while an authenticated connection is live or waiting to be
    /// adopted.
    fn up(&self) -> bool {
        self.dead.load(Ordering::Acquire) < self.handed.load(Ordering::Acquire)
    }
}

struct Shared {
    keychain: Keychain,
    n: usize,
    peer_addrs: Vec<Option<SocketAddr>>,
    links: Vec<LinkSlot>,
    /// Connections handshaken but not yet adopted, in hand-over order.
    handovers: Mutex<Vec<Handover>>,
    /// Set with every hand-over: the endpoint's lock-free "anything to
    /// adopt?" check.
    handed_over: AtomicBool,
    /// Write end of the endpoint's wake socket (non-blocking: a full wake
    /// buffer already guarantees a wake-up).
    wake: UnixStream,
    shutdown: AtomicBool,
    /// Set once by `attach_registry`; the handshake threads observe it
    /// lock-free mid-flight.
    metrics: OnceLock<NetMetrics>,
}

impl Shared {
    fn me(&self) -> ReplicaId {
        self.keychain.id()
    }

    fn is_dialer_for(&self, peer: ReplicaId) -> bool {
        self.me().0 < peer.0
    }

    /// Queues an authenticated connection for the endpoint to adopt and
    /// wakes it. After shutdown the connection is closed instead.
    fn hand_over(&self, peer: ReplicaId, conn: Conn) {
        let mut queue = lock(&self.handovers);
        if self.shutdown.load(Ordering::Relaxed) {
            let _ = conn.stream.shutdown(Shutdown::Both);
            return;
        }
        let peer = peer.0 as usize;
        let generation = self.links[peer].handed.fetch_add(1, Ordering::AcqRel) + 1;
        queue.push(Handover { peer, generation, conn });
        self.handed_over.store(true, Ordering::Release);
        drop(queue);
        let _ = (&self.wake).write(&[1]);
    }

    /// Stops the endpoint's threads: raises the shutdown flag, pokes the
    /// listener so the acceptor thread observes it (its `accept()` blocks
    /// otherwise), and closes every connection not yet adopted. Called
    /// from `Drop` and from the `establish` failure path — both must
    /// release the listener thread and its port.
    fn shut_down(&self, listen_addr: SocketAddr) {
        self.shutdown.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect_timeout(&listen_addr, Duration::from_millis(200));
        for h in lock(&self.handovers).drain(..) {
            let _ = h.conn.stream.shutdown(Shutdown::Both);
        }
    }
}

/// Locks `mutex`, ignoring poison: none of the endpoint's critical
/// sections leaves its data half-updated, so a holder that panicked must
/// not turn every later lock into a second panic.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn read_exact_frame(stream: &mut TcpStream, expected_len: usize) -> Result<Vec<u8>, NetError> {
    let mut header = [0u8; 4];
    stream.read_exact(&mut header)?;
    let len = peek_frame_len(&header)
        .map_err(|_| NetError::Handshake { peer: None, reason: "oversized frame" })?;
    if len != Some(expected_len) {
        return Err(NetError::Handshake { peer: None, reason: "unexpected frame size" });
    }
    let mut payload = vec![0u8; expected_len];
    stream.read_exact(&mut payload)?;
    Ok(payload)
}

fn write_frame(stream: &mut TcpStream, payload: &[u8]) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(4 + payload.len());
    put_frame(&mut buf, payload);
    stream.write_all(&buf)
}

/// Bounds every handshake leg in both directions.
fn handshake_timeouts(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    stream.set_write_timeout(Some(HANDSHAKE_TIMEOUT))
}

/// Dials `peer` and runs the dialer leg of the handshake
/// (HELLO → ACK → CONFIRM).
fn dial(shared: &Shared, peer: ReplicaId) -> Result<Conn, NetError> {
    let addr = shared.peer_addrs[peer.0 as usize].ok_or(NetError::UnknownPeer(peer))?;
    let mut stream = TcpStream::connect_timeout(&addr, HANDSHAKE_TIMEOUT)?;
    handshake_timeouts(&stream)?;
    let (hello, nonce_d) = make_hello(&shared.keychain, peer);
    write_frame(&mut stream, &hello)?;
    let ack = read_exact_frame(&mut stream, ACK_LEN)?;
    let nonce_a = verify_ack(&shared.keychain, peer, &nonce_d, &ack)
        .map_err(|_| NetError::Handshake { peer: Some(peer), reason: "ack rejected" })?;
    let confirm = make_confirm(&shared.keychain, peer, &nonce_d, &nonce_a);
    write_frame(&mut stream, &confirm)?;
    stream.set_nonblocking(true)?;
    let (tx, rx) = session_pair(&shared.keychain, peer, shared.me(), &nonce_d, &nonce_a);
    Ok(Conn { stream, tx, rx })
}

/// Accept-side handshake on a fresh connection.
fn accept_handshake(shared: &Shared, mut stream: TcpStream) -> Result<(ReplicaId, Conn), NetError> {
    handshake_timeouts(&stream)?;
    let hello = read_exact_frame(&mut stream, HELLO_LEN)?;
    let (from, nonce_d) = verify_hello(&shared.keychain, &hello)
        .map_err(|_| NetError::Handshake { peer: None, reason: "hello rejected" })?;
    // Only the designated dialer may own this link: the mesh convention
    // is lower id dials, so an inbound connection must come from a
    // lower-id replica (and never from our own id).
    if from.0 >= shared.me().0 {
        return Err(NetError::Handshake { peer: Some(from), reason: "not my dialer" });
    }
    let (ack, nonce_a) = make_ack(&shared.keychain, from, &nonce_d);
    write_frame(&mut stream, &ack)?;
    // Key confirmation: a replayed HELLO passes the check above, but only
    // the real key holder can answer our fresh nonce. Without this leg an
    // attacker could evict a genuine link by replaying recorded HELLOs.
    let confirm = read_exact_frame(&mut stream, CONFIRM_LEN)?;
    verify_confirm(&shared.keychain, from, &nonce_d, &nonce_a, &confirm)
        .map_err(|_| NetError::Handshake { peer: Some(from), reason: "confirm rejected" })?;
    stream.set_nonblocking(true)?;
    let (tx, rx) = session_pair(&shared.keychain, from, from, &nonce_d, &nonce_a);
    Ok((from, Conn { stream, tx, rx }))
}

/// Dials `peer`, meters the attempt and hands an authenticated connection
/// to the endpoint: the one dial path, shared by `establish`'s bring-up
/// and the maintenance pass. Metrics are attached only once `establish`
/// has returned, so `net.redials` counts maintenance attempts alone.
fn dial_and_hand_over(shared: &Shared, peer: ReplicaId) -> Result<(), NetError> {
    let attempt = dial(shared, peer);
    if let Some(m) = shared.metrics.get() {
        m.redials.inc();
        match &attempt {
            Ok(_) => m.flight.event("net.redial.ok", peer.0 as u64, 0),
            Err(e) => {
                if matches!(e, NetError::Handshake { .. }) {
                    m.handshake_failures.inc();
                }
                m.flight.event("net.redial.err", peer.0 as u64, 0);
            }
        }
    }
    shared.hand_over(peer, attempt?);
    Ok(())
}

/// How often the maintenance pass re-dials dead links this endpoint is
/// the dialer for. It is the only thing that heals a link after bring-up,
/// quiet mesh or not — which is what lets a *restarted* replica's
/// catch-up requests reach peers that have nothing to say to it yet (the
/// mesh convention is lower-id-dials, so the returning replica cannot
/// initiate those connections itself).
const MAINTENANCE_PERIOD: Duration = Duration::from_millis(50);

/// Periodically re-establishes dead dialer-side links; see
/// [`MAINTENANCE_PERIOD`]. Each peer is dialed at most once per
/// [`REDIAL_COOLDOWN`], so a genuinely dead peer costs one paced connect
/// attempt per cooldown, not one per period.
fn maintenance_main(shared: Arc<Shared>) {
    let mut next_dial_at: Vec<Option<Instant>> = vec![None; shared.n];
    loop {
        std::thread::sleep(MAINTENANCE_PERIOD);
        if shared.shutdown.load(Ordering::Relaxed) {
            break;
        }
        for (i, next_dial_at) in next_dial_at.iter_mut().enumerate() {
            let peer = ReplicaId(i as u32);
            if !shared.is_dialer_for(peer)
                || shared.peer_addrs[i].is_none()
                || shared.links[i].up()
                || next_dial_at.is_some_and(|at| Instant::now() < at)
            {
                continue;
            }
            let _ = dial_and_hand_over(&shared, peer);
            // Space attempts from *completion*: a connect timeout against
            // a blackholed peer must not make every pass redial it.
            *next_dial_at = Some(Instant::now() + REDIAL_COOLDOWN);
            if shared.shutdown.load(Ordering::Relaxed) {
                break;
            }
        }
    }
}

fn acceptor_main(shared: Arc<Shared>, listener: TcpListener) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if shared.shutdown.load(Ordering::Relaxed) {
                break;
            }
            std::thread::sleep(ACCEPT_RETRY_DELAY);
            continue;
        };
        if shared.shutdown.load(Ordering::Relaxed) {
            break;
        }
        // One short-lived thread per inbound connection: a connector that
        // stalls mid-handshake burns its own thread until the read
        // timeout fires, never the accept loop.
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || match accept_handshake(&shared, stream) {
            Ok((from, conn)) => shared.hand_over(from, conn),
            Err(_) => {
                if let Some(m) = shared.metrics.get() {
                    m.handshake_failures.inc();
                    m.flight.event("net.accept_handshake.err", 0, 0);
                }
            }
        });
    }
}

/// One live link, owned by the endpoint.
struct Link {
    stream: TcpStream,
    generation: u64,
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
    shared: Arc<Shared>,
    listen_addr: SocketAddr,
    /// Live links by peer index (`None`: down, or the local slot).
    links: Vec<Option<Link>>,
    /// Authenticated inbound and self-addressed messages, in arrival
    /// order.
    staged: VecDeque<Packet>,
    /// Read end of the wake socket the handshake threads write to.
    wake: UnixStream,
    /// When set, sends leave their frames in the link's buffer and
    /// `uncork` writes each link's run of frames with one syscall;
    /// otherwise every send writes its frame at once.
    corked: bool,
    /// Poll set scratch: the wake socket, then one entry per peer (fd -1
    /// while the link is down).
    fds: Vec<PollFd>,
}

impl std::fmt::Debug for TcpEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpEndpoint")
            .field("me", &self.shared.me())
            .field("n", &self.shared.n)
            .field("listen", &self.listen_addr)
            .finish()
    }
}

impl TcpEndpoint {
    /// Brings up this replica's side of the mesh: starts the acceptor on
    /// `listener`, then dials every higher-id peer (the mesh convention:
    /// lower id dials).
    ///
    /// `peer_addrs[i]` is replica `i`'s listen address (`None` for the
    /// local slot). Connections from lower-id peers arrive through the
    /// acceptor whenever those peers come up — [`wait_connected`] blocks
    /// until the mesh is complete.
    ///
    /// # Errors
    ///
    /// Fails if the address book does not match the keychain's key book,
    /// or a dial/handshake to an already-listening peer fails.
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
        let me = keychain.id();
        let listen_addr = listener.local_addr()?;
        let (wake, wake_tx) = UnixStream::pair()?;
        wake.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            keychain,
            n,
            peer_addrs,
            links: (0..n).map(|_| LinkSlot::default()).collect(),
            handovers: Mutex::new(Vec::new()),
            handed_over: AtomicBool::new(false),
            wake: wake_tx,
            shutdown: AtomicBool::new(false),
            metrics: OnceLock::new(),
        });

        let acceptor_shared = Arc::clone(&shared);
        std::thread::spawn(move || acceptor_main(acceptor_shared, listener));
        let maintenance_shared = Arc::clone(&shared);
        std::thread::spawn(move || maintenance_main(maintenance_shared));

        // Dial my share of the mesh: every higher-id peer with a known
        // address. Tolerate a briefly absent listener (process start
        // skew) — and a peer that stays *unreachable* (it may be down and
        // restarting itself): its link is left for the maintenance pass
        // to establish once it returns. Only an authentication failure is
        // fatal — a reachable peer holding different key material will
        // never accept this endpoint, so coming up would be a lie.
        for i in (me.0 as usize + 1)..n {
            let peer = ReplicaId(i as u32);
            if shared.peer_addrs[i].is_none() {
                continue;
            }
            let mut last = Ok(());
            for _ in 0..40 {
                last = dial_and_hand_over(&shared, peer);
                if last.is_ok() {
                    break;
                }
                std::thread::sleep(REDIAL_BACKOFF);
            }
            if let Err(e @ NetError::Handshake { .. }) = last {
                shared.shut_down(listen_addr);
                return Err(e);
            }
        }

        let mut endpoint = TcpEndpoint {
            shared,
            listen_addr,
            links: (0..n).map(|_| None).collect(),
            staged: VecDeque::new(),
            wake,
            corked: false,
            fds: Vec::with_capacity(n + 1),
        };
        endpoint.adopt();
        Ok(endpoint)
    }

    /// The address the endpoint's listener is bound to.
    pub fn listen_addr(&self) -> SocketAddr {
        self.listen_addr
    }

    /// Blocks until every link of the mesh is authenticated and up (live,
    /// or handed over and adopted on the endpoint's next call).
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] if the mesh is still incomplete after
    /// `timeout` (a peer is down or holds different key material).
    pub fn wait_connected(&self, timeout: Duration) -> Result<(), NetError> {
        let deadline = Instant::now() + timeout;
        loop {
            let up = (0..self.shared.n)
                .filter(|&i| i != self.shared.me().0 as usize)
                .all(|i| self.shared.links[i].up());
            if up {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(NetError::Timeout("mesh did not come up"));
            }
            std::thread::sleep(Duration::from_millis(2));
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

    /// Installs every connection the handshake threads handed over. A
    /// replacement first drains what the old connection still holds, so
    /// frames that arrived on it are not lost to the swap.
    fn adopt(&mut self) {
        if !self.shared.handed_over.load(Ordering::Acquire)
            || !self.shared.handed_over.swap(false, Ordering::AcqRel)
        {
            return;
        }
        let handovers = std::mem::take(&mut *lock(&self.shared.handovers));
        for Handover { peer, generation, conn } in handovers {
            self.read_link(peer);
            self.teardown(peer);
            self.links[peer] = Some(Link {
                stream: conn.stream,
                generation,
                tx: conn.tx,
                rx: FrameReader::new(conn.rx),
                out: Vec::new(),
                sent: 0,
                stalled_since: None,
            });
        }
    }

    /// Closes link `i` (if up) and tells the maintenance pass it is down.
    fn teardown(&mut self, i: usize) {
        if let Some(link) = self.links[i].take() {
            let _ = link.stream.shutdown(Shutdown::Both);
            self.shared.links[i].dead.fetch_max(link.generation, Ordering::AcqRel);
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
            if let Some(m) = self.shared.metrics.get() {
                m.links[i].rx_bytes.add(bytes);
                m.links[i].rx_frames.add(frames);
            }
        }
        if !alive {
            self.teardown(i);
        }
    }

    /// One `poll(2)` over the wake socket and every link, for up to
    /// `timeout`: readable links are read into the staging queue and
    /// handed-over connections adopted. Links a flush is waiting on are
    /// polled for writability too; their events stay in `self.fds`.
    fn poll_once(&mut self, timeout: Duration) {
        self.fds.clear();
        self.fds.push(PollFd { fd: self.wake.as_raw_fd(), events: POLLIN, revents: 0 });
        for link in &self.links {
            self.fds.push(match link {
                Some(l) => PollFd {
                    fd: l.stream.as_raw_fd(),
                    events: if l.stalled_since.is_some() { POLLIN | POLLOUT } else { POLLIN },
                    revents: 0,
                },
                None => PollFd { fd: -1, events: 0, revents: 0 },
            });
        }
        poll_fds(&mut self.fds, timeout);
        if self.fds[0].revents != 0 {
            let mut sink = [0u8; 64];
            while matches!((&self.wake).read(&mut sink), Ok(n) if n > 0) {}
        }
        for i in 0..self.links.len() {
            if self.fds[1 + i].revents & (POLLIN | POLLERR | POLLHUP) != 0 {
                self.read_link(i);
            }
        }
        self.adopt();
    }

    /// Writes as much of link `i`'s buffered frames as the socket takes
    /// in one `write(2)`. A partial write leaves the link marked stalled
    /// for the flush to wait on; an error tears it down (`false`).
    fn write_link(&mut self, i: usize) -> bool {
        let metrics = self.shared.metrics.get();
        let Some(link) = self.links[i].as_mut() else {
            return true;
        };
        while link.sent < link.out.len() {
            let rest = &link.out[link.sent..];
            match NetMetrics::timed_write(metrics, i, || (&link.stream).write(rest)) {
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
            if let Some(m) = self.shared.metrics.get() {
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
                    if let Some(m) = self.shared.metrics.get() {
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
                let writable = self.fds[1 + i].revents & (POLLOUT | POLLERR | POLLHUP) != 0;
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
        if let Some(m) = self.shared.metrics.get() {
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
        self.shared.me()
    }

    fn n(&self) -> usize {
        self.shared.n
    }

    fn send(&mut self, to: ReplicaId, payload: &[u8]) -> Result<(), NetError> {
        let i = to.0 as usize;
        if i >= self.shared.n {
            return Err(NetError::UnknownPeer(to));
        }
        if to == self.shared.me() {
            // Self-delivery short-circuits the socket layer.
            self.staged.push_back((to, Payload::from(payload)));
            return Ok(());
        }
        self.adopt();
        // A down link fails at once: the maintenance pass heals it off
        // this thread, so a crashed or stalling peer never slows traffic
        // to the live quorum.
        if self.try_send(i, payload) {
            Ok(())
        } else {
            Err(NetError::LinkDown(to))
        }
    }

    fn broadcast(&mut self, payload: &[u8]) -> Result<(), NetError> {
        let mut first_err = None;
        for i in 0..self.shared.n {
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
        if let Some(packet) = self.staged.pop_front() {
            return Ok(Some(packet));
        }
        // `None`: the timeout runs past the clock's range, so no deadline.
        let deadline = Instant::now().checked_add(timeout);
        self.adopt();
        for i in 0..self.links.len() {
            self.read_link(i);
        }
        loop {
            if let Some(packet) = self.staged.pop_front() {
                return Ok(Some(packet));
            }
            let left =
                deadline.map_or(Duration::MAX, |d| d.saturating_duration_since(Instant::now()));
            if left.is_zero() {
                return Ok(None);
            }
            self.poll_once(left);
        }
    }

    fn cork(&mut self) {
        self.corked = true;
    }

    fn attach_registry(&mut self, registry: &Arc<Registry>) {
        // First attach wins; a second registry for the same endpoint is
        // ignored rather than double-counted.
        let _ =
            self.shared.metrics.set(NetMetrics::new(registry, self.shared.me().0, self.shared.n));
    }

    fn uncork(&mut self) -> Result<(), NetError> {
        self.corked = false;
        self.flush(None)
    }
}

impl Drop for TcpEndpoint {
    fn drop(&mut self) {
        self.shared.shut_down(self.listen_addr);
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

        // Establish concurrently: every endpoint both dials and accepts.
        let handles: Vec<_> = keychains
            .into_iter()
            .zip(listeners)
            .enumerate()
            .map(|(i, (keychain, listener))| {
                let peer_addrs: Vec<Option<SocketAddr>> =
                    addrs.iter().enumerate().map(|(j, a)| (j != i).then_some(*a)).collect();
                std::thread::spawn(move || TcpEndpoint::establish(keychain, listener, peer_addrs))
            })
            .collect();

        let mut endpoints = Vec::with_capacity(n);
        for handle in handles {
            endpoints.push(handle.join().expect("establish thread panicked")?);
        }
        for ep in &endpoints {
            ep.wait_connected(Duration::from_secs(5))?;
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
