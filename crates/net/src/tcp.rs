//! TCP transport: one authenticated socket per replica link.
//!
//! Topology is a full mesh with a deterministic dialing convention — the
//! lower-id replica dials the higher-id replica's listener — so each
//! ordered pair shares exactly one connection. Every connection runs the
//! [`session`](crate::session) handshake before carrying traffic, and
//! every frame is `len || seq || payload || tag` (framing from
//! [`astro_types::wire`], MAC from the session layer).
//!
//! Failure handling: a broken connection tears the link down; the dialer
//! side re-dials on the next send, the acceptor side keeps its listener
//! open and installs whatever authenticated replacement arrives. Messages
//! in flight during the outage are lost — exactly the fair-loss link the
//! BRB layer is designed to tolerate (quorums mask a disconnected
//! minority; a reconnected replica rejoins the broadcast flow).

use crate::session::{
    make_ack, make_confirm, make_hello, session_pair, verify_ack, verify_confirm, verify_hello,
    RecvSession, SendSession, ACK_LEN, CONFIRM_LEN, HELLO_LEN,
};
use crate::{Endpoint, NetError, Payload, Transport};
use astro_obs::{Counter, FlightRecorder, Histogram, Registry};
use astro_types::wire::{peek_frame_len, put_frame, Wire, MAX_FRAME_LEN};
use astro_types::{Keychain, ReplicaId};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

type Packet = (ReplicaId, Payload);

/// How long a handshake leg may block before the connection is dropped.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// Socket write timeout (`SO_SNDTIMEO`) for every established connection:
/// a peer that completes the handshake but stops reading turns `write_all`
/// into an error after this long, instead of blocking the caller (which
/// holds the link mutex) indefinitely.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Minimum spacing between redial attempts to one peer. Sends to a down
/// link inside this window fail fast with [`NetError::LinkDown`] rather
/// than stalling the caller — a crashed peer must not slow traffic to the
/// rest of the mesh (the BRB layer tolerates the loss; quorums mask a
/// disconnected minority).
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
/// array; reader threads observe the attach through a `OnceLock`.
struct NetMetrics {
    links: Vec<LinkMetrics>,
    /// Latency of one `write(2)` on the send path (one per link flush).
    write_nanos: Histogram,
    /// Bytes per link flush: a cork window's frames, or one uncorked
    /// frame.
    flush_bytes: Histogram,
    /// Reconnection attempts after the initial mesh came up.
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

/// One live, authenticated connection's write half.
struct LinkWriter {
    stream: TcpStream,
    session: SendSession,
}

/// Per-peer link state. `generation` lets a stale reader thread detect
/// that the link it was serving has already been replaced;
/// `next_dial_at` rate-limits dialer-side reconnection attempts.
struct LinkState {
    writer: Option<LinkWriter>,
    generation: u64,
    next_dial_at: Option<Instant>,
}

struct LinkSlot {
    state: Mutex<LinkState>,
}

struct Shared {
    keychain: Keychain,
    n: usize,
    peer_addrs: Vec<Option<SocketAddr>>,
    links: Vec<LinkSlot>,
    // `Sender` is Send but not Sync; reader threads clone one out.
    inbox_tx: Mutex<Sender<Packet>>,
    shutdown: AtomicBool,
    /// Set once by `attach_registry`; reader/maintenance threads observe
    /// it lock-free mid-flight.
    metrics: OnceLock<NetMetrics>,
}

impl Shared {
    fn me(&self) -> ReplicaId {
        self.keychain.id()
    }

    fn is_dialer_for(&self, peer: ReplicaId) -> bool {
        self.me().0 < peer.0
    }

    /// Installs an authenticated connection and spawns its reader.
    fn install_link(
        &self,
        self_arc: &Arc<Shared>,
        peer: ReplicaId,
        writer: LinkWriter,
        rx: RecvSession,
    ) {
        let read_stream = match writer.stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        };
        let generation = {
            let mut state = self.links[peer.0 as usize].state.lock();
            if let Some(old) = state.writer.take() {
                let _ = old.stream.shutdown(Shutdown::Both);
            }
            state.generation += 1;
            state.writer = Some(writer);
            state.generation
        };
        let shared = Arc::clone(self_arc);
        let inbox = self.inbox_tx.lock().clone();
        std::thread::spawn(move || {
            reader_main(&shared, peer, generation, read_stream, rx, &inbox);
        });
    }

    /// Clears the link if `generation` still names the active connection.
    fn teardown_link(&self, peer: ReplicaId, generation: u64) {
        let mut state = self.links[peer.0 as usize].state.lock();
        if state.generation == generation {
            if let Some(writer) = state.writer.take() {
                let _ = writer.stream.shutdown(Shutdown::Both);
            }
        }
    }

    /// Stops the endpoint: raises the shutdown flag, pokes the listener so
    /// the acceptor thread observes it (its `accept()` blocks otherwise),
    /// and severs every live link. Called from `Drop` and from the
    /// `establish` failure path — both must release the listener thread
    /// and its port.
    fn shut_down(&self, listen_addr: SocketAddr) {
        self.shutdown.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect_timeout(&listen_addr, Duration::from_millis(200));
        for slot in &self.links {
            let mut state = slot.state.lock();
            if let Some(writer) = state.writer.take() {
                let _ = writer.stream.shutdown(Shutdown::Both);
            }
        }
    }
}

/// Reads length-prefixed frames from `stream`, authenticates them against
/// the session, and forwards payloads to the endpoint inbox. Exits (and
/// tears the link down) on EOF, IO error, or any authentication failure.
fn reader_main(
    shared: &Arc<Shared>,
    peer: ReplicaId,
    generation: u64,
    mut stream: TcpStream,
    mut session: RecvSession,
    inbox: &Sender<Packet>,
) {
    let mut header = [0u8; 4];
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            break;
        }
        if stream.read_exact(&mut header).is_err() {
            break;
        }
        let len = match peek_frame_len(&header) {
            Ok(Some(len)) => len,
            // Oversized frame: Byzantine or corrupted peer; drop the link.
            _ => break,
        };
        let mut sealed = vec![0u8; len];
        if stream.read_exact(&mut sealed).is_err() {
            break;
        }
        match session.open_ref(&sealed) {
            Ok(payload) => {
                if let Some(m) = shared.metrics.get() {
                    m.links[peer.0 as usize].rx_bytes.add(4 + len as u64);
                    m.links[peer.0 as usize].rx_frames.inc();
                }
                if inbox.send((peer, Payload::from(payload))).is_err() {
                    break; // endpoint dropped
                }
            }
            // Forged/tampered/replayed traffic: the connection is not
            // trustworthy anymore.
            Err(_) => break,
        }
    }
    shared.teardown_link(peer, generation);
}

fn read_exact_frame(stream: &mut TcpStream, expected_len: usize) -> Result<Vec<u8>, NetError> {
    let mut header = [0u8; 4];
    stream.read_exact(&mut header)?;
    let len = peek_frame_len(&header)
        .map_err(|_| NetError::Handshake { peer: None, reason: "oversized frame" })?
        .expect("4 bytes present");
    if len != expected_len || len > MAX_FRAME_LEN {
        return Err(NetError::Handshake { peer: None, reason: "unexpected frame size" });
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    Ok(payload)
}

fn write_frame(stream: &mut TcpStream, payload: &[u8]) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(4 + payload.len());
    put_frame(&mut buf, payload);
    stream.write_all(&buf)
}

/// Dials `peer` and runs the dialer leg of the handshake
/// (HELLO → ACK → CONFIRM).
fn dial(shared: &Shared, peer: ReplicaId) -> Result<(LinkWriter, RecvSession), NetError> {
    let addr = shared.peer_addrs[peer.0 as usize].ok_or(NetError::UnknownPeer(peer))?;
    let mut stream = TcpStream::connect_timeout(&addr, HANDSHAKE_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    // A bounded write timeout for the connection's whole life: a peer
    // that stops draining its socket turns writes into errors (and the
    // link into a teardown) instead of wedging the writer thread.
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let (hello, nonce_d) = make_hello(&shared.keychain, peer);
    write_frame(&mut stream, &hello)?;
    let ack = read_exact_frame(&mut stream, ACK_LEN)?;
    let nonce_a = verify_ack(&shared.keychain, peer, &nonce_d, &ack)
        .map_err(|_| NetError::Handshake { peer: Some(peer), reason: "ack rejected" })?;
    let confirm = make_confirm(&shared.keychain, peer, &nonce_d, &nonce_a);
    write_frame(&mut stream, &confirm)?;
    stream.set_read_timeout(None)?;
    let (tx, rx) = session_pair(&shared.keychain, peer, shared.me(), &nonce_d, &nonce_a);
    Ok((LinkWriter { stream, session: tx }, rx))
}

/// Accept-side handshake on a fresh connection.
fn accept_handshake(
    shared: &Shared,
    mut stream: TcpStream,
) -> Result<(ReplicaId, LinkWriter, RecvSession), NetError> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
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
    stream.set_read_timeout(None)?;
    let (tx, rx) = session_pair(&shared.keychain, from, from, &nonce_d, &nonce_a);
    Ok((from, LinkWriter { stream, session: tx }, rx))
}

/// How often the maintenance pass re-dials dead links this endpoint is
/// the dialer for. Send-triggered redial only heals a link when traffic
/// happens to flow toward the dead peer; the periodic pass also heals it
/// while the mesh is quiet — which is what lets a *restarted* replica's
/// catch-up requests reach peers that have nothing to say to it yet (the
/// mesh convention is lower-id-dials, so the returning replica cannot
/// initiate those connections itself).
const MAINTENANCE_PERIOD: Duration = Duration::from_millis(50);

/// Periodically re-establishes dead dialer-side links; see
/// [`MAINTENANCE_PERIOD`]. Respects the same per-link dial cooldown as
/// the send path, so a genuinely dead peer costs one paced connect
/// attempt per cooldown, not one per period.
fn maintenance_main(shared: Arc<Shared>) {
    loop {
        std::thread::sleep(MAINTENANCE_PERIOD);
        if shared.shutdown.load(Ordering::Relaxed) {
            break;
        }
        for i in 0..shared.n {
            let peer = ReplicaId(i as u32);
            if !shared.is_dialer_for(peer) || shared.peer_addrs[i].is_none() {
                continue;
            }
            {
                let state = shared.links[i].state.lock();
                if state.writer.is_some()
                    || state.next_dial_at.is_some_and(|at| Instant::now() < at)
                {
                    continue;
                }
            }
            let attempt = dial(&shared, peer);
            shared.links[i].state.lock().next_dial_at = Some(Instant::now() + REDIAL_COOLDOWN);
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
            if let Ok((writer, rx)) = attempt {
                shared.install_link(&shared, peer, writer, rx);
            }
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
            Ok((from, writer, rx)) => shared.install_link(&shared, from, writer, rx),
            Err(_) => {
                if let Some(m) = shared.metrics.get() {
                    m.handshake_failures.inc();
                    m.flight.event("net.accept_handshake.err", 0, 0);
                }
            }
        });
    }
}

/// One replica's TCP endpoint.
///
/// Created directly with [`TcpEndpoint::establish`] (one call per OS
/// process) or in bulk with [`TcpTransport::loopback`] (single-process
/// clusters and tests).
pub struct TcpEndpoint {
    shared: Arc<Shared>,
    inbox: Receiver<Packet>,
    /// This endpoint's own handle on its inbox, for self-addressed sends.
    loopback: Sender<Packet>,
    listen_addr: SocketAddr,
    /// When set, sends leave their frames in `pending` per link and
    /// `uncork` writes each link's run of frames with one syscall;
    /// otherwise every send writes its frame at once.
    corked: bool,
    pending: Vec<PendingBuf>,
}

/// Frames coalesced for one link while corked. `generation` records the
/// link incarnation the frames were sealed under: if the connection was
/// replaced in between, the frames carry a dead session's MACs and are
/// dropped instead of poisoning the new session (fair-loss link).
struct PendingBuf {
    buf: Vec<u8>,
    generation: u64,
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
        let (inbox_tx, inbox) = unbounded();
        let listen_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            keychain,
            n,
            peer_addrs,
            links: (0..n)
                .map(|_| LinkSlot {
                    state: Mutex::new(LinkState {
                        writer: None,
                        generation: 0,
                        next_dial_at: None,
                    }),
                })
                .collect(),
            inbox_tx: Mutex::new(inbox_tx),
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
            let mut last = None;
            for _ in 0..40 {
                match dial(&shared, peer) {
                    Ok((writer, rx)) => {
                        shared.install_link(&shared, peer, writer, rx);
                        last = None;
                        break;
                    }
                    Err(e) => {
                        last = Some(e);
                        std::thread::sleep(REDIAL_BACKOFF);
                    }
                }
            }
            if let Some(e @ NetError::Handshake { .. }) = last {
                shared.shut_down(listen_addr);
                return Err(e);
            }
        }

        let pending = (0..n).map(|_| PendingBuf { buf: Vec::new(), generation: 0 }).collect();
        let loopback = shared.inbox_tx.lock().clone();
        Ok(TcpEndpoint { shared, inbox, loopback, listen_addr, corked: false, pending })
    }

    /// The address the endpoint's listener is bound to.
    pub fn listen_addr(&self) -> SocketAddr {
        self.listen_addr
    }

    /// Blocks until every link of the mesh is authenticated and up.
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
                .all(|i| self.shared.links[i].state.lock().writer.is_some());
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
        for slot in &self.shared.links {
            let mut state = slot.state.lock();
            if let Some(writer) = state.writer.take() {
                let _ = writer.stream.shutdown(Shutdown::Both);
            }
        }
    }

    /// Attempts to hand `payload` to the link by appending the sealed
    /// frame to the link's coalescing buffer, which is flushed at once
    /// unless corked (or, corked, once it outgrows
    /// [`CORK_FLUSH_THRESHOLD`]). Returns `false` if the link is down.
    fn try_send(&mut self, to: ReplicaId, payload: &[u8]) -> Result<bool, NetError> {
        let metrics = self.shared.metrics.get();
        let mut state = self.shared.links[to.0 as usize].state.lock();
        let generation = state.generation;
        let Some(writer) = state.writer.as_mut() else {
            return Ok(false);
        };
        let pending = &mut self.pending[to.0 as usize];
        if pending.generation != generation {
            // Sealed under a session that no longer exists: drop.
            pending.buf.clear();
            pending.generation = generation;
        }
        let before = pending.buf.len();
        append_frame(&mut writer.session, payload, &mut pending.buf);
        if let Some(m) = metrics {
            let link = &m.links[to.0 as usize];
            link.tx_bytes.add((pending.buf.len() - before) as u64);
            link.tx_frames.inc();
        }
        if self.corked && pending.buf.len() < CORK_FLUSH_THRESHOLD {
            return Ok(true);
        }
        Ok(flush_link(metrics, to.0 as usize, &mut state, pending))
    }
}

/// Writes link `i`'s coalesced frames with one `write(2)` if they were
/// sealed under its live connection (frames of a replaced or vanished
/// link are dropped — in-flight loss on a broken link, as ever), then
/// empties the buffer and gives excess capacity back: one 16 MiB frame
/// must not pin 16 MiB per link for the endpoint's lifetime. Returns
/// `false` if the write failed; the link is torn down.
fn flush_link(
    metrics: Option<&NetMetrics>,
    i: usize,
    state: &mut LinkState,
    pending: &mut PendingBuf,
) -> bool {
    let mut ok = true;
    if state.generation == pending.generation {
        if let Some(writer) = state.writer.as_mut() {
            if let Some(m) = metrics {
                m.flush_bytes.record(pending.buf.len() as u64);
            }
            ok = NetMetrics::timed_write(metrics, i, || {
                writer.stream.write_all(&pending.buf).is_ok()
            });
            if !ok {
                if let Some(w) = state.writer.take() {
                    let _ = w.stream.shutdown(Shutdown::Both);
                }
            }
        }
    }
    pending.buf.clear();
    pending.buf.shrink_to(CORK_FLUSH_THRESHOLD);
    ok
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
        if to.0 as usize >= self.shared.n {
            return Err(NetError::UnknownPeer(to));
        }
        if to == self.shared.me() {
            // Self-delivery short-circuits the socket layer.
            let _ = self.loopback.send((to, Payload::from(payload)));
            return Ok(());
        }
        if self.try_send(to, payload)? {
            return Ok(());
        }
        // Link down. Never stall the caller waiting for it: a crashed peer
        // must not slow traffic to the live quorum. The dialer side makes
        // at most one cooldown-gated reconnection attempt; the acceptor
        // side reports down and relies on the peer to re-dial.
        if self.shared.is_dialer_for(to) {
            {
                let state = self.shared.links[to.0 as usize].state.lock();
                if state.next_dial_at.is_some_and(|at| Instant::now() < at) {
                    return Err(NetError::LinkDown(to));
                }
            }
            let attempt = dial(&self.shared, to);
            // Space attempts from *completion*: a connect timeout against a
            // blackholed peer must not make every subsequent send redial.
            self.shared.links[to.0 as usize].state.lock().next_dial_at =
                Some(Instant::now() + REDIAL_COOLDOWN);
            if let Some(m) = self.shared.metrics.get() {
                m.redials.inc();
                if matches!(&attempt, Err(NetError::Handshake { .. })) {
                    m.handshake_failures.inc();
                }
                m.flight.event("net.send.redial", to.0 as u64, attempt.is_ok() as u64);
            }
            if let Ok((writer, rx)) = attempt {
                self.shared.install_link(&self.shared, to, writer, rx);
                if self.try_send(to, payload)? {
                    return Ok(());
                }
            }
        }
        Err(NetError::LinkDown(to))
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
        match self.inbox.recv_timeout(timeout) {
            Ok(packet) => Ok(Some(packet)),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => Ok(None),
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
        let metrics = self.shared.metrics.get();
        let mut first_err = None;
        for i in 0..self.shared.n {
            if self.pending[i].buf.is_empty() {
                continue;
            }
            let mut state = self.shared.links[i].state.lock();
            if !flush_link(metrics, i, &mut state, &mut self.pending[i]) {
                first_err.get_or_insert(NetError::LinkDown(ReplicaId(i as u32)));
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
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
