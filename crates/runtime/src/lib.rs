//! Threaded deployment of Astro replicas, generic over the protocol and
//! the transport.
//!
//! The simulator (`astro-sim`) models time; this crate runs the *same*
//! replica state machines under real concurrency: one OS thread per
//! replica, an [`astro_net::Transport`] carrying wire-encoded protocol
//! messages between them, and real wall-clock batching timers. Two
//! transports ship today:
//!
//! - [`InProcTransport`] — `std::sync::mpsc` channels, authenticated by
//!   construction: the deterministic-outcome baseline.
//! - [`TcpTransport`] — real sockets with HMAC-authenticated sessions
//!   (paper §III's authenticated links made literal), one connection per
//!   replica link, reconnect-on-drop.
//!
//! The replica state machines cannot tell the difference: messages are
//! encoded with [`astro_types::wire::Wire`], moved as bytes, and decoded
//! on receipt (a peer's malformed bytes are dropped, never a panic).
//!
//! One [`Cluster`] type runs any [`Replica`]: [`AstroOneCluster`] runs
//! Astro I (Bracha BRB), [`AstroTwoCluster`] Astro II (signature-based BRB
//! with CREDIT certificates) under real Schnorr signatures. A
//! [`ClusterBuilder`] picks the deployment: transport, key material,
//! storage ([`durable`]), metric registry and verification pipeline are
//! independent options.
//!
//! # Examples
//!
//! ```
//! use astro_runtime::AstroOneCluster;
//! use astro_core::astro1::Astro1Config;
//! use astro_types::{Amount, ClientId, Payment};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cluster = AstroOneCluster::builder(
//!     4,
//!     Astro1Config { batch_size: 4, initial_balance: Amount(100) },
//!     std::time::Duration::from_millis(1),
//! )
//! .start()?;
//! cluster.submit(Payment::new(1u64, 0u64, 2u64, 30u64))?;
//! assert!(cluster.wait_settled(1, std::time::Duration::from_secs(5)));
//! let finals = cluster.shutdown();
//! let expected: std::collections::HashMap<ClientId, Amount> =
//!     [(ClientId(1), Amount(70)), (ClientId(2), Amount(130))].into_iter().collect();
//! assert_eq!(finals[0].0, expected);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod durable;
pub mod verify;

pub use durable::demo_keychains;
pub use verify::{Ticket, VerifyMode, VerifyPool};

use astro_brb::Dest;
use astro_core::astro1::{Astro1Config, AstroOneReplica};
use astro_core::astro2::{Astro2Config, AstroTwoReplica};
use astro_core::{CoreObs, Replica, ReplicaStep, SubmitError, SYNC_FALLBACK_ROUNDS};
use astro_net::{Endpoint, InProcTransport, NetError, TcpEndpoint, TcpTransport, Transport};
use astro_obs::{
    Counter, FlightRecorder, HealthConfig, HealthMonitor, Histogram, PaymentTracer, Registry,
    ServeHandle, Stage,
};
use astro_store::StoreConfig;
use astro_types::wire::{decode_exact, Wire};
use astro_types::{
    Amount, ClientId, ConfigError, Keychain, Payment, ReplicaId, SchnorrAuthenticator, SeqNo,
    ShardLayout,
};
use durable::Durability;
use std::collections::{HashMap, HashSet, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Upper bound on one transport poll, so control-channel commands (client
/// submissions, shutdown) are picked up promptly even under long flush
/// intervals.
const POLL_SLICE: Duration = Duration::from_millis(1);

/// Maximum inbound messages processed per cork window. Bounds how long a
/// replica defers its flush timer under sustained inbound pressure. With
/// a verify pool attached, one burst is also the scope of a verification
/// super-batch: every signature the burst carries — ACKs, commit proofs,
/// certificates, across all BRB instances — verifies as one job.
const BURST: usize = 128;

/// With a verify pool, how many inbound messages may sit awaiting their
/// verification ticket before the driver blocks on the oldest one.
/// Bounds pending-queue memory under sustained overload.
const PENDING_HIGH_WATER: usize = 8 * BURST;

/// Tracked-BRB-instance count at which a replica prunes its delivered
/// instances after handling a message. Durable clusters additionally GC
/// at every snapshot install; this size-based trigger is what bounds
/// broadcast-layer memory on clusters that never snapshot (ROADMAP's
/// non-durable GC follow-up). 256 comfortably exceeds any in-flight
/// window the drivers produce, so the prune only ever removes history;
/// while a FIFO gap keeps more than that undeliverable the replicas'
/// `prune_delivered_at` spaces its scans a further 256 instances apart
/// instead of rescanning on every message.
const BRB_GC_HIGH_WATER: usize = 256;

/// One seat's settled count, alone on its cache lines so the replica
/// threads' stores do not contend with each other.
#[derive(Default)]
#[repr(align(128))]
struct SeatCount(AtomicUsize);

/// How far each seat's replica has settled: its ledger's
/// `total_settled()`, published by its thread after every step that
/// settled something. The replicas' ledgers are the only record of *what*
/// settled; this holds only how much.
///
/// A waiter that must block registers in `waiters` and re-reads the
/// counts under `lock`; a publisher stores its count, then reads
/// `waiters`, and takes the lock to notify only when someone is blocked.
/// Both sides use `SeqCst`, so either the publisher sees the waiter or the
/// waiter sees the new count — no wake-up is lost.
struct Progress {
    counts: Vec<SeatCount>,
    waiters: AtomicUsize,
    lock: Mutex<()>,
    changed: Condvar,
}

impl Progress {
    fn new(n: usize) -> Self {
        Progress {
            counts: (0..n).map(|_| SeatCount::default()).collect(),
            waiters: AtomicUsize::new(0),
            lock: Mutex::new(()),
            changed: Condvar::new(),
        }
    }

    fn publish(&self, seat: usize, settled: usize) {
        self.counts[seat].0.store(settled, SeqCst);
        if self.waiters.load(SeqCst) > 0 {
            drop(self.lock.lock());
            self.changed.notify_all();
        }
    }

    fn reached(&self, seats: &[usize], count: usize) -> bool {
        seats.iter().all(|&i| self.counts[i].0.load(SeqCst) >= count)
    }

    /// Blocks until every seat in `seats` has settled `count` payments or
    /// `timeout` elapses; true if they did. With a zero timeout this is
    /// atomic loads only.
    fn wait(&self, seats: &[usize], count: usize, timeout: Duration) -> bool {
        if self.reached(seats, count) {
            return true;
        }
        if timeout.is_zero() {
            return false;
        }
        let guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.waiters.fetch_add(1, SeqCst);
        // Spurious wake-ups and partial progress re-check the predicate.
        let (_guard, result) = self
            .changed
            .wait_timeout_while(guard, timeout, |_| !self.reached(seats, count))
            .unwrap_or_else(PoisonError::into_inner);
        self.waiters.fetch_sub(1, SeqCst);
        !result.timed_out()
    }
}

/// Errors starting or driving a cluster.
#[derive(Debug)]
pub enum ClusterError {
    /// Fewer than `3f + 1 = 4` replicas were requested.
    TooSmall {
        /// The requested size.
        n: usize,
    },
    /// The shard layout could not be built.
    Config(ConfigError),
    /// The transport failed to come up.
    Net(NetError),
    /// The transport's endpoint count does not match the replica count.
    EndpointMismatch {
        /// Replicas requested.
        expected: usize,
        /// Endpoints provided.
        got: usize,
    },
    /// The cluster is shutting down and no longer accepts payments.
    ShuttingDown,
    /// Durable storage failed.
    Storage(std::io::Error),
    /// Recovered on-disk state failed validation.
    Recovery(&'static str),
    /// Restart was requested on a cluster without restart metadata (an
    /// in-process cluster, whose endpoints cannot be re-established).
    NotRestartable,
    /// The replica is still running (restart requires a prior kill).
    ReplicaRunning(usize),
    /// The replica is not running (kill requires a live replica).
    ReplicaStopped(usize),
    /// Transport and signing keychain counts differ.
    KeychainMismatch {
        /// Transport keychains provided.
        transport: usize,
        /// Signing keychains provided.
        signing: usize,
    },
    /// The operation needs a metric registry, but the cluster was
    /// started unobserved.
    NotObserved,
    /// The metrics scrape endpoint could not be started.
    Export(std::io::Error),
}

impl core::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClusterError::TooSmall { n } => {
                write!(f, "a cluster needs at least 4 replicas, got {n}")
            }
            ClusterError::Config(e) => write!(f, "invalid layout: {e}"),
            ClusterError::Net(e) => write!(f, "transport failed: {e}"),
            ClusterError::EndpointMismatch { expected, got } => {
                write!(f, "transport has {got} endpoints for {expected} replicas")
            }
            ClusterError::ShuttingDown => f.write_str("cluster is shut down"),
            ClusterError::Storage(e) => write!(f, "durable storage failed: {e}"),
            ClusterError::Recovery(what) => write!(f, "recovered state invalid: {what}"),
            ClusterError::NotRestartable => {
                f.write_str("cluster has no restartable transport (in-process endpoints)")
            }
            ClusterError::ReplicaRunning(i) => write!(f, "replica {i} is still running"),
            ClusterError::ReplicaStopped(i) => write!(f, "replica {i} is not running"),
            ClusterError::KeychainMismatch { transport, signing } => {
                write!(f, "{transport} transport keychains but {signing} signing keychains")
            }
            ClusterError::NotObserved => {
                f.write_str("cluster was started without a metric registry")
            }
            ClusterError::Export(e) => write!(f, "metrics endpoint failed: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Config(e) => Some(e),
            ClusterError::Net(e) => Some(e),
            ClusterError::Storage(e) => Some(e),
            ClusterError::Export(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for ClusterError {
    fn from(e: ConfigError) -> Self {
        ClusterError::Config(e)
    }
}

impl From<NetError> for ClusterError {
    fn from(e: NetError) -> Self {
        ClusterError::Net(e)
    }
}

impl From<std::io::Error> for ClusterError {
    fn from(e: std::io::Error) -> Self {
        ClusterError::Storage(e)
    }
}

/// Every client's settled balance at one replica (every spender or
/// beneficiary of a payment it settled) — what a replica reports when it
/// stops. Memory is O(clients), not O(settled payments).
fn ledger_balances(ledger: &astro_core::Ledger) -> HashMap<ClientId, Amount> {
    let mut clients: HashSet<ClientId> = HashSet::new();
    for xlog in ledger.xlogs().filter(|x| !x.is_empty()) {
        clients.insert(xlog.owner());
        clients.extend(xlog.iter().map(|p| p.beneficiary));
    }
    clients.into_iter().map(|c| (c, ledger.balance(c))).collect()
}

/// Control-channel commands, delivered outside the replica mesh (clients
/// are not replicas; their submissions do not travel authenticated links).
enum Ctrl {
    Client(Payment),
    /// Reads one client's state off the replica thread.
    Probe(ClientId, Sender<ClientProbe>),
    Stop,
    /// Simulated power loss: exit immediately — no final flush, no
    /// storage sync. What the replica finds on disk afterwards is exactly
    /// what group commit had pushed out.
    Crash,
}

/// One client's state at one replica, as [`Cluster::probe`] reads it.
#[derive(Debug, Clone, Copy)]
pub struct ClientProbe {
    /// The settled ledger balance.
    pub balance: Amount,
    /// The ledger balance plus certified-but-unspent credits an Astro II
    /// representative holds for the client.
    pub available: Amount,
    /// The client's next sequence number: how many of its payments the
    /// replica has settled, all of `0..next_seq` in order.
    pub next_seq: SeqNo,
}

/// What a replica thread leaves behind when it exits.
type ReplicaResult = (HashMap<ClientId, Amount>, usize);

/// One replica's slot in the driver: its control channel, its thread (if
/// running), and — after a kill — the state it reported on exit.
struct Seat {
    ctrl: Sender<Ctrl>,
    handle: Option<JoinHandle<ReplicaResult>>,
    last_result: Option<ReplicaResult>,
}

/// A replica as its driver thread hosts it: the state machine plus, on
/// durable clusters, its storage, and where it publishes how much it has
/// settled.
struct Hosted<R> {
    replica: R,
    durable: Option<Durability>,
    progress: Arc<Progress>,
}

impl<R: Replica> Hosted<R> {
    fn submit(&mut self, payment: Payment) -> Result<ReplicaStep<R::Msg>, SubmitError> {
        let step = self.replica.submit(payment)?;
        self.after(&step);
        Ok(step)
    }

    fn handle(&mut self, from: ReplicaId, msg: R::Msg) -> ReplicaStep<R::Msg> {
        let step = self.replica.handle(from, msg);
        self.replica.prune_delivered_at(BRB_GC_HIGH_WATER);
        self.after(&step);
        step
    }

    fn flush(&mut self) -> ReplicaStep<R::Msg> {
        let step = self.replica.flush();
        self.after(&step);
        step
    }

    fn after(&mut self, step: &ReplicaStep<R::Msg>) {
        if let Some(durable) = &mut self.durable {
            durable.after_step(&mut self.replica, step.settled.len());
        }
        if !step.settled.is_empty() {
            self.publish();
        }
    }

    fn publish(&self) {
        let seat = self.replica.id().0 as usize;
        self.progress.publish(seat, self.replica.ledger().total_settled());
    }

    fn report(&self) -> ReplicaResult {
        let ledger = self.replica.ledger();
        (ledger_balances(ledger), ledger.total_settled())
    }
}

/// What a cluster needs to (re)build one of its replicas.
struct Spec<R: Replica> {
    layout: ShardLayout,
    cfg: R::Config,
    /// Protocol signing keychains (Astro II; `None` for Astro I).
    signing: Option<Vec<Keychain>>,
    /// `Some(root, policy)` when the replicas journal to disk.
    storage: Option<(PathBuf, StoreConfig)>,
    /// The shared verification pipeline, when the cluster runs pooled.
    pool: Option<Arc<VerifyPool>>,
    /// Constructs replica `i`, fresh — the protocol's part, set by its
    /// `builder`.
    make: fn(&Spec<R>, usize) -> R,
}

impl<R: Replica> Spec<R> {
    /// Replica `i` as its thread will host it: fresh, or — on durable
    /// clusters — recovered from whatever a previous incarnation left in
    /// its storage directory. Its settled count (the recovered one, or 0)
    /// is published before it runs.
    fn host(&self, i: usize, progress: &Arc<Progress>) -> Result<Hosted<R>, ClusterError> {
        let replica = (self.make)(self, i);
        let (replica, durable) = match &self.storage {
            None => (replica, None),
            Some((root, store)) => {
                let (replica, durable) = durable::recover(root, i, replica, store)?;
                (replica, Some(durable))
            }
        };
        let hosted = Hosted { replica, durable, progress: Arc::clone(progress) };
        hosted.publish();
        Ok(hosted)
    }
}

/// Builds a [`Cluster`] of `n` replicas. Start from the protocol's
/// `builder` ([`AstroOneCluster::builder`], [`AstroTwoCluster::builder`]);
/// by default the replicas talk over in-process channels, keep their
/// state in memory, and record no metrics.
pub struct ClusterBuilder<R: Replica> {
    n: usize,
    cfg: R::Config,
    flush_every: Duration,
    /// Transport keychains of a loopback TCP mesh; `None` = in-process
    /// channels.
    tcp: Option<Vec<Keychain>>,
    signing: Option<Vec<Keychain>>,
    storage: Option<(PathBuf, StoreConfig)>,
    registry: Option<Arc<Registry>>,
    verify: VerifyMode,
    make: fn(&Spec<R>, usize) -> R,
}

impl<R: Replica + Send + 'static> ClusterBuilder<R> {
    /// Loopback TCP with HMAC-authenticated sessions, key material drawn
    /// from [`demo_keychains`] — **demo/test only**, see there.
    pub fn tcp(mut self) -> Self {
        self.tcp = Some(demo_keychains(self.n));
        self
    }

    /// Loopback TCP with HMAC-authenticated sessions under
    /// caller-provided key material (pre-distributed key pairs, §III),
    /// one keychain per replica. TCP clusters retain their key material
    /// and listen addresses, so a killed replica can be brought back with
    /// [`Cluster::restart_replica`].
    pub fn tcp_keychains(mut self, keychains: Vec<Keychain>) -> Self {
        self.tcp = Some(keychains);
        self
    }

    /// Journals every replica under `dir/replica-<i>/` with durability
    /// policy `store`, snapshots periodically, and recovers whatever a
    /// previous incarnation left there — so starting twice from the same
    /// directory resumes the ledger (see [`durable`]).
    pub fn durable(mut self, dir: impl Into<PathBuf>, store: StoreConfig) -> Self {
        self.storage = Some((dir.into(), store));
        self
    }

    /// Attaches a metric registry: the transport, the verify pipeline,
    /// each replica's protocol layer and store, and the driver record
    /// into it, and payment lifecycles are traced end-to-end. Without
    /// one, nothing is resolved and every instrumentation site is a
    /// `None` check.
    pub fn registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Starts the replica threads.
    ///
    /// # Errors
    ///
    /// Fails if `n < 4`, keychain counts differ from `n`, the TCP mesh
    /// cannot be established, or storage cannot be opened or holds
    /// invalid state.
    pub fn start(self) -> Result<Cluster<R>, ClusterError> {
        let ClusterBuilder { n, cfg, flush_every, tcp, signing, storage, registry, verify, make } =
            self;
        if n < 4 {
            return Err(ClusterError::TooSmall { n });
        }
        let mut pool = None;
        if let Some(signing) = &signing {
            if signing.len() != n {
                return Err(ClusterError::KeychainMismatch {
                    transport: n,
                    signing: signing.len(),
                });
            }
            // Signature super-batches verify against the *signing* key
            // book, overlapping the replicas' event loops.
            pool = verify.build(signing[0].book().clone());
        }
        if let (Some(reg), Some(pool)) = (&registry, &pool) {
            pool.attach_registry(reg);
        }
        let spec = Spec { layout: ShardLayout::single(n)?, cfg, signing, storage, pool, make };
        let mut cluster = Cluster {
            seats: Vec::with_capacity(n),
            progress: Arc::new(Progress::new(n)),
            spec,
            registry,
            flush_every,
            mesh: None,
        };
        match tcp {
            None => cluster.spawn_all(InProcTransport::new(n).into_endpoints())?,
            Some(keychains) => {
                if keychains.len() != n {
                    return Err(ClusterError::EndpointMismatch {
                        expected: n,
                        got: keychains.len(),
                    });
                }
                let endpoints = TcpTransport::loopback(keychains.clone())?.into_endpoints();
                let addrs = endpoints.iter().map(TcpEndpoint::listen_addr).collect();
                cluster.mesh = Some((keychains, addrs));
                cluster.spawn_all(endpoints)?;
            }
        }
        Ok(cluster)
    }
}

impl ClusterBuilder<AstroTwoReplica<SchnorrAuthenticator>> {
    /// The Schnorr keys the protocol signs ACKs, commit proofs and CREDIT
    /// certificates with, one keychain per replica (pre-distributed,
    /// §III); signing identities survive restarts. Default: derived from
    /// a fixed public seed — demo/test only.
    pub fn signing(mut self, keychains: Vec<Keychain>) -> Self {
        self.signing = Some(keychains);
        self
    }

    /// How signatures verify: [`VerifyMode::Serial`] on the replica
    /// threads (the baseline the determinism tests compare against), or
    /// pooled — inbound signature super-batches pre-verify on shared
    /// worker threads so curve arithmetic overlaps transport I/O.
    /// Default: [`VerifyMode::auto`].
    pub fn verify(mut self, mode: VerifyMode) -> Self {
        self.verify = mode;
        self
    }
}

/// A running threaded cluster of replicas `R`.
///
/// Owns one OS thread per replica; each thread multiplexes its control
/// channel (client traffic, shutdown) with its transport endpoint (peer
/// traffic) and flushes batches on a wall-clock timer. Individual
/// replicas can be killed (simulated crash) and, on TCP clusters,
/// restarted.
pub struct Cluster<R: Replica> {
    seats: Vec<Seat>,
    progress: Arc<Progress>,
    spec: Spec<R>,
    /// The metric registry, when the cluster runs observed (restarted
    /// replicas re-attach to it).
    registry: Option<Arc<Registry>>,
    flush_every: Duration,
    /// A TCP mesh's transport keychains and listen addresses — what a
    /// restart re-establishes. `None` for in-process clusters.
    mesh: Option<(Vec<Keychain>, Vec<SocketAddr>)>,
}

/// A threaded Astro I cluster (Bracha BRB, MAC-authenticated links).
pub type AstroOneCluster = Cluster<AstroOneReplica>;

/// A threaded Astro II cluster (signature-based BRB with CREDIT
/// certificates) under real Schnorr signatures.
pub type AstroTwoCluster = Cluster<AstroTwoReplica<SchnorrAuthenticator>>;

// The constructors `benchmark/src/sut.rs` names, one builder expression
// each.

impl AstroOneCluster {
    /// A builder for `n` Astro I replicas flushing every `flush_every`.
    pub fn builder(
        n: usize,
        cfg: Astro1Config,
        flush_every: Duration,
    ) -> ClusterBuilder<AstroOneReplica> {
        ClusterBuilder {
            n,
            cfg,
            flush_every,
            tcp: None,
            signing: None,
            storage: None,
            registry: None,
            verify: VerifyMode::Serial,
            make: |spec, i| {
                AstroOneReplica::new(ReplicaId(i as u32), spec.layout.clone(), spec.cfg.clone())
            },
        }
    }

    /// `n` replicas over in-process channels.
    ///
    /// # Errors
    ///
    /// As [`ClusterBuilder::start`].
    pub fn start(n: usize, cfg: Astro1Config, flush_every: Duration) -> Result<Self, ClusterError> {
        Self::builder(n, cfg, flush_every).start()
    }

    /// `n` replicas over loopback TCP with [`demo_keychains`].
    ///
    /// # Errors
    ///
    /// As [`ClusterBuilder::start`].
    pub fn start_tcp(
        n: usize,
        cfg: Astro1Config,
        flush_every: Duration,
    ) -> Result<Self, ClusterError> {
        Self::builder(n, cfg, flush_every).tcp().start()
    }

    /// [`Self::start_tcp`] recording into `registry`.
    ///
    /// # Errors
    ///
    /// As [`ClusterBuilder::start`].
    pub fn start_tcp_observed(
        n: usize,
        cfg: Astro1Config,
        flush_every: Duration,
        registry: Arc<Registry>,
    ) -> Result<Self, ClusterError> {
        Self::builder(n, cfg, flush_every).tcp().registry(registry).start()
    }

    /// [`Self::start_tcp`] journaling under `dir` with the default
    /// [`StoreConfig`].
    ///
    /// # Errors
    ///
    /// As [`ClusterBuilder::start`].
    pub fn start_tcp_durable(
        n: usize,
        dir: impl Into<PathBuf>,
        cfg: Astro1Config,
        flush_every: Duration,
    ) -> Result<Self, ClusterError> {
        Self::builder(n, cfg, flush_every).tcp().durable(dir, StoreConfig::default()).start()
    }

    /// [`Self::start_tcp_durable`] recording into `registry`.
    ///
    /// # Errors
    ///
    /// As [`ClusterBuilder::start`].
    pub fn start_tcp_durable_observed(
        n: usize,
        dir: impl Into<PathBuf>,
        cfg: Astro1Config,
        flush_every: Duration,
        registry: Arc<Registry>,
    ) -> Result<Self, ClusterError> {
        Self::builder(n, cfg, flush_every)
            .tcp()
            .durable(dir, StoreConfig::default())
            .registry(registry)
            .start()
    }
}

impl AstroTwoCluster {
    /// A builder for `n` Astro II replicas flushing every `flush_every`,
    /// signing under keys from a fixed public seed and verifying on a
    /// pool sized to the machine.
    pub fn builder(
        n: usize,
        cfg: Astro2Config,
        flush_every: Duration,
    ) -> ClusterBuilder<AstroTwoReplica<SchnorrAuthenticator>> {
        ClusterBuilder {
            n,
            cfg,
            flush_every,
            tcp: None,
            signing: Some(Keychain::deterministic_system(durable::ASTRO2_SIGNING_SEED, n)),
            storage: None,
            registry: None,
            verify: VerifyMode::auto(),
            make: |spec, i| {
                // Replicas share the pool's verdict cache, so pooled
                // pre-verification pays off at the state machine.
                let keychain = spec.signing.as_ref().expect("Astro II signs")[i].clone();
                let auth = match &spec.pool {
                    Some(pool) => SchnorrAuthenticator::with_cache(keychain, pool.cache()),
                    None => SchnorrAuthenticator::new(keychain),
                };
                AstroTwoReplica::new(auth, spec.layout.clone(), spec.cfg.clone())
            },
        }
    }

    /// `n` replicas over in-process channels.
    ///
    /// # Errors
    ///
    /// As [`ClusterBuilder::start`].
    pub fn start(n: usize, cfg: Astro2Config, flush_every: Duration) -> Result<Self, ClusterError> {
        Self::builder(n, cfg, flush_every).start()
    }

    /// `n` replicas over loopback TCP with [`demo_keychains`].
    ///
    /// # Errors
    ///
    /// As [`ClusterBuilder::start`].
    pub fn start_tcp(
        n: usize,
        cfg: Astro2Config,
        flush_every: Duration,
    ) -> Result<Self, ClusterError> {
        Self::builder(n, cfg, flush_every).tcp().start()
    }

    /// [`Self::start_tcp`] recording into `registry`.
    ///
    /// # Errors
    ///
    /// As [`ClusterBuilder::start`].
    pub fn start_tcp_observed(
        n: usize,
        cfg: Astro2Config,
        flush_every: Duration,
        registry: Arc<Registry>,
    ) -> Result<Self, ClusterError> {
        Self::builder(n, cfg, flush_every).tcp().registry(registry).start()
    }
}

impl<R: Replica + Send + 'static> Cluster<R> {
    /// Spawns one replica thread per endpoint (`endpoints[i]` carries
    /// `ReplicaId(i)`).
    fn spawn_all<E: Endpoint>(&mut self, endpoints: Vec<E>) -> Result<(), ClusterError> {
        let nodes = (0..endpoints.len())
            .map(|i| self.spec.host(i, &self.progress))
            .collect::<Result<Vec<_>, _>>()?;
        for (node, endpoint) in nodes.into_iter().zip(endpoints) {
            let seat = self.spawn(node, endpoint);
            self.seats.push(seat);
        }
        Ok(())
    }

    /// Wires `node` and `endpoint` into the registry (if observed) and
    /// starts the replica's thread.
    fn spawn<E: Endpoint>(&self, mut node: Hosted<R>, mut endpoint: E) -> Seat {
        let obs = self.registry.as_ref().map(|reg| {
            let me = node.replica.id();
            endpoint.attach_registry(reg);
            node.replica.set_obs(CoreObs::for_replica(reg, me.0));
            if let Some(durable) = &node.durable {
                durable.attach_registry(reg, me.0);
            }
            DriverObs::for_replica(reg, me, &self.spec.layout)
        });
        let (tx, rx) = channel();
        let pool = self.spec.pool.clone();
        let flush_every = self.flush_every;
        let handle = std::thread::spawn(move || {
            replica_main(&mut node, endpoint, &rx, flush_every, pool.as_deref(), obs.as_ref())
        });
        Seat { ctrl: tx, handle: Some(handle), last_result: None }
    }

    /// The client → representative mapping in use.
    pub fn layout(&self) -> &ShardLayout {
        &self.spec.layout
    }

    /// The metric registry, if the cluster runs observed.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.registry.as_ref()
    }

    /// The mesh's TCP listen addresses, indexed by replica id. `None` for
    /// in-process clusters. With the matching keychain this lets a test
    /// wire an out-of-process — e.g. deliberately Byzantine — peer into a
    /// killed replica's seat.
    pub fn listen_addrs(&self) -> Option<&[SocketAddr]> {
        self.mesh.as_ref().map(|(_, addrs)| addrs.as_slice())
    }

    /// The protocol signing keychains the replicas run under (index =
    /// replica id); `None` for protocols that do not sign.
    pub fn signing_keychains(&self) -> Option<&[Keychain]> {
        self.spec.signing.as_deref()
    }

    /// Starts the live scrape endpoint ([`Registry::serve`]) for this
    /// cluster's registry on `addr` (`"127.0.0.1:0"` for an ephemeral
    /// port). The endpoint runs on its own thread and stops when the
    /// returned handle is dropped; it never touches the settle path
    /// beyond the relaxed atomic reads a snapshot performs.
    ///
    /// # Errors
    ///
    /// Fails if the cluster runs unobserved or the address cannot be
    /// bound.
    pub fn serve_metrics(&self, addr: &str) -> Result<ServeHandle, ClusterError> {
        let registry = self.registry.as_ref().ok_or(ClusterError::NotObserved)?;
        registry.serve(addr).map_err(ClusterError::Export)
    }

    /// Spawns the gray-failure health tick ([`HealthMonitor`]): every
    /// `interval` it snapshots the registry, feeds the
    /// [`HealthEngine`](astro_obs::HealthEngine), and publishes
    /// `health.*` gauges plus flight-recorder transition events. The
    /// monitor stops when the returned handle is dropped.
    ///
    /// # Errors
    ///
    /// Fails if the cluster runs unobserved.
    pub fn spawn_health_monitor(
        &self,
        cfg: HealthConfig,
        interval: Duration,
    ) -> Result<HealthMonitor, ClusterError> {
        let registry = self.registry.as_ref().ok_or(ClusterError::NotObserved)?;
        Ok(HealthMonitor::spawn(Arc::clone(registry), self.seats.len(), cfg, interval))
    }

    /// True if replica `i`'s thread is (still) attached.
    pub fn is_running(&self, i: usize) -> bool {
        self.seats[i].handle.is_some()
    }

    /// Kills replica `i` the unclean way: the thread exits immediately,
    /// without the final flush/sync a clean stop performs — in-memory
    /// replica state is gone, and durable state is whatever group commit
    /// already pushed out. The transport endpoint drops with the thread,
    /// severing the replica's links.
    ///
    /// # Errors
    ///
    /// Fails if the replica is not running.
    pub fn kill_replica(&mut self, i: usize) -> Result<(), ClusterError> {
        let seat = &mut self.seats[i];
        let Some(handle) = seat.handle.take() else {
            return Err(ClusterError::ReplicaStopped(i));
        };
        let _ = seat.ctrl.send(Ctrl::Crash);
        seat.last_result = Some(handle.join().expect("replica thread panicked"));
        Ok(())
    }

    /// Restarts a killed replica and rejoins it to the live quorum:
    /// recover `snapshot + longest valid WAL prefix` locally (durable
    /// clusters; others restart empty), rebind the replica's listen
    /// address (the killed endpoint closed it before `kill_replica`
    /// returned), dial the higher-id peers and leave the lower-id ones to
    /// re-dial it while their replica threads drive their endpoints, then
    /// run the peer catch-up handshake — the returning replica
    /// requests the settled delta from its peers, installs it once `f+1`
    /// byte-identical copies certify, and only then resumes broadcast
    /// delivery. Payments the quorum settled *during the downtime* are
    /// therefore recovered without any client resubmission.
    ///
    /// # Errors
    ///
    /// Fails on in-process clusters ([`ClusterError::NotRestartable`]),
    /// if the replica is still running, or if storage/recovery fails.
    pub fn restart_replica(&mut self, i: usize) -> Result<(), ClusterError> {
        let Some((keychains, addrs)) = &self.mesh else {
            return Err(ClusterError::NotRestartable);
        };
        if self.is_running(i) {
            return Err(ClusterError::ReplicaRunning(i));
        }
        let mut node = self.spec.host(i, &self.progress)?;
        // A replica recovered from disk has a safe local state to fall
        // back to if no donor quorum certifies in time (the rest of the
        // cluster may be restarting too); an empty one must certify first.
        node.replica.begin_catchup(node.durable.is_some().then_some(SYNC_FALLBACK_ROUNDS));
        let endpoint = establish_endpoint(&keychains[i], addrs, i)?;
        self.seats[i] = self.spawn(node, endpoint);
        Ok(())
    }

    /// Submits a payment to the spender's representative.
    ///
    /// # Errors
    ///
    /// Fails if the representative is down or the cluster is shutting
    /// down.
    pub fn submit(&self, payment: Payment) -> Result<(), ClusterError> {
        let rep = self.spec.layout.representative_of(payment.spender);
        // Stamped before the control channel, so the submit→prepare span
        // includes the queueing delay the client actually pays.
        if let Some(reg) = &self.registry {
            reg.tracer().stage(payment.spender.0, payment.seq.0, Stage::Submit);
        }
        self.seats[rep.0 as usize]
            .ctrl
            .send(Ctrl::Client(payment))
            .map_err(|_| ClusterError::ShuttingDown)
    }

    /// Blocks until every replica's ledger holds at least `count` settled
    /// payments or the timeout elapses; true if they all got there.
    ///
    /// Replica threads publish their ledger's settled count after every
    /// settling step and wake blocked waiters — wake-up is immediate, not
    /// quantized by a poll interval. A restarted replica counts what its
    /// ledger holds (recovered plus caught up), never a payment twice.
    pub fn wait_settled(&self, count: usize, timeout: Duration) -> bool {
        let all: Vec<usize> = (0..self.seats.len()).collect();
        self.progress.wait(&all, count, timeout)
    }

    /// Reads `client`'s state at replica `i`: its ledger balance, its
    /// available balance (which additionally counts certified-but-unspent
    /// credits an Astro II representative holds — what a restart test
    /// polls to see replayed CREDIT certificates arrive before spending
    /// them), and its next sequence number (which payments of the client
    /// the replica holds).
    ///
    /// # Errors
    ///
    /// Fails if the replica is down or the cluster is shutting down.
    pub fn probe(&self, i: usize, client: ClientId) -> Result<ClientProbe, ClusterError> {
        let (tx, rx) = channel();
        self.seats[i].ctrl.send(Ctrl::Probe(client, tx)).map_err(|_| ClusterError::ShuttingDown)?;
        rx.recv().map_err(|_| ClusterError::ShuttingDown)
    }

    /// Like [`Self::wait_settled`], but only waits on the listed
    /// replicas — what a test with a deliberately killed replica uses to
    /// wait on the live quorum. Returns true if every listed replica
    /// reached `count` before the timeout; with [`Duration::ZERO`] it
    /// never blocks and reads nothing but atomics.
    pub fn wait_settled_among(&self, replicas: &[usize], count: usize, timeout: Duration) -> bool {
        self.progress.wait(replicas, count, timeout)
    }

    /// Stops all replicas and returns each replica's final balance map and
    /// total settled count. A replica that was killed and never restarted
    /// reports the state it had at the kill.
    pub fn shutdown(self) -> Vec<(HashMap<ClientId, Amount>, usize)> {
        for seat in &self.seats {
            let _ = seat.ctrl.send(Ctrl::Stop);
        }
        self.seats
            .into_iter()
            .map(|seat| match seat.handle {
                Some(h) => h.join().expect("replica thread panicked"),
                None => seat.last_result.unwrap_or_default(),
            })
            .collect()
    }
}

/// Rebinds replica `i`'s listener at `addrs[i]` and re-establishes its
/// mesh endpoint.
fn establish_endpoint(
    keychain: &Keychain,
    addrs: &[SocketAddr],
    i: usize,
) -> Result<TcpEndpoint, ClusterError> {
    // A bind failure is a network problem, not a storage one.
    let listener = TcpListener::bind(addrs[i]).map_err(|e| ClusterError::Net(NetError::Io(e)))?;
    let peer_addrs = addrs.iter().enumerate().map(|(j, a)| (j != i).then_some(*a)).collect();
    Ok(TcpEndpoint::establish(keychain.clone(), listener, peer_addrs)?)
}

/// Driver-level metric handles of one replica thread, resolved once at
/// spawn on observed clusters. The driver is where two lifecycle stages
/// live that the state machine cannot see: nothing (submission is stamped
/// cluster-side), and *confirmation* — the spender's representative
/// observing the settle, which is what a closed-loop client measures.
struct DriverObs {
    tracer: PaymentTracer,
    layout: ShardLayout,
    /// Inbound messages handled per cork window (burst sizes).
    burst_msgs: Histogram,
    /// Times the parked backlog crossed [`PENDING_HIGH_WATER`] and the
    /// driver blocked on the oldest super-batch.
    pending_high_water: Counter,
    /// Outbound sends the transport failed fast on (peer link down).
    /// Broadcast losses are masked by quorums; unicast losses matter —
    /// CREDIT sub-batches ride on the core's retry outbox, which the
    /// flush timer retransmits until acked, so a spike here with a flat
    /// `core.*.credit_acks` is the gray-failure signature to alert on.
    send_failures: Counter,
    flight: FlightRecorder,
}

impl DriverObs {
    fn for_replica(registry: &Registry, me: ReplicaId, layout: &ShardLayout) -> DriverObs {
        let name = |suffix: &str| format!("runtime.r{}.{suffix}", me.0);
        DriverObs {
            tracer: registry.tracer().clone(),
            layout: layout.clone(),
            burst_msgs: registry.histogram(&name("burst_msgs")),
            pending_high_water: registry.counter(&name("pending_high_water")),
            send_failures: registry.counter(&name("send_failures")),
            flight: registry.flight(me.0),
        }
    }

    /// Stamps [`Stage::Confirm`] for every settled payment whose spender
    /// this replica represents — the point its client would learn the
    /// payment went through.
    fn confirm_settled(&self, me: ReplicaId, settled: &[Payment]) {
        let now = self.tracer.now_nanos();
        for p in settled {
            if self.layout.representative_of(p.spender) == me {
                self.tracer.stage_at(now, p.spender.0, p.seq.0, Stage::Confirm);
            }
        }
    }
}

/// An inbound message parked until its verification ticket completes.
/// Messages of one burst share one ticket (their signatures verified as a
/// single super-batch).
type Parked<M> = (ReplicaId, M, Option<verify::Ticket>);

/// Handles every parked message whose verification has completed, in
/// arrival order; stops at the first still-running ticket (or drains
/// everything when `block` is set). Must run inside a cork window.
fn drain_verified<R: Replica, E: Endpoint>(
    node: &mut Hosted<R>,
    pending: &mut VecDeque<Parked<R::Msg>>,
    endpoint: &mut E,
    wire: &mut Vec<u8>,
    me: ReplicaId,
    block: bool,
    obs: Option<&DriverObs>,
) {
    while let Some((_, _, ticket)) = pending.front() {
        match ticket {
            Some(t) if !t.is_done() => {
                if !block {
                    return;
                }
                t.wait();
            }
            _ => {}
        }
        let (from, msg, _) = pending.pop_front().expect("checked front");
        let step = node.handle(from, msg);
        dispatch(me, step, endpoint, wire, obs);
    }
}

fn replica_main<R: Replica, E: Endpoint>(
    node: &mut Hosted<R>,
    mut endpoint: E,
    ctrl: &Receiver<Ctrl>,
    flush_every: Duration,
    pool: Option<&VerifyPool>,
    obs: Option<&DriverObs>,
) -> ReplicaResult {
    let me = node.replica.id();
    let mut next_flush = Instant::now() + flush_every;
    // Messages decoded but awaiting their burst's verification ticket, in
    // arrival order. Empty between bursts in serial mode (no tickets).
    let mut pending: VecDeque<Parked<R::Msg>> = VecDeque::new();
    // Every outbound message is encoded here, one at a time.
    let mut wire: Vec<u8> = Vec::new();
    'run: loop {
        // Work generated in this window is corked: the transport coalesces
        // the frames per link and writes each link once at uncork, so a
        // burst of k messages costs O(1) syscalls per link, not O(k).
        endpoint.cork();
        // Drain control traffic first: client submissions and shutdown.
        loop {
            match ctrl.try_recv() {
                Ok(Ctrl::Stop) | Err(TryRecvError::Disconnected) => {
                    // A clean stop processes everything already received —
                    // pooled and serial runs must leave identical state.
                    drain_verified(node, &mut pending, &mut endpoint, &mut wire, me, true, obs);
                    let _ = endpoint.uncork();
                    if let Some(durable) = &mut node.durable {
                        durable.stop(&mut node.replica);
                    }
                    if let Some(o) = obs {
                        let settled = node.replica.ledger().total_settled();
                        o.flight.event("runtime.stop", settled as u64, 0);
                    }
                    break 'run;
                }
                Ok(Ctrl::Crash) => {
                    // Simulated power loss: no uncork, no storage stop — the
                    // thread vanishes mid-step, like the machine did, and
                    // parked messages are lost like messages on the wire.
                    if let Some(o) = obs {
                        o.flight.event("runtime.crash", pending.len() as u64, 0);
                    }
                    return node.report();
                }
                Ok(Ctrl::Client(p)) => {
                    if let Ok(step) = node.submit(p) {
                        dispatch(me, step, &mut endpoint, &mut wire, obs);
                    }
                }
                Ok(Ctrl::Probe(client, reply)) => {
                    let replica = &node.replica;
                    let _ = reply.send(ClientProbe {
                        balance: replica.balance(client),
                        available: replica.available_balance(client),
                        next_seq: replica.ledger().next_seq(client),
                    });
                }
                Err(TryRecvError::Empty) => break,
            }
        }
        if Instant::now() >= next_flush {
            let step = node.flush();
            dispatch(me, step, &mut endpoint, &mut wire, obs);
            next_flush = Instant::now() + flush_every;
        }
        drain_verified(node, &mut pending, &mut endpoint, &mut wire, me, false, obs);
        let _ = endpoint.uncork();
        // Peer traffic, waiting at most until the next flush deadline for
        // the first message, then draining the burst that is already
        // queued (bounded, so the flush timer cannot starve).
        let wait = next_flush.saturating_duration_since(Instant::now()).min(POLL_SLICE);
        if let Ok(Some(first)) = endpoint.recv_timeout(wait) {
            endpoint.cork();
            // Decode the burst and park it. With a pool, every signature
            // check the burst still needs (`preverify` counts what it has
            // already handed over) is submitted as ONE super-batch (all
            // pending BRB instances amortize into a single multi-scalar
            // multiplication on a worker) and transport keeps draining
            // while the pool verifies; serially, verification runs
            // wherever the state machine asks, so the burst carries no
            // ticket and is handled at once.
            let mut checks: Vec<astro_types::SigCheck> = Vec::new();
            let mut burst: Vec<(ReplicaId, R::Msg)> = Vec::new();
            let mut take = |from: ReplicaId, bytes: &[u8]| {
                // Malformed bytes from a Byzantine peer are dropped here;
                // the wire codec is total, so this is the only failure
                // mode.
                if let Ok(msg) = decode_exact::<R::Msg>(bytes) {
                    if pool.is_some() {
                        checks.extend(node.replica.preverify(from, &msg));
                    }
                    burst.push((from, msg));
                }
            };
            take(first.0, &first.1);
            for _ in 1..BURST {
                match endpoint.recv_timeout(Duration::ZERO) {
                    Ok(Some((from, bytes))) => take(from, &bytes),
                    _ => break,
                }
            }
            let ticket = pool.filter(|_| !checks.is_empty()).map(|pool| pool.submit(checks));
            if let Some(o) = obs {
                o.burst_msgs.record(burst.len() as u64);
            }
            for (from, msg) in burst {
                pending.push_back((from, msg, ticket.clone()));
            }
            drain_verified(node, &mut pending, &mut endpoint, &mut wire, me, false, obs);
            // Under sustained overload, bound the parked backlog by
            // waiting for the oldest super-batch.
            if pending.len() > PENDING_HIGH_WATER {
                if let Some(o) = obs {
                    o.pending_high_water.inc();
                    o.flight.event("runtime.pending_high_water", pending.len() as u64, 0);
                }
                drain_verified(node, &mut pending, &mut endpoint, &mut wire, me, true, obs);
            }
            let _ = endpoint.uncork();
        }
    }
    node.report()
}

/// Encodes and sends a step's outbound messages, each into `wire`: one
/// buffer the replica thread keeps for its lifetime (the endpoint copies
/// the bytes into its link buffers before `send` returns).
fn dispatch<M: Wire, E: Endpoint>(
    me: ReplicaId,
    step: ReplicaStep<M>,
    endpoint: &mut E,
    wire: &mut Vec<u8>,
    obs: Option<&DriverObs>,
) {
    if !step.settled.is_empty() {
        if let Some(o) = obs {
            o.confirm_settled(me, &step.settled);
        }
    }
    for env in step.outbound {
        wire.clear();
        env.msg.encode(wire);
        // A failed send means a peer link is down. Broadcast losses are
        // masked by quorums; unicast losses (CREDIT sub-batches, acks,
        // sync traffic) are fail-fast outcomes the replica's retry
        // machinery covers — CREDITs sit in the core's acked outbox and
        // retransmit on the flush timer until the destination confirms.
        // Either way the failure is surfaced, never silently swallowed.
        match env.to {
            Dest::All => {
                if endpoint.broadcast(wire).is_err() {
                    if let Some(o) = obs {
                        o.send_failures.inc();
                        o.flight.event("runtime.send_failed", u64::from(me.0), 0);
                    }
                }
            }
            Dest::One(to) => {
                if endpoint.send(to, wire).is_err() {
                    if let Some(o) = obs {
                        o.send_failures.inc();
                        o.flight.event("runtime.send_failed", u64::from(to.0), 0);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astro_core::testkit::PaymentCluster;

    fn cfg() -> Astro1Config {
        Astro1Config { batch_size: 8, initial_balance: Amount(1_000) }
    }

    #[test]
    fn start_rejects_too_small_clusters() {
        for n in 0..4 {
            match AstroOneCluster::start(n, cfg(), Duration::from_millis(1)) {
                Err(ClusterError::TooSmall { n: got }) => assert_eq!(got, n),
                other => panic!("expected TooSmall for n={n}, got {:?}", other.is_ok()),
            }
        }
        assert!(matches!(
            AstroTwoCluster::start(3, Astro2Config::default(), Duration::from_millis(1)),
            Err(ClusterError::TooSmall { n: 3 })
        ));
    }

    #[test]
    fn threaded_cluster_settles_payments() {
        let cluster = AstroOneCluster::start(4, cfg(), Duration::from_millis(1)).unwrap();
        for seq in 0..20u64 {
            cluster.submit(Payment::new(1u64, seq, 2u64, 10u64)).unwrap();
        }
        assert!(cluster.wait_settled(20, Duration::from_secs(10)));
        let finals = cluster.shutdown();
        for (balances, count) in &finals {
            assert_eq!(*count, 20);
            assert_eq!(balances[&ClientId(1)], Amount(800));
            assert_eq!(balances[&ClientId(2)], Amount(1_200));
        }
    }

    #[test]
    fn concurrent_clients_converge() {
        let cluster = Arc::new(AstroOneCluster::start(4, cfg(), Duration::from_millis(1)).unwrap());
        // Two client threads submitting interleaved payment streams.
        let c1 = {
            let cluster = Arc::clone(&cluster);
            std::thread::spawn(move || {
                for seq in 0..25u64 {
                    cluster.submit(Payment::new(3u64, seq, 4u64, 1u64)).unwrap();
                }
            })
        };
        for seq in 0..25u64 {
            cluster.submit(Payment::new(5u64, seq, 6u64, 1u64)).unwrap();
        }
        c1.join().unwrap();
        assert!(cluster.wait_settled(50, Duration::from_secs(10)));
        let cluster = Arc::into_inner(cluster).expect("sole owner");
        let finals = cluster.shutdown();
        for (balances, count) in &finals {
            assert_eq!(*count, 50);
            assert_eq!(balances[&ClientId(4)], Amount(1_025));
            assert_eq!(balances[&ClientId(6)], Amount(1_025));
        }
    }

    #[test]
    fn all_replicas_observe_identical_settlement_order_per_client() {
        let cluster = AstroOneCluster::start(4, cfg(), Duration::from_millis(1)).unwrap();
        for seq in 0..30u64 {
            cluster.submit(Payment::new(7u64, seq, 8u64, 1u64)).unwrap();
        }
        assert!(cluster.wait_settled(30, Duration::from_secs(10)));
        // An xlog is gap-free and in sequence order by construction, so a
        // next sequence number of 30 means seqs 0..30, in order.
        for i in 0..4 {
            let probe = cluster.probe(i, ClientId(7)).unwrap();
            assert_eq!(probe.next_seq, SeqNo(30), "replica {i}: xlog order must hold");
            assert_eq!(probe.balance, Amount(1_000 - 30));
        }
        cluster.shutdown();
    }

    #[test]
    fn blocked_waiter_wakes_when_the_count_is_reached() {
        let cluster = AstroOneCluster::start(4, cfg(), Duration::from_millis(1)).unwrap();
        let all = [0, 1, 2, 3];
        assert!(cluster.wait_settled_among(&all, 0, Duration::ZERO));
        assert!(!cluster.wait_settled_among(&all, 1, Duration::ZERO), "nothing settled yet");
        let waited = std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let t0 = Instant::now();
                (cluster.wait_settled_among(&all, 1, Duration::from_secs(60)), t0.elapsed())
            });
            // Submit only once the waiter is parked, so the wake-up path
            // (not the fast path) is what returns it.
            while cluster.progress.waiters.load(SeqCst) == 0 {
                std::thread::yield_now();
            }
            cluster.submit(Payment::new(1u64, 0u64, 2u64, 1u64)).unwrap();
            waiter.join().unwrap()
        });
        assert!(waited.0, "the waiter must see the count");
        assert!(waited.1 < Duration::from_secs(10), "woken promptly, not at the timeout");
        assert_eq!(cluster.progress.waiters.load(SeqCst), 0, "the waiter deregistered");
        assert!(!cluster.wait_settled_among(&all, 2, Duration::ZERO), "an unreached count");
        cluster.shutdown();
    }

    #[test]
    fn condvar_notify_wakes_waiter() {
        let progress = Progress::new(2);
        let reached = std::thread::scope(|scope| {
            let waiter = scope.spawn(|| progress.wait(&[0, 1], 3, Duration::from_secs(60)));
            while progress.waiters.load(SeqCst) == 0 {
                std::thread::yield_now();
            }
            // A partial publish wakes the waiter, which re-checks and parks again.
            progress.publish(0, 3);
            std::thread::sleep(Duration::from_millis(20));
            progress.publish(1, 3);
            waiter.join().unwrap()
        });
        assert!(reached);
        assert_eq!(progress.waiters.load(SeqCst), 0);
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let progress = Progress::new(1);
        progress.publish(0, 1);
        let t0 = Instant::now();
        assert!(!progress.wait(&[0], 2, Duration::from_millis(10)));
        assert!(t0.elapsed() >= Duration::from_millis(10), "the timed wait blocked");
        assert_eq!(progress.waiters.load(SeqCst), 0);
    }

    /// Four Astro I replicas (batch size 1) on the deterministic router,
    /// each step followed by the driver's size-triggered GC.
    fn gc_cluster() -> PaymentCluster<AstroOneReplica> {
        let layout = ShardLayout::single(4).unwrap();
        let cfg = Astro1Config { batch_size: 1, initial_balance: Amount(10_000) };
        let mut c = PaymentCluster::new(
            (0..4).map(|i| AstroOneReplica::new(ReplicaId(i), layout.clone(), cfg.clone())),
        );
        c.on_step(|_, node, _| node.prune_delivered_at(BRB_GC_HIGH_WATER));
        c
    }

    /// Submits client 1's payment `seq` and routes until quiescent.
    fn pay(c: &mut PaymentCluster<AstroOneReplica>, seq: u64) {
        let rep = ShardLayout::single(4).unwrap().representative_of(ClientId(1));
        let step = c.node_mut(rep.0 as usize).submit(Payment::new(1u64, seq, 2u64, 1u64));
        c.submit_step(rep, step.unwrap());
        c.run_to_quiescence();
    }

    #[test]
    fn non_durable_nodes_gc_brb_instances_by_size() {
        // The size-based trigger (satellite of the catch-up PR): clusters
        // that never snapshot must still bound broadcast-layer memory.
        // Settling far more instances than BRB_GC_HIGH_WATER, tracked
        // state must stay at the threshold, not grow with history.
        let mut c = gc_cluster();
        let settles = 2 * BRB_GC_HIGH_WATER as u64;
        for seq in 0..settles {
            pay(&mut c, seq);
        }
        for i in 0..4 {
            assert_eq!(c.node(i).ledger().total_settled(), settles as usize, "replica {i}");
            let tracked = c.node(i).tracked_instances();
            assert!(
                tracked <= BRB_GC_HIGH_WATER,
                "replica {i}: size-based GC must bound tracked instances, still tracks {tracked}"
            );
        }
    }

    #[test]
    fn gc_trigger_backs_off_behind_a_stuck_instance() {
        // Replica 2 misses the first batch of one stream and every ANSWER:
        // the instance stays awaiting and the FIFO gap it leaves holds all
        // later batches of that stream back, so nothing is prunable. The
        // trigger must not answer that with one full scan per message.
        use astro_brb::bracha::BrachaMsg;
        use astro_core::astro1::Astro1Msg;
        let mut c = gc_cluster();
        let registry = Registry::new();
        c.node_mut(2).set_obs(CoreObs::for_replica(&registry, 2));
        c.set_filter(|_, to, msg| match msg {
            Astro1Msg::Brb(BrachaMsg::Prepare { id, .. }) => to.0 != 2 || id.tag != 0,
            Astro1Msg::Brb(BrachaMsg::Answer { .. }) => to.0 != 2,
            _ => true,
        });
        let stalled_passes = || {
            let flight = registry.flight(2);
            assert_eq!(flight.dropped(), 0);
            flight.events().iter().filter(|e| e.what == "core.brb.gc_stalled").count()
        };
        let mut seq = 0u64;
        while c.node(2).tracked_instances() <= BRB_GC_HIGH_WATER {
            pay(&mut c, seq);
            seq += 1;
        }
        assert_eq!(c.node(2).ledger().total_settled(), 0, "everything waits behind the gap");
        let before = stalled_passes();
        assert!((1..=2).contains(&before), "{before} passes up to the high water");
        // Count the messages replica 2 handles (its steps: it represents
        // no one here, so every step of its is a handled message).
        let handled_by_2 = std::rc::Rc::new(std::cell::Cell::new(0u64));
        let counter = std::rc::Rc::clone(&handled_by_2);
        c.on_step(move |from, node, _| {
            counter.set(counter.get() + u64::from(from.0 == 2));
            node.prune_delivered_at(BRB_GC_HIGH_WATER);
        });
        while handled_by_2.get() < 2_000 {
            pay(&mut c, seq);
            seq += 1;
        }
        // ~9 messages per instance: not even one more high water's worth.
        let passes = stalled_passes() - before;
        assert!(passes <= 1, "{passes} scans in {} messages", handled_by_2.get());
    }

    #[test]
    fn astro_two_cluster_settles_payments() {
        // Direct intra-shard credits so final ledger balances mirror the
        // settled payments (certificate mode defers beneficiary credits
        // until the beneficiary spends).
        let cluster = AstroTwoCluster::start(
            4,
            Astro2Config {
                batch_size: 4,
                initial_balance: Amount(500),
                credit_mode: astro_core::astro2::CreditMode::DirectIntraShard,
                ..Astro2Config::default()
            },
            Duration::from_millis(1),
        )
        .unwrap();
        for seq in 0..10u64 {
            cluster.submit(Payment::new(1u64, seq, 2u64, 5u64)).unwrap();
        }
        assert!(cluster.wait_settled(10, Duration::from_secs(10)));
        let finals = cluster.shutdown();
        for (balances, count) in &finals {
            assert_eq!(*count, 10);
            assert_eq!(balances[&ClientId(1)], Amount(450));
            assert_eq!(balances[&ClientId(2)], Amount(550));
        }
    }
}
