//! Threaded deployment of Astro replicas, generic over the transport.
//!
//! The simulator (`astro-sim`) models time; this crate runs the *same*
//! replica state machines under real concurrency: one OS thread per
//! replica, an [`astro_net::Transport`] carrying wire-encoded protocol
//! messages between them, and real wall-clock batching timers. Two
//! backends ship today:
//!
//! - [`InProcTransport`] — crossbeam channels, authenticated by
//!   construction: the deterministic-outcome baseline.
//! - [`TcpTransport`] — real sockets with HMAC-authenticated sessions
//!   (paper §III's authenticated links made literal), one connection per
//!   replica link, reconnect-on-drop.
//!
//! The replica state machines cannot tell the difference: messages are
//! encoded with [`astro_types::wire::Wire`], moved as bytes, and decoded
//! on receipt (a peer's malformed bytes are dropped, never a panic).
//! [`AstroOneCluster`] runs Astro I (Bracha BRB); [`AstroTwoCluster`] runs
//! Astro II (signature-based BRB with CREDIT certificates) under real
//! Schnorr signatures.
//!
//! # Examples
//!
//! ```
//! use astro_runtime::AstroOneCluster;
//! use astro_core::astro1::Astro1Config;
//! use astro_types::{Amount, ClientId, Payment};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cluster = AstroOneCluster::start(
//!     4,
//!     Astro1Config { batch_size: 4, initial_balance: Amount(100) },
//!     std::time::Duration::from_millis(1),
//! )?;
//! cluster.submit(Payment::new(1u64, 0u64, 2u64, 30u64))?;
//! let settled = cluster.wait_settled(1, std::time::Duration::from_secs(5));
//! assert_eq!(settled.len(), 1);
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

pub use durable::{demo_keychains, DurableNode, PersistentNode};
pub use verify::{Ticket, VerifyMode, VerifyPool};

use astro_brb::Dest;
use astro_core::astro1::{Astro1Config, Astro1Msg, AstroOneReplica};
use astro_core::astro2::{Astro2Config, Astro2Msg, AstroTwoReplica};
use astro_core::{CoreObs, ReplicaStep, SubmitError};
use astro_net::{Endpoint, InProcTransport, NetError, TcpTransport, Transport};
use astro_obs::{
    Counter, FlightRecorder, HealthConfig, HealthMonitor, Histogram, PaymentTracer, Registry,
    ServeHandle, Stage,
};
use astro_types::wire::{decode_exact, Wire};
use astro_types::{
    Amount, ClientId, ConfigError, Keychain, Payment, ReplicaId, SchnorrAuthenticator, ShardLayout,
};
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
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

/// The cross-thread settlement board: per-replica settled logs plus a
/// condvar so waiters ([`Cluster::wait_settled`]) block on progress
/// notifications instead of sleep-polling.
struct SettledBoard {
    logs: Mutex<Vec<Vec<Payment>>>,
    progress: Condvar,
}

impl SettledBoard {
    fn new(n: usize) -> Self {
        SettledBoard { logs: Mutex::new(vec![Vec::new(); n]), progress: Condvar::new() }
    }

    fn extend(&self, replica: ReplicaId, settled: Vec<Payment>) {
        let mut logs = self.logs.lock();
        logs[replica.0 as usize].extend(settled);
        drop(logs);
        self.progress.notify_all();
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

/// A replica state machine the threaded driver can host.
///
/// Implemented by [`AstroOneReplica`] and Schnorr-backed
/// [`AstroTwoReplica`]; the driver, cluster plumbing, and transports are
/// shared.
pub trait RuntimeNode: Send + 'static {
    /// The peer-to-peer message type.
    type Msg: Wire + Clone + Send + 'static;

    /// This replica's id.
    fn id(&self) -> ReplicaId;

    /// A client submits a payment at its representative.
    ///
    /// # Errors
    ///
    /// Rejects clients this replica does not represent.
    fn submit(&mut self, payment: Payment) -> Result<ReplicaStep<Self::Msg>, SubmitError>;

    /// Processes one peer message.
    fn handle(&mut self, from: ReplicaId, msg: Self::Msg) -> ReplicaStep<Self::Msg>;

    /// Flushes the pending batch (timer-driven).
    fn flush(&mut self) -> ReplicaStep<Self::Msg>;

    /// Final per-client balances (every client the replica has seen).
    fn final_balances(&self) -> HashMap<ClientId, Amount>;

    /// Total payments settled.
    fn total_settled(&self) -> usize;

    /// A client's spendable funds at this replica: the ledger balance
    /// plus, at an Astro II representative, certified-but-unspent credits
    /// awaiting the client's next outgoing payment. Default: the ledger
    /// balance alone.
    fn available_balance(&self, client: ClientId) -> Amount {
        self.final_balances().get(&client).copied().unwrap_or(Amount(0))
    }

    /// Called once on a *clean* stop, before the thread exits — durable
    /// nodes flush their group commit here. Not called on a simulated
    /// crash ([`Cluster::kill_replica`]), which is the point of the
    /// simulation. Default: nothing.
    fn stopping(&mut self) {}

    /// The Schnorr signature checks handling `msg` would trigger, for
    /// pre-verification by the cluster's [`VerifyPool`]. A node whose
    /// messages carry no pool-verifiable signatures (Astro I's
    /// MAC-authenticated traffic) returns none and the pool is bypassed.
    fn preverify(&self, from: ReplicaId, msg: &Self::Msg) -> Vec<astro_types::SigCheck> {
        let _ = (from, msg);
        Vec::new()
    }

    /// Resolves this node's metric/trace handles from `registry` — called
    /// once before the node's thread spawns (and again on respawn), only
    /// on observed clusters. Default: the node records nothing.
    fn attach_registry(&mut self, registry: &Arc<Registry>) {
        let _ = registry;
    }
}

fn ledger_balances(ledger: &astro_core::Ledger) -> HashMap<ClientId, Amount> {
    let mut clients: Vec<ClientId> =
        ledger.xlogs().flat_map(|x| x.iter().flat_map(|p| [p.spender, p.beneficiary])).collect();
    clients.sort_unstable();
    clients.dedup();
    clients.into_iter().map(|c| (c, ledger.balance(c))).collect()
}

impl RuntimeNode for AstroOneReplica {
    type Msg = Astro1Msg;

    fn id(&self) -> ReplicaId {
        AstroOneReplica::id(self)
    }

    fn submit(&mut self, payment: Payment) -> Result<ReplicaStep<Self::Msg>, SubmitError> {
        AstroOneReplica::submit(self, payment)
    }

    fn handle(&mut self, from: ReplicaId, msg: Self::Msg) -> ReplicaStep<Self::Msg> {
        let step = AstroOneReplica::handle(self, from, msg);
        self.prune_delivered_at(BRB_GC_HIGH_WATER);
        step
    }

    fn flush(&mut self) -> ReplicaStep<Self::Msg> {
        AstroOneReplica::flush(self)
    }

    fn final_balances(&self) -> HashMap<ClientId, Amount> {
        ledger_balances(self.ledger())
    }

    fn total_settled(&self) -> usize {
        self.ledger().total_settled()
    }

    fn attach_registry(&mut self, registry: &Arc<Registry>) {
        let me = AstroOneReplica::id(self).0;
        self.set_obs(CoreObs::for_replica(registry, me));
    }
}

impl RuntimeNode for AstroTwoReplica<SchnorrAuthenticator> {
    type Msg = Astro2Msg<astro_crypto::Signature>;

    fn id(&self) -> ReplicaId {
        AstroTwoReplica::id(self)
    }

    fn submit(&mut self, payment: Payment) -> Result<ReplicaStep<Self::Msg>, SubmitError> {
        AstroTwoReplica::submit(self, payment)
    }

    fn handle(&mut self, from: ReplicaId, msg: Self::Msg) -> ReplicaStep<Self::Msg> {
        let step = AstroTwoReplica::handle(self, from, msg);
        self.prune_delivered_at(BRB_GC_HIGH_WATER);
        step
    }

    fn flush(&mut self) -> ReplicaStep<Self::Msg> {
        AstroTwoReplica::flush(self)
    }

    fn final_balances(&self) -> HashMap<ClientId, Amount> {
        ledger_balances(self.ledger())
    }

    fn total_settled(&self) -> usize {
        self.ledger().total_settled()
    }

    fn available_balance(&self, client: ClientId) -> Amount {
        AstroTwoReplica::available_balance(self, client)
    }

    fn preverify(&self, from: ReplicaId, msg: &Self::Msg) -> Vec<astro_types::SigCheck> {
        astro_core::astro2::sig_checks(from, msg)
    }

    fn attach_registry(&mut self, registry: &Arc<Registry>) {
        let me = AstroTwoReplica::id(self).0;
        self.set_obs(CoreObs::for_replica(registry, me));
    }
}

/// Control-channel commands, delivered outside the replica mesh (clients
/// are not replicas; their submissions do not travel authenticated links).
enum Ctrl {
    Client(Payment),
    /// Reads a client's `(ledger, available)` balances off the replica
    /// thread — how restart tests watch replayed CREDIT certificates
    /// arrive at a representative before spending them.
    Probe(ClientId, Sender<(Amount, Amount)>),
    Stop,
    /// Simulated power loss: exit immediately — no final flush, no
    /// storage sync. What the replica finds on disk afterwards is exactly
    /// what group commit had pushed out.
    Crash,
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

/// The transport-generic threaded cluster driver.
///
/// Owns one OS thread per replica; each thread multiplexes its control
/// channel (client traffic, shutdown) with its transport endpoint (peer
/// traffic) and flushes batches on a wall-clock timer. Individual
/// replicas can be killed (simulated crash) and respawned with a
/// recovered node and a fresh endpoint — the durable cluster entry points
/// build their restart path on this.
pub struct Cluster {
    seats: Vec<Seat>,
    settled: Arc<SettledBoard>,
    layout: ShardLayout,
    /// The shared verification pipeline, when the cluster runs pooled.
    pool: Option<Arc<VerifyPool>>,
    /// The metric registry, when the cluster runs observed (respawned
    /// replicas re-attach to it).
    registry: Option<Arc<Registry>>,
}

impl Cluster {
    /// Starts `nodes` over `transport`; `nodes[i]` must be `ReplicaId(i)`
    /// and the transport must provide one endpoint per node.
    ///
    /// # Errors
    ///
    /// Fails on a node/endpoint count mismatch.
    pub fn start<N, T>(
        nodes: Vec<N>,
        transport: T,
        layout: ShardLayout,
        flush_every: Duration,
    ) -> Result<Cluster, ClusterError>
    where
        N: RuntimeNode,
        T: Transport,
    {
        Self::start_endpoints(nodes, transport.into_endpoints(), layout, flush_every)
    }

    /// Starts `nodes` over pre-built endpoints (`endpoints[i]` carries
    /// `ReplicaId(i)`), for callers that need the endpoints' addresses
    /// before handing them over (the durable TCP path).
    ///
    /// # Errors
    ///
    /// Fails on a node/endpoint count mismatch.
    pub fn start_endpoints<N, E>(
        nodes: Vec<N>,
        endpoints: Vec<E>,
        layout: ShardLayout,
        flush_every: Duration,
    ) -> Result<Cluster, ClusterError>
    where
        N: RuntimeNode,
        E: Endpoint,
    {
        Self::start_endpoints_pooled(nodes, endpoints, layout, flush_every, None)
    }

    /// Starts `nodes` with an optional shared [`VerifyPool`]: inbound
    /// message bursts are pre-verified on the pool's worker threads while
    /// each replica's event loop keeps draining transport, and handled in
    /// arrival order once their verdicts are cached. The nodes'
    /// authenticators must share the pool's verdict cache
    /// ([`VerifyPool::cache`]) for the pre-verification to pay off.
    ///
    /// # Errors
    ///
    /// Fails on a node/endpoint count mismatch.
    pub fn start_endpoints_pooled<N, E>(
        nodes: Vec<N>,
        endpoints: Vec<E>,
        layout: ShardLayout,
        flush_every: Duration,
        pool: Option<Arc<VerifyPool>>,
    ) -> Result<Cluster, ClusterError>
    where
        N: RuntimeNode,
        E: Endpoint,
    {
        Self::start_endpoints_observed(nodes, endpoints, layout, flush_every, pool, None)
    }

    /// Starts `nodes` with an optional [`VerifyPool`] *and* an optional
    /// metric [`Registry`]: with a registry attached, every layer records
    /// into it — transport link counters, the verify pipeline, each
    /// node's protocol counters and lifecycle stages, and the driver's
    /// own burst/backlog metrics. Without one, nothing is resolved and
    /// every instrumentation site is a `None` check.
    ///
    /// # Errors
    ///
    /// Fails on a node/endpoint count mismatch.
    pub fn start_endpoints_observed<N, E>(
        nodes: Vec<N>,
        endpoints: Vec<E>,
        layout: ShardLayout,
        flush_every: Duration,
        pool: Option<Arc<VerifyPool>>,
        registry: Option<Arc<Registry>>,
    ) -> Result<Cluster, ClusterError>
    where
        N: RuntimeNode,
        E: Endpoint,
    {
        let n = nodes.len();
        if endpoints.len() != n {
            return Err(ClusterError::EndpointMismatch { expected: n, got: endpoints.len() });
        }
        if let (Some(reg), Some(pool)) = (&registry, &pool) {
            pool.attach_registry(reg);
        }
        let settled = Arc::new(SettledBoard::new(n));
        let mut seats = Vec::with_capacity(n);
        for (mut node, mut endpoint) in nodes.into_iter().zip(endpoints) {
            let obs = registry.as_ref().map(|reg| {
                endpoint.attach_registry(reg);
                node.attach_registry(reg);
                DriverObs::for_replica(reg, node.id(), &layout)
            });
            let (tx, rx) = unbounded();
            let settled_board = Arc::clone(&settled);
            let pool = pool.clone();
            let handle = std::thread::spawn(move || {
                replica_main(
                    &mut node,
                    endpoint,
                    &rx,
                    &settled_board,
                    flush_every,
                    pool.as_deref(),
                    obs.as_ref(),
                )
            });
            seats.push(Seat { ctrl: tx, handle: Some(handle), last_result: None });
        }
        Ok(Cluster { seats, settled, layout, pool, registry })
    }

    /// The client → representative mapping in use.
    pub fn layout(&self) -> &ShardLayout {
        &self.layout
    }

    /// The shared verify pool, if the cluster runs pooled (respawned
    /// replicas re-attach to it).
    pub fn verify_pool(&self) -> Option<&Arc<VerifyPool>> {
        self.pool.as_ref()
    }

    /// The metric registry, if the cluster runs observed.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.registry.as_ref()
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

    /// Spawns the gray-failure health tick
    /// ([`HealthMonitor`](astro_obs::HealthMonitor)): every `interval`
    /// it snapshots the registry, feeds the
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

    /// Respawns seat `i` with a (recovered) node and a fresh endpoint.
    ///
    /// # Errors
    ///
    /// Fails if the replica is still running.
    pub fn respawn<N, E>(
        &mut self,
        i: usize,
        mut node: N,
        endpoint: E,
        flush_every: Duration,
    ) -> Result<(), ClusterError>
    where
        N: RuntimeNode,
        E: Endpoint,
    {
        if self.seats[i].handle.is_some() {
            return Err(ClusterError::ReplicaRunning(i));
        }
        let mut endpoint = endpoint;
        // Re-wire the restarted incarnation into the same registry its
        // predecessor recorded into.
        let obs = self.registry.as_ref().map(|reg| {
            endpoint.attach_registry(reg);
            node.attach_registry(reg);
            DriverObs::for_replica(reg, node.id(), &self.layout)
        });
        let (tx, rx) = unbounded();
        let settled_board = Arc::clone(&self.settled);
        let pool = self.pool.clone();
        let handle = std::thread::spawn(move || {
            replica_main(
                &mut node,
                endpoint,
                &rx,
                &settled_board,
                flush_every,
                pool.as_deref(),
                obs.as_ref(),
            )
        });
        self.seats[i] = Seat { ctrl: tx, handle: Some(handle), last_result: None };
        Ok(())
    }

    /// Submits a payment to the spender's representative.
    ///
    /// # Errors
    ///
    /// Fails if the representative is down or the cluster is shutting
    /// down.
    pub fn submit(&self, payment: Payment) -> Result<(), ClusterError> {
        let rep = self.layout.representative_of(payment.spender);
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

    /// Blocks until every replica has settled at least `count` payments or
    /// the timeout elapses; returns replica 0's settled log.
    ///
    /// Waiters park on a condition variable that replica threads notify as
    /// settlements land — wake-up is immediate, not quantized by a poll
    /// interval.
    pub fn wait_settled(&self, count: usize, timeout: Duration) -> Vec<Payment> {
        let deadline = Instant::now() + timeout;
        let mut logs = self.settled.logs.lock();
        while !logs.iter().all(|l| l.len() >= count) {
            // Spurious wakeups and partial progress re-check the predicate.
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else { break };
            let _ = self.settled.progress.wait_for(&mut logs, remaining);
        }
        logs[0].clone()
    }

    /// Settled payments as observed by replica `i` so far.
    pub fn settled_at(&self, i: usize) -> Vec<Payment> {
        self.settled.logs.lock()[i].clone()
    }

    /// Reads `client`'s `(ledger, available)` balances at replica `i`.
    /// `available` additionally counts certified-but-unspent credits an
    /// Astro II representative holds for the client — what a restart test
    /// polls to see replayed CREDIT certificates arrive before spending
    /// them.
    ///
    /// # Errors
    ///
    /// Fails if the replica is down or the cluster is shutting down.
    pub fn probe_balance(
        &self,
        i: usize,
        client: ClientId,
    ) -> Result<(Amount, Amount), ClusterError> {
        let (tx, rx) = unbounded();
        self.seats[i].ctrl.send(Ctrl::Probe(client, tx)).map_err(|_| ClusterError::ShuttingDown)?;
        rx.recv().map_err(|_| ClusterError::ShuttingDown)
    }

    /// Like [`Self::wait_settled`], but only waits on the listed
    /// replicas — what a test with a deliberately killed replica uses to
    /// wait on the live quorum. Returns true if every listed replica
    /// reached `count` before the timeout.
    pub fn wait_settled_among(&self, replicas: &[usize], count: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut logs = self.settled.logs.lock();
        loop {
            if replicas.iter().all(|&i| logs[i].len() >= count) {
                return true;
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let _ = self.settled.progress.wait_for(&mut logs, remaining);
        }
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
fn drain_verified<N: RuntimeNode, E: Endpoint>(
    node: &mut N,
    pending: &mut VecDeque<Parked<N::Msg>>,
    endpoint: &mut E,
    settled: &Arc<SettledBoard>,
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
        dispatch(me, step, endpoint, settled, obs);
    }
}

fn replica_main<N: RuntimeNode, E: Endpoint>(
    node: &mut N,
    mut endpoint: E,
    ctrl: &Receiver<Ctrl>,
    settled: &Arc<SettledBoard>,
    flush_every: Duration,
    pool: Option<&VerifyPool>,
    obs: Option<&DriverObs>,
) -> (HashMap<ClientId, Amount>, usize) {
    let me = node.id();
    let mut next_flush = Instant::now() + flush_every;
    // Pool mode: messages decoded but awaiting their burst's verification
    // ticket, in arrival order. Always empty in serial mode.
    let mut pending: VecDeque<Parked<N::Msg>> = VecDeque::new();
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
                    drain_verified(node, &mut pending, &mut endpoint, settled, me, true, obs);
                    let _ = endpoint.uncork();
                    node.stopping();
                    if let Some(o) = obs {
                        o.flight.event("runtime.stop", node.total_settled() as u64, 0);
                    }
                    break 'run;
                }
                Ok(Ctrl::Crash) => {
                    // Simulated power loss: no uncork, no stopping() — the
                    // thread vanishes mid-step, like the machine did, and
                    // parked messages are lost like messages on the wire.
                    if let Some(o) = obs {
                        o.flight.event("runtime.crash", pending.len() as u64, 0);
                    }
                    return (node.final_balances(), node.total_settled());
                }
                Ok(Ctrl::Client(p)) => {
                    if let Ok(step) = node.submit(p) {
                        dispatch(me, step, &mut endpoint, settled, obs);
                    }
                }
                Ok(Ctrl::Probe(client, reply)) => {
                    let ledger = node.final_balances().get(&client).copied().unwrap_or(Amount(0));
                    let _ = reply.send((ledger, node.available_balance(client)));
                }
                Err(TryRecvError::Empty) => break,
            }
        }
        if Instant::now() >= next_flush {
            let step = node.flush();
            dispatch(me, step, &mut endpoint, settled, obs);
            next_flush = Instant::now() + flush_every;
        }
        drain_verified(node, &mut pending, &mut endpoint, settled, me, false, obs);
        let _ = endpoint.uncork();
        // Peer traffic, waiting at most until the next flush deadline for
        // the first message, then draining the burst that is already
        // queued (bounded, so the flush timer cannot starve).
        let wait = next_flush.saturating_duration_since(Instant::now()).min(POLL_SLICE);
        if let Ok(Some(first)) = endpoint.recv_timeout(wait) {
            endpoint.cork();
            match pool {
                None => {
                    // Serial path: verification runs wherever the state
                    // machine asks, on this thread.
                    let mut handled: u64 = 0;
                    let (from, bytes) = first;
                    // Malformed bytes from a Byzantine peer are dropped
                    // here; the wire codec is total, so this is the only
                    // failure mode.
                    if let Ok(msg) = decode_exact::<N::Msg>(&bytes) {
                        let step = node.handle(from, msg);
                        dispatch(me, step, &mut endpoint, settled, obs);
                        handled += 1;
                    }
                    for _ in 1..BURST {
                        match endpoint.recv_timeout(Duration::ZERO) {
                            Ok(Some((from, bytes))) => {
                                if let Ok(msg) = decode_exact::<N::Msg>(&bytes) {
                                    let step = node.handle(from, msg);
                                    dispatch(me, step, &mut endpoint, settled, obs);
                                    handled += 1;
                                }
                            }
                            _ => break,
                        }
                    }
                    if let Some(o) = obs {
                        o.burst_msgs.record(handled);
                    }
                }
                Some(pool) => {
                    // Pipelined path: decode the whole burst, submit every
                    // signature it carries as ONE super-batch (all pending
                    // BRB instances amortize into a single multi-scalar
                    // multiplication on a worker), park the messages, and
                    // keep draining transport while the pool verifies.
                    let mut checks: Vec<astro_types::SigCheck> = Vec::new();
                    let mut burst: Vec<(ReplicaId, N::Msg)> = Vec::new();
                    let mut take = |from: ReplicaId, bytes: &[u8]| {
                        if let Ok(msg) = decode_exact::<N::Msg>(bytes) {
                            checks.extend(node.preverify(from, &msg));
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
                    let ticket = (!checks.is_empty()).then(|| pool.submit(checks));
                    if let Some(o) = obs {
                        o.burst_msgs.record(burst.len() as u64);
                    }
                    for (from, msg) in burst {
                        pending.push_back((from, msg, ticket.clone()));
                    }
                    drain_verified(node, &mut pending, &mut endpoint, settled, me, false, obs);
                    // Under sustained overload, bound the parked backlog by
                    // waiting for the oldest super-batch.
                    if pending.len() > PENDING_HIGH_WATER {
                        if let Some(o) = obs {
                            o.pending_high_water.inc();
                            o.flight.event("runtime.pending_high_water", pending.len() as u64, 0);
                        }
                        drain_verified(node, &mut pending, &mut endpoint, settled, me, true, obs);
                    }
                }
            }
            let _ = endpoint.uncork();
        }
    }
    (node.final_balances(), node.total_settled())
}

fn dispatch<M: Wire, E: Endpoint>(
    me: ReplicaId,
    step: ReplicaStep<M>,
    endpoint: &mut E,
    settled: &Arc<SettledBoard>,
    obs: Option<&DriverObs>,
) {
    if !step.settled.is_empty() {
        if let Some(o) = obs {
            o.confirm_settled(me, &step.settled);
        }
        settled.extend(me, step.settled);
    }
    for env in step.outbound {
        let bytes = env.msg.to_wire_bytes();
        // A failed send means a peer link is down. Broadcast losses are
        // masked by quorums; unicast losses (CREDIT sub-batches, acks,
        // sync traffic) are fail-fast outcomes the replica's retry
        // machinery covers — CREDITs sit in the core's acked outbox and
        // retransmit on the flush timer until the destination confirms.
        // Either way the failure is surfaced, never silently swallowed.
        match env.to {
            Dest::All => {
                if endpoint.broadcast(&bytes).is_err() {
                    if let Some(o) = obs {
                        o.send_failures.inc();
                        o.flight.event("runtime.send_failed", u64::from(me.0), 0);
                    }
                }
            }
            Dest::One(to) => {
                if endpoint.send(to, &bytes).is_err() {
                    if let Some(o) = obs {
                        o.send_failures.inc();
                        o.flight.event("runtime.send_failed", u64::from(to.0), 0);
                    }
                }
            }
        }
    }
}

pub(crate) fn single_layout(n: usize) -> Result<ShardLayout, ClusterError> {
    if n < 4 {
        return Err(ClusterError::TooSmall { n });
    }
    Ok(ShardLayout::single(n)?)
}

/// A running threaded Astro I cluster (Bracha BRB, MAC-authenticated
/// links).
pub struct AstroOneCluster {
    pub(crate) inner: Cluster,
    /// Restart metadata: key material, listen addresses, and (for durable
    /// clusters) the storage root. `None` for in-process clusters, whose
    /// endpoints cannot be re-established.
    pub(crate) meta: Option<durable::RestartMeta<Astro1Config>>,
}

impl AstroOneCluster {
    /// Starts `n` replica threads over in-process channels.
    ///
    /// # Errors
    ///
    /// Fails if `n < 4`.
    pub fn start(n: usize, cfg: Astro1Config, flush_every: Duration) -> Result<Self, ClusterError> {
        Self::start_with(InProcTransport::new(n), n, cfg, flush_every)
    }

    /// Starts `n` replica threads over loopback TCP with HMAC-authenticated
    /// sessions, key material drawn from [`demo_keychains`].
    ///
    /// **Demo/test only.** See [`demo_keychains`] for why this must never
    /// carry real funds. A real deployment distributes key pairs in
    /// advance (§III) and calls
    /// [`start_tcp_with_keychains`](Self::start_tcp_with_keychains).
    ///
    /// # Errors
    ///
    /// Fails if `n < 4` or the TCP mesh cannot be established.
    pub fn start_tcp(
        n: usize,
        cfg: Astro1Config,
        flush_every: Duration,
    ) -> Result<Self, ClusterError> {
        Self::start_tcp_with_keychains(demo_keychains(n), cfg, flush_every)
    }

    /// Starts one replica thread per keychain over loopback TCP with
    /// HMAC-authenticated sessions, using caller-provided key material
    /// (pre-distributed key pairs, §III).
    ///
    /// TCP clusters retain their key material and listen addresses, so a
    /// killed replica can be brought back with
    /// [`restart_replica`](Self::restart_replica) — without durable
    /// storage it returns empty and recovers the *entire* ledger from its
    /// peers through the catch-up state transfer.
    ///
    /// # Errors
    ///
    /// Fails if fewer than 4 keychains are given or the TCP mesh cannot be
    /// established.
    pub fn start_tcp_with_keychains(
        keychains: Vec<Keychain>,
        cfg: Astro1Config,
        flush_every: Duration,
    ) -> Result<Self, ClusterError> {
        Self::start_tcp_with_keychains_observed(keychains, cfg, flush_every, None)
    }

    /// [`start_tcp`](Self::start_tcp) with a metric [`Registry`]
    /// attached: the transport, each replica's protocol layer, and the
    /// driver record into it, and payment lifecycles are traced
    /// end-to-end. Key material from [`demo_keychains`] — demo/test only.
    ///
    /// # Errors
    ///
    /// As [`start_tcp`](Self::start_tcp).
    pub fn start_tcp_observed(
        n: usize,
        cfg: Astro1Config,
        flush_every: Duration,
        registry: Arc<Registry>,
    ) -> Result<Self, ClusterError> {
        Self::start_tcp_with_keychains_observed(demo_keychains(n), cfg, flush_every, Some(registry))
    }

    /// [`start_tcp_with_keychains`](Self::start_tcp_with_keychains) with
    /// an optional metric [`Registry`]; see
    /// [`start_tcp_observed`](Self::start_tcp_observed).
    ///
    /// # Errors
    ///
    /// As [`start_tcp_with_keychains`](Self::start_tcp_with_keychains).
    pub fn start_tcp_with_keychains_observed(
        keychains: Vec<Keychain>,
        cfg: Astro1Config,
        flush_every: Duration,
        registry: Option<Arc<Registry>>,
    ) -> Result<Self, ClusterError> {
        let n = keychains.len();
        if n < 4 {
            return Err(ClusterError::TooSmall { n });
        }
        let layout = single_layout(n)?;
        let endpoints = TcpTransport::loopback(keychains.clone())?.into_endpoints();
        let addrs = endpoints.iter().map(astro_net::TcpEndpoint::listen_addr).collect();
        let nodes: Vec<AstroOneReplica> = (0..n)
            .map(|i| AstroOneReplica::new(ReplicaId(i as u32), layout.clone(), cfg.clone()))
            .collect();
        Ok(AstroOneCluster {
            inner: Cluster::start_endpoints_observed(
                nodes,
                endpoints,
                layout,
                flush_every,
                None,
                registry,
            )?,
            meta: Some(durable::RestartMeta {
                keychains,
                signing: Vec::new(),
                addrs,
                cfg,
                flush_every,
                storage: None,
            }),
        })
    }

    /// Starts `n` replica threads over an arbitrary transport.
    ///
    /// # Errors
    ///
    /// Fails if `n < 4` or the transport's endpoint count is not `n`.
    pub fn start_with<T: Transport>(
        transport: T,
        n: usize,
        cfg: Astro1Config,
        flush_every: Duration,
    ) -> Result<Self, ClusterError> {
        let layout = single_layout(n)?;
        let nodes: Vec<AstroOneReplica> = (0..n)
            .map(|i| AstroOneReplica::new(ReplicaId(i as u32), layout.clone(), cfg.clone()))
            .collect();
        Ok(AstroOneCluster {
            inner: Cluster::start(nodes, transport, layout, flush_every)?,
            meta: None,
        })
    }

    /// The client → representative mapping in use.
    pub fn layout(&self) -> &ShardLayout {
        self.inner.layout()
    }

    /// The metric registry, if the cluster runs observed.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.inner.registry()
    }

    /// Starts the live scrape endpoint; see [`Cluster::serve_metrics`].
    ///
    /// # Errors
    ///
    /// Fails if the cluster runs unobserved or the bind fails.
    pub fn serve_metrics(&self, addr: &str) -> Result<ServeHandle, ClusterError> {
        self.inner.serve_metrics(addr)
    }

    /// Spawns the gray-failure health tick; see
    /// [`Cluster::spawn_health_monitor`].
    ///
    /// # Errors
    ///
    /// Fails if the cluster runs unobserved.
    pub fn spawn_health_monitor(
        &self,
        cfg: HealthConfig,
        interval: Duration,
    ) -> Result<HealthMonitor, ClusterError> {
        self.inner.spawn_health_monitor(cfg, interval)
    }

    /// Submits a payment to the spender's representative.
    ///
    /// # Errors
    ///
    /// Fails if the cluster is shutting down.
    pub fn submit(&self, payment: Payment) -> Result<(), ClusterError> {
        self.inner.submit(payment)
    }

    /// Blocks until every replica has settled at least `count` payments or
    /// the timeout elapses; returns replica 0's settled log.
    pub fn wait_settled(&self, count: usize, timeout: Duration) -> Vec<Payment> {
        self.inner.wait_settled(count, timeout)
    }

    /// Settled payments as observed by replica `i` so far.
    pub fn settled_at(&self, i: usize) -> Vec<Payment> {
        self.inner.settled_at(i)
    }

    /// Waits until each listed replica has settled at least `count`
    /// payments; see [`Cluster::wait_settled_among`].
    pub fn wait_settled_among(&self, replicas: &[usize], count: usize, timeout: Duration) -> bool {
        self.inner.wait_settled_among(replicas, count, timeout)
    }

    /// Reads `client`'s `(ledger, available)` balances at replica `i`;
    /// see [`Cluster::probe_balance`].
    ///
    /// # Errors
    ///
    /// Fails if the replica is down or the cluster is shutting down.
    pub fn probe_balance(
        &self,
        i: usize,
        client: ClientId,
    ) -> Result<(Amount, Amount), ClusterError> {
        self.inner.probe_balance(i, client)
    }

    /// Stops all replicas and returns each replica's final balance map and
    /// total settled count.
    pub fn shutdown(self) -> Vec<(HashMap<ClientId, Amount>, usize)> {
        self.inner.shutdown()
    }
}

/// A running threaded Astro II cluster (signature-based BRB with CREDIT
/// certificates) under real Schnorr signatures.
pub struct AstroTwoCluster {
    pub(crate) inner: Cluster,
    /// Restart metadata; see [`AstroOneCluster`]. For Astro II it also
    /// carries the protocol signing keychains, so a restarted replica
    /// signs under the same identity.
    pub(crate) meta: Option<durable::RestartMeta<Astro2Config>>,
}

impl AstroTwoCluster {
    /// Starts `n` replica threads over in-process channels.
    ///
    /// # Errors
    ///
    /// Fails if `n < 4`.
    pub fn start(n: usize, cfg: Astro2Config, flush_every: Duration) -> Result<Self, ClusterError> {
        Self::start_with(InProcTransport::new(n), n, cfg, flush_every)
    }

    /// Starts `n` replica threads over loopback TCP with HMAC-authenticated
    /// sessions.
    ///
    /// **Demo/test only.** The transport keychains come from
    /// [`demo_keychains`] — fixed, public seed; see there for the caveats.
    /// Deployments should use
    /// [`start_tcp_with_keychains`](Self::start_tcp_with_keychains).
    ///
    /// # Errors
    ///
    /// Fails if `n < 4` or the TCP mesh cannot be established.
    pub fn start_tcp(
        n: usize,
        cfg: Astro2Config,
        flush_every: Duration,
    ) -> Result<Self, ClusterError> {
        Self::start_tcp_with_keychains(demo_keychains(n), cfg, flush_every)
    }

    /// Starts one replica thread per keychain over loopback TCP with
    /// HMAC-authenticated sessions, using caller-provided transport key
    /// material (pre-distributed key pairs, §III). Protocol signing keys
    /// derive from the fixed runtime seed, as in [`Self::start_with`].
    ///
    /// TCP clusters retain their key material and listen addresses, so a
    /// killed replica can be brought back with
    /// [`restart_replica`](Self::restart_replica) — without durable
    /// storage it returns empty and recovers the ledger from its peers
    /// through the catch-up state transfer.
    ///
    /// # Errors
    ///
    /// Fails if fewer than 4 keychains are given or the TCP mesh cannot be
    /// established.
    pub fn start_tcp_with_keychains(
        keychains: Vec<Keychain>,
        cfg: Astro2Config,
        flush_every: Duration,
    ) -> Result<Self, ClusterError> {
        Self::start_tcp_with_keychains_observed(keychains, cfg, flush_every, None)
    }

    /// [`start_tcp`](Self::start_tcp) with a metric [`Registry`]
    /// attached: the transport, the verify pipeline, each replica's
    /// protocol layer, and the driver record into it, and payment
    /// lifecycles are traced end-to-end. Key material from
    /// [`demo_keychains`] — demo/test only.
    ///
    /// # Errors
    ///
    /// As [`start_tcp`](Self::start_tcp).
    pub fn start_tcp_observed(
        n: usize,
        cfg: Astro2Config,
        flush_every: Duration,
        registry: Arc<Registry>,
    ) -> Result<Self, ClusterError> {
        Self::start_tcp_with_keychains_observed(demo_keychains(n), cfg, flush_every, Some(registry))
    }

    /// [`start_tcp_with_keychains`](Self::start_tcp_with_keychains) with
    /// an optional metric [`Registry`]; see
    /// [`start_tcp_observed`](Self::start_tcp_observed).
    ///
    /// # Errors
    ///
    /// As [`start_tcp_with_keychains`](Self::start_tcp_with_keychains).
    pub fn start_tcp_with_keychains_observed(
        keychains: Vec<Keychain>,
        cfg: Astro2Config,
        flush_every: Duration,
        registry: Option<Arc<Registry>>,
    ) -> Result<Self, ClusterError> {
        let n = keychains.len();
        if n < 4 {
            return Err(ClusterError::TooSmall { n });
        }
        let layout = single_layout(n)?;
        let endpoints = TcpTransport::loopback(keychains.clone())?.into_endpoints();
        let addrs = endpoints.iter().map(astro_net::TcpEndpoint::listen_addr).collect();
        let signing = Keychain::deterministic_system(durable::ASTRO2_SIGNING_SEED, n);
        let pool = VerifyMode::auto().build(signing[0].book().clone());
        let nodes: Vec<AstroTwoReplica<SchnorrAuthenticator>> = signing
            .iter()
            .map(|kc| {
                let auth = match &pool {
                    Some(pool) => SchnorrAuthenticator::with_cache(kc.clone(), pool.cache()),
                    None => SchnorrAuthenticator::new(kc.clone()),
                };
                AstroTwoReplica::new(auth, layout.clone(), cfg.clone())
            })
            .collect();
        Ok(AstroTwoCluster {
            inner: Cluster::start_endpoints_observed(
                nodes,
                endpoints,
                layout,
                flush_every,
                pool,
                registry,
            )?,
            meta: Some(durable::RestartMeta {
                keychains,
                signing,
                addrs,
                cfg,
                flush_every,
                storage: None,
            }),
        })
    }

    /// Starts `n` replica threads over an arbitrary transport with the
    /// default verification pipeline ([`VerifyMode::auto`]: a worker pool
    /// sized to the machine).
    ///
    /// # Errors
    ///
    /// Fails if `n < 4` or the transport's endpoint count is not `n`.
    pub fn start_with<T: Transport>(
        transport: T,
        n: usize,
        cfg: Astro2Config,
        flush_every: Duration,
    ) -> Result<Self, ClusterError> {
        Self::start_with_verify(transport, n, cfg, flush_every, VerifyMode::auto())
    }

    /// Starts `n` replica threads over an arbitrary transport with an
    /// explicit [`VerifyMode`]. `VerifyMode::Serial` verifies on the
    /// replica threads (the baseline the determinism tests compare
    /// against); `VerifyMode::Pooled` pre-verifies inbound signature
    /// super-batches on shared worker threads so curve arithmetic
    /// overlaps transport I/O and scales with cores.
    ///
    /// # Errors
    ///
    /// Fails if `n < 4` or the transport's endpoint count is not `n`.
    pub fn start_with_verify<T: Transport>(
        transport: T,
        n: usize,
        cfg: Astro2Config,
        flush_every: Duration,
        mode: VerifyMode,
    ) -> Result<Self, ClusterError> {
        let layout = single_layout(n)?;
        // The signing keys are independent of any transport session keys;
        // deterministic for reproducibility, as everywhere in the repo.
        let keychains = Keychain::deterministic_system(b"astro-runtime-astro2", n);
        let pool = mode.build(keychains[0].book().clone());
        let nodes: Vec<AstroTwoReplica<SchnorrAuthenticator>> = keychains
            .into_iter()
            .map(|kc| {
                let auth = match &pool {
                    Some(pool) => SchnorrAuthenticator::with_cache(kc, pool.cache()),
                    None => SchnorrAuthenticator::new(kc),
                };
                AstroTwoReplica::new(auth, layout.clone(), cfg.clone())
            })
            .collect();
        Ok(AstroTwoCluster {
            inner: Cluster::start_endpoints_pooled(
                nodes,
                transport.into_endpoints(),
                layout,
                flush_every,
                pool,
            )?,
            meta: None,
        })
    }

    /// The client → representative mapping in use.
    pub fn layout(&self) -> &ShardLayout {
        self.inner.layout()
    }

    /// The metric registry, if the cluster runs observed.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.inner.registry()
    }

    /// Starts the live scrape endpoint; see [`Cluster::serve_metrics`].
    ///
    /// # Errors
    ///
    /// Fails if the cluster runs unobserved or the bind fails.
    pub fn serve_metrics(&self, addr: &str) -> Result<ServeHandle, ClusterError> {
        self.inner.serve_metrics(addr)
    }

    /// Spawns the gray-failure health tick; see
    /// [`Cluster::spawn_health_monitor`].
    ///
    /// # Errors
    ///
    /// Fails if the cluster runs unobserved.
    pub fn spawn_health_monitor(
        &self,
        cfg: HealthConfig,
        interval: Duration,
    ) -> Result<HealthMonitor, ClusterError> {
        self.inner.spawn_health_monitor(cfg, interval)
    }

    /// Submits a payment to the spender's representative.
    ///
    /// # Errors
    ///
    /// Fails if the cluster is shutting down.
    pub fn submit(&self, payment: Payment) -> Result<(), ClusterError> {
        self.inner.submit(payment)
    }

    /// Blocks until every replica has settled at least `count` payments or
    /// the timeout elapses; returns replica 0's settled log.
    pub fn wait_settled(&self, count: usize, timeout: Duration) -> Vec<Payment> {
        self.inner.wait_settled(count, timeout)
    }

    /// Settled payments as observed by replica `i` so far.
    pub fn settled_at(&self, i: usize) -> Vec<Payment> {
        self.inner.settled_at(i)
    }

    /// Waits until each listed replica has settled at least `count`
    /// payments; see [`Cluster::wait_settled_among`].
    pub fn wait_settled_among(&self, replicas: &[usize], count: usize, timeout: Duration) -> bool {
        self.inner.wait_settled_among(replicas, count, timeout)
    }

    /// Reads `client`'s `(ledger, available)` balances at replica `i`;
    /// `available` includes the certified-but-unspent credits this
    /// representative holds for the client. See
    /// [`Cluster::probe_balance`].
    ///
    /// # Errors
    ///
    /// Fails if the replica is down or the cluster is shutting down.
    pub fn probe_balance(
        &self,
        i: usize,
        client: ClientId,
    ) -> Result<(Amount, Amount), ClusterError> {
        self.inner.probe_balance(i, client)
    }

    /// The mesh's TCP listen addresses, indexed by replica id. `None` for
    /// in-process clusters. With the matching keychain this lets a test
    /// wire an out-of-process — e.g. deliberately Byzantine — peer into a
    /// killed replica's seat.
    pub fn listen_addrs(&self) -> Option<Vec<std::net::SocketAddr>> {
        self.meta.as_ref().map(|m| m.addrs.clone())
    }

    /// The protocol signing keychains the replicas run under (index =
    /// replica id). `None` for in-process clusters.
    pub fn signing_keychains(&self) -> Option<Vec<Keychain>> {
        self.meta.as_ref().map(|m| m.signing.clone())
    }

    /// Stops all replicas and returns each replica's final balance map and
    /// total settled count.
    pub fn shutdown(self) -> Vec<(HashMap<ClientId, Amount>, usize)> {
        self.inner.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let settled = cluster.wait_settled(20, Duration::from_secs(10));
        assert_eq!(settled.len(), 20);
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
        let settled = cluster.wait_settled(50, Duration::from_secs(10));
        assert_eq!(settled.len(), 50);
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
        cluster.wait_settled(30, Duration::from_secs(10));
        let logs: Vec<Vec<Payment>> = (0..4).map(|i| cluster.settled_at(i)).collect();
        cluster.shutdown();
        for log in &logs {
            let seqs: Vec<u64> = log.iter().map(|p| p.seq.0).collect();
            assert_eq!(seqs, (0..30u64).collect::<Vec<_>>(), "xlog order must hold");
        }
    }

    /// Four raw Astro I replicas (batch size 1) for a manual pump.
    fn raw_astro1_nodes() -> (ShardLayout, Vec<AstroOneReplica>) {
        let layout = ShardLayout::single(4).unwrap();
        let cfg = Astro1Config { batch_size: 1, initial_balance: Amount(10_000) };
        let nodes = (0..4)
            .map(|i| AstroOneReplica::new(ReplicaId(i as u32), layout.clone(), cfg.clone()))
            .collect();
        (layout, nodes)
    }

    /// Submits `payment` at its representative and pumps the resulting
    /// messages over the `RuntimeNode` impl (the exact path `replica_main`
    /// drives) until none is left; `keep` is the links' drop filter.
    /// Returns how many messages each replica handled.
    fn pump(
        layout: &ShardLayout,
        nodes: &mut [AstroOneReplica],
        payment: Payment,
        keep: impl Fn(ReplicaId, ReplicaId, &astro_core::astro1::Astro1Msg) -> bool,
    ) -> [u64; 4] {
        use astro_brb::Dest;
        let rep = layout.representative_of(payment.spender);
        let mut handled = [0; 4];
        let mut queue = std::collections::VecDeque::new();
        let mut steps =
            vec![(rep, RuntimeNode::submit(&mut nodes[rep.0 as usize], payment).unwrap())];
        loop {
            for (from, step) in steps.drain(..) {
                for env in step.outbound {
                    let to = match env.to {
                        Dest::All => (0..4).map(ReplicaId).collect(),
                        Dest::One(to) => vec![to],
                    };
                    queue.extend(to.into_iter().map(|to| (from, to, env.msg.clone())));
                }
            }
            let Some((from, to, msg)) = queue.pop_front() else { return handled };
            if keep(from, to, &msg) {
                handled[to.0 as usize] += 1;
                steps.push((to, RuntimeNode::handle(&mut nodes[to.0 as usize], from, msg)));
            }
        }
    }

    #[test]
    fn non_durable_nodes_gc_brb_instances_by_size() {
        // The size-based trigger (satellite of the catch-up PR): clusters
        // that never snapshot must still bound broadcast-layer memory.
        // Settling far more instances than BRB_GC_HIGH_WATER, tracked
        // state must stay at the threshold, not grow with history.
        let (layout, mut nodes) = raw_astro1_nodes();
        let settles = 2 * BRB_GC_HIGH_WATER as u64;
        for seq in 0..settles {
            pump(&layout, &mut nodes, Payment::new(1u64, seq, 2u64, 1u64), |_, _, _| true);
        }
        for (i, node) in nodes.iter().enumerate() {
            assert_eq!(node.ledger().total_settled(), settles as usize, "replica {i}");
            let tracked = node.tracked_instances();
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
        let (layout, mut nodes) = raw_astro1_nodes();
        let registry = Registry::new();
        RuntimeNode::attach_registry(&mut nodes[2], &registry);
        let keep = |_, to: ReplicaId, msg: &Astro1Msg| match msg {
            Astro1Msg::Brb(BrachaMsg::Prepare { id, .. }) => to.0 != 2 || id.tag != 0,
            Astro1Msg::Brb(BrachaMsg::Answer { .. }) => to.0 != 2,
            _ => true,
        };
        let stalled_passes = || {
            let flight = registry.flight(2);
            assert_eq!(flight.dropped(), 0);
            flight.events().iter().filter(|e| e.what == "core.brb.gc_stalled").count()
        };
        let mut seq = 0u64;
        let mut step = |nodes: &mut [AstroOneReplica]| {
            seq += 1;
            pump(&layout, nodes, Payment::new(1u64, seq - 1, 2u64, 1u64), keep)[2]
        };
        while nodes[2].tracked_instances() <= BRB_GC_HIGH_WATER {
            step(&mut nodes);
        }
        assert_eq!(nodes[2].ledger().total_settled(), 0, "everything waits behind the gap");
        let before = stalled_passes();
        assert!((1..=2).contains(&before), "{before} passes up to the high water");
        let mut messages = 0;
        while messages < 2_000 {
            messages += step(&mut nodes);
        }
        // ~9 messages per instance: not even one more high water's worth.
        let passes = stalled_passes() - before;
        assert!(passes <= 1, "{passes} scans in {messages} messages");
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
        let settled = cluster.wait_settled(10, Duration::from_secs(10));
        assert_eq!(settled.len(), 10);
        let finals = cluster.shutdown();
        for (balances, count) in &finals {
            assert_eq!(*count, 10);
            assert_eq!(balances[&ClientId(1)], Amount(450));
            assert_eq!(balances[&ClientId(2)], Amount(550));
        }
    }
}
