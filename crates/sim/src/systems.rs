//! Adapters presenting Astro I, Astro II, and the consensus baseline to the
//! simulator through one trait.
//!
//! Each adapter owns the full set of replica state machines, maps
//! simulator events to protocol calls, and prices the CPU work of each
//! message kind (signatures, MACs, hashing) for the [`CpuModel`] — the
//! protocol logic itself runs with simulation-grade authenticators, so the
//! *costs* come from the model, not wall-clock crypto.

use crate::cpumodel::{CpuModel, DeliverCost};
use crate::netmodel::Nanos;
use astro_brb::bracha::BrachaMsg;
use astro_brb::signed::SignedMsg;
use astro_brb::{Envelope, InstanceId};
use astro_consensus::pbft::{PbftConfig, PbftMsg, PbftReplica};
use astro_core::astro1::{Astro1Config, Astro1Msg, AstroOneReplica};
use astro_core::astro2::{Astro2Config, Astro2Msg, AstroTwoReplica};
use astro_core::journal::{merge_history_blocks, SyncHead};
use astro_core::reconfig::{BlockVotes, CatchUp};
use astro_core::ReplicaStep;
use astro_types::wire::{decode_exact, Wire};
use astro_types::{ClientId, Group, MacAuthenticator, Payment, PaymentId, ReplicaId, ShardLayout};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

/// How the harness decides a payment is confirmed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfirmRule {
    /// Confirmed when the client's entry replica (its representative)
    /// settles it — Astro's fate-sharing model (paper §VI-D).
    AtEntryReplica,
    /// Confirmed when `threshold` distinct replicas have executed it —
    /// BFT-SMaRt clients hold connections to all replicas and match f+1
    /// replies (paper §VI-B).
    ReplicaCount(usize),
}

/// A payment system under simulation.
pub trait SimSystem {
    /// Replica-to-replica message type.
    type Msg: Clone + core::fmt::Debug + Wire;

    /// Total number of replicas.
    fn n(&self) -> usize;

    /// The replica a client's payments enter at.
    fn entry_replica(&self, client: ClientId) -> ReplicaId;

    /// The confirmation rule for latency/throughput accounting.
    fn confirm_rule(&self) -> ConfirmRule;

    /// A client payment arrives at `replica`.
    fn submit(
        &mut self,
        replica: ReplicaId,
        payment: Payment,
        now: Nanos,
    ) -> ReplicaStep<Self::Msg>;

    /// A network message arrives.
    fn deliver(
        &mut self,
        to: ReplicaId,
        from: ReplicaId,
        msg: Self::Msg,
        now: Nanos,
    ) -> ReplicaStep<Self::Msg>;

    /// A timer fires at `replica` (batch flush, protocol timeouts).
    fn tick(&mut self, replica: ReplicaId, now: Nanos) -> ReplicaStep<Self::Msg>;

    /// The replica's next pending deadline, if any.
    fn next_deadline(&self, replica: ReplicaId) -> Option<Nanos>;

    /// Expansion of [`astro_brb::Dest::All`] for a message from `sender`
    /// (the sender's shard).
    fn broadcast_targets(&self, sender: ReplicaId) -> Vec<ReplicaId>;

    /// CPU cost of processing `msg` at a receiving replica (crypto +
    /// hashing; generic dispatch overhead and settle costs are charged by
    /// the harness), split into the event loop's inline share and the
    /// signature-verification share a verify pool can run on worker
    /// lanes ([`CpuModel::verify_lanes`]).
    fn deliver_cost(&self, msg: &Self::Msg, cpu: &CpuModel) -> DeliverCost;

    /// CPU cost of *sending one copy* of `msg` (link MAC, per-copy
    /// serialization). Charged per recipient: a broadcast to N replicas
    /// pays it N times, which is exactly what makes a consensus leader the
    /// bottleneck as N grows.
    fn send_cost(&self, msg: &Self::Msg, cpu: &CpuModel) -> Nanos {
        let _ = msg;
        cpu.mac_ns
    }

    /// Bytes `msg` occupies on the wire. Defaults to the codec size;
    /// systems override it to account for transport framing that the codec
    /// does not carry (e.g. BFT-SMaRt's per-recipient MAC vectors and full
    /// client-authenticated requests).
    fn wire_size(&self, msg: &Self::Msg) -> usize {
        msg.encoded_len()
    }

    /// Runs the catch-up state transfer for a replica that just restarted
    /// (the runtime's `restart_replica` handshake in simulated form):
    /// `donors` serve their canonical settlement state and the replica
    /// installs once `f+1` byte-identical copies certify. Returns the
    /// bytes transferred (so the harness can charge the handshake's
    /// network and CPU cost) and the install step — its `settled` is the
    /// delta the replica learned, which the harness feeds through
    /// confirmation like any other step. `None` when nothing certified
    /// (donors mid-divergence — the harness retries, as the live
    /// protocol does on its flush timer). Default: no machinery.
    fn catch_up(
        &mut self,
        replica: ReplicaId,
        donors: &[ReplicaId],
    ) -> Option<(usize, ReplicaStep<Self::Msg>)> {
        let _ = (replica, donors);
        None
    }

    /// True if [`Self::catch_up`] can ever succeed (gates the harness's
    /// retry loop).
    fn has_catch_up(&self) -> bool {
        false
    }
}

/// Always-on invariants a chaos schedule must never violate, tracked by
/// the Astro system adapters when enabled: a replica re-broadcasting an
/// instance id it already used (stream-tag reuse — a restart that lost
/// its tag counter would wedge or equivocate its stream), a replica
/// reporting the same payment settled twice (double settle), and two
/// *different* payments settling under the same `(spender, seq)` id
/// anywhere in the cluster (a client equivocation that got through).
#[derive(Debug, Default)]
struct ChaosAudit {
    /// Every own-stream instance id ever broadcast, cluster-wide.
    own_prepares: HashSet<InstanceId>,
    /// Instances broadcast more than once.
    duplicate_broadcasts: usize,
    /// Per-replica settled payment ids.
    settled: Vec<HashSet<PaymentId>>,
    /// Payments a replica reported settled more than once.
    double_settles: usize,
    /// First-seen canonical encoding per settled payment id,
    /// cluster-wide. A second, *different* encoding under the same id
    /// means an equivocating client got conflicting payments settled.
    settled_content: HashMap<PaymentId, Vec<u8>>,
    /// Settles whose content conflicted with an earlier settle of the
    /// same payment id (anywhere in the cluster).
    equivocation_settles: usize,
}

impl ChaosAudit {
    fn new(n: usize) -> Self {
        ChaosAudit { settled: vec![HashSet::new(); n], ..ChaosAudit::default() }
    }

    fn observe_settled(&mut self, replica: ReplicaId, payments: &[Payment]) {
        for p in payments {
            if !self.settled[replica.0 as usize].insert(p.id()) {
                self.double_settles += 1;
            }
            match self.settled_content.entry(p.id()) {
                Entry::Occupied(seen) => {
                    if seen.get() != &p.to_wire_bytes() {
                        self.equivocation_settles += 1;
                    }
                }
                Entry::Vacant(slot) => {
                    slot.insert(p.to_wire_bytes());
                }
            }
        }
    }

    fn observe_prepare(&mut self, id: InstanceId) {
        if !self.own_prepares.insert(id) {
            self.duplicate_broadcasts += 1;
        }
    }
}

/// The audit counters of a chaos run; see
/// [`Astro1System::enable_chaos_audit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosReport {
    /// Own-stream instance ids broadcast more than once.
    pub duplicate_broadcasts: usize,
    /// Payments a replica reported settled more than once.
    pub double_settles: usize,
    /// Settles of a payment whose content conflicted with an earlier
    /// settle of the same `(spender, seq)` anywhere in the cluster — an
    /// equivocating client's double spend that slipped through.
    pub equivocation_settles: usize,
}

/// What the shared catch-up loop needs from a payment replica — the
/// chunked serve/install surface both Astro protocols expose.
trait SyncableReplica {
    type Msg;

    /// Settled-payment count (the certification floor).
    fn settled(&self) -> u64;

    /// The chunked sync payload served to `requester`: wire-encoded head
    /// plus the sealed history blocks it references. `None` when the
    /// donor refuses to serve (oversized volatile head).
    fn serve_chunks(&self, requester: ReplicaId) -> Option<(Vec<u8>, SyncBlockSet)>;

    /// Reassembles a certified head and its certified blocks into a full
    /// state and installs it; `None` on any rejection.
    fn install_chunked(
        &mut self,
        head: &[u8],
        blocks: &BlockVotes,
    ) -> Option<ReplicaStep<Self::Msg>>;
}

/// Sealed history blocks served alongside a sync head.
type SyncBlockSet = Vec<(ClientId, u64, Vec<u8>)>;

impl SyncableReplica for AstroOneReplica {
    type Msg = Astro1Msg;

    fn settled(&self) -> u64 {
        self.ledger().total_settled() as u64
    }

    fn serve_chunks(&self, requester: ReplicaId) -> Option<(Vec<u8>, SyncBlockSet)> {
        let (head, blocks) = self.sync_chunks(requester).ok()?;
        Some((head.to_wire_bytes(), blocks))
    }

    fn install_chunked(
        &mut self,
        head: &[u8],
        blocks: &BlockVotes,
    ) -> Option<ReplicaStep<Self::Msg>> {
        let head: SyncHead = decode_exact(head).ok()?;
        if !blocks.has_all(&head.blocks) {
            return None;
        }
        let mut state: astro_core::journal::Astro1State = decode_exact(&head.state_tail).ok()?;
        merge_history_blocks(&mut state.ledger, &head.blocks, |client, block| {
            blocks.certified(client, block).cloned()
        })
        .ok()?;
        self.install_sync(&state).ok()
    }
}

impl SyncableReplica for AstroTwoReplica<MacAuthenticator> {
    type Msg = Astro2Msg<astro_types::auth::SimSig>;

    fn settled(&self) -> u64 {
        self.ledger().total_settled() as u64
    }

    fn serve_chunks(&self, requester: ReplicaId) -> Option<(Vec<u8>, SyncBlockSet)> {
        let (head, blocks) = self.sync_chunks(requester).ok()?;
        Some((head.to_wire_bytes(), blocks))
    }

    fn install_chunked(
        &mut self,
        head: &[u8],
        blocks: &BlockVotes,
    ) -> Option<ReplicaStep<Self::Msg>> {
        let head: SyncHead = decode_exact(head).ok()?;
        if !blocks.has_all(&head.blocks) {
            return None;
        }
        let mut state: astro_core::journal::Astro2State = decode_exact(&head.state_tail).ok()?;
        merge_history_blocks(&mut state.ledger, &head.blocks, |client, block| {
            blocks.certified(client, block).cloned()
        })
        .ok()?;
        self.install_sync(&state).ok()
    }
}

/// The catch-up handshake in simulated form, shared by both Astro
/// adapters: `donors` serve a sync head plus sealed history blocks,
/// the head certifies at `f+1` byte-identical copies, each block
/// certifies independently at `f+1`, and the restarted replica
/// reassembles and installs once every referenced block is certified.
/// Returns the bytes transferred and the install step, or `None` when
/// nothing certified or the install was rejected (the harness retries).
fn run_catch_up<R: SyncableReplica>(
    replicas: &mut [R],
    group: &Group,
    replica: ReplicaId,
    donors: &[ReplicaId],
) -> Option<(usize, ReplicaStep<R::Msg>)> {
    let mut votes = CatchUp::new(group, replica, replicas[replica.0 as usize].settled());
    let mut blocks = BlockVotes::new(group, replica);
    let mut certified_head: Option<Vec<u8>> = None;
    let mut bytes = 0usize;
    for &donor in donors {
        let Some((head, served_blocks)) = replicas[donor.0 as usize].serve_chunks(replica) else {
            continue;
        };
        let settled = replicas[donor.0 as usize].settled();
        bytes += head.len();
        if let Some(certified) = votes.offer(donor, settled, head) {
            certified_head = Some(certified);
        }
        for (client, block, data) in served_blocks {
            bytes += data.len();
            blocks.offer(donor, client, block, data);
        }
        if let Some(head) = &certified_head {
            if let Some(step) = replicas[replica.0 as usize].install_chunked(head, &blocks) {
                return Some((bytes, step));
            }
        }
    }
    None
}

/// Tracks Astro-side batch-flush deadlines (the core replicas flush on
/// size; the adapter adds the time-based flush policy).
#[derive(Debug)]
struct FlushTimers {
    delay: Nanos,
    deadline: Vec<Option<Nanos>>,
}

impl FlushTimers {
    fn new(n: usize, delay: Nanos) -> Self {
        FlushTimers { delay, deadline: vec![None; n] }
    }

    /// Arms the timer after a submit left payments batched.
    fn note_batched(&mut self, replica: ReplicaId, batched: usize, now: Nanos) {
        let slot = &mut self.deadline[replica.0 as usize];
        if batched > 0 {
            if slot.is_none() {
                *slot = Some(now + self.delay);
            }
        } else {
            *slot = None;
        }
    }

    fn due(&mut self, replica: ReplicaId, now: Nanos) -> bool {
        let slot = &mut self.deadline[replica.0 as usize];
        if slot.is_some_and(|d| now >= d) {
            *slot = None;
            true
        } else {
            false
        }
    }

    fn next(&self, replica: ReplicaId) -> Option<Nanos> {
        self.deadline[replica.0 as usize]
    }
}

// ---------------------------------------------------------------------------
// Astro I
// ---------------------------------------------------------------------------

/// Astro I under simulation: echo-based broadcast, MAC links.
#[derive(Debug)]
pub struct Astro1System {
    replicas: Vec<AstroOneReplica>,
    layout: ShardLayout,
    group: Group,
    flush: FlushTimers,
    audit: Option<ChaosAudit>,
}

impl Astro1System {
    /// Builds an `n`-replica single-shard Astro I deployment.
    pub fn new(n: usize, cfg: Astro1Config, batch_delay: Nanos) -> Self {
        let layout = ShardLayout::single(n).expect("n >= 4");
        Astro1System {
            replicas: (0..n as u32)
                .map(|i| AstroOneReplica::new(ReplicaId(i), layout.clone(), cfg.clone()))
                .collect(),
            layout,
            group: Group::of_size(n).expect("n >= 4"),
            flush: FlushTimers::new(n, batch_delay),
            audit: None,
        }
    }

    /// Access to a replica (assertions in tests).
    pub fn replica(&self, i: usize) -> &AstroOneReplica {
        &self.replicas[i]
    }

    /// Attaches every replica's [`astro_core::CoreObs`] instrumentation
    /// to `registry` — the same wiring the threaded runtime's observed
    /// constructors do, so a simulated run exports the same `core.*`
    /// counters (used by [`crate::telemetry::SimTelemetry`]).
    pub fn attach_registry(&mut self, registry: &astro_obs::Registry) {
        for (i, r) in self.replicas.iter_mut().enumerate() {
            r.set_obs(astro_core::CoreObs::for_replica(registry, i as u32));
        }
    }

    /// Turns on the chaos-schedule invariant counters (stream-tag reuse,
    /// double settles). Off by default — the benchmarks pay nothing.
    pub fn enable_chaos_audit(&mut self) {
        self.audit = Some(ChaosAudit::new(self.replicas.len()));
    }

    /// The audit counters gathered since
    /// [`Self::enable_chaos_audit`], if enabled.
    pub fn chaos_report(&self) -> Option<ChaosReport> {
        self.audit.as_ref().map(|a| ChaosReport {
            duplicate_broadcasts: a.duplicate_broadcasts,
            double_settles: a.double_settles,
            equivocation_settles: a.equivocation_settles,
        })
    }

    /// (Re-)arms the flush timer while payments await broadcast or a
    /// payload pull or catch-up, which have no other clock, is outstanding.
    fn arm_flush(&mut self, replica: ReplicaId, now: Nanos) {
        let r = &self.replicas[replica.0 as usize];
        self.flush.note_batched(replica, r.batched() + usize::from(r.needs_tick()), now);
    }

    fn observe(&mut self, replica: ReplicaId, step: &ReplicaStep<Astro1Msg>) {
        let Some(audit) = &mut self.audit else { return };
        audit.observe_settled(replica, &step.settled);
        for env in &step.outbound {
            if let Astro1Msg::Brb(BrachaMsg::Prepare { id, .. }) = &env.msg {
                if id.source == u64::from(replica.0) {
                    audit.observe_prepare(*id);
                }
            }
        }
    }
}

impl SimSystem for Astro1System {
    type Msg = Astro1Msg;

    fn n(&self) -> usize {
        self.replicas.len()
    }

    fn entry_replica(&self, client: ClientId) -> ReplicaId {
        self.layout.representative_of(client)
    }

    fn confirm_rule(&self) -> ConfirmRule {
        ConfirmRule::AtEntryReplica
    }

    fn submit(
        &mut self,
        replica: ReplicaId,
        payment: Payment,
        now: Nanos,
    ) -> ReplicaStep<Self::Msg> {
        let step = self.replicas[replica.0 as usize]
            .submit(payment)
            .unwrap_or_else(|_| ReplicaStep::empty());
        self.arm_flush(replica, now);
        self.observe(replica, &step);
        step
    }

    fn deliver(
        &mut self,
        to: ReplicaId,
        from: ReplicaId,
        msg: Self::Msg,
        now: Nanos,
    ) -> ReplicaStep<Self::Msg> {
        let step = self.replicas[to.0 as usize].handle(from, msg);
        // May start or finish a pull; an armed batch deadline stays put.
        self.arm_flush(to, now);
        self.observe(to, &step);
        step
    }

    fn tick(&mut self, replica: ReplicaId, now: Nanos) -> ReplicaStep<Self::Msg> {
        if self.flush.due(replica, now) {
            let step = self.replicas[replica.0 as usize].flush();
            self.arm_flush(replica, now);
            self.observe(replica, &step);
            step
        } else {
            ReplicaStep::empty()
        }
    }

    fn next_deadline(&self, replica: ReplicaId) -> Option<Nanos> {
        self.flush.next(replica)
    }

    fn broadcast_targets(&self, _sender: ReplicaId) -> Vec<ReplicaId> {
        (0..self.replicas.len() as u32).map(ReplicaId).collect()
    }

    fn deliver_cost(&self, msg: &Self::Msg, cpu: &CpuModel) -> DeliverCost {
        // MAC-authenticated link + hashing what the frame carries. A
        // payload (PREPARE, or the ANSWER that replaces a missed one) is
        // digested once and every replica additionally validates the
        // per-payment client authentication data that requests carry
        // (~100 B per payment, §VI-B). ECHO / READY / REQUEST are 49-byte
        // digest frames: one quorum-bookkeeping step each, whatever the
        // batch size. No Schnorr signatures anywhere — nothing for a
        // verify pool to take.
        const CLIENT_AUTH_NS: Nanos = 12_000;
        const BOOKKEEPING_NS: Nanos = 1_500;
        let size = msg.encoded_len();
        DeliverCost::inline(match msg {
            Astro1Msg::Brb(
                BrachaMsg::Prepare { payload, .. } | BrachaMsg::Answer { payload, .. },
            ) => cpu.mac_ns + cpu.hash(size) + payload.payments.len() as Nanos * CLIENT_AUTH_NS,
            Astro1Msg::Brb(
                BrachaMsg::Echo { .. } | BrachaMsg::Ready { .. } | BrachaMsg::Request { .. },
            ) => cpu.mac_ns + cpu.hash(size) + BOOKKEEPING_NS,
            // Catch-up traffic: MAC check plus hashing the served state.
            Astro1Msg::Sync(_) => cpu.mac_ns + cpu.hash(size),
        })
    }

    fn catch_up(
        &mut self,
        replica: ReplicaId,
        donors: &[ReplicaId],
    ) -> Option<(usize, ReplicaStep<Self::Msg>)> {
        let (bytes, step) = run_catch_up(&mut self.replicas, &self.group, replica, donors)?;
        self.observe(replica, &step);
        Some((bytes, step))
    }

    fn has_catch_up(&self) -> bool {
        true
    }
}

// ---------------------------------------------------------------------------
// Astro II
// ---------------------------------------------------------------------------

/// Astro II under simulation: signed broadcast, CREDIT certificates,
/// optional sharding. Uses [`MacAuthenticator`] internally; the cost model
/// charges real signature prices.
#[derive(Debug)]
pub struct Astro2System {
    replicas: Vec<AstroTwoReplica<MacAuthenticator>>,
    layout: ShardLayout,
    groups: Vec<Group>,
    flush: FlushTimers,
    /// Independent pacer for the CREDIT retry outbox: it must keep
    /// running while unacked bundles remain (retransmission has no other
    /// clock), but it must not share the batch timer — firing `flush`
    /// early just to age the outbox cuts batches short and inflates the
    /// per-batch broadcast overhead.
    outbox: FlushTimers,
    audit: Option<ChaosAudit>,
}

impl Astro2System {
    /// Builds a sharded Astro II deployment (`shards × per_shard`
    /// replicas). Use `shards = 1` for the unsharded microbenchmarks.
    pub fn new(shards: usize, per_shard: usize, cfg: Astro2Config, batch_delay: Nanos) -> Self {
        let layout = ShardLayout::uniform(shards, per_shard).expect("valid layout");
        let total = shards * per_shard;
        let groups =
            layout.shards().iter().map(|s| Group::from_spec(s).expect("shard size")).collect();
        Astro2System {
            replicas: (0..total as u32)
                .map(|i| {
                    AstroTwoReplica::new(
                        MacAuthenticator::new(ReplicaId(i), b"sim-astro2".to_vec()),
                        layout.clone(),
                        cfg.clone(),
                    )
                })
                .collect(),
            layout,
            groups,
            flush: FlushTimers::new(total, batch_delay),
            // Acks and retransmission pace at a coarser interval than
            // batch cutting: a wider window accumulates more digests per
            // destination into each signed CreditAck (fewer point-to-point
            // messages) at the cost of at most one extra window of ack
            // latency. Recovery after a restart is CreditRequest-replay
            // driven, so the coarser retransmit clock is safe.
            outbox: FlushTimers::new(total, batch_delay.saturating_mul(4)),
            audit: None,
        }
    }

    /// Access to a replica (assertions in tests).
    pub fn replica(&self, i: usize) -> &AstroTwoReplica<MacAuthenticator> {
        &self.replicas[i]
    }

    /// Attaches every replica's [`astro_core::CoreObs`] instrumentation
    /// to `registry`; see [`Astro1System::attach_registry`].
    pub fn attach_registry(&mut self, registry: &astro_obs::Registry) {
        for (i, r) in self.replicas.iter_mut().enumerate() {
            r.set_obs(astro_core::CoreObs::for_replica(registry, i as u32));
        }
    }

    /// The shard layout.
    pub fn layout(&self) -> &ShardLayout {
        &self.layout
    }

    /// Turns on the chaos-schedule invariant counters; see
    /// [`Astro1System::enable_chaos_audit`].
    pub fn enable_chaos_audit(&mut self) {
        self.audit = Some(ChaosAudit::new(self.replicas.len()));
    }

    /// The audit counters gathered since [`Self::enable_chaos_audit`].
    pub fn chaos_report(&self) -> Option<ChaosReport> {
        self.audit.as_ref().map(|a| ChaosReport {
            duplicate_broadcasts: a.duplicate_broadcasts,
            double_settles: a.double_settles,
            equivocation_settles: a.equivocation_settles,
        })
    }

    /// (Re-)arms both timers: the batch flush deadline for payments
    /// awaiting broadcast, and the separate outbox pacer for unacked
    /// CREDIT bundles awaiting retransmission.
    fn arm_timers(&mut self, replica: ReplicaId, now: Nanos) {
        let r = &self.replicas[replica.0 as usize];
        self.flush.note_batched(replica, r.batched(), now);
        self.outbox.note_batched(replica, r.outbox_depth() + r.pending_acks(), now);
    }

    fn observe(
        &mut self,
        replica: ReplicaId,
        step: &ReplicaStep<Astro2Msg<astro_types::auth::SimSig>>,
    ) {
        let Some(audit) = &mut self.audit else { return };
        audit.observe_settled(replica, &step.settled);
        for env in &step.outbound {
            if let Astro2Msg::Brb(SignedMsg::Prepare { id, .. }) = &env.msg {
                if id.source == u64::from(replica.0) {
                    audit.observe_prepare(*id);
                }
            }
        }
    }
}

impl SimSystem for Astro2System {
    type Msg = Astro2Msg<astro_types::auth::SimSig>;

    fn n(&self) -> usize {
        self.replicas.len()
    }

    fn entry_replica(&self, client: ClientId) -> ReplicaId {
        self.layout.representative_of(client)
    }

    fn confirm_rule(&self) -> ConfirmRule {
        ConfirmRule::AtEntryReplica
    }

    fn submit(
        &mut self,
        replica: ReplicaId,
        payment: Payment,
        now: Nanos,
    ) -> ReplicaStep<Self::Msg> {
        let step = self.replicas[replica.0 as usize]
            .submit(payment)
            .unwrap_or_else(|_| ReplicaStep::empty());
        self.arm_timers(replica, now);
        self.observe(replica, &step);
        step
    }

    fn deliver(
        &mut self,
        to: ReplicaId,
        from: ReplicaId,
        msg: Self::Msg,
        now: Nanos,
    ) -> ReplicaStep<Self::Msg> {
        let step = self.replicas[to.0 as usize].handle(from, msg);
        // A delivery can enqueue CREDIT outbox entries and owed acks
        // (settlement emits them); keep the retransmit pacer armed. The
        // batch timer stays anchored to submissions: payments a
        // settlement cascade re-queues ride the next submission's window
        // rather than re-anchoring (and thus shortening) it.
        let r = &self.replicas[to.0 as usize];
        self.outbox.note_batched(to, r.outbox_depth() + r.pending_acks(), now);
        self.observe(to, &step);
        step
    }

    fn tick(&mut self, replica: ReplicaId, now: Nanos) -> ReplicaStep<Self::Msg> {
        let mut step = ReplicaStep::empty();
        if self.flush.due(replica, now) {
            step = self.replicas[replica.0 as usize].flush();
        }
        if self.outbox.due(replica, now) {
            let pace = self.replicas[replica.0 as usize].pace_outbox();
            step.outbound.extend(pace.outbound);
            step.settled.extend(pace.settled);
        }
        self.arm_timers(replica, now);
        self.observe(replica, &step);
        step
    }

    fn next_deadline(&self, replica: ReplicaId) -> Option<Nanos> {
        match (self.flush.next(replica), self.outbox.next(replica)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn broadcast_targets(&self, sender: ReplicaId) -> Vec<ReplicaId> {
        let shard = self.layout.shard_of_replica(sender).expect("sender in layout");
        self.groups[shard.0 as usize].members().to_vec()
    }

    fn catch_up(
        &mut self,
        replica: ReplicaId,
        donors: &[ReplicaId],
    ) -> Option<(usize, ReplicaStep<Self::Msg>)> {
        let shard = self.layout.shard_of_replica(replica).expect("replica in layout");
        let group = &self.groups[shard.0 as usize];
        let (bytes, step) = run_catch_up(&mut self.replicas, group, replica, donors)?;
        self.observe(replica, &step);
        Some((bytes, step))
    }

    fn has_catch_up(&self) -> bool {
        true
    }

    fn deliver_cost(&self, msg: &Self::Msg, cpu: &CpuModel) -> DeliverCost {
        // Signature verification is the offloadable share (the runtime's
        // verify pool pre-verifies it on worker threads); hashing,
        // signing replies, and bookkeeping stay on the event loop.
        let size = msg.encoded_len();
        match msg {
            // Receiving a PREPARE: hash the batch and sign one ACK (the
            // paper's one-signature-per-batch amortization, §VI-A);
            // attached dependency certificates verify off-loop.
            Astro2Msg::Brb(SignedMsg::Prepare { payload, .. }) => {
                let dep_sigs: usize = payload
                    .entries
                    .iter()
                    .flat_map(|e| e.deps.iter())
                    .map(|cert| cert.proofs.len())
                    .sum();
                DeliverCost {
                    inline: cpu.hash(size) + cpu.sign_ns,
                    verify: cpu.batch_verify(dep_sigs),
                }
            }
            // Receiving an ACK: verify one signature.
            Astro2Msg::Brb(SignedMsg::Ack { .. }) => {
                DeliverCost { inline: 0, verify: cpu.verify_ns }
            }
            // Receiving a COMMIT: verify the quorum of ACK signatures and
            // any dependency-certificate signatures — as one Schnorr batch
            // verification (shared-doubling multi-scalar mult; see
            // `astro_crypto::schnorr::batch_verify`).
            Astro2Msg::Brb(SignedMsg::Commit { payload, proof, .. }) => {
                let dep_sigs: usize = payload
                    .entries
                    .iter()
                    .flat_map(|e| e.deps.iter())
                    .map(|cert| cert.proofs.len())
                    .sum();
                DeliverCost {
                    inline: cpu.hash(size),
                    verify: cpu.batch_verify(proof.len() + dep_sigs),
                }
            }
            // Receiving a CREDIT sub-batch: hash + one verification.
            Astro2Msg::Credit(bundle) => DeliverCost {
                inline: cpu.hash(size) + bundle.sig.encoded_len() as Nanos,
                verify: cpu.verify_ns,
            },
            // A CREDIT ack: point-to-point and consumed only by the donor,
            // so pairwise MAC authentication suffices — unlike CREDIT
            // bundles, whose signatures must be transferable because they
            // end up inside dependency certificates shown to third
            // parties. (The simulated replicas run `MacAuthenticator`, so
            // the ack tag really is a MAC.)
            Astro2Msg::CreditAck { .. } => DeliverCost::inline(cpu.hash(size) + cpu.mac_ns),
            // A replay request: bookkeeping only — the cost lands on the
            // retransmitted CREDITs it triggers.
            Astro2Msg::CreditRequest { .. } => DeliverCost::inline(cpu.mac_ns),
            // Catch-up traffic: hashing the served state, no signatures.
            Astro2Msg::Sync(_) => DeliverCost::inline(cpu.hash(size)),
        }
    }
}

// ---------------------------------------------------------------------------
// Consensus baseline
// ---------------------------------------------------------------------------

/// The PBFT baseline under simulation.
#[derive(Debug)]
pub struct PbftSystem {
    replicas: Vec<PbftReplica>,
    /// Fixed entry replica per client (clients pick a random replica and
    /// stick to it; reassigned by the harness if it crashes).
    entry_salt: u64,
    confirm_threshold: usize,
}

impl PbftSystem {
    /// Builds an `n`-replica deployment.
    pub fn new(n: usize, cfg: PbftConfig) -> Self {
        let group = Group::of_size(n).expect("n >= 4");
        let confirm_threshold = group.small_quorum();
        PbftSystem {
            replicas: (0..n as u32)
                .map(|i| PbftReplica::new(ReplicaId(i), group.clone(), cfg.clone()))
                .collect(),
            entry_salt: 0x9e3779b97f4a7c15,
            confirm_threshold,
        }
    }

    /// Access to a replica (assertions in tests).
    pub fn replica(&self, i: usize) -> &PbftReplica {
        &self.replicas[i]
    }

    /// The current view at replica `i` (robustness telemetry).
    pub fn view_of(&self, i: usize) -> u64 {
        self.replicas[i].view()
    }
}

impl SimSystem for PbftSystem {
    type Msg = PbftMsg;

    fn n(&self) -> usize {
        self.replicas.len()
    }

    fn entry_replica(&self, client: ClientId) -> ReplicaId {
        // Deterministic pseudo-random assignment.
        let h = client.0.wrapping_mul(self.entry_salt) >> 33;
        ReplicaId((h % self.replicas.len() as u64) as u32)
    }

    fn confirm_rule(&self) -> ConfirmRule {
        ConfirmRule::ReplicaCount(self.confirm_threshold)
    }

    fn submit(
        &mut self,
        replica: ReplicaId,
        payment: Payment,
        now: Nanos,
    ) -> ReplicaStep<Self::Msg> {
        let step = self.replicas[replica.0 as usize].submit(payment, now);
        ReplicaStep { outbound: step.outbound, settled: step.settled }
    }

    fn deliver(
        &mut self,
        to: ReplicaId,
        from: ReplicaId,
        msg: Self::Msg,
        now: Nanos,
    ) -> ReplicaStep<Self::Msg> {
        let step = self.replicas[to.0 as usize].handle(from, msg, now);
        ReplicaStep { outbound: step.outbound, settled: step.settled }
    }

    fn tick(&mut self, replica: ReplicaId, now: Nanos) -> ReplicaStep<Self::Msg> {
        let step = self.replicas[replica.0 as usize].on_tick(now);
        ReplicaStep { outbound: step.outbound, settled: step.settled }
    }

    fn next_deadline(&self, replica: ReplicaId) -> Option<Nanos> {
        self.replicas[replica.0 as usize].next_deadline()
    }

    fn broadcast_targets(&self, _sender: ReplicaId) -> Vec<ReplicaId> {
        (0..self.replicas.len() as u32).map(ReplicaId).collect()
    }

    fn deliver_cost(&self, msg: &Self::Msg, cpu: &CpuModel) -> DeliverCost {
        // BFT-SMaRt authenticates with MAC vectors, not signatures:
        // everything is event-loop work.
        let size = msg.encoded_len();
        DeliverCost::inline(match msg {
            // Request reception: MAC check plus request bookkeeping.
            PbftMsg::Forward(_) => cpu.mac_ns + cpu.consensus_request_ns / 4,
            PbftMsg::PrePrepare { .. } => cpu.mac_ns + cpu.hash(size),
            PbftMsg::Prepare { .. } | PbftMsg::Commit { .. } => cpu.mac_ns,
            PbftMsg::ViewChange { .. } | PbftMsg::NewView { .. } => cpu.mac_ns + cpu.hash(size),
        })
    }

    fn send_cost(&self, msg: &Self::Msg, cpu: &CpuModel) -> Nanos {
        // The leader serializes the batch and computes the per-recipient
        // MAC vector for every copy of the PRE-PREPARE; this per-request ×
        // per-recipient cost is the documented BFT-SMaRt leader bottleneck
        // ("Can 100 Machines Agree?", paper ref [40]).
        match msg {
            PbftMsg::PrePrepare { batch, .. } => {
                cpu.mac_ns + batch.payments.len() as Nanos * cpu.consensus_request_ns
            }
            _ => cpu.mac_ns,
        }
    }

    fn wire_size(&self, msg: &Self::Msg) -> usize {
        // BFT-SMaRt orders full client requests (~100 B each including
        // client authentication, §VI-B) and authenticates replica messages
        // with one MAC per recipient (a MAC vector), so control-message
        // size grows with N.
        const REQUEST_AUTH_BYTES: usize = 68; // 100 B total per payment
        let mac_vector = 16 * self.replicas.len();
        let payments = match msg {
            PbftMsg::Forward(_) => 1,
            PbftMsg::PrePrepare { batch, .. } => batch.payments.len(),
            PbftMsg::ViewChange { suffix, .. } => {
                suffix.iter().map(|(_, b)| b.payments.len()).sum()
            }
            PbftMsg::NewView { proposals, .. } => {
                proposals.iter().map(|(_, b)| b.payments.len()).sum()
            }
            PbftMsg::Prepare { .. } | PbftMsg::Commit { .. } => 0,
        };
        msg.encoded_len() + payments * REQUEST_AUTH_BYTES + mac_vector
    }
}

/// Re-exported so harness users can name envelope types.
pub type SysEnvelope<M> = Envelope<M>;
