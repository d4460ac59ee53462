//! Adapters presenting Astro I, Astro II, and the consensus baseline to the
//! simulator through one trait, [`SimSystem`].
//!
//! Both Astro protocols run under one adapter, [`AstroSystem`], around a
//! replica that implements [`astro_core::Replica`]; what a protocol adds
//! on top of that trait — building a replica, pricing its messages,
//! recognising its PREPAREs — is [`SimReplica`]. [`PbftSystem`] adapts
//! the consensus baseline.
//!
//! Each adapter maps simulator events to protocol calls and prices the
//! CPU work of each message kind (signatures, MACs, hashing) for the
//! [`CpuModel`] — the protocol logic itself runs with simulation-grade
//! authenticators, so the *costs* come from the model, not wall-clock
//! crypto.

use crate::cpumodel::{CpuModel, DeliverCost};
use crate::netmodel::Nanos;
use astro_brb::bracha::BrachaMsg;
use astro_brb::signed::SignedMsg;
use astro_brb::InstanceId;
use astro_consensus::pbft::{PbftConfig, PbftMsg, PbftReplica};
use astro_core::astro1::{Astro1Config, Astro1Msg, AstroOneReplica};
use astro_core::astro2::{Astro2Config, Astro2Msg, AstroTwoReplica};
use astro_core::{Replica, ReplicaStep, SYNC_FALLBACK_ROUNDS};
use astro_types::wire::Wire;
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

    /// `replica` rejoins the cluster: it restarted, or a severed link to
    /// it healed. The broadcast traffic it missed meanwhile is lost, so a
    /// system with catch-up starts it here; its requests and the donors'
    /// replies then travel as ordinary messages. Default: nothing to
    /// fetch.
    fn rejoin(&mut self, replica: ReplicaId, now: Nanos) -> ReplicaStep<Self::Msg> {
        let _ = (replica, now);
        ReplicaStep::empty()
    }
}

/// Always-on invariants a chaos schedule must never violate, tracked by
/// [`AstroSystem`] when enabled: a replica re-broadcasting an
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
/// [`AstroSystem::enable_chaos_audit`].
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

// ---------------------------------------------------------------------------
// Astro I and Astro II
// ---------------------------------------------------------------------------

/// What the simulator needs of an Astro protocol beyond [`Replica`]: how
/// to build a replica, what its messages cost to receive, and which of
/// its messages opens a broadcast instance.
pub trait SimReplica: Replica {
    /// Builds replica `id` of `layout`.
    fn build(id: ReplicaId, layout: &ShardLayout, cfg: &Self::Config) -> Self;

    /// The receiving replica's CPU cost of `msg`; see
    /// [`SimSystem::deliver_cost`].
    fn deliver_cost(msg: &Self::Msg, cpu: &CpuModel) -> DeliverCost;

    /// The instance `msg` opens, if it is a PREPARE (the chaos audit's
    /// stream-tag check).
    fn own_prepare(msg: &Self::Msg) -> Option<InstanceId>;
}

/// Astro I: echo-based broadcast, MAC links, one shard.
impl SimReplica for AstroOneReplica {
    fn build(id: ReplicaId, layout: &ShardLayout, cfg: &Astro1Config) -> Self {
        AstroOneReplica::new(id, layout.clone(), cfg.clone())
    }

    fn deliver_cost(msg: &Astro1Msg, cpu: &CpuModel) -> DeliverCost {
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

    fn own_prepare(msg: &Astro1Msg) -> Option<InstanceId> {
        match msg {
            Astro1Msg::Brb(BrachaMsg::Prepare { id, .. }) => Some(*id),
            _ => None,
        }
    }
}

/// Astro II: signed broadcast, CREDIT certificates, optional sharding.
/// The replicas sign with [`MacAuthenticator`]; the cost model charges
/// real signature prices.
impl SimReplica for AstroTwoReplica<MacAuthenticator> {
    fn build(id: ReplicaId, layout: &ShardLayout, cfg: &Astro2Config) -> Self {
        let auth = MacAuthenticator::new(id, b"sim-astro2".to_vec());
        AstroTwoReplica::new(auth, layout.clone(), cfg.clone())
    }

    fn deliver_cost(msg: &Self::Msg, cpu: &CpuModel) -> DeliverCost {
        // Signature verification is the offloadable share (the runtime's
        // verify pool pre-verifies it on worker threads); hashing,
        // signing replies, and bookkeeping stay on the event loop.
        let size = msg.encoded_len();
        match msg {
            // Receiving a PREPARE: hash the batch and sign one ACK (the
            // paper's one-signature-per-batch amortization, §VI-A);
            // attached dependency certificates verify off-loop.
            Astro2Msg::Brb(SignedMsg::Prepare(body)) => {
                let dep_sigs: usize = body
                    .payload()
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
            Astro2Msg::Brb(SignedMsg::Commit { body, proof }) => {
                let dep_sigs: usize = body
                    .payload()
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

    fn own_prepare(msg: &Self::Msg) -> Option<InstanceId> {
        match msg {
            Astro2Msg::Brb(SignedMsg::Prepare(body)) => Some(body.id()),
            _ => None,
        }
    }
}

/// An Astro deployment under simulation, either protocol. Each replica
/// has one flush timer, armed while it [needs a
/// tick](Replica::needs_tick) — the threaded runtime's discipline, so
/// batches, CREDIT acks and retransmissions, payload pulls and catch-up
/// retries all move on the clock they move on in a live cluster.
#[derive(Debug)]
pub struct AstroSystem<R> {
    replicas: Vec<R>,
    layout: ShardLayout,
    batch_delay: Nanos,
    /// Each replica's armed flush deadline.
    deadlines: Vec<Option<Nanos>>,
    audit: Option<ChaosAudit>,
}

/// Astro I under simulation.
pub type Astro1System = AstroSystem<AstroOneReplica>;

/// Astro II under simulation.
pub type Astro2System = AstroSystem<AstroTwoReplica<MacAuthenticator>>;

impl<R: SimReplica> AstroSystem<R> {
    /// Builds a deployment of `shards × per_shard` replicas that flush
    /// `batch_delay` after work arrives. Astro I is unsharded:
    /// `shards = 1`.
    pub fn new(shards: usize, per_shard: usize, cfg: R::Config, batch_delay: Nanos) -> Self {
        let layout = ShardLayout::uniform(shards, per_shard).expect("valid layout");
        let n = shards * per_shard;
        AstroSystem {
            replicas: (0..n as u32).map(|i| R::build(ReplicaId(i), &layout, &cfg)).collect(),
            layout,
            batch_delay,
            deadlines: vec![None; n],
            audit: None,
        }
    }

    /// Access to a replica (assertions in tests).
    pub fn replica(&self, i: usize) -> &R {
        &self.replicas[i]
    }

    /// The shard layout.
    pub fn layout(&self) -> &ShardLayout {
        &self.layout
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

    /// Keeps the flush timer armed while the replica needs a tick (an
    /// armed deadline stays put) and audits the step.
    fn stepped(
        &mut self,
        replica: ReplicaId,
        now: Nanos,
        step: ReplicaStep<R::Msg>,
    ) -> ReplicaStep<R::Msg> {
        let i = replica.0 as usize;
        let armed = self.deadlines[i];
        self.deadlines[i] =
            self.replicas[i].needs_tick().then(|| armed.unwrap_or(now + self.batch_delay));
        self.observe(replica, &step);
        step
    }

    fn observe(&mut self, replica: ReplicaId, step: &ReplicaStep<R::Msg>) {
        let Some(audit) = &mut self.audit else { return };
        audit.observe_settled(replica, &step.settled);
        for id in step.outbound.iter().filter_map(|env| R::own_prepare(&env.msg)) {
            if id.source == u64::from(replica.0) {
                audit.observe_prepare(id);
            }
        }
    }
}

impl<R: SimReplica> SimSystem for AstroSystem<R> {
    type Msg = R::Msg;

    fn n(&self) -> usize {
        self.replicas.len()
    }

    fn entry_replica(&self, client: ClientId) -> ReplicaId {
        self.layout.representative_of(client)
    }

    fn confirm_rule(&self) -> ConfirmRule {
        ConfirmRule::AtEntryReplica
    }

    fn submit(&mut self, replica: ReplicaId, payment: Payment, now: Nanos) -> ReplicaStep<R::Msg> {
        let step = self.replicas[replica.0 as usize]
            .submit(payment)
            .unwrap_or_else(|_| ReplicaStep::empty());
        self.stepped(replica, now, step)
    }

    fn deliver(
        &mut self,
        to: ReplicaId,
        from: ReplicaId,
        msg: R::Msg,
        now: Nanos,
    ) -> ReplicaStep<R::Msg> {
        let step = self.replicas[to.0 as usize].handle(from, msg);
        self.stepped(to, now, step)
    }

    fn tick(&mut self, replica: ReplicaId, now: Nanos) -> ReplicaStep<R::Msg> {
        if self.deadlines[replica.0 as usize].take_if(|d| now >= *d).is_none() {
            return ReplicaStep::empty();
        }
        let step = self.replicas[replica.0 as usize].flush();
        self.stepped(replica, now, step)
    }

    fn next_deadline(&self, replica: ReplicaId) -> Option<Nanos> {
        self.deadlines[replica.0 as usize]
    }

    fn broadcast_targets(&self, sender: ReplicaId) -> Vec<ReplicaId> {
        self.replicas[sender.0 as usize].group().members().to_vec()
    }

    fn deliver_cost(&self, msg: &R::Msg, cpu: &CpuModel) -> DeliverCost {
        R::deliver_cost(msg, cpu)
    }

    /// Starts the catch-up the runtime's `restart_replica` starts for a
    /// durable replica: the simulated restart keeps state, as a durable
    /// one does, so the replica may fall back to it after
    /// [`SYNC_FALLBACK_ROUNDS`] unanswered requests. A replica already
    /// catching up keeps its session and the traffic parked in it. The
    /// armed flush timer sends the request.
    fn rejoin(&mut self, replica: ReplicaId, now: Nanos) -> ReplicaStep<R::Msg> {
        let r = &mut self.replicas[replica.0 as usize];
        if !r.is_syncing() {
            r.begin_catchup(Some(SYNC_FALLBACK_ROUNDS));
        }
        self.stepped(replica, now, ReplicaStep::empty())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_with_system, SimConfig};
    use crate::workload::UniformWorkload;
    use astro_types::Amount;

    const BUDGET: usize = 24;

    /// Settles a few payments and runs on until nothing is in flight: no
    /// replica needs a tick then, so no flush timer stays armed.
    fn quiesce<R: SimReplica>(system: AstroSystem<R>) -> AstroSystem<R> {
        let cfg = SimConfig {
            duration: 3_000_000_000,
            warmup: 0,
            submit_budget: Some(BUDGET),
            ..SimConfig::default()
        };
        let (report, system) = run_with_system(system, UniformWorkload::new(4, 10), cfg);
        assert_eq!(report.confirmed, BUDGET);
        for r in 0..system.n() as u32 {
            assert_eq!(system.next_deadline(ReplicaId(r)), None, "replica {r}: timer left armed");
        }
        system
    }

    #[test]
    fn flush_timers_disarm_at_quiescence() {
        let genesis = Amount(1_000_000);
        quiesce(Astro1System::new(
            1,
            4,
            Astro1Config { batch_size: 4, initial_balance: genesis },
            5_000_000,
        ));
        let astro2 = quiesce(Astro2System::new(
            1,
            4,
            Astro2Config { batch_size: 4, initial_balance: genesis, ..Astro2Config::default() },
            5_000_000,
        ));
        for i in 0..4 {
            assert_eq!(astro2.replica(i).outbox_depth(), 0, "replica {i}: CREDIT left unacked");
        }
    }
}
