//! The Astro II replica: payments over signature-based BRB with the
//! CREDIT / dependency-certificate mechanism and asynchronous sharding
//! (paper §IV-A, §V, Listings 6–10).
//!
//! Astro II's broadcast lacks totality, so beneficiaries are **not**
//! credited directly at settlement. Instead, each replica that settles a
//! payment unicasts a signed CREDIT to the beneficiary's representative;
//! `f+1` matching CREDITs form a *dependency certificate* — unequivocal,
//! transferable proof of incoming funds — which the representative attaches
//! to the beneficiary's next outgoing payment (Listing 7). Settlement then
//! materializes the certificates into balance (Listing 9). Because the
//! certificate is verifiable against the settling shard's keys, the exact
//! same single message step implements cross-shard payments (§V): no 2PC,
//! no coordination on the critical path.
//!
//! Certificates a representative has formed and not yet attached live in
//! one place, `HeldCerts`: each held once and shared by the
//! beneficiaries of its sub-batch, with hash indexes so that an incoming
//! CREDIT costs the same however many certificates have piled up — the
//! paper's evaluation condition is funded clients, whose certificates are
//! never spent.

use crate::batch::{
    credit_ack_context, credit_context, verify_certificate, CreditBundle, DepBatch, DepPayment,
    DependencyCertificate,
};
use crate::journal::{Astro2Local, JournalSlot, WalRecord};
use crate::ledger::{Ledger, SettleOutcome};
use crate::pending::PendingQueue;
use crate::replica::{self, Replica, Shell};
use crate::sync::{SyncError, SyncMsg};
use crate::{ReplicaStep, SubmitError};
use astro_brb::signed::{SignedBrb, SignedMsg};
use astro_brb::{BrbConfig, DeliveryOrder, Envelope, InstanceId};
use astro_types::wire::{decode_exact, with_encoding, Wire, WireError};
use astro_types::{
    Amount, Authenticator, ClientId, Group, Payment, PaymentId, ReplicaId, SeqNo, ShardId,
    ShardLayout, SigCheck,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// How beneficiaries receive funds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CreditMode {
    /// All credits flow through CREDIT messages and dependency
    /// certificates (Listings 7–10). Safe against the partial-payments
    /// attack even for intra-shard payments; the paper's full mechanism.
    #[default]
    Certificates,
    /// Intra-shard beneficiaries are credited directly at settlement (the
    /// lightweight path the paper's Table I discussion mentions);
    /// insufficient funds queue as in Astro I. Cross-shard payments still
    /// use certificates. Consistent for correct broadcasters; exposed for
    /// the ablation benchmark.
    DirectIntraShard,
}

/// When a representative attaches held certificates to an outgoing
/// payment (Listing 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DepPolicy {
    /// Attach only when the spender's settled balance (minus amounts
    /// already committed to in-flight payments) cannot cover the payment.
    /// Avoids certificate-verification work entirely while clients are
    /// well funded — the situation in all of the paper's benchmarks
    /// (§VI-B: "clients have enough balance").
    #[default]
    WhenNeeded,
    /// Attach all accumulated certificates to every payment (the literal
    /// Listing 7). Kept for the ablation benchmark.
    Always,
}

/// Configuration of an Astro II replica.
#[derive(Debug, Clone)]
pub struct Astro2Config {
    /// Payments per broadcast batch (flushed automatically when full).
    pub batch_size: usize,
    /// Genesis balance of every client (held in the client's own shard).
    pub initial_balance: Amount,
    /// Credit propagation mode.
    pub credit_mode: CreditMode,
    /// Certificate attachment policy.
    pub dep_policy: DepPolicy,
}

impl Default for Astro2Config {
    fn default() -> Self {
        Astro2Config {
            batch_size: 256,
            initial_balance: Amount(1_000_000),
            credit_mode: CreditMode::Certificates,
            dep_policy: DepPolicy::WhenNeeded,
        }
    }
}

/// Wire messages exchanged between Astro II replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Astro2Msg<S> {
    /// Broadcast-layer traffic within a shard.
    Brb(SignedMsg<DepBatch<S>, S>),
    /// A CREDIT sub-batch, unicast to a beneficiary representative
    /// (possibly across shards).
    Credit(CreditBundle<S>),
    /// Catch-up traffic within a shard.
    Sync(SyncMsg),
    /// The destination representative's signed acknowledgment that the
    /// CREDIT sub-batches with these [`credit_context`] digests have been
    /// certified (or were already certified — acks are idempotent). The
    /// settling replica discharges the matching retry-outbox entries.
    /// Acks accumulate per destination and ride the representative's
    /// flush tick as one message, so ack traffic scales with flush
    /// intervals rather than with sub-batch count.
    CreditAck {
        /// The acked sub-batch digests.
        digests: Vec<[u8; 32]>,
        /// The representative's signature over [`credit_ack_context`].
        sig: S,
    },
    /// A restarted (or caught-up) representative asks a settling replica
    /// to replay CREDITs its certificate store may be missing: the donor
    /// immediately retransmits its unacked outbox entries for the
    /// requester and regenerates signed singleton sub-batches for every
    /// settled-but-unmaterialized payment crediting a client the
    /// requester represents. Re-delivery is replay-protected by
    /// `usedDeps` at materialization, so over-replay is harmless.
    CreditRequest {
        /// The requester's settled-payment watermark (donors behind it
        /// skip regeneration — their view of settled history is stale).
        since: u64,
    },
}

impl<S: Wire> Wire for Astro2Msg<S> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Astro2Msg::Brb(m) => {
                buf.push(0);
                m.encode(buf);
            }
            Astro2Msg::Credit(c) => {
                buf.push(1);
                c.encode(buf);
            }
            Astro2Msg::Sync(m) => {
                buf.push(2);
                m.encode(buf);
            }
            Astro2Msg::CreditAck { digests, sig } => {
                buf.push(3);
                digests.encode(buf);
                sig.encode(buf);
            }
            Astro2Msg::CreditRequest { since } => {
                buf.push(4);
                since.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(Astro2Msg::Brb(Wire::decode(buf)?)),
            1 => Ok(Astro2Msg::Credit(Wire::decode(buf)?)),
            2 => Ok(Astro2Msg::Sync(Wire::decode(buf)?)),
            3 => Ok(Astro2Msg::CreditAck { digests: Wire::decode(buf)?, sig: Wire::decode(buf)? }),
            4 => Ok(Astro2Msg::CreditRequest { since: Wire::decode(buf)? }),
            _ => Err(WireError::InvalidValue("astro2 message tag")),
        }
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            Astro2Msg::Brb(m) => m.encoded_len(),
            Astro2Msg::Credit(c) => c.encoded_len(),
            Astro2Msg::Sync(m) => m.encoded_len(),
            Astro2Msg::CreditAck { digests, sig } => digests.encoded_len() + sig.encoded_len(),
            Astro2Msg::CreditRequest { since } => since.encoded_len(),
        }
    }
}

/// CREDIT proofs gathered for one sub-batch (Listing 10's `partialDeps`).
#[derive(Debug)]
struct PartialBundle<S> {
    bundle: Vec<Payment>,
    proofs: HashMap<ReplicaId, S>,
    certified: bool,
    /// Peer CREDITs handed to a verify pool ahead of `on_credit`
    /// (`claim_credit_check`); no state transition reads it.
    claimed: usize,
}

impl<S> PartialBundle<S> {
    fn new(bundle: Vec<Payment>) -> Self {
        PartialBundle { bundle, proofs: HashMap::new(), certified: false, claimed: 0 }
    }
}

/// Flush ticks before the first retransmission of an unacked CREDIT.
/// Lazy on purpose: in the healthy path the destination's ack beats the
/// timer (its round trip is link latency plus the destination's queue,
/// both well under 16 flush intervals even at saturation), so the timer
/// only fires when the CREDIT or its ack was actually lost. An eager
/// timer is not harmless — every spurious retransmit charges the
/// destination another signature verification, deepening the very queue
/// that is delaying its acks.
pub const OUTBOX_BASE_TICKS: u32 = 64;
/// Retransmission backoff cap, in flush ticks. A representative
/// returning from a long outage does not wait for this timer — its
/// catch-up `CreditRequest` makes donors replay immediately.
const OUTBOX_MAX_TICKS: u32 = 256;

/// One unacked CREDIT sub-batch in the retry outbox, keyed by its
/// [`credit_context`] digest. Retained until the destination
/// representative returns a [`Astro2Msg::CreditAck`] for the digest;
/// retransmitted on the flush timer with capped exponential backoff.
#[derive(Debug)]
struct OutboxEntry<S> {
    /// The beneficiary representative the bundle is addressed to.
    dest: ReplicaId,
    /// The settled payments of the sub-batch.
    bundle: Vec<Payment>,
    /// This replica's signature over the bundle's [`credit_context`].
    sig: S,
    /// Flush ticks until the next retransmission.
    ticks: u32,
    /// Current backoff (doubles per retransmission, capped).
    backoff: u32,
}

/// Certificates a replica keeps verified per process lifetime.
const CERT_CACHE_CAP: usize = 4096;

/// A bounded cache of *verified* dependency-certificate digests.
///
/// A certificate referenced by many dependent payments (a hub client's
/// incoming funds, a cert re-attached after a queue/cascade) used to be
/// re-verified — `f+1` signature checks — on every settle attempt. The
/// cache keys on the digest of the certificate's full wire encoding
/// (bundle *and* proofs), so any bit of a forged variant misses; only
/// certificates whose signatures actually verified are ever admitted.
/// FIFO eviction bounds memory.
#[derive(Debug)]
pub struct CertCache {
    verified: HashSet<[u8; 32]>,
    order: std::collections::VecDeque<[u8; 32]>,
    cap: usize,
    hits: u64,
    misses: u64,
}

impl CertCache {
    /// Creates a cache holding at most `cap` digests.
    pub fn new(cap: usize) -> Self {
        CertCache {
            verified: HashSet::new(),
            order: std::collections::VecDeque::new(),
            cap,
            hits: 0,
            misses: 0,
        }
    }

    /// Lookups that skipped re-verification.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that fell through to full signature verification.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// True if `digest` names a certificate that already verified.
    pub fn contains(&self, digest: &[u8; 32]) -> bool {
        self.verified.contains(digest)
    }

    /// Records a certificate that passed full signature verification.
    pub fn admit(&mut self, digest: [u8; 32]) {
        if self.verified.insert(digest) {
            self.order.push_back(digest);
            if self.order.len() > self.cap {
                if let Some(evicted) = self.order.pop_front() {
                    self.verified.remove(&evicted);
                }
            }
        }
    }

    /// Number of digests currently cached.
    pub fn len(&self) -> usize {
        self.verified.len()
    }

    /// True when nothing has been admitted.
    pub fn is_empty(&self) -> bool {
        self.verified.is_empty()
    }
}

/// Content digest of a certificate (bundle and proofs).
fn cert_digest<S: Wire>(cert: &DependencyCertificate<S>) -> [u8; 32] {
    with_encoding(cert, |bytes| {
        astro_crypto::sha256::sha256_concat(&[b"astro-cert-digest-v1", bytes])
    })
}

/// What a representative holds for one beneficiary.
#[derive(Debug)]
struct Held<S> {
    /// The certificates, oldest first: the order [`HeldCerts::take`]
    /// attaches them in and `export_local` writes them in.
    certs: Vec<Arc<DependencyCertificate<S>>>,
    /// [`credit_context`] of every held bundle → its position in `certs`.
    bundles: HashMap<[u8; 32], usize>,
    /// Every payment crediting this client that a held certificate
    /// vouches for.
    vouched: HashSet<Payment>,
}

/// The representative's held-certificate store (Listing 7's `deps`):
/// certificates awaiting their beneficiaries' next outgoing payments, and
/// the only code that touches them.
///
/// A certificate over a sub-batch credits every beneficiary in it, so it is
/// held once behind an `Arc` that all of them share — at most one
/// certificate per bundle, whichever `f+1` proofs it was first formed
/// with. Per beneficiary the store keeps the certificates in arrival order
/// plus two hash indexes that make the CREDIT path cost the same after a
/// million certificates as after one:
///
/// - the bundle digests ([`credit_context`]) held — "is a certificate over
///   this bundle already here", the dedup every insertion goes through
///   (live certification, `Cert` replay, snapshot restore alike);
/// - the *whole* [`Payment`]s vouched for — "is this credit already
///   covered". Whole payments, not ids: a CREDIT naming a held payment's
///   `(spender, seq)` with another amount is a different claim, must still
///   be checked on its own, and was never equal under the list scan this
///   index replaces.
///
/// Nothing here is journaled in its own right: restore and recovery
/// rebuild the store from the snapshot's certificate section,
/// `WalRecord::Cert` replay re-inserts and `WalRecord::CertsTaken` replay
/// removes by content digest.
#[derive(Debug)]
struct HeldCerts<S> {
    clients: HashMap<ClientId, Held<S>>,
}

impl<S> Default for HeldCerts<S> {
    fn default() -> Self {
        HeldCerts { clients: HashMap::new() }
    }
}

impl<S> HeldCerts<S> {
    /// True if a certificate held for `p`'s beneficiary vouches for
    /// exactly `p`.
    fn vouches_for(&self, p: &Payment) -> bool {
        self.clients.get(&p.beneficiary).is_some_and(|held| held.vouched.contains(p))
    }

    /// The certificates held for `client`, oldest first.
    fn certs(&self, client: ClientId) -> &[Arc<DependencyCertificate<S>>] {
        self.clients.get(&client).map_or(&[], |held| &held.certs)
    }

    /// The payments crediting `client` that held certificates vouch for,
    /// each once, in no particular order.
    fn vouched(&self, client: ClientId) -> impl Iterator<Item = &Payment> {
        self.clients.get(&client).into_iter().flat_map(|held| &held.vouched)
    }

    /// Every beneficiary with its held certificates, in no particular
    /// order.
    fn iter(&self) -> impl Iterator<Item = (ClientId, &[Arc<DependencyCertificate<S>>])> {
        self.clients.iter().map(|(client, held)| (*client, held.certs.as_slice()))
    }

    /// Holds `cert`, whose bundle has digest `key`, for each of `clients`
    /// that holds no certificate over that bundle yet. If another
    /// beneficiary of the bundle already holds one, that allocation is
    /// shared and `cert` (the same bundle, perhaps under other proofs) is
    /// dropped.
    fn insert(
        &mut self,
        key: [u8; 32],
        cert: Arc<DependencyCertificate<S>>,
        clients: impl IntoIterator<Item = ClientId>,
    ) {
        let held_elsewhere = cert.bundle.iter().find_map(|p| {
            let held = self.clients.get(&p.beneficiary)?;
            held.bundles.get(&key).map(|at| Arc::clone(&held.certs[*at]))
        });
        let cert = held_elsewhere.unwrap_or(cert);
        for client in clients {
            let held = self.clients.entry(client).or_insert_with(|| Held {
                certs: Vec::new(),
                bundles: HashMap::new(),
                vouched: HashSet::new(),
            });
            if let std::collections::hash_map::Entry::Vacant(slot) = held.bundles.entry(key) {
                slot.insert(held.certs.len());
                held.vouched.extend(cert.credits_for(client));
                held.certs.push(Arc::clone(&cert));
            }
        }
    }

    /// Removes and returns everything held for `client`, oldest first, as
    /// the owned certificates an outgoing payment carries (the last holder
    /// of a shared certificate gets the allocation, earlier ones a copy).
    fn take(&mut self, client: ClientId) -> Vec<DependencyCertificate<S>>
    where
        S: Clone,
    {
        let Some(held) = self.clients.remove(&client) else { return Vec::new() };
        held.certs.into_iter().map(Arc::unwrap_or_clone).collect()
    }

    /// Drops the certificates of `client` whose [`cert_digest`] is in
    /// `taken` (absent ones are no-ops) and re-indexes what is left.
    fn remove(&mut self, client: ClientId, taken: &[[u8; 32]])
    where
        S: Wire,
    {
        let Some(held) = self.clients.remove(&client) else { return };
        for cert in held.certs {
            if !taken.contains(&cert_digest(&cert)) {
                self.insert(credit_context(&cert.bundle), cert, [client]);
            }
        }
    }
}

/// One Astro II replica.
#[derive(Debug)]
pub struct AstroTwoReplica<A: Authenticator> {
    shell: Shell<Astro2Msg<A::Sig>>,
    layout: ShardLayout,
    my_shard: ShardId,
    /// Group per shard id (certificate verification needs every shard).
    groups: Vec<Group>,
    auth: A,
    brb: SignedBrb<DepBatch<A::Sig>, A>,
    /// Future-sequence payments with their attached certificates.
    pending: PendingQueue<Vec<DependencyCertificate<A::Sig>>>,
    /// Credits already materialized (replay protection, Listing 9's
    /// `usedDeps` — payment ids are globally unique so one set suffices).
    used_deps: HashSet<PaymentId>,
    /// Digests of certificates already verified (one verification per
    /// certificate per replica, not per settle attempt).
    cert_cache: CertCache,
    /// Clients whose xlog is permanently stuck (a payment was dropped for
    /// insufficient funds in certificate mode — Listing 9's early return).
    stuck: HashSet<ClientId>,
    /// Representative state: certificates awaiting the client's next
    /// outgoing payment (Listing 7's `deps`).
    held: HeldCerts<A::Sig>,
    /// Representative state: proofs gathered per sub-batch digest.
    partial: HashMap<[u8; 32], PartialBundle<A::Sig>>,
    /// Settling-replica state: CREDIT sub-batches awaiting their
    /// destination representative's ack, keyed by [`credit_context`]
    /// digest (a `BTreeMap` for deterministic retransmission order).
    outbox: BTreeMap<[u8; 32], OutboxEntry<A::Sig>>,
    /// Representative state: sub-batch digests owed to each settling
    /// replica as acknowledgments, batched per destination and emitted
    /// as one signed [`Astro2Msg::CreditAck`] on the next flush tick
    /// (a `BTreeMap` for deterministic emission order).
    pending_acks: BTreeMap<ReplicaId, Vec<[u8; 32]>>,
    pub(crate) batch: Vec<DepPayment<A::Sig>>,
    batch_size: usize,
    mode: CreditMode,
    dep_policy: DepPolicy,
    /// Representative state: funds already promised to in-flight payments
    /// (submitted, not yet observed settled), per client.
    reserved: HashMap<ClientId, u64>,
    /// Representative state: the next sequence number each represented
    /// client may submit. Broadcast delivery is unordered, so if two
    /// conflicting payments at one seq both reached broadcast, replicas
    /// could settle different winners — the gate keeps each xlog's stream
    /// conflict-free at its single entry point. In-memory only: after a
    /// restart the ledger's `next_seq` is the correct floor.
    submitted_seq: HashMap<ClientId, SeqNo>,
    /// Certificate consumptions awaiting the flush that makes their
    /// carrying payments durable (see [`WalRecord::CertsTaken`]).
    pending_cert_takes: Vec<(ClientId, Vec<[u8; 32]>)>,
}

impl<A: Authenticator> AstroTwoReplica<A> {
    /// Creates replica `auth.me()` within `layout`.
    ///
    /// # Panics
    ///
    /// Panics if the replica is not a member of the layout, or a shard is
    /// smaller than 4 replicas.
    pub fn new(auth: A, layout: ShardLayout, cfg: Astro2Config) -> Self {
        let me = auth.me();
        let my_shard =
            layout.shard_of_replica(me).unwrap_or_else(|| panic!("replica {me} not in layout"));
        let groups: Vec<Group> =
            layout.shards().iter().map(|s| Group::from_spec(s).expect("shard too small")).collect();
        let brb = SignedBrb::new(
            auth.clone(),
            groups[my_shard.0 as usize].clone(),
            BrbConfig { order: DeliveryOrder::Unordered, bind_source: true },
        );
        AstroTwoReplica {
            shell: Shell::new(me, cfg.initial_balance),
            layout,
            my_shard,
            groups,
            auth,
            brb,
            pending: PendingQueue::new(),
            used_deps: HashSet::new(),
            cert_cache: CertCache::new(CERT_CACHE_CAP),
            stuck: HashSet::new(),
            held: HeldCerts::default(),
            partial: HashMap::new(),
            outbox: BTreeMap::new(),
            pending_acks: BTreeMap::new(),
            batch: Vec::new(),
            batch_size: cfg.batch_size.max(1),
            mode: cfg.credit_mode,
            dep_policy: cfg.dep_policy,
            reserved: HashMap::new(),
            submitted_seq: HashMap::new(),
            pending_cert_takes: Vec::new(),
        }
    }

    // `submit` / `handle` / `flush` stay callable without the trait in
    // scope: `benchmark/src/layers/protocol.rs` names them by path.

    /// [`Replica::submit`].
    ///
    /// # Errors
    ///
    /// As [`Replica::submit`].
    pub fn submit(
        &mut self,
        payment: Payment,
    ) -> Result<ReplicaStep<Astro2Msg<A::Sig>>, SubmitError> {
        Replica::submit(self, payment)
    }

    /// [`Replica::handle`].
    pub fn handle(
        &mut self,
        from: ReplicaId,
        msg: Astro2Msg<A::Sig>,
    ) -> ReplicaStep<Astro2Msg<A::Sig>> {
        Replica::handle(self, from, msg)
    }

    /// [`Replica::flush`].
    pub fn flush(&mut self) -> ReplicaStep<Astro2Msg<A::Sig>> {
        Replica::flush(self)
    }

    /// The shard this replica belongs to.
    pub fn shard(&self) -> ShardId {
        self.my_shard
    }

    /// One flush tick of the retry outbox: accumulated acks leave
    /// (batched per destination), then entries whose backoff expired are
    /// retransmitted and their backoff doubles (capped).
    fn tick_outbox(&mut self, outbound: &mut Vec<Envelope<Astro2Msg<A::Sig>>>) {
        self.flush_acks(outbound);
        let mut retransmits = 0u64;
        for entry in self.outbox.values_mut() {
            if entry.ticks > 0 {
                entry.ticks -= 1;
                continue;
            }
            entry.ticks = entry.backoff;
            entry.backoff = (entry.backoff * 2).min(OUTBOX_MAX_TICKS);
            retransmits += 1;
            outbound.push(Envelope {
                to: astro_brb::Dest::One(entry.dest),
                msg: Astro2Msg::Credit(CreditBundle {
                    bundle: entry.bundle.clone(),
                    sig: entry.sig.clone(),
                }),
            });
        }
        if let Some(obs) = &self.shell.obs {
            if retransmits > 0 {
                obs.credit_retransmits.add(retransmits);
                obs.flight.event("core.credit.retransmit", retransmits, self.outbox.len() as u64);
            }
            obs.outbox_depth.set(self.outbox.len() as u64);
        }
    }

    /// Queues a signed CREDIT sub-batch in the retry outbox and emits the
    /// initial transmission. The entry is retained (and journaled) until
    /// `dest` acknowledges the bundle digest.
    fn queue_credit(
        &mut self,
        dest: ReplicaId,
        bundle: Vec<Payment>,
        outbound: &mut Vec<Envelope<Astro2Msg<A::Sig>>>,
    ) {
        let key = credit_context(&bundle);
        let sig = self.auth.sign(&key);
        if !self.outbox.contains_key(&key) {
            self.shell.journal.rec(&WalRecord::CreditOut { dest, bundle: bundle.clone() });
            self.outbox.insert(
                key,
                OutboxEntry {
                    dest,
                    bundle: bundle.clone(),
                    sig: sig.clone(),
                    ticks: OUTBOX_BASE_TICKS,
                    backoff: OUTBOX_BASE_TICKS * 2,
                },
            );
        }
        outbound.push(Envelope {
            to: astro_brb::Dest::One(dest),
            msg: Astro2Msg::Credit(CreditBundle { bundle, sig }),
        });
    }

    /// Number of payments waiting in the unflushed batch.
    pub fn batched(&self) -> usize {
        self.batch.len()
    }

    /// Unacked CREDIT sub-batches in the retry outbox.
    pub fn outbox_depth(&self) -> usize {
        self.outbox.len()
    }

    /// Settling replicas owed a batched CREDIT acknowledgment; the
    /// accumulated acks leave on the next flush tick.
    pub fn pending_acks(&self) -> usize {
        self.pending_acks.len()
    }

    /// Handles a CREDIT acknowledgment at the settling replica: each
    /// digest the valid ack covers discharges its outbox entry, provided
    /// the entry was addressed to the sender.
    fn on_credit_ack(
        &mut self,
        from: ReplicaId,
        digests: Vec<[u8; 32]>,
        sig: A::Sig,
    ) -> ReplicaStep<Astro2Msg<A::Sig>> {
        let empty = ReplicaStep::empty();
        // One signature covers the whole batch of digests; verify it
        // before touching any entry — a forged or replayed ack would
        // silently lose the beneficiary's certificate material.
        if !self.auth.verify(from, &credit_ack_context(&digests), &sig) {
            return empty;
        }
        let mut discharged = 0u64;
        for digest in digests {
            // Only the representative the bundle was addressed to may
            // discharge it; unknown digests (already acked, or never
            // ours) are skipped — acks are idempotent.
            let Some(entry) = self.outbox.get(&digest) else { continue };
            if entry.dest != from {
                continue;
            }
            self.outbox.remove(&digest);
            self.shell.journal.rec(&WalRecord::CreditAcked { digest });
            discharged += 1;
        }
        if let Some(obs) = &self.shell.obs {
            if discharged > 0 {
                obs.credit_acks.add(discharged);
            }
            obs.outbox_depth.set(self.outbox.len() as u64);
        }
        empty
    }

    /// Handles a CREDIT replay request at a settling replica (donor):
    /// immediately retransmits every unacked outbox entry addressed to
    /// the requester (resetting its backoff), then regenerates signed
    /// singleton sub-batches for settled payments crediting the
    /// requester's clients that were never materialized — covering
    /// certificates the requester certified, acked, and then lost.
    fn on_credit_request(&mut self, from: ReplicaId, since: u64) -> ReplicaStep<Astro2Msg<A::Sig>> {
        let mut out = ReplicaStep::empty();
        if from == self.shell.me {
            return out;
        }
        let mut replays = 0u64;
        for entry in self.outbox.values_mut() {
            if entry.dest != from {
                continue;
            }
            entry.ticks = OUTBOX_BASE_TICKS;
            entry.backoff = OUTBOX_BASE_TICKS * 2;
            replays += 1;
            out.outbound.push(Envelope {
                to: astro_brb::Dest::One(from),
                msg: Astro2Msg::Credit(CreditBundle {
                    bundle: entry.bundle.clone(),
                    sig: entry.sig.clone(),
                }),
            });
        }
        // `since` is comparable only within a shard; a same-shard donor
        // behind the requester's watermark regenerates nothing (its
        // settled history is a stale prefix of what the requester
        // already has) — the outbox retransmissions above still count.
        let same_shard = self.layout.shard_of_replica(from) == Some(self.my_shard);
        if !(same_shard && (self.shell.ledger.total_settled() as u64) < since) {
            // Regenerate from settled history. Singleton bundles, so every
            // donor derives the identical digest independently and `f+1`
            // proofs accumulate under one key at the requester.
            let mut regenerated: Vec<Vec<Payment>> = Vec::new();
            for xlog in self.shell.ledger.xlogs() {
                for p in xlog.iter() {
                    if self.layout.representative_of(p.beneficiary) != from {
                        continue;
                    }
                    // Direct-credited payments carry no certificate debt.
                    if self.mode == CreditMode::DirectIntraShard
                        && self.layout.shard_of_client(p.beneficiary) == self.my_shard
                    {
                        continue;
                    }
                    // Already materialized in this shard ⇒ the credit's
                    // whole effect is in the shared settled state; the
                    // requester needs no certificate for it.
                    if self.used_deps.contains(&p.id()) {
                        continue;
                    }
                    regenerated.push(vec![p]);
                }
            }
            for bundle in regenerated {
                if self.outbox.contains_key(&credit_context(&bundle)) {
                    continue; // already queued (and just retransmitted above)
                }
                replays += 1;
                self.queue_credit(from, bundle, &mut out.outbound);
            }
        }
        if let Some(obs) = &self.shell.obs {
            if replays > 0 {
                obs.credit_replays.add(replays);
            }
            obs.flight.event("core.credit.replay", replays, self.outbox.len() as u64);
            obs.outbox_depth.set(self.outbox.len() as u64);
        }
        out
    }

    /// One settle attempt for a payment with its dependencies.
    fn attempt_settle(
        &mut self,
        p: &Payment,
        deps: &[DependencyCertificate<A::Sig>],
    ) -> SettleOutcome {
        let Self {
            shell: Shell { ledger, journal, .. },
            auth,
            layout,
            groups,
            used_deps,
            cert_cache,
            stuck,
            mode,
            my_shard,
            ..
        } = self;
        attempt_settle_inner(
            ledger, auth, layout, groups, used_deps, cert_cache, stuck, journal, *mode, *my_shard,
            p, deps,
        )
    }

    /// The shard whose replicas settled `bundle`, if `from`'s CREDIT over
    /// it is one this representative examines at all: a non-empty bundle
    /// settled by one shard, sent by a member of it, crediting at least
    /// one client this replica represents.
    fn settling_group(&self, from: ReplicaId, bundle: &[Payment]) -> Option<&Group> {
        let settling_shard = self.layout.shard_of_client(bundle.first()?.spender);
        if !bundle.iter().all(|p| self.layout.shard_of_client(p.spender) == settling_shard) {
            return None;
        }
        let group = &self.groups[settling_shard.0 as usize];
        let mine =
            bundle.iter().any(|p| self.layout.is_representative(self.shell.me, p.beneficiary));
        (group.contains(from) && mine).then_some(group)
    }

    /// The [`credit_context`] of `bundle` if a verify pool should check
    /// `from`'s CREDIT over it before `on_credit` does; the claim is
    /// counted in the sub-batch's [`PartialBundle`], created here if
    /// needed. A certificate needs `f+1` proofs, and a representative in
    /// the settling shard adds its own when it settles the same batch
    /// (signed with [`Authenticator::sign_for_self`], so already cached):
    /// at most `f` peer CREDITs are claimed per sub-batch there, `f+1`
    /// elsewhere. None is claimed for a bundle already certified or
    /// covered, or one `on_credit` drops unread. An unclaimed CREDIT the
    /// certificate still needs is verified inline by `on_credit`.
    fn claim_credit_check(&mut self, from: ReplicaId, bundle: &[Payment]) -> Option<[u8; 32]> {
        let group = self.settling_group(from, bundle)?;
        let peers_needed = group.small_quorum() - usize::from(group.contains(self.shell.me));
        if bundle.iter().all(|p| self.covered(p)) {
            return None;
        }
        let key = credit_context(bundle);
        let partial =
            self.partial.entry(key).or_insert_with(|| PartialBundle::new(bundle.to_vec()));
        if partial.certified || partial.claimed >= peers_needed {
            return None;
        }
        partial.claimed += 1;
        Some(key)
    }

    /// Handles an incoming CREDIT sub-batch at the beneficiary's
    /// representative (Listing 10).
    fn on_credit(
        &mut self,
        from: ReplicaId,
        cb: CreditBundle<A::Sig>,
    ) -> ReplicaStep<Astro2Msg<A::Sig>> {
        let empty = ReplicaStep::empty();
        let Some(group) = self.settling_group(from, &cb.bundle) else { return empty };
        let small_quorum = group.small_quorum();
        let key = credit_context(&cb.bundle);
        // A bundle already certified here, or whose every credit is
        // already covered — materialized (`usedDeps`) or vouched for by a
        // held certificate — adds nothing: ack unexamined, so the sender
        // stops retransmitting (it missed or lost the first ack). This
        // also drains replayed singletons that can never reach a fresh
        // quorum.
        let certified = self.partial.get(&key).is_some_and(|partial| partial.certified);
        if certified || cb.bundle.iter().all(|p| self.covered(p)) {
            self.note_ack(from, key);
            return empty;
        }
        if !self.auth.verify(from, &key, &cb.sig) {
            return empty;
        }
        let partial = self.partial.entry(key).or_insert_with(|| PartialBundle::new(cb.bundle));
        partial.proofs.insert(from, cb.sig);
        if partial.proofs.len() < small_quorum {
            return empty;
        }
        partial.certified = true;
        let mut proofs: Vec<(ReplicaId, A::Sig)> =
            partial.proofs.iter().map(|(r, s)| (*r, s.clone())).collect();
        // Canonical proof order, so the journaled bytes (and any re-export)
        // are independent of CREDIT arrival order.
        proofs.sort_unstable_by_key(|(r, _)| *r);
        let senders: Vec<ReplicaId> = proofs.iter().map(|(r, _)| *r).collect();
        let cert = DependencyCertificate { bundle: partial.bundle.clone(), proofs };
        self.shell.journal.rec(&WalRecord::Cert { bytes: cert.to_wire_bytes() });
        self.hold(key, cert);
        // The certificate is durable (journaled above; group commit makes
        // it disk-durable before outbound leaves a durable runtime): owe
        // every contributing settler an ack so their outboxes discharge
        // on our next flush tick.
        for sender in senders {
            self.note_ack(sender, key);
        }
        empty
    }

    /// True if crediting `p` again would add nothing: it is materialized
    /// (`usedDeps`) or a certificate held for its beneficiary vouches for
    /// it.
    fn covered(&self, p: &Payment) -> bool {
        self.used_deps.contains(&p.id()) || self.held.vouches_for(p)
    }

    /// Holds `cert` (bundle digest `key`) for every beneficiary of its
    /// bundle this replica represents. A certificate over a bundle
    /// already held — re-formed, perhaps from another proof subset, or
    /// replayed — is not held twice.
    fn hold(&mut self, key: [u8; 32], cert: DependencyCertificate<A::Sig>) {
        let mine: Vec<ClientId> = cert
            .bundle
            .iter()
            .map(|p| p.beneficiary)
            .filter(|b| self.layout.is_representative(self.shell.me, *b))
            .collect();
        self.held.insert(key, Arc::new(cert), mine);
    }

    /// Notes an acknowledgment owed to settling replica `to` for the
    /// CREDIT sub-batch digest `key`. Acks accumulate per destination
    /// and leave as one signed message on the next flush tick — ack
    /// traffic scales with flush intervals, not with sub-batch count.
    /// Self-addressed credits discharge their outbox entry directly.
    fn note_ack(&mut self, to: ReplicaId, key: [u8; 32]) {
        if to == self.shell.me {
            // Signing an ack to ourselves is wasted work.
            if self.outbox.remove(&key).is_some() {
                self.shell.journal.rec(&WalRecord::CreditAcked { digest: key });
            }
            return;
        }
        let pending = self.pending_acks.entry(to).or_default();
        if !pending.contains(&key) {
            pending.push(key);
        }
    }

    /// Emits the accumulated CREDIT acknowledgments, one signed message
    /// per owed settler (the flush tick's ack-batching duty).
    fn flush_acks(&mut self, outbound: &mut Vec<Envelope<Astro2Msg<A::Sig>>>) {
        for (to, digests) in std::mem::take(&mut self.pending_acks) {
            let sig = self.auth.sign(&credit_ack_context(&digests));
            outbound.push(Envelope {
                to: astro_brb::Dest::One(to),
                msg: Astro2Msg::CreditAck { digests, sig },
            });
        }
    }

    /// Number of payments queued awaiting approval.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Clients whose xlog was permanently stuck by an under-funded payment
    /// (certificate mode).
    pub fn stuck_clients(&self) -> impl Iterator<Item = ClientId> + '_ {
        self.stuck.iter().copied()
    }

    /// Certificates currently held for `client` (representative state).
    pub fn held_certificates(&self, client: ClientId) -> usize {
        self.held.certs(client).len()
    }

    /// The verified-certificate cache (observability and tests).
    pub fn cert_cache(&self) -> &CertCache {
        &self.cert_cache
    }

    /// Re-creates one retry-outbox entry from recovered `(dest, bundle)`
    /// data, re-signing with this replica's key (signatures are not
    /// persisted). Due for immediate retransmission; idempotent over the
    /// snapshot/WAL overlap window.
    fn restore_outbox_entry(&mut self, dest: ReplicaId, bundle: Vec<Payment>) {
        let key = credit_context(&bundle);
        if self.outbox.contains_key(&key) {
            return;
        }
        let sig = self.auth.sign(&key);
        self.outbox
            .insert(key, OutboxEntry { dest, bundle, sig, ticks: 0, backoff: OUTBOX_BASE_TICKS });
    }
}

impl<A: Authenticator> Replica for AstroTwoReplica<A> {
    type Msg = Astro2Msg<A::Sig>;
    type Config = Astro2Config;
    type Brb = SignedBrb<DepBatch<A::Sig>, A>;
    type Local = Astro2Local;

    fn shell(&self) -> &Shell<Self::Msg> {
        &self.shell
    }

    fn shell_mut(&mut self) -> &mut Shell<Self::Msg> {
        &mut self.shell
    }

    fn brb(&self) -> &Self::Brb {
        &self.brb
    }

    fn brb_mut(&mut self) -> &mut Self::Brb {
        &mut self.brb
    }

    fn sync_msg(msg: SyncMsg) -> Self::Msg {
        Astro2Msg::Sync(msg)
    }

    /// This replica's shard.
    fn group(&self) -> &Group {
        &self.groups[self.my_shard.0 as usize]
    }

    /// Listing 7: the accumulated dependency certificates ride along with
    /// the payment. Rejects clients this replica does not represent, and
    /// sequence numbers other than the client's next.
    fn submit(&mut self, payment: Payment) -> Result<ReplicaStep<Self::Msg>, SubmitError> {
        if !self.layout.is_representative(self.shell.me, payment.spender) {
            return Err(SubmitError::NotRepresentative {
                client: payment.spender,
                representative: self.layout.representative_of(payment.spender),
            });
        }
        // At most one payment per xlog slot may ever leave this
        // representative (Listing 7 assigns sequence numbers here for the
        // same reason): the shard's broadcast delivery is unordered, so if
        // two conflicting payments at one seq both reached broadcast,
        // correct replicas could settle different winners. An equivocating
        // client's second submission dies at the door instead.
        let floor = self.shell.ledger.next_seq(payment.spender);
        let gate = self.submitted_seq.entry(payment.spender).or_insert(floor);
        if *gate < floor {
            // A catch-up install advanced the ledger past the gate.
            *gate = floor;
        }
        if payment.seq != *gate {
            return Err(SubmitError::SeqOutOfOrder {
                client: payment.spender,
                seq: payment.seq,
                expected: *gate,
            });
        }
        *gate = gate.next();
        let reserved = self.reserved.entry(payment.spender).or_insert(0);
        let need = reserved.saturating_add(payment.amount.0);
        let attach = match self.dep_policy {
            DepPolicy::Always => true,
            DepPolicy::WhenNeeded => self.shell.ledger.balance(payment.spender).0 < need,
        };
        *reserved = need;
        let deps = if attach {
            let taken = self.held.take(payment.spender);
            if !taken.is_empty() {
                // Consumption is journaled at the *flush* that broadcasts
                // the carrying payment, not here: a crash before the
                // broadcast must restore the certificates (the batch is
                // lost with them), and re-attachment after recovery is
                // idempotent at verifiers via `usedDeps`.
                self.pending_cert_takes
                    .push((payment.spender, taken.iter().map(cert_digest).collect()));
            }
            taken
        } else {
            Vec::new()
        };
        self.batch.push(DepPayment { payment, deps });
        // While catching up the batch only accumulates: auto-flush would
        // burn the sync retry pacing (flush doubles as its timer), and
        // broadcasting must wait for the certified tag floor anyway.
        if !self.is_syncing() && self.batch.len() >= self.batch_size {
            Ok(self.flush())
        } else {
            Ok(ReplicaStep::empty())
        }
    }

    fn handle(&mut self, from: ReplicaId, msg: Self::Msg) -> ReplicaStep<Self::Msg> {
        match msg {
            Astro2Msg::Brb(m) => {
                if self.is_syncing() {
                    // Settlement is paused until the transferred state is
                    // installed; CREDIT traffic keeps flowing —
                    // certificates accumulate independently of the ledger.
                    replica::park(self, from, Astro2Msg::Brb(m));
                    return ReplicaStep::empty();
                }
                let step = self.brb.handle(from, m);
                let mut out = ReplicaStep {
                    outbound: step
                        .outbound
                        .into_iter()
                        .map(|e| Envelope { to: e.to, msg: Astro2Msg::Brb(e.msg) })
                        .collect(),
                    settled: Vec::new(),
                };
                for delivery in step.delivered {
                    self.apply(delivery.id, delivery.payload, &mut out);
                }
                if let Some(obs) = &self.shell.obs {
                    // An outbound COMMIT means this replica just assembled
                    // the 2f+1 ack quorum proof for its payload.
                    for env in &out.outbound {
                        if let Astro2Msg::Brb(SignedMsg::Commit { body, .. }) = &env.msg {
                            obs.stage_batch(
                                body.payload().entries.iter().map(|e| &e.payment),
                                astro_obs::Stage::AckQuorum,
                            );
                        }
                    }
                }
                out
            }
            Astro2Msg::Credit(cb) => self.on_credit(from, cb),
            Astro2Msg::Sync(m) => replica::handle_sync(self, from, m),
            Astro2Msg::CreditAck { digests, sig } => self.on_credit_ack(from, digests, sig),
            Astro2Msg::CreditRequest { since } => self.on_credit_request(from, since),
        }
    }

    /// Broadcasts the accumulated batch within the shard, if any. CREDIT
    /// retransmission and batched acks ride the same timer.
    fn flush(&mut self) -> ReplicaStep<Self::Msg> {
        // The outbox keeps running during catch-up: it serves *other*
        // replicas' recovery, which must not wait for ours.
        let mut out = ReplicaStep::empty();
        self.tick_outbox(&mut out.outbound);
        if let Some(step) = replica::catchup_tick(self) {
            out.outbound.extend(step.outbound);
            out.settled.extend(step.settled);
            return out;
        }
        if self.batch.is_empty() {
            return out;
        }
        let entries = std::mem::take(&mut self.batch);
        if let Some(obs) = &self.shell.obs {
            obs.stage_batch(entries.iter().map(|e| &e.payment), astro_obs::Stage::Prepare);
            obs.pending_depth.set(self.pending.len() as u64);
            obs.cert_cache_hits.set(self.cert_cache.hits());
            obs.cert_cache_misses.set(self.cert_cache.misses());
        }
        // The batch becomes durable now: certificate consumption first,
        // then the tag reservation.
        for (client, digests) in std::mem::take(&mut self.pending_cert_takes) {
            self.shell.journal.rec(&WalRecord::CertsTaken { client, digests });
        }
        let id = self.shell.next_instance();
        let step = self.brb.broadcast(id, DepBatch { entries });
        out.outbound.extend(
            step.outbound.into_iter().map(|e| Envelope { to: e.to, msg: Astro2Msg::Brb(e.msg) }),
        );
        out
    }

    /// A batch awaits broadcast, a CREDIT awaits its ack, an ack is owed,
    /// or a catch-up is outstanding.
    fn needs_tick(&self) -> bool {
        let idle = self.batch.is_empty() && self.outbox.is_empty() && self.pending_acks.is_empty();
        !idle || self.is_syncing()
    }

    /// Settled balance plus certified-but-unspent incoming credits.
    fn available_balance(&self, client: ClientId) -> Amount {
        // A credit may be vouched for by several held certificates (a
        // replayed singleton alongside the original sub-batch); the store
        // yields each payment once.
        self.held
            .vouched(client)
            .filter(|p| !self.used_deps.contains(&p.id()))
            .fold(self.shell.ledger.balance(client), |total, p| total.saturating_add(p.amount))
    }

    /// The pool pre-verifies these off the replica thread into the shared
    /// [`astro_types::VerdictCache`]; by the time the state machine
    /// reaches its `verify_all` / [`astro_types::count_valid_signers`]
    /// calls, the verdicts are cache hits. Only Schnorr signatures are
    /// enumerated ([`Authenticator::schnorr`]).
    ///
    /// - `Ack` — at the broadcaster, the peer ACKs its quorum still
    ///   needs: at most `quorum − 1` per instance, none after the COMMIT
    ///   ([`SignedBrb::claim_ack_check`]). Its own ACK is signed with
    ///   [`Authenticator::sign_for_self`], so its verdict is cached
    ///   already. The accumulated-ACK batch check verifies any other ACK
    ///   the quorum ends up using inline.
    /// - `Commit` — the `2f+1` quorum proof covers the ack context, built
    ///   from the digest the message carries. The attached dependency
    ///   certificates, checked at settlement, are enumerated only if this
    ///   replica has not ACKed the same digest for the instance: an ACKed
    ///   PREPARE carried the same certificates, and its checks went to the
    ///   pool then. A COMMIT for a pruned instance is dropped unread, so
    ///   it enumerates nothing.
    /// - `Prepare` — the attached dependency certificates: they will be
    ///   checked when the instance *commits*, so pre-verifying at PREPARE
    ///   hides the certificate work behind the ACK round-trip.
    /// - `Credit` — one signature over the sub-batch digest, while the
    ///   certificate still needs it: at most `f` peer CREDITs per
    ///   sub-batch at a representative in the settling shard (`f+1`
    ///   elsewhere), none once the bundle is certified or covered. A
    ///   representative's own CREDIT never reaches the pool:
    ///   [`Replica::apply`] hands it to `on_credit` inline, signed with
    ///   `sign_for_self`, so its check is a cache hit there. `on_credit`
    ///   verifies any other CREDIT the certificate ends up using inline.
    fn preverify(&mut self, from: ReplicaId, msg: &Self::Msg) -> Vec<SigCheck> {
        use astro_brb::signed::ack_context;

        let mut out = Vec::new();
        let certs = |out: &mut Vec<SigCheck>, batch: &DepBatch<A::Sig>| {
            for cert in batch.entries.iter().flat_map(|entry| &entry.deps) {
                if !cert.bundle.is_empty() {
                    let proofs = cert.proofs.iter().map(|(signer, sig)| (*signer, sig));
                    push_checks::<A>(out, credit_context(&cert.bundle).into(), proofs);
                }
            }
        };
        match msg {
            Astro2Msg::Brb(SignedMsg::Prepare(body)) => certs(&mut out, body.payload()),
            Astro2Msg::Brb(SignedMsg::Ack { id, digest, sig }) => {
                if self.brb.claim_ack_check(from, *id, digest) {
                    push_checks::<A>(&mut out, ack_context(*id, digest).into(), [(from, sig)]);
                }
            }
            Astro2Msg::Brb(SignedMsg::Commit { body, proof }) => {
                let id = body.id();
                if !self.brb.pruned(id) {
                    let context = ack_context(id, body.digest()).into();
                    push_checks::<A>(&mut out, context, proof.iter().map(|(r, sig)| (*r, sig)));
                    if self.brb.acked(id) != Some(body.digest()) {
                        certs(&mut out, body.payload());
                    }
                }
            }
            Astro2Msg::Credit(cb) => {
                if let Some(key) = self.claim_credit_check(from, &cb.bundle) {
                    push_checks::<A>(&mut out, key.into(), [(from, &cb.sig)]);
                }
            }
            Astro2Msg::CreditAck { digests, sig } => {
                push_checks::<A>(&mut out, credit_ack_context(digests).into(), [(from, sig)]);
            }
            // Catch-up traffic certifies by f+1 matching digests over the
            // authenticated links — nothing for the verify pool. A
            // CreditRequest carries no signature: over-replay it could
            // induce is already harmless.
            Astro2Msg::Sync(_) | Astro2Msg::CreditRequest { .. } => {}
        }
        out
    }

    /// Applies a BRB-delivered batch (Listings 8–9) and emits CREDIT
    /// sub-batches for the settled payments.
    fn apply(&mut self, id: InstanceId, batch: DepBatch<A::Sig>, out: &mut ReplicaStep<Self::Msg>) {
        let broadcaster = ReplicaId(id.source as u32);
        let mut touched: Vec<ClientId> = Vec::new();
        let mut settled: Vec<Payment> = Vec::new();

        for entry in batch.entries {
            let p = entry.payment;
            // Representative and locality checks.
            if self.layout.representative_of(p.spender) != broadcaster
                || self.layout.shard_of_client(p.spender) != self.my_shard
            {
                continue;
            }
            match self.attempt_settle(&p, &entry.deps) {
                SettleOutcome::Applied => {
                    if let Some(r) = self.reserved.get_mut(&p.spender) {
                        *r = r.saturating_sub(p.amount.0);
                    }
                    settled.push(p);
                    touched.push(p.spender);
                    touched.push(p.beneficiary);
                }
                SettleOutcome::FutureSeq | SettleOutcome::InsufficientFunds => {
                    // InsufficientFunds only surfaces in DirectIntraShard
                    // mode (certificate mode converts it into a permanent
                    // drop); queue until a credit arrives, as in Astro I.
                    // The attached certificates ride into the record: a
                    // future-sequence payment queues *before* the
                    // dependency step, so its credits are not yet in the
                    // ledger and must survive a restart with it.
                    self.shell.journal.rec(&WalRecord::Queued {
                        payment: p,
                        deps: entry.deps.iter().map(Wire::to_wire_bytes).collect(),
                    });
                    self.pending.push(p, entry.deps);
                    touched.push(p.spender);
                }
                SettleOutcome::StaleSeq => {}
            }
        }

        // Cascade: settled payments may unblock queued successors.
        let Self {
            shell: Shell { ledger, journal, .. },
            pending,
            auth,
            layout,
            groups,
            used_deps,
            cert_cache,
            stuck,
            mode,
            my_shard,
            ..
        } = self;
        let cascaded = pending.drain_cascade(touched, ledger, |ledger, p, deps| {
            attempt_settle_inner(
                ledger, auth, layout, groups, used_deps, cert_cache, stuck, journal, *mode,
                *my_shard, p, deps,
            )
        });
        settled.extend(cascaded.into_iter().map(|e| e.payment));

        // The delivery record *terminates* the batch's effects in the log:
        // a torn tail that cuts before it replays a (harmless, idempotent)
        // effect prefix with the cursor still behind — never a cursor that
        // has advanced past effects that were lost.
        self.shell.journal.rec(&WalRecord::Delivered { source: id.source, tag: id.tag });

        // Emit CREDIT sub-batches grouped by beneficiary representative
        // (paper §VI-A's second batching level: one signature per group).
        let mut by_rep: BTreeMap<ReplicaId, Vec<Payment>> = BTreeMap::new();
        for p in &settled {
            let beneficiary_shard = self.layout.shard_of_client(p.beneficiary);
            let direct =
                self.mode == CreditMode::DirectIntraShard && beneficiary_shard == self.my_shard;
            if !direct {
                by_rep.entry(self.layout.representative_of(p.beneficiary)).or_default().push(*p);
            }
        }
        let me = self.shell.me;
        for (rep, bundle) in by_rep {
            if rep == me {
                // Self-addressed credits deliver inline: no transport to
                // lose them, so they bypass the retry outbox too. Signed
                // for self, so with a verdict cache the check in
                // `on_credit` is a lookup, not curve work.
                let sig = self.auth.sign_for_self(&credit_context(&bundle));
                let step = self.on_credit(me, CreditBundle { bundle, sig });
                out.outbound.extend(step.outbound);
                out.settled.extend(step.settled);
            } else {
                self.queue_credit(rep, bundle, &mut out.outbound);
            }
        }
        if let Some(obs) = &self.shell.obs {
            obs.settles.add(settled.len() as u64);
            // Representative-only, as in Astro I: one stamp per payment
            // keeps the rest of the shard off the tracer.
            obs.stage_batch(
                settled.iter().filter(|p| self.layout.representative_of(p.spender) == me),
                astro_obs::Stage::Settle,
            );
        }
        out.settled.extend(settled);
    }

    /// Approval queue, dependency replay-protection, stuck set, held
    /// certificates and the CREDIT outbox. The shared sections are
    /// canonical; the certificate section is representative-local by
    /// construction.
    fn export_local(&self) -> Astro2Local {
        let mut used_deps: Vec<PaymentId> = self.used_deps.iter().copied().collect();
        used_deps.sort_unstable();
        let mut stuck: Vec<ClientId> = self.stuck.iter().copied().collect();
        stuck.sort_unstable();
        // Certificates attached to the *unflushed* batch are not durably
        // consumed yet — `CertsTaken` is journaled at flush. Export them
        // as still held: a crash before the flush then restores them
        // instead of destroying them with the lost batch, and a
        // `CertsTaken` that post-dates this snapshot removes exactly them
        // on replay (consumption is by content digest).
        let mut certs_map: HashMap<ClientId, Vec<Vec<u8>>> = HashMap::new();
        for entry in &self.batch {
            if !entry.deps.is_empty() {
                certs_map
                    .entry(entry.payment.spender)
                    .or_default()
                    .extend(entry.deps.iter().map(Wire::to_wire_bytes));
            }
        }
        for (client, held) in self.held.iter() {
            certs_map.entry(client).or_default().extend(held.iter().map(|c| c.to_wire_bytes()));
        }
        let mut certs: Vec<(ClientId, Vec<Vec<u8>>)> = certs_map.into_iter().collect();
        certs.sort_unstable_by_key(|(c, _)| *c);
        // Outbox iteration is digest-ordered; the stable sort yields the
        // canonical (destination, digest) order.
        let mut outbox: Vec<(ReplicaId, Vec<Payment>)> =
            self.outbox.values().map(|e| (e.dest, e.bundle.clone())).collect();
        outbox.sort_by_key(|(dest, _)| *dest);
        Astro2Local {
            pending: self
                .pending
                .entries()
                .into_iter()
                .map(|(p, deps)| (*p, deps.iter().map(Wire::to_wire_bytes).collect()))
                .collect(),
            used_deps,
            stuck,
            certs,
            outbox,
        }
    }

    /// Certificates listed under several beneficiaries come back as one
    /// allocation; outbox entries are re-signed. Held certificates and
    /// outbox entries merge into what the replica has (a catch-up
    /// transfers neither, see [`Replica::sync_local`]). Partial CREDIT
    /// proof sets below the certificate threshold and balance
    /// reservations are not durable: they restart empty.
    fn restore_local(&mut self, local: &Astro2Local) {
        self.pending = PendingQueue::new();
        for (payment, deps) in &local.pending {
            self.pending.push(*payment, decode_certs(deps));
        }
        self.used_deps = local.used_deps.iter().copied().collect();
        self.stuck = local.stuck.iter().copied().collect();
        for (client, certs) in &local.certs {
            for cert in decode_certs::<A::Sig>(certs) {
                self.held.insert(credit_context(&cert.bundle), Arc::new(cert), [*client]);
            }
        }
        for (dest, bundle) in &local.outbox {
            self.restore_outbox_entry(*dest, bundle.clone());
        }
    }

    /// The representative certificate store and the CREDIT retry outbox
    /// are replica-local: donors do not hold the requester's clients'
    /// certificates or delivery debts, and leaving them in would break
    /// the byte-identical `f+1` match. The requester's own store is
    /// untouched by the transfer: certificates are re-formed from CREDIT
    /// traffic — donors retain unacked bundles in their retry outboxes,
    /// and the `CreditRequest` fan-out of [`Replica::catchup_ended`] makes
    /// them replay anything the store is still missing.
    fn sync_local(local: &mut Astro2Local) {
        local.certs = Vec::new();
        local.outbox = Vec::new();
    }

    /// Materialized dependencies and stuck marks must both be supersets of
    /// the local ones, or effects this replica already applied would
    /// vanish — and a dependency could re-materialize: a double credit.
    fn check_local(&self, local: &Astro2Local) -> Result<(), SyncError> {
        let certified_deps: HashSet<PaymentId> = local.used_deps.iter().copied().collect();
        let certified_stuck: HashSet<ClientId> = local.stuck.iter().copied().collect();
        if self.used_deps.is_subset(&certified_deps) && self.stuck.is_subset(&certified_stuck) {
            Ok(())
        } else {
            Err(SyncError::Stale)
        }
    }

    fn replay_local(&mut self, record: &WalRecord) {
        match record {
            WalRecord::DepUsed { dep } => {
                if self.used_deps.insert(dep.id()) {
                    self.shell.ledger.credit(dep.beneficiary, dep.amount);
                }
            }
            WalRecord::Queued { payment, deps } => self.pending.push(*payment, decode_certs(deps)),
            WalRecord::Stuck { client } => {
                self.stuck.insert(*client);
            }
            WalRecord::CertsTaken { client, digests } => {
                // Consumption by content digest: removal of an absent
                // certificate is a no-op, so any replay interleaving with
                // Cert records (the snapshot-overlap window) converges.
                self.held.remove(*client, digests);
            }
            WalRecord::Cert { bytes } => {
                let Ok(cert) = decode_exact::<DependencyCertificate<A::Sig>>(bytes) else {
                    return;
                };
                // Idempotent over the snapshot-overlap window, by the
                // same bundle dedup as live certification.
                self.hold(credit_context(&cert.bundle), cert);
            }
            WalRecord::CreditOut { dest, bundle } => {
                self.restore_outbox_entry(*dest, bundle.clone());
            }
            WalRecord::CreditAcked { digest } => {
                self.outbox.remove(digest);
            }
            // Replayed by `Replica::replay` itself.
            WalRecord::Delivered { .. } | WalRecord::Settle { .. } | WalRecord::OwnTag { .. } => {}
        }
    }

    fn finish_recovery(&mut self) {
        self.pending.prune_stale(&self.shell.ledger);
    }

    /// Rebuilds the certificate store: asks every potential donor — all
    /// replicas of all shards (cross-shard settles credit through here
    /// too) — to replay CREDITs that died with the link while this
    /// replica was down (or that it certified and then lost non-durably).
    fn catchup_ended(&self) -> Vec<Envelope<Self::Msg>> {
        let since = self.shell.ledger.total_settled() as u64;
        let mut out = Vec::new();
        for group in &self.groups {
            for &r in group.members() {
                if r != self.shell.me {
                    out.push(Envelope {
                        to: astro_brb::Dest::One(r),
                        msg: Astro2Msg::CreditRequest { since },
                    });
                }
            }
        }
        out
    }
}

/// Decodes wire-encoded certificates, dropping any that fail to decode
/// under this signature scheme (they could never verify either).
fn decode_certs<S: Wire>(certs: &[Vec<u8>]) -> Vec<DependencyCertificate<S>> {
    certs.iter().filter_map(|bytes| decode_exact(bytes).ok()).collect()
}

/// Appends one pool check per Schnorr signature in `sigs`, all over the
/// shared `context` (a refcount bump per signature, not a buffer clone).
fn push_checks<'a, A: Authenticator>(
    out: &mut Vec<SigCheck>,
    context: Arc<[u8]>,
    sigs: impl IntoIterator<Item = (ReplicaId, &'a A::Sig)>,
) {
    for (signer, sig) in sigs {
        if let Some(sig) = A::schnorr(sig) {
            out.push(SigCheck { signer, context: Arc::clone(&context), sig });
        }
    }
}

/// The settle attempt, free of `self` so the pending-queue cascade can call
/// it while the queue itself is mutably borrowed.
#[allow(clippy::too_many_arguments)]
fn attempt_settle_inner<A: Authenticator>(
    ledger: &mut Ledger,
    auth: &A,
    layout: &ShardLayout,
    groups: &[Group],
    used_deps: &mut HashSet<PaymentId>,
    cert_cache: &mut CertCache,
    stuck: &mut HashSet<ClientId>,
    journal: &mut JournalSlot,
    mode: CreditMode,
    my_shard: ShardId,
    p: &Payment,
    deps: &[DependencyCertificate<A::Sig>],
) -> SettleOutcome {
    let next = ledger.next_seq(p.spender);
    if p.seq > next {
        return SettleOutcome::FutureSeq;
    }
    if p.seq < next {
        return SettleOutcome::StaleSeq;
    }
    if stuck.contains(&p.spender) {
        // The xlog is stuck (Listing 9's early return dropped a payment);
        // successors can never settle.
        return SettleOutcome::StaleSeq;
    }
    // Materialize dependencies (Listing 9: `newDeps`, `usedDeps`,
    // `bal += balanceOf(newDeps)`) — before the funds check, and kept even
    // if the payment is then rejected.
    for cert in deps {
        let Some(first) = cert.bundle.first() else { continue };
        let settling_shard = layout.shard_of_client(first.spender);
        if !cert.bundle.iter().all(|d| layout.shard_of_client(d.spender) == settling_shard) {
            continue;
        }
        let group = &groups[settling_shard.0 as usize];
        // One signature-verification pass per certificate per replica: a
        // cache hit (content digest over bundle *and* proofs) skips the
        // f+1 signature checks; only fully verified certs are admitted.
        let digest = cert_digest(cert);
        if cert_cache.contains(&digest) {
            cert_cache.hits += 1;
        } else {
            cert_cache.misses += 1;
            if !verify_certificate(cert, group, auth) {
                continue;
            }
            cert_cache.admit(digest);
        }
        for d in cert.credits_for(p.spender) {
            if used_deps.insert(d.id()) {
                journal.rec(&WalRecord::DepUsed { dep: *d });
                ledger.credit(p.spender, d.amount);
            }
        }
    }
    let direct_credit =
        mode == CreditMode::DirectIntraShard && layout.shard_of_client(p.beneficiary) == my_shard;
    match ledger.settle(p, direct_credit) {
        SettleOutcome::InsufficientFunds if mode == CreditMode::Certificates => {
            // Listing 9's `if bal[Alice] < x: return` — the payment is
            // dropped at every correct replica identically, and the xlog
            // can never advance past this gap.
            journal.rec(&WalRecord::Stuck { client: p.spender });
            stuck.insert(p.spender);
            SettleOutcome::StaleSeq
        }
        SettleOutcome::Applied => {
            journal.rec(&WalRecord::Settle { payment: *p, credit_beneficiary: direct_credit });
            SettleOutcome::Applied
        }
        outcome => outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Journal;
    use crate::testkit::PaymentCluster;
    use astro_brb::signed::{ack_context, Digested};
    use astro_crypto::Signature;
    use astro_types::{Keychain, MacAuthenticator, SchnorrAuthenticator, VerdictCache};

    type Node = AstroTwoReplica<MacAuthenticator>;

    /// A journal that keeps its records in memory.
    #[derive(Clone, Default)]
    struct Sink(Arc<std::sync::Mutex<Vec<WalRecord>>>);
    impl Journal for Sink {
        fn record(&mut self, r: &WalRecord) {
            self.0.lock().unwrap().push(r.clone());
        }
    }

    fn cluster(shards: usize, per_shard: usize, cfg: Astro2Config) -> PaymentCluster<Node> {
        let layout = ShardLayout::uniform(shards, per_shard).unwrap();
        let total = shards * per_shard;
        PaymentCluster::new((0..total).map(|i| {
            AstroTwoReplica::new(
                MacAuthenticator::new(ReplicaId(i as u32), b"astro2".to_vec()),
                layout.clone(),
                cfg.clone(),
            )
        }))
    }

    fn cfg(mode: CreditMode) -> Astro2Config {
        Astro2Config {
            batch_size: 1,
            initial_balance: Amount(100),
            credit_mode: mode,
            dep_policy: DepPolicy::WhenNeeded,
        }
    }

    /// The oldest certificate `rep` holds for `client`.
    fn held_cert(
        c: &PaymentCluster<Node>,
        rep: ReplicaId,
        client: ClientId,
    ) -> DependencyCertificate<astro_types::auth::SimSig> {
        DependencyCertificate::clone(&c.node(rep.0 as usize).held.certs(client)[0])
    }

    /// Submits a payment at its representative.
    fn pay(c: &mut PaymentCluster<Node>, layout: &ShardLayout, p: Payment) {
        let rep = layout.representative_of(p.spender);
        let step = c.node_mut(rep.0 as usize).submit(p).expect("representative accepts");
        c.submit_step(rep, step);
    }

    #[test]
    fn intra_shard_payment_settles_and_certifies() {
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::Certificates));
        // Client 0 pays client 1.
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 30u64));
        c.run_to_quiescence();
        for i in 0..4 {
            assert_eq!(c.settled(i).len(), 1, "replica {i}");
            assert_eq!(c.node(i).balance(ClientId(0)), Amount(70));
            // Certificate mode: the beneficiary's settled balance is
            // untouched until she spends.
            assert_eq!(c.node(i).balance(ClientId(1)), Amount(100));
        }
        // Client 1's representative accumulated a certificate.
        let rep1 = layout.representative_of(ClientId(1));
        assert_eq!(c.node(rep1.0 as usize).held_certificates(ClientId(1)), 1);
        assert_eq!(c.node(rep1.0 as usize).available_balance(ClientId(1)), Amount(130));
    }

    #[test]
    fn beneficiary_spends_received_funds_via_certificate() {
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::Certificates));
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 30u64));
        c.run_to_quiescence();
        // Client 1 now spends 120 — more than her genesis 100; the
        // attached certificate covers it.
        pay(&mut c, &layout, Payment::new(1u64, 0u64, 2u64, 120u64));
        c.run_to_quiescence();
        for i in 0..4 {
            assert_eq!(c.settled(i).len(), 2, "replica {i}");
            assert_eq!(c.node(i).balance(ClientId(1)), Amount(10)); // 100+30-120
        }
    }

    #[test]
    fn cross_shard_payment_one_step() {
        let layout = ShardLayout::uniform(2, 4).unwrap();
        let mut c = cluster(2, 4, cfg(CreditMode::Certificates));
        // Find a client in shard 0 and one in shard 1.
        let a =
            (0..100u64).map(ClientId).find(|x| layout.shard_of_client(*x) == ShardId(0)).unwrap();
        let b =
            (0..100u64).map(ClientId).find(|x| layout.shard_of_client(*x) == ShardId(1)).unwrap();
        pay(&mut c, &layout, Payment::new(a.0, 0u64, b.0, 50u64));
        c.run_to_quiescence();
        // Settled in shard 0 only (4 replicas).
        let settled_replicas: usize = (0..8).filter(|&i| !c.settled(i).is_empty()).count();
        assert_eq!(settled_replicas, 4, "only the spender's shard settles");
        // The beneficiary's representative (shard 1) holds the certificate.
        let rep_b = layout.representative_of(b);
        assert_eq!(c.node(rep_b.0 as usize).held_certificates(b), 1);
        assert_eq!(c.node(rep_b.0 as usize).available_balance(b), Amount(150));
        // And b can spend it inside shard 1.
        let b2 = (0..100u64)
            .map(ClientId)
            .find(|x| layout.shard_of_client(*x) == ShardId(1) && *x != b)
            .unwrap();
        pay(&mut c, &layout, Payment::new(b.0, 0u64, b2.0, 140u64));
        c.run_to_quiescence();
        let rep_b2 = layout.representative_of(b2);
        assert_eq!(c.node(rep_b2.0 as usize).available_balance(b2), Amount(240));
    }

    #[test]
    fn partial_payments_attack_is_contained() {
        // Byzantine broadcaster sends the COMMIT to exactly one replica of
        // the shard. That replica settles and emits one CREDIT — below the
        // f+1 certificate threshold, so the beneficiary cannot spend
        // unprovable money.
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::Certificates));
        let rep0 = layout.representative_of(ClientId(0)); // spender's rep
        c.set_filter(move |from, to, msg| {
            // Drop commits from the broadcaster except to replica 1.
            !(from == rep0
                && to != ReplicaId(1)
                && matches!(msg, Astro2Msg::Brb(SignedMsg::Commit { .. })))
        });
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 30u64));
        c.run_to_quiescence();
        let settled: usize = (0..4).filter(|&i| !c.settled(i).is_empty()).count();
        assert_eq!(settled, 1, "only the victim replica settles");
        // No certificate anywhere: 1 < f+1 = 2 proofs.
        let rep1 = layout.representative_of(ClientId(1));
        assert_eq!(c.node(rep1.0 as usize).held_certificates(ClientId(1)), 0);
        assert_eq!(c.node(rep1.0 as usize).available_balance(ClientId(1)), Amount(100));
    }

    #[test]
    fn replayed_certificate_credits_only_once() {
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::Certificates));
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 30u64));
        c.run_to_quiescence();
        // Steal the certificate from client 1's representative and attach
        // it to TWO consecutive payments (double-deposit attempt).
        let rep1 = layout.representative_of(ClientId(1));
        let cert = held_cert(&c, rep1, ClientId(1));
        let node = c.node_mut(rep1.0 as usize);
        node.batch.push(DepPayment {
            payment: Payment::new(1u64, 0u64, 2u64, 10u64),
            deps: vec![cert.clone()],
        });
        let step = node.flush();
        c.submit_step(rep1, step);
        c.run_to_quiescence();
        let node = c.node_mut(rep1.0 as usize);
        node.batch
            .push(DepPayment { payment: Payment::new(1u64, 1u64, 2u64, 10u64), deps: vec![cert] });
        let step = node.flush();
        c.submit_step(rep1, step);
        c.run_to_quiescence();
        for i in 0..4 {
            // 100 + 30 (credited once!) - 20 = 110.
            assert_eq!(c.node(i).balance(ClientId(1)), Amount(110), "replica {i}");
        }
    }

    #[test]
    fn direct_mode_credits_intra_shard_immediately() {
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::DirectIntraShard));
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 30u64));
        c.run_to_quiescence();
        for i in 0..4 {
            assert_eq!(c.node(i).balance(ClientId(1)), Amount(130), "replica {i}");
        }
        // No CREDIT traffic was needed: no certificates held anywhere.
        for i in 0..4 {
            assert_eq!(c.node(i).held_certificates(ClientId(1)), 0);
        }
    }

    #[test]
    fn overdraft_in_certificate_mode_sticks_the_xlog() {
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::Certificates));
        // 150 > genesis 100 and no dependencies: dropped, xlog stuck.
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 150u64));
        c.run_to_quiescence();
        for i in 0..4 {
            assert!(c.settled(i).is_empty());
            assert_eq!(c.node(i).stuck_clients().count(), 1);
        }
        // A later, well-funded payment of the same client can never settle.
        pay(&mut c, &layout, Payment::new(0u64, 1u64, 1u64, 10u64));
        c.run_to_quiescence();
        for i in 0..4 {
            assert!(c.settled(i).is_empty(), "stuck xlog must not advance");
        }
    }

    #[test]
    fn overdraft_in_direct_mode_queues() {
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::DirectIntraShard));
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 150u64));
        c.run_to_quiescence();
        for i in 0..4 {
            assert_eq!(c.node(i).pending_len(), 1);
        }
        // Credit arrives; the queued payment settles.
        pay(&mut c, &layout, Payment::new(2u64, 0u64, 0u64, 60u64));
        c.run_to_quiescence();
        for i in 0..4 {
            assert_eq!(c.settled(i).len(), 2, "replica {i}");
            assert_eq!(c.node(i).balance(ClientId(0)), Amount(10));
        }
    }

    #[test]
    fn equivocating_representative_cannot_double_spend_across_replicas() {
        // The representative broadcasts two conflicting batches for the
        // same instance tag; BRB agreement lets at most one deliver.
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::Certificates));
        let rep = layout.representative_of(ClientId(0));
        let idx = rep.0 as usize;
        let id = InstanceId { source: u64::from(rep.0), tag: 0 };
        let batch_a = DepBatch {
            entries: vec![DepPayment {
                payment: Payment::new(0u64, 0u64, 1u64, 50u64),
                deps: vec![],
            }],
        };
        let batch_b = DepBatch {
            entries: vec![DepPayment {
                payment: Payment::new(0u64, 0u64, 2u64, 50u64),
                deps: vec![],
            }],
        };
        // Byzantine: prepare A at two replicas, B at the other two.
        for (i, batch) in [(0u32, &batch_a), (1, &batch_a), (2, &batch_b), (3, &batch_b)] {
            c.inject(
                rep,
                ReplicaId(i),
                Astro2Msg::Brb(SignedMsg::Prepare(Digested::new(id, batch.clone()))),
            );
        }
        c.run_to_quiescence();
        // Neither side can reach a 2f+1 = 3 ack quorum: nothing settles.
        for i in 0..4 {
            if i != idx {
                assert!(c.settled(i).is_empty(), "replica {i}");
            }
        }
    }

    #[test]
    fn cert_cache_is_bounded_fifo() {
        let mut cache = CertCache::new(3);
        for i in 0..5u8 {
            cache.admit([i; 32]);
        }
        assert_eq!(cache.len(), 3);
        // Oldest two evicted, newest three retained.
        assert!(!cache.contains(&[0u8; 32]));
        assert!(!cache.contains(&[1u8; 32]));
        for i in 2..5u8 {
            assert!(cache.contains(&[i; 32]));
        }
        // Re-admitting an existing digest does not grow or double-track.
        cache.admit([4u8; 32]);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn settling_with_certificates_populates_the_cache() {
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::Certificates));
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 30u64));
        c.run_to_quiescence();
        // Client 1 spends more than genesis; the attached certificate is
        // verified (and cached) at every replica that settles.
        pay(&mut c, &layout, Payment::new(1u64, 0u64, 2u64, 120u64));
        c.run_to_quiescence();
        for i in 0..4 {
            assert_eq!(c.settled(i).len(), 2, "replica {i}");
            assert_eq!(c.node(i).cert_cache().len(), 1, "replica {i} cached the cert");
        }
    }

    #[test]
    fn tampered_certificate_is_never_admitted_to_the_cache() {
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::Certificates));
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 30u64));
        c.run_to_quiescence();
        // Steal the genuine certificate and inflate the bundled amount:
        // the signatures no longer cover the bundle.
        let rep1 = layout.representative_of(ClientId(1));
        let mut cert = held_cert(&c, rep1, ClientId(1));
        cert.bundle[0].amount = Amount(1_000_000);
        let node = c.node_mut(rep1.0 as usize);
        node.batch
            .push(DepPayment { payment: Payment::new(1u64, 0u64, 2u64, 500u64), deps: vec![cert] });
        let step = node.flush();
        c.submit_step(rep1, step);
        c.run_to_quiescence();
        for i in 0..4 {
            assert_eq!(c.settled(i).len(), 1, "replica {i}: the overdraft must not settle");
            assert!(
                c.node(i).cert_cache().is_empty(),
                "replica {i}: a failing cert must never enter the cache"
            );
        }
    }

    #[test]
    fn export_restore_round_trips_state_with_certificates() {
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::Certificates));
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 30u64));
        c.run_to_quiescence();
        // Client 1 spends over genesis, consuming the certificate.
        pay(&mut c, &layout, Payment::new(1u64, 0u64, 2u64, 120u64));
        c.run_to_quiescence();
        let rep2 = layout.representative_of(ClientId(2));
        let node = c.node(rep2.0 as usize);
        let state = node.export_state();
        let restored = AstroTwoReplica::new(
            MacAuthenticator::new(rep2, b"astro2".to_vec()),
            layout.clone(),
            cfg(CreditMode::Certificates),
        )
        .restore(&state)
        .unwrap();
        assert_eq!(restored.export_state(), state, "restore→export is the identity");
        assert_eq!(restored.balance(ClientId(0)), node.balance(ClientId(0)));
        assert_eq!(restored.balance(ClientId(1)), node.balance(ClientId(1)));
        assert_eq!(
            restored.held_certificates(ClientId(2)),
            node.held_certificates(ClientId(2)),
            "held certificates survive restore"
        );
        assert_eq!(restored.available_balance(ClientId(2)), node.available_balance(ClientId(2)));
    }

    #[test]
    fn journal_replay_reproduces_state() {
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::Certificates));
        let sink = Sink::default();
        c.node_mut(1).set_journal(Box::new(sink.clone()));
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 30u64));
        c.run_to_quiescence();
        pay(&mut c, &layout, Payment::new(1u64, 0u64, 2u64, 120u64)); // consumes the cert
        c.run_to_quiescence();
        pay(&mut c, &layout, Payment::new(3u64, 0u64, 1u64, 200u64)); // sticks client 3
        c.run_to_quiescence();

        let mut recovered = AstroTwoReplica::new(
            MacAuthenticator::new(ReplicaId(1), b"astro2".to_vec()),
            layout,
            cfg(CreditMode::Certificates),
        );
        for rec in sink.0.lock().unwrap().iter() {
            recovered.replay(rec);
        }
        recovered.finish_recovery();
        assert_eq!(recovered.export_state(), c.node(1).export_state());
        assert_eq!(recovered.stuck_clients().count(), 1);
    }

    /// Schnorr signing whose `sign_for_self` is the trait default, plain
    /// `sign`: the baseline that notes no verdict at signing time.
    #[derive(Debug, Clone)]
    struct PlainSign(SchnorrAuthenticator);

    impl Authenticator for PlainSign {
        type Sig = Signature;

        fn me(&self) -> ReplicaId {
            self.0.me()
        }

        fn schnorr(sig: &Signature) -> Option<Signature> {
            Some(*sig)
        }

        fn sign(&self, message: &[u8]) -> Signature {
            self.0.sign(message)
        }

        fn verify(&self, peer: ReplicaId, message: &[u8], sig: &Signature) -> bool {
            self.0.verify(peer, message, sig)
        }

        fn verify_all(&self, message: &[u8], sigs: &[(ReplicaId, &Signature)]) -> bool {
            self.0.verify_all(message, sigs)
        }

        fn verify_each(&self, message: &[u8], sigs: &[(ReplicaId, &Signature)]) -> Vec<bool> {
            self.0.verify_each(message, sigs)
        }
    }

    /// Client 0 pays client 1 over four Schnorr replicas, each with a
    /// verdict cache of its own. Returns the `Cert` records client 1's
    /// representative journaled, the certificate it holds, and its cache.
    fn certify_over_schnorr<A: Authenticator<Sig = Signature>>(
        wrap: impl Fn(SchnorrAuthenticator) -> A,
    ) -> (Vec<Vec<u8>>, DependencyCertificate<Signature>, Arc<VerdictCache>) {
        let layout = ShardLayout::single(4).unwrap();
        let rep1 = layout.representative_of(ClientId(1));
        assert_ne!(rep1, layout.representative_of(ClientId(0)), "rep 1 is not the broadcaster");
        let caches: Vec<Arc<VerdictCache>> =
            (0..4).map(|_| Arc::new(VerdictCache::new(256))).collect();
        let chains = Keychain::deterministic_system(b"astro2-self-credit", 4);
        let mut c = PaymentCluster::new(chains.into_iter().zip(&caches).map(|(kc, cache)| {
            AstroTwoReplica::new(
                wrap(SchnorrAuthenticator::with_cache(kc, cache.clone())),
                layout.clone(),
                cfg(CreditMode::Certificates),
            )
        }));
        let sink = Sink::default();
        c.node_mut(rep1.0 as usize).set_journal(Box::new(sink.clone()));
        let p = Payment::new(0u64, 0u64, 1u64, 30u64);
        let step = c.node_mut(0).submit(p).expect("representative accepts");
        c.submit_step(ReplicaId(0), step);
        c.run_to_quiescence();
        let certs: Vec<Vec<u8>> = sink
            .0
            .lock()
            .unwrap()
            .iter()
            .filter_map(|r| match r {
                WalRecord::Cert { bytes } => Some(bytes.clone()),
                _ => None,
            })
            .collect();
        let held =
            DependencyCertificate::clone(&c.node(rep1.0 as usize).held.certs(ClientId(1))[0]);
        (certs, held, caches[rep1.0 as usize].clone())
    }

    #[test]
    fn own_credit_signature_certifies_without_a_verify_miss() {
        let (certs, held, cache) = certify_over_schnorr(|auth| auth);
        let (plain_certs, _, plain_cache) = certify_over_schnorr(PlainSign);
        assert_eq!(certs.len(), 1, "the sub-batch is certified once");
        assert_eq!(certs, plain_certs, "journaled Cert bytes do not depend on sign_for_self");
        assert_eq!(
            cache.misses() + 1,
            plain_cache.misses(),
            "the representative's own CREDIT is the one check that needs no curve work"
        );
        // The verdict is still cached for any later check of the proof.
        let rep1 = ShardLayout::single(4).unwrap().representative_of(ClientId(1));
        let (_, sig) = held.proofs.iter().find(|(r, _)| *r == rep1).expect("own proof");
        let check =
            SigCheck { signer: rep1, context: credit_context(&held.bundle).into(), sig: *sig };
        assert_eq!(cache.get(&check.cache_key()), Some(true));
    }

    /// Replica 1 of four Schnorr replicas; a batch from replica 0 whose
    /// payment (of `amount`) carries one certificate with two proofs; and
    /// a COMMIT of that batch with its 2f+1 proof.
    fn commit_fixture(
        amount: u64,
    ) -> (AstroTwoReplica<SchnorrAuthenticator>, Digested<DepBatch<Signature>>, Astro2Msg<Signature>)
    {
        let layout = ShardLayout::single(4).unwrap();
        let chains = Keychain::deterministic_system(b"astro2-commit-preverify", 4);
        let bundle = vec![Payment::new(2u64, 0u64, 0u64, 10u64)];
        let context = credit_context(&bundle);
        let cert = DependencyCertificate {
            proofs: chains[1..3].iter().map(|kc| (kc.id(), kc.sign(&context))).collect(),
            bundle,
        };
        let entries =
            vec![DepPayment { payment: Payment::new(0u64, 0u64, 1u64, amount), deps: vec![cert] }];
        let body = Digested::new(InstanceId { source: 0, tag: 0 }, DepBatch { entries });
        let ack = ack_context(body.id(), body.digest());
        let proof = chains[..3].iter().map(|kc| (kc.id(), kc.sign(&ack))).collect();
        let commit = Astro2Msg::Brb(SignedMsg::Commit { body: body.clone(), proof });
        let node = AstroTwoReplica::new(
            SchnorrAuthenticator::new(chains[1].clone()),
            layout,
            cfg(CreditMode::Certificates),
        );
        (node, body, commit)
    }

    fn contexts(checks: &[SigCheck]) -> Vec<&[u8]> {
        checks.iter().map(|c| &c.context[..]).collect()
    }

    #[test]
    fn commit_after_the_acked_prepare_preverifies_only_its_proof() {
        let (mut node, body, commit) = commit_fixture(30);
        let step = node.handle(ReplicaId(0), Astro2Msg::Brb(SignedMsg::Prepare(body.clone())));
        assert!(matches!(step.outbound[0].msg, Astro2Msg::Brb(SignedMsg::Ack { .. })));
        let checks = node.preverify(ReplicaId(0), &commit);
        let ack = ack_context(body.id(), body.digest());
        assert_eq!(contexts(&checks), [&ack[..]; 3], "the 2f+1 proof, no certificate");
    }

    #[test]
    fn commit_without_the_acked_prepare_preverifies_every_check() {
        let (mut node, body, commit) = commit_fixture(30);
        let ack = ack_context(body.id(), body.digest());
        let credit = credit_context(&body.payload().entries[0].deps[0].bundle);
        let every: [&[u8]; 5] = [&ack, &ack, &ack, &credit, &credit];
        // No PREPARE seen.
        assert_eq!(contexts(&node.preverify(ReplicaId(0), &commit)), every);
        // A PREPARE with another payload for the instance was ACKed.
        let (_, other, _) = commit_fixture(31);
        assert_ne!(other.digest(), body.digest());
        let step = node.handle(ReplicaId(0), Astro2Msg::Brb(SignedMsg::Prepare(other)));
        assert!(matches!(step.outbound[0].msg, Astro2Msg::Brb(SignedMsg::Ack { .. })));
        assert_eq!(contexts(&node.preverify(ReplicaId(0), &commit)), every);
    }

    #[test]
    fn commit_for_a_pruned_instance_preverifies_nothing() {
        let (mut node, _, commit) = commit_fixture(30);
        node.handle(ReplicaId(0), commit.clone());
        assert_eq!(node.prune_delivered(), 1, "the COMMIT delivered its instance");
        assert!(node.preverify(ReplicaId(0), &commit).is_empty());
    }

    type SchnorrNode = AstroTwoReplica<SchnorrAuthenticator>;

    /// Client 1's representative among four Schnorr replicas, with a
    /// verdict cache; the keychains; and a sub-batch crediting client 1.
    fn credit_fixture() -> (SchnorrNode, Vec<Keychain>, Arc<VerdictCache>, Vec<Payment>) {
        let layout = ShardLayout::single(4).unwrap();
        let rep1 = layout.representative_of(ClientId(1));
        let chains = Keychain::deterministic_system(b"astro2-credit-claims", 4);
        let cache = Arc::new(VerdictCache::new(256));
        let auth = SchnorrAuthenticator::with_cache(chains[rep1.0 as usize].clone(), cache.clone());
        let node = AstroTwoReplica::new(auth, layout, cfg(CreditMode::Certificates));
        (node, chains, cache, vec![Payment::new(0u64, 0u64, 1u64, 30u64)])
    }

    /// `kc`'s CREDIT for `bundle`.
    fn schnorr_credit(kc: &Keychain, bundle: &[Payment]) -> Astro2Msg<Signature> {
        let sig = kc.sign(&credit_context(bundle));
        Astro2Msg::Credit(CreditBundle { bundle: bundle.to_vec(), sig })
    }

    /// The representative's own CREDIT, as settling hands it over.
    fn own_credit(node: &mut SchnorrNode, bundle: &[Payment]) {
        let sig = node.auth.sign_for_self(&credit_context(bundle));
        node.on_credit(node.shell.me, CreditBundle { bundle: bundle.to_vec(), sig });
    }

    /// The shard members other than `node`.
    fn peers(node: &SchnorrNode) -> Vec<ReplicaId> {
        node.group().members().iter().copied().filter(|r| *r != node.shell.me).collect()
    }

    #[test]
    fn at_most_f_peer_credit_checks_are_claimed_per_sub_batch() {
        let (mut node, chains, _, bundle) = credit_fixture();
        let other = vec![Payment::new(2u64, 0u64, 1u64, 5u64)];
        for bundle in [&bundle, &other] {
            let claimed: Vec<usize> = peers(&node)
                .into_iter()
                .map(|r| node.preverify(r, &schnorr_credit(&chains[r.0 as usize], bundle)).len())
                .collect();
            assert_eq!(claimed, [1, 0, 0], "f = 1: the representative's own proof is the other");
        }
        // CREDITs `on_credit` drops unread claim nothing and leave no state.
        let before = node.partial.len();
        let stranger = (0..100u64)
            .map(ClientId)
            .find(|c| node.layout.representative_of(*c) != node.shell.me)
            .unwrap();
        let elsewhere = [Payment::new(0u64, 1u64, stranger.0, 5u64)];
        assert!(node.preverify(ReplicaId(0), &schnorr_credit(&chains[0], &elsewhere)).is_empty());
        assert!(node.preverify(ReplicaId(9), &schnorr_credit(&chains[0], &bundle)).is_empty());
        assert_eq!(node.partial.len(), before);

        // Outside the settling shard no own proof comes: f+1 peer checks.
        let layout = ShardLayout::uniform(2, 4).unwrap();
        let find = |shard: u16| {
            (0..100u64).map(ClientId).find(|c| layout.shard_of_client(*c) == ShardId(shard))
        };
        let (spender, beneficiary) = (find(0).unwrap(), find(1).unwrap());
        let rep = layout.representative_of(beneficiary);
        let chains = Keychain::deterministic_system(b"astro2-credit-claims", 8);
        let auth = SchnorrAuthenticator::new(chains[rep.0 as usize].clone());
        let mut node = AstroTwoReplica::new(auth, layout, cfg(CreditMode::Certificates));
        let bundle = [Payment::new(spender.0, 0u64, beneficiary.0, 5u64)];
        let settlers: Vec<ReplicaId> = node.groups[0].members().to_vec();
        let claimed: Vec<usize> = settlers
            .into_iter()
            .map(|r| node.preverify(r, &schnorr_credit(&chains[r.0 as usize], &bundle)).len())
            .collect();
        assert_eq!(claimed, [1, 1, 0, 0]);
    }

    #[test]
    fn a_certified_or_covered_credit_claims_no_check() {
        // Covered: the credit was materialized.
        let (mut node, chains, _, bundle) = credit_fixture();
        let [a, b, _] = peers(&node)[..] else { panic!("three peers") };
        node.replay(&WalRecord::DepUsed { dep: bundle[0] });
        assert!(node.preverify(a, &schnorr_credit(&chains[a.0 as usize], &bundle)).is_empty());
        assert!(node.partial.is_empty(), "no state for a CREDIT left out");

        // Certified, and covered by the held certificate.
        let (mut node, chains, cache, bundle) = credit_fixture();
        own_credit(&mut node, &bundle);
        node.handle(a, schnorr_credit(&chains[a.0 as usize], &bundle));
        assert_eq!(node.held_certificates(ClientId(1)), 1);
        assert!(node.preverify(b, &schnorr_credit(&chains[b.0 as usize], &bundle)).is_empty());
        // Certified, no longer covered: a spend took the certificate.
        node.submit(Payment::new(1u64, 0u64, 2u64, 120u64)).unwrap();
        assert_eq!(node.held_certificates(ClientId(1)), 0);
        assert!(!node.covered(&bundle[0]));
        assert!(node.preverify(b, &schnorr_credit(&chains[b.0 as usize], &bundle)).is_empty());
        // `on_credit` acks such a CREDIT before any signature check.
        let misses = cache.misses();
        let forged = chains[b.0 as usize].sign(b"not the credit context");
        node.handle(b, Astro2Msg::Credit(CreditBundle { bundle: bundle.clone(), sig: forged }));
        assert_eq!(cache.misses(), misses, "no signature was checked");
        assert_eq!(node.pending_acks[&b], [credit_context(&bundle)]);
    }

    #[test]
    fn a_forged_first_credit_leaves_the_certificate_to_an_inline_check() {
        let (mut node, chains, cache, bundle) = credit_fixture();
        let me = node.shell.me;
        let [a, b, _] = peers(&node)[..] else { panic!("three peers") };
        own_credit(&mut node, &bundle);
        let forged = Astro2Msg::Credit(CreditBundle {
            bundle: bundle.clone(),
            sig: chains[a.0 as usize].sign(b"not the credit context"),
        });
        // The pool checks the forgery, the one claim f = 1 allows.
        let checks = node.preverify(a, &forged);
        assert_eq!(checks.len(), 1);
        for check in &checks {
            let ok = chains[me.0 as usize].verify(check.signer, &check.context, &check.sig);
            cache.insert(check.cache_key(), ok);
        }
        node.handle(a, forged);
        assert_eq!(node.held_certificates(ClientId(1)), 0, "a forgery is no proof");
        let honest = schnorr_credit(&chains[b.0 as usize], &bundle);
        assert!(node.preverify(b, &honest).is_empty());
        let misses = cache.misses();
        node.handle(b, honest);
        assert_eq!(cache.misses(), misses + 1, "the unclaimed CREDIT is verified inline");
        let cert = &node.held.certs(ClientId(1))[0];
        let mut signers = vec![me, b];
        signers.sort_unstable();
        assert_eq!(cert.proofs.iter().map(|(r, _)| *r).collect::<Vec<_>>(), signers);
        let fresh = SchnorrAuthenticator::new(chains[a.0 as usize].clone());
        assert!(verify_certificate(cert, node.group(), &fresh));
    }

    #[test]
    fn queued_payment_keeps_its_certificates_across_recovery() {
        // Client 0 pays client 1; client 1's *second* payment (future
        // seq) arrives carrying the certificate before her first — it
        // queues with the certificate attached and unmaterialized.
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::Certificates));
        let sink = Sink::default();
        c.node_mut(2).set_journal(Box::new(sink.clone()));
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 30u64));
        c.run_to_quiescence();
        let rep1 = layout.representative_of(ClientId(1));
        let cert = held_cert(&c, rep1, ClientId(1));
        // Future-sequence payment (seq 1 before seq 0) with the cert: it
        // must queue, deps unconsumed, at every replica.
        let node = c.node_mut(rep1.0 as usize);
        let step = crate::testkit::submit_with_deps(
            node,
            Payment::new(1u64, 1u64, 2u64, 120u64),
            vec![cert.clone()],
        );
        c.submit_step(rep1, step);
        c.run_to_quiescence();
        assert_eq!(c.node(2).pending_len(), 1, "future-seq payment queues");

        // Crash replica 2 here: replay the journal into a fresh replica.
        let mut recovered = AstroTwoReplica::new(
            MacAuthenticator::new(ReplicaId(2), b"astro2".to_vec()),
            layout.clone(),
            cfg(CreditMode::Certificates),
        );
        for rec in sink.0.lock().unwrap().iter() {
            recovered.replay(rec);
        }
        recovered.finish_recovery();
        assert_eq!(recovered.export_state(), c.node(2).export_state());

        // Swap the recovered replica in for the crashed one, then fill
        // the sequence gap: seq 0 settles and the cascade must settle
        // the queued seq 1 from its *recovered* certificate (120 > 100
        // genesis — only the certificate credits cover it).
        *c.node_mut(2) = recovered;
        pay(&mut c, &layout, Payment::new(1u64, 0u64, 3u64, 5u64));
        c.run_to_quiescence();
        for i in 0..4 {
            assert_eq!(
                c.node(i).balance(ClientId(1)),
                Amount(5),
                "replica {i}: 100 + 30 - 5 - 120 = 5"
            );
            assert_eq!(c.node(i).stuck_clients().count(), 0, "replica {i} must not stick");
        }
    }

    #[test]
    fn message_wire_round_trip() {
        use astro_types::wire::decode_exact;
        let auth = MacAuthenticator::new(ReplicaId(0), b"wire".to_vec());
        let bundle = vec![Payment::new(1u64, 0u64, 2u64, 5u64)];
        let sig = auth.sign(&credit_context(&bundle));
        let msgs: Vec<Astro2Msg<astro_types::auth::SimSig>> = vec![
            Astro2Msg::Credit(CreditBundle { bundle, sig: sig.clone() }),
            Astro2Msg::CreditAck { digests: vec![[7u8; 32], [9u8; 32]], sig },
            Astro2Msg::CreditRequest { since: 42 },
        ];
        for msg in msgs {
            let bytes = msg.to_wire_bytes();
            assert_eq!(bytes.len(), msg.encoded_len());
            assert_eq!(decode_exact::<Astro2Msg<astro_types::auth::SimSig>>(&bytes).unwrap(), msg);
        }
    }

    /// Drives `rounds` flush ticks on every replica, routing the emitted
    /// retransmissions through the cluster.
    fn tick_flushes(c: &mut PaymentCluster<Node>, rounds: usize) {
        for _ in 0..rounds {
            for i in 0..c.len() {
                let step = c.node_mut(i).flush();
                c.submit_step(ReplicaId(i as u32), step);
            }
            c.run_to_quiescence();
        }
    }

    #[test]
    fn acked_credits_discharge_the_outbox() {
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::Certificates));
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 30u64));
        c.run_to_quiescence();
        let rep1 = layout.representative_of(ClientId(1));
        assert_eq!(c.node(rep1.0 as usize).held_certificates(ClientId(1)), 1);
        // Acks are batched per destination and ride the flush tick.
        tick_flushes(&mut c, 1);
        for i in 0..4 {
            assert_eq!(c.node(i).outbox_depth(), 0, "replica {i}: every CREDIT was acked");
        }
    }

    #[test]
    fn unacked_credits_retransmit_until_the_representative_certifies() {
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::Certificates));
        let rep1 = layout.representative_of(ClientId(1));
        // The beneficiary representative is unreachable for CREDIT
        // traffic: the paper-gap scenario where the unicast dies with the
        // link.
        let block = std::rc::Rc::new(std::cell::Cell::new(true));
        let block_w = std::rc::Rc::clone(&block);
        c.set_filter(move |_from, to, msg| {
            !(block_w.get() && to == rep1 && matches!(msg, Astro2Msg::Credit(_)))
        });
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 30u64));
        c.run_to_quiescence();
        assert_eq!(c.node(rep1.0 as usize).held_certificates(ClientId(1)), 0);
        for i in 0..4 {
            if ReplicaId(i as u32) != rep1 {
                assert_eq!(c.node(i).outbox_depth(), 1, "replica {i} retains the unacked CREDIT");
            }
        }
        // The link heals; the flush-timer retransmissions re-deliver, the
        // certificate forms, and the acks drain every outbox. The first
        // retransmission waits out `OUTBOX_BASE_TICKS` flush ticks.
        block.set(false);
        tick_flushes(&mut c, OUTBOX_BASE_TICKS as usize + 2);
        assert_eq!(c.node(rep1.0 as usize).held_certificates(ClientId(1)), 1);
        assert_eq!(c.node(rep1.0 as usize).available_balance(ClientId(1)), Amount(130));
        for i in 0..4 {
            assert_eq!(c.node(i).outbox_depth(), 0, "replica {i} outbox drained");
        }
    }

    #[test]
    fn forged_or_misdirected_acks_do_not_discharge_the_outbox() {
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::Certificates));
        let rep1 = layout.representative_of(ClientId(1));
        c.set_filter(move |_from, to, msg| !(to == rep1 && matches!(msg, Astro2Msg::Credit(_))));
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 30u64));
        c.run_to_quiescence();
        // Pick a settling replica with an outbox entry and forge acks.
        let donor = (0..4).find(|&i| c.node(i).outbox_depth() == 1).unwrap();
        let digest = *c.node(donor).outbox.keys().next().unwrap();
        let auth = MacAuthenticator::new(ReplicaId(3), b"astro2".to_vec());
        let good_ctx = credit_ack_context(&[digest]);
        // (a) valid signature, wrong sender (not the entry's destination).
        let sig = auth.sign(&good_ctx);
        let step = c
            .node_mut(donor)
            .handle(ReplicaId(3), Astro2Msg::CreditAck { digests: vec![digest], sig });
        assert!(step.outbound.is_empty());
        assert_eq!(c.node(donor).outbox_depth(), 1, "misdirected ack ignored");
        // (b) right sender, forged signature.
        let forged = auth.sign(b"not-the-ack-context");
        let step = c
            .node_mut(donor)
            .handle(rep1, Astro2Msg::CreditAck { digests: vec![digest], sig: forged });
        assert!(step.outbound.is_empty());
        assert_eq!(c.node(donor).outbox_depth(), 1, "forged ack ignored");
        // (c) the genuine ack from the destination discharges it.
        let rep_auth = MacAuthenticator::new(rep1, b"astro2".to_vec());
        let sig = rep_auth.sign(&good_ctx);
        c.node_mut(donor).handle(rep1, Astro2Msg::CreditAck { digests: vec![digest], sig });
        assert_eq!(c.node(donor).outbox_depth(), 0);
    }

    #[test]
    fn credit_request_replays_lost_certificates_from_settled_history() {
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::Certificates));
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 30u64));
        c.run_to_quiescence();
        let rep1 = layout.representative_of(ClientId(1));
        let idx = rep1.0 as usize;
        assert_eq!(c.node(idx).held_certificates(ClientId(1)), 1);
        // Non-durable loss after certification: every donor was acked
        // (acks ride the flush tick), so no outbox entry survives — only
        // settled history can replay it.
        tick_flushes(&mut c, 1);
        c.node_mut(idx).held = HeldCerts::default();
        c.node_mut(idx).partial.clear();
        for i in 0..4 {
            assert_eq!(c.node(i).outbox_depth(), 0);
        }
        let requests = c.node(idx).catchup_ended();
        assert_eq!(requests.len(), 3);
        let step = ReplicaStep { outbound: requests, settled: Vec::new() };
        c.submit_step(rep1, step);
        c.run_to_quiescence();
        tick_flushes(&mut c, 4);
        // The certificate re-formed from regenerated singleton CREDITs,
        // and the regenerated outbox entries were acked and drained.
        assert_eq!(c.node(idx).held_certificates(ClientId(1)), 1);
        assert_eq!(c.node(idx).available_balance(ClientId(1)), Amount(130));
        for i in 0..4 {
            assert_eq!(c.node(i).outbox_depth(), 0, "replica {i} outbox drained");
        }
        // The replayed funds spend normally.
        pay(&mut c, &layout, Payment::new(1u64, 0u64, 2u64, 120u64));
        c.run_to_quiescence();
        for i in 0..4 {
            assert_eq!(c.node(i).balance(ClientId(1)), Amount(10), "replica {i}");
        }
    }

    #[test]
    fn outbox_survives_export_restore() {
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::Certificates));
        let rep1 = layout.representative_of(ClientId(1));
        c.set_filter(move |_from, to, msg| !(to == rep1 && matches!(msg, Astro2Msg::Credit(_))));
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 30u64));
        c.run_to_quiescence();
        let donor = (0..4).find(|&i| c.node(i).outbox_depth() == 1).unwrap();
        let state = c.node(donor).export_state();
        assert_eq!(state.local.outbox.len(), 1, "unacked CREDIT exported");
        let restored = AstroTwoReplica::new(
            MacAuthenticator::new(ReplicaId(donor as u32), b"astro2".to_vec()),
            layout.clone(),
            cfg(CreditMode::Certificates),
        )
        .restore(&state)
        .unwrap();
        assert_eq!(restored.outbox_depth(), 1, "outbox recovered");
        assert_eq!(restored.export_state(), state, "restore→export is the identity");
        // The state served to catching-up peers clears the (donor-local)
        // outbox, like the certificate store.
        assert!(restored.sync_state(rep1).local.outbox.is_empty());
    }
    fn mac(r: ReplicaId) -> MacAuthenticator {
        MacAuthenticator::new(r, b"astro2".to_vec())
    }

    /// `r`'s CREDIT for `bundle`.
    fn credit(r: ReplicaId, bundle: &[Payment]) -> Astro2Msg<astro_types::auth::SimSig> {
        let sig = mac(r).sign(&credit_context(bundle));
        Astro2Msg::Credit(CreditBundle { bundle: bundle.to_vec(), sig })
    }

    #[test]
    fn cert_replay_over_a_held_bundle_with_other_proofs_is_not_held_twice() {
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::Certificates));
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 30u64));
        c.run_to_quiescence();
        let rep1 = layout.representative_of(ClientId(1));
        let held = held_cert(&c, rep1, ClientId(1));
        // The same bundle certified by the two replicas whose CREDITs
        // arrived after the quorum: what the live path refuses to hold a
        // second time.
        let context = credit_context(&held.bundle);
        let reformed = DependencyCertificate {
            bundle: held.bundle.clone(),
            proofs: (0..4)
                .map(ReplicaId)
                .filter(|r| held.proofs.iter().all(|(signer, _)| signer != r))
                .map(|r| (r, mac(r).sign(&context)))
                .collect(),
        };
        assert_eq!(reformed.proofs.len(), 2);
        assert_ne!(reformed, held);
        // Crash; the snapshot holds the certificate and the log's overlap
        // window holds a `Cert` record for the re-formed one.
        let state = c.node(rep1.0 as usize).export_state();
        let mut recovered =
            AstroTwoReplica::new(mac(rep1), layout.clone(), cfg(CreditMode::Certificates))
                .restore(&state)
                .unwrap();
        assert_eq!(recovered.available_balance(ClientId(1)), Amount(130));
        recovered.replay(&WalRecord::Cert { bytes: reformed.to_wire_bytes() });
        assert_eq!(recovered.held_certificates(ClientId(1)), 1);
        assert_eq!(recovered.available_balance(ClientId(1)), Amount(130));
        assert_eq!(recovered.export_state(), state);
    }

    #[test]
    fn a_credit_naming_a_held_payments_id_with_another_amount_is_not_covered() {
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::Certificates));
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 30u64));
        c.run_to_quiescence();
        tick_flushes(&mut c, 1);
        let rep1 = layout.representative_of(ClientId(1));
        let genuine = held_cert(&c, rep1, ClientId(1)).bundle[0];
        let inflated = Payment { amount: Amount(31), ..genuine };
        assert_eq!(inflated.id(), genuine.id());
        let sender = (0..4).map(ReplicaId).find(|r| *r != rep1).unwrap();
        let node = c.node_mut(rep1.0 as usize);
        assert!(node.covered(&genuine));
        assert!(!node.covered(&inflated));
        // A replayed singleton of the held payment is acked unexamined …
        node.handle(sender, credit(sender, &[genuine]));
        assert_eq!(node.pending_acks(), 1);
        // … the same id at another amount is a claim of its own: checked,
        // counted as one proof, and owed no ack.
        node.flush();
        node.handle(sender, credit(sender, &[inflated]));
        assert_eq!(node.pending_acks(), 0);
        assert_eq!(node.partial[&credit_context(&[inflated])].proofs.len(), 1);
        assert_eq!(node.available_balance(ClientId(1)), Amount(130));
    }

    #[test]
    fn certs_taken_replay_removes_exactly_the_named_certificates() {
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::Certificates));
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 30u64));
        pay(&mut c, &layout, Payment::new(2u64, 0u64, 1u64, 7u64));
        c.run_to_quiescence();
        let rep1 = layout.representative_of(ClientId(1));
        let node = c.node_mut(rep1.0 as usize);
        assert_eq!(node.held_certificates(ClientId(1)), 2);
        let (first, second) =
            (node.held.certs(ClientId(1))[0].clone(), node.held.certs(ClientId(1))[1].clone());
        let taken =
            WalRecord::CertsTaken { client: ClientId(1), digests: vec![cert_digest(&first)] };
        node.replay(&taken);
        assert_eq!(node.held.certs(ClientId(1)), std::slice::from_ref(&second));
        assert!(!node.covered(&first.bundle[0]) && node.covered(&second.bundle[0]));
        assert_eq!(node.available_balance(ClientId(1)).0, 100 + second.bundle[0].amount.0);
        // Absent digests are no-ops; naming the rest empties the client.
        node.replay(&taken);
        assert_eq!(node.held_certificates(ClientId(1)), 1);
        node.replay(&WalRecord::CertsTaken {
            client: ClientId(1),
            digests: vec![cert_digest(&second)],
        });
        assert_eq!(node.held_certificates(ClientId(1)), 0);
        assert_eq!(node.available_balance(ClientId(1)), Amount(100));
    }

    /// `covered` as the list scan the index replaced computed it.
    fn scan_covered(node: &Node, p: &Payment) -> bool {
        node.used_deps.contains(&p.id())
            || node.held.certs(p.beneficiary).iter().any(|c| c.bundle.contains(p))
    }

    /// `available_balance` as the list scan the index replaced computed it.
    fn scan_available_balance(node: &Node, client: ClientId) -> Amount {
        let mut total = node.balance(client);
        let mut counted: HashSet<PaymentId> = HashSet::new();
        for cert in node.held.certs(client) {
            for p in cert.credits_for(client) {
                if !node.used_deps.contains(&p.id()) && counted.insert(p.id()) {
                    total = total.saturating_add(p.amount);
                }
            }
        }
        total
    }

    /// The store's indexes against the lists they index, for everything
    /// the interleaving test can have put there.
    fn assert_index_matches_scan(node: &Node, clients: &[ClientId], bundles: &[Vec<Payment>]) {
        for bundle in bundles {
            for p in bundle {
                let inflated = Payment { amount: Amount(p.amount.0 + 1000), ..*p };
                for q in [*p, inflated] {
                    assert_eq!(node.covered(&q), scan_covered(node, &q), "covered({q})");
                }
            }
            let key = credit_context(bundle);
            let mut holders = clients.iter().filter_map(|c| {
                let held = node.held.clients.get(c)?;
                let listed = held.certs.iter().filter(|cert| cert.bundle == *bundle).count();
                assert_eq!(listed, usize::from(held.bundles.contains_key(&key)), "{c} {key:?}");
                held.bundles.get(&key).map(|at| &held.certs[*at])
            });
            if let Some(first) = holders.next() {
                assert_eq!(first.bundle, *bundle);
                assert!(
                    holders.all(|other| Arc::ptr_eq(first, other)),
                    "one allocation per bundle"
                );
            }
        }
        for c in clients {
            assert_eq!(node.available_balance(*c), scan_available_balance(node, *c), "{c}");
            assert_eq!(
                node.held_certificates(*c),
                node.held.clients.get(c).map_or(0, |h| h.bundles.len())
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// Random interleavings of everything that touches held
        /// certificates at one representative — CREDITs from 1–4 settlers
        /// (sub-batches, replayed singletons, overlapping bundles, and one
        /// settler inflating amounts), spends that take
        /// (`DepPolicy::Always`), flushes, materialization, crash +
        /// `restore`, and replay of journaled `Cert` / `CertsTaken`
        /// records: after every step the hash indexes answer exactly what
        /// a scan of the lists answers, and the beneficiaries of a bundle
        /// share one allocation.
        #[test]
        fn held_certificate_index_matches_the_list_scan(
            ops in proptest::collection::vec(
                (0u8..8, proptest::any::<u8>(), proptest::any::<u8>()),
                1..80,
            ),
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            let layout = ShardLayout::single(4).unwrap();
            let me = ReplicaId(1);
            let config = Astro2Config {
                batch_size: 3,
                initial_balance: Amount(1_000),
                credit_mode: CreditMode::Certificates,
                dep_policy: DepPolicy::Always,
            };
            let clients: Vec<ClientId> =
                (0..).map(ClientId).filter(|c| layout.is_representative(me, *c)).take(3).collect();
            // Payment i credits client i mod 3; settled by the one shard.
            let p = |i: usize| Payment::new(100 + i as u64, 0u64, clients[i % 3].0, 10 + i as u64);
            let bundles: Vec<Vec<Payment>> = vec![
                vec![p(0), p(1), p(2)],
                vec![p(3), p(4)],
                vec![p(5)],
                vec![p(0)],       // a donor's replayed singleton
                vec![p(1)],
                vec![p(6), p(0)], // overlaps the first sub-batch
                vec![p(7), p(3), p(6)],
            ];
            let sink = Sink::default();
            let mut node = AstroTwoReplica::new(mac(me), layout.clone(), config.clone());
            node.set_journal(Box::new(sink.clone()));
            let mut next_seq: HashMap<ClientId, u64> = HashMap::new();
            for (kind, a, b) in ops {
                let (a, b) = (a as usize, b as usize);
                match kind {
                    0..=2 => {
                        let settler = ReplicaId((b % 4) as u32);
                        node.handle(settler, credit(settler, &bundles[a % bundles.len()]));
                    }
                    3 => {
                        // One Byzantine settler (≤ f, so never certified)
                        // vouches for the same ids at other amounts.
                        let mut bundle = bundles[a % bundles.len()].clone();
                        let at = b % bundle.len();
                        bundle[at].amount = Amount(bundle[at].amount.0 + 1000);
                        node.handle(ReplicaId(3), credit(ReplicaId(3), &bundle));
                    }
                    4 => {
                        let spender = clients[a % 3];
                        let seq = next_seq.entry(spender).or_insert(0);
                        let step = node.submit(Payment::new(spender.0, *seq, 77u64, 1u64));
                        prop_assert!(step.is_ok());
                        *seq += 1;
                        prop_assert_eq!(node.held_certificates(spender), 0);
                    }
                    5 => {
                        node.flush();
                    }
                    6 => {
                        if a % 2 == 0 {
                            // Materialization, as settlement journals it.
                            let bundle = &bundles[a / 2 % bundles.len()];
                            node.replay(&WalRecord::DepUsed { dep: bundle[b % bundle.len()] });
                        } else {
                            let state = node.export_state();
                            let (layout, config) = (layout.clone(), config.clone());
                            node = Node::new(mac(me), layout, config).restore(&state).unwrap();
                            node.set_journal(Box::new(sink.clone()));
                            next_seq.clear();
                        }
                    }
                    _ => {
                        let held_records = |r: &&WalRecord| {
                            matches!(r, WalRecord::Cert { .. } | WalRecord::CertsTaken { .. })
                        };
                        let journaled: Vec<WalRecord> =
                            sink.0.lock().unwrap().iter().filter(held_records).cloned().collect();
                        if !journaled.is_empty() {
                            node.replay(&journaled[a % journaled.len()]);
                        }
                    }
                }
                assert_index_matches_scan(&node, &clients, &bundles);
            }
        }
    }
}
