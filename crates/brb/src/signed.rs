//! Signature-based Byzantine reliable broadcast — the Astro II protocol
//! (paper §IV-A and Listing 6, after Malkhi & Reiter).
//!
//! Three phases, O(N) messages:
//!
//! 1. **PREPARE** — the broadcaster sends the payload to all replicas.
//! 2. **ACK** — on first receipt for an instance, a replica signs the
//!    payload digest and replies *only to the broadcaster*. A replica acks
//!    at most one payload per instance (the equivocation check).
//! 3. **COMMIT** — once the broadcaster gathers a Byzantine quorum (`2f+1`)
//!    of matching ACKs it sends everyone a COMMIT carrying the payload and
//!    the quorum of signatures. A replica delivers on the first valid
//!    COMMIT.
//!
//! **No totality**: a Byzantine broadcaster can send the COMMIT to an
//! arbitrary subset of replicas, so some correct replicas may deliver while
//! others never do. The payment layer compensates with the CREDIT /
//! dependency-certificate mechanism (`astro-core`), exactly as the paper
//! prescribes — see the `partial payments attack` test below for the
//! attack this enables when uncompensated.

use crate::{
    encoded_payload_digest, payload_digest, BrbConfig, Broadcast, Delivery, Dest, Envelope,
    FifoDelivery, InstanceId, Payload, Source, Step, Tag,
};
use astro_types::wire::{Wire, WireError};
use astro_types::{count_valid_signers, Authenticator, Group, ReplicaId};
use std::collections::HashMap;

type PayloadDigest = [u8; 32];

/// A broadcast payload with its instance id and its [`payload_digest`],
/// computed once: by the broadcaster from the value ([`Digested::new`]), or
/// by a receiver from the bytes it has just decoded, so a received payload
/// is never re-encoded to be hashed. The codec is canonical, so both give
/// the same digest. The fields are private: the digest always belongs to
/// the id and payload beside it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digested<P> {
    id: InstanceId,
    payload: P,
    digest: PayloadDigest,
}

impl<P: Payload> Digested<P> {
    /// Hashes `payload` for instance `id`.
    pub fn new(id: InstanceId, payload: P) -> Self {
        let digest = payload_digest(id, &payload);
        Digested { id, payload, digest }
    }
}

impl<P> Digested<P> {
    /// The instance the payload is broadcast in.
    pub fn id(&self) -> InstanceId {
        self.id
    }

    /// The payload.
    pub fn payload(&self) -> &P {
        &self.payload
    }

    /// `payload_digest(id, payload)`.
    pub fn digest(&self) -> &PayloadDigest {
        &self.digest
    }
}

/// Encoded as the id, then the payload. Decoding hashes the payload's
/// bytes as read from the frame.
impl<P: Wire> Wire for Digested<P> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.id.encode(buf);
        self.payload.encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let id = InstanceId::decode(buf)?;
        let start = *buf;
        let payload = P::decode(buf)?;
        let digest = encoded_payload_digest(id, &start[..start.len() - buf.len()]);
        Ok(Digested { id, payload, digest })
    }

    fn encoded_len(&self) -> usize {
        self.id.encoded_len() + self.payload.encoded_len()
    }
}

/// Protocol messages of the signature-based BRB, generic over the signature
/// type of the [`Authenticator`] in use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SignedMsg<P, S> {
    /// Phase 1: broadcaster disseminates the payload.
    Prepare(Digested<P>),
    /// Phase 2: signed acknowledgement, unicast back to the broadcaster.
    Ack {
        /// Instance identifier.
        id: InstanceId,
        /// Digest of the payload being acknowledged.
        digest: PayloadDigest,
        /// The replica's signature over the ack context.
        sig: S,
    },
    /// Phase 3: the commit certificate; carries the payload so replicas
    /// that missed the PREPARE can still deliver.
    Commit {
        /// The committed payload, with its instance id.
        body: Digested<P>,
        /// `2f+1` signatures from distinct replicas over the ack context.
        proof: Vec<(ReplicaId, S)>,
    },
}

impl<P: Wire, S: Wire> Wire for SignedMsg<P, S> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            SignedMsg::Prepare(body) => {
                buf.push(0);
                body.encode(buf);
            }
            SignedMsg::Ack { id, digest, sig } => {
                buf.push(1);
                id.encode(buf);
                digest.encode(buf);
                sig.encode(buf);
            }
            SignedMsg::Commit { body, proof } => {
                buf.push(2);
                body.encode(buf);
                proof.encode(buf);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(SignedMsg::Prepare(Digested::decode(buf)?)),
            1 => Ok(SignedMsg::Ack {
                id: InstanceId::decode(buf)?,
                digest: Wire::decode(buf)?,
                sig: S::decode(buf)?,
            }),
            2 => Ok(SignedMsg::Commit { body: Digested::decode(buf)?, proof: Wire::decode(buf)? }),
            _ => Err(WireError::InvalidValue("signed brb message tag")),
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            SignedMsg::Prepare(body) => body.encoded_len(),
            SignedMsg::Ack { id, digest, sig } => {
                id.encoded_len() + digest.encoded_len() + sig.encoded_len()
            }
            SignedMsg::Commit { body, proof } => body.encoded_len() + proof.encoded_len(),
        }
    }
}

/// The byte string an ACK signature covers: a 16-byte domain tag, the
/// instance id, the payload digest.
pub fn ack_context(id: InstanceId, digest: &PayloadDigest) -> [u8; 64] {
    let mut out = [0u8; 64];
    out[..16].copy_from_slice(b"astro-brb-ack-v1");
    out[16..24].copy_from_slice(&id.source.to_be_bytes());
    out[24..32].copy_from_slice(&id.tag.to_be_bytes());
    out[32..].copy_from_slice(digest);
    out
}

/// Receiver-side state for one instance.
#[derive(Debug)]
struct RecvInstance {
    /// The digest this replica acknowledged (at most one per instance).
    acked: Option<PayloadDigest>,
    delivered: bool,
}

/// Broadcaster-side state for one of our own instances.
#[derive(Debug)]
struct Outgoing<P, S> {
    body: Digested<P>,
    /// ACKs whose signatures have been verified (individually or as part
    /// of a batch).
    acks: HashMap<ReplicaId, S>,
    /// ACKs accumulated but not yet verified: signature checks are
    /// deferred until a quorum is *possible*, then done as one batch
    /// (`Authenticator::verify_all`) instead of one curve operation per
    /// ACK on the critical path.
    unverified: Vec<(ReplicaId, S)>,
    /// The peers whose ACKs went to a verify pool ahead of
    /// [`SignedBrb::handle`] ([`SignedBrb::claim_ack_check`]), at most
    /// `quorum − 1`; no state transition reads it.
    claimed: Vec<ReplicaId>,
    committed: bool,
}

/// One replica's state machine for the signature-based BRB.
#[derive(Debug)]
pub struct SignedBrb<P, A: Authenticator> {
    auth: A,
    cfg: Group,
    bind_source: bool,
    instances: HashMap<InstanceId, RecvInstance>,
    outgoing: HashMap<InstanceId, Outgoing<P, A::Sig>>,
    fifo: FifoDelivery<P>,
    /// Per-source garbage-collection watermark: every instance with
    /// `tag < floor` was delivered and pruned by [`Self::gc_delivered`].
    /// Messages for pruned instances are dropped outright, so pruning
    /// never re-opens (or re-delivers) an instance.
    gc_floor: HashMap<Source, Tag>,
}

impl<P: Payload, A: Authenticator> SignedBrb<P, A> {
    /// Creates the state machine; `auth` provides this replica's identity
    /// and signing capability.
    pub fn new(auth: A, cfg: Group, brb: BrbConfig) -> Self {
        SignedBrb {
            auth,
            cfg,
            bind_source: brb.bind_source,
            instances: HashMap::new(),
            outgoing: HashMap::new(),
            fifo: FifoDelivery::new(brb.order),
            gc_floor: HashMap::new(),
        }
    }

    /// True if `id` names an instance already delivered and pruned: its
    /// messages are dropped unread.
    pub fn pruned(&self, id: InstanceId) -> bool {
        id.tag < *self.gc_floor.get(&id.source).unwrap_or(&0)
    }

    /// The payload digest this replica ACKed for `id`, if it ACKed one.
    pub fn acked(&self, id: InstanceId) -> Option<&PayloadDigest> {
        self.instances.get(&id)?.acked.as_ref()
    }

    /// True if a verify pool should check `from`'s ACK of `digest` for
    /// `id` before [`Self::handle`] sees it; the signer is noted. Only
    /// the broadcaster of `id` claims, and only while the ACK can still
    /// count towards its quorum: before the COMMIT, for the payload it
    /// broadcast, and once per peer for at most `quorum − 1` peers (its
    /// own ACK is signed with [`Authenticator::sign_for_self`], so its
    /// verdict is already cached). An unclaimed ACK the quorum turns out to need —
    /// a claimed one was forged, say — is verified inline by the
    /// accumulated-ACK batch check, exactly as without a pool.
    pub fn claim_ack_check(
        &mut self,
        from: ReplicaId,
        id: InstanceId,
        digest: &PayloadDigest,
    ) -> bool {
        let peers_needed = self.cfg.quorum() - 1;
        if from == self.auth.me() || !self.cfg.contains(from) {
            return false;
        }
        let Some(outgoing) = self.outgoing.get_mut(&id) else { return false };
        if outgoing.committed
            || outgoing.body.digest != *digest
            || outgoing.claimed.len() >= peers_needed
            || outgoing.claimed.contains(&from)
        {
            return false;
        }
        outgoing.claimed.push(from);
        true
    }

    /// The local replica id.
    pub fn id(&self) -> ReplicaId {
        self.auth.me()
    }

    /// Initiates a broadcast of `payload` for instance `id`.
    pub fn broadcast(&mut self, id: InstanceId, payload: P) -> Step<P, SignedMsg<P, A::Sig>> {
        let body = Digested::new(id, payload);
        self.outgoing.insert(
            id,
            Outgoing {
                body: body.clone(),
                acks: HashMap::new(),
                unverified: Vec::new(),
                claimed: Vec::new(),
                committed: false,
            },
        );
        Step {
            outbound: vec![Envelope { to: Dest::All, msg: SignedMsg::Prepare(body) }],
            delivered: Vec::new(),
        }
    }

    /// Processes one inbound message. `from` must be the transport-
    /// authenticated sender (ACK signatures are additionally verified
    /// against the claimed signer).
    pub fn handle(
        &mut self,
        from: ReplicaId,
        msg: SignedMsg<P, A::Sig>,
    ) -> Step<P, SignedMsg<P, A::Sig>> {
        if !self.cfg.contains(from) {
            return Step::empty();
        }
        match msg {
            SignedMsg::Prepare(body) => {
                if self.bind_source && u64::from(from.0) != body.id.source {
                    return Step::empty();
                }
                if self.pruned(body.id) {
                    return Step::empty();
                }
                self.on_prepare(from, body.id, body.digest)
            }
            SignedMsg::Ack { id, digest, sig } => self.on_ack(from, id, digest, sig),
            SignedMsg::Commit { body, proof } => {
                if self.pruned(body.id) {
                    return Step::empty();
                }
                self.on_commit(body, proof)
            }
        }
    }

    fn on_prepare(
        &mut self,
        from: ReplicaId,
        id: InstanceId,
        digest: PayloadDigest,
    ) -> Step<P, SignedMsg<P, A::Sig>> {
        let instance =
            self.instances.entry(id).or_insert(RecvInstance { acked: None, delivered: false });
        match instance.acked {
            Some(acked) if acked != digest => {
                // Conflicting payload for an instance we already
                // acknowledged — the equivocation check (Listing 6: "q does
                // nothing").
                return Step::empty();
            }
            _ => {}
        }
        instance.acked = Some(digest);
        // The broadcaster acks its own PREPARE too. That ACK comes back to
        // this replica only, so its verdict may be noted at signing time;
        // the bytes are the same either way.
        let context = ack_context(id, &digest);
        let sig = if from == self.auth.me() {
            self.auth.sign_for_self(&context)
        } else {
            self.auth.sign(&context)
        };
        Step {
            outbound: vec![Envelope {
                to: Dest::One(from),
                msg: SignedMsg::Ack { id, digest, sig },
            }],
            delivered: Vec::new(),
        }
    }

    fn on_ack(
        &mut self,
        from: ReplicaId,
        id: InstanceId,
        digest: PayloadDigest,
        sig: A::Sig,
    ) -> Step<P, SignedMsg<P, A::Sig>> {
        let quorum = self.cfg.quorum();
        let Some(outgoing) = self.outgoing.get_mut(&id) else {
            return Step::empty();
        };
        if outgoing.committed || outgoing.body.digest != digest {
            return Step::empty();
        }
        if outgoing.acks.contains_key(&from) || outgoing.unverified.iter().any(|(r, _)| *r == from)
        {
            return Step::empty();
        }
        // Defer the signature check: accumulate until a quorum is
        // possible, then verify the whole pending set as one batch.
        outgoing.unverified.push((from, sig));
        if outgoing.acks.len() + outgoing.unverified.len() < quorum {
            return Step::empty();
        }
        let context = ack_context(id, &digest);
        let pending = std::mem::take(&mut outgoing.unverified);
        let refs: Vec<(ReplicaId, &A::Sig)> = pending.iter().map(|(r, s)| (*r, s)).collect();
        if self.auth.verify_all(&context, &refs) {
            outgoing.acks.extend(pending);
        } else {
            // At least one forgery in the batch: locate it (bisection
            // under Schnorr), keeping the honest ACKs. A dropped signer
            // may re-ack correctly later.
            let valid = self.auth.verify_each(&context, &refs);
            for ((replica, sig), ok) in pending.into_iter().zip(valid) {
                if ok {
                    outgoing.acks.insert(replica, sig);
                }
            }
        }
        if outgoing.acks.len() < quorum {
            return Step::empty();
        }
        outgoing.committed = true;
        let proof: Vec<(ReplicaId, A::Sig)> =
            outgoing.acks.iter().map(|(r, s)| (*r, s.clone())).collect();
        let body = outgoing.body.clone();
        Step {
            outbound: vec![Envelope { to: Dest::All, msg: SignedMsg::Commit { body, proof } }],
            delivered: Vec::new(),
        }
    }

    fn on_commit(
        &mut self,
        body: Digested<P>,
        proof: Vec<(ReplicaId, A::Sig)>,
    ) -> Step<P, SignedMsg<P, A::Sig>> {
        let id = body.id;
        {
            let instance =
                self.instances.entry(id).or_insert(RecvInstance { acked: None, delivered: false });
            if instance.delivered {
                return Step::empty();
            }
        }
        let context = ack_context(id, &body.digest);
        // Batched quorum-proof check: one batch verification over the
        // deduped member signatures, forgery-locating fallback on failure
        // (see `astro_types::count_valid_signers`).
        let valid = count_valid_signers(&self.auth, &context, &proof, |r| self.cfg.contains(r));
        if valid < self.cfg.quorum() {
            return Step::empty();
        }
        let instance = self.instances.get_mut(&id).expect("inserted above");
        instance.delivered = true;
        Step { outbound: Vec::new(), delivered: self.enqueue_delivery(id, body.payload) }
    }

    fn enqueue_delivery(&mut self, id: InstanceId, payload: P) -> Vec<Delivery<P>> {
        self.fifo.enqueue(id, payload)
    }

    /// Drops receiver and broadcaster state for instances of `source` with
    /// `tag < up_to`.
    pub fn gc_source(&mut self, source: Source, up_to: Tag) {
        self.instances.retain(|id, _| id.source != source || id.tag >= up_to);
        self.outgoing.retain(|id, _| id.source != source || id.tag >= up_to);
    }
}

impl<P: Payload, A: Authenticator> Broadcast for SignedBrb<P, A> {
    type Payload = P;
    type Msg = SignedMsg<P, A::Sig>;

    fn broadcast(&mut self, id: InstanceId, payload: P) -> Step<P, SignedMsg<P, A::Sig>> {
        Self::broadcast(self, id, payload)
    }

    fn handle(
        &mut self,
        from: ReplicaId,
        msg: SignedMsg<P, A::Sig>,
    ) -> Step<P, SignedMsg<P, A::Sig>> {
        Self::handle(self, from, msg)
    }

    fn tracked_instances(&self) -> usize {
        self.instances.len()
    }

    /// Prunes the contiguous *delivered* prefix of every source's
    /// instance stream and advances the per-source watermark, so a
    /// long-running replica's BRB memory stays bounded by the in-flight
    /// window instead of growing with history. Duplicate messages for a
    /// pruned instance are dropped at [`SignedBrb::handle`] (the watermark
    /// remembers delivery so pruning cannot re-open an instance).
    fn gc_delivered(&mut self) -> usize {
        let mut delivered: HashMap<Source, Vec<Tag>> = HashMap::new();
        for (id, inst) in &self.instances {
            if inst.delivered {
                delivered.entry(id.source).or_default().push(id.tag);
            }
        }
        let before = self.instances.len();
        for (source, mut tags) in delivered {
            tags.sort_unstable();
            let mut floor = *self.gc_floor.get(&source).unwrap_or(&0);
            for tag in tags {
                if tag == floor {
                    floor += 1;
                } else if tag > floor {
                    break; // gap: everything above stays.
                }
            }
            if floor > 0 {
                self.gc_source(source, floor);
                self.gc_floor.insert(source, floor);
            }
        }
        before - self.instances.len()
    }

    /// Empty in unordered mode, where re-deliveries are the payment
    /// layer's problem.
    fn delivery_cursors(&self) -> Vec<(Source, Tag)> {
        self.fifo.cursors()
    }

    fn advance_cursor(&mut self, source: Source, next: Tag) {
        self.fifo.advance(source, next);
    }

    /// A no-op returning nothing in unordered mode (Astro II's default),
    /// where nothing is ever gap-blocked.
    fn advance_cursor_releasing(&mut self, source: Source, next: Tag) -> Vec<Delivery<P>> {
        self.fifo.advance_releasing(source, next)
    }

    /// Tracked receiver instances, the GC watermark, or the FIFO cursor.
    fn source_high_water(&self, source: Source) -> Tag {
        let tracked = self
            .instances
            .keys()
            .filter(|id| id.source == source)
            .map(|id| id.tag + 1)
            .max()
            .unwrap_or(0);
        tracked.max(*self.gc_floor.get(&source).unwrap_or(&0)).max(self.fifo.cursor(source))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::Cluster;
    use crate::DeliveryOrder;
    use astro_crypto::Signature;
    use astro_types::{Keychain, MacAuthenticator, SchnorrAuthenticator, SigCheck, VerdictCache};
    use std::collections::HashSet;
    use std::sync::Arc;

    type MacBrb = SignedBrb<u64, MacAuthenticator>;

    fn mac_cluster(n: usize) -> Cluster<MacBrb> {
        let cfg = Group::of_size(n).unwrap();
        Cluster::new((0..n).map(|i| {
            SignedBrb::new(
                MacAuthenticator::new(ReplicaId(i as u32), b"cluster".to_vec()),
                cfg.clone(),
                BrbConfig { order: DeliveryOrder::Unordered, ..BrbConfig::default() },
            )
        }))
    }

    fn iid(source: Source, tag: Tag) -> InstanceId {
        InstanceId { source, tag }
    }

    #[test]
    fn all_replicas_deliver_with_correct_broadcaster() {
        let mut c = mac_cluster(4);
        let step = c.node_mut(1).broadcast(iid(7, 0), 99);
        c.submit(ReplicaId(1), step);
        c.run_to_quiescence();
        for i in 0..4 {
            assert_eq!(c.deliveries(i), &[Delivery { id: iid(7, 0), payload: 99 }]);
        }
    }

    #[test]
    fn works_with_real_schnorr_signatures() {
        let cfg = Group::of_size(4).unwrap();
        let chains = Keychain::deterministic_system(b"signed-brb", 4);
        let mut c = Cluster::new(chains.into_iter().map(|kc| {
            SignedBrb::<u64, _>::new(
                SchnorrAuthenticator::new(kc),
                cfg.clone(),
                BrbConfig::default(),
            )
        }));
        let step = c.node_mut(0).broadcast(iid(3, 0), 1234);
        c.submit(ReplicaId(0), step);
        c.run_to_quiescence();
        for i in 0..4 {
            assert_eq!(c.deliveries(i).len(), 1);
        }
    }

    #[test]
    fn source_verifies_only_its_peers_acks() {
        // Each replica has a verdict cache of its own. The source signs
        // its own ACK for itself, so reaching the quorum costs curve work
        // for the two peer ACKs only; a peer checking the COMMIT proof
        // still verifies every entry, its own ACK (sent to the source)
        // included.
        let cfg = Group::of_size(4).unwrap();
        let chains = Keychain::deterministic_system(b"self-ack", 4);
        let caches: Vec<Arc<VerdictCache>> =
            (0..4).map(|_| Arc::new(VerdictCache::new(64))).collect();
        let mut c = Cluster::new(chains.into_iter().zip(&caches).map(|(kc, cache)| {
            SignedBrb::<u64, _>::new(
                SchnorrAuthenticator::with_cache(kc, cache.clone()),
                cfg.clone(),
                BrbConfig::default(),
            )
        }));
        let step = c.node_mut(0).broadcast(iid(0, 0), 77);
        c.submit(ReplicaId(0), step);
        c.run_to_quiescence();
        for i in 0..4 {
            assert_eq!(c.deliveries(i).len(), 1, "replica {i}");
        }
        assert_eq!(caches[0].misses(), 2, "one miss per peer ACK in the quorum");
        for (i, cache) in caches.iter().enumerate().skip(1) {
            assert_eq!(cache.misses(), 3, "replica {i} checks the whole proof");
        }
    }

    #[test]
    fn forged_ack_in_accumulated_batch_is_located_and_dropped() {
        // ACK signatures are verified lazily as one batch once a quorum is
        // possible; a single forgery in the batch must be pinpointed by
        // the one-by-one fallback without blocking the eventual commit.
        let cfg = Group::of_size(4).unwrap();
        let chains = Keychain::deterministic_system(b"batch-acks", 4);
        let auths: Vec<SchnorrAuthenticator> =
            chains.into_iter().map(SchnorrAuthenticator::new).collect();
        let mut node0 = SignedBrb::<u64, _>::new(auths[0].clone(), cfg, BrbConfig::default());
        let id = iid(0, 0);
        let _prepare = node0.broadcast(id, 42);
        let digest = payload_digest(id, &42u64);
        let ctx = ack_context(id, &digest);

        // Byzantine replica 3 acks with a signature over the wrong bytes.
        let forged = auths[3].sign(b"not the ack context");
        assert!(node0.handle(ReplicaId(3), SignedMsg::Ack { id, digest, sig: forged }).is_empty());
        // Two genuine acks: at the third accumulated ACK a quorum is
        // possible, the batch check fails, and the fallback keeps only
        // the two honest signatures — still below quorum, no commit.
        let sig1 = auths[1].sign(&ctx);
        assert!(node0.handle(ReplicaId(1), SignedMsg::Ack { id, digest, sig: sig1 }).is_empty());
        let sig2 = auths[2].sign(&ctx);
        assert!(node0.handle(ReplicaId(2), SignedMsg::Ack { id, digest, sig: sig2 }).is_empty());
        // The broadcaster's own ack completes a genuine quorum.
        let sig0 = auths[0].sign(&ctx);
        let step = node0.handle(ReplicaId(0), SignedMsg::Ack { id, digest, sig: sig0 });
        assert_eq!(step.outbound.len(), 1, "quorum of honest acks must commit");
        let SignedMsg::Commit { proof, .. } = &step.outbound[0].msg else {
            panic!("expected a commit");
        };
        let signers: HashSet<ReplicaId> = proof.iter().map(|(r, _)| *r).collect();
        assert_eq!(
            signers,
            [ReplicaId(0), ReplicaId(1), ReplicaId(2)].into_iter().collect(),
            "the forged ack must not appear in the commit proof"
        );
    }

    #[test]
    fn dropped_forged_ack_signer_may_reack_correctly() {
        // After the fallback drops a forged ACK, a later valid ACK from
        // the same replica is accepted (the forgery is not remembered
        // against the signer).
        let cfg = Group::of_size(4).unwrap();
        let chains = Keychain::deterministic_system(b"reack", 4);
        let auths: Vec<SchnorrAuthenticator> =
            chains.into_iter().map(SchnorrAuthenticator::new).collect();
        let mut node0 = SignedBrb::<u64, _>::new(auths[0].clone(), cfg, BrbConfig::default());
        let id = iid(0, 0);
        let _prepare = node0.broadcast(id, 7);
        let digest = payload_digest(id, &7u64);
        let ctx = ack_context(id, &digest);
        let forged = auths[2].sign(b"garbage");
        node0.handle(ReplicaId(2), SignedMsg::Ack { id, digest, sig: forged });
        node0.handle(ReplicaId(1), SignedMsg::Ack { id, digest, sig: auths[1].sign(&ctx) });
        // Third ACK triggers the failing batch; 2's forgery is dropped.
        node0.handle(ReplicaId(0), SignedMsg::Ack { id, digest, sig: auths[0].sign(&ctx) });
        // 2 re-acks correctly: 0, 1, 2 now form a quorum.
        let step =
            node0.handle(ReplicaId(2), SignedMsg::Ack { id, digest, sig: auths[2].sign(&ctx) });
        assert_eq!(step.outbound.len(), 1, "re-acked quorum must commit");
    }

    /// Verifies `checks` into `cache`, as a verify pool would.
    fn pool_verify(
        keychain: &Keychain,
        cache: &VerdictCache,
        checks: &[(ReplicaId, &[u8], &Signature)],
    ) {
        for (signer, context, sig) in checks {
            let check = SigCheck { signer: *signer, context: (*context).into(), sig: **sig };
            cache.insert(check.cache_key(), keychain.verify(*signer, context, sig));
        }
    }

    #[test]
    fn broadcaster_claims_at_most_quorum_minus_one_peer_ack_checks() {
        let cfg = Group::of_size(4).unwrap();
        let mut node0 = SignedBrb::<u64, _>::new(
            MacAuthenticator::new(ReplicaId(0), b"cluster".to_vec()),
            cfg,
            BrbConfig::default(),
        );
        let id = iid(0, 0);
        let _prepare = node0.broadcast(id, 42);
        let digest = payload_digest(id, &42u64);
        // Nothing for its own ACK, another payload, another instance or
        // a non-member.
        assert!(!node0.claim_ack_check(ReplicaId(0), id, &digest));
        assert!(!node0.claim_ack_check(ReplicaId(1), id, &payload_digest(id, &43u64)));
        assert!(!node0.claim_ack_check(ReplicaId(1), iid(0, 1), &digest));
        assert!(!node0.claim_ack_check(ReplicaId(9), id, &digest));
        let claimed: Vec<bool> =
            (1..4).map(|r| node0.claim_ack_check(ReplicaId(r), id, &digest)).collect();
        assert_eq!(claimed, [true, true, false], "quorum − 1 = 2 peer ACKs per instance");
        // A second instance counts afresh; after its COMMIT it claims none.
        let next = iid(0, 1);
        let _prepare = node0.broadcast(next, 7);
        let digest = payload_digest(next, &7u64);
        let ctx = ack_context(next, &digest);
        for r in 0..3u32 {
            let sig = MacAuthenticator::new(ReplicaId(r), b"cluster".to_vec()).sign(&ctx);
            node0.handle(ReplicaId(r), SignedMsg::Ack { id: next, digest, sig });
        }
        assert!(node0.outgoing[&next].committed);
        assert!(!node0.claim_ack_check(ReplicaId(3), next, &digest));
    }

    #[test]
    fn a_repeated_ack_claims_no_second_check() {
        // Peer 1's ACK arrives twice: its second copy claims nothing, so
        // the check it would have taken goes to peer 2.
        let mut node0 = SignedBrb::<u64, _>::new(
            MacAuthenticator::new(ReplicaId(0), b"cluster".to_vec()),
            Group::of_size(4).unwrap(),
            BrbConfig::default(),
        );
        let id = iid(0, 0);
        let _prepare = node0.broadcast(id, 42);
        let digest = payload_digest(id, &42u64);
        let claimed: Vec<bool> =
            [1, 1, 2].map(|r| node0.claim_ack_check(ReplicaId(r), id, &digest)).to_vec();
        assert_eq!(claimed, [true, false, true], "quorum − 1 = 2 distinct peer signers");
    }

    #[test]
    fn forged_claimed_ack_still_ends_in_a_valid_commit() {
        // The pool checks the two claimed peer ACKs; one is forged. The
        // third peer's ACK was not claimed, so the accumulated-ACK batch
        // verifies it inline, and the COMMIT's proof leaves the forgery
        // out.
        let cfg = Group::of_size(4).unwrap();
        let chains = Keychain::deterministic_system(b"claim-forged", 4);
        let cache = Arc::new(VerdictCache::new(64));
        let mut node0 = SignedBrb::<u64, _>::new(
            SchnorrAuthenticator::with_cache(chains[0].clone(), cache.clone()),
            cfg.clone(),
            BrbConfig::default(),
        );
        let id = iid(0, 0);
        let step = node0.broadcast(id, 42);
        let SignedMsg::Prepare(body) = &step.outbound[0].msg else { panic!("expected a prepare") };
        let own = node0.handle(ReplicaId(0), SignedMsg::Prepare(body.clone()));
        let digest = payload_digest(id, &42u64);
        let ctx = ack_context(id, &digest);
        let forged = chains[1].sign(b"not the ack context");
        let honest2 = chains[2].sign(&ctx);
        let honest3 = chains[3].sign(&ctx);
        assert!(node0.claim_ack_check(ReplicaId(1), id, &digest));
        assert!(node0.claim_ack_check(ReplicaId(2), id, &digest));
        assert!(!node0.claim_ack_check(ReplicaId(3), id, &digest));
        pool_verify(
            &chains[0],
            &cache,
            &[(ReplicaId(1), &ctx, &forged), (ReplicaId(2), &ctx, &honest2)],
        );
        for env in own.outbound {
            assert!(node0.handle(ReplicaId(0), env.msg).is_empty());
        }
        assert!(node0.handle(ReplicaId(1), SignedMsg::Ack { id, digest, sig: forged }).is_empty());
        assert!(node0.handle(ReplicaId(2), SignedMsg::Ack { id, digest, sig: honest2 }).is_empty());
        let misses = cache.misses();
        let step = node0.handle(ReplicaId(3), SignedMsg::Ack { id, digest, sig: honest3 });
        assert_eq!(cache.misses(), misses + 1, "the unclaimed ACK is verified inline");
        let SignedMsg::Commit { proof, .. } = &step.outbound[0].msg else {
            panic!("expected a commit");
        };
        let signers: HashSet<ReplicaId> = proof.iter().map(|(r, _)| *r).collect();
        assert_eq!(signers, [ReplicaId(0), ReplicaId(2), ReplicaId(3)].into_iter().collect());
        let fresh = SchnorrAuthenticator::new(chains[1].clone());
        assert_eq!(count_valid_signers(&fresh, &ctx, proof, |r| cfg.contains(r)), 3);
    }

    #[test]
    fn linear_message_complexity() {
        // Per broadcast: N prepares + N acks + N commits = 3N messages,
        // versus Bracha's N + N² + N². Assert the O(N) behaviour.
        let n = 10;
        let mut c = mac_cluster(n);
        let step = c.node_mut(0).broadcast(iid(1, 0), 5);
        c.submit(ReplicaId(0), step);
        c.run_to_quiescence();
        assert_eq!(c.messages_processed(), 3 * n as u64);
    }

    #[test]
    fn equivocating_broadcaster_delivers_at_most_one_payload() {
        let mut c = mac_cluster(4);
        let id = iid(9, 0);
        // Byzantine node 0 prepares payload 1 at replicas 1,2 and payload 2
        // at replica 3.
        c.inject(ReplicaId(0), ReplicaId(1), SignedMsg::Prepare(Digested::new(id, 1)));
        c.inject(ReplicaId(0), ReplicaId(2), SignedMsg::Prepare(Digested::new(id, 1)));
        c.inject(ReplicaId(0), ReplicaId(3), SignedMsg::Prepare(Digested::new(id, 2)));
        c.run_to_quiescence();
        let mut seen = std::collections::HashSet::new();
        for i in 0..4 {
            for d in c.deliveries(i) {
                seen.insert(d.payload);
            }
        }
        assert!(seen.len() <= 1, "conflicting deliveries: {seen:?}");
    }

    #[test]
    fn partial_payments_attack_without_totality() {
        // The attack of paper §IV: a Byzantine broadcaster completes the
        // protocol but sends the COMMIT to a single replica. That replica
        // delivers; the others never do. This test documents the missing
        // totality that astro-core's CREDIT certificates compensate for.
        let mut c = mac_cluster(4);
        // Drop commits except those to replica 1.
        c.set_filter(|from, to, msg| {
            !(from == ReplicaId(0) && to != ReplicaId(1) && matches!(msg, SignedMsg::Commit { .. }))
        });
        let step = c.node_mut(0).broadcast(iid(5, 0), 10);
        c.submit(ReplicaId(0), step);
        c.run_to_quiescence();
        assert_eq!(c.deliveries(1).len(), 1, "victim replica delivered");
        for i in [0usize, 2, 3] {
            assert!(c.deliveries(i).is_empty(), "replica {i} must not deliver");
        }
    }

    #[test]
    fn commit_with_insufficient_proof_rejected() {
        let mut c = mac_cluster(4);
        let id = iid(2, 0);
        let payload = 7u64;
        let digest = payload_digest(id, &payload);
        let ctx = ack_context(id, &digest);
        // Forge a commit with only 2 signatures (quorum is 3).
        let sigs: Vec<(ReplicaId, _)> = (0..2u32)
            .map(|i| {
                let a = MacAuthenticator::new(ReplicaId(i), b"cluster".to_vec());
                (ReplicaId(i), a.sign(&ctx))
            })
            .collect();
        c.inject(
            ReplicaId(0),
            ReplicaId(1),
            SignedMsg::Commit { body: Digested::new(id, payload), proof: sigs },
        );
        c.run_to_quiescence();
        assert!(c.deliveries(1).is_empty());
    }

    #[test]
    fn commit_with_duplicate_signers_rejected() {
        let mut c = mac_cluster(4);
        let id = iid(2, 1);
        let payload = 7u64;
        let digest = payload_digest(id, &payload);
        let ctx = ack_context(id, &digest);
        let a0 = MacAuthenticator::new(ReplicaId(0), b"cluster".to_vec());
        let sig = a0.sign(&ctx);
        // Three copies of the same signer must not count as a quorum.
        let proof =
            vec![(ReplicaId(0), sig.clone()), (ReplicaId(0), sig.clone()), (ReplicaId(0), sig)];
        c.inject(
            ReplicaId(0),
            ReplicaId(1),
            SignedMsg::Commit { body: Digested::new(id, payload), proof },
        );
        c.run_to_quiescence();
        assert!(c.deliveries(1).is_empty());
    }

    #[test]
    fn commit_with_wrong_payload_signatures_rejected() {
        let mut c = mac_cluster(4);
        let id = iid(2, 2);
        let real = 7u64;
        let forged = 8u64;
        let digest = payload_digest(id, &real);
        let ctx = ack_context(id, &digest);
        let proof: Vec<(ReplicaId, _)> = (0..3u32)
            .map(|i| {
                let a = MacAuthenticator::new(ReplicaId(i), b"cluster".to_vec());
                (ReplicaId(i), a.sign(&ctx))
            })
            .collect();
        // Signatures cover `real`, but the commit carries `forged`.
        c.inject(
            ReplicaId(0),
            ReplicaId(1),
            SignedMsg::Commit { body: Digested::new(id, forged), proof },
        );
        c.run_to_quiescence();
        assert!(c.deliveries(1).is_empty());
    }

    #[test]
    fn forged_ack_does_not_count() {
        // Node 0 broadcasts; an attacker replays node 2's identity with a
        // bad signature. The broadcaster must not commit from forged acks.
        let cfg = Group::of_size(4).unwrap();
        let mut node0 = SignedBrb::<u64, _>::new(
            MacAuthenticator::new(ReplicaId(0), b"cluster".to_vec()),
            cfg,
            BrbConfig::default(),
        );
        let id = iid(1, 0);
        let _ = node0.broadcast(id, 5);
        let digest = payload_digest(id, &5u64);
        let wrong_auth = MacAuthenticator::new(ReplicaId(3), b"cluster".to_vec());
        let bad_sig = wrong_auth.sign(&ack_context(id, &digest));
        // Claimed sender 1 but signature from 3: must be ignored.
        let step = node0.handle(ReplicaId(1), SignedMsg::Ack { id, digest, sig: bad_sig });
        assert!(step.is_empty());
    }

    #[test]
    fn delivers_once_despite_duplicate_commits() {
        let mut c = mac_cluster(4);
        let step = c.node_mut(0).broadcast(iid(6, 0), 11);
        c.submit(ReplicaId(0), step.clone());
        c.run_to_quiescence();
        // Re-broadcast the same instance (duplicate prepare/ack/commit).
        let step2 = c.node_mut(0).broadcast(iid(6, 0), 11);
        c.submit(ReplicaId(0), step2);
        c.run_to_quiescence();
        for i in 0..4 {
            assert_eq!(c.deliveries(i).len(), 1, "replica {i}");
        }
    }

    #[test]
    fn fifo_mode_orders_per_source() {
        let cfg = Group::of_size(4).unwrap();
        let mut c = Cluster::new((0..4).map(|i| {
            SignedBrb::<u64, _>::new(
                MacAuthenticator::new(ReplicaId(i as u32), b"cluster".to_vec()),
                cfg.clone(),
                BrbConfig { order: DeliveryOrder::FifoPerSource, ..BrbConfig::default() },
            )
        }));
        let s1 = c.node_mut(0).broadcast(iid(4, 1), 11);
        c.submit(ReplicaId(0), s1);
        c.run_to_quiescence();
        for i in 0..4 {
            assert!(c.deliveries(i).is_empty());
        }
        let s0 = c.node_mut(0).broadcast(iid(4, 0), 10);
        c.submit(ReplicaId(0), s0);
        c.run_to_quiescence();
        for i in 0..4 {
            let tags: Vec<Tag> = c.deliveries(i).iter().map(|d| d.id.tag).collect();
            assert_eq!(tags, vec![0, 1]);
        }
    }

    #[test]
    fn wire_round_trip_all_variants() {
        use astro_types::wire::decode_exact;
        let auth = MacAuthenticator::new(ReplicaId(0), b"wire".to_vec());
        let id = iid(3, 4);
        let digest = payload_digest(id, &9u64);
        let sig = auth.sign(&ack_context(id, &digest));
        type Msg = SignedMsg<u64, astro_types::auth::SimSig>;
        let msgs: Vec<Msg> = vec![
            SignedMsg::Prepare(Digested::new(id, 7u64)),
            SignedMsg::Ack { id, digest, sig: sig.clone() },
            SignedMsg::Commit { body: Digested::new(id, 9u64), proof: vec![(ReplicaId(0), sig)] },
        ];
        for msg in msgs {
            let bytes = msg.to_wire_bytes();
            assert_eq!(bytes.len(), msg.encoded_len());
            assert_eq!(decode_exact::<Msg>(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn gc_drops_instance_state() {
        let mut c = mac_cluster(4);
        for tag in 0..3 {
            let step = c.node_mut(0).broadcast(iid(1, tag), tag);
            c.submit(ReplicaId(0), step);
        }
        c.run_to_quiescence();
        assert!(c.node_mut(0).tracked_instances() >= 3);
        c.node_mut(0).gc_source(1, 3);
        assert_eq!(c.node_mut(0).tracked_instances(), 0);
    }

    #[test]
    fn gc_delivered_prunes_contiguous_prefix_only() {
        let mut c = mac_cluster(4);
        // Deliver tags 0..4 of source 0 at every replica.
        for tag in 0..4 {
            let step = c.node_mut(0).broadcast(iid(0, tag), tag);
            c.submit(ReplicaId(0), step);
        }
        c.run_to_quiescence();
        let node1 = c.node_mut(1);
        assert_eq!(node1.tracked_instances(), 4);
        let pruned = node1.gc_delivered();
        assert_eq!(pruned, 4, "whole delivered prefix pruned");
        assert_eq!(node1.tracked_instances(), 0);
        // A gap stops the watermark: deliver tag 6 (not 4/5) next.
        let step = c.node_mut(0).broadcast(iid(0, 6), 6);
        c.submit(ReplicaId(0), step);
        c.run_to_quiescence();
        let node1 = c.node_mut(1);
        assert_eq!(node1.tracked_instances(), 1);
        assert_eq!(node1.gc_delivered(), 0, "tag 6 sits past the gap at 4");
        assert_eq!(node1.tracked_instances(), 1);
    }

    #[test]
    fn pruned_instances_do_not_redeliver() {
        // After gc, a replayed COMMIT for a pruned instance must be
        // dropped — the watermark remembers delivery, so pruning cannot
        // reset the delivered flag.
        let mut c = mac_cluster(4);
        let id = iid(0, 0);
        let payload = 42u64;
        let step = c.node_mut(0).broadcast(id, payload);
        c.submit(ReplicaId(0), step);
        c.run_to_quiescence();
        assert_eq!(c.deliveries(1).len(), 1);
        assert_eq!(c.node_mut(1).gc_delivered(), 1);
        // Replay a fully valid commit for the pruned instance.
        let digest = payload_digest(id, &payload);
        let ctx = ack_context(id, &digest);
        let proof: Vec<(ReplicaId, _)> = (0..3u32)
            .map(|i| {
                let a = MacAuthenticator::new(ReplicaId(i), b"cluster".to_vec());
                (ReplicaId(i), a.sign(&ctx))
            })
            .collect();
        c.inject(
            ReplicaId(0),
            ReplicaId(1),
            SignedMsg::Commit { body: Digested::new(id, payload), proof },
        );
        c.run_to_quiescence();
        assert_eq!(c.deliveries(1).len(), 1, "replayed commit must not re-deliver");
        assert_eq!(c.node_mut(1).tracked_instances(), 0, "and must not re-open state");
    }
}
