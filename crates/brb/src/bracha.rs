//! Bracha's echo-based Byzantine reliable broadcast — the Astro I protocol
//! (paper §IV-A, Listing 5) — with ECHO and READY carrying a digest, as in
//! the reliable broadcast of Cachin, Kursawe, Petzold and Shoup (CRYPTO
//! 2001). Over authenticated links:
//!
//! 1. **PREPARE** — the broadcaster sends the payload to all replicas.
//! 2. **ECHO** — on the first PREPARE it sees for an instance a replica
//!    keeps that payload and echoes its digest to everyone, at most once
//!    per instance, which is what blocks equivocation.
//! 3. **READY** — on `2f+1` ECHOes for one digest, or `f+1` READYs for it
//!    (amplification), a replica sends READY for that digest to all.
//!    `2f+1` READYs complete the instance; it delivers, FIFO within each
//!    source, once the replica holds the payload behind the digest.
//! 4. **REQUEST / ANSWER** — a replica that completes without that payload
//!    (PREPARE lost, withheld, or conflicting with the one it echoed) asks
//!    the replicas whose ECHO or READY vouched for the digest and takes the
//!    first ANSWER that hashes to it. A READY quorum always contains a
//!    correct replica that echoed the digest (`quorum + (quorum − f) > n`),
//!    and a correct echoer holds the payload.
//!
//! This changes Listing 5's wire format, not its properties: a digest binds
//! instance and payload, so validity, consistency, totality and integrity
//! are argued as for the original. The payload crosses each link once —
//! O(N·|m| + N²·32) bytes per broadcast, not O(N²·|m|) — and a fault-free
//! run sends the same messages as before and, unless relayed votes outrun
//! a PREPARE's own link, never a REQUEST.
//!
//! An instance keeps one payload (the first PREPARE's, or a fetched one)
//! and each member's first ECHO and first READY. Unanswered requests are
//! re-sent by [`BrachaBrb::retry_pulls`] on the caller's timer; after
//! [`PULL_ROUNDS`] silent rounds every holder has pruned the instance and
//! the caller falls back to state transfer (Astro I: peer catch-up).

use crate::{
    payload_digest, BrbConfig, Broadcast, Delivery, Dest, Envelope, FifoDelivery, InstanceId,
    Payload, Source, Step, Tag,
};
use astro_types::wire::{Wire, WireError};
use astro_types::{Group, ReplicaId};
use std::collections::{BTreeSet, HashMap};

type PayloadDigest = [u8; 32];

/// Request rounds (the first included) a pull may go unanswered before
/// [`BrachaBrb::retry_pulls`] reports it exhausted, and the ANSWERs a holder
/// sends one requester per instance: every round of a correct requester can
/// be answered, and a Byzantine one gets a bounded number of payloads for
/// its 49-byte REQUESTs.
pub const PULL_ROUNDS: u8 = 4;

/// Protocol messages of the echo-based BRB. Only `Prepare` and `Answer`
/// carry the payload; the votes carry its instance-bound
/// [`payload_digest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrachaMsg<P> {
    /// Phase 1: broadcaster disseminates the payload.
    Prepare {
        /// Instance identifier `(s, n)`.
        id: InstanceId,
        /// The broadcast payload.
        payload: P,
    },
    /// Phase 2: the digest of the first-seen payload is echoed to everyone.
    Echo {
        /// Instance identifier.
        id: InstanceId,
        /// Digest of the echoed payload.
        digest: [u8; 32],
    },
    /// Phase 3: quorum confirmation; `2f+1` of these complete the instance.
    Ready {
        /// Instance identifier.
        id: InstanceId,
        /// Digest of the confirmed payload.
        digest: [u8; 32],
    },
    /// Asks a replica that vouched for `digest` for the payload behind it.
    Request {
        /// Instance identifier.
        id: InstanceId,
        /// Digest of the wanted payload.
        digest: [u8; 32],
    },
    /// Reply to a `Request`; the requester checks it against the digest.
    Answer {
        /// Instance identifier.
        id: InstanceId,
        /// The requested payload.
        payload: P,
    },
}

/// `tag ‖ id ‖ body`: the layout of every Bracha message.
fn put(buf: &mut Vec<u8>, tag: u8, id: &InstanceId, body: &impl Wire) {
    buf.push(tag);
    id.encode(buf);
    body.encode(buf);
}

impl<P: Wire> Wire for BrachaMsg<P> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            BrachaMsg::Prepare { id, payload } => put(buf, 0, id, payload),
            BrachaMsg::Echo { id, digest } => put(buf, 1, id, digest),
            BrachaMsg::Ready { id, digest } => put(buf, 2, id, digest),
            BrachaMsg::Request { id, digest } => put(buf, 3, id, digest),
            BrachaMsg::Answer { id, payload } => put(buf, 4, id, payload),
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let tag = u8::decode(buf)?;
        let id = InstanceId::decode(buf)?;
        match tag {
            0 => Ok(BrachaMsg::Prepare { id, payload: P::decode(buf)? }),
            1 => Ok(BrachaMsg::Echo { id, digest: Wire::decode(buf)? }),
            2 => Ok(BrachaMsg::Ready { id, digest: Wire::decode(buf)? }),
            3 => Ok(BrachaMsg::Request { id, digest: Wire::decode(buf)? }),
            4 => Ok(BrachaMsg::Answer { id, payload: P::decode(buf)? }),
            _ => Err(WireError::InvalidValue("bracha message tag")),
        }
    }

    fn encoded_len(&self) -> usize {
        let body = match self {
            BrachaMsg::Prepare { payload, .. } | BrachaMsg::Answer { payload, .. } => {
                payload.encoded_len()
            }
            BrachaMsg::Echo { .. } | BrachaMsg::Ready { .. } | BrachaMsg::Request { .. } => 32,
        };
        1 + 16 + body
    }
}

/// Vote kinds, indexing [`Tally::votes`].
const ECHO: usize = 0;
const READY: usize = 1;

/// The members whose first ECHO / first READY named one digest, as
/// bitmasks over the group index.
#[derive(Debug)]
struct Tally {
    digest: PayloadDigest,
    votes: [u128; 2],
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Collecting votes; no digest has `2f+1` READYs yet.
    Voting,
    /// `2f+1` READYs named `digest` and the payload behind it is not held:
    /// a pull is outstanding, `rounds` request rounds sent so far.
    Awaiting { digest: PayloadDigest, rounds: u8 },
    /// Handed to the delivery layer; blocks double delivery. The payload
    /// stays until the instance is pruned, to answer peers' requests.
    Done,
}

/// Per-instance protocol state: at most one ECHO and one READY digest per
/// member plus one payload, whatever a Byzantine member sends.
#[derive(Debug)]
struct Instance<P> {
    echo_sent: bool,
    ready_sent: bool,
    /// One entry per distinct digest some member's first ECHO or first
    /// READY named (one entry unless the broadcaster equivocates).
    tallies: Vec<Tally>,
    /// The one payload kept: the first PREPARE's, or the fetched one if
    /// the READY quorum settled on a different digest.
    held: Option<(PayloadDigest, P)>,
    phase: Phase,
    /// `answered[k]`: the members already sent more than `k` ANSWERs.
    answered: [u128; PULL_ROUNDS as usize],
}

impl<P> Default for Instance<P> {
    fn default() -> Self {
        Instance {
            echo_sent: false,
            ready_sent: false,
            tallies: Vec::new(),
            held: None,
            phase: Phase::Voting,
            answered: [0; PULL_ROUNDS as usize],
        }
    }
}

/// One replica's state machine for the echo-based BRB.
///
/// Assumes an authenticated transport: the `from` argument of
/// [`BrachaBrb::handle`] must be the verified sender identity (Astro I uses
/// pairwise MACs for this; see `astro_crypto::hmac::MacKey`).
#[derive(Debug)]
pub struct BrachaBrb<P> {
    me: ReplicaId,
    cfg: Group,
    bind_source: bool,
    instances: HashMap<InstanceId, Instance<P>>,
    /// Instances in [`Phase::Awaiting`] that [`Self::retry_pulls`] still
    /// drives (usually empty).
    pulls: BTreeSet<InstanceId>,
    fifo: FifoDelivery<P>,
}

impl<P: Payload> BrachaBrb<P> {
    /// Creates the state machine for replica `me` in group `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the group has more than 128 members, the voter masks' width
    /// (the paper's largest deployment is 100).
    pub fn new(me: ReplicaId, cfg: Group, brb: BrbConfig) -> Self {
        assert!(cfg.n() <= 128, "Bracha voter masks hold 128 members, group has {}", cfg.n());
        BrachaBrb {
            me,
            cfg,
            bind_source: brb.bind_source,
            instances: HashMap::new(),
            pulls: BTreeSet::new(),
            fifo: FifoDelivery::new(brb.order),
        }
    }

    /// The local replica id.
    pub fn id(&self) -> ReplicaId {
        self.me
    }

    /// Completed instances still waiting for their payload; while there
    /// are any, the caller keeps calling [`Self::retry_pulls`] on a timer.
    pub fn pulls_outstanding(&self) -> usize {
        self.pulls.len()
    }

    /// Initiates a broadcast of `payload` for `id`.
    ///
    /// The returned step contains the PREPARE for all replicas (including
    /// the local one: the transport loops it back, and the local ECHO
    /// happens on receipt).
    pub fn broadcast(&mut self, id: InstanceId, payload: P) -> Step<P, BrachaMsg<P>> {
        Step {
            outbound: vec![Envelope { to: Dest::All, msg: BrachaMsg::Prepare { id, payload } }],
            delivered: Vec::new(),
        }
    }

    /// Processes one authenticated inbound message.
    pub fn handle(&mut self, from: ReplicaId, msg: BrachaMsg<P>) -> Step<P, BrachaMsg<P>> {
        let Ok(sender) = self.cfg.members().binary_search(&from) else {
            return Step::empty();
        };
        match msg {
            BrachaMsg::Prepare { id, payload } => {
                if self.bind_source && u64::from(from.0) != id.source {
                    return Step::empty();
                }
                self.on_prepare(id, payload)
            }
            BrachaMsg::Echo { id, digest } => self.on_vote(sender, id, digest, ECHO),
            BrachaMsg::Ready { id, digest } => self.on_vote(sender, id, digest, READY),
            BrachaMsg::Request { id, digest } => self.on_request(sender, from, id, digest),
            BrachaMsg::Answer { id, payload } => {
                Step { outbound: Vec::new(), delivered: self.offer(id, payload) }
            }
        }
    }

    fn on_prepare(&mut self, id: InstanceId, payload: P) -> Step<P, BrachaMsg<P>> {
        let instance = self.instances.entry(id).or_default();
        let mut outbound = Vec::new();
        // Echo at most once per instance: this is the consistency check
        // that stops a spender announcing two conflicting payments for one
        // sequence number (paper §I).
        if !instance.echo_sent && instance.phase != Phase::Done {
            instance.echo_sent = true;
            let digest = payload_digest(id, &payload);
            outbound.push(Envelope { to: Dest::All, msg: BrachaMsg::Echo { id, digest } });
            if instance.phase == Phase::Voting {
                instance.held = Some((digest, payload));
                return Step { outbound, delivered: Vec::new() };
            }
        }
        // A late or repeated PREPARE can still be the payload an
        // outstanding pull is waiting for.
        Step { outbound, delivered: self.offer(id, payload) }
    }

    /// Counts `sender`'s vote of `kind` ([`ECHO`] or [`READY`]) for `digest`.
    fn on_vote(
        &mut self,
        sender: usize,
        id: InstanceId,
        digest: PayloadDigest,
        kind: usize,
    ) -> Step<P, BrachaMsg<P>> {
        let (quorum, amplify) = (self.cfg.quorum(), self.cfg.small_quorum());
        let instance = self.instances.entry(id).or_default();
        let bit = 1u128 << sender;
        // A correct replica sends one ECHO and one READY per instance:
        // only a member's first of each counts, so no member can grow the
        // instance's state beyond its own two votes.
        if instance.phase == Phase::Done
            || instance.tallies.iter().any(|t| t.votes[kind] & bit != 0)
        {
            return Step::empty();
        }
        let at = instance.tallies.iter().position(|t| t.digest == digest).unwrap_or_else(|| {
            instance.tallies.push(Tally { digest, votes: [0; 2] });
            instance.tallies.len() - 1
        });
        let tally = &mut instance.tallies[at];
        tally.votes[kind] |= bit;
        let [echoes, readys] = tally.votes.map(|v| v.count_ones() as usize);

        let mut step = Step::empty();
        if !instance.ready_sent && (echoes >= quorum || readys >= amplify) {
            // READY amplification — together with completion at 2f+1 this
            // yields totality: a completing replica has 2f+1 READYs, at
            // least f+1 from correct replicas, which every correct replica
            // eventually receives and amplifies.
            instance.ready_sent = true;
            step.outbound.push(Envelope { to: Dest::All, msg: BrachaMsg::Ready { id, digest } });
        }
        if readys >= quorum && instance.phase == Phase::Voting {
            match &instance.held {
                Some((held, payload)) if *held == digest => {
                    instance.phase = Phase::Done;
                    step.delivered = self.fifo.enqueue(id, payload.clone());
                }
                _ => {
                    // The quorum settled on a payload this replica does not
                    // hold (a conflicting one it echoed is dead weight now).
                    instance.held = None;
                    instance.phase = Phase::Awaiting { digest, rounds: 1 };
                    self.pulls.insert(id);
                    step.outbound.extend(requests(&self.cfg, self.me, id, &instance.tallies[at]));
                }
            }
        }
        step
    }

    /// Serves a REQUEST from the held payload. An unknown or pruned
    /// instance creates no state, and one requester gets at most
    /// [`PULL_ROUNDS`] answers per instance.
    fn on_request(
        &mut self,
        sender: usize,
        from: ReplicaId,
        id: InstanceId,
        digest: PayloadDigest,
    ) -> Step<P, BrachaMsg<P>> {
        let Some(instance) = self.instances.get_mut(&id) else { return Step::empty() };
        let bit = 1u128 << sender;
        match (&instance.held, instance.answered.iter_mut().find(|sent| **sent & bit == 0)) {
            (Some((held, payload)), Some(unsent)) if *held == digest => {
                *unsent |= bit;
                let msg = BrachaMsg::Answer { id, payload: payload.clone() };
                Step {
                    outbound: vec![Envelope { to: Dest::One(from), msg }],
                    delivered: Vec::new(),
                }
            }
            _ => Step::empty(),
        }
    }

    /// Accepts `payload` if `id` is awaiting exactly it (an ANSWER, or a
    /// late or repeated PREPARE); anything else — unsolicited, wrong
    /// payload, unknown instance — changes nothing.
    fn offer(&mut self, id: InstanceId, payload: P) -> Vec<Delivery<P>> {
        let Some(instance) = self.instances.get_mut(&id) else { return Vec::new() };
        let Phase::Awaiting { digest, .. } = instance.phase else { return Vec::new() };
        if payload_digest(id, &payload) != digest {
            return Vec::new();
        }
        self.pulls.remove(&id);
        instance.phase = Phase::Done;
        instance.held = Some((digest, payload.clone()));
        self.fifo.enqueue(id, payload)
    }

    /// One retry round (call on a timer while [`Self::pulls_outstanding`]
    /// is non-zero): re-sends every outstanding pull's REQUESTs to whoever
    /// has vouched for its digest by now. The flag is `true` if some pull
    /// had already gone [`PULL_ROUNDS`] rounds unanswered — the caller
    /// should fetch the instance's *effects* by state transfer; the pull's
    /// rounds restart in case that transfer does not cover it.
    pub fn retry_pulls(&mut self) -> (Vec<Envelope<BrachaMsg<P>>>, bool) {
        let mut out = Vec::new();
        let mut exhausted = false;
        for id in &self.pulls {
            let instance = self.instances.get_mut(id).expect("pulls index tracked instances");
            let Phase::Awaiting { digest, rounds } = &mut instance.phase else { continue };
            if *rounds >= PULL_ROUNDS {
                exhausted = true;
                *rounds = 0;
                continue;
            }
            *rounds += 1;
            if let Some(tally) = instance.tallies.iter().find(|t| t.digest == *digest) {
                out.extend(requests(&self.cfg, self.me, *id, tally));
            }
        }
        (out, exhausted)
    }

    /// Drops state for all instances of `source` with `tag < up_to`,
    /// outstanding pulls included.
    ///
    /// Callers may garbage-collect instances that the application has
    /// durably applied; later duplicates of pruned instances are treated as
    /// fresh instances but can no longer be delivered in FIFO mode (their
    /// tag is below `next_tag`), and a REQUEST for one goes unanswered.
    pub fn gc_source(&mut self, source: Source, up_to: Tag) {
        self.instances.retain(|id, _| id.source != source || id.tag >= up_to);
        self.pulls.retain(|id| id.source != source || id.tag >= up_to);
    }
}

impl<P: Payload> Broadcast for BrachaBrb<P> {
    type Payload = P;
    type Msg = BrachaMsg<P>;

    fn broadcast(&mut self, id: InstanceId, payload: P) -> Step<P, BrachaMsg<P>> {
        Self::broadcast(self, id, payload)
    }

    fn handle(&mut self, from: ReplicaId, msg: BrachaMsg<P>) -> Step<P, BrachaMsg<P>> {
        Self::handle(self, from, msg)
    }

    fn tracked_instances(&self) -> usize {
        self.instances.len()
    }

    /// Prunes every instance below its source's FIFO delivery cursor —
    /// those instances were delivered (the cursor only advances past
    /// deliveries), and FIFO gating already drops any replayed duplicate
    /// of them, so their votes and payload are dead weight.
    fn gc_delivered(&mut self) -> usize {
        let before = self.instances.len();
        for (source, next) in self.fifo.cursors() {
            self.gc_source(source, next);
        }
        before - self.instances.len()
    }

    fn delivery_cursors(&self) -> Vec<(Source, Tag)> {
        self.fifo.cursors()
    }

    fn advance_cursor(&mut self, source: Source, next: Tag) {
        self.fifo.advance(source, next);
    }

    /// Pulls for instances the cursor moved past are cancelled: the
    /// transferred state holds their effects.
    fn advance_cursor_releasing(&mut self, source: Source, next: Tag) -> Vec<Delivery<P>> {
        let released = self.fifo.advance_releasing(source, next);
        let cursor = self.fifo.cursor(source);
        self.pulls.retain(|id| id.source != source || id.tag >= cursor);
        released
    }

    /// Tracked instances or the FIFO delivery cursor.
    fn source_high_water(&self, source: Source) -> Tag {
        let tracked = self
            .instances
            .keys()
            .filter(|id| id.source == source)
            .map(|id| id.tag + 1)
            .max()
            .unwrap_or(0);
        tracked.max(self.fifo.cursor(source))
    }
}

/// One REQUEST for `id` to every member but `me` whose ECHO or READY
/// vouched for `tally`'s digest.
fn requests<'a, P>(
    cfg: &'a Group,
    me: ReplicaId,
    id: InstanceId,
    tally: &Tally,
) -> impl Iterator<Item = Envelope<BrachaMsg<P>>> + 'a {
    let (digest, vouchers) = (tally.digest, tally.votes[ECHO] | tally.votes[READY]);
    let asked = cfg.iter().enumerate().filter(move |(i, to)| vouchers >> i & 1 == 1 && *to != me);
    asked.map(move |(_, to)| Envelope { to: Dest::One(to), msg: BrachaMsg::Request { id, digest } })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::Cluster;
    use crate::DeliveryOrder;

    fn cluster(n: usize) -> Cluster<BrachaBrb<u64>> {
        let cfg = Group::of_size(n).unwrap();
        Cluster::new(
            (0..n).map(|i| BrachaBrb::new(ReplicaId(i as u32), cfg.clone(), BrbConfig::default())),
        )
    }

    fn iid(source: Source, tag: Tag) -> InstanceId {
        InstanceId { source, tag }
    }

    #[test]
    fn all_correct_replicas_deliver() {
        let mut c = cluster(4);
        let step = c.node_mut(0).broadcast(iid(7, 0), 99);
        c.submit(ReplicaId(0), step);
        c.run_to_quiescence();
        for i in 0..4 {
            assert_eq!(c.deliveries(i), &[Delivery { id: iid(7, 0), payload: 99 }]);
        }
    }

    #[test]
    fn delivers_despite_f_crashes() {
        let mut c = cluster(7); // f = 2
        c.crash(ReplicaId(5));
        c.crash(ReplicaId(6));
        let step = c.node_mut(0).broadcast(iid(1, 0), 5);
        c.submit(ReplicaId(0), step);
        c.run_to_quiescence();
        for i in 0..5 {
            assert_eq!(c.deliveries(i).len(), 1, "replica {i}");
        }
    }

    #[test]
    fn no_delivery_beyond_f_crashes() {
        // With f+1 crashes no quorum can form; nothing must be delivered
        // (liveness lost, safety kept).
        let mut c = cluster(4);
        c.crash(ReplicaId(2));
        c.crash(ReplicaId(3));
        let step = c.node_mut(0).broadcast(iid(1, 0), 5);
        c.submit(ReplicaId(0), step);
        c.run_to_quiescence();
        for i in 0..2 {
            assert!(c.deliveries(i).is_empty());
        }
    }

    #[test]
    fn equivocating_broadcaster_cannot_double_spend() {
        // Byzantine broadcaster sends payload 1 to replicas {1,2} and
        // payload 2 to replica {3}: agreement must hold — all correct
        // deliveries (if any) carry the same payload.
        let mut c = cluster(4);
        let id = iid(9, 0);
        c.inject(ReplicaId(0), ReplicaId(1), BrachaMsg::Prepare { id, payload: 1 });
        c.inject(ReplicaId(0), ReplicaId(2), BrachaMsg::Prepare { id, payload: 1 });
        c.inject(ReplicaId(0), ReplicaId(3), BrachaMsg::Prepare { id, payload: 2 });
        c.run_to_quiescence();
        let mut seen = std::collections::HashSet::new();
        for i in 1..4 {
            for d in c.deliveries(i) {
                seen.insert(d.payload);
            }
        }
        assert!(seen.len() <= 1, "correct replicas delivered conflicting payloads: {seen:?}");
    }

    #[test]
    fn equivocation_with_split_quorums_delivers_at_most_one() {
        // 7 replicas (f=2, quorum=5). Byzantine source sends payload 1 to
        // four replicas and payload 2 to the other three — neither echo set
        // reaches a quorum from the PREPAREs alone, and honest echoes are
        // split 4/3. No payload can gather 5 echoes, because a correct
        // replica echoes only its first-seen payload.
        let mut c = cluster(7);
        let id = iid(3, 0);
        for r in 1..5u32 {
            c.inject(ReplicaId(0), ReplicaId(r), BrachaMsg::Prepare { id, payload: 1 });
        }
        for r in 5..7u32 {
            c.inject(ReplicaId(0), ReplicaId(r), BrachaMsg::Prepare { id, payload: 2 });
        }
        c.run_to_quiescence();
        let mut payloads = std::collections::HashSet::new();
        for i in 1..7 {
            for d in c.deliveries(i) {
                payloads.insert(d.payload);
            }
        }
        assert!(payloads.len() <= 1);
    }

    #[test]
    fn totality_via_ready_amplification() {
        // Drop the broadcaster's PREPARE to replica 3; it still completes
        // thanks to ECHO/READY amplification from the others, and fetches
        // the payload from those that vouched for it.
        let mut c = cluster(4);
        c.set_filter(|from, to, msg| {
            !(from == ReplicaId(0)
                && to == ReplicaId(3)
                && matches!(msg, BrachaMsg::Prepare { .. }))
        });
        let step = c.node_mut(0).broadcast(iid(2, 0), 42);
        c.submit(ReplicaId(0), step);
        c.run_to_quiescence();
        for i in 0..4 {
            assert_eq!(c.deliveries(i), &[Delivery { id: iid(2, 0), payload: 42 }], "replica {i}");
        }
        assert_eq!(c.node(3).pulls_outstanding(), 0);
    }

    #[test]
    fn fifo_buffers_out_of_order_completion() {
        // Broadcast tags 1 then 0 for the same source; tag 1 must not be
        // delivered before tag 0 anywhere.
        let mut c = cluster(4);
        let s1 = c.node_mut(0).broadcast(iid(4, 1), 11);
        c.submit(ReplicaId(0), s1);
        c.run_to_quiescence();
        for i in 0..4 {
            assert!(c.deliveries(i).is_empty(), "tag 1 delivered before tag 0");
        }
        let s0 = c.node_mut(0).broadcast(iid(4, 0), 10);
        c.submit(ReplicaId(0), s0);
        c.run_to_quiescence();
        for i in 0..4 {
            let tags: Vec<Tag> = c.deliveries(i).iter().map(|d| d.id.tag).collect();
            assert_eq!(tags, vec![0, 1], "replica {i}");
        }
    }

    #[test]
    fn unordered_mode_delivers_immediately() {
        let cfg = Group::of_size(4).unwrap();
        let mut c = Cluster::new((0..4).map(|i| {
            BrachaBrb::<u64>::new(
                ReplicaId(i as u32),
                cfg.clone(),
                BrbConfig { order: DeliveryOrder::Unordered, ..BrbConfig::default() },
            )
        }));
        let step = c.node_mut(0).broadcast(iid(4, 5), 11);
        c.submit(ReplicaId(0), step);
        c.run_to_quiescence();
        for i in 0..4 {
            assert_eq!(c.deliveries(i).len(), 1);
        }
    }

    #[test]
    fn duplicate_messages_cause_single_delivery() {
        let mut c = cluster(4);
        let step = c.node_mut(0).broadcast(iid(1, 0), 7);
        // Submit the same PREPARE twice.
        c.submit(ReplicaId(0), step.clone());
        c.submit(ReplicaId(0), step);
        c.run_to_quiescence();
        for i in 0..4 {
            assert_eq!(c.deliveries(i).len(), 1, "replica {i}");
        }
    }

    #[test]
    fn messages_from_unknown_replicas_ignored() {
        let cfg = Group::of_size(4).unwrap();
        let mut node = BrachaBrb::<u64>::new(ReplicaId(0), cfg, BrbConfig::default());
        let step = node.handle(ReplicaId(99), BrachaMsg::Prepare { id: iid(0, 0), payload: 1 });
        assert!(step.is_empty());
    }

    #[test]
    fn byzantine_double_echo_cannot_force_two_quorums() {
        // A Byzantine replica echoes both payloads; correct replicas split
        // 2/1 between payloads. Echo counts: p1 has {1,2} + byz = 3 = quorum
        // in n=4 — so p1 may deliver, but p2 (1 + byz = 2) must not.
        let mut c = cluster(4);
        let id = iid(5, 0);
        // Correct replicas 1,2 echo payload 1; replica 3 echoes payload 2.
        c.inject(ReplicaId(0), ReplicaId(1), BrachaMsg::Prepare { id, payload: 1 });
        c.inject(ReplicaId(0), ReplicaId(2), BrachaMsg::Prepare { id, payload: 1 });
        c.inject(ReplicaId(0), ReplicaId(3), BrachaMsg::Prepare { id, payload: 2 });
        // Byzantine replica 0 echoes both payloads to everyone.
        for r in 1..4u32 {
            for payload in [1u64, 2] {
                let digest = payload_digest(id, &payload);
                c.inject(ReplicaId(0), ReplicaId(r), BrachaMsg::Echo { id, digest });
            }
        }
        c.run_to_quiescence();
        let mut payloads = std::collections::HashSet::new();
        for i in 1..4 {
            for d in c.deliveries(i) {
                payloads.insert(d.payload);
            }
        }
        assert!(payloads.len() <= 1, "two payloads delivered: {payloads:?}");
    }

    #[test]
    fn gc_drops_old_instances() {
        let mut c = cluster(4);
        for tag in 0..3 {
            let step = c.node_mut(0).broadcast(iid(1, tag), tag);
            c.submit(ReplicaId(0), step);
        }
        c.run_to_quiescence();
        let before = c.node_mut(0).tracked_instances();
        assert!(before >= 3);
        c.node_mut(0).gc_source(1, 3);
        assert_eq!(c.node_mut(0).tracked_instances(), before - 3);
    }

    #[test]
    fn vote_flood_from_one_member_is_bounded() {
        // One Byzantine member sends 10 000 ECHOs and READYs, each for a
        // different digest: only its first of each counts, and no payload
        // is held on a vote's say-so.
        let cfg = Group::of_size(4).unwrap();
        let mut node = BrachaBrb::<u64>::new(ReplicaId(0), cfg, BrbConfig::default());
        let id = iid(3, 0);
        for i in 0..10_000u64 {
            let digest = payload_digest(id, &i);
            assert!(node.handle(ReplicaId(3), BrachaMsg::Echo { id, digest }).is_empty());
            assert!(node.handle(ReplicaId(3), BrachaMsg::Ready { id, digest }).is_empty());
        }
        assert_eq!(node.tracked_instances(), 1);
        let instance = &node.instances[&id];
        assert!(instance.tallies.len() <= 4, "{} vote entries", instance.tallies.len());
        assert!(instance.held.is_none());
    }

    #[test]
    fn unsolicited_payloads_and_stale_requests_change_nothing() {
        let mut c = cluster(4);
        for tag in 0..2 {
            let step = c.node_mut(0).broadcast(iid(0, tag), 10 + tag);
            c.submit(ReplicaId(0), step);
        }
        c.run_to_quiescence();
        let node = c.node_mut(1);
        node.gc_source(0, 1); // tag 0 is pruned, tag 1 delivered and held
        let held = |n: &BrachaBrb<u64>| n.instances[&iid(0, 1)].held;
        let (tracked, payload) = (node.tracked_instances(), held(node));
        assert_eq!(payload, Some((payload_digest(iid(0, 1), &11u64), 11)));
        for msg in [
            // Nobody asked: neither for a delivered instance ...
            BrachaMsg::Answer { id: iid(0, 1), payload: 99 },
            // ... nor for one never heard of.
            BrachaMsg::Answer { id: iid(2, 7), payload: 99 },
            // Below the FIFO cursor and pruned: no state to serve from.
            BrachaMsg::Request { id: iid(0, 0), digest: payload_digest(iid(0, 0), &10u64) },
            // Held, but not the payload asked for.
            BrachaMsg::Request { id: iid(0, 1), digest: payload_digest(iid(0, 1), &99u64) },
        ] {
            assert!(node.handle(ReplicaId(2), msg).is_empty());
            assert_eq!((node.tracked_instances(), held(node)), (tracked, payload));
        }
    }

    #[test]
    fn wrong_answer_is_refused_and_answers_are_rationed() {
        // Replica 3 never sees the PREPARE and every ANSWER to it is lost:
        // it ends up awaiting the quorum's digest.
        let mut c = cluster(4);
        c.set_filter(|_, to, msg| {
            to != ReplicaId(3)
                || !matches!(msg, BrachaMsg::Prepare { .. } | BrachaMsg::Answer { .. })
        });
        let id = iid(0, 0);
        let step = c.node_mut(0).broadcast(id, 42);
        c.submit(ReplicaId(0), step);
        c.run_to_quiescence();
        assert!(c.deliveries(3).is_empty());
        assert_eq!(c.node(3).pulls_outstanding(), 1);

        // A payload that does not hash to the awaited digest is refused.
        let step = c.node_mut(3).handle(ReplicaId(1), BrachaMsg::Answer { id, payload: 41 });
        assert!(step.is_empty());
        assert!(c.node(3).instances[&id].held.is_none());

        // A holder answers one requester PULL_ROUNDS times (the first was
        // lost above), then stops.
        let request = BrachaMsg::Request { id, digest: payload_digest(id, &42u64) };
        for round in 1..2 * PULL_ROUNDS {
            let step = c.node_mut(1).handle(ReplicaId(3), request.clone());
            assert_eq!(step.outbound.len(), usize::from(round < PULL_ROUNDS), "round {round}");
        }

        // Retries go to the vouchers until the rounds run out ...
        for _ in 1..PULL_ROUNDS {
            let (requests, exhausted) = c.node_mut(3).retry_pulls();
            assert_eq!((requests.len(), exhausted), (3, false));
        }
        assert_eq!(c.node_mut(3).retry_pulls(), (Vec::new(), true));
        // ... and the right payload still completes the instance.
        let step = c.node_mut(3).handle(ReplicaId(2), BrachaMsg::Answer { id, payload: 42 });
        assert_eq!(step.delivered, vec![Delivery { id, payload: 42 }]);
        assert_eq!(c.node(3).pulls_outstanding(), 0);
    }

    #[test]
    fn cursor_advance_cancels_the_pull_it_passes() {
        let mut c = cluster(4);
        c.set_filter(|_, to, msg| {
            to != ReplicaId(3)
                || !matches!(msg, BrachaMsg::Prepare { .. } | BrachaMsg::Answer { .. })
        });
        let step = c.node_mut(0).broadcast(iid(0, 0), 42);
        c.submit(ReplicaId(0), step);
        c.run_to_quiescence();
        assert_eq!(c.node(3).pulls_outstanding(), 1);
        assert!(c.node_mut(3).advance_cursor_releasing(0, 1).is_empty());
        assert_eq!(c.node(3).pulls_outstanding(), 0);
        assert_eq!(c.node_mut(3).retry_pulls(), (Vec::new(), false));
    }

    #[test]
    fn wire_round_trip_all_variants() {
        use astro_types::wire::decode_exact;
        let id = iid(3, 4);
        for msg in [
            BrachaMsg::Prepare { id, payload: 7u64 },
            BrachaMsg::Echo { id, digest: [8; 32] },
            BrachaMsg::Ready { id, digest: [9; 32] },
            BrachaMsg::Request { id, digest: [10; 32] },
            BrachaMsg::Answer { id, payload: 11u64 },
        ] {
            let bytes = msg.to_wire_bytes();
            assert_eq!(bytes.len(), msg.encoded_len());
            assert_eq!(decode_exact::<BrachaMsg<u64>>(&bytes).unwrap(), msg);
        }
    }
}
