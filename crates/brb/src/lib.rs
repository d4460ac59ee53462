//! Byzantine reliable broadcast (BRB) — the replication primitive of Astro.
//!
//! Astro replaces consensus with BRB (paper §II): replicas keep client
//! xlogs consistent by reliably broadcasting payments. This crate provides
//! the two BRB protocols the paper implements and evaluates (§IV-A):
//!
//! - [`bracha`]: Bracha's echo-based protocol (Astro I). Three phases
//!   (PREPARE / ECHO / READY), O(N²) messages per broadcast of which only
//!   the N PREPAREs carry the payload (the votes carry its digest; a
//!   replica that missed the payload fetches it), MAC-authenticated
//!   links, and the *totality* property.
//! - [`signed`]: a signature-based protocol in the style of Malkhi & Reiter
//!   (Astro II). Three phases (PREPARE / ACK / COMMIT), O(N) messages,
//!   digital signatures, **no totality** — which the payment layer
//!   compensates for with CREDIT dependency certificates (paper §IV/§V).
//!
//! Both are deterministic sans-I/O state machines: callers feed in
//! `(sender, message)` pairs and receive a [`Step`] of outbound envelopes
//! and deliveries. The discrete-event simulator, the threaded runtime, and
//! the unit tests all drive the same code.
//!
//! The paper's variation point between Astro I and Astro II is exactly
//! this choice of primitive (§IV). Everything the payment layer needs of
//! it besides sending and receiving — tracked instances, GC, delivery
//! cursors, a source's high-water mark — is the [`Broadcast`] trait, which
//! both protocols implement, so state transfer and recovery above it are
//! written once.
//!
//! # Properties (paper §IV)
//!
//! With identifiers `(source, tag)`, in the terms of Cachin, Kursawe,
//! Petzold and Shoup's reliable broadcast:
//!
//! - **Consistency** (agreement) — no two correct replicas deliver
//!   different payloads for the same identifier.
//! - **Integrity** — a correct replica delivers at most once per
//!   identifier, and only if some replica broadcast the payload.
//! - **Validity** (reliability) — if the broadcaster is correct, all
//!   correct replicas eventually deliver.
//! - **Totality** (Bracha only) — if any correct replica delivers, every
//!   correct replica eventually delivers.
//!
//! `tests/properties.rs` checks them under shuffled schedules. Votes name
//! a digest that binds identifier and payload ([`payload_digest`]), so the
//! quorum arguments are those of the full-payload protocols.
//!
//! # Examples
//!
//! ```
//! use astro_brb::{bracha::BrachaBrb, BrbConfig, Dest, InstanceId};
//! use astro_types::{Group, ReplicaId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = Group::of_size(4)?;
//! let mut replica: BrachaBrb<u64> = BrachaBrb::new(ReplicaId(0), cfg, BrbConfig::default());
//!
//! // Replica 0 broadcasts payload 99 for instance (source=7, tag=0).
//! let id = InstanceId { source: 7, tag: 0 };
//! let step = replica.broadcast(id, 99);
//! assert!(matches!(step.outbound[0].to, Dest::All));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod bracha;
pub mod signed;
pub mod testkit;

use astro_types::wire::{Wire, WireError};
use astro_types::ReplicaId;

/// The broadcasting-entity id of an instance. In Astro this is the spender
/// client (unbatched) or the broadcasting replica (batched); the BRB layer
/// only requires it to name a FIFO stream.
pub type Source = u64;

/// The per-source sequence number of an instance.
pub type Tag = u64;

/// Identifier of one broadcast instance: the `(s, n)` pair of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId {
    /// Whose stream this instance belongs to.
    pub source: Source,
    /// Position within the stream.
    pub tag: Tag,
}

impl core::fmt::Display for InstanceId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({}, {})", self.source, self.tag)
    }
}

impl Wire for InstanceId {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.source.encode(buf);
        self.tag.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(InstanceId { source: Source::decode(buf)?, tag: Tag::decode(buf)? })
    }
    fn encoded_len(&self) -> usize {
        16
    }
}

/// Destination of an outbound message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dest {
    /// Send to every replica in the group, including the local one.
    ///
    /// Self-delivery is the transport's job (both provided drivers loop a
    /// copy back), which keeps the protocol cores free of special cases.
    All,
    /// Send to a single replica.
    One(ReplicaId),
}

/// An outbound protocol message with its destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Where to send it.
    pub to: Dest,
    /// The message.
    pub msg: M,
}

/// A delivered payload together with its instance identifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery<P> {
    /// Which instance completed.
    pub id: InstanceId,
    /// The agreed payload.
    pub payload: P,
}

/// The observable result of one protocol transition.
#[derive(Debug, Clone)]
pub struct Step<P, M> {
    /// Messages to transmit.
    pub outbound: Vec<Envelope<M>>,
    /// Payloads delivered by this transition, in delivery order.
    pub delivered: Vec<Delivery<P>>,
}

impl<P, M> Step<P, M> {
    /// An empty step (no sends, no deliveries).
    pub fn empty() -> Self {
        Step { outbound: Vec::new(), delivered: Vec::new() }
    }

    /// Merges another step's effects into this one, preserving order.
    pub fn merge(&mut self, other: Step<P, M>) {
        self.outbound.extend(other.outbound);
        self.delivered.extend(other.delivered);
    }

    /// True if the step has no effects.
    pub fn is_empty(&self) -> bool {
        self.outbound.is_empty() && self.delivered.is_empty()
    }
}

impl<P, M> Default for Step<P, M> {
    fn default() -> Self {
        Self::empty()
    }
}

/// Per-source delivery ordering applied by the broadcast layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeliveryOrder {
    /// Deliver `(s, n)` only after `(s, n-1)` — the `ts == allTS[s] + 1`
    /// condition of the paper's Listing 5. Used by Astro I.
    #[default]
    FifoPerSource,
    /// Deliver as soon as the instance completes; ordering is the payment
    /// layer's job (paper Listing 6/8). Used by Astro II.
    Unordered,
}

/// Tuning knobs common to both protocols.
#[derive(Debug, Clone, Copy, Default)]
pub struct BrbConfig {
    /// Delivery ordering discipline.
    pub order: DeliveryOrder,
    /// When true, a PREPARE for instance `(s, n)` is only honoured if the
    /// transport-authenticated sender is replica `s`. Astro's replicas
    /// broadcast on their own stream (`source` = broadcasting replica), and
    /// binding stops a Byzantine replica from poisoning another replica's
    /// stream with conflicting instances. Leave false when sources name
    /// client streams broadcast by third parties.
    pub bind_source: bool,
}

/// Per-source delivery state shared by both protocol cores: the
/// next-deliverable FIFO cursor and the completed-but-undeliverable
/// buffer. In unordered mode it is a transparent pass-through that keeps
/// no state.
#[derive(Debug)]
pub struct FifoDelivery<P> {
    order: DeliveryOrder,
    /// Next deliverable tag per source (FIFO mode).
    next_tag: std::collections::HashMap<Source, Tag>,
    /// Completed-but-not-yet-deliverable payloads per source (FIFO mode).
    buffered: std::collections::HashMap<Source, std::collections::BTreeMap<Tag, P>>,
}

impl<P> FifoDelivery<P> {
    /// Creates the delivery state for `order`.
    pub fn new(order: DeliveryOrder) -> Self {
        FifoDelivery {
            order,
            next_tag: std::collections::HashMap::new(),
            buffered: std::collections::HashMap::new(),
        }
    }

    /// Applies the delivery-order discipline to a completed instance:
    /// immediate in unordered mode, cursor-gated (possibly releasing a
    /// buffered run) in FIFO mode.
    pub fn enqueue(&mut self, id: InstanceId, payload: P) -> Vec<Delivery<P>> {
        match self.order {
            DeliveryOrder::Unordered => vec![Delivery { id, payload }],
            DeliveryOrder::FifoPerSource => {
                if id.tag < *self.next_tag.get(&id.source).unwrap_or(&0) {
                    // Already delivered (or durably applied before a
                    // restart): a replayed duplicate must neither
                    // re-deliver nor sit in the buffer forever.
                    return Vec::new();
                }
                self.buffered.entry(id.source).or_default().insert(id.tag, payload);
                let next = self.next_tag.entry(id.source).or_insert(0);
                let buffered = self.buffered.get_mut(&id.source).expect("just inserted");
                let mut out = Vec::new();
                while let Some(payload) = buffered.remove(next) {
                    out.push(Delivery {
                        id: InstanceId { source: id.source, tag: *next },
                        payload,
                    });
                    *next += 1;
                }
                out
            }
        }
    }

    /// The FIFO cursors: next deliverable tag per source, ascending by
    /// source (durable-state export; empty in unordered mode).
    pub fn cursors(&self) -> Vec<(Source, Tag)> {
        let mut cursors: Vec<(Source, Tag)> = self.next_tag.iter().map(|(s, t)| (*s, *t)).collect();
        cursors.sort_unstable();
        cursors
    }

    /// Advances the FIFO cursor of `source` to at least `next` (recovery:
    /// instances below the cursor were durably applied before a restart
    /// and must not be re-delivered, while later instances stay
    /// deliverable). Completed-but-buffered payloads below the cursor are
    /// discarded. No-op in unordered mode, which keeps no cursors.
    ///
    /// Use only while (re)constructing a replica, when nothing can be
    /// buffered at or above the new cursor; a *live* cursor advance (peer
    /// catch-up installing a transferred state) must use
    /// [`Self::advance_releasing`] so completed instances the gap was
    /// holding back are not lost.
    pub fn advance(&mut self, source: Source, next: Tag) {
        let released = self.advance_releasing(source, next);
        debug_assert!(released.is_empty(), "buffered deliveries dropped; use advance_releasing");
    }

    /// Advances the FIFO cursor of `source` to at least `next` and returns
    /// the contiguous run of completed-but-buffered payloads that became
    /// deliverable — the catch-up path: a transferred state covers the
    /// gap instances' effects, so instances completed *behind* the gap
    /// must deliver now that the cursor has moved past it. Buffered
    /// payloads below the cursor (their effects are in the transferred
    /// state) are discarded. No-op in unordered mode.
    pub fn advance_releasing(&mut self, source: Source, next: Tag) -> Vec<Delivery<P>> {
        if self.order == DeliveryOrder::Unordered {
            return Vec::new();
        }
        let cursor = self.next_tag.entry(source).or_insert(0);
        if next > *cursor {
            *cursor = next;
        }
        let mut out = Vec::new();
        if let Some(buffered) = self.buffered.get_mut(&source) {
            buffered.retain(|tag, _| *tag >= *cursor);
            while let Some(payload) = buffered.remove(cursor) {
                out.push(Delivery { id: InstanceId { source, tag: *cursor }, payload });
                *cursor += 1;
            }
        }
        out
    }

    /// The FIFO cursor of one source (0 if never advanced). Always 0 in
    /// unordered mode.
    pub fn cursor(&self, source: Source) -> Tag {
        *self.next_tag.get(&source).unwrap_or(&0)
    }
}

/// What the payment layer needs of a broadcast primitive beyond sending
/// and receiving: instance bookkeeping, garbage collection and the
/// delivery cursors durable state and catch-up carry. The paper's two
/// protocols differ in how an instance completes, not in any of this, so
/// state transfer and recovery are written once against this trait.
pub trait Broadcast {
    /// The payload an instance delivers.
    type Payload;

    /// Number of receiver-side instances currently tracked (memory
    /// accounting and size-triggered GC).
    fn tracked_instances(&self) -> usize;

    /// Prunes the instances whose delivery the application has applied;
    /// returns how many were freed. Replayed duplicates of a pruned
    /// instance are never delivered again.
    fn gc_delivered(&mut self) -> usize;

    /// The FIFO delivery cursors: next deliverable tag per source,
    /// ascending by source (empty in unordered mode); see
    /// [`FifoDelivery::cursors`].
    fn delivery_cursors(&self) -> Vec<(Source, Tag)>;

    /// Advances the FIFO cursor of `source` to at least `next` while
    /// (re)constructing a replica; see [`FifoDelivery::advance`].
    fn advance_cursor(&mut self, source: Source, next: Tag);

    /// Advances the FIFO cursor of `source` on a *live* replica (peer
    /// catch-up) and returns the completed-but-buffered deliveries the
    /// advance released; see [`FifoDelivery::advance_releasing`].
    fn advance_cursor_releasing(
        &mut self,
        source: Source,
        next: Tag,
    ) -> Vec<Delivery<Self::Payload>>;

    /// One past the highest tag this replica has any evidence of for
    /// `source`'s stream. A peer serving catch-up state reports this so a
    /// restarted `source` resumes broadcasting above every tag it may
    /// already have used (peers vote for at most one payload per
    /// instance, so a reused tag would wedge the stream).
    fn source_high_water(&self, source: Source) -> Tag;
}

/// The payload contract: broadcast payloads must be cloneable, comparable
/// and wire-encodable (the protocols hash the canonical encoding to detect
/// equivocation).
pub trait Payload: Clone + Eq + core::fmt::Debug + Wire + Send + 'static {}

impl<T: Clone + Eq + core::fmt::Debug + Wire + Send + 'static> Payload for T {}

/// Domain-separated digest of a payload within an instance; what ECHOes
/// and READYs carry and ACKs sign. The payload is encoded into the
/// thread's reused scratch buffer, not a fresh one per call.
pub fn payload_digest<P: Payload>(id: InstanceId, payload: &P) -> [u8; 32] {
    astro_types::wire::with_encoding(payload, |bytes| {
        astro_crypto::sha256::sha256_concat(&[
            b"astro-brb-payload-v1",
            &id.source.to_be_bytes(),
            &id.tag.to_be_bytes(),
            bytes,
        ])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_id_wire_round_trip() {
        let id = InstanceId { source: 5, tag: 9 };
        let bytes = id.to_wire_bytes();
        assert_eq!(bytes.len(), id.encoded_len());
        assert_eq!(astro_types::wire::decode_exact::<InstanceId>(&bytes).unwrap(), id);
    }

    #[test]
    fn digest_depends_on_instance_and_payload() {
        let a = InstanceId { source: 1, tag: 0 };
        let b = InstanceId { source: 1, tag: 1 };
        assert_ne!(payload_digest(a, &7u64), payload_digest(b, &7u64));
        assert_ne!(payload_digest(a, &7u64), payload_digest(a, &8u64));
        assert_eq!(payload_digest(a, &7u64), payload_digest(a, &7u64));
    }

    #[test]
    fn step_merge_concatenates() {
        let mut s1: Step<u64, u8> = Step::empty();
        assert!(s1.is_empty());
        let s2 = Step {
            outbound: vec![Envelope { to: Dest::All, msg: 1u8 }],
            delivered: vec![Delivery { id: InstanceId { source: 0, tag: 0 }, payload: 5u64 }],
        };
        s1.merge(s2);
        assert_eq!(s1.outbound.len(), 1);
        assert_eq!(s1.delivered.len(), 1);
    }
}
