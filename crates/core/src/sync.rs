//! Catch-up state transfer: the messages a restarted replica and its
//! group exchange, and the `f+1` copy collector that certifies what the
//! group serves.
//!
//! A returning member asks its group for the settled state
//! ([`SyncMsg::Request`]); each peer answers with a [`SyncMsg::Head`] plus
//! the sealed history blocks it references ([`SyncMsg::Block`]). The
//! requester installs once `f+1` members served byte-identical copies of
//! the head and of every block: at least one of them is honest, so the
//! state is a real settled state of the system. The member set does not
//! change and no consensus instance runs — the argument is the joiner's
//! of the paper's extended version (Appendix A), applied to a replica
//! that was down.

use astro_types::wire::{Wire, WireError};
use astro_types::{ClientId, Group, ReplicaId};
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::Hash;

/// Catch-up messages, wire tags 3–5. Tags 0–2 are unassigned and decode
/// as an unknown tag; numbering from 3 keeps the bytes earlier releases
/// put on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncMsg {
    /// A restarted member asks the group for the settled delta. Peers
    /// answer with a [`SyncMsg::Head`] and its [`SyncMsg::Block`]s.
    Request {
        /// The requester's settled-payment count — peers and the
        /// requester itself use it as a freshness floor.
        settled: u64,
    },
    /// The head of a peer's canonical settlement state:
    /// [`crate::journal::SyncHead`] wire bytes (per-client history-block
    /// counts plus the volatile state remainder), kept opaque so the
    /// message is shared by both protocols.
    Head {
        /// The responder's settled-payment count at capture time.
        settled: u64,
        /// The canonical head encoding.
        head: Vec<u8>,
    },
    /// One full history block: entries `[block·K, (block+1)·K)` of
    /// `client`'s xlog, `K =` [`crate::journal::SYNC_BLOCK_ENTRIES`].
    /// Blocks are content-stable across correct donors (per-sender log
    /// prefix consistency), so each certifies on its own — accumulated
    /// across retry rounds, which is what lets catch-up converge while the
    /// donors keep settling.
    Block {
        /// The xlog owner.
        client: ClientId,
        /// The block index within the owner's xlog.
        block: u64,
        /// The encoded entries (`Vec<Payment>` wire bytes).
        data: Vec<u8>,
    },
}

impl Wire for SyncMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            SyncMsg::Request { settled } => {
                buf.push(3);
                settled.encode(buf);
            }
            SyncMsg::Head { settled, head } => {
                buf.push(4);
                settled.encode(buf);
                head.encode(buf);
            }
            SyncMsg::Block { client, block, data } => {
                buf.push(5);
                client.encode(buf);
                block.encode(buf);
                data.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            3 => Ok(SyncMsg::Request { settled: u64::decode(buf)? }),
            4 => Ok(SyncMsg::Head { settled: u64::decode(buf)?, head: Wire::decode(buf)? }),
            5 => Ok(SyncMsg::Block {
                client: ClientId::decode(buf)?,
                block: u64::decode(buf)?,
                data: Wire::decode(buf)?,
            }),
            _ => Err(WireError::InvalidValue("sync message tag")),
        }
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            SyncMsg::Request { settled } => settled.encoded_len(),
            SyncMsg::Head { settled, head } => settled.encoded_len() + head.encoded_len(),
            SyncMsg::Block { client, block, data } => {
                client.encoded_len() + block.encoded_len() + data.encoded_len()
            }
        }
    }
}

/// Why a certified (or offered) sync state could not be installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncError {
    /// The transferred state failed structural validation (invalid xlogs).
    Invalid,
    /// The transferred state is *behind* this replica in some component
    /// (xlog, delivery cursor, used dependency, stuck mark) — installing
    /// it would lose settled effects. The donors are lagging; retry.
    Stale,
    /// The head is not certified yet, or references history blocks that
    /// are not all certified yet; keep collecting.
    Incomplete,
}

impl core::fmt::Display for SyncError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SyncError::Invalid => f.write_str("transferred state failed validation"),
            SyncError::Stale => f.write_str("transferred state is behind local state"),
            SyncError::Incomplete => f.write_str("transferred state still certifying"),
        }
    }
}

impl std::error::Error for SyncError {}

/// Why a donor refused to serve a catch-up response — the typed
/// alternative to panicking in the framing layer on oversized payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncServeError {
    /// The volatile head of the state exceeds
    /// [`crate::journal::SYNC_HEAD_MAX_BYTES`]; serving it would risk the
    /// wire layer's `MAX_FRAME_LEN` assertion. History is already
    /// chunked, so this only triggers on a pathologically large working
    /// set (queues/balances), and the donor declines instead of crashing.
    HeadTooLarge {
        /// The head's encoded size.
        bytes: usize,
    },
}

impl core::fmt::Display for SyncServeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SyncServeError::HeadTooLarge { bytes } => {
                write!(f, "sync head of {bytes} bytes exceeds the wire-safe bound")
            }
        }
    }
}

impl std::error::Error for SyncServeError {}

/// Candidate copies of one piece by digest, plus each sender's latest vote.
#[derive(Debug, Default)]
struct Slot {
    candidates: HashMap<[u8; 32], (Vec<u8>, HashSet<ReplicaId>)>,
    by_sender: HashMap<ReplicaId, [u8; 32]>,
}

/// The requester side of the transfer: certifies each piece `K` once
/// `f+1` distinct group members served byte-identical copies of it. The
/// head is keyed by `()`, history blocks by `(client, block index)`.
///
/// Each sender holds one live vote per piece: a repeated copy counts
/// once, a changed copy retracts the sender's earlier one, so a single
/// Byzantine member never certifies anything alone. A certified piece
/// stays certified until [`Self::clear`] and absorbs further copies — for
/// a history block that is its unique honest version (log prefix
/// consistency), which is why certification progress survives retries.
#[derive(Debug)]
pub struct CopyVotes<K> {
    me: ReplicaId,
    members: Vec<ReplicaId>,
    small_quorum: usize,
    open: HashMap<K, Slot>,
    certified: HashMap<K, Vec<u8>>,
    rejected: usize,
}

impl<K: Copy + Eq + Hash> CopyVotes<K> {
    /// A collector for replica `me` of `group`.
    pub fn new(group: &Group, me: ReplicaId) -> Self {
        CopyVotes {
            me,
            members: group.members().to_vec(),
            small_quorum: group.small_quorum(),
            open: HashMap::new(),
            certified: HashMap::new(),
            rejected: 0,
        }
    }

    /// Offers one copy of `key` served by `from`. Returns true if this
    /// vote certified the piece (reaching `f+1` byte-identical copies).
    pub fn offer(&mut self, from: ReplicaId, key: K, data: Vec<u8>) -> bool {
        if from == self.me || !self.members.contains(&from) {
            self.rejected += 1;
            return false;
        }
        if self.certified.contains_key(&key) {
            return false;
        }
        let mut h = astro_crypto::sha256::Sha256::new();
        h.update(b"astro-sync-copy-v1");
        h.update(&data);
        let digest = h.finalize();
        let slot = self.open.entry(key).or_default();
        if let Some(old) = slot.by_sender.insert(from, digest).filter(|old| *old != digest) {
            if let Some((_, senders)) = slot.candidates.get_mut(&old) {
                senders.remove(&from);
                if senders.is_empty() {
                    slot.candidates.remove(&old);
                }
            }
        }
        let (_, senders) = slot.candidates.entry(digest).or_insert_with(|| (data, HashSet::new()));
        senders.insert(from);
        if senders.len() < self.small_quorum {
            return false;
        }
        let (data, _) = slot.candidates.remove(&digest).expect("just inserted");
        self.open.remove(&key);
        self.certified.insert(key, data);
        true
    }

    /// The certified copy of `key`, if any.
    pub fn certified(&self, key: &K) -> Option<&Vec<u8>> {
        self.certified.get(key)
    }

    /// Number of certified pieces so far (observability / progress).
    pub fn certified_len(&self) -> usize {
        self.certified.len()
    }

    /// Offers rejected so far (self, non-members) — observability for the
    /// adversarial tests.
    pub fn rejected(&self) -> usize {
        self.rejected
    }

    /// Discards every vote and every certified piece — a certified
    /// transfer failed to install, and the next retry starts over.
    pub fn clear(&mut self) {
        self.open.clear();
        self.certified.clear();
    }
}

/// An in-progress live catch-up: the head and block collectors plus the
/// broadcast traffic paused until the transferred state is installed.
#[derive(Debug)]
pub(crate) struct SyncSession<M> {
    /// The requester's settled count when the session began. Heads served
    /// below it are refused: a Byzantine peer cannot roll a restarted
    /// replica back by serving a stale state.
    pub(crate) floor: u64,
    /// Heads refused below the floor.
    stale: usize,
    pub(crate) heads: CopyVotes<()>,
    /// Certified blocks persist across head retries: history
    /// certification is monotonic even while the donors keep settling.
    pub(crate) blocks: CopyVotes<(ClientId, u64)>,
    pub(crate) buffered: VecDeque<(ReplicaId, M)>,
    /// Flush ticks until the next request retry (0 = send now).
    pub(crate) ticks: u32,
    /// Requests sent so far this session (`requests - 1` = retries).
    pub(crate) requests: u32,
    /// Remaining request rounds before giving up, when the replica has a
    /// locally recovered state to fall back to. `None` = no fallback:
    /// the replica must certify before it may participate (a replica
    /// with no local state cannot safely pick a broadcast tag floor).
    rounds_left: Option<u32>,
}

impl<M> SyncSession<M> {
    pub(crate) fn new(group: &Group, me: ReplicaId, floor: u64, rounds_left: Option<u32>) -> Self {
        SyncSession {
            floor,
            stale: 0,
            heads: CopyVotes::new(group, me),
            blocks: CopyVotes::new(group, me),
            buffered: VecDeque::new(),
            ticks: 0,
            requests: 0,
            rounds_left,
        }
    }

    /// Accounts one request round; true when the fallback budget is
    /// exhausted and the replica should resume from its local state.
    pub(crate) fn exhausted(&mut self) -> bool {
        match &mut self.rounds_left {
            None => false,
            Some(0) => true,
            Some(rounds) => {
                *rounds -= 1;
                false
            }
        }
    }

    /// Votes for a head `from` served at its `settled` count, unless that
    /// is below the floor. True if this vote certified the head.
    pub(crate) fn offer_head(&mut self, from: ReplicaId, settled: u64, head: Vec<u8>) -> bool {
        if settled < self.floor {
            self.stale += 1;
            return false;
        }
        self.heads.offer(from, (), head)
    }

    /// Responses refused so far (stale heads, self, non-members).
    pub(crate) fn rejected(&self) -> usize {
        self.stale + self.heads.rejected() + self.blocks.rejected()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group() -> Group {
        Group::of_size(4).unwrap()
    }

    #[test]
    fn catch_up_certifies_on_f_plus_1_matching_responses() {
        let mut cu = CopyVotes::new(&group(), ReplicaId(3));
        let honest = vec![1u8, 2, 3];
        assert!(!cu.offer(ReplicaId(0), (), honest.clone()), "one copy is below f+1");
        assert!(cu.offer(ReplicaId(1), (), honest.clone()));
        assert_eq!(cu.certified(&()), Some(&honest));
    }

    #[test]
    fn catch_up_rejects_stale_self_and_foreign_responses() {
        let mut s = SyncSession::<()>::new(&group(), ReplicaId(3), 10, None);
        assert!(!s.offer_head(ReplicaId(0), 9, vec![1]), "below the floor");
        assert!(!s.offer_head(ReplicaId(3), 99, vec![1]), "own responses do not count");
        assert!(!s.offer_head(ReplicaId(9), 99, vec![1]), "non-members do not count");
        assert_eq!(s.rejected(), 3);
        // None of those contributed a vote: one honest copy still waits.
        assert!(!s.offer_head(ReplicaId(0), 10, vec![1]));
        assert!(s.offer_head(ReplicaId(1), 10, vec![1]));
    }

    #[test]
    fn catch_up_counts_each_sender_once() {
        let mut cu = CopyVotes::new(&group(), ReplicaId(3));
        // A Byzantine peer repeating (or varying) its copy never
        // certifies alone.
        assert!(!cu.offer(ReplicaId(0), (), vec![7]));
        assert!(!cu.offer(ReplicaId(0), (), vec![7]));
        assert!(!cu.offer(ReplicaId(0), (), vec![8]));
        // Its latest vote (for [8]) is the only one it holds: an honest
        // [7] copy still needs a second member.
        assert!(!cu.offer(ReplicaId(1), (), vec![7]));
        assert!(cu.offer(ReplicaId(2), (), vec![7]));
        assert_eq!(cu.certified(&()), Some(&vec![7]));
    }

    #[test]
    fn catch_up_clear_restarts_collection() {
        let mut cu = CopyVotes::new(&group(), ReplicaId(3));
        assert!(!cu.offer(ReplicaId(0), (), vec![1]));
        cu.clear();
        assert!(!cu.offer(ReplicaId(1), (), vec![1]), "votes were discarded");
        assert!(cu.offer(ReplicaId(0), (), vec![1]));
    }

    #[test]
    fn block_votes_certify_at_f_plus_1_and_stay_certified() {
        let mut bv = CopyVotes::new(&group(), ReplicaId(3));
        let key = (ClientId(1), 0);
        assert!(!bv.offer(ReplicaId(0), key, vec![7, 7]));
        assert!(bv.offer(ReplicaId(1), key, vec![7, 7]), "f+1 = 2 certifies");
        assert_eq!(bv.certified(&key), Some(&vec![7, 7]));
        // A later conflicting copy cannot displace a certified block.
        assert!(!bv.offer(ReplicaId(2), key, vec![9]));
        assert_eq!(bv.certified(&key), Some(&vec![7, 7]));
        assert!(bv.certified(&(ClientId(1), 1)).is_none(), "second block still missing");
    }

    #[test]
    fn block_votes_count_each_sender_once_and_reject_outsiders() {
        let mut bv = CopyVotes::new(&group(), ReplicaId(3));
        let key = (ClientId(1), 0);
        assert!(!bv.offer(ReplicaId(3), key, vec![1]), "own copies do not count");
        assert!(!bv.offer(ReplicaId(9), key, vec![1]), "non-members do not count");
        assert_eq!(bv.rejected(), 2);
        // One Byzantine sender repeating itself never certifies.
        assert!(!bv.offer(ReplicaId(0), key, vec![1]));
        assert!(!bv.offer(ReplicaId(0), key, vec![1]));
        // Its switch of vote retracts the old copy.
        assert!(!bv.offer(ReplicaId(0), key, vec![2]));
        assert!(!bv.offer(ReplicaId(1), key, vec![1]));
        assert!(bv.offer(ReplicaId(2), key, vec![1]), "two honest copies certify");
    }

    #[test]
    fn block_votes_clear_discards_certified_blocks() {
        let mut bv = CopyVotes::new(&group(), ReplicaId(3));
        let key = (ClientId(1), 0);
        assert!(bv.offer(ReplicaId(0), key, vec![1]) || bv.offer(ReplicaId(1), key, vec![1]));
        assert_eq!(bv.certified_len(), 1);
        bv.clear();
        assert_eq!(bv.certified_len(), 0);
        assert!(bv.certified(&key).is_none());
    }

    #[test]
    fn sync_messages_wire_round_trip() {
        use astro_types::wire::decode_exact;
        let msgs = [
            SyncMsg::Request { settled: 42 },
            SyncMsg::Head { settled: 43, head: vec![1, 2, 3, 4] },
            SyncMsg::Block { client: ClientId(5), block: 2, data: vec![9, 9, 9] },
        ];
        for msg in msgs {
            let bytes = msg.to_wire_bytes();
            assert_eq!(bytes.len(), msg.encoded_len());
            assert_eq!(decode_exact::<SyncMsg>(&bytes).unwrap(), msg);
        }
    }
}
