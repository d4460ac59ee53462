//! Asynchronous, consensusless reconfiguration (paper Appendix A).
//!
//! Replicas move through a sequence of numbered **views** (member sets). A
//! joining replica broadcasts a JOIN to its current view; members sign and
//! exchange a proposal for the successor view `v ∪ {joiner}`; a view is
//! *installed* once a Byzantine quorum of the old view has signed it.
//! Members then transfer the full state (all xlogs and balances — this is
//! why xlogs are stored at all, §II) to the joiner, which becomes active
//! after `f+1` matching state digests. No consensus instance is ever run,
//! mirroring the FreeStore/DBRB line of work the appendix builds on.
//!
//! This module implements single-join reconfiguration (the configuration
//! measured in the paper's Figure 8, which joins replicas one by one);
//! leaves and batched joins follow the same pattern.

use crate::ledger::Ledger;
use crate::xlog::XLog;
use astro_brb::{Dest, Envelope};
use astro_types::wire::{Wire, WireError};
use astro_types::{Amount, Authenticator, ClientId, Group, Payment, ReplicaId};
use std::collections::{HashMap, HashSet};

/// A numbered membership view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct View {
    /// Monotonically increasing view number.
    pub number: u64,
    /// Sorted members.
    pub members: Vec<ReplicaId>,
}

impl View {
    /// Creates the initial view (number 0) over a group.
    pub fn initial(group: &Group) -> Self {
        View { number: 0, members: group.members().to_vec() }
    }

    /// The successor view that adds `joiner`.
    pub fn with_joiner(&self, joiner: ReplicaId) -> View {
        let mut members = self.members.clone();
        if let Err(pos) = members.binary_search(&joiner) {
            members.insert(pos, joiner);
        }
        View { number: self.number + 1, members }
    }

    /// Quorum size of this view.
    pub fn quorum(&self) -> usize {
        let n = self.members.len();
        let f = (n.saturating_sub(1)) / 3;
        (n + f) / 2 + 1
    }

    /// The `f+1` threshold of this view.
    pub fn small_quorum(&self) -> usize {
        (self.members.len().saturating_sub(1)) / 3 + 1
    }

    /// True if `id` is a member.
    pub fn contains(&self, id: ReplicaId) -> bool {
        self.members.binary_search(&id).is_ok()
    }

    /// Domain-separated digest of the view (what proposals sign).
    pub fn digest(&self) -> [u8; 32] {
        let mut h = astro_crypto::sha256::Sha256::new();
        h.update(b"astro-view-v1");
        h.update(&self.number.to_be_bytes());
        for m in &self.members {
            h.update(&m.0.to_be_bytes());
        }
        h.finalize()
    }
}

impl Wire for View {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.number.encode(buf);
        self.members.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(View { number: u64::decode(buf)?, members: Wire::decode(buf)? })
    }
    fn encoded_len(&self) -> usize {
        8 + self.members.encoded_len()
    }
}

/// A transferred client record: the xlog plus its settled balance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientRecord {
    /// The client's outgoing-payment log.
    pub payments: Vec<Payment>,
    /// The client's settled balance.
    pub balance: Amount,
    /// The client id (xlogs may be empty, so the owner must be explicit).
    pub owner: ClientId,
}

impl Wire for ClientRecord {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.payments.encode(buf);
        self.balance.encode(buf);
        self.owner.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(ClientRecord {
            payments: Wire::decode(buf)?,
            balance: Amount::decode(buf)?,
            owner: ClientId::decode(buf)?,
        })
    }
    fn encoded_len(&self) -> usize {
        self.payments.encoded_len() + 8 + self.owner.encoded_len()
    }
}

/// Reconfiguration protocol messages.
///
/// `Join` / `ViewProposal` / `StateTransfer` implement the membership
/// change of Appendix A ([`ReconfigReplica`]); `SyncRequest` /
/// `SyncState` are the same state-transfer machinery specialised for a
/// *member that restarts*: the member set is unchanged, so no view change
/// runs — the returning replica only needs the settled delta, certified
/// by `f+1` byte-identical copies over the authenticated links (exactly
/// how the joiner certifies its transferred state).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconfigMsg<S> {
    /// A replica asks to join the system.
    Join,
    /// A member's signed endorsement of a successor view.
    ViewProposal {
        /// The proposed view.
        view: View,
        /// Signature over the view digest.
        sig: S,
    },
    /// Full state pushed to the joiner after view installation.
    StateTransfer {
        /// The installed view's number.
        view_number: u64,
        /// Every client's xlog and balance.
        records: Vec<ClientRecord>,
    },
    /// A restarted member asks the group for the settled delta (catch-up
    /// after downtime). Peers answer with [`ReconfigMsg::SyncState`].
    SyncRequest {
        /// The requester's settled-payment count — peers and the
        /// requester's own collector use it as a freshness floor.
        settled: u64,
    },
    /// A peer serves the *head* of its canonical settlement state in
    /// reply to a [`ReconfigMsg::SyncRequest`]: `crate::journal::SyncHead`
    /// wire bytes (per-client history-block counts plus the volatile
    /// state remainder), kept opaque so the message is shared by both
    /// protocols. The history blocks the head references travel as
    /// [`ReconfigMsg::SyncBlock`]s alongside.
    SyncState {
        /// The responder's settled-payment count at capture time.
        settled: u64,
        /// The canonical head encoding.
        state: Vec<u8>,
    },
    /// One full history block of the chunked catch-up transfer: entries
    /// `[block·K, (block+1)·K)` of `client`'s xlog, `K =`
    /// [`crate::journal::SYNC_BLOCK_ENTRIES`]. Blocks are content-stable
    /// across correct donors (per-sender log prefix consistency), so the
    /// requester certifies each at `f+1` byte-identical copies —
    /// accumulated across retry rounds, which is what lets catch-up
    /// converge while the donors keep settling.
    SyncBlock {
        /// The xlog owner.
        client: ClientId,
        /// The block index within the owner's xlog.
        block: u64,
        /// The encoded entries (`Vec<Payment>` wire bytes).
        data: Vec<u8>,
    },
}

impl<S: Wire> Wire for ReconfigMsg<S> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ReconfigMsg::Join => buf.push(0),
            ReconfigMsg::ViewProposal { view, sig } => {
                buf.push(1);
                view.encode(buf);
                sig.encode(buf);
            }
            ReconfigMsg::StateTransfer { view_number, records } => {
                buf.push(2);
                view_number.encode(buf);
                records.encode(buf);
            }
            ReconfigMsg::SyncRequest { settled } => {
                buf.push(3);
                settled.encode(buf);
            }
            ReconfigMsg::SyncState { settled, state } => {
                buf.push(4);
                settled.encode(buf);
                state.encode(buf);
            }
            ReconfigMsg::SyncBlock { client, block, data } => {
                buf.push(5);
                client.encode(buf);
                block.encode(buf);
                data.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(ReconfigMsg::Join),
            1 => Ok(ReconfigMsg::ViewProposal { view: View::decode(buf)?, sig: S::decode(buf)? }),
            2 => Ok(ReconfigMsg::StateTransfer {
                view_number: u64::decode(buf)?,
                records: Wire::decode(buf)?,
            }),
            3 => Ok(ReconfigMsg::SyncRequest { settled: u64::decode(buf)? }),
            4 => {
                Ok(ReconfigMsg::SyncState { settled: u64::decode(buf)?, state: Wire::decode(buf)? })
            }
            5 => Ok(ReconfigMsg::SyncBlock {
                client: ClientId::decode(buf)?,
                block: u64::decode(buf)?,
                data: Wire::decode(buf)?,
            }),
            _ => Err(WireError::InvalidValue("reconfig message tag")),
        }
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            ReconfigMsg::Join => 0,
            ReconfigMsg::ViewProposal { view, sig } => view.encoded_len() + sig.encoded_len(),
            ReconfigMsg::StateTransfer { view_number, records } => {
                view_number.encoded_len() + records.encoded_len()
            }
            ReconfigMsg::SyncRequest { settled } => settled.encoded_len(),
            ReconfigMsg::SyncState { settled, state } => {
                settled.encoded_len() + state.encoded_len()
            }
            ReconfigMsg::SyncBlock { client, block, data } => {
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
    /// The certified head references history blocks that are not all
    /// certified yet; keep collecting.
    Incomplete,
}

impl core::fmt::Display for SyncError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SyncError::Invalid => f.write_str("transferred state failed validation"),
            SyncError::Stale => f.write_str("transferred state is behind local state"),
            SyncError::Incomplete => f.write_str("transferred history blocks still certifying"),
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

/// The requester side of the catch-up state transfer: collects
/// [`ReconfigMsg::SyncState`] responses and certifies one once `f+1`
/// group members served byte-identical copies (at least one of them is
/// honest, so the state is a real settled state of the system — the same
/// argument that activates a joiner in Appendix A).
///
/// Responses are keyed per sender (a retry replaces the sender's earlier
/// vote, it never double-counts), and responses whose settled count is
/// below the local floor are rejected outright — a Byzantine peer cannot
/// roll a restarted replica back by serving a stale state.
#[derive(Debug)]
pub struct CatchUp {
    me: ReplicaId,
    members: Vec<ReplicaId>,
    small_quorum: usize,
    floor: u64,
    /// Votes per response digest: the bytes and who served them.
    votes: HashMap<[u8; 32], (Vec<u8>, HashSet<ReplicaId>)>,
    /// Latest response digest per sender.
    by_sender: HashMap<ReplicaId, [u8; 32]>,
    rejected: usize,
}

impl CatchUp {
    /// A collector for replica `me` of `group`, rejecting responses with
    /// fewer than `floor` settled payments (the local count at restart).
    pub fn new(group: &Group, me: ReplicaId, floor: u64) -> Self {
        CatchUp {
            me,
            members: group.members().to_vec(),
            small_quorum: group.small_quorum(),
            floor,
            votes: HashMap::new(),
            by_sender: HashMap::new(),
            rejected: 0,
        }
    }

    /// The request this collector is gathering responses for.
    pub fn request<S>(&self) -> ReconfigMsg<S> {
        ReconfigMsg::SyncRequest { settled: self.floor }
    }

    /// Offers one response. Returns the certified state bytes once `f+1`
    /// distinct members have served byte-identical copies.
    pub fn offer(&mut self, from: ReplicaId, settled: u64, state: Vec<u8>) -> Option<Vec<u8>> {
        if from == self.me || !self.members.contains(&from) || settled < self.floor {
            self.rejected += 1;
            return None;
        }
        let mut h = astro_crypto::sha256::Sha256::new();
        h.update(b"astro-sync-state-v1");
        h.update(&state);
        let digest = h.finalize();
        if let Some(old) = self.by_sender.insert(from, digest) {
            if old != digest {
                if let Some((_, senders)) = self.votes.get_mut(&old) {
                    senders.remove(&from);
                    if senders.is_empty() {
                        self.votes.remove(&old);
                    }
                }
            }
        }
        let entry = self.votes.entry(digest).or_insert_with(|| (state, HashSet::new()));
        entry.1.insert(from);
        (entry.1.len() >= self.small_quorum).then(|| entry.0.clone())
    }

    /// Discards all gathered votes (a certified state failed to install —
    /// e.g. lagging donors — and the next retry starts fresh).
    pub fn clear(&mut self) {
        self.votes.clear();
        self.by_sender.clear();
    }

    /// Responses rejected so far (non-members, self, stale floors) —
    /// observability for the adversarial tests.
    pub fn rejected(&self) -> usize {
        self.rejected
    }
}

/// Per-block vote state: candidate bytes by digest, plus each sender's
/// latest vote.
#[derive(Debug, Default)]
struct BlockSlot {
    candidates: HashMap<[u8; 32], (Vec<u8>, HashSet<ReplicaId>)>,
    by_sender: HashMap<ReplicaId, [u8; 32]>,
}

/// The requester side of the chunked history transfer: collects
/// [`ReconfigMsg::SyncBlock`]s and certifies each `(client, block)` once
/// `f+1` group members served byte-identical copies.
///
/// Unlike the head collector ([`CatchUp`]), certified blocks are **kept
/// across retry rounds**: a full block of a per-sender log has a unique
/// honest version (log prefix consistency), so once certified it never
/// needs re-collection — certification progress is monotonic even while
/// the donors keep settling, which is what makes catch-up converge
/// without a quiet moment.
#[derive(Debug)]
pub struct BlockVotes {
    me: ReplicaId,
    members: Vec<ReplicaId>,
    small_quorum: usize,
    open: HashMap<(ClientId, u64), BlockSlot>,
    certified: HashMap<(ClientId, u64), Vec<u8>>,
    rejected: usize,
}

impl BlockVotes {
    /// A collector for replica `me` of `group`.
    pub fn new(group: &Group, me: ReplicaId) -> Self {
        BlockVotes {
            me,
            members: group.members().to_vec(),
            small_quorum: group.small_quorum(),
            open: HashMap::new(),
            certified: HashMap::new(),
            rejected: 0,
        }
    }

    /// Offers one block copy. Returns true if this vote certified the
    /// block (reaching `f+1` byte-identical copies); an already-certified
    /// block absorbs further copies silently.
    pub fn offer(&mut self, from: ReplicaId, client: ClientId, block: u64, data: Vec<u8>) -> bool {
        if from == self.me || !self.members.contains(&from) {
            self.rejected += 1;
            return false;
        }
        let key = (client, block);
        if self.certified.contains_key(&key) {
            return false;
        }
        let mut h = astro_crypto::sha256::Sha256::new();
        h.update(b"astro-sync-block-v1");
        h.update(&client.0.to_be_bytes());
        h.update(&block.to_be_bytes());
        h.update(&data);
        let digest = h.finalize();
        let slot = self.open.entry(key).or_default();
        if let Some(old) = slot.by_sender.insert(from, digest) {
            if old != digest {
                if let Some((_, senders)) = slot.candidates.get_mut(&old) {
                    senders.remove(&from);
                    if senders.is_empty() {
                        slot.candidates.remove(&old);
                    }
                }
            }
        }
        let entry = slot.candidates.entry(digest).or_insert_with(|| (data, HashSet::new()));
        entry.1.insert(from);
        if entry.1.len() >= self.small_quorum {
            let (data, _) = slot.candidates.remove(&digest).expect("just inserted");
            self.open.remove(&key);
            self.certified.insert(key, data);
            return true;
        }
        false
    }

    /// The certified copy of `(client, block)`, if any.
    pub fn certified(&self, client: ClientId, block: u64) -> Option<&Vec<u8>> {
        self.certified.get(&(client, block))
    }

    /// True if every block in `counts` (per-client block counts from a
    /// certified head) is certified.
    pub fn has_all(&self, counts: &[(ClientId, u64)]) -> bool {
        counts.iter().all(|&(client, n)| (0..n).all(|b| self.certified.contains_key(&(client, b))))
    }

    /// Number of certified blocks so far (observability / progress).
    pub fn certified_len(&self) -> usize {
        self.certified.len()
    }

    /// Offers rejected so far (self, non-members) — observability for
    /// the adversarial tests.
    pub fn rejected(&self) -> usize {
        self.rejected
    }

    /// Discards everything, certified blocks included — only for the
    /// invalid-transfer path (a certified head + blocks combination that
    /// failed structural validation cannot be trusted in any part).
    pub fn clear(&mut self) {
        self.open.clear();
        self.certified.clear();
    }
}

/// Effects of one reconfiguration transition.
#[derive(Debug)]
pub struct ReconfigStep<S> {
    /// Messages to send. `Dest::All` means the *current view's* members
    /// plus any pending joiner (the driver expands it from
    /// [`ReconfigReplica::recipients`]).
    pub outbound: Vec<Envelope<ReconfigMsg<S>>>,
    /// Set when this transition installed a new view.
    pub installed: Option<View>,
    /// Set when this (joining) replica became active.
    pub activated: bool,
}

impl<S> ReconfigStep<S> {
    fn empty() -> Self {
        ReconfigStep { outbound: Vec::new(), installed: None, activated: false }
    }
}

/// Proposal endorsements gathered per proposed-view digest.
type ProposalVotes<S> = HashMap<[u8; 32], (View, HashMap<ReplicaId, S>)>;

/// The reconfiguration state machine of one replica.
#[derive(Debug)]
pub struct ReconfigReplica<A: Authenticator> {
    auth: A,
    view: View,
    /// Signed proposals gathered per proposed-view digest.
    proposals: ProposalVotes<A::Sig>,
    /// Views we already endorsed (at most one proposal per view number).
    endorsed: HashSet<u64>,
    /// Joiner side: digests of received state, by digest → senders.
    state_votes: HashMap<[u8; 32], (Vec<ClientRecord>, HashSet<ReplicaId>)>,
    /// True once this replica participates in payments.
    active: bool,
    /// True while a view change is in progress (payments pause).
    paused: bool,
}

impl<A: Authenticator> ReconfigReplica<A> {
    /// Creates an *active member* of `initial` view.
    pub fn member(auth: A, initial: View) -> Self {
        ReconfigReplica {
            auth,
            view: initial,
            proposals: HashMap::new(),
            endorsed: HashSet::new(),
            state_votes: HashMap::new(),
            active: true,
            paused: false,
        }
    }

    /// Creates a *joining* replica that knows the current view.
    pub fn joiner(auth: A, current: View) -> Self {
        ReconfigReplica {
            auth,
            view: current,
            proposals: HashMap::new(),
            endorsed: HashSet::new(),
            state_votes: HashMap::new(),
            active: false,
            paused: false,
        }
    }

    /// The current view.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// True if this replica processes payments.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// True while payments are paused for a view change.
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    /// Everyone a `Dest::All` should reach right now.
    pub fn recipients(&self) -> Vec<ReplicaId> {
        self.view.members.clone()
    }

    /// Joiner: announce the join request to the current view.
    pub fn request_join(&mut self) -> ReconfigStep<A::Sig> {
        ReconfigStep {
            outbound: vec![Envelope { to: Dest::All, msg: ReconfigMsg::Join }],
            installed: None,
            activated: false,
        }
    }

    /// Processes one reconfiguration message. `ledger` provides (and on the
    /// joiner, receives) the transferred state.
    pub fn handle(
        &mut self,
        from: ReplicaId,
        msg: ReconfigMsg<A::Sig>,
        ledger: &mut Ledger,
    ) -> ReconfigStep<A::Sig> {
        match msg {
            ReconfigMsg::Join => self.on_join(from),
            ReconfigMsg::ViewProposal { view, sig } => self.on_proposal(from, view, sig, ledger),
            ReconfigMsg::StateTransfer { view_number, records } => {
                self.on_state(from, view_number, records, ledger)
            }
            // Catch-up traffic is handled by the payment replicas (the
            // member set is unchanged, no view transition runs).
            ReconfigMsg::SyncRequest { .. }
            | ReconfigMsg::SyncState { .. }
            | ReconfigMsg::SyncBlock { .. } => ReconfigStep::empty(),
        }
    }

    fn on_join(&mut self, joiner: ReplicaId) -> ReconfigStep<A::Sig> {
        if !self.active || self.view.contains(joiner) {
            return ReconfigStep::empty();
        }
        let proposed = self.view.with_joiner(joiner);
        if !self.endorsed.insert(proposed.number) {
            return ReconfigStep::empty();
        }
        self.paused = true; // pause payments while the view changes
        let sig = self.auth.sign(&proposed.digest());
        let mut step = ReconfigStep::empty();
        // Send to current members and the joiner.
        step.outbound.push(Envelope {
            to: Dest::All,
            msg: ReconfigMsg::ViewProposal { view: proposed.clone(), sig: sig.clone() },
        });
        step.outbound.push(Envelope {
            to: Dest::One(joiner),
            msg: ReconfigMsg::ViewProposal { view: proposed, sig },
        });
        step
    }

    fn on_proposal(
        &mut self,
        from: ReplicaId,
        view: View,
        sig: A::Sig,
        ledger: &Ledger,
    ) -> ReconfigStep<A::Sig> {
        if view.number <= self.view.number {
            return ReconfigStep::empty();
        }
        // Proposals must be signed by members of the *current* view.
        if !self.view.contains(from) || !self.auth.verify(from, &view.digest(), &sig) {
            return ReconfigStep::empty();
        }
        let digest = view.digest();
        let quorum = self.view.quorum();
        let entry = self.proposals.entry(digest).or_insert_with(|| (view.clone(), HashMap::new()));
        entry.1.insert(from, sig);
        if entry.1.len() < quorum {
            return ReconfigStep::empty();
        }
        // Install the view.
        let installed = entry.0.clone();
        self.proposals.remove(&digest);
        let old_members = std::mem::replace(&mut self.view, installed.clone()).members;
        self.paused = false;
        let mut step = ReconfigStep::empty();
        step.installed = Some(installed.clone());
        // Members of the old view push state to the newcomers.
        if self.active {
            let newcomers: Vec<ReplicaId> =
                installed.members.iter().copied().filter(|m| !old_members.contains(m)).collect();
            if !newcomers.is_empty() {
                // Canonical order: state digests must match across correct
                // replicas, so records are sorted by owner.
                let mut records: Vec<ClientRecord> = ledger
                    .xlogs()
                    .map(|xlog| ClientRecord {
                        payments: xlog.iter().collect(),
                        balance: ledger.balance(xlog.owner()),
                        owner: xlog.owner(),
                    })
                    .collect();
                records.sort_by_key(|r| r.owner);
                for newcomer in newcomers {
                    step.outbound.push(Envelope {
                        to: Dest::One(newcomer),
                        msg: ReconfigMsg::StateTransfer {
                            view_number: installed.number,
                            records: records.clone(),
                        },
                    });
                }
            }
        }
        step
    }

    fn on_state(
        &mut self,
        from: ReplicaId,
        view_number: u64,
        records: Vec<ClientRecord>,
        ledger: &mut Ledger,
    ) -> ReconfigStep<A::Sig> {
        if self.active || view_number < self.view.number || !self.view.contains(from) {
            return ReconfigStep::empty();
        }
        // Hash the canonical encoding; install after f+1 matching copies.
        let mut h = astro_crypto::sha256::Sha256::new();
        h.update(b"astro-state-v1");
        h.update(&view_number.to_be_bytes());
        h.update(&records.encoded_len().to_be_bytes());
        h.update(&records.to_wire_bytes());
        let digest = h.finalize();
        let entry = self.state_votes.entry(digest).or_insert_with(|| (records, HashSet::new()));
        entry.1.insert(from);
        if entry.1.len() < self.view.small_quorum() {
            return ReconfigStep::empty();
        }
        let (records, _) = self.state_votes.remove(&digest).expect("just inserted");
        for record in records {
            let mut xlog = XLog::new(record.owner);
            for p in record.payments {
                if xlog.append(p).is_err() {
                    // Corrupt transfer — cannot happen with f+1 matching
                    // digests from a correct majority; skip defensively.
                    continue;
                }
            }
            ledger.install(xlog, record.balance);
        }
        self.active = true;
        let mut step = ReconfigStep::empty();
        step.activated = true;
        step
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astro_types::MacAuthenticator;

    type R = ReconfigReplica<MacAuthenticator>;

    fn auth(i: u32) -> MacAuthenticator {
        MacAuthenticator::new(ReplicaId(i), b"reconfig".to_vec())
    }

    struct Net {
        replicas: Vec<R>,
        ledgers: Vec<Ledger>,
        queue: std::collections::VecDeque<(
            ReplicaId,
            ReplicaId,
            ReconfigMsg<astro_types::auth::SimSig>,
        )>,
        installed: Vec<Option<View>>,
        activated: Vec<bool>,
    }

    impl Net {
        fn new(members: usize, joiners: usize) -> Self {
            let group = Group::of_size(members).unwrap();
            let view = View::initial(&group);
            let mut replicas: Vec<R> =
                (0..members as u32).map(|i| R::member(auth(i), view.clone())).collect();
            for j in 0..joiners {
                replicas.push(R::joiner(auth((members + j) as u32), view.clone()));
            }
            let n = replicas.len();
            Net {
                replicas,
                ledgers: (0..n).map(|_| Ledger::new(Amount(100))).collect(),
                queue: Default::default(),
                installed: vec![None; n],
                activated: vec![false; n],
            }
        }

        fn submit(&mut self, from: ReplicaId, step: ReconfigStep<astro_types::auth::SimSig>) {
            if let Some(v) = step.installed {
                self.installed[from.0 as usize] = Some(v);
            }
            if step.activated {
                self.activated[from.0 as usize] = true;
            }
            let recipients = self.replicas[from.0 as usize].recipients();
            for env in step.outbound {
                match env.to {
                    Dest::All => {
                        for &to in &recipients {
                            self.queue.push_back((from, to, env.msg.clone()));
                        }
                    }
                    Dest::One(to) => self.queue.push_back((from, to, env.msg)),
                }
            }
        }

        fn run(&mut self) {
            while let Some((from, to, msg)) = self.queue.pop_front() {
                if (to.0 as usize) < self.replicas.len() {
                    let mut ledger =
                        std::mem::replace(&mut self.ledgers[to.0 as usize], Ledger::new(Amount(0)));
                    let step = self.replicas[to.0 as usize].handle(from, msg, &mut ledger);
                    self.ledgers[to.0 as usize] = ledger;
                    self.submit(to, step);
                }
            }
        }
    }

    #[test]
    fn joiner_becomes_active_with_transferred_state() {
        let mut net = Net::new(4, 1);
        // Seed some state at the members.
        for ledger in net.ledgers.iter_mut().take(4) {
            assert_eq!(
                ledger.settle(&Payment::new(1u64, 0u64, 2u64, 30u64), true),
                crate::ledger::SettleOutcome::Applied
            );
        }
        let step = net.replicas[4].request_join();
        net.submit(ReplicaId(4), step);
        net.run();
        assert!(net.replicas[4].is_active(), "joiner must activate");
        assert!(net.activated[4]);
        // View installed everywhere with 5 members.
        for i in 0..5 {
            assert_eq!(net.replicas[i].view().members.len(), 5, "replica {i}");
            assert_eq!(net.replicas[i].view().number, 1);
        }
        // State arrived: the joiner sees the settled payment.
        assert_eq!(net.ledgers[4].balance(ClientId(1)), Amount(70));
        assert_eq!(net.ledgers[4].next_seq(ClientId(1)).0, 1);
        assert!(net.ledgers[4].audit());
    }

    #[test]
    fn sequential_joins_grow_the_view() {
        let mut net = Net::new(4, 2);
        let step = net.replicas[4].request_join();
        net.submit(ReplicaId(4), step);
        net.run();
        assert!(net.replicas[4].is_active());
        // Second joiner needs the *new* view to address everyone. Update
        // its knowledge (public bootstrap info in practice).
        let v1 = net.replicas[0].view().clone();
        net.replicas[5] = R::joiner(auth(5), v1);
        let step = net.replicas[5].request_join();
        net.submit(ReplicaId(5), step);
        net.run();
        assert!(net.replicas[5].is_active());
        assert_eq!(net.replicas[0].view().members.len(), 6);
        assert_eq!(net.replicas[0].view().number, 2);
    }

    #[test]
    fn duplicate_join_requests_ignored() {
        let mut net = Net::new(4, 1);
        let step = net.replicas[4].request_join();
        net.submit(ReplicaId(4), step);
        net.run();
        let before = net.replicas[0].view().number;
        // Joiner asks again after being admitted.
        let step = net.replicas[4].request_join();
        net.submit(ReplicaId(4), step);
        net.run();
        assert_eq!(net.replicas[0].view().number, before, "no further view change");
    }

    #[test]
    fn forged_proposal_does_not_install() {
        let group = Group::of_size(4).unwrap();
        let view = View::initial(&group);
        let mut member = R::member(auth(0), view.clone());
        let mut ledger = Ledger::new(Amount(100));
        let proposed = view.with_joiner(ReplicaId(9));
        // Signature by a non-member / wrong key.
        let bad_sig = auth(9).sign(&proposed.digest());
        for _ in 0..10 {
            let step = member.handle(
                ReplicaId(9),
                ReconfigMsg::ViewProposal { view: proposed.clone(), sig: bad_sig.clone() },
                &mut ledger,
            );
            assert!(step.installed.is_none());
        }
        assert_eq!(member.view().number, 0);
    }

    #[test]
    fn joiner_needs_f_plus_1_matching_states() {
        let group = Group::of_size(4).unwrap();
        let view = View::initial(&group);
        let mut joiner = R::joiner(auth(4), view.with_joiner(ReplicaId(4)));
        let mut ledger = Ledger::new(Amount(0));
        let records = vec![ClientRecord {
            payments: vec![Payment::new(1u64, 0u64, 2u64, 5u64)],
            balance: Amount(95),
            owner: ClientId(1),
        }];
        // One copy is not enough (f+1 = 2 for n=5).
        let step = joiner.handle(
            ReplicaId(0),
            ReconfigMsg::StateTransfer { view_number: 1, records: records.clone() },
            &mut ledger,
        );
        assert!(!step.activated);
        assert!(!joiner.is_active());
        // Second matching copy activates.
        let step = joiner.handle(
            ReplicaId(1),
            ReconfigMsg::StateTransfer { view_number: 1, records },
            &mut ledger,
        );
        assert!(step.activated);
        assert!(joiner.is_active());
        assert_eq!(ledger.balance(ClientId(1)), Amount(95));
    }

    #[test]
    fn catch_up_certifies_on_f_plus_1_matching_responses() {
        let group = Group::of_size(4).unwrap();
        let mut cu = CatchUp::new(&group, ReplicaId(3), 5);
        let honest = vec![1u8, 2, 3];
        assert!(cu.offer(ReplicaId(0), 9, honest.clone()).is_none(), "one copy is below f+1");
        assert_eq!(cu.offer(ReplicaId(1), 9, honest.clone()), Some(honest));
    }

    #[test]
    fn catch_up_rejects_stale_self_and_foreign_responses() {
        let group = Group::of_size(4).unwrap();
        let mut cu = CatchUp::new(&group, ReplicaId(3), 10);
        assert!(cu.offer(ReplicaId(0), 9, vec![1]).is_none(), "below the floor");
        assert!(cu.offer(ReplicaId(3), 99, vec![1]).is_none(), "own responses do not count");
        assert!(cu.offer(ReplicaId(9), 99, vec![1]).is_none(), "non-members do not count");
        assert_eq!(cu.rejected(), 3);
        // None of those contributed a vote: one honest copy still waits.
        assert!(cu.offer(ReplicaId(0), 10, vec![1]).is_none());
        assert!(cu.offer(ReplicaId(1), 10, vec![1]).is_some());
    }

    #[test]
    fn catch_up_counts_each_sender_once() {
        let group = Group::of_size(4).unwrap();
        let mut cu = CatchUp::new(&group, ReplicaId(3), 0);
        // A Byzantine peer repeating (or varying) its response never
        // certifies alone.
        assert!(cu.offer(ReplicaId(0), 5, vec![7]).is_none());
        assert!(cu.offer(ReplicaId(0), 5, vec![7]).is_none());
        assert!(cu.offer(ReplicaId(0), 6, vec![8]).is_none());
        // Its latest vote (for [8]) is the only one it holds: an honest
        // [7] response still needs a second member.
        assert!(cu.offer(ReplicaId(1), 5, vec![7]).is_none());
        assert_eq!(cu.offer(ReplicaId(2), 5, vec![7]), Some(vec![7]));
    }

    #[test]
    fn catch_up_clear_restarts_collection() {
        let group = Group::of_size(4).unwrap();
        let mut cu = CatchUp::new(&group, ReplicaId(3), 0);
        assert!(cu.offer(ReplicaId(0), 1, vec![1]).is_none());
        cu.clear();
        assert!(cu.offer(ReplicaId(1), 1, vec![1]).is_none(), "votes were discarded");
        assert!(cu.offer(ReplicaId(0), 1, vec![1]).is_some());
    }

    #[test]
    fn block_votes_certify_at_f_plus_1_and_stay_certified() {
        let group = Group::of_size(4).unwrap();
        let mut bv = BlockVotes::new(&group, ReplicaId(3));
        assert!(!bv.offer(ReplicaId(0), ClientId(1), 0, vec![7, 7]));
        assert!(bv.offer(ReplicaId(1), ClientId(1), 0, vec![7, 7]), "f+1 = 2 certifies");
        assert_eq!(bv.certified(ClientId(1), 0), Some(&vec![7, 7]));
        // A later conflicting copy cannot displace a certified block.
        assert!(!bv.offer(ReplicaId(2), ClientId(1), 0, vec![9]));
        assert_eq!(bv.certified(ClientId(1), 0), Some(&vec![7, 7]));
        assert!(bv.has_all(&[(ClientId(1), 1)]));
        assert!(!bv.has_all(&[(ClientId(1), 2)]), "second block still missing");
    }

    #[test]
    fn block_votes_count_each_sender_once_and_reject_outsiders() {
        let group = Group::of_size(4).unwrap();
        let mut bv = BlockVotes::new(&group, ReplicaId(3));
        assert!(!bv.offer(ReplicaId(3), ClientId(1), 0, vec![1]), "own copies do not count");
        assert!(!bv.offer(ReplicaId(9), ClientId(1), 0, vec![1]), "non-members do not count");
        assert_eq!(bv.rejected(), 2);
        // One Byzantine sender repeating itself never certifies.
        assert!(!bv.offer(ReplicaId(0), ClientId(1), 0, vec![1]));
        assert!(!bv.offer(ReplicaId(0), ClientId(1), 0, vec![1]));
        // Its switch of vote retracts the old copy.
        assert!(!bv.offer(ReplicaId(0), ClientId(1), 0, vec![2]));
        assert!(!bv.offer(ReplicaId(1), ClientId(1), 0, vec![1]));
        assert!(bv.offer(ReplicaId(2), ClientId(1), 0, vec![1]), "two honest copies certify");
    }

    #[test]
    fn block_votes_clear_discards_certified_blocks() {
        let group = Group::of_size(4).unwrap();
        let mut bv = BlockVotes::new(&group, ReplicaId(3));
        assert!(
            bv.offer(ReplicaId(0), ClientId(1), 0, vec![1])
                || bv.offer(ReplicaId(1), ClientId(1), 0, vec![1])
        );
        assert_eq!(bv.certified_len(), 1);
        bv.clear();
        assert_eq!(bv.certified_len(), 0);
        assert!(bv.certified(ClientId(1), 0).is_none());
    }

    #[test]
    fn sync_messages_wire_round_trip() {
        use astro_types::wire::decode_exact;
        let msgs: Vec<ReconfigMsg<astro_types::auth::SimSig>> = vec![
            ReconfigMsg::SyncRequest { settled: 42 },
            ReconfigMsg::SyncState { settled: 43, state: vec![1, 2, 3, 4] },
            ReconfigMsg::SyncBlock { client: ClientId(5), block: 2, data: vec![9, 9, 9] },
        ];
        for msg in msgs {
            let bytes = msg.to_wire_bytes();
            assert_eq!(bytes.len(), msg.encoded_len());
            assert_eq!(
                decode_exact::<ReconfigMsg<astro_types::auth::SimSig>>(&bytes).unwrap(),
                msg
            );
        }
    }

    #[test]
    fn view_wire_round_trip() {
        use astro_types::wire::decode_exact;
        let group = Group::of_size(4).unwrap();
        let view = View::initial(&group).with_joiner(ReplicaId(7));
        let bytes = view.to_wire_bytes();
        assert_eq!(bytes.len(), view.encoded_len());
        assert_eq!(decode_exact::<View>(&bytes).unwrap(), view);
    }
}
