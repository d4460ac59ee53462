//! The Astro I replica: payments over Bracha's echo-based BRB
//! (paper §III, §IV-A).
//!
//! Astro I relies on the broadcast layer's *totality*: every settled
//! payment credits the beneficiary directly at every correct replica, so no
//! CREDIT mechanism is needed. Insufficiently funded payments are queued
//! until funds arrive (paper §IV: "Astro I does not reject insufficiently
//! funded transactions, instead it queues them").
//! A replica that missed a batch fetches it ([`astro_brb::bracha`]), its
//! flush timer pacing the re-requests; once every holder has pruned the
//! batch it falls back to peer catch-up, whose certified state holds the
//! batch's effects — delivered-instance GC never costs totality.

use crate::batch::Batch;
use crate::journal::{
    block_counts, merge_history_blocks, split_history_blocks, Astro1Snapshot, Astro1State, Journal,
    JournalSlot, RecoverError, SyncBlock, SyncHead, WalRecord, SYNC_HEAD_MAX_BYTES,
};
use crate::ledger::{Ledger, SettleOutcome};
use crate::obs::CoreObs;
use crate::pending::PendingQueue;
use crate::reconfig::{BlockVotes, CatchUp, ReconfigMsg, SyncError, SyncServeError};
use crate::xlog::XLogError;
use crate::{ReplicaStep, SubmitError};
use astro_brb::bracha::{BrachaBrb, BrachaMsg};
use astro_brb::{BrbConfig, DeliveryOrder, Dest, Envelope, InstanceId};
use astro_types::wire::{decode_exact, Wire, WireError};
use astro_types::{Amount, ClientId, Group, Payment, ReplicaId, ShardLayout};
use std::collections::{HashMap, VecDeque};

/// Configuration of an Astro I replica.
#[derive(Debug, Clone)]
pub struct Astro1Config {
    /// Payments per broadcast batch; the batch is flushed automatically
    /// when full (callers may also flush on a timer via
    /// [`AstroOneReplica::flush`]). Batch size 1 disables batching.
    pub batch_size: usize,
    /// Genesis balance of every client.
    pub initial_balance: Amount,
}

impl Default for Astro1Config {
    fn default() -> Self {
        Astro1Config { batch_size: 64, initial_balance: Amount(1_000_000) }
    }
}

/// Wire messages exchanged between Astro I replicas.
///
/// Astro I carries no signatures — links are MAC-authenticated and the
/// catch-up state transfer certifies by `f+1` matching digests — so the
/// reconfiguration messages are instantiated with the unit signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Astro1Msg {
    /// Broadcast-layer traffic (Bracha's three phases plus the payload
    /// request/answer leg).
    Brb(BrachaMsg<Batch>),
    /// Reconfiguration / catch-up traffic (Appendix A).
    Sync(ReconfigMsg<()>),
}

impl Wire for Astro1Msg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Astro1Msg::Brb(m) => {
                buf.push(0);
                m.encode(buf);
            }
            Astro1Msg::Sync(m) => {
                buf.push(1);
                m.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(Astro1Msg::Brb(Wire::decode(buf)?)),
            1 => Ok(Astro1Msg::Sync(Wire::decode(buf)?)),
            _ => Err(WireError::InvalidValue("astro1 message tag")),
        }
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            Astro1Msg::Brb(m) => m.encoded_len(),
            Astro1Msg::Sync(m) => m.encoded_len(),
        }
    }
}

/// Broadcast messages a catching-up replica may park before the
/// transferred cursor is installed. Overflow drops the *oldest* message:
/// old messages belong to instances the certified state (which keeps
/// advancing at the donors while we retry) will cover, while the newest
/// are exactly the ones replay needs after the install — dropping those
/// would leave an unfillable FIFO gap, since BRB never retransmits.
pub(crate) const SYNC_BUFFER_CAP: usize = 8192;

/// Flush ticks between catch-up request retries (the driver flushes on
/// its batch timer, so a retry goes out roughly every
/// `SYNC_RETRY_TICKS × flush_every`).
pub(crate) const SYNC_RETRY_TICKS: u32 = 16;

/// Retry rounds after which a catch-up started with a local-state
/// fallback gives up and resumes from what it recovered on its own
/// (see [`AstroOneReplica::begin_catchup_with_fallback`]). With the
/// runtime's millisecond flush timers this is a few seconds.
pub(crate) const SYNC_FALLBACK_ROUNDS: u32 = 256;

/// An in-progress catch-up: the response collector plus the broadcast
/// traffic paused until the transferred state is installed. Shared with
/// the Astro II replica.
#[derive(Debug)]
pub(crate) struct SyncSession<M> {
    pub(crate) votes: CatchUp,
    /// Chunked-transfer block collector. Certified blocks persist across
    /// head retries: history certification is monotonic even while the
    /// donors keep settling.
    pub(crate) blocks: BlockVotes,
    /// A certified head whose referenced blocks are not all certified
    /// yet (install completes as the last block lands).
    pub(crate) certified_head: Option<Vec<u8>>,
    pub(crate) buffered: VecDeque<(ReplicaId, M)>,
    /// Flush ticks until the next request retry (0 = send now).
    pub(crate) ticks: u32,
    /// Requests sent so far this session (`requests - 1` = retries).
    pub(crate) requests: u32,
    /// Remaining request rounds before giving up, when the replica has a
    /// locally recovered state to fall back to. `None` = no fallback:
    /// the replica must certify before it may participate (a replica
    /// with no local state cannot safely pick a broadcast tag floor).
    pub(crate) rounds_left: Option<u32>,
}

impl<M> SyncSession<M> {
    pub(crate) fn new(votes: CatchUp, blocks: BlockVotes, rounds_left: Option<u32>) -> Self {
        SyncSession {
            votes,
            blocks,
            certified_head: None,
            buffered: VecDeque::new(),
            ticks: 0,
            requests: 0,
            rounds_left,
        }
    }

    pub(crate) fn park(&mut self, from: ReplicaId, msg: M) {
        if self.buffered.len() >= SYNC_BUFFER_CAP {
            self.buffered.pop_front();
        }
        self.buffered.push_back((from, msg));
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
}

/// Size-triggered GC of delivered BRB instances (both replicas), cheap
/// enough to call after every message: runs `prune`, which returns how many
/// instances it freed, once `tracked` reaches `high_water` — and after a
/// pass that freed nothing (a FIFO gap, say an outstanding pull, holds
/// everything back) not before another `high_water` have piled up.
pub(crate) fn prune_at_high_water(
    rearm: &mut usize,
    tracked: usize,
    high_water: usize,
    obs: Option<&CoreObs>,
    prune: impl FnOnce() -> usize,
) {
    if tracked < high_water.max(*rearm) {
        return;
    }
    let pruned = prune();
    *rearm = if pruned == 0 { tracked + high_water } else { 0 };
    if let (0, Some(obs)) = (pruned, obs) {
        obs.flight.event("core.brb.gc_stalled", tracked as u64, 0);
    }
}

/// One Astro I replica: the Bracha BRB layer plus the payment state machine
/// of Listings 2–4.
#[derive(Debug)]
pub struct AstroOneReplica {
    me: ReplicaId,
    layout: ShardLayout,
    group: Group,
    brb: BrachaBrb<Batch>,
    ledger: Ledger,
    pending: PendingQueue<()>,
    batch: Vec<Payment>,
    batch_size: usize,
    next_tag: u64,
    journal: JournalSlot,
    /// Catch-up in progress: broadcast delivery is paused (messages park)
    /// until a certified peer state is installed.
    syncing: Option<SyncSession<BrachaMsg<Batch>>>,
    /// Metric handles, when a registry is attached (None = unobserved).
    obs: Option<CoreObs>,
    /// Set when a sync install made the in-memory state newer than any
    /// journal replay can reproduce; the durable runtime consumes it and
    /// snapshots immediately.
    snapshot_requested: bool,
    /// Flush ticks since outstanding payload pulls were last requested.
    pull_ticks: u32,
    /// See [`prune_at_high_water`].
    gc_rearm: usize,
}

impl AstroOneReplica {
    /// Creates replica `me`. Astro I is unsharded: `layout` must be a
    /// single-shard layout covering all replicas (it provides the public
    /// client → representative mapping).
    ///
    /// # Panics
    ///
    /// Panics if `me` is not a member of the layout.
    pub fn new(me: ReplicaId, layout: ShardLayout, cfg: Astro1Config) -> Self {
        assert!(layout.shard_of_replica(me).is_some(), "replica {me} not in layout");
        let spec = layout.shard(layout.shard_of_replica(me).expect("checked"));
        let group = Group::from_spec(spec).expect("layout shard too small");
        let brb = BrachaBrb::new(
            me,
            group.clone(),
            BrbConfig { order: DeliveryOrder::FifoPerSource, bind_source: true },
        );
        AstroOneReplica {
            me,
            layout,
            group,
            brb,
            ledger: Ledger::new(cfg.initial_balance),
            pending: PendingQueue::new(),
            batch: Vec::new(),
            batch_size: cfg.batch_size.max(1),
            next_tag: 0,
            journal: JournalSlot::none(),
            syncing: None,
            obs: None,
            snapshot_requested: false,
            pull_ticks: 0,
            gc_rearm: 0,
        }
    }

    /// Reconstructs a replica from a recovered snapshot state (see
    /// [`crate::journal`]). `layout` and `cfg` must match the crashed
    /// incarnation; the unflushed client batch and in-flight BRB instance
    /// messages are not part of durable state (their payments are
    /// re-learnable through the broadcast layer or client retry).
    ///
    /// # Errors
    ///
    /// Fails if the snapshot's xlogs violate the owner/sequence
    /// invariants.
    ///
    /// # Panics
    ///
    /// Panics if `me` is not a member of the layout (as [`Self::new`]).
    pub fn restore(
        me: ReplicaId,
        layout: ShardLayout,
        cfg: Astro1Config,
        state: &Astro1State,
    ) -> Result<Self, XLogError> {
        let mut replica = AstroOneReplica::new(me, layout, cfg);
        replica.ledger = Ledger::import(&state.ledger)?;
        for payment in &state.pending {
            replica.pending.push(*payment, ());
        }
        replica.next_tag = state.next_tag;
        for (source, next) in &state.cursors {
            replica.brb.advance_cursor(*source, *next);
        }
        Ok(replica)
    }

    /// Re-applies one WAL record on top of a restored snapshot. Records
    /// must be fed in log order; records already reflected in the
    /// snapshot re-apply as no-ops. Call [`Self::finish_recovery`] after
    /// the last record.
    pub fn replay(&mut self, record: &WalRecord) {
        match record {
            WalRecord::Delivered { source, tag } => self.brb.advance_cursor(*source, tag + 1),
            WalRecord::Settle { payment, credit_beneficiary } => {
                let _ = self.ledger.settle(payment, *credit_beneficiary);
            }
            WalRecord::Queued { payment, .. } => self.pending.push(*payment, ()),
            WalRecord::OwnTag { tag } => self.next_tag = self.next_tag.max(tag + 1),
            // Astro II records do not occur in an Astro I log.
            WalRecord::DepUsed { .. }
            | WalRecord::Stuck { .. }
            | WalRecord::Cert { .. }
            | WalRecord::CertsTaken { .. }
            | WalRecord::CreditOut { .. }
            | WalRecord::CreditAcked { .. } => {}
        }
    }

    /// Completes recovery: queue entries superseded by replayed settles
    /// are pruned.
    pub fn finish_recovery(&mut self) {
        self.pending.prune_stale(&self.ledger);
    }

    /// Exports the durable state (snapshot): settlement state, approval
    /// queue, broadcast tag counter, and BRB delivery cursors. Canonical:
    /// replicas holding identical state export identical bytes.
    pub fn export_state(&self) -> Astro1State {
        Astro1State {
            ledger: self.ledger.export(),
            pending: self.pending.payments(),
            next_tag: self.next_tag,
            cursors: self.brb.delivery_cursors(),
        }
    }

    /// Attaches a journal: every subsequent state-machine effect is
    /// recorded (see [`crate::journal::WalRecord`]).
    pub fn set_journal(&mut self, journal: Box<dyn Journal>) {
        self.journal.set(journal);
    }

    /// Attaches metric handles: settles, catch-up progress, and payment
    /// lifecycle stamps report into them from here on.
    pub fn set_obs(&mut self, obs: CoreObs) {
        self.obs = Some(obs);
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.me
    }

    /// The replica group this replica participates in.
    pub fn group(&self) -> &Group {
        &self.group
    }

    /// A client submits a payment (Listing 1's `Send` arrives here).
    ///
    /// # Errors
    ///
    /// Rejects payments from clients this replica does not represent — the
    /// mapping is public (paper §III), so honest clients never hit this.
    pub fn submit(&mut self, payment: Payment) -> Result<ReplicaStep<Astro1Msg>, SubmitError> {
        if !self.layout.is_representative(self.me, payment.spender) {
            return Err(SubmitError::NotRepresentative {
                client: payment.spender,
                representative: self.layout.representative_of(payment.spender),
            });
        }
        self.batch.push(payment);
        // While catching up the batch only accumulates: auto-flush would
        // burn the sync retry pacing (flush doubles as its timer), and
        // broadcasting must wait for the certified tag floor anyway.
        if self.syncing.is_none() && self.batch.len() >= self.batch_size {
            Ok(self.flush())
        } else {
            Ok(ReplicaStep::empty())
        }
    }

    /// Broadcasts the accumulated batch, if any (called on a timer by the
    /// driver, and automatically when a batch fills).
    ///
    /// While a catch-up is in progress the batch stays parked (the
    /// replica must not broadcast before it knows a certified tag floor)
    /// and the flush timer instead paces the periodic re-send of the
    /// [`ReconfigMsg::SyncRequest`] — or, once a fallback budget runs
    /// out, abandons the catch-up and resumes from the local state.
    ///
    /// The same timer, at the same [`SYNC_RETRY_TICKS`] pacing, re-sends
    /// the broadcast layer's unanswered payload requests, and starts a
    /// catch-up once one has gone unanswered for all its rounds.
    pub fn flush(&mut self) -> ReplicaStep<Astro1Msg> {
        if let Some(sync) = &mut self.syncing {
            if sync.ticks == 0 {
                if sync.exhausted() {
                    // No f+1 matching donors in time (the rest of the
                    // cluster may be restarting too). This replica has a
                    // locally recovered state — resume from it, exactly
                    // as a pre-catch-up restart did, replaying whatever
                    // parked meanwhile.
                    let sync = self.syncing.take().expect("syncing");
                    let mut out = ReplicaStep::empty();
                    for (from, m) in sync.buffered {
                        let step = self.handle(from, Astro1Msg::Brb(m));
                        out.outbound.extend(step.outbound);
                        out.settled.extend(step.settled);
                    }
                    return out;
                }
                sync.ticks = SYNC_RETRY_TICKS;
                sync.requests += 1;
                if let Some(obs) = &self.obs {
                    if sync.requests > 1 {
                        obs.sync_retries.inc();
                    }
                    obs.flight.event("core.sync.request", u64::from(sync.requests), 0);
                }
                let request = sync.votes.request();
                return ReplicaStep {
                    outbound: vec![Envelope { to: Dest::All, msg: Astro1Msg::Sync(request) }],
                    settled: Vec::new(),
                };
            }
            sync.ticks -= 1;
            return ReplicaStep::empty();
        }
        let mut out = ReplicaStep::empty();
        self.pull_ticks = if self.brb.pulls_outstanding() == 0 { 0 } else { self.pull_ticks + 1 };
        if self.pull_ticks == SYNC_RETRY_TICKS {
            self.pull_ticks = 0;
            let (requests, exhausted) = self.brb.retry_pulls();
            out.outbound = wrap_brb(requests);
            if exhausted {
                // Everyone that vouched for a batch stayed silent for all
                // its rounds: they delivered and pruned it, so its effects
                // are in their settled state — fetch that. The local state
                // is sound, hence the fallback variant.
                self.begin_catchup_with_fallback();
                return out;
            }
        }
        if self.batch.is_empty() {
            return out;
        }
        let payments = std::mem::take(&mut self.batch);
        if let Some(obs) = &self.obs {
            obs.stage_batch(&payments, astro_obs::Stage::Prepare);
            obs.pending_depth.set(self.pending.len() as u64);
        }
        let id = InstanceId { source: u64::from(self.me.0), tag: self.next_tag };
        self.next_tag += 1;
        // Journaled before the PREPARE leaves: a restarted replica must
        // never reuse a tag it already broadcast under (peers echo at most
        // once per instance, so a reused tag wedges the stream). Against
        // *power loss* the window is bounded by group commit unless the
        // store's `sync_on_broadcast` policy is set.
        self.journal.rec(&WalRecord::OwnTag { tag: id.tag });
        let step = self.brb.broadcast(id, Batch { payments });
        debug_assert!(step.delivered.is_empty());
        out.outbound.extend(wrap_brb(step.outbound));
        out
    }

    /// Number of payments waiting in the unflushed batch.
    pub fn batched(&self) -> usize {
        self.batch.len()
    }

    /// Processes one replica-to-replica message.
    pub fn handle(&mut self, from: ReplicaId, msg: Astro1Msg) -> ReplicaStep<Astro1Msg> {
        match msg {
            Astro1Msg::Brb(m) => {
                if let Some(sync) = &mut self.syncing {
                    // FIFO delivery is paused until the transferred cursor
                    // is installed; park the message for replay.
                    if self.group.contains(from) {
                        sync.park(from, m);
                        if let Some(obs) = &self.obs {
                            obs.parked.inc();
                            obs.parked_depth.set(sync.buffered.len() as u64);
                        }
                    }
                    return ReplicaStep::empty();
                }
                let step = self.brb.handle(from, m);
                let mut out =
                    ReplicaStep { outbound: wrap_brb(step.outbound), settled: Vec::new() };
                for delivery in step.delivered {
                    self.apply_batch(delivery.id, &delivery.payload, &mut out);
                }
                out
            }
            Astro1Msg::Sync(m) => self.on_sync(from, m),
        }
    }

    /// Handles reconfiguration traffic: serves catch-up requests from
    /// group members and, while catching up, folds peer responses into
    /// the collector until one certifies and installs.
    fn on_sync(&mut self, from: ReplicaId, msg: ReconfigMsg<()>) -> ReplicaStep<Astro1Msg> {
        if from == self.me || !self.group.contains(from) {
            return ReplicaStep::empty();
        }
        match msg {
            ReconfigMsg::SyncRequest { settled } => {
                // A replica that is itself catching up serves nothing: its
                // state is behind, and a cluster of simultaneously
                // restarted replicas must not certify each other's gaps.
                // A replica behind the requester's own floor stays silent
                // too — the requester would reject the response anyway,
                // so serializing a full state for it is pure waste.
                if self.syncing.is_some() || (self.ledger.total_settled() as u64) < settled {
                    return ReplicaStep::empty();
                }
                match self.sync_chunks(from) {
                    Ok((head, blocks)) => {
                        let mut outbound = Vec::with_capacity(blocks.len() + 1);
                        let reply = ReconfigMsg::SyncState {
                            settled: self.ledger.total_settled() as u64,
                            state: head.to_wire_bytes(),
                        };
                        outbound
                            .push(Envelope { to: Dest::One(from), msg: Astro1Msg::Sync(reply) });
                        for (client, block, data) in blocks {
                            outbound.push(Envelope {
                                to: Dest::One(from),
                                msg: Astro1Msg::Sync(ReconfigMsg::SyncBlock {
                                    client,
                                    block,
                                    data,
                                }),
                            });
                        }
                        ReplicaStep { outbound, settled: Vec::new() }
                    }
                    Err(SyncServeError::HeadTooLarge { bytes }) => {
                        // Typed refusal instead of the framing layer's
                        // oversized-payload panic.
                        if let Some(obs) = &self.obs {
                            obs.sync_refused_oversize.inc();
                            obs.flight.event("core.sync.head_oversize", bytes as u64, 0);
                        }
                        ReplicaStep::empty()
                    }
                }
            }
            ReconfigMsg::SyncState { settled, state } => {
                let Some(sync) = &mut self.syncing else { return ReplicaStep::empty() };
                if let Some(head) = sync.votes.offer(from, settled, state) {
                    sync.certified_head = Some(head);
                }
                self.note_sync_progress();
                self.try_complete_sync()
            }
            ReconfigMsg::SyncBlock { client, block, data } => {
                let Some(sync) = &mut self.syncing else { return ReplicaStep::empty() };
                sync.blocks.offer(from, client, block, data);
                self.note_sync_progress();
                self.try_complete_sync()
            }
            // The join protocol (Join / ViewProposal / StateTransfer) is
            // driven by `ReconfigReplica` deployments, not by the payment
            // replica itself.
            _ => ReplicaStep::empty(),
        }
    }

    /// Publishes the catch-up collectors' reject/progress counters.
    fn note_sync_progress(&mut self) {
        let (Some(obs), Some(sync)) = (&self.obs, &self.syncing) else { return };
        obs.sync_rejected.set((sync.votes.rejected() + sync.blocks.rejected()) as u64);
        obs.sync_blocks_certified.set(sync.blocks.certified_len() as u64);
    }

    /// Attempts to finish the catch-up: once the head is certified and
    /// every history block it references is certified, reassemble the
    /// full state and install it. Anything structurally invalid discards
    /// the collected votes and re-collects; a merely *stale* head (the
    /// donors lag) discards only the head — certified blocks are
    /// content-stable and stay.
    fn try_complete_sync(&mut self) -> ReplicaStep<Astro1Msg> {
        let Some(sync) = &mut self.syncing else { return ReplicaStep::empty() };
        let Some(head_bytes) = &sync.certified_head else { return ReplicaStep::empty() };
        let assembled = match decode_exact::<SyncHead>(head_bytes) {
            Ok(head) => {
                if !sync.blocks.has_all(&head.blocks) {
                    return ReplicaStep::empty(); // blocks still certifying
                }
                let blocks = &sync.blocks;
                decode_exact::<Astro1State>(&head.state_tail).ok().and_then(|mut state| {
                    merge_history_blocks(&mut state.ledger, &head.blocks, |c, b| {
                        blocks.certified(c, b).cloned()
                    })
                    .ok()
                    .map(|()| state)
                })
            }
            Err(_) => None,
        };
        let Some(state) = assembled else {
            // f+1 matching copies of an undecodable or unmergeable
            // transfer cannot come from an honest majority; drop
            // everything and re-collect.
            sync.certified_head = None;
            sync.votes.clear();
            sync.blocks.clear();
            return ReplicaStep::empty();
        };
        match self.install_sync(&state) {
            Ok(mut out) => {
                // Caught up: replay the parked broadcast traffic through
                // the normal path (messages at or below the installed
                // cursor are dropped by FIFO gating, later ones proceed).
                let sync = self.syncing.take().expect("syncing");
                for (from, m) in sync.buffered {
                    let step = self.handle(from, Astro1Msg::Brb(m));
                    out.outbound.extend(step.outbound);
                    out.settled.extend(step.settled);
                }
                out
            }
            Err(SyncError::Stale) => {
                // The certified head is behind this replica (the donors
                // lag) — discard it and retry; certified blocks stay.
                if let Some(sync) = &mut self.syncing {
                    sync.certified_head = None;
                    sync.votes.clear();
                }
                ReplicaStep::empty()
            }
            Err(SyncError::Invalid) => {
                if let Some(sync) = &mut self.syncing {
                    sync.certified_head = None;
                    sync.votes.clear();
                    sync.blocks.clear();
                }
                ReplicaStep::empty()
            }
        }
    }

    /// Applies a BRB-delivered batch: approve (queue if blocked) and settle
    /// each payment, then cascade the approval queue.
    fn apply_batch(&mut self, id: InstanceId, batch: &Batch, out: &mut ReplicaStep<Astro1Msg>) {
        let broadcaster = ReplicaId(id.source as u32);
        let settled_before = out.settled.len();
        if let Some(obs) = &self.obs {
            // Bracha delivery *is* the quorum event: 2f+1 READYs arrived.
            // Only the broadcaster stamps its own delivery: every correct
            // replica delivers the batch at roughly the same instant, and
            // one stamp per payment keeps the other replicas' settle loops
            // off the tracer's shard locks entirely.
            if broadcaster == self.me {
                obs.stage_batch(&batch.payments, astro_obs::Stage::AckQuorum);
            }
        }
        let mut touched: Vec<ClientId> = Vec::new();
        for payment in &batch.payments {
            // Only a client's designated representative may broker her
            // payments (paper §II); the BRB layer bound `source` to the
            // transport-authenticated broadcaster.
            if self.layout.representative_of(payment.spender) != broadcaster {
                continue;
            }
            match self.ledger.settle(payment, true) {
                SettleOutcome::Applied => {
                    self.journal
                        .rec(&WalRecord::Settle { payment: *payment, credit_beneficiary: true });
                    out.settled.push(*payment);
                    touched.push(payment.spender);
                    touched.push(payment.beneficiary);
                }
                SettleOutcome::FutureSeq | SettleOutcome::InsufficientFunds => {
                    self.journal.rec(&WalRecord::Queued { payment: *payment, deps: Vec::new() });
                    self.pending.push(*payment, ());
                    touched.push(payment.spender);
                }
                SettleOutcome::StaleSeq => {}
            }
        }
        let settled =
            self.pending.drain_cascade(touched, &mut self.ledger, |l, p, ()| l.settle(p, true));
        for entry in &settled {
            self.journal
                .rec(&WalRecord::Settle { payment: entry.payment, credit_beneficiary: true });
        }
        // The delivery record *terminates* the batch's effects in the log:
        // a torn tail that cuts before it replays a (harmless, idempotent)
        // effect prefix with the cursor still behind — never a cursor that
        // has advanced past effects that were lost.
        self.journal.rec(&WalRecord::Delivered { source: id.source, tag: id.tag });
        out.settled.extend(settled.into_iter().map(|e| e.payment));
        if let Some(obs) = &self.obs {
            let settled = &out.settled[settled_before..];
            obs.settles.add(settled.len() as u64);
            // One settle stamp per payment, by the spender's
            // representative: the lifecycle timeline reads as one
            // replica's view, and the other replicas never contend on the
            // payment's tracer slot.
            obs.stage_batch(
                settled.iter().filter(|p| self.layout.representative_of(p.spender) == self.me),
                astro_obs::Stage::Settle,
            );
        }
    }

    /// The settled balance of a client (Listing 2's `bal`); any replica can
    /// answer (full replication).
    pub fn balance(&self, client: ClientId) -> Amount {
        self.ledger.balance(client)
    }

    /// Read access to the full ledger (audit, state transfer).
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Prunes BRB state for delivered broadcast instances (everything
    /// below the per-source FIFO cursors) — see
    /// [`BrachaBrb::gc_delivered`]. The durable runtime calls this at its
    /// snapshot-install point: once a snapshot holds the deliveries'
    /// effects, their echo/ready bookkeeping only costs memory. Returns
    /// the number of instances pruned.
    pub fn prune_delivered(&mut self) -> usize {
        self.brb.gc_delivered()
    }

    /// [`Self::prune_delivered`] once `high_water` instances are tracked;
    /// for calling after every message (see [`prune_at_high_water`]).
    pub fn prune_delivered_at(&mut self, high_water: usize) {
        let (tracked, brb, obs) = (self.brb.tracked_instances(), &mut self.brb, self.obs.as_ref());
        prune_at_high_water(&mut self.gc_rearm, tracked, high_water, obs, || brb.gc_delivered());
    }

    /// Number of receiver-side BRB instances currently tracked
    /// (observability for the GC tests).
    pub fn tracked_instances(&self) -> usize {
        self.brb.tracked_instances()
    }

    /// True while a payload pull or a catch-up is outstanding: only the
    /// flush timer moves those, so drivers that arm it on demand (the
    /// simulator) keep it armed while this holds.
    pub fn needs_tick(&self) -> bool {
        self.syncing.is_some() || self.brb.pulls_outstanding() > 0
    }

    /// Number of payments queued awaiting approval.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Starts peer catch-up (the restart path): broadcast delivery pauses
    /// and the next [`Self::flush`] tick broadcasts a
    /// [`ReconfigMsg::SyncRequest`]; peers answer with their canonical
    /// settlement state and `f+1` byte-identical copies install. Until
    /// then the client batch stays parked (no broadcast may leave before
    /// the certified tag floor is known) and inbound BRB messages buffer
    /// for replay.
    ///
    /// This variant retries **forever**: a replica with no locally
    /// recovered state must not participate (or pick a broadcast tag)
    /// until a certified state tells it where the quorum stands. Durable
    /// restarts use [`Self::begin_catchup_with_fallback`].
    pub fn begin_catchup(&mut self) {
        let floor = self.ledger.total_settled() as u64;
        self.syncing = Some(SyncSession::new(
            CatchUp::new(&self.group, self.me, floor),
            BlockVotes::new(&self.group, self.me),
            None,
        ));
    }

    /// Like [`Self::begin_catchup`], but gives up after a bounded number
    /// of request rounds and resumes from the locally recovered state —
    /// for replicas restored from durable storage, whose local state is
    /// safe to run on (it merely lacks the downtime delta). This keeps a
    /// cluster whose replicas restart *concurrently* live: with fewer
    /// than `f+1` serving donors nothing can certify, and without the
    /// fallback every restarted replica would pause forever.
    pub fn begin_catchup_with_fallback(&mut self) {
        let floor = self.ledger.total_settled() as u64;
        self.syncing = Some(SyncSession::new(
            CatchUp::new(&self.group, self.me, floor),
            BlockVotes::new(&self.group, self.me),
            Some(SYNC_FALLBACK_ROUNDS),
        ));
    }

    /// True while peer catch-up is in progress.
    pub fn is_syncing(&self) -> bool {
        self.syncing.is_some()
    }

    /// True once after a sync install: the in-memory state is newer than
    /// any journal replay can reproduce, so a durable deployment must
    /// snapshot now. Consuming resets the flag.
    pub fn take_snapshot_request(&mut self) -> bool {
        std::mem::take(&mut self.snapshot_requested)
    }

    /// The canonical state served to a catching-up peer. Identical to
    /// [`Self::export_state`] except for the replica-local broadcast tag
    /// counter: `next_tag` is reinterpreted as *the requester's* stream
    /// high-water mark, so the certified copy tells the restarted replica
    /// the first tag that is safe to broadcast under.
    pub fn sync_state(&self, requester: ReplicaId) -> Astro1State {
        let mut state = self.export_state();
        state.next_tag = self.brb.source_high_water(u64::from(requester.0));
        state
    }

    /// The chunked form of [`Self::sync_state`]: settled history splits
    /// into content-stable [`crate::journal::SYNC_BLOCK_ENTRIES`]-entry
    /// xlog blocks (certified per-block at the requester), and the
    /// volatile remainder — ledger tails, balances, approval queue,
    /// cursors — rides in a small [`SyncHead`]. Every piece stays far
    /// below the wire frame cap regardless of total settled history.
    ///
    /// # Errors
    ///
    /// [`SyncServeError::HeadTooLarge`] if the volatile head alone
    /// exceeds [`SYNC_HEAD_MAX_BYTES`] — a pathological state (an
    /// enormous approval queue) that must be refused rather than
    /// panicking the framing layer.
    pub fn sync_chunks(
        &self,
        requester: ReplicaId,
    ) -> Result<(SyncHead, Vec<SyncBlock>), SyncServeError> {
        let mut state = self.sync_state(requester);
        let blocks = split_history_blocks(&mut state.ledger);
        let head = SyncHead { blocks: block_counts(&blocks), state_tail: state.to_wire_bytes() };
        let bytes = head.state_tail.len();
        if bytes > SYNC_HEAD_MAX_BYTES {
            return Err(SyncServeError::HeadTooLarge { bytes });
        }
        Ok((head, blocks))
    }

    /// Seals the settle delta since the last checkpoint: one
    /// [`crate::journal::CheckpointRecord`] per dirty account (encoded),
    /// in canonical client order, and advances the per-account
    /// watermarks. Empty when nothing settled since the last seal. The
    /// durable runtime writes the returned records as one immutable
    /// checkpoint segment; the next [`Self::residual_state`] then only
    /// carries state *above* the watermarks.
    pub fn seal_checkpoint(&mut self) -> Vec<Vec<u8>> {
        self.ledger
            .seal_delta()
            .iter()
            .map(super::journal::CheckpointRecord::to_wire_bytes)
            .collect()
    }

    /// The residual snapshot: the volatile protocol state **not** covered
    /// by checkpoint segments — the approval queue, the broadcast tag
    /// counter, and delivery cursors. Captured at the same instant as
    /// [`Self::seal_checkpoint`], the sealed segments reconstruct the
    /// entire ledger, so the residual needs none of it; its size is
    /// O(working set), not O(total settled).
    pub fn residual_state(&self, sealed_segments: u64) -> Astro1Snapshot {
        Astro1Snapshot {
            sealed_segments,
            pending: self.pending.payments(),
            next_tag: self.next_tag,
            cursors: self.brb.delivery_cursors(),
        }
    }

    /// Forgets the checkpoint watermarks: every account becomes dirty
    /// again and the next [`Self::seal_checkpoint`] re-exports full
    /// history. The durable runtime calls this when a checkpoint segment
    /// fails to persist — the on-disk segment sequence stops being a
    /// prefix of what the watermarks assume, so the only safe move is to
    /// restart checkpointing from scratch.
    pub fn rebaseline(&mut self) {
        self.ledger.rebaseline();
    }

    /// Reconstructs a replica from recovered checkpoint segments plus the
    /// residual snapshot — the segmented counterpart of
    /// [`Self::restore`]. `segments` are the decoded record payloads of
    /// the sealed segments, in index order; the residual's
    /// `sealed_segments` says how many of them it builds on (extra
    /// trailing segments — sealed after the residual was written but
    /// before its WAL truncation — are ignored; *missing* ones are
    /// unrecoverable).
    ///
    /// # Errors
    ///
    /// [`RecoverError::MissingSegments`] if fewer segments were recovered
    /// than the residual references, [`RecoverError::Discontinuity`] /
    /// [`RecoverError::Decode`] on segment content that does not chain,
    /// [`RecoverError::Log`] if the reassembled xlogs violate invariants.
    ///
    /// # Panics
    ///
    /// Panics if `me` is not a member of the layout (as [`Self::new`]).
    pub fn restore_from_checkpoints(
        me: ReplicaId,
        layout: ShardLayout,
        cfg: Astro1Config,
        segments: &[Vec<Vec<u8>>],
        residual: &Astro1Snapshot,
    ) -> Result<Self, RecoverError> {
        if (segments.len() as u64) < residual.sealed_segments {
            return Err(RecoverError::MissingSegments {
                referenced: residual.sealed_segments,
                recovered: segments.len() as u64,
            });
        }
        let sealed = &segments[..residual.sealed_segments as usize];
        let initial_balance = cfg.initial_balance;
        let mut replica = AstroOneReplica::new(me, layout, cfg);
        replica.ledger = Ledger::from_checkpoints(initial_balance, sealed)?;
        for payment in &residual.pending {
            replica.pending.push(*payment, ());
        }
        replica.next_tag = residual.next_tag;
        for (source, next) in &residual.cursors {
            replica.brb.advance_cursor(*source, *next);
        }
        Ok(replica)
    }

    /// Installs a certified peer state over the locally recovered one:
    /// the settled delta (xlogs, balances, approval queue) replaces local
    /// settlement state, delivery cursors advance (releasing any
    /// completed instances the gap was holding back), and the broadcast
    /// tag counter rises to the certified floor. Returns the step whose
    /// `settled` is exactly the payments this replica learned through the
    /// transfer.
    ///
    /// # Errors
    ///
    /// [`SyncError::Stale`] if the transferred state is behind this
    /// replica in any xlog or delivery cursor (installing it would lose
    /// settled effects — the donors lag; retry), [`SyncError::Invalid`]
    /// if it fails structural validation.
    pub fn install_sync(
        &mut self,
        state: &Astro1State,
    ) -> Result<ReplicaStep<Astro1Msg>, SyncError> {
        let certified = Ledger::import(&state.ledger).map_err(|_| SyncError::Invalid)?;
        // Never regress: every local xlog must be a prefix of (or equal
        // to) its certified counterpart, and no certified cursor may sit
        // below a local one — otherwise effects this replica already
        // applied would vanish with no re-delivery to restore them.
        for xlog in self.ledger.xlogs() {
            if certified.next_seq(xlog.owner()) < xlog.next_seq() {
                return Err(SyncError::Stale);
            }
        }
        let certified_cursors: HashMap<u64, u64> = state.cursors.iter().copied().collect();
        for (source, next) in self.brb.delivery_cursors() {
            if certified_cursors.get(&source).copied().unwrap_or(0) < next {
                return Err(SyncError::Stale);
            }
        }
        // The settled delta — everything the quorum settled while this
        // replica was down — reported exactly once, in xlog order.
        let mut installed: Vec<Payment> = Vec::new();
        for xlog in certified.xlogs() {
            let have = self.ledger.xlog(xlog.owner()).map_or(0, crate::xlog::XLog::len);
            installed.extend(xlog.iter().skip(have).copied());
        }
        self.ledger = certified;
        self.pending = PendingQueue::new();
        for payment in &state.pending {
            self.pending.push(*payment, ());
        }
        if state.next_tag > self.next_tag {
            // Journaled even though a snapshot follows: tag reuse is the
            // one recovery error a later catch-up cannot repair.
            self.journal.rec(&WalRecord::OwnTag { tag: state.next_tag - 1 });
            self.next_tag = state.next_tag;
        }
        let mut out = ReplicaStep { outbound: Vec::new(), settled: installed };
        // Advance cursors past the caught-up instances; instances that
        // completed *behind* a gap are released and applied now. Their
        // effects are already part of the certified state, so the ledger
        // drops them as stale — but a gap-blocked instance *beyond* the
        // certified cursor settles normally here.
        for (source, next) in &state.cursors {
            for delivery in self.brb.advance_cursor_releasing(*source, *next) {
                self.apply_batch(delivery.id, &delivery.payload, &mut out);
            }
        }
        // The caught-up prefix is dead weight in the broadcast layer now.
        self.brb.gc_delivered();
        self.snapshot_requested = true;
        Ok(out)
    }
}

/// Wraps broadcast-layer envelopes into the top-level message type.
fn wrap_brb(outbound: Vec<Envelope<BrachaMsg<Batch>>>) -> Vec<Envelope<Astro1Msg>> {
    outbound.into_iter().map(|e| Envelope { to: e.to, msg: Astro1Msg::Brb(e.msg) }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::PaymentCluster;

    fn cluster(n: usize, batch_size: usize) -> PaymentCluster<AstroOneReplica> {
        let layout = ShardLayout::single(n).unwrap();
        PaymentCluster::new((0..n).map(|i| {
            AstroOneReplica::new(
                ReplicaId(i as u32),
                layout.clone(),
                Astro1Config { batch_size, initial_balance: Amount(100) },
            )
        }))
    }

    /// Submits a payment at its representative and returns the step.
    fn pay(c: &mut PaymentCluster<AstroOneReplica>, p: Payment) {
        let rep = c.node(0).layout.representative_of(p.spender);
        let step = c.node_mut(rep.0 as usize).submit(p).expect("representative accepts");
        c.submit_step(rep, step);
    }

    #[test]
    fn single_payment_settles_everywhere() {
        let mut c = cluster(4, 1);
        pay(&mut c, Payment::new(1u64, 0u64, 2u64, 30u64));
        c.run_to_quiescence();
        for i in 0..4 {
            assert_eq!(c.settled(i).len(), 1, "replica {i}");
            assert_eq!(c.node(i).balance(ClientId(1)), Amount(70));
            assert_eq!(c.node(i).balance(ClientId(2)), Amount(130));
        }
    }

    #[test]
    fn batching_flushes_on_size() {
        let mut c = cluster(4, 3);
        // Client 0's representative in a single-shard 4-replica layout.
        let rep = c.node(0).layout.representative_of(ClientId(0));
        for seq in 0..2u64 {
            let step =
                c.node_mut(rep.0 as usize).submit(Payment::new(0u64, seq, 1u64, 1u64)).unwrap();
            assert!(step.outbound.is_empty(), "batch below threshold must not flush");
            c.submit_step(rep, step);
        }
        assert_eq!(c.node(rep.0 as usize).batched(), 2);
        let step = c.node_mut(rep.0 as usize).submit(Payment::new(0u64, 2u64, 1u64, 1u64)).unwrap();
        assert!(!step.outbound.is_empty(), "third payment fills the batch");
        c.submit_step(rep, step);
        c.run_to_quiescence();
        for i in 0..4 {
            assert_eq!(c.settled(i).len(), 3);
        }
    }

    #[test]
    fn manual_flush_broadcasts_partial_batch() {
        let mut c = cluster(4, 100);
        let rep = c.node(0).layout.representative_of(ClientId(0));
        let step = c.node_mut(rep.0 as usize).submit(Payment::new(0u64, 0u64, 1u64, 5u64)).unwrap();
        c.submit_step(rep, step);
        let step = c.node_mut(rep.0 as usize).flush();
        c.submit_step(rep, step);
        c.run_to_quiescence();
        for i in 0..4 {
            assert_eq!(c.settled(i).len(), 1);
        }
    }

    #[test]
    fn rejects_clients_of_other_representatives() {
        let layout = ShardLayout::single(4).unwrap();
        let mut replica =
            AstroOneReplica::new(ReplicaId(0), layout.clone(), Astro1Config::default());
        // Find a client NOT represented by replica 0.
        let foreign = (0..100u64)
            .map(ClientId)
            .find(|c| layout.representative_of(*c) != ReplicaId(0))
            .unwrap();
        let err = replica.submit(Payment::new(foreign.0, 0u64, 1u64, 1u64)).unwrap_err();
        assert!(matches!(err, SubmitError::NotRepresentative { .. }));
    }

    #[test]
    fn overdraft_queues_until_credited() {
        let mut c = cluster(4, 1);
        // Client 1 has 100 but tries to pay 150 — queued, not rejected.
        pay(&mut c, Payment::new(1u64, 0u64, 2u64, 150u64));
        c.run_to_quiescence();
        for i in 0..4 {
            assert!(c.settled(i).is_empty());
            assert_eq!(c.node(i).pending_len(), 1);
        }
        // Client 3 credits client 1 with 60; the queued payment unblocks.
        pay(&mut c, Payment::new(3u64, 0u64, 1u64, 60u64));
        c.run_to_quiescence();
        for i in 0..4 {
            assert_eq!(c.settled(i).len(), 2, "replica {i}");
            assert_eq!(c.node(i).balance(ClientId(1)), Amount(10));
            assert_eq!(c.node(i).balance(ClientId(2)), Amount(250));
            assert_eq!(c.node(i).pending_len(), 0);
        }
    }

    #[test]
    fn replicas_converge_to_identical_state() {
        let mut c = cluster(7, 2);
        // A little payment storm among 6 clients.
        let mut seqs = [0u64; 6];
        for i in 0..24u64 {
            let s = (i % 6) as usize;
            let b = ((i + 1) % 6) as usize;
            pay(&mut c, Payment::new(s as u64, seqs[s], b as u64, 3u64));
            seqs[s] += 1;
        }
        // Flush stragglers at every replica.
        for r in 0..7 {
            let step = c.node_mut(r).flush();
            c.submit_step(ReplicaId(r as u32), step);
        }
        c.run_to_quiescence();
        for i in 1..7 {
            for client in 0..6u64 {
                assert_eq!(
                    c.node(i).balance(ClientId(client)),
                    c.node(0).balance(ClientId(client)),
                    "replica {i} diverged on client {client}"
                );
            }
            assert_eq!(c.settled(i).len(), 24);
        }
        // Money conserved.
        let total: u64 = (0..6u64).map(|cl| c.node(0).balance(ClientId(cl)).0).sum();
        assert_eq!(total, 600);
    }

    #[test]
    fn double_spend_attempt_settles_at_most_one() {
        // A Byzantine client submits two conflicting payments with the same
        // sequence number to its (honest) representative. The BRB layer
        // totally orders the representative's stream, so every replica
        // settles the first and drops the second as stale.
        let mut c = cluster(4, 1);
        let client = ClientId(1);
        pay(&mut c, Payment::new(client.0, 0u64, 2u64, 80u64));
        pay(&mut c, Payment::new(client.0, 0u64, 3u64, 80u64)); // conflict
        c.run_to_quiescence();
        for i in 0..4 {
            assert_eq!(c.settled(i).len(), 1, "exactly one of the two settles");
            assert_eq!(c.node(i).balance(ClientId(2)), Amount(180));
            assert_eq!(c.node(i).balance(ClientId(3)), Amount(100));
        }
    }

    #[test]
    fn crash_of_f_replicas_does_not_block_payments() {
        let mut c = cluster(7, 1); // f = 2
        c.crash(ReplicaId(5));
        c.crash(ReplicaId(6));
        pay(&mut c, Payment::new(1u64, 0u64, 2u64, 10u64));
        c.run_to_quiescence();
        for i in 0..5 {
            assert_eq!(c.settled(i).len(), 1, "live replica {i} settles");
        }
    }

    #[test]
    fn export_restore_round_trips_state() {
        let mut c = cluster(4, 2);
        let mut seqs = [0u64; 4];
        for i in 0..12u64 {
            let s = (i % 4) as usize;
            pay(&mut c, Payment::new(s as u64, seqs[s], (i + 1) % 4, 3u64));
            seqs[s] += 1;
        }
        for r in 0..4 {
            let step = c.node_mut(r).flush();
            c.submit_step(ReplicaId(r as u32), step);
        }
        c.run_to_quiescence();
        let state = c.node(2).export_state();
        let layout = ShardLayout::single(4).unwrap();
        let cfg = Astro1Config { batch_size: 2, initial_balance: Amount(100) };
        let restored = AstroOneReplica::restore(ReplicaId(2), layout, cfg, &state).unwrap();
        assert_eq!(restored.export_state(), state, "restore→export is the identity");
        for client in 0..4u64 {
            assert_eq!(restored.balance(ClientId(client)), c.node(2).balance(ClientId(client)));
        }
        assert_eq!(restored.ledger().total_settled(), c.node(2).ledger().total_settled());
    }

    #[test]
    fn converged_replicas_export_identical_settlement_bytes() {
        use astro_types::wire::Wire;
        let mut c = cluster(4, 1);
        pay(&mut c, Payment::new(1u64, 0u64, 2u64, 30u64));
        pay(&mut c, Payment::new(3u64, 0u64, 1u64, 5u64));
        c.run_to_quiescence();
        // The *settlement* section is canonical across replicas (the
        // paper's convergence claim, checkable on disk); the broadcast
        // tag counter is replica-local by design.
        let reference = c.node(0).export_state().ledger.to_wire_bytes();
        for i in 1..4 {
            assert_eq!(
                c.node(i).export_state().ledger.to_wire_bytes(),
                reference,
                "replica {i} settlement state diverged"
            );
        }
    }

    #[test]
    fn journal_replay_reproduces_state() {
        use crate::journal::{Journal, WalRecord};
        use std::sync::{Arc, Mutex};

        #[derive(Clone)]
        struct Sink(Arc<Mutex<Vec<WalRecord>>>);
        impl Journal for Sink {
            fn record(&mut self, r: &WalRecord) {
                self.0.lock().unwrap().push(r.clone());
            }
        }

        let mut c = cluster(4, 1);
        let sink = Sink(Arc::new(Mutex::new(Vec::new())));
        c.node_mut(1).set_journal(Box::new(sink.clone()));
        // A storm including an overdraft that queues and later unblocks.
        pay(&mut c, Payment::new(1u64, 0u64, 2u64, 150u64)); // queued (150 > 100)
        pay(&mut c, Payment::new(3u64, 0u64, 1u64, 60u64)); // unblocks it
        pay(&mut c, Payment::new(2u64, 0u64, 3u64, 10u64));
        c.run_to_quiescence();
        assert_eq!(c.settled(1).len(), 3);

        // A fresh replica, no snapshot: replay the full log.
        let layout = ShardLayout::single(4).unwrap();
        let cfg = Astro1Config { batch_size: 1, initial_balance: Amount(100) };
        let mut recovered = AstroOneReplica::new(ReplicaId(1), layout, cfg);
        for rec in sink.0.lock().unwrap().iter() {
            recovered.replay(rec);
        }
        recovered.finish_recovery();
        assert_eq!(recovered.export_state(), c.node(1).export_state());
        assert_eq!(recovered.pending_len(), 0);
    }

    #[test]
    fn replay_is_idempotent_over_snapshot_overlap() {
        use crate::journal::{Journal, WalRecord};
        use std::sync::{Arc, Mutex};

        #[derive(Clone)]
        struct Sink(Arc<Mutex<Vec<WalRecord>>>);
        impl Journal for Sink {
            fn record(&mut self, r: &WalRecord) {
                self.0.lock().unwrap().push(r.clone());
            }
        }

        let mut c = cluster(4, 1);
        let sink = Sink(Arc::new(Mutex::new(Vec::new())));
        c.node_mut(0).set_journal(Box::new(sink.clone()));
        for seq in 0..5u64 {
            pay(&mut c, Payment::new(0u64, seq, 1u64, 2u64));
        }
        c.run_to_quiescence();

        // Snapshot taken *after* the log: replaying the whole log on top
        // (the crash-between-install-and-truncate window) must not change
        // anything.
        let state = c.node(0).export_state();
        let layout = ShardLayout::single(4).unwrap();
        let cfg = Astro1Config { batch_size: 1, initial_balance: Amount(100) };
        let mut recovered = AstroOneReplica::restore(ReplicaId(0), layout, cfg, &state).unwrap();
        for rec in sink.0.lock().unwrap().iter() {
            recovered.replay(rec);
        }
        recovered.finish_recovery();
        assert_eq!(recovered.export_state(), state, "double-applied log must be a no-op");
    }

    #[test]
    fn byzantine_replica_cannot_forge_other_clients_payments() {
        // Replica 0 broadcasts a batch containing a payment whose spender
        // is represented by a different replica: every correct replica must
        // skip it.
        let mut c = cluster(4, 1);
        let layout = ShardLayout::single(4).unwrap();
        let victim = (0..100u64)
            .map(ClientId)
            .find(|cl| layout.representative_of(*cl) != ReplicaId(0))
            .unwrap();
        // Forge via the replica's own broadcast path (it will broadcast a
        // batch on its own stream containing the foreign payment).
        let forged = Payment::new(victim.0, 0u64, 1u64, 99u64);
        let node0 = c.node_mut(0);
        node0.batch.push(forged); // bypass submit's representative check
        let step = node0.flush();
        c.submit_step(ReplicaId(0), step);
        c.run_to_quiescence();
        for i in 0..4 {
            assert!(c.settled(i).is_empty(), "forged payment must not settle");
            assert_eq!(c.node(i).balance(victim), Amount(100));
        }
    }

    /// A cluster in which replica 3's PREPAREs never reach replica 2 (and,
    /// with `answers_lost`, neither does any ANSWER), after a payment storm
    /// in which every replica broadcast several batches.
    fn cluster_with_a_broken_link(answers_lost: bool) -> PaymentCluster<AstroOneReplica> {
        let mut c = cluster(4, 2);
        c.set_filter(move |from, to, msg| match msg {
            Astro1Msg::Brb(BrachaMsg::Prepare { .. }) => (from.0, to.0) != (3, 2),
            Astro1Msg::Brb(BrachaMsg::Answer { .. }) => !(answers_lost && to.0 == 2),
            _ => true,
        });
        let mut seqs = [0u64; 8];
        for i in 0..40u64 {
            let s = (i % 8) as usize;
            pay(&mut c, Payment::new(s as u64, seqs[s], (i + 3) % 8, 2u64));
            seqs[s] += 1;
        }
        for r in 0..4 {
            let step = c.node_mut(r).flush();
            c.submit_step(ReplicaId(r as u32), step);
        }
        c.run_to_quiescence();
        c
    }

    fn assert_converged(c: &PaymentCluster<AstroOneReplica>) {
        let reference = c.node(0).export_state();
        let mut settled = c.settled(0).to_vec();
        settled.sort_unstable_by_key(Payment::id);
        assert_eq!(settled.len(), 40);
        for i in 1..4 {
            let state = c.node(i).export_state();
            assert_eq!(state.ledger.to_wire_bytes(), reference.ledger.to_wire_bytes(), "{i}");
            assert_eq!((&state.pending, &state.cursors), (&reference.pending, &reference.cursors));
            let mut theirs = c.settled(i).to_vec();
            theirs.sort_unstable_by_key(Payment::id);
            assert_eq!(theirs, settled, "replica {i} settled a different set");
            assert!(!c.node(i).needs_tick(), "replica {i} still waiting");
        }
    }

    #[test]
    fn batches_lost_on_a_link_are_fetched_from_those_that_vouched() {
        let c = cluster_with_a_broken_link(false);
        assert_converged(&c);
    }

    #[test]
    fn unanswered_fetches_fall_back_to_catchup() {
        use astro_brb::bracha::PULL_ROUNDS;
        let mut c = cluster_with_a_broken_link(true);
        assert!(c.settled(2).len() < 40 && c.node(2).needs_tick());
        // Every request round goes unanswered; then the replica gives up
        // on the payloads and asks for the settled state instead.
        for _ in 0..u32::from(PULL_ROUNDS) * SYNC_RETRY_TICKS {
            assert!(!c.node(2).is_syncing());
            let step = c.node_mut(2).flush();
            c.submit_step(ReplicaId(2), step);
            c.run_to_quiescence();
        }
        assert!(c.node(2).is_syncing());
        let step = c.node_mut(2).flush();
        c.submit_step(ReplicaId(2), step);
        c.run_to_quiescence();
        assert!(!c.node(2).is_syncing(), "f+1 matching donors certify at once");
        assert_converged(&c);
    }

    /// A settlement state with `entries` payments on client 7's xlog —
    /// bulk history for the chunked-transfer tests (built directly; the
    /// broadcast path would take minutes at this size).
    fn long_state(entries: u64) -> Astro1State {
        let history: Vec<Payment> =
            (0..entries).map(|seq| Payment::new(7u64, seq, 8u64, 1u64)).collect();
        Astro1State {
            ledger: crate::journal::LedgerState {
                initial_balance: Amount(100),
                accounts: vec![(ClientId(7), Amount(100)), (ClientId(8), Amount(100 + entries))],
                xlogs: vec![(ClientId(7), history)],
            },
            pending: Vec::new(),
            next_tag: 0,
            cursors: Vec::new(),
        }
    }

    fn restored(i: u32, state: &Astro1State) -> AstroOneReplica {
        AstroOneReplica::restore(
            ReplicaId(i),
            ShardLayout::single(4).unwrap(),
            Astro1Config { batch_size: 1, initial_balance: Amount(100) },
            state,
        )
        .expect("valid state")
    }

    #[test]
    fn chunked_catchup_round_trips_large_history() {
        use crate::journal::SYNC_BLOCK_ENTRIES;
        // Two full history blocks plus a tail: the transfer must split.
        let entries = 2 * SYNC_BLOCK_ENTRIES as u64 + 100;
        let state = long_state(entries);
        let mut c = PaymentCluster::new((0..4).map(|i| {
            if i == 3 {
                // The restarted replica: no local state at all.
                AstroOneReplica::new(
                    ReplicaId(3),
                    ShardLayout::single(4).unwrap(),
                    Astro1Config { batch_size: 1, initial_balance: Amount(100) },
                )
            } else {
                restored(i, &state)
            }
        }));
        let (head, blocks) = c.node(0).sync_chunks(ReplicaId(3)).expect("serves");
        assert_eq!(blocks.len(), 2, "two sealed blocks");
        assert_eq!(head.blocks, vec![(ClientId(7), 2)]);

        c.node_mut(3).begin_catchup();
        let step = c.node_mut(3).flush();
        c.submit_step(ReplicaId(3), step);
        c.run_to_quiescence();

        assert!(!c.node(3).is_syncing(), "chunked install completed");
        assert_eq!(c.node(3).export_state().ledger, state.ledger);
        assert_eq!(c.settled(3).len() as u64, entries, "installed delta reported once");
    }

    #[test]
    fn sync_frames_stay_below_the_wire_cap_for_giant_states() {
        use astro_types::wire::{Wire, MAX_FRAME_LEN};
        // ~19 MiB of settled history: the v1 single-frame transfer would
        // hit `put_frame`'s oversized-payload panic on the donor.
        let entries = 600_000u64;
        let state = long_state(entries);
        assert!(state.to_wire_bytes().len() > MAX_FRAME_LEN, "history exceeds one frame");
        let mut donor = restored(0, &state);
        let step =
            donor.handle(ReplicaId(3), Astro1Msg::Sync(ReconfigMsg::SyncRequest { settled: 0 }));
        assert!(!step.outbound.is_empty(), "giant state still served");
        for env in &step.outbound {
            assert!(
                env.msg.encoded_len() < MAX_FRAME_LEN,
                "every sync frame stays below the wire cap"
            );
        }
    }

    #[test]
    fn oversized_volatile_head_is_refused_with_a_typed_error() {
        use crate::reconfig::SyncServeError;
        // History chunks, but the volatile head (here: a pathological
        // approval queue) cannot — past the bound the donor refuses
        // instead of panicking the framing layer.
        let mut state = long_state(4);
        state.pending = (0..300_000u64).map(|c| Payment::new(c, 0u64, 1u64, u64::MAX)).collect();
        let mut donor = restored(0, &state);
        assert!(matches!(
            donor.sync_chunks(ReplicaId(3)),
            Err(SyncServeError::HeadTooLarge { .. })
        ));
        let step =
            donor.handle(ReplicaId(3), Astro1Msg::Sync(ReconfigMsg::SyncRequest { settled: 0 }));
        assert!(step.outbound.is_empty(), "refusal, not a panic or a partial serve");
    }
}
