//! The one replica trait, and the machinery both Astro protocols share.
//!
//! Astro I and Astro II differ in the broadcast primitive and in how a
//! settled payment's beneficiary gets its funds (paper §IV). Everything
//! else is written once, here: the payment path (submit, `handle`'s
//! broadcast arm, the flush's batch and [`Replica::apply`]'s settle loop),
//! the ledger, the journal and metric hooks, catch-up, checkpointing and
//! recovery. [`Replica`] is the seam; a protocol supplies three things:
//!
//! - the broadcast glue: its primitive ([`Replica::Brb`]) and the wrapper
//!   for its traffic ([`Replica::brb_msg`]);
//! - its settle rule and credit policy ([`Replica::settle`],
//!   [`Replica::credit`]): credit the beneficiary at settlement, or send
//!   CREDITs for what settled;
//! - what a payment carries ([`Replica::attach`]).
//!
//! The defaults of the last two are Astro I's: a payment carries nothing
//! and credits its beneficiary at settlement. So Astro I supplies only
//! the glue.
//!
//! Beside these it keeps its own section of the durable state
//! ([`Replica::Local`] with the `*_local` hooks) and its own timer and
//! message duties.
//!
//! Catch-up follows Appendix A's joiner argument: a restarted replica
//! pauses broadcast delivery, requests the settled state from its group,
//! and installs once `f+1` members served byte-identical copies — the head
//! as a whole, each sealed history block on its own.

use crate::batch::PaymentBatch;
use crate::journal::{
    block_counts, merge_history_blocks, split_history_blocks, CheckpointRecord, Journal,
    JournalSlot, RecoverError, Residual, State, SyncBlock, SyncHead, WalRecord,
    SYNC_HEAD_MAX_BYTES,
};
use crate::ledger::{Ledger, SettleOutcome};
use crate::obs::CoreObs;
use crate::pending::PendingQueue;
use crate::sync::{CopyVotes, SyncError, SyncMsg, SyncServeError, SyncSession};
use crate::xlog::XLogError;
use crate::{ReplicaStep, SubmitError};
use astro_brb::{Broadcast, Dest, Envelope, InstanceId};
use astro_types::wire::{decode_exact, Wire};
use astro_types::{Amount, ClientId, Group, Payment, ReplicaId, ShardId, ShardLayout, SigCheck};
use std::collections::HashMap;

/// The payload replica `R` broadcasts and delivers.
pub type Payload<R> = <<R as Replica>::Brb as Broadcast>::Payload;

/// What a payment settles with at replica `R` besides itself.
pub type Deps<R> = <Payload<R> as PaymentBatch>::Deps;

/// The broadcast-layer messages replica `R` exchanges.
pub type BrbMsg<R> = <<R as Replica>::Brb as Broadcast>::Msg;

/// Broadcast messages a catching-up replica may park before the
/// transferred cursor is installed. Overflow drops the *oldest* message:
/// old messages belong to instances the certified state (which keeps
/// advancing at the donors while we retry) will cover, while the newest
/// are exactly the ones replay needs after the install — dropping those
/// would leave an unfillable FIFO gap, since BRB never retransmits.
const SYNC_BUFFER_CAP: usize = 8192;

/// Flush ticks between catch-up request retries (the driver flushes on
/// its batch timer, so a retry goes out roughly every
/// `SYNC_RETRY_TICKS × flush_every`). Astro I's payload pulls share the
/// pacing.
pub(crate) const SYNC_RETRY_TICKS: u32 = 16;

/// Retry rounds after which a catch-up started with a fallback budget
/// gives up and resumes from what the replica recovered on its own (see
/// [`Replica::begin_catchup`]). With the runtime's millisecond flush
/// timers this is a few seconds.
pub const SYNC_FALLBACK_ROUNDS: u32 = 256;

/// The state every replica carries whatever its protocol: identity and
/// layout, ledger, own broadcast tag counter, the client batch and the
/// approval queue of payload `P`, journal, metric handles, the catch-up
/// session, and the snapshot / GC bookkeeping. Opaque outside this crate;
/// protocols embed one and hand it out through [`Replica::shell`].
#[derive(Debug)]
pub struct Shell<M, P: PaymentBatch> {
    pub(crate) me: ReplicaId,
    /// The public client → shard and client → representative mappings.
    pub(crate) layout: ShardLayout,
    /// This replica's shard, and its members as a broadcast group.
    pub(crate) shard: ShardId,
    pub(crate) group: Group,
    pub(crate) ledger: Ledger,
    /// The next tag on this replica's own broadcast stream.
    next_tag: u64,
    /// Submitted payments awaiting the next flush, which a full batch
    /// triggers.
    pub(crate) batch: Vec<P::Entry>,
    batch_size: usize,
    /// Delivered payments that cannot settle yet (Listing 3's two `wait
    /// until`s), with their dependencies.
    pub(crate) pending: PendingQueue<P::Deps>,
    pub(crate) journal: JournalSlot,
    /// Metric handles, when a registry is attached (None = unobserved).
    pub(crate) obs: Option<CoreObs>,
    /// Catch-up in progress: broadcast delivery is paused (messages park)
    /// until a certified peer state is installed.
    pub(crate) syncing: Option<SyncSession<M>>,
    /// Set when a sync install made the in-memory state newer than any
    /// journal replay can reproduce; the durable runtime consumes it and
    /// snapshots immediately.
    pub(crate) snapshot_requested: bool,
    /// Tracked-instance count below which size-triggered GC stays idle
    /// after a pass that freed nothing (see [`Replica::prune_delivered_at`]).
    gc_rearm: usize,
}

impl<M, P: PaymentBatch> Shell<M, P> {
    /// # Panics
    ///
    /// Panics if `me` is not a member of the layout, or its shard is
    /// smaller than 4 replicas.
    pub(crate) fn new(
        me: ReplicaId,
        layout: ShardLayout,
        batch_size: usize,
        initial_balance: Amount,
    ) -> Self {
        let shard =
            layout.shard_of_replica(me).unwrap_or_else(|| panic!("replica {me} not in layout"));
        let group = Group::from_spec(layout.shard(shard)).expect("layout shard too small");
        Shell {
            me,
            layout,
            shard,
            group,
            ledger: Ledger::new(initial_balance),
            next_tag: 0,
            batch: Vec::new(),
            batch_size: batch_size.max(1),
            pending: PendingQueue::new(),
            journal: JournalSlot::none(),
            obs: None,
            syncing: None,
            snapshot_requested: false,
            gc_rearm: 0,
        }
    }

    /// Reserves the next instance on this replica's own broadcast stream.
    /// The tag is journaled before the PREPARE leaves: a restarted replica
    /// must never reuse a tag it already broadcast under (peers vote for at
    /// most one payload per instance, so a reused tag wedges the stream).
    /// Against *power loss* the window is bounded by group commit unless
    /// the store's `sync_on_broadcast` policy is set.
    pub(crate) fn next_instance(&mut self) -> InstanceId {
        let id = InstanceId { source: u64::from(self.me.0), tag: self.next_tag };
        self.next_tag += 1;
        self.journal.rec(&WalRecord::OwnTag { tag: id.tag });
        id
    }

    /// Settles `payment` in the ledger (Listing 4), crediting its
    /// beneficiary too if `credit_beneficiary`, and journals it.
    pub(crate) fn settle(&mut self, payment: &Payment, credit_beneficiary: bool) -> SettleOutcome {
        let outcome = self.ledger.settle(payment, credit_beneficiary);
        if outcome == SettleOutcome::Applied {
            self.journal.rec(&WalRecord::Settle { payment: *payment, credit_beneficiary });
        }
        outcome
    }
}

/// A payment replica: one Astro protocol's state machine behind the
/// interface the simulator, the threaded runtime, its storage wrapper and
/// the test router all drive.
///
/// Replicas are deterministic sans-I/O state machines: `submit` / `handle`
/// / `flush` return a [`ReplicaStep`] of outbound envelopes plus the
/// payments that transition settled. [`Self::submit`] and [`Self::apply`]
/// are provided; a protocol's [`Self::handle`] and [`Self::flush`] call the
/// shared broadcast arm and batch flush beside their own duties. The
/// payment path's hooks are [`Self::brb_msg`], [`Self::attach`],
/// [`Self::settle`] and [`Self::credit`].
pub trait Replica: Sized {
    /// Replica-to-replica message type.
    type Msg: Wire + Clone + core::fmt::Debug;
    /// Construction-time configuration.
    type Config: Clone;
    /// The broadcast primitive — the paper's variation point (§IV) — and
    /// the batches it carries.
    type Brb: Broadcast<Payload: PaymentBatch>;
    /// The protocol's own section of the durable state ([`State::local`]).
    type Local: Wire;

    /// True if delivering an instance *is* its quorum event: the
    /// broadcaster then stamps [`astro_obs::Stage::AckQuorum`] on its own
    /// batches as they apply. Otherwise the protocol stamps it.
    const QUORUM_AT_DELIVERY: bool = false;

    /// The shared state ([`Shell`]).
    fn shell(&self) -> &Shell<Self::Msg, Payload<Self>>;

    /// The shared state, mutably.
    fn shell_mut(&mut self) -> &mut Shell<Self::Msg, Payload<Self>>;

    /// The broadcast layer.
    fn brb(&self) -> &Self::Brb;

    /// The broadcast layer, mutably.
    fn brb_mut(&mut self) -> &mut Self::Brb;

    /// Wraps catch-up traffic into the protocol's message type.
    fn sync_msg(msg: SyncMsg) -> Self::Msg;

    /// Wraps broadcast-layer traffic into the protocol's message type.
    fn brb_msg(msg: BrbMsg<Self>) -> Self::Msg;

    // ---- what a protocol adds to the payment path ----

    /// What `payment`, accepted by [`Self::submit`], carries into the
    /// batch beside itself. Default: nothing.
    ///
    /// # Errors
    ///
    /// Rejects a payment the protocol may not batch (see
    /// [`SubmitError`]).
    fn attach(&mut self, payment: &Payment) -> Result<Deps<Self>, SubmitError> {
        let _ = payment;
        Ok(Deps::<Self>::default())
    }

    /// The settle rule, which every delivered payment goes through on its
    /// first attempt and on every cascade retry: settles `payment` with
    /// its dependencies, journaling the settle, or says why not
    /// — `FutureSeq` and `InsufficientFunds` queue it, `StaleSeq` drops
    /// it. A payment behind or ahead of its spender's xlog must come back
    /// `StaleSeq` or `FutureSeq` with no effect. Default: Astro I's rule,
    /// which credits the beneficiary at settlement — broadcast totality
    /// makes that safe (paper §IV) — and leaves an underfunded payment
    /// queued until funds arrive.
    fn settle(&mut self, payment: &Payment, deps: &Deps<Self>) -> SettleOutcome {
        let _ = deps;
        self.shell_mut().settle(payment, true)
    }

    /// Credits the beneficiaries [`Self::settle`] left uncredited among
    /// one delivered batch's `settled` payments, after its delivery record
    /// (Astro II's CREDITs). Default: nothing to credit.
    fn credit(&mut self, settled: &[Payment], outbound: &mut Vec<Envelope<Self::Msg>>) {
        let _ = (settled, outbound);
    }

    /// Applies one delivered broadcast instance: each payment its
    /// spender's representative broadcast settles, queues or drops as
    /// stale, and the cascade settles what that unblocked. Appends the
    /// effects to `out`, settled payments in settle order: the batch's
    /// first pass, then the cascade.
    fn apply(&mut self, id: InstanceId, payload: Payload<Self>, out: &mut ReplicaStep<Self::Msg>) {
        let broadcaster = ReplicaId(id.source as u32);
        let before = out.settled.len();
        let shell = self.shell();
        if let (true, Some(obs)) = (Self::QUORUM_AT_DELIVERY && broadcaster == shell.me, &shell.obs)
        {
            // Only the broadcaster stamps its own delivery: every correct
            // replica delivers the batch at roughly the same instant, and
            // one stamp per payment keeps the other replicas' settle loops
            // off the tracer's shard locks entirely.
            obs.stage_batch(payload.payments(), astro_obs::Stage::AckQuorum);
        }
        let mut touched: Vec<ClientId> = Vec::new();
        for (payment, deps) in payload.into_entries() {
            // Only a client's designated representative may broker her
            // payments (paper §II), and only in her own shard; the BRB
            // layer bound `source` to the transport-authenticated
            // broadcaster.
            let Shell { layout, shard, .. } = self.shell();
            if layout.representative_of(payment.spender) != broadcaster
                || layout.shard_of_client(payment.spender) != *shard
            {
                continue;
            }
            match self.settle(&payment, &deps) {
                SettleOutcome::Applied => {
                    out.settled.push(payment);
                    touched.push(payment.spender);
                    touched.push(payment.beneficiary);
                }
                SettleOutcome::FutureSeq | SettleOutcome::InsufficientFunds => {
                    // The dependencies ride into the record: their credits
                    // are not in the ledger yet and must survive a restart.
                    let shell = self.shell_mut();
                    let record_deps = Payload::<Self>::journal_deps(&deps);
                    shell.journal.rec(&WalRecord::Queued { payment, deps: record_deps });
                    shell.pending.push(payment, deps);
                    touched.push(payment.spender);
                }
                SettleOutcome::StaleSeq => {}
            }
        }
        // Cascade: settled payments may unblock queued successors. The
        // queue leaves the shell meanwhile; the settle rule never reads it.
        let mut pending = std::mem::take(&mut self.shell_mut().pending);
        let cascaded = pending.drain_cascade(touched, self, |r, p, deps| r.settle(p, deps));
        out.settled.extend(cascaded.into_iter().map(|e| e.payment));
        let shell = self.shell_mut();
        shell.pending = pending;
        // The delivery record *terminates* the batch's effects in the log:
        // a torn tail that cuts before it replays a (harmless, idempotent)
        // effect prefix with the cursor still behind — never a cursor that
        // has advanced past effects that were lost.
        shell.journal.rec(&WalRecord::Delivered { source: id.source, tag: id.tag });
        self.credit(&out.settled[before..], &mut out.outbound);
        let Shell { me, layout, obs, .. } = self.shell();
        if let Some(obs) = obs {
            let settled = &out.settled[before..];
            obs.settles.add(settled.len() as u64);
            // One settle stamp per payment, by the spender's
            // representative: the lifecycle timeline reads as one
            // replica's view, and the other replicas never contend on the
            // payment's tracer slot.
            obs.stage_batch(
                settled.iter().filter(|p| layout.representative_of(p.spender) == *me),
                astro_obs::Stage::Settle,
            );
        }
    }

    // ---- the protocol's own state section ----

    /// Exports the protocol's section of the durable state, canonically
    /// ordered.
    fn export_local(&self) -> Self::Local;

    /// Loads a protocol section into this replica, replacing what it
    /// carries of the transferable state (restore, recovery, and a
    /// catch-up install, whose section arrives through
    /// [`Self::sync_local`]).
    fn restore_local(&mut self, local: &Self::Local);

    /// Clears what a catch-up must not transfer: sections local to one
    /// replica, which would break the byte-identical `f+1` match and mean
    /// nothing at the requester. Default: nothing is replica-local.
    fn sync_local(local: &mut Self::Local) {
        let _ = local;
    }

    /// Rejects a transferred section that is behind this replica.
    ///
    /// # Errors
    ///
    /// [`SyncError::Stale`] if installing `local` would lose an effect
    /// this replica already applied. Default: nothing to check.
    fn check_local(&self, local: &Self::Local) -> Result<(), SyncError> {
        let _ = local;
        Ok(())
    }

    /// Re-applies a WAL record only this protocol emits (see
    /// [`Self::replay`]).
    fn replay_local(&mut self, record: &WalRecord);

    // ---- the step API ----

    /// This replica's id.
    fn id(&self) -> ReplicaId {
        self.shell().me
    }

    /// The broadcast group this replica belongs to (its shard) — the
    /// expansion of [`Dest::All`] and the donors of a catch-up.
    fn group(&self) -> &Group {
        &self.shell().group
    }

    /// A client submits a payment at its representative (Listing 1's
    /// `Send` arrives here); a full batch flushes.
    ///
    /// # Errors
    ///
    /// Rejects payments this replica may not broker (see
    /// [`SubmitError`]): clients it does not represent — the mapping is
    /// public (paper §III), so honest clients never hit this — and what
    /// [`Self::attach`] rejects.
    fn submit(&mut self, payment: Payment) -> Result<ReplicaStep<Self::Msg>, SubmitError> {
        let Shell { me, layout, .. } = self.shell();
        if !layout.is_representative(*me, payment.spender) {
            return Err(SubmitError::NotRepresentative {
                client: payment.spender,
                representative: layout.representative_of(payment.spender),
            });
        }
        let deps = self.attach(&payment)?;
        let shell = self.shell_mut();
        shell.batch.push(Payload::<Self>::entry(payment, deps));
        // While catching up the batch only accumulates: auto-flush would
        // burn the sync retry pacing (flush doubles as its timer), and
        // broadcasting must wait for the certified tag floor anyway.
        if shell.syncing.is_none() && shell.batch.len() >= shell.batch_size {
            Ok(self.flush())
        } else {
            Ok(ReplicaStep::empty())
        }
    }

    /// Processes one replica-to-replica message.
    fn handle(&mut self, from: ReplicaId, msg: Self::Msg) -> ReplicaStep<Self::Msg>;

    /// The flush timer: broadcasts the accumulated batch, paces the
    /// protocol's retransmissions and, while catching up, the catch-up
    /// request retries.
    fn flush(&mut self) -> ReplicaStep<Self::Msg>;

    /// True while [`Self::flush`] has work that nothing else moves: a
    /// driver that arms its flush timer on demand keeps it armed while
    /// this holds.
    fn needs_tick(&self) -> bool;

    /// Read access to the ledger (audit, state transfer).
    fn ledger(&self) -> &Ledger {
        &self.shell().ledger
    }

    /// The settled balance of a client (Listing 2's `bal`).
    fn balance(&self, client: ClientId) -> Amount {
        self.ledger().balance(client)
    }

    /// Number of payments waiting in the unflushed batch.
    fn batched(&self) -> usize {
        self.shell().batch.len()
    }

    /// Number of payments queued awaiting approval.
    fn pending_len(&self) -> usize {
        self.shell().pending.len()
    }

    /// A client's spendable funds at this replica: the settled balance
    /// plus, at an Astro II representative, certified-but-unspent credits
    /// awaiting the client's next outgoing payment.
    fn available_balance(&self, client: ClientId) -> Amount {
        self.balance(client)
    }

    // ---- hooks ----

    /// Attaches a journal: every subsequent state-machine effect is
    /// recorded (see [`WalRecord`]).
    fn set_journal(&mut self, journal: Box<dyn Journal>) {
        self.shell_mut().journal.set(journal);
    }

    /// Attaches metric handles: settles, catch-up progress and payment
    /// lifecycle stamps report into them from here on.
    fn set_obs(&mut self, obs: CoreObs) {
        self.shell_mut().obs = Some(obs);
    }

    /// The Schnorr signature checks handling `msg` still needs, for a
    /// verify pool to run ahead of the state machine. Enumerating is
    /// sound because verification is a pure function of `(signer,
    /// context, signature)`: a check the state machine never consults
    /// wastes pool cycles but cannot change any transition, and a check
    /// left out is made inline where the state machine asks for it. So
    /// an implementation may note what it has enumerated (hence `&mut
    /// self`) and leave out signatures a quorum no longer needs — none
    /// of its state transitions may read those notes. A signature the
    /// replica made for itself
    /// ([`astro_types::Authenticator::sign_for_self`]) is already cached,
    /// so the pool skips it. Default: none (MAC-authenticated traffic).
    fn preverify(&mut self, from: ReplicaId, msg: &Self::Msg) -> Vec<SigCheck> {
        let _ = (from, msg);
        Vec::new()
    }

    // ---- the broadcast layer ----

    /// Number of receiver-side broadcast instances currently tracked.
    fn tracked_instances(&self) -> usize {
        self.brb().tracked_instances()
    }

    /// Prunes broadcast-layer state for delivered instances; returns how
    /// many were freed. The durable runtime calls this once a snapshot
    /// holds their effects, so broadcast memory stays bounded by the
    /// in-flight window instead of growing with settled history.
    fn prune_delivered(&mut self) -> usize {
        self.brb_mut().gc_delivered()
    }

    /// Size-triggered [`Self::prune_delivered`], cheap enough to call
    /// after every message: prunes once `high_water` instances are
    /// tracked — and after a pass that freed nothing (a FIFO gap, say an
    /// outstanding pull, holds everything back) not before another
    /// `high_water` have piled up.
    fn prune_delivered_at(&mut self, high_water: usize) {
        let tracked = self.tracked_instances();
        if tracked < high_water.max(self.shell().gc_rearm) {
            return;
        }
        let pruned = self.prune_delivered();
        let shell = self.shell_mut();
        shell.gc_rearm = if pruned == 0 { tracked + high_water } else { 0 };
        if let (0, Some(obs)) = (pruned, &shell.obs) {
            obs.flight.event("core.brb.gc_stalled", tracked as u64, 0);
        }
    }

    // ---- snapshots, checkpoints, recovery ----

    /// Exports the durable state: ledger, protocol section, broadcast tag
    /// counter and delivery cursors. Canonical in its shared sections:
    /// replicas holding identical settlement state export identical bytes.
    fn export_state(&self) -> State<Self::Local> {
        State {
            ledger: self.ledger().export(),
            local: self.export_local(),
            next_tag: self.shell().next_tag,
            cursors: self.brb().delivery_cursors(),
        }
    }

    /// The residual snapshot: the volatile state **not** covered by
    /// checkpoint segments. Captured at the same instant as
    /// [`Self::seal_checkpoint`], the `sealed_segments` sealed so far
    /// reconstruct the entire ledger, so the residual needs none of it
    /// (and copies none of it).
    fn residual_state(&self, sealed_segments: u64) -> Residual<Self::Local> {
        Residual {
            sealed_segments,
            local: self.export_local(),
            next_tag: self.shell().next_tag,
            cursors: self.brb().delivery_cursors(),
        }
    }

    /// Rebuilds this freshly constructed replica from an exported state.
    /// The construction parameters must match the exporting incarnation;
    /// the unflushed client batch and in-flight broadcast instances are
    /// not part of durable state (their payments are re-learnable through
    /// the broadcast layer or client retry).
    ///
    /// # Errors
    ///
    /// Fails if the state's xlogs violate the owner/sequence invariants.
    fn restore(mut self, state: &State<Self::Local>) -> Result<Self, XLogError> {
        self.shell_mut().ledger = Ledger::import(&state.ledger)?;
        restore_sections(&mut self, &state.local, state.next_tag, &state.cursors);
        Ok(self)
    }

    /// Re-applies one WAL record on top of a restored snapshot. Records
    /// must be fed in log order; records already reflected in the
    /// snapshot re-apply as no-ops (stale settles are dropped by the
    /// ledger, cursors and the tag counter only move forward). Records
    /// beyond the shared three go to [`Self::replay_local`]. Call
    /// [`Self::finish_recovery`] after the last record.
    fn replay(&mut self, record: &WalRecord) {
        match record {
            WalRecord::Delivered { source, tag } => self.brb_mut().advance_cursor(*source, tag + 1),
            WalRecord::Settle { payment, credit_beneficiary } => {
                let _ = self.shell_mut().ledger.settle(payment, *credit_beneficiary);
            }
            WalRecord::OwnTag { tag } => {
                let shell = self.shell_mut();
                shell.next_tag = shell.next_tag.max(tag + 1);
            }
            _ => self.replay_local(record),
        }
    }

    /// Completes recovery: queue entries superseded by replayed settles
    /// are pruned.
    fn finish_recovery(&mut self) {
        let shell = self.shell_mut();
        shell.pending.prune_stale(&shell.ledger);
    }

    /// Seals the settle delta since the last checkpoint: one encoded
    /// [`CheckpointRecord`] per dirty account, in canonical client order,
    /// and advances the per-account watermarks. Empty when nothing
    /// settled since the last seal. The durable runtime writes the
    /// records as one immutable checkpoint segment.
    fn seal_checkpoint(&mut self) -> Vec<Vec<u8>> {
        self.shell_mut().ledger.seal_delta().iter().map(CheckpointRecord::to_wire_bytes).collect()
    }

    /// Forgets the checkpoint watermarks: every account becomes dirty
    /// again and the next [`Self::seal_checkpoint`] re-exports full
    /// history. The durable runtime calls this when a checkpoint segment
    /// fails to persist.
    fn rebaseline(&mut self) {
        self.shell_mut().ledger.rebaseline();
    }

    /// Rebuilds this freshly constructed replica from recovered
    /// checkpoint segments (decoded record payloads, in index order) plus
    /// the residual snapshot. The residual says how many segments it
    /// builds on; extra trailing segments — sealed just before a crash,
    /// by an install whose residual never landed — are ignored.
    ///
    /// # Errors
    ///
    /// [`RecoverError::MissingSegments`] if fewer segments were recovered
    /// than the residual references, [`RecoverError::Discontinuity`] /
    /// [`RecoverError::Decode`] on segment content that does not chain,
    /// [`RecoverError::Log`] if the reassembled xlogs violate invariants.
    fn restore_from_checkpoints(
        mut self,
        segments: &[Vec<Vec<u8>>],
        residual: &Residual<Self::Local>,
    ) -> Result<Self, RecoverError> {
        let referenced = residual.sealed_segments;
        if (segments.len() as u64) < referenced {
            return Err(RecoverError::MissingSegments {
                referenced,
                recovered: segments.len() as u64,
            });
        }
        let initial_balance = self.ledger().initial_balance();
        self.shell_mut().ledger =
            Ledger::from_checkpoints(initial_balance, &segments[..referenced as usize])?;
        restore_sections(&mut self, &residual.local, residual.next_tag, &residual.cursors);
        Ok(self)
    }

    /// True once after a sync install: the in-memory state is newer than
    /// any journal replay can reproduce, so a durable deployment must
    /// snapshot now. Consuming resets the flag.
    fn take_snapshot_request(&mut self) -> bool {
        std::mem::take(&mut self.shell_mut().snapshot_requested)
    }

    // ---- catch-up ----

    /// The canonical state served to catching-up peer `requester`: the
    /// shared settlement state with replica-local sections cleared
    /// ([`Self::sync_local`]), and the broadcast tag counter reinterpreted
    /// as *the requester's* stream high-water mark
    /// ([`Broadcast::source_high_water`]), so the certified copy tells it
    /// the first tag that is safe to broadcast under.
    fn sync_state(&self, requester: ReplicaId) -> State<Self::Local> {
        let mut state = self.export_state();
        Self::sync_local(&mut state.local);
        state.next_tag = self.brb().source_high_water(u64::from(requester.0));
        state
    }

    /// Installs a certified peer state over the locally recovered one:
    /// the settled delta replaces local settlement state, the protocol
    /// section is restored, the broadcast tag counter rises to the
    /// certified floor, and delivery cursors advance — releasing any
    /// completed instances the gap was holding back. Returns the step
    /// whose `settled` is exactly the payments this replica learned
    /// through the transfer (plus whatever the released instances
    /// settle).
    ///
    /// # Errors
    ///
    /// [`SyncError::Stale`] if the transferred state is behind this
    /// replica in any xlog, delivery cursor or protocol section
    /// ([`Self::check_local`]) — installing it would lose settled effects
    /// (the donors lag; retry). [`SyncError::Invalid`] if it fails
    /// structural validation.
    fn install_sync(
        &mut self,
        state: &State<Self::Local>,
    ) -> Result<ReplicaStep<Self::Msg>, SyncError> {
        let certified = Ledger::import(&state.ledger).map_err(|_| SyncError::Invalid)?;
        // Never regress: every local xlog must be a prefix of (or equal
        // to) its certified counterpart, and no certified cursor may sit
        // below a local one — otherwise effects this replica already
        // applied would vanish with no re-delivery to restore them.
        for xlog in self.ledger().xlogs() {
            if certified.next_seq(xlog.owner()) < xlog.next_seq() {
                return Err(SyncError::Stale);
            }
        }
        let certified_cursors: HashMap<u64, u64> = state.cursors.iter().copied().collect();
        for (source, next) in self.brb().delivery_cursors() {
            if certified_cursors.get(&source).copied().unwrap_or(0) < next {
                return Err(SyncError::Stale);
            }
        }
        self.check_local(&state.local)?;
        // The settled delta — everything the quorum settled while this
        // replica was down — reported exactly once, in xlog order.
        let mut installed: Vec<Payment> = Vec::new();
        for xlog in certified.xlogs() {
            installed.extend(xlog.iter_from(self.ledger().next_seq(xlog.owner())));
        }
        let shell = self.shell_mut();
        shell.ledger = certified;
        if state.next_tag > shell.next_tag {
            // Journaled even though a snapshot follows: tag reuse is the
            // one recovery error a later catch-up cannot repair.
            shell.journal.rec(&WalRecord::OwnTag { tag: state.next_tag - 1 });
            shell.next_tag = state.next_tag;
        }
        self.restore_local(&state.local);
        let mut out = ReplicaStep { outbound: Vec::new(), settled: installed };
        // Advance cursors past the caught-up instances; instances that
        // completed *behind* a gap are released and applied now. Their
        // effects are already part of the certified state, so the ledger
        // drops them as stale — but a gap-blocked instance *beyond* the
        // certified cursor settles normally here. (Under unordered
        // delivery there are no cursors and nothing is gap-blocked.)
        for (source, next) in &state.cursors {
            for delivery in self.brb_mut().advance_cursor_releasing(*source, *next) {
                self.apply(delivery.id, delivery.payload, &mut out);
            }
        }
        // The caught-up prefix is dead weight in the broadcast layer now.
        self.brb_mut().gc_delivered();
        self.shell_mut().snapshot_requested = true;
        Ok(out)
    }

    /// What a replica emits when its catch-up ends, installed or
    /// abandoned. Default: nothing.
    fn catchup_ended(&self) -> Vec<Envelope<Self::Msg>> {
        Vec::new()
    }

    /// Starts peer catch-up (the restart path): broadcast delivery pauses
    /// and the next [`Self::flush`] tick broadcasts a
    /// [`SyncMsg::Request`]; peers answer with their canonical state and
    /// `f+1` byte-identical copies install. Until then the
    /// client batch stays parked (no broadcast may leave before the
    /// certified tag floor is known) and inbound broadcast messages
    /// buffer for replay.
    ///
    /// `fallback_rounds = None` retries **forever**: a replica with no
    /// locally recovered state must not participate until a certified
    /// state tells it where the quorum stands. A replica restored from
    /// durable storage has a safe local state, so it passes a budget
    /// ([`SYNC_FALLBACK_ROUNDS`]): after that many unanswered rounds it
    /// resumes from what it recovered — which keeps a cluster whose
    /// replicas restart *concurrently* live.
    fn begin_catchup(&mut self, fallback_rounds: Option<u32>) {
        let floor = self.ledger().total_settled() as u64;
        let session = SyncSession::new(self.group(), self.id(), floor, fallback_rounds);
        self.shell_mut().syncing = Some(session);
    }

    /// True while peer catch-up is in progress.
    fn is_syncing(&self) -> bool {
        self.shell().syncing.is_some()
    }

    /// The chunked form of [`Self::sync_state`]: settled history splits
    /// into content-stable [`crate::journal::SYNC_BLOCK_ENTRIES`]-entry
    /// xlog blocks (certified per block at the requester), and the
    /// volatile remainder rides in a small [`SyncHead`]. Every piece
    /// stays far below the wire frame cap regardless of settled history.
    ///
    /// # Errors
    ///
    /// [`SyncServeError::HeadTooLarge`] if the volatile head alone
    /// exceeds [`SYNC_HEAD_MAX_BYTES`] — a pathological state that must
    /// be refused rather than panicking the framing layer.
    fn sync_chunks(
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

    /// The last step of a chunked transfer: once `heads` holds a
    /// certified head and `blocks` every history block it references,
    /// reassembles and installs the full state and appends
    /// [`Self::catchup_ended`]. Live catch-up finishes here, and so does
    /// an offline audit that collects peers' [`Self::sync_chunks`] by
    /// hand (`examples/audit_trail.rs`).
    ///
    /// A failed install discards what it discredited, so the caller only
    /// keeps offering copies: an invalid transfer clears both collectors
    /// (`f+1` matching copies of it cannot come from an honest majority);
    /// a stale head (the donors lag) clears only the head, since certified
    /// blocks are content-stable.
    ///
    /// # Errors
    ///
    /// [`SyncError::Incomplete`] while the head or a referenced block is
    /// uncertified, [`SyncError::Invalid`] if the pieces do not decode or
    /// merge, else as [`Self::install_sync`].
    fn install_chunked(
        &mut self,
        heads: &mut CopyVotes<()>,
        blocks: &mut CopyVotes<(ClientId, u64)>,
    ) -> Result<ReplicaStep<Self::Msg>, SyncError> {
        let result = assemble::<Self>(heads, blocks).and_then(|state| {
            let mut out = self.install_sync(&state)?;
            out.outbound.extend(self.catchup_ended());
            Ok(out)
        });
        match result {
            Err(SyncError::Invalid) => {
                heads.clear();
                blocks.clear();
            }
            Err(SyncError::Stale) => heads.clear(),
            Ok(_) | Err(SyncError::Incomplete) => {}
        }
        result
    }
}

/// Loads everything of a state but its ledger into a freshly constructed
/// replica: the protocol section, the tag counter, the delivery cursors.
fn restore_sections<R: Replica>(
    r: &mut R,
    local: &R::Local,
    next_tag: u64,
    cursors: &[(u64, u64)],
) {
    r.restore_local(local);
    r.shell_mut().next_tag = next_tag;
    for (source, next) in cursors {
        r.brb_mut().advance_cursor(*source, *next);
    }
}

/// Reassembles the certified head and the certified blocks it references
/// into a full state.
fn assemble<R: Replica>(
    heads: &CopyVotes<()>,
    blocks: &CopyVotes<(ClientId, u64)>,
) -> Result<State<R::Local>, SyncError> {
    let head = heads.certified(&()).ok_or(SyncError::Incomplete)?;
    let head: SyncHead = decode_exact(head).map_err(|_| SyncError::Invalid)?;
    let certified = |client, block| blocks.certified(&(client, block)).is_some();
    if !head.blocks.iter().all(|&(client, n)| (0..n).all(|block| certified(client, block))) {
        return Err(SyncError::Incomplete);
    }
    let mut state: State<R::Local> =
        decode_exact(&head.state_tail).map_err(|_| SyncError::Invalid)?;
    merge_history_blocks(&mut state.ledger, &head.blocks, |client, block| {
        blocks.certified(&(client, block)).cloned()
    })
    .map_err(|_| SyncError::Invalid)?;
    Ok(state)
}

/// `handle`'s broadcast arm: while catching up the message parks for
/// replay ([`park`]); otherwise the broadcast layer takes it, its
/// outbound traffic is wrapped, and every instance it delivers applies.
pub(crate) fn handle_brb<R: Replica>(
    r: &mut R,
    from: ReplicaId,
    msg: BrbMsg<R>,
) -> ReplicaStep<R::Msg> {
    if r.is_syncing() {
        park(r, from, R::brb_msg(msg));
        return ReplicaStep::empty();
    }
    let step = r.brb_mut().handle(from, msg);
    let mut out = ReplicaStep { outbound: wrap_brb::<R>(step.outbound), settled: Vec::new() };
    for delivery in step.delivered {
        r.apply(delivery.id, delivery.payload, &mut out);
    }
    out
}

/// The flush timer's batch half: broadcasts the accumulated batch, if
/// any, as the next instance of this replica's stream.
pub(crate) fn flush_batch<R: Replica>(r: &mut R, out: &mut ReplicaStep<R::Msg>) {
    let shell = r.shell_mut();
    if shell.batch.is_empty() {
        return;
    }
    let payload = Payload::<R>::from_entries(std::mem::take(&mut shell.batch));
    if let Some(obs) = &shell.obs {
        obs.stage_batch(payload.payments(), astro_obs::Stage::Prepare);
        obs.pending_depth.set(shell.pending.len() as u64);
    }
    let id = shell.next_instance();
    let step = r.brb_mut().broadcast(id, payload);
    debug_assert!(step.delivered.is_empty());
    out.outbound.extend(wrap_brb::<R>(step.outbound));
}

/// Wraps broadcast-layer envelopes into the replica's message type.
pub(crate) fn wrap_brb<R: Replica>(outbound: Vec<Envelope<BrbMsg<R>>>) -> Vec<Envelope<R::Msg>> {
    outbound.into_iter().map(|e| Envelope { to: e.to, msg: R::brb_msg(e.msg) }).collect()
}

/// While catching up, parks broadcast message `msg` from a group member
/// for replay after the install (FIFO delivery is paused until the
/// transferred cursor is installed); traffic from outsiders is dropped.
fn park<R: Replica>(r: &mut R, from: ReplicaId, msg: R::Msg) {
    let member = r.group().contains(from);
    let shell = r.shell_mut();
    let (true, Some(sync)) = (member, &mut shell.syncing) else { return };
    if sync.buffered.len() >= SYNC_BUFFER_CAP {
        sync.buffered.pop_front();
    }
    sync.buffered.push_back((from, msg));
    if let Some(obs) = &shell.obs {
        obs.parked.inc();
        obs.parked_depth.set(sync.buffered.len() as u64);
    }
}

/// The flush timer's catch-up duty. `None` when no catch-up is running
/// (the caller flushes as usual); otherwise this tick's step: a request
/// (re-)sent every [`SYNC_RETRY_TICKS`], nothing in between, or — once a
/// fallback budget runs out — the end of the catch-up: no `f+1` matching
/// donors in time (the rest of the cluster may be restarting too), so the
/// replica resumes from its locally recovered state, exactly as a
/// pre-catch-up restart did, replaying whatever parked meanwhile.
pub(crate) fn catchup_tick<R: Replica>(r: &mut R) -> Option<ReplicaStep<R::Msg>> {
    let shell = r.shell_mut();
    let sync = shell.syncing.as_mut()?;
    if sync.ticks > 0 {
        sync.ticks -= 1;
        return Some(ReplicaStep::empty());
    }
    if sync.exhausted() {
        let sync = shell.syncing.take().expect("syncing");
        let mut out = replay_parked(r, sync, ReplicaStep::empty());
        out.outbound.extend(r.catchup_ended());
        return Some(out);
    }
    sync.ticks = SYNC_RETRY_TICKS;
    sync.requests += 1;
    if let Some(obs) = &shell.obs {
        if sync.requests > 1 {
            obs.sync_retries.inc();
        }
        obs.flight.event("core.sync.request", u64::from(sync.requests), 0);
    }
    let request = R::sync_msg(SyncMsg::Request { settled: sync.floor });
    Some(ReplicaStep {
        outbound: vec![Envelope { to: Dest::All, msg: request }],
        settled: Vec::new(),
    })
}

/// Handles catch-up traffic: serves requests from group members and,
/// while catching up, folds peer responses into the collectors until a
/// transfer certifies and installs.
pub(crate) fn handle_sync<R: Replica>(
    r: &mut R,
    from: ReplicaId,
    msg: SyncMsg,
) -> ReplicaStep<R::Msg> {
    if from == r.id() || !r.group().contains(from) {
        return ReplicaStep::empty();
    }
    match msg {
        SyncMsg::Request { settled } => serve_sync(r, from, settled),
        SyncMsg::Head { settled, head } => {
            let Some(sync) = &mut r.shell_mut().syncing else { return ReplicaStep::empty() };
            sync.offer_head(from, settled, head);
            try_complete_sync(r)
        }
        SyncMsg::Block { client, block, data } => {
            let Some(sync) = &mut r.shell_mut().syncing else { return ReplicaStep::empty() };
            sync.blocks.offer(from, (client, block), data);
            try_complete_sync(r)
        }
    }
}

/// Answers a catch-up request with the chunked state. A replica that is
/// itself catching up serves nothing: its state is behind, and a cluster
/// of simultaneously restarted replicas must not certify each other's
/// gaps. A replica behind the requester's own floor stays silent too —
/// the requester would reject the response anyway.
fn serve_sync<R: Replica>(r: &R, to: ReplicaId, floor: u64) -> ReplicaStep<R::Msg> {
    let settled = r.ledger().total_settled() as u64;
    if r.is_syncing() || settled < floor {
        return ReplicaStep::empty();
    }
    match r.sync_chunks(to) {
        Ok((head, blocks)) => {
            let head = head.to_wire_bytes();
            let reply = std::iter::once(SyncMsg::Head { settled, head }).chain(
                blocks.into_iter().map(|(client, block, data)| SyncMsg::Block {
                    client,
                    block,
                    data,
                }),
            );
            let outbound =
                reply.map(|m| Envelope { to: Dest::One(to), msg: R::sync_msg(m) }).collect();
            ReplicaStep { outbound, settled: Vec::new() }
        }
        Err(SyncServeError::HeadTooLarge { bytes }) => {
            // Typed refusal instead of the framing layer's
            // oversized-payload panic.
            if let Some(obs) = &r.shell().obs {
                obs.sync_refused_oversize.inc();
                obs.flight.event("core.sync.head_oversize", bytes as u64, 0);
            }
            ReplicaStep::empty()
        }
    }
}

/// Publishes the collectors' progress, then attempts to finish the
/// catch-up through [`Replica::install_chunked`]: once it installs, the
/// parked broadcast traffic replays through the normal path (messages at
/// or below the installed cursor are dropped by FIFO gating, later ones
/// proceed); otherwise the session keeps collecting.
fn try_complete_sync<R: Replica>(r: &mut R) -> ReplicaStep<R::Msg> {
    let shell = r.shell_mut();
    let Some(mut sync) = shell.syncing.take() else { return ReplicaStep::empty() };
    if let Some(obs) = &shell.obs {
        obs.sync_rejected.set(sync.rejected() as u64);
        obs.sync_blocks_certified.set(sync.blocks.certified_len() as u64);
    }
    match r.install_chunked(&mut sync.heads, &mut sync.blocks) {
        Ok(out) => replay_parked(r, sync, out),
        Err(_) => {
            r.shell_mut().syncing = Some(sync);
            ReplicaStep::empty()
        }
    }
}

/// Feeds a finished catch-up's parked broadcast traffic back through
/// [`Replica::handle`], appending the effects to `out`.
fn replay_parked<R: Replica>(
    r: &mut R,
    sync: SyncSession<R::Msg>,
    mut out: ReplicaStep<R::Msg>,
) -> ReplicaStep<R::Msg> {
    for (from, msg) in sync.buffered {
        let step = r.handle(from, msg);
        out.outbound.extend(step.outbound);
        out.settled.extend(step.settled);
    }
    out
}
