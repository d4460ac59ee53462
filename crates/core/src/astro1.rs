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
use crate::journal::{Astro1Local, WalRecord};
use crate::pending::PendingQueue;
use crate::replica::{self, Replica, Shell, SYNC_FALLBACK_ROUNDS, SYNC_RETRY_TICKS};
use crate::sync::SyncMsg;
use crate::{ReplicaStep, SubmitError};
use astro_brb::bracha::{BrachaBrb, BrachaMsg};
use astro_brb::{BrbConfig, DeliveryOrder};
use astro_types::wire::{Wire, WireError};
use astro_types::{Amount, Payment, ReplicaId, ShardLayout};

/// Configuration of an Astro I replica.
#[derive(Debug, Clone)]
pub struct Astro1Config {
    /// Payments per broadcast batch; the batch is flushed automatically
    /// when full (callers may also flush on a timer via
    /// [`Replica::flush`]). Batch size 1 disables batching.
    pub batch_size: usize,
    /// Genesis balance of every client.
    pub initial_balance: Amount,
}

impl Default for Astro1Config {
    fn default() -> Self {
        Astro1Config { batch_size: 64, initial_balance: Amount(1_000_000) }
    }
}

/// Wire messages exchanged between Astro I replicas. Astro I carries no
/// signatures: links are MAC-authenticated and the catch-up state
/// transfer certifies by `f+1` matching copies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Astro1Msg {
    /// Broadcast-layer traffic (Bracha's three phases plus the payload
    /// request/answer leg).
    Brb(BrachaMsg<Batch>),
    /// Catch-up traffic.
    Sync(SyncMsg),
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

/// One Astro I replica: the Bracha BRB layer plus the payment state machine
/// of Listings 2–4.
#[derive(Debug)]
pub struct AstroOneReplica {
    shell: Shell<Astro1Msg, Batch>,
    brb: BrachaBrb<Batch>,
    /// Flush ticks since outstanding payload pulls were last requested.
    pull_ticks: u32,
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
        let shell = Shell::new(me, layout, cfg.batch_size, cfg.initial_balance);
        let brb = BrachaBrb::new(
            me,
            shell.group.clone(),
            BrbConfig { order: DeliveryOrder::FifoPerSource, bind_source: true },
        );
        AstroOneReplica { shell, brb, pull_ticks: 0 }
    }

    // `submit` / `handle` / `flush` stay callable without the trait in
    // scope: `benchmark/src/layers/protocol.rs` names them by path.

    /// [`Replica::submit`].
    ///
    /// # Errors
    ///
    /// As [`Replica::submit`].
    pub fn submit(&mut self, payment: Payment) -> Result<ReplicaStep<Astro1Msg>, SubmitError> {
        Replica::submit(self, payment)
    }

    /// [`Replica::handle`].
    pub fn handle(&mut self, from: ReplicaId, msg: Astro1Msg) -> ReplicaStep<Astro1Msg> {
        Replica::handle(self, from, msg)
    }

    /// [`Replica::flush`].
    pub fn flush(&mut self) -> ReplicaStep<Astro1Msg> {
        Replica::flush(self)
    }
}

impl Replica for AstroOneReplica {
    type Msg = Astro1Msg;
    type Config = Astro1Config;
    type Brb = BrachaBrb<Batch>;
    type Local = Astro1Local;

    /// Bracha delivery *is* the quorum event: 2f+1 READYs arrived.
    const QUORUM_AT_DELIVERY: bool = true;

    fn shell(&self) -> &Shell<Astro1Msg, Batch> {
        &self.shell
    }

    fn shell_mut(&mut self) -> &mut Shell<Astro1Msg, Batch> {
        &mut self.shell
    }

    fn brb(&self) -> &BrachaBrb<Batch> {
        &self.brb
    }

    fn brb_mut(&mut self) -> &mut BrachaBrb<Batch> {
        &mut self.brb
    }

    fn sync_msg(msg: SyncMsg) -> Astro1Msg {
        Astro1Msg::Sync(msg)
    }

    fn brb_msg(msg: BrachaMsg<Batch>) -> Astro1Msg {
        Astro1Msg::Brb(msg)
    }

    fn handle(&mut self, from: ReplicaId, msg: Astro1Msg) -> ReplicaStep<Astro1Msg> {
        match msg {
            Astro1Msg::Brb(m) => replica::handle_brb(self, from, m),
            Astro1Msg::Sync(m) => replica::handle_sync(self, from, m),
        }
    }

    /// Broadcasts the accumulated batch, if any (called on a timer by the
    /// driver, and automatically when a batch fills). The same timer, at
    /// the catch-up retry pacing, re-sends the broadcast layer's
    /// unanswered payload requests, and starts a catch-up once one has
    /// gone unanswered for all its rounds.
    fn flush(&mut self) -> ReplicaStep<Astro1Msg> {
        if let Some(step) = replica::catchup_tick(self) {
            return step;
        }
        let mut out = ReplicaStep::empty();
        self.pull_ticks = if self.brb.pulls_outstanding() == 0 { 0 } else { self.pull_ticks + 1 };
        if self.pull_ticks == SYNC_RETRY_TICKS {
            self.pull_ticks = 0;
            let (requests, exhausted) = self.brb.retry_pulls();
            out.outbound = replica::wrap_brb::<Self>(requests);
            if exhausted {
                // Everyone that vouched for a batch stayed silent for all
                // its rounds: they delivered and pruned it, so its effects
                // are in their settled state — fetch that. The local state
                // is sound, hence the fallback budget.
                self.begin_catchup(Some(SYNC_FALLBACK_ROUNDS));
                return out;
            }
        }
        replica::flush_batch(self, &mut out);
        out
    }

    /// A batch awaits broadcast, or a payload pull or a catch-up is
    /// outstanding.
    fn needs_tick(&self) -> bool {
        !self.shell.batch.is_empty() || self.is_syncing() || self.brb.pulls_outstanding() > 0
    }

    /// The approval queue.
    fn export_local(&self) -> Astro1Local {
        Astro1Local { pending: self.shell.pending.payments() }
    }

    fn restore_local(&mut self, local: &Astro1Local) {
        self.shell.pending = PendingQueue::new();
        for payment in &local.pending {
            self.shell.pending.push(*payment, ());
        }
    }

    fn replay_local(&mut self, record: &WalRecord) {
        // Astro II records do not occur in an Astro I log.
        if let WalRecord::Queued { payment, .. } = record {
            self.shell.pending.push(*payment, ());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::State;
    use crate::testkit::PaymentCluster;
    use astro_types::ClientId;

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
        let rep = c.node(0).shell.layout.representative_of(p.spender);
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
        let rep = c.node(0).shell.layout.representative_of(ClientId(0));
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
        let rep = c.node(0).shell.layout.representative_of(ClientId(0));
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
    fn a_batch_carrying_seq_one_before_seq_zero_settles_both() {
        use astro_types::wire::Wire;
        // The first payment queues on its sequence gap while the batch is
        // applied; the second fills the gap, and the cascade over the
        // queue that filled during this very batch settles the first.
        let mut c = cluster(4, 2);
        pay(&mut c, Payment::new(1u64, 1u64, 3u64, 20u64));
        pay(&mut c, Payment::new(1u64, 0u64, 2u64, 30u64));
        c.run_to_quiescence();
        let reference = c.node(0).export_state().ledger.to_wire_bytes();
        for i in 0..4 {
            let seqs: Vec<u64> = c.settled(i).iter().map(|p| p.seq.0).collect();
            assert_eq!(seqs, [0, 1], "replica {i} settles both, in sequence order");
            assert_eq!(c.node(i).pending_len(), 0, "replica {i} queue drained");
            assert_eq!(c.node(i).balance(ClientId(1)), Amount(50));
            assert_eq!(c.node(i).export_state().ledger.to_wire_bytes(), reference, "replica {i}");
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
        let restored = AstroOneReplica::new(ReplicaId(2), layout, cfg).restore(&state).unwrap();
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
        let mut recovered =
            AstroOneReplica::new(ReplicaId(0), layout, cfg).restore(&state).unwrap();
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
        node0.shell.batch.push(forged); // bypass submit's representative check
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
            assert_eq!((&state.local, &state.cursors), (&reference.local, &reference.cursors));
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
    fn long_state(entries: u64) -> State<Astro1Local> {
        let history: Vec<Payment> =
            (0..entries).map(|seq| Payment::new(7u64, seq, 8u64, 1u64)).collect();
        State {
            ledger: crate::journal::LedgerState {
                initial_balance: Amount(100),
                accounts: vec![(ClientId(7), Amount(100)), (ClientId(8), Amount(100 + entries))],
                xlogs: vec![(ClientId(7), history)],
            },
            local: Astro1Local { pending: Vec::new() },
            next_tag: 0,
            cursors: Vec::new(),
        }
    }

    fn restored(i: u32, state: &State<Astro1Local>) -> AstroOneReplica {
        AstroOneReplica::new(
            ReplicaId(i),
            ShardLayout::single(4).unwrap(),
            Astro1Config { batch_size: 1, initial_balance: Amount(100) },
        )
        .restore(state)
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

        c.node_mut(3).begin_catchup(None);
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
        let step = donor.handle(ReplicaId(3), Astro1Msg::Sync(SyncMsg::Request { settled: 0 }));
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
        use crate::sync::SyncServeError;
        // History chunks, but the volatile head (here: a pathological
        // approval queue) cannot — past the bound the donor refuses
        // instead of panicking the framing layer.
        let mut state = long_state(4);
        state.local.pending =
            (0..300_000u64).map(|c| Payment::new(c, 0u64, 1u64, u64::MAX)).collect();
        let mut donor = restored(0, &state);
        assert!(matches!(
            donor.sync_chunks(ReplicaId(3)),
            Err(SyncServeError::HeadTooLarge { .. })
        ));
        let step = donor.handle(ReplicaId(3), Astro1Msg::Sync(SyncMsg::Request { settled: 0 }));
        assert!(step.outbound.is_empty(), "refusal, not a panic or a partial serve");
    }
}
