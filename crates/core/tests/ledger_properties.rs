//! Property tests for the ledger / pending-queue engine: conservation,
//! idempotence, and cascade correctness under arbitrary workloads; the
//! compact xlog against a plain `Vec<Payment>`; the checkpoint delta
//! against an ordered-set model; and pinned digests of the
//! state-transfer and checkpoint bytes a seeded ledger exports.

use astro_core::astro1::{Astro1Config, AstroOneReplica};
use astro_core::astro2::{Astro2Config, AstroTwoReplica, CreditMode, DepPolicy};
use astro_core::batch::{credit_context, DependencyCertificate};
use astro_core::journal::{CheckpointRecord, LedgerState};
use astro_core::ledger::{Ledger, SettleOutcome, CHECKPOINT_CHUNK_ENTRIES, DENSE_LIMIT};
use astro_core::pending::PendingQueue;
use astro_core::testkit::{submit_with_deps, PaymentCluster};
use astro_core::xlog::{XLog, XLogError};
use astro_core::Replica;
use astro_types::wire::{decode_exact, Wire};
use astro_types::{
    Amount, Authenticator, ClientId, MacAuthenticator, Payment, ReplicaId, SeqNo, ShardLayout,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const CLIENTS: u64 = 6;

/// Dense ids and ids past the dense table, for the checkpoint-delta model.
const MODEL_IDS: [u64; 8] = [0, 1, 2, 5, 9, DENSE_LIMIT, DENSE_LIMIT + 3, DENSE_LIMIT + 40];

/// The checkpoint delta as an ordered set: the clients touched since
/// their last seal, and each client's sealed xlog watermark.
#[derive(Default)]
struct DeltaModel {
    dirty: BTreeSet<ClientId>,
    marks: BTreeMap<ClientId, u64>,
    /// Every client that ever held a balance or an xlog (non-vacant).
    known: BTreeSet<ClientId>,
}

impl DeltaModel {
    fn touch(&mut self, client: ClientId) {
        self.dirty.insert(client);
        self.known.insert(client);
    }

    /// Every known client dirty, nothing sealed.
    fn rebaseline(&mut self) {
        self.dirty = self.known.clone();
        self.marks.clear();
    }

    /// The records the next seal must produce, rebuilt from the ledger's
    /// balances and xlog tails; advances the watermarks.
    fn seal(&mut self, ledger: &Ledger) -> Vec<CheckpointRecord> {
        let mut records = Vec::new();
        for client in std::mem::take(&mut self.dirty) {
            let balance = ledger.balance(client);
            let mark = self.marks.get(&client).copied().unwrap_or(0);
            let tail: Vec<Payment> =
                ledger.xlog(client).map_or(Vec::new(), |x| x.iter_from(SeqNo(mark)).collect());
            let mut base = mark;
            if tail.is_empty() {
                records.push(CheckpointRecord { client, balance, base, entries: Vec::new() });
            }
            for chunk in tail.chunks(CHECKPOINT_CHUNK_ENTRIES) {
                records.push(CheckpointRecord { client, balance, base, entries: chunk.to_vec() });
                base += chunk.len() as u64;
            }
            self.marks.insert(client, base);
        }
        records
    }
}

fn arb_ops() -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    proptest::collection::vec((0..CLIENTS, 1..CLIENTS, 1u64..500), 1..60)
}

fn as_payments(raw: &[(u64, u64, u64)]) -> Vec<Payment> {
    let mut seq = vec![0u64; CLIENTS as usize];
    raw.iter()
        .map(|&(s, off, x)| {
            let p = Payment::new(s, seq[s as usize], (s + off) % CLIENTS, x);
            seq[s as usize] += 1;
            p
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever happens — settles, queues, drops — total money is fixed.
    #[test]
    fn conservation_under_arbitrary_ops(raw in arb_ops(), genesis in 0u64..300) {
        let mut ledger = Ledger::new(Amount(genesis));
        let mut queue: PendingQueue<()> = PendingQueue::new();
        for p in as_payments(&raw) {
            match ledger.settle(&p, true) {
                SettleOutcome::Applied => {
                    queue.drain_cascade(
                        [p.spender, p.beneficiary],
                        &mut ledger,
                        |l, q, ()| l.settle(q, true),
                    );
                }
                SettleOutcome::FutureSeq | SettleOutcome::InsufficientFunds => {
                    queue.push(p, ());
                }
                SettleOutcome::StaleSeq => {}
            }
        }
        let total: u64 = (0..CLIENTS).map(|c| ledger.balance(ClientId(c)).0).sum();
        prop_assert_eq!(total, genesis * CLIENTS);
        prop_assert!(ledger.audit());
    }

    /// Replaying the full payment stream a second time changes nothing
    /// (all payments are stale on replay).
    #[test]
    fn replay_is_idempotent(raw in arb_ops()) {
        let mut ledger = Ledger::new(Amount(10_000));
        let payments = as_payments(&raw);
        for p in &payments {
            let _ = ledger.settle(p, true);
        }
        let snapshot: Vec<u64> = (0..CLIENTS).map(|c| ledger.balance(ClientId(c)).0).collect();
        let settled = ledger.total_settled();
        for p in &payments {
            let outcome = ledger.settle(p, true);
            prop_assert!(
                matches!(outcome, SettleOutcome::StaleSeq),
                "replayed payment must be stale, got {:?}", outcome
            );
        }
        let after: Vec<u64> = (0..CLIENTS).map(|c| ledger.balance(ClientId(c)).0).collect();
        prop_assert_eq!(snapshot, after);
        prop_assert_eq!(settled, ledger.total_settled());
    }

    /// Delivery order does not matter: shuffled delivery through the
    /// pending queue reaches the same final state as in-order delivery
    /// (per-spender sequence numbers impose the only required order).
    #[test]
    fn out_of_order_delivery_converges(raw in arb_ops(), seed in any::<u64>()) {
        let payments = as_payments(&raw);

        // In order.
        let mut l1 = Ledger::new(Amount(10_000));
        let mut q1: PendingQueue<()> = PendingQueue::new();
        for p in &payments {
            if l1.settle(p, true) != SettleOutcome::Applied {
                q1.push(*p, ());
            }
            q1.drain_cascade([p.spender, p.beneficiary], &mut l1, |l, q, ()| l.settle(q, true));
        }

        // Deterministically shuffled.
        let mut shuffled = payments.clone();
        let mut state = seed | 1;
        for i in (1..shuffled.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            shuffled.swap(i, (state as usize) % (i + 1));
        }
        let mut l2 = Ledger::new(Amount(10_000));
        let mut q2: PendingQueue<()> = PendingQueue::new();
        for p in &shuffled {
            if l2.settle(p, true) != SettleOutcome::Applied {
                q2.push(*p, ());
            }
            q2.drain_cascade([p.spender, p.beneficiary], &mut l2, |l, q, ()| l.settle(q, true));
        }

        for c in 0..CLIENTS {
            prop_assert_eq!(
                l1.balance(ClientId(c)),
                l2.balance(ClientId(c)),
                "divergence for client {}", c
            );
        }
        prop_assert_eq!(l1.total_settled(), l2.total_settled());
    }

    /// XLog append is exactly the settled subsequence per spender.
    #[test]
    fn xlogs_mirror_settlement(raw in arb_ops()) {
        let mut ledger = Ledger::new(Amount(10_000));
        let mut applied: Vec<Payment> = Vec::new();
        for p in as_payments(&raw) {
            if ledger.settle(&p, true) == SettleOutcome::Applied {
                applied.push(p);
            }
        }
        for c in 0..CLIENTS {
            let client = ClientId(c);
            let expected: Vec<&Payment> = applied.iter().filter(|p| p.spender == client).collect();
            match ledger.xlog(client) {
                None => prop_assert!(expected.is_empty()),
                Some(xlog) => {
                    prop_assert_eq!(xlog.len(), expected.len());
                    for (i, p) in expected.iter().enumerate() {
                        prop_assert_eq!(xlog.get(SeqNo(i as u64)), Some(**p));
                    }
                }
            }
        }
    }

    /// Reconstructing a ledger from its transferred export — the path
    /// catch-up installs through — preserves audit.
    #[test]
    fn state_transfer_preserves_audit(raw in arb_ops()) {
        let mut source = Ledger::new(Amount(10_000));
        for p in as_payments(&raw) {
            let _ = source.settle(&p, true);
        }
        let transferred = source.export().to_wire_bytes();
        let state: LedgerState = decode_exact(&transferred).expect("export decodes");
        let target = Ledger::import(&state).expect("source logs are valid");
        prop_assert!(target.audit());
        for c in 0..CLIENTS {
            prop_assert_eq!(target.next_seq(ClientId(c)), source.next_seq(ClientId(c)));
        }
    }

    /// The dirty list and its seal match an ordered-set model under any
    /// interleaving of settles (beneficiary credited directly or not),
    /// credits, seals, re-baselines and export→import round trips, over
    /// dense and sparse ids: every seal's bytes are the model's records,
    /// and `dirty_len` is the model set's size after every step. The
    /// sealed segments, replayed, rebuild the ledger.
    #[test]
    fn seal_delta_matches_an_ordered_set_model(
        ops in proptest::collection::vec(
            (0u8..10, 0..MODEL_IDS.len(), 0..MODEL_IDS.len(), 1u64..400, 0u8..8),
            0..80,
        ),
    ) {
        let genesis = Amount(1_000);
        let mut ledger = Ledger::new(genesis);
        let mut model = DeltaModel::default();
        let mut segments: Vec<Vec<Vec<u8>>> = Vec::new();
        let mut seal = |ledger: &mut Ledger, model: &mut DeltaModel| {
            let want: Vec<Vec<u8>> = model.seal(ledger).iter().map(Wire::to_wire_bytes).collect();
            let got: Vec<Vec<u8>> = ledger.seal_delta().iter().map(Wire::to_wire_bytes).collect();
            segments.push(got.clone());
            (got, want)
        };
        for (kind, a, b, amount, skew) in ops {
            let (a, b) = (ClientId(MODEL_IDS[a]), ClientId(MODEL_IDS[b]));
            match kind {
                0..=4 => {
                    // Mostly the next sequence number; a gap or a replay
                    // one time in eight each, neither of which may dirty.
                    let next = ledger.next_seq(a).0;
                    let seq = match skew { 0 => next + 1, 1 => next.saturating_sub(1), _ => next };
                    let credit_beneficiary = kind < 3;
                    let p = Payment::new(a.0, seq, b.0, amount);
                    if ledger.settle(&p, credit_beneficiary) == SettleOutcome::Applied {
                        model.touch(a);
                        if credit_beneficiary {
                            model.touch(b);
                        }
                    }
                }
                5 | 6 => {
                    ledger.credit(a, Amount(amount));
                    model.touch(a);
                }
                7 => {
                    let (got, want) = seal(&mut ledger, &mut model);
                    prop_assert_eq!(got, want);
                }
                8 => {
                    ledger.rebaseline();
                    model.rebaseline();
                }
                _ => {
                    ledger = Ledger::import(&ledger.export()).expect("own export imports");
                    model.rebaseline();
                }
            }
            prop_assert_eq!(ledger.dirty_len(), model.dirty.len());
        }
        let (got, want) = seal(&mut ledger, &mut model);
        prop_assert_eq!(got, want);
        prop_assert_eq!(ledger.dirty_len(), 0);
        let rebuilt = Ledger::from_checkpoints(genesis, &segments).expect("segments replay");
        prop_assert_eq!(rebuilt.export(), ledger.export());
    }

    /// The compact xlog behaves exactly like the `Vec<Payment>` it
    /// replaced: the same appends succeed and fail with the same error,
    /// and every read — `iter`, `iter_from` at every offset, `get`, `len`,
    /// `total_spent`, and the ledger's export — returns the same payments.
    #[test]
    fn compact_xlog_matches_a_payment_vector(
        ops in proptest::collection::vec((0u64..8, 0u64..8, 0u64..4, any::<u64>()), 0..48),
    ) {
        let owner = ClientId(3);
        let mut log = XLog::new(owner);
        let mut reference: Vec<Payment> = Vec::new();
        let mut attempted: Vec<Payment> = Vec::new();
        for (who, skew, beneficiary, amount) in ops {
            // Mostly valid appends; a foreign spender 1 time in 8, a wrong
            // sequence number 3 times in 8.
            let spender = if who == 0 { 4 } else { owner.0 };
            let next = reference.len() as u64;
            let seq = match skew { 0 => next + 1, 1 => next.saturating_sub(1), 2 => next + 7, _ => next };
            let p = Payment::new(spender, seq, beneficiary, amount);
            attempted.push(p);
            let expected = if p.spender != owner {
                Err(XLogError::WrongOwner { owner, spender: p.spender })
            } else if p.seq != SeqNo(next) {
                Err(XLogError::SequenceGap { expected: SeqNo(next), got: p.seq })
            } else {
                reference.push(p);
                Ok(())
            };
            prop_assert_eq!(log.append(p), expected);
        }
        prop_assert_eq!(log.len(), reference.len());
        prop_assert_eq!(log.next_seq(), SeqNo(reference.len() as u64));
        prop_assert_eq!(log.iter().collect::<Vec<_>>(), reference.clone());
        for k in 0..=reference.len() + 2 {
            let tail: Vec<Payment> = log.iter_from(SeqNo(k as u64)).collect();
            prop_assert_eq!(&tail[..], reference.get(k..).unwrap_or(&[]));
            prop_assert_eq!(log.get(SeqNo(k as u64)), reference.get(k).copied());
        }
        prop_assert_eq!(log.get(SeqNo(u64::MAX)), None);
        prop_assert_eq!(log.iter_from(SeqNo(u64::MAX)).count(), 0);
        let spent = reference.iter().fold(Amount::ZERO, |acc, p| acc.saturating_add(p.amount));
        prop_assert_eq!(log.total_spent(), spent);

        // `from_entries` reports the first bad entry the way the
        // whole-log check before it did.
        let first_bad = attempted
            .iter()
            .enumerate()
            .find(|(i, p)| p.spender != owner || p.seq != SeqNo(*i as u64))
            .map(|(i, p)| {
                if p.spender != owner {
                    XLogError::WrongOwner { owner, spender: p.spender }
                } else {
                    XLogError::SequenceGap { expected: SeqNo(i as u64), got: p.seq }
                }
            });
        match (XLog::from_entries(owner, attempted.clone()), first_bad) {
            (Ok(rebuilt), None) => prop_assert_eq!(rebuilt.iter().collect::<Vec<_>>(), attempted),
            (Err(got), Some(want)) => prop_assert_eq!(got, want),
            (got, want) => panic!("from_entries {got:?}, reference {want:?}"),
        }

        // Through the ledger: import and export are lossless.
        let state = LedgerState {
            initial_balance: Amount(5),
            accounts: vec![(owner, Amount(1))],
            xlogs: vec![(owner, reference.clone())],
        };
        let ledger = Ledger::import(&state).expect("the reference log is valid");
        prop_assert_eq!(ledger.total_settled(), reference.len());
        prop_assert_eq!(ledger.export(), state);
    }
}

fn hex(digest: [u8; 32]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

/// The bytes a seeded Astro I replica exports — its sync/snapshot state
/// and its checkpoint records — hash to values pinned before xlog entries
/// were stored in compact form. A change to the in-memory representation
/// must not move a byte on the wire or on disk.
#[test]
fn seeded_state_and_checkpoint_bytes_are_pinned() {
    let layout = ShardLayout::single(4).unwrap();
    let cfg = Astro1Config { batch_size: 4, initial_balance: Amount(1_000) };
    let mut c = PaymentCluster::new(
        (0..4).map(|i| AstroOneReplica::new(ReplicaId(i), layout.clone(), cfg.clone())),
    );
    let clients = [0, 1, 2, 5, 9, 17, DENSE_LIMIT + 3];
    let mut seqs = [0u64; 7];
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..300 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let s = (x % 7) as usize;
        let b = ((x >> 8) % 7) as usize;
        let p = Payment::new(clients[s], seqs[s], clients[b], (x >> 16) % 120);
        seqs[s] += 1;
        let rep = layout.representative_of(p.spender);
        let step = c.node_mut(rep.0 as usize).submit(p).expect("representative accepts");
        c.submit_step(rep, step);
    }
    // A future sequence number parks in every replica's approval queue.
    let parked = Payment::new(2u64, seqs[2] + 1, 1u64, 1u64);
    let rep = layout.representative_of(parked.spender);
    let step = c.node_mut(rep.0 as usize).submit(parked).expect("representative accepts");
    c.submit_step(rep, step);
    for i in 0..4 {
        let step = c.node_mut(i).flush();
        c.submit_step(ReplicaId(i as u32), step);
    }
    c.run_to_quiescence();
    assert!(c.node(0).ledger().total_settled() > 200);

    let state = c.node(0).export_state().to_wire_bytes();
    let checkpoint: Vec<u8> = c.node_mut(0).seal_checkpoint().concat();
    assert_eq!(
        hex(astro_crypto::sha256::sha256(&state)),
        "d5c06fa4d1173d637e29726b9357728a5ba85ad92a4a8a80230af46133d95111",
        "Astro1State wire bytes moved"
    );
    assert_eq!(
        hex(astro_crypto::sha256::sha256(&checkpoint)),
        "6c38a0cc3ed5cf534807db50d23e766395a747655a90beefb3483a28ae58ec98",
        "checkpoint record bytes moved"
    );
}

/// The residual snapshot a seeded Astro I replica writes next to its
/// checkpoint segments — approval queue, tag counter and delivery
/// cursors all non-empty — hashes to a value pinned before the snapshot
/// types of both protocols became one generic layout.
#[test]
fn seeded_astro1_residual_bytes_are_pinned() {
    let layout = ShardLayout::single(4).unwrap();
    let cfg = Astro1Config { batch_size: 2, initial_balance: Amount(100) };
    let mut c = PaymentCluster::new(
        (0..4).map(|i| AstroOneReplica::new(ReplicaId(i), layout.clone(), cfg.clone())),
    );
    let mut seqs = [0u64; 6];
    for i in 0..30u64 {
        let s = (i * 7 % 6) as usize;
        let p = Payment::new(s as u64, seqs[s], (s as u64 + 1 + i % 4) % 6, 3 + i % 11);
        seqs[s] += 1;
        let rep = layout.representative_of(p.spender);
        let step = c.node_mut(rep.0 as usize).submit(p).expect("representative accepts");
        c.submit_step(rep, step);
    }
    let parked = Payment::new(4u64, seqs[4] + 1, 0u64, 1u64);
    let rep = layout.representative_of(parked.spender);
    let step = c.node_mut(rep.0 as usize).submit(parked).expect("representative accepts");
    c.submit_step(rep, step);
    for i in 0..4 {
        let step = c.node_mut(i).flush();
        c.submit_step(ReplicaId(i as u32), step);
    }
    c.run_to_quiescence();
    assert_eq!(c.node(1).ledger().total_settled(), 30);
    assert_eq!(c.node(1).pending_len(), 1);

    let residual = c.node(1).residual_state(3).to_wire_bytes();
    assert_eq!(
        hex(astro_crypto::sha256::sha256(&residual)),
        "046ad5c03eb94ccaca37527d128089af358dd4920fbf0b716d5523eca3eeb1c5",
        "Astro I residual snapshot bytes moved"
    );
}

/// The full state and the residual snapshot of a seeded Astro II replica
/// (certificate mode, MAC signatures) whose every protocol section is
/// populated: a queued payment carrying a certificate, a materialized
/// dependency, held certificates and an unacked CREDIT.
#[test]
fn seeded_astro2_state_and_residual_bytes_are_pinned() {
    let layout = ShardLayout::single(4).unwrap();
    let cfg = Astro2Config {
        batch_size: 1,
        initial_balance: Amount(100),
        credit_mode: CreditMode::Certificates,
        dep_policy: DepPolicy::WhenNeeded,
    };
    let mac = |r: u32| MacAuthenticator::new(ReplicaId(r), b"pins".to_vec());
    let mut c = PaymentCluster::new(
        (0..4).map(|i| AstroTwoReplica::new(mac(i), layout.clone(), cfg.clone())),
    );
    let pay = |c: &mut PaymentCluster<AstroTwoReplica<MacAuthenticator>>, p: Payment| {
        let rep = layout.representative_of(p.spender);
        let step = c.node_mut(rep.0 as usize).submit(p).expect("representative accepts");
        c.submit_step(rep, step);
        c.run_to_quiescence();
    };
    // Every client pays the next: each beneficiary's representative
    // holds a certificate.
    for s in 0..8u64 {
        pay(&mut c, Payment::new(s, 0u64, (s + 1) % 8, 10 + s));
    }
    // Client 1 overspends its settled 89: the certificate for client 0's
    // 10 rides along and materializes everywhere.
    pay(&mut c, Payment::new(1u64, 1u64, 2u64, 95u64));
    // A future sequence number, carrying a certificate, queues everywhere.
    let bundle = vec![Payment::new(4u64, 0u64, 5u64, 14u64)];
    let context = credit_context(&bundle);
    let proofs = (0..2).map(|r| (ReplicaId(r), mac(r).sign(&context))).collect();
    let cert = DependencyCertificate { bundle, proofs };
    let rep = layout.representative_of(ClientId(5));
    let step = submit_with_deps(
        c.node_mut(rep.0 as usize),
        Payment::new(5u64, 2u64, 6u64, 1u64),
        vec![cert],
    );
    c.submit_step(rep, step);
    c.run_to_quiescence();
    let node = c.node(0);
    assert_eq!(node.balance(ClientId(1)), Amount(100 - 11 + 10 - 95));
    assert_eq!(node.pending_len(), 1);
    assert!(node.held_certificates(ClientId(0)) > 0 && node.held_certificates(ClientId(4)) > 0);
    assert!(node.outbox_depth() > 0);

    let state = node.export_state().to_wire_bytes();
    let residual = node.residual_state(2).to_wire_bytes();
    assert_eq!(
        hex(astro_crypto::sha256::sha256(&state)),
        "1792cdbf04bc8c06e3b294a5e04f3f6970909dc57000e1ff5286cb8c79b15486",
        "Astro II state wire bytes moved"
    );
    assert_eq!(
        hex(astro_crypto::sha256::sha256(&residual)),
        "73a57b28324d337c431f53476d13c0736d52b95eca024dc31b7525456173e480",
        "Astro II residual snapshot bytes moved"
    );
}
