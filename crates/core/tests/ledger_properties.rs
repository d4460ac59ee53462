//! Property tests for the ledger / pending-queue engine: conservation,
//! idempotence, and cascade correctness under arbitrary workloads; the
//! compact xlog against a plain `Vec<Payment>`; and pinned digests of the
//! state-transfer and checkpoint bytes a seeded ledger exports.

use astro_core::astro1::{Astro1Config, AstroOneReplica};
use astro_core::journal::LedgerState;
use astro_core::ledger::{Ledger, SettleOutcome, DENSE_LIMIT};
use astro_core::pending::PendingQueue;
use astro_core::testkit::PaymentCluster;
use astro_core::xlog::{XLog, XLogError};
use astro_core::Replica;
use astro_types::wire::{decode_exact, Wire};
use astro_types::{Amount, ClientId, Payment, ReplicaId, SeqNo, ShardLayout};
use proptest::prelude::*;

const CLIENTS: u64 = 6;

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
