//! The settle contract of both protocols, pinned on one delivered batch:
//! what each entry does to the journal, in which order the batch's
//! payments settle, and what is left waiting.
//!
//! The batch is broadcast by replica 1 and applied at replica 0 of a
//! 4-replica shard (client `c` is represented by replica `c % 4`). Every
//! entry takes a different branch of the settle loop:
//!
//! | entry            | fate                                                  |
//! |------------------|-------------------------------------------------------|
//! | client 1, seq 0  | settles                                               |
//! | client 5, seq 1  | a sequence gap: queued, then settled by the cascade   |
//! | client 5, seq 0  | settles and fills the gap                             |
//! | client 9, seq 0  | underfunded: Astro I queues it, Astro II sticks 9     |
//! | client 5, seq 0' | a second payment at a settled slot: stale, dropped    |
//! | client 2, seq 0  | broadcast by a replica that does not represent 2      |

use astro_brb::InstanceId;
use astro_core::astro1::{Astro1Config, AstroOneReplica};
use astro_core::astro2::{Astro2Config, AstroTwoReplica, CreditMode, DepPolicy};
use astro_core::batch::{credit_context, Batch, DepBatch, DepPayment, DependencyCertificate};
use astro_core::journal::{Journal, WalRecord};
use astro_core::{Replica, ReplicaStep};
use astro_types::{
    Amount, Authenticator, ClientId, MacAuthenticator, Payment, ReplicaId, SeqNo, ShardLayout, Wire,
};
use std::sync::{Arc, Mutex};

/// A journal that keeps its records in memory.
#[derive(Clone, Default)]
struct Sink(Arc<Mutex<Vec<WalRecord>>>);

impl Journal for Sink {
    fn record(&mut self, r: &WalRecord) {
        self.0.lock().unwrap().push(r.clone());
    }
}

impl Sink {
    fn records(&self) -> Vec<WalRecord> {
        self.0.lock().unwrap().clone()
    }
}

/// Tag 0 of replica 1's stream.
const INSTANCE: InstanceId = InstanceId { source: 1, tag: 0 };

const fn pay(spender: u64, seq: u64, beneficiary: u64, amount: u64) -> Payment {
    Payment {
        spender: ClientId(spender),
        seq: SeqNo(seq),
        beneficiary: ClientId(beneficiary),
        amount: Amount(amount),
    }
}

const X0: Payment = pay(1, 0, 3, 10);
const Y1: Payment = pay(5, 1, 3, 10);
const Y0: Payment = pay(5, 0, 3, 10);
const Z0: Payment = pay(9, 0, 3, 150);
const Y0_AGAIN: Payment = pay(5, 0, 6, 20);
const FOREIGN: Payment = pay(2, 0, 3, 10);

/// The batch, in broadcast order.
const BATCH: [Payment; 6] = [X0, Y1, Y0, Z0, Y0_AGAIN, FOREIGN];

fn settle(p: Payment, credit_beneficiary: bool) -> WalRecord {
    WalRecord::Settle { payment: p, credit_beneficiary }
}

#[test]
fn astro1_settle_contract() {
    let layout = ShardLayout::single(4).unwrap();
    let cfg = Astro1Config { batch_size: 64, initial_balance: Amount(100) };
    let mut node = AstroOneReplica::new(ReplicaId(0), layout, cfg);
    let sink = Sink::default();
    node.set_journal(Box::new(sink.clone()));

    let mut out = ReplicaStep::empty();
    node.apply(INSTANCE, Batch { payments: BATCH.to_vec() }, &mut out);

    assert_eq!(
        sink.records(),
        [
            settle(X0, true),
            WalRecord::Queued { payment: Y1, deps: Vec::new() },
            settle(Y0, true),
            WalRecord::Queued { payment: Z0, deps: Vec::new() },
            settle(Y1, true),
            WalRecord::Delivered { source: 1, tag: 0 },
        ]
    );
    assert_eq!(out.settled, [X0, Y0, Y1], "first pass in batch order, then the cascade");
    assert!(out.outbound.is_empty(), "Astro I credits at settle and sends nothing");
    assert_eq!(node.pending_len(), 1, "the underfunded payment waits for funds");
    assert_eq!(node.balance(ClientId(3)), Amount(130), "the beneficiary is credited at once");
    assert_eq!(node.balance(ClientId(2)), Amount(100), "the foreign entry is skipped");
}

#[test]
fn astro2_settle_contract() {
    let layout = ShardLayout::single(4).unwrap();
    let cfg = Astro2Config {
        batch_size: 64,
        initial_balance: Amount(100),
        credit_mode: CreditMode::Certificates,
        dep_policy: DepPolicy::WhenNeeded,
    };
    let auth = |i| MacAuthenticator::new(ReplicaId(i), b"astro2".to_vec());
    let mut node = AstroTwoReplica::new(auth(0), layout, cfg);
    let sink = Sink::default();
    node.set_journal(Box::new(sink.clone()));

    // The gapped payment carries a certificate for a credit to client 5:
    // queued with it, and materialized when the cascade settles it.
    let credit = pay(13, 0, 5, 7);
    let context = credit_context(&[credit]);
    let cert = DependencyCertificate {
        bundle: vec![credit],
        proofs: [1, 2].map(|i| (ReplicaId(i), auth(i).sign(&context))).to_vec(),
    };
    let entries = BATCH
        .iter()
        .map(|&payment| {
            let deps = if payment == Y1 { vec![cert.clone()] } else { Vec::new() };
            DepPayment { payment, deps }
        })
        .collect();

    let mut out = ReplicaStep::empty();
    node.apply(INSTANCE, DepBatch { entries }, &mut out);

    assert_eq!(
        sink.records(),
        [
            settle(X0, false),
            WalRecord::Queued { payment: Y1, deps: vec![cert.to_wire_bytes()] },
            settle(Y0, false),
            WalRecord::Stuck { client: ClientId(9) },
            WalRecord::DepUsed { dep: credit },
            settle(Y1, false),
            WalRecord::Delivered { source: 1, tag: 0 },
            WalRecord::CreditOut { dest: ReplicaId(3), bundle: vec![X0, Y0, Y1] },
        ]
    );
    assert_eq!(out.settled, [X0, Y0, Y1], "first pass in batch order, then the cascade");
    assert_eq!(out.outbound.len(), 1, "one CREDIT to the beneficiary's representative");
    assert_eq!(node.pending_len(), 0, "certificate mode drops the underfunded payment");
    assert_eq!(node.stuck_clients().collect::<Vec<_>>(), [ClientId(9)]);
    assert_eq!(node.balance(ClientId(3)), Amount(100), "credits travel as CREDITs");
    assert_eq!(node.balance(ClientId(5)), Amount(87), "100 + 7 certified − 10 − 10");
}
