//! [`Replica::needs_tick`]: a replica needs its flush timer exactly while
//! it holds work that only the timer moves, so a driver can arm the timer
//! on demand and leave an idle replica asleep.

use astro_core::astro2::{Astro2Config, AstroTwoReplica, CreditMode};
use astro_core::testkit::PaymentCluster;
use astro_core::Replica;
use astro_types::{Amount, MacAuthenticator, Payment, ReplicaId, ShardLayout};

type Node = AstroTwoReplica<MacAuthenticator>;

/// One flush tick on every replica, its output routed to quiescence.
fn tick(c: &mut PaymentCluster<Node>) {
    for i in 0..c.len() {
        let step = c.node_mut(i).flush();
        c.submit_step(ReplicaId(i as u32), step);
    }
    c.run_to_quiescence();
}

#[test]
fn astro2_needs_a_tick_until_every_credit_is_acked() {
    let layout = ShardLayout::single(4).unwrap();
    let cfg = Astro2Config {
        batch_size: 2,
        initial_balance: Amount(100),
        credit_mode: CreditMode::Certificates,
        ..Astro2Config::default()
    };
    let mut c = PaymentCluster::new((0..4).map(|i| {
        let auth = MacAuthenticator::new(ReplicaId(i), b"astro2".to_vec());
        AstroTwoReplica::new(auth, layout.clone(), cfg.clone())
    }));
    // Client 0 (represented by replica 0) pays client 1 (replica 1).
    let step = c.node_mut(0).submit(Payment::new(0u64, 0u64, 1u64, 30u64)).unwrap();
    c.submit_step(ReplicaId(0), step);
    assert_eq!(c.node(0).batched(), 1);
    assert!(c.node(0).needs_tick(), "a batched payment waits for the timer");
    // One tick broadcasts the batch and it settles everywhere. Replica 1
    // now owes the acks for the CREDITs the other three hold unacked.
    tick(&mut c);
    for i in 0..4 {
        let node = c.node(i);
        let work = (node.batched(), node.pending_acks(), node.outbox_depth());
        assert_eq!(work, if i == 1 { (0, 3, 0) } else { (0, 0, 1) }, "replica {i}");
        assert!(node.needs_tick(), "replica {i}: an owed ack or an unacked CREDIT needs the timer");
    }
    // The next tick sends the acks; every outbox drains.
    tick(&mut c);
    for i in 0..4 {
        assert!(!c.node(i).needs_tick(), "replica {i}: flushed and acked, nothing left to do");
    }
}
