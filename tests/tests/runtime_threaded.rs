//! Integration of the threaded runtime: real concurrency, real timers,
//! same state machines — results must match the deterministic testkit.

use astro_core::astro1::{Astro1Config, AstroOneReplica};
use astro_core::testkit::PaymentCluster;
use astro_core::Replica;
use astro_runtime::AstroOneCluster;
use astro_types::{Amount, ClientId, Payment, ReplicaId, SeqNo, ShardLayout};
use std::time::Duration;

fn workload() -> Vec<Payment> {
    // Three clients, interleaved payment streams, some chained spending.
    let mut out = Vec::new();
    for seq in 0..15u64 {
        out.push(Payment::new(1u64, seq, 2u64, 3u64));
        out.push(Payment::new(2u64, seq, 3u64, 2u64));
        out.push(Payment::new(3u64, seq, 1u64, 1u64));
    }
    out
}

fn testkit_balances(payments: &[Payment]) -> Vec<Amount> {
    let layout = ShardLayout::single(4).unwrap();
    let mut cluster = PaymentCluster::new((0..4).map(|i| {
        AstroOneReplica::new(
            ReplicaId(i as u32),
            layout.clone(),
            Astro1Config { batch_size: 4, initial_balance: Amount(500) },
        )
    }));
    for p in payments {
        let rep = layout.representative_of(p.spender);
        let step = cluster.node_mut(rep.0 as usize).submit(*p).unwrap();
        cluster.submit_step(rep, step);
    }
    for i in 0..4 {
        let step = cluster.node_mut(i).flush();
        cluster.submit_step(ReplicaId(i as u32), step);
    }
    cluster.run_to_quiescence();
    (1..=3u64).map(|c| cluster.node(0).balance(ClientId(c))).collect()
}

#[test]
fn threaded_runtime_matches_deterministic_testkit() {
    let payments = workload();
    let expected = testkit_balances(&payments);

    let cluster = AstroOneCluster::start(
        4,
        Astro1Config { batch_size: 4, initial_balance: Amount(500) },
        Duration::from_millis(1),
    )
    .expect("4 replicas is a valid cluster");
    for p in &payments {
        cluster.submit(*p).unwrap();
    }
    assert!(cluster.wait_settled(payments.len(), Duration::from_secs(20)), "all payments settle");
    let finals = cluster.shutdown();
    for (balances, count) in &finals {
        assert_eq!(*count, payments.len());
        for (i, c) in (1..=3u64).enumerate() {
            assert_eq!(balances[&ClientId(c)], expected[i], "client {c}");
        }
    }
}

#[test]
fn threaded_runtime_is_deterministic_in_outcome_across_runs() {
    // Thread scheduling varies run to run; final state must not.
    let payments = workload();
    let mut outcomes = Vec::new();
    for _ in 0..3 {
        let cluster = AstroOneCluster::start(
            4,
            Astro1Config { batch_size: 8, initial_balance: Amount(500) },
            Duration::from_millis(1),
        )
        .expect("4 replicas is a valid cluster");
        for p in &payments {
            cluster.submit(*p).unwrap();
        }
        assert!(cluster.wait_settled(payments.len(), Duration::from_secs(20)));
        let finals = cluster.shutdown();
        let balances: Vec<Amount> = (1..=3u64).map(|c| finals[0].0[&ClientId(c)]).collect();
        outcomes.push(balances);
    }
    assert_eq!(outcomes[0], outcomes[1]);
    assert_eq!(outcomes[1], outcomes[2]);
}

#[test]
fn threaded_runtime_handles_out_of_order_submission() {
    // Submit a client's later payments before earlier ones; the approval
    // queue must reorder them.
    let cluster = AstroOneCluster::start(
        4,
        Astro1Config { batch_size: 2, initial_balance: Amount(100) },
        Duration::from_millis(1),
    )
    .expect("4 replicas is a valid cluster");
    // seq 2, 1, 0 — deliberately reversed.
    for seq in [2u64, 1, 0] {
        cluster.submit(Payment::new(5u64, seq, 6u64, 10u64)).unwrap();
    }
    assert!(cluster.wait_settled(3, Duration::from_secs(20)));
    // An xlog only ever appends its next sequence number, so three
    // settled payments of client 5 are seqs 0, 1, 2 in that order.
    for i in 0..4 {
        let probe = cluster.probe(i, ClientId(5)).unwrap();
        assert_eq!(probe.next_seq, SeqNo(3), "replica {i}: settlement must follow xlog order");
    }
    let finals = cluster.shutdown();
    assert_eq!(finals[0].0[&ClientId(5)], Amount(70));
    assert_eq!(finals[0].0[&ClientId(6)], Amount(130));
}
