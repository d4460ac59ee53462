//! Quickstart: a four-replica Astro I system settling payments.
//!
//! Run with:
//!
//! ```sh
//! cargo run -p astro-examples --bin quickstart
//! ```
//!
//! Demonstrates the core loop of the paper's §III: a client assigns
//! sequence numbers to her payments (Listing 1), her representative
//! broadcasts them (Bracha BRB), every replica approves and settles
//! (Listings 2–4), and all replicas converge to the same balances.

use astro_core::astro1::{Astro1Config, AstroOneReplica};
use astro_core::client::Client;
use astro_core::testkit::PaymentCluster;
use astro_core::Replica;
use astro_types::{Amount, ClientId, Payment, ReplicaId, ShardLayout};

fn main() {
    // A single-shard system of four replicas (N = 3f + 1, f = 1).
    let layout = ShardLayout::single(4).expect("4 >= 4");
    let config = Astro1Config { batch_size: 1, initial_balance: Amount(100) };
    let mut cluster = PaymentCluster::new(
        (0..4).map(|i| AstroOneReplica::new(ReplicaId(i), layout.clone(), config.clone())),
    );

    // Alice (client 1) pays Bob (client 2), then Carol (client 3).
    let mut alice = Client::new(ClientId(1));
    let payments = [alice.pay(ClientId(2), Amount(30)), alice.pay(ClientId(3), Amount(25))];
    for payment in payments {
        submit(&mut cluster, &layout, payment);
    }
    cluster.run_to_quiescence();

    println!("settled at replica 0:");
    for p in cluster.settled(0) {
        println!("  {p}");
    }
    for i in 0..4 {
        println!(
            "replica {i}: alice={} bob={} carol={}",
            cluster.node(i).balance(ClientId(1)),
            cluster.node(i).balance(ClientId(2)),
            cluster.node(i).balance(ClientId(3)),
        );
    }

    // Alice's exclusive log is a complete, ordered audit trail.
    let xlog = cluster.node(0).ledger().xlog(ClientId(1)).expect("alice has history");
    println!("alice's xlog: {} entries, {} spent", xlog.len(), xlog.total_spent());
    assert_eq!(cluster.node(0).balance(ClientId(1)), Amount(45));
    println!("ok: all replicas converged");
}

fn submit(cluster: &mut PaymentCluster<AstroOneReplica>, layout: &ShardLayout, p: Payment) {
    let rep = layout.representative_of(p.spender);
    let step = cluster.node_mut(rep.0 as usize).submit(p).expect("submitted at the representative");
    cluster.submit_step(rep, step);
}
