//! Sharded Astro II running the Smallbank application (paper §V, §VI-C2).
//!
//! ```sh
//! cargo run --release -p astro-examples --bin sharded_smallbank
//! ```
//!
//! Two shards of four replicas each process the Smallbank transaction mix;
//! cross-shard payments complete with a single CREDIT message step — no
//! two-phase commit — and the beneficiary's representative turns `f+1`
//! CREDITs into a spendable dependency certificate.

use astro_core::astro2::{Astro2Config, AstroTwoReplica, CreditMode};
use astro_core::testkit::PaymentCluster;
use astro_core::Replica;
use astro_sim::rng::Rng;
use astro_sim::workload::{SmallbankWorkload, Workload};
use astro_types::{Amount, ClientId, MacAuthenticator, ReplicaId, ShardId, ShardLayout};

const SHARDS: usize = 2;
const PER_SHARD: usize = 4;
const OWNERS: usize = 40;
const TRANSACTIONS: usize = 400;

fn main() {
    let layout = ShardLayout::uniform(SHARDS, PER_SHARD).expect("valid layout");
    let config = Astro2Config {
        batch_size: 4,
        initial_balance: Amount(10_000),
        credit_mode: CreditMode::Certificates,
        ..Astro2Config::default()
    };
    let mut cluster = PaymentCluster::new((0..SHARDS * PER_SHARD).map(|i| {
        AstroTwoReplica::new(
            MacAuthenticator::new(ReplicaId(i as u32), b"smallbank".to_vec()),
            layout.clone(),
            config.clone(),
        )
    }));

    let mut workload = SmallbankWorkload::new(OWNERS, SHARDS, 20);
    let mut rng = Rng::seeded(2026);
    let mut cross_shard = 0usize;

    for i in 0..TRANSACTIONS {
        let payment = workload.next_payment(i % OWNERS, &mut rng);
        if layout.shard_of_client(payment.spender) != layout.shard_of_client(payment.beneficiary) {
            cross_shard += 1;
        }
        let rep = layout.representative_of(payment.spender);
        let step =
            cluster.node_mut(rep.0 as usize).submit(payment).expect("representative accepts");
        cluster.submit_step(rep, step);
        // Flush every few submissions so partially filled batches move.
        if i % 8 == 7 {
            for r in 0..SHARDS * PER_SHARD {
                let step = cluster.node_mut(r).flush();
                cluster.submit_step(ReplicaId(r as u32), step);
            }
            cluster.run_to_quiescence();
        }
    }
    for r in 0..SHARDS * PER_SHARD {
        let step = cluster.node_mut(r).flush();
        cluster.submit_step(ReplicaId(r as u32), step);
    }
    cluster.run_to_quiescence();

    println!("submitted {TRANSACTIONS} smallbank transactions over {SHARDS} shards");
    println!(
        "cross-shard: {cross_shard} ({:.1} %)",
        100.0 * cross_shard as f64 / TRANSACTIONS as f64
    );
    for shard in 0..SHARDS as u16 {
        let member = layout.shard(ShardId(shard)).replicas[0];
        let node = cluster.node(member.0 as usize);
        println!(
            "shard {shard}: {} payments settled at replica {member}",
            node.ledger().total_settled()
        );
    }

    // Replicas within a shard agree on every balance they track.
    for shard in 0..SHARDS as u16 {
        let members = &layout.shard(ShardId(shard)).replicas;
        let reference = cluster.node(members[0].0 as usize);
        for member in &members[1..] {
            let node = cluster.node(member.0 as usize);
            for owner in 0..OWNERS as u64 {
                for client in [
                    SmallbankWorkload::checking(owner, SHARDS as u64),
                    SmallbankWorkload::savings(owner, SHARDS as u64),
                ] {
                    assert_eq!(
                        node.balance(client),
                        reference.balance(client),
                        "shard {shard} diverged on {client}"
                    );
                }
            }
        }
    }
    println!("ok: every shard is internally consistent");

    // Show a cross-shard certificate in action.
    let holder =
        (0..OWNERS as u64).map(|o| SmallbankWorkload::checking(o, SHARDS as u64)).find(|c| {
            let rep = layout.representative_of(*c);
            cluster.node(rep.0 as usize).held_certificates(*c) > 0
        });
    match holder {
        Some(client) => {
            let rep = layout.representative_of(client);
            let node = cluster.node(rep.0 as usize);
            println!(
                "{client} holds {} dependency certificate(s); available balance {} (settled {})",
                node.held_certificates(client),
                node.available_balance(client),
                node.balance(client),
            );
        }
        None => println!("(no outstanding certificates — all credits already spent)"),
    }
    let _ = ClientId(0);
}
