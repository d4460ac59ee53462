//! Auditability and recovery: the reasons Astro stores full xlogs rather
//! than mere balances (paper §II).
//!
//! ```sh
//! cargo run -p astro-examples --bin audit_trail
//! ```
//!
//! Builds a payment history and audits every exclusive log, then has a
//! replica that lost its state recover the same history from its group:
//! `f+1` peers serve their settled state, the replica certifies the
//! byte-identical copies and reconstructs exactly the same view of the
//! world — no consensus involved.

use astro_core::astro1::{Astro1Config, AstroOneReplica};
use astro_core::ledger::Ledger;
use astro_core::sync::CopyVotes;
use astro_core::testkit::PaymentCluster;
use astro_core::Replica;
use astro_types::wire::Wire;
use astro_types::{Amount, ClientId, Payment, ReplicaId, ShardLayout};

fn main() {
    // --- Part 1: audit trail -------------------------------------------
    let mut ledger = Ledger::new(Amount(500));
    let history = [
        Payment::new(1u64, 0u64, 2u64, 120u64),
        Payment::new(2u64, 0u64, 3u64, 40u64),
        Payment::new(1u64, 1u64, 3u64, 60u64),
        Payment::new(3u64, 0u64, 1u64, 10u64),
    ];
    for p in &history {
        assert_eq!(ledger.settle(p, true), astro_core::SettleOutcome::Applied);
    }
    println!("ledger after {} payments:", history.len());
    for c in 1..=3u64 {
        let client = ClientId(c);
        println!(
            "  {client}: balance {}, outgoing history {:?}",
            ledger.balance(client),
            ledger
                .xlog(client)
                .map(|x| x.iter().map(|p| p.to_string()).collect::<Vec<_>>())
                .unwrap_or_default(),
        );
    }
    assert!(ledger.audit(), "every xlog internally consistent");
    let spent: u64 = ledger.xlogs().map(|x| x.total_spent().0).sum();
    println!("total spent across all xlogs: ${spent}");

    // --- Part 2: a replica recovers the history from its peers ----------
    let layout = ShardLayout::single(4).expect("4 replicas");
    let cfg = Astro1Config { batch_size: 1, initial_balance: Amount(500) };
    let mut cluster = PaymentCluster::new(
        (0..4).map(|i| AstroOneReplica::new(ReplicaId(i), layout.clone(), cfg.clone())),
    );
    for p in history {
        let rep = layout.representative_of(p.spender);
        let step = cluster.node_mut(rep.0 as usize).submit(p).expect("submitted at the rep");
        cluster.submit_step(rep, step);
    }
    cluster.run_to_quiescence();

    // Replica 3 comes back with nothing: f+1 = 2 peers serve their state.
    let me = ReplicaId(3);
    let mut fresh = AstroOneReplica::new(me, layout.clone(), cfg);
    let mut heads = CopyVotes::new(fresh.group(), me);
    let mut blocks = CopyVotes::new(fresh.group(), me);
    for donor in [0, 1] {
        let (head, served) = cluster.node(donor).sync_chunks(me).expect("small state serves");
        heads.offer(ReplicaId(donor as u32), (), head.to_wire_bytes());
        for (client, block, data) in served {
            blocks.offer(ReplicaId(donor as u32), (client, block), data);
        }
    }
    let step = fresh.install_chunked(&mut heads, &mut blocks).expect("f+1 copies certify");
    println!("\nreplica r3 recovered {} settled payments from r0 and r1", step.settled.len());
    assert_eq!(step.settled.len(), history.len());
    for c in 1..=3u64 {
        assert_eq!(
            fresh.balance(ClientId(c)),
            ledger.balance(ClientId(c)),
            "transferred state must match"
        );
    }
    assert!(fresh.ledger().audit());
    println!("recovered replica reconstructed all balances and xlogs exactly — audit passes");
}
