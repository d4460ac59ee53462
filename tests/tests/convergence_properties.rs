//! Property-based integration tests: for *any* honest workload, the
//! consensusless systems and the totally-ordered baseline end in the same
//! state, and money is always conserved.

use astro_core::astro1::{Astro1Config, AstroOneReplica};
use astro_core::astro2::{Astro2Config, AstroTwoReplica, CreditMode, DepPolicy};
use astro_core::client::Client;
use astro_core::testkit::PaymentCluster;
use astro_core::Replica;
use astro_types::{Amount, ClientId, MacAuthenticator, Payment, ReplicaId, ShardLayout};
use proptest::prelude::*;

const N: usize = 4;
const CLIENTS: u64 = 5;
const GENESIS: u64 = 200;

/// Strategy: a sequence of (spender, beneficiary offset, amount) triples.
fn payments_strategy() -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    proptest::collection::vec((0..CLIENTS, 1..CLIENTS, 1u64..8), 1..40)
}

fn materialize(raw: &[(u64, u64, u64)]) -> Vec<Payment> {
    let mut clients: Vec<Client> = (0..CLIENTS).map(|i| Client::new(ClientId(i))).collect();
    raw.iter()
        .map(|&(s, off, x)| {
            let b = (s + off) % CLIENTS;
            clients[s as usize].pay(ClientId(b), Amount(x))
        })
        .collect()
}

fn run_astro1(payments: &[Payment]) -> Vec<u64> {
    let layout = ShardLayout::single(N).unwrap();
    let mut cluster = PaymentCluster::new((0..N).map(|i| {
        AstroOneReplica::new(
            ReplicaId(i as u32),
            layout.clone(),
            Astro1Config { batch_size: 2, initial_balance: Amount(GENESIS) },
        )
    }));
    for p in payments {
        let rep = layout.representative_of(p.spender);
        let step = cluster.node_mut(rep.0 as usize).submit(*p).unwrap();
        cluster.submit_step(rep, step);
    }
    for i in 0..N {
        let step = cluster.node_mut(i).flush();
        cluster.submit_step(ReplicaId(i as u32), step);
    }
    cluster.run_to_quiescence();
    (0..CLIENTS).map(|c| cluster.node(0).balance(ClientId(c)).0).collect()
}

fn run_astro2_direct(payments: &[Payment]) -> Vec<u64> {
    let layout = ShardLayout::single(N).unwrap();
    let mut cluster = PaymentCluster::new((0..N).map(|i| {
        AstroTwoReplica::new(
            MacAuthenticator::new(ReplicaId(i as u32), b"prop-conv".to_vec()),
            layout.clone(),
            Astro2Config {
                batch_size: 2,
                initial_balance: Amount(GENESIS),
                credit_mode: CreditMode::DirectIntraShard,
                dep_policy: DepPolicy::WhenNeeded,
            },
        )
    }));
    for p in payments {
        let rep = layout.representative_of(p.spender);
        let step = cluster.node_mut(rep.0 as usize).submit(*p).unwrap();
        cluster.submit_step(rep, step);
        for i in 0..N {
            let step = cluster.node_mut(i).flush();
            cluster.submit_step(ReplicaId(i as u32), step);
        }
        cluster.run_to_quiescence();
    }
    (0..CLIENTS).map(|c| cluster.node(0).balance(ClientId(c)).0).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Astro I conserves money on every workload, including overdraft
    /// attempts (which queue, never corrupt).
    #[test]
    fn astro1_conserves_money(raw in payments_strategy()) {
        let payments = materialize(&raw);
        let balances = run_astro1(&payments);
        prop_assert_eq!(balances.iter().sum::<u64>(), GENESIS * CLIENTS);
    }

    /// Astro I and Astro II (direct credits) agree on final balances for
    /// every workload where all payments eventually settle (amounts are
    /// small enough that queued payments unblock).
    #[test]
    fn astro1_and_astro2_agree(raw in payments_strategy()) {
        let payments = materialize(&raw);
        let b1 = run_astro1(&payments);
        let b2 = run_astro2_direct(&payments);
        prop_assert_eq!(b1, b2);
    }

    /// All replicas of Astro I hold identical balances at quiescence, for
    /// every workload.
    #[test]
    fn astro1_replicas_identical(raw in payments_strategy()) {
        let payments = materialize(&raw);
        let layout = ShardLayout::single(N).unwrap();
        let mut cluster = PaymentCluster::new((0..N).map(|i| {
            AstroOneReplica::new(
                ReplicaId(i as u32),
                layout.clone(),
                Astro1Config { batch_size: 3, initial_balance: Amount(GENESIS) },
            )
        }));
        for p in &payments {
            let rep = layout.representative_of(p.spender);
            let step = cluster.node_mut(rep.0 as usize).submit(*p).unwrap();
            cluster.submit_step(rep, step);
        }
        for i in 0..N {
            let step = cluster.node_mut(i).flush();
            cluster.submit_step(ReplicaId(i as u32), step);
        }
        cluster.run_to_quiescence();
        for i in 1..N {
            for c in 0..CLIENTS {
                prop_assert_eq!(
                    cluster.node(i).balance(ClientId(c)),
                    cluster.node(0).balance(ClientId(c)),
                );
            }
            prop_assert_eq!(
                cluster.node(i).ledger().total_settled(),
                cluster.node(0).ledger().total_settled(),
            );
        }
    }
}
