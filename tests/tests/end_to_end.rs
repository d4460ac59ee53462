//! End-to-end integration: the same workload through all three systems
//! must produce identical final balances — consensusless payments are
//! functionally equivalent to totally-ordered payments when clients are
//! honest (the paper's core claim that total order is unnecessary).

use astro_brb::Dest;
use astro_consensus::pbft::{PbftConfig, PbftMsg, PbftReplica, PbftStep};
use astro_core::astro1::{Astro1Config, AstroOneReplica};
use astro_core::astro2::{Astro2Config, AstroTwoReplica, CreditMode};
use astro_core::client::Client;
use astro_core::testkit::PaymentCluster;
use astro_core::Replica;
use astro_sim::rng::Rng;
use astro_types::{Amount, ClientId, Group, MacAuthenticator, Payment, ReplicaId, ShardLayout};

const N: usize = 4;
const CLIENTS: u64 = 6;
const GENESIS: Amount = Amount(1_000);

/// A deterministic random workload: every client has funds for all its
/// payments (amounts are small), so ordering differences cannot matter.
fn workload(seed: u64, count: usize) -> Vec<Payment> {
    let mut rng = Rng::seeded(seed);
    let mut clients: Vec<Client> = (0..CLIENTS).map(|i| Client::new(ClientId(i))).collect();
    (0..count)
        .map(|_| {
            let s = rng.below(CLIENTS) as usize;
            let mut b = rng.below(CLIENTS);
            if b == s as u64 {
                b = (b + 1) % CLIENTS;
            }
            clients[s].pay(ClientId(b), Amount(1 + rng.below(4)))
        })
        .collect()
}

fn astro1_final_balances(payments: &[Payment]) -> Vec<Amount> {
    let layout = ShardLayout::single(N).unwrap();
    let mut cluster = PaymentCluster::new((0..N).map(|i| {
        AstroOneReplica::new(
            ReplicaId(i as u32),
            layout.clone(),
            Astro1Config { batch_size: 3, initial_balance: GENESIS },
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
    // All replicas agree; read from replica 0.
    for i in 1..N {
        for c in 0..CLIENTS {
            assert_eq!(
                cluster.node(i).balance(ClientId(c)),
                cluster.node(0).balance(ClientId(c)),
                "astro1 replica {i} diverged"
            );
        }
    }
    (0..CLIENTS).map(|c| cluster.node(0).balance(ClientId(c))).collect()
}

fn astro2_final_balances(payments: &[Payment], mode: CreditMode) -> Vec<Amount> {
    let layout = ShardLayout::single(N).unwrap();
    let mut cluster = PaymentCluster::new((0..N).map(|i| {
        AstroTwoReplica::new(
            MacAuthenticator::new(ReplicaId(i as u32), b"e2e".to_vec()),
            layout.clone(),
            Astro2Config {
                batch_size: 3,
                initial_balance: GENESIS,
                credit_mode: mode,
                ..Astro2Config::default()
            },
        )
    }));
    for p in payments {
        let rep = layout.representative_of(p.spender);
        let step = cluster.node_mut(rep.0 as usize).submit(*p).unwrap();
        cluster.submit_step(rep, step);
        // Flush aggressively so queued sequence gaps fill in order.
        for i in 0..N {
            let step = cluster.node_mut(i).flush();
            cluster.submit_step(ReplicaId(i as u32), step);
        }
        cluster.run_to_quiescence();
    }
    for i in 1..N {
        for c in 0..CLIENTS {
            assert_eq!(
                cluster.node(i).balance(ClientId(c)),
                cluster.node(0).balance(ClientId(c)),
                "astro2 replica {i} diverged"
            );
        }
    }
    // In certificate mode the *spendable* truth for a client is settled
    // balance plus certified incoming credits at its representative.
    (0..CLIENTS)
        .map(|c| {
            let rep = layout.representative_of(ClientId(c));
            cluster.node(rep.0 as usize).available_balance(ClientId(c))
        })
        .collect()
}

fn consensus_final_balances(payments: &[Payment]) -> Vec<Amount> {
    let group = Group::of_size(N).unwrap();
    let mut replicas: Vec<PbftReplica> = (0..N as u32)
        .map(|i| {
            PbftReplica::new(
                ReplicaId(i),
                group.clone(),
                PbftConfig { batch_size: 3, initial_balance: GENESIS, ..PbftConfig::default() },
            )
        })
        .collect();
    let mut queue: std::collections::VecDeque<(ReplicaId, ReplicaId, PbftMsg)> = Default::default();
    let mut now = 0u64;
    let push_step =
        |from: ReplicaId,
         step: PbftStep,
         queue: &mut std::collections::VecDeque<(ReplicaId, ReplicaId, PbftMsg)>| {
            for env in step.outbound {
                match env.to {
                    Dest::All => {
                        for i in 0..N as u32 {
                            queue.push_back((from, ReplicaId(i), env.msg.clone()));
                        }
                    }
                    Dest::One(to) => queue.push_back((from, to, env.msg)),
                }
            }
        };
    for p in payments {
        now += 1_000_000;
        let step = replicas[0].submit(*p, now);
        push_step(ReplicaId(0), step, &mut queue);
        while let Some((from, to, msg)) = queue.pop_front() {
            let step = replicas[to.0 as usize].handle(from, msg, now);
            push_step(to, step, &mut queue);
        }
        // Trigger batch timers.
        now += 100_000_000;
        for (i, replica) in replicas.iter_mut().enumerate() {
            let step = replica.on_tick(now);
            push_step(ReplicaId(i as u32), step, &mut queue);
        }
        while let Some((from, to, msg)) = queue.pop_front() {
            let step = replicas[to.0 as usize].handle(from, msg, now);
            push_step(to, step, &mut queue);
        }
    }
    (0..CLIENTS).map(|c| replicas[0].balance(ClientId(c))).collect()
}

#[test]
fn all_three_systems_agree_on_final_balances() {
    let payments = workload(11, 60);
    let a1 = astro1_final_balances(&payments);
    let a2 = astro2_final_balances(&payments, CreditMode::Certificates);
    let a2d = astro2_final_balances(&payments, CreditMode::DirectIntraShard);
    let cons = consensus_final_balances(&payments);
    assert_eq!(a1, cons, "astro1 vs consensus");
    assert_eq!(a1, a2d, "astro1 vs astro2 (direct credits)");
    assert_eq!(a1, a2, "astro1 vs astro2 (certificates, spendable balances)");
}

#[test]
fn money_is_conserved_in_every_system() {
    let payments = workload(23, 80);
    let expected_total = Amount(GENESIS.0 * CLIENTS);
    for balances in [
        astro1_final_balances(&payments),
        astro2_final_balances(&payments, CreditMode::DirectIntraShard),
        consensus_final_balances(&payments),
    ] {
        let total: u64 = balances.iter().map(|a| a.0).sum();
        assert_eq!(Amount(total), expected_total);
    }
}

#[test]
fn different_seeds_produce_different_but_consistent_histories() {
    for seed in [1u64, 2, 3] {
        let payments = workload(seed, 40);
        let a1 = astro1_final_balances(&payments);
        let cons = consensus_final_balances(&payments);
        assert_eq!(a1, cons, "seed {seed}");
    }
}
