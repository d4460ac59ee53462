//! Workload generators: uniform random payments (§VI-C1 microbenchmarks)
//! and the Smallbank transaction family (§VI-C2, after BLOCKBENCH).

use crate::rng::Rng;
use astro_core::client::Client;
use astro_types::{Amount, ClientId, Payment};

/// A source of client payments for the simulator's closed-loop clients.
pub trait Workload {
    /// Number of simulated clients.
    fn num_clients(&self) -> usize;

    /// The spender identity of simulated client `idx` (used to locate its
    /// representative).
    fn client_id(&self, idx: usize) -> ClientId;

    /// Produces client `idx`'s next payment.
    fn next_payment(&mut self, idx: usize, rng: &mut Rng) -> Payment;
}

/// Uniform random payments: each request picks a random beneficiary and a
/// random small amount (paper §VI-B: "the beneficiary and amount fields
/// are random").
#[derive(Debug)]
pub struct UniformWorkload {
    clients: Vec<Client>,
    max_amount: u64,
}

impl UniformWorkload {
    /// Creates `n` clients with ids `0..n`.
    pub fn new(n: usize, max_amount: u64) -> Self {
        UniformWorkload {
            clients: (0..n as u64).map(|i| Client::new(ClientId(i))).collect(),
            max_amount: max_amount.max(1),
        }
    }
}

impl Workload for UniformWorkload {
    fn num_clients(&self) -> usize {
        self.clients.len()
    }

    fn client_id(&self, idx: usize) -> ClientId {
        self.clients[idx].id()
    }

    fn next_payment(&mut self, idx: usize, rng: &mut Rng) -> Payment {
        let n = self.clients.len() as u64;
        let me = self.clients[idx].id().0;
        let mut beneficiary = rng.below(n);
        if beneficiary == me && n > 1 {
            beneficiary = (beneficiary + 1) % n;
        }
        let amount = Amount(1 + rng.below(self.max_amount));
        self.clients[idx].pay(ClientId(beneficiary), amount)
    }
}

/// The Smallbank transaction family adapted to the payment setting
/// (paper §VI-C2 / BLOCKBENCH): every account owner holds two xlogs
/// (checking and savings) in the same shard; the mix below produces the
/// paper's 12.5 % cross-shard fraction.
///
/// Operations and their payment-layer mapping:
///
/// | Smallbank op      | mapping                           |
/// |-------------------|-----------------------------------|
/// | TransactSavings   | checking → savings (same owner)   |
/// | DepositChecking   | savings → checking (same owner)   |
/// | SendPayment       | checking → checking (other owner) |
/// | WriteCheck        | checking → checking (other owner) |
/// | Amalgamate        | savings → checking (same owner)   |
///
/// `GetBalance` is a read served locally by the representative and does not
/// enter the payment pipeline.
#[derive(Debug)]
pub struct SmallbankWorkload {
    /// Per-owner (checking, savings) sequence counters.
    owners: Vec<(Client, Client)>,
    num_shards: u64,
    /// Probability that SendPayment/WriteCheck pick a cross-shard
    /// counterparty, tuned so 12.5 % of ALL transactions are cross-shard.
    cross_shard_prob: f64,
    max_amount: u64,
}

impl SmallbankWorkload {
    /// Id of owner `k`'s checking xlog.
    ///
    /// Checking and savings ids are congruent modulo the shard count, so
    /// both xlogs of an owner land in the same shard under the modulo
    /// layout (the paper's "both xlogs of any client belong to the same
    /// shard").
    pub fn checking(owner: u64, num_shards: u64) -> ClientId {
        let _ = num_shards;
        ClientId(owner)
    }

    /// Id of owner `k`'s savings xlog.
    pub fn savings(owner: u64, num_shards: u64) -> ClientId {
        ClientId(owner + num_shards * 1_000_000)
    }

    /// Creates a Smallbank workload over `owners` account owners spread
    /// across `num_shards` shards.
    pub fn new(owners: usize, num_shards: usize, max_amount: u64) -> Self {
        let num_shards = num_shards.max(1) as u64;
        SmallbankWorkload {
            owners: (0..owners as u64)
                .map(|k| {
                    (
                        Client::new(Self::checking(k, num_shards)),
                        Client::new(Self::savings(k, num_shards)),
                    )
                })
                .collect(),
            num_shards,
            // 2 of 5 ops pick counterparties; 2/5 · p = 0.125 ⇒ p = 0.3125.
            cross_shard_prob: 0.3125,
            max_amount: max_amount.max(1),
        }
    }

    fn pick_counterparty(&self, me: usize, cross_shard: bool, rng: &mut Rng) -> u64 {
        let owners = self.owners.len() as u64;
        let my_shard = (me as u64) % self.num_shards;
        for _ in 0..64 {
            let other = rng.below(owners);
            if other == me as u64 {
                continue;
            }
            let other_shard = other % self.num_shards;
            if (other_shard == my_shard) != cross_shard {
                return other;
            }
        }
        (me as u64 + 1) % owners
    }
}

impl Workload for SmallbankWorkload {
    fn num_clients(&self) -> usize {
        self.owners.len()
    }

    fn client_id(&self, idx: usize) -> ClientId {
        self.owners[idx].0.id()
    }

    fn next_payment(&mut self, idx: usize, rng: &mut Rng) -> Payment {
        let amount = Amount(1 + rng.below(self.max_amount));
        let op = rng.below(5);
        let shards = self.num_shards;
        match op {
            // TransactSavings: checking → savings.
            0 => {
                let savings = self.owners[idx].1.id();
                self.owners[idx].0.pay(savings, amount)
            }
            // DepositChecking / Amalgamate: savings → checking.
            1 | 4 => {
                let checking = self.owners[idx].0.id();
                self.owners[idx].1.pay(checking, amount)
            }
            // SendPayment / WriteCheck: checking → other owner's checking.
            _ => {
                let cross = shards > 1 && rng.chance(self.cross_shard_prob);
                let other = self.pick_counterparty(idx, cross, rng);
                let beneficiary = Self::checking(other, shards);
                self.owners[idx].0.pay(beneficiary, amount)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astro_types::ShardLayout;

    #[test]
    fn uniform_never_pays_self() {
        let mut w = UniformWorkload::new(5, 10);
        let mut rng = Rng::seeded(1);
        for _ in 0..200 {
            for idx in 0..5 {
                let p = w.next_payment(idx, &mut rng);
                assert_ne!(p.spender, p.beneficiary);
                assert!(p.amount.0 >= 1 && p.amount.0 <= 10);
            }
        }
    }

    #[test]
    fn uniform_sequences_are_contiguous() {
        let mut w = UniformWorkload::new(3, 5);
        let mut rng = Rng::seeded(2);
        for expected in 0..10u64 {
            let p = w.next_payment(0, &mut rng);
            assert_eq!(p.seq.0, expected);
        }
    }

    #[test]
    fn smallbank_xlogs_share_a_shard() {
        let shards = 4u64;
        let layout = ShardLayout::uniform(shards as usize, 4).unwrap();
        for owner in 0..100u64 {
            let c = SmallbankWorkload::checking(owner, shards);
            let s = SmallbankWorkload::savings(owner, shards);
            assert_eq!(
                layout.shard_of_client(c),
                layout.shard_of_client(s),
                "owner {owner}'s xlogs must share a shard"
            );
        }
    }

    #[test]
    fn smallbank_cross_shard_fraction_near_one_eighth() {
        let layout = ShardLayout::uniform(4, 4).unwrap();
        let mut w = SmallbankWorkload::new(400, 4, 10);
        let mut rng = Rng::seeded(3);
        let mut cross = 0usize;
        let total = 20_000;
        for i in 0..total {
            let p = w.next_payment(i % 400, &mut rng);
            if layout.shard_of_client(p.spender) != layout.shard_of_client(p.beneficiary) {
                cross += 1;
            }
        }
        let fraction = cross as f64 / total as f64;
        assert!(
            (fraction - 0.125).abs() < 0.02,
            "cross-shard fraction {fraction} too far from 12.5%"
        );
    }

    #[test]
    fn smallbank_single_shard_never_crosses() {
        let mut w = SmallbankWorkload::new(50, 1, 10);
        let mut rng = Rng::seeded(4);
        for i in 0..500 {
            let _ = w.next_payment(i % 50, &mut rng);
        }
        // No panic and all sequence counters advanced.
        assert!(w.owners.iter().any(|(c, _)| c.next_seq().0 > 0));
    }
}
