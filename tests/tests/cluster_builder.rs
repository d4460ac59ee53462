//! The cluster builder's options are orthogonal: every combination of
//! protocol × transport × storage × registry builds through the one
//! `ClusterBuilder`, settles the same payment stream to byte-identical
//! final balances, and — wherever the transport can re-establish a killed
//! replica's endpoint — kills replica 3 mid-stream, restarts it, and
//! converges.

use astro_core::astro1::Astro1Config;
use astro_core::astro2::{Astro2Config, CreditMode};
use astro_core::Replica;
use astro_obs::Registry;
use astro_runtime::{AstroOneCluster, AstroTwoCluster, Cluster, ClusterBuilder};
use astro_store::StoreConfig;
use astro_types::{Amount, ClientId, Payment};
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::{Duration, Instant};

const FLUSH: Duration = Duration::from_millis(1);
const INITIAL: u64 = 1_000;
const VICTIM: usize = 3;

/// Four clients paying in a ring, `seqs` of each; the spenders span every
/// representative, the victim's included.
fn wave(seqs: Range<u64>) -> Vec<Payment> {
    seqs.flat_map(|seq| {
        [(1u64, 2u64, 3u64), (2, 3, 2), (3, 4, 5), (4, 1, 1)]
            .map(|(from, to, amount)| Payment::new(from, seq, to, amount))
    })
    .collect()
}

/// Final balances after `payments` (every client is funded throughout).
fn expected(payments: &[Payment]) -> BTreeMap<ClientId, Amount> {
    let mut balances: BTreeMap<ClientId, Amount> =
        (1..=4).map(|c| (ClientId(c), Amount(INITIAL))).collect();
    for p in payments {
        balances.get_mut(&p.spender).expect("ring client").0 -= p.amount.0;
        balances.get_mut(&p.beneficiary).expect("ring client").0 += p.amount.0;
    }
    balances
}

/// Polls until every listed replica's ledger shows `want`.
fn wait_balances<R: Replica + Send + 'static>(
    cluster: &Cluster<R>,
    replicas: &[usize],
    want: &BTreeMap<ClientId, Amount>,
) {
    let deadline = Instant::now() + Duration::from_secs(30);
    for &i in replicas {
        for (client, amount) in want {
            while cluster.probe(i, *client).ok().map(|p| p.balance) != Some(*amount) {
                assert!(Instant::now() < deadline, "replica {i} never reached {client}: {amount}");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

struct Case {
    tcp: bool,
    durable: bool,
    observed: bool,
}

impl Case {
    /// The deployment matrix: durable storage is exercised over TCP only.
    fn all() -> Vec<Case> {
        let mut cases = Vec::new();
        for (tcp, durable) in [(false, false), (true, false), (true, true)] {
            for observed in [false, true] {
                cases.push(Case { tcp, durable, observed });
            }
        }
        cases
    }

    fn name(&self, protocol: &str) -> String {
        format!(
            "{protocol}-{}-{}-{}",
            if self.tcp { "tcp" } else { "inproc" },
            if self.durable { "durable" } else { "memory" },
            if self.observed { "observed" } else { "unobserved" }
        )
    }

    /// Builds the case's cluster from `builder`, settles both waves — the
    /// second with the victim killed, restarting it afterwards, where the
    /// transport allows — and returns the canonical bytes of the final
    /// balances every replica agreed on.
    fn run<R: Replica + Send + 'static>(
        &self,
        name: &str,
        mut builder: ClusterBuilder<R>,
    ) -> Vec<u8> {
        let registry = Registry::new();
        if self.tcp {
            builder = builder.tcp();
        }
        if self.durable {
            let dir =
                std::env::temp_dir().join(format!("astro-builder-{}-{name}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            builder = builder.durable(dir, StoreConfig::default());
        }
        if self.observed {
            builder = builder.registry(registry.clone());
        }
        let mut cluster = builder.start().unwrap_or_else(|e| panic!("{name}: {e}"));
        // The second wave settles while the victim is down (so none of its
        // clients pay in it), and the restarted victim must learn it by
        // catch-up alone: once it is back, nothing else is broadcast — a
        // restarted replica's links come back one peer redial at a time,
        // and broadcast traffic lost meanwhile is never re-sent.
        let layout = cluster.layout().clone();
        let (first, mut second) = (wave(0..8), wave(8..16));
        second.retain(|p| layout.representative_of(p.spender).0 as usize != VICTIM);
        let all: Vec<Payment> = first.iter().chain(&second).copied().collect();
        let want = expected(&all);

        for p in &first {
            cluster.submit(*p).unwrap();
        }
        wait_balances(&cluster, &[0, 1, 2, 3], &expected(&first));
        if self.tcp {
            cluster.kill_replica(VICTIM).unwrap();
        }
        for p in &second {
            cluster.submit(*p).unwrap();
        }
        if self.tcp {
            wait_balances(&cluster, &[0, 1, 2], &want);
            cluster.restart_replica(VICTIM).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        wait_balances(&cluster, &[0, 1, 2, 3], &want);

        let finals = cluster.shutdown();
        let mut canonical: Vec<Vec<u8>> = finals
            .iter()
            .map(|(balances, _)| {
                let sorted: BTreeMap<ClientId, Amount> = balances.clone().into_iter().collect();
                sorted
                    .iter()
                    .flat_map(|(c, a)| [c.0.to_le_bytes(), a.0.to_le_bytes()])
                    .flatten()
                    .collect()
            })
            .collect();
        for (i, (balances, settled)) in finals.iter().enumerate() {
            assert_eq!(*settled, all.len(), "{name}: replica {i} settle count");
            assert_eq!(balances.len(), want.len(), "{name}: replica {i} clients");
            assert_eq!(canonical[i], canonical[0], "{name}: replica {i} diverged");
        }
        if self.observed {
            let settles = registry.snapshot().counter("core.r0.settles").unwrap_or(0);
            assert!(settles >= all.len() as u64, "{name}: the registry saw {settles} settles");
        }
        canonical.swap_remove(0)
    }
}

#[test]
fn every_builder_option_combination_settles_identically() {
    let a1 = Astro1Config { batch_size: 4, initial_balance: Amount(INITIAL) };
    // Direct intra-shard credits, so ledger balances mirror the settled
    // payments (certificate mode defers them until the beneficiary spends).
    let a2 = Astro2Config {
        batch_size: 4,
        initial_balance: Amount(INITIAL),
        credit_mode: CreditMode::DirectIntraShard,
        ..Astro2Config::default()
    };
    let mut astro1 = Vec::new();
    let mut astro2 = Vec::new();
    for case in Case::all() {
        let name = case.name("astro1");
        astro1.push(case.run(&name, AstroOneCluster::builder(4, a1.clone(), FLUSH)));
        let name = case.name("astro2");
        astro2.push(case.run(&name, AstroTwoCluster::builder(4, a2.clone(), FLUSH)));
    }
    for outcomes in [&astro1, &astro2] {
        assert!(outcomes.windows(2).all(|w| w[0] == w[1]), "cases of one protocol diverged");
    }
    assert_eq!(astro1, astro2, "both protocols settle the stream to the same balances");
}
