//! Crash-restart end-to-end tests over real TCP: a replica dies without
//! warning, comes back from `snapshot + WAL`, rejoins the mesh through
//! the redial path, and the cluster converges to byte-identical final
//! balances — the `astro-store` acceptance scenario.

use astro_core::astro1::Astro1Config;
use astro_core::astro2::{Astro2Config, CreditMode};
use astro_runtime::{demo_keychains, AstroOneCluster, AstroTwoCluster};
use astro_store::StoreConfig;
use astro_types::{Amount, ClientId, Keychain, Payment};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Duration;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("astro-durability-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Aggressive knobs: small group-commit window, snapshot mid-run, so one
/// test exercises WAL append, fsync policy, snapshot install + WAL
/// truncation, *and* recovery from snapshot + WAL suffix.
fn store_cfg() -> StoreConfig {
    StoreConfig {
        sync_every_records: 8,
        sync_interval: Duration::from_millis(2),
        snapshot_every_settled: 12,
        sync_on_broadcast: true,
    }
}

/// Canonical bytes of a balance map, for the byte-identical comparison.
fn balance_bytes(balances: &HashMap<ClientId, Amount>) -> Vec<u8> {
    let mut entries: Vec<(&ClientId, &Amount)> = balances.iter().collect();
    entries.sort_unstable_by_key(|(c, _)| **c);
    let mut bytes = Vec::new();
    for (c, a) in entries {
        bytes.extend_from_slice(&c.0.to_le_bytes());
        bytes.extend_from_slice(&a.0.to_le_bytes());
    }
    bytes
}

#[test]
fn astro1_replica_killed_and_restarted_from_disk_converges_over_tcp() {
    let dir = tmp_dir("astro1-kill-restart");
    let cfg = Astro1Config { batch_size: 4, initial_balance: Amount(1_000) };
    let mut cluster = AstroOneCluster::builder(4, cfg, Duration::from_millis(1))
        .tcp_keychains(demo_keychains(4))
        .durable(&dir, store_cfg())
        .start()
        .expect("durable cluster starts");

    // Phase 1: settle a first wave everywhere.
    for seq in 0..20u64 {
        cluster.submit(Payment::new(1u64, seq, 2u64, 10u64)).unwrap();
    }
    assert!(cluster.wait_settled(20, Duration::from_secs(20)));

    // Kill a replica that represents neither spender — unclean, no final
    // flush (after settle, before the ack drain quiesces).
    let rep1 = cluster.layout().representative_of(ClientId(1)).0 as usize;
    let rep3 = cluster.layout().representative_of(ClientId(3)).0 as usize;
    let victim = (0..4).find(|i| *i != rep1 && *i != rep3).expect("4 replicas, 2 reps");
    cluster.kill_replica(victim).unwrap();

    // Restart it from snapshot + WAL; it rebinds its port and the
    // surviving replicas' redial path reattaches it.
    cluster.restart_replica(victim).expect("restart from disk");

    // Phase 2: a second wave must settle at *all four* replicas,
    // restarted one included.
    for seq in 0..20u64 {
        cluster.submit(Payment::new(3u64, seq, 4u64, 5u64)).unwrap();
    }
    assert!(
        cluster.wait_settled(40, Duration::from_secs(30)),
        "every replica, restarted included, reaches 40 settlements"
    );

    let finals = cluster.shutdown();
    let reference = balance_bytes(&finals[0].0);
    for (i, (balances, count)) in finals.iter().enumerate() {
        assert_eq!(*count, 40, "replica {i} settled count");
        assert_eq!(
            balance_bytes(balances),
            reference,
            "replica {i} final balances must be byte-identical"
        );
    }
    assert_eq!(finals[0].0[&ClientId(1)], Amount(800));
    assert_eq!(finals[0].0[&ClientId(2)], Amount(1_200));
    assert_eq!(finals[0].0[&ClientId(3)], Amount(900));
    assert_eq!(finals[0].0[&ClientId(4)], Amount(1_100));
}

#[test]
fn astro1_whole_cluster_resumes_from_directory() {
    let dir = tmp_dir("astro1-cluster-resume");
    let cfg = Astro1Config { batch_size: 4, initial_balance: Amount(500) };

    {
        let cluster = AstroOneCluster::builder(4, cfg.clone(), Duration::from_millis(1))
            .tcp_keychains(demo_keychains(4))
            .durable(&dir, store_cfg())
            .start()
            .unwrap();
        for seq in 0..20u64 {
            cluster.submit(Payment::new(1u64, seq, 2u64, 5u64)).unwrap();
        }
        assert!(cluster.wait_settled(20, Duration::from_secs(20)));
        cluster.shutdown();
    }

    // A second incarnation from the same directory resumes the ledger:
    // the client continues its sequence numbers where it left off, which
    // only settles if every replica recovered its xlog position.
    let cluster = AstroOneCluster::builder(4, cfg, Duration::from_millis(1))
        .tcp_keychains(demo_keychains(4))
        .durable(&dir, store_cfg())
        .start()
        .unwrap();
    for seq in 20..30u64 {
        cluster.submit(Payment::new(1u64, seq, 2u64, 5u64)).unwrap();
    }
    // The count is what each ledger holds: the 20 recovered payments
    // count from the start, so wait for the absolute 30.
    assert!(cluster.wait_settled(30, Duration::from_secs(20)));
    let finals = cluster.shutdown();
    for (balances, count) in &finals {
        assert_eq!(*count, 30, "20 recovered + 10 new settlements");
        assert_eq!(balances[&ClientId(1)], Amount(350));
        assert_eq!(balances[&ClientId(2)], Amount(650));
    }
}

#[test]
fn astro2_replica_killed_and_restarted_from_disk_converges_over_tcp() {
    let dir = tmp_dir("astro2-kill-restart");
    // Direct intra-shard credits so final ledger balances mirror the
    // settled payments (as in the non-durable AstroTwoCluster test).
    let cfg = Astro2Config {
        batch_size: 4,
        initial_balance: Amount(500),
        credit_mode: CreditMode::DirectIntraShard,
        ..Astro2Config::default()
    };
    // Caller-provided key material on both planes: transport links and
    // protocol signing (the production-shaped entry point).
    let mut cluster = AstroTwoCluster::builder(4, cfg, Duration::from_millis(1))
        .tcp_keychains(demo_keychains(4))
        .signing(Keychain::deterministic_system(b"durability-test-signing", 4))
        .durable(&dir, store_cfg())
        .start()
        .unwrap();

    for seq in 0..10u64 {
        cluster.submit(Payment::new(1u64, seq, 2u64, 5u64)).unwrap();
    }
    assert!(cluster.wait_settled(10, Duration::from_secs(20)));

    let rep1 = cluster.layout().representative_of(ClientId(1)).0 as usize;
    let rep3 = cluster.layout().representative_of(ClientId(3)).0 as usize;
    let victim = (0..4).find(|i| *i != rep1 && *i != rep3).expect("4 replicas, 2 reps");
    cluster.kill_replica(victim).unwrap();
    cluster.restart_replica(victim).expect("restart from disk");

    for seq in 0..10u64 {
        cluster.submit(Payment::new(3u64, seq, 4u64, 7u64)).unwrap();
    }
    assert!(cluster.wait_settled(20, Duration::from_secs(30)));

    let finals = cluster.shutdown();
    let reference = balance_bytes(&finals[0].0);
    for (i, (balances, count)) in finals.iter().enumerate() {
        assert_eq!(*count, 20, "replica {i}");
        assert_eq!(balance_bytes(balances), reference, "replica {i} diverged");
    }
    assert_eq!(finals[0].0[&ClientId(1)], Amount(450));
    assert_eq!(finals[0].0[&ClientId(2)], Amount(550));
    assert_eq!(finals[0].0[&ClientId(3)], Amount(430));
    assert_eq!(finals[0].0[&ClientId(4)], Amount(570));
}
