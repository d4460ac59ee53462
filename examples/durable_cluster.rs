//! Durable cluster demo: settle payments over TCP, kill a replica
//! without warning, restart it from its write-ahead log + snapshot, and
//! watch the cluster converge anyway.
//!
//! ```sh
//! cargo run --bin durable_cluster
//! ```

use astro_core::astro1::Astro1Config;
use astro_runtime::AstroOneCluster;
use astro_types::{Amount, ClientId, Payment};
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("astro-durable-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    println!("storage root: {}", dir.display());

    // Demo keychains: fixed public seed, loopback only — never deploy.
    let cfg = Astro1Config { batch_size: 8, initial_balance: Amount(1_000) };
    let mut cluster = AstroOneCluster::start_tcp_durable(4, &dir, cfg, Duration::from_millis(1))?;

    println!("\n--- phase 1: 32 payments, all replicas up");
    for seq in 0..32u64 {
        cluster.submit(Payment::new(1u64, seq, 2u64, 10u64))?;
    }
    assert!(cluster.wait_settled(32, Duration::from_secs(10)), "the first wave settles");
    println!("settled 32 payments at every replica");

    println!("\n--- killing replica 2 (no flush, no goodbye)");
    cluster.kill_replica(2)?;

    println!("--- restarting replica 2 from snapshot + WAL");
    cluster.restart_replica(2)?;
    println!("replica 2 recovered its ledger from {}", dir.join("replica-2").display());

    println!("\n--- phase 2: 32 more payments, restarted replica included");
    for seq in 0..32u64 {
        cluster.submit(Payment::new(3u64, seq, 4u64, 5u64))?;
    }
    assert!(cluster.wait_settled(64, Duration::from_secs(10)), "the second wave settles");
    println!("settled 64 payments total at every replica");

    let finals = cluster.shutdown();
    println!("\nfinal balances per replica (must all agree):");
    for (i, (balances, count)) in finals.iter().enumerate() {
        println!(
            "  replica {i}: {count} settled, client1={}, client2={}, client3={}, client4={}",
            balances[&ClientId(1)],
            balances[&ClientId(2)],
            balances[&ClientId(3)],
            balances[&ClientId(4)],
        );
    }
    let all_agree = finals.windows(2).all(|w| w[0].0 == w[1].0);
    println!("\nconverged: {all_agree}");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(all_agree, "replicas diverged");
    Ok(())
}
