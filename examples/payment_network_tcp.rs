//! A four-replica Astro I cluster settling payments over loopback TCP —
//! the paper's §III authenticated links as real sockets.
//!
//! ```sh
//! cargo run --release -p astro-examples --bin payment_network_tcp
//! ```
//!
//! Each replica runs on its own OS thread with its own TCP endpoint: one
//! HMAC-authenticated connection per replica pair, per-direction session
//! keys derived from the pre-distributed keychains, and every Bracha
//! PREPARE/ECHO/READY frame MAC'd and sequence-checked on the wire. The
//! same workload then runs over in-process channels to show the state
//! machines are transport-blind: final balances match exactly.

use astro_core::astro1::Astro1Config;
use astro_runtime::AstroOneCluster;
use astro_types::{Amount, ClientId, Payment};
use std::collections::HashMap;
use std::time::{Duration, Instant};

const CLIENTS: u64 = 6;
const PAYMENTS_PER_CLIENT: u64 = 50;
const GENESIS: u64 = 10_000;

fn workload() -> Vec<Payment> {
    // Interleaved round-robin streams: client c pays client (c + 1) mod 6.
    let mut out = Vec::new();
    for seq in 0..PAYMENTS_PER_CLIENT {
        for c in 0..CLIENTS {
            out.push(Payment::new(c, seq, (c + 1) % CLIENTS, 7u64));
        }
    }
    out
}

fn run(label: &str, tcp: bool) -> Vec<(HashMap<ClientId, Amount>, usize)> {
    let cfg = Astro1Config { batch_size: 16, initial_balance: Amount(GENESIS) };
    let flush = Duration::from_millis(1);
    let start = Instant::now();
    let cluster = if tcp {
        AstroOneCluster::start_tcp(4, cfg, flush)
    } else {
        AstroOneCluster::start(4, cfg, flush)
    }
    .expect("cluster starts");
    let up = start.elapsed();

    let payments = workload();
    let t0 = Instant::now();
    for p in &payments {
        cluster.submit(*p).expect("cluster accepts payments");
    }
    let settled = cluster.wait_settled(payments.len(), Duration::from_secs(60));
    let elapsed = t0.elapsed();
    assert!(settled, "all payments settle");

    println!(
        "{label:<22} bring-up {up:>8.1?}   {} payments settled in {elapsed:>8.1?}  ({:>7.0} pps)",
        payments.len(),
        payments.len() as f64 / elapsed.as_secs_f64(),
    );
    cluster.shutdown()
}

fn main() {
    println!("payment_network_tcp: 4 replicas, {CLIENTS} clients, one socket per replica link\n");

    let tcp = run("loopback TCP + HMAC", true);
    let inproc = run("in-process channels", false);

    println!("\nfinal balances at replica 0:");
    let mut clients: Vec<_> = tcp[0].0.iter().collect();
    clients.sort();
    for (client, amount) in clients {
        println!("  {client}: {amount}");
    }

    // Every client paid and received the same total, so balances return
    // to genesis — and both transports agree replica by replica.
    for (i, ((b_tcp, c_tcp), (b_in, c_in))) in tcp.iter().zip(&inproc).enumerate() {
        assert_eq!(c_tcp, c_in, "replica {i} settled counts diverge");
        assert_eq!(b_tcp, b_in, "replica {i} balances diverge");
        for c in 0..CLIENTS {
            assert_eq!(b_tcp[&ClientId(c)], Amount(GENESIS));
        }
    }
    println!("\ntransport equivalence: TCP and in-process runs ended byte-identical");
}
