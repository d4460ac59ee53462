//! Transport comparison: end-to-end settlement throughput of a 4-replica
//! Astro I cluster over in-process channels vs loopback TCP with
//! HMAC-authenticated sessions, plus the raw link-layer message rate.
//!
//! The gap between the two series is the price of real sockets + MACs;
//! the protocol work (Bracha's O(N²) 49-byte votes around N copies of
//! the batch, ledger settlement) is identical on both sides.

use astro_bench::json::Metric;
use astro_core::astro1::Astro1Config;
use astro_net::{Endpoint, InProcTransport, TcpTransport, Transport};
use astro_runtime::AstroOneCluster;
use astro_types::{Amount, Keychain, Payment, ReplicaId};
use criterion::{BatchSize, Criterion, Throughput};
use std::time::Duration;

fn payments() -> u64 {
    if astro_bench::smoke() {
        64
    } else {
        256
    }
}

fn settle_workload(cluster: &AstroOneCluster, payments: u64) {
    for seq in 0..payments {
        cluster.submit(Payment::new(1u64, seq, 2u64, 1u64)).expect("cluster accepts payments");
    }
    assert!(cluster.wait_settled(payments as usize, Duration::from_secs(60)));
}

fn cfg() -> Astro1Config {
    Astro1Config { batch_size: 32, initial_balance: Amount(u64::MAX / 2) }
}

fn bench_settlement(c: &mut Criterion) {
    let n = payments();
    let mut g = c.benchmark_group("settle_256_n4");
    g.throughput(Throughput::Elements(n));
    g.bench_function("inproc", |b| {
        b.iter_batched(
            || AstroOneCluster::start(4, cfg(), Duration::from_millis(1)).unwrap(),
            |cluster| {
                settle_workload(&cluster, n);
                cluster.shutdown()
            },
            BatchSize::PerIteration,
        );
    });
    g.bench_function("tcp_hmac", |b| {
        b.iter_batched(
            || AstroOneCluster::start_tcp(4, cfg(), Duration::from_millis(1)).unwrap(),
            |cluster| {
                settle_workload(&cluster, n);
                cluster.shutdown()
            },
            BatchSize::PerIteration,
        );
    });
    g.finish();
}

fn bench_link_messages(c: &mut Criterion) {
    // Raw link layer: 1 KiB messages 0 → 1, no protocol on top.
    let msgs: u64 = if astro_bench::smoke() { 64 } else { 512 };
    let payload = vec![0x5au8; 1024];
    let mut g = c.benchmark_group("link_512x1KiB");
    g.throughput(Throughput::Bytes(msgs * 1024));
    g.bench_function("inproc", |b| {
        let mut eps = InProcTransport::new(2).into_endpoints();
        let mut rx = eps.pop().unwrap();
        let mut tx = eps.pop().unwrap();
        b.iter(|| {
            for _ in 0..msgs {
                tx.send(ReplicaId(1), &payload).unwrap();
            }
            for _ in 0..msgs {
                rx.recv_timeout(Duration::from_secs(5)).unwrap().expect("delivered");
            }
        });
    });
    g.bench_function("tcp_hmac", |b| {
        let chains = Keychain::deterministic_system(b"bench-link", 2);
        let mut eps = TcpTransport::loopback(chains).unwrap().into_endpoints();
        let mut rx = eps.pop().unwrap();
        let mut tx = eps.pop().unwrap();
        b.iter(|| {
            for _ in 0..msgs {
                tx.send(ReplicaId(1), &payload).unwrap();
            }
            for _ in 0..msgs {
                rx.recv_timeout(Duration::from_secs(5)).unwrap().expect("delivered");
            }
        });
    });
    g.bench_function("tcp_hmac_corked", |b| {
        // The coalesced path the runtime drives: cork, burst, uncork —
        // one write syscall per link per burst.
        let chains = Keychain::deterministic_system(b"bench-link-cork", 2);
        let mut eps = TcpTransport::loopback(chains).unwrap().into_endpoints();
        let mut rx = eps.pop().unwrap();
        let mut tx = eps.pop().unwrap();
        b.iter(|| {
            tx.cork();
            for _ in 0..msgs {
                tx.send(ReplicaId(1), &payload).unwrap();
            }
            tx.uncork().unwrap();
            for _ in 0..msgs {
                rx.recv_timeout(Duration::from_secs(5)).unwrap().expect("delivered");
            }
        });
    });
    g.finish();
}

fn main() {
    let samples = if astro_bench::smoke() { 3 } else { 10 };
    let mut c = Criterion::default().sample_size(samples);
    bench_settlement(&mut c);
    bench_link_messages(&mut c);

    // Machine-readable export: settled-payments/s and per-iteration
    // latency percentiles, the numbers the perf trajectory is tracked by.
    let reports = criterion::drain_reports();
    let metrics: Vec<Metric> = reports
        .iter()
        .map(|r| {
            Metric::new(
                r.id.clone(),
                [
                    (r.rate_unit(), r.ops_per_sec()),
                    ("p50_ms", r.median_ns as f64 / 1e6),
                    ("p99_ms", r.p99_ns as f64 / 1e6),
                ],
            )
        })
        .collect();
    let path = astro_bench::json::write("net_transport", &metrics).expect("write bench json");
    println!("\nwrote {}", path.display());
}
