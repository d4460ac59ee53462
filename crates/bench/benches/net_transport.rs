//! Link-layer message rate: 1 KiB frames between two endpoints over
//! in-process channels vs loopback TCP with HMAC-authenticated sessions,
//! uncorked (one write per frame) and corked (one write per burst).
//!
//! End-to-end settlement over each transport is measured by the
//! `benchmark/` package (`a1_tcp`), not here.

use astro_bench::json::Metric;
use astro_net::{Endpoint, InProcTransport, TcpTransport, Transport};
use astro_types::{Keychain, ReplicaId};
use criterion::{Criterion, Throughput};
use std::time::Duration;

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
    bench_link_messages(&mut c);

    // Machine-readable export: bytes/s and per-iteration latency
    // percentiles, the numbers the perf trajectory is tracked by.
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
