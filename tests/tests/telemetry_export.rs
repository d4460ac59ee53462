//! The live telemetry plane over real TCP clusters: the scrape endpoint
//! must serve Prometheus text, JSON snapshots, and windowed deltas
//! *while* the cluster settles (scrapes are relaxed atomic reads — they
//! never touch the settle path), and the gray-failure health monitor
//! must flag a killed replica as unreachable from the exported signals
//! alone.

use astro_core::astro1::Astro1Config;
use astro_obs::health::reason;
use astro_obs::{HealthConfig, Registry};
use astro_runtime::AstroOneCluster;
use astro_types::{Amount, Payment};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One blocking HTTP/1.1 GET against the scrape endpoint; returns
/// (status line, body).
fn fetch(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("scrape endpoint must accept");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    stream.write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("scrape response must complete");
    let (head, body) = response.split_once("\r\n\r\n").expect("response must have a body");
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, body.to_string())
}

#[test]
fn scrape_endpoint_serves_all_formats_while_the_cluster_settles() {
    let registry = Registry::new();
    let cfg = Astro1Config { batch_size: 8, initial_balance: Amount(1_000) };
    let cluster =
        AstroOneCluster::start_tcp_observed(4, cfg, Duration::from_millis(1), registry.clone())
            .unwrap();
    let server = cluster.serve_metrics("127.0.0.1:0").expect("observed cluster must serve");
    let addr = server.addr();

    // Hammer every endpoint from two threads for the whole workload: a
    // scraper must never block (or be blocked by) the settle path.
    let stop = Arc::new(AtomicBool::new(false));
    let scrapers: Vec<_> = (0..2)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut scrapes = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    for path in ["/metrics", "/metrics.json", "/delta"] {
                        let (status, body) = fetch(addr, path);
                        assert!(status.contains("200"), "{path}: {status}");
                        assert!(!body.is_empty(), "{path} must have a body");
                        scrapes += 1;
                    }
                }
                scrapes
            })
        })
        .collect();

    const TOTAL: u64 = 64;
    for client in 1..=4u64 {
        for seq in 0..TOTAL / 4 {
            cluster.submit(Payment::new(client, seq, client % 4 + 1, 1u64)).unwrap();
        }
    }
    assert!(
        cluster.wait_settled(TOTAL as usize, Duration::from_secs(30)),
        "cluster must settle at full speed under concurrent scraping"
    );
    stop.store(true, Ordering::Relaxed);
    for scraper in scrapers {
        let scrapes = scraper.join().expect("scraper thread must not panic");
        assert!(scrapes > 0, "each scraper must have completed at least one pass");
    }

    // The final text exposition carries every layer, sanitized for
    // Prometheus (dots become underscores in metric names).
    let (status, text) = fetch(addr, "/metrics");
    assert!(status.contains("200"));
    for needle in ["core_r0_settles", "lifecycle_confirmed", "net_r0_to_r1_tx_bytes"] {
        assert!(text.contains(needle), "/metrics must expose {needle}:\n{text}");
    }
    cluster.shutdown();
}

#[test]
fn delta_scrape_reports_the_settles_of_its_own_window() {
    let registry = Registry::new();
    let cfg = Astro1Config { batch_size: 8, initial_balance: Amount(1_000) };
    let cluster =
        AstroOneCluster::start_tcp_observed(4, cfg, Duration::from_millis(1), registry.clone())
            .unwrap();
    let server = cluster.serve_metrics("127.0.0.1:0").unwrap();
    let addr = server.addr();

    // Base the delta window, run a workload, then read the next window:
    // the settle deltas of exactly that workload must appear as rates.
    let _ = fetch(addr, "/delta");
    const TOTAL: u64 = 32;
    for seq in 0..TOTAL {
        cluster.submit(Payment::new(1u64, seq, 2u64, 1u64)).unwrap();
    }
    assert!(cluster.wait_settled(TOTAL as usize, Duration::from_secs(30)));
    let (status, body) = fetch(addr, "/delta");
    assert!(status.contains("200"));
    assert!(
        body.contains(&format!(
            "{{\"name\":\"core.r0.settles\",\"total\":{TOTAL},\"delta\":{TOTAL},"
        )),
        "the /delta window must contain the workload's settles:\n{body}"
    );
    assert!(body.contains("\"window_nanos\":"), "deltas must be windowed:\n{body}");

    // A quiet follow-up window deltas to zero (totals stay).
    let (_, body) = fetch(addr, "/delta");
    assert!(
        body.contains(&format!("{{\"name\":\"core.r0.settles\",\"total\":{TOTAL},\"delta\":0,")),
        "a quiet window must delta to zero:\n{body}"
    );
    cluster.shutdown();
}

#[test]
fn killed_replica_goes_unreachable_on_the_live_health_monitor() {
    let registry = Registry::new();
    let cfg = Astro1Config { batch_size: 4, initial_balance: Amount(100_000) };
    let mut cluster =
        AstroOneCluster::start_tcp_observed(4, cfg, Duration::from_millis(1), registry.clone())
            .unwrap();
    let monitor = cluster
        .spawn_health_monitor(HealthConfig::default(), Duration::from_millis(100))
        .expect("observed cluster must monitor");

    // Warm the signal EWMAs with a settling cluster, then kill replica 3.
    // Post-kill the wait covers the live quorum only — the dead seat's
    // settled log is frozen forever.
    let mut seq = 0u64;
    let mut settled = 0usize;
    let pump = |cluster: &AstroOneCluster, seq: &mut u64, settled: &mut usize, live: &[usize]| {
        // Clients 1 and 2 live on replicas 1 and 2: the workload keeps
        // flowing after replica 3 dies.
        for client in [1u64, 2] {
            cluster.submit(Payment::new(client, *seq, 3 - client, 1u64)).unwrap();
            *settled += 1;
        }
        *seq += 1;
        assert!(
            cluster.wait_settled_among(live, *settled, Duration::from_secs(20)),
            "quorum must keep settling"
        );
    };
    for _ in 0..50 {
        pump(&cluster, &mut seq, &mut settled, &[0, 1, 2, 3]);
    }
    cluster.kill_replica(3).unwrap();

    // Keep the cluster settling (the unreachable rule only speaks when
    // the rest of the cluster is demonstrably live) until the monitor
    // flags replica 3. The rx EWMAs take ~a dozen windows to decay.
    let deadline = Instant::now() + Duration::from_secs(30);
    let verdict = loop {
        for _ in 0..5 {
            pump(&cluster, &mut seq, &mut settled, &[0, 1, 2]);
        }
        let verdict = monitor.latest().replica(3);
        if !verdict.is_healthy() {
            break verdict;
        }
        assert!(Instant::now() < deadline, "monitor never flagged the killed replica");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(verdict.reason(), Some(reason::UNREACHABLE), "wrong diagnosis: {verdict:?}");

    // The verdict is exported: gauge for scrapers, transition for the
    // flight recorder's post-mortem.
    let snap = registry.snapshot();
    assert!(snap.gauge("health.r3.state").unwrap_or(0) >= 1, "health gauge must export");
    assert!(snap.counter("health.transitions").unwrap_or(0) >= 1);
    assert!(
        registry.flight_dump().contains("health.replica"),
        "transition must reach the flight recorder"
    );
    cluster.shutdown();
}
