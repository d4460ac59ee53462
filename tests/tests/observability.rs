//! End-to-end observability over real TCP clusters: attach a process-wide
//! [`Registry`] and check that every layer reports — transport byte/frame
//! counters on each mesh edge, the payment-lifecycle tracer's per-stage
//! histograms, core settle counters, the verify pipeline, WAL
//! append/fsync latencies on durable clusters, and the flight recorder
//! around a kill/restart. The same workloads run elsewhere unobserved;
//! here the assertions are about the numbers, not the balances.

use astro_core::astro1::Astro1Config;
use astro_core::astro2::{Astro2Config, CreditMode};
use astro_obs::Registry;
use astro_runtime::{demo_keychains, AstroOneCluster, AstroTwoCluster};
use astro_store::StoreConfig;
use astro_types::{Amount, Payment};
use std::path::PathBuf;
use std::time::Duration;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("astro-obs-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Aggressive group-commit cadence so a short workload sees real fsyncs.
fn store_cfg() -> StoreConfig {
    StoreConfig {
        sync_every_records: 8,
        sync_interval: Duration::from_millis(2),
        snapshot_every_settled: 12,
        sync_on_broadcast: true,
    }
}

/// The lifecycle spans the tracer must close for every confirmed payment
/// (Astro I stamps all five stages; `prepare_to_settle` is the fallback
/// span and closes too).
const SPANS: &[&str] = &[
    "lifecycle.submit_to_prepare",
    "lifecycle.prepare_to_ack_quorum",
    "lifecycle.ack_quorum_to_settle",
    "lifecycle.settle_to_confirm",
    "lifecycle.end_to_end",
];

#[test]
fn astro1_registry_sees_every_layer_of_a_settled_workload() {
    let registry = Registry::new();
    let cfg = Astro1Config { batch_size: 8, initial_balance: Amount(1_000) };
    let cluster =
        AstroOneCluster::start_tcp_observed(4, cfg, Duration::from_millis(1), registry.clone())
            .unwrap();

    // Four clients, one per representative, so every replica broadcasts.
    const PER_CLIENT: u64 = 16;
    const TOTAL: u64 = 4 * PER_CLIENT;
    for client in 1..=4u64 {
        for seq in 0..PER_CLIENT {
            cluster.submit(Payment::new(client, seq, client % 4 + 1, 1u64)).unwrap();
        }
    }
    assert!(cluster.wait_settled(TOTAL as usize, Duration::from_secs(30)));
    // Wait until *every* replica applied everything (the confirmed count
    // above only covers the representatives), then freeze the numbers.
    assert!(
        cluster.wait_settled_among(&[0, 1, 2, 3], TOTAL as usize, Duration::from_secs(30)),
        "all replicas settle the workload"
    );
    cluster.shutdown();
    let snap = registry.snapshot();

    // Core: every replica settled every payment, exactly once.
    for i in 0..4 {
        assert_eq!(
            snap.counter(&format!("core.r{i}.settles")),
            Some(TOTAL),
            "replica {i} settle counter"
        );
    }

    // Tracer: one closed lifecycle per confirmed payment, each span's
    // percentiles ordered and complete.
    assert_eq!(snap.counter("lifecycle.confirmed"), Some(TOTAL));
    for span in SPANS {
        let s = snap.histogram(span).unwrap_or_else(|| panic!("{span} must be recorded"));
        assert_eq!(s.count, TOTAL, "{span} closes once per payment");
        assert!(
            s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max,
            "{span} percentiles must be ordered: {s:?}"
        );
    }

    // Transport: every ordered mesh edge carried frames in both
    // accounting directions (sender tx, receiver rx).
    for i in 0..4 {
        for j in 0..4 {
            if i == j {
                continue;
            }
            assert!(
                snap.counter(&format!("net.r{i}.to_r{j}.tx_bytes")).unwrap_or(0) > 0,
                "edge r{i}->r{j} must have sent bytes"
            );
            assert!(
                snap.counter(&format!("net.r{i}.from_r{j}.rx_bytes")).unwrap_or(0) > 0,
                "edge r{i}<-r{j} must have received bytes"
            );
        }
    }

    // Driver + human-readable export smoke: the text dump names metrics
    // from every layer.
    let text = snap.to_text();
    for needle in ["core.r0.settles", "lifecycle.end_to_end", "net.r0.to_r1.tx_bytes"] {
        assert!(text.contains(needle), "text dump must mention {needle}");
    }
}

#[test]
fn astro2_durable_registry_records_store_and_verify_metrics() {
    let registry = Registry::new();
    let cfg = Astro2Config {
        batch_size: 4,
        initial_balance: Amount(1_000),
        credit_mode: CreditMode::DirectIntraShard,
        ..Astro2Config::default()
    };
    let cluster = AstroTwoCluster::builder(4, cfg, Duration::from_millis(1))
        .tcp_keychains(demo_keychains(4))
        .signing(astro_types::Keychain::deterministic_system(b"obs-astro2-signing", 4))
        .durable(tmp_dir("astro2-durable"), store_cfg())
        .registry(registry.clone())
        .start()
        .unwrap();

    const TOTAL: u64 = 32;
    for seq in 0..TOTAL {
        cluster.submit(Payment::new(1u64, seq, 2u64, 1u64)).unwrap();
    }
    assert!(cluster.wait_settled(TOTAL as usize, Duration::from_secs(30)));
    cluster.shutdown();
    let snap = registry.snapshot();

    assert_eq!(snap.counter("lifecycle.confirmed"), Some(TOTAL));
    // Store: every replica journaled effects and group-committed them.
    for i in 0..4 {
        let append = snap
            .histogram(&format!("store.r{i}.append_nanos"))
            .unwrap_or_else(|| panic!("replica {i} must journal effects"));
        assert!(append.count > 0);
        let fsync = snap
            .histogram(&format!("store.r{i}.fsync_nanos"))
            .unwrap_or_else(|| panic!("replica {i} must fsync its WAL"));
        assert!(fsync.count > 0);
        assert!(
            snap.gauge(&format!("store.r{i}.wal_bytes")).unwrap_or(0) > 0,
            "replica {i} WAL must have grown"
        );
    }
    // Verify pipeline: the shared pool saw signature super-batches.
    let checks = snap.histogram("verify.batch_checks").expect("pool must report batches");
    assert!(checks.count > 0, "verify pool must have run");
    assert!(snap.histogram("verify.batch_nanos").map_or(0, |s| s.count) > 0);
}

#[test]
fn crash_and_concurrent_restart_move_the_catchup_metrics() {
    // The concurrent-restart storm (3 of 4 replicas down) starves the
    // f+1 donor quorum, so the restarted replicas demonstrably *retry*
    // their SyncRequests before the fallback budget releases them — the
    // scenario the sync_retries counter and the flight recorder exist
    // for.
    let registry = Registry::new();
    let cfg = Astro1Config { batch_size: 4, initial_balance: Amount(1_000) };
    let mut cluster = AstroOneCluster::builder(4, cfg, Duration::from_millis(1))
        .tcp_keychains(demo_keychains(4))
        .durable(tmp_dir("crash-restart"), store_cfg())
        .registry(registry.clone())
        .start()
        .unwrap();

    for seq in 0..8u64 {
        cluster.submit(Payment::new(1u64, seq, 2u64, 1u64)).unwrap();
    }
    assert!(cluster.wait_settled(8, Duration::from_secs(20)));

    for i in 1..4 {
        cluster.kill_replica(i).unwrap();
    }
    for i in 1..4 {
        cluster.restart_replica(i).expect("restart");
    }
    for seq in 8..16u64 {
        cluster.submit(Payment::new(1u64, seq, 2u64, 1u64)).unwrap();
    }
    assert!(
        cluster.wait_settled(16, Duration::from_secs(30)),
        "cluster must come back live after the restart storm"
    );
    cluster.shutdown();
    let snap = registry.snapshot();

    // With only one live donor, no restarted replica could certify on
    // its first request: the retry counters must have moved.
    let retries: u64 =
        (1..4).map(|i| snap.counter(&format!("core.r{i}.sync_retries")).unwrap_or(0)).sum();
    assert!(retries >= 1, "a donor-starved catch-up must re-send its SyncRequest");

    // The flight recorder kept the story: each killed replica logged the
    // simulated power loss, each restarted one its catch-up requests.
    let flight = registry.flight_dump();
    assert!(flight.contains("runtime.crash"), "kill must leave a crash event:\n{flight}");
    assert!(flight.contains("core.sync.request"), "catch-up must log its requests:\n{flight}");

    // And the payments settled after the storm confirmed like any other.
    assert_eq!(snap.counter("lifecycle.confirmed"), Some(16));
}
