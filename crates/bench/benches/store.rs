//! Storage engine costs the end-to-end benchmark does not isolate: WAL
//! replay rate, chunked state transfer, bytes written per incremental
//! snapshot, and settle throughput while snapshots install off-thread.
//!
//! What durability costs a settling cluster end to end is measured by
//! the `benchmark/` package (`a1_durable` against `a1_tcp`), not here.

use astro_bench::json::Metric;
use astro_core::astro1::{Astro1Config, AstroOneReplica};
use astro_core::journal::{merge_history_blocks, Astro1Local, State, WalRecord};
use astro_core::Replica;
use astro_runtime::AstroOneCluster;
use astro_store::{Storage, StoreConfig};
use astro_types::wire::{decode_exact, Wire, MAX_FRAME_LEN};
use astro_types::{Amount, Payment, ReplicaId, ShardLayout};
use criterion::{Criterion, Throughput};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

static RUN: AtomicU64 = AtomicU64::new(0);

fn scratch_dir() -> PathBuf {
    let run = RUN.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("astro-bench-store-{}-{run}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg() -> Astro1Config {
    Astro1Config { batch_size: 32, initial_balance: Amount(u64::MAX / 2) }
}

fn settle_workload(cluster: &AstroOneCluster, payments: u64) {
    for seq in 0..payments {
        cluster.submit(Payment::new(1u64, seq, 2u64, 1u64)).expect("cluster accepts payments");
    }
    assert!(cluster.wait_settled(payments as usize, Duration::from_secs(60)));
}

/// Settlement throughput *during* incremental installs vs the
/// install-free durable steady state. Timed over the settle phase only
/// (startup and the shutdown drain are excluded — the claim under test
/// is that off-thread installs stay off the settle path, not that the
/// final drain is free). Runs interleave so machine drift cancels.
fn measure_install_overhead() -> Vec<Metric> {
    // Dedicated (longer) workload: the settle phase must contain full
    // seal -> install cycles at the engine's *production* cadence, not a
    // cranked-up one. On a single-core runner every off-thread install
    // byte is time-sliced against the settle threads, so measuring at an
    // artificially hot cadence (say every 128 settles) reports CPU
    // sharing — which scales with install *frequency* — rather than
    // settle-path stalls, which is the regression this gate guards.
    // Smoke keeps the production cadence and shortens the workload to
    // two install cycles per replica — a hotter smoke cadence would
    // reintroduce exactly the frequency-scaled CPU cost above.
    let every = 8_192;
    let (n, trials) = if astro_bench::smoke() { (16_384, 3) } else { (20_480, 9) };
    let run = |store: &StoreConfig| -> f64 {
        let dir = scratch_dir();
        let cluster = AstroOneCluster::builder(4, cfg(), Duration::from_millis(1))
            .tcp()
            .durable(&dir, store.clone())
            .start()
            .unwrap();
        let started = std::time::Instant::now();
        settle_workload(&cluster, n);
        let secs = started.elapsed().as_secs_f64();
        cluster.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        secs
    };
    // Steady state: the threshold never trips inside `n` settles.
    // Snapshotting: the production threshold, so each replica seals and
    // installs at least one incremental snapshot mid-workload.
    let steady_cfg = StoreConfig { snapshot_every_settled: usize::MAX, ..StoreConfig::default() };
    let snapshotting_cfg = StoreConfig { snapshot_every_settled: every, ..StoreConfig::default() };
    let (mut steady, mut snapshotting) = (Vec::new(), Vec::new());
    for _ in 0..trials {
        steady.push(run(&steady_cfg));
        snapshotting.push(run(&snapshotting_cfg));
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (steady, snapshotting) = (median(&mut steady), median(&mut snapshotting));
    let ratio = steady / snapshotting;
    println!(
        "settle_durable_n4/install_overhead                during_install_over_steady {ratio:.3}"
    );
    vec![Metric::new(
        "settle_durable_n4/install_overhead",
        [
            ("during_install_over_steady", ratio),
            ("steady_ms", steady * 1e3),
            ("snapshotting_ms", snapshotting * 1e3),
        ],
    )]
}

/// Settles a deep single-spender stream into a replica via WAL replay
/// (no BRB round-trips — this measures the storage engine, not the
/// protocol).
fn replayed_node(entries: u64) -> AstroOneReplica {
    let layout = ShardLayout::single(4).unwrap();
    let mut node = AstroOneReplica::new(ReplicaId(0), layout, cfg());
    for seq in 0..entries {
        node.replay(&WalRecord::Settle {
            payment: Payment::new(1u64, seq, 2u64, 1u64),
            credit_beneficiary: true,
        });
    }
    node
}

/// Incremental-snapshot IO: run the v2 seal/install cycle over a growing
/// history and compare the average bytes written per install against the
/// full-state payload a v1 snapshot would rewrite every time. The ratio
/// is the O(n²) → O(n) win and must stay well above 1.
fn measure_snapshot_io() -> Vec<Metric> {
    let total: u64 = if astro_bench::smoke() { 1_024 } else { 8_192 };
    let every: u64 = 128;
    let dir = scratch_dir();
    let (mut storage, _) = Storage::open(&dir, StoreConfig::default()).unwrap();
    let layout = ShardLayout::single(4).unwrap();
    let mut node = AstroOneReplica::new(ReplicaId(0), layout, cfg());
    let mut segments = 0u64;
    let mut incremental = 0u64;
    let mut installs = 0u64;
    for seq in 0..total {
        let record = WalRecord::Settle {
            payment: Payment::new(1u64, seq, 2u64, 1u64),
            credit_beneficiary: true,
        };
        node.replay(&record);
        storage.append(&record);
        if (seq + 1) % every == 0 {
            let records = node.seal_checkpoint();
            let new_segments = segments + u64::from(!records.is_empty());
            let residual = node.residual_state(new_segments).to_wire_bytes();
            incremental += records.iter().map(|r| r.len() as u64).sum::<u64>();
            incremental += residual.len() as u64;
            let segment = (!records.is_empty()).then_some((segments as u32, records));
            assert!(storage.begin_install(segment, residual));
            if let Some(result) = storage.drain_install() {
                result.unwrap();
            }
            segments = new_segments;
            installs += 1;
        }
    }
    let full_state = node.export_state().to_wire_bytes().len() as u64;
    let per_install = incremental as f64 / installs as f64;
    let _ = std::fs::remove_dir_all(&dir);
    vec![Metric::new(
        "snapshot_bytes_per_install",
        [
            ("incremental_bytes", per_install),
            ("full_state_bytes", full_state as f64),
            ("full_over_incremental", full_state as f64 / per_install),
        ],
    )]
}

/// Chunked state transfer: a donor with a multi-block history serves a
/// head plus sealed `SyncBlock`s; the victim reassembles and installs.
/// Timed end to end, plus shape metrics (block count, largest single
/// frame payload — which must sit far below `MAX_FRAME_LEN`).
fn bench_chunked_transfer(c: &mut Criterion) -> Vec<Metric> {
    let entries: u64 = if astro_bench::smoke() { 2_048 } else { 8_192 };
    let donor = replayed_node(entries);
    let layout = ShardLayout::single(4).unwrap();

    let mut g = c.benchmark_group("state_transfer_chunked");
    g.throughput(Throughput::Elements(entries));
    g.bench_function("entries_per_sec", |b| {
        b.iter(|| {
            let (head, blocks) = donor.sync_chunks(ReplicaId(3)).unwrap();
            let mut state: State<Astro1Local> = decode_exact(&head.state_tail).unwrap();
            let map: HashMap<_, _> =
                blocks.into_iter().map(|(c, i, data)| ((c, i), data)).collect();
            merge_history_blocks(&mut state.ledger, &head.blocks, |c, i| map.get(&(c, i)).cloned())
                .unwrap();
            let mut victim = AstroOneReplica::new(ReplicaId(3), layout.clone(), cfg());
            let step = victim.install_sync(&state).unwrap();
            assert_eq!(step.settled.len(), entries as usize);
        });
    });
    g.finish();

    let (head, blocks) = donor.sync_chunks(ReplicaId(3)).unwrap();
    let head_bytes = head.to_wire_bytes().len() as u64;
    let max_frame =
        blocks.iter().map(|(_, _, data)| data.len() as u64).chain([head_bytes]).max().unwrap();
    assert!(max_frame < MAX_FRAME_LEN as u64, "every sync frame fits the wire cap");
    let transfer: u64 = head_bytes + blocks.iter().map(|(_, _, d)| d.len() as u64).sum::<u64>();
    vec![Metric::new(
        "state_transfer_chunked/shape",
        [
            ("blocks", blocks.len() as f64),
            ("max_frame_bytes", max_frame as f64),
            ("transfer_bytes", transfer as f64),
        ],
    )]
}

fn bench_replay(c: &mut Criterion) {
    // Recovery side: open the store (longest-valid-prefix scan + record
    // decode) and replay every record into a fresh replica.
    let records: u64 = if astro_bench::smoke() { 2_000 } else { 20_000 };
    let dir = scratch_dir();
    {
        let (mut storage, _) = Storage::open(&dir, StoreConfig::default()).unwrap();
        for seq in 0..records {
            storage.append(&WalRecord::Delivered { source: 0, tag: seq });
            storage.append(&WalRecord::Settle {
                payment: Payment::new(1u64, seq, 2u64, 1u64),
                credit_beneficiary: true,
            });
        }
        storage.sync();
    }
    let layout = ShardLayout::single(4).unwrap();
    let mut g = c.benchmark_group("wal_replay");
    g.throughput(Throughput::Elements(records));
    g.bench_function("settles_per_sec", |b| {
        b.iter(|| {
            let (_storage, recovered) = Storage::open(&dir, StoreConfig::default()).unwrap();
            let mut node = AstroOneReplica::new(ReplicaId(0), layout.clone(), cfg());
            for rec in &recovered.records {
                node.replay(rec);
            }
            node.finish_recovery();
            assert_eq!(node.ledger().total_settled(), records as usize);
            node.ledger().total_settled()
        });
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    let samples = if astro_bench::smoke() { 3 } else { 21 };
    let mut c = Criterion::default().sample_size(samples);
    bench_replay(&mut c);
    let mut extra = bench_chunked_transfer(&mut c);
    extra.extend(measure_snapshot_io());
    extra.extend(measure_install_overhead());

    let reports = criterion::drain_reports();
    let mut metrics: Vec<Metric> = reports
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
    metrics.extend(extra);
    let path = astro_bench::json::write("store", &metrics).expect("write bench json");
    println!("\nwrote {}", path.display());
}
