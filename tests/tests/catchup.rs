//! Peer catch-up after downtime, end to end over real TCP: a replica is
//! killed, the live quorum settles hundreds of payments it never hears
//! about, and the restart path's catch-up state-transfer handshake
//! brings it back to byte-identical balances — with **zero client
//! resubmissions**. Covers Astro I and Astro II, durable (recover local
//! `snapshot + WAL`, fetch only the delta) and non-durable (restart
//! empty, fetch the full ledger). The Astro II runs use full certificate
//! mode and additionally prove CREDIT recovery: the downtime wave pays
//! into a client the victim represents, so every CREDIT sub-batch parks
//! in the settling replicas' retry outboxes until the restarted
//! representative acks the retransmits and `CreditRequest` replay — the
//! post-restart wave is spendable only from the replayed certificates.
//! Plus the adversarial side: a Byzantine peer serving forged, stale, or
//! regressed state-transfer responses is rejected and catch-up completes
//! from the honest `2f+1`.

use astro_core::astro1::{Astro1Config, Astro1Msg, AstroOneReplica};
use astro_core::astro2::{Astro2Config, AstroTwoReplica, CreditMode};
use astro_core::journal::{Astro1Local, Astro2Local, State};
use astro_core::sync::{SyncError, SyncMsg};
use astro_core::testkit::PaymentCluster;
use astro_core::Replica;
use astro_core::{CoreObs, ReplicaStep};
use astro_obs::Registry;
use astro_runtime::{demo_keychains, AstroOneCluster, AstroTwoCluster, ClientProbe, Cluster};
use astro_store::StoreConfig;
use astro_types::wire::Wire;
use astro_types::{Amount, ClientId, Keychain, MacAuthenticator, Payment, ReplicaId, ShardLayout};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Duration;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("astro-catchup-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

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

/// Payments the quorum settles while the victim is down. The acceptance
/// bar is ≥ 256.
const DOWNTIME_PAYMENTS: u64 = 256;

/// Polls replica `i`'s view of `client` until `done` holds. Waiting on a
/// client's next sequence number is exact for a restarted replica: an
/// xlog is gap-free, so `next_seq == k` means it holds payments `0..k`,
/// whatever it recovered, caught up or settled live.
fn wait_until<R: Replica + Send + 'static>(
    cluster: &Cluster<R>,
    i: usize,
    client: u64,
    timeout: Duration,
    done: impl Fn(&ClientProbe) -> bool,
) -> bool {
    let deadline = std::time::Instant::now() + timeout;
    loop {
        if cluster.probe(i, ClientId(client)).is_ok_and(|p| done(&p)) {
            return true;
        }
        if std::time::Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The shared choreography. `submit`/`wait`/`wait_among`/`kill`/`restart`
/// close over the concrete cluster type; the client/rep arithmetic
/// assumes the single-shard 4-replica layout (client c → replica c % 4).
///
/// - wave 1 (32): client 1 → 2 and client 3 → 4, so the victim (replica
///   3, client 3's representative) has its own broadcast stream;
/// - kill replica 3; wave 2 (256): client 1 → 2 at the live quorum;
/// - restart; the catch-up handshake must deliver wave 2 to the victim
///   with no resubmission;
/// - wave 3 (8): client 3 again — the victim's stream must continue
///   above its pre-crash tags (a reused or skipped tag would wedge it).
struct Waves;
impl Waves {
    const VICTIM: usize = 3;
    const TOTAL: usize = 32 + DOWNTIME_PAYMENTS as usize + 8;

    fn wave1(mut submit: impl FnMut(Payment)) {
        for seq in 0..16u64 {
            submit(Payment::new(1u64, seq, 2u64, 5u64));
            submit(Payment::new(3u64, seq, 4u64, 2u64));
        }
    }

    fn wave2(mut submit: impl FnMut(Payment)) {
        for seq in 16..16 + DOWNTIME_PAYMENTS {
            submit(Payment::new(1u64, seq, 2u64, 1u64));
        }
    }

    fn wave3(mut submit: impl FnMut(Payment)) {
        for seq in 16..24u64 {
            submit(Payment::new(3u64, seq, 4u64, 3u64));
        }
    }

    /// Waits until wave 3 settled at every replica (the victim already
    /// holds waves 1 and 2), then checks the victim's published count.
    fn wait_all_waves<R: Replica + Send + 'static>(cluster: &Cluster<R>) {
        for i in 0..4 {
            assert!(
                wait_until(cluster, i, 3, Duration::from_secs(30), |p| p.next_seq.0 >= 24),
                "replica {i}: post-restart broadcasts from the victim must settle everywhere"
            );
        }
        // The victim's settled count is what its ledger holds: each
        // payment once, not its pre-crash count plus a catch-up delta.
        let victim = [Self::VICTIM];
        assert!(cluster.wait_settled_among(&victim, Self::TOTAL, Duration::ZERO));
        assert!(
            !cluster.wait_settled_among(&victim, Self::TOTAL + 1, Duration::ZERO),
            "the restarted replica must not count a settlement twice"
        );
    }

    fn assert_finals(finals: &[(HashMap<ClientId, Amount>, usize)]) {
        let reference = balance_bytes(&finals[0].0);
        for (i, (balances, count)) in finals.iter().enumerate() {
            assert_eq!(
                *count,
                Self::TOTAL,
                "replica {i} must settle every payment, downtime included"
            );
            assert_eq!(
                balance_bytes(balances),
                reference,
                "replica {i} final balances must be byte-identical"
            );
        }
        assert_eq!(finals[0].0[&ClientId(1)], Amount(1_000 - 80 - DOWNTIME_PAYMENTS));
        assert_eq!(finals[0].0[&ClientId(2)], Amount(1_000 + 80 + DOWNTIME_PAYMENTS));
        assert_eq!(finals[0].0[&ClientId(3)], Amount(1_000 - 32 - 24));
        assert_eq!(finals[0].0[&ClientId(4)], Amount(1_000 + 32 + 24));
    }
}

fn run_astro1(durable: bool, dir_name: &str) {
    let cfg = Astro1Config { batch_size: 4, initial_balance: Amount(1_000) };
    let flush = Duration::from_millis(1);
    let mut builder = AstroOneCluster::builder(4, cfg, flush).tcp_keychains(demo_keychains(4));
    if durable {
        builder = builder.durable(tmp_dir(dir_name), store_cfg());
    }
    let mut cluster = builder.start().expect("cluster starts");

    Waves::wave1(|p| cluster.submit(p).unwrap());
    assert!(cluster.wait_settled(32, Duration::from_secs(20)));

    cluster.kill_replica(Waves::VICTIM).unwrap();
    Waves::wave2(|p| cluster.submit(p).unwrap());
    let live = [0, 1, 2];
    assert!(
        cluster.wait_settled_among(&live, 32 + DOWNTIME_PAYMENTS as usize, Duration::from_secs(30)),
        "live quorum settles the downtime wave"
    );

    // Restart: local recovery (durable) or empty (non-durable), then the
    // catch-up handshake. NO payment is resubmitted.
    cluster.restart_replica(Waves::VICTIM).expect("restart");
    assert!(
        wait_until(&cluster, Waves::VICTIM, 1, Duration::from_secs(30), |p| {
            p.next_seq.0 >= 16 + DOWNTIME_PAYMENTS
        }),
        "restarted replica learns the downtime settlements from its peers"
    );

    // The victim's own stream must continue cleanly above its old tags.
    Waves::wave3(|p| cluster.submit(p).unwrap());
    Waves::wait_all_waves(&cluster);

    Waves::assert_finals(&cluster.shutdown());
}

/// Astro II in full certificate mode: CREDIT sub-batches are *unicast*
/// to the beneficiary's representative, so killing that representative
/// between a settle and the CREDIT's arrival used to lose the credit for
/// good. The downtime wave pays INTO the victim's client, and the
/// post-restart wave spends more than the client's ledger balance — it
/// can only settle if the acked retry outbox and `CreditRequest` replay
/// delivered every missed CREDIT to the restarted representative.
fn run_astro2(durable: bool, dir_name: &str) {
    let cfg = Astro2Config {
        batch_size: 4,
        initial_balance: Amount(1_000),
        credit_mode: CreditMode::Certificates,
        ..Astro2Config::default()
    };
    let flush = Duration::from_millis(1);
    let mut builder = AstroTwoCluster::builder(4, cfg, flush).tcp_keychains(demo_keychains(4));
    if durable {
        builder = builder
            .signing(Keychain::deterministic_system(b"catchup-test-signing", 4))
            .durable(tmp_dir(dir_name), store_cfg());
    }
    let mut cluster = builder.start().expect("cluster starts");

    Waves::wave1(|p| cluster.submit(p).unwrap());
    assert!(cluster.wait_settled(32, Duration::from_secs(20)));

    // Kill client 3's representative, then settle a wave of payments INTO
    // client 3 at the live quorum: every CREDIT sub-batch targets the dead
    // replica and parks in the settling replicas' retry outboxes.
    cluster.kill_replica(Waves::VICTIM).unwrap();
    for seq in 16..16 + DOWNTIME_PAYMENTS {
        cluster.submit(Payment::new(1u64, seq, 3u64, 1u64)).unwrap();
    }
    assert!(
        cluster.wait_settled_among(
            &[0, 1, 2],
            32 + DOWNTIME_PAYMENTS as usize,
            Duration::from_secs(30)
        ),
        "live quorum settles the downtime wave"
    );

    cluster.restart_replica(Waves::VICTIM).expect("restart");
    assert!(
        wait_until(&cluster, Waves::VICTIM, 1, Duration::from_secs(30), |p| {
            p.next_seq.0 >= 16 + DOWNTIME_PAYMENTS
        }),
        "restarted replica learns the downtime settlements from its peers"
    );

    // The reliable-delivery assertion: the restarted representative must
    // regain a certificate for every CREDIT it was down for — outbox
    // retransmits plus the `CreditRequest { since }` replay, with zero
    // client resubmissions. Ledger balance stays 968 (credits have not
    // materialized), but the *spendable* balance must reach 968 + 256.
    assert!(
        wait_until(&cluster, Waves::VICTIM, 3, Duration::from_secs(30), |p| {
            p.available.0 >= 1_000 - 32 + DOWNTIME_PAYMENTS
        }),
        "replayed CREDIT bundles must certify at the restarted representative"
    );

    // Client 3 now spends 1 200 — above its 968 ledger balance, fundable
    // only by the replayed certificates.
    for seq in 16..24u64 {
        cluster.submit(Payment::new(3u64, seq, 4u64, 150u64)).unwrap();
    }
    Waves::wait_all_waves(&cluster);

    // Conservation, counting credits still floating as certificates at
    // their representatives: client 2's wave-1 credits (80) and client
    // 4's (32 + 1 200) never materialized — they must be spendable at
    // replicas 2 and 0 respectively.
    assert!(
        wait_until(&cluster, 2, 2, Duration::from_secs(20), |p| p.available.0 >= 1_000 + 80),
        "client 2's credits must certify at replica 2"
    );
    assert!(
        wait_until(&cluster, 0, 4, Duration::from_secs(20), |p| {
            p.available.0 >= 1_000 + 32 + 1_200
        }),
        "client 4's credits must certify at replica 0"
    );

    let finals = cluster.shutdown();
    let reference = balance_bytes(&finals[0].0);
    for (i, (balances, count)) in finals.iter().enumerate() {
        assert_eq!(*count, Waves::TOTAL, "replica {i} must settle every payment");
        assert_eq!(balance_bytes(balances), reference, "replica {i} diverged");
    }
    // Ledger balances under certificate mode: credits stay floating until
    // the beneficiary spends. Only client 3 spent its incoming credits.
    assert_eq!(finals[0].0[&ClientId(1)], Amount(1_000 - 80 - DOWNTIME_PAYMENTS));
    assert_eq!(finals[0].0[&ClientId(2)], Amount(1_000));
    assert_eq!(finals[0].0[&ClientId(3)], Amount(1_000 - 32 + DOWNTIME_PAYMENTS - 1_200));
    assert_eq!(finals[0].0[&ClientId(4)], Amount(1_000));
}

#[test]
fn astro1_durable_replica_catches_up_after_downtime() {
    run_astro1(true, "astro1-durable");
}

#[test]
fn astro1_non_durable_replica_catches_up_from_peers_alone() {
    run_astro1(false, "astro1-plain");
}

#[test]
fn astro2_durable_replica_catches_up_after_downtime() {
    run_astro2(true, "astro2-durable");
}

#[test]
fn astro2_non_durable_replica_catches_up_from_peers_alone() {
    run_astro2(false, "astro2-plain");
}

#[test]
fn concurrent_restarts_fall_back_to_local_state_and_stay_live() {
    // Kill 3 of 4 replicas (beyond 2f) and restart them together: fewer
    // than f+1 donors can serve, so no transfer certifies. Durable
    // replicas have a safe local state — after the bounded retry budget
    // they must resume from it (the pre-catch-up restart semantics)
    // instead of pausing the cluster forever.
    let dir = tmp_dir("concurrent-restarts");
    let cfg = Astro1Config { batch_size: 4, initial_balance: Amount(1_000) };
    let mut cluster = AstroOneCluster::builder(4, cfg, Duration::from_millis(1))
        .tcp_keychains(demo_keychains(4))
        .durable(dir, store_cfg())
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
    // Submissions to a catching-up representative park in its batch; the
    // fallback must release them. (Well within the fallback budget plus
    // settle time.)
    for seq in 8..16u64 {
        cluster.submit(Payment::new(1u64, seq, 2u64, 1u64)).unwrap();
    }
    assert!(
        cluster.wait_settled(16, Duration::from_secs(30)),
        "cluster must come back live after a concurrent-restart storm"
    );
    let finals = cluster.shutdown();
    let reference = balance_bytes(&finals[0].0);
    for (i, (balances, count)) in finals.iter().enumerate() {
        assert_eq!(*count, 16, "replica {i}");
        assert_eq!(balance_bytes(balances), reference, "replica {i} diverged");
    }
}

#[test]
fn chunked_catchup_completes_under_sustained_settlement_load() {
    // The victim misses enough history to push client 1's xlog past one
    // full sync block (512 entries), so its catch-up must certify a
    // sealed `SyncMsg::Block` alongside the head. The live quorum keeps
    // settling new payments *while* the transfer runs: donor heads drift
    // between serves, but certified blocks are immutable and survive
    // head retries, so the transfer converges without a quiet moment and
    // with zero client resubmissions.
    let dir = tmp_dir("sustained-load");
    let cfg = Astro1Config { batch_size: 4, initial_balance: Amount(4_000) };
    let mut cluster = AstroOneCluster::builder(4, cfg, Duration::from_millis(1))
        .tcp_keychains(demo_keychains(4))
        .durable(dir, store_cfg())
        .start()
        .unwrap();

    for seq in 0..16u64 {
        cluster.submit(Payment::new(1u64, seq, 2u64, 1u64)).unwrap();
    }
    assert!(cluster.wait_settled(16, Duration::from_secs(20)));

    // Downtime deep enough to seal one full history block at the donors.
    cluster.kill_replica(3).unwrap();
    for seq in 16..544u64 {
        cluster.submit(Payment::new(1u64, seq, 2u64, 1u64)).unwrap();
    }
    assert!(
        cluster.wait_settled_among(&[0, 1, 2], 544, Duration::from_secs(60)),
        "live quorum settles the deep downtime wave"
    );

    // Restart and immediately keep the settlement stream running — the
    // chunked handshake races live traffic the whole way.
    cluster.restart_replica(3).expect("restart");
    for seq in 544..608u64 {
        cluster.submit(Payment::new(1u64, seq, 2u64, 1u64)).unwrap();
    }

    for i in 0..4 {
        assert!(
            wait_until(&cluster, i, 1, Duration::from_secs(60), |p| p.next_seq.0 >= 608),
            "replica {i}: every payment, downtime and live-load included, must settle"
        );
    }

    let finals = cluster.shutdown();
    let reference = balance_bytes(&finals[0].0);
    for (i, (balances, count)) in finals.iter().enumerate() {
        assert_eq!(*count, 608, "replica {i} must settle the full stream");
        assert_eq!(balance_bytes(balances), reference, "replica {i} diverged");
    }
    assert_eq!(finals[0].0[&ClientId(1)], Amount(4_000 - 608));
    assert_eq!(finals[0].0[&ClientId(2)], Amount(4_000 + 608));
}

// ---------------------------------------------------------------------------
// Adversarial state transfer
// ---------------------------------------------------------------------------

/// Builds a settled 4-replica Astro I cluster plus the early state the
/// victim (replica 3) will be restored from: 3 of client 3's payments
/// settle before the capture, 5 of client 1's after it — the delta the
/// catch-up must transfer.
fn settled_cluster() -> (PaymentCluster<AstroOneReplica>, State<Astro1Local>) {
    let layout = ShardLayout::single(4).unwrap();
    let cfg = Astro1Config { batch_size: 1, initial_balance: Amount(100) };
    let mut c = PaymentCluster::new(
        (0..4).map(|i| AstroOneReplica::new(ReplicaId(i as u32), layout.clone(), cfg.clone())),
    );
    let pay = |c: &mut PaymentCluster<AstroOneReplica>, p: Payment| {
        let rep = layout.representative_of(p.spender);
        let step = c.node_mut(rep.0 as usize).submit(p).expect("representative accepts");
        c.submit_step(rep, step);
    };
    for seq in 0..3u64 {
        pay(&mut c, Payment::new(3u64, seq, 4u64, 2u64));
    }
    c.run_to_quiescence();
    let early = c.node(3).export_state();
    for seq in 0..5u64 {
        pay(&mut c, Payment::new(1u64, seq, 2u64, 4u64));
    }
    c.run_to_quiescence();
    (c, early)
}

/// A `SyncMsg::Head` response as replica `from` would serve it. The
/// settled history here is far below one block, so the head carries the
/// whole state and no `SyncMsg::Block` frames accompany it.
fn response_from(c: &PaymentCluster<AstroOneReplica>, from: usize) -> Astro1Msg {
    let (head, blocks) = c.node(from).sync_chunks(ReplicaId(3)).expect("head within bounds");
    assert!(blocks.is_empty(), "short histories must not seal blocks");
    Astro1Msg::Sync(SyncMsg::Head {
        settled: c.node(from).ledger().total_settled() as u64,
        head: head.to_wire_bytes(),
    })
}

#[test]
fn byzantine_forged_or_tampered_state_transfer_is_rejected() {
    let (c, early) = settled_cluster();
    let layout = ShardLayout::single(4).unwrap();
    let cfg = Astro1Config { batch_size: 1, initial_balance: Amount(100) };
    let mut victim = AstroOneReplica::new(ReplicaId(3), layout, cfg).restore(&early).unwrap();
    let registry = Registry::new();
    victim.set_obs(CoreObs::for_replica(&registry, 3));
    victim.begin_catchup(None);

    // Drive the flush timer past one full retry interval: the first
    // flush sends the initial request, and once the tick budget
    // drains a re-request goes out — which the retry counter must see.
    let mut requests = 0usize;
    for _ in 0..40 {
        requests += victim.flush().outbound.len();
    }
    assert!(requests >= 2, "expected an initial request plus at least one retry");

    // Broadcast traffic arriving mid-sync parks for replay — and the
    // parking metrics must see it. Mint a Prepare from a scratch replica
    // with replica 1's identity; its instance is already delivered in the
    // transferred state, so the post-install replay dedups it.
    let mut minter = AstroOneReplica::new(
        ReplicaId(1),
        ShardLayout::single(4).unwrap(),
        Astro1Config { batch_size: 1, initial_balance: Amount(100) },
    );
    let step = minter.submit(Payment::new(1u64, 0u64, 2u64, 1u64)).unwrap();
    let brb = step
        .outbound
        .into_iter()
        .find_map(|env| match env.msg {
            m @ Astro1Msg::Brb(_) => Some(m),
            _ => None,
        })
        .expect("batch size 1 flushes a Prepare");
    let parked = victim.handle(ReplicaId(1), brb);
    assert!(parked.outbound.is_empty() && parked.settled.is_empty());

    // Replica 0 is Byzantine. Variant 1: inflate its own balance.
    let mut inflated = c.node(0).sync_state(ReplicaId(3));
    for (client, balance) in &mut inflated.ledger.accounts {
        if *client == ClientId(4) {
            *balance = Amount(1_000_000);
        }
    }
    let forged = Astro1Msg::Sync(SyncMsg::Head {
        settled: c.node(0).ledger().total_settled() as u64,
        head: inflated.to_wire_bytes(),
    });
    // Variant 2: truncate client 1's xlog (drop the last settle).
    let mut truncated = c.node(0).sync_state(ReplicaId(3));
    for (client, entries) in &mut truncated.ledger.xlogs {
        if *client == ClientId(1) {
            entries.pop();
        }
    }
    let truncated = Astro1Msg::Sync(SyncMsg::Head {
        settled: c.node(0).ledger().total_settled() as u64,
        head: truncated.to_wire_bytes(),
    });
    // Variant 3: a stale state (below the victim's own settled floor).
    let stale = Astro1Msg::Sync(SyncMsg::Head { settled: 1, head: early.to_wire_bytes() });

    // The Byzantine replica spams every variant; none certifies (each
    // needs f+1 = 2 matching members) and nothing installs.
    for msg in [forged.clone(), truncated, stale, forged] {
        let step = victim.handle(ReplicaId(0), msg);
        assert!(step.settled.is_empty());
        assert!(victim.is_syncing(), "forged responses must not install");
    }
    assert_eq!(victim.balance(ClientId(4)), Amount(106), "pre-transfer state untouched");

    // The attached metrics must have seen the catch-up friction: the
    // stale response tripped the collector's floor guard, and the retry
    // loop above re-sent the request at least once.
    let snap = registry.snapshot();
    assert!(
        snap.gauge("core.r3.sync_rejected").unwrap_or(0) >= 1,
        "rejected-response gauge must count the stale variant"
    );
    assert!(
        snap.counter("core.r3.sync_retries").unwrap_or(0) >= 1,
        "retry counter must count the re-sent request"
    );
    assert_eq!(
        snap.counter("core.r3.parked"),
        Some(1),
        "parked counter must see the mid-sync broadcast"
    );
    assert_eq!(snap.gauge("core.r3.parked_depth"), Some(1));

    // One honest response joins: still only one member per digest.
    let step = victim.handle(ReplicaId(1), response_from(&c, 1));
    assert!(step.settled.is_empty());
    assert!(victim.is_syncing());

    // The second honest response certifies and installs the delta —
    // catch-up completes from the honest 2f+1 despite the adversary.
    let step = victim.handle(ReplicaId(2), response_from(&c, 2));
    assert!(!victim.is_syncing(), "honest quorum must install");
    assert_eq!(step.settled.len(), 5, "exactly the missed settlements are reported");
    for client in 1..5u64 {
        assert_eq!(
            victim.balance(ClientId(client)),
            c.node(0).balance(ClientId(client)),
            "client {client}"
        );
    }
    assert!(victim.ledger().audit());

    // And the victim's own stream resumes above its pre-crash tags: the
    // next broadcast must not reuse instance (3, 0..3).
    let step = victim.submit(Payment::new(3u64, 3u64, 4u64, 1u64)).unwrap();
    let tags: Vec<u64> = step
        .outbound
        .iter()
        .filter_map(|env| match &env.msg {
            Astro1Msg::Brb(astro_brb::bracha::BrachaMsg::Prepare { id, .. }) => Some(id.tag),
            _ => None,
        })
        .collect();
    assert_eq!(tags.len(), 1, "batch size 1 flushes immediately");
    assert!(tags[0] >= 3, "tag {} would reuse a pre-crash instance", tags[0]);
}

#[test]
fn regressed_cursor_or_ledger_is_rejected_by_the_install_guards() {
    let (c, early) = settled_cluster();
    let layout = ShardLayout::single(4).unwrap();
    let cfg = Astro1Config { batch_size: 1, initial_balance: Amount(100) };
    // The victim restores from the *current* state: any transfer that is
    // behind it in any component must be rejected even if it certified
    // (defense in depth below the f+1 vote).
    let current = c.node(3).export_state();
    let mut victim = AstroOneReplica::new(ReplicaId(3), layout, cfg).restore(&current).unwrap();

    // A state with a truncated xlog regresses the ledger.
    let mut behind = c.node(0).sync_state(ReplicaId(3));
    for (client, entries) in &mut behind.ledger.xlogs {
        if *client == ClientId(1) {
            entries.pop();
        }
    }
    assert!(matches!(victim.install_sync(&behind), Err(SyncError::Stale)));

    // A state whose delivery cursors sit below the victim's wedges FIFO
    // delivery if installed — rejected.
    let mut regressed = c.node(0).sync_state(ReplicaId(3));
    for (_, next) in &mut regressed.cursors {
        *next = next.saturating_sub(1);
    }
    assert!(matches!(victim.install_sync(&regressed), Err(SyncError::Stale)));

    // The early snapshot itself (a stale donor) is likewise rejected.
    assert!(matches!(victim.install_sync(&early), Err(SyncError::Stale)));

    // The genuine current state installs as a no-op delta.
    let fresh = c.node(0).sync_state(ReplicaId(3));
    let step = victim.install_sync(&fresh).expect("current state installs");
    assert!(step.settled.is_empty(), "no delta: nothing newly settled");
}

#[test]
fn undecodable_certified_bytes_restart_collection() {
    // Two colluding peers (beyond the f = 1 fault assumption — this
    // exercises the defensive path) serve identical garbage: it
    // certifies, fails to decode, and the collector restarts cleanly so
    // honest responses can still install.
    let (c, early) = settled_cluster();
    let layout = ShardLayout::single(4).unwrap();
    let cfg = Astro1Config { batch_size: 1, initial_balance: Amount(100) };
    let mut victim = AstroOneReplica::new(ReplicaId(3), layout, cfg).restore(&early).unwrap();
    victim.begin_catchup(None);

    let garbage =
        Astro1Msg::Sync(SyncMsg::Head { settled: 99, head: vec![0xde, 0xad, 0xbe, 0xef] });
    victim.handle(ReplicaId(0), garbage.clone());
    victim.handle(ReplicaId(1), garbage);
    assert!(victim.is_syncing(), "undecodable bytes must not activate the replica");

    victim.handle(ReplicaId(1), response_from(&c, 1));
    let step = victim.handle(ReplicaId(2), response_from(&c, 2));
    assert!(!victim.is_syncing());
    assert_eq!(step.settled.len(), 5);
}

#[test]
fn astro2_sync_state_drops_garbage_certificates_and_guards_used_deps() {
    // Astro II's install guards: pending entries carrying undecodable
    // certificate bytes ("bad proof set" wire data) are dropped, and a
    // transfer missing a locally-used dependency is rejected — replaying
    // it would re-materialize the credit (a double deposit).
    let layout = ShardLayout::single(4).unwrap();
    let cfg = Astro2Config {
        batch_size: 1,
        initial_balance: Amount(100),
        credit_mode: CreditMode::DirectIntraShard,
        ..Astro2Config::default()
    };
    let auth = |i: u32| MacAuthenticator::new(ReplicaId(i), b"catchup-astro2".to_vec());
    let mut c = PaymentCluster::new(
        (0..4u32).map(|i| AstroTwoReplica::new(auth(i), layout.clone(), cfg.clone())),
    );
    let pay = |c: &mut PaymentCluster<AstroTwoReplica<MacAuthenticator>>, p: Payment| {
        let rep = layout.representative_of(p.spender);
        let step = c.node_mut(rep.0 as usize).submit(p).expect("representative accepts");
        c.submit_step(rep, step);
    };
    for seq in 0..4u64 {
        pay(&mut c, Payment::new(1u64, seq, 2u64, 3u64));
    }
    c.run_to_quiescence();

    let mut victim = AstroTwoReplica::new(auth(3), layout.clone(), cfg.clone());
    let mut state: State<Astro2Local> = c.node(0).sync_state(ReplicaId(3));
    // "Bad proof set": a queued payment dragging garbage cert bytes.
    state.local.pending =
        vec![(Payment::new(9u64, 1u64, 1u64, 1u64), vec![vec![0xff, 0x00, 0xff]])];
    let step: ReplicaStep<_> = victim.install_sync(&state).expect("honest ledger installs");
    assert_eq!(step.settled.len(), 4);
    assert_eq!(victim.pending_len(), 1, "payment queued, garbage certificate dropped");
    assert!(victim.ledger().audit());

    // Regression guard: a second transfer that lost a used dependency
    // (or a stuck mark) must be rejected outright.
    let mut regressed = state.clone();
    regressed.local.used_deps = Vec::new();
    victim.replay(&astro_core::journal::WalRecord::DepUsed {
        dep: Payment::new(5u64, 0u64, 3u64, 7u64),
    });
    assert!(matches!(victim.install_sync(&regressed), Err(SyncError::Stale)));
}
