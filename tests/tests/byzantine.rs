//! Byzantine integration scenarios across the full replica stack, with
//! real Schnorr signatures where the protocol calls for them.

use astro_brb::signed::SignedMsg;
use astro_brb::InstanceId;
use astro_core::astro2::{Astro2Config, Astro2Msg, AstroTwoReplica, CreditMode, DepPolicy};
use astro_core::batch::{credit_context, CreditBundle, DepBatch, DepPayment};
use astro_core::testkit::PaymentCluster;
use astro_types::{
    Amount, Authenticator, ClientId, Keychain, Payment, ReplicaId, SchnorrAuthenticator,
    ShardLayout,
};

type Replica = AstroTwoReplica<SchnorrAuthenticator>;

fn schnorr_cluster(n: usize, cfg: Astro2Config) -> (PaymentCluster<Replica>, ShardLayout) {
    let layout = ShardLayout::single(n).unwrap();
    let chains = Keychain::deterministic_system(b"byz-integration", n);
    let cluster = PaymentCluster::new(chains.into_iter().map(|kc| {
        AstroTwoReplica::new(SchnorrAuthenticator::new(kc), layout.clone(), cfg.clone())
    }));
    (cluster, layout)
}

fn cfg() -> Astro2Config {
    Astro2Config {
        batch_size: 1,
        initial_balance: Amount(100),
        credit_mode: CreditMode::Certificates,
        dep_policy: DepPolicy::WhenNeeded,
    }
}

#[test]
fn real_signature_stack_settles_payments() {
    let (mut cluster, layout) = schnorr_cluster(4, cfg());
    let p = Payment::new(0u64, 0u64, 1u64, 30u64);
    let rep = layout.representative_of(p.spender);
    let step = cluster.node_mut(rep.0 as usize).submit(p).unwrap();
    cluster.submit_step(rep, step);
    cluster.run_to_quiescence();
    for i in 0..4 {
        assert_eq!(cluster.settled(i).len(), 1, "replica {i}");
        assert_eq!(cluster.node(i).balance(ClientId(0)), Amount(70));
    }
}

#[test]
fn forged_credit_bundle_is_rejected_with_real_signatures() {
    let (mut cluster, layout) = schnorr_cluster(4, cfg());
    // An attacker (replica 3's identity is claimed, but the signature is
    // made with a key outside the system) sends a CREDIT for money that
    // was never settled.
    let fake = Payment::new(9u64, 0u64, 1u64, 1_000_000u64);
    let bundle = vec![fake];
    let outsider = Keychain::deterministic_system(b"attacker", 4);
    let bad_sig = SchnorrAuthenticator::new(outsider[3].clone()).sign(&credit_context(&bundle));
    let rep1 = layout.representative_of(ClientId(1));
    cluster.inject(ReplicaId(3), rep1, Astro2Msg::Credit(CreditBundle { bundle, sig: bad_sig }));
    cluster.run_to_quiescence();
    assert_eq!(cluster.node(rep1.0 as usize).held_certificates(ClientId(1)), 0);
    assert_eq!(
        cluster.node(rep1.0 as usize).available_balance(ClientId(1)),
        Amount(100),
        "forged credit must not inflate the balance"
    );
}

#[test]
fn fewer_than_f_plus_one_credits_never_certify() {
    let (mut cluster, layout) = schnorr_cluster(4, cfg());
    // One *genuine* replica signature is still below the f+1 = 2 bar.
    let fake = Payment::new(9u64, 0u64, 1u64, 50u64);
    let bundle = vec![fake];
    let chains = Keychain::deterministic_system(b"byz-integration", 4);
    let sig = SchnorrAuthenticator::new(chains[2].clone()).sign(&credit_context(&bundle));
    let rep1 = layout.representative_of(ClientId(1));
    cluster.inject(ReplicaId(2), rep1, Astro2Msg::Credit(CreditBundle { bundle, sig }));
    cluster.run_to_quiescence();
    assert_eq!(cluster.node(rep1.0 as usize).held_certificates(ClientId(1)), 0);
}

#[test]
fn byzantine_representative_equivocation_cannot_split_the_shard() {
    // The representative signs two conflicting batches for the same
    // broadcast slot; the signed BRB lets at most one commit, so replicas
    // can never settle different payments for the same xlog position.
    let (mut cluster, layout) = schnorr_cluster(4, cfg());
    let rep = layout.representative_of(ClientId(0));
    let id = InstanceId { source: u64::from(rep.0), tag: 0 };
    let batch = |beneficiary: u64| DepBatch::<astro_crypto::Signature> {
        entries: vec![DepPayment {
            payment: Payment::new(0u64, 0u64, beneficiary, 40u64),
            deps: vec![],
        }],
    };
    // Conflicting prepares split 2/2.
    for (to, b) in [(0u32, 1u64), (1, 1), (2, 2), (3, 2)] {
        cluster.inject(
            rep,
            ReplicaId(to),
            Astro2Msg::Brb(SignedMsg::Prepare { id, payload: batch(b) }),
        );
    }
    cluster.run_to_quiescence();
    let mut beneficiaries = std::collections::HashSet::new();
    for i in 0..4 {
        for p in cluster.settled(i) {
            beneficiaries.insert(p.beneficiary);
        }
    }
    assert!(beneficiaries.len() <= 1, "split-brain settle: {beneficiaries:?}");
}

#[test]
fn forged_certificate_is_rejected_and_never_cached() {
    // The verified-certificate cache must only ever hold certificates
    // whose signatures actually verified: an attacker-crafted certificate
    // (outsider keys signing an inflated bundle) is rejected on every
    // settle attempt, never admitted, and does not poison later lookups —
    // while the genuine certificate for the same funds still works.
    use astro_core::batch::DependencyCertificate;
    let (mut cluster, layout) = schnorr_cluster(4, cfg());
    // A real payment 0 → 1 produces a genuine certificate at 1's rep.
    let p = Payment::new(0u64, 0u64, 1u64, 30u64);
    let rep = layout.representative_of(p.spender);
    let step = cluster.node_mut(rep.0 as usize).submit(p).unwrap();
    cluster.submit_step(rep, step);
    cluster.run_to_quiescence();

    // Forge a certificate over invented money with outsider keys claiming
    // in-group replica ids.
    let fake_bundle = vec![Payment::new(9u64, 0u64, 1u64, 1_000_000u64)];
    let ctx = credit_context(&fake_bundle);
    let outsiders = Keychain::deterministic_system(b"cert-forger", 4);
    let forged = DependencyCertificate {
        bundle: fake_bundle,
        proofs: (0..2u32)
            .map(|i| {
                (ReplicaId(i), SchnorrAuthenticator::new(outsiders[i as usize].clone()).sign(&ctx))
            })
            .collect(),
    };

    // A throwaway client (5, same representative as 1) attaches the
    // forged certificate to two consecutive overdrafts: the second
    // attempt exercises the cache-lookup path for a cert that already
    // failed once (a poisoned cache would admit it then).
    let rep5 = layout.representative_of(ClientId(5));
    for seq in [0u64, 1] {
        let node = cluster.node_mut(rep5.0 as usize);
        let step = node.debug_submit_with_deps(
            Payment::new(5u64, seq, 2u64, 500_000u64),
            vec![forged.clone()],
        );
        cluster.submit_step(rep5, step);
        cluster.run_to_quiescence();
        for i in 0..4 {
            assert!(
                cluster.node(i).cert_cache().is_empty(),
                "replica {i}: forged cert entered the verified cache"
            );
        }
    }
    for i in 0..4 {
        assert_eq!(cluster.settled(i).len(), 1, "replica {i}: only the honest payment settled");
    }

    // The genuine certificate still verifies, settles client 1's spend,
    // and lands in the cache.
    let p2 = Payment::new(1u64, 0u64, 3u64, 120u64); // needs the 30 credit
    let rep1 = layout.representative_of(ClientId(1));
    let step = cluster.node_mut(rep1.0 as usize).submit(p2).unwrap();
    cluster.submit_step(rep1, step);
    cluster.run_to_quiescence();
    for i in 0..4 {
        assert_eq!(cluster.settled(i).len(), 2, "replica {i}");
        assert_eq!(
            cluster.node(i).cert_cache().len(),
            1,
            "replica {i}: the genuine cert is cached"
        );
    }
}

#[test]
fn off_curve_proof_costs_its_certificate_not_the_frame() {
    // A signature decodes on range checks alone; an R with no point on
    // the curve is a *verification* failure. So a PREPARE carrying one
    // such proof still decodes (the whole batch used to die at decode),
    // the certificate it sits in falls below f+1 and is skipped, and the
    // same payment's sound certificate still materialises.
    use astro_core::batch::DependencyCertificate;
    use astro_types::wire::{decode_exact, Wire};

    let (mut cluster, layout) = schnorr_cluster(4, cfg());
    let chains = Keychain::deterministic_system(b"byz-integration", 4);
    let certify = |payment: Payment| {
        let bundle = vec![payment];
        let ctx = credit_context(&bundle);
        let proofs = (0..2u32)
            .map(|i| {
                (ReplicaId(i), SchnorrAuthenticator::new(chains[i as usize].clone()).sign(&ctx))
            })
            .collect();
        DependencyCertificate { bundle, proofs }
    };
    let sound = certify(Payment::new(7u64, 0u64, 5u64, 300u64));
    let mut broken = certify(Payment::new(8u64, 0u64, 5u64, 400u64));
    // x = 5: in range, and 5³ + 7 is not a square mod p.
    let mut bytes = broken.proofs[1].1.to_bytes();
    bytes[1..33].fill(0);
    bytes[32] = 5;
    broken.proofs[1].1 = astro_crypto::Signature::from_bytes(&bytes).expect("decode checks range");

    // 100 genesis + 300 certified covers 350; the 400 behind the broken
    // certificate must not.
    let rep5 = layout.representative_of(ClientId(5));
    let step = cluster.node_mut(rep5.0 as usize).debug_submit_with_deps(
        Payment::new(5u64, 0u64, 2u64, 350u64),
        vec![broken.clone(), sound.clone()],
    );
    let prepare = step
        .outbound
        .iter()
        .map(|env| &env.msg)
        .find(|m| matches!(m, Astro2Msg::Brb(SignedMsg::Prepare { .. })))
        .expect("the batch is broadcast")
        .clone();
    let decoded: Astro2Msg<astro_crypto::Signature> =
        decode_exact(&prepare.to_wire_bytes()).expect("the frame survives decode");
    assert_eq!(decoded, prepare);

    cluster.submit_step(rep5, step);
    cluster.run_to_quiescence();
    for i in 0..4 {
        assert_eq!(cluster.settled(i).len(), 1, "replica {i}: the sound certificate funds it");
        assert_eq!(cluster.node(i).balance(ClientId(5)), Amount(50), "replica {i}");
        assert_eq!(cluster.node(i).cert_cache().len(), 1, "replica {i}: only `sound` is cached");
    }
}

/// Polls replica `i` until `client`'s available balance (ledger +
/// certified credits) reaches `want`.
fn wait_available(
    cluster: &astro_runtime::AstroTwoCluster,
    i: usize,
    client: ClientId,
    want: u64,
    timeout: std::time::Duration,
) -> bool {
    let deadline = std::time::Instant::now() + timeout;
    while std::time::Instant::now() < deadline {
        if let Ok((_, available)) = cluster.probe_balance(i, client) {
            if available.0 >= want {
                return true;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    false
}

#[test]
fn tcp_byzantine_donor_cannot_forge_acks_or_corrupt_credit_replay() {
    // The reliable-delivery stack under an *insider* attack over real TCP.
    // Replica 3's machine is compromised after it helped settle: the
    // attacker holds its genuine transport and signing keys, takes over
    // its mesh seat, and tries to (a) discharge the honest donors' retry
    // outboxes with forged CREDIT acks, (b) inflate balances with a
    // well-signed CREDIT for money that never settled, (c) confuse the
    // restarted representative with corrupted, duplicated, and garbage
    // frames. None of it may stick: the honest donors' retransmit/replay
    // path alone must recover the beneficiary's certificates.
    use astro_core::batch::credit_ack_context;
    use astro_net::{Endpoint, TcpEndpoint};
    use astro_obs::Registry;
    use astro_runtime::{demo_keychains, AstroTwoCluster};
    use astro_types::wire::{decode_exact, Wire};
    use std::net::TcpListener;
    use std::time::{Duration, Instant};

    type Msg = Astro2Msg<astro_crypto::Signature>;

    let registry = Registry::new();
    let transport = demo_keychains(4);
    let cluster_cfg = Astro2Config {
        batch_size: 1,
        initial_balance: Amount(1_000),
        credit_mode: CreditMode::Certificates,
        dep_policy: DepPolicy::WhenNeeded,
    };
    let mut cluster = AstroTwoCluster::start_tcp_with_keychains_observed(
        transport.clone(),
        cluster_cfg,
        Duration::from_millis(1),
        Some(registry.clone()),
    )
    .unwrap();
    let addrs = cluster.listen_addrs().unwrap();
    let signing = cluster.signing_keychains().unwrap();

    // Client 1's representative is down while client 0 pays it: the
    // CREDIT sub-batches land in the settling replicas' retry outboxes.
    cluster.kill_replica(1).unwrap();
    const PAYMENTS: u64 = 8;
    let wave: Vec<Payment> =
        (0..PAYMENTS).map(|seq| Payment::new(0u64, seq, 1u64, 10u64)).collect();
    for p in &wave {
        cluster.submit(*p).unwrap();
    }
    assert!(
        cluster.wait_settled_among(&[0, 2, 3], PAYMENTS as usize, Duration::from_secs(30)),
        "live quorum settles while the beneficiary representative is down"
    );

    // Replica 3 falls to the attacker: kill the honest process and bring
    // up a hand-driven endpoint on its listen address with its real key
    // material. Peers re-dial and authenticate it as replica 3.
    cluster.kill_replica(3).unwrap();
    let listener = {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match TcpListener::bind(addrs[3]) {
                Ok(l) => break l,
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(25))
                }
                Err(e) => panic!("replica 3's port never freed: {e}"),
            }
        }
    };
    let peer_addrs = (0..4).map(|i| if i == 3 { None } else { Some(addrs[i]) }).collect::<Vec<_>>();
    let mut byz = TcpEndpoint::establish(transport[3].clone(), listener, peer_addrs).unwrap();
    let byz_signer = SchnorrAuthenticator::new(signing[3].clone());

    // Retries until the peer's maintenance pass re-dials seat 3.
    let send_to = |byz: &mut TcpEndpoint, to: u32, bytes: &[u8]| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while byz.send(ReplicaId(to), bytes).is_err() {
            assert!(Instant::now() < deadline, "link to replica {to} never came up");
            std::thread::sleep(Duration::from_millis(25));
        }
    };

    // (a) Forged acks: correctly signed by replica 3 over the *real*
    // outbox digests — but the entries are destined to replica 1, and an
    // ack only counts from its destination. Donors must keep retrying.
    let digests: Vec<[u8; 32]> =
        wave.iter().map(|p| credit_context(&[*p]).as_slice().try_into().unwrap()).collect();
    for &donor in &[0u32, 2] {
        // One batched ack covering every digest, and one per digest —
        // neither form may discharge entries destined to replica 1.
        let sig = byz_signer.sign(&credit_ack_context(&digests));
        let ack = Msg::CreditAck { digests: digests.clone(), sig };
        send_to(&mut byz, donor, &ack.to_wire_bytes());
        for digest in &digests {
            let sig = byz_signer.sign(&credit_ack_context(std::slice::from_ref(digest)));
            let ack = Msg::CreditAck { digests: vec![*digest], sig };
            send_to(&mut byz, donor, &ack.to_wire_bytes());
        }
    }
    // (b) A CREDIT for money that never settled, signed with replica 3's
    // genuine protocol key, plus (c) corrupted and garbage frames.
    let phantom = Payment::new(9u64, 0u64, 5u64, 1_000_000u64);
    let phantom_bundle = vec![phantom];
    let phantom_credit = Msg::Credit(CreditBundle {
        sig: byz_signer.sign(&credit_context(&phantom_bundle)),
        bundle: phantom_bundle.clone(),
    });
    let outsider =
        SchnorrAuthenticator::new(Keychain::deterministic_system(b"tcp-attacker", 4)[3].clone());
    let corrupted = Msg::Credit(CreditBundle {
        sig: outsider.sign(&credit_context(&phantom_bundle)),
        bundle: phantom_bundle,
    });
    for &to in &[0u32, 2] {
        send_to(&mut byz, to, &phantom_credit.to_wire_bytes());
        send_to(&mut byz, to, &corrupted.to_wire_bytes());
        send_to(&mut byz, to, b"not a protocol frame");
    }

    // Give the donors time to process the attack, then check nothing
    // stuck: no forged ack was accepted, every outbox entry survives.
    std::thread::sleep(Duration::from_millis(600));
    let snap = registry.snapshot();
    for donor in [0, 2] {
        assert_eq!(
            snap.counter(&format!("core.r{donor}.credit_acks")).unwrap_or(0),
            0,
            "donor {donor} accepted a forged ack"
        );
        assert_eq!(
            snap.gauge(&format!("core.r{donor}.outbox_depth")),
            Some(PAYMENTS),
            "donor {donor} dropped outbox entries on forged acks"
        );
    }

    // The honest representative returns (empty — non-durable restart) and
    // recovers through peer catch-up plus CREDIT replay, with the
    // attacker still spamming its seat.
    cluster.restart_replica(1).unwrap();
    let attack = [
        // Duplicates of a *genuine* CREDIT (replica 3 really settled the
        // wave): idempotent, must not double-materialize.
        Msg::Credit(CreditBundle {
            sig: byz_signer.sign(&credit_context(&[wave[0]])),
            bundle: vec![wave[0]],
        })
        .to_wire_bytes(),
        phantom_credit.to_wire_bytes(),
        corrupted.to_wire_bytes(),
        b"garbage mid-recovery".to_vec(),
    ];
    let mut saw_credit_request = false;
    let spam_deadline = Instant::now() + Duration::from_secs(3);
    while Instant::now() < spam_deadline {
        for bytes in &attack {
            // Best-effort: replica 1 dials seat 3 as part of coming back.
            let _ = byz.send(ReplicaId(1), bytes);
        }
        // The replay protocol treats seat 3 as a donor too: the restarted
        // representative must ask it for missing CREDITs.
        if let Ok(Some((from, payload))) = byz.recv_timeout(Duration::from_millis(50)) {
            if from == ReplicaId(1) {
                if let Ok(Msg::CreditRequest { .. }) = decode_exact::<Msg>(&payload) {
                    saw_credit_request = true;
                }
            }
        }
        if saw_credit_request
            && wait_available(&cluster, 1, ClientId(1), 1_000 + PAYMENTS * 10, Duration::ZERO)
        {
            break;
        }
    }
    assert!(saw_credit_request, "restarted representative never asked donors for replay");

    // The two honest donors are exactly f+1: their replayed signatures
    // alone must certify every credit at the restarted representative.
    assert!(
        wait_available(&cluster, 1, ClientId(1), 1_000 + PAYMENTS * 10, Duration::from_secs(30)),
        "replayed CREDITs never certified at the restarted representative"
    );
    let (_, phantom_avail) = cluster.probe_balance(1, ClientId(5)).unwrap();
    assert_eq!(phantom_avail, Amount(1_000), "phantom CREDIT inflated a balance");

    // The credits are spendable: client 1 pays over its ledger balance,
    // fundable only with the recovered certificates. Settles on the
    // honest quorum {0, 1, 2} — the attacker's seat contributes nothing.
    cluster.submit(Payment::new(1u64, 0u64, 2u64, 1_050u64)).unwrap();
    assert!(
        cluster.wait_settled_among(&[0, 1, 2], PAYMENTS as usize + 1, Duration::from_secs(30)),
        "certificate-funded spend settles on the honest quorum"
    );

    // Genuine acks from the restarted representative drain the donors'
    // outboxes — retry stops when (and only when) the destination acked.
    let drained = {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let snap = registry.snapshot();
            let depths: Vec<u64> = [0, 2]
                .iter()
                .map(|&d| snap.gauge(&format!("core.r{d}.outbox_depth")).unwrap_or(u64::MAX))
                .collect();
            if depths.iter().all(|&d| d == 0) {
                break true;
            }
            if Instant::now() >= deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    };
    assert!(drained, "donor outboxes never drained after genuine acks");
    let snap = registry.snapshot();
    for donor in [0, 2] {
        assert!(
            snap.counter(&format!("core.r{donor}.credit_acks")).unwrap_or(0) >= 1,
            "donor {donor} recorded no genuine ack"
        );
        assert!(
            snap.counter(&format!("core.r{donor}.credit_replays")).unwrap_or(0) >= 1,
            "donor {donor} never replayed for the restarted representative"
        );
    }

    // Byte-identical convergence across the honest replicas, with the
    // attacker's inflation attempts invisible in the final balances.
    drop(byz);
    let finals = cluster.shutdown();
    let (reference, settled) = &finals[0];
    assert_eq!(*settled, PAYMENTS as usize + 1);
    for i in [1usize, 2] {
        assert_eq!(finals[i].0, *reference, "replica {i} diverged");
        assert_eq!(finals[i].1, PAYMENTS as usize + 1, "replica {i} settle count");
    }
    assert_eq!(reference[&ClientId(0)], Amount(1_000 - PAYMENTS * 10));
    assert_eq!(
        reference[&ClientId(1)],
        Amount(1_000 + PAYMENTS * 10 - 1_050),
        "client 1 spent exactly its ledger plus recovered credits"
    );
}

#[test]
fn stolen_certificate_cannot_be_spent_by_another_client() {
    // Client 0 pays client 1; client 2's representative grabs the CREDIT
    // bundle traffic but must not be able to credit client 2 with it:
    // certificates only credit the payments' beneficiaries.
    let (mut cluster, layout) = schnorr_cluster(4, cfg());
    let p = Payment::new(0u64, 0u64, 1u64, 30u64);
    let rep = layout.representative_of(p.spender);
    let step = cluster.node_mut(rep.0 as usize).submit(p).unwrap();
    cluster.submit_step(rep, step);
    cluster.run_to_quiescence();
    // Client 2 tries to overdraw; its representative has no certificate
    // that credits client 2, so the attempt fails deterministically.
    let p2 = Payment::new(2u64, 0u64, 3u64, 130u64);
    let rep2 = layout.representative_of(ClientId(2));
    let before = cluster.node(rep2.0 as usize).available_balance(ClientId(2));
    assert_eq!(before, Amount(100), "no stolen credit");
    let step = cluster.node_mut(rep2.0 as usize).submit(p2).unwrap();
    cluster.submit_step(rep2, step);
    cluster.run_to_quiescence();
    for i in 0..4 {
        assert!(
            cluster.settled(i).iter().all(|p| p.spender != ClientId(2)),
            "overdraft with someone else's credit settled at replica {i}"
        );
    }
}
