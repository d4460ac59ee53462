//! Property-based tests: BRB safety and liveness must hold under *every*
//! message schedule and every Byzantine equivocation pattern.

use astro_brb::bracha::{BrachaBrb, BrachaMsg};
use astro_brb::signed::{Digested, SignedBrb, SignedMsg};
use astro_brb::testkit::Cluster;
use astro_brb::{BrbConfig, DeliveryOrder, InstanceId};
use astro_types::{Group, MacAuthenticator, ReplicaId, SystemConfig};
use proptest::prelude::*;
use std::collections::HashSet;

fn bracha_cluster(n: usize) -> Cluster<BrachaBrb<u64>> {
    let cfg = Group::of_size(n).unwrap();
    Cluster::new(
        (0..n).map(|i| BrachaBrb::new(ReplicaId(i as u32), cfg.clone(), BrbConfig::default())),
    )
}

fn signed_cluster(n: usize) -> Cluster<SignedBrb<u64, MacAuthenticator>> {
    let cfg = Group::of_size(n).unwrap();
    Cluster::new((0..n).map(|i| {
        SignedBrb::new(
            MacAuthenticator::new(ReplicaId(i as u32), b"prop".to_vec()),
            cfg.clone(),
            BrbConfig { order: DeliveryOrder::Unordered, ..BrbConfig::default() },
        )
    }))
}

/// Everything node `i` sends on its retry timer, as if the timer fired
/// once; `false` once it has nothing left to ask for.
fn fire_retry_timer(c: &mut Cluster<BrachaBrb<u64>>, i: usize) -> bool {
    let (outbound, _) = c.node_mut(i).retry_pulls();
    let asked = !outbound.is_empty();
    c.submit(ReplicaId(i as u32), astro_brb::Step { outbound, delivered: Vec::new() });
    asked
}

/// The ways a payload can fail to reach a replica that must still
/// deliver it.
#[derive(Debug, Clone, Copy)]
enum Loss {
    /// Up to `f` replicas are down from the start.
    Crashes,
    /// The broadcaster (the one faulty member) withholds its PREPARE from
    /// up to `f` correct replicas.
    WithheldPrepare,
    /// One replica's link drops every PREPARE and the first ANSWER of
    /// every peer: only the timer-driven retry gets the payload through.
    LossyLink,
    /// One replica's link drops the PREPARE, and up to `f` of the
    /// replicas it asks have crashed since they voted: they never answer.
    SilentVouchers,
}

const LOSSES: [Loss; 4] =
    [Loss::Crashes, Loss::WithheldPrepare, Loss::LossyLink, Loss::SilentVouchers];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Consistency, totality and integrity for Bracha: a Byzantine
    /// broadcaster hands each replica one of two conflicting payloads;
    /// under any schedule, the correct replicas deliver at most one
    /// distinct payload, each at most once, and if any delivers then all
    /// deliver (links reliable here) — those that echoed the other
    /// payload, or none, by fetching the quorum's.
    #[test]
    fn bracha_agreement_and_totality_under_equivocation(
        n in 4usize..=7,
        assignment in proptest::collection::vec(prop::bool::ANY, 7),
        seed in 1u64..u64::MAX,
    ) {
        let mut c = bracha_cluster(n);
        let id = InstanceId { source: 42, tag: 0 };
        // Replica 0 is Byzantine: payload 1 or 2 per receiver.
        for r in 1..n {
            let payload = if assignment[r - 1] { 1 } else { 2 };
            c.inject(ReplicaId(0), ReplicaId(r as u32), BrachaMsg::Prepare { id, payload });
        }
        c.run_to_quiescence_shuffled(seed);

        let mut delivered_payloads = HashSet::new();
        let mut deliver_count = 0usize;
        for i in 1..n {
            // Integrity: at most once, and only a payload that was sent.
            prop_assert!(c.deliveries(i).len() <= 1, "replica {} delivered twice", i);
            for d in c.deliveries(i) {
                prop_assert!(d.payload == 1 || d.payload == 2);
                delivered_payloads.insert(d.payload);
                deliver_count += 1;
            }
        }
        // Consistency.
        prop_assert!(delivered_payloads.len() <= 1);
        // Totality: all-or-none among the n-1 correct replicas.
        prop_assert!(deliver_count == 0 || deliver_count == n - 1,
            "partial delivery: {deliver_count}/{}", n - 1);
    }

    /// Validity and totality for Bracha: however the payload goes missing
    /// on the way to up to f replicas (see [`Loss`]), under any schedule
    /// every live correct replica delivers the broadcaster's payload,
    /// exactly once.
    #[test]
    fn bracha_reliability_with_crashes(
        n in 4usize..=10,
        selector in proptest::collection::vec(prop::num::u8::ANY, 3),
        loss in 0usize..LOSSES.len(),
        seed in 1u64..u64::MAX,
    ) {
        let loss = LOSSES[loss];
        let f = SystemConfig::new(n).unwrap().f();
        let mut c = bracha_cluster(n);
        // Up to f replicas, never the broadcaster (replica 0); the first
        // of them is the one that misses the payload.
        let picked: HashSet<usize> =
            selector.iter().take(f).map(|sel| 1 + *sel as usize % (n - 1)).collect();
        let victim = 1 + selector[0] as usize % (n - 1);
        let mut crashed = HashSet::new();
        match loss {
            Loss::Crashes => {
                for &v in &picked {
                    c.crash(ReplicaId(v as u32));
                }
                crashed = picked;
            }
            Loss::WithheldPrepare => c.set_filter(move |_, to, msg| {
                !(picked.contains(&(to.0 as usize)) && matches!(msg, BrachaMsg::Prepare { .. }))
            }),
            Loss::LossyLink => {
                let mut answered = HashSet::new();
                c.set_filter(move |from, to, msg| match msg {
                    BrachaMsg::Prepare { .. } => to.0 as usize != victim,
                    BrachaMsg::Answer { .. } if to.0 as usize == victim => !answered.insert(from),
                    _ => true,
                });
            }
            Loss::SilentVouchers => {
                // Up to f replicas other than the victim.
                let silent: HashSet<usize> = selector
                    .iter()
                    .take(f)
                    .map(|sel| (victim + 1 + *sel as usize % (n - 1)) % n)
                    .collect();
                c.set_filter(move |_, to, msg| match msg {
                    BrachaMsg::Prepare { .. } => to.0 as usize != victim,
                    BrachaMsg::Request { .. } => !silent.contains(&(to.0 as usize)),
                    _ => true,
                });
            }
        }
        let id = InstanceId { source: 1, tag: 0 };
        let step = c.node_mut(0).broadcast(id, 77);
        c.submit(ReplicaId(0), step);
        c.run_to_quiescence_shuffled(seed);
        if matches!(loss, Loss::LossyLink) {
            prop_assert!(c.deliveries(victim).is_empty(), "no ANSWER got through yet");
            prop_assert!(fire_retry_timer(&mut c, victim));
            c.run_to_quiescence_shuffled(seed);
        }
        for i in 0..n {
            if !crashed.contains(&i) {
                let payloads: Vec<u64> = c.deliveries(i).iter().map(|d| d.payload).collect();
                prop_assert_eq!(payloads, vec![77], "live replica {} must deliver once", i);
                prop_assert!(!fire_retry_timer(&mut c, i), "replica {} still pulling", i);
            }
        }
    }

    /// Consistency and integrity for the signed protocol under
    /// equivocation and any schedule: the correct replicas deliver at most
    /// one distinct payload, each at most once and only one that was sent
    /// (totality is NOT asserted — the protocol does not have it).
    #[test]
    fn signed_agreement_under_equivocation(
        n in 4usize..=7,
        assignment in proptest::collection::vec(prop::bool::ANY, 7),
        seed in 1u64..u64::MAX,
    ) {
        let mut c = signed_cluster(n);
        let id = InstanceId { source: 9, tag: 0 };
        // Replica 0 is Byzantine: payload 1 or 2 per receiver.
        for r in 1..n {
            let payload = if assignment[r - 1] { 1 } else { 2 };
            c.inject(ReplicaId(0), ReplicaId(r as u32), SignedMsg::Prepare(Digested::new(id, payload)));
        }
        c.run_to_quiescence_shuffled(seed);
        let mut delivered_payloads = HashSet::new();
        for i in 1..n {
            // Integrity: at most once, and only a payload that was sent.
            prop_assert!(c.deliveries(i).len() <= 1, "replica {} delivered twice", i);
            for d in c.deliveries(i) {
                prop_assert!(d.payload == 1 || d.payload == 2);
                delivered_payloads.insert(d.payload);
            }
        }
        // Consistency.
        prop_assert!(delivered_payloads.len() <= 1);
    }

    /// Validity for the signed protocol: with a correct broadcaster and up
    /// to f crashes, under any schedule every live replica delivers the
    /// broadcaster's payload, exactly once.
    #[test]
    fn signed_reliability_with_crashes(
        n in 4usize..=10,
        crash_selector in proptest::collection::vec(prop::num::u8::ANY, 3),
        seed in 1u64..u64::MAX,
    ) {
        let cfg = SystemConfig::new(n).unwrap();
        let f = cfg.f();
        let mut c = signed_cluster(n);
        let mut crashed = HashSet::new();
        for sel in crash_selector.iter().take(f) {
            let victim = 1 + (*sel as usize % (n - 1));
            crashed.insert(victim);
        }
        for &v in &crashed {
            c.crash(ReplicaId(v as u32));
        }
        let id = InstanceId { source: 2, tag: 0 };
        let step = c.node_mut(0).broadcast(id, 55);
        c.submit(ReplicaId(0), step);
        c.run_to_quiescence_shuffled(seed);
        for i in 0..n {
            if !crashed.contains(&i) {
                let payloads: Vec<u64> = c.deliveries(i).iter().map(|d| d.payload).collect();
                prop_assert_eq!(payloads, vec![55], "live replica {} must deliver once", i);
            }
        }
    }

    /// FIFO delivery: under any schedule, deliveries within one source are
    /// in tag order with no gaps.
    #[test]
    fn bracha_fifo_per_source_any_schedule(
        tags in proptest::collection::vec(0u64..5, 5),
        seed in 1u64..u64::MAX,
    ) {
        let mut c = bracha_cluster(4);
        // Broadcast a scrambled set of tags (duplicates allowed — they are
        // re-broadcasts of the same instance).
        for &tag in &tags {
            let step = c.node_mut(0).broadcast(InstanceId { source: 3, tag }, tag);
            c.submit(ReplicaId(0), step);
        }
        c.run_to_quiescence_shuffled(seed);
        for i in 0..4 {
            let seq: Vec<u64> = c.deliveries(i).iter().map(|d| d.id.tag).collect();
            // Must be exactly 0..k for some k (prefix, in order, no dup).
            for (expect, got) in seq.iter().enumerate() {
                prop_assert_eq!(expect as u64, *got, "replica {} delivered out of order", i);
            }
        }
    }
}

/// A fault-free run pays for the digest form with nothing: the same
/// `1 + 2n` messages reach every replica as with full-payload echoes
/// (9 per delivery at n = 4), and none of them is a REQUEST or an ANSWER.
#[test]
fn fault_free_bracha_never_fetches() {
    let mut c = bracha_cluster(4);
    c.set_filter(|_, _, msg| {
        assert!(!matches!(msg, BrachaMsg::Request { .. } | BrachaMsg::Answer { .. }), "{msg:?}");
        true
    });
    for tag in 0..8 {
        let step = c.node_mut(0).broadcast(InstanceId { source: 0, tag }, tag);
        c.submit(ReplicaId(0), step);
        c.run_to_quiescence();
    }
    let deliveries: usize = (0..4).map(|i| c.deliveries(i).len()).sum();
    assert_eq!(deliveries, 8 * 4);
    assert_eq!(c.messages_processed(), 9 * deliveries as u64);
}
