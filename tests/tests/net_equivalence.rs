//! Transport equivalence: the same payment workload settled over loopback
//! TCP (HMAC-authenticated sessions, real sockets) must produce final
//! state byte-identical to the in-process channel transport — the replica
//! state machines cannot tell which link layer carried their messages.

use astro_core::astro1::Astro1Config;
use astro_core::astro2::{Astro2Config, CreditMode};
use astro_runtime::{AstroOneCluster, AstroTwoCluster, ClusterError};
use astro_types::{Amount, ClientId, Payment, SeqNo};
use std::collections::HashMap;
use std::time::Duration;

const FLUSH: Duration = Duration::from_millis(1);
const SETTLE: Duration = Duration::from_secs(30);

/// Three clients, interleaved streams, chained spending — the same
/// workload the threaded-runtime tests use.
fn workload() -> Vec<Payment> {
    let mut out = Vec::new();
    for seq in 0..15u64 {
        out.push(Payment::new(1u64, seq, 2u64, 3u64));
        out.push(Payment::new(2u64, seq, 3u64, 2u64));
        out.push(Payment::new(3u64, seq, 1u64, 1u64));
    }
    out
}

type Finals = Vec<(HashMap<ClientId, Amount>, usize)>;

fn run_astro1(tcp: bool, payments: &[Payment]) -> Finals {
    let cfg = Astro1Config { batch_size: 4, initial_balance: Amount(500) };
    let cluster = if tcp {
        AstroOneCluster::start_tcp(4, cfg, FLUSH)
    } else {
        AstroOneCluster::start(4, cfg, FLUSH)
    }
    .expect("cluster starts");
    for p in payments {
        cluster.submit(*p).expect("cluster accepts payments");
    }
    assert!(cluster.wait_settled(payments.len(), SETTLE), "all payments settle");
    cluster.shutdown()
}

/// The acceptance bar for the transport subsystem: a 4-replica Astro I
/// cluster settling over loopback TCP finishes with final balances
/// byte-identical to the identical workload over in-process channels.
#[test]
fn astro1_tcp_matches_inproc_exactly() {
    let payments = workload();
    let inproc = run_astro1(false, &payments);
    let tcp = run_astro1(true, &payments);
    assert_eq!(inproc.len(), tcp.len());
    for (i, ((b_in, c_in), (b_tcp, c_tcp))) in inproc.iter().zip(&tcp).enumerate() {
        assert_eq!(c_in, c_tcp, "settled counts diverge at replica {i}");
        assert_eq!(b_in, b_tcp, "balances diverge at replica {i}");
    }
    // And the balances are the arithmetically expected ones.
    let expected: HashMap<ClientId, Amount> = [
        (ClientId(1), Amount(500 - 15 * 3 + 15)),
        (ClientId(2), Amount(500 + 15 * 3 - 15 * 2)),
        (ClientId(3), Amount(500 + 15 * 2 - 15)),
    ]
    .into_iter()
    .collect();
    assert_eq!(tcp[0].0, expected);
}

#[test]
fn astro2_settles_over_tcp_with_real_signatures() {
    let cfg = Astro2Config {
        batch_size: 4,
        initial_balance: Amount(300),
        credit_mode: CreditMode::DirectIntraShard,
        ..Astro2Config::default()
    };
    let run = |tcp: bool| -> Finals {
        let cluster = if tcp {
            AstroTwoCluster::start_tcp(4, cfg.clone(), FLUSH)
        } else {
            AstroTwoCluster::start(4, cfg.clone(), FLUSH)
        }
        .expect("cluster starts");
        for seq in 0..12u64 {
            cluster.submit(Payment::new(1u64, seq, 2u64, 10u64)).unwrap();
        }
        assert!(cluster.wait_settled(12, SETTLE));
        cluster.shutdown()
    };
    let inproc = run(false);
    let tcp = run(true);
    for ((b_in, c_in), (b_tcp, c_tcp)) in inproc.iter().zip(&tcp) {
        assert_eq!(c_in, c_tcp);
        assert_eq!(b_in, b_tcp);
        assert_eq!(b_tcp[&ClientId(1)], Amount(180));
        assert_eq!(b_tcp[&ClientId(2)], Amount(420));
    }
}

#[test]
fn tcp_cluster_recovers_sequence_gaps_like_inproc() {
    // Out-of-order submission exercises the pending queue over TCP.
    let cluster = AstroOneCluster::start_tcp(
        4,
        Astro1Config { batch_size: 2, initial_balance: Amount(100) },
        FLUSH,
    )
    .expect("tcp cluster starts");
    for seq in [2u64, 1, 0] {
        cluster.submit(Payment::new(5u64, seq, 6u64, 10u64)).unwrap();
    }
    assert!(cluster.wait_settled(3, SETTLE));
    // An xlog only ever appends its next sequence number, so three
    // settled payments of client 5 are seqs 0, 1, 2 in that order.
    for i in 0..4 {
        let probe = cluster.probe(i, ClientId(5)).unwrap();
        assert_eq!(probe.next_seq, SeqNo(3), "replica {i}: settlement must follow xlog order");
    }
    let finals = cluster.shutdown();
    assert_eq!(finals[0].0[&ClientId(5)], Amount(70));
    assert_eq!(finals[0].0[&ClientId(6)], Amount(130));
}

#[test]
fn undersized_clusters_are_rejected_not_panicked() {
    for n in 0..4 {
        assert!(matches!(
            AstroOneCluster::start(n, Astro1Config::default(), FLUSH),
            Err(ClusterError::TooSmall { .. })
        ));
        assert!(matches!(
            AstroOneCluster::start_tcp(n, Astro1Config::default(), FLUSH),
            Err(ClusterError::TooSmall { .. })
        ));
    }
}
