//! Verify-pipeline equivalence: the same payment workload settled with
//! the parallel verification pool must produce final state byte-identical
//! to serial (on-thread) verification — the pool only moves *where*
//! signature checks run, never what they decide, so the replica state
//! machines cannot tell the difference.

use astro_core::astro2::{Astro2Config, CreditMode};
use astro_runtime::{AstroTwoCluster, VerifyMode};
use astro_types::{Amount, ClientId, Payment};
use std::collections::HashMap;
use std::time::Duration;

const N: usize = 4;
const FLUSH: Duration = Duration::from_millis(1);
const SETTLE: Duration = Duration::from_secs(30);

/// Interleaved streams with chained spending, so commits, CREDITs, and
/// (via the WhenNeeded policy under tight balances) dependency
/// certificates all cross the wire.
fn workload() -> Vec<Payment> {
    let mut out = Vec::new();
    for seq in 0..20u64 {
        out.push(Payment::new(1u64, seq, 2u64, 3u64));
        out.push(Payment::new(2u64, seq, 3u64, 2u64));
        out.push(Payment::new(3u64, seq, 1u64, 1u64));
    }
    out
}

type Finals = Vec<(HashMap<ClientId, Amount>, usize)>;

fn run(mode: VerifyMode, cfg: Astro2Config, payments: &[Payment]) -> Finals {
    let cluster =
        AstroTwoCluster::builder(N, cfg, FLUSH).verify(mode).start().expect("cluster starts");
    for p in payments {
        cluster.submit(*p).expect("submit");
    }
    assert!(cluster.wait_settled(payments.len(), SETTLE), "all payments settle under {mode:?}");
    cluster.shutdown()
}

/// Canonical byte serialization of a run's outcome, so "byte-identical"
/// is literal: sorted (client, balance) pairs plus the settled count per
/// replica.
fn canonical_bytes(finals: &Finals) -> Vec<u8> {
    let mut out = Vec::new();
    for (balances, count) in finals {
        let mut entries: Vec<(ClientId, Amount)> = balances.iter().map(|(c, a)| (*c, *a)).collect();
        entries.sort_unstable_by_key(|(c, _)| *c);
        out.extend_from_slice(&(*count as u64).to_be_bytes());
        for (c, a) in entries {
            out.extend_from_slice(&c.0.to_be_bytes());
            out.extend_from_slice(&a.0.to_be_bytes());
        }
    }
    out
}

#[test]
fn pooled_verification_settles_byte_identically_to_serial() {
    let cfg = Astro2Config {
        batch_size: 4,
        initial_balance: Amount(1_000),
        credit_mode: CreditMode::DirectIntraShard,
        ..Astro2Config::default()
    };
    let payments = workload();
    let serial = run(VerifyMode::Serial, cfg.clone(), &payments);
    let pooled = run(VerifyMode::Pooled { threads: 3 }, cfg, &payments);
    assert_eq!(
        canonical_bytes(&serial),
        canonical_bytes(&pooled),
        "pooled and serial verification must settle identical final state"
    );
    // And every replica agrees within each run.
    for finals in [&serial, &pooled] {
        for (balances, count) in finals.iter().skip(1) {
            assert_eq!(balances, &finals[0].0);
            assert_eq!(count, &finals[0].1);
        }
    }
}

#[test]
fn pooled_verification_converges_in_certificate_mode() {
    // Certificate mode: beneficiaries are credited through CREDIT
    // messages and f+1-signature dependency certificates — the heaviest
    // signature traffic the pipeline carries (commit proofs, CREDIT
    // signatures, and certificate proofs all cross the pool). Which
    // certificates a representative has *attached* by shutdown is
    // timing-dependent in any threaded run (serial included), so the
    // cross-run byte comparison lives in the direct-credit test above;
    // here every replica of the pooled run must settle everything and
    // converge to identical state.
    let cfg = Astro2Config {
        batch_size: 2,
        initial_balance: Amount(1_000),
        credit_mode: CreditMode::Certificates,
        dep_policy: astro_core::astro2::DepPolicy::Always,
    };
    let finals = run(VerifyMode::auto(), cfg, &workload());
    for (balances, count) in finals.iter().skip(1) {
        assert_eq!(count, &finals[0].1, "settled counts diverge");
        assert_eq!(balances, &finals[0].0, "balances diverge");
    }
}
