//! `crypto`: Schnorr sign / verify / batch verify and SHA-256.

use super::Metrics;
use crate::trace::Spans;
use astro_crypto::schnorr::batch_verify;
use astro_crypto::sha256::sha256;
use astro_crypto::{Keypair, PublicKey, Signature};
use std::hint::black_box;

const SIGN_ITERS: u64 = 2_000;
const VERIFY_ITERS: u64 = 1_000;
const BATCH32_ITERS: u64 = 40;
const BATCH3_ITERS: u64 = 400;
const SHA_ITERS: u64 = 40_000;

/// `k` signatures by `k` signers over distinct 32-byte messages — the
/// shape of a verify-pool super-batch.
fn signed_items(k: usize) -> Vec<(Vec<u8>, PublicKey, Signature)> {
    (0..k)
        .map(|i| {
            let kp = Keypair::from_seed(&(i as u64).to_be_bytes());
            let msg = sha256(&(i as u64).to_le_bytes()).to_vec();
            let sig = kp.sign(&msg);
            (msg, *kp.public(), sig)
        })
        .collect()
}

fn batch_us_per_sig(name: &str, k: usize, iters: u64, spans: &mut Spans) -> f64 {
    let items = signed_items(k);
    let borrowed: Vec<(&[u8], PublicKey, Signature)> =
        items.iter().map(|(m, p, s)| (m.as_slice(), *p, *s)).collect();
    let (ok, ns) = spans.time(name, |_| {
        let mut ok = true;
        for _ in 0..iters {
            ok &= batch_verify(black_box(&borrowed));
        }
        ok
    });
    assert!(ok, "batch of valid signatures verifies");
    ns as f64 / (iters * k as u64) as f64 / 1e3
}

pub fn run(spans: &mut Spans, m: &mut Metrics) {
    let kp = Keypair::from_seed(b"payment_path");
    // What Astro II signs: a 32-byte batch digest.
    let msg = sha256(b"a 64-payment batch").to_vec();
    let (_, ns) = spans.time("schnorr.sign", |_| {
        for _ in 0..SIGN_ITERS {
            black_box(kp.sign(black_box(&msg)));
        }
    });
    m.insert("schnorr.sign_us", ns as f64 / SIGN_ITERS as f64 / 1e3);

    let sig = kp.sign(&msg);
    let (ok, ns) = spans.time("schnorr.verify", |_| {
        let mut ok = true;
        for _ in 0..VERIFY_ITERS {
            ok &= kp.public().verify(black_box(&msg), black_box(&sig));
        }
        ok
    });
    assert!(ok, "a valid signature verifies");
    m.insert("schnorr.verify_us", ns as f64 / VERIFY_ITERS as f64 / 1e3);

    let us = batch_us_per_sig("schnorr.batch32", 32, BATCH32_ITERS, spans);
    m.insert("schnorr.batch32_us_per_sig", us);
    // A 2f+1 = 3 signature proof: a commit proof or a certificate.
    let us = batch_us_per_sig("schnorr.batch3", 3, BATCH3_ITERS, spans);
    m.insert("schnorr.batch3_us_per_sig", us);

    let kib = vec![0xabu8; 1024];
    let (_, ns) = spans.time("sha256.1KiB", |_| {
        for _ in 0..SHA_ITERS {
            black_box(sha256(black_box(&kib)));
        }
    });
    m.insert("sha256.ns_per_kib", ns as f64 / SHA_ITERS as f64);
}
