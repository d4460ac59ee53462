//! Microbenchmarks of the from-scratch cryptography.
//!
//! These numbers calibrate `astro_sim::CpuModel` (sign/verify/MAC/hash
//! costs) and back the substitution argument (Schnorr/secp256k1 here vs
//! ECDSA-P256 in the paper: same order of per-op cost). The wNAF vs naive
//! scalar-multiplication comparison is an ablation of that implementation.

use astro_bench::json::Metric;
use astro_crypto::hmac::MacKey;
use astro_crypto::point::{mul_generator, multi_scalar_mul, Affine};
use astro_crypto::scalar::Scalar;
use astro_crypto::schnorr::batch_verify;
use astro_crypto::sha256::sha256;
use astro_crypto::Keypair;
use criterion::{BatchSize, Criterion, Throughput};
use std::hint::black_box;

fn bench_hash(c: &mut Criterion) {
    let mut g = c.benchmark_group("sha256");
    for size in [64usize, 1024, 8192] {
        let data = vec![0xabu8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(format!("{size}B"), |b| {
            b.iter(|| sha256(black_box(&data)));
        });
    }
    g.finish();
}

fn bench_mac(c: &mut Criterion) {
    let key = MacKey::from_bytes([7u8; 32]);
    let msg = vec![0u8; 256];
    c.bench_function("hmac/tag_256B", |b| {
        b.iter(|| key.tag(black_box(&msg)));
    });
}

fn bench_schnorr(c: &mut Criterion) {
    let kp = Keypair::from_seed(b"bench");
    let msg = b"a typical payment batch digest ..".to_vec();
    c.bench_function("schnorr/sign", |b| {
        b.iter(|| kp.sign(black_box(&msg)));
    });
    let sig = kp.sign(&msg);
    c.bench_function("schnorr/verify", |b| {
        b.iter(|| kp.public().verify(black_box(&msg), black_box(&sig)));
    });
    // What every signature of every inbound frame pays on the replica
    // thread: range checks, no curve arithmetic.
    let bytes = sig.to_bytes();
    c.bench_function("schnorr/signature_decode", |b| {
        b.iter(|| astro_crypto::Signature::from_bytes(black_box(&bytes)));
    });
}

fn bench_field(c: &mut Criterion) {
    // The two Fermat exponentiations (fixed addition chains): `sqrt` is
    // the lift of a compressed point onto the curve (one per signature in
    // a real batch check), `invert` the Jacobian→affine normalization
    // (one per `sign`, one per `verify`).
    let x = Affine::generator().x().square(); // a full-width residue
    c.bench_function("field/sqrt", |b| {
        b.iter(|| black_box(&x).sqrt());
    });
    c.bench_function("field/invert", |b| {
        b.iter(|| black_box(&x).invert());
    });
}

type Signed = (Vec<u8>, astro_crypto::PublicKey, astro_crypto::Signature);

/// `k` signatures over distinct messages, signed round-robin by `signers`
/// keys.
fn signed_batch(k: usize, signers: usize) -> Vec<Signed> {
    let keys: Vec<Keypair> =
        (0..signers).map(|i| Keypair::from_seed(&(i as u64).to_be_bytes())).collect();
    (0..k)
        .map(|i| {
            let kp = &keys[i % signers];
            let msg = format!("payment batch {i}").into_bytes();
            let sig = kp.sign(&msg);
            (msg, *kp.public(), sig)
        })
        .collect()
}

fn borrow(items: &[Signed]) -> Vec<(&[u8], astro_crypto::PublicKey, astro_crypto::Signature)> {
    items.iter().map(|(m, p, s)| (m.as_slice(), *p, *s)).collect()
}

fn bench_batch_verify(c: &mut Criterion) {
    // Calibrates CpuModel::verify_batch_marginal_ns: the per-signature cost
    // inside a shared-doubling batch verification vs one-by-one. Size 32 is
    // the acceptance gate (batch ≥ 3× cheaper per signature than serial).
    let mut g = c.benchmark_group("schnorr_batch_verify");
    for k in [4usize, 8, 16, 32, 64] {
        let items = signed_batch(k, k);
        let borrowed = borrow(&items);
        g.throughput(Throughput::Elements(k as u64));
        g.bench_function(format!("batched_{k}"), |b| {
            b.iter(|| batch_verify(black_box(&borrowed)));
        });
        g.bench_function(format!("one_by_one_{k}"), |b| {
            b.iter(|| borrowed.iter().all(|(m, p, s)| p.verify(m, s)));
        });
    }
    // The shape of a verify-pool job: every signature is one of the n = 4
    // replicas', so the batch has 4 key terms however long it is. The
    // all-distinct `batched_*` rows above are the other extreme.
    for k in [8usize, 32] {
        let items = signed_batch(k, 4);
        let borrowed = borrow(&items);
        g.throughput(Throughput::Elements(k as u64));
        g.bench_function(format!("few_signers_{k}"), |b| {
            b.iter(|| batch_verify(black_box(&borrowed)));
        });
    }
    g.finish();
}

fn bench_scalar_mul(c: &mut Criterion) {
    let mut g = c.benchmark_group("scalar_mul");
    let k = Scalar::from_u64(0xdeadbeefcafebabe);
    let gpt = Affine::generator();
    g.bench_function("naive_double_and_add", |b| {
        b.iter(|| gpt.mul_naive(black_box(&k)));
    });
    g.bench_function("windowed_4bit", |b| {
        b.iter_batched(
            || gpt.mul(&Scalar::from_u64(31337)), // arbitrary non-G base
            |p| p.mul(black_box(&k)),
            BatchSize::SmallInput,
        );
    });
    g.bench_function("fixed_base_comb", |b| {
        b.iter(|| mul_generator(black_box(&k)));
    });
    g.finish();
}

fn bench_msm(c: &mut Criterion) {
    // Multi-scalar multiplication Σ kᵢ·Pᵢ — the engine under batch
    // verification — against the one-multiplication-per-term baseline.
    let mut g = c.benchmark_group("multi_scalar_mul");
    for n in [2usize, 8, 32, 128] {
        let terms: Vec<(Scalar, Affine)> = (0..n)
            .map(|i| {
                // Full-width 256-bit scalars: hash-derived, reduced mod n.
                let seed = astro_crypto::sha256::sha256(&(i as u64).to_be_bytes());
                let k = Scalar::from_be_bytes_reduced(&seed);
                let p = mul_generator(&Scalar::from_u64(i as u64 * 7 + 3));
                (k, p)
            })
            .collect();
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function(format!("msm_{n}"), |b| {
            b.iter(|| multi_scalar_mul(black_box(&terms)));
        });
        g.bench_function(format!("separate_{n}"), |b| {
            b.iter(|| {
                terms.iter().fold(Affine::infinity(), |acc, (k, p)| acc.add(&p.mul(black_box(k))))
            });
        });
    }
    g.finish();
}

fn bench_ledger_settle(c: &mut Criterion) {
    // The settle hot path (PR 3 ledger overhaul): dense-ClientId-indexed
    // account table vs the hash-map fallback the sparse id range uses —
    // the delta between the two series is what the dense table buys.
    use astro_core::Ledger;
    use astro_types::{Amount, Payment};

    let n: u64 = 4096;
    let mut g = c.benchmark_group("ledger_settle_4096");
    g.throughput(Throughput::Elements(n));
    let run = |base: u64| {
        move |b: &mut criterion::Bencher| {
            b.iter_batched(
                || Ledger::new(Amount(u64::MAX / 2)),
                |mut ledger| {
                    for i in 0..n {
                        let spender = base + (i % 64);
                        let beneficiary = base + ((i + 1) % 64);
                        let p = Payment::new(spender, i / 64, beneficiary, 1u64);
                        black_box(ledger.settle(&p, true));
                    }
                    ledger.total_settled()
                },
                BatchSize::PerIteration,
            );
        }
    };
    g.bench_function("dense_ids", run(0));
    g.bench_function("sparse_ids", run(1 << 21));
    g.finish();
}

fn main() {
    let samples = if astro_bench::smoke() { 5 } else { 20 };
    let mut c = Criterion::default().sample_size(samples);
    bench_hash(&mut c);
    bench_mac(&mut c);
    bench_schnorr(&mut c);
    bench_field(&mut c);
    bench_batch_verify(&mut c);
    bench_scalar_mul(&mut c);
    bench_msm(&mut c);
    bench_ledger_settle(&mut c);

    // Machine-readable export: every benchmark, plus the derived
    // batch-vs-serial per-signature speedup the acceptance gate tracks.
    let reports = criterion::drain_reports();
    let mut metrics: Vec<Metric> = reports
        .iter()
        .map(|r| {
            Metric::new(
                r.id.clone(),
                [
                    ("p50_ns", r.median_ns as f64),
                    ("p99_ns", r.p99_ns as f64),
                    (r.rate_unit(), r.ops_per_sec()),
                ],
            )
        })
        .collect();
    let median = |id: &str| reports.iter().find(|r| r.id == id).map(|r| r.median_ns as f64);
    for k in [4u64, 8, 16, 32, 64] {
        if let (Some(batched), Some(serial)) = (
            median(&format!("schnorr_batch_verify/batched_{k}")),
            median(&format!("schnorr_batch_verify/one_by_one_{k}")),
        ) {
            metrics.push(Metric::new(
                format!("schnorr_batch_verify/speedup_{k}"),
                [
                    ("batch_over_serial", serial / batched),
                    ("per_sig_batched_ns", batched / k as f64),
                ],
            ));
        }
    }
    // What grouping by key buys at the verify pool's batch shape, as a
    // within-run ratio of per-signature costs (the gate's floor is 1.25,
    // i.e. few-signer cost ≤ 0.8 × all-distinct cost).
    for k in [8u64, 32] {
        if let (Some(distinct), Some(few)) = (
            median(&format!("schnorr_batch_verify/batched_{k}")),
            median(&format!("schnorr_batch_verify/few_signers_{k}")),
        ) {
            metrics.push(Metric::new(
                format!("schnorr_batch_verify/few_signers_gain_{k}"),
                [("distinct_over_few", distinct / few), ("per_sig_few_ns", few / k as f64)],
            ));
        }
    }
    let path = astro_bench::json::write("micro_crypto", &metrics).expect("write bench json");
    println!("\nwrote {}", path.display());
}
