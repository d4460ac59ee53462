//! Known answers for the bytes the system signs, publishes and agrees on.
//!
//! Every value here was recorded from the implementation before the
//! generator comb and the field inversion were rewritten, and must not
//! move: nonces are deterministic and compression is canonical, so a
//! changed public key, signature, DH secret or `k·G` encoding means every
//! certificate, WAL byte and wire byte downstream of it moved too.

use astro_crypto::point::mul_generator;
use astro_crypto::scalar::Scalar;
use astro_crypto::Keypair;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A 1 KiB message with no short period.
fn kib_message() -> Vec<u8> {
    (0..1024u32).map(|i| (i.wrapping_mul(131) ^ (i >> 3)) as u8).collect()
}

const SEEDS: [&[u8]; 3] = [b"known-answer-0", b"known-answer-1", b"known-answer-2"];

fn keys() -> Vec<Keypair> {
    SEEDS.iter().map(|s| Keypair::from_seed(s)).collect()
}

#[test]
fn public_keys() {
    let expected = [
        "02056c1eff4e0eacbb34a4176b1c396f88aeb2fde2b2bf856095034cb602f1816c",
        "0259cff245a35fa837913c4ed3bbb3400db1b3a47292166b9587063cfcfc54d396",
        "0365e51494f3590239317a28db0239a5e7a3a52ade375b332176308fe5ffaea401",
    ];
    for (kp, want) in keys().iter().zip(expected) {
        assert_eq!(hex(&kp.public().to_bytes()), want);
    }
}

#[test]
fn signatures_over_the_empty_message() {
    let expected = [
        "03618781f645086f916e3c3edf21a993bd12056bb863046a5e79a13c81f800e6f1\
         c37adfb2bbf1509a6f3d639ee436516244756b4565e0c3489159dfb86cabbdc5",
        "0366e8b99caf60edef5d2a31a25008a54b8a48e37dc07f63c0ce63296e80e07194\
         e25385990fd83358a10e083a702601851af4c9d1a1639d4011b10e19d6b8b9f2",
        "03b2fb6c3b2a54e25a6e6c4b7d401af83efa5784ac2d4083b57544f466086098bc\
         bdd3792ddfa8d3355db89f366b539d4ab7e20fb8c51c7701ac36420f18dff910",
    ];
    for (kp, want) in keys().iter().zip(expected) {
        assert_eq!(hex(&kp.sign(b"").to_bytes()), want);
    }
}

#[test]
fn signatures_over_a_kib_message() {
    let expected = [
        "03d4716e5db6c7bde41c5b486da28da98290945a777b553018ab5ee97e27901e4f\
         c4132b470987fef1836b6cb390308188347742baa45b4a3b28b0e9a1c949d10f",
        "02fb7fe17656a86ece16c1d6eaf758e2ae2e1c1b7d7f51216acafb4e16dfebd77f\
         d48aa4b8a05dadfdac2ebea41ec439688cc146fe7cb83d0fcf99e6242f2dfd2d",
        "03e356e26a42a5f39fb6f3c84fe928dc1e86ec8edaf2c738c23848329e1505d04a\
         d119812ba6dc269d2c2309384b01ebf906569e8efd41e79bc6c9dcb7fef6bd7e",
    ];
    let message = kib_message();
    for (kp, want) in keys().iter().zip(expected) {
        assert_eq!(hex(&kp.sign(&message).to_bytes()), want);
    }
}

#[test]
fn pairwise_agreements() {
    let expected = [
        (0, 1, "559fa8d1e7d2fb5050b679574b47f0c8fa922312203731d27a42ac3fd5cae50b"),
        (0, 2, "6e39af93ad5f6bd18f683416b7e361e798cb72bcba62f61f16d39d6aac7d7d6c"),
        (1, 2, "7362fccbef514f4de9b0506ae9f9f7cc440224fd0132327253a227110839ed6b"),
    ];
    let keys = keys();
    for (i, j, want) in expected {
        assert_eq!(hex(&keys[i].agree(keys[j].public())), want, "{i} with {j}");
        assert_eq!(hex(&keys[j].agree(keys[i].public())), want, "{j} with {i}");
    }
}

#[test]
fn generator_multiples() {
    // (k, k·G compressed): the first and last window, a carry across the
    // low window, the top bit, n−1 = −1, and every window set at once.
    let expected = [
        (
            "0000000000000000000000000000000000000000000000000000000000000001",
            "0279be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798",
        ),
        (
            "00000000000000000000000000000000000000000000000000000000000000ff",
            "031b38903a43f7f114ed4500b4eac7083fdefece1cf29c63528d563446f972c180",
        ),
        (
            "0000000000000000000000000000000000000000000000000000000000000100",
            "038282263212c609d9ea2a6e3e172de238d8c39cabd5ac1ca10646e23fd5f51508",
        ),
        (
            "0100000000000000000000000000000000000000000000000000000000000000",
            "028c28a97bf8298bc0d23d8c749452a32e694b65e30a9472a3954ab30fe5324caa",
        ),
        (
            "8000000000000000000000000000000000000000000000000000000000000000",
            "02b23790a42be63e1b251ad6c94fdef07271ec0aada31db6c3e8bd32043f8be384",
        ),
        (
            "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364140",
            "0379be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798",
        ),
        (
            "0101010101010101010101010101010101010101010101010101010101010101",
            "031b84c5567b126440995d3ed5aaba0565d71e1834604819ff9c17f5e9d5dd078f",
        ),
        (
            "ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00",
            "03ae70f3ba7bf3c4dba354cbb6c67c496889ebff3199192c466af6fcb37c07a94f",
        ),
    ];
    for (k, want) in expected {
        let mut bytes = [0u8; 32];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = u8::from_str_radix(&k[2 * i..2 * i + 2], 16).expect("hex");
        }
        let k_scalar = Scalar::from_be_bytes_checked(&bytes).expect("k < n");
        assert_eq!(hex(&mul_generator(&k_scalar).to_compressed()), want, "k = {k}");
    }
}
