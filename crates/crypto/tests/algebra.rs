//! Property-based tests of the field, scalar, and group algebra — the
//! foundations every signature in the system rests on.

use astro_crypto::field::Fe;
use astro_crypto::point::{mul_generator, Affine};
use astro_crypto::scalar::Scalar;
use astro_crypto::schnorr::{batch_verify, find_invalid, SIGNATURE_LEN};
use astro_crypto::{Keypair, Signature};
use proptest::prelude::*;

fn arb_fe() -> impl Strategy<Value = Fe> {
    proptest::array::uniform32(any::<u8>()).prop_map(|mut b| {
        b[0] &= 0x7f; // stay below p
        Fe::from_be_bytes(&b).expect("below p")
    })
}

fn arb_scalar() -> impl Strategy<Value = Scalar> {
    proptest::array::uniform32(any::<u8>()).prop_map(|b| Scalar::from_be_bytes_reduced(&b))
}

const SIGNED: &[u8] = b"the message every arbitrary signature claims to cover";

/// The recipe for 65 bytes that reach every branch of decode and
/// verification (see [`signature_bytes`]), and who is to have signed them.
fn arb_signature_recipe() -> impl Strategy<Value = ([u8; SIGNATURE_LEN], u8, usize, usize)> {
    (any::<[u8; SIGNATURE_LEN]>(), 0u8..6, 0usize..SIGNATURE_LEN * 8, any::<usize>())
}

/// Raw noise (nearly always a bad prefix), noise behind a forced `02`/`03`
/// prefix (decodes; R is on the curve for about half of all x), or `kp`'s
/// genuine signature over [`SIGNED`], intact or with one bit flipped.
fn signature_bytes(
    kp: &Keypair,
    mut noise: [u8; SIGNATURE_LEN],
    shape: u8,
    flip: usize,
) -> [u8; SIGNATURE_LEN] {
    match shape {
        0 => noise,
        1 => {
            noise[0] = 0x02 | (noise[0] & 1);
            noise
        }
        _ => {
            let mut bytes = kp.sign(SIGNED).to_bytes();
            if shape == 2 {
                bytes[flip / 8] ^= 1 << (flip % 8);
            }
            bytes
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Decode is total, canonical, and whatever it lets through gets ONE
    /// verdict: single verification never lifts R, batch verification
    /// does — and sums the challenges of signatures that share a key —
    /// and bisection is built on the latter. Neither an R off the curve
    /// nor a repeated signer may make them disagree. Signers come from a
    /// pool of 1–4 keys, the way a verify-pool job names n replicas.
    #[test]
    fn decoded_signatures_get_one_verdict_from_every_path(
        pool in 1usize..=4,
        recipes in proptest::collection::vec(arb_signature_recipe(), 1..8),
    ) {
        let keys: Vec<Keypair> =
            (0..pool).map(|i| Keypair::from_seed(&[b'a', b'r', b'b', i as u8])).collect();
        let mut items = Vec::new();
        let mut verdicts = Vec::new();
        for (noise, shape, flip, who) in recipes {
            let kp = &keys[who % pool];
            let bytes = signature_bytes(kp, noise, shape, flip);
            let Ok(sig) = Signature::from_bytes(&bytes) else { continue };
            prop_assert_eq!(sig.to_bytes(), bytes);
            let verdict = kp.public().verify(SIGNED, &sig);
            prop_assert_eq!(verdict, bytes == kp.sign(SIGNED).to_bytes());
            prop_assert_eq!(batch_verify(&[(SIGNED, *kp.public(), sig)]), verdict);
            items.push((SIGNED, *kp.public(), sig));
            verdicts.push(verdict);
        }
        // Beside a valid signature by the pool's first key the real batch
        // path runs, whatever survived decoding.
        items.push((b"other".as_slice(), *keys[0].public(), keys[0].sign(b"other")));
        verdicts.push(true);
        prop_assert_eq!(batch_verify(&items), verdicts.iter().all(|v| *v));
        let invalid: Vec<usize> = (0..items.len()).filter(|i| !verdicts[*i]).collect();
        prop_assert_eq!(find_invalid(&items), invalid);
    }

    #[test]
    fn field_addition_commutes_and_associates(a in arb_fe(), b in arb_fe(), c in arb_fe()) {
        prop_assert_eq!(a.add(&b), b.add(&a));
        prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
    }

    #[test]
    fn field_multiplication_distributes(a in arb_fe(), b in arb_fe(), c in arb_fe()) {
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
        prop_assert_eq!(a.mul(&b), b.mul(&a));
    }

    #[test]
    fn field_inverse_is_two_sided(a in arb_fe()) {
        prop_assume!(!a.is_zero());
        let inv = a.invert();
        prop_assert_eq!(a.mul(&inv), Fe::ONE);
        prop_assert_eq!(inv.mul(&a), Fe::ONE);
    }

    #[test]
    fn field_square_matches_self_mul(a in arb_fe()) {
        prop_assert_eq!(a.square(), a.mul(&a));
    }

    #[test]
    fn field_sqrt_round_trips_through_square(a in arb_fe()) {
        let sq = a.square();
        let root = sq.sqrt().expect("squares are residues");
        prop_assert!(root == a || root == a.neg());
    }

    #[test]
    fn scalar_ring_laws(a in arb_scalar(), b in arb_scalar(), c in arb_scalar()) {
        prop_assert_eq!(a.add(&b), b.add(&a));
        prop_assert_eq!(a.mul(&b), b.mul(&a));
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
        prop_assert_eq!(a.sub(&a), Scalar::ZERO);
    }

    #[test]
    fn scalar_inverse(a in arb_scalar()) {
        prop_assume!(!a.is_zero());
        prop_assert_eq!(a.mul(&a.invert()), Scalar::ONE);
    }

    #[test]
    fn scalar_mul_is_group_homomorphism(a in arb_scalar(), b in arb_scalar()) {
        // (a + b)·G == a·G + b·G
        let lhs = mul_generator(&a.add(&b));
        let rhs = mul_generator(&a).add(&mul_generator(&b));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn scalar_mul_strategies_agree(a in arb_scalar()) {
        let g = Affine::generator();
        let naive = g.mul_naive(&a);
        let comb = mul_generator(&a);
        prop_assert_eq!(naive, comb);
    }

    #[test]
    fn points_stay_on_curve(a in arb_scalar()) {
        prop_assert!(mul_generator(&a).is_on_curve());
    }

    #[test]
    fn compression_round_trips(a in arb_scalar()) {
        prop_assume!(!a.is_zero());
        let p = mul_generator(&a);
        let enc = p.to_compressed();
        prop_assert_eq!(Affine::from_compressed(&enc), Some(p));
    }

    #[test]
    fn signatures_verify_and_bind_message(seed in any::<[u8; 16]>(), msg in any::<Vec<u8>>()) {
        let kp = Keypair::from_seed(&seed);
        let sig = kp.sign(&msg);
        prop_assert!(kp.public().verify(&msg, &sig));
        let mut other = msg.clone();
        other.push(0x55);
        prop_assert!(!kp.public().verify(&other, &sig));
    }

    #[test]
    fn signatures_bind_key(seed1 in any::<[u8; 16]>(), seed2 in any::<[u8; 16]>()) {
        prop_assume!(seed1 != seed2);
        let kp1 = Keypair::from_seed(&seed1);
        let kp2 = Keypair::from_seed(&seed2);
        let sig = kp1.sign(b"msg");
        prop_assert!(!kp2.public().verify(b"msg", &sig));
    }
}
