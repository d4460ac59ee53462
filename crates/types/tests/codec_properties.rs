//! Property tests for the wire codec: round-trips for every domain type,
//! and total decoding (no panic on arbitrary bytes).

use astro_types::wire::{decode_exact, Wire};
use astro_types::{Amount, ClientId, Payment, PaymentId, ReplicaId, SeqNo, ShardId};
use proptest::prelude::*;

fn arb_payment() -> impl Strategy<Value = Payment> {
    (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(s, n, b, x)| Payment {
        spender: ClientId(s),
        seq: SeqNo(n),
        beneficiary: ClientId(b),
        amount: Amount(x),
    })
}

proptest! {
    #[test]
    fn payment_round_trip(p in arb_payment()) {
        let bytes = p.to_wire_bytes();
        prop_assert_eq!(bytes.len(), p.encoded_len());
        prop_assert_eq!(decode_exact::<Payment>(&bytes).unwrap(), p);
    }

    #[test]
    fn payment_id_round_trip(s in any::<u64>(), n in any::<u64>()) {
        let id = PaymentId { spender: ClientId(s), seq: SeqNo(n) };
        prop_assert_eq!(decode_exact::<PaymentId>(&id.to_wire_bytes()).unwrap(), id);
    }

    #[test]
    fn id_newtypes_round_trip(c in any::<u64>(), r in any::<u32>(), sh in any::<u16>()) {
        prop_assert_eq!(decode_exact::<ClientId>(&ClientId(c).to_wire_bytes()).unwrap(), ClientId(c));
        prop_assert_eq!(decode_exact::<ReplicaId>(&ReplicaId(r).to_wire_bytes()).unwrap(), ReplicaId(r));
        prop_assert_eq!(decode_exact::<ShardId>(&ShardId(sh).to_wire_bytes()).unwrap(), ShardId(sh));
    }

    #[test]
    fn vec_of_payments_round_trip(ps in proptest::collection::vec(arb_payment(), 0..20)) {
        let bytes = ps.to_wire_bytes();
        prop_assert_eq!(bytes.len(), ps.encoded_len());
        prop_assert_eq!(decode_exact::<Vec<Payment>>(&bytes).unwrap(), ps);
    }

    #[test]
    fn options_and_tuples_round_trip(v in any::<Option<u64>>(), a in any::<u32>(), b in any::<u64>()) {
        prop_assert_eq!(decode_exact::<Option<u64>>(&v.to_wire_bytes()).unwrap(), v);
        let t = (a, b);
        prop_assert_eq!(decode_exact::<(u32, u64)>(&t.to_wire_bytes()).unwrap(), t);
    }

    /// Decoding must be total: arbitrary bytes either parse or error,
    /// never panic, and parsed values re-encode to a prefix-consistent
    /// form.
    #[test]
    fn decode_is_total_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut slice = bytes.as_slice();
        if let Ok(p) = Payment::decode(&mut slice) {
            // Canonical: re-encoding reproduces the consumed prefix.
            let reenc = p.to_wire_bytes();
            prop_assert_eq!(&bytes[..reenc.len()], reenc.as_slice());
        }
        let mut slice = bytes.as_slice();
        let _ = Vec::<Payment>::decode(&mut slice); // must not panic or over-allocate
        let mut slice = bytes.as_slice();
        let _ = astro_crypto::Signature::decode(&mut slice);
        let mut slice = bytes.as_slice();
        let _ = astro_crypto::PublicKey::decode(&mut slice);
    }

    /// A signature decodes on range checks alone — prefix `02`/`03`,
    /// `x < p`, `0 < s < n` — never on curve membership (about half of
    /// all `x` have no point; those fail verification, not the frame).
    /// Whatever decodes re-encodes to the same 65 bytes, alone and inside
    /// a certificate's proof list.
    #[test]
    fn signature_decode_is_total_and_canonical(noise in any::<[u8; 65]>(), raw in any::<bool>()) {
        let mut bytes = noise;
        if !raw {
            bytes[0] = 0x02 | (bytes[0] & 1);
        }
        let decoded = decode_exact::<astro_crypto::Signature>(&bytes);
        let in_range = matches!(bytes[0], 0x02 | 0x03)
            && astro_crypto::field::Fe::from_be_bytes(bytes[1..33].try_into().unwrap()).is_some()
            && astro_crypto::scalar::Scalar::from_be_bytes_checked(bytes[33..].try_into().unwrap())
                .is_some_and(|s| !s.is_zero());
        prop_assert_eq!(decoded.is_ok(), in_range);
        if let Ok(sig) = decoded {
            prop_assert_eq!(sig.to_wire_bytes(), bytes.to_vec());
            let proofs = vec![(ReplicaId(3), sig)];
            type Proofs = Vec<(ReplicaId, astro_crypto::Signature)>;
            prop_assert_eq!(decode_exact::<Proofs>(&proofs.to_wire_bytes()).unwrap(), proofs);
        }
    }

    /// Digests are injective over the encoding (no trivial collisions on
    /// distinct payments).
    #[test]
    fn distinct_payments_have_distinct_digests(a in arb_payment(), b in arb_payment()) {
        prop_assume!(a != b);
        prop_assert_ne!(a.digest(), b.digest());
    }
}
