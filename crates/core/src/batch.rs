//! Batches, CREDIT messages, and dependency certificates.
//!
//! Batching (paper §VI-A) happens at the PREPARE step of the broadcast
//! layer: a representative assembles payments — potentially from different
//! clients — into one broadcast instance, amortizing authentication and
//! network overheads. Astro II additionally groups the payments of a batch
//! into *sub-batches* by the beneficiary's representative, so one CREDIT
//! signature covers a whole sub-batch.
//!
//! The CREDIT / dependency-certificate machinery (paper §IV-A, §V,
//! Listings 7–10) lets a beneficiary *prove* incoming funds: `f+1` signed
//! CREDITs from the spender's shard form a transferable certificate that
//! the beneficiary's representative attaches to her next outgoing payment.

use astro_types::wire::{Wire, WireError};
use astro_types::{Authenticator, Group, Payment, ReplicaId};

/// An Astro I batch: a plain list of payments broadcast as one BRB payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// The batched payments, in submission order.
    pub payments: Vec<Payment>,
}

impl Wire for Batch {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.payments.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Batch { payments: Wire::decode(buf)? })
    }
    fn encoded_len(&self) -> usize {
        self.payments.encoded_len()
    }
}

/// A dependency certificate: a sub-batch of settled payments plus `f+1`
/// replica signatures over its digest — unequivocal proof that the
/// spender's shard approved those payments (paper §IV-A).
///
/// Certificates are transferable across shards: replicas of any shard can
/// verify them against the public key book of the settling shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DependencyCertificate<S> {
    /// The payments the certificate vouches for (one CREDIT sub-batch; all
    /// spenders belong to the settling shard).
    pub bundle: Vec<Payment>,
    /// Signatures by distinct replicas of the settling shard over
    /// [`credit_context`] of the bundle.
    pub proofs: Vec<(ReplicaId, S)>,
}

impl<S> DependencyCertificate<S> {
    /// The payments in this certificate crediting `beneficiary`.
    pub fn credits_for(
        &self,
        beneficiary: astro_types::ClientId,
    ) -> impl Iterator<Item = &Payment> {
        self.bundle.iter().filter(move |p| p.beneficiary == beneficiary)
    }
}

impl<S: Wire> Wire for DependencyCertificate<S> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.bundle.encode(buf);
        self.proofs.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(DependencyCertificate { bundle: Wire::decode(buf)?, proofs: Wire::decode(buf)? })
    }
    fn encoded_len(&self) -> usize {
        self.bundle.encoded_len() + self.proofs.encoded_len()
    }
}

/// The byte string CREDIT signatures cover: a domain-separated digest of
/// the sub-batch contents. It also keys the sub-batch wherever CREDIT
/// proofs accumulate, acks name a bundle or a held certificate is found.
pub fn credit_context(bundle: &[Payment]) -> [u8; 32] {
    let mut h = astro_crypto::sha256::Sha256::new();
    h.update(b"astro-credit-v1");
    h.update(&(bundle.len() as u64).to_be_bytes());
    for p in bundle {
        h.update(&p.to_bytes());
    }
    h.finalize()
}

/// The byte string a CREDIT acknowledgment signature covers: the acked
/// sub-batch digests under their own domain separator (so an ack can
/// never be replayed as a CREDIT proof or vice versa). One ack covers
/// every digest the representative owes a given settler — acks are
/// batched per destination on the flush tick, so ack traffic scales
/// with flush intervals rather than with sub-batch count.
pub fn credit_ack_context(digests: &[[u8; 32]]) -> [u8; 32] {
    let mut h = astro_crypto::sha256::Sha256::new();
    h.update(b"astro-credit-ack-v2");
    h.update(&(digests.len() as u64).to_be_bytes());
    for d in digests {
        h.update(d);
    }
    h.finalize()
}

/// Verifies a dependency certificate against the settling shard's group.
///
/// Checks that at least `f+1` *distinct members of `settling_group`* signed
/// the bundle digest. Returns `false` for empty bundles.
///
/// All proofs cover the same digest, so the check runs as one batch
/// (a single multi-scalar multiplication under Schnorr) with a
/// forgery-locating fallback that still counts the genuine signers —
/// see [`astro_types::count_valid_signers`].
pub fn verify_certificate<A: Authenticator>(
    cert: &DependencyCertificate<A::Sig>,
    settling_group: &Group,
    auth: &A,
) -> bool {
    if cert.bundle.is_empty() {
        return false;
    }
    let context = credit_context(&cert.bundle);
    let valid = astro_types::count_valid_signers(auth, &context, &cert.proofs, |r| {
        settling_group.contains(r)
    });
    valid >= settling_group.small_quorum()
}

/// An Astro II payment entry: the payment plus the dependency certificates
/// its representative attached (Listing 7's `⟨Alice, n, b, x, deps⟩`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepPayment<S> {
    /// The payment itself.
    pub payment: Payment,
    /// Certificates materializing the spender's incoming funds.
    pub deps: Vec<DependencyCertificate<S>>,
}

impl<S: Wire> Wire for DepPayment<S> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.payment.encode(buf);
        self.deps.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(DepPayment { payment: Payment::decode(buf)?, deps: Wire::decode(buf)? })
    }
    fn encoded_len(&self) -> usize {
        self.payment.encoded_len() + self.deps.encoded_len()
    }
}

/// An Astro II batch: payments with their dependencies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepBatch<S> {
    /// The batched entries, in submission order.
    pub entries: Vec<DepPayment<S>>,
}

impl<S: Wire> Wire for DepBatch<S> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.entries.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(DepBatch { entries: Wire::decode(buf)? })
    }
    fn encoded_len(&self) -> usize {
        self.entries.encoded_len()
    }
}

/// A broadcast payload as the shared settle loop sees it: payments in
/// batch order, each with the dependencies it settles with — none in
/// Astro I's [`Batch`], the attached certificates in Astro II's
/// [`DepBatch`].
pub trait PaymentBatch {
    /// One batched payment as the payload carries it.
    type Entry;
    /// What a payment settles with besides itself; the default is none.
    type Deps: Default;
    /// The entry carrying `payment` with `deps`.
    fn entry(payment: Payment, deps: Self::Deps) -> Self::Entry;
    /// The payload of a flushed batch.
    fn from_entries(entries: Vec<Self::Entry>) -> Self;
    /// The payments.
    fn payments(&self) -> impl Iterator<Item = &Payment>;
    /// The entries, split.
    fn into_entries(self) -> impl Iterator<Item = (Payment, Self::Deps)>;
    /// The dependencies as a journaled queue entry carries them.
    fn journal_deps(deps: &Self::Deps) -> Vec<Vec<u8>>;
}

impl PaymentBatch for Batch {
    type Entry = Payment;
    type Deps = ();
    fn entry(payment: Payment, (): ()) -> Payment {
        payment
    }
    fn from_entries(payments: Vec<Payment>) -> Self {
        Batch { payments }
    }
    fn payments(&self) -> impl Iterator<Item = &Payment> {
        self.payments.iter()
    }
    fn into_entries(self) -> impl Iterator<Item = (Payment, ())> {
        self.payments.into_iter().map(|p| (p, ()))
    }
    fn journal_deps((): &()) -> Vec<Vec<u8>> {
        Vec::new()
    }
}

impl<S: Wire> PaymentBatch for DepBatch<S> {
    type Entry = DepPayment<S>;
    type Deps = Vec<DependencyCertificate<S>>;
    fn entry(payment: Payment, deps: Self::Deps) -> DepPayment<S> {
        DepPayment { payment, deps }
    }
    fn from_entries(entries: Vec<DepPayment<S>>) -> Self {
        DepBatch { entries }
    }
    fn payments(&self) -> impl Iterator<Item = &Payment> {
        self.entries.iter().map(|e| &e.payment)
    }
    fn into_entries(self) -> impl Iterator<Item = (Payment, Self::Deps)> {
        self.entries.into_iter().map(|e| (e.payment, e.deps))
    }
    fn journal_deps(deps: &Self::Deps) -> Vec<Vec<u8>> {
        deps.iter().map(Wire::to_wire_bytes).collect()
    }
}

/// A CREDIT message (Listing 9, line 57): one replica's signed attestation
/// that it settled the bundled payments, unicast to the representative of
/// the beneficiaries (sub-batched: all bundle payments share a beneficiary
/// representative).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreditBundle<S> {
    /// The settled payments (the CREDIT sub-batch).
    pub bundle: Vec<Payment>,
    /// The settling replica's signature over [`credit_context`].
    pub sig: S,
}

impl<S: Wire> Wire for CreditBundle<S> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.bundle.encode(buf);
        self.sig.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(CreditBundle { bundle: Wire::decode(buf)?, sig: S::decode(buf)? })
    }
    fn encoded_len(&self) -> usize {
        self.bundle.encoded_len() + self.sig.encoded_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astro_types::auth::SimSig;
    use astro_types::wire::decode_exact;
    use astro_types::MacAuthenticator;

    fn p(s: u64, n: u64, b: u64, x: u64) -> Payment {
        Payment::new(s, n, b, x)
    }

    #[test]
    fn batch_wire_round_trip() {
        let b = Batch { payments: vec![p(1, 0, 2, 5), p(3, 1, 4, 7)] };
        let bytes = b.to_wire_bytes();
        assert_eq!(bytes.len(), b.encoded_len());
        assert_eq!(decode_exact::<Batch>(&bytes).unwrap(), b);
    }

    #[test]
    fn certificate_verifies_with_f_plus_1_shard_signatures() {
        let group = Group::new((4..8).map(ReplicaId)).unwrap(); // f = 1
        let bundle = vec![p(1, 0, 2, 5)];
        let ctx = credit_context(&bundle);
        let auths: Vec<MacAuthenticator> =
            (4..8).map(|i| MacAuthenticator::new(ReplicaId(i), b"cert".to_vec())).collect();
        let cert = DependencyCertificate {
            bundle: bundle.clone(),
            proofs: vec![(ReplicaId(4), auths[0].sign(&ctx)), (ReplicaId(5), auths[1].sign(&ctx))],
        };
        let verifier = MacAuthenticator::new(ReplicaId(0), b"cert".to_vec());
        assert!(verify_certificate(&cert, &group, &verifier));
    }

    #[test]
    fn certificate_rejects_too_few_signatures() {
        let group = Group::new((4..8).map(ReplicaId)).unwrap();
        let bundle = vec![p(1, 0, 2, 5)];
        let ctx = credit_context(&bundle);
        let a = MacAuthenticator::new(ReplicaId(4), b"cert".to_vec());
        let cert = DependencyCertificate { bundle, proofs: vec![(ReplicaId(4), a.sign(&ctx))] };
        assert!(!verify_certificate(&cert, &group, &a));
    }

    #[test]
    fn certificate_rejects_outsider_signatures() {
        let group = Group::new((4..8).map(ReplicaId)).unwrap();
        let bundle = vec![p(1, 0, 2, 5)];
        let ctx = credit_context(&bundle);
        // Signers 0 and 1 are not in the settling group.
        let cert = DependencyCertificate {
            bundle,
            proofs: vec![
                (ReplicaId(0), MacAuthenticator::new(ReplicaId(0), b"cert".to_vec()).sign(&ctx)),
                (ReplicaId(1), MacAuthenticator::new(ReplicaId(1), b"cert".to_vec()).sign(&ctx)),
            ],
        };
        let verifier = MacAuthenticator::new(ReplicaId(4), b"cert".to_vec());
        assert!(!verify_certificate(&cert, &group, &verifier));
    }

    #[test]
    fn certificate_rejects_duplicate_signer() {
        let group = Group::new((4..8).map(ReplicaId)).unwrap();
        let bundle = vec![p(1, 0, 2, 5)];
        let ctx = credit_context(&bundle);
        let a = MacAuthenticator::new(ReplicaId(4), b"cert".to_vec());
        let sig = a.sign(&ctx);
        let cert = DependencyCertificate {
            bundle,
            proofs: vec![(ReplicaId(4), sig.clone()), (ReplicaId(4), sig)],
        };
        assert!(!verify_certificate(&cert, &group, &a));
    }

    #[test]
    fn certificate_rejects_tampered_bundle() {
        let group = Group::new((4..8).map(ReplicaId)).unwrap();
        let bundle = vec![p(1, 0, 2, 5)];
        let ctx = credit_context(&bundle);
        let auths: Vec<MacAuthenticator> =
            (4..6).map(|i| MacAuthenticator::new(ReplicaId(i), b"cert".to_vec())).collect();
        let mut tampered = bundle.clone();
        tampered[0].amount = astro_types::Amount(5000);
        let cert = DependencyCertificate {
            bundle: tampered,
            proofs: vec![(ReplicaId(4), auths[0].sign(&ctx)), (ReplicaId(5), auths[1].sign(&ctx))],
        };
        assert!(!verify_certificate(&cert, &group, &auths[0]));
    }

    #[test]
    fn empty_bundle_never_verifies() {
        let group = Group::new((0..4).map(ReplicaId)).unwrap();
        let a = MacAuthenticator::new(ReplicaId(0), b"cert".to_vec());
        let cert: DependencyCertificate<SimSig> =
            DependencyCertificate { bundle: vec![], proofs: vec![] };
        assert!(!verify_certificate(&cert, &group, &a));
    }

    #[test]
    fn digest_distinguishes_conflicting_payments() {
        // Two payments with the same identifier but different beneficiary
        // (the double-spend pattern) must have different CREDIT digests.
        let a = p(1, 7, 2, 10);
        let a_conflict = p(1, 7, 3, 10);
        assert_eq!(a.id(), a_conflict.id());
        assert_ne!(credit_context(&[a]), credit_context(&[a_conflict]));
    }

    proptest::proptest! {
        /// The CREDIT digest is injective over singleton bundles (no
        /// trivial collisions on distinct payments).
        #[test]
        fn distinct_payments_have_distinct_digests(
            a in proptest::prelude::any::<[u64; 4]>(),
            b in proptest::prelude::any::<[u64; 4]>(),
        ) {
            let (a, b) = (p(a[0], a[1], a[2], a[3]), p(b[0], b[1], b[2], b[3]));
            proptest::prop_assume!(a != b);
            proptest::prop_assert_ne!(credit_context(&[a]), credit_context(&[b]));
        }
    }

    #[test]
    fn credits_for_filters_beneficiary() {
        let cert: DependencyCertificate<SimSig> = DependencyCertificate {
            bundle: vec![p(1, 0, 2, 5), p(3, 0, 2, 7), p(4, 0, 9, 1)],
            proofs: vec![],
        };
        let total: u64 = cert.credits_for(astro_types::ClientId(2)).map(|p| p.amount.0).sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn dep_batch_wire_round_trip() {
        let a = MacAuthenticator::new(ReplicaId(0), b"wire".to_vec());
        let bundle = vec![p(1, 0, 2, 5)];
        let sig = a.sign(&credit_context(&bundle));
        let batch = DepBatch {
            entries: vec![DepPayment {
                payment: p(2, 0, 3, 4),
                deps: vec![DependencyCertificate {
                    bundle,
                    proofs: vec![(ReplicaId(0), sig.clone())],
                }],
            }],
        };
        let bytes = batch.to_wire_bytes();
        assert_eq!(bytes.len(), batch.encoded_len());
        assert_eq!(decode_exact::<DepBatch<SimSig>>(&bytes).unwrap(), batch);

        let credit = CreditBundle { bundle: vec![p(1, 0, 2, 5)], sig };
        let bytes = credit.to_wire_bytes();
        assert_eq!(decode_exact::<CreditBundle<SimSig>>(&bytes).unwrap(), credit);
    }
}
