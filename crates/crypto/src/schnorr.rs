//! Key-prefixed Schnorr signatures over secp256k1.
//!
//! This replaces the ECDSA-P256 used by the paper's Astro II prototype:
//! same ~128-bit security level, same asymptotic cost (one fixed-base
//! scalar multiplication to sign, one double-scalar multiplication to
//! verify), so every batching/amortization trade-off in the paper carries
//! over.
//!
//! The scheme is classic key-prefixed Schnorr (not bit-compatible with
//! BIP-340, which is unnecessary here):
//!
//! - sign:   `k = H(sk ‖ m ‖ ctr)`, `R = k·G`, `e = H(R ‖ P ‖ m)`,
//!   `s = k + e·sk (mod n)`, signature `(R, s)`.
//! - verify: `e = H(R ‖ P ‖ m)`, accept iff `s·G == R + e·P`.
//!
//! A [`Signature`] stays in its wire form — R is the 33 compressed bytes it
//! travels as. Single verification never lifts R onto the curve (it
//! compresses `s·G − e·P` and compares bytes); only [`batch_verify`] needs
//! R as a point, and decompresses it there.
//!
//! Nonces are derived deterministically (RFC-6979 style), so signing never
//! consumes randomness and is safe against nonce-reuse bugs.
//!
//! # Examples
//!
//! ```
//! use astro_crypto::schnorr::Keypair;
//!
//! let keypair = Keypair::from_seed(b"alice");
//! let sig = keypair.sign(b"pay bob 5");
//! assert!(keypair.public().verify(b"pay bob 5", &sig));
//! assert!(!keypair.public().verify(b"pay bob 6", &sig));
//! ```

use crate::field::Fe;
use crate::point::{Affine, COMPRESSED_LEN};
use crate::scalar::Scalar;
use crate::sha256::{sha256_concat, Sha256};

/// Length of a serialized signature: compressed R (33) + s (32).
pub const SIGNATURE_LEN: usize = COMPRESSED_LEN + 32;

/// Length of a serialized public key (compressed point).
pub const PUBLIC_KEY_LEN: usize = COMPRESSED_LEN;

/// A Schnorr signing error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyError {
    /// The secret scalar was zero (probability ≈ 2⁻²⁵⁶ from honest seeds).
    ZeroSecret,
    /// A public key or signature encoding was malformed.
    InvalidEncoding,
}

impl core::fmt::Display for KeyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            KeyError::ZeroSecret => f.write_str("secret scalar is zero"),
            KeyError::InvalidEncoding => f.write_str("invalid key or signature encoding"),
        }
    }
}

impl std::error::Error for KeyError {}

/// A secret signing key.
#[derive(Clone)]
pub struct SecretKey {
    scalar: Scalar,
}

impl core::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("SecretKey(..)")
    }
}

/// A public verification key (compressed curve point).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey {
    point: Affine,
}

/// A Schnorr signature `(R, s)`, held as it travels: R compressed.
///
/// Decoding ([`Signature::from_bytes`]) establishes *range* — an `02`/`03`
/// prefix, `x < p`, `0 < s < n` — not curve membership: an `x` with no
/// point on the curve decodes, and then fails [`PublicKey::verify`],
/// [`batch_verify`] and [`find_invalid`] alike. The square root that lifts
/// R onto the curve is paid inside [`batch_verify`], i.e. only for
/// signatures that actually reach a multi-scalar multiplication (verdict
/// cache misses, on a verify-pool worker) — not once per decoded frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    r: [u8; COMPRESSED_LEN],
    s: Scalar,
}

/// A secret/public key pair.
#[derive(Debug, Clone)]
pub struct Keypair {
    secret: SecretKey,
    public: PublicKey,
}

impl SecretKey {
    /// Derives a secret key deterministically from a seed (domain-separated
    /// hash, reduced mod n). Deterministic keys keep tests and simulations
    /// reproducible; production deployments should seed from an OS CSPRNG.
    pub fn from_seed(seed: &[u8]) -> Result<Self, KeyError> {
        let digest = sha256_concat(&[b"astro-schnorr-keygen-v1", seed]);
        let scalar = Scalar::from_be_bytes_reduced(&digest);
        if scalar.is_zero() {
            return Err(KeyError::ZeroSecret);
        }
        Ok(SecretKey { scalar })
    }

    /// The corresponding public key.
    pub fn public(&self) -> PublicKey {
        PublicKey { point: crate::point::mul_generator(&self.scalar) }
    }

    /// Static Diffie–Hellman agreement with `peer`: the 32-byte hash of
    /// the shared point `sk·P_peer`.
    ///
    /// Symmetric — `a.agree(B) == b.agree(A)` — and computable only by
    /// the two key holders, so the result serves as a pairwise secret for
    /// deriving MAC link keys (the paper's §III authenticated links)
    /// without any system-wide shared secret.
    ///
    /// The underlying scalar multiplication is not constant-time (this
    /// repo's from-scratch curve arithmetic makes no constant-time claims
    /// anywhere), so callers must keep this off attacker-triggerable hot
    /// paths: derive pairwise keys once at startup and cache them, as
    /// `astro_types::Keychain` does.
    pub fn agree(&self, peer: &PublicKey) -> [u8; 32] {
        // `peer.point` is a valid non-infinity point and `self.scalar` is
        // nonzero mod the (prime) group order, so the product is never
        // the point at infinity.
        let shared = peer.point.mul(&self.scalar);
        sha256_concat(&[b"astro-ecdh-v1", &shared.to_compressed()])
    }

    /// Signs `message` with a deterministic nonce.
    ///
    /// Recomputes the public key (one fixed-base multiplication); callers
    /// holding a [`Keypair`] go through [`Keypair::sign`], which passes the
    /// cached key and pays for only the nonce commitment.
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.sign_with_public(&self.public(), message)
    }

    /// Signs `message`, reusing an already-computed public key.
    ///
    /// The nonce commitment `R = k·G` goes through the cached fixed-base
    /// comb table ([`crate::point::mul_generator`]: one mixed addition per
    /// nonzero byte of `k`, at most 32), so with `pk` cached a signature
    /// costs one comb multiplication, the field inversion that makes R
    /// affine for compression ([`Fe::invert`]), and hashing — signing used
    /// to pay a second comb multiplication re-deriving `pk` on every call.
    pub fn sign_with_public(&self, pk: &PublicKey, message: &[u8]) -> Signature {
        debug_assert_eq!(*pk, self.public(), "public key must match the secret");
        let mut counter: u32 = 0;
        loop {
            let k = derive_nonce(&self.scalar, message, counter);
            counter += 1;
            if k.is_zero() {
                continue;
            }
            let r = crate::point::mul_generator(&k);
            if r.is_infinity() {
                continue;
            }
            let r = r.to_compressed();
            let e = challenge(&r, pk, message);
            let s = k.add(&e.mul(&self.scalar));
            if s.is_zero() {
                continue;
            }
            return Signature { r, s };
        }
    }
}

impl PublicKey {
    /// Verifies `signature` over `message`.
    ///
    /// R is never decompressed: `s·G == R + e·P ⇔ s·G + (−e)·P == R`, and
    /// a point equals R exactly when its compressed encoding equals R's
    /// bytes. An R that is not on the curve matches no point; infinity
    /// encodes as zeros, which no decoded R (prefix `02`/`03`) equals.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> bool {
        let e = challenge(&signature.r, self, message);
        let lhs = Affine::double_scalar_mul_generator(&signature.s, &e.neg(), &self.point);
        lhs.to_compressed() == signature.r
    }

    /// Serializes to the 33-byte compressed form.
    pub fn to_bytes(&self) -> [u8; PUBLIC_KEY_LEN] {
        self.point.to_compressed()
    }

    /// Parses a 33-byte compressed encoding.
    pub fn from_bytes(bytes: &[u8; PUBLIC_KEY_LEN]) -> Result<Self, KeyError> {
        let point = Affine::from_compressed(bytes).ok_or(KeyError::InvalidEncoding)?;
        if point.is_infinity() {
            return Err(KeyError::InvalidEncoding);
        }
        Ok(PublicKey { point })
    }

    /// The underlying curve point.
    pub fn point(&self) -> &Affine {
        &self.point
    }
}

impl Signature {
    /// Serializes to 65 bytes: compressed R then s.
    pub fn to_bytes(&self) -> [u8; SIGNATURE_LEN] {
        let mut out = [0u8; SIGNATURE_LEN];
        out[..COMPRESSED_LEN].copy_from_slice(&self.r);
        out[COMPRESSED_LEN..].copy_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Parses a 65-byte encoding, checking ranges only: prefix `02`/`03`,
    /// canonical `x < p`, canonical `0 < s < n`. Whether `x` is on the
    /// curve is left to verification (see the type's documentation).
    pub fn from_bytes(bytes: &[u8; SIGNATURE_LEN]) -> Result<Self, KeyError> {
        let (r, s) = bytes.split_at(COMPRESSED_LEN);
        let r: [u8; COMPRESSED_LEN] = r.try_into().expect("split at COMPRESSED_LEN");
        let x: &[u8; 32] = r[1..].try_into().expect("33 bytes minus the prefix");
        if !matches!(r[0], 0x02 | 0x03) || Fe::from_be_bytes(x).is_none() {
            return Err(KeyError::InvalidEncoding);
        }
        let s = Scalar::from_be_bytes_checked(s.try_into().expect("65 minus 33 bytes"))
            .filter(|s| !s.is_zero())
            .ok_or(KeyError::InvalidEncoding)?;
        Ok(Signature { r, s })
    }
}

impl Keypair {
    /// Deterministic key pair from a seed. See [`SecretKey::from_seed`].
    ///
    /// # Panics
    ///
    /// Panics on the (cryptographically negligible) event that the seed
    /// hashes to the zero scalar.
    pub fn from_seed(seed: &[u8]) -> Keypair {
        let secret = SecretKey::from_seed(seed).expect("seed hashed to zero scalar");
        let public = secret.public();
        Keypair { secret, public }
    }

    /// Generates a key pair from 32 random bytes.
    pub fn from_entropy(entropy: [u8; 32]) -> Result<Keypair, KeyError> {
        let secret = SecretKey::from_seed(&entropy)?;
        let public = secret.public();
        Ok(Keypair { secret, public })
    }

    /// The public half.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// The secret half.
    pub fn secret(&self) -> &SecretKey {
        &self.secret
    }

    /// Signs a message with the cached public key — one fixed-base comb
    /// multiplication per signature. See [`SecretKey::sign_with_public`].
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.secret.sign_with_public(&self.public, message)
    }

    /// Static Diffie–Hellman agreement. See [`SecretKey::agree`].
    pub fn agree(&self, peer: &PublicKey) -> [u8; 32] {
        self.secret.agree(peer)
    }
}

/// Batch verification of many (message, key, signature) triples.
///
/// Uses the standard random-linear-combination check with weights `zᵢ`,
/// grouped by public key: with `K` the distinct keys of the batch,
/// `(Σᵢ zᵢ·sᵢ)·G == Σᵢ zᵢ·Rᵢ + Σ_{P∈K} (Σ_{i: Pᵢ=P} zᵢ·eᵢ)·P`, evaluated
/// as one multi-scalar multiplication with shared doublings. Summing a
/// key's `zᵢ·eᵢ` before multiplying is distributivity, not a weaker check:
/// the weights stay per signature, so it is the same equation as one
/// `(zᵢ·eᵢ)·Pᵢ` term each. A signature in a batch of `B` therefore costs
/// one half-width `zᵢ·Rᵢ` term (plus the square root that lifts Rᵢ) and
/// `1/B` of the full-width terms — one per distinct key and one for G. In
/// Astro II every signature is a replica's, so a verify-pool batch of 8–32
/// checks names at most n keys; `BENCH_micro_crypto.json` has both shapes
/// (`schnorr_batch_verify/few_signers_*` beside the all-distinct
/// `batched_*` / `speedup_*` rows). Weights are derived by hashing the whole
/// batch (deterministic, so tests and simulations reproduce; a production
/// verifier facing adaptive attackers should use fresh randomness).
///
/// This is the one place a signature's R is lifted onto the curve (a
/// field square root each); an R with no point on the curve fails the
/// batch like any other forgery.
///
/// Returns `true` iff the combined check passes; a `false` means at least
/// one signature is invalid ([`find_invalid`] locates it).
pub fn batch_verify(items: &[(&[u8], PublicKey, Signature)]) -> bool {
    if items.is_empty() {
        return true;
    }
    if items.len() == 1 {
        let (msg, pk, sig) = &items[0];
        return pk.verify(msg, sig);
    }
    // Weight seed binds every signature in the batch.
    let mut h = Sha256::new();
    h.update(b"astro-schnorr-batch-v1");
    for (msg, pk, sig) in items {
        h.update(&pk.to_bytes());
        h.update(&sig.to_bytes());
        h.update(&(msg.len() as u64).to_be_bytes());
        h.update(msg);
    }
    let seed = h.finalize();

    let mut weighted = Vec::with_capacity(items.len());
    for (i, (msg, pk, sig)) in items.iter().enumerate() {
        let Some(r) = Affine::from_compressed(&sig.r) else { return false };
        // 128-bit weights suffice (forgery survives the random linear
        // combination with probability 2⁻¹²⁸) and halve the wNAF digit
        // count of every zᵢ·Rᵢ term in the multi-scalar multiplication.
        let mut z_bytes = [0u8; 32];
        z_bytes[16..].copy_from_slice(
            &sha256_concat(&[b"astro-batch-weight", &seed, &(i as u64).to_be_bytes()])[..16],
        );
        let z = Scalar::from_be_bytes_reduced(&z_bytes);
        let z = if z.is_zero() { Scalar::ONE } else { z };
        weighted.push(Weighted { z, e: challenge(&sig.r, pk, msg), r, pk: *pk, s: sig.s });
    }
    combined_check(&weighted)
}

/// One signature as the combined check sees it: weight, challenge, R
/// lifted onto the curve, key, and `s`.
struct Weighted {
    z: Scalar,
    e: Scalar,
    r: Affine,
    pk: PublicKey,
    s: Scalar,
}

/// `(Σ zᵢsᵢ)·G − Σ zᵢ·Rᵢ − Σ_P (Σ_{Pᵢ=P} zᵢeᵢ)·P == ∞`: one term per
/// signature for R, one per distinct key, one for G.
fn combined_check(weighted: &[Weighted]) -> bool {
    let mut s_combined = Scalar::ZERO;
    let mut terms: Vec<(Scalar, Affine)> = Vec::with_capacity(2 * weighted.len() + 1);
    // Each distinct key and where its term sits in `terms`. Found by
    // scanning: a batch names at most the n replicas, and comparing two
    // keys is comparing a few words.
    let mut by_key: Vec<(PublicKey, usize)> = Vec::new();
    for w in weighted {
        s_combined = s_combined.add(&w.z.mul(&w.s));
        terms.push((w.z, w.r.neg()));
        let ze = w.z.mul(&w.e);
        match by_key.iter().find(|(pk, _)| *pk == w.pk) {
            // A sum that comes to zero contributes ∞, which is what the
            // multiplication makes of a zero scalar: it skips the term.
            Some((_, at)) => terms[*at].0 = terms[*at].0.add(&ze),
            None => {
                by_key.push((w.pk, terms.len()));
                terms.push((ze, w.pk.point().neg()));
            }
        }
    }
    terms.push((s_combined, Affine::generator()));
    // Z = 0 answers the question; normalizing would cost an inversion.
    crate::point::multi_scalar_mul_jacobian(&terms).is_infinity()
}

/// Locates the invalid signatures of a batch by bisection: recursively
/// [`batch_verify`]s halves, descending only into failing ones, so a batch
/// with `b` forgeries costs `O(b · log n)` batch checks instead of `n`
/// serial verifications. Returns the (sorted) indices of every invalid
/// item; empty means the whole batch verifies.
///
/// This is the fallback path after a failed [`batch_verify`]: the batch
/// told you *something* is forged, this tells you *what*, and the caller
/// can keep the honest majority of the batch.
pub fn find_invalid(items: &[(&[u8], PublicKey, Signature)]) -> Vec<usize> {
    fn descend(items: &[(&[u8], PublicKey, Signature)], offset: usize, out: &mut Vec<usize>) {
        if items.is_empty() || batch_verify(items) {
            return;
        }
        if items.len() == 1 {
            out.push(offset);
            return;
        }
        let mid = items.len() / 2;
        descend(&items[..mid], offset, out);
        descend(&items[mid..], offset + mid, out);
    }
    let mut out = Vec::new();
    descend(items, 0, &mut out);
    out
}

/// RFC-6979-style deterministic nonce: `H(sk ‖ H(m) ‖ ctr)` widened to 512
/// bits and reduced mod n to avoid modular bias.
fn derive_nonce(secret: &Scalar, message: &[u8], counter: u32) -> Scalar {
    let m_digest = crate::sha256::sha256(message);
    let mut h1 = Sha256::new();
    h1.update(b"astro-schnorr-nonce-v1/1");
    h1.update(&secret.to_be_bytes());
    h1.update(&m_digest);
    h1.update(&counter.to_be_bytes());
    let d1 = h1.finalize();
    let mut h2 = Sha256::new();
    h2.update(b"astro-schnorr-nonce-v1/2");
    h2.update(&secret.to_be_bytes());
    h2.update(&m_digest);
    h2.update(&counter.to_be_bytes());
    let d2 = h2.finalize();
    let mut wide = [0u8; 64];
    wide[..32].copy_from_slice(&d1);
    wide[32..].copy_from_slice(&d2);
    Scalar::from_wide_be_bytes(&wide)
}

/// The Fiat–Shamir challenge `e = H(R ‖ P ‖ m)` reduced mod n, over R's
/// compressed bytes.
fn challenge(r: &[u8; COMPRESSED_LEN], pk: &PublicKey, message: &[u8]) -> Scalar {
    let digest = sha256_concat(&[b"astro-schnorr-challenge-v1", r, &pk.to_bytes(), message]);
    Scalar::from_be_bytes_reduced(&digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_round_trip() {
        let kp = Keypair::from_seed(b"test-key-1");
        let sig = kp.sign(b"hello astro");
        assert!(kp.public().verify(b"hello astro", &sig));
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let kp = Keypair::from_seed(b"test-key-2");
        let sig = kp.sign(b"original");
        assert!(!kp.public().verify(b"tampered", &sig));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let kp1 = Keypair::from_seed(b"key-a");
        let kp2 = Keypair::from_seed(b"key-b");
        let sig = kp1.sign(b"msg");
        assert!(!kp2.public().verify(b"msg", &sig));
    }

    #[test]
    fn signature_serialization_round_trip() {
        let kp = Keypair::from_seed(b"serialize");
        let sig = kp.sign(b"round trip");
        let bytes = sig.to_bytes();
        let back = Signature::from_bytes(&bytes).expect("decodes");
        assert_eq!(sig, back);
        assert!(kp.public().verify(b"round trip", &back));
    }

    #[test]
    fn public_key_serialization_round_trip() {
        let kp = Keypair::from_seed(b"pk-bytes");
        let bytes = kp.public().to_bytes();
        let back = PublicKey::from_bytes(&bytes).expect("decodes");
        assert_eq!(*kp.public(), back);
    }

    #[test]
    fn tampered_signature_bytes_rejected_or_invalid() {
        let kp = Keypair::from_seed(b"tamper");
        let sig = kp.sign(b"msg");
        let mut bytes = sig.to_bytes();
        bytes[40] ^= 0x01; // flip a bit in s
                           // Failing to decode is also acceptable.
        if let Ok(bad) = Signature::from_bytes(&bytes) {
            assert!(!kp.public().verify(b"msg", &bad));
        }
    }

    #[test]
    fn signature_bytes_are_pinned() {
        // Wire frames, WAL records and checkpoint segments hold these 65
        // bytes; the in-memory form may change, the encoding may not.
        let sig = Keypair::from_seed(b"golden").sign(b"astro");
        let hex: String = sig.to_bytes().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "02650f17c3f3dff669ff093262af2d3c96184b39bd04e42a141d69cc2c1a4c60dc\
             1505b663c1eb6353c0ad40eb0058961a881ba818c825b7dd1f3cd79f9386242b"
        );
        assert!(core::mem::size_of::<Signature>() <= 72);
    }

    /// `sig` with R's x coordinate replaced by 5: in range, but 5³ + 7 is
    /// not a square mod p, so no curve point has it.
    fn with_off_curve_r(sig: &Signature) -> Signature {
        let mut bytes = sig.to_bytes();
        bytes[1..COMPRESSED_LEN].fill(0);
        bytes[COMPRESSED_LEN - 1] = 5;
        assert!(Affine::from_compressed(bytes[..COMPRESSED_LEN].try_into().unwrap()).is_none());
        Signature::from_bytes(&bytes).expect("range checks pass; curve membership is not decode's")
    }

    #[test]
    fn off_curve_r_decodes_and_fails_every_verification_path() {
        let kp = Keypair::from_seed(b"off-curve");
        let good = kp.sign(b"m");
        let bad = with_off_curve_r(&good);
        assert!(!kp.public().verify(b"m", &bad));
        assert!(!batch_verify(&[(b"m".as_slice(), *kp.public(), bad)]));
        let pair = [(b"m".as_slice(), *kp.public(), good), (b"m".as_slice(), *kp.public(), bad)];
        assert!(!batch_verify(&pair));
        assert_eq!(find_invalid(&pair), vec![1]);
    }

    #[test]
    fn find_invalid_names_the_off_curve_r_among_valid_signatures() {
        let mut items = batch_of(10, 80);
        items[6].2 = with_off_curve_r(&items[6].2);
        assert_eq!(find_invalid(&borrow(&items)), vec![6]);
    }

    #[test]
    fn out_of_range_encodings_fail_decode() {
        let sig = Keypair::from_seed(b"ranges").sign(b"m").to_bytes();
        let with = |at: core::ops::Range<usize>, value: &[u8]| {
            let mut bytes = sig;
            bytes[at].copy_from_slice(value);
            Signature::from_bytes(&bytes)
        };
        let p = crate::u256::to_be_bytes(&crate::field::P.m);
        let n = crate::u256::to_be_bytes(&crate::scalar::N.m);
        assert!(with(0..1, &[0x02]).is_ok() && with(0..1, &[0x03]).is_ok());
        for prefix in [0x00, 0x01, 0x04, 0xff] {
            assert!(with(0..1, &[prefix]).is_err(), "prefix {prefix:#04x}");
        }
        assert!(with(1..33, &p).is_err(), "x = p");
        assert!(with(1..33, &[0xff; 32]).is_err(), "x = 2^256 - 1");
        assert!(with(33..65, &[0; 32]).is_err(), "s = 0");
        assert!(with(33..65, &n).is_err(), "s = n");
        assert!(with(33..65, &[0xff; 32]).is_err(), "s = 2^256 - 1");
        // The old all-zero "infinity" R is a bad prefix now.
        assert!(with(0..33, &[0; 33]).is_err());
    }

    #[test]
    fn deterministic_signing() {
        let kp = Keypair::from_seed(b"determinism");
        assert_eq!(kp.sign(b"same msg"), kp.sign(b"same msg"));
    }

    #[test]
    fn different_messages_different_signatures() {
        let kp = Keypair::from_seed(b"distinct");
        assert_ne!(kp.sign(b"m1"), kp.sign(b"m2"));
    }

    #[test]
    fn signature_is_not_malleable_to_other_message() {
        // A signature over m must not verify any other (R, s) pairing.
        let kp = Keypair::from_seed(b"malleability");
        let sig1 = kp.sign(b"m1");
        let sig2 = kp.sign(b"m2");
        let franken = Signature { r: sig1.r, s: sig2.s };
        assert!(!kp.public().verify(b"m1", &franken));
        assert!(!kp.public().verify(b"m2", &franken));
    }

    #[test]
    fn batch_verify_accepts_valid_batches() {
        let items: Vec<(Vec<u8>, PublicKey, Signature)> = (0..5u8)
            .map(|i| {
                let kp = Keypair::from_seed(&[i, 1, 2]);
                let msg = vec![i; 10];
                let sig = kp.sign(&msg);
                (msg, *kp.public(), sig)
            })
            .collect();
        let borrowed: Vec<(&[u8], PublicKey, Signature)> =
            items.iter().map(|(m, p, s)| (m.as_slice(), *p, *s)).collect();
        assert!(batch_verify(&borrowed));
    }

    #[test]
    fn batch_verify_rejects_one_bad_signature() {
        let mut items: Vec<(Vec<u8>, PublicKey, Signature)> = (0..5u8)
            .map(|i| {
                let kp = Keypair::from_seed(&[i, 9]);
                let msg = vec![i; 10];
                let sig = kp.sign(&msg);
                (msg, *kp.public(), sig)
            })
            .collect();
        // Corrupt one message so its signature no longer matches.
        items[3].0.push(0xff);
        let borrowed: Vec<(&[u8], PublicKey, Signature)> =
            items.iter().map(|(m, p, s)| (m.as_slice(), *p, *s)).collect();
        assert!(!batch_verify(&borrowed));
    }

    #[test]
    fn batch_verify_empty_and_singleton() {
        assert!(batch_verify(&[]));
        let kp = Keypair::from_seed(b"single");
        let sig = kp.sign(b"m");
        assert!(batch_verify(&[(b"m".as_slice(), *kp.public(), sig)]));
        let bad = kp.sign(b"other");
        assert!(!batch_verify(&[(b"m".as_slice(), *kp.public(), bad)]));
    }

    fn batch_of(n: u8, tag: u8) -> Vec<(Vec<u8>, PublicKey, Signature)> {
        (0..n)
            .map(|i| {
                let kp = Keypair::from_seed(&[i, tag]);
                let msg = vec![i; 12];
                let sig = kp.sign(&msg);
                (msg, *kp.public(), sig)
            })
            .collect()
    }

    fn borrow(items: &[(Vec<u8>, PublicKey, Signature)]) -> Vec<(&[u8], PublicKey, Signature)> {
        items.iter().map(|(m, p, s)| (m.as_slice(), *p, *s)).collect()
    }

    #[test]
    fn find_invalid_pinpoints_the_single_forgery() {
        let mut items = batch_of(9, 77);
        // Swap signature 5 for one over a different message: the batch
        // fails and bisection must name exactly index 5.
        let kp = Keypair::from_seed(&[5, 77]);
        items[5].2 = kp.sign(b"some other message");
        let borrowed = borrow(&items);
        assert!(!batch_verify(&borrowed));
        assert_eq!(find_invalid(&borrowed), vec![5]);
    }

    #[test]
    fn find_invalid_reports_every_forgery_and_nothing_else() {
        let mut items = batch_of(12, 78);
        let outsider = Keypair::from_seed(b"not in the batch");
        items[0].2 = outsider.sign(&items[0].0);
        items[7].2 = outsider.sign(&items[7].0);
        items[11].2 = outsider.sign(&items[11].0);
        assert_eq!(find_invalid(&borrow(&items)), vec![0, 7, 11]);
    }

    #[test]
    fn find_invalid_is_empty_for_a_clean_batch() {
        let items = batch_of(6, 79);
        assert!(find_invalid(&borrow(&items)).is_empty());
        assert!(find_invalid(&[]).is_empty());
    }

    #[test]
    fn same_signer_errors_that_cancel_unweighted_still_fail() {
        // s₁+δ and s₂−δ: the two errors cancel in Σ sᵢ, and both fall on
        // one key's term. The per-signature weights keep them apart.
        let kp = Keypair::from_seed(b"one signer");
        let delta = Scalar::from_u64(7);
        let (a, b) = (kp.sign(b"first"), kp.sign(b"second"));
        let a_bad = Signature { r: a.r, s: a.s.add(&delta) };
        let b_bad = Signature { r: b.r, s: b.s.sub(&delta) };
        let pk = *kp.public();
        let third = kp.sign(b"third");
        assert!(batch_verify(&[(b"first", pk, a), (b"second", pk, b), (b"third", pk, third)]));
        let items: [(&[u8], _, _); 3] =
            [(b"first", pk, a_bad), (b"third", pk, third), (b"second", pk, b_bad)];
        assert!(!batch_verify(&items));
        assert_eq!(find_invalid(&items), vec![0, 2]);
    }

    #[test]
    fn a_key_whose_weighted_challenges_sum_to_zero_drops_out_of_the_check() {
        // No honest hash output makes Σ zᵢeᵢ vanish, so the equation is
        // driven directly: pick e₂ = −z₁e₁/z₂ and "signatures" sᵢ = kᵢ +
        // eᵢ·sk that satisfy sᵢ·G = Rᵢ + eᵢ·P for those challenges.
        let sk = Scalar::from_u64(0x5eed);
        let pk = PublicKey { point: crate::point::mul_generator(&sk) };
        let (z1, z2, e1) = (Scalar::from_u64(3), Scalar::from_u64(5), Scalar::from_u64(11));
        let e2 = z1.mul(&e1).mul(&z2.invert()).neg();
        assert!(z1.mul(&e1).add(&z2.mul(&e2)).is_zero());
        let item = |z: Scalar, e: Scalar, k: u64| {
            let k = Scalar::from_u64(k);
            Weighted { z, e, r: crate::point::mul_generator(&k), pk, s: k.add(&e.mul(&sk)) }
        };
        // Beside a second key whose term does not vanish.
        let other = Keypair::from_seed(b"other key");
        let sig = other.sign(b"m");
        let honest = Weighted {
            z: Scalar::from_u64(9),
            e: challenge(&sig.r, other.public(), b"m"),
            r: Affine::from_compressed(&sig.r).unwrap(),
            pk: *other.public(),
            s: sig.s,
        };
        let mut batch = vec![item(z1, e1, 101), item(z2, e2, 202), honest];
        assert!(combined_check(&batch));
        // The R and G terms still bind s: a wrong s fails although the
        // key's own term is gone.
        batch[1].s = batch[1].s.add(&Scalar::ONE);
        assert!(!combined_check(&batch));
    }

    #[test]
    fn agreement_is_symmetric() {
        let a = Keypair::from_seed(b"dh-a");
        let b = Keypair::from_seed(b"dh-b");
        assert_eq!(a.agree(b.public()), b.agree(a.public()));
    }

    #[test]
    fn agreement_excludes_third_parties() {
        let a = Keypair::from_seed(b"dh-a");
        let b = Keypair::from_seed(b"dh-b");
        let c = Keypair::from_seed(b"dh-c");
        let ab = a.agree(b.public());
        // c knows both public keys but neither secret: everything it can
        // derive differs from the (a, b) shared secret.
        assert_ne!(c.agree(a.public()), ab);
        assert_ne!(c.agree(b.public()), ab);
    }

    #[test]
    fn from_entropy_rejects_nothing_reasonable() {
        let kp = Keypair::from_entropy([42u8; 32]).expect("valid entropy");
        let sig = kp.sign(b"x");
        assert!(kp.public().verify(b"x", &sig));
    }
}
