//! Pluggable message authentication for protocol state machines.
//!
//! Astro II's broadcast and CREDIT messages carry replica signatures. Protocol logic is written against the [`Authenticator`]
//! trait so the same state machines run with:
//!
//! - [`SchnorrAuthenticator`] — real Schnorr/secp256k1 signatures (unit and
//!   integration tests, microbenchmarks, the threaded runtime); or
//! - [`MacAuthenticator`] — simulation-grade HMAC tags padded to signature
//!   size. Large-scale simulations use this so wall-clock time is not
//!   dominated by curve arithmetic; the simulator's CPU model charges the
//!   *real* (calibrated) signature costs instead. Tags bind the signer id,
//!   so honest-execution semantics are identical; unforgeability against a
//!   key-holding adversary is deliberately not provided and documented as
//!   such.

use crate::ids::ReplicaId;
use crate::keys::Keychain;
use crate::wire::{Wire, WireError};
use astro_crypto::hmac::hmac_sha256;
use astro_crypto::schnorr::SIGNATURE_LEN;
use astro_crypto::sha256::Sha256;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// One Schnorr signature check: does `signer` have a valid signature over
/// `context`? The unit of work a runtime verify pool pre-verifies, and the
/// key shape of the [`VerdictCache`] the pool shares with
/// [`SchnorrAuthenticator`].
#[derive(Debug, Clone)]
pub struct SigCheck {
    /// The claimed signer.
    pub signer: ReplicaId,
    /// The byte string the signature covers. Shared, because one context
    /// typically backs a whole quorum proof's worth of checks — a
    /// refcount bump per signature instead of a buffer clone on the
    /// replica's event-loop thread.
    pub context: Arc<[u8]>,
    /// The signature to check.
    pub sig: astro_crypto::Signature,
}

impl SigCheck {
    /// The verdict-cache key: a domain-separated digest binding signer,
    /// context, and signature bytes. Verification is a pure function of
    /// these three (given a fixed key book), so a cached verdict is
    /// exactly as authoritative as re-running the check.
    pub fn cache_key(&self) -> [u8; 32] {
        verdict_key(self.signer, &self.context, &self.sig)
    }
}

/// The verdict-cache key of one `(signer, context, signature)` triple.
fn verdict_key(signer: ReplicaId, context: &[u8], sig: &astro_crypto::Signature) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"astro-verdict-v1");
    h.update(&signer.0.to_be_bytes());
    h.update(&(context.len() as u64).to_be_bytes());
    h.update(context);
    h.update(&sig.to_bytes());
    h.finalize()
}

/// A bounded, thread-safe cache of signature verdicts, shared between a
/// runtime verify pool (writer, off the replica thread) and the replica's
/// [`SchnorrAuthenticator`] (reader on the hot path).
///
/// Verdicts are keyed by [`SigCheck::cache_key`] — the digest of signer,
/// context, and signature bytes — so a cached `true`/`false` is the exact
/// result serial verification would produce, and pooled runs settle
/// byte-identically to serial ones. FIFO eviction bounds memory; an
/// evicted verdict is simply recomputed.
#[derive(Debug)]
pub struct VerdictCache {
    inner: Mutex<VerdictInner>,
    cap: usize,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
}

#[derive(Debug)]
struct VerdictInner {
    map: HashMap<[u8; 32], bool>,
    order: VecDeque<[u8; 32]>,
}

impl VerdictCache {
    /// Creates a cache holding at most `cap` verdicts.
    pub fn new(cap: usize) -> Self {
        VerdictCache {
            inner: Mutex::new(VerdictInner { map: HashMap::new(), order: VecDeque::new() }),
            cap: cap.max(1),
            hits: std::sync::atomic::AtomicU64::new(0),
            misses: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The cached verdict for `key`, if any.
    pub fn get(&self, key: &[u8; 32]) -> Option<bool> {
        let verdict = self.inner.lock().unwrap_or_else(|e| e.into_inner()).map.get(key).copied();
        let counter = if verdict.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        verdict
    }

    /// Lookups that found a cached verdict.
    pub fn hits(&self) -> u64 {
        self.hits.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Lookups that fell through to curve work.
    pub fn misses(&self) -> u64 {
        self.misses.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Records a verdict (first write wins; verification is deterministic,
    /// so concurrent writers agree). Writers are the verify pool, the
    /// authenticator's own cache misses and
    /// [`SchnorrAuthenticator`]'s [`Authenticator::sign_for_self`].
    pub fn insert(&self, key: [u8; 32], ok: bool) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let VerdictInner { map, order } = &mut *inner;
        if let Entry::Vacant(slot) = map.entry(key) {
            slot.insert(ok);
            order.push_back(key);
            if order.len() > self.cap {
                if let Some(evicted) = order.pop_front() {
                    map.remove(&evicted);
                }
            }
        }
    }

    /// Number of cached verdicts.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Signing/verification capability of one replica, as seen by protocol
/// state machines.
pub trait Authenticator: Clone + Send + 'static {
    /// The signature type produced.
    type Sig: Clone + PartialEq + Eq + core::fmt::Debug + Wire + Send + 'static;

    /// The id of the local replica (the signer).
    fn me(&self) -> ReplicaId;

    /// `sig` as a Schnorr signature — the form a [`SigCheck`] carries to a
    /// verify pool — if it is one. Default: `None` (simulation-grade
    /// tags have nothing for a pool to check).
    fn schnorr(sig: &Self::Sig) -> Option<astro_crypto::Signature> {
        let _ = sig;
        None
    }

    /// Signs `message` as the local replica.
    fn sign(&self, message: &[u8]) -> Self::Sig;

    /// Signs `message` as the local replica, for a message the local
    /// replica addresses to itself: the broadcaster's own ACK, the
    /// representative's self-addressed CREDIT. The bytes are exactly
    /// [`sign`](Authenticator::sign)'s. An implementation with a verdict
    /// cache may also note the signature as valid, because it made it
    /// and every later check of it would otherwise repeat curve work
    /// whose answer is known. Default: plain `sign`.
    ///
    /// Only a self-addressed signature may be noted. A cache can be
    /// shared by several replicas of one process (the runtime's verify
    /// pool shares one across a cluster), so a verdict noted for a
    /// signature sent to a peer would spare that peer a check no
    /// deployment spares it. Plain `sign` therefore never notes one.
    fn sign_for_self(&self, message: &[u8]) -> Self::Sig {
        self.sign(message)
    }

    /// Verifies that `sig` is `peer`'s signature over `message`.
    fn verify(&self, peer: ReplicaId, message: &[u8], sig: &Self::Sig) -> bool;

    /// Verifies that every `(peer, sig)` pair is a valid signature over the
    /// *same* `message` — the shape of BRB commit proofs, dependency
    /// certificates, and accumulated ACK checks.
    ///
    /// Returns `true` iff **all** signatures verify; on `false` the caller
    /// falls back to [`verify_each`](Authenticator::verify_each) to locate
    /// the forgeries. The default checks serially; implementations with a
    /// cheaper combined check (Schnorr batch verification) override it.
    fn verify_all(&self, message: &[u8], sigs: &[(ReplicaId, &Self::Sig)]) -> bool {
        sigs.iter().all(|(peer, sig)| self.verify(*peer, message, sig))
    }

    /// Classifies every `(peer, sig)` pair over the same `message`:
    /// `result[i]` is whether entry `i` verifies. The forgery-location
    /// fallback after a failed [`verify_all`](Authenticator::verify_all).
    /// The default checks serially; Schnorr bisects with batch checks
    /// (`O(bad · log n)` instead of `n` verifications).
    fn verify_each(&self, message: &[u8], sigs: &[(ReplicaId, &Self::Sig)]) -> Vec<bool> {
        sigs.iter().map(|(peer, sig)| self.verify(*peer, message, sig)).collect()
    }
}

/// Counts the distinct member replicas with a valid signature in a
/// same-message quorum proof — the shared engine behind BRB `Commit`
/// proofs and dependency-certificate verification.
///
/// Fast path: the first signature of each distinct member is verified as
/// one batch ([`Authenticator::verify_all`]). On failure the **full**
/// membership-filtered proof (duplicates included, so a forged duplicate
/// cannot shadow a genuine entry) goes through
/// [`Authenticator::verify_each`], which locates forgeries by bisection
/// under Schnorr.
pub fn count_valid_signers<A: Authenticator>(
    auth: &A,
    message: &[u8],
    proof: &[(ReplicaId, A::Sig)],
    mut is_member: impl FnMut(ReplicaId) -> bool,
) -> usize {
    let entries: Vec<(ReplicaId, &A::Sig)> =
        proof.iter().filter(|(r, _)| is_member(*r)).map(|(r, s)| (*r, s)).collect();
    let mut seen = std::collections::HashSet::new();
    let firsts: Vec<(ReplicaId, &A::Sig)> =
        entries.iter().filter(|(r, _)| seen.insert(*r)).copied().collect();
    if auth.verify_all(message, &firsts) {
        return firsts.len();
    }
    let valid = auth.verify_each(message, &entries);
    entries
        .iter()
        .zip(valid)
        .filter_map(|((r, _), ok)| ok.then_some(*r))
        .collect::<std::collections::HashSet<_>>()
        .len()
}

/// Real Schnorr signatures backed by a [`Keychain`].
///
/// Optionally consults a shared [`VerdictCache`] before any curve work:
/// when a runtime verify pool pre-verifies inbound signature batches off
/// the replica thread, every `verify*` call here becomes a cache lookup
/// and the replica's event loop never blocks on scalar multiplications
/// for pre-verified traffic. Cache misses fall back to the normal
/// (batched) verification paths and backfill the cache. With a cache,
/// [`Authenticator::sign_for_self`] notes its own signature's verdict,
/// so the replica never verifies a signature it made for itself.
#[derive(Debug, Clone)]
pub struct SchnorrAuthenticator {
    keychain: Keychain,
    cache: Option<Arc<VerdictCache>>,
}

impl SchnorrAuthenticator {
    /// Wraps a keychain (no verdict cache; every check does curve work).
    pub fn new(keychain: Keychain) -> Self {
        Self { keychain, cache: None }
    }

    /// Wraps a keychain with a shared verdict cache (the verify-pool
    /// deployment).
    pub fn with_cache(keychain: Keychain, cache: Arc<VerdictCache>) -> Self {
        Self { keychain, cache: Some(cache) }
    }

    /// Access to the underlying keychain.
    pub fn keychain(&self) -> &Keychain {
        &self.keychain
    }
}

impl Authenticator for SchnorrAuthenticator {
    type Sig = astro_crypto::Signature;

    fn me(&self) -> ReplicaId {
        self.keychain.id()
    }

    fn schnorr(sig: &Self::Sig) -> Option<astro_crypto::Signature> {
        Some(*sig)
    }

    fn sign(&self, message: &[u8]) -> Self::Sig {
        self.keychain.sign(message)
    }

    /// Signs, then notes `true` for the signature in the attached cache:
    /// a signature made with this replica's own key verifies by
    /// construction. Without a cache this is plain `sign`.
    fn sign_for_self(&self, message: &[u8]) -> Self::Sig {
        let sig = self.sign(message);
        if let Some(cache) = &self.cache {
            cache.insert(verdict_key(self.me(), message, &sig), true);
        }
        sig
    }

    fn verify(&self, peer: ReplicaId, message: &[u8], sig: &Self::Sig) -> bool {
        let Some(cache) = &self.cache else {
            return self.keychain.verify(peer, message, sig);
        };
        let key = verdict_key(peer, message, sig);
        if let Some(verdict) = cache.get(&key) {
            return verdict;
        }
        let ok = self.keychain.verify(peer, message, sig);
        cache.insert(key, ok);
        ok
    }

    fn verify_all(&self, message: &[u8], sigs: &[(ReplicaId, &Self::Sig)]) -> bool {
        // One multi-scalar multiplication for the whole set (measured
        // against serial on `astro_crypto::schnorr::batch_verify`) — or,
        // with a verify pool attached, pure cache lookups for
        // pre-verified entries and one batch over the misses.
        let mut items = Vec::with_capacity(sigs.len());
        let mut miss_keys = Vec::new();
        for (peer, sig) in sigs {
            let Some(pk) = self.keychain.book().key_of(*peer) else { return false };
            if let Some(cache) = &self.cache {
                let key = verdict_key(*peer, message, sig);
                match cache.get(&key) {
                    Some(true) => continue,
                    Some(false) => return false,
                    None => miss_keys.push(key),
                }
            }
            items.push((message, *pk, **sig));
        }
        if items.is_empty() {
            return true;
        }
        let ok = astro_crypto::schnorr::batch_verify(&items);
        if ok {
            // A passing batch proves every member valid; a failing batch
            // only proves *some* member invalid, so no per-item verdicts
            // are cached (verify_each pinpoints and caches them).
            if let Some(cache) = &self.cache {
                for key in miss_keys {
                    cache.insert(key, true);
                }
            }
        }
        ok
    }

    fn verify_each(&self, message: &[u8], sigs: &[(ReplicaId, &Self::Sig)]) -> Vec<bool> {
        // Bisection over batch checks: a proof with `b` forgeries costs
        // O(b · log n) batch verifications instead of n serial ones.
        // Cached verdicts short-circuit their entries entirely.
        let mut ok = vec![true; sigs.len()];
        let mut items = Vec::with_capacity(sigs.len());
        let mut item_index = Vec::with_capacity(sigs.len());
        let mut item_keys = Vec::with_capacity(sigs.len());
        for (i, (peer, sig)) in sigs.iter().enumerate() {
            match self.keychain.book().key_of(*peer) {
                Some(pk) => {
                    if let Some(cache) = &self.cache {
                        let key = verdict_key(*peer, message, sig);
                        if let Some(verdict) = cache.get(&key) {
                            ok[i] = verdict;
                            continue;
                        }
                        item_keys.push(key);
                    }
                    items.push((message, *pk, **sig));
                    item_index.push(i);
                }
                None => ok[i] = false,
            }
        }
        let invalid = astro_crypto::schnorr::find_invalid(&items);
        if let Some(cache) = &self.cache {
            for (j, key) in item_keys.into_iter().enumerate() {
                cache.insert(key, !invalid.contains(&j));
            }
        }
        for bad in invalid {
            ok[item_index[bad]] = false;
        }
        ok
    }
}

/// A simulation-grade signature: an HMAC tag over (signer, message) padded
/// to the exact wire size of a real Schnorr signature, so bandwidth models
/// are unaffected by the substitution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimSig {
    tag: [u8; 32],
}

impl Wire for SimSig {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.tag.encode(buf);
        // Pad to real signature size for faithful bandwidth accounting.
        buf.extend_from_slice(&[0u8; SIGNATURE_LEN - 32]);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let tag: [u8; 32] = Wire::decode(buf)?;
        let _pad: [u8; SIGNATURE_LEN - 32] = Wire::decode(buf)?;
        Ok(SimSig { tag })
    }
    fn encoded_len(&self) -> usize {
        SIGNATURE_LEN
    }
}

/// Simulation-grade authenticator (see module docs for the trust model).
#[derive(Debug, Clone)]
pub struct MacAuthenticator {
    me: ReplicaId,
    secret: Vec<u8>,
}

impl MacAuthenticator {
    /// Creates an authenticator for `me` from a system-wide shared secret.
    pub fn new(me: ReplicaId, secret: impl Into<Vec<u8>>) -> Self {
        Self { me, secret: secret.into() }
    }

    fn tag_for(&self, signer: ReplicaId, message: &[u8]) -> [u8; 32] {
        let mut data = Vec::with_capacity(message.len() + 12);
        data.extend_from_slice(b"sim-sig!");
        data.extend_from_slice(&signer.0.to_be_bytes());
        data.extend_from_slice(message);
        hmac_sha256(&self.secret, &data)
    }
}

impl Authenticator for MacAuthenticator {
    type Sig = SimSig;

    fn me(&self) -> ReplicaId {
        self.me
    }

    fn sign(&self, message: &[u8]) -> Self::Sig {
        SimSig { tag: self.tag_for(self.me, message) }
    }

    fn verify(&self, peer: ReplicaId, message: &[u8], sig: &Self::Sig) -> bool {
        astro_crypto::hmac::ct_eq(&self.tag_for(peer, message), &sig.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::decode_exact;

    #[test]
    fn schnorr_authenticator_round_trip() {
        let chains = Keychain::deterministic_system(b"auth", 4);
        let auth0 = SchnorrAuthenticator::new(chains[0].clone());
        let auth1 = SchnorrAuthenticator::new(chains[1].clone());
        let sig = auth0.sign(b"m");
        assert!(auth1.verify(ReplicaId(0), b"m", &sig));
        assert!(!auth1.verify(ReplicaId(0), b"m2", &sig));
        assert!(!auth1.verify(ReplicaId(1), b"m", &sig));
    }

    fn by_ref(
        sigs: &[(ReplicaId, astro_crypto::Signature)],
    ) -> Vec<(ReplicaId, &astro_crypto::Signature)> {
        sigs.iter().map(|(r, s)| (*r, s)).collect()
    }

    #[test]
    fn schnorr_verify_all_matches_serial_verification() {
        let chains = Keychain::deterministic_system(b"auth-batch", 4);
        let auths: Vec<SchnorrAuthenticator> =
            chains.iter().map(|kc| SchnorrAuthenticator::new(kc.clone())).collect();
        let msg = b"commit proof context";
        let sigs: Vec<(ReplicaId, astro_crypto::Signature)> =
            auths.iter().map(|a| (a.me(), a.sign(msg))).collect();
        assert!(auths[0].verify_all(msg, &by_ref(&sigs)));
        // One forged entry fails the whole batch.
        let mut forged = sigs.clone();
        forged[2].1 = auths[3].sign(msg); // signature by 3, claimed as 2
        assert!(!auths[0].verify_all(msg, &by_ref(&forged)));
        // A signer outside the key book fails the batch.
        let mut unknown = sigs;
        unknown[1].0 = ReplicaId(99);
        assert!(!auths[0].verify_all(msg, &by_ref(&unknown)));
        // The empty set is vacuously valid.
        assert!(auths[0].verify_all(msg, &[]));
    }

    #[test]
    fn schnorr_verify_each_pinpoints_forgeries_and_unknown_signers() {
        let chains = Keychain::deterministic_system(b"auth-each", 4);
        let auths: Vec<SchnorrAuthenticator> =
            chains.iter().map(|kc| SchnorrAuthenticator::new(kc.clone())).collect();
        let msg = b"ack context";
        let mut sigs: Vec<(ReplicaId, astro_crypto::Signature)> =
            auths.iter().map(|a| (a.me(), a.sign(msg))).collect();
        sigs[1].1 = auths[1].sign(b"wrong message");
        sigs.push((ReplicaId(77), auths[0].sign(msg))); // not in the key book
        assert_eq!(auths[0].verify_each(msg, &by_ref(&sigs)), [true, false, true, true, false]);
    }

    #[test]
    fn count_valid_signers_handles_duplicates_and_forgeries() {
        let chains = Keychain::deterministic_system(b"auth-quorum", 4);
        let auths: Vec<SchnorrAuthenticator> =
            chains.iter().map(|kc| SchnorrAuthenticator::new(kc.clone())).collect();
        let msg = b"quorum context";
        let good: Vec<(ReplicaId, astro_crypto::Signature)> =
            auths.iter().map(|a| (a.me(), a.sign(msg))).collect();
        assert_eq!(count_valid_signers(&auths[0], msg, &good, |_| true), 4);
        // Membership filter excludes signers.
        assert_eq!(count_valid_signers(&auths[0], msg, &good, |r| r.0 < 2), 2);
        // A forged duplicate listed before the genuine signature must not
        // shadow it: the fallback scans the full proof.
        let mut tricky = vec![(ReplicaId(0), auths[0].sign(b"decoy"))];
        tricky.extend(good.clone());
        assert_eq!(count_valid_signers(&auths[0], msg, &tricky, |_| true), 4);
        // Duplicate genuine entries count once.
        let mut dup = good.clone();
        dup.push(good[0]);
        assert_eq!(count_valid_signers(&auths[0], msg, &dup, |_| true), 4);
    }

    #[test]
    fn verdict_cache_keeps_the_first_verdict() {
        let cache = VerdictCache::new(4);
        cache.insert([7; 32], true);
        cache.insert([7; 32], false);
        assert_eq!(cache.get(&[7; 32]), Some(true));
        assert_eq!(cache.len(), 1);
        // The duplicate took no FIFO slot: four more keys evict only the
        // first.
        for k in 0..4u8 {
            cache.insert([k; 32], false);
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.get(&[7; 32]), None);
        assert_eq!(cache.get(&[0; 32]), Some(false));
    }

    #[test]
    fn sign_for_self_notes_its_verdict_and_sign_does_not() {
        let chains = Keychain::deterministic_system(b"auth-self", 4);
        let cache = Arc::new(VerdictCache::new(64));
        let auth = SchnorrAuthenticator::with_cache(chains[0].clone(), cache.clone());
        let own = auth.sign_for_self(b"self-addressed");
        assert_eq!(own, auth.sign(b"self-addressed"), "same bytes as plain sign");
        assert!(SchnorrAuthenticator::new(chains[1].clone()).verify(
            ReplicaId(0),
            b"self-addressed",
            &own
        ));
        let misses = cache.misses();
        assert!(auth.verify(ReplicaId(0), b"self-addressed", &own));
        assert!(auth.verify_all(b"self-addressed", &[(ReplicaId(0), &own)]));
        assert_eq!(cache.misses(), misses, "own signature is a cache hit");
        assert_eq!(cache.hits(), 2);
        // A signature for a peer is never noted: its first check misses.
        let sent = auth.sign(b"to a peer");
        let key = verdict_key(ReplicaId(0), b"to a peer", &sent);
        assert_eq!(cache.get(&key), None);
        assert!(auth.verify(ReplicaId(0), b"to a peer", &sent));
        assert_eq!(cache.misses(), misses + 2);
        // Without a cache, sign_for_self is plain sign.
        let bare = SchnorrAuthenticator::new(chains[0].clone());
        assert_eq!(bare.sign_for_self(b"self-addressed"), own);
    }

    #[test]
    fn mac_sign_for_self_is_sign() {
        let a = MacAuthenticator::new(ReplicaId(2), b"s".to_vec());
        assert_eq!(a.sign_for_self(b"m"), a.sign(b"m"));
    }

    #[test]
    fn mac_authenticator_binds_signer() {
        let a0 = MacAuthenticator::new(ReplicaId(0), b"secret".to_vec());
        let a1 = MacAuthenticator::new(ReplicaId(1), b"secret".to_vec());
        let sig = a0.sign(b"m");
        assert!(a1.verify(ReplicaId(0), b"m", &sig));
        assert!(!a1.verify(ReplicaId(1), b"m", &sig));
        assert!(!a1.verify(ReplicaId(0), b"x", &sig));
    }

    #[test]
    fn sim_sig_has_real_signature_wire_size() {
        let a = MacAuthenticator::new(ReplicaId(0), b"s".to_vec());
        let sig = a.sign(b"m");
        let bytes = sig.to_wire_bytes();
        assert_eq!(bytes.len(), SIGNATURE_LEN);
        assert_eq!(bytes.len(), sig.encoded_len());
        let back: SimSig = decode_exact(&bytes).unwrap();
        assert_eq!(back, sig);
    }
}
