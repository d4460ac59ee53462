//! HMAC-authenticated sessions over untrusted byte streams.
//!
//! The paper's §III assumes authenticated links; over TCP this module makes
//! that assumption true. Each connection runs one handshake:
//!
//! 1. The **dialer** sends `HELLO(version, from, to, nonce_d, tag)` where
//!    `tag` MACs the header under the pairwise link key from the replicas'
//!    [`Keychain`]s — static Diffie–Hellman between the two endpoints'
//!    pre-distributed key pairs (§III), so each link key is computable by
//!    exactly those two replicas and no one else, other (possibly
//!    Byzantine) replicas included.
//! 2. The **acceptor** verifies the tag — which authenticates the dialer,
//!    since only the two link endpoints can derive the key — and answers
//!    `ACK(nonce_a, tag)` binding both nonces, which authenticates the
//!    acceptor to the dialer.
//! 3. The dialer answers `CONFIRM(tag)` over both nonces — key
//!    confirmation. A recorded HELLO replays (nothing in it is fresh),
//!    but no attacker can answer the acceptor's fresh nonce, so a
//!    connection is only ever *installed* for a live key holder.
//! 4. Both sides derive one session key **per direction** via
//!    [`MacKey::session`]. Fresh nonces mean a reconnect never reuses keys,
//!    so recorded traffic cannot be replayed into a new session.
//!
//! After the handshake every message travels as `seq || payload || tag`
//! with a strictly increasing sequence number under the direction's key:
//! tampering, reordering, replay, and cross-link splicing all fail the
//! [`RecvSession::open`] check.

// Every decoder here reads bytes off the network: none may reach a panic.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use astro_crypto::hmac::{Tag, TAG_LEN};
use astro_crypto::MacKey;
use astro_types::{Keychain, ReplicaId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Length of a handshake nonce in bytes.
pub const NONCE_LEN: usize = 16;

/// Handshake protocol version.
pub const VERSION: u8 = 1;

const MAGIC: &[u8; 8] = b"ASTRONET";

/// Why a handshake or message authentication failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthError {
    /// The message was shorter than its fixed layout.
    Truncated,
    /// Magic bytes or version did not match.
    BadHeader,
    /// The HELLO was addressed to a different replica.
    WrongRecipient,
    /// The claimed sender is not in the key book.
    UnknownSender,
    /// MAC verification failed — forged, tampered, or replayed data.
    BadTag,
    /// A message arrived out of sequence (dropped or replayed frame).
    BadSequence,
}

impl core::fmt::Display for AuthError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let what = match self {
            AuthError::Truncated => "truncated message",
            AuthError::BadHeader => "bad magic or version",
            AuthError::WrongRecipient => "hello addressed to another replica",
            AuthError::UnknownSender => "unknown sender",
            AuthError::BadTag => "authentication tag mismatch",
            AuthError::BadSequence => "sequence number mismatch",
        };
        f.write_str(what)
    }
}

impl std::error::Error for AuthError {}

/// Generates a fresh handshake nonce.
///
/// Uniqueness, not unpredictability, is what session-key freshness needs
/// (the MAC key itself provides the secrecy): mix wall-clock time, a
/// process-wide counter, and the caller's address space into SHA-256.
pub fn fresh_nonce() -> [u8; NONCE_LEN] {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let count = COUNTER.fetch_add(1, Ordering::Relaxed);
    let now = SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_nanos()).unwrap_or(0);
    let digest = astro_crypto::sha256::sha256_concat(&[
        b"astro-nonce-v1",
        &now.to_be_bytes(),
        &count.to_be_bytes(),
        &std::process::id().to_be_bytes(),
    ]);
    std::array::from_fn(|i| digest[i])
}

/// The `N` bytes of `payload` at `at`; [`AuthError::Truncated`] if they
/// are not all there.
fn bytes_at<const N: usize>(payload: &[u8], at: usize) -> Result<[u8; N], AuthError> {
    payload.get(at..).and_then(<[u8]>::first_chunk).copied().ok_or(AuthError::Truncated)
}

fn hello_tag(link: &MacKey, from: ReplicaId, to: ReplicaId, nonce: &[u8; NONCE_LEN]) -> Tag {
    link.tag(
        &[
            b"astro-hello-v1" as &[u8],
            &[VERSION],
            &from.0.to_be_bytes(),
            &to.0.to_be_bytes(),
            nonce,
        ]
        .concat(),
    )
}

fn ack_tag(
    link: &MacKey,
    dialer: ReplicaId,
    acceptor: ReplicaId,
    nonce_d: &[u8; NONCE_LEN],
    nonce_a: &[u8; NONCE_LEN],
) -> Tag {
    link.tag(
        &[
            b"astro-ack-v1" as &[u8],
            &dialer.0.to_be_bytes(),
            &acceptor.0.to_be_bytes(),
            nonce_d,
            nonce_a,
        ]
        .concat(),
    )
}

/// Size of an encoded HELLO payload.
pub const HELLO_LEN: usize = 8 + 1 + 4 + 4 + NONCE_LEN + TAG_LEN;

/// Size of an encoded ACK payload.
pub const ACK_LEN: usize = NONCE_LEN + TAG_LEN;

/// Builds the dialer's HELLO for the link to `to`; returns the payload and
/// the dialer nonce (kept for [`verify_ack`] and session derivation).
pub fn make_hello(keychain: &Keychain, to: ReplicaId) -> (Vec<u8>, [u8; NONCE_LEN]) {
    let nonce = fresh_nonce();
    let tag = hello_tag(&keychain.mac_with(to), keychain.id(), to, &nonce);
    let mut out = Vec::with_capacity(HELLO_LEN);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&keychain.id().0.to_be_bytes());
    out.extend_from_slice(&to.0.to_be_bytes());
    out.extend_from_slice(&nonce);
    out.extend_from_slice(&tag);
    (out, nonce)
}

/// Verifies a received HELLO at the acceptor.
///
/// # Errors
///
/// Any structural or authentication defect — the caller must drop the
/// connection (it is not from a key-holding replica).
pub fn verify_hello(
    keychain: &Keychain,
    payload: &[u8],
) -> Result<(ReplicaId, [u8; NONCE_LEN]), AuthError> {
    if payload.len() != HELLO_LEN {
        return Err(AuthError::Truncated);
    }
    if &payload[..8] != MAGIC || payload[8] != VERSION {
        return Err(AuthError::BadHeader);
    }
    let from = ReplicaId(u32::from_be_bytes(bytes_at(payload, 9)?));
    let to = ReplicaId(u32::from_be_bytes(bytes_at(payload, 13)?));
    if to != keychain.id() {
        return Err(AuthError::WrongRecipient);
    }
    if keychain.book().key_of(from).is_none() {
        return Err(AuthError::UnknownSender);
    }
    let nonce: [u8; NONCE_LEN] = bytes_at(payload, 17)?;
    let tag: Tag = bytes_at(payload, 17 + NONCE_LEN)?;
    let expected = hello_tag(&keychain.mac_with(from), from, to, &nonce);
    if !astro_crypto::hmac::ct_eq(&expected, &tag) {
        return Err(AuthError::BadTag);
    }
    Ok((from, nonce))
}

/// Builds the acceptor's ACK answering `dialer`'s HELLO; returns the
/// payload and the acceptor nonce.
pub fn make_ack(
    keychain: &Keychain,
    dialer: ReplicaId,
    nonce_d: &[u8; NONCE_LEN],
) -> (Vec<u8>, [u8; NONCE_LEN]) {
    let nonce_a = fresh_nonce();
    let tag = ack_tag(&keychain.mac_with(dialer), dialer, keychain.id(), nonce_d, &nonce_a);
    let mut out = Vec::with_capacity(ACK_LEN);
    out.extend_from_slice(&nonce_a);
    out.extend_from_slice(&tag);
    (out, nonce_a)
}

/// Verifies a received ACK at the dialer.
///
/// # Errors
///
/// Any structural or authentication defect — drop the connection.
pub fn verify_ack(
    keychain: &Keychain,
    acceptor: ReplicaId,
    nonce_d: &[u8; NONCE_LEN],
    payload: &[u8],
) -> Result<[u8; NONCE_LEN], AuthError> {
    if payload.len() != ACK_LEN {
        return Err(AuthError::Truncated);
    }
    let nonce_a: [u8; NONCE_LEN] = bytes_at(payload, 0)?;
    let tag: Tag = bytes_at(payload, NONCE_LEN)?;
    let expected =
        ack_tag(&keychain.mac_with(acceptor), keychain.id(), acceptor, nonce_d, &nonce_a);
    if !astro_crypto::hmac::ct_eq(&expected, &tag) {
        return Err(AuthError::BadTag);
    }
    Ok(nonce_a)
}

fn confirm_tag(
    link: &MacKey,
    dialer: ReplicaId,
    nonce_d: &[u8; NONCE_LEN],
    nonce_a: &[u8; NONCE_LEN],
) -> Tag {
    link.tag(&[b"astro-confirm-v1" as &[u8], &dialer.0.to_be_bytes(), nonce_d, nonce_a].concat())
}

/// Size of an encoded CONFIRM payload.
pub const CONFIRM_LEN: usize = TAG_LEN;

/// Builds the dialer's CONFIRM — key confirmation over *both* nonces.
///
/// A passive attacker can replay a recorded HELLO (its tag covers only the
/// dialer nonce), but cannot answer the acceptor's fresh `nonce_a` without
/// the link key. The acceptor therefore installs a connection only after
/// this third leg verifies, so replayed HELLOs cannot evict a genuine
/// authenticated link.
pub fn make_confirm(
    keychain: &Keychain,
    acceptor: ReplicaId,
    nonce_d: &[u8; NONCE_LEN],
    nonce_a: &[u8; NONCE_LEN],
) -> Vec<u8> {
    confirm_tag(&keychain.mac_with(acceptor), keychain.id(), nonce_d, nonce_a).to_vec()
}

/// Verifies a received CONFIRM at the acceptor.
///
/// # Errors
///
/// [`AuthError::BadTag`] / [`AuthError::Truncated`] — drop the connection
/// without touching any existing link.
pub fn verify_confirm(
    keychain: &Keychain,
    dialer: ReplicaId,
    nonce_d: &[u8; NONCE_LEN],
    nonce_a: &[u8; NONCE_LEN],
    payload: &[u8],
) -> Result<(), AuthError> {
    if payload.len() != CONFIRM_LEN {
        return Err(AuthError::Truncated);
    }
    let expected = confirm_tag(&keychain.mac_with(dialer), dialer, nonce_d, nonce_a);
    if !astro_crypto::hmac::ct_eq(&expected, payload) {
        return Err(AuthError::BadTag);
    }
    Ok(())
}

/// Derives the `(send, recv)` session halves for an established connection
/// between this keychain's replica and `peer`.
///
/// `dialer` names which endpoint dialed (whose nonce came first); both
/// sides compute identical keys because [`MacKey::session`] keys each
/// direction by the *sending* replica's id.
pub fn session_pair(
    keychain: &Keychain,
    peer: ReplicaId,
    dialer: ReplicaId,
    nonce_d: &[u8; NONCE_LEN],
    nonce_a: &[u8; NONCE_LEN],
) -> (SendSession, RecvSession) {
    let link = keychain.mac_with(peer);
    debug_assert!(dialer == peer || dialer == keychain.id());
    let tx = link.session(nonce_d, nonce_a, u64::from(keychain.id().0));
    let rx = link.session(nonce_d, nonce_a, u64::from(peer.0));
    (SendSession { key: tx, seq: 0 }, RecvSession { key: rx, seq: 0 })
}

fn message_tag(key: &MacKey, seq: u64, payload: &[u8]) -> Tag {
    // `tag_parts` hashes the concatenation without materializing it — no
    // per-frame allocation on the transport hot path.
    key.tag_parts(&[b"astro-msg-v1", &seq.to_be_bytes(), payload])
}

/// The sending half of an authenticated session (one direction of a link).
#[derive(Debug)]
pub struct SendSession {
    key: MacKey,
    seq: u64,
}

impl SendSession {
    /// Exact size of the sealed form of a `payload_len`-byte payload.
    pub fn sealed_len(payload_len: usize) -> usize {
        8 + payload_len + TAG_LEN
    }

    /// Appends `seq || payload || tag` to `out` without an intermediate
    /// allocation, advancing the counter. The hot-path variant: callers
    /// reuse one scratch/coalescing buffer per link instead of allocating
    /// a fresh `Vec` per frame.
    pub fn seal_into(&mut self, payload: &[u8], out: &mut Vec<u8>) {
        let seq = self.seq;
        self.seq += 1;
        let tag = message_tag(&self.key, seq, payload);
        out.reserve(Self::sealed_len(payload.len()));
        out.extend_from_slice(&seq.to_be_bytes());
        out.extend_from_slice(payload);
        out.extend_from_slice(&tag);
    }

    /// Wraps `payload` as `seq || payload || tag`, advancing the counter.
    pub fn seal(&mut self, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::sealed_len(payload.len()));
        self.seal_into(payload, &mut out);
        out
    }
}

/// The receiving half of an authenticated session.
#[derive(Debug)]
pub struct RecvSession {
    key: MacKey,
    seq: u64,
}

impl RecvSession {
    /// Verifies a sealed message and returns the payload as a borrow of
    /// `sealed`, enforcing strict ordering. The hot-path variant: the
    /// caller decides how to own the bytes (e.g. one `Arc<[u8]>` per
    /// message) instead of paying a mandatory `Vec` copy.
    ///
    /// # Errors
    ///
    /// [`AuthError`] on any tampering, replay, reorder, or truncation; the
    /// caller must drop the connection.
    pub fn open_ref<'a>(&mut self, sealed: &'a [u8]) -> Result<&'a [u8], AuthError> {
        let Some((seq, body)) = sealed.split_first_chunk::<8>() else {
            return Err(AuthError::Truncated);
        };
        let Some((payload, tag)) = body.split_last_chunk::<TAG_LEN>() else {
            return Err(AuthError::Truncated);
        };
        let seq = u64::from_be_bytes(*seq);
        let expected = message_tag(&self.key, seq, payload);
        if !astro_crypto::hmac::ct_eq(&expected, tag) {
            return Err(AuthError::BadTag);
        }
        if seq != self.seq {
            return Err(AuthError::BadSequence);
        }
        self.seq += 1;
        Ok(payload)
    }

    /// Verifies and unwraps a sealed message into an owned buffer. See
    /// [`RecvSession::open_ref`].
    ///
    /// # Errors
    ///
    /// [`AuthError`] on any tampering, replay, reorder, or truncation.
    pub fn open(&mut self, sealed: &[u8]) -> Result<Vec<u8>, AuthError> {
        self.open_ref(sealed).map(<[u8]>::to_vec)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn chains() -> Vec<Keychain> {
        Keychain::deterministic_system(b"session-tests", 4)
    }

    fn handshake(
        dialer: &Keychain,
        acceptor: &Keychain,
    ) -> ((SendSession, RecvSession), (SendSession, RecvSession)) {
        let (hello, nonce_d) = make_hello(dialer, acceptor.id());
        let (from, nonce_d_seen) = verify_hello(acceptor, &hello).expect("hello verifies");
        assert_eq!(from, dialer.id());
        assert_eq!(nonce_d_seen, nonce_d);
        let (ack, nonce_a) = make_ack(acceptor, from, &nonce_d_seen);
        let nonce_a_seen = verify_ack(dialer, acceptor.id(), &nonce_d, &ack).expect("ack verifies");
        assert_eq!(nonce_a_seen, nonce_a);
        let confirm = make_confirm(dialer, acceptor.id(), &nonce_d, &nonce_a_seen);
        verify_confirm(acceptor, from, &nonce_d_seen, &nonce_a, &confirm)
            .expect("confirm verifies");
        let d = session_pair(dialer, acceptor.id(), dialer.id(), &nonce_d, &nonce_a);
        let a = session_pair(acceptor, dialer.id(), dialer.id(), &nonce_d, &nonce_a);
        (d, a)
    }

    #[test]
    fn replayed_hello_cannot_complete_the_handshake() {
        // An attacker replays a recorded HELLO: it passes verify_hello,
        // but the acceptor's fresh nonce makes the CONFIRM leg fail for
        // anyone without the link key.
        let ks = chains();
        let (hello, nonce_d) = make_hello(&ks[0], ks[1].id());
        // First (genuine) handshake.
        let (from, nd) = verify_hello(&ks[1], &hello).unwrap();
        let (_, nonce_a1) = make_ack(&ks[1], from, &nd);
        let confirm = make_confirm(&ks[0], ks[1].id(), &nonce_d, &nonce_a1);
        verify_confirm(&ks[1], from, &nd, &nonce_a1, &confirm).unwrap();
        // Replay: same HELLO still verifies (nothing in it is fresh)…
        let (from2, nd2) = verify_hello(&ks[1], &hello).unwrap();
        assert_eq!(from2, from);
        let (_, nonce_a2) = make_ack(&ks[1], from2, &nd2);
        assert_ne!(nonce_a1, nonce_a2, "acceptor nonce must be fresh");
        // …but the recorded CONFIRM is bound to the old acceptor nonce.
        assert_eq!(
            verify_confirm(&ks[1], from2, &nd2, &nonce_a2, &confirm),
            Err(AuthError::BadTag)
        );
    }

    #[test]
    fn handshake_and_both_directions_flow() {
        let ks = chains();
        let ((mut d_tx, mut d_rx), (mut a_tx, mut a_rx)) = handshake(&ks[0], &ks[1]);
        let sealed = d_tx.seal(b"ping");
        assert_eq!(a_rx.open(&sealed).unwrap(), b"ping");
        let sealed = a_tx.seal(b"pong");
        assert_eq!(d_rx.open(&sealed).unwrap(), b"pong");
    }

    #[test]
    fn hello_from_wrong_secret_is_rejected() {
        let ks = chains();
        let stranger = &Keychain::deterministic_system(b"other-system", 4)[0];
        let (hello, _) = make_hello(stranger, ks[1].id());
        assert_eq!(verify_hello(&ks[1], &hello), Err(AuthError::BadTag));
    }

    #[test]
    fn byzantine_replica_cannot_impersonate_another() {
        // Replica 2 is a member of the system (it holds the key book and
        // its own keypair) and claims to be replica 0 dialing replica 1.
        // Link keys are pairwise DH-derived, so without replica 0's secret
        // key its HELLO tag cannot match the genuine (0, 1) link key.
        use astro_types::KeyBook;
        let ks = chains();
        let (book, keypairs) = KeyBook::deterministic(b"session-tests", 4);
        let masquerade = Keychain::new(ReplicaId(0), keypairs[2].clone(), book);
        let (hello, _) = make_hello(&masquerade, ks[1].id());
        assert_eq!(verify_hello(&ks[1], &hello), Err(AuthError::BadTag));
    }

    #[test]
    fn hello_for_another_recipient_is_rejected() {
        let ks = chains();
        let (hello, _) = make_hello(&ks[0], ks[1].id());
        assert_eq!(verify_hello(&ks[2], &hello), Err(AuthError::WrongRecipient));
    }

    #[test]
    fn tampered_message_is_rejected() {
        let ks = chains();
        let ((mut d_tx, _), (_, mut a_rx)) = handshake(&ks[0], &ks[1]);
        let mut sealed = d_tx.seal(b"amount=10");
        let flip = sealed.len() / 2;
        sealed[flip] ^= 1;
        assert_eq!(a_rx.open(&sealed), Err(AuthError::BadTag));
    }

    #[test]
    fn replayed_message_is_rejected() {
        let ks = chains();
        let ((mut d_tx, _), (_, mut a_rx)) = handshake(&ks[0], &ks[1]);
        let sealed = d_tx.seal(b"pay");
        assert!(a_rx.open(&sealed).is_ok());
        assert_eq!(a_rx.open(&sealed), Err(AuthError::BadSequence));
    }

    #[test]
    fn reordered_messages_are_rejected() {
        let ks = chains();
        let ((mut d_tx, _), (_, mut a_rx)) = handshake(&ks[0], &ks[1]);
        let first = d_tx.seal(b"one");
        let second = d_tx.seal(b"two");
        assert_eq!(a_rx.open(&second), Err(AuthError::BadSequence));
        // The session is then considered compromised; even the in-order
        // frame keeps failing because the counter never advanced.
        assert!(a_rx.open(&first).is_ok());
    }

    #[test]
    fn directions_do_not_share_keys() {
        let ks = chains();
        let ((mut d_tx, mut d_rx), _) = handshake(&ks[0], &ks[1]);
        // A frame sealed for 0→1 must not open as 1→0 traffic.
        let sealed = d_tx.seal(b"loop");
        assert_eq!(d_rx.open(&sealed), Err(AuthError::BadTag));
    }

    #[test]
    fn reconnect_gets_fresh_session_keys() {
        let ks = chains();
        let ((mut tx1, _), (_, rx1)) = handshake(&ks[0], &ks[1]);
        let ((mut tx2, _), (_, mut rx2)) = handshake(&ks[0], &ks[1]);
        let sealed = tx1.seal(b"old session");
        assert_eq!(rx2.open(&sealed), Err(AuthError::BadTag), "cross-session replay");
        let sealed2 = tx2.seal(b"new session");
        assert!(rx2.open(&sealed2).is_ok());
        let _ = rx1;
    }

    #[test]
    fn nonces_are_unique() {
        let a = fresh_nonce();
        let b = fresh_nonce();
        assert_ne!(a, b);
    }
}
