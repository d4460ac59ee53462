//! Cryptographic primitives for the Astro payment system, implemented from
//! scratch (this repository's dependency policy forbids external crypto
//! crates).
//!
//! Provides exactly what the two Astro variants need (paper §IV):
//!
//! - [`sha256`](mod@sha256): SHA-256 (FIPS 180-4) — message digests, payment hashing.
//! - [`hmac`]: HMAC-SHA256 — MAC-authenticated links for Astro I's Bracha
//!   broadcast.
//! - [`schnorr`]: key-prefixed Schnorr signatures over secp256k1 — the ACK /
//!   COMMIT / CREDIT signatures of Astro II (substituting for the paper's
//!   ECDSA P-256, at the same order of per-operation cost).
//!
//! The low-level building blocks ([`u256`], [`field`], [`point`],
//! [`scalar`]) are public so that benchmarks can measure them directly.
//!
//! # Examples
//!
//! ```
//! use astro_crypto::schnorr::Keypair;
//! use astro_crypto::hmac::MacKey;
//!
//! // Astro II style: signatures.
//! let replica = Keypair::from_seed(b"replica-7");
//! let sig = replica.sign(b"ACK (alice, 3)");
//! assert!(replica.public().verify(b"ACK (alice, 3)", &sig));
//!
//! // Astro I style: MAC channels keyed by pairwise DH agreement, so only
//! // the two link endpoints can compute the channel key.
//! let replica2 = Keypair::from_seed(b"replica-2");
//! let replica5 = Keypair::from_seed(b"replica-5");
//! let secret_25 = replica2.agree(replica5.public());
//! assert_eq!(secret_25, replica5.agree(replica2.public()));
//! let chan = MacKey::derive(&secret_25, 2, 5);
//! let tag = chan.tag(b"ECHO (alice, 3)");
//! assert!(chan.verify(b"ECHO (alice, 3)", &tag));
//! ```

#![warn(missing_docs)]

pub mod field;
pub mod hmac;
pub mod point;
pub mod scalar;
pub mod schnorr;
pub mod sha256;
pub mod u256;

pub use hmac::MacKey;
pub use schnorr::{Keypair, PublicKey, SecretKey, Signature};
pub use sha256::{sha256, Digest};
