//! Shared domain types for the Astro payment system.
//!
//! This crate defines the vocabulary every other crate speaks:
//!
//! - [`ids`]: [`ClientId`], [`ReplicaId`], [`ShardId`] newtypes.
//! - [`money`]: checked [`Amount`] arithmetic and xlog [`SeqNo`]s.
//! - [`payment`]: the [`Payment`] operation and its `(spender, seq)`
//!   identifier, exactly as in Figure 1 of the paper.
//! - [`config`]: `N = 3f + 1` group parameters, Byzantine quorum sizes, and
//!   the shard layout / representative mapping of §V.
//! - [`keys`]: the permissioned key book (§III) and per-replica keychains.
//! - [`wire`]: a total, allocation-bounded binary codec — the only one.
//!
//! # Examples
//!
//! ```
//! use astro_types::{Payment, ShardLayout, SystemConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = SystemConfig::new(49)?;
//! assert_eq!(cfg.f(), 16);
//! assert_eq!(cfg.quorum(), 33);
//!
//! let layout = ShardLayout::uniform(4, 52)?;
//! let pay = Payment::new(1u64, 0u64, 2u64, 43u64);
//! let rep = layout.representative_of(pay.spender);
//! assert!(layout.is_representative(rep, pay.spender));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod auth;
pub mod config;
pub mod group;
pub mod ids;
pub mod keys;
pub mod money;
pub mod payment;
pub mod wire;

pub use auth::{
    count_valid_signers, Authenticator, MacAuthenticator, SchnorrAuthenticator, SigCheck,
    VerdictCache,
};
pub use config::{ConfigError, ShardLayout, ShardSpec, SystemConfig};
pub use group::Group;
pub use ids::{ClientId, ReplicaId, ShardId};
pub use keys::{KeyBook, Keychain};
pub use money::{Amount, SeqNo};
pub use payment::{Payment, PaymentId};
pub use wire::{Wire, WireError};
