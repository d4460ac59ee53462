//! The Astro payment system: consensusless online payments over Byzantine
//! reliable broadcast.
//!
//! This crate implements the paper's primary contribution (DSN 2020,
//! "Online Payments by Merely Broadcasting Messages"):
//!
//! - [`xlog`]: the **exclusive log** abstraction — per-client append-only
//!   payment logs, totally ordered *within* but not *across* clients (§II).
//! - [`ledger`] + [`pending`]: replica state and the approval/settlement
//!   rules of Listings 2–4.
//! - [`replica`]: the [`Replica`] trait both protocols implement, and the
//!   catch-up, checkpoint and recovery machinery they share.
//! - [`astro1`]: **Astro I** — payments over Bracha's echo-based BRB with
//!   MAC-authenticated links and totality.
//! - [`astro2`]: **Astro II** — payments over signature-based BRB with
//!   CREDIT messages and dependency certificates (Listings 6–10), plus
//!   **asynchronous sharding** (§V): a cross-shard payment needs exactly one
//!   extra message step, no 2PC.
//! - [`batch`]: broadcast-level batching and beneficiary-representative
//!   sub-batching (§VI-A).
//! - [`client`]: client-side sequence-number assignment (Listing 1).
//! - [`sync`]: catch-up state transfer — the messages a restarted replica
//!   and its group exchange, and the `f+1` copy collector that certifies
//!   the transferred state.
//! - [`obs`]: per-replica metric handles ([`CoreObs`]) reporting into an
//!   attached [`astro_obs::Registry`].
//! - [`testkit`]: an in-memory sharding-aware router for deterministic
//!   tests.
//!
//! Replicas are deterministic sans-I/O state machines: `submit`/`handle`
//! return a [`ReplicaStep`] of outbound envelopes plus the payments settled
//! by that transition. The `astro-sim` simulator and the `astro-runtime`
//! threaded deployment both drive these exact state machines.
//!
//! # Examples
//!
//! A four-replica Astro I system settling one payment, driven by hand:
//!
//! ```
//! use astro_core::astro1::{Astro1Config, AstroOneReplica};
//! use astro_core::client::Client;
//! use astro_types::{Amount, ClientId, ReplicaId, ShardLayout};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let layout = ShardLayout::single(4)?;
//! let cfg = Astro1Config { batch_size: 1, initial_balance: Amount(100) };
//! let mut replicas: Vec<AstroOneReplica> = (0..4)
//!     .map(|i| AstroOneReplica::new(ReplicaId(i), layout.clone(), cfg.clone()))
//!     .collect();
//!
//! let mut alice = Client::new(ClientId(1));
//! let payment = alice.pay(ClientId(2), Amount(30));
//! let rep = layout.representative_of(alice.id());
//! let step = replicas[rep.0 as usize].submit(payment)?;
//! // ... route `step.outbound` between replicas until quiescent
//! // (astro_core::testkit::PaymentCluster automates this).
//! # let _ = step;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod astro1;
pub mod astro2;
pub mod batch;
pub mod client;
pub mod journal;
pub mod ledger;
pub mod obs;
pub mod pending;
pub mod replica;
pub mod sync;
pub mod testkit;
pub mod xlog;

use astro_brb::Envelope;
use astro_types::{ClientId, Payment, ReplicaId, SeqNo};

pub use astro1::{Astro1Config, Astro1Msg, AstroOneReplica};
pub use astro2::{Astro2Config, Astro2Msg, AstroTwoReplica, CreditMode};
pub use ledger::{Ledger, SettleOutcome};
pub use obs::CoreObs;
pub use replica::{Replica, SYNC_FALLBACK_ROUNDS};
pub use xlog::XLog;

/// The observable result of one replica transition: messages to send and
/// payments that reached the settled state.
#[derive(Debug, Clone)]
pub struct ReplicaStep<M> {
    /// Outbound messages. [`astro_brb::Dest::All`] means "all replicas of
    /// the sender's shard".
    pub outbound: Vec<Envelope<M>>,
    /// Payments settled by this transition, in settlement order.
    pub settled: Vec<Payment>,
}

impl<M> ReplicaStep<M> {
    /// A step with no effects.
    pub fn empty() -> Self {
        ReplicaStep { outbound: Vec::new(), settled: Vec::new() }
    }

    /// True if the step has no effects.
    pub fn is_empty(&self) -> bool {
        self.outbound.is_empty() && self.settled.is_empty()
    }
}

impl<M> Default for ReplicaStep<M> {
    fn default() -> Self {
        Self::empty()
    }
}

/// Error returned when a client submits to the wrong replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// This replica does not represent the spender; the mapping is public.
    NotRepresentative {
        /// The submitting client.
        client: ClientId,
        /// The replica that does represent it.
        representative: ReplicaId,
    },
    /// The sequence number is not the next one this representative will
    /// accept from the client — a duplicate, an equivocating conflict for
    /// an already-submitted slot, or a gap that would wedge the xlog.
    SeqOutOfOrder {
        /// The submitting client.
        client: ClientId,
        /// The rejected sequence number.
        seq: SeqNo,
        /// The sequence number the representative expected.
        expected: SeqNo,
    },
}

impl core::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SubmitError::NotRepresentative { client, representative } => {
                write!(f, "client {client} is represented by {representative}, not this replica")
            }
            SubmitError::SeqOutOfOrder { client, seq, expected } => {
                write!(f, "client {client} submitted seq {seq} but {expected} is next")
            }
        }
    }
}

impl std::error::Error for SubmitError {}
