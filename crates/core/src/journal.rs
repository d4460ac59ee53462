//! Durability hooks: the write-ahead-log record vocabulary and the
//! snapshot state types replicas export and restore.
//!
//! The paper's replicas are in-memory state machines; what makes them
//! *recoverable* is that every state transition is driven by a small set
//! of effects (a BRB delivery advanced a cursor, a payment settled, a
//! dependency credit materialized, …). This module names those effects as
//! [`WalRecord`]s. A replica with a [`Journal`] attached emits one record
//! per effect, in effect order; replaying the same records into a freshly
//! constructed replica reproduces the exact settlement state — that is
//! the recovery path of the `astro-store` subsystem.
//!
//! Replay is **idempotent**: records that are already reflected in a
//! snapshot (a crash can land between snapshot install and WAL
//! truncation) re-apply as no-ops — stale-sequence settles are dropped by
//! the ledger, dependency credits are guarded by `usedDeps`, cursors and
//! tag counters only move forward.
//!
//! The snapshot types ([`LedgerState`], [`Astro1State`], [`Astro2State`])
//! reuse the wire codec, so a snapshot is byte-identical across replicas
//! holding the same state — which is exactly the paper's convergence
//! claim made checkable on disk.

use crate::xlog::XLogError;
use astro_types::wire::{decode_exact, Wire, WireError};
use astro_types::{Amount, ClientId, Payment, PaymentId, ReplicaId};

/// Entries per sync history block (chunked catch-up state transfer).
///
/// A block is the wire encoding of `SYNC_BLOCK_ENTRIES` consecutive xlog
/// entries of one client, aligned to multiples of the block size. Only
/// *full* blocks are split out of a transferred state: a full block of a
/// per-sender log is content-stable across correct donors (log prefix
/// consistency), so per-block `f+1` byte-identical certification
/// accumulates monotonically across retry rounds even while the donors
/// keep settling. At ~32 bytes per payment a block encodes to ~16 KiB —
/// far below the 16 MiB `MAX_FRAME_LEN` wire bound.
pub const SYNC_BLOCK_ENTRIES: usize = 512;

/// Upper bound on the encoded size of a [`SyncHead`] a donor will serve.
///
/// The head carries the volatile remainder of the state (balances, xlog
/// tails, queues, cursors) and must fit one wire frame with room to
/// spare; a donor whose head exceeds this refuses with a typed error
/// instead of reaching `put_frame`'s panic on oversized payloads.
pub const SYNC_HEAD_MAX_BYTES: usize = 8 << 20;

/// One durably-logged state-machine effect.
///
/// Records are protocol-agnostic: Astro I emits `Delivered` / `Settle` /
/// `Queued` / `OwnTag`; Astro II additionally emits `DepUsed` / `Stuck` /
/// `Cert`. A replica replays only the records it understands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A BRB instance `(source, tag)` was delivered and applied.
    Delivered {
        /// The instance's source stream.
        source: u64,
        /// The instance's position in the stream.
        tag: u64,
    },
    /// A payment settled against the ledger.
    Settle {
        /// The settled payment.
        payment: Payment,
        /// Whether the beneficiary was credited in the same step (Astro I
        /// / direct intra-shard mode) or left to the CREDIT mechanism.
        credit_beneficiary: bool,
    },
    /// A dependency credit was materialized into the spender's balance
    /// (Astro II, Listing 9's `newDeps`).
    DepUsed {
        /// The certified payment whose beneficiary was credited.
        dep: Payment,
    },
    /// A payment was queued awaiting approval (future sequence number or
    /// insufficient funds). The dependency certificates that arrived
    /// attached to it ride along (Astro II; empty for Astro I): their
    /// credits have not been materialized yet — a future-sequence payment
    /// queues *before* the dependency step — so losing them across a
    /// restart would stick the spender while every other replica settles.
    Queued {
        /// The queued payment.
        payment: Payment,
        /// Attached certificates, as opaque `DependencyCertificate` wire
        /// bytes.
        deps: Vec<Vec<u8>>,
    },
    /// A spender's xlog became permanently stuck (Astro II certificate
    /// mode dropped an under-funded payment).
    Stuck {
        /// The stuck client.
        client: ClientId,
    },
    /// The replica reserved broadcast tag `tag` on its own stream. Logged
    /// before the PREPARE leaves, so a restarted replica never reuses a
    /// tag it already broadcast under (which would deadlock its stream:
    /// peers echo at most once per instance).
    OwnTag {
        /// The reserved tag.
        tag: u64,
    },
    /// A dependency certificate completed at this representative
    /// (wire-encoded `DependencyCertificate`, kept opaque so the record
    /// set is independent of the signature scheme).
    Cert {
        /// `DependencyCertificate::to_wire_bytes()`.
        bytes: Vec<u8>,
    },
    /// The representative attached (and thereby consumed) the identified
    /// certificates held for `client` to an outgoing payment (Listing 7).
    /// Logged at the *flush* that broadcasts the carrying payment — never
    /// earlier: a crash before the broadcast must restore the
    /// certificates (destroying them would wedge the client's funds), and
    /// re-attaching an already-spent certificate is idempotent at
    /// verifiers via `usedDeps`. Consumption is by content digest, not
    /// position, so replaying any interleaving of `Cert`/`CertsTaken`
    /// records over a snapshot converges to the same held set.
    CertsTaken {
        /// The spending client whose held certificates were consumed.
        client: ClientId,
        /// Content digests of the consumed certificates.
        digests: Vec<[u8; 32]>,
    },
    /// A CREDIT sub-batch entered the retry outbox: this replica settled
    /// the bundled payments and owes their delivery to the beneficiary
    /// representative `dest` until it acknowledges. The signature is not
    /// logged — recovery re-signs the bundle with the replica's own key.
    CreditOut {
        /// The beneficiary representative the bundle is addressed to.
        dest: ReplicaId,
        /// The settled payments of the sub-batch.
        bundle: Vec<Payment>,
    },
    /// The destination representative acknowledged the CREDIT sub-batch
    /// with this [`crate::batch::credit_context`] digest; the outbox
    /// entry is discharged.
    CreditAcked {
        /// The acked sub-batch digest.
        digest: [u8; 32],
    },
}

impl Wire for WalRecord {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            WalRecord::Delivered { source, tag } => {
                buf.push(0);
                source.encode(buf);
                tag.encode(buf);
            }
            WalRecord::Settle { payment, credit_beneficiary } => {
                buf.push(1);
                payment.encode(buf);
                credit_beneficiary.encode(buf);
            }
            WalRecord::DepUsed { dep } => {
                buf.push(2);
                dep.encode(buf);
            }
            WalRecord::Queued { payment, deps } => {
                buf.push(3);
                payment.encode(buf);
                deps.encode(buf);
            }
            WalRecord::Stuck { client } => {
                buf.push(4);
                client.encode(buf);
            }
            WalRecord::OwnTag { tag } => {
                buf.push(5);
                tag.encode(buf);
            }
            WalRecord::Cert { bytes } => {
                buf.push(6);
                bytes.encode(buf);
            }
            WalRecord::CertsTaken { client, digests } => {
                buf.push(7);
                client.encode(buf);
                digests.encode(buf);
            }
            WalRecord::CreditOut { dest, bundle } => {
                buf.push(8);
                dest.encode(buf);
                bundle.encode(buf);
            }
            WalRecord::CreditAcked { digest } => {
                buf.push(9);
                digest.encode(buf);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(WalRecord::Delivered { source: Wire::decode(buf)?, tag: Wire::decode(buf)? }),
            1 => Ok(WalRecord::Settle {
                payment: Wire::decode(buf)?,
                credit_beneficiary: Wire::decode(buf)?,
            }),
            2 => Ok(WalRecord::DepUsed { dep: Wire::decode(buf)? }),
            3 => Ok(WalRecord::Queued { payment: Wire::decode(buf)?, deps: Wire::decode(buf)? }),
            4 => Ok(WalRecord::Stuck { client: Wire::decode(buf)? }),
            5 => Ok(WalRecord::OwnTag { tag: Wire::decode(buf)? }),
            6 => Ok(WalRecord::Cert { bytes: Wire::decode(buf)? }),
            7 => Ok(WalRecord::CertsTaken {
                client: Wire::decode(buf)?,
                digests: Wire::decode(buf)?,
            }),
            8 => Ok(WalRecord::CreditOut { dest: Wire::decode(buf)?, bundle: Wire::decode(buf)? }),
            9 => Ok(WalRecord::CreditAcked { digest: Wire::decode(buf)? }),
            _ => Err(WireError::InvalidValue("wal record tag")),
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            WalRecord::Delivered { source, tag } => source.encoded_len() + tag.encoded_len(),
            WalRecord::Settle { payment, credit_beneficiary } => {
                payment.encoded_len() + credit_beneficiary.encoded_len()
            }
            WalRecord::DepUsed { dep } => dep.encoded_len(),
            WalRecord::Queued { payment, deps } => payment.encoded_len() + deps.encoded_len(),
            WalRecord::Stuck { client } => client.encoded_len(),
            WalRecord::OwnTag { tag } => tag.encoded_len(),
            WalRecord::Cert { bytes } => bytes.encoded_len(),
            WalRecord::CertsTaken { client, digests } => {
                client.encoded_len() + digests.encoded_len()
            }
            WalRecord::CreditOut { dest, bundle } => dest.encoded_len() + bundle.encoded_len(),
            WalRecord::CreditAcked { digest } => digest.encoded_len(),
        }
    }
}

/// A sink for [`WalRecord`]s, attached to a replica with `set_journal`.
///
/// Implementations (the `astro-store` WAL) must preserve record order;
/// durability policy (group commit) is theirs. Recording must not fail
/// into the caller — a storage implementation degrades internally and
/// reports health out of band.
pub trait Journal: Send {
    /// Appends one record.
    fn record(&mut self, record: &WalRecord);
}

/// An optional journal slot: replicas without durability pay one branch
/// per effect and nothing else.
pub struct JournalSlot(Option<Box<dyn Journal>>);

impl JournalSlot {
    /// An empty slot (no journaling).
    pub fn none() -> Self {
        JournalSlot(None)
    }

    /// Installs a journal.
    pub fn set(&mut self, journal: Box<dyn Journal>) {
        self.0 = Some(journal);
    }

    /// True if a journal is attached.
    pub fn is_set(&self) -> bool {
        self.0.is_some()
    }

    /// Records `record` if a journal is attached.
    #[inline]
    pub fn rec(&mut self, record: &WalRecord) {
        if let Some(j) = self.0.as_mut() {
            j.record(record);
        }
    }
}

impl core::fmt::Debug for JournalSlot {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_tuple("JournalSlot").field(&self.0.is_some()).finish()
    }
}

impl Default for JournalSlot {
    fn default() -> Self {
        Self::none()
    }
}

/// Snapshot of a [`Ledger`](crate::Ledger): balances and xlogs, sorted by
/// client id for a canonical (replica-comparable) encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerState {
    /// Genesis balance of unknown clients.
    pub initial_balance: Amount,
    /// Explicitly tracked balances, ascending by client id.
    pub accounts: Vec<(ClientId, Amount)>,
    /// Xlogs as `(owner, entries)`, ascending by owner id.
    pub xlogs: Vec<(ClientId, Vec<Payment>)>,
}

impl Wire for LedgerState {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.initial_balance.encode(buf);
        self.accounts.encode(buf);
        self.xlogs.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(LedgerState {
            initial_balance: Wire::decode(buf)?,
            accounts: Wire::decode(buf)?,
            xlogs: Wire::decode(buf)?,
        })
    }
    fn encoded_len(&self) -> usize {
        self.initial_balance.encoded_len() + self.accounts.encoded_len() + self.xlogs.encoded_len()
    }
}

/// Snapshot of an [`AstroOneReplica`](crate::astro1::AstroOneReplica).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Astro1State {
    /// The settlement state.
    pub ledger: LedgerState,
    /// Payments queued awaiting approval, `(spender, seq)` ascending.
    pub pending: Vec<Payment>,
    /// The replica's own next broadcast tag.
    pub next_tag: u64,
    /// BRB delivery cursors: next deliverable tag per source, ascending
    /// by source.
    pub cursors: Vec<(u64, u64)>,
}

impl Wire for Astro1State {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.ledger.encode(buf);
        self.pending.encode(buf);
        self.next_tag.encode(buf);
        self.cursors.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Astro1State {
            ledger: Wire::decode(buf)?,
            pending: Wire::decode(buf)?,
            next_tag: Wire::decode(buf)?,
            cursors: Wire::decode(buf)?,
        })
    }
    fn encoded_len(&self) -> usize {
        self.ledger.encoded_len()
            + self.pending.encoded_len()
            + self.next_tag.encoded_len()
            + self.cursors.encoded_len()
    }
}

/// Snapshot of an [`AstroTwoReplica`](crate::astro2::AstroTwoReplica).
///
/// Certificates are carried as opaque wire bytes so the snapshot type is
/// independent of the signature scheme; they are decoded against the
/// concrete scheme on restore (a certificate that fails to decode is
/// dropped — it could never verify either).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Astro2State {
    /// The settlement state.
    pub ledger: LedgerState,
    /// Payments queued awaiting approval with their attached (not yet
    /// materialized) certificates, `(spender, seq)` ascending.
    pub pending: Vec<(Payment, Vec<Vec<u8>>)>,
    /// Dependency credits already materialized (replay protection),
    /// ascending.
    pub used_deps: Vec<PaymentId>,
    /// Clients with permanently stuck xlogs, ascending.
    pub stuck: Vec<ClientId>,
    /// Held dependency certificates per represented client, ascending by
    /// client id; each certificate is `DependencyCertificate` wire bytes.
    pub certs: Vec<(ClientId, Vec<Vec<u8>>)>,
    /// Unacked CREDIT sub-batches this replica still owes delivery for,
    /// as `(destination representative, bundle)` ascending by destination
    /// then bundle digest. Signatures are not exported — restore re-signs
    /// with the replica's own key.
    pub outbox: Vec<(ReplicaId, Vec<Payment>)>,
    /// The replica's own next broadcast tag.
    pub next_tag: u64,
    /// BRB delivery cursors (FIFO mode), ascending by source.
    pub cursors: Vec<(u64, u64)>,
}

impl Wire for Astro2State {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.ledger.encode(buf);
        self.pending.encode(buf);
        self.used_deps.encode(buf);
        self.stuck.encode(buf);
        self.certs.encode(buf);
        self.outbox.encode(buf);
        self.next_tag.encode(buf);
        self.cursors.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Astro2State {
            ledger: Wire::decode(buf)?,
            pending: Wire::decode(buf)?,
            used_deps: Wire::decode(buf)?,
            stuck: Wire::decode(buf)?,
            certs: Wire::decode(buf)?,
            outbox: Wire::decode(buf)?,
            next_tag: Wire::decode(buf)?,
            cursors: Wire::decode(buf)?,
        })
    }
    fn encoded_len(&self) -> usize {
        self.ledger.encoded_len()
            + self.pending.encoded_len()
            + self.used_deps.encoded_len()
            + self.stuck.encoded_len()
            + self.certs.encoded_len()
            + self.outbox.encoded_len()
            + self.next_tag.encoded_len()
            + self.cursors.encoded_len()
    }
}

/// One account's sealed history delta: everything that changed since the
/// account's last checkpoint, destined for an immutable checkpoint
/// segment (see `astro-store`'s `checkpoint` module).
///
/// The balance is *absolute at seal time*, so segment replay is
/// last-writer-wins per account and never re-executes debits; the xlog
/// delta is positional — `entries` extend the account's log exactly at
/// `base`, and recovery rejects any discontinuity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointRecord {
    /// The account this delta belongs to.
    pub client: ClientId,
    /// The account's settled balance when the delta was sealed.
    pub balance: Amount,
    /// Number of xlog entries already sealed by earlier segments; the
    /// first entry in `entries` has sequence number `base`.
    pub base: u64,
    /// The xlog entries settled since the last checkpoint of this
    /// account (may be empty for a pure balance change).
    pub entries: Vec<Payment>,
}

impl Wire for CheckpointRecord {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.client.encode(buf);
        self.balance.encode(buf);
        self.base.encode(buf);
        self.entries.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(CheckpointRecord {
            client: Wire::decode(buf)?,
            balance: Wire::decode(buf)?,
            base: Wire::decode(buf)?,
            entries: Wire::decode(buf)?,
        })
    }
    fn encoded_len(&self) -> usize {
        self.client.encoded_len()
            + self.balance.encoded_len()
            + self.base.encoded_len()
            + self.entries.encoded_len()
    }
}

/// The residual snapshot of an Astro I replica (v2 storage engine): the
/// volatile protocol state *not* covered by checkpoint segments. Settled
/// history and balances live in the `sealed_segments` checkpoint
/// segments this snapshot builds on — the snapshot itself stays O(working
/// set) no matter how much history has settled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Astro1Snapshot {
    /// How many checkpoint segments this snapshot builds on. Recovery
    /// uses exactly this many (an orphan segment sealed just before a
    /// crash, whose snapshot never installed, is ignored) and fails if
    /// fewer are recovered intact.
    pub sealed_segments: u64,
    /// Payments queued awaiting approval, `(spender, seq)` ascending.
    pub pending: Vec<Payment>,
    /// The replica's own next broadcast tag.
    pub next_tag: u64,
    /// BRB delivery cursors, ascending by source.
    pub cursors: Vec<(u64, u64)>,
}

impl Wire for Astro1Snapshot {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.sealed_segments.encode(buf);
        self.pending.encode(buf);
        self.next_tag.encode(buf);
        self.cursors.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Astro1Snapshot {
            sealed_segments: Wire::decode(buf)?,
            pending: Wire::decode(buf)?,
            next_tag: Wire::decode(buf)?,
            cursors: Wire::decode(buf)?,
        })
    }
    fn encoded_len(&self) -> usize {
        self.sealed_segments.encoded_len()
            + self.pending.encoded_len()
            + self.next_tag.encoded_len()
            + self.cursors.encoded_len()
    }
}

/// The residual snapshot of an Astro II replica — see [`Astro1Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Astro2Snapshot {
    /// Checkpoint segments this snapshot builds on (see
    /// [`Astro1Snapshot::sealed_segments`]).
    pub sealed_segments: u64,
    /// Queued payments with their attached certificates.
    pub pending: Vec<(Payment, Vec<Vec<u8>>)>,
    /// Dependency credits already materialized, ascending.
    pub used_deps: Vec<PaymentId>,
    /// Clients with permanently stuck xlogs, ascending.
    pub stuck: Vec<ClientId>,
    /// Held dependency certificates per represented client.
    pub certs: Vec<(ClientId, Vec<Vec<u8>>)>,
    /// Unacked CREDIT sub-batches still owed delivery.
    pub outbox: Vec<(ReplicaId, Vec<Payment>)>,
    /// The replica's own next broadcast tag.
    pub next_tag: u64,
    /// BRB delivery cursors, ascending by source.
    pub cursors: Vec<(u64, u64)>,
}

impl Wire for Astro2Snapshot {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.sealed_segments.encode(buf);
        self.pending.encode(buf);
        self.used_deps.encode(buf);
        self.stuck.encode(buf);
        self.certs.encode(buf);
        self.outbox.encode(buf);
        self.next_tag.encode(buf);
        self.cursors.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Astro2Snapshot {
            sealed_segments: Wire::decode(buf)?,
            pending: Wire::decode(buf)?,
            used_deps: Wire::decode(buf)?,
            stuck: Wire::decode(buf)?,
            certs: Wire::decode(buf)?,
            outbox: Wire::decode(buf)?,
            next_tag: Wire::decode(buf)?,
            cursors: Wire::decode(buf)?,
        })
    }
    fn encoded_len(&self) -> usize {
        self.sealed_segments.encoded_len()
            + self.pending.encoded_len()
            + self.used_deps.encoded_len()
            + self.stuck.encoded_len()
            + self.certs.encoded_len()
            + self.outbox.encoded_len()
            + self.next_tag.encoded_len()
            + self.cursors.encoded_len()
    }
}

/// Why a recovered snapshot + checkpoint-segment combination could not be
/// turned back into a replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverError {
    /// A checkpoint record's `base` does not meet the xlog it extends —
    /// a segment is missing or records were reordered.
    Discontinuity {
        /// The account with the broken chain.
        client: ClientId,
        /// The xlog length the next record had to start at.
        expected: u64,
        /// The record's `base`.
        got: u64,
    },
    /// A record's entries violate the xlog owner/sequence invariants.
    Log(XLogError),
    /// The residual snapshot builds on more sealed segments than were
    /// recovered intact from disk.
    MissingSegments {
        /// Segments the snapshot requires.
        referenced: u64,
        /// Valid segments found on disk.
        recovered: u64,
    },
    /// A checkpoint record or snapshot section failed to decode.
    Decode,
}

impl core::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RecoverError::Discontinuity { client, expected, got } => write!(
                f,
                "checkpoint chain broken for client {client}: expected base {expected}, got {got}"
            ),
            RecoverError::Log(e) => write!(f, "checkpoint entries invalid: {e}"),
            RecoverError::MissingSegments { referenced, recovered } => write!(
                f,
                "snapshot references {referenced} checkpoint segments but only {recovered} \
                 recovered intact"
            ),
            RecoverError::Decode => f.write_str("checkpoint record failed to decode"),
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<XLogError> for RecoverError {
    fn from(e: XLogError) -> Self {
        RecoverError::Log(e)
    }
}

/// The head of a chunked catch-up transfer: per-client counts of the full
/// history blocks split out of the state, plus the remaining volatile
/// state (balances, xlog *tails*, queues, cursors) as `Astro1State` /
/// `Astro2State` wire bytes whose xlogs hold only the entries past the
/// last full block.
///
/// The head is the only part of the transfer that must match across
/// `f+1` donors at once; the blocks it references certify independently
/// (and monotonically across retry rounds) via
/// [`crate::sync::SyncMsg::Block`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncHead {
    /// Full history blocks per client, ascending by client id; clients
    /// with fewer than [`SYNC_BLOCK_ENTRIES`] settled entries are
    /// omitted.
    pub blocks: Vec<(ClientId, u64)>,
    /// The volatile remainder: protocol state wire bytes with each xlog
    /// listed in `blocks` truncated to its tail.
    pub state_tail: Vec<u8>,
}

impl Wire for SyncHead {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.blocks.encode(buf);
        self.state_tail.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(SyncHead { blocks: Wire::decode(buf)?, state_tail: Wire::decode(buf)? })
    }
    fn encoded_len(&self) -> usize {
        self.blocks.encoded_len() + self.state_tail.encoded_len()
    }
}

/// One sealed history chunk in a chunked state transfer:
/// `(client, block index, encoded entries)`.
pub type SyncBlock = (ClientId, u64, Vec<u8>);

/// Splits the full history blocks out of a ledger state, truncating each
/// affected xlog to its tail in place. Returns the blocks as
/// [`SyncBlock`]s in canonical (client, index) order; the per-client
/// counts for the [`SyncHead`] are `block_counts(&blocks)`.
pub fn split_history_blocks(ledger: &mut LedgerState) -> Vec<SyncBlock> {
    let mut blocks = Vec::new();
    for (client, entries) in &mut ledger.xlogs {
        let full = entries.len() / SYNC_BLOCK_ENTRIES;
        if full == 0 {
            continue;
        }
        let tail = entries.split_off(full * SYNC_BLOCK_ENTRIES);
        let history = std::mem::replace(entries, tail);
        for (index, chunk) in history.chunks(SYNC_BLOCK_ENTRIES).enumerate() {
            blocks.push((*client, index as u64, chunk.to_vec().to_wire_bytes()));
        }
    }
    blocks
}

/// The per-client block counts of a `split_history_blocks` result.
pub fn block_counts(blocks: &[(ClientId, u64, Vec<u8>)]) -> Vec<(ClientId, u64)> {
    let mut counts: Vec<(ClientId, u64)> = Vec::new();
    for (client, _, _) in blocks {
        match counts.last_mut() {
            Some((c, n)) if c == client => *n += 1,
            _ => counts.push((*client, 1)),
        }
    }
    counts
}

/// Reassembles a full ledger state from a head's tail-only xlogs and the
/// certified blocks, prepending each client's `counts` blocks (fetched
/// via `fetch`) in front of its tail.
///
/// # Errors
///
/// Fails if a block is missing, fails to decode, is not exactly
/// [`SYNC_BLOCK_ENTRIES`] entries, or names a client the head has no
/// xlog for — all symptoms of a forged or torn transfer; the caller
/// discards and re-collects.
pub fn merge_history_blocks(
    ledger: &mut LedgerState,
    counts: &[(ClientId, u64)],
    mut fetch: impl FnMut(ClientId, u64) -> Option<Vec<u8>>,
) -> Result<(), WireError> {
    for &(client, count) in counts {
        let mut history: Vec<Payment> =
            Vec::with_capacity((count as usize).saturating_mul(SYNC_BLOCK_ENTRIES));
        for index in 0..count {
            let bytes =
                fetch(client, index).ok_or(WireError::InvalidValue("missing history block"))?;
            let chunk: Vec<Payment> = decode_exact(&bytes)?;
            if chunk.len() != SYNC_BLOCK_ENTRIES {
                return Err(WireError::InvalidValue("history block with wrong entry count"));
            }
            history.extend(chunk);
        }
        let Some((_, entries)) = ledger.xlogs.iter_mut().find(|(c, _)| *c == client) else {
            return Err(WireError::InvalidValue("history block for unknown xlog"));
        };
        history.append(entries);
        *entries = history;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: u64, n: u64, b: u64, x: u64) -> Payment {
        Payment::new(s, n, b, x)
    }

    #[test]
    fn wal_record_wire_round_trips() {
        let records = [
            WalRecord::Delivered { source: 3, tag: 9 },
            WalRecord::Settle { payment: p(1, 0, 2, 5), credit_beneficiary: true },
            WalRecord::Settle { payment: p(1, 1, 2, 5), credit_beneficiary: false },
            WalRecord::DepUsed { dep: p(4, 2, 1, 7) },
            WalRecord::Queued { payment: p(9, 3, 1, 1), deps: vec![vec![7, 8]] },
            WalRecord::Stuck { client: ClientId(77) },
            WalRecord::OwnTag { tag: 12 },
            WalRecord::Cert { bytes: vec![1, 2, 3, 4] },
            WalRecord::CertsTaken { client: ClientId(5), digests: vec![[9u8; 32], [4u8; 32]] },
            WalRecord::CreditOut { dest: ReplicaId(3), bundle: vec![p(1, 0, 2, 5)] },
            WalRecord::CreditAcked { digest: [7u8; 32] },
        ];
        for rec in records {
            let bytes = rec.to_wire_bytes();
            assert_eq!(bytes.len(), rec.encoded_len());
            assert_eq!(decode_exact::<WalRecord>(&bytes).unwrap(), rec);
        }
    }

    #[test]
    fn wal_record_rejects_bad_tag() {
        assert!(decode_exact::<WalRecord>(&[10u8]).is_err());
    }

    #[test]
    fn astro1_state_wire_round_trips() {
        let state = Astro1State {
            ledger: LedgerState {
                initial_balance: Amount(100),
                accounts: vec![(ClientId(1), Amount(70)), (ClientId(2), Amount(130))],
                xlogs: vec![(ClientId(1), vec![p(1, 0, 2, 30)])],
            },
            pending: vec![p(3, 1, 4, 9)],
            next_tag: 5,
            cursors: vec![(0, 2), (1, 7)],
        };
        let bytes = state.to_wire_bytes();
        assert_eq!(bytes.len(), state.encoded_len());
        assert_eq!(decode_exact::<Astro1State>(&bytes).unwrap(), state);
    }

    #[test]
    fn astro2_state_wire_round_trips() {
        let state = Astro2State {
            ledger: LedgerState { initial_balance: Amount(9), accounts: vec![], xlogs: vec![] },
            pending: vec![],
            used_deps: vec![p(1, 0, 2, 5).id()],
            stuck: vec![ClientId(8)],
            certs: vec![(ClientId(2), vec![vec![0xab, 0xcd]])],
            outbox: vec![(ReplicaId(1), vec![p(3, 0, 4, 2)])],
            next_tag: 1,
            cursors: vec![],
        };
        let bytes = state.to_wire_bytes();
        assert_eq!(bytes.len(), state.encoded_len());
        assert_eq!(decode_exact::<Astro2State>(&bytes).unwrap(), state);
    }

    #[test]
    fn checkpoint_record_wire_round_trips() {
        let rec = CheckpointRecord {
            client: ClientId(7),
            balance: Amount(440),
            base: 12,
            entries: vec![p(7, 12, 1, 3), p(7, 13, 2, 4)],
        };
        let bytes = rec.to_wire_bytes();
        assert_eq!(bytes.len(), rec.encoded_len());
        assert_eq!(decode_exact::<CheckpointRecord>(&bytes).unwrap(), rec);
    }

    #[test]
    fn snapshot_residuals_wire_round_trip() {
        let s1 = Astro1Snapshot {
            sealed_segments: 3,
            pending: vec![p(3, 1, 4, 9)],
            next_tag: 5,
            cursors: vec![(0, 2), (1, 7)],
        };
        let bytes = s1.to_wire_bytes();
        assert_eq!(bytes.len(), s1.encoded_len());
        assert_eq!(decode_exact::<Astro1Snapshot>(&bytes).unwrap(), s1);

        let s2 = Astro2Snapshot {
            sealed_segments: 1,
            pending: vec![(p(9, 3, 1, 1), vec![vec![7, 8]])],
            used_deps: vec![p(1, 0, 2, 5).id()],
            stuck: vec![ClientId(8)],
            certs: vec![(ClientId(2), vec![vec![0xab]])],
            outbox: vec![(ReplicaId(1), vec![p(3, 0, 4, 2)])],
            next_tag: 1,
            cursors: vec![(2, 4)],
        };
        let bytes = s2.to_wire_bytes();
        assert_eq!(bytes.len(), s2.encoded_len());
        assert_eq!(decode_exact::<Astro2Snapshot>(&bytes).unwrap(), s2);
    }

    fn long_ledger(len: u64) -> LedgerState {
        LedgerState {
            initial_balance: Amount(1_000_000),
            accounts: vec![(ClientId(1), Amount(500)), (ClientId(2), Amount(9))],
            xlogs: vec![
                (ClientId(1), (0..len).map(|s| p(1, s, 2, 1)).collect()),
                (ClientId(2), vec![p(2, 0, 1, 1)]),
            ],
        }
    }

    #[test]
    fn history_blocks_split_and_merge_round_trip() {
        let k = SYNC_BLOCK_ENTRIES as u64;
        let full = long_ledger(2 * k + 5);
        let mut split = full.clone();
        let blocks = split_history_blocks(&mut split);
        assert_eq!(blocks.len(), 2, "two full blocks split out");
        assert_eq!(split.xlogs[0].1.len(), 5, "tail stays in place");
        assert_eq!(split.xlogs[1].1.len(), 1, "short logs untouched");
        let counts = block_counts(&blocks);
        assert_eq!(counts, vec![(ClientId(1), 2)]);
        let lookup: std::collections::HashMap<(ClientId, u64), Vec<u8>> =
            blocks.into_iter().map(|(c, b, data)| ((c, b), data)).collect();
        merge_history_blocks(&mut split, &counts, |c, b| lookup.get(&(c, b)).cloned()).unwrap();
        assert_eq!(split, full, "split → merge is the identity");
    }

    #[test]
    fn block_aligned_log_leaves_an_empty_tail() {
        let k = SYNC_BLOCK_ENTRIES as u64;
        let full = long_ledger(k);
        let mut split = full.clone();
        let blocks = split_history_blocks(&mut split);
        assert_eq!(blocks.len(), 1);
        assert!(split.xlogs[0].1.is_empty(), "exact multiple: empty tail, entry kept");
        let counts = block_counts(&blocks);
        let lookup: std::collections::HashMap<(ClientId, u64), Vec<u8>> =
            blocks.into_iter().map(|(c, b, data)| ((c, b), data)).collect();
        merge_history_blocks(&mut split, &counts, |c, b| lookup.get(&(c, b)).cloned()).unwrap();
        assert_eq!(split, full);
    }

    #[test]
    fn merge_rejects_missing_short_or_foreign_blocks() {
        let k = SYNC_BLOCK_ENTRIES as u64;
        let mut split = long_ledger(k + 1);
        let blocks = split_history_blocks(&mut split);
        let counts = block_counts(&blocks);
        // Missing block.
        assert!(merge_history_blocks(&mut split.clone(), &counts, |_, _| None).is_err());
        // Wrong entry count.
        let short = vec![p(1, 0, 2, 1)].to_wire_bytes();
        assert!(
            merge_history_blocks(&mut split.clone(), &counts, |_, _| Some(short.clone())).is_err()
        );
        // Count referencing a client with no xlog in the head.
        let foreign = vec![(ClientId(77), 1u64)];
        assert!(merge_history_blocks(&mut split.clone(), &foreign, |_, b| Some(
            blocks[b as usize].2.clone()
        ))
        .is_err());
    }

    #[test]
    fn sync_head_wire_round_trips() {
        let head =
            SyncHead { blocks: vec![(ClientId(1), 4), (ClientId(9), 1)], state_tail: vec![1, 2] };
        let bytes = head.to_wire_bytes();
        assert_eq!(bytes.len(), head.encoded_len());
        assert_eq!(decode_exact::<SyncHead>(&bytes).unwrap(), head);
    }

    #[test]
    fn journal_slot_is_inert_when_empty() {
        let mut slot = JournalSlot::none();
        assert!(!slot.is_set());
        slot.rec(&WalRecord::OwnTag { tag: 0 }); // must not panic
        struct Sink(Vec<WalRecord>);
        impl Journal for Sink {
            fn record(&mut self, r: &WalRecord) {
                self.0.push(r.clone());
            }
        }
        slot.set(Box::new(Sink(Vec::new())));
        assert!(slot.is_set());
        slot.rec(&WalRecord::OwnTag { tag: 1 });
    }
}
