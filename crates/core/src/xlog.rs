//! The exclusive log (xlog) — Astro's core abstraction (paper §II).
//!
//! An xlog is an append-only record of all *outgoing* payments of one
//! client, ordered by the sequence numbers the client assigned. Only the
//! owner may append (hence "exclusive"); the replication layer guarantees
//! all correct replicas hold identical copies.
//!
//! Storing full logs (rather than just balances and sequence numbers) is
//! what enables auditability (§II) and lets a restarted replica certify
//! the history it missed block by block ([`crate::sync`]).
//!
//! Each entry is stored as `(beneficiary, amount)` — 16 bytes, half a
//! [`Payment`]. The other two fields are implied: the spender is the log's
//! owner and the sequence number is the entry's index, both checked on
//! every [`XLog::append`] and [`XLog::from_entries`]. Storing them would
//! only repeat what the log's position already says, at 16 bytes per
//! settled payment per replica. Readers get full [`Payment`]s back by
//! value ([`XLog::get`], [`XLog::iter`], [`XLog::iter_from`]).

use astro_types::{Amount, ClientId, Payment, SeqNo};

/// Error appending to an xlog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XLogError {
    /// The payment's spender is not the log owner.
    WrongOwner {
        /// The log's owner.
        owner: ClientId,
        /// The payment's spender.
        spender: ClientId,
    },
    /// The payment's sequence number is not the next expected one.
    SequenceGap {
        /// The expected next sequence number.
        expected: SeqNo,
        /// The payment's sequence number.
        got: SeqNo,
    },
}

impl core::fmt::Display for XLogError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            XLogError::WrongOwner { owner, spender } => {
                write!(f, "payment spender {spender} is not log owner {owner}")
            }
            XLogError::SequenceGap { expected, got } => {
                write!(f, "expected sequence {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for XLogError {}

/// One recorded payment without the fields its position implies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    beneficiary: ClientId,
    amount: Amount,
}

/// The exclusive, append-only payment log of one client.
///
/// # Examples
///
/// ```
/// use astro_core::xlog::XLog;
/// use astro_types::{ClientId, Payment, SeqNo};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut log = XLog::new(ClientId(1));
/// log.append(Payment::new(1u64, 0u64, 2u64, 10u64))?;
/// log.append(Payment::new(1u64, 1u64, 3u64, 5u64))?;
/// assert_eq!(log.len(), 2);
/// assert_eq!(log.total_spent().0, 15);
/// assert_eq!(log.get(SeqNo(1)), Some(Payment::new(1u64, 1u64, 3u64, 5u64)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XLog {
    owner: ClientId,
    entries: Vec<Entry>,
}

impl XLog {
    /// Creates an empty log owned by `owner`.
    pub fn new(owner: ClientId) -> Self {
        XLog { owner, entries: Vec::new() }
    }

    /// Reconstructs a log from recovered entries (snapshot import).
    ///
    /// # Errors
    ///
    /// Fails at the first entry that violates the owner or
    /// gap-free-sequence invariant — recovered state is re-validated, never
    /// trusted.
    pub fn from_entries(
        owner: ClientId,
        entries: impl IntoIterator<Item = Payment>,
    ) -> Result<Self, XLogError> {
        let mut log = XLog::new(owner);
        for payment in entries {
            log.append(payment)?;
        }
        Ok(log)
    }

    /// The owning client.
    pub fn owner(&self) -> ClientId {
        self.owner
    }

    /// Number of recorded payments.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no payments are recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The next sequence number this log expects.
    pub fn next_seq(&self) -> SeqNo {
        SeqNo(self.entries.len() as u64)
    }

    /// Appends a payment.
    ///
    /// # Errors
    ///
    /// Fails if the payment's spender is not the owner, or its sequence
    /// number is not exactly [`XLog::next_seq`] (logs never have gaps).
    pub fn append(&mut self, payment: Payment) -> Result<(), XLogError> {
        if payment.spender != self.owner {
            return Err(XLogError::WrongOwner { owner: self.owner, spender: payment.spender });
        }
        let expected = self.next_seq();
        if payment.seq != expected {
            return Err(XLogError::SequenceGap { expected, got: payment.seq });
        }
        self.entries.push(Entry { beneficiary: payment.beneficiary, amount: payment.amount });
        Ok(())
    }

    /// The payment at sequence number `seq`, if recorded.
    pub fn get(&self, seq: SeqNo) -> Option<Payment> {
        let index = usize::try_from(seq.0).ok()?;
        self.entries.get(index).map(|e| self.payment(seq, e))
    }

    /// Iterates over payments in sequence order.
    pub fn iter(&self) -> impl Iterator<Item = Payment> + '_ {
        self.iter_from(SeqNo::FIRST)
    }

    /// Iterates over the payments at sequence numbers `seq` and above, in
    /// order. The entries below `seq` are skipped by slicing, not visited:
    /// a delta above a watermark costs the delta, not the history.
    pub fn iter_from(&self, seq: SeqNo) -> impl Iterator<Item = Payment> + '_ {
        let start =
            usize::try_from(seq.0).map_or(self.entries.len(), |s| s.min(self.entries.len()));
        self.entries[start..]
            .iter()
            .zip(start as u64..)
            .map(move |(e, seq)| self.payment(SeqNo(seq), e))
    }

    /// Total amount spent through this log (audit helper).
    ///
    /// Saturates at `u64::MAX`; individual balances can never reach this
    /// because settlement uses checked arithmetic.
    pub fn total_spent(&self) -> Amount {
        self.entries.iter().fold(Amount::ZERO, |acc, e| acc.saturating_add(e.amount))
    }

    fn payment(&self, seq: SeqNo, entry: &Entry) -> Payment {
        Payment { spender: self.owner, seq, beneficiary: entry.beneficiary, amount: entry.amount }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_in_order() {
        let mut log = XLog::new(ClientId(1));
        assert_eq!(log.next_seq(), SeqNo(0));
        log.append(Payment::new(1u64, 0u64, 2u64, 10u64)).unwrap();
        assert_eq!(log.next_seq(), SeqNo(1));
        assert_eq!(log.get(SeqNo(0)).unwrap().amount, Amount(10));
    }

    #[test]
    fn rejects_wrong_owner() {
        let mut log = XLog::new(ClientId(1));
        let err = log.append(Payment::new(2u64, 0u64, 3u64, 1u64)).unwrap_err();
        assert!(matches!(err, XLogError::WrongOwner { .. }));
    }

    #[test]
    fn rejects_sequence_gap() {
        let mut log = XLog::new(ClientId(1));
        let err = log.append(Payment::new(1u64, 1u64, 2u64, 1u64)).unwrap_err();
        assert_eq!(err, XLogError::SequenceGap { expected: SeqNo(0), got: SeqNo(1) });
    }

    #[test]
    fn rejects_duplicate_seq() {
        let mut log = XLog::new(ClientId(1));
        log.append(Payment::new(1u64, 0u64, 2u64, 1u64)).unwrap();
        let err = log.append(Payment::new(1u64, 0u64, 3u64, 1u64)).unwrap_err();
        assert!(matches!(err, XLogError::SequenceGap { .. }));
    }

    #[test]
    fn total_spent_sums() {
        let mut log = XLog::new(ClientId(5));
        for (i, amt) in [3u64, 4, 5].iter().enumerate() {
            log.append(Payment::new(5u64, i as u64, 9u64, *amt)).unwrap();
        }
        assert_eq!(log.total_spent(), Amount(12));
    }

    #[test]
    fn iteration_in_order() {
        let mut log = XLog::new(ClientId(1));
        for i in 0..5u64 {
            log.append(Payment::new(1u64, i, 2u64, i + 1)).unwrap();
        }
        let seqs: Vec<u64> = log.iter().map(|p| p.seq.0).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }
}
