//! The payment operation — the single transaction type of Astro.
//!
//! A payment transfers `amount` from `spender` to `beneficiary` and carries
//! the sequence number the spender assigned to it within her exclusive log
//! (paper §II, Figure 1). The pair `(spender, seq)` is the payment's
//! *identifier*; the broadcast layer's Agreement property is stated over
//! identifiers (§IV).

use crate::ids::ClientId;
use crate::money::{Amount, SeqNo};
use crate::wire::{Wire, WireError};
use astro_crypto::Digest;

/// The globally unique identifier of a payment: `(spender, sequence number)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PaymentId {
    /// The client whose xlog the payment belongs to.
    pub spender: ClientId,
    /// The position the spender assigned within her xlog.
    pub seq: SeqNo,
}

impl core::fmt::Display for PaymentId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({}, {})", self.spender, self.seq)
    }
}

/// A single payment operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Payment {
    /// Who pays.
    pub spender: ClientId,
    /// Spender-assigned sequence number (position in the spender's xlog).
    pub seq: SeqNo,
    /// Who receives the funds.
    pub beneficiary: ClientId,
    /// How much is transferred.
    pub amount: Amount,
}

impl Payment {
    /// Creates a payment.
    pub fn new(
        spender: impl Into<ClientId>,
        seq: impl Into<SeqNo>,
        beneficiary: impl Into<ClientId>,
        amount: impl Into<Amount>,
    ) -> Self {
        Payment {
            spender: spender.into(),
            seq: seq.into(),
            beneficiary: beneficiary.into(),
            amount: amount.into(),
        }
    }

    /// The payment's identifier `(spender, seq)`.
    pub fn id(&self) -> PaymentId {
        PaymentId { spender: self.spender, seq: self.seq }
    }

    /// Domain-separated SHA-256 digest of the canonical encoding; this is
    /// what Astro II's ACK and CREDIT messages sign.
    pub fn digest(&self) -> Digest {
        let bytes = self.to_wire_bytes();
        astro_crypto::sha256::sha256_concat(&[b"astro-payment-v1", &bytes])
    }

    /// True if the payment moves zero funds (allowed, but useful to flag).
    pub fn is_zero_amount(&self) -> bool {
        self.amount.is_zero()
    }

    /// True if spender and beneficiary are the same client.
    pub fn is_self_payment(&self) -> bool {
        self.spender == self.beneficiary
    }
}

impl core::fmt::Display for Payment {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} --{}--> {} {}", self.spender, self.amount, self.beneficiary, self.seq)
    }
}

impl Wire for ClientId {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(ClientId(u64::decode(buf)?))
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Wire for crate::ids::ReplicaId {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(crate::ids::ReplicaId(u32::decode(buf)?))
    }
    fn encoded_len(&self) -> usize {
        4
    }
}

impl Wire for crate::ids::ShardId {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(crate::ids::ShardId(u16::decode(buf)?))
    }
    fn encoded_len(&self) -> usize {
        2
    }
}

impl Wire for SeqNo {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(SeqNo(u64::decode(buf)?))
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Wire for Amount {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Amount(u64::decode(buf)?))
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Wire for PaymentId {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.spender.encode(buf);
        self.seq.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(PaymentId { spender: ClientId::decode(buf)?, seq: SeqNo::decode(buf)? })
    }
    fn encoded_len(&self) -> usize {
        16
    }
}

impl Wire for Payment {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.spender.encode(buf);
        self.seq.encode(buf);
        self.beneficiary.encode(buf);
        self.amount.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Payment {
            spender: ClientId::decode(buf)?,
            seq: SeqNo::decode(buf)?,
            beneficiary: ClientId::decode(buf)?,
            amount: Amount::decode(buf)?,
        })
    }
    fn encoded_len(&self) -> usize {
        32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::decode_exact;

    #[test]
    fn wire_round_trip() {
        let p = Payment::new(1u64, 5u64, 2u64, 100u64);
        let bytes = p.to_wire_bytes();
        assert_eq!(bytes.len(), p.encoded_len());
        assert_eq!(decode_exact::<Payment>(&bytes).unwrap(), p);
    }

    #[test]
    fn payment_is_about_100_bytes_on_the_wire_with_auth() {
        // Paper §VI-B: "each payment operation covers roughly 100 bytes"
        // including client authentication data; the raw record is 32 bytes
        // and a signature adds 65.
        let p = Payment::new(1u64, 0u64, 2u64, 10u64);
        assert_eq!(p.encoded_len(), 32);
    }

    #[test]
    fn digest_distinguishes_conflicting_payments() {
        // Two payments with the same identifier but different beneficiary
        // (the double-spend pattern) must have different digests.
        let a = Payment::new(1u64, 7u64, 2u64, 10u64);
        let a_conflict = Payment::new(1u64, 7u64, 3u64, 10u64);
        assert_eq!(a.id(), a_conflict.id());
        assert_ne!(a.digest(), a_conflict.digest());
    }

    #[test]
    fn id_extraction() {
        let p = Payment::new(9u64, 3u64, 4u64, 1u64);
        assert_eq!(p.id(), PaymentId { spender: ClientId(9), seq: SeqNo(3) });
    }

    #[test]
    fn display_is_readable() {
        let p = Payment::new(1u64, 2u64, 3u64, 43u64);
        assert_eq!(p.to_string(), "c1 --$43--> c3 #2");
    }
}
