//! Monetary amounts and client sequence numbers.

/// A non-negative amount of money in indivisible units.
///
/// Arithmetic is checked: Astro forbids negative balances (paper §I,
/// Contributions), so all balance mutations go through
/// [`Amount::checked_add`] / [`Amount::checked_sub`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Amount(pub u64);

impl Amount {
    /// The zero amount.
    pub const ZERO: Amount = Amount(0);

    /// Checked addition; `None` on overflow.
    #[must_use]
    pub fn checked_add(self, other: Amount) -> Option<Amount> {
        self.0.checked_add(other.0).map(Amount)
    }

    /// Checked subtraction; `None` if `other > self` (would go negative).
    #[must_use]
    pub fn checked_sub(self, other: Amount) -> Option<Amount> {
        self.0.checked_sub(other.0).map(Amount)
    }

    /// Saturating addition (caps at `u64::MAX`).
    #[must_use]
    pub fn saturating_add(self, other: Amount) -> Amount {
        Amount(self.0.saturating_add(other.0))
    }

    /// True if the amount is zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl core::fmt::Display for Amount {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "${}", self.0)
    }
}

impl From<u64> for Amount {
    fn from(v: u64) -> Self {
        Amount(v)
    }
}

/// A client-assigned sequence number within an exclusive log.
///
/// The first payment of a client has sequence number 0; clients increment it
/// for every payment they initiate (paper, Listing 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SeqNo(pub u64);

impl SeqNo {
    /// The sequence number of a client's first payment.
    pub const FIRST: SeqNo = SeqNo(0);

    /// The next sequence number.
    #[must_use]
    pub fn next(self) -> SeqNo {
        SeqNo(self.0 + 1)
    }

    /// The previous sequence number, or `None` for the first.
    #[must_use]
    pub fn prev(self) -> Option<SeqNo> {
        self.0.checked_sub(1).map(SeqNo)
    }
}

impl core::fmt::Display for SeqNo {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl From<u64> for SeqNo {
    fn from(v: u64) -> Self {
        SeqNo(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_sub_refuses_negative() {
        assert_eq!(Amount(5).checked_sub(Amount(7)), None);
        assert_eq!(Amount(7).checked_sub(Amount(5)), Some(Amount(2)));
    }

    #[test]
    fn checked_add_refuses_overflow() {
        assert_eq!(Amount(u64::MAX).checked_add(Amount(1)), None);
        assert_eq!(Amount(1).checked_add(Amount(2)), Some(Amount(3)));
    }

    #[test]
    fn seqno_sequence() {
        assert_eq!(SeqNo::FIRST.next(), SeqNo(1));
        assert_eq!(SeqNo(1).prev(), Some(SeqNo::FIRST));
        assert_eq!(SeqNo::FIRST.prev(), None);
    }
}
