//! The secp256k1 base field GF(p), p = 2^256 − 2^32 − 977.
//!
//! Multiplication, squaring, and the Fermat exponentiations route through
//! [`reduce_wide`], a reduction specialized to this modulus: since
//! `2^256 ≡ 2^32 + 977 (mod p)` and that constant fits 33 bits, folding
//! the high half of a 512-bit product costs four 64×33-bit multiplications
//! instead of the generic fold's full 256×256 schoolbook pass. The generic
//! [`Modulus`] path is kept as the reference implementation and
//! cross-checked by property tests (`tests/reduction_properties.rs`).

use crate::u256::{self, Limbs, Modulus, Wide};

/// secp256k1 field modulus p = 2^256 − 2^32 − 977.
pub const P: Modulus =
    Modulus::new([0xFFFFFFFEFFFFFC2F, 0xFFFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF]);

/// `2^256 mod p = 2^32 + 977` — the fold constant of the specialized
/// reduction. 33 bits, so `limb · C` fits comfortably in a `u128`.
const C: u128 = 0x1_0000_03D1;

/// Reduces a 512-bit value modulo p, exploiting `2^256 ≡ C (mod p)`.
///
/// Two folds: the high 256 bits contribute `hi·C` (≤ 290 bits), whose own
/// overflow (≤ 34 bits) contributes `top·C` (≤ 68 bits); a final carry
/// fold and at most one conditional subtraction leave the canonical
/// representative.
#[inline]
pub fn reduce_wide(w: &Wide) -> Limbs {
    // Fold 1: t = lo + hi·C. Each step is lo[i] + hi[i]·C + carry
    // < 2^64 + 2^97 + 2^34, well inside u128.
    let mut t = [0u64; 4];
    let mut carry: u128 = 0;
    for i in 0..4 {
        let v = w[i] as u128 + w[i + 4] as u128 * C + carry;
        t[i] = v as u64;
        carry = v >> 64;
    }
    // Fold 2: the ≤ 34-bit overflow folds to `carry·C` ≤ 68 bits.
    let mut r = [0u64; 4];
    let mut v = t[0] as u128 + carry * C;
    r[0] = v as u64;
    for i in 1..4 {
        v = t[i] as u128 + (v >> 64);
        r[i] = v as u64;
    }
    if (v >> 64) != 0 {
        // A carry out of 2^256 ≡ one more C. It cannot cascade: the wrap
        // left r tiny (< 2^69), so adding C (< 2^34) stays far below 2^64
        // in every limb above the first.
        let mut v = r[0] as u128 + C;
        r[0] = v as u64;
        let mut i = 1;
        while (v >> 64) != 0 && i < 4 {
            v = r[i] as u128 + (v >> 64);
            r[i] = v as u64;
            i += 1;
        }
        debug_assert_eq!(v >> 64, 0, "second fold cannot overflow");
    }
    // r < 2^256 and p > 2^256 − 2^33: at most one subtraction.
    while !u256::lt(&r, &P.m) {
        let (d, _) = u256::sub(&r, &P.m);
        r = d;
    }
    r
}

/// `a · b mod p` through the specialized reduction.
#[inline]
fn mul_reduce(a: &Limbs, b: &Limbs) -> Limbs {
    reduce_wide(&u256::mul_wide(a, b))
}

/// `a² mod p`: symmetric schoolbook squaring plus the specialized
/// reduction.
#[inline]
fn sqr_reduce(a: &Limbs) -> Limbs {
    reduce_wide(&u256::sqr_wide(a))
}

/// An element of GF(p), kept fully reduced (`0 <= value < p`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fe(Limbs);

impl Fe {
    /// The additive identity.
    pub const ZERO: Fe = Fe([0, 0, 0, 0]);
    /// The multiplicative identity.
    pub const ONE: Fe = Fe([1, 0, 0, 0]);
    /// The curve constant b = 7 of y² = x³ + 7.
    pub const SEVEN: Fe = Fe([7, 0, 0, 0]);

    /// Creates a field element from limbs, reducing modulo p.
    pub fn from_limbs(limbs: Limbs) -> Self {
        Fe(P.reduce(&limbs))
    }

    /// Creates a field element from a small integer.
    pub fn from_u64(v: u64) -> Self {
        Fe([v, 0, 0, 0])
    }

    /// Parses a 32-byte big-endian encoding; `None` if `>= p`.
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Option<Self> {
        let limbs = u256::from_be_bytes(bytes);
        if u256::lt(&limbs, &P.m) {
            Some(Fe(limbs))
        } else {
            None
        }
    }

    /// Serializes to 32 big-endian bytes.
    pub fn to_be_bytes(self) -> [u8; 32] {
        u256::to_be_bytes(&self.0)
    }

    /// Raw limb access (always reduced).
    pub fn limbs(&self) -> &Limbs {
        &self.0
    }

    /// True if this is the additive identity.
    pub fn is_zero(&self) -> bool {
        u256::is_zero(&self.0)
    }

    /// True if the canonical representative is odd (used for point
    /// compression parity).
    pub fn is_odd(&self) -> bool {
        self.0[0] & 1 == 1
    }

    /// Field addition.
    pub fn add(&self, other: &Fe) -> Fe {
        Fe(P.add_mod(&self.0, &other.0))
    }

    /// Field subtraction.
    pub fn sub(&self, other: &Fe) -> Fe {
        Fe(P.sub_mod(&self.0, &other.0))
    }

    /// Field multiplication (specialized secp256k1 reduction).
    pub fn mul(&self, other: &Fe) -> Fe {
        Fe(mul_reduce(&self.0, &other.0))
    }

    /// Field squaring: symmetric limb products (10 wide multiplications
    /// instead of 16) plus the specialized reduction.
    pub fn square(&self) -> Fe {
        Fe(sqr_reduce(&self.0))
    }

    /// Additive inverse.
    pub fn neg(&self) -> Fe {
        Fe(P.neg_mod(&self.0))
    }

    /// Doubles the element (`2·self`).
    pub fn double(&self) -> Fe {
        self.add(self)
    }

    /// Multiplies by a small constant.
    pub fn mul_u64(&self, k: u64) -> Fe {
        self.mul(&Fe::from_u64(k))
    }

    /// Multiplicative inverse via Fermat's little theorem (`self^(p−2)`),
    /// evaluated with a fixed addition chain: 255 squarings and 15
    /// multiplications.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero (zero has no inverse).
    pub fn invert(&self) -> Fe {
        assert!(!self.is_zero(), "inverse of zero field element");
        // p − 2 = [223 ones] 0 [22 ones] 00001 011 01.
        let (x2, x22, x223) = self.pow_ones();
        let t = x223.sqr_n(23).mul(&x22);
        let t = t.sqr_n(5).mul(self);
        let t = t.sqr_n(3).mul(&x2);
        t.sqr_n(2).mul(self)
    }

    /// Square root, if one exists. Since p ≡ 3 (mod 4) this is
    /// `self^((p+1)/4)` — 253 squarings and 13 multiplications on the
    /// same chain as [`Fe::invert`]; returns `None` when `self` is a
    /// non-residue.
    pub fn sqrt(&self) -> Option<Fe> {
        // (p + 1)/4 = [223 ones] 0 [22 ones] 000011 00.
        let (x2, x22, x223) = self.pow_ones();
        let t = x223.sqr_n(23).mul(&x22);
        let root = t.sqr_n(6).mul(&x2).sqr_n(2);
        if root.square() == *self {
            Some(root)
        } else {
            None
        }
    }

    /// `self^(2^n)`: `n` successive squarings.
    fn sqr_n(&self, n: u32) -> Fe {
        let mut r = *self;
        for _ in 0..n {
            r = r.square();
        }
        r
    }

    /// The shared prefix of the standard secp256k1 addition chains:
    /// `self^(2^k − 1)` for `k` = 2, 22 and 223 — the lengths of the runs
    /// of one bits in `p = 2^256 − 2^32 − 977`, whose top 223 bits are all
    /// set. Every exponent derived from p (`p − 2`, `(p + 1)/4`) is these
    /// runs followed by ten low bits, so a run costs one multiplication
    /// where a bit-at-a-time ladder pays one per bit.
    fn pow_ones(&self) -> (Fe, Fe, Fe) {
        let x2 = self.square().mul(self);
        let x3 = x2.square().mul(self);
        let x6 = x3.sqr_n(3).mul(&x3);
        let x9 = x6.sqr_n(3).mul(&x3);
        let x11 = x9.sqr_n(2).mul(&x2);
        let x22 = x11.sqr_n(11).mul(&x11);
        let x44 = x22.sqr_n(22).mul(&x22);
        let x88 = x44.sqr_n(44).mul(&x44);
        let x176 = x88.sqr_n(88).mul(&x88);
        let x220 = x176.sqr_n(44).mul(&x44);
        let x223 = x220.sqr_n(3).mul(&x3);
        (x2, x22, x223)
    }
}

impl core::fmt::Display for Fe {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        for b in self.to_be_bytes() {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_plus_one_is_two() {
        assert_eq!(Fe::ONE.add(&Fe::ONE), Fe::from_u64(2));
    }

    #[test]
    fn invert_round_trip() {
        let a = Fe::from_u64(1234567);
        assert_eq!(a.mul(&a.invert()), Fe::ONE);
    }

    #[test]
    fn sqrt_of_square() {
        let a = Fe::from_u64(987654321);
        let sq = a.square();
        let root = sq.sqrt().expect("square must have a root");
        assert!(root == a || root == a.neg());
    }

    #[test]
    fn non_residues_have_no_sqrt() {
        // p ≡ 3 (mod 4) makes −1 a non-residue; 3 is one by reciprocity
        // (p ≡ 1 mod 3).
        assert_eq!(Fe::ONE.neg().sqrt(), None);
        assert_eq!(Fe::from_u64(3).sqrt(), None);
        assert_eq!(Fe::from_u64(4).sqrt().map(|r| r.square()), Some(Fe::from_u64(4)));
        assert_eq!(Fe::ZERO.sqrt(), Some(Fe::ZERO));
    }

    #[test]
    #[should_panic(expected = "inverse of zero field element")]
    fn invert_zero_panics() {
        let _ = Fe::ZERO.invert();
    }

    #[test]
    fn neg_adds_to_zero() {
        let a = Fe::from_u64(55);
        assert_eq!(a.add(&a.neg()), Fe::ZERO);
    }

    #[test]
    fn parse_rejects_values_at_or_above_p() {
        let p_bytes = u256::to_be_bytes(&P.m);
        assert!(Fe::from_be_bytes(&p_bytes).is_none());
        let max = [0xffu8; 32];
        assert!(Fe::from_be_bytes(&max).is_none());
    }

    #[test]
    fn bytes_round_trip() {
        let a = Fe::from_u64(0xdeadbeefcafe);
        assert_eq!(Fe::from_be_bytes(&a.to_be_bytes()), Some(a));
    }

    #[test]
    fn distributivity() {
        let a = Fe::from_u64(17);
        let b = Fe::from_u64(101);
        let c = Fe::from_u64(977);
        assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }
}
