//! The secp256k1 base field GF(p), p = 2^256 − 2^32 − 977.
//!
//! Multiplication, squaring, and the square root's Fermat exponentiation
//! route through [`reduce_wide`], a reduction specialized to this modulus: since
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

/// p in signed 62-bit limbs (`Σ lᵢ·2^(62i)`), the form [`Fe::invert`]
/// works in: `−(2^32 + 977) + 256·2^248`.
const P62: [i64; 5] = [-0x1_0000_03D1, 0, 0, 0, 256];
/// `p⁻¹ mod 2^62`.
const P_INV62: u64 = 0x27C7_F6E2_2DDA_CACF;
const M62: u64 = u64::MAX >> 2;

/// 62 divsteps of Bernstein–Yang on the low 64 bits of `f` (odd) and `g`,
/// with `eta = −δ`. Returns the new `eta` and the transition matrix
/// `[u, v, q, r]`, scaled by 2^62: after the batch,
/// `2^62·(f', g') = (u·f + v·g, q·f + r·g)`. Runs of zero bits in `g` are
/// skipped at once, and each odd step cancels up to six low bits of `g`
/// (libsecp256k1's `modinv64_divsteps_62_var`).
fn divsteps_62(mut eta: i64, f0: u64, g0: u64) -> (i64, [i64; 4]) {
    use std::num::Wrapping as W;
    let (mut u, mut v, mut q, mut r) = (W(1u64), W(0u64), W(0u64), W(1u64));
    let (mut f, mut g) = (W(f0), W(g0));
    let mut left = 62;
    loop {
        // The sentinel bit stops the count at the steps still left.
        let zeros = (g.0 | (u64::MAX << left)).trailing_zeros() as usize;
        (g, u, v) = (g >> zeros, u << zeros, v << zeros);
        eta -= zeros as i64;
        left -= zeros;
        if left == 0 {
            break;
        }
        debug_assert!(f.0 & g.0 & 1 == 1, "f and g are odd between steps");
        debug_assert_eq!(u * W(f0) + v * W(g0), f << (62 - left));
        debug_assert_eq!(q * W(f0) + r * W(g0), g << (62 - left));
        // A step with δ > 0 swaps: (f, g) becomes (g, −f).
        let cancel_bits = if eta < 0 {
            eta = -eta;
            (f, g, u, v, q, r) = (g, -f, q, r, -u, -v);
            6
        } else {
            4
        };
        // Cancel the low bits of g with a multiple of f: no more than the
        // steps left, nor than eta + 1 (after that δ changes sign again).
        let limit = (eta + 1).min(left as i64) as usize;
        let mask = W((u64::MAX >> (64 - limit)) & ((1 << cancel_bits) - 1));
        // w = −g/f mod 2^cancel_bits. An odd f is its own inverse mod 8;
        // one Newton step, f·(2 − f²), lifts that to mod 64, and
        // f + 8·[f ≡ 3 or 5 mod 8] is the cheaper inverse mod 16.
        let w = if cancel_bits == 6 {
            f * g * (f * f - W(2))
        } else {
            -(f + (((f + W(1)) & W(4)) << 1)) * g
        } & mask;
        (g, q, r) = (g + f * w, q + u * w, r + v * w);
        debug_assert_eq!(g & mask, W(0), "the cancelled low bits of g");
    }
    (eta, [u.0 as i64, v.0 as i64, q.0 as i64, r.0 as i64])
}

/// `(a·x + b·y + m·p) / 2^62` over the low `len` signed-62 limbs of `x`
/// and `y`; the caller picks `a, b, m` so that the division is exact.
fn combine(a: i64, b: i64, x: &[i64; 5], y: &[i64; 5], m: i64, len: usize) -> [i64; 5] {
    let term =
        |i: usize| a as i128 * x[i] as i128 + b as i128 * y[i] as i128 + m as i128 * P62[i] as i128;
    let mut acc = term(0);
    debug_assert_eq!(acc as u64 & M62, 0, "a divstep batch cancels 62 low bits");
    acc >>= 62;
    let mut out = [0; 5];
    for i in 1..len {
        acc += term(i);
        out[i - 1] = (acc as u64 & M62) as i64;
        acc >>= 62;
    }
    out[len - 1] = acc as i64;
    out
}

/// `(a·d + b·e) / 2^62 (mod p)` for `d, e` in `(−2p, p)`: adds the
/// multiple of p that clears the low 62 bits, chosen (from the operands'
/// signs) so that the result stays in `(−2p, p)`.
fn combine_mod_p(a: i64, b: i64, d: &[i64; 5], e: &[i64; 5]) -> [i64; 5] {
    let mut m = (a & (d[4] >> 63)) + (b & (e[4] >> 63));
    let low = (a as i128 * d[0] as i128 + b as i128 * e[0] as i128) as u64;
    m -= (P_INV62.wrapping_mul(low).wrapping_add(m as u64) & M62) as i64;
    let out = combine(a, b, d, e, m, 5);
    // The top limb weighs 2^248 and p ≈ 256·2^248.
    debug_assert!((-512..256).contains(&out[4]), "d and e stay in (−2p, p)");
    out
}

/// Brings `d` in `(−2p, p)`, negated first if `negate`, to `[0, p)` in
/// 64-bit limbs.
fn normalize_signed62(mut d: [i64; 5], negate: bool) -> Limbs {
    for pass in 0..2 {
        if d[4] < 0 {
            d.iter_mut().zip(P62).for_each(|(l, p)| *l += p);
        }
        if pass == 0 && negate {
            d.iter_mut().for_each(|l| *l = -*l);
        }
        for i in 0..4 {
            d[i + 1] += d[i] >> 62;
            d[i] &= M62 as i64;
        }
    }
    let d = d.map(|l| l as u64);
    let limbs =
        [d[0] | d[1] << 62, d[1] >> 2 | d[2] << 60, d[2] >> 4 | d[3] << 58, d[3] >> 6 | d[4] << 56];
    debug_assert!(u256::lt(&limbs, &P.m));
    limbs
}

/// `a` in five non-negative signed 62-bit limbs.
fn to_signed62(a: &Limbs) -> [i64; 5] {
    let l =
        [a[0], a[0] >> 62 | a[1] << 2, a[1] >> 60 | a[2] << 4, a[2] >> 58 | a[3] << 6, a[3] >> 56];
    l.map(|x| (x & M62) as i64)
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

    /// Multiplicative inverse by Bernstein and Yang's divsteps ("Fast
    /// constant-time gcd computation and modular inversion", TCHES 2019),
    /// in the variable-time form: batches of 62 divsteps on the low limbs
    /// of `f = p` and `g = self`, each batch's 2×2 transition matrix then
    /// applied to the full-width `f, g` and to the Bézout coefficients `d, e`,
    /// until `g = 0`. Under a quarter of the cost of a Fermat exponentiation.
    ///
    /// Variable-time: its running time depends on `self`, like the rest of
    /// this crate's curve arithmetic (see [`crate::schnorr::SecretKey::agree`]).
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero (zero has no inverse).
    pub fn invert(&self) -> Fe {
        assert!(!self.is_zero(), "inverse of zero field element");
        let (mut d, mut e) = ([0; 5], [1, 0, 0, 0, 0]);
        let (mut f, mut g) = (P62, to_signed62(&self.0));
        let mut len = 5;
        let mut eta = -1;
        loop {
            let (next_eta, [u, v, q, r]) = divsteps_62(eta, f[0] as u64, g[0] as u64);
            eta = next_eta;
            (d, e) = (combine_mod_p(u, v, &d, &e), combine_mod_p(q, r, &d, &e));
            (f, g) = (combine(u, v, &f, &g, 0, len), combine(q, r, &f, &g, 0, len));
            if g[..len].iter().all(|&limb| limb == 0) {
                break;
            }
            // Drop the top limb once it is only sign extension in both f and g.
            let (top_f, top_g) = (f[len - 1], g[len - 1]);
            if len > 1 && (top_f ^ (top_f >> 63)) | (top_g ^ (top_g >> 63)) == 0 {
                f[len - 2] |= top_f << 62;
                g[len - 2] |= top_g << 62;
                len -= 1;
            }
        }
        // g = 0 leaves f = ±gcd(p, self) = ±1 and d = ±self⁻¹ in (−2p, p).
        let inverse = Fe(normalize_signed62(d, f[len - 1] < 0));
        debug_assert_eq!(self.mul(&inverse), Fe::ONE);
        inverse
    }

    /// Square root, if one exists. Since p ≡ 3 (mod 4) this is
    /// `self^((p+1)/4)` — 253 squarings and 13 multiplications on a fixed
    /// addition chain; returns `None` when `self` is a non-residue.
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

    /// The prefix of the standard secp256k1 square-root chain:
    /// `self^(2^k − 1)` for `k` = 2, 22 and 223 — the lengths of the runs
    /// of one bits in `p = 2^256 − 2^32 − 977`, whose top 223 bits are all
    /// set. `(p + 1)/4` is these runs followed by eight low bits, so a run
    /// costs one multiplication where a bit-at-a-time ladder pays one per
    /// bit.
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
