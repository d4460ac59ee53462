//! Fixed-width 256-bit unsigned integer arithmetic on 4×u64 little-endian
//! limbs, plus the 512-bit products and modular folding used by the field
//! and scalar implementations.
//!
//! These helpers are deliberately minimal: only the operations the
//! secp256k1 field/scalar code needs. Values are little-endian limb arrays
//! (`limbs[0]` is the least significant 64 bits).

/// A 256-bit value as 4 little-endian u64 limbs.
pub type Limbs = [u64; 4];

/// A 512-bit value as 8 little-endian u64 limbs.
pub type Wide = [u64; 8];

/// The zero value.
pub const ZERO: Limbs = [0; 4];

/// `a + b`, returning the sum and the carry-out bit.
#[inline]
pub fn add(a: &Limbs, b: &Limbs) -> (Limbs, bool) {
    let mut out = [0u64; 4];
    let mut carry = 0u128;
    for i in 0..4 {
        let sum = a[i] as u128 + b[i] as u128 + carry;
        out[i] = sum as u64;
        carry = sum >> 64;
    }
    (out, carry != 0)
}

/// `a - b`, returning the difference and the borrow-out bit.
#[inline]
pub fn sub(a: &Limbs, b: &Limbs) -> (Limbs, bool) {
    let mut out = [0u64; 4];
    let mut borrow = 0i128;
    for i in 0..4 {
        let diff = a[i] as i128 - b[i] as i128 - borrow;
        if diff < 0 {
            out[i] = (diff + (1i128 << 64)) as u64;
            borrow = 1;
        } else {
            out[i] = diff as u64;
            borrow = 0;
        }
    }
    (out, borrow != 0)
}

/// Full 256×256 → 512-bit schoolbook multiplication.
#[inline]
pub fn mul_wide(a: &Limbs, b: &Limbs) -> Wide {
    let mut out = [0u64; 8];
    for i in 0..4 {
        let mut carry = 0u128;
        for j in 0..4 {
            let cur = out[i + j] as u128 + a[i] as u128 * b[j] as u128 + carry;
            out[i + j] = cur as u64;
            carry = cur >> 64;
        }
        out[i + 4] = carry as u64;
    }
    out
}

/// Full 256-bit squaring → 512 bits. Exploits the symmetry of the
/// product: the 6 off-diagonal limb products are computed once and
/// doubled instead of twice, so a squaring costs 10 wide multiplications
/// where [`mul_wide`] costs 16 — and squarings dominate the doubling
/// chains of point arithmetic and the field's square root.
#[inline]
pub fn sqr_wide(a: &Limbs) -> Wide {
    // Off-diagonal products a[i]·a[j] (i < j), accumulated once.
    let mut out = [0u64; 8];
    for i in 0..4 {
        let mut carry = 0u128;
        for j in (i + 1)..4 {
            let cur = out[i + j] as u128 + a[i] as u128 * a[j] as u128 + carry;
            out[i + j] = cur as u64;
            carry = cur >> 64;
        }
        out[i + 4] = carry as u64;
    }
    // Double them (their sum is < 2^511, so no bit is shifted out).
    let mut carry = 0u64;
    for limb in out.iter_mut() {
        let top = *limb >> 63;
        *limb = (*limb << 1) | carry;
        carry = top;
    }
    debug_assert_eq!(carry, 0);
    // Add the diagonal squares a[i]² at position 2i.
    let mut c = 0u128;
    for i in 0..4 {
        let sq = a[i] as u128 * a[i] as u128;
        let lo = out[2 * i] as u128 + (sq as u64) as u128 + c;
        out[2 * i] = lo as u64;
        let hi = out[2 * i + 1] as u128 + ((sq >> 64) as u64) as u128 + (lo >> 64);
        out[2 * i + 1] = hi as u64;
        c = hi >> 64;
    }
    debug_assert_eq!(c, 0, "a² < 2^512");
    out
}

/// Square-and-multiply exponentiation (MSB first) over caller-supplied
/// squaring and multiplication — the ladder behind the `Scalar` Fermat
/// inversion, so the specialized reductions (and any future
/// hardening of the ladder itself) live in exactly one place. `base` must
/// already be reduced; returns `one` when `exp` is zero.
pub fn pow_ladder<T: Copy>(
    base: &T,
    exp: &Limbs,
    one: T,
    sqr: impl Fn(&T) -> T,
    mul: impl Fn(&T, &T) -> T,
) -> T {
    let mut result = one;
    let mut started = false;
    for i in (0..256).rev() {
        if started {
            result = sqr(&result);
        }
        if bit(exp, i) {
            if started {
                result = mul(&result, base);
            } else {
                result = *base;
                started = true;
            }
        }
    }
    result
}

/// Comparison: `a < b`.
#[inline]
pub fn lt(a: &Limbs, b: &Limbs) -> bool {
    for i in (0..4).rev() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
    }
    false
}

/// True if all limbs are zero.
#[inline]
pub fn is_zero(a: &Limbs) -> bool {
    a.iter().all(|&l| l == 0)
}

/// Returns bit `i` (0 = least significant) of `a`.
#[inline]
pub fn bit(a: &Limbs, i: usize) -> bool {
    (a[i / 64] >> (i % 64)) & 1 == 1
}

/// Parses a 32-byte big-endian value.
pub fn from_be_bytes(bytes: &[u8; 32]) -> Limbs {
    let mut limbs = [0u64; 4];
    for (i, limb) in limbs.iter_mut().enumerate() {
        let start = 32 - 8 * (i + 1);
        *limb = u64::from_be_bytes(bytes[start..start + 8].try_into().unwrap());
    }
    limbs
}

/// Serializes to 32 big-endian bytes.
pub fn to_be_bytes(limbs: &Limbs) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (i, limb) in limbs.iter().enumerate() {
        let start = 32 - 8 * (i + 1);
        out[start..start + 8].copy_from_slice(&limb.to_be_bytes());
    }
    out
}

/// A modulus `m > 2^255` together with its negation `2^256 - m`, which the
/// folding reduction needs.
#[derive(Debug, Clone, Copy)]
pub struct Modulus {
    /// The modulus itself.
    pub m: Limbs,
    /// `2^256 - m` (fits well below `2^130` for both secp256k1 moduli).
    pub neg_m: Limbs,
}

impl Modulus {
    /// Builds a modulus, computing `neg_m = 2^256 - m` (two's complement).
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub const fn new(m: Limbs) -> Self {
        assert!(m[0] != 0 || m[1] != 0 || m[2] != 0 || m[3] != 0, "zero modulus");
        // Two's complement negation: !m + 1, with carry propagation.
        let mut neg = [!m[0], !m[1], !m[2], !m[3]];
        let mut i = 0;
        let mut carry = 1u64;
        while i < 4 {
            let (v, c) = neg[i].overflowing_add(carry);
            neg[i] = v;
            carry = if c { 1 } else { 0 };
            i += 1;
        }
        Self { m, neg_m: neg }
    }

    /// Reduces a 512-bit value modulo `m` by repeated folding:
    /// `hi·2^256 + lo ≡ hi·neg_m + lo (mod m)`.
    ///
    /// Requires `m > 2^255` so that the final value needs at most one
    /// conditional subtraction; both secp256k1 moduli satisfy this.
    pub fn reduce_wide(&self, wide: &Wide) -> Limbs {
        let mut w = *wide;
        loop {
            let hi: Limbs = [w[4], w[5], w[6], w[7]];
            let lo: Limbs = [w[0], w[1], w[2], w[3]];
            if is_zero(&hi) {
                let mut r = lo;
                // m > 2^255 and r < 2^256 ⇒ at most one subtraction, but be
                // safe and loop.
                while !lt(&r, &self.m) {
                    let (d, _) = sub(&r, &self.m);
                    r = d;
                }
                return r;
            }
            let prod = mul_wide(&hi, &self.neg_m);
            // w = prod + lo (lo occupies the low 4 limbs).
            let mut carry = 0u128;
            let mut next = [0u64; 8];
            for i in 0..8 {
                let lo_limb = if i < 4 { lo[i] as u128 } else { 0 };
                let sum = prod[i] as u128 + lo_limb + carry;
                next[i] = sum as u64;
                carry = sum >> 64;
            }
            debug_assert_eq!(carry, 0, "fold cannot overflow 512 bits");
            w = next;
        }
    }

    /// Reduces a 256-bit value modulo `m`.
    pub fn reduce(&self, value: &Limbs) -> Limbs {
        let mut r = *value;
        while !lt(&r, &self.m) {
            let (d, _) = sub(&r, &self.m);
            r = d;
        }
        r
    }

    /// Modular addition of already-reduced operands.
    pub fn add_mod(&self, a: &Limbs, b: &Limbs) -> Limbs {
        let (sum, carry) = add(a, b);
        if carry {
            // sum_true = sum + 2^256 ≡ sum + neg_m (mod m)
            let (folded, carry2) = add(&sum, &self.neg_m);
            debug_assert!(!carry2 || lt(&folded, &self.m));
            self.reduce(&folded)
        } else {
            self.reduce(&sum)
        }
    }

    /// Modular subtraction of already-reduced operands.
    pub fn sub_mod(&self, a: &Limbs, b: &Limbs) -> Limbs {
        let (diff, borrow) = sub(a, b);
        if borrow {
            let (fixed, _) = add(&diff, &self.m);
            fixed
        } else {
            diff
        }
    }

    /// Modular multiplication of already-reduced operands.
    pub fn mul_mod(&self, a: &Limbs, b: &Limbs) -> Limbs {
        self.reduce_wide(&mul_wide(a, b))
    }

    /// Modular negation of an already-reduced operand.
    pub fn neg_mod(&self, a: &Limbs) -> Limbs {
        if is_zero(a) {
            ZERO
        } else {
            let (d, _) = sub(&self.m, a);
            d
        }
    }

    /// Modular exponentiation by square-and-multiply (MSB first).
    pub fn pow_mod(&self, base: &Limbs, exp: &Limbs) -> Limbs {
        let mut result: Limbs = [1, 0, 0, 0];
        let mut started = false;
        for i in (0..256).rev() {
            if started {
                result = self.mul_mod(&result, &result);
            }
            if bit(exp, i) {
                if started {
                    result = self.mul_mod(&result, base);
                } else {
                    result = self.reduce(base);
                    started = true;
                }
            }
        }
        if started {
            result
        } else {
            [1, 0, 0, 0] // exp == 0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: Modulus = Modulus::new([
        0xFFFFFFFEFFFFFC2F,
        0xFFFFFFFFFFFFFFFF,
        0xFFFFFFFFFFFFFFFF,
        0xFFFFFFFFFFFFFFFF,
    ]);

    #[test]
    fn neg_m_is_2_256_minus_m() {
        // For secp256k1's p, 2^256 - p = 2^32 + 977 = 0x1000003D1.
        assert_eq!(P.neg_m, [0x1000003D1, 0, 0, 0]);
    }

    #[test]
    fn add_sub_round_trip() {
        let a: Limbs = [u64::MAX, 5, 0, 1];
        let b: Limbs = [3, u64::MAX, 7, 0];
        let (sum, carry) = add(&a, &b);
        assert!(!carry);
        let (diff, borrow) = sub(&sum, &b);
        assert!(!borrow);
        assert_eq!(diff, a);
    }

    #[test]
    fn sub_underflow_borrows() {
        let (_, borrow) = sub(&[0, 0, 0, 0], &[1, 0, 0, 0]);
        assert!(borrow);
    }

    #[test]
    fn mul_wide_small_values() {
        let a: Limbs = [7, 0, 0, 0];
        let b: Limbs = [9, 0, 0, 0];
        let w = mul_wide(&a, &b);
        assert_eq!(w, [63, 0, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn mul_wide_cross_limb() {
        // (2^64) * (2^64) = 2^128
        let a: Limbs = [0, 1, 0, 0];
        let w = mul_wide(&a, &a);
        assert_eq!(w, [0, 0, 1, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn sqr_wide_matches_mul_wide() {
        let values: [Limbs; 5] = [
            [0, 0, 0, 0],
            [7, 0, 0, 0],
            [u64::MAX, u64::MAX, u64::MAX, u64::MAX],
            [0x0123456789abcdef, 0xfedcba9876543210, 42, 7],
            [u64::MAX, 0, u64::MAX, 0],
        ];
        for v in values {
            assert_eq!(sqr_wide(&v), mul_wide(&v, &v), "v={v:?}");
        }
    }

    #[test]
    fn be_bytes_round_trip() {
        let v: Limbs = [0x0123456789abcdef, 0xfedcba9876543210, 42, 7];
        assert_eq!(from_be_bytes(&to_be_bytes(&v)), v);
    }

    #[test]
    fn reduce_wide_identity_below_modulus() {
        let v: Limbs = [5, 6, 7, 8];
        let wide: Wide = [5, 6, 7, 8, 0, 0, 0, 0];
        assert_eq!(P.reduce_wide(&wide), v);
    }

    #[test]
    fn mul_mod_matches_known_square() {
        // (p-1)^2 mod p == 1
        let p_minus_1 = P.sub_mod(&ZERO, &[1, 0, 0, 0]);
        assert_eq!(P.mul_mod(&p_minus_1, &p_minus_1), [1, 0, 0, 0]);
    }

    #[test]
    fn pow_mod_fermat() {
        // a^(p-1) == 1 mod p for a != 0 (Fermat's little theorem)
        let a: Limbs = [0xdeadbeef, 0x12345678, 0, 0];
        let p_minus_1 = P.sub_mod(&ZERO, &[1, 0, 0, 0]);
        assert_eq!(P.pow_mod(&a, &p_minus_1), [1, 0, 0, 0]);
    }

    #[test]
    fn pow_mod_zero_exponent() {
        let a: Limbs = [1234, 0, 0, 0];
        assert_eq!(P.pow_mod(&a, &ZERO), [1, 0, 0, 0]);
    }

    #[test]
    fn add_mod_wraps() {
        let p_minus_1 = P.sub_mod(&ZERO, &[1, 0, 0, 0]);
        assert_eq!(P.add_mod(&p_minus_1, &[1, 0, 0, 0]), ZERO);
        assert_eq!(P.add_mod(&p_minus_1, &[2, 0, 0, 0]), [1, 0, 0, 0]);
    }

    #[test]
    fn neg_mod_involution() {
        let a: Limbs = [99, 0, 3, 0];
        assert_eq!(P.neg_mod(&P.neg_mod(&a)), a);
        assert_eq!(P.neg_mod(&ZERO), ZERO);
    }
}
