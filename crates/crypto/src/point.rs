//! secp256k1 group arithmetic: y² = x³ + 7 over GF(p).
//!
//! Points are manipulated in Jacobian projective coordinates internally
//! (avoiding per-operation field inversions) and exposed as [`Affine`]
//! values at API boundaries.

use crate::field::Fe;
use crate::scalar::Scalar;
use std::sync::OnceLock;

/// Size of a compressed point encoding (parity byte + x coordinate).
pub const COMPRESSED_LEN: usize = 33;

/// An affine curve point, or the point at infinity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Affine {
    x: Fe,
    y: Fe,
    infinity: bool,
}

/// A point in Jacobian coordinates: (X, Y, Z) represents (X/Z², Y/Z³).
#[derive(Debug, Clone, Copy)]
pub struct Jacobian {
    x: Fe,
    y: Fe,
    z: Fe,
}

impl Affine {
    /// The conventional generator point G of secp256k1.
    pub fn generator() -> Affine {
        // SEC 2 standard generator coordinates.
        let gx = Fe::from_be_bytes(&hex32(
            "79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798",
        ))
        .expect("generator x");
        let gy = Fe::from_be_bytes(&hex32(
            "483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8",
        ))
        .expect("generator y");
        Affine { x: gx, y: gy, infinity: false }
    }

    /// The point at infinity (group identity).
    pub fn infinity() -> Affine {
        Affine { x: Fe::ZERO, y: Fe::ZERO, infinity: true }
    }

    /// The x coordinate.
    ///
    /// # Panics
    ///
    /// Panics if called on the point at infinity.
    pub fn x(&self) -> Fe {
        assert!(!self.infinity, "x of point at infinity");
        self.x
    }

    /// The y coordinate.
    ///
    /// # Panics
    ///
    /// Panics if called on the point at infinity.
    pub fn y(&self) -> Fe {
        assert!(!self.infinity, "y of point at infinity");
        self.y
    }

    /// True for the group identity.
    pub fn is_infinity(&self) -> bool {
        self.infinity
    }

    /// Checks `y² == x³ + 7` (vacuously true at infinity).
    pub fn is_on_curve(&self) -> bool {
        if self.infinity {
            return true;
        }
        let lhs = self.y.square();
        let rhs = self.x.square().mul(&self.x).add(&Fe::SEVEN);
        lhs == rhs
    }

    /// Additive inverse (mirror over the x axis).
    pub fn neg(&self) -> Affine {
        if self.infinity {
            *self
        } else {
            Affine { x: self.x, y: self.y.neg(), infinity: false }
        }
    }

    /// Compressed SEC1 encoding: `02/03 || x` (infinity encodes as 33 zero
    /// bytes, which is not a valid SEC1 point and thus unambiguous).
    pub fn to_compressed(&self) -> [u8; COMPRESSED_LEN] {
        let mut out = [0u8; COMPRESSED_LEN];
        if self.infinity {
            return out;
        }
        out[0] = if self.y.is_odd() { 0x03 } else { 0x02 };
        out[1..].copy_from_slice(&self.x.to_be_bytes());
        out
    }

    /// Decodes a compressed encoding, recovering y from the curve equation.
    pub fn from_compressed(bytes: &[u8; COMPRESSED_LEN]) -> Option<Affine> {
        if bytes.iter().all(|&b| b == 0) {
            return Some(Affine::infinity());
        }
        let parity_odd = match bytes[0] {
            0x02 => false,
            0x03 => true,
            _ => return None,
        };
        let x = Fe::from_be_bytes(bytes[1..].try_into().unwrap())?;
        let y2 = x.square().mul(&x).add(&Fe::SEVEN);
        let mut y = y2.sqrt()?;
        if y.is_odd() != parity_odd {
            y = y.neg();
        }
        Some(Affine { x, y, infinity: false })
    }

    /// Converts to Jacobian coordinates.
    pub fn to_jacobian(&self) -> Jacobian {
        if self.infinity {
            Jacobian::infinity()
        } else {
            Jacobian { x: self.x, y: self.y, z: Fe::ONE }
        }
    }

    /// Point addition (affine API; internally Jacobian).
    pub fn add(&self, other: &Affine) -> Affine {
        self.to_jacobian().add_affine(other).to_affine()
    }

    /// Scalar multiplication `k·self` using a simple MSB-first
    /// double-and-add. Exposed for ablation benchmarks; prefer
    /// [`Affine::mul`] which picks the fastest strategy.
    pub fn mul_naive(&self, k: &Scalar) -> Affine {
        let mut acc = Jacobian::infinity();
        for i in (0..256).rev() {
            acc = acc.double();
            if k.bit(i) {
                acc = acc.add_affine(self);
            }
        }
        acc.to_affine()
    }

    /// Scalar multiplication `k·self`. Uses the precomputed fixed-base comb
    /// for the generator and wNAF windowed double-and-add otherwise.
    pub fn mul(&self, k: &Scalar) -> Affine {
        if *self == Affine::generator() {
            return mul_generator(k);
        }
        self.mul_window(k)
    }

    /// wNAF windowed scalar multiplication for arbitrary bases: a table of
    /// odd multiples, then one addition per nonzero signed digit — density
    /// 1/(w+1) instead of the 1/2 of plain double-and-add. The table stays
    /// in Jacobian form: for a single multiplication the field inversion
    /// that affine normalization costs is dearer than the cheaper mixed
    /// additions it buys (batched callers — [`multi_scalar_mul`] — do
    /// normalize, amortizing one inversion over every table).
    fn mul_window(&self, k: &Scalar) -> Affine {
        if self.infinity || k.is_zero() {
            return Affine::infinity();
        }
        let digits = wnaf_digits(k, WNAF_WIDTH);
        let table = odd_multiples(self, WNAF_TABLE_LEN);
        let mut acc = Jacobian::infinity();
        for &d in digits.iter().rev() {
            acc = acc.double();
            if d > 0 {
                acc = acc.add(&table[(d as usize - 1) / 2]);
            } else if d < 0 {
                acc = acc.add(&table[((-d) as usize - 1) / 2].neg());
            }
        }
        acc.to_affine()
    }

    /// Computes `a·G + b·Q` with shared doublings — the core of signature
    /// verification. The generator's window table is precomputed once per
    /// process (see [`multi_scalar_mul`]); only Q's table is built per
    /// call.
    pub fn double_scalar_mul_generator(a: &Scalar, b: &Scalar, q: &Affine) -> Affine {
        multi_scalar_mul(&[(*a, Affine::generator()), (*b, *q)])
    }
}

impl Jacobian {
    /// The group identity in Jacobian form (Z = 0).
    pub fn infinity() -> Jacobian {
        Jacobian { x: Fe::ONE, y: Fe::ONE, z: Fe::ZERO }
    }

    /// True for the group identity.
    pub fn is_infinity(&self) -> bool {
        self.z.is_zero()
    }

    /// Additive inverse (negated Y).
    pub fn neg(&self) -> Jacobian {
        Jacobian { x: self.x, y: self.y.neg(), z: self.z }
    }

    /// Point doubling (a = 0 specialization, "dbl-2009-l" formulas).
    pub fn double(&self) -> Jacobian {
        if self.is_infinity() || self.y.is_zero() {
            return Jacobian::infinity();
        }
        let a = self.x.square();
        let b = self.y.square();
        let c = b.square();
        // D = 2*((X+B)^2 - A - C)
        let d = self.x.add(&b).square().sub(&a).sub(&c).double();
        let e = a.double().add(&a); // 3A
        let f = e.square();
        let x3 = f.sub(&d.double());
        let c8 = c.double().double().double();
        let y3 = e.mul(&d.sub(&x3)).sub(&c8);
        let z3 = self.y.mul(&self.z).double();
        Jacobian { x: x3, y: y3, z: z3 }
    }

    /// General Jacobian + Jacobian addition.
    pub fn add(&self, other: &Jacobian) -> Jacobian {
        if self.is_infinity() {
            return *other;
        }
        if other.is_infinity() {
            return *self;
        }
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        let u1 = self.x.mul(&z2z2);
        let u2 = other.x.mul(&z1z1);
        let s1 = self.y.mul(&z2z2).mul(&other.z);
        let s2 = other.y.mul(&z1z1).mul(&self.z);
        let h = u2.sub(&u1);
        let r = s2.sub(&s1);
        if h.is_zero() {
            if r.is_zero() {
                return self.double();
            }
            return Jacobian::infinity();
        }
        let h2 = h.square();
        let h3 = h.mul(&h2);
        let u1h2 = u1.mul(&h2);
        let x3 = r.square().sub(&h3).sub(&u1h2.double());
        let y3 = r.mul(&u1h2.sub(&x3)).sub(&s1.mul(&h3));
        let z3 = self.z.mul(&other.z).mul(&h);
        Jacobian { x: x3, y: y3, z: z3 }
    }

    /// Mixed Jacobian + affine addition (Z2 = 1 shortcut).
    pub fn add_affine(&self, other: &Affine) -> Jacobian {
        if other.is_infinity() {
            return *self;
        }
        if self.is_infinity() {
            return other.to_jacobian();
        }
        let z1z1 = self.z.square();
        let u2 = other.x.mul(&z1z1);
        let s2 = other.y.mul(&z1z1).mul(&self.z);
        let h = u2.sub(&self.x);
        let r = s2.sub(&self.y);
        if h.is_zero() {
            if r.is_zero() {
                return self.double();
            }
            return Jacobian::infinity();
        }
        let h2 = h.square();
        let h3 = h.mul(&h2);
        let u1h2 = self.x.mul(&h2);
        let x3 = r.square().sub(&h3).sub(&u1h2.double());
        let y3 = r.mul(&u1h2.sub(&x3)).sub(&self.y.mul(&h3));
        let z3 = self.z.mul(&h);
        Jacobian { x: x3, y: y3, z: z3 }
    }

    /// Converts back to affine coordinates (one field inversion).
    pub fn to_affine(&self) -> Affine {
        if self.is_infinity() {
            return Affine::infinity();
        }
        let z_inv = self.z.invert();
        let z2 = z_inv.square();
        let z3 = z2.mul(&z_inv);
        Affine { x: self.x.mul(&z2), y: self.y.mul(&z3), infinity: false }
    }
}

/// Window width for per-call wNAF tables (arbitrary bases). Width 4 is the
/// sweet spot when the table is built per call: halving the table cost
/// (7 vs 15 additions) outweighs the slightly higher digit density.
const WNAF_WIDTH: u32 = 4;
/// Odd multiples stored per arbitrary base: 1P, 3P, …, 15P (width 4).
const WNAF_TABLE_LEN: usize = 1 << (WNAF_WIDTH - 1);
/// Wider window for the generator — its table is built once per process.
const G_WNAF_WIDTH: u32 = 7;
const G_WNAF_TABLE_LEN: usize = 1 << (G_WNAF_WIDTH - 1);

fn limbs_is_zero(v: &[u64; 4]) -> bool {
    v.iter().all(|&x| x == 0)
}

fn limbs_sub_small(v: &mut [u64; 4], d: u64) {
    let (r, mut borrow) = v[0].overflowing_sub(d);
    v[0] = r;
    for limb in v.iter_mut().skip(1) {
        if !borrow {
            break;
        }
        let (r, b) = limb.overflowing_sub(1);
        *limb = r;
        borrow = b;
    }
    debug_assert!(!borrow, "wNAF subtrahend exceeded the scalar");
}

fn limbs_add_small(v: &mut [u64; 4], d: u64) {
    let (r, mut carry) = v[0].overflowing_add(d);
    v[0] = r;
    for limb in v.iter_mut().skip(1) {
        if !carry {
            break;
        }
        let (r, c) = limb.overflowing_add(1);
        *limb = r;
        carry = c;
    }
    debug_assert!(!carry, "wNAF carry out of 256 bits");
}

fn limbs_shr1(v: &mut [u64; 4]) {
    v[0] = (v[0] >> 1) | (v[1] << 63);
    v[1] = (v[1] >> 1) | (v[2] << 63);
    v[2] = (v[2] >> 1) | (v[3] << 63);
    v[3] >>= 1;
}

/// Width-`w` non-adjacent form: signed odd digits in `(−2ʷ, 2ʷ)`, at most
/// one nonzero digit in any `w+1` consecutive positions (average density
/// `1/(w+1)`). Index 0 is the least significant digit.
fn wnaf_digits(k: &Scalar, width: u32) -> Vec<i8> {
    debug_assert!((2..=7).contains(&width), "digit must fit an i8");
    let mut v = *k.limbs();
    let mut out = Vec::with_capacity(257);
    let base = 1i64 << width;
    let mask = (1u64 << (width + 1)) - 1;
    while !limbs_is_zero(&v) {
        let digit = if v[0] & 1 == 1 {
            let m = (v[0] & mask) as i64;
            let d = if m > base { m - (base << 1) } else { m };
            if d >= 0 {
                limbs_sub_small(&mut v, d as u64);
            } else {
                limbs_add_small(&mut v, (-d) as u64);
            }
            d as i8
        } else {
            0
        };
        out.push(digit);
        limbs_shr1(&mut v);
    }
    out
}

/// The odd multiples `P, 3P, 5P, …` of `p`, in Jacobian form (normalize
/// with [`to_affine_batch`] before use in a hot loop).
fn odd_multiples(p: &Affine, len: usize) -> Vec<Jacobian> {
    let mut out = Vec::with_capacity(len);
    let p_jac = p.to_jacobian();
    let two_p = p_jac.double();
    out.push(p_jac);
    for i in 1..len {
        out.push(out[i - 1].add(&two_p));
    }
    out
}

/// Batch conversion to affine with Montgomery's trick: one field inversion
/// for the whole slice instead of one per point.
pub fn to_affine_batch(points: &[Jacobian]) -> Vec<Affine> {
    let mut prefix = Vec::with_capacity(points.len());
    let mut acc = Fe::ONE;
    for p in points {
        prefix.push(acc);
        if !p.is_infinity() {
            acc = acc.mul(&p.z);
        }
    }
    let mut suffix_inv = acc.invert();
    let mut out = vec![Affine::infinity(); points.len()];
    for i in (0..points.len()).rev() {
        let p = &points[i];
        if p.is_infinity() {
            continue;
        }
        let z_inv = suffix_inv.mul(&prefix[i]);
        suffix_inv = suffix_inv.mul(&p.z);
        let z2 = z_inv.square();
        let z3 = z2.mul(&z_inv);
        out[i] = Affine { x: p.x.mul(&z2), y: p.y.mul(&z3), infinity: false };
    }
    out
}

/// Adds `|d|`-th odd multiple (sign-adjusted) from `table` to `acc`.
#[inline]
fn add_digit(acc: Jacobian, d: i8, table: &[Affine]) -> Jacobian {
    if d == 0 {
        return acc;
    }
    if d > 0 {
        acc.add_affine(&table[(d as usize - 1) / 2])
    } else {
        acc.add_affine(&table[((-d) as usize - 1) / 2].neg())
    }
}

/// The generator's wNAF odd-multiple table, built once per process.
fn generator_wnaf_table() -> &'static [Affine] {
    static TABLE: OnceLock<Vec<Affine>> = OnceLock::new();
    TABLE
        .get_or_init(|| to_affine_batch(&odd_multiples(&Affine::generator(), G_WNAF_TABLE_LEN)))
        .as_slice()
}

/// Multi-scalar multiplication `Σ kᵢ·Pᵢ` with shared doublings (windowed
/// Straus/wNAF): one doubling chain serves every term, and each term costs
/// ~51 mixed additions (signed width-4 digits, density ≈ 1/5) instead of
/// the ~128 of bit-at-a-time evaluation. Generator terms use a process-wide
/// precomputed 7-bit table; the per-call tables of the remaining terms are
/// normalized to affine with a single shared field inversion. This is what
/// makes Schnorr batch verification several times cheaper per signature
/// than one-by-one verification.
pub fn multi_scalar_mul(terms: &[(Scalar, Affine)]) -> Affine {
    multi_scalar_mul_jacobian(terms).to_affine()
}

/// [`multi_scalar_mul`] without the final normalization — for callers that
/// only ask whether the sum is the identity ([`Jacobian::is_infinity`] is
/// a zero test on Z, where `to_affine` costs a field inversion).
pub fn multi_scalar_mul_jacobian(terms: &[(Scalar, Affine)]) -> Jacobian {
    let generator = Affine::generator();
    // Generator terms ride the cached wide table; the rest get per-call
    // tables, all normalized to affine with ONE shared inversion.
    let mut g_digits: Vec<Vec<i8>> = Vec::new();
    let mut others: Vec<(Affine, Vec<i8>)> = Vec::new();
    for (k, p) in terms {
        if p.is_infinity() || k.is_zero() {
            continue;
        }
        if *p == generator {
            g_digits.push(wnaf_digits(k, G_WNAF_WIDTH));
        } else {
            others.push((*p, wnaf_digits(k, WNAF_WIDTH)));
        }
    }
    let mut jac_tables = Vec::with_capacity(others.len() * WNAF_TABLE_LEN);
    for (p, _) in &others {
        jac_tables.extend(odd_multiples(p, WNAF_TABLE_LEN));
    }
    let tables = to_affine_batch(&jac_tables);
    let g_table = generator_wnaf_table();

    let longest =
        g_digits.iter().map(Vec::len).chain(others.iter().map(|(_, d)| d.len())).max().unwrap_or(0);
    let mut acc = Jacobian::infinity();
    for i in (0..longest).rev() {
        acc = acc.double();
        for digits in &g_digits {
            if let Some(&d) = digits.get(i) {
                acc = add_digit(acc, d, g_table);
            }
        }
        for (j, (_, digits)) in others.iter().enumerate() {
            if let Some(&d) = digits.get(i) {
                acc = add_digit(acc, d, &tables[j * WNAF_TABLE_LEN..(j + 1) * WNAF_TABLE_LEN]);
            }
        }
    }
    acc
}

/// Digits per comb window: [`mul_generator`] reads its scalar a byte at a
/// time, and digit 0 needs no entry.
const COMB_DIGITS: usize = 255;

/// The generator's fixed-base comb, built once per process: `d·2^(8w)·G`
/// at index `255·w + d − 1`, for window `w` in 0..32 and digit `d` in
/// 1..=255 — 8160 affine points, about 590 KB. Each window is normalized
/// with its own [`to_affine_batch`]: 32 inversions instead of one, so the
/// build's scratch is one window (about 24 KB of Jacobian points), not a
/// second copy of the table that the allocator would have to map and
/// return.
fn generator_comb() -> &'static [Affine] {
    static TABLE: OnceLock<Vec<Affine>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = Vec::with_capacity(32 * COMB_DIGITS);
        let mut row = Vec::with_capacity(COMB_DIGITS);
        let mut base = Affine::generator();
        for _ in 0..32 {
            row.clear();
            let mut acc = base.to_jacobian();
            row.push(acc);
            for _ in 1..COMB_DIGITS {
                acc = acc.add_affine(&base);
                row.push(acc);
            }
            table.extend(to_affine_batch(&row));
            // The next window's base: 256·base = 255·base + base.
            base = acc.add_affine(&base).to_affine();
        }
        table
    })
}

/// Fast fixed-base multiplication `k·G` through the precomputed comb: one
/// mixed addition per nonzero byte of `k` (at most 32), no doublings.
pub fn mul_generator(k: &Scalar) -> Affine {
    let windows = generator_comb().chunks_exact(COMB_DIGITS);
    let mut acc = Jacobian::infinity();
    // Window w holds byte w of k, counted from the least significant.
    for (row, &byte) in windows.zip(k.to_be_bytes().iter().rev()) {
        if byte != 0 {
            acc = acc.add_affine(&row[byte as usize - 1]);
        }
    }
    acc.to_affine()
}

fn hex32(s: &str) -> [u8; 32] {
    let mut out = [0u8; 32];
    for i in 0..32 {
        out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).expect("valid hex");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_on_curve() {
        assert!(Affine::generator().is_on_curve());
    }

    #[test]
    fn two_g_matches_known_value() {
        let g = Affine::generator();
        let two_g = g.add(&g);
        assert_eq!(
            two_g.x().to_be_bytes(),
            hex32("C6047F9441ED7D6D3045406E95C07CD85C778E4B8CEF3CA7ABAC09B95C709EE5")
        );
        assert_eq!(
            two_g.y().to_be_bytes(),
            hex32("1AE168FEA63DC339A3C58419466CEAEEF7F632653266D0E1236431A950CFE52A")
        );
    }

    #[test]
    fn n_times_g_is_infinity() {
        // n·G = identity; compute (n-1)·G + G.
        let g = Affine::generator();
        let n_minus_1 = Scalar::ZERO.sub(&Scalar::ONE);
        let p = g.mul_naive(&n_minus_1);
        assert!(p.add(&g).is_infinity());
    }

    #[test]
    fn naive_window_and_comb_agree() {
        let g = Affine::generator();
        let mut scalars: Vec<Scalar> = [1u64, 2, 3, 7, 0xffff, 0xdeadbeef, u64::MAX]
            .into_iter()
            .map(Scalar::from_u64)
            .collect();
        // Every comb window alone at its smallest, middle and largest
        // digit, then n − 1 (every window nonzero, the top one 0xff).
        for window in 0..32 {
            for digit in [0x01, 0x80, 0xff] {
                let mut bytes = [0u8; 32];
                bytes[31 - window] = digit;
                scalars.push(Scalar::from_be_bytes_checked(&bytes).expect("below n"));
            }
        }
        scalars.push(Scalar::ZERO.sub(&Scalar::ONE));
        for s in &scalars {
            let a = g.mul_naive(s);
            assert_eq!(a, g.mul_window(s), "k={:?}", s.limbs());
            assert_eq!(a, mul_generator(s), "k={:?}", s.limbs());
        }
    }

    #[test]
    fn scalar_mul_distributes_over_add() {
        let g = Affine::generator();
        let a = Scalar::from_u64(123456789);
        let b = Scalar::from_u64(987654321);
        let lhs = g.mul(&a.add(&b));
        let rhs = g.mul(&a).add(&g.mul(&b));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn double_scalar_matches_separate() {
        let g = Affine::generator();
        let q = g.mul(&Scalar::from_u64(31337));
        let a = Scalar::from_u64(1111);
        let b = Scalar::from_u64(2222);
        let combined = Affine::double_scalar_mul_generator(&a, &b, &q);
        let separate = g.mul(&a).add(&q.mul(&b));
        assert_eq!(combined, separate);
    }

    #[test]
    fn compression_round_trip() {
        let g = Affine::generator();
        for k in [1u64, 5, 1234567] {
            let p = g.mul(&Scalar::from_u64(k));
            let compressed = p.to_compressed();
            let back = Affine::from_compressed(&compressed).expect("decodes");
            assert_eq!(p, back);
        }
        // Infinity round-trips through the all-zero encoding.
        let inf = Affine::infinity();
        assert_eq!(Affine::from_compressed(&inf.to_compressed()), Some(inf));
    }

    #[test]
    fn compression_rejects_bad_prefix_and_non_curve_x() {
        let mut enc = Affine::generator().to_compressed();
        enc[0] = 0x04;
        assert!(Affine::from_compressed(&enc).is_none());
        // x = 0 is not on the curve for secp256k1 (0³+7=7 is a residue?
        // If it decodes, the point must satisfy the curve equation.)
        let mut zero_x = [0u8; 33];
        zero_x[0] = 0x02;
        if let Some(p) = Affine::from_compressed(&zero_x) {
            assert!(p.is_on_curve());
        }
    }

    #[test]
    fn add_with_infinity_is_identity() {
        let g = Affine::generator();
        assert_eq!(g.add(&Affine::infinity()), g);
        assert_eq!(Affine::infinity().add(&g), g);
    }

    #[test]
    fn point_plus_negation_is_infinity() {
        let g = Affine::generator();
        let p = g.mul(&Scalar::from_u64(99));
        assert!(p.add(&p.neg()).is_infinity());
    }

    /// Deterministic "random" scalar for exercising full-width digits.
    fn scalar_from_seed(seed: u64) -> Scalar {
        let mut bytes = [0u8; 32];
        for (i, chunk) in bytes.chunks_mut(8).enumerate() {
            chunk.copy_from_slice(
                &(seed.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(i as u32 * 11)).to_be_bytes(),
            );
        }
        Scalar::from_be_bytes_reduced(&bytes)
    }

    #[test]
    fn wnaf_digits_reconstruct_the_scalar() {
        for seed in [1u64, 2, 3, 0xffff, u64::MAX] {
            let k = scalar_from_seed(seed);
            for width in [2u32, 5, 7] {
                let digits = wnaf_digits(&k, width);
                // Σ dᵢ·2ⁱ (mod n) must equal k.
                let mut acc = Scalar::ZERO;
                let two = Scalar::from_u64(2);
                for &d in digits.iter().rev() {
                    acc = acc.mul(&two);
                    if d > 0 {
                        acc = acc.add(&Scalar::from_u64(d as u64));
                    } else if d < 0 {
                        acc = acc.sub(&Scalar::from_u64((-(d as i64)) as u64));
                    }
                }
                assert_eq!(acc, k, "seed={seed} width={width}");
                // Nonzero digits are odd and within (−2ʷ, 2ʷ).
                for &d in &digits {
                    if d != 0 {
                        assert!(d % 2 != 0 && (d as i64).abs() < (1 << width));
                    }
                }
            }
        }
    }

    #[test]
    fn batch_normalization_matches_serial() {
        let g = Affine::generator();
        let mut points = vec![Jacobian::infinity()];
        for k in [1u64, 7, 31337, u64::MAX] {
            let mut p = g.mul_naive(&Scalar::from_u64(k)).to_jacobian();
            p = p.double(); // non-trivial Z
            points.push(p);
        }
        let batch = to_affine_batch(&points);
        for (p, a) in points.iter().zip(&batch) {
            assert_eq!(p.to_affine(), *a);
        }
    }

    #[test]
    fn multi_scalar_mul_matches_separate_multiplications() {
        let g = Affine::generator();
        let q = g.mul_naive(&Scalar::from_u64(0xabcdef));
        let r = g.mul_naive(&Scalar::from_u64(0x1234567));
        let terms =
            vec![(scalar_from_seed(11), g), (scalar_from_seed(22), q), (scalar_from_seed(33), r)];
        let expected =
            terms.iter().fold(Affine::infinity(), |acc, (k, p)| acc.add(&p.mul_naive(k)));
        assert_eq!(multi_scalar_mul(&terms), expected);
    }

    #[test]
    fn multi_scalar_mul_edge_cases() {
        let g = Affine::generator();
        assert!(multi_scalar_mul(&[]).is_infinity());
        // Zero scalars and infinity points contribute nothing.
        assert!(multi_scalar_mul(&[(Scalar::ZERO, g)]).is_infinity());
        assert!(multi_scalar_mul(&[(Scalar::ONE, Affine::infinity())]).is_infinity());
        let k = scalar_from_seed(99);
        assert_eq!(
            multi_scalar_mul(&[(k, g), (Scalar::ZERO, g), (Scalar::ONE, Affine::infinity())]),
            g.mul_naive(&k)
        );
        // Terms that cancel: k·G + (n−k)·G = ∞.
        assert!(multi_scalar_mul(&[(k, g), (k.neg(), g)]).is_infinity());
    }

    #[test]
    fn windowed_mul_matches_naive_on_full_width_scalars() {
        let g = Affine::generator();
        let base = g.mul_naive(&Scalar::from_u64(31337));
        for seed in [5u64, 6, 7] {
            let k = scalar_from_seed(seed);
            assert_eq!(base.mul_window(&k), base.mul_naive(&k), "seed={seed}");
            assert_eq!(mul_generator(&k), g.mul_naive(&k), "seed={seed}");
        }
    }
}
