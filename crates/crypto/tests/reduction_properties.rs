//! Property tests pinning the secp256k1-specialized reductions to the
//! generic folding [`astro_crypto::u256::Modulus`] path — the acceptance
//! criterion of the specialized-arithmetic work: any divergence between
//! the two is a soundness bug, not a performance trade.

use astro_crypto::field::{self, Fe, P};
use astro_crypto::scalar::{self, Scalar, N};
use astro_crypto::u256::{self, Limbs, Wide};
use proptest::prelude::*;

fn arb_limbs() -> impl Strategy<Value = Limbs> {
    proptest::array::uniform32(any::<u8>()).prop_map(|b| u256::from_be_bytes(&b))
}

fn arb_wide() -> impl Strategy<Value = Wide> {
    (proptest::array::uniform32(any::<u8>()), proptest::array::uniform32(any::<u8>())).prop_map(
        |(lo, hi)| {
            let lo = u256::from_be_bytes(&lo);
            let hi = u256::from_be_bytes(&hi);
            [lo[0], lo[1], lo[2], lo[3], hi[0], hi[1], hi[2], hi[3]]
        },
    )
}

/// The boundary values the issue calls out: 0, 1, p−1 (per modulus), and
/// 2²⁵⁶−1, plus the moduli themselves.
fn edge_values() -> Vec<Limbs> {
    let max = [u64::MAX; 4];
    let (p_minus_1, _) = u256::sub(&P.m, &[1, 0, 0, 0]);
    let (n_minus_1, _) = u256::sub(&N.m, &[1, 0, 0, 0]);
    vec![[0; 4], [1, 0, 0, 0], p_minus_1, n_minus_1, P.m, N.m, max]
}

/// `a^(p−2)`, and the square roots of `a` and `a²` as `v^((p+1)/4)` where
/// that squares back to `v` — all through the generic `pow_mod` ladder,
/// the reference the field's addition chains are held to. (Half of all
/// elements are non-residues; `a²` makes the `Some` arm certain.)
fn field_pows_by_generic_ladder(a: &Fe) -> (Fe, [Option<Fe>; 2]) {
    let (p_minus_2, _) = u256::sub(&P.m, &[2, 0, 0, 0]);
    let quarter_p_plus_1 = [0xFFFFFFFFBFFFFF0C, u64::MAX, u64::MAX, 0x3FFFFFFFFFFFFFFF];
    let sqrt = |v: Fe| {
        let root = Fe::from_limbs(P.pow_mod(v.limbs(), &quarter_p_plus_1));
        (root.square() == v).then_some(root)
    };
    (Fe::from_limbs(P.pow_mod(a.limbs(), &p_minus_2)), [sqrt(*a), sqrt(a.square())])
}

#[test]
fn addition_chains_agree_with_the_generic_ladder_on_edge_values() {
    // 0, 1, p−1, n−1 and the reductions of n, 2²⁵⁶−1.
    for limbs in edge_values() {
        let a = Fe::from_limbs(limbs);
        let (inv, roots) = field_pows_by_generic_ladder(&a);
        if !a.is_zero() {
            assert_eq!(a.invert(), inv, "invert {a}");
        }
        assert_eq!([a.sqrt(), a.square().sqrt()], roots, "sqrt {a}");
    }
}

#[test]
fn specialized_reduction_agrees_on_edge_products() {
    // Every pairwise product of the edge values, through both reductions.
    let edges = edge_values();
    for a in &edges {
        for b in &edges {
            let wide = u256::mul_wide(a, b);
            assert_eq!(
                field::reduce_wide(&wide),
                P.reduce_wide(&wide),
                "field reduce of {a:?} * {b:?}"
            );
            assert_eq!(
                scalar::reduce_wide(&wide),
                N.reduce_wide(&wide),
                "scalar reduce of {a:?} * {b:?}"
            );
        }
    }
}

#[test]
fn specialized_reduction_agrees_on_extreme_wides() {
    // Raw 512-bit extremes (not reachable as products of reduced inputs,
    // but the reduction must still be total and correct).
    let max_wide = [u64::MAX; 8];
    let wides: Vec<Wide> = vec![
        [0; 8],
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0], // exactly 2^256
        [0, 0, 0, 0, 0, 0, 0, u64::MAX],
        max_wide,
    ];
    for w in &wides {
        assert_eq!(field::reduce_wide(w), P.reduce_wide(w), "field {w:?}");
        assert_eq!(scalar::reduce_wide(w), N.reduce_wide(w), "scalar {w:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn field_reduce_wide_matches_generic(w in arb_wide()) {
        prop_assert_eq!(field::reduce_wide(&w), P.reduce_wide(&w));
    }

    #[test]
    fn scalar_reduce_wide_matches_generic(w in arb_wide()) {
        prop_assert_eq!(scalar::reduce_wide(&w), N.reduce_wide(&w));
    }

    #[test]
    fn field_mul_matches_generic_mul_mod(a in arb_limbs(), b in arb_limbs()) {
        let fa = Fe::from_limbs(a);
        let fb = Fe::from_limbs(b);
        prop_assert_eq!(fa.mul(&fb).limbs(), &P.mul_mod(fa.limbs(), fb.limbs()));
        // Squaring takes the symmetric-product path; same answer required.
        prop_assert_eq!(fa.square().limbs(), &P.mul_mod(fa.limbs(), fa.limbs()));
    }

    #[test]
    fn scalar_mul_matches_generic_mul_mod(a in arb_limbs(), b in arb_limbs()) {
        let sa = Scalar::from_be_bytes_reduced(&u256::to_be_bytes(&a));
        let sb = Scalar::from_be_bytes_reduced(&u256::to_be_bytes(&b));
        prop_assert_eq!(sa.mul(&sb).limbs(), &N.mul_mod(sa.limbs(), sb.limbs()));
    }

    #[test]
    fn fermat_exponentiations_match_generic_pow(a in arb_limbs()) {
        // Inversion and square root run fixed addition chains (field) or
        // a square-and-multiply ladder (scalar) over the specialized
        // multiplication — compare against the generic exponentiation
        // end to end.
        let fa = Fe::from_limbs(a);
        let (inv, roots) = field_pows_by_generic_ladder(&fa);
        if !fa.is_zero() {
            prop_assert_eq!(fa.invert(), inv);
        }
        prop_assert_eq!([fa.sqrt(), fa.square().sqrt()], roots);
        let sa = Scalar::from_be_bytes_reduced(&u256::to_be_bytes(&a));
        if !sa.is_zero() {
            let (n_minus_2, _) = u256::sub(&N.m, &[2, 0, 0, 0]);
            prop_assert_eq!(sa.invert().limbs(), &N.pow_mod(sa.limbs(), &n_minus_2));
        }
    }
}
