//! Offline substitute for `proptest`.
//!
//! A deterministic property-test engine that covers the surface this
//! workspace uses:
//!
//! - the [`proptest!`] macro (with an optional `#![proptest_config(...)]`
//!   inner attribute),
//! - [`Strategy`] with `prop_map`, integer-range strategies, tuple
//!   strategies, [`any`], [`collection::vec`], [`array::uniform32`],
//!   `prop::bool::ANY`, `prop::num::u8::ANY`,
//! - `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!` /
//!   `prop_assume!`.
//!
//! Cases are generated from a seed derived from the test's name, so runs
//! are reproducible; failures report the failing case index. Shrinking is
//! intentionally not implemented — with deterministic generation the
//! failing input can be re-created by re-running the named test.

#![warn(missing_docs)]

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Per-proptest-block configuration.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of random cases to execute per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // The real crate defaults to 256; 64 keeps offline CI snappy while
        // still exercising schedules broadly.
        ProptestConfig { cases: 64 }
    }
}

/// Deterministic case-generation RNG (splitmix64).
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// RNG for case `case` of the property named `name`.
    pub fn for_case(name: &str, case: u32) -> Self {
        // FNV-1a over the name, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng(h ^ (u64::from(case).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A recipe for generating values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! impl_range_strategy {
    ($($ty:ty),*) => {$(
        impl Strategy for Range<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u128) - (self.start as u128);
                self.start + ((rng.next_u64() as u128) % span) as $ty
            }
        }
        impl Strategy for RangeInclusive<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u128) - (lo as u128) + 1;
                lo + ((rng.next_u64() as u128) % span) as $ty
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+)),+ $(,)?) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy!(
    (A.0, B.1),
    (A.0, B.1, C.2),
    (A.0, B.1, C.2, D.3),
    (A.0, B.1, C.2, D.3, E.4),
    (A.0, B.1, C.2, D.3, E.4, F.5)
);

/// Types with a canonical "arbitrary value" strategy, used by [`any`].
pub trait Arbitrary: Sized {
    /// Generates an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($ty:ty),*) => {$(
        impl Arbitrary for $ty {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $ty
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl<T: Arbitrary> Arbitrary for Option<T> {
    fn arbitrary(rng: &mut TestRng) -> Self {
        if rng.below(4) == 0 {
            None
        } else {
            Some(T::arbitrary(rng))
        }
    }
}

impl<T: Arbitrary, const N: usize> Arbitrary for [T; N] {
    fn arbitrary(rng: &mut TestRng) -> Self {
        core::array::from_fn(|_| T::arbitrary(rng))
    }
}

impl<T: Arbitrary> Arbitrary for Vec<T> {
    fn arbitrary(rng: &mut TestRng) -> Self {
        let len = rng.below(65);
        (0..len).map(|_| T::arbitrary(rng)).collect()
    }
}

/// Strategy generating arbitrary values of `T` (see [`any`]).
#[derive(Debug)]
pub struct Any<T>(PhantomData<T>);

impl<T> Any<T> {
    /// A new `Any` strategy (const so it can seed `prop::*::ANY`).
    pub const fn new() -> Self {
        Any(PhantomData)
    }
}

impl<T> Clone for Any<T> {
    fn clone(&self) -> Self {
        Any(PhantomData)
    }
}

impl<T> Default for Any<T> {
    fn default() -> Self {
        Any::new()
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any::new()
}

/// Named sub-strategies, mirroring `proptest::prop`.
pub mod prop {
    /// Boolean strategies.
    pub mod bool {
        /// Either boolean, uniformly.
        pub const ANY: crate::Any<bool> = crate::Any::new();
    }
    /// Numeric strategies.
    pub mod num {
        /// `u8` strategies.
        pub mod u8 {
            /// Any `u8`, uniformly.
            pub const ANY: crate::Any<u8> = crate::Any::new();
        }
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Element-count specification for [`vec()`]: a fixed size or a range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi_exclusive: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange { lo: r.start, hi_exclusive: r.end }
        }
    }

    /// Strategy for vectors with elements from `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = self.size.hi_exclusive - self.size.lo;
            let len = self.size.lo + if span > 1 { rng.below(span) } else { 0 };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A vector strategy of `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

/// Fixed-size array strategies.
pub mod array {
    use super::{Strategy, TestRng};

    /// Strategy for `[T; 32]` (see [`uniform32`]).
    #[derive(Debug, Clone)]
    pub struct Uniform32<S>(S);

    impl<S: Strategy> Strategy for Uniform32<S> {
        type Value = [S::Value; 32];
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            core::array::from_fn(|_| self.0.generate(rng))
        }
    }

    /// 32 independent draws from `element`.
    pub fn uniform32<S: Strategy>(element: S) -> Uniform32<S> {
        Uniform32(element)
    }
}

/// The `use proptest::prelude::*` surface.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Any,
        ProptestConfig, Strategy,
    };
}

/// Defines property tests. Supports an optional leading
/// `#![proptest_config(expr)]` and any number of
/// `fn name(arg in strategy, ...) { body }` items carrying their own
/// attributes (including `#[test]`, which the seed sources write
/// explicitly).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Internal expansion helper for [`proptest!`].
#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
        $(#[$attr:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            for __case in 0..__config.cases {
                let mut __rng = $crate::TestRng::for_case(stringify!($name), __case);
                $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)+
                let __run = move || { $body };
                let __outcome = ::std::panic::catch_unwind(
                    ::std::panic::AssertUnwindSafe(__run),
                );
                if let Err(panic) = __outcome {
                    eprintln!(
                        "proptest case {}/{} of `{}` failed (deterministic; re-run to reproduce)",
                        __case + 1,
                        __config.cases,
                        stringify!($name),
                    );
                    ::std::panic::resume_unwind(panic);
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// Asserts a property-test condition.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality within a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality within a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skips the current case when its precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::TestRng;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::for_case("ranges", 0);
        for _ in 0..200 {
            let v = (3u64..9).generate(&mut rng);
            assert!((3..9).contains(&v));
            let w = (1usize..=4).generate(&mut rng);
            assert!((1..=4).contains(&w));
        }
    }

    #[test]
    fn vec_strategy_respects_sizes() {
        let mut rng = TestRng::for_case("vec", 0);
        for _ in 0..50 {
            let fixed = crate::collection::vec(any::<u8>(), 7).generate(&mut rng);
            assert_eq!(fixed.len(), 7);
            let ranged = crate::collection::vec(any::<u8>(), 2..5).generate(&mut rng);
            assert!((2..5).contains(&ranged.len()));
        }
    }

    #[test]
    fn generation_is_deterministic_per_name_and_case() {
        let mut a = TestRng::for_case("x", 3);
        let mut b = TestRng::for_case("x", 3);
        assert_eq!(any::<u64>().generate(&mut a), any::<u64>().generate(&mut b));
        let mut c = TestRng::for_case("x", 4);
        assert_ne!(any::<u64>().generate(&mut a), any::<u64>().generate(&mut c));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro itself: args bind, maps apply, assume skips.
        #[test]
        fn macro_end_to_end(
            x in 0u64..100,
            pair in (any::<u8>(), 1usize..4),
            mapped in (0u32..10).prop_map(|v| v * 2),
            bytes in crate::array::uniform32(any::<u8>()),
            flags in crate::collection::vec(prop::bool::ANY, 7),
        ) {
            prop_assume!(x != 99);
            prop_assert!(x < 99);
            prop_assert_eq!(mapped % 2, 0);
            prop_assert_ne!(pair.1, 0);
            prop_assert_eq!(bytes.len(), 32);
            prop_assert_eq!(flags.len(), 7);
        }
    }
}
