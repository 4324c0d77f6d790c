//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access, so this workspace ships a
//! deterministic, std-only implementation of the proptest API surface used
//! by `tests/proptests.rs`: the [`Strategy`] trait over ranges / `any` /
//! `collection::vec` / `sample::select`, the `proptest!` macro (including
//! `#![proptest_config(...)]`), and `prop_assert!` / `prop_assert_eq!`.
//!
//! Unlike real proptest there is no shrinking: each test runs `cases`
//! deterministic samples seeded from the test's module path and case index,
//! so failures reproduce exactly across runs and machines.

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::Range;

/// Deterministic SplitMix64 generator driving all strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds from a test name and case index (stable across runs).
    pub fn deterministic(name: &str, case: u32) -> Self {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
        Self {
            state: h ^ ((case as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15)),
        }
    }

    /// Next raw 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A failed assertion inside a proptest body.
#[derive(Debug)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Builds a failure with a message.
    pub fn fail(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// Per-test configuration, mirroring `proptest::test_runner::Config`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of deterministic cases to run.
    pub cases: u32,
}

impl ProptestConfig {
    /// Overrides the case count.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// A value generator, mirroring `proptest::strategy::Strategy`.
pub trait Strategy {
    /// The generated type.
    type Value;
    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

impl Strategy for Range<usize> {
    type Value = usize;
    fn sample(&self, rng: &mut TestRng) -> usize {
        self.start + (rng.next_u64() % (self.end - self.start) as u64) as usize
    }
}

impl Strategy for Range<u64> {
    type Value = u64;
    fn sample(&self, rng: &mut TestRng) -> u64 {
        self.start + rng.next_u64() % (self.end - self.start)
    }
}

impl Strategy for Range<i32> {
    type Value = i32;
    fn sample(&self, rng: &mut TestRng) -> i32 {
        let span = (self.end as i64 - self.start as i64) as u64;
        (self.start as i64 + (rng.next_u64() % span) as i64) as i32
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn sample(&self, rng: &mut TestRng) -> f32 {
        self.start + rng.unit_f64() as f32 * (self.end - self.start)
    }
}

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    };
}

tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);

#[doc(hidden)]
mod __range_inclusive {
    // `1..=3`-style sizes for `collection::vec`, mirroring proptest's
    // blanket `Into<SizeRange>`.
    impl From<std::ops::RangeInclusive<usize>> for super::collection::SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            super::collection::SizeRange::Ranged(*r.start()..*r.end() + 1)
        }
    }
}

/// Full-type-range strategy returned by [`any`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

/// Types with a canonical full-range strategy.
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for u8 {
    fn arbitrary(rng: &mut TestRng) -> u8 {
        rng.next_u64() as u8
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The strategy generating any value of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// A length specification: exact or ranged.
    #[derive(Debug, Clone)]
    pub enum SizeRange {
        /// Exactly this many elements.
        Exact(usize),
        /// Uniformly drawn from the half-open range.
        Ranged(Range<usize>),
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange::Exact(n)
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            SizeRange::Ranged(r)
        }
    }

    /// Vector-of-strategy strategy.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = match &self.size {
                SizeRange::Exact(n) => *n,
                SizeRange::Ranged(r) => {
                    r.start + (rng.next_u64() % (r.end - r.start) as u64) as usize
                }
            };
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// A vector of values drawn from `element`, with `size` elements.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Sampling strategies, mirroring `proptest::sample`.
pub mod sample {
    use super::{Strategy, TestRng};

    /// Uniform choice among a fixed set.
    #[derive(Debug, Clone)]
    pub struct Select<T> {
        choices: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            self.choices[(rng.next_u64() % self.choices.len() as u64) as usize].clone()
        }
    }

    /// Picks uniformly from `choices`.
    ///
    /// # Panics
    ///
    /// Panics if `choices` is empty.
    pub fn select<T: Clone>(choices: Vec<T>) -> Select<T> {
        assert!(!choices.is_empty(), "select requires at least one choice");
        Select { choices }
    }
}

/// `prop::` paths used inside `proptest!` bodies.
pub mod prop {
    pub use crate::collection;
    pub use crate::sample;
}

/// The common imports, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, proptest, Arbitrary, ProptestConfig, Strategy,
        TestCaseError,
    };
}

/// Asserts inside a proptest body, returning a [`TestCaseError`] on failure.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Equality assertion inside a proptest body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{}` == `{}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                left,
                right
            )));
        }
    }};
}

/// Declares property tests: each generated `#[test]` runs `cases`
/// deterministic samples of its argument strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Internal expansion of [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $(
        #[test]
        fn $name:ident ( $( $arg:ident in $strat:expr ),* $(,)? ) $body:block
    )*) => {$(
        #[test]
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut __proptest_rng = $crate::TestRng::deterministic(
                    concat!(module_path!(), "::", stringify!($name)),
                    case,
                );
                $(
                    let $arg = $crate::Strategy::sample(&($strat), &mut __proptest_rng);
                )*
                let result: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(e) = result {
                    panic!(
                        "proptest {} failed at case {case}: {e}",
                        stringify!($name)
                    );
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = crate::TestRng::deterministic("t", 0);
        let mut b = crate::TestRng::deterministic("t", 0);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::TestRng::deterministic("t", 1);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_stay_in_bounds(
            n in 1usize..10,
            x in -5i32..5,
            f in 0.25f32..0.75,
            seed in any::<u64>(),
        ) {
            prop_assert!((1..10).contains(&n));
            prop_assert!((-5..5).contains(&x));
            prop_assert!((0.25..0.75).contains(&f), "f out of range: {}", f);
            let _ = seed;
        }

        #[test]
        fn vec_and_select_work(
            bits in prop::collection::vec(any::<bool>(), 7),
            sized in prop::collection::vec(0usize..3, 1..5),
            g in prop::sample::select(vec![-1.0f32, 2.0]),
        ) {
            prop_assert_eq!(bits.len(), 7);
            prop_assert!(!sized.is_empty() && sized.len() < 5);
            prop_assert!(g == -1.0 || g == 2.0);
        }

        #[test]
        fn early_return_ok_is_allowed(flag in any::<bool>()) {
            if flag {
                return Ok(());
            }
            prop_assert!(!flag);
        }
    }

    #[test]
    fn prop_asserts_produce_errors() {
        fn body(x: usize) -> Result<(), TestCaseError> {
            prop_assert!(x > 100, "x was {}", x);
            prop_assert_eq!(x % 2, 1);
            Ok(())
        }
        assert!(body(1).unwrap_err().to_string().contains("x was 1"));
        assert!(body(102).is_err());
        assert!(body(101).is_ok());
    }
}
