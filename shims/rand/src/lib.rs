//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no network access, so this workspace ships a
//! minimal, deterministic implementation of the `rand` API surface the
//! PhoneBit crates use: [`rngs::StdRng`], [`SeedableRng::seed_from_u64`],
//! and the [`Rng`] methods `gen`, `gen_range` and `gen_bool`.
//!
//! The generator is SplitMix64 — deterministic across platforms, which the
//! synthetic-weight and scene generators rely on for reproducibility.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Seedable construction, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The subset of `rand::Rng` the workspace uses.
pub trait Rng {
    /// Next raw 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Samples a value of `T` from its standard distribution
    /// (`f32`/`f64` in `[0, 1)`, integers over their full range).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Samples uniformly from a range (`a..b` or `a..=b`).
    ///
    /// The element type is a direct parameter (as in real `rand`) so type
    /// inference can flow backwards from the call site's usage.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Bernoulli draw with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }
}

/// Standard-distribution sampling for a value type.
pub trait Standard {
    /// Samples one value.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        ((rng.next_u64() >> 40) as f32) * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for f64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        ((rng.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for u64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

/// Uniform sampling from a range type, mirroring `rand`'s `SampleRange<T>`.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_from<R: Rng>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi - lo) as u64 + 1;
                if span == 0 {
                    // Full-width inclusive range.
                    return lo.wrapping_add(rng.next_u64() as $t);
                }
                lo + (rng.next_u64() % span) as $t
            }
        }
    )*};
}

impl_int_range!(usize, u64, u32, u16, u8);

macro_rules! impl_signed_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i64 - self.start as i64) as u64;
                (self.start as i64 + (rng.next_u64() % span) as i64) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i64 - lo as i64) as u64 + 1;
                (lo as i64 + (rng.next_u64() % span) as i64) as $t
            }
        }
    )*};
}

impl_signed_range!(i32, i64);

macro_rules! impl_float_range {
    ($($t:ty, $shift:expr, $denom:expr);*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let unit = ((rng.next_u64() >> $shift) as $t) * (1.0 / $denom as $t);
                self.start + unit * (self.end - self.start)
            }
        }
    )*};
}

impl_float_range!(f32, 40, (1u64 << 24); f64, 11, (1u64 << 53));

/// Concrete generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// Deterministic SplitMix64 generator standing in for `rand::rngs::StdRng`.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            Self {
                state: seed.wrapping_add(0x9E3779B97F4A7C15),
            }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v: f32 = rng.gen();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let u = rng.gen_range(3usize..10);
            assert!((3..10).contains(&u));
            let i = rng.gen_range(-5i32..=5);
            assert!((-5..=5).contains(&i));
            let f = rng.gen_range(0.1f32..0.35);
            assert!((0.1..0.35).contains(&f));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(9);
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }
}
