//! A minimal, dependency-free, offline stand-in for the subset of the
//! `rand` 0.8 API this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors this shim under the package name `rand` (see the workspace
//! `[workspace.dependencies]`). It provides:
//!
//! * [`RngCore`] / [`Rng`] with `gen_range`, `gen_bool`, `gen`;
//! * [`SeedableRng::seed_from_u64`] and [`rngs::StdRng`] /
//!   [`rngs::SmallRng`] (both xoshiro256\*\* seeded via splitmix64 —
//!   deterministic across platforms, which is all the tests need);
//! * [`seq::SliceRandom`] with `shuffle` and `choose`.
//!
//! The streams differ from upstream `rand`, but every use in this
//! workspace only relies on determinism-given-seed and uniformity, never
//! on the exact upstream stream.

#![warn(missing_docs)]

/// Low-level generator interface: a source of uniform random `u64`s.
pub trait RngCore {
    /// The next 64 uniform random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniform random bits (high bits of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Generators that can be constructed from a seed.
pub trait SeedableRng: Sized {
    /// Creates a generator deterministically from a `u64` seed.
    fn seed_from_u64(state: u64) -> Self;
}

/// User-facing convenience methods, blanket-implemented for every
/// [`RngCore`] (mirrors `rand::Rng`).
pub trait Rng: RngCore {
    /// A uniform sample from `range` (half-open or inclusive integer
    /// ranges).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool probability {p} out of [0, 1]");
        // 53 uniform mantissa bits, exactly like rand's f64 sampling.
        let x = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        x < p
    }

    /// A uniform sample of the whole domain of `T` (integers and `bool`).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Types uniformly sampleable over their whole domain (the shim's version
/// of `distributions::Standard`).
pub trait Standard {
    /// Draws a uniform value.
    fn sample<R: RngCore>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges that [`Rng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// Draws a uniform sample from the range.
    fn sample_single<R: RngCore>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = (rng.next_u64() as u128 % span) as i128;
                (self.start as i128 + off) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end as i128 - start as i128) as u128 + 1;
                let off = (rng.next_u64() as u128 % span) as i128;
                (start as i128 + off) as $t
            }
        }
    )*};
}
impl_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Named generator types (mirrors `rand::rngs`).
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The shim's standard generator: xoshiro256\*\* seeded by splitmix64.
    /// Deterministic given the seed; not cryptographic (neither is the
    /// upstream use here).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            let mut st = seed;
            StdRng {
                s: [
                    splitmix64(&mut st),
                    splitmix64(&mut st),
                    splitmix64(&mut st),
                    splitmix64(&mut st),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            out
        }
    }

    /// Alias for [`StdRng`] — the shim has a single generator.
    pub type SmallRng = StdRng;
}

/// Sequence-related helpers (mirrors `rand::seq`).
pub mod seq {
    use super::{Rng, RngCore};

    /// Random operations on slices.
    pub trait SliceRandom {
        /// The element type.
        type Item;

        /// Shuffles the slice in place (Fisher–Yates).
        fn shuffle<R: RngCore>(&mut self, rng: &mut R);

        /// A uniformly random element, or `None` if empty.
        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0..1_000_000u64), b.gen_range(0..1_000_000u64));
        }
    }

    #[test]
    fn ranges_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = rng.gen_range(10..20usize);
            assert!((10..20).contains(&x));
            let y = rng.gen_range(-5..=5i64);
            assert!((-5..=5).contains(&y));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
        let heads = (0..10_000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((4_000..6_000).contains(&heads), "unbiased-ish: {heads}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert!(v.choose(&mut rng).is_some());
        let empty: [usize; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }
}
