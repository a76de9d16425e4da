//! A minimal, dependency-free, offline stand-in for the subset of the
//! `proptest` 1.x API this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors this shim under the package name `proptest`. Scope:
//!
//! * the [`proptest!`] macro (multiple `#[test] fn name(arg in strategy, …)`
//!   items, optional `#![proptest_config(…)]` header);
//! * [`Strategy`] with `prop_map`, implemented for integer ranges, tuples
//!   and [`Just`]; [`any`] for primitives; `prop::collection::vec`;
//! * [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_assert_ne!`].
//!
//! Differences from upstream: cases are generated from a deterministic
//! per-test seed (hash of the test path — stable across runs and
//! platforms) and there is **no shrinking**; a failure reports the case
//! number and the assertion message. That trades minimal counterexamples
//! for zero dependencies, which is the right trade for this offline
//! repository.

#![warn(missing_docs)]

use std::fmt;

/// Deterministic generator driving all strategies (splitmix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds from an arbitrary string (FNV-1a), e.g. the test path.
    pub fn from_name(name: &str) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng { state: h }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A failed test case (returned early by the `prop_assert…` macros).
#[derive(Debug, Clone)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Creates a failure with a message.
    pub fn fail(message: impl Into<String>) -> TestCaseError {
        TestCaseError { message: message.into() }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

/// Per-`proptest!` configuration (only `cases` is honoured).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases generated per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        // Upstream defaults to 256; 64 keeps the offline suite fast while
        // still exercising plenty of instances.
        ProptestConfig { cases: 64 }
    }
}

/// A generator of values of an associated type (no shrinking).
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// A strategy applying `f` to generated values.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// A strategy retrying until `f` accepts the value (bounded retries).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(self, whence: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter { inner: self, f, whence }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        (**self).sample(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        (**self).sample(rng)
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// See [`Strategy::prop_filter`].
#[derive(Debug, Clone)]
pub struct Filter<S, F> {
    inner: S,
    f: F,
    whence: &'static str,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.sample(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!("prop_filter({}) rejected 1000 consecutive samples", self.whence);
    }
}

/// A strategy producing a fixed value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128).wrapping_sub(self.start as i128) as u128;
                let off = (rng.next_u64() as u128 % span) as i128;
                ((self.start as i128) + off) as $t
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end as i128).wrapping_sub(start as i128) as u128 + 1;
                let off = (rng.next_u64() as u128 % span) as i128;
                ((start as i128) + off) as $t
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

// i128 ranges used by locap-num: sampled via u128 arithmetic to avoid
// overflow in the span computation.
impl Strategy for core::ops::Range<i128> {
    type Value = i128;
    fn sample(&self, rng: &mut TestRng) -> i128 {
        assert!(self.start < self.end, "cannot sample empty range");
        let span = self.end.wrapping_sub(self.start) as u128;
        let off = (rng.next_u64() as u128) % span;
        self.start.wrapping_add(off as i128)
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        #[allow(non_snake_case)]
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A) (A, B) (A, B, C) (A, B, C, D) (A, B, C, D, E) (A, B, C, D, E, F)
}

/// Types with a canonical whole-domain strategy (see [`any`]).
pub trait Arbitrary: Sized {
    /// Draws a uniform value of the whole domain.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// The whole-domain strategy for `T` (mirrors `proptest::prelude::any`).
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// See [`any`].
#[derive(Debug, Clone, Copy)]
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Mirrors the `proptest::prop` facade module.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::{Strategy, TestRng};

        /// A strategy for `Vec`s with element strategy `elem` and a length
        /// drawn from `len` (any strategy producing `usize`, e.g. a range).
        pub fn vec<S: Strategy, L: Strategy<Value = usize>>(elem: S, len: L) -> VecStrategy<S, L> {
            VecStrategy { elem, len }
        }

        /// See [`vec()`].
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S, L> {
            elem: S,
            len: L,
        }

        impl<S: Strategy, L: Strategy<Value = usize>> Strategy for VecStrategy<S, L> {
            type Value = Vec<S::Value>;
            fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let n = self.len.sample(rng);
                (0..n).map(|_| self.elem.sample(rng)).collect()
            }
        }
    }
}

/// Everything a test file needs (mirrors `proptest::prelude`).
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig,
        Strategy, TestCaseError, TestRng,
    };
}

/// Asserts a condition inside a property, failing the case (not panicking
/// the harness) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} at {}:{}",
                stringify!($cond), file!(), line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} ({}) at {}:{}",
                stringify!($cond), format!($($fmt)*), file!(), line!()
            )));
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}\n at {}:{}",
                stringify!($left), stringify!($right), l, r, file!(), line!()
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {} ({})\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), format!($($fmt)*), l, r
            )));
        }
    }};
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} != {}\n  both: {:?}\n at {}:{}",
                stringify!($left),
                stringify!($right),
                l,
                file!(),
                line!()
            )));
        }
    }};
}

/// Declares property tests: each `fn name(arg in strategy, …) { body }`
/// becomes a `#[test]` running `config.cases` generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (cfg = $cfg:expr; $(
        $(#[$attr:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$attr])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::TestRng::from_name(concat!(
                module_path!(), "::", stringify!($name)
            ));
            for __case in 0..__config.cases {
                $(let $arg = $crate::Strategy::sample(&($strat), &mut __rng);)+
                // the immediately-called closure gives `$body` a `?`-capable
                // Result scope, mirroring real proptest
                #[allow(clippy::redundant_closure_call)]
                let __outcome: ::core::result::Result<(), $crate::TestCaseError> =
                    (|| -> ::core::result::Result<(), $crate::TestCaseError> {
                        $body
                        ::core::result::Result::Ok(())
                    })();
                if let ::core::result::Result::Err(e) = __outcome {
                    panic!(
                        "proptest {}: case {}/{} failed:\n{}",
                        stringify!($name), __case + 1, __config.cases, e
                    );
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_cover_domain(x in 0usize..10, y in -5i64..=5) {
            prop_assert!(x < 10);
            prop_assert!((-5..=5).contains(&y));
        }

        #[test]
        fn tuples_and_map(pair in (1u32..5, 1u32..5).prop_map(|(a, b)| a * b)) {
            prop_assert!((1..25).contains(&pair));
        }

        #[test]
        fn vec_strategy(v in prop::collection::vec(0u8..4, 2usize..6)) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| x < 4));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]
        #[test]
        fn config_is_honoured(seed in any::<u64>()) {
            let _ = seed;
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = TestRng::from_name("x");
        let mut b = TestRng::from_name("x");
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    #[should_panic(expected = "case 1/64 failed")]
    fn failures_report_case() {
        proptest! {
            #[allow(dead_code)]
            fn always_fails(x in 0u8..10) {
                prop_assert!(x > 200, "x = {}", x);
            }
        }
        always_fails();
    }
}
