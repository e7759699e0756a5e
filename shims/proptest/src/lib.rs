//! Offline shim for the `proptest` crate.
//!
//! The build environment has no network access, so the real `proptest`
//! cannot be fetched. This crate implements the subset the workspace's
//! property tests use: the [`proptest!`] macro over `arg in strategy`
//! bindings, range and tuple strategies, [`collection::vec`], and the
//! `prop_assert!` / `prop_assert_eq!` macros.
//!
//! Differences from upstream: no shrinking (a failing case reports the
//! generated inputs as-is), a fixed deterministic case count
//! ([`CASES`]), and strategies are sampled directly rather than through
//! value trees. That keeps failures reproducible run-to-run while
//! preserving the property-test structure of the suite.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of cases each property runs. Deterministic: case `i` of a
/// property is always generated from the same seed.
pub const CASES: u32 = 96;

/// A source of random test inputs (the shim's replacement for
/// proptest's `TestRunner`).
#[derive(Debug)]
pub struct TestRng {
    inner: StdRng,
}

impl TestRng {
    /// Builds the generator for one test case.
    pub fn for_case(test_name: &str, case: u32) -> Self {
        // FNV-1a over the test name keeps independent tests on
        // independent streams.
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in test_name.bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng {
            inner: StdRng::seed_from_u64(hash ^ ((case as u64) << 32)),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.inner.gen()
    }

    fn next_f64(&mut self) -> f64 {
        self.inner.gen()
    }
}

/// Generates values of `Self::Value` for one property-test argument.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($ty:ty),*) => {$(
        impl Strategy for std::ops::Range<$ty> {
            type Value = $ty;

            fn generate(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as u128) - (self.start as u128);
                let draw = ((rng.next_u64() as u128) * span) >> 64;
                self.start + draw as $ty
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

pub mod collection {
    //! Collection strategies ([`vec()`]).

    use super::{Strategy, TestRng};

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: std::ops::Range<usize>,
    }

    /// Generates vectors whose elements come from `element` and whose
    /// length is drawn uniformly from `size`.
    pub fn vec<S: Strategy>(element: S, size: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.size.generate(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Failure raised by the `prop_assert*` macros; carries the formatted
/// message up to the harness, which reports the offending case.
#[derive(Debug)]
pub struct TestCaseError(pub String);

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// item expands to a `#[test]` running [`CASES`] deterministic cases.
#[macro_export]
macro_rules! proptest {
    ($($(#[$attr:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {$(
        $(#[$attr])*
        fn $name() {
            for case in 0..$crate::CASES {
                let mut prop_rng = $crate::TestRng::for_case(stringify!($name), case);
                $(let $arg = $crate::Strategy::generate(&($strat), &mut prop_rng);)+
                let inputs = format!(concat!($(stringify!($arg), " = {:?}; ",)+), $(&$arg),+);
                let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| { $body Ok(()) })();
                if let Err(e) = outcome {
                    panic!("property {} failed at case {}/{}: {}\n  inputs: {}",
                        stringify!($name), case, $crate::CASES, e, inputs);
                }
            }
        }
    )*};
}

/// `assert!` that reports through the property harness.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError(format!(
                "assertion failed: {}", stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError(format!($($fmt)+)));
        }
    };
}

/// `assert_eq!` that reports through the property harness.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::TestCaseError(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::TestCaseError(format!(
                "{}\n  left: {:?}\n right: {:?}", format!($($fmt)+), l, r
            )));
        }
    }};
}

pub mod prelude {
    //! The usual glob import: `use proptest::prelude::*;`.

    pub use crate::{prop_assert, prop_assert_eq, proptest, Strategy, TestCaseError, TestRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #[test]
        fn ranges_respected(x in 5u64..10, y in 0u8..3) {
            prop_assert!((5..10).contains(&x));
            prop_assert!(y < 3);
        }

        #[test]
        fn vectors_sized(v in crate::collection::vec(0u8..4, 1..17)) {
            prop_assert!(!v.is_empty() && v.len() < 17);
            prop_assert!(v.iter().all(|&b| b < 4));
        }

        #[test]
        fn tuples_compose(pair in (0u32..7, 0.0f64..1.0)) {
            prop_assert!(pair.0 < 7);
            prop_assert!((0.0..1.0).contains(&pair.1));
            prop_assert_eq!(pair.0, pair.0);
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let mut a = TestRng::for_case("t", 3);
        let mut b = TestRng::for_case("t", 3);
        let strat = 0u64..1000;
        assert_eq!(strat.generate(&mut a), strat.generate(&mut b));
    }

    #[test]
    fn distinct_tests_get_distinct_streams() {
        let strat = 0u64..u64::MAX;
        let x = strat.generate(&mut TestRng::for_case("alpha", 0));
        let y = strat.generate(&mut TestRng::for_case("beta", 0));
        assert_ne!(x, y);
    }
}
