//! Offline stand-in for `proptest`, used because the build environment has
//! no access to crates.io. Supports the subset of the API the workspace's
//! property tests use: the [`strategy::Strategy`] trait with `prop_map` /
//! `prop_recursive`, [`strategy::Just`], integer-range strategies,
//! `prop::collection::vec`, the `prop_oneof!` / `proptest!` /
//! `prop_assert*!` / `prop_assume!` macros and [`ProptestConfig`].
//!
//! Differences from the real crate: cases are generated from a fixed
//! deterministic seed derived from the test name (fully reproducible runs),
//! and failing cases are reported but **not shrunk**.

pub mod strategy {
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::ops::Range;
    use std::rc::Rc;

    /// Generation-only mirror of `proptest::strategy::Strategy`.
    pub trait Strategy {
        /// The type of values produced.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut StdRng) -> Self::Value;

        /// Type-erases the strategy (cheaply clonable).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy {
                f: Rc::new(move |rng| self.generate(rng)),
            }
        }

        /// Maps generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> BoxedStrategy<U>
        where
            Self: Sized + 'static,
            F: Fn(Self::Value) -> U + 'static,
        {
            BoxedStrategy {
                f: Rc::new(move |rng| f(self.generate(rng))),
            }
        }

        /// Builds a recursive strategy: `self` is the leaf case, `recurse`
        /// wraps an inner strategy into the composite case, and `depth`
        /// bounds the nesting. (`_desired_size` / `_expected_branch` are
        /// accepted for signature compatibility and ignored.)
        fn prop_recursive<F, S>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> S,
            S: Strategy<Value = Self::Value> + 'static,
        {
            let base = self.boxed();
            let mut cur = base.clone();
            for _ in 0..depth {
                let deeper = recurse(cur).boxed();
                let leaf = base.clone();
                // Recurse with probability 2/3 so generated values mix
                // shallow and deep shapes.
                cur = BoxedStrategy {
                    f: Rc::new(move |rng: &mut StdRng| {
                        if rng.gen_range(0..3u32) > 0 {
                            deeper.generate(rng)
                        } else {
                            leaf.generate(rng)
                        }
                    }),
                };
            }
            cur
        }
    }

    /// A type-erased, reference-counted strategy.
    pub struct BoxedStrategy<T> {
        f: Rc<dyn Fn(&mut StdRng) -> T>,
    }

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy {
                f: Rc::clone(&self.f),
            }
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut StdRng) -> T {
            (self.f)(rng)
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice among equally weighted boxed alternatives
    /// (the expansion of `prop_oneof!`).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Clone for Union<T> {
        fn clone(&self) -> Self {
            Union {
                options: self.options.clone(),
            }
        }
    }

    impl<T> Union<T> {
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut StdRng) -> T {
            let i = rng.gen_range(0..self.options.len());
            self.options[i].generate(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i32, i64);
}

/// Mirror of the `proptest::prop` facade module.
pub mod prop {
    /// Collection strategies (only `vec` is provided).
    pub mod collection {
        use crate::strategy::Strategy;
        use rand::Rng;
        use std::ops::Range;

        /// Vectors of `element` values with length drawn from `len`.
        pub fn vec<S>(element: S, len: Range<usize>) -> VecStrategy<S> {
            VecStrategy { element, len }
        }

        /// Strategy produced by [`vec()`].
        #[derive(Clone)]
        pub struct VecStrategy<S> {
            element: S,
            len: Range<usize>,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut rand::rngs::StdRng) -> Vec<S::Value> {
                let n = rng.gen_range(self.len.clone());
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }
    }
}

/// Test-runner plumbing used by the `proptest!` macro expansion.
pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A deterministic RNG derived from the test's name, so every run of a
    /// given test explores the same cases.
    pub fn rng_for(test_name: &str) -> StdRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        StdRng::seed_from_u64(h)
    }
}

/// Mirror of `proptest::test_runner::Config` (only `cases` is honoured).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each test runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// The glob-importable prelude, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

/// Uniform choice among the listed strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// Asserts a condition inside a proptest body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err(format!($($fmt)*));
        }
    };
}

/// Asserts equality inside a proptest body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{} == {}` (left: `{:?}`, right: `{:?}`)",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{} == {}` (left: `{:?}`, right: `{:?}`): {}",
            stringify!($left), stringify!($right), l, r, format!($($fmt)*)
        );
    }};
}

/// Discards the current case when the assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Ok(());
        }
    };
}

/// Declares property tests. Each `fn name(arg in strategy, ...)` body runs
/// for `config.cases` generated inputs; `prop_assert*!` failures report the
/// case number (no shrinking).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@munch ($config) $($rest)*);
    };
    (@munch ($config:expr)) => {};
    (@munch ($config:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),* $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let mut rng = $crate::test_runner::rng_for(concat!(module_path!(), "::", stringify!($name)));
            $(let $arg = $strategy;)*
            for case in 0..config.cases {
                let result: ::std::result::Result<(), String> = (|| {
                    $(let $arg = $crate::strategy::Strategy::generate(&$arg, &mut rng);)*
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(msg) = result {
                    panic!("proptest case {case} of {} failed: {msg}", stringify!($name));
                }
            }
        }
        $crate::proptest!(@munch ($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@munch ($crate::ProptestConfig::default()) $($rest)*);
    };
}
