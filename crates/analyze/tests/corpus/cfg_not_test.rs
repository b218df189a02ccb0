//@ crate: tam
//@ path: src/gated.rs
//! A `cfg` predicate gates an item on `test` only where it requires
//! `test`: under `not(..)` or `any(..)` the item ships in non-test
//! builds, so the local lints must still read it.

/// Compiled only outside tests: shipped code.
#[cfg(not(test))]
pub fn shipped(n: usize) -> u32 {
    n as u32
}

/// Compiled in tests or with the feature: shipped code too.
#[cfg(any(test, feature = "extra"))]
pub fn maybe_shipped(n: usize) -> u32 {
    n as u32
}

/// Compiled only in tests with the feature: test code.
#[cfg(all(test, feature = "extra"))]
pub fn test_only(n: usize) -> u32 {
    n as u32
}
