//@ crate: serve
//@ path: src/locks.rs
//! LOCK-01 in the daemon: the same pairwise inversion as
//! `lock01_inversion.rs`, in `serve` instead of `exec`.
use std::sync::Mutex;

/// Takes `a` before `b`.
pub fn forward(a: &Mutex<u32>, b: &Mutex<u32>) {
    let _a = a.lock();
    let _b = b.lock();
}

/// Takes `b` before `a`: inverted relative to `forward`.
pub fn backward(a: &Mutex<u32>, b: &Mutex<u32>) {
    let _b = b.lock();
    let _a = a.lock();
}
